"""Shallow-network yield curve with a composite smoothness/trend loss.

The curve is a single hidden layer of tanh units mapping maturity to spot
yield, ``y(t) = sum_i v_i * tanh(w_i * t + b_i) + c``. Training runs per-bond
stochastic gradient steps on

    loss_j = (p_j - p_hat_j)^2 + gamma1 * L_smooth + gamma2 * L_trend

where p_j and p_hat_j are bond j's market and model prices per 100 of face,
L_smooth is the largest absolute slope of the fitted curve over a fixed
tenor grid and L_trend the mean absolute slope gap to the benchmark curve over
the same grid. Gradients are hand-written backpropagation through the bond
present value, the discount map exp(-t*y), and the network; the max in
L_smooth uses the standard subgradient (only the argmax pair contributes, ties
to the lower index). Everything is deterministic given the seed.

Every step, whatever its kind (a bond's price error alone, the price error
with the per-bond penalties, or the per-epoch penalty on its own), is one
formulation over the packed weights theta = [w | b | v | c] and the
concatenated inputs ``[cashflow times | grid tenors]``: a function that
``_stepper`` builds once per pass, with every array it uses bound then.
One matmul of ``[w | b]`` against ``[inputs; 1]`` and one ``tanh`` fill a
(3H + 1, n + G) table of sech^2 u, sech^2, tanh (= dy/dv) and dy/dc, whose
last row is 1 on the cashflow times and 0 on the grid (c moves the price; the
penalties see slopes alone, and c cancels in a slope). The inputs are tiled
to (H, n + G) once, so no step broadcasts over the table. One matvec of
``[v | c]`` against the table's last H + 1 rows gives y at every input, and
one product of the grid's part of y with a fixed difference matrix its
slopes. The step then writes d loss / d y at each input into one weight
vector, times a scale: ``2 err (-t disc)`` on the cashflow times and, on the
grid, the finite difference of ``(gamma1 s [i = argmax] + gamma2 sign(e) / G)
/ dt``. One matmul of the table against that vector, with v applied to its
2H entries for w and b, is the scaled gradient. Training scales by the
learning rate, so its update is one in-place subtract; ``grad_loss_*`` and
``total_loss`` run the same step at scale 1.

A training's first E epochs are the training of E epochs: ``train`` reads
its epoch count only as its loop bound and in its messages. So one training
to the largest of several counts serves them all (``checkpoints``), as
hyperscan's cells of one (gamma1, gamma2, learning rate) do.

Training chains tens of thousands of tiny steps, so a last-bit change in a
step (another summation order, another SIMD path) moves the trained weights.
It moves them little: the behaviour is a tolerance, not a bit pattern.
``tests/test_neural_kernel.py`` holds a golden of trained weights over a
matrix of configurations and checks every retraining against it within a
stated relative tolerance; a fixed seed on one machine still gives the same
bits on every run.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass

import numpy as np

from .errors import CurveKitError, DivergenceError, ValidationError
from .evaluation import DEFAULT_TENORS, TenorGrid
from .market import BenchmarkCurve, MarketSnapshot, check_count
from .pricing import YTM_BRACKET, YieldCurve, cashflow_schedule, yield_to_maturity

_REGULARIZER_MODES = ("per_bond", "per_epoch")


@dataclass(frozen=True)
class NnParams:
    """Network weights: input weights w, hidden biases b, output weights v, bias c."""

    w: tuple[float, ...]
    b: tuple[float, ...]
    v: tuple[float, ...]
    c: float

    def __post_init__(self):
        object.__setattr__(self, "w", tuple(float(x) for x in self.w))
        object.__setattr__(self, "b", tuple(float(x) for x in self.b))
        object.__setattr__(self, "v", tuple(float(x) for x in self.v))
        if len(self.w) < 1 or not (len(self.w) == len(self.b) == len(self.v)):
            raise ValidationError("w, b, v must share a length >= 1")
        if not all(np.isfinite(list(self.w) + list(self.b) + list(self.v) + [self.c])):
            raise ValidationError("network parameters must all be finite")

    @property
    def hidden_count(self) -> int:
        return len(self.w)


@dataclass(frozen=True)
class TrainConfig:
    """Training protocol knobs; defaults follow the tuned reference setup."""

    learning_rate: float = 1e-8
    epochs: int = 1000
    gamma1: float = 1e3
    gamma2: float = 1e4
    grid: tuple[float, ...] = DEFAULT_TENORS
    seed: int = 0
    init_scale: float = 0.1
    hidden_count: int = 3
    regularizer: str = "per_bond"

    def __post_init__(self):
        if not (0 < self.learning_rate < math.inf):
            raise ValidationError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        object.__setattr__(self, "epochs", check_count("epochs", self.epochs))
        if not (0 <= self.gamma1 < math.inf and 0 <= self.gamma2 < math.inf):
            raise ValidationError(f"gamma1 and gamma2 must be finite and >= 0, got {self.gamma1}, {self.gamma2}")
        object.__setattr__(self, "grid", TenorGrid(self.grid).tenors)
        object.__setattr__(self, "hidden_count", check_count("hidden_count", self.hidden_count))
        if not (0 <= self.init_scale < math.inf):
            raise ValidationError(f"init_scale must be finite and >= 0, got {self.init_scale}")
        if self.init_scale == 0:
            object.__setattr__(self, "init_scale", 0.0)  # numpy's normal rejects a scale of -0.0
        if self.regularizer not in _REGULARIZER_MODES:
            raise ValidationError(f"regularizer must be one of {_REGULARIZER_MODES}")


def _tenors(grid) -> np.ndarray:
    return np.array(TenorGrid(grid).tenors)


def nn_yield(params: NnParams, t):
    """Network output at maturity ``t`` (scalar or array)."""
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    w, b, v = np.array(params.w), np.array(params.b), np.array(params.v)
    out = v @ np.tanh(w[:, None] * arr[None, :] + b[:, None]) + params.c
    return float(out[0]) if np.isscalar(t) or np.asarray(t).ndim == 0 else out


@dataclass(frozen=True)
class NnCurve(YieldCurve):
    """Adapter exposing NnParams as an evaluable spot curve."""

    params: NnParams

    def yields(self, ts: np.ndarray) -> np.ndarray:
        return nn_yield(self.params, ts)


# ---------------------------------------------------------------------------
# Loss components and their gradients
# ---------------------------------------------------------------------------


class _Pass:
    """The inputs of one step of the network ``theta``: a bond's cashflows, a tenor grid, or both.

    ``theta`` is the packed weight vector [w | b | v | c] that training
    updates in place; the step reads it through views. The inputs are the
    bond's cashflow times (n of them, with their ``amounts`` and the bond's
    ``price``) and then the grid ``tenors`` (G of them). A pass without a bond
    (n = 0) serves the grid alone; one without a grid (G = 0) serves the
    price alone.
    """

    __slots__ = ("theta", "times", "amounts", "price", "id", "tenors")

    def __init__(self, theta, times, amounts=None, price=None, bond_id=None, tenors=None):
        self.theta, self.times, self.amounts, self.price, self.id = theta, times, amounts, price, bond_id
        self.tenors = np.empty(0) if tenors is None else tenors


class _Penalty:
    """``gamma1 * L_smooth + gamma2 * L_trend`` over one tenor grid.

    ``diff`` is the (G, G - 1) matrix that maps the curve at the G tenors to
    its G - 1 slopes. A slope's sign times its scale is the ``q_i`` of the
    step: ``trend_scale`` is scale gamma2 / (G dt_i) for every slope gap and
    ``smooth_scale`` scale gamma1 / dt_i for the steepest slope, where scale
    is the step's (the learning rate in ``train``, 1 for a gradient).
    """

    __slots__ = ("tenors", "diff", "gamma1", "gamma2", "n_grid", "bench_slopes", "trend_scale", "smooth_scale")

    def __init__(self, tenors, gamma1, gamma2, benchmark=None, scale=1.0):
        dt, k = np.diff(tenors), np.arange(len(tenors) - 1)
        self.tenors, self.diff = tenors, np.zeros((len(tenors), len(dt)))
        self.diff[k, k], self.diff[k + 1, k] = -1.0 / dt, 1.0 / dt
        self.gamma1, self.gamma2, self.n_grid = gamma1, gamma2, len(tenors)
        self.bench_slopes = _benchmark_slopes(benchmark, tenors) if gamma2 else None
        self.trend_scale = scale * gamma2 / self.n_grid / dt
        self.smooth_scale = (scale * gamma1 / dt).tolist()


def _stepper(p: _Pass, pen: _Penalty | None, grad: np.ndarray, scale: float) -> Callable[[], float]:
    """The step of pass ``p``: a function returning its loss at ``p.theta`` that writes its gradient into ``grad``.

    The loss, returned unscaled, is the squared price error of the pass's
    bond (if it has one) plus ``pen`` at its grid (if it has one). The
    gradient in theta = [w | b | v | c] is written times ``scale``, which
    ``pen`` carries in its ``trend_scale`` and ``smooth_scale``. The step is
    the formulation of the module docstring, and every array it uses is bound
    here once: the views of ``theta``, the inputs tiled to (H, n + G) for the
    sech^2 u rows, and the [w | b] entries of ``grad`` as (2, H), which take
    their factor v after the product. On the grid, ``q_i`` = (d penalty /
    d slope_i) / dt_i, zero-padded at both ends, puts ``q_{j-1} - q_j`` on
    tenor j; the max in L_smooth uses the standard subgradient: only the
    argmax slope contributes, ties to the lower index.
    """
    theta, times, amounts, price, tenors = p.theta, p.times, p.amounts, p.price, p.tenors
    h, n, g = len(theta) // 3, len(times), len(tenors)
    inputs = np.concatenate([times, tenors])
    inputs_1 = np.stack([inputs, np.ones(n + g)])
    inputs_h = np.tile(inputs, (h, 1))
    wb, v, vc = theta[:2 * h].reshape(2, h).T, theta[2 * h:3 * h], theta[2 * h:]
    grad_wb = grad[:2 * h].reshape(2, h)
    T = np.zeros((3 * h + 1, n + g))
    T[3 * h, :n] = 1.0    # dy/dc
    dw, sech2, th, vc_rows = T[:h], T[h:2 * h], T[2 * h:3 * h], T[2 * h:]
    ones = np.ones((h, n + g))    # 1 - x costs less against a table of ones than against the float
    y, weights = np.empty(n + g), np.empty(n + g)
    y_price, y_grid, w_price, w_grid = y[:n], y[n:], weights[:n], weights[n:]
    neg_times, disc, coef = -times, np.empty(n), np.empty(())    # numpy takes a 0-d array faster than a float
    neg_flows = neg_times * amounts if n else None    # -t * amount
    if g:
        gamma1, gamma2, n_grid, diff = pen.gamma1, pen.gamma2, pen.n_grid, pen.diff
        bench_slopes, trend_scale, smooth_scale = pen.bench_slopes, pen.trend_scale, pen.smooth_scale
        slopes, gap = np.empty(g - 1), np.empty(g - 1)
        q_pad = np.zeros(g + 1)    # [0 | q | 0]
        q, q_lo, q_hi = q_pad[1:-1], q_pad[:-1], q_pad[1:]

    def step() -> float:
        wb.dot(inputs_1, out=th)                  # w u + b
        np.tanh(th, out=th)
        np.multiply(th, th, out=sech2)
        np.subtract(ones, sech2, out=sech2)       # sech^2
        np.multiply(sech2, inputs_h, out=dw)      # sech^2 u
        vc.dot(vc_rows, out=y)                    # v tanh + c on the price inputs
        loss = 0.0
        if n:
            np.multiply(neg_times, y_price, out=disc)
            np.exp(disc, out=disc)                # discount factors
            err = float(amounts.dot(disc)) - price
            loss = err * err                      # inf on overflow, where err**2 would raise
            np.multiply(neg_flows, disc, out=w_price)    # d price / d y(t_k)
            coef[()] = 2.0 * scale * err
            np.multiply(w_price, coef, out=w_price)
        if g:
            y_grid.dot(diff, out=slopes)
            value = 0.0
            if gamma1:
                i = int(np.abs(slopes).argmax())            # first max wins on ties
                x = float(slopes[i])
                s = 1.0 if x > 0 else -1.0 if x < 0 else 0.0 if x == 0 else x    # np.sign, nan included
                value = gamma1 * abs(x)
            if gamma2:
                np.subtract(slopes, bench_slopes, out=gap)
                np.sign(gap, out=q)
                value += gamma2 * (float(q.dot(gap)) / n_grid)    # sign(e) . e = sum |e|
                np.multiply(q, trend_scale, out=q)
            else:
                q.fill(0.0)
            if gamma1:
                q[i] += s * smooth_scale[i]
            np.subtract(q_lo, q_hi, out=w_grid)
            loss += value
        T.dot(weights, out=grad)
        np.multiply(grad_wb, v, out=grad_wb)     # dy/dw and dy/db carry v
        return loss

    return step


def _step(p: _Pass, pen: _Penalty | None, grad, scale: float) -> float:
    """One step of pass ``p`` (``_stepper``): its loss, and ``scale`` times its gradient in ``grad``."""
    return _stepper(p, pen, grad, scale)()


def _benchmark_slopes(benchmark: BenchmarkCurve, tenors: np.ndarray) -> np.ndarray:
    return np.diff(benchmark.yields(tenors)) / np.diff(tenors)


def _theta(params: NnParams) -> np.ndarray:
    return np.array(params.w + params.b + params.v + (params.c,))


def _unpack(theta: np.ndarray, h: int) -> tuple:
    """``(w, b, v, c)`` of a packed vector [w | b | v | c]."""
    return (*theta[:3 * h].reshape(3, h), float(theta[3 * h]))


def _bond_passes(snapshot: MarketSnapshot, theta, tenors=None) -> list[_Pass]:
    """One pass per bond, in the snapshot's order (by maturity, then id), priced per 100 of face.

    Each bond's amounts and price are scaled by 100 / face, so the loss and
    the learning rate do not depend on the unit a day is quoted in; on a
    face-100 bond the factor is exactly 1.0 and changes no bit. An amount
    that overflows is inf, and the loss then reports it as not finite.
    """
    passes = []
    with np.errstate(over="ignore"):
        for b in snapshot.bonds:
            times, amounts = cashflow_schedule(b)
            scale = 100.0 / b.face_value
            passes.append(_Pass(theta, times, amounts * scale, b.market_price * scale, b.id, tenors))
    return passes


def _grad_penalty(params: NnParams, pen: _Penalty):
    theta, h = _theta(params), params.hidden_count
    grad = np.empty(3 * h + 1)
    value = _step(_Pass(theta, np.empty(0), tenors=pen.tenors), pen, grad, 1.0)
    return value, _unpack(grad, h)


def loss_error(params: NnParams, snapshot: MarketSnapshot) -> float:
    """Mean squared price error of the network curve over the snapshot, prices per 100 of face."""
    return grad_loss_error(params, snapshot)[0]


def grad_loss_error(params: NnParams, snapshot: MarketSnapshot):
    theta, h = _theta(params), params.hidden_count
    total, g, grad = 0.0, np.zeros(3 * h + 1), np.empty(3 * h + 1)
    for p in _bond_passes(snapshot, theta):
        total += _step(p, None, grad, 1.0)
        g += grad
    m = len(snapshot.bonds)
    return total / m, _unpack(g / m, h)


def loss_smooth(params: NnParams, grid) -> float:
    """Largest absolute slope of the network curve between adjacent grid tenors."""
    return grad_loss_smooth(params, grid)[0]


def grad_loss_smooth(params: NnParams, grid):
    return _grad_penalty(params, _Penalty(_tenors(grid), 1.0, 0.0))


def loss_trend(params: NnParams, benchmark: BenchmarkCurve, grid) -> float:
    """Mean absolute slope gap between the network curve and the benchmark."""
    return grad_loss_trend(params, benchmark, grid)[0]


def grad_loss_trend(params: NnParams, benchmark: BenchmarkCurve, grid):
    return _grad_penalty(params, _Penalty(_tenors(grid), 0.0, 1.0, benchmark))


def total_loss(params: NnParams, snapshot: MarketSnapshot, config: TrainConfig) -> float:
    """Price error (per 100 of face, as ``loss_error``) plus gamma-weighted smoothness and trend penalties."""
    return grad_total_loss(params, snapshot, config)[0]


def grad_total_loss(params: NnParams, snapshot: MarketSnapshot, config: TrainConfig):
    e, ge = grad_loss_error(params, snapshot)
    r, gr = _grad_penalty(params, _Penalty(_tenors(config.grid), config.gamma1, config.gamma2, snapshot.benchmark))
    return e + r, tuple(np.asarray(a) + np.asarray(b) for a, b in zip(ge, gr))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def train(snapshot: MarketSnapshot, config: TrainConfig | None = None, *,
          checkpoints: Sequence[int] | None = None) -> NnParams | list[NnParams | CurveKitError]:
    """Fit the network to one day of bonds by per-bond gradient steps.

    Bonds are visited in the snapshot's order (by maturity, then id); each visit
    takes one plain gradient step of size ``learning_rate`` on that bond's
    squared price error plus, in the default "per_bond" mode, the two
    gamma-weighted penalties. The "per_epoch" mode instead applies the
    penalties once after each full sweep. The output bias starts at the mean
    flat yield of the snapshot so the network learns shape, not level.
    Raises DivergenceError (with epoch and bond index) if a step loss turns
    non-finite, or if the trained curve's yield at a bond maturity is not
    finite or leaves ``YTM_BRACKET``, the range every flat yield lies in.

    The step works on one packed vector theta = [w | b | v | c], updated in
    place. Every step kind is the function ``_stepper`` builds once per
    training for each ``_Pass``: the bond's cashflow times and, in "per_bond"
    mode, the penalty grid after them; or the grid alone for the per-epoch
    penalty. Its gradient, scaled by ``learning_rate``, is the whole update,
    c included, so the update is one in-place subtract.

    ``epochs`` is read only as the loop's bound and in the messages, so the
    first E epochs of a training are the training of E epochs. With
    ``checkpoints``, epoch counts from 1 to ``config.epochs``, one training
    serves every count: the result is a list with, per count in the order
    given, what ``train`` with that epoch count returns (the weights) or
    raises (its ``CurveKitError``), the final checks included.
    """
    config = config or TrainConfig()
    counts = [config.epochs] if checkpoints is None else [check_count("checkpoint", e) for e in checkpoints]
    if not all(e <= config.epochs for e in counts):
        raise ValidationError(f"checkpoints must not exceed epochs ({config.epochs}), got {counts}")
    lr = config.learning_rate
    penalised = config.gamma1 > 0 or config.gamma2 > 0
    per_bond_reg = penalised and config.regularizer == "per_bond"
    pen = _Penalty(_tenors(config.grid), config.gamma1, config.gamma2, snapshot.benchmark, lr) if penalised else None
    h = config.hidden_count

    maturities = [b.maturity for b in snapshot.bonds]
    span = max(max(maturities) - min(maturities), 1.0)
    rng = np.random.default_rng(config.seed)
    theta = np.concatenate([
        rng.normal(0.0, config.init_scale / span, h),   # w
        rng.normal(0.0, config.init_scale, h),          # b
        rng.normal(0.0, config.init_scale, h),          # v
        [np.mean([yield_to_maturity(bond) for bond in snapshot.bonds])],    # c
    ])
    g = np.empty(3 * h + 1)
    steps = [_stepper(p, pen, g, lr) for p in _bond_passes(snapshot, theta, pen.tenors if per_bond_reg else None)]
    grid_step = _stepper(_Pass(theta, np.empty(0), tenors=pen.tenors), pen, g, lr) \
        if penalised and not per_bond_reg else None
    last = len(steps) - 1

    trained = {}    # epoch count -> weights or the error its final checks raised
    # a diverging step overflows on its way to the non-finite loss that reports it
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for epoch in range(config.epochs):
                for j, step in enumerate(steps):
                    if not math.isfinite(step()):
                        raise DivergenceError(
                            f"training diverged: non-finite loss at epoch {epoch}, bond {snapshot.bonds[j].id}",
                            epoch=epoch, bond_index=j,
                        )
                    np.subtract(theta, g, out=theta)
                if grid_step is not None:
                    if not math.isfinite(grid_step()):
                        raise DivergenceError(
                            f"training diverged: non-finite penalty after epoch {epoch}",
                            epoch=epoch, bond_index=last,
                        )
                    np.subtract(theta, g, out=theta)
                if epoch + 1 in counts:
                    try:
                        trained[epoch + 1] = _checked(NnParams(*_unpack(theta, h)), snapshot, config, epoch)
                    except CurveKitError as exc:
                        trained[epoch + 1] = exc
        except DivergenceError as exc:    # every count not yet reached diverges with it
            trained = {e: trained.get(e, exc) for e in counts}
    if checkpoints is not None:
        return [trained[e] for e in counts]
    if isinstance(trained[config.epochs], CurveKitError):
        raise trained[config.epochs]
    return trained[config.epochs]


def _checked(params: NnParams, snapshot: MarketSnapshot, config: TrainConfig, epoch: int) -> NnParams:
    """``params``, trained through ``epoch``, if they pass ``train``'s final checks; else DivergenceError.

    The checks: the total loss is finite, and the curve lies within
    ``YTM_BRACKET`` at every bond maturity.
    """
    last = len(snapshot.bonds) - 1
    if not np.isfinite(total_loss(params, snapshot, config)):
        raise DivergenceError(f"training diverged: non-finite total loss after epoch {epoch}",
                              epoch=epoch, bond_index=last)
    lo, hi = YTM_BRACKET
    at_maturities = nn_yield(params, np.array([b.maturity for b in snapshot.bonds])).tolist()
    for j, (bond, y) in enumerate(zip(snapshot.bonds, at_maturities)):
        if not lo <= y <= hi:
            raise DivergenceError(
                f"training diverged: yield {y:.6g} at the maturity of bond {bond.id} lies outside [{lo}, {hi}]",
                epoch=epoch, bond_index=j,
            )
    return params


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def nn_to_dict(params: NnParams, config: TrainConfig | None = None) -> dict:
    """JSON-ready dict {H, w, b, v, c, config_echo}; floats keep full precision."""
    return {
        "H": params.hidden_count,
        "w": list(params.w),
        "b": list(params.b),
        "v": list(params.v),
        "c": params.c,
        "config_echo": None if config is None else asdict(config),
    }


def nn_from_dict(data: dict) -> NnParams:
    params = NnParams(w=tuple(data["w"]), b=tuple(data["b"]), v=tuple(data["v"]), c=float(data["c"]))
    if "H" in data and int(data["H"]) != params.hidden_count:
        raise ValidationError(f"H field ({data['H']}) disagrees with weight length ({params.hidden_count})")
    return params
