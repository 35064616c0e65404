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
concatenated inputs ``[cashflow times | grid tenors]``. One matmul of
``[w | b]`` against ``[inputs; 1]`` and one ``tanh`` fill a (3H + 1, n + G)
table of dy/dw, dy/db, dy/dv and dy/dc, whose last row is 1 on the cashflow
times and 0 on the grid (c moves the price; the penalties see slopes alone,
and c cancels in a slope). One matvec of ``[v | c]`` against the table's last
H + 1 rows gives y at every input. The step then writes d loss / d y at each
input into one weight vector, times a scale: ``2 err (-t disc)`` on the
cashflow times and, on the grid, the finite difference of
``(gamma1 s [i = argmax] + gamma2 sign(e) / G) / dt``. One matmul of the
table against that vector is the scaled gradient. Training scales by the
learning rate, so its update is one in-place subtract; ``grad_loss_*`` and
``total_loss`` run the same step at scale 1.

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
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DivergenceError, ValidationError
from .evaluation import DEFAULT_TENORS, TenorGrid
from .market import BenchmarkCurve, MarketSnapshot
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
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if not (0 <= self.gamma1 < math.inf and 0 <= self.gamma2 < math.inf):
            raise ValidationError(f"gamma1 and gamma2 must be finite and >= 0, got {self.gamma1}, {self.gamma2}")
        object.__setattr__(self, "grid", TenorGrid(self.grid).tenors)
        if self.hidden_count < 1:
            raise ValidationError("hidden_count must be >= 1")
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
    """One step of the network ``theta`` over the inputs ``[cashflow times | grid tenors]``.

    The pass reads the packed weights theta = [w | b | v | c] through views
    taken when it is built, so each step sees ``theta`` as updated in place.
    ``U`` (2, n + G) is ``[inputs; 1]``. After ``_forward``, the table ``T``
    (3H + 1, n + G) holds dy/dw, dy/db, dy/dv (= tanh) and dy/dc of the
    network output at every input, and ``y`` (n + G) the output itself. The
    dy/dc row is set once: 1 on the n cashflow times and 0 on the G grid
    tenors, so c reaches the price alone. A step writes d loss / d y, times
    its scale, into ``weights``: ``2 err d price / d y`` on the cashflow times
    and the penalty's weight on the grid tenors (``_penalty``). A pass without
    a bond (n = 0) serves the grid alone; one without a grid (G = 0) serves
    the price alone.
    """

    __slots__ = ("id", "price", "n", "wb", "v", "vc", "U", "inputs", "T", "dw", "db", "th", "vc_rows", "neg_times",
                 "neg_flows", "amounts", "y", "y_price", "y_hi", "y_lo", "disc", "weights", "w_price", "w_grid",
                 "slopes", "gap", "q_pad", "q")

    def __init__(self, theta, times, amounts=None, price=None, bond_id=None, tenors=None):
        h, n = len(theta) // 3, len(times)
        g = 0 if tenors is None else len(tenors)
        self.id, self.price, self.n, self.amounts = bond_id, price, n, amounts
        self.wb, self.v, self.vc = theta[:2 * h].reshape(2, h).T, theta[2 * h:3 * h, None], theta[2 * h:]
        self.U = np.stack([np.concatenate([times, tenors if g else np.empty(0)]), np.ones(n + g)])
        self.inputs = self.U[0]
        self.T = np.zeros((3 * h + 1, n + g))
        self.T[3 * h, :n] = 1.0    # dy/dc
        self.dw, self.db, self.th, self.vc_rows = self.T[:h], self.T[h:2 * h], self.T[2 * h:3 * h], self.T[2 * h:]
        self.neg_times = -times
        self.neg_flows = self.neg_times * amounts if n else None    # -t * amount
        self.y = np.empty(n + g)
        self.y_price, self.y_hi, self.y_lo = self.y[:n], self.y[n + 1:], self.y[n:-1]
        self.disc = np.empty(n)
        self.weights = np.empty(n + g)
        self.w_price, self.w_grid = self.weights[:n], self.weights[n:]
        self.slopes = np.empty(max(g - 1, 0))
        self.gap = np.empty(max(g - 1, 0))
        self.q_pad = np.zeros(g + 1)     # [0 | q | 0]
        self.q = self.q_pad[1:-1]


class _Penalty:
    """``gamma1 * L_smooth + gamma2 * L_trend`` over one tenor grid.

    A slope's sign times its scale is the ``q_i`` of ``_penalty``:
    ``trend_scale`` is scale gamma2 / (G dt_i) for every slope gap and
    ``smooth_scale`` scale gamma1 / dt_i for the steepest slope, where scale
    is the step's (the learning rate in ``train``, 1 for a gradient).
    """

    __slots__ = ("tenors", "dt", "gamma1", "gamma2", "n_grid", "bench_slopes", "trend_scale", "smooth_scale")

    def __init__(self, tenors, gamma1, gamma2, benchmark=None, scale=1.0):
        self.tenors, self.dt = tenors, np.diff(tenors)
        self.gamma1, self.gamma2, self.n_grid = gamma1, gamma2, len(tenors)
        self.bench_slopes = _benchmark_slopes(benchmark, tenors) if gamma2 else None
        self.trend_scale = scale * gamma2 / self.n_grid / self.dt
        self.smooth_scale = (scale * gamma1 / self.dt).tolist()


def _forward(p: _Pass) -> None:
    """Fill ``p.T`` and ``p.y`` at the pass's theta."""
    th, db = p.th, p.db
    p.wb.dot(p.U, out=th)                        # w u + b
    np.tanh(th, out=th)
    np.multiply(th, th, out=db)
    np.subtract(1.0, db, out=db)
    np.multiply(db, p.v, out=db)                 # v sech^2
    np.multiply(db, p.inputs, out=p.dw)          # v sech^2 u
    p.vc.dot(p.vc_rows, out=p.y)                 # v tanh + c on the price inputs


def _penalty(p: _Pass, pen: _Penalty) -> float:
    """Penalty value at the grid outputs of ``p``; writes its scaled d / d y into ``p.w_grid``.

    With ``q_i`` = (d penalty / d slope_i) / dt_i, the weight on output j is
    ``q_{j-1} - q_j`` (``q`` is zero-padded at both ends). The max in
    L_smooth uses the standard subgradient: only the argmax slope
    contributes, ties to the lower index.
    """
    slopes, q = p.slopes, p.q
    np.subtract(p.y_hi, p.y_lo, out=slopes)
    np.divide(slopes, pen.dt, out=slopes)
    value = 0.0
    if pen.gamma1:
        i = int(np.abs(slopes).argmax())            # first max wins on ties
        x = float(slopes[i])
        s = 1.0 if x > 0 else -1.0 if x < 0 else 0.0 if x == 0 else x    # np.sign, nan included
        value = pen.gamma1 * abs(x)
    if pen.gamma2:
        np.subtract(slopes, pen.bench_slopes, out=p.gap)
        np.sign(p.gap, out=q)
        value += pen.gamma2 * (float(q.dot(p.gap)) / pen.n_grid)    # sign(e) . e = sum |e|
        np.multiply(q, pen.trend_scale, out=q)
    else:
        q.fill(0.0)
    if pen.gamma1:
        q[i] += s * pen.smooth_scale[i]
    np.subtract(p.q_pad[:-1], p.q_pad[1:], out=p.w_grid)
    return value


def _step(p: _Pass, pen: _Penalty | None, grad, scale: float) -> float:
    """Loss at ``p``; ``scale`` times its gradient in theta = [w | b | v | c] into ``grad``.

    The loss is the squared price error of the pass's bond (if it has one)
    plus ``pen`` at its grid (if it has one), and is returned unscaled.
    ``pen`` carries the same scale in its ``trend_scale`` and
    ``smooth_scale``.
    """
    _forward(p)
    loss = 0.0
    if p.n:
        disc, w_price = p.disc, p.w_price
        np.multiply(p.neg_times, p.y_price, out=disc)
        np.exp(disc, out=disc)                      # discount factors
        err = float(p.amounts.dot(disc)) - p.price
        loss = err * err                            # inf on overflow, where err**2 would raise
        np.multiply(p.neg_flows, disc, out=w_price)  # d price / d y(t_k)
        np.multiply(w_price, 2.0 * scale * err, out=w_price)
    if len(p.w_grid):
        loss += _penalty(p, pen)
    p.T.dot(p.weights, out=grad)
    return loss


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

def train(snapshot: MarketSnapshot, config: TrainConfig | None = None) -> NnParams:
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
    place. Every step kind is one ``_step`` over a ``_Pass`` built once per
    training: the bond's cashflow times and, in "per_bond" mode, the penalty
    grid after them; or the grid alone for the per-epoch penalty. A step is
    one matmul and one ``tanh`` for the hidden units, one matvec for the
    curve at all its inputs, a weight vector of ``learning_rate`` times
    d loss / d y at each of them, and one matmul of the derivative table
    against it, which is the whole update, c included.
    """
    config = config or TrainConfig()
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
    passes = _bond_passes(snapshot, theta, pen.tenors if per_bond_reg else None)
    grid = _Pass(theta, np.empty(0), tenors=pen.tenors) if penalised and not per_bond_reg else None

    g = np.empty(3 * h + 1)
    # a diverging step overflows on its way to the non-finite loss that reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            for j, p in enumerate(passes):
                step_loss = _step(p, pen, g, lr)
                if not math.isfinite(step_loss):
                    raise DivergenceError(
                        f"training diverged: non-finite loss at epoch {epoch}, bond {p.id}",
                        epoch=epoch, bond_index=j,
                    )
                np.subtract(theta, g, out=theta)
            if grid is not None:
                reg_loss = _step(grid, pen, g, lr)
                if not math.isfinite(reg_loss):
                    raise DivergenceError(
                        f"training diverged: non-finite penalty after epoch {epoch}",
                        epoch=epoch, bond_index=len(passes) - 1,
                    )
                np.subtract(theta, g, out=theta)

        params = NnParams(*_unpack(theta, h))
        final = total_loss(params, snapshot, config)
        if not np.isfinite(final):
            raise DivergenceError(
                f"training diverged: non-finite total loss after epoch {config.epochs - 1}",
                epoch=config.epochs - 1, bond_index=len(passes) - 1,
            )
        lo, hi = YTM_BRACKET
        at_maturities = nn_yield(params, np.array(maturities)).tolist()
        for j, (bond, y) in enumerate(zip(snapshot.bonds, at_maturities)):
            if not lo <= y <= hi:
                raise DivergenceError(
                    f"training diverged: yield {y:.6g} at the maturity of bond {bond.id} "
                    f"lies outside [{lo}, {hi}]",
                    epoch=config.epochs - 1, bond_index=j,
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
