"""Shallow-network yield curve with a composite smoothness/trend loss.

The curve is a single hidden layer of tanh units mapping maturity to spot
yield, ``y(t) = sum_i v_i * tanh(w_i * t + b_i) + c``. Training runs per-bond
stochastic gradient steps on

    loss_j = (p_j - p_hat_j)^2 + gamma1 * L_smooth + gamma2 * L_trend

where L_smooth is the largest absolute slope of the fitted curve over a fixed
tenor grid and L_trend the mean absolute slope gap to the benchmark curve over
the same grid. Gradients are hand-written backpropagation through the bond
present value, the discount map exp(-t*y), and the network; the max in
L_smooth uses the standard subgradient (only the argmax pair contributes, ties
to the lower index). Everything is deterministic given the seed.

The order of every floating-point operation is part of the behaviour.
Training chains tens of thousands of tiny steps, so one rounding difference in
a step moves the trained weights, and with them every reported fit, model
file and golden test. The kernel below is therefore written as in-place numpy
calls that round exactly like the direct formulas: each matvec keeps the
operand shape and contiguity of the direct form (a fused or column-sliced
matvec can round differently), and scalar factors are applied in the same
grouping. ``tests/test_neural_kernel.py`` holds the direct formulas as the
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ValidationError
from .evaluation import DEFAULT_TENORS
from .market import BenchmarkCurve, MarketSnapshot, sort_bonds
from .pricing import YieldCurve, cashflow_schedule, yield_to_maturity

_REGULARIZER_MODES = ("per_bond", "per_epoch")

_sum = np.add.reduce   # what np.sum and ndarray.sum run, without their Python wrappers


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
        object.__setattr__(self, "grid", tuple(float(t) for t in self.grid))
        if not (0 < self.learning_rate < math.inf):
            raise ValidationError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if not (0 <= self.gamma1 < math.inf and 0 <= self.gamma2 < math.inf):
            raise ValidationError(f"gamma1 and gamma2 must be finite and >= 0, got {self.gamma1}, {self.gamma2}")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValidationError("grid must be strictly increasing")
        if self.hidden_count < 1:
            raise ValidationError("hidden_count must be >= 1")
        if not (0 <= self.init_scale < math.inf):
            raise ValidationError(f"init_scale must be finite and >= 0, got {self.init_scale}")
        if self.init_scale == 0:
            object.__setattr__(self, "init_scale", 0.0)  # numpy's normal rejects a scale of -0.0
        if self.regularizer not in _REGULARIZER_MODES:
            raise ValidationError(f"regularizer must be one of {_REGULARIZER_MODES}")


def _tenors(grid) -> np.ndarray:
    return np.asarray(getattr(grid, "tenors", grid), dtype=float)


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

    def yield_at(self, t: float) -> float:
        return float(nn_yield(self.params, t))


# ---------------------------------------------------------------------------
# Loss components and their gradients
# ---------------------------------------------------------------------------


class _Pass:
    """Preallocated buffers for one forward and backward pass over ``[times | tenors]``.

    ``rows`` is a (3, L) table, L = H * (n + G): after ``_features`` its rows
    hold dy/dw, dy/db and dy/dv (= tanh) of the network output at every time,
    laid out unit-major as an (H, n) block for the bond's cashflow times
    followed by an (H, G) block for the penalty grid. Each block and each of
    its three derivative slices is then a C-contiguous matrix of the shape the
    per-block matvecs expect, so they round exactly as on separate arrays.
    A pass without a bond (``times`` empty) serves the grid alone; one without
    a grid (``tenors`` None) serves the price alone.
    """

    __slots__ = ("id", "price", "neg_times", "amounts", "ts", "index", "rows", "price_rows",
                 "th_price", "th_grid", "y_grid", "y_hi", "y_lo", "d_hi", "d_lo", "dsl", "slopes")

    def __init__(self, h, times, amounts=None, price=None, bond_id=None, tenors=None):
        n = len(times)
        g = 0 if tenors is None else len(tenors)
        self.id, self.price, self.amounts = bond_id, price, amounts
        self.neg_times = -times
        # every input time once per hidden unit, and the parameter each entry reads
        self.ts = np.concatenate([np.tile(times, h), np.tile(tenors, h) if g else np.empty(0)])
        unit = np.concatenate([np.repeat(np.arange(h), n), np.repeat(np.arange(h), g)])
        self.index = np.stack([unit + 2 * h, unit + h, unit])    # gathers v, b, w into rows
        self.rows = np.empty((3, h * (n + g)))
        self.price_rows = self.rows[:, : h * n].reshape(3, h, n)
        self.th_price = self.price_rows[2]
        if g:
            grid_rows = self.rows[:, h * n:].reshape(3, h, g)
            self.th_grid = grid_rows[2]
            self.y_grid = np.empty(g)
            self.y_hi, self.y_lo = self.y_grid[1:], self.y_grid[:-1]
            self.d_hi, self.d_lo = grid_rows[..., 1:], grid_rows[..., :-1]
            self.dsl = np.empty((3, h, g - 1))
            self.slopes = np.empty(g - 1)


def _features(theta, p: _Pass) -> None:
    """Fill ``p.rows`` with dy/dw, dy/db, dy/dv at the parameters ``theta`` = [w | b | v]."""
    dw, db, dv = p.rows
    theta.take(p.index, out=p.rows, mode="clip")    # rows: v, b, w repeated per time
    np.multiply(dv, p.ts, out=dv)
    np.add(dv, db, out=dv)
    np.tanh(dv, out=dv)                             # tanh(w t + b)
    np.multiply(dv, dv, out=db)
    np.subtract(1.0, db, out=db)
    np.multiply(dw, db, out=db)                     # v sech^2
    np.multiply(db, p.ts, out=dw)                   # v sech^2 t


def _price_grad(v, c, p: _Pass, out):
    """Model price of the bond at ``p`` and its gradient.

    Writes d price / d[w, b, v] into ``out`` (shape (3, H)) and returns
    ``(price, d price / dc)``. Needs ``_features`` first.
    """
    y = v @ p.th_price + c
    disc = p.amounts * np.exp(p.neg_times * y)
    coef = p.neg_times * disc                       # d price / d y(t_k)
    np.matmul(p.price_rows, coef, out=out)
    return float(_sum(disc)), float(_sum(coef))


def _slopes(v, c, p: _Pass, dt):
    """Curve slopes over the grid and their (3, H, G-1) gradient. Needs ``_features`` first."""
    np.matmul(v, p.th_grid, out=p.y_grid)
    np.add(p.y_grid, c, out=p.y_grid)
    np.subtract(p.y_hi, p.y_lo, out=p.slopes)
    np.divide(p.slopes, dt, out=p.slopes)
    np.subtract(p.d_hi, p.d_lo, out=p.dsl)
    np.divide(p.dsl, dt, out=p.dsl)
    return p.slopes, p.dsl


def _smooth(slopes, dsl):
    """Largest absolute slope and its subgradient, shape (3, H)."""
    i = int(np.abs(slopes).argmax())                # first max wins on ties
    x = float(slopes[i])
    s = 1.0 if x > 0 else -1.0 if x < 0 else 0.0 if x == 0 else x    # np.sign, nan included
    return abs(x), s * dsl[..., i]


def _trend(slopes, bench_slopes, n_grid, dsl):
    """Mean absolute slope gap and its subgradient, shape (3, H)."""
    e = slopes - bench_slopes
    value = float(_sum(np.abs(e)) / n_grid)
    sg = np.sign(e) / n_grid
    return value, dsl @ sg                          # three (H, G-1) matvecs


def _benchmark_slopes(benchmark: BenchmarkCurve, tenors: np.ndarray) -> np.ndarray:
    rates = np.array([benchmark.yield_at(float(t)) for t in tenors])
    return np.diff(rates) / np.diff(tenors)


def _theta(params: NnParams) -> np.ndarray:
    return np.array(params.w + params.b + params.v)


def _bond_passes(snapshot: MarketSnapshot, h: int, tenors=None) -> list[_Pass]:
    """One pass per bond, in ascending maturity order (ties by id)."""
    return [
        _Pass(h, *cashflow_schedule(b), b.market_price, b.id, tenors)
        for b in sort_bonds(snapshot.bonds)
    ]


def _grid_pass(params: NnParams, grid):
    tenors = _tenors(grid)
    if len(tenors) < 2:
        raise ValidationError("grid needs at least 2 tenors")
    theta, h = _theta(params), params.hidden_count
    p = _Pass(h, np.empty(0), tenors=tenors)
    _features(theta, p)
    return tenors, _slopes(theta[2 * h:], params.c, p, np.diff(tenors))


def loss_error(params: NnParams, snapshot: MarketSnapshot) -> float:
    """Mean squared price error of the network curve over the snapshot."""
    return grad_loss_error(params, snapshot)[0]


def grad_loss_error(params: NnParams, snapshot: MarketSnapshot):
    theta, h, c = _theta(params), params.hidden_count, params.c
    m = len(snapshot.bonds)
    total = 0.0
    g3 = np.zeros((3, h)); gc = 0.0
    pg = np.empty((3, h))
    for p in _bond_passes(snapshot, h):
        _features(theta, p)
        phat, pc = _price_grad(theta[2 * h:], c, p, pg)
        err = phat - p.price
        total += err * err
        g3 += 2.0 * err * pg
        gc += 2.0 * err * pc
    return total / m, (*(g3 / m), gc / m)


def loss_smooth(params: NnParams, grid) -> float:
    """Largest absolute slope of the network curve between adjacent grid tenors."""
    return grad_loss_smooth(params, grid)[0]


def grad_loss_smooth(params: NnParams, grid):
    _, state = _grid_pass(params, grid)
    value, g3 = _smooth(*state)
    return value, (*g3, 0.0)


def loss_trend(params: NnParams, benchmark: BenchmarkCurve, grid) -> float:
    """Mean absolute slope gap between the network curve and the benchmark."""
    return grad_loss_trend(params, benchmark, grid)[0]


def grad_loss_trend(params: NnParams, benchmark: BenchmarkCurve, grid):
    tenors, (slopes, dsl) = _grid_pass(params, grid)
    value, g3 = _trend(slopes, _benchmark_slopes(benchmark, tenors), len(tenors), dsl)
    return value, (*g3, 0.0)


def total_loss(params: NnParams, snapshot: MarketSnapshot, config: TrainConfig) -> float:
    """Price error plus gamma-weighted smoothness and trend penalties."""
    return grad_total_loss(params, snapshot, config)[0]


def grad_total_loss(params: NnParams, snapshot: MarketSnapshot, config: TrainConfig):
    e, ge = grad_loss_error(params, snapshot)
    s, gs = grad_loss_smooth(params, config.grid)
    t, gt = grad_loss_trend(params, snapshot.benchmark, config.grid)
    value = e + config.gamma1 * s + config.gamma2 * t
    grads = tuple(
        np.asarray(a) + config.gamma1 * np.asarray(bb) + config.gamma2 * np.asarray(cc)
        for a, bb, cc in zip(ge, gs, gt)
    )
    return value, grads


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def train(snapshot: MarketSnapshot, config: TrainConfig | None = None) -> NnParams:
    """Fit the network to one day of bonds by per-bond gradient steps.

    Bonds are visited in ascending maturity order (ties by id); each visit
    takes one plain gradient step of size ``learning_rate`` on that bond's
    squared price error plus, in the default "per_bond" mode, the two
    gamma-weighted penalties. The "per_epoch" mode instead applies the
    penalties once after each full sweep. The output bias starts at the mean
    flat yield of the snapshot so the network learns shape, not level.
    Raises DivergenceError (with epoch and bond index) if a step loss turns
    non-finite.

    The step works on one packed vector theta = [w | b | v] (c stays a
    float), updated in place. Each bond's cashflow times, and in "per_bond"
    mode the penalty grid after them, get a ``_Pass`` built once per
    training, so a step is one ``tanh`` over both, two matvecs for the
    curve, one batched matvec for the price gradient and, with the trend
    penalty, one for the trend gradient. Every floating-point operation
    happens in the order of the direct formulas, so the trained network is
    the same to the last bit.
    """
    config = config or TrainConfig()
    tenors = _tenors(config.grid)
    dt = np.diff(tenors)
    bench_slopes = _benchmark_slopes(snapshot.benchmark, tenors)
    n_grid = len(tenors)
    gamma1, gamma2 = config.gamma1, config.gamma2
    penalised = gamma1 > 0 or gamma2 > 0
    per_bond_reg = penalised and config.regularizer == "per_bond"
    per_epoch_reg = penalised and not per_bond_reg
    h = config.hidden_count
    passes = _bond_passes(snapshot, h, tenors if per_bond_reg else None)
    grid = _Pass(h, np.empty(0), tenors=tenors) if per_epoch_reg else None

    maturities = [b.maturity for b in snapshot.bonds]
    span = max(max(maturities) - min(maturities), 1.0)
    rng = np.random.default_rng(config.seed)
    theta = np.concatenate([
        rng.normal(0.0, config.init_scale / span, h),   # w
        rng.normal(0.0, config.init_scale, h),          # b
        rng.normal(0.0, config.init_scale, h),          # v
    ])
    theta3, v = theta.reshape(3, h), theta[2 * h:]
    c = float(np.mean([yield_to_maturity(bond) for bond in snapshot.bonds]))

    lr = config.learning_rate
    g = np.empty(3 * h)
    g3 = g.reshape(3, h)
    for epoch in range(config.epochs):
        for j, p in enumerate(passes):
            _features(theta, p)
            phat, pc = _price_grad(v, c, p, g3)
            err = phat - p.price
            step_loss = err * err   # inf on overflow, where err**2 would raise
            g *= 2.0 * err
            gc = 2.0 * err * pc
            if per_bond_reg:
                slopes, dsl = _slopes(v, c, p, dt)
                if gamma1 > 0:
                    s_val, s_grad = _smooth(slopes, dsl)
                    step_loss += gamma1 * s_val
                    g3 += gamma1 * s_grad
                if gamma2 > 0:
                    t_val, t_grad = _trend(slopes, bench_slopes, n_grid, dsl)
                    step_loss += gamma2 * t_val
                    g3 += gamma2 * t_grad
            if not math.isfinite(step_loss):
                raise DivergenceError(
                    f"training diverged: non-finite loss at epoch {epoch}, bond {p.id}",
                    epoch=epoch, bond_index=j,
                )
            theta -= lr * g
            c = c - lr * gc
        if per_epoch_reg:
            _features(theta, grid)
            slopes, dsl = _slopes(v, c, grid, dt)
            s_val, s_grad = _smooth(slopes, dsl)
            t_val, t_grad = _trend(slopes, bench_slopes, n_grid, dsl)
            reg_loss = gamma1 * s_val + gamma2 * t_val
            if not np.isfinite(reg_loss):
                raise DivergenceError(
                    f"training diverged: non-finite penalty after epoch {epoch}",
                    epoch=epoch, bond_index=len(passes) - 1,
                )
            theta3 -= lr * (gamma1 * s_grad + gamma2 * t_grad)

    params = NnParams(w=tuple(theta3[0]), b=tuple(theta3[1]), v=tuple(theta3[2]), c=float(c))
    final = total_loss(params, snapshot, config)
    if not np.isfinite(final):
        raise DivergenceError(
            f"training diverged: non-finite total loss after epoch {config.epochs - 1}",
            epoch=config.epochs - 1, bond_index=len(passes) - 1,
        )
    return params


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def nn_to_dict(params: NnParams, config: TrainConfig | None = None) -> dict:
    """JSON-ready dict {H, w, b, v, c, config_echo}; floats keep full precision."""
    echo = None
    if config is not None:
        echo = {
            "learning_rate": config.learning_rate,
            "epochs": config.epochs,
            "gamma1": config.gamma1,
            "gamma2": config.gamma2,
            "grid": list(config.grid),
            "seed": config.seed,
            "init_scale": config.init_scale,
            "hidden_count": config.hidden_count,
            "regularizer": config.regularizer,
        }
    return {
        "H": params.hidden_count,
        "w": list(params.w),
        "b": list(params.b),
        "v": list(params.v),
        "c": params.c,
        "config_echo": echo,
    }


def nn_from_dict(data: dict) -> NnParams:
    params = NnParams(w=tuple(data["w"]), b=tuple(data["b"]), v=tuple(data["v"]), c=float(data["c"]))
    if "H" in data and int(data["H"]) != params.hidden_count:
        raise ValidationError(f"H field ({data['H']}) disagrees with weight length ({params.hidden_count})")
    return params
