"""Nelson-Siegel-Svensson parametric curves and their price-based fitter.

The forward curve is

    f(t) = b0 + b1*exp(-t/l1) + b2*(t/l1)*exp(-t/l1) + b3*(t/l2)*exp(-t/l2)

and integrating (1/t) * int_0^t f gives the spot yield

    y(t) = b0 + b1*h(t/l1) + b2*(h(t/l1) - exp(-t/l1)) + b3*(h(t/l2) - exp(-t/l2))

with h(x) = (1 - exp(-x))/x. The plain Nelson-Siegel curve is the b3 = 0
special case. Fitting minimizes duration-weighted squared price errors with a
multi-start simplex search; the decay scales live in log space inside a
[0.05, 30] year box.

The starts run in lockstep. Each start's Nelder-Mead runs are generators
(``_nelder_mead``) that replay scipy's algorithm step for step and ask for
the points they need; ``minimize`` gathers every start's pending points each
round and prices those inside the box in one batched kernel call
(``_price_errors``). The starts never interact, so every run, and hence the
fit, is bit-identical to running scipy's Nelder-Mead on each start in turn.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from operator import add

import numpy as np

from .errors import FitFailureError, ValidationError
from .market import MarketSnapshot
from .pricing import YieldCurve, cashflow_matrix, duration_price_weights, yield_to_maturity

LAMBDA_BOX = (0.05, 30.0)
_LOG_LO, _LOG_HI = float(np.log(LAMBDA_BOX[0])), float(np.log(LAMBDA_BOX[1]))
# Objective value outside the feasible region; flat, so the simplex retreats.
_WALL = 1e12
# Below this x, (1 - exp(-x))/x is summed as a series to avoid cancellation.
_SERIES_BELOW = 1e-4

# Coarse (l1, l2) starting pairs; chosen to straddle short- and long-hump
# shapes. Extra starts beyond these are drawn from the seeded RNG.
_BASE_STARTS = (
    (0.5, 3.0),
    (1.0, 5.0),
    (2.0, 8.0),
    (0.3, 10.0),
    (1.5, 1.5),
    (5.0, 15.0),
    (0.8, 2.0),
    (3.0, 12.0),
)


@dataclass(frozen=True)
class NssParams:
    """Svensson curve parameters: four loadings and two decay scales in years."""

    beta0: float
    beta1: float
    beta2: float
    beta3: float
    lambda1: float
    lambda2: float

    def __post_init__(self):
        if not (self.lambda1 > 0 and self.lambda2 > 0):
            raise ValidationError(f"decay scales must be positive, got {self.lambda1}, {self.lambda2}")
        if not (self.beta0 > -0.10):
            raise ValidationError(f"beta0 must exceed -0.10, got {self.beta0}")


@dataclass(frozen=True)
class NssFitConfig:
    """Fitter knobs: number of simplex starts, iteration cap, RNG seed."""

    starts: int = 8
    max_iter: int = 4000
    seed: int = 0

    def __post_init__(self):
        if self.starts < 1:
            raise ValidationError("starts must be >= 1")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be >= 1")


def _decay_ratio(x: np.ndarray) -> np.ndarray:
    """(1 - exp(-x))/x, series-expanded below 1e-4 to avoid cancellation."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < _SERIES_BELOW
    xs = x[small]
    out[small] = 1.0 - xs / 2.0 + xs**2 / 6.0 - xs**3 / 24.0
    xl = x[~small]
    out[~small] = -np.expm1(-xl) / xl
    return out


def _decay_terms(neg_t: np.ndarray, lam: float, t_min: float) -> tuple[np.ndarray, np.ndarray]:
    """``h(x)`` and ``h(x) - exp(-x)`` at ``x = t/lam``, from negated times ``neg_t``.

    Works on ``n = -t/lam`` so that ``exp(n)`` and ``expm1(n)/n`` need no
    further negation. Sign flips are exact, so the values equal the positive-x
    forms bit for bit. ``t_min`` is the smallest time (NaN if any is NaN):
    dividing by a positive ``lam`` keeps the order, so ``t_min/lam`` is the
    smallest x and decides whether any entry needs ``_decay_ratio``'s series
    branch.
    """
    n = neg_t / lam
    h = np.expm1(n) / n if t_min / lam >= _SERIES_BELOW else _decay_ratio(-n)
    return h, h - np.exp(n)


def _nss_yields(b0, b1, b2, b3, l1, l2, neg_t: np.ndarray, t_min: float) -> np.ndarray:
    """Spot yields at the times ``-neg_t``; see ``_decay_terms`` for ``t_min``."""
    h1, s1 = _decay_terms(neg_t, l1, t_min)
    _, s2 = _decay_terms(neg_t, l2, t_min)
    return b0 + b1 * h1 + b2 * s1 + b3 * s2


def nss_yield(params: NssParams, t, limit_at_zero: bool = False):
    """Spot yield at maturity ``t`` (scalar or array).

    ``t`` must be positive; passing t = 0 is rejected unless
    ``limit_at_zero=True``, in which case the analytic short-end limit
    beta0 + beta1 is returned for those entries.
    """
    arr = np.asarray(t, dtype=float)
    # written as "not all valid" so that a NaN maturity is rejected too
    if not np.all(arr >= 0) or (not limit_at_zero and not np.all(arr > 0)):
        raise ValueError(f"nss_yield requires t > 0 (t = 0 only with limit_at_zero), got {t}")
    out = np.empty_like(arr)
    zero = arr == 0
    if np.any(zero):
        out[zero] = params.beta0 + params.beta1
    if np.any(~zero):
        t_pos = arr[~zero]
        out[~zero] = _nss_yields(
            params.beta0, params.beta1, params.beta2, params.beta3,
            params.lambda1, params.lambda2, -t_pos, t_pos.min(),
        )
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def nss_forward(params: NssParams, t):
    """Instantaneous forward rate at ``t >= 0`` (scalar or array)."""
    arr = np.asarray(t, dtype=float)
    if not np.all(arr >= 0):
        raise ValueError(f"nss_forward requires t >= 0, got {t}")
    x1 = arr / params.lambda1
    x2 = arr / params.lambda2
    out = (
        params.beta0
        + params.beta1 * np.exp(-x1)
        + params.beta2 * x1 * np.exp(-x1)
        + params.beta3 * x2 * np.exp(-x2)
    )
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


@dataclass(frozen=True)
class NssCurve(YieldCurve):
    """Adapter exposing an NssParams as an evaluable spot curve."""

    params: NssParams

    def yields(self, ts: np.ndarray) -> np.ndarray:
        return nss_yield(self.params, ts)


def _basis(t: np.ndarray, l1: float, l2: float) -> np.ndarray:
    neg_t, t_min = -t, t.min()
    h1, s1 = _decay_terms(neg_t, l1, t_min)
    _, s2 = _decay_terms(neg_t, l2, t_min)
    return np.column_stack([np.ones_like(t), h1, s1, s2])


def _warm_start_betas(maturities: np.ndarray, ytms: np.ndarray, l1: float, l2: float) -> np.ndarray:
    betas, *_ = np.linalg.lstsq(_basis(maturities, l1, l2), ytms, rcond=None)
    return betas


def _price_errors(bonds) -> Callable[[np.ndarray], np.ndarray]:
    """Build ``errors(rows)``: the duration-weighted squared price error on
    ``bonds`` of each Svensson curve in ``rows``, a (K, 6) array of
    ``(b0, b1, b2, b3, l1, l2)``.

    The snapshot's arrays (negated anchor times, cashflow matrix, prices,
    weights) are laid out once here, so each call runs only the ufuncs of the
    formula itself, once for the whole batch. Operation order is part of the
    behaviour: every row's value is bit-identical to the direct formula
    ``sum(w * (p - C @ exp(-t * y(t)))**2)`` on that row alone, because
    Nelder-Mead runs that stop at the iteration cap amplify a last-bit
    difference into a different fitted curve. Hence ``np.matmul(C, D[:, :, None])``,
    one matrix-vector product per row as ``C @ d``; ``C @ D.T`` is one matrix
    product, whose sums round differently. The anchor times come sorted, so
    ``t[0]`` and the smallest decay scale alone decide whether the series
    branch of ``_decay_ratio`` is needed; that branch gives every other entry
    the value of the plain one.
    """
    weights = duration_price_weights(bonds)
    anchor_times, C = cashflow_matrix(bonds)
    prices = np.array([b.market_price for b in bonds])
    neg_t = -anchor_times
    t_min = float(anchor_times[0])

    def errors(rows: np.ndarray) -> np.ndarray:
        b = rows[:, :4, None]
        lam = rows[:, 4:, None]
        n = neg_t / lam
        h = np.expm1(n) / n if t_min / lam.min() >= _SERIES_BELOW else _decay_ratio(-n)
        s = h - np.exp(n)
        yields = b[:, 0] + b[:, 1] * h[:, 0] + b[:, 2] * s[:, 0] + b[:, 3] * s[:, 1]
        r = prices - np.matmul(C, np.exp(neg_t * yields)[:, :, None])[:, :, 0]
        return (weights * (r * r)).sum(axis=1)

    return errors


def nss_objective(snapshot: MarketSnapshot, params: NssParams) -> float:
    """Duration-weighted squared price error of ``params`` on ``snapshot``."""
    row = [params.beta0, params.beta1, params.beta2, params.beta3, params.lambda1, params.lambda2]
    return float(_price_errors(list(snapshot.bonds))(np.array([row]))[0])


@dataclass(frozen=True)
class NmRun:
    """One Nelder-Mead run: its best vertex and value, objective evaluations,
    iterations, and whether it converged before the iteration cap."""

    x: np.ndarray
    fun: float
    nfev: int
    nit: int
    success: bool


def _by_value(sim: list, fsim: list) -> tuple[list, list]:
    """Vertices and values in the order of ``np.argsort(fsim)``, as scipy sorts them."""
    order = np.array(fsim).argsort().tolist()
    return [sim[i] for i in order], [fsim[i] for i in order]


def _nelder_mead(x0, maxiter: int, xatol: float, fatol: float):
    """Nelder-Mead from ``x0`` as a generator: it yields the list of points it
    needs evaluated and is sent their values, and returns an ``NmRun``.

    It replays ``scipy.optimize.minimize(method="Nelder-Mead")`` with
    ``maxiter`` and no ``maxfev`` (coefficients rho = 1, chi = 2,
    psi = sigma = 1/2, the same 5% start simplex and stopping test) step for
    step on Python floats, which round exactly as numpy's float64 ufuncs do.
    Every expression keeps scipy's operation order: the centroid is summed
    row by row, then divided by N. Vertices are reordered by ``np.argsort``,
    twice after the start simplex and once per iteration as scipy does: its
    default sort is not stable, and ties (such as two vertices on the
    ``_WALL``) decide which vertex moves.
    """
    x0 = [float(v) for v in x0]
    n = len(x0)
    sim = [x0]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = yield sim
    nfev = n + 1
    sim, fsim = _by_value(*_by_value(sim, fsim))
    iterations = 1
    while iterations < maxiter:
        best = sim[0]
        # scipy's test is max|sim[1:] - sim[0]| <= xatol and max|fsim[0] - fsim[1:]|
        # <= fatol; the worst vertex's value gap, checked first, mostly settles it
        if (
            abs(fsim[0] - fsim[-1]) <= fatol
            and all(abs(fsim[0] - f) <= fatol for f in fsim[1:])
            and all(abs(v - b) <= xatol for row in sim[1:] for v, b in zip(row, best))
        ):
            break
        centre = sim[0]
        for row in sim[1:-1]:
            centre = list(map(add, centre, row))
        xbar = [c / n for c in centre]
        worst = sim[-1]
        xr = [2 * c - w for c, w in zip(xbar, worst)]
        (fxr,) = yield [xr]
        nfev += 1
        shrink = False
        if fxr < fsim[0]:
            xe = [3 * c - 2 * w for c, w in zip(xbar, worst)]
            (fxe,) = yield [xe]
            nfev += 1
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:
            xc = [1.5 * c - 0.5 * w for c, w in zip(xbar, worst)]
            (fxc,) = yield [xc]
            nfev += 1
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                shrink = True
        else:
            xcc = [0.5 * c + 0.5 * w for c, w in zip(xbar, worst)]
            (fxcc,) = yield [xcc]
            nfev += 1
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            pts = [[b + 0.5 * (v - b) for v, b in zip(row, best)] for row in sim[1:]]
            sim[1:] = pts
            fsim[1:] = yield pts
            nfev += n
        iterations += 1
        sim, fsim = _by_value(sim, fsim)
    # np.min, as scipy reports it: NaN if any vertex value is NaN
    fun = fsim[0] if all(f == f for f in fsim) else float("nan")
    return NmRun(np.array(sim[0]), fun, nfev, iterations, iterations < maxiter)


def _start_and_polish(x0, max_iter: int):
    """One start's two Nelder-Mead runs; the polish restarts from the first
    run's best vertex with tighter tolerances."""
    first = yield from _nelder_mead(x0, max_iter, 1e-10, 1e-14)
    polish = yield from _nelder_mead(first.x, max_iter, 1e-12, 1e-16)
    return first, polish


@dataclass(frozen=True)
class LockstepResult:
    """Each start's (first, polish) runs, in start order; ``nfev`` totals
    their objective evaluations, and ``success`` says no run was capped."""

    runs: list[tuple[NmRun, NmRun]]
    nfev: int
    success: bool


def _on_wall(x) -> bool:
    """Whether the simplex objective is the flat ``_WALL`` at ``x``: a log
    decay scale outside the box, or b0 <= -0.10 (NaN counts as outside)."""
    return not (_LOG_LO <= x[4] <= _LOG_HI and _LOG_LO <= x[5] <= _LOG_HI) or x[0] <= -0.10


def minimize(bonds, X0, max_iter: int) -> LockstepResult:
    """Run every start of ``X0`` (rows of ``(b0, b1, b2, b3, log l1, log l2)``)
    through its first and polish Nelder-Mead runs, in lockstep.

    The objective is the price error of ``_price_errors(bonds)``, with a flat
    ``_WALL`` value outside the decay box and at b0 <= -0.10. Each round
    collects the points every unfinished start asks for, applies the wall test
    to each, and prices all points inside the box in one batched call. The
    starts never interact, so each run is the run scipy's Nelder-Mead makes
    from the same point on the same objective, bit for bit.
    """
    errors = _price_errors(bonds)
    chains = [_start_and_polish(x0, max_iter) for x0 in X0]
    asks = {i: next(chain) for i, chain in enumerate(chains)}
    runs: list = [None] * len(chains)
    while asks:
        rows, slots, answers = [], [], []
        for i, points in asks.items():
            vals = [_WALL] * len(points)
            answers.append((i, vals))
            for k, p in enumerate(points):
                if _on_wall(p):
                    continue
                rows.append(p)
                slots.append((vals, k))
        if rows:
            batch = np.array(rows)
            batch[:, 4:] = np.exp(batch[:, 4:])
            for (vals, k), e in zip(slots, errors(batch).tolist()):
                vals[k] = e
        for i, vals in answers:
            try:
                asks[i] = chains[i].send(vals)
            except StopIteration as done:
                runs[i] = done.value
                del asks[i]
    nfev = sum(first.nfev + polish.nfev for first, polish in runs)
    success = all(first.success and polish.success for first, polish in runs)
    return LockstepResult(runs, nfev, success)


def _start_points(bonds, config: NssFitConfig) -> list[np.ndarray]:
    """The simplex starts ``(b0, b1, b2, b3, log l1, log l2)``: the base decay
    pairs, then pairs drawn from the seeded RNG, each with warm-start betas."""
    maturities = np.array([b.maturity for b in bonds])
    ytms = np.array([yield_to_maturity(b) for b in bonds])
    rng = np.random.default_rng(config.seed)
    lambda_pairs = list(_BASE_STARTS[: config.starts])
    while len(lambda_pairs) < config.starts:
        lambda_pairs.append(tuple(np.exp(rng.uniform(_LOG_LO, _LOG_HI, size=2))))
    return [
        np.array([*_warm_start_betas(maturities, ytms, l1, l2), np.log(l1), np.log(l2)])
        for l1, l2 in lambda_pairs
    ]


def fit_nss(snapshot: MarketSnapshot, config: NssFitConfig | None = None) -> NssParams:
    """Fit Svensson parameters to a snapshot by weighted price-error descent.

    Requires at least 6 bonds (one per parameter). Each start seeds the four
    loadings with a least-squares fit of the yield basis to the bonds' flat
    yields at the given decay pair, then runs Nelder-Mead over
    (betas, log l1, log l2) with a polish restart. The starts run in lockstep
    (see ``minimize``), so each round prices all their pending points in one
    batched call. Deterministic for a fixed config; the best objective wins,
    ties going to the earlier start. Raises ``FitFailureError`` when every
    start hits the iteration cap or ends on the penalty wall.
    """
    config = config or NssFitConfig()
    bonds = list(snapshot.bonds)
    if len(bonds) < 6:
        raise ValidationError(f">= 6 bonds required to fit 6 parameters, got {len(bonds)}")

    best_x = None
    best_fun = np.inf
    any_converged = False
    for first, res in minimize(bonds, _start_points(bonds, config), config.max_iter).runs:
        any_converged = any_converged or first.success or res.success
        if res.fun < best_fun:
            best_fun = float(res.fun)
            best_x = res.x
    if best_x is None or not any_converged:
        raise FitFailureError(
            f"all {config.starts} starts hit the iteration cap ({config.max_iter}) without converging"
        )
    if best_fun >= _WALL:
        raise FitFailureError(
            f"all {config.starts} starts ended on the penalty wall "
            f"(beta0 <= -0.10 or a decay scale outside {LAMBDA_BOX})"
        )
    b0, b1, b2, b3, ll1, ll2 = best_x
    return NssParams(
        beta0=float(b0), beta1=float(b1), beta2=float(b2), beta3=float(b3),
        lambda1=float(np.exp(ll1)), lambda2=float(np.exp(ll2)),
    )
