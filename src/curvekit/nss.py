"""Nelson-Siegel-Svensson parametric curves and their price-based fitter.

The forward curve is

    f(t) = b0 + b1*exp(-t/l1) + b2*(t/l1)*exp(-t/l1) + b3*(t/l2)*exp(-t/l2)

and integrating (1/t) * int_0^t f gives the spot yield

    y(t) = b0 + b1*h(t/l1) + b2*(h(t/l1) - exp(-t/l1)) + b3*(h(t/l2) - exp(-t/l2))

with h(x) = (1 - exp(-x))/x. The plain Nelson-Siegel curve is the b3 = 0
special case. Fitting minimizes duration-weighted squared price errors with a
multi-start simplex search; the decay scales live in log space inside a
[0.05, 30] year box.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

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


def _price_error(bonds) -> Callable[..., float]:
    """Build ``error(b0, b1, b2, b3, l1, l2)``: the duration-weighted squared
    price error of a Svensson curve on ``bonds``.

    The snapshot's arrays (negated anchor times, cashflow matrix, prices,
    weights) are laid out once here, so each call runs only the ufuncs of the
    formula itself. Operation order is part of the behaviour: every
    floating-point step matches the direct formula
    ``sum(w * (p - C @ exp(-t * y(t)))**2)``, so each value is bit-identical
    to it. That matters because Nelder-Mead runs that stop at the iteration
    cap amplify a last-bit difference into a different fitted curve. The
    anchor times come sorted, so ``t[0]`` is the smallest and alone decides
    whether the series branch of ``_decay_ratio`` is needed.
    """
    weights = duration_price_weights(bonds)
    anchor_times, C = cashflow_matrix(bonds)
    prices = np.array([b.market_price for b in bonds])
    neg_t = -anchor_times
    t_min = float(anchor_times[0])

    def error(b0, b1, b2, b3, l1, l2) -> float:
        yields = _nss_yields(b0, b1, b2, b3, l1, l2, neg_t, t_min)
        r = prices - C @ np.exp(neg_t * yields)
        return float((weights * (r * r)).sum())

    return error


def _simplex_objective(bonds) -> Callable[[np.ndarray], float]:
    """Price error over ``x = (b0, b1, b2, b3, log l1, log l2)``, with a flat
    ``_WALL`` value outside the decay box and at b0 <= -0.10."""
    error = _price_error(bonds)

    def objective(x: np.ndarray) -> float:
        b0, b1, b2, b3, ll1, ll2 = x.tolist()
        if not (_LOG_LO <= ll1 <= _LOG_HI and _LOG_LO <= ll2 <= _LOG_HI) or b0 <= -0.10:
            return _WALL
        return error(b0, b1, b2, b3, np.exp(ll1), np.exp(ll2))

    return objective


def nss_objective(snapshot: MarketSnapshot, params: NssParams) -> float:
    """Duration-weighted squared price error of ``params`` on ``snapshot``."""
    error = _price_error(list(snapshot.bonds))
    return error(params.beta0, params.beta1, params.beta2, params.beta3, params.lambda1, params.lambda2)


def fit_nss(snapshot: MarketSnapshot, config: NssFitConfig | None = None) -> NssParams:
    """Fit Svensson parameters to a snapshot by weighted price-error descent.

    Requires at least 6 bonds (one per parameter). Each start seeds the four
    loadings with a least-squares fit of the yield basis to the bonds' flat
    yields at the given decay pair, then runs Nelder-Mead over
    (betas, log l1, log l2) with a polish restart. Deterministic for a fixed
    config; the best objective wins, ties going to the earlier start. Raises
    ``FitFailureError`` when every start hits the iteration cap or ends on
    the penalty wall.
    """
    config = config or NssFitConfig()
    bonds = list(snapshot.bonds)
    if len(bonds) < 6:
        raise ValidationError(f">= 6 bonds required to fit 6 parameters, got {len(bonds)}")

    objective = _simplex_objective(bonds)
    maturities = np.array([b.maturity for b in bonds])
    ytms = np.array([yield_to_maturity(b) for b in bonds])

    rng = np.random.default_rng(config.seed)
    lambda_pairs = list(_BASE_STARTS[: config.starts])
    while len(lambda_pairs) < config.starts:
        lambda_pairs.append(tuple(np.exp(rng.uniform(_LOG_LO, _LOG_HI, size=2))))

    best_x = None
    best_fun = np.inf
    any_converged = False
    for l1, l2 in lambda_pairs:
        betas = _warm_start_betas(maturities, ytms, l1, l2)
        x0 = np.array([*betas, np.log(l1), np.log(l2)])
        first = minimize(
            objective, x0, method="Nelder-Mead",
            options=dict(maxiter=config.max_iter, xatol=1e-10, fatol=1e-14),
        )
        res = minimize(
            objective, first.x, method="Nelder-Mead",
            options=dict(maxiter=config.max_iter, xatol=1e-12, fatol=1e-16),
        )
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
