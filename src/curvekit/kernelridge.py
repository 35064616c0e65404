"""Kernel-ridge discount curve: weighted price fit plus a smoothness norm.

The discount function is modeled as ``d(t) = 1 + g(t)`` with g(0) = 0 and g
drawn from the Hilbert space whose squared norm is

    ||g||^2 = int_0^inf [ a * g'(u)^2 + b * g''(u)^2 ] du .

That space reproduces point evaluation through the kernel

    k(s, t) = ( min(s,t) - exp(-m * max(s,t)) * sinh(m * min(s,t)) / m ) / a,
    m = sqrt(a / b),

obtained by solving b*k'''' - a*k'' = delta_s with the natural boundary
conditions k(0) = 0, k''(0) = 0 and decay at infinity. With b = 0 this
degenerates to the first-derivative Sobolev kernel min(s, t) / a. The fit
minimizes

    sum_j w_j * (p_j - p_hat_j)^2 + lambda * alpha' K alpha,
    w_j = 1 / (M * (D_j * p_j)^2),

over the kernel weights alpha placed at the union of all cashflow dates, and
is solved in closed form through an equivalent symmetric positive-definite
system of one equation per bond, laid out by ``_kr_system``. ``numpy.linalg``
solves it with its Cholesky factor L, first with L and then with L'; the
diagonal is jittered if the system is not numerically positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FitFailureError, InvalidDiscountError, SingularSystemError, ValidationError
from .market import MarketSnapshot
from .pricing import YieldCurve, cashflow_matrix, duration_price_weights

_ANCHOR_TOL = 1e-9

cho_factor = np.linalg.cholesky  # looked up per call, so perfbench can count factorisations


@dataclass(frozen=True)
class KernelParams:
    """Weights of the smoothness norm: ``a`` on g', ``b`` on g''.

    Requires a > 0: with a = 0 the norm only sees g'' and linear functions
    through the origin are free, so point evaluation is unbounded and no
    reproducing kernel exists.
    """

    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        if not (0 < self.a < np.inf and 0 <= self.b < np.inf):
            raise ValidationError(f"kernel weights must be finite with a > 0 and b >= 0, got a={self.a}, b={self.b}")


@dataclass(frozen=True)
class KrModel:
    """Fitted kernel-ridge discount curve.

    ``anchor_times`` are the union of all cashflow dates, ``alphas`` the
    kernel weights, so ``d(t) = 1 + sum_l alphas[l] * k(t, anchor_times[l])``.
    ``objective`` and ``price_error`` echo the fitted optimum for diagnostics.
    """

    anchor_times: tuple[float, ...]
    alphas: tuple[float, ...]
    lam: float
    kernel_params: KernelParams
    objective: float = float("nan")
    price_error: float = float("nan")

    def __post_init__(self):
        object.__setattr__(self, "anchor_times", tuple(float(t) for t in self.anchor_times))
        object.__setattr__(self, "alphas", tuple(float(x) for x in self.alphas))
        if len(self.anchor_times) != len(self.alphas):
            raise ValidationError("anchor_times and alphas must have equal length")
        if not np.isfinite(self.anchor_times + self.alphas).all():
            raise ValidationError("anchor_times and alphas must be finite")
        if not self.anchor_times or self.anchor_times[0] <= 0 or any(
            t2 <= t1 for t1, t2 in zip(self.anchor_times, self.anchor_times[1:])
        ):
            raise ValidationError("anchor_times must be non-empty, strictly increasing and > 0")
        if not (0 < self.lam < np.inf):
            raise ValidationError(f"lambda must be finite and > 0, got {self.lam}")

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``anchor_times`` and ``alphas`` as arrays, built on first evaluation."""
        return np.array(self.anchor_times), np.array(self.alphas)


def kr_kernel(s, t, kernel_params: KernelParams = KernelParams()):
    """Reproducing kernel value k(s, t); symmetric, PSD, k(s, 0+) -> 0."""
    s_arr = np.asarray(s, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    if np.any(s_arr <= 0) or np.any(t_arr <= 0):
        raise ValueError("kr_kernel requires positive arguments")
    lo = np.minimum(s_arr, t_arr)
    if kernel_params.b == 0:
        out = lo / kernel_params.a
    else:
        m = np.sqrt(kernel_params.a / kernel_params.b)
        hi = np.maximum(s_arr, t_arr)
        out = (lo - np.exp(-m * hi) * np.sinh(m * lo) / m) / kernel_params.a
    if np.isscalar(s) and np.isscalar(t):
        return float(out)
    return out


def kernel_matrix(times: np.ndarray, kernel_params: KernelParams = KernelParams()) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    return kr_kernel(times[:, None], times[None, :], kernel_params)


def _solve_spd(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Cholesky solve with jitter escalation 1e-12*trace up to 1e-6*trace."""
    trace = float(np.trace(A))
    jitter = 0.0
    scale = 1e-12
    while True:
        try:
            L = cho_factor(A + jitter * np.eye(len(A)))
            return np.linalg.solve(L.T, np.linalg.solve(L, rhs))
        except np.linalg.LinAlgError:
            if scale > 1e-6:
                cond = float(np.linalg.cond(A))
                raise SingularSystemError(
                    f"system stayed singular after jitter escalation "
                    f"(cond ~ {cond:.3e}); lambda too small or duplicated anchor times"
                ) from None
            jitter = scale * trace if trace > 0 else scale
            scale *= 10.0


def _kr_system(snapshot: MarketSnapshot, kernel_params: KernelParams) -> tuple:
    """The fit's layout on ``snapshot``: anchor times, C, K, weights w, prices."""
    bonds = list(snapshot.bonds)
    anchor_times, C = cashflow_matrix(bonds, tol=_ANCHOR_TOL)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing K is fit_kr's error to report
        K = kernel_matrix(anchor_times, kernel_params)
    return anchor_times, C, K, duration_price_weights(bonds), np.array([b.market_price for b in bonds])


def _kr_score(system: tuple, lam: float, alphas: np.ndarray) -> tuple[float, float]:
    """Weighted squared price error of ``alphas``, and the objective: that plus lam * alphas' K alphas."""
    _, C, K, w, prices = system
    fitted = C @ (1.0 + K @ alphas)
    price_error = float(np.sum(w * (prices - fitted) ** 2))
    return price_error, price_error + lam * float(alphas @ K @ alphas)


def fit_kr(
    snapshot: MarketSnapshot,
    lam: float = 1e-2,
    kernel_params: KernelParams = KernelParams(),
) -> KrModel:
    """Closed-form fit of the kernel-ridge discount curve.

    Builds the cashflow matrix C over the anchor set (all cashflow dates,
    deduplicated within 1e-9 years), the kernel matrix K at the anchors and
    the weight matrix W = diag(w_j), then solves

        (W^1/2 C K C' W^1/2 + lambda * I) u = W^1/2 (p - C 1),
        alpha = C' W^1/2 u,

    which satisfies the alpha-space normal equations exactly, so alpha is a
    global minimizer of the convex objective.
    """
    if not (0 < lam < np.inf):
        raise ValidationError(f"lambda must be finite and > 0, got {lam}")
    system = _kr_system(snapshot, kernel_params)
    anchor_times, C, K, w, prices = system
    resid0 = prices - C.sum(axis=1)  # price minus undiscounted cashflows
    sqrt_w = np.sqrt(w)
    G = C @ K @ C.T
    A = sqrt_w[:, None] * G * sqrt_w[None, :] + lam * np.eye(len(prices))
    if not np.isfinite(A).all():
        # sinh(m * t) overflows once m = sqrt(a / b) passes about 710 / t
        raise FitFailureError(
            f"kernel matrix is not finite for a={kernel_params.a}, b={kernel_params.b}; "
            f"raise b or lower a"
        )
    u = _solve_spd(A, sqrt_w * resid0)
    alphas = C.T @ (sqrt_w * u)

    price_error, objective = _kr_score(system, lam, alphas)
    return KrModel(
        anchor_times=tuple(anchor_times),
        alphas=tuple(alphas),
        lam=lam,
        kernel_params=kernel_params,
        objective=objective,
        price_error=price_error,
    )


def kr_objective(snapshot: MarketSnapshot, model: KrModel, alphas=None) -> float:
    """Objective value of ``model`` (or of override weights ``alphas``) on ``snapshot``."""
    system = _kr_system(snapshot, model.kernel_params)
    anchors = system[0]
    if len(anchors) != len(model.anchor_times) or np.max(np.abs(anchors - model._arrays[0])) > _ANCHOR_TOL:
        raise ValidationError("model anchors do not match the snapshot's cashflow dates")
    al = np.array(model.alphas if alphas is None else alphas, dtype=float)
    return _kr_score(system, model.lam, al)[1]


def kr_discount(model: KrModel, t):
    """Discount factor d(t) = 1 + sum_l alpha_l k(t, t_l); t positive."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0):
        raise ValueError(f"kr_discount requires t > 0, got {t}")
    anchors, alphas = model._arrays
    kvals = kr_kernel(t_arr[..., None], anchors, model.kernel_params)
    out = 1.0 + kvals @ alphas
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def kr_yield(model: KrModel, t):
    """Spot yield -ln(d(t))/t; raises, naming the first such t, if the fitted discount is non-positive."""
    t_arr = np.asarray(t, dtype=float)
    d = kr_discount(model, t)
    d_arr = np.asarray(d, dtype=float)
    bad = t_arr[d_arr <= 0]
    if bad.size:
        count = f"{bad.size} of {t_arr.size} tenors, the first at " if bad.size > 1 else ""
        raise InvalidDiscountError(f"fitted discount is non-positive at {count}t = {float(bad[0])!r}")
    out = -np.log(d_arr) / t_arr
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


@dataclass(frozen=True)
class KrCurve(YieldCurve):
    """Adapter exposing a KrModel as an evaluable spot curve."""

    model: KrModel

    def yields(self, ts: np.ndarray) -> np.ndarray:
        return kr_yield(self.model, ts)
