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
system of one equation per bond, built on the bonds' Gram matrix C K C'.
``KrLayout`` builds that matrix once per day, and each replicate of the day
takes its principal submatrix. ``numpy.linalg`` solves the system with its
Cholesky factor L, first with L and then with L'; the diagonal is jittered
if the system is not numerically positive definite.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FitFailureError, InvalidDiscountError, SingularSystemError, ValidationError
from .market import MarketSnapshot
from .pricing import YieldCurve, cashflow_matrix, duration_price_weights

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
    Both are stored as tuples of Python floats, from any sequence of numbers
    (``fit_kr`` passes lists of floats), and checked as floats: no array is
    built per model.
    """

    anchor_times: tuple[float, ...]
    alphas: tuple[float, ...]
    lam: float
    kernel_params: KernelParams
    objective: float = float("nan")
    price_error: float = float("nan")

    def __post_init__(self):
        object.__setattr__(self, "anchor_times", tuple(map(float, self.anchor_times)))
        object.__setattr__(self, "alphas", tuple(map(float, self.alphas)))
        if len(self.anchor_times) != len(self.alphas):
            raise ValidationError("anchor_times and alphas must have equal length")
        if not all(map(math.isfinite, self.anchor_times + self.alphas)):
            raise ValidationError("anchor_times and alphas must be finite")
        if not self.anchor_times or self.anchor_times[0] <= 0 or not all(
            map(operator.lt, self.anchor_times, self.anchor_times[1:])
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
    if not (np.all(s_arr > 0) and np.all(t_arr > 0)):  # NaN is not positive
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


class KrLayout:
    """One day's anchors, C, K and Gram matrix ``G = C K C'``, sliced into each replicate's system.

    It lays out every fit's system; a whole-day fit is the replicate that
    keeps every bond. A replicate holds some of the day's bonds, any of them
    possibly repriced (a copy with the same id, cashflows, face value and
    maturity). Its anchors are the day's anchors that its bonds pay at, and
    its own layout's Gram matrix is the principal submatrix of ``G`` on its
    bonds' rows, bit for bit: each entry sums over the two bonds' own
    cashflows only (``_gram``). ``system`` takes that submatrix, the bonds'
    cashflow totals and their entries of C, whose alphas at the anchors only
    dropped bonds use are 0, so the replicate's alphas and curve are its own
    fit's, bit for bit; its objective and price error read K alphas at its
    own anchors only and match its own to rounding. So a replicate of a day
    whose ``G`` is not finite is sliced as well: the kept bonds' part of
    ``G`` may be finite where the day's is not, and a kernel entry that is
    not finite at a dropped bond's anchor is never read. The weights and
    prices are the replicate's own: the weights depend on its bond count.
    """

    def __init__(self, snapshot: MarketSnapshot, kernel_params: KernelParams):
        self.kernel_params = kernel_params
        self.bonds = snapshot.bonds
        self.anchor_times, C = cashflow_matrix(self.bonds)
        # C's entries, bond by bond and anchor by anchor: bond j's are starts[j]:starts[j + 1]
        bond, self.at = np.nonzero(C)  # every bond pays at least its face value
        self.amounts = C[bond, self.at]
        self.starts = np.searchsorted(bond, np.arange(len(self.bonds) + 1))
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing K is fit_kr's error to report
            self.K = kernel_matrix(self.anchor_times, kernel_params)
            self.G, self.totals = _gram(self.at, self.amounts, self.starts[:-1], self.K)
        self.rows = {b.id: j for j, b in enumerate(self.bonds)}

    def system(self, snapshot: MarketSnapshot) -> tuple | None:
        """The fit's anchors (a mask of the day's), its bonds' entries of C (bond, anchor, amount),
        G's principal submatrix, cashflow totals, weights w and prices on ``snapshot``,
        or None when ``snapshot`` is not a replicate of the day."""
        rows = []
        for bond in snapshot.bonds:
            j = self.rows.get(bond.id)
            if j is None:
                return None
            own = self.bonds[j]
            if own is not bond and (own.cashflows, own.face_value, own.maturity) != (
                    bond.cashflows, bond.face_value, bond.maturity):
                return None
            rows.append(j)
        first, count = self.starts[rows], np.diff(self.starts)[rows]
        entries = np.arange(count.sum()) + np.repeat(first - np.cumsum(count) + count, count)
        at = self.at[entries]
        kept = np.zeros(len(self.anchor_times), bool)
        kept[at] = True
        return (kept, (np.repeat(np.arange(len(rows)), count), at, self.amounts[entries]),
                self.G[np.ix_(rows, rows)], self.totals[rows],
                duration_price_weights(snapshot.bonds), np.array([b.market_price for b in snapshot.bonds]))


def _gram(at: np.ndarray, amounts: np.ndarray, starts: np.ndarray, K: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bonds' Gram matrix ``C K C'`` under the kernel, and each bond's cashflow total,
    from C's entries (anchor ``at``, ``amounts``), bond j's beginning at ``starts[j]``.

    Every entry sums over the two bonds' own cashflows only, in their order,
    so it is the same float in any layout that holds both bonds. A BLAS
    product would sum over all the day's anchors, zeros too, in an order set
    by the day's size, and a replicate's fit would round differently from
    its own; on an ill-conditioned system (condition number about 1e7) that
    moved replicate scores by up to 1e-7 relative.
    """
    terms = K[at]
    terms *= amounts[:, None]
    CK = np.add.reduceat(terms, starts, axis=0)
    terms = CK.T[at]
    terms *= amounts[:, None]
    return np.add.reduceat(terms, starts, axis=0), np.add.reduceat(amounts, starts)


def _kr_score(layout: KrLayout, system: tuple, lam: float, alphas: np.ndarray) -> tuple[float, float]:
    """Weighted squared price error of ``alphas``, one per anchor of the layout, and the objective:
    that plus lam * alphas' K alphas, both read at the fit's anchors only."""
    kept, (bond, at, amounts), _, _, w, prices = system
    with np.errstate(invalid="ignore"):  # K may overflow in the rows of anchors only dropped bonds use
        K_alphas = layout.K @ alphas
    fitted = np.bincount(bond, amounts * (1.0 + K_alphas[at]), len(prices))  # C (1 + K alphas)
    price_error = float(np.sum(w * (prices - fitted) ** 2))
    return price_error, price_error + lam * float(alphas[kept] @ K_alphas[kept])


def fit_kr(
    snapshot: MarketSnapshot,
    lam: float = 1e-2,
    kernel_params: KernelParams = KernelParams(),
    layout: KrLayout | None = None,
) -> KrModel:
    """Closed-form fit of the kernel-ridge discount curve.

    Builds the cashflow matrix C over the anchor set (the distinct cashflow
    dates), the kernel matrix K at the anchors and the weight matrix
    W = diag(w_j), then solves

        (W^1/2 C K C' W^1/2 + lambda * I) u = W^1/2 (p - C 1),
        alpha = C' W^1/2 u,

    which satisfies the alpha-space normal equations exactly, so alpha is a
    global minimizer of the convex objective.

    With ``layout``, the layout of a day that ``snapshot`` is a replicate of,
    C's entries and G's principal submatrix are the day's
    (``KrLayout.system``), also where the day's kernel overflows at anchors
    that only dropped bonds use: the anchors and alphas are the same, bit for
    bit, and the objective and price error the same to rounding. Any other
    snapshot gets its own layout.
    """
    if not (0 < lam < np.inf):
        raise ValidationError(f"lambda must be finite and > 0, got {lam}")
    if layout is not None and layout.kernel_params != kernel_params:
        raise ValidationError("the layout was built with other kernel weights")
    system = None if layout is None else layout.system(snapshot)
    if system is None:
        layout = KrLayout(snapshot, kernel_params)
        system = layout.system(snapshot)
    kept, (bond, at, amounts), G, totals, w, prices = system
    resid0 = prices - totals  # price minus undiscounted cashflows
    sqrt_w = np.sqrt(w)
    A = sqrt_w[:, None] * G * sqrt_w[None, :] + lam * np.eye(len(prices))
    if not np.isfinite(A).all():
        # sinh(m * t) overflows once m = sqrt(a / b) passes about 710 / t
        raise FitFailureError(
            f"kernel matrix is not finite for a={kernel_params.a}, b={kernel_params.b}; "
            f"raise b or lower a"
        )
    u = _solve_spd(A, sqrt_w * resid0)
    # C' sqrt_w u, summed bond by bond at each anchor as in the replicate's own layout;
    # 0 at the anchors that only dropped bonds use
    alphas = np.bincount(at, amounts * (sqrt_w * u)[bond], len(layout.anchor_times))

    price_error, objective = _kr_score(layout, system, lam, alphas)
    return KrModel(
        anchor_times=layout.anchor_times[kept].tolist(),
        alphas=alphas[kept].tolist(),
        lam=lam,
        kernel_params=kernel_params,
        objective=objective,
        price_error=price_error,
    )


def kr_objective(snapshot: MarketSnapshot, model: KrModel, alphas=None) -> float:
    """Objective value of ``model`` (or of override weights ``alphas``) on ``snapshot``."""
    layout = KrLayout(snapshot, model.kernel_params)
    system = layout.system(snapshot)
    if not np.array_equal(layout.anchor_times, model._arrays[0]):
        raise ValidationError("model anchors do not match the snapshot's cashflow dates")
    al = np.array(model.alphas if alphas is None else alphas, dtype=float)
    return _kr_score(layout, system, model.lam, al)[1]


def kr_discount(model: KrModel, t):
    """Discount factor d(t) = 1 + sum_l alpha_l k(t, t_l); t positive."""
    t_arr = np.asarray(t, dtype=float)
    if not np.all(t_arr > 0):  # NaN is not positive
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
