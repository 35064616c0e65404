"""Discounting, bond pricing, yield solving, duration, and bootstrapping.

All rates are continuously compounded: the discount factor is
``d(t) = exp(-t * y(t))`` and a bond's present value is the sum of its
discounted cashflows, face value included at maturity. Every curve evaluates
through ``YieldCurve.yields``, one array of maturities at a time (the
interface lives in ``market`` and is re-exported here); ``present_value`` and
``forward_rate`` each make one such call.

The bootstrap builds an exact-fit curve knot by knot, shortest maturity
first, and serves as the baseline estimator and pricing oracle for the
model-based curves.

Per-bond analytics are memoised. Each ``Bond`` gets one record on first use:
its cashflow times and amounts as read-only arrays, its flat yield and its
Macaulay duration. The records sit in a table keyed weakly by the bond, so a
record lives exactly as long as its bond object does: a CLI command solves
each bond once and leaves nothing behind when it returns, and a value-equal
bond (the same bond reloaded from a file) finds the same record. A yield
solve that fails stores nothing, so ``NoSolutionError`` is raised again on
every call.

Operation order is part of the behaviour. Yields and durations weight every
fitter's price errors, and the fitters chain them into simplex trajectories
and SGD steps where a last-bit difference grows into a different curve. So
one kernel (``_pv_kernel``) prices every flat rate, duration and bootstrap
candidate with the floating-point operations of the direct formula, in the
same order; ``tests/test_pricing_kernel.py`` keeps that formula as the oracle.

Both root solves (flat yields and bootstrap knots) bisect on that kernel,
and both first fence the root with a few tangent steps. A point the tangent
steps evaluate with an excess over the price beyond twice the tolerance is a
certificate: present value is strictly decreasing in the rate and its
evaluation error (about 1e-14 of the price) is far below the tolerance
(1e-10 of it), so every midpoint on the far side of that point would
evaluate beyond the tolerance with the same sign. The bisection takes those
midpoints' known branch without evaluating them and returns the same float
as the plain bisection, bit for bit (``_bisect``; ``tests/test_bisect.py``
keeps the plain loop as its oracle).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import NoSolutionError, ValidationError
from .market import Bond, MarketSnapshot, YieldCurve, sort_bonds

# Flat-rate bracket for yield solves. Present value is strictly decreasing in
# the rate, so a sign change on this bracket guarantees a unique solution.
YTM_BRACKET = (-0.10, 1.00)
_PRICE_TOL_REL = 1e-10


@dataclass(frozen=True)
class FlatCurve(YieldCurve):
    """Constant spot yield at every maturity."""

    rate: float

    def yields(self, ts: np.ndarray) -> np.ndarray:
        return np.full(len(ts), self.rate, dtype=float)


@dataclass(frozen=True)
class OffsetCurve(YieldCurve):
    """A base curve shifted by a constant spread."""

    base: YieldCurve
    spread: float

    def yields(self, ts: np.ndarray) -> np.ndarray:
        return self.base.yields(ts) + self.spread


@dataclass(frozen=True)
class BootstrapCurve(YieldCurve):
    """Piecewise-linear yield curve through bootstrapped knots.

    Interpolation is linear in yield, extrapolation flat beyond both ends.
    ``diagnostics`` lists bonds the bootstrap had to skip and why.
    """

    knot_times: tuple[float, ...]
    knot_yields: tuple[float, ...]
    diagnostics: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "knot_times", tuple(float(t) for t in self.knot_times))
        object.__setattr__(self, "knot_yields", tuple(float(y) for y in self.knot_yields))
        if len(self.knot_times) != len(self.knot_yields):
            raise ValidationError("knot_times and knot_yields must have equal length")
        if not self.knot_times:
            raise ValidationError("bootstrap curve needs at least one knot")
        if not all(map(math.isfinite, self.knot_times + self.knot_yields)):
            raise ValidationError("knot_times and knot_yields must be finite")
        if any(b <= a for a, b in zip(self.knot_times, self.knot_times[1:])):
            raise ValidationError("knot_times must be strictly increasing")

    def yields(self, ts: np.ndarray) -> np.ndarray:
        return np.interp(ts, self.knot_times, self.knot_yields)


class _BondRecord:
    """One bond's memoised analytics; ``ytm`` and ``duration`` stay None until solved."""

    __slots__ = ("times", "amounts", "ytm", "duration")

    def __init__(self, bond: Bond):
        self.times = np.array([cf.time for cf in bond.cashflows] + [bond.maturity])
        self.amounts = np.array([cf.amount for cf in bond.cashflows] + [bond.face_value])
        self.times.flags.writeable = False
        self.amounts.flags.writeable = False
        self.ytm: float | None = None
        self.duration: float | None = None


_MEMO: weakref.WeakKeyDictionary[Bond, _BondRecord] = weakref.WeakKeyDictionary()


def _record(bond: Bond) -> _BondRecord:
    record = _MEMO.get(bond)
    if record is None:
        record = _MEMO[bond] = _BondRecord(bond)
    return record


def cashflow_schedule(bond: Bond) -> tuple[np.ndarray, np.ndarray]:
    """All payment times and amounts of ``bond``, face value included at maturity.

    The arrays are the bond's memoised ones and read-only.
    """
    record = _record(bond)
    return record.times, record.amounts


def cashflow_matrix(bonds, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Dense cashflow layout over the union of all payment dates.

    Returns ``(anchor_times, C)`` where anchor_times is the sorted union of
    every bond's payment dates (deduplicated within ``tol`` years) and
    ``C[j, l]`` is the total amount bond j pays at anchor l, face value
    included at maturity.
    """
    schedules = [cashflow_schedule(b) for b in bonds]
    all_times = np.concatenate([times for times, _ in schedules])
    anchors: list[float] = []
    for t in np.sort(all_times):
        if not anchors or t - anchors[-1] > tol:
            anchors.append(float(t))
    anchor_times = np.array(anchors)
    C = np.zeros((len(bonds), len(anchor_times)))
    for j, (times, amounts) in enumerate(schedules):
        idx = np.searchsorted(anchor_times, times - tol)
        np.add.at(C[j], idx, amounts)  # final coupon and face share the maturity slot
    return anchor_times, C


def discount_factor(curve: YieldCurve, t: float) -> float:
    """``exp(-t * y(t))`` under ``curve``; t must be positive."""
    if not (t > 0):
        raise ValueError(f"discount_factor requires t > 0, got {t}")
    return math.exp(-t * curve.yield_at(t))


def present_value(curve: YieldCurve, bond: Bond) -> float:
    """Sum of the bond's cashflows, face value included, each discounted under ``curve``."""
    times, amounts = cashflow_schedule(bond)
    return float(amounts @ np.exp(-times * curve.yields(times)))


def _pv_kernel(times: np.ndarray, amounts: np.ndarray, dr_dy=1.0):
    """``pv(r)``: ``sum(amounts * exp(-times * r))`` with that formula's operations, in its order.

    ``r`` is a scalar rate or one rate per cashflow. ``pv.disc`` is the buffer
    of discounted cashflows at the last ``r``. ``pv.slope(_)``, called right
    after ``pv``, is that buffer dotted with ``-times * dr_dy``, where
    ``dr_dy`` is the derivative of each cashflow's rate in the solve's unknown.
    """
    neg_times = -times
    neg_t_dr = neg_times * dr_dy
    disc = np.empty(len(times))

    def pv(r) -> float:
        np.multiply(neg_times, r, out=disc)
        np.exp(disc, out=disc)
        np.multiply(amounts, disc, out=disc)
        return float(np.add.reduce(disc))

    pv.disc = disc
    pv.slope = lambda _: float(disc @ neg_t_dr)
    return pv


def _bisect(excess, tol: float, width: float, slope, guess: float) -> tuple[float, float] | None:
    """Root of the decreasing function ``excess`` on ``YTM_BRACKET``, by bisection.

    Returns None when no root lies in the bracket (to within ``tol``).
    Otherwise halves the bracket, at most 200 times, until a midpoint has
    ``|excess| <= tol`` (that midpoint is the root) or the bracket is
    narrower than ``width`` (its midpoint is), and returns the root with
    ``excess`` at it: the value the last evaluation gave, or one more
    evaluation when the width ended the loop.

    First, up to 16 tangent steps from ``guess`` fence the root. ``slope`` is
    the derivative of ``excess``; it is called only right after ``excess`` at
    the same point, so it may reuse that evaluation's work. The steps aim at
    ``excess = 4 tol`` until a point ``a`` lands between 2 tol and 8 tol,
    then take one step aimed at ``-6 tol`` to a point ``b``. Every
    point evaluated on the way with ``excess > 2 tol`` certifies that side
    of the root, and so does every one with ``excess < -2 tol``. The tangent
    phase stops at a slope that is not finite and negative or a step that
    leaves the open bracket; a guess outside it starts from the midpoint.

    The bisection then runs unchanged, except that a midpoint at or left of
    the rightmost ``excess > 2 tol`` point takes ``lo = mid`` and one at or
    right of the leftmost ``excess < -2 tol`` point takes ``hi = mid``,
    without calling ``excess``, and the bracket-end test is skipped on each
    side that holds a certificate. This returns the plain bisection's float
    (or None) bit for bit, provided ``excess`` is an evaluation of a
    decreasing function with an error below ``tol / 2``: the exact function
    is at least 2 tol - tol/2 at every point left of a certificate with
    ``excess > 2 tol``, so its evaluation there would exceed ``tol`` and take
    ``lo = mid``, and symmetrically on the other side. The pricing callers
    meet this with room to spare: present value falls strictly with the
    rate, and its rounding error is about 1e-14 of the price where tol is
    1e-10 of it. Rounding is relative only above the subnormal range, so a
    ``tol`` below 1e-300 skips the tangent phase.
    """
    lo, hi = YTM_BRACKET
    below, above = -math.inf, math.inf  # certificates: excess > 2 tol at below, < -2 tol at above
    if tol > 1e-300:
        x = guess if lo < guess < hi else 0.5 * (lo + hi)
        target = 4.0 * tol
        for _ in range(16):
            f = excess(x)
            if f > 2.0 * tol:
                below = max(below, x)
            elif f < -2.0 * tol:
                above = min(above, x)
            if target < 0:
                break
            if 2.0 * tol < f < 8.0 * tol:
                target = -6.0 * tol
            d = slope(x)
            if not (-math.inf < d < 0):
                break
            x -= (f - target) / d
            if not (lo < x < hi):
                break
    if below == -math.inf and excess(lo) < -tol or above == math.inf and excess(hi) > tol:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= below:
            lo = mid
        elif mid >= above:
            hi = mid
        else:
            f_mid = excess(mid)
            if abs(f_mid) <= tol:
                return mid, f_mid
            if f_mid > 0:
                lo = mid
            else:
                hi = mid
        if hi - lo < width:
            break
    mid = 0.5 * (lo + hi)
    return mid, excess(mid)


def _flat_guess(times: np.ndarray, amounts: np.ndarray, price: float) -> float:
    """The rate at which all the cashflows, paid at their amount-weighted mean
    time, are worth ``price``; clamped into the open ``YTM_BRACKET``.

    A start for the tangent steps; by Jensen's inequality on ``exp(-r t)``
    it lies at or left of the flat yield.
    """
    lo, hi = YTM_BRACKET
    total = float(np.add.reduce(amounts))
    guess = (math.log(total) - math.log(price)) * total / float(times @ amounts)
    return min(max(guess, math.nextafter(lo, hi)), math.nextafter(hi, lo))


def _solve_flat_rate(times: np.ndarray, amounts: np.ndarray, price: float, what: str) -> float:
    """Flat rate equating the discounted cashflows to ``price``.

    Bisection on the bracket, with a Newton polish once the residual is small.
    PV is strictly decreasing in the rate so the bracket test is exact.
    """
    pv = _pv_kernel(times, amounts)
    root = _bisect(
        lambda r: pv(r) - price,
        _PRICE_TOL_REL * price,
        1e-15,
        slope=pv.slope,
        guess=_flat_guess(times, amounts, price),
    )
    if root is None:
        lo, hi = YTM_BRACKET
        raise NoSolutionError(
            f"{what}: price {price} outside attainable range "
            f"[{pv(hi):.6f}, {pv(lo):.6f}] "
            f"for rates in [{lo}, {hi}]"
        )
    # Newton polish well past the contract tolerance; dPV/dr = -sum(t cf e^(-t r))
    rate, resid = root
    best_rate, best_resid = rate, abs(resid)
    for _ in range(8):
        if abs(resid) < best_resid:
            best_rate, best_resid = rate, abs(resid)
        if abs(resid) <= 1e-15 * price:
            break
        deriv = -float(np.add.reduce(times * amounts * np.exp(-times * rate)))
        if deriv == 0:
            break
        rate -= resid / deriv
        resid = pv(rate) - price
    return best_rate


def _yield(bond: Bond, record: _BondRecord) -> float:
    if record.ytm is None:
        record.ytm = _solve_flat_rate(record.times, record.amounts, bond.market_price, f"bond {bond.id}")
    return record.ytm


def yield_to_maturity(bond: Bond) -> float:
    """Flat continuously-compounded rate that reprices ``bond`` to its market price."""
    return _yield(bond, _record(bond))


def macaulay_duration(bond: Bond) -> float:
    """PV-weighted average payment time at the bond's own flat yield."""
    record = _record(bond)
    if record.duration is None:
        pv = _pv_kernel(record.times, record.amounts)
        total = pv(_yield(bond, record))
        record.duration = float(np.add.reduce(record.times * pv.disc)) / total
    return record.duration


def duration_price_weights(bonds) -> np.ndarray:
    """Per-bond fitting weights ``1 / (M * (D_j * p_j)^2)``.

    Dividing squared price errors by (duration * price)^2 turns them into
    approximate squared yield errors, so short and long bonds contribute on
    comparable scales.
    """
    m = len(bonds)
    w = np.empty(m)
    for j, bond in enumerate(bonds):
        w[j] = 1.0 / (m * (macaulay_duration(bond) * bond.market_price) ** 2)
    return w


def forward_rate(curve: YieldCurve, t: float, h: float = 1e-4) -> float:
    """Instantaneous forward ``y(t) + t * dy/dt`` by central difference."""
    if not (t > h > 0):
        raise ValueError(f"forward_rate requires t > h > 0, got t={t}, h={h}")
    y_lo, y_t, y_hi = curve.yields(np.array([t - h, t, t + h])).tolist()
    return y_t + t * ((y_hi - y_lo) / (2.0 * h))


def bootstrap(snapshot: MarketSnapshot) -> BootstrapCurve:
    """Sequential exact-fit curve: one knot per bond, shortest maturity first.

    For each bond the single unknown is the yield at its maturity. Cashflows
    before the previous knots are discounted off the fixed earlier knots;
    cashflows between the last knot and the new maturity see the linear
    interpolation toward the candidate knot, so the solved bond reprices
    exactly under the final curve. Present value is strictly decreasing in the
    candidate yield, solved by bisection on the standard bracket; its tangent
    phase starts from the previous knot's yield, or from ``_flat_guess`` for
    the first knot.

    Bonds that cannot be repriced inside the bracket, and bonds sharing a
    maturity with an already-placed knot, are skipped and reported in the
    curve's diagnostics.
    """
    bonds = sort_bonds(snapshot.bonds)
    # placed knots in [:n]; slot n holds the bond being solved and its candidate
    ts = np.empty(len(bonds))
    ys = np.empty(len(bonds))
    n = 0
    diagnostics: list[str] = []

    for bond in bonds:
        if n and abs(bond.maturity - ts[n - 1]) <= 1e-9:
            diagnostics.append(
                f"bond {bond.id}: maturity {bond.maturity} duplicates an existing knot; skipped"
            )
            continue
        ts[n] = bond.maturity
        times, amounts = cashflow_schedule(bond)
        # a cashflow's rate moves with the candidate by its interpolation weight
        dr_dy = np.clip((times - ts[n - 1]) / (ts[n] - ts[n - 1]), 0.0, 1.0) if n else 1.0
        pv = _pv_kernel(times, amounts, dr_dy)
        price = bond.market_price
        guess = float(ys[n - 1]) if n else _flat_guess(times, amounts, price)

        def excess(y: float) -> float:
            ys[n] = y
            return pv(np.interp(times, ts[: n + 1], ys[: n + 1])) - price

        root = _bisect(excess, _PRICE_TOL_REL * price, 1e-16, slope=pv.slope, guess=guess)
        if root is None:
            lo, hi = YTM_BRACKET
            diagnostics.append(f"bond {bond.id}: no yield in [{lo}, {hi}] reprices {price}; skipped")
            continue
        ys[n] = root[0]
        n += 1

    if not n:
        raise NoSolutionError("bootstrap failed for every bond: " + "; ".join(diagnostics))
    return BootstrapCurve(
        knot_times=tuple(ts[:n].tolist()),
        knot_yields=tuple(ys[:n].tolist()),
        diagnostics=tuple(diagnostics),
    )
