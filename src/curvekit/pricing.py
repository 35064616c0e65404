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
Macaulay duration. The record sits in the bond's own ``__dict__``, as a
``functools.cached_property`` value would, so it lives exactly as long as
its bond object and finding it hashes nothing: a CLI command solves each
bond once and leaves nothing behind. A value-equal copy (the same bond
reloaded) solves again, to the same bits. A yield solve that fails stores
nothing, so ``NoSolutionError`` is raised again on every call.

Yields and durations weight every fitter's price errors. One kernel
(``_pv_kernel``) prices every flat rate, duration and bootstrap candidate
with the floating-point operations of the direct formula, in the same
order; ``tests/test_pricing_kernel.py`` keeps that formula as the oracle.
Both root solves, flat yields and bootstrap knots, are one
safeguarded Newton solve on that kernel (``_solve``). It returns None by the
plain bisection's bracket rule, and otherwise a root that reprices its bond
to rounding, so yields, durations and knots match the direct formulas
within stated tolerances, not bit for bit. A bootstrap knot whose bond pays
nothing between the previous knot and its maturity needs no solve: it has a
closed form (``_closed_knot``) under the same bracket rule. No step of
either solve or of the closed form goes through BLAS, so their bits do not
depend on its kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoSolutionError, ValidationError
from .market import Bond, MarketSnapshot, YieldCurve

# Flat-rate bracket for yield solves. Present value is strictly decreasing in
# the rate, so a sign change on this bracket guarantees a unique solution.
YTM_BRACKET = (-0.10, 1.00)
_PRICE_TOL_REL = 1e-10  # an end of the bracket this close to the price is a root
_NEWTON_LAST_REL = 1e-15  # a Newton step expected to leave at most this excess, per unit of price, is the last
_MAX_STEPS = 200  # a safety net: halving steps and bisections end far sooner
_TIME_TOL = 1e-9  # maturities this close are one bootstrap knot


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
    """One bond's memoised analytics; ``ytm`` and ``duration`` stay None until solved.

    ``times`` and ``amounts`` are every payment, face value included at
    maturity. The bootstrap's closed-form knot reads them split at the
    maturity, where ``Bond`` stores a coupon bond's last coupon:
    ``early_times`` and ``early_amounts`` are every coupon but the last, and
    ``at_maturity`` the total paid at the maturity.
    """

    __slots__ = ("times", "amounts", "early_times", "early_amounts", "at_maturity", "ytm", "duration")

    def __init__(self, bond: Bond):
        cashflows = bond.cashflows
        self.times = np.array([cf.time for cf in cashflows] + [bond.maturity])
        self.amounts = np.array([cf.amount for cf in cashflows] + [bond.face_value])
        self.times.flags.writeable = False
        self.amounts.flags.writeable = False
        k = max(len(cashflows) - 1, 0)
        self.early_times, self.early_amounts = self.times[:k], self.amounts[:k]
        self.at_maturity = cashflows[-1].amount + bond.face_value if cashflows else bond.face_value
        self.ytm: float | None = None
        self.duration: float | None = None


def _record(bond: Bond) -> _BondRecord:
    record = bond.__dict__.get("_record")
    if record is None:
        record = bond.__dict__["_record"] = _BondRecord(bond)
    return record


def cashflow_schedule(bond: Bond) -> tuple[np.ndarray, np.ndarray]:
    """All payment times and amounts of ``bond``, face value included at maturity.

    The arrays are the bond's memoised ones and read-only.
    """
    record = _record(bond)
    return record.times, record.amounts


def cashflow_matrix(bonds) -> tuple[np.ndarray, np.ndarray]:
    """Dense cashflow layout over the union of all payment dates.

    Returns ``(anchor_times, C)`` where anchor_times is the sorted union of
    every bond's distinct payment dates, two bonds sharing an anchor only
    where they pay at the same float, and ``C[j, l]`` is the total amount
    bond j pays at anchor l, face value included at maturity.
    """
    schedules = [cashflow_schedule(b) for b in bonds]
    all_times = np.sort(np.concatenate([times for times, _ in schedules]))
    anchor_times = all_times[np.diff(all_times, prepend=-np.inf) > 0]  # equal neighbours dropped
    C = np.zeros((len(bonds), len(anchor_times)))
    for j, (times, amounts) in enumerate(schedules):
        np.add.at(C[j], np.searchsorted(anchor_times, times), amounts)  # final coupon and face share the maturity slot
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
    after ``pv``, is that buffer times ``-times * dr_dy`` summed, where
    ``dr_dy`` is the derivative of each cashflow's rate in the solve's unknown.
    numpy sums it, not BLAS, so the roots it steers do not depend on the BLAS
    kernels.
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
    pv.slope = lambda _: float(np.add.reduce(disc * neg_t_dr))
    return pv


def _solve(excess, slope, price: float, guess: float) -> float | None:
    """Root of the decreasing function ``excess`` on ``YTM_BRACKET``, by safeguarded Newton.

    ``excess`` is a present value minus ``price`` and ``slope`` its derivative,
    called only right after ``excess`` at the same point, so it may reuse that
    evaluation's work. Each step is a Newton step from the last point, kept
    while it lands strictly inside the interval known to hold the root and
    at most half as long as the step before; otherwise the next point is the
    end of the bracket on the root's side, the first time the root lies
    that way, and else the midpoint of the interval (Press et al.,
    *Numerical Recipes*, ``rtsafe``). A guess outside the bracket starts
    from its midpoint.

    An end is evaluated only when a point reaches it, and there the rule is
    the plain bisection's: no root (None) when the excess has the root's
    sign beyond ``tol = _PRICE_TOL_REL * price``, and the end itself as the
    root when it has that sign within ``tol``. Otherwise the solve returns
    the point where ``excess`` is 0, the midpoint of an interval no float
    splits, or a Newton step without evaluating ``excess`` after it. That
    is the step from a point that a Newton step reached: Newton's error is
    second order, so the excess it leaves is about the excess at the point
    times the square of the ratio of this step to the one before, and the
    solve takes the step as the last once that is at most
    ``_NEWTON_LAST_REL`` of the price, about the rounding of the price.
    A point that a Newton step reached is returned itself when the next
    Newton step rounds back to it: the steps have reached the noise of the
    evaluation, and bisecting on from the far side of the interval would
    cost up to about 60 evaluations for no better root.
    """
    lo, hi = YTM_BRACKET
    tol = _PRICE_TOL_REL * price
    a, b = lo, hi  # the root is in [a, b], or beyond an end not evaluated yet
    seen_a = seen_b = False  # excess evaluated > 0 at a, < 0 at b
    x = guess if lo < guess < hi else 0.5 * (lo + hi)
    step_before = hi - lo
    newton = 0.0  # the Newton step that reached x, 0 when x came another way
    for _ in range(_MAX_STEPS):
        f = excess(x)
        if f > 0:
            if x == hi:
                return hi if f <= tol else None
            a, seen_a = x, True
        elif f < 0:
            if x == lo:
                return lo if f >= -tol else None
            b, seen_b = x, True
        else:
            return x
        d = slope(x)
        step = f / d if d else math.nan
        if a < x - step < b and abs(step) <= 0.5 * step_before:
            left = abs(f) * (step / newton) ** 2 if newton else abs(f)
            if left <= _NEWTON_LAST_REL * price:
                return x - step
            x, step_before = x - step, abs(step)
            newton = step_before
        elif newton and x - step == x:
            return x
        elif not (seen_a if f < 0 else seen_b):
            x, newton = lo if f < 0 else hi, 0.0
        else:
            mid = 0.5 * (a + b)
            if not a < mid < b:
                return mid
            x, step_before, newton = mid, 0.5 * (b - a), 0.0
    return 0.5 * (a + b)


def _flat_guess(times: np.ndarray, amounts: np.ndarray, price: float) -> float:
    """The rate at which all the cashflows, paid at their amount-weighted mean
    time, are worth ``price``; clamped into the open ``YTM_BRACKET``.

    A start for the Newton steps; by Jensen's inequality on ``exp(-r t)``
    it lies at or left of the flat yield.
    """
    lo, hi = YTM_BRACKET
    total = float(np.add.reduce(amounts))
    guess = (math.log(total) - math.log(price)) * total / float(np.add.reduce(times * amounts))
    return min(max(guess, math.nextafter(lo, hi)), math.nextafter(hi, lo))


def _solve_flat_rate(times: np.ndarray, amounts: np.ndarray, price: float, what: str) -> float:
    """Flat rate equating the discounted cashflows to ``price``.

    The safeguarded Newton solve on the bracket, from ``_flat_guess``. PV is
    strictly decreasing in the rate, so the bracket test is exact.
    """
    pv = _pv_kernel(times, amounts)
    with np.errstate(over="ignore"):  # amounts near float's maximum overflow to inf: no root, by the bracket rule
        rate = _solve(lambda r: pv(r) - price, pv.slope, price, _flat_guess(times, amounts, price))
        if rate is None:
            lo, hi = YTM_BRACKET
            raise NoSolutionError(
                f"{what}: price {price} outside attainable range "
                f"[{pv(hi):.6f}, {pv(lo):.6f}] "
                f"for rates in [{lo}, {hi}]"
            )
    return rate


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


def _place_knot(bond: Bond, ts: np.ndarray, ys: np.ndarray, n: int, diagnostics: list[str]) -> int:
    """Solve ``bond``'s knot into slot ``n`` after the ``n`` placed knots; the new knot count.

    The knot comes from the closed form (``_closed_knot``) when the bond pays
    nothing after the last placed knot but at its maturity, and from the
    safeguarded Newton solve (``_newton_knot``) when it pays strictly between
    them. A skipped bond leaves the count as it was and appends why to
    ``diagnostics``.
    """
    if n and abs(bond.maturity - ts[n - 1]) <= _TIME_TOL:
        diagnostics.append(f"bond {bond.id}: maturity {bond.maturity} duplicates an existing knot; skipped")
        return n
    ts[n] = bond.maturity
    record = _record(bond)
    price = bond.market_price
    early = record.early_times
    closed = not len(early) or n and early[-1] <= ts[n - 1]
    y = (_closed_knot if closed else _newton_knot)(record, ts, ys, n, price)
    if y is None:
        lo, hi = YTM_BRACKET
        diagnostics.append(f"bond {bond.id}: no yield in [{lo}, {hi}] reprices {price}; skipped")
        return n
    ys[n] = y
    return n + 1


def _newton_knot(record: _BondRecord, ts: np.ndarray, ys: np.ndarray, n: int, price: float) -> float | None:
    """The knot at ``ts[n]`` that reprices the bond, by ``_solve`` from the previous knot's yield
    (``_flat_guess`` for the first); None by the bracket rule. Writes its candidates to ``ys[n]``."""
    times, amounts = record.times, record.amounts
    # a cashflow's rate moves with the candidate by its interpolation weight
    dr_dy = np.clip((times - ts[n - 1]) / (ts[n] - ts[n - 1]), 0.0, 1.0) if n else 1.0
    pv = _pv_kernel(times, amounts, dr_dy)
    guess = float(ys[n - 1]) if n else _flat_guess(times, amounts, price)

    def excess(y: float) -> float:
        ys[n] = y
        return pv(np.interp(times, ts[: n + 1], ys[: n + 1])) - price

    return _solve(excess, pv.slope, price, guess)


def _closed_knot(record: _BondRecord, ts: np.ndarray, ys: np.ndarray, n: int, price: float) -> float | None:
    """The knot at ``ts[n]``, the bond's maturity T, that reprices a bond paying nothing
    between the last placed knot and T: ``ln(A / (price - F)) / T``.

    ``F`` is the present value of the payments before T, all at or before the
    last placed knot, so off the placed knots alone; numpy sums it, not
    BLAS. ``A`` is the total paid at T (Hagan & West 2006, linear
    interpolation in yield). A knot outside ``YTM_BRACKET``, or no knot at
    all when ``price <= F``, gets ``_solve``'s bracket rule at the end on
    the root's side: that end when the excess there is within
    ``_PRICE_TOL_REL * price``, otherwise None.
    """
    early = record.early_times
    F = 0.0
    if len(early):
        F = float(np.add.reduce(record.early_amounts * np.exp(-early * np.interp(early, ts[:n], ys[:n]))))
    T, A = float(ts[n]), record.at_maturity
    ratio = A / (price - F) if price > F else math.inf
    y = math.log(ratio) / T if ratio > 0 else -math.inf
    lo, hi = YTM_BRACKET
    if lo < y < hi:
        return y
    end = hi if y >= hi else lo
    f = F + A * math.exp(-T * end) - price
    tol = _PRICE_TOL_REL * price
    return end if (f <= tol if end == hi else f >= -tol) else None


class BootstrapBase:
    """One day's bootstrap, kept so that each replicate of the day resumes it.

    A knot depends only on the knots before it and on its own bond. So a
    replicate whose bonds (held, like the day's, by maturity, then id) begin
    with the same bond objects as the day's has the day's knots and
    diagnostics up to its first other bond, and ``bootstrap(replicate, base)``
    solves from there on, bit for bit. ``marks[k]`` is the knot count and the
    diagnostics count after the day's first ``k`` bonds. Building the base
    raises nothing: a day whose every bond is skipped is the failure of the
    replicates that share all of it.
    """

    def __init__(self, snapshot: MarketSnapshot):
        self.bonds = snapshot.bonds
        self.ts = np.empty(len(self.bonds))
        self.ys = np.empty(len(self.bonds))
        self.diagnostics: list[str] = []
        self.marks: list[tuple[int, int]] = [(0, 0)]
        n = 0
        with np.errstate(over="ignore"):  # as in _solve_flat_rate
            for bond in self.bonds:
                n = _place_knot(bond, self.ts, self.ys, n, self.diagnostics)
                self.marks.append((n, len(self.diagnostics)))


def bootstrap(snapshot: MarketSnapshot, base: BootstrapBase | None = None) -> BootstrapCurve:
    """Sequential exact-fit curve: one knot per bond, in the snapshot's order.

    That order is shortest maturity first, ties by id. For each bond the
    single unknown is the yield at its maturity. Cashflows before the
    previous knots are discounted off the fixed earlier knots; cashflows
    between the last knot and the new maturity see the linear interpolation
    toward the candidate knot, so the solved bond reprices exactly under the
    final curve. When the bond pays nothing between the last knot and its
    maturity, the knot is the closed form ``ln(A / (price - F)) / T``;
    otherwise present value is strictly decreasing in the candidate yield,
    solved by the safeguarded Newton solve on the standard bracket from the
    previous knot's yield, or from ``_flat_guess`` for the first knot.

    Bonds that cannot be repriced inside the bracket, and bonds sharing a
    maturity with an already-placed knot, are skipped and reported in the
    curve's diagnostics.

    The knots before the first bond that is not the day's are those of
    ``base``, the bootstrap of a day that ``snapshot`` is a replicate of
    (``BootstrapBase``; by default ``snapshot``'s own), bit for bit.
    """
    if base is None:
        base = BootstrapBase(snapshot)
    bonds = snapshot.bonds
    # placed knots in [:n]; slot n holds the bond being solved and its candidate
    ts = np.empty(len(bonds))
    ys = np.empty(len(bonds))
    start = next((k for k, (a, b) in enumerate(zip(bonds, base.bonds)) if a is not b),
                 min(len(bonds), len(base.bonds)))
    n, count = base.marks[start]
    ts[:n], ys[:n] = base.ts[:n], base.ys[:n]
    diagnostics = base.diagnostics[:count]
    with np.errstate(over="ignore"):  # as in _solve_flat_rate
        for bond in bonds[start:]:
            n = _place_knot(bond, ts, ys, n, diagnostics)

    if not n:
        raise NoSolutionError("bootstrap failed for every bond: " + "; ".join(diagnostics))
    return BootstrapCurve(
        knot_times=tuple(ts[:n].tolist()),
        knot_yields=tuple(ys[:n].tolist()),
        diagnostics=tuple(diagnostics),
    )
