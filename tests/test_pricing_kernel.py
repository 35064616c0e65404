"""The memoised bond analytics and the present-value kernel against the direct formulas.

Yields and durations weight every fitter's price errors and the bootstrap is
the pricing oracle. The reference below is the direct formulas, kept
verbatim (renamed with a ``ref_`` prefix): the one present-value kernel must
reproduce them bit for bit, and the safeguarded Newton solve on it must give
their yields, durations, weights and bootstrap knots within the stated
tolerances. The reference bootstrap stops earlier than the Newton solve:
its bisection stops once the bond reprices within ``_PRICE_TOL_REL`` (1e-10)
of the price, which pins a knot only to about 1e-9 in yield, where the solve
reprices every bond within ``REPRICE_REL``. The memo tests check what the
cache promises: value-equal bonds get the same values, failures are never
cached, cached arrays are read-only, a record lives only as long as its bond,
and finding it hashes no bond.
"""

import gc
import weakref

import numpy as np
import pytest

from curvekit import (
    BootstrapCurve,
    Bond,
    Cashflow,
    FlatCurve,
    MarketSnapshot,
    NoSolutionError,
    ScenarioSpec,
    bootstrap,
    generate_scenario,
    load_snapshot,
    macaulay_duration,
    present_value,
    save_snapshot,
    yield_to_maturity,
)
from curvekit import market, pricing
from curvekit.cli import main
from curvekit.market import sort_bonds
from curvekit.pricing import YTM_BRACKET, _PRICE_TOL_REL, cashflow_matrix, cashflow_schedule, duration_price_weights

REPRICE_REL = 1e-13  # every flat yield and every bootstrap curve reprices its bonds within this share of the price
YIELD_ABS = 1e-13  # flat yields against the reference; 2.8e-15 at most on DAYS
ANALYTICS_REL = 1e-13  # durations and weights against the reference; 4.4e-16 and 8.9e-16 at most on DAYS
KNOT_ABS = 1e-8  # bootstrap knots against the reference; 9.3e-10 at most on DAYS


# --- reference: the direct formulas, verbatim --------------------------------

def ref_cashflow_schedule(bond: Bond) -> tuple[np.ndarray, np.ndarray]:
    """All payment times and amounts of ``bond``, face value included at maturity."""
    times = np.array([cf.time for cf in bond.cashflows] + [bond.maturity])
    amounts = np.array([cf.amount for cf in bond.cashflows] + [bond.face_value])
    return times, amounts


def ref_cashflow_matrix(bonds, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Dense cashflow layout over the union of all payment dates.

    Returns ``(anchor_times, C)`` where anchor_times is the sorted union of
    every bond's payment dates (deduplicated within ``tol`` years) and
    ``C[j, l]`` is the total amount bond j pays at anchor l, face value
    included at maturity.
    """
    all_times = np.concatenate([ref_cashflow_schedule(b)[0] for b in bonds])
    anchors: list[float] = []
    for t in np.sort(all_times):
        if not anchors or t - anchors[-1] > tol:
            anchors.append(float(t))
    anchor_times = np.array(anchors)
    C = np.zeros((len(bonds), len(anchor_times)))
    for j, bond in enumerate(bonds):
        times, amounts = ref_cashflow_schedule(bond)
        idx = np.searchsorted(anchor_times, times - tol)
        np.add.at(C[j], idx, amounts)  # final coupon and face share the maturity slot
    return anchor_times, C


def ref_pv_flat(times: np.ndarray, amounts: np.ndarray, rate: float) -> float:
    return float(np.sum(amounts * np.exp(-times * rate)))


def ref_solve_flat_rate(times: np.ndarray, amounts: np.ndarray, price: float, what: str) -> float:
    """Flat rate equating the discounted cashflows to ``price``.

    Bisection on the bracket, with a Newton polish once the residual is small.
    PV is strictly decreasing in the rate so the bracket test is exact.
    """
    lo, hi = YTM_BRACKET
    tol = _PRICE_TOL_REL * price
    f_lo = ref_pv_flat(times, amounts, lo) - price
    f_hi = ref_pv_flat(times, amounts, hi) - price
    if f_lo < -tol or f_hi > tol:
        raise NoSolutionError(
            f"{what}: price {price} outside attainable range "
            f"[{ref_pv_flat(times, amounts, hi):.6f}, {ref_pv_flat(times, amounts, lo):.6f}] "
            f"for rates in [{lo}, {hi}]"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = ref_pv_flat(times, amounts, mid) - price
        if abs(f_mid) <= tol:
            lo = hi = mid
            break
        if f_mid > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    rate = 0.5 * (lo + hi)
    # Newton polish well past the contract tolerance; dPV/dr = -sum(t cf e^(-t r))
    best_rate, best_resid = rate, abs(ref_pv_flat(times, amounts, rate) - price)
    for _ in range(8):
        resid = ref_pv_flat(times, amounts, rate) - price
        if abs(resid) < best_resid:
            best_rate, best_resid = rate, abs(resid)
        if abs(resid) <= 1e-15 * price:
            break
        deriv = -float(np.sum(times * amounts * np.exp(-times * rate)))
        if deriv == 0:
            break
        rate -= resid / deriv
    return best_rate


def ref_yield_to_maturity(bond: Bond) -> float:
    """Flat continuously-compounded rate that reprices ``bond`` to its market price."""
    times, amounts = ref_cashflow_schedule(bond)
    return ref_solve_flat_rate(times, amounts, bond.market_price, f"bond {bond.id}")


def ref_macaulay_duration(bond: Bond) -> float:
    """PV-weighted average payment time at the bond's own flat yield."""
    ytm = ref_yield_to_maturity(bond)
    times, amounts = ref_cashflow_schedule(bond)
    disc = amounts * np.exp(-times * ytm)
    return float(np.sum(times * disc) / np.sum(disc))


def ref_duration_price_weights(bonds) -> np.ndarray:
    """Per-bond fitting weights ``1 / (M * (D_j * p_j)^2)``.

    Dividing squared price errors by (duration * price)^2 turns them into
    approximate squared yield errors, so short and long bonds contribute on
    comparable scales.
    """
    m = len(bonds)
    w = np.empty(m)
    for j, bond in enumerate(bonds):
        w[j] = 1.0 / (m * (ref_macaulay_duration(bond) * bond.market_price) ** 2)
    return w


def ref_bootstrap(snapshot: MarketSnapshot) -> BootstrapCurve:
    """Sequential exact-fit curve: one knot per bond, shortest maturity first.

    For each bond the single unknown is the yield at its maturity. Cashflows
    before the previous knots are discounted off the fixed earlier knots;
    cashflows between the last knot and the new maturity see the linear
    interpolation toward the candidate knot, so the solved bond reprices
    exactly under the final curve. Present value is strictly decreasing in the
    candidate yield, solved by bisection on the standard bracket.

    Bonds that cannot be repriced inside the bracket, and bonds sharing a
    maturity with an already-placed knot, are skipped and reported in the
    curve's diagnostics.
    """
    knot_times: list[float] = []
    knot_yields: list[float] = []
    diagnostics: list[str] = []

    for bond in sort_bonds(snapshot.bonds):
        if knot_times and abs(bond.maturity - knot_times[-1]) <= 1e-9:
            diagnostics.append(
                f"bond {bond.id}: maturity {bond.maturity} duplicates an existing knot; skipped"
            )
            continue
        times, amounts = ref_cashflow_schedule(bond)

        def pv_with_candidate(y: float) -> float:
            ts = np.array(knot_times + [bond.maturity])
            ys = np.array(knot_yields + [y])
            rates = np.interp(times, ts, ys)
            return float(np.sum(amounts * np.exp(-times * rates)))

        lo, hi = YTM_BRACKET
        tol = _PRICE_TOL_REL * bond.market_price
        if pv_with_candidate(lo) - bond.market_price < -tol or pv_with_candidate(hi) - bond.market_price > tol:
            diagnostics.append(
                f"bond {bond.id}: no yield in [{lo}, {hi}] reprices {bond.market_price}; skipped"
            )
            continue
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            f_mid = pv_with_candidate(mid) - bond.market_price
            if abs(f_mid) <= tol:
                lo = hi = mid
                break
            if f_mid > 0:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-16:
                break
        knot_times.append(bond.maturity)
        knot_yields.append(0.5 * (lo + hi))

    if not knot_times:
        raise NoSolutionError("bootstrap failed for every bond: " + "; ".join(diagnostics))
    return BootstrapCurve(
        knot_times=tuple(knot_times),
        knot_yields=tuple(knot_yields),
        diagnostics=tuple(diagnostics),
    )


def ref_candidate_pv(times, amounts, knot_times, knot_yields, maturity, y):
    # ``pv_with_candidate`` of ref_bootstrap, verbatim but for its arguments
    ts = np.array(knot_times + [maturity])
    ys = np.array(knot_yields + [y])
    rates = np.interp(times, ts, ys)
    return float(np.sum(amounts * np.exp(-times * rates)))


# --- fixtures ----------------------------------------------------------------

def scenario_day(regime, n_bonds, **spec):
    return generate_scenario(ScenarioSpec(regime=regime, n_bonds=n_bonds, price_noise_sd=0.002, seed=40 + n_bonds, **spec))


def zero_coupon_day():
    return scenario_day("rising", 15, coupon_range=(0.0, 0.0))


def priced(bond_id, times, coupon, maturity, rate=0.03, price=None):
    """A bond paying ``coupon`` at ``times``, priced off a flat ``rate`` unless ``price`` is given."""
    bond = Bond(bond_id, tuple(Cashflow(t, coupon) for t in times), 100.0, maturity, 1.0)
    if price is None:
        price = present_value(FlatCurve(rate), bond)
    return Bond(bond_id, bond.cashflows, 100.0, maturity, price)


def edge_day():
    """Hand-built bonds for the bootstrap's edge cases."""
    bench = generate_scenario(ScenarioSpec(regime="flat", n_bonds=2, seed=1)).benchmark
    bonds = (
        priced("Z05", (), 0.0, 0.5),
        priced("Z10", (), 0.0, 1.0, rate=0.031),
        priced("C15", (0.5, 1.0, 1.5), 2.0, 1.5, rate=0.032),        # coupons exactly on both knots
        priced("D15", (), 0.0, 1.5, rate=0.04),                      # duplicates the 1.5 knot
        priced("N15", (), 0.0, 1.5 + 5e-10),                         # within 1e-9 of it: a duplicate too
        priced("P15", (), 0.0, 1.5 + 2e-9, rate=0.033),              # just past it: a knot of its own
        priced("L20", (0.5, 1.0, 1.5, 2.0 + 5e-10), 1.5, 2.0),      # last coupon a hair after maturity
        priced("H30", (1.0, 2.0, 3.0), 2.0, 3.0, price=200.0),       # above the PV at -10%: unrepriceable
        priced("W40", (), 0.0, 4.0, price=1.0),                      # below the PV at 100%: unrepriceable
        priced("C50", (1.0, 2.0, 3.0, 4.0, 5.0), 3.0, 5.0, rate=0.035),
    )
    return MarketSnapshot("edge", bonds, bench)


DAYS = {
    **{f"{regime}-{n}": (lambda regime=regime, n=n: scenario_day(regime, n))
       for regime in ("flat", "rising", "falling") for n in (15, 30, 60)},
    "zero-coupon": zero_coupon_day,
    "edge": edge_day,
}


def outcome(fn, *args):
    """``fn(*args)``, or the message of the NoSolutionError it raises."""
    try:
        return fn(*args)
    except NoSolutionError as exc:
        return f"NoSolutionError: {exc}"


# --- tests -------------------------------------------------------------------

class TestOracle:
    @pytest.mark.parametrize("day", DAYS)
    def test_yields_and_durations_match_reference(self, day):
        for bond in DAYS[day]().bonds:
            ref_y = outcome(ref_yield_to_maturity, bond)
            ref_d = outcome(ref_macaulay_duration, bond)
            for _ in range(2):  # solved, then read back from the memo
                y, d = outcome(yield_to_maturity, bond), outcome(macaulay_duration, bond)
                if isinstance(ref_y, str):
                    assert (y, d) == (ref_y, ref_d), bond.id
                else:
                    assert y == pytest.approx(ref_y, rel=0, abs=YIELD_ABS), bond.id
                    assert d == pytest.approx(ref_d, rel=ANALYTICS_REL, abs=0), bond.id

    @pytest.mark.parametrize("day", [d for d in DAYS if d != "edge"])
    def test_weights_and_cashflow_matrix_match_reference(self, day):
        bonds = list(DAYS[day]().bonds)
        np.testing.assert_allclose(duration_price_weights(bonds), ref_duration_price_weights(bonds),
                                   rtol=ANALYTICS_REL, atol=0)
        anchors, C = cashflow_matrix(bonds)
        ref_anchors, ref_C = ref_cashflow_matrix(bonds)
        assert anchors.tobytes() == ref_anchors.tobytes()
        assert C.tobytes() == ref_C.tobytes()

    @pytest.mark.parametrize("day", DAYS)
    def test_every_bond_reprices(self, day):
        snap = DAYS[day]()
        curve = bootstrap(snap)
        skipped = {d.split(":")[0].removeprefix("bond ") for d in curve.diagnostics}
        for bond in snap.bonds:
            tol = REPRICE_REL * bond.market_price
            ytm = outcome(yield_to_maturity, bond)
            if not isinstance(ytm, str):
                assert abs(present_value(FlatCurve(ytm), bond) - bond.market_price) <= tol, bond.id
            if bond.id not in skipped:
                assert abs(present_value(curve, bond) - bond.market_price) <= tol, bond.id

    @pytest.mark.parametrize("day", DAYS)
    def test_candidate_pv_equals_reference(self, day):
        # the one kernel, for every bond: under random earlier knots at random
        # candidates and both bracket ends, and at the same values as flat rates
        rng = np.random.default_rng(21)
        knot_times, knot_yields = [], []
        for bond in sort_bonds(DAYS[day]().bonds):
            if knot_times and abs(bond.maturity - knot_times[-1]) <= 1e-9:
                continue
            times, amounts = cashflow_schedule(bond)
            ts, ys = np.array(knot_times + [bond.maturity]), np.array(knot_yields + [0.0])
            pv = pricing._pv_kernel(times, amounts)
            for y in [*YTM_BRACKET, *rng.uniform(*YTM_BRACKET, size=30)]:
                ys[-1] = y
                ref = ref_candidate_pv(times, amounts, knot_times, knot_yields, bond.maturity, float(y))
                assert pv(np.interp(times, ts, ys)).hex() == ref.hex(), (bond.id, y)
                assert pv(float(y)).hex() == ref_pv_flat(times, amounts, float(y)).hex(), (bond.id, y)
            knot_times.append(bond.maturity)
            knot_yields.append(float(rng.uniform(-0.02, 0.08)))

    def test_edge_day_has_every_case(self):
        snap = edge_day()
        curve = ref_bootstrap(snap)
        assert sum("duplicates" in d for d in curve.diagnostics) == 2
        assert sum("no yield" in d for d in curve.diagnostics) == 2
        assert 1.5 + 2e-9 in curve.knot_times
        late = snap.bond("L20")  # built with its last coupon 5e-10 past the maturity
        assert late.cashflows[-1].time == late.maturity

    @pytest.mark.parametrize("day", DAYS)
    def test_bootstrap_matches_reference(self, day):
        snap = DAYS[day]()
        curve, ref = bootstrap(snap), ref_bootstrap(snap)
        assert (curve.knot_times, curve.diagnostics) == (ref.knot_times, ref.diagnostics)
        np.testing.assert_allclose(curve.knot_yields, ref.knot_yields, rtol=0, atol=KNOT_ABS)

    def test_bootstrap_with_no_repriceable_bond_raises_the_same_error(self):
        snap = edge_day()
        bad = MarketSnapshot("bad", (snap.bond("H30"), snap.bond("W40")), snap.benchmark)
        with pytest.raises(NoSolutionError) as new:
            bootstrap(bad)
        with pytest.raises(NoSolutionError) as ref:
            ref_bootstrap(bad)
        assert str(new.value) == str(ref.value)


def live_records() -> int:
    return sum(type(o) is pricing._BondRecord for o in gc.get_objects())


class TestMemo:
    def test_reloaded_bond_gets_identical_values(self, tmp_path):
        snap = scenario_day("falling", 15)
        first = [(yield_to_maturity(b).hex(), macaulay_duration(b).hex()) for b in snap.bonds]
        save_snapshot(snap, tmp_path / "day.json")
        reloaded = load_snapshot(tmp_path / "day.json")
        assert all(a == b and a is not b for a, b in zip(snap.bonds, reloaded.bonds))
        again = [(yield_to_maturity(b).hex(), macaulay_duration(b).hex()) for b in reloaded.bonds]
        assert first == again
        for bond, (y, d) in zip(snap.bonds, first):
            assert float.fromhex(y) == pytest.approx(ref_yield_to_maturity(bond), rel=0, abs=YIELD_ABS)
            assert float.fromhex(d) == pytest.approx(ref_macaulay_duration(bond), rel=ANALYTICS_REL, abs=0)

    def test_no_solution_is_raised_on_every_call(self, monkeypatch):
        bond = edge_day().bond("H30")
        solves = []
        solve = pricing._solve_flat_rate
        monkeypatch.setattr(pricing, "_solve_flat_rate", lambda *a: solves.append(1) or solve(*a))
        for _ in range(3):
            with pytest.raises(NoSolutionError, match="outside attainable range"):
                yield_to_maturity(bond)
            with pytest.raises(NoSolutionError):
                macaulay_duration(bond)
        assert len(solves) == 6

    def test_cached_arrays_are_read_only(self):
        times, amounts = cashflow_schedule(scenario_day("flat", 15).bonds[0])
        for arr in (times, amounts):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_record_lives_as_long_as_its_bond(self):
        bonds = [
            Bond(f"memo-{b.id}", b.cashflows, b.face_value, b.maturity, b.market_price)
            for b in scenario_day("rising", 15).bonds
        ]
        duration_price_weights(bonds)
        refs = [weakref.ref(b) for b in bonds]
        del bonds
        gc.collect()
        assert [ref() for ref in refs] == [None] * 15

    def test_a_command_solves_each_bond_once_and_leaves_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "--regime", "falling", "--bonds", "20", "--seed", "8", "-o", "d.json"]) == 0
        solves = []
        solve = pricing._solve_flat_rate
        monkeypatch.setattr(pricing, "_solve_flat_rate", lambda *a: solves.append(1) or solve(*a))
        gc.collect()
        before = live_records()
        # KR weights each bond by its duration, and the printed RMSE needs each yield again
        assert main(["fit", "d.json", "--estimator", "kr"]) == 0
        assert len(solves) == 20
        assert main(["experiment", "loo", "d.json", "--estimators", "bootstrap,kr", "--mc", "3", "-o", "r"]) == 0
        gc.collect()
        assert live_records() == before

    def test_fits_hash_no_bond(self, tmp_path, monkeypatch):
        # each bond finds its record without hashing its cashflows
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "--regime", "falling", "--bonds", "20", "--seed", "8", "-o", "d.json"]) == 0
        hashes = []
        bond_hash = Bond.__hash__
        monkeypatch.setattr(market.Bond, "__hash__", lambda self: hashes.append(self.id) or bond_hash(self))
        assert main(["fit", "d.json", "--estimator", "kr"]) == 0
        assert main(["experiment", "loo", "d.json", "--estimators", "bootstrap,kr", "--mc", "3", "-o", "r"]) == 0
        assert hashes == []
