"""The one root solve under the flat yields and the bootstrap's knots.

``pricing._solve`` is a safeguarded Newton solve on ``YTM_BRACKET``. The
property test draws random bonds priced through ``pricing._pv_kernel``, in a
flat rate or in the bootstrap's candidate knot after random placed knots,
with prices inside, at and outside the attainable range, guesses outside the
bracket and slopes that lie. Whatever the slope, the solve ends; it returns
None exactly when an end of the bracket shows the root's sign beyond
``_PRICE_TOL_REL`` of the price (the plain bisection's rule), and otherwise
a rate that reprices within ``REPRICE_REL`` of the price, or an end of the
bracket with the root beyond it, within the bracket rule's tolerance.

A knot whose bond pays nothing between the previous knot and its maturity
comes from a closed form (``pricing._closed_knot``). Its property test draws
such bonds after random placed knots, at the same price kinds, and holds it
to the Newton solve on the same excess; the path tests pin which bonds keep
the Newton solve. The count tests pin the evaluations a solve needs: on
noisy days, and with the root a few units in the last place from an end.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curvekit import Bond, Cashflow, MarketSnapshot, ScenarioSpec, bootstrap, generate_scenario
from curvekit import pricing
from curvekit.pricing import YTM_BRACKET, _PRICE_TOL_REL

LO, HI = YTM_BRACKET
REPRICE_REL = 1e-13


def random_pv(rng, flat: bool):
    """A random bond's PV in one unknown, and its slope, on ``pricing._pv_kernel``.

    The unknown is a flat rate, as in the yield solve, or the bootstrap's
    candidate knot after random placed knots, with the rates and ``dr_dy``
    that ``pricing.bootstrap`` gives the kernel.
    """
    n_knots = 0 if flat else int(rng.integers(0, 8))
    knot_t = np.sort(rng.uniform(0.1, 10.0, n_knots))
    maturity = (knot_t[-1] if n_knots else 0.0) + rng.uniform(0.05, 20.0)
    times = np.append(np.sort(rng.uniform(0.05, maturity, int(rng.integers(0, 40)))), maturity)
    amounts = rng.uniform(0.1, 6.0, len(times))
    amounts[-1] += 100.0
    if flat:
        pv = pricing._pv_kernel(times, amounts)
        return pv, pv.slope
    ts, ys = np.append(knot_t, maturity), np.append(rng.uniform(-0.05, 0.2, n_knots), 0.0)
    dr_dy = np.clip((times - knot_t[-1]) / (maturity - knot_t[-1]), 0.0, 1.0) if n_knots else 1.0
    pv = pricing._pv_kernel(times, amounts, dr_dy)

    def candidate(y):
        ys[-1] = y
        return pv(np.interp(times, ts, ys))

    return candidate, pv.slope


PRICES = {
    "inside": lambda rng, pv: pv(float(rng.uniform(LO, HI))),
    "at-lo": lambda rng, pv: pv(LO),
    "at-hi": lambda rng, pv: pv(HI),
    "near-lo": lambda rng, pv: pv(LO + float(rng.choice([1e-12, 1e-13, 5e-16]))),
    "near-hi": lambda rng, pv: pv(HI - float(rng.choice([1e-12, 1e-13, 1e-15]))),
    "outside-within-tol": lambda rng, pv: pv(LO) * (1 + 1e-11) if rng.random() < 0.5 else pv(HI) * (1 - 1e-11),
    "outside": lambda rng, pv: pv(LO) * (1 + 1e-9) if rng.random() < 0.5 else pv(HI) * (1 - 1e-9),
}

GUESSES = [LO, HI, -5.0, 3.0, math.nan, math.inf, -math.inf, "near-root", "inside"]

SLOPES = {
    "true": lambda slope: slope,
    "zero": lambda slope: lambda x: 0.0,
    "nan": lambda slope: lambda x: math.nan,
    "positive": lambda slope: lambda x: -slope(x),
    "tiny": lambda slope: lambda x: -1e-300,
    "huge": lambda slope: lambda x: -1e300,
}


class TestSolve:
    @settings(max_examples=1500, derandomize=True, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), flat=st.booleans(), price_kind=st.sampled_from(sorted(PRICES)),
           guess_kind=st.sampled_from(GUESSES), slope_kind=st.sampled_from(sorted(SLOPES)))
    def test_none_by_the_bracket_rule_else_a_root(self, seed, flat, price_kind, guess_kind, slope_kind):
        rng = np.random.default_rng(seed)
        pv, slope = random_pv(rng, flat)
        price = PRICES[price_kind](rng, pv)
        tol = _PRICE_TOL_REL * price
        excess = lambda r: pv(r) - price  # noqa: E731
        no_root = excess(LO) < -tol or excess(HI) > tol
        guess = {"near-root": 0.03 + float(rng.normal(0.0, 1e-3)),
                 "inside": float(rng.uniform(LO, HI))}.get(guess_kind, guess_kind)
        rate = pricing._solve(excess, SLOPES[slope_kind](slope), price, guess)
        if no_root:
            assert rate is None
        elif rate in YTM_BRACKET:  # the root lies beyond that end, within the tolerance
            assert 0 <= (excess(rate) if rate == HI else -excess(rate)) <= tol
        else:
            assert rate is not None and LO < rate < HI
            assert abs(excess(rate)) <= REPRICE_REL * price


class TestKernelSlope:
    def test_slope_is_the_derivative_in_the_unknown(self):
        # the slope steers the Newton steps, so a wrong one shows in the
        # evaluation counts alone; check it against a central difference
        rng = np.random.default_rng(11)
        h = 1e-6
        for case in range(400):
            pv, slope = random_pv(rng, flat=case % 2 == 0)
            y = float(rng.uniform(-0.05, 0.3))
            pv(y)
            assert slope(y) == pytest.approx((pv(y + h) - pv(y - h)) / (2 * h), rel=1e-5), case


def counting_kernel(monkeypatch) -> list:
    """Record every present value the one kernel computes, in the returned list."""
    calls = []
    make_pv = pricing._pv_kernel

    def counting(*args):
        pv = make_pv(*args)

        def counted(r):
            calls.append(r)
            return pv(r)

        counted.disc, counted.slope = pv.disc, pv.slope
        return counted

    monkeypatch.setattr(pricing, "_pv_kernel", counting)
    return calls


NOISY_DAYS = [dict(regime=regime, n_bonds=60, price_noise_sd=0.002, seed=seed)
              for regime in ("flat", "rising", "falling") for seed in range(5)]


class TestEvaluations:
    def test_at_most_3_per_flat_solve_and_0_25_per_knot(self, monkeypatch):
        # the tangent-fenced bisection that the Newton solve replaced took 7.27
        # per flat solve and 6.58 per knot on these days, plain bisection about
        # 34, and the Newton solve alone 2.88 per knot; the closed form takes
        # 0.078, from the few bonds with a coupon after the previous knot
        calls = counting_kernel(monkeypatch)
        solves = knots = 0
        for spec in NOISY_DAYS:
            for bond in generate_scenario(ScenarioSpec(**spec)).bonds:
                times, amounts = pricing.cashflow_schedule(bond)
                pricing._solve_flat_rate(times, amounts, bond.market_price, bond.id)
                solves += 1
        assert len(calls) / solves <= 3.0
        calls.clear()
        for spec in NOISY_DAYS:
            curve = bootstrap(generate_scenario(ScenarioSpec(**spec)))
            assert len(curve.knot_times) == 60 and not curve.diagnostics
            knots += len(curve.knot_times)
        assert len(calls) / knots <= 0.25

    def test_at_most_10_with_the_root_just_inside_the_low_end(self):
        # the root 5e-16 above LO is about 36 units in the last place from it:
        # once a Newton step no longer moves the point, the solve stops there;
        # bisecting down from the far side of the interval took up to 58
        worst = 0
        for case in range(4000):
            rng = np.random.default_rng(case)
            pv, slope = random_pv(rng, flat=case % 2 == 0)
            price = pv(LO + 5e-16)
            xs = []
            excess = lambda r: xs.append(r) or pv(r) - price  # noqa: E731
            rate = pricing._solve(excess, slope, price, float(rng.uniform(LO, HI)))
            assert rate is not None and abs(excess(rate)) <= REPRICE_REL * price, case
            worst = max(worst, len(xs) - 1)
        assert worst <= 10


def knot_after_placed(rng, n_knots: int):
    """Random placed knots and a bond that pays, after the last of them, only at its maturity.

    Its earlier payments fall at or before the last knot, one of them on it
    half the time. Returns the knot times and yields, with a slot for the
    new knot, and the bond's cashflows, face value and maturity.
    """
    knot_t = np.sort(rng.uniform(0.1, 10.0, n_knots))
    ts = np.append(knot_t, (knot_t[-1] if n_knots else 0.0) + rng.uniform(0.05, 20.0))
    ys = np.append(rng.uniform(-0.05, 0.2, n_knots), np.nan)
    early = np.sort(rng.uniform(0.05, knot_t[-1], int(rng.integers(0, 30)))) if n_knots else np.array([])
    if n_knots and rng.random() < 0.5:
        early = np.append(early[early < knot_t[-1]], knot_t[-1])
    times = np.unique(np.append(early, ts[-1]))
    cashflows = tuple(Cashflow(float(t), float(rng.uniform(0.1, 6.0))) for t in times)
    return ts, ys, cashflows, float(rng.uniform(50.0, 150.0)), float(ts[-1])


class TestClosedForm:
    @settings(max_examples=1500, derandomize=True, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n_knots=st.integers(0, 8),
           price_kind=st.sampled_from([*sorted(PRICES), "below-early-pv"]))
    def test_reprices_as_the_newton_solve_or_agrees_on_its_end(self, seed, n_knots, price_kind):
        rng = np.random.default_rng(seed)
        ts, ys, cashflows, face, maturity = knot_after_placed(rng, n_knots)
        record = pricing._record(Bond("B", cashflows, face, maturity, 1.0))
        times, amounts = record.times, record.amounts
        n = n_knots
        dr_dy = np.clip((times - ts[n - 1]) / (ts[n] - ts[n - 1]), 0.0, 1.0) if n else 1.0
        pv = pricing._pv_kernel(times, amounts, dr_dy)

        def candidate(y):
            ys[n] = y
            return pv(np.interp(times, ts, ys))

        if price_kind == "below-early-pv":  # no knot: the payments before the last knot are worth more
            assume(len(record.early_times))
            early = np.interp(record.early_times, ts[:n], ys[:n])
            price = 0.9 * float(np.add.reduce(record.early_amounts * np.exp(-record.early_times * early)))
        else:
            price = PRICES[price_kind](rng, candidate)
        assert len(record.early_times) < len(times)
        closed = pricing._closed_knot(record, ts, ys.copy(), n, price)
        solved = pricing._newton_knot(record, ts, ys.copy(), n, price)
        reprices = lambda y: y is not None and abs(candidate(y) - price) <= REPRICE_REL * price  # noqa: E731
        assert (reprices(closed) and reprices(solved)) or closed == solved, (closed, solved)
        if price_kind == "below-early-pv":
            assert closed is None


def path_day(*bonds: Bond) -> MarketSnapshot:
    bench = generate_scenario(ScenarioSpec(regime="flat", n_bonds=2, seed=1)).benchmark
    return MarketSnapshot("paths", bonds, bench)


class TestPath:
    """The payments after the previous knot pick a knot's path: the closed form when they
    all fall at the maturity, the Newton solve when one falls before it."""

    @pytest.fixture
    def paths(self, monkeypatch):
        taken = []
        for name in ("_closed_knot", "_newton_knot"):
            def spy(record, ts, ys, n, price, solve=getattr(pricing, name), name=name):
                taken.append((float(ts[n]), name))
                return solve(record, ts, ys, n, price)
            monkeypatch.setattr(pricing, name, spy)
        return taken

    @staticmethod
    def bond(bond_id, coupon_times, maturity, price, face=100.0):
        return Bond(bond_id, tuple(Cashflow(t, 2.0) for t in coupon_times), face, maturity, price)

    def test_each_bond_takes_its_path(self, paths):
        day = path_day(
            self.bond("Z1", (), 1.0, 97.0),                          # first knot, one payment: closed, F = 0
            self.bond("C1", (1.0, 2.0), 2.0, 98.0),                  # coupon on the previous knot: closed
            self.bond("S3", (2.5, 3.0), 3.0, 96.0),                  # coupon strictly between: Newton
            self.bond("L4", (3.0, 4.0 + 5e-10), 4.0, 95.0),          # last coupon stored at maturity: closed
            self.bond("D4", (), 4.0 + 5e-10, 80.0),                  # duplicates the 4.0 knot: skipped
            self.bond("Z5", (), 5.0, 85.0),                          # zero coupon after a knot: closed
        )
        curve = bootstrap(day)
        assert paths == [(1.0, "_closed_knot"), (2.0, "_closed_knot"), (3.0, "_newton_knot"),
                         (4.0, "_closed_knot"), (5.0, "_closed_knot")]
        assert curve.knot_times == (1.0, 2.0, 3.0, 4.0, 5.0)
        assert curve.diagnostics == ("bond D4: maturity 4.0000000005 duplicates an existing knot; skipped",)
        for bond in map(day.bond, ("Z1", "C1", "S3", "L4", "Z5")):
            assert abs(pricing.present_value(curve, bond) - bond.market_price) <= REPRICE_REL * bond.market_price

    def test_first_coupon_bond_takes_the_newton_solve(self, paths):
        bootstrap(path_day(self.bond("C2", (1.0, 2.0), 2.0, 98.0)))
        assert paths == [(2.0, "_newton_knot")]

    @pytest.mark.parametrize("price", [200.0, 1.0])
    def test_both_paths_skip_an_unrepriceable_bond_with_one_diagnostic(self, paths, price):
        # above the PV at -10% and below the PV at 100%, on each path
        day = path_day(self.bond("Z1", (), 1.0, 97.0), self.bond("C3", (1.0, 3.0), 3.0, price),
                       self.bond("S4", (3.5, 4.0), 4.0, price))
        curve = bootstrap(day)
        assert paths == [(1.0, "_closed_knot"), (3.0, "_closed_knot"), (4.0, "_newton_knot")]
        assert curve.knot_times == (1.0,)
        assert curve.diagnostics == tuple(f"bond {b}: no yield in [{LO}, {HI}] reprices {price}; skipped"
                                          for b in ("C3", "S4"))
