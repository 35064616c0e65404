"""The one root solve under the flat yields and the bootstrap's knots.

``pricing._solve`` is a safeguarded Newton solve on ``YTM_BRACKET``. The
property test draws random bonds priced through ``pricing._pv_kernel``, in a
flat rate or in the bootstrap's candidate knot after random placed knots,
with prices inside, at and outside the attainable range, guesses outside the
bracket and slopes that lie. Whatever the slope, the solve ends; it returns
None exactly when an end of the bracket shows the root's sign beyond
``_PRICE_TOL_REL`` of the price (the plain bisection's rule), and otherwise
a rate that reprices within ``REPRICE_REL`` of the price, or an end of the
bracket with the root beyond it, within the bracket rule's tolerance. The
count test pins the evaluations a solve needs on noisy days.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvekit import ScenarioSpec, bootstrap, generate_scenario
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
    def test_at_most_3_per_flat_solve_and_3_5_per_knot(self, monkeypatch):
        # the tangent-fenced bisection this solve replaced took 7.27 per flat
        # solve and 6.58 per knot on these days, and plain bisection about 34
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
        assert len(calls) / knots <= 3.5
