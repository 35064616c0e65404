"""The certified bisection returns the plain bisection's result, bit for bit.

``pricing._bisect`` fences the root with tangent steps and then replays the
plain bisection, skipping the midpoints whose side a certificate already
decides. The reference below is the plain bisection, kept verbatim (renamed
with a ``ref_`` prefix) as the oracle. The cases are seeded random present
value functions, with roots at and near both bracket ends, prices just
inside and just outside the attainable range, guesses outside the bracket,
and slope callbacks that are wrong in every way the tangent phase must
survive. The count test pins the saving on a fixture day.
"""

import math

import numpy as np
import pytest

from curvekit import ScenarioSpec, bootstrap, generate_scenario
from curvekit import pricing
from curvekit.pricing import YTM_BRACKET, _PRICE_TOL_REL


def ref_bisect(excess, tol: float, width: float) -> float | None:
    """Root of the decreasing function ``excess`` on ``YTM_BRACKET``, by bisection.

    Returns None when no root lies in the bracket (to within ``tol``).
    Otherwise halves the bracket, at most 200 times, until a midpoint has
    ``|excess| <= tol`` (that midpoint is the root) or the bracket is
    narrower than ``width`` (its midpoint is).
    """
    lo, hi = YTM_BRACKET
    if excess(lo) < -tol or excess(hi) > tol:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = excess(mid)
        if abs(f_mid) <= tol:
            return mid
        if f_mid > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < width:
            break
    return 0.5 * (lo + hi)


# --- random cases --------------------------------------------------------------

LO, HI = YTM_BRACKET


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


def random_price(rng, pv):
    """A price whose root lies anywhere, at or near an end, or just outside the bracket."""
    kind = int(rng.integers(0, 10))
    if kind == 0:
        return pv(LO)
    if kind == 1:
        return pv(HI)
    if kind == 2:
        return pv(LO + float(rng.choice([1e-12, 1e-13, 5e-16])))
    if kind == 3:
        return pv(HI - float(rng.choice([1e-12, 1e-13, 1e-15])))
    if kind == 4:  # outside by less than tol: still solved
        return pv(LO) * (1 + 1e-11) if rng.random() < 0.5 else pv(HI) * (1 - 1e-11)
    if kind == 5:  # outside by more than tol: no root
        return pv(LO) * (1 + 1e-9) if rng.random() < 0.5 else pv(HI) * (1 - 1e-9)
    return pv(float(rng.uniform(LO, HI)))


def random_guess(rng, root_hint):
    kind = int(rng.integers(0, 7))
    if kind == 0:
        return float(rng.choice([LO, HI, -5.0, 3.0, math.nan, math.inf, -math.inf]))
    if kind == 1:
        return root_hint + float(rng.normal(0.0, 1e-6))
    return float(rng.uniform(LO, HI))


def random_slope(rng, slope):
    kind = int(rng.integers(0, 7))
    if kind == 0:
        return lambda x: 0.0
    if kind == 1:
        return lambda x: math.nan
    if kind == 2:
        return lambda x: -slope(x)  # positive
    if kind == 3:
        scale = float(rng.uniform(0.3, 3.0))  # a wrong but usable slope
        return lambda x: scale * slope(x)
    return slope


class TestCertifiedBisection:
    CASES = 5000

    def test_equals_plain_bisection_on_random_pv_functions(self):
        rng = np.random.default_rng(2024)
        outcomes = set()
        for case in range(self.CASES):
            pv, slope = random_pv(rng, flat=case % 3 != 0)
            price = random_price(rng, pv)
            tol = _PRICE_TOL_REL * price
            width = 1e-16 if case % 2 else 1e-15
            excess = lambda r: pv(r) - price  # noqa: E731
            expected = ref_bisect(excess, tol, width)
            got = pricing._bisect(excess, tol, width, slope=random_slope(rng, slope),
                                  guess=random_guess(rng, expected if expected is not None else 0.0))
            if expected is None:
                assert got is None, case
            else:
                assert got is not None and got[0].hex() == expected.hex(), case
                assert got[1] == excess(got[0]), case
            outcomes.add("none" if expected is None else "end" if min(expected - LO, HI - expected) < 1e-9 else "inside")
        assert outcomes == {"none", "end", "inside"}

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_a_point_within_tol_certifies_nothing(self, side):
        # the first midpoint has |excess| = 0.98 tol, so the plain loop returns
        # it; the guess lies just past it with |excess| = 0.95 tol and must not
        # let the bisection skip it
        tol, mid = 1e-10, 0.5 * (LO + HI)
        root = mid + side * 0.98 * tol
        excess = lambda r: root - r  # noqa: E731
        expected = ref_bisect(excess, tol, 1e-16)
        assert expected == mid
        got, _ = pricing._bisect(excess, tol, 1e-16, slope=lambda r: -1.0, guess=root - side * 0.95 * tol)
        assert got.hex() == expected.hex()

    def test_a_slope_that_lies_cannot_move_the_result(self):
        # a decreasing excess whose slope callback points the tangent steps anywhere
        rng = np.random.default_rng(5)
        pv, _ = random_pv(rng, flat=True)
        price = pv(0.037)
        excess = lambda r: pv(r) - price  # noqa: E731
        expected = ref_bisect(excess, _PRICE_TOL_REL * price, 1e-15).hex()
        for bad in (lambda x: -1e-300, lambda x: -1e300, lambda x: -math.inf, lambda x: float(rng.normal())):
            for guess in (math.nan, LO, 0.0, 0.5, math.nextafter(HI, LO)):
                got, _ = pricing._bisect(excess, _PRICE_TOL_REL * price, 1e-15, slope=bad, guess=guess)
                assert got.hex() == expected


class TestKernelSlope:
    def test_slope_is_the_derivative_in_the_unknown(self):
        # the slope steers only the tangent steps, so a wrong one shows in the
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


class TestBootstrapEvaluations:
    def test_falling_60_day_needs_at_most_8_candidate_pvs_per_knot(self, monkeypatch):
        snap = generate_scenario(ScenarioSpec(regime="falling", n_bonds=60, price_noise_sd=0.002, seed=100))
        calls = counting_kernel(monkeypatch)
        curve = bootstrap(snap)
        assert len(curve.knot_times) == 60 and not curve.diagnostics
        # plain bisection needs about 34 per knot on this day
        assert len(calls) / len(curve.knot_times) <= 8


class TestFlatSolveEvaluations:
    def test_readme_day_reuses_the_excess_at_the_root(self, monkeypatch):
        # the Newton polish starts from the excess the bisection returns with
        # the root, instead of evaluating the flat PV there again
        snap = generate_scenario(ScenarioSpec(regime="falling", n_bonds=60, price_noise_sd=0.002, seed=7))
        calls = counting_kernel(monkeypatch)
        for bond in snap.bonds:
            times, amounts = pricing.cashflow_schedule(bond)
            pricing._solve_flat_rate(times, amounts, bond.market_price, bond.id)
        # 8.1 per solve when the polish evaluated the root again
        assert len(calls) / len(snap.bonds) <= 7.5
