"""Pricing, yield solving, duration, forwards, and the bootstrap."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvekit import (
    DEFAULT_TENORS,
    BenchmarkCurve,
    Bond,
    BootstrapCurve,
    Cashflow,
    FlatCurve,
    KrCurve,
    MarketSnapshot,
    NnCurve,
    NnParams,
    NoSolutionError,
    NssParams,
    OffsetCurve,
    ScenarioSpec,
    ValidationError,
    bootstrap,
    discount_factor,
    fit_kr,
    forward_rate,
    generate_scenario,
    macaulay_duration,
    nss_forward,
    present_value,
    yield_to_maturity,
)
from curvekit.nss import NssCurve
from curvekit.pricing import YieldCurve

BENCH = BenchmarkCurve(tenors=(0.5, 2.0, 10.0), rates=(0.02, 0.025, 0.03))


class LinearCurve(YieldCurve):
    def __init__(self, a, b):
        self.a, self.b = a, b

    def yields(self, ts):
        return self.a + self.b * ts


def zc_bond(maturity, price, bond_id="Z1", face=100.0):
    return Bond(id=bond_id, cashflows=(), face_value=face, maturity=maturity, market_price=price)


def coupon_bond(maturity, coupon, price, bond_id="C1", face=100.0):
    times = [maturity - k for k in range(int(math.floor(maturity - 1e-9)), -1, -1)]
    flows = tuple(Cashflow(t, coupon) for t in times if t > 1e-9)
    return Bond(id=bond_id, cashflows=flows, face_value=face, maturity=maturity, market_price=price)


def priced_bond(curve, maturity, coupon, bond_id="P1"):
    """Coupon bond whose market price is its PV under ``curve``."""
    b = coupon_bond(maturity, coupon, 1.0, bond_id=bond_id)
    return Bond(id=b.id, cashflows=b.cashflows, face_value=b.face_value,
                maturity=b.maturity, market_price=present_value(curve, b))


class TestDiscountFactor:
    def test_zero_rate_gives_one(self):
        assert discount_factor(FlatCurve(0.0), 5.0) == 1.0

    def test_flat_three_percent(self):
        # direct evaluation of exp(-t*y)
        assert discount_factor(FlatCurve(0.03), 2.0) == pytest.approx(math.exp(-0.06), rel=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            discount_factor(FlatCurve(0.03), -1.0)
        with pytest.raises(ValueError):
            discount_factor(FlatCurve(0.03), 0.0)

    def test_defined_near_zero_and_out_to_30y(self):
        curve = FlatCurve(0.04)
        assert 0 < discount_factor(curve, 1e-9) <= 1.0
        assert discount_factor(curve, 30.0) == pytest.approx(math.exp(-1.2), rel=1e-15)

    def test_matches_yield_definitionally(self):
        curve = LinearCurve(0.02, 0.001)
        for t in (0.1, 1.0, 7.5, 30.0):
            assert discount_factor(curve, t) == math.exp(-t * curve.yield_at(t))


class TestPresentValue:
    def test_zero_coupon_flat_zero(self):
        assert present_value(FlatCurve(0.0), zc_bond(1.0, 100.0)) == pytest.approx(100.0, abs=1e-12)

    def test_two_coupon_bond_hand_value(self):
        # coupons 3 at t=1,2 with face 100 at t=2 under flat 2%:
        expected = 3 * math.exp(-0.02) + 103 * math.exp(-0.04)
        bond = coupon_bond(2.0, 3.0, 100.0)
        assert present_value(FlatCurve(0.02), bond) == pytest.approx(expected, rel=1e-14)

    def test_decreasing_under_parallel_shift(self):
        bond = coupon_bond(7.0, 4.0, 100.0)
        pvs = [present_value(FlatCurve(r), bond) for r in np.linspace(-0.05, 0.2, 11)]
        assert all(b < a for a, b in zip(pvs, pvs[1:]))


class TestYieldToMaturity:
    def test_zero_coupon_at_par(self):
        assert yield_to_maturity(zc_bond(2.0, 100.0)) == pytest.approx(0.0, abs=1e-12)

    def test_zero_coupon_analytic(self):
        # price = 100 * exp(-0.05) at T=2 inverts to r = 0.025
        bond = zc_bond(2.0, 100.0 * math.exp(-0.05))
        assert yield_to_maturity(bond) == pytest.approx(0.025, abs=1e-12)

    def test_coupon_bond_recovers_flat_rate(self):
        bond = priced_bond(FlatCurve(0.03), 6.0, 3.5)
        assert yield_to_maturity(bond) == pytest.approx(0.03, abs=1e-9)

    def test_round_trip_on_random_bonds(self):
        rng = np.random.default_rng(123)
        for k in range(50):
            rate = rng.uniform(-0.05, 0.30)
            maturity = rng.uniform(0.1, 20.0)
            coupon = rng.uniform(0.0, 6.0)
            bond = priced_bond(FlatCurve(rate), maturity, coupon, bond_id=f"R{k}") if coupon > 0 else zc_bond(
                maturity, 100.0 * math.exp(-rate * maturity), bond_id=f"R{k}")
            ytm = yield_to_maturity(bond)
            err = abs(present_value(FlatCurve(ytm), bond) - bond.market_price)
            assert err <= 1e-8 * bond.market_price

    def test_no_solution_outside_bracket(self):
        with pytest.raises(NoSolutionError):
            yield_to_maturity(zc_bond(1.0, 120.0))  # above PV at r = -0.10
        with pytest.raises(NoSolutionError):
            yield_to_maturity(zc_bond(1.0, 20.0))   # below PV at r = 1.00


class TestMacaulayDuration:
    def test_zero_coupon_equals_maturity(self):
        assert macaulay_duration(zc_bond(7.0, 80.0)) == pytest.approx(7.0, abs=1e-12)

    def test_coupon_bond_below_maturity(self):
        bond = priced_bond(FlatCurve(0.03), 8.0, 4.0)
        assert 0 < macaulay_duration(bond) < 8.0

    def test_matches_brute_force_sum(self):
        bond = priced_bond(FlatCurve(0.02), 2.0, 3.0)
        ytm = yield_to_maturity(bond)
        # independent summation of the defining formula
        flows = [(cf.time, cf.amount) for cf in bond.cashflows]
        flows.append((bond.maturity, bond.face_value))
        weights = [(t, a * math.exp(-t * ytm)) for t, a in flows]
        total = sum(w for _, w in weights)
        expected = sum(t * w / total for t, w in weights)
        assert macaulay_duration(bond) == pytest.approx(expected, rel=1e-12)

    @given(
        rate=st.floats(-0.02, 0.15),
        maturity=st.floats(0.2, 25.0),
        coupon=st.floats(0.1, 8.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_duration_bounds(self, rate, maturity, coupon):
        bond = priced_bond(FlatCurve(rate), maturity, coupon)
        d = macaulay_duration(bond)
        assert 0 < d <= bond.maturity + 1e-12


class TestForwardRate:
    def test_flat_curve(self):
        assert forward_rate(FlatCurve(0.034), 5.0, 1e-4) == pytest.approx(0.034, abs=1e-12)

    def test_linear_yield(self):
        # y = a + b t  =>  f = a + 2 b t
        curve = LinearCurve(0.02, 0.0015)
        for t in (1.0, 4.0, 12.0):
            assert forward_rate(curve, t, 1e-5) == pytest.approx(0.02 + 2 * 0.0015 * t, abs=1e-10)

    def test_matches_svensson_closed_form(self):
        params = NssParams(beta0=0.03, beta1=-0.02, beta2=0.03, beta3=0.02, lambda1=1.5, lambda2=6.0)
        curve = NssCurve(params)
        for t in (0.5, 2.0, 5.0, 12.0, 25.0):
            assert forward_rate(curve, t, 1e-4) == pytest.approx(nss_forward(params, t), abs=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            forward_rate(FlatCurve(0.03), 1.0, 1.0)  # t - h <= 0
        with pytest.raises(ValueError):
            forward_rate(FlatCurve(0.03), 1.0, -0.1)


class TestBootstrap:
    def test_zero_coupon_flat_two_percent(self, zc_snapshot):
        curve = bootstrap(zc_snapshot)
        assert curve.diagnostics == ()
        for y in curve.knot_yields:
            assert y == pytest.approx(0.02, abs=1e-9)

    def test_exact_fit_on_noise_free_coupon_market(self, falling_snapshot):
        curve = bootstrap(falling_snapshot)
        for bond in falling_snapshot.bonds:
            err = abs(present_value(curve, bond) - bond.market_price) / bond.market_price
            assert err <= 1e-8, f"{bond.id}: {err}"

    def test_knots_reproduce_inputs(self, falling_snapshot):
        curve = bootstrap(falling_snapshot)
        for t, y in zip(curve.knot_times, curve.knot_yields):
            assert curve.yield_at(t) == y

    def test_equal_maturity_emits_diagnostic(self):
        a = zc_bond(2.0, 96.0, bond_id="A")
        b = zc_bond(2.0, 95.0, bond_id="B")
        snap = MarketSnapshot(date="d", bonds=(a, b), benchmark=BENCH)
        curve = bootstrap(snap)
        assert len(curve.knot_times) == 1
        assert curve.yield_at(2.0) == pytest.approx(-math.log(0.96) / 2.0, abs=1e-10)
        assert any("B" in d for d in curve.diagnostics)

    def test_unsolvable_bond_is_skipped_with_diagnostic(self):
        good = zc_bond(1.0, 98.0, bond_id="GOOD")
        absurd = zc_bond(2.0, 200.0, bond_id="ABSURD")  # no rate in bracket reprices it
        snap = MarketSnapshot(date="d", bonds=(good, absurd), benchmark=BENCH)
        curve = bootstrap(snap)
        assert list(curve.knot_times) == [1.0]
        assert any("ABSURD" in d for d in curve.diagnostics)

    @pytest.mark.parametrize("times, yields", [
        ((1.0, math.nan), (0.01, 0.02)),
        ((1.0, math.inf), (0.01, 0.02)),
        ((1.0, 2.0), (0.01, math.nan)),
        ((1.0, 2.0), (-math.inf, 0.02)),
    ])
    def test_curve_rejects_non_finite_knots(self, times, yields):
        with pytest.raises(ValidationError, match="must be finite"):
            BootstrapCurve(times, yields)

    def test_flat_extrapolation_beyond_knots(self, zc_snapshot):
        curve = bootstrap(zc_snapshot)
        assert curve.yield_at(1e-6) == pytest.approx(curve.knot_yields[0], abs=1e-15)
        assert curve.yield_at(30.0) == pytest.approx(curve.knot_yields[-1], abs=1e-15)

    def test_generated_market_with_spread(self):
        spec = ScenarioSpec(regime="rising", n_bonds=20, seed=8)
        snap = generate_scenario(spec)
        curve = bootstrap(snap)
        gen = OffsetCurve(snap.benchmark, spec.spread_over_benchmark)
        # bootstrapped knots sit near the generating curve at their maturities
        for t, y in zip(curve.knot_times, curve.knot_yields):
            assert y == pytest.approx(gen.yield_at(t), abs=5e-4)


# The maturities ``curvekit fit`` samples a curve at: the standard grid and
# every 0.1Y out to 30Y, 309 tenors.
SAMPLE_TENORS = np.array(sorted(
    {round(float(t), 10) for t in list(DEFAULT_TENORS) + list(np.arange(0.1, 30.0 + 1e-9, 0.1))}
))

EQUIVALENCE_DAYS = [
    generate_scenario(ScenarioSpec(regime="falling", n_bonds=60, price_noise_sd=0.002, seed=7)),
    generate_scenario(ScenarioSpec(regime="rising", n_bonds=30, seed=5)),
    generate_scenario(ScenarioSpec(regime="flat", n_bonds=20, price_noise_sd=0.002, seed=11)),
]

EQUIVALENCE_NSS = [
    NssParams(beta0=0.03, beta1=-0.02, beta2=0.03, beta3=0.02, lambda1=1.5, lambda2=6.0),
    NssParams(beta0=0.04, beta1=0.01, beta2=-0.03, beta3=0.05, lambda1=0.05, lambda2=29.0),
    NssParams(beta0=0.035, beta1=-0.01, beta2=0.02, beta3=-0.04, lambda1=0.4, lambda2=30.0),
    NssParams(beta0=0.02, beta1=0.015, beta2=0.0, beta3=0.01, lambda1=28.0, lambda2=0.3),
]


def per_point_nss(p, t):
    """``nss_yield(p, t)`` for one maturity, as the scalar path computed it."""
    neg_t = np.array([-t])

    def terms(lam):
        n = neg_t / lam
        if t / lam >= 1e-4:
            h = np.expm1(n) / n
        else:
            x = -n
            h = 1.0 - x / 2.0 + x**2 / 6.0 - x**3 / 24.0
        return h, h - np.exp(n)

    h1, s1 = terms(p.lambda1)
    _, s2 = terms(p.lambda2)
    return float((p.beta0 + p.beta1 * h1 + p.beta2 * s1 + p.beta3 * s2)[0])


def per_point_kr(model, t):
    """``kr_yield(model, t)`` for one maturity: a kernel row dotted with the weights."""
    anchors, alphas = np.array(model.anchor_times), np.array(model.alphas)
    a, b = model.kernel_params.a, model.kernel_params.b
    lo = np.minimum(t, anchors)
    if b == 0:
        row = lo / a
    else:
        m = np.sqrt(a / b)
        row = (lo - np.exp(-m * np.maximum(t, anchors)) * np.sinh(m * lo) / m) / a
    return float(-np.log(1.0 + row @ alphas) / t)


def per_point_nn(p, t):
    """``nn_yield(p, t)`` for one maturity."""
    w, b, v = np.array(p.w), np.array(p.b), np.array(p.v)
    return float(v @ np.tanh(w * t + b) + p.c)


def per_point_pv(curve, bond):
    """Present value as a sum over the coupons, final coupon and face value discounted together."""
    pv = 0.0
    for cf in bond.cashflows[:-1]:
        pv += cf.amount * math.exp(-cf.time * curve.yield_at(cf.time))
    final_coupon = bond.cashflows[-1].amount if bond.cashflows else 0.0
    return pv + (final_coupon + bond.face_value) * math.exp(-bond.maturity * curve.yield_at(bond.maturity))


def max_rel(got, expected):
    expected = np.asarray(expected)
    return float(np.max(np.abs(got - expected) / np.abs(expected)))


class TestArrayEvaluation:
    """``yields(ts)`` against the per-point formulas it replaced, at the fit sample tenors.

    Interpolated and closed-form curves agree bit for bit; KR and NN sum a
    matrix-vector product where the per-point path took one dot product per
    tenor, so they agree to rounding.
    """

    def test_flat_and_offset(self):
        flat = FlatCurve(0.031)
        assert flat.yields(SAMPLE_TENORS).tolist() == [0.031] * len(SAMPLE_TENORS)
        for snap in EQUIVALENCE_DAYS:
            bench = snap.benchmark
            expected = [float(np.interp(t, bench.tenors, bench.rates)) + 0.004 for t in SAMPLE_TENORS.tolist()]
            assert OffsetCurve(bench, 0.004).yields(SAMPLE_TENORS).tolist() == expected

    @pytest.mark.parametrize("day", range(len(EQUIVALENCE_DAYS)))
    def test_bootstrap_and_benchmark(self, day):
        snap = EQUIVALENCE_DAYS[day]
        curve, bench = bootstrap(snap), snap.benchmark
        ts = SAMPLE_TENORS.tolist()
        assert curve.yields(SAMPLE_TENORS).tolist() == [
            float(np.interp(t, curve.knot_times, curve.knot_yields)) for t in ts
        ]
        assert bench.yields(SAMPLE_TENORS).tolist() == [float(np.interp(t, bench.tenors, bench.rates)) for t in ts]

    @pytest.mark.parametrize("params", EQUIVALENCE_NSS)
    def test_nss(self, params):
        got = NssCurve(params).yields(SAMPLE_TENORS).tolist()
        assert got == [per_point_nss(params, t) for t in SAMPLE_TENORS.tolist()]

    @pytest.mark.parametrize("day", range(len(EQUIVALENCE_DAYS)))
    def test_kr(self, day):
        # compared as discount factors exp(-t y), which is what both paths compute: the yield
        # -ln(1 + k.alpha)/t turns one ulp of the discount into ~1e-14 of a short tenor's yield
        model = fit_kr(EQUIVALENCE_DAYS[day], 1e-2)
        got = KrCurve(model).yields(SAMPLE_TENORS)
        expected = np.array([per_point_kr(model, t) for t in SAMPLE_TENORS.tolist()])
        assert max_rel(np.exp(-SAMPLE_TENORS * got), np.exp(-SAMPLE_TENORS * expected)) <= 1e-14

    @pytest.mark.parametrize("hidden", [1, 3, 5, 8])
    def test_nn(self, hidden):
        rng = np.random.default_rng(hidden)
        params = NnParams(w=rng.normal(0.0, 0.3, hidden), b=rng.normal(0.0, 0.5, hidden),
                          v=rng.normal(0.0, 0.01, hidden), c=0.03)
        got = NnCurve(params).yields(SAMPLE_TENORS)
        assert max_rel(got, [per_point_nn(params, t) for t in SAMPLE_TENORS.tolist()]) <= 1e-14

    def test_yield_at_is_one_point_of_yields(self):
        curves = [bootstrap(EQUIVALENCE_DAYS[0]), NssCurve(EQUIVALENCE_NSS[1]), KrCurve(fit_kr(EQUIVALENCE_DAYS[1]))]
        for curve in curves:
            for t in (1 / 365, 0.5, 7.3, 30.0):
                assert curve.yield_at(t) == curve.yields(np.array([t]))[0]

    def test_forward_rate_is_one_three_point_call(self):
        curve = NssCurve(EQUIVALENCE_NSS[0])
        for t in (0.5, 2.0, 12.0):
            expected = curve.yield_at(t) + t * ((curve.yield_at(t + 1e-4) - curve.yield_at(t - 1e-4)) / 2e-4)
            assert forward_rate(curve, t) == expected

    @pytest.mark.parametrize("day", range(len(EQUIVALENCE_DAYS)))
    def test_present_value(self, day):
        snap = EQUIVALENCE_DAYS[day]
        curves = [bootstrap(snap), NssCurve(EQUIVALENCE_NSS[0]), KrCurve(fit_kr(snap))]
        for curve in curves:
            got = [present_value(curve, b) for b in snap.bonds]
            assert max_rel(np.array(got), [per_point_pv(curve, b) for b in snap.bonds]) <= 1e-14
