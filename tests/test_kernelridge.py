"""Kernel properties, closed-form optimality, and the discount curve surface."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from curvekit import (
    BenchmarkCurve,
    Bond,
    FitFailureError,
    InvalidDiscountError,
    KernelParams,
    KrModel,
    MarketSnapshot,
    ScenarioSpec,
    SingularSystemError,
    ValidationError,
    fit_kr,
    generate_scenario,
    kernel_matrix,
    kr_discount,
    kr_kernel,
    kr_objective,
    kr_yield,
)
from curvekit.kernelridge import _solve_spd
from curvekit.pricing import macaulay_duration

BENCH = BenchmarkCurve(tenors=(0.5, 2.0, 10.0), rates=(0.02, 0.025, 0.03))


def zc_bond(maturity, price, bond_id="Z1"):
    return Bond(id=bond_id, cashflows=(), face_value=100.0, maturity=maturity, market_price=price)


def five_bond_snapshot(flat_rate=0.03, seed=0):
    maturities = [1.0, 2.5, 4.0, 7.0, 11.0]
    bonds = []
    for j, mat in enumerate(maturities):
        bonds.append(zc_bond(mat, 100.0 * math.exp(-mat * flat_rate), bond_id=f"Z{j}"))
    return MarketSnapshot(date="d", bonds=tuple(bonds), benchmark=BENCH)


# ---------------------------------------------------------------------------
# Independent oracle machinery
# ---------------------------------------------------------------------------

def kernel_derivatives(s, kp):
    """u -> (k'(s,u), k''(s,u)) from the piecewise closed form."""
    a, b = kp.a, kp.b
    if b == 0:
        return (lambda u: (1.0 if u < s else 0.0) / a, lambda u: 0.0)
    m = math.sqrt(a / b)

    def k1(u):
        if u <= s:
            return (1.0 - math.exp(-m * s) * math.cosh(m * u)) / a
        return math.sinh(m * s) * math.exp(-m * u) / a

    def k2(u):
        if u <= s:
            return -m * math.exp(-m * s) * math.sinh(m * u) / a
        return -m * math.sinh(m * s) * math.exp(-m * u) / a

    return k1, k2


def inner_product_by_quadrature(s, t, kp):
    """<k(s,.), k(t,.)> in the norm int a g'^2 + b g''^2, piecewise quadrature."""
    s1, s2 = kernel_derivatives(s, kp)
    t1, t2 = kernel_derivatives(t, kp)

    def integrand(u):
        return kp.a * s1(u) * t1(u) + kp.b * s2(u) * t2(u)

    lo, hi = min(s, t), max(s, t)
    cap = hi + (60.0 / math.sqrt(kp.a / kp.b) if kp.b > 0 else 0.0)
    total = 0.0
    segments = [(0.0, lo), (lo, hi)] + ([(hi, cap)] if cap > hi else [])
    for a_, b_ in segments:
        if b_ > a_:
            val, _ = quad(integrand, a_, b_, epsabs=1e-12, epsrel=1e-12, limit=400)
            total += val
    return total


def snapshot_quadratic(snapshot, lam, kp):
    """Brute-force (C, K, w, p) assembly for oracle descent on the objective."""
    bonds = list(snapshot.bonds)
    anchors = []
    for bond in bonds:
        for t in [cf.time for cf in bond.cashflows] + [bond.maturity]:
            if not any(abs(t - x) <= 1e-9 for x in anchors):
                anchors.append(t)
    anchors = sorted(anchors)
    C = np.zeros((len(bonds), len(anchors)))
    for j, bond in enumerate(bonds):
        flows = [(cf.time, cf.amount) for cf in bond.cashflows] + [(bond.maturity, bond.face_value)]
        for t, amt in flows:
            l = min(range(len(anchors)), key=lambda i: abs(anchors[i] - t))
            C[j, l] += amt
    K = kernel_matrix(np.array(anchors), kp)
    prices = np.array([b.market_price for b in bonds])
    m = len(bonds)
    w = np.array([1.0 / (m * (macaulay_duration(b) * b.market_price) ** 2) for b in bonds])
    return np.array(anchors), C, K, w, prices


def objective_and_grad(al, C, K, w, prices, lam):
    resid = prices - C @ (1.0 + K @ al)
    value = float(np.sum(w * resid**2) + lam * al @ K @ al)
    grad = -2.0 * K @ (C.T @ (w * resid)) + 2.0 * lam * K @ al
    return value, grad


def hessian_product(d, C, K, w, lam):
    return 2.0 * (K @ (C.T @ (w * (C @ (K @ d)))) + lam * K @ d)


def first_order_descent(C, K, w, prices, lam, iters, conjugate):
    """Exact-line-search steepest descent, optionally Polak-Ribiere conjugate."""
    al = np.zeros(K.shape[0])
    g_prev = None
    d = None
    for it in range(iters):
        _, g = objective_and_grad(al, C, K, w, prices, lam)
        if conjugate and g_prev is not None and it % K.shape[0] != 0:
            beta = max(0.0, float(g @ (g - g_prev)) / float(g_prev @ g_prev))
            d = -g + beta * d
            if g @ d >= 0:
                d = -g
        else:
            d = -g
        hd = hessian_product(d, C, K, w, lam)
        denom = float(d @ hd)
        if denom <= 0:
            break
        al = al - (float(g @ d) / denom) * d
        g_prev = g
    return al


# ---------------------------------------------------------------------------
# Kernel tests
# ---------------------------------------------------------------------------

class TestKernel:
    def test_symmetry_exact(self):
        assert kr_kernel(2.0, 7.0) == kr_kernel(7.0, 2.0)

    def test_first_derivative_only_is_min(self):
        kp = KernelParams(a=1.0, b=0.0)
        assert kr_kernel(3.0, 5.0, kp) == 3.0
        assert kr_kernel(5.0, 3.0, kp) == 3.0
        assert kr_kernel(4.0, 4.0, KernelParams(a=2.0, b=0.0)) == 2.0

    @pytest.mark.parametrize("kp", [KernelParams(1.0, 1.0), KernelParams(2.0, 0.5), KernelParams(0.5, 2.0)])
    @pytest.mark.parametrize("st_pair", [(2.0, 7.0), (1.0, 1.0), (0.5, 3.0), (9.0, 10.0)])
    def test_reproducing_property_by_quadrature(self, kp, st_pair):
        s, t = st_pair
        ip = inner_product_by_quadrature(s, t, kp)
        assert ip == pytest.approx(kr_kernel(s, t, kp), abs=1e-8)

    def test_min_kernel_reproducing_property(self):
        kp = KernelParams(a=1.0, b=0.0)
        assert inner_product_by_quadrature(2.0, 7.0, kp) == pytest.approx(2.0, abs=1e-10)

    def test_psd_on_random_anchor_sets(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(2, 21))
            ts = np.sort(rng.uniform(0.01, 30.0, size=n))
            ts = ts[np.concatenate(([True], np.diff(ts) > 1e-6))]
            eig = np.linalg.eigvalsh(kernel_matrix(ts))
            worst = min(worst, float(eig.min()))
        assert worst >= -1e-10

    def test_vanishes_at_origin(self):
        assert kr_kernel(5.0, 1e-8) == pytest.approx(0.0, abs=1e-7)

    def test_domain_and_weight_errors(self):
        with pytest.raises(ValueError):
            kr_kernel(-1.0, 2.0)
        with pytest.raises(ValueError):
            kr_kernel(1.0, 0.0)
        with pytest.raises(ValidationError):
            kr_kernel(1.0, 2.0, KernelParams(a=0.0, b=1.0))
        with pytest.raises(ValidationError):
            KernelParams(a=0.0, b=0.0)


# ---------------------------------------------------------------------------
# Fit tests
# ---------------------------------------------------------------------------

class TestFit:
    def test_huge_lambda_flattens_to_unit_discount(self):
        snap = five_bond_snapshot()
        model = fit_kr(snap, lam=1e12)
        ts = np.array([0.25, 1.0, 5.0, 15.0, 30.0])
        assert np.max(np.abs(kr_yield(model, ts))) <= 1e-9
        assert np.max(np.abs(np.array(model.alphas))) <= 1e-12

    def test_tiny_lambda_near_interpolates_single_bond(self):
        price = 100.0 * math.exp(-3.0 * 0.025)
        snap = MarketSnapshot(date="d", bonds=(zc_bond(3.0, price),), benchmark=BENCH)
        model = fit_kr(snap, lam=1e-10)
        fitted_price = 100.0 * kr_discount(model, 3.0)
        assert abs(fitted_price - price) <= 0.1

    def test_objective_matches_conjugate_first_order_oracle(self):
        snap = five_bond_snapshot()
        lam, kp = 1e-2, KernelParams()
        model = fit_kr(snap, lam=lam, kernel_params=kp)
        anchors, C, K, w, prices = snapshot_quadratic(snap, lam, kp)
        assert np.allclose(anchors, np.array(model.anchor_times), atol=1e-12)
        al = first_order_descent(C, K, w, prices, lam, iters=10_000, conjugate=True)
        oracle_obj, _ = objective_and_grad(al, C, K, w, prices, lam)
        assert model.objective == pytest.approx(oracle_obj, rel=1e-8)

    def test_closed_form_not_beaten_by_plain_gradient_descent(self):
        snap = five_bond_snapshot(flat_rate=0.04)
        lam, kp = 1e-3, KernelParams()
        model = fit_kr(snap, lam=lam, kernel_params=kp)
        anchors, C, K, w, prices = snapshot_quadratic(snap, lam, kp)
        al = first_order_descent(C, K, w, prices, lam, iters=10_000, conjugate=False)
        oracle_obj, _ = objective_and_grad(al, C, K, w, prices, lam)
        assert model.objective <= (1.0 + 1e-8) * oracle_obj

    def test_price_error_monotone_in_lambda(self):
        snap = generate_scenario(ScenarioSpec(regime="falling", n_bonds=12, price_noise_sd=0.003, seed=3))
        errors = [fit_kr(snap, lam=lam).price_error for lam in (1e-6, 1e-4, 1e-2, 1.0, 1e2)]
        assert all(b >= a * (1 - 1e-12) for a, b in zip(errors, errors[1:])), errors

    def test_discount_tends_to_one_at_zero(self):
        snap = generate_scenario(ScenarioSpec(regime="rising", n_bonds=10, seed=6))
        model = fit_kr(snap, lam=1e-2)
        assert abs(kr_discount(model, 1e-8) - 1.0) <= 1e-6

    def test_objective_echo_consistent(self):
        snap = five_bond_snapshot()
        model = fit_kr(snap, lam=1e-2)
        assert kr_objective(snap, model) == model.objective

    def test_lambda_must_be_positive(self):
        with pytest.raises(ValidationError):
            fit_kr(five_bond_snapshot(), lam=0.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_lambda_must_be_finite(self, lam):
        with pytest.raises(ValidationError, match="finite"):
            fit_kr(five_bond_snapshot(), lam=lam)

    def test_overflowing_kernel_fails_the_fit(self):
        # sqrt(a / b) = 1e4 overflows sinh at every anchor past 0.071 years
        with pytest.raises(FitFailureError, match="kernel matrix is not finite"), \
                np.errstate(over="ignore", invalid="ignore"):
            fit_kr(five_bond_snapshot(), kernel_params=KernelParams(a=1.0, b=1e-8))

    def test_shared_coupon_dates_deduplicate(self):
        snap = generate_scenario(ScenarioSpec(regime="flat", n_bonds=8, seed=1))
        model = fit_kr(snap, lam=1e-2)
        anchors = np.array(model.anchor_times)
        assert np.all(np.diff(anchors) > 1e-9)


class TestYieldSurface:
    def base_model(self, alphas, anchors=(1.0, 2.0, 5.0)):
        return KrModel(anchor_times=anchors, alphas=alphas, lam=1e-2, kernel_params=KernelParams())

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan])
    def test_model_rejects_lambda_outside_finite_positive(self, lam):
        # a model file or library caller cannot carry a lambda no fit produces
        with pytest.raises(ValidationError, match="lambda must be finite and > 0"):
            KrModel(anchor_times=(1.0,), alphas=(0.0,), lam=lam, kernel_params=KernelParams())

    @pytest.mark.parametrize("anchors, alphas", [
        ((math.nan,), (0.0,)), ((math.inf,), (0.0,)), ((1.0, math.inf), (0.0, 0.0)),
        ((1.0,), (math.nan,)), ((1.0,), (math.inf,)), ((1.0, 2.0), (0.0, -math.inf)),
    ])
    def test_model_rejects_non_finite_anchors_and_alphas(self, anchors, alphas):
        with pytest.raises(ValidationError, match="anchor_times and alphas must be finite"):
            KrModel(anchor_times=anchors, alphas=alphas, lam=1e-2, kernel_params=KernelParams())

    def test_zero_alphas_zero_yield(self):
        model = self.base_model((0.0, 0.0, 0.0))
        for t in (0.1, 1.0, 10.0, 30.0):
            assert kr_yield(model, t) == 0.0
            assert kr_discount(model, t) == 1.0

    def test_negative_discount_raises(self):
        model = self.base_model((-5.0, 0.0, 0.0))
        with pytest.raises(InvalidDiscountError, match=r"^fitted discount is non-positive at t = 5\.0$"):
            kr_yield(model, 5.0)

    def test_negative_discount_on_an_array_names_the_first_tenor_and_the_count(self):
        model = self.base_model((-5.0, 0.0, 0.0))
        ts = np.linspace(0.1, 30.0, 300)
        bad = ts[kr_discount(model, ts) <= 0]
        assert 1 < len(bad) < len(ts)
        message = f"fitted discount is non-positive at {len(bad)} of 300 tenors, the first at t = {float(bad[0])!r}"
        with pytest.raises(InvalidDiscountError) as info:
            kr_yield(model, ts)
        assert str(info.value) == message

    def test_domain_error(self):
        model = self.base_model((0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            kr_yield(model, 0.0)

    def test_solver_recovers_rank_deficiency_with_jitter(self):
        # PSD but singular: the jitter path must produce a finite solution
        out = _solve_spd(np.zeros((3, 3)), np.zeros(3))
        assert np.all(np.isfinite(out))

    def test_solver_reports_indefinite_system(self):
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(SingularSystemError, match="cond"):
            _solve_spd(indefinite, np.ones(2))
