"""Svensson curve identities and price-based fit recovery."""

import numpy as np
import pytest
from scipy.integrate import quad

from curvekit import (
    Bond,
    MarketSnapshot,
    NssCurve,
    NssFitConfig,
    NssParams,
    ScenarioSpec,
    ValidationError,
    fit_nss,
    generate_scenario,
    nss_forward,
    nss_yield,
    present_value,
)
from curvekit.evaluation import DEFAULT_TENORS
from curvekit.nss import _decay_ratio

TRUE = NssParams(beta0=0.035, beta1=-0.018, beta2=0.025, beta3=0.018, lambda1=1.6, lambda2=7.5)


def random_params(rng):
    return NssParams(
        beta0=rng.uniform(0.005, 0.08),
        beta1=rng.uniform(-0.04, 0.04),
        beta2=rng.uniform(-0.05, 0.05),
        beta3=rng.uniform(-0.05, 0.05),
        lambda1=rng.uniform(0.3, 4.0),
        lambda2=rng.uniform(3.0, 15.0),
    )


def nss_priced_snapshot(params, n_bonds=60, seed=42):
    """Coupon bonds priced exactly off an NSS curve, no noise."""
    base = generate_scenario(
        ScenarioSpec(regime="flat", n_bonds=n_bonds, maturity_range=(0.08, 15.0), seed=seed)
    )
    curve = NssCurve(params)
    bonds = tuple(
        Bond(b.id, b.cashflows, b.face_value, b.maturity, present_value(curve, b))
        for b in base.bonds
    )
    return MarketSnapshot(date="nss-day", bonds=bonds, benchmark=base.benchmark)


class TestEvaluation:
    def test_constant_curve(self):
        p = NssParams(beta0=0.03, beta1=0.0, beta2=0.0, beta3=0.0, lambda1=1.0, lambda2=5.0)
        for t in (0.01, 1.0, 10.0, 30.0):
            assert nss_yield(p, t) == pytest.approx(0.03, abs=1e-15)

    def test_short_end_limit(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = random_params(rng)
            assert abs(nss_yield(p, 1e-8) - (p.beta0 + p.beta1)) <= 1e-6

    def test_long_end_limit(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = random_params(rng)
            assert abs(nss_yield(p, 1e6) - p.beta0) <= 1e-4

    def test_zero_requires_opt_in(self):
        with pytest.raises(ValueError):
            nss_yield(TRUE, 0.0)
        assert nss_yield(TRUE, 0.0, limit_at_zero=True) == TRUE.beta0 + TRUE.beta1
        with pytest.raises(ValueError):
            nss_yield(TRUE, -1.0, limit_at_zero=True)
        for nan in (float("nan"), [1.0, float("nan")]):
            for limit_at_zero in (False, True):
                with pytest.raises(ValueError):
                    nss_yield(TRUE, nan, limit_at_zero=limit_at_zero)
            with pytest.raises(ValueError):
                nss_forward(TRUE, nan)

    def test_forward_limits(self):
        assert nss_forward(TRUE, 0.0) == pytest.approx(TRUE.beta0 + TRUE.beta1, abs=1e-15)
        assert nss_forward(TRUE, 1e5) == pytest.approx(TRUE.beta0, abs=1e-12)

    def test_yield_is_average_of_forward(self):
        # quadrature oracle: y(t) must equal (1/t) * int_0^t f(tau) dtau
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_params(rng)
            for t in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
                integral, _ = quad(lambda u: nss_forward(p, u), 0.0, t, epsabs=1e-13, epsrel=1e-13, limit=200)
                assert nss_yield(p, t) == pytest.approx(integral / t, abs=1e-8)

    def test_forward_equals_yield_plus_t_dy(self):
        rng = np.random.default_rng(8)
        h = 1e-5
        for _ in range(10):
            p = random_params(rng)
            for t in (0.5, 2.0, 8.0, 20.0):
                dy = (nss_yield(p, t + h) - nss_yield(p, t - h)) / (2 * h)
                assert nss_yield(p, t) + t * dy == pytest.approx(nss_forward(p, t), abs=1e-6)

    def test_decay_ratio_continuous_at_series_switch(self):
        below = _decay_ratio(np.array([1e-4 * (1 - 1e-9)]))[0]
        above = _decay_ratio(np.array([1e-4 * (1 + 1e-9)]))[0]
        assert below == pytest.approx(above, rel=1e-12)

    def test_params_validation(self):
        with pytest.raises(ValidationError):
            NssParams(beta0=0.03, beta1=0.0, beta2=0.0, beta3=0.0, lambda1=-1.0, lambda2=5.0)
        with pytest.raises(ValidationError):
            NssParams(beta0=-0.2, beta1=0.0, beta2=0.0, beta3=0.0, lambda1=1.0, lambda2=5.0)
        finite = dict(beta0=0.03, beta1=0.0, beta2=0.0, beta3=0.0, lambda1=1.0, lambda2=5.0)
        for field in finite:
            for value in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValidationError, match="NSS parameters must be finite"):
                    NssParams(**{**finite, field: value})


class TestFit:
    def test_self_recovery_within_half_bp(self):
        snap = nss_priced_snapshot(TRUE)
        fitted = fit_nss(snap, NssFitConfig(seed=0))
        grid = np.array(DEFAULT_TENORS)
        err = np.abs(nss_yield(fitted, grid) - nss_yield(TRUE, grid))
        assert err.max() <= 0.5e-4, f"max grid error {err.max() * 1e4:.4f} bp"

    @pytest.mark.parametrize("field", ["starts", "max_iter"])
    @pytest.mark.parametrize("value", [50.5, 2.0, True, "3"])
    def test_config_counts_are_integers(self, field, value):
        # a float count used to end in a TypeError inside fit_nss, or in an iteration cap of 50.5
        with pytest.raises(ValidationError, match=f"^{field} must be an integer >= 1, got "):
            NssFitConfig(**{field: value})
        assert getattr(NssFitConfig(**{field: np.int64(2)}), field).__class__ is int

    def test_requires_six_bonds(self):
        snap = generate_scenario(ScenarioSpec(regime="flat", n_bonds=5, seed=1))
        with pytest.raises(ValidationError, match="6 bonds"):
            fit_nss(snap)

    def test_deterministic_given_seed(self):
        snap = generate_scenario(ScenarioSpec(regime="falling", n_bonds=12, price_noise_sd=0.002, seed=2))
        a = fit_nss(snap, NssFitConfig(seed=5))
        b = fit_nss(snap, NssFitConfig(seed=5))
        assert a == b

    def test_extra_starts_beyond_base_grid(self):
        snap = nss_priced_snapshot(TRUE, n_bonds=20, seed=9)
        fitted = fit_nss(snap, NssFitConfig(starts=10, seed=3))
        grid = np.array([0.5, 2.0, 10.0])
        assert np.max(np.abs(nss_yield(fitted, grid) - nss_yield(TRUE, grid))) < 5e-4

    def test_fitted_lambdas_inside_box(self):
        snap = generate_scenario(ScenarioSpec(regime="rising", n_bonds=15, price_noise_sd=0.001, seed=4))
        fitted = fit_nss(snap)
        assert 0.05 <= fitted.lambda1 <= 30.0
        assert 0.05 <= fitted.lambda2 <= 30.0
