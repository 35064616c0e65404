"""Network evaluation, loss components, gradient checks, and training."""

import math
import pickle

import numpy as np
import pytest

from curvekit import (
    BenchmarkCurve,
    Bond,
    Cashflow,
    DivergenceError,
    MarketSnapshot,
    NoSolutionError,
    NnCurve,
    NnParams,
    ScenarioSpec,
    TrainConfig,
    ValidationError,
    generate_scenario,
    loss_error,
    loss_smooth,
    loss_trend,
    nn_from_dict,
    nn_to_dict,
    nn_yield,
    present_value,
    total_loss,
    train,
    yield_to_maturity,
)
from curvekit.evaluation import DEFAULT_TENORS
from curvekit.neural import grad_loss_error, grad_loss_smooth, grad_loss_trend, grad_total_loss

BENCH = BenchmarkCurve(tenors=(0.5, 2.0, 10.0), rates=(0.02, 0.025, 0.03))


def random_nn(rng, h=3):
    return NnParams(
        w=tuple(rng.normal(0, 0.05, h)),
        b=tuple(rng.normal(0, 0.3, h)),
        v=tuple(rng.normal(0, 0.3, h)),
        c=float(rng.uniform(0.01, 0.05)),
    )


def flatten(params):
    return np.array(list(params.w) + list(params.b) + list(params.v) + [params.c])


def unflatten(x, h):
    return NnParams(w=tuple(x[:h]), b=tuple(x[h:2 * h]), v=tuple(x[2 * h:3 * h]), c=float(x[3 * h]))


def grads_to_vector(grads):
    gw, gb, gv, gc = grads
    return np.concatenate([np.asarray(gw), np.asarray(gb), np.asarray(gv), [gc]])


def fd_gradient(fn, params, eps=1e-6):
    x0 = flatten(params)
    h = params.hidden_count
    out = np.empty_like(x0)
    for i in range(len(x0)):
        xp, xm = x0.copy(), x0.copy()
        xp[i] += eps
        xm[i] -= eps
        out[i] = (fn(unflatten(xp, h)) - fn(unflatten(xm, h))) / (2 * eps)
    return out


def assert_gradients_close(analytic, numeric, rel=1e-4, floor=1e-8):
    for a, n in zip(analytic, numeric):
        assert abs(a - n) <= max(rel * max(abs(a), abs(n)), floor), f"{a} vs {n}"


def self_priced_snapshot(params, seed=0, n_bonds=5):
    base = generate_scenario(ScenarioSpec(regime="flat", n_bonds=n_bonds, seed=seed))
    curve = NnCurve(params)
    bonds = tuple(
        Bond(b.id, b.cashflows, b.face_value, b.maturity, present_value(curve, b))
        for b in base.bonds
    )
    return MarketSnapshot(date="self", bonds=bonds, benchmark=base.benchmark)


class TestEvaluation:
    def test_constant_output(self):
        p = NnParams(w=(0.1, -0.2, 0.3), b=(0.0, 0.5, -0.5), v=(0.0, 0.0, 0.0), c=0.025)
        for t in (0.0, 1.0, 17.3):
            assert nn_yield(p, t) == 0.025

    def test_tanh_zero(self):
        p = NnParams(w=(0.0,), b=(0.0,), v=(1.0,), c=0.0)
        assert nn_yield(p, 5.0) == 0.0

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = random_nn(rng)
            t = float(rng.uniform(0.1, 20))
            expected = sum(
                v * math.tanh(w * t + b) for w, b, v in zip(p.w, p.b, p.v)
            ) + p.c
            assert nn_yield(p, t) == pytest.approx(expected, rel=1e-14)

    def test_vectorized_matches_scalar(self):
        p = random_nn(np.random.default_rng(5))
        ts = np.array([0.5, 1.0, 7.0])
        vec = nn_yield(p, ts)
        assert vec == pytest.approx([nn_yield(p, float(t)) for t in ts], rel=1e-15)

    def test_params_validation(self):
        with pytest.raises(ValidationError):
            NnParams(w=(), b=(), v=(), c=0.0)
        with pytest.raises(ValidationError):
            NnParams(w=(1.0,), b=(1.0, 2.0), v=(1.0,), c=0.0)
        with pytest.raises(ValidationError):
            NnParams(w=(float("nan"),), b=(0.0,), v=(1.0,), c=0.0)


class TestLossComponents:
    def test_error_zero_when_self_priced(self):
        params = random_nn(np.random.default_rng(2))
        snap = self_priced_snapshot(params)
        assert loss_error(params, snap) <= 1e-18

    def test_error_single_bond_off_by_two(self):
        params = NnParams(w=(0.0,), b=(0.0,), v=(0.0,), c=0.03)
        bond = Bond(id="B", cashflows=(), face_value=100.0, maturity=2.0,
                    market_price=100.0 * math.exp(-0.06) + 2.0)
        snap = MarketSnapshot(date="d", bonds=(bond,), benchmark=BENCH)
        assert loss_error(params, snap) == pytest.approx(4.0, rel=1e-10)

    def test_error_counts_prices_per_100_of_face(self):
        params = NnParams(w=(0.0,), b=(0.0,), v=(0.0,), c=0.03)
        bond = Bond(id="B", cashflows=(), face_value=1000.0, maturity=2.0,
                    market_price=1000.0 * math.exp(-0.06) + 20.0)
        snap = MarketSnapshot(date="d", bonds=(bond,), benchmark=BENCH)
        assert loss_error(params, snap) == pytest.approx(4.0, rel=1e-10)

    def test_error_matches_brute_force(self):
        params = random_nn(np.random.default_rng(3))
        snap = generate_scenario(ScenarioSpec(regime="falling", n_bonds=3, price_noise_sd=0.01, seed=4))
        curve = NnCurve(params)
        expected = np.mean([(b.market_price - present_value(curve, b)) ** 2 for b in snap.bonds])
        assert loss_error(params, snap) == pytest.approx(expected, rel=1e-12)

    def test_smooth_constant_network_is_zero(self):
        params = NnParams(w=(0.3,), b=(0.1,), v=(0.0,), c=0.04)
        assert loss_smooth(params, DEFAULT_TENORS) == 0.0

    def test_smooth_linear_network(self):
        # y ~ 0.01 t for tiny input weight: max slope over {1..10} is ~0.01
        params = NnParams(w=(1e-4,), b=(0.0,), v=(100.0,), c=0.0)
        assert loss_smooth(params, tuple(range(1, 11))) == pytest.approx(0.01, abs=1e-6)

    def test_smooth_matches_pair_scan(self):
        params = random_nn(np.random.default_rng(6))
        grid = np.array(DEFAULT_TENORS)
        ys = nn_yield(params, grid)
        expected = max(
            abs((ys[i] - ys[i - 1]) / (grid[i] - grid[i - 1])) for i in range(1, len(grid))
        )
        assert loss_smooth(params, DEFAULT_TENORS) == pytest.approx(expected, rel=1e-12)

    def test_trend_zero_for_constant_spread_over_benchmark(self):
        params = random_nn(np.random.default_rng(7))
        grid = DEFAULT_TENORS
        rates = tuple(float(nn_yield(params, t)) - 0.004 for t in grid)
        bench = BenchmarkCurve(tenors=grid, rates=rates)
        assert loss_trend(params, bench, grid) <= 1e-15

    def test_trend_zero_flat_vs_flat(self):
        params = NnParams(w=(0.2,), b=(0.0,), v=(0.0,), c=0.05)
        bench = BenchmarkCurve(tenors=(1.0, 10.0), rates=(0.02, 0.02))
        assert loss_trend(params, bench, DEFAULT_TENORS) == 0.0

    def test_trend_matches_brute_force(self):
        params = random_nn(np.random.default_rng(8))
        snap = generate_scenario(ScenarioSpec(regime="rising", n_bonds=3, seed=9))
        grid = np.array(DEFAULT_TENORS)
        n = len(grid)
        ys = nn_yield(params, grid)
        bench = np.array([snap.benchmark.yield_at(float(t)) for t in grid])
        total = sum(
            abs(((ys[i] - ys[i - 1]) - (bench[i] - bench[i - 1])) / (grid[i] - grid[i - 1]))
            for i in range(1, n)
        )
        # the sum of N-1 slope gaps is divided by N, not N-1
        assert loss_trend(params, snap.benchmark, DEFAULT_TENORS) == pytest.approx(total / n, rel=1e-12)

    def test_total_is_weighted_sum(self):
        params = random_nn(np.random.default_rng(10))
        snap = generate_scenario(ScenarioSpec(regime="falling", n_bonds=4, seed=11))
        config = TrainConfig(gamma1=1e3, gamma2=1e4)
        expected = (
            loss_error(params, snap)
            + 1e3 * loss_smooth(params, config.grid)
            + 1e4 * loss_trend(params, snap.benchmark, config.grid)
        )
        assert total_loss(params, snap, config) == pytest.approx(expected, rel=1e-12)

    def test_total_reduces_to_error_without_penalties(self):
        params = random_nn(np.random.default_rng(12))
        snap = generate_scenario(ScenarioSpec(regime="flat", n_bonds=4, seed=13))
        config = TrainConfig(gamma1=0.0, gamma2=0.0)
        assert total_loss(params, snap, config) == pytest.approx(loss_error(params, snap), rel=1e-14)


class TestGradients:
    def test_backprop_matches_finite_differences(self):
        rng = np.random.default_rng(2024)
        config = TrainConfig()
        for case in range(20):
            params = random_nn(rng)
            snap = generate_scenario(
                ScenarioSpec(regime=("flat", "rising", "falling")[case % 3],
                             n_bonds=6, price_noise_sd=0.005, seed=100 + case)
            )
            checks = [
                (lambda p: loss_error(p, snap), lambda p: grad_loss_error(p, snap)),
                (lambda p: loss_smooth(p, config.grid), lambda p: grad_loss_smooth(p, config.grid)),
                (lambda p: loss_trend(p, snap.benchmark, config.grid),
                 lambda p: grad_loss_trend(p, snap.benchmark, config.grid)),
                (lambda p: total_loss(p, snap, config), lambda p: grad_total_loss(p, snap, config)),
            ]
            for value_fn, grad_fn in checks:
                _, grads = grad_fn(params)
                analytic = grads_to_vector(grads)
                numeric = fd_gradient(value_fn, params)
                assert_gradients_close(analytic, numeric)

    def test_smooth_gradient_ignores_level_shift(self):
        params = random_nn(np.random.default_rng(40))
        _, (gw, gb, gv, gc) = grad_loss_smooth(params, DEFAULT_TENORS)
        assert gc == 0.0


class TestTraining:
    def test_single_zero_coupon_bond_reaches_its_yield(self):
        bond = Bond(id="Z", cashflows=(), face_value=100.0, maturity=2.0,
                    market_price=100.0 * math.exp(-2.0 * 0.028))
        snap = MarketSnapshot(date="d", bonds=(bond,), benchmark=BENCH)
        config = TrainConfig(learning_rate=1e-6, epochs=5000, gamma1=0.0, gamma2=0.0, seed=1)
        params = train(snap, config)
        fitted = nn_yield(params, 2.0)
        assert abs(fitted - yield_to_maturity(bond)) <= 5e-4

    def test_deterministic_bit_identical(self):
        snap = generate_scenario(ScenarioSpec(regime="falling", n_bonds=8, seed=21))
        config = TrainConfig(epochs=40, seed=9)
        a = train(snap, config)
        b = train(snap, config)
        assert a == b

    def test_seed_changes_trajectory(self):
        snap = generate_scenario(ScenarioSpec(regime="falling", n_bonds=8, seed=21))
        a = train(snap, TrainConfig(epochs=40, seed=1))
        b = train(snap, TrainConfig(epochs=40, seed=2))
        assert a != b

    def test_divergence_raises_with_location(self):
        # a learning rate ~4 orders too large makes the level oscillate and blow up
        snap = generate_scenario(ScenarioSpec(regime="falling", n_bonds=8, seed=21))
        config = TrainConfig(learning_rate=1e-4, epochs=50, gamma1=0.0, gamma2=0.0, seed=0)
        with pytest.raises(DivergenceError, match="epoch") as err:
            train(snap, config)
        assert err.value.epoch >= 0
        assert 0 <= err.value.bond_index < len(snap.bonds)

    def test_amounts_past_float_range_per_100_of_face_fail_as_a_fit(self):
        # per 100 of face, a face of 1e-300 takes coupons of 1e10 past float's range: no numpy warning
        snap = generate_scenario(ScenarioSpec(regime="falling", n_bonds=6, seed=3))
        bonds = [b if j != 2 else Bond(b.id, tuple(Cashflow(cf.time, 1e10) for cf in b.cashflows), 1e-300,
                                       b.maturity, b.market_price)
                 for j, b in enumerate(snap.bonds)]
        with pytest.raises(NoSolutionError, match="outside attainable range"):
            train(MarketSnapshot(snap.date, bonds, snap.benchmark), TrainConfig(epochs=2))

    def test_divergence_survives_pickling(self):
        # a replicate fitted in a worker process sends its error back pickled
        err = pickle.loads(pickle.dumps(DivergenceError("training diverged: x", 3, 7)))
        assert (type(err), str(err), err.epoch, err.bond_index) == (DivergenceError, "training diverged: x", 3, 7)

    def test_per_epoch_regularizer_mode(self):
        snap = generate_scenario(ScenarioSpec(regime="falling", n_bonds=8, seed=22))
        per_bond = train(snap, TrainConfig(epochs=30, seed=4, regularizer="per_bond"))
        per_epoch = train(snap, TrainConfig(epochs=30, seed=4, regularizer="per_epoch"))
        assert per_bond != per_epoch

    def test_defaults_complete_on_small_market(self):
        snap = generate_scenario(ScenarioSpec(regime="falling", n_bonds=8, price_noise_sd=0.002, seed=23))
        config = TrainConfig(epochs=100)
        params = train(snap, config)
        assert np.isfinite(total_loss(params, snap, config))

    def test_tuned_defaults_scale_sanity_on_sixty_bonds(self):
        # full default protocol (LR 1e-8, 1000 epochs) must not diverge at face-100 scale
        snap = generate_scenario(ScenarioSpec(regime="falling", n_bonds=60, price_noise_sd=0.002, seed=24))
        config = TrainConfig()
        params = train(snap, config)
        assert np.isfinite(total_loss(params, snap, config))

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValidationError):
            TrainConfig(epochs=0)
        with pytest.raises(ValidationError):
            TrainConfig(gamma1=-1.0)
        with pytest.raises(ValidationError):
            TrainConfig(grid=(2.0, 1.0))
        with pytest.raises(ValidationError):
            TrainConfig(regularizer="sometimes")

    @pytest.mark.parametrize("field", ["epochs", "hidden_count"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "3"])
    def test_config_counts_are_integers(self, field, value):
        # a float or a bool count used to pass here and end in a TypeError inside train
        with pytest.raises(ValidationError, match=f"^{field} must be an integer >= 1, got "):
            TrainConfig(**{field: value})
        assert getattr(TrainConfig(**{field: np.int64(2)}), field).__class__ is int

    @pytest.mark.parametrize("checkpoints", [[0], [4], [2, 4], [2.0], [True]])
    def test_checkpoints_are_epoch_counts_the_training_reaches(self, checkpoints):
        snap = generate_scenario(ScenarioSpec(regime="falling", n_bonds=6, seed=3))
        with pytest.raises(ValidationError, match="^checkpoint"):
            train(snap, TrainConfig(epochs=3), checkpoints=checkpoints)

    @pytest.mark.parametrize("grid,message", [
        ((), "at least 2 tenors"),
        ((5.0,), "at least 2 tenors"),
        ((0.0, 1.0), "finite, strictly increasing and > 0"),
        ((-1.0, 1.0), "finite, strictly increasing and > 0"),
        ((1.0, math.inf), "finite, strictly increasing and > 0"),
        ((1.0, math.nan), "finite, strictly increasing and > 0"),
        ((1.0, 1.0), "finite, strictly increasing and > 0"),
    ])
    def test_config_rejects_bad_grid(self, grid, message):
        with pytest.raises(ValidationError, match=message):
            TrainConfig(grid=grid)

    @pytest.mark.parametrize("grid", [(), (5.0,)])
    def test_train_with_short_grid_raises_typed_error(self, grid):
        snap = generate_scenario(ScenarioSpec(regime="flat", n_bonds=4, seed=2))
        with pytest.raises(ValidationError, match="at least 2 tenors"):
            train(snap, TrainConfig(epochs=1, grid=grid))

    @pytest.mark.parametrize("knob", ["learning_rate", "gamma1", "gamma2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_config_rejects_non_finite_knobs(self, knob, value):
        with pytest.raises(ValidationError, match="finite"):
            TrainConfig(**{knob: value})

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    def test_config_rejects_negative_or_non_finite_init_scale(self, value):
        with pytest.raises(ValidationError, match="init_scale must be finite and >= 0"):
            TrainConfig(init_scale=value)

    def test_zero_init_scale_of_either_sign_trains(self):
        # numpy's normal rejects a scale of -0.0; the config stores +0.0
        snap = generate_scenario(ScenarioSpec(regime="flat", n_bonds=6, seed=2))
        params = [train(snap, TrainConfig(epochs=1, init_scale=scale)) for scale in (0.0, -0.0)]
        assert params[0] == params[1]


class TestSerialization:
    def test_round_trip_exact(self):
        params = random_nn(np.random.default_rng(50))
        config = TrainConfig(epochs=7, seed=3)
        data = nn_to_dict(params, config)
        assert data["H"] == 3
        assert data["config_echo"]["epochs"] == 7
        import json

        assert nn_from_dict(json.loads(json.dumps(data))) == params

    def test_h_mismatch_rejected(self):
        params = random_nn(np.random.default_rng(51))
        data = nn_to_dict(params)
        data["H"] = 5
        with pytest.raises(ValidationError):
            nn_from_dict(data)
