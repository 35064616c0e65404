"""Bit-identity of the packed SGD step in ``neural.train``.

Training is a long chain of small gradient steps, so the trained network
depends on the last bit of every step; a reordered sum or a fused matvec
moves it. The reference below is the direct per-array formulation (one tanh
per forward pass, separate w, b, v arrays rebuilt every step), kept verbatim
as the oracle, and the lean step must reproduce it exactly.
"""

import numpy as np
import pytest

from curvekit import (
    DivergenceError,
    NnParams,
    ScenarioSpec,
    TrainConfig,
    generate_scenario,
    total_loss,
    train,
    yield_to_maturity,
)
from curvekit.market import BenchmarkCurve, MarketSnapshot, sort_bonds
from curvekit.neural import grad_loss_error, grad_loss_smooth, grad_loss_trend, grad_total_loss
from curvekit.pricing import cashflow_schedule


# --- reference: the direct formulation, verbatim -----------------------------

def ref_tenors(grid) -> np.ndarray:
    return np.asarray(getattr(grid, "tenors", grid), dtype=float)


def ref_forward(w, b, v, ts):
    """tanh features and partials at times ts; returns (yhat_without_c, th, sech2)."""
    pre = w[:, None] * ts[None, :] + b[:, None]
    th = np.tanh(pre)
    return v @ th, th, 1.0 - th * th


def ref_bond_arrays(snapshot: MarketSnapshot):
    bonds = sort_bonds(snapshot.bonds)
    return [(b.id,) + cashflow_schedule(b) + (b.market_price,) for b in bonds]


def ref_price_and_grad(w, b, v, c, times, amounts):
    """Present value under the network curve and its parameter gradient."""
    vh, th, sech2 = ref_forward(w, b, v, times)
    y = vh + c
    disc = amounts * np.exp(-times * y)
    price = float(disc.sum())
    coef = -times * disc                      # d price / d y(t_k)
    gw = (v[:, None] * sech2 * times[None, :]) @ coef
    gb = (v[:, None] * sech2) @ coef
    gv = th @ coef
    gc = float(coef.sum())
    return price, (gw, gb, gv, gc)


def ref_grid_state(w, b, v, c, tenors):
    """Curve slopes over the grid and slope gradients per parameter."""
    vh, th, sech2 = ref_forward(w, b, v, tenors)
    y = vh + c
    dt = np.diff(tenors)
    slopes = np.diff(y) / dt
    dy_dw = v[:, None] * sech2 * tenors[None, :]
    dy_db = v[:, None] * sech2
    dy_dv = th
    dsl_w = np.diff(dy_dw, axis=1) / dt
    dsl_b = np.diff(dy_db, axis=1) / dt
    dsl_v = np.diff(dy_dv, axis=1) / dt
    return slopes, dsl_w, dsl_b, dsl_v


def ref_smooth_from_state(slopes, dsl_w, dsl_b, dsl_v):
    i = int(np.argmax(np.abs(slopes)))       # first max wins on ties
    s = float(np.sign(slopes[i]))
    value = float(abs(slopes[i]))
    return value, (s * dsl_w[:, i], s * dsl_b[:, i], s * dsl_v[:, i], 0.0)


def ref_trend_from_state(slopes, bench_slopes, n_grid, dsl_w, dsl_b, dsl_v):
    e = slopes - bench_slopes
    value = float(np.sum(np.abs(e)) / n_grid)
    sg = np.sign(e) / n_grid
    return value, (dsl_w @ sg, dsl_b @ sg, dsl_v @ sg, 0.0)


def ref_benchmark_slopes(benchmark: BenchmarkCurve, tenors: np.ndarray) -> np.ndarray:
    rates = np.array([benchmark.yield_at(float(t)) for t in tenors])
    return np.diff(rates) / np.diff(tenors)


def ref_grad_loss_error(params, snapshot):
    w, b, v, c = np.array(params.w), np.array(params.b), np.array(params.v), params.c
    m = len(snapshot.bonds)
    total = 0.0
    gw = np.zeros_like(w); gb = np.zeros_like(w); gv = np.zeros_like(w); gc = 0.0
    for _bid, times, amounts, price in ref_bond_arrays(snapshot):
        phat, (pw, pb, pv, pc) = ref_price_and_grad(w, b, v, c, times, amounts)
        err = phat - price
        total += err**2
        gw += 2.0 * err * pw
        gb += 2.0 * err * pb
        gv += 2.0 * err * pv
        gc += 2.0 * err * pc
    return total / m, (gw / m, gb / m, gv / m, gc / m)


def ref_grad_loss_smooth(params, grid):
    tenors = ref_tenors(grid)
    w, b, v, c = np.array(params.w), np.array(params.b), np.array(params.v), params.c
    state = ref_grid_state(w, b, v, c, tenors)
    return ref_smooth_from_state(*state)


def ref_grad_loss_trend(params, benchmark, grid):
    tenors = ref_tenors(grid)
    w, b, v, c = np.array(params.w), np.array(params.b), np.array(params.v), params.c
    slopes, dsl_w, dsl_b, dsl_v = ref_grid_state(w, b, v, c, tenors)
    return ref_trend_from_state(slopes, ref_benchmark_slopes(benchmark, tenors), len(tenors), dsl_w, dsl_b, dsl_v)


def ref_grad_total_loss(params, snapshot, config):
    e, ge = ref_grad_loss_error(params, snapshot)
    s, gs = ref_grad_loss_smooth(params, config.grid)
    t, gt = ref_grad_loss_trend(params, snapshot.benchmark, config.grid)
    value = e + config.gamma1 * s + config.gamma2 * t
    grads = tuple(
        np.asarray(a) + config.gamma1 * np.asarray(bb) + config.gamma2 * np.asarray(cc)
        for a, bb, cc in zip(ge, gs, gt)
    )
    return value, grads


def ref_train(snapshot, config):
    bonds = ref_bond_arrays(snapshot)
    tenors = ref_tenors(config.grid)
    bench_slopes = ref_benchmark_slopes(snapshot.benchmark, tenors)
    n_grid = len(tenors)
    per_bond_reg = config.regularizer == "per_bond"
    use_reg = config.gamma1 > 0 or config.gamma2 > 0

    maturities = [b.maturity for b in snapshot.bonds]
    span = max(max(maturities) - min(maturities), 1.0)
    rng = np.random.default_rng(config.seed)
    h = config.hidden_count
    w = rng.normal(0.0, config.init_scale / span, h)
    b = rng.normal(0.0, config.init_scale, h)
    v = rng.normal(0.0, config.init_scale, h)
    c = float(np.mean([yield_to_maturity(bond) for bond in snapshot.bonds]))

    lr = config.learning_rate
    for epoch in range(config.epochs):
        for j, (bond_id, times, amounts, price) in enumerate(bonds):
            phat, (pw, pb, pv, pc) = ref_price_and_grad(w, b, v, c, times, amounts)
            err = phat - price
            step_loss = err**2
            gw = 2.0 * err * pw
            gb = 2.0 * err * pb
            gv = 2.0 * err * pv
            gc = 2.0 * err * pc
            if use_reg and per_bond_reg:
                state = ref_grid_state(w, b, v, c, tenors)
                if config.gamma1 > 0:
                    s_val, (sw, sb, sv, _) = ref_smooth_from_state(*state)
                    step_loss += config.gamma1 * s_val
                    gw += config.gamma1 * sw
                    gb += config.gamma1 * sb
                    gv += config.gamma1 * sv
                if config.gamma2 > 0:
                    t_val, (tw, tb, tv, _) = ref_trend_from_state(state[0], bench_slopes, n_grid, *state[1:])
                    step_loss += config.gamma2 * t_val
                    gw += config.gamma2 * tw
                    gb += config.gamma2 * tb
                    gv += config.gamma2 * tv
            if not np.isfinite(step_loss):
                raise DivergenceError(
                    f"training diverged: non-finite loss at epoch {epoch}, bond {bond_id}",
                    epoch=epoch, bond_index=j,
                )
            w = w - lr * gw
            b = b - lr * gb
            v = v - lr * gv
            c = c - lr * gc
        if use_reg and not per_bond_reg:
            state = ref_grid_state(w, b, v, c, tenors)
            s_val, (sw, sb, sv, _) = ref_smooth_from_state(*state)
            t_val, (tw, tb, tv, _) = ref_trend_from_state(state[0], bench_slopes, n_grid, *state[1:])
            reg_loss = config.gamma1 * s_val + config.gamma2 * t_val
            if not np.isfinite(reg_loss):
                raise DivergenceError(
                    f"training diverged: non-finite penalty after epoch {epoch}",
                    epoch=epoch, bond_index=len(bonds) - 1,
                )
            w = w - lr * (config.gamma1 * sw + config.gamma2 * tw)
            b = b - lr * (config.gamma1 * sb + config.gamma2 * tb)
            v = v - lr * (config.gamma1 * sv + config.gamma2 * tv)

    params = NnParams(w=tuple(w), b=tuple(b), v=tuple(v), c=float(c))
    final = ref_grad_total_loss(params, snapshot, config)[0]
    if not np.isfinite(final):
        raise DivergenceError(
            f"training diverged: non-finite total loss after epoch {config.epochs - 1}",
            epoch=config.epochs - 1, bond_index=len(bonds) - 1,
        )
    return params


# --- fixtures ----------------------------------------------------------------

# 15-bond days over 0.1-15 y, so each holds bonds with one to three cashflows
DAYS = {
    regime: generate_scenario(ScenarioSpec(regime=regime, n_bonds=15, price_noise_sd=0.002, seed=seed))
    for regime, seed in (("rising", 31), ("flat", 32), ("falling", 33))
}
WIDE = generate_scenario(ScenarioSpec(regime="falling", n_bonds=60, price_noise_sd=0.002, seed=24))
DESK_DAY = ScenarioSpec(regime="falling", n_bonds=30, price_noise_sd=0.002, seed=99)

GAMMAS = [(0.0, 0.0), (1e3, 0.0), (0.0, 1e4), (1e3, 1e4)]
MATRIX = [
    (regularizer, g1, g2, h, lr)
    for regularizer in ("per_bond", "per_epoch")
    for g1, g2 in GAMMAS
    if regularizer == "per_bond" or g1 > 0 or g2 > 0    # per_epoch without penalties is per_bond
    for h in (1, 3, 5)
    for lr in (1e-8, 1e-7)
]


def hexed(params: NnParams) -> dict:
    return {
        "w": [x.hex() for x in params.w],
        "b": [x.hex() for x in params.b],
        "v": [x.hex() for x in params.v],
        "c": params.c.hex(),
    }


def assert_same_grad(new, ref):
    value, grads = new
    ref_value, ref_grads = ref
    assert value == ref_value
    assert len(grads) == len(ref_grads) == 4
    for a, b in zip(grads, ref_grads):
        assert np.shape(a) == np.shape(b)
        assert np.all(np.asarray(a) == np.asarray(b)), (a, b)


def random_params(rng, h):
    return NnParams(
        w=tuple(rng.normal(0, 0.05, h)),
        b=tuple(rng.normal(0, 0.3, h)),
        v=tuple(rng.normal(0, 0.3, h)),
        c=float(rng.uniform(0.01, 0.05)),
    )


# --- tests -------------------------------------------------------------------

class TestTrainOracle:
    def test_days_hold_short_bonds(self):
        # H >= 4 with one to three cashflows is where a sliced matvec rounds differently
        for snap in DAYS.values():
            assert min(len(cashflow_schedule(b)[0]) for b in snap.bonds) <= 3

    @pytest.mark.parametrize("regularizer,g1,g2,h,lr", MATRIX)
    def test_training_is_bit_identical(self, regularizer, g1, g2, h, lr):
        snap = list(DAYS.values())[MATRIX.index((regularizer, g1, g2, h, lr)) % len(DAYS)]
        config = TrainConfig(learning_rate=lr, epochs=12, gamma1=g1, gamma2=g2, seed=h,
                             hidden_count=h, regularizer=regularizer)
        assert hexed(train(snap, config)) == hexed(ref_train(snap, config))

    @pytest.mark.parametrize("regularizer,g2", [("per_bond", 1e4), ("per_epoch", 0.0)])
    def test_sixty_bond_training_is_bit_identical(self, regularizer, g2):
        config = TrainConfig(epochs=6, gamma2=g2, seed=5, regularizer=regularizer)
        assert hexed(train(WIDE, config)) == hexed(ref_train(WIDE, config))

    @pytest.mark.parametrize("knobs", [
        dict(learning_rate=1e-4, gamma1=0.0, gamma2=0.0),               # a step loss, no penalties
        dict(learning_rate=1e-5),                                       # a step loss, both penalties
        dict(learning_rate=1e-4, regularizer="per_epoch"),              # a step loss mid-epoch
        dict(learning_rate=1e-2, gamma1=1e200, regularizer="per_epoch"),  # the per-epoch penalty
    ])
    def test_divergence_matches_reference(self, knobs):
        snap = DAYS["falling"]
        config = TrainConfig(epochs=30, seed=0, **knobs)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as new:
                train(snap, config)
            with pytest.raises(DivergenceError) as ref:
                ref_train(snap, config)
        assert str(new.value) == str(ref.value)
        assert (new.value.epoch, new.value.bond_index) == (ref.value.epoch, ref.value.bond_index)

    @pytest.mark.parametrize("h", [1, 3, 5])
    def test_gradients_equal_reference(self, h):
        rng = np.random.default_rng(70 + h)
        config = TrainConfig()
        for snap in [*DAYS.values(), WIDE]:
            for _ in range(3):
                p = random_params(rng, h)
                assert_same_grad(grad_loss_error(p, snap), ref_grad_loss_error(p, snap))
                assert_same_grad(grad_loss_smooth(p, config.grid), ref_grad_loss_smooth(p, config.grid))
                assert_same_grad(grad_loss_trend(p, snap.benchmark, config.grid),
                                 ref_grad_loss_trend(p, snap.benchmark, config.grid))
                assert_same_grad(grad_total_loss(p, snap, config), ref_grad_total_loss(p, snap, config))


class TestGolden:
    def test_desk_day_default_fit_is_bit_identical(self):
        # float.hex of the default fit recorded from the direct formulation
        # (1000 epochs x 30 bonds of per-bond penalised steps)
        snap = generate_scenario(DESK_DAY)
        params = train(snap, TrainConfig())
        assert hexed(params) == {
            "w": ["0x1.545bccd8019f7p-12", "-0x1.6a1eb7d9b7528p-9", "0x1.247ba0f7c118dp-7"],
            "b": ["0x1.797a87e945183p-7", "-0x1.b0e2ad0968b78p-5", "0x1.2490b46f75b8ap-5"],
            "v": ["0x1.0b3339bb36bddp-3", "0x1.823582c91d0a9p-4", "-0x1.1fb1eb33d9fdcp-4"],
            "c": "0x1.9d99c0caae594p-5",
        }
        assert total_loss(params, snap, TrainConfig()).hex() == "0x1.d4270ad88036ap+3"
