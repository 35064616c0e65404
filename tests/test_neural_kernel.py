"""Trained networks against a recorded golden, and each step kind's gradient.

``train`` takes one step per bond visit on the packed weights
``[w | b | v | c]``: one forward pass over the bond's cashflow times and the
penalty grid (a matmul for the hidden units, a matvec for the curve), a
weight vector of the learning rate times d loss / d y at each of them, and
one matmul of the derivative table against it, which is the update, c
included. ``step_gradient`` runs that step at scale 1. Training chains
tens of thousands of such steps, so a last-bit change in a step (a reordered
sum, another SIMD path) moves the trained weights. It does not move them
far: ``tests/data/nn_golden.json`` holds float.hex of the trained
``[w | b | v | c]`` for every case in ``CASES``, and a retrained vector must
lie within ``REL_TOL`` of it, relative to the golden's largest entry. The
drift measured when the step last changed its arithmetic is in CHANGES.md;
``REL_TOL`` sits more than 100x above it.

Rewrite the data file, only after a deliberate change of training, with

    PYTHONPATH=src python tests/test_neural_kernel.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from curvekit import (
    Bond,
    Cashflow,
    DivergenceError,
    NnParams,
    ScenarioSpec,
    TrainConfig,
    generate_scenario,
    nn_yield,
    train,
)
from curvekit import neural
from curvekit.pricing import cashflow_schedule

DATA = Path(__file__).parent / "data" / "nn_golden.json"
REL_TOL = 1e-10

# 15-bond days over 0.1-15 y, so each holds bonds with one to three cashflows
DAYS = {
    regime: ScenarioSpec(regime=regime, n_bonds=15, price_noise_sd=0.002, seed=seed)
    for regime, seed in (("rising", 31), ("flat", 32), ("falling", 33))
}
WIDE = ScenarioSpec(regime="falling", n_bonds=60, price_noise_sd=0.002, seed=24)
DESK = ScenarioSpec(regime="falling", n_bonds=30, price_noise_sd=0.002, seed=99)

GAMMAS = [(0.0, 0.0), (1e3, 0.0), (0.0, 1e4), (1e3, 1e4)]
MATRIX = [
    (regularizer, g1, g2, h, lr)
    for regularizer in ("per_bond", "per_epoch")
    for g1, g2 in GAMMAS
    if regularizer == "per_bond" or g1 > 0 or g2 > 0    # per_epoch without penalties is per_bond
    for h in (1, 3, 5)
    for lr in (1e-8, 1e-7)
]

# case name -> (day, config)
CASES = {
    **{
        f"{regularizer}-g{g1:g}-{g2:g}-h{h}-lr{lr:g}": (
            list(DAYS.values())[i % len(DAYS)],
            TrainConfig(learning_rate=lr, epochs=12, gamma1=g1, gamma2=g2, seed=h,
                        hidden_count=h, regularizer=regularizer),
        )
        for i, (regularizer, g1, g2, h, lr) in enumerate(MATRIX)
    },
    "wide-per_bond": (WIDE, TrainConfig(epochs=6, gamma2=1e4, seed=5)),
    "wide-per_epoch": (WIDE, TrainConfig(epochs=6, gamma2=0.0, seed=5, regularizer="per_epoch")),
    "desk-default": (DESK, TrainConfig()),        # 1000 epochs x 30 bonds of penalised steps
}


def packed(params: NnParams) -> np.ndarray:
    return np.array([*params.w, *params.b, *params.v, params.c])


def train_case(name: str) -> np.ndarray:
    spec, config = CASES[name]
    return packed(train(generate_scenario(spec), config))


@pytest.fixture(scope="module")
def golden():
    return {name: np.array([float.fromhex(x) for x in data]) for name, data in json.loads(DATA.read_text()).items()}


class TestTrainGolden:
    def test_data_covers_every_case(self, golden):
        assert sorted(golden) == sorted(CASES)

    @pytest.mark.parametrize("name", list(CASES))
    def test_trained_weights_match_golden(self, name, golden):
        want = golden[name]
        got = train_case(name)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= REL_TOL * np.max(np.abs(want)), (got - want).tolist()


# --- one step of each kind against central differences ---------------------------

# one, two and three cashflows (a coupon at maturity pays beside the face value)
BONDS = [
    Bond("Z", (), 100.0, 0.7, 97.8),
    Bond("C1", (Cashflow(1.4, 3.0),), 100.0, 1.4, 99.1),
    Bond("C2", (Cashflow(0.6, 3.0), Cashflow(1.6, 3.0)), 100.0, 1.6, 101.7),
]
BENCH = generate_scenario(DAYS["rising"]).benchmark
TENORS = np.array(TrainConfig().grid)
BENCH_SLOPES = np.diff([BENCH.yield_at(float(t)) for t in TENORS]) / np.diff(TENORS)

# kind -> (bond in the step, gamma1, gamma2)
KINDS = {
    "price": (True, 0.0, 0.0),
    "smooth": (True, 1e3, 0.0),
    "trend": (True, 0.0, 1e4),
    "both": (True, 1e3, 1e4),
    "per_epoch": (False, 1e3, 1e4),
}


def direct_loss(x, h, bond, g1, g2) -> float:
    """The step's loss from its definition, at the packed parameters ``x``."""
    params = NnParams(w=x[:h], b=x[h:2 * h], v=x[2 * h:3 * h], c=x[3 * h])
    loss = 0.0
    if bond is not None:
        times, amounts = cashflow_schedule(bond)
        loss = (float(np.sum(amounts * np.exp(-times * nn_yield(params, times)))) - bond.market_price) ** 2
    if g1 or g2:
        slopes = np.diff(nn_yield(params, TENORS)) / np.diff(TENORS)
        loss += g1 * np.max(np.abs(slopes)) + g2 * np.sum(np.abs(slopes - BENCH_SLOPES)) / len(TENORS)
    return loss


def step_gradient(x, h, bond, g1, g2):
    """``neural._step``'s loss and gradient [d w | d b | d v | d c] at ``x``."""
    with_grid = g1 > 0 or g2 > 0
    pen = neural._Penalty(TENORS, g1, g2, BENCH) if with_grid else None
    tenors = TENORS if with_grid else None
    if bond is None:
        p = neural._Pass(x.copy(), np.empty(0), tenors=tenors)
    else:
        p = neural._Pass(x.copy(), *cashflow_schedule(bond), bond.market_price, bond.id, tenors)
    grad = np.empty(3 * h + 1)
    loss = neural._step(p, pen, grad, 1.0)
    return loss, grad


class TestStepGradient:
    @pytest.mark.parametrize("kind", list(KINDS))
    @pytest.mark.parametrize("h", [1, 3, 5])
    def test_step_gradient_matches_central_differences(self, kind, h):
        with_bond, g1, g2 = KINDS[kind]
        rng = np.random.default_rng(h)
        for bond in BONDS if with_bond else [None]:
            x = np.concatenate([rng.normal(0, 0.05, h), rng.normal(0, 0.3, h), rng.normal(0, 0.3, h),
                                [rng.uniform(0.01, 0.05)]])
            loss, analytic = step_gradient(x, h, bond, g1, g2)
            assert loss == pytest.approx(direct_loss(x, h, bond, g1, g2), rel=1e-12)
            eps = 1e-6
            numeric = np.array([
                (direct_loss(x + eps * e, h, bond, g1, g2) - direct_loss(x - eps * e, h, bond, g1, g2)) / (2 * eps)
                for e in np.eye(len(x))
            ])
            scale = np.max(np.abs(numeric))
            assert scale > 0
            assert np.max(np.abs(analytic - numeric)) <= 1e-6 * scale, (analytic, numeric)
            if bond is None:
                assert analytic[-1] == 0.0    # the penalties see slopes alone


# --- divergence ------------------------------------------------------------------

class TestDivergence:
    @pytest.mark.parametrize("knobs,message,epoch,bond_index", [
        (dict(learning_rate=1e-4, gamma1=0.0, gamma2=0.0),                # a step loss, no penalties
         "non-finite loss at epoch 1, bond B010", 1, 9),
        (dict(learning_rate=1e-5),                                        # a step loss, both penalties
         "non-finite loss at epoch 1, bond B001", 1, 0),
        (dict(learning_rate=1e-4, regularizer="per_epoch"),               # a step loss mid-epoch
         "non-finite loss at epoch 2, bond B012", 2, 11),
        (dict(learning_rate=1e-2, gamma1=1e200, regularizer="per_epoch"),  # the per-epoch penalty
         "non-finite penalty after epoch 1", 1, 14),
    ])
    def test_divergence_is_attributed(self, knobs, message, epoch, bond_index):
        # recorded from the direct per-array formulation of the step
        snap = generate_scenario(DAYS["falling"])
        with pytest.raises(DivergenceError) as err:
            train(snap, TrainConfig(epochs=30, seed=0, **knobs))
        assert str(err.value) == f"training diverged: {message}"
        assert (err.value.epoch, err.value.bond_index) == (epoch, bond_index)


if __name__ == "__main__":
    records = [f" {json.dumps(name)}: {json.dumps([float(x).hex() for x in train_case(name)])}" for name in CASES]
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text("{\n" + ",\n".join(records) + "\n}\n")
    print(f"wrote {DATA} ({len(records)} cases)", file=sys.stderr)
