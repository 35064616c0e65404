"""Fits that must not depend on bond order or on the unit a day is quoted in.

A day's bonds in another order, or every face value, cashflow and price
multiplied by one factor (or each bond by its own), are the same market. The
bootstrap, KR and NN curves of such a day must match the original day's on
the standard grid within ``TOL``: rounding, since the sums run in another
order and a scaled amount is not always its unscaled one times the factor
exactly. The largest gap on these days is about 3e-11 bp (KR), and at most
6e-11 bp on other small days.

NSS stays out until its fitter reaches its optimum: its capped Nelder–Mead
runs take other paths under these changes and move its curve by about
0.002 bp, which no tolerance here should hide.
"""

from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from curvekit import (
    Bond,
    Cashflow,
    KrCurve,
    NnCurve,
    ScenarioSpec,
    TrainConfig,
    bootstrap,
    fit_kr,
    generate_scenario,
    train,
)
from curvekit.evaluation import DEFAULT_TENORS

TOL = 1e-13  # in yield: 1e-9 bp

GRID = np.array(DEFAULT_TENORS)

DAYS = {
    "falling": generate_scenario(ScenarioSpec(regime="falling", n_bonds=10, price_noise_sd=0.002, seed=1)),
    "rising": generate_scenario(ScenarioSpec(regime="rising", n_bonds=10, price_noise_sd=0.002, seed=2)),
}

ESTIMATORS = {
    "bootstrap": bootstrap,
    "kr": lambda snap: KrCurve(fit_kr(snap, 1e-2)),
    "nn": lambda snap: NnCurve(train(snap, TrainConfig(epochs=200))),
}


def scaled(snap, factors):
    """``snap`` with bond j's face value, cashflows and price multiplied by ``factors[j]``."""
    return replace(snap, bonds=tuple(
        Bond(b.id, tuple(Cashflow(cf.time, cf.amount * k) for cf in b.cashflows), b.face_value * k, b.maturity,
             b.market_price * k)
        for b, k in zip(snap.bonds, factors)
    ))


def reordered(snap, order):
    return replace(snap, bonds=tuple(snap.bonds[i] for i in order))


VARIANTS = {
    "reversed": lambda snap: reordered(snap, range(len(snap.bonds) - 1, -1, -1)),
    "shuffled": lambda snap: reordered(snap, np.random.default_rng(5).permutation(len(snap.bonds))),
    "x10": lambda snap: scaled(snap, [10.0] * len(snap.bonds)),
    "x0.01": lambda snap: scaled(snap, [0.01] * len(snap.bonds)),
    "mixed-face": lambda snap: scaled(snap, [(10.0, 0.01, 1.0, 7.3, 0.25)[j % 5] for j in range(len(snap.bonds))]),
}


@cache
def grid_yields(estimator: str, day: str, variant: str | None = None) -> np.ndarray:
    snap = DAYS[day] if variant is None else VARIANTS[variant](DAYS[day])
    return ESTIMATORS[estimator](snap).yields(GRID)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("day", sorted(DAYS))
@pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
def test_curve_does_not_depend_on_order_or_units(estimator, day, variant):
    gap = np.max(np.abs(grid_yields(estimator, day, variant) - grid_yields(estimator, day)))
    assert gap <= TOL, f"{estimator} moves by {gap * 1e4:.3g} bp on the {variant} {day} day"
