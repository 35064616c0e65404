"""Fits that must not depend on bond order or on the unit a day is quoted in.

A day's bonds in another order, or every face value, cashflow and price
multiplied by one factor (or each bond by its own), are the same market.

A snapshot holds its bonds by maturity, then id, whatever order they are
given or read in. So every estimator's curve of a reordered day, NSS
included, equals the original day's bit for bit, and so do the drop and
leave-one-out records, whose draws index the snapshot's bonds.

The bootstrap, KR and NN curves of a rescaled day must match the original
day's on the standard grid within ``TOL``: rounding, since a scaled amount is
not always its unscaled one times the factor exactly. The largest gap on
these days is about 3e-11 bp (KR), and at most 6e-11 bp on other small days.

NSS stays out of the unit checks until its fitter reaches its optimum: a
rescaled day's weighted price errors differ from the original's in their last
bits, its capped Nelder–Mead runs take other paths from there, and its curve
moves by 0.015 bp (falling, ×0.01) to 59 bp (rising, ×10) on these days,
which no tolerance here should hide.
"""

import json
import shutil
from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from curvekit import (
    Bond,
    Cashflow,
    KrCurve,
    MarketSnapshot,
    NnCurve,
    NssCurve,
    ScenarioSpec,
    TrainConfig,
    bootstrap,
    drop_bonds_experiment,
    fit_kr,
    fit_nss,
    generate_scenario,
    load_snapshot,
    loo_experiment,
    save_snapshot,
    train,
)
from curvekit.cli import build_estimators, build_parser
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
    "nss": lambda snap: NssCurve(fit_nss(snap)),
}


def scaled(snap, factors):
    """``snap`` with bond j's face value, cashflows and price multiplied by ``factors[j]``."""
    return replace(snap, bonds=tuple(
        Bond(b.id, tuple(Cashflow(cf.time, cf.amount * k) for cf in b.cashflows), b.face_value * k, b.maturity,
             b.market_price * k)
        for b, k in zip(snap.bonds, factors)
    ))


def shuffle(items):
    return [items[i] for i in np.random.default_rng(5).permutation(len(items))]


ORDERS = {
    "reversed": lambda snap: replace(snap, bonds=snap.bonds[::-1]),
    "shuffled": lambda snap: replace(snap, bonds=shuffle(snap.bonds)),
}

UNITS = {
    "x10": lambda snap: scaled(snap, [10.0] * len(snap.bonds)),
    "x0.01": lambda snap: scaled(snap, [0.01] * len(snap.bonds)),
    "mixed-face": lambda snap: scaled(snap, [(10.0, 0.01, 1.0, 7.3, 0.25)[j % 5] for j in range(len(snap.bonds))]),
}


@cache
def grid_yields(estimator: str, day: str, variant: str | None = None) -> np.ndarray:
    snap = DAYS[day] if variant is None else {**ORDERS, **UNITS}[variant](DAYS[day])
    return ESTIMATORS[estimator](snap).yields(GRID)


@pytest.mark.parametrize("variant", sorted(ORDERS))
@pytest.mark.parametrize("day", sorted(DAYS))
@pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
def test_curve_does_not_depend_on_bond_order(estimator, day, variant):
    assert grid_yields(estimator, day, variant).tolist() == grid_yields(estimator, day).tolist()


@pytest.mark.parametrize("variant", sorted(UNITS))
@pytest.mark.parametrize("day", sorted(DAYS))
@pytest.mark.parametrize("estimator", sorted(set(ESTIMATORS) - {"nss"}))
def test_curve_does_not_depend_on_units(estimator, day, variant):
    gap = np.max(np.abs(grid_yields(estimator, day, variant) - grid_yields(estimator, day)))
    assert gap <= TOL, f"{estimator} moves by {gap * 1e4:.3g} bp on the {variant} {day} day"


@pytest.mark.parametrize("day", sorted(DAYS))
def test_snapshot_holds_its_bonds_by_maturity_then_id(day):
    snap = DAYS[day]
    assert MarketSnapshot(snap.date, shuffle(snap.bonds), snap.benchmark) == snap
    # a tie in maturity goes to the smaller id, whatever order the bonds come in
    first, second = (Bond(i, (), 100.0, 2.0, 95.0) for i in ("A", "B"))
    assert MarketSnapshot(snap.date, (*snap.bonds, second, first), snap.benchmark).bonds == tuple(sorted(
        (*snap.bonds, first, second), key=lambda b: (b.maturity, b.id)))


def test_json_day_with_shuffled_bonds_loads_to_the_same_snapshot(tmp_path):
    save_snapshot(DAYS["falling"], tmp_path / "day.json")
    data = json.loads((tmp_path / "day.json").read_text())
    data["bonds"] = shuffle(data["bonds"])
    (tmp_path / "shuffled.json").write_text(json.dumps(data))
    assert load_snapshot(tmp_path / "shuffled.json") == load_snapshot(tmp_path / "day.json") == DAYS["falling"]


def test_csv_day_with_shuffled_rows_loads_to_the_same_snapshot(tmp_path):
    save_snapshot(DAYS["falling"], tmp_path / "day.csv", format="csv")
    date, header, *rows = (tmp_path / "day.csv").read_bytes().splitlines(keepends=True)
    (tmp_path / "shuffled.csv").write_bytes(b"".join([date, header, *shuffle(rows)]))
    shutil.copy(tmp_path / "day.benchmark.csv", tmp_path / "shuffled.benchmark.csv")
    assert load_snapshot(tmp_path / "shuffled.csv") == load_snapshot(tmp_path / "day.csv") == DAYS["falling"]


PROTOCOLS = {
    "drop": lambda snap, estimator: drop_bonds_experiment(snap, estimator, [1, 3, 5], 4),
    "loo": lambda snap, estimator: loo_experiment(snap, estimator, 8),
}


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
@pytest.mark.parametrize("day", sorted(DAYS))
def test_drop_and_loo_records_do_not_depend_on_bond_order(protocol, day):
    args = build_parser().parse_args(["fit", "day.json", "--estimator", "kr"])
    for estimator, _ in build_estimators(args, ["bootstrap", "kr"]):
        records = [PROTOCOLS[protocol](snap, estimator) for snap in (DAYS[day], ORDERS["shuffled"](DAYS[day]))]
        assert records[1] == records[0], estimator.name
