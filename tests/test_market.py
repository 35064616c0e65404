"""Market data types, file round-trips, and the synthetic generator."""

import json
import math

import numpy as np
import pytest

from curvekit import (
    BenchmarkCurve,
    Bond,
    Cashflow,
    MarketSnapshot,
    OffsetCurve,
    ParseError,
    ScenarioSpec,
    ValidationError,
    generate_scenario,
    load_snapshot,
    present_value,
    save_snapshot,
)

BENCH = BenchmarkCurve(tenors=(0.5, 2.0, 10.0), rates=(0.02, 0.025, 0.03))


def make_bond(bond_id="B1", maturity=2.0, coupon=3.0, price=101.0):
    times = [maturity - k for k in range(int(math.floor(maturity - 1e-9)), -1, -1)]
    flows = tuple(Cashflow(t, coupon) for t in times if t > 1e-9)
    return Bond(id=bond_id, cashflows=flows, face_value=100.0, maturity=maturity, market_price=price)


class TestTypeInvariants:
    def test_cashflow_rejects_nonpositive(self):
        for time, amount in ((0.0, 1.0), (1.0, 0.0), (math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)):
            with pytest.raises(ValidationError):
                Cashflow(time=time, amount=amount)

    def test_bond_unordered_cashflows_names_bond(self):
        flows = (Cashflow(2.0, 3.0), Cashflow(1.0, 3.0))
        with pytest.raises(ValidationError, match="BAD.*strictly increasing"):
            Bond(id="BAD", cashflows=flows, face_value=100.0, maturity=2.0, market_price=100.0)

    def test_bond_maturity_must_match_last_cashflow(self):
        with pytest.raises(ValidationError, match="maturity"):
            Bond(id="B1", cashflows=(Cashflow(1.0, 3.0),), face_value=100.0, maturity=2.0, market_price=100.0)

    def test_bond_rejects_nonpositive_price(self):
        for price in (0.0, math.inf, math.nan):
            with pytest.raises(ValidationError, match="market_price"):
                Bond(id="B1", cashflows=(), face_value=100.0, maturity=1.0, market_price=price)
        with pytest.raises(ValidationError, match="face_value"):
            Bond(id="B1", cashflows=(), face_value=math.inf, maturity=1.0, market_price=100.0)
        with pytest.raises(ValidationError, match="maturity"):
            Bond(id="B1", cashflows=(), face_value=100.0, maturity=math.inf, market_price=100.0)

    def test_snapshot_rejects_empty_bonds(self):
        with pytest.raises(ValidationError, match="non-empty"):
            MarketSnapshot(date="d", bonds=(), benchmark=BENCH)

    def test_snapshot_rejects_duplicate_ids(self):
        b = make_bond()
        with pytest.raises(ValidationError, match="duplicate"):
            MarketSnapshot(date="d", bonds=(b, b), benchmark=BENCH)

    def test_benchmark_invariants(self):
        with pytest.raises(ValidationError):
            BenchmarkCurve(tenors=(1.0,), rates=(0.02,))
        with pytest.raises(ValidationError):
            BenchmarkCurve(tenors=(2.0, 1.0), rates=(0.02, 0.02))
        for tenors, rates in (((1.0, math.inf), (0.02, 0.02)), ((1.0, math.nan), (0.02, 0.02)),
                              ((1.0, 2.0), (0.02, math.inf)), ((1.0, 2.0), (math.nan, 0.02))):
            with pytest.raises(ValidationError, match="finite"):
                BenchmarkCurve(tenors=tenors, rates=rates)

    def test_scenario_spec_validation(self):
        with pytest.raises(ValidationError):
            ScenarioSpec(regime="flat", n_bonds=1)
        with pytest.raises(ValidationError):
            ScenarioSpec(regime="sideways")
        with pytest.raises(ValidationError):
            ScenarioSpec(regime="flat", maturity_range=(5.0, 1.0))
        with pytest.raises(ValidationError):
            ScenarioSpec(regime="flat", price_noise_sd=-0.1)
        for sd in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="price_noise_sd must be finite"):
                ScenarioSpec(regime="flat", price_noise_sd=sd)


class TestRoundTrip:
    @pytest.mark.parametrize("fmt,suffix", [("json", ".json"), ("csv", ".csv")])
    def test_round_trip_is_exact(self, tmp_path, fmt, suffix):
        snap = generate_scenario(ScenarioSpec(regime="falling", n_bonds=15, price_noise_sd=0.002, seed=9))
        path = tmp_path / f"day{suffix}"
        save_snapshot(snap, path, format=fmt)
        back = load_snapshot(path, format=fmt)
        assert back.date == snap.date
        assert back.benchmark == snap.benchmark
        assert back == snap  # dataclass equality: every float identical

    def test_zero_coupon_round_trip_csv(self, tmp_path, zc_snapshot):
        path = tmp_path / "zc.csv"
        save_snapshot(zc_snapshot, path, format="csv")
        text = path.read_text()
        # zero-coupon rows end with an empty cashflows cell
        assert any(line.endswith(",\n") or line.endswith(",") for line in text.splitlines())
        assert load_snapshot(path) == zc_snapshot

    def test_save_to_unwritable_path(self, tmp_path):
        snap = generate_scenario(ScenarioSpec(regime="flat", n_bonds=3, seed=0))
        with pytest.raises(OSError):
            save_snapshot(snap, tmp_path / "missing-dir" / "day.json", format="json")

    def test_load_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        bond = {"id": "B1", "face_value": 100.0, "maturity": 2.0, "market_price": "abc", "cashflows": []}
        bench = {"tenors": [1.0, 2.0], "rates": [0.02, 0.02]}
        for text in ("{not json",
                     json.dumps({"date": "d", "benchmark": bench, "bonds": [bond]}),
                     json.dumps({"date": "d", "benchmark": {**bench, "rates": ["x", 0.02]}, "bonds": []})):
            path.write_text(text)
            with pytest.raises(ParseError):
                load_snapshot(path)

    def test_load_validation_error_names_offender(self, tmp_path):
        snap = generate_scenario(ScenarioSpec(regime="flat", n_bonds=3, seed=0))
        data = json.loads(json.dumps({
            "date": snap.date,
            "benchmark": {"tenors": list(snap.benchmark.tenors), "rates": list(snap.benchmark.rates)},
            "bonds": [{
                "id": "WRONG", "face_value": 100.0, "maturity": 2.0, "market_price": 100.0,
                "cashflows": [{"time": 2.0, "amount": 3.0}, {"time": 1.0, "amount": 3.0}],
            }],
        }))
        path = tmp_path / "bad_bond.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError, match="WRONG"):
            load_snapshot(path)
        # json writes and reads inf as Infinity
        data["bonds"][0].update(cashflows=[], market_price=math.inf)
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError, match="WRONG: market_price must be finite"):
            load_snapshot(path)

    def test_load_empty_bonds_array(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({
            "date": "d",
            "benchmark": {"tenors": [1.0, 2.0], "rates": [0.02, 0.02]},
            "bonds": [],
        }))
        with pytest.raises(ValidationError, match="non-empty"):
            load_snapshot(path)

    def test_csv_header_contract(self, tmp_path, flat_snapshot):
        path = tmp_path / "day.csv"
        save_snapshot(flat_snapshot, path, format="csv")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# date:")
        assert lines[1] == "id,face_value,maturity,market_price,cashflows"
        bench_lines = (tmp_path / "day.benchmark.csv").read_text().splitlines()
        assert bench_lines[0] == "tenor,rate"


class TestGenerator:
    def test_noise_free_prices_match_generating_curve(self):
        spec = ScenarioSpec(regime="flat", n_bonds=25, price_noise_sd=0.0, seed=4)
        snap = generate_scenario(spec)
        curve = OffsetCurve(snap.benchmark, spec.spread_over_benchmark)
        for bond in snap.bonds:
            err = abs(present_value(curve, bond) - bond.market_price) / bond.market_price
            assert err <= 1e-10, f"{bond.id}: relative PV error {err}"

    @pytest.mark.parametrize("regime", ["rising", "falling"])
    def test_noise_free_prices_match_for_sloped_regimes(self, regime):
        spec = ScenarioSpec(regime=regime, n_bonds=25, price_noise_sd=0.0, seed=4)
        snap = generate_scenario(spec)
        curve = OffsetCurve(snap.benchmark, spec.spread_over_benchmark)
        for bond in snap.bonds:
            err = abs(present_value(curve, bond) - bond.market_price) / bond.market_price
            assert err <= 1e-10

    def test_deterministic_given_seed(self, tmp_path):
        spec = ScenarioSpec(regime="rising", n_bonds=10, price_noise_sd=0.01, seed=42)
        a = generate_scenario(spec)
        b = generate_scenario(spec)
        assert a == b
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save_snapshot(a, pa)
        save_snapshot(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_bond_count_and_maturity_bounds(self):
        spec = ScenarioSpec(regime="flat", n_bonds=60, maturity_range=(0.05, 15.0), seed=1)
        snap = generate_scenario(spec)
        mats = [b.maturity for b in snap.bonds]
        assert len(snap.bonds) == 60
        assert min(mats) >= 0.05
        assert max(mats) <= 15.0

    def test_short_end_is_denser(self):
        snap = generate_scenario(ScenarioSpec(regime="flat", n_bonds=60, maturity_range=(0.05, 15.0), seed=2))
        mats = np.array([b.maturity for b in snap.bonds])
        assert np.sum(mats < 5.0) > np.sum(mats >= 5.0)

    def test_regime_shapes(self):
        tenors = np.array([0.25, 1.0, 5.0, 15.0, 30.0])
        for regime, check in [
            ("flat", lambda r: np.allclose(r, 0.03)),
            ("rising", lambda r: np.all(np.diff(r) > 0)),
            ("falling", lambda r: np.all(np.diff(r) < 0)),
        ]:
            snap = generate_scenario(ScenarioSpec(regime=regime, n_bonds=3, seed=0))
            rates = np.array([snap.benchmark.yield_at(t) for t in tenors])
            assert check(rates), f"{regime}: {rates}"

    def test_noise_perturbs_prices_only(self):
        clean = generate_scenario(ScenarioSpec(regime="flat", n_bonds=8, price_noise_sd=0.0, seed=6))
        noisy = generate_scenario(ScenarioSpec(regime="flat", n_bonds=8, price_noise_sd=0.01, seed=6))
        assert [b.maturity for b in clean.bonds] == [b.maturity for b in noisy.bonds]
        assert [b.cashflows for b in clean.bonds] == [b.cashflows for b in noisy.bonds]
        assert any(c.market_price != n.market_price for c, n in zip(clean.bonds, noisy.bonds))

    def test_annual_coupons_at_integer_offsets(self, falling_snapshot):
        for bond in falling_snapshot.bonds:
            times = [cf.time for cf in bond.cashflows]
            assert times, bond.id
            assert times[-1] == pytest.approx(bond.maturity, abs=1e-12)
            offsets = [bond.maturity - t for t in times]
            assert all(abs(o - round(o)) < 1e-9 for o in offsets)
            assert 0 < times[0] <= 1.0 + 1e-9
