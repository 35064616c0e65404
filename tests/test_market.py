"""Market data types, file round-trips, and the synthetic generator."""

import csv
import itertools
import json
import math
import re

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
from curvekit.cli import main as cli_main
from curvekit.market import MAX_MATURITY, _CSV_HEADER, _snapshot_to_dict

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
        for maturity_range in ((0.0, 1.0), (0.1, math.nan), (math.nan, 1.0), (0.1, math.inf), (0.1, 1e308),
                               (0.1, MAX_MATURITY * (1 + 1e-15))):
            with pytest.raises(ValidationError, match="maturity_range must satisfy"):
                ScenarioSpec(regime="flat", maturity_range=maturity_range)
        ScenarioSpec(regime="flat", maturity_range=(0.1, MAX_MATURITY))
        for coupon_range in ((math.nan, math.nan), (0.01, math.nan), (0.01, math.inf), (-0.01, 0.02), (0.05, 0.01)):
            with pytest.raises(ValidationError, match="coupon_range must be finite with 0 <= min <= max"):
                ScenarioSpec(regime="flat", coupon_range=coupon_range)


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


def write_record(tmp_path, record) -> tuple:
    """Write one snapshot record as ``d.json`` and as ``d.csv`` with its companion file.

    A CSV cell is the text of its value; a bond without a field gets a row short
    of that cell, and a benchmark short of a rate a companion row of one cell.
    """
    json_path, csv_path = tmp_path / "d.json", tmp_path / "d.csv"
    json_path.write_text(json.dumps(record))
    with open(csv_path, "w", newline="") as fh:
        fh.write(f"# date: {record['date']}\n")
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for bond in record["bonds"]:
            flows = ";".join(f"{cf['time']}:{cf['amount']}" for cf in bond["cashflows"])
            writer.writerow([bond[field] for field in _CSV_HEADER[:-1] if field in bond] + [flows])
    bench = record["benchmark"]
    with open(tmp_path / "d.benchmark.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tenor", "rate"])
        for row in itertools.zip_longest(bench["tenors"], bench["rates"]):
            writer.writerow([cell for cell in row if cell is not None])
    return json_path, csv_path


def day_record() -> dict:
    return _snapshot_to_dict(generate_scenario(ScenarioSpec(regime="rising", n_bonds=6, price_noise_sd=0.002, seed=8)))


# the record edits both encodings share, and whether the fault is in the benchmark
MALFORMED_RECORDS = {
    "non-number price": (lambda r: r["bonds"][1].update(market_price="abc"), False),
    "non-number amount": (lambda r: r["bonds"][3]["cashflows"][0].update(amount="abc"), False),
    "non-number rate": (lambda r: r["benchmark"]["rates"].__setitem__(4, "abc"), True),
    "missing maturity": (lambda r: r["bonds"][1].pop("maturity"), False),
    "boolean face value": (lambda r: r["bonds"][2].update(face_value=True), False),
    "boolean amount": (lambda r: r["bonds"][3]["cashflows"][0].update(amount=True), False),
    "boolean rate": (lambda r: r["benchmark"]["rates"].__setitem__(4, False), True),
    "short benchmark row": (lambda r: r["benchmark"]["rates"].pop(), True),
}


class TestEncodingParity:
    """JSON and CSV read into one record form and one function validates it, so the same
    malformed record fails the same way from either file, naming the file at fault once."""

    def test_a_valid_record_loads_to_the_same_snapshot(self, tmp_path):
        json_path, csv_path = write_record(tmp_path, day_record())
        assert load_snapshot(json_path) == load_snapshot(csv_path)

    @pytest.mark.parametrize("case", MALFORMED_RECORDS)
    def test_the_same_malformed_record_raises_the_same_error(self, tmp_path, case):
        mutate, in_benchmark = MALFORMED_RECORDS[case]
        record = day_record()
        mutate(record)
        json_path, csv_path = write_record(tmp_path, record)
        faults = {json_path: json_path, csv_path: tmp_path / "d.benchmark.csv" if in_benchmark else csv_path}
        for path, at_fault in faults.items():
            with pytest.raises(ParseError) as info:
                load_snapshot(path)
            message = str(info.value)
            assert message.startswith(f"{at_fault}: ") and message.count(at_fault.name) == 1, message

    @pytest.mark.parametrize("case", ["short benchmark row", "non-number price"])
    def test_the_cli_names_the_file_at_fault_once(self, tmp_path, capsys, case):
        mutate, in_benchmark = MALFORMED_RECORDS[case]
        record = day_record()
        mutate(record)
        _, csv_path = write_record(tmp_path, record)
        assert cli_main(["fit", str(csv_path), "--estimator", "bootstrap", "-o", str(tmp_path / "m.json"),
                         "--samples", str(tmp_path / "s.csv")]) == 3
        err = capsys.readouterr().err
        at_fault = tmp_path / ("d.benchmark.csv" if in_benchmark else "d.csv")
        assert err.startswith(f"error: {at_fault}: ") and err.count("\n") == 1, err
        assert err.count("d.csv") + err.count("d.benchmark.csv") == 1, err


def write_day(tmp_path, name="d", fmt="csv"):
    path = tmp_path / f"{name}.{fmt}"
    save_snapshot(generate_scenario(ScenarioSpec(regime="falling", n_bonds=6, seed=3)), path, format=fmt)
    return path


class TestUnreadableFiles:
    """Files that once ended in a traceback: each is a ParseError naming its file."""

    def test_companion_row_of_one_cell(self, tmp_path):
        path = write_day(tmp_path)
        bench = tmp_path / "d.benchmark.csv"
        lines = bench.read_text().splitlines()
        lines[3] = lines[3].split(",")[0]
        bench.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(bench))}: row has 1 cells, expected 2"):
            load_snapshot(path)

    @pytest.mark.parametrize("fmt,target", [("json", "d.json"), ("csv", "d.csv"), ("csv", "d.benchmark.csv")])
    def test_bytes_that_are_not_utf8(self, tmp_path, fmt, target):
        path = write_day(tmp_path, fmt=fmt)
        bad = tmp_path / target
        bad.write_bytes(b"\xff\xfe" + bad.read_bytes())
        with pytest.raises(ParseError, match=f"^{re.escape(str(bad))}: not UTF-8 text"):
            load_snapshot(path)

    def test_a_row_with_too_few_cells_names_its_file_once(self, tmp_path):
        path = write_day(tmp_path)
        lines = path.read_text().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:3])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as info:
            load_snapshot(path)
        assert str(info.value).startswith(f"{path}: row has 3 cells, expected 5")
        assert str(info.value).count("d.csv") == 1

    @pytest.mark.parametrize("value", ["1" + "0" * 400, "1" * 5000], ids=["past-float-range", "past-int-digit-limit"])
    def test_a_json_integer_that_is_no_float(self, tmp_path, value):
        path = write_day(tmp_path, fmt="json")
        data = json.loads(path.read_text())
        data["bonds"][0]["market_price"] = 12345.678
        path.write_text(json.dumps(data).replace("12345.678", value))
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: "):
            load_snapshot(path)

    @pytest.mark.parametrize("value", [5, [], {"id": "B001"}])
    def test_a_json_bond_id_that_is_not_a_string(self, tmp_path, value):
        path = write_day(tmp_path, fmt="json")
        data = json.loads(path.read_text())
        data["bonds"][0]["id"] = value
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: malformed record: bond id must be a string"):
            load_snapshot(path)

    @pytest.mark.parametrize("value", [[1, {"a": 2}], 20240102, None, True])
    def test_a_json_date_that_is_not_a_string(self, tmp_path, value):
        path = write_day(tmp_path, fmt="json")
        data = json.loads(path.read_text())
        data["date"] = value
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: malformed record: date must be a string"):
            load_snapshot(path)

    def test_a_json_day_without_a_date_loads_with_an_empty_one(self, tmp_path):
        path = write_day(tmp_path, fmt="json")
        data = json.loads(path.read_text())
        del data["date"]
        path.write_text(json.dumps(data))
        assert load_snapshot(path).date == ""

    def test_json_nested_past_the_recursion_limit(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text("[" * 100_000)
        with pytest.raises(ParseError, match="invalid JSON"):
            load_snapshot(path)

    def test_a_csv_cell_past_the_field_limit(self, tmp_path):
        path = write_day(tmp_path)
        lines = path.read_text().splitlines()
        lines[2] += "9" * 200_000
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: field larger than field limit"):
            load_snapshot(path)


@pytest.mark.parametrize("regime", ["flat", "rising", "falling"])
def test_json_and_csv_copies_of_generated_days_load_equal(tmp_path, regime):
    for n_bonds, noise, seed in itertools.product((15, 30, 60), (0.0, 0.002, 0.01), range(5)):
        snap = generate_scenario(ScenarioSpec(regime=regime, n_bonds=n_bonds, price_noise_sd=noise, seed=seed))
        save_snapshot(snap, tmp_path / "d.json")
        save_snapshot(snap, tmp_path / "d.csv", format="csv")
        assert load_snapshot(tmp_path / "d.json") == load_snapshot(tmp_path / "d.csv") == snap


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
