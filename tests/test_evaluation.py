"""Metrics, bucket partition, and the four experiment protocols."""

import math

import numpy as np
import pytest

from curvekit import (
    Bond,
    Estimator,
    FitFailureError,
    FlatCurve,
    InvalidDiscountError,
    KrCurve,
    MarketSnapshot,
    NssCurve,
    NssParams,
    ScenarioSpec,
    TenorGrid,
    ValidationError,
    bootstrap,
    bucket_of,
    drop_bonds_experiment,
    fit_kr,
    fit_nss,
    generate_scenario,
    loo_experiment,
    mad_curve,
    perturb_price_experiment,
    rmse_curve,
    rmse_ytm,
    stability_experiment,
    write_report,
    yield_to_maturity,
)
from curvekit.cli import ESTIMATOR_NAMES, build_estimators, build_parser
from curvekit.evaluation import BUCKET_LABELS, curve_yields, refit, report_record
from curvekit.pricing import YieldCurve

GRID = TenorGrid()

BOOTSTRAP = Estimator("bootstrap", lambda s: bootstrap(s))
KR = Estimator("kr", lambda s: KrCurve(fit_kr(s, 1e-2)))
# argument checks must come before the first fit
NO_FIT = Estimator("no-fit", lambda s: pytest.fail("a fit ran before the arguments were checked"))
# every estimator as the command line builds it, with few NSS starts and NN epochs
CLI_ARGS = build_parser().parse_args(["fit", "day.json", "--estimator", "nss", "--nss-starts", "2", "--nn-epochs", "5"])
CLI_ESTIMATORS = [est for est, _ in build_estimators(CLI_ARGS, ESTIMATOR_NAMES)]
every_estimator = pytest.mark.parametrize("estimator", CLI_ESTIMATORS, ids=lambda est: est.name)


class InterpCurve(YieldCurve):
    def __init__(self, times, values):
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)

    def yields(self, ts):
        return np.interp(ts, self.times, self.values)


class UnevaluableCurve(YieldCurve):
    """A fitted curve that cannot be evaluated, as a KR curve whose discount turns negative."""

    def yields(self, ts):
        raise InvalidDiscountError("fitted discount is non-positive")


def unevaluable_except(snapshots):
    """An estimator: the bootstrap on each of ``snapshots``, an unevaluable curve on any other."""
    return Estimator("partial", lambda s: bootstrap(s) if any(s is x for x in snapshots) else UnevaluableCurve())


def random_curve(rng):
    return NssCurve(NssParams(
        beta0=rng.uniform(0.01, 0.06),
        beta1=rng.uniform(-0.03, 0.03),
        beta2=rng.uniform(-0.04, 0.04),
        beta3=rng.uniform(-0.04, 0.04),
        lambda1=rng.uniform(0.4, 3.0),
        lambda2=rng.uniform(3.0, 12.0),
    ))


class TestMetrics:
    def test_rmse_ytm_zero_for_exact_curve(self, zc_snapshot):
        pts = [(b.maturity, yield_to_maturity(b)) for b in zc_snapshot.bonds]
        curve = InterpCurve([p[0] for p in pts], [p[1] for p in pts])
        assert rmse_ytm(curve, zc_snapshot) <= 1e-12

    def test_rmse_ytm_single_bond_ten_bp(self):
        bond = Bond(id="Z", cashflows=(), face_value=100.0, maturity=3.0,
                    market_price=100.0 * math.exp(-3.0 * 0.02))
        snap = MarketSnapshot(
            date="d", bonds=(bond,),
            benchmark=generate_scenario(ScenarioSpec(regime="flat", n_bonds=2, seed=0)).benchmark,
        )
        curve = FlatCurve(yield_to_maturity(bond) + 0.0010)
        assert rmse_ytm(curve, snap) == pytest.approx(0.0010, abs=1e-13)

    def test_rmse_ytm_matches_brute_force(self, flat_snapshot):
        bonds = flat_snapshot.bonds[:5]
        snap = MarketSnapshot(date="d", bonds=bonds, benchmark=flat_snapshot.benchmark)
        curve = FlatCurve(0.031)
        expected = math.sqrt(
            sum((curve.yield_at(b.maturity) - yield_to_maturity(b)) ** 2 for b in bonds) / len(bonds)
        )
        assert rmse_ytm(curve, snap) == pytest.approx(expected, rel=1e-12)

    def test_rmse_curve_identical_and_offset(self):
        a = FlatCurve(0.03)
        assert rmse_curve(a, a, GRID) == 0.0
        assert rmse_curve(a, FlatCurve(0.0325), GRID) == pytest.approx(0.0025, abs=1e-15)

    def test_rmse_curve_symmetry_exact(self):
        rng = np.random.default_rng(3)
        a, b = random_curve(rng), random_curve(rng)
        assert rmse_curve(a, b, GRID) == rmse_curve(b, a, GRID)

    def test_rmse_curve_matches_brute_force(self):
        rng = np.random.default_rng(4)
        a, b = random_curve(rng), random_curve(rng)
        ya = [a.yield_at(t) for t in GRID]
        yb = [b.yield_at(t) for t in GRID]
        expected = math.sqrt(sum((p - q) ** 2 for p, q in zip(ya, yb)) / len(ya))
        assert rmse_curve(a, b, GRID) == pytest.approx(expected, rel=1e-12)

    def test_mad_identical_offset_and_brute_force(self):
        a = FlatCurve(0.03)
        assert mad_curve(a, a, GRID) == 0.0
        assert mad_curve(a, FlatCurve(0.0325), GRID) == pytest.approx(0.0025, abs=1e-15)
        rng = np.random.default_rng(5)
        c, d = random_curve(rng), random_curve(rng)
        expected = max(abs(c.yield_at(t) - d.yield_at(t)) for t in GRID)
        assert mad_curve(c, d, GRID) == pytest.approx(expected, rel=1e-12)

    def test_mad_dominates_rmse(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a, b = random_curve(rng), random_curve(rng)
            assert mad_curve(a, b, GRID) >= rmse_curve(a, b, GRID) - 1e-15


class TestTenorGrid:
    @pytest.mark.parametrize("tenors, message", [
        ((1.0,), "grid needs at least 2 tenors"),
        *[(tenors, "grid tenors must be finite, strictly increasing and > 0") for tenors in (
            (1.0, math.nan, 5.0), (1.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0),
            (0.0, 1.0), (2.0, 1.0), (1.0, 1.0),
        )],
    ])
    def test_rejects_bad_grids(self, tenors, message):
        with pytest.raises(ValidationError, match=message):
            TenorGrid(tenors)


class TestRefit:
    """``refit`` is the one place a fit is decided: a CurveKitError from fit or score fails it."""

    def test_returns_the_score(self, zc_snapshot):
        assert refit(BOOTSTRAP, zc_snapshot, lambda curve: rmse_ytm(curve, zc_snapshot)) == (
            rmse_ytm(bootstrap(zc_snapshot), zc_snapshot), None)

    def test_a_failed_fit_or_score_is_returned(self, zc_snapshot):
        nss = Estimator("nss", lambda s: NssCurve(fit_nss(s)))
        five = MarketSnapshot(zc_snapshot.date, zc_snapshot.bonds[:5], zc_snapshot.benchmark)
        score, exc = refit(nss, five, lambda curve: pytest.fail("a failed fit was scored"))
        assert score is None and isinstance(exc, ValidationError)
        score, exc = refit(unevaluable_except([]), zc_snapshot, lambda curve: curve_yields(curve, GRID))
        assert score is None and isinstance(exc, InvalidDiscountError)

    def test_other_errors_propagate(self, zc_snapshot):
        with pytest.raises(ZeroDivisionError):
            refit(BOOTSTRAP, zc_snapshot, lambda curve: 1 / 0)


class TestUnevaluableCurve:
    """A fit counts only once its curve evaluates on the grid."""

    def test_perturb_records_the_replicate_as_failed(self, zc_snapshot):
        rows = perturb_price_experiment(zc_snapshot, unevaluable_except([zc_snapshot]),
                                        zc_snapshot.bonds[-1].id, [0.03, 0.05])
        assert [(r["rmse_curve"], r["mad"], r["error"]) for r in rows] == [(None, None, "fitted discount is non-positive")] * 2

    def test_drop_records_the_replicate_as_failed(self, zc_snapshot):
        rows = drop_bonds_experiment(zc_snapshot, unevaluable_except([zc_snapshot]), [1], n_mc=3, seed=0)
        assert rows[0]["n_failed"] == 3
        assert rows[0]["rmse_curve"] is None and rows[0]["mad"] is None
        assert all(rep["error"] == "fitted discount is non-positive" for rep in rows[0]["replications"])

    @pytest.mark.parametrize("experiment", [
        lambda snap, est: perturb_price_experiment(snap, est, snap.bonds[-1].id, [0.03]),
        lambda snap, est: drop_bonds_experiment(snap, est, [1], n_mc=1, seed=0),
    ])
    def test_unevaluable_base_curve_is_a_failed_base_fit(self, zc_snapshot, experiment):
        with pytest.raises(FitFailureError, match="non-positive") as info:
            experiment(zc_snapshot, unevaluable_except([]))
        assert isinstance(info.value.__cause__, InvalidDiscountError)

    @pytest.mark.parametrize("experiment", [
        lambda snap, est: perturb_price_experiment(snap, est, snap.bonds[-1].id, []),
        lambda snap, est: drop_bonds_experiment(snap, est, [], n_mc=1, seed=0),
    ])
    def test_base_fit_is_checked_with_no_replicates(self, zc_snapshot, experiment):
        # the base fit runs before any replicate is asked for, so a protocol without replicates still runs it
        with pytest.raises(FitFailureError, match="non-positive"):
            experiment(zc_snapshot, unevaluable_except([]))

    def test_stability_skips_the_day(self):
        days = [
            generate_scenario(ScenarioSpec(regime="falling", n_bonds=10, seed=70, base_rate=0.03 + 0.0004 * i),
                              date=f"day-{i}")
            for i in range(4)
        ]
        result = stability_experiment(days, unevaluable_except([days[0], days[2], days[3]]))
        assert result["skipped"] == ("day-1: fitted discount is non-positive",)
        assert result["curves"][1] is None
        assert [d["date"] for d in result["day_rmse"]] == ["day-3"]
        assert [row["date"] for row in result["fixed_tenor_series"]] == ["day-0", "day-2", "day-3"]


class TestBuckets:
    def test_boundaries(self):
        assert bucket_of(1.999) == "<2Y"
        assert bucket_of(2.0) == "2Y-10Y"
        assert bucket_of(10.0) == "2Y-10Y"
        assert bucket_of(10.001) == ">10Y"

    def test_partition_is_disjoint_and_complete(self):
        parts = [np.array([t for t in GRID if bucket_of(t) == b]) for b in BUCKET_LABELS[1:]]
        union = np.sort(np.concatenate(parts))
        assert np.array_equal(union, np.array(GRID.tenors))
        assert sum(len(p) for p in parts) == len(GRID.tenors)

    def test_full_metric_equals_union_metric(self):
        rng = np.random.default_rng(7)
        a, b = random_curve(rng), random_curve(rng)
        parts = [np.array([t for t in GRID if bucket_of(t) == lbl]) for lbl in BUCKET_LABELS[1:]]
        sq_sum = sum(np.sum((curve_yields(a, p) - curve_yields(b, p)) ** 2) for p in parts)
        expected = math.sqrt(sq_sum / len(GRID.tenors))
        assert rmse_curve(a, b, GRID) == pytest.approx(expected, rel=1e-12)


class TestPerturb:
    @every_estimator
    def test_zero_bump_gives_zero_metrics(self, zc_snapshot, estimator):
        rows = perturb_price_experiment(zc_snapshot, estimator, zc_snapshot.bonds[0].id, [0.0])
        assert (rows[0]["rmse_curve"], rows[0]["mad"], rows[0]["error"]) == (0.0, 0.0, None)

    def test_three_bumps_three_rows(self, zc_snapshot):
        bond_id = zc_snapshot.bonds[-1].id
        rows = perturb_price_experiment(zc_snapshot, KR, bond_id, [0.03, 0.05, 0.10])
        assert [r["bump"] for r in rows] == [0.03, 0.05, 0.10]
        assert all(r["error"] is None and r["rmse_curve"] > 0 for r in rows)

    def test_bootstrap_response_monotone_in_bump(self, zc_snapshot):
        bond_id = zc_snapshot.bonds[-1].id
        rows = perturb_price_experiment(zc_snapshot, BOOTSTRAP, bond_id, [0.0, 0.01, 0.03, 0.05, 0.10])
        rmses = [r["rmse_curve"] for r in rows]
        mads = [r["mad"] for r in rows]
        assert all(b >= a for a, b in zip(rmses, rmses[1:])), rmses
        assert all(b >= a for a, b in zip(mads, mads[1:])), mads

    def test_unknown_bond_id(self, zc_snapshot):
        with pytest.raises(ValidationError, match="no bond with id 'NOPE'"):
            perturb_price_experiment(zc_snapshot, KR, "NOPE", [0.03])

    def test_bump_must_keep_price_positive(self, zc_snapshot):
        bond_id = zc_snapshot.bonds[-1].id
        for bumps in ([-1.0], [0.03, -2.0], [float("nan")]):
            with pytest.raises(ValidationError, match="bumps"):
                perturb_price_experiment(zc_snapshot, NO_FIT, bond_id, bumps)

    def test_bump_must_keep_price_finite(self, zc_snapshot):
        bond_id = zc_snapshot.bonds[-1].id
        for bumps in ([0.03, float("inf")], [1e307]):
            with pytest.raises(ValidationError, match="bumps must keep .* finite"):
                perturb_price_experiment(zc_snapshot, NO_FIT, bond_id, bumps)

    def test_failed_base_fit_raises_fit_failure(self):
        snap = generate_scenario(ScenarioSpec(regime="flat", n_bonds=5, seed=2))
        nss = Estimator("nss", lambda s: NssCurve(fit_nss(s)))
        with pytest.raises(FitFailureError, match="6 bonds"):
            perturb_price_experiment(snap, nss, snap.bonds[-1].id, [0.03])


class TestDrop:
    def test_rows_and_averaging(self, zc_snapshot):
        rows = drop_bonds_experiment(zc_snapshot, KR, [1, 3], n_mc=4, seed=0)
        assert [r["count"] for r in rows] == [1, 3]
        for row in rows:
            assert len(row["replications"]) == 4
            assert row["n_failed"] == 0
            expected = np.mean([rep["rmse_curve"] for rep in row["replications"]])
            assert row["rmse_curve"] == pytest.approx(expected, rel=1e-12)

    @every_estimator
    def test_zero_count_gives_zero(self, zc_snapshot, estimator):
        rows = drop_bonds_experiment(zc_snapshot, estimator, [0], n_mc=2, seed=0)
        assert (rows[0]["rmse_curve"], rows[0]["mad"], rows[0]["n_failed"]) == (0.0, 0.0, 0)

    def test_same_seed_same_drop_sets_across_estimators(self, zc_snapshot):
        a = drop_bonds_experiment(zc_snapshot, KR, [2], n_mc=5, seed=7)
        b = drop_bonds_experiment(zc_snapshot, BOOTSTRAP, [2], n_mc=5, seed=7)
        ids_a = [rep["dropped_ids"] for rep in a[0]["replications"]]
        ids_b = [rep["dropped_ids"] for rep in b[0]["replications"]]
        assert ids_a == ids_b

    def test_count_must_leave_bonds(self, zc_snapshot):
        with pytest.raises(ValidationError):
            drop_bonds_experiment(zc_snapshot, KR, [len(zc_snapshot.bonds)], n_mc=1, seed=0)
        for counts, n_mc in (([-1], 1), ([1, -3], 1), ([1], 0), ([1], -2)):
            with pytest.raises(ValidationError):
                drop_bonds_experiment(zc_snapshot, NO_FIT, counts, n_mc=n_mc, seed=0)

    def test_failed_base_fit_raises_fit_failure(self):
        snap = generate_scenario(ScenarioSpec(regime="flat", n_bonds=5, seed=2))
        nss = Estimator("nss", lambda s: NssCurve(fit_nss(s)))
        with pytest.raises(FitFailureError, match="6 bonds") as info:
            drop_bonds_experiment(snap, nss, [1], n_mc=1, seed=0)
        assert isinstance(info.value.__cause__, ValidationError)

    def test_fit_failures_recorded_not_raised(self):
        snap = generate_scenario(ScenarioSpec(regime="flat", n_bonds=6, seed=2))
        nss = Estimator("nss", lambda s: NssCurve(fit_nss(s)))
        rows = drop_bonds_experiment(snap, nss, [1], n_mc=3, seed=1)
        assert rows[0]["n_failed"] == 3          # 5 bonds < 6-parameter requirement
        assert rows[0]["rmse_curve"] is None


class TestStability:
    def drifting_days(self, n_days=6, n_bonds=10):
        return [
            generate_scenario(
                ScenarioSpec(regime="falling", n_bonds=n_bonds, seed=70,
                             base_rate=0.03 + 0.0004 * i),
                date=f"day-{i:02d}",
            )
            for i in range(n_days)
        ]

    @every_estimator
    def test_identical_days_hit_rate_one(self, zc_snapshot, estimator):
        result = stability_experiment([zc_snapshot] * 3, estimator)
        assert [[d[bucket] for bucket in BUCKET_LABELS] for d in result["day_rmse"]] == [[0.0] * 4] * 2
        assert result["hit_rate"] == {bucket: 1.0 for bucket in BUCKET_LABELS}

    def test_zero_threshold_hit_rate_zero(self, zc_snapshot):
        result = stability_experiment([zc_snapshot] * 3, BOOTSTRAP, threshold=0.0)
        assert result["hit_rate"]["Full"] == 0.0

    def test_requires_two_snapshots(self, zc_snapshot):
        with pytest.raises(ValidationError):
            stability_experiment([zc_snapshot], BOOTSTRAP)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -1.0, -1e-12])
    def test_threshold_must_be_finite_and_non_negative(self, zc_snapshot, threshold):
        with pytest.raises(ValidationError, match="threshold must be finite and >= 0"):
            stability_experiment([zc_snapshot] * 2, NO_FIT, threshold=threshold)

    def test_series_matches_replayed_pairs(self):
        days = self.drifting_days()
        result = stability_experiment(days, BOOTSTRAP)
        assert len(result["day_rmse"]) == len(days) - 1
        for i, entry in enumerate(result["day_rmse"]):
            expected = rmse_curve(result["curves"][i + 1], result["curves"][i], GRID)
            assert entry["Full"] == pytest.approx(expected, rel=1e-12)
            for bucket in BUCKET_LABELS[1:]:
                sub = np.array([t for t in GRID if bucket_of(t) == bucket])
                assert entry[bucket] == pytest.approx(
                    rmse_curve(result["curves"][i + 1], result["curves"][i], sub), rel=1e-12
                )

    def test_fixed_tenor_series_tracks_benchmark(self):
        days = self.drifting_days(n_days=4)
        result = stability_experiment(days, BOOTSTRAP)
        assert len(result["fixed_tenor_series"]) == 4
        for row, snap in zip(result["fixed_tenor_series"], days):
            assert row["benchmark_2Y"] == pytest.approx(snap.benchmark.yield_at(2.0), rel=1e-12)
            assert row["2Y"] == pytest.approx(row["benchmark_2Y"] + 0.004, abs=2e-3)

    def test_failed_day_is_skipped_and_recorded(self):
        days = self.drifting_days(n_days=4, n_bonds=7)
        bad = MarketSnapshot(date="bad-day", bonds=days[1].bonds[:5], benchmark=days[1].benchmark)
        nss = Estimator("nss", lambda s: NssCurve(fit_nss(s)))
        result = stability_experiment([days[0], bad, days[2], days[3]], nss)
        assert any("bad-day" in s for s in result["skipped"])
        assert len(result["day_rmse"]) == 1  # only the day3/day2 pair survives


class TestLeaveOneOut:
    def test_oracle_estimator_scores_zero(self, zc_snapshot):
        oracle = Estimator("oracle", lambda s: FlatCurve(0.02))
        result = loo_experiment(zc_snapshot, oracle, n_mc=10, seed=0)
        assert result["per_bucket"]["Full"] <= 1e-6

    def test_report_has_four_buckets(self, zc_snapshot):
        result = loo_experiment(zc_snapshot, KR, n_mc=10, seed=0)
        assert set(result["per_bucket"]) == set(BUCKET_LABELS)
        assert result["counts"]["Full"] == 10
        assert result["per_bucket"]["Full"] is not None

    def test_per_bucket_matches_replication_log(self, zc_snapshot):
        result = loo_experiment(zc_snapshot, KR, n_mc=12, seed=3)
        for bucket in BUCKET_LABELS:
            sq = [r["sq_err"] for r in result["replications"]
                  if bucket in ("Full", r["bucket"]) and r["sq_err"] is not None]
            if sq:
                assert result["per_bucket"][bucket] == pytest.approx(math.sqrt(np.mean(sq)), rel=1e-12)
            else:
                assert result["per_bucket"][bucket] is None

    def test_bucket_filter_restricts_draws(self, zc_snapshot):
        result = loo_experiment(zc_snapshot, KR, n_mc=8, bucket_filter="<2Y", seed=1)
        assert all(r["bucket"] == "<2Y" for r in result["replications"])

    def test_filter_needs_two_bonds(self):
        snap = generate_scenario(
            ScenarioSpec(regime="flat", n_bonds=5, maturity_range=(3.0, 9.0), seed=1)
        )
        with pytest.raises(ValidationError, match="<2Y"):
            loo_experiment(snap, KR, n_mc=2, bucket_filter="<2Y", seed=0)

    def test_bad_filter_name(self, zc_snapshot):
        with pytest.raises(ValidationError):
            loo_experiment(zc_snapshot, KR, n_mc=2, bucket_filter="Full", seed=0)
        for n_mc in (0, -1):
            with pytest.raises(ValidationError, match="n_mc"):
                loo_experiment(zc_snapshot, NO_FIT, n_mc=n_mc, seed=0)


MOVE = ["rmse_curve", "mad", "error"]
# protocol -> (its run on a day, the records of its result, each with its keys in order)
RECORDS = {
    "perturb": (lambda day: perturb_price_experiment(day, BOOTSTRAP, day.bonds[-1].id, [0.03, 0.05]),
                lambda rows: [(row, ["bump", *MOVE]) for row in rows]),
    "drop": (lambda day: drop_bonds_experiment(day, BOOTSTRAP, [1, 2], n_mc=2, seed=0),
             lambda rows: [(row, ["count", "rmse_curve", "mad", "n_failed", "replications"]) for row in rows]
             + [(rep, ["dropped_ids", *MOVE]) for row in rows for rep in row["replications"]]),
    "stability": (lambda day: stability_experiment([day] * 3, BOOTSTRAP),
                  lambda result: [(result, ["day_rmse", "hit_rate", "fixed_tenor_series", "curves", "skipped"])]),
    "loo": (lambda day: loo_experiment(day, BOOTSTRAP, n_mc=3, seed=0),
            lambda result: [(result, ["per_bucket", "counts", "replications", "n_failed"])]
            + [(rep, ["bond_id", "bucket", "sq_err", "error"]) for rep in result["replications"]]),
}


class TestRecords:
    @pytest.mark.parametrize("protocol", RECORDS)
    def test_keys_in_order(self, zc_snapshot, protocol):
        # a protocol returns plain records, whose keys a report writes in this order
        run, records = RECORDS[protocol]
        pairs = records(run(zc_snapshot))
        assert [list(record) for record, _ in pairs] == [keys for _, keys in pairs]


class TestReports:
    def test_round_trip_files(self, tmp_path):
        report = report_record(
            estimator="kr",
            experiment="drop",
            metrics={"rmse_curve[drop=1]": 0.0012, "hit_rate": 0.9},
            per_bucket={"<2Y": {"rmse_curve": 0.001}},
            provenance={"seed": 7},
            details=[],
        )
        jpath = tmp_path / "r.json"
        cpath = tmp_path / "r.csv"
        write_report(report, jpath, format="json")
        write_report(report, cpath, format="csv")
        import json

        data = json.loads(jpath.read_text())
        assert list(data) == ["estimator", "experiment", "metrics", "per_bucket", "provenance", "details"]
        assert data["metrics"]["hit_rate"] == 0.9
        lines = cpath.read_text().splitlines()
        assert lines[0] == "experiment,estimator,bucket,metric,value,seed"
        assert any(line.startswith("drop,kr,<2Y,rmse_curve,0.001,7") for line in lines)
