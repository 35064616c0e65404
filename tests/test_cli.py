"""Command-line interface: exit codes, file outputs, determinism."""

import argparse
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import curvekit
from curvekit import cli
from curvekit.cli import main


def run(argv):
    return main(argv)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def generate_day(workdir, name="day.json", regime="falling", bonds=12, seed=3, extra=()):
    code = run(["generate", "--regime", regime, "--bonds", str(bonds),
                "--seed", str(seed), "-o", name, *extra])
    assert code == 0
    return workdir / name


# On this day a KR fit with these flags has a discount that turns negative
# near 10Y, so its curve cannot be evaluated on the grid.
def unevaluable_kr_day(workdir):
    return generate_day(workdir, bonds=10, seed=4, extra=("--noise", "0.02", "--maturity-range", "0.1,5"))


UNEVALUABLE_KR = ("--kr-lambda", "1e-6", "--kr-a", "0.01")


class TestGenerate:
    def test_writes_requested_bond_count(self, workdir, capsys):
        path = generate_day(workdir, bonds=60, extra=("--maturity-range", "0.05,15"))
        data = json.loads(path.read_text())
        assert len(data["bonds"]) == 60
        assert "60 bonds" in capsys.readouterr().out

    def test_deterministic_output_bytes(self, workdir):
        a = generate_day(workdir, name="a.json", seed=7)
        b = generate_day(workdir, name="b.json", seed=7)
        assert a.read_bytes() == b.read_bytes()

    def test_single_bond_rejected(self, workdir, capsys):
        assert run(["generate", "--regime", "flat", "--bonds", "1", "-o", "x.json"]) == 2
        assert "n_bonds" in capsys.readouterr().err

    def test_unknown_regime_rejected(self, workdir):
        assert run(["generate", "--regime", "sideways", "-o", "x.json"]) == 2

    def test_unwritable_output(self, workdir):
        assert run(["generate", "--regime", "flat", "-o", "no-such-dir/x.json"]) == 3

    def test_non_finite_noise_exits_two(self, workdir, capsys):
        # NaN used to pass the ``< 0`` check and then skip the noise: a noise-free day, exit 0
        assert run(["generate", "--regime", "flat", "--noise", "nan", "-o", "x.json"]) == 2
        assert "price_noise_sd must be finite" in capsys.readouterr().err
        assert not (workdir / "x.json").exists()

    def test_negative_seed_exits_two(self, workdir, capsys):
        assert run(["generate", "--regime", "flat", "--seed", "-1", "-o", "x.json"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (("--spread", "-100"), "overflow"),
        (("--base-rate", "-100"), "overflow"),
        (("--maturity-range", "1e-300,1e-299"), "must exceed 1e-9"),
        (("--coupon-range", "0,1e308"), "overflow"),
        (("--spread", "nan"), "spread_over_benchmark must be finite"),
        (("--base-rate", "inf"), "base_rate must be finite"),
        (("--format", "csv", "--date", "a\nb,c"), "date"),
        (("--format", "csv", "--date", " padded "), "date"),
    ])
    def test_out_of_range_day_exits_two_with_one_line_and_writes_nothing(self, workdir, capsys, flags, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would leak to the terminal
            assert run(["generate", "--regime", "falling", *flags, "-o", "x.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert list(workdir.iterdir()) == []

    def test_csv_format(self, workdir):
        generate_day(workdir, name="day.csv", extra=("--format", "csv"))
        assert (workdir / "day.benchmark.csv").exists()


class TestFit:
    def test_nn_defaults_echoed_in_model_file(self, workdir):
        path = generate_day(workdir, bonds=8)
        assert run(["fit", str(path), "--estimator", "nn", "--nn-epochs", "50"]) == 0
        model = json.loads((workdir / "day.nn.model.json").read_text())
        echo = model["config_echo"]
        assert model["estimator"] == "nn"
        assert echo["learning_rate"] == 1e-8
        assert echo["gamma1"] == 1e3
        assert echo["gamma2"] == 1e4
        assert model["H"] == 3
        samples = (workdir / "day.nn.samples.csv").read_text().splitlines()
        assert samples[0] == "tenor,yield,benchmark_yield"
        assert len(samples) > 300  # 26 grid tenors + 0.1Y-spaced dense sampling

    def test_nss_on_five_bonds_exits_four(self, workdir, capsys):
        path = generate_day(workdir, bonds=5)
        assert run(["fit", str(path), "--estimator", "nss"]) == 4
        assert "6 bonds" in capsys.readouterr().err

    def test_bootstrap_on_zero_coupon_market_prints_tiny_rmse(self, workdir, capsys):
        path = generate_day(workdir, regime="flat", bonds=10,
                            extra=("--coupon-range", "0,0", "--spread", "0"))
        assert run(["fit", str(path), "--estimator", "bootstrap"]) == 0
        out = capsys.readouterr().out
        match = re.search(r"RMSE_ytm = ([0-9.e+-]+)", out)
        assert match, out
        assert float(match.group(1)) <= 1e-6

    def test_missing_snapshot_exits_three(self, workdir):
        assert run(["fit", "absent.json", "--estimator", "kr"]) == 3

    def test_missing_snapshot_is_named_once(self, workdir, capsys):
        assert run(["fit", "absent.json", "--estimator", "kr"]) == 3
        assert capsys.readouterr().err == "error: cannot read absent.json: No such file or directory\n"

    def test_missing_csv_companion_is_named(self, workdir, capsys):
        generate_day(workdir, name="day.csv", extra=("--format", "csv"))
        (workdir / "day.benchmark.csv").unlink()
        capsys.readouterr()
        assert run(["fit", "day.csv", "--estimator", "bootstrap"]) == 3
        assert capsys.readouterr().err == "error: cannot read day.benchmark.csv: No such file or directory\n"

    def test_bad_kr_lambda_exits_two(self, workdir):
        path = generate_day(workdir)
        assert run(["fit", str(path), "--estimator", "kr", "--kr-lambda", "-1"]) == 2

    def test_zero_kr_a_exits_two(self, workdir, capsys):
        path = generate_day(workdir)
        assert run(["fit", str(path), "--estimator", "kr", "--kr-a", "0"]) == 2
        assert "a > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("price", ['"abc"', "Infinity"])
    def test_non_numeric_or_infinite_price_exits_three(self, workdir, capsys, price):
        path = generate_day(workdir)
        text = path.read_text()
        first = json.loads(text)["bonds"][0]["market_price"]
        path.write_text(text.replace(f'"market_price": {first!r}', f'"market_price": {price}', 1))
        assert run(["fit", str(path), "--estimator", "kr"]) == 3
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_fit_outputs_are_deterministic(self, workdir):
        path = generate_day(workdir, bonds=8)
        assert run(["fit", str(path), "--estimator", "kr", "-o", "m1.json", "--samples", "s1.csv"]) == 0
        assert run(["fit", str(path), "--estimator", "kr", "-o", "m2.json", "--samples", "s2.csv"]) == 0
        assert (workdir / "m1.json").read_bytes() == (workdir / "m2.json").read_bytes()
        assert (workdir / "s1.csv").read_bytes() == (workdir / "s2.csv").read_bytes()

    def test_overflowing_price_error_exits_four(self, workdir, capsys):
        # a price error past ~1e154 squares to inf, which is a divergence, not a traceback
        path = generate_day(workdir, bonds=15, seed=33, extra=("--noise", "0.002"))
        argv = ["fit", str(path), "--estimator", "nn", "--nn-lr", "1e-3",
                "--nn-regularizer", "per_epoch", "--nn-epochs", "30"]
        # the overflow on the way is not a warning on stderr: the typed error is all that is printed
        assert run(argv) == 4
        assert capsys.readouterr().err == "fit failed: training diverged: non-finite loss at epoch 1, bond B006\n"

    # every estimator's flags are checked, whichever estimators are named
    @pytest.mark.parametrize("argv", [
        ["fit", "absent.json", "--estimator", "nn", "--nn-gamma1", "nan"],
        ["fit", "absent.json", "--estimator", "nn", "--nn-gamma2", "inf"],
        ["fit", "absent.json", "--estimator", "nn", "--nn-lr", "inf"],
        ["fit", "absent.json", "--estimator", "bootstrap", "--nn-lr", "inf"],
    ])
    def test_non_finite_nn_knob_exits_two_before_reading(self, workdir, capsys, argv):
        assert run(argv) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["fit", "absent.json", "--estimator", "nn"],
                                         ["experiment", "hyperscan", "absent.json"]])
    @pytest.mark.parametrize("scale", ["-1", "nan", "inf"])
    def test_bad_nn_init_scale_exits_two_before_reading(self, workdir, capsys, command, scale):
        assert run([*command, "--nn-init-scale", scale]) == 2
        assert "init_scale must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["fit", "absent.json", "--estimator", "kr", "--kr-lambda", "inf"], "kr lambda must be finite, got inf"),
        (["experiment", "loo", "absent.json", "--estimators", "bootstrap", "--kr-lambda", "-1"],
         "kr lambda must be > 0, got -1.0"),
        (["experiment", "stability", "a.json", "b.json", "--estimators", "nss", "--kr-a", "0"],
         "kernel weights must be finite with a > 0"),
    ])
    def test_infinite_kr_lambda_exits_two_before_reading(self, workdir, capsys, argv, message):
        assert run(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_kr_kernel_exits_four(self, workdir, capsys):
        # the overflow is reported once, as the failed fit, and no numpy warning reaches stderr
        path = generate_day(workdir)
        assert run(["fit", str(path), "--estimator", "kr", "--kr-b", "1e-8"]) == 4
        assert capsys.readouterr().err == (
            "fit failed: kernel matrix is not finite for a=1.0, b=1e-08; raise b or lower a\n")

    def test_curve_that_leaves_the_yield_bracket_is_a_failed_fit(self, workdir, capsys):
        # every loss stays finite, but the trained curve sits at 1.87e14 at every tenor
        path = generate_day(workdir)
        argv = ["fit", str(path), "--estimator", "nn", "--nn-lr", "1e-3",
                "--nn-regularizer", "per_epoch", "--nn-epochs", "30"]
        assert run(argv) == 4
        err = capsys.readouterr().err
        assert re.fullmatch(r"fit failed: training diverged: yield 1\.87\d*e\+14 at the maturity of bond B\d+ "
                            r"lies outside \[-0\.1, 1\.0\]\n", err), err
        assert not (workdir / "day.nn.model.json").exists()
        assert not (workdir / "day.nn.samples.csv").exists()

    def test_curve_that_cannot_be_evaluated_is_a_failed_fit(self, workdir, capsys):
        path = unevaluable_kr_day(workdir)
        assert run(["fit", str(path), "--estimator", "kr", *UNEVALUABLE_KR]) == 4
        err = capsys.readouterr().err
        assert re.fullmatch(r"fit failed: fitted discount is non-positive at \d+ of 309 tenors, "
                            r"the first at t = [0-9.]+\n", err), err
        assert not (workdir / "day.kr.model.json").exists()
        assert not (workdir / "day.kr.samples.csv").exists()

    def test_bond_without_a_flat_yield_is_a_failed_fit(self, workdir, capsys):
        # the bootstrap skips the unpriceable bond, but the fit's score needs its flat yield
        path = generate_day(workdir, bonds=10, seed=3)
        data = json.loads(path.read_text())
        bond = next(b for b in data["bonds"] if b["id"] == "B004")
        bond["market_price"] *= 3
        path.write_text(json.dumps(data))
        assert run(["fit", str(path), "--estimator", "bootstrap"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("fit failed: bond B004: price ") and "outside attainable range" in err, err
        assert not (workdir / "day.bootstrap.model.json").exists()
        assert not (workdir / "day.bootstrap.samples.csv").exists()

    @pytest.mark.parametrize("command", [["fit", "absent.json", "--estimator", "nss"],
                                         ["experiment", "drop", "absent.json", "--estimators", "kr"]])
    def test_negative_seed_exits_two_before_reading(self, workdir, capsys, command):
        assert run([*command, "--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err


def strip_timestamp(path):
    data = json.loads(path.read_text())
    data["provenance"].pop("timestamp", None)
    return json.dumps(data, sort_keys=True)


class TestExperiments:
    def test_perturb_reports_per_estimator(self, workdir):
        path = generate_day(workdir, bonds=10)
        code = run(["experiment", "perturb", str(path), "--bumps", "0.03,0.05,0.10",
                    "--estimators", "bootstrap,kr", "-o", "rep"])
        assert code == 0
        for name in ("bootstrap", "kr"):
            report = json.loads((workdir / f"rep.perturb.{name}.json").read_text())
            bumps = [row["bump"] for row in report["details"]]
            assert bumps == [0.03, 0.05, 0.10]
            assert len(report["metrics"]) == 6  # rmse + mad per bump

    def test_perturb_defaults_to_longest_bond(self, workdir):
        path = generate_day(workdir, bonds=10)
        assert run(["experiment", "perturb", str(path), "--estimators", "bootstrap", "-o", "rep"]) == 0
        report = json.loads((workdir / "rep.perturb.bootstrap.json").read_text())
        data = json.loads(path.read_text())
        longest = max(data["bonds"], key=lambda b: b["maturity"])["id"]
        assert report["provenance"]["bond"] == longest

    def test_drop_shares_drop_sets_between_estimators(self, workdir):
        path = generate_day(workdir, bonds=10)
        code = run(["experiment", "drop", str(path), "--counts", "1,2", "--mc", "3",
                    "--seed", "5", "--estimators", "bootstrap,kr", "-o", "rep"])
        assert code == 0
        reports = [json.loads((workdir / f"rep.drop.{n}.json").read_text()) for n in ("bootstrap", "kr")]
        sets = [
            [rep["dropped_ids"] for block in r["details"] for rep in block["replications"]]
            for r in reports
        ]
        assert sets[0] == sets[1]

    def test_stability_over_three_days(self, workdir):
        paths = []
        for i in range(3):
            code = run(["generate", "--regime", "falling", "--bonds", "10", "--seed", "70",
                        "--base-rate", str(0.03 + 0.0005 * i), "--date", f"day-{i}",
                        "-o", f"d{i}.json"])
            assert code == 0
            paths.append(f"d{i}.json")
        code = run(["experiment", "stability", *paths, "--estimators", "bootstrap", "-o", "rep"])
        assert code == 0
        report = json.loads((workdir / "rep.stability.bootstrap.json").read_text())
        assert report["metrics"]["hit_rate"] is not None
        assert set(report["per_bucket"]) == {"Full", "<2Y", "2Y-10Y", ">10Y"}

    def test_stability_summary_prints_a_sub_basis_point_threshold(self, workdir, capsys):
        paths = [str(generate_day(workdir, f"d{i}.json", bonds=8, seed=70 + i)) for i in range(2)]
        code = run(["experiment", "stability", *paths, "--estimators", "bootstrap", "--threshold", "0.00004"])
        assert code == 0
        assert "hit rate @ 0.4 bp: " in capsys.readouterr().out

    def test_loo_report_shape(self, workdir):
        path = generate_day(workdir, bonds=12)
        code = run(["experiment", "loo", str(path), "--mc", "5",
                    "--estimators", "kr", "-o", "rep", "--seed", "2"])
        assert code == 0
        report = json.loads((workdir / "rep.loo.kr.json").read_text())
        assert set(report["per_bucket"]) == {"Full", "<2Y", "2Y-10Y", ">10Y"}
        assert len(report["details"]) == 5

    def test_loo_csv_format(self, workdir):
        path = generate_day(workdir, bonds=12)
        code = run(["experiment", "loo", str(path), "--mc", "4", "--estimators", "kr",
                    "-o", "rep", "--format", "csv"])
        assert code == 0
        lines = (workdir / "rep.loo.kr.csv").read_text().splitlines()
        assert lines[0] == "experiment,estimator,bucket,metric,value,seed"

    def test_every_csv_output_ends_its_lines_in_crlf(self, workdir):
        # and every JSON output is indented by 2 and ends in one newline; the CLI golden re-reads
        # both formats before it compares them, so it cannot see either
        generate_day(workdir, name="day.json", bonds=10)
        path = generate_day(workdir, name="day.csv", bonds=10, extra=("--format", "csv"))
        for estimator in ("bootstrap", "kr"):
            assert run(["fit", str(path), "--estimator", estimator]) == 0
        assert run(["experiment", "perturb", str(path), "--estimators", "kr", "-o", "rep", "--format", "csv"]) == 0
        assert run(["experiment", "loo", str(path), "--estimators", "kr", "--mc", "2", "-o", "rep"]) == 0
        written = sorted(p.name for p in workdir.iterdir())
        assert written == sorted(["day.json", "day.csv", "day.benchmark.csv", "rep.perturb.kr.csv", "rep.loo.kr.json",
                                  *(f"day.{e}.{kind}" for e in ("bootstrap", "kr")
                                    for kind in ("model.json", "samples.csv"))])
        for name in written:
            data = (workdir / name).read_bytes()
            if name.endswith(".csv"):
                lines = data.splitlines(keepends=True)
                assert len(lines) > 1
                assert [line for line in lines if not line.endswith(b"\r\n")] == [], name
            else:
                text = data.decode()
                assert text == json.dumps(json.loads(text), indent=2) + "\n", name

    def test_hyperscan_grid(self, workdir, capsys):
        path = generate_day(workdir, bonds=8)
        code = run(["experiment", "hyperscan", str(path), "--lr", "1e-7,1e-8",
                    "--epochs", "20,40", "-o", "rep"])
        assert code == 0
        out = capsys.readouterr().out
        assert "RMSE_ytm grid" in out
        report = json.loads((workdir / "rep.hyperscan.nn.json").read_text())
        assert len(report["details"]) == 4

    @pytest.mark.parametrize("argv", [["perturb"], ["drop", "--counts", "1", "--mc", "1"]])
    def test_failed_base_fit_exits_four(self, workdir, capsys, argv):
        path = generate_day(workdir, bonds=5)
        kind, *flags = argv
        assert run(["experiment", kind, str(path), "--estimators", "nss", *flags]) == 4
        assert "error: base fit failed for nss: >= 6 bonds" in capsys.readouterr().err
        assert not list(workdir.glob("report.*"))

    @pytest.mark.parametrize("argv", [["perturb"], ["drop", "--counts", "1", "--mc", "1"]])
    def test_unevaluable_base_curve_exits_four(self, workdir, capsys, argv):
        path = unevaluable_kr_day(workdir)
        kind, *flags = argv
        assert run(["experiment", kind, str(path), "--estimators", "kr", *UNEVALUABLE_KR, *flags]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: base fit failed for kr: fitted discount is non-positive at ")
        assert not list(workdir.glob("report.*"))

    def test_unevaluable_stability_days_are_skipped(self, workdir, capsys):
        path = unevaluable_kr_day(workdir)
        assert run(["experiment", "stability", str(path), str(path), "--estimators", "kr", *UNEVALUABLE_KR]) == 4
        out, err = capsys.readouterr()
        assert "2 fit(s) failed" in err
        # no day pair was fitted, so every bucket's hit rate is n/a
        assert "hit rate @ 10 bp: Full: n/a, <2Y: n/a, 2Y-10Y: n/a, >10Y: n/a\n" in out, out
        report = json.loads((workdir / "report.stability.kr.json").read_text())
        skipped = report["details"][2]["skipped"]
        assert len(skipped) == 2 and all("fitted discount is non-positive" in s for s in skipped)

    @pytest.mark.parametrize("argv", [
        ["drop", "--counts", "-1"],
        ["drop", "--counts", "1", "--mc", "0"],
        ["loo", "--mc", "-1"],
        ["perturb", "--bumps", "0.03,-1"],
        ["perturb", "--bumps", "0.03,inf"],
        ["perturb", "--bumps", "1e307"],
    ])
    def test_bad_replicate_or_bump_arguments_exit_two(self, workdir, capsys, monkeypatch, argv):
        path = generate_day(workdir, bonds=10)
        kind, *flags = argv
        monkeypatch.setattr(cli, "fit_kr", lambda *a: pytest.fail("a fit ran before the arguments were checked"))
        assert run(["experiment", kind, str(path), "--estimators", "kr", *flags]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(workdir.glob("report.*"))

    def test_key_error_in_an_adapter_escapes_main(self, workdir, monkeypatch):
        # an unknown --bond is a ValidationError (exit 2); any other KeyError is a fault, not an argument error
        path = generate_day(workdir, bonds=10)

        def faulty(args, snapshots, estimator):
            raise KeyError("fault")

        monkeypatch.setitem(cli.ADAPTERS, "drop", faulty)
        with pytest.raises(KeyError, match="fault"):
            run(["experiment", "drop", str(path), "--estimators", "kr"])

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-1"])
    def test_bad_stability_threshold_exits_two_before_fitting(self, workdir, capsys, monkeypatch, threshold):
        days = [str(generate_day(workdir, name=f"d{i}.json", seed=70 + i)) for i in range(2)]
        monkeypatch.setattr(cli, "fit_kr", lambda *a: pytest.fail("a fit ran before the arguments were checked"))
        assert run(["experiment", "stability", *days, "--estimators", "kr", "--threshold", threshold]) == 2
        assert capsys.readouterr().err == f"error: threshold must be finite and >= 0, got {float(threshold)}\n"
        assert not list(workdir.glob("report.*"))

    @pytest.mark.parametrize("argv", [
        ["perturb", "--bumps", ""],
        ["perturb", "--bumps", "0.03,0.030"],
        ["perturb", "--estimators", "kr,kr"],
        ["perturb", "--estimators", ""],
        ["loo", "--estimators", ","],
        ["drop", "--counts", ","],
        ["drop", "--counts", "1,1"],
        ["hyperscan", "--lr", ""],
        ["hyperscan", "--lr", "1e-7,1.0e-7"],
        ["hyperscan", "--epochs", "5,5"],
        ["hyperscan", "--gamma1", "0,0.0"],
        ["hyperscan", "--gamma2", ""],
    ])
    def test_empty_or_repeated_list_flag_exits_two(self, workdir, capsys, argv):
        path = generate_day(workdir, bonds=8)
        kind, *flags = argv
        # cheap settings first; a flag given again later overrides them
        cheap = ["--epochs", "2"] if kind == "hyperscan" else ["--estimators", "kr"]
        assert run(["experiment", kind, str(path), *cheap, *flags]) == 2
        assert "error: " in capsys.readouterr().err
        assert not list(workdir.glob("report.*"))

    def test_hyperscan_rejects_flags_it_does_not_read(self, workdir):
        path = generate_day(workdir, bonds=8)
        for flag in ("--nss-starts", "--nss-max-iter", "--kr-lambda", "--kr-a", "--kr-b",
                     "--nn-lr", "--nn-epochs", "--nn-gamma1", "--nn-gamma2"):
            assert run(["experiment", "hyperscan", str(path), "--epochs", "5", flag, "1"]) == 2
        assert not list(workdir.glob("report.*"))

    def test_rerun_overwrites_byte_identical_modulo_timestamp(self, workdir):
        path = generate_day(workdir, bonds=10)
        argv = ["experiment", "loo", str(path), "--mc", "4", "--estimators", "kr",
                "-o", "rep", "--seed", "9"]
        assert run(argv) == 0
        first = strip_timestamp(workdir / "rep.loo.kr.json")
        assert run(argv) == 0
        assert strip_timestamp(workdir / "rep.loo.kr.json") == first

    def test_default_bumps_rerun_writes_identical_reports(self, workdir):
        # one parser serves every command, so a parse must leave its defaults as they were
        path = generate_day(workdir, bonds=10)
        argv = ["experiment", "perturb", str(path), "--estimators", "bootstrap", "-o", "rep"]
        assert run(argv) == 0
        first = strip_timestamp(workdir / "rep.perturb.bootstrap.json")
        assert json.loads(first)["provenance"]["bumps"] == [0.03, 0.05, 0.10]
        assert run(argv) == 0
        assert strip_timestamp(workdir / "rep.perturb.bootstrap.json") == first


def test_main_builds_the_parser_once(workdir, monkeypatch):
    cli.build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    assert run(["generate", "--regime", "flat", "--bonds", "5", "-o", "a.json"]) == 0
    once = len(built)  # the top-level parser and its subcommands'
    assert once > 0
    assert run(["fit", "a.json", "--estimator", "bootstrap"]) == 0
    assert len(built) == once


# scipy is a test-only dependency: the commands run with its import blocked
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from curvekit.cli import main
for argv in (
    ["generate", "--regime", "falling", "--bonds", "12", "--seed", "3", "-o", "day.json"],
    ["fit", "day.json", "--estimator", "kr", "-o", "kr.model.json"],
    ["experiment", "loo", "day.json", "--estimators", "bootstrap,kr", "--mc", "2", "-o", "rep"],
):
    code = main(argv)
    if code != 0:
        sys.exit(f"{argv[:2]} exited {code}")
"""


def test_commands_run_without_scipy(workdir):
    src = str(Path(curvekit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert (workdir / "kr.model.json").exists() and (workdir / "rep.loo.kr.json").exists()


# A command's set-up time is interpreter start plus this import, so the import
# leaves process and signal machinery to the code that forks (evaluation.fan_out)
IMPORT_SET = """
import sys
import numpy
with_numpy = set(sys.modules)
import curvekit.cli
print(" ".join(sorted(set(sys.modules) - with_numpy)))
"""

NOT_AT_IMPORT = ("multiprocessing", "concurrent", "signal", "subprocess", "scipy")


def test_importing_the_cli_loads_no_process_machinery_or_scipy():
    src = str(Path(curvekit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", IMPORT_SET], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    added = done.stdout.split()
    assert "curvekit.cli" in added
    assert [name for name in added if name.split(".")[0] in NOT_AT_IMPORT] == []
