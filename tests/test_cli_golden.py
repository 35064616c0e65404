"""Golden runs of ``curvekit experiment``: exit code, stdout, stderr and reports.

``tests/data/cli_golden.json`` holds one record per run in ``RUNS``: the exit
code (or the name of the exception that escaped ``main``), stdout, stderr and
every report file the run wrote. JSON reports are stored without
``provenance.timestamp``; CSV reports verbatim. Each run starts in a fresh
directory holding copies of the snapshot files from ``DAYS``, so the argv
echoed into the provenance is the same every time.

A run must match its record exactly, with one exception: the numbers in
bootstrap, KR and NN reports (``rep.*.bootstrap.*``, ``rep.*.kr.*``,
``rep.*.nn.*``) are compared within ``REL_TOL`` of the recorded value plus
``ABS_TOL``. KR and NN numbers come out of BLAS, whose kernels differ by CPU;
the bootstrap's Newton roots keep the last bits of numpy's ``exp``, whose
AVX-512 and AVX2 paths round differently. The floor is for difference
metrics (curve RMSE and MAD between two fits), which sit far below the
yields they are taken from. Under ``OPENBLAS_CORETYPE`` set to Haswell or
SandyBridge the largest drift from the record was 7.9e-14 relative (a KR
number) and 1.7e-17 absolute, with the bootstrap's numbers exact; on numpy's
AVX2 path KR numbers moved by up to 1.0e-13 relative and bootstrap numbers
by up to 5.3e-16 absolute. Exit codes, stdout, stderr and every other
report stay exact.

Rewrite the data file, only after a deliberate change of output, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import re
import shutil
import sys
from pathlib import Path

import pytest

from curvekit.cli import main

DATA = Path(__file__).parent / "data" / "cli_golden.json"

DAYS = {
    "day.json": ("--regime", "falling", "--bonds", "10", "--seed", "3"),
    "short.json": ("--regime", "falling", "--bonds", "10", "--seed", "3", "--maturity-range", "0.1,9"),
    "five.json": ("--regime", "falling", "--bonds", "5", "--seed", "3"),
    **{
        f"s{i}.json": ("--regime", "falling", "--bonds", "10", "--seed", "70",
                       "--base-rate", str(0.03 + 0.0005 * i), "--date", f"day-{i}")
        for i in range(3)
    },
}

REL_TOL = 1e-11
ABS_TOL = 1e-15
NUMERIC_REPORT = re.compile(r"rep\.\w+\.(bootstrap|kr|nn)\.(json|csv)")

BOOTSTRAP_KR = ("--estimators", "bootstrap,kr")

_REPORTS = {
    "perturb": ("perturb", "day.json", "--bumps", "0.03,0.05,0.10", *BOOTSTRAP_KR),
    "drop": ("drop", "day.json", "--counts", "1,2", "--mc", "2", "--seed", "5", "--kr-lambda", "1e-3",
             *BOOTSTRAP_KR),
    "stability": ("stability", "s0.json", "s1.json", "s2.json", *BOOTSTRAP_KR),
    "loo": ("loo", "day.json", "--mc", "3", "--seed", "2", *BOOTSTRAP_KR),
    "hyperscan": ("hyperscan", "day.json", "--lr", "1e-7,1e-8", "--epochs", "20,40",
                  "--gamma1", "0,1e3", "--nn-regularizer", "per_epoch"),
}

RUNS = {
    **{
        f"{kind}-{fmt}": ("experiment", *argv, "-o", "rep", "--format", fmt)
        for kind, argv in _REPORTS.items()
        for fmt in ("json", "csv")
    },
    "unknown-bond": ("experiment", "perturb", "day.json", "--bond", "NOPE", *BOOTSTRAP_KR),
    "count-not-below-bonds": ("experiment", "drop", "day.json", "--counts", "10", *BOOTSTRAP_KR),
    "one-stability-day": ("experiment", "stability", "s0.json", *BOOTSTRAP_KR),
    "empty-loo-bucket": ("experiment", "loo", "short.json", "--bucket", ">10Y", *BOOTSTRAP_KR),
    "unknown-estimator": ("experiment", "loo", "day.json", "--estimators", "bogus"),
    "bad-kr-lambda": ("experiment", "perturb", "day.json", "--estimators", "kr", "--kr-lambda", "-1"),
    "bad-kr-lambda-after-bootstrap": ("experiment", "perturb", "day.json", *BOOTSTRAP_KR, "--kr-lambda", "-1"),
    "missing-file": ("experiment", "drop", "absent.json", "--estimators", "kr"),
    "bad-counts-text": ("experiment", "drop", "day.json", "--counts", "a"),
    "perturb-nss-five-bonds": ("experiment", "perturb", "five.json", "--estimators", "bootstrap,nss"),
    "drop-nss-five-bonds": ("experiment", "drop", "five.json", "--estimators", "nss",
                            "--counts", "1", "--mc", "1"),
    "drop-negative-count": ("experiment", "drop", "day.json", "--counts", "-1", "--estimators", "kr"),
    "drop-negative-mc": ("experiment", "drop", "day.json", "--counts", "1", "--mc", "-2", "--estimators", "kr"),
    "loo-negative-mc": ("experiment", "loo", "day.json", "--mc", "-1", "--estimators", "kr"),
    "perturb-bump-minus-one": ("experiment", "perturb", "day.json", "--bumps", "-1", "--estimators", "kr"),
    "hyperscan-ignored-flags": ("experiment", "hyperscan", "day.json", "--lr", "1e-7", "--epochs", "5",
                                "--nn-lr", "1e-3", "--kr-lambda", "5"),
    "bogus-estimator-missing-file": ("experiment", "loo", "absent.json", "--estimators", "bogus"),
}


@contextlib.contextmanager
def _in_dir(path: Path):
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(cwd)


def make_days(root: Path) -> Path:
    days = root / "days"
    days.mkdir()
    with _in_dir(days), contextlib.redirect_stdout(io.StringIO()):
        for name, flags in DAYS.items():
            assert main(["generate", *flags, "-o", name]) == 0
    return days


def _normalise(path: Path) -> str:
    text = path.read_text()
    if path.suffix != ".json":
        return text
    data = json.loads(text)
    data["provenance"].pop("timestamp")
    return json.dumps(data, indent=2) + "\n"


def run_case(argv, days: Path, workdir: Path) -> dict:
    """Run one argv in ``workdir`` (seeded with the day files) and record what it did."""
    workdir.mkdir()
    for day in days.iterdir():
        shutil.copy(day, workdir / day.name)
    out, err = io.StringIO(), io.StringIO()
    with _in_dir(workdir), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, raised = main(list(argv)), None
        except Exception as exc:  # recorded, so a traceback shows up as a difference
            code, raised = None, type(exc).__name__
    files = {
        p.name: _normalise(p) for p in sorted(workdir.iterdir()) if p.name not in DAYS
    }
    return {"argv": list(argv), "exit": code, "raised": raised,
            "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


def _parse(name: str, text: str):
    if name.endswith(".json"):
        return json.loads(text)
    return [[_number(cell) for cell in row] for row in csv.reader(io.StringIO(text))]


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _gaps(got, want, where: str):
    """Where ``got`` differs from ``want``: floats beyond the tolerance, anything else at all."""
    if isinstance(want, float) and isinstance(got, float):
        if not abs(got - want) <= REL_TOL * abs(want) + ABS_TOL:
            yield f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        for key in want:
            yield from _gaps(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        for i, (a, b) in enumerate(zip(got, want)):
            yield from _gaps(a, b, f"{where}[{i}]")
    elif got != want:
        yield f"{where}: {got!r} != {want!r}"


def assert_matches(got: dict, want: dict) -> None:
    """``got`` equals the record ``want``, bootstrap, KR and NN report numbers within the tolerance."""
    assert {**got, "files": sorted(got["files"])} == {**want, "files": sorted(want["files"])}
    for name, text in want["files"].items():
        if NUMERIC_REPORT.fullmatch(name):
            assert list(_gaps(_parse(name, got["files"][name]), _parse(name, text), name)) == []
        else:
            assert got["files"][name] == text, name


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


@pytest.fixture(scope="module")
def days(tmp_path_factory):
    return make_days(tmp_path_factory.mktemp("golden"))


def test_data_covers_every_run(golden):
    assert sorted(golden) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_golden(name, golden, days, tmp_path):
    assert_matches(run_case(RUNS[name], days, tmp_path / "run"), golden[name])


def test_blas_reports_are_compared_within_the_tolerance(golden):
    want = golden["drop-json"]
    report = json.loads(want["files"]["rep.drop.kr.json"])
    mad = report["metrics"]["mad[drop=1]"]
    report["metrics"]["mad[drop=1]"] = mad * (1 + 1e-13)
    near = {**want, "files": {**want["files"], "rep.drop.kr.json": json.dumps(report, indent=2) + "\n"}}
    assert_matches(near, want)
    report["metrics"]["mad[drop=1]"] = mad * (1 + 1e-9)
    far = {**want, "files": {**want["files"], "rep.drop.kr.json": json.dumps(report, indent=2) + "\n"}}
    with pytest.raises(AssertionError, match=re.escape("rep.drop.kr.json.metrics.mad[drop=1]")):
        assert_matches(far, want)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        day_dir = make_days(root)
        records = {name: run_case(argv, day_dir, root / name) for name, argv in RUNS.items()}
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA} ({len(records)} runs)", file=sys.stderr)
