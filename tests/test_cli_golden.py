"""Golden runs of ``curvekit experiment``: exit code, stdout, stderr and reports.

``tests/data/cli_golden.json`` holds one record per run in ``RUNS``: the exit
code (or the name of the exception that escaped ``main``), stdout, stderr and
every report file the run wrote. JSON reports are stored without
``provenance.timestamp``; CSV reports verbatim. Each run starts in a fresh
directory holding copies of the snapshot files from ``DAYS``, so the argv
echoed into the provenance is the same every time.

Runs listed in ``CHANGED`` behave differently from the recorded data on
purpose; each entry states the new exit code and a piece of its stderr. The
rewrite below keeps their recorded data, so they stay compared against it.

Rewrite the data file, only after a deliberate change of output, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
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

# run -> (exit code, piece of stderr). None of these runs writes a report.
CHANGED = {
    # a failed base fit is a compute failure in every protocol, as in perturb
    "drop-nss-five-bonds": (4, "error: base fit failed for nss:"),
    # replicate and bump arguments are checked before the first fit
    "drop-negative-count": (2, "drop counts must be >= 0"),
    "drop-negative-mc": (2, "n_mc must be >= 1"),
    "loo-negative-mc": (2, "n_mc must be >= 1"),
    "perturb-bump-minus-one": (2, "bumps must be > -1"),
    # hyperscan takes only the NN flags it reads
    "hyperscan-ignored-flags": (2, "unrecognized arguments: --nn-lr 1e-3 --kr-lambda 5"),
    # --estimators is checked before any file is read
    "bogus-estimator-missing-file": (2, "unknown estimator 'bogus'"),
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


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


@pytest.fixture(scope="module")
def days(tmp_path_factory):
    return make_days(tmp_path_factory.mktemp("golden"))


def test_data_covers_every_run(golden):
    assert sorted(golden) == sorted(RUNS)
    assert set(CHANGED) <= set(RUNS)


@pytest.mark.parametrize("name", sorted(set(RUNS) - set(CHANGED)))
def test_unchanged_run_matches_golden(name, golden, days, tmp_path):
    assert run_case(RUNS[name], days, tmp_path / "run") == golden[name]


@pytest.mark.parametrize("name", sorted(CHANGED))
def test_changed_run(name, golden, days, tmp_path):
    code, message = CHANGED[name]
    got = run_case(RUNS[name], days, tmp_path / "run")
    assert got != golden[name]
    assert (got["exit"], got["raised"]) == (code, None)
    assert message in got["stderr"]
    assert got["stdout"] == "" and got["files"] == {}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        day_dir = make_days(root)
        recorded = json.loads(DATA.read_text()) if DATA.exists() else {}
        records = {
            name: recorded[name] if name in CHANGED and name in recorded else run_case(argv, day_dir, root / name)
            for name, argv in RUNS.items()
        }
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA} ({len(records)} runs)", file=sys.stderr)
