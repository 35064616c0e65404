"""Whole fits fanned out to forked workers give the serial path's results, byte for byte.

NSS and NN replicates, and hyperscan's grid cells, are whole fits that
``evaluation.fan_out`` deals to ``min(usable CPUs, calls)`` workers.
``evaluation._usable_cpus`` is the one place that count comes from, so each
test forces it to 1 (the serial loop), 2 or 3 and compares what the command
prints and writes. Report timestamps are dropped before the comparison. After
every test no child process is left behind.
"""

import contextlib
import io
import json
import os
import shutil
import time
from functools import partial
from pathlib import Path

import pytest

from curvekit import TrainConfig, cli, evaluation, load_snapshot, train
from curvekit.cli import main
from curvekit.errors import DivergenceError, FitFailureError

WORKERS = (1, 2, 3)

DAYS = {
    "day.json": ("--bonds", "8", "--seed", "3", "--noise", "0.002"),
    "six.json": ("--bonds", "6", "--seed", "3"),
    "five.json": ("--bonds", "5", "--seed", "3"),
    **{f"s{i}.json": ("--bonds", "8", "--seed", "70", "--base-rate", str(0.03 + 0.0005 * i), "--date", f"day-{i}")
       for i in range(3)},
}

CHEAP = ("--nss-starts", "2", "--nss-max-iter", "200", "--nn-epochs", "5")
DIVERGING_NN = ("--nn-lr", "1e-4", "--nn-gamma1", "0", "--nn-gamma2", "0", "--nn-epochs", "5")

RUNS = {
    "perturb": ("perturb", "day.json", "--bumps", "0.03,0.05", "--estimators", "nss,nn", *CHEAP),
    "drop": ("drop", "day.json", "--counts", "1,2", "--mc", "2", "--seed", "4", "--estimators", "nss,nn", *CHEAP),
    "loo": ("loo", "day.json", "--mc", "3", "--estimators", "nss,nn", *CHEAP, "--format", "csv"),
    "stability": ("stability", "s0.json", "s1.json", "s2.json", "--estimators", "nss,nn", *CHEAP),
    "hyperscan": ("hyperscan", "day.json", "--lr", "1e-7,1e-8", "--epochs", "3,5", "--gamma1", "0,1e3"),
    # every replicate of six bonds less one fails, the base fit does not
    "drop-nss-six-bonds": ("drop", "six.json", "--counts", "1", "--mc", "3", "--estimators", "nss",
                           "--nss-starts", "2"),
    "drop-nss-five-bonds": ("drop", "five.json", "--counts", "1", "--mc", "2", "--estimators", "nss", *CHEAP),
    "loo-nn-diverges": ("loo", "day.json", "--mc", "3", "--estimators", "nn", *DIVERGING_NN),
    "hyperscan-diverges": ("hyperscan", "day.json", "--lr", "1e-4,1e-8", "--epochs", "5",
                           "--gamma1", "0", "--gamma2", "0"),
    # one training serves both epoch counts of a learning rate; at 1e-5 it diverges in epoch 6
    "hyperscan-diverges-between-checkpoints": ("hyperscan", "day.json", "--lr", "1e-5,1e-8", "--epochs", "3,10",
                                               "--gamma1", "0", "--gamma2", "0"),
}


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def days(tmp_path_factory):
    root = tmp_path_factory.mktemp("days")
    with in_dir(root), contextlib.redirect_stdout(io.StringIO()):
        for name, flags in DAYS.items():
            assert main(["generate", "--regime", "falling", *flags, "-o", name]) == 0
    return root


@contextlib.contextmanager
def in_dir(path: Path):
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(cwd)


def use_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(evaluation, "_usable_cpus", lambda: n)


def run(name: str, days: Path, workdir: Path) -> dict:
    """Run ``experiment <RUNS[name]>`` in a fresh ``workdir``: exit code, stdout, stderr and reports."""
    workdir.mkdir()
    for day in days.iterdir():
        shutil.copy(day, workdir / day.name)
    out, err = io.StringIO(), io.StringIO()
    with in_dir(workdir), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["experiment", *RUNS[name], "-o", "rep"])
    reports = {}
    for path in sorted(workdir.glob("rep.*")):
        text = path.read_text()
        if path.suffix == ".json":
            data = json.loads(text)
            data["provenance"].pop("timestamp")
            text = json.dumps(data, indent=2)
        reports[path.name] = text
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "reports": reports}


def runs_at_every_worker_count(name, days, tmp_path, monkeypatch) -> list[dict]:
    records = []
    for n in WORKERS:
        use_cpus(monkeypatch, n)
        records.append(run(name, days, tmp_path / f"cpus{n}"))
    return records


@pytest.mark.parametrize("name", sorted(RUNS))
def test_reports_match_at_every_worker_count(name, days, tmp_path, monkeypatch):
    serial, *fanned = runs_at_every_worker_count(name, days, tmp_path, monkeypatch)
    assert serial["reports"] or serial["exit"] == 4
    for record in fanned:
        assert record == serial


def test_failing_replicates_keep_their_messages(days, tmp_path, monkeypatch):
    for record in runs_at_every_worker_count("drop-nss-six-bonds", days, tmp_path, monkeypatch):
        assert record["exit"] == 4
        assert record["stderr"] == "warning: 3 fit(s) failed; counts recorded in the reports\n"
        [row] = json.loads(record["reports"]["rep.drop.nss.json"])["details"]
        assert [rep["error"] for rep in row["replications"]] == [">= 6 bonds required to fit 6 parameters, got 5"] * 3


def test_failed_base_fit_ends_the_run_at_every_worker_count(days, tmp_path, monkeypatch):
    for record in runs_at_every_worker_count("drop-nss-five-bonds", days, tmp_path, monkeypatch):
        assert (record["exit"], record["reports"]) == (4, {})
        assert record["stderr"] == "error: base fit failed for nss: >= 6 bonds required to fit 6 parameters, got 5\n"


def test_diverging_nn_replicates_come_back_from_the_workers(days, tmp_path, monkeypatch):
    # a DivergenceError survives the pickle, so no replicate is fitted twice
    log = tmp_path / "fits.log"
    original = cli.train

    def counted(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(".")
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "train", counted)
    for record in runs_at_every_worker_count("loo-nn-diverges", days, tmp_path, monkeypatch):
        assert record["exit"] == 4
        errors = [rep["error"] for rep in json.loads(record["reports"]["rep.loo.nn.json"])["details"]]
        assert len(errors) == 3 and all(e.startswith("training diverged: ") for e in errors)
    assert len(log.read_text()) == 3 * len(WORKERS)


def test_each_checkpoint_of_a_diverging_training_keeps_its_own_outcome(days, tmp_path, monkeypatch):
    with pytest.raises(DivergenceError) as own:
        train(load_snapshot(days / "day.json"), TrainConfig(learning_rate=1e-5, epochs=10, gamma1=0.0, gamma2=0.0))
    for record in runs_at_every_worker_count("hyperscan-diverges-between-checkpoints", days, tmp_path, monkeypatch):
        assert record["exit"] == 4
        rows = {(row["lr"], row["epochs"]): row for row in
                json.loads(record["reports"]["rep.hyperscan.nn.json"])["details"]}
        assert rows[1e-5, 3]["error"] is None and rows[1e-5, 3]["rmse_ytm"] > 0
        assert (rows[1e-5, 10]["error"], rows[1e-5, 10]["rmse_ytm"]) == (str(own.value), None)
        assert [rows[1e-8, e]["error"] for e in (3, 10)] == [None, None]


def test_a_child_that_dies_is_refit_by_the_parent(days, tmp_path, monkeypatch):
    use_cpus(monkeypatch, 1)
    serial = run("drop", days, tmp_path / "serial")
    parent = os.getpid()
    for name in ("fit_nss", "train"):
        original = getattr(cli, name)

        def dies_in_a_child(*args, _original=original, **kwargs):
            if os.getpid() != parent:
                os._exit(9)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, dies_in_a_child)
    for n in WORKERS[1:]:
        use_cpus(monkeypatch, n)
        assert run("drop", days, tmp_path / f"cpus{n}") == serial


# ---------------------------------------------------------------------------
# fan_out itself
# ---------------------------------------------------------------------------

def pid_pair():
    return os.getpid(), None


def test_usable_cpus_follow_the_affinity_mask():
    assert evaluation._usable_cpus() == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("n, calls, children", [(1, 5, 0), (2, 5, 1), (3, 7, 2), (3, 2, 1), (3, 1, 0)])
def test_calls_are_dealt_round_robin(monkeypatch, n, calls, children):
    use_cpus(monkeypatch, n)
    pids = [pid for pid, _ in evaluation.fan_out([pid_pair] * calls)]
    workers = children + 1
    shares = [set(pids[k::workers]) for k in range(workers)]  # the pids that ran each worker's calls
    assert shares[0] == {os.getpid()}
    assert all(len(share) == 1 for share in shares) and len(set().union(*shares)) == workers


@pytest.mark.parametrize("n", WORKERS)
def test_an_error_outside_the_guard_is_raised_in_the_parent(monkeypatch, n):
    use_cpus(monkeypatch, n)

    def fails(i):
        raise ZeroDivisionError(f"call {i} raised in {os.getpid()}")

    # the first call to raise in call order, raised again here, as the serial loop raises it
    with pytest.raises(ZeroDivisionError, match=f"^call 1 raised in {os.getpid()}$"):
        list(evaluation.fan_out([pid_pair, partial(fails, 1), pid_pair, partial(fails, 3)]))


def _refuse():
    raise RuntimeError("this result does not unpickle")


class Unpicklable:
    def __init__(self):
        self.pid = os.getpid()

    def __reduce__(self):
        return _refuse, ()


@pytest.mark.parametrize("n", WORKERS[1:])
def test_a_result_that_does_not_unpickle_is_computed_again(monkeypatch, n):
    use_cpus(monkeypatch, n)
    results = list(evaluation.fan_out([lambda: (Unpicklable(), None)] * 4))
    assert [score.pid for score, _ in results] == [os.getpid()] * 4


@pytest.mark.parametrize("n", WORKERS[1:])
def test_a_guarded_failure_comes_back_from_a_child(monkeypatch, n):
    use_cpus(monkeypatch, n)
    parent = os.getpid()
    results = list(evaluation.fan_out([lambda: (None, FitFailureError(str(os.getpid() == parent)))] * 3))
    assert [str(exc) for _, exc in results] == ["True", "False", "False" if n == 3 else "True"]


@pytest.mark.parametrize("n", WORKERS)
def test_a_failed_first_call_stops_the_others(monkeypatch, n):
    use_cpus(monkeypatch, n)

    def slow():
        time.sleep(60)
        return 1, None

    start = time.monotonic()
    results = evaluation.fan_out([lambda: (None, FitFailureError("base")), *[slow] * 4], stop_on_failed_first=True)
    _, exc = next(results)  # a caller raises on it and asks for nothing more
    assert str(exc) == "base" and time.monotonic() - start < 30


def test_the_calls_of_a_worker_that_cannot_fork_run_in_the_parent(monkeypatch):
    use_cpus(monkeypatch, 3)
    forks = iter([os.fork])

    def fork():  # the first fork succeeds, the second finds no process to spare
        return next(forks, _no_process)()

    def _no_process():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    pids = [pid for pid, _ in evaluation.fan_out([pid_pair] * 6)]
    assert pids[0::3] == pids[2::3] == [os.getpid()] * 2
    assert len(set(pids[1::3])) == 1 and pids[1] != os.getpid()


def test_an_interrupted_parent_kills_and_reaps_its_children(monkeypatch):
    use_cpus(monkeypatch, 3)
    parent = os.getpid()

    def call():
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        evaluation.fan_out([call] * 3)
    assert time.monotonic() - start < 30
