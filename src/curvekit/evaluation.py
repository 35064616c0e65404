"""Metrics and experiment protocols for comparing curve estimators.

Covers yield-space accuracy (RMSE against per-bond flat yields), curve-space
distances on a fixed tenor grid (RMSE and maximum absolute difference),
single-bond price perturbation, random bond-drop Monte Carlo, day-over-day
stability with hit rates, and leave-one-out accuracy by maturity bucket.
Each protocol returns the plain records (dicts, and tuples of dicts) that
its report stores; its docstring names their keys. A report is a plain
record too: ``report_record`` builds it, and ``write_report`` writes it.

A metric evaluates a curve with one ``YieldCurve.yields`` call over its grid
or bond maturities. ``refit`` is the one rule for what a fit is: the estimator
fits and the caller's score is taken under one guard, so a fitted curve that
cannot be evaluated or scored counts as a failed fit. Every protocol fit, and
every fit of the command line, goes through it; perturb, drop, stability and
leave-one-out refit their replicates of one day through ``refit_many``, which
applies that guard to each replicate and lets an estimator reuse the day's
work (``Estimator.reuse``). The unperturbed day that perturb and drop
compare against is their replicate 0; stability's days are replicates of its
first day. Replicates of an estimator without that reuse are whole fits, and
``fan_out`` spreads them over the CPUs this process may use, in forked
workers, with the results of the serial loop.
"""

from __future__ import annotations

import math
import os
import pickle
from contextlib import suppress
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

from .errors import CurveKitError, FitFailureError, ValidationError
from .market import Bond, MarketSnapshot, write_csv, write_json
from .pricing import YieldCurve, yield_to_maturity

# Standard tenor grid: 1D, 1W, 2W, then months to 21M, years to 10Y, and
# 12/15/20/25/30Y. Days convert at 1/365, months at 1/12.
DEFAULT_TENORS = (
    1 / 365, 7 / 365, 14 / 365, 1 / 12, 2 / 12, 3 / 12, 6 / 12, 9 / 12, 12 / 12,
    15 / 12, 18 / 12, 21 / 12, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0,
    12.0, 15.0, 20.0, 25.0, 30.0,
)

BUCKET_LABELS = ("Full", "<2Y", "2Y-10Y", ">10Y")
DEFAULT_HIT_RATE_THRESHOLD = 0.0010  # 10 bps
FIXED_SERIES_TENORS = {"6M": 0.5, "2Y": 2.0, "10Y": 10.0}


@dataclass(frozen=True)
class TenorGrid:
    """Ordered maturity grid used by curve-space metrics."""

    tenors: tuple[float, ...] = DEFAULT_TENORS

    def __post_init__(self):
        object.__setattr__(self, "tenors", tuple(float(t) for t in self.tenors))
        if len(self.tenors) < 2:
            raise ValidationError("grid needs at least 2 tenors")
        if not all(0 < t < math.inf for t in self.tenors) or any(b <= a for a, b in zip(self.tenors, self.tenors[1:])):
            raise ValidationError("grid tenors must be finite, strictly increasing and > 0")

    def __iter__(self):
        return iter(self.tenors)

    def __len__(self):
        return len(self.tenors)


def _tenor_array(grid) -> np.ndarray:
    tenors = grid.tenors if isinstance(grid, TenorGrid) else grid
    return np.asarray(tenors, dtype=float)


def bucket_of(t: float) -> str:
    """Maturity bucket: strictly below 2Y, 2Y-10Y inclusive, strictly above 10Y."""
    if t < 2.0:
        return "<2Y"
    if t <= 10.0:
        return "2Y-10Y"
    return ">10Y"


def _bucket_mask(tenors: np.ndarray, bucket: str) -> np.ndarray:
    return np.array([bucket == "Full" or bucket_of(t) == bucket for t in tenors], dtype=bool)


def curve_yields(curve: YieldCurve, grid) -> np.ndarray:
    return curve.yields(_tenor_array(grid))


@dataclass(frozen=True)
class Estimator:
    """A named curve estimator: ``fit`` maps a snapshot to a yield curve.

    ``reuse``, when given, maps a day to a fit for the replicates of that
    day (snapshots holding some of its bonds, any of them possibly
    repriced) that reuses the day's work and gives each replicate its
    ``fit``'s curve, bit for bit; any other snapshot (another stability day)
    gets its ``fit``'s curve too. Replicates fitted that way run one by one;
    without ``reuse`` each is a whole fit, and ``fan_out`` forks workers for
    them, which only pays for a fit that takes far longer than a fork.
    """

    name: str
    fit: Callable[[MarketSnapshot], YieldCurve]
    reuse: Callable[[MarketSnapshot], Callable[[MarketSnapshot], YieldCurve]] | None = None


Score = TypeVar("Score")


def _guarded(fit: Callable[[], YieldCurve], score: Callable[[YieldCurve], Score]):
    try:
        return score(fit()), None
    except CurveKitError as exc:
        return None, exc


def refit(
    estimator: Estimator, snapshot: MarketSnapshot, score: Callable[[YieldCurve], Score]
) -> tuple[Score | None, CurveKitError | None]:
    """Fit ``snapshot`` and score the curve: ``(score(curve), None)``, or ``(None, exc)``.

    A ``CurveKitError`` from the fit or from the score is a failed fit, so
    whatever a caller needs of the curve belongs inside ``score``.
    """
    return _guarded(partial(estimator.fit, snapshot), score)


def refit_many(
    estimator: Estimator,
    base: MarketSnapshot,
    replicates: list[MarketSnapshot],
    score: Callable[[int, YieldCurve], Score],
    stop_on_failed_first: bool = False,
) -> Iterator[tuple[Score | None, CurveKitError | None]]:
    """``refit`` of each replicate of ``base``, through ``Estimator.reuse`` of ``base`` where there is one.

    Yields ``(score(i, curve), None)`` or ``(None, exc)`` for replicate i, in
    order; the one guard of ``refit`` decides each replicate's fate alone.
    A replicate that reuses the day's work is a slice of it, fitted only when
    asked for; without reuse each is a whole fit, and ``fan_out`` runs them.
    With ``stop_on_failed_first``, a failed replicate 0 (the reference a
    caller compares the others with) is the only result, and no other
    replicate is fitted after it or waited for.
    """
    fit = estimator.fit if estimator.reuse is None else estimator.reuse(base)
    calls = [partial(_guarded, partial(fit, replicate), partial(score, i)) for i, replicate in enumerate(replicates)]
    return _serial(calls) if estimator.reuse is not None else fan_out(calls, stop_on_failed_first)


def _serial(calls: Iterable[Callable[[], tuple]]) -> Iterator[tuple]:
    return (call() for call in calls)


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot tell or cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return 1


def _attempt(call: Callable[[], tuple]):
    """``call()``, or None where it raises: the caller then runs it again in call order."""
    try:
        return call()
    except Exception:
        return None


def _child(write_fd: int, calls: list) -> None:
    """A forked worker: run ``calls`` and send their results back as one pickle; never returns."""
    code = 1
    try:
        data = memoryview(pickle.dumps([_attempt(call) for call in calls], pickle.HIGHEST_PROTOCOL))
        while data:
            data = data[os.write(write_fd, data):]
        code = 0
    finally:
        os._exit(code)  # neither the caller's stack nor its stdio buffers run in the child


def _receive(data: bytes, count: int) -> list:
    """A worker's results, or ``count`` Nones where its pickle is cut short (the child died)."""
    try:
        return pickle.loads(data)
    except Exception:
        return [None] * count


def fan_out(calls: list[Callable[[], tuple]], stop_on_failed_first: bool = False) -> Iterator[tuple]:
    """The results of ``calls``, guarded fits that each return a ``(score, exc)`` pair, in call order.

    With more than one usable CPU the calls are dealt round-robin to
    ``min(CPUs, calls)`` workers: this process and forked children, each
    child sending its results back through a pipe as one pickle. The calls
    never interact and a child inherits this process's state, so each result
    is the serial one; a call's only output is its result, since what it
    changes in a child's memory stays there. This process runs call 0 first,
    and with ``stop_on_failed_first`` a failed call 0 is the only result:
    the children are killed without being waited for. This process runs
    again, in call order, every call that has no result (its child died, or
    the call raised something other than a ``CurveKitError``), so what that
    call raises is what the serial loop would raise. Every child is reaped
    before this returns or raises, and killed first unless all its results
    came back. On one CPU the calls run here, each when its result is asked
    for.
    """
    workers = min(_usable_cpus(), len(calls))
    if workers < 2:
        return _serial(calls)
    results = [None] * len(calls)
    children = []  # (pid, read end of its pipe, indices of its calls)
    collected = False
    parent = os.getpid()
    try:
        for k in range(1, workers):
            share = range(k, len(calls), workers)
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the calls of the workers not started run below
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                _child(write_fd, [calls[i] for i in share])
            os.close(write_fd)
            children.append((pid, read_fd, share))
        results[0] = calls[0]()  # nothing precedes it, so what it raises is what the serial loop raises
        if stop_on_failed_first and results[0][1] is not None:
            return iter(results[:1])
        for i in range(workers, len(calls), workers):
            results[i] = _attempt(calls[i])
        for pid, read_fd, share in children:
            received = _receive(b"".join(iter(partial(os.read, read_fd, 1 << 16), b"")), len(share))
            for i, result in zip(share, received):
                results[i] = result
        collected = True
    finally:
        if os.getpid() != parent:  # a child interrupted before it reached _child's own os._exit
            os._exit(1)
        for pid, read_fd, _ in children:
            os.close(read_fd)
            if not collected:
                from signal import SIGKILL
                with suppress(ProcessLookupError):
                    os.kill(pid, SIGKILL)
            with suppress(ChildProcessError):  # reaped already where SIGCHLD is ignored
                os.waitpid(pid, 0)
    return iter([calls[i]() if result is None else result for i, result in enumerate(results)])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def rmse_ytm(curve: YieldCurve, snapshot: MarketSnapshot) -> float:
    """RMSE between each bond's flat yield and the curve at its maturity."""
    maturities = np.array([b.maturity for b in snapshot.bonds])
    errs = curve.yields(maturities) - np.array([yield_to_maturity(b) for b in snapshot.bonds])
    return float(np.sqrt(np.mean(np.square(errs))))


def _rmse(ya: np.ndarray, yb: np.ndarray) -> float:
    return float(np.sqrt(np.mean((ya - yb) ** 2)))


def _mad(ya: np.ndarray, yb: np.ndarray) -> float:
    return float(np.max(np.abs(ya - yb)))


def rmse_curve(curve_a: YieldCurve, curve_b: YieldCurve, grid=TenorGrid()) -> float:
    """Root-mean-square yield gap between two curves over the grid."""
    return _rmse(curve_yields(curve_a, grid), curve_yields(curve_b, grid))


def mad_curve(curve_a: YieldCurve, curve_b: YieldCurve, grid=TenorGrid()) -> float:
    """Maximum absolute yield gap between two curves over the grid."""
    return _mad(curve_yields(curve_a, grid), curve_yields(curve_b, grid))


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def _check_n_mc(n_mc: int) -> None:
    if n_mc < 1:
        raise ValidationError(f"n_mc must be >= 1, got {n_mc}")


def _curve_moves(snapshot: MarketSnapshot, estimator: Estimator, replicates: list[MarketSnapshot]) -> Iterator[dict]:
    """``{"rmse_curve", "mad", "error"}`` of each replicate's curve against the day's own, in order, over the grid.

    The day is fitted first, as replicate 0, before this returns. A failure
    to fit or to evaluate it ends the experiment, so it is raised as a
    ``FitFailureError`` even when the estimator rejected the snapshot as
    invalid input; a failed replicate has distances None and error ``str(exc)``.
    """
    results = refit_many(estimator, snapshot, [snapshot, *replicates],
                         lambda _, curve: curve_yields(curve, DEFAULT_TENORS), stop_on_failed_first=True)
    base, exc = next(results)
    if exc is not None:
        raise FitFailureError(str(exc)) from exc
    return ({"rmse_curve": None, "mad": None, "error": str(err)} if err is not None
            else {"rmse_curve": _rmse(base, ys), "mad": _mad(base, ys), "error": None}
            for ys, err in results)


def perturb_price_experiment(
    snapshot: MarketSnapshot,
    estimator: Estimator,
    bond_id: str,
    bumps,
) -> list[dict]:
    """Refit after bumping one bond's price and measure the curve movement.

    For each bump fraction the named bond's price is multiplied by (1 + bump)
    and the estimator refit; rows ``{"bump", "rmse_curve", "mad", "error"}``
    report RMSE and MAD against the unperturbed fit. Fit failures are recorded
    in the row and the experiment continues; a failed unperturbed fit raises
    ``FitFailureError``, an unknown ``bond_id`` or a bad bump ``ValidationError``.
    """
    try:
        price = snapshot.bond(bond_id).market_price
    except KeyError as exc:
        raise ValidationError(exc.args[0]) from None
    bumps = list(bumps)
    if not all(bump > -1 for bump in bumps):
        raise ValidationError(f"bumps must be > -1 so the bumped price stays positive, got {bumps}")
    if not all(math.isfinite(price * (1.0 + bump)) for bump in bumps):
        raise ValidationError(f"bumps must keep bond {bond_id}'s price {price!r} finite, got {bumps}")
    bumped = [
        replace(snapshot, bonds=(
            Bond(b.id, b.cashflows, b.face_value, b.maturity, b.market_price * (1.0 + bump))
            if b.id == bond_id else b
            for b in snapshot.bonds
        ))
        for bump in bumps
    ]
    return [{"bump": float(bump), **move} for bump, move in zip(bumps, _curve_moves(snapshot, estimator, bumped))]


def drop_bonds_experiment(
    snapshot: MarketSnapshot,
    estimator: Estimator,
    drop_counts,
    n_mc: int,
    seed: int = 0,
) -> list[dict]:
    """Random bond removal, averaged over Monte Carlo replications.

    The drop sets depend only on (seed, count, replication), so two estimators
    evaluated with the same seed see identical removals. Each row is
    ``{"count", "rmse_curve", "mad", "n_failed", "replications"}``, each of
    its replications ``{"dropped_ids", "rmse_curve", "mad", "error"}``.
    Failed replications are excluded from the averages and counted; a failed
    fit of the full snapshot raises ``FitFailureError``.
    """
    n = len(snapshot.bonds)
    if any(c < 0 for c in drop_counts):
        raise ValidationError(f"drop counts must be >= 0, got {list(drop_counts)}")
    if any(c >= n for c in drop_counts):
        raise ValidationError(f"drop counts must be < number of bonds ({n})")
    _check_n_mc(n_mc)
    ids = [b.id for b in snapshot.bonds]

    def drop_set(count: int, rep: int) -> tuple[str, ...]:
        if count == 0:
            return ()
        rng = np.random.default_rng([seed, int(count), rep])
        return tuple(sorted(str(ids[i]) for i in rng.choice(n, size=int(count), replace=False)))

    drop_sets = [[drop_set(count, rep) for rep in range(n_mc)] for count in drop_counts]
    reduced = [
        replace(snapshot, bonds=(b for b in snapshot.bonds if b.id not in dropped))
        for sets in drop_sets for dropped in sets
    ]
    moves = _curve_moves(snapshot, estimator, reduced)
    rows = []
    for count, sets in zip(drop_counts, drop_sets):
        reps = [{"dropped_ids": dropped, **next(moves)} for dropped in sets]
        ok = [r for r in reps if r["error"] is None]
        rows.append({
            "count": int(count),
            "rmse_curve": float(np.mean([r["rmse_curve"] for r in ok])) if ok else None,
            "mad": float(np.mean([r["mad"] for r in ok])) if ok else None,
            "n_failed": len(reps) - len(ok),
            "replications": tuple(reps),
        })
    return rows


def stability_experiment(
    snapshots,
    estimator: Estimator,
    threshold: float = DEFAULT_HIT_RATE_THRESHOLD,
) -> dict:
    """Day-over-day curve stability across an ordered snapshot sequence.

    Each day is fit as a replicate of the first (``refit_many``), reusing
    its work where they share bonds. The result is ``{"day_rmse",
    "hit_rate", "fixed_tenor_series", "curves", "skipped"}``: per pair of
    consecutive fitted days, the later date and the curve RMSE in each
    bucket; per bucket, the fraction of pairs strictly below ``threshold``
    (None without a pair); per fitted day, its date and the fitted yield and
    benchmark rate at 6M, 2Y and 10Y; each day's curve (None where its fit
    failed); and one line per failed day.
    """
    snapshots = list(snapshots)
    if len(snapshots) < 2:
        raise ValidationError("stability needs at least 2 snapshots")
    if not (0 <= threshold < math.inf):
        raise ValidationError(f"threshold must be finite and >= 0, got {threshold}")
    tenors = _tenor_array(DEFAULT_TENORS)
    fixed = np.array(list(FIXED_SERIES_TENORS.values()))
    curves: list[YieldCurve | None] = []
    grid_yields: list[np.ndarray | None] = []  # a bucket's values are a slice of them
    skipped = []
    series = []
    results = refit_many(estimator, snapshots[0], snapshots,
                         lambda _, curve: (curve, curve.yields(tenors), curve.yields(fixed).tolist()))
    for snap, (fitted, exc) in zip(snapshots, results):
        curve, ys, at_fixed = fitted or (None, None, None)
        curves.append(curve)
        grid_yields.append(ys)
        if exc is not None:
            skipped.append(f"{snap.date}: {exc}")
            continue
        row = {"date": snap.date}
        for label, y, rate in zip(FIXED_SERIES_TENORS, at_fixed, snap.benchmark.yields(fixed).tolist()):
            row[label], row[f"benchmark_{label}"] = y, rate
        series.append(row)

    masks = {bucket: _bucket_mask(tenors, bucket) for bucket in BUCKET_LABELS}
    day_rmse = []
    for prev, cur in zip(range(len(snapshots) - 1), range(1, len(snapshots))):
        ya, yb = grid_yields[cur], grid_yields[prev]
        if ya is None or yb is None:
            continue
        entry = {"date": snapshots[cur].date}
        for bucket, mask in masks.items():
            entry[bucket] = _rmse(ya[mask], yb[mask])  # every bucket holds grid tenors
        day_rmse.append(entry)

    hit_rate = {
        bucket: float(np.mean([d[bucket] < threshold for d in day_rmse])) if day_rmse else None
        for bucket in BUCKET_LABELS
    }
    return {
        "day_rmse": tuple(day_rmse),
        "hit_rate": hit_rate,
        "fixed_tenor_series": tuple(series),
        "curves": tuple(curves),
        "skipped": tuple(skipped),
    }


def loo_experiment(
    snapshot: MarketSnapshot,
    estimator: Estimator,
    n_mc: int,
    bucket_filter: str | None = None,
    seed: int = 0,
) -> dict:
    """Leave-one-out yield accuracy, averaged over random held-out bonds.

    Each replication uniformly picks a held-out bond (from ``bucket_filter``
    when given), fits on the rest, and records the squared gap between the
    fitted yield at the held-out maturity and that bond's flat yield. Results
    aggregate per maturity bucket of the held-out bond plus a Full column:
    ``{"per_bucket", "counts", "replications", "n_failed"}``, each
    replication ``{"bond_id", "bucket", "sq_err", "error"}``.
    """
    _check_n_mc(n_mc)
    if bucket_filter is not None and bucket_filter not in BUCKET_LABELS[1:]:
        raise ValidationError(f"bucket_filter must be one of {BUCKET_LABELS[1:]}, got {bucket_filter!r}")
    eligible = [
        b for b in snapshot.bonds
        if bucket_filter is None or bucket_of(b.maturity) == bucket_filter
    ]
    if len(eligible) < 2:
        where = f"bucket {bucket_filter}" if bucket_filter else "snapshot"
        raise ValidationError(f"leave-one-out needs >= 2 bonds in the {where}, got {len(eligible)}")

    rng = np.random.default_rng(seed)
    held = [eligible[int(pick)] for pick in rng.integers(0, len(eligible), size=n_mc)]
    reduced = [replace(snapshot, bonds=(b for b in snapshot.bonds if b.id != h.id)) for h in held]

    def score(i: int, curve: YieldCurve) -> float:
        # the held-out bond's flat yield is part of the score, so a bond without one fails the replicate
        return curve.yields(np.array([held[i].maturity]))[0] - yield_to_maturity(held[i])

    reps = [
        {"bond_id": h.id, "bucket": bucket_of(h.maturity),
         "sq_err": None if exc is not None else float(err**2), "error": None if exc is None else str(exc)}
        for h, (err, exc) in zip(held, refit_many(estimator, snapshot, reduced, score))
    ]

    per_bucket = {}
    counts = {}
    for bucket in BUCKET_LABELS:
        sq = [
            r["sq_err"] for r in reps
            if r["sq_err"] is not None and (bucket == "Full" or r["bucket"] == bucket)
        ]
        counts[bucket] = len(sq)
        per_bucket[bucket] = float(np.sqrt(np.mean(sq))) if sq else None
    return {
        "per_bucket": per_bucket,
        "counts": counts,
        "replications": tuple(reps),
        "n_failed": sum(1 for r in reps if r["error"] is not None),
    }


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def report_record(estimator: str, experiment: str, metrics: dict, per_bucket: dict | None,
                  provenance: dict, details: list) -> dict:
    """The report of one (experiment, estimator) pair: a dict of the six arguments by name, in this order.

    ``metrics`` holds snapshot-level values, ``per_bucket`` bucket-resolved ones or None, ``provenance``
    the configuration and seeds (timestamps live only here), ``details`` the raw records for replay.
    """
    return {"estimator": estimator, "experiment": experiment, "metrics": metrics, "per_bucket": per_bucket,
            "provenance": provenance, "details": details}


def write_report(report: dict, path, format: str = "json") -> None:
    """Write a ``report_record`` as JSON, or as flat CSV with one metric per row.

    A CSV row is ``experiment, estimator, bucket, metric, value, seed``: the
    snapshot-level metrics first, under bucket ``Full``, then each bucket's.
    """
    if format == "json":
        write_json(path, report)
    elif format == "csv":
        seed = report["provenance"].get("seed", "")
        buckets = [("Full", report["metrics"]), *(report["per_bucket"] or {}).items()]
        write_csv(path, ("experiment", "estimator", "bucket", "metric", "value", "seed"), [
            (report["experiment"], report["estimator"], bucket, name, value, seed)
            for bucket, metrics in buckets for name, value in metrics.items()
        ])
    else:
        raise ValidationError(f"format must be 'json' or 'csv', got {format!r}")
