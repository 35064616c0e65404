"""Command-line front end: generate data, fit curves, run experiments.

    curvekit generate --regime falling --bonds 60 --seed 7 -o day.json
    curvekit fit day.json --estimator nn
    curvekit experiment perturb day.json --bond B060 --bumps 0.03,0.05,0.10
    curvekit experiment drop day.json --counts 1,5,10 --mc 10
    curvekit experiment stability day1.json day2.json ... --estimators nn
    curvekit experiment loo day.json --mc 10
    curvekit experiment hyperscan day.json --lr 1e-7,1e-8 --epochs 200,1000

Exit codes: 0 success; 2 argument error, caught before any fit runs (before any
file is read if the flags alone are wrong); 3 unreadable input or unwritable
output; 4 failed fit, base fit or replicate (reports are written for the last).
Every command is deterministic given its flags; timestamps appear only in the
report provenance field.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from functools import cache, partial
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import CurveKitError, FitFailureError, ParseError, ValidationError
from .evaluation import (
    BUCKET_LABELS,
    DEFAULT_HIT_RATE_THRESHOLD,
    Estimator,
    EvaluationReport,
    TenorGrid,
    drop_bonds_experiment,
    fan_out,
    loo_experiment,
    perturb_price_experiment,
    refit,
    rmse_ytm,
    stability_experiment,
    write_report,
)
from .kernelridge import KernelParams, KrCurve, KrLayout, fit_kr
from .market import ScenarioSpec, generate_scenario, load_snapshot, save_snapshot
from .neural import NnCurve, TrainConfig, nn_to_dict, train
from .nss import NssCurve, NssFitConfig, fit_nss, nss_objective
from .pricing import BootstrapBase, bootstrap

ESTIMATOR_NAMES = ("bootstrap", "nss", "kr", "nn")

EXIT_OK = 0
EXIT_ARGS = 2
EXIT_IO = 3
EXIT_COMPUTE = 4


# ---------------------------------------------------------------------------
# Flag parsing helpers
# ---------------------------------------------------------------------------

def _list_of(cast, what: str, distinct: bool = True):
    """An argparse type for a comma-separated list of ``cast`` values.

    A ``distinct`` list must hold at least one value and no value twice,
    compared after parsing (``1e-7,1.0e-7`` is a repeat): each value is one
    set of fits and one report key.
    """
    def parse(text: str) -> list:
        try:
            values = [cast(x) for x in text.split(",") if x.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a comma-separated list of {what}, got {text!r}")
        if distinct and not values:
            raise argparse.ArgumentTypeError(f"expected at least one of {what}, got {text!r}")
        if distinct and len(set(values)) < len(values):
            raise argparse.ArgumentTypeError(f"repeated value in {text!r}")
        return values
    return parse


_float_list = _list_of(float, "numbers")
_int_list = _list_of(int, "integers")


def _seed(text: str) -> int:
    """A random seed: numpy's generators take only non-negative integers."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def _pair(text: str) -> tuple[float, float]:
    parts = _list_of(float, "numbers", distinct=False)(text)
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected MIN,MAX, got {text!r}")
    return (parts[0], parts[1])


def _train_config(args, lr: float, epochs: int, gamma1: float, gamma2: float) -> TrainConfig:
    return TrainConfig(learning_rate=lr, epochs=epochs, gamma1=gamma1, gamma2=gamma2, seed=args.seed,
                       init_scale=args.nn_init_scale, hidden_count=args.nn_hidden, regularizer=args.nn_regularizer)


def _nn_fit(config: TrainConfig):
    return lambda snap: NnCurve(train(snap, config))


def build_estimators(args, names) -> list[tuple[Estimator, Callable]]:
    """The named estimators, each with its model-file writer ``(curve, snapshot) -> dict``.

    Every estimator's flags are checked, named or not, in one order (NSS,
    kernel, NN, then lambda), so a bad flag is an argument error before any
    file is read. The fits and writers call this module's names at call time,
    so a wrapper installed on the module (the benchmark tracer's) sees them;
    a replicate fitted from its day's prepared work (``Estimator.reuse``)
    still runs through this module's ``bootstrap`` or ``fit_kr``.
    """
    nss = NssFitConfig(starts=args.nss_starts, max_iter=args.nss_max_iter, seed=args.seed)
    kernel = KernelParams(a=args.kr_a, b=args.kr_b)
    nn = _train_config(args, args.nn_lr, args.nn_epochs, args.nn_gamma1, args.nn_gamma2)
    lam = args.kr_lambda
    if not (lam > 0):
        raise ValidationError(f"kr lambda must be > 0, got {lam}")
    if lam == np.inf:
        raise ValidationError("kr lambda must be finite, got inf")

    def boot(snap, base=None):
        return bootstrap(snap, base)

    def kr(snap, layout=None):
        return KrCurve(fit_kr(snap, lam, kernel, layout))

    # (fit, reuse, writer); reuse binds a day's prepared work to the fit of its replicates
    table = {
        "bootstrap": (boot, lambda day: partial(boot, base=BootstrapBase(day)),
                      lambda curve, snap: {"estimator": "bootstrap", **asdict(curve)}),
        # the objective is curve-level fit quality; the parameters themselves may not be unique
        "nss": (lambda snap: NssCurve(fit_nss(snap, nss)), None, lambda curve, snap: {
            "estimator": "nss", "params": asdict(curve.params), "objective": nss_objective(snap, curve.params),
        }),
        "kr": (kr, lambda day: partial(kr, layout=KrLayout(day, kernel)), lambda curve, snap: {
            "estimator": "kr",
            "lambda": curve.model.lam,
            "kernel": asdict(curve.model.kernel_params),
            "anchor_times": list(curve.model.anchor_times),
            "alphas": list(curve.model.alphas),
            "objective": curve.model.objective,
            "price_error": curve.model.price_error,
        }),
        "nn": (_nn_fit(nn), None, lambda curve, snap: {"estimator": "nn", **nn_to_dict(curve.params, nn)}),
    }
    return [(Estimator(name, fit, reuse), writer) for name in names for fit, reuse, writer in [table[name]]]


def _add_estimator_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nss-starts", type=int, default=8, help="NSS simplex starts (default 8)")
    parser.add_argument("--nss-max-iter", type=int, default=4000, help="NSS iteration cap per start")
    parser.add_argument("--kr-lambda", type=float, default=1e-2, help="KR smoothness penalty (default 1e-2)")
    parser.add_argument("--kr-a", type=float, default=1.0, help="KR first-derivative weight")
    parser.add_argument("--kr-b", type=float, default=1.0, help="KR second-derivative weight")
    parser.add_argument("--nn-lr", type=float, default=1e-8, help="NN learning rate (default 1e-8)")
    parser.add_argument("--nn-epochs", type=int, default=1000, help="NN training epochs (default 1000)")
    parser.add_argument("--nn-gamma1", type=float, default=1e3, help="NN smoothness weight (default 1e3)")
    parser.add_argument("--nn-gamma2", type=float, default=1e4, help="NN trend weight (default 1e4)")
    _add_nn_shape_flags(parser)


def _add_nn_shape_flags(parser: argparse.ArgumentParser) -> None:
    """The NN flags that hyperscan reads besides its own grid flags."""
    parser.add_argument("--nn-hidden", type=int, default=3, help="NN hidden units (default 3)")
    parser.add_argument("--nn-init-scale", type=float, default=0.1, help="NN init scale")
    parser.add_argument("--nn-regularizer", choices=("per_bond", "per_epoch"), default="per_bond",
                        help="apply penalties every bond step or once per epoch")


def _provenance(args, extra: dict) -> dict:
    return {
        "seed": args.seed,
        "argv": list(args._argv),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        **extra,
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    spec = ScenarioSpec(
        regime=args.regime,
        n_bonds=args.bonds,
        maturity_range=args.maturity_range,
        coupon_range=args.coupon_range,
        spread_over_benchmark=args.spread,
        price_noise_sd=args.noise,
        seed=args.seed,
        base_rate=args.base_rate,
    )
    snapshot = generate_scenario(spec, date=args.date)
    try:
        save_snapshot(snapshot, args.output, format=args.format)
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return EXIT_IO
    bench = snapshot.benchmark
    print(f"wrote {args.output}: {len(snapshot.bonds)} bonds, date {snapshot.date}")
    print(
        f"benchmark: {bench.rates[0]:.4%} at {bench.tenors[0]:.3f}Y "
        f"to {bench.rates[-1]:.4%} at {bench.tenors[-1]:.0f}Y ({args.regime})"
    )
    return EXIT_OK


def _load_for_command(path: str):
    """The snapshot at ``path``, or None after reporting why it cannot be read (exit 3)."""
    try:
        return load_snapshot(path)
    except OSError as exc:  # the file at fault may be a CSV day's companion
        print(f"error: cannot read {exc.filename or path}: {exc.strerror or exc}", file=sys.stderr)
    except (ParseError, ValidationError) as exc:  # the message names the file at fault
        print(f"error: {exc}", file=sys.stderr)
    return None


def cmd_fit(args) -> int:
    (estimator, model_dict), = build_estimators(args, [args.estimator])
    snapshot = _load_for_command(args.snapshot)
    if snapshot is None:
        return EXIT_IO
    dense = np.arange(0.1, 30.0 + 1e-9, 0.1)
    tenors = np.array(sorted({round(float(t), 10) for t in list(TenorGrid().tenors) + list(dense)}))
    # a fit counts once its curve evaluates and its score can be taken
    fitted, exc = refit(estimator, snapshot,
                        lambda curve: (curve, curve.yields(tenors).tolist(), rmse_ytm(curve, snapshot)))
    if exc is not None:
        print(f"fit failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    curve, samples, score = fitted

    stem = Path(args.snapshot).stem
    model_path = args.output or f"{stem}.{estimator.name}.model.json"
    samples_path = args.samples or f"{stem}.{estimator.name}.samples.csv"
    try:
        with open(model_path, "w") as fh:
            json.dump(model_dict(curve, snapshot), fh, indent=2)
            fh.write("\n")
        with open(samples_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["tenor", "yield", "benchmark_yield"])
            for t, y, rate in zip(tenors.tolist(), samples, snapshot.benchmark.yields(tenors).tolist()):
                writer.writerow([repr(t), repr(y), repr(rate)])
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"fit {estimator.name} on {args.snapshot}: RMSE_ytm = {score:.6e}")
    print(f"wrote {model_path} and {samples_path}")
    return EXIT_OK


def _parse_estimators(text: str) -> list[str]:
    names = [n.strip() for n in text.split(",") if n.strip()]
    for i, n in enumerate(names):
        if n not in ESTIMATOR_NAMES:
            raise ValidationError(f"unknown estimator {n!r}; choose from {ESTIMATOR_NAMES}")
        if n in names[:i]:
            raise ValidationError(f"estimator {n!r} given twice")
    if not names:
        raise ValidationError("at least one estimator required")
    return names


# Each adapter runs one protocol for one estimator and returns its report, its
# count of failed fits (recorded in the report) and its summary for the terminal.
# Adapters call the protocol functions through this module's names at call
# time, so a wrapper installed on the module (the benchmark tracer's) sees them.

def _move_metrics(rows, label: str, tags) -> tuple[dict, str]:
    """Curve RMSE and MAD of perturb or drop rows: report metrics and summary cells."""
    metrics, cells = {}, []
    for row, tag in zip(rows, tags):
        metrics[f"rmse_curve[{label}={tag}]"] = row["rmse_curve"]
        metrics[f"mad[{label}={tag}]"] = row["mad"]
        if row["rmse_curve"] is not None:
            cells.append(f"{label} {tag}: rmse {row['rmse_curve'] * 1e4:.2f} bp / mad {row['mad'] * 1e4:.2f} bp")
    return metrics, ", ".join(cells)


def _bucket_cells(values: dict, spec: str) -> str:
    """``bucket: value`` per bucket, the value formatted by ``spec``, or ``n/a`` where there is none."""
    return ", ".join(f"{bucket}: {'n/a' if value is None else format(value, spec)}" for bucket, value in values.items())


def _perturb(args, snapshots, estimator: Estimator) -> tuple[EvaluationReport, int, str]:
    snapshot, = snapshots
    bond_id = args.bond or snapshot.bonds[-1].id
    rows = perturb_price_experiment(snapshot, estimator, bond_id, args.bumps)
    metrics, shown = _move_metrics(rows, "bump", [f"{row['bump']:g}" for row in rows])
    report = EvaluationReport(estimator.name, "perturb", metrics, None,
                              _provenance(args, {"bond": bond_id, "bumps": list(args.bumps)}), rows)
    return report, sum(1 for row in rows if row["error"]), f"perturb {estimator.name} (bond {bond_id}): {shown}"


def _drop(args, snapshots, estimator: Estimator) -> tuple[EvaluationReport, int, str]:
    snapshot, = snapshots
    rows = drop_bonds_experiment(snapshot, estimator, args.counts, args.mc, seed=args.seed)
    metrics, shown = _move_metrics(rows, "drop", [row["count"] for row in rows])
    details = [{key: row[key] for key in ("count", "n_failed", "replications")} for row in rows]
    report = EvaluationReport(estimator.name, "drop", metrics, None,
                              _provenance(args, {"counts": list(args.counts), "mc": args.mc}), details)
    return report, sum(row["n_failed"] for row in rows), f"drop {estimator.name} ({args.mc} MC): {shown}"


def _stability(args, snapshots, estimator: Estimator) -> tuple[EvaluationReport, int, str]:
    result = stability_experiment(snapshots, estimator, threshold=args.threshold)
    day_rmse = result["day_rmse"]
    per_bucket = {
        bucket: {"hit_rate": hit_rate, "rmse_mean": float(np.mean([d[bucket] for d in day_rmse])) if day_rmse else None}
        for bucket, hit_rate in result["hit_rate"].items()
    }
    details = [{key: list(result[key])} for key in ("day_rmse", "fixed_tenor_series", "skipped")]
    report = EvaluationReport(estimator.name, "stability", {"hit_rate": result["hit_rate"]["Full"]}, per_bucket,
                              _provenance(args, {"threshold": args.threshold, "days": len(snapshots)}), details)
    summary = (f"stability {estimator.name} over {len(snapshots)} days, "
               f"hit rate @ {args.threshold * 1e4:g} bp: {_bucket_cells(result['hit_rate'], '.0%')}")
    return report, len(result["skipped"]), summary


def _loo(args, snapshots, estimator: Estimator) -> tuple[EvaluationReport, int, str]:
    snapshot, = snapshots
    result = loo_experiment(snapshot, estimator, args.mc, bucket_filter=args.bucket, seed=args.seed)
    per_bucket = {
        bucket: {"rmse_ytm_loo": rmse, "count": result["counts"][bucket]}
        for bucket, rmse in result["per_bucket"].items()
    }
    report = EvaluationReport(estimator.name, "loo", {"rmse_ytm_loo": result["per_bucket"]["Full"]}, per_bucket,
                              _provenance(args, {"mc": args.mc, "bucket_filter": args.bucket}),
                              list(result["replications"]))
    return report, result["n_failed"], (f"loo {estimator.name} ({args.mc} MC): "
                                        f"{_bucket_cells(result['per_bucket'], '.6f')}")


def _scan_grid(args) -> list[tuple[tuple, Estimator]]:
    """Hyperscan's grid as ((gamma1, gamma2, epochs, lr), NN estimator) pairs, in report order."""
    return [
        ((g1, g2, epochs, lr), Estimator("nn", _nn_fit(_train_config(args, lr, epochs, g1, g2))))
        for g1, g2, epochs, lr in itertools.product(args.gamma1, args.gamma2, args.epochs, args.lr)
    ]


def _hyperscan(args, snapshots, grid) -> tuple[EvaluationReport, int, str]:
    snapshot, = snapshots
    rows, metrics, scores = [], {}, {}
    # each cell is a whole NN fit of the one day, so the cells fan out like NN replicates
    results = fan_out([partial(refit, estimator, snapshot, lambda curve: rmse_ytm(curve, snapshot))
                       for _, estimator in grid])
    for ((g1, g2, epochs, lr), _), (score, exc) in zip(grid, results):
        err = None if exc is None else str(exc)
        rows.append({"lr": lr, "epochs": epochs, "gamma1": g1, "gamma2": g2, "rmse_ytm": score, "error": err})
        metrics[f"rmse_ytm[lr={lr:g},epochs={epochs},g1={g1:g},g2={g2:g}]"] = score
        scores[g1, g2, epochs, lr] = score

    # Pivot per (gamma1, gamma2): epochs down, learning rates across.
    lines = []
    for g1, g2 in itertools.product(args.gamma1, args.gamma2):
        lines.append(f"RMSE_ytm grid (gamma1={g1:g}, gamma2={g2:g}):")
        lines.append("  epochs \\ lr " + "".join(f"{lr:>12g}" for lr in args.lr))
        for epochs in args.epochs:
            cells = (scores[g1, g2, epochs, lr] for lr in args.lr)
            lines.append(f"  {epochs:>11} " + "".join(
                f"{score:>12.6f}" if score is not None else f"{'fail':>12}" for score in cells))
    provenance = {key: list(getattr(args, key)) for key in ("lr", "epochs", "gamma1", "gamma2")}
    report = EvaluationReport("nn", "hyperscan", metrics, None, _provenance(args, provenance), rows)
    return report, sum(1 for r in rows if r["error"]), "\n".join(lines)


ADAPTERS = {"perturb": _perturb, "drop": _drop, "stability": _stability, "loo": _loo, "hyperscan": _hyperscan}


def cmd_experiment(args) -> int:
    """Run one protocol for every selected estimator and write one report each.

    Flag errors exit 2 before any file is read, argument errors before any fit;
    an unreadable input or report exits 3; a failed base fit exits 4 at once,
    and failed replicates exit 4 after the reports are written.
    """
    kind = args.experiment
    reports, n_failed = [], 0
    try:
        if kind == "hyperscan":
            # hyperscan sweeps the NN alone; its one "estimator" is the grid of NN estimators
            selected = [("nn", _scan_grid(args))]
        else:
            selected = [(est.name, est) for est, _ in build_estimators(args, _parse_estimators(args.estimators))]
        snapshots = []
        for path in (args.snapshots if kind == "stability" else [args.snapshot]):
            snap = _load_for_command(path)
            if snap is None:
                return EXIT_IO
            snapshots.append(snap)
        for name, estimator in selected:
            report, failed, summary = ADAPTERS[kind](args, snapshots, estimator)
            n_failed += failed
            reports.append((report, f"{args.output}.{kind}.{name}.{args.format}"))
            print(summary)
        for report, path in reports:
            write_report(report, path, format=args.format)
            print(f"wrote {path}")
    except FitFailureError as exc:  # the protocols raise it only for their base fit
        print(f"error: base fit failed for {name}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except OSError as exc:  # reading is handled above, so this is a report
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_IO
    if n_failed:
        print(f"warning: {n_failed} fit(s) failed; counts recorded in the reports", file=sys.stderr)
        return EXIT_COMPUTE
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@cache  # built once per process: a parse leaves the parser and its defaults (tuples) as they were
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="curvekit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic market snapshot")
    gen.add_argument("--regime", choices=("flat", "rising", "falling"), required=True)
    gen.add_argument("--bonds", type=int, default=60)
    gen.add_argument("--maturity-range", type=_pair, default=(0.1, 15.0), metavar="MIN,MAX")
    gen.add_argument("--coupon-range", type=_pair, default=(0.01, 0.05), metavar="MIN,MAX")
    gen.add_argument("--spread", type=float, default=0.004, help="bond spread over benchmark")
    gen.add_argument("--noise", type=float, default=0.0, help="multiplicative price noise sd")
    gen.add_argument("--base-rate", type=float, default=0.03)
    gen.add_argument("--date", default=None, help="snapshot date label")
    gen.add_argument("--seed", type=_seed, default=0)
    gen.add_argument("--format", choices=("json", "csv"), default="json")
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=cmd_generate)

    fit = sub.add_parser("fit", help="fit one estimator and write model + curve samples")
    fit.add_argument("snapshot")
    fit.add_argument("--estimator", choices=ESTIMATOR_NAMES, required=True)
    fit.add_argument("--seed", type=_seed, default=0)
    fit.add_argument("-o", "--output", default=None, help="model JSON path")
    fit.add_argument("--samples", default=None, help="curve sample CSV path")
    _add_estimator_flags(fit)
    fit.set_defaults(func=cmd_fit)

    exp = sub.add_parser("experiment", help="run an evaluation protocol")
    exp_sub = exp.add_subparsers(dest="experiment", required=True)

    def common(p, with_estimators=True):
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("-o", "--output", default="report", help="report path prefix")
        if with_estimators:
            p.add_argument("--estimators", default="bootstrap,nss,kr,nn")
            _add_estimator_flags(p)
        else:
            _add_nn_shape_flags(p)
        p.set_defaults(func=cmd_experiment)

    pert = exp_sub.add_parser("perturb", help="bump one bond's price and refit")
    pert.add_argument("snapshot")
    pert.add_argument("--bond", default=None, help="bond id (default: longest maturity)")
    pert.add_argument("--bumps", type=_float_list, default=(0.03, 0.05, 0.10))
    common(pert)

    drop = exp_sub.add_parser("drop", help="randomly drop bonds, Monte Carlo averaged")
    drop.add_argument("snapshot")
    drop.add_argument("--counts", type=_int_list, default=(1, 5, 10))
    drop.add_argument("--mc", type=int, default=10)
    common(drop)

    stab = exp_sub.add_parser("stability", help="day-over-day curve stability")
    stab.add_argument("snapshots", nargs="+", help="date-ordered snapshot files")
    stab.add_argument("--threshold", type=float, default=DEFAULT_HIT_RATE_THRESHOLD,
                      help="hit-rate threshold (decimal)")
    common(stab)

    loo = exp_sub.add_parser("loo", help="leave-one-out yield accuracy by bucket")
    loo.add_argument("snapshot")
    loo.add_argument("--mc", type=int, default=10)
    loo.add_argument("--bucket", choices=BUCKET_LABELS[1:], default=None)
    common(loo)

    scan = exp_sub.add_parser("hyperscan", help="sweep NN hyperparameters, tabulate RMSE_ytm")
    scan.add_argument("snapshot")
    scan.add_argument("--lr", type=_float_list, default=(1e-7, 1e-8, 1e-9))
    scan.add_argument("--epochs", type=_int_list, default=(200, 500, 1000))
    scan.add_argument("--gamma1", type=_float_list, default=(1e3,))
    scan.add_argument("--gamma2", type=_float_list, default=(1e4,))
    common(scan, with_estimators=False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ARGS if exc.code not in (0, None) else EXIT_OK
    args._argv = list(argv) if argv is not None else list(sys.argv[1:])
    # what a command leaves uncaught maps to its exit code here
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGS
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CurveKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
