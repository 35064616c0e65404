"""The three benchmark workloads: their inputs, command sequences and output checks.

Each workload writes its snapshot files in set-up, then runs a fixed
sequence of ``curvekit`` commands in-process. The quality guards
(``rmse_ytm_bp`` and ``loo_bp``) come from a *desk day* that is the same for
every seed, so they compare exactly between runs and between commits. The
seed draws the rest: the drop sets, the auxiliary days of nn-sweep and
cli-cheap, and the network initialisation in the sweep. Perturbation bumps
the longest bond, the CLI default: a 10% bump on a short bond can push its
price past what any yield in the solver's bracket attains, and that fit
fails. Why each workload exists is in README.md.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

BUCKETS = ["Full", "<2Y", "2Y-10Y", ">10Y"]

# The desk day of criterion 6: a falling market, 30 bonds, 0.2% price noise.
DESK_DAY = dict(regime="falling", n_bonds=30, price_noise_sd=0.002, seed=99)
# A larger noisy day for the cheap estimators (the README quickstart day).
WIDE_DAY = dict(regime="falling", n_bonds=60, price_noise_sd=0.002, seed=7)


class CheckError(Exception):
    """An output of the program is missing, malformed or wrong."""


@dataclass(frozen=True)
class Step:
    """One CLI command: its argv and what its outputs must look like."""

    kind: str                      # generate | fit | perturb | drop | stability | loo | hyperscan
    argv: tuple[str, ...]
    fits: int                      # estimator fits the command attempts
    estimators: tuple[str, ...] = ()
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Plan:
    """A workload instance for one seed: files to write, steps to run, guards to read."""

    snapshots: tuple[tuple[str, dict, str | None], ...]   # (file name, ScenarioSpec kwargs, date)
    steps: tuple[Step, ...]
    guard: str                                           # estimator whose fit quality is the guard
    fit_models: dict                                     # estimator -> (model file, snapshot file)
    loo_reports: dict                                    # estimator -> loo report file


@dataclass(frozen=True)
class Size:
    """Replicate counts; ``tiny`` only checks that the benchmark runs end to end."""

    nss_flags: tuple[str, ...]
    nn_fit_flags: tuple[str, ...]
    scan_epochs: str
    epoch_scan_epochs: str
    drop_mc: int
    loo_mc_cheap: int
    stability_days: int


SIZES = {
    "full": Size(nss_flags=(), nn_fit_flags=(), scan_epochs="20,40", epoch_scan_epochs="100",
                 drop_mc=5, loo_mc_cheap=20, stability_days=5),
    "tiny": Size(nss_flags=("--nss-starts", "3"), nn_fit_flags=("--nn-epochs", "5"), scan_epochs="2",
                 epoch_scan_epochs="2", drop_mc=1, loo_mc_cheap=2, stability_days=2),
}


def _fit(snapshot: str, estimator: str, flags=()) -> Step:
    stem = Path(snapshot).name.replace(".", "_")
    argv = ("fit", snapshot, "--estimator", estimator, "-o", f"{stem}.{estimator}.model.json",
            "--samples", f"{stem}.{estimator}.samples.csv", *flags)
    return Step("fit", argv, 1, (estimator,), {"model": f"{stem}.{estimator}.model.json", "snapshot": snapshot})


def _experiment(kind: str, inputs, estimators, fits_per_estimator: int, expect: dict, flags=()) -> Step:
    argv = ("experiment", kind, *inputs, "--estimators", ",".join(estimators), "-o", "rep", *flags)
    return Step(kind, argv, fits_per_estimator * len(estimators), tuple(estimators), expect)


def _days(prefix: str, n_bonds: int, noise: float, scenario_seed: int, count: int):
    """A day-over-day sequence: one bond universe, rates drifting 2 bp a day."""
    return tuple(
        (f"{prefix}{i}.json",
         dict(regime="falling", n_bonds=n_bonds, price_noise_sd=noise, seed=scenario_seed,
              base_rate=0.03 + 0.0002 * i),
         f"day-{i:02d}")
        for i in range(count)
    )


def nss_desk(seed: int, size: Size) -> Plan:
    # The stability days are the first days of criterion 6's sequence for every
    # seed: one NSS fit costs 1.7-4.4 s across 14-bond days, so seed-drawn days
    # would make run_s measure the days rather than the code.
    days = _days("stab", 14, 0.001, 77, 3)
    drop_seed = str(random.Random(f"nss-desk:{seed}").randrange(10**6))
    flags = size.nss_flags
    est = ("nss",)
    steps = (
        _fit("desk.json", "nss", flags),
        _experiment("perturb", ["desk.json"], est, 2, {"bumps": [0.05]},
                    ("--bumps", "0.05", *flags)),
        _experiment("drop", ["desk.json"], est, 2, {"counts": [1], "mc": 1},
                    ("--counts", "1", "--mc", "1", "--seed", drop_seed, *flags)),
        _experiment("loo", ["desk.json"], est, 2, {"mc": 2}, ("--mc", "2", "--seed", "0", *flags)),
        _fit("clean.json", "nss", flags),
        _experiment("stability", [d[0] for d in days], est, len(days), {"days": len(days)}, flags),
    )
    return Plan(
        snapshots=(("desk.json", DESK_DAY, None), ("clean.json", {**DESK_DAY, "price_noise_sd": 0.0}, None)) + days,
        steps=steps,
        guard="nss",
        fit_models={"nss": ("desk_json.nss.model.json", "desk.json")},
        loo_reports={"nss": "rep.loo.nss.json"},
    )


def nn_sweep(seed: int, size: Size) -> Plan:
    rng = random.Random(f"nn-sweep:{seed}")
    scan_day = dict(regime="falling", n_bonds=30, price_noise_sd=0.002, seed=rng.randrange(1, 10**6))
    init_seed = str(rng.randrange(10**6))
    lrs = "1e-7,1e-8"
    grid = len(lrs.split(",")) * len(size.scan_epochs.split(",")) * 4
    epoch_grid = len(lrs.split(",")) * len(size.epoch_scan_epochs.split(","))
    scan = ("experiment", "hyperscan", "scan.json", "--lr", lrs, "--seed", init_seed)
    steps = (
        Step("hyperscan", scan + ("--epochs", size.scan_epochs, "--gamma1", "0,1e3", "--gamma2", "0,1e4",
                                  "-o", "rep.penalty"), grid, ("nn",), {"rows": grid, "report": "rep.penalty"}),
        Step("hyperscan", scan + ("--epochs", size.epoch_scan_epochs, "--nn-regularizer", "per_epoch",
                                  "-o", "rep.epoch"), epoch_grid, ("nn",), {"rows": epoch_grid, "report": "rep.epoch"}),
        _fit("desk.json", "nn", size.nn_fit_flags),
        _experiment("loo", ["desk.json"], ("nn",), 2, {"mc": 2}, ("--mc", "2", "--seed", "0", *size.nn_fit_flags)),
    )
    return Plan(
        snapshots=(("desk.json", DESK_DAY, None), ("scan.json", scan_day, None)),
        steps=steps,
        guard="nn",
        fit_models={"nn": ("desk_json.nn.model.json", "desk.json")},
        loo_reports={"nn": "rep.loo.nn.json"},
    )


def cli_cheap(seed: int, size: Size) -> Plan:
    rng = random.Random(f"cli-cheap:{seed}")
    days = _days("seq", WIDE_DAY["n_bonds"], WIDE_DAY["price_noise_sd"], rng.randrange(1, 10**6),
                 size.stability_days)
    drop_seed = str(rng.randrange(10**6))
    est = ("bootstrap", "kr")
    gen = ("generate", "--regime", WIDE_DAY["regime"], "--bonds", str(WIDE_DAY["n_bonds"]),
           "--noise", str(WIDE_DAY["price_noise_sd"]), "--seed", str(WIDE_DAY["seed"]))
    mc = size.drop_mc
    steps = (
        Step("generate", gen + ("-o", "wide.json"), 0, (), {"output": "wide.json"}),
        Step("generate", gen + ("--format", "csv", "-o", "wide.csv"), 0, (), {"output": "wide.csv"}),
        _fit("wide.json", "bootstrap"),
        _fit("wide.csv", "bootstrap"),
        _fit("wide.json", "kr"),
        _fit("wide.csv", "kr"),
        _experiment("perturb", ["wide.json"], est, 4, {"bumps": [0.03, 0.05, 0.10]}),
        _experiment("drop", ["wide.json"], est, 1 + 3 * mc, {"counts": [1, 5, 10], "mc": mc},
                    ("--counts", "1,5,10", "--mc", str(mc), "--seed", drop_seed)),
        _experiment("loo", ["wide.json"], est, size.loo_mc_cheap, {"mc": size.loo_mc_cheap},
                    ("--mc", str(size.loo_mc_cheap), "--seed", "0")),
        _experiment("stability", [d[0] for d in days], est, len(days), {"days": len(days)}),
    )
    return Plan(
        snapshots=days,
        steps=steps,
        guard="kr",
        fit_models={
            "kr": ("wide_json.kr.model.json", "wide.json"),
            "bootstrap": ("wide_json.bootstrap.model.json", "wide.json"),
        },
        loo_reports={"kr": "rep.loo.kr.json", "bootstrap": "rep.loo.bootstrap.json"},
    )


# Why each workload exists: README.md, "Workloads".
WORKLOADS = {"nss-desk": nss_desk, "nn-sweep": nn_sweep, "cli-cheap": cli_cheap}


def plan_for(workload: str, seed: int, size: str) -> Plan:
    return WORKLOADS[workload](seed, SIZES[size])


# ---------------------------------------------------------------------------
# Set-up and checks (called with curvekit importable)
# ---------------------------------------------------------------------------

def write_inputs(plan: Plan, workdir: Path, tracer=None) -> None:
    """Generate and write the plan's snapshot files through curvekit.market."""
    from curvekit.market import ScenarioSpec, generate_scenario, save_snapshot

    for name, spec, date in plan.snapshots:
        if tracer is None:
            save_snapshot(generate_scenario(ScenarioSpec(**spec), date=date), workdir / name)
            continue
        with tracer.span("market.generate_scenario"):
            snap = generate_scenario(ScenarioSpec(**spec), date=date)
        with tracer.span("market.save_snapshot"):
            save_snapshot(snap, workdir / name)


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckError(f"cannot read {path.name}: {exc}") from None


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def check_step(step: Step, code: int, out: str, workdir: Path) -> int:
    """Check one command's exit code and outputs; return the number of failed fits."""
    _expect(code in (0, 4), f"{' '.join(step.argv[:2])} exited {code}")
    ex = step.expect
    failed = 0
    if step.kind == "generate":
        _expect((workdir / ex["output"]).is_file(), f"generate wrote no {ex['output']}")
    elif step.kind == "fit":
        _expect(code == 0, f"fit {ex['snapshot']} failed")
        _expect((workdir / ex["model"]).is_file(), f"fit wrote no {ex['model']}")
        _expect("RMSE_ytm = " in out, f"fit {ex['snapshot']} printed no RMSE_ytm")
    elif step.kind == "hyperscan":
        rows = _read_json(workdir / f"{ex['report']}.hyperscan.nn.json")["details"]
        _expect(len(rows) == ex["rows"], f"hyperscan has {len(rows)} rows, expected {ex['rows']}")
        failed = sum(1 for r in rows if r["error"] is not None or r["rmse_ytm"] is None)
    else:
        for name in step.estimators:
            report = _read_json(workdir / f"rep.{step.kind}.{name}.json")
            failed += _check_report(step.kind, ex, report, name)
    _expect(code == 0 or failed > 0, f"{' '.join(step.argv[:2])} exited {code} with no failed fit recorded")
    return failed


def _check_report(kind: str, ex: dict, report: dict, name: str) -> int:
    details = report["details"]
    where = f"{kind} {name}"
    if kind == "perturb":
        _expect([r["bump"] for r in details] == ex["bumps"], f"{where}: bumps {[r['bump'] for r in details]}")
        _expect(len(report["metrics"]) == 2 * len(ex["bumps"]), f"{where}: metric count")
        return sum(1 for r in details if r["error"] is not None)
    if kind == "drop":
        _expect([r["count"] for r in details] == ex["counts"], f"{where}: counts {[r['count'] for r in details]}")
        _expect(all(len(r["replications"]) == ex["mc"] for r in details), f"{where}: replication count")
        return sum(r["n_failed"] for r in details)
    if kind == "loo":
        _expect(list(report["per_bucket"]) == BUCKETS, f"{where}: buckets {list(report['per_bucket'])}")
        _expect(len(details) == ex["mc"], f"{where}: {len(details)} replications, expected {ex['mc']}")
        failed = sum(1 for r in details if r["error"] is not None)
        _expect(report["per_bucket"]["Full"]["count"] == ex["mc"] - failed, f"{where}: Full count")
        return failed
    if kind == "stability":
        _expect(list(report["per_bucket"]) == BUCKETS, f"{where}: buckets {list(report['per_bucket'])}")
        skipped = details[2]["skipped"]
        pairs = details[0]["day_rmse"]
        if not skipped:
            _expect(len(pairs) == ex["days"] - 1, f"{where}: {len(pairs)} day pairs, expected {ex['days'] - 1}")
        return len(skipped)
    raise CheckError(f"unknown step kind {kind}")


def curve_from_model(model: dict):
    """Rebuild the fitted curve from a model file written by ``curvekit fit``."""
    from curvekit import BootstrapCurve, KernelParams, KrCurve, KrModel, NnCurve, NssCurve, NssParams
    from curvekit.neural import nn_from_dict

    kind = model["estimator"]
    if kind == "bootstrap":
        return BootstrapCurve(tuple(model["knot_times"]), tuple(model["knot_yields"]))
    if kind == "nss":
        return NssCurve(NssParams(**model["params"]))
    if kind == "kr":
        return KrCurve(KrModel(tuple(model["anchor_times"]), tuple(model["alphas"]), model["lambda"],
                               KernelParams(**model["kernel"])))
    return NnCurve(nn_from_dict(model))


def quality(plan: Plan, workdir: Path) -> dict:
    """Fit-quality values in basis points, keyed ``rmse_ytm_bp.<est>`` / ``loo_bp.<est>``.

    The in-sample yield RMSE is recomputed from each written model file, and
    compared with the value the ``fit`` command printed.
    """
    from curvekit import load_snapshot, present_value, rmse_ytm

    values = {}
    for name, (model_file, snap_file) in plan.fit_models.items():
        model = _read_json(workdir / model_file)
        snapshot = load_snapshot(workdir / snap_file)
        curve = curve_from_model(model)
        values[f"rmse_ytm_bp.{name}"] = rmse_ytm(curve, snapshot) * 1e4
        if name == "bootstrap":
            _expect(not model["diagnostics"], f"bootstrap skipped bonds: {model['diagnostics']}")
            worst = max(abs(present_value(curve, b) - b.market_price) / b.market_price for b in snapshot.bonds)
            _expect(worst <= 1e-8, f"bootstrap reprices a bond only to {worst:.2e} (relative)")
    for name, report_file in plan.loo_reports.items():
        full = _read_json(workdir / report_file)["metrics"]["rmse_ytm_loo"]
        _expect(full is not None and full > 0, f"loo {name}: Full is {full}")
        values[f"loo_bp.{name}"] = full * 1e4
    return values


def check_printed_rmse(step: Step, out: str, workdir: Path) -> None:
    """The RMSE a ``fit`` command printed agrees with the one recomputed from its model file."""
    from curvekit import load_snapshot, rmse_ytm

    printed = float(out.split("RMSE_ytm = ", 1)[1].split()[0])
    curve = curve_from_model(_read_json(workdir / step.expect["model"]))
    recomputed = rmse_ytm(curve, load_snapshot(workdir / step.expect["snapshot"]))
    _expect(math.isclose(printed, recomputed, rel_tol=1e-6, abs_tol=1e-12),
            f"fit {step.expect['snapshot']} printed RMSE {printed:.6e}, model file gives {recomputed:.6e}")


def check_formats(plan: Plan, workdir: Path) -> None:
    """Models fitted from the JSON and the CSV copy of one day are identical."""
    for step in plan.steps:
        if step.kind == "fit" and step.expect["snapshot"].endswith(".csv"):
            twin = step.expect["model"].replace("_csv.", "_json.")
            a = _read_json(workdir / step.expect["model"])
            b = _read_json(workdir / twin)
            _expect(a == b, f"{step.expect['model']} differs from {twin}")
