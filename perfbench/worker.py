"""One fresh interpreter of the benchmark: set up a workload, and optionally run it.

    worker.py setup --workload W --seed N --size S --workdir DIR --t0 T
    worker.py run   --workload W --seed N --size S --workdir DIR --t0 T
                    --seconds S --deadline D --trace 0|1 --out FILE

``t0`` is the parent's ``time.monotonic()`` just before it started this
process, so set-up time counts interpreter start, ``import curvekit`` and
writing the snapshot files. ``run`` then repeats the workload's whole command
sequence through ``curvekit.cli.main`` until ``--seconds`` have passed (at
least once, and not past ``--deadline``) and writes a JSON result to
``--out``. Started by run.py, which sets PYTHONPATH and pins the BLAS threads.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import tracing
import workloads
from workloads import CheckError

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_curvekit():
    import curvekit
    import curvekit.cli

    if Path(curvekit.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"curvekit imported from {curvekit.__file__}, not from {SRC}")
    return curvekit.cli


def _run_sequence(plan, main, workdir: Path, tracer=None):
    """Run every step once; return (seconds, outputs). Outputs are checked afterwards."""
    outputs = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        start = time.perf_counter()
        for step in plan.steps:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    code = main(list(step.argv))
                else:
                    with tracer.span(f"cli.{step.kind}"):
                        code = main(list(step.argv))
            outputs.append((step, code, out.getvalue(), err.getvalue()))
        seconds = time.perf_counter() - start
    finally:
        os.chdir(cwd)
    return seconds, outputs


def _check_sequence(plan, outputs, workdir: Path):
    """Check every step's outputs; return (failed fits, quality values)."""
    failed = 0
    for step, code, out, err in outputs:
        try:
            failed += workloads.check_step(step, code, out, workdir)
            if step.kind == "fit":
                workloads.check_printed_rmse(step, out, workdir)
        except CheckError as exc:
            raise CheckError(f"{exc}; stderr: {err.strip()[-300:]}") from None
    workloads.check_formats(plan, workdir)
    return failed, workloads.quality(plan, workdir)


def _environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError) as exc:  # the config layout differs between numpy releases
        blas = {"error": repr(exc)}
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas} or blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def cmd_setup(args) -> None:
    _import_curvekit()
    plan = workloads.plan_for(args.workload, args.seed, args.size)
    workloads.write_inputs(plan, Path(args.workdir))
    print(json.dumps({"setup_s": time.monotonic() - args.t0}))


def cmd_run(args) -> None:
    workdir = Path(args.workdir)
    tracer = tracing.Tracer() if args.trace else None
    main = _import_curvekit().main
    plan = workloads.plan_for(args.workload, args.seed, args.size)
    workloads.write_inputs(plan, workdir, tracer)
    setup_s = time.monotonic() - args.t0

    result = {"setup_s": setup_s, "run_s": [], "traced_run_s": [], "attempted": 0, "failed": 0,
              "quality": None, "error": None}

    def account(outputs):
        result["attempted"] += sum(step.fits for step in plan.steps)
        failed, values = _check_sequence(plan, outputs, workdir)
        result["failed"] += failed
        if result["quality"] is None:
            result["quality"] = values
        elif values != result["quality"]:
            raise CheckError(f"fit quality changed between repeats: {result['quality']} vs {values}")

    start = time.monotonic()
    try:
        while True:
            began = time.monotonic()
            seconds, outputs = _run_sequence(plan, main, workdir)
            result["run_s"].append(seconds)
            account(outputs)
            if tracer is not None:
                tracer.begin_sequence()
                tracer.install()
                try:
                    seconds, outputs = _run_sequence(plan, main, workdir, tracer)
                finally:
                    tracer.uninstall()
                result["traced_run_s"].append(seconds)
                account(outputs)
            now = time.monotonic()
            if now - start >= args.seconds or now + (now - began) > args.deadline:
                break
    except CheckError as exc:
        result["error"] = str(exc)

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = _environment()
    if tracer is not None and result["error"] is None:
        result["layers"] = {
            name: list(value)
            for name, value in tracing.layer_metrics(tracer, result["traced_run_s"], result["run_s"]).items()
        }
    Path(args.out).write_text(json.dumps(result))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--deadline", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    if args.mode == "setup":
        cmd_setup(args)
    else:
        cmd_run(args)


if __name__ == "__main__":
    main()
