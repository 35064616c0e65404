"""curvekit benchmark: protocol-run time and fit quality, with a traced per-layer pass.

    python3 perfbench/run.py --workload nss-desk --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; curvekit is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics: set-up time (the median of
several fresh interpreters), the wall time of the workload's command
sequence (the median over the sequences that fit in ``--seconds``), peak
RSS, and the fit-quality guards. ``--trace 1`` instead alternates untraced
and traced sequences and reports the per-layer metrics. Every output is
checked; a failed check prints the reason on stderr and exits 1 without a
result. The last stdout line is the JSON result. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4          # extra fresh interpreters timed for setup_s, besides the run itself
BLAS_THREADS = "1"        # a fixed count, at most nproc on any machine
TIME_LIMIT_S = 170.0      # the whole invocation must end within 180 s
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "rmse_ytm_bp": "bp", "loo_bp": "bp"}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _worker(mode: str, args, workdir: Path, deadline: float, extra=()) -> subprocess.CompletedProcess:
    workdir.mkdir(parents=True)
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--workdir", str(workdir), "--t0", repr(t0), *extra]
    return subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - t0), check=False)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def _source_record() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def _machine_record() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def run(args) -> int:
    if not (ROOT / "src" / "curvekit" / "__init__.py").is_file():
        return _fail(f"no curvekit sources under {ROOT / 'src'}; run from a source checkout")
    deadline = time.monotonic() + TIME_LIMIT_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_samples = []
        if not args.trace:
            for k in range(SETUP_PROBES):
                done = _worker("setup", args, work / f"probe{k}", deadline)
                if done.returncode != 0:
                    return _fail(f"set-up failed:\n{done.stderr[-2000:]}")
                setup_samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
        out = work / "result.json"
        remaining = deadline - time.monotonic()
        done = _worker("run", args, work / "run", deadline, (
            "--seconds", str(args.seconds), "--deadline", repr(deadline - 0.2 * remaining),
            "--trace", str(args.trace), "--out", str(out)))
        if done.returncode != 0 or not out.is_file():
            return _fail(f"worker exited {done.returncode}:\n{done.stderr[-2000:]}")
        result = json.loads(out.read_text())
    except subprocess.TimeoutExpired:
        return _fail(f"time limit of {TIME_LIMIT_S:.0f} s exceeded")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result["error"]:
        return _fail(f"output check failed: {result['error']}")
    if result["failed"]:
        return _fail(f"{result['failed']} of {result['attempted']} fits failed")

    setup_samples.append(result["setup_s"])
    guard = workloads.plan_for(args.workload, args.seed, args.size).guard
    quality = result["quality"]
    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["layers"].items()}
    else:
        e2e = {
            "setup_s": statistics.median(setup_samples),
            "run_s": statistics.median(result["run_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "rmse_ytm_bp": quality[f"rmse_ytm_bp.{guard}"],
            "loo_bp": quality[f"loo_bp.{guard}"],
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in e2e.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, **_source_record(), **_machine_record(), "environment": result["environment"],
        "guard_estimator": guard, "quality": quality, "setup_samples_s": setup_samples,
        "run_s_samples": result["run_s"], "traced_run_s_samples": result["traced_run_s"],
        "attempted": result["attempted"], "failed": result["failed"],
        "fit_fail_ratio": result["failed"] / result["attempted"], "metrics": metrics,
    }
    _report(record)
    results = ROOT / ".perfbench_results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": True, "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


def _report(record: dict) -> None:
    env = record["environment"]
    print(f"# {record['workload']} seed {record['seed']} trace {record['trace']} | commit {record['commit']} "
          f"src {record['src_sha256'][:12]} | python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"| blas {env['blas']} threads {env['blas_threads']} | nproc {record['nproc']} cpu {record['cpu']}")
    print(f"# fits attempted {record['attempted']}, failed {record['failed']}, "
          f"fit_fail_ratio {record['fit_fail_ratio']:.4g}")
    print(f"# sequences untraced {len(record['run_s_samples'])}, traced {len(record['traced_run_s_samples'])}")
    for name, value in sorted(record["quality"].items()):
        print(f"# quality {name} = {value:.6f} bp")
    if record["trace"]:
        shares = {k: v["value"] for k, v in record["metrics"].items() if k.startswith("share.")}
        print("# self-time share: " + ", ".join(f"{k[6:]} {v:.1f}%" for k, v in
                                                 sorted(shares.items(), key=lambda kv: -kv[1])))
    for name, m in record["metrics"].items():
        print(f"{name:<42} {m['value']:>16.6g} {m['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="tiny: minimal replicate counts, for the smoke test only")
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
