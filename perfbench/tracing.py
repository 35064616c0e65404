"""Spans around calls into curvekit's modules, and the per-layer metrics built from them.

The tracer records spans from the benchmark's side only: it replaces a
function name inside the curvekit module that imports it with a timing
wrapper, and restores the original on ``uninstall``. Each span keeps the
index of its parent, so a span's self time is its duration minus the
durations of its direct children (calls are single-threaded, so children
nest strictly inside their parent).

A span is named ``<layer>.<function>`` where the layer is the curvekit module
that owns the work: ``pricing.yield_to_maturity`` whether nss, neural or
evaluation called it. scipy calls made by a fitter (``minimize``,
``cho_factor``) count toward that fitter's layer.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

LAYERS = ("market", "pricing", "nss", "kernelridge", "neural", "evaluation", "cli")

# (module imported into, attribute, span name). Each name is wrapped where the
# caller looks it up at call time, so internal calls are caught too.
WRAPS = (
    ("cli", "generate_scenario", "market.generate_scenario"),
    ("cli", "save_snapshot", "market.save_snapshot"),
    ("cli", "load_snapshot", "market.load_snapshot"),
    ("cli", "bootstrap", "pricing.bootstrap"),
    ("pricing", "yield_to_maturity", "pricing.yield_to_maturity"),
    ("nss", "yield_to_maturity", "pricing.yield_to_maturity"),
    ("neural", "yield_to_maturity", "pricing.yield_to_maturity"),
    ("evaluation", "yield_to_maturity", "pricing.yield_to_maturity"),
    ("nss", "cashflow_matrix", "pricing.cashflow_matrix"),
    ("kernelridge", "cashflow_matrix", "pricing.cashflow_matrix"),
    ("nss", "duration_price_weights", "pricing.duration_price_weights"),
    ("kernelridge", "duration_price_weights", "pricing.duration_price_weights"),
    ("cli", "fit_nss", "nss.fit_nss"),
    ("cli", "nss_objective", "nss.nss_objective"),
    ("nss", "minimize", "nss.minimize"),
    ("cli", "fit_kr", "kernelridge.fit_kr"),
    ("kernelridge", "cho_factor", "kernelridge.cho_factor"),
    ("cli", "train", "neural.train"),
    ("cli", "perturb_price_experiment", "evaluation.perturb"),
    ("cli", "drop_bonds_experiment", "evaluation.drop"),
    ("cli", "stability_experiment", "evaluation.stability"),
    ("cli", "loo_experiment", "evaluation.loo"),
    ("cli", "rmse_ytm", "evaluation.rmse_ytm"),
    ("evaluation", "rmse_curve", "evaluation.rmse_curve"),
)

CLI_COMMANDS = ("generate", "fit", "perturb", "drop", "stability", "loo", "hyperscan")
TAILED = (
    ("pricing.bootstrap", "ms", 1e3),
    ("nss.fit_nss", "s", 1.0),
    ("kernelridge.fit_kr", "ms", 1e3),
    ("neural.train", "s", 1.0),
)


def _bond_key(bond):
    return (bond.id, bond.market_price, bond.maturity, bond.face_value, bond.cashflows)


def _train_attrs(args, kwargs):
    snapshot = args[0]
    config = args[1] if len(args) > 1 else kwargs.get("config")
    steps = config.epochs * len(snapshot.bonds)
    if config.gamma1 == 0 and config.gamma2 == 0:
        mode = "no_penalty"
    else:
        mode = config.regularizer
    return {"steps": steps, "mode": mode}


class Tracer:
    """In-memory span recorder; one list of spans per workload sequence."""

    def __init__(self):
        self.sequences: list[list[list]] = []
        self.setup: list[list] = []
        self._spans = self.setup
        self._stack: list[int] = []
        self._seen: set = set()
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def begin_sequence(self) -> None:
        self._spans = []
        self.sequences.append(self._spans)
        self._seen = set()

    @contextmanager
    def span(self, name: str, **attrs):
        spans, stack = self._spans, self._stack
        rec = [name, stack[-1] if stack else -1, 0, 0, attrs]
        stack.append(len(spans))
        spans.append(rec)
        rec[2] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter_ns()
            stack.pop()

    def _wrapper(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            attrs = {}
            if name == "pricing.yield_to_maturity":
                key = _bond_key(args[0])
                attrs["reuse"] = key in tracer._seen
                tracer._seen.add(key)
            elif name == "neural.train":
                attrs = _train_attrs(args, kwargs)
            with tracer.span(name, **attrs) as rec:
                result = fn(*args, **kwargs)
            if name == "nss.minimize":
                rec[4].update(nfev=int(result.nfev), capped=not result.success)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import importlib

        for module_name, attr, name in WRAPS:
            module = importlib.import_module(f"curvekit.{module_name}")
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrapper(original, name))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _self_times(spans):
    """Per-span self time in seconds, indexed like ``spans``."""
    child = [0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [((s[3] - s[2]) - c) * 1e-9 for s, c in zip(spans, child)]


def tail(values):
    """Highest percentile with at least ten samples beyond it: (value, percentile).

    With n sorted samples that is the (n-10)-th smallest; fewer than 11
    samples have no such percentile and give (0.0, 0.0).
    """
    n = len(values)
    if n < 11:
        return 0.0, 0.0
    ordered = sorted(values)
    return ordered[n - 11], 100.0 * (n - 10) / n


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, traced_run_s: list[float], untraced_run_s: list[float]) -> dict:
    """Every per-layer metric as ``{name: (value, unit)}``.

    Counts and self times are per workload sequence (the median over the
    sequences traced); percentiles pool the samples of all sequences. A layer
    the workload never calls reads 0.
    """
    sequences = tracer.sequences
    n_seq = len(sequences)
    durations: dict[str, list[float]] = {}
    selfs: dict[str, list[float]] = {}
    records: dict[str, list] = {}
    per_seq_self: list[dict[str, float]] = []
    module_self = {layer: 0.0 for layer in LAYERS}
    root_total = 0.0

    def collect(spans, seq_self):
        nonlocal root_total
        for rec, self_s in zip(spans, _self_times(spans)):
            name, parent = rec[0], rec[1]
            dur = (rec[3] - rec[2]) * 1e-9
            durations.setdefault(name, []).append(dur)
            selfs.setdefault(name, []).append(self_s)
            records.setdefault(name, []).append(rec)
            if seq_self is not None:
                seq_self[name] = seq_self.get(name, 0.0) + self_s
                module_self[name.split(".", 1)[0]] += self_s
                if parent < 0:
                    root_total += dur

    collect(tracer.setup, None)
    for spans in sequences:
        seq_self: dict[str, float] = {}
        collect(spans, seq_self)
        per_seq_self.append(seq_self)

    def per_seq_count(name):
        return len(records.get(name, ())) / n_seq if n_seq else 0.0

    def seq_self_median(name):
        return _median([s.get(name, 0.0) for s in per_seq_self])

    m: dict[str, tuple[float, str]] = {}

    ytm = records.get("pricing.yield_to_maturity", [])
    m["pricing.yield_to_maturity.us_p50"] = (_median(durations.get("pricing.yield_to_maturity", [])) * 1e6, "us")
    m["pricing.yield_to_maturity.calls"] = (per_seq_count("pricing.yield_to_maturity"), "count")
    reused = sum(1 for r in ytm if r[4].get("reuse"))
    m["pricing.yield_to_maturity.reuse_ratio"] = (reused / len(ytm) if ytm else 0.0, "ratio")
    m["pricing.duration_price_weights.ms_p50"] = (_median(durations.get("pricing.duration_price_weights", [])) * 1e3, "ms")
    m["pricing.duration_price_weights.calls"] = (per_seq_count("pricing.duration_price_weights"), "count")
    m["pricing.cashflow_matrix.us_p50"] = (_median(durations.get("pricing.cashflow_matrix", [])) * 1e6, "us")
    m["pricing.cashflow_matrix.calls"] = (per_seq_count("pricing.cashflow_matrix"), "count")

    for name, unit, scale in TAILED:
        vals = durations.get(name, [])
        value, pct = tail(vals)
        m[f"{name}.{unit}_p50"] = (_median(vals) * scale, unit)
        m[f"{name}.{unit}_tail"] = (value * scale, unit)
        m[f"{name}.tail_pct"] = (pct, "%")
        m[f"{name}.n"] = (float(len(vals)), "count")

    # NSS: objective evaluations come from each minimize result.
    nm = records.get("nss.minimize", [])
    nfev = sum(r[4].get("nfev", 0) for r in nm)
    nss_self = sum(selfs.get("nss.fit_nss", [])) + sum(selfs.get("nss.minimize", []))
    m["nss.nfev"] = (nfev / n_seq if n_seq else 0.0, "count")
    m["nss.eval_us"] = (nss_self / nfev * 1e6 if nfev else 0.0, "us")
    m["nss.nm_runs"] = (per_seq_count("nss.minimize"), "count")
    m["nss.nm_capped_ratio"] = (sum(1 for r in nm if r[4].get("capped")) / len(nm) if nm else 0.0, "ratio")

    m["kernelridge.fit_kr.self_ms_p50"] = (_median(selfs.get("kernelridge.fit_kr", [])) * 1e3, "ms")
    n_kr = len(records.get("kernelridge.fit_kr", []))
    m["kernelridge.cho_factor.per_fit"] = (len(records.get("kernelridge.cho_factor", [])) / n_kr if n_kr else 0.0, "count")

    trains = records.get("neural.train", [])
    m["neural.steps"] = (sum(r[4]["steps"] for r in trains) / n_seq if n_seq else 0.0, "count")
    for mode in ("per_bond", "no_penalty", "per_epoch"):
        steps = sum(r[4]["steps"] for r in trains if r[4]["mode"] == mode)
        busy = sum(s for r, s in zip(trains, selfs.get("neural.train", [])) if r[4]["mode"] == mode)
        m[f"neural.step_us.{mode}"] = (busy / steps * 1e6 if steps else 0.0, "us")

    for protocol in ("perturb", "drop", "stability", "loo"):
        m[f"evaluation.{protocol}.self_s"] = (seq_self_median(f"evaluation.{protocol}"), "s")
    m["evaluation.rmse_ytm.ms_p50"] = (_median(durations.get("evaluation.rmse_ytm", [])) * 1e3, "ms")
    m["evaluation.rmse_ytm.calls"] = (per_seq_count("evaluation.rmse_ytm"), "count")
    m["evaluation.rmse_curve.us_p50"] = (_median(durations.get("evaluation.rmse_curve", [])) * 1e6, "us")
    m["evaluation.rmse_curve.calls"] = (per_seq_count("evaluation.rmse_curve"), "count")

    for fn in ("load_snapshot", "save_snapshot", "generate_scenario"):
        m[f"market.{fn}.ms_p50"] = (_median(durations.get(f"market.{fn}", [])) * 1e3, "ms")
    for command in CLI_COMMANDS:
        m[f"cli.{command}.self_s"] = (seq_self_median(f"cli.{command}"), "s")

    for layer in LAYERS:
        m[f"share.{layer}"] = (100.0 * module_self[layer] / root_total if root_total else 0.0, "%")
    m["trace.overhead_s"] = (_median(traced_run_s) - _median(untraced_run_s), "s")
    return m
