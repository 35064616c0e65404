"""Acceptance gate: every criterion at its stated tolerance and runtime budget.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail line per
criterion. Oracles here are deliberately self-contained re-derivations (brute
force sums, quadrature, finite differences, first-order descent) independent
of the library code paths they check.
"""

import contextlib
import json
import math
import time

import numpy as np
from scipy.integrate import quad

from curvekit import (
    Bond,
    Estimator,
    FlatCurve,
    KrCurve,
    MarketSnapshot,
    NssCurve,
    NssFitConfig,
    ScenarioSpec,
    TenorGrid,
    TrainConfig,
    bootstrap,
    drop_bonds_experiment,
    fit_kr,
    fit_nss,
    generate_scenario,
    kernel_matrix,
    kr_discount,
    loo_experiment,
    loss_smooth,
    loss_trend,
    mad_curve,
    nss_forward,
    nss_yield,
    perturb_price_experiment,
    present_value,
    rmse_curve,
    rmse_ytm,
    stability_experiment,
    total_loss,
    train,
    yield_to_maturity,
)
from curvekit.evaluation import BUCKET_LABELS
from curvekit.cli import ESTIMATOR_NAMES, build_estimators, build_parser
from curvekit.kernelridge import KernelParams
from curvekit.neural import (
    NnParams,
    grad_loss_error,
    grad_loss_smooth,
    grad_loss_trend,
    grad_total_loss,
    loss_error,
)
from curvekit.nss import NssParams
from curvekit.pricing import macaulay_duration

GRID = TenorGrid()


@contextlib.contextmanager
def criterion(num, name, budget_s):
    failures = []
    t0 = time.monotonic()
    completed = False
    try:
        yield failures
        completed = True
    finally:
        elapsed = time.monotonic() - t0
        ok = completed and not failures and elapsed < budget_s
        note = ""
        if failures:
            note = " - " + "; ".join(str(f) for f in failures[:4])
        elif not completed:
            note = " - crashed"
        elif elapsed >= budget_s:
            note = " - over budget"
        print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} "
              f"({elapsed:.1f}s, budget {budget_s:.0f}s){note}")
    if failures:
        raise AssertionError(f"criterion {num} ({name}): {failures[:10]}")
    assert elapsed < budget_s, f"criterion {num} runtime {elapsed:.1f}s >= {budget_s}s"


def coupon_bond(bond_id, maturity, coupon_amount, price):
    times = [maturity - k for k in range(int(math.floor(maturity - 1e-9)), -1, -1)]
    from curvekit import Cashflow

    flows = tuple(Cashflow(t, coupon_amount) for t in times if t > 1e-9) if coupon_amount > 0 else ()
    return Bond(id=bond_id, cashflows=flows, face_value=100.0, maturity=maturity, market_price=price)


def flat_priced_bond(bond_id, maturity, coupon_amount, rate):
    b = coupon_bond(bond_id, maturity, coupon_amount, 1.0)
    return Bond(id=b.id, cashflows=b.cashflows, face_value=b.face_value,
                maturity=b.maturity, market_price=present_value(FlatCurve(rate), b))


def test_criterion_1_pricing_oracles():
    with criterion(1, "pricing oracle suite", 5.0) as failures:
        rng = np.random.default_rng(1001)
        for k in range(200):
            rate = float(rng.uniform(-0.05, 0.30))
            maturity = float(rng.uniform(0.1, 20.0))
            coupon = float(rng.uniform(0.0, 6.0)) if rng.uniform() > 0.3 else 0.0
            bond = flat_priced_bond(f"B{k}", maturity, coupon, rate)
            ytm = yield_to_maturity(bond)
            err = abs(present_value(FlatCurve(ytm), bond) - bond.market_price) / bond.market_price
            if err > 1e-8:
                failures.append(f"ytm round trip bond {k}: {err:.2e}")
        for regime, seed in (("flat", 1), ("rising", 2), ("falling", 3)):
            snap = generate_scenario(ScenarioSpec(regime=regime, n_bonds=20, price_noise_sd=0.0, seed=seed))
            curve = bootstrap(snap)
            worst = max(
                abs(present_value(curve, b) - b.market_price) / b.market_price for b in snap.bonds
            )
            if worst > 1e-8:
                failures.append(f"bootstrap exactness {regime}: {worst:.2e}")


def test_criterion_2_nss_identities_and_recovery():
    with criterion(2, "NSS identities and self-recovery", 30.0) as failures:
        rng = np.random.default_rng(2002)
        for k in range(20):
            p = NssParams(
                beta0=float(rng.uniform(0.005, 0.08)),
                beta1=float(rng.uniform(-0.04, 0.04)),
                beta2=float(rng.uniform(-0.05, 0.05)),
                beta3=float(rng.uniform(-0.05, 0.05)),
                lambda1=float(rng.uniform(0.3, 4.0)),
                lambda2=float(rng.uniform(3.0, 15.0)),
            )
            if abs(nss_yield(p, 1e-8) - (p.beta0 + p.beta1)) > 1e-6:
                failures.append(f"short limit set {k}")
            if abs(nss_yield(p, 1e6) - p.beta0) > 1e-4:
                failures.append(f"long limit set {k}")
            for t in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
                integral, _ = quad(lambda u: nss_forward(p, u), 0.0, t,
                                   epsabs=1e-13, epsrel=1e-13, limit=200)
                if abs(nss_yield(p, t) - integral / t) > 1e-8:
                    failures.append(f"forward integral set {k} t={t}")

        true = NssParams(beta0=0.035, beta1=-0.018, beta2=0.025, beta3=0.018, lambda1=1.6, lambda2=7.5)
        base = generate_scenario(ScenarioSpec(regime="flat", n_bonds=60, maturity_range=(0.08, 15.0), seed=42))
        bonds = tuple(
            Bond(b.id, b.cashflows, b.face_value, b.maturity, present_value(NssCurve(true), b))
            for b in base.bonds
        )
        snap = MarketSnapshot(date="nss", bonds=bonds, benchmark=base.benchmark)
        fitted = fit_nss(snap, NssFitConfig(seed=0))
        grid = np.array(GRID.tenors)
        worst_bp = float(np.max(np.abs(nss_yield(fitted, grid) - nss_yield(true, grid)))) * 1e4
        if worst_bp > 0.5:
            failures.append(f"self-recovery {worst_bp:.3f} bp > 0.5 bp")


def _kr_quadratic(snapshot, kp):
    bonds = list(snapshot.bonds)
    anchors = []
    for bond in bonds:
        for t in [cf.time for cf in bond.cashflows] + [bond.maturity]:
            if t not in anchors:
                anchors.append(t)
    anchors = sorted(anchors)
    C = np.zeros((len(bonds), len(anchors)))
    for j, bond in enumerate(bonds):
        flows = [(cf.time, cf.amount) for cf in bond.cashflows] + [(bond.maturity, bond.face_value)]
        for t, amt in flows:
            C[j, anchors.index(t)] += amt
    K = kernel_matrix(np.array(anchors), kp)
    prices = np.array([b.market_price for b in bonds])
    m = len(bonds)
    w = np.array([1.0 / (m * (macaulay_duration(b) * b.market_price) ** 2) for b in bonds])
    return C, K, w, prices


def _plain_gd_objective(C, K, w, prices, lam, iters=10_000):
    al = np.zeros(K.shape[0])
    for _ in range(iters):
        resid = prices - C @ (1.0 + K @ al)
        g = -2.0 * K @ (C.T @ (w * resid)) + 2.0 * lam * K @ al
        hg = 2.0 * (K @ (C.T @ (w * (C @ (K @ g)))) + lam * K @ g)
        denom = float(g @ hg)
        if denom <= 0:
            break
        al = al - (float(g @ g) / denom) * g
    resid = prices - C @ (1.0 + K @ al)
    return float(np.sum(w * resid**2) + lam * al @ K @ al)


def test_criterion_3_kr_optimality():
    with criterion(3, "KR closed-form optimality", 60.0) as failures:
        kp = KernelParams()
        cases = [
            ([1.0, 2.5, 4.0, 7.0, 11.0], 0.03, 1e-2),
            ([0.5, 1.5, 3.0, 6.0, 9.0], 0.045, 1e-3),
            ([2.0, 5.0, 8.0, 12.0, 15.0], 0.02, 1e-1),
        ]
        for idx, (maturities, rate, lam) in enumerate(cases):
            bonds = tuple(
                Bond(id=f"Z{j}", cashflows=(), face_value=100.0, maturity=mat,
                     market_price=100.0 * math.exp(-mat * rate))
                for j, mat in enumerate(maturities)
            )
            bench = generate_scenario(ScenarioSpec(regime="flat", n_bonds=2, seed=0)).benchmark
            snap = MarketSnapshot(date="d", bonds=bonds, benchmark=bench)
            model = fit_kr(snap, lam=lam, kernel_params=kp)
            C, K, w, prices = _kr_quadratic(snap, kp)
            oracle = _plain_gd_objective(C, K, w, prices, lam)
            if model.objective > (1.0 + 1e-8) * oracle:
                failures.append(f"case {idx}: closed {model.objective:.3e} > oracle {oracle:.3e}")
            if abs(kr_discount(model, 1e-8) - 1.0) > 1e-6:
                failures.append(f"case {idx}: d(1e-8) != 1")

        rng = np.random.default_rng(3003)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(2, 21))
            ts = np.sort(rng.uniform(0.01, 30.0, size=n))
            ts = ts[np.concatenate(([True], np.diff(ts) > 1e-6))]
            worst = min(worst, float(np.linalg.eigvalsh(kernel_matrix(ts, kp)).min()))
        if worst < -1e-10:
            failures.append(f"kernel min eigenvalue {worst:.2e}")


def test_criterion_4_nn_gradient_check():
    with criterion(4, "NN backprop vs finite differences", 30.0) as failures:
        rng = np.random.default_rng(4004)
        config = TrainConfig()
        eps = 1e-6

        def flatten(p):
            return np.array(list(p.w) + list(p.b) + list(p.v) + [p.c])

        def unflatten(x, h):
            return NnParams(w=tuple(x[:h]), b=tuple(x[h:2 * h]), v=tuple(x[2 * h:3 * h]), c=float(x[3 * h]))

        for case in range(20):
            params = NnParams(
                w=tuple(rng.normal(0, 0.05, 3)),
                b=tuple(rng.normal(0, 0.3, 3)),
                v=tuple(rng.normal(0, 0.3, 3)),
                c=float(rng.uniform(0.01, 0.05)),
            )
            snap = generate_scenario(
                ScenarioSpec(regime=("flat", "rising", "falling")[case % 3],
                             n_bonds=6, price_noise_sd=0.005, seed=400 + case)
            )
            checks = [
                ("error", lambda p: loss_error(p, snap), lambda p: grad_loss_error(p, snap)),
                ("smooth", lambda p: loss_smooth(p, config.grid), lambda p: grad_loss_smooth(p, config.grid)),
                ("trend", lambda p: loss_trend(p, snap.benchmark, config.grid),
                 lambda p: grad_loss_trend(p, snap.benchmark, config.grid)),
                ("total", lambda p: total_loss(p, snap, config), lambda p: grad_total_loss(p, snap, config)),
            ]
            x0 = flatten(params)
            for name, value_fn, grad_fn in checks:
                _, grads = grad_fn(params)
                gw, gb, gv, gc = grads
                analytic = np.concatenate([np.asarray(gw), np.asarray(gb), np.asarray(gv), [gc]])
                for i in range(len(x0)):
                    xp, xm = x0.copy(), x0.copy()
                    xp[i] += eps
                    xm[i] -= eps
                    numeric = (value_fn(unflatten(xp, 3)) - value_fn(unflatten(xm, 3))) / (2 * eps)
                    tol = max(1e-4 * max(abs(analytic[i]), abs(numeric)), 1e-8)
                    if abs(analytic[i] - numeric) > tol:
                        failures.append(f"case {case} {name} param {i}: {analytic[i]:.3e} vs {numeric:.3e}")


def test_criterion_5_regularizer_direction():
    with criterion(5, "regularizer direction over 10 seeds", 300.0) as failures:
        snap = generate_scenario(
            ScenarioSpec(regime="falling", n_bonds=60, price_noise_sd=0.002, seed=2025)
        )
        smooth_off, smooth_on, trend_off, trend_on = [], [], [], []
        for seed in range(10):
            base_cfg = TrainConfig(epochs=300, gamma1=0.0, gamma2=0.0, seed=seed)
            baseline = train(snap, base_cfg)
            smoothed = train(snap, TrainConfig(epochs=300, gamma1=1e5, gamma2=0.0, seed=seed))
            trended = train(snap, TrainConfig(epochs=300, gamma1=0.0, gamma2=1e5, seed=seed))
            smooth_off.append(loss_smooth(baseline, GRID.tenors))
            smooth_on.append(loss_smooth(smoothed, GRID.tenors))
            trend_off.append(loss_trend(baseline, snap.benchmark, GRID.tenors))
            trend_on.append(loss_trend(trended, snap.benchmark, GRID.tenors))
        if np.mean(smooth_on) > np.mean(smooth_off):
            failures.append(
                f"L_smooth(g1=1e5)={np.mean(smooth_on):.3e} > L_smooth(g1=0)={np.mean(smooth_off):.3e}"
            )
        if not np.mean(trend_on) < np.mean(trend_off):
            failures.append(
                f"L_trend(g2=1e5)={np.mean(trend_on):.3e} >= L_trend(g2=0)={np.mean(trend_off):.3e}"
            )


def _desk_estimators():
    # the command line's estimators, so bootstrap and KR reuse the day's work and their replicates run serially
    args = build_parser().parse_args(["fit", "d.json", "--estimator", "kr", "--nss-starts", "6", "--nn-epochs", "150"])
    return [est for est, _ in build_estimators(args, ESTIMATOR_NAMES)]


def test_criterion_6_protocol_reproduction():
    with criterion(6, "protocol reproduction at desk scale", 600.0) as failures:
        snap = generate_scenario(
            ScenarioSpec(regime="falling", n_bonds=30, price_noise_sd=0.002, seed=99)
        )
        long_bond = max(snap.bonds, key=lambda b: b.maturity).id
        days = [
            generate_scenario(
                ScenarioSpec(regime="falling", n_bonds=14, price_noise_sd=0.001, seed=77,
                             base_rate=0.03 + 0.0002 * i),
                date=f"day-{i:02d}",
            )
            for i in range(30)
        ]
        for est in _desk_estimators():
            rows = perturb_price_experiment(snap, est, long_bond, [0.03, 0.05, 0.10])
            if [r["bump"] for r in rows] != [0.03, 0.05, 0.10] or any(r["error"] for r in rows):
                failures.append(f"{est.name}: perturb shape")
            drops = drop_bonds_experiment(snap, est, [1, 5, 10], n_mc=10, seed=0)
            if [d["count"] for d in drops] != [1, 5, 10] or any(d["rmse_curve"] is None for d in drops):
                failures.append(f"{est.name}: drop shape")
            stab = stability_experiment(days, est, threshold=0.0010)
            if len(stab["day_rmse"]) != 29 or set(stab["hit_rate"]) != set(BUCKET_LABELS):
                failures.append(f"{est.name}: stability shape")
            if stab["hit_rate"]["Full"] is None:
                failures.append(f"{est.name}: stability hit rate missing")
            loo = loo_experiment(snap, est, n_mc=10, seed=0)
            if set(loo["per_bucket"]) != set(BUCKET_LABELS) or loo["per_bucket"]["Full"] is None:
                failures.append(f"{est.name}: loo shape")
            if loo["n_failed"]:
                failures.append(f"{est.name}: loo had {loo['n_failed']} failed fits")
        # deterministic seed-fixed values: repeat one protocol and compare
        est = _desk_estimators()[2]
        again = loo_experiment(snap, est, n_mc=10, seed=0)
        base = loo_experiment(snap, est, n_mc=10, seed=0)
        if again["per_bucket"] != base["per_bucket"]:
            failures.append("loo rerun differs under fixed seed")


def test_criterion_7_metric_bruteforce_equivalence():
    with criterion(7, "metric brute-force equivalence", 60.0) as failures:
        rng = np.random.default_rng(7007)

        def rand_curve():
            return NssCurve(NssParams(
                beta0=float(rng.uniform(0.01, 0.06)),
                beta1=float(rng.uniform(-0.03, 0.03)),
                beta2=float(rng.uniform(-0.04, 0.04)),
                beta3=float(rng.uniform(-0.04, 0.04)),
                lambda1=float(rng.uniform(0.4, 3.0)),
                lambda2=float(rng.uniform(3.0, 12.0)),
            ))

        for k in range(20):
            a, b = rand_curve(), rand_curve()
            ya = [a.yield_at(t) for t in GRID.tenors]
            yb = [b.yield_at(t) for t in GRID.tenors]
            rmse_naive = math.sqrt(sum((p - q) ** 2 for p, q in zip(ya, yb)) / len(ya))
            mad_naive = max(abs(p - q) for p, q in zip(ya, yb))
            r, m = rmse_curve(a, b, GRID), mad_curve(a, b, GRID)
            if abs(r - rmse_naive) > 1e-12 * max(rmse_naive, 1e-300):
                failures.append(f"rmse_curve case {k}")
            if abs(m - mad_naive) > 1e-12 * max(mad_naive, 1e-300):
                failures.append(f"mad case {k}")
            if m < r:
                failures.append(f"MAD < RMSE case {k}")

            snap = generate_scenario(
                ScenarioSpec(regime=("flat", "rising", "falling")[k % 3], n_bonds=6,
                             price_noise_sd=0.004, seed=700 + k)
            )
            naive_ytm = math.sqrt(
                sum((a.yield_at(bond.maturity) - yield_to_maturity(bond)) ** 2 for bond in snap.bonds)
                / len(snap.bonds)
            )
            got = rmse_ytm(a, snap)
            if abs(got - naive_ytm) > 1e-12 * naive_ytm:
                failures.append(f"rmse_ytm case {k}")

        est = Estimator("bootstrap", lambda s: bootstrap(s))
        days = [
            generate_scenario(
                ScenarioSpec(regime="rising", n_bonds=8, seed=55, base_rate=0.03 + 0.0005 * i),
                date=f"d{i}",
            )
            for i in range(6)
        ]
        for threshold in (0.0005, 0.0010, 0.0030):
            stab = stability_experiment(days, est, threshold=threshold)
            vals = [d["Full"] for d in stab["day_rmse"]]
            naive_hit = sum(1 for v in vals if v < threshold) / len(vals)
            if abs(stab["hit_rate"]["Full"] - naive_hit) > 1e-12:
                failures.append(f"hit rate at {threshold}")


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "seed-fixed determinism of fits and experiments", 120.0) as failures:
        snap = generate_scenario(ScenarioSpec(regime="falling", n_bonds=12, price_noise_sd=0.002, seed=8))
        nss_cfg = NssFitConfig(starts=4, max_iter=1500, seed=1)
        nn_cfg = TrainConfig(epochs=80, seed=1)
        fits = {
            "bootstrap": lambda: bootstrap(snap),
            "nss": lambda: fit_nss(snap, nss_cfg),
            "kr": lambda: fit_kr(snap, 1e-2),
            "nn": lambda: train(snap, nn_cfg),
        }
        for name, fit in fits.items():
            if fit() != fit():
                failures.append(f"{name}: refit differs")

        est = Estimator("kr", lambda s: KrCurve(fit_kr(s, 1e-2)))
        d1 = drop_bonds_experiment(snap, est, [1, 3], n_mc=5, seed=4)
        d2 = drop_bonds_experiment(snap, est, [1, 3], n_mc=5, seed=4)
        if d1 != d2:
            failures.append("drop experiment rerun differs")
        l1 = loo_experiment(snap, est, n_mc=6, seed=4)
        l2 = loo_experiment(snap, est, n_mc=6, seed=4)
        if l1 != l2:
            failures.append("loo experiment rerun differs")

        # CLI surface: identical invocations overwrite byte-identical files
        from curvekit.cli import main

        day = tmp_path / "day.json"
        assert main(["generate", "--regime", "falling", "--bonds", "10", "--seed", "6",
                     "-o", str(day)]) == 0
        model = tmp_path / "model.json"
        samples = tmp_path / "samples.csv"
        argv = ["fit", str(day), "--estimator", "nn", "--nn-epochs", "40",
                "-o", str(model), "--samples", str(samples)]
        assert main(argv) == 0
        first = (model.read_bytes(), samples.read_bytes())
        assert main(argv) == 0
        if (model.read_bytes(), samples.read_bytes()) != first:
            failures.append("CLI fit outputs differ across reruns")

        report = tmp_path / "rep"
        argv = ["experiment", "loo", str(day), "--mc", "4", "--estimators", "kr",
                "-o", str(report), "--seed", "3"]
        assert main(argv) == 0
        path = tmp_path / "rep.loo.kr.json"
        data1 = json.loads(path.read_text())
        data1["provenance"].pop("timestamp", None)
        assert main(argv) == 0
        data2 = json.loads(path.read_text())
        data2["provenance"].pop("timestamp", None)
        if data1 != data2:
            failures.append("CLI report differs across reruns (timestamp excluded)")
