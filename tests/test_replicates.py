"""Replicates of one day fitted from the day's prepared work: their own fits, failures attributed.

KR slices each replicate's rows of C and its principal submatrix of the
day's Gram matrix ``C K C'``, and the bootstrap resumes the day's knots at a
replicate's first other bond; stability fits its days as replicates of the
first. Every replicate fitted through ``Estimator.fit_many`` must equal the
replicate's own fit, or fail with the same error. The bootstrap's curves
equal them in every float, and so do KR's anchors, alphas and lambda, which
fix the curve: each entry of ``G`` sums over its two bonds' own cashflows
only, so a replicate's submatrix is its own layout's, even where the system
is ill-conditioned. KR's objective and price error sum over the day's
anchors, so they match within the CLI golden's rule, ``REL_TOL`` relative
plus ``ABS_TOL``. Across the default kernels, ``OPENBLAS_CORETYPE`` set to
Haswell or SandyBridge and numpy's AVX2 path, the largest drift on these
cases was 2.2e-14 in the objective and 1.1e-13 in the price error. The two
paths run in one process, so the exact equalities hold under any kernels
and any SIMD dispatch.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from curvekit import Bond, ScenarioSpec, cli, generate_scenario, kernelridge, pricing, yield_to_maturity
from curvekit.cli import build_estimators, build_parser, main
from curvekit.errors import CurveKitError
from curvekit.evaluation import DEFAULT_TENORS, drop_bonds_experiment, loo_experiment, refit, stability_experiment

REL_TOL = 1e-11
ABS_TOL = 1e-15

DAYS = [
    dict(regime=regime, n_bonds=n_bonds, price_noise_sd=noise, seed=seed)
    for regime, seed in (("falling", 7), ("rising", 5), ("flat", 11))
    for n_bonds in (15, 60)
    for noise in (0.0, 0.002)
]


def estimators(*flags):
    args = build_parser().parse_args(["fit", "day.json", "--estimator", "kr", *flags])
    return {est.name: est for est, _ in build_estimators(args, ["bootstrap", "kr"])}


ESTIMATORS = estimators()


def outcome(fit):
    """The floats that fix the fitted curve as hex, and the bootstrap's diagnostics or KR's objective
    and price error; or the type and message of its error."""
    try:
        curve = fit()
        if isinstance(curve, pricing.BootstrapCurve):
            return [x.hex() for x in curve.knot_times + curve.knot_yields], curve.diagnostics
        model = curve.model
        return ([x.hex() for x in (*model.anchor_times, *model.alphas, model.lam)],
                np.array([model.objective, model.price_error]))
    except CurveKitError as exc:
        return type(exc).__name__, str(exc)


def assert_same(got, want):
    """The outcomes are equal, KR's objective and price error within ``REL_TOL`` relative plus ``ABS_TOL``."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g[1]) is type(w[1]) and g[0] == w[0]
        if isinstance(w[1], np.ndarray):
            np.testing.assert_allclose(g[1], w[1], rtol=REL_TOL, atol=ABS_TOL)
        else:
            assert g[1] == w[1]


def assert_own_fits(estimator, day, replicates):
    assert_same([outcome(fit) for fit in estimator.fit_many(day, replicates)],
                [outcome(lambda r=r: estimator.fit(r)) for r in replicates])


def dropped(day, ids):
    return replace(day, bonds=(b for b in day.bonds if b.id not in ids))


def repriced(day, bond_id, bump):
    return replace(day, bonds=(
        Bond(b.id, b.cashflows, b.face_value, b.maturity, b.market_price * (1.0 + bump)) if b.id == bond_id else b
        for b in day.bonds
    ))


def replicate_sets(day, seed=0):
    """Drop 1/5/10, leave-one-out with repeated draws, perturb the longest and a mid-curve bond, drop none
    (the day's bonds, and the same bonds in reverse order)."""
    rng = np.random.default_rng(seed)
    ids = [b.id for b in day.bonds]
    picks = [ids[i] for i in rng.integers(0, len(ids), size=6)]
    return {
        "drop": [dropped(day, set(rng.choice(ids, size=count, replace=False).tolist()))
                 for count in (1, 5, 10) for _ in range(3)],
        "loo": [dropped(day, {i}) for i in picks + picks[:2]],
        "perturb": [repriced(day, bond_id, bump) for bond_id in (ids[-1], ids[len(ids) // 2])
                    for bump in (0.03, 0.05, 0.10)],
        "none": [dropped(day, set()), replace(day, bonds=day.bonds[::-1])],
    }


@pytest.mark.parametrize("spec", DAYS, ids=lambda s: f"{s['regime']}-{s['n_bonds']}-{s['price_noise_sd']}")
@pytest.mark.parametrize("name", ["bootstrap", "kr"])
@pytest.mark.parametrize("kind", ["drop", "loo", "perturb", "none"])
def test_replicates_equal_their_own_fits(spec, name, kind):
    day = generate_scenario(ScenarioSpec(**spec))
    reps = replicate_sets(day)[kind]
    if kind == "perturb" or kind == "none":
        reps = [day, *reps]  # the day itself is replicate 0 of perturb and drop
    assert_own_fits(ESTIMATORS[name], day, reps)


def counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_kr_replicates_share_one_layout(monkeypatch):
    day = generate_scenario(ScenarioSpec(**DAYS[1]))
    reps = [r for group in replicate_sets(day).values() for r in group]
    layouts = counting(monkeypatch, kernelridge, "cashflow_matrix")
    grams = counting(monkeypatch, kernelridge, "_gram")
    assert_own_fits(ESTIMATORS["kr"], day, reps)
    assert len(layouts) == len(grams) == 1 + len(reps)  # the day's, then one per replicate fitted alone


@pytest.mark.parametrize("name, module, step", [("bootstrap", pricing, "_place_knot"),
                                                ("kr", kernelridge, "cashflow_matrix")])
def test_a_plan_of_one_replicate_reuses_the_day(monkeypatch, name, module, step):
    day = generate_scenario(ScenarioSpec(**DAYS[1]))
    replicate = replicate_sets(day)["loo"][0]
    calls = counting(monkeypatch, module, step)
    grams = counting(monkeypatch, kernelridge, "_gram")
    [fit] = ESTIMATORS[name].fit_many(day, [replicate])
    prepared = len(calls)  # the day's knots, or the day's layout
    batched = outcome(fit)
    assert prepared == (len(day.bonds) if name == "bootstrap" else 1)
    # the replicate's system is sliced from the day's
    assert name == "bootstrap" or len(calls) == len(grams) == prepared
    assert_same([batched], [outcome(lambda: ESTIMATORS[name].fit(replicate))])


def test_bootstrap_resumes_at_the_first_other_bond(monkeypatch):
    day = generate_scenario(ScenarioSpec(**DAYS[1]))
    longest = day.bonds[-1].id
    reps = [day, repriced(day, longest, 0.05), dropped(day, {longest})]
    knots = counting(monkeypatch, pricing, "_place_knot")
    fits = ESTIMATORS["bootstrap"].fit_many(day, reps)
    assert len(knots) == len(day.bonds)  # the day's own solve
    for fit, placed in zip(fits, (0, 1, 0)):
        before = len(knots)
        fit()
        assert len(knots) - before == placed


def with_bond(day, bond):
    return replace(day, bonds=(*day.bonds, bond))


def zero_coupon(bond_id, maturity, rate=0.03):
    return Bond(bond_id, (), 100.0, maturity, 100.0 * math.exp(-rate * maturity))


def test_duplicate_maturity_inside_the_reused_prefix():
    day = generate_scenario(ScenarioSpec(**DAYS[0]))
    ordered = day.bonds
    twin = ordered[3]
    day = with_bond(day, Bond("B999", twin.cashflows, twin.face_value, twin.maturity, twin.market_price * 1.001))
    curve = ESTIMATORS["bootstrap"].fit(day)
    assert any("duplicates an existing knot" in d for d in curve.diagnostics)
    reps = [day, dropped(day, {ordered[-1].id}), dropped(day, {ordered[8].id}), repriced(day, ordered[-2].id, 0.05),
            dropped(day, {twin.id}), dropped(day, {"B999"})]
    for name in ("bootstrap", "kr"):
        assert_own_fits(ESTIMATORS[name], day, reps)


def test_bond_that_no_yield_reprices():
    day = generate_scenario(ScenarioSpec(**DAYS[0]))
    ordered = day.bonds
    bad = ordered[4].id
    day = repriced(day, bad, 2.0)  # three times its price: past every yield in YTM_BRACKET
    reps = [day, dropped(day, {bad}), dropped(day, {ordered[9].id}), dropped(day, {ordered[1].id, ordered[12].id}),
            repriced(day, ordered[-1].id, 0.03)]
    for name in ("bootstrap", "kr"):
        assert_own_fits(ESTIMATORS[name], day, reps)
    boot = [outcome(fit) for fit in ESTIMATORS["bootstrap"].fit_many(day, reps)]
    assert all(any(f"bond {bad}: no yield" in d for d in o[1]) for o, r in zip(boot, reps) if r is not reps[1])
    kr = [outcome(fit) for fit in ESTIMATORS["kr"].fit_many(day, reps)]
    assert kr[0][0] == "NoSolutionError" and kr[1][0] != "NoSolutionError"


def test_every_bond_skipped_fails_each_replicate_alone():
    day = generate_scenario(ScenarioSpec(**DAYS[0]))
    day = replace(day, bonds=(replace(b, market_price=b.market_price * 10.0) for b in day.bonds))
    reps = [day, dropped(day, {day.bonds[0].id})]
    fits = ESTIMATORS["bootstrap"].fit_many(day, reps)  # the day's failure does not escape
    results = [outcome(fit) for fit in fits]
    assert [r[0] for r in results] == ["NoSolutionError", "NoSolutionError"]
    assert results == [outcome(lambda r=r: ESTIMATORS["bootstrap"].fit(r)) for r in reps]


def test_payment_dates_apart_by_less_than_1e_9_are_two_anchors(monkeypatch):
    # every payment date of a replicate is one of its day's anchors, so every fit is sliced from the day's layout
    day = generate_scenario(ScenarioSpec(**DAYS[0]))
    day = with_bond(with_bond(day, zero_coupon("Z1", 3.3337)), zero_coupon("Z2", 3.3337 + 5e-10))
    anchors = kernelridge.KrLayout(day, kernelridge.KernelParams()).anchor_times.tolist()
    assert 3.3337 in anchors and 3.3337 + 5e-10 in anchors
    reps = [day, dropped(day, {"Z1"}), dropped(day, {"Z2"}), dropped(day, {"Z1", "Z2"}), dropped(day, {"B003"})]
    layouts = counting(monkeypatch, kernelridge, "cashflow_matrix")
    grams = counting(monkeypatch, kernelridge, "_gram")
    assert_own_fits(ESTIMATORS["kr"], day, reps)
    assert len(layouts) == len(grams) == 1 + len(reps)  # the day's layout, then every fit alone
    assert_own_fits(ESTIMATORS["bootstrap"], day, reps)


def test_a_kernel_that_overflows_only_at_the_longest_bond(monkeypatch):
    # sinh(m t) overflows past 710 / m, set between the two longest maturities: only the longest
    # bond's last anchors overflow, so every replicate that drops it fits, and every other fails
    day = generate_scenario(ScenarioSpec(**DAYS[0]))
    longest, second = sorted(b.maturity for b in day.bonds)[:-3:-1]
    m = 710.0 / (0.5 * (longest + second))
    kr = estimators("--kr-b", repr(1.0 / m**2))["kr"]
    reps = [dropped(day, {bond.id}) for bond in day.bonds]
    layouts = counting(monkeypatch, kernelridge, "cashflow_matrix")
    outcomes = [outcome(fit) for fit in kr.fit_many(day, [day, *reps])]
    # the day's G is not finite, yet every replicate is sliced from its layout
    assert len(layouts) == 1
    assert_same(outcomes, [outcome(lambda r=r: kr.fit(r)) for r in [day, *reps]])
    assert [o[0] == "FitFailureError" for o in outcomes] == [True] + [b.maturity != longest for b in day.bonds]


def test_a_layout_of_other_kernel_weights_is_refused():
    day = generate_scenario(ScenarioSpec(**DAYS[0]))
    layout = kernelridge.KrLayout(day, kernelridge.KernelParams(b=2.0))
    with pytest.raises(CurveKitError, match="other kernel weights"):
        kernelridge.fit_kr(day, layout=layout)


# ---------------------------------------------------------------------------
# Stability: every day a replicate of the first
# ---------------------------------------------------------------------------

def days_of(regime, n_bonds, count=5):
    """A day-over-day sequence: one bond universe, rates drifting 2 bp a day, prices noisy."""
    return [generate_scenario(ScenarioSpec(regime=regime, n_bonds=n_bonds, price_noise_sd=0.001, seed=77,
                                           base_rate=0.03 + 0.0002 * i), date=f"day-{i}")
            for i in range(count)]


def assert_stability_own_fits(estimator, days):
    result = stability_experiment(days, estimator)
    alone = [outcome(lambda d=d: estimator.fit(d)) for d in days]
    failed = [isinstance(o[0], str) for o in alone]  # an error's type name and message
    assert [c is None for c in result["curves"]] == failed
    assert_same([outcome(lambda c=c: c) for c in result["curves"] if c is not None],
                [o for o, f in zip(alone, failed) if not f])
    assert_own_fits(estimator, days[0], days)
    return result


@pytest.mark.parametrize("regime", ["falling", "rising", "flat"])
@pytest.mark.parametrize("n_bonds", [15, 60])
@pytest.mark.parametrize("name", ["bootstrap", "kr"])
def test_stability_days_equal_their_own_fits(monkeypatch, regime, n_bonds, name):
    days = days_of(regime, n_bonds)
    layouts = counting(monkeypatch, kernelridge, "cashflow_matrix")
    grams = counting(monkeypatch, kernelridge, "_gram")
    knots = counting(monkeypatch, pricing, "_place_knot")
    stability_experiment(days, ESTIMATORS[name])
    if name == "kr":
        assert len(layouts) == len(grams) == 1  # every day's system is sliced from the first day's layout
    else:
        assert len(knots) == 5 * n_bonds  # the first day resumes in full, every other day solves from its first bond
    assert_stability_own_fits(ESTIMATORS[name], days)


@pytest.mark.parametrize("name", ["bootstrap", "kr"])
def test_stability_days_of_another_universe(monkeypatch, name):
    days = days_of("falling", 15)
    days[2] = dropped(days[2], {days[2].bonds[4].id})
    days[3] = with_bond(days[3], zero_coupon("Z1", 2.5))
    layouts = counting(monkeypatch, kernelridge, "cashflow_matrix")
    grams = counting(monkeypatch, kernelridge, "_gram")
    stability_experiment(days, ESTIMATORS[name])
    # the first day's, and the new bond's day's own; the day with a bond fewer is sliced, as a dropped replicate is
    assert name == "bootstrap" or len(layouts) == len(grams) == 2
    assert_stability_own_fits(ESTIMATORS[name], days)


@pytest.mark.parametrize("name", ["bootstrap", "kr"])
def test_stability_day_whose_bond_keeps_its_id_but_not_its_coupons(monkeypatch, name):
    days = days_of("falling", 15)
    bond = days[2].bonds[4]
    assert bond.cashflows
    other = replace(bond, cashflows=tuple(replace(cf, amount=cf.amount * 1.5) for cf in bond.cashflows))
    days[2] = replace(days[2], bonds=(other if b is bond else b for b in days[2].bonds))
    layouts = counting(monkeypatch, kernelridge, "cashflow_matrix")
    grams = counting(monkeypatch, kernelridge, "_gram")
    stability_experiment(days, ESTIMATORS[name])
    # the first day's, and that day's own: the same id with other cashflows is another bond
    assert name == "bootstrap" or len(layouts) == len(grams) == 2
    assert_stability_own_fits(ESTIMATORS[name], days)


@pytest.mark.parametrize("name", ["bootstrap", "kr"])
@pytest.mark.parametrize("bad", [0, 2])
def test_a_stability_day_whose_every_bond_is_skipped(name, bad):
    days = days_of("rising", 15)
    days[bad] = replace(days[bad], bonds=(replace(b, market_price=b.market_price * 10.0) for b in days[bad].bonds))
    result = assert_stability_own_fits(ESTIMATORS[name], days)
    assert [c is None for c in result["curves"]] == [i == bad for i in range(5)]
    assert len(result["skipped"]) == 1 and result["skipped"][0].startswith(f"day-{bad}: ")


# ---------------------------------------------------------------------------
# Failures stay attributed
# ---------------------------------------------------------------------------

# these flags leave KR's system with a condition number near 1e7 on the days below: a sliced fit
# matches its own fit here only because its curve is its own fit's, bit for bit
UNEVALUABLE_KR = ("--kr-lambda", "1e-6", "--kr-a", "0.01")


def unevaluable_day(seed):
    return generate_scenario(ScenarioSpec(regime="falling", n_bonds=10, seed=seed, price_noise_sd=0.02,
                                          maturity_range=(0.1, 5.0)))


def grid_yields(curve):
    return curve.yields(np.array(DEFAULT_TENORS))


@pytest.mark.parametrize("protocol, seed, n_failed", [("drop", 25, 2), ("loo", 28, 1)])
def test_a_failed_kr_replicate_fails_alone(protocol, seed, n_failed):
    # found by search: on these days some replicates' fitted discounts turn non-positive, not all
    day = unevaluable_day(seed)
    kr = estimators(*UNEVALUABLE_KR)["kr"]
    if protocol == "drop":
        base, _ = refit(kr, day, grid_yields)
        reps = [rep for row in drop_bonds_experiment(day, kr, [1, 2], 4, seed=0) for rep in row["replications"]]
        for rep in reps:
            ys, exc = refit(kr, dropped(day, set(rep["dropped_ids"])), grid_yields)
            alone = (None, None, str(exc)) if exc else (
                float(np.sqrt(np.mean((base - ys) ** 2))), float(np.max(np.abs(base - ys))), None)
            assert (rep["rmse_curve"], rep["mad"], rep["error"]) == alone
    else:
        reps = loo_experiment(day, kr, 6, seed=0)["replications"]
        for rep in reps:
            held = day.bond(rep["bond_id"])
            err, exc = refit(kr, dropped(day, {held.id}),
                             lambda curve: curve.yields(np.array([held.maturity]))[0] - yield_to_maturity(held))
            assert (rep["sq_err"], rep["error"]) == ((None, str(exc)) if exc else (float(err**2), None))
    failed = [rep["error"] for rep in reps if rep["error"] is not None]
    assert len(failed) == n_failed
    assert all(e.startswith("fitted discount is non-positive at ") for e in failed)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def generate(argv):
    assert main(["generate", "--regime", "falling", *argv, "-o", "day.json"]) == 0


def test_failed_replicates_are_counted_in_the_cli_reports(workdir, capsys):
    generate(["--bonds", "10", "--seed", "25", "--noise", "0.02", "--maturity-range", "0.1,5"])
    argv = ["experiment", "drop", "day.json", "--counts", "1,2", "--mc", "4", "--estimators", "kr", *UNEVALUABLE_KR]
    assert main(argv) == 4
    assert capsys.readouterr().err == "warning: 2 fit(s) failed; counts recorded in the reports\n"
    report = json.loads((workdir / "report.drop.kr.json").read_text())
    assert [row["n_failed"] for row in report["details"]] == [0, 2]


@pytest.mark.parametrize("kind", ["perturb", "drop"])
def test_failed_base_fit_exits_four_before_any_replicate_is_reported(workdir, capsys, kind):
    generate(["--bonds", "10", "--seed", "3"])
    day = json.loads((workdir / "day.json").read_text())
    for bond in day["bonds"]:
        bond["market_price"] *= 10  # past every yield in YTM_BRACKET
    (workdir / "day.json").write_text(json.dumps(day))
    capsys.readouterr()
    flags = ["--counts", "1,2", "--mc", "2"] if kind == "drop" else []
    assert main(["experiment", kind, "day.json", "--estimators", "bootstrap,kr", *flags]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: base fit failed for bootstrap: bootstrap failed for every bond: bond B")
    assert not list(workdir.glob("report.*"))


@pytest.mark.parametrize("kind, code, stderr", [
    ("perturb", 4, "error: base fit failed for kr: kernel matrix is not finite for a=1.0, b=1e-08; raise b or lower a\n"),
    ("drop", 4, "error: base fit failed for kr: kernel matrix is not finite for a=1.0, b=1e-08; raise b or lower a\n"),
    ("loo", 4, "warning: 3 fit(s) failed; counts recorded in the reports\n"),
    ("stability", 4, "warning: 2 fit(s) failed; counts recorded in the reports\n"),
])
def test_non_finite_kernel_ends_each_protocol_as_before(workdir, capsys, kind, code, stderr):
    generate(["--bonds", "12", "--seed", "3"])
    days, flags = {"perturb": ([], []), "stability": (["day.json"], [])}.get(kind, ([], ["--mc", "3"]))
    assert main(["experiment", kind, "day.json", *days, "--estimators", "kr", "--kr-b", "1e-8", *flags]) == code
    assert capsys.readouterr().err == stderr


@pytest.mark.parametrize("name, fitter, flags", [
    ("nss", "fit_nss", ("--nss-starts", "1")),
    ("nn", "train", ("--nn-epochs", "2")),
])
@pytest.mark.parametrize("argv, fits", [
    (["perturb", "day.json", "--bumps", "0.03,0.05"], 3),
    (["drop", "day.json", "--counts", "1,2", "--mc", "2"], 5),
    (["loo", "day.json", "--mc", "3"], 3),  # no fit of the day itself
    (["stability", "day.json", "day.json"], 2),
    (["stability", "day.json", "other.json", "day.json"], 3),
])
def test_other_estimators_run_the_same_fits(workdir, monkeypatch, name, fitter, flags, argv, fits):
    # these fits fan out to forked workers, so each fit appends a byte to a file that every worker shares
    generate(["--bonds", "12", "--seed", "3"])
    assert main(["generate", "--regime", "rising", "--bonds", "10", "--seed", "4", "-o", "other.json"]) == 0
    original = getattr(cli, fitter)

    def counted(*args, **kwargs):
        with open(workdir / "fits.log", "a") as fh:
            fh.write(".")
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, fitter, counted)
    main(["experiment", *argv, "--estimators", name, *flags])
    assert len((workdir / "fits.log").read_text()) == fits


@pytest.mark.parametrize("kind", ["perturb", "drop"])
def test_failed_nss_base_fit_is_the_only_fit(workdir, monkeypatch, kind):
    generate(["--bonds", "5", "--seed", "3"])
    calls = counting(monkeypatch, cli, "fit_nss")
    flags = ["--counts", "1", "--mc", "3"] if kind == "drop" else []
    assert main(["experiment", kind, "day.json", "--estimators", "nss", *flags]) == 4
    assert len(calls) == 1
