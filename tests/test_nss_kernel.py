"""Bit-identity of the NSS price-error kernel and of the lockstep simplex search.

The simplex fitter's trajectory depends on the last bit of every objective
value (runs that stop at the iteration cap amplify it), so the kernel must
reproduce the direct formula exactly, not just closely. The reference below is
that direct formula, kept verbatim as the oracle. The lockstep search must
make, for every start, the runs scipy's Nelder-Mead makes on that reference.
"""

import numpy as np
import pytest
from scipy.optimize import minimize

from curvekit import (
    Bond,
    FitFailureError,
    MarketSnapshot,
    NssFitConfig,
    NssParams,
    ScenarioSpec,
    fit_nss,
    generate_scenario,
    nss_yield,
)
from curvekit import nss
from curvekit.nss import (
    LAMBDA_BOX,
    _WALL,
    _decay_ratio,
    _on_wall,
    _price_errors,
    _start_points,
    nss_objective,
)
from curvekit.pricing import cashflow_matrix, duration_price_weights

DESK_DAY = ScenarioSpec(regime="falling", n_bonds=30, price_noise_sd=0.002, seed=99)


# --- reference: the direct formula, verbatim ---------------------------------

def ref_decay_ratio(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < 1e-4
    xs = x[small]
    out[small] = 1.0 - xs / 2.0 + xs**2 / 6.0 - xs**3 / 24.0
    xl = x[~small]
    out[~small] = -np.expm1(-xl) / xl
    return out


def ref_yield_array(params: NssParams, t: np.ndarray) -> np.ndarray:
    x1 = t / params.lambda1
    x2 = t / params.lambda2
    h1 = ref_decay_ratio(x1)
    h2 = ref_decay_ratio(x2)
    return (
        params.beta0
        + params.beta1 * h1
        + params.beta2 * (h1 - np.exp(-x1))
        + params.beta3 * (h2 - np.exp(-x2))
    )


def ref_nss_objective(snapshot: MarketSnapshot, params: NssParams) -> float:
    bonds = list(snapshot.bonds)
    weights = duration_price_weights(bonds)
    anchor_times, C = cashflow_matrix(bonds)
    prices = np.array([b.market_price for b in bonds])
    model_prices = C @ np.exp(-anchor_times * ref_yield_array(params, anchor_times))
    return float(np.sum(weights * (prices - model_prices) ** 2))


def ref_simplex_objective(bonds):
    weights = duration_price_weights(bonds)
    anchor_times, C = cashflow_matrix(bonds)
    prices = np.array([b.market_price for b in bonds])
    log_lo, log_hi = np.log(LAMBDA_BOX[0]), np.log(LAMBDA_BOX[1])

    def objective(x: np.ndarray) -> float:
        b0, b1, b2, b3, ll1, ll2 = x
        if not (log_lo <= ll1 <= log_hi and log_lo <= ll2 <= log_hi) or b0 <= -0.10:
            return 1e12
        l1, l2 = np.exp(ll1), np.exp(ll2)
        x1, x2 = anchor_times / l1, anchor_times / l2
        h1 = ref_decay_ratio(x1)
        h2 = ref_decay_ratio(x2)
        yields = b0 + b1 * h1 + b2 * (h1 - np.exp(-x1)) + b3 * (h2 - np.exp(-x2))
        model_prices = C @ np.exp(-anchor_times * yields)
        return float(np.sum(weights * (prices - model_prices) ** 2))

    return objective


# --- fixtures ----------------------------------------------------------------

def desk_day() -> MarketSnapshot:
    return generate_scenario(DESK_DAY)


def day_with_short_cashflow() -> MarketSnapshot:
    """The desk day plus a zero-coupon bond paying at t = 0.001 y, so that
    t/lambda falls below the series switch for lambda above 10 y."""
    base = desk_day()
    short = Bond("short", (), 100.0, 0.001, 100.0 * np.exp(-0.02 * 0.001))
    return MarketSnapshot(date=base.date, bonds=(short, *base.bonds), benchmark=base.benchmark)


def six_bond_day() -> MarketSnapshot:
    return generate_scenario(ScenarioSpec(regime="falling", n_bonds=6, seed=3))


def simplex_points(rng, count):
    """Points inside the box, on and just past both box edges, and on and
    just off the beta0 wall."""
    lo, hi = np.log(LAMBDA_BOX[0]), np.log(LAMBDA_BOX[1])
    pts = np.column_stack([
        rng.uniform(-0.08, 0.12, count),
        rng.uniform(-0.3, 0.3, count),
        rng.uniform(-0.6, 0.6, count),
        rng.uniform(-0.6, 0.6, count),
        rng.uniform(lo, hi, count),
        rng.uniform(lo, hi, count),
    ])
    edges = (lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf))
    for k, edge in enumerate(edges):
        pts[k::12, 4] = edge
        pts[k + 4::12, 5] = edge
    pts[8::12, 0] = -0.10
    pts[9::12, 0] = np.nextafter(-0.10, 0.0)
    return pts


# --- tests -------------------------------------------------------------------

class TestKernelOracle:
    @pytest.mark.parametrize("make_day", [desk_day, day_with_short_cashflow])
    def test_price_errors_equal_reference(self, make_day, monkeypatch):
        bonds = list(make_day().bonds)
        series_calls = []
        monkeypatch.setattr(nss, "_decay_ratio", lambda x: series_calls.append(1) or _decay_ratio(x))
        ref, errors = ref_simplex_objective(bonds), _price_errors(bonds)
        pts = simplex_points(np.random.default_rng(11), 1200)
        expected = [ref(x) for x in pts]
        on_wall = np.array([_on_wall(x.tolist()) for x in pts])
        assert 0 < on_wall.sum() < len(pts)
        assert all(expected[k] == _WALL for k in np.flatnonzero(on_wall))
        rows = pts[~on_wall].copy()
        rows[:, 4:] = np.exp(rows[:, 4:])
        inside = [expected[k] for k in np.flatnonzero(~on_wall)]
        assert errors(rows).tolist() == inside
        assert [float(errors(row[None, :])[0]) for row in rows] == inside
        if bonds[0].id == "short":
            assert series_calls, "the series branch never ran"

    def test_nss_objective_equals_reference(self):
        rng = np.random.default_rng(12)
        for snap in (desk_day(), day_with_short_cashflow()):
            for _ in range(50):
                p = NssParams(
                    beta0=rng.uniform(-0.09, 0.1), beta1=rng.uniform(-0.3, 0.3),
                    beta2=rng.uniform(-0.6, 0.6), beta3=rng.uniform(-0.6, 0.6),
                    lambda1=float(np.exp(rng.uniform(-4.0, 4.0))),
                    lambda2=float(np.exp(rng.uniform(-4.0, 4.0))),
                )
                assert nss_objective(snap, p) == ref_nss_objective(snap, p)

    def test_decay_ratio_on_unsorted_mixed_arrays(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            x = np.exp(rng.uniform(np.log(1e-7), np.log(50.0), size=17))
            x[rng.integers(17)] = 1e-4
            assert (x < 1e-4).any() and (x >= 1e-4).any()
            assert _decay_ratio(x).tobytes() == ref_decay_ratio(x).tobytes()

    def test_nss_yield_on_unsorted_mixed_times(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            p = NssParams(0.03, -0.01, 0.02, 0.01, float(rng.uniform(0.05, 30.0)), float(rng.uniform(0.05, 30.0)))
            t = np.exp(rng.uniform(np.log(1e-7), np.log(40.0), size=13))
            assert nss_yield(p, t).tobytes() == ref_yield_array(p, t).tobytes()


class TestGolden:
    def test_desk_day_fit_is_bit_identical(self):
        # float.hex of the fit, recorded on the flat yields of the safeguarded
        # Newton solve; with max_iter=300 some runs stop at the cap, so any
        # reordered arithmetic in the objective or its weights moves these values.
        snap = desk_day()
        fitted = fit_nss(snap, NssFitConfig(starts=3, max_iter=300))
        assert {k: getattr(fitted, k).hex() for k in ("beta0", "beta1", "beta2", "beta3", "lambda1", "lambda2")} == {
            "beta0": "0x1.0d3339b6dab68p-5",
            "beta1": "0x1.2a42eeca6b3acp-4",
            "beta2": "-0x1.60020ca783d04p-2",
            "beta3": "0x1.200e2faf452e4p-2",
            "lambda1": "0x1.959368bbec40dp-2",
            "lambda2": "0x1.e68519e0e4086p-2",
        }
        assert nss_objective(snap, fitted).hex() == "0x1.cb125381edd2fp-21"


def scipy_runs(bonds, starts, config):
    """Each start's first and polish runs, by scipy on the verbatim reference."""
    objective = ref_simplex_objective(bonds)
    runs = []
    for x0 in starts:
        first = minimize(objective, x0, method="Nelder-Mead",
                         options=dict(maxiter=config.max_iter, xatol=1e-10, fatol=1e-14))
        polish = minimize(objective, first.x, method="Nelder-Mead",
                          options=dict(maxiter=config.max_iter, xatol=1e-12, fatol=1e-16))
        runs.append((first, polish))
    return runs


def run_key(run):
    return (run.x.tobytes(), float(run.fun).hex(), int(run.nfev), int(run.nit), bool(run.success))


class TestLockstepOracle:
    @pytest.mark.parametrize("make_day, config", [
        (desk_day, NssFitConfig()),
        (desk_day, NssFitConfig(max_iter=300)),
        (desk_day, NssFitConfig(starts=10, seed=5)),
        (day_with_short_cashflow, NssFitConfig()),
        (six_bond_day, NssFitConfig()),
    ], ids=["desk-defaults", "desk-max-iter-300", "desk-10-starts-seed-5", "short-cashflow", "six-bonds"])
    def test_runs_equal_scipy_nelder_mead(self, make_day, config, monkeypatch):
        bonds = list(make_day().bonds)
        series_calls = []
        monkeypatch.setattr(nss, "_decay_ratio", lambda x: series_calls.append(1) or _decay_ratio(x))
        starts = _start_points(bonds, config)
        result = nss.minimize(bonds, starts, config.max_iter)
        expected = scipy_runs(bonds, starts, config)
        assert len(result.runs) == config.starts
        for start, (got, want) in enumerate(zip(result.runs, expected)):
            for stage, g, w in zip(("first", "polish"), got, want):
                assert run_key(g) == run_key(w), (start, stage)
        assert result.nfev == sum(r.nfev for pair in expected for r in pair)
        assert result.success == all(r.success for pair in expected for r in pair)
        if bonds[0].id == "short":
            assert series_calls, "the series branch never ran"
        if make_day is desk_day and config == NssFitConfig():
            # the (2, 8) and (5, 15) starts begin on the wall, and some runs stop at the cap
            assert [k for k, x0 in enumerate(starts) if _on_wall(x0.tolist())] == [2, 5]
            assert not result.success


class TestPenaltyWall:
    def test_all_starts_on_wall_raise_fit_failure(self, monkeypatch):
        monkeypatch.setattr(nss, "_warm_start_betas", lambda *a: np.array([-0.2, 0.0, 0.0, 0.0]))
        snap = generate_scenario(ScenarioSpec(regime="falling", n_bonds=8, seed=3))
        with pytest.raises(FitFailureError, match="penalty wall"):
            fit_nss(snap, NssFitConfig(starts=2))
