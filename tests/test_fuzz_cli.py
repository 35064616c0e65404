"""No input ends in a traceback: a property test over flags and snapshot files.

Every command is run through ``main`` with tiny days and tiny NSS and NN
settings. The strategy overrides a few flags with hostile values (NaN,
infinities, negatives, zero, empty and repeated lists, junk) and mutates the
snapshot file (a field set to a hostile value, a key removed, a bond
repeated, the text cut short). Whatever it draws, ``main`` must return one of
the documented exit codes and raise nothing. The examples pin inputs that
once ended in a traceback or were silently accepted.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import warnings
from functools import cache
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvekit import ScenarioSpec, generate_scenario, save_snapshot
from curvekit.cli import main

EXIT_CODES = {0, 2, 3, 4}

CHEAP_FIT = ("--nss-starts=1", "--nss-max-iter=30", "--nn-epochs=2")
ESTIMATOR_FLAGS = ("--kr-lambda", "--kr-a", "--kr-b", "--nn-lr", "--nn-epochs", "--nn-gamma1", "--nn-gamma2",
                   "--nn-hidden", "--nn-init-scale", "--nss-starts", "--nss-max-iter", "--seed")
NN_SHAPE_FLAGS = ("--nn-hidden", "--nn-init-scale", "--seed")

# argv templates: {day} and {day2} are snapshot files, {out} an output prefix
COMMANDS = {
    "generate": (("generate", "--regime=falling", "--bonds=6", "-o", "{out}.json"),
                 ("--bonds", "--maturity-range", "--coupon-range", "--spread", "--noise", "--base-rate", "--seed")),
    **{
        f"fit-{name}": (("fit", "{day}", f"--estimator={name}", "-o", "{out}.model.json",
                         "--samples", "{out}.samples.csv", *CHEAP_FIT), ESTIMATOR_FLAGS)
        for name in ("bootstrap", "nss", "kr", "nn")
    },
    "perturb": (("experiment", "perturb", "{day}", "--estimators=bootstrap,kr", "--bumps=0.03", "-o", "{out}"),
                ("--bumps", "--bond", "--estimators", *ESTIMATOR_FLAGS)),
    "drop": (("experiment", "drop", "{day}", "--estimators=bootstrap,kr", "--counts=1", "--mc=1", "-o", "{out}"),
             ("--counts", "--mc", "--estimators", *ESTIMATOR_FLAGS)),
    "loo": (("experiment", "loo", "{day}", "--estimators=kr", "--mc=2", "-o", "{out}"),
            ("--mc", "--bucket", "--estimators", *ESTIMATOR_FLAGS)),
    "stability": (("experiment", "stability", "{day}", "{day2}", "--estimators=bootstrap", "-o", "{out}"),
                  ("--threshold", "--estimators", *ESTIMATOR_FLAGS)),
    "hyperscan": (("experiment", "hyperscan", "{day}", "--lr=1e-8", "--epochs=2", "-o", "{out}"),
                  ("--lr", "--epochs", "--gamma1", "--gamma2", *NN_SHAPE_FLAGS)),
}

FLAG_VALUES = st.sampled_from([
    "nan", "inf", "-inf", "-1", "0", "-0", "", " ", ",", "1,1", "2,2", "1e309", "1e-300", "5e-324",
    "abc", "2", "0.5", "1e-8", "0.1,0.2", "nss", "kr,nn", "B001", "<2Y",
])

FILE_VALUES = st.sampled_from([
    float("nan"), float("inf"), float("-inf"), -1.0, 0.0, 1e308, 5e-324, 1e-300, 1e6, 250.0,
    "abc", "", None, [], {}, True,
])

BOND_FIELDS = ("id", "face_value", "maturity", "market_price", "cashflows")


@cache
def day_text(seed: int) -> str:
    """A tiny noisy day as JSON text."""
    snap = generate_scenario(ScenarioSpec(regime="falling", n_bonds=7, price_noise_sd=0.002, seed=seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "day.json"
        save_snapshot(snap, path)
        return path.read_text()


def mutate(text: str, mutation) -> str:
    if mutation is None:
        return text
    kind, *rest = mutation
    if kind == "truncate":
        return text[: rest[0]]
    data = json.loads(text)
    bonds = data["bonds"]
    if kind == "bond":
        index, field, value = rest
        bonds[index % len(bonds)][field] = value
    elif kind == "cashflow":
        index, field, value = rest
        flows = [cf for bond in bonds for cf in bond["cashflows"]]
        flows[index % len(flows)][field] = value
    elif kind == "drop-key":
        index, field = rest
        del bonds[index % len(bonds)][field]
    elif kind == "repeat-bond":
        bonds.append(dict(bonds[rest[0] % len(bonds)]))
    elif kind == "top":
        field, value = rest
        data[field] = value
    return json.dumps(data)


MUTATIONS = st.one_of(
    st.none(),
    st.tuples(st.just("truncate"), st.integers(0, 400)),
    st.tuples(st.just("bond"), st.integers(0, 6), st.sampled_from(BOND_FIELDS), FILE_VALUES),
    st.tuples(st.just("cashflow"), st.integers(0, 30), st.sampled_from(["time", "amount"]), FILE_VALUES),
    st.tuples(st.just("drop-key"), st.integers(0, 6), st.sampled_from(BOND_FIELDS)),
    st.tuples(st.just("repeat-bond"), st.integers(0, 6)),
    st.tuples(st.just("top"), st.sampled_from(["date", "bonds", "benchmark"]), FILE_VALUES),
)


@st.composite
def cases(draw):
    base, flags = COMMANDS[draw(st.sampled_from(sorted(COMMANDS)))]
    overrides = draw(st.lists(st.tuples(st.sampled_from(flags), FLAG_VALUES), max_size=3))
    return [*base, *(f"{flag}={value}" for flag, value in overrides)], draw(MUTATIONS)


def run_case(argv, mutation) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        day, day2 = Path(tmp) / "day.json", Path(tmp) / "day2.json"
        day.write_text(mutate(day_text(3), mutation))
        day2.write_text(day_text(4))
        filled = [arg.format(day=day, day2=day2, out=Path(tmp) / "out") for arg in argv]
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("ignore")
            return main(filled)


FIT_NN = COMMANDS["fit-nn"][0]
FIT_KR = COMMANDS["fit-kr"][0]
GENERATE = COMMANDS["generate"][0]
HYPERSCAN = COMMANDS["hyperscan"][0]


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(case=cases())
@example(case=([*FIT_NN, "--nn-init-scale=-1"], None))
@example(case=([*FIT_KR, "--kr-lambda=inf"], None))
@example(case=([*GENERATE, "--noise=nan"], None))
@example(case=([*GENERATE, "--seed=-1"], None))
@example(case=([*HYPERSCAN, "--nn-init-scale=-0"], None))
@example(case=([*FIT_KR, "--kr-b=1e-8"], None))
def test_main_returns_an_exit_code_and_never_raises(case):
    argv, mutation = case
    assert run_case(argv, mutation) in EXIT_CODES
