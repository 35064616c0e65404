"""No input ends in a traceback: a property test over flags and snapshot files.

Every command is run through ``main`` with tiny days and tiny NSS and NN
settings. The strategy overrides a few flags with hostile values (NaN,
infinities, negatives, zero, empty and repeated lists, junk) and mutates the
snapshot in either encoding: the JSON file (a field set to a hostile value, a
key removed, a bond repeated, the text cut short), or the CSV file and its
benchmark companion (a cell set to a hostile value, a cell or a row removed,
the text cut short), and bytes that are not UTF-8 put into any of the three.
Whatever it draws, ``main`` must return one of the documented exit codes and
raise nothing. The examples pin inputs that once ended in a traceback or were
silently accepted.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import tempfile
import warnings
from functools import cache
from pathlib import Path

import pytest
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
    "abc", "2", "0.5", "1e-8", "0.1,0.2", "nss", "kr,nn", "B001", "<2Y", "nan,nan", "0.1,inf",
])

FILE_VALUES = st.sampled_from([
    float("nan"), float("inf"), float("-inf"), -1.0, 0.0, 1e308, 5e-324, 1e-300, 1e6, 250.0,
    "abc", "", None, [], {}, True, 10**400,
])

# CSV cells are text: numbers past float's range, cashflow cells of every shape, and a cell
# longer than the csv module's field limit
CELL_VALUES = st.sampled_from([
    "nan", "inf", "-inf", "-1", "0", "-0", "1e308", "1e309", "5e-324", "1e-300", "250", "abc", "", " ",
    "True", "None", "B001", "1:2", "1:2:3", "0.5:3;0.5:3", "2:3;1:3", ";", ":", "1:", '"', "9" * 200_000,
])

NOT_UTF8 = st.sampled_from([b"\xff\xfe", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80"])

CSV_FILES = ("day.csv", "day.benchmark.csv")

BOND_FIELDS = ("id", "face_value", "maturity", "market_price", "cashflows")


@cache
def day_files(seed: int) -> dict[str, str]:
    """A tiny noisy day as the text of its JSON file, its CSV file and the CSV's companion."""
    snap = generate_scenario(ScenarioSpec(regime="falling", n_bonds=7, price_noise_sd=0.002, seed=seed))
    with tempfile.TemporaryDirectory() as tmp:
        save_snapshot(snap, Path(tmp) / "day.json")
        save_snapshot(snap, Path(tmp) / "day.csv", format="csv")
        return {name: (Path(tmp) / name).read_text() for name in ("day.json", *CSV_FILES)}


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


def mutate_csv(text: str, mutation) -> str:
    """One CSV file with a cell set or removed, a row removed or the text cut; rows count from the header."""
    kind, *rest = mutation
    if kind == "csv-truncate":
        return text[: rest[0]]
    comments = "".join(line for line in text.splitlines(True) if line.startswith("#"))
    rows = list(csv.reader(line for line in text.splitlines(True) if not line.startswith("#")))
    row = rows[rest[0] % len(rows)]
    if kind == "csv-cell":
        row[rest[1] % len(row)] = rest[2]
    elif kind == "csv-drop-cell":
        del row[rest[1] % len(row)]
    elif kind == "csv-drop-row":
        rows.remove(row)
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return comments + out.getvalue()


def day_bytes(mutation) -> dict[str, bytes]:
    """The files of day 3 under ``mutation``: the JSON file, or the CSV file and its companion."""
    texts = day_files(3)
    kind = mutation[0] if mutation else None
    if kind == "bytes":
        name, position, raw = mutation[1:]
        files = {name: texts[name].encode()} if name == "day.json" else {n: texts[n].encode() for n in CSV_FILES}
        data = files[name]
        files[name] = data[: position % len(data)] + raw + data[position % len(data):]
        return files
    if kind is None or not kind.startswith("csv"):
        return {"day.json": mutate(texts["day.json"], mutation).encode()}
    files = {name: texts[name] for name in CSV_FILES}
    if kind != "csv":  # a bare ("csv",) is the day unchanged
        name = mutation[1]
        files[name] = mutate_csv(files[name], (kind, *mutation[2:]))
    return {name: text.encode() for name, text in files.items()}


MUTATIONS = st.one_of(
    st.none(),
    st.tuples(st.just("truncate"), st.integers(0, 400)),
    st.tuples(st.just("bond"), st.integers(0, 6), st.sampled_from(BOND_FIELDS), FILE_VALUES),
    st.tuples(st.just("cashflow"), st.integers(0, 30), st.sampled_from(["time", "amount"]), FILE_VALUES),
    st.tuples(st.just("drop-key"), st.integers(0, 6), st.sampled_from(BOND_FIELDS)),
    st.tuples(st.just("repeat-bond"), st.integers(0, 6)),
    st.tuples(st.just("top"), st.sampled_from(["date", "bonds", "benchmark"]), FILE_VALUES),
    st.just(("csv",)),
    st.tuples(st.just("csv-cell"), st.sampled_from(CSV_FILES), st.integers(0, 12), st.integers(0, 4), CELL_VALUES),
    st.tuples(st.just("csv-drop-cell"), st.sampled_from(CSV_FILES), st.integers(0, 12), st.integers(0, 4)),
    st.tuples(st.just("csv-drop-row"), st.sampled_from(CSV_FILES), st.integers(0, 12)),
    st.tuples(st.just("csv-truncate"), st.sampled_from(CSV_FILES), st.integers(0, 600)),
    st.tuples(st.just("bytes"), st.sampled_from(["day.json", *CSV_FILES]), st.integers(0, 600), NOT_UTF8),
)


@st.composite
def cases(draw):
    base, flags = COMMANDS[draw(st.sampled_from(sorted(COMMANDS)))]
    overrides = draw(st.lists(st.tuples(st.sampled_from(flags), FLAG_VALUES), max_size=3))
    return [*base, *(f"{flag}={value}" for flag, value in overrides)], draw(MUTATIONS)


def run_case(argv, mutation) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        files = day_bytes(mutation)
        for name, data in files.items():
            (Path(tmp) / name).write_bytes(data)
        day, day2 = Path(tmp) / ("day.csv" if "day.csv" in files else "day.json"), Path(tmp) / "day2.json"
        day2.write_text(day_files(4)["day.json"])
        filled = [arg.format(day=day, day2=day2, out=Path(tmp) / "out") for arg in argv]
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("ignore")
            warnings.simplefilter("error", RuntimeWarning)  # a numpy warning would leak to the terminal
            return main(filled)


FIT_NN = COMMANDS["fit-nn"][0]
FIT_KR = COMMANDS["fit-kr"][0]
FIT_BOOTSTRAP = COMMANDS["fit-bootstrap"][0]
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
@example(case=([*GENERATE, "--coupon-range=nan,nan"], None))
@example(case=([*GENERATE, "--maturity-range=0.1,inf"], None))
@example(case=([*GENERATE, "--maturity-range=0.1,1e308"], None))
@example(case=([*GENERATE, "--spread=-100"], None))  # the discount factors overflow
@example(case=([*GENERATE, "--base-rate=-100"], None))
@example(case=([*GENERATE, "--maturity-range=1e-300,1e-299"], None))  # a bond without a coupon date
@example(case=([*GENERATE, "--coupon-range=0,1e308"], None))  # the coupon amount overflows
@example(case=(FIT_BOOTSTRAP, ("csv-drop-cell", "day.benchmark.csv", 3, 1)))  # a companion row of one cell
@example(case=(FIT_BOOTSTRAP, ("bytes", "day.json", 0, b"\xff\xfe")))
@example(case=(FIT_BOOTSTRAP, ("bytes", "day.csv", 0, b"\xff\xfe")))
@example(case=(FIT_BOOTSTRAP, ("bond", 0, "market_price", 10**400)))  # an int past float's range
@example(case=(FIT_BOOTSTRAP, ("top", "date", [1, {"a": 2}])))  # loaded as the date "[1, {'a': 2}]"
@example(case=(FIT_BOOTSTRAP, ("csv-cell", "day.csv", 2, 1, "9" * 200_000)))  # past the csv field limit
@example(case=(FIT_BOOTSTRAP, ("cashflow", 11, "amount", 1e308)))  # the knot solve's slope overflows
@example(case=(FIT_KR, ("cashflow", 20, "amount", 1e308)))  # the flat-yield solve overflows
def test_main_returns_an_exit_code_and_never_raises(case):
    argv, mutation = case
    assert run_case(argv, mutation) in EXIT_CODES


@pytest.mark.parametrize("value", [5, 1.5, [], ["B001"], {}, None, True])
def test_a_json_bond_id_that_is_not_a_string_exits_3(value):
    # str() of any JSON value used to become the bond's id, and the day fitted
    assert run_case(FIT_BOOTSTRAP, ("bond", 0, "id", value)) == 3


@pytest.mark.parametrize("value", [[1, {"a": 2}], 20240102, None, {}])
def test_a_json_date_that_is_not_a_string_exits_3(value):
    # str() of any JSON value used to become the day's date
    assert run_case(FIT_BOOTSTRAP, ("top", "date", value)) == 3


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(estimator=st.sampled_from(["bootstrap", "kr"]), mutation=MUTATIONS)
def test_fit_reads_any_snapshot_file_to_a_result_or_exit_3(estimator, mutation):
    # with valid flags the file decides: a fit (0 or 4) or an unreadable file (3)
    assert run_case(COMMANDS[f"fit-{estimator}"][0], mutation) in {0, 3, 4}
