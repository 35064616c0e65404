"""Bond market data: domain types, file I/O, and synthetic scenario generation.

A snapshot is one business day of data: its bonds (cashflow schedule, face
value, observed dirty price), held by maturity, then id, whatever order a file
lists them in, plus a near-risk-free benchmark curve, a ``YieldCurve`` like
every fitted curve: maturities in, spot yields out.
Snapshots round-trip through JSON and CSV, and a deterministic generator
produces flat / rising / falling synthetic markets so every experiment can run
without proprietary data.

File formats
------------
JSON::

    {"date": ..., "benchmark": {"tenors": [...], "rates": [...]},
     "bonds": [{"id", "face_value", "maturity", "market_price",
                "cashflows": [{"time", "amount"}, ...]}, ...]}

CSV: one row per bond with header ``id,face_value,maturity,market_price,cashflows``
where the cashflows cell is ``t1:a1;t2:a2;...`` (empty for zero-coupon bonds).
The benchmark lives in a companion file ``<name>.benchmark.csv`` with header
``tenor,rate``. The snapshot date is carried as a leading ``# date: ...``
comment line, so it holds no line break and no whitespace at either end.
All times are in years, all rates decimal per annum. ``write_json`` (indented
by 2, one closing newline) and ``write_csv`` (``csv.writer`` rows, every line
in CRLF) alone decide the format of every file the command line writes.

Both encodings read into the record form shown for JSON, a CSV cell as the
text of its number, and one function validates it. Bytes that are not UTF-8,
a CSV row of the wrong width, a boolean where a number belongs or a bond id
or date that is not a string raise ``ParseError``, a broken invariant
``ValidationError``; each names its file.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError

_REGIMES = ("flat", "rising", "falling")
_CSV_HEADER = ("id", "face_value", "maturity", "market_price", "cashflows")

# Longest maturity a generated bond may have, in years. A bond carries one
# coupon date per year of life, so the cap also bounds its cashflow count.
MAX_MATURITY = 100.0

# Tenors used for generated benchmark curves; span the evaluation grid.
_BENCHMARK_TENORS = (1 / 365, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 15.0, 20.0, 30.0)


def check_count(name: str, value) -> int:
    """``value`` as an int, if it is an integer >= 1; a float or a bool is no count, as in ``_number``."""
    if value.__class__ is bool or not isinstance(value, numbers.Integral) or value < 1:
        raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


@dataclass(frozen=True, slots=True)
class Cashflow:
    """One bond payment: time in years from the valuation date, amount in currency."""

    time: float
    amount: float

    def __post_init__(self):
        if not (0 < self.time < math.inf):
            raise ValidationError(f"cashflow time must be finite and > 0, got {self.time}")
        if not (0 < self.amount < math.inf):
            raise ValidationError(f"cashflow amount must be finite and > 0, got {self.amount}")


@dataclass(frozen=True)
class Bond:
    """A fixed-income instrument observed on one day.

    ``cashflows`` holds the coupon payments (the redemption of ``face_value``
    at ``maturity`` is implicit and not listed). A coupon bond's last coupon
    falls within 1e-9 of the maturity and is stored at it; a zero-coupon bond
    has an empty list. ``market_price`` is the observed dirty price.
    """

    id: str
    cashflows: tuple[Cashflow, ...]
    face_value: float
    maturity: float
    market_price: float

    def __post_init__(self):
        cashflows = tuple(self.cashflows)
        if not self.id:
            raise ValidationError("bond id must be non-empty")
        if cashflows and 0 < abs(cashflows[-1].time - self.maturity) <= 1e-9:  # one payment date, not two
            cashflows = (*cashflows[:-1], Cashflow(self.maturity, cashflows[-1].amount))
        object.__setattr__(self, "cashflows", cashflows)
        times = [cf.time for cf in cashflows]
        if any(map(operator.ge, times, times[1:])):
            raise ValidationError(f"bond {self.id}: cashflow times must be strictly increasing")
        if not (0 < self.maturity < math.inf):
            raise ValidationError(f"bond {self.id}: maturity must be finite and > 0, got {self.maturity}")
        if times and times[-1] != self.maturity:
            raise ValidationError(f"bond {self.id}: maturity must equal the last cashflow time "
                                  f"({times[-1]} != {self.maturity})")
        if not (0 < self.face_value < math.inf):
            raise ValidationError(f"bond {self.id}: face_value must be finite and > 0, got {self.face_value}")
        if not (0 < self.market_price < math.inf):
            raise ValidationError(f"bond {self.id}: market_price must be finite and > 0, got {self.market_price}")


class YieldCurve(ABC):
    """Evaluable spot curve, defined for any maturity in (0, 30] at least.

    A curve implements ``yields``: a 1-D float array of maturities in, the
    spot yields at them out, as a 1-D float array of the same length.
    """

    @abstractmethod
    def yields(self, ts: np.ndarray) -> np.ndarray:
        ...

    def yield_at(self, t: float) -> float:
        return float(self.yields(np.array([t], dtype=float))[0])


@dataclass(frozen=True)
class BenchmarkCurve(YieldCurve):
    """Near-risk-free reference curve given as (tenor, rate) knots.

    Evaluation is linear in yield between knots and flat beyond both ends.
    """

    tenors: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "tenors", tuple(float(t) for t in self.tenors))
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        if len(self.tenors) != len(self.rates):
            raise ValidationError("benchmark tenors and rates must have equal length")
        if len(self.tenors) < 2:
            raise ValidationError("benchmark needs at least 2 tenors")
        if not all(map(math.isfinite, self.tenors + self.rates)):
            raise ValidationError("benchmark tenors and rates must be finite")
        if self.tenors[0] <= 0 or any(b <= a for a, b in zip(self.tenors, self.tenors[1:])):
            raise ValidationError("benchmark tenors must be strictly increasing and > 0")

    def yields(self, ts: np.ndarray) -> np.ndarray:
        return np.interp(ts, self.tenors, self.rates)


@dataclass(frozen=True)
class MarketSnapshot:
    """All bonds and the benchmark curve for one business day.

    ``bonds`` is held by maturity, then id, whatever order it is given in.
    """

    date: str
    bonds: tuple[Bond, ...]
    benchmark: BenchmarkCurve

    def __post_init__(self):
        object.__setattr__(self, "bonds", tuple(sorted(self.bonds, key=operator.attrgetter("maturity", "id"))))
        if not self.bonds:
            raise ValidationError("bonds non-empty: snapshot must contain at least one bond")
        ids = [b.id for b in self.bonds]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise ValidationError(f"duplicate bond ids in snapshot: {dup}")

    def bond(self, bond_id: str) -> Bond:
        for b in self.bonds:
            if b.id == bond_id:
                return b
        raise KeyError(f"no bond with id {bond_id!r} in snapshot {self.date}")


@dataclass(frozen=True)
class ScenarioSpec:
    """Recipe for a synthetic market day.

    ``regime`` shapes the benchmark: flat is a constant ``base_rate``; rising
    climbs from half the base toward it, ``base_rate * (1 - 0.5 * exp(-t/4))``;
    falling is the mirror image. Bonds pay annual coupons, are priced exactly
    off benchmark + ``spread_over_benchmark``, then perturbed multiplicatively
    by N(0, price_noise_sd) noise. Keep price_noise_sd < 0.05 so prices stay
    positive. ``maturity_range`` must satisfy 0 < min < max <= ``MAX_MATURITY``
    and ``coupon_range`` 0 <= min <= max, both finite.
    """

    regime: str
    n_bonds: int = 60
    maturity_range: tuple[float, float] = (0.1, 15.0)
    coupon_range: tuple[float, float] = (0.01, 0.05)
    spread_over_benchmark: float = 0.004
    price_noise_sd: float = 0.0
    seed: int = 0
    base_rate: float = 0.03

    def __post_init__(self):
        if self.regime not in _REGIMES:
            raise ValidationError(f"regime must be one of {_REGIMES}, got {self.regime!r}")
        if self.n_bonds < 2:
            raise ValidationError(f"n_bonds must be >= 2, got {self.n_bonds}")
        lo, hi = self.maturity_range
        if not (0 < lo < hi <= MAX_MATURITY):
            raise ValidationError(
                f"maturity_range must satisfy 0 < min < max <= {MAX_MATURITY:g}, got {self.maturity_range}"
            )
        if not (0 <= self.price_noise_sd < math.inf):
            raise ValidationError(f"price_noise_sd must be finite and >= 0, got {self.price_noise_sd}")
        lo, hi = self.coupon_range
        if not (0 <= lo <= hi < math.inf):
            raise ValidationError(f"coupon_range must be finite with 0 <= min <= max, got {self.coupon_range}")
        for name in ("spread_over_benchmark", "base_rate"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")


# ---------------------------------------------------------------------------
# Scenario generation
# ---------------------------------------------------------------------------

def benchmark_rate(regime: str, base_rate: float, t) -> np.ndarray:
    """Benchmark level at tenor t for a named regime shape."""
    t = np.asarray(t, dtype=float)
    if regime == "flat":
        return np.full_like(t, base_rate)
    if regime == "rising":
        return base_rate * (1.0 - 0.5 * np.exp(-t / 4.0))
    if regime == "falling":
        return base_rate * (1.0 + 0.5 * np.exp(-t / 4.0))
    raise ValidationError(f"unknown regime {regime!r}")


def _annual_coupon_times(maturity: float) -> np.ndarray:
    # Integer-year offsets back from maturity, first payment within (0, 1].
    k = int(math.floor(maturity - 1e-9))
    times = maturity - np.arange(k, -1, -1, dtype=float)
    return times[times > 1e-9]


def generate_scenario(spec: ScenarioSpec, date: str | None = None) -> MarketSnapshot:
    """Build a deterministic synthetic snapshot from ``spec``.

    Maturities are skewed toward the short end (more issuance below 5Y) via a
    power transform of uniform draws. With price_noise_sd = 0 every bond's
    present value under benchmark + spread reproduces its market price.
    """
    rng = np.random.default_rng(spec.seed)
    lo, hi = spec.maturity_range
    u = rng.uniform(size=spec.n_bonds)
    maturities = np.sort(lo + (hi - lo) * u**2.5)  # power skew: denser below 5Y
    # Enforce strictly increasing maturities (ties have measure zero but
    # downstream knot construction assumes distinct values).
    for i in range(1, len(maturities)):
        if maturities[i] <= maturities[i - 1] + 1e-9:
            maturities[i] = maturities[i - 1] + 1e-6
    if maturities[0] <= 1e-9:  # a bond maturing that soon has no coupon date to price
        raise ValidationError(f"maturity_range {spec.maturity_range} drew {float(maturities[0])!r}; must exceed 1e-9")

    coupon_rates = rng.uniform(spec.coupon_range[0], spec.coupon_range[1], size=spec.n_bonds)
    noise = rng.normal(0.0, spec.price_noise_sd, size=spec.n_bonds) if spec.price_noise_sd > 0 else np.zeros(spec.n_bonds)

    face = 100.0
    width = max(3, len(str(spec.n_bonds)))
    bonds = []
    try:  # a float that overflows is an error here, where numpy would warn and go on with inf
        with np.errstate(over="raise", invalid="raise"):
            rates = benchmark_rate(spec.regime, spec.base_rate, _BENCHMARK_TENORS)
            benchmark = BenchmarkCurve(_BENCHMARK_TENORS, rates)
            for i, (mat, cpn_rate, eps) in enumerate(zip(maturities, coupon_rates, noise)):
                times = _annual_coupon_times(float(mat))
                amount = cpn_rate * face
                cashflows = tuple(Cashflow(float(t), float(amount)) for t in times) if amount > 0 else ()
                # priced off the benchmark plus a constant spread; the last coupon date is the maturity
                yields = benchmark.yields(times) + spec.spread_over_benchmark
                pv = float(np.sum(amount * np.exp(-times * yields))) + face * math.exp(-float(mat) * float(yields[-1]))
                price = pv * (1.0 + float(eps))
                if not price > 0:  # the spec is at fault, not the bond: name what to change
                    raise ValidationError(
                        f"prices underflow to {pv!r}: check spread_over_benchmark and base_rate" if not pv > 0
                        else f"price noise drew a price of {price!r}: check price_noise_sd")
                bonds.append(Bond(f"B{i + 1:0{width}d}", cashflows, face, float(mat), price))
    except (FloatingPointError, OverflowError) as exc:
        raise ValidationError(f"prices overflow ({exc}): check coupon_range, spread_over_benchmark and base_rate")

    label = date if date is not None else f"synthetic-{spec.regime}-{spec.seed}"
    return MarketSnapshot(date=label, bonds=tuple(bonds), benchmark=benchmark)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _snapshot_to_dict(snapshot: MarketSnapshot) -> dict:
    return {
        "date": snapshot.date,
        "benchmark": {
            "tenors": list(snapshot.benchmark.tenors),
            "rates": list(snapshot.benchmark.rates),
        },
        "bonds": [
            {
                "id": b.id,
                "face_value": b.face_value,
                "maturity": b.maturity,
                "market_price": b.market_price,
                "cashflows": [{"time": cf.time, "amount": cf.amount} for cf in b.cashflows],
            }
            for b in snapshot.bonds
        ],
    }


def _number(value) -> float:
    """A JSON number or a CSV cell as a float; a JSON boolean is not a number."""
    if value.__class__ is bool:
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _text(value, what: str) -> str:
    """A JSON string or a CSV cell; a JSON number, list, object or null is no bond id or date."""
    if value.__class__ is not str:
        raise TypeError(f"{what} must be a string, got {value!r}")
    return value


def _snapshot_from_dict(data: dict, path: Path, bench_path: Path) -> MarketSnapshot:
    """Validate a snapshot record whose bonds came from ``path`` and benchmark from ``bench_path``."""
    at_fault = bench_path
    try:
        bench = data["benchmark"]
        tenors, rates = tuple(map(_number, bench["tenors"])), tuple(map(_number, bench["rates"]))
        if len(tenors) != len(rates):  # a tenor without its rate, as a CSV row short of a cell
            raise ValueError(f"{len(tenors)} benchmark tenors but {len(rates)} rates")
        benchmark, at_fault = BenchmarkCurve(tenors, rates), path
        bonds = [
            Bond(_text(rec["id"], "bond id"),
                 tuple([Cashflow(_number(cf["time"]), _number(cf["amount"])) for cf in rec["cashflows"]]),
                 _number(rec["face_value"]), _number(rec["maturity"]), _number(rec["market_price"]))
            for rec in data["bonds"]
        ]
        return MarketSnapshot(_text(data.get("date", ""), "date"), bonds, benchmark)
    except ValidationError as exc:
        raise ValidationError(f"{at_fault}: {exc}") from exc
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise ParseError(f"{at_fault}: malformed record: {detail}") from exc


def _benchmark_path(path: Path) -> Path:
    return path.with_name(path.stem + ".benchmark.csv")


def _format_cashflows(bond: Bond) -> str:
    return ";".join(f"{cf.time!r}:{cf.amount!r}" for cf in bond.cashflows)


def _read(path: Path) -> str:
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def _csv_rows(path: Path, header: tuple[str, ...]) -> tuple[list[list[str]], str]:
    """The rows under ``header`` in the CSV file ``path``, and the date of its last ``# date:`` comment."""
    lines = io.StringIO(_read(path), newline="").readlines()
    comments = [line[1:].strip() for line in lines if line.startswith("#")]
    dates = [comment[len("date:"):].strip() for comment in comments if comment.startswith("date:")]
    try:
        rows = [row for row in csv.reader(line for line in lines if not line.startswith("#")) if row]
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not rows or [cell.strip() for cell in rows[0]] != list(header):
        raise ParseError(f"{path}: bad header {rows[0] if rows else None}, expected {list(header)}")
    for row in rows[1:]:
        if len(row) != len(header):
            raise ParseError(f"{path}: row has {len(row)} cells, expected {len(header)}: {row!r}")
    return rows[1:], dates[-1] if dates else ""


def _cashflow_records(cell: str) -> list[dict]:
    # a segment without a colon gets an empty amount, which fails validation
    segments = cell.split(";") if cell.strip() else []
    return [{"time": t, "amount": a} for t, _, a in map(str.partition, segments, repeat(":"))]


def write_json(path, record) -> None:
    """Write ``record`` to ``path`` as JSON indented by 2, ending in one newline."""
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def write_csv(path, header, rows, comment: str | None = None) -> None:
    """Write ``header`` and ``rows`` through ``csv.writer`` after a ``# comment`` line if given, every line in CRLF."""
    with open(path, "w", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\r\n")
        csv.writer(fh).writerows([header, *rows])


def save_snapshot(snapshot: MarketSnapshot, path, format: str = "json") -> None:
    """Write ``snapshot`` to ``path`` in the given format (``json`` or ``csv``).

    CSV writes the benchmark to the companion file ``<name>.benchmark.csv``,
    and refuses a date its ``# date:`` line would not read back as before it
    writes anything. Floats are written with full repr precision, so a load
    after save reproduces the snapshot exactly.
    """
    path = Path(path)
    if format == "json":
        write_json(path, _snapshot_to_dict(snapshot))
    elif format == "csv":
        date = snapshot.date
        if "\n" in date or "\r" in date or date != date.strip():
            raise ValidationError(f"a CSV date must hold no line break and no whitespace at either end, got {date!r}")
        write_csv(path, _CSV_HEADER, [
            [b.id, repr(b.face_value), repr(b.maturity), repr(b.market_price), _format_cashflows(b)]
            for b in snapshot.bonds
        ], comment=f"date: {date}")
        write_csv(_benchmark_path(path), ("tenor", "rate"),
                  [[repr(t), repr(r)] for t, r in zip(snapshot.benchmark.tenors, snapshot.benchmark.rates)])
    else:
        raise ValidationError(f"format must be 'json' or 'csv', got {format!r}")


def load_snapshot(path, format: str | None = None) -> MarketSnapshot:
    """Read a snapshot from ``path``; format inferred from the extension if omitted."""
    path = Path(path)
    if format is None:
        format = "csv" if path.suffix.lower() == ".csv" else "json"
    if format == "json":
        try:
            data = json.loads(_read(path))
        except (ValueError, RecursionError) as exc:  # not JSON, an int past the digit limit, or nested too deep
            raise ParseError(f"{path}: invalid JSON: {exc}") from None
        return _snapshot_from_dict(data, path, path)
    if format == "csv":
        rows, date = _csv_rows(path, _CSV_HEADER)
        bench_path = _benchmark_path(path)
        bench_rows = _csv_rows(bench_path, ("tenor", "rate"))[0]
        bonds = [{"id": bond_id, "face_value": face, "maturity": maturity, "market_price": price,
                  "cashflows": _cashflow_records(cell)} for bond_id, face, maturity, price, cell in rows]
        benchmark = {"tenors": [tenor for tenor, _ in bench_rows], "rates": [rate for _, rate in bench_rows]}
        return _snapshot_from_dict({"date": date, "benchmark": benchmark, "bonds": bonds}, path, bench_path)
    raise ValidationError(f"format must be 'json' or 'csv', got {format!r}")
