"""Bond market data: domain types, file I/O, and synthetic scenario generation.

A snapshot is one business day of data: a list of bonds (cashflow schedule,
face value, observed dirty price) plus a near-risk-free benchmark curve, a
``YieldCurve`` like every fitted curve: maturities in, spot yields out.
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
comment line. All times are in years, all rates decimal per annum.
"""

from __future__ import annotations

import csv
import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError

_REGIMES = ("flat", "rising", "falling")

# Longest maturity a generated bond may have, in years. A bond carries one
# coupon date per year of life, so the cap also bounds its cashflow count.
MAX_MATURITY = 100.0

# Tenors used for generated benchmark curves; span the evaluation grid.
_BENCHMARK_TENORS = (1 / 365, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 15.0, 20.0, 30.0)


@dataclass(frozen=True)
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
    at ``maturity`` is implicit and not listed). For a coupon bond the last
    cashflow falls exactly at maturity; a zero-coupon bond has an empty list.
    ``market_price`` is the observed dirty price.
    """

    id: str
    cashflows: tuple[Cashflow, ...]
    face_value: float
    maturity: float
    market_price: float

    def __post_init__(self):
        object.__setattr__(self, "cashflows", tuple(self.cashflows))
        if not self.id:
            raise ValidationError("bond id must be non-empty")
        times = [cf.time for cf in self.cashflows]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValidationError(f"bond {self.id}: cashflow times must be strictly increasing")
        if not (0 < self.maturity < math.inf):
            raise ValidationError(f"bond {self.id}: maturity must be finite and > 0, got {self.maturity}")
        if times and not math.isclose(times[-1], self.maturity, rel_tol=0, abs_tol=1e-9):
            raise ValidationError(
                f"bond {self.id}: maturity must equal the last cashflow time "
                f"({times[-1]} != {self.maturity})"
            )
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
    """All bonds and the benchmark curve for one business day."""

    date: str
    bonds: tuple[Bond, ...]
    benchmark: BenchmarkCurve

    def __post_init__(self):
        object.__setattr__(self, "bonds", tuple(self.bonds))
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


def sort_bonds(bonds) -> list[Bond]:
    """Bonds in ascending maturity order, ties broken by id."""
    return sorted(bonds, key=lambda b: (b.maturity, b.id))


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

    coupon_rates = rng.uniform(spec.coupon_range[0], spec.coupon_range[1], size=spec.n_bonds)
    noise = rng.normal(0.0, spec.price_noise_sd, size=spec.n_bonds) if spec.price_noise_sd > 0 else np.zeros(spec.n_bonds)

    benchmark = BenchmarkCurve(
        tenors=_BENCHMARK_TENORS,
        rates=tuple(float(r) for r in benchmark_rate(spec.regime, spec.base_rate, np.array(_BENCHMARK_TENORS))),
    )

    face = 100.0
    width = max(3, len(str(spec.n_bonds)))
    bonds = []
    for i, (mat, cpn_rate, eps) in enumerate(zip(maturities, coupon_rates, noise)):
        times = _annual_coupon_times(float(mat))
        amount = cpn_rate * face
        cashflows = tuple(Cashflow(float(t), float(amount)) for t in times) if amount > 0 else ()
        # Price off the interpolated benchmark plus a constant spread; the last
        # coupon date is the maturity.
        yields = benchmark.yields(times) + spec.spread_over_benchmark
        pv = float(np.sum(amount * np.exp(-times * yields))) + face * math.exp(-float(mat) * float(yields[-1]))
        price = pv * (1.0 + float(eps))
        bonds.append(
            Bond(
                id=f"B{i + 1:0{width}d}",
                cashflows=cashflows,
                face_value=face,
                maturity=float(mat),
                market_price=price,
            )
        )

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


def _snapshot_from_dict(data: dict) -> MarketSnapshot:
    try:
        benchmark = BenchmarkCurve(
            tenors=tuple(data["benchmark"]["tenors"]),
            rates=tuple(data["benchmark"]["rates"]),
        )
        bonds = tuple(
            Bond(
                id=str(rec["id"]),
                cashflows=tuple(Cashflow(float(cf["time"]), float(cf["amount"])) for cf in rec["cashflows"]),
                face_value=float(rec["face_value"]),
                maturity=float(rec["maturity"]),
                market_price=float(rec["market_price"]),
            )
            for rec in data["bonds"]
        )
        date = str(data.get("date", ""))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ParseError(f"snapshot record is malformed: {exc}") from exc
    return MarketSnapshot(date=date, bonds=bonds, benchmark=benchmark)


def _benchmark_path(path: Path) -> Path:
    return path.with_name(path.stem + ".benchmark.csv")


def _format_cashflows(bond: Bond) -> str:
    return ";".join(f"{cf.time!r}:{cf.amount!r}" for cf in bond.cashflows)


def _parse_cashflows(cell: str, bond_id: str) -> tuple[Cashflow, ...]:
    cell = cell.strip()
    if not cell:
        return ()
    flows = []
    for piece in cell.split(";"):
        try:
            t_str, a_str = piece.split(":")
            flows.append(Cashflow(float(t_str), float(a_str)))
        except (ValueError, TypeError) as exc:
            if isinstance(exc, ValidationError):
                raise
            raise ParseError(f"bond {bond_id}: bad cashflows cell segment {piece!r}") from exc
    return tuple(flows)


def save_snapshot(snapshot: MarketSnapshot, path, format: str = "json") -> None:
    """Write ``snapshot`` to ``path`` in the given format (``json`` or ``csv``).

    CSV writes the benchmark to the companion file ``<name>.benchmark.csv``.
    Floats are written with full repr precision, so a load after save
    reproduces the snapshot exactly.
    """
    path = Path(path)
    if format == "json":
        with open(path, "w") as fh:
            json.dump(_snapshot_to_dict(snapshot), fh, indent=2)
            fh.write("\n")
    elif format == "csv":
        with open(path, "w", newline="") as fh:
            fh.write(f"# date: {snapshot.date}\n")
            writer = csv.writer(fh)
            writer.writerow(["id", "face_value", "maturity", "market_price", "cashflows"])
            for b in snapshot.bonds:
                writer.writerow([b.id, repr(b.face_value), repr(b.maturity), repr(b.market_price), _format_cashflows(b)])
        with open(_benchmark_path(path), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["tenor", "rate"])
            for t, r in zip(snapshot.benchmark.tenors, snapshot.benchmark.rates):
                writer.writerow([repr(t), repr(r)])
    else:
        raise ValidationError(f"format must be 'json' or 'csv', got {format!r}")


def load_snapshot(path, format: str | None = None) -> MarketSnapshot:
    """Read a snapshot from ``path``; format inferred from the extension if omitted."""
    path = Path(path)
    if format is None:
        format = "csv" if path.suffix.lower() == ".csv" else "json"
    if format == "json":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ParseError(f"{path}: expected a JSON object at top level")
        return _snapshot_from_dict(data)
    if format == "csv":
        date = ""
        bonds = []
        with open(path, newline="") as fh:
            rows = []
            for line in fh:
                if line.startswith("#"):
                    if line[1:].strip().startswith("date:"):
                        date = line[1:].strip()[len("date:"):].strip()
                    continue
                rows.append(line)
        reader = csv.reader(rows)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty CSV file") from None
        expected = ["id", "face_value", "maturity", "market_price", "cashflows"]
        if [h.strip() for h in header] != expected:
            raise ParseError(f"{path}: bad header {header!r}, expected {expected}")
        for row in reader:
            if not row:
                continue
            if len(row) != 5:
                raise ParseError(f"{path}: row has {len(row)} cells, expected 5: {row!r}")
            bond_id = row[0]
            try:
                bonds.append(
                    Bond(
                        id=bond_id,
                        cashflows=_parse_cashflows(row[4], bond_id),
                        face_value=float(row[1]),
                        maturity=float(row[2]),
                        market_price=float(row[3]),
                    )
                )
            except ValueError as exc:
                if isinstance(exc, ValidationError):
                    raise
                raise ParseError(f"{path}: bond {bond_id}: unparseable numeric field") from exc
        bench_path = _benchmark_path(path)
        tenors, rates = [], []
        with open(bench_path, newline="") as fh:
            reader = csv.reader(line for line in fh if not line.startswith("#"))
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["tenor", "rate"]:
                raise ParseError(f"{bench_path}: bad header {header!r}, expected ['tenor', 'rate']")
            for row in reader:
                if not row:
                    continue
                try:
                    tenors.append(float(row[0]))
                    rates.append(float(row[1]))
                except ValueError as exc:
                    raise ParseError(f"{bench_path}: unparseable row {row!r}") from exc
        benchmark = BenchmarkCurve(tenors=tuple(tenors), rates=tuple(rates))
        return MarketSnapshot(date=date, bonds=tuple(bonds), benchmark=benchmark)
    raise ValidationError(f"format must be 'json' or 'csv', got {format!r}")
