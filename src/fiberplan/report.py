"""Reporting: decile aggregation, social carbon cost, Monte Carlo, emitters.

A reporting unit is one region's share of one network level under one
algorithm. Units are priced with the cost and emission-factor books, summed
per (decile, level, algorithm), and written as CSV. Monte Carlo re-prices
the same units under parameter draws from a counter-based generator
(Philox4x64-10, computed here in numpy for a whole block of draws), so
results are independent of execution order. Both go through one pricing
kernel over arrays of units and blocks of draws, whose row totals are the
correctly rounded sums `math.fsum` gives; the report is its one-draw case.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Mapping, Sequence

import numpy as np

# tco_quantities and emissions_quantities are looked up here by name by the
# benchmark's traced run (perfbench/spans.py), which counts pricing calls.
from .costmodel import (  # noqa: F401
    CostBook,
    _annual_opex,
    _fsum_columns,
    _opex_npv,
    _per_user_tco,
    _tco_parts,
    tco_quantities,
)
from .errors import ConfigError, OutputError, check_nonnegative, is_finite_number
from .lca import EmissionFactorBook, _operations, _per_user_views, _phases
from .lca import emissions_quantities  # noqa: F401
from .netdesign.design import DesignResult

_SEED_MASK = (1 << 64) - 1

# The most Monte Carlo draws a scenario may ask for: `monte_carlo` holds every
# draw's figures in one (draws, rows, len(MC_METRICS)) float64 array, so this
# bounds that allocation. Ten times the largest run measured; not a setting.
MAX_DRAWS = 1_000_000


class UnknownParameterKey(ConfigError):
    """A Monte Carlo distribution names no known book parameter."""


class InvalidDistributionBounds(ConfigError):
    """A Monte Carlo setting is invalid: the draw count, the seed, or a
    distribution's kind or bounds."""


class PriceOverflow(ConfigError):
    """Book values price a report figure beyond the largest float."""


class IoError(OutputError):
    """An output file could not be written."""


@dataclass(frozen=True)
class ReportUnit:
    """One region's share of one network level under one algorithm."""

    key: str  # region id (diagnostic)
    decile: int
    level: str  # "regional" | "access"
    algorithm: str  # solver tag: "MST" | "PCST_GW"
    users: float
    node_count: int
    length_km: float
    opex_share: float = 1.0

    def __post_init__(self) -> None:
        if not 1 <= self.decile <= 10:
            raise ValueError(f"decile must be 1..10, got {self.decile}")
        check_nonnegative(users=self.users, node_count=self.node_count, length_km=self.length_km)
        if not 0.0 <= self.opex_share <= 1.0:
            raise ValueError(f"opex_share must be in [0, 1] ({self})")


@dataclass(frozen=True)
class DecileReportRow:
    decile: int
    level: str
    algorithm: str
    users: float
    total_length_km: float
    tco_usd: float
    annualized_tco_per_user_usd: float | None
    monthly_tco_per_user_usd: float | None
    total_kg_co2e: float
    per_user_kg_co2e: float | None
    annualized_per_user_kg_co2e: float | None
    scc_usd: float
    scc_per_user_usd: float | None
    annualized_scc_per_user_usd: float | None


REPORT_COLUMNS = tuple(f.name for f in dataclasses.fields(DecileReportRow))

# Row fields summarized by Monte Carlo, in report-column order.
MC_METRICS = REPORT_COLUMNS[3:]


def _scc(total_kg_co2e, carbon_price_usd_per_tonne):
    return (total_kg_co2e / 1000.0) * carbon_price_usd_per_tonne


def scc(total_kg_co2e: float, carbon_price_usd_per_tonne: float) -> float:
    """Social carbon cost of emissions at a per-tonne price."""
    check_nonnegative(
        total_kg_co2e=total_kg_co2e, carbon_price_usd_per_tonne=carbon_price_usd_per_tonne
    )
    return _scc(total_kg_co2e, carbon_price_usd_per_tonne)


def build_report(
    units: Sequence[ReportUnit],
    cost_book: CostBook,
    factor_book: EmissionFactorBook,
) -> list[DecileReportRow]:
    """Price every unit and aggregate per (decile, level, algorithm).

    Totals are sums over member units; per-user metrics divide the summed
    totals by the summed users and are None when those users are zero.
    This is the pricing kernel's one-draw case, so it matches every Monte
    Carlo draw priced at the same book values bit for bit.
    """
    priced = _PricedUnits(units)
    book = SimpleNamespace(**_book_values(cost_book, factor_book))
    values = priced.price(book, 1)[0].tolist()
    return [
        DecileReportRow(
            decile=decile,
            level=level,
            algorithm=algorithm,
            **{m: v if ok else None for m, v, ok in zip(MC_METRICS, row_values, defined)},
        )
        for (decile, level, algorithm), row_values, defined in zip(
            priced.rows, values, priced.defined
        )
    ]


# --- pricing kernel ---------------------------------------------------------

# Draws priced together: bounds the kernel's (units, draws) temporaries. On
# mc-sweep, 128 priced as fast as 256 with 2 MB less peak RSS, and faster
# than 32 or 64, whose fixed costs per block add up.
_BLOCK_DRAWS = 128

# MC_METRICS that divide by the row's users, undefined when those are zero.
_PER_USER_METRICS = frozenset(m for m in MC_METRICS if "per_user" in m)


def _book_values(cost_book: CostBook, factor_book: EmissionFactorBook) -> dict:
    """Every field of both books by name (their names do not overlap)."""
    return {
        f.name: getattr(book, f.name)
        for book in (cost_book, factor_book)
        for f in dataclasses.fields(book)
    }


class _PricedUnits:
    """Report units as arrays over units, grouped into report rows.

    `price` maps book parameters (a namespace of every book field: floats,
    or (draws,) arrays for varied fields) to every report metric of every
    row, shape (draws, rows, len(MC_METRICS)). Units are priced as
    (units, draws) arrays with the arithmetic of `costmodel` and `lca`, in
    the order `tco_quantities` and `emissions_quantities` evaluate it, and
    each row total is `math.fsum` over its members (by `_fsum_columns`), so
    every draw's figures equal those of pricing the units one by one at that
    draw's book values.
    """

    def __init__(self, units: Sequence[ReportUnit]) -> None:
        groups: dict[tuple[int, str, str], list[int]] = {}
        for i, unit in enumerate(units):
            groups.setdefault((unit.decile, unit.level, unit.algorithm), []).append(i)
        self.rows = sorted(groups)
        # Row j's members are column j, padded with the index of an extra
        # -0.0 unit, the additive identity, to the power of two that
        # `_fsum_columns` would pad to.
        longest = max(map(len, groups.values()), default=1)
        self.members = np.full((1 << (longest - 1).bit_length(), len(self.rows)), len(units))
        for j, key in enumerate(self.rows):
            self.members[: len(groups[key]), j] = groups[key]

        def column(field: str) -> np.ndarray:
            return np.array([getattr(u, field) for u in units], dtype=float)[:, None]

        users = column("users")
        self.node_count = column("node_count")
        self.length_km = column("length_km")
        self.opex_share = column("opex_share")
        # Operations load only where a unit has users and terminals; other
        # units get placeholder counts of 1 and a masked-out figure.
        self.has_ops = (users > 0) & (self.node_count > 0)
        self.ops_users = np.where(self.has_ops, users, 1.0)
        self.ops_per_terminal = self.ops_users / np.where(self.has_ops, self.node_count, 1.0)
        self.row_users = self._row_sums(users, 1)
        self.row_length = self._row_sums(self.length_km, 1)
        self.defined = [
            [bool(ok) or metric not in _PER_USER_METRICS for metric in MC_METRICS]
            for ok in self.row_users[:, 0] > 0
        ]

    def price(self, b: SimpleNamespace, draws: int) -> np.ndarray:
        """Every metric of every row under book parameters b; raises
        PriceOverflow when a figure is not a finite float."""
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                values = self._figures(b, draws)
        except OverflowError as exc:  # math.fsum or Python's float ** past the largest float
            raise PriceOverflow(
                f"the book values overflow a row total or the opex present value: {exc}"
            ) from exc
        bad = np.argwhere(~np.isfinite(values))
        if bad.size:
            draw, row, metric = bad[0].tolist()
            decile, level, algorithm = self.rows[row]
            raise PriceOverflow(
                f"the book values price {MC_METRICS[metric]} of decile {decile} {level} "
                f"{algorithm} at {values[draw, row, metric]}, not a finite number"
            )
        return values

    def _figures(self, b: SimpleNamespace, draws: int) -> np.ndarray:
        annual = np.broadcast_to(_annual_opex(b), (draws,))
        npv = _opex_npv(annual, b.discount_rate, b.assessment_years)
        _, _, tco = _tco_parts(self.node_count, self.length_km, self.opex_share, b, npv)
        ops = np.where(
            self.has_ops,
            self.ops_users * _operations(self.ops_users, self.ops_per_terminal, b),
            0.0,
        )
        kg = _phases(self.length_km, self.node_count, ops, b)[-1]
        tco_rows = self._row_sums(tco, draws)
        kg_rows = self._row_sums(kg, draws)
        scc_rows = _scc(kg_rows, b.carbon_price_usd_per_tonne)
        users = np.where(self.row_users > 0, self.row_users, 1.0)
        _, ann_tco, monthly = _per_user_tco(tco_rows, users, b.assessment_years)
        per_user_kg, ann_kg = _per_user_views(kg_rows, users, b.lifetime_years)
        scc_per_user, ann_scc = _per_user_views(scc_rows, users, b.lifetime_years)
        columns = {
            "users": self.row_users,
            "total_length_km": self.row_length,
            "tco_usd": tco_rows,
            "annualized_tco_per_user_usd": ann_tco,
            "monthly_tco_per_user_usd": monthly,
            "total_kg_co2e": kg_rows,
            "per_user_kg_co2e": per_user_kg,
            "annualized_per_user_kg_co2e": ann_kg,
            "scc_usd": scc_rows,
            "scc_per_user_usd": scc_per_user,
            "annualized_scc_per_user_usd": ann_scc,
        }
        shape = (len(self.rows), draws)
        figures = np.stack([np.broadcast_to(columns[m], shape) for m in MC_METRICS], axis=-1)
        return figures.transpose(1, 0, 2)

    def _row_sums(self, values: np.ndarray, draws: int) -> np.ndarray:
        """Exact per-row sums, shape (rows, draws), of a per-unit figure of
        shape (units, draws) or (units, 1)."""
        padded = np.full((len(values) + 1, draws), -0.0)
        padded[:-1] = values
        sums = _fsum_columns(padded[self.members].reshape(len(self.members), -1))
        return sums.reshape(len(self.rows), draws)


# --- Monte Carlo ------------------------------------------------------------

# Each distribution kind and the bounds it reads. A fixed rule reads its
# optional `value` instead, and without one keeps the book's value.
DIST_BOUNDS = {"fixed": (), "uniform": ("lo", "hi"), "triangular": ("lo", "mode", "hi")}


@dataclass(frozen=True)
class Distribution:
    """One parameter's sampling rule. Bounds and the fixed value must be
    finite numbers, and bounds are kept as floats; whether they are valid
    for the parameter is checked against its book by `check_distributions`."""

    kind: str
    lo: float = 0.0
    mode: float = 0.0
    hi: float = 0.0
    value: float | None = None  # fixed-at-value override; None keeps the book value

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in DIST_BOUNDS:
            raise InvalidDistributionBounds(
                f"distribution kind must be one of {tuple(DIST_BOUNDS)}, got {self.kind!r}"
            )
        numbers = (self.lo, self.mode, self.hi) + (() if self.value is None else (self.value,))
        for value in numbers:
            if not is_finite_number(value):
                raise InvalidDistributionBounds(
                    f"distribution bounds and value must be finite numbers, got {value!r}"
                )
        for name in ("lo", "mode", "hi"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.kind == "uniform" and not self.lo <= self.hi:
            raise InvalidDistributionBounds(f"uniform needs lo <= hi, got [{self.lo}, {self.hi}]")
        triangle_ok = self.lo <= self.mode <= self.hi and self.lo < self.hi
        if self.kind == "triangular" and not triangle_ok:
            raise InvalidDistributionBounds(
                "triangular needs lo <= mode <= hi and lo < hi, "
                f"got ({self.lo}, {self.mode}, {self.hi})"
            )


@dataclass(frozen=True)
class McConfig:
    draws: int
    seed: int
    distributions: Mapping[str, Distribution]

    def __post_init__(self) -> None:
        if (isinstance(self.draws, bool) or not isinstance(self.draws, int)
                or not 1 <= self.draws <= MAX_DRAWS):
            raise InvalidDistributionBounds(
                f"monte_carlo.draws must be an integer in [1, {MAX_DRAWS}], got {self.draws!r}"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise InvalidDistributionBounds(f"monte_carlo.seed must be an integer, got {self.seed!r}")


_COST_FIELDS = frozenset(
    f.name for f in dataclasses.fields(CostBook) if f.type in ("float", float)
)
_LCA_FIELDS = frozenset(
    f.name for f in dataclasses.fields(EmissionFactorBook) if f.type in ("float", float)
)


def resolve_parameter_key(key: str) -> str:
    """Which book ("cost" or "lca") owns a tunable parameter key.

    Only continuously valued parameters are tunable; integer fields such as
    the assessment period are rejected.
    """
    if key in _COST_FIELDS:
        return "cost"
    if key in _LCA_FIELDS:
        return "lca"
    raise UnknownParameterKey(
        f"{key!r} is not a tunable cost or emission-factor parameter"
    )


def _book_of(key: str, cost_book: CostBook, factor_book: EmissionFactorBook):
    """The book that owns the tunable parameter key."""
    return cost_book if resolve_parameter_key(key) == "cost" else factor_book


def _check_values(
    key: str, values: Sequence[float], cost_book: CostBook, factor_book: EmissionFactorBook
) -> None:
    """Raise unless the book that owns key accepts each of values for it.

    Every book rule bounds one field to an interval, so checking the ends
    of a range of values checks the whole range.
    """
    book = _book_of(key, cost_book, factor_book)
    for value in values:
        try:
            dataclasses.replace(book, **{key: value})
        except ValueError as exc:
            raise InvalidDistributionBounds(
                f"distribution for {key!r} can draw an invalid value: {exc}"
            ) from exc


def check_distributions(
    mc: McConfig, cost_book: CostBook, factor_book: EmissionFactorBook
) -> dict[str, tuple[float, float]]:
    """Raise a ConfigError unless every distribution names a tunable
    parameter and can draw only values its book accepts.

    Returns each key's checked support, the interval [lo, hi] its draws
    lie in (a fixed rule's value, or its book's own, at both ends); every
    value inside it is one the book accepts.
    """
    support = {}
    for key in sorted(mc.distributions):
        dist = mc.distributions[key]
        if dist.kind != "fixed":
            ends = (dist.lo, dist.hi)
        else:  # a fixed rule without a value keeps the book's own
            ends = () if dist.value is None else (dist.value,)
        _check_values(key, ends, cost_book, factor_book)
        if not ends:
            ends = (float(getattr(_book_of(key, cost_book, factor_book), key)),)
        support[key] = (ends[0], ends[-1])
    return support


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC 2011) as numpy's `Philox` bit generator computes it: the round
# multipliers and the key's Weyl increments.
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)


def _mulhilo(m: np.uint64, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64-bit words of each 128-bit product m * x. The
    high word is built from the products of 32-bit halves, whose sums here
    stay below 2**64; the low word is the product wrapped to 64 bits."""
    m0, m1 = m & _LOW32, m >> _32
    x0, x1 = x & _LOW32, x >> _32
    cross0, cross1 = m0 * x1, m1 * x0
    carry = ((m0 * x0) >> _32) + (cross0 & _LOW32) + (cross1 & _LOW32)
    return m1 * x1 + (cross0 >> _32) + (cross1 >> _32) + (carry >> _32), m * x


def _philox_words(seed: int, draws: np.ndarray, k: int) -> np.ndarray:
    """The first k words of `np.random.Philox(key=(seed, d)).random_raw(k)`
    for each uint64 draw index d, shape (len(draws), k).

    That generator starts at counter 0 and steps it before each block of
    four words, so words 4c..4c + 3 are the ten rounds of counter
    (c + 1, 0, 0, 0) under key (seed, d).
    """
    zero = np.zeros(len(draws), dtype=np.uint64)
    out = np.empty((len(draws), 4 * -(-k // 4)), dtype=np.uint64)
    for c in range(out.shape[1] // 4):
        x0, x1, x2, x3 = zero + np.uint64(c + 1), zero, zero, zero
        k0, k1 = zero + np.uint64(seed), draws
        for r in range(10):
            if r:
                k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
            hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
            hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
            x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
        out[:, 4 * c : 4 * c + 4] = np.stack([x0, x1, x2, x3], axis=1)
    return out[:, :k]


def draw_table(
    mc: McConfig,
    first: int,
    stop: int,
    cost_book: CostBook,
    factor_book: EmissionFactorBook,
) -> dict[str, np.ndarray]:
    """Parameter values of draws first..stop - 1, one column per
    distribution key.

    Draw d reads the Philox4x64-10 stream keyed by the exact 64-bit pair
    (seed mod 2**64, d), so any draw can be computed independently of the
    others. Its varied parameters take the stream's words in sorted key
    order; fixed entries consume none. A word w gives u = (w >> 11) 2**-53,
    and u the value by the formulas of numpy's `Generator.uniform` and
    `Generator.triangular`, in their order of operations: + - * / and sqrt
    are correctly rounded, so the values are the floats those methods
    return, resting on the bit stream alone.
    """
    keys = sorted(mc.distributions)
    varied = [key for key in keys if mc.distributions[key].kind != "fixed"]
    draws = np.arange(first, stop, dtype=np.uint64)
    words = _philox_words(mc.seed & _SEED_MASK, draws, len(varied))
    unit_draws = dict(zip(varied, ((words >> np.uint64(11)) * 2.0**-53).T))
    out = {}
    for key in keys:
        dist = mc.distributions[key]
        u = unit_draws.get(key)
        if dist.kind == "fixed":
            book = _book_of(key, cost_book, factor_book)
            value = getattr(book, key) if dist.value is None else dist.value
            out[key] = np.full(len(draws), value, dtype=float)
        elif dist.kind == "uniform":
            width = dist.hi - dist.lo
            if not math.isfinite(width):  # as Generator.uniform refuses it
                raise OverflowError("high - low range exceeds valid bounds")
            out[key] = dist.lo + width * u
        else:
            base, left = dist.hi - dist.lo, dist.mode - dist.lo
            out[key] = np.where(
                u <= left / base,
                dist.lo + np.sqrt(u * (left * base)),
                dist.hi - np.sqrt((1.0 - u) * ((dist.hi - dist.mode) * base)),
            )
    return out


def draw_parameters(
    mc: McConfig,
    draw_index: int,
    cost_book: CostBook,
    factor_book: EmissionFactorBook,
) -> dict[str, float]:
    """Parameter values for one draw, keyed like the distributions: the
    one-draw case of `draw_table`."""
    table = draw_table(mc, draw_index, draw_index + 1, cost_book, factor_book)
    return {key: float(column[0]) for key, column in table.items()}


_PERCENTILES = np.array([5.0, 50.0, 95.0])


def _percentiles(samples: np.ndarray) -> np.ndarray:
    """`np.percentile(column, [5, 50, 95])` of every column along axis 0,
    shape (3,) + samples.shape[1:], with numpy's own arithmetic.

    That is numpy's default linear method (Hyndman & Fan's type 7): the
    value at virtual index (n - 1) * q / 100 of the ordered column,
    interpolated as numpy's `_lerp` does. The columns are ordered by one
    `np.partition` at the indices numpy partitions at, so that equal
    values that differ in sign (-0.0 and 0.0) land where numpy's own
    selection puts them; a full sort may order those two either way.
    """
    n = len(samples)
    virtual = (n - 1) * (_PERCENTILES / 100)
    prev = np.floor(virtual)
    nxt = prev + 1
    above = virtual >= n - 1  # both neighbours are then the largest value
    prev[above] = nxt[above] = -1
    gamma = (virtual - prev).reshape((-1,) + (1,) * (samples.ndim - 1))
    prev, nxt = prev.astype(np.intp), nxt.astype(np.intp)
    kth = sorted({0, -1, *prev.tolist(), *nxt.tolist()})
    ordered = np.partition(samples, kth, axis=0)
    a, b = ordered[prev], ordered[nxt]
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


@dataclass(frozen=True)
class McSummaryRow:
    metric: str
    decile: int
    level: str
    algorithm: str
    mean: float | None
    p5: float | None
    p50: float | None
    p95: float | None


MC_COLUMNS = tuple(f.name for f in dataclasses.fields(McSummaryRow))


def monte_carlo(
    units: Sequence[ReportUnit],
    cost_book: CostBook,
    factor_book: EmissionFactorBook,
    mc: McConfig,
) -> list[McSummaryRow]:
    """Distribution summaries of every report metric under parameter draws.

    Designs are fixed; only book parameters vary. Draw d is generated
    independently with key (seed, d), so results do not depend on the order
    draws are evaluated in. Draws are priced in blocks by the kernel that
    `build_report` uses, so each draw's figures are those `build_report`
    gives at that draw's book values.
    """
    support = check_distributions(mc, cost_book, factor_book)
    priced = _PricedUnits(units)
    if not priced.rows:
        return []
    base = _book_values(cost_book, factor_book)
    samples = np.empty((mc.draws, len(priced.rows), len(MC_METRICS)))
    for first in range(0, mc.draws, _BLOCK_DRAWS):
        stop = min(first + _BLOCK_DRAWS, mc.draws)
        table = draw_table(mc, first, stop, cost_book, factor_book)
        for key in mc.distributions:
            # Values inside the checked support are valid; ask the book
            # about the others only.
            lo, hi = support[key]
            ends = (float(table[key].min()), float(table[key].max()))
            _check_values(key, [v for v in ends if not lo <= v <= hi], cost_book, factor_book)
        book = SimpleNamespace(**{**base, **table})
        samples[first:stop] = priced.price(book, stop - first)

    percentiles = _percentiles(samples).tolist()
    summaries: list[McSummaryRow] = []
    for j, metric in enumerate(MC_METRICS):
        for i, (decile, level, algorithm) in enumerate(priced.rows):
            if priced.defined[i][j]:
                mean = float(np.mean(samples[:, i, j]))
                p5, p50, p95 = (p[i][j] for p in percentiles)
            else:
                mean = p5 = p50 = p95 = None
            summaries.append(
                McSummaryRow(
                    metric=metric,
                    decile=decile,
                    level=level,
                    algorithm=algorithm,
                    mean=mean,
                    p5=p5,
                    p50=p50,
                    p95=p95,
                )
            )
    return summaries


# --- emitters ---------------------------------------------------------------

def config_hash(payload: Mapping) -> str:
    """Stable hash of the semantic parameter set (never file paths)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _fmt(value: float | int | str | None) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _atomic_write_text(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_csv(
    path: str,
    columns: Sequence[str],
    rows: Sequence[object],
    *,
    parameters_hash: str | None = None,
) -> None:
    """Write each row's `columns` attributes as CSV, floats at `.6g`, after
    a parameters-hash comment line when a hash is given."""
    buf = io.StringIO()
    if parameters_hash is not None:
        buf.write(f"# parameters_hash={parameters_hash}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_fmt(getattr(row, col)) for col in columns] for row in rows)
    _atomic_write_text(path, buf.getvalue())


def emit_csv(rows: Sequence[DecileReportRow], path: str, *, parameters_hash: str) -> None:
    """Write report rows as CSV with a parameters-hash comment header."""
    if not rows:
        raise ValueError("refusing to emit an empty report")
    write_csv(path, REPORT_COLUMNS, rows, parameters_hash=parameters_hash)


def emit_mc_csv(rows: Sequence[McSummaryRow], path: str, *, parameters_hash: str) -> None:
    """Write Monte Carlo summaries as CSV with a parameters-hash header."""
    write_csv(path, MC_COLUMNS, rows, parameters_hash=parameters_hash)


def emit_design_geojson(
    results: Sequence[DesignResult],
    path: str,
    *,
    parameters_hash: str,
) -> None:
    """Write designs as a GeoJSON FeatureCollection.

    Each design contributes LineString features per kept edge and Point
    features per terminal (connected or not) and per routing vertex used by
    an edge.

    The text is what `json.dumps(doc, sort_keys=True, separators=(",",
    ":"))` writes for the document of dicts, built directly: every object's
    keys are in sorted order in the templates below, a coordinate is
    `repr(round(x, 6))` and a weight `repr(float(format(w, ".6g")))` (json
    writes a finite float as its repr), and strings go through
    `json.dumps`, with its ASCII escapes.
    """
    features: list[str] = []
    for result in results:
        design = result.design
        graph = result.graph
        algorithm = f'"algorithm":{json.dumps(design.algorithm)}'
        level = f'"level":{json.dumps(result.level)}'
        terminal_ids = {v: sid for sid, v in result.terminal_vertex.items()}
        used_vertices = {x for u, v, _ in design.edges for x in (u, v)}
        point_vertices = sorted(used_vertices | set(terminal_ids))
        coords = {}
        for vid in point_vertices:
            lat, lon = graph.point(vid)
            coords[vid] = f"[{round(lon, 6)!r},{round(lat, 6)!r}]"
        for u, v, w in design.edges:
            features.append(
                f'{{"geometry":{{"coordinates":[{coords[u]},{coords[v]}],"type":"LineString"}},'
                f'"properties":{{{algorithm},{level},"weight_km":{float(format(w, ".6g"))!r}}},'
                f'"type":"Feature"}}'
            )
        for vid in point_vertices:
            sid = terminal_ids.get(vid)
            if sid == result.root_id:
                role = "root"
            elif sid is not None:
                role = "terminal"
            else:
                role = "steiner"
            connected = "true" if vid in design.connected_vertices else "false"
            settlement = "" if sid is None else f',"settlement_id":{json.dumps(sid)}'
            features.append(
                f'{{"geometry":{{"coordinates":{coords[vid]},"type":"Point"}},'
                f'"properties":{{{algorithm},"connected":{connected},{level},"role":"{role}"'
                f'{settlement}}},"type":"Feature"}}'
            )
    text = (
        f'{{"features":[{",".join(features)}],'
        f'"parameters_hash":{json.dumps(parameters_hash)},"type":"FeatureCollection"}}\n'
    )
    _atomic_write_text(path, text)
