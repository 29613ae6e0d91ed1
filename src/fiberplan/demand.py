"""Demand modelling: subregion densities, decile geotypes, potential users.

Subregions are ranked by population density (densest first) and split into
ten equal-count deciles; when the count is not divisible by ten, the denser
deciles absorb the remainder. Potential users per km2 follow a flat adoption
rate applied above a minimum-density cutoff. Both splits return one
`DemandTable` of columns in rank order, computed in numpy.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, check_nonnegative
from .geodata import _read_csv_rows
from .report import write_csv

log = logging.getLogger(__name__)

AREA_COLUMNS = ("subregion_id", "area_km2")

# Density floors (per km2) of deciles 1..9 for the band-based fallback used
# when a scenario has too few subregions for an equal-count split; anything
# below the last floor is decile 10.
DENSITY_BAND_FLOORS = (958.0, 456.0, 273.0, 172.0, 107.0, 64.0, 40.0, 22.0, 10.0)
_FLOORS_ASCENDING = np.array(DENSITY_BAND_FLOORS[::-1])


class ZeroArea(DataError):
    """A subregion area is zero or negative."""


class TooFewSubregions(DataError):
    """Fewer than ten subregions; an equal-count decile split is undefined."""


class DensityOverflow(DataError):
    """A subregion's population density is too large for a float."""


@dataclass(frozen=True)
class AdoptionScenario:
    """Flat adoption assumption: fraction of population that subscribes."""

    adoption_rate: float
    min_density_per_km2: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.adoption_rate <= 1.0:
            raise ValueError(f"adoption_rate must be in (0, 1], got {self.adoption_rate}")
        check_nonnegative(min_density_per_km2=self.min_density_per_km2)


@dataclass(frozen=True, eq=False)
class DemandTable:
    """Subregion demand as columns, one entry per subregion in rank order:
    density-descending, ties by subregion_id ascending.

    `subregion_id` and `population` (exact Python ints) are tuples;
    `area_km2`, `density_per_km2` (population / area) and `users_per_km2`
    are float64 arrays, and `decile` (1 = densest) is an int array. Tables
    compare by identity, as numpy arrays have no single truth value.
    """

    subregion_id: tuple[str, ...]
    area_km2: np.ndarray
    population: tuple[int, ...]
    density_per_km2: np.ndarray
    decile: np.ndarray
    users_per_km2: np.ndarray

    def __len__(self) -> int:
        return len(self.subregion_id)

    def users(self) -> np.ndarray:
        """Potential users per subregion: users/km2 times area."""
        return self.users_per_km2 * self.area_km2


DEMAND_COLUMNS = tuple(f.name for f in fields(DemandTable))


def _check_rows(rows: Sequence[tuple[str, int, float]]) -> None:
    """Raise for the first subregion, in input order, that breaks a rule:
    a duplicate id (DataError), an area <= 0 (ZeroArea), a population that
    is not a finite number >= 0 (`check_nonnegative`'s ValueError), or a
    density that is not a finite float (DensityOverflow)."""
    seen: set[str] = set()
    for sid, population, area in rows:
        if sid in seen:
            raise DataError(f"duplicate subregion_id {sid!r}")
        seen.add(sid)
        if area <= 0.0:
            raise ZeroArea(f"area must be positive, got {area}")
        check_nonnegative(population=population)
        try:
            density = population / area
        except OverflowError:  # a population too large for a float
            density = math.inf
        if not math.isfinite(density):
            raise DensityOverflow(
                f"subregion {sid!r} has a population density too large for a float "
                f"(area {area} km2)"
            )


def _table(
    rows: Sequence[tuple[str, int, float]],
    scenario: AdoptionScenario | None,
    sizes: Sequence[int] | None,
) -> DemandTable:
    """The demand table of (subregion_id, population, area_km2) rows: the
    ten deciles hold `sizes` subregions each in rank order, or, when sizes
    is None, each density takes its `DENSITY_BAND_FLOORS` band.

    numpy converts each population to the float64 that `float(population)`
    gives and divides, compares and multiplies as the scalar formulas do,
    so every column holds their floats. Any row the vector checks flag is
    checked again one at a time, in input order, by `_check_rows`.
    """
    ids, pops, areas = (list(c) for c in zip(*rows)) if rows else ([], [], [])
    area = np.array(areas, dtype=np.float64)
    try:
        pop = np.array(pops, dtype=np.float64)
    except OverflowError:  # a population too large for a float
        _check_rows(rows)
        raise
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        density = pop / area
    if len(set(ids)) < len(ids) or not (
        (area > 0.0).all() and (pop >= 0.0).all() and np.isfinite(density).all()
    ):
        _check_rows(rows)
    order = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
    order = order[np.argsort(-density[order], kind="stable")]
    density = density[order]
    if scenario is None:
        users = np.zeros_like(density)
    else:
        users = np.where(
            density <= scenario.min_density_per_km2, 0.0, density * scenario.adoption_rate
        )
    if sizes is None:
        decile = 10 - np.searchsorted(_FLOORS_ASCENDING, density, side="right")
    else:
        decile = np.repeat(np.arange(1, 11), sizes)
    ranked = order.tolist()
    return DemandTable(
        subregion_id=tuple([ids[i] for i in ranked]),
        area_km2=area[order],
        population=tuple([pops[i] for i in ranked]),
        density_per_km2=density,
        decile=decile,
        users_per_km2=users,
    )


def assign_deciles(
    subregions: Iterable[tuple[str, int, float]],
    scenario: AdoptionScenario | None = None,
) -> DemandTable:
    """Rank subregions by density and split into ten equal-count deciles.

    Args:
        subregions: (subregion_id, population, area_km2) triples.
        scenario: when given, fills users_per_km2; otherwise it is 0.

    Returns:
        A `DemandTable` sorted density-descending (ties by subregion_id
        ascending), decile 1 = densest. With n = 10q + r subregions, the
        first r deciles hold q + 1 subregions each.
    """
    rows = list(subregions)
    if len(rows) < 10:
        raise TooFewSubregions(f"need at least 10 subregions for deciles, got {len(rows)}")
    q, r = divmod(len(rows), 10)
    return _table(rows, scenario, [q + 1] * r + [q] * (10 - r))


def band_demand(
    subregions: Iterable[tuple[str, int, float]],
    scenario: AdoptionScenario | None = None,
) -> DemandTable:
    """A `DemandTable` with band-based deciles (no minimum subregion count):
    decile i for a density at or above the i-th of `DENSITY_BAND_FLOORS`
    and below the ones before it, 10 below them all."""
    return _table(list(subregions), scenario, None)


def load_area_table(path: str) -> dict[str, float]:
    """Load subregion areas from a CSV with columns subregion_id,area_km2."""
    out: dict[str, float] = {}
    for lineno, (raw_sid, raw_area) in _read_csv_rows(path, AREA_COLUMNS):
        sid = (raw_sid or "").strip()
        if not sid:
            raise DataError(f"{path}:{lineno}: empty subregion_id")
        if sid in out:
            raise DataError(f"{path}:{lineno}: duplicate subregion_id {sid!r}")
        try:
            area = float(raw_area)
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}:{lineno}: bad area_km2 {raw_area!r}") from exc
        if not math.isfinite(area) or area <= 0:
            raise ZeroArea(f"{path}:{lineno}: area_km2 must be positive, got {area}")
        out[sid] = area
    if not out:
        raise DataError(f"{path}: area table has no rows")
    log.info("loaded %d subregion areas from %s", len(out), path)
    return out


def write_demand_csv(table: DemandTable, path: str) -> None:
    """Write the demand table as CSV, one row per subregion in rank order,
    floats at 6 significant digits."""
    write_csv(path, DEMAND_COLUMNS, [getattr(table, name) for name in DEMAND_COLUMNS])
