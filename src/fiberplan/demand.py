"""Demand modelling: subregion densities, decile geotypes, potential users.

Subregions are ranked by population density (densest first) and split into
ten equal-count deciles; when the count is not divisible by ten, the denser
deciles absorb the remainder. Potential users per km2 follow a flat adoption
rate applied above a minimum-density cutoff.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DataError
from .geodata import _read_csv_rows
from .report import write_csv

log = logging.getLogger(__name__)

AREA_COLUMNS = ("subregion_id", "area_km2")

DEMAND_COLUMNS = (
    "subregion_id",
    "area_km2",
    "population",
    "density_per_km2",
    "decile",
    "users_per_km2",
)

# Density floors (per km2) of deciles 1..9 for the band-based fallback used
# when a scenario has too few subregions for an equal-count split; anything
# below the last floor is decile 10.
DENSITY_BAND_FLOORS = (958.0, 456.0, 273.0, 172.0, 107.0, 64.0, 40.0, 22.0, 10.0)


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
        if self.min_density_per_km2 < 0.0:
            raise ValueError(f"min_density_per_km2 must be >= 0, got {self.min_density_per_km2}")


@dataclass(frozen=True)
class SubregionDemand:
    subregion_id: str
    area_km2: float
    population: int
    density_per_km2: float
    decile: int
    users_per_km2: float


def population_density(population: int, area_km2: float) -> float:
    """People per km2; rejects non-positive areas."""
    if area_km2 <= 0.0:
        raise ZeroArea(f"area must be positive, got {area_km2}")
    if population < 0:
        raise ValueError(f"population must be >= 0, got {population}")
    return population / area_km2


def potential_users(density_per_km2: float, scenario: AdoptionScenario) -> float:
    """Potential users per km2 at the scenario's adoption rate.

    Densities at or below the minimum-density cutoff yield zero.
    """
    if density_per_km2 <= scenario.min_density_per_km2:
        return 0.0
    return density_per_km2 * scenario.adoption_rate


def decile_for_density(density_per_km2: float) -> int:
    """Decile from fixed density bands (fallback for small scenarios)."""
    for i, floor in enumerate(DENSITY_BAND_FLOORS, start=1):
        if density_per_km2 >= floor:
            return i
    return 10


def _ranked(
    subregions: Iterable[tuple[str, int, float]],
) -> list[tuple[float, str, int, float]]:
    """(density, subregion_id, population, area_km2), density-descending
    with ties by subregion_id; rejects duplicate ids, bad areas, and
    densities that are not finite floats."""
    seen: set[str] = set()
    ranked: list[tuple[float, str, int, float]] = []
    for sid, population, area in subregions:
        if sid in seen:
            raise DataError(f"duplicate subregion_id {sid!r}")
        seen.add(sid)
        try:
            density = population_density(population, area)
        except OverflowError:  # a population too large for a float
            density = math.inf
        if not math.isfinite(density):
            raise DensityOverflow(
                f"subregion {sid!r} has a population density too large for a float "
                f"(area {area} km2)"
            )
        ranked.append((density, sid, population, area))
    ranked.sort(key=lambda t: (-t[0], t[1]))
    return ranked


def _record(
    ranked: tuple[float, str, int, float], decile: int, scenario: AdoptionScenario | None
) -> SubregionDemand:
    density, sid, population, area = ranked
    return SubregionDemand(
        subregion_id=sid,
        area_km2=area,
        population=population,
        density_per_km2=density,
        decile=decile,
        users_per_km2=potential_users(density, scenario) if scenario is not None else 0.0,
    )


def assign_deciles(
    subregions: Iterable[tuple[str, int, float]],
    scenario: AdoptionScenario | None = None,
) -> list[SubregionDemand]:
    """Rank subregions by density and split into ten equal-count deciles.

    Args:
        subregions: (subregion_id, population, area_km2) triples.
        scenario: when given, fills users_per_km2; otherwise it is 0.

    Returns:
        SubregionDemand records sorted density-descending (ties by
        subregion_id ascending), decile 1 = densest. With n = 10q + r
        subregions, the first r deciles hold q + 1 subregions each.
    """
    rows = list(subregions)
    if len(rows) < 10:
        raise TooFewSubregions(f"need at least 10 subregions for deciles, got {len(rows)}")
    q, r = divmod(len(rows), 10)
    deciles = [d for d in range(1, 11) for _ in range(q + (1 if d <= r else 0))]
    out = [_record(t, d, scenario) for t, d in zip(_ranked(rows), deciles)]
    log.info("assigned deciles for %d subregions", len(out))
    return out


def band_demand(
    subregions: Iterable[tuple[str, int, float]],
    scenario: AdoptionScenario | None = None,
) -> list[SubregionDemand]:
    """Demand records with band-based deciles (no minimum subregion count)."""
    return [_record(t, decile_for_density(t[0]), scenario) for t in _ranked(subregions)]


def users_for_node(demand: SubregionDemand) -> float:
    """Total potential users in a subregion (users/km2 times area)."""
    return demand.users_per_km2 * demand.area_km2


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
    return out


def write_demand_csv(demands: Sequence[SubregionDemand], path: str) -> None:
    """Serialize demand records with 6-significant-digit floats."""
    write_csv(path, DEMAND_COLUMNS, demands)
