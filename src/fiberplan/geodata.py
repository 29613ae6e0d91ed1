"""Geospatial inputs: settlements, existing fiber routes, road networks.

Distances are great-circle kilometres on a spherical Earth. Point-to-polyline
proximity uses a local tangent-plane approximation, which is accurate to well
under a metre at the few-kilometre scales the buffer predicate operates on.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from array import array
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import DataError, is_finite_number

log = logging.getLogger(__name__)

EARTH_RADIUS_KM = 6371.0088

SETTLEMENT_COLUMNS = ("id", "lat", "lon", "population", "region_id", "subregion_id")


class ParseError(DataError):
    """A row or feature could not be parsed."""


class MissingColumn(DataError):
    """A required CSV column is absent."""


class DuplicateId(DataError):
    """Two settlements share an id."""


class CoordinateOutOfRange(DataError):
    """Latitude outside [-90, 90] or longitude outside [-180, 180]."""


class NegativePopulation(DataError):
    """A settlement population is negative."""


class EmptyCollection(DataError):
    """A geometry input contains no usable features."""


class DegenerateGeometry(DataError):
    """A line feature has fewer than two distinct vertices or zero length."""


@dataclass(frozen=True, order=True)
class GeoPoint:
    """A WGS84 coordinate pair in decimal degrees."""

    lat: float
    lon: float


@dataclass(frozen=True)
class Settlement:
    id: str
    location: GeoPoint
    population: int
    region_id: str
    subregion_id: str


class SettlementSet:
    """Validated settlements held once as columns, one row per settlement in
    input order.

    `SettlementSet(ids, lat, lon, population, region_id, subregion_id)`
    copies one column per field: `ids`, `region_id` and `subregion_id` as
    tuples of str, `lat` and `lon` as read-only float64 arrays holding the
    given floats bit for bit, and `population` as a tuple of exact Python
    ints (a population may exceed any fixed-width integer). `row` maps each
    id to its row. No `Settlement` is held: `settlement(i)`, iteration and
    `by_id` build one on demand, and `point(i)` a `GeoPoint`, as
    `RoadGraph.point(v)` does; `of(settlements)` builds the columns from
    them.
    """

    def __init__(self, ids: Sequence[str], lat: Sequence[float], lon: Sequence[float],
                 population: Sequence[int], region_id: Sequence[str],
                 subregion_id: Sequence[str]):
        self.ids = tuple(ids)
        self.lat = np.array(lat, dtype=np.float64)
        self.lon = np.array(lon, dtype=np.float64)
        self.population = tuple(population)
        self.region_id = tuple(region_id)
        self.subregion_id = tuple(subregion_id)
        n = len(self.ids)
        columns = (self.lat, self.lon, self.population, self.region_id, self.subregion_id)
        if any(len(column) != n for column in columns):
            raise ValueError("settlement columns must all have one entry per id")
        self.row = dict(zip(self.ids, range(n)))
        if len(self.row) != n:
            raise ValueError("duplicate settlement ids")
        self.lat.flags.writeable = self.lon.flags.writeable = False

    @classmethod
    def of(cls, settlements: Iterable[Settlement]) -> SettlementSet:
        """The set of the given settlements, in their order."""
        rows = [
            (s.id, s.location.lat, s.location.lon, s.population, s.region_id, s.subregion_id)
            for s in settlements
        ]
        return cls(*(zip(*rows) if rows else [()] * len(SETTLEMENT_COLUMNS)))

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Settlement]:
        return map(self.settlement, range(len(self.ids)))

    def point(self, i: int) -> GeoPoint:
        """The location of the settlement in row i."""
        return GeoPoint(self.lat.item(i), self.lon.item(i))

    def settlement(self, i: int) -> Settlement:
        """The settlement in row i, built from the columns."""
        return Settlement(
            self.ids[i],
            self.point(i),
            self.population[i],
            self.region_id[i],
            self.subregion_id[i],
        )

    def by_id(self, settlement_id: str) -> Settlement:
        return self.settlement(self.row[settlement_id])


@dataclass(frozen=True)
class FiberLineSet:
    """Existing long-haul fiber routes as polylines."""

    lines: tuple[tuple[GeoPoint, ...], ...]


class RoadGraph:
    """Road network: vertex coordinates and undirected weighted edges, held
    once as flat arrays.

    `RoadGraph(lat, lon, u, v, w)` copies the vertex coordinates and the
    edges (u[i], v[i], w[i]) from any sequences or buffers. Edge weights are
    great-circle segment lengths in km. Edges may be given in either order
    and more than once: the graph keeps the lightest of any parallel edges
    as (u, v, w) arrays with u < v, in ascending (u, v) order, and rejects
    self-loops, out-of-range ids and weights that are not positive.
    Coordinates stay in degrees, so a coordinate difference rounds exactly
    as it does in `haversine_km`, and `point(v)` returns the given floats
    bit for bit. Every array is read-only: one road graph is shared by
    every design of a run.
    """

    def __init__(self, lat: Sequence[float], lon: Sequence[float],
                 u: Sequence[int], v: Sequence[int], w: Sequence[float]):
        self.lat = np.array(lat, dtype=np.float64)
        self.lon = np.array(lon, dtype=np.float64)
        self.n = n = len(self.lat)
        a, b = np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)
        w = np.array(w, dtype=np.float64)
        if np.any(a == b):
            raise ValueError(f"self-loop at road vertex {int(a[a == b][0])}")
        if len(a) and (min(a.min(), b.min()) < 0 or max(a.max(), b.max()) >= n):
            raise ValueError(f"road edge out of range for {n} vertices")
        if np.any(~(w > 0.0)):
            raise ValueError("road edge weights must be positive")
        u, v = np.minimum(a, b), np.maximum(a, b)
        order = np.lexsort((w, v, u))
        u, v, w = u[order], v[order], w[order]
        first = np.ones(len(u), dtype=bool)  # lightest of each parallel group
        first[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
        self._edges = (u[first], v[first], w[first])  # int64, int64, float64
        self.cos_lat = np.cos(np.radians(self.lat))
        self._by_lat = np.argsort(self.lat, kind="stable")  # vertex ids by latitude
        self._sorted_lat = self.lat[self._by_lat]
        arrays = (self.lat, self.lon, self.cos_lat, self._by_lat, self._sorted_lat)
        for held in self._edges + arrays:
            held.flags.writeable = False
        self._incidence: tuple[np.ndarray, np.ndarray] | None = None

    def point(self, v: int) -> GeoPoint:
        return GeoPoint(self.lat.item(v), self.lon.item(v))

    @property
    def vertices(self) -> tuple[GeoPoint, ...]:
        """Every vertex's point in id order, built on each access (the
        benchmark's traced run counts them); read one with `point(v)`."""
        return tuple(map(GeoPoint, self.lat.tolist(), self.lon.tolist()))

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """Every edge as (u, v, w) with u < v, in ascending (u, v) order."""
        return tuple(zip(*(a.tolist() for a in self._edges)))

    @property
    def edge_count(self) -> int:
        return len(self._edges[0])

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, v, w) arrays of every edge with u < v, in ascending (u, v) order."""
        return self._edges

    def incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """`edge_incidence` of the graph, built on the first call and kept."""
        if self._incidence is None:
            self._incidence = edge_incidence(self.n, *self._edges[:2])
        return self._incidence

    def nearest_vertex(self, p: GeoPoint) -> tuple[int, float]:
        """Nearest vertex to p and its `haversine_km` distance; ties go to
        the lowest id.

        A vertex is at least R * |dphi| from p (the haversine adds a
        non-negative longitude term to sin^2(dphi / 2)), so only a latitude
        window around p can hold the nearest one. The 2 * max(16, sqrt(n))
        vertices next to p in latitude order bound the nearest distance by
        their best numpy distance d. The window is then widened to every
        vertex with R * |dphi| <= d * (1 + 1e-6), plus 1e-12 degrees: the
        relative margin covers the rounding of the distances, and the
        absolute one the rounding of p.lat +- the reach and the latitude
        differences whose sine underflows. The window's vectorised pass
        short-lists the vertices within a 1e-9 relative margin of its
        minimum (numpy's sin and asin may differ from math's in the last
        bits, far inside that margin). `haversine_km` then scans the
        short-list in id order with the same strict `<` as a full scan, so
        the result is bit-for-bit that of a full scan.
        """
        n = self.n
        k = int(np.searchsorted(self._sorted_lat, p.lat))
        half = max(16, math.isqrt(n))
        lo, hi = max(0, k - half), min(n, k + half)
        ids = self._by_lat[lo:hi]
        d = haversine_km_array(p, self.lat[ids], self.lon[ids], self.cos_lat[ids])
        reach = math.degrees(float(d.min()) * (1.0 + 1e-6) / EARTH_RADIUS_KM) + 1e-12
        wide_lo = int(np.searchsorted(self._sorted_lat, p.lat - reach, side="left"))
        wide_hi = int(np.searchsorted(self._sorted_lat, p.lat + reach, side="right"))
        if wide_lo < lo or wide_hi > hi:
            ids = self._by_lat[wide_lo:wide_hi]
            d = haversine_km_array(p, self.lat[ids], self.lon[ids], self.cos_lat[ids])
        limit = float(d.min()) * (1.0 + 1e-9)
        best_v, best_d = -1, math.inf
        for vid in np.sort(ids[d <= limit]).tolist():
            dist = haversine_km(p, self.point(vid))
            if dist < best_d:
                best_v, best_d = vid, dist
        return best_v, best_d


def edge_incidence(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edges at each of n vertices as a read-only CSR (ptr, ids):
    ids[ptr[x]:ptr[x + 1]] are the ascending indices i of the edges
    (u[i], v[i]) that have x as an end."""
    ends = np.stack([u, v], axis=1).ravel()  # entry 2i + s is end s of edge i
    ids = np.argsort(ends, kind="stable")
    ids >>= 1
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=n), out=ptr[1:])
    ptr.flags.writeable = ids.flags.writeable = False
    return ptr, ids


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points in kilometres."""
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlam = math.radians(b.lon - a.lon)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def haversine_km_array(
    p: GeoPoint, lat: np.ndarray, lon: np.ndarray, cos_lat: np.ndarray
) -> np.ndarray:
    """`haversine_km(p, q)` for every point q = (lat[i], lon[i]) at once;
    cos_lat is the cosine of their latitudes in radians.

    numpy's sin and arcsin may differ from math's in the last bits, so a
    caller that needs the exact float short-lists with a margin and
    confirms with `haversine_km`.
    """
    dphi = np.radians(lat - p.lat)
    dlam = np.radians(lon - p.lon)
    cos_p = math.cos(math.radians(p.lat))
    h = np.sin(dphi / 2.0) ** 2 + cos_p * cos_lat * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.minimum(1.0, h)))


def _local_xy(origin: GeoPoint, p: GeoPoint) -> tuple[float, float]:
    """Project p onto a tangent plane centered at origin (km east, km north)."""
    dlon = p.lon - origin.lon
    # Wrap so a segment crossing the antimeridian projects near the origin.
    if dlon > 180.0:
        dlon -= 360.0
    elif dlon < -180.0:
        dlon += 360.0
    x = math.radians(dlon) * math.cos(math.radians(origin.lat)) * EARTH_RADIUS_KM
    y = math.radians(p.lat - origin.lat) * EARTH_RADIUS_KM
    return x, y


def point_segment_km(p: GeoPoint, a: GeoPoint, b: GeoPoint) -> float:
    """Distance from p to the segment a-b in kilometres."""
    ax, ay = _local_xy(p, a)
    bx, by = _local_xy(p, b)
    dx, dy = bx - ax, by - ay
    seg_sq = dx * dx + dy * dy
    if seg_sq == 0.0:
        return math.hypot(ax, ay)
    # p is the origin of the local frame; project it onto the segment.
    t = -(ax * dx + ay * dy) / seg_sq
    t = max(0.0, min(1.0, t))
    return math.hypot(ax + t * dx, ay + t * dy)


def within_buffer(point: GeoPoint, lines: FiberLineSet, radius_km: float) -> bool:
    """True when the point lies within radius_km of any polyline (the
    one-point case of `within_buffer_mask`)."""
    return bool(within_buffer_mask((point.lat,), (point.lon,), lines, radius_km)[0])


def within_buffer_mask(
    lat: Sequence[float], lon: Sequence[float], lines: FiberLineSet, radius_km: float
) -> np.ndarray:
    """Whether each point p = (lat[i], lon[i]) lies within radius_km of any
    polyline, as a bool array: p is inside when `point_segment_km(p, a, b)
    <= radius_km` for some segment a-b.

    Each segment is measured only against the points in its latitude band,
    the latitudes between its endpoints' widened by `_band_reach_deg`. A
    point outside the band is outside: in its own tangent frame both
    endpoints have the same sign of y with |y| > radius_km, so every point
    of the segment is farther than radius_km. The band's margins, a
    relative 1e-9 and 1e-12 degrees, cover the rounding of the band edges
    and of the frame's y, so this holds for the floats of
    `point_segment_km` too.

    Inside the band the points are measured at once, with the float
    expressions of `_local_xy` and `point_segment_km` in the same order (a
    zero-length segment divides by 1 instead, which leaves t = 0 and the
    distance hypot(ax, ay) of the scalar branch); no points x segments
    array is built. numpy's cos and hypot may differ from math's in the
    last bits, so with the numpy distance d and the margin
    m = 1e-9 * (|ax| + |ay| + |bx| + |by| + radius_km), a pair with
    d <= radius_km - m is inside, one with |d - radius_km| <= m is
    confirmed with `point_segment_km`, and any other is outside. The margin
    is safe: numpy's ax, ay, bx, by are within a few ulps (about 1e-16
    relative) of the scalar ones, a distance to a segment moves no more
    than its endpoints do, and the projection's own rounding is a few ulps
    of the same magnitudes, so d is within about 1e-15 * (|ax| + |ay| +
    |bx| + |by|) of the scalar distance, a millionth of m. The mask is
    therefore exactly the per-segment scalar test.
    """
    if not (math.isfinite(radius_km) and radius_km >= 0):
        raise ValueError(f"radius_km must be a finite number >= 0, got {radius_km}")
    reach = _band_reach_deg(radius_km)
    lat = np.asarray(lat, dtype=np.float64)
    lon = np.asarray(lon, dtype=np.float64)
    cos_lat = np.cos(np.radians(lat))
    by_lat = np.argsort(lat, kind="stable")
    sorted_lat = lat[by_lat]
    inside = np.zeros(len(lat), dtype=bool)
    for line in lines.lines:
        for a, b in zip(line, line[1:]):
            lo = int(np.searchsorted(sorted_lat, min(a.lat, b.lat) - reach, side="left"))
            hi = int(np.searchsorted(sorted_lat, max(a.lat, b.lat) + reach, side="right"))
            ids = by_lat[lo:hi]
            ids = ids[~inside[ids]]
            if not len(ids):
                continue
            band = (lat[ids], lon[ids], cos_lat[ids])
            ax, ay = _local_xy_arrays(*band, a)
            bx, by = _local_xy_arrays(*band, b)
            dx, dy = bx - ax, by - ay
            seg_sq = dx * dx + dy * dy
            t = -(ax * dx + ay * dy) / np.where(seg_sq == 0.0, 1.0, seg_sq)
            t = np.maximum(0.0, np.minimum(1.0, t))
            d = np.hypot(ax + t * dx, ay + t * dy)
            margin = 1e-9 * (np.abs(ax) + np.abs(ay) + np.abs(bx) + np.abs(by) + radius_km)
            hit = d <= radius_km - margin
            inside[ids[hit]] = True
            for i in ids[(np.abs(d - radius_km) <= margin) & ~hit].tolist():
                p = GeoPoint(lat.item(i), lon.item(i))
                inside[i] = point_segment_km(p, a, b) <= radius_km
    return inside


def _band_reach_deg(radius_km: float) -> float:
    """How far in latitude `within_buffer_mask` widens a segment's band:
    radius_km in degrees, plus a relative 1e-9 and 1e-12 degrees."""
    return math.degrees(radius_km * (1.0 + 1e-9) / EARTH_RADIUS_KM) + 1e-12


def _local_xy_arrays(
    lat: np.ndarray, lon: np.ndarray, cos_lat: np.ndarray, p: GeoPoint
) -> tuple[np.ndarray, np.ndarray]:
    """`_local_xy(origin, p)` for every origin (lat[i], lon[i]) at once;
    cos_lat is the cosine of the origins' latitudes."""
    dlon = p.lon - lon
    dlon = np.where(dlon > 180.0, dlon - 360.0, np.where(dlon < -180.0, dlon + 360.0, dlon))
    x = np.radians(dlon) * cos_lat * EARTH_RADIUS_KM
    y = np.radians(p.lat - lat) * EARTH_RADIUS_KM
    return x, y


def _check_coords(lat: float, lon: float, where: str) -> None:
    if not (-90.0 <= lat <= 90.0):
        raise CoordinateOutOfRange(f"{where}: latitude {lat} outside [-90, 90]")
    if not (-180.0 <= lon <= 180.0):
        raise CoordinateOutOfRange(f"{where}: longitude {lon} outside [-180, 180]")


def load_settlements(path: str, fmt: str = "csv") -> SettlementSet:
    """Load settlements from a CSV table or GeoJSON point collection.

    Each row is checked in turn, and the first bad row ends the load with
    its DataError: missing fields, an empty or duplicate id, coordinates
    that are not numbers or out of range, a population that is not a whole
    number or is negative, then an empty region or subregion id. Each
    distinct region or subregion id is held as one str.

    Args:
        path: input file path.
        fmt: "csv" or "geojson".
    """
    if fmt == "csv":
        rows = _read_csv_rows(path, SETTLEMENT_COLUMNS)

        def where(lineno: int) -> str:  # built only for a message
            return f"{path}:{lineno}"
    elif fmt == "geojson":
        rows = _read_settlement_features(path)
        where = str  # each feature comes with its own "path:feature[i]"
    else:
        raise ValueError(f"unknown settlements format {fmt!r}")
    seen: dict[str, int | str] = {}  # id -> the place of its row
    names: dict[str, str] = {}  # region or subregion id -> its one str
    ids, lats, lons, populations, regions, subregions = columns = ([], [], [], [], [], [])
    for place, values in rows:
        raw_id, raw_lat, raw_lon, population, raw_region, raw_subregion = values
        # A short CSV row leaves its last fields None, as does a GeoJSON null.
        # float() and int() reject None, and the ids are text or None.
        if raw_id is None or raw_region is None or raw_subregion is None:
            missing = [k for k, value in zip(SETTLEMENT_COLUMNS, values) if value is None]
            raise ParseError(f"{where(place)}: no value for {', '.join(missing)}")
        sid = raw_id.strip()
        if not sid:
            raise ParseError(f"{where(place)}: empty settlement id")
        if sid in seen:
            raise DuplicateId(
                f"{where(place)}: duplicate settlement id {sid!r} "
                f"(first seen at {where(seen[sid])})"
            )
        seen[sid] = place
        try:
            lat = float(raw_lat)
            lon = float(raw_lon)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{where(place)}: non-numeric coordinate: {exc}") from exc
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
            _check_coords(lat, lon, where(place))
        # int() would truncate a GeoJSON 12.5 or -0.5, read true as 1 and overflow on Infinity.
        if isinstance(population, bool) or (
            isinstance(population, float) and not population.is_integer()
        ):
            raise ParseError(f"{where(place)}: non-integer population: {population!r}")
        try:
            population = int(population)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{where(place)}: non-integer population: {exc}") from exc
        if population < 0:
            raise NegativePopulation(f"{where(place)}: population {population} is negative")
        region_id = raw_region.strip()
        subregion_id = raw_subregion.strip()
        if not region_id or not subregion_id:
            raise ParseError(f"{where(place)}: empty region_id or subregion_id")
        ids.append(sid)
        lats.append(lat)
        lons.append(lon)
        populations.append(population)
        regions.append(names.setdefault(region_id, region_id))
        subregions.append(names.setdefault(subregion_id, subregion_id))
    if not ids:
        raise EmptyCollection(f"{path}: no settlements")
    log.info("loaded %d settlements from %s", len(ids), path)
    return SettlementSet(*columns)


def _open_input(path: str, **kwargs) -> TextIO:
    """`open(path)` for reading UTF-8 text, with or without a byte-order
    mark; DataError when it cannot be opened."""
    try:
        return open(path, encoding="utf-8-sig", **kwargs)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _read_csv_rows(path: str, columns: Sequence[str]) -> Iterator[tuple[int, Sequence[str | None]]]:
    """Yield (N, the fields under `columns`) for each CSV row, N being the
    row's place in messages, as "path:N". Rows are read as `csv.DictReader`
    reads them: blank rows are skipped and not counted in N, a column named
    twice is read from its last occurrence, a short row reads None past its
    end, extra fields are ignored. MissingColumn when the header lacks one
    of `columns`."""
    with _open_input(path, newline="") as fh:
        reader = csv.reader(fh)
        index = {name: i for i, name in enumerate(next(reader, []))}
        missing = [c for c in columns if c not in index]
        if missing:
            raise MissingColumn(f"{path}: missing columns {', '.join(missing)}")
        at = [index[c] for c in columns]
        fields, width = itemgetter(*at), max(at) + 1
        for lineno, row in enumerate(filter(None, reader), start=2):
            if len(row) < width:  # a short row reads None past its end
                row += [None] * (width - len(row))
            yield lineno, fields(row)


def _read_settlement_features(path: str) -> Iterator[tuple[str, tuple]]:
    """Yield (where, `SETTLEMENT_COLUMNS` values) for each GeoJSON Point
    feature; ids that are not null are read as text, as `str` gives them."""
    for where, geom, props in _read_features(path):
        if geom.get("type") != "Point":
            raise ParseError(f"{where}: expected Point geometry, got {geom.get('type')!r}")
        lon, lat = _position(where, geom.get("coordinates"))
        missing = [k for k in ("id", "population", "region_id", "subregion_id") if k not in props]
        if missing:
            raise MissingColumn(f"{where}: missing properties {', '.join(missing)}")
        sid, region, subregion = (
            None if value is None else str(value)
            for value in (props["id"], props["region_id"], props["subregion_id"])
        )
        yield where, (sid, lat, lon, props["population"], region, subregion)


def _read_features(path: str) -> Iterator[tuple[str, dict, dict]]:
    """Yield (where, geometry, properties) for each feature of a GeoJSON
    FeatureCollection; ParseError when the file is not one."""
    with _open_input(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ParseError(f"{path}: not a JSON document: {exc}") from exc
    features = doc.get("features", []) if isinstance(doc, dict) else None
    if not isinstance(features, list):
        raise ParseError(f"{path}: expected a FeatureCollection object with a features list")
    for i, feature in enumerate(features):
        where = f"{path}:feature[{i}]"
        if not isinstance(feature, dict):
            raise ParseError(f"{where}: expected a Feature object, got {feature!r:.80}")
        geom = feature.get("geometry") or {}
        props = feature.get("properties") or {}
        if not isinstance(geom, dict) or not isinstance(props, dict):
            raise ParseError(f"{where}: geometry and properties must be objects")
        yield where, geom, props


def _position(where: str, coords: object) -> tuple[float, float]:
    """(lon, lat) of a GeoJSON position: a list whose first two entries are
    finite numbers (bools are not numbers here)."""
    if not (
        isinstance(coords, list)
        and len(coords) >= 2
        and is_finite_number(coords[0])
        and is_finite_number(coords[1])
    ):
        raise ParseError(
            f"{where}: a position must be [lon, lat] finite numbers, got {coords!r:.80}"
        )
    return float(coords[0]), float(coords[1])


def _iter_polylines(path: str) -> Iterator[tuple[str, object]]:
    """Yield (where, coordinates) for each LineString, flattening MultiLineStrings."""
    for where, geom, _ in _read_features(path):
        gtype = geom.get("type")
        coords = geom.get("coordinates")
        if gtype == "LineString":
            yield where, coords
        elif gtype == "MultiLineString":
            if not isinstance(coords, list):
                raise ParseError(
                    f"{where}: MultiLineString coordinates must be a list, got {coords!r:.80}"
                )
            for j, part in enumerate(coords):
                yield f"{where}[{j}]", part
        else:
            raise ParseError(f"{where}: expected LineString/MultiLineString, got {gtype!r}")


def _parse_polyline(where: str, coords: object) -> tuple[tuple[GeoPoint, ...], list[float]]:
    """A polyline's points and the `haversine_km` length of each segment."""
    if not isinstance(coords, list):
        raise ParseError(f"{where}: coordinates must be a list of positions, got {coords!r:.80}")
    if len(coords) < 2:
        raise DegenerateGeometry(f"{where}: polyline needs at least 2 vertices, got {len(coords)}")
    points = []
    for c in coords:
        lon, lat = _position(where, c)
        _check_coords(lat, lon, where)
        points.append(GeoPoint(lat, lon))
    lengths = [haversine_km(a, b) for a, b in zip(points, points[1:])]
    if math.fsum(lengths) == 0.0:
        raise DegenerateGeometry(f"{where}: polyline has zero length")
    return tuple(points), lengths


def load_fiber_lines(path: str) -> FiberLineSet:
    """Load existing fiber routes from a GeoJSON line collection."""
    lines = [_parse_polyline(where, coords)[0] for where, coords in _iter_polylines(path)]
    if not lines:
        raise EmptyCollection(f"{path}: no line features")
    log.info("loaded %d fiber polylines from %s", len(lines), path)
    return FiberLineSet(lines=tuple(lines))


def load_road_graph(path: str) -> RoadGraph:
    """Load a road network from GeoJSON lines into a weighted graph.

    Consecutive polyline vertices become edges weighted by great-circle
    length. Coincident endpoints across features share a vertex, which is how
    separate road features connect into one network. Positions equal as
    floats (-0.0 and 0.0) coincide, and a segment between two of them is
    skipped. Vertex ids follow first appearance as an endpoint of the other
    segments, and that first endpoint gives the vertex its coordinates.
    """
    vertex_ids: dict[tuple[float, float], int] = {}  # (lat, lon) -> id, in id order
    u, v, w = array("q"), array("q"), array("d")
    for where, coords in _iter_polylines(path):
        line, lengths = _parse_polyline(where, coords)
        for a, b, length in zip(line, line[1:], lengths):
            if a == b:
                continue  # zero-length segment contributes nothing
            if length == 0.0:
                raise DegenerateGeometry(f"{where}: segment from {a} to {b} has zero length")
            u.append(vertex_ids.setdefault((a.lat, a.lon), len(vertex_ids)))
            v.append(vertex_ids.setdefault((b.lat, b.lon), len(vertex_ids)))
            w.append(length)
    if not vertex_ids:  # each line that loads has two distinct positions
        raise EmptyCollection(f"{path}: no line features")
    lat, lon = zip(*vertex_ids)
    roads = RoadGraph(lat, lon, u, v, w)
    log.info(
        "loaded road graph from %s: %d vertices, %d edges", path, roads.n, roads.edge_count
    )
    return roads
