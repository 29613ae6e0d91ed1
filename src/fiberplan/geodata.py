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
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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


@dataclass(frozen=True)
class SettlementSet:
    """Validated settlements with id-unique lookup."""

    settlements: tuple[Settlement, ...]

    def __len__(self) -> int:
        return len(self.settlements)

    def __iter__(self) -> Iterator[Settlement]:
        return iter(self.settlements)

    def by_id(self, settlement_id: str) -> Settlement:
        return self._index()[settlement_id]

    def _index(self) -> dict[str, Settlement]:
        # Built lazily; the set is frozen so the cache cannot go stale.
        cache = getattr(self, "_by_id", None)
        if cache is None:
            cache = {s.id: s for s in self.settlements}
            object.__setattr__(self, "_by_id", cache)
        return cache


@dataclass(frozen=True)
class FiberLineSet:
    """Existing long-haul fiber routes as polylines."""

    lines: tuple[tuple[GeoPoint, ...], ...]


@dataclass(frozen=True)
class RoadGraph:
    """Road network as vertices plus undirected weighted edges.

    Vertices are deduplicated by exact coordinate equality; edge weights are
    great-circle segment lengths in km. Edges are stored with u < v.
    """

    vertices: tuple[GeoPoint, ...]
    edges: tuple[tuple[int, int, float], ...]

    def arrays(self) -> RoadArrays:
        """The graph as frozen arrays, built on first use and then shared."""
        # Built lazily; the graph is frozen so the cache cannot go stale.
        cache = getattr(self, "_arrays", None)
        if cache is None:
            cache = RoadArrays.build(self)
            object.__setattr__(self, "_arrays", cache)
        return cache

    def nearest_vertex(self, p: GeoPoint) -> tuple[int, float]:
        """Nearest vertex to p and its `haversine_km` distance; ties go to
        the lowest id.

        One vectorised pass short-lists the vertices within a 1e-9 relative
        margin of the minimum (numpy's sin and asin may differ from math's
        in the last bits, far inside that margin). `haversine_km` then
        scans the short-list in id order with the same strict `<` as a full
        scan, so the result is bit-for-bit that of a full scan.
        """
        arrays = self.arrays()
        dphi = np.radians(arrays.lat - p.lat)
        dlam = np.radians(arrays.lon - p.lon)
        cos_lat = math.cos(math.radians(p.lat))
        h = np.sin(dphi / 2.0) ** 2 + cos_lat * arrays.cos_lat * np.sin(dlam / 2.0) ** 2
        d = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.minimum(1.0, h)))
        limit = float(d.min()) * (1.0 + 1e-9)
        best_v, best_d = -1, math.inf
        for vid in np.flatnonzero(d <= limit).tolist():
            dist = haversine_km(p, self.vertices[vid])
            if dist < best_d:
                best_v, best_d = vid, dist
        return best_v, best_d


@dataclass(frozen=True)
class RoadArrays:
    """Array form of a RoadGraph: symmetric CSR adjacency plus coordinates.

    Row u of the CSR lists u's neighbours in ascending id order; parallel
    edges keep their smallest weight. Coordinates stay in degrees, so a
    coordinate difference rounds exactly as it does in `haversine_km`.
    """

    indptr: np.ndarray  # int64, n + 1
    indices: np.ndarray  # int64, 2 x edge count
    weights: np.ndarray  # float64, 2 x edge count
    lat: np.ndarray  # float64 degrees, n
    lon: np.ndarray  # float64 degrees, n
    cos_lat: np.ndarray  # cos of the latitude, n

    @classmethod
    def build(cls, roads: RoadGraph) -> RoadArrays:
        n = len(roads.vertices)
        raw = np.array(roads.edges, dtype=np.float64).reshape(-1, 3)
        a, b, w = raw[:, 0].astype(np.int64), raw[:, 1].astype(np.int64), raw[:, 2]
        if np.any(a == b):
            raise ValueError(f"self-loop at road vertex {int(a[a == b][0])}")
        if raw.size and (min(a.min(), b.min()) < 0 or max(a.max(), b.max()) >= n):
            raise ValueError(f"road edge out of range for {n} vertices")
        if np.any(~(w > 0.0)):
            raise ValueError("road edge weights must be positive")
        rows = np.concatenate([a, b])
        cols = np.concatenate([b, a])
        weights = np.concatenate([w, w])
        order = np.lexsort((weights, cols, rows))
        rows, cols, weights = rows[order], cols[order], weights[order]
        first = np.ones(len(rows), dtype=bool)  # lightest of each parallel group
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        rows, cols, weights = rows[first], cols[first], weights[first]
        lat = np.array([p.lat for p in roads.vertices], dtype=np.float64)
        lon = np.array([p.lon for p in roads.vertices], dtype=np.float64)
        indptr = np.searchsorted(rows, np.arange(n + 1))
        arrays = (indptr, cols, weights, lat, lon, np.cos(np.radians(lat)))
        for array in arrays:
            array.flags.writeable = False  # shared by every design of the run
        return cls(*arrays)

    def upper_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, v, w) of every edge with u < v, in ascending (u, v) order."""
        rows = np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr))
        upper = self.indices > rows
        return rows[upper], self.indices[upper], self.weights[upper]

    def weight(self, u: int, v: int) -> float:
        """Weight of road edge (u, v); KeyError when there is none."""
        lo, hi = self.indptr[u], self.indptr[u + 1]
        i = lo + int(np.searchsorted(self.indices[lo:hi], v))
        if i == hi or self.indices[i] != v:
            raise KeyError((u, v))
        return float(self.weights[i])


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points in kilometres."""
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlam = math.radians(b.lon - a.lon)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


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


def polyline_length_km(points: Sequence[GeoPoint]) -> float:
    return math.fsum(haversine_km(a, b) for a, b in zip(points, points[1:]))


def within_buffer(point: GeoPoint, lines: FiberLineSet, radius_km: float) -> bool:
    """True when the point lies within radius_km of any polyline (the
    one-point case of `within_buffer_mask`)."""
    return bool(within_buffer_mask((point,), lines, radius_km)[0])


def within_buffer_mask(
    points: Sequence[GeoPoint], lines: FiberLineSet, radius_km: float
) -> np.ndarray:
    """Whether each point lies within radius_km of any polyline, as a bool
    array: point i is inside when `point_segment_km(points[i], a, b) <=
    radius_km` for some segment a-b.

    Each segment is measured against all points at once, with the float
    expressions of `_local_xy` and `point_segment_km` in the same order
    (a zero-length segment divides by 1 instead, which leaves t = 0 and the
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
    lat = np.array([p.lat for p in points], dtype=np.float64)
    lon = np.array([p.lon for p in points], dtype=np.float64)
    cos_lat = np.cos(np.radians(lat))
    inside = np.zeros(len(lat), dtype=bool)
    for line in lines.lines:
        bx, by = _local_xy_arrays(lat, lon, cos_lat, line[0])
        for a, b in zip(line, line[1:]):
            ax, ay = bx, by
            bx, by = _local_xy_arrays(lat, lon, cos_lat, b)
            dx, dy = bx - ax, by - ay
            seg_sq = dx * dx + dy * dy
            t = -(ax * dx + ay * dy) / np.where(seg_sq == 0.0, 1.0, seg_sq)
            t = np.maximum(0.0, np.minimum(1.0, t))
            d = np.hypot(ax + t * dx, ay + t * dy)
            margin = 1e-9 * (np.abs(ax) + np.abs(ay) + np.abs(bx) + np.abs(by) + radius_km)
            inside |= d <= radius_km - margin
            for i in np.flatnonzero((np.abs(d - radius_km) <= margin) & ~inside).tolist():
                inside[i] = point_segment_km(points[i], a, b) <= radius_km
    return inside


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


def _build_settlement(
    raw: dict[str, str | float | int], where: str, seen: dict[str, str]
) -> Settlement:
    sid = str(raw["id"]).strip()
    if not sid:
        raise ParseError(f"{where}: empty settlement id")
    if sid in seen:
        raise DuplicateId(f"{where}: duplicate settlement id {sid!r} (first seen at {seen[sid]})")
    seen[sid] = where
    try:
        lat = float(raw["lat"])
        lon = float(raw["lon"])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: non-numeric coordinate: {exc}") from exc
    _check_coords(lat, lon, where)
    try:
        population = int(raw["population"])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: non-integer population: {exc}") from exc
    if population < 0:
        raise NegativePopulation(f"{where}: population {population} is negative")
    region_id = str(raw["region_id"]).strip()
    subregion_id = str(raw["subregion_id"]).strip()
    if not region_id or not subregion_id:
        raise ParseError(f"{where}: empty region_id or subregion_id")
    return Settlement(
        id=sid,
        location=GeoPoint(lat, lon),
        population=population,
        region_id=region_id,
        subregion_id=subregion_id,
    )


def load_settlements(path: str, fmt: str = "csv") -> SettlementSet:
    """Load settlements from a CSV table or GeoJSON point collection.

    Args:
        path: input file path.
        fmt: "csv" or "geojson".
    """
    if fmt == "csv":
        settlements = _load_settlements_csv(path)
    elif fmt == "geojson":
        settlements = _load_settlements_geojson(path)
    else:
        raise ValueError(f"unknown settlements format {fmt!r}")
    log.info("loaded %d settlements from %s", len(settlements), path)
    return SettlementSet(settlements=tuple(settlements))


def _load_settlements_csv(path: str) -> list[Settlement]:
    out: list[Settlement] = []
    seen: dict[str, str] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in SETTLEMENT_COLUMNS if c not in header]
        if missing:
            raise MissingColumn(f"{path}: missing columns {', '.join(missing)}")
        for lineno, row in enumerate(reader, start=2):
            out.append(_build_settlement(row, f"{path}:{lineno}", seen))
    return out


def _load_settlements_geojson(path: str) -> list[Settlement]:
    out: list[Settlement] = []
    seen: dict[str, str] = {}
    for where, geom, props in _read_features(path):
        if geom.get("type") != "Point":
            raise ParseError(f"{where}: expected Point geometry, got {geom.get('type')!r}")
        lon, lat = _position(where, geom.get("coordinates"))
        missing = [k for k in ("id", "population", "region_id", "subregion_id") if k not in props]
        if missing:
            raise MissingColumn(f"{where}: missing properties {', '.join(missing)}")
        raw = {"lat": lat, "lon": lon, **{k: props[k] for k in ("id", "population", "region_id", "subregion_id")}}
        out.append(_build_settlement(raw, where, seen))
    return out


def _read_features(path: str) -> Iterator[tuple[str, dict, dict]]:
    """Yield (where, geometry, properties) for each feature of a GeoJSON
    FeatureCollection; ParseError when the file is not one."""
    with open(path, encoding="utf-8") as fh:
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


def write_settlements_csv(settlements: SettlementSet, path: str) -> None:
    """Serialize settlements in canonical CSV form (round-trips exactly)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SETTLEMENT_COLUMNS)
        for s in settlements:
            writer.writerow(
                [s.id, repr(s.location.lat), repr(s.location.lon), s.population, s.region_id, s.subregion_id]
            )


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


def _parse_polyline(where: str, coords: object) -> tuple[GeoPoint, ...]:
    if not isinstance(coords, list):
        raise ParseError(f"{where}: coordinates must be a list of positions, got {coords!r:.80}")
    if len(coords) < 2:
        raise DegenerateGeometry(f"{where}: polyline needs at least 2 vertices, got {len(coords)}")
    points = []
    for c in coords:
        lon, lat = _position(where, c)
        _check_coords(lat, lon, where)
        points.append(GeoPoint(lat, lon))
    line = tuple(points)
    if polyline_length_km(line) == 0.0:
        raise DegenerateGeometry(f"{where}: polyline has zero length")
    return line


def load_fiber_lines(path: str) -> FiberLineSet:
    """Load existing fiber routes from a GeoJSON line collection."""
    lines = [_parse_polyline(where, coords) for where, coords in _iter_polylines(path)]
    if not lines:
        raise EmptyCollection(f"{path}: no line features")
    log.info("loaded %d fiber polylines from %s", len(lines), path)
    return FiberLineSet(lines=tuple(lines))


def load_road_graph(path: str) -> RoadGraph:
    """Load a road network from GeoJSON lines into a weighted graph.

    Consecutive polyline vertices become edges weighted by great-circle
    length. Coincident endpoints across features share a vertex, which is how
    separate road features connect into one network.
    """
    vertex_ids: dict[GeoPoint, int] = {}
    vertices: list[GeoPoint] = []
    edge_weights: dict[tuple[int, int], float] = {}
    n_lines = 0
    for where, coords in _iter_polylines(path):
        line = _parse_polyline(where, coords)
        n_lines += 1
        for a, b in zip(line, line[1:]):
            if a == b:
                continue  # zero-length segment contributes nothing
            for p in (a, b):
                if p not in vertex_ids:
                    vertex_ids[p] = len(vertices)
                    vertices.append(p)
            u, v = vertex_ids[a], vertex_ids[b]
            if u > v:
                u, v = v, u
            w = haversine_km(a, b)
            prev = edge_weights.get((u, v))
            if prev is None or w < prev:
                edge_weights[(u, v)] = w
    if n_lines == 0:
        raise EmptyCollection(f"{path}: no line features")
    edges = tuple((u, v, w) for (u, v), w in sorted(edge_weights.items()))
    log.info(
        "loaded road graph from %s: %d vertices, %d edges", path, len(vertices), len(edges)
    )
    return RoadGraph(vertices=tuple(vertices), edges=edges)
