"""Geospatial inputs: settlements, existing fiber routes, road networks.

A point is two floats, (lat, lon) in WGS84 degrees: separate arguments to
the geometry functions, float64 columns or (lat, lon) pairs in containers.
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
from typing import Iterator, Sequence, TextIO

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


class SettlementSet:
    """Validated settlements held once as columns, one row per settlement in
    input order.

    `SettlementSet(ids, lat, lon, population, region_id, subregion_id)`
    copies one column per field: `ids`, `region_id` and `subregion_id` as
    tuples of str, `lat` and `lon` as read-only float64 arrays holding the
    given floats bit for bit, and `population` as a tuple of exact Python
    ints (a population may exceed any fixed-width integer). `row` maps each
    id to its row. The design layer takes ids and a fancy index of `lat`
    and `lon`, so no per-settlement object is built in a run.
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

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class FiberLineSet:
    """Existing long-haul fiber routes as polylines of (lat, lon) pairs."""

    lines: tuple[tuple[tuple[float, float], ...], ...]


# Points that `RoadGraph.nearest_vertices` measures at once: a block of
# points x a window of vertices is a few float64 arrays of 128 x 640 on a
# 100k-vertex graph.
_NEAREST_BLOCK = 128


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
    bit for bit as a (lat, lon) pair. The graph never changes after it is
    built, and every array is read-only: one road graph is shared by every
    design of a run, and a solve derives what it indexes from
    `edge_arrays()`. Every nearest-point search goes through
    `nearest_vertices`, one pass per set of points; a graph without edges
    is a point set for it.
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

    def point(self, v: int) -> tuple[float, float]:
        return self.lat.item(v), self.lon.item(v)

    @property
    def vertices(self) -> tuple[tuple[float, float], ...]:
        """Every vertex's (lat, lon) in id order, built on each access (the
        benchmark's traced run counts them); read one with `point(v)`."""
        return tuple(zip(self.lat.tolist(), self.lon.tolist()))

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

    def nearest_vertices(
        self, lat: Sequence[float], lon: Sequence[float]
    ) -> list[tuple[int, float]]:
        """(nearest vertex, its `haversine_km` distance) of each point
        p = (lat[i], lon[i]), in point order; ties go to the lowest id.

        A vertex is at least R * |dphi| from p (the haversine adds a
        non-negative longitude term to sin^2(dphi / 2)), so only a latitude
        window around p can hold the nearest one. Each point's window is the
        W = min(n, 2 * max(16, sqrt(n))) vertices next to p in latitude
        order, a fixed-width slice of the latitude order that is moved
        inside the graph at either end, and the points are measured against
        their windows `_NEAREST_BLOCK` at a time by one `haversine_h_array`
        pass. A window's best numpy distance d bounds the nearest distance.
        Every vertex with R * |dphi| <= d * (1 + 1e-6), plus 1e-12 degrees,
        must be looked at: the relative margin covers the rounding of the
        distances, and the absolute one the rounding of lat +- the reach and
        the latitude differences whose sine underflows. A point whose window
        misses some of them is measured again over all of them. The
        vectorised pass short-lists the vertices within a 1e-9 relative
        margin of its minimum (numpy's sin, cos and asin may differ from
        math's in the last bits, far inside that margin); any further vertex
        a window holds is farther than that reach, so it is not short-listed
        either. `haversine_km` then scans each short-list in id order with
        the same strict `<` as a full scan, so each result is bit-for-bit
        that of a full scan. No points give []; points on a graph with no
        vertices raise ValueError, as none of them has a nearest vertex.
        """
        if not self.n and len(lat):
            raise ValueError("road graph has no vertices")
        lat = np.asarray(lat, dtype=np.float64)
        lon = np.asarray(lon, dtype=np.float64)
        n, by_lat, sorted_lat = self.n, self._by_lat, self._sorted_lat
        width = min(n, 2 * max(16, math.isqrt(n)))
        steps = np.arange(width)
        found = [(-1, math.inf)] * len(lat)
        for start in range(0, len(lat), _NEAREST_BLOCK):
            plat = lat[start : start + _NEAREST_BLOCK]
            plon = lon[start : start + _NEAREST_BLOCK]
            first = np.searchsorted(sorted_lat, plat) - width // 2
            np.clip(first, 0, n - width, out=first)
            window = by_lat[first[:, None] + steps]  # vertex ids, one row per point
            d = haversine_h_array(
                self.lat[window] - plat[:, None],
                self.lon[window] - plon[:, None],
                np.cos(np.radians(plat))[:, None] * self.cos_lat[window],
            )
            np.minimum(d, 1.0, out=d)
            np.sqrt(d, out=d)
            np.arcsin(d, out=d)
            d *= 2.0 * EARTH_RADIUS_KM
            nearest = d.min(axis=1)
            reach = np.degrees(nearest * (1.0 + 1e-6) / EARTH_RADIUS_KM) + 1e-12
            wide_lo = np.searchsorted(sorted_lat, plat - reach, side="left")
            wide_hi = np.searchsorted(sorted_lat, plat + reach, side="right")
            short = d <= (nearest * (1.0 + 1e-9))[:, None]
            widen = (wide_lo < first) | (wide_hi > first + width)
            short[widen] = False
            rows, cols = short.nonzero()
            shortlist = list(zip(rows.tolist(), window[rows, cols].tolist()))
            for row in widen.nonzero()[0].tolist():
                ids = by_lat[wide_lo[row] : wide_hi[row]]
                p = plat.item(row), plon.item(row)
                dw = haversine_km_array(*p, self.lat[ids], self.lon[ids], self.cos_lat[ids])
                shortlist += [(row, vid) for vid in ids[dw <= dw.min() * (1.0 + 1e-9)].tolist()]
            shortlist.sort()  # by point, then id
            plat, plon = plat.tolist(), plon.tolist()
            for row, vid in shortlist:
                dist = haversine_km(plat[row], plon[row], *self.point(vid))
                if dist < found[start + row][1]:
                    found[start + row] = vid, dist
        return found


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


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two points in kilometres."""
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def haversine_km_array(
    plat: float, plon: float, lat: np.ndarray, lon: np.ndarray, cos_lat: np.ndarray
) -> np.ndarray:
    """`haversine_km(plat, plon, lat[i], lon[i])` for every i at once;
    cos_lat is the cosine of lat in radians.

    numpy's sin and arcsin may differ from math's in the last bits, so a
    caller that needs the exact float short-lists with a margin and
    confirms with `haversine_km`.
    """
    h = haversine_h_array(lat - plat, lon - plon, math.cos(math.radians(plat)) * cos_lat)
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.minimum(1.0, h)))


def haversine_h_array(
    dlat: np.ndarray, dlon: np.ndarray, cos_product: np.ndarray
) -> np.ndarray:
    """The haversine h = sin²(radians(dlat) / 2) + cos_product sin²(radians(dlon) / 2)
    of coordinate differences in degrees (second point minus first), by
    numpy, with `haversine_km`'s operations in its order; cos_product is
    the product of the two points' latitude cosines. Works in place on the
    caller's float64 temporaries dlat and dlon, and returns dlat.
    """
    for d in (dlat, dlon):
        np.radians(d, out=d)
        d /= 2.0
        np.sin(d, out=d)
        np.square(d, out=d)
    dlon *= cos_product
    dlat += dlon
    return dlat


def lat_cosines(lat: np.ndarray) -> np.ndarray:
    """math's cos(radians(x)) of each latitude x of a float64 array: the
    cosines `haversine_km` takes."""
    return np.array([math.cos(math.radians(x)) for x in lat.tolist()], dtype=np.float64)


def _local_xy(olat: float, olon: float, plat: float, plon: float) -> tuple[float, float]:
    """Project p onto a tangent plane centered at o (km east, km north)."""
    dlon = plon - olon
    # Wrap so a segment crossing the antimeridian projects near the origin.
    if dlon > 180.0:
        dlon -= 360.0
    elif dlon < -180.0:
        dlon += 360.0
    x = math.radians(dlon) * math.cos(math.radians(olat)) * EARTH_RADIUS_KM
    y = math.radians(plat - olat) * EARTH_RADIUS_KM
    return x, y


def point_segment_km(
    plat: float, plon: float, alat: float, alon: float, blat: float, blon: float
) -> float:
    """Distance from p = (plat, plon) to the segment a-b in kilometres."""
    ax, ay = _local_xy(plat, plon, alat, alon)
    bx, by = _local_xy(plat, plon, blat, blon)
    dx, dy = bx - ax, by - ay
    seg_sq = dx * dx + dy * dy
    if seg_sq == 0.0:
        return math.hypot(ax, ay)
    # p is the origin of the local frame; project it onto the segment.
    t = -(ax * dx + ay * dy) / seg_sq
    t = max(0.0, min(1.0, t))
    return math.hypot(ax + t * dx, ay + t * dy)


def within_buffer(lat: float, lon: float, lines: FiberLineSet, radius_km: float) -> bool:
    """True when (lat, lon) lies within radius_km of any polyline (the
    one-point case of `within_buffer_mask`)."""
    return bool(within_buffer_mask((lat,), (lon,), lines, radius_km)[0])


def within_buffer_mask(
    lat: Sequence[float], lon: Sequence[float], lines: FiberLineSet, radius_km: float
) -> np.ndarray:
    """Whether each point p = (lat[i], lon[i]) lies within radius_km of any
    polyline, as a bool array: p is inside when
    `point_segment_km(*p, *a, *b) <= radius_km` for some segment a-b.

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
        for (alat, alon), (blat, blon) in zip(line, line[1:]):
            lo = int(np.searchsorted(sorted_lat, min(alat, blat) - reach, side="left"))
            hi = int(np.searchsorted(sorted_lat, max(alat, blat) + reach, side="right"))
            ids = by_lat[lo:hi]
            ids = ids[~inside[ids]]
            if not len(ids):
                continue
            band = (lat[ids], lon[ids], cos_lat[ids])
            ax, ay = _local_xy_arrays(*band, alat, alon)
            bx, by = _local_xy_arrays(*band, blat, blon)
            dx, dy = bx - ax, by - ay
            seg_sq = dx * dx + dy * dy
            t = -(ax * dx + ay * dy) / np.where(seg_sq == 0.0, 1.0, seg_sq)
            t = np.maximum(0.0, np.minimum(1.0, t))
            d = np.hypot(ax + t * dx, ay + t * dy)
            margin = 1e-9 * (np.abs(ax) + np.abs(ay) + np.abs(bx) + np.abs(by) + radius_km)
            hit = d <= radius_km - margin
            inside[ids[hit]] = True
            for i in ids[(np.abs(d - radius_km) <= margin) & ~hit].tolist():
                dist = point_segment_km(lat.item(i), lon.item(i), alat, alon, blat, blon)
                inside[i] = dist <= radius_km
    return inside


def _band_reach_deg(radius_km: float) -> float:
    """How far in latitude `within_buffer_mask` widens a segment's band:
    radius_km in degrees, plus a relative 1e-9 and 1e-12 degrees."""
    return math.degrees(radius_km * (1.0 + 1e-9) / EARTH_RADIUS_KM) + 1e-12


def _local_xy_arrays(
    lat: np.ndarray, lon: np.ndarray, cos_lat: np.ndarray, plat: float, plon: float
) -> tuple[np.ndarray, np.ndarray]:
    """`_local_xy(lat[i], lon[i], plat, plon)` for every origin i at once;
    cos_lat is the cosine of the origins' latitudes."""
    dlon = plon - lon
    dlon = np.where(dlon > 180.0, dlon - 360.0, np.where(dlon < -180.0, dlon + 360.0, dlon))
    x = np.radians(dlon) * cos_lat * EARTH_RADIUS_KM
    y = np.radians(plat - lat) * EARTH_RADIUS_KM
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


def _parse_polyline(
    where: str, coords: object
) -> tuple[tuple[tuple[float, float], ...], list[float]]:
    """A polyline's (lat, lon) points and the `haversine_km` length of each segment."""
    if not isinstance(coords, list):
        raise ParseError(f"{where}: coordinates must be a list of positions, got {coords!r:.80}")
    if len(coords) < 2:
        raise DegenerateGeometry(f"{where}: polyline needs at least 2 vertices, got {len(coords)}")
    points = []
    for c in coords:
        lon, lat = _position(where, c)
        _check_coords(lat, lon, where)
        points.append((lat, lon))
    lengths = [haversine_km(*a, *b) for a, b in zip(points, points[1:])]
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
                segment = "segment from (lat=%r, lon=%r) to (lat=%r, lon=%r)" % (*a, *b)
                raise DegenerateGeometry(f"{where}: {segment} has zero length")
            u.append(vertex_ids.setdefault(a, len(vertex_ids)))
            v.append(vertex_ids.setdefault(b, len(vertex_ids)))
            w.append(length)
    if not vertex_ids:  # each line that loads has two distinct positions
        raise EmptyCollection(f"{path}: no line features")
    lat, lon = zip(*vertex_ids)
    roads = RoadGraph(lat, lon, u, v, w)
    log.info(
        "loaded road graph from %s: %d vertices, %d edges", path, roads.n, roads.edge_count
    )
    return roads
