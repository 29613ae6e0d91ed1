"""Graph types for network design and their construction from geodata.

The constructors take settlements as columns: ids plus parallel `lat` and
`lon`, the form `SettlementSet` holds them in. Vertices are dense integer
ids. The graphs a design is built on know each vertex's coordinate
(`point(v)`, the (lat, lon) floats given), so designs can be rendered back
into geographic outputs; which settlement a vertex stands for is the
design's `terminal_vertex` map.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..errors import SolverError
from ..geodata import RoadGraph, haversine_h_array, haversine_km, lat_cosines


class DuplicateCoordinate(SolverError):
    """Two distinct settlements are 0 km apart, or merge onto one road vertex."""


class EmptyNodeSet(SolverError):
    """A design was requested over no nodes."""


class DisconnectedGraph(SolverError):
    """A spanning design was requested on a disconnected graph."""


class RootMissing(SolverError):
    """The requested root vertex is not in the graph."""


class GreatCircleGraph:
    """Complete graph over located vertices that stores only their points:
    weight(u, v) is computed on demand as haversine_km(*point(min), *point(max)).

    `GreatCircleGraph(lat, lon)` copies each point's lat and lon, and keeps
    `lat_cosines(lat)`, the cosines `haversine_km` takes, once as read-only
    float64 arrays, so the graph holds O(n) floats however many pairs it
    has, and `point(v)` returns the given (lat, lon) floats bit for bit.
    `weights` calls `haversine_km` with the lower id's point first. Points
    may coincide, at weight 0.0, and one point is the graph of no pairs.

    `prim_mst` reads the pairs in blocks: `pairs(start, stop)` gives the
    pairs start..stop - 1 of all n (n - 1) / 2 in row order ((0, 1), (0, 2),
    ..., (1, 2), ...), and `pair_keys` numpy keys that order them to within
    `key_margin`.
    """

    # (relative, absolute) margin of `pair_keys`; see there.
    key_margin = (1e-9, 1e-300)

    def __init__(self, lat: Sequence[float], lon: Sequence[float]):
        self.lat = np.array(lat, dtype=np.float64)
        self.lon = np.array(lon, dtype=np.float64)
        self.n = n = len(self.lat)
        self.cos_lat = lat_cosines(self.lat)
        rows = np.arange(n + 1)
        self._row_start = rows * (2 * n - rows - 1) // 2  # index of the pair (u, u + 1)
        for held in (self.lat, self.lon, self.cos_lat, self._row_start):
            held.flags.writeable = False

    def point(self, v: int) -> tuple[float, float]:
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range for {self.n} vertices")
        return self.lat.item(v), self.lon.item(v)

    @property
    def edge_count(self) -> int:
        return self.n * (self.n - 1) // 2

    def weight(self, u: int, v: int) -> float:
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise KeyError((u, v))
        return haversine_km(*self.point(min(u, v)), *self.point(max(u, v)))

    def weights(self, us: Iterable[int], vs: Iterable[int]) -> list[float]:
        """Weight of each pair (us[i], vs[i]), us[i] != vs[i]."""
        lat, lon = self.lat.tolist(), self.lon.tolist()
        out = []
        for u, v in zip(us, vs):
            if u > v:
                u, v = v, u
            out.append(haversine_km(lat[u], lon[u], lat[v], lon[v]))
        return out

    def pairs(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """(u, v) arrays of the pairs start..stop - 1 in row order."""
        row_start = self._row_start
        first, last = row_start.searchsorted((start, stop - 1), side="right") - 1
        rows = np.arange(first, last + 1)
        counts = (self.n - 1) - rows  # pairs per row, less those outside start..stop - 1
        counts[0] -= start - row_start[first]
        counts[-1] -= row_start[last + 1] - stop
        shift = row_start[first : last + 1] - rows - 1  # v = pair index - shift
        v = np.arange(start, stop)
        v -= shift.repeat(counts)
        return rows.repeat(counts), v

    def pair_keys(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """`haversine_h_array`'s h = sin²(dphi / 2) + cos(phi_u) cos(phi_v)
        sin²(dlam / 2) of each pair u < v. A weight is 2R asin(min(1, sqrt(h)))
        of the h that `haversine_km` computes for the pair.

        The margin. Both sides subtract the same coordinates (v's minus
        u's), take radians by the same multiplication by pi / 180, halve
        exactly and multiply by the same cosines, math's, so numpy's h
        differs from `haversine_km`'s only through sin, which numpy may
        compute a few ulps off math's, and the roundings of the squares
        (math's ** 2 is pow, which may round x * x an ulp apart), the
        product and the sum. In the normal range that leaves the two within
        a relative 2^-47 (2 e + 6 u, for e = 2^-49 between the two sines and
        u = 2^-53 per rounding; a sum of two non-negative terms keeps the
        larger relative error), and
        underflowing squares and products add at most a few 2^-1074. So
        with the margin m(x) = 1e-9 x + 1e-300, keys x1 < x2 more than
        m(x1) + m(x2) apart are the h of pairs whose exact h differ by a
        relative 1.9e-9 or more, or by 1.9e-300 from about 0. sqrt keeps
        half of that gap, asin (slope >= 1, asin(s) <= s pi / 2) a third,
        and the roundings of sqrt, asin and the product by 2R, each at most
        an ulp, cannot close it, even where min(1, .) clips, since an exact
        h is at most 1 plus a few ulps. So their weights are strictly in
        the keys' order. The margin is 10^5 times the error it covers, which
        also absorbs the rounding of the test `x2 - x1 > m(x1) + m(x2)`.
        """
        lat, lon, cos_lat = self.lat, self.lon, self.cos_lat
        return haversine_h_array(lat[v] - lat[u], lon[v] - lon[u], cos_lat[u] * cos_lat[v])


class RoadOverlay:
    """A shared road graph plus one design's spurs, built once from columns.

    `RoadOverlay(roads, lat, lon, road_vertex, km)` answers `n`,
    `edge_count`, `edge_arrays()` and `point(v)`, a (lat, lon) pair, for the
    road graph with the spurs added, but stores only what the design adds:
    vertices 0..R-1 are the road vertices, read from the road graph's
    arrays, and spur vertex R + i is at (lat[i], lon[i]), the floats given,
    joined by one edge of km[i] to road vertex road_vertex[i]. The columns
    are copied into read-only arrays; the overlay never changes.
    """

    def __init__(self, roads: RoadGraph, lat: Sequence[float], lon: Sequence[float],
                 road_vertex: Sequence[int], km: Sequence[float]):
        self.roads = roads
        self.spur_lat = np.array(lat, dtype=np.float64)
        self.spur_lon = np.array(lon, dtype=np.float64)
        self.spur_road_vertex = np.array(road_vertex, dtype=np.int64)
        self.spur_km = np.array(km, dtype=np.float64)
        self.n = roads.n + len(self.spur_km)
        for held in (self.spur_lat, self.spur_lon, self.spur_road_vertex, self.spur_km):
            held.flags.writeable = False

    def point(self, v: int) -> tuple[float, float]:
        if 0 <= v < self.roads.n:
            return self.roads.point(v)
        if self.roads.n <= v < self.n:
            return self.spur_lat.item(v - self.roads.n), self.spur_lon.item(v - self.roads.n)
        raise IndexError(f"vertex {v} out of range for {self.n} vertices")

    @property
    def edge_count(self) -> int:
        return self.roads.edge_count + len(self.spur_km)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, v, w) arrays of every edge with u < v: the road graph's edges
        in ascending (u, v) order, then one (road vertex, spur vertex) edge
        per spur, in spur vertex order."""
        ru, rv, rw = self.roads.edge_arrays()
        sv = np.arange(self.roads.n, self.n, dtype=np.int64)
        return (
            np.concatenate([ru, self.spur_road_vertex]),
            np.concatenate([rv, sv]),
            np.concatenate([rw, self.spur_km]),
        )


@dataclass(frozen=True)
class PrizedGraph:
    """A weighted graph with vertex prizes and a designated root.

    The solvers read `graph` only through `n` and `edge_arrays()`, so any
    graph with those two will do; a run passes a `RoadOverlay`. Prizes are
    the opportunity value of connecting a vertex (same unit as edge
    weights). Vertices absent from `prizes` carry prize 0. `terminals`
    marks the vertices that count as demand points; it defaults to the
    positive-prize vertices, but may include zero-prize demand points.

    Prizes must be finite, and their `math.fsum` at most half the largest
    float: every prize sum and dual, and the time of every event, of moat
    growing is at most that total, so no heap key is inf, nor inf - inf.
    """

    graph: RoadOverlay
    prizes: Mapping[int, float]
    root: int
    terminals: frozenset[int] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not (0 <= self.root < self.graph.n):
            raise RootMissing(f"root {self.root} not in graph of {self.graph.n} vertices")
        for v, p in self.prizes.items():
            if not (0 <= v < self.graph.n):
                raise ValueError(f"prized vertex {v} not in graph")
            if not 0.0 <= p < math.inf:
                raise ValueError(f"prize must be finite and >= 0, got {p} at vertex {v}")
        try:
            total = math.fsum(self.prizes.values())
        except OverflowError:  # the exact sum is past the largest float
            total = math.inf
        if total > sys.float_info.max / 2:
            raise ValueError(f"prizes sum to {total:.6g}, over half the largest float")
        prized_vertices = frozenset(v for v, p in self.prizes.items() if p > 0.0)
        if self.terminals is None:
            object.__setattr__(self, "terminals", prized_vertices)
        else:
            for v in self.terminals:
                if not (0 <= v < self.graph.n):
                    raise ValueError(f"terminal {v} not in graph")
            if not prized_vertices <= self.terminals:
                raise ValueError("every positive-prize vertex must be a terminal")

    def prize(self, v: int) -> float:
        return self.prizes.get(v, 0.0)


@dataclass(frozen=True)
class NetworkDesign:
    """Result of a design solve over a weighted graph."""

    algorithm: str  # "MST" | "PCST_GW"
    edges: tuple[tuple[int, int, float], ...]  # normalized u < v, sorted
    connected_vertices: frozenset[int]
    excluded_terminals: frozenset[int]
    total_length_km: float
    total_penalty: float
    terminal_node_count: int
    # Goemans-Williamson dual value, a lower bound on the optimal objective
    # (PCST_GW only). Observability, not part of the design: excluded from
    # equality and never written to any report.
    dual_bound: float | None = field(default=None, compare=False)

    @property
    def objective(self) -> float:
        """Edge length plus foregone prizes (what the solvers minimize)."""
        return self.total_length_km + self.total_penalty


def build_euclidean_graph(
    ids: Sequence[str], lat: Sequence[float], lon: Sequence[float]
) -> GreatCircleGraph:
    """Complete graph over settlements (ids[i] at lat[i], lon[i]), weighted
    by great-circle distance; one settlement gives the one-vertex graph.

    Settlements may share a coordinate here: an MST design rejects any two
    whose tree edge is 0 km, which every shared coordinate gives.
    """
    if not len(ids):
        raise EmptyNodeSet("no settlements to build a graph over")
    return GreatCircleGraph(lat, lon)


@dataclass(frozen=True)
class RoadAttachment:
    """Road graph augmented with settlement terminals.

    terminal_vertex maps settlement id to its vertex, one to one. Settlements farther
    than the snap radius from every road vertex are still attached (a spur to
    the nearest vertex) but are listed in `beyond_snap` for reporting.
    """

    graph: RoadOverlay
    terminal_vertex: dict[str, int]
    beyond_snap: tuple[tuple[str, float], ...]


def attach_terminals_to_roads(
    ids: Sequence[str],
    lat: Sequence[float],
    lon: Sequence[float],
    roads: RoadGraph,
    snap_radius_km: float,
) -> RoadAttachment:
    """Embed settlements (ids[i] at lat[i], lon[i]) into the road graph as
    terminal vertices.

    A settlement coincident with a road vertex merges onto it; otherwise it
    becomes a new vertex with a spur edge to the nearest road vertex
    (nearest by distance, ties to the lowest vertex id). The road graph is
    shared, not copied: the result is an overlay holding only the spurs.

    Raises:
        DuplicateCoordinate: two settlements merge onto one road vertex.
    """
    if not len(ids):
        raise EmptyNodeSet("no settlements to attach")
    if not (math.isfinite(snap_radius_km) and snap_radius_km >= 0):
        raise ValueError(f"snap_radius_km must be a finite number >= 0, got {snap_radius_km}")
    if not roads.n:
        raise EmptyNodeSet("road graph has no vertices to attach to")
    terminal_vertex: dict[str, int] = {}
    merged: dict[int, str] = {}  # road vertex -> the settlement merged onto it
    beyond: list[tuple[str, float]] = []
    spur_lat, spur_lon, spur_road_vertex, spur_km = [], [], [], []  # one entry per spur
    lat = np.asarray(lat, dtype=np.float64)
    lon = np.asarray(lon, dtype=np.float64)
    nearest = roads.nearest_vertices(lat, lon)
    for sid, s_lat, s_lon, (best_v, best_d) in zip(ids, lat.tolist(), lon.tolist(), nearest):
        if sid in terminal_vertex:
            raise ValueError(f"duplicate settlement id {sid!r}")
        if best_d == 0.0:
            if best_v in merged:
                raise DuplicateCoordinate(
                    f"settlements {merged[best_v]!r} and {sid!r} are both at road vertex "
                    f"{best_v} (lat={s_lat!r}, lon={s_lon!r})"
                )
            merged[best_v] = sid
            terminal_vertex[sid] = best_v
            continue
        terminal_vertex[sid] = roads.n + len(spur_km)
        spur_lat.append(s_lat)
        spur_lon.append(s_lon)
        spur_road_vertex.append(best_v)
        spur_km.append(best_d)
        if best_d > snap_radius_km:
            beyond.append((sid, best_d))
    return RoadAttachment(
        graph=RoadOverlay(roads, spur_lat, spur_lon, spur_road_vertex, spur_km),
        terminal_vertex=terminal_vertex,
        beyond_snap=tuple(beyond),
    )
