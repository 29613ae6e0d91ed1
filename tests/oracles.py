"""Independent reference implementations and generators used by the tests.

`WeightedGraph` is a sparse graph built edge by edge, the test graph that
both solvers accept: `prim_mst` reads its edges as its pairs, with their
exact weights as keys, `pcst_gw` its `edge_arrays`. `pcst_exact` is the
optimal prize-collecting Steiner tree by subset enumeration (at most
`EXACT_PCST_MAX_VERTICES` vertices, else `InstanceTooLarge`), the oracle
of the GW sandwich and dual-bound tests; it reads every graph through
`edge_arrays()`, as the oracles below do.
The Kruskal MST here is written against raw edge lists (no shared code with
the package solvers) so the two routes to a spanning tree stay independent.
`pcst_gw_reference` is the scalar moat-growing loop that the vectorised
`pcst_gw` replaced, kept as the reference it must match design for design.
It prunes with `strong_prune_reference`, the pruning that returned its
tree's edges as well as its sites, and keeps that tree when it has at most
two sites (`_reconnect_minimally_reference`), where `pcst_gw` prunes to the
sites alone and always routes them by the induced MST. From the package
solvers it takes only the result builders `_prized_design` and
`_sorted_edges`, so it runs none of the three steps it checks.
`grow_moats_dense_reference` is the all-edges array loop that the
event-driven `_grow_moats` replaced (by way of a frontier-only array loop);
their forests and dual increments must be equal bit for bit.
`nearest_vertex_reference` is the full scan that the latitude windows of
`RoadGraph.nearest_vertices` replaced, through which every nearest-point
search goes; like every oracle here, it reads a road vertex through
`point(v)`, the (lat, lon) pair of the graph's arrays, never through the
whole `vertices` tuple; `road_graph` builds a road graph from `GeoPoint`s
and edge tuples. `GeoPoint` is a (lat, lon) named tuple,
the point object that the package's geometry took before it took two
floats; it lives here, as no run builds one. It equals the plain pair that
`point(v)` returns, and `haversine_km(*a, *b)` measures two of them, so
the oracles keep their object signatures and are the identity tests of
the float API.
`prim_mst_reference` is the heap Prim that the dense Prim and then the
filter-Kruskal `prim_mst` replaced,
and `euclidean_graph_reference` the complete graph it ran on, with every
edge stored; MST designs must match them edge for edge.
`build_report_reference` and `monte_carlo_reference` are the unit-by-unit,
draw-by-draw pricing that the report's vectorized kernel replaced; the
kernel must match them field for field. `draw_parameters_reference` builds
a fresh `Generator(Philox(key=(seed mod 2**64, draw index)))` for each
draw and samples with numpy's own distribution methods; `draw_table`,
which computes the same Philox words in numpy and the values from them,
must draw the same values. `within_buffer_reference` is the
per-segment scalar buffer test that `within_buffer_mask` replaced; the mask
must match it point for point. `load_settlements_reference` is the loader
that `load_settlements` replaced, one `Settlement` and `GeoPoint` per row,
and `classify_nodes_reference` the classify that grouped those objects in
dicts of lists; the columnar set must hold the same settlements, raise the
same first error, and give the same roles. `Settlement` and the object
views of a set (`settlement_set`, `location`, `settlements_of`,
`settlement_by_id`) live here, as no run builds them; `node_columns` turns settlements into
the (ids, lat, lon) columns that a design takes.
`pick_backbone_root_reference` is the scalar core x regional-node scan
that classify's root pick replaces by one `RoadGraph.nearest_vertices`
pass over the regional nodes on an edgeless graph of the core settlements, and
`design_geojson_reference` the dict document and
`json.dumps` that the text-built design GeoJSON replaced, with each vertex
placed from the settlements and the road graph rather than the design's
own graph; the root pick and the written bytes must equal theirs.
`single_node_design_reference` is the solver-free result that a
one-settlement design took before every design ran its solver;
`design_network` must give the same design and GeoJSON.
"""

from __future__ import annotations

import csv
import dataclasses
import heapq
import json
import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from fiberplan.costmodel import CostBook, tco_quantities
from fiberplan.errors import SolverError
from fiberplan.geodata import (
    EARTH_RADIUS_KM,
    SETTLEMENT_COLUMNS,
    CoordinateOutOfRange,
    DuplicateId,
    EmptyCollection,
    FiberLineSet,
    MissingColumn,
    NegativePopulation,
    ParseError,
    RoadGraph,
    SettlementSet,
    _open_input,
    _position,
    _read_features,
    haversine_km,
    point_segment_km,
)
from fiberplan.lca import EmissionFactorBook, emissions_quantities
from fiberplan.netdesign.classify import ClassificationResult
from fiberplan.netdesign.design import ALGORITHMS, DesignResult
from fiberplan.netdesign.graphs import (
    DisconnectedGraph,
    EmptyNodeSet,
    GreatCircleGraph,
    NetworkDesign,
    PrizedGraph,
    RootMissing,
)
from fiberplan.netdesign.solvers import _prized_design, _sorted_edges
from fiberplan.report import (
    MC_METRICS,
    DecileReportRow,
    McConfig,
    McSummaryRow,
    ReportUnit,
    resolve_parameter_key,
    scc,
)

EXACT_PCST_MAX_VERTICES = 16


class InstanceTooLarge(SolverError):
    """The exact solver was asked for more vertices than it enumerates."""


class WeightedGraph:
    """Undirected graph with positive edge weights and dense vertex ids."""

    def __init__(self, n: int):
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        self.n = n
        self._adj: list[dict[int, float]] = [dict() for _ in range(n)]

    def add_vertex(self) -> int:
        self._adj.append(dict())
        self.n += 1
        return self.n - 1

    def add_edge(self, u: int, v: int, weight: float) -> None:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u}, {v}) out of range for {self.n} vertices")
        if weight <= 0.0:
            raise ValueError(f"edge weight must be positive, got {weight}")
        prev = self._adj[u].get(v)
        if prev is None or weight < prev:
            self._adj[u][v] = weight
            self._adj[v][u] = weight

    # `prim_mst` reads the edges as its pairs, and their weights as their
    # keys: exact, so with no margin.
    key_margin = (0.0, 0.0)

    def pairs(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """(u, v) arrays of the edges start..stop - 1 of `edge_arrays()`."""
        u, v, _ = self.edge_arrays()
        return u[start:stop], v[start:stop]

    def pair_keys(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.array(self.weights(u.tolist(), v.tolist()), dtype=np.float64)

    def weights(self, us: Iterable[int], vs: Iterable[int]) -> list[float]:
        """Weight of each edge (us[i], vs[i]); a KeyError for a non-edge."""
        return [self._adj[u][v] for u, v in zip(us, vs)]

    def weight(self, u: int, v: int) -> float:
        return self._adj[u][v]

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Edges normalized u < v, in ascending (u, v) order."""
        for u in range(self.n):
            for v, w in sorted(self._adj[u].items()):
                if u < v:
                    yield u, v, w

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self._adj) // 2

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, v, w) arrays of `edges()`, in the same ascending (u, v) order."""
        edges = list(self.edges())
        u = np.array([e[0] for e in edges], dtype=np.int64)
        v = np.array([e[1] for e in edges], dtype=np.int64)
        w = np.array([e[2] for e in edges], dtype=np.float64)
        return u, v, w


class GeoPoint(NamedTuple):
    """A WGS84 coordinate pair in decimal degrees."""

    lat: float
    lon: float


def road_graph(
    vertices: Sequence[GeoPoint], edges: Iterable[tuple[int, int, float]]
) -> RoadGraph:
    """The `RoadGraph` over vertex points and (u, v, w) edges, given as
    `RoadGraph(lat, lon, u, v, w)` takes them."""
    edges = list(edges)
    u, v, w = zip(*edges) if edges else ((), (), ())
    return RoadGraph([p.lat for p in vertices], [p.lon for p in vertices], u, v, w)


def edge_list(graph) -> list[tuple[int, int, float]]:
    """Every edge of a graph as (u, v, w), u < v, in its `edge_arrays()`
    order."""
    return list(zip(*(a.tolist() for a in graph.edge_arrays())))


def kruskal_mst(n: int, edges: list[tuple[int, int, float]]) -> tuple[float, list]:
    """(total weight, chosen edges) of an MST over raw edges, or raises."""
    parent = list(range(n))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    chosen = []
    for w, u, v in sorted((w, min(u, v), max(u, v)) for u, v, w in edges):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            chosen.append((u, v, w))
    if len(chosen) != n - 1:
        raise ValueError("graph is not connected")
    return math.fsum(w for _, _, w in chosen), chosen


def random_connected_edges(
    rng: random.Random, n: int, extra: float = 0.5
) -> list[tuple[int, int, float]]:
    """Random connected graph: a random spanning tree plus extra edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    present = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        a, b = min(u, v), max(u, v)
        present.add((a, b))
        edges.append((a, b, rng.uniform(0.1, 10.0)))
    n_extra = int(extra * n)
    for _ in range(n_extra):
        u, v = rng.randrange(n), rng.randrange(n)
        a, b = min(u, v), max(u, v)
        if a == b or (a, b) in present:
            continue
        present.add((a, b))
        edges.append((a, b, rng.uniform(0.1, 10.0)))
    return edges


def graph_from_edges(n: int, edges: list[tuple[int, int, float]]) -> WeightedGraph:
    g = WeightedGraph(n)
    for u, v, w in edges:
        g.add_edge(u, v, w)
    return g


def random_prized_instance(rng: random.Random, n: int) -> PrizedGraph:
    """Random connected prized graph rooted at 0, with a mix of zero and
    positive prizes so exclusion is frequently worthwhile."""
    edges = random_connected_edges(rng, n, extra=0.8)
    g = graph_from_edges(n, edges)
    prizes = {}
    for v in range(1, n):
        if rng.random() < 0.45:
            prizes[v] = rng.uniform(0.0, 5.0)
    return PrizedGraph(graph=g, prizes=prizes, root=0)


GRID_WEIGHTS = (0.1 + 0.2, 0.3, 0.5, 1.0, 2.0)  # 0.1 + 0.2 != 0.3: near-ties
GRID_PRIZES = (0.0, 0.7, 1.0, 2.0, 3.0)


def random_grid_instance(rng: random.Random) -> PrizedGraph:
    """Tie-heavy prized grid of 2-7 x 2-7 vertices with a random root.

    Weights and prizes come from a few values, so equal event times are
    common; one instance in four drops 40% of its edges, which usually
    disconnects the grid."""
    rows, cols = rng.randint(2, 7), rng.randint(2, 7)
    drop = 0.4 if rng.random() < 0.25 else 0.0
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            for u in ((v + 1) if c + 1 < cols else None, (v + cols) if r + 1 < rows else None):
                if u is not None and rng.random() >= drop:
                    edges.append((v, u, rng.choice(GRID_WEIGHTS)))
    n = rows * cols
    prizes = {v: rng.choice(GRID_PRIZES) for v in range(n)}
    return PrizedGraph(graph=graph_from_edges(n, edges), prizes=prizes, root=rng.randrange(n))


def random_sparse_grid_instance(rng: random.Random) -> PrizedGraph:
    """Road-like prized grid of 10-40 x 10-40 vertices: 10% of the edges
    dropped, about 4% of the vertices prized, and a random prized root, so
    moats cross long stretches of zero-prize vertices."""
    rows, cols = rng.randint(10, 40), rng.randint(10, 40)
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            for u in ((v + 1) if c + 1 < cols else None, (v + cols) if r + 1 < rows else None):
                if u is not None and rng.random() >= 0.1:
                    edges.append((v, u, rng.choice(GRID_WEIGHTS)))
    n = rows * cols
    prized = rng.sample(range(n), max(2, round(0.04 * n)))
    prizes = {v: rng.choice(GRID_PRIZES[1:]) * rng.choice((1.0, 4.0, 16.0)) for v in prized}
    return PrizedGraph(graph=graph_from_edges(n, edges), prizes=prizes, root=prized[0])


def nudged_instance(rng: random.Random, prized: PrizedGraph) -> PrizedGraph:
    """`prized` with every edge weight moved 1-3 ulps up or down, so that
    meeting times that were equal or 1 ulp apart land within a few ulps of
    each other, in any order."""
    edges = []
    for u, v, w in edge_list(prized.graph):
        toward = rng.choice((-math.inf, math.inf))
        for _ in range(rng.randint(1, 3)):
            w = float(np.nextafter(w, toward))
        edges.append((u, v, w))
    graph = graph_from_edges(prized.graph.n, edges)
    return PrizedGraph(graph=graph, prizes=prized.prizes, root=prized.root)


def long_moat_grid_instance(rng: random.Random) -> PrizedGraph:
    """A 20 x 100 grid whose two heavily prized end vertices grow moats of
    several hundred vertices each: the west one meets the root, 40 columns
    along, after more than 1,000 events, and the east one keeps growing
    until it meets the root's now inactive cluster. About 2% of the other
    vertices carry small prizes, so moats also die."""
    rows, cols = 20, 100
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1, rng.choice(GRID_WEIGHTS)))
            if r + 1 < rows:
                edges.append((v, v + cols, rng.choice(GRID_WEIGHTS)))
    n = rows * cols
    west, east, root = 10 * cols, 10 * cols + cols - 1, 10 * cols + 40
    prizes = {v: rng.choice(GRID_PRIZES[1:]) for v in rng.sample(range(n), n // 50)}
    prizes.update({west: 1e4, east: 1e4})
    prizes.pop(root, None)
    return PrizedGraph(graph=graph_from_edges(n, edges), prizes=prizes, root=root)


def assert_design_is_tree(design: NetworkDesign, root: int) -> None:
    """The design's edges must form a tree spanning connected_vertices."""
    vertices = design.connected_vertices
    assert root in vertices
    assert len(design.edges) == len(vertices) - 1
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for u, v, w in design.edges:
        assert u in vertices and v in vertices
        assert u < v
        assert w > 0
        adj[u].append(v)
        adj[v].append(u)
    seen = {root}
    stack = [root]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    assert seen == set(vertices)


# --- reference Goemans-Williamson PCST -------------------------------------


class _Cluster:
    __slots__ = ("members", "prize_sum", "dual", "active")

    def __init__(self, members: list[int], prize_sum: float, dual: float, active: bool):
        self.members = members
        self.prize_sum = prize_sum
        self.dual = dual
        self.active = active


def grow_moats_reference(prized: PrizedGraph) -> list[tuple[int, int, float]]:
    """The scalar moat-growing loop: one Python rescan of every edge per
    event. Returns the forest edges in the order they merged."""
    g = prized.graph
    n = g.n
    root = prized.root
    edges = edge_list(g)

    find_cache = list(range(n))  # vertex -> cluster id (path-compressed lazily)
    clusters: dict[int, _Cluster] = {}
    for v in range(n):
        p = prized.prize(v)
        clusters[v] = _Cluster([v], p, 0.0, v != root and p > 0.0)
    next_cid = n
    owner = list(range(n))  # vertex -> current cluster id

    depth = [0.0] * n  # accumulated moat depth over each vertex
    forest: list[tuple[int, int, float]] = []

    def cluster_of(v: int) -> int:
        return owner[v]

    while True:
        active_ids = sorted(cid for cid, c in clusters.items() if c.active)
        if not active_ids:
            break
        best_key: tuple | None = None
        best_event: tuple | None = None
        for u, v, w in edges:
            cu, cv = cluster_of(u), cluster_of(v)
            if cu == cv:
                continue
            rate = (1 if clusters[cu].active else 0) + (1 if clusters[cv].active else 0)
            if rate == 0:
                continue
            slack = w - depth[u] - depth[v]
            dt = max(0.0, slack / rate)
            key = (dt, 0, min(u, v), max(u, v))
            if best_key is None or key < best_key:
                best_key = key
                best_event = ("merge", u, v, w)
        for cid in active_ids:
            c = clusters[cid]
            dt = max(0.0, c.prize_sum - c.dual)
            key = (dt, 1, min(c.members), -1)
            if best_key is None or key < best_key:
                best_key = key
                best_event = ("die", cid)
        assert best_event is not None
        dt = best_key[0]
        for cid in active_ids:
            c = clusters[cid]
            c.dual += dt
            for m in c.members:
                depth[m] += dt
        if best_event[0] == "merge":
            _, u, v, w = best_event
            cu, cv = cluster_of(u), cluster_of(v)
            a, b = clusters[cu], clusters[cv]
            merged = _Cluster(
                members=a.members + b.members,
                prize_sum=a.prize_sum + b.prize_sum,
                dual=a.dual + b.dual,
                active=False,
            )
            has_root = cluster_of(root) in (cu, cv)
            merged.active = (not has_root) and merged.dual < merged.prize_sum
            clusters.pop(cu)
            clusters.pop(cv)
            clusters[next_cid] = merged
            for m in merged.members:
                owner[m] = next_cid
            next_cid += 1
            forest.append((u, v, w))
        else:
            clusters[best_event[1]].active = False
    return forest


def grow_moats_dense_reference(
    prized: PrizedGraph, edges: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> tuple[list[tuple[int, int, float]], list[float]]:
    """The moat-growing loop that `_grow_moats` replaced: every event is a
    few array operations over all edges and all vertices. Returns the forest
    edges in the order they merged, and each event's dual increment
    dt x (number of active clusters)."""
    n = prized.graph.n
    root = prized.root
    # Ascending (u, v) order: argmin's first-index rule breaks dt ties by (u, v).
    order = np.lexsort((edges[1], edges[0]))
    eu, ev, ew = (a[order] for a in edges)

    # Clusters 0..n-1 are the singletons; each of at most n - 1 merges adds one.
    owner = np.arange(n)  # vertex -> current cluster id
    prize_sum = np.zeros(2 * n)
    prize_sum[:n] = [prized.prize(v) for v in range(n)]
    dual = np.zeros(2 * n)
    active = np.zeros(2 * n, dtype=bool)
    active[:n] = prize_sum[:n] > 0.0
    active[root] = False
    min_member = np.arange(2 * n)
    next_cid = n

    depth = np.zeros(n)  # accumulated moat depth over each vertex
    forest: list[tuple[int, int, float]] = []
    dual_terms: list[float] = []

    while True:
        active_ids = np.flatnonzero(active)
        if not active_ids.size:
            break
        cu, cv = owner[eu], owner[ev]
        rate = active[cu].astype(np.int64) + active[cv]
        live = np.flatnonzero((cu != cv) & (rate > 0))
        slack = ew[live] - depth[eu[live]] - depth[ev[live]]
        edge_dt = slack / rate[live]
        edge_dt = np.where(edge_dt > 0.0, edge_dt, 0.0)
        gap = prize_sum[active_ids] - dual[active_ids]
        death_dt = np.where(gap > 0.0, gap, 0.0)
        dt = float(death_dt.min())
        merge_edge = -1
        if live.size:
            i = int(np.argmin(edge_dt))
            if edge_dt[i] <= dt:
                merge_edge, dt = int(live[i]), float(edge_dt[i])
        dual_terms.append(dt * active_ids.size)
        dual[active_ids] += dt
        depth[active[owner]] += dt
        if merge_edge >= 0:
            u, v, w = int(eu[merge_edge]), int(ev[merge_edge]), float(ew[merge_edge])
            a, b = owner[u], owner[v]
            prize_sum[next_cid] = prize_sum[a] + prize_sum[b]
            dual[next_cid] = dual[a] + dual[b]
            has_root = owner[root] in (a, b)
            active[next_cid] = (not has_root) and dual[next_cid] < prize_sum[next_cid]
            active[a] = active[b] = False
            min_member[next_cid] = min(min_member[a], min_member[b])
            owner[(owner == a) | (owner == b)] = next_cid
            next_cid += 1
            forest.append((u, v, w))
        else:
            dying = active_ids[death_dt == dt]
            active[dying[np.argmin(min_member[dying])]] = False
    return forest, dual_terms


def pcst_gw_reference(prized: PrizedGraph) -> NetworkDesign:
    """Rooted prize-collecting Steiner tree via moat growing, then pruning.

    Grows uniform-rate duals around active clusters; an edge joins two
    clusters when the moats meet across it, and a cluster deactivates when
    its dual budget exhausts its prize mass. The forest component containing
    the root is then reduced by strong pruning (exact best-subtree DP) and
    reconnected by the induced minimum spanning tree over the kept vertices.
    Both post-steps only improve on the classical pruning, so the returned
    objective stays within a factor 2 of the optimum.

    Simultaneous events resolve merges before deactivations, each in
    lexicographic vertex order.
    """
    g = prized.graph
    root = prized.root
    if g.n == 0:
        raise EmptyNodeSet("cannot design over an empty graph")
    forest = grow_moats_reference(prized)
    adj: dict[int, list[tuple[int, float]]] = {}
    for u, v, w in forest:
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))
    kept_vertices, kept_edges = strong_prune_reference(prized, adj)
    kept_edges = _reconnect_minimally_reference(g, kept_vertices, kept_edges, root)
    return _prized_design("PCST_GW", prized, kept_vertices, kept_edges)


def strong_prune_reference(
    prized: PrizedGraph, adj: dict[int, list[tuple[int, float]]]
) -> tuple[set[int], list[tuple[int, int, float]]]:
    """Best subtree of the forest `adj` that contains the root, as its
    vertices and its edges.

    A DFS from the root discovers exactly the root's component; then,
    bottom-up over that tree, a child subtree is kept only when its pruned
    value strictly exceeds the edge cost that reaches it.
    """
    root = prized.root
    order: list[tuple[int, int, float]] = []  # (vertex, parent, parent edge weight)
    parent = {root: (-1, 0.0)}
    stack = [root]
    while stack:
        u = stack.pop()
        for v, w in sorted(adj.get(u, [])):
            if v not in parent:
                parent[v] = (u, w)
                order.append((v, u, w))
                stack.append(v)
    prizes = prized.prizes
    value = {v: prizes.get(v, 0.0) for v in parent}
    for v, u, w in reversed(order):
        value[u] += max(0.0, value[v] - w)

    kept = {root}
    kept_edges: list[tuple[int, int, float]] = []
    for v, u, w in order:  # parents precede children in DFS discovery order
        if u in kept and value[v] > w:
            kept.add(v)
            kept_edges.append((u, v, w))
    return kept, kept_edges


def _reconnect_minimally_reference(
    g: WeightedGraph,
    kept: set[int],
    kept_edges: list[tuple[int, int, float]],
    root: int,
) -> list[tuple[int, int, float]]:
    """Replace the kept tree by the MST of the induced subgraph on `kept`.

    The induced subgraph contains the kept tree's edges, so it is connected
    and the swap can only shorten the design; site selection is unchanged.
    """
    if len(kept) <= 2:
        return kept_edges
    sub_vertices = sorted(kept)
    index = {v: i for i, v in enumerate(sub_vertices)}
    sub = WeightedGraph(len(sub_vertices))
    for u, v, w in edge_list(g):
        if u in index and v in index:
            sub.add_edge(index[u], index[v], w)
    mst = prim_mst_reference(sub, root=index[root])
    return [(sub_vertices[a], sub_vertices[b], w) for a, b, w in mst.edges]


# --- exact PCST by enumeration -----------------------------------------------


def pcst_exact(prized: PrizedGraph) -> NetworkDesign:
    """Optimal rooted prize-collecting Steiner tree by subset enumeration.

    Enumerates every vertex subset containing the root whose induced subgraph
    is connected, costs it as induced-MST weight plus the prizes it forgoes,
    and keeps the best (ties to the lexicographically smallest subset).

    Raises:
        InstanceTooLarge: more than 16 vertices.
    """
    g = prized.graph
    n = g.n
    if n == 0:
        raise EmptyNodeSet("cannot design over an empty graph")
    if n > EXACT_PCST_MAX_VERTICES:
        raise InstanceTooLarge(
            f"exact solver enumerates at most {EXACT_PCST_MAX_VERTICES} vertices, got {n}"
        )
    root = prized.root
    edges = sorted((w, u, v) for u, v, w in edge_list(g))
    others = [v for v in range(n) if v != root]
    total_prize = math.fsum(prized.prize(v) for v in range(n))

    best: tuple[float, tuple[int, ...]] | None = None
    best_edges: list[tuple[int, int, float]] | None = None
    for mask in range(1 << len(others)):
        subset = [root] + [others[i] for i in range(len(others)) if mask >> i & 1]
        subset.sort()
        tree = _induced_tree(subset, edges)
        if len(tree) != len(subset) - 1:
            continue  # the induced subgraph is not connected
        weight = math.fsum(w for _, _, w in tree)
        penalty = total_prize - math.fsum(prized.prize(v) for v in subset)
        objective = weight + penalty
        key = (objective, tuple(subset))
        if best is None or key < best:
            best = key
            best_edges = tree
    # The root-only subset always qualifies.
    assert best is not None and best_edges is not None
    return _prized_design("PCST_EXACT", prized, set(best[1]), best_edges)


def _induced_tree(
    vertices: list[int], edges: list[tuple[float, int, int]]
) -> list[tuple[int, int, float]]:
    """Kruskal spanning forest of the subgraph induced on `vertices`, a tree
    when that subgraph is connected. `edges` are all (w, u, v), u < v,
    ascending."""
    parent = {v: v for v in vertices}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen: list[tuple[int, int, float]] = []
    for w, u, v in edges:
        if len(chosen) == len(vertices) - 1:
            break
        if u in parent and v in parent:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                chosen.append((u, v, w))
    return chosen


# --- MST: the heap Prim over a stored complete graph --------------------------


def euclidean_graph_reference(nodes: Sequence[Settlement]) -> WeightedGraph:
    """Complete graph over settlements, weighted by great-circle distance,
    with every edge stored."""
    g = WeightedGraph(len(nodes))
    for i, a in enumerate(nodes):
        for j in range(i + 1, len(nodes)):
            g.add_edge(i, j, haversine_km(*a.location, *nodes[j].location))
    return g


def prim_mst_reference(graph: WeightedGraph, root: int = 0) -> NetworkDesign:
    """Minimum spanning tree grown from `root`.

    Ties between equal-weight candidate edges are broken by the smaller
    (min endpoint, max endpoint) pair, so the selected tree is unique.

    Raises:
        EmptyNodeSet: the graph has no vertices.
        RootMissing: root is not a vertex.
        DisconnectedGraph: some vertex is unreachable from root.
    """
    n = graph.n
    if n == 0:
        raise EmptyNodeSet("cannot span an empty graph")
    if not (0 <= root < n):
        raise RootMissing(f"root {root} not in graph of {n} vertices")
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for u, v, w in graph.edges():
        adj[u].append((v, w))
        adj[v].append((u, w))
    in_tree = [False] * n
    in_tree[root] = True
    chosen: list[tuple[int, int, float]] = []
    heap: list[tuple[float, int, int, int]] = []

    def push_frontier(u: int) -> None:
        for v, w in adj[u]:
            if not in_tree[v]:
                heapq.heappush(heap, (w, min(u, v), max(u, v), v))

    push_frontier(root)
    while heap and len(chosen) < n - 1:
        w, a, b, v = heapq.heappop(heap)
        if in_tree[v]:
            continue
        in_tree[v] = True
        chosen.append((a, b, w))
        push_frontier(v)
    if len(chosen) < n - 1:
        missing = [v for v in range(n) if not in_tree[v]]
        raise DisconnectedGraph(
            f"{len(missing)} of {n} vertices unreachable from root {root} "
            f"(first few: {missing[:5]})"
        )
    return NetworkDesign(
        algorithm="MST",
        edges=_sorted_edges(chosen),
        connected_vertices=frozenset(range(n)),
        excluded_terminals=frozenset(),
        total_length_km=math.fsum(w for _, _, w in chosen),
        total_penalty=0.0,
        terminal_node_count=n,
    )


# --- pricing: one unit and one draw at a time ---------------------------------


def build_report_reference(
    units: Sequence[ReportUnit],
    cost_book: CostBook,
    factor_book: EmissionFactorBook,
) -> list[DecileReportRow]:
    """Price every unit and aggregate per (decile, level, algorithm).

    Totals are sums over member units; per-user metrics divide the summed
    totals by the summed users and are None when those users are zero.
    """
    groups: dict[tuple[int, str, str], list[ReportUnit]] = {}
    for unit in units:
        groups.setdefault((unit.decile, unit.level, unit.algorithm), []).append(unit)

    rows: list[DecileReportRow] = []
    for decile, level, algorithm in sorted(groups):
        members = groups[(decile, level, algorithm)]
        users = math.fsum(m.users for m in members)
        length = math.fsum(m.length_km for m in members)
        tco_total = math.fsum(
            tco_quantities(
                m.node_count, m.length_km, cost_book, m.users, opex_share=m.opex_share
            ).tco_usd
            for m in members
        )
        kg_total = math.fsum(
            emissions_quantities(m.length_km, m.node_count, m.users, factor_book).total_kg
            for m in members
        )
        scc_total = scc(kg_total, cost_book.carbon_price_usd_per_tonne)
        if users > 0:
            ann_tco = tco_total / users / cost_book.assessment_years
            monthly = ann_tco / 12.0
            per_user_kg = kg_total / users
            ann_kg = per_user_kg / factor_book.lifetime_years
            scc_per_user = scc_total / users
            ann_scc = scc_per_user / factor_book.lifetime_years
        else:
            ann_tco = monthly = per_user_kg = ann_kg = scc_per_user = ann_scc = None
        rows.append(
            DecileReportRow(
                decile=decile,
                level=level,
                algorithm=algorithm,
                users=users,
                total_length_km=length,
                tco_usd=tco_total,
                annualized_tco_per_user_usd=ann_tco,
                monthly_tco_per_user_usd=monthly,
                total_kg_co2e=kg_total,
                per_user_kg_co2e=per_user_kg,
                annualized_per_user_kg_co2e=ann_kg,
                scc_usd=scc_total,
                scc_per_user_usd=scc_per_user,
                annualized_scc_per_user_usd=ann_scc,
            )
        )
    return rows


def _apply_overrides(
    overrides: Mapping[str, float], cost_book: CostBook, factor_book: EmissionFactorBook
) -> tuple[CostBook, EmissionFactorBook]:
    cost_kw = {k: v for k, v in overrides.items() if resolve_parameter_key(k) == "cost"}
    lca_kw = {k: v for k, v in overrides.items() if resolve_parameter_key(k) == "lca"}
    return (
        dataclasses.replace(cost_book, **cost_kw) if cost_kw else cost_book,
        dataclasses.replace(factor_book, **lca_kw) if lca_kw else factor_book,
    )


def draw_parameters_reference(
    mc: McConfig,
    draw_index: int,
    cost_book: CostBook,
    factor_book: EmissionFactorBook,
) -> dict[str, float]:
    """Parameter values for one draw, from a new generator whose Philox key
    is the exact pair (seed mod 2**64, draw index), sampling in sorted key
    order; fixed entries consume no randomness."""
    key = np.array([mc.seed % 2**64, draw_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    out: dict[str, float] = {}
    for name in sorted(mc.distributions):
        dist = mc.distributions[name]
        if dist.kind == "fixed":
            book = cost_book if resolve_parameter_key(name) == "cost" else factor_book
            out[name] = float(getattr(book, name)) if dist.value is None else dist.value
        elif dist.kind == "uniform":
            out[name] = float(rng.uniform(dist.lo, dist.hi))
        else:
            out[name] = float(rng.triangular(dist.lo, dist.mode, dist.hi))
    return out


def monte_carlo_reference(
    units: Sequence[ReportUnit],
    cost_book: CostBook,
    factor_book: EmissionFactorBook,
    mc: McConfig,
) -> list[McSummaryRow]:
    """Distribution summaries of every report metric under parameter draws.

    Designs are fixed; only book parameters vary. Draw d is generated
    independently with key (seed, d), so results do not depend on the order
    draws are evaluated in.
    """
    for key in mc.distributions:
        resolve_parameter_key(key)
    base_rows = build_report_reference(units, cost_book, factor_book)
    if not base_rows:
        return []
    row_keys = [(r.decile, r.level, r.algorithm) for r in base_rows]
    samples = np.empty((mc.draws, len(base_rows), len(MC_METRICS)))
    defined = [
        [getattr(r, metric) is not None for metric in MC_METRICS] for r in base_rows
    ]
    for d in range(mc.draws):
        overrides = draw_parameters_reference(mc, d, cost_book, factor_book)
        cb, fb = _apply_overrides(overrides, cost_book, factor_book)
        rows = build_report_reference(units, cb, fb)
        for i, row in enumerate(rows):
            for j, metric in enumerate(MC_METRICS):
                value = getattr(row, metric)
                samples[d, i, j] = np.nan if value is None else value

    summaries: list[McSummaryRow] = []
    for j, metric in enumerate(MC_METRICS):
        for i, (decile, level, algorithm) in enumerate(row_keys):
            if defined[i][j]:
                values = samples[:, i, j]
                mean = float(np.mean(values))
                p5, p50, p95 = (float(p) for p in np.percentile(values, [5.0, 50.0, 95.0]))
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


def within_buffer_reference(point: GeoPoint, lines: FiberLineSet, radius_km: float) -> bool:
    """True when the point lies within radius_km of any polyline."""
    if radius_km < 0:
        raise ValueError(f"radius_km must be >= 0, got {radius_km}")
    for line in lines.lines:
        for a, b in zip(line, line[1:]):
            if point_segment_km(*point, *a, *b) <= radius_km:
                return True
    return False


@dataclass(frozen=True)
class Settlement:
    """One settlement as an object: the row form that `SettlementSet`'s
    columns replaced, which the reference loader and classify read."""

    id: str
    location: GeoPoint
    population: int
    region_id: str
    subregion_id: str


def settlement_set(settlements: Iterable[Settlement]) -> SettlementSet:
    """The columnar set of the given settlements, in their order."""
    rows = [
        (s.id, s.location.lat, s.location.lon, s.population, s.region_id, s.subregion_id)
        for s in settlements
    ]
    return SettlementSet(*(zip(*rows) if rows else [()] * len(SETTLEMENT_COLUMNS)))


def location(ss: SettlementSet, i: int) -> GeoPoint:
    """The location of the settlement in row i of a set."""
    return GeoPoint(ss.lat.item(i), ss.lon.item(i))


def settlements_of(ss: SettlementSet) -> list[Settlement]:
    """Every settlement of a set, in row order, built from its columns."""
    return [
        Settlement(sid, location(ss, i), population, region_id, subregion_id)
        for i, (sid, population, region_id, subregion_id) in enumerate(
            zip(ss.ids, ss.population, ss.region_id, ss.subregion_id)
        )
    ]


def settlement_by_id(ss: SettlementSet, settlement_id: str) -> Settlement:
    """The settlement of a set with the given id, built from its columns."""
    i = ss.row[settlement_id]
    return Settlement(
        settlement_id, location(ss, i), ss.population[i], ss.region_id[i], ss.subregion_id[i]
    )


def node_columns(nodes: Sequence[Settlement]) -> tuple[list[str], list[float], list[float]]:
    """(ids, lat, lon) of the given settlements, the columns a design takes."""
    return [s.id for s in nodes], [s.location.lat for s in nodes], [s.location.lon for s in nodes]


def load_settlements_reference(path: str, fmt: str = "csv") -> list[Settlement]:
    """The settlements of a CSV table or GeoJSON point collection, one
    `Settlement` and `GeoPoint` per row, each row read in full and checked
    by `_build_settlement_reference`; the first bad row raises its
    DataError."""
    if fmt == "csv":
        rows = _csv_rows_reference(path)
    elif fmt == "geojson":
        rows = _settlement_features_reference(path)
    else:
        raise ValueError(f"unknown settlements format {fmt!r}")
    seen: dict[str, str] = {}
    settlements = [_build_settlement_reference(values, where, seen) for where, values in rows]
    if not settlements:
        raise EmptyCollection(f"{path}: no settlements")
    return settlements


def _csv_rows_reference(path: str) -> Iterator[tuple[str, Sequence[str | None]]]:
    """("path:N", the `SETTLEMENT_COLUMNS` fields) of each row that is not
    blank, read as `csv.DictReader` reads them."""
    with _open_input(path, newline="") as fh:
        reader = csv.reader(fh)
        index = {name: i for i, name in enumerate(next(reader, []))}
        missing = [c for c in SETTLEMENT_COLUMNS if c not in index]
        if missing:
            raise MissingColumn(f"{path}: missing columns {', '.join(missing)}")
        at = [index[c] for c in SETTLEMENT_COLUMNS]
        for lineno, row in enumerate(filter(None, reader), start=2):
            yield f"{path}:{lineno}", [row[i] if i < len(row) else None for i in at]


def _settlement_features_reference(path: str) -> Iterator[tuple[str, tuple]]:
    """(where, `SETTLEMENT_COLUMNS` values) of each GeoJSON Point feature,
    the properties as parsed."""
    for where, geom, props in _read_features(path):
        if geom.get("type") != "Point":
            raise ParseError(f"{where}: expected Point geometry, got {geom.get('type')!r}")
        lon, lat = _position(where, geom.get("coordinates"))
        missing = [k for k in ("id", "population", "region_id", "subregion_id") if k not in props]
        if missing:
            raise MissingColumn(f"{where}: missing properties {', '.join(missing)}")
        yield where, (props["id"], lat, lon, props["population"], props["region_id"],
                      props["subregion_id"])


def _build_settlement_reference(
    values: Sequence[str | float | int | None], where: str, seen: dict[str, str]
) -> Settlement:
    raw_id, raw_lat, raw_lon, population, raw_region, raw_subregion = values
    if raw_id is None or raw_region is None or raw_subregion is None:
        missing = [k for k, value in zip(SETTLEMENT_COLUMNS, values) if value is None]
        raise ParseError(f"{where}: no value for {', '.join(missing)}")
    sid = str(raw_id).strip()
    if not sid:
        raise ParseError(f"{where}: empty settlement id")
    if sid in seen:
        raise DuplicateId(f"{where}: duplicate settlement id {sid!r} (first seen at {seen[sid]})")
    seen[sid] = where
    try:
        lat = float(raw_lat)
        lon = float(raw_lon)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: non-numeric coordinate: {exc}") from exc
    if not (-90.0 <= lat <= 90.0):
        raise CoordinateOutOfRange(f"{where}: latitude {lat} outside [-90, 90]")
    if not (-180.0 <= lon <= 180.0):
        raise CoordinateOutOfRange(f"{where}: longitude {lon} outside [-180, 180]")
    if isinstance(population, bool) or (
        isinstance(population, float) and not population.is_integer()
    ):
        raise ParseError(f"{where}: non-integer population: {population!r}")
    try:
        population = int(population)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: non-integer population: {exc}") from exc
    if population < 0:
        raise NegativePopulation(f"{where}: population {population} is negative")
    region_id = str(raw_region).strip()
    subregion_id = str(raw_subregion).strip()
    if not region_id or not subregion_id:
        raise ParseError(f"{where}: empty region_id or subregion_id")
    return Settlement(sid, GeoPoint(lat, lon), population, region_id, subregion_id)


def classify_nodes_reference(
    settlements: Iterable[Settlement],
    fiber: FiberLineSet | None,
    *,
    buffer_km: float,
    main_settlement_threshold: int,
) -> ClassificationResult:
    """Tier roles from `Settlement` objects: each settlement tested with
    `within_buffer_reference`, members listed per region and per subregion,
    and each list's population-max (ties to the lowest id) found with
    `min`."""
    settlements = list(settlements)
    core: set[str] = set()
    if fiber is not None:
        core = {s.id for s in settlements if within_buffer_reference(s.location, fiber, buffer_km)}
    by_region: dict[str, list[Settlement]] = {}
    by_subregion: dict[str, list[Settlement]] = {}
    for s in settlements:
        by_region.setdefault(s.region_id, []).append(s)
        by_subregion.setdefault(s.subregion_id, []).append(s)

    def pop_max(members: list[Settlement]) -> Settlement:
        return min(members, key=lambda s: (-s.population, s.id))

    region_anchor: dict[str, str] = {}
    regional_nodes: dict[str, str] = {}
    flagged: list[str] = []
    for region_id in sorted(by_region):
        members = by_region[region_id]
        candidates = [s for s in members if s.population >= main_settlement_threshold]
        if not candidates:
            flagged.append(region_id)
            region_anchor[region_id] = pop_max(members).id
            continue
        anchor = pop_max(candidates)
        region_anchor[region_id] = anchor.id
        if anchor.id not in core:
            regional_nodes[region_id] = anchor.id
    claimed = core | set(regional_nodes.values())
    access_nodes: dict[str, str] = {}
    for subregion_id in sorted(by_subregion):
        top = pop_max(by_subregion[subregion_id])
        if top.id not in claimed:
            access_nodes[subregion_id] = top.id
    return ClassificationResult(
        core_adjacent=tuple(sorted(core)),
        region_anchor=region_anchor,
        regional_nodes=regional_nodes,
        access_nodes=access_nodes,
        regions_without_candidate=tuple(flagged),
        backbone_root=pick_backbone_root_reference(settlements, core, regional_nodes.values()),
    )


def nearest_vertex_reference(roads: RoadGraph, p: GeoPoint) -> tuple[int, float]:
    """Nearest road vertex to p and its `haversine_km` distance, ties to the
    lowest id: one vectorised pass over every vertex short-lists those
    within 1e-9 of the minimum, and `haversine_km` confirms them in id order."""
    dphi = np.radians(roads.lat - p.lat)
    dlam = np.radians(roads.lon - p.lon)
    cos_lat = math.cos(math.radians(p.lat))
    h = np.sin(dphi / 2.0) ** 2 + cos_lat * roads.cos_lat * np.sin(dlam / 2.0) ** 2
    d = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.minimum(1.0, h)))
    limit = float(d.min()) * (1.0 + 1e-9)
    best_v, best_d = -1, math.inf
    for vid in np.flatnonzero(d <= limit).tolist():
        dist = haversine_km(*p, *roads.point(vid))
        if dist < best_d:
            best_v, best_d = vid, dist
    return best_v, best_d


def pick_backbone_root_reference(
    settlements: Iterable[Settlement], core_adjacent: Iterable[str], regional: Iterable[str]
) -> str | None:
    """Root settlement for the country backbone: the core-adjacent
    settlement nearest any regional node, by `haversine_km` from the core
    settlement with ties to the lowest id; the most populous regional node
    when nothing is core-adjacent; None without regional nodes."""
    by_id = {s.id: s for s in settlements}
    rnods = [by_id[sid] for sid in regional]
    core_ids = sorted(core_adjacent)
    if not rnods:
        return None
    if not core_ids:
        return max(rnods, key=lambda s: (s.population, s.id)).id

    def nearest_rnod_km(core_id: str) -> float:
        core = by_id[core_id]
        return min(haversine_km(*core.location, *r.location) for r in rnods)

    return min(core_ids, key=lambda sid: (nearest_rnod_km(sid), sid))


def design_geojson_reference(
    results: Sequence[DesignResult],
    parameters_hash: str,
    settlements: SettlementSet,
    roads: RoadGraph | None,
) -> str:
    """The text of a design GeoJSON FeatureCollection: the document as
    dicts, written by `json.dumps` with sorted keys.

    Each vertex is placed from the inputs, not from the design's graph: in
    a PCST design a vertex v < roads.n is road vertex v, and every other
    vertex of a design is a terminal, at its settlement's coordinates."""
    features: list[dict] = []
    for result in results:
        design = result.design
        algorithm = design.algorithm
        terminal_ids = {v: sid for sid, v in result.terminal_vertex.items()}

        def point(v: int) -> GeoPoint:
            if algorithm == ALGORITHMS["pcst"] and v < roads.n:
                return GeoPoint(*roads.point(v))
            return location(settlements, settlements.row[terminal_ids[v]])

        used_vertices: set[int] = set()
        for u, v, w in design.edges:
            used_vertices.update((u, v))
            pu, pv = point(u), point(v)
            features.append(
                {
                    "type": "Feature",
                    "geometry": {
                        "type": "LineString",
                        "coordinates": [
                            [round(pu.lon, 6), round(pu.lat, 6)],
                            [round(pv.lon, 6), round(pv.lat, 6)],
                        ],
                    },
                    "properties": {
                        "level": result.level,
                        "algorithm": algorithm,
                        "weight_km": float(format(w, ".6g")),
                    },
                }
            )
        point_vertices = sorted(used_vertices | set(terminal_ids))
        for vid in point_vertices:
            at = point(vid)
            sid = terminal_ids.get(vid)
            if sid == result.root_id:
                role = "root"
            elif sid is not None:
                role = "terminal"
            else:
                role = "steiner"
            features.append(
                {
                    "type": "Feature",
                    "geometry": {
                        "type": "Point",
                        "coordinates": [round(at.lon, 6), round(at.lat, 6)],
                    },
                    "properties": {
                        "level": result.level,
                        "algorithm": algorithm,
                        "role": role,
                        "connected": vid in design.connected_vertices,
                        **({"settlement_id": sid} if sid is not None else {}),
                    },
                }
            )
    doc = {
        "type": "FeatureCollection",
        "parameters_hash": parameters_hash,
        "features": features,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def single_node_design_reference(
    level: str, algorithm: str, sid: str, lat: float, lon: float, count_root_as_terminal: bool
) -> DesignResult:
    """The design of settlement `sid` alone, built without a solver: no
    edges, 0 km, and the root a terminal unless it is core plant."""
    design = NetworkDesign(
        algorithm=ALGORITHMS[algorithm],
        edges=(),
        connected_vertices=frozenset({0}),
        excluded_terminals=frozenset(),
        total_length_km=0.0,
        total_penalty=0.0,
        terminal_node_count=1 if count_root_as_terminal else 0,
    )
    return DesignResult(
        level=level,
        design=design,
        graph=GreatCircleGraph([lat], [lon]),
        terminal_vertex={sid: 0},
        root_id=sid,
        warnings=(),
    )
