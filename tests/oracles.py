"""Independent reference implementations and generators used by the tests.

The Kruskal MST here is written against raw edge lists (no shared code with
the package solvers) so the two routes to a spanning tree stay independent.
`pcst_gw_reference` is the scalar moat-growing loop that the vectorised
`pcst_gw` replaced, kept as the reference it must match design for design.
`build_report_reference` and `monte_carlo_reference` are the unit-by-unit,
draw-by-draw pricing that the report's vectorized kernel replaced; the
kernel must match them field for field. `within_buffer_reference` is the
per-segment scalar buffer test that `within_buffer_mask` replaced; the mask
must match it point for point.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Mapping, Sequence

import numpy as np

from fiberplan.costmodel import CostBook, tco_quantities
from fiberplan.geodata import FiberLineSet, GeoPoint, point_segment_km
from fiberplan.lca import EmissionFactorBook, emissions_quantities
from fiberplan.netdesign import EmptyNodeSet, NetworkDesign, PrizedGraph, WeightedGraph, prim_mst
from fiberplan.netdesign.solvers import _prized_design, _strong_prune
from fiberplan.report import (
    MC_METRICS,
    DecileReportRow,
    McConfig,
    McSummaryRow,
    ReportUnit,
    draw_parameters,
    resolve_parameter_key,
    scc,
)


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
    edges = list(g.edges())

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

    # Root component of the moat forest.
    adj: dict[int, list[tuple[int, float]]] = {}
    for u, v, w in forest:
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))
    component: set[int] = {root}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v, _ in adj.get(u, []):
            if v not in component:
                component.add(v)
                queue.append(v)

    kept_vertices, kept_edges = _strong_prune(prized, adj, component)
    kept_edges = _reconnect_minimally_reference(g, kept_vertices, kept_edges, root)
    return _prized_design("PCST_GW", prized, kept_vertices, kept_edges)


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
    for u, v, w in g.edges():
        if u in index and v in index:
            sub.add_edge(index[u], index[v], w)
    mst = prim_mst(sub, root=index[root])
    return [(sub_vertices[a], sub_vertices[b], w) for a, b, w in mst.edges]


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
        cost_book.replace(**cost_kw) if cost_kw else cost_book,
        factor_book.replace(**lca_kw) if lca_kw else factor_book,
    )


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
        overrides = draw_parameters(mc, d, cost_book, factor_book)
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
            if point_segment_km(point, a, b) <= radius_km:
                return True
    return False
