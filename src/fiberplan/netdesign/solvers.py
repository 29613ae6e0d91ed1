"""Tree solvers: minimum spanning tree and prize-collecting Steiner tree.

Both solvers are deterministic: every tie (equal edge weights, equal
event times, equal objectives) is broken by fixed lexicographic rules, so a
given graph always yields bit-identical designs.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .graphs import (
    DisconnectedGraph,
    EmptyNodeSet,
    GreatCircleGraph,
    NetworkDesign,
    PrizedGraph,
    RootMissing,
)

log = logging.getLogger(__name__)


def _sorted_edges(edges: list[tuple[int, int, float]]) -> tuple[tuple[int, int, float], ...]:
    normalized = [(min(u, v), max(u, v), w) for u, v, w in edges]
    return tuple(sorted(normalized))


def prim_mst(graph: GreatCircleGraph, root: int = 0) -> NetworkDesign:
    """Minimum spanning tree grown from `root`, by Prim's dense O(n²) scan.

    Prim reads only `graph.n` and `graph.weights_from(u, targets)`, inf
    where there is no edge, so any graph with those two will do; a run
    passes a `GreatCircleGraph`. Each step keeps every outside vertex's
    best (weight, min endpoint, max endpoint) key and takes the smallest,
    so ties go to the smaller (min, max) pair and the tree is unique. The
    keys are flat lists in step with `outside`: the weights are compared
    alone, and the endpoints only where weights are equal. Memory is O(n).

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
    outside = [v for v in range(n) if v != root]  # ascending
    # key of outside[i]: (key_w[i], key_a[i], key_b[i])
    key_w = [math.inf] * (n - 1)
    key_a = [n] * (n - 1)
    key_b = [n] * (n - 1)
    chosen: list[tuple[int, int, float]] = []
    u = root
    while outside:
        weights = graph.weights_from(u, outside)
        for i in [i for i, w, k in zip(range(n), weights, key_w) if w <= k]:
            v = outside[i]
            a, b = (u, v) if u < v else (v, u)
            if weights[i] < key_w[i] or (a, b) < (key_a[i], key_b[i]):
                key_w[i], key_a[i], key_b[i] = weights[i], a, b
        w = min(key_w)
        if w == math.inf:
            raise DisconnectedGraph(
                f"{len(outside)} of {n} vertices unreachable from root {root} "
                f"(first few: {outside[:5]})"
            )
        i = key_w.index(w)
        if key_w.count(w) > 1:
            i = min(
                (j for j, k in enumerate(key_w) if k == w),
                key=lambda j: (key_a[j], key_b[j]),
            )
        u = outside.pop(i)
        chosen.append((key_a.pop(i), key_b.pop(i), key_w.pop(i)))
    return NetworkDesign(
        algorithm="MST",
        edges=_sorted_edges(chosen),
        connected_vertices=frozenset(range(n)),
        excluded_terminals=frozenset(),
        total_length_km=math.fsum(w for _, _, w in chosen),
        total_penalty=0.0,
        terminal_node_count=n,
    )


# --- Goemans-Williamson PCST ------------------------------------------------


def pcst_gw(prized: PrizedGraph) -> NetworkDesign:
    """Rooted prize-collecting Steiner tree via moat growing, then pruning.

    Grows uniform-rate duals around active clusters; an edge joins two
    clusters when the moats meet across it, and a cluster deactivates when
    its dual budget exhausts its prize mass. The forest component containing
    the root is then reduced by strong pruning (exact best-subtree DP) and
    reconnected by the induced minimum spanning tree over the kept vertices.
    Both post-steps only improve on the classical pruning, so the returned
    objective stays within a factor 2 of the optimum.

    Simultaneous events resolve merges before deactivations, each in
    lexicographic vertex order. Each event works on the frontier only (see
    `_grow_moats`), so its cost follows the moats' perimeter, not the
    graph's size, and it takes exactly the decisions of the per-edge loop.

    The result's `dual_bound` is the sum over events of dt times the number
    of active clusters: the value of the GW dual, a lower bound on the
    optimal objective.
    """
    g = prized.graph
    n = g.n
    if n == 0:
        raise EmptyNodeSet("cannot design over an empty graph")
    edges = g.edge_arrays()
    forest, dual_terms = _grow_moats(prized, edges)
    adj: dict[int, list[tuple[int, float]]] = {}
    for u, v, w in forest:
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))
    kept_vertices, kept_edges = _strong_prune(prized, adj)
    kept_edges = _reconnect_minimally(edges, n, kept_vertices, kept_edges)
    design = _prized_design(
        "PCST_GW", prized, kept_vertices, kept_edges, dual_bound=math.fsum(dual_terms)
    )
    log.debug(
        "pcst_gw: %d vertices, %d edges, %d events, objective %.6g, dual bound %.6g",
        n,
        len(edges[0]),
        len(dual_terms),
        design.objective,
        design.dual_bound,
    )
    return design


def _grow_moats(
    prized: PrizedGraph, edges: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> tuple[list[tuple[int, int, float]], list[float]]:
    """The moat-growing phase of `pcst_gw` over the graph's (u, v, w) arrays.

    Each event evaluates the scalar rules exactly, over the frontier only:
    the ascending ids of the live edges, which join two clusters with
    `rate` > 0 of them active. A live edge meets after
    `max(0, (w - depth[u] - depth[v]) / rate)`; an active cluster dies after
    `max(0, prize_sum - dual)`. Events are chosen by the key
    (dt, kind, min vertex, max vertex), with merges (kind 0) before deaths
    (kind 1); the frontier's ascending order makes argmin's first index
    the smallest (u, v). The frontier ends in copies of its last id (see
    `_padded`), which change no choice: argmin takes the first of equal
    values, and a depth is added to once per event however often its
    vertex is listed.

    The event's dt is added to the depth of the active-side endpoints of
    live edges only. That is exact: a depth is read only through a live
    edge, and a vertex of an active cluster with no live edge has every
    neighbour in its own cluster, so, as clusters only merge, it never has
    a live edge again. A merge relabels the smaller side into the larger
    one; when the merged cluster is active, the edges of a side that was
    inactive enter the frontier, and edges that became internal or lost
    both active sides leave it at the next event.

    Returns the forest edges in the order they merged, and each event's
    dual increment dt x (number of active clusters).
    """
    n = prized.graph.n
    root = prized.root
    eu, ev, ew = edges
    # The ids of the edges at each vertex, ascending, as a CSR: entry 2e + s
    # of the interleaved ends is side s of edge e.
    ends = np.stack([eu, ev], axis=1).ravel()
    incident = np.argsort(ends, kind="stable")
    incident >>= 1
    incident_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=n), out=incident_ptr[1:])
    del ends

    owner = np.arange(n)  # vertex -> cluster id; a cluster keeps its larger side's id
    members: dict[int, list[int]] = {}  # merged clusters only; a singleton c is [c]
    prize_sum = np.array([prized.prize(v) for v in range(n)], dtype=np.float64)
    dual = np.zeros(n)
    active = prize_sum > 0.0
    active[root] = False
    min_member = np.arange(n)
    active_ids = np.flatnonzero(active)  # in no particular order
    frontier = np.flatnonzero(active[eu] | active[ev])  # ascending edge ids
    count = frontier.size  # the frontier's entries past `count` are padding
    frontier = _padded(frontier)

    depth = np.zeros(n)  # accumulated moat depth over each vertex
    forest: list[tuple[int, int, float]] = []
    dual_terms: list[float] = []

    while active_ids.size:
        fu, fv = eu[frontier], ev[frontier]
        cu, cv = owner[fu], owner[fv]
        au, av = active[cu], active[cv]
        live = (cu != cv) & (au | av)
        live[count:] = False  # the padding
        keep = live.nonzero()[0]
        count = keep.size
        if count < frontier.size:
            keep = _padded(keep)
            frontier, fu, fv, au, av = frontier[keep], fu[keep], fv[keep], au[keep], av[keep]
        slack = ew[frontier] - depth[fu] - depth[fv]
        edge_dt = slack / np.where(au & av, 2.0, 1.0)  # the rate, 1 or 2 active sides
        edge_dt = np.where(edge_dt > 0.0, edge_dt, 0.0)
        gap = prize_sum[active_ids] - dual[active_ids]
        dt = max(0.0, float(gap.min()))  # the smallest of the clipped gaps
        merge_edge = -1
        if frontier.size:
            i = int(edge_dt.argmin())
            if edge_dt[i] <= dt:
                merge_edge, dt = int(frontier[i]), float(edge_dt[i])
        dual_terms.append(dt * active_ids.size)
        dual[active_ids] += dt
        # Fancy-index += adds once per vertex, however often it is listed.
        depth[np.concatenate([fu[au], fv[av]])] += dt
        if merge_edge < 0:
            dying = active_ids[np.where(gap > 0.0, gap, 0.0) == dt]
            active[dying[min_member[dying].argmin()]] = False
            active_ids = active_ids[active[active_ids]]
            continue
        u, v, w = int(eu[merge_edge]), int(ev[merge_edge]), float(ew[merge_edge])
        a, b = int(owner[u]), int(owner[v])
        big, small = members.pop(a, [a]), members.pop(b, [b])
        if len(big) < len(small):
            a, b, big, small = b, a, small, big
        was_active = bool(active[a]), bool(active[b])
        has_root = owner[root] in (a, b)
        prize_sum[a] = prize_sum[a] + prize_sum[b]
        dual[a] = dual[a] + dual[b]
        active[a] = (not has_root) and dual[a] < prize_sum[a]
        active[b] = False
        min_member[a] = min(min_member[a], min_member[b])
        owner[small] = a
        forest.append((u, v, w))
        active_ids = active_ids[active[active_ids]]
        if active[a] and not was_active[0]:
            active_ids = np.concatenate([active_ids, [a]])
        if active[a] and not all(was_active):
            # The edges from the side that was inactive to other inactive
            # clusters were not live; they join the frontier now.
            joining = (big, small)[was_active[0]]
            ids = np.concatenate([incident[incident_ptr[x] : incident_ptr[x + 1]] for x in joining])
            ju, jv = owner[eu[ids]], owner[ev[ids]]
            joined = ids[(ju != jv) & ~(active[ju] & active[jv])]
            frontier = np.concatenate([frontier[:count], joined])
            frontier.sort(kind="stable")  # timsort: a sorted run plus a few new ids
            count = frontier.size
            frontier = _padded(frontier)
        big.extend(small)
        members[a] = big
    return forest, dual_terms


def _padded(a: np.ndarray) -> np.ndarray:
    """`a` padded with copies of its last entry to a multiple of 16 entries.

    numpy keeps up to 7 freed buffers of every size under 1 KiB for reuse,
    and never returns them. Frontier-sized temporaries of every length
    would fill that cache (peak RSS +0.35 MB on the pcst-roads benchmark);
    padded, they come in a few sizes only.
    """
    pad = -a.size % 16
    if not pad or not a.size:
        return a
    out = np.full(a.size + pad, a[-1])
    out[: a.size] = a
    return out


def _reconnect_minimally(
    edges: tuple[np.ndarray, np.ndarray, np.ndarray],
    n: int,
    kept: set[int],
    kept_edges: list[tuple[int, int, float]],
) -> list[tuple[int, int, float]]:
    """Replace the kept tree by the MST of the induced subgraph on `kept`.

    The induced subgraph contains the kept tree's edges, so it is connected
    and the swap can only shorten the design; site selection is unchanged.
    `edges` are the (u, v, w) arrays of the whole n-vertex graph.
    """
    if len(kept) <= 2:
        return kept_edges
    inside = np.zeros(n, dtype=bool)
    inside[list(kept)] = True
    eu, ev, ew = edges
    induced = inside[eu] & inside[ev]
    return _kruskal_tree(
        sorted(kept),
        sorted(zip(ew[induced].tolist(), eu[induced].tolist(), ev[induced].tolist())),
    )


def _strong_prune(
    prized: PrizedGraph, adj: dict[int, list[tuple[int, float]]]
) -> tuple[set[int], list[tuple[int, int, float]]]:
    """Best subtree of the forest `adj` that contains the root.

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
    value = {v: prized.prize(v) for v in parent}
    for v, u, w in reversed(order):
        value[u] += max(0.0, value[v] - w)

    kept = {root}
    kept_edges: list[tuple[int, int, float]] = []
    for v, u, w in order:  # parents precede children in DFS discovery order
        if u in kept and value[v] > w:
            kept.add(v)
            kept_edges.append((u, v, w))
    return kept, kept_edges


def _prized_design(
    algorithm: str,
    prized: PrizedGraph,
    vertices: set[int],
    edges: list[tuple[int, int, float]],
    dual_bound: float | None = None,
) -> NetworkDesign:
    excluded = frozenset(t for t in prized.terminals if t not in vertices)
    return NetworkDesign(
        algorithm=algorithm,
        edges=_sorted_edges(edges),
        connected_vertices=frozenset(vertices),
        excluded_terminals=excluded,
        total_length_km=math.fsum(w for _, _, w in edges),
        total_penalty=math.fsum(prized.prize(t) for t in sorted(excluded)),
        terminal_node_count=sum(1 for t in prized.terminals if t in vertices),
        dual_bound=dual_bound,
    )


def _kruskal_tree(
    vertices: list[int], edges: list[tuple[float, int, int]]
) -> list[tuple[int, int, float]]:
    """Kruskal spanning forest of the subgraph induced on `vertices`, a tree
    when that subgraph is connected. `edges` are all (w, u, v), u < v,
    ascending: ties go to the smaller (u, v)."""
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
