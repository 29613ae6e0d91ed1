"""Tree solvers: minimum spanning tree and prize-collecting Steiner tree.

Both solvers are deterministic: every tie (equal edge weights, equal
event times, equal objectives) is broken by fixed lexicographic rules, so a
given graph always yields bit-identical designs.

`prim_mst` is a filter-Kruskal over a graph's pairs, read in bounded blocks
with numpy keys and put in exact order only where the keys leave it in
doubt. `pcst_gw` grows moats event by event, prunes, and reconnects the kept
vertices by Kruskal over the induced road edges. Both Kruskals run one
union-find step, `_kruskal`.
"""

from __future__ import annotations

import logging
import math
from array import array
from heapq import heapify, heappop, heappush

import numpy as np

from ..geodata import edge_incidence
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


# Pairs per block that a pass reads from the graph, and pairs a pass keeps.
_BLOCK_PAIRS = 1 << 14
_KEEP_PAIRS = 1 << 13


def prim_mst(graph: GreatCircleGraph, root: int = 0) -> NetworkDesign:
    """Minimum spanning tree of `graph` (spanning from `root`), by a
    certified filter-Kruskal (Osipov, Sanders & Singler, ALENEX 2009).

    The tree is the unique MST under the order (weight, min endpoint, max
    endpoint): the tree that Prim's algorithm grows from any root when it
    breaks ties that way. The graph is read through `n`, `edge_count`,
    `pairs(start, stop)`, `pair_keys(u, v)`, `key_margin` and
    `weights(us, vs)` (see `GreatCircleGraph`); a run passes a
    `GreatCircleGraph`.

    Each pass reads the graph's pairs in blocks of at most `_BLOCK_PAIRS`,
    drops for good every pair inside one component of the forest so far,
    and keeps the `_KEEP_PAIRS` smallest keys of the rest. Keys order the
    weights only to within the margin m(x) = rel x + abs of `key_margin`:
    two keys more than m(x1) + m(x2) apart are certainly in their weights'
    order, and keys closer than that form a chain whose order is in doubt.
    The kept pairs are merged in key order up to the last such gap that
    also lies below the smallest key dropped, so every pair merged comes
    before every pair deferred; inside a chain the order is decided by the
    exact weights, then (min, max). Exact weights are computed only for
    chains and for the n - 1 tree edges. When there is no such gap (a chain
    runs from the smallest kept key into the dropped ones), an exact pass
    follows (`_exact_window`). Memory is O(n) plus one block and the kept
    pairs. Each design logs one DEBUG line: pairs whose keys were computed,
    passes, chains decided exactly and exact evaluations.

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
    parent = list(range(n))
    tree: list[tuple[int, int]] = []
    stats = dict.fromkeys(("pairs", "passes", "chains", "evaluations"), 0)
    labels = None  # each vertex's component, from the second pass on
    while len(tree) < n - 1:
        if stats["passes"]:
            labels = np.array([_find(parent, x) for x in range(n)])
        stats["passes"] += 1
        u, v, keys, low = _smallest_keys(_cross_blocks(graph, labels, stats))
        if not len(keys):
            break
        certified = _certified_order(graph, u, v, keys, low, stats)
        if certified is None:
            stats["passes"] += 1
            blocks = _cross_blocks(graph, labels, stats)
            certified = _exact_window(graph, blocks, float(keys.min()), stats)
        # As lists a few n pairs at a time: a tree is mostly complete within
        # its first 2n pairs, and the rest need never become Python ints.
        for start in range(0, len(certified[0]), 4 * n):
            us, vs = (a[start : start + 4 * n].tolist() for a in certified)
            tree.extend((us[i], vs[i]) for i in _kruskal(parent, us, vs, n - 1 - len(tree)))
            if len(tree) == n - 1:
                break
    if len(tree) < n - 1:
        top = _find(parent, root)
        outside = [x for x in range(n) if _find(parent, x) != top]
        raise DisconnectedGraph(
            f"{len(outside)} of {n} vertices unreachable from root {root} "
            f"(first few: {outside[:5]})"
        )
    us, vs = [a for a, _ in tree], [b for _, b in tree]
    chosen = sorted(zip(us, vs, graph.weights(us, vs)))
    log.debug(
        "prim_mst: %d vertices, %d pairs computed, %d passes, %d chains decided "
        "exactly, %d exact evaluations",
        n,
        stats["pairs"],
        stats["passes"],
        stats["chains"],
        stats["evaluations"] + len(chosen),
    )
    return NetworkDesign(
        algorithm="MST",
        edges=tuple(chosen),
        connected_vertices=frozenset(range(n)),
        excluded_terminals=frozenset(),
        total_length_km=math.fsum(w for _, _, w in chosen),
        total_penalty=0.0,
        terminal_node_count=n,
    )


def _apart(a, b, rel: float, absolute: float):
    """Whether keys b > a are more than the margin m(a) + m(b) apart, so the
    pair of key b is certainly the heavier (elementwise for arrays)."""
    return b - a > rel * (a + b) + 2.0 * absolute


def _cross_blocks(graph, labels: np.ndarray | None, stats: dict[str, int]):
    """The graph's pairs that join two components of `labels` (all pairs
    when it is None), block by block, as (u, v, keys)."""
    total = graph.edge_count
    for start in range(0, total, _BLOCK_PAIRS):
        u, v = graph.pairs(start, min(start + _BLOCK_PAIRS, total))
        if labels is not None:
            cross = labels[u] != labels[v]
            u, v = u[cross], v[cross]
        stats["pairs"] += len(u)
        yield u, v, graph.pair_keys(u, v)


def _smallest_keys(blocks) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(u, v, keys) of the `_KEEP_PAIRS` smallest keys over `blocks`, in no
    order, and the smallest key dropped (inf when none was)."""
    kept = np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)
    low = math.inf
    for block in blocks:
        u, v, keys = map(np.concatenate, zip(kept, block)) if len(kept[0]) else block
        if len(keys) > _KEEP_PAIRS:
            part = np.argpartition(keys, _KEEP_PAIRS)
            low = min(low, float(keys[part[_KEEP_PAIRS]]))
            part = part[:_KEEP_PAIRS]
            u, v, keys = u[part], v[part], keys[part]
        kept = u, v, keys
    return (*kept, low)


def _certified_order(graph, u, v, keys, low: float, stats: dict[str, int]):
    """(u, v) of the pairs in the order of their exact (weight, u, v), as
    far as they certainly come before every pair of key `low` or more; None
    when not even the first does. Each chain of keys is put in order by
    its exact weights."""
    rel, absolute = graph.key_margin
    order = keys.argsort()
    x = keys[order]
    gap = np.empty(len(x), dtype=bool)  # gap[i]: pair i certainly precedes pair i + 1
    np.greater(np.diff(x), (x[:-1] + x[1:]) * rel + 2.0 * absolute, out=gap[:-1])
    gap[-1] = low == math.inf or _apart(float(x[-1]), low, rel, absolute)
    if gap.all():
        return u[order], v[order]
    last = gap.nonzero()[0]  # the last pair of each chain
    if not len(last):
        return None
    order = order[: last[-1] + 1]
    first = np.append(0, last[:-1] + 1)
    for a, b in zip(first[last > first].tolist(), last[last > first].tolist()):
        chain = order[a : b + 1]
        w = graph.weights(u[chain].tolist(), v[chain].tolist())
        order[a : b + 1] = chain[np.lexsort((v[chain], u[chain], w))]
        stats["chains"] += 1
        stats["evaluations"] += len(w)
    return u[order], v[order]


def _exact_window(graph, blocks, x0: float, stats: dict[str, int]):
    """(u, v) of pairs in the order of their exact (weight, u, v), as far
    as they certainly come before every other pair of `blocks`, after a pass
    that found no certain gap above its smallest key x0.

    A pair no heavier than x0's has a key x with x - x0 <= m(x0) + m(x), so
    x <= t = x0 + 3 m(x0) (for a margin of rel <= 1/3). Every pair whose key is not certainly above t is
    evaluated, and the `_KEEP_PAIRS` smallest by (weight, u, v) are kept:
    they precede every pair evaluated and dropped. They are returned in that
    order up to the first whose key exceeds t: those precede every pair not
    evaluated, too. The lightest pair of all is among them."""
    rel, absolute = graph.key_margin
    t = x0 + 3.0 * (rel * x0 + absolute)
    kept = np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0), np.empty(0)
    for u, v, keys in blocks:
        near = ~_apart(t, keys, rel, absolute)
        u, v, keys = u[near], v[near], keys[near]
        w = np.array(graph.weights(u.tolist(), v.tolist()), dtype=np.float64)
        stats["evaluations"] += len(w)
        u, v, keys, w = map(np.concatenate, zip(kept, (u, v, keys, w)))
        order = np.lexsort((v, u, w))[:_KEEP_PAIRS]
        kept = u[order], v[order], keys[order], w[order]
    stats["chains"] += 1
    u, v, keys, _ = kept
    stop = int(np.argmax(np.append(keys > t, True)))
    return u[:stop], v[:stop]


def _find(parent, x: int) -> int:
    """The root of x in the union-find forest `parent`, halving the path."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _kruskal(parent, us: list[int], vs: list[int], size: int) -> list[int]:
    """Kruskal's step over the edges (us[i], vs[i]), in ascending order:
    each edge that joins two components of the union-find forest `parent`
    joins them, until `size` have. Returns their indices i."""
    joined: list[int] = []
    for i, (u, v) in enumerate(zip(us, vs)):
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            joined.append(i)
            if len(joined) == size:
                break
    return joined


# --- Goemans-Williamson PCST ------------------------------------------------


def pcst_gw(prized: PrizedGraph) -> NetworkDesign:
    """Rooted prize-collecting Steiner tree in three steps: grow, prune, route.

    `_grow_moats` grows uniform-rate duals around active clusters; an edge
    joins two clusters when the moats meet across it, and a cluster
    deactivates when its dual budget exhausts its prize mass.
    `_strong_prune` picks the sites: the vertices of the best subtree of the
    root's forest component (exact best-subtree DP). `_reconnect_minimally`
    routes them: the design's edges are the minimum spanning tree of the
    graph edges among the sites. Both post-steps only improve on the
    classical pruning, so the returned objective stays within a factor 2 of
    the optimum.

    Simultaneous events resolve merges before deactivations, each in
    lexicographic vertex order. Moat growing is event-driven (see
    `_grow_moats`): each event pops the few edges and clusters whose
    meeting times come first from a heap and decides among them exactly, so
    its cost does not follow the moats' perimeter, and it takes exactly the
    decisions of the per-edge loop.

    The result's `dual_bound` is the sum over events of dt times the number
    of active clusters: the value of the GW dual, a lower bound on the
    optimal objective. Each design logs one DEBUG line: vertices, edges,
    events (merges and deaths), exact evaluations, the sites kept and the
    vertices pruned (those of the root's forest component that are not
    sites), the objective and the dual bound.
    """
    n = prized.graph.n
    edges = prized.graph.edge_arrays()
    stats: dict[str, int] = {}
    forest, dual_terms = _grow_moats(prized, edges, stats)
    kept = _strong_prune(prized, forest, stats)
    route = _reconnect_minimally(edges, n, kept)
    design = _prized_design("PCST_GW", prized, kept, route, dual_bound=math.fsum(dual_terms))
    log.debug(
        "pcst_gw: %d vertices, %d edges, %d events (%d merges, %d deaths), "
        "%d exact evaluations, %d sites kept, %d vertices pruned, "
        "objective %.6g, dual bound %.6g",
        n,
        len(edges[0]),
        len(dual_terms),
        len(forest),
        len(dual_terms) - len(forest),
        stats["evaluations"],
        len(kept),
        stats["reached"] - len(kept),
        design.objective,
        design.dual_bound,
    )
    return design


def _grow_moats(
    prized: PrizedGraph,
    edges: tuple[np.ndarray, np.ndarray, np.ndarray],
    stats: dict[str, int],
) -> tuple[list[tuple[int, int, float]], list[float]]:
    """The moat-growing phase of `pcst_gw` over the graph's (u, v, w)
    arrays, each vertex's edges found by their `edge_incidence`.

    It takes the decisions of the dense loop (`grow_moats_dense_reference`
    in the tests) with the same floats. At each event a live edge, which
    joins two clusters with rate r > 0 of them active, meets after
    `max(0, ((w - depth[u]) - depth[v]) / r)`, and an active cluster dies
    after `max(0, prize_sum - dual)`. The event's dt is the smallest of
    these; a merge wins ties with deaths, edges tie to the lowest (u, v)
    and deaths to the lowest `min_member`. dt is then added to the dual of
    every active cluster and to the depth of every vertex in one.

    Those additions are replayed lazily, never rebased. The event dts are
    kept in one list. A vertex holds an exact `depth` and the number
    `stamp` of events folded into it; while its cluster is active, its
    depth now is that value plus the later dts added one at a time in
    event order (`_fold`), and while its cluster is inactive it is frozen.
    A vertex is read only through a live edge, so when a cluster turns
    inactive only its boundary vertices are folded, and when one turns
    active only theirs are restamped: a vertex with no edge out of its
    cluster never has one again. Cluster duals are folded the same way, and
    a merge sums the two duals, each folded through the current event.

    Events come from one heap of edges and active clusters keyed by an
    approximate meeting time key = time + slack / r (a death's slack is
    prize_sum - dual, its r is 1), computed from the float time P (the
    sequential sum of the dts) and depths rebased as depth + (P - P at
    stamp). The real meeting time M = T + (w - Du - Dv) / r, with real
    time T and real depths, is constant while r is, so an edge is keyed
    only when one of its sides turns active or inactive, and a cluster
    only when a merge changes its prize or dual; a version count per edge
    and per cluster skips outdated entries. Each event pops every entry
    whose interval [key - d, key + d] can hold the first meeting time,
    evaluates them exactly with the rules above, and pushes back the ones
    not taken.

    The margin d. Each depth, dual and time here is a sum of nonnegative
    dts in which every term passes through at most h = 4n additions (at
    most 3n events, since there are n - 1 merges and each death ends one of
    at most 2n - 1 active clusters, and n - 1 merges of duals). Summed in
    any order, such a float is within e s of the real sum s, where
    e = 1.01 h u and u = 2^-53 (Higham, Accuracy and Stability of Numerical
    Algorithms, section 4.2). Every term of an edge's key is at most
    S = w + 2|key| (depths are at most T, and w = r (M - T) + Du + Dv), and
    of a death's at most S = prize_sum + 2|key| (its dual is at most its
    prize_sum). The key then differs from M by the time's e T, a rebased
    depth's 3.1 e T each (three sums and two roundings), and the u S of its
    three roundings: under 8 e S in all, to first order. The time T + dt
    that the exact rules give the entry at a later event differs from M by
    the replayed depths' e T each and two roundings: under 3 e S. So
    d = 16 e S covers both, with room for the rounding of key -+ d and of
    the real time's bound P (1 + 16 e) (an edge clipped to dt = 0 meets at
    T), and 2^-1074 is added for halving a subnormal slack. The heap pops
    in order of key - d until the next one exceeds the smallest key + d
    popped (or the time's bound), so every entry that ties for the first
    event is evaluated. The same "short-list under a float margin, confirm
    exactly" idiom picks a road graph's nearest vertex and the backbone
    root.

    Returns the forest edges in the order they merged, and each event's
    dual increment dt x (number of active clusters). `stats` receives the
    number of exact evaluations.
    """
    n = prized.graph.n
    root = prized.root
    eu, ev, ew = (a.tolist() for a in edges)
    inc_ptr, inc_ids = (a.tolist() for a in edge_incidence(n, *edges[:2]))
    rho = 16 * 1.01 * 4 * n * 2.0**-53  # 16 e, see the docstring
    tiny = 2.0**-1074

    prize_sum = [0.0] * n
    active = [False] * n
    for v, p in prized.prizes.items():
        prize_sum[v] = p = float(p)
        active[v] = p > 0.0
    active[root] = False
    dual = [0.0] * n  # of a cluster, exact through event dstamp[c]
    dstamp = [0] * n
    depth = [0.0] * n  # of a vertex, exact through event stamp[v]
    stamp = [0] * n
    owner = list(range(n))  # vertex -> cluster id; a cluster keeps its larger side's id
    members: dict[int, list[int]] = {}  # merged clusters only; a singleton c is [c]
    boundary: dict[int, list[int]] = {}  # edge ids that may leave a cluster
    min_member = list(range(n))
    edge_version = [0] * len(eu)
    death_version = [0] * n
    dts = array("d")
    times = array("d", [0.0])  # times[k]: the float time after k events
    replay = np.empty(3 * n + 1)  # `_fold`'s buffer: there are at most 3n events
    forest: list[tuple[int, int, float]] = []
    dual_terms: list[float] = []
    evaluations = 0

    def edges_of(c: int) -> list[int]:
        """Take out the edges that may leave cluster c; a vertex that has
        not merged or died yet has only its incidence."""
        if c in boundary:
            return boundary.pop(c)
        return inc_ids[inc_ptr[c] : inc_ptr[c + 1]]

    # A heap entry is (key - d, key + d, ident, version), for an edge
    # ident >= 0 with d = rho (w + 2 |key|) + tiny, or for the death of
    # cluster ~ident with prize_sum in place of w; it is written out where
    # it is pushed.
    heap = []
    starts = [c for c in sorted(prized.prizes) if active[c]]
    for c in starts:
        key = prize_sum[c]
        d = rho * (key + 2.0 * abs(key)) + tiny
        heap.append((key - d, key + d, ~c, 0))
        for e in inc_ids[inc_ptr[c] : inc_ptr[c + 1]]:
            x = eu[e] if ev[e] == c else ev[e]
            if not (active[x] and x < c):  # else it was keyed from x
                key = ew[e] / (1 + active[x])
                d = rho * (ew[e] + 2.0 * abs(key)) + tiny
                heap.append((key - d, key + d, e, 0))
    heapify(heap)
    n_active = len(starts)
    k = 0  # events so far

    def rekey(c: int, side: list[int], time: float) -> list[int]:
        """Re-key the edges of `side`, which has just turned active or
        inactive as part of cluster c, folding (or restamping) the depths of
        its boundary vertices; returns the edges that still leave c."""
        keep = []
        rate_c = active[c]
        for e in side:
            x, y = eu[e], ev[e]
            if owner[y] == c:
                x, y = y, x
            cy = owner[y]
            if cy == c:
                continue
            keep.append(e)
            if rate_c:
                stamp[x] = k
            elif stamp[x] < k:
                depth[x] = _fold(depth[x], dts, stamp[x], k, replay)
                stamp[x] = k
            edge_version[e] += 1
            rate = rate_c + active[cy]
            if rate:
                dy = depth[y] + (time - times[stamp[y]]) if active[cy] else depth[y]
                key = time + ((ew[e] - depth[x]) - dy) / rate
                d = rho * (ew[e] + 2.0 * abs(key)) + tiny
                heappush(heap, (key - d, key + d, e, edge_version[e]))
        return keep

    while n_active:
        time = times[k]
        reach = time + rho * time  # the real time's bound
        bound = limit = math.inf  # limit = max(reach, bound)
        candidates = []
        while heap and heap[0][0] <= limit:
            top = heappop(heap)
            i = top[2]
            if i >= 0:
                if edge_version[i] != top[3] or owner[eu[i]] == owner[ev[i]]:
                    continue
            elif death_version[~i] != top[3]:
                continue
            candidates.append(top)
            if top[1] < bound:
                bound = top[1]
                limit = bound if bound > reach else reach
        evaluations += len(candidates)

        merge_edge, edge_dt = -1, math.inf
        dying, death_dt = -1, math.inf
        for top in candidates:
            i = top[2]
            if i < 0:
                c = ~i
                if dstamp[c] < k:
                    dual[c] = _fold(dual[c], dts, dstamp[c], k, replay)
                    dstamp[c] = k
                gap = prize_sum[c] - dual[c]
                if not gap > 0.0:
                    gap = 0.0
                if gap < death_dt or (gap == death_dt and min_member[c] < min_member[dying]):
                    dying, death_dt = c, gap
                continue
            x, y = eu[i], ev[i]
            ax, ay = active[owner[x]], active[owner[y]]
            # Each active side's depth through event k, as `_fold` gives it,
            # its short runs added in line.
            dx, dy = depth[x], depth[y]
            if ax and stamp[x] < k:
                if k - stamp[x] < _FOLD_LOOP:
                    for t in dts[stamp[x] : k]:
                        dx += t
                else:
                    dx = _fold(dx, dts, stamp[x], k, replay)
                depth[x], stamp[x] = dx, k
            if ay and stamp[y] < k:
                if k - stamp[y] < _FOLD_LOOP:
                    for t in dts[stamp[y] : k]:
                        dy += t
                else:
                    dy = _fold(dy, dts, stamp[y], k, replay)
                depth[y], stamp[y] = dy, k
            dt = ((ew[i] - dx) - dy) / (ax + ay)
            if not dt > 0.0:
                dt = 0.0
            if dt < edge_dt or (dt == edge_dt and (x, y) < (eu[merge_edge], ev[merge_edge])):
                merge_edge, edge_dt = i, dt
        taken = merge_edge if merge_edge >= 0 and edge_dt <= death_dt else ~dying
        if len(candidates) > 1:  # a lone candidate is the one taken
            for top in candidates:
                if top[2] != taken:
                    heappush(heap, top)

        dt = edge_dt if taken >= 0 else death_dt
        dual_terms.append(dt * n_active)
        dts.append(dt)
        k += 1
        time += dt
        times.append(time)

        if taken < 0:
            c = dying
            dual[c] = _fold(dual[c], dts, dstamp[c], k, replay)
            dstamp[c] = k
            active[c] = False
            n_active -= 1
            death_version[c] += 1
            boundary[c] = rekey(c, edges_of(c), time)
            continue

        u, v, w = eu[taken], ev[taken], ew[taken]
        a, b = owner[u], owner[v]
        for c in (a, b):
            if active[c]:
                dual[c] = _fold(dual[c], dts, dstamp[c], k, replay)
                dstamp[c] = k
        forest.append((u, v, w))
        # The common merge: an active cluster a that keeps its id absorbs a
        # vertex b of no prize that has not merged yet (so no dual), and stays
        # active. Its prize, dual, death entry and activity stay as they are,
        # and only b's incidence is re-keyed, at a's rate. This is what the
        # general merge below does for it, step for step.
        if active[b]:
            a, b = b, a
        if (
            active[a]
            and not active[b]
            and prize_sum[b] == 0.0
            and b != root
            and b not in members
            and (a == owner[u] or a in members)
            and dual[a] < prize_sum[a]
        ):
            if b < min_member[a]:
                min_member[a] = b
            death_version[b] += 1
            owner[b] = a
            members.setdefault(a, [a]).append(b)
            keep = []
            for e in inc_ids[inc_ptr[b] : inc_ptr[b + 1]]:
                y = eu[e] if ev[e] == b else ev[e]
                cy = owner[y]
                if cy == a:
                    continue
                keep.append(e)
                stamp[b] = k
                edge_version[e] += 1
                if active[cy]:
                    dy = depth[y] + (time - times[stamp[y]])
                    key = time + ((ew[e] - depth[b]) - dy) / 2
                else:  # rate 1
                    key = time + ((ew[e] - depth[b]) - depth[y])
                d = rho * (ew[e] + 2.0 * abs(key)) + tiny
                heappush(heap, (key - d, key + d, e, edge_version[e]))
            side = edges_of(a)
            if len(side) < len(keep):
                side, keep = keep, side
            side.extend(keep)
            boundary[a] = side
            continue
        a, b = owner[u], owner[v]
        big, small = members.pop(a, [a]), members.pop(b, [b])
        if len(big) < len(small):
            a, b, big, small = b, a, small, big
        was_active = active[a], active[b]
        has_root = owner[root] in (a, b)
        # Absorbing a cluster of no prize and no dual leaves a's meeting time.
        same_death = was_active[0] and prize_sum[b] == 0.0 and dual[b] == 0.0
        prize_sum[a] = prize_sum[a] + prize_sum[b]
        dual[a] = dual[a] + dual[b]
        dstamp[a] = k
        active[a] = (not has_root) and dual[a] < prize_sum[a]
        active[b] = False
        n_active += active[a] - was_active[0] - was_active[1]
        min_member[a] = min(min_member[a], min_member[b])
        death_version[b] += 1
        for x in small:
            owner[x] = a
        big.extend(small)
        members[a] = big
        sides = [edges_of(a), edges_of(b)]
        for j in (0, 1):
            if was_active[j] != active[a]:
                sides[j] = rekey(a, sides[j], time)
        if len(sides[0]) < len(sides[1]):
            sides.reverse()
        sides[0].extend(sides[1])
        boundary[a] = sides[0]
        if not (active[a] and same_death):
            death_version[a] += 1
            if active[a]:
                key = time + (prize_sum[a] - dual[a])
                d = rho * (prize_sum[a] + 2.0 * abs(key)) + tiny
                heappush(heap, (key - d, key + d, ~a, death_version[a]))
    stats["evaluations"] = evaluations
    return forest, dual_terms


# `_fold` adds a run of fewer dts than this in a Python loop, and a longer
# one by numpy, which takes about 3.3 us a call: as long as the loop takes
# for 100 to 150 terms.
_FOLD_LOOP = 100


def _fold(value: float, dts: array, start: int, stop: int, out: np.ndarray) -> float:
    """value + dts[start] + ... + dts[stop - 1], added one at a time in that
    order: the float the dense loop's per-event additions give.

    Runs shorter than `_FOLD_LOOP` are added by a Python loop, longer ones
    by `np.add.accumulate`, which adds sequentially too, in `out` (at least
    stop - start + 1 floats). Neither may be replaced by a sum that rounds
    differently: `np.sum` adds pairwise, and the builtin
    `sum` of floats compensates its rounding from Python 3.12 on (so
    1.0 + 1e100 + 1.0 - 1e100 would give 2.0 there, where the events give 0.0).
    """
    if stop - start < _FOLD_LOOP:
        for t in dts[start:stop]:
            value += t
        return value
    run = out[: stop - start + 1]
    run[0] = value
    run[1:] = np.frombuffer(dts, count=stop)[start:]
    np.add.accumulate(run, out=run)
    return run.item(-1)


def _reconnect_minimally(
    edges: tuple[np.ndarray, np.ndarray, np.ndarray], n: int, kept: set[int]
) -> list[tuple[int, int, float]]:
    """The design's edges: the MST of the subgraph induced on the sites `kept`.

    The pruned tree lies in that subgraph, so it is connected and its MST
    is no longer than the pruned tree. `edges` are the (u, v, w) arrays of
    the whole n-vertex graph.
    """
    inside = np.zeros(n, dtype=bool)
    inside[list(kept)] = True
    eu, ev, ew = edges
    induced = np.flatnonzero(inside[eu] & inside[ev])
    induced = induced[np.lexsort((ev[induced], eu[induced], ew[induced]))]
    us, vs, ws = (a[induced].tolist() for a in edges)
    joined = _kruskal({x: x for x in kept}, us, vs, len(kept) - 1)
    return [(us[i], vs[i], ws[i]) for i in joined]


def _strong_prune(
    prized: PrizedGraph,
    forest: list[tuple[int, int, float]],
    stats: dict[str, int],
) -> set[int]:
    """The sites: the vertices of the best subtree of `forest` that contains
    the root. `_reconnect_minimally` routes them, so no edge is returned.

    A DFS from the root discovers exactly the root's component; then,
    bottom-up over that tree, a child subtree is kept only when its pruned
    value strictly exceeds the edge cost that reaches it. `stats` receives
    the size of that component as "reached".
    """
    adj: dict[int, list[tuple[int, float]]] = {}
    for u, v, w in forest:
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))
    root = prized.root
    order: list[tuple[int, int, float]] = []  # (vertex, parent, parent edge weight)
    seen = {root}
    stack = [root]
    while stack:
        u = stack.pop()
        near = adj.get(u, ())
        if len(near) > 1:
            near.sort()  # by neighbour: a forest has one edge per pair
        for v, w in near:
            if v not in seen:
                seen.add(v)
                order.append((v, u, w))
                stack.append(v)
    prizes = prized.prizes
    value = {v: prizes.get(v, 0.0) for v in seen}
    for v, u, w in reversed(order):
        gain = value[v] - w
        if gain > 0.0:  # a child worth no more than its edge adds nothing
            value[u] += gain
    stats["reached"] = len(seen)

    kept = {root}
    for v, u, w in order:  # parents precede children in DFS discovery order
        if u in kept and value[v] > w:
            kept.add(v)
    return kept


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
