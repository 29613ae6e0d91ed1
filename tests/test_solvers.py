"""Tests for the tree solvers, checked against independent oracles."""

from __future__ import annotations

import logging
import math
import os
import random
import sys
from array import array
from dataclasses import replace

import numpy as np
import pytest

from fiberplan.geodata import edge_incidence, load_road_graph, load_settlements
from fiberplan.netdesign import solvers
from fiberplan.netdesign.graphs import (
    DisconnectedGraph,
    EmptyNodeSet,
    PrizedGraph,
    RootMissing,
    attach_terminals_to_roads,
)
from fiberplan.netdesign.solvers import _fold, _grow_moats, pcst_gw, prim_mst

from .oracles import (
    InstanceTooLarge,
    WeightedGraph,
    assert_design_is_tree,
    graph_from_edges,
    grow_moats_dense_reference,
    grow_moats_reference,
    kruskal_mst,
    long_moat_grid_instance,
    nudged_instance,
    pcst_exact,
    pcst_gw_reference,
    prim_mst_reference,
    random_connected_edges,
    random_grid_instance,
    random_prized_instance,
    random_sparse_grid_instance,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")


class TestPrimMst:
    def test_hand_computed_square(self):
        # Square with one diagonal: MST is the three cheapest non-cyclic edges.
        g = WeightedGraph(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 2.0)
        g.add_edge(2, 3, 1.5)
        g.add_edge(3, 0, 4.0)
        g.add_edge(0, 2, 3.0)
        design = prim_mst(g, root=0)
        assert design.edges == ((0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.5))
        assert design.total_length_km == pytest.approx(4.5)
        assert design.terminal_node_count == 4
        assert design.total_penalty == 0.0
        assert design.objective == design.total_length_km

    def test_matches_kruskal_on_random_graphs(self):
        rng = random.Random(1234)
        for _ in range(100):
            n = rng.randint(2, 40)
            edges = random_connected_edges(rng, n)
            design = prim_mst(graph_from_edges(n, edges), root=rng.randrange(n))
            expected_total, _ = kruskal_mst(n, edges)
            assert design.total_length_km == expected_total
            assert_design_is_tree(design, root=0)

    def test_deterministic_under_equal_weights(self):
        # All weights equal: ties resolve to the lexicographically smallest
        # edges, so the star rooted wherever still picks (0,1),(0,2),(0,3).
        g = WeightedGraph(4)
        for u in range(4):
            for v in range(u + 1, 4):
                g.add_edge(u, v, 1.0)
        for root in range(4):
            design = prim_mst(g, root=root)
            repeat = prim_mst(g, root=root)
            assert design.edges == repeat.edges
        assert prim_mst(g, root=0).edges == ((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0))

    def test_scaling_weights_scales_total_exactly(self):
        rng = random.Random(7)
        edges = random_connected_edges(rng, 25)
        base = prim_mst(graph_from_edges(25, edges), root=0)
        doubled = prim_mst(graph_from_edges(25, [(u, v, 2.0 * w) for u, v, w in edges]), root=0)
        assert doubled.total_length_km == 2.0 * base.total_length_km
        assert [e[:2] for e in doubled.edges] == [e[:2] for e in base.edges]

    def test_single_vertex(self):
        design = prim_mst(WeightedGraph(1), root=0)
        assert design.edges == ()
        assert design.total_length_km == 0.0
        assert design.terminal_node_count == 1

    def test_errors(self):
        with pytest.raises(EmptyNodeSet):
            prim_mst(WeightedGraph(0), root=0)
        with pytest.raises(RootMissing):
            prim_mst(WeightedGraph(2), root=5)
        g = WeightedGraph(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 3, 1.0)
        with pytest.raises(DisconnectedGraph):
            prim_mst(g, root=0)


class LooseKeys(WeightedGraph):
    """A `WeightedGraph` whose keys are its weights off by up to 24%, each
    pair by its own seeded amount, with the margin (25%) that covers that:
    the keys order the weights only where they are far apart."""

    key_margin = (0.25, 0.0)

    def __init__(self, n: int, seed: int):
        super().__init__(n)
        self.seed = seed

    def pair_keys(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        w = super().pair_keys(u, v)
        noise = [random.Random(self.seed * 1_000_003 + a * 1009 + b).uniform(-0.24, 0.24)
                 for a, b in zip(u.tolist(), v.tolist())]
        return w * (1.0 + np.array(noise))


def _design_or_message(graph, root):
    """The design of `prim_mst`, or the message of the error it raises."""
    try:
        return prim_mst(graph, root=root)
    except DisconnectedGraph as exc:
        return str(exc)


def test_prim_mst_orders_loose_keys_exactly_in_many_blocks_and_passes(monkeypatch):
    # Tiny blocks and passes over graphs whose keys are far off their
    # weights, with many equal weights: every order the keys leave in doubt
    # is decided exactly, in passes, chains and exact windows alike.
    monkeypatch.setattr(solvers, "_BLOCK_PAIRS", 7)
    monkeypatch.setattr(solvers, "_KEEP_PAIRS", 5)
    rng = random.Random(3_2027)
    disconnected = 0
    for case in range(300):
        n = rng.randint(2, 30)
        edges = random_connected_edges(rng, n, extra=rng.choice((0.5, 3.0)))
        if case % 3 == 0:  # a second part the root cannot reach
            k = rng.randint(1, 8)
            edges += [(n + i, n + rng.randrange(i + 1, k), 1.0) for i in range(k - 1)]
            n += k
        g = LooseKeys(n, seed=case)
        for u, v, _ in edges:
            g.add_edge(u, v, float(rng.randint(1, 4)))
        root = rng.randrange(n)
        got = _design_or_message(g, root)
        try:
            reference = prim_mst_reference(g, root=root)
        except DisconnectedGraph as exc:
            reference = str(exc)
            disconnected += 1
        assert got == reference
        exact = WeightedGraph(n)
        for u, v, w in g.edges():
            exact.add_edge(u, v, w)
        assert _design_or_message(exact, root) == reference
    assert disconnected >= 100


def test_disconnected_message_lists_the_first_five_outside_in_ascending_order():
    g = WeightedGraph(12)
    for u, v in [(0, 5), (5, 9), (9, 11), (1, 2), (2, 3), (4, 6), (7, 8), (8, 10)]:
        g.add_edge(u, v, 1.0)
    with pytest.raises(DisconnectedGraph) as exc:
        prim_mst(g, root=5)
    assert str(exc.value) == (
        "8 of 12 vertices unreachable from root 5 (first few: [1, 2, 3, 4, 6])"
    )


def _two_vertex_instance(prize: float, cost: float) -> PrizedGraph:
    g = WeightedGraph(2)
    g.add_edge(0, 1, cost)
    return PrizedGraph(graph=g, prizes={1: prize}, root=0)


class TestPcstGw:
    def test_low_prize_terminal_excluded(self):
        design = pcst_gw(_two_vertex_instance(prize=3.0, cost=5.0))
        assert design.connected_vertices == frozenset({0})
        assert design.excluded_terminals == frozenset({1})
        assert design.total_length_km == 0.0
        assert design.total_penalty == 3.0
        assert design.objective == 3.0
        assert design.terminal_node_count == 0

    def test_high_prize_terminal_connected(self):
        design = pcst_gw(_two_vertex_instance(prize=10.0, cost=5.0))
        assert design.connected_vertices == frozenset({0, 1})
        assert design.excluded_terminals == frozenset()
        assert design.edges == ((0, 1, 5.0),)
        assert design.objective == 5.0
        assert design.terminal_node_count == 1

    def test_steiner_vertex_bridges_to_prize(self):
        # root -(2)- s(no prize) -(2)- t(prize 10): worth keeping both hops.
        g = WeightedGraph(3)
        g.add_edge(0, 1, 2.0)
        g.add_edge(1, 2, 2.0)
        design = pcst_gw(PrizedGraph(graph=g, prizes={2: 10.0}, root=0))
        assert design.connected_vertices == frozenset({0, 1, 2})
        assert design.total_length_km == 4.0
        assert design.terminal_node_count == 1

    def test_all_prizes_zero_keeps_root_only(self):
        g = WeightedGraph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        design = pcst_gw(PrizedGraph(graph=g, prizes={}, root=0))
        assert design.connected_vertices == frozenset({0})
        assert design.edges == ()
        assert design.objective == 0.0

    def test_zero_prize_terminal_may_be_excluded_without_penalty(self):
        g = WeightedGraph(2)
        g.add_edge(0, 1, 5.0)
        pg = PrizedGraph(graph=g, prizes={}, root=0, terminals=frozenset({1}))
        design = pcst_gw(pg)
        assert design.excluded_terminals == frozenset({1})
        assert design.total_penalty == 0.0

    def test_deterministic(self):
        rng = random.Random(99)
        pg = random_prized_instance(rng, 10)
        d1, d2 = pcst_gw(pg), pcst_gw(pg)
        assert d1 == d2

    def test_design_is_tree_with_consistent_penalty(self):
        rng = random.Random(5)
        for _ in range(50):
            pg = random_prized_instance(rng, rng.randint(2, 14))
            design = pcst_gw(pg)
            assert_design_is_tree(design, root=pg.root)
            assert design.total_penalty == pytest.approx(
                math.fsum(pg.prize(t) for t in design.excluded_terminals)
            )
            assert design.excluded_terminals == pg.terminals - design.connected_vertices


class TestPcstExact:
    def test_two_vertex_cases(self):
        low = pcst_exact(_two_vertex_instance(prize=3.0, cost=5.0))
        assert low.objective == 3.0
        assert low.connected_vertices == frozenset({0})
        high = pcst_exact(_two_vertex_instance(prize=10.0, cost=5.0))
        assert high.objective == 5.0
        assert high.edges == ((0, 1, 5.0),)

    def test_prefers_steiner_detour_over_direct_edge(self):
        # Direct root-t edge costs 10; the detour through s costs 4.
        g = WeightedGraph(3)
        g.add_edge(0, 2, 10.0)
        g.add_edge(0, 1, 2.0)
        g.add_edge(1, 2, 2.0)
        design = pcst_exact(PrizedGraph(graph=g, prizes={2: 100.0}, root=0))
        assert design.connected_vertices == frozenset({0, 1, 2})
        assert design.total_length_km == 4.0

    def test_instance_too_large(self):
        g = WeightedGraph(17)
        for v in range(1, 17):
            g.add_edge(0, v, 1.0)
        with pytest.raises(InstanceTooLarge):
            pcst_exact(PrizedGraph(graph=g, prizes={}, root=0))

    def test_disconnected_component_is_penalized(self):
        g = WeightedGraph(3)
        g.add_edge(0, 1, 1.0)  # vertex 2 is unreachable
        design = pcst_exact(PrizedGraph(graph=g, prizes={1: 5.0, 2: 7.0}, root=0))
        assert design.connected_vertices == frozenset({0, 1})
        assert design.total_penalty == 7.0


class TestGwAgainstExact:
    def test_sandwich_on_random_instances(self):
        rng = random.Random(2024)
        for _ in range(100):
            pg = random_prized_instance(rng, rng.randint(2, 12))
            gw = pcst_gw(pg)
            exact = pcst_exact(pg)
            slack = 1e-9 * max(1.0, exact.objective)
            assert exact.objective <= gw.objective + slack
            assert gw.objective <= 2.0 * exact.objective + slack

    def test_agree_on_easy_instances(self):
        # Huge prizes force both solvers to span all terminals.
        rng = random.Random(77)
        for _ in range(20):
            n = rng.randint(3, 10)
            edges = random_connected_edges(rng, n)
            g = graph_from_edges(n, edges)
            prizes = {v: 1000.0 for v in range(1, n)}
            pg = PrizedGraph(graph=g, prizes=prizes, root=0)
            gw = pcst_gw(pg)
            exact = pcst_exact(pg)
            assert gw.connected_vertices == frozenset(range(n))
            assert gw.total_length_km == pytest.approx(exact.total_length_km, rel=1e-12)


class TestGwAgainstReference:
    """The frontier loop must give the scalar reference's design exactly:
    same edges, same float weights and totals, not merely close ones. The
    moat forests must match too, merge for merge, because pruning often
    hides a wrong event order from the final design. Against the dense loop
    it replaced, the forest and every event's dual increment must be equal
    bit for bit, so the dual bound is too."""

    @staticmethod
    def assert_moats_match_the_dense_loop(pg, stats=None):
        edges = pg.graph.edge_arrays()
        forest, dual_terms = _grow_moats(pg, edges, {} if stats is None else stats)
        assert (forest, dual_terms) == grow_moats_dense_reference(pg, edges)
        assert [math.copysign(1.0, t) for t in dual_terms] == [1.0] * len(dual_terms)
        return forest, dual_terms

    def test_identical_designs_on_tie_heavy_grids(self):
        rng = random.Random(20_2411)
        disconnected = 0
        events = evaluations = 0
        sites = {1: 0, 2: 0}  # designs that kept the root alone, or one more site
        for _ in range(600):
            pg = random_grid_instance(rng)
            forest, _ = self.assert_moats_match_the_dense_loop(pg)
            assert forest == grow_moats_reference(pg)
            design = pcst_gw(pg)
            assert design == pcst_gw_reference(pg)
            if len(design.connected_vertices) in sites:
                sites[len(design.connected_vertices)] += 1
            try:
                prim_mst(pg.graph)
            except DisconnectedGraph:
                disconnected += 1
            # Weights a few ulps off their tie: the keys cannot tell the
            # edges apart, so the exact evaluation picks each event.
            stats = {}
            _, dual_terms = self.assert_moats_match_the_dense_loop(nudged_instance(rng, pg), stats)
            events += len(dual_terms)
            evaluations += stats["evaluations"]
        assert disconnected >= 50
        assert evaluations >= 2 * events
        # The reference keeps its pruned tree for these; `pcst_gw` routes them.
        assert sites[1] >= 1 and sites[2] >= 1

    def test_identical_designs_on_the_golden_road_graph(self):
        roads = load_road_graph(os.path.join(GOLDEN, "roads.geojson"))
        ss = load_settlements(os.path.join(GOLDEN, "settlements.csv"))
        attachment = attach_terminals_to_roads(ss.ids, ss.lat, ss.lon, roads, snap_radius_km=5.0)
        # The incidence of the overlay's edge arrays lists each vertex's edges
        # in edge_arrays() order, spur edges included.
        g = attachment.graph
        at: list[list[int]] = [[] for _ in range(g.n)]
        for i, (u, v) in enumerate(zip(*(a.tolist() for a in g.edge_arrays()[:2]))):
            at[u].append(i)
            at[v].append(i)
        ptr, ids = edge_incidence(g.n, *g.edge_arrays()[:2])
        assert [ids[ptr[x] : ptr[x + 1]].tolist() for x in range(g.n)] == at
        # Each spur's edge is listed once at a road vertex and once at its own.
        assert sum(i >= roads.edge_count for a in at[: roads.n] for i in a) == g.n - roads.n
        terminals = sorted(attachment.terminal_vertex.values())
        rng = random.Random(31)
        for _ in range(12):
            root = rng.choice(terminals)
            prizes = {v: rng.choice((0.0, 1.0, 5.0, 20.0, 80.0)) for v in terminals if v != root}
            pg = PrizedGraph(graph=attachment.graph, prizes=prizes, root=root)
            forest, _ = self.assert_moats_match_the_dense_loop(pg)
            assert forest == grow_moats_reference(pg)
            assert pcst_gw(pg) == pcst_gw_reference(pg)

    def test_identical_moats_with_prizes_summing_to_the_accepted_bound(self):
        """Prizes that sum to nearly half the largest float, the most a
        PrizedGraph accepts: every prize sum, dual and event time stays
        finite, and the heap loop takes the dense loop's events."""
        roads = load_road_graph(os.path.join(GOLDEN, "roads.geojson"))
        ss = load_settlements(os.path.join(GOLDEN, "settlements.csv"))
        attachment = attach_terminals_to_roads(ss.ids, ss.lat, ss.lon, roads, snap_radius_km=5.0)
        root, *prized = sorted(attachment.terminal_vertex.values())
        bound = sys.float_info.max / 2 * (1 - 1e-9)
        rng = random.Random(307)
        for weights in ([1.0] * len(prized), [rng.choice((0.0, 1.0, 3.0)) for _ in prized], [1.0]):
            share = bound / math.fsum(weights)
            prizes = {v: share * w for v, w in zip(prized, weights)}
            pg = PrizedGraph(graph=attachment.graph, prizes=prizes, root=root)
            _, dual_terms = self.assert_moats_match_the_dense_loop(pg)
            assert all(math.isfinite(t) for t in dual_terms)
            assert pcst_gw(pg) == pcst_gw_reference(pg)

    def test_identical_moats_on_sparse_road_like_grids(self):
        rng = random.Random(40_1128)
        merges = deaths = 0
        for _ in range(40):
            pg = random_sparse_grid_instance(rng)
            forest, dual_terms = self.assert_moats_match_the_dense_loop(pg)
            merges += len(forest)
            deaths += len(dual_terms) - len(forest)
        assert merges >= 10_000 and deaths >= 50  # long moats that also die
        rng = random.Random(5_1019)
        for _ in range(2):
            pg = long_moat_grid_instance(rng)
            forest, dual_terms = self.assert_moats_match_the_dense_loop(pg)
            # The merge order shows when a moat of several hundred vertices
            # first joins the root's cluster: after more than 1,000 events,
            # with replays that long, and with the other moat growing on
            # to the boundary that the join froze.
            cluster = {v: {v} for v in range(pg.graph.n)}
            joins = []
            for i, (u, v, _) in enumerate(forest):
                a, b = cluster[u], cluster[v]
                if pg.root in a | b:
                    joins.append((i, len(b if pg.root in a else a)))
                merged = a | b
                for x in merged:
                    cluster[x] = merged
            first_big = next(i for i, size in joins if size >= 300)
            assert 1_000 <= first_big < len(forest) - 1
            assert len(dual_terms) - len(forest) >= 5  # moats also die


def test_fold_adds_in_event_order_as_a_python_loop_does():
    """`np.add.accumulate` adds one element at a time in order, as the
    dense loop's per-event `+=` does; `np.sum` adds pairwise and would not
    match. `_fold` relies on it for long replays."""
    rng = random.Random(2_000)
    mismatched_sum = 0
    for _ in range(2_000):
        size = rng.randint(1, 300)
        values = [rng.uniform(0.0, 1.0) * 10.0 ** rng.randint(-6, 3) for _ in range(size)]
        expected = values[0]
        for t in values[1:]:
            expected += t
        assert float(np.add.accumulate(np.array(values))[-1]) == expected
        dts = array("d", values[1:])
        assert _fold(values[0], dts, 0, len(dts), np.empty(size)) == expected
        mismatched_sum += float(np.sum(np.array(values))) != expected
    assert mismatched_sum > 0


def test_fold_is_sequential_not_compensated():
    """1.0 + 1e100 + 1.0 - 1e100 added one at a time is 0.0, as the events
    add it; a compensated sum (the builtin `sum` from Python 3.12 on) gives
    2.0. Both of `_fold`'s paths add sequentially: the loop, and the numpy
    replay of a run of at least `_FOLD_LOOP` terms, whatever its buffer
    held before."""
    assert _fold(1.0, array("d", [1e100, 1.0, -1e100]), 0, 3, np.empty(4)) == 0.0
    dts = array("d", [7.0] * 5 + [1e100, 1.0, -1e100] + [0.0] * solvers._FOLD_LOOP)
    stop = len(dts)
    assert stop - 5 >= solvers._FOLD_LOOP
    assert _fold(1.0, dts, 5, stop, np.full(stop, np.nan)) == 0.0


def test_pcst_gw_logs_the_sites_kept_and_the_vertices_pruned(caplog):
    # Vertices 1 and 2 merge at t = 0.5 and reach the root at t = 1; vertex
    # 2's prize 0.8 does not pay for its 1 km edge, so pruning drops it.
    caplog.set_level(logging.DEBUG, logger=solvers.__name__)
    g = graph_from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
    design = pcst_gw(PrizedGraph(graph=g, prizes={1: 10.0, 2: 0.8}, root=0))
    assert design.connected_vertices == frozenset({0, 1})
    (record,) = [r for r in caplog.records if r.msg.startswith("pcst_gw:")]
    message = record.getMessage()
    assert "3 vertices, 2 edges, 2 events (2 merges, 0 deaths)" in message
    assert "2 sites kept, 1 vertices pruned" in message
    assert "objective 1.8, dual bound 1.5" in message


class TestGwDualBound:
    def test_bound_never_exceeds_the_exact_optimum(self):
        rng = random.Random(4_2)
        for i in range(300):
            if i % 2:
                pg = random_prized_instance(rng, rng.randint(2, 12))
            else:
                pg = random_grid_instance(rng)
                if pg.graph.n > 12:
                    continue
            gw = pcst_gw(pg)
            exact = pcst_exact(pg)
            slack = 1e-9 * max(1.0, exact.objective)
            assert 0.0 <= gw.dual_bound <= exact.objective + slack
            assert gw.objective <= 2.0 * gw.dual_bound + slack  # certified gap <= 2

    def test_bound_is_not_part_of_the_design(self):
        design = pcst_gw(_two_vertex_instance(prize=10.0, cost=5.0))
        assert design.dual_bound == 5.0  # vertex 1's moat grows 5 km, then meets the root
        assert replace(design, dual_bound=0.0) == design
        assert pcst_exact(_two_vertex_instance(prize=10.0, cost=5.0)).dual_bound is None
