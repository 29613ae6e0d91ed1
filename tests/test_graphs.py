"""Tests for graph types and geodata-to-graph construction."""

from __future__ import annotations

import math
import sys

import pytest

from fiberplan.geodata import haversine_km
from fiberplan.netdesign.graphs import (
    DuplicateCoordinate,
    EmptyNodeSet,
    PrizedGraph,
    RootMissing,
    attach_terminals_to_roads,
    build_euclidean_graph,
)

from .oracles import GeoPoint, Settlement, WeightedGraph, edge_list, node_columns, road_graph


def _settlement(sid, lat, lon, pop=100, region="R1", sub="R1-01"):
    return Settlement(sid, GeoPoint(lat, lon), pop, region, sub)


def _weights(graph) -> dict[tuple[int, int], float]:
    """(u, v) -> weight of each edge, u < v."""
    return {(u, v): w for u, v, w in edge_list(graph)}


class TestWeightedGraph:
    def test_add_edge_and_neighbors(self):
        g = WeightedGraph(3)
        g.add_edge(0, 1, 2.0)
        g.add_edge(1, 2, 3.0)
        assert g.weights([1, 1], [0, 2]) == [2.0, 3.0]
        assert list(g.edges()) == [(0, 1, 2.0), (1, 2, 3.0)]
        assert g.edge_count == 2
        assert g.weight(2, 1) == 3.0

    def test_parallel_edge_keeps_min(self):
        g = WeightedGraph(2)
        g.add_edge(0, 1, 5.0)
        g.add_edge(1, 0, 3.0)
        g.add_edge(0, 1, 7.0)
        assert list(g.edges()) == [(0, 1, 3.0)]

    def test_rejects_bad_edges(self):
        g = WeightedGraph(2)
        with pytest.raises(ValueError):
            g.add_edge(0, 0, 1.0)
        with pytest.raises(ValueError):
            g.add_edge(0, 2, 1.0)
        with pytest.raises(ValueError):
            g.add_edge(0, 1, 0.0)
        with pytest.raises(ValueError):
            g.add_edge(0, 1, -1.0)

    def test_add_vertex(self):
        g = WeightedGraph(1)
        vid = g.add_vertex()
        assert vid == 1
        g.add_edge(0, 1, 1.0)
        assert g.edge_count == 1


class TestBuildEuclideanGraph:
    def test_complete_with_haversine_weights(self):
        nodes = [
            _settlement("a", 0.0, 0.0),
            _settlement("b", 1.0, 0.0),
            _settlement("c", 0.0, 1.0),
        ]
        g = build_euclidean_graph(*node_columns(nodes))
        assert g.n == 3
        assert g.edge_count == 3
        assert g.weight(0, 1) == pytest.approx(
            haversine_km(*nodes[0].location, *nodes[1].location)
        )
        assert g.point(2) == nodes[2].location
        for u, v in ((1, 1), (0, 3), (-1, 0)):
            with pytest.raises(KeyError):
                g.weight(u, v)
        # point(v) returns the given floats bit for bit.
        lat, lon = [-0.0, 5e-324, 0.0, 1.0], [180.0, -180.0, -0.0, 5e-324]
        g = build_euclidean_graph(["a", "b", "c", "d"], lat, lon)
        assert [tuple(x.hex() for x in g.point(v)) for v in range(4)] == [
            (x.hex(), y.hex()) for x, y in zip(lat, lon)
        ]

    def test_one_node_and_no_nodes(self):
        g = build_euclidean_graph(*node_columns([_settlement("a", 1.0, 2.0)]))
        assert (g.n, g.edge_count, g.point(0)) == (1, 0, (1.0, 2.0))
        with pytest.raises(EmptyNodeSet):
            build_euclidean_graph([], [], [])


class TestAttachTerminals:
    def _roads(self):
        # Straight east-west road along the equator with three vertices.
        return road_graph(
            vertices=(GeoPoint(0.0, 0.0), GeoPoint(0.0, 0.5), GeoPoint(0.0, 1.0)),
            edges=(
                (0, 1, haversine_km(0.0, 0.0, 0.0, 0.5)),
                (1, 2, haversine_km(0.0, 0.5, 0.0, 1.0)),
            ),
        )

    def test_coincident_settlement_merges(self):
        att = attach_terminals_to_roads(
            *node_columns([_settlement("a", 0.0, 0.5)]), self._roads(), snap_radius_km=5.0
        )
        assert att.terminal_vertex == {"a": 1}
        assert att.graph.n == 3  # no new vertex
        assert att.graph.point(1) == GeoPoint(0.0, 0.5)
        assert att.beyond_snap == ()

    def test_two_settlements_on_one_road_vertex_are_rejected(self):
        # -0.0 equals 0.0, so both merge onto vertex 1; the message gives the second's floats.
        message = r"settlements 'a' and 'b' are both at road vertex 1 \(lat=-0.0, lon=0.5\)$"
        with pytest.raises(DuplicateCoordinate, match=message):
            attach_terminals_to_roads(["a", "b"], [0.0, -0.0], [0.5, 0.5], self._roads(), 5.0)

    def test_nearby_settlement_gets_spur(self):
        # ~1 km north of the middle road vertex.
        s = _settlement("a", 0.00899320363724538, 0.5)
        att = attach_terminals_to_roads(*node_columns([s]), self._roads(), snap_radius_km=5.0)
        vid = att.terminal_vertex["a"]
        assert vid == 3  # appended after the 3 road vertices
        assert _weights(att.graph)[(1, vid)] == pytest.approx(1.0, abs=1e-6)
        assert att.beyond_snap == ()

    def test_distant_settlement_flagged(self):
        s = _settlement("far", 0.5, 0.5)  # ~55 km north of the road
        att = attach_terminals_to_roads(*node_columns([s]), self._roads(), snap_radius_km=5.0)
        assert att.terminal_vertex["far"] == 3
        assert len(att.beyond_snap) == 1
        sid, dist = att.beyond_snap[0]
        assert sid == "far"
        assert dist > 5.0

    def test_empty_nodes_rejected(self):
        with pytest.raises(EmptyNodeSet):
            attach_terminals_to_roads([], [], [], self._roads(), snap_radius_km=5.0)

    def test_two_settlements_on_one_road_vertex_rejected(self):
        nodes = [_settlement("a", 0.0, 0.5), _settlement("b", 0.0, 0.5)]
        with pytest.raises(DuplicateCoordinate, match="'a' and 'b'"):
            attach_terminals_to_roads(*node_columns(nodes), self._roads(), snap_radius_km=5.0)
        # Two settlements with one id, at different points.
        with pytest.raises(ValueError, match="duplicate settlement id 'a'"):
            attach_terminals_to_roads(["a", "a"], [0.1, 0.2], [0.5, 0.5], self._roads(), 50.0)

    def test_settlements_at_one_point_off_the_road_keep_separate_spurs(self):
        nodes = [_settlement("a", 0.1, 0.5), _settlement("b", 0.1, 0.5)]
        att = attach_terminals_to_roads(*node_columns(nodes), self._roads(), snap_radius_km=50.0)
        assert att.terminal_vertex == {"a": 3, "b": 4}
        weights = _weights(att.graph)
        assert weights[(1, 3)] == weights[(1, 4)] > 0.0


class TestPrizedGraph:
    def _graph(self):
        g = WeightedGraph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        return g

    def test_defaults_terminals_to_positive_prizes(self):
        pg = PrizedGraph(graph=self._graph(), prizes={1: 2.0, 2: 0.0}, root=0)
        assert pg.terminals == frozenset({1})
        assert pg.prize(1) == 2.0
        assert pg.prize(0) == 0.0

    def test_explicit_terminals_may_add_zero_prize_vertices(self):
        pg = PrizedGraph(
            graph=self._graph(), prizes={1: 2.0}, root=0, terminals=frozenset({1, 2})
        )
        assert pg.terminals == frozenset({1, 2})

    def test_explicit_terminals_must_cover_prized(self):
        with pytest.raises(ValueError, match="terminal"):
            PrizedGraph(
                graph=self._graph(), prizes={1: 2.0}, root=0, terminals=frozenset({2})
            )
        with pytest.raises(ValueError, match="terminal 3 not in graph"):
            PrizedGraph(
                graph=self._graph(), prizes={1: 2.0}, root=0, terminals=frozenset({1, 3})
            )

    def test_rejects_bad_root_and_prizes(self):
        with pytest.raises(RootMissing):
            PrizedGraph(graph=self._graph(), prizes={}, root=5)
        with pytest.raises(ValueError):
            PrizedGraph(graph=self._graph(), prizes={1: -1.0}, root=0)
        with pytest.raises(ValueError):
            PrizedGraph(graph=self._graph(), prizes={7: 1.0}, root=0)

    @pytest.mark.parametrize(
        "prizes, match",
        [
            ({1: math.inf}, "finite"),
            ({1: math.nan}, "finite"),
            ({1: 1e308, 2: 1e308}, "over half the largest float"),  # math.fsum overflows
            ({1: 5e307, 2: 5e307}, "over half the largest float"),  # a finite sum past max / 2
        ],
        ids=["inf", "nan", "sum-overflows", "sum-past-half"],
    )
    def test_rejects_prizes_moat_growing_cannot_add(self, prizes, match):
        with pytest.raises(ValueError, match=match):
            PrizedGraph(graph=self._graph(), prizes=prizes, root=0)

    def test_accepts_prizes_summing_to_half_the_largest_float(self):
        half = sys.float_info.max / 2
        pg = PrizedGraph(graph=self._graph(), prizes={1: half / 2, 2: half / 2}, root=0)
        assert pg.terminals == frozenset({1, 2})


class TestRoadOverlay:
    def test_reads_like_a_copied_graph_without_copying(self):
        roads = TestAttachTerminals()._roads()
        near = _settlement("near", 0.00899320363724538, 0.5)  # spur to vertex 1
        on_road = _settlement("on", 0.0, 1.0)  # merges onto vertex 2
        att = attach_terminals_to_roads(*node_columns([near, on_road]), roads, snap_radius_km=5.0)
        g = att.graph
        assert g.roads is roads
        copy = WeightedGraph(roads.n)
        for u, v, w in edge_list(roads):
            copy.add_edge(u, v, w)
        spur = copy.add_vertex()
        copy.add_edge(1, spur, haversine_km(*near.location, *roads.point(1)))
        assert g.n == copy.n == 4
        assert g.edge_count == copy.edge_count == 3
        assert [a.tolist() for a in g.edge_arrays()] == [a.tolist() for a in copy.edge_arrays()]
        weights = _weights(g)
        assert weights[(1, 2)] == edge_list(roads)[1][2]
        assert (0, 2) not in weights and (0, 3) not in weights
        assert att.terminal_vertex == {"near": 3, "on": 2}
        assert [g.point(v) for v in range(4)] == [*map(roads.point, range(3)), near.location]
        with pytest.raises(IndexError):
            g.point(4)
        # A spur's point(v) returns the given floats bit for bit.
        lat, lon = [-0.0, 5e-324, 0.5], [180.0, -180.0, -0.0]
        g = attach_terminals_to_roads(["a", "b", "c"], lat, lon, roads, 2e4).graph
        assert [tuple(x.hex() for x in g.point(v)) for v in range(3, 6)] == [
            (x.hex(), y.hex()) for x, y in zip(lat, lon)
        ]

    def test_road_graph_without_vertices_rejected(self):
        with pytest.raises(EmptyNodeSet):
            attach_terminals_to_roads(
                *node_columns([_settlement("a", 0.0, 0.0)]), road_graph(vertices=(), edges=()), 5.0
            )
