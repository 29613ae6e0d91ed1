"""Tests for tier design dispatch."""

from __future__ import annotations

import itertools
import json
import logging
import math
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from fiberplan.geodata import EARTH_RADIUS_KM, haversine_km, haversine_km_array, lat_cosines
from fiberplan.netdesign import solvers
from fiberplan.netdesign.design import ALGORITHMS, LEVELS, design_network
from fiberplan.netdesign.graphs import (
    DuplicateCoordinate,
    EmptyNodeSet,
    NetworkDesign,
    build_euclidean_graph,
)
from fiberplan.netdesign.solvers import prim_mst
from fiberplan.report import emit_design_geojson

from .oracles import (
    GeoPoint,
    Settlement,
    euclidean_graph_reference,
    kruskal_mst,
    node_columns,
    prim_mst_reference,
    road_graph,
    single_node_design_reference,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "data", "golden")


def _s(sid, lat, lon, pop=1000, region="R1", sub="R1-01"):
    return Settlement(sid, GeoPoint(lat, lon), pop, region, sub)


# Road along the equator with vertices every 0.25 degrees.
ROAD = road_graph(
    vertices=tuple(GeoPoint(0.0, 0.25 * i) for i in range(5)),
    edges=tuple(
        (i, i + 1, haversine_km(0.0, 0.25 * i, 0.0, 0.25 * (i + 1)))
        for i in range(4)
    ),
)


class TestMstDesign:
    def test_three_nodes(self):
        nodes = [_s("root", 0.0, 0.0), _s("a", 0.0, 0.3), _s("b", 0.0, 0.6)]
        result = design_network("access", "mst", *node_columns(nodes), "root")
        assert result.design.algorithm == "MST"
        assert len(result.design.edges) == 2
        assert result.design.terminal_node_count == 3
        assert result.connected_settlements() == ["a", "b", "root"]
        # Chain along the equator: ~0.3 degrees per hop.
        assert result.design.total_length_km == pytest.approx(2 * 33.3585, abs=0.01)

    def test_root_not_counted_when_core(self):
        nodes = [_s("core", 0.0, 0.0), _s("a", 0.0, 0.3)]
        result = design_network(
            "regional", "mst", *node_columns(nodes), "core", count_root_as_terminal=False
        )
        assert result.design.terminal_node_count == 1

    def test_single_node_degenerates(self):
        result = design_network("access", "mst", *node_columns([_s("only", 0.0, 0.0)]), "only")
        assert result.design.edges == ()
        assert result.design.total_length_km == 0.0
        assert result.design.terminal_node_count == 1

    def test_duplicate_coordinate(self):
        # Settlements 0 km apart always give a 0 km tree edge; coordinates
        # equal as floats, -0.0 and 0.0 too, are 0 km apart.
        message = r"settlements 'a' and 'b' are 0 km apart$"
        nodes = [_s("a", 1.0, 2.0), _s("b", 1.0, 2.0)]
        with pytest.raises(DuplicateCoordinate, match=message):
            design_network("access", "mst", *node_columns(nodes), "a")
        with pytest.raises(DuplicateCoordinate, match=message):
            design_network("access", "mst", ["a", "b"], [0.0, -0.0], [1.0, 1.0], "b")

    def test_errors(self):
        with pytest.raises(EmptyNodeSet):
            design_network("access", "mst", [], [], [], "root")
        with pytest.raises(ValueError, match="root"):
            design_network("access", "mst", *node_columns([_s("a", 0, 0), _s("b", 1, 1)]), "zzz")
        with pytest.raises(ValueError, match="level"):
            design_network("backbone", "mst", *node_columns([_s("a", 0, 0), _s("b", 1, 1)]), "a")
        with pytest.raises(ValueError, match="algorithm"):
            design_network("access", "spanner", *node_columns([_s("a", 0, 0), _s("b", 1, 1)]), "a")
        with pytest.raises(ValueError, match="duplicate"):
            design_network("access", "mst", *node_columns([_s("a", 0, 0), _s("a", 1, 1)]), "a")
        for lat, lon in (([0.0], [0.0, 1.0]), ([0.0, 1.0], [0.0])):
            with pytest.raises(ValueError, match="one entry per design node"):
                design_network("access", "mst", ["a", "b"], lat, lon, "a")


# A lone settlement on ROAD's vertex 2 (the same floats), 5.6 km off it,
# within the 10 km snap radius, or 112 km off it, beyond.
LONE = {"on-road": (0.0, 0.5), "within": (0.05, 0.5), "beyond": (1.0, 0.6)}


def _design_fields(result) -> tuple:
    d = result.design
    return (
        d.algorithm,
        d.edges,
        result.connected_settlements(),
        d.excluded_terminals,
        d.total_length_km,
        d.total_penalty,
        d.terminal_node_count,
    )


@pytest.mark.parametrize("place", list(LONE))
def test_a_lone_settlement_designs_as_the_solver_free_reference(tmp_path, place):
    """Each solver designs a settlement alone as the one-settlement path
    that skipped them did; only a PCST root beyond the snap radius now
    carries its warning."""
    lat, lon = LONE[place]
    beyond_km = haversine_km(lat, lon, 0.0, 0.5)
    for algorithm, level, counted in itertools.product(ALGORITHMS, LEVELS, (True, False)):
        result = design_network(
            level, algorithm, ["solo"], [lat], [lon], "solo",
            roads=ROAD, snap_radius_km=10.0, count_root_as_terminal=counted,
        )
        reference = single_node_design_reference(level, algorithm, "solo", lat, lon, counted)
        assert _design_fields(result) == _design_fields(reference)
        written = []
        for name, results in (("design", [result]), ("reference", [reference])):
            emit_design_geojson(results, str(tmp_path / name), parameters_hash="0123456789abcdef")
            written.append((tmp_path / name).read_bytes())
        assert written[0] == written[1]
        assert reference.warnings == ()
        assert result.warnings == (
            (f"settlement solo attached {beyond_km:.2f} km beyond the 10.00 km snap radius",)
            if place == "beyond" and algorithm == "pcst"
            else ()
        )


def _point_set(rng: random.Random, kind: str) -> list[Settlement]:
    """2-60 distinct settlements: spread out, on a 0.25-degree grid (many
    equal distances), on both sides of the antimeridian, or above 80 degrees."""
    n = rng.randint(2, 60)
    points: set[tuple[float, float]] = set()
    while len(points) < n:
        if kind == "grid":
            lat0, lon0 = rng.choice([(0.0, 30.0), (-41.5, 172.25), (60.0, -20.0)])
            point = (lat0 + 0.25 * rng.randrange(8), lon0 + 0.25 * rng.randrange(8))
        elif kind == "antimeridian":
            point = (rng.uniform(-30.0, 30.0), rng.choice((1, -1)) * rng.uniform(179.0, 180.0))
        elif kind == "polar":
            point = (rng.choice((1, -1)) * rng.uniform(80.0, 90.0), rng.uniform(-180.0, 180.0))
        else:
            point = (rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 180.0))
        points.add(point)
    return [_s(f"s{i:02d}", lat, lon) for i, (lat, lon) in enumerate(sorted(points))]


def test_mst_designs_equal_the_heap_prim_over_a_stored_complete_graph():
    rng = random.Random(6_2026)
    seen = {"ties": 0, "antimeridian": 0, "polar": 0, "root": 0}
    for i in range(320):
        kind = ("spread", "grid", "antimeridian", "polar")[i % 4]
        nodes = _point_set(rng, kind)
        root = rng.randrange(len(nodes))
        graph = build_euclidean_graph(*node_columns(nodes))
        reference = euclidean_graph_reference(nodes)
        design = prim_mst(graph, root=root)
        assert design == prim_mst_reference(reference, root=root)
        for u, v, w in design.edges:
            assert graph.weight(u, v) == graph.weight(v, u) == reference.weight(u, v) == w
        weights = [w for _, _, w in reference.edges()]
        seen["ties"] += len(set(weights)) < len(weights)
        seen["antimeridian"] += any(
            nodes[u].location.lon * nodes[v].location.lon < 0 and w < 250.0
            for u, v, w in design.edges
        )
        seen["polar"] += all(abs(s.location.lat) > 80.0 for s in nodes)
        seen["root"] += root not in (0, len(nodes) - 1)
    assert min(seen.values()) >= 50, seen


def _tie_set(rng: random.Random, kind: str) -> list[Settlement]:
    """3-40 distinct settlements whose keys tie or nearly tie: a lattice of
    exact distance ties, clusters of points 1-3 ulps apart (also at 0.0,
    where the differences are subnormal), or points on the equator spaced
    0.1 degrees apart, which differ from equal only in the last bits."""
    n = rng.randint(3, 40)
    points: set[tuple[float, float]] = set()
    while len(points) < n:
        if kind == "lattice":
            lat0, lon0 = rng.choice([(0.0, 30.0), (45.25, -120.5), (-30.0, 179.0)])
            point = (lat0 + 0.5 * rng.randrange(6), lon0 + 0.5 * rng.randrange(6))
        elif kind == "ulps":
            lat, lon = rng.choice([(0.0, 0.0), (12.5, 40.0), (-60.0, 179.75)])
            if rng.random() < 0.2:
                lat, lon = lat + rng.uniform(-1.0, 1.0), lon + rng.uniform(-1.0, 1.0)
            for _ in range(rng.randint(0, 3)):
                lat = math.nextafter(lat, rng.choice((-math.inf, math.inf)))
            for _ in range(rng.randint(0, 3)):
                lon = math.nextafter(lon, rng.choice((-math.inf, math.inf)))
            point = (lat, lon)
        else:
            point = (0.0, 0.1 * rng.randrange(-30, 30))
        points.add(point)
    return [_s(f"s{i:02d}", lat, lon) for i, (lat, lon) in enumerate(sorted(points))]


def _mst_reference(nodes: list[Settlement], root: int) -> NetworkDesign:
    """The heap Prim's design over the stored complete graph; where two
    points are 0 km apart, which that graph cannot hold, the design of the
    raw-edge Kruskal, whose order (w, min, max) picks the same tree."""
    points = [s.location for s in nodes]
    edges = [
        (u, v, haversine_km(*points[u], *points[v]))
        for u in range(len(points))
        for v in range(u + 1, len(points))
    ]
    if min(w for _, _, w in edges) > 0.0:
        return prim_mst_reference(euclidean_graph_reference(nodes), root=root)
    total, chosen = kruskal_mst(len(points), edges)
    return NetworkDesign(
        algorithm="MST",
        edges=tuple(sorted(chosen)),
        connected_vertices=frozenset(range(len(points))),
        excluded_terminals=frozenset(),
        total_length_km=total,
        total_penalty=0.0,
        terminal_node_count=len(points),
    )


def _small_passes(monkeypatch, caplog) -> dict[str, int]:
    """Make each pass of `prim_mst` read 7 pairs per block and keep 5, and
    count its exact windows; its DEBUG lines go to `caplog`."""
    monkeypatch.setattr(solvers, "_BLOCK_PAIRS", 7)
    monkeypatch.setattr(solvers, "_KEEP_PAIRS", 5)
    caplog.set_level(logging.DEBUG, logger=solvers.__name__)
    calls = {"exact windows": 0}
    exact_window = solvers._exact_window

    def counted(*args):
        calls["exact windows"] += 1
        return exact_window(*args)

    monkeypatch.setattr(solvers, "_exact_window", counted)
    return calls


def _mst_stats(caplog) -> list[tuple[int, ...]]:
    """(n, pairs, passes, chains, evaluations) of each `prim_mst` DEBUG line."""
    return [r.args for r in caplog.records if r.msg.startswith("prim_mst:")]


def test_mst_designs_in_many_blocks_and_passes_equal_the_heap_prim(monkeypatch, caplog):
    calls = _small_passes(monkeypatch, caplog)
    rng = random.Random(17_2026)
    kinds = ("spread", "grid", "antimeridian", "polar", "lattice", "ulps", "equator")
    zero_km = 0
    for i in range(210):
        kind = kinds[i % len(kinds)]
        nodes = _point_set(rng, kind) if kind in kinds[:4] else _tie_set(rng, kind)
        root = rng.randrange(len(nodes))
        design = prim_mst(build_euclidean_graph(*node_columns(nodes)), root=root)
        assert design == _mst_reference(nodes, root), kind
        zero_km += any(w == 0.0 for _, _, w in design.edges)
    assert zero_km >= 10
    stats = _mst_stats(caplog)
    assert len(stats) == 210
    assert sum(passes > 5 for _, _, passes, _, _ in stats) >= 100
    assert sum(chains for _, _, _, chains, _ in stats) >= 300
    assert calls["exact windows"] >= 100


def test_a_chain_that_straddles_a_pass_boundary_is_decided_in_the_next_pass(
    monkeypatch, caplog
):
    # Three pairs 0.01-0.03 degrees long, then four near-equal ones 0.1
    # degrees long: a pass keeps the three and two of the four, merges the
    # three, and leaves the chain of four to the next pass.
    calls = _small_passes(monkeypatch, caplog)
    certified = []
    certified_order = solvers._certified_order

    def recorded(*args):
        result = certified_order(*args)
        certified.append(len(result[0]))
        return result

    monkeypatch.setattr(solvers, "_certified_order", recorded)
    lons = [0.0, 0.01, 10.0, 10.02, 20.0, 20.03, 30.0, 30.1, 30.2, 30.3, 30.4]
    nodes = [_s(f"s{i:02d}", 0.0, lon) for i, lon in enumerate(lons)]
    graph = build_euclidean_graph(*node_columns(nodes))
    chain = [graph.weight(i, i + 1) for i in range(6, 10)]
    assert len(set(chain)) > 1 and max(chain) - min(chain) < 1e-9 * min(chain)
    for root in range(len(nodes)):
        design = prim_mst(graph, root=root)
        assert design == prim_mst_reference(euclidean_graph_reference(nodes), root=root)
    assert certified[:2] == [3, 4]
    assert calls["exact windows"] == 0
    assert _mst_stats(caplog)[0][3] == 1  # the chain, decided exactly


def test_great_circle_rows_equal_haversine_of_the_lower_id_first():
    # weights and weight call haversine_km with the lower id's point first,
    # whichever order the pair is given in.
    rng = random.Random(9_2026)
    for i in range(40):
        kind = ("spread", "grid", "antimeridian", "polar")[i % 4]
        nodes = _point_set(rng, kind)
        points = [s.location for s in nodes]
        graph = build_euclidean_graph(*node_columns(nodes))
        ids = list(range(len(points)))
        rng.shuffle(ids)
        for u in range(len(points)):
            targets = [v for v in ids if v != u]
            row = graph.weights([u] * len(targets), targets)
            for v, w in zip(targets, row):
                expected = haversine_km(*points[min(u, v)], *points[max(u, v)])
                assert w == expected == graph.weight(u, v) == graph.weight(v, u), (kind, u, v)


def test_numpy_haversines_keep_the_operation_order_of_haversine_km():
    # haversine_km_array and pair_keys share one in-place kernel; both give
    # the floats of numpy's expression in haversine_km's order: second point
    # minus first, and the cosine product times the squared sine.
    rng = np.random.default_rng(2026)
    lat, lon = rng.uniform(-89.0, 89.0, 300), rng.uniform(-180.0, 180.0, 300)
    cos_lat = lat_cosines(lat)
    assert cos_lat.tolist() == [math.cos(math.radians(x)) for x in lat.tolist()]

    def h(lat1, lon1, cos1, lat2, lon2, cos2):
        dphi, dlam = np.radians(lat2 - lat1), np.radians(lon2 - lon1)
        return np.sin(dphi / 2.0) ** 2 + cos1 * cos2 * np.sin(dlam / 2.0) ** 2

    for i in range(0, 300, 37):
        p = lat.item(i), lon.item(i)
        want = h(*p, math.cos(math.radians(p[0])), lat, lon, cos_lat)
        want = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.minimum(1.0, want)))
        assert haversine_km_array(*p, lat, lon, cos_lat).tobytes() == want.tobytes()
    graph = build_euclidean_graph([f"s{i}" for i in range(300)], lat, lon)
    u, v = graph.pairs(0, graph.edge_count)
    want = h(lat[u], lon[u], cos_lat[u], lat[v], lon[v], cos_lat[v])
    assert graph.pair_keys(u, v).tobytes() == want.tobytes()


def test_a_1000_node_mst_design_stores_no_complete_graph():
    rng = random.Random(1000)
    nodes = [_s(f"s{i:04d}", rng.uniform(-5.0, 5.0), rng.uniform(30.0, 40.0)) for i in range(1000)]
    tracemalloc.start()
    try:
        result = design_network("access", "mst", *node_columns(nodes), "s0000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.design.edges) == 999
    assert result.graph.edge_count == 999 * 1000 // 2
    assert peak < 5 * 2**20


def test_a_2000_node_mst_design_needs_no_more_memory_than_a_1000_node_one():
    # Four times the pairs, read in the same bounded blocks: the peak stays
    # under the 1,000-node test's bound.
    rng = random.Random(2000)
    nodes = [_s(f"s{i:04d}", rng.uniform(-5.0, 5.0), rng.uniform(30.0, 40.0)) for i in range(2000)]
    tracemalloc.start()
    try:
        result = design_network("access", "mst", *node_columns(nodes), "s0000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.design.edges) == 1999
    assert peak < 5 * 2**20


def test_traced_benchmark_child_counts_the_golden_run_as_before(tmp_path):
    # The traced benchmark wraps build_euclidean_graph, attach_terminals_to_roads,
    # prim_mst and pcst_gw at netdesign.design and counts what they return
    # (and the edges of each PCST graph), so a call that bypasses a wrapper
    # changes a count. It also counts the loaded inputs (the road graph
    # through its `vertices` and `edges`) and the calls of the names it
    # wraps for the pricing and Monte Carlo layers, which the run no longer
    # makes.
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(ROOT, "perfbench", "child.py"),
            "--scenario", os.path.join(GOLDEN, "scenario.json"),
            "--out", str(tmp_path / "out"),
            "--expected", os.path.join(GOLDEN, "expected"),
            "--trace", str(tmp_path / "trace.jsonl"),
        ],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["errors"] == []
    layers = record["layers"]
    assert layers["netdesign.graphs.euclid_edges"] == 36
    assert layers["netdesign.solvers.prim_mst_calls"] == 4
    assert layers["netdesign.graphs.attach_calls"] == 4
    assert layers["netdesign.graphs.attached_vertices"] == 129
    assert layers["netdesign.solvers.pcst_gw_calls"] == 4
    assert layers["netdesign.solvers.pcst_graph_edges"] == 125
    assert layers["geodata.settlements"] == 30
    assert layers["geodata.road_vertices"] == 32
    assert layers["geodata.road_edges"] == 31
    assert layers["geodata.fiber_segments"] == 1
    assert layers["demand.subregions"] == 15
    for unreached in ("netdesign.classify.within_buffer_calls", "costmodel.tco_calls",
                      "lca.emissions_calls", "report.mc_draws"):
        assert layers[unreached] == 0, unreached


class TestPcstDesign:
    def test_keeps_valuable_terminal_drops_cheap_one(self):
        # Root on the road's west end; "good" rides the road 27.8 km away
        # with plenty of users; "bad" sits mid-road with users worth less
        # than its spur.
        nodes = [
            _s("root", 0.0, 0.0),
            _s("good", 0.0, 1.0),
            _s("bad", 0.045, 0.5),  # ~5 km spur north of the road
        ]
        users = {"good": 200.0, "bad": 1.0}
        result = design_network(
            "access",
            "pcst",
            *node_columns(nodes),
            "root",
            roads=ROAD,
            node_users=users,
            snap_radius_km=10.0,
            prize_scale=1.0,
        )
        design = result.design
        connected = result.connected_settlements()
        assert "good" in connected
        assert "bad" not in connected
        assert design.total_penalty == pytest.approx(1.0)
        assert design.terminal_node_count == 2  # root + good
        # Full road length, no spur.
        assert design.total_length_km == pytest.approx(4 * 27.7988, abs=0.01)

    def test_requires_roads(self):
        nodes = [_s("a", 0, 0), _s("b", 0, 0.5)]
        with pytest.raises(ValueError, match="road"):
            design_network("access", "pcst", *node_columns(nodes), "a", node_users={"b": 5.0})

    def test_warns_beyond_snap(self):
        nodes = [_s("root", 0.0, 0.0), _s("far", 0.5, 0.5, pop=10)]
        result = design_network(
            "access",
            "pcst",
            *node_columns(nodes),
            "root",
            roads=ROAD,
            node_users={"far": 1e6},
            snap_radius_km=5.0,
        )
        assert any("far" in w for w in result.warnings)
        assert "far" in result.connected_settlements()

    def test_root_counting_flag(self):
        nodes = [_s("core", 0.0, 0.0), _s("t", 0.0, 1.0)]
        counted = design_network(
            "regional", "pcst", *node_columns(nodes), "core", roads=ROAD, node_users={"t": 1e4}
        )
        assert counted.design.terminal_node_count == 2
        uncounted = design_network(
            "regional",
            "pcst",
            *node_columns(nodes),
            "core",
            roads=ROAD,
            node_users={"t": 1e4},
            count_root_as_terminal=False,
        )
        assert uncounted.design.terminal_node_count == 1

    def test_determinism(self):
        nodes = [_s("root", 0.0, 0.0), _s("a", 0.0, 0.5), _s("b", 0.0, 1.0)]
        kw = dict(roads=ROAD, node_users={"a": 30.0, "b": 50.0})
        r1 = design_network("access", "pcst", *node_columns(nodes), "root", **kw)
        r2 = design_network("access", "pcst", *node_columns(nodes), "root", **kw)
        assert r1.design == r2.design


@pytest.mark.parametrize(
    "kw, match",
    [
        ({"node_users": {"b": math.nan}}, "users of settlement 'b' .* got nan"),
        ({"node_users": {"b": math.inf}}, "users of settlement 'b' .* got inf"),
        ({"prize_scale": math.nan}, "prize_scale .* got nan"),
        ({"snap_radius_km": math.nan}, "snap_radius_km .* got nan"),
    ],
    ids=["users-nan", "users-inf", "prize-scale-nan", "snap-radius-nan"],
)
def test_non_finite_numbers_raise_the_checks_of_negative_ones(kw, match):
    # Each is a ValueError naming the value, as a negative one is; a nan
    # prize must not pass as a prize overflow, nor a nan snap radius drop
    # every beyond-snap warning.
    nodes = [_s("a", 0.0, 0.0), _s("b", 0.0, 0.5)]
    with pytest.raises(ValueError, match=match):
        design_network("access", "pcst", *node_columns(nodes), "a", roads=ROAD, **kw)
