"""Tests for geospatial loading and distance primitives.

Expected distances were derived with independent formulas (spherical law of
cosines for great-circle distances, the destination-point formula for
constructing points at known offsets) and frozen as literals.
"""

from __future__ import annotations

import math
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberplan.geodata import (
    CoordinateOutOfRange,
    DegenerateGeometry,
    DuplicateId,
    EmptyCollection,
    FiberLineSet,
    GeoPoint,
    MissingColumn,
    NegativePopulation,
    ParseError,
    RoadGraph,
    SettlementSet,
    haversine_km,
    load_fiber_lines,
    load_road_graph,
    load_settlements,
    point_segment_km,
    polyline_length_km,
    within_buffer,
    within_buffer_mask,
    write_settlements_csv,
)

from .oracles import within_buffer_reference

# --- haversine -------------------------------------------------------------

# Derived via spherical law of cosines, R = 6371.0088 km.
KNOWN_DISTANCES = [
    ((0.0, 0.0), (1.0, 0.0), 111.19508023352181),
    ((0.0, 0.0), (0.0, 180.0), 20015.114442035923),
    ((10.0, 5.0), (20.0, 5.0), 1111.9508023353303),
    ((-1.2921, 36.8219), (-4.0435, 39.6682), 439.92386958769634),
]


@pytest.mark.parametrize("a,b,expected", KNOWN_DISTANCES)
def test_haversine_known_values(a, b, expected):
    got = haversine_km(GeoPoint(*a), GeoPoint(*b))
    assert got == pytest.approx(expected, rel=1e-9)


def test_haversine_zero_iff_same_point():
    p = GeoPoint(12.5, -7.25)
    assert haversine_km(p, p) == 0.0
    assert haversine_km(p, GeoPoint(12.5, -7.24)) > 0.0


finite_lat = st.floats(min_value=-89.0, max_value=89.0)
finite_lon = st.floats(min_value=-179.0, max_value=179.0)
points = st.builds(GeoPoint, finite_lat, finite_lon)


@given(points, points)
def test_haversine_symmetric(a, b):
    assert haversine_km(a, b) == pytest.approx(haversine_km(b, a), rel=1e-12, abs=1e-12)


@given(points, points, points)
@settings(max_examples=200)
def test_haversine_triangle_inequality(a, b, c):
    direct = haversine_km(a, c)
    via = haversine_km(a, b) + haversine_km(b, c)
    assert direct <= via * (1 + 1e-9) + 1e-9


# --- point-to-segment / buffer --------------------------------------------

EQUATOR_SEG = (GeoPoint(0.0, 0.0), GeoPoint(0.0, 0.5))


def test_point_segment_perpendicular_offset():
    # 1 km due north of the segment midpoint (destination-point construction).
    p = GeoPoint(0.00899320363724538, 0.25)
    assert point_segment_km(p, *EQUATOR_SEG) == pytest.approx(1.0, abs=1e-6)


def test_point_segment_beyond_endpoint_clamps():
    # 2 km due east of the (0, 0.5) endpoint: nearest point is the endpoint.
    p = GeoPoint(1.1013497867541619e-18, 0.5179864072744907)
    assert point_segment_km(p, *EQUATOR_SEG) == pytest.approx(2.0, abs=1e-6)
    # 2 km northeast of the endpoint likewise clamps to the endpoint.
    q = GeoPoint(0.012718310448529476, 0.5127183107618675)
    assert point_segment_km(q, *EQUATOR_SEG) == pytest.approx(2.0, abs=1e-4)


def test_point_segment_on_vertex_is_zero():
    assert point_segment_km(EQUATOR_SEG[0], *EQUATOR_SEG) == 0.0


def test_point_segment_degenerate_segment():
    a = GeoPoint(0.0, 0.0)
    p = GeoPoint(0.00899320363724538, 0.0)
    assert point_segment_km(p, a, a) == pytest.approx(1.0, abs=1e-6)


def test_within_buffer_thresholds():
    lines = FiberLineSet(lines=(EQUATOR_SEG,))
    p1 = GeoPoint(0.00899320363724538, 0.25)  # 1 km off
    p3 = GeoPoint(0.026979610911736143, 0.25)  # 3 km off
    assert within_buffer(p1, lines, 2.0)
    assert not within_buffer(p3, lines, 2.0)
    assert not within_buffer(p1, lines, 0.5)
    assert within_buffer(EQUATOR_SEG[1], lines, 0.0)


def test_within_buffer_negative_radius_rejected():
    lines = FiberLineSet(lines=(EQUATOR_SEG,))
    with pytest.raises(ValueError):
        within_buffer(GeoPoint(0, 0), lines, -1.0)


@pytest.mark.parametrize("radius", [math.nan, math.inf])
def test_within_buffer_mask_rejects_a_radius_that_is_not_finite(radius):
    lines = FiberLineSet(lines=(EQUATOR_SEG,))
    with pytest.raises(ValueError):
        within_buffer_mask([GeoPoint(0, 0)], lines, radius)


def test_within_buffer_mask_of_no_points_is_empty():
    mask = within_buffer_mask([], FiberLineSet(lines=(EQUATOR_SEG,)), 1.0)
    assert mask.dtype == bool and mask.shape == (0,)


def _wrap_lon(lon: float) -> float:
    return lon - 360.0 if lon > 180.0 else lon + 360.0 if lon < -180.0 else lon


def _buffer_instance(rng: random.Random, kind: str) -> tuple[FiberLineSet, list[GeoPoint]]:
    """Random fiber polylines around one centre and points scattered near
    them; `kind` adds the feature under test."""
    if kind == "polar":
        lat0 = rng.choice((-1, 1)) * rng.uniform(80.0, 89.5)
    else:
        lat0 = rng.uniform(-70.0, 70.0)
    if kind == "antimeridian":
        lon0 = rng.choice((-1, 1)) * rng.uniform(179.8, 180.0)
    else:
        lon0 = rng.uniform(-179.0, 179.0)
    lines = []
    for _ in range(rng.randint(1, 3)):
        lat, lon = lat0 + rng.uniform(-0.1, 0.1), _wrap_lon(lon0 + rng.uniform(-0.1, 0.1))
        line = [GeoPoint(lat, lon)]
        for _ in range(rng.randint(1, 5)):
            lat = max(-90.0, min(90.0, lat + rng.uniform(-0.1, 0.1)))
            lon = _wrap_lon(lon + rng.uniform(-0.15, 0.15))
            line.append(GeoPoint(lat, lon))
            if kind == "repeated" and rng.random() < 0.5:
                line.append(line[-1])  # zero-length segment, as the loader allows
        lines.append(tuple(line))
    vertices = [p for line in lines for p in line]
    points = []
    for _ in range(24):
        v = rng.choice(vertices)
        lat = max(-90.0, min(90.0, v.lat + rng.uniform(-0.05, 0.05)))
        points.append(GeoPoint(lat, _wrap_lon(v.lon + rng.uniform(-0.05, 0.05))))
    if kind == "zero-radius":
        points += rng.sample(vertices, min(4, len(vertices)))
    return FiberLineSet(lines=tuple(lines)), points


def _assert_mask_is_reference(points, lines, radius) -> list[bool]:
    want = [within_buffer_reference(p, lines, radius) for p in points]
    assert within_buffer_mask(points, lines, radius).tolist() == want
    return want


BUFFER_KINDS = ("plain", "antimeridian", "repeated", "zero-radius", "polar", "boundary")


def test_within_buffer_mask_equals_the_per_segment_scalar_test():
    """The mask is the scalar test point for point, including where a
    numpy distance and `point_segment_km` may differ in the last bits:
    radii set to a point's exact scalar distance and one ulp either side."""
    rng = random.Random(20241128)
    seen = dict.fromkeys(
        ("antimeridian", "repeated", "zero-radius-hit", "polar", "boundary-in", "boundary-out"), 0
    )
    for i in range(360):
        kind = BUFFER_KINDS[i % len(BUFFER_KINDS)]
        lines, points = _buffer_instance(rng, kind)
        segments = [(a, b) for line in lines.lines for a, b in zip(line, line[1:])]
        seen["antimeridian"] += any(abs(a.lon - b.lon) > 180.0 for a, b in segments)
        seen["repeated"] += any(a == b for a, b in segments)
        seen["polar"] += any(abs(p.lat) > 80.0 for p in points)
        radius = 0.0 if kind == "zero-radius" else rng.uniform(0.0, 4.0)
        inside = _assert_mask_is_reference(points, lines, radius)
        if kind == "zero-radius":
            seen["zero-radius-hit"] += any(inside)
        if kind != "boundary":
            continue
        for p in points:
            edge = min(point_segment_km(p, a, b) for a, b in segments)
            for r in (edge, math.nextafter(edge, math.inf), math.nextafter(edge, -math.inf)):
                if r >= 0.0:
                    (hit,) = _assert_mask_is_reference([p], lines, r)
                    seen["boundary-in" if r >= edge else "boundary-out"] += hit == (r >= edge)
    assert all(count >= 20 for count in seen.values()), seen


# --- settlements CSV -------------------------------------------------------

VALID_CSV = """id,lat,lon,population,region_id,subregion_id
s1,-1.2921,36.8219,4397073,R1,R1-01
s2,-4.0435,39.6682,1208333,R1,R1-02
s3,0.5143,35.2698,475000,R2,R2-01
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_load_settlements_csv(tmp_path):
    path = _write(tmp_path, "s.csv", VALID_CSV)
    ss = load_settlements(path)
    assert len(ss) == 3
    s1 = ss.by_id("s1")
    assert s1.location == GeoPoint(-1.2921, 36.8219)
    assert s1.population == 4397073
    assert s1.region_id == "R1"
    assert s1.subregion_id == "R1-01"


def test_load_settlements_missing_column(tmp_path):
    path = _write(tmp_path, "s.csv", "id,lat,lon,population,region_id\na,0,0,1,R1\n")
    with pytest.raises(MissingColumn, match="subregion_id"):
        load_settlements(path)


def test_load_settlements_duplicate_id(tmp_path):
    text = VALID_CSV + "s1,0,0,5,R2,R2-02\n"
    with pytest.raises(DuplicateId, match="s1"):
        load_settlements(_write(tmp_path, "s.csv", text))


def test_load_settlements_bad_latitude(tmp_path):
    text = "id,lat,lon,population,region_id,subregion_id\na,91.0,0,1,R1,R1-01\n"
    with pytest.raises(CoordinateOutOfRange, match="91"):
        load_settlements(_write(tmp_path, "s.csv", text))


def test_load_settlements_bad_longitude(tmp_path):
    text = "id,lat,lon,population,region_id,subregion_id\na,0,-180.5,1,R1,R1-01\n"
    with pytest.raises(CoordinateOutOfRange):
        load_settlements(_write(tmp_path, "s.csv", text))


def test_load_settlements_negative_population(tmp_path):
    text = "id,lat,lon,population,region_id,subregion_id\na,0,0,-5,R1,R1-01\n"
    with pytest.raises(NegativePopulation, match="-5"):
        load_settlements(_write(tmp_path, "s.csv", text))


def test_load_settlements_non_numeric(tmp_path):
    text = "id,lat,lon,population,region_id,subregion_id\na,x,0,1,R1,R1-01\n"
    with pytest.raises(ParseError):
        load_settlements(_write(tmp_path, "s.csv", text))


def test_settlements_csv_round_trip(tmp_path):
    path = _write(tmp_path, "s.csv", VALID_CSV)
    ss = load_settlements(path)
    out1 = tmp_path / "o1.csv"
    write_settlements_csv(ss, str(out1))
    ss2 = load_settlements(str(out1))
    out2 = tmp_path / "o2.csv"
    write_settlements_csv(ss2, str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_load_settlements_geojson(tmp_path):
    doc = {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [36.8219, -1.2921]},
                "properties": {"id": "s1", "population": 100, "region_id": "R1", "subregion_id": "R1-01"},
            }
        ],
    }
    import json

    path = _write(tmp_path, "s.geojson", json.dumps(doc))
    ss = load_settlements(path, fmt="geojson")
    assert len(ss) == 1
    assert ss.by_id("s1").location == GeoPoint(-1.2921, 36.8219)


# --- fiber lines -----------------------------------------------------------

def _line_doc(*coord_lists, gtype="LineString"):
    feats = []
    for coords in coord_lists:
        feats.append({"type": "Feature", "geometry": {"type": gtype, "coordinates": coords}, "properties": {}})
    return {"type": "FeatureCollection", "features": feats}


def test_load_fiber_lines(tmp_path):
    import json

    doc = _line_doc([[36.0, -1.0], [36.5, -1.2], [37.0, -1.1]])
    fl = load_fiber_lines(_write(tmp_path, "f.geojson", json.dumps(doc)))
    assert len(fl.lines) == 1
    assert len(fl.lines[0]) == 3
    assert polyline_length_km(fl.lines[0]) > 0


def test_load_fiber_lines_multilinestring(tmp_path):
    import json

    doc = _line_doc([[[0, 0], [0.1, 0]], [[0.2, 0], [0.3, 0]]], gtype="MultiLineString")
    fl = load_fiber_lines(_write(tmp_path, "f.geojson", json.dumps(doc)))
    assert len(fl.lines) == 2


def test_load_fiber_lines_empty(tmp_path):
    import json

    with pytest.raises(EmptyCollection):
        load_fiber_lines(_write(tmp_path, "f.geojson", json.dumps(_line_doc())))


def test_load_fiber_lines_single_vertex(tmp_path):
    import json

    doc = _line_doc([[36.0, -1.0]])
    with pytest.raises(DegenerateGeometry):
        load_fiber_lines(_write(tmp_path, "f.geojson", json.dumps(doc)))


def test_load_fiber_lines_zero_length(tmp_path):
    import json

    doc = _line_doc([[36.0, -1.0], [36.0, -1.0]])
    with pytest.raises(DegenerateGeometry):
        load_fiber_lines(_write(tmp_path, "f.geojson", json.dumps(doc)))


# --- road graph ------------------------------------------------------------

def test_load_road_graph_shares_vertices(tmp_path):
    import json

    # Two features meeting at (0.5, 0): junction vertex is shared.
    doc = _line_doc([[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.4]])
    rg = load_road_graph(_write(tmp_path, "r.geojson", json.dumps(doc)))
    assert len(rg.vertices) == 3
    assert len(rg.edges) == 2
    for u, v, w in rg.edges:
        assert u < v
        assert w == pytest.approx(haversine_km(rg.vertices[u], rg.vertices[v]))


def test_load_road_graph_dedupes_parallel_edges(tmp_path):
    import json

    doc = _line_doc([[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]])
    rg = load_road_graph(_write(tmp_path, "r.geojson", json.dumps(doc)))
    assert len(rg.edges) == 1


def test_load_road_graph_skips_zero_length_segments(tmp_path):
    import json

    doc = _line_doc([[0.0, 0.0], [0.0, 0.0], [0.5, 0.0]])
    rg = load_road_graph(_write(tmp_path, "r.geojson", json.dumps(doc)))
    assert len(rg.edges) == 1
    assert all(w > 0 for _, _, w in rg.edges)


def test_load_road_graph_empty(tmp_path):
    import json

    with pytest.raises(EmptyCollection):
        load_road_graph(_write(tmp_path, "r.geojson", json.dumps(_line_doc())))


# --- road graph arrays ---------------------------------------------------------

GOLDEN_ROADS = os.path.join(os.path.dirname(__file__), "data", "golden", "roads.geojson")


def test_road_arrays_csr_keeps_lightest_parallel_edge():
    roads = RoadGraph(
        vertices=(GeoPoint(0.0, 0.0), GeoPoint(0.0, 1.0), GeoPoint(1.0, 0.0)),
        edges=((0, 1, 5.0), (1, 0, 3.0), (0, 2, 2.0)),
    )
    arrays = roads.arrays()
    assert arrays is roads.arrays()  # built once, then shared
    assert arrays.indptr.tolist() == [0, 2, 3, 4]
    assert arrays.indices.tolist() == [1, 2, 0, 0]
    assert arrays.weights.tolist() == [3.0, 2.0, 3.0, 2.0]
    assert [a.tolist() for a in arrays.upper_edges()] == [[0, 0], [1, 2], [3.0, 2.0]]
    assert arrays.weight(1, 0) == 3.0
    with pytest.raises(KeyError):
        arrays.weight(1, 2)


@pytest.mark.parametrize(
    "edges",
    [((0, 0, 1.0),), ((0, 2, 1.0),), ((0, 1, 0.0),), ((0, 1, float("nan")),)],
    ids=["self-loop", "out-of-range", "zero-weight", "nan-weight"],
)
def test_road_arrays_reject_bad_edges(edges):
    roads = RoadGraph(vertices=(GeoPoint(0.0, 0.0), GeoPoint(0.0, 1.0)), edges=edges)
    with pytest.raises(ValueError):
        roads.arrays()


def test_nearest_vertex_equals_a_full_haversine_scan():
    roads = load_road_graph(GOLDEN_ROADS)
    lats = [p.lat for p in roads.vertices]
    lons = [p.lon for p in roads.vertices]
    rng = random.Random(5)
    points = [GeoPoint(rng.uniform(min(lats), max(lats)), rng.uniform(min(lons), max(lons)))
              for _ in range(200)]
    points += list(roads.vertices[:20])  # coincident: distance exactly 0
    for p in points:
        want = min((haversine_km(p, q), v) for v, q in enumerate(roads.vertices))
        assert roads.nearest_vertex(p) == (want[1], want[0])


def test_nearest_vertex_ties_go_to_the_lowest_id():
    # (0, 0.25) is exactly as far from vertex 2 at (0, 0.5) as from vertex 1 at (0, 0).
    roads = RoadGraph(
        vertices=(GeoPoint(1.0, 0.0), GeoPoint(0.0, 0.0), GeoPoint(0.0, 0.5)),
        edges=((0, 1, 111.0), (1, 2, 55.6)),
    )
    p = GeoPoint(0.0, 0.25)
    assert haversine_km(p, roads.vertices[1]) == haversine_km(p, roads.vertices[2])
    assert roads.nearest_vertex(p) == (1, haversine_km(p, roads.vertices[1]))
