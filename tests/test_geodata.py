"""Tests for geospatial loading and distance primitives.

Expected distances were derived with independent formulas (spherical law of
cosines for great-circle distances, the destination-point formula for
constructing points at known offsets) and frozen as literals.
"""

from __future__ import annotations

import csv
import gc
import json
import math
import os
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberplan import geodata
from fiberplan.errors import DataError
from fiberplan.geodata import (
    EARTH_RADIUS_KM,
    SETTLEMENT_COLUMNS,
    CoordinateOutOfRange,
    DegenerateGeometry,
    DuplicateId,
    EmptyCollection,
    FiberLineSet,
    MissingColumn,
    NegativePopulation,
    ParseError,
    RoadGraph,
    SettlementSet,
    _NEAREST_BLOCK,
    haversine_km,
    load_fiber_lines,
    load_road_graph,
    load_settlements,
    point_segment_km,
    _band_reach_deg,
    within_buffer_mask,
)

from .oracles import (
    GeoPoint,
    edge_list,
    load_settlements_reference,
    nearest_vertex_reference,
    road_graph,
    settlement_by_id,
    settlement_set,
    settlements_of,
    within_buffer_reference,
)

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
    got = haversine_km(*a, *b)
    assert got == pytest.approx(expected, rel=1e-9)


def test_haversine_zero_iff_same_point():
    p = GeoPoint(12.5, -7.25)
    assert haversine_km(*p, *p) == 0.0
    assert haversine_km(*p, 12.5, -7.24) > 0.0


finite_lat = st.floats(min_value=-89.0, max_value=89.0)
finite_lon = st.floats(min_value=-179.0, max_value=179.0)
points = st.builds(GeoPoint, finite_lat, finite_lon)


@given(points, points)
def test_haversine_symmetric(a, b):
    assert haversine_km(*a, *b) == pytest.approx(haversine_km(*b, *a), rel=1e-12, abs=1e-12)


@given(points, points, points)
@settings(max_examples=200)
def test_haversine_triangle_inequality(a, b, c):
    direct = haversine_km(*a, *c)
    via = haversine_km(*a, *b) + haversine_km(*b, *c)
    assert direct <= via * (1 + 1e-9) + 1e-9


# --- point-to-segment / buffer --------------------------------------------

EQUATOR_SEG = (GeoPoint(0.0, 0.0), GeoPoint(0.0, 0.5))
EQUATOR_ENDS = (*EQUATOR_SEG[0], *EQUATOR_SEG[1])


def test_point_segment_perpendicular_offset():
    # 1 km due north of the segment midpoint (destination-point construction).
    p = GeoPoint(0.00899320363724538, 0.25)
    assert point_segment_km(*p, *EQUATOR_ENDS) == pytest.approx(1.0, abs=1e-6)


def test_point_segment_beyond_endpoint_clamps():
    # 2 km due east of the (0, 0.5) endpoint: nearest point is the endpoint.
    p = GeoPoint(1.1013497867541619e-18, 0.5179864072744907)
    assert point_segment_km(*p, *EQUATOR_ENDS) == pytest.approx(2.0, abs=1e-6)
    # 2 km northeast of the endpoint likewise clamps to the endpoint.
    q = GeoPoint(0.012718310448529476, 0.5127183107618675)
    assert point_segment_km(*q, *EQUATOR_ENDS) == pytest.approx(2.0, abs=1e-4)


def test_point_segment_on_vertex_is_zero():
    assert point_segment_km(*EQUATOR_SEG[0], *EQUATOR_ENDS) == 0.0


def test_point_segment_degenerate_segment():
    a = GeoPoint(0.0, 0.0)
    p = GeoPoint(0.00899320363724538, 0.0)
    assert point_segment_km(*p, *a, *a) == pytest.approx(1.0, abs=1e-6)


def test_within_buffer_thresholds():
    lines = FiberLineSet(lines=(EQUATOR_SEG,))
    p1 = GeoPoint(0.00899320363724538, 0.25)  # 1 km off
    p3 = GeoPoint(0.026979610911736143, 0.25)  # 3 km off
    assert within_buffer_mask([p1.lat], [p1.lon], lines, 2.0)[0]
    assert not within_buffer_mask([p3.lat], [p3.lon], lines, 2.0)[0]
    assert not within_buffer_mask([p1.lat], [p1.lon], lines, 0.5)[0]
    end = EQUATOR_SEG[1]
    assert within_buffer_mask([end.lat], [end.lon], lines, 0.0)[0]


def test_within_buffer_negative_radius_rejected():
    lines = FiberLineSet(lines=(EQUATOR_SEG,))
    with pytest.raises(ValueError):
        within_buffer_mask([0.0], [0.0], lines, -1.0)


@pytest.mark.parametrize("radius", [math.nan, math.inf])
def test_within_buffer_mask_rejects_a_radius_that_is_not_finite(radius):
    lines = FiberLineSet(lines=(EQUATOR_SEG,))
    with pytest.raises(ValueError):
        within_buffer_mask([0.0], [0.0], lines, radius)


@pytest.mark.parametrize("lat, lon", [([0.0], [0.5, 50.0]), ([0.0, 50.0], [0.5])])
def test_within_buffer_mask_rejects_columns_of_unequal_length(lat, lon):
    lines = FiberLineSet(lines=(EQUATOR_SEG,))
    with pytest.raises(ValueError, match="^lat and lon must have one entry per point$"):
        within_buffer_mask(lat, lon, lines, 2.0)


def test_within_buffer_mask_of_no_points_is_empty():
    mask = within_buffer_mask([], [], FiberLineSet(lines=(EQUATOR_SEG,)), 1.0)
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
    lat, lon = [p.lat for p in points], [p.lon for p in points]
    assert within_buffer_mask(lat, lon, lines, radius).tolist() == want
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
            edge = min(point_segment_km(*p, *a, *b) for a, b in segments)
            for r in (edge, math.nextafter(edge, math.inf), math.nextafter(edge, -math.inf)):
                if r >= 0.0:
                    (hit,) = _assert_mask_is_reference([p], lines, r)
                    seen["boundary-in" if r >= edge else "boundary-out"] += hit == (r >= edge)
    assert all(count >= 20 for count in seen.values()), seen

    # Each segment is only measured against the points in its latitude band:
    # points a few ulps either side of the band's edges, and of the latitudes
    # radius_km due north and south of each endpoint, where the scalar test
    # flips, on horizontal, zero-length, antimeridian and polar segments.
    seen = dict.fromkeys(("out-of-band", "edge-in", "edge-out"), 0)
    for i in range(120):
        kind = BAND_KINDS[i % len(BAND_KINDS)]
        lines = _band_instance(rng, kind)
        radius = rng.choice((0.0, rng.uniform(0.0, 4.0)))
        reach = _band_reach_deg(radius)
        points = []
        for line in lines.lines:
            for a, b in zip(line, line[1:]):
                lo, hi = min(a.lat, b.lat) - reach, max(a.lat, b.lat) + reach
                due = math.degrees(radius / EARTH_RADIUS_KM)
                edges = (lo, hi, a.lat - due, a.lat + due, b.lat - due, b.lat + due)
                for lat in _ulps_around(edges, 3):
                    points += [GeoPoint(lat, a.lon), GeoPoint(lat, b.lon)]
                    seen["out-of-band"] += not lo <= lat <= hi
        inside = _assert_mask_is_reference(points, lines, radius)
        for p, hit in zip(points, inside):
            edge = min(point_segment_km(*p, *a, *b) for line in lines.lines
                       for a, b in zip(line, line[1:]))
            if abs(edge - radius) <= 1e-9 * (radius + 1.0):
                seen["edge-in" if hit else "edge-out"] += 1
    assert all(count >= 20 for count in seen.values()), seen


BAND_KINDS = ("horizontal", "zero-length", "antimeridian", "polar", "equator", "plain")


def _band_instance(rng: random.Random, kind: str) -> FiberLineSet:
    """One fiber polyline of two to four segments, each of `kind`."""
    if kind == "polar":
        lat = rng.choice((-1, 1)) * rng.uniform(88.0, 90.0)
    else:  # on the equator the band's edges are fine enough to show its margins
        lat = 0.0 if kind == "equator" else rng.uniform(-60, 60)
    lon = rng.choice((-1, 1)) * rng.uniform(179.9, 180.0) if kind == "antimeridian" else rng.uniform(-179, 179)
    line = [GeoPoint(lat, lon)]
    for _ in range(rng.randint(2, 4)):
        if kind == "zero-length":
            line.append(line[-1])
        dlat = 0.0 if kind in ("horizontal", "equator") else rng.uniform(-0.05, 0.05)
        lat = max(-90.0, min(90.0, lat + dlat))
        if kind == "antimeridian":
            lon = -math.copysign(rng.uniform(179.9, 180.0), lon)  # every segment crosses it
        else:
            lon = _wrap_lon(lon + rng.uniform(-0.05, 0.05))
        line.append(GeoPoint(lat, lon))
    return FiberLineSet(lines=(tuple(line),))


def _ulps_around(values, k: int) -> list[float]:
    """Each value and the k floats either side of it, inside [-90, 90]."""
    out = []
    for v in values:
        below = above = v
        out.append(v)
        for _ in range(k):
            below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
            out += [below, above]
    return [v for v in out if -90.0 <= v <= 90.0]


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
    s1 = settlement_by_id(ss, "s1")
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


def test_load_settlements_csv_row_with_fields_missing(tmp_path):
    text = VALID_CSV + "b,1.5,2.5,50\n"
    path = _write(tmp_path, "s.csv", text)
    with pytest.raises(ParseError, match=r"s\.csv:5: no value for region_id, subregion_id"):
        load_settlements(path)


def test_load_settlements_csv_reads_rows_as_dict_reader_does(tmp_path):
    # Blank rows are skipped, a column named twice is read from its last
    # occurrence, and fields past the header are ignored.
    text = (
        "id,lat,lon,population,region_id,subregion_id,population\n"
        "\n"
        "a,1.0,2.0,7,R1,S1,12,extra,fields\n"
        "\n\n"
        "b,3.0,4.0,9,R1,S2,15\n"
    )
    ss = load_settlements(_write(tmp_path, "s.csv", text))
    assert [(s.id, s.population, s.subregion_id) for s in settlements_of(ss)] == [
        ("a", 12, "S1"), ("b", 15, "S2")
    ]


def test_load_settlements_csv_short_row_reads_none_past_its_end(tmp_path):
    # The row ends before the last occurrence of population, so that reads None.
    text = "id,lat,lon,population,region_id,subregion_id,population\na,1.0,2.0,7,R1,S1\n"
    with pytest.raises(ParseError, match=r"s\.csv:2: non-integer population"):
        load_settlements(_write(tmp_path, "s.csv", text))


def test_load_settlements_csv_row_numbers_count_only_rows_that_are_not_blank(tmp_path):
    text = VALID_CSV.replace("\ns2,", "\n\n\ns2,") + "\nb,1.5,2.5,-50,R1,R1-01\n"
    with pytest.raises(NegativePopulation, match=r"s\.csv:5: population -50"):
        load_settlements(_write(tmp_path, "s.csv", text))


def write_settlements_csv(settlements: SettlementSet, path: str) -> None:
    """Settlements in canonical CSV form (round-trips exactly)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SETTLEMENT_COLUMNS)
        for s in settlements_of(settlements):
            writer.writerow(
                [s.id, repr(s.location.lat), repr(s.location.lon), s.population, s.region_id, s.subregion_id]
            )


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
    with pytest.raises(ValueError, match="unknown settlements format 'shp'"):
        load_settlements(path, fmt="shp")
    assert len(ss) == 1
    assert settlement_by_id(ss, "s1").location == GeoPoint(-1.2921, 36.8219)


@pytest.mark.parametrize("key", ["id", "region_id"])
def test_load_settlements_geojson_null_property(tmp_path, key):
    import json

    props = {"id": "s1", "population": 100, "region_id": "R1", "subregion_id": "R1-01", key: None}
    doc = {
        "type": "FeatureCollection",
        "features": [
            {"type": "Feature", "geometry": {"type": "Point", "coordinates": [36.8, -1.3]}, "properties": props}
        ],
    }
    path = _write(tmp_path, "s.geojson", json.dumps(doc))
    with pytest.raises(ParseError, match=rf"feature\[0\]: no value for {key}$"):
        load_settlements(path, fmt="geojson")


def _point_doc_text(population: str) -> str:
    """One settlement feature whose population is the raw JSON token given."""
    return (
        '{"type": "FeatureCollection", "features": [{"type": "Feature", '
        '"geometry": {"type": "Point", "coordinates": [36.8, -1.3]}, '
        '"properties": {"id": "s1", "population": ' + population + ', '
        '"region_id": "R1", "subregion_id": "R1-01"}}]}'
    )


@pytest.mark.parametrize("population", ["12.5", "-0.5", "true", "false", "Infinity", "-Infinity",
                                        "NaN", "1e400"])
def test_load_settlements_geojson_rejects_a_population_that_is_not_a_whole_number(
    tmp_path, population
):
    path = _write(tmp_path, "s.geojson", _point_doc_text(population))
    with pytest.raises(ParseError, match=r"feature\[0\]: non-integer population"):
        load_settlements(path, fmt="geojson")


@pytest.mark.parametrize("population, want", [("12.0", 12), ("12", 12), ("-0.0", 0), ("0", 0)])
def test_load_settlements_geojson_reads_an_integral_population(tmp_path, population, want):
    path = _write(tmp_path, "s.geojson", _point_doc_text(population))
    got = settlement_by_id(load_settlements(path, fmt="geojson"), "s1").population
    assert (got, type(got)) == (want, int)


# --- settlements as columns -------------------------------------------------

def _settlement_rows(rng: random.Random, n: int) -> list[list]:
    """n random settlement rows: padded ids and region ids, coordinates at
    and inside the range limits, signed zeros and subnormals, populations
    with ties and above 2**63."""
    coords = [90.0, -90.0, 180.0, -180.0, -0.0, 0.0, 5e-324, 0.1 + 0.2]
    rows = []
    for i in rng.sample(range(10 * n), n):
        region = f"R{rng.randrange(4)}"
        lat = rng.choice(coords[:2] + coords[4:]) if rng.random() < 0.1 else rng.uniform(-90, 90)
        lon = rng.choice(coords[2:]) if rng.random() < 0.1 else rng.uniform(-180, 180)
        population = rng.choice((0, 7, 20_000, rng.randrange(10**6), 2**63 + rng.randrange(9),
                                 10**30 + rng.randrange(9)))
        pad = " " * rng.randrange(2)
        rows.append([f"{pad}s{i}", lat, lon, population, f"{region}{pad}",
                     f"{pad}{region}-{rng.randrange(3)}"])
    return rows


def _write_settlements(tmp_path, rows, fmt: str) -> str:
    """rows as a CSV table (floats by repr) or a GeoJSON point collection."""
    if fmt == "csv":
        path = tmp_path / "s.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(SETTLEMENT_COLUMNS)
            writer.writerows(
                [repr(v) if type(v) is float else v for v in row] for row in rows
            )
        return str(path)
    features = [
        {"type": "Feature", "geometry": {"type": "Point", "coordinates": [lon, lat]},
         "properties": {"id": sid, "population": pop, "region_id": region, "subregion_id": sub}}
        for sid, lat, lon, pop, region, sub in rows
    ]
    path = tmp_path / "s.geojson"
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
    return str(path)


def _load_outcome(load, path: str, fmt: str):
    """The settlements `load` reads, with their coordinates' bits and
    population types, or the type and message of the DataError it raises."""
    try:
        loaded = load(path, fmt)
        if isinstance(loaded, SettlementSet):
            loaded = settlements_of(loaded)
        return [
            (s, s.location.lat.hex(), s.location.lon.hex(), type(s.population))
            for s in loaded
        ]
    except DataError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("fmt", ["csv", "geojson"])
def test_load_settlements_equals_the_dataclass_loader(tmp_path, fmt):
    rng = random.Random(16_2026)
    for _ in range(30):
        rows = _settlement_rows(rng, rng.randint(1, 40))
        path = _write_settlements(tmp_path, rows, fmt)
        got = _load_outcome(load_settlements, path, fmt)
        assert got == _load_outcome(load_settlements_reference, path, fmt)
        assert len(got) == len(rows)


# Values a malformed row may hold in one field, for each format; None drops
# the field from a CSV row (a short row) and is a null in GeoJSON.
CSV_FAULTS = ["", " ", "x", "nan", "inf", "-inf", "1e400", "91", "-91", "180.5", "-180.5",
              "12.5", "-3", "-0", "1e3", "0x10", "True", None]
JSON_FAULTS = ["", " ", None, True, False, 12.5, -0.5, 12.0, -1, -1.0, "12", "x", [], {},
               math.inf, math.nan, 10**400, 91.0, -91.0, 180.5, -200.0, "-180.5", 7]


@pytest.mark.parametrize("fmt", ["csv", "geojson"])
def test_load_settlements_raises_the_dataclass_loaders_first_error(tmp_path, fmt):
    """A corpus of malformed tables: one to three rows with a bad field, or
    an id repeated, in any order. The first error's type and message are
    the reference loader's, or both load the same settlements."""
    rng = random.Random(16_16)
    faults = CSV_FAULTS if fmt == "csv" else JSON_FAULTS
    kinds = dict.fromkeys(("ok", "ParseError", "DuplicateId", "CoordinateOutOfRange",
                           "NegativePopulation"), 0)
    for _ in range(600):
        rows = _settlement_rows(rng, rng.randint(2, 12))
        for _ in range(rng.randint(1, 3)):
            row = rng.choice(rows)
            if rng.random() < 0.15:
                row[0] = rng.choice(rows)[0]  # an id read twice
            else:
                row[rng.randrange(len(row))] = rng.choice(faults)
        for row in rows:
            if fmt == "csv" and None in row:
                del row[row.index(None):]
        path = _write_settlements(tmp_path, rows, fmt)
        got = _load_outcome(load_settlements, path, fmt)
        assert got == _load_outcome(load_settlements_reference, path, fmt), rows
        kinds["ok" if isinstance(got, list) else got[0].__name__] += 1
    assert all(count >= 10 for count in kinds.values()), kinds


def test_settlement_set_holds_columns_and_builds_settlements_on_demand(tmp_path):
    rows = _settlement_rows(random.Random(3), 25)
    ss = load_settlements(_write_settlements(tmp_path, rows, "csv"))
    assert (ss.lat.dtype, ss.lon.dtype) == (np.float64, np.float64)
    assert not ss.lat.flags.writeable and not ss.lon.flags.writeable
    assert all(type(p) is int for p in ss.population)
    assert [ss.lat[i].hex() for i in range(len(ss))] == [float(r[1]).hex() for r in rows]
    assert ss.population == tuple(r[3] for r in rows)  # exact, past 2**63 too
    assert ss.region_id == tuple(r[4].strip() for r in rows)
    assert all(ss.row[sid] == i for i, sid in enumerate(ss.ids))
    built = settlements_of(ss)
    assert [s.location for s in built] == list(zip(ss.lat.tolist(), ss.lon.tolist()))
    assert built == [settlement_by_id(ss, s) for s in ss.ids]
    assert settlement_set(built).ids == ss.ids and settlements_of(settlement_set(built)) == built
    assert len(settlement_set([])) == 0
    columns = (ss.ids, ss.lat, ss.lon, ss.population, ss.region_id, ss.subregion_id)
    with pytest.raises(ValueError, match="duplicate"):
        SettlementSet(*([column[0]] * 2 for column in columns))
    with pytest.raises(ValueError, match="one entry per id"):
        SettlementSet(ss.ids, ss.lat[:-1], *columns[2:])


def test_settlement_table_retains_only_its_columns(tmp_path):
    """A 12,000-row table (120 regions, 4,320 subregions) keeps its id
    tuple, lat and lon arrays, population ints, one str per distinct region
    and subregion id, and the id -> row dict: about 2.5 MiB. Two dataclasses
    per row held about 5.15 MiB, and 5.54 MiB with their id index."""
    rng = random.Random(12_000)
    path = tmp_path / "s.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SETTLEMENT_COLUMNS)
        for i in range(12_000):
            region, sub = divmod(i % 4320, 36)
            writer.writerow([f"s{i:05d}", f"{rng.uniform(-1, 1):.6f}", f"{rng.uniform(29, 31):.6f}",
                             rng.randrange(60_000), f"R{region:03d}", f"R{region:03d}S{sub:03d}"])
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ss = load_settlements(str(path))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert (len(ss), len(set(ss.region_id)), len(set(ss.subregion_id))) == (12_000, 120, 4320)
    assert retained <= 3.4 * 1024 * 1024, f"{retained / 2**20:.2f} MiB retained"


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
    line = fl.lines[0]
    assert line == ((-1.0, 36.0), (-1.2, 36.5), (-1.1, 37.0))  # (lat, lon) pairs
    assert math.fsum(haversine_km(*a, *b) for a, b in zip(line, line[1:])) > 0


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
    assert rg.n == 3
    assert len(edge_list(rg)) == 2
    for u, v, w in edge_list(rg):
        assert u < v
        assert w == pytest.approx(haversine_km(*rg.point(u), *rg.point(v)))


def test_a_road_segment_whose_length_underflows_is_degenerate(tmp_path):
    # The positions differ, but the haversine of 1e-320 degrees is 0.0 km.
    doc = _line_doc([[0.0, 0.0], [1e-320, 0.0]])
    with pytest.raises(DegenerateGeometry, match=r"feature\[0\]: polyline has zero length$"):
        load_road_graph(_write(tmp_path, "r.geojson", json.dumps(doc)))
    doc = _line_doc([[0.0, 0.0], [1e-320, 0.0], [1.0, 0.0]])
    message = r"feature\[0\]: segment from \(lat=0.0, lon=0.0\) to \(lat=0.0, lon=1e-320\) has"
    with pytest.raises(DegenerateGeometry, match=message + " zero length$"):
        load_road_graph(_write(tmp_path, "r.geojson", json.dumps(doc)))


def test_load_road_graph_dedupes_parallel_edges(tmp_path):
    import json

    doc = _line_doc([[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]])
    rg = load_road_graph(_write(tmp_path, "r.geojson", json.dumps(doc)))
    assert len(edge_list(rg)) == 1


def test_load_road_graph_skips_zero_length_segments(tmp_path):
    import json

    doc = _line_doc([[0.0, 0.0], [0.0, 0.0], [0.5, 0.0]])
    rg = load_road_graph(_write(tmp_path, "r.geojson", json.dumps(doc)))
    assert len(edge_list(rg)) == 1
    assert all(w > 0 for _, _, w in edge_list(rg))


def test_load_road_graph_rejects_a_segment_of_zero_km_between_distinct_positions(tmp_path):
    import json

    doc = _line_doc([[0.0, 0.0], [1e-200, 0.0], [0.1, 0.0]])
    with pytest.raises(DegenerateGeometry, match=r"feature\[0\].*zero length"):
        load_road_graph(_write(tmp_path, "r.geojson", json.dumps(doc)))


@pytest.mark.parametrize(
    "load",
    [load_settlements, lambda path: load_settlements(path, "geojson"), load_fiber_lines,
     load_road_graph],
    ids=["settlements-csv", "settlements-geojson", "fiber", "roads"],
)
def test_loaders_turn_an_unreadable_path_into_a_data_error(tmp_path, load):
    with pytest.raises(DataError, match="cannot read"):
        load(str(tmp_path))  # a directory


def test_load_road_graph_empty(tmp_path):
    import json

    with pytest.raises(EmptyCollection):
        load_road_graph(_write(tmp_path, "r.geojson", json.dumps(_line_doc())))


# --- road graph arrays ---------------------------------------------------------

GOLDEN_ROADS = os.path.join(os.path.dirname(__file__), "data", "golden", "roads.geojson")


def test_road_arrays_csr_keeps_lightest_parallel_edge():
    roads = road_graph(
        vertices=(GeoPoint(0.0, 0.0), GeoPoint(0.0, 1.0), GeoPoint(1.0, 0.0)),
        edges=((0, 1, 5.0), (1, 0, 3.0), (0, 2, 2.0)),
    )
    u, v, w = roads.edge_arrays()
    assert [u.tolist(), v.tolist(), w.tolist()] == [[0, 0], [1, 2], [3.0, 2.0]]
    assert (u.dtype, v.dtype, w.dtype) == (np.int64, np.int64, np.float64)
    assert not any(a.flags.writeable for a in (u, v, w))
    assert all(a is b for a, b in zip(roads.edge_arrays(), (u, v, w)))  # stored, not rebuilt
    assert edge_list(roads) == [(0, 1, 3.0), (0, 2, 2.0)]
    assert roads.edge_count == 2


def test_road_graph_point_returns_the_loaders_floats_bit_for_bit():
    given = (GeoPoint(-0.0, 0.1 + 0.2), GeoPoint(5e-324, -0.0), GeoPoint(-89.99999999999999, 180.0))
    roads = road_graph(vertices=given, edges=((0, 1, 1.0), (1, 2, 1.0)))
    for v, p in enumerate(given):
        lat, lon = roads.point(v)
        assert (type(lat), type(lon)) == (float, float)
        assert (lat.hex(), lon.hex()) == (p.lat.hex(), p.lon.hex())  # -0.0 stays -0.0
    assert roads.n == 3
    assert tuple(map(roads.point, range(roads.n))) == given


def test_road_graph_retains_only_its_flat_arrays():
    """A 200 x 200 grid (40,000 vertices, 79,600 edges) keeps its lat, lon
    and cos_lat, the latitude order, and one (u, v, w) array triple: about
    3.4 MiB, and no point or edge objects once the inputs are dropped."""
    side = 200
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        vertices = [GeoPoint(r * 0.01, c * 0.01) for r in range(side) for c in range(side)]
        edges = [(r * side + c, r * side + c + 1, 1.1) for r in range(side) for c in range(side - 1)]
        edges += [(r * side + c, (r + 1) * side + c, 1.1) for r in range(side - 1) for c in range(side)]
        roads = road_graph(vertices, edges)
        del vertices, edges
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert (roads.n, roads.edge_count) == (40_000, 79_600)
    assert retained <= 4 * 1024 * 1024, f"{retained / 2**20:.2f} MiB retained"


def test_load_road_graph_merges_signed_zeros_at_the_first_segment_endpoint(tmp_path):
    import json

    # (-0.0, -0.0) equals (0.0, 0.0), so the first segment is skipped and
    # vertex 0 takes its coordinates from the second segment's start.
    doc = _line_doc([[-0.0, -0.0], [0.0, 0.0], [1.0, 1.0]], [[1.0, 1.0], [-0.0, 0.0]])
    roads = load_road_graph(_write(tmp_path, "r.geojson", json.dumps(doc)))
    assert [tuple(x.hex() for x in roads.point(v)) for v in range(roads.n)] == [
        ("0x0.0p+0", "0x0.0p+0"), ("0x1.0000000000000p+0", "0x1.0000000000000p+0")
    ]
    assert [(u, v) for u, v, _ in edge_list(roads)] == [(0, 1)]


def test_load_road_graph_peaks_below_a_point_and_segment_list(tmp_path):
    """Loading a 200 x 200 road grid (40,000 vertices, 79,600 edges) from
    GeoJSON fills flat buffers: the traced peak is about 18.2 MiB, the
    parsed document included. Holding a point object list, a dict keyed by
    them and a tuple per segment on the way peaked at about 24.6 MiB."""
    import json

    side = 200
    grid = [[[round(36.0 + c * 0.01, 6), round(-1.0 + r * 0.01, 6)] for c in range(side)]
            for r in range(side)]
    lines = grid + [[row[c] for row in grid] for c in range(side)]
    path = _write(tmp_path, "roads.geojson", json.dumps(_line_doc(*lines)))
    del grid, lines
    gc.collect()
    tracemalloc.start()
    try:
        roads = load_road_graph(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (roads.n, roads.edge_count) == (40_000, 79_600)
    assert peak <= 21 * 1024 * 1024, f"{peak / 2**20:.2f} MiB traced peak"


@pytest.mark.parametrize(
    "edges",
    [((0, 0, 1.0),), ((0, 2, 1.0),), ((0, 1, 0.0),), ((0, 1, float("nan")),)],
    ids=["self-loop", "out-of-range", "zero-weight", "nan-weight"],
)
def test_road_arrays_reject_bad_edges(edges):
    with pytest.raises(ValueError):
        road_graph(vertices=(GeoPoint(0.0, 0.0), GeoPoint(0.0, 1.0)), edges=edges)


def test_nearest_vertex_equals_a_full_haversine_scan():
    roads = load_road_graph(GOLDEN_ROADS)
    vertices = [GeoPoint(*roads.point(v)) for v in range(roads.n)]
    lats = [p.lat for p in vertices]
    lons = [p.lon for p in vertices]
    rng = random.Random(5)
    points = [GeoPoint(rng.uniform(min(lats), max(lats)), rng.uniform(min(lons), max(lons)))
              for _ in range(200)]
    points += vertices[:20]  # coincident: distance exactly 0
    for p in points:
        want = min((haversine_km(*p, *q), v) for v, q in enumerate(vertices))
        assert roads.nearest_vertices([p.lat], [p.lon])[0] == (want[1], want[0])


def test_nearest_vertex_ties_go_to_the_lowest_id():
    # (0, 0.25) is exactly as far from vertex 2 at (0, 0.5) as from vertex 1 at (0, 0).
    roads = road_graph(
        vertices=(GeoPoint(1.0, 0.0), GeoPoint(0.0, 0.0), GeoPoint(0.0, 0.5)),
        edges=((0, 1, 111.0), (1, 2, 55.6)),
    )
    p = GeoPoint(0.0, 0.25)
    assert haversine_km(*p, *roads.point(1)) == haversine_km(*p, *roads.point(2))
    assert roads.nearest_vertices([p.lat], [p.lon])[0] == (1, haversine_km(*p, *roads.point(1)))


def _shuffled_grid(rng: random.Random, side: int, lat0: float, lon0: float, spacing: float,
                   jitter: float) -> RoadGraph:
    """A side x side road grid whose vertex ids are shuffled, so id order
    and latitude order disagree."""
    cells = [(r, c) for r in range(side) for c in range(side)]
    rng.shuffle(cells)
    where = {cell: i for i, cell in enumerate(cells)}
    vertices = [
        GeoPoint(
            max(-90.0, min(90.0, lat0 + (r + rng.uniform(-jitter, jitter)) * spacing)),
            lon0 + (c + rng.uniform(-jitter, jitter)) * spacing,
        )
        for r, c in cells
    ]
    edges = []
    for (r, c), i in where.items():
        for cell in ((r + 1, c), (r, c + 1)):
            if cell in where:
                j = where[cell]
                edges.append((i, j, haversine_km(*vertices[i], *vertices[j])))
    return road_graph(vertices, edges)


@pytest.mark.parametrize(
    "side, lat0, jitter",
    [(40, 0.5, 0.1), (80, -12.0, 0.1), (20, 84.0, 0.1), (12, -89.5, 0.1), (30, 45.0, 0.0)],
    ids=["1600-vertices", "6400-vertices", "above-80N", "at-the-south-pole", "exact-lattice"],
)
def test_nearest_vertex_equals_the_full_scan_reference(side, lat0, jitter):
    rng = random.Random(side * 1000 + int(lat0))
    spacing = 0.02 if lat0 != -89.5 else 0.03125
    roads = _shuffled_grid(rng, side, lat0, 30.0, spacing, jitter)
    span = side * spacing
    lat_hi = min(90.0, lat0 + span)

    def clamp(lat: float) -> float:
        return max(-90.0, min(90.0, lat))

    points = [  # inside the grid
        GeoPoint(rng.uniform(lat0, lat_hi), rng.uniform(30.0, 30.0 + span)) for _ in range(300)
    ]
    # beside the grid: within one grid span of an edge of it
    points += [
        GeoPoint(clamp(lat0 + rng.uniform(-1.0, 2.0) * span), 30.0 + rng.uniform(-1.0, 2.0) * span)
        for _ in range(150)
    ]
    # far outside, anywhere on the globe
    points += [GeoPoint(rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)) for _ in range(100)]
    points += [GeoPoint(90.0, 0.0), GeoPoint(-90.0, 0.0)]
    # coincident: distance exactly 0
    points += [GeoPoint(*roads.point(v)) for v in rng.sample(range(roads.n), 30)]
    for p in points:
        assert roads.nearest_vertices([p.lat], [p.lon])[0] == nearest_vertex_reference(roads, p), p


def test_nearest_vertex_breaks_ties_across_latitudes_by_id():
    # p is exactly as far from the vertices 0.25 degrees north and south of
    # it (dlam = 0, so only dphi counts), and those two are its nearest; the
    # lower id wins whichever side of p it lies on.
    offsets = [(0.25, 0.0), (-0.25, 0.0), (0.0, 0.5), (0.0, -0.5)]
    p = GeoPoint(10.5, 30.5)
    for order in ([0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1], [1, 3, 0, 2]):
        vertices = [GeoPoint(10.5 + offsets[k][0], 30.5 + offsets[k][1]) for k in order]
        roads = road_graph(vertices, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        north, south = order.index(0), order.index(1)
        assert haversine_km(*p, *vertices[north]) == haversine_km(*p, *vertices[south])
        want = (min(north, south), haversine_km(*p, *vertices[north]))
        assert nearest_vertex_reference(roads, p) == want
        assert roads.nearest_vertices([p.lat], [p.lon])[0] == want


@pytest.mark.parametrize("lat, lon", [([0.0, 1.0], [0.5]), ([0.5], [0.0, 1.0])])
def test_nearest_vertices_rejects_columns_of_unequal_length(lat, lon):
    roads = road_graph([GeoPoint(0.0, 0.0), GeoPoint(1.0, 1.0)], [(0, 1, 157.0)])
    with pytest.raises(ValueError, match="^lat and lon must have one entry per point$"):
        roads.nearest_vertices(lat, lon)


def _assert_nearest_vertices_match(roads: RoadGraph, points: list[GeoPoint]) -> None:
    """`nearest_vertices` over all points equals the full scan point by
    point, and each point alone gives the same."""
    lat, lon = [p.lat for p in points], [p.lon for p in points]
    found = roads.nearest_vertices(lat, lon)
    assert found == [nearest_vertex_reference(roads, p) for p in points]
    for p, one in zip(points, found):
        assert roads.nearest_vertices([p.lat], [p.lon])[0] == one


def _widened(monkeypatch) -> list[int]:
    """Count the points that `nearest_vertices` measures again beyond their
    window (the rows its blocks pass to `_band_shortlist`)."""
    calls = [0]
    shortlist = RoadGraph._band_shortlist

    def counted(self, plat, plon, cos_p, rows, lo, hi):
        calls[0] += len(rows)
        return shortlist(self, plat, plon, cos_p, rows, lo, hi)

    monkeypatch.setattr(RoadGraph, "_band_shortlist", counted)
    return calls


@pytest.mark.parametrize(
    "side, lat0",
    [(20, 0.5), (12, -89.5), (20, 84.0)],
    ids=["400-vertices", "at-the-south-pole", "above-80N"],
)
def test_nearest_vertices_beyond_either_latitude_end(side, lat0):
    # The windows of points south and north of the grid lie at its ends.
    rng = random.Random(side + int(lat0))
    spacing = 0.03125 if lat0 < -89.0 else 0.02
    roads = _shuffled_grid(rng, side, lat0, 30.0, spacing, 0.1)
    south, north = float(roads.lat.min()), float(roads.lat.max())
    points = [GeoPoint(max(-90.0, south - rng.uniform(0.0, 1.0)), rng.uniform(29.5, 31.0))
              for _ in range(60)]
    points += [GeoPoint(min(90.0, north + rng.uniform(0.0, 1.0)), rng.uniform(29.5, 31.0))
               for _ in range(60)]
    points += [GeoPoint(south, 30.0), GeoPoint(north, 30.0), GeoPoint(-90.0, 0.0),
               GeoPoint(90.0, 0.0)]
    _assert_nearest_vertices_match(roads, points)


@pytest.mark.parametrize("n", [1, 2, 5, 31, 32])
def test_nearest_vertices_on_graphs_smaller_than_one_window(n):
    # 2 * 16 vertices make the smallest window; below it, every point's
    # window is the whole graph.
    rng = random.Random(n)
    vertices = [GeoPoint(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(n)]
    roads = road_graph(vertices, [(i, i + 1, 1.0) for i in range(n - 1)])
    points = [GeoPoint(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)) for _ in range(50)]
    points += vertices  # on a vertex: distance exactly 0
    _assert_nearest_vertices_match(roads, points)
    assert roads.nearest_vertices([p.lat for p in vertices], [p.lon for p in vertices]) == [
        (v, 0.0) for v in range(n)
    ]


def test_nearest_vertices_widens_only_the_windows_that_miss_the_nearest(monkeypatch):
    # 200 vertices along the equator far to the east, and one 0.5 degrees
    # north of the points: a point on the equator near longitude 0 sees only
    # equator vertices in its window, yet the lone vertex is its nearest.
    vertices = [GeoPoint(0.0, 10.0 + 0.1 * i) for i in range(200)] + [GeoPoint(0.5, 0.0)]
    roads = road_graph(vertices, [(i, i + 1, 1.0) for i in range(200)])
    widened = _widened(monkeypatch)
    near_origin = [GeoPoint(0.0, 0.01 * i) for i in range(-10, 11)]
    # Points next to the lone vertex: the only vertex within their reach.
    near_lone = [GeoPoint(0.5, 0.001 * i) for i in range(-10, 11)]
    points = near_origin + near_lone
    found = roads.nearest_vertices([p.lat for p in points], [p.lon for p in points])
    assert widened[0] == len(near_origin)
    assert found == [nearest_vertex_reference(roads, p) for p in points]
    assert {v for v, _ in found} == {200}
    _assert_nearest_vertices_match(roads, points)


@pytest.mark.parametrize("cells", [1, 150, 1 << 18], ids=["one-band-a-run", "runs", "one-run"])
def test_nearest_vertices_measures_widened_bands_in_runs_of_any_size(monkeypatch, cells):
    # Points south of a shuffled grid and west of it, so their windows miss
    # vertices on the far side of the grid: every band holds many vertices,
    # and a small run size splits a block's bands over several numpy passes.
    rng = random.Random(cells)
    roads = _shuffled_grid(rng, 12, 10.0, 30.0, 0.05, 0.01)
    points = [GeoPoint(rng.uniform(9.0, 10.7), rng.uniform(25.0, 29.9)) for _ in range(300)]
    monkeypatch.setattr(geodata, "_BAND_CELLS", cells)
    widened = _widened(monkeypatch)
    found = roads.nearest_vertices([p.lat for p in points], [p.lon for p in points])
    assert widened[0] > 100
    assert found == [nearest_vertex_reference(roads, p) for p in points]


def test_nearest_vertices_breaks_ties_across_latitudes_by_id():
    # Each point is exactly as far from the vertices 0.25 degrees north and
    # south of it; the lower id wins, whichever side of the point it lies on.
    offsets = [(0.25, 0.0), (-0.25, 0.0), (0.0, 0.5), (0.0, -0.5)]
    rng = random.Random(3)
    vertices, points, want = [], [], []
    for j in range(40):
        centre = GeoPoint(10.5 + j, 30.5)
        order = rng.sample(range(4), 4)
        base = len(vertices)
        vertices += [GeoPoint(centre.lat + offsets[k][0], centre.lon + offsets[k][1])
                     for k in order]
        north, south = base + order.index(0), base + order.index(1)
        assert haversine_km(*centre, *vertices[north]) == haversine_km(*centre, *vertices[south])
        points.append(centre)
        want.append((min(north, south), haversine_km(*centre, *vertices[north])))
    roads = road_graph(vertices, [(i, i + 1, 1.0) for i in range(len(vertices) - 1)])
    assert roads.nearest_vertices([p.lat for p in points], [p.lon for p in points]) == want
    _assert_nearest_vertices_match(roads, points)


def test_nearest_vertices_of_no_points_is_empty():
    roads = _shuffled_grid(random.Random(1), 10, 0.0, 0.0, 0.02, 0.1)
    assert roads.nearest_vertices([], []) == []
    assert roads.nearest_vertices(np.empty(0), np.empty(0)) == []
    assert RoadGraph((), (), (), (), ()).nearest_vertices([], []) == []


def test_nearest_vertices_on_a_graph_with_no_vertices_is_refused():
    roads = RoadGraph((), (), (), (), ())
    with pytest.raises(ValueError, match="^road graph has no vertices$"):
        roads.nearest_vertices([0.0], [0.0])


@pytest.mark.parametrize(
    "count", [_NEAREST_BLOCK - 1, _NEAREST_BLOCK, _NEAREST_BLOCK + 1, 2 * _NEAREST_BLOCK + 1]
)
def test_nearest_vertices_across_a_block_boundary(count):
    rng = random.Random(count)
    roads = _shuffled_grid(rng, 30, 45.0, 30.0, 0.02, 0.1)
    points = [GeoPoint(rng.uniform(44.5, 46.0), rng.uniform(29.5, 31.0))
              for _ in range(count - 3)]
    points += [GeoPoint(*roads.point(v)) for v in rng.sample(range(roads.n), 3)]
    rng.shuffle(points)
    _assert_nearest_vertices_match(roads, points)
