"""Tests for the end-to-end pipeline: attribution, conservation, goldens."""

import dataclasses
import math
import os
import random

import pytest

from fiberplan.config import load_scenario
from fiberplan.demand import SubregionDemand
from fiberplan.errors import ConfigError, DataError
from fiberplan.geodata import GeoPoint, Settlement, SettlementSet, haversine_km
from fiberplan.netdesign.classify import ClassificationResult
from fiberplan.pipeline import (
    _pick_backbone_root,
    build_demand,
    emit_outputs,
    load_inputs,
    run_monte_carlo,
    run_pipeline,
)
from fiberplan.report import KeyMismatch

from .oracles import load_settlements_reference, pick_backbone_root_reference

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_DIR = os.path.join(DATA, "golden")
GOLDEN = os.path.join(GOLDEN_DIR, "scenario.json")
EXPECTED = os.path.join(GOLDEN_DIR, "expected")
TINY = os.path.join(DATA, "tiny", "scenario.json")

GOLDEN_FILES = (
    "demand.csv",
    "design_access_mst.geojson",
    "design_access_pcst.geojson",
    "design_regional_mst.geojson",
    "design_regional_pcst.geojson",
    "mc_summary.csv",
    "report.csv",
)


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_out")
    cfg = load_scenario(GOLDEN, out_dir=str(out))
    result = run_pipeline(cfg)
    mc_rows = run_monte_carlo(cfg, result)
    emit_outputs(cfg, result, mc_rows=mc_rows)
    return cfg, result, out


def test_golden_outputs_are_byte_identical_to_committed(golden_run):
    _, _, out = golden_run
    for name in GOLDEN_FILES:
        expected = open(os.path.join(EXPECTED, name), "rb").read()
        actual = open(os.path.join(out, name), "rb").read()
        assert actual == expected, f"{name} drifted from the committed golden bytes"


def test_golden_backbone_roots_at_the_core_and_reaches_every_region(golden_run):
    _, result, _ = golden_run
    for selection in ("mst", "pcst"):
        (regional,) = result.designs[(selection, "regional")]
        assert regional.root_id == "r1s1b"  # the settlement inside the core buffer
        connected = set(regional.connected_settlements())
        assert {"r1s3a", "r2s1a", "r3s1a"} <= connected
        # the core attachment is existing plant, not a billed terminal
        assert regional.design.terminal_node_count == 3


def test_golden_prize_solver_drops_exactly_the_uneconomic_terminals(golden_run):
    _, result, _ = golden_run
    dropped: set[str] = set()
    for access in result.designs[("pcst", "access")]:
        connected = set(access.connected_settlements())
        dropped |= set(access.terminal_vertex) - connected
    assert dropped == {"r1s5a", "r2s5a", "r3s3a", "r3s4a", "r3s5a"}
    for access in result.designs[("mst", "access")]:
        assert set(access.connected_settlements()) == set(access.terminal_vertex)


def test_golden_users_conserved_per_level_and_algorithm(golden_run):
    _, result, _ = golden_run
    by_group: dict[tuple[str, str], float] = {}
    for row in result.rows:
        key = (row.level, row.algorithm)
        by_group[key] = by_group.get(key, 0.0) + row.users
    assert len(by_group) == 4
    for total in by_group.values():
        assert total == pytest.approx(result.demand.total_users, rel=1e-12)
    assert result.demand.total_users == pytest.approx(831.5, rel=1e-12)


def test_golden_region_users_are_computed_once_and_carried_by_every_unit(golden_run):
    _, result, _ = golden_run
    stage = result.demand
    assert list(stage.users_by_region) == sorted({unit.key for unit in result.units})
    assert math.fsum(stage.users_by_region.values()) == pytest.approx(
        stage.total_users, rel=1e-12
    )
    for unit in result.units:
        assert unit.users == stage.users_by_region[unit.key]


def test_run_monte_carlo_without_a_monte_carlo_section_is_a_config_error():
    cfg = load_scenario(TINY)
    assert cfg.mc is None
    result = run_pipeline(cfg)
    with pytest.raises(ConfigError, match="needs a monte_carlo section"):
        run_monte_carlo(cfg, result)


def test_golden_backbone_length_is_fully_attributed(golden_run):
    _, result, _ = golden_run
    for selection, tag in (("mst", "MST"), ("pcst", "PCST_GW")):
        (regional,) = result.designs[(selection, "regional")]
        row_total = math.fsum(
            r.total_length_km
            for r in result.rows
            if r.level == "regional" and r.algorithm == tag
        )
        assert row_total == pytest.approx(regional.design.total_length_km, rel=1e-12)
        nodes = sum(
            u.node_count for u in result.units if u.level == "regional" and u.algorithm == tag
        )
        assert nodes == regional.design.terminal_node_count


def test_golden_access_length_matches_designs(golden_run):
    _, result, _ = golden_run
    for selection, tag in (("mst", "MST"), ("pcst", "PCST_GW")):
        design_total = math.fsum(
            d.design.total_length_km for d in result.designs[(selection, "access")]
        )
        row_total = math.fsum(
            r.total_length_km
            for r in result.rows
            if r.level == "access" and r.algorithm == tag
        )
        assert row_total == pytest.approx(design_total, rel=1e-12)


def test_golden_regions_report_at_their_anchor_subregion_decile(golden_run):
    _, result, _ = golden_run
    deciles = {u.key: u.decile for u in result.units}
    assert deciles == {"R1": 1, "R2": 1, "R3": 2}


def test_golden_equal_count_deciles_cover_one_to_ten(golden_run):
    _, result, _ = golden_run
    deciles = sorted(r.decile for r in result.demand.records)
    assert deciles == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 7, 8, 9, 10]


def test_tiny_scenario_uses_band_fallback_and_warns(tmp_path):
    cfg = load_scenario(TINY, out_dir=str(tmp_path))
    result = run_pipeline(cfg)
    assert any("density bands" in w for w in result.warnings)
    assert any("backbone rooted at regional node" in w for w in result.warnings)
    assert len(result.rows) == 2  # one decile, two levels, one algorithm
    (access_row,) = [r for r in result.rows if r.level == "access"]
    assert access_row.decile == 2
    assert access_row.users == pytest.approx(160.0, rel=1e-12)
    (access,) = result.designs[("mst", "access")]
    assert len(access.design.edges) == 2
    # the fallback backbone root is a real station and is billed
    (regional,) = result.designs[("mst", "regional")]
    assert regional.design.terminal_node_count == 1
    assert regional.design.total_length_km == 0.0


def test_a_region_the_backbone_does_not_reach_keeps_its_users_at_zero_quantities(tmp_path):
    # R3's largest settlement (24,000) is under the threshold: R3 has no regional node
    cfg = dataclasses.replace(
        load_scenario(GOLDEN, out_dir=str(tmp_path)), main_settlement_threshold=25_000
    )
    result = run_pipeline(cfg)
    assert result.classification.regional_nodes == {"R1": "r1s3a", "R2": "r2s1a"}
    for selection, tag in (("mst", "MST"), ("pcst", "PCST_GW")):
        (regional,) = result.designs[(selection, "regional")]
        units = {u.key: u for u in result.units if u.level == "regional" and u.algorithm == tag}
        assert sorted(units) == ["R1", "R2", "R3"]
        unreached = units["R3"]
        assert (unreached.decile, unreached.users) == (2, pytest.approx(167.75, rel=1e-12))
        assert (unreached.node_count, unreached.length_km, unreached.opex_share) == (0, 0.0, 0.0)
        for region in ("R1", "R2"):
            unit = units[region]
            assert (unit.node_count, unit.opex_share) == (1, 0.5)
            assert unit.length_km == regional.design.total_length_km / 2


def test_a_run_without_regional_nodes_has_zero_backbone_units(tmp_path):
    cfg = dataclasses.replace(
        load_scenario(TINY, out_dir=str(tmp_path)), main_settlement_threshold=30_000
    )
    result = run_pipeline(cfg)
    assert result.designs[("mst", "regional")] == []
    assert result.warnings[-1] == "no regional nodes: the backbone level is empty"
    (unit,) = [u for u in result.units if u.level == "regional"]
    assert (unit.key, unit.decile, unit.algorithm) == ("R1", 2, "MST")
    assert unit.users == pytest.approx(160.0, rel=1e-12)
    assert (unit.node_count, unit.length_km, unit.opex_share) == (0, 0.0, 0.0)


def test_a_run_without_regional_nodes_warns_once_for_both_algorithms(tmp_path):
    cfg = dataclasses.replace(
        load_scenario(GOLDEN, out_dir=str(tmp_path)), main_settlement_threshold=10**9
    )
    result = run_pipeline(cfg)
    assert result.designs[("mst", "regional")] == result.designs[("pcst", "regional")] == []
    assert result.warnings.count("no regional nodes: the backbone level is empty") == 1


def test_emit_outputs_designs_only_writes_no_csv(tmp_path):
    cfg = load_scenario(TINY, out_dir=str(tmp_path / "out"))
    result = run_pipeline(cfg)
    written = emit_outputs(cfg, result, designs_only=True)
    names = sorted(os.path.basename(p) for p in written)
    assert names == ["design_access_mst.geojson", "design_regional_mst.geojson"]
    assert sorted(os.listdir(cfg.output_dir)) == names


def test_missing_area_row_for_settled_subregion(tmp_path):
    areas = tmp_path / "areas.csv"
    areas.write_text("subregion_id,area_km2\nT1,50\nT2,80\n")  # T3 missing
    import json

    doc = {
        "inputs": {
            "settlements": os.path.join(DATA, "tiny", "settlements.csv"),
            "areas": str(areas),
        },
        "adoption_rate": 0.005,
        "algorithms": ["mst"],
    }
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(doc))
    cfg = load_scenario(str(cfg_path))
    with pytest.raises(DataError, match="T3"):
        load_inputs(cfg)


def test_subregion_spanning_two_regions_rejected(tmp_path):
    settlements = tmp_path / "settlements.csv"
    settlements.write_text(
        "id,lat,lon,population,region_id,subregion_id\n"
        "a,0.0,36.0,1000,R1,S1\n"
        "b,0.1,36.1,2000,R2,S1\n"
    )
    areas = tmp_path / "areas.csv"
    areas.write_text("subregion_id,area_km2\nS1,10\n")
    import json

    doc = {
        "inputs": {"settlements": str(settlements), "areas": str(areas)},
        "adoption_rate": 0.005,
        "algorithms": ["mst"],
    }
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="spans regions"):
        load_inputs(load_scenario(str(cfg_path)))


def test_area_only_subregions_carry_zero_users(tmp_path):
    areas = tmp_path / "areas.csv"
    base = open(os.path.join(DATA, "tiny", "areas.csv")).read()
    areas.write_text(base + "EMPTY,500\n")
    import json

    doc = {
        "inputs": {
            "settlements": os.path.join(DATA, "tiny", "settlements.csv"),
            "areas": str(areas),
        },
        "adoption_rate": 0.005,
        "algorithms": ["mst"],
    }
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(doc))
    cfg = load_scenario(str(cfg_path))
    inputs = load_inputs(cfg)
    stage = build_demand(cfg, inputs)
    empty = [r for r in stage.records if r.subregion_id == "EMPTY"]
    assert len(empty) == 1
    assert empty[0].population == 0
    assert stage.users_by_subregion["EMPTY"] == 0.0
    assert stage.total_users == pytest.approx(160.0, rel=1e-12)


def test_demand_sums_populations_past_2_63_exactly(tmp_path):
    """Populations past any fixed-width integer load as Python ints and are
    summed per subregion exactly; the reference loader's settlements give
    the same sums."""
    import json

    rng = random.Random(2**63)
    rows = []
    for i in range(60):
        sub = f"S{i % 12:02d}"
        population = rng.choice((0, 1, 2**63 - 1, 2**63, 2**64 + rng.randrange(10**6)))
        rows.append(f"s{i},{rng.uniform(-1, 1)!r},{rng.uniform(30, 32)!r},{population},R{i % 3},{sub}\n")
    settlements = tmp_path / "settlements.csv"
    settlements.write_text("id,lat,lon,population,region_id,subregion_id\n" + "".join(rows))
    areas = tmp_path / "areas.csv"
    areas.write_text("subregion_id,area_km2\n" + "".join(f"S{i:02d},1e9\n" for i in range(12)))
    doc = {
        "inputs": {"settlements": str(settlements), "areas": str(areas)},
        "adoption_rate": 0.005,
        "algorithms": ["mst"],
    }
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(doc))
    cfg = load_scenario(str(cfg_path))
    stage = build_demand(cfg, load_inputs(cfg))
    want: dict[str, int] = {}
    for s in load_settlements_reference(str(settlements)):
        want[s.subregion_id] = want.get(s.subregion_id, 0) + s.population
    assert {r.subregion_id: r.population for r in stage.records} == want
    assert max(want.values()) > 2**64
    assert all(type(r.population) is int for r in stage.records)


def test_region_decile_requires_a_demand_record():
    from fiberplan.pipeline import _region_decile
    from fiberplan.geodata import GeoPoint, Settlement, SettlementSet

    settlements = SettlementSet.of([Settlement("a", GeoPoint(0.0, 36.0), 1000, "R1", "S1")])
    classification = ClassificationResult(
        core_adjacent=(),
        region_anchor={"R1": "a"},
        regional_nodes={"R1": "a"},
        access_nodes={},
        regions_without_candidate=(),
    )
    demand_index: dict[str, SubregionDemand] = {}
    with pytest.raises(KeyMismatch):
        _region_decile("R1", classification, settlements, demand_index)


def _root_pick_case(rng, kind):
    """Settlements and a classification for one backbone root pick: core
    settlements, regional nodes and a few settlements with neither role, laid out
    as `kind` says; ids are shuffled so their order is not the layout's."""
    def spot():
        if kind == "antimeridian":
            return rng.uniform(-30.0, 30.0), rng.choice((1, -1)) * rng.uniform(179.0, 180.0)
        if kind == "polar":
            return rng.choice((1, -1)) * rng.uniform(80.0, 90.0), rng.uniform(-180.0, 180.0)
        return rng.uniform(-20.0, 20.0), rng.uniform(10.0, 50.0)

    n_core = 0 if kind == "no_core" else rng.randint(1, 25)
    n_rnod = 0 if kind == "no_rnod" else rng.randint(1, 8)
    cores = [spot() for _ in range(n_core)]
    rnods = [spot() for _ in range(n_rnod)]
    if kind == "mirror":  # two cores equally near a regional node, nearer than any other
        lat, lon = rnods[0]
        dlat, dlon = rng.uniform(-0.01, 0.01), rng.uniform(0.001, 0.01)
        cores[:2] = [(lat + dlat, lon - dlon), (lat + dlat, lon + dlon)]
    elif kind == "zero":  # a core settlement on a regional node
        cores[0] = rnods[rng.randrange(n_rnod)]
    ids = [f"s{i:03d}" for i in rng.sample(range(1000), n_core + n_rnod + 3)]
    settlements, core_adjacent, regional_nodes = [], [], {}
    for i, (lat, lon) in enumerate(cores + rnods + [spot() for _ in range(3)]):
        sid = ids[i]
        region = f"R{i}"
        settlements.append(
            Settlement(sid, GeoPoint(lat, lon), rng.choice((100, 200, 300)), region, f"{region}-1")
        )
        if i < n_core:
            core_adjacent.append(sid)
        elif i < n_core + n_rnod:
            regional_nodes[region] = sid
    classification = ClassificationResult(
        core_adjacent=tuple(sorted(core_adjacent)),
        region_anchor={s.region_id: s.id for s in settlements},
        regional_nodes=regional_nodes,
        access_nodes={},
        regions_without_candidate=(),
    )
    return classification, SettlementSet.of(settlements)


def test_backbone_root_equals_the_scalar_scan():
    rng = random.Random(2_2026)
    kinds = ("spread", "mirror", "zero", "antimeridian", "polar", "no_core", "no_rnod")
    seen = dict.fromkeys(kinds + ("tie",), 0)
    for i in range(210):
        kind = kinds[i % len(kinds)]
        classification, settlements = _root_pick_case(rng, kind)
        picked = _pick_backbone_root(classification, settlements)
        assert picked == pick_backbone_root_reference(classification, settlements), kind
        seen[kind] += 1
        rnods = [settlements.by_id(s).location for s in classification.regional_nodes.values()]
        nearest = sorted(
            min(haversine_km(settlements.by_id(sid).location, r) for r in rnods)
            for sid in classification.core_adjacent
            if rnods
        )
        seen["tie"] += len(nearest) > 1 and nearest[0] == nearest[1]
        if kind == "zero":
            assert nearest[0] == 0.0
        if kind == "no_core":
            assert picked[1] and len(picked[2]) == 1
    assert seen["tie"] >= 25, seen
