"""Acceptance gate: nine end-to-end checks, one test per criterion.

Each test is a single pass/fail line under `pytest -v`. Tolerances are
stated inline; anything not explicitly toleranced is compared exactly.
"""

import json
import math
import os
import random
import time

import numpy as np
import pytest

from fiberplan.cli import main as cli_main
from fiberplan.config import load_scenario
from fiberplan.costmodel import CostBook, capex_quantities, opex_npv
from fiberplan.demand import AdoptionScenario, assign_deciles, potential_users
from fiberplan.lca import (
    EmissionFactorBook,
    _construction,
    _eolt,
    _fiber_mfg,
    _node_mass,
    _nonfiber_mfg,
    _operations,
    _transport,
    emissions_quantities,
)
from fiberplan.netdesign.graphs import PrizedGraph
from fiberplan.netdesign.solvers import pcst_gw, prim_mst
from fiberplan.pipeline import run_pipeline
from fiberplan.report import (
    MC_METRICS,
    Distribution,
    McConfig,
    ReportUnit,
    build_report,
    draw_parameters,
    monte_carlo,
    scc,
)

from .oracles import (
    WeightedGraph,
    graph_from_edges,
    kruskal_mst,
    pcst_exact,
    random_connected_edges,
    random_prized_instance,
)

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "golden", "scenario.json")
EXPECTED = os.path.join(DATA, "golden", "expected")


def test_criterion_1_mst_total_matches_independent_oracle_on_1000_graphs():
    """1,000 seeded random connected graphs (n <= 50): tree totals equal the
    independent union-find oracle's exactly; wall time under 10 s."""
    rng = random.Random(20_2401)
    start = time.monotonic()
    for _ in range(1000):
        n = rng.randrange(2, 51)
        edges = random_connected_edges(rng, n)
        expected_total, _ = kruskal_mst(n, edges)
        design = prim_mst(graph_from_edges(n, edges))
        assert design.total_length_km == expected_total
        assert len(design.edges) == n - 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


def test_criterion_2_pcst_sandwich_on_500_instances_and_two_vertex_cases():
    """500 seeded prized graphs (<= 12 vertices): exact <= approximate
    <= 2 x exact (1e-9 absolute guard for float roundoff); the prize-3/cost-5
    and prize-10/cost-5 two-vertex cases match the exact solver; under 60 s."""
    rng = random.Random(77_1002)
    start = time.monotonic()
    for _ in range(500):
        n = rng.randrange(2, 13)
        prized = random_prized_instance(rng, n)
        exact = pcst_exact(prized)
        approx = pcst_gw(prized)
        assert exact.objective <= approx.objective + 1e-9
        assert approx.objective <= 2.0 * exact.objective + 1e-9

    for prize, want_connected in ((3.0, False), (10.0, True)):
        g = WeightedGraph(2)
        g.add_edge(0, 1, 5.0)
        prized = PrizedGraph(graph=g, prizes={1: prize}, root=0)
        exact = pcst_exact(prized)
        approx = pcst_gw(prized)
        assert approx.objective == exact.objective
        assert (1 in approx.connected_vertices) is want_connected
        assert (1 in exact.connected_vertices) is want_connected
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_criterion_3_cost_fixture_is_exact():
    """1 node + 10 km at default prices: capex exactly 243,000 USD; with a
    zero discount rate the 31-term opex stream is exactly 31 x 522,000."""
    book = CostBook()
    assert capex_quantities(1, 10.0, book) == 243_000.0
    flat = CostBook(discount_rate=0.0)
    assert opex_npv(flat) == 31 * 522_000.0


def test_criterion_4_lca_fixture_values_and_additivity():
    """1 km + 1 node: manufacturing 762.081 kg (1e-9); 100 km construction
    65.20 +/- 0.01 kg; 1-node end-of-life 116.57 +/- 0.01 kg; the five phases
    sum to the reported total within 1e-9 relative on 1,000 random inputs."""
    book = EmissionFactorBook()
    mfg = _fiber_mfg(1.0, book) + _nonfiber_mfg(1, book)
    assert mfg == pytest.approx(762.081, abs=1e-9)
    assert _construction(100.0, book) == pytest.approx(65.20, abs=0.01)
    assert _eolt(0.0, 1, book) == pytest.approx(116.57, abs=0.01)

    rng = random.Random(40_4040)
    for _ in range(1000):
        d = rng.uniform(0.0, 5000.0)
        nodes = rng.randrange(0, 200)
        users = rng.uniform(0.0, 1e6) if rng.random() < 0.9 else 0.0
        got = emissions_quantities(d, nodes, users, book)
        shipping_mass = d * book.cable_kg_per_km + nodes * _node_mass(book)
        phases = [
            _fiber_mfg(d, book) + _nonfiber_mfg(nodes, book),
            _transport(d, shipping_mass, book),
            _construction(d, book),
            users * _operations(users, users / nodes, book)
            if users > 0 and nodes > 0
            else 0.0,
            _eolt(d, nodes, book),
        ]
        assert got.total_kg == pytest.approx(math.fsum(phases), rel=1e-9)
        assert [got.mfg_kg, got.trans_kg, got.constr_kg, got.ops_kg, got.eolt_kg] == (
            pytest.approx(phases, rel=1e-9)
        )


def test_criterion_5_social_carbon_cost_exact_and_linear():
    """One tonne at 75 USD/tonne is exactly 75 USD; doubling either the mass
    or the price exactly doubles the cost."""
    assert scc(1000.0, 75.0) == 75.0
    rng = random.Random(55_5055)
    for _ in range(200):
        kg = rng.uniform(0.0, 1e7)
        price = rng.uniform(0.0, 500.0)
        base = scc(kg, price)
        assert scc(2.0 * kg, price) == 2.0 * base
        assert scc(kg, 2.0 * price) == 2.0 * base
    assert scc(1000.0, 75.0) + scc(2000.0, 75.0) == scc(3000.0, 75.0)


def test_criterion_6_adoption_example_exact_and_population_conserved():
    """10,000 people at 0.5% adoption is exactly 50 users; splitting 10,000
    random subregions into deciles preserves ids and total population
    exactly."""
    scenario = AdoptionScenario(adoption_rate=0.005, min_density_per_km2=0.0)
    users_per_km2 = potential_users(10_000.0, scenario)  # density on 1 km2
    assert users_per_km2 * 1.0 == 50.0

    rng = random.Random(66_0606)
    triples = [
        (f"s{i:05d}", rng.randrange(0, 1_000_000), rng.uniform(0.1, 10_000.0))
        for i in range(10_000)
    ]
    records = assign_deciles(triples, scenario)
    assert len(records) == 10_000
    assert sum(r.population for r in records) == sum(t[1] for t in triples)
    assert sorted(r.subregion_id for r in records) == sorted(t[0] for t in triples)
    sizes = {}
    for r in records:
        sizes[r.decile] = sizes.get(r.decile, 0) + 1
    assert sizes == {d: 1000 for d in range(1, 11)}


def _write_density_contrast_scenario(tmp_path) -> str:
    """Two regions: a compact 1,000-users/km2 cluster and a dispersed
    5-users/km2 chain, connected by one long road."""
    dense = [
        ("d0", 0.00, 36.00, 25_000, "DENSE", "D1"),
        ("d1", 0.01, 36.00, 10_000, "DENSE", "D2"),
        ("d2", 0.02, 36.00, 10_000, "DENSE", "D3"),
        ("d3", 0.03, 36.00, 10_000, "DENSE", "D4"),
    ]
    sparse = [
        ("s0", 0.00, 37.00, 1_000, "SPARSE", "S1"),
        ("s1", 0.00, 37.35, 500, "SPARSE", "S2"),
        ("s2", 0.00, 37.70, 500, "SPARSE", "S3"),
        ("s3", 0.00, 38.05, 500, "SPARSE", "S4"),
    ]
    areas = {
        "D1": 25.0,
        "D2": 10.0,
        "D3": 10.0,
        "D4": 10.0,
        "S1": 200.0,
        "S2": 100.0,
        "S3": 100.0,
        "S4": 100.0,
    }
    rows = ["id,lat,lon,population,region_id,subregion_id"]
    coord = {}
    for sid, lat, lon, pop, region, sub in dense + sparse:
        rows.append(f"{sid},{lat},{lon},{pop},{region},{sub}")
        coord[sid] = (lon, lat)
    (tmp_path / "settlements.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "areas.csv").write_text(
        "subregion_id,area_km2\n"
        + "".join(f"{sid},{areas[sid]}\n" for sid in sorted(areas))
    )
    chains = [["d0", "d1", "d2", "d3"], ["d3", "s0"], ["s0", "s1", "s2", "s3"]]
    features = [
        {
            "type": "Feature",
            "geometry": {
                "type": "LineString",
                "coordinates": [list(coord[sid]) for sid in chain],
            },
            "properties": {},
        }
        for chain in chains
    ]
    (tmp_path / "roads.geojson").write_text(
        json.dumps({"type": "FeatureCollection", "features": features})
    )
    scenario = {
        "inputs": {
            "settlements": "settlements.csv",
            "areas": "areas.csv",
            "roads": "roads.geojson",
        },
        "adoption_rate": 1.0,
        "min_density_per_km2": 0.0,
        "main_settlement_threshold": 500,
        "algorithms": ["mst", "pcst"],
        "output_dir": "out",
    }
    (tmp_path / "scenario.json").write_text(json.dumps(scenario))
    return str(tmp_path / "scenario.json")


def test_criterion_7_sparse_decile_costs_more_per_user_under_both_algorithms(tmp_path):
    """Dense (1,000 users/km2, compact) vs sparse (5 users/km2, dispersed,
    >= 10x length per user): the sparse decile shows strictly higher
    annualized per-user cost, per-user emissions, and per-user social carbon
    cost at both network levels under both algorithms, and the per-user cost
    ratio exceeds 10x."""
    cfg = load_scenario(_write_density_contrast_scenario(tmp_path))
    result = run_pipeline(cfg)

    records = {r.subregion_id: r for r in result.demand.records}
    assert all(records[s].users_per_km2 == 1000.0 for s in ("D1", "D2", "D3", "D4"))
    assert all(records[s].users_per_km2 == 5.0 for s in ("S1", "S2", "S3", "S4"))

    rows = {(r.decile, r.level, r.algorithm): r for r in result.rows}
    deciles = sorted({r.decile for r in result.rows})
    assert deciles == [1, 10], f"expected a dense and a sparse decile, got {deciles}"

    for tag in ("MST", "PCST_GW"):
        # fixture property: dispersed cluster needs >= 10x the fiber per user
        dense_access = rows[(1, "access", tag)]
        sparse_access = rows[(10, "access", tag)]
        dense_lpu = dense_access.total_length_km / dense_access.users
        sparse_lpu = sparse_access.total_length_km / sparse_access.users
        assert sparse_lpu / dense_lpu >= 10.0

        for level in ("access", "regional"):
            dense_row = rows[(1, level, tag)]
            sparse_row = rows[(10, level, tag)]
            for metric in (
                "annualized_tco_per_user_usd",
                "per_user_kg_co2e",
                "scc_per_user_usd",
            ):
                dense_value = getattr(dense_row, metric)
                sparse_value = getattr(sparse_row, metric)
                assert sparse_value > dense_value, (tag, level, metric)
            ratio = (
                sparse_row.annualized_tco_per_user_usd
                / dense_row.annualized_tco_per_user_usd
            )
            assert ratio > 10.0, f"{tag} {level}: per-user cost ratio {ratio:.1f} <= 10"


def test_criterion_8_monte_carlo_determinism_and_uniform_mean(tmp_path):
    """Same seed: bit-identical mc_summary.csv. All-fixed distributions:
    summaries equal the deterministic report field-for-field. A uniform
    parameter's sample mean lands within 1% of its midpoint at 10,000
    draws."""
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert cli_main(["mc", "--config", GOLDEN, "--out", str(out)]) == 0
    assert (out1 / "mc_summary.csv").read_bytes() == (out2 / "mc_summary.csv").read_bytes()

    units = [
        ReportUnit(
            key="R", decile=3, level="access", algorithm="MST",
            users=500.0, node_count=4, length_km=25.0,
        ),
        ReportUnit(
            key="R", decile=9, level="access", algorithm="MST",
            users=0.0, node_count=1, length_km=40.0,
        ),
    ]
    cost_book, factor_book = CostBook(), EmissionFactorBook()
    base = build_report(units, cost_book, factor_book)
    fixed = McConfig(
        draws=16,
        seed=99,
        distributions={
            "c_olt": Distribution(kind="fixed"),
            "cf_glass_per_kg": Distribution(kind="fixed"),
        },
    )
    summary = {
        (r.metric, r.decile): r for r in monte_carlo(units, cost_book, factor_book, fixed)
    }
    for row in base:
        for metric in MC_METRICS:
            got = summary[(metric, row.decile)]
            want = getattr(row, metric)
            assert got.mean == want and got.p5 == want
            assert got.p50 == want and got.p95 == want

    lo, hi = 20_000.0, 36_000.0
    mc = McConfig(
        draws=10_000,
        seed=2_024,
        distributions={"c_olt": Distribution(kind="uniform", lo=lo, hi=hi)},
    )
    values = [
        draw_parameters(mc, d, cost_book, factor_book)["c_olt"] for d in range(10_000)
    ]
    midpoint = (lo + hi) / 2.0
    assert abs(float(np.mean(values)) - midpoint) / midpoint < 0.01


def test_criterion_9_golden_run_is_byte_identical(tmp_path):
    """The bundled 30-settlement, 3-region scenario reproduces the committed
    report and design files byte-for-byte, twice in a row."""
    names = (
        "report.csv",
        "design_access_mst.geojson",
        "design_access_pcst.geojson",
        "design_regional_mst.geojson",
        "design_regional_pcst.geojson",
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert cli_main(["report", "--config", GOLDEN, "--out", str(out)]) == 0
    for name in names:
        committed = open(os.path.join(EXPECTED, name), "rb").read()
        assert (out1 / name).read_bytes() == committed, f"{name} drifted"
        assert (out2 / name).read_bytes() == committed, f"{name} differs across runs"
