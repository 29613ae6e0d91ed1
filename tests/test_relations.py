"""Whole-run metamorphic relations on the golden scenario.

A relation states how an output must change, or not, when an input
changes in a known way, so it checks the report's quantities without a
second implementation of them.
"""

import dataclasses
import json
import os
import random
import subprocess
import sys

from fiberplan.cli import main as cli_main
from fiberplan.config import load_scenario
from fiberplan.costmodel import CostBook
from fiberplan.lca import EmissionFactorBook
from fiberplan.pipeline import run_monte_carlo, run_pipeline

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data", "golden")
MC_OUTPUTS = (
    "demand.csv",
    "design_access_mst.geojson",
    "design_access_pcst.geojson",
    "design_regional_mst.geojson",
    "design_regional_pcst.geojson",
    "mc_summary.csv",
    "report.csv",
)
MONEY_FIELDS = tuple(
    f.name for f in dataclasses.fields(CostBook) if f.name.startswith(("c_", "o_"))
)
FACTOR_FIELDS = tuple(
    f.name for f in dataclasses.fields(EmissionFactorBook) if f.name.startswith("cf_")
)
TCO_COLUMNS = ("tco_usd", "annualized_tco_per_user_usd", "monthly_tco_per_user_usd")
SCC_COLUMNS = ("scc_usd", "scc_per_user_usd", "annualized_scc_per_user_usd")
EMISSION_COLUMNS = ("total_kg_co2e", "per_user_kg_co2e", "annualized_per_user_kg_co2e")
STATISTICS = ("mean", "p5", "p50", "p95")


def _golden() -> dict:
    with open(os.path.join(GOLDEN_DIR, "scenario.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _scenario(directory, *, inputs=None, **sections) -> str:
    """The golden scenario written to `directory`, reading the golden input
    files unless `inputs` replaces some, with its top-level `sections`
    (such as `cost`) replaced."""
    doc = _golden()
    doc["inputs"] = {k: os.path.join(GOLDEN_DIR, v) for k, v in doc["inputs"].items()}
    doc["inputs"].update(inputs or {})
    doc.update(sections)
    directory.mkdir(exist_ok=True)
    path = directory / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _shuffled_copy(rng: random.Random, name: str, directory) -> str:
    """The golden `name` table with its data rows in a random order."""
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines(keepends=True)
    rng.shuffle(rows)
    path = directory / name
    path.write_text(header + "".join(rows))
    return str(path)


def _mc_outputs(cfg: str, out) -> dict[str, bytes]:
    assert cli_main(["mc", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == list(MC_OUTPUTS)
    return {name: (out / name).read_bytes() for name in MC_OUTPUTS}


def test_the_order_of_input_rows_changes_no_output_byte(tmp_path):
    expected = _mc_outputs(_scenario(tmp_path / "base"), tmp_path / "base" / "out")
    rng = random.Random(7_2026)
    for i in range(5):
        directory = tmp_path / f"shuffle{i}"
        directory.mkdir()
        inputs = {
            "settlements": _shuffled_copy(rng, "settlements.csv", directory),
            "areas": _shuffled_copy(rng, "areas.csv", directory),
        }
        assert _mc_outputs(_scenario(directory, inputs=inputs), directory / "out") == expected


def _rows(directory, **sections) -> list:
    cfg = load_scenario(_scenario(directory, **sections), out_dir=str(directory / "out"))
    return run_pipeline(cfg).rows


def _mc_rows(directory, **sections) -> list:
    cfg = load_scenario(_scenario(directory, **sections), out_dir=str(directory / "out"))
    return run_monte_carlo(cfg, run_pipeline(cfg))


def _columns(rows, names) -> list[tuple]:
    return [tuple(getattr(row, name) for name in names) for row in rows]


def _doubled(rows: list[tuple]) -> list[tuple]:
    return [tuple(None if x is None else 2 * x for x in row) for row in rows]


def _doubled_book(book, names: tuple[str, ...]) -> dict:
    return {name: 2 * getattr(book, name) for name in names}


def test_doubling_every_money_field_doubles_the_tco_exactly(tmp_path):
    base = _rows(tmp_path / "base")
    doubled = _rows(tmp_path / "doubled", cost=_doubled_book(CostBook(), MONEY_FIELDS))
    assert len(MONEY_FIELDS) == 13 and len(base) == 8
    assert _columns(doubled, TCO_COLUMNS) == _doubled(_columns(base, TCO_COLUMNS))
    unchanged = EMISSION_COLUMNS + SCC_COLUMNS
    assert _columns(doubled, unchanged) == _columns(base, unchanged)


def test_doubling_the_carbon_price_doubles_the_social_carbon_cost_exactly(tmp_path):
    base = _rows(tmp_path / "base")
    price = 2 * CostBook().carbon_price_usd_per_tonne
    doubled = _rows(tmp_path / "doubled", cost={"carbon_price_usd_per_tonne": price})
    assert _columns(doubled, SCC_COLUMNS) == _doubled(_columns(base, SCC_COLUMNS))
    unchanged = TCO_COLUMNS + EMISSION_COLUMNS
    assert _columns(doubled, unchanged) == _columns(base, unchanged)


def test_doubling_every_emission_factor_doubles_emissions_and_their_cost_exactly(tmp_path):
    base = _rows(tmp_path / "base")
    factors = _doubled_book(EmissionFactorBook(), FACTOR_FIELDS)
    doubled = _rows(tmp_path / "doubled", emissions=factors)
    assert len(FACTOR_FIELDS) == 12 and len(base) == 8
    changed = EMISSION_COLUMNS + SCC_COLUMNS
    assert _columns(doubled, changed) == _doubled(_columns(base, changed))
    assert _columns(doubled, TCO_COLUMNS) == _columns(base, TCO_COLUMNS)


def _doubled_distributions(*names: str) -> dict:
    """The golden `monte_carlo` section with the bounds (and mode) of the
    distributions `names` doubled."""
    mc = _golden()["monte_carlo"]
    for name in names:
        dist = mc["distributions"][name]
        dist.update({k: 2 * v for k, v in dist.items() if k in ("lo", "mode", "hi")})
    return mc


def _assert_doubles_exactly(base, doubled, metrics) -> None:
    """The statistics of `metrics` double exactly; every other summary row
    stays equal."""
    assert len(base) == len(doubled) == 88
    for b, d in zip(base, doubled):
        if b.metric in metrics:
            (twice,) = _doubled(_columns([b], STATISTICS))
            b = dataclasses.replace(b, **dict(zip(STATISTICS, twice)))
        assert d == b


def test_doubling_the_money_draws_doubles_the_monte_carlo_tco_exactly(tmp_path):
    """`c_olt` draws uniformly, lo + (hi - lo) u, which doubles exactly
    with its bounds."""
    base = _mc_rows(tmp_path / "base")
    doubled = _mc_rows(
        tmp_path / "doubled",
        cost=_doubled_book(CostBook(), MONEY_FIELDS),
        monte_carlo=_doubled_distributions("c_olt"),
    )
    _assert_doubles_exactly(base, doubled, TCO_COLUMNS)


def test_doubling_the_emission_draws_doubles_the_monte_carlo_emissions_exactly(tmp_path):
    """`cf_electricity_per_kwh` draws from a triangular distribution, whose
    draw doubles exactly with its lo, mode and hi too."""
    base = _mc_rows(tmp_path / "base")
    doubled = _mc_rows(
        tmp_path / "doubled",
        emissions=_doubled_book(EmissionFactorBook(), FACTOR_FIELDS),
        monte_carlo=_doubled_distributions("cf_electricity_per_kwh"),
    )
    _assert_doubles_exactly(base, doubled, EMISSION_COLUMNS + SCC_COLUMNS)


def _reversed_roads(directory) -> str:
    """The golden roads with the order of their features and of every
    polyline's positions reversed."""
    with open(os.path.join(GOLDEN_DIR, "roads.geojson"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["features"].reverse()
    for feature in doc["features"]:
        feature["geometry"]["coordinates"].reverse()
    path = directory / "roads.geojson"
    path.write_text(json.dumps(doc))
    return str(path)


def _design_features(text: bytes) -> tuple[set, list]:
    """The edges of a design GeoJSON as unordered endpoint pairs with their
    `weight_km`, and its Point features in a fixed order."""
    features = json.loads(text)["features"]
    edges = {
        (frozenset(map(tuple, f["geometry"]["coordinates"])), f["properties"]["weight_km"])
        for f in features
        if f["geometry"]["type"] == "LineString"
    }
    points = sorted(json.dumps(f, sort_keys=True) for f in features
                    if f["geometry"]["type"] == "Point")
    return edges, points


def test_reversing_the_roads_changes_only_the_pcst_vertex_order(tmp_path):
    """Road vertex ids follow first appearance in the file, so reversed
    roads number the vertices anew: the PCST designs list the same edges
    and points in another order and orientation, and every other output is
    byte-identical."""
    expected = _mc_outputs(_scenario(tmp_path / "base"), tmp_path / "base" / "out")
    directory = tmp_path / "reversed"
    directory.mkdir()
    cfg = _scenario(directory, inputs={"roads": _reversed_roads(directory)})
    outputs = _mc_outputs(cfg, directory / "out")
    for name in MC_OUTPUTS:
        if "pcst" not in name:
            assert outputs[name] == expected[name], name
    for name, edge_count in (("design_access_pcst.geojson", 7),
                             ("design_regional_pcst.geojson", 12)):
        assert outputs[name] != expected[name]
        edges, points = _design_features(outputs[name])
        assert (edges, points) == _design_features(expected[name])
        assert len(edges) == edge_count


def test_the_hash_seed_changes_no_output_byte(tmp_path):
    """Set and dict orders of strings change with `PYTHONHASHSEED`; no
    output may follow them."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    cfg = _scenario(tmp_path)
    outputs = []
    for seed in ("0", "1"):
        out = tmp_path / f"out{seed}"
        proc = subprocess.run(
            [sys.executable, "-m", "fiberplan.cli", "mc", "--config", cfg, "--out", str(out)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert sorted(p.name for p in out.iterdir()) == list(MC_OUTPUTS)
        outputs.append({name: (out / name).read_bytes() for name in MC_OUTPUTS})
    assert outputs[0] == outputs[1]
