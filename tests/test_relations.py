"""Whole-run metamorphic relations on the golden scenario.

A relation states how an output must change, or not, when an input
changes in a known way, so it checks the report's quantities without a
second implementation of them.
"""

import dataclasses
import json
import os
import random

from fiberplan.cli import main as cli_main
from fiberplan.config import load_scenario
from fiberplan.costmodel import CostBook
from fiberplan.pipeline import run_pipeline

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
TCO_COLUMNS = ("tco_usd", "annualized_tco_per_user_usd", "monthly_tco_per_user_usd")
SCC_COLUMNS = ("scc_usd", "scc_per_user_usd", "annualized_scc_per_user_usd")
EMISSION_COLUMNS = ("total_kg_co2e", "per_user_kg_co2e", "annualized_per_user_kg_co2e")


def _scenario(directory, *, inputs=None, cost=None) -> str:
    """The golden scenario written to `directory`, reading the golden input
    files unless `inputs` replaces some, with the cost book `cost`."""
    with open(os.path.join(GOLDEN_DIR, "scenario.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["inputs"] = {k: os.path.join(GOLDEN_DIR, v) for k, v in doc["inputs"].items()}
    doc["inputs"].update(inputs or {})
    if cost is not None:
        doc["cost"] = cost
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


def _rows(directory, cost=None) -> list:
    cfg = load_scenario(_scenario(directory, cost=cost), out_dir=str(directory / "out"))
    return run_pipeline(cfg).rows


def _columns(rows, names) -> list[tuple]:
    return [tuple(getattr(row, name) for name in names) for row in rows]


def test_doubling_every_money_field_doubles_the_tco_exactly(tmp_path):
    base = _rows(tmp_path / "base")
    book = CostBook()
    doubled = _rows(
        tmp_path / "doubled", {name: 2 * getattr(book, name) for name in MONEY_FIELDS}
    )
    assert len(MONEY_FIELDS) == 13 and len(base) == 8
    assert _columns(doubled, TCO_COLUMNS) == [
        tuple(2 * x for x in row) for row in _columns(base, TCO_COLUMNS)
    ]
    unchanged = EMISSION_COLUMNS + SCC_COLUMNS
    assert _columns(doubled, unchanged) == _columns(base, unchanged)


def test_doubling_the_carbon_price_doubles_the_social_carbon_cost_exactly(tmp_path):
    base = _rows(tmp_path / "base")
    price = 2 * CostBook().carbon_price_usd_per_tonne
    doubled = _rows(tmp_path / "doubled", {"carbon_price_usd_per_tonne": price})
    assert _columns(doubled, SCC_COLUMNS) == [
        tuple(2 * x for x in row) for row in _columns(base, SCC_COLUMNS)
    ]
    unchanged = TCO_COLUMNS + EMISSION_COLUMNS
    assert _columns(doubled, unchanged) == _columns(base, unchanged)
