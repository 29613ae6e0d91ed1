"""Tests for the command-line interface: exit codes, outputs, determinism."""

import json
import math
import os
import subprocess
import sys

import pytest

from fiberplan.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "golden", "scenario.json")
TINY = os.path.join(DATA, "tiny", "scenario.json")


def _stderr_error(capsys) -> dict:
    err = capsys.readouterr().err
    payload = [line for line in err.splitlines() if line.startswith("{")]
    assert payload, f"no machine-readable error on stderr: {err!r}"
    return json.loads(payload[-1])


def test_validate_succeeds_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["validate", "--config", GOLDEN, "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "scenario ok: 30 settlements, 3 regions, 15 subregions" in captured.out
    assert "roles: 1 core-adjacent, 3 regional," in captured.out
    assert not out.exists()


def test_validate_missing_config_exits_2(capsys):
    code = main(["validate", "--config", "/nonexistent/scenario.json"])
    assert code == 2
    error = _stderr_error(capsys)
    assert error["exit_code"] == 2
    assert error["error"] == "ConfigError"


def test_data_error_exits_3(tmp_path, capsys):
    settlements = tmp_path / "settlements.csv"
    settlements.write_text(
        "id,lat,lon,population,region_id,subregion_id\n"
        "a,95.0,36.0,1000,R1,S1\n"  # latitude out of range
    )
    areas = tmp_path / "areas.csv"
    areas.write_text("subregion_id,area_km2\nS1,10\n")
    cfg = tmp_path / "scenario.json"
    cfg.write_text(
        json.dumps(
            {
                "inputs": {"settlements": str(settlements), "areas": str(areas)},
                "adoption_rate": 0.005,
                "algorithms": ["mst"],
            }
        )
    )
    code = main(["validate", "--config", str(cfg)])
    assert code == 3
    assert _stderr_error(capsys)["exit_code"] == 3


def test_solver_error_exits_4(tmp_path, capsys):
    settlements = tmp_path / "settlements.csv"
    settlements.write_text(
        "id,lat,lon,population,region_id,subregion_id\n"
        "big,0.0,36.0,30000,R1,S1\n"
        "twin,0.1,36.1,2000,R1,S2\n"
        "copy,0.1,36.1,1000,R1,S3\n"  # same coordinates as twin
    )
    areas = tmp_path / "areas.csv"
    areas.write_text("subregion_id,area_km2\nS1,10\nS2,10\nS3,10\n")
    cfg = tmp_path / "scenario.json"
    cfg.write_text(
        json.dumps(
            {
                "inputs": {"settlements": str(settlements), "areas": str(areas)},
                "adoption_rate": 0.005,
                "algorithms": ["mst"],
                "output_dir": str(tmp_path / "out"),
            }
        )
    )
    code = main(["design", "--config", str(cfg)])
    assert code == 4
    assert _stderr_error(capsys)["exit_code"] == 4


def test_mc_without_config_section_exits_2(tmp_path, capsys):
    code = main(["mc", "--config", TINY, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "monte_carlo" in _stderr_error(capsys)["message"]


def test_pcst_without_roads_exits_2(tmp_path, capsys):
    code = main(
        ["design", "--config", TINY, "--algorithm", "pcst", "--out", str(tmp_path / "out")]
    )
    assert code == 2
    assert "roads" in _stderr_error(capsys)["message"]


def test_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate"])
    assert exc.value.code == 2


def test_design_writes_only_geojson(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["design", "--config", TINY, "--out", str(out)])
    assert code == 0
    assert sorted(os.listdir(out)) == [
        "design_access_mst.geojson",
        "design_regional_mst.geojson",
    ]
    captured = capsys.readouterr()
    assert "mst access @town: 3 nodes" in captured.out


def test_report_writes_csv_and_designs_and_prints_deciles(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["report", "--config", TINY, "--out", str(out)])
    assert code == 0
    assert sorted(os.listdir(out)) == [
        "demand.csv",
        "design_access_mst.geojson",
        "design_regional_mst.geojson",
        "report.csv",
    ]
    captured = capsys.readouterr()
    assert "decile" in captured.out
    assert "total users: 160" in captured.out
    assert "warning: only 3 subregions" in captured.out


def test_report_runs_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["report", "--config", TINY, "--out", str(out1)]) == 0
    assert main(["report", "--config", TINY, "--out", str(out2)]) == 0
    for name in sorted(os.listdir(out1)):
        a = (out1 / name).read_bytes()
        b = (out2 / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_mc_writes_summary_with_overrides(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["mc", "--config", GOLDEN, "--out", str(out), "--draws", "4", "--seed", "9"]
    )
    assert code == 0
    files = sorted(os.listdir(out))
    assert "mc_summary.csv" in files and "report.csv" in files
    captured = capsys.readouterr()
    assert "monte carlo: 4 draws, seed 9" in captured.out


def test_algorithm_override_limits_outputs(tmp_path):
    out = tmp_path / "out"
    assert main(["design", "--config", GOLDEN, "--algorithm", "mst", "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == [
        "design_access_mst.geojson",
        "design_regional_mst.geojson",
    ]


def test_console_script_is_installed():
    proc = subprocess.run(
        ["fiberplan", "--version"], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip().startswith("fiberplan ")


def test_module_entry_point_matches(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "fiberplan.cli", "report", "--config", TINY, "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "total users: 160" in proc.stdout


def _golden_variant(
    tmp_path, *, cost=None, emissions=None, distributions=None, inputs=None, **fields
) -> str:
    """The golden scenario with absolute input paths and the given changes:
    `inputs` replaces input files, `fields` sets top-level keys."""
    with open(GOLDEN, encoding="utf-8") as fh:
        doc = json.load(fh)
    base = os.path.dirname(GOLDEN)
    doc["inputs"] = {k: os.path.join(base, v) for k, v in doc["inputs"].items()}
    doc["inputs"].update(inputs or {})
    doc.update(fields)
    if cost is not None:
        doc["cost"] = cost
    if emissions is not None:
        doc["emissions"] = emissions
    if distributions is not None:
        doc["monte_carlo"]["distributions"] = distributions
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))  # writes NaN and Infinity as JSON5-style literals
    return str(path)


def _assert_config_error(capsys, out) -> None:
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.strip()]
    assert len(lines) == 1, err
    assert json.loads(lines[0])["exit_code"] == 2
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "distributions",
    [
        {"discount_rate": {"dist": "uniform", "lo": 0.5, "hi": 1.5}},
        {"c_olt": {"dist": "uniform", "lo": -10, "hi": 5}},
        {"trench_fraction": {"dist": "fixed", "value": 2.0}},
        {"c_olt": {"dist": "fixed", "value": "abc"}},
        {"c_olt": {"dist": "uniform", "lo": 1e308, "hi": math.inf}},
        {"c_olt": {"dist": "fixed", "value": math.nan}},
        {"c_olt": {"dist": "uniform", "lo": "abc", "hi": 5}},
        {"c_olt": {"dist": "triangular", "lo": 5, "mode": 5, "hi": 5}},
    ],
    ids=["rate", "negative", "trench", "text", "overflow", "nan", "text-bound", "triangle"],
)
def test_mc_distribution_outside_the_book_exits_2_before_running(tmp_path, capsys, distributions):
    out = tmp_path / "out"
    cfg = _golden_variant(tmp_path, distributions=distributions)
    assert main(["mc", "--config", cfg, "--out", str(out)]) == 2
    _assert_config_error(capsys, out)


@pytest.mark.parametrize(
    "change",
    [
        {"cost": {"c_olt": math.inf}},
        {"emissions": {"alpha": math.nan}},
        {"cost": {"assessment_years": 2.5}},
        {"buffer_km": math.nan},
        {"buffer_km": math.inf},
        {"prize_scale": math.nan},
        {"snap_radius_km": math.nan},
        {"min_density_per_km2": math.nan},
    ],
    ids=["cost-inf", "alpha-nan", "years", "buffer-nan", "buffer-inf", "prize-nan", "snap-nan",
         "density-nan"],
)
def test_non_finite_book_value_exits_2(tmp_path, capsys, change):
    out = tmp_path / "out"
    cfg = _golden_variant(tmp_path, **change)
    assert main(["report", "--config", cfg, "--out", str(out)]) == 2
    _assert_config_error(capsys, out)


def _assert_error_after_run(capsys, out, exit_code, error) -> dict:
    """The run ended with one JSON error line (after any progress logging),
    no traceback, and no output directory."""
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["exit_code"] == exit_code and payload["error"] == error, payload
    assert "Traceback" not in err
    assert not out.exists()
    return payload


def _feature_collection(coordinates) -> dict:
    geometry = {"type": "LineString", "coordinates": coordinates}
    return {"type": "FeatureCollection", "features": [{"type": "Feature", "geometry": geometry}]}


NO_COORDINATES = {"type": "FeatureCollection", "features": [{"geometry": {"type": "LineString"}}]}


@pytest.mark.parametrize(
    "name, text",
    [
        ("fiber", json.dumps(NO_COORDINATES)),
        ("roads", json.dumps(NO_COORDINATES)),
        ("fiber", json.dumps(_feature_collection([[30.0], [30.1, 0.1]]))),
        ("fiber", json.dumps(_feature_collection([["30", "1"], ["30.1", "1"]]))),
        ("fiber", json.dumps(_feature_collection([[True, 0.1], [30.1, 0.1]]))),
        ("fiber", json.dumps(_feature_collection([[30.0, math.nan], [30.1, 0.1]]))),
        ("fiber", "[]"),
        ("fiber", json.dumps({"type": "FeatureCollection", "features": [5]})),
        ("fiber", "not json {"),
    ],
    ids=[
        "no-coordinates",
        "roads-no-coordinates",
        "one-element",
        "strings",
        "bool",
        "nan",
        "top-level-list",
        "feature-not-object",
        "not-json",
    ],
)
def test_malformed_line_geojson_exits_3(tmp_path, capsys, name, text):
    path = tmp_path / f"{name}.geojson"
    path.write_text(text)
    out = tmp_path / "out"
    cfg = _golden_variant(tmp_path, inputs={name: str(path)})
    assert main(["report", "--config", cfg, "--out", str(out)]) == 3
    _assert_error_after_run(capsys, out, 3, "ParseError")


@pytest.mark.parametrize(
    "cost, named",
    [
        ({"c_olt": 1e308, "c_civil": 1e308}, "tco_usd"),  # a unit's capex is inf
        ({"o_rent": 1e308}, "opex present value"),  # math.fsum overflows
    ],
    ids=["capex-inf", "opex-fsum"],
)
def test_book_values_that_overflow_a_report_figure_exit_2(tmp_path, capsys, cost, named):
    out = tmp_path / "out"
    cfg = _golden_variant(tmp_path, cost=cost)
    assert main(["report", "--config", cfg, "--out", str(out)]) == 2
    error = _assert_error_after_run(capsys, out, 2, "PriceOverflow")
    assert named in error["message"]


def test_mc_draws_that_overflow_a_report_figure_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    huge = {"dist": "fixed", "value": 1e308}
    cfg = _golden_variant(tmp_path, distributions={"c_olt": huge, "c_civil": huge})
    assert main(["mc", "--config", cfg, "--out", str(out)]) == 2
    error = _assert_error_after_run(capsys, out, 2, "PriceOverflow")
    assert "tco_usd" in error["message"]
