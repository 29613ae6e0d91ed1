"""Tests for the command-line interface: exit codes, outputs, determinism."""

import codecs
import json
import logging
import math
import os
import subprocess
import sys
import time

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


def test_pcst_with_two_settlements_on_one_road_vertex_exits_4(tmp_path, capsys):
    settlements = tmp_path / "settlements.csv"
    settlements.write_text(
        "id,lat,lon,population,region_id,subregion_id\n"
        "big,0.0,36.0,30000,R1,S1\n"
        "a,0.1,36.1,2000,R1,S2\n"
        "b,0.1,36.1,1000,R1,S3\n"  # on the same road vertex as a
    )
    areas = tmp_path / "areas.csv"
    areas.write_text("subregion_id,area_km2\nS1,10\nS2,10\nS3,10\n")
    roads = tmp_path / "roads.geojson"
    roads.write_text(json.dumps(_feature_collection([[36.0, 0.0], [36.1, 0.1]])))
    out = tmp_path / "out"
    cfg = tmp_path / "scenario.json"
    cfg.write_text(
        json.dumps(
            {
                "inputs": {"settlements": str(settlements), "areas": str(areas),
                           "roads": str(roads)},
                "adoption_rate": 0.005,
                "algorithms": ["pcst"],
                "output_dir": str(out),
            }
        )
    )
    assert main(["design", "--config", str(cfg)]) == 4
    error = _assert_error_after_run(capsys, out, 4, "DuplicateCoordinate")
    assert "'a' and 'b'" in error["message"]


@pytest.mark.parametrize("name", ["settlements", "areas", "fiber", "roads", "scenario"])
def test_inputs_may_start_with_a_utf8_byte_order_mark(tmp_path, capsys, name):
    inputs = {}
    if name != "scenario":
        with open(GOLDEN, encoding="utf-8") as fh:
            source = os.path.join(os.path.dirname(GOLDEN), json.load(fh)["inputs"][name])
        path = tmp_path / f"bom-{os.path.basename(source)}"
        with open(source, "rb") as fh:
            path.write_bytes(codecs.BOM_UTF8 + fh.read())
        inputs = {name: str(path)}
    cfg = _golden_variant(tmp_path, inputs=inputs)
    if name == "scenario":
        path = tmp_path / "scenario.json"
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert main(["validate", "--config", cfg]) == 0
    assert "scenario ok: 30 settlements, 3 regions, 15 subregions" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["validate", "report"])
@pytest.mark.parametrize(
    "fmt, text",
    [
        ("csv", "id,lat,lon,population,region_id,subregion_id\n"),
        ("geojson", json.dumps({"type": "FeatureCollection", "features": []})),
    ],
    ids=["csv", "geojson"],
)
def test_settlements_without_rows_exit_3(tmp_path, capsys, command, fmt, text):
    settlements = tmp_path / f"settlements.{fmt}"
    settlements.write_text(text)
    doc = {
        "inputs": {
            "settlements": str(settlements),
            "areas": os.path.join(DATA, "tiny", "areas.csv"),
        },
        "settlements_format": fmt,
        "adoption_rate": 0.005,
        "algorithms": ["mst"],
    }
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    (line,) = [line for line in err.splitlines() if line.startswith("{")]
    assert json.loads(line) == {
        "error": "EmptyCollection",
        "exit_code": 3,
        "message": f"{settlements}: no settlements",
    }
    assert "Traceback" not in err
    assert not out.exists()


def test_mc_without_config_section_exits_2(tmp_path, capsys):
    code = main(["mc", "--config", TINY, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "monte_carlo" in _stderr_error(capsys)["message"]


def test_mc_without_config_section_exits_2_before_any_stage(tmp_path, capsys, monkeypatch):
    def boom(cfg):
        raise RuntimeError("a stage ran")

    monkeypatch.setattr("fiberplan.cli.run_pipeline", boom)
    assert main(["mc", "--config", TINY, "--out", str(tmp_path / "out")]) == 2
    assert _stderr_error(capsys)["error"] == "ConfigError"


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


GOLDEN_DESIGNS = """\
mst access @r1s3a: 5 nodes, 64.7574 km
mst access @r2s1a: 5 nodes, 72.6173 km
mst access @r3s1a: 5 nodes, 91.7516 km
mst regional @r1s1b: 3 nodes, 254.801 km
pcst access @r1s3a: 4 nodes, 49.0321 km, 1 excluded
pcst access @r2s1a: 4 nodes, 55.0575 km, 1 excluded
pcst access @r3s1a: 2 nodes, 18.9016 km, 3 excluded
pcst regional @r1s1b: 3 nodes, 259.452 km
"""
GOLDEN_ROWS = """\
decile    level algorithm      users         km  tco/user/mo    kg/user   scc/user
     1   access       MST     663.75    137.375        63.26     944.16      70.81
     1   access   PCST_GW     663.75     104.09        60.86     777.14      58.29
     1 regional       MST     663.75    169.867        23.53     527.48      39.56
     1 regional   PCST_GW     663.75    172.968        23.61     532.18      39.91
     2   access       MST     167.75    91.7516       127.68    2006.44     150.48
     2   access   PCST_GW     167.75    18.9016       110.93     877.47      65.81
     2 regional       MST     167.75    84.9336        46.55    1043.56      78.27
     2 regional   PCST_GW     167.75    86.4839        46.72    1052.87      78.96
total users: 831.5
"""
GOLDEN_SNAP_WARNING = (
    "warning: settlement r3s5a attached 27.88 km beyond the 5.00 km snap radius\n"
)


def _wrote(*names: str) -> str:
    return "".join(f"wrote <out>/{name}\n" for name in names)


GOLDEN_GEOJSON = (
    "design_access_mst.geojson",
    "design_regional_mst.geojson",
    "design_access_pcst.geojson",
    "design_regional_pcst.geojson",
)
GOLDEN_STDOUT = {
    "validate": """\
scenario ok: 30 settlements, 3 regions, 15 subregions
roles: 1 core-adjacent, 3 regional, 12 access
potential users: 831.5 (adoption 0.005 above 0/km2)
algorithms: mst, pcst
""",
    "design": GOLDEN_DESIGNS + GOLDEN_SNAP_WARNING + _wrote(*GOLDEN_GEOJSON),
    "report": GOLDEN_DESIGNS
    + GOLDEN_ROWS
    + GOLDEN_SNAP_WARNING
    + _wrote(*GOLDEN_GEOJSON, "demand.csv", "report.csv"),
    "mc": GOLDEN_DESIGNS
    + GOLDEN_ROWS
    + "monte carlo: 64 draws, seed 20240229, 2 varied parameters\n"
    + GOLDEN_SNAP_WARNING
    + _wrote(*GOLDEN_GEOJSON, "demand.csv", "report.csv", "mc_summary.csv"),
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_golden_stdout_of_each_command(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([command, "--config", GOLDEN, "--out", str(out)]) == 0
    assert capsys.readouterr().out.replace(str(out), "<out>") == GOLDEN_STDOUT[command]


def test_validate_prints_the_demand_and_classification_warnings(tmp_path, capsys):
    with open(TINY, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["inputs"] = {k: os.path.join(DATA, "tiny", v) for k, v in doc["inputs"].items()}
    doc["main_settlement_threshold"] = 10**9
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(doc))
    assert main(["validate", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == (
        "scenario ok: 3 settlements, 1 regions, 3 subregions\n"
        "roles: 0 core-adjacent, 0 regional, 3 access\n"
        "potential users: 160 (adoption 0.005 above 0/km2)\n"
        "algorithms: mst\n"
        "warning: only 3 subregions: deciles assigned from density bands, "
        "not an equal-count split\n"
        "warning: regions without a main-settlement candidate: R1\n"
    )


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


def test_a_fresh_mc_run_never_imports_numpy_ma(tmp_path):
    """Monte Carlo's percentiles are numpy's arithmetic, not np.percentile,
    whose first call imports numpy.ma (tens of ms in a fresh process)."""
    script = (
        "import sys\n"
        "from fiberplan import cli\n"
        f"assert cli.main(['mc', '--config', {GOLDEN!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


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


def test_assessment_years_beyond_the_bound_exit_2_before_pricing(tmp_path, capsys):
    # At rate 0 nothing overflows: the opex present value would sum 10**9 + 1
    # terms for every draw.
    out = tmp_path / "out"
    cfg = _golden_variant(tmp_path, cost={"discount_rate": 0.0, "assessment_years": 10**9})
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 2
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


def _golden_csv_plus(tmp_path, name: str, rows: str) -> str:
    """A copy of the golden `name`.csv with `rows` appended."""
    with open(os.path.join(DATA, "golden", f"{name}.csv"), encoding="utf-8") as fh:
        text = fh.read()
    path = tmp_path / f"{name}.csv"
    path.write_text(text + rows)
    return str(path)


def test_settlements_zero_km_apart_exit_4(tmp_path, capsys):
    # (0, 0) and (0, 1e-200) are distinct coordinates 0 km apart.
    settlements = _golden_csv_plus(
        tmp_path,
        "settlements",
        "r9a,0.0,0.0,5000,R9,R9S1\nr9b,0.0,1e-200,4000,R9,R9S2\nr9c,0.01,0.01,3000,R9,R9S3\n",
    )
    areas = _golden_csv_plus(tmp_path, "areas", "R9S1,10.0\nR9S2,10.0\nR9S3,10.0\n")
    out = tmp_path / "out"
    cfg = _golden_variant(tmp_path, inputs={"settlements": settlements, "areas": areas})
    assert main(["design", "--config", cfg, "--algorithm", "mst", "--out", str(out)]) == 4
    error = _assert_error_after_run(capsys, out, 4, "DuplicateCoordinate")
    assert "'r9a' and 'r9b' are 0 km apart" in error["message"]


@pytest.mark.parametrize(
    "command",
    [["validate"], ["design", "--algorithm", "pcst"]],
    ids=["validate", "design"],
)
def test_road_segment_of_zero_km_exits_3(tmp_path, capsys, command):
    roads = tmp_path / "roads.geojson"
    roads.write_text(json.dumps(_feature_collection([[0, 0], [1e-200, 0], [0.1, 0]])))
    out = tmp_path / "out"
    cfg = _golden_variant(tmp_path, inputs={"roads": str(roads)})
    assert main([*command, "--config", cfg, "--out", str(out)]) == 3
    error = _assert_error_after_run(capsys, out, 3, "DegenerateGeometry")
    assert "feature[0]" in error["message"]


def test_a_backbone_warning_is_printed_once_for_both_algorithms(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _golden_variant(tmp_path, inputs={"fiber": None})
    assert main(["design", "--config", cfg, "--algorithm", "both", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines if " regional @" in line] == [
        "mst regional @r1s3a",
        "pcst regional @r1s3a",
    ]
    assert [line for line in lines if "core buffer" in line] == [
        "warning: no settlement within the core buffer; backbone rooted at regional node 'r1s3a'"
    ]


def test_areas_csv_without_a_required_column_exits_3(tmp_path, capsys):
    areas = tmp_path / "areas.csv"
    areas.write_text("subregion_id,area\nS1,10\n")
    out = tmp_path / "out"
    cfg = _golden_variant(tmp_path, inputs={"areas": str(areas)})
    assert main(["report", "--config", cfg, "--out", str(out)]) == 3
    payload = _assert_error_after_run(capsys, out, 3, "MissingColumn")
    assert payload["message"] == f"{areas}: missing columns area_km2"


@pytest.mark.parametrize("below", [False, True], ids=["a-file", "below-a-file"])
def test_output_directory_that_cannot_be_made_exits_5(tmp_path, capsys, below):
    taken = tmp_path / "taken"
    taken.write_text("a regular file\n")
    out = taken / "sub" if below else taken
    assert main(["report", "--config", TINY, "--out", str(out)]) == 5
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert (payload["exit_code"], payload["error"]) == (5, "IoError"), payload
    assert payload["message"].startswith(f"cannot create output directory {out}: ")
    assert "Traceback" not in err
    assert taken.read_text() == "a regular file\n"


def test_input_path_that_is_a_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _golden_variant(tmp_path, inputs={"fiber": str(tmp_path)})
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 2
    _assert_config_error(capsys, out)


def test_unexpected_exception_exits_1_with_one_json_line(tmp_path, capsys, caplog, monkeypatch):
    def boom(cfg):
        raise RuntimeError("solver state is inconsistent")

    monkeypatch.setattr("fiberplan.cli.run_pipeline", boom)
    out = tmp_path / "out"
    assert main(["report", "--config", GOLDEN, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.strip()]
    assert len(lines) == 1, err
    assert json.loads(lines[0]) == {
        "error": "RuntimeError",
        "exit_code": 1,
        "message": "solver state is inconsistent",
    }
    assert "Traceback" not in err
    assert not [r for r in caplog.records if r.exc_info]  # nothing at the default level

    caplog.set_level(logging.DEBUG, logger="fiberplan.cli")
    assert main(["report", "--config", GOLDEN, "--out", str(out)]) == 1
    (record,) = [r for r in caplog.records if r.exc_info]
    assert record.levelno == logging.DEBUG
    assert record.exc_info[0] is RuntimeError


@pytest.mark.parametrize("command", ["validate", "design", "report"])
@pytest.mark.parametrize(
    "population, area",
    [(10**400, "10.0"), (25_000, "1e-320")],
    ids=["population-past-a-float", "area-near-zero"],
)
def test_density_too_large_for_a_float_exits_3(tmp_path, capsys, command, population, area):
    settlements = _golden_csv_plus(tmp_path, "settlements", f"r9a,0.0,0.0,{population},R9,R9S1\n")
    areas = _golden_csv_plus(tmp_path, "areas", f"R9S1,{area}\n")
    out = tmp_path / "out"
    cfg = _golden_variant(tmp_path, inputs={"settlements": settlements, "areas": areas})
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    error = _assert_error_after_run(capsys, out, 3, "DensityOverflow")
    assert "subregion 'R9S1'" in error["message"]


@pytest.mark.parametrize("command", ["validate", "report"])
@pytest.mark.parametrize(
    "regions, named", [(("R9", "R9"), "region 'R9'"), (("R8", "R9"), "the whole scenario")]
)
def test_users_too_many_for_a_float_exit_3(tmp_path, capsys, command, regions, named):
    # Each subregion's users, 1e308, is a float; two of them in one region,
    # or in the whole scenario, are not.
    rows = "".join(
        f"big{i},0.5,{31 + i}.5,{10**308},{region},{region}S{i}\n"
        for i, region in enumerate(regions)
    )
    settlements = _golden_csv_plus(tmp_path, "settlements", rows)
    areas = _golden_csv_plus(
        tmp_path, "areas", "".join(f"{region}S{i},1.0\n" for i, region in enumerate(regions))
    )
    out = tmp_path / "out"
    cfg = _golden_variant(
        tmp_path, inputs={"settlements": settlements, "areas": areas}, adoption_rate=1.0
    )
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    error = _assert_error_after_run(capsys, out, 3, "UsersOverflow")
    assert error["message"] == f"potential users of {named} are too many for a float"


@pytest.mark.parametrize("command", ["design", "report"])
def test_prize_scale_past_what_moat_growing_can_add_exits_2_at_once(tmp_path, capsys, command):
    # 1e307 makes a backbone prize inf: its heap keys in moat growing would
    # be nan, and the run would not end.
    out = tmp_path / "out"
    cfg = _golden_variant(tmp_path, prize_scale=1e307)
    start = time.perf_counter()
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert time.perf_counter() - start < 10.0
    error = _assert_error_after_run(capsys, out, 2, "PrizeOverflow")
    assert "prize_scale 1e+307" in error["message"]
