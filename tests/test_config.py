"""Tests for scenario configuration loading and validation."""

import contextlib
import dataclasses
import json
import math
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fiberplan.config import ScenarioConfig, load_scenario, parameters_payload
from fiberplan.costmodel import CostBook, _per_node_cost
from fiberplan.errors import ConfigError, FiberPlanError
from fiberplan.lca import EmissionFactorBook
from fiberplan.report import MAX_DRAWS, config_hash

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "golden", "scenario.json")
TINY = os.path.join(DATA, "tiny", "scenario.json")


def _write_config(tmp_path, **overrides):
    doc = {
        "inputs": {
            "settlements": os.path.join(DATA, "tiny", "settlements.csv"),
            "areas": os.path.join(DATA, "tiny", "areas.csv"),
        },
        "adoption_rate": 0.005,
        "algorithms": ["mst"],
    }
    doc.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_golden_scenario_parses():
    cfg = load_scenario(GOLDEN)
    assert isinstance(cfg, ScenarioConfig)
    assert cfg.adoption_rate == 0.005
    assert cfg.algorithms == ("mst", "pcst")
    assert cfg.buffer_km == 2.0
    assert cfg.main_settlement_threshold == 20000
    assert os.path.isabs(cfg.settlements_path) and os.path.exists(cfg.settlements_path)
    assert cfg.fiber_path and cfg.roads_path
    assert cfg.mc is not None
    assert cfg.mc.draws == 64 and cfg.mc.seed == 20240229
    assert sorted(cfg.mc.distributions) == ["c_olt", "cf_electricity_per_kwh"]
    # relative output_dir resolves against the config file's directory
    assert cfg.output_dir == os.path.join(os.path.dirname(GOLDEN), "out")


def test_tiny_scenario_defaults():
    cfg = load_scenario(TINY)
    assert cfg.fiber_path is None and cfg.roads_path is None
    assert cfg.algorithms == ("mst",)
    assert cfg.snap_radius_km == 5.0
    assert cfg.prize_scale == 1.0
    assert cfg.min_density_per_km2 == 0.0
    assert cfg.mc is None
    assert _per_node_cost(cfg.cost_book) == 177_000.0


def test_cli_overrides_win():
    cfg = load_scenario(GOLDEN, algorithm="mst", out_dir="/tmp/elsewhere", seed=7, draws=3)
    assert cfg.algorithms == ("mst",)
    assert cfg.output_dir == "/tmp/elsewhere"
    assert cfg.mc.seed == 7 and cfg.mc.draws == 3
    assert load_scenario(GOLDEN, draws=MAX_DRAWS).mc.draws == MAX_DRAWS  # the bound itself


def test_algorithm_both_selects_both():
    cfg = load_scenario(GOLDEN, algorithm="both")
    assert cfg.algorithms == ("mst", "pcst")


def test_missing_config_file():
    with pytest.raises(ConfigError):
        load_scenario("/nonexistent/scenario.json")


def test_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    for text in (b"{not json", b'{"a": "\xff"}'):  # not JSON; not UTF-8
        path.write_bytes(text)
        with pytest.raises(ConfigError):
            load_scenario(str(path))


def test_non_object_config(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_scenario(str(path))


def test_unknown_top_level_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_scenario(_write_config(tmp_path, typo_key=1))


def test_unknown_input_key(tmp_path):
    path = _write_config(tmp_path)
    doc = json.loads(open(path).read())
    doc["inputs"]["rivers"] = "x.geojson"
    open(path, "w").write(json.dumps(doc))
    with pytest.raises(ConfigError, match="unknown input keys"):
        load_scenario(path)


# Every JSON value that is not a string or null, as json.load gives it back.
NOT_PATHS = [0, 1, -1, 2.5, 1e308, math.nan, math.inf, 10**400, True, False, [], [[]], {},
             {"a": 1}]


def test_missing_required_input(tmp_path):
    path = _write_config(tmp_path)
    doc = json.loads(open(path).read())
    valid_inputs = dict(doc["inputs"])
    del doc["inputs"]["areas"]
    open(path, "w").write(json.dumps(doc))
    with pytest.raises(ConfigError, match="inputs.areas"):
        load_scenario(path)
    # an input that is not a path string is a config error too, at every key
    for key in ("settlements", "areas", "fiber", "roads"):
        for value in NOT_PATHS:
            inputs = {**valid_inputs, key: value}
            with pytest.raises(ConfigError, match=f"inputs.{key} must be a path string"):
                load_scenario(_write_config(tmp_path, inputs=inputs))


def test_nonexistent_input_path(tmp_path):
    path = _write_config(tmp_path)
    doc = json.loads(open(path).read())
    doc["inputs"]["settlements"] = "missing.csv"
    open(path, "w").write(json.dumps(doc))
    with pytest.raises(ConfigError, match="does not exist"):
        load_scenario(path)


def test_relative_input_paths_resolve_against_config_dir(tmp_path):
    for name in ("settlements.csv", "areas.csv"):
        (tmp_path / name).write_bytes(open(os.path.join(DATA, "tiny", name), "rb").read())
    path = _write_config(
        tmp_path, inputs={"settlements": "settlements.csv", "areas": "areas.csv"}
    )
    cfg = load_scenario(path)
    assert cfg.settlements_path == str(tmp_path / "settlements.csv")


@pytest.mark.parametrize("rate", [0.0, -0.1, 1.5, "high", None])
def test_bad_adoption_rate(tmp_path, rate):
    overrides = {"adoption_rate": rate} if rate is not None else {}
    path = _write_config(tmp_path, **overrides)
    if rate is None:
        doc = json.loads(open(path).read())
        del doc["adoption_rate"]
        open(path, "w").write(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_scenario(path)


@pytest.mark.parametrize(
    "key,value",
    [
        ("min_density_per_km2", -1),
        ("buffer_km", -0.5),
        ("main_settlement_threshold", -1),
        ("main_settlement_threshold", 2.5),
        ("snap_radius_km", -1),
        ("prize_scale", 0),
        ("settlements_format", "parquet"),
        ("algorithms", []),
        ("algorithms", ["dijkstra"]),
        ("output_dir", ""),
        ("main_settlement_threshold", True),
        ("algorithms", ["mst", ["x"]]),
        ("algorithms", [{}]),
        ("output_dir", "a\u0000b"),
    ],
)
def test_bad_scalar_settings(tmp_path, key, value):
    with pytest.raises(ConfigError):
        load_scenario(_write_config(tmp_path, **{key: value}))


@pytest.mark.parametrize(
    "key,value,rule",
    [
        ("adoption_rate", -0.1, "in (0, 1]"),
        ("adoption_rate", 0, "in (0, 1]"),
        ("prize_scale", -1, "positive"),
        ("prize_scale", 0, "positive"),
        ("buffer_km", -0.5, ">= 0"),
    ],
)
def test_a_numeric_setting_out_of_range_names_its_whole_range(tmp_path, key, value, rule):
    with pytest.raises(ConfigError) as exc:
        load_scenario(_write_config(tmp_path, **{key: value}))
    assert str(exc.value) == f"{key} must be {rule}, got {float(value)}"


def test_of_two_bad_settings_the_threshold_is_reported_before_the_snap_radius(tmp_path):
    path = _write_config(tmp_path, main_settlement_threshold=-1, snap_radius_km=-1)
    with pytest.raises(ConfigError, match="^main_settlement_threshold must be"):
        load_scenario(path)


def test_pcst_requires_roads(tmp_path):
    with pytest.raises(ConfigError, match="roads"):
        load_scenario(_write_config(tmp_path, algorithms=["pcst"]))


def test_cost_overrides_apply(tmp_path):
    cfg = load_scenario(_write_config(tmp_path, cost={"c_olt": 30000, "discount_rate": 0.1}))
    assert cfg.cost_book.c_olt == 30000
    assert cfg.cost_book.discount_rate == 0.1
    # untouched fields keep their defaults
    assert cfg.cost_book.c_civil == 120_000.0


def test_emissions_overrides_apply(tmp_path):
    cfg = load_scenario(_write_config(tmp_path, emissions={"alpha": 2.0}))
    assert cfg.factor_book.alpha == 2.0


@pytest.mark.parametrize(
    "section,overrides",
    [
        ("cost", {"not_a_cost": 1}),
        ("cost", {"c_olt": -5}),
        ("emissions", {"not_a_factor": 1}),
        ("emissions", {"cf_glass_per_kg": -1}),
    ],
)
def test_bad_book_overrides(tmp_path, section, overrides):
    with pytest.raises(ConfigError):
        load_scenario(_write_config(tmp_path, **{section: overrides}))


def test_seed_without_mc_section_is_an_error(tmp_path):
    path = _write_config(tmp_path)
    with pytest.raises(ConfigError, match="monte_carlo"):
        load_scenario(path, seed=1)
    with pytest.raises(ConfigError, match="monte_carlo"):
        load_scenario(path, draws=10)


@pytest.mark.parametrize(
    "mc",
    [
        {"draws": 0},
        {"draws": "many"},
        {"draws": MAX_DRAWS + 1},
        {"seed": 1.5},
        {"unknown": 1},
        {"distributions": {"bogus": {"dist": "uniform", "lo": 0, "hi": 1}}},
        {"distributions": {"c_olt": {"dist": "uniform", "lo": 2, "hi": 1}}},
        {"distributions": {"c_olt": {"dist": "normal", "lo": 0, "hi": 1}}},
        {"distributions": {"c_olt": {"dist": "uniform", "lo": 0}}},
        {"distributions": {"c_olt": {"dist": "triangular", "lo": 0, "mode": 5, "hi": 1}}},
        {"distributions": {"c_olt": {"dist": "uniform", "lo": 0, "hi": 1, "sigma": 2}}},
        # a key that the kind does not read
        {"distributions": {"c_olt": {"dist": "uniform", "lo": 20000, "hi": 36000, "value": 99}}},
        {"distributions": {"c_olt": {"dist": "uniform", "lo": 20000, "hi": 36000, "mode": -5}}},
        {"distributions": {"c_olt": {"dist": "fixed", "lo": -1, "hi": "x", "value": 30000}}},
        {"distributions": {"c_olt": {"dist": "triangular", "lo": 20000, "mode": 30000,
                                     "hi": 36000, "value": 30000}}},
    ],
)
def test_bad_monte_carlo_sections(tmp_path, mc):
    with pytest.raises(ConfigError):
        load_scenario(_write_config(tmp_path, monte_carlo=mc))


def _golden_doc() -> dict:
    """The golden scenario, its input paths made absolute."""
    with open(GOLDEN, encoding="utf-8") as fh:
        doc = json.load(fh)
    base = os.path.dirname(GOLDEN)
    doc["inputs"] = {key: os.path.join(base, name) for key, name in doc["inputs"].items()}
    return doc


GOLDEN_DOC = _golden_doc()
# Each key path whose value the fuzz test replaces: every top-level key,
# every input, every book entry, every monte_carlo key, and every field of
# each golden distribution.
FUZZ_PATHS = (
    [(key,) for key in sorted({*GOLDEN_DOC, "settlements_format", "cost", "emissions"})]
    + [("inputs", key) for key in sorted(GOLDEN_DOC["inputs"])]
    + [("cost", f.name) for f in dataclasses.fields(CostBook)]
    + [("emissions", f.name) for f in dataclasses.fields(EmissionFactorBook)]
    + [("monte_carlo", key) for key in ("draws", "seed", "distributions")]
    + [
        ("monte_carlo", "distributions", name, field)
        for name in sorted(GOLDEN_DOC["monte_carlo"]["distributions"])
        for field in ("dist", "lo", "mode", "hi", "value")
    ]
)
FUZZ_VALUES = [None, "", "x", "a\u0000b", *NOT_PATHS]


@settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],  # one file, rewritten
)
@given(path=st.sampled_from(FUZZ_PATHS), value=st.sampled_from(FUZZ_VALUES))
def test_any_one_scenario_value_loads_or_raises_a_fiberplan_error(tmp_path, path, value):
    doc = _golden_doc()
    section = doc
    for key in path[:-1]:
        section = section.setdefault(key, {})
    section[path[-1]] = value
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    with contextlib.suppress(FiberPlanError):
        load_scenario(str(config))


def test_parameters_payload_excludes_paths_and_hashes_stably(tmp_path):
    cfg = load_scenario(GOLDEN)
    payload = parameters_payload(cfg)
    blob = json.dumps(payload)
    assert "settlements.csv" not in blob and "/" not in blob.replace("per_km", "")
    assert config_hash(payload) == config_hash(parameters_payload(load_scenario(GOLDEN)))
    # changing one parameter changes the hash
    other = load_scenario(_write_config(tmp_path, cost={"c_olt": 1.0}))
    assert config_hash(parameters_payload(other)) != config_hash(payload)


def test_payload_covers_book_fields_and_mc():
    payload = parameters_payload(load_scenario(GOLDEN))
    assert payload["cost"]["c_olt"] == 28_000.0
    assert payload["emissions"]["cable_kg_per_km"] == 247.0
    assert payload["monte_carlo"]["seed"] == 20240229
    assert payload["monte_carlo"]["distributions"]["c_olt"]["dist"] == "uniform"


@pytest.mark.parametrize("section", [[1], "x", 5])
@pytest.mark.parametrize("override", [{"seed": 1}, {"draws": 2}])
def test_overrides_on_a_monte_carlo_section_that_is_not_an_object(tmp_path, section, override):
    with pytest.raises(ConfigError, match="monte_carlo must be an object"):
        load_scenario(_write_config(tmp_path, monte_carlo=section), **override)


@pytest.mark.parametrize(
    "override, in_file",
    [
        ({"draws": 0}, {"monte_carlo": {"draws": 0}}),
        ({"seed": True}, {"monte_carlo": {"draws": 3, "seed": True}}),
        ({"algorithm": "dijkstra"}, {"algorithms": ["dijkstra"]}),
        ({"out_dir": ""}, {"output_dir": ""}),
    ],
    ids=["draws", "seed", "algorithm", "out"],
)
def test_an_override_is_checked_as_the_file_value_it_replaces(tmp_path, override, in_file):
    with pytest.raises(ConfigError) as from_override:
        load_scenario(_write_config(tmp_path, monte_carlo={"draws": 3}), **override)
    with pytest.raises(ConfigError) as from_file:
        load_scenario(_write_config(tmp_path, **in_file))
    assert repr(from_override.value) == repr(from_file.value)


def test_algorithm_override_replaces_an_invalid_file_value(tmp_path):
    cfg = load_scenario(_write_config(tmp_path, algorithms=["dijkstra"]), algorithm="mst")
    assert cfg.algorithms == ("mst",)
