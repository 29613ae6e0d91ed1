"""Tests for decile reporting, social carbon cost, Monte Carlo, and emitters."""

import json
import math
import os
import random
import sys
import threading
import warnings

import numpy as np
import pytest

from fiberplan import report
from fiberplan.costmodel import CostBook, tco_quantities
from fiberplan.errors import ConfigError, OutputError
from fiberplan.config import load_scenario
from fiberplan.geodata import SettlementSet, haversine_km
from fiberplan.lca import EmissionFactorBook, emissions_quantities
from fiberplan.netdesign.design import design_network
from fiberplan.pipeline import load_inputs, run_pipeline
from fiberplan.report import (
    _percentiles,
    MC_COLUMNS,
    MC_METRICS,
    REPORT_COLUMNS,
    Distribution,
    InvalidDistributionBounds,
    McConfig,
    ReportUnit,
    UnknownParameterKey,
    build_report,
    config_hash,
    draw_table,
    emit_csv,
    emit_design_geojson,
    emit_mc_csv,
    monte_carlo,
    resolve_parameter_key,
    scc,
)

from .oracles import GeoPoint, design_geojson_reference, draw_parameters_reference, road_graph

COST = CostBook()
LCA = EmissionFactorBook()


# --- social carbon cost -----------------------------------------------------


def test_scc_one_tonne_at_default_price():
    assert scc(1000.0, 75.0) == 75.0


def test_scc_is_linear_in_both_arguments():
    base = scc(420.0, 75.0)
    assert scc(840.0, 75.0) == pytest.approx(2 * base, rel=1e-12)
    assert scc(420.0, 150.0) == pytest.approx(2 * base, rel=1e-12)


def test_scc_rejects_negative_inputs():
    with pytest.raises(ValueError, match="total_kg_co2e must be >= 0, got -1.0"):
        scc(-1.0, 75.0)
    with pytest.raises(ValueError, match="carbon_price_usd_per_tonne must be >= 0, got -75.0"):
        scc(1.0, -75.0)


# --- report units and aggregation -------------------------------------------


def _unit(**kw) -> ReportUnit:
    base = dict(
        key="R1",
        decile=1,
        level="access",
        algorithm="MST",
        users=100.0,
        node_count=2,
        length_km=10.0,
    )
    base.update(kw)
    return ReportUnit(**base)


def test_unit_validates_decile_and_quantities():
    with pytest.raises(ValueError):
        _unit(decile=0)
    with pytest.raises(ValueError):
        _unit(decile=11)
    # the first negative quantity is named, in users, node_count, length_km order
    for field, value in (("users", -1.0), ("node_count", -1), ("length_km", -1.0)):
        with pytest.raises(ValueError, match=f"^{field} must be >= 0, got {value}$"):
            _unit(**{field: value})
    with pytest.raises(ValueError, match="^node_count must be"):
        _unit(node_count=-1, length_km=-1.0)


def test_single_unit_row_matches_direct_pricing():
    unit = _unit()
    (row,) = build_report([unit], COST, LCA)
    cost = tco_quantities(2, 10.0, COST, 100.0)
    emis = emissions_quantities(10.0, 2, 100.0, LCA)
    assert row.decile == 1 and row.level == "access" and row.algorithm == "MST"
    assert row.users == 100.0
    assert row.total_length_km == 10.0
    assert row.tco_usd == pytest.approx(cost.tco_usd, rel=1e-12)
    assert row.annualized_tco_per_user_usd == pytest.approx(
        cost.tco_usd / 100.0 / 30, rel=1e-12
    )
    assert row.monthly_tco_per_user_usd == pytest.approx(
        row.annualized_tco_per_user_usd / 12.0, rel=1e-12
    )
    assert row.total_kg_co2e == pytest.approx(emis.total_kg, rel=1e-12)
    assert row.per_user_kg_co2e == pytest.approx(emis.total_kg / 100.0, rel=1e-12)
    assert row.annualized_per_user_kg_co2e == pytest.approx(
        emis.total_kg / 100.0 / 30, rel=1e-12
    )
    assert row.scc_usd == pytest.approx(emis.total_kg / 1000.0 * 75.0, rel=1e-12)
    assert row.scc_per_user_usd == pytest.approx(row.scc_usd / 100.0, rel=1e-12)
    assert row.annualized_scc_per_user_usd == pytest.approx(
        row.scc_per_user_usd / 30, rel=1e-12
    )


def test_units_in_one_group_sum_before_dividing():
    a = _unit(key="A", users=100.0, node_count=1, length_km=4.0)
    b = _unit(key="B", users=50.0, node_count=2, length_km=6.0)
    (row,) = build_report([a, b], COST, LCA)
    assert row.users == 150.0
    assert row.total_length_km == 10.0
    expect_tco = (
        tco_quantities(1, 4.0, COST, 100.0).tco_usd
        + tco_quantities(2, 6.0, COST, 50.0).tco_usd
    )
    assert row.tco_usd == pytest.approx(expect_tco, rel=1e-12)
    # per-user divides the pooled total by the pooled users
    assert row.annualized_tco_per_user_usd == pytest.approx(
        expect_tco / 150.0 / 30, rel=1e-12
    )


def test_rows_sorted_by_decile_level_algorithm():
    units = [
        _unit(decile=2, level="regional", algorithm="PCST_GW"),
        _unit(decile=1, level="regional", algorithm="MST"),
        _unit(decile=1, level="access", algorithm="PCST_GW"),
        _unit(decile=1, level="access", algorithm="MST"),
    ]
    rows = build_report(units, COST, LCA)
    keys = [(r.decile, r.level, r.algorithm) for r in rows]
    assert keys == sorted(keys)
    assert keys[0] == (1, "access", "MST")
    assert keys[-1] == (2, "regional", "PCST_GW")


def test_zero_user_group_has_totals_but_no_per_user_metrics():
    (row,) = build_report([_unit(users=0.0)], COST, LCA)
    assert row.tco_usd > 0
    assert row.total_kg_co2e > 0
    assert row.scc_usd > 0
    assert row.annualized_tco_per_user_usd is None
    assert row.monthly_tco_per_user_usd is None
    assert row.per_user_kg_co2e is None
    assert row.annualized_per_user_kg_co2e is None
    assert row.scc_per_user_usd is None
    assert row.annualized_scc_per_user_usd is None


def test_opex_share_flows_through_to_row_totals():
    full = build_report([_unit(opex_share=1.0)], COST, LCA)[0]
    half = build_report([_unit(opex_share=0.5)], COST, LCA)[0]
    # the difference is exactly half the 31-year discounted opex stream
    from fiberplan.costmodel import opex_npv

    assert full.tco_usd - half.tco_usd == pytest.approx(0.5 * opex_npv(COST), rel=1e-12)


def test_report_conserves_users_within_level_and_algorithm():
    units = [
        _unit(key="A", decile=1, users=120.0),
        _unit(key="B", decile=1, users=30.0),
        _unit(key="C", decile=7, users=50.0),
        _unit(key="D", decile=10, users=0.0),
    ]
    rows = build_report(units, COST, LCA)
    assert math.fsum(r.users for r in rows) == math.fsum(u.users for u in units)


# --- distributions and draws ------------------------------------------------


def test_distribution_bounds_validation():
    with pytest.raises(InvalidDistributionBounds):
        Distribution(kind="uniform", lo=2.0, hi=1.0)
    with pytest.raises(InvalidDistributionBounds):
        Distribution(kind="triangular", lo=0.0, mode=3.0, hi=2.0)
    with pytest.raises(InvalidDistributionBounds):
        Distribution(kind="gaussian")
    assert isinstance(InvalidDistributionBounds("x"), ConfigError)


def test_resolve_parameter_key_maps_to_owning_book():
    assert resolve_parameter_key("c_olt") == "cost"
    assert resolve_parameter_key("discount_rate") == "cost"
    assert resolve_parameter_key("cf_glass_per_kg") == "lca"
    assert resolve_parameter_key("alpha") == "lca"
    with pytest.raises(UnknownParameterKey):
        resolve_parameter_key("bogus_parameter")
    # integer-valued horizon fields are not tunable
    with pytest.raises(UnknownParameterKey):
        resolve_parameter_key("assessment_years")
    with pytest.raises(UnknownParameterKey):
        resolve_parameter_key("lifetime_years")


def _mc(draws=4, seed=123, **dists) -> McConfig:
    return McConfig(draws=draws, seed=seed, distributions=dists)


def _draw_row(mc: McConfig, d: int) -> dict[str, float]:
    """Draw d's parameter values, keyed like the distributions: the
    one-row `draw_table`."""
    return {key: float(column[0]) for key, column in draw_table(mc, d, d + 1, COST, LCA).items()}


def test_draws_match_counter_based_generator_directly():
    # oracle: one generator keyed by (seed, draw) sampling in sorted key order
    mc = _mc(
        seed=99,
        c_olt=Distribution(kind="uniform", lo=20_000.0, hi=36_000.0),
        cf_diesel_per_liter=Distribution(kind="triangular", lo=2.0, mode=2.68, hi=3.2),
    )
    for d in (0, 1, 7):
        rng = np.random.Generator(np.random.Philox(key=[99, d]))
        expect_olt = rng.uniform(20_000.0, 36_000.0)
        expect_diesel = rng.triangular(2.0, 2.68, 3.2)
        got = _draw_row(mc, d)
        assert got["c_olt"] == expect_olt
        assert got["cf_diesel_per_liter"] == expect_diesel


# Every distribution kind, fixed both with and without a value.
EVERY_KIND = {
    "alpha": Distribution(kind="fixed", value=0.5),
    "c_civil": Distribution(kind="fixed"),
    "c_olt": Distribution(kind="uniform", lo=20_000.0, hi=36_000.0),
    "cf_diesel_per_liter": Distribution(kind="triangular", lo=2.0, mode=2.68, hi=3.2),
}
STREAM_SEEDS = (0, 1, 2**63 - 1, 2**63, 2**64 - 1, -1, 2**64 + 5)


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_draws_equal_a_fresh_generator_per_draw(seed):
    mc = McConfig(draws=8, seed=seed, distributions=EVERY_KIND)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in (5, 3, 5, 0, 7):  # out of order, and one draw twice
            assert _draw_row(mc, d) == draw_parameters_reference(mc, d, COST, LCA), d
        table = draw_table(mc, 2, 8, COST, LCA)
    for d in range(2, 8):
        drawn = {key: float(column[d - 2]) for key, column in table.items()}
        assert drawn == draw_parameters_reference(mc, d, COST, LCA), d


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_draw_table_words_are_numpy_philox_words(seed):
    """The words of every key shape: draw indices at both ends of the
    32-bit halves and of the draw bound, and 1 to 9 words, so one to three
    counter blocks, the last one partly used."""
    draws = [0, 1, 2**32, report.MAX_DRAWS - 1]
    for k in range(1, 10):
        words = report._philox_words(seed % 2**64, np.array(draws, dtype=np.uint64), k)
        for row, d in zip(words, draws):
            key = np.array([seed % 2**64, d], dtype=np.uint64)
            expected = np.random.Philox(key=key).random_raw(k)
            assert row.tolist() == expected.tolist(), (k, d)


def test_draw_table_equals_a_fresh_generator_on_narrow_and_wide_supports():
    keys = sorted(report._COST_FIELDS | report._LCA_FIELDS)
    rng = random.Random(8)
    for case in range(40):
        distributions = {}
        for key in rng.sample(keys, rng.randint(1, 6)):
            lo = rng.choice((0.0, rng.uniform(0.0, 1e3)))
            hi = lo + 10.0 ** rng.uniform(-9, 6)
            mode = rng.choice((lo, hi, rng.uniform(lo, hi)))
            kind = rng.choice(("uniform", "triangular"))
            distributions[key] = Distribution(kind=kind, lo=lo, mode=mode, hi=hi)
        mc = McConfig(draws=50, seed=rng.randrange(2**64), distributions=distributions)
        table = draw_table(mc, 0, 50, COST, LCA)
        for d in range(50):
            drawn = {key: float(column[d]) for key, column in table.items()}
            assert drawn == draw_parameters_reference(mc, d, COST, LCA), (case, d)


def test_a_uniform_range_past_the_largest_float_is_refused_as_numpy_refuses_it():
    lo, hi = -1e308, 1e308
    with pytest.raises(OverflowError) as refused:
        np.random.Generator(np.random.Philox(key=[123, 0])).uniform(lo, hi)
    mc = _mc(c_olt=Distribution(kind="uniform", lo=lo, hi=hi))
    with pytest.raises(OverflowError) as raised:
        draw_table(mc, 0, 4, COST, LCA)
    assert str(raised.value) == str(refused.value)


def test_two_threads_drawing_interleaved_keep_their_own_streams():
    # Every tunable key varied, so that a draw spans many switch points.
    varied = {
        key: Distribution(kind="uniform", lo=0.0, hi=0.5)
        if i % 2
        else Distribution(kind="triangular", lo=0.0, mode=0.25, hi=0.5)
        for i, key in enumerate(sorted(report._COST_FIELDS | report._LCA_FIELDS))
    }
    distributions = {**varied, **EVERY_KIND}
    draws = [(seed, d) for seed in STREAM_SEEDS for d in range(40)]
    results: dict[int, list] = {0: [], 1: []}
    barrier = threading.Barrier(2, timeout=30)

    def work(me: int) -> None:
        barrier.wait()
        for seed, d in draws if me == 0 else reversed(draws):
            mc = McConfig(draws=8, seed=seed, distributions=distributions)
            results[me].append(((seed, d), _draw_row(mc, d)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(me,)) for me in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for me in (0, 1):
        assert len(results[me]) == len(draws)
        for (seed, d), got in results[me]:
            mc = McConfig(draws=8, seed=seed, distributions=distributions)
            assert got == draw_parameters_reference(mc, d, COST, LCA), (me, seed, d)


def test_seeds_at_or_above_2_63_name_their_own_streams():
    """The key is the exact 64-bit seed: no float rounding merges two
    seeds, and a negative seed is its value mod 2**64, with no warning."""
    def c_olt(seed):
        mc = _mc(seed=seed, c_olt=Distribution(kind="uniform", lo=20_000.0, hi=36_000.0))
        return _draw_row(mc, 0)["c_olt"]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert c_olt(2**63 + 1) != c_olt(2**63 + 2)
        assert c_olt(-1) != c_olt(0)
        assert c_olt(-1) == c_olt(2**64 - 1)


def test_fixed_entries_consume_no_randomness():
    with_fixed = _mc(
        seed=5,
        c_civil=Distribution(kind="fixed"),
        c_olt=Distribution(kind="uniform", lo=20_000.0, hi=36_000.0),
    )
    without = _mc(seed=5, c_olt=Distribution(kind="uniform", lo=20_000.0, hi=36_000.0))
    a = _draw_row(with_fixed, 3)
    b = _draw_row(without, 3)
    assert a["c_olt"] == b["c_olt"]
    assert a["c_civil"] == COST.c_civil  # book value when no explicit override


def test_fixed_with_value_overrides_book():
    mc = _mc(seed=5, c_olt=Distribution(kind="fixed", value=30_000.0))
    assert _draw_row(mc, 0)["c_olt"] == 30_000.0


def test_same_seed_same_draw_is_identical_and_draws_differ():
    mc = _mc(seed=77, c_olt=Distribution(kind="uniform", lo=1.0, hi=2.0))
    a = _draw_row(mc, 4)
    b = _draw_row(mc, 4)
    c = _draw_row(mc, 5)
    assert a == b
    assert a["c_olt"] != c["c_olt"]


def test_uniform_draws_center_on_midpoint():
    mc = _mc(draws=2000, seed=11, c_olt=Distribution(kind="uniform", lo=10.0, hi=20.0))
    values = draw_table(mc, 0, 2000, COST, LCA)["c_olt"]
    assert abs(np.mean(values) - 15.0) / 15.0 < 0.03


# --- monte carlo summaries --------------------------------------------------


def test_mc_with_no_varying_parameters_is_zero_width():
    units = [_unit(), _unit(decile=4, level="regional", users=0.0)]
    base = build_report(units, COST, LCA)
    rows = monte_carlo(units, COST, LCA, _mc(draws=8, seed=1))
    assert len(rows) == len(MC_METRICS) * len(base)
    by_key = {(r.metric, r.decile, r.level, r.algorithm): r for r in rows}
    for row in base:
        for metric in MC_METRICS:
            got = by_key[(metric, row.decile, row.level, row.algorithm)]
            want = getattr(row, metric)
            if want is None:
                assert got.mean is None and got.p5 is None and got.p50 is None and got.p95 is None
            else:
                assert got.mean == want
                assert got.p5 == want
                assert got.p50 == want
                assert got.p95 == want


def test_mc_summary_order_is_metric_major_then_row_order():
    units = [
        _unit(decile=1),
        _unit(decile=2, users=10.0),
    ]
    rows = monte_carlo(units, COST, LCA, _mc(draws=2, seed=0))
    expect = [
        (metric, decile) for metric in MC_METRICS for decile in (1, 2)
    ]
    assert [(r.metric, r.decile) for r in rows] == expect


def test_mc_same_seed_reproduces_identical_summaries():
    units = [_unit()]
    mc = _mc(
        draws=32,
        seed=424242,
        c_olt=Distribution(kind="uniform", lo=20_000.0, hi=36_000.0),
        cf_electricity_per_kwh=Distribution(kind="triangular", lo=0.1, mode=0.1934, hi=0.6),
    )
    first = monte_carlo(units, COST, LCA, mc)
    second = monte_carlo(units, COST, LCA, mc)
    assert first == second
    third = monte_carlo(units, COST, LCA, _mc(draws=32, seed=424243, **dict(mc.distributions)))
    assert first != third


def test_mc_percentiles_are_ordered_and_bracket_the_mean_support():
    units = [_unit()]
    mc = _mc(draws=200, seed=7, c_olt=Distribution(kind="uniform", lo=10_000.0, hi=50_000.0))
    rows = monte_carlo(units, COST, LCA, mc)
    for r in rows:
        if r.mean is None:
            continue
        assert r.p5 <= r.p50 <= r.p95


def _percentile_columns(n: int, rng: random.Random) -> list[list[float]]:
    """Columns of n values: spread, all tied, tied in runs, signed zeros
    (alone and among ones) and magnitudes near 1e+300 and 1e-300."""
    return [
        [rng.uniform(-1.0, 1.0) for _ in range(n)],
        [2.5] * n,
        [float(rng.randint(0, 3)) for _ in range(n)],
        [-0.0] * n,
        [rng.choice((0.0, -0.0)) for _ in range(n)],
        [rng.choice((0.0, -0.0, 1.0, -1.0)) for _ in range(n)],
        [rng.uniform(-1.0, 1.0) * 1e300 for _ in range(n)],
        [rng.uniform(1.0, 1.7) * 1e300 for _ in range(n)],
        [rng.uniform(-1.0, 1.0) * 1e-300 for _ in range(n)],
    ]


def test_percentiles_equal_numpy_percentile_to_the_sign_of_zero():
    rng = random.Random(19)
    for n in [*range(1, 71), 99, 100, 101, 999, 1000, 1001]:
        columns = np.array(_percentile_columns(n, rng)).T
        # Strided columns of a 3-D array, as Monte Carlo's samples are.
        samples = np.stack([columns, columns[::-1]], axis=-1)
        got = _percentiles(samples)
        for i in range(samples.shape[1]):
            for j in range(samples.shape[2]):
                want = np.percentile(samples[:, i, j], [5.0, 50.0, 95.0])
                assert [repr(float(p)) for p in got[:, i, j]] == [
                    repr(float(p)) for p in want
                ], (n, i, j)


def test_mc_rejects_unknown_parameter_before_sampling():
    with pytest.raises(UnknownParameterKey):
        monte_carlo(
            [_unit()],
            COST,
            LCA,
            _mc(draws=2, seed=0, nonsense=Distribution(kind="uniform", lo=0.0, hi=1.0)),
        )


def test_mc_varied_capex_moves_only_cost_metrics():
    units = [_unit()]
    base = build_report(units, COST, LCA)[0]
    mc = _mc(draws=64, seed=3, c_olt=Distribution(kind="uniform", lo=20_000.0, hi=36_000.0))
    rows = {r.metric: r for r in monte_carlo(units, COST, LCA, mc)}
    # emissions metrics are untouched by a capex-only parameter
    assert rows["total_kg_co2e"].p5 == rows["total_kg_co2e"].p95 == base.total_kg_co2e
    # cost metrics spread around the base value
    assert rows["tco_usd"].p5 < rows["tco_usd"].p95
    assert rows["users"].p5 == rows["users"].p95 == base.users


# --- emitters ---------------------------------------------------------------


def test_config_hash_is_order_insensitive_and_stable():
    a = config_hash({"x": 1, "y": [1, 2]})
    b = config_hash(dict(reversed(list({"x": 1, "y": [1, 2]}.items()))))
    assert a == b
    assert len(a) == 16
    assert a != config_hash({"x": 2, "y": [1, 2]})


def test_emit_csv_golden_bytes(tmp_path):
    units = [_unit(users=100.0, node_count=2, length_km=10.0)]
    rows = build_report(units, COST, LCA)
    path = tmp_path / "report.csv"
    emit_csv(rows, str(path), parameters_hash="deadbeef00000000")
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "# parameters_hash=deadbeef00000000"
    assert lines[1] == ",".join(REPORT_COLUMNS)
    assert len(lines) == 3
    first = lines[2].split(",")
    assert first[0] == "1" and first[1] == "access" and first[2] == "MST"
    assert first[3] == "100"  # users formatted at six significant digits
    # rewriting produces identical bytes
    emit_csv(rows, str(path), parameters_hash="deadbeef00000000")
    assert path.read_text() == text


def test_emit_csv_empty_cells_for_undefined_metrics(tmp_path):
    rows = build_report([_unit(users=0.0)], COST, LCA)
    path = tmp_path / "report.csv"
    emit_csv(rows, str(path), parameters_hash="0" * 16)
    data_line = path.read_text().splitlines()[2]
    cells = data_line.split(",")
    named = dict(zip(REPORT_COLUMNS, cells))
    assert named["users"] == "0"
    assert named["annualized_tco_per_user_usd"] == ""
    assert named["per_user_kg_co2e"] == ""
    assert float(named["tco_usd"]) > 0


def test_emit_csv_refuses_empty_report(tmp_path):
    with pytest.raises(ValueError):
        emit_csv([], str(tmp_path / "report.csv"), parameters_hash="0" * 16)


def test_emit_csv_raises_output_error_for_bad_path(tmp_path):
    rows = build_report([_unit()], COST, LCA)
    with pytest.raises(OutputError):
        emit_csv(rows, str(tmp_path / "missing" / "report.csv"), parameters_hash="0" * 16)


def test_emit_csv_leaves_no_temp_file(tmp_path):
    rows = build_report([_unit()], COST, LCA)
    emit_csv(rows, str(tmp_path / "report.csv"), parameters_hash="0" * 16)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.csv"]


def test_emit_mc_csv_shape(tmp_path):
    rows = monte_carlo([_unit()], COST, LCA, _mc(draws=2, seed=0))
    path = tmp_path / "mc_summary.csv"
    emit_mc_csv(rows, str(path), parameters_hash="f" * 16)
    lines = path.read_text().splitlines()
    assert lines[0] == "# parameters_hash=" + "f" * 16
    assert lines[1] == ",".join(MC_COLUMNS)
    assert len(lines) == 2 + len(rows)


def _tiny_design():
    ids, lat, lon = ["root", "east", "north"], [0.0, 0.0, 0.3], [0.0, 0.3, 0.0]
    return design_network("access", "mst", ids, lat, lon, "root")


def test_emit_design_geojson_structure(tmp_path):
    result = _tiny_design()
    path = tmp_path / "design.geojson"
    emit_design_geojson([result], str(path), parameters_hash="a" * 16)
    doc = json.loads(path.read_text())
    assert doc["type"] == "FeatureCollection"
    assert doc["parameters_hash"] == "a" * 16
    lines = [f for f in doc["features"] if f["geometry"]["type"] == "LineString"]
    points = [f for f in doc["features"] if f["geometry"]["type"] == "Point"]
    assert len(lines) == len(result.design.edges) == 2
    assert len(points) == 3
    roles = sorted(p["properties"]["role"] for p in points)
    assert roles == ["root", "terminal", "terminal"]
    assert all(p["properties"]["connected"] is True for p in points)
    for f in lines:
        assert f["properties"]["level"] == "access"
        assert f["properties"]["algorithm"] == "MST"
        assert f["properties"]["weight_km"] > 0
        for lon, lat in f["geometry"]["coordinates"]:
            assert lon == round(lon, 6) and lat == round(lat, 6)


def test_emit_design_geojson_byte_identical(tmp_path):
    result = _tiny_design()
    p1, p2 = tmp_path / "a.geojson", tmp_path / "b.geojson"
    emit_design_geojson([result], str(p1), parameters_hash="a" * 16)
    emit_design_geojson([result], str(p2), parameters_hash="a" * 16)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().endswith(b"\n")


GOLDEN_SCENARIO = os.path.join(os.path.dirname(__file__), "data", "golden", "scenario.json")


def _emit_and_compare(tmp_path, results, name, settlements, roads) -> str:
    """Emit `results`, assert the bytes equal the dict-and-json.dumps
    document's, placed from `settlements` and `roads`, and return the text."""
    path = tmp_path / name
    emit_design_geojson(results, str(path), parameters_hash="0123456789abcdef")
    expected = design_geojson_reference(results, "0123456789abcdef", settlements, roads)
    assert path.read_bytes() == expected.encode("utf-8")
    return expected


def test_design_geojson_equals_the_json_document_on_the_golden_designs(tmp_path):
    cfg = load_scenario(GOLDEN_SCENARIO, out_dir=str(tmp_path / "out"))
    inputs = load_inputs(cfg)
    result = run_pipeline(cfg)
    assert sorted(result.designs) == [
        ("mst", "access"), ("mst", "regional"), ("pcst", "access"), ("pcst", "regional")
    ]
    for (selection, level), results in sorted(result.designs.items()):
        assert results
        name = f"design_{level}_{selection}.geojson"
        _emit_and_compare(tmp_path, results, name, inputs.settlements, inputs.roads)


def test_design_geojson_equals_the_json_document_on_hand_made_designs(tmp_path):
    road_points = [GeoPoint(0.0, 0.25 * i) for i in range(5)]
    roads = road_graph(
        road_points,
        [(i, i + 1, haversine_km(*road_points[i], *road_points[i + 1])) for i in range(4)],
    )
    escaped_ids = ['q"uote', "back\\slash", "café", "tab\there"]
    ids = [*escaped_ids, "east", "west", "near-east", "tiny-step", "alone"]
    # ids[3], at (-1e-9, -4e-7), is written -0.0, -0.0
    lat = [0.0, 0.0, 0.045, -1e-9, 0.5, -0.5, 10.0, 10.0 + 1e-10, -3.25]
    lon = [0.0, 1.0, 0.5, -4e-7, 180.0, -180.0, 179.9999996, 179.9999996, 36.5]
    settlements = SettlementSet(ids, lat, lon, [1] * 9, ["R1"] * 9, ["R1-01"] * 9)
    pcst = design_network(
        "regional", "pcst", ids[:3], lat[:3], lon[:3], escaped_ids[0],
        roads=roads,
        node_users={escaped_ids[1]: 200.0, escaped_ids[2]: 1.0},
        snap_radius_km=10.0,
    )
    assert pcst.design.excluded_terminals
    mst = design_network("access", "mst", ids[3:8], lat[3:8], lon[3:8], escaped_ids[3])
    single = design_network("access", "mst", ids[8:], lat[8:], lon[8:], "alone")
    text = _emit_and_compare(tmp_path, [pcst], "pcst.geojson", settlements, roads)
    assert '"connected":false' in text and '"role":"steiner"' in text
    assert all(json.dumps(sid) in text for sid in escaped_ids[:3])
    text = _emit_and_compare(tmp_path, [mst], "mst.geojson", settlements, roads)
    assert "[-0.0,-0.0]" in text and "[180.0,0.5]" in text and "[-180.0,-0.5]" in text
    assert "e-0" in text  # the tiny step's weight is written in exponent form
    _emit_and_compare(tmp_path, [single], "single.geojson", settlements, roads)
    _emit_and_compare(tmp_path, [pcst, mst, single, mst], "several.geojson", settlements, roads)
    _emit_and_compare(tmp_path, [], "empty.geojson", settlements, roads)


def test_design_geojson_escapes_every_string_as_json_dumps_does(tmp_path):
    # Quotes, backslashes, each control character, DEL, non-ASCII, non-BMP
    # (written as a surrogate pair) and a lone surrogate, in settlement ids.
    ids = ['"', "\\", 'a"b\\c', "\x00\x01\x1f", "\n\r\t\b\f", "\x7f", "é€",
           "\U0001d518", "😀x", "\ud800", "plain"]
    ids += [chr(c) for c in range(32) if chr(c) not in "".join(ids)]
    lat = [0.01 * i for i in range(len(ids))]
    lon = [0.02 * (i % 5) for i in range(len(ids))]
    n = len(ids)
    settlements = SettlementSet(ids, lat, lon, [1] * n, ["R1"] * n, ["R1-01"] * n)
    result = design_network("access", "mst", ids, lat, lon, ids[0])
    text = _emit_and_compare(tmp_path, [result], "escaped.geojson", settlements, None)
    assert text.isascii()
    for sid in ids:
        assert f'"settlement_id":{json.dumps(sid)}' in text, sid
    assert '"\\ud835\\udd18"' in text and '"\\u0000\\u0001\\u001f"' in text
