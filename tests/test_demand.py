"""Tests for demand modelling: densities, adoption, decile assignment."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberplan.demand import (
    DENSITY_BAND_FLOORS,
    AdoptionScenario,
    DensityOverflow,
    SubregionDemand,
    TooFewSubregions,
    ZeroArea,
    assign_deciles,
    band_demand,
    load_area_table,
    decile_for_density,
    population_density,
    potential_users,
    users_for_node,
    write_demand_csv,
)
from fiberplan.errors import DataError
from fiberplan.geodata import MissingColumn


def test_population_density():
    assert population_density(1000, 4.0) == 250.0
    with pytest.raises(ZeroArea):
        population_density(1000, 0.0)
    with pytest.raises(ZeroArea):
        population_density(1000, -1.0)
    with pytest.raises(ValueError):
        population_density(-1, 1.0)


def test_densest_band_anchor():
    # Densest-decile aggregate from the national dataset the defaults were
    # calibrated on: 212,797,965 people over 77,288 km2.
    density = population_density(212_797_965, 77_288.0)
    assert density == pytest.approx(2753.3, abs=0.05)
    scenario = AdoptionScenario(adoption_rate=0.005)
    assert potential_users(density, scenario) == pytest.approx(13.7665, abs=5e-4)


def test_potential_users_exact():
    scenario = AdoptionScenario(adoption_rate=0.005)
    assert potential_users(10_000.0, scenario) == 50.0


def test_potential_users_cutoff():
    scenario = AdoptionScenario(adoption_rate=0.1, min_density_per_km2=5.0)
    assert potential_users(5.0, scenario) == 0.0  # at the cutoff: excluded
    assert potential_users(5.01, scenario) == pytest.approx(0.501)
    assert potential_users(0.0, AdoptionScenario(adoption_rate=0.5)) == 0.0


def test_adoption_scenario_validation():
    with pytest.raises(ValueError):
        AdoptionScenario(adoption_rate=0.0)
    with pytest.raises(ValueError):
        AdoptionScenario(adoption_rate=1.5)
    with pytest.raises(ValueError):
        AdoptionScenario(adoption_rate=0.5, min_density_per_km2=-1.0)


def _bands_fixture():
    """Twenty subregions: two per decile band, one exactly at each band floor.

    Unit areas make density == population; the second member of each band sits
    strictly inside it, so the expected per-decile minima after an equal-count
    split are the band floors themselves.
    """
    floors = [958, 456, 273, 172, 107, 64, 40, 22, 10, 1]
    inner = [1916, 700, 400, 200, 150, 100, 50, 30, 15, 5]
    rows = []
    for i, (floor, hi) in enumerate(zip(floors, inner), start=1):
        rows.append((f"hi{i:02d}", hi, 1.0))
        rows.append((f"lo{i:02d}", floor, 1.0))
    return rows


def test_assign_deciles_band_fixture():
    records = assign_deciles(_bands_fixture())
    assert len(records) == 20
    for decile in range(1, 11):
        members = [r for r in records if r.decile == decile]
        assert len(members) == 2
    minima = [
        min(r.density_per_km2 for r in records if r.decile == d) for d in range(1, 11)
    ]
    assert minima == [958.0, 456.0, 273.0, 172.0, 107.0, 64.0, 40.0, 22.0, 10.0, 1.0]


def test_assign_deciles_sorted_and_monotone():
    records = assign_deciles(_bands_fixture())
    densities = [r.density_per_km2 for r in records]
    assert densities == sorted(densities, reverse=True)
    deciles = [r.decile for r in records]
    assert deciles == sorted(deciles)


def test_assign_deciles_remainder_to_denser():
    # 23 subregions: deciles 1-3 get 3 members, the rest 2.
    rows = [(f"s{i:02d}", 1000 - i, 1.0) for i in range(23)]
    records = assign_deciles(rows)
    sizes = [sum(1 for r in records if r.decile == d) for d in range(1, 11)]
    assert sizes == [3, 3, 3, 2, 2, 2, 2, 2, 2, 2]


def test_assign_deciles_ties_by_id():
    rows = [(f"s{i:02d}", 100, 1.0) for i in range(10)]
    records = assign_deciles(rows)
    assert [r.subregion_id for r in records] == sorted(r[0] for r in rows)


def test_assign_deciles_too_few():
    with pytest.raises(TooFewSubregions):
        assign_deciles([(f"s{i}", 10, 1.0) for i in range(9)])


def test_assign_deciles_duplicate_subregion():
    rows = [(f"s{i}", 10, 1.0) for i in range(10)]
    rows[5] = ("s1", 10, 1.0)
    with pytest.raises(DataError, match="duplicate"):
        assign_deciles(rows)


@pytest.mark.parametrize("split", [assign_deciles, band_demand])
@pytest.mark.parametrize(
    "population, area",
    [(10**400, 10.0), (25_000, 1e-320)],
    ids=["population-past-a-float", "area-near-zero"],
)
def test_density_too_large_for_a_float_names_the_subregion(split, population, area):
    rows = [(f"s{i}", 10, 1.0) for i in range(9)] + [("dense", population, area)]
    with pytest.raises(DensityOverflow, match="subregion 'dense'"):
        split(rows, AdoptionScenario(adoption_rate=0.005))
    assert DensityOverflow.exit_code == 3


def test_assign_deciles_fills_users():
    scenario = AdoptionScenario(adoption_rate=0.01)
    rows = [(f"s{i:02d}", (i + 1) * 100, 2.0) for i in range(10)]
    records = assign_deciles(rows, scenario)
    for r in records:
        assert r.users_per_km2 == pytest.approx(r.density_per_km2 * 0.01)
        assert users_for_node(r) == pytest.approx(r.users_per_km2 * r.area_km2)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10_000_000),
            st.floats(min_value=0.1, max_value=100_000.0),
        ),
        min_size=10,
        max_size=200,
    )
)
@settings(max_examples=100)
def test_decile_split_conserves_users(rows):
    subregions = [(f"s{i:05d}", pop, area) for i, (pop, area) in enumerate(rows)]
    scenario = AdoptionScenario(adoption_rate=0.005)
    records = assign_deciles(subregions, scenario)
    assert len(records) == len(subregions)
    assert {r.subregion_id for r in records} == {s[0] for s in subregions}
    # Partition completeness: every subregion lands in exactly one decile, so
    # summing the deciles' members covers the same value multiset exactly.
    partition = [[users_for_node(r) for r in records if r.decile == d] for d in range(1, 11)]
    assert sum(len(p) for p in partition) == len(records)
    total = math.fsum(users_for_node(r) for r in records)
    by_decile = math.fsum(v for p in partition for v in p)
    assert by_decile == total


def test_decile_for_density_bands():
    assert decile_for_density(2753.3) == 1
    assert decile_for_density(958.0) == 1
    assert decile_for_density(957.99) == 2
    assert decile_for_density(107.0) == 5
    assert decile_for_density(10.0) == 9
    assert decile_for_density(9.99) == 10
    assert decile_for_density(0.0) == 10


def test_band_demand_small_scenario():
    records = band_demand(
        [("a", 5000, 1.0), ("b", 50, 1.0), ("c", 5, 1.0)],
        AdoptionScenario(adoption_rate=0.1),
    )
    assert [r.decile for r in records] == [1, 7, 10]
    assert records[0].users_per_km2 == pytest.approx(500.0)


def test_write_demand_csv(tmp_path):
    records = [
        SubregionDemand("s1", 12.5, 1000, 80.0, 6, 0.4),
        SubregionDemand("s2", 3.0, 10, 10.0 / 3.0, 9, 1.0 / 60.0),
    ]
    path = tmp_path / "demand.csv"
    write_demand_csv(records, str(path))
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "subregion_id,area_km2,population,density_per_km2,decile,users_per_km2"
    assert lines[1] == "s1,12.5,1000,80,6,0.4"
    assert lines[2] == "s2,3,10,3.33333,9,0.0166667"


def _areas(tmp_path, text: str) -> str:
    path = tmp_path / "a.csv"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_area_table_reads_rows_as_dict_reader_does(tmp_path):
    # Blank rows are skipped, a column named twice is read from its last
    # occurrence, and fields past the header are ignored.
    text = "subregion_id,area_km2,area_km2\n\nS1,1.0,10\n\n\nS2,2.0,20,extra\n"
    assert load_area_table(_areas(tmp_path, text)) == {"S1": 10.0, "S2": 20.0}


def test_load_area_table_short_row_reads_none_past_its_end(tmp_path):
    with pytest.raises(DataError, match=r"a\.csv:3: bad area_km2 None"):
        load_area_table(_areas(tmp_path, "subregion_id,area_km2\nS1,10\n\n\nS2\n"))


def test_load_area_table_row_numbers_count_only_rows_that_are_not_blank(tmp_path):
    text = "subregion_id,area_km2\n\nS1,10\n\nS1,20\n"
    with pytest.raises(DataError, match=r"a\.csv:3: duplicate subregion_id 'S1'"):
        load_area_table(_areas(tmp_path, text))


def test_load_area_table_missing_column(tmp_path):
    with pytest.raises(MissingColumn, match=r"a\.csv: missing columns area_km2$"):
        load_area_table(_areas(tmp_path, "subregion_id,area\nS1,10\n"))
