"""Tests for demand modelling: densities, adoption, decile assignment."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberplan.demand import (
    AdoptionScenario,
    DemandTable,
    DensityOverflow,
    TooFewSubregions,
    ZeroArea,
    assign_deciles,
    band_demand,
    load_area_table,
    write_demand_csv,
)
from fiberplan.errors import DataError
from fiberplan.geodata import MissingColumn
from tests.oracles import (
    decile_for_density,
    demand_records_reference,
    population_density,
    potential_users,
    users_for_node,
)


def test_population_density():
    assert population_density(1000, 4.0) == 250.0
    assert band_demand([("s", 1000, 4.0)]).density_per_km2.tolist() == [250.0]
    for area in (0.0, -1.0):
        with pytest.raises(ZeroArea):
            population_density(1000, area)
        with pytest.raises(ZeroArea):
            band_demand([("s", 1000, area)])
    with pytest.raises(ValueError):
        population_density(-1, 1.0)
    with pytest.raises(ValueError):
        band_demand([("s", -1, 1.0)])


def test_densest_band_anchor():
    # Densest-decile aggregate from the national dataset the defaults were
    # calibrated on: 212,797,965 people over 77,288 km2.
    scenario = AdoptionScenario(adoption_rate=0.005)
    table = band_demand([("anchor", 212_797_965, 77_288.0)], scenario)
    (density,) = table.density_per_km2.tolist()
    assert density == population_density(212_797_965, 77_288.0)
    assert density == pytest.approx(2753.3, abs=0.05)
    assert table.users_per_km2.tolist() == [potential_users(density, scenario)]
    assert table.users_per_km2[0] == pytest.approx(13.7665, abs=5e-4)


def test_potential_users_exact():
    scenario = AdoptionScenario(adoption_rate=0.005)
    assert potential_users(10_000.0, scenario) == 50.0
    assert band_demand([("s", 10_000, 1.0)], scenario).users_per_km2.tolist() == [50.0]


def test_potential_users_cutoff():
    scenario = AdoptionScenario(adoption_rate=0.1, min_density_per_km2=5.0)
    assert potential_users(5.0, scenario) == 0.0  # at the cutoff: excluded
    assert potential_users(5.01, scenario) == pytest.approx(0.501)
    assert potential_users(0.0, AdoptionScenario(adoption_rate=0.5)) == 0.0
    table = band_demand([("at", 5, 1.0), ("above", 501, 100.0)], scenario)
    assert table.subregion_id == ("above", "at")
    assert table.users_per_km2.tolist() == [potential_users(5.01, scenario), 0.0]
    empty = band_demand([("s", 0, 1.0)], AdoptionScenario(adoption_rate=0.5))
    assert empty.users_per_km2.tolist() == [0.0]


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
    table = assign_deciles(_bands_fixture())
    assert len(table) == 20
    assert np.bincount(table.decile).tolist() == [0] + [2] * 10
    minima = [table.density_per_km2[table.decile == d].min() for d in range(1, 11)]
    assert minima == [958.0, 456.0, 273.0, 172.0, 107.0, 64.0, 40.0, 22.0, 10.0, 1.0]


def test_assign_deciles_sorted_and_monotone():
    table = assign_deciles(_bands_fixture())
    densities = table.density_per_km2.tolist()
    assert densities == sorted(densities, reverse=True)
    deciles = table.decile.tolist()
    assert deciles == sorted(deciles)


def test_assign_deciles_remainder_to_denser():
    # 23 subregions: deciles 1-3 get 3 members, the rest 2.
    rows = [(f"s{i:02d}", 1000 - i, 1.0) for i in range(23)]
    sizes = np.bincount(assign_deciles(rows).decile, minlength=11)[1:].tolist()
    assert sizes == [3, 3, 3, 2, 2, 2, 2, 2, 2, 2]


def test_assign_deciles_ties_by_id():
    rows = [(f"s{i:02d}", 100, 1.0) for i in reversed(range(10))]
    assert assign_deciles(rows).subregion_id == tuple(sorted(r[0] for r in rows))


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


# Ten valid subregions ahead of each error case, so `assign_deciles` has
# enough to split and the bad rows are not the first.
_GOOD = [(f"ok{i}", 100 * (i + 1), 2.0) for i in range(10)]


@pytest.mark.parametrize(
    "rows, error, message",
    [
        (
            [("ok3", 5, 1.0), ("z", 10, 0.0), ("neg", -1, 1.0)],
            DataError,
            "duplicate subregion_id 'ok3'",
        ),
        (
            [("z", 10, -2.5), ("ok1", 5, 1.0), ("neg", -1, 1.0), ("big", 10**400, 1.0)],
            ZeroArea,
            "area must be positive, got -2.5",
        ),
        (
            [("both", -4, 0.0), ("neg", -1, 1.0)],  # the area is checked first
            ZeroArea,
            "area must be positive, got 0.0",
        ),
        (
            [("neg", -3, 2.0), ("big", 10**400, 1.0), ("z", 10, 0.0), ("ok0", 1, 1.0)],
            ValueError,
            "population must be >= 0, got -3",
        ),
        (
            [("big", 10**400, 1.0), ("z", 10, 0.0), ("ok0", 1, 1.0)],
            DensityOverflow,
            "subregion 'big' has a population density too large for a float (area 1.0 km2)",
        ),
        (
            [("tiny", 25_000, 1e-320), ("neg", -1, 1.0)],
            DensityOverflow,
            "subregion 'tiny' has a population density too large for a float "
            "(area 1e-320 km2)",
        ),
    ],
    ids=["duplicate-id", "area-not-positive", "area-before-population", "negative-population",
         "population-past-a-float", "area-near-zero"],
)
@pytest.mark.parametrize("bands", [False, True], ids=["equal-count", "bands"])
def test_the_first_bad_subregion_raises_its_class_and_message(rows, error, message, bands):
    rows = _GOOD + rows
    split = band_demand if bands else assign_deciles
    for run in (lambda: split(rows), lambda: demand_records_reference(rows, bands=bands)):
        with pytest.raises(error) as caught:
            run()
        assert type(caught.value) is error
        assert str(caught.value) == message


def test_assign_deciles_fills_users():
    scenario = AdoptionScenario(adoption_rate=0.01)
    rows = [(f"s{i:02d}", (i + 1) * 100, 2.0) for i in range(10)]
    table = assign_deciles(rows, scenario)
    assert table.users_per_km2.tolist() == (table.density_per_km2 * 0.01).tolist()
    assert table.users().tolist() == (table.users_per_km2 * table.area_km2).tolist()
    assert assign_deciles(rows).users_per_km2.tolist() == [0.0] * 10


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
    table = assign_deciles(subregions, scenario)
    assert len(table) == len(subregions)
    assert set(table.subregion_id) == {s[0] for s in subregions}
    # Partition completeness: every subregion lands in exactly one decile, so
    # summing the deciles' members covers the same value multiset exactly.
    users = table.users()
    partition = [users[table.decile == d].tolist() for d in range(1, 11)]
    assert sum(len(p) for p in partition) == len(table)
    total = math.fsum(users.tolist())
    by_decile = math.fsum(v for p in partition for v in p)
    assert by_decile == total


# Populations past a float's 53-bit mantissa and past int64, next to
# small ones that repeat, so some densities tie.
_POPULATIONS = st.one_of(
    st.sampled_from([0, 1, 10, 958, 1000]),
    st.integers(min_value=0, max_value=10_000_000),
    st.integers(min_value=2**53 - 3, max_value=2**53 + 3),
    st.integers(min_value=2**63 - 3, max_value=2**64 + 3),
    st.integers(min_value=0, max_value=2**200),
)
_AREAS = st.one_of(
    st.sampled_from([1.0, 0.5, 3.0]), st.floats(min_value=1e-3, max_value=1e6)
)


@given(st.data())
@settings(derandomize=True, max_examples=150, deadline=None)
def test_table_columns_equal_the_scalar_reference(data):
    """Each column of the table equals the scalar formulas exactly, for
    either split, with ids in any order, tied densities, populations past
    2**53 and 2**63, and densities exactly at the cutoff."""
    bands = data.draw(st.booleans(), label="bands")
    ids = data.draw(
        st.lists(st.text("ab0", min_size=1, max_size=4), unique=True,
                 min_size=0 if bands else 10, max_size=40),
        label="ids",
    )
    rows = [(sid, data.draw(_POPULATIONS), data.draw(_AREAS)) for sid in ids]
    scenario = None
    if data.draw(st.booleans(), label="scenario"):
        densities = [population_density(p, a) for _, p, a in rows]
        floor = data.draw(st.sampled_from(densities + [0.0, 958.0]), label="cutoff")
        rate = data.draw(st.floats(min_value=1e-6, max_value=1.0), label="rate")
        scenario = AdoptionScenario(adoption_rate=rate, min_density_per_km2=floor)
    table = (band_demand if bands else assign_deciles)(rows, scenario)
    want = demand_records_reference(rows, scenario, bands=bands)
    assert table.subregion_id == tuple(r.subregion_id for r in want)
    assert table.population == tuple(r.population for r in want)
    assert all(type(p) is int for p in table.population)
    assert table.area_km2.tolist() == [r.area_km2 for r in want]
    assert table.density_per_km2.tolist() == [r.density_per_km2 for r in want]
    assert table.decile.tolist() == [r.decile for r in want]
    assert table.users_per_km2.tolist() == [r.users_per_km2 for r in want]
    assert table.users().tolist() == [users_for_node(r) for r in want]


def test_decile_for_density_bands():
    assert decile_for_density(2753.3) == 1
    assert decile_for_density(958.0) == 1
    assert decile_for_density(957.99) == 2
    assert decile_for_density(107.0) == 5
    assert decile_for_density(10.0) == 9
    assert decile_for_density(9.99) == 10
    assert decile_for_density(0.0) == 10
    # Each population over its area is the float literal in the comment.
    rows = [("a", 27_533, 10.0), ("b", 958, 1.0), ("c", 95_799, 100.0),  # 2753.3, 957.99
            ("d", 107, 1.0), ("e", 10, 1.0), ("f", 999, 100.0), ("g", 0, 1.0)]  # 9.99
    table = band_demand(rows)
    assert table.density_per_km2.tolist() == [2753.3, 958.0, 957.99, 107.0, 10.0, 9.99, 0.0]
    assert table.decile.tolist() == [1, 1, 2, 5, 9, 10, 10]


def test_band_demand_small_scenario():
    table = band_demand(
        [("a", 5000, 1.0), ("b", 50, 1.0), ("c", 5, 1.0)],
        AdoptionScenario(adoption_rate=0.1),
    )
    assert table.decile.tolist() == [1, 7, 10]
    assert table.users_per_km2[0] == pytest.approx(500.0)
    assert len(band_demand([])) == 0


def test_write_demand_csv(tmp_path):
    table = DemandTable(
        subregion_id=("s1", "s2"),
        area_km2=np.array([12.5, 3.0]),
        population=(1000, 10),
        density_per_km2=np.array([80.0, 10.0 / 3.0]),
        decile=np.array([6, 9]),
        users_per_km2=np.array([0.4, 1.0 / 60.0]),
    )
    path = tmp_path / "demand.csv"
    write_demand_csv(table, str(path))
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
