"""Tests for settlement role assignment."""

from __future__ import annotations

import random

import pytest

from fiberplan.errors import ConfigError
from fiberplan.geodata import FiberLineSet
from fiberplan.netdesign.classify import classify_nodes

from .oracles import GeoPoint, Settlement, classify_nodes_reference, settlement_set

# Fiber running along the equator from lon 0 to lon 1.
FIBER = FiberLineSet(lines=((GeoPoint(0.0, 0.0), GeoPoint(0.0, 1.0)),))


def _s(sid, lat, lon, pop, region, sub):
    return Settlement(sid, GeoPoint(lat, lon), pop, region, sub)


def _set(*settlements):
    return settlement_set(settlements)


def _classify(settlements, fiber=FIBER, buffer_km=2.0, threshold=20_000):
    return classify_nodes(
        settlements, fiber, buffer_km=buffer_km, main_settlement_threshold=threshold
    )


def test_settlement_on_fiber_is_core_adjacent():
    result = _classify(_set(_s("a", 0.0, 0.5, 100, "R1", "R1-01")))
    assert result.core_adjacent == ("a",)
    assert result.access_nodes == {}


def test_regional_node_is_population_max_over_threshold():
    # Both far from fiber; 25k wins over 18k (below threshold).
    ss = _set(
        _s("big", 10.0, 10.0, 25_000, "R1", "R1-01"),
        _s("small", 10.1, 10.0, 18_000, "R1", "R1-02"),
    )
    result = _classify(ss)
    assert result.regional_nodes == {"R1": "big"}
    assert result.region_anchor == {"R1": "big"}
    # The 18k settlement still tops its subregion.
    assert result.access_nodes == {"R1-02": "small"}
    assert result.core_adjacent == ()


def test_region_without_candidate_is_flagged():
    ss = _set(
        _s("a", 10.0, 10.0, 15_000, "R1", "R1-01"),
        _s("b", 10.1, 10.0, 9_000, "R1", "R1-02"),
    )
    result = _classify(ss)
    assert result.regions_without_candidate == ("R1",)
    assert result.regional_nodes == {}
    # Anchored at the largest settlement; subregion maxima stay Access.
    assert result.region_anchor == {"R1": "a"}
    assert result.access_nodes == {"R1-01": "a", "R1-02": "b"}


def test_core_adjacent_takes_precedence_over_regional():
    # The region's biggest settlement sits on the fiber: the region anchors
    # on the core and assigns no Regional role.
    ss = _set(
        _s("oncore", 0.0, 0.5, 50_000, "R1", "R1-01"),
        _s("inland", 5.0, 5.0, 30_000, "R1", "R1-02"),
    )
    result = _classify(ss)
    assert result.core_adjacent == ("oncore",)
    assert result.region_anchor == {"R1": "oncore"}
    assert result.regional_nodes == {}
    assert result.access_nodes == {"R1-02": "inland"}
    assert result.regions_without_candidate == ()


def test_each_settlement_has_at_most_one_role():
    # The region anchors on the core (its max is core-adjacent), so no
    # Regional role exists and "big" only tops its own subregion.
    ss = _set(
        _s("oncore", 0.0, 0.5, 50_000, "R1", "R1-01"),
        _s("big", 5.0, 5.0, 40_000, "R1", "R1-02"),
        _s("little", 5.1, 5.0, 1_000, "R1", "R1-03"),
    )
    result = _classify(ss)
    assert result.core_adjacent == ("oncore",)
    assert result.regional_nodes == {}
    assert result.access_nodes == {"R1-02": "big", "R1-03": "little"}
    assert result.region_anchor == {"R1": "oncore"}


def test_population_ties_break_by_id():
    ss = _set(
        _s("zeta", 10.0, 10.0, 30_000, "R1", "R1-01"),
        _s("alpha", 10.1, 10.0, 30_000, "R1", "R1-02"),
    )
    result = _classify(ss)
    assert result.regional_nodes == {"R1": "alpha"}


def test_no_fiber_means_no_core_adjacent():
    ss = _set(_s("a", 0.0, 0.5, 50_000, "R1", "R1-01"))
    result = _classify(ss, fiber=None)
    assert result.core_adjacent == ()
    assert result.regional_nodes == {"R1": "a"}
    assert result.access_nodes == {}


def test_buffer_radius_respected():
    # ~1 km north of the fiber: inside a 2 km buffer, outside a 0.5 km one.
    near = _s("near", 0.00899320363724538, 0.5, 100, "R1", "R1-01")
    inside = _classify(_set(near), buffer_km=2.0)
    assert inside.core_adjacent == ("near",)
    assert inside.access_nodes == {}
    outside = _classify(_set(near), buffer_km=0.5)
    assert outside.core_adjacent == ()
    assert outside.access_nodes == {"R1-01": "near"}


def test_validation():
    ss = _set(_s("a", 0.0, 0.5, 100, "R1", "R1-01"))
    with pytest.raises(ConfigError):
        _classify(ss, buffer_km=-1.0)
    with pytest.raises(ConfigError):
        _classify(ss, threshold=-5)


@pytest.mark.parametrize("buffer_km", [float("nan"), float("inf")])
def test_buffer_that_is_not_finite_is_rejected(buffer_km):
    ss = _set(_s("a", 0.0, 0.5, 100, "R1", "R1-01"))
    with pytest.raises(ConfigError):
        _classify(ss, buffer_km=buffer_km)
    with pytest.raises(ConfigError):
        _classify(ss, fiber=None, buffer_km=buffer_km)


def _classify_case(rng):
    """Settlements in a few regions and subregions, some on the fiber, with
    populations from a short list so that ties are common and some regions
    have no settlement at the threshold; ids are shuffled."""
    settlements = []
    ids = iter(rng.sample(range(10_000), 200))
    for r in range(rng.randint(1, 5)):
        low = rng.random() < 0.3  # no settlement at the threshold
        pops = (100, 900, 19_999) if low else (100, 900, 20_000, 25_000, 25_000, 60_000)
        for sub in range(rng.randint(1, 4)):
            for _ in range(rng.randint(1, 6)):
                if rng.random() < 0.3:  # on or beside the fiber
                    lat, lon = rng.uniform(-0.02, 0.02), rng.uniform(0.0, 1.0)
                else:
                    lat, lon = rng.uniform(0.1, 1.0), rng.uniform(-1.0, 2.0)
                settlements.append(
                    _s(f"s{next(ids)}", lat, lon, rng.choice(pops), f"R{r}", f"R{r}-{sub}")
                )
    rng.shuffle(settlements)
    return settlements


def test_classify_equals_the_object_based_classify():
    rng = random.Random(16_0001)
    seen = dict.fromkeys(("tie", "no-candidate", "core-anchor", "regional"), 0)
    for i in range(300):
        settlements = _classify_case(rng)
        fiber = None if i % 10 == 0 else FIBER
        kw = {"buffer_km": rng.choice((0.0, 0.5, 2.0)),
              "main_settlement_threshold": rng.choice((0, 20_000, 25_000))}
        got = classify_nodes(settlement_set(settlements), fiber, **kw)
        assert got == classify_nodes_reference(settlements, fiber, **kw)
        for region, anchor in got.region_anchor.items():
            top = max(s.population for s in settlements if s.region_id == region)
            seen["tie"] += sum(s.population == top for s in settlements if s.region_id == region) > 1
            seen["core-anchor"] += anchor in got.core_adjacent and region not in got.regions_without_candidate
        seen["no-candidate"] += len(got.regions_without_candidate)
        seen["regional"] += len(got.regional_nodes)
    assert all(count >= 20 for count in seen.values()), seen
