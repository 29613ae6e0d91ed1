"""Tests for settlement role assignment."""

from __future__ import annotations

import pytest

from fiberplan.geodata import FiberLineSet, GeoPoint, Settlement, SettlementSet
from fiberplan.netdesign import NodeRole, classify_nodes

# Fiber running along the equator from lon 0 to lon 1.
FIBER = FiberLineSet(lines=((GeoPoint(0.0, 0.0), GeoPoint(0.0, 1.0)),))


def _s(sid, lat, lon, pop, region, sub):
    return Settlement(sid, GeoPoint(lat, lon), pop, region, sub)


def _set(*settlements):
    return SettlementSet(settlements=tuple(settlements))


def _classify(settlements, fiber=FIBER, buffer_km=2.0, threshold=20_000):
    return classify_nodes(
        settlements, fiber, buffer_km=buffer_km, main_settlement_threshold=threshold
    )


def test_settlement_on_fiber_is_core_adjacent():
    result = _classify(_set(_s("a", 0.0, 0.5, 100, "R1", "R1-01")))
    assert result.roles["a"] is NodeRole.CORE_ADJACENT


def test_regional_node_is_population_max_over_threshold():
    # Both far from fiber; 25k wins over 18k (below threshold).
    ss = _set(
        _s("big", 10.0, 10.0, 25_000, "R1", "R1-01"),
        _s("small", 10.1, 10.0, 18_000, "R1", "R1-02"),
    )
    result = _classify(ss)
    assert result.roles["big"] is NodeRole.REGIONAL
    assert result.regional_nodes == {"R1": "big"}
    assert result.region_anchor == {"R1": "big"}
    # The 18k settlement still tops its subregion.
    assert result.roles["small"] is NodeRole.ACCESS
    assert result.access_nodes == {"R1-02": "small"}


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
    assert result.roles["a"] is NodeRole.ACCESS
    assert result.roles["b"] is NodeRole.ACCESS


def test_core_adjacent_takes_precedence_over_regional():
    # The region's biggest settlement sits on the fiber: the region anchors
    # on the core and assigns no Regional role.
    ss = _set(
        _s("oncore", 0.0, 0.5, 50_000, "R1", "R1-01"),
        _s("inland", 5.0, 5.0, 30_000, "R1", "R1-02"),
    )
    result = _classify(ss)
    assert result.roles["oncore"] is NodeRole.CORE_ADJACENT
    assert result.region_anchor == {"R1": "oncore"}
    assert result.regional_nodes == {}
    assert result.roles["inland"] is NodeRole.ACCESS
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
    assert result.roles == {
        "oncore": NodeRole.CORE_ADJACENT,
        "big": NodeRole.ACCESS,
        "little": NodeRole.ACCESS,
    }
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
    assert result.roles["a"] is NodeRole.REGIONAL


def test_buffer_radius_respected():
    # ~1 km north of the fiber: inside a 2 km buffer, outside a 0.5 km one.
    near = _s("near", 0.00899320363724538, 0.5, 100, "R1", "R1-01")
    inside = _classify(_set(near), buffer_km=2.0)
    assert inside.roles["near"] is NodeRole.CORE_ADJACENT
    outside = _classify(_set(near), buffer_km=0.5)
    assert outside.roles["near"] is NodeRole.ACCESS


def test_validation():
    ss = _set(_s("a", 0.0, 0.5, 100, "R1", "R1-01"))
    with pytest.raises(ValueError):
        _classify(ss, buffer_km=-1.0)
    with pytest.raises(ValueError):
        _classify(ss, threshold=-5)


@pytest.mark.parametrize("buffer_km", [float("nan"), float("inf")])
def test_buffer_that_is_not_finite_is_rejected(buffer_km):
    ss = _set(_s("a", 0.0, 0.5, 100, "R1", "R1-01"))
    with pytest.raises(ValueError):
        _classify(ss, buffer_km=buffer_km)
    with pytest.raises(ValueError):
        _classify(ss, fiber=None, buffer_km=buffer_km)
