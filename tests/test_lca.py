"""Tests for the five-phase emissions model against hand-derived fixtures."""

from __future__ import annotations

import random

import pytest

from fiberplan.lca import (
    EmissionFactorBook,
    _construction,
    _eolt,
    _fiber_mfg,
    _node_mass,
    _nonfiber_mfg,
    _operations,
    _per_user_power,
    _transport,
    emissions_quantities,
)

BOOK = EmissionFactorBook()


class TestManufacturing:
    def test_fiber_reference(self):
        assert _fiber_mfg(0.0, BOOK) == 0.0
        assert _fiber_mfg(1.0, BOOK) == pytest.approx(346.541, abs=1e-9)
        assert _fiber_mfg(2.0, BOOK) == pytest.approx(
            2 * _fiber_mfg(1.0, BOOK), rel=1e-12
        )

    def test_nonfiber_reference(self):
        assert _nonfiber_mfg(0, BOOK) == 0.0
        assert _nonfiber_mfg(1, BOOK) == pytest.approx(415.54, abs=1e-9)

    def test_combined_reference(self):
        total = _fiber_mfg(1.0, BOOK) + _nonfiber_mfg(1, BOOK)
        assert total == pytest.approx(762.081, abs=1e-9)


class TestTransport:
    def test_zero(self):
        assert _transport(0.0, 0.0, BOOK) == 0.0

    def test_shipping_only(self):
        assert _transport(0.0, 247.0, BOOK) == pytest.approx(79.8798, abs=1e-9)

    def test_vehicle_term_doubles_with_distance(self):
        base = _transport(10.0, 0.0, BOOK)
        assert _transport(20.0, 0.0, BOOK) == pytest.approx(2 * base, rel=1e-12)


class TestConstruction:
    def test_reference(self):
        # 100 km at a 1% trench share: 1 km trenched, 1 hour, 24.33 L.
        assert _construction(100.0, BOOK) == pytest.approx(65.20, abs=0.01)

    def test_zero_trench_fraction(self):
        book = EmissionFactorBook(trench_fraction=0.0)
        assert _construction(500.0, book) == 0.0

    def test_linear(self):
        assert _construction(50.0, BOOK) == pytest.approx(
            _construction(100.0, BOOK) / 2, rel=1e-12
        )


class TestOperations:
    def test_power_reference(self):
        book = EmissionFactorBook(p_node_kw=0.0, alpha=0.0, p_rn_kw=1.0)
        power = _per_user_power(100.0, 50.0, book)
        assert power == pytest.approx(0.01, rel=1e-12)
        rate = power * book.cf_electricity_per_kwh
        assert rate == pytest.approx(0.001934, rel=1e-12)
        lifetime = _operations(100.0, 50.0, book)
        assert lifetime == pytest.approx(0.001934 * 8760.0 * 30, rel=1e-12)

    def test_all_zero_power(self):
        book = EmissionFactorBook(p_node_kw=0.0, alpha=0.0, p_rn_kw=0.0)
        assert _operations(10.0, 10.0, book) == 0.0

    def test_rate_linear_in_grid_intensity(self):
        book2 = EmissionFactorBook(cf_electricity_per_kwh=2 * BOOK.cf_electricity_per_kwh)
        assert _operations(10.0, 5.0, book2) == pytest.approx(
            2 * _operations(10.0, 5.0, BOOK), rel=1e-12
        )


class TestEolt:
    def test_reference(self):
        assert _eolt(0.0, 0, BOOK) == 0.0
        assert _eolt(0.0, 1, BOOK) == pytest.approx(116.57, abs=0.01)
        assert _eolt(1.0, 0, BOOK) == pytest.approx(568.1, abs=1e-9)


class TestTotal:
    def test_empty_design_all_zero(self):
        b = emissions_quantities(0.0, 0, 0.0, BOOK)
        assert (b.mfg_kg, b.trans_kg, b.constr_kg, b.ops_kg, b.eolt_kg, b.total_kg) == (
            0.0,
        ) * 6
        assert b.per_user_kg is None
        assert b.annualized_per_user_kg is None

    def test_additivity_on_random_inputs(self):
        rng = random.Random(42)
        for _ in range(200):
            km = rng.uniform(0.0, 500.0)
            nodes = rng.randint(0, 40)
            users = rng.choice([0.0, rng.uniform(0.1, 1e5)])
            b = emissions_quantities(km, nodes, users, BOOK)
            phases = b.mfg_kg + b.trans_kg + b.constr_kg + b.ops_kg + b.eolt_kg
            assert b.total_kg == pytest.approx(phases, rel=1e-9)
            assert min(b.mfg_kg, b.trans_kg, b.constr_kg, b.ops_kg, b.eolt_kg) >= 0.0

    def test_phases_match_independent_calls(self):
        b = emissions_quantities(12.0, 3, 600.0, BOOK)
        assert b.mfg_kg == pytest.approx(
            _fiber_mfg(12.0, BOOK) + _nonfiber_mfg(3, BOOK), rel=1e-12
        )
        shipping = 12.0 * BOOK.cable_kg_per_km + 3 * _node_mass(BOOK)
        assert b.trans_kg == pytest.approx(
            _transport(12.0, shipping, BOOK), rel=1e-12
        )
        assert b.constr_kg == pytest.approx(_construction(12.0, BOOK), rel=1e-12)
        assert b.ops_kg == pytest.approx(
            600.0 * _operations(600.0, 200.0, BOOK), rel=1e-12
        )
        assert b.eolt_kg == pytest.approx(_eolt(12.0, 3, BOOK), rel=1e-12)

    def test_halving_users_doubles_per_user_mfg_share(self):
        # Operations scale with users, so isolate the fixed phases.
        book = EmissionFactorBook(p_rn_kw=0.0, p_tu_kw=0.0, p_node_kw=0.0)
        full = emissions_quantities(10.0, 2, 100.0, book)
        half = emissions_quantities(10.0, 2, 50.0, book)
        assert half.per_user_kg == pytest.approx(2 * full.per_user_kg, rel=1e-12)

    def test_zero_users_no_ops_marked_undefined(self):
        b = emissions_quantities(10.0, 2, 0.0, BOOK)
        assert b.ops_kg == 0.0
        assert b.total_kg > 0
        assert b.per_user_kg is None

    def test_quantities_validation(self):
        cases = (
            ((-1.0, 0, 0.0), "length_km must be >= 0, got -1.0"),
            ((0.0, -1, 0.0), "node_count must be >= 0, got -1"),
            ((0.0, 0, -1.0), "users must be >= 0, got -1.0"),
            ((-1.0, -1, -1.0), "users must be >= 0, got -1.0"),
        )
        for args, message in cases:
            with pytest.raises(ValueError, match=f"^{message}$"):
                emissions_quantities(*args, BOOK)

    def test_a_user_base_that_underflows_per_node_is_rejected(self):
        # 5e-324 / 3 rounds to 0.0, which the terminal share would divide by
        with pytest.raises(ValueError, match="users 5e-324 over node_count 3 underflows"):
            emissions_quantities(1.0, 3, 5e-324, BOOK)

    def test_a_user_base_that_overflows_the_per_user_power_is_rejected(self):
        # p_rn_kw / 1e-320 overflows to inf, and inf emissions would follow
        with pytest.raises(ValueError, match="users 1e-320 over node_count 1 overflows"):
            emissions_quantities(1.0, 1, 1e-320, BOOK)

    def test_monotone_in_length_and_nodes(self):
        base = emissions_quantities(10.0, 2, 100.0, BOOK)
        longer = emissions_quantities(20.0, 2, 100.0, BOOK)
        more_nodes = emissions_quantities(10.0, 4, 100.0, BOOK)
        assert longer.total_kg > base.total_kg
        assert more_nodes.total_kg > base.total_kg


def test_book_validation():
    with pytest.raises(ValueError):
        EmissionFactorBook(cf_pcb=-1.0)
    with pytest.raises(ValueError):
        EmissionFactorBook(trench_fraction=1.5)
    with pytest.raises(ValueError):
        EmissionFactorBook(lifetime_years=0)


def test_book_node_mass():
    assert _node_mass(BOOK) == 38.0
