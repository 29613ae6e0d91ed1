"""Tests for the five-phase emissions model against hand-derived fixtures."""

from __future__ import annotations

import random

import pytest

from fiberplan.lca import (
    EmissionFactorBook,
    ZeroUsers,
    construction_emissions,
    emissions_quantities,
    eolt_emissions,
    fiber_mfg_emissions,
    nonfiber_mfg_emissions,
    operations_emissions,
    per_user_power_kw,
    transport_emissions,
)

BOOK = EmissionFactorBook()


class TestManufacturing:
    def test_fiber_reference(self):
        assert fiber_mfg_emissions(0.0, BOOK) == 0.0
        assert fiber_mfg_emissions(1.0, BOOK) == pytest.approx(346.541, abs=1e-9)
        assert fiber_mfg_emissions(2.0, BOOK) == pytest.approx(
            2 * fiber_mfg_emissions(1.0, BOOK), rel=1e-12
        )

    def test_nonfiber_reference(self):
        assert nonfiber_mfg_emissions(0, BOOK) == 0.0
        assert nonfiber_mfg_emissions(1, BOOK) == pytest.approx(415.54, abs=1e-9)

    def test_combined_reference(self):
        total = fiber_mfg_emissions(1.0, BOOK) + nonfiber_mfg_emissions(1, BOOK)
        assert total == pytest.approx(762.081, abs=1e-9)


class TestTransport:
    def test_zero(self):
        assert transport_emissions(0.0, 0.0, BOOK) == 0.0

    def test_shipping_only(self):
        assert transport_emissions(0.0, 247.0, BOOK) == pytest.approx(79.8798, abs=1e-9)

    def test_vehicle_term_doubles_with_distance(self):
        base = transport_emissions(10.0, 0.0, BOOK)
        assert transport_emissions(20.0, 0.0, BOOK) == pytest.approx(2 * base, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            transport_emissions(-1.0, 0.0, BOOK)


class TestConstruction:
    def test_reference(self):
        # 100 km at a 1% trench share: 1 km trenched, 1 hour, 24.33 L.
        assert construction_emissions(100.0, BOOK) == pytest.approx(65.20, abs=0.01)

    def test_zero_trench_fraction(self):
        book = EmissionFactorBook(trench_fraction=0.0)
        assert construction_emissions(500.0, book) == 0.0

    def test_linear(self):
        assert construction_emissions(50.0, BOOK) == pytest.approx(
            construction_emissions(100.0, BOOK) / 2, rel=1e-12
        )


class TestOperations:
    def test_power_reference(self):
        book = EmissionFactorBook(p_node_kw=0.0, alpha=0.0, p_rn_kw=1.0)
        power = per_user_power_kw(100.0, 50.0, book)
        assert power == pytest.approx(0.01, rel=1e-12)
        rate = power * book.cf_electricity_per_kwh
        assert rate == pytest.approx(0.001934, rel=1e-12)
        lifetime = operations_emissions(100.0, 50.0, book)
        assert lifetime == pytest.approx(0.001934 * 8760.0 * 30, rel=1e-12)

    def test_all_zero_power(self):
        book = EmissionFactorBook(p_node_kw=0.0, alpha=0.0, p_rn_kw=0.0)
        assert operations_emissions(10.0, 10.0, book) == 0.0

    def test_rate_linear_in_grid_intensity(self):
        book2 = EmissionFactorBook(cf_electricity_per_kwh=2 * BOOK.cf_electricity_per_kwh)
        assert operations_emissions(10.0, 5.0, book2) == pytest.approx(
            2 * operations_emissions(10.0, 5.0, BOOK), rel=1e-12
        )

    def test_zero_users_raises(self):
        with pytest.raises(ZeroUsers):
            operations_emissions(0.0, 10.0, BOOK)
        with pytest.raises(ZeroUsers):
            operations_emissions(10.0, 0.0, BOOK)


class TestEolt:
    def test_reference(self):
        assert eolt_emissions(0.0, 0, BOOK) == 0.0
        assert eolt_emissions(0.0, 1, BOOK) == pytest.approx(116.57, abs=0.01)
        assert eolt_emissions(1.0, 0, BOOK) == pytest.approx(568.1, abs=1e-9)


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
            fiber_mfg_emissions(12.0, BOOK) + nonfiber_mfg_emissions(3, BOOK), rel=1e-12
        )
        shipping = 12.0 * BOOK.cable_kg_per_km + 3 * BOOK.node_mass_kg
        assert b.trans_kg == pytest.approx(
            transport_emissions(12.0, shipping, BOOK), rel=1e-12
        )
        assert b.constr_kg == pytest.approx(construction_emissions(12.0, BOOK), rel=1e-12)
        assert b.ops_kg == pytest.approx(
            600.0 * operations_emissions(600.0, 200.0, BOOK), rel=1e-12
        )
        assert b.eolt_kg == pytest.approx(eolt_emissions(12.0, 3, BOOK), rel=1e-12)

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
    assert BOOK.node_mass_kg == 38.0
