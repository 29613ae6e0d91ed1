"""Tests for the cost model against hand-derived fixtures."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fiberplan.costmodel import (
    CostBook,
    _annual_opex,
    _per_km_cost,
    _per_node_cost,
    capex_quantities,
    opex_npv,
    tco_quantities,
)


class TestCostBook:
    def test_defaults(self):
        book = CostBook()
        assert _per_node_cost(book) == 177_000.0
        assert _per_km_cost(book) == 6_600.0
        assert _annual_opex(book) == 522_000.0
        assert book.discount_rate == 0.0833
        assert book.assessment_years == 30
        assert book.carbon_price_usd_per_tonne == 75.0

    def test_replace(self):
        book = CostBook().replace(c_olt=30_000.0)
        assert book.c_olt == 30_000.0
        assert book.c_civil == 120_000.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CostBook(c_olt=-1.0)
        with pytest.raises(ValueError):
            CostBook(discount_rate=1.0)
        with pytest.raises(ValueError):
            CostBook(discount_rate=-0.1)
        with pytest.raises(ValueError):
            CostBook(assessment_years=0)
        with pytest.raises(ValueError, match="1000"):
            CostBook(assessment_years=1001)
        assert CostBook(assessment_years=1000).assessment_years == 1000


class TestCapex:
    def test_empty_design_is_free(self):
        assert capex_quantities(0, 0.0, CostBook()) == 0.0

    def test_reference_fixture(self):
        # 1 node + 10 km at default rates: 177,000 + 66,000.
        assert capex_quantities(1, 10.0, CostBook()) == 243_000.0

    def test_length_linearity(self):
        book = CostBook()
        base = capex_quantities(3, 50.0, book)
        assert capex_quantities(3, 100.0, book) == base + 50.0 * 6_600.0

    def test_quantities_validation(self):
        with pytest.raises(ValueError, match="^node_count must be >= 0, got -1$"):
            capex_quantities(-1, 0.0, CostBook())
        with pytest.raises(ValueError, match="^length_km must be >= 0, got -1.0$"):
            capex_quantities(0, -1.0, CostBook())


class TestOpexNpv:
    def test_undiscounted_inclusive_bounds(self):
        book = CostBook(discount_rate=0.0)
        assert opex_npv(book) == 31 * 522_000.0

    def test_single_year(self):
        book = CostBook(discount_rate=0.0833, assessment_years=1)
        assert opex_npv(book) == pytest.approx(522_000.0 * (1 + 1 / 1.0833), rel=1e-12)

    def test_default_annuity(self):
        # Closed-form annuity factor (1 - v^31)/(1 - v), v = 1/1.0833,
        # computed independently: 11.916140822783278.
        assert opex_npv(CostBook()) == pytest.approx(6_220_225.509492871, rel=1e-12)

    def test_decreasing_in_rate(self):
        lo = opex_npv(CostBook(discount_rate=0.05))
        hi = opex_npv(CostBook(discount_rate=0.10))
        assert hi < lo


class TestTco:
    def test_division_chain(self):
        book = CostBook(
            c_olt=360.0,
            c_civil=0.0,
            c_rpu=0.0,
            c_odf=0.0,
            c_trans=0.0,
            c_inst=0.0,
            o_rent=0.0,
            o_staff=0.0,
            o_pwr=0.0,
            o_reg=0.0,
            o_acq=0.0,
            o_other=0.0,
        )
        result = tco_quantities(1, 0.0, book, 1.0)
        assert result.tco_usd == 360.0
        assert result.annualized_per_user_usd == pytest.approx(12.0)
        assert result.monthly_per_user_usd == pytest.approx(1.0)

    def test_capex_only_annualized(self):
        book = CostBook(o_rent=0.0, o_staff=0.0, o_pwr=0.0, o_reg=0.0, o_acq=0.0, o_other=0.0)
        result = tco_quantities(1, 10.0, book, 1_000.0)
        assert result.capex_usd == 243_000.0
        assert result.opex_npv_usd == 0.0
        assert result.annualized_per_user_usd == pytest.approx(8.10, rel=1e-12)

    def test_zero_users_marked_undefined(self):
        result = tco_quantities(1, 10.0, CostBook(), 0.0)
        assert result.tco_usd > 0
        assert result.tco_per_user_usd is None
        assert result.annualized_per_user_usd is None
        assert result.monthly_per_user_usd is None
        with pytest.raises(ValueError, match="users must be >= 0"):
            tco_quantities(1, 10.0, CostBook(), -1.0)

    def test_breakdown_identities(self):
        result = tco_quantities(2, 25.0, CostBook(), 500.0)
        assert result.tco_usd == pytest.approx(
            result.capex_usd + result.opex_npv_usd, rel=1e-12
        )
        assert result.monthly_per_user_usd == pytest.approx(
            result.annualized_per_user_usd / 12.0, rel=1e-12
        )

    def test_additive_across_disjoint_designs(self):
        book = CostBook()
        a = tco_quantities(2, 30.0, book, 100.0)
        b = tco_quantities(5, 70.0, book, 200.0)
        union = tco_quantities(7, 100.0, book, 300.0)
        assert union.capex_usd == pytest.approx(a.capex_usd + b.capex_usd, rel=1e-12)

    def test_opex_share(self):
        book = CostBook()
        full = tco_quantities(1, 10.0, book, 100.0)
        half = tco_quantities(1, 10.0, book, 100.0, opex_share=0.5)
        assert half.opex_npv_usd == pytest.approx(full.opex_npv_usd / 2, rel=1e-12)
        assert half.capex_usd == full.capex_usd
        for share in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match="opex_share"):
                tco_quantities(1, 10.0, book, 100.0, opex_share=share)
        # users, then opex_share, then node_count and length_km
        with pytest.raises(ValueError, match="^opex_share must be in"):
            tco_quantities(-1, 10.0, book, 100.0, opex_share=1.5)
        with pytest.raises(ValueError, match="^node_count must be >= 0, got -1$"):
            tco_quantities(-1, -1.0, book, 100.0)
        with pytest.raises(ValueError, match="^users must be >= 0"):
            tco_quantities(-1, 10.0, book, -1.0, opex_share=1.5)

    @given(
        st.floats(min_value=1.0, max_value=1e6),
        st.floats(min_value=1.0, max_value=1e6),
    )
    def test_per_user_strictly_decreasing_in_users(self, u1, u2):
        if u1 == u2:
            return
        lo, hi = sorted((u1, u2))
        book = CostBook()
        per_user_hi = tco_quantities(3, 40.0, book, hi).tco_per_user_usd
        assert per_user_hi < tco_quantities(3, 40.0, book, lo).tco_per_user_usd
