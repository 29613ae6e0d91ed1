"""Tests for the cost model against hand-derived fixtures."""

from __future__ import annotations

import math
import types

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fiberplan import costmodel
from fiberplan.costmodel import (
    CostBook,
    _fsum_columns,
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


# --- exact column sums ------------------------------------------------------


def _fsum_each(columns: list[list[float]]) -> list[int]:
    return np.array([math.fsum(c) for c in columns]).view(np.int64).tolist()


def _sums(columns: list[list[float]]) -> list[int]:
    """`_fsum_columns` of equal-length columns, as int64 bit patterns (so the
    sign of a zero counts)."""
    return _fsum_columns(np.array(columns, dtype=float).T).view(np.int64).tolist()


def _counting_fsum(monkeypatch) -> list[int]:
    calls = []

    def fsum(values):
        calls.append(len(values))
        return math.fsum(values)

    monkeypatch.setattr(costmodel, "math", types.SimpleNamespace(fsum=fsum))
    return calls


ULP1 = 2.0**-52  # the gap above 1.0
EXACT_SUM_CASES = {
    "half-ulp ties": [
        [1.0, ULP1 / 2],  # to even: 1.0
        [1.0 + ULP1, ULP1 / 2],  # to even: up
        [1.0, ULP1 / 4, ULP1 / 4],
        [2.0**53, 1.0, 0.0, 0.0],
        [2.0**53, 1.0, 2.0**-60, 0.0],  # just past the tie
        [2.0**53, 1.0, -(2.0**-60), 0.0],  # just short of it
        [2.0**53 + 2, 1.0, 0.0, 0.0],
        [1.0, -(2.0**-54), 0.0, 0.0],  # at 1.0 the gap below is half the gap above
    ],
    # Sums whose errors do not add up exactly in floats, within that
    # rounding of the point halfway between two floats.
    "near a rounding boundary": [
        [1.0, 2.0**-159, -(2.0**-107), 2.0**-108, -(2.0**-54)],
        [-(2.0**-54), 1.0, -(2.0**-108), -(2.0**-159)],
        [1.0, -(2.0**-107), -(2.0**-53), 2.0**-53, -(2.0**-54)],
    ],
    "full cancellation": [
        [1e16, 1.0, -1e16],
        [3.5, -3.5, 0.0],
        [0.1, 0.2, -0.1, -0.2, 0.3, -0.3],
        [1e300, -1e300, 1e-300, -1e-300],
        [-0.0, -0.0],
        [0.0, -0.0],
        [1e308, 1e-308, -1e308],
    ],
    "subnormals": [
        [5e-324, 5e-324, 5e-324],
        [2.0**-1074, -(2.0**-1070), 2.0**-1022],
        [2.0**-1022, -(2.0**-1074)],
        [1e-310, 2e-310, 3e-320, -1e-315],
        [2.0**-960, 2.0**-1074],
    ],
}


@pytest.mark.parametrize("name", sorted(EXACT_SUM_CASES))
def test_exact_column_sums_equal_fsum_on_hard_cases(monkeypatch, name):
    cases = EXACT_SUM_CASES[name]
    calls = _counting_fsum(monkeypatch)
    for values in cases:
        for column in (values, values[::-1]):
            assert _sums([column]) == _fsum_each([column]), column
    assert calls, "no case reached math.fsum"


def test_exact_column_sums_equal_fsum_across_600_orders_of_magnitude(monkeypatch):
    rng = np.random.default_rng(600)
    calls = _counting_fsum(monkeypatch)
    for n in (1, 2, 3, 5, 31, 32, 33, 100):
        magnitudes = 10.0 ** rng.integers(-300, 300, size=(200, n))
        signs = rng.choice((-1.0, 1.0), size=(200, n))
        columns = (signs * rng.uniform(1.0, 10.0, size=(200, n)) * magnitudes).tolist()
        assert _sums(columns) == _fsum_each(columns), n
    assert calls


def test_exact_column_sums_of_priced_figures_rarely_reach_fsum(monkeypatch):
    """Positive figures of a few significant digits, as the pricing kernel
    sums: every column equals fsum, and the certified path takes nearly all."""
    rng = np.random.default_rng(7)
    columns = np.round(rng.uniform(1e3, 1e7, size=(2000, 100)), 2).tolist()
    calls = _counting_fsum(monkeypatch)
    assert _sums(columns) == _fsum_each(columns)
    assert len(calls) < 100, len(calls)


@pytest.mark.parametrize(
    "column",
    [
        [1.7e308, 1.7e308],
        [1.7e308, -0.85e308, 1.7e308, -1.7e308],
        [1.7e308, 1e308, -1.7e308, -0.5e308],  # overflows in fsum's order, not the tree's
        [1e308] * 3 + [-1e308] * 3,
    ],
)
def test_an_exact_column_sum_that_overflows_raises_as_fsum_does(column):
    with pytest.raises(OverflowError) as expected:
        math.fsum(column)
    with pytest.raises(OverflowError) as raised:
        _fsum_columns(np.array([column]).T)
    assert str(raised.value) == str(expected.value)


def test_exact_column_sums_keep_fsum_on_non_finite_values():
    columns = [[math.inf, 1.0], [-math.inf, 2.0], [1.0, 2.0]]
    assert _sums(columns) == _fsum_each(columns)
    assert math.isnan(_fsum_columns(np.array([[math.nan, 1.0]]).T)[0])
    with pytest.raises(ValueError, match="-inf \\+ inf in fsum"):
        _fsum_columns(np.array([[math.inf, -math.inf]]).T)
