"""The vectorized pricing kernel against unit-by-unit, draw-by-draw pricing.

`build_report` and `monte_carlo` price every unit with one array kernel, in
blocks of draws. `tests/oracles.py` keeps the scalar loops they replaced;
the two must agree exactly, field for field, on seeded random instances.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import importlib
import math
import pathlib
import random
import runpy

import pytest

from fiberplan import report
from fiberplan.costmodel import CostBook, capex_quantities, tco_quantities
from fiberplan.lca import EmissionFactorBook, emissions_quantities
from fiberplan.report import (
    _BLOCK_DRAWS,
    Distribution,
    InvalidDistributionBounds,
    McConfig,
    ReportUnit,
    build_report,
    check_distributions,
    monte_carlo,
    scc,
)

from .oracles import build_report_reference, monte_carlo_reference

ROOT = pathlib.Path(__file__).resolve().parents[1]
COST_KEYS = sorted(report._COST_FIELDS)
LCA_KEYS = sorted(report._LCA_FIELDS)
# Fields whose valid range is narrower than [0, inf).
UPPER = {"discount_rate": 0.5, "trench_fraction": 1.0}
SHARES = (0.0, 1 / 3, 0.5, 1.0)
UNIT = ReportUnit("R", 1, "access", "MST", users=10.0, node_count=1, length_km=1.0)


def _random_units(rng: random.Random, big_group: bool) -> list[ReportUnit]:
    units = []
    for row in range(rng.randint(1, 3)):
        decile = rng.randint(1, 10)
        level = rng.choice(("regional", "access"))
        algorithm = rng.choice(("MST", "PCST_GW"))
        size = 40 if big_group and row == 0 else rng.randint(1, 8)
        for _ in range(size):
            units.append(
                ReportUnit(
                    key=f"R{len(units)}",
                    decile=decile,
                    level=level,
                    algorithm=algorithm,
                    users=0.0 if rng.random() < 0.2 else rng.choice(
                        (rng.uniform(0.01, 5_000.0), float(rng.randint(1, 3_000)))
                    ),
                    node_count=0 if rng.random() < 0.2 else rng.randint(1, 60),
                    length_km=0.0 if rng.random() < 0.1 else rng.uniform(0.001, 300.0),
                    opex_share=rng.choice(SHARES),
                )
            )
    rng.shuffle(units)  # members of one row need not be adjacent
    return units


def _random_book(rng: random.Random, book):
    if rng.random() < 0.3:
        return book
    values = {}
    for key in sorted(report._COST_FIELDS | report._LCA_FIELDS):
        if hasattr(book, key):
            base = getattr(book, key)
            values[key] = min(base * rng.uniform(0.5, 1.5), UPPER.get(key, math.inf) * 0.99)
    return book.replace(**values)


def _random_distribution(rng: random.Random, key: str, base: float) -> Distribution:
    upper = UPPER.get(key, max(2.0 * base, 1.0))
    lo = rng.uniform(0.0, base if base > 0 else upper / 2)
    hi = rng.uniform(lo, upper)
    kind = rng.choice(("fixed", "fixed", "uniform", "triangular"))
    if kind == "fixed":
        return Distribution(kind="fixed", value=None if rng.random() < 0.5 else hi)
    if kind == "uniform":
        return Distribution(kind="uniform", lo=lo, hi=hi)
    if hi == lo:
        hi = lo + 1e-3
    return Distribution(kind="triangular", lo=lo, mode=rng.uniform(lo, hi), hi=hi)


def _random_case(i: int):
    rng = random.Random(i)
    units = _random_units(rng, big_group=i % 25 == 0)
    cost_book = _random_book(rng, CostBook())
    factor_book = _random_book(rng, EmissionFactorBook())
    keys = (COST_KEYS, LCA_KEYS, COST_KEYS + LCA_KEYS)[i % 3]
    distributions = {}
    for key in rng.sample(keys, rng.randint(1, 4)):
        book = cost_book if key in report._COST_FIELDS else factor_book
        distributions[key] = _random_distribution(rng, key, getattr(book, key))
    if i in (7, 8):  # a long run, on few units
        draws, units = 1_000, units[:4]
    else:
        # Fixed counts, not the block size, so that PRICES_SHA256 does not
        # depend on it: 32 was the block size when the digest was pinned.
        draws = rng.choice((1, 31, 32, 33, rng.randint(2, 40)))
    mc = McConfig(draws=draws, seed=rng.randrange(2**64), distributions=distributions)
    return units, cost_book, factor_book, mc


# Cases that test_kernel_matches_unit_by_unit_pricing_exactly reruns at
# the block size's edges, on few units.
BLOCK_EDGE_CASES = {11: _BLOCK_DRAWS - 1, 12: _BLOCK_DRAWS, 13: _BLOCK_DRAWS + 1}


def test_kernel_matches_unit_by_unit_pricing_exactly():
    seen = {
        "zero users": 0, "zero nodes": 0, "undefined row": 0, "40 members": 0, "cost only": 0,
        "lca only": 0, "both": 0, "fixed value": 0, "fixed book value": 0,
    }
    draw_counts = set()
    shares = set()
    cases = [_random_case(i) for i in range(330)]
    for i, draws in BLOCK_EDGE_CASES.items():
        units, cost_book, factor_book, mc = _random_case(i)
        cases.append((units[:4], cost_book, factor_book, dataclasses.replace(mc, draws=draws)))
    for i, (units, cost_book, factor_book, mc) in enumerate(cases):
        rows = build_report(units, cost_book, factor_book)
        assert rows == build_report_reference(units, cost_book, factor_book), i
        got = monte_carlo(units, cost_book, factor_book, mc)
        assert got == monte_carlo_reference(units, cost_book, factor_book, mc), i

        seen["zero users"] += any(u.users == 0 for u in units)
        seen["zero nodes"] += any(u.node_count == 0 for u in units)
        seen["undefined row"] += any(r.per_user_kg_co2e is None for r in rows)
        row_sizes = collections.Counter((u.decile, u.level, u.algorithm) for u in units)
        seen["40 members"] += max(row_sizes.values()) >= 40
        owners = {report.resolve_parameter_key(k) for k in mc.distributions}
        seen[f"{owners.pop()} only" if len(owners) == 1 else "both"] += 1
        for dist in mc.distributions.values():
            if dist.kind == "fixed":
                seen["fixed book value" if dist.value is None else "fixed value"] += 1
        draw_counts.add(mc.draws)
        shares.update(u.opex_share for u in units)
    assert min(seen.values()) > 0, seen
    assert {1, 31, 32, 33, _BLOCK_DRAWS - 1, _BLOCK_DRAWS, _BLOCK_DRAWS + 1, 1_000} <= draw_counts
    assert shares == set(SHARES)


# sha256 of the reprs of build_report, monte_carlo and each unit's
# tco_quantities and emissions_quantities on _random_case(0..59), as priced
# by the scalar code before the kernel existed. The kernel and the scalar
# functions share their arithmetic, so the identity test above cannot see a
# change to it; this pins it. Changing _random_case changes the digest.
# Re-pinned once when the Philox key became the exact 64-bit seed: the 29
# monte_carlo reprs that moved are exactly the cases whose seed is >= 2**63
# and that vary a parameter; no build_report or per-unit repr moved.
PRICES_SHA256 = "4dc6eb28efb8ce217742067dd58a343196844b02384b4a41d33170f610e322b2"


def test_pricing_arithmetic_is_unchanged():
    parts = []
    for i in range(60):
        units, cost_book, factor_book, mc = _random_case(i)
        parts.append(repr(build_report(units, cost_book, factor_book)))
        parts.append(repr(monte_carlo(units, cost_book, factor_book, mc)))
        for u in units:
            parts.append(repr(tco_quantities(
                u.node_count, u.length_km, cost_book, u.users, opex_share=u.opex_share
            )))
            emissions = emissions_quantities(u.length_km, u.node_count, u.users, factor_book)
            parts.append(repr(emissions))
    assert hashlib.sha256("\n".join(parts).encode()).hexdigest() == PRICES_SHA256


def test_build_report_is_the_one_draw_case_of_monte_carlo():
    units, cost_book, factor_book, _ = _random_case(3)
    mc = McConfig(draws=1, seed=0, distributions={})
    summary = monte_carlo(units, cost_book, factor_book, mc)
    rows = build_report(units, cost_book, factor_book)
    by_key = {(s.metric, s.decile, s.level, s.algorithm): s for s in summary}
    for row in rows:
        for metric in report.MC_METRICS:
            s = by_key[(metric, row.decile, row.level, row.algorithm)]
            assert s.mean == s.p5 == s.p50 == s.p95 == getattr(row, metric)


def test_empty_units_price_to_nothing():
    mc = McConfig(
        draws=3, seed=0, distributions={"c_olt": Distribution(kind="uniform", lo=1.0, hi=2.0)}
    )
    assert build_report([], CostBook(), EmissionFactorBook()) == []
    assert monte_carlo([], CostBook(), EmissionFactorBook(), mc) == []


def test_draw_table_draws_each_draw_once_in_order_by_its_module_name(monkeypatch):
    calls = []
    original = report.draw_table

    def counting(mc, first, stop, cost_book, factor_book):
        calls.extend(range(first, stop))
        return original(mc, first, stop, cost_book, factor_book)

    monkeypatch.setattr(report, "draw_table", counting)
    units, cost_book, factor_book, mc = _random_case(4)
    mc = dataclasses.replace(mc, draws=2 * _BLOCK_DRAWS + 5)
    monte_carlo(units, cost_book, factor_book, mc)
    assert calls == list(range(mc.draws))


def test_drawn_columns_are_checked_against_the_book(monkeypatch):
    """A drawn value outside the book's rules is refused, even when the
    distribution's support passed its check."""
    trench = Distribution(kind="uniform", lo=0.0, hi=1.0)
    mc = McConfig(draws=40, seed=1, distributions={"trench_fraction": trench})
    original = report.draw_table

    def escaping(mc, first, stop, cost_book, factor_book):
        table = original(mc, first, stop, cost_book, factor_book)
        if first <= 35 < stop:
            table["trench_fraction"][35 - first] = 1.5
        return table

    monkeypatch.setattr(report, "draw_table", escaping)
    units = _random_units(random.Random(0), big_group=False)
    with pytest.raises(InvalidDistributionBounds, match="trench_fraction"):
        monte_carlo(units, CostBook(), EmissionFactorBook(), mc)


def test_drawn_columns_inside_the_checked_support_ask_no_book(monkeypatch):
    """The support check asks the book about lo and hi once; a drawn value
    inside [lo, hi] is valid without asking again."""
    calls = []
    for book in (CostBook, EmissionFactorBook):
        def counting(self, original=book.replace, **overrides):
            calls.append(overrides)
            return original(self, **overrides)

        monkeypatch.setattr(book, "replace", counting)
    distributions = {
        "c_olt": Distribution(kind="triangular", lo=1.0, mode=2.0, hi=4.0),
        "trench_fraction": Distribution(kind="uniform", lo=0.25, hi=0.75),
        "alpha": Distribution(kind="fixed", value=0.5),
        "c_civil": Distribution(kind="fixed"),
    }
    mc = McConfig(draws=3 * _BLOCK_DRAWS, seed=1, distributions=distributions)
    units = _random_units(random.Random(0), big_group=False)
    monte_carlo(units, CostBook(), EmissionFactorBook(), mc)
    assert calls == [
        {"alpha": 0.5},
        {"c_olt": 1.0},
        {"c_olt": 4.0},
        {"trench_fraction": 0.25},
        {"trench_fraction": 0.75},
    ]


@pytest.mark.parametrize(
    "key, dist",
    [
        ("discount_rate", Distribution(kind="uniform", lo=0.5, hi=1.5)),
        ("c_olt", Distribution(kind="uniform", lo=-10.0, hi=5.0)),
        ("c_olt", Distribution(kind="triangular", lo=-10.0, mode=0.0, hi=5.0)),
        ("trench_fraction", Distribution(kind="fixed", value=2.0)),
        ("alpha", Distribution(kind="fixed", value=-1.0)),
    ],
)
def test_support_outside_the_book_is_refused_before_the_first_draw(monkeypatch, key, dist):
    def never(*args):
        raise AssertionError("drew a parameter")

    monkeypatch.setattr(report, "draw_table", never)
    mc = McConfig(draws=5, seed=0, distributions={key: dist})
    with pytest.raises(InvalidDistributionBounds, match=key):
        check_distributions(mc, CostBook(), EmissionFactorBook())
    with pytest.raises(InvalidDistributionBounds, match=key):
        monte_carlo([UNIT], CostBook(), EmissionFactorBook(), mc)


@pytest.mark.parametrize(
    "fields",
    [
        {"kind": "fixed", "value": math.nan},
        {"kind": "fixed", "value": "abc"},
        {"kind": "fixed", "value": True},
        {"kind": "uniform", "lo": 1e308, "hi": math.inf},
        {"kind": "uniform", "lo": -math.inf, "hi": 1.0},
        {"kind": "triangular", "lo": 0.0, "mode": math.nan, "hi": 1.0},
        {"kind": "triangular", "lo": 1.0, "mode": 1.0, "hi": 1.0},
        {"kind": "uniform", "lo": 0.0, "hi": 10**400},
    ],
)
def test_distribution_needs_finite_numbers(fields):
    with pytest.raises(InvalidDistributionBounds):
        Distribution(**fields)


@pytest.mark.parametrize("book", [CostBook, EmissionFactorBook])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, "abc", None, True, 10**400])
def test_books_need_finite_numbers(book, value):
    key = "c_olt" if book is CostBook else "alpha"
    with pytest.raises(ValueError, match=key):
        book(**{key: value})


@pytest.mark.parametrize(
    "book, key", [(CostBook, "assessment_years"), (EmissionFactorBook, "lifetime_years")]
)
def test_book_years_must_be_integers(book, key):
    with pytest.raises(ValueError, match=key):
        book(**{key: 2.5})
    assert getattr(book(**{key: 2}), key) == 2


@pytest.mark.parametrize(
    "price, name",
    [
        (lambda: ReportUnit("R", 1, "access", "MST", math.nan, 1, 1.0), "users"),
        (lambda: scc(math.nan, 75.0), "total_kg_co2e"),
        (lambda: scc(1.0, -math.inf), "carbon_price_usd_per_tonne"),
        (lambda: tco_quantities(1, math.nan, CostBook(), 10.0), "length_km"),
        (lambda: tco_quantities(1, 1.0, CostBook(), math.inf), "users"),
        (lambda: emissions_quantities(math.nan, 1, 10.0, EmissionFactorBook()), "length_km"),
        (lambda: capex_quantities(1, math.inf, CostBook()), "length_km"),
    ],
    ids=["unit-users", "scc-kg", "scc-price", "tco-length", "tco-users", "lca-length", "capex"],
)
def test_pricing_quantities_must_be_finite(price, name):
    """A nan or an infinity is refused where it is passed, naming the
    argument, before it can price a figure that blames the books."""
    with pytest.raises(ValueError, match=f"^{name} must be a finite number >= 0, got "):
        price()


def test_unit_opex_share_must_be_a_fraction():
    with pytest.raises(ValueError, match="opex_share"):
        ReportUnit("R", 1, "access", "MST", 10.0, 1, 1.0, opex_share=1.5)


def test_trace_harness_targets_exist():
    """perfbench/spans.py wraps these package functions by name; a missing
    one would crash the traced benchmark run."""
    spans = runpy.run_path(str(ROOT / "perfbench" / "spans.py"))
    targets = [target for target, _ in spans["SPANS"] + spans["LEAVES"]]
    assert "report.draw_parameters" in targets
    for target in targets:
        module_name, attr = target.rsplit(".", 1)
        module = importlib.import_module(f"fiberplan.{module_name}")
        assert callable(getattr(module, attr, None)), target
