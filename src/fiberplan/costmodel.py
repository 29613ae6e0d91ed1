"""Network cost model: capex, discounted opex, and per-user TCO metrics.

Capex prices terminal nodes (equipment, civil works, routing and
distribution hardware) per node and fiber (transport plus installation) per
km. Opex is an annual stream discounted over the assessment period,
inclusive of year zero. Per-user metrics divide by the potential-user count
and are marked undefined (None) rather than infinite when it is zero.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import is_finite_number
from .netdesign import NetworkDesign


@dataclass(frozen=True)
class CostBook:
    """Unit costs and financial parameters.

    Per-node costs are USD per terminal node, per-km costs USD per km of
    fiber, opex items USD per network per year. carbon_price_usd_per_tonne
    monetizes emissions downstream.
    """

    c_olt: float = 28_000.0
    c_civil: float = 120_000.0
    c_rpu: float = 11_000.0
    c_odf: float = 18_000.0
    c_splt: float = 0.0
    c_trans: float = 600.0
    c_inst: float = 6_000.0
    o_rent: float = 11_000.0
    o_staff: float = 150_000.0
    o_pwr: float = 1_000.0
    o_reg: float = 60_000.0
    o_acq: float = 120_000.0
    o_other: float = 180_000.0
    discount_rate: float = 0.0833
    assessment_years: int = 30
    carbon_price_usd_per_tonne: float = 75.0

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not is_finite_number(value):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
            if value < 0:
                raise ValueError(f"{f.name} must be >= 0, got {value}")
        if not self.discount_rate < 1.0:
            raise ValueError(f"discount_rate must be in [0, 1), got {self.discount_rate}")
        if not isinstance(self.assessment_years, int) or self.assessment_years < 1:
            raise ValueError(
                f"assessment_years must be an integer >= 1, got {self.assessment_years!r}"
            )

    @property
    def per_node_cost(self) -> float:
        return _per_node_cost(self)

    @property
    def per_km_cost(self) -> float:
        return _per_km_cost(self)

    @property
    def annual_opex(self) -> float:
        return _annual_opex(self)

    def replace(self, **overrides: float) -> "CostBook":
        return dataclasses.replace(self, **overrides)


# The pricing arithmetic. `b` is a CostBook or any object with its field
# names whose values are floats or numpy arrays (the report's Monte Carlo
# kernel passes one column per varied field); the expressions run in the
# same order either way, so both give bit-identical prices.


def _per_node_cost(b):
    return b.c_olt + b.c_civil + b.c_rpu + b.c_odf + b.c_splt


def _per_km_cost(b):
    return b.c_trans + b.c_inst


def _annual_opex(b):
    return b.o_rent + b.o_staff + b.o_pwr + b.o_reg + b.o_acq + b.o_other


def _capex(node_count, length_km, b):
    return node_count * _per_node_cost(b) + length_km * _per_km_cost(b)


def _opex_npv(annual: float, rate: float, years: int) -> float:
    """Scalar only: `**` here is Python's float power, which numpy's may
    not match bit for bit."""
    return math.fsum(annual / (1.0 + rate) ** y for y in range(years + 1))


def _tco_parts(node_count, length_km, opex_share, b, npv):
    """(capex, opex share of the present value npv, their sum)."""
    cap = _capex(node_count, length_km, b)
    opex = npv * opex_share
    return cap, opex, cap + opex


def _per_user_tco(total, users, years):
    """(per user, annualized per user, monthly per user) views of a TCO."""
    per_user = total / users
    annualized = per_user / years
    return per_user, annualized, annualized / 12.0


@dataclass(frozen=True)
class CostBreakdown:
    """Priced design with per-user derivatives (None when users == 0)."""

    capex_usd: float
    opex_npv_usd: float
    tco_usd: float
    users: float
    tco_per_user_usd: float | None
    annualized_per_user_usd: float | None
    monthly_per_user_usd: float | None


def _check_quantities(node_count: int, length_km: float) -> None:
    if node_count < 0:
        raise ValueError(f"node_count must be >= 0, got {node_count}")
    if length_km < 0:
        raise ValueError(f"length_km must be >= 0, got {length_km}")


def capex_quantities(node_count: int, length_km: float, book: CostBook) -> float:
    """Capex for raw quantities: node_count terminals and length_km fiber."""
    _check_quantities(node_count, length_km)
    return _capex(node_count, length_km, book)


def capex(design: NetworkDesign, book: CostBook) -> float:
    """Capital expenditure of a design: per-node plus per-km costs."""
    return capex_quantities(design.terminal_node_count, design.total_length_km, book)


def opex_npv(book: CostBook) -> float:
    """Present value of the annual opex stream over years 0..n inclusive."""
    return _opex_npv(book.annual_opex, book.discount_rate, book.assessment_years)


def tco(design: NetworkDesign, book: CostBook, users: float) -> CostBreakdown:
    """Total cost of ownership with per-user annualized and monthly views."""
    return tco_quantities(
        design.terminal_node_count, design.total_length_km, book, users
    )


def tco_quantities(
    node_count: int, length_km: float, book: CostBook, users: float, *, opex_share: float = 1.0
) -> CostBreakdown:
    """TCO from raw quantities; opex_share scales the opex stream for
    designs whose operating cost is split across several reporting units."""
    if users < 0:
        raise ValueError(f"users must be >= 0, got {users}")
    if not 0.0 <= opex_share <= 1.0:
        raise ValueError(f"opex_share must be in [0, 1], got {opex_share}")
    _check_quantities(node_count, length_km)
    cap, opex, total = _tco_parts(node_count, length_km, opex_share, book, opex_npv(book))
    if users == 0:
        per_user = annualized = monthly = None
    else:
        per_user, annualized, monthly = _per_user_tco(total, users, book.assessment_years)
    return CostBreakdown(
        capex_usd=cap,
        opex_npv_usd=opex,
        tco_usd=total,
        users=users,
        tco_per_user_usd=per_user,
        annualized_per_user_usd=annualized,
        monthly_per_user_usd=monthly,
    )
