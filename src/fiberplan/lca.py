"""Lifecycle greenhouse-gas accounting for a fiber deployment.

Five phases: manufacturing (fiber glass plus per-node electronics,
enclosures, and steel), transport (international shipping of the equipment
mass plus in-country vehicle movement of materials along the route),
construction (diesel burned trenching the buried fraction of the route),
operations (grid electricity for the powered nodes over the service life),
and end-of-life treatment (open-loop recycling of cable and node materials).
All results are kg CO2-equivalent.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import DataError, is_finite_number
from .netdesign import NetworkDesign

HOURS_PER_YEAR = 8_760.0


class ZeroUsers(DataError):
    """An operations figure was requested for a zero-user base."""


@dataclass(frozen=True)
class EmissionFactorBook:
    """Material masses, emission factors, and power figures.

    Masses are kg (per km for cable, per terminal node otherwise); carbon
    factors are kg CO2e per kg of material unless named otherwise; power
    figures are kW. alpha is the wireless-overhead multiplier applied to the
    per-terminal power share.
    """

    cable_kg_per_km: float = 247.0
    cf_glass_per_kg: float = 1.403
    mass_pcb_kg: float = 3.0
    cf_pcb: float = 18.76
    mass_plastics_kg: float = 20.0
    cf_plastics: float = 3.413
    mass_steel_kg: float = 15.0
    cf_steel: float = 19.4
    cf_shipping_per_kg: float = 0.3234
    cf_vehicle_per_kg_km: float = 0.3234
    trench_fraction: float = 0.01
    trench_hours_per_km: float = 1.0
    fuel_liters_per_hour: float = 24.33
    cf_diesel_per_liter: float = 2.68
    p_rn_kw: float = 1.0
    p_tu_kw: float = 0.5
    p_node_kw: float = 0.0
    alpha: float = 1.5
    cf_electricity_per_kwh: float = 0.1934
    cf_recycle_steel: float = 0.9847
    cf_recycle_cable_per_kg: float = 2.3
    cf_recycle_pcb: float = 18.6
    cf_recycle_plastics: float = 2.3
    operating_hours_per_year: float = HOURS_PER_YEAR
    lifetime_years: int = 30

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not is_finite_number(value):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
            if value < 0:
                raise ValueError(f"{f.name} must be >= 0, got {value}")
        if self.trench_fraction > 1.0:
            raise ValueError(f"trench_fraction must be in [0, 1], got {self.trench_fraction}")
        if not isinstance(self.lifetime_years, int) or self.lifetime_years < 1:
            raise ValueError(
                f"lifetime_years must be an integer >= 1, got {self.lifetime_years!r}"
            )

    @property
    def node_mass_kg(self) -> float:
        """Non-fiber material mass per terminal node."""
        return _node_mass(self)

    def replace(self, **overrides: float) -> "EmissionFactorBook":
        return dataclasses.replace(self, **overrides)


@dataclass(frozen=True)
class EmissionsBreakdown:
    """Per-phase and total emissions with per-user derivatives."""

    mfg_kg: float
    trans_kg: float
    constr_kg: float
    ops_kg: float
    eolt_kg: float
    total_kg: float
    per_user_kg: float | None
    annualized_per_user_kg: float | None


# The phase arithmetic. `b` is an EmissionFactorBook or any object with its
# field names whose values are floats or numpy arrays (the report's Monte
# Carlo kernel passes one column per varied field); the expressions run in
# the same order either way, so both give bit-identical figures.


def _node_mass(b):
    return b.mass_pcb_kg + b.mass_plastics_kg + b.mass_steel_kg


def _fiber_mfg(d_km, b):
    return d_km * b.cable_kg_per_km * b.cf_glass_per_kg


def _nonfiber_mfg(node_count, b):
    per_node = (
        b.mass_pcb_kg * b.cf_pcb
        + b.mass_plastics_kg * b.cf_plastics
        + b.mass_steel_kg * b.cf_steel
    )
    return node_count * per_node


def _transport(d_km, shipping_mass_kg, b):
    int_ghg = shipping_mass_kg * b.cf_shipping_per_kg
    nonfb_trans = _node_mass(b) * d_km * b.cf_vehicle_per_kg_km
    return int_ghg + nonfb_trans


def _construction(d_km, b):
    d_trench = d_km * b.trench_fraction
    hours = b.trench_hours_per_km * d_trench
    fuel_liters = hours * b.fuel_liters_per_hour
    return b.cf_diesel_per_liter * fuel_liters


def _per_user_power(n_rn_users, n_tu_users, b):
    return b.p_node_kw + b.p_rn_kw / n_rn_users + b.alpha * (b.p_tu_kw / n_tu_users)


def _operations(n_rn_users, n_tu_users, b):
    rate_kg_per_hour = _per_user_power(n_rn_users, n_tu_users, b) * b.cf_electricity_per_kwh
    return rate_kg_per_hour * b.operating_hours_per_year * b.lifetime_years


def _eolt(d_km, node_count, b):
    fib_eolt = d_km * b.cable_kg_per_km * b.cf_recycle_cable_per_kg
    nonfib_eolt = node_count * (
        b.mass_steel_kg * b.cf_recycle_steel
        + b.mass_pcb_kg * b.cf_recycle_pcb
        + b.mass_plastics_kg * b.cf_recycle_plastics
    )
    return fib_eolt + nonfib_eolt


def _phases(length_km, node_count, ops, b):
    """(mfg, trans, constr, eolt, total) given the operations figure ops."""
    mfg = _fiber_mfg(length_km, b) + _nonfiber_mfg(node_count, b)
    shipping_mass = length_km * b.cable_kg_per_km + node_count * _node_mass(b)
    trans = _transport(length_km, shipping_mass, b)
    constr = _construction(length_km, b)
    eolt = _eolt(length_km, node_count, b)
    return mfg, trans, constr, eolt, mfg + trans + constr + ops + eolt


def _per_user_views(total, users, years):
    """(per user, annualized per user) views of a total over `years`."""
    per_user = total / users
    return per_user, per_user / years


def fiber_mfg_emissions(d_km: float, book: EmissionFactorBook) -> float:
    """Emissions from manufacturing d_km of cable."""
    if d_km < 0:
        raise ValueError(f"d_km must be >= 0, got {d_km}")
    return _fiber_mfg(d_km, book)


def nonfiber_mfg_emissions(node_count: int, book: EmissionFactorBook) -> float:
    """Emissions from manufacturing the node materials (PCB, plastics, steel)."""
    if node_count < 0:
        raise ValueError(f"node_count must be >= 0, got {node_count}")
    return _nonfiber_mfg(node_count, book)


def transport_emissions(
    d_km: float, node_count: int, shipping_mass_kg: float, book: EmissionFactorBook
) -> float:
    """Shipping of the equipment mass plus vehicle movement along the route.

    The vehicle term moves one node-material load over the route length;
    node_count is accepted for signature symmetry with the other phases but
    the load is a single materials consignment.
    """
    if min(d_km, node_count, shipping_mass_kg) < 0:
        raise ValueError("transport inputs must be >= 0")
    return _transport(d_km, shipping_mass_kg, book)


def construction_emissions(d_km: float, book: EmissionFactorBook) -> float:
    """Diesel burned trenching the buried fraction of the route."""
    if d_km < 0:
        raise ValueError(f"d_km must be >= 0, got {d_km}")
    return _construction(d_km, book)


def _check_user_counts(n_rn_users: float, n_tu_users: float) -> None:
    if n_rn_users <= 0 or n_tu_users <= 0:
        raise ZeroUsers(
            f"operations power needs positive user counts, got n_rn={n_rn_users}, n_tu={n_tu_users}"
        )


def per_user_power_kw(n_rn_users: float, n_tu_users: float, book: EmissionFactorBook) -> float:
    """Grid power attributed to one user (node share plus overheads)."""
    _check_user_counts(n_rn_users, n_tu_users)
    return _per_user_power(n_rn_users, n_tu_users, book)


def operations_emissions(
    n_rn_users: float, n_tu_users: float, book: EmissionFactorBook
) -> float:
    """Lifetime operations emissions attributed to one user.

    The hourly rate is the per-user power times the grid carbon intensity;
    the lifetime figure integrates it over the operating hours of the
    assessment period.
    """
    _check_user_counts(n_rn_users, n_tu_users)
    return _operations(n_rn_users, n_tu_users, book)


def eolt_emissions(d_km: float, node_count: int, book: EmissionFactorBook) -> float:
    """End-of-life treatment of cable and node materials."""
    if d_km < 0 or node_count < 0:
        raise ValueError("eolt inputs must be >= 0")
    return _eolt(d_km, node_count, book)


def total_emissions(
    design: NetworkDesign, users: float, book: EmissionFactorBook
) -> EmissionsBreakdown:
    """Compose the five phases for a design serving `users` people."""
    return emissions_quantities(
        design.total_length_km, design.terminal_node_count, users, book
    )


def emissions_quantities(
    length_km: float, node_count: int, users: float, book: EmissionFactorBook
) -> EmissionsBreakdown:
    """Five-phase breakdown from raw quantities.

    Operations attribute the head-station power across all users and the
    terminal power across each terminal's share of them; an empty design or
    a zero-user base contributes no operations load.
    """
    if users < 0:
        raise ValueError(f"users must be >= 0, got {users}")
    if length_km < 0 or node_count < 0:
        raise ValueError(
            f"length_km and node_count must be >= 0, got {length_km}, {node_count}"
        )
    if users > 0 and node_count > 0:
        ops = users * operations_emissions(users, users / node_count, book)
    else:
        ops = 0.0
    mfg, trans, constr, eolt, total = _phases(length_km, node_count, ops, book)
    if users == 0:
        per_user = annualized = None
    else:
        per_user, annualized = _per_user_views(total, users, book.lifetime_years)
    return EmissionsBreakdown(
        mfg_kg=mfg,
        trans_kg=trans,
        constr_kg=constr,
        ops_kg=ops,
        eolt_kg=eolt,
        total_kg=total,
        per_user_kg=per_user,
        annualized_per_user_kg=annualized,
    )
