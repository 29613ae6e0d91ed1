"""Deterministic fiber-to-the-neighborhood network planning.

Designs least-cost access and backbone fiber networks over settlement and
road data, prices them (total cost of ownership), assesses life-cycle
greenhouse-gas emissions with their social carbon cost, aggregates per
population-density decile, and quantifies parameter sensitivity with a
reproducible Monte Carlo.
"""

__version__ = "0.1.0"

from .costmodel import CostBook, CostBreakdown, opex_npv, tco_quantities
from .demand import (
    AdoptionScenario,
    SubregionDemand,
    assign_deciles,
    band_demand,
    potential_users,
)
from .errors import ConfigError, DataError, FiberPlanError, OutputError, SolverError
from .geodata import (
    FiberLineSet,
    GeoPoint,
    RoadGraph,
    Settlement,
    SettlementSet,
    haversine_km,
    load_fiber_lines,
    load_road_graph,
    load_settlements,
)
from .lca import EmissionFactorBook, EmissionsBreakdown, emissions_quantities
from .netdesign import (
    ClassificationResult,
    DesignResult,
    NetworkDesign,
    NodeRole,
    PrizedGraph,
    WeightedGraph,
    classify_nodes,
    design_network,
    pcst_exact,
    pcst_gw,
    prim_mst,
)
from .report import (
    DecileReportRow,
    Distribution,
    McConfig,
    ReportUnit,
    build_report,
    monte_carlo,
    scc,
)

__all__ = [
    "AdoptionScenario",
    "ClassificationResult",
    "ConfigError",
    "CostBook",
    "CostBreakdown",
    "DataError",
    "DecileReportRow",
    "DesignResult",
    "Distribution",
    "EmissionFactorBook",
    "EmissionsBreakdown",
    "FiberLineSet",
    "FiberPlanError",
    "GeoPoint",
    "McConfig",
    "NetworkDesign",
    "NodeRole",
    "OutputError",
    "PrizedGraph",
    "ReportUnit",
    "RoadGraph",
    "Settlement",
    "SettlementSet",
    "SolverError",
    "SubregionDemand",
    "WeightedGraph",
    "__version__",
    "assign_deciles",
    "band_demand",
    "build_report",
    "classify_nodes",
    "design_network",
    "emissions_quantities",
    "haversine_km",
    "load_fiber_lines",
    "load_road_graph",
    "load_settlements",
    "monte_carlo",
    "opex_npv",
    "pcst_exact",
    "pcst_gw",
    "potential_users",
    "prim_mst",
    "scc",
    "tco_quantities",
]
