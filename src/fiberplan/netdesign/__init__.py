"""Network design: graphs, node roles, tree solvers, and tier dispatch."""

from .classify import ClassificationResult, NodeRole, classify_nodes
from .design import DesignResult, design_network
from .graphs import (
    DisconnectedGraph,
    DuplicateCoordinate,
    EmptyNodeSet,
    InstanceTooLarge,
    NetworkDesign,
    PrizedGraph,
    RoadAttachment,
    RootMissing,
    WeightedGraph,
    attach_terminals_to_roads,
    build_euclidean_graph,
)
from .solvers import pcst_exact, pcst_gw, prim_mst

__all__ = [
    "ClassificationResult",
    "DesignResult",
    "DisconnectedGraph",
    "DuplicateCoordinate",
    "EmptyNodeSet",
    "InstanceTooLarge",
    "NetworkDesign",
    "NodeRole",
    "PrizedGraph",
    "RoadAttachment",
    "RootMissing",
    "WeightedGraph",
    "attach_terminals_to_roads",
    "build_euclidean_graph",
    "classify_nodes",
    "design_network",
    "pcst_exact",
    "pcst_gw",
    "prim_mst",
]
