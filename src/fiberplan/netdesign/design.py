"""Design dispatch: build the right graph for a tier and solve it.

MST designs span every node over a complete great-circle graph. PCST designs
route along the road network, weighing each terminal's user mass against the
trench length needed to reach it, and may leave low-value terminals out. A
design takes its nodes as settlement ids and their `lat`/`lon` columns, and
reads them in ascending id order. Every design, a lone settlement too, is
one `prim_mst` or `pcst_gw` run on its own graph, and `design_network`
turns that solve into its `DesignResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from ..errors import ConfigError
from ..geodata import RoadGraph
from .graphs import (
    DuplicateCoordinate,
    EmptyNodeSet,
    GreatCircleGraph,
    NetworkDesign,
    PrizedGraph,
    RoadOverlay,
    attach_terminals_to_roads,
    build_euclidean_graph,
)
from .solvers import pcst_gw, prim_mst


class PrizeOverflow(ConfigError):
    """prize_scale makes a PCST design's prizes too large for a float."""


LEVELS = ("regional", "access")
# (ids ascending, lat, lon) of a design's nodes: ids[i] is at (lat[i], lon[i])
Nodes = tuple[list[str], np.ndarray, np.ndarray]
# algorithm selection -> the solver tag its designs and report rows carry
ALGORITHMS = {"mst": "MST", "pcst": "PCST_GW"}
# what a solve gives `design_network`: (design, graph, terminal_vertex, warnings)
_Solve = tuple[NetworkDesign, GreatCircleGraph | RoadOverlay, dict[str, int], tuple[str, ...]]


@dataclass(frozen=True)
class DesignResult:
    """A solved design plus the geometry needed to render and report it."""

    level: str
    design: NetworkDesign
    graph: GreatCircleGraph | RoadOverlay
    terminal_vertex: dict[str, int]  # settlement id -> vertex id, one to one
    root_id: str
    warnings: tuple[str, ...]

    def connected_settlements(self) -> list[str]:
        """Settlement ids reachable in the design, ascending."""
        return sorted(
            sid
            for sid, v in self.terminal_vertex.items()
            if v in self.design.connected_vertices
        )


def design_network(
    level: str,
    algorithm: str,
    ids: Sequence[str],
    lat: Sequence[float],
    lon: Sequence[float],
    root_id: str,
    *,
    roads: RoadGraph | None = None,
    node_users: Mapping[str, float] | None = None,
    snap_radius_km: float = 5.0,
    prize_scale: float = 1.0,
    count_root_as_terminal: bool = True,
) -> DesignResult:
    """Design one network tier over the given nodes.

    Args:
        level: "regional" or "access" (labelling only; both tiers solve the
            same way).
        algorithm: "mst" spans every node; "pcst" trades road-routed length
            against per-node user prizes and may exclude nodes.
        ids, lat, lon: the settlements to connect, including the root:
            ids[i] is at (lat[i], lon[i]). Vertices follow ascending ids.
        root_id: settlement the design grows from.
        roads: road network (required for pcst).
        node_users: users per settlement id; prizes for pcst.
        snap_radius_km: road-attachment distance beyond which a spur is
            flagged as a fallback.
        prize_scale: km of trench one user justifies.
        count_root_as_terminal: whether the root is a billable terminal
            (False when the root is existing core plant).
    """
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
    if algorithm not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {tuple(ALGORITHMS)}, got {algorithm!r}")
    if not len(ids):
        raise EmptyNodeSet(f"{level} design requested over no nodes")
    if len(lat) != len(ids) or len(lon) != len(ids):
        raise ValueError("ids, lat and lon must have one entry per design node")
    row = dict(zip(ids, range(len(ids))))
    if len(row) != len(ids):
        raise ValueError("duplicate settlement ids in design nodes")
    if root_id not in row:
        raise ValueError(f"root {root_id!r} is not among the design nodes")
    ids = sorted(row)
    rows = [row[sid] for sid in ids]
    nodes = (ids, np.asarray(lat, dtype=np.float64)[rows], np.asarray(lon, dtype=np.float64)[rows])

    if algorithm == "mst":
        design, graph, terminal_vertex, warnings = _design_mst(nodes, root_id)
    else:
        design, graph, terminal_vertex, warnings = _design_pcst(
            level,
            nodes,
            root_id,
            roads=roads,
            node_users=node_users or {},
            snap_radius_km=snap_radius_km,
            prize_scale=prize_scale,
        )
    if not count_root_as_terminal:
        # Every design keeps its root (PCST's strong pruning never drops it).
        design = replace(design, terminal_node_count=design.terminal_node_count - 1)
    return DesignResult(
        level=level,
        design=design,
        graph=graph,
        terminal_vertex=terminal_vertex,
        root_id=root_id,
        warnings=warnings,
    )


def _design_mst(nodes: Nodes, root_id: str) -> _Solve:
    ids = nodes[0]
    graph = build_euclidean_graph(*nodes)
    terminal_vertex = dict(zip(ids, range(len(ids))))
    design = prim_mst(graph, root=terminal_vertex[root_id])
    for u, v, w in design.edges:  # settlements 0 km apart always give a 0 km tree edge
        if w == 0.0:
            raise DuplicateCoordinate(f"settlements {ids[u]!r} and {ids[v]!r} are 0 km apart")
    return design, graph, terminal_vertex, ()


def _design_pcst(
    level: str,
    nodes: Nodes,
    root_id: str,
    *,
    roads: RoadGraph | None,
    node_users: Mapping[str, float],
    snap_radius_km: float,
    prize_scale: float,
) -> _Solve:
    if roads is None:
        raise ValueError("pcst designs require a road network")
    if not (math.isfinite(prize_scale) and prize_scale > 0):
        raise ValueError(f"prize_scale must be a finite number > 0, got {prize_scale}")
    attachment = attach_terminals_to_roads(*nodes, roads, snap_radius_km)
    graph = attachment.graph
    terminal_vertex = attachment.terminal_vertex
    root_vertex = terminal_vertex[root_id]
    prizes: dict[int, float] = {}
    for sid in nodes[0]:
        if sid == root_id:
            continue  # the root is always in the tree; a prize would be inert
        users = float(node_users.get(sid, 0.0))
        if not (math.isfinite(users) and users >= 0):
            raise ValueError(f"users of settlement {sid!r} must be finite and >= 0, got {users}")
        prizes[terminal_vertex[sid]] = users * prize_scale
    terminals = frozenset(terminal_vertex.values())
    try:
        prized = PrizedGraph(graph=graph, prizes=prizes, root=root_vertex, terminals=terminals)
    except ValueError as exc:  # the only one it can raise here: prizes past a float
        raise PrizeOverflow(
            f"prize_scale {prize_scale:.6g} makes the {level} prizes too large: {exc}"
        ) from exc
    design = pcst_gw(prized)
    warnings = tuple(
        f"settlement {sid} attached {dist:.2f} km beyond the {snap_radius_km:.2f} km snap radius"
        for sid, dist in attachment.beyond_snap
    )
    return design, graph, terminal_vertex, warnings
