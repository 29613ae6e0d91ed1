"""Node role assignment: which settlements anchor which network tier.

A settlement near existing core fiber is CoreAdjacent. Each region's
population-maximal settlement at or above the main-settlement threshold is
its regional anchor; it takes the Regional role unless it is already
CoreAdjacent (in which case the region is anchored directly on the core).
Each subregion's population-maximal settlement takes the Access role unless
a higher role already claimed it. Every settlement holds at most one role.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass

from ..geodata import FiberLineSet, SettlementSet, within_buffer_mask

# within_buffer is looked up here by name by the benchmark's traced run
# (perfbench/spans.py), which counts per-settlement buffer tests.
from ..geodata import within_buffer  # noqa: F401

log = logging.getLogger(__name__)


class NodeRole(enum.Enum):
    CORE_ADJACENT = "core_adjacent"
    REGIONAL = "regional"
    ACCESS = "access"


@dataclass(frozen=True)
class ClassificationResult:
    """Role map plus the indexes the designers need.

    roles: settlement id -> role, for role-bearing settlements only.
    region_anchor: region id -> anchor settlement id (the regional-tier
        attachment point; population-max fallback for flagged regions).
    regional_nodes: region id -> settlement id, only where the anchor holds
        the Regional role (anchors on the core or below threshold excluded).
    access_nodes: subregion id -> settlement id, only where the subregion
        maximum holds the Access role.
    regions_without_candidate: regions with no settlement at the threshold.
    """

    roles: dict[str, NodeRole]
    region_anchor: dict[str, str]
    regional_nodes: dict[str, str]
    access_nodes: dict[str, str]
    regions_without_candidate: tuple[str, ...]


def classify_nodes(
    settlements: SettlementSet,
    fiber: FiberLineSet | None,
    *,
    buffer_km: float,
    main_settlement_threshold: int,
) -> ClassificationResult:
    """Assign tier roles to settlements.

    Args:
        settlements: validated settlement set.
        fiber: existing core routes; None means no core in scope, so no
            settlement can be CoreAdjacent.
        buffer_km: distance within which a settlement counts as on-core;
            a finite number >= 0.
        main_settlement_threshold: minimum population for a regional anchor.
    """
    if not (math.isfinite(buffer_km) and buffer_km >= 0):
        raise ValueError(f"buffer_km must be a finite number >= 0, got {buffer_km}")
    if main_settlement_threshold < 0:
        raise ValueError(
            f"main_settlement_threshold must be >= 0, got {main_settlement_threshold}"
        )
    roles: dict[str, NodeRole] = {}
    if fiber is not None:
        points = [s.location for s in settlements]
        on_core = within_buffer_mask(points, fiber, buffer_km).tolist()
        for s, near in zip(settlements, on_core):
            if near:
                roles[s.id] = NodeRole.CORE_ADJACENT

    by_region: dict[str, list] = {}
    by_subregion: dict[str, list] = {}
    for s in settlements:
        by_region.setdefault(s.region_id, []).append(s)
        by_subregion.setdefault(s.subregion_id, []).append(s)

    # Population-max with ties to the ascending settlement id.
    def pop_max(members: list) -> object:
        return min(members, key=lambda s: (-s.population, s.id))

    region_anchor: dict[str, str] = {}
    regional_nodes: dict[str, str] = {}
    flagged: list[str] = []
    for region_id in sorted(by_region):
        members = by_region[region_id]
        candidates = [s for s in members if s.population >= main_settlement_threshold]
        if not candidates:
            flagged.append(region_id)
            region_anchor[region_id] = pop_max(members).id
            log.warning(
                "region %s has no settlement at the regional threshold (%d); "
                "anchoring at its largest settlement %s",
                region_id,
                main_settlement_threshold,
                region_anchor[region_id],
            )
            continue
        anchor = pop_max(candidates)
        region_anchor[region_id] = anchor.id
        if roles.get(anchor.id) is NodeRole.CORE_ADJACENT:
            log.info("region %s anchors on the core at %s", region_id, anchor.id)
        else:
            roles[anchor.id] = NodeRole.REGIONAL
            regional_nodes[region_id] = anchor.id

    access_nodes: dict[str, str] = {}
    for subregion_id in sorted(by_subregion):
        top = pop_max(by_subregion[subregion_id])
        if top.id not in roles:
            roles[top.id] = NodeRole.ACCESS
            access_nodes[subregion_id] = top.id

    log.info(
        "classified %d role-bearing settlements: %d core-adjacent, %d regional, %d access",
        len(roles),
        sum(1 for r in roles.values() if r is NodeRole.CORE_ADJACENT),
        len(regional_nodes),
        len(access_nodes),
    )
    return ClassificationResult(
        roles=roles,
        region_anchor=region_anchor,
        regional_nodes=regional_nodes,
        access_nodes=access_nodes,
        regions_without_candidate=tuple(flagged),
    )
