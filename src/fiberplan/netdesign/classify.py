"""Node role assignment: which settlements anchor which network tier.

A settlement near existing core fiber is core-adjacent. Each region's
population-maximal settlement at or above the main-settlement threshold is
its regional anchor; it is the region's regional node unless it is already
core-adjacent (in which case the region is anchored directly on the core).
Each subregion's population-maximal settlement is its access node unless a
higher role already claimed it. Every settlement holds at most one role.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from ..geodata import FiberLineSet, SettlementSet, within_buffer_mask

# within_buffer is looked up here by name by the benchmark's traced run
# (perfbench/spans.py), which counts per-settlement buffer tests.
from ..geodata import within_buffer  # noqa: F401

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ClassificationResult:
    """The settlements holding each role, plus the indexes the designers need.
    The roles are core-adjacent and a node of one of `design.LEVELS`.

    core_adjacent: settlement ids within the core buffer, ascending.
    region_anchor: region id -> anchor settlement id (the regional-tier
        attachment point; population-max fallback for flagged regions).
    regional_nodes: region id -> settlement id, only where the anchor is
        the region's regional node (anchors on the core or below threshold
        excluded).
    access_nodes: subregion id -> settlement id, only where the subregion
        maximum holds no other role.
    regions_without_candidate: regions with no settlement at the threshold.
    """

    core_adjacent: tuple[str, ...]
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
    core: set[str] = set()
    if fiber is not None:
        on_core = within_buffer_mask([s.location for s in settlements], fiber, buffer_km)
        core = {s.id for s, near in zip(settlements, on_core.tolist()) if near}

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
        if anchor.id in core:
            log.info("region %s anchors on the core at %s", region_id, anchor.id)
        else:
            regional_nodes[region_id] = anchor.id

    claimed = core | set(regional_nodes.values())
    access_nodes: dict[str, str] = {}
    for subregion_id in sorted(by_subregion):
        top = pop_max(by_subregion[subregion_id])
        if top.id not in claimed:
            access_nodes[subregion_id] = top.id

    log.info(
        "classified settlements: %d core-adjacent, %d regional, %d access",
        len(core),
        len(regional_nodes),
        len(access_nodes),
    )
    return ClassificationResult(
        core_adjacent=tuple(sorted(core)),
        region_anchor=region_anchor,
        regional_nodes=regional_nodes,
        access_nodes=access_nodes,
        regions_without_candidate=tuple(flagged),
    )
