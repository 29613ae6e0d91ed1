"""Node role assignment: which settlements anchor which network tier.

A settlement near existing core fiber is core-adjacent. Each region's
population-maximal settlement at or above the main-settlement threshold is
its regional anchor; it is the region's regional node unless it is already
core-adjacent (in which case the region is anchored directly on the core).
Each subregion's population-maximal settlement is its access node unless a
higher role already claimed it. Every settlement holds at most one role.
The country backbone joins the regional nodes to the core, rooted at the
core-adjacent settlement nearest any of them.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

from ..errors import ConfigError
from ..geodata import FiberLineSet, RoadGraph, SettlementSet, within_buffer_mask

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
    backbone_root: the root of the backbone over the regional nodes: the
        core-adjacent settlement nearest any regional node (existing plant),
        ties to the lowest id; the most populous regional node when no
        settlement is core-adjacent; None when there are no regional nodes.
    """

    core_adjacent: tuple[str, ...]
    region_anchor: dict[str, str]
    regional_nodes: dict[str, str]
    access_nodes: dict[str, str]
    regions_without_candidate: tuple[str, ...]
    backbone_root: str | None


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
        raise ConfigError(f"buffer_km must be a finite number >= 0, got {buffer_km}")
    if main_settlement_threshold < 0:
        raise ConfigError(
            f"main_settlement_threshold must be >= 0, got {main_settlement_threshold}"
        )
    ids, population = settlements.ids, settlements.population
    core: set[str] = set()
    if fiber is not None:
        on_core = within_buffer_mask(settlements.lat, settlements.lon, fiber, buffer_km)
        core = set(compress(ids, on_core.tolist()))

    region_anchor: dict[str, str] = {}
    regional_nodes: dict[str, str] = {}
    flagged: list[str] = []
    region_tops = _group_tops(settlements.region_id, population, ids)
    for region_id in sorted(region_tops):
        # The region's population-max settlement is the population-max of
        # its candidates too, unless no settlement is a candidate.
        row = region_tops[region_id]
        anchor = region_anchor[region_id] = ids[row]
        if population[row] < main_settlement_threshold:
            flagged.append(region_id)
        elif anchor in core:
            log.info("region %s anchors on the core at %s", region_id, anchor)
        else:
            regional_nodes[region_id] = anchor

    claimed = core | set(regional_nodes.values())
    access_nodes: dict[str, str] = {}
    subregion_tops = _group_tops(settlements.subregion_id, population, ids)
    for subregion_id in sorted(subregion_tops):
        top = ids[subregion_tops[subregion_id]]
        if top not in claimed:
            access_nodes[subregion_id] = top

    core_adjacent = tuple(sorted(core))
    return ClassificationResult(
        core_adjacent=core_adjacent,
        region_anchor=region_anchor,
        regional_nodes=regional_nodes,
        access_nodes=access_nodes,
        regions_without_candidate=tuple(flagged),
        backbone_root=_backbone_root(settlements, core_adjacent, list(regional_nodes.values())),
    )


def _backbone_root(
    settlements: SettlementSet, core: Sequence[str], regional: Sequence[str]
) -> str | None:
    """The backbone's root (see `ClassificationResult`), given the
    core-adjacent ids ascending and the regional node ids.

    The core settlements, in id order, are the vertices of a `RoadGraph`
    without edges, whose `nearest_vertices` gives each regional node's
    nearest core with its `haversine_km` distance, ties to the lowest id,
    in one pass. The least (km, id) over the regional nodes is the pick of
    a full scan over every core x regional pair (`haversine_km` is the
    same float with its points swapped).
    """
    if not regional:
        return None
    row = settlements.row
    if not core:
        return max(regional, key=lambda sid: (settlements.population[row[sid]], sid))
    rows = [row[sid] for sid in core]
    cores = RoadGraph(settlements.lat[rows], settlements.lon[rows], (), (), ())
    at = [row[sid] for sid in regional]
    nearest = cores.nearest_vertices(settlements.lat[at], settlements.lon[at])
    _, pick = min((km, vid) for vid, km in nearest)
    return core[pick]


def _group_tops(
    groups: Sequence[str], population: Sequence[int], ids: Sequence[str]
) -> dict[str, int]:
    """group -> row of its population-max settlement, ties to the ascending
    id, in one pass over the rows."""
    tops: dict[str, int] = {}
    for row, (group, pop, sid) in enumerate(zip(groups, population, ids)):
        top = tops.setdefault(group, row)
        if pop > population[top] or (pop == population[top] and sid < ids[top]):
            tops[group] = row
    return tops
