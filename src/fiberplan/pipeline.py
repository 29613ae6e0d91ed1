"""End-to-end orchestration: load, demand, classify, design, price, emit.

The pipeline turns a validated scenario into decile report rows and design
geometry. Regions are the unit of attribution: each region contributes one
reporting unit per network level per algorithm. The regional backbone is
solved once per algorithm and its length and operating cost are split
equally across the regions it actually connects; access networks are solved
per region and attributed whole.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import demand as demand_mod
from .config import ScenarioConfig, parameters_payload
from .demand import AdoptionScenario, SubregionDemand, users_for_node
from .errors import ConfigError, DataError
from .geodata import (
    FiberLineSet,
    RoadGraph,
    Settlement,
    SettlementSet,
    haversine_km,
    haversine_km_array,
    load_fiber_lines,
    load_road_graph,
    load_settlements,
)
from .netdesign.classify import ClassificationResult, classify_nodes
from .netdesign.design import ALGORITHMS, LEVELS, DesignResult, design_network
from .report import (
    DecileReportRow,
    IoError,
    KeyMismatch,
    McSummaryRow,
    ReportUnit,
    build_report,
    config_hash,
    emit_csv,
    emit_design_geojson,
    emit_mc_csv,
    monte_carlo,
)

log = logging.getLogger(__name__)


class UsersOverflow(DataError):
    """A region's or the whole scenario's potential users are too many for a
    float."""


@dataclass(frozen=True)
class LoadedInputs:
    settlements: SettlementSet
    areas: dict[str, float]
    fiber: FiberLineSet | None
    roads: RoadGraph | None


@dataclass(frozen=True)
class DemandStage:
    records: list[SubregionDemand]
    users_by_subregion: dict[str, float]
    users_by_region: dict[str, float]  # in region order
    total_users: float
    warnings: tuple[str, ...]


@dataclass
class PipelineResult:
    demand: DemandStage
    classification: ClassificationResult
    # (selection, level) -> designs; access holds one design per region in
    # region order, regional holds at most one country-wide design.
    designs: dict[tuple[str, str], list[DesignResult]]
    units: list[ReportUnit]
    rows: list[DecileReportRow]
    warnings: list[str] = field(default_factory=list)


def load_inputs(cfg: ScenarioConfig) -> LoadedInputs:
    """Load and validate every configured input file."""
    settlements = load_settlements(cfg.settlements_path, fmt=cfg.settlements_format)
    areas = demand_mod.load_area_table(cfg.areas_path)
    fiber = load_fiber_lines(cfg.fiber_path) if cfg.fiber_path else None
    roads = load_road_graph(cfg.roads_path) if cfg.roads_path else None
    missing = sorted(set(settlements.subregion_id) - set(areas))
    if missing:
        raise DataError(
            f"settled subregions missing from the area table: {', '.join(missing)}"
        )
    _check_subregion_regions(settlements)
    log.info(
        "loaded %d settlements, %d subregion areas, fiber=%s, roads=%s",
        len(settlements),
        len(areas),
        "yes" if fiber else "no",
        "yes" if roads else "no",
    )
    return LoadedInputs(settlements=settlements, areas=areas, fiber=fiber, roads=roads)


def _check_subregion_regions(settlements: SettlementSet) -> None:
    """DataError naming the first row whose subregion was already seen in
    another region."""
    seen: dict[str, str] = {}
    for subregion, region in zip(settlements.subregion_id, settlements.region_id):
        prior = seen.setdefault(subregion, region)
        if prior != region:
            raise DataError(f"subregion {subregion!r} spans regions {prior!r} and {region!r}")


def build_demand(cfg: ScenarioConfig, inputs: LoadedInputs) -> DemandStage:
    """Population density, deciles, and potential users per subregion and
    per region."""
    pops: dict[str, int] = {sid: 0 for sid in inputs.areas}
    settlements = inputs.settlements
    for subregion, population in zip(settlements.subregion_id, settlements.population):
        pops[subregion] += population
    triples = [(sid, pops[sid], inputs.areas[sid]) for sid in sorted(inputs.areas)]
    scenario = AdoptionScenario(
        adoption_rate=cfg.adoption_rate, min_density_per_km2=cfg.min_density_per_km2
    )
    warnings: list[str] = []
    if len(triples) >= 10:
        records = demand_mod.assign_deciles(triples, scenario)
    else:
        records = demand_mod.band_demand(triples, scenario)
        warnings.append(
            f"only {len(triples)} subregions: deciles assigned from density bands, "
            "not an equal-count split"
        )
        log.warning(warnings[-1])
    users = {r.subregion_id: users_for_node(r) for r in records}
    return DemandStage(
        records=records,
        users_by_subregion=users,
        users_by_region=_region_users(settlements, users),
        total_users=_users_sum(users.values(), "the whole scenario"),
        warnings=tuple(warnings),
    )


def _region_users(
    settlements: SettlementSet, users_by_subregion: Mapping[str, float]
) -> dict[str, float]:
    """Potential users per region, in region order."""
    users: dict[str, list[float]] = {}
    for region, subregion in set(zip(settlements.region_id, settlements.subregion_id)):
        users.setdefault(region, []).append(users_by_subregion[subregion])
    return {region: _users_sum(users[region], f"region {region!r}") for region in sorted(users)}


def _users_sum(users: Iterable[float], what: str) -> float:
    """`math.fsum` of potential users, which are >= 0, so the exact sum does
    not depend on their order; UsersOverflow when it is not a finite float."""
    try:
        total = math.fsum(users)
    except OverflowError:  # a partial sum past the largest float
        total = math.inf
    if not math.isfinite(total):
        raise UsersOverflow(f"potential users of {what} are too many for a float")
    return total


def _region_decile(
    region: str,
    classification: ClassificationResult,
    settlements: SettlementSet,
    demand_index: Mapping[str, SubregionDemand],
) -> int:
    anchor_id = classification.region_anchor[region]
    subregion = settlements.subregion_id[settlements.row[anchor_id]]
    record = demand_index.get(subregion)
    if record is None:
        raise KeyMismatch(f"anchor subregion {subregion!r} has no demand record")
    return record.decile


def _pick_backbone_root(
    classification: ClassificationResult, settlements: SettlementSet
) -> tuple[str, bool, list[str]]:
    """Root settlement for the country backbone.

    Prefers the core-adjacent settlement nearest any regional node (existing
    plant, not billed), by `haversine_km` with ties to the lowest id; falls
    back to the most populous regional node when nothing touches the core.
    Returns (root id, root is billable, warnings).

    numpy distances from each regional node to every core settlement give
    each core's nearest-node distance. The cores within a 1e-9 relative
    and 1e-12 km absolute margin of the smallest are short-listed: numpy's
    sin and arcsin, and the swapped argument order, move a distance by a
    few ulps at most, far inside the margin. Only they are measured with
    `haversine_km` against every regional node, so the pick is that of the
    full scalar scan.
    """
    rnod_ids = sorted(classification.regional_nodes.values())
    core_ids = classification.core_adjacent
    row = settlements.row
    if core_ids and rnod_ids:
        core_rows = [row[sid] for sid in core_ids]
        lat, lon = settlements.lat[core_rows], settlements.lon[core_rows]
        cos_lat = np.cos(np.radians(lat))
        rnods = [settlements.point(row[sid]) for sid in rnod_ids]
        nearest = np.full(len(core_ids), np.inf)
        for r in rnods:
            np.minimum(nearest, haversine_km_array(r, lat, lon, cos_lat), out=nearest)
        limit = float(nearest.min()) * (1.0 + 1e-9) + 1e-12
        root = min(
            (min(haversine_km(settlements.point(core_rows[i]), r) for r in rnods), core_ids[i])
            for i in np.flatnonzero(nearest <= limit).tolist()
        )[1]
        return root, False, []
    if core_ids:
        # nothing to connect; any core settlement can stand as the root
        return core_ids[0], False, []
    fallback = max(rnod_ids, key=lambda sid: (settlements.population[row[sid]], sid))
    warning = (
        f"no settlement within the core buffer; backbone rooted at regional node "
        f"{fallback!r}"
    )
    log.warning(warning)
    return fallback, True, [warning]


def build_designs(
    cfg: ScenarioConfig,
    inputs: LoadedInputs,
    stage: DemandStage,
    classification: ClassificationResult,
) -> tuple[dict[tuple[str, str], list[DesignResult]], list[str]]:
    """Solve every selected algorithm at both network levels.

    The designs are one list of jobs, each (level, root id, nodes, users per
    prized node, root billable): the backbone over the regional nodes first,
    when there are any, then one access network per region in region order.
    Every selected algorithm solves every job. The backbone's own warnings
    (its fallback root, or its absence) are listed once per run, before
    those of the designs.
    """
    settlements = inputs.settlements
    row, region_of, node = settlements.row, settlements.region_id, settlements.settlement
    region_users = stage.users_by_region
    jobs: list[tuple[str, str, list[Settlement], dict[str, float], bool]] = []

    rnod_ids = sorted(classification.regional_nodes.values())
    if rnod_ids:
        root_id, root_billable, backbone_warnings = _pick_backbone_root(
            classification, settlements
        )
        jobs.append((
            "regional",
            root_id,
            [node(row[sid]) for sid in sorted(set(rnod_ids) | {root_id})],
            {sid: region_users[region_of[row[sid]]] for sid in rnod_ids},
            root_billable,
        ))
    else:
        backbone_warnings = ["no regional nodes: the backbone level is empty"]
        log.warning(backbone_warnings[0])

    access_ids_by_region: dict[str, list[str]] = {region: [] for region in region_users}
    for sid in sorted(classification.access_nodes.values()):
        access_ids_by_region[region_of[row[sid]]].append(sid)
    for region in region_users:
        anchor_id = classification.region_anchor[region]
        access_ids = access_ids_by_region[region]
        jobs.append((
            "access",
            anchor_id,
            [node(row[sid]) for sid in sorted(set(access_ids) | {anchor_id})],
            {
                sid: stage.users_by_subregion[settlements.subregion_id[row[sid]]]
                for sid in access_ids
            },
            True,
        ))

    designs: dict[tuple[str, str], list[DesignResult]] = {}
    warnings = list(backbone_warnings)
    for selection in cfg.algorithms:
        for level in LEVELS:
            designs[(selection, level)] = []
        for level, root_id, nodes, node_users, root_billable in jobs:
            result = design_network(
                level,
                selection,
                nodes,
                root_id,
                roads=inputs.roads,
                node_users=node_users,
                snap_radius_km=cfg.snap_radius_km,
                prize_scale=cfg.prize_scale,
                count_root_as_terminal=root_billable,
            )
            warnings.extend(result.warnings)
            designs[(selection, level)].append(result)
    return designs, warnings


def build_units(
    inputs: LoadedInputs,
    stage: DemandStage,
    classification: ClassificationResult,
    designs: Mapping[tuple[str, str], list[DesignResult]],
) -> list[ReportUnit]:
    """One reporting unit per region per level per algorithm.

    Access designs are attributed whole to their region. The backbone's
    length and operating cost are split equally across the regions whose
    regional node it connects; regions it does not reach (on the core
    already, below threshold, or priced out by the prize solver) keep their
    users but carry zero quantities, as every region does at a level with
    no design.
    """
    settlements = inputs.settlements
    demand_index = {r.subregion_id: r for r in stage.records}
    region_users = stage.users_by_region
    region_decile = {
        region: _region_decile(region, classification, settlements, demand_index)
        for region in region_users
    }
    rnod_region = {sid: region for region, sid in classification.regional_nodes.items()}

    units: list[ReportUnit] = []
    for (selection, level), results in sorted(designs.items()):
        # region -> (node count, length km, opex share)
        shares = dict.fromkeys(region_users, (0, 0.0, 0.0))
        for result in results:
            if level == "access":
                regions = [settlements.region_id[settlements.row[result.root_id]]]
                node_count = result.design.terminal_node_count
            else:
                regions = [
                    rnod_region[sid]
                    for sid in result.connected_settlements()
                    if sid in rnod_region
                ]
                node_count = 1
            for region in regions:
                shares[region] = (
                    node_count,
                    result.design.total_length_km / len(regions),
                    1.0 / len(regions),
                )
        units.extend(
            ReportUnit(
                key=region,
                decile=region_decile[region],
                level=level,
                algorithm=ALGORITHMS[selection],
                users=region_users[region],
                node_count=node_count,
                length_km=length_km,
                opex_share=opex_share,
            )
            for region, (node_count, length_km, opex_share) in sorted(shares.items())
        )
    return units


def load_and_classify(
    cfg: ScenarioConfig,
) -> tuple[LoadedInputs, DemandStage, ClassificationResult, list[str]]:
    """Execute load, demand, and classify: every stage before the designs.
    Returns their results and the warnings they raised."""
    inputs = load_inputs(cfg)
    stage = build_demand(cfg, inputs)
    classification = classify_nodes(
        inputs.settlements,
        inputs.fiber,
        buffer_km=cfg.buffer_km,
        main_settlement_threshold=cfg.main_settlement_threshold,
    )
    warnings = list(stage.warnings)
    if classification.regions_without_candidate:
        flagged = ", ".join(classification.regions_without_candidate)
        warnings.append(f"regions without a main-settlement candidate: {flagged}")
    return inputs, stage, classification, warnings


def run_pipeline(cfg: ScenarioConfig) -> PipelineResult:
    """Execute load, demand, classify, design, and pricing."""
    inputs, stage, classification, warnings = load_and_classify(cfg)
    designs, design_warnings = build_designs(cfg, inputs, stage, classification)
    warnings.extend(design_warnings)
    units = build_units(inputs, stage, classification, designs)
    rows = build_report(units, cfg.cost_book, cfg.factor_book)
    return PipelineResult(
        demand=stage,
        classification=classification,
        designs=designs,
        units=units,
        rows=rows,
        warnings=warnings,
    )


def run_monte_carlo(cfg: ScenarioConfig, result: PipelineResult) -> list[McSummaryRow]:
    """Re-price the pipeline's units under the configured parameter draws."""
    if cfg.mc is None:
        raise ConfigError("mc needs a monte_carlo section in the scenario config")
    return monte_carlo(result.units, cfg.cost_book, cfg.factor_book, cfg.mc)


def emit_outputs(
    cfg: ScenarioConfig,
    result: PipelineResult,
    *,
    designs_only: bool = False,
    mc_rows: Sequence[McSummaryRow] | None = None,
) -> list[str]:
    """Write design GeoJSONs and, unless designs_only, the CSV reports."""
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as exc:  # a regular file at the path or on the way to it
        raise IoError(f"cannot create output directory {cfg.output_dir}: {exc}") from exc
    params_hash = config_hash(parameters_payload(cfg))
    written: list[str] = []

    for (selection, level), results in sorted(result.designs.items()):
        if not results:
            continue
        path = os.path.join(cfg.output_dir, f"design_{level}_{selection}.geojson")
        emit_design_geojson(results, path, parameters_hash=params_hash)
        written.append(path)

    if not designs_only:
        demand_path = os.path.join(cfg.output_dir, "demand.csv")
        demand_mod.write_demand_csv(result.demand.records, demand_path)
        written.append(demand_path)
        report_path = os.path.join(cfg.output_dir, "report.csv")
        emit_csv(result.rows, report_path, parameters_hash=params_hash)
        written.append(report_path)

    if mc_rows is not None:
        mc_path = os.path.join(cfg.output_dir, "mc_summary.csv")
        emit_mc_csv(mc_rows, mc_path, parameters_hash=params_hash)
        written.append(mc_path)
    return written
