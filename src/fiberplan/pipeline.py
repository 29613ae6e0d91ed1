"""End-to-end orchestration: load, demand, classify, design, price, emit.

The pipeline turns a validated scenario into decile report rows and design
geometry. Regions are the unit of attribution: each region contributes one
reporting unit per network level per algorithm. The regional backbone is
solved once per algorithm and its length and operating cost are split
equally across the regions it actually connects; access networks are solved
per region and attributed whole.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from . import demand as demand_mod
from .config import ScenarioConfig, parameters_payload
from .demand import AdoptionScenario, DemandTable
from .errors import ConfigError, DataError
from .geodata import (
    FiberLineSet,
    RoadGraph,
    SettlementSet,
    load_fiber_lines,
    load_road_graph,
    load_settlements,
)
from .netdesign.classify import ClassificationResult, classify_nodes
from .netdesign.design import ALGORITHMS, LEVELS, DesignResult, design_network
from .report import (
    DecileReportRow,
    IoError,
    McSummaryRow,
    ReportUnit,
    build_report,
    config_hash,
    emit_csv,
    emit_design_geojson,
    emit_mc_csv,
    monte_carlo,
)


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
    records: DemandTable
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
    pops: dict[str, int] = dict.fromkeys(inputs.areas, 0)
    region_of: dict[str, str] = {}  # settled subregions only
    settlements = inputs.settlements
    for subregion, region, population in zip(
        settlements.subregion_id, settlements.region_id, settlements.population
    ):
        pops[subregion] += population
        region_of[subregion] = region
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
    users = dict(zip(records.subregion_id, records.users().tolist()))
    by_region: dict[str, list[float]] = {}
    for subregion, region in region_of.items():
        by_region.setdefault(region, []).append(users[subregion])
    return DemandStage(
        records=records,
        users_by_subregion=users,
        users_by_region={
            region: _users_sum(by_region[region], f"region {region!r}")
            for region in sorted(by_region)
        },
        total_users=_users_sum(users.values(), "the whole scenario"),
        warnings=tuple(warnings),
    )


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


def build_designs(
    cfg: ScenarioConfig,
    inputs: LoadedInputs,
    stage: DemandStage,
    classification: ClassificationResult,
) -> dict[tuple[str, str], list[DesignResult]]:
    """Solve every selected algorithm at both network levels.

    The designs are one list of jobs, each (level, root id, (node ids, their
    lat, their lon), users per prized node, root billable):
    the backbone over the regional nodes first, from the classification's
    root (billed only when nothing is core-adjacent), when there are any,
    then one access network per region in region order. A job's coordinates
    are one fancy index into the settlement columns, taken once however
    many algorithms are selected, and every selected algorithm solves every
    job. The designs of each selection are listed by level in `LEVELS`
    order.
    """
    settlements = inputs.settlements
    row, region_of = settlements.row, settlements.region_id
    region_users = stage.users_by_region
    jobs: list[tuple[str, str, tuple, dict[str, float], bool]] = []

    def columns(root_id: str, members: Iterable[str]) -> tuple:
        """The ids of the root and members, each once, with their lat and lon."""
        ids = list(set(members) | {root_id})
        rows = [row[sid] for sid in ids]
        return ids, settlements.lat[rows], settlements.lon[rows]

    root_id = classification.backbone_root
    if root_id is not None:
        rnod_ids = sorted(classification.regional_nodes.values())
        jobs.append((
            "regional",
            root_id,
            columns(root_id, rnod_ids),
            {sid: region_users[region_of[row[sid]]] for sid in rnod_ids},
            not classification.core_adjacent,
        ))

    access_ids_by_region: dict[str, list[str]] = {region: [] for region in region_users}
    for sid in sorted(classification.access_nodes.values()):
        access_ids_by_region[region_of[row[sid]]].append(sid)
    for region in region_users:
        anchor_id = classification.region_anchor[region]
        access_ids = access_ids_by_region[region]
        jobs.append((
            "access",
            anchor_id,
            columns(anchor_id, access_ids),
            {
                sid: stage.users_by_subregion[settlements.subregion_id[row[sid]]]
                for sid in access_ids
            },
            True,
        ))

    designs: dict[tuple[str, str], list[DesignResult]] = {}
    for selection in cfg.algorithms:
        for level in LEVELS:
            designs[(selection, level)] = []
        for level, root_id, nodes, node_users, root_billable in jobs:
            designs[(selection, level)].append(design_network(
                level,
                selection,
                *nodes,
                root_id,
                roads=inputs.roads,
                node_users=node_users,
                snap_radius_km=cfg.snap_radius_km,
                prize_scale=cfg.prize_scale,
                count_root_as_terminal=root_billable,
            ))
    return designs


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
    # load_inputs checks that every settled subregion has a demand record.
    decile = dict(zip(stage.records.subregion_id, stage.records.decile.tolist()))
    region_decile = {
        region: decile[settlements.subregion_id[settlements.row[anchor_id]]]
        for region, anchor_id in classification.region_anchor.items()
    }
    region_users = stage.users_by_region
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
    Returns their results and the warnings they raised, the backbone's
    (its absence, or its fallback root) last."""
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
    if classification.backbone_root is None:
        warnings.append("no regional nodes: the backbone level is empty")
    elif not classification.core_adjacent:
        warnings.append(
            "no settlement within the core buffer; backbone rooted at regional node "
            f"{classification.backbone_root!r}"
        )
    return inputs, stage, classification, warnings


def run_pipeline(cfg: ScenarioConfig) -> PipelineResult:
    """Execute load, demand, classify, design, and pricing."""
    inputs, stage, classification, warnings = load_and_classify(cfg)
    designs = build_designs(cfg, inputs, stage, classification)
    for results in designs.values():
        for design in results:
            warnings.extend(design.warnings)
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
