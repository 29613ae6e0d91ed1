"""Command-line interface.

    fiberplan validate --config scenario.json
    fiberplan design   --config scenario.json [--algorithm mst|pcst|both]
    fiberplan report   --config scenario.json [--out DIR]
    fiberplan mc       --config scenario.json [--seed N] [--draws N]

Exit codes: 0 success, 2 configuration, 3 input data, 4 solver,
5 output, 1 unexpected.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import Sequence

from . import __version__
from .config import ScenarioConfig, load_scenario
from .errors import ConfigError, FiberPlanError
from .netdesign.design import ALGORITHMS
from .pipeline import (
    PipelineResult,
    emit_outputs,
    load_and_classify,
    run_monte_carlo,
    run_pipeline,
)

log = logging.getLogger(__name__)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiberplan",
        description="Plan fiber-to-the-neighborhood networks and report "
        "per-decile cost, emissions, and social carbon cost.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("validate", "check the scenario and its input files, write nothing"),
        ("design", "solve the networks and write design GeoJSONs"),
        ("report", "full pipeline: demand, designs, and the decile report"),
        ("mc", "report plus Monte Carlo parameter sensitivity"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="scenario JSON path")
        cmd.add_argument(
            "--algorithm",
            choices=(*ALGORITHMS, "both"),
            help="override the scenario's algorithm selection",
        )
        cmd.add_argument("--out", help="override the scenario's output directory "
                         "(relative to the working directory)")
        cmd.add_argument("--seed", type=int, help="override the Monte Carlo seed")
        cmd.add_argument("--draws", type=int, help="override the Monte Carlo draw count")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    try:
        cfg = load_scenario(
            args.config,
            algorithm=args.algorithm,
            out_dir=os.path.abspath(args.out) if args.out else args.out,  # "" stays an error
            seed=args.seed,
            draws=args.draws,
        )
        if args.command == "validate":
            return _validate(cfg)
        return _run(cfg, args.command)
    except FiberPlanError as exc:
        return _report_error(exc, exc.exit_code)
    except Exception as exc:  # a defect, not a documented failure
        log.debug("unexpected error", exc_info=True)
        return _report_error(exc, 1)


def _report_error(exc: Exception, exit_code: int) -> int:
    """Print the one-line JSON error to stderr; return the exit code."""
    print(
        json.dumps({"error": type(exc).__name__, "exit_code": exit_code, "message": str(exc)}),
        file=sys.stderr,
    )
    return exit_code


def _validate(cfg: ScenarioConfig) -> int:
    inputs, stage, classification, warnings = load_and_classify(cfg)
    print(f"scenario ok: {len(inputs.settlements)} settlements, "
          f"{len(stage.users_by_region)} regions, {len(stage.records)} subregions")
    print(f"roles: {len(classification.core_adjacent)} core-adjacent, "
          f"{len(classification.regional_nodes)} regional, "
          f"{len(classification.access_nodes)} access")
    print(f"potential users: {stage.total_users:.6g} "
          f"(adoption {cfg.adoption_rate:.4g} above {cfg.min_density_per_km2:.6g}/km2)")
    print(f"algorithms: {', '.join(cfg.algorithms)}")
    for warning in warnings:
        print(f"warning: {warning}")
    return 0


def _run(cfg: ScenarioConfig, command: str) -> int:
    """design writes the design GeoJSONs, report adds the CSVs and prints
    the decile rows, and mc adds the Monte Carlo summary."""
    if command == "mc" and cfg.mc is None:  # before any stage runs
        raise ConfigError("mc needs a monte_carlo section in the scenario config")
    result = run_pipeline(cfg)
    mc_rows = run_monte_carlo(cfg, result) if command == "mc" else None
    written = emit_outputs(cfg, result, designs_only=command == "design", mc_rows=mc_rows)
    _print_designs(result)
    if command != "design":
        _print_rows(result)
    if mc_rows is not None:
        print(f"monte carlo: {cfg.mc.draws} draws, seed {cfg.mc.seed}, "
              f"{len(cfg.mc.distributions)} varied parameters")
    for warning in result.warnings:
        print(f"warning: {warning}")
    for path in written:
        print(f"wrote {path}")
    return 0


def _print_designs(result: PipelineResult) -> None:
    for (selection, level), designs in sorted(result.designs.items()):
        for design_result in designs:
            design = design_result.design
            dropped = len(design.excluded_terminals)
            print(
                f"{selection} {level} @{design_result.root_id}: "
                f"{design.terminal_node_count} nodes, "
                f"{design.total_length_km:.6g} km"
                + (f", {dropped} excluded" if dropped else "")
            )


def _print_rows(result: PipelineResult) -> None:
    print(f"{'decile':>6} {'level':>8} {'algorithm':>9} {'users':>10} "
          f"{'km':>10} {'tco/user/mo':>12} {'kg/user':>10} {'scc/user':>10}")
    for row in result.rows:
        monthly = "-" if row.monthly_tco_per_user_usd is None else f"{row.monthly_tco_per_user_usd:.2f}"
        kg = "-" if row.per_user_kg_co2e is None else f"{row.per_user_kg_co2e:.2f}"
        scc_user = "-" if row.scc_per_user_usd is None else f"{row.scc_per_user_usd:.2f}"
        print(
            f"{row.decile:>6} {row.level:>8} {row.algorithm:>9} {row.users:>10.6g} "
            f"{row.total_length_km:>10.6g} {monthly:>12} {kg:>10} {scc_user:>10}"
        )
    print(f"total users: {result.demand.total_users:.6g}")


if __name__ == "__main__":
    sys.exit(main())
