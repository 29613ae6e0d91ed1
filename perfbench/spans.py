"""In-memory span tracer for the traced benchmark run.

Layers are timed from outside: `install` replaces public functions at the
names their callers look up (for example `fiberplan.pipeline.design_network`)
with wrappers that record a span (name, start, end, parent) and count work
at the same boundary. Functions called thousands of times per run
(pricing, parameter draws, buffer tests) are aggregated instead: a call
count and a summed time, charged to the enclosing span as child time.

Only the traced child imports this module; the untraced run never wraps
anything.
"""

from __future__ import annotations

import importlib
import json
import os
from collections import defaultdict
from time import perf_counter

# (module attribute the caller looks up, span name). Spans are named
# <module>.<function> after the function's own module; its layer is the
# name without the function.
SPANS = (
    ("pipeline.run_pipeline", "pipeline.run_pipeline"),
    ("pipeline.run_monte_carlo", "pipeline.run_monte_carlo"),
    ("pipeline.emit_outputs", "pipeline.emit_outputs"),
    ("pipeline.load_inputs", "pipeline.load_inputs"),
    ("pipeline.build_demand", "pipeline.build_demand"),
    ("pipeline.build_designs", "pipeline.build_designs"),
    ("pipeline.build_units", "pipeline.build_units"),
    ("pipeline.load_settlements", "geodata.load_settlements"),
    ("pipeline.load_fiber_lines", "geodata.load_fiber_lines"),
    ("pipeline.load_road_graph", "geodata.load_road_graph"),
    ("demand.load_area_table", "demand.load_area_table"),
    ("demand.assign_deciles", "demand.assign_deciles"),
    ("demand.band_demand", "demand.band_demand"),
    ("demand.write_demand_csv", "demand.write_demand_csv"),
    ("pipeline.classify_nodes", "netdesign.classify.classify_nodes"),
    ("pipeline.design_network", "netdesign.design.design_network"),
    ("netdesign.design.build_euclidean_graph", "netdesign.graphs.build_euclidean_graph"),
    ("netdesign.design.attach_terminals_to_roads", "netdesign.graphs.attach_terminals_to_roads"),
    ("netdesign.design.prim_mst", "netdesign.solvers.prim_mst"),
    ("netdesign.design.pcst_gw", "netdesign.solvers.pcst_gw"),
    ("pipeline.build_report", "report.build_report"),
    ("report.build_report", "report.build_report"),
    ("pipeline.monte_carlo", "report.monte_carlo"),
    ("pipeline.emit_csv", "report.emit_csv"),
    ("pipeline.emit_mc_csv", "report.emit_mc_csv"),
    ("pipeline.emit_design_geojson", "report.emit_design_geojson"),
)

LEAVES = (
    ("netdesign.classify.within_buffer", "geodata.within_buffer"),
    ("report.tco_quantities", "costmodel.tco_quantities"),
    ("report.emissions_quantities", "lca.emissions_quantities"),
    ("report.draw_parameters", "report.draw_parameters"),
)


# Which end-to-end metric each per-layer metric should move, and where.
_PCST = "run_s on pcst-roads only"
_ATTACH = "run_s and peak_rss_mb on pcst-roads"
_WIDE = "run_s on wide-mst"
_MC = "run_s on mc-sweep"
EXPECTED_MOVES = {
    "netdesign.solvers.pcst_gw_s": _PCST,
    "netdesign.solvers.pcst_gw_calls": _PCST,
    "netdesign.solvers.pcst_graph_edges": _PCST,
    "netdesign.solvers.prim_mst_s": _WIDE,
    "netdesign.solvers.prim_mst_calls": _WIDE,
    "netdesign.graphs.attach_s": _ATTACH,
    "netdesign.graphs.attach_calls": _ATTACH,
    "netdesign.graphs.attached_vertices": _ATTACH,
    "netdesign.graphs.euclid_s": _WIDE,
    "netdesign.graphs.euclid_edges": _WIDE,
    "netdesign.design.self_s": "run_s on pcst-roads and wide-mst",
    "netdesign.classify.classify_s": _WIDE,
    "netdesign.classify.within_buffer_calls": _WIDE,
    "netdesign.classify.self_s": _WIDE,
    "geodata.load_s": _WIDE,
    "geodata.settlements": _WIDE,
    "geodata.road_vertices": "run_s on pcst-roads",
    "geodata.road_edges": "run_s on pcst-roads",
    "geodata.fiber_segments": _WIDE,
    "geodata.self_s": _WIDE,
    "demand.build_s": _WIDE,
    "demand.subregions": _WIDE,
    "demand.self_s": _WIDE,
    "pipeline.build_designs_s": _WIDE,
    "pipeline.build_units_s": _WIDE,
    "pipeline.self_s": _WIDE,
    "costmodel.tco_calls": _MC,
    "costmodel.tco_s": _MC,
    "lca.emissions_calls": _MC,
    "lca.emissions_s": _MC,
    "report.build_report_s": _MC,
    "report.build_report_calls": _MC,
    "report.monte_carlo_s": _MC,
    "report.mc_draws": _MC,
    "report.draw_parameters_s": _MC,
    "report.emit_s": _WIDE,
    "report.bytes_written": _WIDE,
    "report.self_s": _MC,
    "trace.run_s": "none: the traced run's own wall time",
    "trace.overhead_s": "none: traced minus untraced run_s",
    "trace.unattributed_s": "none: run_s that no layer's self time accounts for",
}


def _layer(name: str) -> str:
    return name.rsplit(".", 1)[0]


def _input_sizes(args, inputs) -> dict[str, int]:
    sizes = {"settlements": len(inputs.settlements)}
    if inputs.fiber is not None:
        sizes["fiber_segments"] = sum(len(line) - 1 for line in inputs.fiber.lines)
    if inputs.roads is not None:
        sizes["road_vertices"] = len(inputs.roads.vertices)
        sizes["road_edges"] = len(inputs.roads.edges)
    return sizes


# Counts taken when a span closes: span name -> f(args, result) -> increments.
COUNTERS = {
    "pipeline.load_inputs": _input_sizes,
    "pipeline.build_demand": lambda args, stage: {"subregions": len(stage.records)},
    "netdesign.solvers.pcst_gw": lambda args, _: {"pcst_graph_edges": args[0].graph.edge_count},
    "netdesign.graphs.attach_terminals_to_roads": lambda args, attachment: {
        "attached_vertices": attachment.graph.n
    },
    "netdesign.graphs.build_euclidean_graph": lambda args, graph: {
        "euclid_edges": graph.edge_count
    },
    "pipeline.emit_outputs": lambda args, paths: {
        "bytes_written": sum(os.path.getsize(p) for p in paths)
    },
}


class Tracer:
    """Spans and counts of one run, kept in memory until `write`."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1, time covered by children]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.leaf_s: dict[str, float] = defaultdict(float)

    def span(self, name: str, fn):
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            record = [name, 0.0, 0.0, parent, 0.0]
            self._open.append(len(self.spans))
            self.spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._open.pop()
                if parent >= 0:
                    self.spans[parent][4] += record[2] - record[1]
            self.counts[name] += 1
            if counter is not None:
                for key, amount in counter(args, result).items():
                    self.counts[key] += amount
            return result

        return wrapper

    def leaf(self, name: str, fn):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.leaf_s[name] += elapsed
                self.counts[name] += 1
                if self._open:
                    self.spans[self._open[-1]][4] += elapsed

        return wrapper

    def inclusive_s(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def self_s(self) -> dict[str, float]:
        """Self time per layer: span time minus child spans and leaves,
        plus the layer's aggregated leaf time."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, child in self.spans:
            out[_layer(name)] += end - start - child
        for name, seconds in self.leaf_s.items():
            out[_layer(name)] += seconds
        return out

    def write(self, path: str) -> None:
        """Spans as JSON lines (times relative to the first span), then one
        line of counts."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, child) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": parent,
                    "start": start - t0, "end": end - t0, "self": end - start - child,
                }) + "\n")
            fh.write(json.dumps({
                "counts": dict(sorted(self.counts.items())),
                "aggregated_s": dict(sorted(self.leaf_s.items())),
            }) + "\n")


def install() -> Tracer:
    """Wrap the functions named in SPANS and LEAVES inside the imported
    fiberplan package and return the recording tracer."""
    tracer = Tracer()
    for table, wrap in ((SPANS, tracer.span), (LEAVES, tracer.leaf)):
        for target, name in table:
            module_name, attr = target.rsplit(".", 1)
            module = importlib.import_module(f"fiberplan.{module_name}")
            setattr(module, attr, wrap(name, getattr(module, attr)))
    return tracer


def layer_metrics(tracer: Tracer, run_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run, named as in BENCHMARK.json
    (except trace.overhead_s, which needs an untraced run to compare)."""
    c, inc, leaf = tracer.counts, tracer.inclusive_s, tracer.leaf_s
    own = tracer.self_s()
    metrics = {
        "netdesign.solvers.pcst_gw_s": inc("netdesign.solvers.pcst_gw"),
        "netdesign.solvers.pcst_gw_calls": c["netdesign.solvers.pcst_gw"],
        "netdesign.solvers.pcst_graph_edges": c["pcst_graph_edges"],
        "netdesign.solvers.prim_mst_s": inc("netdesign.solvers.prim_mst"),
        "netdesign.solvers.prim_mst_calls": c["netdesign.solvers.prim_mst"],
        "netdesign.graphs.attach_s": inc("netdesign.graphs.attach_terminals_to_roads"),
        "netdesign.graphs.attach_calls": c["netdesign.graphs.attach_terminals_to_roads"],
        "netdesign.graphs.attached_vertices": c["attached_vertices"],
        "netdesign.graphs.euclid_s": inc("netdesign.graphs.build_euclidean_graph"),
        "netdesign.graphs.euclid_edges": c["euclid_edges"],
        "netdesign.design.self_s": own["netdesign.design"],
        "netdesign.classify.classify_s": inc("netdesign.classify.classify_nodes"),
        "netdesign.classify.within_buffer_calls": c["geodata.within_buffer"],
        "netdesign.classify.self_s": own["netdesign.classify"],
        "geodata.load_s": inc("pipeline.load_inputs"),
        "geodata.settlements": c["settlements"],
        "geodata.road_vertices": c["road_vertices"],
        "geodata.road_edges": c["road_edges"],
        "geodata.fiber_segments": c["fiber_segments"],
        "geodata.self_s": own["geodata"],
        "demand.build_s": inc("pipeline.build_demand"),
        "demand.subregions": c["subregions"],
        "demand.self_s": own["demand"],
        "pipeline.build_designs_s": inc("pipeline.build_designs"),
        "pipeline.build_units_s": inc("pipeline.build_units"),
        "pipeline.self_s": own["pipeline"],
        "costmodel.tco_calls": c["costmodel.tco_quantities"],
        "costmodel.tco_s": leaf["costmodel.tco_quantities"],
        "lca.emissions_calls": c["lca.emissions_quantities"],
        "lca.emissions_s": leaf["lca.emissions_quantities"],
        "report.build_report_s": inc("report.build_report"),
        "report.build_report_calls": c["report.build_report"],
        "report.monte_carlo_s": inc("report.monte_carlo"),
        "report.mc_draws": c["report.draw_parameters"],
        "report.draw_parameters_s": leaf["report.draw_parameters"],
        "report.emit_s": inc("pipeline.emit_outputs"),
        "report.bytes_written": c["bytes_written"],
        "report.self_s": own["report"],
        "trace.run_s": run_s,
    }
    metrics["trace.unattributed_s"] = run_s - sum(own.values())
    return metrics
