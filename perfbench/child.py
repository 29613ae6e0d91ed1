"""One repeat of a benchmark scenario, in a fresh process.

    python3 perfbench/child.py --scenario FILE --out DIR [--units N]
        [--expected DIR] [--trace FILE]

Times set-up (import fiberplan, load the scenario) and the run
(run_pipeline, run_monte_carlo when the scenario has draws, emit_outputs),
and a fixed reference kernel just before and after the run. Then checks the
outputs and prints one JSON line: the timings, peak RSS, design
objectives, the sha256 of the outputs and a list of broken invariants.
With --expected the outputs must equal that directory byte for byte. With
--trace the layers are wrapped and their spans written to FILE.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--out", required=True, help="output directory, made fresh")
    parser.add_argument("--units", type=int, help="expected number of report units")
    parser.add_argument("--expected", help="directory the outputs must equal byte for byte")
    parser.add_argument("--trace", help="write the traced run's spans to this file")
    return parser.parse_args()


def _reference_s() -> float:
    """Wall time of a fixed pure-Python kernel (float math, dict and list
    churn, a sort). The machine's speed drifts by tens of percent over
    minutes; dividing by this, timed in the same process at the same
    moment, takes most of that drift out of the run time."""
    start = time.perf_counter()
    table: dict[int, tuple[float, int]] = {}
    items: list[tuple[float, str]] = []
    acc = 0.0
    for i in range(200_000):
        x = math.sin(i * 1e-3) * math.cos(i * 2e-3) + math.sqrt(i + 1.0)
        acc += x
        table[i & 4095] = (x, i)
        if i % 40 == 0:
            items.append((acc, str(i)))
    items.sort()
    return time.perf_counter() - start


def _csv_errors(path: str) -> list[str]:
    """Fields that parse as a non-finite number."""
    import csv

    errors = []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            for field in row:
                try:
                    value = float(field)
                except ValueError:
                    continue
                if not math.isfinite(value):
                    errors.append(f"{os.path.basename(path)}:{lineno}: non-finite {field!r}")
    return errors


def _is_spanning_tree(graph, edges) -> bool:
    """True if `edges` are edges of `graph`, with its weights, and join all
    of its vertices into one component without a cycle. Checked by
    union-find, not from what the solver reports about its own design."""
    parent = list(range(graph.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, w in edges:
        if not (0 <= u < graph.n and 0 <= v < graph.n):
            return False
        try:
            if graph.weight(u, v) != w:
                return False
        except KeyError:
            return False
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return len(edges) == graph.n - 1


def _check(result, mc_rows, out_dir: str, units: int | None, expected: str | None) -> list[str]:
    from fiberplan.report import MC_METRICS

    errors = []
    if units is not None and len(result.units) != units:
        errors.append(f"{len(result.units)} report units, expected {units}")
    groups = {(u.decile, u.level, u.algorithm) for u in result.units}
    if len(result.rows) != len(groups):
        errors.append(f"{len(result.rows)} report rows for {len(groups)} unit groups")
    with open(os.path.join(out_dir, "report.csv"), encoding="utf-8") as fh:
        lines = fh.read().count("\n")
    if lines != len(result.rows) + 2:  # hash comment and column header
        errors.append(f"report.csv has {lines} lines for {len(result.rows)} rows")
    if mc_rows is not None and len(mc_rows) != len(result.rows) * len(MC_METRICS):
        errors.append(f"{len(mc_rows)} mc summary rows for {len(result.rows)} report rows")
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            errors.extend(_csv_errors(os.path.join(out_dir, name)))
    for (selection, level), designs in sorted(result.designs.items()):
        for d in designs:
            if d.design.algorithm != "MST":
                continue
            if not _is_spanning_tree(d.graph, d.design.edges):
                errors.append(f"MST {level} design at {d.root_id} does not span its "
                              f"{d.graph.n} nodes")
    if expected is not None:
        want = sorted(os.listdir(expected))
        if sorted(os.listdir(out_dir)) != want:
            errors.append(f"outputs {sorted(os.listdir(out_dir))} differ from expected {want}")
        for name in want:
            got = os.path.join(out_dir, name)
            if not os.path.exists(got) or _read(got) != _read(os.path.join(expected, name)):
                errors.append(f"{name} differs from {expected}")
    return errors


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _digest(out_dir: str) -> str:
    import hashlib

    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode("utf-8") + b"\0" + _read(os.path.join(out_dir, name)))
    return h.hexdigest()


def main() -> int:
    args = _parse_args()
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import fiberplan  # noqa: F401  (set-up includes the package import)
    from fiberplan import config, pipeline

    cfg = config.load_scenario(args.scenario, out_dir=args.out)
    setup_s = time.perf_counter() - t0

    import json
    import resource

    tracer = None
    if args.trace:
        import spans

        tracer = spans.install()
    reference_s = _reference_s()
    t1 = time.perf_counter()
    result = pipeline.run_pipeline(cfg)
    mc_rows = pipeline.run_monte_carlo(cfg, result) if cfg.mc is not None else None
    pipeline.emit_outputs(cfg, result, mc_rows=mc_rows)
    run_s = time.perf_counter() - t1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference_s = (reference_s + _reference_s()) / 2.0

    objective = {"MST": 0.0, "PCST_GW": 0.0}
    for designs in result.designs.values():
        for d in designs:
            objective[d.design.algorithm] += d.design.objective
    record = {
        "setup_s": setup_s,
        "run_s": run_s,
        "reference_s": reference_s,
        "peak_rss_mb": peak_rss_mb,
        "mst_objective_km": objective["MST"],
        "pcst_objective_km": objective["PCST_GW"],
        "digest": _digest(args.out),
        "errors": _check(result, mc_rows, args.out, args.units, args.expected),
    }
    if tracer is not None:
        tracer.write(args.trace)
        record["layers"] = spans.layer_metrics(tracer, run_s)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
