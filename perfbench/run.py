"""Benchmark command: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It generates the workload's inputs from
the seed (perfbench/scale.py), checks the golden scenario byte for byte
against tests/data/golden/expected/, then runs repeats of the workload, one
fresh child process at a time (perfbench/child.py), until the measuring time
is spent. Each repeat's outputs are checked against the workload
invariants, and all repeats must write the same bytes.

It prints a readable summary, then as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json (medians over the repeats);
run_rel is the run's wall time divided by that of a fixed reference kernel
timed in the same child, which the summary prints too.
With --trace 1 traced and untraced repeats alternate, and the metrics are
the per-layer metrics (medians over the traced repeats); the spans of the
last traced repeat are kept in .perfbench-work/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-work")
GOLDEN = os.path.join(ROOT, "tests", "data", "golden")
CHILD_TIMEOUT_S = 120
DIGEST_LINE = "outputs sha256 "  # the summary line that record.py reads the digest from

sys.path.insert(0, HERE)
import scale  # noqa: E402
import spans  # noqa: E402


def _parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(scale.WORKLOADS))
    parser.add_argument("--seed", type=int, default=scale.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def _child(argv: list[str]) -> dict:
    """Run one repeat; a crash, a timeout or unreadable output is an error."""
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), *argv],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"errors": [f"repeat timed out after {CHILD_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"errors": [f"repeat exited {proc.returncode}: {tail[0]}"]}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"errors": [f"unreadable repeat output: {lines[-1][:200]}"]}


def _measure(
    w: scale.Workload, scenario: str, work: str, seconds: float, trace_file: str | None
) -> list[dict]:
    """Repeats until the next one would end after `seconds`. With a trace
    file, untraced and traced repeats alternate; each traced one overwrites
    the file, so it ends with the spans of the last."""
    minimum = 4 if trace_file else 3
    records: list[dict] = []
    start = time.perf_counter()
    while True:
        i = len(records)
        argv = ["--scenario", scenario, "--out", os.path.join(work, f"out-{i}"),
                "--units", str(w.sizes()["units"])]
        is_traced = trace_file is not None and i % 2 == 1
        if is_traced:
            argv += ["--trace", trace_file]
        record = _child(argv)
        record["traced"] = is_traced
        records.append(record)
        shutil.rmtree(os.path.join(work, f"out-{i}"), ignore_errors=True)
        elapsed = time.perf_counter() - start
        if len(records) >= minimum and elapsed * (len(records) + 1) / len(records) > seconds:
            return records


def _mark_failures(records: list[dict]) -> str | None:
    """Flag repeats whose outputs differ from the most common digest."""
    digests = [r["digest"] for r in records if not r["errors"]]
    if not digests:
        return None
    common = max(sorted(set(digests)), key=digests.count)
    for r in records:
        if not r["errors"] and r["digest"] != common:
            r["errors"].append(f"outputs differ between repeats ({r['digest'][:12]})")
    return common


def _spread(values: list[float]) -> str:
    return (f"median {statistics.median(values):.6g}, min {min(values):.6g}, "
            f"max {max(values):.6g}, n={len(values)}")


def main() -> int:
    args = _parse_args()
    # On SIGTERM, unwind so subprocess.run kills and reaps the running repeat.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "fiberplan", "__init__.py")) or not os.path.isdir(
        os.path.join(GOLDEN, "expected")
    ):
        print(f"no fiberplan source or golden fixtures under {ROOT}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    w = scale.WORKLOADS[args.workload]
    work = os.path.join(WORK, f"{w.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    trace_file = os.path.join(WORK, f"{w.name}-{args.seed}.trace.jsonl") if args.trace else None
    try:
        scenario = scale.generate(w, args.seed, os.path.join(work, "inputs"))
        golden = _child(["--scenario", os.path.join(GOLDEN, "scenario.json"),
                         "--out", os.path.join(work, "golden"),
                         "--expected", os.path.join(GOLDEN, "expected")])
        seconds = args.seconds or bench["run_seconds"]
        records = _measure(w, scenario, work, seconds, trace_file)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digest = _mark_failures(records)
    ok = [r for r in records if not r["errors"]]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    failed = len(records) - len(ok)
    print(f"workload {scale.describe(w)}; seed {args.seed}")
    print(f"why: {w.why}")
    print("golden pre-check: " + ("ok, byte-identical" if not golden["errors"]
                                  else "FAILED: " + "; ".join(golden["errors"])))
    print(f"repeats: {len(records)} attempted, {failed} failed, "
          f"failed_frac {failed / len(records):.6g}")
    for r in records:
        for error in r["errors"]:
            print(f"  failure: {error}")
    if not plain or (args.trace and not traced):
        print("no repeat succeeded; no metrics", file=sys.stderr)
        return 1
    print(f"{DIGEST_LINE}{digest}")

    if args.trace:
        names = [m["name"] for m in bench["per_layer"]]
        metrics = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in names if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = (
            statistics.median(r["run_s"] for r in traced)
            - statistics.median(r["run_s"] for r in plain)
        )
        print(f"{len(traced)} traced and {len(plain)} untraced repeats; "
              f"spans in {os.path.relpath(trace_file, ROOT)}")
        for name in names:
            print(f"  {name:40} {metrics[name]:>14.6g}  {spans.EXPECTED_MOVES[name]}")
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        pcst = "pcst" in w.algorithms
        objective = "pcst_objective_km" if pcst else "mst_objective_km"
        metrics = {
            "run_rel": statistics.median(r["run_s"] / r["reference_s"] for r in plain),
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "objective_km": plain[0][objective],
        }
        for name in ("run_s", "reference_s", "setup_s", "peak_rss_mb"):
            print(f"  {name:12} {_spread([r[name] for r in plain])}")
        print(f"  run_rel      {_spread([r['run_s'] / r['reference_s'] for r in plain])}")
        if pcst:
            print(f"  pcst_objective {metrics['objective_km']:.10g} km "
                  f"(sum of NetworkDesign.objective over PCST designs)")
        else:
            print(f"  mst_objective {metrics['objective_km']:.10g} km (no PCST on this workload)")
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if set(metrics) != set(units):
        print(f"metric names {sorted(metrics)} do not match BENCHMARK.json", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": not golden["errors"] and failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
