"""Run the benchmark over many seeds and record a baseline.

    python3 perfbench/record.py [--out perfbench/baseline.json]

For each workload, runs `perfbench/run.py` once per seed 1..10 with tracing
off and once with tracing on (default seed), each for BENCHMARK.json's
run_seconds. For every end-to-end metric it records the median of the
per-run values, their quartiles and the spread (third minus first quartile,
as a share of the median) next to the metric's bound, plus each run's output
digest. Prints one line per run and per metric; writes the whole record,
with the machine details, as JSON to --out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402
import scale  # noqa: E402
import spans  # noqa: E402

SEEDS = list(range(1, 11))


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    digest = next(line[len(run.DIGEST_LINE):] for line in lines
                  if line.startswith(run.DIGEST_LINE))
    return json.loads(lines[-1]), digest


def _commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpu": _cpu_model(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]

    record = {
        "commit": _commit(),
        "machine": _machine(),
        "run_seconds": seconds,
        "seeds": SEEDS,
        "workloads": {},
        "layer_expectations": spans.EXPECTED_MOVES,
    }
    for name in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            result, digest = _run(name, seed, seconds, 0)
            runs.append({"seed": seed, "digest": digest, **result})
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {values}",
                  flush=True)
        summary = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary[metric["name"]] = {
                "unit": metric["unit"], "median": statistics.median(values),
                "q1": q1, "q3": q3, "spread": (q3 - q1) / statistics.median(values),
                "bound": metric["bound"], "runs": len(values),
            }
            s = summary[metric["name"]]
            print(f"{name} {metric['name']}: median {s['median']:.6g} {metric['unit']}, "
                  f"spread {s['spread']:.4f} (bound {metric['bound']})", flush=True)
        entry = {
            "why": scale.WORKLOADS[name].why,
            "sizes": scale.WORKLOADS[name].sizes(),
            "repeats_per_run": [r["attempted"] for r in runs],
            "all_correct": all(r["correct"] for r in runs),
            "failed_frac": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "end_to_end": summary,
            "digests": {str(r["seed"]): r["digest"] for r in runs},
        }
        traced, _ = _run(name, scale.DEFAULT_SEED, seconds, 1)
        entry["per_layer"] = {
            "seed": scale.DEFAULT_SEED,
            "repeats": traced["attempted"],
            "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(f"{name} traced: correct={traced['correct']} attempted={traced['attempted']}",
              flush=True)
        record["workloads"][name] = entry
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(args.out, ROOT)}")


if __name__ == "__main__":
    main()
