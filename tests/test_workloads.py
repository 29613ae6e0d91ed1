"""The benchmark workloads' outputs, byte for byte, in-process.

Each (workload, seed) of `perfbench/baseline.json` is generated with
`perfbench/scale.py` and run as `perfbench/child.py` runs it; the outputs
are hashed by `child.py`'s own `_digest` and must equal the recorded
digest. The mid rung, a larger PCST instance built from the pcst-roads
workload, checks the moat growing itself: a sha256 over every solve's
merges and dual terms.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import json
import pathlib
import struct
import sys

import pytest

from fiberplan import config, pipeline
from fiberplan.netdesign import solvers

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up there
    spec.loader.exec_module(module)  # defines functions; main() is not called
    return module


scale = _perfbench_module("scale")
child = _perfbench_module("child")
BASELINE = json.loads((ROOT / "perfbench" / "baseline.json").read_text(encoding="utf-8"))
CASES = [
    (name, int(seed), digest)
    for name, recorded in sorted(BASELINE["workloads"].items())
    for seed, digest in sorted(recorded["digests"].items(), key=lambda item: int(item[0]))
]


@pytest.mark.parametrize(
    "name, seed, digest", CASES, ids=[f"{name}-{seed}" for name, seed, _ in CASES]
)
def test_workload_outputs_equal_the_recorded_digest(tmp_path, name, seed, digest):
    scenario = scale.generate(scale.WORKLOADS[name], seed, str(tmp_path / "inputs"))
    out = tmp_path / "out"
    cfg = config.load_scenario(scenario, out_dir=str(out))
    result = pipeline.run_pipeline(cfg)
    mc_rows = pipeline.run_monte_carlo(cfg, result) if cfg.mc is not None else None
    pipeline.emit_outputs(cfg, result, mc_rows=mc_rows)
    assert child._digest(str(out)) == digest


# The mid rung: 1,600 settlements on an 80x80 road grid, PCST only, seed 1.
# The workload keeps its name, which keys the generator's random stream.
MID_RUNG = dataclasses.replace(
    scale.WORKLOADS["pcst-roads"],
    algorithms=("pcst",),
    draws=0,
    regions=(2, 4),
    subregions=(20, 4),
    cell=(2, 5),
    settlements=1600,
)
MID_RUNG_DIGEST = "521e8cae6fff539c095ed482a46fbf8239f2c4e70735d9389eb370733bf8e2af"


def test_mid_rung_moat_growing_equals_the_recorded_digest(tmp_path, monkeypatch):
    """sha256 over every solve, in run order, of each merge's
    struct.pack("<qqd", u, v, w), then b"|", each dual term's "<d", then
    b"#"."""
    h = hashlib.sha256()
    solves = []
    grow_moats = solvers._grow_moats

    def recorded(*args, **kwargs):
        forest, dual_terms = grow_moats(*args, **kwargs)
        h.update(b"".join(struct.pack("<qqd", u, v, w) for u, v, w in forest) + b"|")
        h.update(b"".join(struct.pack("<d", d) for d in dual_terms) + b"#")
        solves.append(len(forest))
        return forest, dual_terms

    monkeypatch.setattr(solvers, "_grow_moats", recorded)
    scenario = scale.generate(MID_RUNG, 1, str(tmp_path / "inputs"))
    pipeline.run_pipeline(config.load_scenario(scenario, out_dir=str(tmp_path / "out")))
    assert len(solves) == 9  # the backbone and one access design per region
    assert h.hexdigest() == MID_RUNG_DIGEST
