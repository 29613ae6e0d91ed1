"""The benchmark workloads' outputs, byte for byte, in-process.

Each (workload, seed) of `perfbench/baseline.json` is generated with
`perfbench/scale.py` and run as `perfbench/child.py` runs it; the outputs
are hashed by `child.py`'s own `_digest` and must equal the recorded
digest. The mid rung, a larger PCST instance built from the pcst-roads
workload, checks the moat growing itself: a sha256 over every solve's
merges and dual terms.

The same bytes must come out when every float that a numpy short-list
keys on is perturbed inside the margin that the short-list confirms
within: the haversine and tangent-plane kernels' outputs, and the moat
heap's key intervals. A control outside each margin shows that the
perturbation reaches the decisions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import json
import os
import pathlib
import random
import struct
import sys

import numpy as np
import pytest

from fiberplan import config, geodata, pipeline
from fiberplan.cli import main as cli_main
from fiberplan.netdesign import design, graphs, solvers

from .oracles import long_moat_grid_instance, random_grid_instance

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"


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
    assert _run_digest(scenario, tmp_path / "out") == digest


def _run_digest(scenario: str, out: pathlib.Path) -> str:
    """Run a scenario as `child.py` does and hash its outputs with `_digest`."""
    cfg = config.load_scenario(scenario, out_dir=str(out))
    result = pipeline.run_pipeline(cfg)
    mc_rows = pipeline.run_monte_carlo(cfg, result) if cfg.mc is not None else None
    pipeline.emit_outputs(cfg, result, mc_rows=mc_rows)
    return child._digest(str(out))


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


# --- perturbed inside the margins --------------------------------------------


def _add_noise(monkeypatch, eps: float, seed: int) -> list[int]:
    """Multiply every output element of `haversine_h_array` (at both names
    it is looked up by) and of `_local_xy_arrays` by 1 + eps * U(-1, 1).
    Returns the list that records the number of dimensions of each
    `haversine_h_array` call's first argument."""
    rng = np.random.default_rng(seed)
    h_array, local_xy = geodata.haversine_h_array, geodata._local_xy_arrays
    dims: list[int] = []

    def noisy(a):
        return a * (1.0 + eps * rng.uniform(-1.0, 1.0, np.shape(a)))

    def noisy_h_array(*args):
        dims.append(np.ndim(args[0]))
        return noisy(h_array(*args))

    def noisy_local_xy(*args):
        return tuple(noisy(a) for a in local_xy(*args))

    monkeypatch.setattr(geodata, "haversine_h_array", noisy_h_array)
    monkeypatch.setattr(graphs, "haversine_h_array", noisy_h_array)
    monkeypatch.setattr(geodata, "_local_xy_arrays", noisy_local_xy)
    return dims


def _golden_mc_moved(out: pathlib.Path) -> list[str]:
    """The golden `mc` run's files that differ from the committed ones."""
    assert cli_main(["mc", "--config", str(GOLDEN / "scenario.json"), "--out", str(out)]) == 0
    names = sorted(os.listdir(out))
    assert len(names) == 7
    return [n for n in names if (out / n).read_bytes() != (GOLDEN / "expected" / n).read_bytes()]


def test_haversine_and_tangent_plane_noise_inside_the_margins_keeps_the_bytes(
    tmp_path, monkeypatch
):
    """At a relative 1e-11, far inside every short-list's margin, the
    golden `mc` run and pcst-roads and wide-mst at seed 1 write their
    unperturbed bytes under three noise seeds; at 1e-4 the golden run or
    wide-mst moves, so the noise reaches their decisions. Every road
    attachment of the pcst-roads run measures its points by a 2-D
    `haversine_h_array` call, the nearest-vertex pass, so that pass is
    perturbed too."""
    scenarios = {
        name: (
            scale.generate(scale.WORKLOADS[name], 1, str(tmp_path / name)),
            BASELINE["workloads"][name]["digests"]["1"],
        )
        for name in ("pcst-roads", "wide-mst")
    }
    attach = design.attach_terminals_to_roads
    for noise_seed in (1, 2, 3):
        with monkeypatch.context() as m:
            dims = _add_noise(m, 1e-11, noise_seed)
            passes: list[int] = []  # 2-D calls made by each road attachment

            def counted_attach(*args, **kwargs):
                before = dims.count(2)
                attachment = attach(*args, **kwargs)
                passes.append(dims.count(2) - before)
                return attachment

            m.setattr(design, "attach_terminals_to_roads", counted_attach)
            run = tmp_path / f"run{noise_seed}"
            assert _golden_mc_moved(run / "golden") == []
            del passes[:]
            for name, (scenario, digest) in scenarios.items():
                assert _run_digest(scenario, run / name) == digest, (name, noise_seed)
            assert len(passes) == 9 and min(passes) >= 1, passes  # pcst-roads' designs
    with monkeypatch.context() as m:
        _add_noise(m, 1e-4, 1)
        control = tmp_path / "control"
        moved = bool(_golden_mc_moved(control / "golden"))
        if not moved:
            scenario, digest = scenarios["wide-mst"]
            moved = _run_digest(scenario, control / "wide-mst") != digest
    assert moved


def _shift_heap_keys(monkeypatch, spread: float, seed: int) -> dict[int, tuple]:
    """Wrap the moat heap's `heappush` and `heapify` so that each new entry
    (key - d, key + d, ident, version) moves by s * d, s uniform in
    [-spread, spread]. An entry popped and pushed back is the same tuple
    and keeps its shift. Returns the shifted entries by id."""
    rng = random.Random(seed)
    shifted: dict[int, tuple] = {}  # holds each entry, so no id is reused
    push, heapify = solvers.heappush, solvers.heapify

    def shift(entry: tuple) -> tuple:
        if shifted.get(id(entry)) is entry:
            return entry
        lo, hi, ident, version = entry
        s = rng.uniform(-spread, spread) * (hi - lo) / 2.0
        moved = (lo + s, hi + s, ident, version)
        shifted[id(moved)] = moved
        return moved

    def shifted_push(heap: list, entry: tuple) -> None:
        push(heap, shift(entry))

    def shifted_heapify(heap: list) -> None:
        heap[:] = [shift(entry) for entry in heap]
        heapify(heap)

    monkeypatch.setattr(solvers, "heappush", shifted_push)
    monkeypatch.setattr(solvers, "heapify", shifted_heapify)
    return shifted


def test_moat_heap_keys_shifted_inside_their_margin_keep_every_event(tmp_path, monkeypatch):
    """Each heap entry's interval [key - d, key + d] moved by up to half its
    margin d gives every instance's unperturbed `(forest, dual_terms)`:
    long-moat and tie-heavy grids and the pcst-roads solves at seed 1.
    Moved by up to 3 d, some instance changes, so the wrap reaches the keys."""
    rng = random.Random(5)
    instances = [(pg, pg.graph.edge_arrays()) for pg in (
        [long_moat_grid_instance(rng) for _ in range(5)]
        + [random_grid_instance(rng) for _ in range(40)]
    )]
    grow_moats = solvers._grow_moats

    def captured(prized, edges, stats):
        instances.append((prized, edges))
        return grow_moats(prized, edges, stats)

    with monkeypatch.context() as m:
        m.setattr(solvers, "_grow_moats", captured)
        scenario = scale.generate(scale.WORKLOADS["pcst-roads"], 1, str(tmp_path / "inputs"))
        pipeline.run_pipeline(config.load_scenario(scenario, out_dir=str(tmp_path / "out")))
    assert len(instances) == 45 + 9
    unperturbed = [grow_moats(pg, edges, {}) for pg, edges in instances]

    def changed(spread: float) -> int:
        with monkeypatch.context() as m:
            shifted = _shift_heap_keys(m, spread, seed=1)
            results = [grow_moats(pg, edges, {}) for pg, edges in instances]
        assert shifted
        return sum(r != u for r, u in zip(results, unperturbed))

    assert changed(0.5) == 0
    assert changed(3.0) >= 1
