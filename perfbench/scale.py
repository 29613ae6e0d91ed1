"""Deterministic scale-ladder scenarios for the benchmark.

Every workload is laid out on a jittered lat/lon grid: regions are blocks
of the grid, subregions are cells of a block, and settlements sit on
distinct grid vertices of their cell, a few of them moved off the grid
("off-road"). Workloads with roads also write the grid itself as a road
network, one LineString per grid row and per grid column. A meandering
core-fiber polyline crosses the whole area.

The seed changes positions, populations, areas and the Monte Carlo seed,
never the sizes, so every seed of a workload does the same amount of work.

    python3 perfbench/scale.py --out DIR [--seed N]

writes DIR/<workload>/scenario.json plus its inputs and prints each
workload's size.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
from dataclasses import dataclass

DEFAULT_SEED = 20241128
HELD_OUT_SEED = 917  # keep out of tuning; confirm claims on it

KM_PER_DEG = 111.195
LAT0, LON0 = 0.5, 30.0
OFF_ROAD_SHARE = 0.03
ANCHOR_POPULATION = (25_000, 60_000)  # one per region, above the threshold
MAIN_SETTLEMENT_THRESHOLD = 20_000

# Monte Carlo distributions, in the order workloads take them.
MC_DISTRIBUTIONS = {
    "c_olt": {"dist": "uniform", "lo": 20000, "hi": 36000},
    "cf_electricity_per_kwh": {"dist": "triangular", "lo": 0.08, "mode": 0.1934, "hi": 0.65},
    "o_staff": {"dist": "uniform", "lo": 100000, "hi": 200000},
    "cable_kg_per_km": {"dist": "triangular", "lo": 200, "mode": 247, "hi": 300},
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    regions: tuple[int, int]  # region blocks, rows x cols
    subregions: tuple[int, int]  # subregion cells per region, rows x cols
    cell: tuple[int, int]  # grid vertices per subregion cell, rows x cols
    settlements: int
    spacing_deg: float
    roads: bool
    fiber_segments: int
    algorithms: tuple[str, ...]
    draws: int  # 0 runs no Monte Carlo
    varied: int  # how many MC_DISTRIBUTIONS entries are drawn

    @property
    def grid(self) -> tuple[int, int]:
        return (
            self.regions[0] * self.subregions[0] * self.cell[0],
            self.regions[1] * self.subregions[1] * self.cell[1],
        )

    def sizes(self) -> dict[str, int]:
        rows, cols = self.grid
        n_regions = self.regions[0] * self.regions[1]
        return {
            "settlements": self.settlements,
            "road_vertices": rows * cols if self.roads else 0,
            "road_edges": rows * (cols - 1) + cols * (rows - 1) if self.roads else 0,
            "fiber_segments": self.fiber_segments,
            "regions": n_regions,
            "subregions": n_regions * self.subregions[0] * self.subregions[1],
            "units": n_regions * 2 * len(self.algorithms),
            "draws": self.draws,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pcst-roads",
            why="PCST over a 40x40 road grid: pcst_gw and road attachment dominate, "
            "the hot path of an event-driven PCST on one shared road graph",
            regions=(2, 4),
            subregions=(20, 2),
            cell=(1, 5),
            settlements=640,
            spacing_deg=0.02,
            roads=True,
            fiber_segments=8,
            algorithms=("mst", "pcst"),
            draws=32,
            varied=2,
        ),
        Workload(
            name="mc-sweep",
            why="1,000 Monte Carlo draws over 200 units, no roads: pricing dominates "
            "and the solver and road layers stay idle",
            regions=(10, 10),
            subregions=(4, 3),
            cell=(2, 2),
            settlements=2600,
            spacing_deg=0.01,
            roads=False,
            fiber_segments=8,
            algorithms=("mst",),
            draws=1000,
            varied=4,
        ),
        Workload(
            name="wide-mst",
            why="12k settlements and a long core fiber, MST only, no Monte Carlo: "
            "load, classify, Euclidean graphs, pipeline bookkeeping and emit",
            regions=(10, 12),
            subregions=(6, 6),
            cell=(2, 2),
            settlements=12000,
            spacing_deg=0.01,
            roads=False,
            fiber_segments=40,
            algorithms=("mst",),
            draws=0,
            varied=0,
        ),
    )
}


def _grid_points(w: Workload, rng: random.Random) -> list[list[tuple[float, float]]]:
    """Jittered (lat, lon) of every grid vertex, rounded so rows and columns
    of the road network share exact coordinates."""
    rows, cols = w.grid
    sp = w.spacing_deg
    return [
        [
            (
                round(LAT0 + (r + rng.uniform(-0.1, 0.1)) * sp, 6),
                round(LON0 + (c + rng.uniform(-0.1, 0.1)) * sp, 6),
            )
            for c in range(cols)
        ]
        for r in range(rows)
    ]


def _settlements(w: Workload, rng: random.Random, grid) -> tuple[list[tuple], dict[str, float]]:
    """Settlement rows (id, lat, lon, population, region, subregion) and
    subregion areas."""
    sr, sc = w.subregions
    cr, cc = w.cell
    cells = [
        (br, bc, r, c)
        for br in range(w.regions[0])
        for bc in range(w.regions[1])
        for r in range(sr)
        for c in range(sc)
    ]
    base, extra = divmod(w.settlements, len(cells))
    if base + (extra > 0) > cr * cc:
        raise ValueError(f"{w.name}: cells of {cr * cc} vertices cannot hold {base + 1}")
    bigger = set(rng.sample(range(len(cells)), extra))
    cell_km2 = cr * cc * (w.spacing_deg * KM_PER_DEG) ** 2

    rows: list[tuple] = []
    areas: dict[str, float] = {}
    anchors: dict[str, int] = {}  # region -> row index of its anchor settlement
    for k, (br, bc, r, c) in enumerate(cells):
        region = f"R{br * w.regions[1] + bc:03d}"
        subregion = f"{region}S{r * sc + c:03d}"
        areas[subregion] = round(cell_km2 * rng.uniform(0.5, 2.0), 3)
        top = (br * sr + r) * cr
        left = (bc * sc + c) * cc
        centre = (top + cr // 2, left + cc // 2)
        others = [(top + i, left + j) for i in range(cr) for j in range(cc)]
        others.remove(centre)
        chosen = [centre] + rng.sample(others, base + (k in bigger) - 1)
        # The centre settlement is the cell's largest, so access nodes (and
        # through the middle cell, region anchors) sit at fixed grid places.
        populations = sorted(
            (min(15_000, max(20, int(math.exp(rng.gauss(6.8, 0.8))))) for _ in chosen),
            reverse=True,
        )
        for (gr, gc), population in zip(chosen, populations):
            lat, lon = grid[gr][gc]
            if rng.random() < OFF_ROAD_SHARE:
                lat = round(lat + 0.31 * w.spacing_deg, 6)
                lon = round(lon + 0.37 * w.spacing_deg, 6)
            if (gr, gc) == centre and (r, c) == (sr // 2, sc // 2):
                anchors[region] = len(rows)
            rows.append([f"s{len(rows):05d}", lat, lon, population, region, subregion])
    for index in anchors.values():
        rows[index][3] = rng.randint(*ANCHOR_POPULATION)
    return [tuple(row) for row in rows], areas


def _fiber(w: Workload, rng: random.Random) -> dict:
    """One meandering west-to-east core-fiber polyline."""
    rows, cols = w.grid
    sp = w.spacing_deg
    mid = LAT0 + rows * sp / 2.0
    amplitude = rows * sp * 0.35
    coords = []
    for i in range(w.fiber_segments + 1):
        t = i / w.fiber_segments
        lat = mid + amplitude * math.sin(2.0 * math.pi * 1.5 * t) + rng.uniform(-0.15, 0.15) * sp
        lon = LON0 - sp + t * (cols + 1) * sp
        coords.append([round(lon, 6), round(lat, 6)])
    return {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "geometry": {"type": "LineString", "coordinates": coords},
                "properties": {"name": "core"},
            }
        ],
    }


def _roads(grid) -> dict:
    lines = [list(row) for row in grid]
    lines += [[row[c] for row in grid] for c in range(len(grid[0]))]
    return {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "geometry": {
                    "type": "LineString",
                    "coordinates": [[lon, lat] for lat, lon in line],
                },
                "properties": {},
            }
            for line in lines
        ],
    }


def _scenario(w: Workload, seed: int) -> dict:
    inputs = {"settlements": "settlements.csv", "areas": "areas.csv", "fiber": "fiber.geojson"}
    if w.roads:
        inputs["roads"] = "roads.geojson"
    doc = {
        "inputs": inputs,
        "adoption_rate": 0.005,
        "min_density_per_km2": 0.0,
        "buffer_km": 1.0,
        "main_settlement_threshold": MAIN_SETTLEMENT_THRESHOLD,
        "algorithms": list(w.algorithms),
        "snap_radius_km": 5.0,
        "prize_scale": 1.0,
        "output_dir": "out",
    }
    if w.draws:
        keys = list(MC_DISTRIBUTIONS)[: w.varied]
        doc["monte_carlo"] = {
            "draws": w.draws,
            "seed": seed,
            "distributions": {k: MC_DISTRIBUTIONS[k] for k in keys},
        }
    return doc


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def generate(w: Workload, seed: int, out_dir: str) -> str:
    """Write the workload's inputs for `seed` into out_dir; returns the
    scenario path. The same (workload, seed) always writes the same bytes."""
    rng = random.Random(f"{w.name}:{seed}")
    os.makedirs(out_dir, exist_ok=True)
    grid = _grid_points(w, rng)
    settlements, areas = _settlements(w, rng, grid)
    with open(os.path.join(out_dir, "settlements.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("id", "lat", "lon", "population", "region_id", "subregion_id"))
        writer.writerows(settlements)
    with open(os.path.join(out_dir, "areas.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("subregion_id", "area_km2"))
        writer.writerows(sorted(areas.items()))
    _write_json(os.path.join(out_dir, "fiber.geojson"), _fiber(w, rng))
    if w.roads:
        _write_json(os.path.join(out_dir, "roads.geojson"), _roads(grid))
    scenario = os.path.join(out_dir, "scenario.json")
    _write_json(scenario, _scenario(w, seed))
    return scenario


def describe(w: Workload) -> str:
    s = w.sizes()
    return (
        f"{w.name}: {s['settlements']} settlements, {s['road_vertices']} road vertices, "
        f"{s['road_edges']} road edges, {s['fiber_segments']} fiber segments, "
        f"{s['regions']} regions, {s['subregions']} subregions, {s['units']} units, "
        f"{s['draws']} draws"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="directory to write scenarios into")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()
    for w in WORKLOADS.values():
        generate(w, args.seed, os.path.join(args.out, w.name))
        print(describe(w))


if __name__ == "__main__":
    main()
