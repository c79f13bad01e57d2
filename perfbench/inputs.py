"""Seeded input generators. The same seed gives byte-identical inputs.

Nothing here uses grade contexts: grade-derived noise intervals fall outside
the crisp box the coded surfaces were fitted on, so they are not inputs a
correct run is expected to accept.
"""

from __future__ import annotations

import json
import os
import random

from solarswarm import climate
from solarswarm.irrigation import ProblemSpec, WeightVector
from solarswarm.pareto import (
    Frontier,
    compute_metrics,
    metrics_json_text,
    solution_from_position,
    write_frontier_csv,
)

# Shortened optimizer: 1 x 2 x 30 chemotaxis rounds instead of 5 x 5 x 30.
# Every other BfaConfig setting keeps its default.
SHORT_BFA = {"elimination_cycles": 1, "reproduction_cycles": 2}
SWEEP_REPLICATES = 1
# Rows of the generated analyze bundles: fixed sizes so that every seed asks
# for the same amount of work.
BUNDLE_ROWS = (36, 72, 144, 288)
CLIMATE_VARIANTS = 2


def run_config(workload: str) -> dict:
    """The --config document a workload passes to the CLI."""
    config = {"bfa": dict(SHORT_BFA)}
    if workload.startswith("sweep"):
        config["runs_per_weight"] = SWEEP_REPLICATES
    return config


def write_json(path: str, document: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def lattice_weights(rng: random.Random, units: int = 100) -> WeightVector:
    """A weight triple on the 1/units simplex lattice, every component > 0.

    Components are rounded like pareto.weight_grid's, so they pass
    WeightVector's 1e-12 sum check.
    """
    i = rng.randint(1, units - 2)
    j = rng.randint(1, units - 1 - i)
    k = units - i - j
    return WeightVector(round(i / units, 12), round(j / units, 12),
                        round(k / units, 12))


def optimize_calls(seed: int, count: int) -> list[tuple[WeightVector, int]]:
    """(weights, run seed) for each call of one optimize round."""
    rng = random.Random(f"optimize|{seed}")
    return [(lattice_weights(rng), rng.getrandbits(63)) for _ in range(count)]


def perturbed_climate(seed: int, variant: int
                      ) -> tuple[str, dict[str, tuple[float, float]]]:
    """A perturbation of the packaged table as CSV text, with its annual
    (min, max) per factor computed here, not by the package.

    Every value moves by a few percent and is rounded to 2 decimals so the
    CSV round trip is exact; rows keep min < avg < max.
    """
    rng = random.Random(f"climate|{seed}|{variant}")
    base = climate.builtin_table()
    lines = [",".join(climate.CSV_HEADER)]
    lows = {f: [] for f in climate.FACTORS}
    highs = {f: [] for f in climate.FACTORS}
    for r in base.records:
        row = [str(r.month)]
        for factor, (hi, lo, avg) in (
                (climate.FACTOR_TEMPERATURE, (r.temp_max, r.temp_min, r.temp_avg)),
                (climate.FACTOR_INSOLATION, (r.insol_max, r.insol_min, r.insol_avg))):
            lo = round(lo * rng.uniform(0.97, 1.0), 2)
            hi = round(hi * rng.uniform(1.0, 1.03), 2)
            avg = round(min(max(avg * rng.uniform(0.98, 1.02), lo + 0.01),
                            hi - 0.01), 2)
            if not lo < avg < hi:
                raise ValueError(f"month {r.month}: {lo} < {avg} < {hi} broken")
            row += [repr(hi), repr(lo), repr(avg)]
            lows[factor].append(lo)
            highs[factor].append(hi)
        lines.append(",".join(row))
    extrema = {f: (min(lows[f]), max(highs[f])) for f in climate.FACTORS}
    return "\n".join(lines) + "\n", extrema


def write_bundle(directory: str, seed: int, rows: int) -> dict:
    """A frontier bundle of seeded points, written with the package writers.

    Returns the benchmark's own record of it: row count and the F column.
    """
    rng = random.Random(f"bundle|{seed}|{rows}")
    problem = ProblemSpec()
    box = problem.design_bounds + problem.noise_bounds
    points = []
    for _ in range(rows):
        position = [rng.uniform(lo, hi) for lo, hi in box]
        points.append(solution_from_position(
            problem, lattice_weights(rng), position, rng.getrandbits(63)))
    frontier = Frontier(points)
    os.makedirs(directory, exist_ok=True)
    write_frontier_csv(frontier, os.path.join(directory, "frontier.csv"))
    with open(os.path.join(directory, "metrics.json"), "w",
              encoding="utf-8") as fh:
        fh.write(metrics_json_text(compute_metrics(frontier)))
    return {"rows": rows, "F": [p.aggregate_value for p in points]}
