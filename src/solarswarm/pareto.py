"""Weighted-sum frontier sweeps, dominance filtering, and diversity metrics.

A frontier is built by sweeping a simplex grid of objective weights; each
weight vector gets its own family of optimizer runs whose seeds derive from
(master seed, weights, replicate) hashes, so editing the grid never
perturbs the runs of cells that stay. Diversity is scored in angle space:
each solution's normalized objective vector maps to a vector of pairwise
sigma components, and the score is the reciprocal mean distance to a fixed
set of reference directions.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .bfa import BfaConfig, RunResult, run_bfa_lockstep
# run_bfa is no longer called here, but stays bound under this module's
# name: the benchmark's span tracer wraps pareto.run_bfa
from .bfa import run_bfa  # noqa: F401
from .codec import ConfigCodec, read_text, write_text
# the shared writer, also bound under its earlier name here: the
# benchmark's input generator imports pareto.metrics_json_text
from .codec import json_text as metrics_json_text  # noqa: F401
from .errors import (
    EmptyGrid,
    SchemaMismatch,
    ValidationError,
    ZeroVector,
)
from .irrigation import (
    DesignVector,
    NoiseVector,
    ObjectiveTriple,
    ProblemSpec,
    WeightVector,
    aggregate,
    eval_objectives,
    evaluate_rows,
)

FRONTIER_CSV_HEADER = ("w1", "w2", "w3", "x_a", "x_b", "x_c", "x_d",
                       "Z_a", "Z_b", "f1", "f2", "f3", "F", "seed")

DEFAULT_REFERENCE_COUNT = 15
_DIVERSITY_GUARD = 1e-12


def _point_or_pair(value):
    if value is None:
        return None
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValidationError(
                f"grade range needs 2 values, got {len(value)}")
        return (float(value[0]), float(value[1]))
    return float(value)


@dataclass(frozen=True)
class GradeContext(ConfigCodec):
    """Membership grades a frontier was conditioned on.

    Each entry is a single grade or a (lo, hi) grade range; primary grades
    are monthly-curve context carried for reporting, secondary grades are
    the annual-curve values that actually produce noise intervals.
    """

    temperature_primary: float | tuple[float, float] | None = None
    temperature_secondary: float | tuple[float, float] | None = None
    insolation_primary: float | tuple[float, float] | None = None
    insolation_secondary: float | tuple[float, float] | None = None
    pad: float = 0.005

    def __post_init__(self) -> None:
        for name in ("temperature_primary", "temperature_secondary",
                     "insolation_primary", "insolation_secondary"):
            object.__setattr__(self, name,
                               _point_or_pair(getattr(self, name)))
        if self.pad < 0.0:
            raise ValidationError(f"pad must be >= 0, got {self.pad}")


@dataclass(frozen=True)
class SolutionPoint:
    """One frontier entry: where the search landed for one weight vector."""

    weights: WeightVector
    design: DesignVector
    noise: NoiseVector
    objectives: ObjectiveTriple
    aggregate_value: float
    seed: int

    def __post_init__(self) -> None:
        expected = aggregate(self.objectives, self.weights)
        tolerance = 1e-9 * max(1.0, abs(expected))
        if not abs(self.aggregate_value - expected) <= tolerance:
            raise ValidationError(
                f"aggregate {self.aggregate_value!r} disagrees with "
                f"weights . objectives = {expected!r}")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")

    def row(self) -> tuple:
        """The point's values in FRONTIER_CSV_HEADER order."""
        return (*self.weights.as_tuple(), *self.design.as_tuple(),
                *self.noise.as_tuple(), *self.objectives.as_tuple(),
                self.aggregate_value, self.seed)


@dataclass
class Frontier:
    """A nonempty set of solution points, one per weight vector swept."""

    points: list[SolutionPoint]
    grade_context: GradeContext | None = None

    def __post_init__(self) -> None:
        if not self.points:
            raise ValidationError("frontier must hold at least one point")

    def __len__(self) -> int:
        return len(self.points)


def weight_grid(step: float = 0.1, minimum: float = 0.1
                ) -> list[WeightVector]:
    """All weight triples on the simplex lattice of spacing `step` whose
    components all reach `minimum`, in descending lexicographic order."""
    if not 0.0 < step <= 1.0:
        raise ValidationError(f"step {step} outside (0, 1]")
    units = round(1.0 / step)
    if units < 1 or abs(units * step - 1.0) > 1e-9:
        raise ValidationError(f"step {step} must divide 1 evenly")
    if minimum < 0.0:
        raise ValidationError(f"minimum {minimum} must be >= 0")
    floor_units = math.ceil(minimum / step - 1e-9)
    grid = []
    for i in range(units, -1, -1):
        for j in range(units - i, -1, -1):
            k = units - i - j
            if min(i, j, k) >= floor_units:
                grid.append(WeightVector(round(i * step, 12),
                                         round(j * step, 12),
                                         round(k * step, 12)))
    if not grid:
        raise EmptyGrid(
            f"no weight vector has all components >= {minimum} "
            f"on a grid of step {step}")
    return grid


def derive_seed(master_seed: int, weights: WeightVector,
                replicate: int) -> int:
    """Stable per-cell seed: hash of master seed, weights, and replicate.

    Hash-based so adding or removing grid cells never changes the seeds of
    the cells that remain.
    """
    w1, w2, w3 = weights.as_tuple()
    key = f"{int(master_seed)}|{w1:.12f},{w2:.12f},{w3:.12f}|{int(replicate)}"
    digest = hashlib.sha256(key.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def solution_from_position(problem: ProblemSpec, weights: WeightVector,
                           position, seed: int) -> SolutionPoint:
    """Materialize a frontier point from a raw 6-vector search result."""
    values = [float(v) for v in position]
    if len(values) != 6:
        raise ValidationError(f"need a 6-vector, got {len(values)} values")
    design = DesignVector(*values[:4])
    noise = NoiseVector(*values[4:])
    objectives = eval_objectives(design, noise, problem)
    return SolutionPoint(weights=weights, design=design, noise=noise,
                         objectives=objectives,
                         aggregate_value=aggregate(objectives, weights),
                         seed=seed)


def _run_batch(problem: ProblemSpec, cfg: BfaConfig, weights: np.ndarray,
               seeds: list[int]) -> list[RunResult]:
    """One lockstep batch: run k maximizes weights[k] . f from seeds[k].

    The evaluate callback weights row i by the weights of run runs[i]:
    one take along the run axis of the table's contiguous (3, runs)
    columns gives contiguous (3, m) columns, which evaluate_rows
    multiplies the (3, m) objectives by, with no strided (m, 3) gather,
    before it adds the three weighted objectives left to right.
    """
    columns = np.ascontiguousarray(weights.T)
    return run_bfa_lockstep(
        lambda runs, positions: evaluate_rows(
            problem, columns.take(runs, axis=1).T, positions),
        problem.design_bounds + problem.noise_bounds, cfg, seeds)


def build_frontier(problem: ProblemSpec, cfg: BfaConfig,
                   weights: list[WeightVector], runs_per_weight: int,
                   *, grade_context: GradeContext | None = None,
                   workers: int = 1, on_cell=None) -> Frontier:
    """Sweep the weight list; keep the best-aggregate run per weight.

    cfg.seed acts as the master seed. The (weight, replicate) runs of the
    sweep step as one lockstep batch that reproduces run_bfa run by run;
    with workers > 1 each worker process steps its own contiguous share of
    the runs. Runs share no state, so the frontier is identical for any
    worker count. Per weight the first replicate with the highest best
    fitness wins. on_cell, if given, is called as on_cell(point, trace) per
    cell in grid order.
    """
    if runs_per_weight < 1:
        raise ValidationError(
            f"runs_per_weight must be >= 1, got {runs_per_weight}")
    if not weights:
        raise EmptyGrid("no weight vectors to sweep")
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    seeds = [derive_seed(cfg.seed, w, replicate)
             for w in weights for replicate in range(runs_per_weight)]
    table = np.repeat([w.as_tuple() for w in weights], runs_per_weight,
                      axis=0)
    if workers == 1:
        results = _run_batch(problem, cfg, table, seeds)
    else:
        shares = [share for share in np.array_split(
            np.arange(len(seeds)), workers) if len(share)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(_run_batch, repeat(problem), repeat(cfg),
                             [table[share] for share in shares],
                             [[seeds[k] for k in share] for share in shares])
            results = [result for part in parts for result in part]
    points = []
    for cell, w in enumerate(weights):
        best = cell * runs_per_weight
        for run in range(best + 1, best + runs_per_weight):
            if results[run].best_fitness > results[best].best_fitness:
                best = run
        point = solution_from_position(problem, w,
                                       results[best].best_position,
                                       seeds[best])
        points.append(point)
        if on_cell is not None:
            on_cell(point, results[best].trace)
    return Frontier(points=points, grade_context=grade_context)


def _objective_vector(item) -> tuple[float, ...]:
    if isinstance(item, SolutionPoint):
        return item.objectives.as_tuple()
    if isinstance(item, ObjectiveTriple):
        return item.as_tuple()
    return tuple(float(v) for v in item)


def nondominated_filter(points: list) -> list:
    """Maximization Pareto filter, stable order, duplicates all kept.

    `points` may be SolutionPoints, ObjectiveTriples, or plain tuples.
    """
    vectors = [tuple(float(v) for v in _objective_vector(p)) for p in points]
    kept = []
    for i, vi in enumerate(vectors):
        dominated = False
        for j, vj in enumerate(vectors):
            if j == i:
                continue
            if all(a >= b for a, b in zip(vj, vi)) \
                    and any(a > b for a, b in zip(vj, vi)):
                dominated = True
                break
        if not dominated:
            kept.append(points[i])
    return kept


@dataclass(frozen=True)
class SigmaVector:
    """Pairwise angular coordinates of one objective vector."""

    components: tuple[float, ...]
    magnitude: float


def _sum_squares(values) -> float:
    """Left-to-right sum of squares, the same on every Python version
    (the builtin sum of floats is compensated from Python 3.12)."""
    total = 0.0
    for v in values:
        total += v * v
    return total


def sigma_components(values) -> SigmaVector:
    """Sigma decomposition of an objective vector.

    Component (i, j), for i < j, is (f_i^2 - f_j^2) / sum(f^2): it vanishes
    when the two objectives balance and swings to +-1 on the axes. The
    magnitude sums squared components under the root.
    """
    vector = tuple(float(v) for v in values)
    if len(vector) < 2:
        raise ValidationError(
            f"need at least 2 objectives, got {len(vector)}")
    denom = _sum_squares(vector)
    if denom == 0.0:
        raise ZeroVector("sigma undefined for the all-zero vector")
    components = tuple((vector[i] ** 2 - vector[j] ** 2) / denom
                       for i in range(len(vector))
                       for j in range(i + 1, len(vector)))
    # squared, not signed: the printed form sums the signed components of
    # the full antisymmetric pair matrix, which cancels to zero identically
    magnitude = math.sqrt(_sum_squares(components))
    return SigmaVector(components=components, magnitude=magnitude)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def reference_sigma_lines(n_objectives: int, count: int
                          ) -> list[SigmaVector]:
    """Sigma vectors of evenly spread reference directions.

    Directions come from the smallest simplex lattice with at least `count`
    nodes, enumerated in descending lexicographic order; the first `count`
    are kept (exact when `count` is itself a lattice size).
    """
    if n_objectives < 2:
        raise ValidationError("need at least 2 objectives")
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    resolution = 1
    while math.comb(resolution + n_objectives - 1, n_objectives - 1) < count:
        resolution += 1
    directions = list(_compositions(resolution, n_objectives))[:count]
    return [sigma_components(d) for d in directions]


def _normalize_columns(matrix: np.ndarray) -> np.ndarray:
    lo = matrix.min(axis=0)
    hi = matrix.max(axis=0)
    out = np.empty_like(matrix)
    for col in range(matrix.shape[1]):
        if hi[col] == lo[col]:
            # a constant objective carries no spread information; park it
            # mid-range instead of poisoning the sigma angles
            out[:, col] = 0.5
        else:
            out[:, col] = (matrix[:, col] - lo[col]) / (hi[col] - lo[col])
    return out


def diversity_metric(frontier: Frontier | list,
                     references: list[SigmaVector]) -> float:
    """Reciprocal mean distance from solution sigma vectors to the nearest
    reference line. Higher means the frontier spreads more evenly across
    the reference directions; a frontier sitting exactly on its references
    saturates at 1/guard.

    Objectives are min-max normalized over the frontier first. A solution
    normalizing to the all-zero vector contributes a zero sigma vector
    (it has no direction to speak of).
    """
    points = frontier.points if isinstance(frontier, Frontier) else list(frontier)
    if not points:
        raise ValidationError("diversity needs at least one point")
    if not references:
        raise ValidationError("diversity needs at least one reference")
    n_pairs = len(references[0].components)
    if any(len(r.components) != n_pairs for r in references):
        raise ValidationError("reference component lengths disagree")
    matrix = np.array([_objective_vector(p) for p in points], dtype=float)
    normalized = _normalize_columns(matrix)
    expected_pairs = math.comb(normalized.shape[1], 2)
    if expected_pairs != n_pairs:
        raise ValidationError(
            f"references carry {n_pairs} components but {normalized.shape[1]} "
            f"objectives give {expected_pairs}")
    ref_matrix = np.array([r.components for r in references], dtype=float)
    distances = []
    for row in normalized:
        if np.all(row == 0.0):
            comps = np.zeros(n_pairs)
        else:
            comps = np.array(
                sigma_components(row.tolist()).components, dtype=float)
        gaps = ref_matrix - comps
        nearest = math.sqrt(float(np.min(np.einsum("ij,ij->i", gaps, gaps))))
        distances.append(nearest)
    mean_distance = math.fsum(distances) / len(distances)
    return 1.0 / (mean_distance + _DIVERSITY_GUARD)


def frontier_dominance(frontier: Frontier) -> float:
    """Mean aggregate value over the frontier (order-invariant sum)."""
    return math.fsum(p.aggregate_value for p in frontier.points) \
        / len(frontier.points)


def rank_solutions(frontier: Frontier
                   ) -> tuple[SolutionPoint, SolutionPoint, SolutionPoint]:
    """(best, median, worst) by aggregate value, descending.

    Ties break toward the lexicographically smallest weight vector. The
    median is entry floor((n-1)/2) of the sorted list.
    """
    ordered = sorted(frontier.points,
                     key=lambda p: (-p.aggregate_value, p.weights.as_tuple()))
    return (ordered[0], ordered[(len(ordered) - 1) // 2], ordered[-1])


def compute_metrics(frontier: Frontier,
                    reference_count: int = DEFAULT_REFERENCE_COUNT) -> dict:
    """The metrics document for a frontier, ready for JSON."""
    n_objectives = len(frontier.points[0].objectives.as_tuple())
    references = reference_sigma_lines(n_objectives, reference_count)
    return {
        "dominance_mean_F": frontier_dominance(frontier),
        "diversity": diversity_metric(frontier, references),
        "n_points": len(frontier.points),
        "grade_context": (frontier.grade_context.to_dict()
                          if frontier.grade_context is not None else None),
    }


def frontier_to_csv_text(frontier: Frontier) -> str:
    """Render a frontier as CSV. Floats use shortest round-trip form, so a
    read-back reproduces every value bit-for-bit."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(FRONTIER_CSV_HEADER)
    for p in frontier.points:
        *values, seed = p.row()
        writer.writerow([repr(v) for v in values] + [seed])
    return buf.getvalue()


def frontier_from_csv_text(text: str,
                           grade_context: GradeContext | None = None
                           ) -> Frontier:
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row]
    if not rows:
        raise SchemaMismatch("empty frontier CSV")
    header = tuple(cell.strip() for cell in rows[0])
    if header != FRONTIER_CSV_HEADER:
        raise SchemaMismatch(
            f"bad frontier header {header}; expected {FRONTIER_CSV_HEADER}")
    points = []
    for n, row in enumerate(rows[1:], start=1):
        if len(row) != len(FRONTIER_CSV_HEADER):
            raise SchemaMismatch(
                f"row {n}: expected {len(FRONTIER_CSV_HEADER)} fields, "
                f"got {len(row)}")
        try:
            values = [float(cell) for cell in row[:13]]
            seed = int(row[13])
        except ValueError as bad:
            raise SchemaMismatch(f"row {n}: {bad}") from None
        points.append(SolutionPoint(
            weights=WeightVector(*values[0:3]),
            design=DesignVector(*values[3:7]),
            noise=NoiseVector(*values[7:9]),
            objectives=ObjectiveTriple(*values[9:12]),
            aggregate_value=values[12],
            seed=seed))
    return Frontier(points=points, grade_context=grade_context)


def write_frontier_csv(frontier: Frontier, path: str) -> None:
    write_text(path, frontier_to_csv_text(frontier), newline="")


def read_frontier_csv(path: str,
                      grade_context: GradeContext | None = None) -> Frontier:
    return frontier_from_csv_text(read_text(path), grade_context=grade_context)
