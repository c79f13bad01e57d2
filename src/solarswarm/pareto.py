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

import functools
import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .bfa import BfaConfig, RunResult, RunTrace, run_bfa_lockstep
# run_bfa is no longer called here, but stays bound under this module's
# name: the benchmark's span tracer wraps pareto.run_bfa
from .bfa import run_bfa  # noqa: F401
from .codec import csv_rows, read_text, write_text
# the shared writer, also bound under its earlier name here: the
# benchmark's input generator imports pareto.metrics_json_text
from .codec import json_text as metrics_json_text  # noqa: F401
from .errors import (
    EmptyGrid,
    NonFiniteResult,
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
    _objective_rows,
    _surfaces,
    _weighted_sum,
    aggregate,
)

FRONTIER_CSV_HEADER = ("w1", "w2", "w3", "x_a", "x_b", "x_c", "x_d",
                       "Z_a", "Z_b", "f1", "f2", "f3", "F", "seed")

# Frontier.table columns: the weights, the design and noise values, the
# objectives and F
_WEIGHTS = slice(0, 3)
_VARIABLES = slice(3, 9)
_OBJECTIVES = slice(9, 12)
_AGGREGATE = 12

DEFAULT_REFERENCE_COUNT = 15
_DIVERSITY_GUARD = 1e-12


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


class Frontier:
    """A nonempty set of solution points, one per weight vector swept.

    A frontier is its table: `table` is a read-only (n, 13) float array of
    the FRONTIER_CSV_HEADER columns but the seed, one row per point, and
    `seeds` holds the seeds as ints. Building, writing, dominance, ranking
    and diversity work on the table. Frontier(points) only converts the
    points to the table; a point is built from its row when asked for.
    """

    def __init__(self, points: list[SolutionPoint]) -> None:
        points = list(points)
        self._hold(np.array([p.row()[:-1] for p in points], dtype=float),
                   [p.seed for p in points])

    @classmethod
    def _from_table(cls, table: np.ndarray, seeds: list[int]) -> "Frontier":
        """A frontier of rows already checked to make valid points."""
        frontier = cls.__new__(cls)
        frontier._hold(table, seeds)
        return frontier

    def _hold(self, table: np.ndarray, seeds: list[int]) -> None:
        if not seeds:
            raise ValidationError("frontier must hold at least one point")
        table.flags.writeable = False
        self.table = table
        self.seeds = seeds

    @functools.cached_property
    def points(self) -> list[SolutionPoint]:
        """Every point, in row order, built from the table once."""
        return [_solution_point(row, seed)
                for row, seed in zip(self.table.tolist(), self.seeds)]

    def point(self, k: int) -> SolutionPoint:
        """Point k, built from row k."""
        return _solution_point(self.table[k].tolist(), self.seeds[k])

    def __len__(self) -> int:
        return len(self.seeds)


def _solution_point(values: list[float], seed: int) -> SolutionPoint:
    """The point of one frontier row, given as 13 floats and a seed; the
    dataclass constructors reject a row that makes no valid point."""
    return SolutionPoint(weights=WeightVector(*values[0:3]),
                         design=DesignVector(*values[3:7]),
                         noise=NoiseVector(*values[7:9]),
                         objectives=ObjectiveTriple(*values[9:12]),
                         aggregate_value=values[12], seed=seed)


# the most weight vectors one grid may hold; the default grid has 36
MAX_GRID_VECTORS = 10 ** 6


def weight_grid(step: float = 0.1, minimum: float = 0.1
                ) -> list[WeightVector]:
    """All weight triples on the simplex lattice of spacing `step` whose
    components all reach `minimum`, in descending lexicographic order; a
    grid of more than MAX_GRID_VECTORS is rejected before it is built."""
    if not 0.0 < step <= 1.0:
        raise ValidationError(f"step {step} outside (0, 1]")
    # 1 / step overflows for the smallest subnormal steps
    units = round(1.0 / step) if 1.0 / step < math.inf else 0
    if abs(units * step - 1.0) > 1e-9:
        raise ValidationError(f"step {step} must divide 1 evenly")
    if not 0.0 <= minimum < math.inf:
        raise ValidationError(f"minimum {minimum} must be finite and >= 0")
    # a minimum above 1 empties the grid as 1 does, and cannot overflow
    floor_units = math.ceil(min(minimum, 1.0) / step - 1e-9)
    # the nodes whose parts all reach floor_units are those of the smaller
    # lattice left after giving each part floor_units (none if free < 0)
    free = units - 3 * floor_units
    if free >= 0 and math.comb(free + 2, 2) > MAX_GRID_VECTORS:
        raise ValidationError(
            f"a grid of step {step} and minimum {minimum} holds more than "
            f"{MAX_GRID_VECTORS} weight vectors")
    grid = [WeightVector(*(round((n + floor_units) * step, 12) for n in node))
            for node in _compositions(free, 3)]
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
    row = _frontier_table(problem, np.array([weights.as_tuple()]),
                          np.array([values]))
    return _solution_point(row[0].tolist(), seed)


def _frontier_table(problem: ProblemSpec, weights: np.ndarray,
                    positions: np.ndarray) -> np.ndarray:
    """Frontier.table rows, but the seed: row k scores the (6,) position
    positions[k] under the (3,) weights weights[k]."""
    objectives = _objective_rows(problem, positions)
    return np.column_stack([weights, positions, objectives.T,
                            _weighted_sum(weights.T, objectives)])


def _run_batch(problem: ProblemSpec, cfg: BfaConfig, weights: np.ndarray,
               seeds: list[int]) -> list[RunResult]:
    """One lockstep batch: run k maximizes weights[k] . f from seeds[k].

    The evaluate callback scores through the problem's row kernel, bound
    once for the batch, and weights row i by the weights of run runs[i]:
    one take along the run axis of the table's contiguous (3, runs)
    columns gives contiguous (3, m) columns, which _weighted_sum
    multiplies the (3, m) objectives by, with no strided (m, 3) gather,
    before it adds the three weighted objectives left to right, as
    evaluate_rows does.
    """
    columns = np.ascontiguousarray(weights.T)
    objective_rows = _surfaces(problem).objective_rows
    return run_bfa_lockstep(
        lambda runs, positions: _weighted_sum(
            columns.take(runs, axis=1), objective_rows(positions)),
        problem.design_bounds + problem.noise_bounds, cfg, seeds)


def build_frontier(problem: ProblemSpec, cfg: BfaConfig,
                   weights: list[WeightVector], runs_per_weight: int,
                   *, workers: int = 1) -> tuple[Frontier, list[RunTrace]]:
    """Sweep the weight list; keep the best-aggregate run per weight.

    cfg.seed acts as the master seed. The (weight, replicate) runs of the
    sweep step as one lockstep batch that reproduces run_bfa run by run;
    with workers > 1 each worker process steps its own contiguous share of
    the runs. Runs share no state, so the frontier is identical for any
    worker count. Per weight the first replicate with the highest best
    fitness wins. The winners' best positions are scored in one evaluator
    call, straight into the frontier's table. Returns the frontier and the
    winners' traces, both in grid order.
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
    cell_weights = np.array([w.as_tuple() for w in weights])
    run_weights = np.repeat(cell_weights, runs_per_weight, axis=0)
    if workers == 1:
        results = _run_batch(problem, cfg, run_weights, seeds)
    else:
        shares = [share for share in np.array_split(
            np.arange(len(seeds)), workers) if len(share)]
        # one process per share: never more processes than runs
        with ProcessPoolExecutor(max_workers=len(shares)) as pool:
            parts = pool.map(_run_batch, repeat(problem), repeat(cfg),
                             [run_weights[share] for share in shares],
                             [[seeds[k] for k in share] for share in shares])
            results = [result for part in parts for result in part]
    # argmax keeps the first of tied maxima: the first replicate wins
    fitness = np.array([r.best_fitness for r in results]).reshape(
        len(weights), runs_per_weight)
    winners = (fitness.argmax(axis=1)
               + np.arange(0, len(seeds), runs_per_weight)).tolist()
    positions = np.array([results[k].best_position for k in winners],
                         dtype=float)
    frontier = Frontier._from_table(
        _frontier_table(problem, cell_weights, positions),
        [seeds[k] for k in winners])
    return frontier, [results[k].trace for k in winners]


def _objective_matrix(items) -> np.ndarray:
    """The objective vectors of SolutionPoints, ObjectiveTriples or plain
    tuples, one float row each."""
    return np.array([item.objectives.as_tuple()
                     if isinstance(item, SolutionPoint)
                     else item.as_tuple() if isinstance(item, ObjectiveTriple)
                     else item for item in items], dtype=float)


def nondominated_filter(points: list) -> list:
    """Maximization Pareto filter, stable order, duplicates all kept.

    `points` may be SolutionPoints, ObjectiveTriples, or plain tuples. A
    row holding nan is never dominated and dominates no other row.
    """
    v = _objective_matrix(points)
    return [p for p, row in zip(points, v)
            if not ((v >= row).all(1) & (v > row).any(1)).any()]


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
    if denom == math.inf:
        raise _squares_overflow(vector)
    components = tuple((vector[i] ** 2 - vector[j] ** 2) / denom
                       for i in range(len(vector))
                       for j in range(i + 1, len(vector)))
    # squared, not signed: the printed form sums the signed components of
    # the full antisymmetric pair matrix, which cancels to zero identically
    magnitude = math.sqrt(_sum_squares(components))
    return SigmaVector(components=components, magnitude=magnitude)


def _squares_overflow(vector: tuple) -> ValidationError:
    """The one rejection of a vector whose squares, or their sum, overflow
    (sigma_components and _sigma_rows alike)."""
    return ValidationError(
        f"sigma undefined: the squares of {vector!r} overflow the floats")


def _compositions(total: int, parts: int):
    """Every tuple of `parts` nonnegative ints summing to `total`, in
    descending lexicographic order: the nodes of a simplex lattice."""
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
    # a constant objective carries no spread information; park it
    # mid-range instead of poisoning the sigma angles
    constant = hi == lo
    out = (matrix - lo) / np.where(constant, 1.0, hi - lo)
    out[:, constant] = 0.5
    return out


def _sigma_rows(unit: np.ndarray) -> np.ndarray:
    """sigma_components of every row at once, bit for bit, with zero
    components for an all-zero row.

    The squares of the numerators come from Python's `v ** 2` (libm pow),
    which differs from `v * v` in the last bit for some doubles; the
    denominator adds the `v * v` products left to right, as _sum_squares
    does.
    """
    n_rows, n_objectives = unit.shape
    if n_objectives < 2:
        raise ValidationError(
            f"need at least 2 objectives, got {n_objectives}")
    with np.errstate(over="ignore"):  # rejected below
        products = unit * unit
        denom = products[:, 0].copy()
        for col in range(1, n_objectives):
            denom += products[:, col]
    overflow = denom == math.inf
    if overflow.any():
        raise _squares_overflow(tuple(unit[overflow.argmax()].tolist()))
    squares = np.array([v ** 2 for v in unit.ravel().tolist()]
                       ).reshape(n_rows, n_objectives)
    zero = ~unit.any(axis=1)
    if np.any((denom == 0.0) & ~zero):
        raise ZeroVector("sigma undefined for the all-zero vector")
    # an all-zero row's numerators are all +0.0, so any nonzero
    # denominator gives its zero components
    denom[zero] = 1.0
    first, second = np.triu_indices(n_objectives, 1)
    return (squares[:, first] - squares[:, second]) / denom[:, None]


def diversity_metric(frontier: Frontier | list,
                     references: list[SigmaVector]) -> float:
    """Reciprocal mean distance from solution sigma vectors to the nearest
    reference line. Higher means the frontier spreads more evenly across
    the reference directions; a frontier sitting exactly on its references
    saturates at 1/guard.

    Objectives are min-max normalized over the frontier first. A solution
    normalizing to the all-zero vector contributes a zero sigma vector
    (it has no direction to speak of). `frontier` is a Frontier or a list
    of points, objective triples or plain tuples.
    """
    if isinstance(frontier, Frontier):
        matrix = frontier.table[:, _OBJECTIVES]
    else:
        matrix = _objective_matrix(frontier)
        if not len(matrix):
            raise ValidationError("diversity needs at least one point")
    if not references:
        raise ValidationError("diversity needs at least one reference")
    n_pairs = len(references[0].components)
    if any(len(r.components) != n_pairs for r in references):
        raise ValidationError("reference component lengths disagree")
    expected_pairs = math.comb(matrix.shape[1], 2)
    if expected_pairs != n_pairs:
        raise ValidationError(
            f"references carry {n_pairs} components but {matrix.shape[1]} "
            f"objectives give {expected_pairs}")
    ref_matrix = np.array([r.components for r in references], dtype=float)
    # a column whose spread overflows normalizes to nan: rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        nearest = _nearest_distances(matrix, ref_matrix)
    mean_distance = math.fsum(nearest.tolist()) / len(nearest)
    diversity = 1.0 / (mean_distance + _DIVERSITY_GUARD)
    if not math.isfinite(diversity):
        raise NonFiniteResult(
            f"diversity is {diversity}: an objective's spread over the "
            f"frontier is not a finite number")
    return diversity


def _nearest_distances(matrix: np.ndarray,
                       ref_matrix: np.ndarray) -> np.ndarray:
    """Per row of an objective matrix, the distance from its normalized
    sigma vector to the nearest reference sigma vector, for every row in
    one pass.

    The gaps go into one C-ordered (rows, references, pairs) buffer, so
    einsum adds each row's squared gaps over one contiguous row of pairs,
    the same sum it forms for that row's (references, pairs) gaps alone;
    in another layout it may add them in another order.
    """
    components = _sigma_rows(_normalize_columns(matrix))
    gaps = np.empty((len(components), *ref_matrix.shape))
    np.subtract(ref_matrix, components[:, None, :], out=gaps)
    return np.sqrt(np.einsum("rij,rij->ri", gaps, gaps).min(axis=1))


def frontier_dominance(frontier: Frontier) -> float:
    """Mean aggregate value over the frontier (order-invariant sum); a sum
    that overflows the floats is a NonFiniteResult."""
    try:
        total = math.fsum(frontier.table[:, _AGGREGATE].tolist())
    except OverflowError:
        raise NonFiniteResult(
            "the mean F overflows: its sum over the frontier exceeds the "
            "floats") from None
    return total / len(frontier)


def rank_solutions(frontier: Frontier
                   ) -> tuple[SolutionPoint, SolutionPoint, SolutionPoint]:
    """(best, median, worst) by aggregate value, descending.

    Ties break toward the lexicographically smallest weight vector. The
    median is entry floor((n-1)/2) of the sorted list. The stable sort
    runs on the table; only the three points returned are built.
    """
    values = frontier.table[:, _AGGREGATE].tolist()
    weights = [tuple(w) for w in frontier.table[:, _WEIGHTS].tolist()]
    ordered = sorted(range(len(values)),
                     key=lambda k: (-values[k], weights[k]))
    return tuple(frontier.point(ordered[k])
                 for k in (0, (len(ordered) - 1) // 2, -1))


def compute_metrics(frontier: Frontier, grade_context=None) -> dict:
    """The metrics document for a frontier, ready for JSON; it echoes the
    fuzzy.GradeContext the frontier was conditioned on, or null. A mean F
    or a diversity that is not a finite number is a NonFiniteResult, as
    JSON has no such number."""
    n_objectives = frontier.table[:, _OBJECTIVES].shape[1]
    references = reference_sigma_lines(n_objectives, DEFAULT_REFERENCE_COUNT)
    return {
        "dominance_mean_F": frontier_dominance(frontier),
        "diversity": diversity_metric(frontier, references),
        "n_points": len(frontier),
        "grade_context": (grade_context.to_dict()
                          if grade_context is not None else None),
    }


def frontier_to_csv_text(frontier: Frontier) -> str:
    """Render a frontier as CSV. Floats use shortest round-trip form, so a
    read-back reproduces every value bit-for-bit; no field needs quoting."""
    lines = [",".join(FRONTIER_CSV_HEADER)]
    lines += [",".join([*map(repr, values), str(seed)]) for values, seed
              in zip(frontier.table.tolist(), frontier.seeds)]
    return "\n".join(lines) + "\n"


def frontier_from_csv_text(text: str) -> Frontier:
    """Read a frontier CSV into its table, building no points.

    codec.csv_rows splits the text, and _parse_rows parses every row at
    once with float() and int(). Only when that fails is each row parsed
    alone, to find the first that does not parse and its message. The
    columns of the rows before it are then screened with the arithmetic
    the point constructors use: finite, nonnegative weights summing to 1,
    finite design and noise values, F within 1e-9 relative of w . f, and
    a nonnegative seed. Only a row the screen flags is built as a point,
    so the constructors still raise every rejection, and the first bad
    row in file order decides the error.
    """
    rows = [row for row in csv_rows(text) if row]
    if not rows:
        raise SchemaMismatch("empty frontier CSV")
    header = tuple(cell.strip() for cell in rows[0])
    if header != FRONTIER_CSV_HEADER:
        raise SchemaMismatch(
            f"bad frontier header {header}; expected {FRONTIER_CSV_HEADER}")
    body, unparsed = rows[1:], None
    try:
        table, seeds = _parse_rows(body)
    except ValueError:
        for n, row in enumerate(body):
            try:
                _parse_rows([row])
            except ValueError as bad:
                unparsed = SchemaMismatch(f"row {n + 1}: {bad}")
                break
        table, seeds = _parse_rows(body[:n])
    for k in np.flatnonzero(_screen(table, seeds)).tolist():
        _solution_point(table[k].tolist(), seeds[k])
    if unparsed is not None:
        raise unparsed
    return Frontier._from_table(table, seeds)


def _parse_rows(rows: list[list[str]]) -> tuple[np.ndarray, list[int]]:
    """The (n, 13) float table and the int seeds of n frontier rows: the
    13 float columns of all rows through one map(float), then the seeds
    through int(). ValueError names the fault when a row has the wrong
    width or a cell does not parse; for one row it is the leftmost."""
    width = len(FRONTIER_CSV_HEADER)
    for row in rows:
        if len(row) != width:
            raise ValueError(f"expected {width} fields, got {len(row)}")
    cells = chain.from_iterable([row[:13] for row in rows])
    table = np.fromiter(map(float, cells), float, 13 * len(rows))
    return table.reshape(len(rows), 13), [int(row[13]) for row in rows]


def _screen(table: np.ndarray, seeds: list[int]) -> np.ndarray:
    """Rows that may make no valid point: every row WeightVector,
    DesignVector, NoiseVector or SolutionPoint would reject is flagged, by
    the same arithmetic in the same order."""
    weights = table[:, _WEIGHTS]
    w1, w2, w3 = weights.T
    flagged = ~((weights >= 0.0) & np.isfinite(weights)).all(axis=1)
    flagged |= ~np.isfinite(table[:, _VARIABLES]).all(axis=1)
    # Python floats overflow to inf and make nan silently; so does this
    with np.errstate(over="ignore", invalid="ignore"):
        flagged |= np.abs((w1 + w2) + w3 - 1.0) > 1e-12
        expected = _weighted_sum(weights.T, table[:, _OBJECTIVES].T)
        tolerance = 1e-9 * np.maximum(1.0, np.abs(expected))
        flagged |= ~(np.abs(table[:, _AGGREGATE] - expected) <= tolerance)
    flagged |= np.array([seed < 0 for seed in seeds], dtype=bool)
    return flagged


def write_frontier_csv(frontier: Frontier, path: str) -> None:
    write_text(path, frontier_to_csv_text(frontier))


def read_frontier_csv(path: str) -> Frontier:
    return frontier_from_csv_text(read_text(path))
