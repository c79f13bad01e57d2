"""Bacterial foraging optimizer over a box-bounded search space.

Maximizes a fitness function with the classic four-phase loop nest: outer
restart passes, elimination-dispersal cycles, reproduction cycles, and
chemotaxis rounds, each round giving every bacterium one tumble plus a short
swim while its effective fitness keeps improving. Effective fitness is raw
fitness plus a cell-to-cell swarming signal (Gaussian attraction wells and
repulsion bumps summed over the whole swarm, self included).

All randomness flows through one numpy Generator seeded from the config
(PCG64 via np.random.default_rng), so a seed pins the full trajectory
bit-for-bit across runs and processes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Protocol, Sequence

import numpy as np

from .errors import OddPopulation, ValidationError


class FitnessFunction(Protocol):
    """What the optimizer needs from a problem: a box and an evaluator."""

    dimension: int
    bounds: Sequence[tuple[float, float]]

    def evaluate(self, position: np.ndarray) -> float: ...


@dataclass
class BoxFunction:
    """Plain fitness function over an axis-aligned box."""

    dimension: int
    bounds: tuple[tuple[float, float], ...]
    fn: object

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValidationError("dimension must be >= 1")
        if len(self.bounds) != self.dimension:
            raise ValidationError(
                f"need {self.dimension} bounds, got {len(self.bounds)}")
        for lo, hi in self.bounds:
            if lo > hi:
                raise ValidationError(f"bound [{lo}, {hi}] is empty")

    def evaluate(self, position: np.ndarray) -> float:
        return float(self.fn(position))


def sphere_function(dimensions: int = 4, half_width: float = 5.0) -> BoxFunction:
    """Negated sphere benchmark: maximum 0 at the origin."""
    bounds = tuple((-half_width, half_width) for _ in range(dimensions))
    return BoxFunction(dimension=dimensions, bounds=bounds,
                       fn=lambda p: -float(p @ p))


@dataclass(frozen=True)
class BfaConfig:
    """Optimizer settings.

    The loop nest runs total_passes x elimination_cycles x
    reproduction_cycles x chemotaxis_steps rounds; swim_limit caps the
    extra steps a bacterium may take after a successful tumble. Step
    length per dimension is step_fraction times that dimension's range.
    """

    population_size: int = 26
    chemotaxis_steps: int = 30
    swim_limit: int = 5
    reproduction_cycles: int = 5
    elimination_cycles: int = 5
    total_passes: int = 1
    step_fraction: float = 0.05
    attract_depth: float = 0.1
    attract_width: float = 0.2
    repel_height: float = 0.1
    repel_width: float = 10.0
    elimination_prob: float = 0.25
    swarming: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValidationError(
                f"population_size must be >= 2, got {self.population_size}")
        if self.population_size % 2:
            raise OddPopulation(
                f"population_size must be even so reproduction can split "
                f"the swarm, got {self.population_size}")
        for name in ("chemotaxis_steps", "swim_limit", "reproduction_cycles",
                     "elimination_cycles", "total_passes"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        if not 0.0 <= self.elimination_prob <= 1.0:
            raise ValidationError(
                f"elimination_prob {self.elimination_prob} outside [0, 1]")
        if not self.step_fraction > 0.0:
            raise ValidationError("step_fraction must be positive")
        for name in ("attract_depth", "attract_width",
                     "repel_height", "repel_width"):
            if getattr(self, name) < 0.0:
                raise ValidationError(f"{name} must be >= 0")
        if self.seed < 0:
            raise ValidationError("seed must be a nonnegative integer")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "BfaConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown optimizer keys: {sorted(unknown)}")
        return cls(**data)


@dataclass
class Bacterium:
    """Snapshot of one swarm member."""

    position: np.ndarray
    last_fitness: float = math.nan
    health: float = 0.0


@dataclass
class Swarm:
    """Swarm state as parallel arrays: one row per bacterium."""

    positions: np.ndarray
    raw_fitness: np.ndarray
    health: np.ndarray

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=float)
        self.raw_fitness = np.asarray(self.raw_fitness, dtype=float)
        self.health = np.asarray(self.health, dtype=float)
        if self.positions.ndim != 2:
            raise ValidationError("positions must be a (size, dims) matrix")
        size = self.positions.shape[0]
        if size < 1:
            raise ValidationError("swarm must hold at least one bacterium")
        if self.raw_fitness.shape != (size,) or self.health.shape != (size,):
            raise ValidationError("raw_fitness and health must have one "
                                  "entry per bacterium")

    @property
    def size(self) -> int:
        return self.positions.shape[0]

    @property
    def dimensions(self) -> int:
        return self.positions.shape[1]

    @classmethod
    def random(cls, size: int, lower: np.ndarray, upper: np.ndarray,
               rng: np.random.Generator) -> "Swarm":
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        positions = rng.uniform(lower, upper, size=(size, lower.shape[0]))
        return cls(positions=positions,
                   raw_fitness=np.full(size, math.nan),
                   health=np.zeros(size))

    @classmethod
    def from_members(cls, members: Sequence[Bacterium]) -> "Swarm":
        if not members:
            raise ValidationError("swarm must hold at least one bacterium")
        return cls(positions=np.array([m.position for m in members], float),
                   raw_fitness=np.array([m.last_fitness for m in members]),
                   health=np.array([m.health for m in members]))

    def bacterium(self, index: int) -> Bacterium:
        return Bacterium(position=self.positions[index].copy(),
                         last_fitness=float(self.raw_fitness[index]),
                         health=float(self.health[index]))

    def members(self) -> list[Bacterium]:
        return [self.bacterium(i) for i in range(self.size)]


def tumble_direction(dimensions: int, rng: np.random.Generator) -> np.ndarray:
    """Random unit vector: uniform in the cube, normalized; zero redrawn."""
    if dimensions < 1:
        raise ValidationError("dimensions must be >= 1")
    while True:
        delta = rng.uniform(-1.0, 1.0, dimensions)
        norm_sq = float(delta @ delta)
        if norm_sq > 0.0:
            return delta / math.sqrt(norm_sq)


def step_sizes(cfg: BfaConfig, bounds) -> np.ndarray:
    """Per-dimension step lengths: step_fraction times each range width."""
    b = np.asarray(bounds, dtype=float)
    return cfg.step_fraction * (b[:, 1] - b[:, 0])


def chemotaxis_move(position: np.ndarray, direction: np.ndarray,
                    steps: np.ndarray, bounds) -> np.ndarray:
    """One displacement along `direction`, clamped back into the box."""
    b = np.asarray(bounds, dtype=float)
    moved = np.asarray(position, dtype=float) + np.asarray(steps) * direction
    return np.clip(moved, b[:, 0], b[:, 1])


def _signal(position: np.ndarray, matrix: np.ndarray,
            cfg: BfaConfig) -> float:
    diff = matrix - position
    d2 = np.einsum("ij,ij->i", diff, diff)
    attract = -cfg.attract_depth * float(np.exp(-cfg.attract_width * d2).sum())
    repel = cfg.repel_height * float(np.exp(-cfg.repel_width * d2).sum())
    return attract + repel


def cell_to_cell_signal(position, swarm: Swarm, cfg: BfaConfig) -> float:
    """Swarming signal at `position`: every member contributes an
    attraction well and a repulsion bump, including a member sitting at
    `position` itself (its contribution is the constant
    -attract_depth + repel_height)."""
    return _signal(np.asarray(position, dtype=float), swarm.positions, cfg)


def effective_fitness(position, swarm: Swarm, f: FitnessFunction,
                      cfg: BfaConfig) -> float:
    """Raw fitness plus the swarming signal (signal off => raw alone)."""
    pos = np.asarray(position, dtype=float)
    raw = float(f.evaluate(pos))
    if not cfg.swarming:
        return raw
    return raw + _signal(pos, swarm.positions, cfg)


def swim_loop(swarm: Swarm, index: int, f, cfg: BfaConfig,
              rng: np.random.Generator, *, steps: np.ndarray | None = None,
              lower: np.ndarray | None = None,
              upper: np.ndarray | None = None) -> float:
    """One tumble plus up to swim_limit repeats for one bacterium.

    The tumble move is always kept; repeats continue while effective
    fitness strictly improves. Health accumulates the effective fitness of
    every accepted move. Mutates the swarm in place and returns the final
    effective fitness.
    """
    if steps is None or lower is None or upper is None:
        b = np.asarray(f.bounds, dtype=float)
        lower, upper = b[:, 0], b[:, 1]
        steps = cfg.step_fraction * (upper - lower)
    positions = swarm.positions
    current = positions[index]
    raw = swarm.raw_fitness[index]
    if not math.isfinite(raw):
        raw = float(f.evaluate(current))
        swarm.raw_fitness[index] = raw
    swarming = cfg.swarming
    prev_eff = raw + (_signal(current, positions, cfg) if swarming else 0.0)

    displacement = steps * tumble_direction(positions.shape[1], rng)

    moved = np.clip(positions[index] + displacement, lower, upper)
    positions[index] = moved
    raw = float(f.evaluate(moved))
    swarm.raw_fitness[index] = raw
    eff = raw + (_signal(moved, positions, cfg) if swarming else 0.0)
    swarm.health[index] += eff

    swims = 0
    while eff > prev_eff and swims < cfg.swim_limit:
        prev_eff = eff
        moved = np.clip(positions[index] + displacement, lower, upper)
        positions[index] = moved
        raw = float(f.evaluate(moved))
        swarm.raw_fitness[index] = raw
        eff = raw + (_signal(moved, positions, cfg) if swarming else 0.0)
        swarm.health[index] += eff
        swims += 1
    return eff


def reproduce(swarm: Swarm) -> Swarm:
    """Healthier half duplicates in place of the weaker half.

    Members sort by descending health, ties broken by lowest original
    index; each survivor is followed by its copy in the new swarm.
    """
    size = swarm.size
    if size % 2:
        raise OddPopulation(f"cannot split a swarm of {size}")
    order = np.lexsort((np.arange(size), -swarm.health))
    top = order[: size // 2]
    return Swarm(positions=np.repeat(swarm.positions[top], 2, axis=0),
                 raw_fitness=np.repeat(swarm.raw_fitness[top], 2),
                 health=np.repeat(swarm.health[top], 2))


def eliminate_disperse(swarm: Swarm, cfg: BfaConfig,
                       rng: np.random.Generator, bounds,
                       f=None) -> Swarm:
    """Each bacterium relocates uniformly inside the box with probability
    elimination_prob. Swarm size never changes. If a fitness function is
    given, relocated members are re-evaluated; otherwise their cached raw
    fitness goes stale (nan) until someone evaluates them."""
    b = np.asarray(bounds, dtype=float)
    if b.ndim == 2 and b.shape[1] == 2:
        lower, upper = b[:, 0], b[:, 1]
    else:
        lower, upper = b[0], b[1]
    mask = rng.random(swarm.size) < cfg.elimination_prob
    for i in np.flatnonzero(mask):
        swarm.positions[i] = rng.uniform(lower, upper)
        if f is not None:
            swarm.raw_fitness[i] = float(f.evaluate(swarm.positions[i]))
        else:
            swarm.raw_fitness[i] = math.nan
    return swarm


@dataclass
class RunTrace:
    """Per-round incumbent history of one optimizer run."""

    iterations: list[int] = field(default_factory=list)
    best_fitness: list[float] = field(default_factory=list)
    best_positions: list[np.ndarray] = field(default_factory=list)
    evaluations: list[int] = field(default_factory=list)

    CSV_HEADER = ("iteration", "best_fitness", "evaluations")

    def record(self, iteration: int, fitness: float,
               position: np.ndarray, evaluations: int) -> None:
        self.iterations.append(iteration)
        self.best_fitness.append(fitness)
        self.best_positions.append(np.array(position, dtype=float))
        self.evaluations.append(evaluations)

    def __len__(self) -> int:
        return len(self.iterations)

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(self.CSV_HEADER)
            for it, fit, ev in zip(self.iterations, self.best_fitness,
                                   self.evaluations):
                writer.writerow([it, repr(fit), ev])


class RunResult(NamedTuple):
    best_position: np.ndarray
    best_fitness: float
    trace: RunTrace


class _Recorder:
    """Counts evaluations and tracks the raw-fitness incumbent."""

    __slots__ = ("inner", "count", "best_fitness", "best_position")

    def __init__(self, inner) -> None:
        self.inner = inner
        self.count = 0
        self.best_fitness = -math.inf
        self.best_position = None

    def evaluate(self, position: np.ndarray) -> float:
        value = float(self.inner.evaluate(position))
        self.count += 1
        if value > self.best_fitness:
            self.best_fitness = value
            self.best_position = np.array(position, dtype=float)
        return value


def _box(bounds, dimension: int, cfg: BfaConfig
         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated (lower, upper, steps) arrays of a search box."""
    bounds = np.asarray(bounds, dtype=float)
    if bounds.ndim != 2 or bounds.shape[1] != 2:
        raise ValidationError("fitness bounds must be (lo, hi) pairs")
    if bounds.shape[0] != dimension:
        raise ValidationError(
            f"fitness declares {dimension} dimensions but "
            f"{bounds.shape[0]} bounds")
    if np.any(bounds[:, 0] > bounds[:, 1]):
        raise ValidationError("fitness bounds contain an empty interval")
    lower = bounds[:, 0].copy()
    upper = bounds[:, 1].copy()
    return lower, upper, cfg.step_fraction * (upper - lower)


def run_bfa(f: FitnessFunction, cfg: BfaConfig) -> RunResult:
    """Full optimizer run; deterministic in (f, cfg) including cfg.seed."""
    lower, upper, steps = _box(f.bounds, f.dimension, cfg)

    rng = np.random.default_rng(cfg.seed)
    recorder = _Recorder(f)
    swarm = Swarm.random(cfg.population_size, lower, upper, rng)
    for i in range(swarm.size):
        swarm.raw_fitness[i] = recorder.evaluate(swarm.positions[i])

    trace = RunTrace()
    trace.record(0, recorder.best_fitness, recorder.best_position,
                 recorder.count)
    iteration = 0
    for _ in range(cfg.total_passes):
        for _ in range(cfg.elimination_cycles):
            for _ in range(cfg.reproduction_cycles):
                swarm.health[:] = 0.0
                for _ in range(cfg.chemotaxis_steps):
                    for i in range(swarm.size):
                        swim_loop(swarm, i, recorder, cfg, rng,
                                  steps=steps, lower=lower, upper=upper)
                    iteration += 1
                    trace.record(iteration, recorder.best_fitness,
                                 recorder.best_position, recorder.count)
                swarm = reproduce(swarm)
            swarm = eliminate_disperse(swarm, cfg, rng, (lower, upper),
                                       f=recorder)
    return RunResult(best_position=recorder.best_position.copy(),
                     best_fitness=recorder.best_fitness,
                     trace=trace)


# Lockstep engine: many independent runs stepped together on
# (runs, bacteria, dims) arrays. Within a run the arithmetic and the draw
# order are those of run_bfa, operation for operation, so every run
# reproduces its run_bfa result bit for bit; only the numpy call overhead is
# shared across runs.

def _row_dots(rows: np.ndarray) -> np.ndarray:
    """Squared norm of every row, computed as `row @ row` is.

    Stacked matmul of (1, d) by (d, 1) goes through the same dot kernel as
    a 1-d `@`; einsum or a sum of squares can differ in the last bit.
    """
    return (rows[..., None, :] @ rows[..., :, None])[..., 0, 0]


def _tumble_round(rngs: Sequence[np.random.Generator], population: int,
                  dimensions: int) -> np.ndarray:
    """(runs, population, dims) unit tumbles for one chemotaxis round.

    Per run this draws the stream, and returns the vectors, of `population`
    successive tumble_direction calls: a zero row is dropped and the next
    draws move up to take its place, as tumble_direction redraws it.
    """
    deltas = np.stack([rng.uniform(-1.0, 1.0, (population, dimensions))
                       for rng in rngs])
    norm_sq = _row_dots(deltas)
    for run in np.flatnonzero((norm_sq == 0.0).any(axis=1)):
        rows, sq = deltas[run], norm_sq[run]
        while not sq.all():
            extra = rngs[run].uniform(-1.0, 1.0,
                                      (population - np.count_nonzero(sq),
                                       dimensions))
            rows = np.concatenate([rows[sq > 0.0], extra])
            sq = np.concatenate([sq[sq > 0.0], _row_dots(extra)])
        deltas[run], norm_sq[run] = rows, sq
    return deltas / np.sqrt(norm_sq)[..., None]


# exp(x) rounds to 0.0 below this; numpy's exp is several times slower on
# such inputs than on others, and far-apart bacteria give many of them
_EXP_ZERO_BELOW = -746.0


def _exp(x: np.ndarray) -> np.ndarray:
    """np.exp(x), skipping the entries whose result is exactly 0.0."""
    return np.exp(x, out=np.zeros_like(x), where=x > _EXP_ZERO_BELOW)


def _signal_rows(points: np.ndarray, members: np.ndarray,
                 cfg: BfaConfig) -> np.ndarray:
    """_signal of points[k] against the swarm members[k], for every k."""
    diff = members - points[:, None, :]
    d2 = np.einsum("rij,rij->ri", diff, diff)
    attract = -cfg.attract_depth * _exp(-cfg.attract_width * d2).sum(-1)
    repel = cfg.repel_height * _exp(-cfg.repel_width * d2).sum(-1)
    return attract + repel


def _take_first_best(best_fitness: np.ndarray, best_position: np.ndarray,
                     runs: np.ndarray, values: np.ndarray,
                     swarms: np.ndarray) -> None:
    """Incumbent update after run runs[k] evaluated values[k] in index order
    at the positions swarms[k]: the first maximum replaces the incumbent if
    it is strictly greater. Entries a run did not evaluate hold -inf."""
    first = values.argmax(axis=1)
    rows = np.arange(len(runs))
    top = values[rows, first]
    better = top > best_fitness[runs]
    best_fitness[runs[better]] = top[better]
    best_position[runs[better]] = swarms[rows[better], first[better]]


def run_bfa_lockstep(evaluate, bounds, cfg: BfaConfig,
                     seeds: Sequence[int]) -> list[RunResult]:
    """One optimizer run per seed, all stepped together.

    evaluate(runs, positions) returns the raw fitness of positions[k]
    (an (m, dims) array) under the fitness function of run runs[k], as
    finite floats. Result r equals run_bfa(f_r, replace(cfg,
    seed=seeds[r])) bit for bit, trace included, when evaluate computes
    f_r.evaluate elementwise with the same operations.

    Runs are not kept in phase: each step moves the current bacterium of
    every unfinished run once (its tumble or its next swim), and a run
    whose bacterium stops swimming goes on to its next bacterium, round,
    reproduction or dispersal while other runs still swim. Runs share no
    state, so this changes only how many numpy calls the batch takes.
    """
    lower, upper, steps = _box(bounds, len(bounds), cfg)
    n_runs, size, dims = len(seeds), cfg.population_size, len(lower)
    if n_runs < 1:
        raise ValidationError("need at least one seed")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    everyone = np.arange(n_runs)
    positions = np.stack([rng.uniform(lower, upper, size=(size, dims))
                          for rng in rngs])
    raw = evaluate(np.repeat(everyone, size),
                   positions.reshape(-1, dims)).reshape(n_runs, size)
    count = np.full(n_runs, size)
    best_fitness = np.full(n_runs, -math.inf)
    best_position = np.zeros((n_runs, dims))
    _take_first_best(best_fitness, best_position, everyone, raw, positions)

    per_cycle = cfg.chemotaxis_steps
    per_dispersal = per_cycle * cfg.reproduction_cycles
    rounds = cfg.total_passes * cfg.elimination_cycles * per_dispersal
    trace_fitness = np.empty((rounds + 1, n_runs))
    trace_position = np.empty((rounds + 1, n_runs, dims))
    trace_count = np.empty((rounds + 1, n_runs), dtype=np.int64)
    trace_fitness[0], trace_position[0], trace_count[0] = (
        best_fitness, best_position, count)

    def reproduce_runs(runs: np.ndarray) -> None:
        order = np.argsort(-health[runs], axis=1, kind="stable")
        top = order[:, : size // 2]
        positions[runs] = np.repeat(np.take_along_axis(
            positions[runs], top[..., None], axis=1), 2, axis=1)
        raw[runs] = np.repeat(np.take_along_axis(raw[runs], top, axis=1),
                              2, axis=1)

    def disperse_runs(runs: np.ndarray) -> None:
        relocate = np.stack([rngs[run].random(size) for run in runs]) \
            < cfg.elimination_prob
        for k in np.flatnonzero(relocate.any(axis=1)):
            positions[runs[k], relocate[k]] = rngs[runs[k]].uniform(
                lower, upper, (np.count_nonzero(relocate[k]), dims))
        row, member = np.nonzero(relocate)
        if len(row):
            values = evaluate(runs[row], positions[runs[row], member])
            raw[runs[row], member] = values
            count[runs] += relocate.sum(axis=1)
            found = np.full(relocate.shape, -math.inf)
            found[row, member] = values
            _take_first_best(best_fitness, best_position, runs, found,
                             positions[runs])

    health = np.zeros((n_runs, size))
    moves = steps * _tumble_round(rngs, size, dims)
    done = np.zeros(n_runs, dtype=np.intp)  # finished chemotaxis rounds
    current = np.zeros(n_runs, dtype=np.intp)  # bacterium moving now
    swims = np.zeros(n_runs, dtype=np.intp)
    fresh = np.ones(n_runs, dtype=bool)  # current bacterium not tumbled yet
    prev = np.empty(n_runs)  # effective fitness before the move
    active = everyone
    while len(active):
        starting = active[fresh[active]]
        if len(starting):
            i = current[starting]
            prev[starting] = raw[starting, i] + (
                _signal_rows(positions[starting, i], positions[starting], cfg)
                if cfg.swarming else 0.0)
        i = current[active]
        moved = np.clip(positions[active, i] + moves[active, i],
                        lower, upper)
        positions[active, i] = moved
        values = evaluate(active, moved)
        count[active] += 1
        better = values > best_fitness[active]
        if better.any():
            best_fitness[active[better]] = values[better]
            best_position[active[better]] = moved[better]
        raw[active, i] = values
        if cfg.swarming:
            swarms = (positions if len(active) == n_runs
                      else positions[active])
            eff = values + _signal_rows(moved, swarms, cfg)
        else:
            eff = values + 0.0
        health[active, i] += eff
        swim_on = (eff > prev[active]) & (swims[active] < cfg.swim_limit)
        prev[active[swim_on]] = eff[swim_on]
        swims[active] = np.where(swim_on, swims[active] + 1, 0)
        stopped = active[~swim_on]
        fresh[active] = ~swim_on
        current[stopped] += 1
        ended = stopped[current[stopped] == size]
        if len(ended):
            done[ended] += 1
            row = done[ended]
            trace_fitness[row, ended] = best_fitness[ended]
            trace_position[row, ended] = best_position[ended]
            trace_count[row, ended] = count[ended]
            cycle_end = ended[row % per_cycle == 0]
            if len(cycle_end):
                reproduce_runs(cycle_end)
                health[cycle_end] = 0.0
            dispersal = ended[row % per_dispersal == 0]
            if len(dispersal):
                disperse_runs(dispersal)
            again = ended[row < rounds]
            if len(again):
                moves[again] = steps * _tumble_round(
                    [rngs[run] for run in again], size, dims)
                current[again] = 0
            active = active[current[active] < size]

    results = []
    for run in range(n_runs):
        trace = RunTrace(iterations=list(range(rounds + 1)),
                         best_fitness=trace_fitness[:, run].tolist(),
                         best_positions=list(trace_position[:, run]),
                         evaluations=trace_count[:, run].tolist())
        results.append(RunResult(best_position=best_position[run].copy(),
                                 best_fitness=float(best_fitness[run]),
                                 trace=trace))
    return results
