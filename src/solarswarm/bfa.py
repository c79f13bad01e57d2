"""Bacterial foraging optimizer over a box-bounded search space.

Maximizes a fitness function with Passino's loop nest: elimination-dispersal
cycles around reproduction cycles around chemotaxis rounds, each round
giving every bacterium one tumble plus a short swim while its effective
fitness keeps improving. Effective fitness is raw fitness plus a
cell-to-cell swarming signal (Gaussian attraction wells and repulsion bumps
summed over the whole swarm, self included).

All randomness flows through one numpy Generator seeded from the config
(PCG64 via np.random.default_rng), so a seed pins the full trajectory
bit-for-bit across runs and processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .codec import ConfigCodec, bound_pairs, write_text
from .errors import NonFiniteResult, OddPopulation, ValidationError


@dataclass
class BoxFunction:
    """Plain fitness function over an axis-aligned box: `rows` maps an
    (m, dims) array of positions to their m values, under run_bfa's
    row-scorer contract (pure, row k's value from row k alone)."""

    bounds: tuple[tuple[float, float], ...]
    rows: object

    def __post_init__(self) -> None:
        bound_pairs(self.bounds)

    def evaluate_rows(self, positions: np.ndarray) -> np.ndarray:
        """rows(positions), as an array. A nan or inf value raises
        NonFiniteResult: the optimizer's argmax would stop at a nan and
        miss a larger value after it."""
        values = np.asarray(self.rows(positions), dtype=float)
        finite = np.isfinite(values)
        if not finite.all():
            bad = positions[finite.argmin()].tolist()
            raise NonFiniteResult(f"fitness not finite at position {bad!r}")
        return values


def sphere_function(dimensions: int = 4, half_width: float = 5.0) -> BoxFunction:
    """Negated sphere benchmark: maximum 0 at the origin."""
    bounds = tuple((-half_width, half_width) for _ in range(dimensions))
    return BoxFunction(bounds, rows=lambda r: -_row_dots(r))


@dataclass(frozen=True)
class BfaConfig(ConfigCodec):
    """Optimizer settings.

    The loop nest runs elimination_cycles dispersals, each after
    reproduction_cycles cycles of chemotaxis_steps rounds; swim_limit caps
    the extra steps a bacterium may take after a successful tumble. Step
    length per dimension is step_fraction times that dimension's range.
    The kernel's depths and widths are numbers >= 0, never nan; zero
    depths swarm without signalling.
    """

    population_size: int = 26
    chemotaxis_steps: int = 30
    swim_limit: int = 5
    reproduction_cycles: int = 5
    elimination_cycles: int = 5
    step_fraction: float = 0.05
    attract_depth: float = 0.1
    attract_width: float = 0.2
    repel_height: float = 0.1
    repel_width: float = 10.0
    elimination_prob: float = 0.25
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
                     "elimination_cycles"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        if not 0.0 <= self.elimination_prob <= 1.0:
            raise ValidationError(
                f"elimination_prob {self.elimination_prob} outside [0, 1]")
        if not self.step_fraction > 0.0:
            raise ValidationError("step_fraction must be positive")
        for name in ("attract_depth", "attract_width",
                     "repel_height", "repel_width"):
            if not getattr(self, name) >= 0.0:
                raise ValidationError(f"{name} must be >= 0")
        if self.seed < 0:
            raise ValidationError("seed must be a nonnegative integer")


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
    return np.minimum(np.maximum(moved, b[:, 0]), b[:, 1])


def _kernel_rates(cfg: BfaConfig) -> np.ndarray:
    """Exponent rates of the attraction and repulsion kernels, shaped
    (2, 1, 1) so one exp call over (rows, members) distances computes both
    kernels."""
    return np.array([-cfg.attract_width, -cfg.repel_width])[:, None, None]


# exp(x) rounds to 0.0 below this; numpy's exp is several times slower on
# such inputs than on others, and far-apart bacteria give many of them
_EXP_ZERO_BELOW = -746.0


def _exp(x: np.ndarray) -> np.ndarray:
    """np.exp(x), skipping the entries whose result is exactly 0.0."""
    return np.exp(x, out=np.zeros(x.shape), where=x > _EXP_ZERO_BELOW)


def _signal_rows(points: np.ndarray, members: np.ndarray, cfg: BfaConfig,
                 rates: np.ndarray) -> np.ndarray:
    """Swarming signal of points[k] against the swarm members[k], for
    every k: the one signal kernel of run_bfa_lockstep and swim_loop."""
    diff = members - points[:, None, :]
    d2 = np.einsum("rij,rij->ri", diff, diff)
    # each kernel row sums over the same contiguous values whatever the
    # number of rows
    attract, repel = _exp(rates * d2).sum(-1)
    return -cfg.attract_depth * attract + cfg.repel_height * repel


def _signal_bounds(cfg: BfaConfig) -> tuple[float, float]:
    """(lo, hi) with lo <= _signal_rows(...) <= hi for every swarm of
    population_size members, both 0 with zero depths.

    Every kernel value is the exp of a non-positive number, so each of the
    two kernel sums over P members lies in [0, P], and so the signal in
    [-attract_depth*P, repel_height*P]; the factor 1 + 1e-9 covers the
    rounding of the products.
    """
    members = cfg.population_size * (1.0 + 1e-9)
    return -cfg.attract_depth * members, cfg.repel_height * members


def cell_to_cell_signal(position, swarm: Swarm, cfg: BfaConfig) -> float:
    """Swarming signal at `position`: every member contributes an
    attraction well and a repulsion bump, including a member sitting at
    `position` itself (its contribution is the constant
    -attract_depth + repel_height)."""
    point = np.asarray(position, dtype=float)[None]
    return float(_signal_rows(point, swarm.positions[None], cfg,
                              _kernel_rates(cfg))[0])


def _row_dots(rows: np.ndarray) -> np.ndarray:
    """Squared norm of every row, computed as `row @ row` is.

    Stacked matmul of (1, d) by (d, 1) goes through the same dot kernel as
    a 1-d `@`; einsum or a sum of squares can differ in the last bit.
    Column-ordered rows can differ too, from 4 coordinates on: pass rows
    row-major.
    """
    return (rows[..., None, :] @ rows[..., :, None])[..., 0, 0]


def _tumble_round(rng: np.random.Generator, count: int,
                  dimensions: int) -> np.ndarray:
    """(count, dims) unit tumbles: the draws, and the vectors, of `count`
    successive tumble_direction calls.

    A zero row is dropped and the next draws move up to take its place, as
    tumble_direction redraws it, so a block of several chemotaxis rounds
    equals one call per round.
    """
    deltas = rng.uniform(-1.0, 1.0, (count, dimensions))
    norm_sq = _row_dots(deltas)
    while not norm_sq.all():
        keep = norm_sq > 0.0
        extra = rng.uniform(-1.0, 1.0,
                            (count - np.count_nonzero(keep), dimensions))
        deltas = np.concatenate([deltas[keep], extra])
        norm_sq = np.concatenate([norm_sq[keep], _row_dots(extra)])
    return deltas / np.sqrt(norm_sq)[:, None]


def _lay_chains(starts: np.ndarray, moves: np.ndarray, lower: np.ndarray,
                upper: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill `out`, shaped (dims, swim_limit + 2, ...), with the tumble
    chains from `starts` by `moves`, both shaped (dims, ...), and return it.
    The box's `lower` and `upper` bounds, shaped (dims, ...), broadcast
    against `starts`.

    The layout is coordinate-major: out[:, r] holds row r of every chain,
    so each coordinate of a row is one contiguous block over the chains.
    Row 0 is the start point, row 1 the tumble point clamped into the box,
    and each later row the running sum of the move from row 1, clamped
    once. That equals clamping move by move, since each coordinate moves
    one way from a point inside the box, so a coordinate that reaches a
    bound stays on it. The running sum is one contiguous point per chain,
    to which each row adds the move in place, in move order, and which
    each swim row copies unclamped; one maximum and one minimum then clamp
    all the swim rows. (Adding each row to the row before inside `out` is
    slower: a ufunc over those non-contiguous rows costs about three
    contiguous adds, while copying into one costs about one.)
    """
    out[:, 0] = starts
    walk = starts + moves
    np.minimum(np.maximum(walk, lower, out=walk), upper, out=walk)
    out[:, 1] = walk
    for row in range(2, out.shape[1]):
        walk += moves
        out[:, row] = walk
    swims = out[:, 2:]
    lower, upper = lower[:, None], upper[:, None]
    np.minimum(np.maximum(swims, lower, out=swims), upper, out=swims)
    return out


def _swim_chain(swarm: Swarm, index: int, chain: np.ndarray, raws,
                cfg: BfaConfig, rates: np.ndarray) -> tuple[float, int]:
    """Walk bacterium `index` along its laid-out chain, a row-major
    (swim_limit + 2, dims) array, against the swarm as it stands: the exact
    walk of _chemotaxis_round, for the turns whose swim decisions its
    signal bounds leave open (every turn of a replayed cycle), and of
    swim_loop.

    The tumble move is always kept; repeats continue while effective
    fitness strictly improves, up to swim_limit of them. `raws` yields the
    raw fitness of chain[1], chain[2], ... in move order, and is read only
    up to the move where the swim stops, so a lazy iterable scores no
    further. Health accumulates the effective fitness of every kept move.
    Mutates the swarm in place and returns the final effective fitness and
    the number of moves made.
    """
    positions = swarm.positions
    # the stop depends on the signals, so one call signals every row of the
    # chain, rows past the stop included
    swarms = np.repeat(positions[None], len(chain), axis=0)
    swarms[:, index] = chain
    signal = _signal_rows(chain, swarms, cfg, rates).tolist()
    # nothing below reads the swarm, so it is written once, after the swim
    prev_eff = float(swarm.raw_fitness[index]) + signal[0]
    health = float(swarm.health[index])
    for move, raw in enumerate(raws, 1):
        eff = raw + signal[move]
        health += eff
        if not (eff > prev_eff and move <= cfg.swim_limit):
            break
        prev_eff = eff
    positions[index] = chain[move]
    swarm.raw_fitness[index] = raw
    swarm.health[index] = health
    return eff, move


def swim_loop(swarm: Swarm, index: int, f, cfg: BfaConfig,
              displacement: np.ndarray) -> float:
    """One tumble by `displacement` plus up to swim_limit repeats of it for
    one bacterium, scored move by move, one row per f.evaluate_rows call.

    A stale (nan) raw fitness at the start point is scored first. The
    chain is laid out by _lay_chains and walked by _swim_chain, as
    _chemotaxis_round walks the turns the signal bounds leave open, but each
    move is scored only when the walk reaches it: the building block of a
    move-by-move reference run to check the optimizer against. Mutates the
    swarm in place and returns the final effective fitness.
    """
    lower, upper, _ = _box(f.bounds, cfg)
    positions = swarm.positions
    if not math.isfinite(swarm.raw_fitness[index]):
        swarm.raw_fitness[index] = float(
            f.evaluate_rows(positions[index:index + 1])[0])
    # a one-bacterium batch, transposed to the row-major chain of one row
    # per move
    chain = np.ascontiguousarray(_lay_chains(
        positions[index], displacement, lower, upper,
        np.empty((swarm.dimensions, cfg.swim_limit + 2))).T)
    return _swim_chain(swarm, index, chain,
                       (float(f.evaluate_rows(chain[k:k + 1])[0])
                        for k in range(1, len(chain))),
                       cfg, _kernel_rates(cfg))[0]


def reproduce(swarm: Swarm) -> Swarm:
    """Healthier half duplicates in place of the weaker half.

    Members sort by descending health, ties broken by lowest original
    index; each survivor is followed by its copy in the new swarm.
    """
    size = swarm.size
    if size % 2:
        raise OddPopulation(f"cannot split a swarm of {size}")
    order = np.argsort(-swarm.health, kind="stable")
    top = order[: size // 2]
    return Swarm(positions=np.repeat(swarm.positions[top], 2, axis=0),
                 raw_fitness=np.repeat(swarm.raw_fitness[top], 2),
                 health=np.repeat(swarm.health[top], 2))


def eliminate_disperse(swarm: Swarm, cfg: BfaConfig,
                       rng: np.random.Generator, bounds) -> Swarm:
    """Each bacterium relocates uniformly inside the box of (lo, hi) pairs
    with probability elimination_prob. Swarm size never changes. A relocated
    member's cached raw fitness goes stale (nan) until someone evaluates
    it. Mutates the swarm in place and returns it.

    One (k, dims) draw relocates the k members, in index order: the stream
    of one rng.uniform(lo, hi) call per member, and no draw at all when
    k = 0.
    """
    b = np.asarray(bounds, dtype=float)
    mask = rng.random(swarm.size) < cfg.elimination_prob
    swarm.positions[mask] = rng.uniform(
        b[:, 0], b[:, 1], (np.count_nonzero(mask), swarm.dimensions))
    swarm.raw_fitness[mask] = math.nan
    return swarm


@dataclass
class RunTrace:
    """Per-round incumbent history of one optimizer run: entry k holds the
    best raw fitness and the evaluation count after round k (entry 0 after
    the initial evaluation of the swarm)."""

    best_fitness: list[float]
    evaluations: list[int]

    CSV_HEADER = ("iteration", "best_fitness", "evaluations")

    def write_csv(self, path: str) -> None:
        """One row per round: its index, repr of its best fitness, and its
        evaluation count, comma-separated, "\n"-terminated, under the
        CSV_HEADER row."""
        rows = [",".join(self.CSV_HEADER) + "\n"]
        rows += [f"{it},{fit!r},{ev}\n" for it, (fit, ev) in
                 enumerate(zip(self.best_fitness, self.evaluations))]
        write_text(path, "".join(rows))


class RunResult(NamedTuple):
    best_position: np.ndarray
    best_fitness: float
    trace: RunTrace
    evaluations: int  # every evaluation, the final dispersal's included


def _box(bounds, cfg: BfaConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated (lower, upper, steps) arrays of a search box."""
    bounds = np.array(bound_pairs(bounds))
    return bounds[:, 0].copy(), bounds[:, 1].copy(), step_sizes(cfg, bounds)


def run_bfa(f, cfg: BfaConfig) -> RunResult:
    """Full optimizer run; deterministic in (f, cfg) including cfg.seed.

    f is a box and a row scorer, as BoxFunction is. f.bounds holds one
    (lo, hi) pair per dimension; f.evaluate_rows maps an (m, dims) array of
    positions to their m raw fitness values, as finite floats. It must be
    pure, row k's value depending only on row k, bit for bit: it may be
    given rows the optimizer discards, so it must not count them. It gets
    one C-contiguous copy of the engine's column-ordered rows per call,
    since a dot product over a strided row can round otherwise.

    The run is run_bfa_lockstep's loop nest at the one seed cfg.seed, which
    validates f.bounds, with f.evaluate_rows scoring every point.
    """
    return run_bfa_lockstep(
        lambda _, positions: f.evaluate_rows(np.ascontiguousarray(positions)),
        f.bounds, cfg, [cfg.seed])[0]


# Lockstep engine: independent runs stepped together on coordinate-major
# (dims, runs, bacteria) arrays, the bacteria the contiguous inner axis.
# Each run keeps its own random stream, and its arithmetic and draw order
# do not depend on how many runs share the batch, so a run gives the same
# bytes alone or among others; only the numpy call overhead is shared
# across runs.

# unit roundoff of a float64 operation
_UNIT_ROUNDOFF = 2.0 ** -53


def _health_radius(unsignalled: np.ndarray, moved: np.ndarray,
                   magnitude: np.ndarray, bound: float) -> np.ndarray:
    """Error radius of health summed without the signal of `unsignalled`
    of a bacterium's `moved` moves this cycle, elementwise.

    Exact health H is the float sum from 0.0, in move order, of
    a_k = fl(raw_k + s_k) over the cycle's n moves. The signal-free health
    m adds raw_k in place of a_k for the U moves left unsignalled, and a_k
    for the rest. With |s_k| <= bound = B (_signal_bounds), u = 2**-53 and
    S = sum(|raw_k| + B) (`magnitude` is the sum of |raw_k|):

    - each unsignalled move changes a term by at most B + u(|raw_k| + B);
    - a float sum of n terms from 0.0 lies within gamma_(n-1) * sum|term|
      of the real sum (Higham, Accuracy and Stability of Numerical
      Algorithms, 2nd ed., section 4.2), and both sums' terms are at most
      (1 + u)(|raw_k| + B);

    so |H - m| <= U*B + (2n - 1)u(1 + O(nu))S. The radius
    U*B + 4(n + 1)uS leaves over (2n + 4)uS for the rounding of S itself,
    of the radius and of the comparisons m - r > m' + r' made with it.
    It is 0 when U = 0 or B = 0: every term of m is then a_k itself, or
    raw_k + (+-0.0), which sums to the same value.
    """
    total = magnitude + moved * bound
    radius = unsignalled * bound + 4.0 * (moved + 1) * _UNIT_ROUNDOFF * total
    return np.where(unsignalled * bound > 0.0, radius, 0.0)


def _order_settled(health: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Per run: whether the top half of its bacteria under the stable
    descending sort of `health`, reproduce's ranking, holds the same
    members in the same order under that sort of any healths within
    `radius` of `health`.

    Member k of the sorted top half must surely come before member k + 1,
    and the last of the top half before every member after it: their
    intervals health +- radius are disjoint, or both radii are 0, where
    the healths are exact and the sort already orders them, ties by index.
    """
    order = np.argsort(-health, axis=1, kind="stable")
    health = np.take_along_axis(health, order, axis=1)
    radius = np.take_along_axis(radius, order, axis=1)
    behind = np.arange(1, health.shape[1])
    ahead = np.minimum(behind, health.shape[1] // 2) - 1
    sure = ((health[:, ahead] - radius[:, ahead]
             > health[:, behind] + radius[:, behind])
            | ((radius[:, ahead] == 0.0) & (radius[:, behind] == 0.0)))
    return sure.all(axis=1)


class _Batch(NamedTuple):
    """What every chemotaxis round of a batch of runs shares, made once
    per batch by _batch from the runs' ids: the run id of every tumble row
    and of every swim row, cells[k, i] = k * size + i (run k's bacterium
    i in a flat (runs, size) block), the index of every move of every
    bacterium, the kernel rates, and the round's buffers: the tumble
    chains, (dims, swim_limit + 2, runs, size), and the raw fitness of
    their rows, (swim_limit + 2, runs, size). The views of the buffers
    that a round reads or fills whole are made here too: the tumble rows
    as the (runs * size, dims) transpose, the swim rows as (dims,
    swim_limit, runs * size), and the raw fitness as (swim_limit + 2,
    runs * size)."""

    tumble_runs: np.ndarray
    swim_runs: np.ndarray
    cells: np.ndarray
    move_index: np.ndarray
    rates: np.ndarray
    chains: np.ndarray
    scored: np.ndarray
    tumble_rows: np.ndarray
    swim_chains: np.ndarray
    scored_rows: np.ndarray


def _batch(runs: np.ndarray, size: int, dims: int, cfg: BfaConfig) -> _Batch:
    rows, swims = cfg.swim_limit + 2, cfg.swim_limit
    tumble_runs = np.repeat(runs, size)
    chains = np.empty((dims, rows, len(runs), size))
    scored = np.zeros((rows, len(runs), size))
    # the start, row 0, is move `rows`, which no bacterium makes: so
    # `move_index <= made` is the mask of the moves made. A whole array,
    # since comparing against a (rows, 1, 1) column is slower
    move_index = np.empty(scored.shape, dtype=np.intp)
    move_index[:] = np.arange(rows)[:, None, None]
    move_index[0] = rows
    return _Batch(tumble_runs=tumble_runs,
                  swim_runs=tumble_runs[None].repeat(swims, axis=0),
                  cells=np.arange(len(runs) * size).reshape(len(runs), size),
                  move_index=move_index, rates=_kernel_rates(cfg),
                  chains=chains, scored=scored,
                  tumble_rows=chains[:, 1].reshape(dims, -1).T,
                  swim_chains=chains[:, 2:].reshape(dims, swims, -1),
                  scored_rows=scored.reshape(rows, -1))


def _chemotaxis_round(evaluate, batch: _Batch, positions: np.ndarray,
                      raw: np.ndarray, moves: np.ndarray, tally: tuple,
                      lower: np.ndarray, upper: np.ndarray, cfg: BfaConfig,
                      bounds: tuple[float, float]
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                 np.ndarray]:
    """One chemotaxis round of the batch's runs: its run k's bacterium i
    starts from positions[:, k, i] with raw fitness raw[k, i], and tumbles
    by moves[:, k, i]. Returns the positions and raw fitness the
    round ends with, the mask of the chain rows of the moves made, and the
    number of moves each bacterium made (the mask summed over its rows).

    The state is coordinate-major, so the bacteria are the contiguous inner
    axis: positions, moves and the box bounds `lower` and `upper` are
    (dims, runs, size), batch.chains is (dims, swim_limit + 2, runs, size),
    and batch.scored and the returned mask are (swim_limit + 2, runs,
    size). evaluate gets the (m, dims) transpose of (dims, m) rows, with
    no copy.

    Every bacterium's tumble chain is laid out when the round starts
    (_lay_chains, into batch.chains): a bacterium moves only itself, so its
    start point at its turn is the one the round started with. One call
    scores every tumble row, and a second the swim rows of the bacteria
    whose tumble may improve (into batch.scored, whose row 0 is the start's
    raw fitness). The signal lies in bounds = (lo, hi), so raw fitness
    alone settles most swim decisions. A bacterium with a decision left
    open before its stop is walked exactly by _swim_chain, in index order,
    against its run's swarm at its turn, and overwrites its entry of raw.
    Every other bacterium's moves made go unsignalled: its health adds
    their raw fitness, in move order. At bounds (-inf, inf) nothing
    settles and every bacterium is walked.

    tally holds the rows of a (4, runs, size) array, unpacked once per
    batch: row [k] of each is run k's cycle so far, per bacterium, its
    health, and for _health_radius its unsignalled moves, its moves made
    and the sum of |raw fitness| over them. The round adds its own.
    """
    dims, _, size = positions.shape
    health, unsignalled, moved, magnitude = tally
    chains, scored = batch.chains, batch.scored
    # row r of run k's bacterium i in a flat (rows, runs, size) array is
    # r * block + cells[k, i]
    cells = batch.cells
    block = cells.size
    lo, hi = bounds
    _lay_chains(positions, moves, lower, upper, chains)
    scored[0] = raw
    scored_rows = batch.scored_rows
    scored_rows[1] = evaluate(batch.tumble_runs, batch.tumble_rows)
    # swim rows are scored only where the tumble may improve
    turning = (scored[1] + hi > raw + lo).ravel().nonzero()[0]
    if len(turning):
        swim_rows = batch.swim_chains.take(turning, axis=2)
        scored_rows[2:, turning] = evaluate(
            batch.swim_runs.take(turning, axis=1).ravel(),
            swim_rows.reshape(dims, -1).T).reshape(cfg.swim_limit, -1)
    # move m surely improves, or surely does not, whatever the signals. A
    # walk goes on while its moves surely improve, so it never reaches the
    # rows left unscored past a tumble that surely does not
    low, high = scored + lo, scored + hi
    improves = low[1:] > high[:-1]
    worsens = high[1:] <= low[:-1]
    improves[-1] = False  # move swim_limit + 1 stops
    worsens[-1] = True
    made = improves.argmin(axis=0) + 1
    at_made = made * block + cells
    # a turn is settled when its stop surely does not improve; the walks
    # below correct made and at_made for the rest
    settled = worsens.ravel()[at_made - block]
    finals = chains.reshape(dims, -1).take(at_made, axis=1)
    # the swarm at a walked bacterium's turn: the final points of the
    # bacteria before it and the start points of the rest
    if not settled.all():
        for run in (~settled).any(axis=1).nonzero()[0].tolist():
            # row-major copies: _signal_rows reduces over the coordinates
            turn = Swarm(positions[:, run].T.copy(), raw[run], health[run])
            walks = chains[:, :, run].transpose(2, 1, 0).copy()
            values, stops, done = scored[1:, run].T.tolist(), made[run], 0
            for i in (~settled[run]).nonzero()[0].tolist():
                turn.positions[done:i] = finals[:, run, done:i].T
                stops[i] = _swim_chain(turn, i, walks[i], values[i], cfg,
                                       batch.rates)[1]
                done = i + 1
            finals[:, run] = walks[np.arange(size), stops].T
            at_made[run] = stops * block + cells[run]
    walked = batch.move_index <= made
    # every other bacterium's health adds the raw fitness of its moves
    # made, and no signal: health only ranks the bacteria at reproduction,
    # where its error radius settles the ranking
    eff = np.where(walked, scored, 0.0)
    magnitude += np.abs(eff).sum(axis=0)
    np.add(unsignalled, made, out=unsignalled, where=settled)
    moved += made
    # health's running sum in move order, as the walk adds it: one add per
    # contiguous move row, where add.accumulate over the move axis runs
    # one short strided loop per bacterium, several times slower in a batch
    eff[0] = health
    rows = list(eff)
    for previous, row in zip(rows, rows[1:]):
        row += previous
    np.copyto(health, eff.ravel()[at_made], where=settled)
    return finals, scored.ravel()[at_made], walked, made


def _exact_health(evaluate, runs: np.ndarray, starts: np.ndarray,
                  start_raw: np.ndarray, moves: np.ndarray,
                  lower: np.ndarray, upper: np.ndarray,
                  cfg: BfaConfig) -> np.ndarray:
    """Exact health of every bacterium of the runs `runs` over one
    reproduction cycle: the cycle's chemotaxis rounds run again, from
    starts[:, k] and start_raw[k] (run runs[k]'s positions and their raw
    fitness when the cycle started; start_raw is overwritten) with its
    tumbles moves[:, :, k], in the box of lower[:, k] and upper[:, k], at
    signal bounds (-inf, inf). No swim decision settles there, so
    _swim_chain walks every bacterium and sums its health exactly. Nothing
    is drawn or counted.
    """
    dims, k, size = starts.shape
    tally = np.zeros((4, k, size))
    batch = _batch(runs, size, dims, cfg)
    positions, raw = starts, start_raw
    tally_rows = tuple(tally)
    for cycle_moves in moves:
        positions, raw, _, _ = _chemotaxis_round(
            evaluate, batch, positions, raw, cycle_moves, tally_rows, lower,
            upper, cfg, (-math.inf, math.inf))
    return tally[0]


def _take_first_best(best_fitness: np.ndarray, best_position: np.ndarray,
                     values: np.ndarray, points: np.ndarray) -> None:
    """Incumbent update after run k evaluated values[m, k, i] at the
    position points[:, m, k, i], in (bacterium i, move m) order: the first
    maximum replaces the incumbent if it is strictly greater. That is the
    first bacterium whose best value is the largest, at its first move of
    that value. Entries a run did not evaluate hold -inf."""
    tops = values.max(axis=0)
    top = tops.max(axis=1)
    better = (top > best_fitness).nonzero()[0]
    if len(better):
        first = tops[better].argmax(axis=1)
        move = values[:, better, first].argmax(axis=0)
        best_fitness[better] = top[better]
        best_position[better] = points[:, move, better, first].T


def _score_stale(evaluate, positions: np.ndarray, raw: np.ndarray,
                 count: np.ndarray, best_fitness: np.ndarray,
                 best_position: np.ndarray) -> None:
    """Score, count and keep every stale (nan) member, in one evaluate
    call in (run, bacterium) order, and in none if no member is stale."""
    runs, members = np.nonzero(np.isnan(raw))
    if len(runs):
        values = evaluate(runs, positions[:, runs, members].T)
        raw[runs, members] = values
        count += np.bincount(runs, minlength=len(raw))
        found = np.full(raw.shape, -math.inf)
        found[runs, members] = values
        _take_first_best(best_fitness, best_position, found[None],
                         positions[:, None])


def run_bfa_lockstep(evaluate, bounds, cfg: BfaConfig,
                     seeds: Sequence[int]) -> list[RunResult]:
    """One optimizer run per seed, all stepped together: the package's one
    loop nest, which run_bfa runs at a single seed.

    evaluate(runs, positions) returns the raw fitness of positions[k]
    (an (m, dims) array) under the fitness function of run runs[k], as
    finite floats. positions is usually the column-ordered transpose of a
    (dims, m) array.

    The nest is Passino's: dispersals around reproduction cycles around
    chemotaxis rounds. Each run starts from Swarm.random, scored as a
    dispersed swarm is (_score_stale), and draws its tumbles once a cycle.
    Every chemotaxis round of every run is one _chemotaxis_round call at
    the bounds of _signal_bounds: raw fitness alone settles most swim
    decisions, the bacteria left open are walked exactly in index order,
    and the settled moves go unsignalled.

    Health only ranks the bacteria at reproduction. Each one's signal-free
    health lies within an error radius of its exact health
    (_health_radius: the bound times its unsignalled moves, plus a
    rounding term; 0 when every signal is known). A run whose ranking the
    radii leave open (_order_settled) replays its cycle (_exact_health) and
    is ranked by that exact health. Each run then reproduces through
    reproduce, and disperses through eliminate_disperse, called on a Swarm
    view of its rows of the batch arrays. The whole nest runs under
    numpy's raise mode for overflow, invalid and divide, entered once per
    call: an evaluation, signal, health sum or radius that leaves the
    floats is a NonFiniteResult naming the phase (the first scoring, a
    chemotaxis round, the reproduction ranking or a dispersal's
    rescoring), so no run reproduces on an inf or nan health.

    A run keeps its chain up to its first move that does not improve;
    rows past that move may be evaluated but are never counted. The
    incumbent is the first strictly greater raw fitness in move order.
    """
    lower, upper, steps = _box(bounds, cfg)
    n_runs, size, dims = len(seeds), cfg.population_size, len(lower)
    if n_runs < 1:
        raise ValidationError("need at least one seed")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    # coordinate-major state: positions[:, k, i] is run k's bacterium i
    positions = np.empty((dims, n_runs, size))
    for run, rng in enumerate(rngs):
        positions[:, run] = Swarm.random(size, lower, upper, rng).positions.T
    raw = np.full((n_runs, size), math.nan)
    count = np.zeros(n_runs, dtype=np.int64)
    best_fitness = np.full(n_runs, -math.inf)
    best_position = np.zeros((n_runs, dims))
    # the box's bounds at every bacterium: clamping against whole arrays
    # is faster than against (dims, 1, 1) columns
    box_lower, box_upper = (np.broadcast_to(b[:, None, None], positions.shape)
                            .copy() for b in (lower, upper))
    lo, hi = _signal_bounds(cfg)
    # between dispersals a run's stream draws only tumbles, so one draw per
    # reproduction cycle gives every tumble the draws it would take alone.
    # The cycle's state and a round's buffers (in `batch`) fill in place
    starts = np.empty((dims, n_runs, size))
    start_raw = np.empty((n_runs, size))
    moves = np.empty((cfg.chemotaxis_steps, dims, n_runs, size))
    tally = np.empty((4, n_runs, size))
    tally_rows = tuple(tally)
    health = tally[0]
    batch = _batch(np.arange(n_runs), size, dims, cfg)
    phase = "the first scoring"
    try:
        with np.errstate(all="raise", under="ignore"):
            _score_stale(evaluate, positions, raw, count, best_fitness,
                         best_position)
            # (incumbent, evaluations) after the first scoring and after
            # each round
            trace = [(best_fitness.tolist(), count.tolist())]
            for _ in range(cfg.elimination_cycles):
                for _ in range(cfg.reproduction_cycles):
                    tally.fill(0.0)
                    starts[:], start_raw[:] = positions, raw
                    for run, rng in enumerate(rngs):
                        tumbles = _tumble_round(
                            rng, cfg.chemotaxis_steps * size, dims)
                        np.multiply(steps[:, None], tumbles.reshape(
                            cfg.chemotaxis_steps, size, dims
                        ).transpose(0, 2, 1), out=moves[:, :, run])
                    phase = "a chemotaxis round"
                    for round_moves in moves:
                        positions, raw, walked, made = _chemotaxis_round(
                            evaluate, batch, positions, raw, round_moves,
                            tally_rows, box_lower, box_upper, cfg,
                            (lo, hi))
                        # the raw fitness of the moves made, in walk
                        # order, and -inf elsewhere: one update keeps the
                        # first strictly greater value, as one update per
                        # move would
                        _take_first_best(
                            best_fitness, best_position,
                            np.where(walked, batch.scored, -math.inf),
                            batch.chains)
                        count += made.sum(axis=1)
                        trace.append((best_fitness.tolist(), count.tolist()))
                    # a run whose ranking the radii leave open replays its
                    # cycle with every signal, for its exact health
                    phase = "the reproduction ranking"
                    radius = _health_radius(*tally[1:], max(-lo, hi))
                    replay = (~_order_settled(health, radius)).nonzero()[0]
                    if len(replay):
                        health[replay] = _exact_health(
                            evaluate, replay, starts[:, replay],
                            start_raw[replay], moves[:, :, replay],
                            box_lower[:, replay], box_upper[:, replay], cfg)
                    for run in range(n_runs):
                        child = reproduce(Swarm(positions[:, run].T,
                                                raw[run], health[run]))
                        positions[:, run], raw[run] = (child.positions.T,
                                                       child.raw_fitness)
                for run, rng in enumerate(rngs):
                    eliminate_disperse(Swarm(positions[:, run].T, raw[run],
                                             health[run]), cfg, rng, bounds)
                phase = "a dispersal's rescoring"
                _score_stale(evaluate, positions, raw, count, best_fitness,
                             best_position)
    except FloatingPointError as err:
        raise NonFiniteResult(f"{phase} left the floats: {err}") from None

    fitness, counts = ([list(run) for run in zip(*rows)]
                       for rows in zip(*trace))
    return [RunResult(best_position=best_position[run].copy(),
                      best_fitness=float(best_fitness[run]),
                      trace=RunTrace(fitness[run], counts[run]),
                      evaluations=int(count[run]))
            for run in range(n_runs)]
