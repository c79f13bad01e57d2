import csv
import io
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import solarswarm as ss
from solarswarm.bfa import (
    _health_radius,
    _kernel_rates,
    _lay_chains,
    _row_dots,
    _signal_bounds,
    _signal_rows,
    cell_to_cell_signal,
    chemotaxis_move,
    eliminate_disperse,
    reproduce,
    step_sizes,
    swim_loop,
    tumble_direction,
)
from solarswarm.errors import NonFiniteResult, OddPopulation, ValidationError

# probe equidistant from two members at squared distance 1, table defaults:
# -0.1*exp(-0.2)*2 + 0.1*exp(-10)*2, frozen before this module was built
TWO_MEMBER_SIGNAL = -0.16373707062964388


class CountingFunction:
    """Linear fitness with an evaluation counter; by default a huge box,
    where no move is clamped."""

    def __init__(self, sign=1.0, dimensions=3, bounds=None):
        self.bounds = bounds or tuple((-1e9, 1e9) for _ in range(dimensions))
        self.sign = sign
        self.calls = 0

    def evaluate_rows(self, positions):
        self.calls += len(positions)
        return self.sign * positions.sum(axis=1)


class FixedDirectionRng:
    """Stands in for a Generator: tumbles always along +1/sqrt(P)."""

    def uniform(self, low, high, size=None):
        return np.ones(size if size is not None else 1)


def fixed_tumble(f, cfg):
    """The displacement of a tumble along +1/sqrt(P) in f's box."""
    return step_sizes(cfg, f.bounds) * tumble_direction(len(f.bounds),
                                                        FixedDirectionRng())


def make_swarm(rows, fitness=None):
    positions = np.array(rows, dtype=float)
    raw = (np.full(len(rows), math.nan) if fitness is None else
           fitness.evaluate_rows(positions))
    return ss.Swarm(positions=positions, raw_fitness=raw,
                    health=np.zeros(len(rows)))


def test_tumble_direction_unit_norm():
    rng = np.random.default_rng(0)
    for _ in range(200):
        d = tumble_direction(6, rng)
        assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-12)
    assert abs(tumble_direction(1, rng)[0]) == pytest.approx(1.0, abs=1e-12)


def test_tumble_direction_deterministic():
    a = tumble_direction(4, np.random.default_rng(7))
    b = tumble_direction(4, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_step_sizes():
    cfg = ss.BfaConfig(step_fraction=0.05)
    steps = step_sizes(cfg, ((0.0, 10.0), (-1.0, 1.0)))
    assert steps.tolist() == [0.5, 0.1]


def test_chemotaxis_move_exact_and_clamped():
    bounds = ((-1.0, 1.0), (-1.0, 1.0))
    direction = np.array([1.0, 0.0])
    steps = np.array([0.25, 0.25])
    moved = chemotaxis_move(np.zeros(2), direction, steps, bounds)
    assert moved.tolist() == [0.25, 0.0]
    at_edge = chemotaxis_move(np.array([0.9, 0.0]), direction, steps, bounds)
    assert at_edge.tolist() == [1.0, 0.0]


def test_config_validation():
    with pytest.raises(OddPopulation):
        ss.BfaConfig(population_size=25)
    with pytest.raises(ValidationError):
        ss.BfaConfig(population_size=0)
    with pytest.raises(ValidationError):
        ss.BfaConfig(chemotaxis_steps=0)
    with pytest.raises(ValidationError):
        ss.BfaConfig(elimination_prob=1.5)
    with pytest.raises(ValidationError):
        ss.BfaConfig(step_fraction=0.0)
    with pytest.raises(ValidationError):
        ss.BfaConfig(attract_depth=-0.1)
    with pytest.raises(ValidationError):
        ss.BfaConfig(seed=-1)


def test_config_dict_roundtrip():
    cfg = ss.BfaConfig(population_size=4, seed=9, swarming=False)
    assert ss.BfaConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ValidationError):
        ss.BfaConfig.from_dict({"population": 10})


def test_signal_self_term_cancels_with_defaults():
    cfg = ss.BfaConfig()  # attract_depth == repel_height == 0.1
    swarm = make_swarm([[2.0, 3.0]])
    assert cell_to_cell_signal([2.0, 3.0], swarm, cfg) == 0.0


def test_signal_two_members_at_unit_distance():
    cfg = ss.BfaConfig()
    swarm = make_swarm([[1.0, 0.0], [-1.0, 0.0]])
    assert cell_to_cell_signal([0.0, 0.0], swarm, cfg) == pytest.approx(
        TWO_MEMBER_SIGNAL, rel=1e-12)


def test_signal_vanishes_far_away():
    cfg = ss.BfaConfig()
    swarm = make_swarm([[1000.0, 0.0], [0.0, 1000.0]])
    assert abs(cell_to_cell_signal([-1000.0, -1000.0], swarm, cfg)) < 1e-60


def test_signal_hand_oracle():
    cfg = ss.BfaConfig(attract_depth=0.3, attract_width=0.5,
                       repel_height=0.2, repel_width=2.0)
    swarm = make_swarm([[0.0], [2.0]])
    d2 = (0.5 - 0.0) ** 2, (0.5 - 2.0) ** 2
    expected = sum(-0.3 * math.exp(-0.5 * d) + 0.2 * math.exp(-2.0 * d)
                   for d in d2)
    assert cell_to_cell_signal([0.5], swarm, cfg) == pytest.approx(
        expected, rel=1e-12)


def two_exp_signal_rows(points, members, cfg):
    """The swarming signal computed kernel by kernel, one exp call each:
    the reference the fused signal must match bit for bit."""
    diff = members - points[:, None, :]
    d2 = np.einsum("rij,rij->ri", diff, diff)
    attract = -cfg.attract_depth * np.exp(-cfg.attract_width * d2).sum(-1)
    repel = cfg.repel_height * np.exp(-cfg.repel_width * d2).sum(-1)
    return attract + repel


def signal_swarms(runs, size, rng):
    """Swarms in raw pump units with members on top of the probe point,
    members close to it, and members far enough for exp to underflow."""
    points = rng.uniform(0.0, 1.0, (runs, 6))
    members = rng.uniform(0.0, 1000.0, (runs, size, 6))
    members[:, 1:size // 2] = rng.uniform(0.0, 1.0, (runs, size // 2 - 1, 6))
    members[:, 0] = points
    return points, members


@pytest.mark.parametrize("size", [2, 5, 26, 40])
@pytest.mark.parametrize("cfg", [ss.BfaConfig(), ss.BfaConfig(
    attract_depth=0.3, attract_width=0.5, repel_height=0.2, repel_width=2.0)],
    ids=["defaults", "custom"])
def test_fused_signal_matches_two_exp_formula(cfg, size):
    rng = np.random.default_rng(size)
    points, members = signal_swarms(36, size, rng)
    want = two_exp_signal_rows(points, members, cfg)
    d2 = ((members - points[:, None]) ** 2).sum(-1)
    assert (d2 == 0.0).any()
    assert (np.exp(-cfg.attract_width * d2) == 0.0).any()
    got = _signal_rows(points, members, cfg, _kernel_rates(cfg))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    for k in range(3):
        one = _signal_rows(points[k:k + 1], members[k:k + 1], cfg,
                           _kernel_rates(cfg))
        assert one.view(np.int64)[0] == want.view(np.int64)[k]


@st.composite
def swarms_and_kernels(draw):
    """(points, members, cfg): a few probe points, each with a swarm of
    population_size members drawn from a small grid, so members often sit
    on each other and on the point, and kernel settings with zero widths
    and unequal depths among them."""
    size = draw(st.sampled_from([2, 4, 6, 26]))
    dims, rows = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    grid = st.sampled_from([0.0, 0.25, 1.0, 30.0])
    members = np.array(draw(st.lists(grid, min_size=rows * size * dims,
                                     max_size=rows * size * dims)))
    members = members.reshape(rows, size, dims)
    points = members[:, draw(st.integers(0, size - 1))].copy()
    scale = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    cfg = ss.BfaConfig(population_size=size,
                       attract_depth=draw(scale), attract_width=draw(scale),
                       repel_height=draw(scale), repel_width=draw(scale))
    return points, members, cfg


@given(swarms_and_kernels())
def test_signal_lies_within_its_bounds(case):
    # the bounds run_bfa_lockstep settles swim decisions with: each kernel
    # sum over population_size members lies in [0, population_size]
    points, members, cfg = case
    lo, hi = _signal_bounds(cfg)
    signal = _signal_rows(points, members, cfg, _kernel_rates(cfg))
    assert np.all((lo <= signal) & (signal <= hi))
    assert _signal_bounds(replace(cfg, swarming=False)) == (0.0, 0.0)


def test_signal_bounds_are_reached_up_to_rounding():
    # every member on the point and zero widths: each kernel sums to
    # population_size exactly, so the bounds are tight
    for size in (2, 26):
        cfg = ss.BfaConfig(population_size=size, attract_depth=0.3,
                           attract_width=0.0, repel_height=0.0)
        lo, hi = _signal_bounds(cfg)
        signal = _signal_rows(np.zeros((1, 2)), np.zeros((1, size, 2)), cfg,
                              _kernel_rates(cfg))[0]
        assert hi == 0.0 and signal == -0.3 * size
        assert lo < signal and lo / signal < 1 + 2e-9


@st.composite
def health_terms(draw):
    """(raws, signals, known, bound): one bacterium's raw fitness over a
    cycle's moves, a signal in the bounds for each and whether it was
    computed, with magnitudes from far below to far above the bound, so
    rounding and cancellation both show."""
    n = draw(st.integers(1, 60))
    size = draw(st.sampled_from([2, 26]))
    scale = st.one_of(st.just(0.0), st.floats(1e-3, 1e5))
    cfg = ss.BfaConfig(population_size=size, attract_depth=draw(scale),
                       repel_height=draw(scale), swarming=draw(st.booleans()))
    lo, hi = _signal_bounds(cfg)
    raw = st.one_of(st.floats(-1e16, 1e16), st.floats(-10.0, 10.0),
                    st.sampled_from([0.0, 1.0, 2.0 ** 53, -3e5]))
    raws = draw(st.lists(raw, min_size=n, max_size=n))
    signals = draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n))
    known = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return raws, signals, known, max(-lo, hi)


@given(health_terms())
@example(([2.0 ** 53, 1.0], [0.0, 1e-3], [True, False], 2e-3))
def test_signal_free_health_lies_within_its_radius(case):
    # the bound run_bfa_lockstep ranks the bacteria with at reproduction:
    # health summed with raw fitness alone for the moves whose signal is
    # not known lies within the radius of the exact health, and is the
    # exact health when every signal is known. In the example 2**53 + 1
    # is a tie that rounds down, and 2**53 + 1.001 rounds up, so the two
    # healths differ by 2, far more than the signal: the rounding term of
    # the radius covers it
    raws, signals, known, bound = case
    exact = signal_free = magnitude = 0.0
    for raw, signal, computed in zip(raws, signals, known):
        exact += raw + signal
        signal_free += raw + signal if computed else raw
        magnitude += abs(raw)
    unsignalled = len(raws) - sum(known)
    radius = _health_radius(np.array([unsignalled]), np.array([len(raws)]),
                            np.array([magnitude]), bound)[0]
    assert abs(Fraction(exact) - Fraction(signal_free)) <= Fraction(radius)
    assert (radius == 0.0) == (unsignalled * bound == 0.0)
    if radius == 0.0:
        assert signal_free == exact


def test_effective_fitness_toggle():
    # swim_loop returns the effective fitness of the move it kept: raw
    # fitness alone with swarming off, raw plus the signal with it on
    f = CountingFunction(sign=-1.0)
    on = ss.BfaConfig(attract_depth=0.4, step_fraction=0.01)
    for cfg in (replace(on, swarming=False), on):
        swarm = make_swarm([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]], fitness=f)
        eff = swim_loop(swarm, 0, f, cfg, fixed_tumble(f, cfg))
        moved = swarm.positions[0]
        signal = cell_to_cell_signal(moved, swarm, cfg)
        assert eff == f.evaluate_rows(moved[None])[0] + (
            signal if cfg.swarming else 0.0)
        assert signal != 0.0


def test_swim_loop_full_swim_on_monotone_improvement():
    f = CountingFunction(sign=1.0)
    cfg = ss.BfaConfig(swim_limit=5, step_fraction=0.01, swarming=False)
    swarm = make_swarm([[0.0, 0.0, 0.0]], fitness=f)
    f.calls = 0
    swim_loop(swarm, 0, f, cfg, fixed_tumble(f, cfg))
    # +sum improves along +direction every step: tumble + swim_limit moves
    assert f.calls == 1 + cfg.swim_limit
    step = 0.01 * 2e9 / math.sqrt(3.0)
    expected = np.full(3, 6 * step)
    assert np.allclose(swarm.positions[0], expected, rtol=1e-12)
    # health accumulated the effective fitness of all six accepted moves
    assert swarm.health[0] == pytest.approx(
        sum(3 * (k * step) for k in range(1, 7)), rel=1e-9)


def test_swim_loop_keeps_worsening_tumble_without_swimming():
    f = CountingFunction(sign=-1.0)
    cfg = ss.BfaConfig(swim_limit=5, step_fraction=0.01, swarming=False)
    swarm = make_swarm([[0.0, 0.0, 0.0]], fitness=f)
    f.calls = 0
    swim_loop(swarm, 0, f, cfg, fixed_tumble(f, cfg))
    # -sum worsens along +direction: the tumble sticks, no swims follow
    assert f.calls == 1
    step = 0.01 * 2e9 / math.sqrt(3.0)
    assert np.allclose(swarm.positions[0], np.full(3, step), rtol=1e-12)


def test_swim_loop_evaluates_stale_baseline():
    f = CountingFunction(sign=-1.0)
    cfg = ss.BfaConfig(swim_limit=5, step_fraction=0.01, swarming=False)
    swarm = make_swarm([[0.0, 0.0, 0.0]])  # raw_fitness nan
    f.calls = 0
    swim_loop(swarm, 0, f, cfg, fixed_tumble(f, cfg))
    assert f.calls == 2  # baseline refresh plus the tumble


def swim_by_moves(swarm, index, f, cfg, direction):
    """swim_loop move by move: each move clamped by chemotaxis_move and the
    signal taken against the swarm after it."""
    raw = swarm.raw_fitness[index]
    if not math.isfinite(raw):
        raw = float(f.evaluate_rows(swarm.positions[index:index + 1])[0])
        swarm.raw_fitness[index] = raw
    signal = (lambda p: cell_to_cell_signal(p, swarm, cfg)) if cfg.swarming \
        else (lambda p: 0.0)
    prev_eff = raw + signal(swarm.positions[index])
    for swims in range(cfg.swim_limit + 1):
        moved = chemotaxis_move(swarm.positions[index], direction,
                                step_sizes(cfg, f.bounds), f.bounds)
        swarm.positions[index] = moved
        raw = float(f.evaluate_rows(moved[None])[0])
        swarm.raw_fitness[index] = raw
        eff = raw + signal(moved)
        swarm.health[index] += eff
        if not (eff > prev_eff and swims < cfg.swim_limit):
            return eff
        prev_eff = eff


BOX = ((0.0, 1.0), (0.0, 2.0), (-1.0, 1.0))
UP = np.ones(3) / math.sqrt(3.0)
# (fitness sign, moving member's start, direction, stale baseline): the
# moving member is row 0 of a swarm whose other members sit nearby
EDGE_SWIMS = {
    # x and y reach their upper bounds on moves 4 and 5, z never does
    "bound_mid_swim": (1.0, [0.8, 1.5, 0.0], UP, False),
    # x and y start on their upper bounds and stay there
    "starts_on_upper_bound": (1.0, [1.0, 2.0, 0.3], UP, False),
    # x and z start on their lower bounds, y reaches its own on move 5
    "starts_on_lower_bound": (-1.0, [0.0, 0.5, -1.0], -UP, True),
    # mixed signs: y falls to 0 and z climbs to 1 on move 2, x climbs on
    "mixed_directions": (1.0, [0.5, 0.2, 0.9], np.array([0.8, -0.6, 0.3]),
                         False),
}


@pytest.mark.parametrize("swarming", [False, True], ids=["plain", "swarm"])
@pytest.mark.parametrize("case", sorted(EDGE_SWIMS))
def test_swim_loop_chain_equals_move_by_move_clamping(case, swarming):
    sign, start, direction, stale = EDGE_SWIMS[case]
    cfg = ss.BfaConfig(step_fraction=0.1, swarming=swarming,
                       attract_depth=0.01)
    displacement = step_sizes(cfg, BOX) * direction
    rows = [start, [0.5, 1.0, 0.0], [0.9, 1.9, 0.5], [0.2, 0.4, -0.6]]
    swarms, effs, calls = [], [], []
    for swim, move in ((swim_loop, displacement), (swim_by_moves, direction)):
        f = CountingFunction(sign=sign, bounds=BOX)
        swarm = make_swarm(rows, fitness=None if stale else f)
        swarm.health[:] = [0.5, 1.0, 2.0, 3.0]
        f.calls = 0
        effs.append(swim(swarm, 0, f, cfg, move))
        swarms.append(swarm)
        calls.append(f.calls)
    got, want = swarms
    assert np.array_equal(got.positions, want.positions)
    assert np.array_equal(got.raw_fitness, want.raw_fitness, equal_nan=True)
    assert np.array_equal(got.health, want.health)
    assert effs[0] == effs[1] and calls[0] == calls[1]
    # every case ends with the moving member on a bound
    box = np.array(BOX)
    assert np.any((got.positions[0] == box[:, 0])
                  | (got.positions[0] == box[:, 1]))


def lay_chain_by_moves(start, direction, steps, bounds, swim_limit):
    """One tumble chain move by move: the tumble row is chemotaxis_move
    from the start, and each later row is the unclamped running sum of the
    move from the clamped tumble point, clamped once."""
    box = np.asarray(bounds)
    tumble = chemotaxis_move(start, direction, steps, bounds)
    rows, walk = [start, tumble], tumble
    for _ in range(swim_limit):
        walk = walk + steps * direction
        rows.append(np.minimum(np.maximum(walk, box[:, 0]), box[:, 1]))
    return np.array(rows)


@pytest.mark.parametrize("swim_limit", [1, 5])
@pytest.mark.parametrize("runs", [1, 36])
def test_lay_chains_equals_move_by_move_chains(runs, swim_limit):
    bounds = ss.ProblemSpec().design_bounds + ss.ProblemSpec().noise_bounds
    box = np.array(bounds)
    # steps of 0.3 box widths pin most coordinates on a bound by the last
    # row, from either side
    steps = step_sizes(ss.BfaConfig(step_fraction=0.3), bounds)
    rng = np.random.default_rng(runs + swim_limit)
    starts = rng.uniform(box[:, 0], box[:, 1], (runs, 26, 6))
    directions = rng.normal(size=(runs, 26, 6))
    directions /= np.linalg.norm(directions, axis=-1, keepdims=True)
    # the engine's coordinate-major layout: (dims, swim_limit + 2, runs,
    # bacteria) chains from (dims, runs, bacteria) starts and moves
    out = np.full((6, swim_limit + 2, runs, 26), np.nan)
    got = _lay_chains(starts.transpose(2, 0, 1),
                      (steps * directions).transpose(2, 0, 1),
                      box[:, 0, None, None], box[:, 1, None, None], out)
    assert got is out
    want = np.array([[lay_chain_by_moves(start, direction, steps, bounds,
                                         swim_limit)
                      for start, direction in zip(*run)]
                     for run in zip(starts, directions)])
    got = got.transpose(2, 3, 1, 0)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.any(got[..., -1, :] == box[:, 0])
    assert np.any(got[..., -1, :] == box[:, 1])


def test_reproduce_duplicates_healthiest():
    swarm = make_swarm([[0.0], [1.0], [2.0], [3.0]])
    swarm.raw_fitness[:] = [10.0, 11.0, 12.0, 13.0]
    swarm.health[:] = [5.0, 1.0, 3.0, 2.0]
    child = reproduce(swarm)
    assert child.size == 4
    assert child.positions[:, 0].tolist() == [0.0, 0.0, 2.0, 2.0]
    assert child.raw_fitness.tolist() == [10.0, 10.0, 12.0, 12.0]
    assert child.health.tolist() == [5.0, 5.0, 3.0, 3.0]


def test_reproduce_tie_breaks_on_lowest_index():
    swarm = make_swarm([[0.0], [1.0], [2.0], [3.0]])
    swarm.health[:] = [7.0, 7.0, 7.0, 7.0]
    child = reproduce(swarm)
    assert child.positions[:, 0].tolist() == [0.0, 0.0, 1.0, 1.0]


def test_reproduce_rejects_odd_swarm():
    with pytest.raises(OddPopulation):
        reproduce(make_swarm([[0.0], [1.0], [2.0]]))


def test_eliminate_disperse_probability_extremes():
    bounds = ((-2.0, 2.0),)
    keep = ss.BfaConfig(elimination_prob=0.0)
    swarm = make_swarm([[0.5], [1.5]])
    before = swarm.positions.copy()
    eliminate_disperse(swarm, keep, np.random.default_rng(1), bounds)
    assert np.array_equal(swarm.positions, before)

    scatter = ss.BfaConfig(elimination_prob=1.0)
    f = CountingFunction(dimensions=1)
    f.bounds = bounds
    swarm = make_swarm([[0.5], [1.5]], fitness=f)
    eliminate_disperse(swarm, scatter, np.random.default_rng(1), bounds)
    assert not np.array_equal(swarm.positions, before)
    for row, raw in zip(swarm.positions, swarm.raw_fitness):
        assert -2.0 <= row[0] <= 2.0
        assert math.isnan(raw)  # stale until the optimizer scores it
    assert swarm.size == 2


def test_eliminate_disperse_covers_the_whole_box_in_2d():
    # two (lo, hi) pairs make a 2 x 2 array too; every draw must still
    # take its coordinates from its own dimension's interval
    bounds = ((-5.0, 5.0), (0.0, 20.0))
    swarm = make_swarm(np.zeros((2000, 2)))
    eliminate_disperse(swarm, ss.BfaConfig(elimination_prob=1.0),
                       np.random.default_rng(0), bounds)
    x, y = swarm.positions.T
    assert -5.0 <= x.min() < -4.9 and 4.9 < x.max() <= 5.0
    assert 0.0 <= y.min() < 0.1 and 19.9 < y.max() <= 20.0


def test_eliminate_disperse_marks_stale_without_fitness():
    swarm = make_swarm([[0.5], [1.5]])
    swarm.raw_fitness[:] = [1.0, 2.0]
    cfg = ss.BfaConfig(elimination_prob=1.0)
    eliminate_disperse(swarm, cfg, np.random.default_rng(3), ((-2.0, 2.0),))
    assert np.isnan(swarm.raw_fitness).all()


@pytest.mark.parametrize("prob", [0.0, 0.25, 1.0])
def test_eliminate_disperse_draws_one_uniform_call_per_member(prob):
    # the one (k, dims) relocation draw takes the stream of one
    # rng.uniform(lo, hi) call per relocated member, in index order, and
    # with nobody relocated it draws nothing
    box = np.array([(-1.0, 2.0), (0.0, 5.0), (3.0, 3.5)])
    start = np.random.default_rng(7).uniform(box[:, 0], box[:, 1], (20, 3))
    swarm = make_swarm(start)
    swarm.raw_fitness[:] = 1.0
    rng, mine = np.random.default_rng(11), np.random.default_rng(11)
    eliminate_disperse(swarm, ss.BfaConfig(elimination_prob=prob), rng, box)
    want = start.copy()
    relocated = mine.random(20) < prob
    masked = mine.bit_generator.state
    for i in np.flatnonzero(relocated):
        want[i] = mine.uniform(box[:, 0], box[:, 1])
    assert np.array_equal(swarm.positions, want)
    assert rng.bit_generator.state == mine.bit_generator.state
    assert np.array_equal(np.isnan(swarm.raw_fitness), relocated)
    assert relocated.any() == (prob > 0.0)
    assert relocated.all() == (prob == 1.0)
    if prob == 0.0:
        assert rng.bit_generator.state == masked


def test_eliminate_disperse_deterministic():
    cfg = ss.BfaConfig(elimination_prob=0.5)
    outcomes = []
    for _ in range(2):
        swarm = make_swarm([[0.0], [0.0], [0.0], [0.0]])
        eliminate_disperse(swarm, cfg, np.random.default_rng(11),
                           ((-1.0, 1.0),))
        outcomes.append(swarm.positions.copy())
    assert np.array_equal(outcomes[0], outcomes[1])


def quick_config(**overrides):
    base = dict(population_size=6, chemotaxis_steps=4, swim_limit=2,
                reproduction_cycles=2, elimination_cycles=2, total_passes=1,
                step_fraction=0.05, seed=5)
    base.update(overrides)
    return ss.BfaConfig(**base)


def test_run_bfa_bit_identical_reruns():
    f = ss.sphere_function(3, 2.0)
    first = ss.run_bfa(f, quick_config())
    second = ss.run_bfa(f, quick_config())
    assert first.best_fitness == second.best_fitness
    assert np.array_equal(first.best_position, second.best_position)
    assert first.trace.best_fitness == second.trace.best_fitness
    assert first.trace.evaluations == second.trace.evaluations
    different = ss.run_bfa(f, quick_config(seed=6))
    assert different.trace.best_fitness != first.trace.best_fitness


def test_run_bfa_incumbent_monotone_and_consistent():
    result = ss.run_bfa(ss.sphere_function(3, 2.0), quick_config())
    fits = result.trace.best_fitness
    assert all(b >= a for a, b in zip(fits, fits[1:]))
    assert result.best_fitness == fits[-1]
    evals = result.trace.evaluations
    assert all(b > a for a, b in zip(evals, evals[1:]))
    # one row per chemotaxis round plus the initial row
    rounds = 4 * 2 * 2  # chemotaxis * reproduction * elimination
    assert len(result.trace) == rounds + 1
    assert result.best_fitness == pytest.approx(
        -float(result.best_position @ result.best_position), rel=1e-12)


def test_run_bfa_respects_bounds(reference):
    # every position the optimizer scores, not only the incumbents, and
    # also the chain rows past a swim's stop that it scores but discards
    seen = []
    sphere = ss.sphere_function(2, 1.5)

    def rows(r):
        seen.append(np.array(r))
        return sphere.evaluate_rows(r)

    f = ss.BoxFunction(bounds=sphere.bounds, rows=rows)
    result = ss.run_bfa(f, quick_config())
    # the count is that of the points a move-by-move run scores, and the
    # trace's last count precedes the final dispersal's evaluations
    want = reference(sphere, quick_config())
    assert result.evaluations == want.evaluations \
        > result.trace.evaluations[-1]
    positions = np.concatenate(seen)
    assert np.all(positions >= -1.5) and np.all(positions <= 1.5)


def test_box_function_rows_are_scalar_values_and_finite():
    # row k of a 7-row call is the one-row call on that row, bit for bit
    f = ss.sphere_function(3)
    rows = np.random.default_rng(4).uniform(-5.0, 5.0, (7, 3))
    got = f.evaluate_rows(rows)
    assert got.shape == (7,)
    alone = np.concatenate([f.evaluate_rows(rows[k:k + 1]) for k in range(7)])
    assert np.array_equal(got.view(np.int64), alone.view(np.int64))
    for bad in (math.nan, math.inf):
        g = ss.BoxFunction(bounds=f.bounds, rows=lambda r, bad=bad:
                           np.where(r[:, 0] > 0, bad, 0.0))
        with pytest.raises(NonFiniteResult, match=r"\[1.0, 2.0, 3.0\]"):
            g.evaluate_rows(np.array([[-1.0, 0.0, 0.0], [1.0, 2.0, 3.0]]))


class PointByPoint(ss.IrrigationFitness):
    """IrrigationFitness whose evaluate_rows scores row by row with
    evaluate, so a whole run checks the many-row evaluation against
    one-row calls."""

    def evaluate_rows(self, positions):
        return np.array([self.evaluate(p) for p in positions])


class RowLog(ss.IrrigationFitness):
    """IrrigationFitness that records every row run_bfa gives
    evaluate_rows."""

    def __post_init__(self):
        super().__post_init__()
        self.rows = []

    def evaluate_rows(self, positions):
        self.rows.append(np.array(positions))
        return super().evaluate_rows(positions)


ROW_PATH_SETTINGS = {
    "coded": (ss.ProblemSpec(), quick_config(swim_limit=5)),
    "raw": (ss.ProblemSpec(variable_mode="raw"), quick_config(swim_limit=5)),
    "no_swarming": (ss.ProblemSpec(), quick_config(swarming=False)),
    "swim_limit_one": (ss.ProblemSpec(), quick_config(swim_limit=1)),
    "full_dispersal": (ss.ProblemSpec(), quick_config(elimination_prob=1.0)),
    "population_two": (ss.ProblemSpec(), quick_config(population_size=2)),
    "two_passes": (ss.ProblemSpec(), quick_config(total_passes=2)),
    # the benchmark's optimize workload: 1 x 2 x 30 rounds, defaults else
    "optimize": (ss.ProblemSpec(),
                 ss.BfaConfig(elimination_cycles=1, reproduction_cycles=2)),
}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("setting", sorted(ROW_PATH_SETTINGS))
def test_run_bfa_row_path_equals_point_path(setting, seed, reference):
    spec, cfg = ROW_PATH_SETTINGS[setting]
    cfg = replace(cfg, seed=seed)
    weights = ss.WeightVector(0.1, 0.1, 0.8)
    got = ss.run_bfa(ss.IrrigationFitness(spec, weights), cfg)
    for want in (ss.run_bfa(PointByPoint(spec, weights), cfg),
                 reference(ss.IrrigationFitness(spec, weights), cfg)):
        assert np.array_equal(got.best_position, want.best_position)
        assert got.best_fitness == want.best_fitness
        assert got.trace.best_fitness == want.trace.best_fitness
        assert got.trace.evaluations == want.trace.evaluations
        assert got.evaluations == want.evaluations


def test_run_bfa_row_path_scores_rows_past_the_stop_inside_the_box(
        reference):
    # every swim row of a tumble that may improve is scored, rows past a
    # stop included; those rows are not counted, and like every other
    # scored point they lie inside the box
    spec, cfg = ROW_PATH_SETTINGS["coded"]
    weights = ss.WeightVector(0.1, 0.1, 0.8)
    f = RowLog(spec, weights)
    got = ss.run_bfa(f, cfg)
    seen = np.concatenate(f.rows)
    box = np.array(f.bounds)
    assert np.all((seen >= box[:, 0]) & (seen <= box[:, 1]))
    assert got.evaluations == reference(ss.IrrigationFitness(spec, weights),
                                        cfg).evaluations
    assert len(seen) > got.evaluations


def test_run_bfa_validates_problem():
    f = ss.BoxFunction(bounds=((0.0, 1.0), (0.0, 1.0)),
                       rows=lambda r: np.zeros(len(r)))
    f.bounds = ((1.0, 0.0), (0.0, 1.0))
    with pytest.raises(ValidationError, match="empty interval"):
        ss.run_bfa(f, quick_config())


def test_box_function_validates_bounds():
    with pytest.raises(ValidationError, match="at least one bound"):
        ss.BoxFunction(bounds=(), rows=lambda r: np.zeros(len(r)))
    with pytest.raises(ValidationError, match="empty"):
        ss.BoxFunction(bounds=((0.0, 1.0), (2.0, 1.0)),
                       rows=lambda r: np.zeros(len(r)))


class RowsOnly:
    """A problem with only what the optimizer needs: a box and a row
    scorer, here the negated sphere."""

    def __init__(self, bounds):
        self.bounds = bounds

    def evaluate_rows(self, positions):
        return -_row_dots(positions)


def test_rows_only_problem_runs_through_run_bfa_and_the_reference(
        reference):
    # a plain class with bounds and evaluate_rows, and no other member,
    # runs through run_bfa and through the move-by-move reference, and
    # both give the sphere's run
    sphere = ss.sphere_function(4, 2.0)
    f = RowsOnly(sphere.bounds)
    cfg = quick_config()
    want = ss.run_bfa(sphere, cfg)
    for got in (ss.run_bfa(f, cfg), reference(f, cfg)):
        assert np.array_equal(got.best_position, want.best_position)
        assert got.best_fitness == want.best_fitness
        assert got.trace.best_fitness == want.trace.best_fitness
        assert got.trace.evaluations == want.trace.evaluations
        assert got.evaluations == want.evaluations


def test_trace_csv_roundtrip(tmp_path):
    result = ss.run_bfa(ss.sphere_function(2, 1.0), quick_config())
    path = tmp_path / "trace.csv"
    result.trace.write_csv(str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "iteration,best_fitness,evaluations"
    assert len(lines) == len(result.trace) + 1
    for it, (line, fit, ev) in enumerate(zip(lines[1:],
                                             result.trace.best_fitness,
                                             result.trace.evaluations)):
        cells = line.split(",")
        assert int(cells[0]) == it
        assert float(cells[1]) == fit  # repr round-trips exactly
        assert int(cells[2]) == ev


def test_trace_csv_rewrites_a_longer_file_as_the_csv_module_writes(tmp_path):
    # a longer old file must keep none of its bytes past the new text, and
    # the rows are the bytes csv.writer writes
    trace = ss.RunTrace(best_fitness=[-math.inf, -1.5, 0.1 + 0.2, 1e300],
                        evaluations=[26, 40, 51, 77])
    path = tmp_path / "trace.csv"
    path.write_bytes(b"x" * 5000 + b"\r\n")
    trace.write_csv(str(path))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(trace.CSV_HEADER)
    for it, (fit, ev) in enumerate(zip(trace.best_fitness,
                                       trace.evaluations)):
        writer.writerow([it, repr(fit), ev])
    assert path.read_bytes() == buf.getvalue().encode("utf-8")
