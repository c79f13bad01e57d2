"""The lockstep engine and run_bfa against a move-by-move reference run,
run by run and bit for bit: one run takes the single-run walk, several runs
the two-stage step."""

from dataclasses import replace

import numpy as np
import pytest

import solarswarm as ss
from solarswarm.bfa import (
    _row_dots,
    _tumble_round,
    run_bfa_lockstep,
    tumble_direction,
)
from solarswarm.irrigation import evaluate_rows

SMALL = ss.BfaConfig(population_size=10, chemotaxis_steps=5,
                     reproduction_cycles=2, elimination_cycles=2)

SETTINGS = {
    "coded": (ss.ProblemSpec(), SMALL),
    "raw_two_passes": (ss.ProblemSpec(variable_mode="raw"),
                       replace(SMALL, total_passes=2)),
    "no_swarming_full_dispersal": (ss.ProblemSpec(),
                                   replace(SMALL, swarming=False,
                                           elimination_prob=1.0)),
    "no_dispersal": (ss.ProblemSpec(), replace(SMALL, elimination_prob=0.0)),
    "swim_limit_one": (ss.ProblemSpec(), replace(SMALL, swim_limit=1)),
}

MIXED = [(w, rep) for w in ss.weight_grid(step=0.5, minimum=0.0)[:4]
         for rep in range(2)]
SINGLE = [(ss.WeightVector(0.1, 0.1, 0.8), 0)]


def lockstep(spec, cfg, cells):
    table = np.array([w.as_tuple() for w, _ in cells])
    seeds = [ss.derive_seed(cfg.seed, w, rep) for w, rep in cells]
    results = run_bfa_lockstep(
        lambda runs, positions: evaluate_rows(spec, table[runs], positions),
        spec.design_bounds + spec.noise_bounds, cfg, seeds)
    return seeds, results


def assert_same_run(got, want):
    assert np.array_equal(got.best_position, want.best_position)
    assert got.best_fitness == want.best_fitness
    assert got.trace.best_fitness == want.trace.best_fitness
    assert got.trace.evaluations == want.trace.evaluations
    assert got.evaluations == want.evaluations


def assert_both_match_reference(got, f, cfg, reference):
    """The lockstep result and run_bfa's both equal the reference run."""
    want = reference(f, cfg)
    assert_same_run(got, want)
    assert_same_run(ss.run_bfa(f, cfg), want)


@pytest.mark.parametrize("cells", [SINGLE, MIXED], ids=["R1", "mixed"])
@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_lockstep_equals_run_bfa(setting, cells, reference):
    spec, cfg = SETTINGS[setting]
    seeds, results = lockstep(spec, cfg, cells)
    assert len(results) == len(cells)
    for (weights, _), seed, got in zip(cells, seeds, results):
        assert_both_match_reference(got, ss.IrrigationFitness(spec, weights),
                                    replace(cfg, seed=seed), reference)


@pytest.mark.parametrize("dimensions", [1, 2, 3])
def test_lockstep_equals_run_bfa_on_sphere(dimensions, reference):
    # every bacterium disperses, so a box read the wrong way shows; a
    # 2-d box is the one whose (lo, hi) pairs form a square array
    f = ss.sphere_function(dimensions)
    cfg = replace(SMALL, elimination_prob=1.0)
    seeds = [0, 1, 2]
    results = run_bfa_lockstep(lambda runs, positions: -_row_dots(positions),
                               f.bounds, cfg, seeds)
    for seed, got in zip(seeds, results):
        assert_both_match_reference(got, f, replace(cfg, seed=seed),
                                    reference)


def test_lockstep_breaks_ties_like_run_bfa(reference):
    # a stepped fitness makes equal healths, equal evaluations and equal
    # incumbents common; 40 bacteria take numpy's sort past its small-array
    # path, where an unstable sort would reorder equal healths
    box = ((0.0, 4.0),) * 3
    f = ss.BoxFunction(dimension=3, bounds=box,
                       fn=lambda p: float(np.floor(p.sum() / 4.0)))
    cfg = replace(SMALL, population_size=40, elimination_prob=0.5,
                  swarming=False)
    seeds = [3, 4, 5]
    results = run_bfa_lockstep(
        lambda runs, positions: np.floor(positions.sum(axis=1) / 4.0), box,
        cfg, seeds)
    for seed, got in zip(seeds, results):
        assert_both_match_reference(got, f, replace(cfg, seed=seed),
                                    reference)


class RowLog:
    """Lockstep evaluate callback that records every row it is given."""

    def __init__(self, evaluate):
        self.evaluate = evaluate
        self.rows = []

    def __call__(self, runs, positions):
        self.rows.append(np.array(positions))
        return self.evaluate(runs, positions)

    def seen(self):
        return np.concatenate(self.rows)


def test_lockstep_without_improving_tumbles_never_swims(reference):
    # swarming off and a constant fitness: no tumble improves, so no run
    # reaches the second stage and every evaluated row is counted
    box = ((-1.0, 1.0),) * 3
    f = ss.BoxFunction(dimension=3, bounds=box, fn=lambda p: 2.5)
    cfg = replace(SMALL, swarming=False)
    seeds = [0, 1, 2]
    log = RowLog(lambda runs, positions: np.full(len(positions), 2.5))
    results = run_bfa_lockstep(log, box, cfg, seeds)
    for seed, got in zip(seeds, results):
        assert_both_match_reference(got, f, replace(cfg, seed=seed),
                                    reference)
    assert len(log.seen()) == sum(got.evaluations for got in results)


def test_lockstep_evaluates_swims_past_the_stop_inside_the_box(reference):
    # the second stage evaluates every swim row of an improving tumble,
    # also rows past the move where the run stops; they are not counted,
    # and like every other evaluated point they lie inside the box
    spec, cfg = SETTINGS["coded"]
    table = np.array([w.as_tuple() for w, _ in MIXED])
    seeds = [ss.derive_seed(cfg.seed, w, rep) for w, rep in MIXED]
    log = RowLog(lambda runs, positions: evaluate_rows(spec, table[runs],
                                                       positions))
    box = np.array(spec.design_bounds + spec.noise_bounds)
    results = run_bfa_lockstep(log, box, cfg, seeds)
    seen = log.seen()
    assert np.all((seen >= box[:, 0]) & (seen <= box[:, 1]))
    for (weights, _), seed, got in zip(MIXED, seeds, results):
        want = reference(ss.IrrigationFitness(spec, weights),
                         replace(cfg, seed=seed))
        assert got.evaluations == want.evaluations
    assert len(seen) > sum(got.evaluations for got in results)


def test_evaluate_rows_matches_scalar_evaluator():
    spec = ss.ProblemSpec(variable_mode="raw")
    rng = np.random.default_rng(3)
    box = np.array(spec.design_bounds + spec.noise_bounds)
    positions = rng.uniform(box[:, 0], box[:, 1], (50, 6))
    grid = ss.weight_grid()
    weights = [grid[k % len(grid)] for k in range(50)]
    rows = evaluate_rows(spec, np.array([w.as_tuple() for w in weights]),
                         positions)
    for value, w, p in zip(rows, weights, positions):
        assert value == ss.IrrigationFitness(spec, w).evaluate(p)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_evaluate_rows_rejects_non_finite():
    with pytest.raises(ss.errors.NonFiniteResult):
        evaluate_rows(ss.ProblemSpec(), np.full((2, 3), 1 / 3),
                      np.array([[1.0, 480.0, 600.0, 0.1, 295.0, 900.0],
                                [np.inf, 480.0, 600.0, 0.1, 295.0, 900.0]]))


class ScriptedRng:
    """Serves uniform draws from a fixed list, in order, whatever the size."""

    def __init__(self, values):
        self.values = list(values)
        self.used = 0

    def uniform(self, low, high, size=None):
        shape = (size,) if isinstance(size, int) else size
        n = int(np.prod(shape))
        out = np.array(self.values[self.used:self.used + n], dtype=float)
        self.used += n
        return out.reshape(shape)


def test_tumble_round_redraws_zero_rows_like_tumble_direction():
    rng = np.random.default_rng(5)
    dims, population = 3, 4
    chunks = [rng.uniform(-1, 1, dims) for _ in range(7)]
    zero = np.zeros(dims)
    # zero rows at the front, in the middle, back to back, and among the
    # redraws themselves
    script = np.concatenate([zero, chunks[0], zero, zero, chunks[1], zero,
                             chunks[2], chunks[3], zero, chunks[4],
                             chunks[5], chunks[6]])
    scalar_rng = ScriptedRng(script)
    want = np.array([tumble_direction(dims, scalar_rng)
                     for _ in range(population)])
    batch_rng = ScriptedRng(script)
    got = _tumble_round(batch_rng, population, dims)
    assert np.array_equal(got, want)
    assert batch_rng.used == scalar_rng.used
    plain, plain_again = np.random.default_rng(9), np.random.default_rng(9)
    assert np.array_equal(_tumble_round(plain, population, dims), np.array(
        [tumble_direction(dims, plain_again) for _ in range(population)]))


def test_tumble_block_equals_one_call_per_round():
    # one reproduction cycle's tumbles in one call, as both engines draw
    # them, against one call per chemotaxis round; zero rows sit on the
    # last row of round 0 and the first row of round 1 of the block
    rng = np.random.default_rng(6)
    dims, population, rounds = 2, 3, 3
    chunks = [rng.uniform(-1, 1, dims) for _ in range(rounds * population)]
    zero = np.zeros(dims)
    script = np.concatenate(chunks[:2] + [zero, zero] + chunks[2:])
    per_round = ScriptedRng(script)
    want = np.concatenate([_tumble_round(per_round, population, dims)
                           for _ in range(rounds)])
    block = ScriptedRng(script)
    got = _tumble_round(block, rounds * population, dims)
    assert np.array_equal(got, want)
    assert block.used == per_round.used == len(script)
    assert np.array_equal(got, np.array(
        [tumble_direction(dims, ScriptedRng(c)) for c in chunks]))


def test_lockstep_validation():
    spec = ss.ProblemSpec()
    with pytest.raises(ss.errors.ValidationError):
        lockstep(spec, SMALL, [])
    with pytest.raises(ss.errors.ValidationError):
        run_bfa_lockstep(lambda runs, positions: None,
                         ((1.0, 0.0), (0.0, 1.0)), SMALL, [0])
