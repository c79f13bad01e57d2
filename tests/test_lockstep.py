"""The lockstep engine against run_bfa, run by run and bit for bit."""

from dataclasses import replace

import numpy as np
import pytest

import solarswarm as ss
from solarswarm.bfa import _tumble_round, run_bfa_lockstep, tumble_direction
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


@pytest.mark.parametrize("cells", [SINGLE, MIXED], ids=["R1", "mixed"])
@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_lockstep_equals_run_bfa(setting, cells):
    spec, cfg = SETTINGS[setting]
    seeds, results = lockstep(spec, cfg, cells)
    assert len(results) == len(cells)
    for (weights, _), seed, got in zip(cells, seeds, results):
        want = ss.run_bfa(ss.IrrigationFitness(spec, weights),
                          replace(cfg, seed=seed))
        assert np.array_equal(got.best_position, want.best_position)
        assert got.best_fitness == want.best_fitness
        assert got.trace.iterations == want.trace.iterations
        assert got.trace.best_fitness == want.trace.best_fitness
        assert got.trace.evaluations == want.trace.evaluations
        assert all(np.array_equal(a, b) for a, b in zip(
            got.trace.best_positions, want.trace.best_positions))
        assert len(got.trace.best_positions) == len(want.trace.best_positions)


def test_lockstep_breaks_ties_like_run_bfa():
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
        want = ss.run_bfa(f, replace(cfg, seed=seed))
        assert np.array_equal(got.best_position, want.best_position)
        assert got.trace.best_fitness == want.trace.best_fitness
        assert got.trace.evaluations == want.trace.evaluations
        assert all(np.array_equal(a, b) for a, b in zip(
            got.trace.best_positions, want.trace.best_positions))


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
    plain = np.random.default_rng(9)
    got = _tumble_round([plain, batch_rng], population, dims)
    assert np.array_equal(got[1], want)
    assert batch_rng.used == scalar_rng.used
    plain_again = np.random.default_rng(9)
    assert np.array_equal(got[0], np.array(
        [tumble_direction(dims, plain_again) for _ in range(population)]))


def test_lockstep_validation():
    spec = ss.ProblemSpec()
    with pytest.raises(ss.errors.ValidationError):
        lockstep(spec, SMALL, [])
    with pytest.raises(ss.errors.ValidationError):
        run_bfa_lockstep(lambda runs, positions: None,
                         ((1.0, 0.0), (0.0, 1.0)), SMALL, [0])
