"""The lockstep engine and run_bfa against a move-by-move reference run,
run by run and bit for bit, for one run and for several: with turns whose
swim decisions the signal bounds settle, turns they leave open, and both."""

import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import solarswarm as ss
from solarswarm import bfa
from solarswarm.bfa import (
    _order_settled,
    _row_dots,
    _take_first_best,
    _tumble_round,
    eliminate_disperse,
    reproduce,
    run_bfa_lockstep,
    tumble_direction,
)
from solarswarm.irrigation import _ROW_BLOCK, _surfaces, _weighted_sum

SMALL = ss.BfaConfig(population_size=10, chemotaxis_steps=5,
                     reproduction_cycles=2, elimination_cycles=2)
# zero depths: the swarm without its cell-to-cell signal
NO_SIGNAL = {"attract_depth": 0.0, "repel_height": 0.0}

SETTINGS = {
    "coded": (ss.ProblemSpec(), SMALL),
    # two passes of SMALL's dispersals, as one loop count
    "raw_two_passes": (ss.ProblemSpec(variable_mode="raw"),
                       replace(SMALL, elimination_cycles=4)),
    "no_swarming_full_dispersal": (ss.ProblemSpec(),
                                   replace(SMALL, **NO_SIGNAL,
                                           elimination_prob=1.0)),
    "no_dispersal": (ss.ProblemSpec(), replace(SMALL, elimination_prob=0.0)),
    "swim_limit_one": (ss.ProblemSpec(), replace(SMALL, swim_limit=1)),
}

MIXED = [(w, rep) for w in ss.weight_grid(step=0.5, minimum=0.0)[:4]
         for rep in range(2)]
SINGLE = [(ss.WeightVector(0.1, 0.1, 0.8), 0)]


def weighted(spec, table):
    """evaluate(runs, positions) for a batch whose run k maximizes
    table[k] . f: row i's F under the weights of run runs[i], from the
    problem's row kernel."""
    kernel = _surfaces(spec).objective_rows
    return lambda runs, positions: _weighted_sum(table[runs].T,
                                                 kernel(positions))


def lockstep(spec, cfg, cells):
    table = np.array([w.as_tuple() for w, _ in cells])
    seeds = [ss.derive_seed(cfg.seed, w, rep) for w, rep in cells]
    results = run_bfa_lockstep(weighted(spec, table),
                               spec.design_bounds + spec.noise_bounds, cfg,
                               seeds)
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


@pytest.mark.parametrize("dimensions", [1, 2, 3, 4])
def test_lockstep_equals_run_bfa_on_sphere(dimensions, reference):
    # every bacterium disperses, so a box read the wrong way shows; a
    # 2-d box is the one whose (lo, hi) pairs form a square array. From 4
    # coordinates on, the row dots of column-ordered rows round otherwise,
    # so the rows are made contiguous as run_bfa makes them
    f = ss.sphere_function(dimensions)
    cfg = replace(SMALL, elimination_prob=1.0)
    seeds = [0, 1, 2]
    results = run_bfa_lockstep(
        lambda runs, positions: -_row_dots(np.ascontiguousarray(positions)),
        f.bounds, cfg, seeds)
    for seed, got in zip(seeds, results):
        assert_both_match_reference(got, f, replace(cfg, seed=seed),
                                    reference)


def test_lockstep_breaks_ties_like_run_bfa(reference):
    # a stepped fitness makes equal healths, equal evaluations and equal
    # incumbents common; 40 bacteria take numpy's sort past its small-array
    # path, where an unstable sort would reorder equal healths
    box = ((0.0, 4.0),) * 3
    f = ss.BoxFunction(bounds=box,
                       rows=lambda r: np.floor(r.sum(axis=1) / 4.0))
    cfg = replace(SMALL, population_size=40, elimination_prob=0.5,
                  **NO_SIGNAL)
    seeds = [3, 4, 5]
    results = run_bfa_lockstep(
        lambda runs, positions: np.floor(positions.sum(axis=1) / 4.0), box,
        cfg, seeds)
    for seed, got in zip(seeds, results):
        assert_both_match_reference(got, f, replace(cfg, seed=seed),
                                    reference)


@pytest.fixture()
def walks(monkeypatch):
    """A list that gains the index of every bacterium walked by
    _swim_chain outside a replay: the turns whose swim decisions the
    signal bounds leave open, and every swim_loop call. The walks of a
    replayed cycle (_exact_health) are not logged."""
    walked, replaying = [], []
    walk, replay = bfa._swim_chain, bfa._exact_health

    def logged(swarm, index, *rest):
        if not replaying:
            walked.append(index)
        return walk(swarm, index, *rest)

    def unlogged(*args):
        replaying.append(True)
        try:
            return replay(*args)
        finally:
            replaying.pop()

    monkeypatch.setattr(bfa, "_swim_chain", logged)
    monkeypatch.setattr(bfa, "_exact_health", unlogged)
    return walked


def turns(cfg, runs):
    """Bacterium turns in `runs` runs of cfg."""
    return runs * cfg.population_size * cfg.elimination_cycles \
        * cfg.reproduction_cycles * cfg.chemotaxis_steps


@pytest.mark.parametrize("seeds", [[4], [4, 5, 6]], ids=["R1", "R3"])
def test_lockstep_walks_every_turn_of_a_constant_fitness(seeds, walks,
                                                         reference):
    # raw fitness never changes, so no bound settles a swim decision: the
    # signal alone decides, and every bacterium walks against the swarm
    # its predecessors left
    box = ((-1.0, 1.0),) * 3
    f = ss.BoxFunction(bounds=box, rows=lambda r: np.full(len(r), 2.5))
    cfg = replace(SMALL, attract_depth=0.3, repel_width=0.5)
    results = run_bfa_lockstep(
        lambda runs, positions: np.full(len(positions), 2.5), box, cfg, seeds)
    assert len(walks) == turns(cfg, len(seeds))
    assert walks[:cfg.population_size] == list(range(cfg.population_size))
    for seed, got in zip(seeds, results):
        assert_both_match_reference(got, f, replace(cfg, seed=seed),
                                    reference)


@pytest.mark.parametrize("cells", [SINGLE, MIXED], ids=["R1", "mixed"])
def test_lockstep_mixes_settled_and_walked_turns(cells, walks, reference):
    # deep attraction wells and high repulsion bumps widen the signal
    # bounds to the size of many raw fitness steps: some swim decisions
    # are settled from raw fitness, the rest are walked
    spec = ss.ProblemSpec()
    cfg = replace(SMALL, attract_depth=1e5, repel_height=5e4)
    seeds, results = lockstep(spec, cfg, cells)
    assert 0 < len(walks) < turns(cfg, len(cells))
    for (weights, _), seed, got in zip(cells, seeds, results):
        assert_both_match_reference(got, ss.IrrigationFitness(spec, weights),
                                    replace(cfg, seed=seed), reference)


@pytest.fixture()
def replays(monkeypatch):
    """A list that gains the number of runs of every _exact_health call:
    the runs whose reproduction cycle is replayed."""
    calls = []
    replay = bfa._exact_health

    def counted(evaluate, runs, *rest):
        calls.append(len(runs))
        return replay(evaluate, runs, *rest)

    monkeypatch.setattr(bfa, "_exact_health", counted)
    return calls


@pytest.mark.parametrize("cells", [[(SINGLE[0][0], 3)], MIXED],
                         ids=["R1", "mixed"])
def test_lockstep_replays_the_rankings_its_radii_leave_open(
        cells, replays, reference):
    # signal bounds the size of many raw fitness steps leave wide health
    # radii, so some reproductions cannot be ranked from the signal-free
    # health, and their cycles are replayed with every signal (twice in
    # the one run, once among the mixed ones)
    spec = ss.ProblemSpec()
    cfg = replace(SMALL, attract_depth=1e5, repel_height=5e4)
    seeds, results = lockstep(spec, cfg, cells)
    assert replays
    for (weights, _), seed, got in zip(cells, seeds, results):
        assert_both_match_reference(got, ss.IrrigationFitness(spec, weights),
                                    replace(cfg, seed=seed), reference)


def test_lockstep_ranks_the_benchmark_sweep_without_signals(replays,
                                                            reference):
    # the benchmark's sweep batch (36 weights, one replicate, the
    # shortened optimizer): every ranking is settled from the signal-free
    # health, so no cycle is replayed. A run gives the same bytes alone or
    # in a batch, so every seventh run is checked
    spec = ss.ProblemSpec()
    cfg = replace(ss.BfaConfig(), elimination_cycles=1, reproduction_cycles=2)
    cells = [(w, 0) for w in ss.weight_grid()]
    seeds, results = lockstep(spec, cfg, cells)
    assert replays == []
    for (weights, _), seed, got in list(zip(cells, seeds, results))[::7]:
        assert_same_run(got, reference(ss.IrrigationFitness(spec, weights),
                                       replace(cfg, seed=seed)))


def test_lockstep_ranks_tied_exact_healths_without_replay(replays,
                                                          reference):
    # zero depths and a constant fitness: every health is exact (radius 0)
    # and all of them tie, so the stable sort ranks them by index and
    # nothing is replayed; 40 bacteria take numpy's sort past its
    # small-array path
    box = ((-1.0, 1.0),) * 3
    f = ss.BoxFunction(bounds=box, rows=lambda r: np.full(len(r), 2.5))
    cfg = replace(SMALL, population_size=40, **NO_SIGNAL)
    seeds = [0, 1]
    results = run_bfa_lockstep(
        lambda runs, positions: np.full(len(positions), 2.5), box, cfg, seeds)
    assert replays == []
    for seed, got in zip(seeds, results):
        assert_both_match_reference(got, f, replace(cfg, seed=seed),
                                    reference)


@pytest.mark.parametrize("seed", range(20))
def test_take_first_best_keeps_the_first_maximum_in_walk_order(seed):
    # values[m, k, i] is run k's bacterium i's move m, laid move-major; the
    # walk takes bacterium by bacterium, each one's moves in order, and
    # small integer values tie across bacteria and across moves
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 4, (7, 3, 5)).astype(float)
    values[rng.random(values.shape) < 0.3] = -np.inf
    points = rng.normal(size=(2,) + values.shape)
    best_fitness = np.array([-np.inf, 1.0, 2.0])
    best_position = np.zeros((3, 2))
    want_fitness, want_position = best_fitness.copy(), best_position.copy()
    for k in range(3):
        for i in range(5):
            for m in range(7):
                if values[m, k, i] > want_fitness[k]:
                    want_fitness[k] = values[m, k, i]
                    want_position[k] = points[:, m, k, i]
    _take_first_best(best_fitness, best_position, values, points)
    assert np.array_equal(best_fitness, want_fitness)
    assert np.array_equal(best_position, want_position)


def test_order_settled_needs_the_top_half_before_every_member_after_it():
    # four bacteria, top half of two: the second must surely come before
    # every member after it, not only the third; the order of the bottom
    # half does not matter, and exact healths rank ties by index
    health = np.array([[10.0, 5.0, 4.9, 4.8]] * 4
                      + [[10.0, 9.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]])
    radius = np.array([[0.0, 0.0, 0.0, 100.0],
                       [0.0, 0.0, 0.0, 0.01],
                       [0.0, 0.06, 0.06, 0.0],
                       [0.0, 0.0, 0.0, 0.0],
                       [0.0, 0.0, 5.0, 5.0],
                       [0.0, 0.0, 0.0, 0.0]])
    assert _order_settled(health, radius).tolist() == [
        False, True, False, True, True, True]


def test_lockstep_without_swarming_settles_every_turn(walks):
    # with zero depths the bounds are 0, so raw fitness decides every
    # swim exactly, ties included
    spec, cfg = SETTINGS["no_swarming_full_dispersal"]
    lockstep(spec, cfg, MIXED)
    box = ((0.0, 4.0),) * 3
    run_bfa_lockstep(lambda runs, positions: np.floor(positions.sum(axis=1)),
                     box, replace(cfg, population_size=40), [3, 4])
    assert walks == []


class RowLog:
    """Lockstep evaluate callback that records every row it is given, and
    the run of each."""

    def __init__(self, evaluate):
        self.evaluate = evaluate
        self.rows, self.runs = [], []

    def __call__(self, runs, positions):
        self.rows.append(np.array(positions))
        self.runs.append(np.array(runs))
        return self.evaluate(runs, positions)

    def seen(self):
        return np.concatenate(self.rows)


@pytest.mark.parametrize("cells", [[(SINGLE[0][0], 3)], MIXED],
                         ids=["R1", "mixed"])
def test_replay_health_equals_the_reference_health(cells, monkeypatch,
                                                   reference):
    # a replayed cycle runs its chemotaxis rounds again with no signal
    # bound, so every bacterium is walked exactly: the health it ranks by
    # is, bit for bit, the health the move-by-move reference ranks by at
    # that reproduction
    spec = ss.ProblemSpec()
    cfg = replace(SMALL, attract_depth=1e5, repel_height=5e4)
    ranked, replayed = [], {}
    replay, rank = bfa._exact_health, bfa.reproduce

    def logged_rank(swarm):
        ranked.append(swarm.health.copy())
        return rank(swarm)

    def logged(evaluate, runs, *rest):
        health = replay(evaluate, runs, *rest)
        # the engine ranks every run once a reproduction, after its replay
        for run, exact in zip(runs.tolist(), health):
            replayed[run, len(ranked) // len(cells)] = exact.copy()
        return health

    monkeypatch.setattr(bfa, "reproduce", logged_rank)
    monkeypatch.setattr(bfa, "_exact_health", logged)
    seeds, _ = lockstep(spec, cfg, cells)
    assert replayed
    monkeypatch.setattr(sys.modules[reference.__module__], "reproduce",
                        logged_rank)
    for run in sorted({run for run, _ in replayed}):
        ranked.clear()
        reference(ss.IrrigationFitness(spec, cells[run][0]),
                  replace(cfg, seed=seeds[run]))
        for (replayed_run, cycle), exact in replayed.items():
            if replayed_run == run:
                assert exact.tobytes() == ranked[cycle].tobytes()


def test_lockstep_reproduces_and_disperses_through_the_gate_helpers(
        monkeypatch):
    # every run of a batch reproduces through reproduce and disperses
    # through eliminate_disperse, once a reproduction and once a
    # dispersal
    calls = {"reproduce": 0, "eliminate_disperse": 0}
    for name in calls:
        helper = getattr(bfa, name)

        def counted(*args, name=name, helper=helper):
            calls[name] += 1
            return helper(*args)

        monkeypatch.setattr(bfa, name, counted)
    spec, cfg = SETTINGS["raw_two_passes"]
    lockstep(spec, cfg, MIXED)
    dispersals = len(MIXED) * cfg.elimination_cycles
    assert calls == {"reproduce": dispersals * cfg.reproduction_cycles,
                     "eliminate_disperse": dispersals}


def test_lockstep_without_improving_tumbles_never_swims(reference):
    # zero depths and a constant fitness: no tumble improves, so no swim
    # row is scored and every evaluated row is counted
    box = ((-1.0, 1.0),) * 3
    f = ss.BoxFunction(bounds=box, rows=lambda r: np.full(len(r), 2.5))
    cfg = replace(SMALL, **NO_SIGNAL)
    seeds = [0, 1, 2]
    log = RowLog(lambda runs, positions: np.full(len(positions), 2.5))
    results = run_bfa_lockstep(log, box, cfg, seeds)
    for seed, got in zip(seeds, results):
        assert_both_match_reference(got, f, replace(cfg, seed=seed),
                                    reference)
    assert len(log.seen()) == sum(got.evaluations for got in results)


def test_lockstep_evaluates_swims_past_the_stop_inside_the_box(reference):
    # every swim row of a tumble that may improve is evaluated, also rows
    # past the move where the run stops; they are not counted, and like
    # every other evaluated point they lie inside the box
    spec, cfg = SETTINGS["coded"]
    table = np.array([w.as_tuple() for w, _ in MIXED])
    seeds = [ss.derive_seed(cfg.seed, w, rep) for w, rep in MIXED]
    log = RowLog(weighted(spec, table))
    box = np.array(spec.design_bounds + spec.noise_bounds)
    results = run_bfa_lockstep(log, box, cfg, seeds)
    seen = log.seen()
    assert np.all((seen >= box[:, 0]) & (seen <= box[:, 1]))
    for (weights, _), seed, got in zip(MIXED, seeds, results):
        want = reference(ss.IrrigationFitness(spec, weights),
                         replace(cfg, seed=seed))
        assert got.evaluations == want.evaluations
    assert len(seen) > sum(got.evaluations for got in results)


@pytest.mark.parametrize("prob", [0.0, 1.0])
def test_only_stale_members_are_scored_outside_the_rounds(prob, monkeypatch):
    # outside the chemotaxis rounds, evaluate scores only stale members,
    # every run's in one call in (run, bacterium) order: first the fresh
    # Swarm.random swarms, then each dispersal's relocated members. With
    # none relocated a dispersal makes no call; with all, one call scores
    # every member of every run
    spec, cfg = SETTINGS["coded"]
    cfg = replace(cfg, elimination_prob=prob)
    table = np.array([w.as_tuple() for w, _ in MIXED])
    seeds = [ss.derive_seed(cfg.seed, w, rep) for w, rep in MIXED]
    log = RowLog(weighted(spec, table))
    inside, chemotaxis_round = set(), bfa._chemotaxis_round

    def counted(*args):
        first = len(log.rows)
        result = chemotaxis_round(*args)
        inside.update(range(first, len(log.rows)))
        return result

    monkeypatch.setattr(bfa, "_chemotaxis_round", counted)
    box = np.array(spec.design_bounds + spec.noise_bounds)
    run_bfa_lockstep(log, box, cfg, seeds)
    outside = [k for k in range(len(log.rows)) if k not in inside]
    dispersals = cfg.elimination_cycles
    assert outside[0] == 0
    assert len(outside) == (1 if prob == 0.0 else 1 + dispersals)
    everyone = np.repeat(np.arange(len(seeds)), cfg.population_size)
    for k in outside:
        assert np.array_equal(log.runs[k], everyone)
    fresh = [ss.Swarm.random(cfg.population_size, box[:, 0], box[:, 1],
                             np.random.default_rng(seed)).positions
             for seed in seeds]
    assert np.array_equal(log.rows[0], np.concatenate(fresh))


def test_evaluate_rows_matches_scalar_evaluator():
    spec = ss.ProblemSpec(variable_mode="raw")
    rng = np.random.default_rng(3)
    box = np.array(spec.design_bounds + spec.noise_bounds)
    positions = rng.uniform(box[:, 0], box[:, 1], (50, 6))
    grid = ss.weight_grid()
    weights = [grid[k % len(grid)] for k in range(50)]
    rows = _weighted_sum(np.array([w.as_tuple() for w in weights]).T,
                         _surfaces(spec).objective_rows(positions))
    for value, w, p in zip(rows, weights, positions):
        assert value == ss.IrrigationFitness(spec, w).evaluate(p)


def test_irrigation_evaluate_rows_ignores_the_layout_of_its_rows(
        literal_objectives):
    # the sweep's engine passes the column-ordered transpose of (dims, m)
    # arrays, with no copy. Every layout must give the printed polynomials
    # summed left to right, bit for bit, at the sizes where the evaluator's
    # one reduce over the terms has the fewest elements beside the term
    # axis, and on each side of a block boundary
    spec = ss.ProblemSpec()
    f = ss.IrrigationFitness(spec, ss.WeightVector(0.2, 0.3, 0.5))
    box = np.array(f.bounds)
    for m in (1, 2, _ROW_BLOCK, _ROW_BLOCK + 1):
        rows = np.random.default_rng(m).uniform(box[:, 0], box[:, 1], (m, 6))
        power, efficiency, savings = literal_objectives(*rows.T, spec)
        want = 0.2 * power + 0.3 * efficiency + 0.5 * savings
        for layout in (np.ascontiguousarray(rows), np.asfortranarray(rows),
                       np.ascontiguousarray(rows.T).T,
                       np.repeat(rows, 2, axis=0)[::2]):
            got = f.evaluate_rows(layout)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), m


@pytest.mark.parametrize("dimensions", [4, 6])
def test_run_bfa_hands_evaluate_rows_contiguous_rows(dimensions):
    # a row dot of a column-ordered row rounds otherwise from 4 coordinates
    # on, so a row's value would depend on the layout of the rows it came in
    f = ss.sphere_function(dimensions)
    score, layouts = f.evaluate_rows, []

    def evaluate_rows(positions):
        layouts.append(positions.flags.c_contiguous)
        return score(positions)

    f.evaluate_rows = evaluate_rows
    ss.run_bfa(f, SMALL)
    assert layouts and all(layouts)


def test_overflowing_health_raises_before_reproduction(monkeypatch):
    # every raw fitness is finite, near 1e307, but as the swarm climbs a
    # cycle's health sum leaves the floats: the engine raises, and
    # reproduce has ranked only finite healths until then
    healths = []

    def recording(swarm):
        healths.append(swarm.health.copy())
        return reproduce(swarm)

    monkeypatch.setattr(bfa, "reproduce", recording)
    f = ss.BoxFunction(((-1.0, 1.0),) * 2,
                       rows=lambda r: 1e306 * (2.0 + 8.0 * r[:, 0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ss.errors.NonFiniteResult,
                           match="^a chemotaxis round left the floats: "):
            ss.run_bfa(f, ss.BfaConfig(chemotaxis_steps=6))
    assert healths  # cycles before the overflow reproduced
    assert all(np.isfinite(health).all() for health in healths)


@pytest.mark.parametrize("phase", ["the first scoring",
                                   "a dispersal's rescoring"])
def test_evaluations_outside_the_rounds_raise_one_named_error(phase,
                                                              monkeypatch):
    # numpy's raise mode covers the whole nest, the scorings of fresh and
    # dispersed swarms too: a value that overflows there is one
    # NonFiniteResult naming its phase, and numpy warns nothing
    dispersed = []

    def recording(*args):
        dispersed.append(True)
        return eliminate_disperse(*args)

    monkeypatch.setattr(bfa, "eliminate_disperse", recording)
    overflows = dispersed if phase == "a dispersal's rescoring" else [True]

    def evaluate(runs, positions):
        values = np.ones(len(positions))
        return values * 1e308 * 10.0 if overflows else values

    cfg = replace(SMALL, elimination_prob=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ss.errors.NonFiniteResult,
                           match=f"^{phase} left the floats: overflow "):
            run_bfa_lockstep(evaluate, ((0.0, 1.0),) * 2, cfg, [1, 2])


@pytest.mark.parametrize("setting", ["settled", "coded", "open"])
def test_round_counts_the_moves_its_mask_holds(setting, walks, replays,
                                               monkeypatch):
    # the engine counts evaluations from the moves each bacterium made,
    # which must be the rows of the mask of moves made: with every swim
    # decision settled, and with walked bacteria (whose walks overwrite
    # their counts) and replayed cycles
    rounds = []
    chemotaxis_round = bfa._chemotaxis_round

    def checked(*args):
        positions, raw, walked, made = chemotaxis_round(*args)
        assert not walked[0].any()
        assert np.array_equal(made, walked.sum(axis=0))
        rounds.append(made.sum())
        return positions, raw, walked, made

    monkeypatch.setattr(bfa, "_chemotaxis_round", checked)
    spec, cfg = SETTINGS["no_swarming_full_dispersal" if setting == "settled"
                         else "coded"]
    if setting == "open":
        # deep wells and high bumps leave swim decisions and rankings open
        cfg = replace(cfg, attract_depth=1e5, repel_height=5e4)
    lockstep(spec, cfg, MIXED)
    assert rounds
    assert bool(walks) == (setting != "settled")
    assert bool(replays) == (setting == "open")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_evaluate_rows_rejects_non_finite():
    with pytest.raises(ss.errors.NonFiniteResult):
        weighted(ss.ProblemSpec(), np.full((1, 3), 1 / 3))(
            np.zeros(2, dtype=int),
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
