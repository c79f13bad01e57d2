import csv
import io
import itertools
import json
import math
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import solarswarm as ss
from solarswarm import pareto
from solarswarm.codec import csv_rows
from solarswarm.errors import (
    EmptyGrid,
    NonFiniteResult,
    SchemaMismatch,
    ValidationError,
    ZeroVector,
)
from solarswarm.irrigation import _ROW_BLOCK, _surfaces, _weighted_sum
from solarswarm.pareto import (
    FRONTIER_CSV_HEADER,
    frontier_from_csv_text,
    frontier_to_csv_text,
    metrics_json_text,
    reference_sigma_lines,
    sigma_components,
    solution_from_position,
)

# sha256-derived cell seeds, frozen from an independent hash computation
SEED_000_W118_R0 = 12986080708140944882
SEED_000_W118_R1 = 1615689286552516999
SEED_001_W118_R0 = 9796933195283788052


def tiny_bfa(seed=123):
    return ss.BfaConfig(population_size=4, chemotaxis_steps=2, swim_limit=2,
                        reproduction_cycles=1, elimination_cycles=1,
                        seed=seed)


def make_point(aggregate, weights=(1.0, 0.0, 0.0), seed=0):
    # objectives (F, F, F) aggregate to F under any weights summing to 1
    return ss.SolutionPoint(
        weights=ss.WeightVector(*weights),
        design=ss.DesignVector(1.0, 500.0, 600.0, 0.1),
        noise=ss.NoiseVector(298.0, 900.0),
        objectives=ss.ObjectiveTriple(aggregate, aggregate, aggregate),
        aggregate_value=aggregate, seed=seed)


@pytest.fixture(scope="module")
def tiny_frontier():
    problem = ss.ProblemSpec()
    grid = ss.weight_grid(step=0.5, minimum=0.0)
    frontier, _ = ss.build_frontier(problem, tiny_bfa(), grid,
                                    runs_per_weight=1)
    return frontier


class TestWeightGrid:
    def test_default_grid_shape(self):
        grid = ss.weight_grid()
        assert len(grid) == 36
        assert grid[0].as_tuple() == (0.8, 0.1, 0.1)
        assert grid[-1].as_tuple() == (0.1, 0.1, 0.8)
        for w in grid:
            assert math.fsum(w.as_tuple()) == pytest.approx(1.0, abs=1e-12)
            assert min(w.as_tuple()) >= 0.1

    def test_descending_lexicographic_order(self):
        tuples = [w.as_tuple() for w in ss.weight_grid()]
        assert tuples == sorted(tuples, reverse=True)
        assert len(set(tuples)) == len(tuples)

    def test_coarse_grid_enumeration(self):
        grid = [w.as_tuple() for w in ss.weight_grid(step=0.5, minimum=0.0)]
        assert grid == [(1.0, 0.0, 0.0), (0.5, 0.5, 0.0), (0.5, 0.0, 0.5),
                        (0.0, 1.0, 0.0), (0.0, 0.5, 0.5), (0.0, 0.0, 1.0)]

    @staticmethod
    def double_loop(step, minimum):
        """The grid as the package enumerated it before it read the
        lattice off _compositions: the frozen reference."""
        units = round(1.0 / step)
        floor_units = math.ceil(minimum / step - 1e-9)
        grid = []
        for i in range(units, -1, -1):
            for j in range(units - i, -1, -1):
                k = units - i - j
                if min(i, j, k) >= floor_units:
                    grid.append((round(i * step, 12), round(j * step, 12),
                                 round(k * step, 12)))
        return grid

    @pytest.mark.parametrize("step, minimum", [
        (0.1, 0.1), (0.5, 0.0), (0.25, 0.0), (1.0, 0.0), (0.05, 0.2),
        (0.2, 0.05), (0.01, 0.0), (0.01, 0.3), (0.02, 0.32)])
    def test_grid_equals_the_double_loop(self, step, minimum):
        grid = [w.as_tuple() for w in ss.weight_grid(step, minimum)]
        want = self.double_loop(step, minimum)
        assert grid == want
        assert np.array_equal(np.array(grid).view(np.int64),
                              np.array(want).view(np.int64))

    def test_infeasible_minimum(self):
        assert self.double_loop(0.1, 0.4) == []
        with pytest.raises(EmptyGrid):
            ss.weight_grid(step=0.1, minimum=0.4)

    def test_step_must_divide_one(self):
        with pytest.raises(ValidationError):
            ss.weight_grid(step=0.3)
        with pytest.raises(ValidationError):
            ss.weight_grid(step=0.0)
        with pytest.raises(ValidationError):
            ss.weight_grid(minimum=-0.1)

    def test_grid_size_is_checked_before_the_grid_is_built(self):
        # 1/1413 is the coarsest step 1/n whose full grid exceeds the cap
        assert math.comb(1413 + 2, 2) > pareto.MAX_GRID_VECTORS \
            >= math.comb(1412 + 2, 2)
        for step, minimum in ((1 / 1413, 0.0), (1e-300, 0.1)):
            with pytest.raises(ValidationError, match="holds more than "
                               f"{pareto.MAX_GRID_VECTORS} weight vectors"):
                ss.weight_grid(step, minimum)
        # a fine step is cheap when the minimum leaves few nodes
        grid = [w.as_tuple() for w in ss.weight_grid(1e-6, 0.333333)]
        assert grid == [(0.333334, 0.333333, 0.333333),
                        (0.333333, 0.333334, 0.333333),
                        (0.333333, 0.333333, 0.333334)]
        # 1 / 5e-324 overflows: no float step that small divides 1
        with pytest.raises(ValidationError, match="must divide 1 evenly"):
            ss.weight_grid(5e-324)

    def test_weights_are_clean_floats(self):
        for w in ss.weight_grid():
            for v in w.as_tuple():
                assert v == round(v, 12)


class TestSeeds:
    def test_frozen_values(self):
        w = ss.WeightVector(0.1, 0.1, 0.8)
        assert ss.derive_seed(0, w, 0) == SEED_000_W118_R0
        assert ss.derive_seed(0, w, 1) == SEED_000_W118_R1
        assert ss.derive_seed(1, w, 0) == SEED_001_W118_R0

    def test_distinct_across_cells(self):
        seeds = {ss.derive_seed(0, w, r)
                 for w in ss.weight_grid() for r in range(5)}
        assert len(seeds) == 36 * 5


class TestNondominated:
    def test_simple_example(self):
        points = [(3.0, 1.0), (1.0, 3.0), (2.0, 2.0), (1.0, 1.0)]
        assert ss.nondominated_filter(points) == [(3.0, 1.0), (1.0, 3.0),
                                                  (2.0, 2.0)]

    def test_duplicates_survive_and_order_is_stable(self):
        points = [(2.0, 2.0), (1.0, 5.0), (2.0, 2.0)]
        assert ss.nondominated_filter(points) == points

    @staticmethod
    def brute_force(pts):
        expected = []
        for i, a in enumerate(pts):
            dominated = any(
                all(bi >= ai for ai, bi in zip(a, b))
                and any(bi > ai for ai, bi in zip(a, b))
                for j, b in enumerate(pts) if j != i)
            if not dominated:
                expected.append(a)
        return expected

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            pts = [tuple(row) for row in rng.uniform(0, 1, size=(40, 3))]
            assert ss.nondominated_filter(pts) == self.brute_force(pts)

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_brute_force_on_300_points(self, k):
        # rounded to a coarse grid, so rows tie in some objectives
        rng = np.random.default_rng(k)
        pts = [tuple(row) for row in
               np.round(rng.uniform(0, 1, size=(300, k)), 1).tolist()]
        assert ss.nondominated_filter(pts) == self.brute_force(pts)

    def test_empty_list(self):
        assert ss.nondominated_filter([]) == []

    def test_objective_triples(self):
        points = [ss.ObjectiveTriple(1.0, 2.0, 3.0),
                  ss.ObjectiveTriple(0.0, 2.0, 3.0),
                  ss.ObjectiveTriple(3.0, 0.0, 0.0),
                  ss.ObjectiveTriple(1.0, 2.0, 3.0)]
        assert ss.nondominated_filter(points) == [points[0], points[2],
                                                  points[3]]

    def test_nan_rows_never_dominated_and_never_dominate(self):
        nan = math.nan
        points = [(nan, 9.0), (0.0, 1.0), (1.0, nan), (0.5, 0.5),
                  (3.0, 3.0), (nan, nan)]
        got = ss.nondominated_filter(points)
        assert got == [points[0], points[2], points[4], points[5]]
        assert got == self.brute_force(points)
        # alone beside a row with nan, a row keeps its place
        assert ss.nondominated_filter(points[:2]) == points[:2]

    def test_solution_points_pass_through(self):
        hi = make_point(2.0)
        lo = make_point(1.0)
        assert ss.nondominated_filter([hi, lo]) == [hi]


class TestSigma:
    def test_three_four_example(self):
        sv = sigma_components((3.0, 4.0))
        assert sv.components == (-0.28,)
        assert sv.magnitude == pytest.approx(0.28, abs=1e-15)

    def test_axis_vector(self):
        sv = sigma_components((1.0, 0.0, 0.0))
        assert sv.components == (1.0, 1.0, 0.0)
        assert sv.magnitude == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_scale_invariance(self):
        base = sigma_components((0.3, 1.7, 2.2))
        for factor in (0.5, 2.0, 10.0):
            scaled = sigma_components((0.3 * factor, 1.7 * factor,
                                       2.2 * factor))
            for a, b in zip(base.components, scaled.components):
                assert a == pytest.approx(b, abs=1e-12)

    def test_sums_left_to_right(self):
        # the squares 1, 1e-16, 1e-16 add to 1.0 left to right, but to
        # 1.0000000000000002 compensated, as the builtin sum adds floats
        # from Python 3.12; bundle bytes must not depend on the version
        small = 1e-8 * 1e-8
        sv = sigma_components((1.0, 1e-8, 1e-8))
        assert sv.components == ((1.0 - small) / 1.0, (1.0 - small) / 1.0,
                                 0.0)
        assert math.fsum([1.0, small, small]) != 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            sigma_components((0.0, 0.0, 0.0))

    def test_short_vector_rejected(self):
        with pytest.raises(ValidationError):
            sigma_components((1.0,))

    @pytest.mark.parametrize("vector", [
        (1e200, 1.0, 1.0),        # one square overflows
        (1e154, 1e154, 1e154),    # each square is finite, their sum is not
        (1.0, 2.0, math.inf),
    ], ids=["square", "sum", "inf"])
    def test_overflowing_squares_are_one_validation_error(self, vector):
        # the reference and the row form reject such a vector alike, with
        # one typed error instead of Python's OverflowError from v ** 2
        message = (f"sigma undefined: the squares of {vector!r} overflow "
                   f"the floats")
        with pytest.raises(ValidationError) as caught:
            sigma_components(vector)
        assert str(caught.value) == message
        rows = np.array([(3.0, 4.0, 5.0), vector])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as caught:
                pareto._sigma_rows(rows)
        assert str(caught.value) == message


class TestReferenceLines:
    def test_two_objectives_three_lines(self):
        refs = reference_sigma_lines(2, 3)
        assert [r.components for r in refs] == [(1.0,), (0.0,), (-1.0,)]

    def test_three_objectives_fifteen_lines(self):
        refs = reference_sigma_lines(3, 15)
        # resolution-4 simplex lattice has exactly 15 nodes
        nodes = [p for p in itertools.product(range(5), repeat=3)
                 if sum(p) == 4]
        nodes.sort(reverse=True)
        assert len(refs) == 15
        for ref, node in zip(refs, nodes):
            expected = sigma_components(tuple(float(v) for v in node))
            assert ref.components == pytest.approx(expected.components,
                                                   abs=1e-15)

    def test_count_between_lattice_sizes_truncates(self):
        refs = reference_sigma_lines(3, 16)
        # next lattice (resolution 5) has 21 nodes; keep the first 16
        assert len(refs) == 16

    def test_validation(self):
        with pytest.raises(ValidationError):
            reference_sigma_lines(1, 5)
        with pytest.raises(ValidationError):
            reference_sigma_lines(3, 0)


class TestDiversity:
    def test_axis_points_saturate(self):
        points = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
        refs = reference_sigma_lines(3, 3)
        assert ss.diversity_metric(points, refs) == pytest.approx(1e12)

    def test_matches_explicit_recompute(self, reference_diversity):
        rng = np.random.default_rng(5)
        points = [tuple(row) for row in rng.uniform(1, 9, size=(12, 3))]
        refs = reference_sigma_lines(3, 15)
        assert bits(ss.diversity_metric(points, refs)) == bits(
            reference_diversity(points, refs))

    def test_zero_row_falls_back_to_zero_sigma(self, reference_diversity):
        points = [(0.0, 0.0, 0.0), (1.0, 2.0, 3.0), (2.0, 4.0, 6.0)]
        refs = reference_sigma_lines(3, 15)
        assert bits(ss.diversity_metric(points, refs)) == bits(
            reference_diversity(points, refs))

    def test_constant_column_parks_mid_range(self, reference_diversity):
        points = [(1.0, 5.0, 0.0), (2.0, 5.0, 1.0)]
        refs = reference_sigma_lines(3, 15)
        assert bits(ss.diversity_metric(points, refs)) == bits(
            reference_diversity(points, refs))

    def test_validation(self):
        refs = reference_sigma_lines(3, 3)
        with pytest.raises(ValidationError):
            ss.diversity_metric([], refs)
        with pytest.raises(ValidationError):
            ss.diversity_metric([(1.0, 2.0, 3.0)], [])
        with pytest.raises(ValidationError):
            # 2-objective references against 3-objective points
            ss.diversity_metric([(1.0, 2.0, 3.0)],
                                reference_sigma_lines(2, 3))


def bits(value):
    return np.float64(value).view(np.int64)


def table_frontier(objectives, order="C"):
    """A frontier whose table holds these objectives and nothing else,
    built straight from the table in the given memory order."""
    table = np.zeros((len(objectives), 13))
    table[:, 9:12] = objectives
    return ss.Frontier._from_table(np.asarray(table, order=order),
                                   [0] * len(objectives))


class TestDiversityBits:
    """diversity_metric scores every row in one pass; it must give the
    row-by-row reference's bits."""

    @pytest.mark.parametrize("n_objectives", [2, 3, 4])
    def test_random_frontiers(self, n_objectives, reference_distances,
                              reference_diversity):
        rng = np.random.default_rng(100 + n_objectives)
        refs = reference_sigma_lines(n_objectives, 15)
        sizes = [1, 2, 3, 299, 300] + rng.integers(1, 301, 35).tolist()
        for n in sizes:
            scale = 10.0 ** rng.uniform(-6, 6)
            matrix = rng.uniform(-1.0, 1.0, (n, n_objectives)) * scale
            count = int(rng.integers(1, 30))
            for references in (refs, reference_sigma_lines(n_objectives,
                                                            count)):
                ref_matrix = np.array([r.components for r in references])
                got = pareto._nearest_distances(matrix, ref_matrix)
                want = np.array(reference_distances(matrix, references))
                assert np.array_equal(got.view(np.int64),
                                      want.view(np.int64))
                assert bits(ss.diversity_metric(matrix.tolist(), references)) \
                    == bits(reference_diversity(matrix, references))

    @pytest.mark.parametrize("n_objectives", [2, 3, 4])
    def test_zero_rows_and_constant_columns(self, n_objectives,
                                            reference_diversity):
        rng = np.random.default_rng(200 + n_objectives)
        refs = reference_sigma_lines(n_objectives, 15)
        for n in (1, 2, 7, 64, 300):
            # few distinct values: ties, rows at every column's minimum
            # (all zero once normalized) and, with one row, all constant
            matrix = rng.integers(0, 3, (n, n_objectives)).astype(float)
            matrix[rng.random(n) < 0.3] = 0.0
            matrix[:, -1] = 7.0
            assert bits(ss.diversity_metric(matrix.tolist(), refs)) \
                == bits(reference_diversity(matrix, refs))

    def test_table_layout_and_row_order(self, reference_diversity):
        rng = np.random.default_rng(300)
        refs = reference_sigma_lines(3, 15)
        for n in (1, 5, 36, 288, 300):
            matrix = rng.uniform(0.0, 1e5, (n, 3))
            want = bits(reference_diversity(matrix, refs))
            shuffled = matrix[rng.permutation(n)]
            for frontier in (table_frontier(matrix),
                             table_frontier(matrix, order="F"),
                             table_frontier(shuffled),
                             table_frontier(shuffled, order="F")):
                assert bits(ss.diversity_metric(frontier, refs)) == want
            assert bits(ss.diversity_metric(np.asfortranarray(shuffled),
                                            refs)) == want

    def test_underflowing_row_raises(self, reference_diversity):
        # row 2 normalizes to (5e-324, 0, 0): nonzero, but its squares
        # underflow to 0
        points = [(0.0, 0.0, 0.0), (5e-324, 0.0, 0.0), (1.0, 1.0, 1.0)]
        refs = reference_sigma_lines(3, 15)
        with pytest.raises(ZeroVector):
            reference_diversity(points, refs)
        with pytest.raises(ZeroVector):
            ss.diversity_metric(points, refs)


class TestRanking:
    def test_best_median_worst(self):
        pts = [make_point(v) for v in (3.0, 1.0, 4.0, 1.5, 5.0)]
        best, median, worst = ss.rank_solutions(ss.Frontier(points=pts))
        assert best.aggregate_value == 5.0
        assert median.aggregate_value == 3.0  # entry (5-1)//2 of the sort
        assert worst.aggregate_value == 1.0

    def test_tie_breaks_toward_smaller_weights(self):
        a = make_point(1.0, weights=(0.2, 0.4, 0.4))
        b = make_point(1.0, weights=(0.1, 0.8, 0.1))
        best, _, worst = ss.rank_solutions(ss.Frontier(points=[a, b]))
        assert best == b
        assert worst == a

    def test_dominance_is_mean_aggregate(self):
        pts = [make_point(v) for v in (2.0, 4.0, 9.0)]
        assert ss.frontier_dominance(ss.Frontier(points=pts)) \
            == pytest.approx(5.0, rel=1e-15)


class TestSolutionPointValidation:
    def test_inconsistent_aggregate_rejected(self):
        with pytest.raises(ValidationError):
            ss.SolutionPoint(
                weights=ss.WeightVector(1.0, 0.0, 0.0),
                design=ss.DesignVector(1.0, 500.0, 600.0, 0.1),
                noise=ss.NoiseVector(298.0, 900.0),
                objectives=ss.ObjectiveTriple(1.0, 1.0, 1.0),
                aggregate_value=2.0, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError):
            make_point(1.0, seed=-1)

    def test_empty_frontier_rejected(self):
        with pytest.raises(ValidationError):
            ss.Frontier(points=[])


class TestGradeContext:
    def test_dict_roundtrip(self):
        ctx = ss.GradeContext(temperature_secondary=0.17169,
                              insolation_secondary=(0.02907, 0.92274))
        again = ss.GradeContext.from_dict(json.loads(
            json.dumps(ctx.to_dict())))
        assert again == ctx

    def test_validation(self):
        with pytest.raises(ValidationError):
            ss.GradeContext(pad=-0.1)
        with pytest.raises(ValidationError, match="^pad must be >= 0, got nan"):
            ss.GradeContext(temperature_secondary=0.17169, pad=math.nan)
        with pytest.raises(ValidationError):
            ss.GradeContext(temperature_secondary=(0.1, 0.2, 0.3))
        with pytest.raises(ValidationError):
            ss.GradeContext.from_dict({"temp": 0.5})
        # a grade is a number in [0, 1], checked when the context is built
        with pytest.raises(ValidationError, match="got nan"):
            ss.GradeContext(temperature_secondary=math.nan)
        with pytest.raises(ValidationError, match="got nan"):
            ss.GradeContext(insolation_secondary=(0.1, math.nan))
        with pytest.raises(ValidationError, match="got 1.5"):
            ss.GradeContext(insolation_primary=1.5)


class TestBuildFrontier:
    def test_deterministic_rebuild(self, tiny_frontier):
        problem = ss.ProblemSpec()
        grid = ss.weight_grid(step=0.5, minimum=0.0)
        again, _ = ss.build_frontier(problem, tiny_bfa(), grid,
                                     runs_per_weight=1)
        assert frontier_to_csv_text(again) == frontier_to_csv_text(
            tiny_frontier)

    def test_workers_do_not_change_bytes(self, tiny_frontier):
        problem = ss.ProblemSpec()
        grid = ss.weight_grid(step=0.5, minimum=0.0)
        parallel, _ = ss.build_frontier(problem, tiny_bfa(), grid,
                                        runs_per_weight=1, workers=2)
        assert frontier_to_csv_text(parallel) == frontier_to_csv_text(
            tiny_frontier)

    @pytest.mark.parametrize("workers, runs, pool", [
        (6, 1, 2), (8, 3, 6), (2, 3, 2)])
    def test_pool_never_exceeds_the_runs(self, workers, runs, pool,
                                         monkeypatch):
        # one process per share of the runs, and the serial frontier
        sizes = []

        class Recording(ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(pareto, "ProcessPoolExecutor", Recording)
        problem = ss.ProblemSpec()
        grid = ss.weight_grid(step=1.0, minimum=0.0)[:2]
        serial, _ = ss.build_frontier(problem, tiny_bfa(), grid,
                                      runs_per_weight=runs)
        pooled, _ = ss.build_frontier(problem, tiny_bfa(), grid,
                                      runs_per_weight=runs, workers=workers)
        assert sizes == [pool]
        assert frontier_to_csv_text(pooled) == frontier_to_csv_text(serial)

    def test_grid_order_and_traces(self):
        problem = ss.ProblemSpec()
        grid = ss.weight_grid(step=0.5, minimum=0.0)
        frontier, traces = ss.build_frontier(problem, tiny_bfa(), grid,
                                             runs_per_weight=1)
        assert [p.weights.as_tuple() for p in frontier.points] \
            == [w.as_tuple() for w in grid]
        assert len(traces) == len(grid)
        assert all(len(trace.best_fitness) == 2 * 1 * 1 + 1
                   for trace in traces)
        for w, seed, trace in zip(grid, frontier.seeds, traces):
            alone = ss.run_bfa(ss.IrrigationFitness(problem, w),
                               replace(tiny_bfa(), seed=seed))
            assert trace == alone.trace

    def test_keeps_best_replicate(self):
        problem = ss.ProblemSpec()
        weights = ss.WeightVector(0.1, 0.1, 0.8)
        frontier, _ = ss.build_frontier(problem, tiny_bfa(seed=0), [weights],
                                        runs_per_weight=2)
        point = frontier.points[0]
        fitness = ss.IrrigationFitness(problem, weights)
        runs = {}
        for rep in range(2):
            seed = ss.derive_seed(0, weights, rep)
            runs[seed] = ss.run_bfa(fitness,
                                    replace(tiny_bfa(), seed=seed))
        best_seed = max(runs, key=lambda s: runs[s].best_fitness)
        assert point.seed == best_seed
        assert point.aggregate_value == pytest.approx(
            runs[best_seed].best_fitness, rel=1e-12)

    def test_table_matches_per_cell_points(self, monkeypatch):
        # the reference is the per-cell path: the first replicate with the
        # highest best fitness, made a point by solution_from_position; no
        # weight is 0, so F's order of additions shows in its bits
        problem = ss.ProblemSpec()
        grid = ss.weight_grid()[::6]
        batches = []
        run_batch = pareto._run_batch

        def recording(*args):
            batches.append(run_batch(*args))
            return batches[-1]
        monkeypatch.setattr(pareto, "_run_batch", recording)
        frontier, traces = ss.build_frontier(problem, tiny_bfa(seed=5), grid,
                                             runs_per_weight=3)
        results, = batches
        rows, winners = [], []
        for cell, w in enumerate(grid):
            best = 3 * cell
            for run in range(best + 1, best + 3):
                if results[run].best_fitness > results[best].best_fitness:
                    best = run
            winners.append(best)
            rows.append(solution_from_position(
                problem, w, results[best].best_position,
                ss.derive_seed(5, w, best - 3 * cell)).row())
        assert winners != [3 * cell for cell in range(len(grid))]
        want = np.array([row[:-1] for row in rows])
        assert np.array_equal(frontier.table.view(np.int64),
                              want.view(np.int64))
        assert frontier.seeds == [row[-1] for row in rows]
        assert traces == [results[k].trace for k in winners]

    def test_first_tied_replicate_wins(self, monkeypatch):
        problem = ss.ProblemSpec()
        grid = ss.weight_grid(step=0.5, minimum=0.0)[:3]
        fitness = [1.0, 5.0, 5.0, 7.0, 7.0, 7.0, 2.0, 3.0, 3.0 + 1e-12]
        box = np.array(problem.design_bounds + problem.noise_bounds)

        def tied(problem, cfg, weights, seeds):
            return [ss.RunResult(
                best_position=box[:, 0] + (box[:, 1] - box[:, 0]) * k / 8,
                best_fitness=value,
                trace=ss.RunTrace(best_fitness=[value], evaluations=[k]),
                evaluations=k) for k, value in enumerate(fitness)]
        monkeypatch.setattr(pareto, "_run_batch", tied)
        frontier, traces = ss.build_frontier(problem, tiny_bfa(), grid,
                                             runs_per_weight=3)
        assert [trace.evaluations for trace in traces] == [[1], [3], [8]]
        assert frontier.seeds == [ss.derive_seed(123, w, replicate)
                                  for w, replicate in zip(grid, (1, 0, 2))]

    def test_builds_no_points(self, monkeypatch):
        built = []
        post_init = ss.SolutionPoint.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)
        monkeypatch.setattr(ss.SolutionPoint, "__post_init__", counting)
        ss.build_frontier(ss.ProblemSpec(), tiny_bfa(),
                          ss.weight_grid(step=0.5, minimum=0.0),
                          runs_per_weight=2)
        assert built == []

    @pytest.mark.parametrize("entry", ["run_bfa", "build_frontier"])
    def test_problem_is_hashed_a_fixed_number_of_times(self, entry,
                                                       monkeypatch):
        # the row kernel is bound to its problem once per fitness or batch,
        # so no evaluator call hashes the frozen ProblemSpec for its cache:
        # the count must not grow with the rounds a run makes
        hashes = []
        spec_hash = ss.ProblemSpec.__hash__

        def counting(self):
            hashes.append(self)
            return spec_hash(self)
        monkeypatch.setattr(ss.ProblemSpec, "__hash__", counting)
        problem = ss.ProblemSpec()
        weights = ss.weight_grid(step=0.5, minimum=0.0)[:2]

        def count(steps):
            cfg = replace(tiny_bfa(), chemotaxis_steps=steps,
                          reproduction_cycles=steps)
            hashes.clear()
            if entry == "run_bfa":
                ss.run_bfa(ss.IrrigationFitness(problem, weights[0]), cfg)
            else:
                ss.build_frontier(problem, cfg, weights, runs_per_weight=2)
            return len(hashes)

        assert count(1) == count(6) <= 2

    def test_run_bfa_stays_bound_in_pareto(self):
        # the benchmark's span tracer wraps pareto.run_bfa by that name
        from solarswarm import bfa, pareto
        assert pareto.run_bfa is bfa.run_bfa

    @pytest.mark.parametrize("m", [1, 26, _ROW_BLOCK + 1])
    def test_run_batch_weights_each_row_by_its_run(self, monkeypatch, m):
        # the batch's evaluate callback, as the engine calls it: run ids
        # shuffled and repeated, and the column-ordered transpose of
        # (dims, m) rows
        from solarswarm import pareto
        problem = ss.ProblemSpec()
        table = np.array([w.as_tuple() for w in ss.weight_grid()])
        callbacks = []
        monkeypatch.setattr(pareto, "run_bfa_lockstep",
                            lambda evaluate, *_: callbacks.append(evaluate))
        pareto._run_batch(problem, tiny_bfa(), table, list(range(len(table))))
        evaluate, = callbacks
        rng = np.random.default_rng(m)
        runs = rng.integers(0, len(table), m)
        assert m == 1 or len(set(runs.tolist())) < m
        box = np.array(problem.design_bounds + problem.noise_bounds)
        positions = rng.uniform(box[:, 0, None], box[:, 1, None], (6, m)).T
        want = _weighted_sum(table[runs].T,
                             _surfaces(problem).objective_rows(positions))
        assert np.array_equal(evaluate(runs, positions).view(np.int64),
                              want.view(np.int64))

    def test_cell_results_survive_grid_edits(self, tiny_frontier):
        problem = ss.ProblemSpec()
        grid = ss.weight_grid(step=0.5, minimum=0.0)
        trimmed, _ = ss.build_frontier(problem, tiny_bfa(), grid[1:],
                                       runs_per_weight=1)
        assert trimmed.points == tiny_frontier.points[1:]

    def test_validation(self):
        problem = ss.ProblemSpec()
        grid = ss.weight_grid(step=0.5, minimum=0.0)
        with pytest.raises(ValidationError):
            ss.build_frontier(problem, tiny_bfa(), grid, runs_per_weight=0)
        with pytest.raises(EmptyGrid):
            ss.build_frontier(problem, tiny_bfa(), [], runs_per_weight=1)
        with pytest.raises(ValidationError):
            ss.build_frontier(problem, tiny_bfa(), grid, runs_per_weight=1,
                              workers=0)


def reference_csv_text(points):
    """The frontier CSV as csv.writer renders each point's row: the reprs
    of its floats, then its seed."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(FRONTIER_CSV_HEADER)
    for p in points:
        *values, seed = p.row()
        writer.writerow([repr(v) for v in values] + [seed])
    return buf.getvalue()


def edge_points():
    """Points carrying -0.0, the smallest subnormal, the largest double,
    and the smallest and largest seeds the hash derivation gives."""
    tiny, huge = 5e-324, 1.7976931348623157e308
    return [
        ss.SolutionPoint(
            weights=ss.WeightVector(1.0, 0.0, 0.0),
            design=ss.DesignVector(-0.0, tiny, huge, 0.1),
            noise=ss.NoiseVector(-0.0, huge),
            objectives=ss.ObjectiveTriple(huge, -0.0, tiny),
            aggregate_value=huge, seed=0),
        ss.SolutionPoint(
            weights=ss.WeightVector(0.0, 0.0, 1.0),
            design=ss.DesignVector(tiny, -0.0, 0.0, huge),
            noise=ss.NoiseVector(tiny, -tiny),
            objectives=ss.ObjectiveTriple(-0.0, tiny, -0.0),
            aggregate_value=-0.0, seed=2 ** 64 - 1),
    ]


class TestFrontierCsv:
    def test_roundtrip_is_exact(self, tiny_frontier):
        for points in (tiny_frontier.points, edge_points()):
            frontier = ss.Frontier(points)
            text = frontier_to_csv_text(frontier)
            assert text == reference_csv_text(points)
            again = frontier_from_csv_text(text)
            assert again.points == points
            assert np.array_equal(again.table.view(np.int64),
                                  frontier.table.view(np.int64))
            assert again.seeds == frontier.seeds
            assert frontier_to_csv_text(again) == text

    def test_header_and_row_shape(self, tiny_frontier):
        lines = frontier_to_csv_text(tiny_frontier).strip().split("\n")
        assert lines[0] == ",".join(FRONTIER_CSV_HEADER)
        assert len(lines) == len(tiny_frontier) + 1
        assert all(len(line.split(",")) == 14 for line in lines[1:])

    def test_file_roundtrip(self, tiny_frontier, tmp_path):
        path = tmp_path / "frontier.csv"
        ss.write_frontier_csv(tiny_frontier, str(path))
        again = ss.read_frontier_csv(str(path))
        assert again.points == tiny_frontier.points

    def test_schema_mismatches(self, tiny_frontier):
        with pytest.raises(SchemaMismatch):
            frontier_from_csv_text("")
        with pytest.raises(SchemaMismatch):
            frontier_from_csv_text("a,b,c\n1,2,3\n")
        good = frontier_to_csv_text(tiny_frontier)
        lines = good.strip().split("\n")
        truncated = "\n".join([lines[0], lines[1].rsplit(",", 1)[0]]) + "\n"
        with pytest.raises(SchemaMismatch):
            frontier_from_csv_text(truncated)
        corrupt = good.replace(lines[1].split(",")[3], "not-a-number", 1)
        with pytest.raises(SchemaMismatch):
            frontier_from_csv_text(corrupt)


# one row: F = (0.5 * 2 + 0.25 * 4) + 0.25 * 8 = 4 exactly
GOOD_ROW = ["0.5", "0.25", "0.25", "1.0", "500.0", "600.0", "0.1",
            "298.0", "900.0", "2.0", "4.0", "8.0", "4.0", "7"]


def frontier_text(*edits, rows=6):
    """A valid frontier CSV of copies of GOOD_ROW, with (row, column,
    cell) edits applied; a cell of None drops the column."""
    table = [list(GOOD_ROW) for _ in range(rows)]
    for row, col, cell in edits:
        if cell is None:
            del table[row - 1][col]
        else:
            table[row - 1][col] = cell
    return "\n".join(",".join(cells) for cells
                     in [FRONTIER_CSV_HEADER, *table]) + "\n"


# (column, cell) edits of row 2, each with the error it must raise
REJECTIONS = {
    "short_row": (13, None, SchemaMismatch,
                  "row 2: expected 14 fields, got 13"),
    "bad_float": (3, "oops", SchemaMismatch,
                  "row 2: could not convert string to float: 'oops'"),
    "bad_int": (13, "1.5", SchemaMismatch,
                "row 2: invalid literal for int() with base 10: '1.5'"),
    "negative_weight": (1, "-0.25", ValidationError,
                        "weights must be finite and >= 0, got -0.25"),
    "nan_weight": (0, "nan", ValidationError,
                   "weights must be finite and >= 0, got nan"),
    "inf_weight": (2, "inf", ValidationError,
                   "weights must be finite and >= 0, got inf"),
    "weight_sum": (0, "0.75", ValidationError,
                   "weights must sum to 1, got 1.25"),
    "aggregate": (12, "5.0", ValidationError,
                  "aggregate 5.0 disagrees with weights . objectives = 4.0"),
    "negative_seed": (13, "-1", ValidationError, "seed must be nonnegative"),
    "nan_design_value": (3, "nan", ValidationError,
                         "x_a must be a finite number, got nan"),
    "inf_design_value": (6, "inf", ValidationError,
                         "x_d must be a finite number, got inf"),
    "minus_inf_noise_value": (8, "-inf", ValidationError,
                              "z_b must be a finite number, got -inf"),
}


class TestFrontierCsvReader:
    @pytest.mark.parametrize("col, cell, error, message",
                             REJECTIONS.values(), ids=REJECTIONS.keys())
    def test_each_rejection_keeps_its_type_and_message(self, col, cell,
                                                       error, message):
        frontier_from_csv_text(frontier_text())  # unedited, it reads
        with pytest.raises(error) as caught:
            frontier_from_csv_text(frontier_text((2, col, cell)))
        assert type(caught.value) is error
        assert str(caught.value) == message

    def test_first_bad_row_wins(self):
        weight_first = frontier_text((2, 0, "-0.5"), (5, 4, "oops"))
        with pytest.raises(ValidationError, match="got -0.5"):
            frontier_from_csv_text(weight_first)
        parse_first = frontier_text((2, 4, "oops"), (5, 0, "-0.5"))
        with pytest.raises(SchemaMismatch, match="row 2: could not"):
            frontier_from_csv_text(parse_first)
        seed_first = frontier_text((3, 13, "-2"), (4, 12, "1.0"))
        with pytest.raises(ValidationError, match="seed must be"):
            frontier_from_csv_text(seed_first)

    def test_table_is_read_only(self):
        frontier = frontier_from_csv_text(frontier_text())
        assert frontier.table.shape == (6, 13)
        assert frontier.seeds == [7] * 6
        with pytest.raises(ValueError):
            frontier.table[0, 0] = 1.0

    def test_points_are_built_on_demand(self, monkeypatch):
        problem = ss.ProblemSpec()
        rng = np.random.default_rng(288)
        box = np.array(problem.design_bounds + problem.noise_bounds)
        points = [solution_from_position(
            problem, w, rng.uniform(box[:, 0], box[:, 1]),
            int(rng.integers(0, 2 ** 63)))
            for w in ss.weight_grid() for _ in range(8)]
        text = frontier_to_csv_text(ss.Frontier(points))
        built = []
        post_init = ss.SolutionPoint.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)
        monkeypatch.setattr(ss.SolutionPoint, "__post_init__", counting)
        frontier = frontier_from_csv_text(text)
        assert len(frontier) == 288
        ss.compute_metrics(frontier)
        ranked = ss.rank_solutions(frontier)
        assert len(built) <= 3
        assert ranked == ss.rank_solutions(ss.Frontier(points))
        before = len(built)
        assert frontier.points == points
        assert frontier.points is frontier.points
        assert len(built) == before + 288


    def test_reader_agrees_with_the_csv_reader_reference(self):
        # csv.reader rejects a lone \r, a field longer than
        # csv.field_size_limit() and, on Python 3.10, a NUL; those texts
        # now give one SchemaMismatch line, and every other text the
        # reference's table bits and seeds, or its error type and message
        rejected_by_csv = {"lone_cr", "long_field"}
        if sys.version_info < (3, 11):
            rejected_by_csv.add("nul")
        seen = set()
        for name, text in frontier_corpus().items():
            expected = read_outcome(reference_frontier_reader, text)
            got = read_outcome(frontier_from_csv_text, text)
            if expected == "csv.Error":
                seen.add(name)
                assert got[0] is SchemaMismatch, name
                assert got[1].startswith("CSV line "), name
                assert "\n" not in got[1], name
            else:
                assert got == expected, name
                assert csv_rows(text) == list(csv.reader(io.StringIO(text)))
        assert seen == rejected_by_csv


def reference_frontier_reader(text):
    """The frontier reader as it was before codec.csv_rows: csv.reader,
    then float() and int() cell by cell and row by row. Every row parsed
    is built as a point, so the point constructors, not the package's
    screen, decide which row is rejected first."""
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if not rows:
        raise SchemaMismatch("empty frontier CSV")
    header = tuple(cell.strip() for cell in rows[0])
    if header != FRONTIER_CSV_HEADER:
        raise SchemaMismatch(
            f"bad frontier header {header}; expected {FRONTIER_CSV_HEADER}")
    values, seeds, unparsed = [], [], None
    for n, row in enumerate(rows[1:], start=1):
        if len(row) != len(FRONTIER_CSV_HEADER):
            unparsed = SchemaMismatch(
                f"row {n}: expected {len(FRONTIER_CSV_HEADER)} fields, "
                f"got {len(row)}")
            break
        try:
            floats = [float(cell) for cell in row[:13]]
            seed = int(row[13])
        except ValueError as bad:
            unparsed = SchemaMismatch(f"row {n}: {bad}")
            break
        values.append(floats)
        seeds.append(seed)
    table = np.array(values, dtype=float).reshape(len(values), 13)
    for row, seed in zip(values, seeds):
        pareto._solution_point(row, seed)
    if unparsed is not None:
        raise unparsed
    return ss.Frontier._from_table(table, seeds)


def read_outcome(read, text):
    """What a frontier reader makes of `text`: the table's bits and the
    seeds, an error's type and message, or "csv.Error"."""
    try:
        frontier = read(text)
    except csv.Error:
        return "csv.Error"
    except ValidationError as err:
        return type(err), str(err)
    return frontier.table.view(np.int64).tolist(), frontier.seeds


def frontier_corpus():
    """Frontier CSV texts by name: the rejection edits above, and the
    spellings where a hand-made CSV splitter could part from csv.reader
    or float() and int() from a faster parser."""
    good = frontier_text()
    lines = good.split("\n")
    limit = csv.field_size_limit()
    corpus = {name: frontier_text((2, col, cell))
              for name, (col, cell, _, _) in REJECTIONS.items()}
    corpus.update({
        "unedited": good,
        "empty": "",
        "header_only": lines[0] + "\n",
        "weight_before_parse": frontier_text((2, 0, "-0.5"), (5, 4, "oops")),
        "parse_before_weight": frontier_text((2, 4, "oops"), (5, 0, "-0.5")),
        "seed_before_aggregate": frontier_text((3, 13, "-2"), (4, 12, "1.0")),
        "float_before_seed": frontier_text((2, 13, "1.5"), (2, 3, "oops")),
        "quoted": good.replace("w1", '"w1"').replace(",500.0,", ',"500.0",'),
        "quoted_comma": frontier_text((2, 4, '"5,00.0"')),
        "crlf": good.replace("\n", "\r\n"),
        "lone_cr": good.replace("\n", "\r"),
        "blank_lines": good.replace("\n", "\n\n"),
        "whitespace_line": good + " \t \n",
        "whitespace_line_after_header": good.replace("\n", "\n   \n", 1),
        "padded": frontier_text((2, 4, " 500.0 "), (3, 5, "\t600.0\t")),
        "padded_header": good.replace("w1,", " w1\t,", 1),
        "underscore": frontier_text((2, 4, "5_00.0")),
        "non_ascii_digits": frontier_text((2, 4, "\u0665\u0660\u0660")),
        "nan_design": frontier_text((2, 3, "NaN")),
        # every design and noise value of a row non-finite but one, which
        # is finite but huge
        "non_finite_row": frontier_text(
            *((2, col, cell) for col, cell in zip(
                range(3, 9), ("nan", "inf", "-inf", "1e308", "nan", "nan")))),
        "non_finite_noise_after_bad_weight": frontier_text(
            (3, 7, "inf"), (4, 0, "-0.5")),
        "bad_weight_before_non_finite_noise": frontier_text(
            (3, 0, "-0.5"), (4, 7, "inf")),
        "minus_infinity_aggregate": frontier_text((2, 12, "-Infinity")),
        "trailing_comma": frontier_text((3, 13, "7,")),
        "bom": "\ufeff" + good,
        "nul": frontier_text((2, 4, "500\x00.0")),
        "form_feed": frontier_text((2, 4, "\f500.0")),
        "extra_column": frontier_text((2, 13, "7,8")),
        "missing_column": frontier_text((2, 5, None)),
        "limit_field": frontier_text((2, 4, "500.0".rjust(limit, "0"))),
        "long_field": frontier_text((2, 4, "500.0".rjust(limit + 1, "0"))),
        "seed_plus": frontier_text((2, 13, "+7")),
        "seed_padded": frontier_text((2, 13, " 7 ")),
        "seed_underscore": frontier_text((2, 13, "0_7")),
        "seed_max": frontier_text((2, 13, str(2 ** 64 - 1))),
    })
    return corpus


class TestMetrics:
    def test_overflowing_mean_f_is_a_non_finite_result(self):
        # every F is finite, but their sum is not: fsum raises OverflowError
        frontier = ss.Frontier(points=[make_point(1e308), make_point(1e308)])
        for metric in (ss.frontier_dominance, ss.compute_metrics):
            with pytest.raises(NonFiniteResult, match=(
                    "^the mean F overflows: its sum over the frontier "
                    "exceeds the floats$")):
                metric(frontier)

    def test_overflowing_spread_is_a_non_finite_result(self):
        # the mean F is 0, but the objectives' spread, 2e308, is not a
        # float: normalizing by it gives nan, silently
        frontier = ss.Frontier(points=[make_point(1e308),
                                       make_point(-1e308)])
        assert ss.frontier_dominance(frontier) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResult, match=(
                    "^diversity is nan: an objective's spread over the "
                    "frontier is not a finite number$")):
                ss.compute_metrics(frontier)

    def test_document_shape_and_roundtrip(self, tiny_frontier):
        metrics = ss.compute_metrics(tiny_frontier)
        assert set(metrics) == {"dominance_mean_F", "diversity", "n_points",
                                "grade_context"}
        assert metrics["n_points"] == 6
        assert metrics["grade_context"] is None
        assert metrics["dominance_mean_F"] == pytest.approx(
            ss.frontier_dominance(tiny_frontier), rel=1e-15)
        text = metrics_json_text(metrics)
        assert text.endswith("\n")
        assert json.loads(text) == metrics

    def test_diversity_matches_direct_call(self, tiny_frontier):
        metrics = ss.compute_metrics(tiny_frontier)
        refs = reference_sigma_lines(3, 15)
        assert metrics["diversity"] == pytest.approx(
            ss.diversity_metric(tiny_frontier, refs), rel=1e-15)

    def test_grade_context_is_carried(self, tiny_frontier):
        ctx = ss.GradeContext(temperature_secondary=0.17169)
        metrics = ss.compute_metrics(tiny_frontier, ctx)
        assert metrics["grade_context"] == ctx.to_dict()
