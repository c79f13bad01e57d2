import itertools
import json
import math

import numpy as np
import pytest

import solarswarm as ss
from solarswarm.errors import (
    EmptyGrid,
    SchemaMismatch,
    ValidationError,
    ZeroVector,
)
from solarswarm.irrigation import _ROW_BLOCK, evaluate_rows
from solarswarm.pareto import (
    FRONTIER_CSV_HEADER,
    frontier_from_csv_text,
    frontier_to_csv_text,
    metrics_json_text,
    reference_sigma_lines,
    sigma_components,
)

# sha256-derived cell seeds, frozen from an independent hash computation
SEED_000_W118_R0 = 12986080708140944882
SEED_000_W118_R1 = 1615689286552516999
SEED_001_W118_R0 = 9796933195283788052


def tiny_bfa(seed=123):
    return ss.BfaConfig(population_size=4, chemotaxis_steps=2, swim_limit=2,
                        reproduction_cycles=1, elimination_cycles=1,
                        total_passes=1, seed=seed)


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
    return ss.build_frontier(problem, tiny_bfa(), grid, runs_per_weight=1)


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

    def test_infeasible_minimum(self):
        with pytest.raises(EmptyGrid):
            ss.weight_grid(step=0.1, minimum=0.4)

    def test_step_must_divide_one(self):
        with pytest.raises(ValidationError):
            ss.weight_grid(step=0.3)
        with pytest.raises(ValidationError):
            ss.weight_grid(step=0.0)
        with pytest.raises(ValidationError):
            ss.weight_grid(minimum=-0.1)

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

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            pts = [tuple(row) for row in rng.uniform(0, 1, size=(40, 3))]
            expected = []
            for a in pts:
                dominated = any(
                    all(bi >= ai for ai, bi in zip(a, b))
                    and any(bi > ai for ai, bi in zip(a, b))
                    for b in pts if b is not a)
                if not dominated:
                    expected.append(a)
            assert ss.nondominated_filter(pts) == expected

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


def oracle_diversity(vectors, references):
    matrix = np.array(vectors, dtype=float)
    lo, hi = matrix.min(axis=0), matrix.max(axis=0)
    norm = np.empty_like(matrix)
    for c in range(matrix.shape[1]):
        if hi[c] == lo[c]:
            norm[:, c] = 0.5
        else:
            norm[:, c] = (matrix[:, c] - lo[c]) / (hi[c] - lo[c])
    distances = []
    for row in norm:
        if np.all(row == 0.0):
            comps = np.zeros(len(references[0].components))
        else:
            comps = np.array(sigma_components(row.tolist()).components)
        distances.append(min(
            math.dist(comps, ref.components) for ref in references))
    return 1.0 / (math.fsum(distances) / len(distances) + 1e-12)


class TestDiversity:
    def test_axis_points_saturate(self):
        points = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
        refs = reference_sigma_lines(3, 3)
        assert ss.diversity_metric(points, refs) == pytest.approx(1e12)

    def test_matches_explicit_recompute(self):
        rng = np.random.default_rng(5)
        points = [tuple(row) for row in rng.uniform(1, 9, size=(12, 3))]
        refs = reference_sigma_lines(3, 15)
        assert ss.diversity_metric(points, refs) == pytest.approx(
            oracle_diversity(points, refs), rel=1e-12)

    def test_zero_row_falls_back_to_zero_sigma(self):
        points = [(0.0, 0.0, 0.0), (1.0, 2.0, 3.0), (2.0, 4.0, 6.0)]
        refs = reference_sigma_lines(3, 15)
        assert ss.diversity_metric(points, refs) == pytest.approx(
            oracle_diversity(points, refs), rel=1e-12)

    def test_constant_column_parks_mid_range(self):
        points = [(1.0, 5.0, 0.0), (2.0, 5.0, 1.0)]
        refs = reference_sigma_lines(3, 15)
        assert ss.diversity_metric(points, refs) == pytest.approx(
            oracle_diversity(points, refs), rel=1e-12)

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
        assert best is b
        assert worst is a

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
        with pytest.raises(ValidationError):
            ss.GradeContext(temperature_secondary=(0.1, 0.2, 0.3))
        with pytest.raises(ValidationError):
            ss.GradeContext.from_dict({"temp": 0.5})


class TestBuildFrontier:
    def test_deterministic_rebuild(self, tiny_frontier):
        problem = ss.ProblemSpec()
        grid = ss.weight_grid(step=0.5, minimum=0.0)
        again = ss.build_frontier(problem, tiny_bfa(), grid,
                                  runs_per_weight=1)
        assert frontier_to_csv_text(again) == frontier_to_csv_text(
            tiny_frontier)

    def test_workers_do_not_change_bytes(self, tiny_frontier):
        problem = ss.ProblemSpec()
        grid = ss.weight_grid(step=0.5, minimum=0.0)
        parallel = ss.build_frontier(problem, tiny_bfa(), grid,
                                     runs_per_weight=1, workers=2)
        assert frontier_to_csv_text(parallel) == frontier_to_csv_text(
            tiny_frontier)

    def test_grid_order_and_on_cell(self):
        problem = ss.ProblemSpec()
        grid = ss.weight_grid(step=0.5, minimum=0.0)
        seen = []
        frontier = ss.build_frontier(
            problem, tiny_bfa(), grid, runs_per_weight=1,
            on_cell=lambda point, trace: seen.append(
                (point.weights.as_tuple(), len(trace))))
        assert [w for w, _ in seen] == [w.as_tuple() for w in grid]
        assert [p.weights.as_tuple() for p in frontier.points] \
            == [w.as_tuple() for w in grid]
        assert all(rows == 2 * 1 * 1 + 1 for _, rows in seen)

    def test_keeps_best_replicate(self):
        problem = ss.ProblemSpec()
        weights = ss.WeightVector(0.1, 0.1, 0.8)
        frontier = ss.build_frontier(problem, tiny_bfa(seed=0), [weights],
                                     runs_per_weight=2)
        point = frontier.points[0]
        fitness = ss.IrrigationFitness(problem, weights)
        from dataclasses import replace
        runs = {}
        for rep in range(2):
            seed = ss.derive_seed(0, weights, rep)
            runs[seed] = ss.run_bfa(fitness,
                                    replace(tiny_bfa(), seed=seed))
        best_seed = max(runs, key=lambda s: runs[s].best_fitness)
        assert point.seed == best_seed
        assert point.aggregate_value == pytest.approx(
            runs[best_seed].best_fitness, rel=1e-12)

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
        want = evaluate_rows(problem, table[runs], positions)
        assert np.array_equal(evaluate(runs, positions).view(np.int64),
                              want.view(np.int64))

    def test_cell_results_survive_grid_edits(self, tiny_frontier):
        problem = ss.ProblemSpec()
        grid = ss.weight_grid(step=0.5, minimum=0.0)
        trimmed = ss.build_frontier(problem, tiny_bfa(), grid[1:],
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


class TestFrontierCsv:
    def test_roundtrip_is_exact(self, tiny_frontier):
        text = frontier_to_csv_text(tiny_frontier)
        again = frontier_from_csv_text(text)
        assert again.points == tiny_frontier.points
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


class TestMetrics:
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
        metrics = ss.compute_metrics(tiny_frontier, reference_count=15)
        refs = reference_sigma_lines(3, 15)
        assert metrics["diversity"] == pytest.approx(
            ss.diversity_metric(tiny_frontier, refs), rel=1e-15)

    def test_grade_context_is_carried(self, tiny_frontier):
        ctx = ss.GradeContext(temperature_secondary=0.17169)
        tagged = ss.Frontier(points=tiny_frontier.points, grade_context=ctx)
        metrics = ss.compute_metrics(tagged)
        assert metrics["grade_context"] == ctx.to_dict()
