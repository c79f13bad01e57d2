import math
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import settings

import solarswarm as ss
from solarswarm import pareto
from solarswarm.bfa import (
    eliminate_disperse,
    reproduce,
    step_sizes,
    swim_loop,
    tumble_direction,
)
from solarswarm.irrigation import CRISP_NOISE_BOUNDS
from solarswarm.pareto import sigma_components

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def table():
    return ss.builtin_table()


@pytest.fixture(scope="session")
def temp_model(table):
    return ss.build_type2_model(table, "temperature")


@pytest.fixture(scope="session")
def insol_model(table):
    return ss.build_type2_model(table, "insolation")


@pytest.fixture()
def child_batch(monkeypatch):
    """Patch what a split sweep steps each share with: child(*args) in
    place of pareto._run_batch in each child process, and caller(*args),
    by default the real _run_batch, in the caller. Only a forked child
    inherits the patch, so under another start method the test skips."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("children inherit a patched _run_batch only when forked")
    caller_pid, run_batch = os.getpid(), pareto._run_batch

    def patch(child, caller=run_batch):
        monkeypatch.setattr(pareto, "_run_batch", lambda *args: (
            caller if os.getpid() == caller_pid else child)(*args))
    return patch


@pytest.fixture()
def unit_curve():
    return ss.SCurveParams(b_lo=0.0, b_hi=1.0)


class Recorder:
    """A fitness function that counts every row it scores and keeps the
    first strictly greater raw fitness as the incumbent."""

    def __init__(self, f):
        self.f, self.bounds = f, f.bounds
        self.count, self.best_fitness, self.best_position = 0, -math.inf, None

    def evaluate_rows(self, positions):
        values = self.f.evaluate_rows(positions)
        self.count += len(values)
        for position, value in zip(positions, values.tolist()):
            if value > self.best_fitness:
                self.best_fitness = value
                self.best_position = np.array(position)
        return values


def reference_run(f, cfg):
    """One optimizer run, move by move, built only from the helpers the
    acceptance gate imports: one tumble_direction call per tumble,
    swim_loop per bacterium (each move scored as one row of
    f.evaluate_rows when the walk reaches it), reproduce, and
    eliminate_disperse followed by scoring the relocated members one by
    one, in index order."""
    rng = np.random.default_rng(cfg.seed)
    box = np.array(f.bounds, dtype=float)
    steps = step_sizes(cfg, box)
    recorder = Recorder(f)

    def score(swarm, i):
        swarm.raw_fitness[i] = recorder.evaluate_rows(
            swarm.positions[i:i + 1])[0]

    swarm = ss.Swarm.random(cfg.population_size, box[:, 0], box[:, 1], rng)
    for i in range(swarm.size):
        score(swarm, i)
    fitness, counts = [recorder.best_fitness], [recorder.count]
    for _ in range(cfg.elimination_cycles):
        for _ in range(cfg.reproduction_cycles):
            swarm.health[:] = 0.0
            for _ in range(cfg.chemotaxis_steps):
                for i in range(swarm.size):
                    swim_loop(swarm, i, recorder, cfg,
                              steps * tumble_direction(swarm.dimensions, rng))
                fitness.append(recorder.best_fitness)
                counts.append(recorder.count)
            swarm = reproduce(swarm)
        swarm = eliminate_disperse(swarm, cfg, rng, f.bounds)
        for i in np.flatnonzero(np.isnan(swarm.raw_fitness)):
            score(swarm, i)
    return ss.RunResult(best_position=recorder.best_position,
                        best_fitness=recorder.best_fitness,
                        trace=ss.RunTrace(fitness, counts),
                        evaluations=recorder.count)


@pytest.fixture(scope="session")
def reference():
    """reference_run, to check the optimizer against move by move."""
    return reference_run


def printed_polynomials(xa, xb, xc, xd, za, zb, spec):
    """The response surfaces as the printed polynomials, term by term.

    A frozen oracle for the coefficient table: the same expression runs on
    Python floats or on numpy columns, so it scores one point or many.
    """
    if spec.variable_mode == "coded":
        def code(value, lo, hi):
            return 2.0 * (value - lo) / (hi - lo) - 1.0
        (alo, ahi), (blo, bhi), (clo, chi), (dlo, dhi) = spec.design_bounds
        (zalo, zahi), (zblo, zbhi) = CRISP_NOISE_BOUNDS
        xa, xb = code(xa, alo, ahi), code(xb, blo, bhi)
        xc, xd = code(xc, clo, chi), code(xd, dlo, dhi)
        za, zb = code(za, zalo, zahi), code(zb, zblo, zbhi)

    power_inner = (24.947 + 16.011 * xd + 1.306 * xb + 0.820 * xb * xd
                   - 0.785 * za - 0.497 * xd * za + 0.228 * xa * xb
                   + 0.212 * xa - 0.15 * xb * xb + 0.13 * xa * xd
                   - 0.11 * xa * xa - 0.034 * xb * za + 0.002 * xa * za)

    intercept = 0.18507 if spec.fix_efficiency_intercept else 18507.0
    efficiency = 43.4783 * (intercept + 0.01041 * xc + 0.0038 * zb
                            - 0.00366 * za - 0.0035 * xc - 0.00157 * xb)

    flow_coeff = 112114.69 if spec.fix_savings_flow_term else 0.0
    savings_inner = (174695.73 + flow_coeff * xd + 9133.8 * xb
                     + 5733.05 * xb * xd - 5487.76 * za - 3478.84 * xd * za
                     + 1586.48 * xa * xb + 1486.84 * xa - 1067.42 * xb * xb
                     + 916.26 * xa * xd - 768.9 * xa * xa - 242.88 * xb * za
                     + 152.4 * xa * za)

    sign = 1.0 if spec.maximize else -1.0
    power = sign * power_inner * 10.0 ** spec.power_scale_exp
    savings = sign * savings_inner * 10.0 ** spec.savings_scale_exp
    return (power, efficiency, savings)


@pytest.fixture(scope="session")
def literal_objectives():
    """printed_polynomials, the evaluator's frozen oracle, summed left to
    right."""
    return printed_polynomials


def row_by_row_distances(vectors, references):
    """Each objective vector's distance to its nearest reference line,
    one row at a time: the package's earlier sigma diversity loop, kept
    as the frozen reference for its one-pass form.

    The columns are min-max normalized one by one. Each row's components
    come from sigma_components on Python floats, and its squared gaps to
    the references from one einsum over a C-ordered (references, pairs)
    array.
    """
    matrix = np.array(vectors, dtype=float)
    lo = matrix.min(axis=0)
    hi = matrix.max(axis=0)
    normalized = np.empty_like(matrix)
    for col in range(matrix.shape[1]):
        if hi[col] == lo[col]:
            normalized[:, col] = 0.5
        else:
            normalized[:, col] = (matrix[:, col] - lo[col]) / (hi[col] - lo[col])
    n_pairs = len(references[0].components)
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
    return distances


def row_by_row_diversity(vectors, references):
    """diversity_metric from row_by_row_distances."""
    distances = row_by_row_distances(vectors, references)
    return 1.0 / (math.fsum(distances) / len(distances) + 1e-12)


@pytest.fixture(scope="session")
def reference_distances():
    """row_by_row_distances, the bit-for-bit reference of
    pareto._nearest_distances."""
    return row_by_row_distances


@pytest.fixture(scope="session")
def reference_diversity():
    """row_by_row_diversity, the bit-for-bit reference of
    diversity_metric."""
    return row_by_row_diversity
