import math

import numpy as np
import pytest
from hypothesis import settings

import solarswarm as ss
from solarswarm.bfa import (
    eliminate_disperse,
    reproduce,
    step_sizes,
    swim_loop,
    tumble_direction,
)
from solarswarm.irrigation import CRISP_NOISE_BOUNDS

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
def unit_curve():
    return ss.SCurveParams(b_lo=0.0, b_hi=1.0)


class Recorder:
    """A fitness function scored point by point: counts every evaluation
    and keeps the first strictly greater raw fitness as the incumbent."""

    def __init__(self, f):
        self.f, self.dimension, self.bounds = f, f.dimension, f.bounds
        self.count, self.best_fitness, self.best_position = 0, -math.inf, None

    def evaluate(self, position):
        value = float(self.f.evaluate(position))
        self.count += 1
        if value > self.best_fitness:
            self.best_fitness, self.best_position = value, np.array(position)
        return value


def reference_run(f, cfg):
    """One optimizer run, move by move, built only from the helpers the
    acceptance gate imports: one tumble_direction call per tumble,
    swim_loop per bacterium (each move scored with f.evaluate when the walk
    reaches it), reproduce, and eliminate_disperse followed by scoring the
    relocated members in index order."""
    rng = np.random.default_rng(cfg.seed)
    box = np.array(f.bounds, dtype=float)
    steps = step_sizes(cfg, box)
    recorder = Recorder(f)
    swarm = ss.Swarm.random(cfg.population_size, box[:, 0], box[:, 1], rng)
    for i in range(swarm.size):
        swarm.raw_fitness[i] = recorder.evaluate(swarm.positions[i])
    fitness, counts = [recorder.best_fitness], [recorder.count]
    for _ in range(cfg.total_passes * cfg.elimination_cycles):
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
            swarm.raw_fitness[i] = recorder.evaluate(swarm.positions[i])
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
