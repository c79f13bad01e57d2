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
