"""Exact box-constrained maximum of the weighted objective, and op checks.

For the default problem, x_c and Z_b enter the three response surfaces only
linearly and x_d and Z_a only multilinearly, so for fixed (x_a, x_b) the
weighted sum F = w . f is multilinear in (x_c, x_d, Z_a, Z_b) and its maximum
over the box sits on one of their 16 bound corners. At each corner F is a
concave quadratic in (x_a, x_b); its box maximum is the best feasible
stationary point over the 9 faces of the (x_a, x_b) box (each coordinate at
its lower bound, its upper bound, or free). Every candidate's value comes
from IrrigationFitness.evaluate, so the oracle and the optimizer score points
with the same code.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from solarswarm.irrigation import IrrigationFitness, ProblemSpec, WeightVector

# An op fails when its point scores more than this share below the oracle.
# Over 1000 shortened single runs (random lattice weights) the relative gap
# had median 1.1e-9, but about a fifth of the runs stall short of the corner:
# p99 3.7e-3, max 8.4e-3. A uniform random point in the box has median gap
# 0.44 and 1st percentile 0.068. 5e-2 passes every stalled run seen with a
# 6x margin and still fails an optimizer that returns arbitrary points;
# bfa.gap_rel_max in the traced run tracks convergence itself.
GAP_TOLERANCE = 5e-2
# F and w . f are both written in shortest round-trip form; this only absorbs
# a different summation order.
AGGREGATE_TOLERANCE = 1e-12
# A point may beat the oracle by rounding only.
OVERSHOOT_TOLERANCE = 1e-12


def _stationary_candidates(fitness, corner, bounds):
    """Stationary points of the (x_a, x_b) quadratic on each box face."""
    (alo, ahi), (blo, bhi) = bounds
    mid = np.array([(alo + ahi) / 2.0, (blo + bhi) / 2.0])
    half = np.array([(ahi - alo) / 2.0, (bhi - blo) / 2.0])

    def q(a, b):
        return fitness.evaluate(np.array([a, b, *corner]))

    # exact finite differences of a quadratic, in units of the half widths
    q0 = q(*mid)
    qa_p, qa_m = q(mid[0] + half[0], mid[1]), q(mid[0] - half[0], mid[1])
    qb_p, qb_m = q(mid[0], mid[1] + half[1]), q(mid[0], mid[1] - half[1])
    qab = q(mid[0] + half[0], mid[1] + half[1])
    g = np.array([(qa_p - qa_m) / 2.0, (qb_p - qb_m) / 2.0])
    h = np.array([[qa_p - 2.0 * q0 + qa_m, qab - qa_p - qb_p + q0],
                  [qab - qa_p - qb_p + q0, qb_p - 2.0 * q0 + qb_m]])
    lows, highs = np.array([alo, blo]), np.array([ahi, bhi])
    candidates = []
    for face in itertools.product(("lo", "hi", "free"), repeat=2):
        u = np.array([-1.0 if s == "lo" else 1.0 if s == "hi" else 0.0
                      for s in face])
        free = [i for i, s in enumerate(face) if s == "free"]
        if free:
            fixed = [i for i in range(2) if i not in free]
            rhs = -(g[free] + h[np.ix_(free, fixed)] @ u[fixed])
            try:
                u[free] = np.linalg.solve(h[np.ix_(free, free)], rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(np.abs(u[free]) > 1.0):
                continue
        candidates.append(np.clip(mid + half * u, lows, highs))
    return candidates


def exact_optimum(weights: WeightVector,
                  problem: ProblemSpec | None = None
                  ) -> tuple[float, np.ndarray]:
    """(max of w . f over the box, a maximizing 6-vector)."""
    problem = problem or ProblemSpec()
    fitness = IrrigationFitness(problem, weights)
    bounds = fitness.bounds
    best_value, best_point = -math.inf, None
    for corner in itertools.product(*(bounds[i] for i in (2, 3, 4, 5))):
        for ab in _stationary_candidates(fitness, corner, bounds[:2]):
            point = np.array([*ab, *corner])
            value = fitness.evaluate(point)
            if value > best_value:
                best_value, best_point = value, point
    return best_value, best_point


class OptimumCache:
    """Oracle values per weight vector, computed once per run."""

    def __init__(self, problem: ProblemSpec | None = None) -> None:
        self.problem = problem or ProblemSpec()
        self._values: dict[tuple[float, float, float], float] = {}

    def value(self, weights: WeightVector) -> float:
        key = weights.as_tuple()
        if key not in self._values:
            self._values[key] = exact_optimum(weights, self.problem)[0]
        return self._values[key]


def check_point(row: dict, cache: OptimumCache) -> tuple[str | None, float]:
    """Check one frontier or solution CSV row.

    Returns (failure reason or None, relative gap to the exact optimum).
    """
    problem = cache.problem
    values = [float(row[k]) for k in ("x_a", "x_b", "x_c", "x_d", "Z_a", "Z_b")]
    for v, (lo, hi), name in zip(values,
                                 problem.design_bounds + problem.noise_bounds,
                                 ("x_a", "x_b", "x_c", "x_d", "Z_a", "Z_b")):
        if not lo <= v <= hi:
            return f"{name}={v!r} outside [{lo}, {hi}]", math.nan
    w = [float(row[k]) for k in ("w1", "w2", "w3")]
    f = [float(row[k]) for k in ("f1", "f2", "f3")]
    big_f = float(row["F"])
    expected = w[0] * f[0] + w[1] * f[1] + w[2] * f[2]
    if abs(big_f - expected) > AGGREGATE_TOLERANCE * max(1.0, abs(expected)):
        return f"F={big_f!r} differs from w.f={expected!r}", math.nan
    best = cache.value(WeightVector(*w))
    gap = (best - big_f) / abs(best)
    if gap > GAP_TOLERANCE:
        return f"gap {gap:.3g} to the exact optimum exceeds {GAP_TOLERANCE}", gap
    if gap < -OVERSHOOT_TOLERANCE:
        return f"F={big_f!r} beats the exact optimum {best!r}", gap
    return None, gap
