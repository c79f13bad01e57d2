"""Solar irrigation pump sizing problem: objectives, bounds, noise handling.

Three response surfaces describe the pump system: delivered power, pumping
efficiency, and annual cost savings, each a quadratic polynomial in four
design variables (x_a..x_d, matching the frontier CSV column names) and two
noise variables (ambient temperature Z_a in kelvin, insolation Z_b in
W/m^2). The polynomial coefficients were transcribed from a printed source
table that carries two known misprints; the corrected readings are the
default and each can be switched back to the as-printed form for fidelity
checks.

Noise bounds may be crisp reference intervals or intervals derived from
membership grades of the fuzzy climate model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .bfa import ConfigCodec
from .errors import (
    EmptyInterval,
    InfeasibleSpec,
    NonFiniteResult,
    ValidationError,
)
from .fuzzy import Type2FuzzyVariable, scurve_invert

# Reference variable intervals for the pump system. Design bounds double as
# the coded-variable mapping intervals; the noise reference stays fixed even
# when a grade context narrows the active noise interval, so coded
# polynomials always see the same geometry.
DEFAULT_DESIGN_BOUNDS = (
    (0.3, 3.0),      # x_a
    (450.0, 520.0),  # x_b
    (520.0, 800.0),  # x_c
    (0.01, 0.2),     # x_d
)
CRISP_NOISE_BOUNDS = (
    (293.0, 303.0),    # Z_a, kelvin
    (800.0, 1000.0),   # Z_b, W/m^2
)

VARIABLE_MODES = ("coded", "raw")


@dataclass(frozen=True)
class DesignVector:
    """Four pump design variables, named after the frontier CSV columns."""

    x_a: float
    x_b: float
    x_c: float
    x_d: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x_a, self.x_b, self.x_c, self.x_d)


@dataclass(frozen=True)
class NoiseVector:
    """Ambient temperature (kelvin) and insolation (W/m^2)."""

    z_a: float
    z_b: float

    def as_tuple(self) -> tuple[float, float]:
        return (self.z_a, self.z_b)


@dataclass(frozen=True)
class ObjectiveTriple:
    """Delivered power, pumping efficiency, annual savings, in CSV order."""

    power: float
    efficiency: float
    savings: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.power, self.efficiency, self.savings)

    def __add__(self, other: "ObjectiveTriple") -> "ObjectiveTriple":
        return ObjectiveTriple(self.power + other.power,
                               self.efficiency + other.efficiency,
                               self.savings + other.savings)

    def scaled(self, factor: float) -> "ObjectiveTriple":
        return ObjectiveTriple(self.power * factor,
                               self.efficiency * factor,
                               self.savings * factor)


@dataclass(frozen=True)
class WeightVector:
    """Convex weights over the three objectives."""

    w1: float
    w2: float
    w3: float

    def __post_init__(self) -> None:
        for w in (self.w1, self.w2, self.w3):
            if not (w >= 0.0 and math.isfinite(w)):
                raise ValidationError(f"weights must be finite and >= 0, got {w}")
        total = self.w1 + self.w2 + self.w3
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"weights must sum to 1, got {total!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.w1, self.w2, self.w3)


def _check_bounds(bounds: Iterable[Sequence[float]], n: int,
                  label: str) -> tuple[tuple[float, float], ...]:
    pairs = tuple((float(lo), float(hi)) for lo, hi in bounds)
    if len(pairs) != n:
        raise ValidationError(f"{label} needs {n} (lo, hi) pairs, got {len(pairs)}")
    for lo, hi in pairs:
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InfeasibleSpec(f"{label} contains a non-finite bound")
        if lo > hi:
            raise InfeasibleSpec(f"{label} interval [{lo}, {hi}] is empty")
    return pairs


@dataclass(frozen=True)
class ProblemSpec(ConfigCodec):
    """Everything that pins down one instance of the sizing problem.

    variable_mode selects how raw variable values feed the polynomials:
    "coded" first maps each variable linearly onto [-1, 1] from its
    reference interval (the response surfaces were fitted in coded units),
    "raw" feeds physical values straight in. The two scale exponents apply
    power-of-ten stretches to the power and savings surfaces. The two fix_*
    flags select the corrected readings of the transcribed coefficients;
    maximize=True drops the printed leading minus signs so bigger is better
    for all three objectives.
    """

    design_bounds: tuple[tuple[float, float], ...] = DEFAULT_DESIGN_BOUNDS
    noise_bounds: tuple[tuple[float, float], ...] = CRISP_NOISE_BOUNDS
    variable_mode: str = "coded"
    power_scale_exp: float = 3.24
    savings_scale_exp: float = 3.23
    fix_efficiency_intercept: bool = True
    fix_savings_flow_term: bool = True
    maximize: bool = True

    def __post_init__(self) -> None:
        design = _check_bounds(self.design_bounds, 4, "design_bounds")
        noise = _check_bounds(self.noise_bounds, 2, "noise_bounds")
        object.__setattr__(self, "design_bounds", design)
        object.__setattr__(self, "noise_bounds", noise)
        if self.variable_mode not in VARIABLE_MODES:
            raise ValidationError(
                f"variable_mode {self.variable_mode!r} not in {VARIABLE_MODES}")
        if self.variable_mode == "coded":
            for lo, hi in design:
                if lo == hi:
                    raise InfeasibleSpec(
                        "coded mode needs positive-width design intervals")
        if not (math.isfinite(self.power_scale_exp)
                and math.isfinite(self.savings_scale_exp)):
            raise ValidationError("scale exponents must be finite")

    def with_noise_bounds(
            self, noise_bounds: Iterable[Sequence[float]]) -> "ProblemSpec":
        return replace(self, noise_bounds=noise_bounds)


def _code(value: float, lo: float, hi: float) -> float:
    return 2.0 * (value - lo) / (hi - lo) - 1.0


def _objective_values(xa: float, xb: float, xc: float, xd: float,
                      za: float, zb: float, spec: ProblemSpec
                      ) -> tuple[float, float, float]:
    # hot path: +, -, * and / only, so floats and numpy columns
    # (evaluate_rows) give the same values
    if spec.variable_mode == "coded":
        (alo, ahi), (blo, bhi), (clo, chi), (dlo, dhi) = spec.design_bounds
        (zalo, zahi), (zblo, zbhi) = CRISP_NOISE_BOUNDS
        xa = _code(xa, alo, ahi)
        xb = _code(xb, blo, bhi)
        xc = _code(xc, clo, chi)
        xd = _code(xd, dlo, dhi)
        za = _code(za, zalo, zahi)
        zb = _code(zb, zblo, zbhi)

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


def _finite_objectives(xa: float, xb: float, xc: float, xd: float,
                       za: float, zb: float, spec: ProblemSpec
                       ) -> tuple[float, float, float]:
    """_objective_values at one point, rejecting overflow, inf and nan."""
    try:
        power, efficiency, savings = _objective_values(
            xa, xb, xc, xd, za, zb, spec)
    except OverflowError:
        raise NonFiniteResult(
            f"objectives overflow at {(xa, xb, xc, xd, za, zb)}") from None
    if not (math.isfinite(power) and math.isfinite(efficiency)
            and math.isfinite(savings)):
        raise NonFiniteResult(
            f"objectives not finite at {(xa, xb, xc, xd, za, zb)}: "
            f"({power}, {efficiency}, {savings})")
    return power, efficiency, savings


def evaluate_rows(spec: ProblemSpec, weights: np.ndarray,
                  positions: np.ndarray) -> np.ndarray:
    """IrrigationFitness.evaluate for many rows at once.

    Row k scores positions[k] (x_a..x_d, Z_a, Z_b) with the weights
    weights[k] = (w1, w2, w3). The same elementwise operations run in the
    same order as in the scalar evaluator, so every value is bit-identical
    to IrrigationFitness(spec, WeightVector(*weights[k])).evaluate.
    """
    try:
        power, efficiency, savings = _objective_values(*positions.T, spec)
    except OverflowError:
        raise NonFiniteResult("objectives overflow") from None
    finite = np.isfinite(power) & np.isfinite(efficiency) \
        & np.isfinite(savings)
    if not finite.all():
        bad = positions[np.argmin(finite)]
        raise NonFiniteResult(f"objectives not finite at position {bad!r}")
    return (weights[:, 0] * power + weights[:, 1] * efficiency
            + weights[:, 2] * savings)


def _as_design(design) -> tuple[float, float, float, float]:
    if isinstance(design, DesignVector):
        return design.as_tuple()
    values = tuple(float(v) for v in design)
    if len(values) != 4:
        raise ValidationError(f"design vector needs 4 values, got {len(values)}")
    return values


def _as_noise(noise) -> tuple[float, float]:
    if isinstance(noise, NoiseVector):
        return noise.as_tuple()
    values = tuple(float(v) for v in noise)
    if len(values) != 2:
        raise ValidationError(f"noise vector needs 2 values, got {len(values)}")
    return values


def eval_objectives(design, noise, spec: ProblemSpec) -> ObjectiveTriple:
    """Evaluate all three response surfaces at one (design, noise) point."""
    power, efficiency, savings = _finite_objectives(
        *_as_design(design), *_as_noise(noise), spec)
    return ObjectiveTriple(power=power, efficiency=efficiency, savings=savings)


def aggregate(objectives: ObjectiveTriple, weights: WeightVector) -> float:
    """Weighted sum of the three objectives, in fixed column order."""
    return (weights.w1 * objectives.power
            + weights.w2 * objectives.efficiency
            + weights.w3 * objectives.savings)


def feasible(design, noise, spec: ProblemSpec) -> bool:
    """True when every variable sits inside its (closed) interval."""
    values = _as_design(design) + _as_noise(noise)
    bounds = spec.design_bounds + spec.noise_bounds
    return all(lo <= v <= hi for v, (lo, hi) in zip(values, bounds))


def noise_interval_from_grades(model: Type2FuzzyVariable,
                               grades: float | tuple[float, float],
                               pad: float = 0.0) -> tuple[float, float]:
    """Crisp noise interval from membership grades on the annual curve.

    A (g_lo, g_hi) grade range maps to the preimage interval (the curve
    decreases, so the higher grade gives the lower endpoint). A single
    grade, or a degenerate (g, g) range, maps to its preimage point widened
    symmetrically by pad * annual range. The result is intersected with the
    annual domain.
    """
    if pad < 0.0:
        raise ValidationError(f"pad must be >= 0, got {pad}")
    dom_lo, dom_hi = model.domain
    if isinstance(grades, (tuple, list)):
        if len(grades) != 2:
            raise ValidationError(
                f"grade range needs 2 values, got {len(grades)}")
        g_lo, g_hi = float(grades[0]), float(grades[1])
        if g_lo > g_hi:
            raise ValidationError(
                f"grade range out of order: ({g_lo}, {g_hi})")
        if g_lo == g_hi:
            return noise_interval_from_grades(model, g_lo, pad)
        lo = scurve_invert(g_hi, model.annual)
        hi = scurve_invert(g_lo, model.annual)
    else:
        x = scurve_invert(float(grades), model.annual)
        half = pad * (dom_hi - dom_lo)
        lo, hi = x - half, x + half
    lo, hi = max(lo, dom_lo), min(hi, dom_hi)
    if lo > hi:
        raise EmptyInterval(
            f"derived interval [{lo}, {hi}] is empty after clipping to "
            f"[{dom_lo}, {dom_hi}]")
    return (lo, hi)


@dataclass
class IrrigationFitness:
    """Adapter exposing the sizing problem to the swarm optimizer.

    The search vector is (x_a, x_b, x_c, x_d, Z_a, Z_b): the optimizer
    explores noise jointly with design, so the aggregate it maximizes is
    the best case over the admitted noise interval.
    """

    spec: ProblemSpec
    weights: WeightVector
    dimension: int = field(init=False, default=6)
    bounds: tuple[tuple[float, float], ...] = field(init=False)

    def __post_init__(self) -> None:
        self.bounds = self.spec.design_bounds + self.spec.noise_bounds
        self._w1, self._w2, self._w3 = self.weights.as_tuple()

    def evaluate(self, position) -> float:
        xa, xb, xc, xd, za, zb = position.tolist() if hasattr(
            position, "tolist") else (float(v) for v in position)
        power, efficiency, savings = _finite_objectives(
            xa, xb, xc, xd, za, zb, self.spec)
        return self._w1 * power + self._w2 * efficiency + self._w3 * savings
