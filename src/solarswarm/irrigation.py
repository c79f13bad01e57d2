"""Solar irrigation pump sizing problem: objectives, bounds, noise handling.

Three response surfaces describe the pump system: delivered power, pumping
efficiency, and annual cost savings, each a quadratic polynomial in four
design variables (x_a..x_d, matching the frontier CSV column names) and two
noise variables (ambient temperature Z_a in kelvin, insolation Z_b in
W/m^2). The polynomial coefficients were transcribed from a printed source
table that carries two known misprints; the corrected readings are the
default and each can be switched back to the as-printed form for fidelity
checks.

Noise bounds lie inside the crisp reference intervals, the box the surfaces
are coded against, by whatever route they come (ProblemSpec's one check, or
NoiseOutOfBox); coded mode maps noise values from that box in any case.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .codec import ConfigCodec, bound_pairs, is_real
from .errors import (
    InfeasibleSpec,
    NoiseOutOfBox,
    NonFiniteResult,
    ValidationError,
)

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

    def __post_init__(self) -> None:
        _check_finite(self)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x_a, self.x_b, self.x_c, self.x_d)


@dataclass(frozen=True)
class NoiseVector:
    """Ambient temperature (kelvin) and insolation (W/m^2)."""

    z_a: float
    z_b: float

    def __post_init__(self) -> None:
        _check_finite(self)

    def as_tuple(self) -> tuple[float, float]:
        return (self.z_a, self.z_b)


def _check_finite(vector) -> None:
    """Reject a design or noise vector holding anything but finite real
    numbers (codec.is_real)."""
    for name, value in zip(vector.__dataclass_fields__, vector.as_tuple()):
        if not (is_real(value) and math.isfinite(value)):
            raise ValidationError(
                f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class ObjectiveTriple:
    """Delivered power, pumping efficiency, annual savings, in CSV order."""

    power: float
    efficiency: float
    savings: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.power, self.efficiency, self.savings)


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
        design = bound_pairs(self.design_bounds, 4, "design_bounds")
        noise = bound_pairs(self.noise_bounds, 2, "noise_bounds")
        for name, (lo, hi), (box_lo, box_hi) in zip(
                ("Z_a (temperature)", "Z_b (insolation)"), noise,
                CRISP_NOISE_BOUNDS):
            if not box_lo <= lo <= hi <= box_hi:
                raise NoiseOutOfBox(
                    f"{name} noise interval [{lo}, {hi}] lies outside the "
                    f"box [{box_lo}, {box_hi}] the response surfaces are "
                    f"coded against")
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


# Columns of a polynomial term: the six variables, then the constant 1.
_XA, _XB, _XC, _XD, _ZA, _ZB, _ONE = range(7)


def _stretch(exponent: float) -> float:
    """10 ** exponent, inf where it overflows (the finite check rejects it)."""
    try:
        return 10.0 ** exponent
    except OverflowError:
        return math.inf


def coefficient_table(spec: ProblemSpec
                      ) -> tuple[tuple[float, tuple[tuple[float, int, int],
                                                    ...]], ...]:
    """The three response surfaces, as (factor, terms) per objective.

    This is the one source of the polynomial coefficients. An objective is
    factor * (t_1 + t_2 + ...), summed left to right in table order, where
    term (coef, i, j) is coef * X[i] * X[j] over X = (x_a, x_b, x_c, x_d,
    Z_a, Z_b, 1), coded or raw. A printed subtraction is a negative
    coefficient, which IEEE arithmetic makes exact. The factor carries the
    printed leading sign and scale; the misprint flags pick the
    efficiency intercept and the savings flow coefficient.
    """
    sign = 1.0 if spec.maximize else -1.0
    intercept = 0.18507 if spec.fix_efficiency_intercept else 18507.0
    flow = 112114.69 if spec.fix_savings_flow_term else 0.0
    power = (
        (24.947, _ONE, _ONE), (16.011, _XD, _ONE), (1.306, _XB, _ONE),
        (0.820, _XB, _XD), (-0.785, _ZA, _ONE), (-0.497, _XD, _ZA),
        (0.228, _XA, _XB), (0.212, _XA, _ONE), (-0.15, _XB, _XB),
        (0.13, _XA, _XD), (-0.11, _XA, _XA), (-0.034, _XB, _ZA),
        (0.002, _XA, _ZA))
    efficiency = (
        (intercept, _ONE, _ONE), (0.01041, _XC, _ONE), (0.0038, _ZB, _ONE),
        (-0.00366, _ZA, _ONE), (-0.0035, _XC, _ONE), (-0.00157, _XB, _ONE))
    savings = (
        (174695.73, _ONE, _ONE), (flow, _XD, _ONE), (9133.8, _XB, _ONE),
        (5733.05, _XB, _XD), (-5487.76, _ZA, _ONE), (-3478.84, _XD, _ZA),
        (1586.48, _XA, _XB), (1486.84, _XA, _ONE), (-1067.42, _XB, _XB),
        (916.26, _XA, _XD), (-768.9, _XA, _XA), (-242.88, _XB, _ZA),
        (152.4, _XA, _ZA))
    return ((sign * _stretch(spec.power_scale_exp), power),
            (43.4783, efficiency),
            (sign * _stretch(spec.savings_scale_exp), savings))


class _Surfaces:
    """coefficient_table(spec) and the variable coding, laid out once as
    arrays, and the row kernel over them (objective_rows). Every caller
    reaches it as _surfaces(spec).objective_rows; one that scores many
    calls binds it once, so no call hashes the spec again."""

    def __init__(self, spec: ProblemSpec) -> None:
        table = coefficient_table(spec)
        self.coded = spec.variable_mode == "coded"
        bounds = spec.design_bounds + CRISP_NOISE_BOUNDS
        # every objective is summed over the same number of terms; the
        # shorter ones are padded with -0.0 * 1 * 1, and x + -0.0 == x
        # holds bit for bit for every x, so padding changes no sum. The
        # arrays are term-major, (terms, 3), so that term k of all three
        # objectives is one contiguous slice of objective_rows' terms
        size = max(len(terms) for _, terms in table)
        padded = [terms + ((-0.0, _ONE, _ONE),) * (size - len(terms))
                  for _, terms in table]
        by_term = list(zip(*padded))
        self.coef = np.array([[c for c, _, _ in term] for term in by_term]
                             )[..., None]
        self.first = np.array([[i for _, i, _ in term] for term in by_term])
        self.second = np.array([[j for _, _, j in term] for term in by_term])
        self.factor = np.array([factor for factor, _ in table])[:, None]
        self.lo_column = np.array([lo for lo, _ in bounds])[:, None]
        self.width_column = np.array([hi - lo for lo, hi in bounds])[:, None]
        # one instance serves every caller with an equal spec (_surfaces)
        for array in (self.coef, self.first, self.second, self.factor,
                      self.lo_column, self.width_column):
            array.flags.writeable = False

    def objective_rows(self, positions: np.ndarray) -> np.ndarray:
        """(power, efficiency, savings) of every row of an (m, 6) array of
        positions (x_a..x_d, Z_a, Z_b), as a (3, m) array: the one
        evaluator. The optimizer passes the transpose of a (6, m) array,
        which is read straight into the coordinate rows; every operation
        below is elementwise or adds whole rows, so the values do not
        depend on the layout of `positions`.

        Each objective is factor * (t_1 + t_2 + ...) over
        coefficient_table's terms, term (coef, i, j) computed as
        (coef * X[i]) * X[j]. The terms are laid out term-major, as a
        C-ordered (terms, 3, m) array, and one np.add.reduce over the term
        axis sums them. numpy adds pairwise only along the fastest memory
        axis, and the term axis is the slowest here, with 3 * m >= 3
        elements beside it: so the reduce adds each element's terms
        strictly left to right in table order, one whole (3, m) slice at a
        time, and a row's values do not depend on the rows beside it. A row
        with an objective that is inf or nan raises NonFiniteResult.

        It works in views of its thread's reused workspace (one per
        process: no package code uses threads) and returns a new array,
        never a view. Every view is contiguous: fixed-width views sliced to
        m columns are slower.
        """
        if len(positions) > _ROW_BLOCK:
            return np.concatenate([
                self.objective_rows(positions[k:k + _ROW_BLOCK])
                for k in range(0, len(positions), _ROW_BLOCK)], axis=1)
        floats = getattr(_workspace, "floats", None)
        if floats is None:
            # aligned to 64 bytes: malloc gives large blocks 16, which
            # slows numpy
            raw = np.empty(85 * _ROW_BLOCK + 8)
            floats = _workspace.floats = raw[-raw.ctypes.data % 64 // 8:]
        m = len(positions)
        x = floats[:7 * m].reshape(7, m)
        x[_ONE] = 1.0
        coords = x[:_ONE]
        if self.coded:
            # ((p - lo) * 2.0) / width - 1.0, one operation at a time into
            # the coordinate rows
            np.subtract(positions.T, self.lo_column, out=coords)
            coords *= 2.0
            coords /= self.width_column
            coords -= 1.0
        else:
            coords[:] = positions.T
        terms = floats[7 * _ROW_BLOCK:][:39 * m].reshape(13, 3, m)
        second = floats[46 * _ROW_BLOCK:][:39 * m].reshape(13, 3, m)
        # every index is valid, so "clip" changes nothing; "raise" buffers
        # out
        x.take(self.first, 0, terms, "clip")
        terms *= self.coef
        x.take(self.second, 0, second, "clip")
        terms *= second
        # a new array, so the workspace is free for the next call
        objectives = np.add.reduce(terms, axis=0)
        objectives *= self.factor
        if not np.isfinite(objectives).all():
            bad = positions[
                np.isfinite(objectives).all(axis=0).argmin()].tolist()
            raise NonFiniteResult(
                f"objectives not finite at position {bad!r}")
        return objectives


_surfaces = functools.lru_cache(maxsize=16)(_Surfaces)


# _Surfaces.objective_rows works through at most this many rows at a time, in a
# workspace of 85 floats per row: the 7 coordinate rows, the (13, 3, m)
# terms and their second factors. In smaller blocks the fixed cost of each
# block's numpy calls outweighs the work
_ROW_BLOCK = 1024
_workspace = threading.local()


def _weighted_sum(weights: np.ndarray, objectives: np.ndarray) -> np.ndarray:
    """F of every column of (3, m) objective rows under (3, m) or (3, 1)
    weight columns: w1 * power + w2 * efficiency + w3 * savings, added
    left to right. The one array form of F; aggregate is its scalar form.
    """
    weighted = objectives * weights
    total = weighted[0] + weighted[1]
    total += weighted[2]
    return total


def _point(design, noise) -> tuple[float, ...]:
    """A (design, noise) point as its six floats: a DesignVector or 4
    numbers, then a NoiseVector or 2 numbers, each a real number
    (codec.is_real)."""
    point = ()
    for name, vector, size in (("design", design, 4), ("noise", noise, 2)):
        if isinstance(vector, (DesignVector, NoiseVector)):
            vector = vector.as_tuple()
        vector = tuple(vector)
        if len(vector) != size:
            raise ValidationError(
                f"{name} vector needs {size} values, got {len(vector)}")
        if not all(map(is_real, vector)):
            raise ValidationError(
                f"{name} vector needs real numbers, got {vector!r}")
        point += tuple(map(float, vector))
    return point


def eval_objectives(design, noise, spec: ProblemSpec) -> ObjectiveTriple:
    """Evaluate all three response surfaces at one (design, noise) point."""
    power, efficiency, savings = _surfaces(spec).objective_rows(
        np.array([_point(design, noise)]))[:, 0].tolist()
    return ObjectiveTriple(power=power, efficiency=efficiency, savings=savings)


def aggregate(objectives: ObjectiveTriple, weights: WeightVector) -> float:
    """Weighted sum of the three objectives, in fixed column order: the
    scalar form of _weighted_sum."""
    return (weights.w1 * objectives.power
            + weights.w2 * objectives.efficiency
            + weights.w3 * objectives.savings)


def feasible(design, noise, spec: ProblemSpec) -> bool:
    """True when every variable sits inside its (closed) interval."""
    values = _point(design, noise)
    bounds = spec.design_bounds + spec.noise_bounds
    return all(lo <= v <= hi for v, (lo, hi) in zip(values, bounds))


@dataclass
class IrrigationFitness:
    """Adapter exposing the sizing problem to the swarm optimizer.

    The search vector is (x_a, x_b, x_c, x_d, Z_a, Z_b): the optimizer
    explores noise jointly with design, so the aggregate it maximizes is
    the best case over the admitted noise interval.
    """

    spec: ProblemSpec
    weights: WeightVector
    bounds: tuple[tuple[float, float], ...] = field(init=False)

    def __post_init__(self) -> None:
        self.bounds = self.spec.design_bounds + self.spec.noise_bounds
        self._weight_column = np.array(self.weights.as_tuple())[:, None]
        self._objective_rows = _surfaces(self.spec).objective_rows

    def evaluate(self, position) -> float:
        """The aggregate at one position: evaluate_rows of that one row,
        bit for bit. The optimizer never calls it; it stays as a one-row
        convenience, which the benchmark's span tracer binds and its
        exact-optimum oracle calls. It keeps its own expression rather
        than calling self.evaluate_rows, so a subclass may override
        evaluate_rows with evaluate, row by row, without recursing."""
        row = np.asarray(position, dtype=float)
        if row.shape != (6,):
            raise ValidationError(
                f"position needs one row of 6 values, got shape {row.shape}")
        return float(_weighted_sum(self._weight_column,
                                   self._objective_rows(row[None]))[0])

    def evaluate_rows(self, positions: np.ndarray) -> np.ndarray:
        """The aggregate of every row of an (m, 6) array, in one call,
        through the row kernel bound when the fitness was made."""
        return _weighted_sum(self._weight_column,
                             self._objective_rows(positions))
