"""Interval type-2 fuzzy modeling of noisy climate factors.

A factor (temperature or insolation) gets one decreasing S-curve membership
function per month, fitted to that month's (min, max) interval, plus one
annual secondary curve fitted to the year's overall extrema. The twelve
monthly curves sweep out a footprint of uncertainty; alpha-plane cuts of the
annual curve reduce the type-2 set to crisp intervals at a chosen
credibility level.

Membership grades are plain floats in [0, 1] throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import climate
from .codec import ConfigCodec, json_text, read_json
from .errors import (
    DegenerateRange,
    EmptyCut,
    GradeOutOfSmoothRange,
    MonthOutOfRange,
    TooFewPlanes,
    ValidationError,
)

# Shape constants shared by every curve: chosen so the grade falls from
# ~1 at the low end of the range to ~0.001 at the high end, with grade
# ~0.5 at the midpoint.
DEFAULT_B = 1.0
DEFAULT_C = 0.001001
DEFAULT_ALPHA = 13.8135


@dataclass(frozen=True)
class SCurveParams(ConfigCodec):
    """Decreasing S-curve membership over [b_lo, b_hi].

    grade(b) = 1 for b <= b_lo, 0 for b >= b_hi, and
    B / (1 + C * exp(alpha * (b - b_lo) / (b_hi - b_lo))) in between.
    The jump to exactly 1 at b_lo is intentional: the low end of a range is
    fully compatible with "low", no matter how close C pushes the smooth
    branch to 1.
    """

    b_lo: float
    b_hi: float
    B: float = DEFAULT_B
    C: float = DEFAULT_C
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self) -> None:
        if not (self.b_lo < self.b_hi):
            raise DegenerateRange(
                f"need b_lo < b_hi, got [{self.b_lo}, {self.b_hi}]")
        if self.B <= 0 or self.C <= 0 or self.alpha <= 0:
            raise ValidationError("B, C, alpha must all be positive")
        if self.B / (1.0 + self.C) > 1.0:
            raise ValidationError(
                "B/(1+C) must not exceed 1 so grades stay in [0, 1]")

    @property
    def smooth_sup(self) -> float:
        """Upper grade limit of the smooth branch (as b -> b_lo from above)."""
        return self.B / (1.0 + self.C)

    @property
    def smooth_inf(self) -> float:
        """Lower grade limit of the smooth branch (as b -> b_hi from below)."""
        return self.B / (1.0 + self.C * math.exp(self.alpha))


def fit_scurve(lo: float, hi: float, *, B: float = DEFAULT_B,
               C: float = DEFAULT_C, alpha: float = DEFAULT_ALPHA
               ) -> SCurveParams:
    """Anchor an S-curve to an observed (lo, hi) interval."""
    if not (lo < hi):
        raise DegenerateRange(
            f"cannot fit a curve to a widthless interval [{lo}, {hi}]")
    return SCurveParams(b_lo=lo, b_hi=hi, B=B, C=C, alpha=alpha)


def scurve_grade(b: float, params: SCurveParams) -> float:
    """Membership grade of value b under the curve. Decreasing in b."""
    if b <= params.b_lo:
        return 1.0
    if b >= params.b_hi:
        return 0.0
    t = (b - params.b_lo) / (params.b_hi - params.b_lo)
    return params.B / (1.0 + params.C * math.exp(params.alpha * t))


def scurve_invert(grade: float, params: SCurveParams) -> float:
    """Value whose smooth-branch grade equals `grade`.

    Only grades strictly inside (smooth_inf, smooth_sup) are invertible;
    the saturated branches map whole half-lines to 0 and 1.
    """
    if not (params.smooth_inf < grade < params.smooth_sup):
        raise GradeOutOfSmoothRange(
            f"grade {grade} outside invertible range "
            f"({params.smooth_inf}, {params.smooth_sup})")
    t = math.log((params.B - grade) / (grade * params.C)) / params.alpha
    return params.b_lo + (params.b_hi - params.b_lo) * t


@dataclass(frozen=True)
class Type2FuzzyVariable(ConfigCodec):
    """Twelve monthly primary curves plus one annual secondary curve."""

    factor: str
    monthly: tuple[SCurveParams, ...]
    annual: SCurveParams

    def __post_init__(self) -> None:
        if self.factor not in climate.FACTORS:
            raise ValidationError(
                f"unknown factor {self.factor!r}; expected one of "
                f"{climate.FACTORS}")
        if len(self.monthly) != 12:
            raise ValidationError(
                f"need 12 monthly curves, got {len(self.monthly)}")
        for i, curve in enumerate(self.monthly, start=1):
            if curve.b_lo < self.annual.b_lo or curve.b_hi > self.annual.b_hi:
                raise ValidationError(
                    f"month {i} support [{curve.b_lo}, {curve.b_hi}] sticks "
                    f"out of the annual domain "
                    f"[{self.annual.b_lo}, {self.annual.b_hi}]")

    @property
    def domain(self) -> tuple[float, float]:
        return (self.annual.b_lo, self.annual.b_hi)


def build_type2_model(table: climate.ClimateTable,
                      factor: str) -> Type2FuzzyVariable:
    """Fit monthly and annual curves to a climate table."""
    monthly = tuple(
        fit_scurve(*climate.monthly_interval(table, month, factor))
        for month in range(1, 13))
    annual = fit_scurve(*climate.annual_extrema(table, factor))
    return Type2FuzzyVariable(factor=factor, monthly=monthly, annual=annual)


def grade_pair(model: Type2FuzzyVariable, x: float,
               month: int) -> tuple[float, float]:
    """(primary grade for the month, annual secondary grade) at value x."""
    if not 1 <= month <= 12:
        raise MonthOutOfRange(f"month {month} outside 1..12")
    return (scurve_grade(x, model.monthly[month - 1]),
            scurve_grade(x, model.annual))


def fou_bounds(model: Type2FuzzyVariable, x: float) -> tuple[float, float]:
    """Envelope of the twelve monthly grades at x: (lowest, highest)."""
    grades = [scurve_grade(x, curve) for curve in model.monthly]
    return (min(grades), max(grades))


@dataclass(frozen=True)
class FootprintOfUncertainty:
    """Sampled envelope of the monthly membership family over the annual domain."""

    grid: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.grid) == len(self.lower) == len(self.upper)):
            raise ValidationError("grid and envelopes must share a length")
        if np.any(self.lower < -0.0) or np.any(self.upper > 1.0) \
                or np.any(self.lower > self.upper):
            raise ValidationError("envelope must satisfy 0 <= lower <= upper <= 1")

    @property
    def mean_width(self) -> float:
        return float(np.mean(self.upper - self.lower))

    @property
    def max_width(self) -> float:
        return float(np.max(self.upper - self.lower))


def sample_fou(model: Type2FuzzyVariable,
               n_points: int = 512) -> FootprintOfUncertainty:
    if n_points < 2:
        raise ValidationError("need at least 2 grid points")
    lo, hi = model.domain
    grid = np.linspace(lo, hi, n_points)
    lower = np.empty(n_points)
    upper = np.empty(n_points)
    for i, x in enumerate(grid):
        lower[i], upper[i] = fou_bounds(model, float(x))
    return FootprintOfUncertainty(grid=grid, lower=lower, upper=upper)


@dataclass(frozen=True)
class AlphaPlane:
    """Horizontal cut of the annual curve: every value with grade >= level."""

    level: float
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.level <= 1.0:
            raise ValidationError(f"level {self.level} outside [0, 1]")
        if self.lo > self.hi:
            raise ValidationError(
                f"plane interval [{self.lo}, {self.hi}] is empty")

    @property
    def interval(self) -> tuple[float, float]:
        return (self.lo, self.hi)


def alpha_plane_cut(model: Type2FuzzyVariable, level: float) -> AlphaPlane:
    """Cut the annual secondary curve at one grade level.

    The curve decreases, so the cut always starts at the low end of the
    domain; the level decides how far right it reaches. Level 0 returns the
    whole domain, level 1 collapses onto the left endpoint (the only value
    whose grade is exactly 1).
    """
    if not 0.0 <= level <= 1.0:
        raise ValidationError(f"level {level} outside [0, 1]")
    curve = model.annual
    if level == 0.0:
        hi = curve.b_hi
    elif level <= curve.smooth_inf:
        # every interior point clears the level; only the right endpoint
        # (grade exactly 0) falls out, and closing the interval keeps it
        hi = curve.b_hi
    elif level >= curve.smooth_sup:
        hi = curve.b_lo
    else:
        hi = scurve_invert(level, curve)
    return AlphaPlane(level=level, lo=curve.b_lo, hi=hi)


def type_reduce(model: Type2FuzzyVariable,
                n_planes: int = 11) -> list[AlphaPlane]:
    """Stack of alpha planes at evenly spaced levels from 0 to 1.

    Planes are nested: a higher level never yields a wider interval.
    """
    if n_planes < 2:
        raise TooFewPlanes(f"need at least 2 planes, got {n_planes}")
    levels = np.linspace(0.0, 1.0, n_planes)
    return [alpha_plane_cut(model, float(level)) for level in levels]


@dataclass(frozen=True)
class CredibilityLevel:
    """Minimum secondary grade a value must carry to count as credible."""

    epsilon: float

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValidationError(
                f"epsilon {self.epsilon} outside (0, 1)")

    @classmethod
    def for_curve(cls, epsilon: float,
                  params: SCurveParams) -> "CredibilityLevel":
        """Validate epsilon against a curve's attainable smooth grades."""
        if not 0.0 < epsilon < params.smooth_sup:
            raise ValidationError(
                f"epsilon {epsilon} outside (0, {params.smooth_sup})")
        return cls(epsilon=epsilon)


def defuzzify_interval(planes: list[AlphaPlane],
                       eps: float | CredibilityLevel) -> tuple[float, float]:
    """Crisp interval at credibility eps: the tightest plane at or above it."""
    level = eps.epsilon if isinstance(eps, CredibilityLevel) else float(eps)
    if not planes:
        raise EmptyCut("no planes supplied")
    candidates = [p for p in planes if p.level >= level]
    if not candidates:
        raise EmptyCut(
            f"no plane at or above credibility {level}; "
            f"highest available is {max(p.level for p in planes)}")
    chosen = min(candidates, key=lambda p: p.level)
    return chosen.interval


def save_model(model: Type2FuzzyVariable, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(model.to_dict()))


def load_model(path: str) -> Type2FuzzyVariable:
    """A model file read under the config rules of ConfigCodec."""
    return Type2FuzzyVariable.from_dict(read_json(path))
