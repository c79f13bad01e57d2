"""Interval type-2 fuzzy modeling of noisy climate factors.

A factor (temperature or insolation) gets one decreasing S-curve membership
function per month, fitted to that month's (min, max) interval, plus one
annual secondary curve fitted to the year's overall extrema. A
GradeContext's secondary grades become the problem's noise bounds through
the inverse of the annual curve (GradeContext.noise_bounds, through
noise_interval_from_grades), and must land inside the crisp noise box the
response surfaces are coded against; primary grades are only echoed. The
twelve monthly curves sweep out a footprint of uncertainty: sample_fou and
type_reduce (alpha-plane cuts of the annual curve) describe the model as
diagnostics and feed no noise interval.

A grade is a real number in [0, 1], and a grade range two grades with
lo <= hi: _grades checks each one that comes in, a GradeContext's when built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import climate
from .codec import ConfigCodec, is_real, json_text, read_json, write_text
from .errors import (
    DegenerateRange,
    EmptyInterval,
    GradeOutOfSmoothRange,
    NoiseOutOfBox,
    TooFewPlanes,
    ValidationError,
)
from .irrigation import CRISP_NOISE_BOUNDS

# Shape constants shared by every curve: chosen so the grade falls from
# ~1 at the low end of the range to ~0.001 at the high end, with grade
# ~0.5 at the midpoint.
C = 0.001001
ALPHA = 13.8135


@dataclass(frozen=True)
class SCurveParams(ConfigCodec):
    """Decreasing S-curve membership over [b_lo, b_hi].

    grade(b) = 1 for b <= b_lo, 0 for b >= b_hi, and
    1 / (1 + C * exp(ALPHA * (b - b_lo) / (b_hi - b_lo))) in between.
    The jump to exactly 1 at b_lo is intentional: the low end of a range is
    fully compatible with "low", no matter how close C pushes the smooth
    branch to 1.
    """

    b_lo: float
    b_hi: float

    # grade limits of the smooth branch, as b -> b_lo from above and as
    # b -> b_hi from below; the same for every curve
    smooth_sup = 1.0 / (1.0 + C)
    smooth_inf = 1.0 / (1.0 + C * math.exp(ALPHA))

    def __post_init__(self) -> None:
        if not (self.b_lo < self.b_hi):
            raise DegenerateRange(
                f"need b_lo < b_hi, got [{self.b_lo}, {self.b_hi}]")


def scurve_grade(b, params: SCurveParams):
    """Membership grade of value b under the curve. Decreasing in b.

    An array b is graded elementwise and a scalar b gives a float, both
    through the same numpy expression, so either form gives the same bits.
    """
    b = np.asarray(b, dtype=float)
    t = (b - params.b_lo) / (params.b_hi - params.b_lo)
    with np.errstate(over="ignore"):  # outside the support; replaced below
        smooth = 1.0 / (1.0 + C * np.exp(ALPHA * t))
    grade = np.where(b <= params.b_lo, 1.0,
                     np.where(b >= params.b_hi, 0.0, smooth))
    return float(grade) if grade.ndim == 0 else grade


def scurve_invert(grade: float, params: SCurveParams) -> float:
    """Value whose smooth-branch grade equals `grade`.

    Only grades strictly inside (smooth_inf, smooth_sup) are invertible;
    the saturated branches map whole half-lines to 0 and 1.
    """
    if not (params.smooth_inf < grade < params.smooth_sup):
        raise GradeOutOfSmoothRange(
            f"grade {grade} outside invertible range "
            f"({params.smooth_inf}, {params.smooth_sup})")
    t = math.log((1.0 - grade) / (grade * C)) / ALPHA
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
    """Fit monthly and annual curves to a climate table. A curve of no
    width is a DegenerateRange that names the factor, then "annual" or the
    month; the annual curve is checked first."""
    def curve(where: str, interval: tuple[float, float]) -> SCurveParams:
        try:
            return SCurveParams(*interval)
        except DegenerateRange as err:
            raise DegenerateRange(f"{factor} {where}: {err}") from None

    annual = curve("annual", climate.annual_extrema(table, factor))
    monthly = tuple(
        curve(f"month {month}", climate.monthly_interval(table, month, factor))
        for month in range(1, 13))
    return Type2FuzzyVariable(factor=factor, monthly=monthly, annual=annual)


@dataclass(frozen=True)
class FootprintOfUncertainty:
    """Sampled envelope of the monthly membership family over the annual
    domain, as sample_fou builds it."""

    grid: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    @property
    def mean_width(self) -> float:
        return float(np.mean(self.upper - self.lower))

    @property
    def max_width(self) -> float:
        return float(np.max(self.upper - self.lower))


def sample_fou(model: Type2FuzzyVariable,
               n_points: int = 512) -> FootprintOfUncertainty:
    """Lowest and highest monthly grade at n_points evenly spaced values
    across the annual domain."""
    if n_points < 2:
        raise ValidationError("need at least 2 grid points")
    lo, hi = model.domain
    grid = np.linspace(lo, hi, n_points)
    grades = np.stack([scurve_grade(grid, curve) for curve in model.monthly])
    return FootprintOfUncertainty(grid=grid, lower=grades.min(axis=0),
                                  upper=grades.max(axis=0))


@dataclass(frozen=True)
class AlphaPlane:
    """Horizontal cut of the annual curve: every value with grade >= level."""

    level: float
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValidationError(
                f"plane interval [{self.lo}, {self.hi}] is empty")


def alpha_plane_cut(model: Type2FuzzyVariable, level: float) -> AlphaPlane:
    """Cut the annual secondary curve at one grade level.

    The curve decreases, so the cut always starts at the low end of the
    domain; the level decides how far right it reaches. Level 0 returns the
    whole domain, level 1 collapses onto the left endpoint (the only value
    whose grade is exactly 1).
    """
    level = _grade(level, "level")
    curve = model.annual
    if level <= curve.smooth_inf:
        # every interior point clears the level (smooth_inf >= 0, so level
        # 0 lands here); only the right endpoint (grade exactly 0) falls
        # out, and closing the interval keeps it
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


def _grade(value, label: str) -> float:
    """A grade as a float: a real number (codec.is_real) in [0, 1]."""
    if not (is_real(value) and 0.0 <= value <= 1.0):
        raise ValidationError(
            f"{label} must be a number in [0, 1], got {value!r}")
    return float(value)


def _grades(value, label: str = "grade") -> float | tuple[float, float]:
    """A grade as a float, or a grade range as a (lo, hi) pair of grades
    with lo <= hi: the one check of a grade. Messages start with label."""
    if not isinstance(value, (tuple, list)):
        return _grade(value, label)
    if len(value) != 2:
        raise ValidationError(
            f"{label} range needs 2 values, got {len(value)}")
    lo, hi = (_grade(v, label) for v in value)
    if lo > hi:
        raise ValidationError(f"{label} range out of order: ({lo}, {hi})")
    return (lo, hi)


def _check_pad(pad: float) -> None:
    """The one pad check: a number >= 0, which nan is not."""
    if not pad >= 0.0:
        raise ValidationError(f"pad must be >= 0, got {pad}")


@dataclass(frozen=True)
class GradeContext(ConfigCodec):
    """Membership grades a frontier was conditioned on.

    Each entry is a single grade or a (lo, hi) grade range, checked by
    _grades when the context is built; primary grades are monthly-curve
    context carried for reporting, secondary grades are the annual-curve
    values that actually produce noise intervals.
    """

    temperature_primary: float | tuple[float, float] | None = None
    temperature_secondary: float | tuple[float, float] | None = None
    insolation_primary: float | tuple[float, float] | None = None
    insolation_secondary: float | tuple[float, float] | None = None
    pad: float = 0.005

    def __post_init__(self) -> None:
        for name in ("temperature_primary", "temperature_secondary",
                     "insolation_primary", "insolation_secondary"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name,
                                   _grades(value, f"{name} grade"))
        _check_pad(self.pad)

    def noise_bounds(self, table: climate.ClimateTable, bounds) -> tuple:
        """The (Z_a, Z_b) noise `bounds`, each graded factor's replaced by
        its secondary grades' padded interval on its model of `table`. An
        interval outside that factor's irrigation.CRISP_NOISE_BOUNDS, the
        box the response surfaces are coded against, is a NoiseOutOfBox."""
        bounds = list(bounds)
        # the noise bounds are (Z_a, Z_b): temperature, then insolation
        for index, factor in enumerate(climate.FACTORS):
            grades = getattr(self, f"{factor}_secondary")
            if grades is not None:
                lo, hi = noise_interval_from_grades(
                    build_type2_model(table, factor), grades, self.pad)
                box_lo, box_hi = CRISP_NOISE_BOUNDS[index]
                if not box_lo <= lo <= hi <= box_hi:
                    raise NoiseOutOfBox(
                        f"{factor} grades {grades} give the noise interval "
                        f"[{lo}, {hi}], outside the box [{box_lo}, {box_hi}] "
                        f"the response surfaces are coded against")
                bounds[index] = (lo, hi)
        return tuple(bounds)


def noise_interval_from_grades(model: Type2FuzzyVariable,
                               grades: float | tuple[float, float],
                               pad: float = 0.0) -> tuple[float, float]:
    """Crisp noise interval from secondary grades on the annual curve.

    A (g_lo, g_hi) grade range maps to the preimage interval (the curve
    decreases, so the higher grade gives the lower endpoint). A single
    grade, or a degenerate (g, g) range, maps to its preimage point widened
    symmetrically by pad * annual range. The result is intersected with the
    annual domain.
    """
    _check_pad(pad)
    dom_lo, dom_hi = model.domain
    grades = _grades(grades)
    g_lo, g_hi = grades if isinstance(grades, tuple) else (grades, grades)
    if g_lo < g_hi:
        lo = scurve_invert(g_hi, model.annual)
        hi = scurve_invert(g_lo, model.annual)
    else:  # a single grade, or a range of one
        x = scurve_invert(g_lo, model.annual)
        half = pad * (dom_hi - dom_lo)
        lo, hi = x - half, x + half
    lo, hi = max(lo, dom_lo), min(hi, dom_hi)
    if lo > hi:
        raise EmptyInterval(
            f"derived interval [{lo}, {hi}] is empty after clipping to "
            f"[{dom_lo}, {dom_hi}]")
    return (lo, hi)


def save_model(model: Type2FuzzyVariable, path: str) -> None:
    write_text(path, json_text(model.to_dict()))


def load_model(path: str) -> Type2FuzzyVariable:
    """A model file read under the config rules of ConfigCodec."""
    return Type2FuzzyVariable.from_dict(read_json(path))
