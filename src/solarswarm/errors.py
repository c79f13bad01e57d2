"""Exception hierarchy shared across the package.

Two families matter to callers: ValidationError covers bad inputs and bad
configuration (the CLI maps these to exit code 1), ComputationError covers
failures arising mid-computation from data that looked fine going in (exit
code 2, same as unexpected crashes).
"""


class SolarswarmError(Exception):
    """Base class for every error this package raises on purpose."""


class ValidationError(SolarswarmError):
    """Input, schema, or configuration rejected before any real work ran."""


class ComputationError(SolarswarmError):
    """A computation could not produce a usable result."""


# climate ingest

class MissingMonth(ValidationError):
    """Climate table does not contain exactly one row per calendar month."""


class MalformedNumber(ValidationError):
    """A numeric field failed to parse."""


class OrderViolation(ValidationError):
    """A monthly record violates min <= avg <= max."""


class MonthOutOfRange(ValidationError):
    """Month index outside 1..12."""


# fuzzy membership

class DegenerateRange(ValidationError):
    """An interval that must have positive width has none."""


class GradeOutOfSmoothRange(ValidationError):
    """Grade not strictly inside the invertible part of an S-curve."""


class TooFewPlanes(ValidationError):
    """Type reduction requested with fewer than two alpha planes."""


class EmptyInterval(ComputationError):
    """A derived interval came out empty."""


# irrigation model

class NonFiniteResult(ComputationError):
    """An objective evaluation produced nan or inf."""


class InfeasibleSpec(ValidationError):
    """Problem bounds admit no search box."""


class NoiseOutOfBox(ValidationError):
    """A noise interval outside the box the surfaces are coded against, so
    evaluating them there would extrapolate."""


# bacterial foraging core

class OddPopulation(ValidationError):
    """Swarm size must be even so reproduction can split it in half."""


# pareto metrics

class EmptyGrid(ValidationError):
    """Weight grid parameters admit no weight vector."""


class ZeroVector(ValidationError):
    """Sigma components requested for an all-zero objective vector."""


class SchemaMismatch(ValidationError):
    """A CSV or JSON document does not match the expected schema."""


class IncompleteBundle(ValidationError):
    """A result bundle directory is missing required files."""
