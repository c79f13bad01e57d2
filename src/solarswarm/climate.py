"""Monthly climate table: parsing, validation, and extrema queries.

The table holds one row per calendar month with max/min/avg ambient
temperature (kelvin) and max/min/avg insolation (W/m^2). A year of
measurements for the Santa Rosa station ships with the package as
``data/santa_rosa_2014.csv`` and is the default input everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .codec import csv_rows
from .errors import (
    MalformedNumber,
    MissingMonth,
    MonthOutOfRange,
    OrderViolation,
    ValidationError,
)

FACTOR_TEMPERATURE = "temperature"
FACTOR_INSOLATION = "insolation"
FACTORS = (FACTOR_TEMPERATURE, FACTOR_INSOLATION)

CSV_HEADER = ("month", "temp_max", "temp_min", "temp_avg",
              "insol_max", "insol_min", "insol_avg")

BUILTIN_TABLE_RESOURCE = "santa_rosa_2014.csv"


@dataclass(frozen=True)
class MonthlyClimateRecord:
    """One month of climate extremes and averages.

    Temperatures are absolute (kelvin, strictly positive); insolation is
    nonnegative. Each factor obeys min <= avg <= max.
    """

    month: int
    temp_max: float
    temp_min: float
    temp_avg: float
    insol_max: float
    insol_min: float
    insol_avg: float

    def __post_init__(self) -> None:
        if not 1 <= self.month <= 12:
            raise MonthOutOfRange(f"month {self.month} outside 1..12")
        if not (self.temp_min <= self.temp_avg <= self.temp_max):
            raise OrderViolation(
                f"month {self.month}: temperature min/avg/max out of order "
                f"({self.temp_min}, {self.temp_avg}, {self.temp_max})")
        if not (self.insol_min <= self.insol_avg <= self.insol_max):
            raise OrderViolation(
                f"month {self.month}: insolation min/avg/max out of order "
                f"({self.insol_min}, {self.insol_avg}, {self.insol_max})")
        if self.temp_min <= 0.0:
            raise ValidationError(
                f"month {self.month}: temperatures must be positive kelvin")
        if self.insol_min < 0.0:
            raise ValidationError(
                f"month {self.month}: insolation must be nonnegative")

    def interval(self, factor: str) -> tuple[float, float]:
        """(min, max) for the given factor this month."""
        if factor not in FACTORS:
            raise ValidationError(
                f"unknown factor {factor!r}; expected one of {FACTORS}")
        if factor == FACTOR_TEMPERATURE:
            return (self.temp_min, self.temp_max)
        return (self.insol_min, self.insol_max)


@dataclass(frozen=True)
class ClimateTable:
    """Twelve monthly records, one per calendar month, stored in month order."""

    records: tuple[MonthlyClimateRecord, ...]

    def __post_init__(self) -> None:
        months = sorted(r.month for r in self.records)
        if months != list(range(1, 13)):
            raise MissingMonth(
                f"need exactly one record per month 1..12, got months {months}")
        ordered = tuple(sorted(self.records, key=lambda r: r.month))
        object.__setattr__(self, "records", ordered)

    def record(self, month: int) -> MonthlyClimateRecord:
        if not 1 <= month <= 12:
            raise MonthOutOfRange(f"month {month} outside 1..12")
        return self.records[month - 1]


def _parse_number(text: str, row: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise MalformedNumber(
            f"row {row}, column {column}: cannot parse {text!r}") from None
    if value != value or value in (float("inf"), float("-inf")):
        raise MalformedNumber(
            f"row {row}, column {column}: non-finite value {text!r}")
    return value


def parse_climate_csv(text: str) -> ClimateTable:
    """Parse CSV text with the canonical header into a validated table."""
    rows = [row for row in csv_rows(text)
            if row and any(cell.strip() for cell in row)]
    if not rows:
        raise MissingMonth("empty climate CSV")
    header = tuple(cell.strip() for cell in rows[0])
    if header != CSV_HEADER:
        raise ValidationError(
            f"bad header {header}; expected {CSV_HEADER}")
    records = []
    for n, row in enumerate(rows[1:], start=1):
        if len(row) != len(CSV_HEADER):
            raise ValidationError(
                f"row {n}: expected {len(CSV_HEADER)} fields, got {len(row)}")
        month_text = row[0].strip()
        try:
            month = int(month_text)
        except ValueError:
            raise MalformedNumber(
                f"row {n}, column month: cannot parse {month_text!r}") from None
        values = [_parse_number(cell.strip(), n, name)
                  for cell, name in zip(row[1:], CSV_HEADER[1:])]
        records.append(MonthlyClimateRecord(month, *values))
    return ClimateTable(tuple(records))


def _format_number(value: float) -> str:
    # fixed 6-decimal precision, trailing zeros stripped, so that
    # parse(serialize(t)) == t for any table whose values carry <= 6 decimals
    text = f"{value:.6f}".rstrip("0").rstrip(".")
    return text if text else "0"


def serialize_climate_csv(table: ClimateTable) -> str:
    """Render a table back to CSV text. Round-trips through parse_climate_csv."""
    lines = [",".join(CSV_HEADER)]
    for r in table.records:
        lines.append(",".join([str(r.month)] + [
            _format_number(v) for v in
            (r.temp_max, r.temp_min, r.temp_avg,
             r.insol_max, r.insol_min, r.insol_avg)]))
    return "\n".join(lines) + "\n"


def builtin_table() -> ClimateTable:
    """The packaged Santa Rosa measurement year."""
    text = (resources.files(__package__) / "data" / BUILTIN_TABLE_RESOURCE
            ).read_text(encoding="utf-8")
    return parse_climate_csv(text)


def monthly_interval(table: ClimateTable, month: int,
                     factor: str) -> tuple[float, float]:
    """(min, max) of one factor in one month."""
    return table.record(month).interval(factor)


def annual_extrema(table: ClimateTable, factor: str) -> tuple[float, float]:
    """(min of monthly minima, max of monthly maxima) across the year."""
    intervals = [r.interval(factor) for r in table.records]
    return (min(lo for lo, _ in intervals), max(hi for _, hi in intervals))
