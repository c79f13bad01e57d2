import csv
import io
import math
import sys
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, strategies as st

import solarswarm as ss
from solarswarm import climate
from solarswarm.climate import CSV_HEADER, serialize_climate_csv
from solarswarm.errors import (
    MalformedNumber,
    MissingMonth,
    MonthOutOfRange,
    OrderViolation,
    SchemaMismatch,
    ValidationError,
)


def test_builtin_table_known_rows(table):
    june = table.record(6)
    assert june.insol_max == 336.0
    assert june.insol_min == 211.0
    assert june.insol_avg == 306.2
    december = table.record(12)
    assert december.temp_max == 293.6
    assert december.temp_min == 270.8
    assert december.temp_avg == 282.2


def test_annual_extrema_exact(table):
    assert ss.annual_extrema(table, "temperature") == (265.2, 309.1)
    assert ss.annual_extrema(table, "insolation") == (14.0, 336.0)


def test_monthly_interval_examples(table):
    assert ss.monthly_interval(table, 6, "insolation") == (211.0, 336.0)
    assert ss.monthly_interval(table, 12, "temperature") == (270.8, 293.6)


def test_monthly_intervals_inside_annual(table):
    for factor in ("temperature", "insolation"):
        lo, hi = ss.annual_extrema(table, factor)
        for month in range(1, 13):
            m_lo, m_hi = ss.monthly_interval(table, month, factor)
            assert lo <= m_lo <= m_hi <= hi


def test_roundtrip_identity(table):
    assert ss.parse_climate_csv(serialize_climate_csv(table)) == table


@given(st.lists(
    st.tuples(
        st.floats(min_value=1.0, max_value=400.0),
        st.floats(min_value=1.0, max_value=400.0),
        st.floats(min_value=1.0, max_value=400.0),
        st.floats(min_value=0.0, max_value=500.0),
        st.floats(min_value=0.0, max_value=500.0),
        st.floats(min_value=0.0, max_value=500.0),
    ),
    min_size=12, max_size=12))
def test_roundtrip_property(rows):
    records = []
    for month, values in enumerate(rows, start=1):
        t = sorted(round(v, 4) for v in values[:3])
        s = sorted(round(v, 4) for v in values[3:])
        records.append(ss.MonthlyClimateRecord(
            month, temp_max=t[2], temp_min=t[0], temp_avg=t[1],
            insol_max=s[2], insol_min=s[0], insol_avg=s[1]))
    original = ss.ClimateTable(tuple(records))
    assert ss.parse_climate_csv(serialize_climate_csv(original)) == original


def test_record_accessor_bounds(table):
    with pytest.raises(MonthOutOfRange):
        table.record(0)
    with pytest.raises(MonthOutOfRange):
        table.record(13)


def test_missing_month(table):
    text = serialize_climate_csv(table)
    lines = text.strip().split("\n")
    with pytest.raises(MissingMonth):
        ss.parse_climate_csv("\n".join(lines[:-1]) + "\n")


def test_duplicate_month(table):
    text = serialize_climate_csv(table)
    lines = text.strip().split("\n")
    lines[1] = lines[2]  # two copies of month 2, month 1 gone
    with pytest.raises(MissingMonth):
        ss.parse_climate_csv("\n".join(lines) + "\n")


def test_order_violation():
    with pytest.raises(OrderViolation):
        ss.MonthlyClimateRecord(1, temp_max=280.0, temp_min=290.0,
                                temp_avg=285.0, insol_max=100.0,
                                insol_min=10.0, insol_avg=50.0)
    with pytest.raises(OrderViolation):
        ss.MonthlyClimateRecord(1, temp_max=290.0, temp_min=280.0,
                                temp_avg=285.0, insol_max=100.0,
                                insol_min=10.0, insol_avg=150.0)


def test_malformed_number(table):
    text = serialize_climate_csv(table).replace("297.4", "29x.4")
    with pytest.raises(MalformedNumber):
        ss.parse_climate_csv(text)


def test_non_finite_rejected(table):
    text = serialize_climate_csv(table).replace("297.4", "nan")
    with pytest.raises(MalformedNumber):
        ss.parse_climate_csv(text)


def test_month_out_of_range_in_record():
    with pytest.raises(MonthOutOfRange):
        ss.MonthlyClimateRecord(13, temp_max=290.0, temp_min=280.0,
                                temp_avg=285.0, insol_max=100.0,
                                insol_min=10.0, insol_avg=50.0)


def test_domain_sign_rules():
    with pytest.raises(ValidationError):
        ss.MonthlyClimateRecord(1, temp_max=10.0, temp_min=-5.0,
                                temp_avg=2.0, insol_max=100.0,
                                insol_min=10.0, insol_avg=50.0)
    with pytest.raises(ValidationError):
        ss.MonthlyClimateRecord(1, temp_max=290.0, temp_min=280.0,
                                temp_avg=285.0, insol_max=100.0,
                                insol_min=-1.0, insol_avg=50.0)


def test_bad_header(table):
    text = serialize_climate_csv(table).replace("temp_max", "tmax")
    with pytest.raises(ValidationError):
        ss.parse_climate_csv(text)


def test_unknown_factor(table):
    with pytest.raises(ValidationError):
        ss.annual_extrema(table, "humidity")


def test_header_constant_matches_doc():
    assert CSV_HEADER == ("month", "temp_max", "temp_min", "temp_avg",
                          "insol_max", "insol_min", "insol_avg")


def reference_climate_reader(text):
    """The climate reader as it was before codec.csv_rows: csv.reader,
    then the package's per-cell parse and validation."""
    rows = [row for row in csv.reader(io.StringIO(text))
            if row and any(cell.strip() for cell in row)]
    if not rows:
        raise MissingMonth("empty climate CSV")
    header = tuple(cell.strip() for cell in rows[0])
    if header != CSV_HEADER:
        raise ValidationError(f"bad header {header}; expected {CSV_HEADER}")
    records = []
    for n, row in enumerate(rows[1:], start=1):
        if len(row) != len(CSV_HEADER):
            raise ValidationError(
                f"row {n}: expected {len(CSV_HEADER)} fields, got {len(row)}")
        month_text = row[0].strip()
        try:
            month = int(month_text)
        except ValueError:
            raise MalformedNumber(f"row {n}, column month: "
                                  f"cannot parse {month_text!r}") from None
        values = [climate._parse_number(cell.strip(), n, name)
                  for cell, name in zip(row[1:], CSV_HEADER[1:])]
        records.append(ss.MonthlyClimateRecord(month, *values))
    return ss.ClimateTable(tuple(records))


def climate_outcome(read, text):
    """What a climate reader makes of `text`: the bits of every record,
    an error's type and message, or "csv.Error"."""
    try:
        table = read(text)
    except csv.Error:
        return "csv.Error"
    except ValidationError as err:
        return type(err), str(err)
    records = np.array([astuple(r) for r in table.records], dtype=float)
    return records.view(np.int64).tolist()


def climate_corpus(table):
    """Climate CSV texts by name, each an edit of the packaged table where
    a hand-made CSV splitter could part from csv.reader."""
    good = serialize_climate_csv(table)
    lines = good.split("\n")

    def cell(row, col):
        return lines[row].split(",")[col]

    def edit(row, col, new):
        cells = lines[row].split(",")
        cells[col:col + 1] = [] if new is None else [new]
        return "\n".join([*lines[:row], ",".join(cells), *lines[row + 1:]])
    limit = csv.field_size_limit()
    return {
        "unedited": good,
        "empty": "",
        "quoted": good.replace("month", '"month"').replace(
            ",297.4,", ',"297.4",'),
        "quoted_comma": edit(1, 1, '"29,7.4"'),
        "crlf": good.replace("\n", "\r\n"),
        "lone_cr": good.replace("\n", "\r"),
        "blank_lines": good.replace("\n", "\n\n"),
        "whitespace_line": good.replace("\n", "\n \t \n", 3),
        "padded": edit(2, 2, f" \t{cell(2, 2)} "),
        "padded_month": edit(3, 0, " 3 "),
        "underscore": edit(1, 4, "1_46"),
        "non_ascii_digits": edit(1, 0, "\u0661"),
        "nan": edit(1, 1, "NaN"),
        "minus_infinity": edit(1, 2, "-Infinity"),
        "trailing_comma": edit(1, 6, cell(1, 6) + ","),
        "bom": "\ufeff" + good,
        "nul": edit(1, 1, "297\x00.4"),
        "form_feed": edit(1, 1, "\f297.4"),
        "extra_column": edit(1, 6, "1,2"),
        "missing_column": edit(1, 6, None),
        "limit_field": edit(1, 1, cell(1, 1).rjust(limit, "0")),
        "long_field": edit(1, 1, cell(1, 1).rjust(limit + 1, "0")),
    }


def test_reader_agrees_with_the_csv_reader_reference(table):
    # csv.reader rejects a lone \r, a field longer than
    # csv.field_size_limit() and, on Python 3.10, a NUL; those texts now
    # give one SchemaMismatch line, and every other text the reference's
    # record bits, or its error type and message
    rejected_by_csv = {"lone_cr", "long_field"}
    if sys.version_info < (3, 11):
        rejected_by_csv.add("nul")
    seen = set()
    for name, text in climate_corpus(table).items():
        expected = climate_outcome(reference_climate_reader, text)
        got = climate_outcome(ss.parse_climate_csv, text)
        if expected == "csv.Error":
            seen.add(name)
            assert got[0] is SchemaMismatch, name
            assert got[1].startswith("CSV line "), name
            assert "\n" not in got[1], name
        else:
            assert got == expected, name
    assert seen == rejected_by_csv
