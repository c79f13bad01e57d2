import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import solarswarm as ss
from solarswarm import climate, fuzzy
from solarswarm.errors import (
    DegenerateRange,
    GradeOutOfSmoothRange,
    NoiseOutOfBox,
    TooFewPlanes,
    ValidationError,
)
from solarswarm.irrigation import CRISP_NOISE_BOUNDS

# frozen oracle values for the default curve on [0, 1]
MIDPOINT_GRADE = 0.5000014446622635
INVERSE_OF_HALF = 0.5000004183334458


def test_grade_branches(unit_curve):
    assert ss.scurve_grade(-0.5, unit_curve) == 1.0
    assert ss.scurve_grade(0.0, unit_curve) == 1.0
    assert ss.scurve_grade(1.0, unit_curve) == 0.0
    assert ss.scurve_grade(1.5, unit_curve) == 0.0
    assert ss.scurve_grade(0.5, unit_curve) == pytest.approx(
        MIDPOINT_GRADE, rel=1e-12)


def test_grade_of_array_matches_scalar_calls(unit_curve, temp_model):
    for curve in (unit_curve, temp_model.annual, *temp_model.monthly):
        width = curve.b_hi - curve.b_lo
        values = np.concatenate([
            [curve.b_lo - width, curve.b_lo, curve.b_hi, curve.b_hi + width,
             np.nextafter(curve.b_lo, math.inf),
             np.nextafter(curve.b_hi, -math.inf)],
            np.linspace(curve.b_lo - 0.1 * width, curve.b_hi + 0.1 * width,
                        257)])
        grades = ss.scurve_grade(values, curve)
        assert isinstance(grades, np.ndarray) and grades.shape == values.shape
        scalar = [ss.scurve_grade(float(v), curve) for v in values]
        assert all(type(g) is float for g in scalar)
        assert grades.tobytes() == np.array(scalar).tobytes()
        assert list(grades[:4]) == [1.0, 1.0, 0.0, 0.0]
        assert ss.scurve_grade(values.reshape(-1, 1), curve).shape \
            == (len(values), 1)


def test_smooth_limits(unit_curve):
    assert unit_curve.smooth_sup == pytest.approx(1.0 / 1.001001, rel=1e-12)
    assert unit_curve.smooth_inf == pytest.approx(
        1.0 / (1.0 + 0.001001 * math.exp(13.8135)), rel=1e-12)
    # near the ends of the smooth branch the grade approaches the limits
    assert ss.scurve_grade(1e-9, unit_curve) == pytest.approx(
        unit_curve.smooth_sup, rel=1e-6)
    assert ss.scurve_grade(1.0 - 1e-9, unit_curve) == pytest.approx(
        unit_curve.smooth_inf, rel=1e-6)


@given(st.floats(min_value=-1.0, max_value=2.0),
       st.floats(min_value=-1.0, max_value=2.0))
def test_monotone_decreasing(x, y):
    curve = ss.SCurveParams(b_lo=0.0, b_hi=1.0)
    lo, hi = sorted((x, y))
    assert ss.scurve_grade(lo, curve) >= ss.scurve_grade(hi, curve)


@given(st.floats(min_value=0.002, max_value=0.998))
def test_invert_roundtrip(grade):
    curve = ss.SCurveParams(b_lo=270.0, b_hi=309.0)
    assert ss.scurve_grade(ss.scurve_invert(grade, curve), curve) == \
        pytest.approx(grade, rel=1e-9)


def test_invert_known_value(unit_curve):
    assert ss.scurve_invert(0.5, unit_curve) == pytest.approx(
        INVERSE_OF_HALF, rel=1e-12)


def test_invert_out_of_smooth_range(unit_curve):
    for grade in (0.0, 1.0, 0.9999, 1e-5, -0.1, 1.5):
        with pytest.raises(GradeOutOfSmoothRange):
            ss.scurve_invert(grade, unit_curve)


def test_fit_scurve():
    curve = ss.SCurveParams(14.0, 336.0)
    assert (curve.b_lo, curve.b_hi) == (14.0, 336.0)
    assert curve.smooth_sup == 1.0 / (1.0 + fuzzy.C)
    assert curve.smooth_inf == 1.0 / (1.0 + fuzzy.C * math.exp(fuzzy.ALPHA))
    for lo, hi in ((5.0, 5.0), (6.0, 5.0)):
        with pytest.raises(DegenerateRange):
            ss.SCurveParams(lo, hi)


def test_curve_param_validation():
    for lo, hi in ((5.0, 5.0), (6.0, 5.0), (math.nan, 1.0)):
        with pytest.raises(DegenerateRange, match=r"^need b_lo < b_hi, got "):
            ss.SCurveParams(lo, hi)


def test_build_model(table, temp_model, insol_model):
    assert temp_model.domain == (265.2, 309.1)
    assert insol_model.domain == (14.0, 336.0)
    january = insol_model.monthly[0]
    assert (january.b_lo, january.b_hi) == (43.0, 146.0)


def test_model_containment_enforced(temp_model):
    wide = ss.SCurveParams(100.0, 400.0)
    with pytest.raises(ValidationError):
        ss.Type2FuzzyVariable(factor="temperature",
                              monthly=(wide,) * 12,
                              annual=temp_model.annual)


def test_constant_factor_rejected(table):
    records = [ss.MonthlyClimateRecord(
        m, temp_max=280.0, temp_min=280.0, temp_avg=280.0,
        insol_max=100.0, insol_min=10.0, insol_avg=50.0)
        for m in range(1, 13)]
    flat = ss.ClimateTable(tuple(records))
    # a constant factor makes the annual curve widthless, which is checked
    # before the months
    with pytest.raises(DegenerateRange, match=r"^temperature annual: need "
                       r"b_lo < b_hi, got \[280.0, 280.0\]$"):
        ss.build_type2_model(flat, "temperature")


@pytest.mark.parametrize("factor, month, flat", [
    ("temperature", 1, dict(temp_min=280.0, temp_avg=280.0, temp_max=280.0)),
    ("insolation", 7, dict(insol_min=50.0, insol_avg=50.0, insol_max=50.0)),
], ids=["temperature-1", "insolation-7"])
def test_widthless_month_is_named(factor, month, flat, table):
    records = list(table.records)
    records[month - 1] = replace(records[month - 1], **flat)
    value = next(iter(flat.values()))
    with pytest.raises(DegenerateRange, match=(
            rf"^{factor} month {month}: need b_lo < b_hi, "
            rf"got \[{value}, {value}\]$")):
        ss.build_type2_model(ss.ClimateTable(tuple(records)), factor)


def test_grade_context_noise_bounds(table, temp_model):
    # a graded factor's bound is its padded interval; the other keeps its own
    crisp = ss.ProblemSpec().noise_bounds
    context = ss.GradeContext(temperature_secondary=0.05)
    assert context.noise_bounds(table, crisp) == (
        ss.noise_interval_from_grades(temp_model, 0.05, context.pad),
        crisp[1])


def test_out_of_box_grades_name_factor_grades_and_intervals(table):
    # noise_bounds only maps grades to intervals; the response surfaces are
    # coded against the crisp box, so ProblemSpec, which the intervals are
    # given to, rejects one outside it, naming the factor's noise variable
    # and the interval the grades gave. Temperature is checked first
    context = ss.GradeContext(temperature_secondary=0.17169,
                              insolation_secondary=(0.02907, 0.92274))
    bounds = context.noise_bounds(table, CRISP_NOISE_BOUNDS)
    assert bounds[0] == (291.9318066944015, 292.37080669440144)
    with pytest.raises(NoiseOutOfBox) as caught:
        replace(ss.ProblemSpec(), noise_bounds=bounds)
    assert str(caught.value) == (
        "Z_a (temperature) noise interval "
        "[291.9318066944015, 292.37080669440144] lies outside the box "
        "[293.0, 303.0] the response surfaces are coded against")
    insolation = ss.GradeContext(insolation_secondary=(0.02907, 0.92274))
    with pytest.raises(NoiseOutOfBox, match=(
            r"^Z_b \(insolation\) noise interval \[117\.186\d*, "
            r"256\.786\d*\] lies outside the box \[800\.0, 1000\.0\]")):
        replace(ss.ProblemSpec(), noise_bounds=insolation.noise_bounds(
            table, CRISP_NOISE_BOUNDS))


GRADE_GRID = [k / 40 for k in range(41)]


@pytest.mark.parametrize("factor", climate.FACTORS)
def test_noise_bounds_stay_in_the_box_or_raise(factor, table):
    # every point grade and grade range of the grid, at three pads, gives
    # a problem whose noise interval lies inside the crisp box, or is
    # rejected: a saturated grade has no preimage, and ProblemSpec rejects
    # exactly the intervals outside the box
    index = climate.FACTORS.index(factor)
    box_lo, box_hi = CRISP_NOISE_BOUNDS[index]
    ranges = [(lo, hi) for lo in GRADE_GRID[::4] for hi in GRADE_GRID[::4]
              if lo < hi]
    inside = 0
    for pad in (0.0, 0.005, 0.05):
        for grades in [*GRADE_GRID, *ranges]:
            context = ss.GradeContext(pad=pad,
                                      **{f"{factor}_secondary": grades})
            try:
                bounds = context.noise_bounds(table, CRISP_NOISE_BOUNDS)
            except GradeOutOfSmoothRange:
                continue
            lo, hi = bounds[index]
            assert bounds[1 - index] == CRISP_NOISE_BOUNDS[1 - index]
            try:
                spec = replace(ss.ProblemSpec(), noise_bounds=bounds)
            except NoiseOutOfBox:
                assert not box_lo <= lo <= hi <= box_hi
                continue
            assert box_lo <= lo <= hi <= box_hi
            assert spec.noise_bounds == bounds
            inside += 1
    # temperature point grades near 0.05 land inside 293-303 K; the year's
    # insolation, 14-336 W/m^2, lies wholly below 800
    assert inside > 0 if factor == "temperature" else inside == 0


def test_fou_bounds_saturation(temp_model):
    fou = ss.sample_fou(temp_model, n_points=512)
    assert fou.grid[0] == 265.2 and fou.grid[-1] == 309.1
    assert (fou.lower[0], fou.upper[0]) == (1.0, 1.0)
    assert (fou.lower[-1], fou.upper[-1]) == (0.0, 0.0)
    for x, lower, upper in zip(fou.grid, fou.lower, fou.upper):
        grades = [ss.scurve_grade(float(x), c) for c in temp_model.monthly]
        assert lower == min(grades)
        assert upper == max(grades)
    assert np.all(fou.lower <= fou.upper)


def test_fou_envelope_contains_every_month(temp_model, insol_model):
    for model in (temp_model, insol_model):
        fou = ss.sample_fou(model, n_points=512)
        for x, lo, hi in zip(fou.grid, fou.lower, fou.upper):
            for curve in model.monthly:
                grade = ss.scurve_grade(float(x), curve)
                assert lo <= grade <= hi


def test_fou_summary_stats(temp_model):
    fou = ss.sample_fou(temp_model, n_points=128)
    assert 0.0 < fou.mean_width <= fou.max_width <= 1.0
    with pytest.raises(ValidationError):
        ss.sample_fou(temp_model, n_points=1)


def test_alpha_plane_extremes(temp_model):
    full = fuzzy.alpha_plane_cut(temp_model, 0.0)
    assert (full.lo, full.hi) == temp_model.domain
    tip = fuzzy.alpha_plane_cut(temp_model, 1.0)
    assert (tip.lo, tip.hi) == (265.2, 265.2)
    mid = fuzzy.alpha_plane_cut(temp_model, 0.5)
    assert mid.lo == 265.2
    assert mid.hi == pytest.approx(
        ss.scurve_invert(0.5, temp_model.annual), rel=1e-12)
    with pytest.raises(ValidationError):
        fuzzy.alpha_plane_cut(temp_model, 1.5)
    with pytest.raises(ValidationError):
        fuzzy.alpha_plane_cut(temp_model, -0.1)
    with pytest.raises(ValidationError, match="got nan"):
        fuzzy.alpha_plane_cut(temp_model, math.nan)


def test_alpha_plane_below_smooth_branch(temp_model):
    low = fuzzy.alpha_plane_cut(temp_model, temp_model.annual.smooth_inf / 2)
    assert (low.lo, low.hi) == temp_model.domain


def test_type_reduce_nesting(temp_model):
    planes = ss.type_reduce(temp_model, n_planes=11)
    assert len(planes) == 11
    assert [p.level for p in planes] == pytest.approx(
        [i / 10 for i in range(11)])
    for shallower, deeper in zip(planes, planes[1:]):
        assert deeper.lo >= shallower.lo
        assert deeper.hi <= shallower.hi
    with pytest.raises(TooFewPlanes):
        ss.type_reduce(temp_model, n_planes=1)


def test_defuzzify_interval_inside_domain(temp_model):
    lo_dom, hi_dom = temp_model.domain
    for plane in ss.type_reduce(temp_model, n_planes=21):
        assert lo_dom <= plane.lo <= plane.hi <= hi_dom
    for eps in (0.01, 0.25, 0.5, 0.75, 0.99):
        for grades in (eps, (eps / 2, eps)):
            lo, hi = ss.noise_interval_from_grades(temp_model, grades,
                                                   pad=0.5)
            assert lo_dom <= lo <= hi <= hi_dom


def test_model_json_roundtrip(tmp_path, temp_model):
    path = tmp_path / "model.json"
    ss.fuzzy.save_model(temp_model, str(path))
    assert ss.fuzzy.load_model(str(path)) == temp_model
    with pytest.raises(ValidationError):
        ss.Type2FuzzyVariable.from_dict({"factor": "temperature"})
    bad = tmp_path / "bad.json"
    for text in ("not json", "[]", "12", "null"):
        bad.write_text(text)
        with pytest.raises(ValidationError):
            ss.fuzzy.load_model(str(bad))
    with pytest.raises(ValidationError, match="cannot read"):
        ss.fuzzy.load_model(str(tmp_path / "absent.json"))
    bad.write_bytes(b'{"factor": "\xff"}')
    with pytest.raises(ValidationError, match="cannot read"):
        ss.fuzzy.load_model(str(bad))


@pytest.mark.parametrize("change, message", [
    (lambda doc: doc.update(origin="santa rosa"), "unknown config keys"),
    (lambda doc: doc["annual"].update(b_hi="309.1"),
     "b_hi must be float, got str"),
    (lambda doc: doc["monthly"][3].update(b_lo="271.5"),
     "b_lo must be float, got str"),
    (lambda doc: doc.update(monthly={"b_lo": 0.0}),
     "monthly must be tuple"),
], ids=["unknown_key", "float_as_str", "monthly_float_as_str",
        "monthly_object"])
def test_load_model_follows_the_config_rules(change, message, tmp_path,
                                             temp_model):
    doc = temp_model.to_dict()
    change(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=message):
        ss.fuzzy.load_model(str(path))


def test_load_model_rejects_the_old_shape_keys(tmp_path, temp_model):
    # every curve shares one shape, so a model file that still sets a
    # curve's B, C or alpha is rejected, not read with another shape
    doc = temp_model.to_dict()
    assert sorted(doc["annual"]) == ["b_hi", "b_lo"]
    doc["annual"].update(B=1.0, C=0.001001, alpha=13.8135)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError,
                       match=r"^unknown annual keys: \['B', 'C', 'alpha'\]$"):
        ss.fuzzy.load_model(str(path))


def test_model_json_is_plain_data(temp_model):
    doc = json.loads(json.dumps(temp_model.to_dict()))
    assert ss.Type2FuzzyVariable.from_dict(doc) == temp_model
