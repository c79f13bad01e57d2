import math
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import solarswarm as ss
from solarswarm import irrigation
from solarswarm.errors import (
    EmptyInterval,
    GradeOutOfSmoothRange,
    InfeasibleSpec,
    NoiseOutOfBox,
    NonFiniteResult,
    ValidationError,
)
from solarswarm.irrigation import (
    _ROW_BLOCK,
    CRISP_NOISE_BOUNDS,
    DEFAULT_DESIGN_BOUNDS,
    _surfaces,
    _weighted_sum,
    coefficient_table,
)

# frozen goldens for raw mode at (1, 500, 600, 0.1, 300, 900), computed
# term-by-term with exact rational arithmetic before this module was built
RAW_POINT = ((1.0, 500.0, 600.0, 0.1), (300.0, 900.0))
RAW_GOLDEN = (-73013957.10284679, 255.133707881, -508043962457.8194)

COVER_MID_DESIGN = (1.65, 485.0, 660.0, 0.105)
COVER_MID_NOISE = (298.0, 900.0)


def test_coded_center_values():
    spec = ss.ProblemSpec()
    o = ss.eval_objectives(COVER_MID_DESIGN, COVER_MID_NOISE, spec)
    # all coded variables are zero at the interval midpoints
    assert o.efficiency == pytest.approx(43.4783 * 0.18507, rel=1e-12)
    assert o.power == pytest.approx(24.947 * 10 ** 3.24, rel=1e-12)
    assert o.savings == pytest.approx(174695.73 * 10 ** 3.23, rel=1e-12)


def test_raw_goldens():
    spec = ss.ProblemSpec(variable_mode="raw")
    o = ss.eval_objectives(*RAW_POINT, spec)
    for got, want in zip(o.as_tuple(), RAW_GOLDEN):
        assert got == pytest.approx(want, rel=1e-9)


def test_scale_exponent_stretch():
    base = ss.ProblemSpec(variable_mode="raw")
    doubled = ss.ProblemSpec(variable_mode="raw",
                             power_scale_exp=3.24 + math.log10(2.0),
                             savings_scale_exp=3.23 + math.log10(2.0))
    a = ss.eval_objectives(*RAW_POINT, base)
    b = ss.eval_objectives(*RAW_POINT, doubled)
    assert b.power == pytest.approx(2.0 * a.power, rel=1e-12)
    assert b.savings == pytest.approx(2.0 * a.savings, rel=1e-12)
    assert b.efficiency == a.efficiency


def test_as_printed_intercept():
    fixed = ss.ProblemSpec(variable_mode="raw")
    printed = ss.ProblemSpec(variable_mode="raw",
                             fix_efficiency_intercept=False)
    a = ss.eval_objectives(*RAW_POINT, fixed)
    b = ss.eval_objectives(*RAW_POINT, printed)
    assert b.efficiency - a.efficiency == pytest.approx(
        43.4783 * (18507.0 - 0.18507), rel=1e-12)
    assert b.power == a.power and b.savings == a.savings


def test_as_printed_flow_term():
    fixed = ss.ProblemSpec(variable_mode="raw")
    printed = ss.ProblemSpec(variable_mode="raw",
                             fix_savings_flow_term=False)
    a = ss.eval_objectives(*RAW_POINT, fixed)
    b = ss.eval_objectives(*RAW_POINT, printed)
    # dropping the flow term removes 112114.69 * x_d from the inner sum
    assert a.savings - b.savings == pytest.approx(
        112114.69 * 0.1 * 10 ** 3.23, rel=1e-9)


def test_orientation_flag():
    maximize = ss.ProblemSpec(variable_mode="raw")
    printed = ss.ProblemSpec(variable_mode="raw", maximize=False)
    a = ss.eval_objectives(*RAW_POINT, maximize)
    b = ss.eval_objectives(*RAW_POINT, printed)
    assert b.power == -a.power
    assert b.savings == -a.savings
    assert b.efficiency == a.efficiency


def test_vector_type_coercion():
    spec = ss.ProblemSpec()
    design = ss.DesignVector(*COVER_MID_DESIGN)
    noise = ss.NoiseVector(*COVER_MID_NOISE)
    assert ss.eval_objectives(design, noise, spec) == \
        ss.eval_objectives(list(COVER_MID_DESIGN), list(COVER_MID_NOISE), spec)
    with pytest.raises(ValidationError):
        ss.eval_objectives((1.0, 2.0), noise, spec)
    with pytest.raises(ValidationError):
        ss.eval_objectives(design, (1.0,), spec)


def test_non_finite_result():
    spec = ss.ProblemSpec(variable_mode="raw", power_scale_exp=6000.0)
    with pytest.raises(NonFiniteResult) as raised:
        ss.eval_objectives(*RAW_POINT, spec)
    # the scalar and the row path name the position alike
    assert str(raised.value) == ("objectives not finite at position "
                                 "[1.0, 500.0, 600.0, 0.1, 300.0, 900.0]")


def test_weight_vector_validation():
    ss.WeightVector(0.5, 0.5, 0.0)
    with pytest.raises(ValidationError):
        ss.WeightVector(0.5, 0.6, 0.1)
    with pytest.raises(ValidationError):
        ss.WeightVector(0.5, 0.6, -0.1)
    with pytest.raises(ValidationError):
        ss.WeightVector(0.4, 0.4, 0.1)


def test_aggregate_examples():
    o = ss.ObjectiveTriple(10.0, 20.0, 30.0)
    assert ss.aggregate(o, ss.WeightVector(1.0, 0.0, 0.0)) == 10.0
    assert ss.aggregate(o, ss.WeightVector(0.0, 0.0, 1.0)) == 30.0
    assert ss.aggregate(o, ss.WeightVector(0.2, 0.3, 0.5)) == \
        pytest.approx(0.2 * 10 + 0.3 * 20 + 0.5 * 30, rel=1e-15)


@given(st.tuples(*[st.floats(-1e6, 1e6) for _ in range(6)]),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_aggregate_linearity(values, a, b):
    if a + b > 1.0:
        a, b = a / 2.0, b / 2.0
    # a + b can pass the check above while exceeding 1 by less than its
    # rounding, so 1 - a - b comes out a hair below 0; clamp it to 0
    w = ss.WeightVector(a, b, max(0.0, 1.0 - a - b))
    o1 = ss.ObjectiveTriple(*values[:3])
    o2 = ss.ObjectiveTriple(*values[3:])
    lhs = ss.aggregate(o1, w) + ss.aggregate(o2, w)
    total = ss.ObjectiveTriple(*(a + b for a, b in zip(values[:3],
                                                       values[3:])))
    rhs = ss.aggregate(total, w)
    assert rhs == pytest.approx(lhs, rel=1e-9, abs=1e-6)


def test_aggregate_scale_preserves_ranking():
    rng = np.random.default_rng(42)
    w = ss.WeightVector(0.3, 0.3, 0.4)
    for factor in (0.5, 2.0, 10.0):
        triples = [ss.ObjectiveTriple(*row)
                   for row in rng.uniform(-100, 100, size=(100, 3))]
        base = [ss.aggregate(o, w) for o in triples]
        scaled = [ss.aggregate(ss.ObjectiveTriple(
            *(factor * v for v in o.as_tuple())), w) for o in triples]
        assert np.argsort(base).tolist() == np.argsort(scaled).tolist()
        for lhs, rhs in zip(scaled, base):
            assert lhs == pytest.approx(factor * rhs, rel=1e-12)


def test_design_bounds_default_and_override():
    assert ss.ProblemSpec().design_bounds == DEFAULT_DESIGN_BOUNDS
    custom = ((0.5, 2.0), (460.0, 500.0), (600.0, 700.0), (0.05, 0.1))
    assert ss.ProblemSpec(design_bounds=custom).design_bounds == custom


def test_problem_spec_validation():
    with pytest.raises(InfeasibleSpec):
        ss.ProblemSpec(design_bounds=((3.0, 0.3),) + DEFAULT_DESIGN_BOUNDS[1:])
    with pytest.raises(InfeasibleSpec):
        ss.ProblemSpec(noise_bounds=((303.0, 293.0), (800.0, 1000.0)))
    with pytest.raises(ValidationError):
        ss.ProblemSpec(variable_mode="folded")
    with pytest.raises(InfeasibleSpec):
        ss.ProblemSpec(design_bounds=((1.0, 1.0),) + DEFAULT_DESIGN_BOUNDS[1:])
    # raw mode tolerates a degenerate design interval
    ss.ProblemSpec(variable_mode="raw",
                   design_bounds=((1.0, 1.0),) + DEFAULT_DESIGN_BOUNDS[1:])


@pytest.mark.parametrize("field, bounds, message", [
    ("design_bounds", ((0.3,),) * 4, "design_bounds needs 4 (lo, hi) pairs"),
    ("design_bounds", (("a", 1.0),) * 4,
     "design_bounds needs 4 (lo, hi) pairs"),
    ("design_bounds", 5, "design_bounds needs 4 (lo, hi) pairs"),
    ("design_bounds", DEFAULT_DESIGN_BOUNDS[1:],
     "design_bounds needs 4 (lo, hi) pairs, got 3"),
    ("noise_bounds", ((1.0, 2.0, 3.0),) * 2,
     "noise_bounds needs 2 (lo, hi) pairs"),
    ("noise_bounds", (None, None), "noise_bounds needs 2 (lo, hi) pairs"),
    # float() would read these as (1, 12) and (1, 2); a bound is a number
    ("design_bounds", (("01", "12"),) * 4,
     "design_bounds needs 4 (lo, hi) pairs"),
    ("noise_bounds", ((True, 2.0), (800.0, 1000.0)),
     "noise_bounds needs 2 (lo, hi) pairs"),
    # an int beyond the floats is no finite bound
    ("design_bounds", ((0, 10 ** 400),) + DEFAULT_DESIGN_BOUNDS[1:],
     "design_bounds contains a non-finite bound"),
], ids=["single", "not_a_number", "not_a_sequence", "three_pairs",
        "triples", "nulls", "numeric_strings", "bool", "huge_int"])
def test_malformed_bound_pairs_are_validation_errors(field, bounds, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        ss.ProblemSpec(**{field: bounds})
    # a --config document gets the same message
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        ss.ProblemSpec.from_dict(
            {field: list(bounds) if isinstance(bounds, tuple) else [bounds]})


def test_bounds_take_any_real_number():
    # numpy numbers are real numbers; each bound is held as a float
    spec = ss.ProblemSpec(design_bounds=np.array(DEFAULT_DESIGN_BOUNDS),
                          noise_bounds=((np.int64(293), 303),
                                        (800, np.float32(1000.0))))
    assert spec.design_bounds == DEFAULT_DESIGN_BOUNDS
    assert spec.noise_bounds == ((293.0, 303.0), (800.0, 1000.0))
    assert {type(v) for pair in spec.noise_bounds for v in pair} == {float}


@st.composite
def noise_boxes(draw):
    """Two noise intervals around the crisp box: each end is one of the
    box's edges, a float just outside one, or any value within a box width
    of the box."""
    box = []
    for lo, hi in CRISP_NOISE_BOUNDS:
        ends = st.one_of(
            st.sampled_from([lo, hi, math.nextafter(lo, -math.inf),
                             math.nextafter(hi, math.inf)]),
            st.floats(2 * lo - hi, 2 * hi - lo))
        box.append(tuple(sorted((draw(ends), draw(ends)))))
    return tuple(box)


NOISE_NAMES = ("Z_a (temperature)", "Z_b (insolation)")


@given(noise_boxes(), st.sampled_from(irrigation.VARIABLE_MODES))
def test_problem_takes_a_noise_box_iff_it_lies_in_the_crisp_box(box, mode):
    # the surfaces are coded against the crisp box, in either mode, so a
    # problem built directly or decoded from a config takes a noise box if
    # and only if each interval lies inside the crisp one; the first
    # interval outside it is named
    outside = [name for name, (lo, hi), (box_lo, box_hi)
               in zip(NOISE_NAMES, box, CRISP_NOISE_BOUNDS)
               if not (box_lo <= lo and hi <= box_hi)]
    for build in (
            lambda: ss.ProblemSpec(noise_bounds=box, variable_mode=mode),
            lambda: ss.ProblemSpec.from_dict(
                {"noise_bounds": [list(pair) for pair in box],
                 "variable_mode": mode})):
        if outside:
            with pytest.raises(NoiseOutOfBox, match=(
                    rf"^{re.escape(outside[0])} noise interval .* lies "
                    rf"outside the box")):
                build()
        else:
            assert build().noise_bounds == box


@pytest.mark.parametrize("mode", irrigation.VARIABLE_MODES)
def test_noise_box_edges_are_inside(mode):
    # the crisp box itself, and each edge pushed one float out
    spec = ss.ProblemSpec(noise_bounds=CRISP_NOISE_BOUNDS, variable_mode=mode)
    assert spec.noise_bounds == CRISP_NOISE_BOUNDS
    for k, name in enumerate(NOISE_NAMES):
        lo, hi = CRISP_NOISE_BOUNDS[k]
        for pair in ((math.nextafter(lo, -math.inf), hi),
                     (lo, math.nextafter(hi, math.inf))):
            box = list(CRISP_NOISE_BOUNDS)
            box[k] = pair
            with pytest.raises(NoiseOutOfBox) as caught:
                ss.ProblemSpec(noise_bounds=box, variable_mode=mode)
            assert str(caught.value) == (
                f"{name} noise interval [{pair[0]}, {pair[1]}] lies outside "
                f"the box [{lo}, {hi}] the response surfaces are coded "
                f"against")


def test_problem_spec_dict_roundtrip():
    spec = ss.ProblemSpec(noise_bounds=((295.0, 300.0), (850.0, 950.0)),
                          maximize=False)
    assert ss.ProblemSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(ValidationError):
        ss.ProblemSpec.from_dict({"variable_mode": "raw", "exponent": 2})


def test_noise_interval_point_grade(temp_model):
    lo, hi = ss.noise_interval_from_grades(temp_model, 0.17169)
    assert lo == hi == pytest.approx(292.15130669440146, rel=1e-9)
    span = temp_model.domain[1] - temp_model.domain[0]
    lo2, hi2 = ss.noise_interval_from_grades(temp_model, 0.17169, pad=0.005)
    assert lo2 == pytest.approx(lo - 0.005 * span, rel=1e-12)
    assert hi2 == pytest.approx(hi + 0.005 * span, rel=1e-12)


def test_noise_interval_range_grade(insol_model):
    lo, hi = ss.noise_interval_from_grades(insol_model, (0.02907, 0.92274))
    assert lo == pytest.approx(117.18603187090537, rel=1e-9)
    assert hi == pytest.approx(256.78623863640325, rel=1e-9)
    assert 14.0 <= lo < hi <= 336.0


def test_noise_interval_degenerate_range_is_point(temp_model):
    point = ss.noise_interval_from_grades(temp_model, 0.5, pad=0.01)
    collapsed = ss.noise_interval_from_grades(temp_model, (0.5, 0.5), pad=0.01)
    assert point == collapsed


def test_noise_interval_clipped_to_domain(insol_model):
    # a grade near the smooth floor inverts close to the upper domain edge;
    # padding pushes past it and gets clipped
    lo, hi = ss.noise_interval_from_grades(insol_model, 0.0015, pad=0.05)
    assert hi == 336.0
    assert lo < hi


def test_noise_interval_errors(temp_model):
    with pytest.raises(ValidationError):
        ss.noise_interval_from_grades(temp_model, (0.9, 0.1))
    with pytest.raises(ValidationError):
        ss.noise_interval_from_grades(temp_model, 0.5, pad=-0.1)
    with pytest.raises(ValidationError, match="^pad must be >= 0, got nan$"):
        ss.noise_interval_from_grades(temp_model, 0.5, pad=math.nan)
    with pytest.raises(GradeOutOfSmoothRange):
        ss.noise_interval_from_grades(temp_model, 0.99999)
    with pytest.raises(ValidationError):
        ss.noise_interval_from_grades(temp_model, (0.1, 0.5, 0.9))


def test_feasible():
    spec = ss.ProblemSpec()
    assert ss.feasible(COVER_MID_DESIGN, COVER_MID_NOISE, spec)
    assert ss.feasible((0.3, 450.0, 520.0, 0.01), (293.0, 800.0), spec)
    assert not ss.feasible((5.0, 485.0, 660.0, 0.105), COVER_MID_NOISE, spec)
    assert not ss.feasible(COVER_MID_DESIGN, (298.0, 1100.0), spec)


def test_weighted_sum_forms_agree_bit_for_bit():
    # F in every form: _weighted_sum under per-row weights and under one
    # (3, 1) weight column, and aggregate of eval_objectives
    spec = ss.ProblemSpec()
    rng = np.random.default_rng(8)
    box = np.array(spec.design_bounds + spec.noise_bounds)
    positions = rng.uniform(box[:, 0], box[:, 1], size=(200, 6))
    weights = rng.dirichlet(np.ones(3), size=200)
    expected = np.array([
        ss.aggregate(ss.eval_objectives(p[:4], p[4:], spec),
                     ss.WeightVector(*w))
        for p, w in zip(positions.tolist(), weights.tolist())])
    bits = expected.view(np.int64).tolist()
    objectives = _surfaces(spec).objective_rows(positions)
    assert _weighted_sum(weights.T, objectives).view(np.int64).tolist() == bits
    for w in weights[:5]:
        one = _weighted_sum(w[:, None], objectives)
        assert one.view(np.int64).tolist() == np.array([
            ss.aggregate(ss.eval_objectives(p[:4], p[4:], spec),
                         ss.WeightVector(*w.tolist()))
            for p in positions.tolist()]).view(np.int64).tolist()


def test_fitness_adapter_matches_aggregate():
    spec = ss.ProblemSpec()
    w = ss.WeightVector(0.2, 0.3, 0.5)
    fitness = ss.IrrigationFitness(spec, w)
    assert fitness.bounds == spec.design_bounds + spec.noise_bounds
    position = np.array([*COVER_MID_DESIGN, *COVER_MID_NOISE])
    expected = ss.aggregate(
        ss.eval_objectives(COVER_MID_DESIGN, COVER_MID_NOISE, spec), w)
    assert fitness.evaluate(position) == expected


@pytest.mark.parametrize("design, noise, message", [
    (COVER_MID_DESIGN[:3], COVER_MID_NOISE,
     "design vector needs 4 values, got 3"),
    ((*COVER_MID_DESIGN, 1.0), ss.NoiseVector(*COVER_MID_NOISE),
     "design vector needs 4 values, got 5"),
    (ss.DesignVector(*COVER_MID_DESIGN), (*COVER_MID_NOISE, 1.0),
     "noise vector needs 2 values, got 3"),
    (COVER_MID_DESIGN, COVER_MID_NOISE[:1],
     "noise vector needs 2 values, got 1"),
])
def test_point_reader_names_the_vector_of_the_wrong_length(design, noise,
                                                           message):
    # the design is read first, so a point with both wrong names the design
    spec = ss.ProblemSpec()
    for read in (ss.eval_objectives, ss.feasible):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            read(design, noise, spec)
    if message.startswith("noise"):
        with pytest.raises(ValidationError, match="^design vector"):
            ss.eval_objectives(COVER_MID_DESIGN[:3], noise, spec)


@pytest.mark.parametrize("design, noise, name, values", [
    (("0.3", "450", "520", "0.01"), ("293", "800"), "design",
     "('0.3', '450', '520', '0.01')"),
    ((0.3, 450.0, 520.0, 0.01), ("293", True), "noise", "('293', True)"),
    ((0.3, 450.0, True, 0.01), COVER_MID_NOISE, "design",
     "(0.3, 450.0, True, 0.01)"),
], ids=["strings", "string_and_bool", "bool"])
def test_point_reader_takes_only_real_numbers(design, noise, name, values):
    # the number rule is codec.is_real's: float() would take "293" and True
    for read in (ss.eval_objectives, ss.feasible):
        with pytest.raises(ValidationError) as caught:
            read(design, noise, ss.ProblemSpec())
        assert str(caught.value) == (
            f"{name} vector needs real numbers, got {values}")


@pytest.mark.parametrize("make, values, message", [
    (ss.DesignVector, (1.0, math.nan, 600.0, 0.1), "x_b must be a finite "
     "number, got nan"),
    (ss.DesignVector, (1.0, 500.0, 600.0, -math.inf), "x_d must be a finite "
     "number, got -inf"),
    (ss.DesignVector, (1.0, 500.0, "600", 0.1), "x_c must be a finite "
     "number, got '600'"),
    (ss.NoiseVector, (math.inf, 900.0), "z_a must be a finite number, "
     "got inf"),
    (ss.NoiseVector, (300.0, True), "z_b must be a finite number, got True"),
])
def test_vectors_hold_only_finite_numbers(make, values, message):
    with pytest.raises(ValidationError) as caught:
        make(*values)
    assert str(caught.value) == message


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array_equal(a.view(np.int64), b.view(np.int64))


SPEC_FLAGS = [dict(variable_mode=mode, fix_efficiency_intercept=fix_e,
                   fix_savings_flow_term=fix_s, maximize=maximize)
              for mode in ("coded", "raw") for fix_e in (True, False)
              for fix_s in (True, False) for maximize in (True, False)]


# the row counts from _ROW_BLOCK - 1 on sit on each side of a block
# boundary, and the last takes the kernel through two full blocks and a
# partial one
@pytest.mark.parametrize("m", [1, 2, 7, 36, 180, 600, _ROW_BLOCK - 1,
                               _ROW_BLOCK, _ROW_BLOCK + 1,
                               2 * _ROW_BLOCK + 88])
@pytest.mark.parametrize("flags", SPEC_FLAGS,
                         ids=lambda f: "-".join(str(v) for v in f.values()))
def test_table_matches_literal(flags, m, literal_objectives):
    spec = ss.ProblemSpec(**flags)
    rng = np.random.default_rng(m)
    box = np.array(spec.design_bounds + spec.noise_bounds)
    # the box, a margin outside it, and its corners and centre
    width = box[:, 1] - box[:, 0]
    positions = rng.uniform(box[:, 0] - 0.2 * width, box[:, 1] + 0.2 * width,
                            (m, 6))
    positions[0] = box[:, 0]
    positions[-1] = (box[:, 0] + box[:, 1]) / 2.0
    weights = rng.dirichlet([1.0, 1.0, 1.0], m)
    weights[:, 2] = np.maximum(0.0, 1.0 - weights[:, 0] - weights[:, 1])
    weights[0] = (1.0, 0.0, 0.0)

    power, efficiency, savings = literal_objectives(*positions.T, spec)
    want = (weights[:, 0] * power + weights[:, 1] * efficiency
            + weights[:, 2] * savings)
    objectives = _surfaces(spec).objective_rows(positions)
    assert same_bits(_weighted_sum(weights.T, objectives), want)
    # one weight row serves every row as its m copies do
    one = weights[m // 2]
    assert same_bits(
        ss.IrrigationFitness(spec, ss.WeightVector(*one)).evaluate_rows(
            positions),
        _weighted_sum(np.repeat(one[None], m, axis=0).T, objectives))
    # the one-row entry points score every row of the smaller counts, and
    # about 200 rows, the last among them, of the block-sized ones
    stride = 1 if m < _ROW_BLOCK - 1 else m // 200
    for k in sorted({*range(0, m, stride), m - 1}):
        literal = literal_objectives(*positions[k].tolist(), spec)
        assert same_bits(literal, (power[k], efficiency[k], savings[k]))
        assert same_bits(ss.eval_objectives(positions[k, :4],
                                            positions[k, 4:], spec).as_tuple(),
                         literal)
        fitness = ss.IrrigationFitness(spec, ss.WeightVector(*weights[k]))
        assert same_bits(fitness.evaluate(positions[k]), want[k])


def test_results_never_share_the_workspace(literal_objectives):
    # every call reuses one workspace: results kept from earlier calls, of
    # other row counts and specs, must neither change nor share memory with
    # a later result or the workspace
    rng = np.random.default_rng(29)
    kept = []
    for m in (1, 7, _ROW_BLOCK, 2 * _ROW_BLOCK + 88, 7, 1):
        for spec in (ss.ProblemSpec(), ss.ProblemSpec(variable_mode="raw")):
            box = np.array(spec.design_bounds + spec.noise_bounds)
            positions = rng.uniform(box[:, 0], box[:, 1], (m, 6))
            weights = rng.dirichlet([1.0, 1.0, 1.0], m)
            power, efficiency, savings = literal_objectives(*positions.T,
                                                            spec)
            want = (weights[:, 0] * power + weights[:, 1] * efficiency
                    + weights[:, 2] * savings)
            kernel = _surfaces(spec).objective_rows
            results = (kernel(positions),
                       _weighted_sum(weights.T, kernel(positions)))
            assert same_bits(results[0], (power, efficiency, savings))
            assert same_bits(results[1], want)
            for result in results:
                assert not np.shares_memory(result,
                                            irrigation._workspace.floats)
                for earlier, copy in kept:
                    assert not np.shares_memory(result, earlier)
                    assert same_bits(earlier, copy)
            kept += [(result, result.copy()) for result in results]


def test_a_warm_call_allocates_less_than_one_term_array():
    # numpy reports its buffers to tracemalloc; the workspace is made by
    # the first call, so a later one allocates little more than its result
    spec = ss.ProblemSpec()
    box = np.array(spec.design_bounds + spec.noise_bounds)
    positions = np.random.default_rng(3).uniform(box[:, 0], box[:, 1],
                                                 (_ROW_BLOCK, 6))
    kernel = _surfaces(spec).objective_rows
    kernel(positions)
    tracemalloc.start()
    try:
        kernel(positions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 39 * _ROW_BLOCK * 8


def test_each_thread_has_its_own_workspace(literal_objectives):
    # a workspace belongs to the thread that made it
    spec = ss.ProblemSpec()
    positions = np.array([[*COVER_MID_DESIGN, *COVER_MID_NOISE]] * 5)
    kernel = _surfaces(spec).objective_rows
    kernel(positions)
    seen = []

    def run():
        seen.append((kernel(positions),
                     irrigation._workspace.floats))

    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
    (objectives, floats), = seen
    assert floats is not irrigation._workspace.floats
    # both start on a 64-byte boundary, as malloc's large blocks do not
    for workspace in (floats, irrigation._workspace.floats):
        assert workspace.ctypes.data % 64 == 0
    assert same_bits(objectives, literal_objectives(*positions.T, spec))


@pytest.mark.parametrize("mode", ["coded", "raw"])
@pytest.mark.parametrize("m", [1, 26, _ROW_BLOCK, _ROW_BLOCK + 1, 4680])
def test_bound_kernel_gives_the_module_functions_bits(m, mode):
    # the optimizer scores through _Surfaces.objective_rows, bound once per
    # fitness or batch: it must give the one-row entry points' bits, row by
    # row, at a swarm's rows, a round's swim rows and on each side of a
    # block
    spec = ss.ProblemSpec(variable_mode=mode)
    box = np.array(spec.design_bounds + spec.noise_bounds)
    # the transpose of (6, m) rows, as the engine passes them
    positions = np.ascontiguousarray(np.random.default_rng(m).uniform(
        box[:, 0], box[:, 1], (m, 6)).T).T
    kernel = _surfaces(spec).objective_rows
    rows = [ss.eval_objectives(p[:4], p[4:], spec)
            for p in positions.tolist()]
    assert same_bits(kernel(positions).T, [row.as_tuple() for row in rows])
    weights = ss.WeightVector(0.2, 0.3, 0.5)
    fitness = ss.IrrigationFitness(spec, weights)
    assert fitness._objective_rows == kernel
    assert same_bits(fitness.evaluate_rows(positions),
                     [ss.aggregate(row, weights) for row in rows])


def test_coefficient_table_flags():
    # terms are (coef, i, j) over the 6 variables and the constant 1; the
    # flags pick the two misprinted coefficients and the sign
    table = coefficient_table(ss.ProblemSpec())
    assert [len(terms) for _, terms in table] == [13, 6, 13]
    for _, terms in table:
        assert all(0 <= i <= 6 and 0 <= j <= 6 for _, i, j in terms)
    printed = coefficient_table(ss.ProblemSpec(fix_efficiency_intercept=False,
                                               fix_savings_flow_term=False,
                                               maximize=False))
    assert printed[1][1][0][0] == 18507.0
    assert printed[2][1][1][0] == 0.0
    assert printed[0][0] == -table[0][0]


def test_fitness_rejects_wrong_length_position():
    fitness = ss.IrrigationFitness(ss.ProblemSpec(),
                                   ss.WeightVector(0.2, 0.3, 0.5))
    # a (2, 3) array holds 6 values, but not as one row
    for position in ([1.0] * 5, [1.0] * 7, np.ones((2, 3)), np.ones((1, 6)),
                     1.0):
        with pytest.raises(ValidationError):
            fitness.evaluate(position)
