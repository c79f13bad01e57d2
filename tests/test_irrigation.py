import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import solarswarm as ss
from solarswarm.errors import (
    EmptyInterval,
    GradeOutOfSmoothRange,
    InfeasibleSpec,
    NonFiniteResult,
    ValidationError,
)
from solarswarm.irrigation import (
    _ROW_BLOCK,
    CRISP_NOISE_BOUNDS,
    DEFAULT_DESIGN_BOUNDS,
    coefficient_table,
    evaluate_rows,
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
    rhs = ss.aggregate(o1 + o2, w)
    assert rhs == pytest.approx(lhs, rel=1e-9, abs=1e-6)


def test_aggregate_scale_preserves_ranking():
    rng = np.random.default_rng(42)
    w = ss.WeightVector(0.3, 0.3, 0.4)
    for factor in (0.5, 2.0, 10.0):
        triples = [ss.ObjectiveTriple(*row)
                   for row in rng.uniform(-100, 100, size=(100, 3))]
        base = [ss.aggregate(o, w) for o in triples]
        scaled = [ss.aggregate(o.scaled(factor), w) for o in triples]
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


def test_fitness_adapter_matches_aggregate():
    spec = ss.ProblemSpec()
    w = ss.WeightVector(0.2, 0.3, 0.5)
    fitness = ss.IrrigationFitness(spec, w)
    assert fitness.bounds == spec.design_bounds + spec.noise_bounds
    position = np.array([*COVER_MID_DESIGN, *COVER_MID_NOISE])
    expected = ss.aggregate(
        ss.eval_objectives(COVER_MID_DESIGN, COVER_MID_NOISE, spec), w)
    assert fitness.evaluate(position) == expected


def test_with_noise_bounds():
    spec = ss.ProblemSpec()
    narrowed = spec.with_noise_bounds([(295.0, 296.0), (850.0, 860.0)])
    assert narrowed.noise_bounds == ((295.0, 296.0), (850.0, 860.0))
    assert narrowed.design_bounds == spec.design_bounds
    assert spec.noise_bounds == CRISP_NOISE_BOUNDS


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array_equal(a.view(np.int64), b.view(np.int64))


SPEC_FLAGS = [dict(variable_mode=mode, fix_efficiency_intercept=fix_e,
                   fix_savings_flow_term=fix_s, maximize=maximize)
              for mode in ("coded", "raw") for fix_e in (True, False)
              for fix_s in (True, False) for maximize in (True, False)]


# the row counts from _ROW_BLOCK - 1 on sit on each side of a block
# boundary, and the last takes evaluate_rows through two full blocks and a
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
    assert same_bits(evaluate_rows(spec, weights, positions), want)
    # one weight row serves every row as its m copies do
    one = weights[m // 2]
    assert same_bits(
        ss.IrrigationFitness(spec, ss.WeightVector(*one)).evaluate_rows(
            positions),
        evaluate_rows(spec, np.repeat(one[None], m, axis=0), positions))
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
