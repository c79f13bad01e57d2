"""Fast tests of the benchmark itself: python3 -m pytest perfbench -q"""

import csv
import json
import os
import re
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from oracle import GAP_TOLERANCE, OptimumCache, check_point, exact_optimum  # noqa: E402
from solarswarm import climate  # noqa: E402
from solarswarm.irrigation import (  # noqa: E402
    IrrigationFitness,
    ProblemSpec,
    WeightVector,
    eval_objectives,
)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("weights", [(0.8, 0.1, 0.1), (0.1, 0.1, 0.8),
                                     (0.0, 1.0, 0.0), (1.0, 0.0, 0.0),
                                     (0.5, 0.5, 0.0), (0.2, 0.3, 0.5)])
def test_oracle_bounds_brute_force(weights):
    w = WeightVector(*weights)
    best, point = exact_optimum(w)
    fitness = IrrigationFitness(ProblemSpec(), w)
    box = np.array(fitness.bounds)
    assert np.all(box[:, 0] <= point) and np.all(point <= box[:, 1])
    assert fitness.evaluate(point) == best
    rng = np.random.default_rng(7)
    samples = rng.uniform(box[:, 0], box[:, 1], size=(4000, 6))
    # every corner of the box and a dense (x_a, x_b) grid at the optimum's
    # corner of the other four coordinates
    corners = np.array(np.meshgrid(*box, indexing="ij")).reshape(6, -1).T
    a, b = np.meshgrid(np.linspace(*box[0], 41), np.linspace(*box[1], 41))
    grid = np.column_stack([a.ravel(), b.ravel(),
                            np.tile(point[2:], (a.size, 1))])
    brute = max(fitness.evaluate(x) for x in np.vstack([samples, corners, grid]))
    assert brute <= best + 1e-12 * abs(best)


def test_generators_are_deterministic():
    assert inputs.optimize_calls(3, 10) == inputs.optimize_calls(3, 10)
    assert inputs.optimize_calls(3, 10) != inputs.optimize_calls(4, 10)
    assert inputs.perturbed_climate(3, 1) == inputs.perturbed_climate(3, 1)
    assert inputs.perturbed_climate(3, 0) != inputs.perturbed_climate(3, 1)


def test_generated_bundles_are_byte_identical(tmp_path):
    for name in ("a", "b"):
        inputs.write_bundle(str(tmp_path / name), 5, 36)
    for name in ("frontier.csv", "metrics.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_weights_pass_the_sum_check():
    import random
    rng = random.Random(0)
    for _ in range(2000):
        w = inputs.lattice_weights(rng)
        assert min(w.as_tuple()) > 0.0
        assert abs(sum(w.as_tuple()) - 1.0) <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_perturbed_climate_keeps_row_order(seed):
    for variant in range(inputs.CLIMATE_VARIANTS):
        text, extrema = inputs.perturbed_climate(seed, variant)
        table = climate.parse_climate_csv(text)
        for r in table.records:
            assert r.temp_min <= r.temp_avg <= r.temp_max
            assert r.insol_min <= r.insol_avg <= r.insol_max
        for factor in climate.FACTORS:
            assert climate.annual_extrema(table, factor) == extrema[factor]


def test_metric_names_follow_the_grammar():
    names = list(run.END_TO_END) + list(run.PER_LAYER) + list(workloads.WORKLOADS)
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    spec_path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path, encoding="utf-8") as fh:
            spec = json.load(fh)
        assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
        assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
        assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _optimize_op(tmp_path):
    ops = workloads.build("optimize", str(tmp_path), 1)
    op = ops[0]
    result = workloads.call(op)
    workloads.record_outputs(op, result, with_bytes=False)
    return op, result


def test_optimize_op_passes_its_check(tmp_path):
    op, result = _optimize_op(tmp_path)
    outcome = workloads.check(op, result, OptimumCache())
    assert outcome.failed_cells == 0, outcome.reasons
    assert 0.0 <= outcome.gaps[0] <= GAP_TOLERANCE


def test_out_of_box_point_is_a_failed_op(tmp_path):
    op, result = _optimize_op(tmp_path)
    path = os.path.join(op.out_dir, "solution.csv")
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    rows[0]["Z_b"] = repr(1000.5)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    outcome = workloads.check(op, result, OptimumCache())
    assert outcome.failed_cells == 1
    assert "outside" in outcome.reasons[0]


def _row(weights: WeightVector, point) -> dict:
    """A solution CSV row for `point`, as the package would write it."""
    problem = ProblemSpec()
    f = eval_objectives(point[:4], point[4:], problem)
    row = {k: repr(float(v)) for k, v in zip(
        ("x_a", "x_b", "x_c", "x_d", "Z_a", "Z_b"), point)}
    row.update(zip(("w1", "w2", "w3"), map(repr, weights.as_tuple())))
    row.update(f1=repr(f.power), f2=repr(f.efficiency), f3=repr(f.savings),
               F=repr(IrrigationFitness(problem, weights).evaluate(point)))
    return row


def test_check_point_rejects_wrong_aggregate_and_large_gap():
    cache = OptimumCache()
    w = WeightVector(0.2, 0.3, 0.5)
    best, point = exact_optimum(w)
    row = _row(w, point)
    assert check_point(row, cache) == (None, 0.0)
    assert "differs" in check_point({**row, "F": repr(best * 1.001)}, cache)[0]
    box = np.array(ProblemSpec().design_bounds + ProblemSpec().noise_bounds)
    reason, gap = check_point(_row(w, box.mean(axis=1)), cache)
    assert "gap" in reason and gap > GAP_TOLERANCE


def test_tampered_golden_bundle_fails_every_op(tmp_path, monkeypatch):
    """A golden digest mismatch fails all ops of the run."""
    golden = {"sweep": {"seed": 0, "files": {"frontier.csv": "0" * 64}}}
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    monkeypatch.setattr(run, "GOLDEN_PATH", str(path))
    monkeypatch.setattr(inputs, "SHORT_BFA", {
        "elimination_cycles": 1, "reproduction_cycles": 1,
        "chemotaxis_steps": 2})
    problems = run.golden_check("sweep", str(tmp_path / "work"))
    assert any("frontier.csv" in p for p in problems)
    ops = workloads.build("optimize", str(tmp_path / "opt"), 2)[:1]
    phase = run.run_phase(ops, 0.0)
    failed, reasons, _ = run.verify(ops, [phase], problems)
    assert failed == phase.attempted == 1
    assert reasons


def test_bytes_differing_between_rounds_fail_the_op(tmp_path):
    ops = workloads.build("analyze", str(tmp_path), 3)
    first = run.run_phase(ops, 0.0)
    assert run.verify(ops, [first], [])[0] == 0
    # tamper with a bundle the report op reads: its output changes
    bundle = ops[-1].expect["bundles"][0]
    shutil.copy(os.path.join(ops[-1].expect["bundles"][1], "metrics.json"),
                os.path.join(bundle, "metrics.json"))
    second = run.Phase()
    run.run_round(ops, second, reference=first.first)
    assert second.mismatched >= 1
    failed, _, _ = run.verify(ops, [first, second], [])
    assert failed >= 1


def test_sampler_scales_by_the_units_around_a_call(tmp_path):
    sampler = reference.Sampler((0, 1), str(tmp_path))
    ends = [i * 0.1 for i in range(100)]
    sampler.ends = [ends, ends]
    sampler.costs = [[2e-4] * 50 + [4e-4] * 50, [3e-4] * 100]
    # 1.0 s around [1, 2]: the first CPU's units there all cost 2e-4
    assert sampler.unit_seconds(1.0, 2.0) == pytest.approx(2.5e-4)
    assert sampler.scale(2.0, 1.0, 2.0) == \
        pytest.approx(2.0 * reference.UNIT_SECONDS / 2.5e-4)
    # a window with too few units widens until it holds MIN_UNITS
    sparse = reference.Sampler((0,), str(tmp_path))
    sparse.ends = [[0.0, 5.0] + [10.0 + i for i in range(20)]]
    sparse.costs = [[1e-4, 1e-4] + [5e-4] * 20]
    assert sparse.unit_seconds(5.0, 5.0) > 1e-4


def test_sampler_runs_and_stops(tmp_path):
    import time
    cpu = min(os.sched_getaffinity(0))
    with reference.Sampler((cpu,), str(tmp_path)) as sampler:
        time.sleep(0.5)
    assert all(proc.returncode is not None for proc in sampler.procs)
    assert len(sampler.ends[0]) >= reference.MIN_UNITS
    assert sampler.ends[0] == sorted(sampler.ends[0])


class _IdleMachine:
    """A sampler stand-in for a machine that runs at reference speed."""

    def scale(self, seconds, start, end):
        return seconds


def test_bursts_run_after_calls_and_around_probes(tmp_path):
    import time
    ops = workloads.build("analyze", str(tmp_path), 3)
    bursts = reference.Bursts()
    phase = run.run_phase(ops, 0.0, lambda: (time.perf_counter(), 0.2), 1,
                          bursts)
    assert len(bursts.ends[0]) == (reference.BURST_UNITS * len(ops)
                                   + 2 * reference.PROBE_UNITS)
    start, end = phase.op_span[0][0]
    assert bursts.unit_seconds(start, end) > 0
    assert run.end_to_end(phase, bursts)["wall_s"] > 0


def test_end_to_end_reports_every_metric(tmp_path):
    ops = workloads.build("analyze", str(tmp_path), 3)
    phase = run.run_phase(ops, 0.0, lambda: (0.0, 0.2), 3)
    assert phase.setup == [0.2] * 3
    assert [len(samples) for samples in phase.op_span] == [1] * len(ops)
    metrics = run.end_to_end(phase, _IdleMachine())
    assert list(metrics) == list(run.END_TO_END)
    assert metrics["setup_s"] == 0.2
    assert metrics["wall_s"] == pytest.approx(sum(phase.round_wall))
    assert all(value > 0 for value in metrics.values())
