import dataclasses
import json
import os
import shutil
import typing
import warnings

import pytest

import solarswarm as ss
from solarswarm import climate, fuzzy
from solarswarm.cli import RunConfig, main
from solarswarm.codec import write_text
from solarswarm.errors import ValidationError
from solarswarm.pareto import (
    FRONTIER_CSV_HEADER,
    metrics_json_text,
    read_frontier_csv,
)


def tiny_bfa_dict():
    return ss.BfaConfig(population_size=4, chemotaxis_steps=2, swim_limit=2,
                        reproduction_cycles=1, elimination_cycles=1).to_dict()


def write_config(directory, **overrides):
    data = {"bfa": tiny_bfa_dict()}
    data.update(overrides)
    path = os.path.join(str(directory), "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


# grade contexts that break the grade rule, with the message each gets: a
# grade is a number in [0, 1], a range two grades with lo <= hi
BAD_GRADE_CONTEXTS = [
    ({"temperature_secondary": ["0.1", "0.9"]},
     "temperature_secondary grade must be a number in [0, 1], got '0.1'"),
    ({"temperature_secondary": [True, 0.5]},
     "temperature_secondary grade must be a number in [0, 1], got True"),
    ({"temperature_primary": -3},
     "temperature_primary grade must be a number in [0, 1], got -3"),
    ({"insolation_primary": 7.5},
     "insolation_primary grade must be a number in [0, 1], got 7.5"),
    ({"insolation_secondary": [0.8, 0.2]},
     "insolation_secondary grade range out of order: (0.8, 0.2)"),
]
BAD_GRADE_IDS = ["grade_str", "grade_bool", "grade_negative",
                 "grade_above_one", "grade_range_reversed"]


# a noise box reaching below the crisp one, and the one line it gets from
# every command that builds the problem
OUT_OF_BOX_NOISE = [[250, 303], [100, 1000]]
OUT_OF_BOX_ERROR = (
    "error: NoiseOutOfBox: Z_a (temperature) noise interval [250.0, 303.0] "
    "lies outside the box [293.0, 303.0] the response surfaces are coded "
    "against\n")


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """A tiny but real frontier bundle, shared by the read-only tests."""
    root = tmp_path_factory.mktemp("bundle")
    config = write_config(root, weight_step=0.5, weight_minimum=0.0,
                          runs_per_weight=1)
    out = str(root / "run")
    assert main(["frontier", "--config", config, "--out", out]) == 0
    return out


class TestFuzzify:
    def test_writes_models_and_reports_domains(self, tmp_path, capsys):
        out = str(tmp_path / "models")
        assert main(["fuzzify", "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "temperature: annual domain [265.2, 309.1]" in stdout
        assert "insolation: annual domain [14, 336]" in stdout
        for factor in ("temperature", "insolation"):
            path = os.path.join(out, f"{factor}_model.json")
            assert os.path.isfile(path)
            model = fuzzy.load_model(path)
            rebuilt = fuzzy.build_type2_model(climate.builtin_table(),
                                              factor)
            assert model == rebuilt

    def test_accepts_external_climate_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "climate.csv"
        csv_path.write_text(
            climate.serialize_climate_csv(climate.builtin_table()))
        out = str(tmp_path / "models")
        assert main(["fuzzify", "--climate", str(csv_path),
                     "--out", out]) == 0
        assert os.path.isfile(os.path.join(out, "temperature_model.json"))

    def test_failed_model_writes_nothing(self, tmp_path, capsys):
        # January's insolation has no width, so the second model fails
        text = climate.serialize_climate_csv(climate.builtin_table())
        csv_path = tmp_path / "climate.csv"
        csv_path.write_text(text.replace("146,43,104.71", "100,100,100"))
        out = tmp_path / "models"
        assert main(["fuzzify", "--climate", str(csv_path),
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: DegenerateRange: insolation month 1: need b_lo < b_hi, "
            "got [100.0, 100.0]\n")
        assert not out.exists()

    def test_unreadable_climate_is_a_usage_error(self, tmp_path, capsys):
        code = main(["fuzzify", "--climate", str(tmp_path / "missing.csv"),
                     "--out", str(tmp_path / "m")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ValidationError:")


class TestOptimize:
    def test_writes_solution_and_trace(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = str(tmp_path / "run")
        assert main(["optimize", "--config", config, "--out", out,
                     "--weights", "0.1,0.1,0.8"]) == 0
        stdout = capsys.readouterr().out
        assert "aggregate F = " in stdout
        solution = read_frontier_csv(os.path.join(out, "solution.csv"))
        assert len(solution) == 1
        point = solution.points[0]
        assert point.weights.as_tuple() == (0.1, 0.1, 0.8)
        assert point.seed == ss.derive_seed(0, point.weights, 0)
        trace_lines = open(os.path.join(out, "trace.csv")).read().split("\n")
        assert trace_lines[0] == "iteration,best_fitness,evaluations"

    def test_seed_flag_overrides_derivation(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = str(tmp_path / "run")
        assert main(["optimize", "--config", config, "--out", out,
                     "--weights", "0.1,0.1,0.8", "--seed", "77"]) == 0
        solution = read_frontier_csv(os.path.join(out, "solution.csv"))
        assert solution.points[0].seed == 77

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        config = write_config(tmp_path)
        outs = [str(tmp_path / name) for name in ("a", "b")]
        for out in outs:
            assert main(["optimize", "--config", config, "--out", out,
                         "--weights", "0.3,0.4,0.3"]) == 0
        for name in ("solution.csv", "trace.csv"):
            first = open(os.path.join(outs[0], name), "rb").read()
            second = open(os.path.join(outs[1], name), "rb").read()
            assert first == second

    def test_weight_validation_failures(self, tmp_path, capsys):
        config = write_config(tmp_path)
        base = ["optimize", "--config", config,
                "--out", str(tmp_path / "x")]
        assert main(base + ["--weights", "0.5,0.6,0.2"]) == 1  # sum != 1
        assert main(base + ["--weights", "0.5,0.5"]) == 1
        assert main(base + ["--weights", "a,b,c"]) == 1
        assert main(base) == 1  # --weights missing entirely
        err = capsys.readouterr().err
        assert err.count("error: ValidationError:") == 4

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, swarm_size=10)
        code = main(["optimize", "--config", config,
                     "--out", str(tmp_path / "x"),
                     "--weights", "0.1,0.1,0.8"])
        assert code == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("document", [
        {"bfa": {"seed": "x"}},
        {"grade_context": {"pad": "a"}},
        {"problem": {"design_bounds": 5}},
        [1, 2],
        {"problem": None},
        {"bfa": None},
        {"weight_step": "x"},
        {"problem": {"maximize": "no"}},
        {"climate_csv": 5},
    ], ids=["seed_str", "pad_str", "bounds_int", "list", "null_problem",
            "null_bfa", "weight_step_str", "maximize_str", "climate_csv_int"])
    def test_malformed_config_is_one_line(self, document, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(document))
        code = main(["optimize", "--config", str(config),
                     "--out", str(tmp_path / "x"),
                     "--weights", "0.1,0.1,0.8"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ValidationError: ")
        assert err.count("\n") == 1
        assert "unknown config keys" not in err

    def test_self_test_passes(self, capsys):
        assert main(["optimize", "--self-test"]) == 0
        assert "self-test: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, named", [
        (["--weights", "1,2"], "--weights"),
        (["--climate", "{missing}", "--seed", "3"], "--climate"),
        (["--out", "{out}"], "--out"),
        (["--config", "{config}", "--climate", "{missing}", "--weights",
          "1,2", "--out", "{out}"], "--config, --climate, --weights, --out"),
    ], ids=["weights", "climate_with_seed", "out", "all"])
    def test_self_test_rejects_run_settings(self, flags, named, tmp_path,
                                            capsys):
        # a setting that is given must be read, and the self-test reads
        # only --seed: the flags are named before the config (with an
        # unknown key) or the missing table is looked at, and nothing runs
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"nonsense": 1}))
        paths = dict(config=str(config), missing=str(tmp_path / "no.csv"),
                     out=str(tmp_path / "x"))
        argv = ["optimize", "--self-test"] + [f.format(**paths) for f in flags]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: ValidationError: --self-test reads no run "
                       f"settings, got {named}\n")
        assert not os.path.exists(paths["out"])

    def test_self_test_counts_every_evaluation(self, capsys, reference):
        # the count is that of the points a move-by-move run scores, the
        # final elimination-dispersal's included
        want = reference(ss.sphere_function(),
                         ss.BfaConfig(step_fraction=0.01, seed=0))
        assert main(["optimize", "--self-test"]) == 0
        assert f" after {want.evaluations} evaluations " \
            in capsys.readouterr().out

    def test_counts_every_evaluation(self, tmp_path, capsys, reference):
        bfa = {**tiny_bfa_dict(), "elimination_prob": 1.0}
        config = write_config(tmp_path, bfa=bfa)
        assert main(["optimize", "--config", config, "--out",
                     str(tmp_path / "run"), "--weights", "0.1,0.1,0.8"]) == 0
        # the count is that of the points a move-by-move run scores, every
        # member's re-scoring after the final dispersal included
        weights = ss.WeightVector(0.1, 0.1, 0.8)
        cfg = ss.BfaConfig.from_dict({**bfa,
                                      "seed": ss.derive_seed(0, weights, 0)})
        want = reference(ss.IrrigationFitness(ss.ProblemSpec(), weights), cfg)
        assert f"evaluations: {want.evaluations}, " \
            in capsys.readouterr().out


class TestFrontier:
    def test_bundle_contents(self, bundle):
        for name in ("frontier.csv", "metrics.json", "summary.txt",
                     "config.json"):
            assert os.path.isfile(os.path.join(bundle, name))
        traces = sorted(os.listdir(os.path.join(bundle, "traces")))
        assert traces == [f"trace_w{i:03d}.csv" for i in range(6)]
        frontier = read_frontier_csv(os.path.join(bundle, "frontier.csv"))
        assert len(frontier) == 6
        grid = ss.weight_grid(step=0.5, minimum=0.0)
        assert [p.weights.as_tuple() for p in frontier.points] \
            == [w.as_tuple() for w in grid]

    def test_metrics_and_summary_agree(self, bundle):
        metrics = json.load(open(os.path.join(bundle, "metrics.json")))
        frontier = read_frontier_csv(os.path.join(bundle, "frontier.csv"))
        assert metrics["n_points"] == 6
        assert metrics["dominance_mean_F"] == ss.frontier_dominance(frontier)
        summary = open(os.path.join(bundle, "summary.txt")).read()
        assert "frontier summary" in summary
        assert repr(metrics["dominance_mean_F"]) in summary
        assert "notes:" in summary
        assert "1.2022" in summary

    def test_config_echo_holds_resolved_problem(self, bundle):
        echo = json.load(open(os.path.join(bundle, "config.json")))
        assert echo["weight_step"] == 0.5
        assert echo["runs_per_weight"] == 1
        assert echo["problem"]["noise_bounds"] == [[293.0, 303.0],
                                                   [800.0, 1000.0]]

    def test_rerun_is_byte_identical(self, bundle, tmp_path, capsys):
        config = write_config(tmp_path, weight_step=0.5, weight_minimum=0.0,
                              runs_per_weight=1)
        out = str(tmp_path / "again")
        assert main(["frontier", "--config", config, "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "frontier: 6 points" in stdout
        for name in ("frontier.csv", "metrics.json", "summary.txt",
                     os.path.join("traces", "trace_w000.csv"),
                     os.path.join("traces", "trace_w005.csv")):
            first = open(os.path.join(bundle, name), "rb").read()
            second = open(os.path.join(out, name), "rb").read()
            assert first == second

    def test_flag_overrides_replace_config_grid(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = str(tmp_path / "run")
        assert main(["frontier", "--config", config, "--out", out,
                     "--step", "0.5", "--minimum", "0", "--runs", "1"]) == 0
        frontier = read_frontier_csv(os.path.join(out, "frontier.csv"))
        assert len(frontier) == 6

    @pytest.mark.parametrize("value, error", [
        ("nan", "ValidationError: minimum nan must be finite and >= 0"),
        ("inf", "ValidationError: minimum inf must be finite and >= 0"),
        ("-inf", "ValidationError: minimum -inf must be finite and >= 0"),
        ("1e308", "EmptyGrid: no weight vector has all components >= "
                  "1e+308 on a grid of step 0.1"),
    ])
    def test_out_of_range_minimum_flag_is_one_line(self, value, error,
                                                   tmp_path, capsys):
        code = main(["frontier", f"--minimum={value}",
                     "--out", str(tmp_path / "x")])
        assert capsys.readouterr().err == f"error: {error}\n"
        assert code == 1
        assert not os.path.exists(tmp_path / "x")

    # json.dumps writes these spellings; a package file never holds them
    @pytest.mark.parametrize("command, document, literal", [
        ("frontier", '{"weight_minimum": NaN}', "NaN"),
        ("frontier", '{"weight_minimum": Infinity}', "Infinity"),
        ("frontier", '{"weight_step": 1e999}', "1e999"),
        ("optimize", '{"bfa": {"attract_depth": NaN}}', "NaN"),
        ("optimize", '{"bfa": {"repel_width": -Infinity}}', "-Infinity"),
        ("optimize", '{"bfa": {"attract_width": -1E400}}', "-1E400"),
    ])
    def test_non_finite_config_number_is_one_line(self, command, document,
                                                  literal, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(document)
        weights = ["--weights", "0.1,0.1,0.8"] if command == "optimize" else []
        code = main([command, "--config", str(config),
                     "--out", str(tmp_path / "x"), *weights])
        assert capsys.readouterr().err == (
            f"error: ValidationError: {config} is not valid JSON: "
            f"non-finite number {literal}\n")
        assert code == 1
        assert not os.path.exists(tmp_path / "x")

    def test_grade_context_reshapes_noise_bounds(self, tmp_path):
        context = {"temperature_secondary": 0.05}
        config = write_config(tmp_path, weight_step=0.5, weight_minimum=0.0,
                              runs_per_weight=1, grade_context=context)
        out = str(tmp_path / "run")
        assert main(["frontier", "--config", config, "--out", out]) == 0
        echo = json.load(open(os.path.join(out, "config.json")))
        (t_lo, t_hi), insolation = echo["problem"]["noise_bounds"]
        # point grade padded by 0.005 of the 43.9-wide temperature domain;
        # insolation, not graded, keeps its crisp bounds
        assert t_lo == pytest.approx(296.5075940107938 - 0.005 * 43.9)
        assert t_hi == pytest.approx(296.5075940107938 + 0.005 * 43.9)
        assert insolation == [800.0, 1000.0]
        assert echo["grade_context"]["temperature_secondary"] == 0.05

    @pytest.mark.parametrize("command", [
        "frontier", "optimize --weights 0.5,0.25,0.25"])
    @pytest.mark.parametrize("mode", ["coded", "raw"])
    def test_out_of_box_noise_bounds_are_one_line(self, command, mode,
                                                  tmp_path, capsys):
        # a config's noise box meets the rule a grade context's meets, in
        # either variable mode: nothing runs and nothing is written
        config = write_config(tmp_path, weight_step=0.5, weight_minimum=0.0,
                              runs_per_weight=1,
                              problem={"noise_bounds": OUT_OF_BOX_NOISE,
                                       "variable_mode": mode})
        out = tmp_path / "out"
        assert main([*command.split(), "--config", config,
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == OUT_OF_BOX_ERROR
        assert not out.exists()

    def test_overflowing_mean_f_exits_2(self, tmp_path, capsys):
        # every objective of the 66-point frontier is finite, but the sum
        # of its F is not: one line, exit 2, and no bundle directory
        config = write_config(tmp_path, weight_step=0.1, weight_minimum=0.0,
                              runs_per_weight=1,
                              problem={"power_scale_exp": 305.6})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["frontier", "--config", config, "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: NonFiniteResult: the mean F overflows: its sum over the "
            "frontier exceeds the floats\n")
        assert not out.exists()

    @pytest.mark.parametrize("grid", [
        {"weight_step": 0.5, "weight_minimum": 0.0, "runs_per_weight": 1},
        {}], ids=["six_weights", "default_grid"])
    def test_overflowing_health_sums_exit_2(self, grid, tmp_path, capsys):
        # the default BfaConfig sums each fitness near 1e307 over a cycle's
        # moves, which leaves the floats: one line, not numpy's warnings,
        # exit 2, and no bundle directory
        config = write_config(tmp_path, bfa={}, **grid,
                              problem={"power_scale_exp": 305.6})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["frontier", "--config", config, "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines(keepends=True)
        assert len(lines) == 1
        assert lines[0].startswith("error: NonFiniteResult: ")
        assert not out.exists()

    def test_config_echo_holds_the_seed_that_ran(self, tmp_path, capsys):
        # --seed sets bfa.seed, the master seed, over the --config one
        config = write_config(tmp_path, weight_step=0.5, weight_minimum=0.0,
                              runs_per_weight=1,
                              bfa={**tiny_bfa_dict(), "seed": 2})
        out = str(tmp_path / "run")
        assert main(["frontier", "--config", config, "--out", out,
                     "--seed", "5"]) == 0
        echo = json.load(open(os.path.join(out, "config.json")))
        assert "master_seed" not in echo
        assert echo["bfa"]["seed"] == 5
        summary = open(os.path.join(out, "summary.txt")).read()
        assert "runs per weight: 1, master seed 5\n" in summary

    @pytest.mark.parametrize("document, message", [
        ({"weight_step": "x"}, "weight_step must be float, got str"),
        ({"problem": {"maximize": "no"}}, "maximize must be bool, got str"),
        ({"climate_csv": 5}, "climate_csv must be str | None, got int"),
        # removed settings: elimination_cycles, zero depths and bfa.seed
        # replace them
        ({"bfa": {"total_passes": 1}}, "unknown bfa keys: ['total_passes']"),
        ({"bfa": {"swarming": True}}, "unknown bfa keys: ['swarming']"),
        ({"master_seed": 3}, "unknown config keys: ['master_seed']"),
        # a bound takes a JSON number, as every float setting does
        ({"problem": {"design_bounds": [["0.3", "3.0"], [450, 520],
                                        [520, 800], [0.01, 0.2]]}},
         "design_bounds needs 4 (lo, hi) pairs"),
        ({"problem": {"noise_bounds": [[True, 303], [800, 1000]]}},
         "noise_bounds needs 2 (lo, hi) pairs"),
        # a grade context is checked when it is built, primaries too
        *[({"grade_context": context}, message)
          for context, message in BAD_GRADE_CONTEXTS],
    ], ids=["weight_step_str", "maximize_str", "climate_csv_int",
            "total_passes_removed", "swarming_removed", "master_seed_removed",
            "bound_str",
            "bound_bool", *BAD_GRADE_IDS])
    def test_mistyped_config_is_one_line(self, document, message, tmp_path,
                                         capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(document))
        code = main(["frontier", "--config", str(config),
                     "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ValidationError: ")
        assert err.count("\n") == 1
        assert message in err
        assert not os.path.exists(tmp_path / "x")

    def test_oversized_grid_is_one_line(self, tmp_path, capsys):
        # 1e-300 divides 1 within rounding, but its grid would never end
        code = main(["frontier", "--step", "1e-300",
                     "--out", str(tmp_path / "x")])
        assert capsys.readouterr().err == (
            "error: ValidationError: a grid of step 1e-300 and minimum 0.1 "
            "holds more than 1000000 weight vectors\n")
        assert code == 1
        assert not os.path.exists(tmp_path / "x")

    @pytest.mark.parametrize("context", [
        None, {"temperature_secondary": 0.05}], ids=["crisp", "graded"])
    def test_bundle_config_reruns_the_bundle(self, context, tmp_path, capsys):
        # a bundle's config.json is a valid --config, and it runs the
        # bundle again: every file the same, and the echo the same but for
        # out_dir
        config = write_config(tmp_path, weight_step=0.5, weight_minimum=0.0,
                              runs_per_weight=1,
                              bfa={**tiny_bfa_dict(), "seed": 3},
                              grade_context=context)
        first, second = str(tmp_path / "first"), str(tmp_path / "second")
        assert main(["frontier", "--config", config, "--out", first]) == 0
        echo = os.path.join(first, "config.json")
        assert main(["frontier", "--config", echo, "--out", second]) == 0
        capsys.readouterr()
        traces = sorted(os.listdir(os.path.join(first, "traces")))
        assert len(traces) == 6
        for name in ["frontier.csv", "metrics.json", "summary.txt",
                     *(os.path.join("traces", t) for t in traces)]:
            assert open(os.path.join(second, name), "rb").read() \
                == open(os.path.join(first, name), "rb").read()
        want = json.load(open(echo))
        want["out_dir"] = second
        assert json.load(open(os.path.join(second, "config.json"))) == want


class TestMetrics:
    def test_stdout_matches_bundle_file(self, bundle, capsys):
        assert main(["metrics", "--frontier",
                     os.path.join(bundle, "frontier.csv")]) == 0
        stdout = capsys.readouterr().out
        assert stdout == open(os.path.join(bundle, "metrics.json")).read()

    def test_out_flag_writes_identical_file(self, bundle, tmp_path, capsys):
        target = str(tmp_path / "metrics.json")
        assert main(["metrics", "--frontier",
                     os.path.join(bundle, "frontier.csv"),
                     "--out", target]) == 0
        assert open(target).read() \
            == open(os.path.join(bundle, "metrics.json")).read()

    def test_out_flag_rewrites_a_longer_file_exactly(self, bundle, tmp_path,
                                                      capsys):
        # a longer old file keeps none of its bytes past the new text
        target = tmp_path / "metrics.json"
        target.write_text("{}\n" * 4000)
        assert main(["metrics", "--frontier",
                     os.path.join(bundle, "frontier.csv"),
                     "--out", str(target)]) == 0
        with open(os.path.join(bundle, "metrics.json"), "rb") as fh:
            assert target.read_bytes() == fh.read()

    def test_out_flag_writes_to_dev_null(self, bundle, capsys):
        # --out takes any writable path, a device included
        assert main(["metrics", "--frontier",
                     os.path.join(bundle, "frontier.csv"),
                     "--out", os.devnull]) == 0
        assert capsys.readouterr().out == f"wrote {os.devnull}\n"

    def test_row_order_does_not_matter(self, bundle, tmp_path, capsys):
        lines = open(os.path.join(bundle, "frontier.csv")).read().strip() \
            .split("\n")
        shuffled = "\n".join([lines[0]] + lines[:0:-1]) + "\n"
        path = tmp_path / "shuffled.csv"
        path.write_text(shuffled)
        assert main(["metrics", "--frontier", str(path)]) == 0
        assert capsys.readouterr().out \
            == open(os.path.join(bundle, "metrics.json")).read()

    def test_grade_context_flag_is_embedded(self, bundle, tmp_path, capsys):
        # a context whose noise box lies in the fitted one, as a sweep
        # needs: temperature grade 0.05 on the packaged table
        context = tmp_path / "context.json"
        context.write_text(json.dumps({"temperature_secondary": 0.05}))
        assert main(["metrics", "--frontier",
                     os.path.join(bundle, "frontier.csv"),
                     "--grade-context", str(context)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["grade_context"]["temperature_secondary"] == 0.05

    def test_out_of_box_grade_context_is_one_line(self, bundle, tmp_path,
                                                  capsys):
        # an insolation grade lands outside the fitted noise box, so no
        # sweep can run the context: metrics rejects it as frontier does,
        # in one line, and echoes nothing
        path = tmp_path / "context.json"
        path.write_text(json.dumps(
            {"insolation_secondary": [0.02907, 0.92274]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["metrics", "--frontier",
                         os.path.join(bundle, "frontier.csv"),
                         "--grade-context", str(path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines(keepends=True)
        assert len(lines) == 1
        assert lines[0].startswith(
            "error: NoiseOutOfBox: Z_b (insolation) noise interval ")

    @pytest.mark.parametrize("context, message", BAD_GRADE_CONTEXTS,
                             ids=BAD_GRADE_IDS)
    def test_bad_grade_context_is_one_line(self, context, message, bundle,
                                           tmp_path, capsys):
        path = tmp_path / "context.json"
        path.write_text(json.dumps(context))
        assert main(["metrics", "--frontier",
                     os.path.join(bundle, "frontier.csv"),
                     "--grade-context", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: ValidationError: {message}\n"

    def test_overflowing_spread_exits_2(self, tmp_path, capsys):
        # a schema-valid frontier whose f1 spread, 2e308, is not a float:
        # its diversity would be nan, which no JSON number holds
        rows = [(1.0, 0.0, 0.0, 1.0, 500.0, 600.0, 0.1, 298.0, 900.0,
                 f1, 1.0, 1.0, f1, 0) for f1 in (1e308, -1e308)]
        path = tmp_path / "frontier.csv"
        path.write_text("\n".join([",".join(FRONTIER_CSV_HEADER)]
                                  + [",".join(map(str, row)) for row in rows])
                        + "\n")
        target = tmp_path / "metrics.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["metrics", "--frontier", str(path),
                         "--out", str(target)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: NonFiniteResult: diversity is nan: an objective's spread "
            "over the frontier is not a finite number\n")
        assert not target.exists()

    def test_usage_errors(self, bundle, tmp_path, capsys):
        assert main(["metrics"]) == 1
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        assert main(["metrics", "--frontier", str(bad)]) == 1
        assert main(["metrics", "--frontier",
                     str(tmp_path / "missing.csv")]) == 1
        err = capsys.readouterr().err
        assert err.count("error: ") == 3


class TestReport:
    def test_single_bundle_report(self, bundle, capsys):
        assert main(["report", bundle]) == 0
        stdout = capsys.readouterr().out
        assert f"bundle: {bundle}" in stdout
        assert "dominance (mean F):" in stdout
        assert "quantity" in stdout and "median" in stdout
        assert "1.2022" in stdout
        assert "ranking" not in stdout  # only printed for 2+ bundles

    def test_two_bundles_are_ranked(self, bundle, tmp_path, capsys):
        config = write_config(tmp_path, weight_step=0.5, weight_minimum=0.0,
                              runs_per_weight=1,
                              bfa={**tiny_bfa_dict(), "seed": 1})
        other = str(tmp_path / "other")
        assert main(["frontier", "--config", config, "--out", other]) == 0
        capsys.readouterr()
        assert main(["report", bundle, other]) == 0
        stdout = capsys.readouterr().out
        assert "ranking by dominance (mean F):" in stdout
        ranking_lines = [line for line in stdout.split("\n")
                         if line.startswith(("1. ", "2. "))]
        assert len(ranking_lines) == 2
        first = json.load(open(os.path.join(bundle, "metrics.json")))
        second = json.load(open(os.path.join(other, "metrics.json")))
        best_path = (bundle if first["dominance_mean_F"]
                     >= second["dominance_mean_F"] else other)
        assert ranking_lines[0].startswith(f"1. {best_path} ")

    def test_notes_describe_the_bundle_problem(self, tmp_path, capsys):
        config = write_config(tmp_path, weight_step=0.5, weight_minimum=0.0,
                              runs_per_weight=1,
                              problem={"fix_efficiency_intercept": False})
        out = str(tmp_path / "off")
        assert main(["frontier", "--config", config, "--out", out]) == 0
        capsys.readouterr()
        assert main(["report", out]) == 0
        stdout = capsys.readouterr().out
        assert "efficiency intercept correction off" in stdout
        assert "package defaults" not in stdout
        summary = open(os.path.join(out, "summary.txt")).read()
        assert "efficiency intercept correction off" in summary

    def test_bundle_without_config_reports_defaults(self, bundle, tmp_path,
                                                    capsys):
        bare = tmp_path / "bare"
        bare.mkdir()
        for name in ("frontier.csv", "metrics.json"):
            (bare / name).write_bytes(
                open(os.path.join(bundle, name), "rb").read())
        assert main(["report", str(bare)]) == 0
        stdout = capsys.readouterr().out
        assert "package defaults: the bundle has no config.json" in stdout
        assert "efficiency intercept correction on" in stdout

    def test_bundle_with_removed_bfa_keys_reports_its_problem(
            self, tmp_path, capsys):
        # report reads only the problem section of config.json, so a
        # bundle written when the bfa section held total_passes and
        # swarming still reports its own problem
        config = write_config(tmp_path, weight_step=0.5, weight_minimum=0.0,
                              runs_per_weight=1,
                              problem={"fix_efficiency_intercept": False})
        out = str(tmp_path / "old")
        assert main(["frontier", "--config", config, "--out", out]) == 0
        capsys.readouterr()
        echo = os.path.join(out, "config.json")
        document = json.load(open(echo))
        document["bfa"].update(total_passes=1, swarming=True)
        write_text(echo, json.dumps(document))
        assert main(["report", out]) == 0
        stdout = capsys.readouterr().out
        assert "efficiency intercept correction off" in stdout
        assert "package defaults" not in stdout

    @pytest.mark.parametrize("document, message", [
        ([1, 2], "config must be a JSON object, got list"),
        ({"problem": None}, "problem must be a JSON object, got null"),
        ({"problem": {"maximize": "no"}},
         "bad problem: maximize must be bool, got str"),
    ], ids=["list", "null_problem", "maximize_str"])
    def test_malformed_bundle_config_is_one_line(self, document, message,
                                                 bundle, tmp_path, capsys):
        copy = tmp_path / "bundle"
        shutil.copytree(bundle, copy)
        (copy / "config.json").write_text(json.dumps(document))
        assert main(["report", str(copy)]) == 1
        assert capsys.readouterr().err == f"error: ValidationError: {message}\n"

    def test_out_of_box_bundle_config_is_one_line(self, bundle, tmp_path,
                                                  capsys):
        # report decodes the bundle's problem, which meets the noise rule
        copy = tmp_path / "bundle"
        shutil.copytree(bundle, copy)
        document = json.loads((copy / "config.json").read_text())
        document["problem"]["noise_bounds"] = OUT_OF_BOX_NOISE
        (copy / "config.json").write_text(json.dumps(document))
        assert main(["report", str(copy)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == OUT_OF_BOX_ERROR

    def test_grid_note_fits_the_grid(self, bundle, capsys):
        assert main(["report", bundle]) == 0
        stdout = capsys.readouterr().out
        assert "- complete simplex weight grid kept: 6 vectors\n" in stdout
        assert "35-vector" not in stdout
        summary = open(os.path.join(bundle, "summary.txt")).read()
        assert "- complete simplex weight grid kept: 6 vectors\n" in summary
        assert "35-vector" not in summary

    @pytest.mark.parametrize("change, message", [
        ({"dominance_mean_F": "1.5"},
         "dominance_mean_F must be float, got str"),
        ({"dominance_mean_F": None},
         "dominance_mean_F must be float, got null"),
        ({"diversity": [1.0]}, "diversity must be float, got list"),
        ({"n_points": True}, "n_points must be int, got bool"),
        ({"n_points": 6.0}, "n_points must be int, got float"),
        (["dominance_mean_F", "diversity", "n_points"],
         "must be a JSON object, got list"),
    ], ids=["dominance_str", "dominance_null", "diversity_list",
            "n_points_bool", "n_points_float", "key_list"])
    @pytest.mark.parametrize("alone", [True, False], ids=["single", "multi"])
    def test_malformed_metrics_is_one_line(self, change, message, alone,
                                           bundle, tmp_path, capsys):
        copy = tmp_path / "bundle"
        shutil.copytree(bundle, copy)
        metrics = copy / "metrics.json"
        if isinstance(change, dict):
            document = json.loads(metrics.read_text())
            document.update(change)
        else:
            document = change
        metrics.write_text(json.dumps(document))
        argv = ["report", str(copy)] if alone else ["report", bundle,
                                                    str(copy)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: SchemaMismatch: bundle {copy}: "
                                f"metrics.json {message}\n")

    def test_incomplete_bundle_is_rejected(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", str(empty)]) == 1
        assert "IncompleteBundle" in capsys.readouterr().err


class TestWriteText:
    # `newline` is the mode the file is read back with: open()'s universal
    # newlines (None) or the line ends as stored ("")
    @pytest.mark.parametrize("newline", [None, ""])
    def test_shorter_text_replaces_a_longer_file(self, newline, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old,contents\r\n" * 300)
        write_text(str(path), "a,b\n\u00e9,2\n")
        assert path.read_bytes() == "a,b\n\u00e9,2\n".encode("utf-8")
        with open(path, encoding="utf-8", newline=newline) as fh:
            assert fh.read() == "a,b\n\u00e9,2\n"
        write_text(str(path), "")
        assert path.read_bytes() == b""

    def test_creates_a_missing_file(self, tmp_path):
        path = tmp_path / "new.json"
        write_text(str(path), "{}\n")
        assert path.read_bytes() == b"{}\n"


class TestRunConfig:
    def test_dict_roundtrip(self):
        config = RunConfig(weight_step=0.5, bfa=ss.BfaConfig(seed=3),
                           grade_context=ss.GradeContext(
                               insolation_secondary=(0.1, 0.9)))
        again = RunConfig.from_dict(json.loads(
            json.dumps(config.to_dict())))
        assert again.to_dict() == config.to_dict()

    def test_validation(self):
        with pytest.raises(ValidationError):
            RunConfig(runs_per_weight=0)
        with pytest.raises(ValidationError):
            RunConfig(workers=0)
        with pytest.raises(ValidationError):
            RunConfig.from_dict({"bfa": {"seed": -1}})
        with pytest.raises(ValidationError):
            RunConfig.from_dict({"wrong": 1})

    def test_scalar_types_follow_annotations(self):
        # an int fills a float field, a list a tuple field, null only a
        # field that admits None, and a bool only a bool field
        config = RunConfig.from_dict({
            "weight_step": 1, "climate_csv": None,
            "problem": {"maximize": False},
            "grade_context": {"temperature_primary": [0.2, 0.4],
                              "insolation_primary": None}})
        assert config.weight_step == 1 and config.climate_csv is None
        assert config.grade_context.temperature_primary == (0.2, 0.4)
        for document in ({"runs_per_weight": True},
                         {"runs_per_weight": 2.0},
                         {"weight_step": True},
                         {"out_dir": None},
                         {"bfa": {"seed": 1.5}},
                         {"problem": {"maximize": 1}},
                         {"grade_context": {"pad": None}},
                         {"grade_context": {"temperature_primary": "a"}}):
            with pytest.raises(ValidationError):
                RunConfig.from_dict(document)

    def test_decoding_twice_gives_the_same_config_and_errors(self):
        # the codec resolves a class's annotations once and reuses them
        document = {"weight_step": 0.5, "bfa": {"swim_limit": 3},
                    "grade_context": {"temperature_primary": [0.2, 0.4]}}
        assert RunConfig.from_dict(document) == RunConfig.from_dict(document)
        for bad in ({"weight_step": "x"}, {"problem": {"maximize": "no"}},
                    {"grade_context": {"pad": None}}):
            messages = []
            for _ in range(2):
                with pytest.raises(ValidationError) as err:
                    RunConfig.from_dict(bad)
                messages.append(str(err.value))
            assert messages[0] == messages[1]
        assert messages[0] == "bad grade_context: pad must be float, got null"


@pytest.mark.parametrize("command", [
    ["optimize", "--weights", "0.1,0.1,0.8"],
    ["frontier"],
    ["frontier", "--workers", "2"],
], ids=["optimize", "frontier", "frontier_w2"])
def test_non_finite_objectives_exit_2(command, tmp_path, capsys):
    # a failure while computing is one line and exit 2, raised in a pool
    # worker too: the power surface's 10 ** 400 is inf
    config = write_config(tmp_path, weight_step=0.5, weight_minimum=0.0,
                          runs_per_weight=1,
                          problem={"power_scale_exp": 400})
    assert main([*command, "--config", config,
                 "--out", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: NonFiniteResult: objectives not "
                               "finite at position ")
    # nothing is written before the run succeeds: no bundle, no directory
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["optimize", "--weights", "0.1,0.1,0.8"],
    ["frontier"],
], ids=["optimize", "frontier"])
def test_objectives_overflowing_at_the_first_scoring_are_one_line(
        command, tmp_path, capsys):
    # the power surface's 10 ** 307 is finite, but its objectives overflow
    # when the swarm is first scored: numpy's raise mode covers that phase
    # too, so one line names it, with no numpy warning before it
    config = write_config(tmp_path, weight_step=0.5, weight_minimum=0.0,
                          runs_per_weight=1,
                          problem={"power_scale_exp": 307})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*command, "--config", config, "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: NonFiniteResult: the first scoring left the floats: "
        "overflow encountered in multiply\n")
    assert not out.exists()


@pytest.mark.parametrize("fraction", [1e308, 1e306])
@pytest.mark.parametrize("command", [
    ["optimize", "--weights", "0.1,0.1,0.8"],
    ["frontier"],
], ids=["optimize", "frontier"])
def test_steps_that_overflow_are_one_line(command, fraction, tmp_path,
                                          capsys):
    # step_fraction times a box width overflows to an infinite step: at
    # 1e308 the run went on to the box's corner, at 1e306 it stopped in a
    # chemotaxis round after a numpy warning. The steps are rejected before
    # the run starts, in one line and with no numpy warning
    config = write_config(tmp_path, weight_step=0.5, weight_minimum=0.0,
                          runs_per_weight=1,
                          bfa=dict(tiny_bfa_dict(), step_fraction=fraction))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*command, "--config", config, "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(
        f"error: ValidationError: step_fraction {fraction!r} gives steps "
        f"that are not finite on the search box: ")
    assert not out.exists()


def test_unwritable_out_dir_exits_2(tmp_path, capsys):
    # --out below a file: the models directory cannot be made
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["fuzzify", "--out", str(blocker / "models")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: NotADirectoryError: ")


# a file with a byte that no UTF-8 text holds
NOT_UTF8 = b"\xff,\xfe\n"


def non_utf8_argv(entry, bundle, tmp_path):
    """The command line of `entry` with one of its input files not UTF-8.
    A report reads a copy of the bundle whose named file is not UTF-8."""
    bad = tmp_path / "bad"
    bad.write_bytes(NOT_UTF8)
    out = str(tmp_path / "out")
    command, name = entry.split()
    if command == "report":
        copy = tmp_path / "bundle"
        shutil.copytree(bundle, copy)
        (copy / name).write_bytes(NOT_UTF8)
        return ["report", str(copy)]
    if name == "--grade-context":
        return ["metrics", "--frontier", os.path.join(bundle, "frontier.csv"),
                "--grade-context", str(bad)]
    if command == "metrics":
        return ["metrics", "--frontier", str(bad)]
    weights = ["--weights", "0.1,0.1,0.8"] if command == "optimize" else []
    return [command, name, str(bad), "--out", out, *weights]


@pytest.mark.parametrize("entry", [
    "metrics --frontier", "metrics --grade-context", "report frontier.csv",
    "report metrics.json", "report config.json", "frontier --config",
    "optimize --config", "fuzzify --climate", "fuzzify --config"])
def test_non_utf8_input_is_one_line(entry, bundle, tmp_path, capsys):
    assert main(non_utf8_argv(entry, bundle, tmp_path)) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ValidationError: cannot read ")


def csv_input(command, bundle, tmp_path, edit):
    """The command line of `command` reading an edited copy of its CSV
    input: the bundle's frontier for metrics, the packaged table for
    fuzzify."""
    if command == "metrics":
        with open(os.path.join(bundle, "frontier.csv"),
                  encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = climate.serialize_climate_csv(climate.builtin_table())
    path = str(tmp_path / "input.csv")
    write_text(path, edit(text))
    if command == "metrics":
        return ["metrics", "--frontier", path]
    return ["fuzzify", "--climate", path, "--out", str(tmp_path / "m")]


@pytest.mark.parametrize("command", ["metrics", "fuzzify"])
def test_oversized_csv_field_is_one_line(command, bundle, tmp_path, capsys):
    # a field longer than csv.field_size_limit() is csv.reader's own
    # rejection: one SchemaMismatch line, not a traceback
    argv = csv_input(command, bundle, tmp_path,
                     lambda text: text.replace(",", "," + "0" * 140_000, 1))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0] == ("error: SchemaMismatch: CSV line 1: field larger "
                        "than field limit (131072)")


def test_lone_cr_line_ends_read_as_newlines(bundle, tmp_path, capsys):
    # files are read with universal newlines, so a CSV whose lines end in
    # a lone \r never reaches csv.reader's "new-line character" rejection
    assert main(["metrics", "--frontier",
                 os.path.join(bundle, "frontier.csv")]) == 0
    expected = capsys.readouterr().out
    argv = csv_input("metrics", bundle, tmp_path,
                     lambda text: text.replace("\n", "\r"))
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("argv", [
    ["frontier", "--minimum", "-inf"],
    ["frontier", "--step", "x"],
    ["fuzzyfy"],
    [],
], ids=["minimum_as_flag", "step_str", "unknown_command", "no_command"])
def test_rejected_command_line_is_one_line(argv, capsys):
    # argparse's rejections print as every rejected input does: one line,
    # exit 1, and no usage block
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ValidationError: ")


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["frontier", "--help"])
    assert exit_.value.code == 0
    assert "--step" in capsys.readouterr().out


def bundle_files(out):
    """Every file of a bundle directory, by its path inside it: bytes."""
    files = {}
    for root, _, names in os.walk(out):
        for name in names:
            path = os.path.join(root, name)
            files[os.path.relpath(path, out)] = open(path, "rb").read()
    return files


def run_frontier(document, *flags):
    """Exit code and bundle of a frontier run of this --config document,
    which names its out_dir; the bundle is read and removed, so the next
    run can write the same out_dir."""
    out = document["out_dir"]
    config = os.path.join(os.path.dirname(out), "settings.json")
    write_text(config, json.dumps(document))
    code = main(["frontier", "--config", config, *flags])
    files = bundle_files(out) if os.path.isdir(out) else None
    shutil.rmtree(out, ignore_errors=True)
    return code, files


def config_settings(cls, prefix=""):
    """The dotted path of every settable value of a config class; a nested
    config's values are its own settings."""
    hints = typing.get_type_hints(cls)
    paths = []
    for f in dataclasses.fields(cls):
        nested = [t for t in (hints[f.name], *typing.get_args(hints[f.name]))
                  if dataclasses.is_dataclass(t)]
        paths += (config_settings(nested[0], f"{prefix}{f.name}.") if nested
                  else [prefix + f.name])
    return paths


# the tiny frontier each setting is changed on: 15 weight vectors, one run
# each. A grade-context setting and the climate table are changed on it
# with an in-box temperature grade. The swarming signal acts on squared
# distances in raw variable units, so at its default depths and widths,
# against objectives of 1e4 to 1e8, it decides nothing in so short a run:
# its settings are changed on it with a signal of the objectives' scale
TINY_SWEEP = {"bfa": tiny_bfa_dict(), "weight_step": 0.25,
              "weight_minimum": 0.0, "runs_per_weight": 1}
GRADED = {"temperature_secondary": 0.05}
LIVE_SIGNAL = {"attract_depth": 1e5, "attract_width": 1e-4,
               "repel_height": 1e5, "repel_width": 1e-3}
BASES = {"crisp": TINY_SWEEP,
         "graded": {**TINY_SWEEP, "grade_context": GRADED},
         "signal": {**TINY_SWEEP, "bfa": {**tiny_bfa_dict(), **LIVE_SIGNAL}}}
WARMER_OCTOBER = ("10,309.1,", "10,310.1,")


def base_of(path):
    """The name of the tiny frontier a setting is changed on."""
    if path == "climate_csv" or path.startswith("grade_context."):
        return "graded"
    return "signal" if path.split(".")[-1] in LIVE_SIGNAL else "crisp"


# one changed value per setting of a run config; each must change the
# bytes of the bundle, config.json aside (it echoes every setting), or be
# rejected in one line
SETTING_CHANGES = {
    "climate_csv": WARMER_OCTOBER,
    "out_dir": "elsewhere",  # under the test's directory
    "weight_step": 0.5,
    "weight_minimum": 0.25,
    "runs_per_weight": 2,
    "workers": 2,
    "problem.design_bounds": [[0.5, 3.0], [450, 520], [520, 800],
                              [0.01, 0.2]],
    "problem.noise_bounds": [[295.0, 303.0], [800.0, 1000.0]],
    "problem.variable_mode": "raw",
    "problem.power_scale_exp": 3.0,
    "problem.savings_scale_exp": 3.0,
    "problem.fix_efficiency_intercept": False,
    "problem.fix_savings_flow_term": False,
    "problem.maximize": False,
    "bfa.population_size": 6,
    "bfa.chemotaxis_steps": 3,
    "bfa.swim_limit": 3,
    "bfa.reproduction_cycles": 2,
    "bfa.elimination_cycles": 2,
    "bfa.step_fraction": 0.1,
    "bfa.attract_depth": 2e5,
    "bfa.attract_width": 2e-4,
    "bfa.repel_height": 2e5,
    "bfa.repel_width": 2e-3,
    "bfa.elimination_prob": 1.0,
    "bfa.seed": 5,
    "grade_context.temperature_primary": 0.5,
    "grade_context.temperature_secondary": 0.06,
    "grade_context.insolation_primary": 0.5,
    "grade_context.insolation_secondary": 0.5,
    "grade_context.pad": 0.01,
}


def changed(document, path, value):
    """A copy of a --config document with the setting at `path` set."""
    document = json.loads(json.dumps(document))
    *sections, name = path.split(".")
    inner = document
    for section in sections:
        inner = inner.setdefault(section, {})
    inner[name] = value
    return document


class TestEverySettingIsRead:
    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        """The bundle of each tiny frontier of BASES, by its name."""
        root = tmp_path_factory.mktemp("base")
        bundles = {}
        for name, document in BASES.items():
            code, bundles[name] = run_frontier(
                {**document, "out_dir": str(root / name)})
            assert code == 0
        return bundles

    def test_every_setting_has_a_change(self):
        # a setting added to RunConfig, or to a config inside it, with no
        # case here fails this test
        assert config_settings(RunConfig) == list(SETTING_CHANGES)
        assert len(SETTING_CHANGES) == 31

    @pytest.mark.parametrize("path", SETTING_CHANGES)
    def test_a_changed_setting_changes_the_bundle(self, path, base,
                                                  tmp_path, capsys):
        value = SETTING_CHANGES[path]
        document = {**BASES[base_of(path)], "out_dir": str(tmp_path / "run")}
        if path == "climate_csv":
            text = climate.serialize_climate_csv(climate.builtin_table())
            assert text.count(value[0]) == 1
            write_text(str(tmp_path / "warmer.csv"), text.replace(*value))
            value = str(tmp_path / "warmer.csv")
        elif path == "out_dir":
            value = str(tmp_path / value)
        code, files = run_frontier(changed(document, path, value))
        err = capsys.readouterr().err
        if path == "grade_context.insolation_secondary":
            # no insolation grade lands inside the crisp noise box, so the
            # problem it gives is rejected: one line, and no bundle
            assert code == 1 and files is None
            assert err.startswith(
                "error: NoiseOutOfBox: Z_b (insolation) noise interval ")
            assert err.count("\n") == 1
            return
        assert code == 0 and err == ""
        # the echo holds the changed value
        echo = json.loads(files.pop("config.json"))
        for name in path.split("."):
            echo = echo[name]
        assert echo == value
        want = {name: data for name, data in base[base_of(path)].items()
                if name != "config.json"}
        if path in ("workers", "out_dir"):
            # the same bytes by design, from two processes or elsewhere
            assert files == want
        else:
            # summary.txt names some settings, so what ran must change: the
            # frontier, its metrics or its traces
            del files["summary.txt"], want["summary.txt"]
            assert files != want

    def test_config_seed_writes_the_bundle_the_seed_flag_writes(
            self, tmp_path, capsys):
        document = {**TINY_SWEEP, "out_dir": str(tmp_path / "run")}
        code, by_config = run_frontier(changed(document, "bfa.seed", 5))
        assert code == 0
        code, by_flag = run_frontier(document, "--seed", "5")
        assert code == 0
        capsys.readouterr()
        assert by_config == by_flag
        assert b"master seed 5\n" in by_config["summary.txt"]

    def test_optimize_derives_its_seed_from_the_config_seed(self, tmp_path,
                                                            capsys):
        weights = ss.WeightVector(0.1, 0.1, 0.8)
        config = write_config(tmp_path, bfa={**tiny_bfa_dict(), "seed": 5})
        out = str(tmp_path / "run")
        assert main(["optimize", "--config", config, "--out", out,
                     "--weights", "0.1,0.1,0.8"]) == 0
        seed = ss.derive_seed(5, weights, 0)
        assert f") seed {seed}\n" in capsys.readouterr().out
        solution = read_frontier_csv(os.path.join(out, "solution.csv"))
        assert solution.seeds == [seed]

    @pytest.mark.parametrize("command", ["fuzzify", "optimize", "frontier"])
    def test_missing_climate_table_is_one_line(self, command, tmp_path,
                                               capsys):
        # a given table is read even when no grade context needs it
        missing = str(tmp_path / "missing.csv")
        weights = ["--weights", "0.1,0.1,0.8"] if command == "optimize" \
            else []
        code = main([command, "--climate", missing,
                     "--out", str(tmp_path / "x"), *weights])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: ValidationError: cannot read {missing}: ")
        assert captured.err.count("\n") == 1
        assert not os.path.exists(tmp_path / "x")

    @pytest.mark.parametrize("flags, document, message", [
        (["--seed", "-1"], {"bfa": {"seed": -1}},
         "seed must be a nonnegative integer"),
        (["--runs", "0"], {"runs_per_weight": 0},
         "runs_per_weight must be >= 1"),
        (["--workers", "0"], {"workers": 0}, "workers must be >= 1"),
    ], ids=["seed", "runs", "workers"])
    def test_a_flag_is_checked_as_its_config_value(self, flags, document,
                                                   message, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(document))
        out = str(tmp_path / "x")
        errors = []
        for argv in (flags, ["--config", str(config)]):
            assert main(["frontier", "--out", out, *argv]) == 1
            errors.append(capsys.readouterr().err)
        assert errors == [f"error: ValidationError: {message}\n"] * 2
        assert not os.path.exists(out)
