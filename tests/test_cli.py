import json
import os
import shutil

import pytest

import solarswarm as ss
from solarswarm import climate, fuzzy
from solarswarm.cli import RunConfig, main
from solarswarm.codec import write_text
from solarswarm.errors import ValidationError
from solarswarm.pareto import metrics_json_text, read_frontier_csv


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
        {"bfa": {"swarming": "no"}},
        {"climate_csv": 5},
    ], ids=["seed_str", "pad_str", "bounds_int", "list", "null_problem",
            "null_bfa", "weight_step_str", "swarming_str", "climate_csv_int"])
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

    def test_grade_context_reshapes_noise_bounds(self, tmp_path):
        context = {"temperature_secondary": 0.17169,
                   "insolation_secondary": [0.02907, 0.92274]}
        config = write_config(tmp_path, weight_step=0.5, weight_minimum=0.0,
                              runs_per_weight=1, grade_context=context)
        out = str(tmp_path / "run")
        assert main(["frontier", "--config", config, "--out", out]) == 0
        echo = json.load(open(os.path.join(out, "config.json")))
        (t_lo, t_hi), (i_lo, i_hi) = echo["problem"]["noise_bounds"]
        # point grade padded by 0.005 of the 43.9-wide temperature domain
        assert t_lo == pytest.approx(292.15130669440146 - 0.005 * 43.9)
        assert t_hi == pytest.approx(292.15130669440146 + 0.005 * 43.9)
        assert i_lo == pytest.approx(117.18603187090537)
        assert i_hi == pytest.approx(256.78623863640325)
        assert echo["grade_context"]["temperature_secondary"] == 0.17169

    def test_config_echo_holds_the_seed_that_ran(self, tmp_path, capsys):
        # the --config bfa.seed never runs: the master seed does
        config = write_config(tmp_path, weight_step=0.5, weight_minimum=0.0,
                              runs_per_weight=1)
        out = str(tmp_path / "run")
        assert main(["frontier", "--config", config, "--out", out,
                     "--seed", "5"]) == 0
        echo = json.load(open(os.path.join(out, "config.json")))
        assert echo["master_seed"] == 5
        assert echo["bfa"]["seed"] == 5

    @pytest.mark.parametrize("document, message", [
        ({"weight_step": "x"}, "weight_step must be float, got str"),
        ({"bfa": {"swarming": "no"}}, "swarming must be bool, got str"),
        ({"climate_csv": 5}, "climate_csv must be str | None, got int"),
    ], ids=["weight_step_str", "swarming_str", "climate_csv_int"])
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
        context = tmp_path / "context.json"
        context.write_text(json.dumps({"temperature_secondary": 0.17169}))
        assert main(["metrics", "--frontier",
                     os.path.join(bundle, "frontier.csv"),
                     "--grade-context", str(context)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["grade_context"]["temperature_secondary"] == 0.17169

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
                              runs_per_weight=1, master_seed=1)
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

    def test_grid_note_fits_the_grid(self, bundle, capsys):
        assert main(["report", bundle]) == 0
        stdout = capsys.readouterr().out
        assert "- complete simplex weight grid kept: 6 vectors\n" in stdout
        assert "35-vector" not in stdout
        summary = open(os.path.join(bundle, "summary.txt")).read()
        assert "- complete simplex weight grid kept: 6 vectors\n" in summary
        assert "35-vector" not in summary

    def test_incomplete_bundle_is_rejected(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", str(empty)]) == 1
        assert "IncompleteBundle" in capsys.readouterr().err


class TestWriteText:
    @pytest.mark.parametrize("newline", [None, ""])
    def test_shorter_text_replaces_a_longer_file(self, newline, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old,contents\r\n" * 300)
        write_text(str(path), "a,b\n\u00e9,2\n", newline=newline)
        assert path.read_bytes() == "a,b\n\u00e9,2\n".encode("utf-8")
        write_text(str(path), "")
        assert path.read_bytes() == b""

    def test_creates_a_missing_file(self, tmp_path):
        path = tmp_path / "new.json"
        write_text(str(path), "{}\n")
        assert path.read_bytes() == b"{}\n"


class TestRunConfig:
    def test_dict_roundtrip(self):
        config = RunConfig(weight_step=0.5, master_seed=3,
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
            RunConfig(master_seed=-1)
        with pytest.raises(ValidationError):
            RunConfig.from_dict({"wrong": 1})

    def test_scalar_types_follow_annotations(self):
        # an int fills a float field, a list a tuple field, null only a
        # field that admits None, and a bool only a bool field
        config = RunConfig.from_dict({
            "weight_step": 1, "climate_csv": None,
            "bfa": {"swarming": False},
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
        for bad in ({"weight_step": "x"}, {"bfa": {"swarming": "no"}},
                    {"grade_context": {"pad": None}}):
            messages = []
            for _ in range(2):
                with pytest.raises(ValidationError) as err:
                    RunConfig.from_dict(bad)
                messages.append(str(err.value))
            assert messages[0] == messages[1]
        assert messages[0] == "bad grade_context: pad must be float, got null"


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
