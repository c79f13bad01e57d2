import dataclasses
import json
import multiprocessing
import os
import shutil
import typing
import warnings

import pytest

import solarswarm as ss
from solarswarm import climate, fuzzy, pareto
from solarswarm.cli import RunConfig, main
from solarswarm.codec import write_text
from solarswarm.errors import ValidationError
from solarswarm.pareto import FRONTIER_CSV_HEADER, read_frontier_csv


def tiny_bfa_dict():
    return ss.BfaConfig(population_size=4, chemotaxis_steps=2, swim_limit=2,
                        reproduction_cycles=1, elimination_cycles=1).to_dict()


def tiny_config(**overrides):
    """A --config document with the tiny optimizer and these settings."""
    return {"bfa": tiny_bfa_dict(), **overrides}


def write_config(directory, **overrides):
    path = os.path.join(str(directory), "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tiny_config(**overrides), fh)
    return path


# the six-vector weight grid, one run each
SIX_WEIGHTS = {"weight_step": 0.5, "weight_minimum": 0.0, "runs_per_weight": 1}
# an in-box grade context: its noise box lies in the crisp one
GRADED = {"temperature_secondary": 0.05}

# grade contexts that break the grade rule, with the message each gets: a
# grade is a number in [0, 1], a range two grades with lo <= hi
BAD_GRADE_CONTEXTS = [
    ("grade_str", {"temperature_secondary": ["0.1", "0.9"]},
     "temperature_secondary grade must be a number in [0, 1], got '0.1'"),
    ("grade_bool", {"temperature_secondary": [True, 0.5]},
     "temperature_secondary grade must be a number in [0, 1], got True"),
    ("grade_negative", {"temperature_primary": -3},
     "temperature_primary grade must be a number in [0, 1], got -3"),
    ("grade_above_one", {"insolation_primary": 7.5},
     "insolation_primary grade must be a number in [0, 1], got 7.5"),
    ("grade_range_reversed", {"insolation_secondary": [0.8, 0.2]},
     "insolation_secondary grade range out of order: (0.8, 0.2)"),
]

# a noise box reaching below the crisp one, and the one line it gets from
# every command that builds the problem
OUT_OF_BOX_NOISE = [[250, 303], [100, 1000]]
OUT_OF_BOX_ERROR = (
    "error: NoiseOutOfBox: Z_a (temperature) noise interval [250.0, 303.0] "
    "lies outside the box [293.0, 303.0] the response surfaces are coded "
    "against")
# no insolation grade lands inside the crisp noise box
INSOLATION_OUT_OF_BOX = ("error: NoiseOutOfBox: Z_b (insolation) noise "
                         "interval ")

CLIMATE_CSV = climate.serialize_climate_csv(climate.builtin_table())
# a file with a byte that no UTF-8 text holds, and what reading it says
NOT_UTF8 = b"\xff,\xfe\n"
NOT_UTF8_ERROR = ("'utf-8' codec can't decode byte 0xff in position 0: "
                  "invalid start byte")


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """A tiny but real frontier bundle, shared by the read-only tests."""
    root = tmp_path_factory.mktemp("bundle")
    config = write_config(root, **SIX_WEIGHTS)
    out = str(root / "run")
    assert main(["frontier", "--config", config, "--out", out]) == 0
    return out


@dataclasses.dataclass
class Rejection:
    """A command line the CLI rejects, and the one stderr line it prints.

    The argv and the line name files by placeholder: {tmp} is the row's
    own directory, {out} an output path that must not exist afterwards,
    {config} the file `document` is written to (a str as it is, anything
    else as JSON), and {bundle} the shared tiny bundle. `prepare(paths,
    request)` makes any other input first. The row belongs to the test
    `test`, as its case `id`; rows with one id run in turn in one case."""

    test: str | None
    id: str | None
    argv: list
    code: int
    line: str
    prefix: bool = False  # the line is the stderr line's start
    document: object = None
    prepare: object = None


def check(row, tmp, bundle, capsys, request):
    """Run one row and hold it to every promise of a rejection: its exit
    code, nothing on stdout, its one stderr line, no warning (numpy's
    included), no {out} and no child process left running."""
    tmp.mkdir()
    paths = {"tmp": str(tmp), "out": str(tmp / "out"),
             "config": str(tmp / "config.json"), "bundle": bundle}
    if row.document is not None:
        write_file(paths["config"], row.document
                   if isinstance(row.document, str)
                   else json.dumps(row.document))
    if row.prepare:
        row.prepare(paths, request)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([arg.format(**paths) for arg in row.argv])
    out, err = capsys.readouterr()
    line = row.line.format(**paths)
    assert (code, out) == (row.code, "")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert err.startswith(line) if row.prefix else err == line + "\n"
    assert not os.path.exists(paths["out"])
    assert multiprocessing.active_children() == []


def rejection_test(test):
    """The test named `test` in REJECTIONS: one case per row id."""
    cases = {}
    for row in REJECTIONS:
        if row.test == test:
            cases.setdefault(row.id, []).append(row)

    def run(rows, tmp_path, bundle, capsys, request):
        for index, row in enumerate(rows):
            check(row, tmp_path / str(index), bundle, capsys, request)

    if list(cases) == [None]:
        def test_rows(tmp_path, bundle, capsys, request):
            run(cases[None], tmp_path, bundle, capsys, request)
        return test_rows

    @pytest.mark.parametrize("rows", list(cases.values()), ids=list(cases))
    def test_rows(rows, tmp_path, bundle, capsys, request):
        run(rows, tmp_path, bundle, capsys, request)
    return test_rows


def write_file(path, data):
    with open(path, "wb") as fh:
        fh.write(data if isinstance(data, bytes) else data.encode("utf-8"))


def writes(name, data):
    """A step that writes data, text or bytes, to {tmp}/name."""
    return lambda paths, request: write_file(
        os.path.join(paths["tmp"], name), data)


def bundle_copy(name, edit):
    """A step that copies the shared bundle to {tmp}/bundle and rewrites
    its file `name` with `edit`: text or bytes, or a function of the old
    text that gives them."""
    def prepare(paths, request):
        path = os.path.join(
            shutil.copytree(paths["bundle"],
                            os.path.join(paths["tmp"], "bundle")), name)
        data = edit
        if callable(edit):
            with open(path, encoding="utf-8") as fh:
                data = edit(fh.read())
        write_file(path, data)
    return prepare


def updated(change):
    """An edit of a JSON object's text that sets the keys of `change`."""
    return lambda text: json.dumps({**json.loads(text), **change})


def out_of_box_echo(text):
    document = json.loads(text)
    document["problem"]["noise_bounds"] = OUT_OF_BOX_NOISE
    return json.dumps(document)


def oversized(text):
    """The text with a field longer than csv.field_size_limit()."""
    return text.replace(",", "," + "0" * 140_000, 1)


def empty_bundle(paths, request):
    os.mkdir(os.path.join(paths["tmp"], "empty"))


def child_share_overflows(paths, request):
    # the caller steps its own share on the default problem, so only a
    # child's share meets the config's overflowing one
    run_batch = pareto._run_batch
    request.getfixturevalue("child_batch")(
        run_batch, lambda problem, *rest: run_batch(ss.ProblemSpec(), *rest))


def child_dies_unsent(paths, request):
    # a child that exits (killed, out of memory, os._exit) before it sends
    request.getfixturevalue("child_batch")(lambda *args: os._exit(3))


# the command line of a case id, before its files
BY_COMMAND = {"fuzzify": ["fuzzify"],
              "optimize": ["optimize", "--weights", "0.1,0.1,0.8"],
              "frontier": ["frontier"],
              "frontier_w2": ["frontier", "--workers", "2"]}


def configured(command):
    """The command line of a case id that reads {config} and writes {out}."""
    return [*BY_COMMAND[command], "--config", "{config}", "--out", "{out}"]


FRONTIER, OPTIMIZE = configured("frontier"), configured("optimize")
METRICS = ["metrics", "--frontier", "{bundle}/frontier.csv"]
FIRST_SCORING = ("error: NonFiniteResult: the first scoring left the floats: "
                 "overflow encountered in multiply")


# The CLI's rejection contract: every command line the CLI rejects, with
# its exit code (1 for an input it rejects, 2 for a computation that
# fails) and the one line it prints. check() holds every row to every
# promise; each test named here is bound at the end of this module.
REJECTIONS = [
    # fuzzify
    Rejection("TestFuzzify::test_failed_model_writes_nothing", None,
              ["fuzzify", "--climate", "{tmp}/input.csv", "--out", "{out}"],
              1, "error: DegenerateRange: insolation month 1: need b_lo < "
              "b_hi, got [100.0, 100.0]",
              # January's insolation has no width: the second model fails
              prepare=writes("input.csv", CLIMATE_CSV.replace(
                  "146,43,104.71", "100,100,100"))),
    Rejection("TestFuzzify::test_unreadable_climate_is_a_usage_error", None,
              ["fuzzify", "--climate", "{tmp}/missing.csv", "--out", "{out}"],
              1, "error: ValidationError: cannot read {tmp}/missing.csv: ",
              prefix=True),
    Rejection("test_unwritable_out_dir_exits_2", None,
              ["fuzzify", "--out", "{tmp}/file/models"], 2,
              "error: NotADirectoryError: [Errno 20] Not a directory: "
              "'{tmp}/file/models'",
              # --out below a file: the models directory cannot be made
              prepare=writes("file", "")),
    # a given table is read even when no grade context needs it
    *[Rejection("TestEverySettingIsRead::test_missing_climate_table_is_"
                "one_line", command,
                [*BY_COMMAND[command], "--climate", "{tmp}/missing.csv",
                 "--out", "{out}"], 1,
                "error: ValidationError: cannot read {tmp}/missing.csv: ",
                prefix=True)
      for command in ["fuzzify", "optimize", "frontier"]],

    # optimize
    *[Rejection("TestOptimize::test_weight_validation_failures", None,
                ["optimize", "--config", "{config}", "--out", "{out}",
                 *weights], 1, f"error: ValidationError: {message}",
                document=tiny_config())
      for weights, message in [
          (["--weights", "0.5,0.6,0.2"], "weights must sum to 1, got 1.3"),
          (["--weights", "0.5,0.5"],
           "--weights needs three comma-separated values, got '0.5,0.5'"),
          (["--weights", "a,b,c"],
           "--weights values must be numbers: 'a,b,c'"),
          ([], "--weights is required (e.g. 0.1,0.1,0.8)")]],
    Rejection("TestOptimize::test_unknown_config_key_rejected", None,
              OPTIMIZE, 1,
              "error: ValidationError: unknown config keys: ['swarm_size']",
              document=tiny_config(swarm_size=10)),
    *[Rejection("TestOptimize::test_malformed_config_is_one_line", id,
                OPTIMIZE, 1, f"error: ValidationError: {message}",
                document=document)
      for id, document, message in [
          ("seed_str", {"bfa": {"seed": "x"}},
           "bad bfa: seed must be int, got str"),
          ("pad_str", {"grade_context": {"pad": "a"}},
           "bad grade_context: pad must be float, got str"),
          ("bounds_int", {"problem": {"design_bounds": 5}},
           "bad problem: design_bounds must be tuple[tuple[float, float], "
           "...], got int"),
          ("list", [1, 2], "config must be a JSON object, got list"),
          ("null_problem", {"problem": None},
           "problem must be a JSON object, got null"),
          ("null_bfa", {"bfa": None}, "bfa must be a JSON object, got null"),
          ("weight_step_str", {"weight_step": "x"},
           "bad config: weight_step must be float, got str"),
          ("maximize_str", {"problem": {"maximize": "no"}},
           "bad problem: maximize must be bool, got str"),
          ("climate_csv_int", {"climate_csv": 5},
           "bad config: climate_csv must be str | None, got int")]],
    # a setting that is given must be read, and the self-test reads only
    # --seed: the flags are named before the config (with an unknown key)
    # or the missing table is looked at, and nothing runs
    *[Rejection("TestOptimize::test_self_test_rejects_run_settings", id,
                ["optimize", "--self-test", *flags], 1,
                "error: ValidationError: --self-test reads no run settings, "
                f"got {named}", document={"nonsense": 1})
      for id, flags, named in [
          ("weights", ["--weights", "1,2"], "--weights"),
          ("climate_with_seed", ["--climate", "{tmp}/no.csv", "--seed", "3"],
           "--climate"),
          ("out", ["--out", "{out}"], "--out"),
          ("all", ["--config", "{config}", "--climate", "{tmp}/no.csv",
                   "--weights", "1,2", "--out", "{out}"],
           "--config, --climate, --weights, --out")]],
    # step_fraction times a box width overflows to an infinite step: at
    # 1e308 the run went on to the box's corner, at 1e306 it stopped in a
    # chemotaxis round after a numpy warning. The steps are rejected
    # before the run starts
    *[Rejection("test_steps_that_overflow_are_one_line",
                f"{command}-{fraction!r}",
                configured(command), 1,
                f"error: ValidationError: step_fraction {fraction!r} gives "
                "steps that are not finite on the search box: ", prefix=True,
                document=tiny_config(**SIX_WEIGHTS, bfa=dict(
                    tiny_bfa_dict(), step_fraction=fraction)))
      for command in ["optimize", "frontier"] for fraction in [1e308, 1e306]],

    # frontier: the command line and the config
    *[Rejection("TestFrontier::test_out_of_range_minimum_flag_is_one_line",
                f"{value}-{error}",
                ["frontier", f"--minimum={value}", "--out", "{out}"], 1,
                f"error: {error}")
      for value, error in [
          ("nan", "ValidationError: minimum nan must be finite and >= 0"),
          ("inf", "ValidationError: minimum inf must be finite and >= 0"),
          ("-inf", "ValidationError: minimum -inf must be finite and >= 0"),
          ("1e308", "EmptyGrid: no weight vector has all components >= "
                    "1e+308 on a grid of step 0.1")]],
    # 1e-300 divides 1 within rounding, but its grid would never end
    Rejection("TestFrontier::test_oversized_grid_is_one_line", None,
              ["frontier", "--step", "1e-300", "--out", "{out}"], 1,
              "error: ValidationError: a grid of step 1e-300 and minimum "
              "0.1 holds more than 1000000 weight vectors"),
    *[Rejection("TestEverySettingIsRead::test_a_flag_is_checked_as_its_"
                "config_value", id, ["frontier", "--out", "{out}", *argv], 1,
                f"error: ValidationError: {message}", document=document)
      for id, flags, document, message in [
          ("seed", ["--seed", "-1"], {"bfa": {"seed": -1}},
           "seed must be a nonnegative integer"),
          ("runs", ["--runs", "0"], {"runs_per_weight": 0},
           "runs_per_weight must be >= 1"),
          ("workers", ["--workers", "0"], {"workers": 0},
           "workers must be >= 1")]
      for argv in [flags, ["--config", "{config}"]]],
    # json.dumps writes these spellings; a package file never holds them
    *[Rejection("TestFrontier::test_non_finite_config_number_is_one_line",
                f"{command}-{document}-{literal}",
                FRONTIER if command == "frontier" else OPTIMIZE, 1,
                "error: ValidationError: {config} is not valid JSON: "
                f"non-finite number {literal}", document=document)
      for command, document, literal in [
          ("frontier", '{"weight_minimum": NaN}', "NaN"),
          ("frontier", '{"weight_minimum": Infinity}', "Infinity"),
          ("frontier", '{"weight_step": 1e999}', "1e999"),
          ("optimize", '{"bfa": {"attract_depth": NaN}}', "NaN"),
          ("optimize", '{"bfa": {"repel_width": -Infinity}}', "-Infinity"),
          ("optimize", '{"bfa": {"attract_width": -1E400}}', "-1E400")]],
    *[Rejection("TestFrontier::test_mistyped_config_is_one_line", id,
                FRONTIER, 1, f"error: ValidationError: {message}",
                document=document)
      for id, document, message in [
          ("weight_step_str", {"weight_step": "x"},
           "bad config: weight_step must be float, got str"),
          ("maximize_str", {"problem": {"maximize": "no"}},
           "bad problem: maximize must be bool, got str"),
          ("climate_csv_int", {"climate_csv": 5},
           "bad config: climate_csv must be str | None, got int"),
          # removed settings: elimination_cycles, zero depths and bfa.seed
          # replace them
          ("total_passes_removed", {"bfa": {"total_passes": 1}},
           "unknown bfa keys: ['total_passes']"),
          ("swarming_removed", {"bfa": {"swarming": True}},
           "unknown bfa keys: ['swarming']"),
          ("master_seed_removed", {"master_seed": 3},
           "unknown config keys: ['master_seed']"),
          # a bound takes a JSON number, as every float setting does
          ("bound_str", {"problem": {"design_bounds": [
              ["0.3", "3.0"], [450, 520], [520, 800], [0.01, 0.2]]}},
           "design_bounds needs 4 (lo, hi) pairs"),
          ("bound_bool", {"problem": {"noise_bounds": [[True, 303],
                                                       [800, 1000]]}},
           "noise_bounds needs 2 (lo, hi) pairs"),
          # a grade context is checked when it is built, primaries too
          *[(id, {"grade_context": context}, message)
            for id, context, message in BAD_GRADE_CONTEXTS]]],
    # a config's noise box meets the rule a grade context's meets, in
    # either variable mode: nothing runs and nothing is written
    *[Rejection("TestFrontier::test_out_of_box_noise_bounds_are_one_line",
                f"{mode}-{command}",
                [*command.split(), "--config", "{config}", "--out", "{out}"],
                1, OUT_OF_BOX_ERROR,
                document=tiny_config(**SIX_WEIGHTS, problem={
                    "noise_bounds": OUT_OF_BOX_NOISE, "variable_mode": mode}))
      for mode in ["coded", "raw"]
      for command in ["frontier", "optimize --weights 0.5,0.25,0.25"]],
    Rejection("TestFrontier::test_out_of_box_noise_bounds_are_one_line",
              "insolation_grade-frontier", FRONTIER, 1, INSOLATION_OUT_OF_BOX,
              prefix=True, document=tiny_config(**SIX_WEIGHTS, grade_context={
                  "insolation_secondary": [0.02907, 0.92274]})),

    # frontier and optimize: computations that fail
    # the power surface's 10 ** 400 is inf, with the runs split between
    # the caller and a child too
    *[Rejection("test_non_finite_objectives_exit_2", command,
                configured(command), 2,
                "error: NonFiniteResult: objectives not finite at position ",
                prefix=True,
                document=tiny_config(**SIX_WEIGHTS,
                                     problem={"power_scale_exp": 400}))
      for command in ["optimize", "frontier", "frontier_w2"]],
    # the power surface's 10 ** 307 is finite, but its objectives overflow
    # when the swarm is first scored: numpy's raise mode covers that phase
    *[Rejection("test_objectives_overflowing_at_the_first_scoring_are_one_"
                "line", command,
                configured(command), 2, FIRST_SCORING,
                document=tiny_config(**SIX_WEIGHTS,
                                     problem={"power_scale_exp": 307}))
      for command in ["optimize", "frontier"]],
    # in a child's share they stop a split sweep with the serial line
    *[Rejection("test_a_child_share_error_is_the_serial_line", None,
                argv, 2, FIRST_SCORING, document=tiny_config(
                    **SIX_WEIGHTS, problem={"power_scale_exp": 307}),
                prepare=prepare)
      for argv, prepare in [
          (FRONTIER, None),
          (configured("frontier_w2"), child_share_overflows)]],
    Rejection("test_a_child_that_dies_unsent_is_one_line", None,
              configured("frontier_w2"), 2,
              "error: ComputationError: the process stepping runs 4-6 of 6 "
              "exited with code 3 before sending their results",
              document=tiny_config(**SIX_WEIGHTS), prepare=child_dies_unsent),
    # every objective of the 66-point frontier is finite, but the sum of
    # its F is not
    Rejection("TestFrontier::test_overflowing_mean_f_exits_2", None,
              FRONTIER, 2, "error: NonFiniteResult: the mean F overflows: "
              "its sum over the frontier exceeds the floats",
              document=tiny_config(weight_step=0.1, weight_minimum=0.0,
                                   runs_per_weight=1,
                                   problem={"power_scale_exp": 305.6})),
    # the default BfaConfig sums each fitness near 1e307 over a cycle's
    # moves, which leaves the floats
    *[Rejection("TestFrontier::test_overflowing_health_sums_exit_2", id,
                FRONTIER, 2, "error: NonFiniteResult: ", prefix=True,
                document={"bfa": {}, **grid,
                          "problem": {"power_scale_exp": 305.6}})
      for id, grid in [("six_weights", SIX_WEIGHTS), ("default_grid", {})]],

    # metrics
    Rejection("TestMetrics::test_usage_errors", None, ["metrics"], 1,
              "error: ValidationError: --frontier is required (path to "
              "frontier CSV)"),
    Rejection("TestMetrics::test_usage_errors", None,
              ["metrics", "--frontier", "{tmp}/bad.csv"], 1,
              "error: SchemaMismatch: bad frontier header ('a', 'b', 'c'); "
              f"expected {tuple(FRONTIER_CSV_HEADER)}",
              prepare=writes("bad.csv", "a,b,c\n1,2,3\n")),
    Rejection("TestMetrics::test_usage_errors", None,
              ["metrics", "--frontier", "{tmp}/missing.csv"], 1,
              "error: ValidationError: cannot read {tmp}/missing.csv: ",
              prefix=True),
    # an insolation grade lands outside the fitted noise box, so no sweep
    # can run the context: metrics rejects it as frontier does
    Rejection("TestMetrics::test_out_of_box_grade_context_is_one_line", None,
              [*METRICS, "--grade-context", "{config}"], 1,
              INSOLATION_OUT_OF_BOX, prefix=True,
              document={"insolation_secondary": [0.02907, 0.92274]}),
    *[Rejection("TestMetrics::test_bad_grade_context_is_one_line", id,
                [*METRICS, "--grade-context", "{config}"], 1,
                f"error: ValidationError: {message}", document=context)
      for id, context, message in BAD_GRADE_CONTEXTS],
    # a schema-valid frontier whose f1 spread, 2e308, is not a float: its
    # diversity would be nan, which no JSON number holds
    Rejection("TestMetrics::test_overflowing_spread_exits_2", None,
              ["metrics", "--frontier", "{tmp}/frontier.csv", "--out",
               "{out}"], 2,
              "error: NonFiniteResult: diversity is nan: an objective's "
              "spread over the frontier is not a finite number",
              prepare=writes("frontier.csv", "".join(
                  ",".join(map(str, row)) + "\n" for row in [
                      FRONTIER_CSV_HEADER,
                      *[(1.0, 0.0, 0.0, 1.0, 500.0, 600.0, 0.1, 298.0,
                         900.0, f1, 1.0, 1.0, f1, 0)
                        for f1 in (1e308, -1e308)]]))),
    # a field longer than csv.field_size_limit() is csv.reader's own
    # rejection, not a traceback
    *[Rejection("test_oversized_csv_field_is_one_line", command, argv, 1,
                "error: SchemaMismatch: CSV line 1: field larger than field "
                "limit (131072)", prepare=prepare)
      for command, argv, prepare in [
          ("metrics", ["metrics", "--frontier", "{tmp}/bundle/frontier.csv"],
           bundle_copy("frontier.csv", oversized)),
          ("fuzzify", ["fuzzify", "--climate", "{tmp}/input.csv",
                       "--out", "{out}"],
           writes("input.csv", oversized(CLIMATE_CSV)))]],

    # report
    Rejection("TestReport::test_incomplete_bundle_is_rejected", None,
              ["report", "{tmp}/empty"], 1,
              "error: IncompleteBundle: bundle {tmp}/empty is missing "
              "{tmp}/empty/frontier.csv, {tmp}/empty/metrics.json",
              prepare=empty_bundle),
    *[Rejection("TestReport::test_malformed_bundle_config_is_one_line", id,
                ["report", "{tmp}/bundle"], 1,
                f"error: ValidationError: {message}",
                prepare=bundle_copy("config.json", json.dumps(document)))
      for id, document, message in [
          ("list", [1, 2], "config must be a JSON object, got list"),
          ("null_problem", {"problem": None},
           "problem must be a JSON object, got null"),
          ("maximize_str", {"problem": {"maximize": "no"}},
           "bad problem: maximize must be bool, got str")]],
    # report decodes the bundle's problem, which meets the noise rule
    Rejection("TestReport::test_out_of_box_bundle_config_is_one_line", None,
              ["report", "{tmp}/bundle"], 1, OUT_OF_BOX_ERROR,
              prepare=bundle_copy("config.json", out_of_box_echo)),
    *[Rejection("TestReport::test_malformed_metrics_is_one_line",
                f"{alone}-{id}", argv, 1,
                "error: SchemaMismatch: bundle {tmp}/bundle: metrics.json "
                f"{message}", prepare=bundle_copy(
                    "metrics.json", updated(change)
                    if isinstance(change, dict) else json.dumps(change)))
      for alone, argv in [("single", ["report", "{tmp}/bundle"]),
                          ("multi", ["report", "{bundle}", "{tmp}/bundle"])]
      for id, change, message in [
          ("dominance_str", {"dominance_mean_F": "1.5"},
           "dominance_mean_F must be float, got str"),
          ("dominance_null", {"dominance_mean_F": None},
           "dominance_mean_F must be float, got null"),
          ("diversity_list", {"diversity": [1.0]},
           "diversity must be float, got list"),
          ("n_points_bool", {"n_points": True},
           "n_points must be int, got bool"),
          ("n_points_float", {"n_points": 6.0},
           "n_points must be int, got float"),
          ("key_list", ["dominance_mean_F", "diversity", "n_points"],
           "must be a JSON object, got list")]],

    # every command: input files that are not UTF-8, and command lines
    # that argparse rejects (one line, with no usage block)
    *[Rejection("test_non_utf8_input_is_one_line", id, argv, 1,
                f"error: ValidationError: cannot read {path}: "
                f"{NOT_UTF8_ERROR}", prepare=prepare)
      for id, argv, path, prepare in [
          ("metrics --frontier", ["metrics", "--frontier", "{tmp}/bad"],
           "{tmp}/bad", writes("bad", NOT_UTF8)),
          ("metrics --grade-context",
           [*METRICS, "--grade-context", "{tmp}/bad"], "{tmp}/bad",
           writes("bad", NOT_UTF8)),
          *[(f"report {name}", ["report", "{tmp}/bundle"],
             f"{{tmp}}/bundle/{name}", bundle_copy(name, NOT_UTF8))
            for name in ["frontier.csv", "metrics.json", "config.json"]],
          *[(f"{command} {flag}",
             [*BY_COMMAND[command], flag, "{tmp}/bad", "--out", "{out}"],
             "{tmp}/bad", writes("bad", NOT_UTF8))
            for command, flag in [("frontier", "--config"),
                                  ("optimize", "--config"),
                                  ("fuzzify", "--climate"),
                                  ("fuzzify", "--config")]]]],
    *[Rejection("test_rejected_command_line_is_one_line", id, argv, 1,
                f"error: ValidationError: {message}", prefix=prefix)
      for id, argv, message, prefix in [
          ("minimum_as_flag", ["frontier", "--minimum", "-inf"],
           "argument --minimum: expected one argument", False),
          ("step_str", ["frontier", "--step", "x"],
           "argument --step: invalid float value: 'x'", False),
          # Python releases differ in how they quote the choices
          ("unknown_command", ["fuzzyfy"],
           "argument command: invalid choice: ", True),
          ("no_command", [], "the following arguments are required: command",
           False)]],
]


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
        csv_path.write_text(CLIMATE_CSV)
        out = str(tmp_path / "models")
        assert main(["fuzzify", "--climate", str(csv_path),
                     "--out", out]) == 0
        assert os.path.isfile(os.path.join(out, "temperature_model.json"))


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

    def test_grade_context_reshapes_noise_bounds(self, tmp_path, capsys):
        config = write_config(tmp_path, **SIX_WEIGHTS, grade_context=GRADED)
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
        # report reads the context back from the bundle's metrics, every
        # grade field echoed
        capsys.readouterr()
        assert main(["report", out]) == 0
        assert ('grade context: {"insolation_primary": null, '
                '"insolation_secondary": null, "pad": 0.005, '
                '"temperature_primary": null, "temperature_secondary": 0.05}'
                '\n') in capsys.readouterr().out

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

    @pytest.mark.parametrize("context, workers", [
        (None, 1), (GRADED, 1), (None, 2), (None, 8)],
        ids=["crisp", "graded", "crisp_workers_2", "crisp_workers_8"])
    def test_bundle_config_reruns_the_bundle(self, context, workers,
                                             tmp_path, capsys):
        # a bundle's config.json is a valid --config, and it runs the
        # bundle again, on one process or split over several (the caller
        # and a child for each other run, at most): every file the same,
        # and the echo the same but for out_dir and workers
        config = write_config(tmp_path, **SIX_WEIGHTS,
                              bfa={**tiny_bfa_dict(), "seed": 3},
                              grade_context=context)
        first, second = str(tmp_path / "first"), str(tmp_path / "second")
        assert main(["frontier", "--config", config, "--out", first]) == 0
        echo = os.path.join(first, "config.json")
        assert main(["frontier", "--config", echo, "--out", second,
                     "--workers", str(workers)]) == 0
        capsys.readouterr()
        assert multiprocessing.active_children() == []
        want, files = bundle_files(first), bundle_files(second)
        assert len(os.listdir(os.path.join(first, "traces"))) == 6
        echoed = json.loads(files.pop("config.json"))
        assert files == {name: data for name, data in want.items()
                         if name != "config.json"}
        want = json.loads(want["config.json"])
        assert echoed == {**want, "out_dir": second, "workers": workers}


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

    def test_grid_note_fits_the_grid(self, bundle, capsys):
        assert main(["report", bundle]) == 0
        stdout = capsys.readouterr().out
        assert "- complete simplex weight grid kept: 6 vectors\n" in stdout
        assert "35-vector" not in stdout
        summary = open(os.path.join(bundle, "summary.txt")).read()
        assert "- complete simplex weight grid kept: 6 vectors\n" in summary
        assert "35-vector" not in summary


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


def test_lone_cr_line_ends_read_as_newlines(bundle, tmp_path, capsys):
    # files are read with universal newlines, so a CSV whose lines end in
    # a lone \r never reaches csv.reader's "new-line character" rejection
    assert main(["metrics", "--frontier",
                 os.path.join(bundle, "frontier.csv")]) == 0
    expected = capsys.readouterr().out
    with open(os.path.join(bundle, "frontier.csv"), encoding="utf-8") as fh:
        write_text(str(tmp_path / "input.csv"), fh.read().replace("\n", "\r"))
    assert main(["metrics", "--frontier", str(tmp_path / "input.csv")]) == 0
    assert capsys.readouterr().out == expected


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
                                                  tmp_path, capsys, bundle,
                                                  request):
        value = SETTING_CHANGES[path]
        if path == "grade_context.insolation_secondary":
            # no insolation grade lands inside the crisp noise box, so the
            # problem it gives is rejected: one line, and no bundle
            document = changed(BASES["graded"], path, value)
            check(Rejection(None, None, FRONTIER, 1, INSOLATION_OUT_OF_BOX,
                            prefix=True, document=document),
                  tmp_path / "rejected", bundle, capsys, request)
            return
        document = {**BASES[base_of(path)], "out_dir": str(tmp_path / "run")}
        if path == "climate_csv":
            assert CLIMATE_CSV.count(value[0]) == 1
            write_text(str(tmp_path / "warmer.csv"),
                       CLIMATE_CSV.replace(*value))
            value = str(tmp_path / "warmer.csv")
        elif path == "out_dir":
            value = str(tmp_path / value)
        code, files = run_frontier(changed(document, path, value))
        assert code == 0 and capsys.readouterr().err == ""
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


# each test of the table is bound where its name says: in its class, or in
# this module
for _test in dict.fromkeys(row.test for row in REJECTIONS):
    _owner, _, _name = _test.rpartition("::")
    if _owner:
        setattr(globals()[_owner], _name, staticmethod(rejection_test(_test)))
    else:
        globals()[_name] = rejection_test(_test)
