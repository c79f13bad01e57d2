"""Command line front end.

Subcommands: fuzzify (climate table -> membership models), optimize (one
weight vector -> one solution), frontier (full weight sweep -> result
bundle), metrics (recompute metrics from a frontier CSV), report (render a
result bundle as text).

Exit codes: 0 success, 1 rejected input or configuration, 2 failure while
computing or writing. Every handled error prints one line to stderr of the
form "error: <ErrorType>: <message>".

Result bundles never embed wall-clock time, so a rerun with the same master
seed reproduces every file byte for byte; runtime goes to stdout only.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field, replace

from . import climate, fuzzy
from .bfa import BfaConfig, run_bfa, sphere_function
from .codec import (ConfigCodec, fits, json_kind, json_text, read_json,
                    read_text, write_text)
from .errors import (
    IncompleteBundle,
    SchemaMismatch,
    SolarswarmError,
    ValidationError,
)
from .fuzzy import GradeContext
from .irrigation import IrrigationFitness, ProblemSpec, WeightVector
from .pareto import (
    FRONTIER_CSV_HEADER,
    Frontier,
    build_frontier,
    compute_metrics,
    derive_seed,
    frontier_from_csv_text,
    rank_solutions,
    read_frontier_csv,
    solution_from_position,
    weight_grid,
    write_frontier_csv,
)

SELF_TEST_THRESHOLD = -1e-2


@dataclass(frozen=True)
class RunConfig(ConfigCodec):
    """Everything a CLI run needs, overridable by flags. bfa.seed is the
    master seed run seeds derive from, or with optimize --seed the run
    seed itself."""

    climate_csv: str | None = None
    out_dir: str = "solarswarm_runs"
    weight_step: float = 0.1
    weight_minimum: float = 0.1
    runs_per_weight: int = 5
    workers: int = 1
    problem: ProblemSpec = field(default_factory=ProblemSpec)
    bfa: BfaConfig = field(default_factory=BfaConfig)
    grade_context: GradeContext | None = None

    def __post_init__(self) -> None:
        if self.runs_per_weight < 1:
            raise ValidationError("runs_per_weight must be >= 1")
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")


# each flag and the dotted path of the RunConfig setting it sets
_OVERRIDES = (("seed", "bfa.seed"), ("workers", "workers"), ("out", "out_dir"),
              ("climate", "climate_csv"), ("step", "weight_step"),
              ("minimum", "weight_minimum"), ("runs", "runs_per_weight"))


def _set(config, path: str, value):
    """config rebuilt, and so checked again, with dotted `path` = value."""
    name, _, rest = path.partition(".")
    return replace(config, **{
        name: _set(getattr(config, name), rest, value) if rest else value})


def _load_config(args) -> RunConfig:
    config = (RunConfig.from_dict(read_json(args.config))
              if getattr(args, "config", None) else RunConfig())
    for flag, path in _OVERRIDES:
        if getattr(args, flag, None) is not None:
            config = _set(config, path, getattr(args, flag))
    return config


def _load_table(config: RunConfig) -> climate.ClimateTable:
    if config.climate_csv is None:
        return climate.builtin_table()
    return climate.parse_climate_csv(read_text(config.climate_csv))


def _resolve_problem(config: RunConfig) -> ProblemSpec:
    """The problem, its noise bounds replaced by the grade context's, if
    any. A given climate table is read even when no context needs it."""
    context = config.grade_context
    if context is None:
        if config.climate_csv is not None:
            _load_table(config)
        return config.problem
    return replace(config.problem, noise_bounds=context.noise_bounds(
        _load_table(config), config.problem.noise_bounds))


def _parse_weights(text: str) -> WeightVector:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError(
            f"--weights needs three comma-separated values, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValidationError(f"--weights values must be numbers: {text!r}") \
            from None
    return WeightVector(*values)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _point_column(point) -> list[str]:
    *values, seed = point.row()
    return [_fmt(v) for v in values] + [str(seed)]


def _ranked_table(frontier: Frontier) -> list[str]:
    best, median, worst = rank_solutions(frontier)
    columns = [_point_column(p) for p in (best, median, worst)]
    lines = [f"{'quantity':<10}{'best':>16}{'median':>16}{'worst':>16}"]
    for row, name in enumerate(FRONTIER_CSV_HEADER):
        lines.append(f"{name:<10}" + "".join(
            f"{columns[col][row]:>16}" for col in range(3)))
    return lines


def _notes_lines(problem: ProblemSpec, n_points: int | None = None,
                 defaults: bool = False) -> list[str]:
    lines = ["notes:"]
    if n_points is not None:
        grid = f"- complete simplex weight grid kept: {n_points} vectors"
        if n_points == 36:
            grid += (" (a 35-vector variant of this sweep circulates; the "
                     "full grid has one more)")
        lines.append(grid)
    if defaults:
        lines.append("- problem settings below are package defaults: the "
                     "bundle has no config.json")
    lines.append("- objectives oriented for maximization"
                 + ("" if problem.maximize else " DISABLED: printed signs kept"))
    lines.append("- efficiency intercept correction "
                 + ("on (constant read as 0.18507)"
                    if problem.fix_efficiency_intercept else
                    "off (as-printed constant 18507)"))
    lines.append("- savings flow-term correction "
                 + ("on (term bound to the flowrate variable x_d)"
                    if problem.fix_savings_flow_term else
                    "off (term dropped; its printed symbol binds nothing)"))
    lines.append(f"- variable mode: {problem.variable_mode}")
    lines.append("- reference arithmetic cross-check: power spread 0.3671, "
                 "savings spread 2679, efficiency spread 1.2022 (often "
                 "quoted as 1.022; the computed value is used)")
    lines.append("- decision-variable values are sampler artifacts; compare "
                 "frontiers in objective space only")
    return lines


def cmd_fuzzify(args) -> int:
    config = _load_config(args)
    table = _load_table(config)
    # both models first, so a table that fails either writes nothing
    models = [fuzzy.build_type2_model(table, factor)
              for factor in climate.FACTORS]
    os.makedirs(config.out_dir, exist_ok=True)
    for model in models:
        path = os.path.join(config.out_dir, f"{model.factor}_model.json")
        fuzzy.save_model(model, path)
        lo, hi = model.domain
        fou = fuzzy.sample_fou(model, n_points=512)
        print(f"{model.factor}: annual domain [{_fmt(lo)}, {_fmt(hi)}], "
              f"uncertainty envelope mean width {fou.mean_width:.4f}, "
              f"max width {fou.max_width:.4f}")
        print(f"  wrote {path}")
    return 0


def _self_test(args) -> int:
    seed = args.seed if args.seed is not None else 0
    # pre-calibrated benchmark settings: the short fixed step is what lets
    # the swarm settle within 1e-2 of the optimum
    cfg = BfaConfig(step_fraction=0.01, seed=seed)
    result = run_bfa(sphere_function(), cfg)
    print(f"self-test: best fitness {result.best_fitness!r} after "
          f"{result.evaluations} evaluations (threshold "
          f"{SELF_TEST_THRESHOLD})")
    if result.best_fitness >= SELF_TEST_THRESHOLD:
        print("self-test: PASS")
        return 0
    print("self-test: FAIL")
    return 2


def cmd_optimize(args) -> int:
    if args.self_test:
        return _self_test(args)
    if args.weights is None:
        raise ValidationError("--weights is required (e.g. 0.1,0.1,0.8)")
    config = _load_config(args)
    weights = _parse_weights(args.weights)
    problem = _resolve_problem(config)
    cfg = config.bfa if args.seed is not None else replace(
        config.bfa, seed=derive_seed(config.bfa.seed, weights, 0))
    started = time.perf_counter()
    result = run_bfa(IrrigationFitness(problem, weights), cfg)
    elapsed = time.perf_counter() - started
    point = solution_from_position(problem, weights, result.best_position,
                                   cfg.seed)
    os.makedirs(config.out_dir, exist_ok=True)
    solution_path = os.path.join(config.out_dir, "solution.csv")
    trace_path = os.path.join(config.out_dir, "trace.csv")
    write_frontier_csv(Frontier([point]), solution_path)
    result.trace.write_csv(trace_path)
    o = point.objectives
    print(f"weights ({_fmt(weights.w1)}, {_fmt(weights.w2)}, "
          f"{_fmt(weights.w3)}) seed {cfg.seed}")
    print(f"aggregate F = {point.aggregate_value!r}")
    print(f"objectives: power {_fmt(o.power)}, efficiency "
          f"{_fmt(o.efficiency)}, savings {_fmt(o.savings)}")
    print(f"design: {[_fmt(v) for v in point.design.as_tuple()]}, "
          f"noise: {[_fmt(v) for v in point.noise.as_tuple()]}")
    print(f"evaluations: {result.evaluations}, "
          f"runtime {elapsed:.2f}s")
    print(f"wrote {solution_path} and {trace_path}")
    return 0


def _summary_text(frontier: Frontier, metrics: dict, config: RunConfig) -> str:
    lines = ["frontier summary", "================",
             f"points: {metrics['n_points']}",
             f"weight grid: step {config.weight_step:g}, minimum "
             f"{config.weight_minimum:g}",
             f"runs per weight: {config.runs_per_weight}, master seed "
             f"{config.bfa.seed}",
             f"dominance (mean F): {metrics['dominance_mean_F']!r}",
             f"diversity: {metrics['diversity']!r}", "",
             *_ranked_table(frontier), "",
             *_notes_lines(config.problem, n_points=metrics["n_points"])]
    return "\n".join(lines) + "\n"


def cmd_frontier(args) -> int:
    config = _load_config(args)
    weights = weight_grid(config.weight_step, config.weight_minimum)
    config = replace(config, problem=_resolve_problem(config))

    started = time.perf_counter()
    frontier, traces = build_frontier(
        config.problem, config.bfa, weights, config.runs_per_weight,
        workers=config.workers)
    elapsed = time.perf_counter() - started

    # nothing is written until the whole bundle is known
    metrics = compute_metrics(frontier, config.grade_context)
    texts = {"metrics.json": json_text(metrics),
             "summary.txt": _summary_text(frontier, metrics, config),
             "config.json": json_text(config.to_dict())}  # echo what ran
    out_dir = config.out_dir
    traces_dir = os.path.join(out_dir, "traces")
    os.makedirs(traces_dir, exist_ok=True)
    for index, trace in enumerate(traces):
        trace.write_csv(os.path.join(traces_dir, f"trace_w{index:03d}.csv"))
    write_frontier_csv(frontier, os.path.join(out_dir, "frontier.csv"))
    for name, text in texts.items():
        write_text(os.path.join(out_dir, name), text)
    for index, ((w1, w2, w3, *_, value), seed) in enumerate(
            zip(frontier.table.tolist(), frontier.seeds)):
        print(f"[{index + 1:3d}/{len(frontier)}] w=({w1:g},{w2:g},{w3:g}) "
              f"F={_fmt(value)} seed={seed}")
    print(f"frontier: {len(frontier)} points, dominance "
          f"{_fmt(metrics['dominance_mean_F'])}, diversity "
          f"{_fmt(metrics['diversity'])}")
    print(f"bundle written to {out_dir} (runtime {elapsed:.1f}s)")
    return 0


def cmd_metrics(args) -> int:
    if args.frontier is None:
        raise ValidationError("--frontier is required (path to frontier CSV)")
    context = None
    if args.grade_context is not None:
        context = GradeContext.from_dict(read_json(args.grade_context))
    frontier = frontier_from_csv_text(read_text(args.frontier))
    text = json_text(compute_metrics(frontier, context))
    if args.out:
        write_text(args.out, text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _load_bundle(path: str) -> tuple[Frontier, dict]:
    frontier_path = os.path.join(path, "frontier.csv")
    metrics_path = os.path.join(path, "metrics.json")
    missing = [p for p in (frontier_path, metrics_path)
               if not os.path.isfile(p)]
    if missing:
        raise IncompleteBundle(
            f"bundle {path} is missing {', '.join(missing)}")
    frontier = read_frontier_csv(frontier_path)
    metrics = read_json(metrics_path)
    if not isinstance(metrics, dict):
        raise SchemaMismatch(f"bundle {path}: metrics.json must be a JSON "
                             f"object, got {json_kind(metrics)}")
    for key, kind in (("dominance_mean_F", float), ("diversity", float),
                      ("n_points", int)):
        if key not in metrics:
            raise IncompleteBundle(
                f"bundle {path}: metrics.json lacks {key!r}")
        if not fits(kind, metrics[key]):
            raise SchemaMismatch(
                f"bundle {path}: metrics.json {key} must be {kind.__name__}, "
                f"got {json_kind(metrics[key])}")
    return frontier, metrics


def _bundle_problem(path: str) -> ProblemSpec | None:
    """The problem a bundle was run on, if it has a config.json. Only the
    problem section is decoded, so settings since removed do not matter."""
    config_path = os.path.join(path, "config.json")
    if not os.path.isfile(config_path):
        return None
    sections = read_json(config_path)
    if isinstance(sections, dict):
        sections = {"problem": sections.get("problem", {})}
    return RunConfig.from_dict(sections).problem


def cmd_report(args) -> int:
    bundles = []
    for path in args.bundles:
        frontier, metrics = _load_bundle(path)
        bundles.append((path, frontier, metrics, _bundle_problem(path)))
    for path, frontier, metrics, problem in bundles:
        print(f"bundle: {path}")
        print(f"points: {metrics['n_points']}, dominance (mean F): "
              f"{_fmt(metrics['dominance_mean_F'])}, diversity: "
              f"{_fmt(metrics['diversity'])}")
        context = metrics.get("grade_context")
        print(f"grade context: "
              f"{json.dumps(context, sort_keys=True) if context else 'none'}")
        for line in _ranked_table(frontier):
            print(line)
        for line in _notes_lines(problem or ProblemSpec(),
                                 n_points=metrics["n_points"],
                                 defaults=problem is None):
            print(line)
        print()
    if len(bundles) > 1:
        ranking = sorted(bundles, key=lambda b: -b[2]["dominance_mean_F"])
        print("ranking by dominance (mean F):")
        for rank, (path, _, metrics, _) in enumerate(ranking, start=1):
            print(f"{rank}. {path} "
                  f"(dominance {_fmt(metrics['dominance_mean_F'])})")
    return 0


class _Parser(argparse.ArgumentParser):
    """Rejects a command line, a subcommand's too, as any rejected input is
    rejected: with a one-line ValidationError, exit 1."""

    def error(self, message):
        raise ValidationError(message)


# built once per process: parse_args reads the parser and leaves it as it
# was, and each subcommand's handler is bound when it is built
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="solarswarm",
        description="Robust multiobjective sizing of a solar irrigation "
                    "pump: fuzzy climate noise, bacterial swarm search, "
                    "weighted-sum frontiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="run config JSON file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--climate",
                       help="climate CSV (default: packaged table)")

    p = sub.add_parser("fuzzify",
                       help="fit membership models to a climate table")
    common(p)
    p.set_defaults(handler=cmd_fuzzify)

    p = sub.add_parser("optimize", help="optimize one weight vector")
    common(p)
    p.add_argument("--weights",
                   help="three comma-separated objective weights")
    p.add_argument("--seed", type=int,
                   help="run seed (default: frontier cell replicate 0's, "
                        "derived from the master seed bfa.seed and weights)")
    p.add_argument("--self-test", action="store_true",
                   help="run the built-in benchmark check instead")
    p.set_defaults(handler=cmd_optimize)

    p = sub.add_parser("frontier", help="sweep the full weight grid")
    common(p)
    p.add_argument("--seed", type=int, help="master seed (bfa.seed)")
    p.add_argument("--workers", type=int, help="parallel worker processes")
    p.add_argument("--step", type=float, help="weight grid spacing")
    p.add_argument("--minimum", type=float, help="smallest allowed weight")
    p.add_argument("--runs", type=int, help="optimizer runs per weight")
    p.set_defaults(handler=cmd_frontier)

    p = sub.add_parser("metrics",
                       help="recompute metrics from a frontier CSV")
    p.add_argument("--frontier", help="frontier CSV path")
    p.add_argument("--grade-context",
                   help="grade context JSON to embed in the output")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(handler=cmd_metrics)

    p = sub.add_parser("report", help="render result bundles as text")
    p.add_argument("bundles", nargs="+", help="bundle directories")
    p.set_defaults(handler=cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except ValidationError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    except (SolarswarmError, OSError) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
