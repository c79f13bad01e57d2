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
from .codec import ConfigCodec, json_text, read_json, read_text, write_text
from .errors import (
    IncompleteBundle,
    SolarswarmError,
    ValidationError,
)
from .irrigation import IrrigationFitness, ProblemSpec, WeightVector
from .pareto import (
    FRONTIER_CSV_HEADER,
    Frontier,
    GradeContext,
    build_frontier,
    compute_metrics,
    derive_seed,
    frontier_dominance,
    frontier_from_csv_text,
    rank_solutions,
    read_frontier_csv,
    solution_from_position,
    weight_grid,
    write_frontier_csv,
)

SELF_TEST_THRESHOLD = -1e-2


@dataclass
class RunConfig(ConfigCodec):
    """Everything a CLI run needs, overridable by flags."""

    climate_csv: str | None = None
    out_dir: str = "solarswarm_runs"
    weight_step: float = 0.1
    weight_minimum: float = 0.1
    runs_per_weight: int = 5
    master_seed: int = 0
    workers: int = 1
    problem: ProblemSpec = field(default_factory=ProblemSpec)
    bfa: BfaConfig = field(default_factory=BfaConfig)
    grade_context: GradeContext | None = None

    def __post_init__(self) -> None:
        if self.runs_per_weight < 1:
            raise ValidationError("runs_per_weight must be >= 1")
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")
        if self.master_seed < 0:
            raise ValidationError("master_seed must be nonnegative")


def _load_config(args) -> RunConfig:
    config = (RunConfig.from_dict(read_json(args.config))
              if getattr(args, "config", None) else RunConfig())
    if getattr(args, "seed", None) is not None:
        config.master_seed = args.seed
    if getattr(args, "workers", None) is not None:
        config.workers = args.workers
    if getattr(args, "out", None) is not None:
        config.out_dir = args.out
    return config


def _load_table(config: RunConfig, args) -> climate.ClimateTable:
    path = getattr(args, "climate", None) or config.climate_csv
    if path is None:
        return climate.builtin_table()
    return climate.parse_climate_csv(read_text(path))


def _resolve_problem(config: RunConfig, args) -> ProblemSpec:
    """Apply the grade context, if any, to the problem's noise bounds."""
    context = config.grade_context
    if context is None:
        return config.problem
    table = _load_table(config, args)
    bounds = list(config.problem.noise_bounds)
    if context.temperature_secondary is not None:
        model = fuzzy.build_type2_model(table, climate.FACTOR_TEMPERATURE)
        bounds[0] = fuzzy.noise_interval_from_grades(
            model, context.temperature_secondary, context.pad)
    if context.insolation_secondary is not None:
        model = fuzzy.build_type2_model(table, climate.FACTOR_INSOLATION)
        bounds[1] = fuzzy.noise_interval_from_grades(
            model, context.insolation_secondary, context.pad)
    return config.problem.with_noise_bounds(bounds)


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
    table = _load_table(config, args)
    os.makedirs(config.out_dir, exist_ok=True)
    for factor in climate.FACTORS:
        model = fuzzy.build_type2_model(table, factor)
        path = os.path.join(config.out_dir, f"{factor}_model.json")
        fuzzy.save_model(model, path)
        lo, hi = model.domain
        fou = fuzzy.sample_fou(model, n_points=512)
        print(f"{factor}: annual domain [{_fmt(lo)}, {_fmt(hi)}], "
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
    problem = _resolve_problem(config, args)
    seed = (args.seed if args.seed is not None
            else derive_seed(config.master_seed, weights, 0))
    cfg = replace(config.bfa, seed=seed)
    started = time.perf_counter()
    result = run_bfa(IrrigationFitness(problem, weights), cfg)
    elapsed = time.perf_counter() - started
    point = solution_from_position(problem, weights, result.best_position,
                                   seed)
    os.makedirs(config.out_dir, exist_ok=True)
    solution_path = os.path.join(config.out_dir, "solution.csv")
    trace_path = os.path.join(config.out_dir, "trace.csv")
    write_frontier_csv(Frontier([point]), solution_path)
    result.trace.write_csv(trace_path)
    o = point.objectives
    print(f"weights ({_fmt(weights.w1)}, {_fmt(weights.w2)}, "
          f"{_fmt(weights.w3)}) seed {seed}")
    print(f"aggregate F = {point.aggregate_value!r}")
    print(f"objectives: power {_fmt(o.power)}, efficiency "
          f"{_fmt(o.efficiency)}, savings {_fmt(o.savings)}")
    print(f"design: {[_fmt(v) for v in point.design.as_tuple()]}, "
          f"noise: {[_fmt(v) for v in point.noise.as_tuple()]}")
    print(f"evaluations: {result.evaluations}, "
          f"runtime {elapsed:.2f}s")
    print(f"wrote {solution_path} and {trace_path}")
    return 0


def _summary_text(frontier: Frontier, metrics: dict, config: RunConfig,
                  problem: ProblemSpec) -> str:
    lines = ["frontier summary", "================"]
    lines.append(f"points: {metrics['n_points']}")
    lines.append(f"weight grid: step {config.weight_step:g}, minimum "
                 f"{config.weight_minimum:g}")
    lines.append(f"runs per weight: {config.runs_per_weight}, master seed "
                 f"{config.master_seed}")
    lines.append(f"dominance (mean F): {metrics['dominance_mean_F']!r}")
    lines.append(f"diversity: {metrics['diversity']!r}")
    lines.append("")
    lines.extend(_ranked_table(frontier))
    lines.append("")
    lines.extend(_notes_lines(problem, n_points=metrics["n_points"]))
    return "\n".join(lines) + "\n"


def cmd_frontier(args) -> int:
    config = _load_config(args)
    if args.step is not None:
        config.weight_step = args.step
    if args.minimum is not None:
        config.weight_minimum = args.minimum
    if args.runs is not None:
        config.runs_per_weight = args.runs
    weights = weight_grid(config.weight_step, config.weight_minimum)
    problem = _resolve_problem(config, args)
    cfg = replace(config.bfa, seed=config.master_seed)
    out_dir = config.out_dir
    traces_dir = os.path.join(out_dir, "traces")
    os.makedirs(traces_dir, exist_ok=True)

    cell_lines = []

    def on_cell(point, trace):
        index = len(cell_lines)
        trace.write_csv(os.path.join(traces_dir, f"trace_w{index:03d}.csv"))
        w = point.weights
        cell_lines.append(
            f"[{index + 1:3d}/{len(weights)}] w=({w.w1:g},{w.w2:g},{w.w3:g}) "
            f"F={_fmt(point.aggregate_value)} seed={point.seed}")

    started = time.perf_counter()
    frontier = build_frontier(problem, cfg, weights, config.runs_per_weight,
                              grade_context=config.grade_context,
                              workers=config.workers, on_cell=on_cell)
    elapsed = time.perf_counter() - started

    for line in cell_lines:
        print(line)
    metrics = compute_metrics(frontier)
    write_frontier_csv(frontier, os.path.join(out_dir, "frontier.csv"))
    write_text(os.path.join(out_dir, "metrics.json"), json_text(metrics))
    write_text(os.path.join(out_dir, "summary.txt"),
               _summary_text(frontier, metrics, config, problem))
    # echo what ran: the resolved noise bounds and the master seed
    write_text(os.path.join(out_dir, "config.json"), json_text(
        replace(config, problem=problem, bfa=cfg).to_dict()))
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
    frontier = frontier_from_csv_text(read_text(args.frontier),
                                      grade_context=context)
    text = json_text(compute_metrics(frontier))
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
    for key in ("dominance_mean_F", "diversity", "n_points"):
        if key not in metrics:
            raise IncompleteBundle(
                f"bundle {path}: metrics.json lacks {key!r}")
    return frontier, metrics


def _bundle_problem(path: str) -> ProblemSpec | None:
    """The problem a bundle was run on, from its config.json, if any."""
    config_path = os.path.join(path, "config.json")
    if not os.path.isfile(config_path):
        return None
    return RunConfig.from_dict(read_json(config_path)).problem


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


# built once per process: parse_args reads the parser and leaves it as it
# was, and each subcommand's handler is bound when it is built
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solarswarm",
        description="Robust multiobjective sizing of a solar irrigation "
                    "pump: fuzzy climate noise, bacterial swarm search, "
                    "weighted-sum frontiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="run config JSON file")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("fuzzify",
                       help="fit membership models to a climate table")
    common(p)
    p.add_argument("--climate", help="climate CSV (default: packaged table)")
    p.set_defaults(handler=cmd_fuzzify)

    p = sub.add_parser("optimize", help="optimize one weight vector")
    common(p)
    p.add_argument("--climate", help="climate CSV (default: packaged table)")
    p.add_argument("--weights",
                   help="three comma-separated objective weights")
    p.add_argument("--seed", type=int,
                   help="run seed (default: derived from master seed and "
                        "weights, matching frontier cell replicate 0)")
    p.add_argument("--self-test", action="store_true",
                   help="run the built-in benchmark check instead")
    p.set_defaults(handler=cmd_optimize)

    p = sub.add_parser("frontier", help="sweep the full weight grid")
    common(p)
    p.add_argument("--climate", help="climate CSV (default: packaged table)")
    p.add_argument("--seed", type=int, help="master seed")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValidationError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    except SolarswarmError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
