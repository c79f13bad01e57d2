"""solarswarm benchmark: one seeded workload, timed in-process through
solarswarm.cli.main, with every output checked.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Prints a readable report, then as its last line one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end set; with --trace 1 a run alternates untraced and traced rounds
and reports the per-layer set. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")


def _require_package() -> None:
    if not os.path.isfile(os.path.join(SRC, "solarswarm", "__init__.py")):
        sys.exit(f"perfbench: no package source at {SRC}; run from the root "
                 f"of a solarswarm checkout")
    sys.path.insert(0, SRC)


if __name__ == "__main__":
    _require_package()

import inputs  # noqa: E402
import workloads  # noqa: E402
from oracle import OptimumCache  # noqa: E402
from reference import LONG_CALL_SECONDS, Bursts, Sampler, Units  # noqa: E402
from spans import Tracer  # noqa: E402

# Fresh interpreters timed for setup_s, spread evenly over the timed phase.
SETUP_PROBES = 7
GOLDEN_PATH = os.path.join(HERE, "golden.json")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "cpu_s": "s",
    "latency_p50_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "irrigation.evaluate.calls": "count",
    "irrigation.evaluate.self_s": "s",
    "irrigation.evaluate.ns_per_call": "ns",
    "bfa.run_bfa.calls": "count",
    "bfa.run_bfa.self_s": "s",
    "bfa.swim_loop.calls": "count",
    "bfa.swim_loop.self_s": "s",
    "bfa.swim.evals_per_tumble": "ratio",
    "bfa.swim.useful_ratio": "ratio",
    "bfa.reproduce.self_s": "s",
    "bfa.eliminate_disperse.self_s": "s",
    "bfa.gap_rel_max": "ratio",
    "pareto.build_frontier.self_s": "s",
    "pareto.pool.busy_frac": "ratio",
    "pareto.derive_seed.calls": "count",
    "pareto.solution_from_position.self_s": "s",
    "pareto.compute_metrics.self_s": "s",
    "pareto.csv_read.self_s": "s",
    "pareto.csv_write.self_s": "s",
    "fuzzy.build_type2_model.self_s": "s",
    "fuzzy.sample_fou.self_s": "s",
    "climate.parse_climate_csv.self_s": "s",
    "cli.self_s": "s",
    "cli.trace_write.self_s": "s",
    "cli.bytes_written": "B",
    "trace.overhead_frac": "ratio",
}


def _cpu() -> tuple[float, float]:
    """(own CPU seconds, CPU seconds of waited-for children)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


@dataclass
class Phase:
    """Every round of one timed phase."""

    round_wall: list[float] = field(default_factory=list)
    # per op of the round: its wall and CPU seconds and its (start, end) in
    # every round
    op_wall: list[list[float]] = field(default_factory=list)
    op_cpu: list[list[float]] = field(default_factory=list)
    op_span: list[list[tuple[float, float]]] = field(default_factory=list)
    # set-up probes: spawn-to-ready seconds and (start, end) of each
    setup: list[float] = field(default_factory=list)
    setup_span: list[tuple[float, float]] = field(default_factory=list)
    # elapsed seconds of each round, output checks included
    round_span: list[float] = field(default_factory=list)
    # reference units timed in this process, if any (see reference.py)
    units: Units | None = None
    latencies: list[float] = field(default_factory=list)
    child_cpu: float = 0.0
    first: list = field(default_factory=list)
    executions: int = 0
    attempted: int = 0
    mismatched: int = 0
    bytes_per_round: int = 0

    @property
    def rounds(self) -> int:
        return len(self.round_wall)


def run_round(ops, phase: Phase, reference=None, tracer=None) -> None:
    """Run the round of ops once, recording into `phase`.

    Each op's outputs are digested and compared with the same op in the
    reference round (the phase's first round unless given); an op whose
    bytes differ fails.
    """
    wall = 0.0
    results = []
    started = perf_counter()
    if not phase.op_wall:
        phase.op_wall = [[] for _ in ops]
        phase.op_cpu = [[] for _ in ops]
        phase.op_span = [[] for _ in ops]
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = phase.executions
        own0, kids0 = _cpu()
        t0 = perf_counter()
        result = workloads.call(op)
        t1 = perf_counter()
        own1, kids1 = _cpu()
        phase.latencies.append(t1 - t0)
        phase.op_wall[i].append(t1 - t0)
        phase.op_cpu[i].append((own1 - own0) + (kids1 - kids0))
        phase.op_span[i].append((t0, t1))
        if phase.units is not None:
            phase.units.after_call()
        phase.child_cpu += kids1 - kids0
        wall += t1 - t0
        workloads.record_outputs(op, result, with_bytes=tracer is not None)
        results.append(result)
        phase.executions += 1
        phase.attempted += op.cells
    if not phase.first:
        phase.first = results
        phase.bytes_per_round = sum(r.bytes_written for r in results)
    for op, result, ref in zip(ops, results, reference or phase.first):
        if result.exit_code == 0 and result.digests != ref.digests:
            phase.mismatched += op.cells
    phase.round_wall.append(wall)
    phase.round_span.append(perf_counter() - started)


def _fits(started: float, seconds: float, *phases: Phase,
          extra: float = 0.0) -> bool:
    """Whether one more round of each phase, and `extra` seconds, fit in
    the time left."""
    need = sum(statistics.median(p.round_span) for p in phases) + extra
    return perf_counter() - started + need <= seconds


def run_phase(ops, seconds: float, probe=None, probes: int = 0,
              units: Units | None = None) -> Phase:
    """Untraced rounds while another still fits in `seconds` (at least one).

    If `probe` is given, it is called `probes` times, spread evenly over the
    phase between rounds; it returns its (start, seconds), which go to
    `phase.setup_span` and `phase.setup`. Rounds do not include probes.
    `units`, if given, runs its reference units after every call and around
    every probe.
    """
    phase = Phase(units=units)
    started = perf_counter()
    probe_span = []

    def take_probe() -> None:
        t0 = perf_counter()
        start, ready = (probe() if units is None
                        else units.around_probe(probe))
        probe_span.append(perf_counter() - t0)
        phase.setup.append(ready)
        phase.setup_span.append((start, start + ready))

    def probes_due() -> None:
        while probe is not None and len(phase.setup) < probes and \
                perf_counter() - started >= len(phase.setup) * seconds / probes:
            take_probe()

    def probes_left() -> float:
        if probe is None:
            return 0.0
        return (probes - len(phase.setup)) * statistics.median(probe_span)

    probes_due()
    run_round(ops, phase)
    while _fits(started, seconds, phase, extra=probes_left()):
        probes_due()
        run_round(ops, phase)
    while probe is not None and len(phase.setup) < probes:
        take_probe()
    return phase


def run_traced(ops, seconds: float, tracer: Tracer) -> tuple[Phase, Phase]:
    """Alternate untraced and traced rounds, so that both see the same
    machine; the difference between them is the tracing overhead."""
    untraced, traced = Phase(), Phase()
    started = perf_counter()
    while not traced.rounds or _fits(started, seconds, untraced, traced):
        run_round(ops, untraced)
        tracer.install()
        try:
            run_round(ops, traced, untraced.first, tracer)
        finally:
            tracer.uninstall()
    return untraced, traced


def setup_seconds(config_path: str) -> tuple[float, float]:
    """(start, spawn-to-ready seconds) of one fresh interpreter doing the
    workload set-up."""
    t0 = perf_counter()
    with subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py"), config_path],
            stdout=subprocess.PIPE, text=True) as probe:
        line = probe.stdout.readline()
        seconds = perf_counter() - t0
        probe.stdout.read()
        code = probe.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return t0, seconds


def golden_check(workload: str, work: str) -> list[str]:
    """Rebuild the golden sweep bundle and compare its digests."""
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)["sweep"]
    op = workloads.frontier_op(work, "golden", golden["seed"],
                               2 if workload == "sweep_w2" else 1)
    result = workloads.call(op)
    workloads.record_outputs(op, result, with_bytes=False)
    if result.exit_code != 0:
        return [f"golden sweep failed: {result.error}"]
    return [f"golden digest mismatch: {name}"
            for name in sorted(set(golden["files"]) | set(result.digests))
            if golden["files"].get(name) != result.digests.get(name)]


def verify(ops, phases: list[Phase], golden_problems: list[str]
           ) -> tuple[int, list[str], float]:
    """(failed ops, reasons, largest relative gap to the exact optimum)."""
    cache = OptimumCache()
    reasons = list(golden_problems)
    failed_per_round = 0
    gaps = []
    for op, result in zip(ops, phases[0].first):
        outcome = workloads.check(op, result, cache)
        failed_per_round += outcome.failed_cells
        reasons += outcome.reasons
        gaps += outcome.gaps
    attempted = sum(p.attempted for p in phases)
    mismatched = sum(p.mismatched for p in phases)
    if mismatched:
        reasons.append(f"{mismatched} ops produced bytes differing from "
                       f"the first round")
    if golden_problems:
        failed = attempted
    else:
        rounds = sum(p.rounds for p in phases)
        failed = min(attempted, failed_per_round * rounds + mismatched)
    return failed, reasons, max(gaps, default=0.0)


def at_reference_speed(phase: Phase, units: Units
                       ) -> tuple[list[list[float]], list[list[float]],
                                  list[float]]:
    """Every call's wall and CPU seconds and every probe's seconds, at
    reference speed (see reference.py)."""
    wall = [[units.scale(w, *span) for w, span in zip(walls, spans)]
            for walls, spans in zip(phase.op_wall, phase.op_span)]
    cpu = [[units.scale(c, *span) for c, span in zip(cpus, spans)]
           for cpus, spans in zip(phase.op_cpu, phase.op_span)]
    setup = [units.scale(s, *span)
             for s, span in zip(phase.setup, phase.setup_span)]
    return wall, cpu, setup


def end_to_end(phase: Phase, units: Units) -> dict[str, float]:
    """Times at reference speed; each call of the round counts at the median
    of its repetitions."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    cells = phase.attempted / phase.rounds
    call_wall, call_cpu, setup = at_reference_speed(phase, units)
    per_call = [statistics.median(samples) for samples in call_wall]
    wall = sum(per_call)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "ops_per_s": cells / wall,
        "cpu_s": sum(statistics.median(samples) for samples in call_cpu),
        "latency_p50_s": statistics.median(per_call),
        "peak_rss_mb": (own + kids) / 1024.0,
    }


def per_layer(tracer: Tracer, traced: Phase, untraced: Phase, workers: int,
              gap_max: float) -> dict[str, float]:
    spans = tracer.summary()
    rounds = traced.rounds

    def per_round(span: str, key: str) -> float:
        return spans[span][key] / rounds

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    evaluate = spans["irrigation.evaluate"]
    values = {
        "irrigation.evaluate.calls": per_round("irrigation.evaluate", "calls"),
        "irrigation.evaluate.self_s": per_round("irrigation.evaluate", "self_s"),
        "irrigation.evaluate.ns_per_call":
            ratio(evaluate["total_s"] * 1e9, evaluate["calls"]),
        "bfa.swim.evals_per_tumble":
            ratio(tracer.swim_evals, spans["bfa.swim_loop"]["calls"]),
        "bfa.swim.useful_ratio":
            ratio(tracer.swim_improving, tracer.swim_evals),
        "bfa.gap_rel_max": gap_max,
        "pareto.pool.busy_frac": ratio(
            traced.child_cpu,
            workers * spans["pareto.build_frontier"]["total_s"])
        if workers > 1 else 0.0,
        "cli.self_s": per_round("cli.main", "self_s"),
        "cli.bytes_written": traced.bytes_per_round,
        "trace.overhead_frac":
            statistics.median(traced.round_wall)
            / statistics.median(untraced.round_wall) - 1.0,
    }
    for name in PER_LAYER:
        if name not in values:
            span, key = name.rsplit(".", 1)
            values[name] = per_round(span, key)
    return {name: values[name] for name in PER_LAYER}


def _report_lines(workload, seed, metrics, metric_units, phases,
                  reference_units) -> list[str]:
    lines = [f"perfbench {workload} seed={seed}"]
    for name, value in metrics.items():
        lines.append(f"  {name:<38} {value:>16.6g} {metric_units[name]}")
    lat = sorted(phases[0].latencies)
    walls = phases[0].round_wall
    lines.append(f"  raw round wall: min {min(walls):.6g} s, median "
                 f"{statistics.median(walls):.6g} s, max {max(walls):.6g} s")
    if reference_units is not None:
        scaled = [sum(r) for r in zip(*at_reference_speed(
            phases[0], reference_units)[0])]
        lines.append(f"  round wall at reference speed: min {min(scaled):.6g}"
                     f" s, median {statistics.median(scaled):.6g} s, max "
                     f"{max(scaled):.6g} s")
    lines.append(f"  samples: {len(phases[0].setup)} set-up probes, "
                 f"{phases[0].rounds} "
                 f"rounds, {len(lat)} calls timed")
    if len(lat) >= 100:
        p90 = statistics.quantiles(lat, n=10)[-1]
        lines.append(f"  raw latency_p90_s {p90:.6g} s (n={len(lat)})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    # a SIGTERM unwinds like an error, so pool workers and reference
    # samplers are stopped and waited for on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    workers = 2 if args.workload == "sweep_w2" else 1
    if workers == 1:
        # one CPU for the calls, the probes and the reference units: the
        # co-tenants' load differs between CPUs, so the units measure the
        # speed a call saw only on the CPU the call ran on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    probe_config = inputs.write_json(os.path.join(work, "probe_config.json"),
                                     inputs.run_config(args.workload))
    ops = workloads.build(args.workload, work, args.seed)

    # warm-up, untimed: the golden sweep for the sweep workloads, one call
    # for the others
    golden_problems = []
    t0 = perf_counter()
    if args.workload in ("sweep", "sweep_w2"):
        golden_problems = golden_check(args.workload, work)
    else:
        workloads.call(ops[0])
    long_calls = perf_counter() - t0 >= LONG_CALL_SECONDS

    if args.trace:
        tracer = Tracer()
        untraced, traced = run_traced(ops, args.seconds, tracer)
        tracer.write(os.path.join(WORK, f"spans-{args.workload}.npz"))
        phases = [untraced, traced]
    else:
        def probe():
            return setup_seconds(probe_config)

        if long_calls:
            with Sampler(tuple(sorted(os.sched_getaffinity(0))),
                         work) as reference:
                phases = [run_phase(ops, args.seconds, probe, SETUP_PROBES)]
        else:
            reference = Bursts()
            phases = [run_phase(ops, args.seconds, probe, SETUP_PROBES,
                                reference)]

    failed, reasons, gap_max = verify(ops, phases, golden_problems)
    if args.trace:
        metrics = per_layer(tracer, traced, untraced, workers, gap_max)
        metric_units = PER_LAYER
    else:
        metrics = end_to_end(phases[0], reference)
        metric_units = END_TO_END
    for line in _report_lines(args.workload, args.seed, metrics, metric_units,
                              phases, None if args.trace else reference):
        print(line)
    for reason in reasons[:20]:
        print(f"  FAILED {reason}")
    attempted = sum(p.attempted for p in phases)
    print(json.dumps({
        "correct": failed == 0 and not reasons,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": metric_units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
