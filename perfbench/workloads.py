"""The four workloads: their ops, how one op runs, and how its output is checked.

A workload is a fixed round of CLI calls built from the seed; the timed phase
repeats the round, so every round does the same work and produces the same
bytes. "cells" is how many ops one call stands for: a frontier call runs
36 weights x 2 replicates = 72 optimizer runs, every other call is one op.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import solarswarm.cli as cli
from solarswarm import fuzzy
from solarswarm.errors import SolarswarmError
from solarswarm.pareto import weight_grid

import inputs
from oracle import OptimumCache, check_point

WORKLOADS = ("sweep", "sweep_w2", "optimize", "analyze")
OPTIMIZE_CALLS_PER_ROUND = 20
# Files of a frontier bundle that must not change. config.json is left out:
# it echoes out_dir and workers.
BUNDLE_FILES = ("frontier.csv", "metrics.json", "summary.txt")


@dataclass
class Op:
    kind: str
    argv: list[str]
    out_dir: str | None = None
    cells: int = 1
    expect: dict = field(default_factory=dict)


@dataclass
class OpResult:
    exit_code: int | None
    stdout: str
    error: str | None = None
    digests: dict[str, str] = field(default_factory=dict)
    bytes_written: int = 0


def file_digests(directory: str, kind: str) -> dict[str, str]:
    """sha256 of every output file an op promises to reproduce."""
    if kind == "frontier":
        names = list(BUNDLE_FILES) + sorted(
            os.path.join("traces", n)
            for n in os.listdir(os.path.join(directory, "traces")))
    else:
        names = sorted(os.listdir(directory))
    digests = {}
    for name in names:
        with open(os.path.join(directory, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def tree_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(d, n))
               for d, _, names in os.walk(directory) for n in names)


def call(op: Op) -> OpResult:
    """Run one CLI call in-process. Output checks happen later."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(op.argv)
    except SystemExit as stop:  # argparse rejects argv this way
        return OpResult(None, out.getvalue(), f"exit {stop.code}: {err.getvalue()}")
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return OpResult(None, out.getvalue(), f"{type(exc).__name__}: {exc}")
    return OpResult(code, out.getvalue(),
                    None if code == 0 else err.getvalue().strip())


def record_outputs(op: Op, result: OpResult, with_bytes: bool) -> None:
    """Digest what the op produced, so rounds can be compared byte for byte."""
    if result.exit_code != 0:
        return
    if op.out_dir is not None:
        result.digests = file_digests(op.out_dir, op.kind)
        if with_bytes:
            result.bytes_written = tree_bytes(op.out_dir)
    else:
        result.digests = {"stdout": hashlib.sha256(
            result.stdout.encode()).hexdigest()}


def _csv_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:] if line]


@dataclass
class Check:
    failed_cells: int = 0
    reasons: list[str] = field(default_factory=list)
    gaps: list[float] = field(default_factory=list)


def check(op: Op, result: OpResult, cache: OptimumCache) -> Check:
    """Whether one op's output is right. A failing frontier row fails the
    cells behind it; any other failure fails the whole op."""
    outcome = Check()

    def fail(reason: str, cells: int = op.cells) -> Check:
        outcome.failed_cells += cells
        outcome.reasons.append(f"{op.kind}: {reason}")
        return outcome

    if result.exit_code != 0:
        return fail(result.error or f"exit code {result.exit_code}")
    try:
        if op.kind in ("frontier", "optimize"):
            name = "frontier.csv" if op.kind == "frontier" else "solution.csv"
            rows = _csv_rows(os.path.join(op.out_dir, name))
            expected = op.expect["weights"]
            if [tuple(float(r[k]) for k in ("w1", "w2", "w3")) for r in rows] \
                    != expected:
                return fail("rows do not match the requested weights")
            per_row = op.cells // len(rows)
            for row in rows:
                reason, gap = check_point(row, cache)
                if not math.isnan(gap):
                    outcome.gaps.append(gap)
                if reason is not None:
                    fail(reason, per_row)
        elif op.kind == "fuzzify":
            for factor, domain in op.expect["extrema"].items():
                model = fuzzy.load_model(
                    os.path.join(op.out_dir, f"{factor}_model.json"))
                if model.factor != factor or model.domain != domain:
                    return fail(f"{factor} model domain {model.domain} != "
                                f"annual extrema {domain}")
        elif op.kind == "metrics":
            doc = json.loads(result.stdout)
            f_values = op.expect["F"]
            recount = math.fsum(f_values) / len(f_values)
            if doc["n_points"] != len(f_values) \
                    or doc["dominance_mean_F"] != recount:
                return fail(f"n_points {doc['n_points']} / dominance "
                            f"{doc['dominance_mean_F']!r} != recount "
                            f"{len(f_values)} / {recount!r}")
        elif op.kind == "report":
            named = {line[len("bundle: "):] for line in result.stdout.splitlines()
                     if line.startswith("bundle: ")}
            missing = [b for b in op.expect["bundles"] if b not in named]
            if missing:
                return fail(f"report does not name {missing}")
    except (OSError, ValueError, KeyError, TypeError,
            SolarswarmError) as bad:
        return fail(f"unreadable output: {type(bad).__name__}: {bad}")
    return outcome


def frontier_op(work: str, name: str, seed: int, workers: int) -> Op:
    os.makedirs(work, exist_ok=True)
    config = inputs.write_json(os.path.join(work, "sweep_config.json"),
                               inputs.run_config("sweep"))
    out = os.path.join(work, name)
    weights = [w.as_tuple() for w in weight_grid()]
    return Op("frontier",
              ["frontier", "--config", config, "--seed", str(seed),
               "--workers", str(workers), "--out", out],
              out_dir=out, cells=len(weights) * inputs.SWEEP_REPLICATES,
              expect={"weights": weights})


def build(workload: str, work: str, seed: int) -> list[Op]:
    """The round of ops for a workload; writes its inputs under `work`."""
    os.makedirs(work, exist_ok=True)
    if workload in ("sweep", "sweep_w2"):
        return [frontier_op(work, "bundle", seed,
                            2 if workload == "sweep_w2" else 1)]
    if workload == "optimize":
        config = inputs.write_json(os.path.join(work, "optimize_config.json"),
                                   inputs.run_config("optimize"))
        ops = []
        for i, (w, run_seed) in enumerate(
                inputs.optimize_calls(seed, OPTIMIZE_CALLS_PER_ROUND)):
            out = os.path.join(work, f"call{i:02d}")
            ops.append(Op("optimize",
                          ["optimize", "--config", config, "--weights",
                           ",".join(repr(v) for v in w.as_tuple()),
                           "--seed", str(run_seed), "--out", out],
                          out_dir=out, expect={"weights": [w.as_tuple()]}))
        return ops
    if workload == "analyze":
        ops = []
        for variant in range(inputs.CLIMATE_VARIANTS):
            text, extrema = inputs.perturbed_climate(seed, variant)
            path = os.path.join(work, f"climate{variant}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            out = os.path.join(work, f"models{variant}")
            ops.append(Op("fuzzify", ["fuzzify", "--climate", path, "--out", out],
                          out_dir=out, expect={"extrema": extrema}))
        bundles = []
        for rows in inputs.BUNDLE_ROWS:
            directory = os.path.join(work, f"bundle{rows}")
            record = inputs.write_bundle(directory, seed, rows)
            bundles.append(directory)
            ops.append(Op("metrics", ["metrics", "--frontier",
                                      os.path.join(directory, "frontier.csv")],
                          expect=record))
        for group in (bundles[-1:], bundles):
            ops.append(Op("report", ["report", *group],
                          expect={"bundles": group}))
        return ops
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
