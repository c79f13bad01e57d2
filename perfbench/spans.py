"""In-memory span recording around the package's public functions.

Tracer.install wraps each function at every module attribute (or class
attribute) that binds it, so calls made through those names record a span:
name, start, end, parent span and op id. Spans live in flat arrays until the
run ends; self time is a span's duration minus the durations of its direct
children. Nothing in the package changes: uninstall puts every original back.

Spans opened inside forked pool workers stay in those processes and are lost;
only the parent side is recorded.
"""

from __future__ import annotations

import functools
import os
from array import array
from time import perf_counter

import numpy as np

import solarswarm.bfa as bfa
import solarswarm.cli as cli
import solarswarm.climate as climate
import solarswarm.fuzzy as fuzzy
import solarswarm.irrigation as irrigation
import solarswarm.pareto as pareto

# span name -> every (owner, attribute) that binds the traced callable
TRACED = {
    "cli.main": [(cli, "main")],
    "cli.trace_write": [(bfa.RunTrace, "write_csv")],
    "climate.parse_climate_csv": [(climate, "parse_climate_csv")],
    "fuzzy.build_type2_model": [(fuzzy, "build_type2_model")],
    "fuzzy.sample_fou": [(fuzzy, "sample_fou")],
    "irrigation.evaluate": [(irrigation.IrrigationFitness, "evaluate")],
    "bfa.run_bfa": [(bfa, "run_bfa"), (pareto, "run_bfa"), (cli, "run_bfa")],
    "bfa.swim_loop": [(bfa, "swim_loop")],
    "bfa.reproduce": [(bfa, "reproduce")],
    "bfa.eliminate_disperse": [(bfa, "eliminate_disperse")],
    "pareto.build_frontier": [(pareto, "build_frontier"),
                              (cli, "build_frontier")],
    "pareto.derive_seed": [(pareto, "derive_seed"), (cli, "derive_seed")],
    "pareto.solution_from_position": [(pareto, "solution_from_position"),
                                      (cli, "solution_from_position")],
    "pareto.compute_metrics": [(pareto, "compute_metrics"),
                               (cli, "compute_metrics")],
    "pareto.csv_read": [(pareto, "frontier_from_csv_text"),
                        (cli, "frontier_from_csv_text")],
    "pareto.csv_write": [(pareto, "frontier_to_csv_text")],
}


class Tracer:
    """Records spans for the callables in TRACED while installed."""

    def __init__(self) -> None:
        self.names = list(TRACED)
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self._stack = [-1]
        self._originals = []
        # swim_loop bookkeeping: raw fitness before the swim, evaluations
        # inside swim_loop, and how many of them beat the value before them
        self._swim_last = None
        self.swim_evals = 0
        self.swim_improving = 0

    def _wrap(self, name_id: int, original, swim: bool, evaluate: bool):
        name, start, end, parent, op = (self.name, self.start, self.end,
                                         self.parent, self.op)
        stack = self._stack
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(start)
            name.append(name_id)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(index)
            if swim:
                swarm, i = args[0], args[1]
                tracer._swim_last = float(swarm.raw_fitness[i])
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[index] = t0
                end[index] = t1
            if swim:
                tracer._swim_last = None
            elif evaluate and tracer._swim_last is not None:
                tracer.swim_evals += 1
                if result > tracer._swim_last:
                    tracer.swim_improving += 1
                tracer._swim_last = result
            return result
        return wrapper

    def install(self) -> None:
        for name_id, (span, bindings) in enumerate(TRACED.items()):
            wrappers = {}
            for owner, attr in bindings:
                original = owner.__dict__[attr]
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(
                        name_id, original, span == "bfa.swim_loop",
                        span == "irrigation.evaluate")
                self._originals.append((owner, attr, original))
                setattr(owner, attr, wrappers[id(original)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "op": np.frombuffer(self.op, dtype=np.int32)}

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent],
                              weights=duration[has_parent],
                              minlength=len(duration))
        own = duration - covered
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        total = np.bincount(a["name"], weights=duration, minlength=n)
        self_s = np.bincount(a["name"], weights=own, minlength=n)
        return {span: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(self_s[i])}
                for i, span in enumerate(self.names)}

    def write(self, path: str) -> None:
        """Write every span, plus the span-name table, as one .npz file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
