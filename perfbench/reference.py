"""A fixed reference loop, timed in small units beside the timed calls, so
that every call's time can be stated at one machine speed.

Co-tenants on a shared host slow this process by up to a third, in stretches
from milliseconds to minutes, separately on each CPU. A unit of the loop
needs more CPU time when a co-tenant slows its CPU, so a call's raw time
divided by the mean unit time around it is steady from run to run. Timings
are reported as that ratio times UNIT_SECONDS: seconds at the speed where one
unit takes UNIT_SECONDS.

Units are timed in one of two ways, chosen by how long a call takes:

- Bursts: after every call, and around every set-up probe, the benchmark
  process itself runs a burst of units. Calls much shorter than the load
  stays correlated (about 1-2 s) see the same load as the bursts beside them.
- Samplers: for calls of a second or more, a burst beside the call cannot see
  the load during it. One sampler process per CPU the benchmark uses runs
  units at nice 19 instead: it gets the CPU a few milliseconds at a time,
  about 50 times a second, all through each call. It is not used for short
  calls: they block on files often, and each wake-up can wait for the
  sampler's slice to end.

The loop mixes interpreter work with numpy calls on 6-element arrays, like
the optimizer's inner loop. Changing it, UNIT_SECONDS or the window rule
rescales every timing the benchmark reports, so none may change between two
commits that are compared.

    python3 perfbench/reference.py OUT CPU    # one sampler; stop it with SIGTERM
"""

from __future__ import annotations

import bisect
import os
import signal
import struct
import subprocess
import sys
from time import perf_counter, process_time

import numpy as np

# About the fastest unit on a 2-core x86-64 cloud sandbox (Python 3, numpy),
# so that scaled timings read close to raw ones on an idle machine.
UNIT_SECONDS = 0.00018
# Units counted for a call: those that ended within PAD_SECONDS of it, or a
# window widened until it holds MIN_UNITS of them on every CPU.
PAD_SECONDS = 0.25
MIN_UNITS = 10
# Calls at least this long are timed against samplers, shorter ones against
# bursts of BURST_UNITS after every call (about 9 ms) and PROBE_UNITS on
# either side of every probe.
LONG_CALL_SECONDS = 1.0
BURST_UNITS = 45
PROBE_UNITS = 270
RECORD = struct.Struct("dd")  # unit end (perf_counter), unit CPU seconds


def one_unit() -> float:
    x = np.arange(6.0)
    total = 0.0
    for _ in range(30):
        y = np.clip(x * 1.0001 + 0.5, 0.0, 10.0)
        total += float(y @ y)
        total += sum(k * k for k in range(10))
    return total


def sample(path: str, cpu: int) -> None:
    """Run units on `cpu` at nice 19 until SIGTERM or until the parent dies,
    appending records to `path`. Prints one line once it is sampling."""
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    parent = os.getppid()
    os.sched_setaffinity(0, {cpu})
    os.nice(19)
    records = []
    with open(path, "wb", buffering=0) as out:
        print("ready", flush=True)
        while not stopping:
            c0 = process_time()
            one_unit()
            records.append(RECORD.pack(perf_counter(), process_time() - c0))
            if len(records) >= 50:
                out.write(b"".join(records))
                records = []
                if os.getppid() != parent:  # killed without a SIGTERM to us
                    break
        out.write(b"".join(records))


class Units:
    """Timed units, one list per CPU; `unit_seconds` gives their mean time
    around an interval."""

    def __init__(self) -> None:
        self.ends: list[list[float]] = []
        self.costs: list[list[float]] = []

    def after_call(self) -> None:
        """Called after every timed call."""

    def around_probe(self, probe):
        """Run `probe()` and return its result."""
        return probe()

    def unit_seconds(self, start: float, end: float) -> float:
        """Mean CPU seconds of one unit around [start, end], averaged over
        the CPUs."""
        means = []
        for ends, costs in zip(self.ends, self.costs):
            if len(ends) < MIN_UNITS:
                raise RuntimeError("the reference units got no CPU time")
            pad = PAD_SECONDS
            while True:
                lo = bisect.bisect_left(ends, start - pad)
                hi = bisect.bisect_right(ends, end + pad)
                if hi - lo >= MIN_UNITS or (lo == 0 and hi == len(ends)):
                    break
                pad *= 2
            means.append(sum(costs[lo:hi]) / (hi - lo))
        return sum(means) / len(means)

    def scale(self, seconds: float, start: float, end: float) -> float:
        """`seconds` measured over [start, end], at reference speed."""
        return seconds * UNIT_SECONDS / self.unit_seconds(start, end)


class Bursts(Units):
    """Units run in this process after every call and around every probe."""

    def __init__(self) -> None:
        super().__init__()
        self.ends.append([])
        self.costs.append([])

    def burst(self, units: int) -> None:
        for _ in range(units):
            c0 = process_time()
            one_unit()
            self.costs[0].append(process_time() - c0)
            self.ends[0].append(perf_counter())

    def after_call(self) -> None:
        self.burst(BURST_UNITS)

    def around_probe(self, probe):
        self.burst(PROBE_UNITS)
        result = probe()
        self.burst(PROBE_UNITS)
        return result


class Sampler(Units):
    """One sampler process per CPU while the `with` block runs."""

    def __init__(self, cpus: tuple[int, ...], directory: str) -> None:
        super().__init__()
        self.cpus = cpus
        self.paths = [os.path.join(directory, f"speed-cpu{cpu}.bin")
                      for cpu in cpus]
        self.procs: list[subprocess.Popen] = []

    def __enter__(self) -> "Sampler":
        try:
            for cpu, path in zip(self.cpus, self.paths):
                proc = subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), path, str(cpu)],
                    stdout=subprocess.PIPE, text=True)
                self.procs.append(proc)
                # timing starts once it samples, not while it imports
                if proc.stdout.readline().strip() != "ready":
                    raise RuntimeError("the reference sampler did not start")
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._stop()
        for path in self.paths:
            with open(path, "rb") as fh:
                data = fh.read()
            records = list(RECORD.iter_unpack(data[:len(data)
                                                   - len(data) % RECORD.size]))
            self.ends.append([end for end, _ in records])
            self.costs.append([cost for _, cost in records])

    def _stop(self) -> None:
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


if __name__ == "__main__":
    sample(sys.argv[1], int(sys.argv[2]))
