"""Reducers, the clock and speed reference, and run bookkeeping.

The reducers here are the benchmark's own: they never call the
program's metric code, so they can check it.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import os
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence

import numpy as np

#: Every duration behind an end-to-end metric is read from this clock:
#: the CPU time of the main thread, the only one that works (BLAS is
#: pinned to one thread).  It leaves out the time the scheduler gives
#: other tasks and, under a hypervisor with steal-time accounting, the
#: time the host takes the virtual CPU away.  The process clock would do
#: as well, but Linux reads it only to the scheduler tick (4 ms) while a
#: process-wide CPU timer, as SpeedReference.sampling arms, is running.
clock = time.thread_time

#: The speed probe: a fixed piece of interpreter work and a fixed
#: float64 -> float16 -> float32 cast, the two kinds of work the
#: workloads spend their time on (the simulator's Python, the kernels'
#: casts), repeated PROBE_REPEATS times: about 6 ms on a 2 GHz x86-64
#: core.  A shorter probe follows the workload less closely: at 1 ms the
#: probe's own noise is larger than the speed changes it should track.
PROBE_LOOP = 8000
PROBE_REPEATS = 8
#: The cast writes into buffers of its own: an allocation of this size
#: would map fresh pages, whose cost depends on the program's heap.
PROBE_ARRAY = np.linspace(-4.0, 4.0, 1 << 16)
_PROBE_F16 = np.empty(PROBE_ARRAY.shape, np.float16)
_PROBE_F32 = np.empty(PROBE_ARRAY.shape, np.float32)
#: The probe's duration at reference speed.  A reported duration is the
#: measured one times PROBE_REF_S / (the probe's duration at that
#: moment), so it reads in seconds of a host running at reference speed.
PROBE_REF_S = 6.4e-3
#: CPU seconds between two probes while sampling (about 6% of the time).
SAMPLE_EVERY_S = 0.1


def _probe_work() -> None:
    for _ in range(PROBE_REPEATS):
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i & 7
        np.copyto(_PROBE_F16, PROBE_ARRAY, casting="unsafe")
        np.copyto(_PROBE_F32, _PROBE_F16)


class SpeedReference:
    """The host's speed, sampled while the workload runs.

    A shared host's speed moves by up to a factor of two from one second
    to the next while the process keeps its CPU: its neighbours share the
    cores' caches and memory.  The probe slows with the workload, so a
    duration divided by the probe's duration at the same moment no longer
    follows the neighbours.

    While :meth:`sampling`, a CPU-time timer (``SIGPROF``) interrupts the
    workload every SAMPLE_EVERY_S and runs the probe, the benchmark's own
    code on its own data, in the signal handler; Python runs the handler
    between two bytecodes of the main thread, so the program's state is
    never touched.  Timed intervals are read with :meth:`now`, the clock
    minus the time spent probing, so no probe counts in any interval.
    """

    def __init__(self) -> None:
        #: :meth:`now` at each probe, and the probe's duration.
        self.times: List[float] = []
        self.probes: List[float] = []
        #: Clock seconds spent probing so far.
        self.excluded = 0.0

    def now(self) -> float:
        """The clock without the time spent probing."""
        while True:
            before = self.excluded
            t = clock()
            if self.excluded == before:  # no probe ran in between
                return t - before

    def probe(self, *_signal) -> None:
        """Run the probe once (also the ``SIGPROF`` handler)."""
        start = clock()
        _probe_work()
        end = clock()
        self.excluded += end - start
        self.times.append(end - self.excluded)
        self.probes.append(end - start)

    @contextlib.contextmanager
    def sampling(self) -> Iterator[None]:
        self.probe()
        previous = signal.signal(signal.SIGPROF, self.probe)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, previous)
            self.probe()

    def probe_at(self, t: float) -> float:
        """The probe's duration at time ``t`` (of :meth:`now`),
        interpolated between the probes either side of it."""
        k = bisect.bisect_left(self.times, t)
        if k == 0:
            return self.probes[0]
        if k == len(self.times):
            return self.probes[-1]
        t0, t1 = self.times[k - 1], self.times[k]
        p0, p1 = self.probes[k - 1], self.probes[k]
        return p0 + (p1 - p0) * (t - t0) / (t1 - t0) if t1 > t0 else p1

    def scale(self, start: float, end: float) -> float:
        """The interval ``[start, end)`` of :meth:`now`, in seconds at
        reference speed: each piece between two probes is scaled by the
        probe's duration in the middle of that piece."""
        lo = bisect.bisect_right(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        cuts = [start, *self.times[lo:hi], end]
        return sum(
            (b - a) * PROBE_REF_S / self.probe_at((a + b) / 2)
            for a, b in zip(cuts, cuts[1:])
        )

    def summary(self) -> dict:
        probes = self.probes
        return {
            "ref_s": PROBE_REF_S,
            "every_s": SAMPLE_EVERY_S,
            "n": len(probes),
            "median": median(probes) if probes else None,
            "min": min(probes) if probes else None,
            "max": max(probes) if probes else None,
        }


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (the same definition NumPy uses by
    default), written out so it can check the program's reducer."""
    if not values:
        raise ValueError("percentile of an empty sample")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    return xs[lo] + (xs[hi] - xs[lo]) * frac


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    """Equal up to floating-point summation order."""
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Phase:
    """Units one phase of a run attempted, and how they ended.

    ``failed`` counts units whose call raised or failed a check;
    ``refused`` counts simulated requests the program ended as failed,
    rejected or shed (outcomes it is designed to produce, which still
    count against ``ok_ratio``).
    """

    name: str
    attempted: int = 0
    failed: int = 0
    refused: int = 0


@dataclass
class RunLog:
    """Everything a run reports besides its metrics."""

    phases: Dict[str, Phase] = field(default_factory=dict)
    checks: Dict[str, bool] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    probes: List[float] = field(default_factory=list)

    def phase(self, name: str) -> Phase:
        if name not in self.phases:
            self.phases[name] = Phase(name)
        return self.phases[name]

    def check(self, name: str, ok: bool) -> bool:
        """Record a check; a name seen twice must pass every time."""
        self.checks[name] = bool(ok) and self.checks.get(name, True)
        return bool(ok)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values())

    def totals(self) -> Dict[str, int]:
        return {
            "attempted": sum(p.attempted for p in self.phases.values()),
            "failed": sum(p.failed for p in self.phases.values()),
            "refused": sum(p.refused for p in self.phases.values()),
        }

    def probe(self, calibrate) -> None:
        """One machine-drift probe sample (seconds)."""
        self.probes.append(calibrate())

    def conditions(self) -> dict:
        try:
            affinity = sorted(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            affinity = None
        probes = self.probes
        return {
            "nproc": os.cpu_count(),
            "affinity": affinity,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "probe_s": {
                "n": len(probes),
                "median": median(probes) if probes else None,
                "min": min(probes) if probes else None,
                "max": max(probes) if probes else None,
                "spread": spread(probes) if len(probes) >= 2 else None,
            },
            "phases": {
                p.name: {"attempted": p.attempted, "failed": p.failed, "refused": p.refused}
                for p in self.phases.values()
            },
            "checks": self.checks,
            "samples": self.samples,
            **self.notes,
        }
