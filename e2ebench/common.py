"""Small helpers shared by the benchmark runner and its child processes."""

from __future__ import annotations

import bisect
import hashlib
import math
import signal
import statistics
import time

import numpy as np


def quantile(values, q: float) -> float:
    """Nearest-rank quantile: the smallest value with a share >= q at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def latency_summary(samples_s) -> dict:
    """p50/p99 in milliseconds plus the sample count."""
    return {"n": len(samples_s),
            "p50_ms": quantile(samples_s, 0.50) * 1e3,
            "p99_ms": quantile(samples_s, 0.99) * 1e3}


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_file(path: str) -> str:
    with open(path, "rb") as fh:
        return digest_bytes(fh.read())


# --- host speed -----------------------------------------------------------------
#
# The benchmark's host shares its cores with other guests and changes speed
# (by up to 1.9x, see NOTES.md, "Host speed") from one tenth of a second to
# the next. Every benchmark process with a timed part runs a fixed piece of
# reference work every PROBE_INTERVAL_S of wall time, from a timer signal,
# on the thread and CPU that does the work. Each timing is then brought to
# the reference host's speed with the probes taken during it; the probes'
# own time is taken out first.

#: Seconds :func:`reference_work` takes on the reference host.
REFERENCE_S = 7.0e-5
PROBE_INTERVAL_S = 0.025


_REF_V = np.linspace(0.0, 1.0, 64)
_REF_M = np.outer(_REF_V, _REF_V[::-1]) / 64.0


def reference_work() -> float:
    """A fixed piece of CPU work that calls nothing in ``repro``.

    Like the program, it mixes interpreter work (integer arithmetic and
    dict updates) with small numpy operations, so its time depends on
    the host and the interpreter only.
    """
    counts = {}
    x = 12345
    for _ in range(300):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        k = x % 97
        counts[k] = counts.get(k, 0) + 1
    v = _REF_V
    for _ in range(4):
        v = np.tanh(_REF_M @ v + 0.01)
    return float(v[0]) + len(counts)


class SpeedProbe:
    """Times :func:`reference_work` every ``interval`` seconds (SIGALRM)."""

    def __init__(self, interval: float = PROBE_INTERVAL_S) -> None:
        self.interval = interval
        #: (start, seconds in all, seconds of the timed run), perf_counter clock
        self.probes = []

    def _probe(self, signum, frame) -> None:
        # The first run brings the reference work into the caches, so
        # the timed second run measures the host, not the cache misses
        # the program's own working set causes.
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        reference_work()
        t2 = time.perf_counter()
        self.probes.append((t0, t2 - t0, t2 - t1))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class HostSpeed:
    """Speed of the host over time, from the probes of one process."""

    def __init__(self, probes) -> None:
        probes = sorted(probes)
        self.starts = [t for t, _, _ in probes]
        self.ends = [t + d for t, d, _ in probes]
        self.speed = [REFERENCE_S / timed for _, _, timed in probes]
        self.cum = [0.0]
        for _, d, _ in probes:
            self.cum.append(self.cum[-1] + d)

    def probe_time(self, a: float, b: float) -> float:
        """Seconds of the probes that lie wholly inside [a, b]."""
        i = bisect.bisect_left(self.starts, a)
        j = bisect.bisect_right(self.ends, b)
        return self.cum[j] - self.cum[i] if j > i else 0.0

    def mean_speed(self, a: float, b: float) -> float:
        """Mean speed of the probes started in [a, b]; the nearest probe if none."""
        i = bisect.bisect_left(self.starts, a)
        j = bisect.bisect_right(self.starts, b)
        if j > i:
            return statistics.fmean(self.speed[i:j])
        mid = (a + b) / 2
        k = bisect.bisect_left(self.starts, mid)
        near = [n for n in (k - 1, k) if 0 <= n < len(self.starts)]
        return self.speed[min(near, key=lambda n: abs(self.starts[n] - mid))]

    def scaled(self, a: float, b: float) -> float:
        """Seconds [a, b] would have taken on the reference host."""
        return (b - a - self.probe_time(a, b)) * self.mean_speed(a, b)


def scaled_latency_summary(intervals, speed: HostSpeed) -> dict:
    """:func:`latency_summary` of (start, end) intervals at reference speed."""
    return latency_summary([speed.scaled(a, b) for a, b in intervals])
