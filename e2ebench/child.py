"""One benchmark process: a timed workload pass, or the serving process.

Usage: ``python3 e2ebench/child.py SPEC.json`` with ``src`` on
``PYTHONPATH``. The spec names a ``mode``:

* ``leaderboard`` - one cold ``repro.cli leaderboard`` run;
* ``archive`` - ``repro.cli trace import --stream`` then the same
  windowed ``repro.cli sweep`` on a cold and then a warm result cache;
* ``serve`` - ``repro.cli serve`` until a client sends ``shutdown``.

From its first line the process times a host-speed probe every 25 ms
(:class:`common.SpeedProbe`). It imports repro and the modules the
command needs, notes the time it became ready (``CLOCK_MONOTONIC``,
shared with the parent, which noted when it spawned the process), runs
the command with its stdout sent to a file, writes a mark to a pipe the
parent reads as the pass starts and as it ends, and writes a JSON
report: wall and CPU time of the pass, peak RSS, the probes the parent
checks, the request latencies as measured and at reference host speed,
the host-speed probes, and, with ``trace``, the span aggregates and
spans of :mod:`tracer`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import resource
import sys
import time

from common import (HostSpeed, SpeedProbe, digest_file, latency_summary,
                    scaled_latency_summary)

#: Modules each command imports lazily; importing them here keeps
#: import time in set-up rather than in the timed pass.
SETUP_MODULES = {
    "leaderboard": ["repro.harness.leaderboard", "repro.harness.experiments",
                    "repro.harness.executor", "repro.core.training",
                    "repro.core.imitation", "repro.rl.ppo"],
    "archive": ["repro.workload.ingest", "repro.workload.traces",
                "repro.harness.sweeps", "repro.harness.library",
                "repro.harness.executor", "repro.harness.experiments",
                "repro.core.training", "repro.sim.kernel"],
    "serve": ["repro.serve", "repro.harness.leaderboard",
              "repro.harness.library", "repro.harness.experiments"],
}


def _cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _timed_outermost(fn, samples, depth):
    """Record the (start, end) of each outermost call of ``fn``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        depth[0] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            depth[0] -= 1
            if depth[0] == 0:
                samples.append((t0, time.perf_counter()))

    return wrapper


class Probes:
    """Always-on, low-cost counters the parent needs on every pass.

    ``samples`` are the (start, end) times of the workload's unit request: a
    ``SchedulerEnv.step`` call (leaderboard) or a heuristic
    ``schedule`` decision pass (archive).
    """

    def __init__(self, mode: str) -> None:
        self.samples = []
        self.ingest_stats = []
        self.caches = []
        depth = [0]
        if mode == "leaderboard":
            from repro.core.scheduler_env import SchedulerEnv

            SchedulerEnv.step = _timed_outermost(SchedulerEnv.step, self.samples, depth)
        elif mode == "archive":
            from repro.baselines.base import HeuristicScheduler
            from repro.harness.cache import ResultCache
            from repro.workload.ingest import stream as stream_mod

            todo = [HeuristicScheduler]
            while todo:
                cls = todo.pop()
                todo.extend(cls.__subclasses__())
                if "schedule" in cls.__dict__:
                    cls.schedule = _timed_outermost(cls.__dict__["schedule"],
                                                    self.samples, depth)
            stream_normalize = stream_mod.stream_normalize

            @functools.wraps(stream_normalize)
            def keep_stats(*args, **kwargs):
                self.ingest_stats.append(kwargs.get("stats"))
                return stream_normalize(*args, **kwargs)

            stream_mod.stream_normalize = keep_stats
            init = ResultCache.__init__

            @functools.wraps(init)
            def keep_cache(cache, *args, **kwargs):
                init(cache, *args, **kwargs)
                self.caches.append(cache)

            ResultCache.__init__ = keep_cache


def _run_cli(argv, out) -> None:
    import repro.cli

    with contextlib.redirect_stdout(out):
        code = repro.cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"repro.cli {' '.join(argv)} exited with {code}")


def _leaderboard(spec, probes, out) -> dict:
    _run_cli(spec["argv"], out)
    return {"items": len(probes.samples),
            "digest": digest_file(spec["leaderboard_json"])}


def _archive(spec, probes, out) -> dict:
    import_argv, cold_argv, warm_argv = spec["commands"]
    t0 = time.perf_counter()
    _run_cli(import_argv, out)
    t1 = time.perf_counter()
    _run_cli(cold_argv, out)
    t2 = time.perf_counter()
    cold = dict(probes.caches[-1].stats)
    _run_cli(warm_argv, out)
    warm = dict(probes.caches[-1].stats)
    t3 = time.perf_counter()
    stats = probes.ingest_stats[-1]
    with open(os.path.join(spec["shards"], "MANIFEST.json")) as fh:
        manifest_jobs = json.load(fh)["n_jobs"]
    with open(spec["cold_json"], "rb") as fh:
        cold_rows = fh.read()
    with open(spec["warm_json"], "rb") as fh:
        warm_rows = fh.read()
    return {"items": spec["rows"],
            "rows_scanned": stats.n_records,
            "rows_selected": stats.n_selected,
            "manifest_jobs": manifest_jobs,
            "cold_cache": cold, "warm_cache": warm,
            "warm_equals_cold": cold_rows == warm_rows,
            "phase_s": {"import": t1 - t0, "cold_sweep": t2 - t1,
                        "warm_sweep": t3 - t2},
            "digest": digest_file(spec["cold_json"])}


def main(argv) -> int:
    speed_probe = SpeedProbe()
    speed_probe.start()
    with open(argv[1]) as fh:
        spec = json.load(fh)
    mode = spec["mode"]
    import repro.cli  # noqa: F401 - set-up: what every command pays

    for name in SETUP_MODULES[mode]:
        importlib.import_module(name)
    probes = Probes(mode)
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    ready = time.perf_counter()
    os.chdir(spec["dir"])

    # The parent notes when each mark arrives: its own view of the
    # pass wall time, which the traced run reconciles against.
    marks = os.fdopen(spec["mark_fd"], "w", buffering=1)
    cpu0 = _cpu_s()
    with open("stdout.txt", "w") as out:
        marks.write("start\n")
        t0 = time.perf_counter()
        if mode == "serve":
            _run_cli(spec["argv"], out)
            result = {}
        else:
            result = (_leaderboard if mode == "leaderboard" else _archive)(
                spec, probes, out)
        t1 = time.perf_counter()
        marks.write("end\n")
    marks.close()
    speed_probe.stop()
    if probes.samples:
        speed = HostSpeed(speed_probe.probes)
        result["latency"] = latency_summary([b - a for a, b in probes.samples])
        result["latency_scaled"] = scaled_latency_summary(probes.samples, speed)
    report = {"ready": ready, "t0": t0, "t1": t1, "wall_s": t1 - t0,
              "speed_probes": speed_probe.probes,
              "cpu_s": _cpu_s() - cpu0,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              **result}
    if tracer is not None:
        report["trace"] = tracer.summary()
        report["events"] = tracer.events
    with open(spec["report"], "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
