"""End-to-end benchmark of repro: cold leaderboard, serve replay, archive sweep.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload leaderboard-cold --seed 1 \
        --seconds 30 --trace 0

One run sets the workload up for ``--seed`` (seeded inputs; for
``serve-replay`` also a PPO policy and the batch reference, neither of
them timed), then repeats a pass of a few seconds until ``--seconds``
have gone, at least :data:`MIN_PASSES` times. Every pass starts from
fresh stores in a fresh directory, runs in a fresh interpreter, and has
its outputs checked. Timings are reported at reference host speed
(:class:`common.HostSpeed`). The run prints one line per metric (median
over passes, unit, sample count, value as measured), the checks, an
environment stamp, and as its last line the JSON result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: span aggregates of :mod:`tracer` (median over traced
passes), the tracing overhead (traced over untraced wall time) and the
check that self times plus ``unattributed_s`` reconcile within 5% with
the pass wall time the parent observed, with no span left open or
closed out of order. It also writes a Chrome trace file under
``.e2ebench-out/``.

Everything the run writes stays under ``.e2ebench-work/`` (removed at
the end) and ``.e2ebench-out/`` (result and trace files) in the
checkout. See ``e2ebench/NOTES.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".e2ebench-work")
OUT = os.path.join(ROOT, ".e2ebench-out")

sys.path.insert(0, HERE)
from common import (HostSpeed, digest_bytes, latency_summary,  # noqa: E402
                    scaled_latency_summary)

MIN_PASSES = 3
#: Traced runs: at least this many untraced and this many traced passes.
MIN_TRACE_PASSES = 2
RECONCILE_TOLERANCE = 0.05
#: Fixed hash seed of every child interpreter (set iteration order).
HASH_SEED = "0"
CHILD_TIMEOUT_S = 150
#: Training seed of the served PPO policy (see ServeReplay).
POLICY_SEED = 0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def fresh_dir(parent: str, name: str) -> str:
    path = os.path.join(parent, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def spawn_child(spec: dict) -> subprocess.Popen:
    """Start ``child.py`` on ``spec``; a thread notes when its pass marks arrive."""
    read_fd, write_fd = os.pipe()
    spec["mark_fd"] = write_fd
    spec_path = os.path.join(spec["dir"], "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    log = open(os.path.join(spec["dir"], "child.log"), "w")
    try:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), spec_path],
            env=child_env(), stdout=log, stderr=subprocess.STDOUT,
            pass_fds=(write_fd,))
    except BaseException:
        os.close(read_fd)
        raise
    finally:
        log.close()
        os.close(write_fd)
    proc.marks = {}

    def read_marks():
        with os.fdopen(read_fd) as fh:
            for line in fh:
                proc.marks[line.strip()] = time.perf_counter()

    proc.mark_reader = threading.Thread(target=read_marks, daemon=True)
    proc.mark_reader.start()
    return proc


def finish_child(proc: subprocess.Popen, spec: dict) -> dict:
    """Wait for the child; its report plus the pass wall time seen from here."""
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.mark_reader.join()
    if code != 0:
        with open(os.path.join(spec["dir"], "child.log")) as fh:
            tail = fh.read()[-3000:]
        raise RuntimeError(f"{spec['mode']} process exited with {code}:\n{tail}")
    with open(spec["report"]) as fh:
        report = json.load(fh)
    report["observed_wall_s"] = proc.marks["end"] - proc.marks["start"]
    return report


def write_swf(path: str, n_rows: int, seed: int) -> None:
    """A submit-time-sorted SWF archive of ``n_rows`` jobs, fixed by ``seed``.

    The distributions are assumptions of this benchmark, not fitted to
    any archive: Poisson arrivals with a mean gap of 30 s (the import's
    ``--target-load`` rescales arrival times in any case), power-of-two
    widths from 1 to 32 processors on a 64-processor machine, and
    lognormal runtimes with a median of e^5.5 s (about 4 minutes) and
    sigma 1. See ``NOTES.md``.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    submit = np.cumsum(rng.exponential(30.0, size=n_rows)).astype(int)
    run = np.maximum(1, rng.lognormal(5.5, 1.0, size=n_rows)).astype(int)
    procs = 2 ** rng.integers(0, 6, size=n_rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"; Version: 2.2\n; Computer: e2ebench seed {seed}\n"
                 f"; MaxJobs: {n_rows}\n; MaxProcs: 64\n")
        for i in range(n_rows):
            fh.write(f"{i + 1} {submit[i]} 10 {run[i]} {procs[i]} -1 -1 "
                     f"{procs[i]} {run[i] * 2} -1 1 1 1 -1 1 1 -1 -1\n")


# --- workloads ------------------------------------------------------------------

class ChildPassWorkload:
    """A workload whose pass is one fresh ``child.py`` process."""

    mode = ""

    def __init__(self, seed: int, work: str) -> None:
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        pass

    def pass_spec(self) -> dict:
        raise NotImplementedError

    def check(self, report: dict) -> list:
        return []

    def run_pass(self, index: int, traced: bool) -> dict:
        d = fresh_dir(self.work, f"pass{index}")
        spec = {"mode": self.mode, "trace": traced, "dir": d,
                "report": os.path.join(d, "report.json"), **self.pass_spec()}
        spawned = time.perf_counter()
        report = finish_child(spawn_child(spec), spec)
        shutil.rmtree(d, ignore_errors=True)
        report["setup_s"] = report["ready"] - spawned
        speed = HostSpeed(report.pop("speed_probes"))
        report["scaled"] = {"setup_s": speed.scaled(spawned, report["ready"]),
                            "wall_s": speed.scaled(report["t0"], report["t1"]),
                            "latency": report.pop("latency_scaled")}
        report["host_speed"] = speed.mean_speed(spawned, report["t1"])
        report["checks"] = self.check(report)
        if traced:
            report["trace_processes"] = [trace_process(
                self.mode, report["trace"], report.pop("events"), report)]
        return report


class LeaderboardCold(ChildPassWorkload):
    """``repro.cli leaderboard``: PPO on quick + swf-fixture, two baselines."""

    mode = "leaderboard"
    item = "SchedulerEnv.step calls"
    request = "SchedulerEnv.step call"

    def pass_spec(self) -> dict:
        argv = ["leaderboard", "--scenarios", "quick", "swf-fixture",
                "--agents", "ppo", "--baselines", "edf,greedy-elastic",
                "--train-iterations", "1", "--train-traces", "2",
                "--val-traces", "1", "--traces", "2",
                "--seed", str(self.seed), "--base-seed", str(1000 + self.seed),
                "--cache-dir", "cache", "--policy-dir", "policies",
                "--out", "leaderboard.json"]
        return {"argv": argv, "leaderboard_json": "leaderboard.json"}


class Archive(ChildPassWorkload):
    """Stream-import a seeded SWF archive, then a windowed sweep cold and warm."""

    mode = "archive"
    item = "archive rows"
    request = "heuristic schedule() decision pass"
    ROWS = 80_000
    SUBSAMPLE = "0.1"
    WINDOW_JOBS = "250"

    def setup(self) -> None:
        self.swf = os.path.join(self.work, "archive.swf")
        write_swf(self.swf, self.ROWS, self.seed)

    def pass_spec(self) -> dict:
        sweep = ["sweep", "--scenario", "shards", "--window-jobs",
                 self.WINDOW_JOBS, "--schedulers", "edf,fifo,greedy-elastic",
                 "--engine", "event", "--cache-dir", "cache"]
        return {
            "commands": [
                ["trace", "import", "--stream", "--format", "swf",
                 "--input", self.swf, "--out", "shards", "--shard-jobs", "500",
                 "--subsample", self.SUBSAMPLE, "--target-load", "0.8",
                 "--seed", str(self.seed)],
                sweep + ["--out", "cold.json"],
                sweep + ["--out", "warm.json"],
            ],
            "rows": self.ROWS, "shards": "shards",
            "cold_json": "cold.json", "warm_json": "warm.json",
        }

    def check(self, r: dict) -> list:
        cells = r["cold_cache"]["misses"]
        return [
            ("rows scanned == rows generated", r["rows_scanned"] == self.ROWS),
            ("rows imported == rows selected",
             r["manifest_jobs"] == r["rows_selected"] > 0),
            ("cold pass computed every cell",
             r["cold_cache"]["hits"] == 0 and cells > 0),
            ("warm pass 100% cache hits",
             r["warm_cache"] == {"hits": cells, "misses": 0, "evictions": 0}),
            ("warm rows byte-identical to cold rows", r["warm_equals_cold"]),
        ]


class ServeReplay:
    """Closed-loop replay of 1,000 archive jobs into ``repro.cli serve``.

    The served policy is trained with a fixed seed: policies trained
    for one iteration from different seeds keep queues of quite
    different lengths, which would make the cost per submit depend on
    the seed. ``--seed`` varies the replayed archive.
    """

    item = "accepted submissions"
    request = "submit round trip"
    JOBS = 1000

    def __init__(self, seed: int, work: str) -> None:
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        import contextlib
        import io

        import repro.cli
        from repro.harness.leaderboard import AgentSpec, PolicyStore
        from repro.harness.library import get_scenario
        from repro.serve import batch_reference, trace_payloads

        swf = os.path.join(self.work, "serve.swf")
        write_swf(swf, self.JOBS, self.seed)
        self.trace = os.path.join(self.work, "serve.jsonl.gz")
        with contextlib.redirect_stdout(io.StringIO()):
            code = repro.cli.main([
                "trace", "import", "--stream", "--format", "swf", "--input", swf,
                "--out", self.trace, "--target-load", "0.8",
                "--seed", str(self.seed)])
        if code != 0:
            raise RuntimeError(f"trace import exited with {code}")
        scenario = get_scenario(self.trace)
        self.payloads = trace_payloads(scenario.trace(0))
        if len(self.payloads) != self.JOBS:
            raise RuntimeError(f"imported {len(self.payloads)} of {self.JOBS} jobs")
        self.policies = os.path.join(self.work, "policies")
        store = PolicyStore(self.policies)
        self.key = store.get_or_train(
            "swf-fixture", get_scenario("swf-fixture"),
            AgentSpec(algo="ppo", iterations=1, seed=POLICY_SEED,
                      n_train_traces=2, n_val_traces=1))
        self.batch_text = batch_reference(
            scenario.platforms, self.payloads, store.load_scheduler(self.key),
            max_ticks=scenario.max_ticks)

    def run_pass(self, index: int, traced: bool) -> dict:
        from repro.serve import ReplayClient, dumps_metrics

        d = fresh_dir(self.work, f"pass{index}")
        spec = {"mode": "serve", "trace": traced, "dir": d,
                "report": os.path.join(d, "report.json"),
                "argv": ["serve", "--scenario", self.trace,
                         "--policy-store", self.key, "--policy-dir", self.policies,
                         "--state-dir", "state"]}
        tracer = None
        if traced:
            import tracer as tracing

            tracer = tracing.Tracer()
        samples = []
        acked = [0]
        pumping = [False]

        class TimedClient(ReplayClient):
            def _request(self, msg):
                # Only the pass's requests are traced; hello and
                # shutdown belong to set-up and tear-down.
                traced = tracer is not None and pumping[0]
                if traced:
                    tracer.begin("serve.replay.request")
                t0 = time.perf_counter()
                try:
                    response = super()._request(msg)
                finally:
                    t1 = time.perf_counter()
                    if traced:
                        tracer.end("serve.replay.request")
                if msg.get("op") == "submit":
                    samples.append((t0, t1))
                    if response.get("ok"):
                        acked[0] += 1
                return response

        spawned = time.perf_counter()
        proc = spawn_child(spec)
        try:
            client = TimedClient(state_dir=os.path.join(d, "state"),
                                 connect_timeout=60.0, retry_interval=0.002)
            with client:
                hello = client._request({"op": "hello"})
                setup_s = time.perf_counter() - spawned
                if not hello.get("ok") or hello.get("n_submitted") != 0:
                    raise RuntimeError(f"unexpected hello: {hello}")
                # Client and server share one CPU during the pass, so a
                # round trip never waits for an idle vCPU to be woken,
                # which on a shared VM host goes through the hypervisor.
                cpus = os.sched_getaffinity(0)
                one_cpu = {min(cpus)}
                os.sched_setaffinity(proc.pid, one_cpu)
                os.sched_setaffinity(0, one_cpu)
                try:
                    cpu0 = time.process_time()
                    pumping[0] = True
                    t0 = time.perf_counter()
                    metrics = client.pump(self.payloads, drain=True)
                    t1 = time.perf_counter()
                    pumping[0] = False
                    client_cpu = time.process_time() - cpu0
                finally:
                    os.sched_setaffinity(0, cpus)
                client._request({"op": "shutdown"})
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        report = finish_child(proc, spec)
        shutil.rmtree(d, ignore_errors=True)
        served = dumps_metrics(metrics)
        # The server's probes measure the CPU both processes share
        # during the pass.
        speed = HostSpeed(report["speed_probes"])
        result = {
            "setup_s": setup_s, "wall_s": t1 - t0, "t0": t0, "t1": t1,
            "items": acked[0], "attempted": len(samples),
            "latency": latency_summary([b - a for a, b in samples]),
            "scaled": {"setup_s": speed.scaled(spawned, spawned + setup_s),
                       "wall_s": speed.scaled(t0, t1),
                       "latency": scaled_latency_summary(samples, speed)},
            "host_speed": speed.mean_speed(spawned, t1),
            "peak_rss_mb": report["peak_rss_mb"],
            "cpu_s": report["cpu_s"] + client_cpu,
            "digest": digest_bytes(served.encode("utf-8")),
            "served_equals_batch": served == self.batch_text,
            "checks": [
                ("every submit acked ok", acked[0] == len(samples) == self.JOBS),
            ],
        }
        if tracer is not None:
            result["trace"] = merge_traces(tracer.summary(), report["trace"])
            # The client's pass wall is measured here, around pump().
            client_wall = {"wall_s": t1 - t0, "observed_wall_s": t1 - t0}
            result["trace_processes"] = [
                trace_process("replay client", tracer.summary(), tracer.events,
                              client_wall),
                trace_process("serve", report["trace"], report["events"], report),
            ]
        return result


WORKLOADS = {
    "leaderboard-cold": LeaderboardCold,
    "serve-replay": ServeReplay,
    "archive": Archive,
}


# --- per-layer metrics ----------------------------------------------------------

def merge_traces(a: dict, b: dict) -> dict:
    stats = {k: list(v) for k, v in a["stats"].items()}
    for k, v in b["stats"].items():
        if k in stats:
            stats[k] = [x + y for x, y in zip(stats[k], v)]
        else:
            stats[k] = list(v)
    counters = dict(a["counters"])
    for k, v in b["counters"].items():
        counters[k] = counters.get(k, 0) + v
    kernel = {k: a["kernel"][k] + b["kernel"][k] for k in a["kernel"]}
    return {"stats": stats, "counters": counters, "kernel": kernel}


def trace_process(name: str, summary: dict, events: list, walls: dict) -> dict:
    """One traced process: its spans and how its time reconciles.

    ``unattributed_s`` is the process's own pass wall time minus the
    time during which any span was open. ``reconcile_error`` compares
    the self times plus ``unattributed_s`` with the pass wall time the
    parent process observed through the pass marks.
    """
    unattributed = walls["wall_s"] - summary["covered_s"]
    total_self = sum(v[2] for v in summary["stats"].values())
    observed = walls["observed_wall_s"]
    return {"name": name, "events": events, "unattributed_s": unattributed,
            "reconcile_error": abs(total_self + unattributed - observed) / observed,
            "open_spans": summary["open_spans"], "mismatched": summary["mismatched"]}


def layer_values(result: dict) -> dict:
    """Per-layer metric values of one traced pass (names as in BENCHMARK.json)."""
    trace = result["trace"]
    values = {}
    for name, (calls, _total, self_s, busy_s) in trace["stats"].items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
        values[f"{name}.busy_s"] = busy_s
    counters = trace["counters"]
    for name in ("workload.ingest.stream_normalize.rows",
                 "harness.executor.execute_cells.cells",
                 "serve.checkpoint.write_checkpoint.bytes"):
        values[name] = counters.get(name, 0)
    hits = counters.get("harness.cache.get.hits", 0)
    lookups = hits + counters.get("harness.cache.get.misses", 0)
    values["harness.cache.hit_ratio"] = hits / lookups if lookups else 0.0
    kernel = trace["kernel"]
    ticks = kernel["decision_ticks"] + kernel["fast_forwarded"]
    values["sim.kernel.fast_forward_ratio"] = (kernel["fast_forwarded"] / ticks
                                               if ticks else 0.0)
    wait = values.get("serve.replay.request.busy_s", 0.0)
    values["serve.replay.request.wait_s"] = wait
    values["serve.transport_s"] = (wait - values.get("serve.service.handle.busy_s", 0.0)
                                   if wait else 0.0)
    processes = result["trace_processes"]
    values["unattributed_s"] = sum(p["unattributed_s"] for p in processes)
    values["process.cpu_s"] = result["cpu_s"]
    values["trace.reconcile_error"] = max(p["reconcile_error"] for p in processes)
    return values


def span_faults(result: dict) -> int:
    """Spans left open at the end of a pass or closed out of order."""
    return sum(p["open_spans"] + p["mismatched"] for p in result["trace_processes"])


def write_chrome_trace(path: str, result: dict) -> None:
    import tracer as tracing

    processes = result["trace_processes"]
    origin = min((span[1] for p in processes for span in p["events"]),
                 default=0.0)
    events = []
    for pid, p in enumerate(processes, start=1):
        events.extend(tracing.chrome_events(p["events"], pid, p["name"], origin))
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


# --- environment stamp ----------------------------------------------------------

def _blas_threads():
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _filesystem(path: str) -> str:
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as fh:
            for line in fh:
                left, _, right = line.partition(" - ")
                mount_point = left.split()[4]
                if (path == mount_point or path.startswith(mount_point.rstrip("/") + "/")) \
                        and len(mount_point) > len(best):
                    best, fstype = mount_point, right.split()[0]
    except OSError:
        pass
    return fstype


def _source_digest() -> str:
    parts = []
    for base, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                with open(path, "rb") as fh:
                    parts.append(os.path.relpath(path, SRC).encode() + b"\0" + fh.read())
    return digest_bytes(b"\0".join(parts))[:16]


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown (not a git checkout)"


def env_stamp(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                     if k in os.environ},
        "state_dir_fs": _filesystem(WORK),
        "commit": _commit(),
        "src_digest": _source_digest(),
        "seed": seed,
        "pythonhashseed": HASH_SEED,
    }


# --- the run --------------------------------------------------------------------

def host_cpu_ticks():
    """(steal, total) CPU ticks of the host's vCPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def run_passes(workload, seconds: float, trace: bool) -> list:
    results = []
    start = time.perf_counter()
    while True:
        traced = trace and len(results) % 2 == 1
        before = host_cpu_ticks()
        result = workload.run_pass(len(results), traced)
        after = host_cpu_ticks()
        # Time the hypervisor gave to other guests while this VM's vCPUs
        # wanted to run: the one host disturbance a guest can observe.
        result["host_steal_share"] = (
            (after[0] - before[0]) / max(after[1] - before[1], 1)
            if before and after else None)
        results.append(result)
        elapsed = time.perf_counter() - start
        per_pass = elapsed / len(results)
        if trace:
            enough = len(results) >= 2 * MIN_TRACE_PASSES and len(results) % 2 == 0
        else:
            enough = len(results) >= MIN_PASSES
        if enough and elapsed + per_pass > seconds:
            return results


def end_to_end_values(results: list, scaled: bool) -> dict:
    """Medians over passes of the end-to-end metrics.

    With ``scaled`` the timings are those at reference host speed
    (``common.HostSpeed``), otherwise as measured.
    """
    timings = [r["scaled"] if scaled else r for r in results]
    return {
        "items_per_s": statistics.median(r["items"] / t["wall_s"]
                                         for r, t in zip(results, timings)),
        "setup_s": statistics.median(t["setup_s"] for t in timings),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "submit_p50_ms": statistics.median(t["latency"]["p50_ms"] for t in timings),
        "submit_p99_ms": statistics.median(t["latency"]["p99_ms"] for t in timings),
    }


def load_digests() -> dict:
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh)


def evaluate_checks(name: str, seed: int, results: list) -> tuple:
    """Per-pass checks plus output digests; returns (lines, attempted, failed)."""
    recorded = load_digests().get(name, {}).get(str(seed))
    reference = recorded or results[0]["digest"]
    items_ref = results[0]["items"]
    lines, attempted, failed = [], 0, 0
    for i, r in enumerate(results):
        checks = list(r["checks"])
        checks.append(("output digest == " + ("recorded digest" if recorded
                                              else "first pass"),
                       r["digest"] == reference))
        checks.append(("item count == first pass", r["items"] == items_ref))
        attempted += r.get("attempted", r["items"])
        bad = [c for c, ok in checks if not ok]
        if bad:
            failed += r["items"]
            lines.append(f"  pass {i}: FAILED {'; '.join(bad)}")
        else:
            lines.append(f"  pass {i}: ok ({'; '.join(c for c, _ in checks)})")
    return lines, max(attempted, 1), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"e2ebench: no repro sources under {SRC}; run from the root of "
              "a repro checkout", file=sys.stderr)
        return 2
    with open(bench_path) as fh:
        bench = json.load(fh)
    sys.path.insert(0, SRC)

    os.makedirs(OUT, exist_ok=True)
    work = fresh_dir(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        workload.setup()
        results = run_passes(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stamp = env_stamp(args.seed)
    untraced = [r for r in results if "trace" not in r]
    traced = [r for r in results if "trace" in r]

    lines, attempted, failed = evaluate_checks(args.workload, args.seed, results)
    out = {"workload": args.workload, "seed": args.seed, "env": stamp,
           "passes": [{k: v for k, v in r.items() if k != "trace_processes"}
                      for r in results]}
    if args.trace:
        metric_specs = bench["per_layer"]
        per_pass = [layer_values(r) for r in traced]
        overhead = (statistics.median(r["scaled"]["wall_s"] for r in traced)
                    / statistics.median(r["scaled"]["wall_s"] for r in untraced))
        values = {}
        for spec in metric_specs:
            name = spec["name"]
            if name == "trace.overhead_ratio":
                values[name] = overhead
            else:
                values[name] = statistics.median(p.get(name, 0) for p in per_pass)
        faults = sum(span_faults(r) for r in traced)
        reconciled = faults == 0 and all(
            p["trace.reconcile_error"] <= RECONCILE_TOLERANCE for p in per_pass)
        if not reconciled:
            failed += traced[0]["items"]
        lines.append(f"  reconcile: self times + unattributed_s vs the pass wall "
                     f"the parent observed, worst error "
                     f"{max(p['trace.reconcile_error'] for p in per_pass):.4%} "
                     f"(limit {RECONCILE_TOLERANCE:.0%}); spans left open or "
                     f"closed out of order: {faults}: "
                     f"{'ok' if reconciled else 'FAILED'}")
        chrome = os.path.join(OUT, f"{args.workload}-seed{args.seed}.trace.json")
        write_chrome_trace(chrome, traced[0])
        lines.append(f"  chrome trace: {os.path.relpath(chrome, ROOT)}")
        n_note = f"median of {len(traced)} traced passes"
    else:
        metric_specs = bench["end_to_end"]
        values = end_to_end_values(results, scaled=True)
        out["metrics_as_measured"] = end_to_end_values(results, scaled=False)
        n_note = f"median of {len(results)} passes, at reference host speed"
    out["metrics"] = values

    print(f"e2ebench {args.workload} seed={args.seed} "
          f"passes={len(results)} ({n_note}) trace={args.trace}")
    print("  env: " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    steal = [r["host_steal_share"] for r in results if r["host_steal_share"] is not None]
    if steal:
        print(f"  host steal share of CPU time during passes: median "
              f"{statistics.median(steal):.1%}, max {max(steal):.1%}")
    speeds = [r["host_speed"] for r in results]
    print(f"  host speed against the reference host, mean over each pass: median "
          f"{statistics.median(speeds):.3f}, min {min(speeds):.3f}, "
          f"max {max(speeds):.3f}")
    samples = results[0]["latency"]["n"]
    for spec in metric_specs:
        name = spec["name"]
        note = ""
        if name.startswith("submit_"):
            note = (f"  n={samples} {workload.request} samples per pass, "
                    f"{sum(r['latency']['n'] for r in results)} in run")
        elif name == "items_per_s":
            note = f"  n={len(results)} passes of {results[0]['items']} {workload.item}"
        elif not args.trace:
            note = f"  n={len(results)} passes"
        if not args.trace and name != "peak_rss_mb":
            note += f"  (as measured: {out['metrics_as_measured'][name]:.6g})"
        print(f"  {name:<44} {values[name]:>14.6g} {spec['unit']}{note}")
    if args.workload == "serve-replay":
        equal = all(r["served_equals_batch"] for r in results)
        out["served_equals_batch"] = equal
        print(f"  served_equals_batch: {str(equal).lower()} "
              "(known defect, see e2ebench/NOTES.md)")
    print("  checks:")
    for line in lines:
        print(line)
    for r in results:
        print(f"  digest {args.workload} seed={args.seed} {r['digest']}")
    suffix = "-trace" if args.trace else ""
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}{suffix}.json"), "w") as fh:
        json.dump(out, fh, indent=1, default=str)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {spec["name"]: {"value": values[spec["name"]],
                                         "unit": spec["unit"]}
                          for spec in metric_specs}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
