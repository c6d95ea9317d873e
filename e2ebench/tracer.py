"""Span tracing of repro's public functions, installed from outside.

Nothing inside ``src/repro`` changes: :func:`install` replaces each
function or method named in :data:`LAYERS` by a wrapper that opens a
span around the call, in the defining module, on every subclass that
overrides a traced method, and in every loaded ``repro`` module that
imported the function by name. Spans nest on one stack (the process's
main thread only), so a span's *self* time is its duration minus the
time its child spans cover.

Separately from those aggregates the tracer keeps ``covered_s``, the
wall time during which at least one span is open, from the moments the
stack leaves and returns to empty. The time in no span,
``unattributed_s``, is the pass wall time minus ``covered_s``. The
runner checks the self times plus ``unattributed_s`` against the pass
wall time that the parent process observed, and it fails the run if
any span is still open at the end or a span was closed out of order
(``mismatched``).

Per name the tracer keeps ``calls``, ``total_s``, ``self_s`` and
``busy_s`` (wall time with at least one span of that name open, so
recursion such as ``Sequential.forward`` -> ``Dense.forward`` is not
counted twice), plus free-form counters (rows, bytes, cache hits).
Spans are also kept, up to a cap, for a Chrome trace file.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time

__all__ = ["LAYERS", "Tracer", "install", "chrome_events"]

_now = time.perf_counter

#: Spans kept for the Chrome trace per process; aggregates cover all.
MAX_EVENTS = 100_000


class Tracer:
    """Single-threaded span stack with per-name aggregates."""

    def __init__(self, max_events: int = MAX_EVENTS) -> None:
        self.stats = {}        # name -> [calls, total_s, self_s, busy_s]
        self.counters = {}     # name -> number
        self.events = []       # (name, start_s, dur_s, depth)
        self.max_events = max_events
        self.kernel_stats = []  # KernelStats objects of every EventKernel
        self.covered_s = 0.0   # wall time with at least one span open
        self.mismatched = 0    # end() calls that did not close the innermost span
        self._stack = []       # [name, start, child_s]
        self._depth = {}       # name -> open spans of that name
        self._outer_start = 0.0
        self.thread = threading.get_ident()

    def begin(self, name: str) -> None:
        t = _now()
        if not self._stack:
            self._outer_start = t
        self._stack.append([name, t, 0.0])
        self._depth[name] = self._depth.get(name, 0) + 1

    def end(self, expected: str) -> float:
        t = _now()
        name, start, child = self._stack.pop()
        if name != expected:
            self.mismatched += 1
        dur = t - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        depth = self._depth[name] - 1
        self._depth[name] = depth
        if depth == 0:
            st[3] += dur
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.covered_s += t - self._outer_start
        if len(self.events) < self.max_events:
            self.events.append((name, start, dur, len(self._stack)))
        return dur

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def summary(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counters": dict(self.counters),
            "covered_s": self.covered_s,
            "open_spans": len(self._stack),
            "mismatched": self.mismatched,
            "kernel": {
                "decision_ticks": sum(s.decision_ticks for s in self.kernel_stats),
                "fast_forwarded": sum(s.fast_forwarded for s in self.kernel_stats),
            },
        }


# --- wrappers -----------------------------------------------------------------

def _wrap_call(tracer: Tracer, name: str, fn, after=None):
    tid = tracer.thread

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if threading.get_ident() != tid:
            return fn(*args, **kwargs)
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(name)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


class _TracedIter:
    """Opens a span around every ``next`` of a lazily evaluated stream."""

    def __init__(self, tracer: Tracer, name: str, inner, row_counter: str):
        self._tracer = tracer
        self._name = name
        self._inner = iter(inner)
        self._rows = row_counter

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        tracer.begin(self._name)
        try:
            item = next(self._inner)
        finally:
            tracer.end(self._name)
        tracer.count(self._rows)
        return item

    def close(self) -> None:
        close = getattr(self._inner, "close", None)
        if close is not None:
            close()


def _wrap_iter(tracer: Tracer, name: str, fn, after=None):
    row_counter = f"{name}.rows"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.begin(name)
        try:
            inner = fn(*args, **kwargs)
        finally:
            tracer.end(name)
        return _TracedIter(tracer, name, inner, row_counter)

    return wrapper


class _TracedContext:
    """Spans a context manager from ``__enter__`` to ``__exit__``."""

    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def __enter__(self):
        self._tracer.begin(self._name)
        try:
            return self._inner.__enter__()
        except BaseException:
            self._tracer.end(self._name)
            raise

    def __exit__(self, *exc_info):
        try:
            return self._inner.__exit__(*exc_info)
        finally:
            self._tracer.end(self._name)


def _wrap_context(tracer: Tracer, name: str, fn, after=None):
    tid = tracer.thread

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        if threading.get_ident() != tid:
            return inner
        return _TracedContext(tracer, name, inner)

    return wrapper


_WRAPPERS = {"call": _wrap_call, "iter": _wrap_iter, "context": _wrap_context}


# --- counters read at the span boundary -----------------------------------------

def _count_checkpoint_bytes(tracer, args, kwargs, path):
    tracer.count("serve.checkpoint.write_checkpoint.bytes", os.path.getsize(path))


def _count_cache_get(tracer, args, kwargs, result):
    tracer.count("harness.cache.get.hits" if result is not None
                 else "harness.cache.get.misses")


def _count_cells(tracer, args, kwargs, result):
    cells = args[0] if args else kwargs["cells"]
    tracer.count("harness.executor.execute_cells.cells", len(cells))


#: (span name, module, attribute path, wrapper kind, counter hook).
#: ``Class.method`` also wraps every loaded subclass that overrides it.
LAYERS = [
    ("core.state.encode", "repro.core.state", "StateEncoder.encode", "call", None),
    ("core.actions.mask", "repro.core.actions", "SchedulingActionSpace.mask", "call", None),
    ("rl.policies.act", "repro.rl.policies", "CategoricalPolicy.act", "call", None),
    ("nn.layers.forward", "repro.nn.layers", "Layer.forward", "call", None),
    ("nn.layers.backward", "repro.nn.layers", "Layer.backward", "call", None),
    ("rl.ppo.update", "repro.rl.ppo", "PPOAgent.update", "call", None),
    ("core.imitation.warm_start", "repro.core.imitation", "warm_start", "call", None),
    ("core.training.evaluate_scheduler", "repro.core.training",
     "evaluate_scheduler", "call", None),
    ("core.scheduler_env.step", "repro.core.scheduler_env", "SchedulerEnv.step", "call", None),
    ("sim.kernel.run", "repro.sim.kernel", "EventKernel.run", "call", None),
    ("sim.kernel.advance_to", "repro.sim.kernel", "EventKernel.advance_to", "call", None),
    ("baselines.schedule", "repro.baselines.base", "HeuristicScheduler.schedule", "call", None),
    ("core.agent.schedule", "repro.core.agent", "DRLScheduler.schedule", "call", None),
    ("serve.service.handle", "repro.serve.service", "SchedulerService.handle", "call", None),
    ("serve.service.checkpoint", "repro.serve.service",
     "SchedulerService.checkpoint", "call", None),
    ("sim.snapshot.snapshot_simulation", "repro.sim.snapshot",
     "snapshot_simulation", "call", None),
    ("serve.checkpoint.write_checkpoint", "repro.serve.checkpoint",
     "write_checkpoint", "call", _count_checkpoint_bytes),
    ("serve.replay.request", "repro.serve.replay", "ReplayClient._request", "call", None),
    ("workload.ingest.stream_normalize", "repro.workload.ingest.stream",
     "stream_normalize", "iter", None),
    ("workload.traces.iter_trace_window", "repro.workload.traces",
     "iter_trace_window", "iter", None),
    ("harness.cache.get", "repro.harness.cache", "ResultCache.get", "call", _count_cache_get),
    ("harness.cache.put", "repro.harness.cache", "ResultCache.put", "call", None),
    ("harness.cache.fingerprint", "repro.harness.cache", "fingerprint", "call", None),
    ("harness.executor.execute_cells", "repro.harness.executor",
     "execute_cells", "call", _count_cells),
    # atomic_write_bytes/_text/_json all write through atomic_writer, so
    # one span per written file.
    ("util.io.atomic_write", "repro.util.io", "atomic_writer", "context", None),
]


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _rebind(orig, wrapped) -> None:
    """Point every loaded repro module's reference to ``orig`` at ``wrapped``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap every :data:`LAYERS` target. Import the workload's modules first."""
    for name, module, target, kind, after in LAYERS:
        mod = importlib.import_module(module)
        make = _WRAPPERS[kind]
        if "." in target:
            cls_name, attr = target.split(".")
            for cls in _subclasses(getattr(mod, cls_name)):
                if attr in cls.__dict__:
                    setattr(cls, attr, make(tracer, name, cls.__dict__[attr], after))
        else:
            orig = getattr(mod, target)
            _rebind(orig, make(tracer, name, orig, after))

    # KernelStats is the kernel's own public counter object: keep a
    # reference to each so the fast-forward ratio covers every kernel.
    from repro.sim.kernel import EventKernel

    init = EventKernel.__init__

    @functools.wraps(init)
    def kernel_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tracer.kernel_stats.append(self.stats)

    EventKernel.__init__ = kernel_init


def chrome_events(events, pid: int, process_name: str, origin: float) -> list:
    """Chrome Trace Event Format records (``ph: X``) for one process."""
    out = [{"name": "process_name", "ph": "M", "pid": pid, "tid": 1,
            "args": {"name": process_name}}]
    for name, start, dur, _depth in events:
        out.append({"name": name, "ph": "X", "pid": pid, "tid": 1,
                    "ts": round((start - origin) * 1e6, 3),
                    "dur": round(dur * 1e6, 3)})
    return out
