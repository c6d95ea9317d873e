"""Generic scheduler-comparison sweeps over paired traces.

The sweep grid is materialized as independent
:class:`~repro.harness.executor.EvalCell` specs — one per (scenario,
scheduler, trace seed) — and executed through
:func:`~repro.harness.executor.execute_cells`, which shards them over a
process pool (``workers > 1``) and/or serves them from a persistent
:class:`~repro.harness.cache.ResultCache`. Results are merged in cell
order, so the aggregated rows are byte-identical regardless of worker
count or cache state.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.harness.cache import ResultCache
from repro.harness.executor import EvalCell, SchedulerFactory, execute_cells
from repro.harness.results import Row, aggregate_rows
from repro.harness.scenario import Scenario

__all__ = ["evaluate_grid", "sweep_schedulers", "evaluate_windowed",
           "sweep_windowed"]


def evaluate_grid(
    scenarios: Dict[str, Scenario],
    schedulers: Dict[str, SchedulerFactory],
    n_traces: int = 3,
    base_seed: int = 1000,
    max_ticks: Optional[int] = None,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    backend=None,
) -> Dict[Tuple[str, str], list]:
    """Evaluate every scheduler on every scenario over paired traces.

    One :class:`~repro.harness.executor.EvalCell` per (scenario,
    scheduler, trace seed ``base_seed + i``), all run in one
    :func:`~repro.harness.executor.execute_cells` call. Returns
    ``(scenario name, scheduler name) -> [report per trace]`` in grid
    order (scenario-major, then scheduler).

    ``schedulers`` maps name -> factory, called once per cell: every
    cell's scheduler starts from the same state whatever the backend or
    worker count. Wrap a ready-made scheduler in
    :class:`~repro.harness.executor.InstanceFactory` (a fresh copy per
    cell); roster heuristics can use
    :class:`~repro.harness.executor.BaselineFactory`. ``workers > 1``
    shards the cells over a spawn-safe process pool, so factories must
    then be picklable module-level callables. ``cache`` makes completed
    cells persistent: a re-run recomputes only the cells whose inputs
    changed.

    A scheduler that consumes RNG across traces (the ``random``
    baseline, stochastic DRL decoding) therefore replays its stream from
    the seed on every trace instead of continuing it — that is what
    makes cells order-independent. Deterministic schedulers (the rest of
    the roster, greedy DRL) are unaffected.
    """
    cells: List[EvalCell] = []
    for scen_name, scenario in scenarios.items():
        ticks = max_ticks if max_ticks is not None else scenario.max_ticks
        for sched_name, factory in schedulers.items():
            for i in range(n_traces):
                cells.append(EvalCell(
                    scenario_name=scen_name,
                    scenario=scenario,
                    scheduler_name=sched_name,
                    factory=factory,
                    trace_index=i,
                    trace_seed=base_seed + i,
                    max_ticks=ticks,
                ))
    reports = execute_cells(cells, backend=backend, workers=workers,
                            cache=cache)
    grid: Dict[Tuple[str, str], list] = {}
    for cell, rep in zip(cells, reports):
        grid.setdefault((cell.scenario_name, cell.scheduler_name),
                        []).append(rep)
    return grid


def sweep_schedulers(
    scenarios: Dict[str, Scenario],
    schedulers: Dict[str, SchedulerFactory],
    **kwargs,
) -> List[Row]:
    """Aggregated rows of :func:`evaluate_grid`: one per (scenario,
    scheduler) with mean/std of the key metrics over the trace seeds.

    Keyword arguments, factory rules and the per-cell scheduler-state
    rule are those of :func:`evaluate_grid`.
    """
    grid = evaluate_grid(scenarios, schedulers, **kwargs)
    raw: List[Row] = []
    for (scen_name, sched_name), reports in grid.items():
        for i, rep in enumerate(reports):
            raw.append({
                "scenario": scen_name,
                "scheduler": sched_name,
                "trace": i,
                "miss_rate": rep.miss_rate,
                "mean_slowdown": rep.mean_slowdown,
                "mean_tardiness": rep.mean_tardiness,
                "mean_utilization": rep.mean_utilization,
                "throughput": rep.throughput,
            })
    return aggregate_rows(
        raw,
        group_by=["scenario", "scheduler"],
        metrics=["miss_rate", "mean_slowdown", "mean_tardiness",
                 "mean_utilization", "throughput"],
    )


def evaluate_windowed(
    path: str,
    schedulers: Dict[str, SchedulerFactory],
    window_jobs: int,
    platforms=None,
    core=None,
    engine: str = "tick",
    max_ticks: Optional[int] = None,
    trace_seed: int = 1000,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    backend=None,
) -> Dict[str, "object"]:
    """Evaluate schedulers over a trace container in windowed segments.

    The container at ``path`` is split into contiguous
    :class:`~repro.harness.library.TraceWindowScenario` cells of at most
    ``window_jobs`` jobs (one streaming planning pass); every
    (scheduler, window) pair becomes an independent
    :class:`~repro.harness.executor.EvalCell` streaming only its window,
    so peak memory is bounded by the window size however large the
    archive. Per-window :class:`~repro.sim.metrics.SegmentMetrics` are
    reduced in window order with
    :func:`~repro.sim.metrics.merge_segments` — an exact deterministic
    reduction, independent of backend, worker count, and cache state.

    Returns scheduler name -> merged
    :class:`~repro.sim.metrics.MetricsReport`.
    """
    from repro.harness.library import plan_trace_windows
    from repro.sim.metrics import merge_segments

    windows = plan_trace_windows(
        path, window_jobs, platforms=platforms, core=core,
        max_ticks=max_ticks, engine=engine)
    cells: List[EvalCell] = []
    for sched_name, factory in schedulers.items():
        for w in windows:
            cells.append(EvalCell(
                scenario_name=f"{path}[{w.window_index}/{w.n_windows}]",
                scenario=w,
                scheduler_name=sched_name,
                factory=factory,
                trace_index=w.window_index,
                trace_seed=trace_seed,
                max_ticks=w.max_ticks,
            ))
    segments = execute_cells(cells, backend=backend, workers=workers,
                             cache=cache)
    reports: Dict[str, object] = {}
    n = len(windows)
    for i, sched_name in enumerate(schedulers):
        reports[sched_name] = merge_segments(segments[i * n:(i + 1) * n])
    return reports


def sweep_windowed(
    path: str,
    schedulers: Dict[str, SchedulerFactory],
    window_jobs: int,
    scenario_name: Optional[str] = None,
    **kwargs,
) -> List[Row]:
    """Windowed sweep rows: one per scheduler, merged across windows.

    Thin row-shaping wrapper over :func:`evaluate_windowed` matching the
    ``sweep_schedulers`` row vocabulary, so the CLI table/JSON emitters
    work unchanged.
    """
    reports = evaluate_windowed(path, schedulers, window_jobs, **kwargs)
    name = scenario_name if scenario_name is not None else str(path)
    rows: List[Row] = []
    for sched_name, rep in reports.items():
        rows.append({
            "scenario": name,
            "scheduler": sched_name,
            "window_jobs": window_jobs,
            "n_jobs": rep.num_jobs,
            "miss_rate": rep.miss_rate,
            "mean_slowdown": rep.mean_slowdown,
            "mean_tardiness": rep.mean_tardiness,
            "mean_utilization": rep.mean_utilization,
            "throughput": rep.throughput,
        })
    return rows
