#!/usr/bin/env python
"""Real-trace study: ingest an SWF archive, compare schedulers on it,
and extrapolate beyond the archive with the calibrated generator.

Uses the bundled hermetic fixture, so it runs offline in seconds::

    python examples/real_trace_study.py

Swap ``swf_fixture_path()`` for any Parallel Workloads Archive log
(``*.swf`` or ``*.swf.gz``) to study a real system.
"""

import numpy as np

from repro.harness import TraceBackedScenario, sweep_schedulers
from repro.harness.executor import BaselineFactory
from repro.harness.tables import format_table
from repro.sim.platform import Platform
from repro.workload.generator import generate_trace
from repro.workload.ingest import IngestConfig, parse_swf, record_stats, swf_fixture_path


def main() -> None:
    # 1. Parse the archive: header meta + raw records, sentinels intact.
    meta, records = parse_swf(swf_fixture_path())
    stats = record_stats(records)
    print(f"archive: {meta.source}")
    print(f"  MaxProcs={meta.max_procs}, {stats['n_usable']} usable jobs, "
          f"median runtime {stats['runtime_p50_s']:.0f}s, "
          f"widest job {stats['width_max']:.0f} procs\n")

    # 2. Normalize into a trace-backed scenario: 2-minute ticks, arrivals
    #    rescaled to 80% offered load, deadlines/classes synthesized.
    scenario = TraceBackedScenario.from_swf(
        swf_fixture_path(),
        ingest=IngestConfig(tick_seconds=120.0, target_load=0.8),
        platforms=[Platform("cpu", 16, 1.0), Platform("gpu", 6, 1.0)],
        max_ticks=400)
    print(f"scenario: load={scenario.load:.2f}, "
          f"horizon={scenario.workload.horizon} ticks, "
          f"classes={[c.name for c in scenario.workload.classes]}")

    # 3. Compare the heuristic roster on paired trace variants (same
    #    arrivals and demands; seeded deadline synthesis per trace).
    rows = sweep_schedulers(
        {"swf-0.8": scenario},
        {name: BaselineFactory(name)
         for name in ("fifo", "sjf", "edf", "tetris", "greedy-elastic")},
        n_traces=3)
    print(format_table(rows, title="baseline roster on the imported trace"))

    # 4. Extrapolate: the calibrated surrogate samples synthetic traces
    #    with the archive's fitted statistics at any length or load.
    synth = generate_trace(scenario.workload, scenario.platforms,
                           np.random.default_rng(0), load=scenario.load)
    print(f"\ncalibrated surrogate sampled {len(synth)} jobs over "
          f"{scenario.workload.horizon} ticks "
          f"(archive had {len(scenario.trace(0))}) — this is what "
          f"scenario.train_env() trains on.")


if __name__ == "__main__":
    main()
