"""Benchmark for the parallel compilation engine (Figure 16 companion).

Compiles the transformer workload (full BERT-large at its largest registry
batch) with ``jobs`` in {1, 2, 4} and checks the two properties the engine
promises:

* **zero plan divergence** — every parallel compile produces exactly the
  serial compile's Pareto frontiers, schedule and program;
* **compile-time speedup** — on hosts with enough cores, ``jobs=4`` is at
  least 1.5x faster than serial.  The threshold scales down on smaller hosts
  (a single-core container cannot speed anything up, so there only a bounded
  parallelism overhead is asserted).
"""

import os

from conftest import run_once

from repro.core.constraints import SearchConstraints
from repro.experiments import fig16_parallel
from repro.models import get_entry

#: The transformer workload the speedup target is defined on.
TRANSFORMER_MODEL = "bert"
#: Large enough for the speedup to show over the process pool's fixed cost
#: (forking the workers, shipping plans back): the full model at its largest
#: batch, with denser core-count sampling.  Its operators dedupe to 11
#: searches of 7-16 ms each, 0.09-0.12 s in all, so on a 2-core host that
#: fixed cost still weighs on the ratio.
WORKLOAD = dict(
    models=(TRANSFORMER_MODEL,),
    batch_sizes=(max(get_entry(TRANSFORMER_MODEL).batch_sizes),),
    constraints=SearchConstraints(core_count_samples=16),
)


def _speedup_floor(host_cpus: int) -> float:
    """Expected jobs=4 speedup given the host's core count."""
    if host_cpus >= 3:
        return 1.5
    if host_cpus == 2:
        return 1.1
    # Single core: parallelism cannot help; only bounded overhead is expected.
    return 0.3


def test_fig16_parallel_transformer(benchmark):
    rows = run_once(benchmark, fig16_parallel.run, jobs_grid=(1, 2, 4), **WORKLOAD)
    assert rows
    assert all(row["status"] == "ok" for row in rows)
    # Zero plan divergence, for every jobs setting.
    assert all(row["plans_match"] for row in rows)

    by_jobs = {row["jobs"]: row for row in rows if row["model"] == TRANSFORMER_MODEL}
    assert set(by_jobs) == {1, 2, 4}
    host_cpus = os.cpu_count() or 1
    speedup_at_4 = by_jobs[4]["speedup_vs_serial"]
    if speedup_at_4 < _speedup_floor(host_cpus):
        # Wall-clock speedups on shared CI runners are noisy (throttling,
        # neighbours); one undisturbed re-measurement separates noise from a
        # real scaling regression.
        retry = fig16_parallel.run(jobs_grid=(1, 4), **WORKLOAD)
        assert all(row["plans_match"] for row in retry)
        speedup_at_4 = max(
            speedup_at_4,
            *(row["speedup_vs_serial"] for row in retry if row["jobs"] == 4),
        )
    assert speedup_at_4 >= _speedup_floor(host_cpus), (
        f"jobs=4 speedup {speedup_at_4:.2f}x below the "
        f"{_speedup_floor(host_cpus):.2f}x floor for a {host_cpus}-core host"
    )
    # The sweep records where it ran so regressions are diagnosable.
    assert all(row["host_cpus"] == host_cpus for row in rows)
