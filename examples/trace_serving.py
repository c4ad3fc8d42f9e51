"""Trace a continuous-batching serving run and export it for Perfetto.

Run with::

    python examples/trace_serving.py

Serves a small deterministic decode workload with tracing enabled, then
writes ``trace_serving.json`` — drag it into https://ui.perfetto.dev (or
``chrome://tracing``) to see:

* one *process* per clock domain and engine run (e.g.
  ``continuous@2chips [virtual]``),
* one occupancy track per chip showing every decode iteration,
* a ``requests`` lane where each request's whole lifecycle (enqueue →
  admission → retirement or shed) renders as one async span, stitched
  across tracks by flow arrows,
* a ``fleet`` track with queue-depth and active-replica counters, and
* wall-clock processes for the compiler phases and plan-cache lookups.

The same trace is available from every entry point via ``--trace``::

    python -m repro.experiments fig27 --quick --trace fig27.json
    python -m repro.bench --quick --trace bench.json

See docs/observability.md for the full span taxonomy.
"""

from __future__ import annotations

from repro.core.constraints import FAST_CONSTRAINTS
from repro.models import opt_decode_session
from repro.obs import summarize, to_chrome_trace, validate_chrome_trace
from repro.experiments.common import trace_session
from repro.serving import ContinuousEngine, DecodeModel, PlanCache, decode_workload

OUT = "trace_serving.json"


def main() -> None:
    model = DecodeModel(
        name="opt-125m",
        decode_builder=opt_decode_session("125m", num_layers=1, kv_len=256),
        max_batch_size=4,
        prefill_chunk=64,
    )
    cache = PlanCache()
    engine = ContinuousEngine(
        model, num_chips=2, constraints=FAST_CONSTRAINTS, plan_cache=cache
    )

    # ``trace_session`` installs an ambient tracer for the block and exports
    # it on exit; every layer underneath — engine, worker pool, plan cache,
    # compiler — picks it up without any extra wiring.  The first
    # ``iteration_latency`` probe compiles the batch buckets, so the compile
    # phases and cache lookups land in the trace too (as wall-clock tracks).
    with trace_session(OUT) as tracer:
        unit = engine.iteration_latency(1)
        mean_iterations = model.ideal_iterations(72, 26)
        workload = decode_workload(
            model.name,
            num_requests=40,
            rate=8.0 * 2 / (mean_iterations * unit),
            seed=0,
            interactive_fraction=0.75,
            slo_seconds=lambda prompt, output: (
                1.5 * model.ideal_iterations(prompt, output) * unit
            ),
        )
        report = engine.run(workload)

    print(report.summary())
    print()
    print(summarize(tracer.events(), tracer.metrics.as_dict()))
    problems = validate_chrome_trace(to_chrome_trace(tracer))
    assert not problems, problems
    print(f"\nopen {OUT} in https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
