"""Benchmark regenerating Figure 27: continuous vs static decode batching."""

from conftest import replay_across_jobs, run_once

from repro.experiments import fig27_continuous
from repro.obs import KIND_ASYNC, KIND_SPAN, to_chrome_trace, validate_chrome_trace


def by_policy(rows):
    grouped = {}
    for row in rows:
        grouped.setdefault(row["chips"], {})[row["policy"]] = row
    return grouped


def test_fig27_continuous(benchmark):
    rows = run_once(benchmark, fig27_continuous.run, quick=True)
    assert rows
    # Both policies run on every fleet size, on identical workloads.
    grouped = by_policy(rows)
    assert len(grouped) >= 2
    for fleet, policies in grouped.items():
        static, continuous = policies["static"], policies["continuous"]
        # The headline claim: continuous batching achieves strictly higher
        # goodput-under-SLO than static batching on the same fleet.
        assert continuous["goodput_rps"] > static["goodput_rps"]
        assert continuous["slo_met"] > static["slo_met"]
        # Iteration-level retirement stops padding out finished requests, so
        # the same tokens take fewer decode iterations...
        assert continuous["iterations"] < static["iterations"]
        # ...and time-to-first-token collapses (admission at iteration
        # boundaries instead of behind a full static batch).
        assert continuous["ttft_p99_ms"] < static["ttft_p99_ms"]
    # The SLO-aware policy is actually exercised by the quick grid: traffic
    # is preempted and the single-chip fleet sheds hopeless requests.
    assert any(row["preempted"] > 0 for row in rows if row["policy"] == "continuous")
    assert any(row["shed"] > 0 for row in rows if row["policy"] == "continuous")
    # Autoscaling grows the multi-chip fleet only under backlog.
    assert any(row["scale_ups"] > 0 for row in rows if row["chips"] > 1)
    # Per-bucket programs compile exactly once across the whole sweep and
    # every decode iteration afterwards is a plan-cache hit.
    assert sum(row["warm_compiles"] for row in rows) == rows[0]["warm_compiles"] > 0
    assert all(row["recompiles"] == 0 for row in rows)


def test_fig27_reproducible_across_jobs():
    """Rows AND virtual trace streams are bit-identical serial vs jobs=2.

    Everything the engine schedules on is virtual time derived from the
    deterministic simulator, and the parallel compilation engine guarantees
    identical programs at any width — so the entire report, floats included,
    must match exactly.  The same holds for the traced view: the
    virtual-domain event stream is a pure function of the workload (only
    wall-domain compile/cache events may differ between widths).
    """
    serial, serial_tracer = replay_across_jobs(fig27_continuous.run)

    # The trace carries exactly one request-lifecycle span per request of
    # each engine run (completed and shed alike), on that run's request lane.
    lifecycles: dict[str, int] = {}
    for event in serial_tracer.virtual_events():
        if event.kind == KIND_ASYNC and event.name == "request":
            lifecycles[event.group] = lifecycles.get(event.group, 0) + 1
    for row in serial:
        group = f"{row['policy']}@{row['chips']}chips"
        assert lifecycles[group] == row["completed"] + row["shed"] == row["requests"]

    # One occupancy track per chip of each fleet, named chip0..chipN-1.
    iteration_tracks: dict[str, set[str]] = {}
    for event in serial_tracer.virtual_events():
        if event.kind == KIND_SPAN and event.name == "iteration":
            iteration_tracks.setdefault(event.group, set()).add(event.track_name)
    for row in serial:
        group = f"{row['policy']}@{row['chips']}chips"
        assert iteration_tracks[group] == {
            f"chip{index}" for index in range(row["chips"])
        }

    # The whole traced run exports schema-valid Chrome trace JSON.
    assert validate_chrome_trace(to_chrome_trace(serial_tracer)) == []
