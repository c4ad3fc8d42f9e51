"""Benchmark regenerating Figure 29: goodput under deterministic chaos."""

from conftest import replay_across_jobs, run_once

from repro.experiments import fig29_chaos
from repro.obs import KIND_INSTANT, to_chrome_trace, validate_chrome_trace


def by_scenario(rows):
    return {row["scenario"]: row for row in rows}


def test_fig29_chaos(benchmark):
    rows = run_once(benchmark, fig29_chaos.run, quick=True)
    assert rows
    grouped = by_scenario(rows)
    assert set(grouped) == {"flat/baseline", "flat/chaos", "sharded/chaos"}
    baseline = grouped["flat/baseline"]
    # The healthy fleet is clean (every run's books are checked by the
    # experiment itself, through check_report).
    assert baseline["chip_deaths"] == 0 and baseline["shed"] == 0
    for name in ("flat/chaos", "sharded/chaos"):
        row = grouped[name]
        # The kill schedule fired mid-run, the watchdog requeued the dead
        # replica's in-flight requests (charging their lost decode progress)
        # and re-placed the replica...
        assert row["chip_deaths"] == 1 and row["restarts"] == 1
        assert row["failovers"] >= 1
        assert row["requeued"] > 0 and row["lost_tokens"] > 0
        # ...and the SLO loss is bounded and transient: goodput recovers in
        # finite virtual time, within 25% of the healthy fleet's attainment.
        assert row["slo_met"] >= 0.75 * baseline["slo_met"]
        assert row["recovery_ms"] != float("inf")
    # The flat kill restarts cold: its buckets re-compile under the revived
    # replica's scoped cache namespace (wall-clock only, never virtual time).
    assert grouped["flat/chaos"]["recompiles"] > 0
    assert grouped["flat/chaos"]["restart_compile_s"] > 0
    assert grouped["flat/chaos"]["degraded_sheds"] > 0
    # The sharded kill fails over onto the warm spare: no recompilation.
    assert grouped["sharded/chaos"]["recompiles"] == 0


def test_fig29_reproducible_across_jobs():
    """Chaos replays are bit-identical serial vs jobs=2, traces included.

    Faults live entirely in virtual time (the kill schedule is virtual, the
    cold-restart re-warm cost is wall-clock-only), so the entire report —
    floats included — and the virtual-domain event stream must match exactly
    at any compilation parallelism.
    """
    # restart_compile_s is the one wall-clock column; everything else is
    # virtual and must be bit-identical.
    serial, serial_tracer = replay_across_jobs(
        fig29_chaos.run, wall_clock=("restart_compile_s",)
    )
    assert all(
        v is None or v >= 0
        for row in serial
        for v in (row["pre_fault_goodput_rps"], row["dip_depth"])
    )

    # The fault instants land on each chaos run's fleet lane: one death, one
    # detection, at least one failover, one restart and one chip-online per
    # chaos scenario — and none at all for the healthy baseline.
    instants: dict[str, dict[str, int]] = {}
    for event in serial_tracer.virtual_events():
        if event.kind == KIND_INSTANT:
            group = instants.setdefault(event.group, {})
            group[event.name] = group.get(event.name, 0) + 1
    chaos_groups = [
        group
        for group, names in instants.items()
        if "chip-death" in names
    ]
    assert len(chaos_groups) == 2
    for group in chaos_groups:
        names = instants[group]
        assert names["chip-death"] == 1
        assert names["detect"] == 1
        assert names["restart"] == 1
        assert names["chip-online"] == 1
        assert names.get("failover", 0) >= 1
        assert names.get("requeue", 0) > 0
    # The link-degradation window is traced on exactly one group (sharded).
    degraded = [g for g, names in instants.items() if "link-degraded" in names]
    assert len(degraded) == 1

    # The whole traced chaos run exports schema-valid Chrome trace JSON.
    assert validate_chrome_trace(to_chrome_trace(serial_tracer)) == []
