"""Benchmark regenerating Figure 31: fleet chaos under a GPU-class outage."""

from conftest import replay_across_jobs, run_once

from repro.experiments import fig31_fleet_chaos
from repro.obs import to_chrome_trace, validate_chrome_trace


def by_key(rows):
    return {(row["scheme"], row["tenant"]): row for row in rows}


def test_fig31_fleet_chaos(benchmark):
    rows = run_once(benchmark, fig31_fleet_chaos.run, quick=True)
    assert rows
    grouped = by_key(rows)
    baseline = grouped[("baseline", "all")]
    watchdog = grouped[("watchdog", "all")]
    health = grouped[("health-aware", "all")]
    # The healthy reference saw no chaos; both chaos schemes replay the
    # identical GPU-class kill (two chips) and fail the fleet over.
    assert baseline["chip_deaths"] == 0 and baseline["floor_violations"] == 0
    for row in (watchdog, health):
        assert row["chip_deaths"] == 2
        assert row["failovers"] >= 1
        assert row["brownout_sheds"] > 0
    # The headline claim: the health-aware router strictly beats
    # watchdog-only failover on goodput dip depth AND recovery time, and
    # serves more SLO-met requests from the same workload and faults.
    assert health["dip_depth"] < watchdog["dip_depth"]
    assert health["recovery_ms"] < watchdog["recovery_ms"]
    assert health["slo_met"] > watchdog["slo_met"]
    # Degraded-mode fairness: every tenant stays at or above its declared
    # floor under the health-aware scheme; the blind router starves one.
    assert health["floor_violations"] == 0
    assert watchdog["floor_violations"] >= 1
    for (scheme, tenant), row in grouped.items():
        if scheme == "health-aware" and tenant != "all":
            assert row["slo_attainment"] >= row["fairness_floor"]
    # Cross-model failover engaged: a requeued request was re-admitted on a
    # different replica than the one that died with it.
    assert health["migrations"] > 0


def test_fig31_reproducible_across_jobs():
    """Rows AND virtual trace streams are bit-identical serial vs jobs=2.

    Chaos is pure virtual time: chip deaths, detection, requeues, brownout
    and restart are heap events priced by the deterministic simulator, and
    compilation parallelism only moves wall-clock compile time, so the whole
    report must match exactly.
    """
    # restart_compile_s is the one wall-clock column; everything else is
    # virtual time and must be bit-identical.
    serial, serial_tracer = replay_across_jobs(
        fig31_fleet_chaos.run, wall_clock=("restart_compile_s",)
    )
    # The experiment's own built-in recheck agrees.
    assert by_key(serial)[("health-aware", "all")]["jobs2_identical"] is True

    # The whole traced chaos run exports schema-valid Chrome trace JSON.
    assert validate_chrome_trace(to_chrome_trace(serial_tracer)) == []
