"""Benchmark regenerating Figure 30: fleet routing vs static partitioning."""

from conftest import replay_across_jobs, run_once

from repro.experiments import fig30_multitenant
from repro.obs import KIND_ASYNC, to_chrome_trace, validate_chrome_trace


def by_key(rows):
    return {(row["scheme"], row["tenant"]): row for row in rows}


def test_fig30_multitenant(benchmark):
    rows = run_once(benchmark, fig30_multitenant.run, quick=True)
    assert rows
    grouped = by_key(rows)
    partition, fleet = grouped[("partition", "all")], grouped[("fleet", "all")]
    # The headline claim: SLO-class routing over one shared heterogeneous
    # pool strictly beats the static per-model partition on goodput-per-chip
    # (common serving window) and on Jain fairness across tenants.
    assert fleet["goodput_per_chip"] > partition["goodput_per_chip"]
    assert fleet["fairness"] > partition["fairness"]
    # No tenant is starved for the win: every tenant's SLO attainment stays
    # at or above its declared fairness floor under the routed scheme.
    for (scheme, tenant), row in grouped.items():
        if scheme == "fleet" and tenant != "all":
            assert row["slo_attainment"] >= row["fairness_floor"]
    # The partition's structural weakness is visible: pinning the vision
    # tenant to the GPU class costs it SLO attainment the router recovers by
    # placing those requests on chips that can meet the deadline.
    assert grouped[("fleet", "vision")]["slo_attainment"] > (
        grouped[("partition", "vision")]["slo_attainment"]
    )
    # The sharing machinery is exercised, not idle: at least one replica was
    # re-bound across models, and the warmed fleet never recompiles.
    assert fleet["rebinds"] > 0
    assert all(row["recompiles"] == 0 for row in rows)
    # Both schemes share one plan cache, so the second scheme's warm() finds
    # every (model, hardware-class) program already compiled.
    assert partition["warm_compiles"] > 0
    assert fleet["warm_compiles"] == 0


def test_fig30_reproducible_across_jobs():
    """Rows AND virtual trace streams are bit-identical serial vs jobs=2.

    Fleet scheduling — routing, admission, preemption, shedding, autoscale —
    runs entirely in virtual time priced by the deterministic simulator, and
    compilation parallelism only changes wall-clock compile time, so the
    whole report (floats, placement digests and all) must match exactly.
    """
    serial, serial_tracer = replay_across_jobs(fig30_multitenant.run)
    # The experiment's own built-in recheck agrees.
    assert by_key(serial)[("fleet", "all")]["jobs2_identical"] is True

    # Request lifecycles live on per-tenant lanes: each tenant's lane of
    # each scheme carries exactly that tenant's request count.
    lifecycles: dict[tuple[str, str], int] = {}
    for event in serial_tracer.virtual_events():
        if event.kind == KIND_ASYNC and event.name == "request":
            lifecycles[(event.group, event.track_name)] = (
                lifecycles.get((event.group, event.track_name), 0) + 1
            )
    router_names = {"partition": "static-partition", "fleet": "cost-aware"}
    for row in serial:
        if row["tenant"] == "all":
            continue
        group = f"fleet-{router_names[row['scheme']]}@{row['chips']}chips"
        lane = (group, f"tenant/{row['tenant']}")
        assert lifecycles.get(lane) == row["requests"], (
            f"lane {lane} carries {lifecycles.get(lane)} lifecycles, "
            f"expected {row['requests']}"
        )

    # The whole traced run exports schema-valid Chrome trace JSON.
    assert validate_chrome_trace(to_chrome_trace(serial_tracer)) == []
