"""Golden-file regression tests for every ``fig*``/``tab*`` experiment.

Each experiment's ``run()`` is executed on a small deterministic slice and
checked against a committed snapshot in ``tests/golden/``:

* the **row schema** (ordered union of column names) must match exactly, and
* the **key columns** — identity and deterministic-count columns, never
  wall-clock timings — must match value-for-value, row-for-row.  The
  serving figures (fig25–fig32) pin every column except their wall-clock
  compile timings, derived rates and percentiles included: their rows are
  pure virtual time.

On top of the snapshots, per-experiment **invariants** re-assert the headline
qualitative claim of the corresponding paper figure (e.g. fig18's
``complete >= filtered >= optimized`` plan-space reduction, fig16p's zero
plan divergence).

The serving figures (fig25–fig32) additionally pin their quick run's whole
virtual-time trace (:meth:`~repro.obs.trace.Tracer.virtual_events`): a
SHA-256 digest of the stream plus one short hash per block of
``TRACE_BLOCK`` events, committed as ``tests/golden/<name>.trace.json``.  A
refactor that moves a single virtual event fails here, and the failure names
the first block that differs.

After an intentional change to an experiment's output, regenerate with::

    pytest tests/test_golden_experiments.py --update-golden
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import pytest

from repro.experiments import (
    ablation,
    fig02_memory_footprint,
    fig08_cost_model,
    fig12_end_to_end,
    fig13_breakdown,
    fig14_bandwidth,
    fig15_operator_perf,
    fig16_compile_time,
    fig16_parallel,
    fig17_intra_op_plans,
    fig18_search_space,
    fig19_constraints,
    fig20_inter_op,
    fig21_scalability,
    fig22_vs_a100,
    fig23_llm,
    fig24_hbm,
    fig25_serving,
    fig26_multichip,
    fig27_continuous,
    fig29_chaos,
    fig30_multitenant,
    fig31_fleet_chaos,
    fig32_forecast,
    tab02_models,
    tab03_hardware,
)
from repro.obs import Tracer, use_tracer

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Experiments whose virtual trace is pinned next to the golden snapshot.
TRACED = ("fig25", "fig26", "fig27", "fig29", "fig30", "fig31", "fig32")
#: Events per short block hash in a trace digest.
TRACE_BLOCK = 64


# --------------------------------------------------------------------------- #
# Invariants (the headline claim of each figure, re-checked on live rows)
# --------------------------------------------------------------------------- #
def invariant_fig12(rows: list[dict]) -> None:
    for row in rows:
        assert row["t10_ms"] is not None
        assert row["t10_ms"] < row["roller_ms"]


def invariant_fig15(rows: list[dict]) -> None:
    for row in rows:
        assert row["improved_pct"] >= 50.0
        assert row["max_speedup"] >= row["min_speedup"] > 0


def invariant_fig16(rows: list[dict]) -> None:
    for row in rows:
        assert row["compile_time_s"] > 0
        assert row["unique_operators"] <= row["operators"]


def invariant_fig16p(rows: list[dict]) -> None:
    for row in rows:
        assert row["plans_match"], "parallel compile diverged from serial"
        assert row["status"] == "ok"
        assert row["compile_time_s"] > 0


def invariant_fig18(rows: list[dict]) -> None:
    for row in rows:
        assert (
            row["complete_space"]
            >= row["evaluated_space"]
            >= row["filtered_space"]
            >= row["materialized_space"]
            >= row["optimized_space"]
            >= 1
        )


def invariant_fig20(rows: list[dict]) -> None:
    for row in rows:
        assert row["chosen_est_ms"] <= row["initial_est_ms"] * 1.001


def invariant_fig25(rows: list[dict]) -> None:
    for row in rows:
        assert row["recompiles"] == 0


def invariant_fig26(rows: list[dict]) -> None:
    for row in rows:
        assert row["plans_match"], "sharded stage plans diverged across compiles"
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["model"], row["batch"], row["micro_batches"]), []).append(row)
    rescued = False
    for group in groups.values():
        ordered = sorted(group, key=lambda row: row["chips"])
        if ordered[0]["chips"] == 1 and ordered[0]["status"] == "oom":
            assert any(r["status"] == "ok" and r["chips"] >= 2 for r in ordered)
            rescued = True
        throughputs = [r["throughput_rps"] for r in ordered if r["status"] == "ok"]
        assert all(a < b for a, b in zip(throughputs, throughputs[1:]))
    assert rescued, "no workload exercised the OOM-then-sharded path"


def invariant_fig27(rows: list[dict]) -> None:
    # Steady state never compiles, and every request is accounted for.
    for row in rows:
        assert row["recompiles"] == 0
        assert row["completed"] + row["shed"] == row["requests"]
    # The headline claim: at every fleet size, continuous batching achieves
    # strictly higher goodput-under-SLO than static batching on the same
    # fleet — and needs strictly fewer decode iterations to serve the same
    # tokens (retired slots stop being padded).
    by_fleet: dict[int, dict[str, dict]] = {}
    for row in rows:
        by_fleet.setdefault(row["chips"], {})[row["policy"]] = row
    for fleet, policies in by_fleet.items():
        static, continuous = policies["static"], policies["continuous"]
        assert continuous["goodput_rps"] > static["goodput_rps"], (
            f"continuous batching must beat static goodput at {fleet} chip(s)"
        )
        assert continuous["slo_met"] >= static["slo_met"]
        assert continuous["iterations"] < static["iterations"]


def invariant_fig29(rows: list[dict]) -> None:
    by_scenario = {row["scenario"]: row for row in rows}
    baseline = by_scenario["flat/baseline"]
    chaos_rows = [by_scenario["flat/chaos"], by_scenario["sharded/chaos"]]
    # The books always balance, faults or not, and the healthy row is clean.
    for row in rows:
        assert row["completed"] + row["shed"] == row["requests"]
    assert baseline["chip_deaths"] == baseline["requeued"] == 0
    assert baseline["shed"] == 0 and baseline["slo_met"] == baseline["requests"]
    for row in chaos_rows:
        # The schedule fired and the watchdog recovered the fleet: the dead
        # replica's in-flight requests were requeued with their decode
        # progress accounted token-for-token, and the replica was re-placed.
        assert row["chip_deaths"] == 1 and row["restarts"] == 1
        assert row["failovers"] >= 1
        assert row["requeued"] > 0 and row["lost_tokens"] > 0
        # Bounded SLO loss: goodput stays within 25% of the healthy fleet's
        # (sharded/chaos is measured against its own pre-fault rate — its
        # fleet shape differs from the flat baseline).
        assert row["slo_met"] >= 0.75 * baseline["slo_met"]
        # The dip is transient: goodput climbs back over the recovery
        # threshold in finite virtual time.
        assert row["recovery_ms"] != float("inf")
        assert 0.0 <= row["dip_depth"] <= 1.0
    # The flat kill requeues onto the surviving replica and the cold restart
    # re-warms its buckets through the scoped plan-cache namespace.
    assert by_scenario["flat/chaos"]["recompiles"] > 0
    assert by_scenario["flat/chaos"]["degraded_sheds"] > 0
    # The sharded kill exercises stage failover onto the spare chip: the
    # replacement group is warm, so recovery costs no recompilation.
    assert by_scenario["sharded/chaos"]["recompiles"] == 0


def invariant_fig30(rows: list[dict]) -> None:
    # The books always balance and the warmed fleet never recompiles.
    for row in rows:
        assert row["completed"] + row["shed"] == row["requests"]
        assert row["recompiles"] == 0
    by_key = {(row["scheme"], row["tenant"]): row for row in rows}
    partition, fleet = by_key[("partition", "all")], by_key[("fleet", "all")]
    # The headline claim: SLO-class routing over one shared pool strictly
    # beats the static per-model partition on goodput-per-chip (measured
    # over the common serving window) and on cross-tenant fairness...
    assert fleet["goodput_per_chip"] > partition["goodput_per_chip"]
    assert fleet["fairness"] > partition["fairness"]
    # ...without starving anyone: every tenant's SLO attainment stays at or
    # above its declared fairness floor under the routed scheme.
    for (scheme, tenant), row in by_key.items():
        if scheme == "fleet" and tenant != "all":
            assert row["slo_attainment"] >= row["fairness_floor"], (
                f"tenant {tenant} collapsed below its fairness floor"
            )
    # The win mechanism is live: the router re-bound at least one replica
    # across models, and placements are bit-identical at jobs=2.
    assert fleet["rebinds"] > 0
    assert fleet["jobs2_identical"] is True
    assert partition["jobs2_identical"] is None


def invariant_fig31(rows: list[dict]) -> None:
    # The books always balance, chaos or not.
    for row in rows:
        assert row["completed"] + row["shed"] == row["requests"]
    by_key = {(row["scheme"], row["tenant"]): row for row in rows}
    baseline = by_key[("baseline", "all")]
    watchdog = by_key[("watchdog", "all")]
    health = by_key[("health-aware", "all")]
    # The healthy reference saw no chaos and holds every floor.
    assert baseline["chip_deaths"] == baseline["requeued"] == 0
    assert baseline["floor_violations"] == 0
    # The shared schedule fired identically under both chaos schemes: the
    # two-chip GPU class died, the fleet failed over, brownout admission
    # engaged while surviving capacity sat below the watermark, and goodput
    # climbed back in finite virtual time.
    for row in (watchdog, health):
        assert row["chip_deaths"] == 2
        assert row["failovers"] >= 1
        assert row["brownout_sheds"] > 0
        assert 0.0 <= row["dip_depth"] <= 1.0
        assert row["recovery_ms"] != float("inf")
    # The headline claim: reading per-replica health strictly beats
    # watchdog-only failover on dip depth AND recovery time...
    assert health["dip_depth"] < watchdog["dip_depth"]
    assert health["recovery_ms"] < watchdog["recovery_ms"]
    assert health["slo_met"] > watchdog["slo_met"]
    # ...while holding every tenant's fairness floor — which the blind
    # router does not: it starves a single-pass tenant below its floor.
    assert health["floor_violations"] == 0
    assert watchdog["floor_violations"] >= 1
    for (scheme, tenant), row in by_key.items():
        if scheme == "health-aware" and tenant != "all":
            assert row["slo_attainment"] >= row["fairness_floor"], (
                f"tenant {tenant} collapsed below its fairness floor"
            )
    # Cross-model failover engaged: a requeued request was re-admitted on a
    # different replica than the one that died with it.
    assert health["migrations"] > 0
    # Chaos replays are bit-identical across compile parallelism.
    assert health["jobs2_identical"] is True
    assert watchdog["jobs2_identical"] is None


def invariant_fig32(rows: list[dict]) -> None:
    # The books always balance and the warmed fleet never recompiles.
    for row in rows:
        assert row["completed"] + row["shed"] == row["requests"]
        assert row["recompiles"] == 0
    by_key = {(row["scheme"], row["tenant"]): row for row in rows}
    reactive = by_key[("reactive", "all")]
    forecast = by_key[("forecast", "all")]
    instant = by_key[("instant", "all")]
    # The headline claim: planning capacity one provisioning delay ahead of
    # the forecast strictly beats queue-depth reactive autoscaling on BOTH
    # axes — more SLO-met completions per paid chip-second, and a higher
    # fraction of requests inside their deadline.
    assert forecast["goodput_per_chip"] > reactive["goodput_per_chip"]
    assert forecast["slo_attainment"] > reactive["slo_attainment"]
    # The free-and-instant activation of the older figures is the unreachable
    # upper bound that calibrates the comparison: it pays for no idle or
    # booting capacity, so its per-chip goodput tops both managed schemes.
    assert instant["goodput_per_chip"] >= forecast["goodput_per_chip"]
    assert instant["slo_attainment"] >= forecast["slo_attainment"]
    # Both managed schemes actually exercised the provisioning machinery —
    # capacity went up AND came back down — while the instant baseline
    # never touched it.
    for row in (reactive, forecast):
        assert row["provision_ups"] > 0
        assert row["provision_downs"] > 0
    assert instant["provision_ups"] == instant["provision_downs"] == 0
    # Trace replays are bit-identical across compile parallelism.
    assert forecast["jobs2_identical"] is True
    assert reactive["jobs2_identical"] is None


def invariant_ablation(rows: list[dict]) -> None:
    by_variant = {row["variant"]: row for row in rows if "variant" in row}
    assert by_variant["full"]["latency_ms"] is not None


# --------------------------------------------------------------------------- #
# Specs: one deterministic slice per experiment
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class GoldenSpec:
    """How to run and snapshot one experiment."""

    runner: Callable[[], list[dict]]
    key_columns: tuple[str, ...]
    """Columns snapshotted by value (never wall-clock timings)."""
    invariant: Callable[[list[dict]], None] | None = None


SPECS: dict[str, GoldenSpec] = {
    "fig02": GoldenSpec(
        lambda: fig02_memory_footprint.run(),
        ("operator",),
    ),
    "fig08": GoldenSpec(
        lambda: fig08_cost_model.run(),
        ("op_type", "fit_samples", "holdout_samples"),
    ),
    "fig12": GoldenSpec(
        lambda: fig12_end_to_end.run(models=("nerf",), quick=True),
        ("model", "batch"),
        invariant_fig12,
    ),
    "fig13": GoldenSpec(
        lambda: fig13_breakdown.run(models=("nerf",), quick=True),
        ("model", "batch", "compiler"),
    ),
    "fig14": GoldenSpec(
        lambda: fig14_bandwidth.run(models=("nerf",), quick=True),
        ("model", "batch"),
    ),
    "fig15": GoldenSpec(
        lambda: fig15_operator_perf.run(models=("nerf",), quick=True),
        ("model", "batch", "operators"),
        invariant_fig15,
    ),
    "fig16": GoldenSpec(
        lambda: fig16_compile_time.run(models=("nerf",), quick=True),
        ("model", "batch", "operators", "unique_operators", "status"),
        invariant_fig16,
    ),
    "fig16p": GoldenSpec(
        lambda: fig16_parallel.run(models=("nerf",), jobs_grid=(1, 2), quick=True),
        ("model", "batch", "jobs", "operators", "unique_operators", "status"),
        invariant_fig16p,
    ),
    "fig17": GoldenSpec(
        lambda: fig17_intra_op_plans.run(quick=True),
        ("operator", "candidates", "pareto_plans"),
    ),
    "fig18": GoldenSpec(
        lambda: fig18_search_space.run(quick=True),
        ("operator", "optimized_space"),
        invariant_fig18,
    ),
    "fig19": GoldenSpec(
        lambda: fig19_constraints.run(models=("nerf",), batch_size=1, quick=True),
        ("model", "setting", "status"),
    ),
    "fig20": GoldenSpec(
        lambda: fig20_inter_op.run(workloads=(("nerf", 1),), quick=True),
        ("model", "batch", "search_steps"),
        invariant_fig20,
    ),
    "fig21": GoldenSpec(
        lambda: fig21_scalability.run(
            workloads=(("nerf", 1),), core_counts=(736, 1472), quick=True
        ),
        ("model", "batch", "cores", "chip"),
    ),
    "fig22": GoldenSpec(
        lambda: fig22_vs_a100.run(models=("nerf",), quick=True),
        ("model", "batch"),
    ),
    "fig23": GoldenSpec(
        lambda: fig23_llm.run(models=("opt-1.3b",), batch_sizes=(2,), quick=True),
        ("model", "batch", "layers"),
    ),
    "fig24": GoldenSpec(
        lambda: fig24_hbm.run(
            workloads=(("opt-1.3b", 8),), bandwidths_gbps=(200, 6400), quick=True
        ),
        ("model", "batch", "hbm_gbps"),
    ),
    "fig25": GoldenSpec(
        lambda: fig25_serving.run(quick=True),
        (
            "model",
            "chips",
            "load_x",
            "window_x",
            "offered_rps",
            "window_ms",
            "completed",
            "throughput_rps",
            "p50_ms",
            "p99_ms",
            "batches",
            "mean_batch",
            "utilization",
            "warm_compiles",
            "recompiles",
        ),
        invariant_fig25,
    ),
    "fig26": GoldenSpec(
        lambda: fig26_multichip.run(quick=True),
        (
            "model",
            "batch",
            "operators",
            "chips",
            "micro_batches",
            "status",
            "stage_ops",
            "latency_ms",
            "fill_ms",
            "drain_ms",
            "bottleneck_ms",
            "transfer_ms",
            "throughput_rps",
            "plans_match",
        ),
        invariant_fig26,
    ),
    "fig27": GoldenSpec(
        lambda: fig27_continuous.run(quick=True),
        (
            "model",
            "policy",
            "chips",
            "load_x",
            "slo_x",
            "requests",
            "completed",
            "shed",
            "preempted",
            "slo_met",
            "tokens",
            "iterations",
            "scale_ups",
            "scale_downs",
            "goodput_rps",
            "throughput_rps",
            "token_tps",
            "ttft_p50_ms",
            "ttft_p99_ms",
            "tpot_p99_ms",
            "latency_p99_ms",
            "slo_attainment",
            "utilization",
            "mean_active_chips",
            "peak_active_chips",
            "warm_compiles",
            "recompiles",
        ),
        invariant_fig27,
    ),
    "fig29": GoldenSpec(
        lambda: fig29_chaos.run(quick=True),
        (
            "scenario",
            "model",
            "chips",
            "stages",
            "requests",
            "completed",
            "shed",
            "slo_met",
            "tokens",
            "iterations",
            "preempted",
            "migrations",
            "chip_deaths",
            "restarts",
            "failovers",
            "requeued",
            "lost_tokens",
            "lost_iterations",
            "degraded_sheds",
            "goodput_rps",
            "throughput_rps",
            "slo_attainment",
            "pre_fault_goodput_rps",
            "dip_depth",
            "recovery_ms",
            "warm_compiles",
            "recompiles",
        ),
        invariant_fig29,
    ),
    "fig30": GoldenSpec(
        lambda: fig30_multitenant.run(quick=True),
        (
            "scheme",
            "tenant",
            "model",
            "chips",
            "gpu_chips",
            "requests",
            "completed",
            "shed",
            "slo_met",
            "tokens",
            "preempted",
            "rebinds",
            "goodput_rps",
            "goodput_per_chip",
            "slo_attainment",
            "fairness_floor",
            "fairness",
            "warm_compiles",
            "recompiles",
            "placements",
            "jobs2_identical",
        ),
        invariant_fig30,
    ),
    "fig31": GoldenSpec(
        lambda: fig31_fleet_chaos.run(quick=True),
        (
            "scheme",
            "tenant",
            "model",
            "chips",
            "requests",
            "completed",
            "shed",
            "slo_met",
            "tokens",
            "requeued",
            "migrations",
            "lost_tokens",
            "chip_deaths",
            "failovers",
            "retry_drops",
            "brownout_sheds",
            "degraded_sheds",
            "goodput_rps",
            "slo_attainment",
            "fairness_floor",
            "floor_violations",
            "pre_fault_goodput_rps",
            "dip_depth",
            "recovery_ms",
            "warm_compiles",
            "recompiles",
            "placements",
            "jobs2_identical",
        ),
        invariant_fig31,
    ),
    "fig32": GoldenSpec(
        lambda: fig32_forecast.run(quick=True),
        (
            "scheme",
            "tenant",
            "model",
            "chips",
            "requests",
            "completed",
            "shed",
            "slo_met",
            "tokens",
            "provision_ups",
            "provision_downs",
            "peak_provisioned",
            "provisioned_chip_seconds",
            "goodput_rps",
            "goodput_per_chip",
            "slo_attainment",
            "warm_compiles",
            "recompiles",
            "placements",
            "jobs2_identical",
        ),
        invariant_fig32,
    ),
    "tab02": GoldenSpec(
        lambda: tab02_models.run(quick=True),
        ("model", "description", "operators", "batch_sizes"),
    ),
    "tab03": GoldenSpec(
        lambda: tab03_hardware.run(),
        ("device", "num_cores"),
    ),
    "ablation": GoldenSpec(
        lambda: ablation.run(workloads=(("nerf", 1),), quick=True),
        ("model", "batch", "variant", "status"),
        invariant_ablation,
    ),
}


# --------------------------------------------------------------------------- #
# Snapshot plumbing
# --------------------------------------------------------------------------- #
def ordered_columns(rows: Sequence[dict]) -> list[str]:
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    return columns


def snapshot(name: str, spec: GoldenSpec, rows: Sequence[dict]) -> dict:
    return {
        "experiment": name,
        "key_columns": list(spec.key_columns),
        "columns": ordered_columns(rows),
        "rows": [
            {column: row.get(column) for column in spec.key_columns}
            for row in rows
        ],
    }


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def trace_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.trace.json"


def trace_digest(events: Sequence) -> dict:
    """SHA-256 of the event stream plus a 16-hex-digit hash per block of
    ``TRACE_BLOCK`` events (``repr`` is canonical: args are sorted tuples)."""
    whole = hashlib.sha256()
    blocks = []
    for start in range(0, len(events), TRACE_BLOCK):
        block = hashlib.sha256()
        for event in events[start : start + TRACE_BLOCK]:
            line = repr(event).encode() + b"\n"
            block.update(line)
            whole.update(line)
        blocks.append(block.hexdigest()[:16])
    return {
        "events": len(events),
        "block": TRACE_BLOCK,
        "sha256": whole.hexdigest(),
        "blocks": blocks,
    }


def check_trace(name: str, events: Sequence, update: bool) -> None:
    produced = trace_digest(events)
    path = trace_path(name)
    if update:
        path.write_text(json.dumps(produced, indent=0) + "\n")
    assert path.exists(), f"missing trace digest {path}; run with --update-golden"
    golden = json.loads(path.read_text())
    if produced == golden:
        return
    first = next(
        (
            index
            for index, (live, saved) in enumerate(
                zip(produced["blocks"], golden["blocks"])
            )
            if live != saved
        ),
        min(len(produced["blocks"]), len(golden["blocks"])),
    )
    start = first * TRACE_BLOCK
    live = events[start] if start < len(events) else "<end of trace>"
    raise AssertionError(
        f"{name} virtual trace drifted from {path.name} ({produced['events']} "
        f"events, golden {golden['events']}): first difference in events "
        f"[{start}, {start + TRACE_BLOCK}) (block {first}); live event {start} "
        f"is {live!r} (regen with --update-golden if intentional)"
    )


@pytest.fixture(scope="session")
def update_golden(request) -> bool:
    return bool(request.config.getoption("--update-golden"))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_experiment_matches_golden(name: str, update_golden: bool):
    spec = SPECS[name]
    tracer = Tracer(enabled=name in TRACED)
    with use_tracer(tracer):
        rows = spec.runner()
    assert rows, f"{name} produced no rows"
    produced = snapshot(name, spec, rows)

    path = golden_path(name)
    if update_golden:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(produced, indent=2, sort_keys=False) + "\n")
    assert path.exists(), (
        f"missing golden snapshot {path}; run "
        f"pytest tests/test_golden_experiments.py --update-golden"
    )
    golden = json.loads(path.read_text())

    assert produced["columns"] == golden["columns"], (
        f"{name} row schema drifted from the committed snapshot "
        f"(regen with --update-golden if intentional)"
    )
    assert produced["key_columns"] == golden["key_columns"]
    assert len(produced["rows"]) == len(golden["rows"]), (
        f"{name} row count changed: {len(produced['rows'])} vs "
        f"golden {len(golden['rows'])}"
    )
    for index, (live, saved) in enumerate(zip(produced["rows"], golden["rows"])):
        assert live == saved, f"{name} row {index} key values drifted"

    if name in TRACED:
        check_trace(name, tracer.virtual_events(), update_golden)
    if spec.invariant is not None:
        spec.invariant(rows)


def test_every_experiment_has_a_spec():
    """New experiments must add a golden spec (and a snapshot) here."""
    from repro.experiments import ALL_EXPERIMENTS

    assert set(SPECS) == set(ALL_EXPERIMENTS)


def test_no_orphan_snapshots():
    """Committed snapshots all correspond to a live experiment spec."""
    committed = {path.stem for path in GOLDEN_DIR.glob("*.json")}
    traces = {name for name in committed if name.endswith(".trace")}
    assert committed - traces <= set(SPECS), (
        f"orphan snapshots: {committed - traces - set(SPECS)}"
    )
    assert traces == {f"{name}.trace" for name in TRACED}
