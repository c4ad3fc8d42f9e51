"""Benchmark regenerating Figure 25: serving throughput on a multi-chip fleet."""

from conftest import run_once

from repro.experiments import fig25_serving


def test_fig25_serving(benchmark):
    rows = run_once(benchmark, fig25_serving.run, quick=True)
    assert rows
    assert len({row["model"] for row in rows}) >= 2
    # Steady state never compiles: a warmed run does no plan-cache lookups.
    assert all(row["recompiles"] == 0 for row in rows)
    # Each model's batch buckets compile exactly once (first configuration);
    # every later configuration reuses them, so compile cost collapses to 0.
    for model in {row["model"] for row in rows}:
        model_rows = [row for row in rows if row["model"] == model]
        assert model_rows[0]["warm_compiles"] > 0
        assert all(row["warm_compiles"] == 0 for row in model_rows[1:])
    # The batch window on a work-conserving loop: as it widens, batches grow
    # (strictly, from no window to the widest) and utilization falls, at
    # every model, fleet size and load; below saturation the wait costs
    # median latency.
    curves: dict[tuple, list[dict]] = {}
    for row in rows:
        curves.setdefault((row["model"], row["chips"], row["load_x"]), []).append(row)
    assert len(curves) >= 2
    for (model, chips, load), curve in curves.items():
        curve.sort(key=lambda row: row["window_x"])
        assert len(curve) >= 3 and curve[0]["window_x"] == 0.0
        batches = [row["mean_batch"] for row in curve]
        utilization = [row["utilization"] for row in curve]
        assert all(a <= b for a, b in zip(batches, batches[1:])), (model, chips, load)
        assert batches[-1] > batches[0], (model, chips, load)
        assert all(a >= b for a, b in zip(utilization, utilization[1:])), (model, chips, load)
        if load < 1.0:
            p50 = [row["p50_ms"] for row in curve]
            assert all(a < b for a, b in zip(p50, p50[1:])), (model, chips, load)
