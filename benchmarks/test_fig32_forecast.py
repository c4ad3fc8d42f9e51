"""Benchmark regenerating Figure 32: forecast-ahead vs reactive provisioning."""

from conftest import replay_across_jobs, run_once

from repro.experiments import fig32_forecast
from repro.obs import to_chrome_trace, validate_chrome_trace


def by_key(rows):
    return {(row["scheme"], row["tenant"]): row for row in rows}


def test_fig32_forecast(benchmark):
    rows = run_once(benchmark, fig32_forecast.run, quick=True)
    assert rows
    grouped = by_key(rows)
    reactive = grouped[("reactive", "all")]
    forecast = grouped[("forecast", "all")]
    instant = grouped[("instant", "all")]
    # The headline claim: planning one provisioning delay ahead of the
    # forecast strictly beats queue-depth reactive autoscaling on both
    # goodput per paid chip-second AND SLO attainment.
    assert forecast["goodput_per_chip"] > reactive["goodput_per_chip"]
    assert forecast["slo_attainment"] > reactive["slo_attainment"]
    # Free-and-instant activation is the unreachable upper bound.
    assert instant["goodput_per_chip"] >= forecast["goodput_per_chip"]
    assert instant["slo_attainment"] >= forecast["slo_attainment"]
    # Both managed schemes exercised the provisioning machinery both ways.
    for row in (reactive, forecast):
        assert row["provision_ups"] > 0 and row["provision_downs"] > 0
    assert instant["provision_ups"] == instant["provision_downs"] == 0
    # The warmed fleet never compiles on the serving path.
    for row in rows:
        assert row["recompiles"] == 0


def test_fig32_reproducible_across_jobs():
    """Rows AND virtual trace streams are bit-identical serial vs jobs=2.

    Arrival generation, forecasting, blueprint planning and provisioning are
    all pure virtual time — compilation parallelism only moves wall-clock
    compile time — so the whole report must match exactly.
    """
    serial, serial_tracer = replay_across_jobs(fig32_forecast.run)
    # The experiment's own built-in recheck agrees.
    assert by_key(serial)[("forecast", "all")]["jobs2_identical"] is True

    # The whole traced provisioning run exports schema-valid Chrome trace JSON.
    assert validate_chrome_trace(to_chrome_trace(serial_tracer)) == []
