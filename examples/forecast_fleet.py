"""Forecast-ahead provisioning vs reactive autoscaling on a bursty trace.

Run with::

    python examples/forecast_fleet.py

Capacity takes time: a real replica must boot, load weights and warm
caches before it serves, so a scaling decision only pays off one
``provision_delay`` after it is taken.  This example replays a seeded
trace (:mod:`repro.serving.traffic`) — a diurnal base tide plus a flash
crowd erupting in the tide's trough — through one warmed
:class:`FleetEngine` twice, varying only the capacity policy:

* **reactive** (:class:`ReactiveScaler`) scales on *queue depth* — a
  trailing indicator: the queue only grows once capacity is already
  insufficient, so every scale-up lands a provisioning delay after the
  burst needed it, and keeps over-steering after the burst passes.
* **forecast** (:class:`ForecastScaler`) watches each tick's *arrival
  rate* — a leading indicator — extrapolates it one provisioning delay
  ahead with a :class:`LinearTrendForecaster`, and provisions the
  cheapest :class:`BlueprintPlanner` blueprint (replicas x stages x batch
  bucket, priced by the same iteration-cost model the simulator runs on)
  that serves the *predicted* rate within the SLO.  The flash crowd's
  ramp is visible while it is still ramping, so capacity lands with the
  load.

Provisioned-but-idle and still-booting capacity is paid for
(``provisioned_chip_seconds``), which makes goodput per chip-second an
honest figure of merit.  Everything runs in seeded virtual time, so both
runs replay bit-identically.
"""

from __future__ import annotations

from repro.core.constraints import FAST_CONSTRAINTS
from repro.models import opt_decode_session
from repro.serving import (
    BlueprintPlanner,
    CostAwareRouter,
    DecodeModel,
    FleetEngine,
    ForecastScaler,
    LinearTrendForecaster,
    PlanCache,
    ReactiveScaler,
    TrafficShape,
    burstiness,
    diurnal_workload,
    flash_crowd_workload,
    merge_decode_workloads,
)


def main() -> None:
    model = DecodeModel(
        name="opt-125m",
        decode_builder=opt_decode_session("125m", num_layers=1, kv_len=256),
        max_batch_size=4,
        prefill_chunk=64,
    )
    cache = PlanCache()
    engines = {
        scheme: FleetEngine(
            [model],
            num_chips=4,
            router=CostAwareRouter(),
            constraints=FAST_CONSTRAINTS,
            plan_cache=cache,
        )
        for scheme in ("reactive", "forecast")
    }
    for engine in engines.values():
        engine.warm()  # second warm is all cache hits

    # Express time and load in the cost model's own units: the scaler ticks
    # every 24 batch-1 iterations, provisioning takes 8 ticks, and the trace
    # peaks at ~4x one replica's sustained full-batch capacity.
    reference = engines["forecast"]
    unit = reference.iteration_latency("opt-125m", 1)
    mean_iterations = model.ideal_iterations(72, 26)
    replica_rate = model.max_batch_size / (
        mean_iterations * reference.iteration_latency("opt-125m", 4)
    )
    interval = 24 * unit
    provision_delay = 8 * interval
    horizon = 100 * interval
    slo = lambda prompt, output: (  # noqa: E731
        1.25 * model.ideal_iterations(prompt, output) * unit
    )
    # A diurnal base tide plus a flash crowd that erupts in the tide's
    # trough — the regime where provisioning ahead matters: the fleet has
    # scaled down for the quiet phase exactly when the spike begins.
    workload = merge_decode_workloads(
        diurnal_workload(
            "opt-125m",
            base_rate=0.9 * replica_rate,
            period=0.6 * horizon,
            amplitude=0.7,
            duration=horizon,
            seed=1,
            tenant="steady",
            interactive_fraction=0.9,
            slo_seconds=slo,
        ),
        flash_crowd_workload(
            "opt-125m",
            base_rate=0.15 * replica_rate,
            start=0.3 * horizon,
            ramp=12 * interval,
            hold=12 * interval,
            decay=8 * interval,
            peak_multiplier=16.0,
            duration=horizon,
            seed=3,
            tenant="flash",
            interactive_fraction=0.9,
            slo_seconds=slo,
        ),
    )
    print(
        f"trace: {len(workload)} requests over {horizon / interval:.0f} ticks, "
        f"burstiness {burstiness(workload, window=interval):.1f}x "
        "(peak-to-mean windowed rate)\n"
    )

    shape = TrafficShape(
        mean_prompt=72, mean_output=26, slo_seconds=1.25 * mean_iterations * unit
    )

    def make_scaler(scheme: str, engine: FleetEngine):
        """Fresh per run — forecasters carry observation state across ticks."""
        if scheme == "reactive":
            return ReactiveScaler(
                interval=interval,
                provision_delay=provision_delay,
                scale_up_queue=model.max_batch_size,
            )
        return ForecastScaler(
            BlueprintPlanner.for_engine(engine),
            {"opt-125m": shape},
            interval=interval,
            provision_delay=provision_delay,
            make_forecaster=lambda: LinearTrendForecaster(window=8),
        )

    for scheme, engine in engines.items():
        report = engine.run(workload, scaler=make_scaler(scheme, engine))
        goodput_per_chip = report.slo_met / report.provisioned_chip_seconds
        print(f"=== {scheme} ===")
        print(
            f"  {report.slo_met}/{len(report.completed)} within SLO "
            f"({report.slo_attainment:.0%}), {report.shed} shed"
        )
        print(
            f"  provisioning: {report.provision_ups} ups / "
            f"{report.provision_downs} downs, peak {report.peak_provisioned_chips} "
            f"chips, {report.provisioned_chip_seconds:.3f} paid chip-seconds"
        )
        print(f"  goodput {goodput_per_chip:.0f} SLO-met requests per chip-second\n")

    print(
        "The forecaster sees the flash crowd while it is still ramping and "
        "provisions ahead of it; the reactive scaler only reacts once the "
        "queue is deep — one full provisioning delay too late — then keeps "
        "adding replicas that arrive after the burst has passed.  Same "
        "served load, fewer and better-timed provisioning actions, less "
        "paid-for idle capacity: more goodput per chip-second.  The fig32 "
        "experiment replays a larger three-tenant trace where the win is a "
        "strict double one (goodput per chip-second AND SLO attainment)."
    )


if __name__ == "__main__":
    main()
