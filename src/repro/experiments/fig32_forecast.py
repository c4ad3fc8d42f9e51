"""Figure 32 (extension): forecast-ahead provisioning vs reactive autoscaling.

The fleet experiments so far (fig30/fig31) provision on demand: a replica
activates the instant a request is routed to it, for free.  Real capacity
takes time — boot a host, load weights, warm caches — so scaling decisions
must be made *before* the load that needs them, and the classic
queue-depth autoscaler fails exactly there: the queue is a trailing
indicator, and by the time it is deep enough to trigger scale-up the
provisioning delay has already been lost, and the SLO with it.

This experiment replays one deterministic three-tenant trace — a ``steady``
tenant on a diurnal cycle, a ``spiky`` tenant on Markov-modulated bursts
and a ``flash`` tenant whose traffic ramps 10× in a flash crowd
(:mod:`repro.serving.traffic`) — through the same
:class:`~repro.serving.fleet.FleetEngine` three times on one shared plan
cache, varying only the capacity policy:

* **reactive** — :class:`~repro.serving.planner.ReactiveScaler`:
  queue-depth target tracking with the same tick and provisioning delay.
* **forecast** — :class:`~repro.serving.planner.ForecastScaler`: a
  linear-trend forecaster predicts each model's arrival rate one
  provisioning delay ahead; a blueprint planner enumerates
  (replicas × stages × batch bucket) configurations, prices them against
  the engine's :class:`~repro.serving.worker.IterationCost` table, and
  provisions the cheapest blueprint meeting the SLO for the *predicted*
  rate — capacity lands when the load does.
* **instant** — no scaler: the demand-driven activation the older figures
  use.  Provisioning is free and immediate, so this is the unreachable
  upper bound that calibrates how much of it forecasting recovers.

The headline claim: **forecast strictly beats reactive on both
goodput-per-chip-second** (SLO-met completions per provisioned
chip-second — capacity held while booting is paid for) **and SLO
attainment**.  Reactive loses twice: it provisions late (misses during
every ramp) and over-steers (queue backlog keeps adding replicas that
arrive after the burst, wasting paid chip-seconds).  Every run is pure
virtual time; the forecast scheme re-runs on a fresh ``jobs=2`` cache and
must reproduce every placement bit-for-bit (``jobs2_identical``).
"""

from __future__ import annotations

from repro.experiments.common import checked, print_table
from repro.experiments.serving_common import (
    CHIP,
    OUTPUT_TOKENS,
    PROMPT_TOKENS,
    SEED,
    attainment,
    constraints_for,
    identical_at_jobs2,
    opt_deployment,
    placement_digest,
    tenant_scopes,
    warm,
)
from repro.serving import (
    BlueprintPlanner,
    ContinuousReport,
    CostAwareRouter,
    FleetEngine,
    FleetScaler,
    ForecastScaler,
    LinearTrendForecaster,
    PlanCache,
    ReactiveScaler,
    TenantSpec,
    TrafficShape,
    bursty_workload,
    diurnal_workload,
    flash_crowd_workload,
    merge_decode_workloads,
)

#: The three capacity policies compared, in run order.
SCHEME_REACTIVE = "reactive"
SCHEME_FORECAST = "forecast"
SCHEME_INSTANT = "instant"
SCHEMES = (SCHEME_REACTIVE, SCHEME_FORECAST, SCHEME_INSTANT)

MEAN_PROMPT = (PROMPT_TOKENS[0] + PROMPT_TOKENS[1]) // 2
MEAN_OUTPUT = (OUTPUT_TOKENS[0] + OUTPUT_TOKENS[1]) // 2

#: Chips the scalers provision from.
NUM_CHIPS = 6

#: Virtual-time knobs, in units of the model's batch-1 iteration latency:
#: the scaler ticks every ``INTERVAL_ITERATIONS`` units, provisioning takes
#: ``PROVISION_DELAY_INTERVALS`` ticks and the trace spans
#: ``HORIZON_INTERVALS`` ticks.
INTERVAL_ITERATIONS = 24
PROVISION_DELAY_INTERVALS = 8
HORIZON_INTERVALS = 100

#: Deadlines over ideal service time, the blueprint planner's capacity
#: headroom and the forecaster's window (in ticks).
SLO_FACTOR = 1.25
HEADROOM = 1.2
FORECAST_WINDOW = 8

#: Decoder layers and KV length: the full grid, then the quick grid.
NUM_LAYERS, QUICK_NUM_LAYERS = 2, 1
KV_LEN, QUICK_KV_LEN = 1024, 256


def run(*, quick: bool = False, jobs: int = 1) -> list[dict]:
    """One row per (scheme, tenant) plus a fleet-wide row per scheme.

    Offered load is expressed in replica-capacity units (one replica's
    sustained full-batch rate), so the quiet fleet needs ~1 replica and the
    coincident peaks need ~4 — exactly the regime where provisioning ahead
    matters.
    """
    deployment = opt_deployment(
        num_layers=QUICK_NUM_LAYERS if quick else NUM_LAYERS,
        kv_len=QUICK_KV_LEN if quick else KV_LEN,
        max_batch_size=4,
    )
    model = deployment.name
    tenants = [TenantSpec("steady"), TenantSpec("spiky"), TenantSpec("flash")]

    def build_engine(cache: PlanCache) -> FleetEngine:
        return FleetEngine(
            [deployment],
            tenants=tenants,
            chip=CHIP,
            num_chips=NUM_CHIPS,
            router=CostAwareRouter(),
            constraints=constraints_for(quick),
            plan_cache=cache,
        )

    cache = PlanCache(jobs=jobs)
    rows: list[dict] = []
    engines = {scheme: build_engine(cache) for scheme in SCHEMES}
    warm_misses = {scheme: warm(cache, engine).misses for scheme, engine in engines.items()}

    # Time and load units come from the priced cost model: ``unit`` is
    # the batch-1 iteration latency, ``replica_rate`` one replica's
    # sustained full-batch capacity for the mean request shape.
    reference = engines[SCHEME_FORECAST]
    unit = reference.iteration_latency(model, 1)
    mean_iterations = deployment.ideal_iterations(MEAN_PROMPT, MEAN_OUTPUT)
    replica_rate = deployment.max_batch_size / (
        mean_iterations * reference.iteration_latency(model, deployment.max_batch_size)
    )
    interval = INTERVAL_ITERATIONS * unit
    provision_delay = PROVISION_DELAY_INTERVALS * interval
    horizon = HORIZON_INTERVALS * interval
    slo_seconds = lambda prompt, output: (  # noqa: E731
        SLO_FACTOR * deployment.ideal_iterations(prompt, output) * unit
    )
    shared = dict(
        prompt_tokens=PROMPT_TOKENS,
        output_tokens=OUTPUT_TOKENS,
        interactive_fraction=0.9,
        slo_seconds=slo_seconds,
    )
    workload = merge_decode_workloads(
        diurnal_workload(
            model,
            base_rate=0.9 * replica_rate,
            period=0.6 * horizon,
            amplitude=0.7,
            duration=horizon,
            seed=SEED + 1,
            tenant="steady",
            **shared,
        ),
        bursty_workload(
            model,
            quiet_rate=0.15 * replica_rate,
            burst_rate=2.2 * replica_rate,
            mean_quiet=20 * interval,
            mean_burst=7 * interval,
            duration=horizon,
            seed=SEED + 2,
            tenant="spiky",
            **shared,
        ),
        flash_crowd_workload(
            model,
            base_rate=0.15 * replica_rate,
            start=0.3 * horizon,
            ramp=12 * interval,
            hold=12 * interval,
            decay=8 * interval,
            peak_multiplier=16.0,
            duration=horizon,
            seed=SEED + 3,
            tenant="flash",
            **shared,
        ),
    )

    shapes = {
        model: TrafficShape(
            mean_prompt=MEAN_PROMPT,
            mean_output=MEAN_OUTPUT,
            slo_seconds=SLO_FACTOR * mean_iterations * unit,
        )
    }

    def make_scaler(scheme: str, engine: FleetEngine) -> FleetScaler | None:
        """Fresh per run: forecasters carry state across ticks."""
        if scheme == SCHEME_REACTIVE:
            return ReactiveScaler(
                interval=interval,
                provision_delay=provision_delay,
                scale_up_queue=deployment.max_batch_size,
            )
        if scheme == SCHEME_FORECAST:
            return ForecastScaler(
                BlueprintPlanner.for_engine(engine, headroom=HEADROOM),
                shapes,
                interval=interval,
                provision_delay=provision_delay,
                make_forecaster=lambda: LinearTrendForecaster(window=FORECAST_WINDOW),
            )
        return None

    digests: dict[str, str] = {}
    reports: dict[str, ContinuousReport] = {}
    for scheme in SCHEMES:
        engine = engines[scheme]
        reports[scheme] = checked(
            engine.run(workload, scaler=make_scaler(scheme, engine)), workload
        )
        digests[scheme] = placement_digest(reports[scheme])
    # Bit-identity across compile parallelism: a fresh engine on a cold
    # jobs=2 cache (and a fresh scaler) must reproduce every placement
    # of the forecast scheme.
    jobs2_identical = identical_at_jobs2(
        build_engine,
        lambda engine: engine.run(
            workload, scaler=make_scaler(SCHEME_FORECAST, engine)
        ),
        digests[SCHEME_FORECAST],
    )

    for scheme in SCHEMES:
        report = reports[scheme]
        for tenant, scope in tenant_scopes(report):
            rows.append(
                {
                    "scheme": scheme,
                    "tenant": tenant,
                    "model": model,
                    "chips": NUM_CHIPS,
                    "requests": len(scope.completed),
                    "completed": scope.total_completed,
                    "shed": scope.shed,
                    "slo_met": scope.slo_met,
                    "tokens": scope.total_tokens,
                    "provision_ups": report.provision_ups if tenant == "all" else 0,
                    "provision_downs": (
                        report.provision_downs if tenant == "all" else 0
                    ),
                    "peak_provisioned": (
                        report.peak_provisioned_chips if tenant == "all" else 0
                    ),
                    "provisioned_chip_seconds": (
                        report.provisioned_chip_seconds if tenant == "all" else 0.0
                    ),
                    "goodput_rps": scope.goodput,
                    # Per-tenant slices zero fleet-level resource
                    # integrals, so every row normalises its slo_met by
                    # the *fleet's* paid chip-seconds.
                    "goodput_per_chip": (
                        scope.slo_met / report.provisioned_chip_seconds
                        if report.provisioned_chip_seconds > 0
                        else 0.0
                    ),
                    "slo_attainment": attainment(scope),
                    "warm_compiles": warm_misses[scheme],
                    "recompiles": report.cache.misses,
                    "placements": digests[scheme] if tenant == "all" else "",
                    "jobs2_identical": (
                        jobs2_identical
                        if tenant == "all" and scheme == SCHEME_FORECAST
                        else None
                    ),
                }
            )
    return rows


def main() -> None:
    """Print the forecast-vs-reactive provisioning comparison (quick grid)."""
    print_table(
        run(quick=True),
        title="Figure 32: forecast-ahead provisioning vs reactive autoscaling",
    )


if __name__ == "__main__":
    main()
