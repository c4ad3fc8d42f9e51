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

import hashlib
import math

from repro.core.constraints import (
    DEFAULT_CONSTRAINTS,
    FAST_CONSTRAINTS,
    SearchConstraints,
)
from repro.experiments.common import checked, print_table
from repro.hw.spec import IPU_MK2, ChipSpec
from repro.obs import Tracer, use_tracer
from repro.models import opt_decode_session
from repro.serving import (
    BlueprintPlanner,
    ContinuousReport,
    CostAwareRouter,
    DecodeModel,
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

MODEL = "opt-125m"
PROMPT_TOKENS = (16, 128)
OUTPUT_TOKENS = (4, 48)
MEAN_PROMPT = (16 + 128) // 2
MEAN_OUTPUT = (4 + 48) // 2


def placement_digest(report: ContinuousReport) -> str:
    """Deterministic fingerprint of every request's fate: replica placement,
    tokens generated and virtual completion time.  Two runs of the same
    workload agree on this digest iff they made identical scheduling
    decisions — the bit-identity the jobs sweep asserts."""
    payload = ";".join(
        f"{record.request.request_id}:{record.replica}:"
        f"{record.tokens_generated}:{record.completion_time!r}"
        for record in report.completed
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _deployment(*, num_layers: int | None, kv_len: int) -> DecodeModel:
    return DecodeModel(
        name=MODEL,
        decode_builder=opt_decode_session("125m", num_layers=num_layers, kv_len=kv_len),
        max_batch_size=4,
        prefill_chunk=64,
    )


def run(
    *,
    chip: ChipSpec = IPU_MK2,
    num_chips: int = 6,
    num_layers: int | None = 2,
    kv_len: int = 1024,
    horizon_intervals: int = 100,
    interval_iterations: int = 24,
    provision_delay_intervals: int = 8,
    slo_factor: float = 1.25,
    headroom: float = 1.2,
    forecast_window: int = 8,
    constraints: SearchConstraints | None = None,
    quick: bool = False,
    jobs: int = 1,
    seed: int = 0,
) -> list[dict]:
    """One row per (scheme, tenant) plus a fleet-wide row per scheme.

    All virtual-time knobs are expressed in units of the model's batch-1
    iteration latency: the scaler ticks every ``interval_iterations``
    units, provisioning takes ``provision_delay_intervals`` ticks, and the
    trace spans ``horizon_intervals`` ticks.  Offered load is expressed in
    replica-capacity units (one replica's sustained full-batch rate), so
    the quiet fleet needs ~1 replica and the coincident peaks need ~4 —
    exactly the regime where provisioning ahead matters.
    """
    if constraints is None:
        constraints = FAST_CONSTRAINTS if quick else DEFAULT_CONSTRAINTS
    if quick:
        num_layers = 1 if num_layers is None else min(num_layers, 1)
        kv_len = min(kv_len, 256)
        horizon_intervals = min(horizon_intervals, 100)
    if num_chips < 4:
        raise ValueError(f"fig32 needs at least 4 chips, got {num_chips}")
    deployment = _deployment(num_layers=num_layers, kv_len=kv_len)
    tenants = [TenantSpec("steady"), TenantSpec("spiky"), TenantSpec("flash")]

    def build_engine(cache: PlanCache) -> FleetEngine:
        return FleetEngine(
            [deployment],
            tenants=tenants,
            chip=chip,
            num_chips=num_chips,
            router=CostAwareRouter(),
            constraints=constraints,
            plan_cache=cache,
        )

    cache = PlanCache(jobs=jobs)
    rows: list[dict] = []
    try:
        engines = {scheme: build_engine(cache) for scheme in SCHEMES}
        warm_misses: dict[str, int] = {}
        for scheme, engine in engines.items():
            before = cache.stats.snapshot()
            engine.warm()
            warm_misses[scheme] = cache.stats.since(before).misses

        # Time and load units come from the priced cost model: ``unit`` is
        # the batch-1 iteration latency, ``replica_rate`` one replica's
        # sustained full-batch capacity for the mean request shape.
        reference = engines[SCHEME_FORECAST]
        unit = reference.iteration_latency(MODEL, 1)
        mean_iterations = deployment.ideal_iterations(MEAN_PROMPT, MEAN_OUTPUT)
        replica_rate = deployment.max_batch_size / (
            mean_iterations * reference.iteration_latency(MODEL, deployment.max_batch_size)
        )
        interval = interval_iterations * unit
        provision_delay = provision_delay_intervals * interval
        horizon = horizon_intervals * interval
        slo_seconds = lambda prompt, output: (  # noqa: E731
            slo_factor * deployment.ideal_iterations(prompt, output) * unit
        )
        shared = dict(
            prompt_tokens=PROMPT_TOKENS,
            output_tokens=OUTPUT_TOKENS,
            interactive_fraction=0.9,
            slo_seconds=slo_seconds,
        )
        workload = merge_decode_workloads(
            diurnal_workload(
                MODEL,
                base_rate=0.9 * replica_rate,
                period=0.6 * horizon,
                amplitude=0.7,
                duration=horizon,
                seed=seed + 1,
                tenant="steady",
                **shared,
            ),
            bursty_workload(
                MODEL,
                quiet_rate=0.15 * replica_rate,
                burst_rate=2.2 * replica_rate,
                mean_quiet=20 * interval,
                mean_burst=7 * interval,
                duration=horizon,
                seed=seed + 2,
                tenant="spiky",
                **shared,
            ),
            flash_crowd_workload(
                MODEL,
                base_rate=0.15 * replica_rate,
                start=0.3 * horizon,
                ramp=12 * interval,
                hold=12 * interval,
                decay=8 * interval,
                peak_multiplier=16.0,
                duration=horizon,
                seed=seed + 3,
                tenant="flash",
                **shared,
            ),
        )

        shapes = {
            MODEL: TrafficShape(
                mean_prompt=MEAN_PROMPT,
                mean_output=MEAN_OUTPUT,
                slo_seconds=slo_factor * mean_iterations * unit,
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
                    BlueprintPlanner.for_engine(engine, headroom=headroom),
                    shapes,
                    interval=interval,
                    provision_delay=provision_delay,
                    make_forecaster=lambda: LinearTrendForecaster(
                        window=forecast_window
                    ),
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
        # of the forecast scheme.  Internal verification, not part of the
        # figure — its events go to a throwaway tracer.
        recheck_cache = PlanCache(jobs=2)
        try:
            with use_tracer(Tracer()):
                recheck = build_engine(recheck_cache)
                recheck.warm()
                report = recheck.run(
                    workload, scaler=make_scaler(SCHEME_FORECAST, recheck)
                )
                jobs2_identical = placement_digest(report) == digests[SCHEME_FORECAST]
        finally:
            recheck_cache.close()

        for scheme in SCHEMES:
            report = reports[scheme]
            slices = report.per_tenant()
            scoped = [("all", report)] + [
                (tenant, slices[tenant]) for tenant in report.tenants
            ]
            for tenant, scope in scoped:
                attainment = scope.slo_attainment
                rows.append(
                    {
                        "scheme": scheme,
                        "tenant": tenant,
                        "model": MODEL,
                        "chips": num_chips,
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
                        "slo_attainment": (
                            -1.0 if math.isnan(attainment) else attainment
                        ),
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
    finally:
        cache.close()
    return rows


def main() -> None:
    """Print the forecast-vs-reactive provisioning comparison (quick grid)."""
    print_table(
        run(quick=True),
        title="Figure 32: forecast-ahead provisioning vs reactive autoscaling",
    )


if __name__ == "__main__":
    main()
