"""Model-serving subsystem: plan caching, batching, multi-chip fleets.

This layer sits on top of the compiler and simulator and answers the
questions a production deployment asks: how many requests per second does a
fleet of N chips sustain, what are the tail latencies under a given batching
policy, and how much compile time does the plan cache amortise away.

Every engine serves :class:`DecodeRequest` streams through one event loop
and reports a :class:`ContinuousReport` that :func:`check_report` audits.
A single-forward-pass request (an encoder or CNN inference) is a decode
request with a one-token prompt and one output token: one iteration of the
model's bucketed program.  Static batching with a batch window::

    from repro.models import build_bert
    from repro.serving import DecodeModel, StaticEngine, decode_workload

    engine = StaticEngine(
        DecodeModel("bert", lambda batch: build_bert(batch, num_layers=2)),
        num_chips=2,
        batch_window=2e-3,
    )
    engine.warm()                          # compile every batch bucket once
    requests = decode_workload(
        "bert", num_requests=200, rate=2000.0,
        prompt_tokens=(1, 1), output_tokens=(1, 1), interactive_fraction=0.0,
    )
    print(engine.run(requests).summary())

Autoregressive traffic is served by the continuous-batching engine
(:mod:`repro.serving.continuous`), where requests join a running batch at
decode-iteration boundaries under an SLO-aware policy::

    from repro.models import opt_decode_session
    from repro.serving import ContinuousEngine, DecodeModel, decode_workload

    engine = ContinuousEngine(
        DecodeModel("opt-125m", opt_decode_session("125m", num_layers=1)),
        num_chips=2,
    )
    report = engine.run(decode_workload("opt-125m", num_requests=100, rate=5000.0))
    print(report.summary())

A multi-model fleet (:mod:`repro.serving.fleet`) shares the chips across N
deployments behind a pluggable router, and chaos is supported in *both*
engines: ``run(faults=FaultSchedule(...), watchdog=Watchdog(...))`` injects
chip deaths, restarts and link-degradation windows as virtual-time events.
The fleet engine layers the fleet-scale policies on top — health-aware
routing (:class:`~repro.serving.router.CostAwareRouter` reads per-replica
health), cross-model failover of requeued requests, per-tenant retry
budgets with deadline-aware drops, and brownout admission control — see
``docs/continuous.md``.
"""

from repro.serving.batcher import batch_buckets, bucket_for
from repro.serving.continuous import (
    POLICY_CONTINUOUS,
    POLICY_STATIC,
    ContinuousEngine,
    DecodeModel,
    StaticEngine,
)
from repro.serving.faults import (
    FAULT_CHIP_DEATH,
    FAULT_LINK_DEGRADATION,
    FAULT_RESTART,
    FaultEvent,
    FaultSchedule,
    Watchdog,
    chip_death,
    group_link_degradation,
    link_degradation,
    restart,
)
from repro.serving.fleet import POLICY_FLEET, FleetEngine
from repro.serving.forecast import (
    Forecaster,
    LinearTrendForecaster,
    MovingAverageForecaster,
    RateTracker,
)
from repro.serving.metrics import (
    ContinuousReport,
    FaultStats,
    check_report,
    dip_and_recovery,
    goodput_timeline,
    jain_fairness,
)
from repro.serving.plan_cache import (
    COMPILE,
    HIT_DISK,
    HIT_MEMORY,
    CacheLookup,
    CacheStats,
    PlanCache,
    plan_key,
)
from repro.serving.planner import (
    Blueprint,
    BlueprintPlanner,
    FleetScaler,
    ForecastScaler,
    ReactiveScaler,
    ScalerObservation,
    TrafficShape,
)
from repro.serving.request import (
    DECODE_OK,
    DECODE_SHED,
    SLO_BEST_EFFORT,
    SLO_INTERACTIVE,
    CompletedDecode,
    DecodeRequest,
    TenantSpec,
    decode_workload,
    merge_decode_workloads,
    trace_workload,
)
from repro.serving.router import (
    HEALTH_DEAD,
    HEALTH_DEGRADED,
    HEALTH_HEALTHY,
    HEALTH_RESTARTING,
    CostAwareRouter,
    FleetView,
    LeastLoadedRouter,
    ReplicaView,
    Router,
    StaticPartitionRouter,
)
from repro.serving.traffic import (
    DiurnalPattern,
    FlashCrowdPattern,
    burstiness,
    bursty_workload,
    diurnal_workload,
    expected_arrivals,
    flash_crowd_workload,
    mmpp_arrivals,
    poisson_arrivals,
    windowed_rates,
)
from repro.serving.worker import IterationCost, WorkerPool

__all__ = [
    "Blueprint",
    "BlueprintPlanner",
    "COMPILE",
    "CacheLookup",
    "CacheStats",
    "CompletedDecode",
    "ContinuousEngine",
    "ContinuousReport",
    "CostAwareRouter",
    "DECODE_OK",
    "DECODE_SHED",
    "DecodeModel",
    "DecodeRequest",
    "DiurnalPattern",
    "FAULT_CHIP_DEATH",
    "FAULT_LINK_DEGRADATION",
    "FAULT_RESTART",
    "FaultEvent",
    "FaultSchedule",
    "FaultStats",
    "FlashCrowdPattern",
    "FleetEngine",
    "FleetScaler",
    "FleetView",
    "ForecastScaler",
    "Forecaster",
    "HEALTH_DEAD",
    "HEALTH_DEGRADED",
    "HEALTH_HEALTHY",
    "HEALTH_RESTARTING",
    "HIT_DISK",
    "HIT_MEMORY",
    "IterationCost",
    "LeastLoadedRouter",
    "LinearTrendForecaster",
    "MovingAverageForecaster",
    "POLICY_CONTINUOUS",
    "POLICY_FLEET",
    "POLICY_STATIC",
    "PlanCache",
    "RateTracker",
    "ReactiveScaler",
    "ReplicaView",
    "Router",
    "SLO_BEST_EFFORT",
    "SLO_INTERACTIVE",
    "ScalerObservation",
    "StaticEngine",
    "StaticPartitionRouter",
    "TenantSpec",
    "TrafficShape",
    "Watchdog",
    "WorkerPool",
    "batch_buckets",
    "bucket_for",
    "check_report",
    "burstiness",
    "bursty_workload",
    "chip_death",
    "decode_workload",
    "dip_and_recovery",
    "diurnal_workload",
    "expected_arrivals",
    "flash_crowd_workload",
    "goodput_timeline",
    "group_link_degradation",
    "jain_fairness",
    "link_degradation",
    "merge_decode_workloads",
    "mmpp_arrivals",
    "plan_key",
    "poisson_arrivals",
    "restart",
    "trace_workload",
    "windowed_rates",
]
