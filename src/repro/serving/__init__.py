"""Model-serving subsystem: plan caching, batching, multi-chip pool.

This layer sits on top of the compiler and simulator and answers the
questions a production deployment asks: how many requests per second does a
fleet of N chips sustain, what are the tail latencies under a given batching
policy, and how much compile time does the plan cache amortise away.

Quick start::

    from repro.serving import PlanCache, ServedModel, ServingScheduler, poisson_workload

    scheduler = ServingScheduler(
        [ServedModel.from_registry("bert", num_layers=2, max_batch_size=8)],
        num_chips=2,
        batch_window=2e-3,
    )
    scheduler.warm()                       # compile every batch bucket once
    report = scheduler.serve(
        poisson_workload({"bert": 2000.0}, num_requests=200, seed=0)
    )
    print(report.summary())

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

from repro.serving.batcher import (
    Batch,
    BatchReplay,
    DynamicBatcher,
    ReplayStats,
    batch_buckets,
    bucket_for,
)
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
    ModelStats,
    ServingReport,
    build_model_stats,
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
    CompletedRequest,
    DecodeRequest,
    InferenceRequest,
    TenantSpec,
    decode_workload,
    merge_decode_workloads,
    merge_workloads,
    poisson_workload,
    trace_workload,
    uniform_workload,
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
from repro.serving.scheduler import ServedModel, ServingScheduler
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
from repro.serving.worker import BatchExecution, IterationCost, WorkerPool

__all__ = [
    "Batch",
    "BatchExecution",
    "BatchReplay",
    "Blueprint",
    "BlueprintPlanner",
    "COMPILE",
    "CacheLookup",
    "CacheStats",
    "CompletedDecode",
    "CompletedRequest",
    "ContinuousEngine",
    "ContinuousReport",
    "CostAwareRouter",
    "DECODE_OK",
    "DECODE_SHED",
    "DecodeModel",
    "DecodeRequest",
    "DiurnalPattern",
    "DynamicBatcher",
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
    "InferenceRequest",
    "IterationCost",
    "LeastLoadedRouter",
    "LinearTrendForecaster",
    "ModelStats",
    "MovingAverageForecaster",
    "POLICY_CONTINUOUS",
    "POLICY_FLEET",
    "POLICY_STATIC",
    "PlanCache",
    "RateTracker",
    "ReactiveScaler",
    "ReplayStats",
    "ReplicaView",
    "Router",
    "SLO_BEST_EFFORT",
    "SLO_INTERACTIVE",
    "ScalerObservation",
    "ServedModel",
    "ServingReport",
    "ServingScheduler",
    "StaticEngine",
    "StaticPartitionRouter",
    "TenantSpec",
    "TrafficShape",
    "Watchdog",
    "WorkerPool",
    "batch_buckets",
    "bucket_for",
    "build_model_stats",
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
    "merge_workloads",
    "mmpp_arrivals",
    "plan_key",
    "poisson_arrivals",
    "poisson_workload",
    "restart",
    "trace_workload",
    "uniform_workload",
    "windowed_rates",
]
