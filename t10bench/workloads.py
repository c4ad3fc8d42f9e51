"""The benchmark's four workloads: seeded inputs, measured phases, output checks.

Every workload compiles something cold and then replays an open-loop,
seeded arrival schedule through a serving engine in virtual time (a batch
job: nothing paces the replay to the wall clock).  What differs is which
layers carry the weight:

* ``compile`` — a cold compile of five registry models dominates; the
  replay serves those same programs single-pass, so plan quality reaches
  the serving numbers.
* ``fleet-steady`` — the multi-tenant ``FleetEngine`` hot loop (route, view
  build, iteration pricing, admit/preempt/shed, rebind, report).
* ``fleet-chaos`` — the same trace plus chip deaths, cold restarts, a link
  slowdown, retry budgets and brownout.
* ``continuous`` — the single-model ``ContinuousEngine`` event loop: no
  router, almost no chip fingerprinting.

A workload object is built (set-up), then :meth:`Workload.compile_units` and
:meth:`Workload.replay` plus :func:`read_report` are the two measured
phases, and :meth:`Workload.check` verifies the outputs without being timed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from repro.bench.runner import BenchConfig, _bench_model
from repro.core import (
    FAST_CONSTRAINTS,
    CompiledModel,
    SearchConstraints,
    T10Compiler,
    default_cost_model,
)
from repro.experiments.common import build_workload
from repro.experiments.fig30_multitenant import placement_digest
from repro.hw.spec import A100_CHIP, IPU_MK2, ChipSpec
from repro.ir.graph import OperatorGraph
from repro.models import build_bert, build_vit, opt_decode_session
from repro.runtime import Executor
from repro.serving import (
    ContinuousEngine,
    ContinuousReport,
    CostAwareRouter,
    DecodeModel,
    FaultSchedule,
    FleetEngine,
    PlanCache,
    TenantSpec,
    Watchdog,
    decode_workload,
    merge_decode_workloads,
)
from repro.serving.batcher import batch_buckets
from repro.serving.faults import link_degradation
from repro.serving.request import DECODE_OK, DECODE_SHED, DecodeRequest

#: The serving fleet of every workload: four chips.
NUM_CHIPS = 4

#: Models of the ``compile`` workload (ROADMAP's compile-time set plus the
#: two vision models), compiled at batch 1.
COMPILE_MODELS = ("opt-125m", "bert-base", "nerf", "resnet", "vit")


@dataclass(frozen=True)
class Size:
    """How much work one round does (``quick`` is the test size)."""

    requests: int
    num_layers: int | None = None
    kv_len: int = 1024
    seq_len: int = 64
    max_batch: tuple[int, ...] = (8, 4, 4)
    """Largest batch bucket of each deployment, in deployment order."""


def read_report(report: ContinuousReport) -> dict[str, float]:
    """The report fields the end-to-end metrics read (inside the timed replay)."""
    ttft = report.ttft_percentiles
    return {
        "slo_attainment": report.slo_attainment,
        "goodput_rps": report.goodput,
        "ttft_p50_ms": ttft["p50"] * 1e3,
        "ttft_p95_ms": ttft["p95"] * 1e3,
    }


def check_serving(
    report: ContinuousReport, trace: list[DecodeRequest], *, provisioned: bool = True
) -> list[str]:
    """The serving invariants every replay must keep; returns the failures.

    ``provisioned=False`` skips the active <= provisioned bound for engines
    that do not report provisioned chip-seconds.
    """
    failures: list[str] = []
    ids = [record.request.request_id for record in report.completed]
    if len(ids) != len(trace):
        failures.append(f"{len(ids)} records for {len(trace)} requests")
    if len(set(ids)) != len(ids):
        failures.append(f"{len(ids) - len(set(ids))} requests ended more than once")
    if set(ids) != {request.request_id for request in trace}:
        failures.append("record ids differ from the trace's request ids")
    bad = {r.status for r in report.completed} - {DECODE_OK, DECODE_SHED}
    if bad:
        failures.append(f"unknown record states {sorted(bad)}")
    busy, active = report.busy_chip_seconds, report.active_chip_seconds
    ceiling = report.provisioned_chip_seconds if provisioned else active
    slack = 1e-9 * max(1.0, ceiling)
    if not (busy <= active + slack and active <= ceiling + slack):
        failures.append(
            f"chip-seconds out of order: busy {busy!r}, active {active!r}, "
            f"provisioned {report.provisioned_chip_seconds!r}"
        )
    slices = report.per_tenant().values()
    for field in ("total_completed", "shed", "slo_met", "total_tokens", "preemptions"):
        whole = getattr(report, field)
        parts = sum(getattr(piece, field) for piece in slices)
        if parts != whole:
            failures.append(f"tenant slices sum {field} to {parts}, fleet has {whole}")
    return failures


def _program_latencies(
    cache: PlanCache, programs: list[tuple[str, OperatorGraph, ChipSpec]],
    constraints: SearchConstraints,
) -> dict[str, float]:
    """Simulated latency (ms) of each compiled program, fetched from the warm
    cache (``None`` for a failed compile, which the checks report)."""
    latencies = {}
    for label, graph, chip in programs:
        compiled = cache.get_or_compile(graph, chip, constraints).compiled
        latencies[label] = Executor(chip).run(compiled).total_time * 1e3 if compiled.ok else None
    return latencies


class Workload:
    """One workload's round: set-up in ``__init__``, then the phases below."""

    name = ""

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.quick = quick
        self.trace: list[DecodeRequest] = []
        self.report: ContinuousReport | None = None

    def compile_units(self) -> list[Callable[[], object]]:
        """The cold compile of every program the replay needs, as units of
        work timed one by one (the machine's speed is sampled between them)."""
        raise NotImplementedError

    def generate(self) -> None:
        """Build the arrival schedule (set-up; it needs compiled latencies)."""
        raise NotImplementedError

    def replay(self) -> ContinuousReport:
        """Replay the schedule (timed, together with :func:`read_report`)."""
        raise NotImplementedError

    def operations(self) -> int:
        """Compiles plus replays this round attempted."""
        return 2

    def check(self) -> list[str]:
        """Output checks (untimed); returns the failures."""
        return check_serving(self.report, self.trace)

    def facts(self) -> dict[str, Any]:
        """Deterministic outputs every round with the same seed must repeat."""
        return {"placements": placement_digest(self.report)}


# ---------------------------------------------------------------------- #
# compile
# ---------------------------------------------------------------------- #
class _ColdCompiler:
    """Compiles every graph on a fresh :class:`T10Compiler`.

    A plan cache keeps one compiler per target, and that compiler's
    operator-signature cache would let a later model reuse an earlier
    model's searches.  A fresh compiler per graph keeps each of the five
    compiles as cold as a model-private cache would, while one cache holds
    all five programs for the replay.
    """

    def __init__(self, chip: ChipSpec, constraints: SearchConstraints) -> None:
        self.chip = chip
        self.constraints = constraints

    def compile(self, graph: OperatorGraph) -> CompiledModel:
        compiler = T10Compiler(
            self.chip,
            cost_model=default_cost_model(self.chip),
            constraints=self.constraints,
            jobs=1,
        )
        try:
            return compiler.compile(graph)
        finally:
            compiler.close()

    def close(self) -> None:
        pass


class CompileWorkload(Workload):
    name = "compile"
    SIZES = {False: Size(requests=8_000), True: Size(requests=600)}
    #: Offered load as a fraction of the four chips' batch-1 capacity.
    LOAD = 0.8
    #: Deadline of a single-pass request, in units of its model's latency.
    SLO_FACTOR = 8.0

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.size = self.SIZES[quick]
        self.models = list(COMPILE_MODELS)
        # The seed permutes the compile order; programs must not depend on it.
        random.Random(seed).shuffle(self.models)
        self.config = BenchConfig(models=self.models, quick=quick, reference=False, output=None)
        self.constraints = self.config.resolved_constraints()
        default_cost_model(IPU_MK2)
        self.cache = PlanCache(compiler_factory=_ColdCompiler)
        self.engine = FleetEngine(
            [
                DecodeModel(
                    name=model,
                    decode_builder=lambda batch, m=model: build_workload(m, batch, quick=quick),
                    max_batch_size=1,
                )
                for model in COMPILE_MODELS
            ],
            tenants=[TenantSpec(model) for model in COMPILE_MODELS],
            chip=IPU_MK2,
            num_chips=NUM_CHIPS,
            router=CostAwareRouter(),
            constraints=self.constraints,
            plan_cache=self.cache,
        )
        self.rows: list[dict] = []

    def compile_units(self) -> list[Callable[[], object]]:
        return [partial(self._compile, model) for model in self.models]

    def _compile(self, model: str) -> None:
        self.rows.append(_bench_model(model, self.config, self.cache))

    def operations(self) -> int:
        return len(self.models) + 1

    def generate(self) -> None:
        self.engine.warm()
        streams = []
        for index, model in enumerate(COMPILE_MODELS):
            unit = self.engine.iteration_latency(model, 1)
            streams.append(
                decode_workload(
                    model,
                    num_requests=self.size.requests // len(COMPILE_MODELS),
                    rate=self.LOAD * NUM_CHIPS / len(COMPILE_MODELS) / unit,
                    seed=self.seed * 1000 + index,
                    prompt_tokens=(16, 64),
                    output_tokens=(1, 1),
                    interactive_fraction=1.0,
                    slo_seconds=self.SLO_FACTOR * unit,
                    tenant=model,
                )
            )
        self.trace = merge_decode_workloads(*streams)

    def replay(self) -> ContinuousReport:
        return self.engine.run(self.trace)

    def check(self) -> list[str]:
        failures = [
            f"{row['model']} compiled with status {row['status']!r}"
            for row in self.rows
            if row["status"] != "ok"
        ]
        return failures + super().check()

    def facts(self) -> dict[str, Any]:
        latencies = _program_latencies(
            self.cache,
            [(m, build_workload(m, 1, quick=self.quick), IPU_MK2) for m in COMPILE_MODELS],
            self.constraints,
        )
        by_model = {row["model"]: row for row in self.rows}
        return {
            **super().facts(),
            "programs": {
                model: [by_model[model]["sketched"], by_model[model]["materialized"],
                        latencies[model]]
                for model in COMPILE_MODELS
            },
        }


def reference_check(seed: int, quick: bool) -> list[str]:
    """The streamed frontier of every unique operator of one model (chosen
    by ``seed``) must equal :meth:`IntraOpOptimizer.search_reference`'s;
    returns the failures."""
    model = COMPILE_MODELS[seed % len(COMPILE_MODELS)]
    cache = PlanCache(jobs=1)
    try:
        row = _bench_model(
            model, BenchConfig(models=(model,), quick=quick, reference=True, output=None), cache
        )
    finally:
        cache.close()
    if row["frontier_match"] is not True:
        return [f"{model}: streamed frontier differs from search_reference"]
    return []


# ---------------------------------------------------------------------- #
# fleet-steady / fleet-chaos
# ---------------------------------------------------------------------- #
class FleetWorkload(Workload):
    name = "fleet-steady"
    SIZES = {
        False: Size(requests=10_000, num_layers=2),
        True: Size(requests=600, num_layers=1, kv_len=256, seq_len=32, max_batch=(2, 2, 1)),
    }
    TENANTS = (
        TenantSpec("chat", fairness_floor=0.35),
        TenantSpec("search", fairness_floor=0.6),
        TenantSpec("vision", fairness_floor=0.6),
    )
    #: fig30's per-tenant request mix, load factors at half of fig30's, and
    #: the partition shares those load factors are relative to.
    MIX = (90 / 150, 40 / 150, 20 / 150)
    LOAD = (5.5, 1.0, 0.5)
    SHARES = (2, 1, 1)
    GPU_CHIPS = (2, 3)

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.size = size = self.SIZES[quick]
        for chip in (IPU_MK2, A100_CHIP):
            default_cost_model(chip)
        self.deployments = (
            DecodeModel(
                name="opt-125m",
                decode_builder=opt_decode_session(
                    "125m", num_layers=size.num_layers, kv_len=size.kv_len
                ),
                max_batch_size=size.max_batch[0],
            ),
            DecodeModel(
                name="bert",
                decode_builder=lambda batch: build_bert(
                    batch, seq_len=size.seq_len, num_layers=size.num_layers
                ),
                max_batch_size=size.max_batch[1],
            ),
            DecodeModel(
                name="vit",
                decode_builder=lambda batch: build_vit(batch, num_layers=size.num_layers),
                max_batch_size=size.max_batch[2],
            ),
        )
        self.cache = PlanCache(jobs=1)
        self.engine = FleetEngine(
            self.deployments,
            tenants=self.TENANTS,
            chip=IPU_MK2,
            num_chips=NUM_CHIPS,
            chip_classes={chip: A100_CHIP for chip in self.GPU_CHIPS},
            router=CostAwareRouter(),
            constraints=FAST_CONSTRAINTS,
            plan_cache=self.cache,
        )
        self.faults: FaultSchedule | None = None
        self.watchdog: Watchdog | None = None

    def compile_units(self) -> list[Callable[[], object]]:
        # Pricing a (model, class) pair compiles all of its batch buckets:
        # exactly what warm() does, one pair at a time.
        return [
            partial(self.engine.iteration_latency, model.name, 1, chip_class=chip)
            for model in self.deployments
            for chip in self.engine.pool.hardware_classes()
        ]

    def generate(self) -> None:
        decode = self.deployments[0]
        self.streams = []
        for index, (tenant, model) in enumerate(zip(self.TENANTS, self.deployments)):
            unit = self.engine.iteration_latency(model.name, 1)
            output = (4, 48) if model is decode else (1, 1)
            mean_iterations = model.ideal_iterations(40, sum(output) // 2)
            factor = 1.5 if model is decode else 8.0
            self.streams.append(
                decode_workload(
                    model.name,
                    num_requests=round(self.size.requests * self.MIX[index]),
                    rate=self.LOAD[index] * self.SHARES[index] / (mean_iterations * unit),
                    seed=self.seed * 1000 + index,
                    prompt_tokens=(16, 64),
                    output_tokens=output,
                    interactive_fraction=0.75 if model is decode else 1.0,
                    slo_seconds=lambda p, o, u=unit, f=factor, m=model: (
                        f * m.ideal_iterations(p, o) * u
                    ),
                    tenant=tenant.name,
                )
            )
        self.trace = merge_decode_workloads(*self.streams)

    def replay(self) -> ContinuousReport:
        return self.engine.run(self.trace, faults=self.faults, watchdog=self.watchdog)

    def facts(self) -> dict[str, Any]:
        programs = [
            (f"{model.name}/{chip.name}/b{bucket}", model.decode_builder(bucket), chip)
            for model in self.deployments
            for chip in (IPU_MK2, A100_CHIP)
            for bucket in batch_buckets(model.max_batch_size)
        ]
        latencies = _program_latencies(self.cache, programs, FAST_CONSTRAINTS)
        return {**super().facts(), "program_latency_ms": latencies}


class ChaosWorkload(FleetWorkload):
    name = "fleet-chaos"
    SIZES = {
        False: Size(requests=8_000, num_layers=2),
        True: Size(requests=900, num_layers=1, kv_len=256, seq_len=32, max_batch=(2, 2, 1)),
    }
    #: The GPU class dies OUTAGE_AT of the way through the shortest stream
    #: and restarts cold OUTAGE_DOWNTIME of the trace span later.
    OUTAGE_AT = 0.45
    OUTAGE_DOWNTIME = 0.05
    #: IPU chip kills (chip, time as a fraction of the trace span); each
    #: comes back cold after IPU_DOWNTIME of the span.
    IPU_KILLS = ((0, 0.5), (1, 0.7), (0, 0.9))
    IPU_DOWNTIME = 0.02

    def generate(self) -> None:
        super().generate()
        # fig31's class outage, timed off the shortest stream so every tenant
        # is still arriving; then a fleet-wide link slowdown; then IPU kills,
        # so in-flight decodes are requeued and cold restarts recompile.
        unit = self.engine.iteration_latency("opt-125m", 1)
        span = max(request.arrival_time for request in self.trace)
        shortest = min(max(r.arrival_time for r in stream) for stream in self.streams)
        schedule = FaultSchedule.class_outage(
            self.GPU_CHIPS, at=self.OUTAGE_AT * shortest, downtime=self.OUTAGE_DOWNTIME * span,
            cold_cache=True, warmup_delay=2 * unit,
        )
        for chip, at in self.IPU_KILLS:
            schedule = schedule.merged(
                FaultSchedule.kill_and_restart(
                    chip, at=at * span, downtime=self.IPU_DOWNTIME * span,
                    cold_cache=True, warmup_delay=2 * unit,
                )
            )
        self.faults = schedule.merged([link_degradation(0.35 * span, 0.45 * span, 1.5)])
        self.watchdog = Watchdog(
            detection_delay=2 * unit,
            degraded_shed_queue=4,
            retry_budget=64,
            brownout_watermark=0.9,
        )

    def check(self) -> list[str]:
        faults = self.report.faults
        failures = [
            f"chaos mechanism never fired: {name} == {getattr(faults, name)}"
            for name in ("chip_deaths", "requeued", "brownout_sheds", "restart_compile_seconds")
            if not getattr(faults, name) > 0
        ]
        return failures + super().check()


# ---------------------------------------------------------------------- #
# continuous
# ---------------------------------------------------------------------- #
class ContinuousWorkload(Workload):
    name = "continuous"
    SIZES = {
        False: Size(requests=50_000, num_layers=2),
        True: Size(requests=3_000, num_layers=1, kv_len=256, max_batch=(4,)),
    }
    #: Offered load relative to the fleet's full-batch capacity: tuned so
    #: 1-5% of requests are shed, with preemptions and scale-ups.
    LOAD = 1.4

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.size = size = self.SIZES[quick]
        default_cost_model(IPU_MK2)
        self.model = DecodeModel(
            name="opt-125m",
            decode_builder=opt_decode_session(
                "125m", num_layers=size.num_layers, kv_len=size.kv_len
            ),
            max_batch_size=size.max_batch[0],
        )
        self.cache = PlanCache(jobs=1)
        self.engine = ContinuousEngine(
            self.model,
            chip=IPU_MK2,
            num_chips=NUM_CHIPS,
            constraints=FAST_CONSTRAINTS,
            plan_cache=self.cache,
            min_replicas=1,
        )

    def compile_units(self) -> list[Callable[[], object]]:
        return [self.engine.warm]

    def generate(self) -> None:
        model = self.model
        batch_unit = self.engine.iteration_latency(model.max_batch_size)
        unit = self.engine.iteration_latency(1)
        capacity = NUM_CHIPS * model.max_batch_size / (model.ideal_iterations(40, 26) * batch_unit)
        self.trace = decode_workload(
            model.name,
            num_requests=self.size.requests,
            rate=self.LOAD * capacity,
            seed=self.seed,
            prompt_tokens=(16, 64),
            output_tokens=(4, 48),
            interactive_fraction=0.75,
            slo_seconds=lambda p, o: 1.5 * model.ideal_iterations(p, o) * unit,
        )

    def replay(self) -> ContinuousReport:
        return self.engine.run(self.trace)

    def check(self) -> list[str]:
        # ContinuousEngine leaves provisioned_chip_seconds at 0 (only the
        # fleet reports it), so only busy <= active is checkable here.
        return check_serving(self.report, self.trace, provisioned=False)

    def facts(self) -> dict[str, Any]:
        programs = [
            (f"b{bucket}", self.model.decode_builder(bucket), IPU_MK2)
            for bucket in batch_buckets(self.model.max_batch_size)
        ]
        latencies = _program_latencies(self.cache, programs, FAST_CONSTRAINTS)
        return {**super().facts(), "program_latency_ms": latencies}


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload
    for workload in (CompileWorkload, FleetWorkload, ChaosWorkload, ContinuousWorkload)
}
