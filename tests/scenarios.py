"""One scenario generator for the serving property tests.

A :class:`Scenario` is a whole serving run with its times in units of one
batch-1 decode iteration: the engine (static with a batch window, continuous,
or fleet), chips and chip classes, pipeline stages, models, tenants, traffic,
faults, watchdog and scaler.  :func:`scenarios` draws one; its keyword
arguments narrow what it may draw.  :func:`composes` is the one place that
lists the combinations the engines reject (:data:`EXCLUSIONS`), and the
generator offers each feature only where the scenario with it still composes.

:class:`Replay` makes a scenario concrete on a :class:`Testbed`: it prices the
unit, builds the workload, and replays it on a fresh engine per run.
:func:`check_scenario` runs the three checks every serving feature owes:
balanced books (``check_report``), a serial run equal to a ``jobs=2`` one, and
a replay with the same virtual trace.

A new serving feature joins with one draw in :func:`scenarios` and, when an
engine rejects it somewhere, one entry in :data:`EXCLUSIONS`.

The module also holds the small builders the serving tests share: the tiny
decode graph and model, requests, the two-model fleet, a scripted scaler and
the chaos workload and watchdog.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

from hypothesis import strategies as st

from repro.core.constraints import SearchConstraints
from repro.hw.spec import ChipSpec, KiB
from repro.ir import OperatorGraph, elementwise, matmul
from repro.obs import Tracer, use_tracer
from repro.serving import (
    SLO_BEST_EFFORT,
    SLO_INTERACTIVE,
    BlueprintPlanner,
    ContinuousEngine,
    ContinuousReport,
    CostAwareRouter,
    DecodeModel,
    DecodeRequest,
    FaultEvent,
    FaultSchedule,
    FleetEngine,
    FleetScaler,
    ForecastScaler,
    PlanCache,
    ReactiveScaler,
    StaticEngine,
    TenantSpec,
    TrafficShape,
    Watchdog,
    bursty_workload,
    check_report,
    chip_death,
    decode_workload,
    diurnal_workload,
    flash_crowd_workload,
    group_link_degradation,
    link_degradation,
    merge_decode_workloads,
    restart,
)


# --------------------------------------------------------------------------- #
# Shared builders
# --------------------------------------------------------------------------- #
def tiny_builder(name: str, width: int = 64):
    """A decode-step-shaped graph scaled by batch size (fast to compile)."""

    def build(batch_size: int) -> OperatorGraph:
        graph = OperatorGraph(name=f"{name}-b{batch_size}")
        fc1 = graph.add(matmul("fc1", m=batch_size * 8, k=width, n=width))
        act = graph.add(
            elementwise("act", {"m": batch_size * 8, "n": width}, kind="relu"),
            inputs=[fc1],
        )
        graph.add(matmul("fc2", m=batch_size * 8, k=width, n=32), inputs=[act])
        return graph

    return build


def make_model(
    name: str = "tiny",
    *,
    width: int = 64,
    max_batch_size: int = 4,
    prefill_chunk: int = 64,
    num_stages: int = 1,
) -> DecodeModel:
    return DecodeModel(
        name=name,
        decode_builder=tiny_builder(name, width),
        max_batch_size=max_batch_size,
        prefill_chunk=prefill_chunk,
        num_stages=num_stages,
    )


def make_engine(cache, chip, constraints, **kwargs) -> ContinuousEngine:
    """A ContinuousEngine serving ``model`` (default :func:`make_model`)."""
    model = kwargs.pop("model", None) or make_model(
        max_batch_size=kwargs.pop("max_batch_size", 4)
    )
    return ContinuousEngine(
        model, chip=chip, constraints=constraints, plan_cache=cache, **kwargs
    )


def fleet_engine(cache, chip, constraints, **kwargs) -> FleetEngine:
    """A FleetEngine serving alpha and beta (batch 2) to acme and globex."""
    deployments = kwargs.pop("deployments", None) or [
        make_model("alpha", max_batch_size=2),
        make_model("beta", width=96, max_batch_size=2),
    ]
    return FleetEngine(
        deployments,
        chip=chip,
        constraints=constraints,
        plan_cache=cache,
        tenants=kwargs.pop("tenants", [TenantSpec("acme"), TenantSpec("globex")]),
        **kwargs,
    )


def request(
    request_id: int,
    arrival: float,
    *,
    model: str = "tiny",
    tokens: int = 4,
    prompt: int = 16,
    slo_class: str = SLO_INTERACTIVE,
    deadline: float | None = None,
    tenant: str = "",
) -> DecodeRequest:
    return DecodeRequest(
        request_id=request_id,
        model=model,
        arrival_time=arrival,
        prompt_tokens=prompt,
        max_new_tokens=tokens,
        slo_class=slo_class,
        deadline=deadline,
        tenant=tenant,
    )


class ScriptedScaler(FleetScaler):
    """A scaler that always asks for ``target`` replicas and records what
    it observed at each tick."""

    name = "scripted"

    def __init__(self, target: int, **kwargs) -> None:
        super().__init__(**kwargs)
        self.target = target
        self.seen = []

    def plan(self, obs):
        self.seen.append(obs)
        return self.target


def mixed_workload(model: DecodeModel, unit: float, *, num_requests, load, seed, interactive):
    """A preemption-heavy interactive/best-effort stream whose prompts span
    several ``prefill_chunk`` iterations."""
    return decode_workload(
        model.name,
        num_requests=num_requests,
        rate=load * model.max_batch_size / (12 * unit),
        seed=seed,
        prompt_tokens=(4, 48),
        output_tokens=(1, 16),
        interactive_fraction=interactive,
        slo_seconds=lambda prompt, output: 4 * model.ideal_iterations(prompt, output) * unit,
    )


#: The chaos workload's span: its last arrival, in units.
CHAOS_SPAN = 7 * 0.75


def chaos_workload(unit: float, models: tuple[str, ...]) -> list[DecodeRequest]:
    """Twelve requests over ``models`` and two tenants, in bursts of ties,
    a quarter of them best-effort and the rest due 30 units after arrival."""
    return [
        request(
            i,
            (i % 8) * 0.75 * unit,
            model=models[0] if i % 3 else models[-1],
            tokens=3 + (i % 4) * 4,
            slo_class=SLO_BEST_EFFORT if i % 4 == 3 else SLO_INTERACTIVE,
            deadline=None if i % 4 == 3 else (i % 8) * 0.75 * unit + 30 * unit,
            tenant=TENANTS[i % 2],
        )
        for i in range(12)
    ]


def chaos_watchdog(unit: float, budget: int | None) -> Watchdog:
    return Watchdog(
        detection_delay=0.5 * unit,
        degraded_shed_queue=2,
        retry_budget=budget,
        brownout_watermark=0.75,
    )


# --------------------------------------------------------------------------- #
# What a scenario is made of
# --------------------------------------------------------------------------- #
STATIC, CONTINUOUS, FLEET = "static", "continuous", "fleet"
ENGINES = (STATIC, CONTINUOUS, FLEET)

#: Served models by name: the width of each one's decode graph.
MODELS = {"alpha": 64, "beta": 96}
TENANTS = ("acme", "globex")


def fresh_graph(name: str, batch_size: int) -> OperatorGraph:
    return tiny_builder(name, MODELS[name])(batch_size)


#: The second hardware class: fewer, beefier cores than the test chip.
FAT_CHIP = ChipSpec(
    name="fat-chip",
    num_cores=32,
    sram_per_core=512 * KiB,
    core_flops=400e9,
    link_bandwidth=8e9,
    link_latency=0.2e-6,
    offchip_bandwidth=16e9,
)

POISSON, DIURNAL, BURSTY, FLASH_CROWD = "poisson", "diurnal", "bursty", "flash-crowd"
#: ``chaos_workload``, and one-shot requests at drawn arrival times.
CHAOS, ARRIVALS = "chaos", "arrivals"
TRAFFIC = (POISSON, DIURNAL, BURSTY, FLASH_CROWD, CHAOS, ARRIVALS)

#: Prompt and output token ranges of the drawn streams.
TOKENS = {
    "one-shot": ((1, 1), (1, 1)),
    "mixed": ((4, 48), (1, 16)),
    "long": ((16, 160), (1, 16)),
}

REACTIVE, FORECAST = "reactive", "forecast"


@dataclass(frozen=True)
class Traffic:
    """A workload's recipe.  The drawn streams (Poisson or a
    :mod:`repro.serving.traffic` shape) carry ``num_requests`` requests per
    model at ``load`` times one replica's full-batch capacity, with
    deadlines ``slo_factor`` times the ideal service time."""

    kind: str = POISSON
    tokens: str = "mixed"
    num_requests: int = 8
    load: float = 1.0
    seed: int = 0
    interactive: float = 0.5
    slo_factor: float | None = 4.0
    #: ARRIVALS only: arrival times in units.
    arrivals: tuple[float, ...] = ()

    def means(self) -> tuple[int, int]:
        """Mean prompt and output tokens of a request."""
        if self.kind == CHAOS:
            return 16, 9
        if self.kind == ARRIVALS:
            return 1, 1
        (p_low, p_high), (o_low, o_high) = TOKENS[self.tokens]
        return (p_low + p_high) // 2, (o_low + o_high) // 2

    def rate(self, model: DecodeModel) -> float:
        """One stream's arrival rate, per unit."""
        return self.load * model.max_batch_size / model.ideal_iterations(*self.means())

    def span(self, model: DecodeModel) -> float:
        """The workload's expected last arrival, in units."""
        if self.kind == CHAOS:
            return CHAOS_SPAN
        if self.kind == ARRIVALS:
            return max(self.arrivals, default=0.0)
        return self.num_requests / self.rate(model)

    def requests(self, models: list[DecodeModel], unit: float) -> list[DecodeRequest]:
        names = [model.name for model in models]
        if self.kind == CHAOS:
            return chaos_workload(unit, tuple(names))
        if self.kind == ARRIVALS:
            return [
                DecodeRequest(i, names[i % len(names)], at * unit, 1, 1)
                for i, at in enumerate(sorted(self.arrivals))
            ]
        streams = [self.stream(model, index, unit) for index, model in enumerate(models)]
        return streams[0] if len(streams) == 1 else merge_decode_workloads(*streams)

    def stream(self, model: DecodeModel, index: int, unit: float) -> list[DecodeRequest]:
        prompt, output = TOKENS[self.tokens]
        factor = self.slo_factor
        attributes = dict(
            seed=self.seed + index,
            prompt_tokens=prompt,
            output_tokens=output,
            interactive_fraction=self.interactive,
            slo_seconds=None
            if factor is None
            else lambda p, o: factor * model.ideal_iterations(p, o) * unit,
            tenant=TENANTS[index % len(TENANTS)],
        )
        rate = self.rate(model) / unit
        if self.kind == POISSON:
            return decode_workload(
                model.name, num_requests=self.num_requests, rate=rate, **attributes
            )
        span = self.num_requests / rate
        attributes.update(duration=span, max_requests=self.num_requests)
        if self.kind == DIURNAL:
            return diurnal_workload(model.name, base_rate=rate, period=span / 2, **attributes)
        if self.kind == BURSTY:
            return bursty_workload(
                model.name,
                quiet_rate=rate / 2,
                burst_rate=3 * rate,
                mean_quiet=span / 4,
                mean_burst=span / 8,
                **attributes,
            )
        return flash_crowd_workload(
            model.name,
            base_rate=rate / 2,
            start=span / 4,
            ramp=span / 8,
            hold=span / 8,
            decay=span / 8,
            **attributes,
        )


@dataclass(frozen=True)
class Scaling:
    """A provisioning scaler, its times in units."""

    kind: str = REACTIVE
    interval: float = 1.0
    delay: float = 0.0
    min_replicas: int = 1

    def build(self, engine, models: list[DecodeModel], traffic: Traffic, unit: float):
        timing = dict(
            interval=self.interval * unit,
            provision_delay=self.delay * unit,
            min_replicas=self.min_replicas,
        )
        if self.kind == REACTIVE:
            return ReactiveScaler(scale_up_queue=2, **timing)
        prompt, output = traffic.means()
        shape = TrafficShape(mean_prompt=prompt, mean_output=output)
        return ForecastScaler(
            BlueprintPlanner.for_engine(engine),
            {model.name: shape for model in models},
            hold_ticks=1,
            **timing,
        )


@dataclass(frozen=True)
class Scenario:
    """One serving run, its times in units of the first model's batch-1
    iteration on the default chip.  Every optional feature is off by
    default; a feature that is on is passed to the engine, which rejects
    it where :data:`EXCLUSIONS` says."""

    engine: str
    traffic: Traffic = Traffic()
    num_chips: int = 1
    num_stages: int = 1
    #: Serves the first ``models`` of :data:`MODELS`.
    models: int = 1
    max_batch: int = 2
    prefill_chunk: int = 64
    #: Chips of :data:`FAT_CHIP`'s class.
    chip_classes: tuple[int, ...] = ()
    #: Fairness floors of the declared :data:`TENANTS`.
    tenants: tuple[float, ...] = ()
    health_aware: bool = True
    batch_window: float = 0.0
    faults: tuple[FaultEvent, ...] = ()
    watchdog: Watchdog | None = None
    scaler: Scaling | None = None

    def deployments(
        self, graph: Callable[[str, int], OperatorGraph] = fresh_graph
    ) -> list[DecodeModel]:
        """The served models; ``graph(name, batch_size)`` builds their
        decode graphs."""
        return [
            DecodeModel(
                name=name,
                decode_builder=partial(graph, name),
                max_batch_size=self.max_batch,
                prefill_chunk=self.prefill_chunk,
                num_stages=self.num_stages,
            )
            for name in list(MODELS)[: self.models]
        ]


#: Every combination an engine rejects: a name, the test for it, and what
#: the engine's error says.  A quoted keyword means the engine's constructor
#: or ``run`` lacks that option.
EXCLUSIONS = {
    "static runs take no faults": (lambda s: s.engine == STATIC and bool(s.faults), "'faults'"),
    "static runs take no watchdog": (
        lambda s: s.engine == STATIC and s.watchdog is not None,
        "'watchdog'",
    ),
    "only fleet runs take a scaler": (
        lambda s: s.engine != FLEET and s.scaler is not None,
        "'scaler'",
    ),
    "a scaler needs a health-aware router": (
        lambda s: s.engine == FLEET and s.scaler is not None and not s.health_aware,
        "a scaler needs a health-aware router",
    ),
    "only the fleet takes a router": (
        lambda s: s.engine != FLEET and not s.health_aware,
        "'router'",
    ),
    "only the fleet declares tenants": (
        lambda s: s.engine != FLEET and bool(s.tenants),
        "'tenants'",
    ),
    "only the fleet takes chip classes": (
        lambda s: s.engine != FLEET and bool(s.chip_classes),
        "'chip_classes'",
    ),
    "chip classes need num_stages == 1": (
        lambda s: s.engine == FLEET and bool(s.chip_classes) and s.num_stages > 1,
        "chip_classes require num_stages == 1",
    ),
    "a single-model engine serves one model": (
        lambda s: s.engine != FLEET and s.models > 1,
        "unserved models",
    ),
    "only the static engine takes a batch window": (
        lambda s: s.engine != STATIC and s.batch_window > 0,
        "'batch_window'",
    ),
    "a chip group fits in the fleet": (lambda s: s.num_stages > s.num_chips, "needs a group of"),
}


def composes(scenario: Scenario) -> bool:
    """Whether every engine option of ``scenario`` is one its engine takes."""
    return not any(rule(scenario) for rule, _ in EXCLUSIONS.values())


# --------------------------------------------------------------------------- #
# The generator
# --------------------------------------------------------------------------- #
@st.composite
def traffics(draw, kinds=TRAFFIC) -> Traffic:
    kind = draw(st.sampled_from(kinds))
    if kind == CHAOS:
        return Traffic(kind)
    if kind == ARRIVALS:
        times = draw(st.lists(st.floats(0.0, 10.0), max_size=50))
        return Traffic(kind, arrivals=tuple(times))
    return Traffic(
        kind,
        tokens=draw(st.sampled_from(sorted(TOKENS))),
        num_requests=draw(st.integers(1, 30)),
        load=draw(st.floats(0.2, 4.0)),
        seed=draw(st.integers(0, 10_000)),
        interactive=draw(st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0])),
        slo_factor=draw(st.one_of(st.none(), st.floats(1.0, 6.0))),
    )


@st.composite
def fault_plans(draw, scenario: Scenario) -> tuple[FaultEvent, ...]:
    """Chip deaths (each with an optional warm or cold restart), fleet-wide
    or chip-scoped link windows, and an outage of one chip class, in units
    and spread over the scenario's arrivals."""
    chips = st.integers(0, scenario.num_chips - 1)
    horizon = scenario.traffic.span(scenario.deployments()[0]) + 10.0
    at = st.floats(0.0, 1.0).map(lambda fraction: fraction * horizon)
    downtime = st.one_of(st.none(), st.floats(1.0, 6.0))
    revival = st.tuples(downtime, st.floats(0.0, 2.0), st.booleans())
    events = []
    for when, chip, (down, warmup, cold) in draw(
        st.lists(st.tuples(at, chips, revival), max_size=3)
    ):
        events.append(chip_death(when, chip))
        if down is not None:
            events.append(restart(when + down, chip, cold_cache=cold, warmup_delay=warmup))
    for start, length, factor, scope in draw(
        st.lists(
            st.tuples(at, st.floats(0.5, 5.0), st.floats(1.0, 8.0), st.sets(chips)),
            max_size=2,
        )
    ):
        if scope:
            events.append(group_link_degradation(start, start + length, factor, sorted(scope)))
        else:
            events.append(link_degradation(start, start + length, factor))
    fat = set(scenario.chip_classes)
    classes = [
        members
        for members in (
            [chip for chip in range(scenario.num_chips) if chip not in fat],
            sorted(fat),
        )
        if members
    ]
    outage = draw(st.one_of(st.none(), st.tuples(st.sampled_from(classes), at, revival)))
    if outage is not None:
        members, when, (down, warmup, cold) = outage
        events.extend(
            FaultSchedule.class_outage(
                members, at=when, downtime=down, cold_cache=cold, warmup_delay=warmup
            )
        )
    return tuple(events)


watchdogs = st.builds(
    Watchdog,
    detection_delay=st.sampled_from([0.0, 0.5, 1.0]),
    degraded_shed_queue=st.one_of(st.none(), st.integers(1, 3)),
    retry_budget=st.one_of(st.none(), st.integers(0, 3)),
    brownout_watermark=st.one_of(st.none(), st.sampled_from([0.5, 0.75, 1.0])),
)


@st.composite
def scenarios(
    draw,
    *,
    engines=ENGINES,
    chips=(1, 3),
    stages=(1, 2),
    models=(1, 2),
    batches=(1, 2, 4),
    chunks=(4, 8, 16, 64),
    traffic=TRAFFIC,
    classes=(False, True),
    tenants=(False, True),
    faults=(False, True),
    watchdog=(False, True),
    scalers=(None, REACTIVE, FORECAST),
) -> Scenario:
    """A whole serving scenario.  ``engines``, ``stages``, ``models``,
    ``batches``, ``chunks``, ``traffic`` and ``scalers`` are the choices
    drawn from, ``chips`` bounds the chip count, and the flags say whether
    a feature may be off and may be on.  Each drawn value is offered in turn
    and kept only when the scenario with it still composes."""
    scenario = Scenario(draw(st.sampled_from(engines)), traffic=draw(traffics(traffic)))

    def offer(**change) -> None:
        nonlocal scenario
        candidate = replace(scenario, **change)
        if composes(candidate):
            scenario = candidate

    def may(flags, **probe) -> bool:
        """Whether to draw a feature: ``flags`` allows it and the scenario
        with the representative ``probe`` value composes."""
        return draw(st.sampled_from(flags)) and composes(replace(scenario, **probe))

    offer(num_chips=draw(st.integers(*chips)))
    offer(num_stages=draw(st.sampled_from(stages)))
    offer(models=draw(st.sampled_from(models)))
    offer(max_batch=draw(st.sampled_from(batches)), prefill_chunk=draw(st.sampled_from(chunks)))
    if may(classes, chip_classes=(0,)):
        chip_set = st.sets(st.integers(0, scenario.num_chips - 1), min_size=1)
        offer(chip_classes=tuple(sorted(draw(chip_set))))
    if may(tenants, tenants=(0.0,)):
        floors = st.lists(st.sampled_from([0.0, 0.5, 0.9]), min_size=1, max_size=2)
        offer(tenants=tuple(draw(floors)))
    offer(batch_window=draw(st.one_of(st.just(0.0), st.floats(0.1, 8.0))))
    if may(faults, faults=(chip_death(0.0, 0),)):
        offer(faults=draw(fault_plans(scenario)))
    if may(watchdog, watchdog=Watchdog()):
        offer(watchdog=draw(watchdogs))
    kind = draw(st.sampled_from(scalers))
    if kind is not None and composes(replace(scenario, scaler=Scaling(kind))):
        offer(
            scaler=Scaling(
                kind,
                interval=draw(st.sampled_from([1.0, 3.0])),
                delay=draw(st.sampled_from([0.0, 1.0, 3.0])),
                min_replicas=draw(st.integers(1, 2)),
            )
        )
    offer(health_aware=draw(st.booleans()))
    return scenario


# --------------------------------------------------------------------------- #
# Replaying a scenario, and the three checks
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Testbed:
    """The chip and search constraints every replay runs on, and its plan
    caches: ``cache`` compiles serially, ``cache_jobs2`` at ``jobs=2``."""

    chip: ChipSpec
    constraints: SearchConstraints
    cache: PlanCache
    cache_jobs2: PlanCache
    units: dict[tuple[str, int], float] = field(default_factory=dict)
    graphs: dict[tuple[str, int], OperatorGraph] = field(default_factory=dict)

    def graph(self, name: str, batch_size: int) -> OperatorGraph:
        """Model ``name``'s decode graph, built once per batch size: every
        replay's engines share it, and with it its memoised fingerprint."""
        key = (name, batch_size)
        if key not in self.graphs:
            self.graphs[key] = fresh_graph(name, batch_size)
        return self.graphs[key]

    def unit(self, model: DecodeModel) -> float:
        """``model``'s batch-1 iteration latency on the default chip,
        priced once per model and stage count."""
        key = (model.name, model.num_stages)
        if key not in self.units:
            self.units[key] = ContinuousEngine(
                model,
                chip=self.chip,
                constraints=self.constraints,
                plan_cache=self.cache,
                num_chips=model.num_stages,
            ).iteration_latency()
        return self.units[key]


def build_schedule(events: tuple[FaultEvent, ...], unit: float) -> FaultSchedule:
    """A fault plan in units, scaled to virtual seconds."""
    return FaultSchedule.of(
        replace(
            event,
            time=event.time * unit,
            until=event.until * unit,
            warmup_delay=event.warmup_delay * unit,
        )
        for event in events
    )


class Replay:
    """``scenario`` made concrete on ``bed``: ``unit`` is its first model's
    batch-1 iteration latency on the default chip, and ``workload`` and
    ``faults`` are in virtual seconds.  :meth:`run` replays it on a fresh
    engine (and scaler), on ``bed.cache`` unless told otherwise."""

    def __init__(self, scenario: Scenario, bed: Testbed) -> None:
        self.scenario = scenario
        self.bed = bed
        self.models = scenario.deployments(bed.graph)
        self.unit = bed.unit(self.models[0])
        self.workload = scenario.traffic.requests(self.models, self.unit)
        self.faults = build_schedule(scenario.faults, self.unit)

    def engine(self, cache: PlanCache | None = None):
        s = self.scenario
        options = dict(
            chip=self.bed.chip,
            constraints=self.bed.constraints,
            plan_cache=self.bed.cache if cache is None else cache,
            num_chips=s.num_chips,
        )
        if s.chip_classes:
            options["chip_classes"] = {chip: FAT_CHIP for chip in s.chip_classes}
        if s.tenants:
            options["tenants"] = [
                TenantSpec(name, fairness_floor=floor) for name, floor in zip(TENANTS, s.tenants)
            ]
        if not s.health_aware:
            options["router"] = CostAwareRouter(health_aware=False)
        if s.batch_window:
            options["batch_window"] = s.batch_window * self.unit
        if s.engine == FLEET:
            return FleetEngine(self.models, **options)
        single = StaticEngine if s.engine == STATIC else ContinuousEngine
        return single(self.models[0], **options)

    def run(self, cache: PlanCache | None = None) -> ContinuousReport:
        s = self.scenario
        engine = self.engine(cache)
        options = {}
        if s.faults:
            options["faults"] = self.faults
        if s.watchdog is not None:
            options["watchdog"] = replace(
                s.watchdog, detection_delay=s.watchdog.detection_delay * self.unit
            )
        if s.scaler is not None:
            options["scaler"] = s.scaler.build(engine, self.models, s.traffic, self.unit)
        return engine.run(self.workload, **options)


def traced(run):
    tracer = Tracer()
    with use_tracer(tracer):
        report = run()
    return report, tracer


def outcome(report) -> str:
    """Everything virtual a run reports (repr: shed records carry NaN)."""
    return repr(
        (
            report.completed,
            replace(report.faults, restart_compile_seconds=0.0),
            report.busy_chip_seconds,
            report.active_chip_seconds,
            report.provisioned_chip_seconds,
            report.peak_active_chips,
            report.peak_provisioned_chips,
            report.iterations,
            report.preemptions,
            report.shed,
            report.scale_ups,
            report.scale_downs,
            report.rebinds,
            report.migrations,
            report.provision_ups,
            report.provision_downs,
        )
    )


def digest(tracer: Tracer) -> str:
    whole = hashlib.sha256()
    for event in tracer.virtual_events():
        whole.update(repr(event).encode() + b"\n")
    return whole.hexdigest()


def check_scenario(scenario: Scenario, bed: Testbed) -> ContinuousReport:
    """The books balance, a replay gives the same outcome and virtual trace,
    and so does a run whose programs compile at ``jobs=2``."""
    replay = Replay(scenario, bed)
    report, tracer = traced(replay.run)
    assert check_report(report, replay.workload) == []
    expected = outcome(report), digest(tracer)
    again, retrace = traced(replay.run)
    assert (outcome(again), digest(retrace)) == expected
    wide, wide_tracer = traced(lambda: replay.run(bed.cache_jobs2))
    assert (outcome(wide), digest(wide_tracer)) == expected
    return report
