"""Unified tracing over the repo's two clocks: virtual time and wall clock.

Everything the simulator schedules — batches, decode iterations, request
lifecycles — happens in deterministic **virtual time**, and that is the
primary timeline of every trace: virtual-domain events are a pure function
of the workload and must be bit-identical at any compilation parallelism.
Compilation, cache lookups and other host work happen in **wall clock**
time; those events live on their own timeline, are annotation-only, and are
explicitly excluded from the determinism guarantee (their durations vary
run to run, their ordering varies with thread scheduling).

The :class:`Tracer` is thread-safe (compilation traces from worker threads)
and designed so a *disabled* tracer is near-zero-cost: every emit method
checks ``enabled`` first and returns without allocating, so the hot paths —
the decode-engine event loop and plan-cache lookups — can stay
instrumented unconditionally.  ``python -m repro.obs overhead``
measures and bounds that cost.

A module-level *ambient* tracer (disabled by default) lets instrumentation
deep inside the stack — the intra-op plan search, the plan cache — pick up
tracing without threading a tracer argument through every layer::

    from repro.obs import Tracer, use_tracer

    tracer = Tracer()
    with use_tracer(tracer):
        report = engine.run(workload)         # events land in ``tracer``
    write_chrome_trace(tracer, "trace.json")  # open in https://ui.perfetto.dev

Track names are ``"group/name"`` pairs: the exporter renders each group as
one Perfetto process and each name as a track (thread) inside it, so one
trace can hold several engine runs (e.g. the four fig27 engine × fleet
combinations) side by side.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from repro.obs.registry import MetricsRegistry

#: Clock domains an event can live on.
DOMAIN_VIRTUAL = "virtual"
"""Deterministic simulator time — the primary timeline.  Bit-identical for a
fixed workload at any compilation parallelism."""
DOMAIN_WALL = "wall"
"""Host wall clock (seconds since the tracer was created) — annotation only,
excluded from determinism comparisons."""
DOMAIN_SIM = "sim"
"""Nested simulations with their own virtual clock (e.g. one pipelined
execution, whose micro-batch times start at 0 regardless of when the serving
layer asked for it).  Deterministic but not on the serving timeline."""

#: Event kinds (the JSONL/export vocabulary).
KIND_SPAN = "span"
KIND_ASYNC = "aspan"
KIND_INSTANT = "instant"
KIND_COUNTER = "counter"
KIND_FLOW_START = "flow-start"
KIND_FLOW_STEP = "flow-step"
KIND_FLOW_END = "flow-end"


def _freeze_args(args: Mapping[str, Any] | None) -> tuple[tuple[str, Any], ...]:
    """Sorted, hashable argument tuple — one canonical form per payload."""
    if not args:
        return ()
    return tuple(sorted(args.items()))


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One recorded event: a span, instant, counter sample or flow point.

    ``ts``/``dur`` are seconds on the event's ``domain`` clock.  ``args`` is
    a sorted item tuple (hashable, order-independent) so whole event streams
    can be compared with ``==`` in determinism tests.
    """

    kind: str
    name: str
    track: str
    domain: str
    ts: float
    dur: float = 0.0
    cat: str = ""
    flow_id: str = ""
    args: tuple[tuple[str, Any], ...] = ()

    @property
    def group(self) -> str:
        """The process-level grouping (the part of ``track`` before ``/``)."""
        group, sep, _ = self.track.partition("/")
        return group if sep else "main"

    @property
    def track_name(self) -> str:
        """The within-group track (thread) name."""
        _, sep, name = self.track.partition("/")
        return name if sep else self.track

    def args_dict(self) -> dict[str, Any]:
        """The argument payload as a plain dict."""
        return dict(self.args)


class _NullSpan:
    """Context manager returned by a disabled tracer's ``wall_span``."""

    __slots__ = ()

    def set(self, **_args: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _WallSpan:
    """Context manager measuring one wall-clock span; emitted on exit.

    ``set(**args)`` attaches outcome arguments discovered mid-span (e.g. the
    cache outcome of a lookup) before the exit emits the event.
    """

    __slots__ = ("_tracer", "_name", "_track", "_cat", "_args", "_start")

    def __init__(
        self, tracer: "Tracer", name: str, track: str, cat: str, args: dict[str, Any]
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._track = track
        self._cat = cat
        self._args = args
        self._start = 0.0

    def set(self, **args: Any) -> None:
        self._args.update(args)

    def __enter__(self) -> "_WallSpan":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = time.perf_counter()
        tracer = self._tracer
        tracer._emit(
            TraceEvent(
                kind=KIND_SPAN,
                name=self._name,
                track=self._track,
                domain=DOMAIN_WALL,
                ts=self._start - tracer.wall_origin,
                dur=end - self._start,
                cat=self._cat,
                args=_freeze_args(self._args),
            )
        )


class Tracer:
    """Thread-safe collector of :class:`TraceEvent` records.

    Virtual-domain emitters (:meth:`span`, :meth:`instant`, :meth:`counter`,
    the flow methods) take explicit timestamps because virtual time is owned
    by the caller's simulation; :meth:`wall_span`/:meth:`wall_instant`
    measure the host clock themselves.  All emitters are no-ops while
    ``enabled`` is false.
    """

    __slots__ = ("_enabled", "_events", "_lock", "metrics", "wall_origin")

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = enabled
        self._events: list[TraceEvent] = []
        self._lock = threading.Lock()
        #: Metrics registry carried alongside the event stream: engines and
        #: caches publish their run counters here when tracing is enabled.
        self.metrics = MetricsRegistry()
        #: Wall-domain timestamps are seconds since this origin.
        self.wall_origin = time.perf_counter()

    # ------------------------------------------------------------------ #
    @property
    def enabled(self) -> bool:
        """Whether emitters record anything.  Hot loops may guard on this."""
        return self._enabled

    def _emit(self, event: TraceEvent) -> None:
        with self._lock:
            self._events.append(event)

    def record(self, event: TraceEvent) -> None:
        """Append a prebuilt event — for filtering or replaying traces."""
        if self._enabled:
            self._emit(event)

    # ------------------------------------------------------------------ #
    # Virtual-time emitters (explicit timestamps)
    # ------------------------------------------------------------------ #
    def span(
        self,
        name: str,
        *,
        ts: float,
        dur: float,
        track: str,
        domain: str = DOMAIN_VIRTUAL,
        cat: str = "",
        flow_id: str = "",
        args: Mapping[str, Any] | None = None,
    ) -> None:
        """A completed duration event (begin and end already known)."""
        if not self._enabled:
            return
        self._emit(
            TraceEvent(
                kind=KIND_SPAN,
                name=name,
                track=track,
                domain=domain,
                ts=ts,
                dur=dur,
                cat=cat,
                flow_id=flow_id,
                args=_freeze_args(args),
            )
        )

    def async_span(
        self,
        name: str,
        *,
        ts: float,
        dur: float,
        track: str,
        flow_id: str,
        domain: str = DOMAIN_VIRTUAL,
        cat: str = "",
        args: Mapping[str, Any] | None = None,
    ) -> None:
        """An async (overlappable) span — request lifecycles overlap freely.

        Exported as a Chrome ``b``/``e`` pair keyed by ``flow_id`` so
        Perfetto renders concurrent lifetimes on one logical track.
        """
        if not self._enabled:
            return
        self._emit(
            TraceEvent(
                kind=KIND_ASYNC,
                name=name,
                track=track,
                domain=domain,
                ts=ts,
                dur=dur,
                cat=cat or "async",
                flow_id=flow_id,
                args=_freeze_args(args),
            )
        )

    def instant(
        self,
        name: str,
        *,
        ts: float,
        track: str,
        domain: str = DOMAIN_VIRTUAL,
        cat: str = "",
        args: Mapping[str, Any] | None = None,
    ) -> None:
        """A point event on one track."""
        if not self._enabled:
            return
        self._emit(
            TraceEvent(
                kind=KIND_INSTANT,
                name=name,
                track=track,
                domain=domain,
                ts=ts,
                cat=cat,
                args=_freeze_args(args),
            )
        )

    def counter(
        self,
        name: str,
        *,
        ts: float,
        track: str,
        values: Mapping[str, float],
        domain: str = DOMAIN_VIRTUAL,
    ) -> None:
        """A sampled counter series (rendered as stacked area in Perfetto)."""
        if not self._enabled:
            return
        self._emit(
            TraceEvent(
                kind=KIND_COUNTER,
                name=name,
                track=track,
                domain=domain,
                ts=ts,
                cat="counter",
                args=_freeze_args(values),
            )
        )

    def flow(
        self,
        kind: str,
        flow_id: str,
        *,
        ts: float,
        track: str,
        name: str = "flow",
        domain: str = DOMAIN_VIRTUAL,
        args: Mapping[str, Any] | None = None,
    ) -> None:
        """One point of a flow arrow (``kind`` is a ``KIND_FLOW_*`` constant).

        Flows stitch one logical entity — a request — across tracks: start
        at enqueue, step at admission on the serving chip, end at
        retirement.  ``flow_id`` must be unique per entity per trace (the
        engines namespace it by run group).
        """
        if not self._enabled:
            return
        if kind not in (KIND_FLOW_START, KIND_FLOW_STEP, KIND_FLOW_END):
            raise ValueError(f"not a flow kind: {kind!r}")
        self._emit(
            TraceEvent(
                kind=kind,
                name=name,
                track=track,
                domain=domain,
                ts=ts,
                cat="flow",
                flow_id=flow_id,
                args=_freeze_args(args),
            )
        )

    # ------------------------------------------------------------------ #
    # Wall-clock emitters (self-timed)
    # ------------------------------------------------------------------ #
    def wall_span(
        self, name: str, *, track: str, cat: str = "", **args: Any
    ) -> _WallSpan | _NullSpan:
        """Context manager timing a wall-clock span (emitted on exit)."""
        if not self._enabled:
            return _NULL_SPAN
        return _WallSpan(self, name, track, cat, dict(args))

    def wall_instant(self, name: str, *, track: str, cat: str = "", **args: Any) -> None:
        """A point event stamped with the current wall clock."""
        if not self._enabled:
            return
        self._emit(
            TraceEvent(
                kind=KIND_INSTANT,
                name=name,
                track=track,
                domain=DOMAIN_WALL,
                ts=time.perf_counter() - self.wall_origin,
                cat=cat,
                args=_freeze_args(args),
            )
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def events(self) -> list[TraceEvent]:
        """Snapshot of every recorded event, in emission order."""
        with self._lock:
            return list(self._events)

    def virtual_events(self) -> list[TraceEvent]:
        """The deterministic stream: virtual-domain events in emission order.

        This is the sequence the determinism guarantee covers — for a fixed
        workload it is bit-identical serial vs any ``jobs`` width, because
        every virtual-domain emitter runs inside a single-threaded simulation
        loop and wall-clock quantities never enter virtual time.
        """
        return [event for event in self.events() if event.domain == DOMAIN_VIRTUAL]

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def clear(self) -> None:
        """Drop all recorded events (the metrics registry is kept)."""
        with self._lock:
            self._events.clear()


#: The disabled tracer handed out when no ambient tracer is installed.  A
#: singleton so identity checks and the enabled fast path stay trivial.
NULL_TRACER = Tracer(enabled=False)

_ambient_lock = threading.Lock()
_ambient: Tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The ambient tracer (the disabled :data:`NULL_TRACER` by default)."""
    return _ambient


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` as ambient (``None`` resets); returns the previous one.

    The ambient tracer is process-global, not thread-local, so compilation
    worker *threads* inherit it; separate worker *processes* never see it
    (their events would be lost anyway), which keeps the process-pool
    compile path silently un-traced rather than broken.
    """
    global _ambient
    with _ambient_lock:
        previous = _ambient
        _ambient = tracer if tracer is not None else NULL_TRACER
    return previous


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` as ambient for the duration of the block."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def disabled_overhead_ns(iterations: int = 100_000) -> dict[str, float]:
    """Measure the per-call cost of a *disabled* tracer's hot emitters.

    Returns nanoseconds per call for ``instant`` and ``span`` next to an
    empty-function baseline, so the overhead of leaving instrumentation in
    hot paths can be asserted (see ``python -m repro.obs overhead``).
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    tracer = Tracer(enabled=False)

    def baseline(**_kwargs: Any) -> None:
        return None

    def time_ns(fn, *args: Any, **kwargs: Any) -> float:
        start = time.perf_counter()
        for _ in range(iterations):
            fn(*args, **kwargs)
        return (time.perf_counter() - start) / iterations * 1e9

    return {
        "baseline_ns": time_ns(baseline, ts=0.0, track="t"),
        "instant_ns": time_ns(tracer.instant, "x", ts=0.0, track="t"),
        "span_ns": time_ns(tracer.span, "x", ts=0.0, dur=1.0, track="t"),
        "iterations": float(iterations),
    }
