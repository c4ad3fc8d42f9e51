"""Fault injection and graceful degradation over virtual time.

Production fleets lose chips.  Because the serving engines schedule entirely
in virtual time, chaos testing is cheap *and deterministic*: a
:class:`FaultSchedule` injects chip deaths, replica restarts (with a cold
per-replica plan-cache namespace) and link degradation windows as
first-class events into the event loops of :meth:`ContinuousEngine.run
<repro.serving.continuous.ContinuousEngine.run>` and :meth:`FleetEngine.run
<repro.serving.fleet.FleetEngine.run>`, and the same workload plus the same
schedule replays to bit-identical reports at any compilation parallelism.

Correlated failures are first-class: :meth:`FaultSchedule.group_death`
kills a whole pipeline/replica chip group at once,
:meth:`FaultSchedule.class_outage` takes down every chip of one hardware
class (the fig31 kill-the-GPU-class scenario), and
:func:`group_link_degradation` scopes a degradation window to one chip
group's interconnect instead of slowing the whole fleet.

The :class:`Watchdog` is the *policy* half (the engine is the mechanism):
how long a dead replica goes undetected, and how aggressively traffic is
shed while the fleet runs degraded.  On detection the engine

1. **requeues** the dead replica's in-flight requests, charging full
   re-prefill — decode progress lived in the dead chip's memory and is lost;
2. **re-places** the replica's chip group onto surviving spare chips when
   enough are alive (pipeline-stage failover for sharded models); and
3. enters **degraded-mode admission**: best-effort backlog beyond
   ``degraded_shed_queue`` per surviving replica is shed (newest first),
   protecting interactive goodput until capacity returns.

The fleet engine adds three fleet-scale policies on top (all optional):
``retry_budget`` caps how many times any one tenant's requests may be
requeued off dead replicas before further retries are dropped honestly —
one tenant's retry storm after a correlated failure cannot starve the
others; requeued requests whose projected completion already misses their
deadline are dropped instead of retried; and ``brownout_watermark`` sheds
best-effort traffic *at arrival* while surviving capacity sits below the
watermark, with interactive admission re-ordered so tenants currently
below their fairness floor admit first.

A restart brings the chip back ``warmup_delay`` virtual seconds later; with
``cold_cache=True`` the revived replica re-fetches every bucket program
under a fresh plan-cache namespace (see
:meth:`~repro.serving.plan_cache.PlanCache.evict_scope`), so the wall-clock
cost of a cold restart shows up in the cache counters without ever touching
virtual time.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

#: Fault kinds injectable into the serving event loop.
FAULT_CHIP_DEATH = "chip-death"
FAULT_RESTART = "restart"
FAULT_LINK_DEGRADATION = "link-degradation"

_KINDS = (FAULT_CHIP_DEATH, FAULT_RESTART, FAULT_LINK_DEGRADATION)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault in virtual time.

    ``chip`` targets chip-death/restart events; link degradation carries
    ``factor`` (every stage-boundary transfer of pipeline-sharded models is
    slowed by it) over ``[time, until)``.  A degradation window with an
    empty ``chips`` set is fleet-wide (the original form); a non-empty
    ``chips`` set scopes the window to replicas backed by at least one of
    those chips, so one group's flapping interconnect no longer slows
    unrelated replicas.  Unsharded single-model replicas have no inter-chip
    links, so link degradation leaves them untouched; the fleet engine
    instead prices a degraded replica's iterations ``factor`` times slower
    (host/NIC-link degradation of the whole group).
    """

    time: float
    kind: str
    chip: int = -1
    factor: float = 1.0
    """Link slowdown multiplier (>= 1) for :data:`FAULT_LINK_DEGRADATION`."""
    until: float = math.inf
    """End of a link-degradation window (exclusive)."""
    cold_cache: bool = True
    """Restart only: revive with a cold per-replica plan-cache namespace."""
    warmup_delay: float = 0.0
    """Restart only: virtual seconds between the restart and the chip
    serving again (boot + program-load stall, deterministic by design)."""
    chips: tuple[int, ...] = ()
    """Link degradation only: the chip set the window applies to (empty =
    fleet-wide, the default and the pre-fleet behaviour)."""

    def __post_init__(self) -> None:
        # Comparisons are written so that NaN fails them: a NaN time would
        # sort unpredictably and a NaN factor would poison every max().
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if not self.time >= 0:
            raise ValueError(f"fault time must be >= 0, got {self.time}")
        if self.kind in (FAULT_CHIP_DEATH, FAULT_RESTART) and self.chip < 0:
            raise ValueError(f"{self.kind} needs a chip index >= 0, got {self.chip}")
        if not (math.isfinite(self.factor) and self.factor >= 1.0):
            raise ValueError(f"link factor must be finite and >= 1, got {self.factor}")
        if math.isnan(self.until):
            raise ValueError("a degradation window cannot end at NaN")
        if self.kind == FAULT_LINK_DEGRADATION:
            if not self.until > self.time:
                raise ValueError(
                    f"degradation window must end after it starts: "
                    f"[{self.time}, {self.until})"
                )
        if self.chips and self.kind != FAULT_LINK_DEGRADATION:
            raise ValueError(
                f"chips scopes link-degradation windows only, got {self.kind!r}"
            )
        if self.chips:
            object.__setattr__(self, "chips", tuple(sorted(set(self.chips))))
            if any(chip < 0 for chip in self.chips):
                raise ValueError(f"chip indices must be >= 0, got {self.chips}")
        if not self.warmup_delay >= 0:
            raise ValueError(f"warmup_delay must be >= 0, got {self.warmup_delay}")


def chip_death(time: float, chip: int) -> FaultEvent:
    """Chip ``chip`` dies at ``time``: in-flight work on it is lost."""
    return FaultEvent(time=time, kind=FAULT_CHIP_DEATH, chip=chip)


def restart(
    time: float, chip: int, *, cold_cache: bool = True, warmup_delay: float = 0.0
) -> FaultEvent:
    """Chip ``chip`` rejoins the fleet at ``time`` (+ ``warmup_delay``)."""
    return FaultEvent(
        time=time,
        kind=FAULT_RESTART,
        chip=chip,
        cold_cache=cold_cache,
        warmup_delay=warmup_delay,
    )


def link_degradation(time: float, until: float, factor: float) -> FaultEvent:
    """Inter-chip transfers run ``factor`` times slower over ``[time, until)``."""
    return FaultEvent(
        time=time, kind=FAULT_LINK_DEGRADATION, factor=factor, until=until
    )


def group_link_degradation(
    time: float, until: float, factor: float, chips: Iterable[int]
) -> FaultEvent:
    """One chip group's links run ``factor`` times slower over ``[time, until)``.

    Only replicas backed by at least one chip in ``chips`` pay the slowdown;
    the rest of the fleet runs at full speed (contrast the fleet-wide
    :func:`link_degradation`).
    """
    scoped = tuple(chips)
    if not scoped:
        raise ValueError("group_link_degradation needs a non-empty chip set")
    return FaultEvent(
        time=time, kind=FAULT_LINK_DEGRADATION, factor=factor, until=until, chips=scoped
    )


@dataclass(frozen=True)
class FaultSchedule:
    """A validated, time-ordered set of fault events for one serving run.

    The link-degradation windows are also laid out once, at construction,
    as a timeline: the sorted window edges cut virtual time into segments,
    and each segment keeps the windows active over all of it.  A
    :meth:`link_factor` query is then a bisect plus a max over one
    segment's windows, and :meth:`next_link_edge` says how long its answer
    holds.
    """

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.events, key=lambda ev: (ev.time, _KINDS.index(ev.kind), ev.chip))
        )
        object.__setattr__(self, "events", ordered)
        windows = [ev for ev in ordered if ev.kind == FAULT_LINK_DEGRADATION]
        # Every end counts as an edge, ``inf`` included, so the segment
        # after the last edge has no window active.
        edges = sorted({ev.time for ev in windows} | {ev.until for ev in windows})
        segments = []
        for start in edges:
            active = [ev for ev in windows if ev.time <= start < ev.until]
            segments.append(
                (
                    # The worst window of all, of the fleet-wide ones, and
                    # the chip-scoped windows with their chip sets.
                    max((ev.factor for ev in active), default=1.0),
                    max((ev.factor for ev in active if not ev.chips), default=1.0),
                    tuple((ev.factor, frozenset(ev.chips)) for ev in active if ev.chips),
                )
            )
        object.__setattr__(self, "_link_edges", tuple(edges))
        object.__setattr__(self, "_link_segments", tuple(segments))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @classmethod
    def of(cls, events: Iterable[FaultEvent]) -> "FaultSchedule":
        """A schedule from any iterable of events (sorted automatically)."""
        return cls(tuple(events))

    @classmethod
    def kill_and_restart(
        cls,
        chip: int,
        *,
        at: float,
        downtime: float,
        cold_cache: bool = True,
        warmup_delay: float = 0.0,
    ) -> "FaultSchedule":
        """The canonical chaos shape: one chip dies and later comes back."""
        if downtime <= 0:
            raise ValueError(f"downtime must be > 0, got {downtime}")
        return cls(
            (
                chip_death(at, chip),
                restart(at + downtime, chip, cold_cache=cold_cache, warmup_delay=warmup_delay),
            )
        )

    @classmethod
    def group_death(
        cls,
        chips: Iterable[int],
        *,
        at: float,
        downtime: float | None = None,
        cold_cache: bool = True,
        warmup_delay: float = 0.0,
    ) -> "FaultSchedule":
        """Correlated failure: a whole chip group dies at once.

        A pipeline/replica group shares a power feed, a host and a switch —
        when one of those dies, every chip in the group goes with it, which
        is a strictly harsher event than ``len(chips)`` independent deaths
        (no surviving group member donates itself to the spare pool).  With
        ``downtime`` set, every chip restarts together ``downtime`` seconds
        later.
        """
        group = sorted(set(chips))
        if not group:
            raise ValueError("group_death needs a non-empty chip set")
        events = [chip_death(at, chip) for chip in group]
        if downtime is not None:
            if downtime <= 0:
                raise ValueError(f"downtime must be > 0, got {downtime}")
            events.extend(
                restart(
                    at + downtime, chip, cold_cache=cold_cache, warmup_delay=warmup_delay
                )
                for chip in group
            )
        return cls(tuple(events))

    @classmethod
    def class_outage(
        cls,
        chips: Iterable[int],
        *,
        at: float,
        downtime: float | None = None,
        cold_cache: bool = True,
        warmup_delay: float = 0.0,
    ) -> "FaultSchedule":
        """Correlated failure: one hardware class drops out of the fleet.

        ``chips`` is every chip index of the affected class (e.g. the GPU
        chips of a mixed IPU+GPU fleet — a driver rollout or firmware bug
        takes them all down at once, the fig31 scenario).  Semantically this
        is :meth:`group_death` over a class-shaped set; it exists as its own
        constructor so schedules say what failed, not just which indices.
        """
        return cls.group_death(
            chips, at=at, downtime=downtime, cold_cache=cold_cache,
            warmup_delay=warmup_delay,
        )

    def for_fleet(self, num_chips: int) -> "FaultSchedule":
        """Validate every targeted chip exists in a ``num_chips`` fleet."""
        bad = [ev.chip for ev in self.events if ev.chip >= num_chips]
        bad += [
            chip for ev in self.events for chip in ev.chips if chip >= num_chips
        ]
        if bad:
            raise ValueError(
                f"fault schedule targets chips {sorted(set(bad))} but the "
                f"fleet has only {num_chips} chips"
            )
        return self

    def merged(self, other: "FaultSchedule | Sequence[FaultEvent]") -> "FaultSchedule":
        """This schedule plus ``other``'s events, re-sorted."""
        extra = tuple(other.events if isinstance(other, FaultSchedule) else other)
        return FaultSchedule(self.events + extra)

    def link_factor(
        self, now: float, chips: Iterable[int] | None = None
    ) -> float:
        """The link slowdown in effect at virtual time ``now`` (>= 1).

        With ``chips`` given, only windows that are fleet-wide (empty chip
        set) or that overlap the given chip set apply — one group's flapping
        interconnect no longer taxes unrelated replicas.  Without ``chips``
        (the default, and the pre-fleet behaviour) every active window
        applies.  Overlapping windows do not stack; the worst one wins — a
        single saturated/flapping link is the bottleneck either way.
        """
        segment = bisect_right(self._link_edges, now) - 1
        if segment < 0:
            return 1.0
        every, factor, scoped = self._link_segments[segment]
        if chips is None:
            return every
        if scoped:
            members = tuple(chips)
            for window_factor, window_chips in scoped:
                if window_factor > factor and not window_chips.isdisjoint(members):
                    factor = window_factor
        return factor

    def next_link_edge(self, now: float) -> float:
        """The first link-window edge after ``now`` (``inf`` when none is
        left): :meth:`link_factor` returns the same value for any chip set
        at every time in ``[now, next_link_edge(now))``."""
        edges = self._link_edges
        position = bisect_right(edges, now)
        return edges[position] if position < len(edges) else math.inf

    @property
    def deaths(self) -> tuple[FaultEvent, ...]:
        """The chip-death events, time-ordered."""
        return tuple(ev for ev in self.events if ev.kind == FAULT_CHIP_DEATH)

    @property
    def first_death_time(self) -> float:
        """Virtual time of the first chip death (``inf`` without one)."""
        deaths = self.deaths
        return deaths[0].time if deaths else math.inf


@dataclass(frozen=True)
class Watchdog:
    """Failure-detection and degraded-mode policy for the serving engines.

    ``detection_delay`` models the gap between a chip dying and the control
    plane noticing (heartbeat interval): until detection the dead replica's
    in-flight requests sit in limbo — exactly the window a production
    watchdog races to shrink.  ``degraded_shed_queue``, when set, caps the
    best-effort backlog at that many requests per *surviving* active replica
    while any replica is dead; excess is shed newest-first (interactive
    traffic is never shed by this policy — its own deadline check governs).

    The remaining knobs are fleet-scale policies honoured by
    :meth:`FleetEngine.run <repro.serving.fleet.FleetEngine.run>` (the
    single-model engine ignores them — it has one tenant-blind queue):

    * ``retry_budget`` — per-tenant cap on requeues off dead replicas.  Each
      time a tenant's request loses its progress to a chip death it spends
      one unit of the tenant's budget; once exhausted, further casualties of
      that tenant are dropped honestly instead of retried, so one tenant's
      retry storm after a correlated failure cannot starve the others.
      Requeued requests whose projected completion already misses their
      deadline are dropped regardless of remaining budget — retrying work
      that cannot finish in time only burns surviving capacity.
    * ``brownout_watermark`` — surviving-capacity fraction (live chips over
      fleet size) below which the fleet runs *browned out*: best-effort
      requests are shed at arrival, and interactive admission is re-ordered
      so tenants currently below their declared fairness floor admit first
      (within a tenant, earliest deadline first as always).
    """

    detection_delay: float = 0.0
    degraded_shed_queue: int | None = None
    retry_budget: int | None = None
    brownout_watermark: float | None = None

    def __post_init__(self) -> None:
        if self.detection_delay < 0:
            raise ValueError(
                f"detection_delay must be >= 0, got {self.detection_delay}"
            )
        if self.degraded_shed_queue is not None and self.degraded_shed_queue < 1:
            raise ValueError(
                f"degraded_shed_queue must be >= 1, got {self.degraded_shed_queue}"
            )
        if self.retry_budget is not None and self.retry_budget < 0:
            raise ValueError(
                f"retry_budget must be >= 0, got {self.retry_budget}"
            )
        if self.brownout_watermark is not None and not (
            0.0 < self.brownout_watermark <= 1.0
        ):
            raise ValueError(
                f"brownout_watermark must be in (0, 1], got {self.brownout_watermark}"
            )


#: Engine-internal fault-loop payloads (scheduled alongside FaultEvents).
@dataclass(frozen=True)
class _Detect:
    """Watchdog detection of one dead replica (scheduled at death + delay)."""

    replica: int
    epoch: int


@dataclass(frozen=True)
class _ChipOnline:
    """A restarted chip finishing warmup and rejoining the spare pool."""

    chip: int
    cold_cache: bool


@dataclass(frozen=True)
class _LinkRestored:
    """End of a link-degradation window (trace bookkeeping only)."""

    factor: float
