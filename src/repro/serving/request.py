"""Decode requests, completed-request records and workload generators.

Serving is simulated in **virtual time**: every request carries an arrival
timestamp, batches are formed and scheduled deterministically from those
timestamps, and iteration latencies come from the analytical chip simulator.
This keeps serving experiments exactly reproducible (no real sleeping, no
scheduling jitter) while exercising the same queueing dynamics a wall-clock
server would see.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
import random
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

#: SLO classes of autoregressive requests (continuous batching).
SLO_INTERACTIVE = "interactive"
"""Latency-sensitive traffic: carries a deadline and is scheduled first."""
SLO_BEST_EFFORT = "best-effort"
"""Throughput traffic: no deadline, preemptible by interactive requests."""


@dataclass(frozen=True)
class TenantSpec:
    """One tenant sharing the serving fleet.

    A tenant is a traffic source, not a deployment: several tenants can send
    requests to the same model, and one tenant can spread across models.  The
    ``fairness_floor`` states the minimum SLO attainment the operator promised
    this tenant — the fig30 experiment asserts no tenant collapses below its
    floor even when another tenant's burst contends for the shared chips.
    """

    name: str
    fairness_floor: float = 0.0
    """Minimum acceptable fraction of deadline-carrying requests served in
    time (0 = no promise; best-effort-only tenants usually leave this at 0)."""
    weight: float = 1.0
    """Relative share used by weighted-fairness reporting (reserved for the
    learned router; the heuristic routers treat all tenants equally)."""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("TenantSpec requires a name")
        if not 0.0 <= self.fairness_floor <= 1.0:
            raise ValueError(
                f"fairness_floor must be in [0, 1], got {self.fairness_floor}"
            )
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")


# --------------------------------------------------------------------------- #
# Autoregressive (decode) requests — continuous batching
# --------------------------------------------------------------------------- #
#: How a frozen dataclass sets its own fields.
_store = object.__setattr__


@dataclass(frozen=True, init=False)
class DecodeRequest:
    """One autoregressive generation request (prompt + output-token budget).

    A decode request occupies a batch slot for one or more iterations:
    prefill over the prompt, then one decode iteration per generated token
    after the first.  A single forward pass (an encoder or CNN inference)
    is a one-token prompt with one output token: one iteration.  Interactive requests carry an
    absolute ``deadline`` (virtual seconds) stating their SLO; best-effort
    requests have none and may be preempted.
    """

    request_id: int
    model: str
    arrival_time: float
    prompt_tokens: int
    max_new_tokens: int
    """Output-token budget: the request retires after this many tokens."""
    slo_class: str = SLO_INTERACTIVE
    deadline: float | None = None
    """Absolute completion deadline (virtual seconds); ``None`` = no SLO."""
    tenant: str = ""
    """Traffic source this request belongs to (empty = single-tenant run)."""

    def __init__(
        self,
        request_id: int,
        model: str,
        arrival_time: float,
        prompt_tokens: int,
        max_new_tokens: int,
        slo_class: str = SLO_INTERACTIVE,
        deadline: float | None = None,
        tenant: str = "",
    ) -> None:
        # The generated frozen ``__init__`` plus ``__post_init__`` in one
        # frame: traces build one request per arrival.  Fields are stored as
        # the generated one stores them, so instances share their key table.
        # One chained comparison rejects negative, infinite and NaN arrivals
        # (every comparison with NaN is false).
        if not 0 <= arrival_time < math.inf:
            if arrival_time < 0:
                raise ValueError(f"arrival_time must be >= 0, got {arrival_time}")
            raise ValueError(f"arrival_time must be finite, got {arrival_time}")
        if prompt_tokens < 1:
            raise ValueError(f"prompt_tokens must be >= 1, got {prompt_tokens}")
        if max_new_tokens < 1:
            raise ValueError(f"max_new_tokens must be >= 1, got {max_new_tokens}")
        if slo_class not in (SLO_INTERACTIVE, SLO_BEST_EFFORT):
            raise ValueError(
                f"slo_class must be {SLO_INTERACTIVE!r} or {SLO_BEST_EFFORT!r}, "
                f"got {slo_class!r}"
            )
        if deadline is not None and not deadline >= arrival_time:
            if deadline != deadline:
                raise ValueError("deadline must not be NaN")
            raise ValueError(f"deadline {deadline} precedes arrival {arrival_time}")
        store = _store
        store(self, "request_id", request_id)
        store(self, "model", model)
        store(self, "arrival_time", arrival_time)
        store(self, "prompt_tokens", prompt_tokens)
        store(self, "max_new_tokens", max_new_tokens)
        store(self, "slo_class", slo_class)
        store(self, "deadline", deadline)
        store(self, "tenant", tenant)

    @property
    def interactive(self) -> bool:
        """Whether the request belongs to the latency-sensitive class."""
        return self.slo_class == SLO_INTERACTIVE


#: Terminal states of a decode request.
DECODE_OK = "ok"
DECODE_SHED = "shed"


def _frozen_record(cls):
    """Register the named tuple ``cls`` as a frozen dataclass as well.

    Records and router views are tuples so that building one is a single
    allocation (a replay builds one record per request; the fleet builds
    one view per changed replica and one per route).  They were frozen
    dataclasses before, so ``dataclasses.replace``/``fields``/``asdict``
    keep working on them, the fields keep their defaults (``MISSING`` for
    the required ones), and assigning to one still raises
    :class:`dataclasses.FrozenInstanceError`."""
    dataclasses.dataclass(frozen=True, init=False, repr=False, eq=False)(cls)
    for name, spec in cls.__dataclass_fields__.items():
        spec.default = cls._field_defaults.get(name, dataclasses.MISSING)
    return cls


@_frozen_record
class CompletedDecode(NamedTuple):
    """A decode request together with how the engine served (or shed) it."""

    request: DecodeRequest
    status: str
    """Either :data:`DECODE_OK` (served to completion) or :data:`DECODE_SHED`
    (rejected by load shedding before producing any tokens)."""
    admitted_time: float
    """When the request first joined a running batch (``nan`` if it never
    was admitted — shed requests were rejected from the queue, so they have
    no admission to timestamp)."""
    first_token_time: float
    """When the first output token completed (``nan`` if shed)."""
    completion_time: float
    """When the last output token completed (shed time if shed)."""
    tokens_generated: int
    preemptions: int = 0
    """Times the request was swapped out of a running batch."""
    replica: int = -1
    """Replica (chip or chip group) that retired the request; ``-1`` for shed
    requests, which were never placed on any replica."""
    requeues: int = 0
    """Times the request was pulled off a dead replica (or migrated across
    replicas after preemption) and re-admitted with its progress discarded."""
    migrations: int = 0
    """The subset of :attr:`requeues` caused by cross-replica migration of a
    preempted request (as opposed to the chips holding its KV state dying)."""
    lost_tokens: int = 0
    """Output tokens this request generated and then lost to requeues — the
    per-request share of :attr:`~repro.serving.metrics.FaultStats.lost_tokens`,
    which is what lets a tenant slice see how much of its SLO loss was
    fault-induced."""

    @property
    def ok(self) -> bool:
        """Whether the request was served to completion."""
        return self.status == DECODE_OK

    @property
    def latency(self) -> float:
        """End-to-end latency: arrival to final token (virtual seconds)."""
        return self.completion_time - self.request.arrival_time

    @property
    def time_to_first_token(self) -> float:
        """Arrival to first output token (virtual seconds; ``nan`` if shed)."""
        return self.first_token_time - self.request.arrival_time

    @property
    def time_per_output_token(self) -> float:
        """Mean inter-token gap after the first token (virtual seconds).

        ``nan`` for shed or single-token requests (no gap to measure).
        """
        if not self.ok or self.tokens_generated < 2:
            return float("nan")
        span = self.completion_time - self.first_token_time
        return span / (self.tokens_generated - 1)

    @property
    def met_slo(self) -> bool:
        """Served to completion within the deadline (vacuously true without one)."""
        if not self.ok:
            return False
        deadline = self.request.deadline
        return deadline is None or self.completion_time <= deadline


def _token_range(name: str, bounds: tuple[int, int]) -> tuple[int, int]:
    """``(low, width)`` of an inclusive token range, checked up front: a
    range that could draw a zero-token request fails on every seed, not
    only on the seeds that happen to draw the zero."""
    low, high = map(operator.index, bounds)
    if low < 1 or high < low:
        raise ValueError(f"{name} must satisfy 1 <= low <= high, got {tuple(bounds)}")
    return low, high - low + 1


def trace_workload(
    arrival_times: Iterable[float],
    model: str,
    *,
    rng: random.Random,
    prompt_tokens: tuple[int, int] = (16, 128),
    output_tokens: tuple[int, int] = (4, 48),
    interactive_fraction: float = 0.75,
    slo_seconds: Callable[[int, int], float] | float | None = None,
    tenant: str = "",
    max_requests: int | None = None,
) -> list[DecodeRequest]:
    """Attach request attributes to a stream of arrival times.

    Per request, in arrival order: a uniform prompt length and output
    budget from the given inclusive ranges (each needs ``1 <= low <=
    high``), then an ``interactive_fraction`` coin for the SLO class.
    ``slo_seconds`` sets each interactive request's deadline relative to
    its arrival — a constant, or a callable
    ``(prompt, output) -> seconds`` so deadlines can scale with the work
    requested; ``None`` leaves interactive requests deadline-free.
    ``tenant`` tags every request with its traffic source.  ``rng`` is the
    caller's seeded stream: :func:`decode_workload` and the
    :mod:`repro.serving.traffic` generators share one generator between
    arrivals and attributes, so a trace is one deterministic draw sequence.
    """
    if not 0.0 <= interactive_fraction <= 1.0:
        raise ValueError(
            f"interactive_fraction must be in [0, 1], got {interactive_fraction}"
        )
    if max_requests is not None and max_requests < 1:
        raise ValueError(f"max_requests must be >= 1, got {max_requests}")
    prompt_low, prompt_width = _token_range("prompt_tokens", prompt_tokens)
    output_low, output_width = _token_range("output_tokens", output_tokens)
    times = (
        arrival_times
        if max_requests is None
        else itertools.islice(arrival_times, max_requests)
    )
    # ``rng.randint(low, high)`` is ``low + rng._randbelow(high - low + 1)``:
    # calling that directly draws the same values without two wrapper frames.
    below = rng._randbelow
    coin = rng.random
    scaled = callable(slo_seconds)
    new = DecodeRequest
    requests: list[DecodeRequest] = []
    append = requests.append
    for index, clock in enumerate(times):
        prompt = prompt_low + below(prompt_width)
        output = output_low + below(output_width)
        if coin() < interactive_fraction:
            if slo_seconds is None:
                deadline = None
            elif scaled:
                deadline = clock + slo_seconds(prompt, output)
            else:
                deadline = clock + slo_seconds
            # DecodeRequest(request_id, model, arrival_time, prompt_tokens,
            # max_new_tokens, slo_class, deadline, tenant)
            append(new(index, model, clock, prompt, output, SLO_INTERACTIVE, deadline, tenant))
        else:
            append(new(index, model, clock, prompt, output, SLO_BEST_EFFORT, None, tenant))
    return requests


def decode_workload(
    model: str,
    *,
    num_requests: int,
    rate: float,
    seed: int = 0,
    prompt_tokens: tuple[int, int] = (16, 128),
    output_tokens: tuple[int, int] = (4, 48),
    interactive_fraction: float = 0.75,
    slo_seconds: Callable[[int, int], float] | float | None = None,
    tenant: str = "",
) -> list[DecodeRequest]:
    """A deterministic Poisson stream of autoregressive requests.

    :func:`trace_workload` over a stationary Poisson clock at ``rate``: the
    clock and the request attributes draw from one generator seeded with
    ``seed``.  The fig27 experiment passes ``slo_seconds`` as ``slo_factor
    × ideal-service-time``; merge per-tenant streams with
    :func:`merge_decode_workloads`.
    """
    if num_requests <= 0:
        raise ValueError(f"num_requests must be positive, got {num_requests}")
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    rng = random.Random(seed)
    # The Poisson clock sums exponential gaps drawn lazily, one per request,
    # so each gap precedes that request's attribute draws on ``rng``.
    clock = itertools.accumulate(map(rng.expovariate, itertools.repeat(rate)))
    return trace_workload(
        clock,
        model,
        rng=rng,
        prompt_tokens=prompt_tokens,
        output_tokens=output_tokens,
        interactive_fraction=interactive_fraction,
        slo_seconds=slo_seconds,
        tenant=tenant,
        max_requests=num_requests,
    )


#: The merge order of :func:`merge_decode_workloads`.
_MERGE_KEY = operator.attrgetter("arrival_time", "tenant", "model", "request_id")


def merge_decode_workloads(
    *streams: Iterable[DecodeRequest],
) -> list[DecodeRequest]:
    """Compose per-tenant decode streams into one multi-tenant arrival stream.

    The merged stream is renumbered 0..N-1 in a *permutation-invariant*
    order — sorted by ``(arrival_time, tenant, model, original id)`` — so
    shuffling the order the tenant streams are passed in yields the exact
    same composed workload (the property the router-determinism tests rely
    on).  Raises when two requests are indistinguishable under that key
    (same tenant+model streams must come from one generator call, which
    numbers them uniquely).
    """
    merged = [req for stream in streams for req in stream]
    keyed = sorted(merged, key=_MERGE_KEY)
    # Sorted by key, so requests sharing one are neighbours with one arrival
    # time; the times are compared first because they allocate nothing.
    times = list(map(operator.attrgetter("arrival_time"), keyed))
    for position in itertools.compress(
        itertools.count(), map(operator.eq, times, times[1:])
    ):
        first = keyed[position]
        if _MERGE_KEY(first) == _MERGE_KEY(keyed[position + 1]):
            raise ValueError(
                "indistinguishable requests in merge_decode_workloads: two "
                f"requests with id {first.request_id} for tenant "
                f"{first.tenant!r} / model {first.model!r} arrive at "
                f"{first.arrival_time}; draw each (tenant, model) stream "
                "from a single generator call"
            )
    # A positional constructor rather than ``dataclasses.replace``: a fraction
    # of the cost on long merged traces, and ``__init__`` still validates
    # each copy.
    new = DecodeRequest
    return [
        new(
            index,
            req.model,
            req.arrival_time,
            req.prompt_tokens,
            req.max_new_tokens,
            req.slo_class,
            req.deadline,
            req.tenant,
        )
        for index, req in enumerate(keyed)
    ]
