"""Serving-level metrics: throughput, tail latency, goodput and cache health.

Builds on the percentile/throughput helpers in :mod:`repro.runtime.metrics`
so the serving layer reports SLO-style numbers (p50/p95/p99) in the same
units the rest of the evaluation uses (seconds, requests per second).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

from repro.runtime.metrics import goodput_rps, latency_percentiles, throughput_rps
from repro.serving.plan_cache import CacheStats
from repro.serving.request import (
    DECODE_OK,
    DECODE_SHED,
    CompletedDecode,
    DecodeRequest,
)


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index over a set of non-negative allocations.

    ``(Σx)² / (n · Σx²)`` — 1.0 when every tenant gets the same share,
    ``1/n`` when one tenant gets everything.  An all-zero allocation is
    perfectly equal (1.0); an empty one has no tenants to compare (``nan``).
    """
    if not values:
        return float("nan")
    if any(value < 0 for value in values):
        raise ValueError(f"jain_fairness needs non-negative values, got {list(values)}")
    total = sum(values)
    squares = sum(value * value for value in values)
    if squares == 0.0:
        return 1.0
    return (total * total) / (len(values) * squares)


@dataclass
class FaultStats:
    """What the fault schedule did to one continuous-batching run.

    All counts are exact event counts; ``lost_tokens`` is decode progress
    (tokens already generated) thrown away because the chip holding the KV
    state died or the request migrated replicas, and so had to be re-prefilled
    from scratch.  ``restart_compile_seconds`` is the *wall-clock* cost of
    re-warming cold plan-cache namespaces after restarts — like
    ``warm_compile_seconds`` it never enters virtual time.
    """

    chip_deaths: int = 0
    restarts: int = 0
    failovers: int = 0
    """Dead replicas successfully re-placed onto surviving spare chips."""
    requeued: int = 0
    """In-flight requests pulled off dead replicas and re-admitted."""
    lost_tokens: int = 0
    """Output tokens discarded because the chips holding their KV state died
    (in-flight requeues, plus preempted requests whose origin replica died)."""
    lost_iterations: int = 0
    """In-flight iterations aborted mid-execution by a chip death."""
    degraded_sheds: int = 0
    """Best-effort requests shed by the watchdog's degraded-mode policy."""
    brownout_sheds: int = 0
    """Best-effort requests shed *at arrival* because surviving capacity sat
    below the watchdog's brownout watermark (fleet engine only)."""
    retry_drops: int = 0
    """Requeue casualties dropped honestly instead of retried: the tenant's
    retry budget was spent, or the projected completion after a full
    re-prefill already missed the deadline (fleet engine only)."""
    restart_compile_seconds: float = 0.0

    @property
    def any(self) -> bool:
        """Whether any fault actually struck this run."""
        return self.chip_deaths > 0 or self.restarts > 0

    def summary(self) -> str:
        """One-line description of the fault impact."""
        if not self.any:
            return "no faults"
        text = (
            f"{self.chip_deaths} chip death(s), {self.restarts} restart(s), "
            f"{self.failovers} failover(s), {self.requeued} requeued "
            f"({self.lost_tokens} tokens lost), "
            f"{self.degraded_sheds} degraded-mode shed(s)"
        )
        if self.brownout_sheds or self.retry_drops:
            text += (
                f", {self.brownout_sheds} brownout shed(s), "
                f"{self.retry_drops} retry drop(s)"
            )
        return text


def goodput_timeline(
    records: Sequence[CompletedDecode],
    *,
    start: float,
    end: float,
    window: float,
) -> list[tuple[float, float]]:
    """SLO-met completions per second, bucketed into fixed windows.

    Returns ``(window_start, rate)`` pairs covering ``[start, end)``; shed
    requests never count (their completion time is a shed time, not a
    service time).  This is the time-resolved view behind
    :func:`dip_and_recovery` — a chip death shows up as a dip, the watchdog
    re-placing the replica as the climb back out.
    """
    if window <= 0:
        raise ValueError(f"window must be > 0, got {window}")
    if end <= start:
        return []
    num_windows = max(1, math.ceil((end - start) / window))
    counts = [0] * num_windows
    for record in records:
        if not record.ok or not record.met_slo:
            continue
        index = int((record.completion_time - start) // window)
        if 0 <= index < num_windows:
            counts[index] += 1
    return [(start + i * window, counts[i] / window) for i in range(num_windows)]


def dip_and_recovery(
    records: Sequence[CompletedDecode],
    *,
    fault_time: float,
    window: float,
    recovery_fraction: float = 0.7,
    horizon: float | None = None,
) -> tuple[float, float, float]:
    """Quantify a fault's goodput dip: ``(baseline, dip_depth, recovery_s)``.

    ``baseline`` is the mean pre-fault goodput rate (SLO-met completions per
    second, ``nan`` if nothing completed before the fault), ``dip_depth`` is
    the worst post-fault shortfall as a fraction of baseline (0 = no dip,
    1 = goodput went to zero), and ``recovery_s`` is virtual seconds from
    the fault until the first window whose rate climbs back to
    ``recovery_fraction * baseline`` (``inf`` if goodput never recovers,
    0 if it never dipped below that threshold).

    ``horizon`` caps the measured span: completions after it are ignored.
    Use it to scope the dip to the outage itself — otherwise the natural
    end-of-run decay (arrivals stop, goodput falls to zero) reads as a
    bottomless dip in any run that drains its backlog after the last
    arrival.  ``None`` measures to the last completion.
    """
    served = [r for r in records if r.ok]
    if not served:
        return float("nan"), float("nan"), float("inf")
    start = min(r.request.arrival_time for r in served)
    end = max(r.completion_time for r in served)
    if horizon is not None:
        end = min(end, horizon)
    if not (start < fault_time < end):
        # Fault outside the served span: nothing to measure a dip against.
        return float("nan"), 0.0, 0.0
    pre = goodput_timeline(records, start=start, end=fault_time, window=window)
    post = goodput_timeline(records, start=fault_time, end=end, window=window)
    if not pre or not post:
        return float("nan"), float("nan"), float("inf")
    baseline = sum(rate for _, rate in pre) / len(pre)
    if baseline <= 0:
        return baseline, float("nan"), float("inf")
    dip_depth = max(0.0, 1.0 - min(rate for _, rate in post) / baseline)
    threshold = recovery_fraction * baseline
    recovery = float("inf")
    for window_start, rate in post:
        if rate >= threshold:
            recovery = window_start - fault_time
            break
    return baseline, dip_depth, recovery


class _Tally(NamedTuple):
    """What one pass over a report's records counts."""

    served: tuple[CompletedDecode, ...]
    """The records served to completion, in report order."""
    deadlined: int
    """Records carrying a deadline, shed ones included."""
    deadlines_met: int
    """Served records that met their deadline."""
    slo_met: int
    """Served records that met their deadline or carried none."""


@dataclass(frozen=True)
class ContinuousReport:
    """Everything one continuous-batching (or static-baseline) run measured.

    Latency-style numbers are virtual seconds from the simulator; the only
    wall-clock field is ``warm_compile_seconds`` (the one-off cost of
    compiling the batch buckets), which is deliberately kept out of virtual
    time so runs are bit-for-bit reproducible.

    A report is frozen: the request-derived reads share one cached pass
    over ``completed`` (:attr:`_tally`), which can therefore never go
    stale.
    """

    policy: str
    model: str
    num_chips: int
    num_stages: int
    max_batch_size: int
    completed: tuple[CompletedDecode, ...]
    makespan: float
    """Virtual seconds from first served arrival to last completion."""
    busy_chip_seconds: float
    """Chip-seconds spent executing decode iterations."""
    active_chip_seconds: float
    """Chip-seconds the autoscaler kept replicas active."""
    active_span: float
    """Virtual seconds from first arrival to the last engine event — the
    window ``active_chip_seconds`` and ``provisioned_chip_seconds``
    integrate over (it can exceed ``makespan``, which spans only *served*
    requests).  The run accrues them at each replica transition and once
    more when the window closes, so neither exceeds its peak chip count
    times this span."""
    iterations: int
    cache: CacheStats
    warm_compile_seconds: float
    preemptions: int
    shed: int
    scale_ups: int
    scale_downs: int
    peak_active_chips: int
    migrations: int = 0
    """Preempted requests resumed on a different replica (charged re-prefill)."""
    rebinds: int = 0
    """Idle replicas re-bound to a different model by the fleet router
    (always 0 for the single-model engines)."""
    faults: FaultStats = field(default_factory=FaultStats)
    provisioned_chip_seconds: float = 0.0
    """Chip-seconds the scaler held provisioned (booting included — lead
    time is paid for).  Runs without a :class:`~repro.serving.planner.
    FleetScaler` provision on demand, so this equals
    ``active_chip_seconds`` there."""
    peak_provisioned_chips: int = 0
    """High-water mark of provisioned chips (booting included)."""
    provision_ups: int = 0
    """Replica provisioning decisions taken by the scaler."""
    provision_downs: int = 0
    """Replica releases (including cancelled boots) taken by the scaler."""

    # ------------------------------------------------------------------ #
    @cached_property
    def _tally(self) -> _Tally:
        """The served records and the deadline counts, in one pass."""
        served = []
        deadlined = met = free = 0
        for record in self.completed:
            deadline = record.request.deadline
            if record.status == DECODE_OK:
                served.append(record)
                if deadline is None:
                    free += 1
                else:
                    deadlined += 1
                    if record.completion_time <= deadline:
                        met += 1
            elif deadline is not None:
                deadlined += 1
        return _Tally(tuple(served), deadlined, met, met + free)

    @property
    def ok_requests(self) -> list[CompletedDecode]:
        """Requests served to completion."""
        return list(self._tally.served)

    @property
    def total_completed(self) -> int:
        """Served request count."""
        return len(self._tally.served)

    @property
    def total_tokens(self) -> int:
        """Output tokens generated across all served requests."""
        return sum(record.tokens_generated for record in self._tally.served)

    @property
    def slo_met(self) -> int:
        """Requests served to completion without violating a deadline.

        Deadline-free (best-effort) requests qualify trivially — no SLO
        means none can be missed — so this is *not* the numerator of
        :attr:`slo_attainment`, which conditions on carrying a deadline.
        """
        return self._tally.slo_met

    @property
    def slo_attainment(self) -> float:
        """Fraction of deadline-carrying requests that met their deadline.

        Shed requests count as misses — dropping a request never improves
        attainment, only goodput.  ``nan`` when no request carried a
        deadline.
        """
        tally = self._tally
        if not tally.deadlined:
            return float("nan")
        return tally.deadlines_met / tally.deadlined

    @property
    def goodput(self) -> float:
        """Requests per virtual second completed without violating their SLO.

        Best-effort requests carry no deadline and therefore count, so as the
        interactive fraction approaches zero goodput degenerates to plain
        :attr:`throughput`; read it alongside :attr:`slo_attainment`, the
        deadline-conditioned view, when the mix is mostly best-effort.
        """
        return goodput_rps(self._tally.slo_met, self.makespan)

    @property
    def throughput(self) -> float:
        """Served requests per virtual second (deadline-blind)."""
        return throughput_rps(len(self._tally.served), self.makespan)

    @property
    def token_throughput(self) -> float:
        """Output tokens per virtual second."""
        return throughput_rps(self.total_tokens, self.makespan)

    @property
    def ttft_percentiles(self) -> dict[str, float]:
        """p50/p95/p99 time-to-first-token over served requests (seconds)."""
        return latency_percentiles(
            [
                record.first_token_time - record.request.arrival_time
                for record in self._tally.served
            ]
        )

    @property
    def tpot_percentiles(self) -> dict[str, float]:
        """p50/p95/p99 time-per-output-token over served multi-token requests."""
        return latency_percentiles(
            [
                (record.completion_time - record.first_token_time)
                / (record.tokens_generated - 1)
                for record in self._tally.served
                if record.tokens_generated >= 2
            ]
        )

    @property
    def latency_percentiles(self) -> dict[str, float]:
        """p50/p95/p99 end-to-end latency over served requests (seconds)."""
        return latency_percentiles(
            [
                record.completion_time - record.request.arrival_time
                for record in self._tally.served
            ]
        )

    @property
    def utilization(self) -> float:
        """Fraction of whole-fleet time spent executing iterations."""
        if self.makespan <= 0:
            return 0.0
        return min(1.0, self.busy_chip_seconds / (self.makespan * self.num_chips))

    @property
    def mean_active_chips(self) -> float:
        """Average chips the autoscaler kept active over the event window."""
        if self.active_span <= 0:
            return 0.0
        return self.active_chip_seconds / self.active_span

    @property
    def mean_provisioned_chips(self) -> float:
        """Average chips held provisioned over the event window."""
        if self.active_span <= 0:
            return 0.0
        return self.provisioned_chip_seconds / self.active_span

    # ------------------------------------------------------------------ #
    # Per-tenant slices (multi-tenant fleet runs)
    # ------------------------------------------------------------------ #
    @property
    def tenants(self) -> tuple[str, ...]:
        """Tenants with at least one request in this run, sorted."""
        return tuple(sorted({record.request.tenant for record in self.completed}))

    def tenant_slice(self, tenant: str) -> "ContinuousReport":
        """This report restricted to one tenant's requests.

        Request-derived metrics (goodput, SLO attainment, TTFT/TPOT, token
        throughput) are exact for the slice — ``makespan`` spans the
        tenant's own served requests.  Fleet-level resource counters
        (busy/active chip-seconds, iterations, cache, autoscale events) are
        zeroed rather than divided: chips and iterations are *shared* on a
        multi-tenant fleet and any per-tenant split of them would be an
        arbitrary allocation, not a measurement.  ``shed``, ``preemptions``,
        ``migrations`` and the fault-loss accounting (requeues, lost
        tokens) are per-request facts and are sliced exactly — a tenant can
        read exactly how much of its SLO loss was fault-induced.  Fault
        *mechanism* counters (chip deaths, restarts, failovers, degraded/
        brownout sheds) stay fleet-level and are zeroed in slices.
        """
        return self._slice(
            tuple(record for record in self.completed if record.request.tenant == tenant)
        )

    def per_tenant(self) -> dict[str, "ContinuousReport"]:
        """One :meth:`tenant_slice` per tenant, keyed by tenant name (sorted),
        grouped in one pass over ``completed``."""
        groups: dict[str, list[CompletedDecode]] = {}
        for record in self.completed:
            groups.setdefault(record.request.tenant, []).append(record)
        return {tenant: self._slice(tuple(groups[tenant])) for tenant in sorted(groups)}

    def _slice(self, records: tuple[CompletedDecode, ...]) -> "ContinuousReport":
        """This report restricted to ``records`` (see :meth:`tenant_slice`)."""
        served = [record for record in records if record.status == DECODE_OK]
        makespan = 0.0
        if served:
            makespan = max(r.completion_time for r in served) - min(
                r.request.arrival_time for r in served
            )
        return ContinuousReport(
            policy=self.policy,
            model=self.model,
            num_chips=self.num_chips,
            num_stages=self.num_stages,
            max_batch_size=self.max_batch_size,
            completed=records,
            makespan=makespan,
            busy_chip_seconds=0.0,
            active_chip_seconds=0.0,
            active_span=0.0,
            iterations=0,
            cache=CacheStats(),
            warm_compile_seconds=0.0,
            preemptions=sum(record.preemptions for record in records),
            shed=len(records) - len(served),
            scale_ups=0,
            scale_downs=0,
            peak_active_chips=0,
            migrations=sum(record.migrations for record in records),
            faults=FaultStats(
                requeued=sum(record.requeues for record in records),
                lost_tokens=sum(record.lost_tokens for record in records),
            ),
        )

    @property
    def fairness(self) -> float:
        """Jain fairness index over per-tenant goodput (1.0 = equal shares;
        ``nan`` for runs without any completed records)."""
        return jain_fairness(
            [slice.goodput for slice in self.per_tenant().values()]
        )

    # ------------------------------------------------------------------ #
    def summary(self) -> str:
        """One-paragraph description of the run."""
        if self.total_completed == 0:
            # Nothing served (empty workload, or everything shed): the rate
            # and percentile fields are all "no data" — say so directly.
            return (
                f"[{self.policy}] no requests served on {self.num_chips} "
                f"chip(s) ({self.shed} shed, {self.iterations} iterations)"
            )
        ttft = self.ttft_percentiles
        text = (
            f"[{self.policy}] {self.total_completed} requests "
            f"({self.total_tokens} tokens) on {self.num_chips} chip(s) in "
            f"{self.makespan * 1e3:.2f} ms virtual time: "
            f"goodput {self.goodput:.0f} req/s of {self.throughput:.0f} req/s, "
            f"{self.token_throughput:.0f} tok/s, "
            f"TTFT p50 {ttft['p50'] * 1e3:.3f} ms / p99 {ttft['p99'] * 1e3:.3f} ms, "
            f"{self.shed} shed, {self.preemptions} preemptions, "
            f"{self.scale_ups} scale-ups, "
            f"mean {self.mean_active_chips:.2f} chips active, "
            f"utilization {self.utilization:.0%}"
        )
        if self.faults.any:
            text += f"; faults: {self.faults.summary()}"
        return text


#: Report totals that per-tenant slices must add up to exactly.
_SLICED_TOTALS = (
    "total_completed",
    "shed",
    "slo_met",
    "total_tokens",
    "preemptions",
    "migrations",
)


def check_report(
    report: ContinuousReport, requests: Sequence[DecodeRequest]
) -> list[str]:
    """The north-star invariants of one decode run; returns the failures.

    Every request ends exactly once (served or shed, one record per request
    id); a served record carries all ``max_new_tokens`` tokens and is
    ordered admitted <= first token <= completed, a shed one carries no
    tokens and a NaN first-token time; chip-seconds are ordered busy <=
    active <= provisioned, and active and provisioned are at most their
    peak chip counts held over the whole ``active_span`` (a 1e-9 relative
    slack absorbs rounding and the busy-time refunds of aborted
    iterations); and the per-tenant slices sum to the fleet totals,
    preemptions and migrations included.  An empty list means the report
    balances.
    """
    failures: list[str] = []
    ids = [record.request.request_id for record in report.completed]
    if len(ids) != len(requests):
        failures.append(f"{len(ids)} records for {len(requests)} requests")
    if len(set(ids)) != len(ids):
        failures.append(f"{len(ids) - len(set(ids))} requests ended more than once")
    if set(ids) != {request.request_id for request in requests}:
        failures.append("record ids differ from the workload's request ids")
    bad = {record.status for record in report.completed} - {DECODE_OK, DECODE_SHED}
    if bad:
        failures.append(f"unknown record states {sorted(bad)}")
    for record in report.completed:
        rid = record.request.request_id
        if record.ok:
            if record.tokens_generated != record.request.max_new_tokens:
                failures.append(
                    f"request {rid} served {record.tokens_generated} of "
                    f"{record.request.max_new_tokens} tokens"
                )
            if not (
                record.admitted_time <= record.first_token_time <= record.completion_time
            ):
                failures.append(
                    f"request {rid} out of order: admitted {record.admitted_time!r}, "
                    f"first token {record.first_token_time!r}, "
                    f"completed {record.completion_time!r}"
                )
        elif record.tokens_generated or not math.isnan(record.first_token_time):
            failures.append(
                f"shed request {rid} has {record.tokens_generated} tokens and "
                f"first token {record.first_token_time!r}"
            )
    busy, active = report.busy_chip_seconds, report.active_chip_seconds
    provisioned = report.provisioned_chip_seconds
    slack = 1e-9 * max(1.0, provisioned)
    if not 0.0 <= busy <= active + slack or active > provisioned + slack:
        failures.append(
            f"chip-seconds out of order: busy {busy!r}, active {active!r}, "
            f"provisioned {provisioned!r}"
        )
    span = report.active_span
    for name, seconds, peak in (
        ("active", active, report.peak_active_chips),
        ("provisioned", provisioned, report.peak_provisioned_chips),
    ):
        if seconds > peak * span + slack:
            failures.append(
                f"{name} chip-seconds {seconds!r} exceed {peak} peak chips "
                f"over the {span!r} s active span"
            )
    slices = report.per_tenant().values()
    for name in _SLICED_TOTALS:
        whole = getattr(report, name)
        parts = sum(getattr(piece, name) for piece in slices)
        if parts != whole:
            failures.append(f"tenant slices sum {name} to {parts}, report has {whole}")
    return failures
