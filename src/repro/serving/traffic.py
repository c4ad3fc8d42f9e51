"""Deterministic synthetic arrival-trace generators for serving workloads.

:func:`~repro.serving.request.decode_workload` offers a *stationary* Poisson
stream — fine for steady-state figures, blind to the phenomena capacity
planning actually fights: diurnal load cycles, bursty on/off traffic and
flash crowds.  This module generates those shapes as replayable virtual-time
traces:

* :func:`diurnal_workload` — a non-homogeneous Poisson process whose rate
  follows a sinusoidal day/night cycle (:class:`DiurnalPattern`), sampled
  exactly by Lewis–Shedler thinning.
* :func:`bursty_workload` — a two-state Markov-modulated Poisson process
  (MMPP): exponential sojourns alternate between a quiet rate and a burst
  rate, the classic model of on/off traffic.  Sampling is exact (no
  thinning) thanks to the memorylessness of both the sojourn and the
  inter-arrival draws.
* :func:`flash_crowd_workload` — a piecewise-linear rate spike
  (:class:`FlashCrowdPattern`): baseline → ramp → hold at ``peak_multiplier
  × base`` → decay back, the fig32 stress shape.

Every generator is seeded and pure virtual time, so a trace replays
bit-identically; the arrival samplers are lazy iterators, so traces scale to
millions of requests without materialising more than the requests asked
for.  The ``*_workload`` wrappers attach the same request attributes as
:func:`~repro.serving.request.decode_workload` (prompt/output ranges, SLO
class coin, deadline rule, tenant tag), which makes the streams directly
composable with :func:`~repro.serving.request.merge_decode_workloads` and
per-tenant :class:`~repro.serving.request.TenantSpec` registries.

The analysis helpers (:func:`windowed_rates`, :func:`burstiness`,
:func:`expected_arrivals`) turn a trace back into the per-window rate series
the forecasters of :mod:`repro.serving.forecast` consume.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.serving.request import DecodeRequest, trace_workload


# --------------------------------------------------------------------------- #
# Rate patterns: deterministic rate functions lambda(t)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class DiurnalPattern:
    """A sinusoidal day/night rate cycle.

    ``rate(t) = base_rate * (1 + amplitude * sin(2*pi*(t - phase)/period))``
    — the textbook diurnal shape: load swings between ``(1 - amplitude)``
    and ``(1 + amplitude)`` times the base over one ``period``.
    """

    base_rate: float
    period: float
    amplitude: float = 0.5
    phase: float = 0.0
    """Virtual seconds by which the cycle is shifted (``rate(phase)`` is the
    base rate on the rising edge)."""

    def __post_init__(self) -> None:
        if self.base_rate <= 0:
            raise ValueError(f"base_rate must be positive, got {self.base_rate}")
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        if not 0.0 <= self.amplitude <= 1.0:
            raise ValueError(f"amplitude must be in [0, 1], got {self.amplitude}")

    def rate(self, t: float) -> float:
        """Instantaneous arrival rate at virtual time ``t`` (requests/s)."""
        swing = math.sin(2.0 * math.pi * (t - self.phase) / self.period)
        return self.base_rate * (1.0 + self.amplitude * swing)

    @property
    def peak_rate(self) -> float:
        """Tight upper bound on :meth:`rate` (the thinning envelope)."""
        return self.base_rate * (1.0 + self.amplitude)


@dataclass(frozen=True)
class FlashCrowdPattern:
    """A baseline rate with one piecewise-linear flash-crowd spike.

    The rate sits at ``base_rate``, ramps linearly to ``peak_multiplier *
    base_rate`` over ``ramp`` seconds starting at ``start``, holds the peak
    for ``hold`` seconds, then decays linearly back over ``decay`` seconds.
    The ramp is what gives a trend forecaster its leading signal — real
    flash crowds grow over minutes, they do not teleport.
    """

    base_rate: float
    start: float
    ramp: float
    hold: float
    decay: float
    peak_multiplier: float = 4.0

    def __post_init__(self) -> None:
        if self.base_rate <= 0:
            raise ValueError(f"base_rate must be positive, got {self.base_rate}")
        if min(self.start, self.ramp, self.hold, self.decay) < 0:
            raise ValueError("start/ramp/hold/decay must all be >= 0")
        if self.peak_multiplier < 1.0:
            raise ValueError(
                f"peak_multiplier must be >= 1, got {self.peak_multiplier}"
            )

    def rate(self, t: float) -> float:
        """Instantaneous arrival rate at virtual time ``t`` (requests/s)."""
        peak = self.base_rate * self.peak_multiplier
        ramp_end = self.start + self.ramp
        hold_end = ramp_end + self.hold
        decay_end = hold_end + self.decay
        if t < self.start or t >= decay_end:
            return self.base_rate
        if t < ramp_end:
            if self.ramp == 0:
                return peak
            return self.base_rate + (peak - self.base_rate) * (t - self.start) / self.ramp
        if t < hold_end:
            return peak
        if self.decay == 0:
            return self.base_rate
        return peak - (peak - self.base_rate) * (t - hold_end) / self.decay

    @property
    def peak_rate(self) -> float:
        """Tight upper bound on :meth:`rate` (the thinning envelope)."""
        return self.base_rate * self.peak_multiplier


def expected_arrivals(
    pattern: DiurnalPattern | FlashCrowdPattern | Callable[[float], float],
    *,
    duration: float,
    steps: int = 4096,
) -> float:
    """Deterministic trapezoid integral of a pattern's rate over
    ``[0, duration]`` — the expected arrival count the seeded sampler
    realises up to Poisson noise (the rate-conservation tests compare the
    two)."""
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    rate = pattern.rate if not callable(pattern) else pattern
    dt = duration / steps
    total = 0.0
    for i in range(steps):
        total += 0.5 * (rate(i * dt) + rate((i + 1) * dt)) * dt
    return total


# --------------------------------------------------------------------------- #
# Arrival-time samplers (lazy, seeded, exact)
# --------------------------------------------------------------------------- #
def poisson_arrivals(
    pattern: DiurnalPattern | FlashCrowdPattern,
    *,
    duration: float,
    seed: int = 0,
    rng: random.Random | None = None,
) -> Iterator[float]:
    """Lazy arrival times of a non-homogeneous Poisson process on
    ``[0, duration)``, sampled exactly by Lewis–Shedler thinning against the
    pattern's ``peak_rate`` envelope.  Seeded and pure virtual time: the
    same seed replays the same trace bit-for-bit, and the iterator does O(1)
    work per candidate, so million-request traces stream without
    materialising anything."""
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    generator = rng if rng is not None else random.Random(seed)
    peak = pattern.peak_rate
    clock = 0.0
    while True:
        clock += generator.expovariate(peak)
        if clock >= duration:
            return
        if generator.random() < pattern.rate(clock) / peak:
            yield clock


def mmpp_arrivals(
    *,
    quiet_rate: float,
    burst_rate: float,
    mean_quiet: float,
    mean_burst: float,
    duration: float,
    seed: int = 0,
    rng: random.Random | None = None,
    start_bursting: bool = False,
) -> Iterator[float]:
    """Lazy arrival times of a two-state Markov-modulated Poisson process.

    The process alternates between a *quiet* state (Poisson at
    ``quiet_rate``) and a *burst* state (Poisson at ``burst_rate``), with
    exponentially distributed sojourn times of the given means.  Sampling is
    exact: both the sojourn and the inter-arrival distributions are
    memoryless, so an inter-arrival draw that crosses the sojourn boundary
    is simply discarded and redrawn at the new state's rate.
    """
    if min(quiet_rate, burst_rate) <= 0:
        raise ValueError("quiet_rate and burst_rate must be positive")
    if min(mean_quiet, mean_burst) <= 0:
        raise ValueError("mean_quiet and mean_burst must be positive")
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    generator = rng if rng is not None else random.Random(seed)
    bursting = start_bursting
    clock = 0.0
    state_end = clock + generator.expovariate(
        1.0 / (mean_burst if bursting else mean_quiet)
    )
    while clock < duration:
        rate = burst_rate if bursting else quiet_rate
        step = generator.expovariate(rate)
        if clock + step >= state_end:
            # The would-be arrival falls past the sojourn boundary: jump to
            # the boundary, flip state and redraw (memorylessness makes the
            # discarded partial draw statistically free).
            clock = state_end
            bursting = not bursting
            state_end = clock + generator.expovariate(
                1.0 / (mean_burst if bursting else mean_quiet)
            )
            continue
        clock += step
        if clock < duration:
            yield clock


# --------------------------------------------------------------------------- #
# Trace synthesis: arrival processes -> DecodeRequest streams (the request
# attributes are drawn by :func:`~repro.serving.request.trace_workload`)
# --------------------------------------------------------------------------- #
def diurnal_workload(
    model: str,
    *,
    base_rate: float,
    period: float,
    duration: float,
    amplitude: float = 0.5,
    phase: float = 0.0,
    seed: int = 0,
    **request_kwargs,
) -> list[DecodeRequest]:
    """A seeded diurnal-cycle decode trace on ``[0, duration)``.

    ``request_kwargs`` are forwarded to :func:`trace_workload`
    (prompt/output ranges, ``interactive_fraction``, ``slo_seconds``,
    ``tenant``, ``max_requests``)."""
    pattern = DiurnalPattern(
        base_rate=base_rate, period=period, amplitude=amplitude, phase=phase
    )
    rng = random.Random(seed)
    times = poisson_arrivals(pattern, duration=duration, rng=rng)
    return trace_workload(times, model, rng=rng, **request_kwargs)


def bursty_workload(
    model: str,
    *,
    quiet_rate: float,
    burst_rate: float,
    mean_quiet: float,
    mean_burst: float,
    duration: float,
    seed: int = 0,
    start_bursting: bool = False,
    **request_kwargs,
) -> list[DecodeRequest]:
    """A seeded Markov-modulated (bursty on/off) decode trace.

    ``request_kwargs`` are forwarded to :func:`trace_workload`."""
    rng = random.Random(seed)
    times = mmpp_arrivals(
        quiet_rate=quiet_rate,
        burst_rate=burst_rate,
        mean_quiet=mean_quiet,
        mean_burst=mean_burst,
        duration=duration,
        rng=rng,
        start_bursting=start_bursting,
    )
    return trace_workload(times, model, rng=rng, **request_kwargs)


def flash_crowd_workload(
    model: str,
    *,
    base_rate: float,
    start: float,
    ramp: float,
    hold: float,
    decay: float,
    duration: float,
    peak_multiplier: float = 4.0,
    seed: int = 0,
    **request_kwargs,
) -> list[DecodeRequest]:
    """A seeded flash-crowd decode trace: baseline, one ramp/hold/decay
    spike at ``peak_multiplier`` times the base rate, baseline again.

    ``request_kwargs`` are forwarded to :func:`trace_workload`."""
    pattern = FlashCrowdPattern(
        base_rate=base_rate,
        start=start,
        ramp=ramp,
        hold=hold,
        decay=decay,
        peak_multiplier=peak_multiplier,
    )
    rng = random.Random(seed)
    times = poisson_arrivals(pattern, duration=duration, rng=rng)
    return trace_workload(times, model, rng=rng, **request_kwargs)


# --------------------------------------------------------------------------- #
# Trace analysis: rate series the forecasters consume
# --------------------------------------------------------------------------- #
def windowed_rates(
    trace: Sequence[DecodeRequest] | Sequence[float],
    *,
    window: float,
    start: float = 0.0,
    end: float | None = None,
) -> list[tuple[float, float]]:
    """Observed arrival rate per fixed window: ``(window_start, rate)``.

    Accepts either a request trace or raw arrival times; ``end`` defaults to
    the last arrival (rounded up to a whole window).  This is exactly the
    observation series a :class:`~repro.serving.forecast.Forecaster`
    consumes, and what the rate-conservation tests integrate back."""
    if window <= 0:
        raise ValueError(f"window must be > 0, got {window}")
    times = [
        item.arrival_time if isinstance(item, DecodeRequest) else float(item)
        for item in trace
    ]
    if end is None:
        end = max(times) + window if times else start + window
    if end <= start:
        return []
    num_windows = max(1, math.ceil((end - start) / window))
    counts = [0] * num_windows
    for t in times:
        index = int((t - start) // window)
        if 0 <= index < num_windows:
            counts[index] += 1
    return [(start + i * window, counts[i] / window) for i in range(num_windows)]


def burstiness(
    trace: Sequence[DecodeRequest] | Sequence[float], *, window: float
) -> float:
    """Peak-to-mean ratio of the windowed arrival rate (1.0 = perfectly
    smooth; a stationary Poisson stream sits modestly above 1 from sampling
    noise, an MMPP or flash crowd far above).  ``nan`` for an empty trace."""
    rates = [rate for _, rate in windowed_rates(trace, window=window)]
    if not rates:
        return float("nan")
    mean = sum(rates) / len(rates)
    if mean == 0.0:
        return float("nan")
    return max(rates) / mean
