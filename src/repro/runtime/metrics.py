"""Metric helpers shared by the experiment harness and the examples."""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro.hw.simulator import SimulationResult
from repro.runtime.executor import EvaluationResult
from repro.utils import geometric_mean


def latency_breakdown(result: SimulationResult) -> dict[str, float]:
    """Split a simulation's latency into the categories of Figure 13."""
    return {
        "compute": result.compute_time,
        "intercore": result.intercore_time,
        "offchip": result.offchip_time,
        "sync": result.sync_time,
        "total": result.total_time,
    }


def comm_fraction(result: SimulationResult) -> float:
    """Fraction of end-to-end time spent on inter-core transfers."""
    return result.comm_fraction


def bandwidth_utilization_gbps(result: SimulationResult) -> float:
    """Per-core inter-core bandwidth utilisation in GB/s (Figure 14)."""
    return result.bandwidth_utilization / 1e9


def per_operator_speedups(
    baseline: SimulationResult, optimized: SimulationResult
) -> dict[str, float]:
    """Per-operator speedup of ``optimized`` over ``baseline`` (Figure 15).

    Only operators present in both results are compared.
    """
    speedups: dict[str, float] = {}
    for op_name, timing in baseline.per_op.items():
        other = optimized.per_op.get(op_name)
        if other is None:
            continue
        if other.total <= 0 or timing.total <= 0:
            continue
        speedups[op_name] = timing.total / other.total
    return speedups


def speedup_distribution(speedups: Mapping[str, float]) -> dict[str, float]:
    """Summary statistics of a per-operator speedup distribution.

    Exactly-1.0 speedups count as *unchanged*, so the improved, regressed
    and unchanged fractions partition the operators:
    ``improved_fraction + regressed_fraction + unchanged_fraction == 1``.
    """
    values = sorted(speedups.values())
    if not values:
        return {
            "count": 0,
            "min": 0.0,
            "max": 0.0,
            "geomean": 0.0,
            "improved_fraction": 0.0,
            "regressed_fraction": 0.0,
            "unchanged_fraction": 0.0,
        }
    improved = sum(1 for value in values if value > 1.0)
    regressed = sum(1 for value in values if value < 1.0)
    unchanged = len(values) - improved - regressed
    return {
        "count": len(values),
        "min": values[0],
        "max": values[-1],
        "geomean": geometric_mean(values),
        "improved_fraction": improved / len(values),
        "regressed_fraction": regressed / len(values),
        "unchanged_fraction": unchanged / len(values),
    }


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` (linear interpolation).

    ``q`` is in [0, 100].  Returns ``nan`` for an empty sequence so callers
    can render "no data" without special-casing.  ``nan`` entries are
    treated as missing data and dropped — sorting would otherwise place
    them arbitrarily and silently corrupt every rank (infinities are kept:
    an infinite latency is real data, not a gap).
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    return _ranked(_ordered(values), q)


def _ordered(values: Sequence[float]) -> list[float]:
    """``values`` without its ``nan`` entries, sorted."""
    return sorted(value for value in values if not math.isnan(value))


def _ranked(ordered: list[float], q: float) -> float:
    """The ``q``-th percentile of the sorted, ``nan``-free ``ordered``."""
    if not ordered:
        return float("nan")
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = rank - lower
    if fraction == 0.0:
        # Exact rank: no interpolation.  This also keeps infinite values
        # intact — ``inf * 0.0`` in the blend below would turn an exact hit
        # on an infinite latency into ``nan``.
        return ordered[lower]
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


def latency_percentiles(latencies: Sequence[float]) -> dict[str, float]:
    """The p50/p95/p99 summary a serving SLO is stated against (the same
    values as three :func:`percentile` calls, from one sort)."""
    ordered = _ordered(latencies)
    return {
        "p50": _ranked(ordered, 50.0),
        "p95": _ranked(ordered, 95.0),
        "p99": _ranked(ordered, 99.0),
    }


def slo_attainment(latencies: Sequence[float], slo_seconds: float) -> float:
    """Fraction of latencies within the SLO (``nan`` for no data).

    The serving-side complement to :func:`latency_percentiles`: an SLO stated
    as "p99 under X ms" holds exactly when ``slo_attainment(latencies, X) >=
    0.99``.
    """
    if slo_seconds < 0:
        raise ValueError(f"slo_seconds must be >= 0, got {slo_seconds}")
    if not latencies:
        return float("nan")
    return sum(1 for value in latencies if value <= slo_seconds) / len(latencies)


def throughput_rps(completed: int, span_seconds: float) -> float:
    """Requests per second completed over a (virtual) time span.

    Zero completions over any span is genuinely zero throughput; a positive
    completion count over a degenerate (instant or negative) window has no
    meaningful rate, so it returns ``nan`` — the same "no data" convention
    as :func:`percentile` — instead of silently reporting zero.
    """
    if completed <= 0:
        return 0.0
    if span_seconds <= 0:
        return float("nan")
    return completed / span_seconds


def goodput_rps(met_slo: int, span_seconds: float) -> float:
    """Requests per second completed *within their SLO* over a time span.

    Identical semantics to :func:`throughput_rps` but counting only requests
    that met their deadline — the number a latency SLO actually pays for.
    Degenerate windows follow the same ``nan`` convention.
    """
    if met_slo < 0:
        raise ValueError(f"met_slo must be >= 0, got {met_slo}")
    return throughput_rps(met_slo, span_seconds)


def average_speedup(results: Sequence[tuple[EvaluationResult, EvaluationResult]]) -> float:
    """Geometric-mean end-to-end speedup over (baseline, optimized) pairs."""
    ratios = [
        baseline.latency / optimized.latency
        for baseline, optimized in results
        if baseline.ok and optimized.ok and optimized.latency > 0
    ]
    if not ratios:
        return float("nan")
    return geometric_mean(ratios)
