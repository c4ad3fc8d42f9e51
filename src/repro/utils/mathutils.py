"""Small integer-math helpers used by the partitioning and cost machinery.

The partition search in :mod:`repro.core` reasons almost exclusively about
integer splits of tensor axes, so the helpers here are all about divisors,
rounding and factorization enumeration.  Keeping them in one place makes the
search code readable and lets the property-based tests pin down their
invariants directly.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Iterator, Sequence


def prod(values: Iterable[int]) -> int:
    """Return the product of ``values`` (1 for an empty iterable)."""
    return math.prod(values)


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer ceiling division.

    Raises :class:`ValueError` for non-positive denominators because a
    partition factor of zero is always a bug in the caller.
    """
    if denominator <= 0:
        raise ValueError(f"denominator must be positive, got {denominator}")
    return -(-numerator // denominator)


def round_up(value: int, multiple: int) -> int:
    """Round ``value`` up to the nearest multiple of ``multiple``."""
    if multiple <= 0:
        raise ValueError(f"multiple must be positive, got {multiple}")
    return ceil_div(value, multiple) * multiple


def padded_length(length: int, parts: int) -> int:
    """Length of one part after padding ``length`` so ``parts`` divides it.

    This mirrors how a compiler pads a tensor axis so it can be split into
    ``parts`` equal pieces.  ``padded_length(10, 4) == 3`` because the axis is
    padded to 12 and each part holds 3 elements.
    """
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    return ceil_div(length, parts)


@lru_cache(maxsize=None)
def divisors(value: int) -> tuple[int, ...]:
    """Return all positive divisors of ``value`` in ascending order.

    Memoised: the plan search calls this per candidate (every temporal-factor
    enumeration and every factorization step), almost always with a small set
    of recurring sharing degrees, so the trial division runs once per distinct
    value.  The result is a tuple — callers share the cached object, and an
    immutable one cannot be poisoned by accident.
    """
    if value <= 0:
        raise ValueError(f"value must be positive, got {value}")
    small: list[int] = []
    large: list[int] = []
    candidate = 1
    while candidate * candidate <= value:
        if value % candidate == 0:
            small.append(candidate)
            if candidate != value // candidate:
                large.append(value // candidate)
        candidate += 1
    return tuple(small + large[::-1])


def candidate_splits(length: int, max_parts: int, *, dense: bool = False) -> list[int]:
    """Candidate partition counts for an axis of ``length`` elements.

    The complete space enumerates every integer in ``[1, min(length, max_parts)]``;
    that is what the paper counts as the *complete* search space.  For actual
    plan construction we restrict to a denser-but-still-manageable candidate
    set: all divisors of the axis length plus all powers of two, capped at
    ``min(length, max_parts)``.  Pass ``dense=True`` to get every integer.
    """
    if length <= 0:
        raise ValueError(f"length must be positive, got {length}")
    limit = min(length, max_parts) if max_parts > 0 else length
    if limit <= 0:
        return [1]
    if dense:
        return list(range(1, limit + 1))
    candidates = {d for d in divisors(length) if d <= limit}
    power = 1
    while power <= limit:
        candidates.add(power)
        power *= 2
    candidates.add(limit)
    return sorted(candidates)


def iter_factorizations(total: int, num_factors: int) -> Iterator[tuple[int, ...]]:
    """Yield every ordered tuple of ``num_factors`` positive ints whose product is ``total``.

    Used to enumerate how a fixed number of cores can be spread across the
    axes of an operator.
    """
    if total <= 0:
        raise ValueError(f"total must be positive, got {total}")
    if num_factors <= 0:
        raise ValueError(f"num_factors must be positive, got {num_factors}")
    if num_factors == 1:
        yield (total,)
        return
    for head in divisors(total):
        for tail in iter_factorizations(total // head, num_factors - 1):
            yield (head,) + tail


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into the inclusive range ``[low, high]``."""
    if low > high:
        raise ValueError(f"invalid clamp range [{low}, {high}]")
    return max(low, min(high, value))


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive ``values`` (used for speedup summaries)."""
    if not values:
        raise ValueError("geometric_mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric_mean requires positive values")
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))
