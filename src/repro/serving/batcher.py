"""Batch-size buckets of the compiled programs.

Batched graphs are compiled per batch size, so the serving engines
**bucket** batch sizes to powers of two: a batch of 5 requests runs the
batch-8 program with 3 padded slots.  Bucketing bounds the number of
distinct programs the plan cache must hold per model (log2(max_batch) + 1
instead of max_batch).
"""

from __future__ import annotations


def batch_buckets(max_batch_size: int) -> tuple[int, ...]:
    """The padded batch sizes compiled for one model: 1, 2, 4, ... max."""
    if max_batch_size < 1:
        raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
    buckets = []
    size = 1
    while size < max_batch_size:
        buckets.append(size)
        size *= 2
    buckets.append(max_batch_size)
    return tuple(buckets)


def bucket_for(batch_size: int, max_batch_size: int) -> int:
    """Smallest bucket that holds ``batch_size`` requests.

    Raises :class:`ValueError` for an empty/negative batch (there is no
    bucket to run it on — previously ``batch_size=0`` silently mapped to
    bucket 1, compiling a program for a batch that does not exist) and for a
    batch exceeding ``max_batch_size`` (no compiled bucket can hold it).
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if batch_size > max_batch_size:
        raise ValueError(
            f"batch of {batch_size} exceeds max_batch_size={max_batch_size}: "
            f"no compiled bucket can hold it"
        )
    # The next power of two, capped at the last bucket (max_batch_size).
    return min(1 << (batch_size - 1).bit_length(), max_batch_size)
