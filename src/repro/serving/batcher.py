"""Admission queue with dynamic batching.

Requests for the same model are grouped into batches the way production
inference servers do it (Triton/vLLM-style "dynamic batching"): a batch is
closed either when it reaches the maximum batch size or when the oldest
request in it has waited for the configured **batch window**.  A longer
window trades latency for larger batches (higher throughput) — exactly the
knob the fig25 serving experiment sweeps.

Batched graphs are compiled per batch size, so the batcher also **buckets**
batch sizes to powers of two: a batch of 5 requests runs the batch-8 program
with 3 padded slots.  Bucketing bounds the number of distinct programs the
plan cache must hold per model (log2(max_batch) + 1 instead of max_batch).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from repro.serving.request import InferenceRequest


@dataclass
class ReplayStats:
    """Queue statistics of one :meth:`DynamicBatcher.batches` replay.

    Stats are local to the replay that produced them (not batcher instance
    state), so creating a new replay never clobbers the numbers of a
    previous one.  Samples accumulate as the replay is consumed; the
    properties reflect whatever has been consumed so far.
    """

    queue_depth_samples: list[int] = field(default_factory=list)
    """Pending-request count sampled at every arrival."""

    @property
    def max_queue_depth(self) -> int:
        """Deepest the admission queue got during the replay."""
        return max(self.queue_depth_samples, default=0)

    @property
    def mean_queue_depth(self) -> float:
        """Average queue depth sampled at arrivals during the replay."""
        if not self.queue_depth_samples:
            return 0.0
        return sum(self.queue_depth_samples) / len(self.queue_depth_samples)


class BatchReplay(Iterator["Batch"]):
    """Dispatch-ordered batch iterator carrying its own :class:`ReplayStats`."""

    def __init__(self, generator: Iterator["Batch"], stats: ReplayStats) -> None:
        self._generator = generator
        self.stats = stats

    def __iter__(self) -> "BatchReplay":
        return self

    def __next__(self) -> "Batch":
        return next(self._generator)


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


@dataclass(frozen=True)
class Batch:
    """A closed batch ready for placement on a worker."""

    batch_id: int
    model: str
    requests: tuple[InferenceRequest, ...]
    dispatch_time: float
    """Virtual time at which the batcher closed the batch."""
    padded_size: int
    """Bucketed batch size the graph is built/compiled for."""

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def padding(self) -> int:
        """Wasted slots in the bucketed batch."""
        return self.padded_size - len(self.requests)


@dataclass
class _PendingQueue:
    """Requests of one model waiting to be batched."""

    requests: list[InferenceRequest] = field(default_factory=list)

    @property
    def deadline(self) -> float:
        """When the oldest pending request forces the batch closed."""
        return self.requests[0].arrival_time

    def __len__(self) -> int:
        return len(self.requests)


class DynamicBatcher:
    """Groups an arrival-ordered request stream into per-model batches.

    The batcher runs in virtual time: :meth:`batches` replays the request
    stream and yields batches in dispatch order.  Queue-depth statistics are
    sampled at every arrival and attached to the returned replay — each
    replay owns its stats, so a batcher can be reused across workloads.
    """

    def __init__(
        self,
        *,
        max_batch_size: int | Mapping[str, int] = 8,
        batch_window: float = 2e-3,
    ) -> None:
        if isinstance(max_batch_size, int):
            if max_batch_size < 1:
                raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        elif any(size < 1 for size in max_batch_size.values()):
            raise ValueError(f"max_batch_size entries must be >= 1, got {max_batch_size}")
        if batch_window < 0:
            raise ValueError(f"batch_window must be >= 0, got {batch_window}")
        self.max_batch_size = max_batch_size
        self.batch_window = batch_window

    def max_batch_for(self, model: str) -> int:
        """The batch-size cap applying to one model."""
        if isinstance(self.max_batch_size, int):
            return self.max_batch_size
        if model not in self.max_batch_size:
            raise KeyError(f"no max_batch_size configured for model {model!r}")
        return self.max_batch_size[model]

    # ------------------------------------------------------------------ #
    def batches(self, requests: Sequence[InferenceRequest]) -> BatchReplay:
        """Dispatch-ordered batches for an arrival-ordered request stream.

        Returns a :class:`BatchReplay`: iterate it for the batches, read its
        ``stats`` for the queue-depth statistics of *this* replay.
        """
        stats = ReplayStats()
        return BatchReplay(self._replay(requests, stats), stats)

    def _replay(
        self, requests: Sequence[InferenceRequest], stats: ReplayStats
    ) -> Iterator[Batch]:
        ordered = sorted(requests, key=lambda req: (req.arrival_time, req.request_id))
        pending: dict[str, _PendingQueue] = {}
        next_batch_id = 0

        def close(model: str, when: float) -> Batch:
            nonlocal next_batch_id
            queue = pending.pop(model)
            batch = Batch(
                batch_id=next_batch_id,
                model=model,
                requests=tuple(queue.requests),
                dispatch_time=when,
                padded_size=bucket_for(len(queue.requests), self.max_batch_for(model)),
            )
            next_batch_id += 1
            return batch

        def expired(now: float) -> list[tuple[float, str]]:
            """(deadline, model) pairs whose window elapsed by ``now``."""
            out = [
                (queue.deadline + self.batch_window, model)
                for model, queue in pending.items()
                if queue.deadline + self.batch_window <= now
            ]
            return sorted(out)

        for request in ordered:
            # Flush every batch whose window expired before this arrival.
            for deadline, model in expired(request.arrival_time):
                yield close(model, deadline)
            queue = pending.setdefault(request.model, _PendingQueue())
            queue.requests.append(request)
            stats.queue_depth_samples.append(sum(len(q) for q in pending.values()))
            if len(queue) >= self.max_batch_for(request.model):
                yield close(request.model, request.arrival_time)
        # Drain whatever is still pending, in deadline order.
        for model in sorted(pending, key=lambda name: pending[name].deadline):
            yield close(model, pending[model].deadline + self.batch_window)
