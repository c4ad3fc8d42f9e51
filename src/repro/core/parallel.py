"""Parallel compilation engine: fan intra-op searches out over worker pools.

The intra-operator Pareto search of §4.3.1 is a pure function of the operator
signature, the chip, the cost model and the search constraints — searches of
distinct operators share no state, which makes whole-graph compilation an
embarrassingly parallel fan-out.  This module provides the three pieces the
rest of the system builds on:

* :class:`ParallelCompilationEngine` — de-duplicates a graph's operators by
  signature, dispatches each unique search to a process (or thread) pool of
  ``jobs`` workers, and merges results back **in graph order**, so the output
  is bit-for-bit identical to a serial compile (same plan ordering, same
  error on the same operator);
* :class:`SingleFlight` — a per-key in-flight guard; concurrent callers of
  the same key run the underlying function exactly once and all receive its
  result.  The serving plan cache uses it so concurrent cache misses for one
  fingerprint compile once;
* :func:`resolve_jobs` / :func:`default_jobs` — the shared ``jobs=None``
  (auto) policy.

Determinism guarantee: for a fixed (graph, chip, cost model, constraints),
``search_graph`` returns the same frontiers in the same order for every
``jobs`` value and backend, because each per-signature search is deterministic
and the merge step re-imposes graph order regardless of completion order.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.constraints import SearchConstraints
from repro.core.cost_model import CostModel
from repro.core.intra_op import (
    IntraOpOptimizer,
    SearchSpaceStats,
    infeasible_plan_error,
)
from repro.core.plan import OperatorPlan, PlanFrontier, PlanSketch
from repro.hw.memory import OutOfChipMemoryError
from repro.hw.spec import ChipSpec
from repro.ir.graph import OperatorGraph
from repro.ir.operator import Operator
from repro.obs.trace import get_tracer

#: Executor backends the engine can fan out over.
BACKENDS = ("auto", "process", "thread")


def default_jobs() -> int:
    """The ``jobs=None`` policy: up to four workers, bounded by the host."""
    return max(1, min(4, os.cpu_count() or 1))


def resolve_jobs(jobs: int | None) -> int:
    """Validate a ``jobs`` argument (``None`` means auto)."""
    if jobs is None:
        return default_jobs()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1 (or None for auto), got {jobs}")
    return jobs


# --------------------------------------------------------------------------- #
# Single-flight guard
# --------------------------------------------------------------------------- #
class _InFlightCall:
    """State shared between the leader and followers of one key."""

    __slots__ = ("event", "value", "exception")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Any = None
        self.exception: BaseException | None = None


class SingleFlight:
    """De-duplicate concurrent calls per key (cf. Go's ``singleflight``).

    ``do(key, fn)`` runs ``fn`` once per key among concurrent callers: the
    first caller (the *leader*) executes it while followers block and then
    receive the leader's result — or its exception.  Once a call completes,
    the key is forgotten, so later calls run ``fn`` again (the caller is
    expected to consult its own cache first).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._calls: dict[Any, _InFlightCall] = {}

    def in_flight(self, key: Any) -> bool:
        """Whether a call for ``key`` is currently executing."""
        with self._lock:
            return key in self._calls

    def do(self, key: Any, fn: Callable[[], Any]) -> tuple[Any, bool]:
        """Run ``fn`` once per key; returns ``(result, leader)``."""
        with self._lock:
            call = self._calls.get(key)
            if call is None:
                call = self._calls[key] = _InFlightCall()
                leader = True
            else:
                leader = False
        if not leader:
            call.event.wait()
            if call.exception is not None:
                raise call.exception
            return call.value, False
        try:
            call.value = fn()
            return call.value, True
        except BaseException as exc:
            call.exception = exc
            raise
        finally:
            call.event.set()
            with self._lock:
                self._calls.pop(key, None)


# --------------------------------------------------------------------------- #
# Worker-side machinery
# --------------------------------------------------------------------------- #
#: Per-process optimizer built once by the pool initializer; worker tasks are
#: pure, so the only state is the (deterministic) per-signature cache.
_WORKER_OPTIMIZER: IntraOpOptimizer | None = None


def _init_worker(
    chip: ChipSpec, cost_model: CostModel, constraints: SearchConstraints
) -> None:
    global _WORKER_OPTIMIZER
    _WORKER_OPTIMIZER = IntraOpOptimizer(chip, cost_model, constraints)


def _search_task(
    operator: Operator,
) -> tuple[list[PlanSketch | OperatorPlan], SearchSpaceStats | None, str | None]:
    """Search one operator in a worker process.

    Returns ``(members, stats, error)``: the frontier's members travel back
    as sketches, unbuilt (library-fallback plans excepted), and the parent
    builds the ones its schedule picks.  Search failures that the serial
    compiler treats as an OOM diagnosis travel back as the error string
    instead of crossing the process boundary as exceptions.
    """
    assert _WORKER_OPTIMIZER is not None, "worker pool not initialised"
    try:
        frontier, stats = _WORKER_OPTIMIZER.search_frontier(operator)
    except (OutOfChipMemoryError, ValueError) as error:
        return [], None, str(error)
    return list(frontier.members), stats, None


# --------------------------------------------------------------------------- #
# The engine
# --------------------------------------------------------------------------- #
@dataclass
class GraphSearchResult:
    """Outcome of searching every operator of one graph.

    ``frontiers``/``stats`` are keyed by operator name in graph order.  When
    an operator admits no feasible plan (or the search itself diagnoses an
    OOM), the dicts stop just before that operator — exactly the partial
    state a serial compile leaves behind — and ``failed_op``/``error``
    describe it.  Operators of one signature share one frontier object.
    """

    frontiers: dict[str, PlanFrontier] = field(default_factory=dict)
    stats: dict[str, SearchSpaceStats] = field(default_factory=dict)
    failed_op: str | None = None
    error: str | None = None
    unique_operators: int = 0
    dispatched: int = 0
    """Searches actually dispatched (unique signatures not already cached)."""
    sketched_candidates: int = 0
    """Candidates sketched across the dispatched (fresh) searches."""
    evaluated_candidates: int = 0
    """Feasible candidates across the dispatched searches (what the eager
    search would have materialized)."""
    materialized_plans: int = 0
    """Plans the dispatched searches built: the eagerly built library plans
    (every other frontier member stays a sketch until it is picked)."""

    @property
    def ok(self) -> bool:
        """Whether every operator produced a feasible frontier."""
        return self.error is None

    @property
    def pareto(self) -> dict[str, list[OperatorPlan]]:
        """The frontiers' plans, built on access (one list per frontier)."""
        return {name: frontier.plans() for name, frontier in self.frontiers.items()}


class ParallelCompilationEngine:
    """Fan a graph's intra-op plan searches out over ``jobs`` workers.

    The engine owns (lazily) one executor and can be shared by repeated
    compiles; ``close()`` releases the pool.  With ``jobs=1`` — or when a
    graph needs at most one fresh search — no pool is created and the search
    runs inline, so the serial path stays allocation-free.

    Backends:

    * ``"process"`` — a fork-based :class:`ProcessPoolExecutor`; true CPU
      parallelism for the pure-Python search (the default where ``fork`` is
      available);
    * ``"thread"`` — a :class:`ThreadPoolExecutor`; no extra processes, used
      as the portable fallback;
    * ``"auto"`` — ``process`` when available, else ``thread``.
    """

    def __init__(
        self,
        chip: ChipSpec,
        cost_model: CostModel,
        constraints: SearchConstraints,
        *,
        jobs: int | None = 1,
        backend: str = "auto",
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; known: {BACKENDS}")
        self.chip = chip
        self.cost_model = cost_model
        self.constraints = constraints
        self.jobs = resolve_jobs(jobs)
        self.backend = backend
        self._pool: Executor | None = None
        self._pool_backend: str | None = None
        self._pool_lock = threading.Lock()

    def _resolve_backend(self) -> str:
        """Pick the pool kind at creation time.

        ``auto`` prefers a fork-based process pool (true CPU parallelism for
        the pure-Python search) but falls back to threads when other threads
        are already running: forking a multithreaded process can copy
        arbitrary held locks into the child and deadlock it (and is
        deprecated on newer CPythons), and the serving path compiles from
        worker threads.  An explicit ``backend="process"`` is honoured as
        given.
        """
        if self.backend != "auto":
            return self.backend
        fork_ok = "fork" in multiprocessing.get_all_start_methods()
        if fork_ok and threading.active_count() == 1:
            return "process"
        return "thread"

    # ------------------------------------------------------------------ #
    # Pool lifecycle
    # ------------------------------------------------------------------ #
    def _executor(self) -> tuple[Executor, str]:
        with self._pool_lock:
            if self._pool is None:
                self._pool_backend = self._resolve_backend()
                if self._pool_backend == "process":
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.jobs,
                        mp_context=multiprocessing.get_context("fork"),
                        initializer=_init_worker,
                        initargs=(self.chip, self.cost_model, self.constraints),
                    )
                else:
                    self._pool = ThreadPoolExecutor(
                        max_workers=self.jobs,
                        thread_name_prefix="t10-compile",
                    )
            assert self._pool_backend is not None
            return self._pool, self._pool_backend

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
            self._pool_backend = None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ParallelCompilationEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown path
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # Graph search
    # ------------------------------------------------------------------ #
    def search_graph(
        self, graph: OperatorGraph, intra_op: IntraOpOptimizer
    ) -> GraphSearchResult:
        """Search every operator of ``graph``, reusing ``intra_op``'s caches.

        Results (including worker-computed ones) are seeded back into
        ``intra_op`` so later compiles — serial or parallel — hit the cache.
        """
        unique: dict[tuple, Operator] = {}
        for operator in graph.operators:
            unique.setdefault(operator.signature(), operator)
        pending = {
            signature: operator
            for signature, operator in unique.items()
            if intra_op.peek(signature) is None
        }

        errors: dict[tuple, str] = {}
        # The fan-out span covers dispatch plus the wait for every worker;
        # per-operator searches emit their own spans (inline and threaded
        # backends only — process workers run with the disabled tracer, so
        # their per-operator spans are deliberately absent from traces).
        with get_tracer().wall_span(
            "search-fan-out",
            track="compiler/graph",
            cat="compile",
            graph=graph.name,
            backend=self.backend,
            jobs=self.jobs,
            dispatched=len(pending),
        ):
            if len(pending) > 1 and self.jobs > 1:
                self._search_parallel(pending, intra_op, errors)
            else:
                self._search_inline(pending, intra_op, errors)

        # Deterministic merge: walk the graph in order, exactly like the
        # serial compiler, stopping at the first infeasible operator.  A
        # signature the fan-out skipped (the search phase stops early once
        # any operator errors) is searched inline here, so the failure is
        # always attributed to the first failing operator in graph order.
        result = GraphSearchResult(
            unique_operators=len(unique), dispatched=len(pending)
        )
        try:
            for operator in graph.operators:
                signature = operator.signature()
                error = errors.get(signature)
                if error is not None:
                    result.failed_op = operator.name
                    result.error = error
                    return result
                cached = intra_op.peek(signature)
                if cached is None:
                    try:
                        cached = intra_op.search_frontier(operator)
                    except (OutOfChipMemoryError, ValueError) as exc:
                        result.failed_op = operator.name
                        result.error = str(exc)
                        return result
                frontier, stats = cached
                if not len(frontier):
                    result.failed_op = operator.name
                    result.error = str(
                        infeasible_plan_error(operator.name, self.chip.name)
                    )
                    return result
                result.frontiers[operator.name] = frontier
                result.stats[operator.name] = stats
            return result
        finally:
            # Search-effort accounting over the fresh (deduplicated) searches
            # of this compile — in a ``finally`` so every return path,
            # including failed compiles, reports the work actually done
            # (inline merge searches included).  A signature an early error
            # left unsearched has no cache entry and contributes nothing.
            for signature, operator in pending.items():
                cached = intra_op.peek(signature)
                if cached is None:
                    continue
                _, stats = cached
                result.sketched_candidates += stats.sketched
                result.evaluated_candidates += stats.evaluated
                if operator.expr.library_fallback:
                    result.materialized_plans += stats.materialized

    # ------------------------------------------------------------------ #
    def _search_inline(
        self,
        pending: dict[tuple, Operator],
        intra_op: IntraOpOptimizer,
        errors: dict[tuple, str],
    ) -> None:
        for signature, operator in pending.items():
            try:
                intra_op.search_frontier(operator)
            except (OutOfChipMemoryError, ValueError) as error:
                # Stop at the first failure like the serial compiler did:
                # the merge discards everything after it anyway.
                errors[signature] = str(error)
                return

    def _search_parallel(
        self,
        pending: dict[tuple, Operator],
        intra_op: IntraOpOptimizer,
        errors: dict[tuple, str],
    ) -> None:
        pool, backend = self._executor()
        # Results are consumed in dispatch (= graph first-appearance) order,
        # so stopping at the first error mirrors the serial compiler: sigs
        # after the failure stay unsearched (the merge discards them anyway).
        # Still-queued searches are cancelled so a failing compile neither
        # burns the pool on doomed work nor makes close() wait for it.
        if backend == "process":
            futures = [
                pool.submit(_search_task, operator) for operator in pending.values()
            ]
            for index, ((signature, operator), future) in enumerate(
                zip(pending.items(), futures)
            ):
                members, stats, error = future.result()
                if error is not None:
                    errors[signature] = error
                    for queued in futures[index + 1 :]:
                        queued.cancel()
                    return
                assert stats is not None
                intra_op.seed(operator, members, stats)
        else:
            # Threads write straight into the shared optimizer cache; each
            # completed search is published as one atomic dict assignment.
            def task(operator: Operator) -> None:
                try:
                    intra_op.search_frontier(operator)
                except (OutOfChipMemoryError, ValueError) as error:
                    errors[operator.signature()] = str(error)

            futures = [pool.submit(task, operator) for operator in pending.values()]
            for index, future in enumerate(futures):
                future.result()
                if errors:
                    for queued in futures[index + 1 :]:
                        queued.cancel()
                    return
