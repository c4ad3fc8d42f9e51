"""Parallel compilation engine: fan intra-op searches out over forked workers.

The intra-operator Pareto search of §4.3.1 is a pure function of the operator
signature, the chip, the cost model and the search constraints — searches of
distinct operators share no state, which makes whole-graph compilation an
embarrassingly parallel fan-out.  This module provides the three pieces the
rest of the system builds on:

* :class:`ParallelCompilationEngine` — de-duplicates the operators of a
  list of graphs by signature, dispatches each unique search to ``jobs``
  worker processes (forked once and shared by every engine of the process)
  or searches them inline as one batch, and merges results back **in graph
  order**, graph after graph, so the output is bit-for-bit identical to
  serial compiles of the graphs one by one (same plan ordering, same error
  on the same operator, same per-graph search accounting);
* :class:`SingleFlight` — a per-key in-flight guard; concurrent callers of
  the same key run the underlying function exactly once and all receive its
  result.  The serving plan cache uses it so concurrent cache misses for one
  fingerprint compile once;
* :func:`resolve_jobs` / :func:`default_jobs` — the shared ``jobs=None``
  (auto) policy.

Determinism guarantee: for fixed (graphs, chip, cost model, constraints),
``search_graphs`` returns the same frontiers in the same order for every
``jobs`` value, forked or inline, because each per-signature search is
deterministic and the merge step re-imposes graph order regardless of
completion order.
"""

from __future__ import annotations

import gc
import itertools
import multiprocessing
import os
import pickle
import signal
import threading
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from multiprocessing.process import BaseProcess
from typing import Any, Callable, Sequence

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
from repro.obs.trace import get_tracer, set_tracer


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
    expected to consult its own cache first).  :meth:`join`, :meth:`wait`
    and :meth:`finish` are its steps, for a caller that leads several keys
    at once (the plan cache's batched lookups): it finishes every call it
    leads before it waits on another's, so two such callers never wait on
    each other.
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
        call, leader = self.join(key)
        if not leader:
            return self.wait(call), False
        try:
            value = fn()
        except BaseException as exc:
            self.finish(key, call, exception=exc)
            raise
        self.finish(key, call, value)
        return value, True

    def join(self, key: Any) -> tuple[_InFlightCall, bool]:
        """Join the call of ``key``: ``(call, True)`` when the caller leads
        it (and must :meth:`finish` it), ``(call, False)`` when another
        caller does (:meth:`wait` for its result)."""
        with self._lock:
            call = self._calls.get(key)
            if call is None:
                call = self._calls[key] = _InFlightCall()
                return call, True
        return call, False

    @staticmethod
    def wait(call: _InFlightCall) -> Any:
        """The result of a call led by another caller, or its exception."""
        call.event.wait()
        if call.exception is not None:
            raise call.exception
        return call.value

    def finish(
        self,
        key: Any,
        call: _InFlightCall,
        value: Any = None,
        exception: BaseException | None = None,
    ) -> None:
        """Publish a led call's result (or exception) and forget the key."""
        call.value = value
        call.exception = exception
        call.event.set()
        with self._lock:
            self._calls.pop(key, None)


# --------------------------------------------------------------------------- #
# Process workers, forked once per process
# --------------------------------------------------------------------------- #
def _search_task(
    optimizer: IntraOpOptimizer, operator: Operator
) -> tuple[list[PlanSketch | OperatorPlan], SearchSpaceStats | None, str | None]:
    """Search one operator in a worker process.

    Returns ``(members, stats, error)``: the frontier's members travel back
    as sketches, unbuilt (library-fallback plans excepted), and the parent
    builds the ones its schedule picks.  Search failures that the serial
    compiler treats as an OOM diagnosis travel back as the error string
    instead of crossing the process boundary as exceptions.
    """
    try:
        frontier, stats = optimizer.search_frontier(operator)
    except (OutOfChipMemoryError, ValueError) as error:
        return [], None, str(error)
    return list(frontier.members), stats, None


def _worker_main(conn: Connection, inherited: list[Connection]) -> None:
    """Serve searches on ``conn`` until the parent hangs up.

    A task is ``(engine_token, setup, operator)``.  ``setup`` is the pickled
    ``(chip, cost_model, constraints)`` of the engine, sent with an engine's
    first task on this worker only (``None`` afterwards).  Each engine gets
    a fresh optimizer, so a worker never answers one engine's search from
    another's cache.
    """
    # The heap inherited from the parent stays out of this process's
    # collections: walking it would write to every inherited object and so
    # copy the parent's pages (copy-on-write), which made a fresh worker's
    # first searches slower.
    gc.freeze()
    for other in inherited:
        # The parent's ends of this and the other workers' pipes: holding
        # them would keep the workers alive after the parent dies.
        other.close()
    # Worker processes never trace: their events could not reach the parent.
    set_tracer(None)
    # A Ctrl-C reaches the whole process group; the parent handles it and
    # stops the workers it was waiting on.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    token: int | None = None
    optimizer: IntraOpOptimizer | None = None
    while True:
        try:
            message = conn.recv_bytes()
        except (EOFError, OSError):
            return
        try:
            task_token, setup, operator = pickle.loads(message)
            if task_token != token:
                optimizer = IntraOpOptimizer(*pickle.loads(setup))
                token = task_token
            assert optimizer is not None
            reply: Any = _search_task(optimizer, operator)
        except Exception as error:  # travels back and is re-raised there
            reply = error
        try:
            conn.send(reply)
        except Exception as error:  # the reply itself did not pickle
            conn.send(RuntimeError(f"compile worker reply failed: {error!r}"))


@dataclass
class _Worker:
    """One forked search process and the parent's end of its pipe."""

    process: BaseProcess
    conn: Connection
    token: int | None = None
    """Engine whose setup this worker holds (see :func:`_worker_main`)."""
    cpu: int | None = None
    """The CPU this worker is pinned to (``None``: not pinned)."""

    def pin(self, cpu: int) -> None:
        """Keep this worker on ``cpu`` (see :func:`_allowed_cpus`)."""
        if self.cpu == cpu:
            return
        try:
            os.sched_setaffinity(self.process.pid, {cpu})
        except OSError:  # the worker died; its next reply says so
            return
        self.cpu = cpu


def _largest_first(pending: dict[tuple, Operator]) -> dict[tuple, Operator]:
    """``pending`` in dispatch order: most axes first, ties in graph order.

    A search enumerates partitions of the cores over the operator's axes, so
    its work grows steeply with their number (BERT-large: 7-10k candidates
    for its 3- and 4-axis contractions, at most 257 for its 2-axis
    element-wise and normalization operators).  Sending the longest searches
    first keeps one of them from starting last (Graham's LPT rule).
    """
    return dict(sorted(pending.items(), key=lambda item: -len(item[1].expr.axes)))


def _allowed_cpus() -> list[int]:
    """The CPUs a fan-out spreads its workers over (``[]``: do not pin).

    The worker at position ``i`` of one fan-out is pinned to the ``i``-th
    CPU this process may run on (modulo their number); it stays there until
    a later fan-out puts it at another position.  Unpinned, the workers of a
    fan-out, forked or reused, can share the parent's CPU while another CPU
    idles, and the load balancer spreads them only after a compile of
    ~0.1 s is over.  On a 2-vCPU host two forked 0.1 s loops took 1.9-2.3x
    the time of one unpinned and 1.1x pinned apart.
    """
    if not hasattr(os, "sched_setaffinity"):
        return []
    cpus = sorted(os.sched_getaffinity(0))
    return cpus if len(cpus) > 1 else []


class _ProcessWorkers:
    """The process's search workers: forked on first need, then reused.

    Forking a worker costs milliseconds, and its first searches run slower
    while it copies the parent's pages it touches; a pool forked per compile
    paid both on every compile.  Here every engine checks idle workers out
    for one fan-out and returns them, and forks only when it needs more
    than are idle.  The parent side runs no helper thread (a
    :class:`~concurrent.futures.ProcessPoolExecutor` runs two), so while
    workers live the fork-safety test (:func:`_fork_is_safe`) still sees
    only the caller's threads.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: list[_Worker] = []
        self._all: list[_Worker] = []

    def checkout(self, count: int) -> list[_Worker]:
        """Up to ``count`` live idle workers."""
        with self._lock:
            for worker in [w for w in self._idle if not w.process.is_alive()]:
                self._drop(worker)
            taken, self._idle = self._idle[:count], self._idle[count:]
            return taken

    def fork(self) -> _Worker:
        """A new worker, checked out to the caller."""
        with self._lock:
            parent_end, child_end = multiprocessing.Pipe()
            inherited = [worker.conn for worker in self._all] + [parent_end]
            process = multiprocessing.get_context("fork").Process(
                target=_worker_main,
                args=(child_end, inherited),
                name="t10-compile",
                daemon=True,
            )
            process.start()
            child_end.close()
            worker = _Worker(process, parent_end)
            self._all.append(worker)
            return worker

    def checkin(self, workers: list[_Worker]) -> None:
        """Return workers that have no reply pending."""
        with self._lock:
            self._idle.extend(workers)

    def discard(self, workers: list[_Worker]) -> None:
        """Stop workers whose state is unknown (reply pending, or dead)."""
        with self._lock:
            for worker in workers:
                worker.process.terminate()
                self._drop(worker)

    def _drop(self, worker: _Worker) -> None:
        worker.conn.close()
        worker.process.join(timeout=5)
        self._all.remove(worker)


#: Daemon processes: they are stopped when the interpreter exits.
_WORKERS = _ProcessWorkers()

#: Distinguishes engines to the workers they share (see :func:`_worker_main`).
_ENGINE_TOKENS = itertools.count()


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


class GraphBatch:
    """The graphs of one :meth:`ParallelCompilationEngine.search_graphs`
    call and the state their searches share."""

    def __init__(self, graphs: Sequence[OperatorGraph]) -> None:
        self.graphs = list(graphs)
        self.uniques: list[dict[tuple, Operator]] = []
        """Each graph's operators by signature (first occurrence), in order."""
        self.fresh: dict[tuple, Operator] | None = None
        """The signatures the fan-out searched; ``None`` before it ran."""
        self.errors: dict[tuple, str] = {}
        """The error of each signature whose search failed."""
        self.claimed: set[tuple] = set()
        """Fresh signatures a graph merged so far searched."""
        self.merged = 0
        """Graphs merged so far."""


def _searched(
    operator: Operator, intra_op: IntraOpOptimizer, errors: dict[tuple, str]
) -> tuple[PlanFrontier, SearchSpaceStats] | None:
    """``operator``'s search result, searching it when none is cached; on
    failure its error goes to ``errors`` and the result is ``None``."""
    cached = intra_op.peek(operator.signature())
    if cached is not None:
        return cached
    try:
        return intra_op.search_frontier(operator)
    except (OutOfChipMemoryError, ValueError) as error:
        errors[operator.signature()] = str(error)
        return None


class ParallelCompilationEngine:
    """Fan the intra-op plan searches of graphs out over ``jobs`` forked workers.

    The workers are processes shared by every engine of the process and kept
    between compiles (:class:`_ProcessWorkers`); at most ``jobs`` of them
    search for one fan-out, one operator per task, which gives the
    pure-Python search true CPU parallelism.  The graphs search inline
    instead, as one batch (:meth:`IntraOpOptimizer.search_many
    <repro.core.intra_op.IntraOpOptimizer.search_many>`) — the serial
    compiler's own path — when ``jobs=1``, when they need at most one fresh
    search, when other threads run (:func:`_fork_is_safe`) or when the
    engine's setup does not pickle (:meth:`_worker_setup`).
    """

    def __init__(
        self,
        chip: ChipSpec,
        cost_model: CostModel,
        constraints: SearchConstraints,
        *,
        jobs: int | None = 1,
    ) -> None:
        self.chip = chip
        self.cost_model = cost_model
        self.constraints = constraints
        self.jobs = resolve_jobs(jobs)
        self._token = next(_ENGINE_TOKENS)
        self._setup: bytes | None = None

    def _worker_setup(self) -> bytes | None:
        """The pickled ``(chip, cost_model, constraints)`` workers receive.

        Workers outlive the engine, so its setup travels to them pickled;
        ``None`` when it does not pickle (say, a cost model with a custom
        cost function defined in a closure).  Pickled once per engine.
        """
        if self._setup is None:
            try:
                self._setup = pickle.dumps((self.chip, self.cost_model, self.constraints))
            except (pickle.PicklingError, AttributeError, TypeError):
                self._setup = b""
        return self._setup or None

    def _fan_out_path(self, pending: dict[tuple, Operator]) -> str:
        """``"process"`` when ``pending`` goes to forked workers, else ``"inline"``."""
        forks = (
            self.jobs > 1
            and len(pending) > 1
            and _fork_is_safe()
            and self._worker_setup() is not None
        )
        return "process" if forks else "inline"

    # ------------------------------------------------------------------ #
    # Graph search
    # ------------------------------------------------------------------ #
    def search_graph(
        self,
        graph: OperatorGraph,
        intra_op: IntraOpOptimizer,
        batch: GraphBatch | None = None,
    ) -> GraphSearchResult:
        """Search every operator of ``graph``, reusing ``intra_op``'s caches.

        ``batch`` is the :meth:`search_graphs` batch ``graph`` is the next
        graph of; alone, the graph is a batch of one.  The batch's one
        fan-out runs in its first graph's call and each call merges its own
        graph, so every graph's search is one call of this method (the name
        t10bench's layer shims time).
        """
        if batch is None:
            batch = GraphBatch([graph])
        assert graph is batch.graphs[batch.merged], "graphs are merged in batch order"
        if batch.fresh is None:
            self._fan_out(batch, intra_op)
        result = self._merge(graph, batch, intra_op)
        batch.merged += 1
        if batch.merged == len(batch.graphs):
            for signature in batch.fresh.keys() - batch.claimed:
                intra_op.forget(signature)
        return result

    def search_graphs(
        self, graphs: Sequence[OperatorGraph], intra_op: IntraOpOptimizer
    ) -> list[GraphSearchResult]:
        """Search every operator of ``graphs`` in one fan-out, reusing
        ``intra_op``'s caches.

        The result of each graph is the one searching the graphs one by one,
        in order, would give: a fresh search is attributed to the first
        graph that would have run it, and a graph's searches stop at its
        first failing operator.  A search no graph claims that way (one
        behind an earlier failure) is dropped from the cache.  Results
        (including worker-computed ones) are seeded back into ``intra_op``
        so later compiles — serial or parallel — hit the cache.
        """
        batch = GraphBatch(graphs)
        return [self.search_graph(graph, intra_op, batch) for graph in batch.graphs]

    def _fan_out(self, batch: GraphBatch, intra_op: IntraOpOptimizer) -> None:
        """Search every signature of ``batch`` not cached yet in one fan-out."""
        fresh: dict[tuple, Operator] = {}
        for graph in batch.graphs:
            unique: dict[tuple, Operator] = {}
            for operator in graph.operators:
                unique.setdefault(operator.signature(), operator)
            batch.uniques.append(unique)
            for signature, operator in unique.items():
                if signature not in fresh and intra_op.peek(signature) is None:
                    fresh[signature] = operator
        batch.fresh = fresh
        path = self._fan_out_path(fresh)
        # The fan-out span covers dispatch plus the wait for every worker;
        # the searches emit their own spans on the inline path only
        # (process workers run with the disabled tracer, so their spans are
        # deliberately absent from traces).
        with get_tracer().wall_span(
            "search-fan-out",
            track="compiler/graph",
            cat="compile",
            graph=",".join(graph.name for graph in batch.graphs),
            path=path,
            jobs=self.jobs,
            dispatched=len(fresh),
        ):
            if path == "process":
                self._search_processes(_largest_first(fresh), intra_op, batch.errors)
            else:
                for signature, error in intra_op.search_many(fresh.values()).items():
                    batch.errors[signature] = str(error)

    def _merge(
        self, graph: OperatorGraph, batch: GraphBatch, intra_op: IntraOpOptimizer
    ) -> GraphSearchResult:
        """``graph``'s result, as compiling it after the batch's graphs before it.

        Alone, the graph would search its fresh signatures no earlier graph
        searched (``batch.claimed``), in graph order, stopping at the first
        that fails; this claims them and counts their search effort.  Then
        the graph is walked in order, exactly like the serial compiler,
        stopping at the first infeasible operator.  A signature with no
        cached result — one the fan-out left unsearched (it stops early once
        any operator errors), or one another thread's batch dropped — is
        searched inline here.
        """
        unique = batch.uniques[batch.merged]
        errors = batch.errors
        pending = [
            (signature, operator)
            for signature, operator in unique.items()
            if signature in batch.fresh and signature not in batch.claimed
        ]
        result = GraphSearchResult(unique_operators=len(unique), dispatched=len(pending))
        for signature, operator in pending:
            cached = None if signature in errors else _searched(operator, intra_op, errors)
            if cached is None:
                break
            batch.claimed.add(signature)
            _, stats = cached
            result.sketched_candidates += stats.sketched
            result.evaluated_candidates += stats.evaluated
            if operator.expr.library_fallback:
                result.materialized_plans += stats.materialized

        for operator in graph.operators:
            signature = operator.signature()
            cached = None if signature in errors else _searched(operator, intra_op, errors)
            if cached is None:
                error = errors[signature]
            else:
                frontier, stats = cached
                error = (
                    None
                    if len(frontier)
                    else str(infeasible_plan_error(operator.name, self.chip.name))
                )
            if error is not None:
                result.failed_op = operator.name
                result.error = error
                return result
            result.frontiers[operator.name] = frontier
            result.stats[operator.name] = stats
        return result

    # ------------------------------------------------------------------ #
    def _search_processes(
        self,
        pending: dict[tuple, Operator],
        intra_op: IntraOpOptimizer,
        errors: dict[tuple, str],
    ) -> None:
        assert self._worker_setup() is not None
        limit = min(self.jobs, len(pending))
        idle = _WORKERS.checkout(limit)
        cpus = _allowed_cpus()
        if cpus:
            for position, worker in enumerate(idle):
                worker.pin(cpus[position % len(cpus)])
        owned = len(idle)
        tasks = list(pending.items())
        replies: list[Any] = [None] * len(tasks)
        busy: dict[Connection, tuple[_Worker, int]] = {}
        sent = 0
        stop = False
        failure: BaseException | None = None
        try:
            # Keep at most ``jobs`` searches in flight, handing the next
            # operator (``pending`` order) to whichever worker answers
            # first; a worker forked here starts searching before the next
            # one is forked.  Once a search errors nothing more is sent: the
            # graph-order merge searches what was not sent and stops at the
            # first failure.
            while busy or (sent < len(tasks) and not stop):
                while sent < len(tasks) and not stop and (idle or owned < limit):
                    if idle:
                        worker = idle.pop()
                    else:
                        worker = _WORKERS.fork()
                        if cpus:
                            worker.pin(cpus[owned % len(cpus)])
                        owned += 1
                    busy[worker.conn] = (worker, sent)
                    setup = None if worker.token == self._token else self._setup
                    worker.conn.send((self._token, setup, tasks[sent][1]))
                    worker.token = self._token
                    sent += 1
                for conn in wait(list(busy)):
                    worker, index = busy.pop(conn)
                    try:
                        reply = conn.recv()
                    except EOFError:
                        busy[conn] = (worker, index)
                        raise BrokenProcessPool("a compile worker died") from None
                    idle.append(worker)
                    if isinstance(reply, BaseException):
                        failure = failure or reply
                        stop = True
                    else:
                        replies[index] = reply
                        stop = stop or reply[2] is not None
        except BaseException:
            _WORKERS.discard([worker for worker, _ in busy.values()])
            raise
        finally:
            _WORKERS.checkin(idle)
        if failure is not None:
            raise failure
        # Every operator dispatched before the first failure was sent, and
        # all sent searches have answered: seed them in dispatch order.  An
        # operator the failure kept from being sent is searched by the
        # graph-order merge, which attributes the failure.
        for (signature, operator), reply in zip(tasks, replies):
            members, stats, error = reply
            if error is not None:
                errors[signature] = error
                return
            assert stats is not None
            intra_op.seed(operator, members, stats)


def _fork_is_safe() -> bool:
    """Whether this process may fork a worker now.

    Forking a multithreaded process can copy arbitrary held locks into the
    child and deadlock it (and is deprecated on newer CPythons); the plan
    cache is thread-safe, so a caller may compile from several threads.
    """
    fork_ok = "fork" in multiprocessing.get_all_start_methods()
    return fork_ok and threading.active_count() == 1
