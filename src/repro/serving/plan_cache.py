"""Content-addressed cache of compiled device programs.

Compiling a model is orders of magnitude slower than serving one batch, so a
serving system must compile each ``(graph, chip, constraints)`` combination
exactly once and reuse the program forever (cf. TensorRT engine caches).  The
cache is keyed by the stable fingerprints introduced on
:meth:`~repro.ir.graph.OperatorGraph.fingerprint`,
:meth:`~repro.hw.spec.ChipSpec.fingerprint` and
:meth:`~repro.core.constraints.SearchConstraints.fingerprint`, and has two
tiers:

* an **in-memory tier** (dict) serving the steady state, and
* an optional **on-disk tier** (one pickle per program) surviving process
  restarts, so a redeployed server never recompiles either.

All entry points are thread-safe: a
:class:`~repro.core.parallel.SingleFlight` guard guarantees a program is
compiled at most once even when many threads miss on the same key
simultaneously.
"""

from __future__ import annotations

import pickle
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.core.compiler import CompiledModel, T10Compiler, default_cost_model
from repro.core.constraints import DEFAULT_CONSTRAINTS, SearchConstraints
from repro.core.parallel import SingleFlight
from repro.hw.spec import ChipSpec
from repro.ir.graph import OperatorGraph
from repro.obs.trace import DOMAIN_WALL, Tracer, get_tracer

#: How a cache lookup was satisfied.
HIT_MEMORY = "hit-memory"
HIT_DISK = "hit-disk"
COMPILE = "compile"


def plan_key(
    graph: OperatorGraph,
    chip: ChipSpec,
    constraints: SearchConstraints = DEFAULT_CONSTRAINTS,
    *,
    scope: str = "",
) -> str:
    """Content-addressed cache key for one compilation.

    ``scope`` namespaces the entry beyond the content fingerprints — the
    multi-chip sharding layer passes its stage slice (e.g. ``stage2of4``) so
    each pipeline stage's plan is cached independently of structurally
    identical stages and of the unsharded graph.
    """
    key = f"{graph.fingerprint()}-{chip.fingerprint()}-{constraints.fingerprint()}"
    return f"{key}-{scope}" if scope else key


@dataclass
class CacheStats:
    """Counters describing how the cache behaved."""

    hits_memory: int = 0
    hits_disk: int = 0
    misses: int = 0
    compile_seconds: float = 0.0
    """Wall-clock seconds spent compiling on misses."""
    saved_seconds: float = 0.0
    """Compile seconds avoided by hits (each hit saves the original compile time)."""
    sketched_candidates: int = 0
    """Plan candidates sketched across the compiles this cache ran."""
    materialized_plans: int = 0
    """Plan candidates fully built across those compiles (the streaming
    search's pruning keeps this far below ``sketched_candidates``)."""

    @property
    def lookups(self) -> int:
        """Total number of cache lookups."""
        return self.hits_memory + self.hits_disk + self.misses

    @property
    def hits(self) -> int:
        """Lookups satisfied without compiling."""
        return self.hits_memory + self.hits_disk

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups satisfied without compiling."""
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "CacheStats":
        """Copy of the current counters."""
        return CacheStats(
            hits_memory=self.hits_memory,
            hits_disk=self.hits_disk,
            misses=self.misses,
            compile_seconds=self.compile_seconds,
            saved_seconds=self.saved_seconds,
            sketched_candidates=self.sketched_candidates,
            materialized_plans=self.materialized_plans,
        )

    def since(self, before: "CacheStats") -> "CacheStats":
        """Counters accumulated after the ``before`` snapshot was taken."""
        return CacheStats(
            hits_memory=self.hits_memory - before.hits_memory,
            hits_disk=self.hits_disk - before.hits_disk,
            misses=self.misses - before.misses,
            compile_seconds=self.compile_seconds - before.compile_seconds,
            saved_seconds=self.saved_seconds - before.saved_seconds,
            sketched_candidates=self.sketched_candidates - before.sketched_candidates,
            materialized_plans=self.materialized_plans - before.materialized_plans,
        )

    def as_dict(self) -> dict[str, float]:
        """Flat dict for tables and reports."""
        return {
            "lookups": self.lookups,
            "hits_memory": self.hits_memory,
            "hits_disk": self.hits_disk,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "compile_seconds": self.compile_seconds,
            "saved_seconds": self.saved_seconds,
            "sketched_candidates": self.sketched_candidates,
            "materialized_plans": self.materialized_plans,
        }


@dataclass
class CacheLookup:
    """Result of one ``get_or_compile`` call."""

    compiled: CompiledModel
    outcome: str
    """One of :data:`HIT_MEMORY`, :data:`HIT_DISK`, :data:`COMPILE`."""
    key: str
    seconds: float
    """Wall-clock seconds the lookup took (compile time on a miss)."""

    @property
    def hit(self) -> bool:
        """Whether the program was served without compiling."""
        return self.outcome != COMPILE


class LookupBatch:
    """The graphs of one :meth:`PlanCache.get_or_compile_many` call and
    their lookups, made together on the first graph's demand."""

    def __init__(self, graphs: Sequence[OperatorGraph]) -> None:
        self.graphs = list(graphs)
        self.lookups: list[CacheLookup] | None = None
        """The lookups in ``graphs`` order; ``None`` before they are made."""
        self.taken = 0
        """Lookups returned so far."""


class PlanCache:
    """Two-tier (memory + disk) cache of :class:`CompiledModel` programs."""

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        *,
        compiler_factory: Callable[[ChipSpec, SearchConstraints], T10Compiler] | None = None,
        jobs: int | None = 1,
    ) -> None:
        """``jobs`` is forwarded to compilers the cache builds itself (the
        default factory); a custom ``compiler_factory`` decides its own
        parallelism.  Compilers are memoised per (chip, constraints) so one
        intra-op plan cache serves all misses.
        """
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.jobs = jobs
        self._compiler_factory = compiler_factory or self._default_factory
        self._compilers: dict[tuple[str, str], T10Compiler] = {}
        self._memory: dict[str, CompiledModel] = {}
        self._scopes: dict[str, set[str]] = {}
        self._stats = CacheStats()
        self._tenant_stats: dict[str, CacheStats] = {}
        self._lock = threading.Lock()
        self._flight = SingleFlight()

    def _default_factory(
        self, chip: ChipSpec, constraints: SearchConstraints
    ) -> T10Compiler:
        return T10Compiler(
            chip,
            cost_model=default_cost_model(chip),
            constraints=constraints,
            jobs=self.jobs,
        )

    def _compiler_for(
        self, chip: ChipSpec, constraints: SearchConstraints
    ) -> T10Compiler:
        """The shared compiler for one (chip, constraints) target."""
        key = (chip.fingerprint(), constraints.fingerprint())
        with self._lock:
            compiler = self._compilers.get(key)
        if compiler is None:
            built = self._compiler_factory(chip, constraints)
            with self._lock:
                compiler = self._compilers.setdefault(key, built)
        return compiler

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> CacheStats:
        """Lookup counters (live object, not a snapshot)."""
        return self._stats

    @property
    def tenants(self) -> tuple[str, ...]:
        """Tenants that have attributed lookups, sorted."""
        with self._lock:
            return tuple(sorted(self._tenant_stats))

    def tenant_stats(self, tenant: str) -> CacheStats:
        """Snapshot of the lookups attributed to ``tenant``.

        Plans are shared — the cache key never includes the tenant — but
        every ``get_or_compile(..., tenant=...)`` call is *attributed*: the
        tenant whose lookup actually compiled owns the miss, later tenants
        reusing the same fingerprint own warm hits.  Tenants that never
        looked anything up report all-zero counters.
        """
        with self._lock:
            stats = self._tenant_stats.get(tenant)
            return stats.snapshot() if stats is not None else CacheStats()

    def _attribute(self, tenant: str, outcome: str, compiled: CompiledModel) -> None:
        """Fold one lookup outcome into the tenant's counters (lock held)."""
        if not tenant:
            return
        stats = self._tenant_stats.get(tenant)
        if stats is None:
            stats = self._tenant_stats[tenant] = CacheStats()
        if outcome == HIT_MEMORY:
            stats.hits_memory += 1
            stats.saved_seconds += compiled.compile_time_seconds
        elif outcome == HIT_DISK:
            stats.hits_disk += 1
            stats.saved_seconds += compiled.compile_time_seconds
        else:
            stats.misses += 1
            stats.compile_seconds += compiled.compile_time_seconds

    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._memory:
                return True
        path = self._disk_path(key)
        return path is not None and path.exists()

    def close(self) -> None:
        """Forget the memoised compilers and their intra-op search caches
        (idempotent); compiled programs stay cached."""
        with self._lock:
            self._compilers.clear()

    def evict_scope(self, prefix: str) -> int:
        """Drop every entry cached under scope ``prefix`` (both tiers).

        Matches the scope exactly or any ``prefix:...`` sub-scope — the
        sharding layer nests stage slices under the caller's scope, so
        evicting ``replica1-gen0`` also drops ``replica1-gen0:stage1of2``.
        Models a replica restart losing its local program store: the next
        lookup under that scope recompiles (a cache miss), which is exactly
        the cold-cache cost the fault layer wants to surface.  Returns the
        number of entries dropped.
        """
        if not prefix:
            raise ValueError("evict_scope needs a non-empty scope prefix")
        with self._lock:
            doomed: set[str] = set()
            for scope in list(self._scopes):
                if scope == prefix or scope.startswith(prefix + ":"):
                    doomed |= self._scopes.pop(scope)
            dropped = {key for key in doomed if self._memory.pop(key, None) is not None}
        for key in doomed:
            path = self._disk_path(key)
            if path is not None and path.exists():
                path.unlink()
                dropped.add(key)
        return len(dropped)

    # ------------------------------------------------------------------ #
    # Tiers
    # ------------------------------------------------------------------ #
    def _disk_path(self, key: str) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{key}.plan.pkl"

    def _load_disk(self, key: str) -> CompiledModel | None:
        path = self._disk_path(key)
        if path is None or not path.exists():
            return None
        try:
            with path.open("rb") as handle:
                compiled = pickle.load(handle)
        except Exception:
            # A corrupt or version-incompatible entry is just a miss; the
            # fresh compile below overwrites it.
            return None
        return compiled if isinstance(compiled, CompiledModel) else None

    def _store_disk(self, key: str, compiled: CompiledModel) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        tmp = path.with_suffix(".tmp")
        with tmp.open("wb") as handle:
            pickle.dump(compiled, handle, protocol=pickle.HIGHEST_PROTOCOL)
        tmp.replace(path)

    # ------------------------------------------------------------------ #
    # Main entry point
    # ------------------------------------------------------------------ #
    def _memory_hit(self, key: str, start: float, tenant: str = "") -> CacheLookup | None:
        with self._lock:
            compiled = self._memory.get(key)
            if compiled is None:
                return None
            self._stats.hits_memory += 1
            self._stats.saved_seconds += compiled.compile_time_seconds
            self._attribute(tenant, HIT_MEMORY, compiled)
        return CacheLookup(compiled, HIT_MEMORY, key, time.perf_counter() - start)

    def _trace_lookup(
        self, tracer: Tracer, lookup: CacheLookup, start: float, *, waited: bool = False
    ) -> None:
        """One wall-domain span per lookup, named by outcome; followers that
        rode on a leader's compile get a ``single-flight-wait`` span whose
        duration is exactly the time they blocked."""
        tracer.span(
            "single-flight-wait" if waited else lookup.outcome,
            ts=start - tracer.wall_origin,
            dur=lookup.seconds,
            track="cache/lookups",
            domain=DOMAIN_WALL,
            cat="cache",
            args={"outcome": lookup.outcome, "key": lookup.key[:16]},
        )
        outcome = "single-flight-wait" if waited else lookup.outcome
        tracer.metrics.counter(f"cache.{outcome}").inc()

    def get_or_compile(
        self,
        graph: OperatorGraph,
        chip: ChipSpec,
        constraints: SearchConstraints = DEFAULT_CONSTRAINTS,
        *,
        scope: str = "",
        tenant: str = "",
        batch: LookupBatch | None = None,
    ) -> CacheLookup:
        """Fetch the compiled program for ``graph`` on ``chip``, compiling on
        miss (see :meth:`get_or_compile_many`).

        ``batch`` is the :meth:`get_or_compile_many` batch ``graph`` is the
        next graph of; alone, the graph is a batch of one.  The batch's
        lookups are all made in its first graph's call, which compiles its
        misses together, and each call returns its own graph's lookup, so
        every lookup is one call of this method (the name t10bench's layer
        shims count).
        """
        if batch is None:
            batch = LookupBatch([graph])
        assert graph is batch.graphs[batch.taken], "lookups are taken in batch order"
        if batch.lookups is None:
            batch.lookups = self._look_up(batch.graphs, chip, constraints, scope, tenant)
        lookup = batch.lookups[batch.taken]
        batch.taken += 1
        return lookup

    def get_or_compile_many(
        self,
        graphs: Sequence[OperatorGraph],
        chip: ChipSpec,
        constraints: SearchConstraints = DEFAULT_CONSTRAINTS,
        *,
        scope: str = "",
        tenant: str = "",
    ) -> list[CacheLookup]:
        """Fetch the compiled program of each of ``graphs`` on ``chip``,
        compiling the misses in one batch.

        The lookups, counters and tenant attribution equal those of
        :meth:`get_or_compile` called on the graphs one by one, in order: a
        graph repeated in the list is a memory hit after its first lookup.
        The programs missing from both tiers are compiled by one
        ``compile_many`` call of the target's compiler; a compiled lookup's
        ``seconds`` are its program's ``compile_time_seconds`` plus its disk
        store.

        Failed compilations (OOM diagnoses) are cached too: retrying a model
        that cannot fit the chip would waste the same compile time every
        request.  Concurrent misses on one key are single-flighted: exactly
        one caller compiles, the rest receive its program as a memory hit.
        ``scope`` extends the keys (see :func:`plan_key`); ``tenant`` only
        *attributes* the lookups (see :meth:`tenant_stats`) — it never
        enters a key, which is exactly what lets tenants share plans.
        """
        batch = LookupBatch(graphs)
        return [
            self.get_or_compile(
                graph, chip, constraints, scope=scope, tenant=tenant, batch=batch
            )
            for graph in batch.graphs
        ]

    def _look_up(
        self,
        graphs: list[OperatorGraph],
        chip: ChipSpec,
        constraints: SearchConstraints,
        scope: str,
        tenant: str,
    ) -> list[CacheLookup]:
        """The lookups of :meth:`get_or_compile_many`, in ``graphs`` order."""
        keys = [plan_key(graph, chip, constraints, scope=scope) for graph in graphs]
        if scope:
            with self._lock:
                self._scopes.setdefault(scope, set()).update(keys)
        tracer = get_tracer()
        lookups: list[CacheLookup | None] = [None] * len(graphs)
        missing: dict[str, int] = {}  # key -> its first position
        for position, key in enumerate(keys):
            if key in missing:
                continue
            start = time.perf_counter()
            hit = self._memory_hit(key, start, tenant)
            if hit is None:
                missing[key] = position
                continue
            lookups[position] = hit
            if tracer.enabled:
                self._trace_lookup(tracer, hit, start)

        calls = {key: self._flight.join(key) for key in missing}
        led = [key for key, (_, leader) in calls.items() if leader]
        try:
            self._fill(led, missing, graphs, chip, constraints, tenant, lookups, tracer)
        except BaseException as error:
            for key in led:
                self._flight.finish(key, calls[key][0], exception=error)
            raise
        for key in led:
            self._flight.finish(key, calls[key][0], lookups[missing[key]].compiled)

        for key, (call, leader) in calls.items():
            if leader:
                continue
            # A follower rode on another caller's compile: by the time it
            # returns the program is resident, so the lookup counts as a
            # memory hit (with the follower's own wait time, which is how
            # the cost of riding shows up in serving latency).
            start = time.perf_counter()
            compiled = self._flight.wait(call)
            with self._lock:
                self._stats.hits_memory += 1
                self._stats.saved_seconds += compiled.compile_time_seconds
                self._attribute(tenant, HIT_MEMORY, compiled)
            followed = CacheLookup(compiled, HIT_MEMORY, key, time.perf_counter() - start)
            lookups[missing[key]] = followed
            if tracer.enabled:
                self._trace_lookup(tracer, followed, start, waited=True)

        for position, key in enumerate(keys):
            if lookups[position] is None:  # a repeat of an earlier miss
                start = time.perf_counter()
                lookups[position] = self._memory_hit(key, start, tenant)
                if tracer.enabled:
                    self._trace_lookup(tracer, lookups[position], start)
        return lookups

    def _fill(
        self,
        led: list[str],
        missing: dict[str, int],
        graphs: Sequence[OperatorGraph],
        chip: ChipSpec,
        constraints: SearchConstraints,
        tenant: str,
        lookups: list[CacheLookup | None],
        tracer: Tracer,
    ) -> None:
        """Serve the keys this caller leads from memory, disk or one batch
        compile, filling their ``lookups``."""
        compile_keys = []
        for key in led:
            # Re-check under the flight: we may have become leader just
            # after the previous leader published the entry.
            start = time.perf_counter()
            lookup = self._memory_hit(key, start, tenant)
            if lookup is None:
                compiled = self._load_disk(key)
                if compiled is None:
                    compile_keys.append(key)
                    continue
                with self._lock:
                    self._memory[key] = compiled
                    self._stats.hits_disk += 1
                    self._stats.saved_seconds += compiled.compile_time_seconds
                    self._attribute(tenant, HIT_DISK, compiled)
                lookup = CacheLookup(compiled, HIT_DISK, key, time.perf_counter() - start)
            lookups[missing[key]] = lookup
            if tracer.enabled:
                self._trace_lookup(tracer, lookup, start)
        if not compile_keys:
            return
        compiler = self._compiler_for(chip, constraints)
        batch = [graphs[missing[key]] for key in compile_keys]
        start = time.perf_counter()
        compile_many = getattr(compiler, "compile_many", None)
        if compile_many is not None:
            programs = compile_many(batch)
        else:
            # A factory's compiler with ``compile`` only: t10bench's
            # ``_ColdCompiler`` is the one such compiler, and goes once it
            # has a ``compile_many``.
            programs = [compiler.compile(graph) for graph in batch]
        for key, compiled in zip(compile_keys, programs):
            stored = time.perf_counter()
            self._store_disk(key, compiled)
            with self._lock:
                self._memory[key] = compiled
                self._stats.misses += 1
                self._stats.compile_seconds += compiled.compile_time_seconds
                self._stats.sketched_candidates += compiled.sketched_candidates
                self._stats.materialized_plans += compiled.materialized_plans
                self._attribute(tenant, COMPILE, compiled)
            seconds = compiled.compile_time_seconds + time.perf_counter() - stored
            lookup = lookups[missing[key]] = CacheLookup(compiled, COMPILE, key, seconds)
            if tracer.enabled:
                # One after another over the batch's wall time.
                self._trace_lookup(tracer, lookup, start)
            start += seconds
