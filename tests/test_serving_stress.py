"""Concurrency stress tests for the serving stack's compilation path.

N threads push M graphs through serving engines sharing one plan cache and
assert
the two properties the single-flight design promises under contention:

* every fingerprint is compiled **exactly once** across all threads, and
* **no request is lost** — every thread's report accounts for every request
  it submitted.

A poisoned-cache-dir variant pre-fills the disk tier with garbage entries to
check that corrupt pickles degrade to a clean recompile rather than an error.
"""

from __future__ import annotations

import threading
from typing import Callable

import pytest

from repro.core import SearchConstraints, T10Compiler
from repro.hw.spec import ChipSpec
from repro.ir import OperatorGraph
from repro.serving import (
    DecodeModel,
    DecodeRequest,
    PlanCache,
    StaticEngine,
    batch_buckets,
    check_report,
)
from repro.serving.plan_cache import plan_key

from scenarios import tiny_builder

N_THREADS = 8
REQUESTS_PER_THREAD = 24


#: A three-operator MLP graph that fits the small test chip at any bucket.
build_stress_model = tiny_builder("stress")


class CountingCompiler(T10Compiler):
    """T10 compiler that counts the graphs it compiles (thread-safely)."""

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        self.compile_count = 0
        self.compiled_fingerprints: list[str] = []
        self._count_lock = threading.Lock()

    def compile_many(self, graphs):  # type: ignore[override]
        with self._count_lock:
            self.compile_count += len(graphs)
            self.compiled_fingerprints += [graph.fingerprint() for graph in graphs]
        return super().compile_many(graphs)


@pytest.fixture()
def counting_cache(small_chip, small_cost_model, fast_constraints, tmp_path):
    """Factory for plan caches whose compilers count their compile calls."""

    def build(cache_dir=None, jobs: int | None = 1) -> tuple[PlanCache, list[CountingCompiler]]:
        compilers: list[CountingCompiler] = []

        def factory(chip: ChipSpec, constraints: SearchConstraints) -> CountingCompiler:
            compiler = CountingCompiler(
                chip,
                cost_model=small_cost_model,
                constraints=constraints,
                jobs=jobs,
            )
            compilers.append(compiler)
            return compiler

        return PlanCache(cache_dir, compiler_factory=factory), compilers

    return build


def stress_model() -> DecodeModel:
    return DecodeModel("stress", build_stress_model, max_batch_size=4)


def stress_graphs() -> list[OperatorGraph]:
    """One graph per batch bucket of the stress model (M = 3: 1, 2, 4)."""
    return [build_stress_model(size) for size in batch_buckets(4)]


def one_shot(request_id: int, arrival: float) -> DecodeRequest:
    return DecodeRequest(request_id, "stress", arrival, prompt_tokens=1, max_new_tokens=1)


def run_threads(target: Callable[[int], None], count: int = N_THREADS) -> None:
    threads = [threading.Thread(target=target, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert not any(thread.is_alive() for thread in threads), "stress thread hung"


class TestSingleFlightCompilation:
    def test_concurrent_misses_compile_once_per_fingerprint(
        self, small_chip, fast_constraints, counting_cache
    ):
        """N threads x M graphs: every unique fingerprint compiles exactly once."""
        cache, compilers = counting_cache()
        graphs = stress_graphs()
        errors: list[BaseException] = []

        def worker(_: int) -> None:
            try:
                for graph in graphs:
                    lookup = cache.get_or_compile(graph, small_chip, fast_constraints)
                    assert lookup.compiled.ok
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        run_threads(worker)
        assert not errors
        total_compiles = sum(compiler.compile_count for compiler in compilers)
        assert total_compiles == len(graphs)
        assert cache.stats.misses == len(graphs)
        assert cache.stats.lookups == N_THREADS * len(graphs)
        # Everyone else rode the leader's compile as a hit.
        assert cache.stats.hits == (N_THREADS - 1) * len(graphs)

    def test_schedulers_sharing_cache_lose_no_requests(
        self, small_chip, fast_constraints, counting_cache
    ):
        """Each thread serves its own workload on its own engine; all requests
        are accounted for."""
        cache, compilers = counting_cache()
        reports: dict[int, object] = {}
        workloads: dict[int, list[DecodeRequest]] = {}
        errors: list[BaseException] = []

        def worker(thread_index: int) -> None:
            try:
                engine = StaticEngine(
                    stress_model(),
                    chip=small_chip,
                    num_chips=2,
                    constraints=fast_constraints,
                    plan_cache=cache,
                    batch_window=2e-3,
                )
                requests = workloads[thread_index] = [
                    one_shot(thread_index * REQUESTS_PER_THREAD + i, i * 1e-3)
                    for i in range(REQUESTS_PER_THREAD)
                ]
                reports[thread_index] = engine.run(requests)
            except BaseException as exc:
                errors.append(exc)

        run_threads(worker)
        assert not errors
        assert len(reports) == N_THREADS
        for thread_index, report in reports.items():
            completed = report.completed
            assert len(completed) == REQUESTS_PER_THREAD
            served_ids = {record.request.request_id for record in completed}
            expected = {
                thread_index * REQUESTS_PER_THREAD + i
                for i in range(REQUESTS_PER_THREAD)
            }
            assert served_ids == expected, "requests were lost or duplicated"
            assert all(record.ok for record in completed)
            assert check_report(report, workloads[thread_index]) == []
        # Across all 8 engines, each padded bucket compiled exactly once.
        fingerprints = [
            fp for compiler in compilers for fp in compiler.compiled_fingerprints
        ]
        assert len(fingerprints) == len(set(fingerprints)), (
            "a fingerprint compiled more than once despite single-flight"
        )

    def test_poisoned_cache_dir_recompiles_cleanly(
        self, small_chip, fast_constraints, counting_cache, tmp_path
    ):
        """Corrupt disk entries degrade to a recompile, never an error."""
        cache_dir = tmp_path / "poisoned"
        cache_dir.mkdir()
        graphs = stress_graphs()
        # Poison the exact keys an engine will look up, plus a stray file.
        for graph in graphs:
            key = plan_key(graph, small_chip, fast_constraints)
            (cache_dir / f"{key}.plan.pkl").write_bytes(b"not a pickle at all")
        (cache_dir / "unrelated.plan.pkl").write_text("junk")

        cache, compilers = counting_cache(cache_dir=cache_dir)
        errors: list[BaseException] = []

        def worker(_: int) -> None:
            try:
                for graph in graphs:
                    lookup = cache.get_or_compile(graph, small_chip, fast_constraints)
                    assert lookup.compiled.ok
            except BaseException as exc:
                errors.append(exc)

        run_threads(worker)
        assert not errors
        # Poison never counts as a disk hit, and each fingerprint still
        # compiled exactly once.
        assert cache.stats.hits_disk == 0
        assert sum(compiler.compile_count for compiler in compilers) == len(graphs)
        # The poisoned entries were overwritten with valid programs: a fresh
        # cache over the same directory now hits disk without compiling.
        fresh, fresh_compilers = counting_cache(cache_dir=cache_dir)
        for graph in graphs:
            lookup = fresh.get_or_compile(graph, small_chip, fast_constraints)
            assert lookup.outcome == "hit-disk"
            assert lookup.compiled.ok
        assert sum(compiler.compile_count for compiler in fresh_compilers) == 0

    def test_parallel_jobs_under_thread_contention(
        self, small_chip, fast_constraints, counting_cache
    ):
        """Single-flight holds when misses themselves compile with jobs>1."""
        cache, compilers = counting_cache(jobs=2)
        graphs = stress_graphs()
        errors: list[BaseException] = []

        def worker(_: int) -> None:
            try:
                for graph in graphs:
                    lookup = cache.get_or_compile(graph, small_chip, fast_constraints)
                    assert lookup.compiled.ok
            except BaseException as exc:
                errors.append(exc)

        run_threads(worker, count=4)
        assert not errors
        assert sum(compiler.compile_count for compiler in compilers) == len(graphs)
        cache.close()


class TestDefaultJobsIntegration:
    def test_scheduler_default_jobs_serves_correctly(self, small_chip, fast_constraints):
        """An engine's auto-jobs default produces a clean serving run."""
        engine = StaticEngine(
            stress_model(),
            chip=small_chip,
            constraints=fast_constraints,
        )
        assert engine.plan_cache.jobs is None  # auto policy
        requests = [one_shot(i, i * 1e-3) for i in range(8)]
        report = engine.run(requests)
        assert len(report.completed) == 8
        assert all(record.ok for record in report.completed)
        assert check_report(report, requests) == []

    def test_close_leaves_caller_supplied_cache_usable(
        self, small_chip, fast_constraints, counting_cache
    ):
        """Closing a shared cache forgets its compiler, not its programs."""
        cache, compilers = counting_cache(jobs=2)
        first = StaticEngine(
            DecodeModel("stress", build_stress_model, max_batch_size=2),
            chip=small_chip, constraints=fast_constraints, plan_cache=cache,
        )
        first.iteration_latency(1)
        cache.close()
        # A second engine sharing the cache hits the first engine's buckets
        # and compiles the fresh one on a new compiler.
        second = StaticEngine(
            stress_model(), chip=small_chip, constraints=fast_constraints,
            plan_cache=cache,
        )
        assert second.iteration_latency(4) > 0
        assert sum(compiler.compile_count for compiler in compilers) == 3
        assert len(compilers) == 2
