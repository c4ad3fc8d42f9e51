"""Tests for the parallel compilation engine and the single-flight guard.

The engine's contract is *bit-for-bit determinism*: for any graph, chip and
constraint setting, ``jobs=N`` must produce exactly the serial compile's
frontiers, schedule, program and error behaviour.  These tests check that
contract on every registry model (quick mode), on both fan-out paths (forked
workers and inline), and on the failure paths, plus the SingleFlight
semantics the serving cache relies on.
"""

from __future__ import annotations

import copy
import os
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core import (
    FAST_CONSTRAINTS,
    ParallelCompilationEngine,
    SingleFlight,
    T10Compiler,
    default_jobs,
    resolve_jobs,
)
from repro.core import parallel
from repro.core.intra_op import IntraOpOptimizer
from repro.experiments.common import build_workload
from repro.hw.spec import ChipSpec, KiB
from repro.ir import OperatorGraph, elementwise, matmul
from repro.models import list_models
from repro.obs import Tracer, use_tracer


def compile_pair(chip, cost_model, graph, *, jobs):
    """Compile ``graph`` serially and with ``jobs`` workers; return both."""
    serial = T10Compiler(chip, cost_model=cost_model, constraints=FAST_CONSTRAINTS)
    parallel = T10Compiler(
        chip, cost_model=cost_model, constraints=FAST_CONSTRAINTS, jobs=jobs
    )
    return serial.compile(graph), parallel.compile(graph)


def compile_traced(compiler, graph):
    """Compile ``graph``; return the result and each fan-out's ``path``."""
    tracer = Tracer()
    with use_tracer(tracer):
        compiled = compiler.compile(graph)
    paths = [
        dict(event.args)["path"]
        for event in tracer.events()
        if event.name == "search-fan-out"
    ]
    return compiled, paths


def assert_identical(serial, parallel):
    """The determinism guarantee, field by field."""
    assert parallel.status == serial.status
    assert parallel.error == serial.error
    assert list(parallel.pareto_plans) == list(serial.pareto_plans)
    assert parallel.pareto_plans == serial.pareto_plans
    assert parallel.search_stats == serial.search_stats
    assert parallel.schedule == serial.schedule
    assert parallel.program == serial.program


class TestDeterminism:
    @pytest.mark.parametrize("model_name", list_models())
    def test_registry_models_identical_at_jobs_4(
        self, ipu_chip, ipu_cost_model, model_name
    ):
        """jobs=4 equals jobs=1 on every registry model (quick workloads)."""
        graph = build_workload(model_name, 1, quick=True)
        serial, parallel = compile_pair(ipu_chip, ipu_cost_model, graph, jobs=4)
        assert_identical(serial, parallel)

    @pytest.mark.parametrize(
        "other_thread", [False, True], ids=["fork-safe", "another-thread-alive"]
    )
    def test_fan_out_paths_agree(self, small_chip, small_cost_model, other_thread):
        """Forked workers, and the inline search a live thread falls back
        to, both compile exactly what the serial compiler does."""
        graph = build_workload("nerf", 1, quick=True)
        serial = T10Compiler(
            small_chip, cost_model=small_cost_model, constraints=FAST_CONSTRAINTS
        ).compile(graph)
        compiler = T10Compiler(
            small_chip, cost_model=small_cost_model, constraints=FAST_CONSTRAINTS, jobs=3
        )
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        if other_thread:
            other.start()
        try:
            compiled, paths = compile_traced(compiler, graph)
        finally:
            release.set()
            if other_thread:
                other.join()
        assert paths == ["inline" if other_thread else "process"]
        assert_identical(serial, compiled)

    def test_oom_failure_is_identical(self, small_cost_model):
        """Infeasible graphs produce the same diagnosis, serial or parallel."""
        graph = OperatorGraph(name="too-big")
        graph.add(matmul("ok-ish", m=64, k=64, n=64))
        graph.add(matmul("huge", m=4096, k=4096, n=4096))
        serial, parallel = compile_pair(cramped_chip(), small_cost_model, graph, jobs=4)
        assert serial.status == "oom"
        assert parallel.status == "oom"
        assert parallel.error == serial.error
        # The partial frontier state stops at the same operator.
        assert parallel.pareto_plans == serial.pareto_plans
        assert parallel.search_stats == serial.search_stats

    def test_oom_names_the_first_failure_in_graph_order(self, small_cost_model):
        """The process fan-out sends the 3-axis matmul before the 2-axis
        element-wise operator ahead of it; the diagnosis still names the
        element-wise one, as the serial compile does."""
        graph = OperatorGraph(name="too-big-twice")
        graph.add(elementwise("wide", {"r": 4096, "c": 4096}))
        graph.add(matmul("huge", m=4096, k=4096, n=4096))
        pending = {op.signature(): op for op in graph.operators}
        assert [op.name for op in parallel._largest_first(pending).values()] == [
            "huge",
            "wide",
        ]
        serial, compiled = compile_pair(cramped_chip(), small_cost_model, graph, jobs=2)
        assert serial.status == "oom"
        assert "wide" in serial.error
        assert_identical(serial, compiled)


def cramped_chip() -> ChipSpec:
    """A chip too small for a 4096-wide operator."""
    return ChipSpec(
        name="cramped",
        num_cores=64,
        sram_per_core=32 * KiB,
        core_flops=100e9,
        link_bandwidth=5.5e9,
        link_latency=0.4e-6,
        offchip_bandwidth=8e9,
    )


class TestStreamingMatchesReference:
    """Acceptance check for the streaming plan search: on every registry model
    the sketch/prune/materialize pipeline — serial and fanned out over two
    workers — produces frontiers bit-for-bit identical to the eager reference
    implementation (``IntraOpOptimizer.search_reference``), while materializing
    only the final frontier."""

    @pytest.mark.parametrize("model_name", list_models())
    def test_registry_models_match_reference(
        self, ipu_chip, ipu_cost_model, model_name
    ):
        graph = build_workload(model_name, 1, quick=True)
        serial = T10Compiler(
            ipu_chip, cost_model=ipu_cost_model, constraints=FAST_CONSTRAINTS
        )
        two_jobs = T10Compiler(
            ipu_chip, cost_model=ipu_cost_model, constraints=FAST_CONSTRAINTS, jobs=2
        )
        serial_result = serial.engine.search_graph(graph, serial.intra_op)
        parallel_result = two_jobs.engine.search_graph(graph, two_jobs.intra_op)
        assert parallel_result.pareto == serial_result.pareto
        assert parallel_result.stats == serial_result.stats
        assert parallel_result.error == serial_result.error
        # Only the final frontier is ever materialized.
        for result in (serial_result, parallel_result):
            searched = [
                (operator.name, result.stats[operator.name])
                for operator in graph.operators
                if operator.name in result.stats and not operator.expr.library_fallback
            ]
            assert searched
            for name, stats in searched:
                assert stats.materialized == stats.optimized, name

        reference = T10Compiler(
            ipu_chip, cost_model=ipu_cost_model, constraints=FAST_CONSTRAINTS
        )
        total_evaluated = total_materialized = 0
        seen: set[tuple] = set()
        for operator in graph.operators:
            if operator.name not in serial_result.pareto:
                break  # search stopped at the first infeasible operator
            signature = operator.signature()
            if signature in seen:
                continue
            seen.add(signature)
            reference_plans, reference_stats = reference.intra_op.search_reference(
                operator
            )
            assert serial_result.pareto[operator.name] == reference_plans
            stats = serial_result.stats[operator.name]
            assert stats.evaluated == reference_stats.evaluated
            assert stats.filtered == reference_stats.filtered
            assert stats.optimized == reference_stats.optimized
            assert stats.materialized <= reference_stats.materialized
            total_evaluated += stats.evaluated
            total_materialized += stats.materialized
        if serial_result.ok:
            assert total_materialized < total_evaluated


class TestEngine:
    def test_dedupes_signatures_before_dispatch(
        self, small_chip, small_cost_model, fast_constraints
    ):
        compiler = T10Compiler(
            small_chip, cost_model=small_cost_model, constraints=fast_constraints
        )
        graph = OperatorGraph(name="repeated")
        for i in range(6):
            graph.add(matmul(f"mm{i}", m=128, k=64, n=128))
        result = compiler.engine.search_graph(graph, compiler.intra_op)
        assert result.ok
        assert result.unique_operators == 1
        assert result.dispatched == 1
        assert len(result.pareto) == 6
        # All six operators share one frontier object (searched once).
        assert len({id(plans) for plans in result.pareto.values()}) == 1

    def test_warm_cache_dispatches_nothing(
        self, small_chip, small_cost_model, fast_constraints
    ):
        compiler = T10Compiler(
            small_chip, cost_model=small_cost_model, constraints=fast_constraints
        )
        graph = OperatorGraph(name="g")
        graph.add(matmul("mm", m=128, k=64, n=128))
        first = compiler.engine.search_graph(graph, compiler.intra_op)
        second = compiler.engine.search_graph(graph, compiler.intra_op)
        assert first.dispatched == 1
        assert second.dispatched == 0
        assert second.pareto == first.pareto

    def test_jobs_resolution(self):
        assert resolve_jobs(None) == default_jobs()
        assert resolve_jobs(3) == 3
        assert default_jobs() >= 1
        with pytest.raises(ValueError):
            resolve_jobs(0)

    def test_close_is_idempotent(self, small_chip, small_cost_model, fast_constraints):
        """``T10Compiler.close`` releases nothing; calling it twice is harmless."""
        compiler = T10Compiler(
            small_chip, cost_model=small_cost_model, constraints=fast_constraints, jobs=2
        )
        graph = OperatorGraph(name="g")
        graph.add(matmul("a", m=128, k=64, n=128))
        graph.add(matmul("b", m=64, k=128, n=64))
        assert compiler.compile(graph).ok
        compiler.close()
        compiler.close()
        assert compiler.compile(graph).ok

    def test_compiler_jobs_property(self, small_chip, small_cost_model):
        assert T10Compiler(small_chip, cost_model=small_cost_model, jobs=2).jobs == 2


def distinct_matmuls(name: str, count: int, first: int = 1) -> OperatorGraph:
    """A graph of ``count`` matmuls of distinct shapes (one search each),
    ``m`` running over multiples of 64 from ``64 * first``."""
    graph = OperatorGraph(name=name)
    for i in range(count):
        graph.add(matmul(f"{name}{i}", m=64 * (first + i), k=64, n=128))
    return graph


class _ExitOnArrival:
    """A task that ends the worker process unpickling it."""

    def __reduce__(self):
        return (os._exit, (3,))


class _FailOnArrival:
    """A task whose unpickling raises in the worker."""

    def __reduce__(self):
        return (_raise_runtime_error, ())


def _raise_runtime_error():
    raise RuntimeError("task could not be read")


class TestProcessWorkers:
    """Process workers are forked once per process and shared by engines."""

    def test_dispatch_sends_most_axes_first_ties_in_graph_order(self):
        graph = OperatorGraph(name="mixed")
        graph.add(elementwise("act", {"r": 64, "c": 64}))
        graph.add(matmul("fc", m=64, k=64, n=64))
        graph.add(matmul("bmm", m=64, k=64, n=64, batch=4))
        graph.add(matmul("fc2", m=128, k=64, n=64))
        pending = {op.signature(): op for op in graph.operators}
        order = [op.name for op in parallel._largest_first(pending).values()]
        assert order == ["bmm", "fc", "fc2", "act"]

    def test_a_fan_out_pins_its_workers_to_distinct_cpus(
        self, small_chip, small_cost_model, fast_constraints
    ):
        compiler = T10Compiler(
            small_chip, cost_model=small_cost_model, constraints=fast_constraints, jobs=2
        )
        assert compiler.compile(distinct_matmuls("pinned", 4)).ok
        token = compiler.engine._token
        used = [worker for worker in parallel._WORKERS._all if worker.token == token]
        assert used
        cpus = parallel._allowed_cpus()
        if not cpus:
            # One allowed CPU (or no affinity support): nothing to spread.
            assert all(worker.cpu is None for worker in used)
            return
        assert sorted(worker.cpu for worker in used) == sorted(cpus[: len(used)])
        for worker in used:
            assert os.sched_getaffinity(worker.process.pid) == {worker.cpu}

    def test_later_engines_reuse_the_forked_workers(
        self, small_chip, small_cost_model, fast_constraints
    ):
        graph = distinct_matmuls("reuse", 4)
        serial = T10Compiler(
            small_chip, cost_model=small_cost_model, constraints=fast_constraints
        ).compile(graph)
        pids = []
        for _ in range(2):
            compiler = T10Compiler(
                small_chip, cost_model=small_cost_model, constraints=fast_constraints, jobs=2
            )
            assert_identical(serial, compiler.compile(graph))
            pids.append(sorted(worker.process.pid for worker in parallel._WORKERS._all))
        assert len(pids[0]) >= 2
        assert pids[1] == pids[0]

    def test_an_engine_searches_on_at_most_jobs_workers(
        self, small_chip, small_cost_model, fast_constraints
    ):
        graph = distinct_matmuls("window", 4)
        T10Compiler(
            small_chip, cost_model=small_cost_model, constraints=fast_constraints, jobs=4
        ).compile(graph)
        assert len(parallel._WORKERS._all) >= 4
        narrow = T10Compiler(
            small_chip, cost_model=small_cost_model, constraints=fast_constraints, jobs=2
        )
        assert narrow.compile(distinct_matmuls("narrow", 4)).ok
        token = narrow.engine._token
        used = [worker for worker in parallel._WORKERS._all if worker.token == token]
        assert 1 <= len(used) <= 2

    def test_auto_engine_does_not_fork_beside_other_threads(
        self, small_chip, small_cost_model, fast_constraints
    ):
        """An engine that forked for one compile searches inline once other
        threads run and no worker is idle, rather than forking then."""
        compiler = T10Compiler(
            small_chip,
            cost_model=small_cost_model,
            constraints=fast_constraints,
            jobs=2,
        )
        first, paths = compile_traced(compiler, distinct_matmuls("first", 2))
        assert first.ok
        assert paths == ["process"]
        graph = distinct_matmuls("second", 3, first=3)
        serial = T10Compiler(
            small_chip, cost_model=small_cost_model, constraints=fast_constraints
        ).compile(graph)
        held = parallel._WORKERS.checkout(1 << 10)
        forked = len(parallel._WORKERS._all)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            compiled, paths = compile_traced(compiler, graph)
        finally:
            release.set()
            other.join()
            parallel._WORKERS.checkin(held)
        assert paths == ["inline"]
        assert len(parallel._WORKERS._all) == forked
        assert_identical(serial, compiled)

    def test_a_setup_that_does_not_pickle_searches_inline(
        self, small_chip, small_cost_model, fast_constraints
    ):
        cost_model = copy.deepcopy(small_cost_model)
        cost_model.register_custom("mykernel", lambda shape, flops, nbytes: 42.0)
        graph = distinct_matmuls("closure", 3)
        serial = T10Compiler(
            small_chip, cost_model=cost_model, constraints=fast_constraints
        ).compile(graph)
        compiler = T10Compiler(
            small_chip, cost_model=cost_model, constraints=fast_constraints, jobs=2
        )
        forked = len(parallel._WORKERS._all)
        compiled, paths = compile_traced(compiler, graph)
        assert paths == ["inline"]
        assert len(parallel._WORKERS._all) == forked
        assert all(
            worker.token != compiler.engine._token for worker in parallel._WORKERS._all
        )
        assert_identical(serial, compiled)

    def test_a_worker_error_is_raised_and_the_workers_kept(
        self, small_chip, small_cost_model, fast_constraints
    ):
        engine = ParallelCompilationEngine(
            small_chip, small_cost_model, fast_constraints, jobs=2
        )
        intra_op = IntraOpOptimizer(small_chip, small_cost_model, fast_constraints)
        pending = {("a",): _FailOnArrival(), ("b",): _FailOnArrival()}
        with pytest.raises(RuntimeError, match="task could not be read"):
            engine._search_processes(pending, intra_op, {})
        idle = parallel._WORKERS.checkout(1 << 10)
        parallel._WORKERS.checkin(idle)
        assert {worker.token for worker in idle} >= {engine._token}
        assert all(worker.process.is_alive() for worker in idle)

    def test_a_worker_dying_breaks_only_its_fan_out(
        self, small_chip, small_cost_model, fast_constraints
    ):
        engine = ParallelCompilationEngine(
            small_chip, small_cost_model, fast_constraints, jobs=2
        )
        intra_op = IntraOpOptimizer(small_chip, small_cost_model, fast_constraints)
        pending = {("a",): _ExitOnArrival(), ("b",): _ExitOnArrival()}
        with pytest.raises(BrokenProcessPool):
            engine._search_processes(pending, intra_op, {})
        assert all(worker.process.is_alive() for worker in parallel._WORKERS._all)
        # Dead workers are dropped; a wider fan-out forks replacements.
        graph = distinct_matmuls("after", 4)
        serial, compiled = compile_pair(small_chip, small_cost_model, graph, jobs=4)
        assert_identical(serial, compiled)
        assert len(parallel._WORKERS._all) >= 4


class TestSingleFlight:
    def test_serial_calls_each_run(self):
        flight = SingleFlight()
        calls = []
        for i in range(3):
            value, leader = flight.do("k", lambda i=i: calls.append(i) or i)
            assert leader
            assert value == i
        assert calls == [0, 1, 2]

    def test_concurrent_callers_share_one_execution(self):
        flight = SingleFlight()
        started = threading.Event()
        release = threading.Event()
        executions = []

        def slow():
            executions.append(threading.current_thread().name)
            started.set()
            release.wait(timeout=5)
            return "result"

        results: list[tuple[str, bool]] = []

        def caller():
            results.append(flight.do("k", slow))

        threads = [threading.Thread(target=caller) for _ in range(8)]
        threads[0].start()
        assert started.wait(timeout=5)
        assert flight.in_flight("k")
        for thread in threads[1:]:
            thread.start()
        time.sleep(0.05)  # let followers reach the wait
        release.set()
        for thread in threads:
            thread.join(timeout=5)
        assert len(executions) == 1
        assert len(results) == 8
        assert all(value == "result" for value, _ in results)
        assert sum(1 for _, leader in results if leader) == 1
        assert not flight.in_flight("k")

    def test_leader_exception_propagates_to_followers(self):
        flight = SingleFlight()
        started = threading.Event()
        release = threading.Event()

        def failing():
            started.set()
            release.wait(timeout=5)
            raise RuntimeError("boom")

        errors: list[BaseException] = []

        def caller():
            try:
                flight.do("k", failing)
            except RuntimeError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=caller) for _ in range(4)]
        threads[0].start()
        assert started.wait(timeout=5)
        for thread in threads[1:]:
            thread.start()
        time.sleep(0.05)
        release.set()
        for thread in threads:
            thread.join(timeout=5)
        assert len(errors) == 4
        assert all("boom" in str(exc) for exc in errors)
        # The failed call is forgotten: the next caller retries.
        value, leader = flight.do("k", lambda: "recovered")
        assert value == "recovered" and leader

    def test_distinct_keys_do_not_serialise(self):
        flight = SingleFlight()
        order: list[str] = []
        gate = threading.Event()

        def slow_a():
            order.append("a-start")
            gate.wait(timeout=5)
            order.append("a-end")
            return "a"

        thread = threading.Thread(target=lambda: flight.do("a", slow_a))
        thread.start()
        deadline = time.time() + 5
        while "a-start" not in order and time.time() < deadline:
            time.sleep(0.001)
        value, leader = flight.do("b", lambda: "b")  # must not block on "a"
        assert value == "b" and leader
        gate.set()
        thread.join(timeout=5)
        assert order == ["a-start", "a-end"]
