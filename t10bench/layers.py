"""Per-layer timing shims for the traced benchmark run.

The benchmark does not instrument the program: it wraps the public entry
point of each layer — the name its caller actually looks up, so
``repro.core.intra_op.sketch_plan`` rather than ``repro.core.plan.sketch_plan``
— with a shim that counts calls and accumulates total and self time.  Self
time is a call's duration minus the part covered by shimmed calls nested in
it, so the self times of one replay add up to at most its wall time.

Spans (name, start, duration, parent) go into a private
:class:`repro.obs.Tracer` that is never installed as the ambient tracer, so
the program's own instrumentation stays disabled and out of the file.  The
first :data:`SPANS_PER_LAYER` calls of each layer are kept as spans; the
counters cover every call.

A shim whose target no longer exists marks its layer absent instead of
failing, so a later refactor that renames a layer shows up as a missing
row, not as a crashed benchmark.  The shims assume one thread, which holds
because every workload compiles with ``jobs=1``.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.obs import Tracer, write_chrome_trace
from repro.obs.trace import DOMAIN_WALL
from repro.runtime.metrics import percentile

#: Spans kept per layer; counts and times cover every call regardless.
SPANS_PER_LAYER = 2000


@dataclass
class Layer:
    """Counters of one shimmed layer."""

    name: str
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)
    """Per-call durations, kept only for layers whose percentiles are reported."""
    keep_durations: bool = False


class LayerProfile:
    """Installs the shims and accumulates what they measure."""

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        """A disabled profile installs nothing and times nothing (untraced rounds)."""
        self.tracer = Tracer(enabled=enabled)
        self.layers: dict[str, Layer] = {}
        self.absent: list[str] = []
        self.counts: dict[str, float] = {}
        """Deterministic counters read from shim results and reports."""
        self.phase = "setup"
        """Benchmark phase the next calls belong to: setup, compile, serve or check."""
        self.phase_self_s: dict[str, float] = {}
        """Self time of all shimmed calls per phase (at most the phase's wall time)."""
        self._stack: list[list[Any]] = []
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    def layer(self, name: str, *, keep_durations: bool = False) -> Layer:
        found = self.layers.get(name)
        if found is None:
            found = self.layers[name] = Layer(name, keep_durations=keep_durations)
        return found

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _enter(self, name: str) -> list[Any]:
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, layer: Layer, frame: list[Any]) -> float:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        layer.calls += 1
        layer.total_s += duration
        layer.self_s += duration - frame[2]
        self.phase_self_s[self.phase] = (
            self.phase_self_s.get(self.phase, 0.0) + duration - frame[2]
        )
        if layer.keep_durations:
            layer.durations.append(duration)
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if layer.calls <= SPANS_PER_LAYER:
            self.tracer.span(
                layer.name,
                ts=frame[1] - self.tracer.wall_origin,
                dur=duration,
                track=f"bench/{layer.name}",
                domain=DOMAIN_WALL,
                cat=self.phase,
                args={"parent": parent[0] if parent is not None else ""},
            )
        return duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a call made from the benchmark's own code as a layer."""
        if not self.enabled:
            yield
            return
        layer = self.layer(name)
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(layer, frame)

    def shim(
        self,
        module: str,
        attribute: str,
        name: str,
        on_result: Callable[["LayerProfile", Any, tuple], None] | None = None,
        *,
        keep_durations: bool = False,
    ) -> None:
        """Wrap ``module.attribute`` (``attribute`` may be ``Class.method``)."""
        owner: object = importlib.import_module(module)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                break
        original = getattr(owner, leaf, None) if owner is not None else None
        if not callable(original):
            self.absent.append(name)
            return
        layer = self.layer(name, keep_durations=keep_durations)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = self._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit(layer, frame)
            if on_result is not None:
                on_result(self, result, args)
            return result

        setattr(owner, leaf, wrapper)
        self._restore.append((owner, leaf, original))

    def uninstall(self) -> None:
        """Put every wrapped name back."""
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()

    def write(self, path: Path) -> Path:
        """Export the kept spans as Chrome-trace JSON (open in Perfetto)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        return write_chrome_trace(self.tracer, path)


# ---------------------------------------------------------------------- #
# The shims: one per layer boundary
# ---------------------------------------------------------------------- #
def _cache_outcome(profile: LayerProfile, lookup: Any, _args: tuple) -> None:
    outcome = getattr(lookup, "outcome", "")
    seconds = getattr(lookup, "seconds", 0.0)
    if outcome == "compile":
        profile.count(f"plan_cache.{profile.phase}.misses")
        profile.count(f"plan_cache.{profile.phase}.miss_s", seconds)
    else:
        profile.count("plan_cache.hits")
        profile.count("plan_cache.hit_s", seconds)


def _program_steps(profile: LayerProfile, program: Any, _args: tuple) -> None:
    profile.count("codegen.program_steps", len(getattr(program, "steps", ())))


def _pareto_accepted(profile: LayerProfile, accepted: Any, _args: tuple) -> None:
    if accepted:
        profile.count("pareto.accepted")


def _replica_views(profile: LayerProfile, view: Any, _args: tuple) -> None:
    profile.count("router.replica_views", len(getattr(view, "replicas", ())))


#: (module, attribute the caller looks up, layer name, result hook, keep durations)
SHIMS: tuple[tuple[str, str, str, Any, bool], ...] = (
    ("repro.core.parallel", "ParallelCompilationEngine.search_graph",
     "core.parallel.search_graph", None, False),
    ("repro.core.intra_op", "IntraOpOptimizer._search", "core.intra_op.search", None, True),
    ("repro.core.intra_op", "sketch_plan", "core.plan.sketch", None, False),
    ("repro.core.plan", "PlanSketch.materialize", "core.plan.materialize", None, False),
    ("repro.core.pareto", "ParetoAccumulator.insert", "core.pareto.insert",
     _pareto_accepted, False),
    ("repro.core.cost_model", "CostModel.compute_time_batch", "core.cost_model.batch",
     None, False),
    ("repro.core.inter_op", "InterOpScheduler.reconcile", "core.inter_op.reconcile",
     None, False),
    ("repro.core.compiler", "generate_program", "core.codegen.generate", _program_steps,
     False),
    ("repro.serving.plan_cache", "PlanCache.get_or_compile", "serving.plan_cache.lookup",
     _cache_outcome, False),
    ("repro.hw.simulator", "ChipSimulator.run", "hw.simulator.run", None, False),
    ("repro.hw.spec", "ChipSpec.fingerprint", "hw.spec.fingerprint", None, False),
    ("repro.serving.fleet", "bucket_for", "serving.batcher.bucket_for", None, False),
    ("repro.serving.continuous", "bucket_for", "serving.batcher.bucket_for", None, False),
    ("repro.serving.router", "CostAwareRouter.route", "serving.router.route", None, False),
    ("repro.serving.fleet", "FleetEngine._view", "serving.router.view", _replica_views,
     False),
    ("repro.serving.faults", "FaultSchedule.link_factor", "serving.faults.link_factor",
     None, False),
    ("repro.serving.fleet", "FleetEngine.run", "serving.engine.run", None, False),
    ("repro.serving.continuous", "ContinuousEngine.run", "serving.engine.run", None, False),
)

#: Layers timed around the benchmark's own calls instead of by a shim.
REPORT_LAYER = "serving.metrics.report"
GENERATE_LAYER = "serving.request.generate"


def install() -> LayerProfile:
    """Install every shim; the caller must :meth:`LayerProfile.uninstall`."""
    profile = LayerProfile()
    for module, attribute, name, on_result, keep in SHIMS:
        profile.shim(module, attribute, name, on_result, keep_durations=keep)
    return profile


# ---------------------------------------------------------------------- #
# Per-layer metrics (the BENCHMARK.json ``per_layer`` list)
# ---------------------------------------------------------------------- #
def tail_percentile(samples: int) -> float:
    """The percentile with ten samples beyond it (p = 1 - 10/n), floored at p50."""
    if samples <= 20:
        return 50.0
    return 100.0 * (1.0 - 10.0 / samples)


def layer_metrics(profile: LayerProfile, factor: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    Times are multiplied by the round's calibration ``factor``; counts are
    exact.  Every name is present for every workload: a layer the workload
    bypasses reads zero calls.
    """
    layers = profile.layers

    def calls(name: str) -> int:
        layer = layers.get(name)
        return layer.calls if layer is not None else 0

    def total(name: str) -> float:
        layer = layers.get(name)
        return layer.total_s * factor if layer is not None else 0.0

    def self_time(name: str) -> float:
        layer = layers.get(name)
        return layer.self_s * factor if layer is not None else 0.0

    counts = profile.counts
    searches = layers.get("core.intra_op.search")
    search_ms = [d * factor * 1e3 for d in searches.durations] if searches else []
    sketched = calls("core.plan.sketch")
    materialized = calls("core.plan.materialize")
    hits = counts.get("plan_cache.hits", 0)
    return {
        "core.parallel.search_graph_s": (total("core.parallel.search_graph"), "s"),
        "core.intra_op.searches": (len(search_ms), "count"),
        "core.intra_op.search_p50_ms": (percentile(search_ms, 50.0) if search_ms else 0.0,
                                        "ms"),
        "core.intra_op.search_tail_ms": (
            percentile(search_ms, tail_percentile(len(search_ms))) if search_ms else 0.0,
            "ms",
        ),
        "core.intra_op.search_self_s": (self_time("core.intra_op.search"), "s"),
        "core.plan.sketched": (sketched, "count"),
        "core.plan.sketch_s": (total("core.plan.sketch"), "s"),
        "core.plan.materialized": (materialized, "count"),
        "core.plan.materialize_s": (total("core.plan.materialize"), "s"),
        "core.plan.materialized_per_sketched": (
            materialized / sketched if sketched else 0.0, "ratio"),
        "core.pareto.inserts": (calls("core.pareto.insert"), "count"),
        "core.pareto.insert_s": (total("core.pareto.insert"), "s"),
        "core.pareto.accepted": (counts.get("pareto.accepted", 0), "count"),
        "core.cost_model.batch_calls": (calls("core.cost_model.batch"), "count"),
        "core.cost_model.batch_s": (total("core.cost_model.batch"), "s"),
        "core.inter_op.reconcile_s": (total("core.inter_op.reconcile"), "s"),
        "core.codegen.codegen_s": (total("core.codegen.generate"), "s"),
        "core.codegen.program_steps": (counts.get("codegen.program_steps", 0), "count"),
        "serving.plan_cache.lookups": (calls("serving.plan_cache.lookup"), "count"),
        "serving.plan_cache.cold_misses": (
            counts.get("plan_cache.compile.misses", 0), "count"),
        "serving.plan_cache.cold_s": (
            counts.get("plan_cache.compile.miss_s", 0.0) * factor, "s"),
        "serving.plan_cache.hits": (hits, "count"),
        "serving.plan_cache.hit_ms": (
            counts.get("plan_cache.hit_s", 0.0) * factor * 1e3 / hits if hits else 0.0,
            "ms"),
        "serving.plan_cache.run_misses": (counts.get("plan_cache.serve.misses", 0),
                                          "count"),
        "hw.simulator.runs": (calls("hw.simulator.run"), "count"),
        "hw.simulator.run_s": (total("hw.simulator.run"), "s"),
        "hw.spec.fingerprint_calls": (calls("hw.spec.fingerprint"), "count"),
        "hw.spec.fingerprint_s": (total("hw.spec.fingerprint"), "s"),
        "serving.batcher.bucket_for_calls": (calls("serving.batcher.bucket_for"), "count"),
        "serving.batcher.bucket_for_s": (total("serving.batcher.bucket_for"), "s"),
        "serving.router.routes": (calls("serving.router.route"), "count"),
        "serving.router.views_built": (calls("serving.router.view"), "count"),
        "serving.router.replica_views_built": (counts.get("router.replica_views", 0),
                                               "count"),
        "serving.faults.link_factor_calls": (calls("serving.faults.link_factor"), "count"),
        "serving.faults.chip_deaths": (counts.get("faults.chip_deaths", 0), "count"),
        "serving.faults.requeued": (counts.get("faults.requeued", 0), "count"),
        "serving.faults.brownout_sheds": (counts.get("faults.brownout_sheds", 0), "count"),
        "serving.faults.retry_drops": (counts.get("faults.retry_drops", 0), "count"),
        "serving.engine.run_s": (total("serving.engine.run"), "s"),
        "serving.engine.loop_self_s": (self_time("serving.engine.run"), "s"),
        "serving.engine.iterations": (counts.get("engine.iterations", 0), "count"),
        "serving.engine.preemptions": (counts.get("engine.preemptions", 0), "count"),
        "serving.engine.shed": (counts.get("engine.shed", 0), "count"),
        "serving.engine.migrations": (counts.get("engine.migrations", 0), "count"),
        "serving.engine.rebinds": (counts.get("engine.rebinds", 0), "count"),
        "serving.engine.scale_ups": (counts.get("engine.scale_ups", 0), "count"),
        "serving.metrics.report_s": (total(REPORT_LAYER), "s"),
        "serving.request.generate_s": (total(GENERATE_LAYER), "s"),
        "serving.request.requests": (counts.get("request.requests", 0), "count"),
    }


def layer_table(profile: LayerProfile, factor: float) -> list[dict[str, Any]]:
    """Calls, total and self time of every layer, largest self time first."""
    rows = [
        {
            "layer": layer.name,
            "calls": layer.calls,
            "total_s": layer.total_s * factor,
            "self_s": layer.self_s * factor,
        }
        for layer in profile.layers.values()
    ]
    rows += [
        {"layer": name, "calls": 0, "total_s": 0.0, "self_s": 0.0, "absent": True}
        for name in profile.absent
    ]
    return sorted(rows, key=lambda row: -row["self_s"])
