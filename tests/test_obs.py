"""Tests for the observability layer (repro.obs): tracing, metrics, export.

The load-bearing guarantees:

* a *disabled* tracer records nothing and costs (near) nothing, so the
  instrumentation can stay in hot paths unconditionally;
* virtual-domain event streams are a pure function of the workload —
  bit-identical across runs and across compilation parallelism;
* the Chrome-trace export passes its own schema validator, names every
  pid/tid it references, and is byte-deterministic;
* traced engine runs carry exactly one request-lifecycle span per request
  and one occupancy track per chip.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.experiments.common import trace_session
from repro.obs import (
    DOMAIN_SIM,
    DOMAIN_VIRTUAL,
    DOMAIN_WALL,
    KIND_ASYNC,
    KIND_FLOW_END,
    KIND_FLOW_START,
    KIND_INSTANT,
    KIND_SPAN,
    NULL_TRACER,
    MetricsRegistry,
    TraceEvent,
    Tracer,
    disabled_overhead_ns,
    event_to_record,
    get_tracer,
    publish_stats,
    read_jsonl,
    summarize,
    to_chrome_trace,
    use_tracer,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.__main__ import main as obs_main
from repro.serving import StaticEngine, decode_workload

from scenarios import make_engine, make_model, request


def sample_tracer() -> Tracer:
    """A small synthetic trace exercising every event kind."""
    tracer = Tracer()
    tracer.span("iter", ts=0.0, dur=0.5, track="eng/chip0", cat="decode")
    tracer.span("iter", ts=0.5, dur=0.5, track="eng/chip0", args={"batch": 2})
    tracer.instant("admit", ts=0.25, track="eng/chip0")
    tracer.counter("queues", ts=0.0, track="eng/fleet", values={"depth": 3.0})
    tracer.flow("flow-start", "eng/r0", ts=0.0, track="eng/requests")
    tracer.flow("flow-end", "eng/r0", ts=1.0, track="eng/chip0")
    tracer.async_span("request", ts=0.0, dur=1.0, track="eng/requests", flow_id="eng/r0")
    tracer.span("compile", ts=0.0, dur=0.1, track="cache/lookups", domain=DOMAIN_WALL)
    tracer.span("mb0", ts=0.0, dur=0.2, track="pipe/stage0", domain=DOMAIN_SIM)
    return tracer


# --------------------------------------------------------------------------- #
# Tracer core
# --------------------------------------------------------------------------- #
class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.span("s", ts=0.0, dur=1.0, track="t")
        tracer.instant("i", ts=0.0, track="t")
        tracer.counter("c", ts=0.0, track="t", values={"v": 1.0})
        tracer.flow("flow-start", "f", ts=0.0, track="t")
        tracer.async_span("a", ts=0.0, dur=1.0, track="t", flow_id="f")
        tracer.wall_instant("w", track="t")
        with tracer.wall_span("ws", track="t") as span:
            span.set(outcome="ok")
        assert len(tracer) == 0
        assert tracer.events() == []

    def test_event_fields_and_args_are_canonical(self):
        tracer = Tracer()
        tracer.span("s", ts=1.0, dur=2.0, track="g/t", args={"b": 1, "a": 2})
        (event,) = tracer.events()
        assert event.kind == KIND_SPAN
        assert event.group == "g"
        assert event.track_name == "t"
        assert event.domain == DOMAIN_VIRTUAL
        # args are stored sorted so equal payloads compare equal regardless
        # of insertion order (the determinism tests rely on ==).
        assert event.args == (("a", 2), ("b", 1))
        assert event.args_dict() == {"a": 2, "b": 1}
        tracer.span("s", ts=1.0, dur=2.0, track="g/t", args={"a": 2, "b": 1})
        first, second = tracer.events()
        assert first == second

    def test_track_without_group_lands_in_main(self):
        tracer = Tracer()
        tracer.instant("i", ts=0.0, track="solo")
        (event,) = tracer.events()
        assert event.group == "main"
        assert event.track_name == "solo"

    def test_flow_rejects_non_flow_kind(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="flow"):
            tracer.flow("span", "f", ts=0.0, track="t")

    def test_virtual_events_excludes_wall_and_sim(self):
        tracer = sample_tracer()
        domains = {event.domain for event in tracer.events()}
        assert domains == {DOMAIN_VIRTUAL, DOMAIN_WALL, DOMAIN_SIM}
        assert all(
            event.domain == DOMAIN_VIRTUAL for event in tracer.virtual_events()
        )
        assert len(tracer.virtual_events()) == len(tracer) - 2

    def test_wall_span_measures_and_attaches_args(self):
        tracer = Tracer()
        with tracer.wall_span("lookup", track="cache/lookups", cat="cache") as span:
            span.set(outcome="hit")
        (event,) = tracer.events()
        assert event.domain == DOMAIN_WALL
        assert event.dur >= 0.0
        assert event.args_dict()["outcome"] == "hit"

    def test_ambient_tracer_install_and_restore(self):
        assert get_tracer() is NULL_TRACER
        tracer = Tracer()
        with use_tracer(tracer):
            assert get_tracer() is tracer
            inner = Tracer()
            with use_tracer(inner):
                assert get_tracer() is inner
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER

    def test_clear_keeps_metrics(self):
        tracer = sample_tracer()
        tracer.metrics.counter("kept").inc()
        tracer.clear()
        assert len(tracer) == 0
        assert "kept" in tracer.metrics

    def test_disabled_overhead_is_measurable(self):
        result = disabled_overhead_ns(iterations=2_000)
        assert set(result) >= {"baseline_ns", "instant_ns", "span_ns"}
        assert result["instant_ns"] > 0.0
        # Generous sanity bound; the CI obs-smoke leg asserts the real budget.
        assert result["span_ns"] < 100_000.0


# --------------------------------------------------------------------------- #
# Metrics registry
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_counter_create_on_first_use_and_monotone(self):
        registry = MetricsRegistry()
        registry.counter("a.hits").inc()
        registry.counter("a.hits").inc(2.5)
        assert registry.counter("a.hits").value == 3.5
        with pytest.raises(ValueError):
            registry.counter("a.hits").inc(-1.0)

    def test_type_clash_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="Counter"):
            registry.gauge("x")

    def test_gauge_tracks_max(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(3.0)
        gauge.set(1.0)
        gauge.add(0.5)
        assert gauge.value == 1.5
        assert gauge.max == 3.0

    def test_histogram_aggregates_and_quarantines_non_finite(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat")
        assert math.isnan(histogram.mean)
        for value in (0.5, 2.0, 8.0):
            histogram.observe(value)
        histogram.observe(float("nan"))
        histogram.observe(float("inf"))
        assert histogram.count == 3
        assert histogram.mean == pytest.approx(10.5 / 3)
        out = histogram.as_dict()
        assert out["non_finite"] == 2.0
        assert out["min"] == 0.5
        assert out["max"] == 8.0
        # log2 buckets: 0.5 -> 0, 2.0 -> 2, 8.0 -> 4
        assert out["le_2e0"] == 1.0

    def test_names_sorted_and_as_dict(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.counter("a")
        assert registry.names() == ["a", "b"]
        assert list(registry.as_dict()) == ["a", "b"]

    def test_walk_prefix(self):
        registry = MetricsRegistry()
        registry.counter("cache.hits")
        registry.counter("cache.misses")
        registry.counter("serving.shed")
        names = [metric.name for metric in registry.walk("cache")]
        assert names == ["cache.hits", "cache.misses"]

    def test_publish_stats_skips_non_numeric_and_degenerate(self):
        registry = MetricsRegistry()
        publish_stats(
            registry,
            "s",
            {
                "count": 3,
                "ratio": 0.5,
                "label": "text",
                "flag": True,
                "broken": float("nan"),
                "negative": -1.0,
            },
        )
        assert registry.names() == ["s.count", "s.ratio"]
        assert registry.counter("s.count").value == 3.0

    def test_publish_stats_accepts_dataclasses(self):
        from repro.serving.plan_cache import CacheStats

        registry = MetricsRegistry()
        publish_stats(registry, "cache", CacheStats(hits_memory=4, misses=1))
        assert registry.counter("cache.hits_memory").value == 4.0
        assert registry.counter("cache.misses").value == 1.0

    def test_publish_stats_rejects_other_types(self):
        with pytest.raises(TypeError):
            publish_stats(MetricsRegistry(), "x", 42)


# --------------------------------------------------------------------------- #
# Exporters
# --------------------------------------------------------------------------- #
class TestChromeExport:
    def test_sample_trace_passes_validator(self):
        data = to_chrome_trace(sample_tracer())
        assert validate_chrome_trace(data) == []
        assert data["displayTimeUnit"] == "ms"

    def test_domains_become_separate_processes(self):
        data = to_chrome_trace(sample_tracer())
        names = {
            event["args"]["name"]
            for event in data["traceEvents"]
            if event["ph"] == "M" and event["name"] == "process_name"
        }
        assert "eng [virtual]" in names
        assert "cache [wall]" in names
        assert "pipe [sim]" in names

    def test_async_spans_export_as_paired_begin_end(self):
        data = to_chrome_trace(sample_tracer())
        begins = [e for e in data["traceEvents"] if e["ph"] == "b"]
        ends = [e for e in data["traceEvents"] if e["ph"] == "e"]
        assert len(begins) == len(ends) == 1
        assert begins[0]["id"] == ends[0]["id"]
        assert ends[0]["ts"] == begins[0]["ts"] + 1.0 * 1e6

    def test_flow_end_carries_binding_point(self):
        data = to_chrome_trace(sample_tracer())
        flow_end = next(e for e in data["traceEvents"] if e["ph"] == "f")
        assert flow_end["bp"] == "e"
        flow_start = next(e for e in data["traceEvents"] if e["ph"] == "s")
        assert flow_start["id"] == flow_end["id"]

    def test_timestamps_scaled_to_microseconds(self):
        tracer = Tracer()
        tracer.span("s", ts=0.25, dur=0.5, track="g/t")
        (event,) = [e for e in to_chrome_trace(tracer)["traceEvents"] if e["ph"] == "X"]
        assert event["ts"] == 0.25 * 1e6
        assert event["dur"] == 0.5 * 1e6

    def test_export_is_byte_deterministic(self, tmp_path):
        first = write_chrome_trace(sample_tracer(), tmp_path / "a.json")
        second = write_chrome_trace(sample_tracer(), tmp_path / "b.json")
        assert first.read_bytes() == second.read_bytes()

    def test_validator_flags_broken_traces(self):
        assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]
        problems = validate_chrome_trace(
            {
                "traceEvents": [
                    {"ph": "Z", "name": "x", "pid": 1, "tid": 1},
                    {"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": 0.0},
                    {"ph": "i", "name": "x", "pid": 1, "tid": 1, "ts": -5.0},
                ]
            }
        )
        assert any("unknown ph" in p for p in problems)
        assert any("bad dur" in p for p in problems)
        assert any("bad ts" in p for p in problems)
        # No metadata names the pids/tids the events reference.
        assert any("process_name" in p for p in problems)


class TestJsonlExport:
    def test_round_trip_preserves_events_and_metrics(self, tmp_path):
        tracer = sample_tracer()
        tracer.metrics.counter("cache.hits").inc(3)
        path = write_jsonl(tracer, tmp_path / "trace.jsonl")
        events, metrics = read_jsonl(path)
        assert events == tracer.events()
        assert metrics["cache.hits"]["value"] == 3.0

    def test_records_are_single_line_json(self):
        record = event_to_record(
            TraceEvent(
                kind=KIND_INSTANT,
                name="i",
                track="g/t",
                domain=DOMAIN_VIRTUAL,
                ts=1.0,
            )
        )
        assert "\n" not in json.dumps(record)
        # Defaulted fields are omitted from the record.
        assert "dur" not in record and "flow_id" not in record

    def test_summary_renders_tracks_and_metrics(self):
        tracer = sample_tracer()
        tracer.metrics.counter("cache.hits").inc()
        text = summarize(tracer.events(), tracer.metrics.as_dict())
        assert "eng/chip0" in text
        assert "cache.hits" in text
        assert "metrics:" in text

    def test_summary_cli_reads_a_jsonl_log(self, tmp_path, capsys):
        path = write_jsonl(sample_tracer(), tmp_path / "trace.jsonl")
        assert obs_main(["summary", str(path)]) == 0
        assert "eng/chip0" in capsys.readouterr().out

    def test_summary_cli_rejects_a_chrome_export(self, tmp_path, capsys):
        path = write_chrome_trace(sample_tracer(), tmp_path / "trace.json")
        with pytest.raises(SystemExit) as exited:
            obs_main(["summary", str(path)])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "--trace OUT.jsonl" in err

    def test_summary_totals_spans_by_name(self):
        tracer = sample_tracer()
        tracer.span("iter", ts=1.0, dur=0.25, track="eng/chip1")
        lines = summarize(tracer.events()).splitlines()
        header = next(i for i, line in enumerate(lines) if line.split()[0] == "span")
        rows = {
            " ".join(line.split()[:2]): line.split()[2:] for line in lines[header + 1 :]
        }
        # Spans of one name add up across tracks; async spans count as spans.
        assert rows["[virtual] iter"] == ["3", "1.2500"]
        assert rows["[virtual] request"] == ["1", "1.0000"]
        assert rows["[wall] compile"] == ["1", "0.1000"]
        assert rows["[sim] mb0"] == ["1", "0.2000"]
        assert set(rows) == {
            "[virtual] iter", "[virtual] request", "[wall] compile", "[sim] mb0"
        }


# --------------------------------------------------------------------------- #
# trace_session plumbing (--trace)
# --------------------------------------------------------------------------- #
class TestTraceSession:
    def test_none_path_is_a_noop(self):
        with trace_session(None) as tracer:
            assert tracer is NULL_TRACER
            assert get_tracer() is NULL_TRACER

    def test_json_path_writes_valid_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        with trace_session(out) as tracer:
            assert get_tracer() is tracer
            tracer.instant("i", ts=0.0, track="g/t")
        data = json.loads(out.read_text())
        assert validate_chrome_trace(data) == []
        assert "trace: wrote" in capsys.readouterr().out

    def test_malformed_chrome_trace_is_refused(self, tmp_path):
        out = tmp_path / "bad.json"
        with pytest.raises(ValueError, match="bad ts"):
            with trace_session(out) as tracer:
                tracer.instant("i", ts=-1.0, track="g/t")
        assert not out.exists()

    def test_jsonl_path_writes_event_log(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        with trace_session(out) as tracer:
            tracer.instant("i", ts=0.5, track="g/t")
        events, _ = read_jsonl(out)
        assert [event.name for event in events] == ["i"]

    def test_export_survives_a_raising_block(self, tmp_path):
        out = tmp_path / "partial.json"
        with pytest.raises(RuntimeError):
            with trace_session(out) as tracer:
                tracer.instant("i", ts=0.0, track="g/t")
                raise RuntimeError("boom")
        assert validate_chrome_trace(json.loads(out.read_text())) == []


# --------------------------------------------------------------------------- #
# Traced engine runs: lifecycle spans, occupancy tracks, determinism
# --------------------------------------------------------------------------- #
class TestTracedEngines:
    def run_traced(self, engine, workload) -> tuple[Tracer, object]:
        tracer = Tracer()
        engine.warm()
        with use_tracer(tracer):
            report = engine.run(workload)
        return tracer, report

    def test_one_lifecycle_span_per_request(self, cache, small_chip, fast_constraints):
        engine = make_engine(cache, small_chip, fast_constraints)
        workload = decode_workload(
            "tiny", num_requests=12, rate=5000.0, seed=2, slo_seconds=0.005
        )
        tracer, report = self.run_traced(engine, workload)
        lifecycles = [
            event for event in tracer.virtual_events() if event.kind == KIND_ASYNC
        ]
        assert len(lifecycles) == report.total_completed + report.shed == 12
        assert {event.name for event in lifecycles} == {"request"}
        # ... and exactly one flow start/end pair per request.
        starts = [e for e in tracer.events() if e.kind == KIND_FLOW_START]
        ends = [e for e in tracer.events() if e.kind == KIND_FLOW_END]
        assert len(starts) == len(ends) == 12
        assert {e.flow_id for e in starts} == {e.flow_id for e in ends}
        assert all(
            flow_id.startswith(engine.trace_group) for flow_id in
            {e.flow_id for e in starts}
        )

    def test_one_occupancy_track_per_chip(self, cache, small_chip, fast_constraints):
        engine = make_engine(
            cache, small_chip, fast_constraints, num_chips=2, min_replicas=2
        )
        workload = decode_workload(
            "tiny", num_requests=16, rate=5000.0, seed=6, slo_seconds=0.01
        )
        tracer, _ = self.run_traced(engine, workload)
        chip_tracks = {
            event.track
            for event in tracer.virtual_events()
            if event.kind == KIND_SPAN and event.name == "iteration"
        }
        group = engine.trace_group
        assert chip_tracks == {f"{group}/chip0", f"{group}/chip1"}

    def test_static_engine_traces_lifecycles_too(
        self, cache, small_chip, fast_constraints
    ):
        engine = StaticEngine(
            make_model(),
            chip=small_chip,
            constraints=fast_constraints,
            plan_cache=cache,
        )
        tracer, report = self.run_traced(
            engine, [request(0, 0.0), request(1, 0.0, tokens=2)]
        )
        lifecycles = [
            event for event in tracer.virtual_events() if event.kind == KIND_ASYNC
        ]
        assert len(lifecycles) == report.total_completed == 2
        assert any(event.name == "iteration" for event in tracer.virtual_events())

    def test_shed_requests_get_closed_lifecycles(
        self, cache, small_chip, fast_constraints
    ):
        engine = make_engine(cache, small_chip, fast_constraints)
        unit = engine.iteration_latency(1)
        tracer, report = self.run_traced(
            engine, [request(0, 0.0, tokens=50, deadline=unit * 0.5)]
        )
        assert report.shed == 1
        (lifecycle,) = [
            event for event in tracer.virtual_events() if event.kind == KIND_ASYNC
        ]
        assert lifecycle.args_dict()["status"] == "shed"
        sheds = [event for event in tracer.events() if event.name == "shed"]
        assert len(sheds) == 1

    def test_virtual_stream_is_deterministic_across_runs(
        self, cache, small_chip, fast_constraints
    ):
        workload = decode_workload(
            "tiny", num_requests=20, rate=5000.0, seed=4, slo_seconds=0.005
        )
        first_tracer, first = self.run_traced(
            make_engine(cache, small_chip, fast_constraints, num_chips=2), workload
        )
        second_tracer, second = self.run_traced(
            make_engine(cache, small_chip, fast_constraints, num_chips=2), workload
        )
        assert first.completed == second.completed
        assert first_tracer.virtual_events() == second_tracer.virtual_events()
        # The full traces may differ (wall-domain cache lookups), only the
        # virtual stream is guaranteed.
        assert len(first_tracer.virtual_events()) > 0

    def test_traced_run_exports_valid_chrome_trace(
        self, cache, small_chip, fast_constraints, tmp_path
    ):
        engine = make_engine(cache, small_chip, fast_constraints)
        workload = decode_workload(
            "tiny", num_requests=8, rate=5000.0, seed=1, slo_seconds=0.01
        )
        tracer, _ = self.run_traced(engine, workload)
        data = to_chrome_trace(tracer)
        assert validate_chrome_trace(data) == []
        path = write_chrome_trace(tracer, tmp_path / "run.json")
        assert validate_chrome_trace(json.loads(path.read_text())) == []

    def test_untraced_run_matches_traced_run(self, cache, small_chip, fast_constraints):
        # Instrumentation must be observation only: the report is identical
        # with tracing on and off.
        workload = decode_workload(
            "tiny", num_requests=10, rate=5000.0, seed=8, slo_seconds=0.005
        )
        traced_engine = make_engine(cache, small_chip, fast_constraints)
        _, traced = self.run_traced(traced_engine, workload)
        plain_engine = make_engine(cache, small_chip, fast_constraints)
        plain_engine.warm()
        plain = plain_engine.run(workload)
        assert traced.completed == plain.completed
        assert traced.iterations == plain.iterations
        assert traced.makespan == plain.makespan

    def test_run_metrics_published_when_traced(
        self, cache, small_chip, fast_constraints
    ):
        engine = make_engine(cache, small_chip, fast_constraints)
        workload = decode_workload(
            "tiny", num_requests=6, rate=5000.0, seed=3, slo_seconds=0.01
        )
        tracer, report = self.run_traced(engine, workload)
        prefix = f"serving.{engine.trace_group}"
        assert f"{prefix}.completed" in tracer.metrics
        assert (
            tracer.metrics.counter(f"{prefix}.completed").value
            == report.total_completed
        )
        assert tracer.metrics.histogram(f"{prefix}.latency_s").count == (
            report.total_completed
        )


# --------------------------------------------------------------------------- #
# Traced fleet runs: per-tenant lanes
# --------------------------------------------------------------------------- #
class TestTracedFleet:
    def make_fleet(self, cache, small_chip, fast_constraints):
        from repro.serving import FleetEngine, TenantSpec

        return FleetEngine(
            [make_model()],
            tenants=[TenantSpec("acme"), TenantSpec("globex")],
            chip=small_chip,
            num_chips=2,
            constraints=fast_constraints,
            plan_cache=cache,
        )

    def workload(self):
        from repro.serving import merge_decode_workloads

        return merge_decode_workloads(
            decode_workload(
                "tiny", num_requests=8, rate=4000.0, seed=1,
                slo_seconds=0.01, tenant="acme",
            ),
            decode_workload(
                "tiny", num_requests=6, rate=3000.0, seed=2,
                slo_seconds=0.01, tenant="globex",
            ),
        )

    def run_traced(self, engine, workload):
        tracer = Tracer()
        engine.warm()
        with use_tracer(tracer):
            report = engine.run(workload)
        return tracer, report

    def test_request_lifecycles_live_on_tenant_lanes(
        self, cache, small_chip, fast_constraints
    ):
        engine = self.make_fleet(cache, small_chip, fast_constraints)
        tracer, report = self.run_traced(engine, self.workload())
        group = engine.trace_group
        by_lane: dict[str, int] = {}
        for event in tracer.virtual_events():
            if event.kind == KIND_ASYNC and event.name == "request":
                by_lane[event.track] = by_lane.get(event.track, 0) + 1
        # Exactly one lifecycle span per request, on the owner tenant's lane.
        assert by_lane == {
            f"{group}/tenant/acme": 8,
            f"{group}/tenant/globex": 6,
        }
        assert sum(by_lane.values()) == report.total_completed + report.shed

    def test_tenant_lanes_carry_queue_and_served_counters(
        self, cache, small_chip, fast_constraints
    ):
        engine = self.make_fleet(cache, small_chip, fast_constraints)
        tracer, report = self.run_traced(engine, self.workload())
        group = engine.trace_group
        for tenant in ("acme", "globex"):
            samples = [
                event
                for event in tracer.virtual_events()
                if event.name == "tenant"
                and event.track == f"{group}/tenant/{tenant}"
            ]
            assert samples, f"no counter samples on tenant lane {tenant}"
            values = samples[-1].args_dict()
            assert values["served"] == report.tenant_slice(tenant).total_completed
            assert values["queued"] == 0

    def test_fleet_export_is_byte_stable(
        self, cache, small_chip, fast_constraints, tmp_path
    ):
        """Two identical traced fleet runs export byte-identical Chrome
        traces — the per-tenant lanes do not disturb export determinism."""
        workload = self.workload()
        first_tracer, _ = self.run_traced(
            self.make_fleet(cache, small_chip, fast_constraints), workload
        )
        second_tracer, _ = self.run_traced(
            self.make_fleet(cache, small_chip, fast_constraints), workload
        )
        assert first_tracer.virtual_events() == second_tracer.virtual_events()

        # Wall-domain events (cache lookups) carry real timings, so only the
        # virtual stream is byte-stable across runs.
        def export_bytes(tracer, path):
            filtered = Tracer()
            for event in tracer.virtual_events():
                filtered.record(event)
            return write_chrome_trace(filtered, path).read_bytes()

        first = export_bytes(first_tracer, tmp_path / "a.json")
        second = export_bytes(second_tracer, tmp_path / "b.json")
        assert first == second
        assert validate_chrome_trace(json.loads((tmp_path / "a.json").read_text())) == []
