"""Exporters: Chrome trace-event JSON (Perfetto), JSONL event log, text summary.

The Chrome trace-event format is the lingua franca of timeline viewers —
both ``chrome://tracing`` and https://ui.perfetto.dev load it directly.
Mapping used here:

* Each ``(domain, group)`` pair becomes one *process* (pid), labelled
  ``"<group> [<domain>]"`` via ``process_name`` metadata.  Virtual-time and
  wall-clock events therefore never share a timeline: they sit in different
  process groups and each is internally consistent.
* Each track inside a group becomes one *thread* (tid) with ``thread_name``
  metadata — chips are tracks, the request lane is a track, the compiler
  phases are tracks.
* Spans export as ``X`` (complete) events, async spans as ``b``/``e`` pairs
  (so overlapping request lifecycles render on one lane), instants as ``i``,
  counters as ``C``, and flows as legacy ``s``/``t``/``f`` arrows stitching
  a request from its arrival through the chips that served it.
* Timestamps are microseconds (the format's unit); all trace times here are
  seconds, so everything is scaled by 1e6.

pid/tid assignment is deterministic: sorted group and track names get
consecutive ids, so two identical event streams export byte-identical JSON.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.obs.trace import (
    KIND_ASYNC,
    KIND_COUNTER,
    KIND_FLOW_END,
    KIND_FLOW_START,
    KIND_FLOW_STEP,
    KIND_INSTANT,
    KIND_SPAN,
    TraceEvent,
    Tracer,
)

_US = 1e6

_FLOW_PH = {KIND_FLOW_START: "s", KIND_FLOW_STEP: "t", KIND_FLOW_END: "f"}


def _stable_ids(events: Iterable[TraceEvent]) -> tuple[dict, dict]:
    """Deterministic pid per (domain, group) and tid per (pid, track name)."""
    groups: dict[tuple[str, str], set[str]] = defaultdict(set)
    for event in events:
        groups[(event.domain, event.group)].add(event.track_name)
    pids: dict[tuple[str, str], int] = {}
    tids: dict[tuple[int, str], int] = {}
    for pid, key in enumerate(sorted(groups), start=1):
        pids[key] = pid
        for tid, track in enumerate(sorted(groups[key]), start=1):
            tids[(pid, track)] = tid
    return pids, tids


def to_chrome_trace(tracer: Tracer) -> dict[str, Any]:
    """Render a tracer's events as a Chrome trace-event JSON object."""
    events = tracer.events()
    pids, tids = _stable_ids(events)

    out: list[dict[str, Any]] = []
    # Metadata first: name the processes and threads.
    for (domain, group), pid in sorted(pids.items(), key=lambda item: item[1]):
        out.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"{group} [{domain}]"},
            }
        )
    for (pid, track), tid in sorted(tids.items(), key=lambda item: (item[0], item[1])):
        out.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pid,
                "tid": tid,
                "args": {"name": track},
            }
        )

    flow_ids: dict[str, int] = {}

    def flow_number(flow_id: str) -> int:
        number = flow_ids.get(flow_id)
        if number is None:
            number = len(flow_ids) + 1
            flow_ids[flow_id] = number
        return number

    for event in events:
        pid = pids[(event.domain, event.group)]
        tid = tids[(pid, event.track_name)]
        base: dict[str, Any] = {
            "name": event.name,
            "pid": pid,
            "tid": tid,
            "ts": event.ts * _US,
        }
        if event.cat:
            base["cat"] = event.cat
        args = event.args_dict()
        if event.kind == KIND_SPAN:
            base.update(ph="X", dur=event.dur * _US)
            if args:
                base["args"] = args
            out.append(base)
        elif event.kind == KIND_ASYNC:
            ident = flow_number(event.flow_id)
            begin = dict(base, ph="b", id=ident, cat=event.cat or "async")
            if args:
                begin["args"] = args
            out.append(begin)
            out.append(
                {
                    "name": event.name,
                    "pid": pid,
                    "tid": tid,
                    "ts": (event.ts + event.dur) * _US,
                    "ph": "e",
                    "id": ident,
                    "cat": event.cat or "async",
                }
            )
        elif event.kind == KIND_INSTANT:
            base.update(ph="i", s="t")
            if args:
                base["args"] = args
            out.append(base)
        elif event.kind == KIND_COUNTER:
            base.update(ph="C", args=args)
            out.append(base)
        elif event.kind in _FLOW_PH:
            base.update(
                ph=_FLOW_PH[event.kind],
                id=flow_number(event.flow_id),
                cat=event.cat or "flow",
            )
            if event.kind == KIND_FLOW_END:
                base["bp"] = "e"
            out.append(base)
        else:  # pragma: no cover - TraceEvent kinds are closed
            raise ValueError(f"unknown event kind {event.kind!r}")

    return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, path: str | Path) -> Path:
    """Write the Perfetto-loadable JSON for ``tracer`` to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_chrome_trace(tracer), sort_keys=True) + "\n")
    return path


def validate_chrome_trace(data: Mapping[str, Any]) -> list[str]:
    """Schema-check a Chrome trace object; returns a list of problems.

    Checks the invariants Perfetto relies on: a ``traceEvents`` list, known
    phase codes, numeric non-negative timestamps, ``X`` events carrying a
    numeric ``dur``, async/flow events carrying an ``id``, and every
    pid/tid referenced by an event being named by metadata.
    """
    problems: list[str] = []
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    known_ph = {"M", "X", "i", "b", "e", "s", "t", "f", "C"}
    named_pids: set[int] = set()
    named_tids: set[tuple[int, int]] = set()
    for index, event in enumerate(events):
        where = f"event[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in known_ph:
            problems.append(f"{where}: unknown ph {ph!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{where}: missing name")
        if not isinstance(event.get("pid"), int) or not isinstance(event.get("tid"), int):
            problems.append(f"{where}: pid/tid must be ints")
            continue
        if ph == "M":
            if event["name"] == "process_name":
                named_pids.add(event["pid"])
            elif event["name"] == "thread_name":
                named_tids.add((event["pid"], event["tid"]))
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or not math.isfinite(ts) or ts < 0:
            problems.append(f"{where}: bad ts {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or not math.isfinite(dur) or dur < 0:
                problems.append(f"{where}: X event with bad dur {dur!r}")
        if ph in ("b", "e", "s", "t", "f") and "id" not in event:
            problems.append(f"{where}: {ph} event without id")
        if ph == "C" and not isinstance(event.get("args"), dict):
            problems.append(f"{where}: C event without args")
    for index, event in enumerate(events):
        if not isinstance(event, dict) or event.get("ph") == "M":
            continue
        pid, tid = event.get("pid"), event.get("tid")
        if isinstance(pid, int) and pid not in named_pids:
            problems.append(f"event[{index}]: pid {pid} has no process_name metadata")
        if isinstance(pid, int) and isinstance(tid, int) and (pid, tid) not in named_tids:
            problems.append(f"event[{index}]: tid {pid}/{tid} has no thread_name metadata")
    return problems


# --------------------------------------------------------------------- #
# JSONL event log
# --------------------------------------------------------------------- #
def event_to_record(event: TraceEvent) -> dict[str, Any]:
    """One JSONL record per event (lossless, reimportable)."""
    record: dict[str, Any] = {
        "kind": event.kind,
        "name": event.name,
        "track": event.track,
        "domain": event.domain,
        "ts": event.ts,
    }
    if event.dur:
        record["dur"] = event.dur
    if event.cat:
        record["cat"] = event.cat
    if event.flow_id:
        record["flow_id"] = event.flow_id
    if event.args:
        record["args"] = event.args_dict()
    return record


def write_jsonl(tracer: Tracer, path: str | Path) -> Path:
    """Write one JSON object per line: events, then a metrics trailer."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for event in tracer.events():
            fh.write(json.dumps(event_to_record(event), sort_keys=True) + "\n")
        metrics = tracer.metrics.as_dict()
        if metrics:
            fh.write(json.dumps({"kind": "metrics", "metrics": metrics}, sort_keys=True) + "\n")
    return path


def read_jsonl(path: str | Path) -> tuple[list[TraceEvent], dict[str, Any]]:
    """Load a JSONL event log back into events + the metrics trailer."""
    events: list[TraceEvent] = []
    metrics: dict[str, Any] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("kind") == "metrics":
            metrics = record.get("metrics", {})
            continue
        events.append(
            TraceEvent(
                kind=record["kind"],
                name=record["name"],
                track=record["track"],
                domain=record["domain"],
                ts=record["ts"],
                dur=record.get("dur", 0.0),
                cat=record.get("cat", ""),
                flow_id=record.get("flow_id", ""),
                args=tuple(sorted(record.get("args", {}).items())),
            )
        )
    return events, metrics


# --------------------------------------------------------------------- #
# Text summary
# --------------------------------------------------------------------- #
def summarize(events: Iterable[TraceEvent], metrics: Mapping[str, Any] | None = None) -> str:
    """A terminal-friendly digest: per-track then per-span-name totals, then metrics.

    The span-name table sums every span of one name across tracks, so a
    phase such as ``reconcile`` or ``sketch-flush`` reads as one row however
    many graphs or operators it ran for.
    """
    events = list(events)
    by_track: dict[tuple[str, str], dict[str, Any]] = {}
    by_name: dict[tuple[str, str], list] = {}  # (domain, name) -> [count, busy]
    for event in events:
        key = (event.domain, event.track)
        row = by_track.setdefault(
            key, {"spans": 0, "busy": 0.0, "instants": 0, "flows": 0, "end": 0.0}
        )
        if event.kind in (KIND_SPAN, KIND_ASYNC):
            row["spans"] += 1
            row["busy"] += event.dur
            named = by_name.setdefault((event.domain, event.name), [0, 0.0])
            named[0] += 1
            named[1] += event.dur
            row["end"] = max(row["end"], event.ts + event.dur)
        elif event.kind == KIND_INSTANT:
            row["instants"] += 1
            row["end"] = max(row["end"], event.ts)
        elif event.kind in (KIND_FLOW_START, KIND_FLOW_STEP, KIND_FLOW_END):
            row["flows"] += 1

    lines = [f"trace: {len(events)} events on {len(by_track)} tracks"]
    header = f"  {'track':<44} {'spans':>6} {'busy_s':>10} {'instants':>8} {'flows':>6}"
    lines.append(header)
    for (domain, track), row in sorted(by_track.items()):
        label = f"[{domain}] {track}"
        lines.append(
            f"  {label:<44} {row['spans']:>6d} {row['busy']:>10.4f}"
            f" {row['instants']:>8d} {row['flows']:>6d}"
        )
    if by_name:
        lines.append(f"  {'span':<44} {'count':>6} {'busy_s':>10}")
        for (domain, name), (count, busy) in sorted(by_name.items()):
            label = f"[{domain}] {name}"
            lines.append(f"  {label:<44} {count:>6d} {busy:>10.4f}")
    if metrics:
        lines.append("metrics:")
        for name in sorted(metrics):
            fields = metrics[name]
            rendered = ", ".join(f"{key}={fields[key]:g}" for key in sorted(fields))
            lines.append(f"  {name:<44} {rendered}")
    return "\n".join(lines)
