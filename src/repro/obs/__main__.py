"""CLI: inspect existing traces and gate the disabled tracer's cost.

Subcommands::

    python -m repro.obs summary trace.jsonl                # digest a JSONL log
    python -m repro.obs overhead                           # disabled-tracer cost

Traces are recorded by the commands that run things, through one
``--trace OUT`` flag (Chrome-trace JSON for Perfetto, or the raw event log
when OUT ends in ``.jsonl``)::

    python -m repro.experiments fig27 --quick --trace trace.json
    python -m repro.bench --quick --no-reference --trace trace.jsonl
"""

from __future__ import annotations

import argparse
import sys

from repro.obs.export import read_jsonl, summarize
from repro.obs.trace import disabled_overhead_ns


def _cmd_summary(args: argparse.Namespace) -> int:
    if not args.path.endswith(".jsonl"):
        # ``--trace OUT`` writes Chrome-trace JSON unless OUT ends in .jsonl.
        args.usage_error(
            f"{args.path} is not a JSONL event log; record one with --trace OUT.jsonl"
        )
    events, metrics = read_jsonl(args.path)
    print(summarize(events, metrics))
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    result = disabled_overhead_ns(iterations=args.iterations)
    for key in ("baseline_ns", "instant_ns", "span_ns"):
        print(f"{key:<12} {result[key]:8.1f}")
    worst = max(result["instant_ns"], result["span_ns"])
    if worst > args.budget_ns:
        print(
            f"FAIL: disabled-tracer overhead {worst:.1f} ns/call"
            f" exceeds budget {args.budget_ns:.0f} ns",
            file=sys.stderr,
        )
        return 1
    print(f"ok: disabled-tracer overhead {worst:.1f} ns/call (budget {args.budget_ns:.0f} ns)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.obs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    summary = sub.add_parser("summary", help="summarize a JSONL event log")
    summary.add_argument("path", help="JSONL event log written by --trace OUT.jsonl")
    summary.set_defaults(fn=_cmd_summary, usage_error=summary.error)

    overhead = sub.add_parser("overhead", help="measure disabled-tracer per-call cost")
    overhead.add_argument("--iterations", type=int, default=200_000)
    overhead.add_argument(
        "--budget-ns",
        type=float,
        default=2000.0,
        help="fail if a disabled emit call costs more than this (generous: CI noise)",
    )
    overhead.set_defaults(fn=_cmd_overhead)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
