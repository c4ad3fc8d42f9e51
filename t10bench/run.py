"""The repository benchmark: cold compiles plus serving replays, per workload.

    python3 t10bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 t10bench/run.py --workload all --out set.json     # every workload
    python3 t10bench/run.py compare A.json B.json              # two result files

A run starts rounds (``bench_round.py``, each a fresh Python process) one after
another until ``--seconds`` is used up, at least :data:`MIN_ROUNDS` of them,
and reports the median of each metric over its rounds.  The ``compile``
workload also checks one model's streamed plan frontier against the eager
reference search, in a process of its own.

With ``--trace 0`` the last line of standard output is the JSON result with
every end-to-end metric of ``BENCHMARK.json``.  With ``--trace 1`` one
untraced round sets the baseline, then traced rounds (layer shims
installed) give every per-layer metric, and the tracing overhead is traced
wall over untraced wall.  Both write a detailed record — every round's raw
and calibrated times and checked outputs — to ``--out`` (default
``.t10bench/results/``), which ``compare`` reads.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from compare import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ROUND = HERE / "bench_round.py"
SPEC = ROOT / "BENCHMARK.json"
OUTPUT = ROOT / ".t10bench"
#: Fewest rounds a run reports a median over (traced runs: traced rounds).
MIN_ROUNDS = 2
MIN_TRACED_ROUNDS = 1
#: A round that has not finished by then is killed and counted as failed.
ROUND_TIMEOUT_S = 150
#: One interpreter thread per round: no BLAS thread pools, fixed hashing.
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def run_child(args: list[str]) -> dict:
    """Run one ``bench_round.py`` process to completion; a crash becomes a failure."""
    command = [sys.executable, str(ROUND), *args]
    started = time.perf_counter()
    try:
        done = subprocess.run(
            command,
            capture_output=True,
            text=True,
            timeout=ROUND_TIMEOUT_S,
            cwd=ROOT,
            env={**os.environ, **CHILD_ENV},
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise ValueError(f"exit code {done.returncode}")
        record = json.loads(lines[-1])
    except subprocess.TimeoutExpired:
        record = {"attempted": 1, "failures": [f"round timed out: {' '.join(args)}"]}
    except ValueError as error:
        tail = done.stderr.strip().splitlines()[-5:]
        record = {"attempted": 1, "failures": [f"round crashed ({error}): {' | '.join(tail)}"]}
    record["wall_s"] = time.perf_counter() - started
    return record


def run_rounds(
    base: list[str], seconds: float, minimum: int, extra: tuple[str, ...] = ()
) -> list[dict]:
    """Rounds one after another until ``seconds`` would be exceeded."""
    records: list[dict] = []
    started = time.perf_counter()
    while True:
        if len(records) >= minimum:
            mean_wall = statistics.fmean(record["wall_s"] for record in records)
            if time.perf_counter() - started + mean_wall > seconds:
                return records
        records.append(run_child([*base, *extra]))


def summarize(records: list[dict], key: str) -> dict[str, dict]:
    """Median and quartiles of every metric under ``key`` across rounds."""
    values: dict[str, list[float]] = {}
    for record in records:
        for name, value in record.get(key, {}).items():
            values.setdefault(name, []).append(
                value["value"] if isinstance(value, dict) else value
            )
    summary = {}
    for name, series in values.items():
        q1, median, q3 = quartiles(series)
        summary[name] = {"median": median, "q1": q1, "q3": q3, "n": len(series)}
    return summary


def run_workload(name: str, seed: int, seconds: float, traced: bool, quick: bool) -> dict:
    """All rounds of one workload run, as the detail record."""
    base = ["--workload", name, "--seed", str(seed)] + (["--quick"] if quick else [])
    result: dict = {"workload": name, "seed": seed, "seconds": seconds, "traced": traced}
    started = time.perf_counter()
    if traced:
        baseline = run_child(base)
        budget = max(0.0, seconds - (time.perf_counter() - started))
        trace_file = OUTPUT / "traces" / f"{name}-seed{seed}.json"
        rounds = [baseline] + run_rounds(
            base, budget, MIN_TRACED_ROUNDS, ("--trace", str(trace_file))
        )
    else:
        rounds = run_rounds(base, seconds, MIN_ROUNDS)
    result["rounds"] = rounds
    checks = []
    if name == "compile":
        checks.append(run_child(base + ["--reference"]))
    measured = [record for record in rounds if "metrics" in record]
    digests = {json.dumps(record["facts"], sort_keys=True) for record in measured}
    checks.append(
        {
            "consistency": "outputs identical across rounds",
            "attempted": 1,
            "failures": [] if len(digests) == 1 else [f"{len(digests)} distinct outputs"],
        }
    )
    result["checks"] = checks
    result["attempted"], result["failed"] = tally(rounds + checks)
    untraced = [record for record in measured if not record.get("traced")]
    result["summary"] = summarize(untraced, "metrics")
    traced_rounds = [record for record in measured if record.get("traced")]
    if traced_rounds:
        layers = summarize(traced_rounds, "layers")
        traced_s = statistics.median(_measured_s(record) for record in traced_rounds)
        untraced_s = statistics.median(_measured_s(record) for record in untraced)
        layers["bench.trace_overhead"] = {
            "median": traced_s / untraced_s, "q1": None, "q3": None, "n": 1,
        }
        result["layers"] = layers
        result["layer_table"] = traced_rounds[0]["layer_table"]
        result["absent_layers"] = traced_rounds[0]["absent_layers"]
    result["wall_s"] = time.perf_counter() - started
    return result


def tally(records: list[dict]) -> tuple[int, int]:
    """(attempted, failed) operations: a record with any failure failed once."""
    attempted = sum(record.get("attempted", 1) for record in records)
    return attempted, sum(1 for record in records if record.get("failures"))


def _measured_s(record: dict) -> float:
    """Calibrated seconds of a round's two measured phases."""
    metrics = record["metrics"]
    return metrics["compile_s"] + record["requests"] / metrics["sim_rps"]


def print_result(result: dict, spec: dict) -> None:
    """Human-readable rounds and summary (before the JSON line)."""
    print(f"== {result['workload']} seed {result['seed']}: "
          f"{len(result['rounds'])} rounds in {result['wall_s']:.1f}s")
    for record in result["rounds"]:
        if "metrics" not in record:
            print(f"   round failed: {record['failures']}")
            continue
        raw = record["raw_s"]
        tag = "traced" if record["traced"] else "round "
        print(
            f"   {tag} setup {raw['setup']:.3f}s compile {raw['compile']:.3f}s "
            f"serve {raw['serve']:.3f}s raw; calibration "
            + " ".join(f"{value:.3f}" for value in record["calibration_s"])
            + f"s; {len(record['failures'])} failures"
        )
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    for name, unit in units.items():
        entry = result["summary"].get(name)
        if entry is not None:
            print(f"   {name:<16} {entry['median']:>14.6g} {unit:<6} "
                  f"(q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, n={entry['n']})")
    if "layer_table" in result:
        print(f"   {'layer':<32} {'calls':>9} {'total s':>9} {'self s':>9}")
        for row in result["layer_table"]:
            absent = "  (absent)" if row.get("absent") else ""
            print(f"   {row['layer']:<32} {row['calls']:>9} {row['total_s']:>9.4f} "
                  f"{row['self_s']:>9.4f}{absent}")
        print(f"   tracing overhead {result['layers']['bench.trace_overhead']['median']:.3f}x")
    for record in result["rounds"] + result["checks"]:
        for failure in record.get("failures", []):
            print(f"   FAILED: {failure}")


def final_line(results: list[dict], spec: dict, traced: bool) -> dict:
    """The JSON object the last line of standard output carries."""
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    metrics = {}
    for result in results:
        summary = result.get("layers", {}) if traced else result["summary"]
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        for metric in declared:
            entry = summary.get(metric["name"])
            if entry is None:
                raise RuntimeError(f"{result['workload']}: no value for {metric['name']}")
            metrics[prefix + metric["name"]] = {"value": entry["median"], "unit": metric["unit"]}
    failed = sum(result["failed"] for result in results)
    return {
        "correct": failed == 0,
        "attempted": sum(result["attempted"] for result in results),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    import argparse

    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:])
    if not (ROOT / "src" / "repro").is_dir() or not SPEC.is_file():
        print(f"run: {ROOT} holds no src/repro package or BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    workloads = tuple(workload["name"] for workload in spec["workloads"])
    parser = argparse.ArgumentParser(
        prog="t10bench/run.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", required=True, choices=workloads + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="test-sized workloads")
    parser.add_argument("--out", type=Path, default=None, help="detail record path")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = workloads if args.workload == "all" else (args.workload,)
    results = [
        run_workload(name, args.seed, seconds, bool(args.trace), args.quick) for name in names
    ]
    for result in results:
        print_result(result, spec)
    out = args.out or OUTPUT / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"quick": args.quick, "results": results}, indent=1) + "\n")
    print(f"detail: {out}")
    print(json.dumps(final_line(results, spec, bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
