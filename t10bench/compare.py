"""Compare two benchmark result files under the bounds in BENCHMARK.json.

    python3 t10bench/run.py compare A.json B.json

``A`` is the baseline and ``B`` the candidate; both are detail records
written by ``run.py --out`` (one workload or ``--workload all``).  Every
(metric, workload) pair present in both gets one row with both medians,
both quartile ranges and a verdict:

* ``unresolved`` — either side's quartile spread exceeds the bound, unless
  every round of ``B`` beats every round of ``A`` (then ``better``);
* ``worse`` / ``better`` — the medians differ by more than the bound;
* ``same`` — otherwise.

Metrics that are a pure function of the seed (:data:`DETERMINISTIC`) are
compared exactly when both files used the same seed.  The exit code is 1
when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Simulated (virtual-time) outputs: identical for identical seeds.
DETERMINISTIC = frozenset({"slo_attainment", "goodput_rps", "ttft_p50_ms", "ttft_p95_ms"})


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of a run's few rounds, never outside their range."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(
    base: list[float], new: list[float], *, bound: float, better: str, exact: bool = False
) -> str:
    """One row's verdict (see the module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    q1a, ma, q3a = quartiles(base)
    q1b, mb, q3b = quartiles(new)
    if exact:
        if mb == ma:
            return "same"
        return "better" if sign * (mb - ma) > 0 else "worse"
    if (q3a - q1a) / abs(ma) > bound or (q3b - q1b) / abs(mb) > bound:
        if better == "higher":
            dominates = min(new) > max(base)
        else:
            dominates = max(new) < min(base)
        return "better" if dominates else "unresolved"
    change = sign * (mb - ma) / abs(ma)
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "same"


def _series(path: Path) -> dict[str, dict]:
    """workload -> {"seed": n, "values": metric -> per-round values}."""
    data = json.loads(path.read_text())
    out = {}
    for result in data["results"]:
        values: dict[str, list[float]] = {}
        for record in result["rounds"]:
            if "metrics" in record and not record.get("traced"):
                for name, value in record["metrics"].items():
                    values.setdefault(name, []).append(value)
        out[result["workload"]] = {"seed": result["seed"], "values": values}
    return out


def compare(a_path: Path, b_path: Path, spec: dict) -> list[dict]:
    """Every (metric, workload) row of the comparison."""
    base, new = _series(a_path), _series(b_path)
    rows = []
    for workload in (name for name in base if name in new):
        same_seed = base[workload]["seed"] == new[workload]["seed"]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = base[workload]["values"].get(name)
            b = new[workload]["values"].get(name)
            if not a or not b:
                continue
            rows.append(
                {
                    "metric": name,
                    "workload": workload,
                    "a": quartiles(a),
                    "b": quartiles(b),
                    "verdict": verdict(
                        a, b, bound=metric["bound"], better=metric["better"],
                        exact=same_seed and name in DETERMINISTIC,
                    ),
                }
            )
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(Path(argv[0]), Path(argv[1]), spec)
    print(f"{'metric':<16} {'workload':<13} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34}  verdict")
    for row in rows:
        cells = [
            f"{median:.6g} [{q1:.4g}, {q3:.4g}]" for q1, median, q3 in (row["a"], row["b"])
        ]
        print(f"{row['metric']:<16} {row['workload']:<13} {cells[0]:>34} {cells[1]:>34}  "
              f"{row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0
