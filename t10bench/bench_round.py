"""One benchmark round, meant to run in a fresh Python process.

``python3 t10bench/bench_round.py --workload NAME --seed N [--quick] [--trace OUT]``
sets the workload up, runs its two measured phases (cold compile, replay),
checks the outputs untimed and prints one JSON object on its last line.
``--reference`` instead runs the compile workload's frontier check for the
model the seed picks.  ``run.py`` starts rounds one after another, so a round never
measures anything another round left warm.

Every time is reported raw and calibrated.  A fixed pure-Python loop is
timed before and after every unit of measured work (each model or
(model, chip class) compile, the replay, each set-up step), and a unit's
calibrated time is ``raw * CALIB_REF_S / mean(the two loops around it)``:
the machine's speed sampled right where the unit ran (see README.md).
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Seconds the calibration loop takes on the reference machine (a 2-CPU
#: container running CPython 3.11); calibrated times are in those seconds.
CALIB_REF_S = 0.1
_CALIB_ITERATIONS = 640_000


def calibration_seconds() -> float:
    """Time a fixed pure-Python loop of dict and list traffic."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    window: list[int] = []
    total = 0
    for i in range(_CALIB_ITERATIONS):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        window.append(key)
        if len(window) > 32:
            total += window.pop()
    elapsed = time.perf_counter() - start
    if total < 0:  # consumes the result so the loop cannot be skipped
        raise AssertionError
    return elapsed


class PhaseClock:
    """Raw and calibrated wall time per phase, one unit of work at a time."""

    def __init__(self, head_s: float) -> None:
        """``head_s`` is set-up time already spent (imports), before any sample."""
        self.samples = [calibration_seconds()]
        self.units: list[tuple[str, float, int]] = [("setup", head_s, 0)]
        """(phase, raw seconds, index of the calibration sample after the unit)."""

    def run(self, phase: str, work: Callable[[], Any]) -> Any:
        """Time ``work`` as one unit of ``phase`` and sample the machine after it."""
        start = time.perf_counter()
        result = work()
        self.units.append((phase, time.perf_counter() - start, len(self.samples)))
        self.samples.append(calibration_seconds())
        return result

    def move(self, source: str, target: str, seconds: float) -> None:
        """Re-attribute ``seconds`` of the last unit from ``source`` to ``target``."""
        after = self.units[-1][2]
        self.units += [(source, -seconds, after), (target, seconds, after)]

    def _factor(self, after: int) -> float:
        window = self.samples[max(0, after - 1) : after + 1]
        return CALIB_REF_S / statistics.fmean(window)

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """(raw, calibrated) seconds per phase."""
        raw: dict[str, float] = {}
        calibrated: dict[str, float] = {}
        for phase, seconds, after in self.units:
            raw[phase] = raw.get(phase, 0.0) + seconds
            calibrated[phase] = calibrated.get(phase, 0.0) + seconds * self._factor(after)
        return raw, calibrated

    @property
    def factor(self) -> float:
        """One factor for the whole round (applied to per-layer times)."""
        return CALIB_REF_S / statistics.median(self.samples)


def run_round(
    workload: str,
    seed: int,
    *,
    quick: bool = False,
    trace_out: Path | None = None,
    started: float | None = None,
) -> dict:
    """Run one round and return its record."""
    begin = time.perf_counter() if started is None else started
    clock = PhaseClock(time.perf_counter() - begin)
    from layers import GENERATE_LAYER, REPORT_LAYER, LayerProfile, install
    from workloads import WORKLOADS, read_report

    profile = install() if trace_out is not None else LayerProfile(enabled=False)
    try:
        instance = clock.run("setup", lambda: WORKLOADS[workload](seed, quick))
        profile.phase = "compile"
        for unit in instance.compile_units():
            clock.run("compile", unit)
        profile.phase = "setup"
        with profile.span(GENERATE_LAYER):
            clock.run("setup", instance.generate)

        def serve() -> dict[str, float]:
            instance.report = instance.replay()
            with profile.span(REPORT_LAYER):
                return read_report(instance.report)

        profile.phase = "serve"
        fields = clock.run("serve", serve)
        replay_wall_s = clock.units[-1][1]
        # Cold-restart recompiles inside the replay are compiler time.
        clock.move("serve", "compile", instance.report.cache.compile_seconds)
        profile.phase = "check"
        failures = instance.check()
        facts = instance.facts()
    finally:
        profile.uninstall()

    raw, calibrated = clock.totals()
    record = {
        "workload": workload,
        "seed": seed,
        "quick": quick,
        "traced": profile.enabled,
        "raw_s": raw,
        "calibrated_s": calibrated,
        "calibration_s": clock.samples,
        "units": clock.units,
        "metrics": {
            "setup_s": calibrated["setup"],
            "compile_s": calibrated["compile"],
            "sim_rps": len(instance.trace) / calibrated["serve"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **fields,
        },
        "requests": len(instance.trace),
        "replay_wall_s": replay_wall_s,
        "attempted": instance.operations() + 1,
        "failures": failures,
        "facts": facts,
    }
    if profile.enabled:
        from layers import layer_metrics, layer_table

        report = instance.report
        faults = report.faults
        for name, value in (
            ("engine.iterations", report.iterations),
            ("engine.preemptions", report.preemptions),
            ("engine.shed", report.shed),
            ("engine.migrations", report.migrations),
            ("engine.rebinds", report.rebinds),
            ("engine.scale_ups", report.scale_ups),
            ("faults.chip_deaths", faults.chip_deaths),
            ("faults.requeued", faults.requeued),
            ("faults.brownout_sheds", faults.brownout_sheds),
            ("faults.retry_drops", faults.retry_drops),
            ("request.requests", len(instance.trace)),
        ):
            profile.count(name, value)
        record["layers"] = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in layer_metrics(profile, clock.factor).items()
        }
        record["layer_table"] = layer_table(profile, clock.factor)
        record["absent_layers"] = profile.absent
        record["phase_self_s"] = profile.phase_self_s
        record["trace_file"] = str(profile.write(trace_out))
    return record


def reference_round(seed: int, *, quick: bool = False) -> dict:
    """The compile workload's frontier check, as a record."""
    from workloads import reference_check

    return {"reference": seed, "attempted": 1, "failures": reference_check(seed, quick)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", type=Path, default=None, metavar="OUT")
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"bench_round: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.reference:
        record = reference_round(args.seed, quick=args.quick)
    else:
        record = run_round(
            args.workload, args.seed, quick=args.quick, trace_out=args.trace, started=STARTED
        )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
