"""Tests of the benchmark itself, on the ``--quick`` workload sizes.

Rounds run in-process here (a real run starts each in a fresh process);
each workload runs once untraced and once traced with the same seed.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import bench_round
import compare
import run
from workloads import WORKLOADS

SPEC = json.loads(run.SPEC.read_text())
DETERMINISTIC = sorted(compare.DETERMINISTIC)


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    """workload -> (untraced record, traced record), both seed 0."""
    out = tmp_path_factory.mktemp("traces")
    return {
        name: (
            bench_round.run_round(name, 0, quick=True),
            bench_round.run_round(name, 0, quick=True, trace_out=out / f"{name}.json"),
        )
        for name in WORKLOADS
    }


def test_spec_lists_every_workload_and_metric_once():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) <= 128 + 16
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(rounds, name):
    untraced, traced = rounds[name]
    assert untraced["failures"] == [] and traced["failures"] == []
    for metric in SPEC["end_to_end"]:
        value = untraced["metrics"][metric["name"]]
        assert isinstance(value, float) and value == value, metric["name"]
    emitted = {key: entry["unit"] for key, entry in traced["layers"].items()}
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert emitted == {k: u for k, u in declared.items() if k != "bench.trace_overhead"}
    assert traced["absent_layers"] == []


def test_calibration_is_applied_beside_the_raw_time(rounds):
    record = rounds["continuous"][0]
    samples = record["calibration_s"]
    assert len(samples) == 5  # before set-up, then after it, the compile, schedule, replay
    low, high = bench_round.CALIB_REF_S / max(samples), bench_round.CALIB_REF_S / min(samples)
    for phase in ("setup", "compile", "serve"):
        raw, calibrated = record["raw_s"][phase], record["calibrated_s"][phase]
        assert raw > 0 and low * raw <= calibrated <= high * raw
    assert record["metrics"]["compile_s"] == record["calibrated_s"]["compile"]
    assert record["metrics"]["sim_rps"] == record["requests"] / record["calibrated_s"]["serve"]


def test_phase_clock_calibrates_each_unit_by_its_neighbours(monkeypatch):
    samples = iter([0.1, 0.2, 0.1])
    monkeypatch.setattr(bench_round, "calibration_seconds", lambda: next(samples))
    clock = bench_round.PhaseClock(head_s=1.0)
    clock.run("compile", lambda: None)
    clock.run("serve", lambda: None)
    clock.move("serve", "compile", 0.0)
    raw, calibrated = clock.totals()
    assert calibrated["setup"] == pytest.approx(1.0 * bench_round.CALIB_REF_S / 0.1)
    assert raw["compile"] >= 0 and calibrated["compile"] == pytest.approx(
        raw["compile"] * bench_round.CALIB_REF_S / 0.15
    )


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seeded_runs_repeat_their_outputs(rounds, name):
    untraced, traced = rounds[name]
    for metric in DETERMINISTIC:
        assert untraced["metrics"][metric] == traced["metrics"][metric], metric
    assert untraced["facts"] == traced["facts"]


def test_traced_counts_repeat(rounds, tmp_path):
    again = bench_round.run_round("fleet-chaos", 0, quick=True, trace_out=tmp_path / "again.json")
    first = rounds["fleet-chaos"][1]["layers"]
    counts = {k for k, entry in first.items() if entry["unit"] == "count"}
    assert {k: first[k] for k in counts} == {k: again["layers"][k] for k in counts}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_self_times_fit_in_the_replay(rounds, name):
    traced = rounds[name][1]
    assert all(row["self_s"] >= 0 for row in traced["layer_table"])
    assert 0 < traced["phase_self_s"]["serve"] <= traced["replay_wall_s"]
    assert traced["layers"]["serving.engine.run_s"]["value"] > 0


def test_chaos_fires_every_mechanism(rounds):
    layers = rounds["fleet-chaos"][1]["layers"]
    for name in ("chip_deaths", "requeued", "brownout_sheds"):
        assert layers[f"serving.faults.{name}"]["value"] > 0
    assert layers["serving.plan_cache.run_misses"]["value"] > 0


def test_duplicated_record_counts_as_failed():
    workload = WORKLOADS["continuous"](0, True)
    for unit in workload.compile_units():
        unit()
    workload.generate()
    workload.report = workload.replay()
    assert workload.check() == []
    completed = workload.report.completed
    workload.report = dataclasses.replace(workload.report, completed=completed + completed[:1])
    failures = workload.check()
    assert any("more than once" in failure for failure in failures)
    assert run.tally([{"attempted": 3, "failures": failures}, {"attempted": 1}]) == (4, 1)


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(base, [10.05, 10.0, 9.95], bound=0.1, better="lower") == "same"
    assert compare.verdict(base, [12.0, 12.1, 11.9], bound=0.1, better="lower") == "worse"
    assert compare.verdict(base, [12.0, 12.1, 11.9], bound=0.1, better="higher") == "better"
    noisy = [5.0, 10.0, 15.0, 20.0]
    assert compare.verdict(base, noisy, bound=0.1, better="lower") == "unresolved"
    assert compare.verdict(noisy, [1.0, 2.0], bound=0.1, better="lower") == "better"
    assert compare.verdict([0.9], [0.9], bound=0.0, better="higher", exact=True) == "same"
    assert compare.verdict([0.9], [0.8], bound=0.5, better="higher", exact=True) == "worse"
    assert compare.verdict([0.9] * 4, [0.9] * 5, bound=0.0, better="higher", exact=True) == "same"


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(run.SPEC, tmp_path)
    shutil.copytree(run.HERE, tmp_path / "t10bench", ignore=shutil.ignore_patterns("tests"))
    done = subprocess.run(
        [sys.executable, "t10bench/run.py", "--workload", "compile", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
