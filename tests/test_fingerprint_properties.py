"""Property-based tests for the stable fingerprints behind the plan cache.

The cache key must be *stable* (same content, same key — regardless of build
order or process) and *sensitive* (any change to shapes, dtypes, ops, edges,
chip resources or search constraints changes the key).
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.constraints import SearchConstraints
from repro.hw.interconnect import InterconnectConfig
from repro.hw.spec import ChipSpec, KiB
from repro.ir import OperatorGraph, elementwise, matmul
from repro.ir.dtype import DType
from repro.utils import canonicalize, stable_hash

dims = st.integers(min_value=2, max_value=256)


def build_chain(m: int, k: int, n: int, *, dtype: DType = DType.FP16) -> OperatorGraph:
    """A matmul -> relu -> matmul chain."""
    graph = OperatorGraph(name="chain")
    fc1 = graph.add(matmul("fc1", m=m, k=k, n=n, dtype=dtype))
    act = graph.add(
        elementwise("act", {"m": m, "n": n}, kind="relu", dtype=dtype), inputs=[fc1]
    )
    graph.add(matmul("fc2", m=m, k=n, n=k, dtype=dtype), inputs=[act])
    return graph


@settings(max_examples=25, deadline=None)
@given(shape=st.tuples(dims, dims, dims))
def test_build_order_does_not_change_fingerprint(shape):
    """Adding the same operators/edges in different orders yields one fingerprint."""
    m, k, n = shape
    forward = OperatorGraph(name="a")
    fc1 = forward.add(matmul("fc1", m=m, k=k, n=n))
    side = forward.add(elementwise("side", {"m": m, "n": n}, kind="relu"))
    forward.add(elementwise("join", {"m": m, "n": n}, kind="add"), inputs=[fc1, side])

    shuffled = OperatorGraph(name="b")
    shuffled.add(elementwise("side", {"m": m, "n": n}, kind="relu"))
    shuffled.add(matmul("fc1", m=m, k=k, n=n))
    shuffled.add(elementwise("join", {"m": m, "n": n}, kind="add"), inputs=["side", "fc1"])

    assert forward.fingerprint() == shuffled.fingerprint()


@settings(max_examples=25, deadline=None)
@given(shape=st.tuples(dims, dims, dims), bump=st.integers(min_value=1, max_value=16))
def test_any_shape_change_changes_fingerprint(shape, bump):
    m, k, n = shape
    base = build_chain(m, k, n)
    grown = build_chain(m + bump, k, n)
    assert base.fingerprint() != grown.fingerprint()


@settings(max_examples=10, deadline=None)
@given(shape=st.tuples(dims, dims, dims))
def test_dtype_change_changes_fingerprint(shape):
    m, k, n = shape
    assert (
        build_chain(m, k, n, dtype=DType.FP16).fingerprint()
        != build_chain(m, k, n, dtype=DType.FP32).fingerprint()
    )


@settings(max_examples=10, deadline=None)
@given(shape=st.tuples(dims, dims, dims))
def test_op_change_changes_fingerprint(shape):
    m, k, n = shape
    with_relu = OperatorGraph(name="g")
    with_relu.add(elementwise("op", {"m": m, "n": n}, kind="relu"))
    with_gelu = OperatorGraph(name="g")
    with_gelu.add(elementwise("op", {"m": m, "n": n}, kind="gelu"))
    with_matmul = OperatorGraph(name="g")
    with_matmul.add(matmul("op", m=m, k=k, n=n))
    prints = {
        with_relu.fingerprint(),
        with_gelu.fingerprint(),
        with_matmul.fingerprint(),
    }
    assert len(prints) == 3


@settings(max_examples=10, deadline=None)
@given(shape=st.tuples(dims, dims, dims))
def test_edges_matter_to_fingerprint(shape):
    """Same node set, different wiring => different fingerprint."""
    m, k, n = shape
    chained = OperatorGraph(name="g")
    a = chained.add(elementwise("a", {"m": m, "n": n}, kind="relu"))
    chained.add(elementwise("b", {"m": m, "n": n}, kind="relu"), inputs=[a])
    detached = OperatorGraph(name="g")
    detached.add(elementwise("a", {"m": m, "n": n}, kind="relu"))
    detached.add(elementwise("b", {"m": m, "n": n}, kind="relu"))
    assert chained.fingerprint() != detached.fingerprint()


def test_graph_name_does_not_change_fingerprint():
    one = build_chain(8, 16, 32)
    other = build_chain(8, 16, 32)
    other.name = "renamed"
    assert one.fingerprint() == other.fingerprint()


# --------------------------------------------------------------------------- #
# Chip and constraint fingerprints
# --------------------------------------------------------------------------- #
@settings(max_examples=20, deadline=None)
@given(
    cores=st.integers(min_value=1, max_value=4096),
    sram=st.integers(min_value=1, max_value=1024),
)
def test_chip_fingerprint_sensitive_to_every_resource(cores, sram):
    base = ChipSpec(
        name="chip",
        num_cores=cores,
        sram_per_core=sram * KiB,
        core_flops=1e9,
        link_bandwidth=1e9,
        link_latency=1e-6,
        offchip_bandwidth=1e9,
    )
    assert base.fingerprint() == dataclasses.replace(base).fingerprint()
    for change in (
        {"num_cores": cores + 1},
        {"sram_per_core": (sram + 1) * KiB},
        {"core_flops": 2e9},
        {"link_bandwidth": 2e9},
        {"name": "other"},
    ):
        assert base.fingerprint() != dataclasses.replace(base, **change).fingerprint()


def test_constraints_fingerprint_sensitive_to_fields():
    base = SearchConstraints()
    assert base.fingerprint() == SearchConstraints().fingerprint()
    assert base.fingerprint() != base.relaxed(max_plans=77).fingerprint()
    assert base.fingerprint() != base.relaxed(padding_threshold=0.5).fingerprint()


# --------------------------------------------------------------------------- #
# Memoized spec fingerprints
# --------------------------------------------------------------------------- #
def make_chip() -> ChipSpec:
    return ChipSpec(
        name="chip",
        num_cores=64,
        sram_per_core=256 * KiB,
        core_flops=1e9,
        link_bandwidth=1e9,
        link_latency=1e-6,
        offchip_bandwidth=1e9,
    )


#: (fresh-instance factory, module whose ``stable_hash`` it calls, hash tag,
#: a field change that must change the fingerprint)
MEMOIZED_SPECS = [
    pytest.param(make_chip, "repro.hw.spec", "chip-spec", {"num_cores": 65}, id="chip"),
    pytest.param(
        SearchConstraints,
        "repro.core.constraints",
        "search-constraints",
        {"max_plans": 77},
        id="constraints",
    ),
    pytest.param(
        lambda: InterconnectConfig(bandwidth=1e9),
        "repro.hw.interconnect",
        "interconnect",
        {"latency": 2e-6},
        id="interconnect",
    ),
]


@pytest.mark.parametrize("make, module, tag, change", MEMOIZED_SPECS)
def test_fingerprint_hashes_once_per_instance(monkeypatch, make, module, tag, change):
    calls = []

    def counting_hash(obj):
        calls.append(obj)
        return stable_hash(obj)

    monkeypatch.setattr(f"{module}.stable_hash", counting_hash)
    spec = make()
    first = spec.fingerprint()
    assert first == stable_hash((tag, spec))
    assert [spec.fingerprint() for _ in range(3)] == [first] * 3
    assert len(calls) == 1


@pytest.mark.parametrize("make, module, tag, change", MEMOIZED_SPECS)
def test_copies_get_their_own_fingerprint(make, module, tag, change):
    spec = make()
    spec.fingerprint()
    same = dataclasses.replace(spec)
    assert same.fingerprint() == spec.fingerprint()
    changed = dataclasses.replace(spec, **change)
    assert changed.fingerprint() == stable_hash((tag, changed))
    assert changed.fingerprint() != spec.fingerprint()


def test_with_cores_and_relaxed_get_fresh_fingerprints():
    chip = make_chip()
    chip.fingerprint()
    smaller = chip.with_cores(32)
    assert smaller.fingerprint() == stable_hash(("chip-spec", smaller))
    assert smaller.fingerprint() != chip.fingerprint()

    constraints = SearchConstraints()
    constraints.fingerprint()
    relaxed = constraints.relaxed(min_core_utilization=0.5)
    assert relaxed.fingerprint() == stable_hash(("search-constraints", relaxed))
    assert relaxed.fingerprint() != constraints.fingerprint()


@pytest.mark.parametrize("memoized", [False, True], ids=["cold", "memoized"])
@pytest.mark.parametrize("make, module, tag, change", MEMOIZED_SPECS)
def test_pickle_round_trip_keeps_identity(make, module, tag, change, memoized):
    spec = make()
    if memoized:
        spec.fingerprint()
    restored = pickle.loads(pickle.dumps(spec))
    assert restored == spec
    assert hash(restored) == hash(spec)
    assert restored.fingerprint() == spec.fingerprint() == stable_hash((tag, spec))


@pytest.mark.parametrize("make, module, tag, change", MEMOIZED_SPECS)
def test_memo_does_not_leak_into_field_views(make, module, tag, change):
    spec = make()
    before = (repr(spec), dataclasses.asdict(spec), canonicalize(spec))
    spec.fingerprint()
    assert (repr(spec), dataclasses.asdict(spec), canonicalize(spec)) == before
    assert spec == make()
    assert hash(spec) == hash(make())


# --------------------------------------------------------------------------- #
# Cross-process stability (the property pickle-on-disk caching depends on)
# --------------------------------------------------------------------------- #
def test_fingerprints_stable_across_processes():
    """Hash randomization (PYTHONHASHSEED) must not leak into fingerprints."""
    script = textwrap.dedent(
        """
        from repro.hw.spec import IPU_MK2
        from repro.ir import OperatorGraph, elementwise, matmul

        graph = OperatorGraph(name="x")
        fc = graph.add(matmul("fc", m=8, k=16, n=32))
        graph.add(elementwise("act", {"m": 8, "n": 32}, kind="relu"), inputs=[fc])
        print(graph.fingerprint(), IPU_MK2.fingerprint())
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = set()
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        outputs.add(result.stdout.strip())
    assert len(outputs) == 1


# --------------------------------------------------------------------------- #
# canonicalize()
# --------------------------------------------------------------------------- #
def test_canonicalize_orders_sets_and_mappings():
    assert canonicalize({"b": 1, "a": 2}) == canonicalize({"a": 2, "b": 1})
    assert canonicalize(frozenset({"x", "y", "z"})) == canonicalize(
        frozenset({"z", "y", "x"})
    )
    assert canonicalize((1, 2)) != canonicalize((2, 1))
    assert stable_hash([1, "a"]) == stable_hash((1, "a"))
    assert stable_hash(1) != stable_hash("1")


def test_canonicalize_rejects_unknown_types():
    with pytest.raises(TypeError):
        canonicalize(object())
