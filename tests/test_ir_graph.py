"""Tests for the operator graph."""

from __future__ import annotations

import pytest

from repro.ir import OperatorGraph, elementwise, matmul
from repro.models.registry import build_model, list_models
from repro.utils.fingerprint import stable_hash


def build_chain() -> OperatorGraph:
    graph = OperatorGraph(name="chain")
    a = matmul("a", m=8, k=8, n=8)
    b = matmul("b", m=8, k=8, n=8)
    c = elementwise("c", {"r": 8, "c": 8})
    graph.add(a)
    graph.add(b, [a])
    graph.add(c, [b.name, a.name])
    return graph


class TestConstruction:
    def test_len(self):
        assert len(build_chain()) == 3

    def test_topological_order(self):
        names = [op.name for op in build_chain().operators]
        assert names.index("a") < names.index("b") < names.index("c")

    def test_contains(self):
        graph = build_chain()
        assert "a" in graph and "z" not in graph

    def test_get(self):
        assert build_chain().get("b").name == "b"

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            build_chain().get("zzz")

    def test_duplicate_name_rejected(self):
        graph = build_chain()
        with pytest.raises(ValueError):
            graph.add(matmul("a", m=2, k=2, n=2))

    def test_unknown_producer_rejected(self):
        graph = OperatorGraph()
        with pytest.raises(ValueError):
            graph.add(matmul("x", m=2, k=2, n=2), ["missing"])

    @pytest.mark.parametrize(
        ("inputs", "error"),
        [(["a", "d"], "itself"), (["a", "missing"], "unknown"), (["missing", "a"], "unknown")],
        ids=str,
    )
    def test_rejected_add_leaves_graph_unchanged(self, inputs, error):
        """Every producer is checked before the graph changes: a rejected
        add (self-dependency or unknown producer) leaves no node, no
        partial edge and the same fingerprint."""
        graph = build_chain()
        digest = graph.fingerprint()
        edges = sorted((u.name, v.name) for u, v in graph.edges())
        with pytest.raises(ValueError, match=error):
            graph.add(matmul("d", m=8, k=8, n=8), inputs)
        assert "d" not in graph and len(graph) == 3
        assert sorted((u.name, v.name) for u, v in graph.edges()) == edges
        assert graph.fingerprint() == digest == build_chain().fingerprint()

    def test_extend(self):
        graph = OperatorGraph()
        a = matmul("a", m=2, k=2, n=2)
        b = matmul("b", m=2, k=2, n=2)
        graph.extend([(a, []), (b, ["a"])])
        assert len(graph) == 2


class TestQueries:
    def test_predecessors_and_successors(self):
        graph = build_chain()
        assert {op.name for op in graph.predecessors("c")} == {"a", "b"}
        assert {op.name for op in graph.successors("a")} == {"b", "c"}

    def test_edges(self):
        graph = build_chain()
        pairs = {(u.name, v.name) for u, v in graph.edges()}
        assert ("a", "b") in pairs and ("b", "c") in pairs


class TestStatistics:
    def test_total_flops_positive(self):
        assert build_chain().total_flops > 0

    def test_num_parameters(self):
        graph = build_chain()
        # Two matmuls with 8x8 weights each; the elementwise has none.
        assert graph.num_parameters == 2 * 8 * 8

    def test_unique_signatures(self):
        graph = build_chain()
        histogram = graph.unique_signatures()
        assert sum(histogram.values()) == 3
        assert max(histogram.values()) == 2  # the two identical matmuls

    def test_op_type_histogram(self):
        histogram = build_chain().op_type_histogram()
        assert histogram["matmul"] == 2

    def test_summary_mentions_name(self):
        assert "chain" in build_chain().summary()


def full_fingerprint(graph: OperatorGraph) -> str:
    """The graph digest hashed in one piece: the fingerprint's definition."""
    nodes = sorted((op.name, op.signature()) for op in graph.operators)
    edges = sorted((u.name, v.name) for u, v in graph.edges())
    return stable_hash(("operator-graph", tuple(nodes), tuple(edges)))


class TestFingerprint:
    @pytest.mark.parametrize("name", list_models())
    def test_matches_full_hash_on_registry_models(self, name):
        graph = build_model(name, 1)
        assert graph.fingerprint() == full_fingerprint(graph)
        # Memoized: the second call returns the very same digest object.
        assert graph.fingerprint() is graph.fingerprint()
        # An identically built second graph gets the same digest.
        assert build_model(name, 1).fingerprint() == graph.fingerprint()

    def test_add_invalidates_memo(self):
        graph = build_chain()
        before = graph.fingerprint()
        graph.add(elementwise("d", {"r": 8, "c": 8}), ["c"])
        assert graph.fingerprint() != before
        assert graph.fingerprint() == full_fingerprint(graph)

    def test_empty_graph(self):
        assert OperatorGraph().fingerprint() == full_fingerprint(OperatorGraph())
