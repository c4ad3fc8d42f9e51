"""Operator graphs: the model-level IR.

A model is a DAG of operators.  T10 parses ONNX models into this form (paper
§5); our reproduction builds graphs directly with the Python model builders in
:mod:`repro.models`.  The graph records producer/consumer edges so the
inter-operator scheduler knows which intermediate tensors flow between
operators (it inserts all-to-all layout transitions on those edges when two
consecutive operators pick mismatched partitionings).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import networkx as nx

from repro.ir.operator import Operator
from repro.ir.tensor import TensorRole
from repro.utils.fingerprint import stable_hash


@dataclass
class OperatorGraph:
    """Directed acyclic graph of :class:`~repro.ir.operator.Operator` nodes."""

    name: str = "model"
    _graph: nx.DiGraph = field(default_factory=nx.DiGraph, repr=False)
    _fingerprint: str | None = field(default=None, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add(self, operator: Operator, inputs: Sequence[str | Operator] = ()) -> Operator:
        """Add ``operator`` to the graph, depending on the named producers.

        ``inputs`` lists the operators whose outputs feed this one; they must
        already be in the graph.  Returns the operator for chaining.  Every
        producer is checked before the graph changes, so a rejected add
        leaves it as it was.  The new node's edges all come from existing
        nodes into a node with no successors, so no add can close a cycle.
        """
        name = operator.name
        if name in self._graph:
            raise ValueError(f"duplicate operator name {name!r}")
        producers = [
            producer.name if isinstance(producer, Operator) else producer
            for producer in inputs
        ]
        for producer in producers:
            if producer == name:
                raise ValueError(f"operator {name!r} cannot depend on itself")
            if producer not in self._graph:
                raise ValueError(
                    f"operator {name!r} depends on unknown producer {producer!r}"
                )
        self._graph.add_node(name, op=operator)
        self._graph.add_edges_from((producer, name) for producer in producers)
        self._fingerprint = None
        return operator

    def extend(self, operators: Iterable[tuple[Operator, Sequence[str]]]) -> None:
        """Add several ``(operator, input names)`` pairs in order."""
        for operator, inputs in operators:
            self.add(operator, inputs)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._graph.number_of_nodes()

    def __iter__(self) -> Iterator[Operator]:
        return iter(self.operators)

    def __contains__(self, name: str) -> bool:
        return name in self._graph

    @property
    def operators(self) -> list[Operator]:
        """Operators in topological (execution) order."""
        return [self._graph.nodes[name]["op"] for name in nx.topological_sort(self._graph)]

    def get(self, name: str) -> Operator:
        """Look an operator up by name."""
        if name not in self._graph:
            raise KeyError(name)
        return self._graph.nodes[name]["op"]

    def predecessors(self, name: str) -> list[Operator]:
        """Producers feeding the named operator."""
        return [self._graph.nodes[p]["op"] for p in self._graph.predecessors(name)]

    def successors(self, name: str) -> list[Operator]:
        """Consumers of the named operator's output."""
        return [self._graph.nodes[s]["op"] for s in self._graph.successors(name)]

    def edges(self) -> list[tuple[Operator, Operator]]:
        """Producer/consumer pairs."""
        return [
            (self._graph.nodes[u]["op"], self._graph.nodes[v]["op"])
            for u, v in self._graph.edges()
        ]

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #
    def fingerprint(self) -> str:
        """Stable content hash of the graph's structure.

        Covers every operator (name and full expression signature, hence
        shapes, dtypes, roles and op types) and every producer/consumer
        edge.  Nodes and edges are sorted by name so two graphs that contain
        the same operators and edges fingerprint identically regardless of
        the order they were built in.  The model's display ``name`` is
        deliberately excluded: the plan cache should share compiled programs
        between structurally identical graphs.

        Memoized on the instance until the next :meth:`add`, because every
        warm plan-cache lookup asks for it.
        """
        if self._fingerprint is None:
            nodes = sorted(
                (name, self._graph.nodes[name]["op"].signature()) for name in self._graph
            )
            edges = sorted(self._graph.edges())
            self._fingerprint = stable_hash(("operator-graph", tuple(nodes), tuple(edges)))
        return self._fingerprint

    # ------------------------------------------------------------------ #
    # Aggregate statistics
    # ------------------------------------------------------------------ #
    @property
    def total_flops(self) -> float:
        """Total FLOPs of one forward pass."""
        return sum(op.total_flops for op in self.operators)

    @property
    def total_weight_bytes(self) -> int:
        """Bytes of all persistent weights of the model."""
        return sum(op.weight_bytes for op in self.operators)

    @property
    def num_parameters(self) -> int:
        """Number of weight elements (parameters) of the model."""
        total = 0
        for op in self.operators:
            for spec in op.inputs:
                if spec.role is TensorRole.WEIGHT:
                    total += op.expr.tensor_elements(spec)
        return total

    @property
    def total_activation_bytes(self) -> int:
        """Bytes of all operator outputs (upper bound on live activations)."""
        return sum(op.output_bytes for op in self.operators)

    def unique_signatures(self) -> dict[tuple, int]:
        """Histogram of operator signatures (how much plan caching helps)."""
        histogram: dict[tuple, int] = {}
        for op in self.operators:
            signature = op.signature()
            histogram[signature] = histogram.get(signature, 0) + 1
        return histogram

    def op_type_histogram(self) -> dict[str, int]:
        """Histogram of operator kernel families."""
        histogram: dict[str, int] = {}
        for op in self.operators:
            histogram[op.op_type] = histogram.get(op.op_type, 0) + 1
        return histogram

    def summary(self) -> str:
        """Human-readable one-paragraph description of the graph."""
        kinds = ", ".join(
            f"{count}x {kind}" for kind, count in sorted(self.op_type_histogram().items())
        )
        return (
            f"{self.name}: {len(self)} operators ({kinds}); "
            f"{self.num_parameters / 1e6:.1f}M parameters, "
            f"{self.total_flops / 1e9:.2f} GFLOPs per pass"
        )
