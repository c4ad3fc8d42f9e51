"""Holistic inter-operator memory reconciliation (paper §4.3.2, Algorithm 1).

To execute a whole model from on-chip memory, every operator is given two
plans: an *idle* plan (memory-efficient layout of its persistent tensors held
while other operators run) and an *active* plan (latency-efficient layout used
while executing).  Transitioning idle → active costs a setup phase that
redistributes weight data over the inter-core links.

Starting from the most memory-efficient idle plan for every operator, the
scheduler repeatedly "promotes" the idle plan of the operator with the best
setup-time-saved per idle-byte-added ratio, re-evaluating the end-to-end time
estimate at each step and keeping the best configuration seen.

Identical operators (e.g. the repeated layers of a transformer) share the same
Pareto frontier, so the search groups them and promotes whole groups at once.
Like the paper's policy, it explores only ``sum(num idle plans)`` promising
combinations instead of their product.  Each step re-examines every group,
so the work per step is kept small: a group reads its frontier's idle bytes,
memory and time once, and prices the setup time of each (idle, active) plan
pair at most once per reconcile, the first time the search needs it.  The
pass therefore costs at most ``sum(|frontier|^2)`` cost-model calls, however
many steps it takes.

The search reads only four things of a frontier member: ``memory_bytes``,
``time_est``, ``idle_bytes`` and ``setup_bytes_from``.  A compile's frontiers
(:class:`~repro.core.plan.PlanFrontier`) hold priced sketches that answer
them with the built plans' values, so the search runs on sketches, and only
the idle and active plan chosen per group is built, when the schedule is
assembled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.cost_model import CostModel
from repro.core.plan import OperatorPlan, PlanFrontier
from repro.hw.memory import OutOfChipMemoryError
from repro.hw.spec import ChipSpec


@dataclass(frozen=True)
class OperatorSchedule:
    """Final (idle, active) plan pair chosen for one operator."""

    op_name: str
    idle_plan: OperatorPlan
    active_plan: OperatorPlan
    setup_bytes: int
    setup_time_est: float
    active_time_est: float


@dataclass
class ModelSchedule:
    """End-to-end schedule for a whole operator graph."""

    per_op: dict[str, OperatorSchedule]
    idle_memory_per_core: int
    est_total_time: float
    search_history: list[tuple[int, float]] = field(default_factory=list)
    """(idle memory per core, estimated end-to-end time) at every search step."""
    materialized_plans: int = field(default=0, compare=False)
    """Plans the reconcile built: picked frontier members not built before."""

    @property
    def est_setup_time(self) -> float:
        """Total estimated setup time across operators."""
        return sum(entry.setup_time_est for entry in self.per_op.values())

    @property
    def est_active_time(self) -> float:
        """Total estimated active execution time across operators."""
        return sum(entry.active_time_est for entry in self.per_op.values())


@dataclass
class _OpGroup:
    """Operators that share one Pareto frontier (identical signature).

    The search compares the same few per-member quantities on every step, so
    they are read off the frontier once.  ``setup_times[i]``, once filled,
    holds the setup time of activating every frontier member from idle
    member ``i``; rows are priced the first time the search looks at idle
    index ``i``, so each (idle, active) pair is priced at most once per
    reconcile.
    """

    names: list[str]
    frontier: PlanFrontier
    idle_index: int = 0
    idle_bytes: list[int] = field(init=False)
    memory_bytes: list[int] = field(init=False)
    time_est: list[float] = field(init=False)
    setup_times: list[list[float] | None] = field(init=False)

    def __post_init__(self) -> None:
        members = self.frontier.members
        self.idle_bytes = [member.idle_bytes for member in members]
        self.memory_bytes = [member.memory_bytes for member in members]
        self.time_est = [member.time_est for member in members]
        self.setup_times = [None] * len(members)

    @property
    def count(self) -> int:
        return len(self.names)


class InterOpScheduler:
    """Implements the greedy memory-reconciliation policy of Algorithm 1."""

    def __init__(
        self, chip: ChipSpec, cost_model: CostModel, *, max_search_steps: int = 512
    ) -> None:
        self.chip = chip
        self.cost_model = cost_model
        self.max_search_steps = max_search_steps

    # ------------------------------------------------------------------ #
    def reconcile(
        self, pareto_plans: Mapping[str, PlanFrontier | Sequence[OperatorPlan]]
    ) -> ModelSchedule:
        """Choose idle/active plans for every operator of a model.

        ``pareto_plans`` maps operator names to their Pareto frontier sorted
        by increasing memory footprint: a :class:`PlanFrontier`, whose
        chosen members are built here, or a sequence of built plans.  Raises
        :class:`~repro.hw.memory.OutOfChipMemoryError` if even the most
        memory-efficient configuration cannot fit on the chip.
        """
        groups = self._group_operators(pareto_plans)
        capacity = self.chip.sram_per_core

        history: list[tuple[int, float]] = []
        best_time = float("inf")
        best_state: list[int] | None = None

        for _ in range(self.max_search_steps):
            idle_total = self._idle_total(groups)
            if idle_total > capacity:
                break
            actives = [self._select_active(group, idle_total) for group in groups]
            total_time = self._estimate_total_time(groups, actives)
            history.append((idle_total, total_time))
            if total_time < best_time:
                best_time = total_time
                best_state = [group.idle_index for group in groups]
            promotion = self._best_promotion(groups, actives, idle_total, capacity)
            if promotion is None:
                break
            groups[promotion].idle_index += 1

        if best_state is None or best_time == float("inf"):
            raise OutOfChipMemoryError(
                self._idle_total(groups), capacity, "inter-operator reconciliation"
            )

        for group, index in zip(groups, best_state):
            group.idle_index = index
        return self._build_schedule(groups, history)

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _group_operators(
        pareto_plans: Mapping[str, PlanFrontier | Sequence[OperatorPlan]]
    ) -> list[_OpGroup]:
        groups: dict[int, _OpGroup] = {}
        for name, frontier in pareto_plans.items():
            if not len(frontier):
                raise ValueError(f"operator {name!r} has no feasible plan")
            # Frontiers are cached per operator signature, so identical
            # operators share the same frontier object; group them by identity.
            key = id(frontier)
            if key in groups:
                groups[key].names.append(name)
            elif isinstance(frontier, PlanFrontier):
                groups[key] = _OpGroup(names=[name], frontier=frontier)
            else:
                groups[key] = _OpGroup(names=[name], frontier=PlanFrontier(frontier))
        return list(groups.values())

    @staticmethod
    def _idle_total(groups: Sequence[_OpGroup]) -> int:
        return sum(group.idle_bytes[group.idle_index] * group.count for group in groups)

    def _setup_row(self, group: _OpGroup, idle: int) -> list[float]:
        """Setup time of every frontier plan activated from idle plan ``idle``."""
        row = group.setup_times[idle]
        if row is None:
            members = group.frontier.members
            idle_member = members[idle]
            row = [
                self.cost_model.setup_time(member.setup_bytes_from(idle_member))
                for member in members
            ]
            group.setup_times[idle] = row
        return row

    def _select_active(self, group: _OpGroup, idle_total: int) -> int | None:
        """Frontier index of the best-fitting active plan for one group.

        While an operator executes, its own idle (weight) footprint is
        subsumed by the active plan and every other operator keeps its idle
        footprint resident.  Among the plans whose active footprint fits,
        pick the one minimising setup-plus-execution time: a slightly slower
        plan whose weight layout matches the idle plan can beat the raw
        fastest plan once the idle→active transition is accounted for.
        """
        idle = group.idle_index
        available = self.chip.sram_per_core - idle_total + group.idle_bytes[idle]
        setup = self._setup_row(group, idle)
        best: int | None = None
        best_cost = float("inf")
        for index, memory in enumerate(group.memory_bytes):
            if memory > available:
                continue
            cost = group.time_est[index] + setup[index]
            if cost < best_cost:
                best = index
                best_cost = cost
        if best is None and group.memory_bytes[idle] <= available:
            best = idle
        return best

    def _estimate_total_time(
        self, groups: Sequence[_OpGroup], actives: Sequence[int | None]
    ) -> float:
        total = 0.0
        for group, active in zip(groups, actives):
            if active is None:
                return float("inf")
            setup = self._setup_row(group, group.idle_index)
            per_op = setup[active] + group.time_est[active]
            total += per_op * group.count
        return total

    def _best_promotion(
        self,
        groups: Sequence[_OpGroup],
        actives: Sequence[int | None],
        idle_total: int,
        capacity: int,
    ) -> int | None:
        """Group whose idle-plan promotion saves the most setup time per byte."""
        best_index: int | None = None
        best_ratio = 0.0
        for index, (group, active) in enumerate(zip(groups, actives)):
            idle = group.idle_index
            if idle + 1 >= len(group.frontier):
                continue
            delta_mem = (group.idle_bytes[idle + 1] - group.idle_bytes[idle]) * group.count
            if idle_total + max(delta_mem, 0) > capacity:
                continue
            if active is None:
                continue
            current_setup = self._setup_row(group, idle)[active]
            next_setup = self._setup_row(group, idle + 1)[active]
            saved = (current_setup - next_setup) * group.count
            if delta_mem <= 0:
                if saved >= 0:
                    # A free promotion: no extra idle memory, take it eagerly.
                    return index
                continue
            ratio = saved / delta_mem
            if ratio > best_ratio:
                best_ratio = ratio
                best_index = index
        return best_index

    def _build_schedule(
        self, groups: Sequence[_OpGroup], history: list[tuple[int, float]]
    ) -> ModelSchedule:
        """Build the chosen idle and active plan of every group, and only those."""
        idle_total = self._idle_total(groups)
        per_op: dict[str, OperatorSchedule] = {}
        total_time = 0.0
        built = 0
        for group in groups:
            active_index = self._select_active(group, idle_total)
            if active_index is None:
                raise OutOfChipMemoryError(
                    idle_total, self.chip.sram_per_core, group.names[0]
                )
            idle_plan, idle_built = group.frontier.build(group.idle_index)
            active, active_built = group.frontier.build(active_index)
            built += idle_built + active_built
            setup_bytes = active.setup_bytes_from(idle_plan)
            setup_time = self._setup_row(group, group.idle_index)[active_index]
            for name in group.names:
                per_op[name] = OperatorSchedule(
                    op_name=name,
                    idle_plan=idle_plan,
                    active_plan=active,
                    setup_bytes=setup_bytes,
                    setup_time_est=setup_time,
                    active_time_est=active.time_est,
                )
                total_time += setup_time + active.time_est
        return ModelSchedule(
            per_op=per_op,
            idle_memory_per_core=idle_total,
            est_total_time=total_time,
            search_history=history,
            materialized_plans=built,
        )
