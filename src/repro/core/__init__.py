"""T10 compiler core: rTensor, compute-shift plans, cost model, schedulers.

This package is the paper's primary contribution.  The usual entry point is
:class:`~repro.core.compiler.T10Compiler`.
"""

from repro.core.compiler import CompiledModel, T10Compiler, default_cost_model
from repro.core.constraints import (
    DEFAULT_CONSTRAINTS,
    FAST_CONSTRAINTS,
    THOROUGH_CONSTRAINTS,
    SearchConstraints,
)
from repro.core.cost_model import CommModel, CostModel, KernelSample, LinearKernelModel
from repro.core.inter_op import InterOpScheduler, ModelSchedule, OperatorSchedule
from repro.core.intra_op import IntraOpOptimizer, SearchSpaceStats
from repro.core.parallel import (
    GraphSearchResult,
    ParallelCompilationEngine,
    SingleFlight,
    default_jobs,
    resolve_jobs,
)
from repro.core.pareto import ParetoAccumulator, pareto_front
from repro.core.placement import PlacementPlan
from repro.core.plan import (
    OperatorPlan,
    PlanFrontier,
    PlanSketch,
    ShiftOp,
    build_library_plan,
    build_plan,
    sketch_plan,
)
from repro.core.rtensor import RTensorConfig

__all__ = [
    "CommModel",
    "CompiledModel",
    "CostModel",
    "DEFAULT_CONSTRAINTS",
    "FAST_CONSTRAINTS",
    "GraphSearchResult",
    "InterOpScheduler",
    "IntraOpOptimizer",
    "KernelSample",
    "LinearKernelModel",
    "ModelSchedule",
    "OperatorPlan",
    "OperatorSchedule",
    "ParallelCompilationEngine",
    "ParetoAccumulator",
    "PlacementPlan",
    "PlanFrontier",
    "PlanSketch",
    "RTensorConfig",
    "SearchConstraints",
    "SearchSpaceStats",
    "ShiftOp",
    "SingleFlight",
    "T10Compiler",
    "THOROUGH_CONSTRAINTS",
    "build_library_plan",
    "build_plan",
    "default_cost_model",
    "default_jobs",
    "pareto_front",
    "resolve_jobs",
    "sketch_plan",
]
