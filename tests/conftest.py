"""Shared fixtures for the test suite.

Most tests run against a deliberately small simulated chip (64 cores, 256 KiB
per core) so that plan searches finish in milliseconds; a handful of
integration tests use the full IPU MK2 configuration.
"""

from __future__ import annotations

import os

import pytest

from repro.core import CostModel, SearchConstraints, T10Compiler
from repro.hw.spec import IPU_MK2, ChipSpec, KiB
from repro.runtime import Executor
from repro.serving import PlanCache

from scenarios import Testbed

#: Parallel-compilation width for the shared compiler fixture.  CI runs a
#: second matrix leg with ``REPRO_TEST_JOBS=4`` so the compiles going through
#: ``small_compiler`` exercise the forked-worker path (results are identical by
#: design; see docs/testing.md).  Tests building their own compilers choose
#: their own width.
TEST_JOBS = int(os.environ.get("REPRO_TEST_JOBS", "1"))


@pytest.fixture(scope="session")
def small_chip() -> ChipSpec:
    """A small inter-core connected chip used by most unit tests."""
    return ChipSpec(
        name="test-chip",
        num_cores=64,
        sram_per_core=256 * KiB,
        core_flops=100e9,
        link_bandwidth=5.5e9,
        link_latency=0.4e-6,
        offchip_bandwidth=8e9,
    )


@pytest.fixture(scope="session")
def tiny_chip() -> ChipSpec:
    """An even smaller chip for exhaustive/placement tests."""
    return ChipSpec(
        name="tiny-chip",
        num_cores=8,
        sram_per_core=128 * KiB,
        core_flops=100e9,
        link_bandwidth=5.5e9,
        link_latency=0.4e-6,
        offchip_bandwidth=8e9,
    )


@pytest.fixture(scope="session")
def ipu_chip() -> ChipSpec:
    """The full IPU MK2 configuration."""
    return IPU_MK2


@pytest.fixture(scope="session")
def small_cost_model(small_chip: ChipSpec) -> CostModel:
    """Cost model fitted against the small test chip (shared across tests)."""
    return CostModel.fit(small_chip, samples_per_type=24)


@pytest.fixture(scope="session")
def tiny_cost_model(tiny_chip: ChipSpec) -> CostModel:
    """Cost model fitted against the tiny test chip."""
    return CostModel.fit(tiny_chip, samples_per_type=24)


@pytest.fixture(scope="session")
def ipu_cost_model(ipu_chip: ChipSpec) -> CostModel:
    """Cost model fitted against the full IPU MK2."""
    return CostModel.fit(ipu_chip, samples_per_type=24)


@pytest.fixture(scope="session")
def fast_constraints() -> SearchConstraints:
    """Constraints keeping unit-test plan searches fast."""
    return SearchConstraints(
        min_core_utilization=0.75,
        core_count_samples=4,
        max_factorizations_per_target=80,
        max_temporal_combos=16,
    )


@pytest.fixture()
def small_compiler(small_chip, small_cost_model, fast_constraints) -> T10Compiler:
    """A T10 compiler bound to the small test chip."""
    return T10Compiler(
        small_chip,
        cost_model=small_cost_model,
        constraints=fast_constraints,
        jobs=TEST_JOBS,
    )


@pytest.fixture()
def cache(small_cost_model) -> PlanCache:
    """An in-memory plan cache compiling with the shared test cost model."""
    return PlanCache(
        compiler_factory=lambda chip, constraints: T10Compiler(
            chip, cost_model=small_cost_model, constraints=constraints
        ),
    )


@pytest.fixture()
def small_executor(small_chip) -> Executor:
    """Executor bound to the small test chip."""
    return Executor(small_chip)


@pytest.fixture(scope="session")
def testbed(small_chip, small_cost_model, fast_constraints) -> Testbed:
    """The serving property tests' chip, constraints and shared plan caches
    (serial and ``jobs=2``): every example after the first replays warm."""

    def cache(jobs: int) -> PlanCache:
        return PlanCache(
            compiler_factory=lambda chip, constraints: T10Compiler(
                chip, cost_model=small_cost_model, constraints=constraints, jobs=jobs
            ),
        )

    bed = Testbed(small_chip, fast_constraints, cache(1), cache(2))
    yield bed
    bed.cache.close()
    bed.cache_jobs2.close()
