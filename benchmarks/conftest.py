"""Shared setup for the benchmark suite.

Each benchmark regenerates one table or figure of the paper on a reduced grid
(quick mode) so the whole suite completes in minutes.  The IPU cost model is
fitted once up front so its (cached) construction does not pollute the first
benchmark's timing.
"""

from __future__ import annotations

from typing import Callable, Sequence

import pytest

from repro.core import default_cost_model
from repro.hw.spec import IPU_MK2
from repro.obs import Tracer, use_tracer


@pytest.fixture(scope="session", autouse=True)
def warm_cost_model():
    """Fit and cache the IPU MK2 cost model before any benchmark runs."""
    return default_cost_model(IPU_MK2)


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def replay_across_jobs(
    run: Callable[..., list[dict]], *, wall_clock: Sequence[str] = ()
) -> tuple[list[dict], Tracer]:
    """Run a figure's quick grid serially and at ``jobs=2``, each under its
    own tracer, and assert both runs are bit-identical: the rows (less the
    ``wall_clock`` columns) and the non-empty virtual event streams.

    Returns the serial rows and tracer for the figure's own assertions.
    """
    serial_tracer, parallel_tracer = Tracer(), Tracer()
    with use_tracer(serial_tracer):
        serial = run(quick=True, jobs=1)
    with use_tracer(parallel_tracer):
        parallel = run(quick=True, jobs=2)

    def strip(rows: list[dict]) -> list[dict]:
        return [{k: v for k, v in row.items() if k not in wall_clock} for row in rows]

    assert strip(serial) == strip(parallel)
    assert serial_tracer.virtual_events() == parallel_tracer.virtual_events()
    assert len(serial_tracer.virtual_events()) > 0
    return serial, serial_tracer
