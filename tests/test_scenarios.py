"""The serving scenario generator (tests/scenarios.py) on its own.

One property draws every serving feature together — the engine, chips and
chip classes, stages, models, tenants, traffic, faults, watchdog and
scaler — and runs the three checks on every example.  A parametrized test
pins each entry of ``EXCLUSIONS`` to the engine check that justifies it, so
the ``composes`` filter cannot drift from what the engines accept.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st, target

from repro.serving import Watchdog, chip_death

from scenarios import (
    CONTINUOUS,
    ENGINES,
    EXCLUSIONS,
    FLEET,
    STATIC,
    Replay,
    Scaling,
    Scenario,
    check_scenario,
    composes,
    scenarios,
)


@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_every_drawn_scenario_passes_the_three_checks(engine, data, testbed):
    """Balanced books, a serial run equal to a ``jobs=2`` one, and a replay
    with the same virtual trace, whatever features compose.  Each engine
    draws its own examples, and the search is steered toward scenarios
    where more features meet."""
    scenario = data.draw(scenarios(engines=(engine,)))
    assert composes(scenario)
    features = (scenario.faults, scenario.watchdog, scenario.scaler, scenario.chip_classes)
    target(float(sum(map(bool, features))))
    check_scenario(scenario, testbed)


#: One scenario per exclusion, breaking that rule alone.
REJECTED = {
    "static runs take no faults": Scenario(STATIC, faults=(chip_death(1.0, 0),)),
    "static runs take no watchdog": Scenario(STATIC, watchdog=Watchdog()),
    "only fleet runs take a scaler": Scenario(CONTINUOUS, scaler=Scaling()),
    "a scaler needs a health-aware router": Scenario(
        FLEET, scaler=Scaling(), health_aware=False
    ),
    "only the fleet takes a router": Scenario(CONTINUOUS, health_aware=False),
    "only the fleet declares tenants": Scenario(CONTINUOUS, tenants=(0.5,)),
    "only the fleet takes chip classes": Scenario(
        CONTINUOUS, num_chips=2, chip_classes=(1,)
    ),
    "chip classes need num_stages == 1": Scenario(
        FLEET, num_chips=2, num_stages=2, chip_classes=(1,)
    ),
    "a single-model engine serves one model": Scenario(STATIC, models=2),
    "only the static engine takes a batch window": Scenario(FLEET, batch_window=1.0),
    "a chip group fits in the fleet": Scenario(CONTINUOUS, num_stages=2),
}


@pytest.mark.parametrize("name", list(EXCLUSIONS))
def test_each_exclusion_is_an_engine_rejection(name, testbed):
    """The scenario breaking one rule alone fails ``composes``, and its
    engine raises the error the rule names."""
    scenario = REJECTED[name]
    assert [rule for rule, (breaks, _) in EXCLUSIONS.items() if breaks(scenario)] == [name]
    assert not composes(scenario)
    with pytest.raises((TypeError, ValueError), match=EXCLUSIONS[name][1]):
        Replay(scenario, testbed).run()
