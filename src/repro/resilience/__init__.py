"""Resilience subsystem (system S14): fault injection and survivability.

Answers the operational question the paper's admission story leads to:
*which deadline guarantees survive a fault?*  Fault scenarios are pure
``Network -> Network`` transformations; the survivability analysis
re-runs any analyzer over the faulted counterparts (rerouting severed
flows where the topology allows); the circuit breaker stops retrying an
analyzer that keeps timing out.
"""

from repro.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
)
from repro.resilience.faults import (
    BurstInflation,
    CompositeScenario,
    FaultScenario,
    ServerDegradation,
    ServerFailure,
)
from repro.resilience.survivability import (
    MET,
    SEVERED,
    VIOLATED,
    FlowVerdict,
    ScenarioOutcome,
    SurvivabilityReport,
    render_survivability,
    survivability,
)

__all__ = [
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "FaultScenario",
    "ServerDegradation",
    "ServerFailure",
    "BurstInflation",
    "CompositeScenario",
    "MET",
    "VIOLATED",
    "SEVERED",
    "FlowVerdict",
    "ScenarioOutcome",
    "SurvivabilityReport",
    "survivability",
    "render_survivability",
]
