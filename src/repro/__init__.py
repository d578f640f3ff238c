"""repro — integrated end-to-end delay analysis for high speed networks.

A production-quality reproduction of C. Li, R. Bettati, W. Zhao,
*"New Delay Analysis in High Speed Networks"*, ICPP 1999: deterministic
worst-case delay bounds for feed-forward FIFO (and static-priority)
networks, with the paper's three analyses —

* :class:`repro.analysis.DecomposedAnalysis` (Cruz decomposition),
* :class:`repro.analysis.ServiceCurveAnalysis` (induced service curves),
* :class:`repro.core.IntegratedAnalysis` (the paper's contribution) —

plus the min-plus curve algebra, a packet-level validation simulator,
admission control, and a harness that regenerates the paper's figures.

Quickstart::

    from repro import build_tandem, IntegratedAnalysis, CONNECTION0
    net = build_tandem(n_hops=4, utilization=0.8)
    bound = IntegratedAnalysis().analyze(net).delay_of(CONNECTION0)
"""

from repro.analysis import (
    Analyzer,
    DecomposedAnalysis,
    DelayReport,
    FeedbackAnalysis,
    ServiceCurveAnalysis,
    compare_analyzers,
    relative_improvement,
)
from repro.admission import (
    AdmissionController,
    AdmissionDecision,
    ConnectionRequest,
)
from repro.core import (
    IntegratedAnalysis,
    PairAlongPath,
    SingletonPartition,
    TwoServerSubsystem,
    theorem1_bound,
)
from repro.curves import PiecewiseLinearCurve, TokenBucket
from repro.errors import (
    AnalysisError,
    AnalysisTimeoutError,
    InstabilityError,
    ReproError,
    ResilienceError,
    TopologyError,
)
from repro.network import (
    CONNECTION0,
    Discipline,
    Flow,
    Network,
    ServerSpec,
    build_tandem,
)
from repro.resilience import (
    BurstInflation,
    CompositeScenario,
    FaultScenario,
    ServerDegradation,
    ServerFailure,
    SurvivabilityReport,
    render_survivability,
    survivability,
)

__version__ = "1.0.0"


def __getattr__(name: str):
    # the simulator computes with numpy; it loads on first use, so the
    # analyses and the admission service run without numpy
    if name in ("NetworkSimulator", "simulate_greedy"):
        from repro import sim

        return getattr(sim, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


__all__ = [
    "__version__",
    # analyses
    "Analyzer",
    "DelayReport",
    "DecomposedAnalysis",
    "FeedbackAnalysis",
    "ServiceCurveAnalysis",
    "IntegratedAnalysis",
    "TwoServerSubsystem",
    "theorem1_bound",
    "PairAlongPath",
    "SingletonPartition",
    "compare_analyzers",
    "relative_improvement",
    # model
    "PiecewiseLinearCurve",
    "TokenBucket",
    "Flow",
    "Network",
    "ServerSpec",
    "Discipline",
    "build_tandem",
    "CONNECTION0",
    # applications
    "AdmissionController",
    "ConnectionRequest",
    "AdmissionDecision",
    "NetworkSimulator",
    "simulate_greedy",
    # resilience
    "FaultScenario",
    "ServerDegradation",
    "ServerFailure",
    "BurstInflation",
    "CompositeScenario",
    "SurvivabilityReport",
    "survivability",
    "render_survivability",
    # errors
    "ReproError",
    "InstabilityError",
    "TopologyError",
    "AnalysisError",
    "AnalysisTimeoutError",
    "ResilienceError",
]
