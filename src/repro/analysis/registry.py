"""The library's analyzers by name.

One map from each analyzer class's ``name`` attribute to the class, for
every layer that builds an analyzer from a string: the CLI's
``--analyzer``, the evaluation sweeps and journal recovery.  Each caller
keeps its own error for an unknown name.

Not imported by :mod:`repro.analysis` itself: Algorithm Integrated
(:mod:`repro.core.integrated`) imports that package, so the map lives
in a leaf module that imports both.
"""

from __future__ import annotations

from repro.analysis.base import Analyzer
from repro.analysis.decomposed import DecomposedAnalysis
from repro.analysis.feedback import FeedbackAnalysis
from repro.analysis.service_curve import ServiceCurveAnalysis
from repro.core.integrated import IntegratedAnalysis

__all__ = ["ANALYZERS", "PAPER_ANALYZERS"]

#: The paper's three algorithms (§4.3): what the evaluation sweeps.
PAPER_ANALYZERS: dict[str, type[Analyzer]] = {
    cls.name: cls
    for cls in (DecomposedAnalysis, ServiceCurveAnalysis,
                IntegratedAnalysis)
}

#: Every analyzer, including the cyclic-network feedback analysis.
ANALYZERS: dict[str, type[Analyzer]] = {
    **PAPER_ANALYZERS,
    FeedbackAnalysis.name: FeedbackAnalysis,
}
