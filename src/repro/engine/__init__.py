"""Incremental analysis engine: dependency-tracked caching for
admission at scale.

Every admission test re-analyzes a network that differs from the last
one by a handful of flows.  The per-hop / per-subsystem structure of
Algorithm Decomposed and Algorithm Integrated makes most intermediate
results reusable across such requests: a server whose incident flow
set and input curves did not change produces bit-identical local
results.  :class:`IncrementalEngine` exploits that with

* dependency tracking over the network's own flow and server-graph
  indexes (:mod:`repro.engine.depgraph`),
* a content-addressed cache of per-server / per-block intermediate
  results (:mod:`repro.engine.incremental`), and
* precise invalidation: a changed flow dirties only the servers on its
  path plus everything downstream via burstiness propagation.

Correctness contract: engine-produced :class:`repro.analysis.base.
DelayReport` objects are **bit-identical** to a cold full analysis —
enforced by the differential test harness in ``tests/engine/``.
"""

from repro.engine.depgraph import affected_cone
from repro.engine.incremental import (
    IncrementalEngine,
    describe_report_difference,
    reports_identical,
)
from repro.engine.parallel import subnetwork
from repro.engine.stats import EngineStats

__all__ = [
    "IncrementalEngine",
    "EngineStats",
    "affected_cone",
    "reports_identical",
    "describe_report_difference",
    "subnetwork",
]
