"""Parallel batch admission: independent component groups, one pool.

A batch of connection requests partitions — by weak connectivity of
the *union* server graph (baseline flows plus every request path) —
into groups that cannot observe each other's admissions under
Algorithm Decomposed: a flow's bound, the stability of the servers on
its path, and every admission-decision reason string depend only on
the flows of its own component.  Each group is therefore evaluated
sequentially *inside one pool worker* (replicating the serial
test-then-commit ladder exactly), while distinct groups run
concurrently.

The planner (:func:`plan_batch`) only computes decisions; it never
mutates the controller.  Callers execute the plan in original request
order — the admission controller commits directly, the durable service
interleaves its write-ahead journal record before every commit — so
journal and state mutation stay serialized and idempotent regardless
of worker count.

**Determinism contract**: every decision (admitted flag, reason
string, ``new_flow_bound`` down to the last IEEE-754 bit, analyzer
label) equals what the serial ``admit`` loop would have produced.
This relies on invariants checked up front; whenever one fails —
non-decomposed primary, gated-off primary, unstable or
deadline-violating baseline, a request the grouping cannot place —
:func:`plan_batch` returns ``None`` and the caller falls back to the
serial loop.  Groups whose worker hits an :class:`~repro.errors.
AnalysisError` are re-run serially through the full fallback chain
(sound: groups are independent, so decisions are order-free across
groups).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Sequence

import networkx as nx

from repro.admission.requests import AdmissionDecision, ConnectionRequest
from repro.analysis.decomposed import DecomposedAnalysis
from repro.context import AnalysisContext, Deadline, MetricsRegistry
from repro.curves.kernels import current_kernel
from repro.engine.parallel import (
    merge_worker_metrics,
    open_worker_store,
    store_interceptors,
    subnetwork,
    write_seeds,
)
from repro.errors import (
    AnalysisError,
    FlowError,
    InstabilityError,
    TopologyError,
)
from repro.network.flow import Flow

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.admission.controller import AdmissionController

__all__ = ["plan_batch", "PlannedBatch"]

#: A planned batch: one entry per request, in order.  ``("decision",
#: AdmissionDecision)`` is ready to commit/journal; ``("serial", None)``
#: means "run this request through the ordinary serial path".
PlannedBatch = list[tuple[str, AdmissionDecision | None]]


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

def _admit_group(payload: tuple) -> dict:
    """Evaluate one group's requests sequentially against its subnet.

    Replicates :meth:`AdmissionController._test` verbatim — same check
    order, same reason strings, same float formatting — with commits
    simulated on the worker-local subnet.  Returns per-request decision
    tuples plus worker metrics and (optionally) engine cache seed
    records; an analysis failure aborts the whole group with
    ``ok=False`` so the driver re-runs it through the fallback chain.
    """
    (subnet, items, capped, kernel, budget, label, want_records,
     store_path) = payload
    metrics = MetricsRegistry()
    analyzer = DecomposedAnalysis(capped)
    records: dict = {}
    store = open_worker_store(store_path)
    step = None
    if want_records or store is not None:
        step, _ = store_interceptors(store, records, metrics)

    current = subnet
    decisions: list[tuple] = []
    for idx, flow in items:
        try:
            candidate = current.with_flow(flow)
        except TopologyError as exc:
            decisions.append((idx, False, f"topology: {exc}",
                              math.inf, ""))
            continue
        try:
            candidate.check_stability()
        except InstabilityError as exc:
            decisions.append((idx, False, f"overload: {exc}",
                              math.inf, ""))
            continue
        ctx = AnalysisContext(metrics=metrics, kernel=kernel)
        if budget is not None:
            ctx = ctx.with_deadline(
                Deadline(budget, f"{label} admission test"))
        if step is not None:
            ctx = ctx.with_interceptors(step=step)
        try:
            report = analyzer.analyze(candidate, ctx=ctx)
        except AnalysisError as exc:
            if store is not None:
                store.close()
            return {"ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                    "metrics": metrics.as_dict()}
        new_bound = report.delay_of(flow.name)
        rejected = None
        for f in candidate.flows.values():
            bound = report.delay_of(f.name)
            if bound > f.deadline:
                who = ("requested connection" if f.name == flow.name
                       else f"existing connection {f.name!r}")
                rejected = (idx, False,
                            f"deadline violation: {who} bound "
                            f"{bound:.4g} > deadline {f.deadline:.4g}",
                            new_bound, label)
                break
        if rejected is not None:
            decisions.append(rejected)
            continue
        decisions.append((idx, True, "all deadlines met", new_bound,
                          label))
        current = candidate
    if store is not None:
        store.close()
    return {"ok": True, "decisions": decisions,
            "metrics": metrics.as_dict(),
            "records": list(records.values())}


# ----------------------------------------------------------------------
# driver side
# ----------------------------------------------------------------------

class _UnionFind:
    def __init__(self) -> None:
        self._parent: dict = {}

    def find(self, x):
        parent = self._parent
        root = x
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra


def plan_batch(controller: "AdmissionController",
               requests: Sequence[ConnectionRequest], *,
               workers: int,
               ctx: AnalysisContext) -> PlannedBatch | None:
    """Plan a batch of admission tests across a process pool.

    Returns one entry per request (see :data:`PlannedBatch`), or
    ``None`` when any fast-path invariant fails and the whole batch
    must take the serial loop.  The plan is valid only against the
    controller state it was computed on — execute it immediately,
    committing in request order.
    """
    primary = controller.chain[0]
    base = getattr(primary, "analyzer", primary)
    network = controller.network
    if (not isinstance(base, DecomposedAnalysis)
            or not network.is_feedforward
            or ctx.deadline is not None
            or ctx.step_interceptor is not None
            or ctx.block_interceptor is not None):
        return None
    gate = controller._gate
    if gate is not None and not gate(primary):
        return None
    try:
        flows = [controller._flow_from_request(r) for r in requests]
    except FlowError:
        # An invalid request must raise *at its position in the serial
        # loop*, after earlier requests committed — only the serial
        # path reproduces that.
        return None

    # -- baseline health: stable and meeting every deadline ------------
    try:
        network.check_stability()
        baseline = primary.run(network, ctx)
    except (InstabilityError, AnalysisError):
        return None
    for f in network.flows.values():
        if baseline.delay_of(f.name) > f.deadline:
            return None

    # -- pre-screen requests the grouping cannot place -----------------
    servers = network.servers
    baseline_names = set(network.flows)
    batch_names: dict[str, int] = {}
    planned: PlannedBatch = [("serial", None)] * len(requests)
    placed: list[tuple[int, Flow]] = []
    for idx, flow in enumerate(flows):
        if flow.name in baseline_names:
            # with_flow checks duplicate names before unknown servers
            planned[idx] = ("decision", AdmissionDecision(
                False, f"topology: duplicate flow name {flow.name!r}"))
            continue
        unknown = next((s for s in flow.path if s not in servers), None)
        if unknown is not None:
            if flow.name in batch_names:
                return None  # unknown-server + in-batch name collision
            planned[idx] = ("decision", AdmissionDecision(
                False, f"topology: flow {flow.name!r} traverses "
                       f"unknown server {unknown!r}"))
            continue
        batch_names.setdefault(flow.name, idx)
        placed.append((idx, flow))
    if len(placed) < 2:
        return None

    # -- group by weak connectivity of the union graph -----------------
    graph = network.server_graph
    for _, flow in placed:
        graph.add_edges_from(zip(flow.path, flow.path[1:]))
    comp_of: dict = {}
    for k, comp in enumerate(nx.weakly_connected_components(graph)):
        for sid in comp:
            comp_of[sid] = k
    uf = _UnionFind()
    first_of_name: dict[str, int] = {}
    for _, flow in placed:
        root = comp_of[flow.path[0]]
        if flow.name in first_of_name:
            uf.union(first_of_name[flow.name], root)
        else:
            first_of_name[flow.name] = root
    groups: dict[int, list[tuple[int, Flow]]] = {}
    for idx, flow in placed:
        groups.setdefault(uf.find(comp_of[flow.path[0]]),
                          []).append((idx, flow))
    if len(groups) < 2:
        return None

    # -- evaluate groups on the pool -----------------------------------
    kernel = ctx.kernel if ctx.kernel is not None else current_kernel()
    store = controller.store
    store_path = str(store.path) if store is not None else None
    want_records = controller.engine is not None or store is not None
    payloads = []
    ordered_groups = sorted(groups.values(), key=lambda g: g[0][0])
    for items in ordered_groups:
        roots = {uf.find(comp_of[f.path[0]]) for _, f in items}
        keep = {sid for sid in network.servers
                if uf.find(comp_of[sid]) in roots}
        payloads.append((subnetwork(network, keep), items,
                         base.capped_propagation, kernel,
                         controller._budget, primary.name, want_records,
                         store_path))

    ctx.count("parallel.batch_groups", len(groups))
    seeds: list = []
    listener = controller._listener
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for items, result in zip(ordered_groups,
                                 pool.map(_admit_group, payloads)):
            merge_worker_metrics(ctx, result.get("metrics"))
            if not result["ok"]:
                ctx.count("parallel.group_serial_reruns")
                continue  # entries stay ("serial", None)
            seeds.extend(result.get("records", ()))
            for idx, admitted, reason, bound, label in result["decisions"]:
                planned[idx] = ("decision", AdmissionDecision(
                    admitted, reason, new_flow_bound=bound,
                    analyzer=label))
                if listener is not None and label:
                    listener(primary, None)
    # the single serialized write of worker results
    write_seeds(seeds, ctx, store=store, engine=controller.engine)
    return planned
