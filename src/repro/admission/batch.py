"""Parallel batch admission: independent component groups, one pool.

A batch of connection requests partitions — by weak connectivity of
the *union* server graph (baseline flows plus every request path) —
into groups that cannot observe each other's admissions under
Algorithm Decomposed: a flow's bound, the stability of the servers on
its path, and every admission-decision reason string depend only on
the flows of its own component.  Each group is therefore evaluated
sequentially *inside one pool worker*, through a worker-local
:class:`~repro.admission.controller.AdmissionController`'s own
test-then-commit ladder, while distinct groups run concurrently.

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
AnalysisError`, raises or dies are re-run serially through the full
fallback chain (sound: groups are independent, so decisions are
order-free across groups).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Sequence

import networkx as nx

from repro.admission.controller import AdmissionController
from repro.admission.requests import AdmissionDecision, ConnectionRequest
from repro.analysis.decomposed import DecomposedAnalysis
from repro.context import AnalysisContext, MetricsRegistry
from repro.engine.parallel import (
    merge_worker_metrics,
    open_worker_store,
    store_interceptors,
    subnetwork,
    write_seeds,
)
from repro.errors import AnalysisError, FlowError, InstabilityError

__all__ = ["plan_batch", "PlannedBatch"]

#: A planned batch: one entry per request, in order.  ``("decision",
#: AdmissionDecision)`` is ready to commit/journal; ``("serial", None)``
#: means "run this request through the ordinary serial path".
PlannedBatch = list[tuple[str, AdmissionDecision | None]]


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

def _admit_group(payload: tuple) -> dict:
    """Run one group's requests through the controller's admission test.

    A worker-local :class:`AdmissionController` over the group's subnet
    (primary ``DecomposedAnalysis(capped)``, the parent's budget, no
    fallbacks) runs its own ``_test`` and ``commit`` for each request in
    order, so later requests see earlier in-group admissions.  Returns
    per-request ``(index, admitted, reason, bound, analyzed)`` tuples
    plus worker metrics and (optionally) engine cache seed records; the
    first :class:`~repro.errors.AnalysisError` aborts the whole group
    with ``ok=False`` so the driver re-runs it through the fallback
    chain.
    """
    subnet, items, capped, budget, want_records, store_path = payload
    metrics = MetricsRegistry()
    ctx = AnalysisContext(metrics=metrics)
    records: dict = {}
    store = open_worker_store(store_path)
    if want_records or store is not None:
        step, _ = store_interceptors(store, records, metrics)
        ctx = ctx.with_interceptors(step=step)
    errors: list[AnalysisError] = []

    def listen(analyzer, exc) -> None:
        if isinstance(exc, AnalysisError):
            errors.append(exc)

    controller = AdmissionController(
        subnet, DecomposedAnalysis(capped), analysis_budget=budget,
        context=ctx, analyzer_listener=listen)
    decisions: list[tuple] = []
    try:
        for idx, request in items:
            decision = controller._test(request, ctx)
            if errors:
                counters = metrics.as_dict()
                # the parent's serial rerun counts this failure itself
                counters.pop("admission.analyzer_failures", None)
                return {"ok": False, "metrics": counters}
            if decision.admitted:
                controller.commit(request, decision)
            decisions.append((idx, decision.admitted, decision.reason,
                              decision.new_flow_bound,
                              bool(decision.analyzer)))
    finally:
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


def plan_batch(controller: AdmissionController,
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
        for r in requests:
            controller._flow_from_request(r)
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
    # A baseline duplicate name or an unknown server fails inside
    # with_flow before any analysis runs, so the controller's own test
    # decides it here.
    servers = network.servers
    baseline_names = set(network.flows)
    batch_names: set[str] = set()
    planned: PlannedBatch = [("serial", None)] * len(requests)
    placed: list[tuple[int, ConnectionRequest]] = []
    for idx, request in enumerate(requests):
        duplicate = request.name in baseline_names
        if duplicate or any(s not in servers for s in request.path):
            if not duplicate and request.name in batch_names:
                return None  # unknown-server + in-batch name collision
            planned[idx] = ("decision", controller._test(request, ctx))
            continue
        batch_names.add(request.name)
        placed.append((idx, request))
    if len(placed) < 2:
        return None

    # -- group by weak connectivity of the union graph -----------------
    graph = network.server_graph
    for _, request in placed:
        graph.add_edges_from(zip(request.path, request.path[1:]))
    comp_of: dict = {}
    for k, comp in enumerate(nx.weakly_connected_components(graph)):
        for sid in comp:
            comp_of[sid] = k
    uf = _UnionFind()
    first_of_name: dict[str, int] = {}
    for _, request in placed:
        root = comp_of[request.path[0]]
        if request.name in first_of_name:
            uf.union(first_of_name[request.name], root)
        else:
            first_of_name[request.name] = root
    groups: dict[int, list[tuple[int, ConnectionRequest]]] = {}
    for idx, request in placed:
        groups.setdefault(uf.find(comp_of[request.path[0]]),
                          []).append((idx, request))
    if len(groups) < 2:
        return None

    # -- evaluate groups on the pool -----------------------------------
    store = controller.store
    store_path = str(store.path) if store is not None else None
    want_records = controller.engine is not None or store is not None
    payloads = []
    for items in sorted(groups.values(), key=lambda g: g[0][0]):
        roots = {uf.find(comp_of[r.path[0]]) for _, r in items}
        keep = {sid for sid in network.servers
                if uf.find(comp_of[sid]) in roots}
        payloads.append((subnetwork(network, keep), items,
                         base.capped_propagation,
                         controller._budget, want_records, store_path))

    ctx.count("parallel.batch_groups", len(groups))
    seeds: list = []
    listener = controller._listener
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_admit_group, p) for p in payloads]
        for future in futures:
            try:
                result = future.result()
            except Exception:  # a dead or raising worker
                result = {"ok": False}
            merge_worker_metrics(ctx, result.get("metrics"))
            if not result["ok"]:
                ctx.count("parallel.group_serial_reruns")
                continue  # entries stay ("serial", None)
            seeds.extend(result["records"])
            for idx, admitted, reason, bound, analyzed in result["decisions"]:
                planned[idx] = ("decision", AdmissionDecision(
                    admitted, reason, new_flow_bound=bound,
                    analyzer=primary.name if analyzed else ""))
                if listener is not None and analyzed:
                    listener(primary, None)
    # the single serialized write of worker results
    write_seeds(seeds, ctx, store=store, engine=controller.engine)
    return planned
