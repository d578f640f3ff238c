"""Shared plumbing for the process pools over independent components.

The paper's per-server decomposition makes weakly-connected components
of the server graph independent under Algorithm Decomposed: arrival
curves propagate along flow paths, and paths never leave a component.
Two pools use that — batch admission
(:mod:`repro.admission.batch`) and the fault-tolerant sweep
(:mod:`repro.eval.parallel`) — and both share what lives here:

* :func:`subnetwork` — the induced sub-:class:`~repro.network.topology.
  Network` of a set of whole components, preserving insertion order so
  per-server float summation order (and hence every IEEE-754 result
  bit) matches the full-network analysis;
* :func:`store_interceptors` — worker-side ``step``/``block``
  interceptors serving per-unit results from a read-only
  :class:`~repro.store.AnalysisStore` and collecting fresh ones;
* :func:`write_seeds` — the parent's single serialized write of those
  fresh results (single-writer discipline, see ``docs/STORE.md``);
* :func:`open_worker_store` and :func:`merge_worker_metrics`.

See ``docs/PARALLEL.md`` for which pool exists for what.
"""

from __future__ import annotations

import time
from typing import Hashable, Iterable, Sequence

from repro.analysis.propagation import server_step
from repro.context import AnalysisContext, MetricsRegistry
from repro.core.integrated import evaluate_block
from repro.engine.incremental import _block_key, _server_key
from repro.errors import EngineError, StoreError
from repro.network.topology import Network

__all__ = [
    "subnetwork",
    "open_worker_store",
    "store_interceptors",
    "write_seeds",
    "merge_worker_metrics",
]

ServerId = Hashable

#: One engine-cache seed record: (content key, result, compute s).
SeedRecord = tuple[bytes, object, float]


def subnetwork(network: Network,
               servers: Iterable[ServerId]) -> Network:
    """The induced sub-network on *servers* (insertion order kept).

    Includes every flow whose path lies inside *servers*; a flow with
    any hop outside raises :class:`~repro.errors.EngineError` (the
    caller partitioned wrongly — components always contain whole
    paths).
    """
    keep = set(servers)
    specs = [spec for sid, spec in network.servers.items() if sid in keep]
    flows = []
    for f in network.flows.values():
        inside = [sid in keep for sid in f.path]
        if all(inside):
            flows.append(f)
        elif any(inside):
            raise EngineError(
                f"flow {f.name!r} crosses the component boundary; "
                "components must contain whole paths")
    return Network(specs, flows, allow_cycles=network.allow_cycles)


# ----------------------------------------------------------------------
# worker side (runs in the pool processes)
# ----------------------------------------------------------------------

def open_worker_store(store_path: str | None):
    """A read-only store handle for a pool worker, or None.

    Workers never write (single-writer discipline, see
    ``docs/STORE.md``); a missing or unreadable store degrades to
    "no store" — the worker simply computes everything.
    """
    if store_path is None:
        return None
    from repro.store import AnalysisStore
    try:
        return AnalysisStore(store_path, read_only=True)
    except (StoreError, OSError):
        return None


def store_interceptors(store, records: dict,
                       metrics: MetricsRegistry | None = None):
    """``(step, block)`` interceptors backed by a persistent store.

    Each per-server step or per-block evaluation is looked up in
    *store* (when not None) under the incremental engine's content
    keys, so a hit is bit-identical by construction.  Workers have no
    previous sweep to replay, so every unit's input is built.  A miss
    computes the value and lands ``(key, value, compute seconds)`` in
    *records*, keyed by content key, for the parent's
    :func:`write_seeds`; a key already in *records* (a unit computed
    earlier in the same group) answers from there, before the store.
    With *metrics*, store probes count as ``store.hits`` /
    ``store.misses``.
    """
    def lookup(key_fn, compute, build):
        payload = build()
        key = key_fn(payload)
        known = records.get(key)
        if known is not None:
            return known[1]
        if store is not None:
            entry = store.get(key)
            if entry is not None:
                if metrics is not None:
                    metrics.inc("store.hits")
                return entry.value
            if metrics is not None:
                metrics.inc("store.misses")
        t0 = time.perf_counter()
        value = compute(payload)
        records[key] = (key, value, time.perf_counter() - t0)
        return value

    def step(sid, build):
        return lookup(_server_key, server_step, build)

    def block(kind, blk, build):
        return lookup(_block_key, evaluate_block, build)

    return step, block


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------

def write_seeds(records: Sequence[SeedRecord], ctx: AnalysisContext, *,
                store=None, engine=None) -> None:
    """The single serialized write of worker-computed seed records.

    With an *engine*, :meth:`~repro.engine.IncrementalEngine.seed_cache`
    takes them (and persists them to the engine's store when writable).
    Otherwise they go to *store*; a read-only store is skipped, and disk
    trouble is counted as ``store.write_errors``, never raised —
    persistence is an optimization, correctness never depends on it.
    """
    if not records:
        return
    if engine is not None:
        engine.seed_cache(records)
    elif store is not None and not store.read_only:
        try:
            ctx.count("store.writes", store.seed(records))
        except (StoreError, OSError):
            ctx.count("store.write_errors")


def merge_worker_metrics(ctx: AnalysisContext,
                         counters: dict[str, float] | None) -> None:
    """Fold a worker's counter snapshot into the parent context."""
    if counters:
        for name, value in counters.items():
            ctx.count(name, value)
