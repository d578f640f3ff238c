"""Fault-tolerant process-parallel sweep evaluation.

Figure regeneration is embarrassingly parallel across (algorithm, size,
load) points; this module fans the grid out over a process pool.  Each
worker rebuilds its tandem and analyzer from plain picklable parameters
— analyses are pure functions of the network, so there is no shared
state to synchronize (the standard single-program multiple-data pattern;
per the project's HPC guidance we parallelize only the outer,
coarse-grained loop and keep the numeric kernels vectorized).

A long sweep must survive its workers: one crashed or hung process must
never cost the whole grid.  The evaluator therefore provides

* **per-task wall-clock timeouts** (a hung analysis is terminated with
  its pool and the sweep continues),
* **bounded retries with exponential backoff** (transient failures heal
  themselves),
* **crash isolation** (a point that keeps failing is *recorded* as an
  error entry in the result list, not raised), and
* **checkpoint/resume** (completed points stream to a JSONL file;
  ``resume=True`` re-runs only missing or failed points).

Worker processes are daemonic (``multiprocessing.Pool``), so even a
task that ignores termination cannot outlive the evaluator.

For fault-path testing and chaos drills, the environment variable
``REPRO_SWEEP_FAULT`` injects a fault into matching worker tasks:
``"crash@0.5"`` hard-exits the worker evaluating load 0.5, ``"hang@..."``
sleeps forever, ``"raise@..."`` raises; an empty selector matches every
task.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.context import NULL_CONTEXT, AnalysisContext, MetricsRegistry
from repro.curves.kernels import current_kernel, use_kernel
from repro.engine.parallel import (
    open_worker_store,
    store_interceptors,
    write_seeds,
)
from repro.eval.figures import _analyzer_factory
from repro.network.tandem import CONNECTION0, build_tandem
from repro.utils.durable import atomic_write_text

__all__ = ["SweepPoint", "evaluate_grid"]

#: Ceiling applied per task even when no explicit timeout is requested,
#: so a wedged worker can never stall a sweep indefinitely.
DEFAULT_TASK_TIMEOUT = 600.0

_Task = tuple[str, int, float, float]


@dataclass(frozen=True)
class SweepPoint:
    """One (algorithm, size, load) evaluation point and its result.

    ``error`` is ``None`` for successful points; failed points carry
    the failure description and ``delay = nan``.  ``attempts`` counts
    evaluation attempts (1 = first try succeeded).  ``elapsed_s`` is
    the wall-clock evaluation time of the successful attempt, and
    ``phases`` — populated only under ``profile=True`` — carries the
    point's :class:`~repro.context.MetricsRegistry` counters (curve
    kernel invocations, server steps, per-phase timers).  ``kernel``
    records the curve kernel the point was evaluated under (empty on
    rows checkpointed before kernels were recorded); resume treats a
    row produced under a different kernel as stale and re-runs it —
    grid-sampled and exact bounds must never mix in one sweep.
    """

    analyzer: str
    n_hops: int
    load: float
    sigma: float
    delay: float
    error: str | None = None
    attempts: int = 1
    elapsed_s: float = 0.0
    phases: Mapping[str, float] | None = None
    kernel: str = ""

    @property
    def ok(self) -> bool:
        """True when the point evaluated successfully."""
        return self.error is None


def _maybe_inject_fault(task: _Task) -> None:
    """Chaos hook: honor ``REPRO_SWEEP_FAULT`` (see module docstring)."""
    spec = os.environ.get("REPRO_SWEEP_FAULT")
    if not spec:
        return
    kind, _, selector = spec.partition("@")
    if selector and f"{task[2]:g}" != selector:
        return
    if kind == "crash":
        os._exit(13)
    elif kind == "hang":
        time.sleep(3600)
    elif kind == "raise":
        raise RuntimeError(f"injected fault on task {task}")


#: Per-process cache of opened (read-only) store handles, keyed by
#: path.  In serial mode :func:`evaluate_grid` registers its own
#: writable handle here so in-process evaluation probes live state.
_WORKER_STORES: dict = {}


def _worker_store(path: str):
    store = _WORKER_STORES.get(path)
    if path not in _WORKER_STORES or (store is not None and store.closed):
        store = open_worker_store(path)
        _WORKER_STORES[path] = store
    return store


def _evaluate_one(args: _Task, kernel: str, profile: bool = False,
                  store_path: str | None = None):
    """Evaluate one grid point under curve *kernel*; the worker entry
    point.

    The kernel travels as an argument, not through the worker's
    ambient selection, which a spawned (not forked) worker would not
    inherit.  Returns the bare :class:`SweepPoint` without a store, or
    ``(point, seed_records)`` when *store_path* is set — fresh
    per-unit results travel back to the driver, which owns the single
    writable handle.
    """
    analyzer_name, n_hops, load, sigma = args
    _maybe_inject_fault(args)
    start = time.perf_counter()
    analyzer = _analyzer_factory(analyzer_name)()
    net = build_tandem(n_hops, load, sigma)
    records: dict = {}
    ctx = (AnalysisContext(metrics=MetricsRegistry()) if profile
           else NULL_CONTEXT)
    if store_path is not None:
        step, block = store_interceptors(_worker_store(store_path),
                                         records)
        ctx = ctx.with_interceptors(step=step, block=block)
    with use_kernel(kernel):
        if profile:
            with ctx.metrics.timed("point"):
                delay = analyzer.run(net, ctx).delay_of(CONNECTION0)
        else:
            delay = analyzer.run(net, ctx).delay_of(CONNECTION0)
    phases = None
    if profile:
        phases = {k: round(float(v), 9)
                  for k, v in sorted(ctx.metrics.as_dict().items())}
    point = SweepPoint(analyzer_name, n_hops, load, sigma, delay,
                       elapsed_s=time.perf_counter() - start,
                       phases=phases, kernel=kernel)
    if store_path is not None:
        return point, list(records.values())
    return point


def _split_result(res) -> tuple[SweepPoint, list]:
    """Normalize a worker result to ``(point, seed_records)``."""
    if isinstance(res, tuple):
        return res
    return res, []


# ----------------------------------------------------------------------
# checkpointing
# ----------------------------------------------------------------------


def _point_to_record(point: SweepPoint) -> dict:
    rec = {
        "analyzer": point.analyzer,
        "n_hops": point.n_hops,
        "load": point.load,
        "sigma": point.sigma,
        "delay": None if math.isnan(point.delay) else point.delay,
        "error": point.error,
        "attempts": point.attempts,
        "elapsed_s": point.elapsed_s,
        "kernel": point.kernel,
    }
    if point.phases is not None:
        rec["phases"] = dict(point.phases)
    return rec


def _record_to_point(rec: dict) -> SweepPoint:
    delay = rec.get("delay")
    phases = rec.get("phases")
    return SweepPoint(
        rec["analyzer"], int(rec["n_hops"]), float(rec["load"]),
        float(rec["sigma"]),
        math.nan if delay is None else float(delay),
        error=rec.get("error"), attempts=int(rec.get("attempts", 1)),
        elapsed_s=float(rec.get("elapsed_s", 0.0)),
        phases=None if phases is None else dict(phases),
        kernel=str(rec.get("kernel", "")))


def _point_key(point: SweepPoint) -> _Task:
    return (point.analyzer, point.n_hops, point.load, point.sigma)


def _read_checkpoint(path: Path) -> dict[_Task, tuple[SweepPoint, str]]:
    """The latest ``(point, line)`` per task in a checkpoint file.

    Records are replayed in file order with last-write-wins per task: a
    killed run can leave the same point recorded more than once (e.g.
    success from one attempt, then an error from a re-queued attempt
    after a resume), and only the *latest* record counts.  Corrupt
    lines (a crash mid-write) are skipped.
    """
    latest: dict[_Task, tuple[SweepPoint, str]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            point = _record_to_point(json.loads(line))
        except (ValueError, KeyError, TypeError):
            continue
        latest[_point_key(point)] = (point, line)
    return latest


def _completed(latest: Mapping[_Task, tuple[SweepPoint, str]],
               kernel: str) -> dict[_Task, SweepPoint]:
    """The points resume may keep: those whose latest row is ok.

    Failed (error) rows are not kept: resume re-runs them — including
    when the error superseded an earlier success.  *kernel* is the
    curve kernel the resuming sweep runs under.  A successful row
    recorded under a *different* kernel is treated like a failure and
    re-run: its bound came from different arithmetic and must not be
    mixed into this sweep's results.  Rows from checkpoints that
    predate kernel recording carry ``kernel == ""`` and are also re-run
    — there is no way to know what produced them.
    """
    return {task: point for task, (point, _) in latest.items()
            if point.ok and point.kernel == kernel}


def _load_checkpoint(path: Path, kernel: str) -> dict[_Task, SweepPoint]:
    """Points a resume under *kernel* keeps from the file at *path*."""
    return _completed(_read_checkpoint(path), kernel)


class _Checkpointer:
    """Atomic JSONL sink for completed points (no-op when off).

    Every write rewrites the whole file through
    :func:`repro.utils.durable.atomic_write_text` (tmp + fsync +
    ``os.replace`` + parent-directory fsync), so the checkpoint on disk
    is always a complete, parseable JSONL snapshot that survives power
    loss — a crash mid-write can no longer leave a truncated last line
    (the old content survives instead).  Point volume is modest (one
    line per grid point), so rewriting is cheap relative to the
    analyses being checkpointed.

    On resume the carried-over lines are deduplicated per task with
    last-write-wins: a killed run can leave the same point both
    completed-in-file and re-queued, and without the dedupe every
    crash/resume cycle appended another record for it — growing the
    file and leaving its history ambiguous.  One record per task
    survives the rewrite; corrupt lines are dropped (the rewrite
    re-snapshots only parseable state).
    """

    def __init__(self, path: Path | None, resume: bool) -> None:
        self._path: Path | None = path
        #: latest ``(point, line)`` per task, as read on resume
        self.latest: dict[_Task, tuple[SweepPoint, str]] = {}
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        if resume and path.exists():
            self.latest = _read_checkpoint(path)
        self._replace()

    def _replace(self) -> None:
        assert self._path is not None
        content = "".join(line + "\n" for _, line in self.latest.values())
        atomic_write_text(self._path, content)

    def write(self, point: SweepPoint) -> None:
        if self._path is None:
            return
        self.latest[_point_key(point)] = (
            point, json.dumps(_point_to_record(point)))
        self._replace()

    def close(self) -> None:
        self._path = None
        self.latest = {}


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------


def _failure_point(task: _Task, error: str, attempts: int,
                   kernel: str) -> SweepPoint:
    a, n, u, s = task
    return SweepPoint(a, n, u, s, math.nan, error=error,
                      attempts=attempts, kernel=kernel)


def _run_serial(pending: list[tuple[_Task, int]], kernel: str,
                retries: int, backoff: float,
                record: Callable[[_Task, SweepPoint], None],
                profile: bool = False,
                store_path: str | None = None,
                collect: Callable[[list], None] | None = None) -> None:
    for task, attempt in pending:
        while True:
            # the isolation boundary wraps only the evaluation: an
            # exception out of record() itself (an expired ctx deadline,
            # a checkpoint-sink failure) must propagate, not be
            # re-recorded as a second, contradictory row for a point
            # that already succeeded
            try:
                point, seeds = _split_result(
                    _evaluate_one(task, kernel, profile, store_path))
                point = replace(point, attempts=attempt)
            except Exception as exc:  # noqa: BLE001 - isolation boundary
                if attempt > retries:
                    record(task, _failure_point(
                        task, f"{type(exc).__name__}: {exc}", attempt,
                        kernel))
                    break
                time.sleep(backoff * 2 ** (attempt - 1))
                attempt += 1
                continue
            if collect is not None and seeds:
                collect(seeds)
            record(task, point)
            break


def _run_parallel(pending: list[tuple[_Task, int]], kernel: str,
                  workers: int, timeout: float, retries: int,
                  backoff: float,
                  record: Callable[[_Task, SweepPoint], None],
                  profile: bool = False,
                  store_path: str | None = None,
                  collect: Callable[[list], None] | None = None) -> None:
    """Pool rounds: each round submits everything pending, a timeout
    kills the round's pool (the only way to stop a hung worker) and the
    unfinished remainder rolls into the next round."""
    while pending:
        next_round: list[tuple[_Task, int]] = []

        def fail(task: _Task, attempt: int, error: str) -> None:
            if attempt > retries:
                record(task, _failure_point(task, error, attempt, kernel))
            else:
                next_round.append((task, attempt + 1))

        pool = multiprocessing.Pool(processes=workers)
        try:
            handles = [(task, attempt,
                        pool.apply_async(_evaluate_one,
                                         (task, kernel, profile,
                                          store_path)))
                       for task, attempt in pending]
            poisoned = False
            for task, attempt, handle in handles:
                # after a kill, salvage whatever already finished and
                # roll the rest into the next round at no attempt cost
                wait = 0.05 if poisoned else timeout
                # only handle.get sits inside the isolation boundary:
                # if record() itself raises (expired ctx deadline,
                # checkpoint-sink failure) the task must not be
                # re-queued or re-recorded as an error — that race
                # wrote a second, contradictory checkpoint row for an
                # already-completed point
                try:
                    point, seeds = _split_result(handle.get(wait))
                    point = replace(point, attempts=attempt)
                except multiprocessing.TimeoutError:
                    if poisoned:
                        next_round.append((task, attempt))
                    else:
                        fail(task, attempt,
                             f"no result within {timeout:g}s "
                             "(worker hung or crashed)")
                        pool.terminate()
                        poisoned = True
                    continue
                except Exception as exc:  # noqa: BLE001 - worker raised
                    fail(task, attempt,
                         f"{type(exc).__name__}: {exc}")
                    continue
                if collect is not None and seeds:
                    collect(seeds)
                record(task, point)
        finally:
            pool.terminate()
            pool.join()
        pending = next_round
        if pending:
            max_attempt = max(a for _, a in pending)
            time.sleep(backoff * 2 ** (max_attempt - 2))


def evaluate_grid(analyzers: Sequence[str], hops: Sequence[int],
                  loads: Sequence[float], sigma: float = 1.0,
                  max_workers: int | None = None,
                  parallel: bool = True,
                  timeout: float | None = None,
                  retries: int = 1,
                  backoff: float = 0.25,
                  checkpoint: str | Path | None = None,
                  resume: bool = False,
                  store=None,
                  ctx: AnalysisContext = NULL_CONTEXT,
                  profile: bool = False,
                  progress: Callable[[int, int, int], None] | None = None,
                  ) -> list[SweepPoint]:
    """Evaluate Connection 0's bound over the full parameter grid.

    Parameters
    ----------
    analyzers:
        Analyzer names, keys of :data:`repro.analysis.registry.
        PAPER_ANALYZERS`.  Unknown names raise :class:`ValueError`
        before any work starts.
    hops, loads:
        Grid axes.
    sigma:
        Source burst size.
    max_workers:
        Pool size (default: ``os.cpu_count()``).
    parallel:
        Set False to run in-process (useful under profilers and on
        platforms where fork is unavailable).
    timeout:
        Per-task wall-clock limit in seconds (parallel mode); a task
        that produces no result in time is retried and eventually
        recorded as an error.  Defaults to a generous
        :data:`DEFAULT_TASK_TIMEOUT` ceiling so a wedged worker can
        never stall the sweep.
    retries:
        Extra attempts per failing task before its error is recorded.
    backoff:
        Base of the exponential retry backoff in seconds (the k-th
        retry waits ``backoff * 2**(k-1)``).
    checkpoint:
        Optional JSONL file; every completed point (success or final
        error) is appended as it lands, so a killed sweep loses at most
        in-flight work.
    resume:
        With *checkpoint*: load previously completed points and only
        evaluate missing or failed ones.
    store:
        Optional :class:`~repro.store.AnalysisStore` memoizing
        per-server / per-block results *across* runs: workers probe it
        read-only and the driver lands their fresh entries in one
        serialized write, so a resumed or repeated sweep recomputes
        only what no previous run derived.  Results are bit-identical
        with or without the store (same content keys as the
        incremental engine; checkpoint rows additionally pin the curve
        kernel).
    ctx:
        Execution context for the sweep driver.  The grid size and live
        completion state land in its registry (``sweep.total``,
        ``sweep.done``, ``sweep.errors``, ``sweep.retries``,
        ``sweep.point_s``) and a deadline on *ctx* is checked between
        points.  Its curve kernel (else the ambient one) is resolved
        once here and handed to every point, in-process or in a worker;
        workers see nothing else of *ctx*.
    profile:
        Evaluate each point under a fresh profiling context and attach
        its counters to :attr:`SweepPoint.phases` (and to checkpoint
        records).  Adds per-point instrumentation overhead.
    progress:
        Optional ``progress(done, total, errors)`` callback invoked
        after every recorded point (from the driver process) — the hook
        behind the CLI's live progress line.

    Returns
    -------
    list[SweepPoint]
        One point per grid element, in deterministic
        (analyzer, hops, load) order.  Failed points carry ``error``
        (and ``delay = nan``) instead of aborting the sweep; filter
        with ``point.ok``.
    """
    for name in analyzers:
        _analyzer_factory(name)  # fail fast on unknown analyzers
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if backoff < 0:
        raise ValueError(f"backoff must be >= 0, got {backoff}")
    if timeout is not None and not timeout > 0:
        raise ValueError(f"timeout must be > 0, got {timeout}")

    tasks: list[_Task] = [(a, int(n), float(u), float(sigma))
                          for a in analyzers for n in hops for u in loads]
    results: dict[_Task, SweepPoint] = {}
    ckpt_path = Path(checkpoint) if checkpoint is not None else None
    sweep_kernel = ctx.kernel if ctx.kernel is not None else current_kernel()
    sink = _Checkpointer(ckpt_path, resume)
    cached = _completed(sink.latest, sweep_kernel)
    results.update((t, cached[t]) for t in tasks if t in cached)

    total = len(tasks)
    done = len(results)
    errors = 0
    if ctx.metrics is not None:
        ctx.metrics.set("sweep.total", float(total))
        ctx.metrics.set("sweep.done", float(done))
        ctx.metrics.set("sweep.errors", 0.0)

    recorded: set[_Task] = set()

    def record(task: _Task, point: SweepPoint) -> None:
        nonlocal done, errors
        # exactly-one-row invariant: the first record for a point wins.
        # A late echo (e.g. a result surfacing after its timeout was
        # already recorded) must not rewrite the checkpoint row or
        # double-count sweep.done.
        if task in recorded:
            ctx.count("sweep.duplicate_results")
            return
        recorded.add(task)
        results[task] = point
        sink.write(point)
        ctx.checkpoint("sweep point recorded")
        done += 1
        ctx.count("sweep.done")
        ctx.count("sweep.point_s", point.elapsed_s)
        if point.attempts > 1:
            ctx.count("sweep.retries", point.attempts - 1)
        if not point.ok:
            errors += 1
            ctx.count("sweep.errors")
        if progress is not None:
            progress(done, total, errors)

    store_path: str | None = None
    collect: Callable[[list], None] | None = None
    if store is not None:
        store_path = str(store.path)

        def collect(seeds: list) -> None:
            write_seeds(seeds, ctx, store=store)

    pending = [(t, 1) for t in tasks if t not in results]
    serial = not parallel or len(pending) <= 1
    if store_path is not None and serial:
        # in-process evaluation probes the live (writable) handle, so
        # entries landed by earlier points serve later ones immediately
        _WORKER_STORES[store_path] = store
    with ctx.span("sweep", points=len(tasks), pending=len(pending),
                  profile=profile):
        try:
            if serial:
                _run_serial(pending, sweep_kernel, retries, backoff,
                            record, profile, store_path, collect)
            else:
                workers = max_workers or min(len(pending),
                                             os.cpu_count() or 1)
                _run_parallel(pending, sweep_kernel, workers,
                              timeout if timeout is not None
                              else DEFAULT_TASK_TIMEOUT,
                              retries, backoff, record, profile,
                              store_path, collect)
        finally:
            sink.close()
            if store_path is not None:
                _WORKER_STORES.pop(store_path, None)
    return [results[t] for t in tasks]
