"""Process-pool execution of independent explanation work (scale-out batch).

The serving engine of :mod:`repro.service` answers a batch one request at a
time on the calling thread; every explanation is CPU-bound pure Python, so a
single process cannot use more than one core no matter how many server threads
accept connections.  :class:`ParallelBatchExecutor` shards that work across
worker *processes*, organised as a **supervised replica fleet**
(:class:`~repro.resilience.supervisor.ReplicaFleet`):

* each worker replica is its own single-worker pool holding a **read-only KB
  replica** built once from a :func:`~repro.parallel.snapshot.kb_to_payload`
  snapshot of the current compiled view and keyed by its version;
* batches are **chunked** and dispatched longest-expected-first (endpoint
  degree is the cost proxy) to the least-loaded healthy replica — greedy LPT
  scheduling with health-aware routing: SUSPECT replicas are routed around,
  DEAD ones are killed and replaced (hot standby first, so a replica death
  costs no cold start);
* a **straggling chunk** past the fleet's p95-based hedge threshold gets a
  backup submission on another healthy replica; the first result wins, the
  loser is cancelled, and completed hedge pairs are asserted byte-identical;
* results are **reassembled in submission order** regardless of completion
  order, so callers observe exactly the sequential result list;
* a new view (a KB write) bumps the version and the next batch **recycles**
  the fleet:
  a fresh snapshot is taken and new replicas are spawned, while batches
  already dispatching on the old fleet finish against their (still
  internally consistent) old replicas and stay labelled with the old
  version.  Every batch holds a *lease* on the fleet it dispatches to; a
  recycle only retires the old fleet, which is shut down when its last
  lease is released, so a version bump never lands as a crash on a batch
  that is still submitting;
* a dying worker (OOM-kill, segfault, ``kill -9``) triggers transparent
  **failover** to a surviving replica; only when *every* replica has failed
  does the batch surface :class:`WorkerCrashError` — never a hang — and
  poison the fleet so the next batch recycles it.

The executor is deliberately independent of the serving engine: it maps plain
request tuples to ranked tuples and leaves caching, single-flight and outcome
envelopes to the caller.  Fleet operations (:meth:`fleet_snapshot`,
:meth:`drain`, :meth:`rolling_restart`) back the engine's ``fleet()`` status
and the server's ``/admin/drain`` + rolling-restart endpoints.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from repro import Rex
from repro.enumeration.framework import DEFAULT_SIZE_LIMIT
from repro.errors import RexError
from repro.kb.compiled import CompiledKB
from repro.measures.base import Measure
from repro.obs.trace import Span, Trace, activate_trace, deactivate_trace
from repro.parallel.snapshot import kb_from_payload, kb_to_payload
from repro.resilience.deadline import (
    Deadline,
    activate_deadline,
    current_deadline,
    deactivate_deadline,
)
from repro.resilience.supervisor import FleetExhausted, ReplicaFleet

__all__ = ["ExecutorStats", "ParallelBatchExecutor", "WorkerCrashError"]


class WorkerCrashError(RuntimeError):
    """Every replica failed; the batch could not be completed.

    A single worker death no longer surfaces here — the fleet fails the
    chunk over to a surviving replica.  This is raised only when the whole
    fleet is gone (or failover itself keeps crashing), instead of hanging or
    returning partial results.  The fleet is poisoned: the next batch
    transparently recycles it with fresh replicas, so even a total loss
    costs one failed batch, not a dead executor.
    """


# ---------------------------------------------------------------------------
# Worker-process side.  One module-level slot per worker holds the replica;
# ProcessPoolExecutor's initializer fills it before the first chunk arrives.
# ---------------------------------------------------------------------------

_WORKER: dict[str, Any] = {}


def _init_worker(payload: tuple, size_limit: int) -> None:
    """Build this worker's read-only KB replica and Rex facade (once)."""
    kb, version = kb_from_payload(payload)
    rex = Rex(kb, size_limit=size_limit)
    _WORKER["rex"] = rex
    _WORKER["version"] = version
    _WORKER["measures"] = rex.measures()


def _run_chunk(
    chunk: Sequence[tuple[int, str, str, str, int, int]],
    trace_id: str | None = None,
    deadline_s: float | None = None,
) -> tuple[int, float, int, list[tuple[int, bool, Any]], tuple | None]:
    """Explain every item of one chunk against the worker's replica.

    Items are ``(index, v_start, v_end, measure_name, k, size_limit)``; the
    measure name was validated by the parent, so lookups cannot miss.  Returns
    ``(pid, cpu_seconds, replica_version, results, trace_export)`` where each
    result is ``(index, ok, ranked_tuple | RexError)``.  CPU seconds are
    measured with ``time.process_time`` so the number is meaningful even when
    the host time-slices more workers than it has cores.

    With a ``trace_id`` (the coordinator's batch trace is sampled) the chunk
    runs under a worker-local :class:`~repro.obs.trace.Trace`: the enumeration
    and ranking span hooks record into it, and the spans come back as
    ``trace_export = (worker_wall_start, exported_span_tuples)`` for the
    coordinator to graft under its dispatch span — ``perf_counter`` offsets
    do not survive a process boundary, the wall-clock start does.

    ``deadline_s`` is the coordinator's *remaining* budget at dispatch time;
    the chunk re-arms it as a worker-local deadline, so the enumeration
    checkpoints fire inside the worker too.  Expiry surfaces per item as a
    :class:`~repro.errors.DeadlineExceeded` (a ``RexError``), never a crash.
    """
    rex: Rex = _WORKER["rex"]
    measures: dict[str, Measure] = _WORKER["measures"]
    results: list[tuple[int, bool, Any]] = []
    worker_trace: Trace | None = None
    token = None
    root = None
    deadline_token = None
    if deadline_s is not None:
        # a budget already spent at dispatch time still arms (clamped to an
        # epsilon), so every item reports expiry instead of crashing here
        deadline_token = activate_deadline(Deadline(max(deadline_s, 1e-9)))
    if trace_id is not None:
        worker_trace = Trace("worker", trace_id=trace_id)
        token = activate_trace(worker_trace)
        root = worker_trace.span("worker")
        root.__enter__()
        root.annotate(pid=os.getpid(), items=len(chunk))
    cpu_started = time.process_time()
    try:
        for index, v_start, v_end, measure_name, k, size_limit in chunk:
            try:
                ranked = tuple(
                    rex.explain(
                        v_start,
                        v_end,
                        measure=measures[measure_name],
                        k=k,
                        size_limit=size_limit,
                    )
                )
                results.append((index, True, ranked))
            except RexError as error:
                # e.g. an entity newer than this replica: reported per item,
                # the caller decides whether to retry against the live KB
                results.append((index, False, error))
    finally:
        cpu_seconds = time.process_time() - cpu_started
        if deadline_token is not None:
            deactivate_deadline(deadline_token)
        if worker_trace is not None:
            root.__exit__(None, None, None)
            deactivate_trace(token)
            worker_trace.finish()
    trace_export = (
        (worker_trace.started_wall, worker_trace.export_spans())
        if worker_trace is not None
        else None
    )
    return os.getpid(), cpu_seconds, _WORKER["version"], results, trace_export


# ---------------------------------------------------------------------------
# Hedge byte-identity.  A hedged chunk runs on two replicas built from the
# same snapshot, so their *payload* bytes must match; the canonical form
# excludes what legitimately differs between replicas (pid, cpu seconds,
# trace spans) and opts out entirely when any item errored — error messages
# may embed timing (deadline budgets) that two runs will not share.
# ---------------------------------------------------------------------------


def _chunk_canonical(result: tuple) -> bytes | None:
    _pid, _cpu, replica_version, results, _export = result
    if any(not ok for _, ok, _ in results):
        return None
    try:
        return pickle.dumps(
            (replica_version, results), protocol=pickle.HIGHEST_PROTOCOL
        )
    except Exception:  # pragma: no cover - unpicklable result: skip compare
        return None


# ---------------------------------------------------------------------------
# Parent-process side.
# ---------------------------------------------------------------------------


def _expected_cost(
    view: CompiledKB, item: tuple[int, str, str, str, int, int]
) -> int:
    """Scheduling cost proxy: total degree of the pair's endpoints."""
    _, v_start, v_end, _, _, _ = item
    cost = 0
    for entity in (v_start, v_end):
        if view.has_entity(entity):
            cost += view.degree(entity)
    return cost


@dataclass
class ExecutorStats:
    """Lifetime counters of one executor (surfaced via engine ``/metrics``)."""

    batches: int = 0
    items: int = 0
    chunks: int = 0
    recycles: int = 0
    worker_crashes: int = 0
    #: fleet (re)builds that shipped the base by checkpoint *path* (with or
    #: without a delta) instead of the in-memory plane buffers.
    checkpoint_ships: int = 0
    last_rebuild_s: float = 0.0
    #: pid -> cumulative in-worker CPU seconds (time.process_time).
    worker_cpu_s: dict[int, float] = field(default_factory=dict)
    #: pid -> in-worker CPU seconds of the most recent batch only.  This is
    #: the critical-path measurement the parallel benchmark records: on a
    #: host with at least ``workers`` free cores, batch wall time converges
    #: to ``max(last_batch_worker_cpu_s.values())`` plus dispatch overhead.
    last_batch_worker_cpu_s: dict[int, float] = field(default_factory=dict)

    def snapshot(self) -> dict[str, Any]:
        return {
            "batches": self.batches,
            "items": self.items,
            "chunks": self.chunks,
            "recycles": self.recycles,
            "worker_crashes": self.worker_crashes,
            "checkpoint_ships": self.checkpoint_ships,
            "last_rebuild_s": round(self.last_rebuild_s, 6),
            "worker_cpu_s": {
                pid: round(seconds, 6) for pid, seconds in self.worker_cpu_s.items()
            },
        }


class ParallelBatchExecutor:
    """Shard independent explanation work across a supervised replica fleet.

    Args:
        current_view: callable returning the compiled view to serve now
            (the serving engine's current view; for a plain KB,
            ``lambda: compile_kb(kb)``).  Views are immutable, so a snapshot
            of one needs no lock; a view at a new version recycles the
            fleet on the next batch.
        workers: number of worker replicas (>= 1); each replica is one
            worker process supervised by the fleet.
        size_limit: default pattern size limit the worker facades are built
            with (per-item overrides still apply).
        chunk_size: items per dispatched chunk; default balances dispatch
            overhead against scheduling granularity
            (``max(1, n // (workers * 4))``).
        checkpoint_provider: optional callable returning ``(path, version)``
            of the on-disk checkpoint, or ``None``.  A fleet rebuild ships
            the base by that path when the checkpoint holds the view or its
            overlay's root base (see :func:`~repro.parallel.snapshot.kb_to_payload`),
            and each worker loads and checksum-verifies the planes itself.
            A worker that finds the file missing or corrupt fails replica
            initialisation, which surfaces as :class:`WorkerCrashError` on
            the batch and a recycle.
        metrics: optional duck-typed metrics registry (``counter``/``gauge``)
            the fleet mirrors its restart/hedge/probe counters and
            per-state replica gauges into.
        fleet_options: optional keyword overrides forwarded to
            :class:`~repro.resilience.supervisor.ReplicaFleet` (probe
            cadence, hedge policy, standby, restart backoff, ...).

    The executor is thread-safe: concurrent batches share the fleet, and
    recycling swaps the fleet atomically.  Every dispatch holds a lease on
    the fleet it took; a recycle retires the old fleet and shuts it down
    only when its last lease is released, so a batch that took its fleet
    just before a recycle still submits to live replicas.
    """

    def __init__(
        self,
        current_view: Callable[[], CompiledKB],
        workers: int,
        size_limit: int = DEFAULT_SIZE_LIMIT,
        chunk_size: int | None = None,
        checkpoint_provider: Callable[[], tuple[str, int] | None] | None = None,
        metrics: Any | None = None,
        fleet_options: dict[str, Any] | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self._current_view = current_view
        self.workers = workers
        self.size_limit = size_limit
        self.chunk_size = chunk_size
        self._checkpoint_provider = checkpoint_provider
        self._metrics = metrics
        self._fleet_options = dict(fleet_options or {})
        self.stats = ExecutorStats()
        self._lock = threading.Lock()
        self._fleet: ReplicaFleet | None = None
        self._fleet_version: int | None = None
        #: fleet -> dispatches currently holding it (absent = no lease).
        self._leases: dict[ReplicaFleet, int] = {}
        #: replaced fleets whose shutdown waits for their last lease.
        self._retired: set[ReplicaFleet] = set()
        self._broken = False
        self._closed = False

    # -- fleet lifecycle ---------------------------------------------------

    @property
    def pool_version(self) -> int | None:
        """KB version the current worker replicas were snapshotted at."""
        return self._fleet_version

    def ensure_fresh(self) -> bool:
        """Recycle the fleet if the view moved on (or the fleet collapsed).

        Returns ``True`` when a (re)build happened.  Called implicitly at the
        start of every batch, so recycling needs no signal from the writer:
        the version check *is* the signal.
        """
        with self._lock:
            return self._acquire_fleet()[2]

    def _acquire_fleet(self) -> tuple[ReplicaFleet, int, bool]:
        """Return ``(fleet, replica_version, rebuilt)``; caller holds the lock."""
        if self._closed:
            raise RuntimeError("executor is closed")
        view = self._current_view()
        stale = (
            self._fleet is None
            or self._broken
            or self._fleet_version != view.version
        )
        if not stale:
            assert self._fleet is not None and self._fleet_version is not None
            return self._fleet, self._fleet_version, False
        old_fleet = self._fleet
        rebuild_started = time.perf_counter()
        checkpoint = (
            self._checkpoint_provider()
            if self._checkpoint_provider is not None
            else None
        )
        payload = kb_to_payload(view, checkpoint)
        version = view.version

        def replica_factory(
            payload=payload, size_limit=self.size_limit
        ) -> ProcessPoolExecutor:
            # one worker per replica: replicas fail, restart and drain
            # independently, and a pid maps 1:1 to a health record
            return ProcessPoolExecutor(
                max_workers=1,
                initializer=_init_worker,
                initargs=(payload, size_limit),
            )

        fleet = ReplicaFleet(
            replica_factory,
            self.workers,
            metrics=self._metrics,
            name="executor",
            **self._fleet_options,
        )
        fleet.start()
        self._fleet = fleet
        self._fleet_version = version
        self._broken = False
        if isinstance(payload[1], str):
            self.stats.checkpoint_ships += 1
        if old_fleet is not None:
            self.stats.recycles += 1
            if self._leases.get(old_fleet):
                # a dispatch still holds it (possibly not yet submitted):
                # shutting it down now would fail that submit as a crash
                self._retired.add(old_fleet)
            else:
                # chunks already submitted keep their own references into the
                # old fleet and finish on it; wait_for_work=False detaches it
                old_fleet.shutdown(wait_for_work=False)
        self.stats.last_rebuild_s = time.perf_counter() - rebuild_started
        return fleet, version, True

    @contextmanager
    def _lease(self) -> Iterator[tuple[ReplicaFleet, int]]:
        """Hold the current fleet (recycled first if stale) for one dispatch.

        Yields ``(fleet, replica_version)``.  A fleet retired by a recycle
        while leased is shut down here, when its last lease is released.
        """
        with self._lock:
            fleet, version, _ = self._acquire_fleet()
            self._leases[fleet] = self._leases.get(fleet, 0) + 1
        try:
            yield fleet, version
        finally:
            with self._lock:
                remaining = self._leases.pop(fleet) - 1
                if remaining:
                    self._leases[fleet] = remaining
                retire = not remaining and fleet in self._retired
                if retire:
                    self._retired.discard(fleet)
            if retire:
                fleet.shutdown(wait_for_work=False)

    def worker_pids(self) -> list[int]:
        """PIDs of every live worker process, hot standby included.

        Forces lazy replicas (and an in-progress standby build) to finish
        spawning first.  Chiefly for tests and diagnostics — e.g. the
        crash-surfacing test kills all of these and asserts the next batch
        fails cleanly rather than being rescued by a surviving spare.
        """
        with self._lease() as (fleet, _):
            return fleet.worker_pids()

    def close(self) -> None:
        """Shut the fleet down; idempotent.

        Waits for in-flight chunks (at most one chunk per replica) so the
        interpreter never races a half-dismantled pool at exit.
        """
        with self._lock:
            self._closed = True
            fleet, self._fleet = self._fleet, None
        if fleet is not None:
            fleet.shutdown(wait_for_work=True)

    def __enter__(self) -> "ParallelBatchExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- fleet operations --------------------------------------------------

    def fleet_snapshot(self) -> dict[str, Any] | None:
        """Per-replica health + fleet counters, or None before first use."""
        with self._lock:
            fleet = self._fleet
        return fleet.snapshot() if fleet is not None else None

    def drain(self, timeout_s: float = 30.0) -> bool:
        """Wait for in-flight fleet work to quiesce; True when drained."""
        with self._lock:
            fleet = self._fleet
        if fleet is None:
            return True
        return fleet.drain(timeout_s)

    def rolling_restart(
        self,
        drain_timeout_s: float = 30.0,
        ready_timeout_s: float | None = None,
    ) -> dict[str, Any]:
        """Zero-downtime rolling restart of every replica (make-before-break).

        Builds the fleet first if it has not served yet — an operator can
        roll a freshly booted server.  See
        :meth:`repro.resilience.supervisor.ReplicaFleet.rolling_restart`.
        """
        with self._lease() as (fleet, _):
            return fleet.rolling_restart(drain_timeout_s, ready_timeout_s)

    # -- batch execution ---------------------------------------------------

    def execute(
        self,
        items: Sequence[tuple[int, str, str, str, int, int]],
        trace: Trace | None = None,
    ) -> dict[int, tuple[bool, Any, int]]:
        """Explain every item on the fleet; reassemble positionally.

        Args:
            items: ``(index, v_start, v_end, measure_name, k, size_limit)``
                tuples.  Indexes are caller-chosen and only used to key the
                result mapping; entities and measure names must already be
                validated against the current view.
            trace: optional batch trace.  When present the whole dispatch is
                recorded as a ``dispatch`` span, the trace ID is propagated
                into every worker chunk, and the workers' spans are shipped
                back and grafted under the dispatch span — one trace covers
                the fleet.

        Returns:
            ``{index: (ok, ranked_tuple | RexError, replica_version)}`` —
            exactly one entry per submitted item, whatever order chunks
            completed in.

        Raises:
            WorkerCrashError: every replica failed before the batch could
                complete (single-replica crashes fail over transparently).
                No partial results are returned; the fleet is poisoned and
                the next call recycles it.
        """
        if not items:
            return {}
        with self._lease() as (fleet, _):
            with self._lock:
                self.stats.batches += 1
                self.stats.items += len(items)
            # Longest-expected-first (greedy LPT): endpoint degree predicts
            # enumeration cost, so dispatching heavy items first keeps the
            # last chunks small and the replicas' finish times close together.
            view = self._current_view()
            ordered = sorted(
                items, key=lambda item: _expected_cost(view, item), reverse=True
            )
            chunk_size = self.chunk_size or max(1, len(ordered) // (self.workers * 4))
            chunks = [
                ordered[offset : offset + chunk_size]
                for offset in range(0, len(ordered), chunk_size)
            ]
            results: dict[int, tuple[bool, Any, int]] = {}
            batch_cpu: dict[int, float] = {}
            trace_id = trace.trace_id if trace is not None else None
            dispatch_span = trace.span("dispatch") if trace is not None else None
            # Ship the coordinator's remaining budget into every chunk so the
            # cooperative checkpoints keep firing across the process boundary.
            ambient = current_deadline()
            deadline_s = ambient.remaining() if ambient is not None else None
            try:
                if dispatch_span is not None:
                    dispatch_span.__enter__()
                tasks = [
                    fleet.submit(_run_chunk, chunk, trace_id, deadline_s)
                    for chunk in chunks
                ]
                for task in tasks:
                    pid, cpu_seconds, replica_version, chunk_results, export = (
                        fleet.result(task, canonical=_chunk_canonical)
                    )
                    batch_cpu[pid] = batch_cpu.get(pid, 0.0) + cpu_seconds
                    for index, ok, value in chunk_results:
                        results[index] = (ok, value, replica_version)
                    if (
                        export is not None
                        and trace is not None
                        and isinstance(dispatch_span, Span)
                    ):
                        worker_wall_start, spans = export
                        # rebase the worker's trace-relative offsets onto
                        # this trace's timeline via the shared wall clock,
                        # clamped to the dispatch span's start so minor clock
                        # skew cannot make a child precede its parent
                        offset = max(
                            worker_wall_start - trace.started_wall,
                            dispatch_span.start_s or 0.0,
                        )
                        trace.graft(
                            spans,
                            parent_index=dispatch_span.index,
                            base_offset_s=offset,
                        )
            except FleetExhausted as crash:
                self._poison(fleet)
                raise WorkerCrashError(
                    f"a worker process died while executing a batch of "
                    f"{len(items)} items: {crash}"
                ) from crash
            finally:
                if dispatch_span is not None:
                    dispatch_span.__exit__(None, None, None)
        with self._lock:
            self.stats.chunks += len(chunks)
            self.stats.last_batch_worker_cpu_s = dict(batch_cpu)
            for pid, cpu_seconds in batch_cpu.items():
                self.stats.worker_cpu_s[pid] = (
                    self.stats.worker_cpu_s.get(pid, 0.0) + cpu_seconds
                )
        return results

    # -- internals ---------------------------------------------------------

    def _poison(self, fleet: ReplicaFleet) -> None:
        """Mark the fleet broken (if still current) after total failure."""
        with self._lock:
            self.stats.worker_crashes += 1
            if self._fleet is fleet:
                self._broken = True

    def snapshot(self) -> dict[str, Any]:
        """Configuration plus lifetime counters, for ``/metrics``."""
        payload = self.stats.snapshot()
        with self._lock:
            fleet = self._fleet
        payload.update(
            {
                "workers": self.workers,
                "pool_version": self._fleet_version,
                "broken": self._broken,
                "fleet": fleet.snapshot() if fleet is not None else None,
            }
        )
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParallelBatchExecutor(workers={self.workers}, "
            f"pool_version={self._fleet_version}, batches={self.stats.batches})"
        )
