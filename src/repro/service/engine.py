"""The long-lived explanation engine behind the serving API.

:class:`ExplanationEngine` turns the one-shot :class:`repro.Rex` facade into a
component designed for a *request stream*:

* results are cached in a :class:`~repro.service.cache.VersionedLRUCache`
  keyed on ``(kb.version, pair, measure, k, size_limit)``, so a knowledge-base
  mutation (which bumps ``kb.version``) invalidates every stale entry without
  any bookkeeping;
* concurrent identical requests are *coalesced*: the first caller becomes the
  leader and runs the enumeration, every other caller blocks on the leader's
  result instead of re-running it (single-flight);
* the engine serves one immutable compiled view per KB version: the passed
  KB is compiled at boot (or the store or a checkpoint supplies the view)
  and never referenced again; :meth:`add_edges` builds the next view from
  the write batch and swaps it in under a writer lock, so reads take no
  lock, and eagerly purges newly stale cache entries;
* :meth:`warmup` bulk-explains a seed pair list at startup so the first user
  requests already hit the cache;
* every step is observable through engine counters (``requests``,
  ``cache_hits``, ``cache_misses``, ``coalesced``, ``enumerations``, ...) and
  an explain-latency histogram — the numbers the throughput benchmark and the
  single-flight tests assert on.
"""

from __future__ import annotations

import copy
import logging
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, Mapping, Sequence

from repro import Rex, validate_k, validate_size_limit
from repro.enumeration.framework import DEFAULT_SIZE_LIMIT
from repro.errors import (
    CheckpointError,
    DeadlineExceeded,
    RexError,
    StoreError,
    UnknownEntityError,
)
from repro.kb.checkpoint import CHECKPOINT_FILENAME, save_checkpoint
from repro.kb.checkpoint import load_checkpoint as _load_checkpoint
from repro.kb.compiled import CompiledKB, OverlayCompiledKB, extend_compiled
from repro.kb.graph import Edge, KnowledgeBase
from repro.kb.store import KnowledgeBaseStore
from repro.measures.base import Measure
from repro.obs.logging import get_logger, log_event
from repro.obs.trace import PhaseTiming, Trace, Tracer, current_trace, span
from repro.parallel import ParallelBatchExecutor, WorkerCrashError
from repro.ranking.general import RankedExplanation
from repro.resilience import (
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    RetryPolicy,
    activate_deadline,
    current_deadline,
    deactivate_deadline,
)
from repro.service.cache import VersionedLRUCache
from repro.service.metrics import LatencyHistogram, MetricsRegistry

__all__ = [
    "ExplainOutcome",
    "ExplanationEngine",
    "DEFAULT_MEASURE",
    "DEFAULT_DELTA_COMPACT_EDGES",
]

#: The measure the paper's user study favours; the serving default.
DEFAULT_MEASURE = "size+monocount"

#: Overlay size (delta edges) past which a write folds the delta back into a
#: full compiled base instead of growing the merge-at-probe-time tail.
DEFAULT_DELTA_COMPACT_EDGES = 1024

#: Depth bound for the write-frontier BFS behind scoped cache invalidation.
#: Cached entries with a ``size_limit`` beyond this are purged rather than
#: classified (the walk would cost more than re-enumerating them).
_SCOPE_MAX_DEPTH = 32

_LOG = get_logger("rex.engine")


def _parallelism_from_env() -> int:
    """The ``REX_PARALLELISM`` default (0 = sequential, the seed semantics)."""
    raw = os.environ.get("REX_PARALLELISM", "").strip()
    if not raw:
        return 0
    try:
        return max(0, int(raw))
    except ValueError:
        raise RexError(
            f"REX_PARALLELISM must be an integer worker count, got {raw!r}"
        ) from None


def _delta_compact_from_env() -> int:
    """The ``REX_DELTA_COMPACT_EDGES`` default (0 = compact on every write)."""
    raw = os.environ.get("REX_DELTA_COMPACT_EDGES", "").strip()
    if not raw:
        return DEFAULT_DELTA_COMPACT_EDGES
    try:
        return max(0, int(raw))
    except ValueError:
        raise RexError(
            f"REX_DELTA_COMPACT_EDGES must be an integer edge count, got {raw!r}"
        ) from None


def _deadline_from_env() -> float | None:
    """The ``REX_DEADLINE_S`` default (unset/0 = no deadline, seed semantics)."""
    raw = os.environ.get("REX_DEADLINE_S", "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise RexError(
            f"REX_DEADLINE_S must be a budget in seconds, got {raw!r}"
        ) from None
    return value if value > 0 else None


def _edges_since(view: CompiledKB, count: int) -> list[Edge]:
    """The edges ``view`` holds past its first ``count``, in insertion order."""
    names = view.names
    label_of = view.label_of
    return [
        Edge(names[src], names[dst], label_of[code], bool(directed))
        for src, dst, code, directed in zip(
            view.edge_src[count:],
            view.edge_dst[count:],
            view.edge_label[count:],
            view.edge_directed[count:],
        )
    ]


#: How long a coalesced follower waits on the leader's event per slice before
#: re-checking the leader thread's liveness (and its own deadline).
_FOLLOWER_WAIT_SLICE_S = 0.1


@dataclass(frozen=True)
class ExplainOutcome:
    """One answered explain request plus how it was answered.

    Attributes:
        ranked: the top-k ranked explanations (immutable tuple — the same
            object may be shared by every caller that hit the cache).
        v_start, v_end: the requested pair.
        measure: resolved measure name.
        k: requested result count.
        size_limit: pattern size limit used.
        kb_version: the knowledge-base version the answer is valid for.
        cached: ``True`` when served from the result cache.
        coalesced: ``True`` when this caller waited on another caller's
            in-flight computation instead of running its own.
        elapsed_s: wall time this caller spent inside the engine.
        trace_id: ID of the trace this request recorded into, when it was
            sampled (or forced via ``explain(..., profile=True)``); ``None``
            otherwise.  The full span tree lives in the engine tracer's ring
            buffer (``GET /debug/traces``).
        phases: EXPLAIN-style per-phase timing breakdown — ``(name,
            seconds, count)`` rows aggregated over the trace's spans — empty
            when the request was not traced.  Excluded from the serialized
            wire envelope so cached/uncached responses stay byte-identical.
    """

    ranked: tuple[RankedExplanation, ...]
    v_start: str
    v_end: str
    measure: str
    k: int
    size_limit: int
    kb_version: int
    cached: bool
    coalesced: bool
    elapsed_s: float
    trace_id: str | None = field(default=None, compare=False)
    phases: tuple[PhaseTiming, ...] = field(default=(), compare=False)


class _InFlight:
    """Shared state of one in-progress computation (single-flight slot)."""

    __slots__ = ("event", "outcome", "error", "version", "leader_thread",
                 "takeover_claimed")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.outcome: tuple[RankedExplanation, ...] | None = None
        self.error: BaseException | None = None
        #: KB version the leader actually computed against (may be newer than
        #: the version the flight was registered under, if a write landed
        #: between registration and the leader capturing the current view).
        self.version: int | None = None
        #: The thread computing this flight.  Followers poll its liveness so
        #: a leader that dies without publishing (killed thread, interpreter
        #: teardown mid-compute) cannot strand them forever.
        self.leader_thread: threading.Thread | None = None
        #: Set (under the engine's in-flight lock) by the first follower that
        #: detects a dead leader and takes the computation over, so the rest
        #: keep waiting on the event instead of stampeding.
        self.takeover_claimed = False


class ExplanationEngine:
    """A concurrent, caching wrapper around the :class:`repro.Rex` facade.

    Args:
        kb: the knowledge base to serve.  It is compiled at boot (unless the
            store or a checkpoint supplies the served view) and never
            mutated; the engine keeps no reference to it.  Writes build new
            views (:meth:`add_edges`), and :attr:`kb` is the current one.
        size_limit: default pattern size limit for requests that do not
            override it.
        cache_capacity: maximum number of cached rankings.
        cache_ttl: optional TTL in seconds for cached rankings.
        metrics: optional shared registry (the HTTP server passes its own so
            engine and transport metrics render together).
        parallelism: worker-process count for batch requests.  ``None`` reads
            ``REX_PARALLELISM`` (default 0); values below 2 keep every
            request on the calling thread — the exact seed semantics.  At 2+,
            :meth:`explain_batch` shards cache misses across a
            :class:`~repro.parallel.ParallelBatchExecutor` whose worker
            replicas are recycled whenever the KB version moves.
        store: an open :class:`~repro.kb.store.KnowledgeBaseStore` to use as
            the durable system of record (mutually exclusive with
            ``store_path``).  The engine closes it in :meth:`close`.
        store_path: path of a SQLite store to open (created and bootstrapped
            from ``kb`` when empty).  When the store already holds data it
            *wins* over the passed ``kb``: the engine serves the persisted
            KB, restored from a checkpoint when possible and replayed from
            SQLite otherwise.
        checkpoint_dir: directory for compiled-plane checkpoints.  On boot a
            matching checkpoint short-circuits replay+recompile; at runtime a
            checkpoint is written in the background after the boot compile
            and after each compaction, and :meth:`close` flushes a final one.
            Checkpoint failures never fail requests — the engine degrades to
            memory-only serving and reports it via :meth:`durability`.
        tracer: optional :class:`~repro.obs.trace.Tracer` controlling request
            tracing (sample rate, ring-buffer capacity).  Default: a tracer
            configured from ``REX_TRACE_SAMPLE`` / ``REX_TRACE_BUFFER``
            feeding per-phase histograms into this engine's registry.
        delta_compact_edges: overlay size (accumulated delta edges) past
            which a write folds the delta back into a full compiled base
            instead of keeping the merge-at-probe-time overlay.  ``None``
            reads ``REX_DELTA_COMPACT_EDGES`` (default 1024); 0 compacts on
            every write.  See ``docs/performance.md`` for tuning guidance.
        deadline_s: default per-request compute budget in seconds, armed
            around every :meth:`explain` / :meth:`explain_batch` call that
            does not carry its own (explicit ``deadline_s`` argument or an
            ambient deadline from the HTTP layer).  ``None`` reads
            ``REX_DEADLINE_S`` (unset/0 = no deadline — the seed semantics).
            An exceeded budget raises
            :class:`~repro.errors.DeadlineExceeded` (HTTP 504).
        retry_policy: backoff schedule for retrying a batch whose worker
            pool crashed mid-flight (the pool is recycled between attempts).
            Default: 3 attempts, 50ms base full-jitter exponential backoff.
        breaker: circuit breaker guarding fresh computation.  Default: trips
            after 5 consecutive worker/store failures, recovers through a
            2-probe half-open phase after 10s.  While open, cache hits are
            still served; misses raise
            :class:`~repro.resilience.CircuitOpenError` (HTTP 503).
            See ``docs/robustness.md``.
        fleet_options: optional keyword overrides for the supervised worker
            fleet (:class:`~repro.resilience.supervisor.ReplicaFleet`):
            probe cadence, hedge policy, hot standby, restart backoff.
            Only consulted when ``parallelism >= 2`` spins the fleet up.

    Example:
        >>> from repro.datasets.paper_example import paper_example_kb
        >>> engine = ExplanationEngine(paper_example_kb(), size_limit=4)
        >>> outcome = engine.explain("tom_cruise", "nicole_kidman", k=2)
        >>> outcome.cached, engine.explain("tom_cruise", "nicole_kidman", k=2).cached
        (False, True)
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        size_limit: int = DEFAULT_SIZE_LIMIT,
        cache_capacity: int = 2048,
        cache_ttl: float | None = None,
        metrics: MetricsRegistry | None = None,
        parallelism: int | None = None,
        store: KnowledgeBaseStore | None = None,
        store_path: str | Path | None = None,
        checkpoint_dir: str | Path | None = None,
        tracer: Tracer | None = None,
        delta_compact_edges: int | None = None,
        deadline_s: float | None = None,
        retry_policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        fleet_options: dict[str, Any] | None = None,
    ) -> None:
        validate_size_limit(size_limit)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Request tracing: sampling, the trace ring buffer, phase histograms.
        #: A default tracer reads REX_TRACE_SAMPLE / REX_TRACE_BUFFER; pass
        #: one explicitly to force sampling (profiling, tests).
        self.tracer = tracer if tracer is not None else Tracer(metrics=self.metrics)
        if self.tracer.metrics is None:
            self.tracer.metrics = self.metrics
        # -- durability state (set up before boot so boot can record into it)
        if store is not None and store_path is not None:
            raise RexError("pass either store or store_path, not both")
        # re-entrant: a SIGTERM handler firing on a thread already inside
        # close() must return immediately instead of deadlocking on itself
        self._close_lock = threading.RLock()
        self._closed = False
        self._durability_lock = threading.Lock()
        self._checkpoint_write_lock = threading.Lock()
        self._checkpoint_thread: threading.Thread | None = None
        self._store_error: str | None = None
        self._checkpoint_error: str | None = None
        #: ``(kb_version, wall_time)`` of the newest checkpoint on disk.
        self._last_checkpoint: tuple[int, float] | None = None
        self._store_batches = self.metrics.counter("engine.store_batches")
        self._store_failures = self.metrics.counter("engine.store_failures")
        self._checkpoints_written = self.metrics.counter("engine.checkpoints_written")
        self._checkpoint_failures = self.metrics.counter("engine.checkpoint_failures")
        self._checkpoint_restores = self.metrics.counter("engine.checkpoint_restores")
        self._checkpoint_rejected = self.metrics.counter("engine.checkpoint_rejected")
        self._store = (
            store if store is not None
            else KnowledgeBaseStore(store_path) if store_path is not None
            else None
        )
        self._checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
        self._checkpoint_path: Path | None = None
        if self._checkpoint_dir is not None:
            os.makedirs(self._checkpoint_dir, exist_ok=True)
            self._checkpoint_path = self._checkpoint_dir / CHECKPOINT_FILENAME
        #: How the served KB came to be: ``seed`` (the passed kb),
        #: ``checkpoint`` (restored planes) or ``store`` (SQLite replay).
        self.boot_info: dict[str, Any] = {"source": "seed"}
        self.cache = VersionedLRUCache(capacity=cache_capacity, ttl_seconds=cache_ttl)
        self._inflight: dict[tuple, _InFlight] = {}
        self._inflight_lock = threading.Lock()
        #: Serialises writers, each of which builds the next view from the
        #: current one and swaps it in.  Readers take no lock: they capture
        #: the current Rex once and compute on its immutable view.
        self._write_lock = threading.Lock()
        #: Serialises SQLite commits *outside* the writer lock: a writer
        #: acquires this while still holding the writer lock (so commits
        #: apply in version order) and fsyncs after releasing it (so the next
        #: write is not blocked behind disk latency).
        self._store_commit_lock = threading.Lock()
        self.delta_compact_edges = (
            max(0, delta_compact_edges)
            if delta_compact_edges is not None
            else _delta_compact_from_env()
        )
        self.parallelism = (
            max(0, parallelism) if parallelism is not None else _parallelism_from_env()
        )
        # -- resilience: deadlines, retry, circuit breaking
        if deadline_s is not None and deadline_s <= 0:
            raise RexError(f"deadline_s must be positive, got {deadline_s!r}")
        self.default_deadline_s = (
            deadline_s if deadline_s is not None else _deadline_from_env()
        )
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self._fleet_options = dict(fleet_options or {})
        self._leaked_threads: list[str] = []
        self._executor: ParallelBatchExecutor | None = None
        self._executor_lock = threading.Lock()
        # engine instruments (created eagerly so /metrics shows zeros)
        self._requests = self.metrics.counter("engine.requests")
        self._cache_hits = self.metrics.counter("engine.cache_hits")
        self._cache_misses = self.metrics.counter("engine.cache_misses")
        self._coalesced = self.metrics.counter("engine.coalesced")
        self._enumerations = self.metrics.counter("engine.enumerations")
        self._errors = self.metrics.counter("engine.errors")
        self._kb_updates = self.metrics.counter("engine.kb_updates")
        self._warmed_pairs = self.metrics.counter("engine.warmed_pairs")
        self._parallel_batches = self.metrics.counter("engine.parallel_batches")
        self._parallel_retries = self.metrics.counter("engine.parallel_retries")
        self._compiles = self.metrics.counter("engine.kb_compiles")
        self._delta_merges = self.metrics.counter("engine.delta_merges")
        self._delta_compactions = self.metrics.counter("engine.delta_compactions")
        self._scoped_purge_fallbacks = self.metrics.counter(
            "engine.scoped_purge_fallbacks"
        )
        self._warmup_restarts = self.metrics.counter("engine.warmup_restarts")
        self._deadline_exceeded = self.metrics.counter("engine.deadline_exceeded")
        self._worker_crash_retries = self.metrics.counter(
            "engine.worker_crash_retries"
        )
        self._breaker_rejected = self.metrics.counter("engine.breaker_rejected")
        self._leader_takeovers = self.metrics.counter("engine.leader_takeovers")
        self._gauge_breaker = self.metrics.gauge("engine.breaker_state")
        self._latency = self.metrics.histogram("engine.explain_latency")
        # per-measure labeled histograms, handle-cached so the hot path never
        # takes the registry lock (entries appear on the first miss per
        # measure; cache hits are excluded — their latency is the cache's,
        # not the measure's)
        self._latency_by_measure: dict[str, LatencyHistogram] = {}
        # KB / compiled-core gauges: set at boot, refreshed on every write
        self._gauge_entities = self.metrics.gauge("kb.entities")
        self._gauge_edges = self.metrics.gauge("kb.edges")
        self._gauge_labels = self.metrics.gauge("kb.labels")
        self._gauge_plane_bytes = self.metrics.gauge("kb.compiled_plane_bytes")
        self._gauge_compile_s = self.metrics.gauge("kb.compile_seconds")
        self._gauge_overlay_edges = self.metrics.gauge("kb.overlay_edges")
        self._gauge_scoped_purges = self.metrics.gauge("cache.scoped_purges")

        view = self._boot_view(kb)
        self._rex = Rex(view, size_limit=size_limit)
        # one snapshot of the measure registry: _resolve_measure runs on every
        # request (including cache hits) and must not copy a dict each time
        self._measures = self._rex.measures()
        self._publish_kb_gauges(view)
        self._gauge_plane_bytes.set(view.plane_bytes())
        self._gauge_compile_s.set(round(view.compile_seconds, 6))
        # a no-op when the view came from the checkpoint itself
        self._schedule_checkpoint(view)

    # -- accessors ---------------------------------------------------------

    @property
    def kb(self) -> CompiledKB:
        """The current compiled view (immutable; a write swaps in the next)."""
        return self._rex.kb

    @property
    def kb_version(self) -> int:
        return self._rex.kb.version

    @property
    def size_limit(self) -> int:
        return self._rex.size_limit

    def measures(self) -> dict[str, Measure]:
        """The measures the engine can rank with, by Table 1 name."""
        return dict(self._measures)

    # -- the serving hot path ----------------------------------------------

    def explain(
        self,
        v_start: str,
        v_end: str,
        measure: str | Measure = DEFAULT_MEASURE,
        k: int = 10,
        size_limit: int | None = None,
        profile: bool = False,
        deadline_s: float | None = None,
    ) -> ExplainOutcome:
        """Answer one explain request, through cache and single-flight.

        With ``profile=True`` the request is traced unconditionally (ignoring
        the tracer's sample rate) and the returned outcome carries the
        per-phase timing breakdown in ``phases`` — the EXPLAIN mode the
        ``rex-explain profile`` subcommand builds on.  At the default sample
        rate only 1-in-N requests pay for a trace; the rest touch a single
        shared no-op span object.

        ``deadline_s`` arms a compute budget for this call (overriding both
        the engine default and any ambient deadline); with it ``None`` the
        call inherits whatever deadline the caller armed (e.g. the HTTP
        layer's ``timeout_s``), falling back to the engine's
        ``default_deadline_s``.

        Raises:
            RexError: for invalid arguments (unknown measure, bad ``k``) or
                unknown entities — the same validation the facade applies.
            DeadlineExceeded: the armed budget ran out mid-computation.
            CircuitOpenError: the breaker is open and the result was not
                cached.
        """
        started = time.perf_counter()
        self._requests.inc()
        trace = self.tracer.maybe_start("explain", force=profile)
        deadline_token = None
        try:
            if deadline_s is not None:
                if not isinstance(deadline_s, (int, float)) or isinstance(
                    deadline_s, bool
                ) or deadline_s <= 0:
                    raise RexError(
                        f"deadline_s must be a positive number of seconds, "
                        f"got {deadline_s!r}"
                    )
                deadline_token = activate_deadline(Deadline(deadline_s))
            elif current_deadline() is None and self.default_deadline_s is not None:
                deadline_token = activate_deadline(
                    Deadline(self.default_deadline_s)
                )
            measure_obj, effective_limit = self._validate_request(
                v_start, v_end, measure, k, size_limit
            )
            version = self._rex.kb.version
            key = (v_start, v_end, measure_obj.name, k, effective_limit)

            # the active trace is either our own or an enclosing one (e.g. a
            # batch trace); on the unsampled fast path both are None and the
            # cache lookup runs bare
            active = trace if trace is not None else current_trace()
            if active is None:
                ranked = self.cache.get(key, version)
            else:
                with active.span("cache_lookup"):
                    ranked = self.cache.get(key, version)
            if ranked is not None:
                self._cache_hits.inc()
                return self._outcome(
                    ranked, key, version, cached=True, coalesced=False,
                    started=started, trace=active,
                )
            self._cache_misses.inc()

            flight: _InFlight
            flight_key = (version, *key)
            leader = False
            rejected = False
            with self._inflight_lock:
                existing = self._inflight.get(flight_key)
                if existing is None:
                    # fresh computation: it must pass the circuit breaker
                    # (followers ride an already-admitted flight for free)
                    if self.breaker.allow():
                        flight = _InFlight()
                        flight.leader_thread = threading.current_thread()
                        self._inflight[flight_key] = flight
                        leader = True
                    else:
                        rejected = True
                else:
                    flight = existing
            if rejected:
                self._breaker_rejected.inc()
                self._publish_breaker()
                raise CircuitOpenError(self.breaker.retry_after_s())
            if not leader:
                self._coalesced.inc()
                return self._await_leader(
                    flight, flight_key, key, v_start, v_end, measure_obj, k,
                    effective_limit, started, active,
                )

            try:
                # _compute labels the result with the version of the view it
                # ran on: a write swapping in a newer view after our version
                # read above must not let a newer result be cached under the
                # stale version's key (the flight key keeps the entry version
                # so the slot registered above is the one popped below).
                ranked, computed_version = self._compute(
                    v_start, v_end, measure_obj, k, effective_limit
                )
                self.cache.put(key, computed_version, ranked)
                flight.outcome = ranked
                flight.version = computed_version
            except BaseException as error:
                flight.error = error
                if isinstance(error, (WorkerCrashError, StoreError)):
                    self.breaker.record_failure()
                else:
                    # a failure the dependency had no part in (bad request
                    # validated late, deadline): give a half-open probe back
                    self.breaker.cancel_probe()
                self._publish_breaker()
                raise
            finally:
                with self._inflight_lock:
                    self._inflight.pop(flight_key, None)
                flight.event.set()
            self.breaker.record_success()
            self._publish_breaker()
            return self._outcome(
                ranked, key, computed_version, cached=False, coalesced=False,
                started=started, trace=active,
            )
        except Exception as error:
            self._errors.inc()
            if isinstance(error, DeadlineExceeded):
                self._deadline_exceeded.inc()
            if trace is not None:
                self.tracer.finish(trace, error=f"{type(error).__name__}: {error}")
                trace = None
            raise
        finally:
            if deadline_token is not None:
                deactivate_deadline(deadline_token)
            if trace is not None:
                self.tracer.finish(trace)

    def _await_leader(
        self,
        flight: _InFlight,
        flight_key: tuple,
        key: tuple,
        v_start: str,
        v_end: str,
        measure_obj: Measure,
        k: int,
        effective_limit: int,
        started: float,
        trace: Trace | None,
    ) -> ExplainOutcome:
        """Wait (boundedly) on the leader's flight; recover if it dies.

        The naive ``event.wait()`` here was a hang: a leader thread that dies
        without publishing (hard-killed, interpreter teardown) leaves its
        followers blocked forever on an event nobody will set.  Followers now
        wait in slices, and between slices check (a) their own deadline and
        (b) the leader thread's liveness.  The first follower to observe a
        dead leader claims the slot (under the in-flight lock, so exactly one
        claims) and computes the result itself, publishing it to the rest.

        A leader that *publishes* a :class:`DeadlineExceeded` is handled too:
        that error describes the leader's budget, not ours — a follower whose
        own deadline still has headroom recomputes instead of inheriting a
        504 it had time to avoid.
        """
        deadline = current_deadline()
        while not flight.event.is_set():
            timeout = _FOLLOWER_WAIT_SLICE_S
            if deadline is not None:
                remaining = deadline.remaining()
                if remaining <= 0:
                    raise DeadlineExceeded(deadline.budget_s)
                timeout = min(timeout, remaining)
            if flight.event.wait(timeout):
                break
            leader_thread = flight.leader_thread
            if leader_thread is None or leader_thread.is_alive():
                continue
            claimed = False
            with self._inflight_lock:
                if not flight.takeover_claimed and not flight.event.is_set():
                    flight.takeover_claimed = True
                    claimed = True
            if claimed:
                return self._takeover(
                    flight, flight_key, key, v_start, v_end, measure_obj, k,
                    effective_limit, started, trace,
                )
            # another follower claimed the takeover: keep waiting on the
            # event — it will publish (or fail) on our behalf
        error = flight.error
        if error is not None:
            if isinstance(error, DeadlineExceeded):
                own = current_deadline()
                if own is None or not own.expired():
                    self._leader_takeovers.inc()
                    ranked, computed_version = self._compute(
                        v_start, v_end, measure_obj, k, effective_limit
                    )
                    self.cache.put(key, computed_version, ranked)
                    return self._outcome(
                        ranked, key, computed_version, cached=False,
                        coalesced=True, started=started, trace=trace,
                    )
            # raise a per-thread copy: N waiters raising the same instance
            # concurrently would race on its __traceback__
            raise copy.copy(error) from error
        assert flight.outcome is not None
        assert flight.version is not None
        return self._outcome(
            flight.outcome,
            key,
            flight.version,
            cached=False,
            coalesced=True,
            started=started,
            trace=trace,
        )

    def _takeover(
        self,
        flight: _InFlight,
        flight_key: tuple,
        key: tuple,
        v_start: str,
        v_end: str,
        measure_obj: Measure,
        k: int,
        effective_limit: int,
        started: float,
        trace: Trace | None,
    ) -> ExplainOutcome:
        """Compute a dead leader's flight on this (follower) thread."""
        self._leader_takeovers.inc()
        log_event(
            _LOG, logging.WARNING, "single_flight_takeover",
            v_start=v_start, v_end=v_end, measure=measure_obj.name,
        )
        try:
            ranked, computed_version = self._compute(
                v_start, v_end, measure_obj, k, effective_limit
            )
            self.cache.put(key, computed_version, ranked)
            flight.error = None
            flight.outcome = ranked
            flight.version = computed_version
        except BaseException as error:
            flight.error = error
            raise
        finally:
            with self._inflight_lock:
                if self._inflight.get(flight_key) is flight:
                    self._inflight.pop(flight_key, None)
            flight.event.set()
        return self._outcome(
            ranked, key, computed_version, cached=False, coalesced=True,
            started=started, trace=trace,
        )

    def _publish_breaker(self) -> None:
        """Refresh the ``engine.breaker_state`` gauge (0/1/2)."""
        self._gauge_breaker.set(self.breaker.state_gauge())

    def explain_batch(
        self,
        requests: Sequence[Mapping[str, Any]],
        parallel: bool | None = None,
    ) -> list[ExplainOutcome | RexError]:
        """Answer a sequence of explain requests, tolerating per-item errors.

        Each request mapping supports the keys ``start``, ``end`` (required)
        and ``measure``, ``k``, ``size_limit`` (optional).  The result list is
        positional: an :class:`ExplainOutcome` for answered requests, the
        raised :class:`RexError` for rejected ones.

        With ``parallelism`` configured at 2 or more (and ``parallel`` not
        forced to ``False``), cache misses are deduplicated and sharded
        across the worker-process pool instead of running on the calling
        thread; results come back in the same positional order with the same
        contents.  See ``docs/scaling.md`` for the executor model.

        Raises:
            WorkerCrashError: (parallel mode only) a worker process died
                mid-batch; no partial results are returned and the pool is
                recycled on the next batch.
        """
        # one trace covers the whole batch: per-item explain() calls (and, in
        # parallel mode, the executor dispatch plus the workers' own spans)
        # all nest under it instead of sampling individually
        batch_trace = self.tracer.maybe_start("explain_batch")
        # one deadline covers the whole batch too (it is one request): armed
        # here so both the sequential per-item explains and the executor
        # dispatch inherit it; an ambient deadline (HTTP timeout_s) wins
        deadline_token = None
        if current_deadline() is None and self.default_deadline_s is not None:
            deadline_token = activate_deadline(Deadline(self.default_deadline_s))
        try:
            use_parallel = self.parallelism >= 2 and parallel is not False
            if use_parallel:
                return self._explain_batch_parallel(requests)
            results: list[ExplainOutcome | RexError] = []
            for request in requests:
                try:
                    self._validate_request_shape(request)
                    results.append(
                        self.explain(
                            request["start"],
                            request["end"],
                            measure=request.get("measure", DEFAULT_MEASURE),
                            k=request.get("k", 10),
                            size_limit=request.get("size_limit"),
                        )
                    )
                except RexError as error:
                    results.append(error)
            return results
        finally:
            if deadline_token is not None:
                deactivate_deadline(deadline_token)
            if batch_trace is not None:
                self.tracer.finish(batch_trace)

    def _explain_batch_parallel(
        self, requests: Sequence[Mapping[str, Any]]
    ) -> list[ExplainOutcome | RexError]:
        """The sharded batch path: validate, consult the cache, dispatch.

        Per item: validation and the cache lookup happen inline (identical
        errors and hit semantics to the sequential path); distinct missing
        keys are dispatched to the worker pool once each — duplicates of the
        same key within the batch are coalesced onto the leader's result,
        mirroring the single-flight behaviour of :meth:`explain`.

        A KB update landing mid-batch cannot poison the cache: results are
        stored under the version of the worker replica that computed them,
        and only when that version is still current.  An item that *fails*
        on a stale replica (e.g. its entity was added after the snapshot) is
        retried inline against the live KB, so callers never see errors the
        sequential path would not have produced.  (A retried item passes
        through :meth:`explain` and is therefore counted twice in
        ``engine.requests``; ``engine.parallel_retries`` records exactly how
        often that happened.)

        Workers resolve measures from the default registry by name, so items
        carrying a :class:`Measure` *instance* that is not the registry's own
        are evaluated inline on the calling thread instead of being shipped
        to a worker (which could not reconstruct them faithfully).
        """
        started = time.perf_counter()
        active = current_trace()
        results: list[ExplainOutcome | RexError | None] = [None] * len(requests)
        positions_by_key: dict[tuple, list[int]] = {}
        for position, request in enumerate(requests):
            try:
                self._validate_request_shape(request)
                measure_obj, effective_limit = self._validate_request(
                    request["start"],
                    request["end"],
                    request.get("measure", DEFAULT_MEASURE),
                    request.get("k", 10),
                    request.get("size_limit"),
                )
            except RexError as error:
                self._requests.inc()
                self._errors.inc()
                results[position] = error
                continue
            if self._measures.get(measure_obj.name) is not measure_obj:
                # a caller-supplied Measure instance: workers only know the
                # registry, so dispatching its *name* would either KeyError
                # or silently run a different measure — answer it inline
                # (explain() does all the counting for this item)
                try:
                    results[position] = self.explain(
                        request["start"],
                        request["end"],
                        measure=measure_obj,
                        k=request.get("k", 10),
                        size_limit=request.get("size_limit"),
                    )
                except RexError as error:
                    results[position] = error
                continue
            self._requests.inc()
            key = (
                request["start"],
                request["end"],
                measure_obj.name,
                request.get("k", 10),
                effective_limit,
            )
            version = self._rex.kb.version
            if active is None:
                ranked = self.cache.get(key, version)
            else:
                with active.span("cache_lookup"):
                    ranked = self.cache.get(key, version)
            if ranked is not None:
                self._cache_hits.inc()
                results[position] = self._outcome(
                    ranked, key, version, cached=True, coalesced=False,
                    started=started, trace=active,
                )
                continue
            self._cache_misses.inc()
            positions_by_key.setdefault(key, []).append(position)

        if positions_by_key:
            if not self.breaker.allow():
                # degraded mode: hits above were served, every miss gets the
                # same structured refusal (copies — per-item tracebacks)
                self._breaker_rejected.inc()
                self._publish_breaker()
                open_error = CircuitOpenError(self.breaker.retry_after_s())
                for positions in positions_by_key.values():
                    for position in positions:
                        self._errors.inc()
                        results[position] = copy.copy(open_error)
                assert all(result is not None for result in results)
                return results  # type: ignore[return-value]
            self._parallel_batches.inc()
            executor = self._ensure_executor()
            keys = list(positions_by_key)
            items = [(index, *key) for index, key in enumerate(keys)]
            outcomes = self._execute_with_retry(executor, items, active)
            for index, key in enumerate(keys):
                ok, value, replica_version = outcomes[index]
                positions = positions_by_key[key]
                if not ok and replica_version != self._rex.kb.version:
                    # the replica predates a mid-batch KB update; the live KB
                    # may well answer this request (e.g. a just-added entity)
                    self._parallel_retries.inc()
                    v_start, v_end, measure_name, k, size_limit = key
                    for position in positions:
                        try:
                            results[position] = self.explain(
                                v_start, v_end, measure=measure_name, k=k,
                                size_limit=size_limit,
                            )
                        except RexError as error:
                            results[position] = error
                    continue
                if not ok:
                    for position in positions:
                        self._errors.inc()
                        results[position] = value
                    continue
                self._enumerations.inc()
                # a write swapping in a newer view after this check either
                # vets the entry in its purge (the put landed first) or
                # leaves it under a version no read asks for again
                if replica_version == self._rex.kb.version:
                    self.cache.put(key, replica_version, value)
                for ordinal, position in enumerate(positions):
                    coalesced = ordinal > 0
                    if coalesced:
                        self._coalesced.inc()
                    results[position] = self._outcome(
                        value,
                        key,
                        replica_version,
                        cached=False,
                        coalesced=coalesced,
                        started=started,
                        trace=active,
                    )
        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]

    def _execute_with_retry(
        self,
        executor: ParallelBatchExecutor,
        items: list[tuple],
        trace: Trace | None,
    ) -> list:
        """Dispatch a miss batch, retrying with backoff if the pool crashes.

        A :class:`WorkerCrashError` poisons the pool, and the executor
        rebuilds it on the next ``execute`` — so a retry is simply another
        call, against fresh workers.  Attempts are bounded by the engine's
        :class:`RetryPolicy`; the backoff sleep never exceeds the remaining
        request deadline.  Each crash feeds the circuit breaker; a batch that
        exhausts its attempts re-raises the last crash (HTTP 500 with the
        structured ``worker_crash`` error).
        """
        policy = self.retry_policy
        attempt = 1
        while True:
            try:
                outcomes = executor.execute(items, trace=trace)
            except WorkerCrashError as error:
                self.breaker.record_failure()
                self._publish_breaker()
                if attempt >= policy.max_attempts:
                    raise
                max_sleep = None
                deadline = current_deadline()
                if deadline is not None:
                    remaining = deadline.remaining()
                    if remaining <= 0:
                        raise DeadlineExceeded(deadline.budget_s) from error
                    max_sleep = remaining
                self._worker_crash_retries.inc()
                log_event(
                    _LOG, logging.WARNING, "worker_crash_retry",
                    attempt=attempt, max_attempts=policy.max_attempts,
                    error=str(error),
                )
                policy.sleep_before_retry(attempt, max_sleep_s=max_sleep)
                attempt += 1
            else:
                self.breaker.record_success()
                self._publish_breaker()
                return outcomes

    # -- live updates ------------------------------------------------------

    def add_edges(
        self, edges: Iterable[Mapping[str, Any]]
    ) -> dict[str, int]:
        """Apply a batch of edge additions: the next knowledge-base version.

        Each mapping supports ``source``, ``target``, ``label`` (required) and
        ``directed`` (optional, schema decides when absent).  The whole batch
        is validated before anything is built, so a rejected batch leaves
        the KB untouched.

        The batch builds the next immutable view straight from the current
        one (:func:`~repro.kb.compiled.extend_compiled`): a sorted overlay
        delta, folded back into a full base once it outgrows
        ``delta_compact_edges``.  Writers are serialised by a plain lock and
        swap the served view in one assignment; reads take no lock and
        finish on the view they started with.  The result cache is purged
        *scoped*: cached rankings whose measures are local and whose start
        entity lies farther than their ``size_limit`` from every endpoint of
        the batch's new edges are carried forward to the new version — see
        ``docs/serving.md``.

        Durability: the SQLite commit runs *after* the writer lock is
        released, under a dedicated commit lock acquired while still holding
        it — commits stay version-ordered and the ack (this method
        returning) still happens only after the fsync, but the next write is
        never blocked behind disk latency.

        Returns:
            ``{"added": n, "kb_version": v, "cache_purged": m,
            "cache_retained": r, "durable": b}`` — ``durable`` is ``True``
            when a configured store committed the batch, ``False`` when no
            store is configured *or* the store write failed (the engine
            keeps serving from memory and reports ``degraded`` via
            :meth:`durability`).

        Raises:
            RexError: when any edge of the batch is malformed — in that case
                *no* edge has been applied (in memory or in the store).
        """
        validated: list[tuple[str, str, str, bool | None]] = []
        for edge in edges:
            try:
                source = edge["source"]
                target = edge["target"]
                label = edge["label"]
            except KeyError as missing:
                raise RexError(
                    f"edge update is missing the {missing.args[0]!r} field: "
                    f"{dict(edge)!r}"
                ) from None
            # the KB's own validator, run up front over the whole batch, so a
            # malformed edge is reported before anything is built
            KnowledgeBase.validate_edge_args(
                source, target, label, edge.get("directed")
            )
            validated.append((source, target, label, edge.get("directed")))

        durable = False
        store_batch: tuple[list, list[Edge], int, Any] | None = None
        commit_locked = False
        compacted: CompiledKB | None = None
        with self._write_lock:
            prev = self._rex.kb
            with span("delta_merge"):
                view = extend_compiled(prev, validated)
            # duplicates of existing edges are dropped by extend_compiled, so
            # the reported count is actual additions, not batch length
            added = view.num_edges - prev.num_edges
            version = view.version
            purged = retained = 0
            if view is not prev:
                self._delta_merges.inc()
                new_edges = _edges_since(view, prev.num_edges)
                if (
                    isinstance(view, OverlayCompiledKB)
                    and view.overlay_edges > self.delta_compact_edges
                ):
                    with span("compact"):
                        view = compacted = view.compact()
                    self._delta_compactions.inc()
                self._rex = Rex(view, size_limit=self.size_limit)
                self._publish_kb_gauges(view)
                # every new entity is an endpoint of a new edge
                touched = {edge.source for edge in new_edges}
                touched.update(edge.target for edge in new_edges)
                purged, retained = self._purge_after_write(
                    prev.version, version, view, frozenset(touched)
                )
                if self._store is not None:
                    new_entities = [
                        (entity, view.types[handle])
                        for handle, entity in enumerate(
                            view.names[prev.num_entities :], prev.num_entities
                        )
                    ]
                    store_batch = (new_entities, new_edges, version, view.schema)
                    # taken while still writing: concurrent writers reach the
                    # commit section below in version order
                    self._store_commit_lock.acquire()
                    commit_locked = True
            elif self._store is not None:
                # all-duplicate batch: nothing new to persist, the store
                # already covers this version
                with self._durability_lock:
                    durable = self._store_error is None
        if commit_locked:
            assert store_batch is not None and self._store is not None
            try:
                # commit before acking: once this returns, the batch survives
                # kill -9 (WAL replay); if the process dies first, the client
                # never saw an ack for it.  Readers proceed meanwhile — they
                # see the applied-but-unacked batch, which is exactly what
                # the writer will be told succeeded (or, on failure, what
                # degraded memory-only serving keeps serving anyway).
                self._store.append_batch(
                    store_batch[0], store_batch[1], store_batch[2],
                    schema=store_batch[3],
                )
                durable = True
                self._store_batches.inc()
                with self._durability_lock:
                    self._store_error = None
                self.breaker.record_success()
            except StoreError as error:
                self._record_store_error(error)
                self.breaker.record_failure()
            finally:
                self._store_commit_lock.release()
                self._publish_breaker()
        if compacted is not None:
            # a compaction produced a full immutable base at the new version:
            # persist it in the background so the next overlay chain (and the
            # workers' snapshots) anchor on a current checkpoint
            self._schedule_checkpoint(compacted)
        self._kb_updates.inc()
        return {
            "added": added,
            "kb_version": version,
            "cache_purged": purged,
            "cache_retained": retained,
            "durable": durable,
        }

    def _publish_kb_gauges(self, view: CompiledKB) -> None:
        """Refresh the KB-size gauges from the served view."""
        self._gauge_entities.set(view.num_entities)
        self._gauge_edges.set(view.num_edges)
        self._gauge_labels.set(len(view.label_of))
        self._gauge_overlay_edges.set(
            view.overlay_edges if isinstance(view, OverlayCompiledKB) else 0
        )

    def _purge_after_write(
        self,
        prev_version: int,
        version: int,
        view: CompiledKB,
        touched: frozenset[str],
    ) -> tuple[int, int]:
        """Invalidate the result cache for this write (writer lock held).

        ``touched`` holds this batch's edge endpoints.  The purge is
        *scoped*: a cached ranking at ``prev_version`` survives (re-keyed to
        ``version``) when its measure is declared
        :attr:`~repro.measures.base.Measure.local_scope` and its start entity
        lies farther than its ``size_limit`` from every touched entity in
        the new ``view`` — every explanation instance contains the start
        entity and spans at most ``size_limit`` edges, so no instance of
        such an entry can reach a new edge, in the old graph or the new.
        Only this batch matters: an entry at ``prev_version`` was already
        valid for ``prev_version``.  When no cached entry can survive, the
        full version purge runs instead.
        """
        survives = self._scope_classifier(touched, view)
        if survives is None:
            self._scoped_purge_fallbacks.inc()
            purged = self.cache.purge_versions_except(version)
            retained = 0
        else:
            purged, retained = self.cache.purge_touched(
                version, touched,
                prev_version=prev_version, survives=survives,
            )
        self._gauge_scoped_purges.set(self.cache.stats.scoped_purges)
        return purged, retained

    def _scope_classifier(
        self, touched: frozenset[str], view: CompiledKB
    ) -> Callable[[Hashable, frozenset | set], bool] | None:
        """A ``survives`` predicate for :meth:`VersionedLRUCache.purge_touched`.

        Runs a bounded multi-source BFS from the write's touched entities
        over the *merged* adjacency (new edges included — a new edge can pull
        a previously distant entity into a pair's neighborhood), out to the
        largest ``size_limit`` any cached entry could claim.  Returns ``None``
        when no cached entry can survive anyway (or the required depth
        exceeds ``_SCOPE_MAX_DEPTH``) so the caller takes the cheap full
        purge instead of walking the graph for nothing.
        """
        measures = self._measures
        max_depth = 0
        candidates = False
        for entry_version, key in self.cache.keys():
            if entry_version == self.kb_version:
                continue
            try:
                _vs, _ve, measure_name, _k, size_limit = key
            except (TypeError, ValueError):
                continue
            measure = (
                measures.get(measure_name)
                if isinstance(measure_name, str)
                else None
            )
            if measure is None or not measure.local_scope:
                continue
            if not isinstance(size_limit, int) or size_limit > _SCOPE_MAX_DEPTH:
                continue
            candidates = True
            max_depth = max(max_depth, size_limit)
        if not candidates:
            return None
        handles = view.handles
        distance: dict[int, int] = {handles[name]: 0 for name in touched}
        frontier = list(distance)
        for hops in range(1, max_depth + 1):
            next_frontier: list[int] = []
            for handle in frontier:
                for neighbor, _code in view.adj_pairs(handle):
                    if neighbor not in distance:
                        distance[neighbor] = hops
                        next_frontier.append(neighbor)
            frontier = next_frontier
            if not frontier:
                break

        def survives(key: Hashable, _dirty: frozenset | set) -> bool:
            try:
                v_start, _v_end, measure_name, _k, size_limit = key  # type: ignore[misc]
            except (TypeError, ValueError):
                return False
            measure = (
                measures.get(measure_name)
                if isinstance(measure_name, str)
                else None
            )
            if measure is None or not measure.local_scope:
                return False
            if not isinstance(size_limit, int) or size_limit > max_depth:
                return False
            start = handles.get(v_start)
            if start is None:
                return False
            return distance.get(start, _SCOPE_MAX_DEPTH + 1) > size_limit

        return survives

    # -- warmup ------------------------------------------------------------

    def warmup(
        self,
        pairs: Iterable[tuple[str, str]],
        measure: str | Measure = DEFAULT_MEASURE,
        k: int = 10,
        size_limit: int | None = None,
        skip_missing: bool = True,
        max_restarts: int = 3,
    ) -> dict[str, Any]:
        """Precompute explanations for a seed pair list (e.g. ``PAPER_PAIRS``).

        A KB write landing mid-warmup used to silently waste the pass:
        entries computed before the write were purged, yet warmup marched on
        and finished with a half-cold cache.  Now a version bump observed at
        the end of a pass triggers a *restart* over exactly the pairs whose
        entry no longer exists at the current version (survivors of a scoped
        purge are not recomputed), logged as a ``warmup_restart`` event and
        bounded by ``max_restarts``.

        Args:
            pairs: ``(v_start, v_end)`` tuples to precompute.
            measure, k, size_limit: forwarded to :meth:`explain`; warm entries
                only serve requests with the same parameters.
            skip_missing: silently skip pairs whose entities are not in the
                KB (seed lists often outlive dataset variants).
            max_restarts: how many re-passes concurrent writes may trigger
                before warmup gives up and returns (a write-heavy stream
                would otherwise pin warmup forever).

        Returns:
            ``{"warmed": n, "skipped": m, "restarts": r, "elapsed_s": s}`` —
            ``warmed`` counts explain calls, so re-warmed pairs count twice.
        """
        started = time.perf_counter()
        warmed = 0
        skipped = 0
        restarts = 0
        measure_name = (
            measure.name if isinstance(measure, Measure)
            else self._resolve_measure(measure).name
        )
        effective_limit = size_limit if size_limit is not None else self.size_limit
        pending = list(pairs)
        while pending:
            version_at_start = self._rex.kb.version
            for v_start, v_end in pending:
                kb = self._rex.kb
                if skip_missing and not (
                    kb.has_entity(v_start) and kb.has_entity(v_end)
                ):
                    skipped += 1
                    continue
                self.explain(
                    v_start, v_end, measure=measure, k=k, size_limit=size_limit
                )
                warmed += 1
            current = self._rex.kb.version
            if current == version_at_start or restarts >= max_restarts:
                break
            restarts += 1
            self._warmup_restarts.inc()
            kb = self._rex.kb
            pending = [
                (v_start, v_end)
                for v_start, v_end in pending
                if kb.has_entity(v_start)
                and kb.has_entity(v_end)
                and not self.cache.contains(
                    (v_start, v_end, measure_name, k, effective_limit), current
                )
            ]
            log_event(
                _LOG, logging.INFO, "warmup_restart",
                kb_version=current, warmed_version=version_at_start,
                restart=restarts, stale_pairs=len(pending),
            )
        self._warmed_pairs.inc(warmed)
        return {
            "warmed": warmed,
            "skipped": skipped,
            "restarts": restarts,
            "elapsed_s": round(time.perf_counter() - started, 6),
        }

    # -- lifecycle ---------------------------------------------------------

    @property
    def executor(self) -> ParallelBatchExecutor | None:
        """The worker pool, if parallel batches have spun one up yet."""
        return self._executor

    def close(self) -> None:
        """Flush durability state and release the worker pool; idempotent.

        Order: flush a final checkpoint (so a graceful shutdown leaves the
        next cold boot O(file size)), close the store, then the fleet.  Safe
        to call from concurrent threads, a signal handler *and* atexit: the
        whole body runs under one idempotency lock, so a second caller
        blocks until the first finishes and then returns immediately —
        racing closers can never double-join the checkpoint thread,
        double-close the store or double-release the fleet.  The lock is
        re-entrant so a signal handler interrupting close() on the same
        thread returns instead of deadlocking.  The HTTP server calls this
        from ``server_close`` so worker processes never outlive the serving
        process.
        """
        with self._close_lock:
            if self._closed:
                return
            with self._durability_lock:
                self._closed = True
            if self._checkpoint_path is not None:
                pending = self._checkpoint_thread
                if pending is not None and pending.is_alive():
                    pending.join(timeout=30)
                    if pending.is_alive():
                        # the daemon writer is wedged (stalled fsync, hung
                        # disk): shutting down must not hang behind it, but
                        # leaking a thread is an event operators should see —
                        # loudly, and in stats()
                        log_event(
                            _LOG, logging.WARNING, "checkpoint_thread_leaked",
                            thread=pending.name, join_timeout_s=30,
                        )
                        self._leaked_threads.append(pending.name)
                try:
                    self._save_checkpoint(self._rex.kb)
                except CheckpointError:
                    pass  # recorded: durability() reports it
            if self._store is not None:
                self._store.close()
            with self._executor_lock:
                executor, self._executor = self._executor, None
            if executor is not None:
                executor.close()

    # -- fleet operations --------------------------------------------------

    def fleet(self) -> dict[str, Any]:
        """Status of the supervised worker fleet, for ``/healthz`` and ops.

        Sequential engines (``parallelism < 2``) report
        ``{"enabled": False}``; parallel engines report per-replica health
        (state, latency EWMA/p95, probe misses, transition log), the hot
        standby, the hedge policy and the fleet's lifetime counters.
        ``"replicas": None`` means the fleet has not served a batch yet —
        it spins up on the first cache-miss batch.
        """
        if self.parallelism < 2:
            return {"enabled": False, "parallelism": self.parallelism}
        executor = self._executor
        detail = executor.fleet_snapshot() if executor is not None else None
        payload: dict[str, Any] = {
            "enabled": True,
            "parallelism": self.parallelism,
        }
        if detail is None:
            payload["replicas"] = None
        else:
            payload.update(detail)
        return payload

    def drain_fleet(self, timeout_s: float = 30.0) -> dict[str, Any]:
        """Wait for in-flight fleet work to quiesce (``POST /admin/drain``).

        Returns ``{"drained": bool, "inflight": int}``; a sequential engine
        (or one whose fleet never spun up) is trivially drained.
        """
        executor = self._executor
        if self.parallelism < 2 or executor is None:
            return {"drained": True, "inflight": 0}
        drained = executor.drain(timeout_s)
        fleet = executor.fleet_snapshot() or {"replicas": []}
        inflight = sum(
            replica.get("inflight", 0) for replica in fleet.get("replicas", [])
        )
        return {"drained": drained, "inflight": inflight}

    def rolling_restart(
        self,
        drain_timeout_s: float = 30.0,
        ready_timeout_s: float | None = None,
    ) -> dict[str, Any]:
        """Zero-downtime rolling restart of the worker fleet.

        Replaces replicas one slot at a time, make-before-break: the
        replacement is built and probed healthy *before* the old replica is
        drained and retired, so at least one replica serves at every
        instant.  A sequential engine is a no-op (there is no fleet to
        roll).  See ``docs/robustness.md`` for the runbook.
        """
        if self.parallelism < 2:
            return {"replaced": 0, "enabled": False}
        executor = self._ensure_executor()
        return executor.rolling_restart(drain_timeout_s, ready_timeout_s)

    # -- observability -----------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Engine + cache counters, for ``/metrics`` and tests."""
        payload = self.metrics.snapshot()
        payload["cache"] = self.cache.snapshot()
        view = self._rex.kb
        payload["kb"] = {
            "version": view.version,
            "entities": view.num_entities,
            "edges": view.num_edges,
        }
        payload["parallel"] = {"parallelism": self.parallelism}
        executor = self._executor
        if executor is not None:
            payload["parallel"].update(executor.snapshot())
        payload["durability"] = self.durability()
        payload["resilience"] = self.resilience()
        payload["traces"] = self.tracer.snapshot()
        return payload

    def resilience(self) -> dict[str, Any]:
        """The engine's resilience posture, for ``/healthz`` and operators.

        Covers the circuit breaker (state machine snapshot), the default
        deadline, the worker-crash retry policy, and any threads ``close()``
        had to abandon.  Reading it also refreshes the
        ``engine.breaker_state`` gauge, so scrapes observe open→half_open
        transitions that no request has triggered yet.
        """
        self._publish_breaker()
        return {
            "breaker": self.breaker.snapshot(),
            "default_deadline_s": self.default_deadline_s,
            "retry": {
                "max_attempts": self.retry_policy.max_attempts,
                "base_delay_s": self.retry_policy.base_delay_s,
                "max_delay_s": self.retry_policy.max_delay_s,
            },
            "leaked_threads": list(self._leaked_threads),
        }

    # -- durability internals ----------------------------------------------

    def _boot_view(self, kb: KnowledgeBase | CompiledKB) -> CompiledKB:
        """The view this engine serves first, per the recovery ladder.

        With a non-empty store: the checkpoint at the store's version
        (O(file size)), else the store replayed and compiled.  With an empty
        store: bootstrap it from the seed ``kb``, then compile the seed.
        Without a store but with a checkpoint matching the seed's version:
        the restored planes.  Otherwise the compiled seed.  A corrupt or
        stale checkpoint is *never* served — it is counted, reported, and
        replaced by replay.  Neither the seed nor a replayed KB is kept.
        """
        if self._store is not None:
            try:
                store_empty = self._store.is_empty()
            except StoreError as error:
                self._record_store_error(error)
                return self._compile_boot(kb)
            if store_empty:
                try:
                    self._store.bootstrap(kb)
                    self._store_batches.inc()
                except StoreError as error:
                    self._record_store_error(error)
                return self._compile_boot(kb)
            persisted_version = self._store.last_version()
            restored = self._try_restore_checkpoint(persisted_version)
            if restored is not None:
                self.boot_info = {
                    "source": "checkpoint",
                    "kb_version": restored.version,
                    "store_path": self._store.path,
                }
                return restored
            loaded = self._store.load()
            # update() rather than replace: _try_restore_checkpoint may have
            # recorded a checkpoint_rejected reason that must stay visible
            self.boot_info.update(
                source="store",
                kb_version=loaded.version,
                store_path=self._store.path,
            )
            return self._compile_boot(loaded)
        if self._checkpoint_path is not None:
            restored = self._try_restore_checkpoint(kb.version)
            if restored is not None:
                self.boot_info = {"source": "checkpoint", "kb_version": restored.version}
                return restored
        return self._compile_boot(kb)

    def _compile_boot(self, kb: KnowledgeBase | CompiledKB) -> CompiledKB:
        """Compile the boot KB (a passed compiled view is served as is)."""
        with span("kb_compile"):
            view = CompiledKB.compile(kb)
        if view is not kb:
            self._compiles.inc()
        return view

    def _try_restore_checkpoint(self, expected_version: int) -> CompiledKB | None:
        """Load the checkpoint if present and exactly at ``expected_version``."""
        path = self._checkpoint_path
        if path is None:
            return None
        existed = path.exists()
        try:
            compiled = _load_checkpoint(path, expected_version=expected_version)
        except CheckpointError as error:
            if existed:
                # an unusable checkpoint (torn, corrupt, stale) is an event
                # operators should see; a simply absent file is not
                self._checkpoint_rejected.inc()
                self.boot_info["checkpoint_rejected"] = str(error)
            return None
        self._checkpoint_restores.inc()
        with self._durability_lock:
            self._last_checkpoint = (compiled.version, time.time())
        return compiled

    def _record_store_error(self, error: StoreError) -> None:
        with self._durability_lock:
            self._store_error = str(error)
        self._store_failures.inc()

    def _schedule_checkpoint(self, compiled: CompiledKB) -> None:
        """Write ``compiled`` to the checkpoint file on a background thread.

        Called after the boot compile and after each compaction.  The view is
        immutable, so the writer thread needs no lock on it; per-version
        dedup keeps one write per version.
        """
        if self._checkpoint_path is None:
            return
        with self._durability_lock:
            if self._closed:
                return
            last = self._last_checkpoint
            if last is not None and last[0] >= compiled.version:
                return
            pending = self._checkpoint_thread
            if pending is not None and pending.is_alive():
                # one writer at a time; the close() flush catches anything
                # this skip leaves behind
                return
            thread = threading.Thread(
                target=self._write_checkpoint,
                args=(compiled,),
                name="rex-checkpoint",
                daemon=True,
            )
            self._checkpoint_thread = thread
        thread.start()

    def _write_checkpoint(self, compiled: CompiledKB) -> None:
        try:
            self._save_checkpoint(compiled)
        except CheckpointError:
            pass  # recorded: durability() reports it

    def _save_checkpoint(self, view: CompiledKB) -> bool:
        """Write ``view`` to the checkpoint file unless one as new is there.

        Returns whether it wrote.  The version check and the write run under
        the checkpoint write lock, so the file only ever moves forward and
        ``_last_checkpoint`` names what it holds.  A failure is recorded
        (``degraded`` in :meth:`durability`) and re-raised.
        """
        assert self._checkpoint_path is not None
        with self._checkpoint_write_lock:
            with self._durability_lock:
                last = self._last_checkpoint
            if last is not None and last[0] >= view.version:
                return False
            try:
                save_checkpoint(view, self._checkpoint_path)
            except CheckpointError as error:
                with self._durability_lock:
                    self._checkpoint_error = str(error)
                self._checkpoint_failures.inc()
                raise
            with self._durability_lock:
                self._checkpoint_error = None
                self._last_checkpoint = (view.version, time.time())
        self._checkpoints_written.inc()
        return True

    # -- durability API ----------------------------------------------------

    @property
    def store(self) -> KnowledgeBaseStore | None:
        """The durable system of record, if one is configured."""
        return self._store

    @property
    def checkpoint_path(self) -> Path | None:
        """Where compiled-plane checkpoints are written, if configured."""
        return self._checkpoint_path

    def checkpoint(self) -> dict[str, Any]:
        """Synchronously write a checkpoint of the current KB version.

        Returns ``{"kb_version", "path", "written"}`` — ``written`` is
        ``False`` when the on-disk checkpoint already covers this version.

        Raises:
            RexError: when no ``checkpoint_dir`` is configured.
            CheckpointError: when the write fails (the engine also records
                the failure and reports ``degraded``).
        """
        if self._checkpoint_path is None:
            raise RexError("this engine has no checkpoint_dir configured")
        view = self._rex.kb
        written = self._save_checkpoint(view)
        return {
            "kb_version": view.version,
            "path": str(self._checkpoint_path),
            "written": written,
        }

    def durability(self) -> dict[str, Any]:
        """The engine's durability posture, for ``/healthz`` and operators.

        ``mode`` is ``durable`` (a healthy store is recording every write),
        ``degraded`` (a store or checkpoint path is configured but its last
        disk operation failed — serving continues from memory), or
        ``memory`` (no store configured; checkpoint-only engines also report
        ``memory`` because posted edges do not survive a crash without the
        system of record).
        """
        with self._durability_lock:
            last = self._last_checkpoint
            store_error = self._store_error
            checkpoint_error = self._checkpoint_error
        if store_error or checkpoint_error:
            mode = "degraded"
        elif self._store is not None:
            mode = "durable"
        else:
            mode = "memory"
        return {
            "mode": mode,
            "store_path": self._store.path if self._store is not None else None,
            "store_error": store_error,
            "checkpoint_dir": (
                str(self._checkpoint_dir) if self._checkpoint_dir is not None else None
            ),
            "checkpoint_version": last[0] if last is not None else None,
            "checkpoint_age_s": (
                round(time.time() - last[1], 3) if last is not None else None
            ),
            "checkpoint_error": checkpoint_error,
            "boot": dict(self.boot_info),
        }

    def _checkpoint_on_disk(self) -> tuple[str, int] | None:
        """The on-disk checkpoint as ``(path, version)``, if one was written.

        The executor's snapshots ship the base by this path when it holds the
        current view or its overlay's root base, instead of plane bytes.
        """
        path = self._checkpoint_path
        if path is None:
            return None
        with self._durability_lock:
            last = self._last_checkpoint
        if last is None:
            return None
        return str(path), last[0]

    # -- internals ---------------------------------------------------------

    def _ensure_executor(self) -> ParallelBatchExecutor:
        """The lazily created worker pool (spun up on the first miss batch)."""
        with self._executor_lock:
            if self._executor is None:
                self._executor = ParallelBatchExecutor(
                    lambda: self._rex.kb,
                    workers=self.parallelism,
                    size_limit=self.size_limit,
                    # workers load the base from the checkpoint's path when
                    # it holds the served view or its overlay's root base
                    checkpoint_provider=self._checkpoint_on_disk,
                    # fleet gauges/counters land in the shared registry, so
                    # /metrics and the Prometheus view pick them up
                    metrics=self.metrics,
                    fleet_options=self._fleet_options,
                )
            return self._executor

    @staticmethod
    def _validate_request_shape(request: object) -> None:
        """Reject batch items that are not explain-request mappings."""
        if not isinstance(request, Mapping):
            raise RexError(f"each batch request must be an object, got {request!r}")
        if "start" not in request or "end" not in request:
            raise RexError(
                f"batch requests need 'start' and 'end' keys, got {sorted(request)}"
            )

    def _validate_request(
        self,
        v_start: object,
        v_end: object,
        measure: str | Measure,
        k: object,
        size_limit: object,
    ) -> tuple[Measure, int]:
        """Full request validation, shared by every serving path.

        Validates request *types* before anything touches a dict or the cache
        key: unhashable/bogus values must surface as RexError (a clean 400
        and an inline batch error), never as a TypeError 500.
        """
        for name, entity in (("v_start", v_start), ("v_end", v_end)):
            if not isinstance(entity, str):
                raise RexError(f"{name} must be an entity id string, got {entity!r}")
        validate_k(k)
        if size_limit is not None:
            validate_size_limit(size_limit)
        for entity in (v_start, v_end):
            if not self._rex.kb.has_entity(entity):
                raise UnknownEntityError(entity)
        measure_obj = self._resolve_measure(measure)
        # validate_size_limit above guarantees size_limit is an int here
        effective_limit = size_limit if size_limit is not None else self.size_limit
        assert isinstance(effective_limit, int)
        return measure_obj, effective_limit

    def _resolve_measure(self, measure: str | Measure) -> Measure:
        if isinstance(measure, Measure):
            return measure
        if not isinstance(measure, str):
            raise RexError(
                f"measure must be a name string or a Measure, got {measure!r}"
            )
        try:
            return self._measures[measure]
        except KeyError:
            raise RexError(
                f"unknown measure {measure!r}; available: "
                f"{sorted(self._measures)}"
            ) from None

    def _compute(
        self,
        v_start: str,
        v_end: str,
        measure: Measure,
        k: int,
        size_limit: int,
    ) -> tuple[tuple[RankedExplanation, ...], int]:
        """Run the full enumerate+rank pipeline on the current view.

        Returns the ranked tuple plus the version of the view it ran on: the
        Rex (and its immutable view) is captured once, so a write swapping in
        a newer view mid-computation does not touch this one.
        """
        self._enumerations.inc()
        rex = self._rex
        ranked = tuple(
            rex.explain(v_start, v_end, measure=measure, k=k, size_limit=size_limit)
        )
        return ranked, rex.kb.version

    def _outcome(
        self,
        ranked: tuple[RankedExplanation, ...],
        key: tuple,
        version: int,
        cached: bool,
        coalesced: bool,
        started: float,
        trace: Trace | None = None,
    ) -> ExplainOutcome:
        elapsed = time.perf_counter() - started
        self._latency.observe(elapsed)
        v_start, v_end, measure_name, k, size_limit = key
        if not cached:
            # per-measure labeled histogram, excluding cache hits (their
            # latency reflects the cache, not the measure's pipeline); the
            # handle cache keeps the registry lock off the serving path
            hist = self._latency_by_measure.get(measure_name)
            if hist is None:
                hist = self._latency_by_measure[measure_name] = self.metrics.histogram(
                    f"engine.explain_latency{{measure={measure_name}}}"
                )
            hist.observe(elapsed)
        return ExplainOutcome(
            ranked=ranked,
            v_start=v_start,
            v_end=v_end,
            measure=measure_name,
            k=k,
            size_limit=size_limit,
            kb_version=version,
            cached=cached,
            coalesced=coalesced,
            elapsed_s=elapsed,
            trace_id=trace.trace_id if trace is not None else None,
            phases=trace.phase_breakdown() if trace is not None else (),
        )
