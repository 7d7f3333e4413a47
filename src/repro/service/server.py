"""A stdlib HTTP/JSON front end for the explanation engine.

``ThreadingHTTPServer`` gives one thread per connection, which pairs with the
engine's single-flight coalescing: a burst of identical requests costs one
enumeration while every other thread waits on the leader's result.

Endpoints:

``GET /healthz``
    Liveness plus KB shape and durability posture: ``{"status", "kb_version",
    "entities", "edges", "durability", "checkpoint_age_s",
    "durability_detail"}`` — ``durability`` is ``durable`` / ``memory`` /
    ``degraded`` (see ``docs/durability.md``).
``GET /explain``
    Query parameters: ``start``, ``end`` (required), ``measure``, ``k``,
    ``size_limit``, ``max_instances`` (optional).  Returns the envelope of
    :func:`repro.service.serialize.outcome_to_dict`.
``POST /explain/batch``
    Body ``{"requests": [{"start", "end", ...}, ...]}``; answers each request
    independently and reports per-item errors inline.
``POST /kb/edges``
    Body ``{"edges": [{"source", "target", "label", "directed"?}, ...]}``;
    applies a live KB update and reports the new ``kb_version`` plus how many
    stale cache entries were purged.
``POST /admin/drain``
    Operational: wait (bounded by ``timeout_s``, query or JSON body, default
    30) for the worker fleet's in-flight chunks to quiesce; returns
    ``{"drained": bool, "inflight": int}``.  Never admission-gated — the
    drain an operator needs most is during saturation — and the body is
    optional.  ``/healthz`` carries the per-replica fleet detail
    (``"fleet"``), and ``rex-explain serve --rolling-restart-s N`` performs
    periodic zero-downtime rolling restarts (see ``docs/robustness.md``).
``GET /metrics``
    Engine counters, latency histograms, cache statistics and per-endpoint
    HTTP counters as one JSON document.  ``?format=prometheus`` renders the
    same registry in the Prometheus text exposition format 0.0.4 instead.
``GET /debug/traces``
    The most recent sampled traces (``?limit=N``, newest first) plus tracer
    buffer statistics — the HTTP view of ``rex-explain profile``.

Observability: every request gets a ``request_id`` (the trace id when the
request was sampled by the engine's tracer); responses that are JSON objects
carry it as ``request_id`` so a client can quote it back.  Completed requests
emit one structured access-log line on the ``rex.access`` logger, upgraded to
a warning once the wall time crosses the server's ``slow_query_s`` threshold.
Loggers are silent until :func:`repro.obs.logging.configure_logging` runs
(the ``serve`` entry point wires ``--log-level``/``--log-json`` into it).

Error mapping: invalid parameters and malformed bodies are ``400``, unknown
entities are ``404``, unknown routes are ``404`` with an ``error`` body, a
batch larger than the server's ``max_batch_requests`` is ``413``, a body
with a missing or over-limit ``Content-Length`` is ``413`` before a single
body byte is read, a crashed worker process is ``500``, and unexpected
failures are ``500``.  Every error body is ``{"error": message}`` — a
failure never leaves the client with a hung connection, and an unhandled
exception is logged with its traceback and request id on ``rex.server``
instead of being swallowed or dumped bare to stderr.

:func:`serve` installs SIGTERM/SIGINT handlers: instead of dying mid-write,
the process stops accepting connections, flushes a final compiled-plane
checkpoint and closes the store (``server_close`` → ``engine.close()``,
which is idempotent, so a signal racing the ``finally`` block is safe).
"""

from __future__ import annotations

import json
import logging
import os
import signal
import sys
import threading
import time
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable
from urllib.parse import parse_qs, urlsplit

from repro.errors import DeadlineExceeded, RexError, UnknownEntityError
from repro.kb.graph import KnowledgeBase
from repro.obs.logging import (
    ACCESS_LOGGER_NAME,
    SERVER_LOGGER_NAME,
    configure_logging,
    get_logger,
    log_event,
)
from repro.obs.prometheus import (
    CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
)
from repro.obs.trace import Tracer
from repro.parallel import WorkerCrashError
from repro.resilience import (
    AdmissionController,
    AdmissionRejected,
    CircuitOpenError,
    deadline_scope,
)
from repro.service.engine import DEFAULT_MEASURE, ExplanationEngine
from repro.service.serialize import outcome_to_dict

__all__ = ["ExplanationServer", "create_server", "serve", "run_in_thread"]

#: Upper bound on accepted request bodies (1 MiB) — a serving-layer guard, not
#: a statement about KB sizes; bulk loads belong in :mod:`repro.kb.io`.
MAX_BODY_BYTES = 1 << 20

#: Upper bound on items per ``POST /explain/batch`` (overridable per server).
#: An oversized batch is rejected with ``413`` before any item is evaluated —
#: one runaway client must not monopolise the worker pool for minutes.
MAX_BATCH_REQUESTS = 1024

#: Requests slower than this (seconds) log at WARNING on ``rex.access``.
DEFAULT_SLOW_QUERY_S = float(os.environ.get("REX_SLOW_QUERY_S", "1.0"))


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise RexError(f"{name} must be an integer, got {raw!r}") from None


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        raise RexError(f"{name} must be a number, got {raw!r}") from None


#: Admission-control defaults (``REX_MAX_INFLIGHT`` / ``REX_MAX_QUEUE`` /
#: ``REX_QUEUE_TIMEOUT_S``): at most this many requests compute concurrently,
#: this many more wait in line (bounded — beyond it the server sheds 429
#: immediately), and a queued request gives up with 429 after this long.
DEFAULT_MAX_INFLIGHT = 64
DEFAULT_MAX_QUEUE = 128
DEFAULT_QUEUE_TIMEOUT_S = 5.0


class ExplanationServer(ThreadingHTTPServer):
    """A threading HTTP server that owns an :class:`ExplanationEngine`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        engine: ExplanationEngine,
        verbose: bool = False,
        max_batch_requests: int = MAX_BATCH_REQUESTS,
        slow_query_s: float = DEFAULT_SLOW_QUERY_S,
        admission: AdmissionController | None = None,
        request_timeout_s: float | None = None,
    ) -> None:
        # assigned before binding: a failed bind runs server_close, which
        # must already see the engine to release its worker pool
        self.engine = engine
        self.verbose = verbose
        self.max_batch_requests = max_batch_requests
        self.slow_query_s = slow_query_s
        #: Bounded admission for the work endpoints (explain, batch, edges);
        #: liveness probes and metrics scrapes are never queued or shed.
        self.admission = (
            admission
            if admission is not None
            else AdmissionController(
                max_inflight=_env_int("REX_MAX_INFLIGHT", DEFAULT_MAX_INFLIGHT),
                max_queue=_env_int("REX_MAX_QUEUE", DEFAULT_MAX_QUEUE),
                queue_timeout_s=_env_float(
                    "REX_QUEUE_TIMEOUT_S", DEFAULT_QUEUE_TIMEOUT_S
                ),
                metrics=engine.metrics,
            )
        )
        #: Per-connection socket timeout (idle/partial reads); overrides the
        #: handler's 30s class default when set — slow-client tests and
        #: aggressive operators dial it down.
        self.request_timeout_s = request_timeout_s
        self.started_at = time.time()
        super().__init__(address, _ExplainHandler)

    @property
    def url(self) -> str:
        """The base URL the server is bound to."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def server_close(self) -> None:
        """Close the listening socket and release the engine's worker pool."""
        super().server_close()
        self.engine.close()

    def handle_error(self, request: Any, client_address: Any) -> None:
        """Log per-connection failures instead of dumping a bare traceback.

        Clients hanging up mid-response (``BrokenPipeError``,
        ``ConnectionResetError``) are routine for a keep-alive server: they
        emit exactly one structured ``client_disconnect`` event (INFO) and
        bump ``http.client_disconnects`` — silently swallowing them hid real
        mid-response abort rates from operators.  Anything else is a server
        bug and is logged with its traceback on ``rex.server``.
        """
        exc_type, exc, _ = sys.exc_info()
        if exc_type is not None and issubclass(exc_type, ConnectionError):
            self.engine.metrics.counter("http.client_disconnects").inc()
            log_event(
                get_logger(SERVER_LOGGER_NAME),
                logging.INFO,
                "client_disconnect",
                client=str(client_address),
                error=exc_type.__name__,
            )
            return
        log_event(
            get_logger(SERVER_LOGGER_NAME),
            logging.ERROR,
            "connection_error",
            client=str(client_address),
            error=f"{exc_type.__name__}: {exc}" if exc_type else "unknown",
            trace="".join(traceback.format_exc()),
        )


class _ExplainHandler(BaseHTTPRequestHandler):
    server_version = "rex-serve/1.0"
    protocol_version = "HTTP/1.1"
    # replies go out as a header write and a body write; with Nagle's
    # algorithm on, the body of a reply on a keep-alive connection waits for
    # the client's delayed ACK of the headers (~40 ms).  The stdlib sets
    # TCP_NODELAY on the connection when this is true.
    disable_nagle_algorithm = True
    # keep-alive means idle or stalled clients otherwise pin a server thread
    # forever; the stdlib applies this to the socket and closes the
    # connection when an idle/partial read exceeds it
    timeout = 30

    # typed alias so the handler body reads naturally
    @property
    def engine(self) -> ExplanationEngine:
        return self.server.engine  # type: ignore[attr-defined]

    def setup(self) -> None:
        override = getattr(self.server, "request_timeout_s", None)
        if override is not None:
            self.timeout = override
        super().setup()

    # -- routing -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server naming convention
        parts = urlsplit(self.path)
        if parts.path == "/healthz":
            self._handle("GET /healthz", self._healthz)
        elif parts.path == "/metrics":
            self._handle("GET /metrics", self._metrics, parse_qs(parts.query))
        elif parts.path == "/debug/traces":
            self._handle("GET /debug/traces", self._debug_traces, parse_qs(parts.query))
        elif parts.path == "/explain":
            self._handle("GET /explain", self._explain, parse_qs(parts.query))
        else:
            self._handle("GET <unknown>", self._unknown_route, "GET", parts.path)

    def do_POST(self) -> None:  # noqa: N802 - http.server naming convention
        parts = urlsplit(self.path)
        if parts.path == "/explain/batch":
            self._handle(
                "POST /explain/batch", self._explain_batch, parse_qs(parts.query)
            )
        elif parts.path == "/kb/edges":
            self._handle("POST /kb/edges", self._kb_edges)
        elif parts.path == "/admin/drain":
            self._handle("POST /admin/drain", self._admin_drain, parse_qs(parts.query))
        else:
            # the request body (if any) is never read on this path; the
            # persistent connection must not be reused with it in the stream
            self.close_connection = True
            self._handle("POST <unknown>", self._unknown_route, "POST", parts.path)

    # -- endpoint implementations ------------------------------------------

    def _unknown_route(self, method: str, path: str) -> tuple[int, dict[str, Any]]:
        return 404, {"error": f"unknown route: {method} {path}"}

    def _healthz(self) -> tuple[int, dict[str, Any]]:
        kb = self.engine.kb
        durability = self.engine.durability()
        resilience = self.engine.resilience()
        admission = getattr(self.server, "admission", None)
        if admission is not None:
            resilience["admission"] = admission.snapshot()
        traces = self.engine.tracer.snapshot()
        return 200, {
            "status": "ok",
            "kb_version": kb.version,
            "entities": kb.num_entities,
            "edges": kb.num_edges,
            "durability": durability["mode"],
            "checkpoint_age_s": durability["checkpoint_age_s"],
            "durability_detail": durability,
            "breaker": resilience["breaker"]["state"],
            "resilience": resilience,
            "fleet": self.engine.fleet(),
            "uptime_s": round(
                time.time() - getattr(self.server, "started_at", time.time()), 3
            ),
            "traces": {
                "occupancy": traces["occupancy"],
                "capacity": traces["capacity"],
                "sample_rate": traces["sample_rate"],
            },
        }

    def _metrics(self, query: dict[str, list[str]]) -> tuple[int, Any]:
        exposition = _single(query, "format", "json")
        if exposition == "prometheus":
            # a str payload routes through _send_json's text branch with the
            # Prometheus content type
            return 200, render_prometheus(self.engine.metrics)
        if exposition != "json":
            return 400, {
                "error": f"unknown metrics format {exposition!r}; "
                "choose 'json' or 'prometheus'"
            }
        return 200, self.engine.stats()

    def _debug_traces(self, query: dict[str, list[str]]) -> tuple[int, dict[str, Any]]:
        try:
            limit = _int_param(query, "limit", 20, minimum=1)
        except ValueError as error:
            return 400, {"error": str(error)}
        tracer = self.engine.tracer
        return 200, {
            "tracer": tracer.snapshot(),
            "traces": tracer.recent(limit),
        }

    def _explain(self, query: dict[str, list[str]]) -> tuple[int, dict[str, Any]]:
        try:
            start = _single(query, "start")
            end = _single(query, "end")
        except KeyError as missing:
            return 400, {"error": f"missing query parameter: {missing.args[0]}"}
        measure = _single(query, "measure", DEFAULT_MEASURE)
        try:
            k = _int_param(query, "k", 10)
            size_limit = _int_param(query, "size_limit", None)
            max_instances = _int_param(query, "max_instances", 3, minimum=0)
            timeout_s = _float_param(query, "timeout_s")
        except ValueError as error:
            return 400, {"error": str(error)}
        outcome = self.engine.explain(
            start, end, measure=measure, k=k, size_limit=size_limit,
            deadline_s=timeout_s,
        )
        return 200, outcome_to_dict(outcome, max_instances=max_instances)

    def _explain_batch(self, query: dict[str, list[str]]) -> tuple[int, dict[str, Any]]:
        try:
            timeout_s = _float_param(query, "timeout_s")
        except ValueError as error:
            return 400, {"error": str(error)}
        document = self._read_json_body()
        requests = document.get("requests")
        if not isinstance(requests, list):
            raise _BadRequest("body must be an object with a 'requests' list")
        batch_limit = getattr(self.server, "max_batch_requests", MAX_BATCH_REQUESTS)
        if len(requests) > batch_limit:
            return 413, {
                "error": (
                    f"batch of {len(requests)} requests exceeds the "
                    f"{batch_limit} request limit"
                )
            }
        max_instances = document.get("max_instances", 3)
        if (
            not isinstance(max_instances, int)
            or isinstance(max_instances, bool)
            or max_instances < 0
        ):
            raise _BadRequest(
                f"'max_instances' must be a non-negative integer, got {max_instances!r}"
            )
        results: list[dict[str, Any]] = []
        answered = 0
        # one budget spans the whole batch (it is one request): per-item
        # expiries surface as inline item errors, not a whole-batch 504
        with deadline_scope(timeout_s):
            batch_results = self.engine.explain_batch(requests)
        for item in batch_results:
            if isinstance(item, RexError):
                results.append({"error": str(item)})
            else:
                answered += 1
                results.append(outcome_to_dict(item, max_instances=max_instances))
        return 200, {
            "num_requests": len(requests),
            "num_answered": answered,
            "results": results,
        }

    def _admin_drain(self, query: dict[str, list[str]]) -> tuple[int, dict[str, Any]]:
        try:
            timeout_s = _float_param(query, "timeout_s", 30.0)
        except ValueError as error:
            return 400, {"error": str(error)}
        document = self._read_optional_json_body()
        if "timeout_s" in document:
            raw = document["timeout_s"]
            if not isinstance(raw, (int, float)) or isinstance(raw, bool) or raw <= 0:
                raise _BadRequest(
                    f"'timeout_s' must be a positive number, got {raw!r}"
                )
            timeout_s = float(raw)
        return 200, self.engine.drain_fleet(timeout_s)

    def _kb_edges(self) -> tuple[int, dict[str, Any]]:
        document = self._read_json_body()
        edges = document.get("edges")
        if not isinstance(edges, list):
            raise _BadRequest("body must be an object with an 'edges' list")
        for edge in edges:
            if not isinstance(edge, dict):
                raise _BadRequest(f"each edge must be an object, got {edge!r}")
        summary = self.engine.add_edges(edges)
        return 200, summary

    # -- plumbing ----------------------------------------------------------

    #: Endpoints whose work is worth a request trace.  Read-only probes
    #: (healthz, metrics, debug) stay out of the sampling budget.
    _TRACED_ENDPOINTS = frozenset(
        {"GET /explain", "POST /explain/batch", "POST /kb/edges"}
    )

    #: Endpoints that compete for engine capacity and therefore pass through
    #: the admission controller.  Probes and scrapes must stay answerable
    #: even when the work queue is saturated — that is when operators look.
    _WORK_ENDPOINTS = _TRACED_ENDPOINTS

    def _handle(self, endpoint: str, func, *args) -> None:
        metrics = self.engine.metrics
        metrics.counter(f"http.requests{{{endpoint}}}").inc()
        tracer = self.engine.tracer
        trace = (
            tracer.maybe_start(endpoint)
            if endpoint in self._TRACED_ENDPOINTS
            else None
        )
        request_id = trace.trace_id if trace is not None else os.urandom(8).hex()
        started = time.perf_counter()
        error_note: str | None = None
        retry_after: float | None = None
        admission = (
            getattr(self.server, "admission", None)
            if endpoint in self._WORK_ENDPOINTS
            else None
        )
        try:
            if admission is not None:
                with admission.admit():
                    status, payload = func(*args)
            else:
                status, payload = func(*args)
        except _BadRequest as error:
            status, payload = 400, {"error": str(error)}
        except _PayloadTooLarge as error:
            status, payload = 413, {"error": str(error)}
        except UnknownEntityError as error:
            status, payload = 404, {"error": str(error)}
        except DeadlineExceeded as error:
            # mapped before the RexError catch-all (it subclasses it): the
            # request's budget ran out — tell the client when to come back
            metrics.counter("http.deadline_exceeded").inc()
            error_note = f"DeadlineExceeded: {error}"
            retry_after = 1.0
            status, payload = 504, {"error": str(error)}
        except AdmissionRejected as error:
            # load shed: the server is saturated and queuing longer would
            # only grow the backlog — fast 429 with a backoff hint
            metrics.counter("http.load_shed").inc()
            error_note = f"AdmissionRejected: {error}"
            retry_after = error.retry_after_s
            status, payload = 429, {"error": str(error)}
        except CircuitOpenError as error:
            # degraded mode: fresh computation refused, cached answers still
            # flow — surface the breaker's own recovery estimate
            metrics.counter("http.circuit_open").inc()
            error_note = f"CircuitOpenError: {error}"
            retry_after = error.retry_after_s
            status, payload = 503, {"error": str(error)}
        except RexError as error:
            status, payload = 400, {"error": str(error)}
        except WorkerCrashError as error:
            # infrastructure failure, not a client error: report it as a JSON
            # 500 (never a hung connection) and do not reuse the socket; the
            # engine recycles the pool on the next batch
            self.close_connection = True
            metrics.counter("http.worker_crashes").inc()
            error_note = f"WorkerCrashError: {error}"
            status, payload = 500, {"error": f"worker crash: {error}"}
        except TimeoutError:
            # the socket timed out mid-body (a trickling or stalled client):
            # the read position is undefined, so answer 408 and close instead
            # of letting the connection desync or hold its slot forever
            self.close_connection = True
            metrics.counter("http.request_timeouts").inc()
            error_note = "TimeoutError: timed out reading the request"
            status, payload = 408, {"error": "timed out reading the request body"}
        except Exception as error:
            # unknown failure state (possibly mid-read): do not reuse the
            # connection; the traceback goes to the server log with the
            # request id, never bare to stderr and never into the response
            self.close_connection = True
            error_note = f"{type(error).__name__}: {error}"
            log_event(
                get_logger(SERVER_LOGGER_NAME),
                logging.ERROR,
                "unhandled_exception",
                endpoint=endpoint,
                request_id=request_id,
                error=error_note,
                trace=traceback.format_exc(),
            )
            status, payload = 500, {
                "error": f"internal error: {error}",
                "request_id": request_id,
            }
        finally:
            if trace is not None:
                tracer.finish(trace, error=error_note)
        elapsed = time.perf_counter() - started
        if status >= 400:
            metrics.counter("http.errors").inc()
        if isinstance(payload, dict):
            payload.setdefault("request_id", request_id)
        self._access_log(endpoint, status, elapsed, request_id, trace is not None)
        self._send_json(status, payload, retry_after=retry_after)

    def _access_log(
        self,
        endpoint: str,
        status: int,
        elapsed: float,
        request_id: str,
        sampled: bool,
    ) -> None:
        """One structured line per completed request on ``rex.access``.

        Slow requests (wall time past the server's ``slow_query_s``) upgrade
        to WARNING with an explicit ``slow`` marker so they stand out of an
        INFO-level stream and survive a WARNING-level one.
        """
        slow_after = getattr(self.server, "slow_query_s", DEFAULT_SLOW_QUERY_S)
        slow = slow_after is not None and elapsed >= slow_after
        logger = get_logger(ACCESS_LOGGER_NAME)
        level = logging.WARNING if slow else logging.INFO
        if not logger.isEnabledFor(level):
            return
        fields = {
            "endpoint": endpoint,
            "status": status,
            "duration_ms": round(elapsed * 1000.0, 3),
            "request_id": request_id,
            "sampled": sampled,
        }
        if slow:
            fields["slow"] = True
            fields["slow_query_s"] = slow_after
        log_event(logger, level, "request", **fields)

    def _read_optional_json_body(self) -> dict[str, Any]:
        """Like :meth:`_read_json_body`, but a bodyless request is fine.

        Operational endpoints (``/admin/drain``) are routinely poked with
        plain ``curl -X POST`` and no body; requiring a Content-Length there
        would turn every runbook command into a 413.  Clients differ on how
        they spell "no body" — header absent versus ``Content-Length: 0`` —
        and both must mean "use the defaults".
        """
        length = self.headers.get("Content-Length")
        if length is None or length.strip() == "0":
            return {}
        return self._read_json_body()

    def _read_json_body(self) -> dict[str, Any]:
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            # possibly chunked or an unbounded stream we will not parse:
            # reject as unacceptably-sized before reading a byte, and close —
            # the unread body would desync the persistent connection
            self.close_connection = True
            raise _PayloadTooLarge(
                "a JSON body with Content-Length is required; bodies without "
                "a declared length are not accepted"
            )
        try:
            length = int(length_header)
        except ValueError:
            self.close_connection = True
            raise _BadRequest(f"invalid Content-Length: {length_header!r}") from None
        if length < 0 or length > MAX_BODY_BYTES:
            # reject without reading; the connection must not be reused with
            # the unread body still in the stream (request-smuggling vector)
            self.close_connection = True
            raise _PayloadTooLarge(
                f"body of {length} bytes exceeds the {MAX_BODY_BYTES} byte limit"
            )
        raw = self.rfile.read(length)
        try:
            document = json.loads(raw)
        except json.JSONDecodeError as error:
            raise _BadRequest(f"invalid JSON body: {error}") from None
        if not isinstance(document, dict):
            raise _BadRequest("the JSON body must be an object")
        return document

    def _send_json(
        self,
        status: int,
        payload: dict[str, Any] | str,
        retry_after: float | None = None,
    ) -> None:
        if isinstance(payload, str):
            # pre-rendered text exposition (Prometheus format)
            self._send_text(status, payload, PROMETHEUS_CONTENT_TYPE)
            return
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            # integer seconds per RFC 9110, floored at 1 so "soon" is never
            # rendered as an instant retry invitation
            self.send_header("Retry-After", str(max(1, int(round(retry_after)))))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):  # pragma: no cover - opt-in
            super().log_message(format, *args)


class _BadRequest(Exception):
    """Raised by handlers for malformed requests; mapped to HTTP 400."""


class _PayloadTooLarge(Exception):
    """Raised for missing/oversized body declarations; mapped to HTTP 413.

    Mirrors the ``max_batch_requests`` guard: the request is refused before
    any body byte is read or any work is scheduled.
    """


def _single(query: dict[str, list[str]], name: str, default: str | None = None) -> str:
    values = query.get(name)
    if not values:
        if default is None:
            raise KeyError(name)
        return default
    return values[-1]


def _int_param(
    query: dict[str, list[str]],
    name: str,
    default: int | None,
    minimum: int | None = None,
) -> int | None:
    values = query.get(name)
    if not values:
        return default
    try:
        value = int(values[-1])
    except ValueError:
        raise ValueError(
            f"query parameter {name!r} must be an integer, got {values[-1]!r}"
        ) from None
    if minimum is not None and value < minimum:
        raise ValueError(
            f"query parameter {name!r} must be >= {minimum}, got {value}"
        )
    return value


def _float_param(
    query: dict[str, list[str]], name: str, default: float | None = None
) -> float | None:
    """An optional positive float query parameter (``timeout_s``)."""
    values = query.get(name)
    if not values:
        return default
    try:
        value = float(values[-1])
    except ValueError:
        raise ValueError(
            f"query parameter {name!r} must be a number, got {values[-1]!r}"
        ) from None
    if value <= 0:
        raise ValueError(f"query parameter {name!r} must be positive, got {value}")
    return value


def create_server(
    engine: ExplanationEngine,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    max_batch_requests: int = MAX_BATCH_REQUESTS,
    slow_query_s: float = DEFAULT_SLOW_QUERY_S,
    admission: AdmissionController | None = None,
    request_timeout_s: float | None = None,
) -> ExplanationServer:
    """Bind an :class:`ExplanationServer` (``port=0`` picks an ephemeral port).

    The server is bound but not yet serving; call ``serve_forever()`` (often
    on a background thread) and ``shutdown()`` when done.
    """
    return ExplanationServer(
        (host, port),
        engine,
        verbose=verbose,
        max_batch_requests=max_batch_requests,
        slow_query_s=slow_query_s,
        admission=admission,
        request_timeout_s=request_timeout_s,
    )


def _install_shutdown_handlers(server: ExplanationServer) -> dict[int, Any]:
    """Route SIGTERM/SIGINT into a clean ``server.shutdown()``.

    ``shutdown()`` must not run on the thread executing ``serve_forever`` (it
    joins the serve loop), so the handler hands it to a one-shot daemon
    thread and returns immediately; ``serve`` then falls through to its
    ``finally`` block where ``server_close`` flushes the final checkpoint
    and closes the store.  Returns the previous handlers so the caller can
    restore them; an empty dict when not on the main thread (Python only
    allows ``signal.signal`` there — tests embedding ``serve`` in a thread
    simply keep their own handling).
    """
    previous: dict[int, Any] = {}

    def _handle_signal(signum: int, frame: Any) -> None:
        threading.Thread(
            target=server.shutdown, name="rex-serve-shutdown", daemon=True
        ).start()

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _handle_signal)
        except ValueError:  # pragma: no cover - non-main-thread embedding
            break
    return previous


def _rolling_restart_loop(
    engine: ExplanationEngine,
    interval_s: float,
    stop: threading.Event,
) -> None:
    """Periodic zero-downtime fleet rolls (``--rolling-restart-s``).

    Failures are logged and the timer keeps ticking: a transient inability
    to build a replacement replica (e.g. a fork bomb elsewhere on the host)
    must not permanently disable the refresh cycle.
    """
    while not stop.wait(interval_s):
        try:
            summary = engine.rolling_restart()
            log_event(
                get_logger(SERVER_LOGGER_NAME),
                logging.INFO,
                "rolling_restart",
                replaced=summary.get("replaced", 0),
            )
        except Exception as error:
            log_event(
                get_logger(SERVER_LOGGER_NAME),
                logging.WARNING,
                "rolling_restart_failed",
                error=f"{type(error).__name__}: {error}",
            )


def serve(
    kb: KnowledgeBase | Callable[[], KnowledgeBase],
    host: str = "127.0.0.1",
    port: int = 8080,
    size_limit: int | None = None,
    cache_capacity: int = 2048,
    cache_ttl: float | None = None,
    warmup_pairs: list[tuple[str, str]] | None = None,
    verbose: bool = True,
    parallelism: int | None = None,
    store_path: str | Path | None = None,
    checkpoint_dir: str | Path | None = None,
    log_level: str | None = None,
    log_json: bool = False,
    slow_query_s: float = DEFAULT_SLOW_QUERY_S,
    trace_sample: float | None = None,
    deadline_s: float | None = None,
    max_inflight: int | None = None,
    max_queue: int | None = None,
    queue_timeout_s: float | None = None,
    request_timeout_s: float | None = None,
    rolling_restart_s: float | None = None,
) -> None:
    """Blocking convenience entry point: build an engine and serve forever.

    ``kb`` is the knowledge base or a zero-argument callable that loads it.
    The engine keeps only its compiled view, and so does this function, so
    the KB is freed once the engine is built — unless the caller still holds
    it.  A call that passes many keyword arguments keeps its positional
    arguments alive until it returns (CPython gathers them into a tuple), so
    such a caller passes a loader.

    With ``store_path``/``checkpoint_dir`` the engine boots from the durable
    tier (checkpoint first, SQLite replay second, the passed ``kb`` only as
    bootstrap seed) and SIGTERM/SIGINT trigger a graceful shutdown that
    flushes a final checkpoint instead of dying mid-write.

    ``log_level``/``log_json`` configure the ``rex`` logger hierarchy (access
    and server logs are silent unless a level is given); ``slow_query_s``
    sets the access-log slow-request threshold and ``trace_sample``
    overrides the tracer's sampling rate (1.0 traces every request).

    Resilience knobs (all optional, env-backed — ``docs/robustness.md``):
    ``deadline_s`` is the default per-request compute budget (504 past it,
    ``REX_DEADLINE_S``); ``max_inflight``/``max_queue``/``queue_timeout_s``
    bound admission (429 beyond them, ``REX_MAX_INFLIGHT`` / ``REX_MAX_QUEUE``
    / ``REX_QUEUE_TIMEOUT_S``); ``request_timeout_s`` overrides the 30s
    per-connection socket timeout for idle or trickling clients;
    ``rolling_restart_s`` (``REX_ROLLING_RESTART_S``, unset/0 = off) rolls
    the worker fleet every N seconds with zero downtime — replicas are
    replaced one at a time, make-before-break, so periodic worker refreshes
    (leak hygiene, picking up new checkpoints) never cost availability.
    """
    if log_level is not None:
        configure_logging(level=log_level, json_lines=log_json)
    engine_kwargs: dict[str, Any] = {
        "cache_capacity": cache_capacity,
        "cache_ttl": cache_ttl,
        "parallelism": parallelism,
        "store_path": store_path,
        "checkpoint_dir": checkpoint_dir,
    }
    if size_limit is not None:
        engine_kwargs["size_limit"] = size_limit
    if trace_sample is not None:
        engine_kwargs["tracer"] = Tracer(sample_rate=trace_sample)
    if deadline_s is not None:
        engine_kwargs["deadline_s"] = deadline_s
    if callable(kb):
        kb = kb()
    engine = ExplanationEngine(kb, **engine_kwargs)
    # the engine serves its compiled view; holding the KB here would keep
    # the whole dict graph alive for the life of the server
    del kb
    admission = AdmissionController(
        max_inflight=(
            max_inflight if max_inflight is not None
            else _env_int("REX_MAX_INFLIGHT", DEFAULT_MAX_INFLIGHT)
        ),
        max_queue=(
            max_queue if max_queue is not None
            else _env_int("REX_MAX_QUEUE", DEFAULT_MAX_QUEUE)
        ),
        queue_timeout_s=(
            queue_timeout_s if queue_timeout_s is not None
            else _env_float("REX_QUEUE_TIMEOUT_S", DEFAULT_QUEUE_TIMEOUT_S)
        ),
        metrics=engine.metrics,
    )
    # bind before the (potentially long) warmup so a taken port fails fast
    server = create_server(
        engine, host=host, port=port, verbose=verbose, slow_query_s=slow_query_s,
        admission=admission, request_timeout_s=request_timeout_s,
    )
    previous_handlers = _install_shutdown_handlers(server)
    restart_every_s = (
        rolling_restart_s
        if rolling_restart_s is not None
        else _env_float("REX_ROLLING_RESTART_S", 0.0)
    )
    restart_stop = threading.Event()
    restart_thread: threading.Thread | None = None
    if restart_every_s > 0:
        restart_thread = threading.Thread(
            target=_rolling_restart_loop,
            args=(engine, restart_every_s, restart_stop),
            name="rex-rolling-restart",
            daemon=True,
        )
        restart_thread.start()
        if verbose:
            print(f"rolling restart: every {restart_every_s:.0f}s")
    if warmup_pairs:
        summary = engine.warmup(warmup_pairs)
        if verbose:
            print(
                f"warmup: {summary['warmed']} pairs precomputed, "
                f"{summary['skipped']} skipped in {summary['elapsed_s']:.3f}s"
            )
    if verbose:
        boot = engine.boot_info
        durability = engine.durability()
        print(
            f"durability: mode={durability['mode']} "
            f"boot_source={boot.get('source')} kb_version={engine.kb_version}"
        )
        print(f"rex-serve listening on {server.url}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        restart_stop.set()
        if restart_thread is not None:
            restart_thread.join(timeout=1.0)
        for signum, handler in previous_handlers.items():
            try:
                signal.signal(signum, handler)
            except ValueError:  # pragma: no cover - non-main-thread embedding
                pass
        server.server_close()


#: ``serve_forever`` poll interval of :func:`run_in_thread`: ``shutdown()``
#: waits for the next poll, and the stdlib default (0.5 s) made every
#: embedded server's teardown wait about that long.
_THREAD_POLL_INTERVAL_S = 0.05


def run_in_thread(server: ExplanationServer) -> threading.Thread:
    """Start ``serve_forever`` on a daemon thread (tests and smoke mode)."""
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": _THREAD_POLL_INTERVAL_S},
        name="rex-serve",
        daemon=True,
    )
    thread.start()
    return thread
