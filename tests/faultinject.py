"""Fault-injection utilities for the durability and resilience test suites.

Four layers of induced failure, matching the layers that can actually fail
in production:

* :func:`flaky_connection_factory` — a ``KnowledgeBaseStore`` connection
  factory whose transactions start failing at commit time after a budget of
  successful commits, for exercising the store's rollback / degraded-mode
  paths without touching the filesystem;
* :func:`broken_checkpoint_fs` — a context manager that swaps the
  checkpoint module's ``fsync``/``replace`` seams for ones that raise
  ``EIO``, for exercising checkpoint-write failure handling;
* :func:`kill_worker_pool` / :func:`kill_fleet` — SIGKILL every live worker
  of an engine's (or an executor's) replica fleet, with its replacements
  held until the fleet recycles, for exercising the retry-with-backoff and
  circuit-breaker paths (``tests/test_resilience_chaos.py`` and the
  resilience benchmark's chaos gate) and the executor's crash surfacing;
* :func:`stop_one_worker` / :func:`resume_worker` / :func:`gray_failure` —
  SIGSTOP a single replica to fake a *gray* failure: the process exists
  (no BrokenProcessPool, no crash), it just never answers.  Only the
  fleet's probe/hedge machinery can detect this, which is exactly what
  the fleet tests and ``benchmarks/bench_fleet.py`` assert;
* :class:`ServerProcess` — a subprocess driver around ``rex-explain serve``
  that the crash tests SIGKILL mid-write-burst and then restart against the
  same database, asserting recovery from the outside like an operator would.

This module is imported by tests, not collected as one (no ``test_``
prefix).
"""

from __future__ import annotations

import errno
import http.client
import json
import os
import signal
import sqlite3
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

__all__ = [
    "FlakyConnection",
    "flaky_connection_factory",
    "broken_checkpoint_fs",
    "kill_worker_pool",
    "kill_fleet",
    "stop_one_worker",
    "resume_worker",
    "gray_failure",
    "ServerProcess",
]


# -- worker-pool chaos -------------------------------------------------------


def kill_worker_pool(engine: Any) -> list[int]:
    """SIGKILL every live worker process of ``engine``'s batch executor.

    The pool must already be spun up (dispatch one batch first); returns the
    pids that were killed.  No Python cleanup of any kind runs in the
    workers — the next dispatch observes the crash, and what happens then
    (transparent retry, structured failure, breaker trip) is exactly what
    the resilience tests assert.
    """
    executor = engine.executor
    assert executor is not None, "the pool must be spun up before the kill"
    return kill_fleet(executor)


def kill_fleet(executor: Any) -> list[int]:
    """SIGKILL every worker of ``executor``'s fleet, hot standby included.

    The killed fleet's replacements are held: left alone, the fleet rebuilds
    its standby as soon as it sees the first death (in tens of
    milliseconds), and a batch failing over onto that fresh replica
    succeeds, so whether the next dispatch met the crash would depend on
    timing.  Held, every replica stays dead until the executor recycles the
    poisoned fleet, which builds a new fleet that is not held.  Returns the
    killed pids.
    """
    pids = list(executor.worker_pids())
    fleet = executor._fleet
    fleet._spawn_standby_async = lambda: None
    fleet._schedule_restart = lambda slot: None
    for pid in pids:
        os.kill(pid, signal.SIGKILL)
    return pids


def stop_one_worker(engine: Any) -> int:
    """SIGSTOP one active-slot replica of ``engine``'s fleet (gray failure).

    Unlike SIGKILL, a stopped process stays alive for the OS: its pool never
    breaks, submissions never error — work sent to it simply never returns.
    Picks the first fleet slot's worker (never the hot standby, which serves
    no traffic) and returns the stopped pid; pair with :func:`resume_worker`
    or let the fleet's probe machinery declare it DEAD and SIGKILL it.
    """
    executor = engine.executor
    assert executor is not None, "the fleet must be spun up before the stop"
    # force lazy replicas to spawn so the snapshot has pids to choose from
    executor.worker_pids()
    fleet = executor.fleet_snapshot()
    assert fleet is not None, "fleet snapshot unavailable"
    for replica in fleet["replicas"]:
        pids = replica.get("pids") or []
        if pids:
            os.kill(pids[0], signal.SIGSTOP)
            return pids[0]
    raise AssertionError("no live replica pid to stop")


def resume_worker(pid: int) -> bool:
    """SIGCONT a previously stopped worker; False if it is already gone.

    Tolerates the fleet having SIGKILLed the stopped process in the
    meantime (the probe path declares it DEAD and replaces it) — chaos
    teardown must not fail because recovery already happened.
    """
    try:
        os.kill(pid, signal.SIGCONT)
        return True
    except ProcessLookupError:
        return False


@contextmanager
def gray_failure(engine: Any) -> Iterator[int]:
    """SIGSTOP one replica for the duration of the block, then SIGCONT it.

    Yields the stopped pid.  The resume on exit is best-effort: if the
    fleet already killed and replaced the replica, there is nothing left to
    resume and that is success, not failure.
    """
    pid = stop_one_worker(engine)
    try:
        yield pid
    finally:
        resume_worker(pid)


# -- failing SQLite connections ---------------------------------------------


class FlakyConnection:
    """A delegating ``sqlite3.Connection`` proxy whose commits fail on cue.

    The store runs every write as ``with self._conn:`` — entering the proxy
    opens the real transaction, and a *successful* exit is where the commit
    happens.  Once the commit budget is exhausted the proxy rolls the
    transaction back and raises ``sqlite3.OperationalError`` instead, which
    is exactly what a full disk or yanked volume produces: an atomic batch
    that never happened.
    """

    def __init__(self, conn: sqlite3.Connection, commits_allowed: int) -> None:
        self._conn = conn
        self.commits_remaining = commits_allowed
        self.injected_failures = 0

    def __getattr__(self, name: str) -> Any:
        return getattr(self._conn, name)

    def __enter__(self) -> "FlakyConnection":
        self._conn.__enter__()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> Any:
        if exc_type is None and self.commits_remaining <= 0:
            self.injected_failures += 1
            self._conn.rollback()
            raise sqlite3.OperationalError("injected commit failure: disk I/O error")
        if exc_type is None:
            self.commits_remaining -= 1
        return self._conn.__exit__(exc_type, exc, tb)


def flaky_connection_factory(commits_allowed: int):
    """A ``KnowledgeBaseStore`` connection factory with a commit budget.

    ``commits_allowed`` counts *every* transaction on the connection,
    including the schema-initialisation commit the store performs on open —
    budget 1 means "open succeeds, the first data write fails".  The
    returned factory exposes the connections it made as ``factory.connections``
    so tests can assert on ``injected_failures``.
    """

    connections: list[FlakyConnection] = []

    def factory(path: str) -> FlakyConnection:
        conn = FlakyConnection(
            sqlite3.connect(path, check_same_thread=False), commits_allowed
        )
        connections.append(conn)
        return conn

    factory.connections = connections
    return factory


# -- failing checkpoint filesystem ops --------------------------------------


@contextmanager
def broken_checkpoint_fs(
    fail_fsync: bool = False, fail_replace: bool = False
) -> Iterator[None]:
    """Make the checkpoint module's durability syscalls raise ``EIO``.

    Patches the ``_fsync`` / ``_replace`` seams of ``repro.kb.checkpoint``
    (module-level indirections that exist for this purpose) and restores
    them on exit, so a test can assert that a checkpoint that could not be
    made durable is reported as a :class:`~repro.errors.CheckpointError`
    and never replaces the previous good file.
    """

    from repro.kb import checkpoint as ckpt

    def _fail(*_args: Any, **_kwargs: Any) -> None:
        raise OSError(errno.EIO, "injected I/O error")

    original_fsync, original_replace = ckpt._fsync, ckpt._replace
    if fail_fsync:
        ckpt._fsync = _fail
    if fail_replace:
        ckpt._replace = _fail
    try:
        yield
    finally:
        ckpt._fsync, ckpt._replace = original_fsync, original_replace


# -- subprocess crash driver ------------------------------------------------


class ServerProcess:
    """Drive a real ``rex-explain serve`` subprocess for crash tests.

    The server is launched on an ephemeral port with the demo KB and the
    given ``--db`` / ``--checkpoint-dir``; :meth:`kill` delivers SIGKILL
    (the crash under test — no Python cleanup of any kind runs), while
    :meth:`terminate` delivers SIGTERM and asserts the graceful-shutdown
    path exits cleanly.
    """

    def __init__(
        self,
        db: str | Path,
        checkpoint_dir: str | Path | None = None,
        workers: int = 0,
        startup_timeout: float = 60.0,
    ) -> None:
        argv = [
            sys.executable,
            "-u",
            "-m",
            "repro.cli",
            "serve",
            "--demo",
            "--port",
            "0",
            "--workers",
            str(workers),
            "--db",
            str(db),
        ]
        if checkpoint_dir is not None:
            argv += ["--checkpoint-dir", str(checkpoint_dir)]
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        self.port = self._wait_for_port(startup_timeout)

    def _wait_for_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        assert self.proc.stdout is not None
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server exited before listening (rc={self.proc.poll()})"
                )
            if "listening on http://" in line:
                return int(line.rstrip().rstrip("/").rsplit(":", 1)[1])
        raise RuntimeError("server did not report its port in time")

    # -- client side -------------------------------------------------------

    def _request(
        self, method: str, route: str, payload: dict | None = None
    ) -> tuple[int, dict]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            body = None if payload is None else json.dumps(payload)
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, route, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def post_edges(self, edges: list[dict]) -> tuple[int, dict]:
        return self._request("POST", "/kb/edges", {"edges": edges})

    def healthz(self) -> dict:
        status, payload = self._request("GET", "/healthz")
        assert status == 200, (status, payload)
        return payload

    # -- fault delivery ----------------------------------------------------

    def kill(self) -> None:
        """SIGKILL — the crash under test.  No cleanup code runs."""
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)

    def terminate(self, timeout: float = 60.0) -> int:
        """SIGTERM — graceful shutdown; returns the exit code."""
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=timeout)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
