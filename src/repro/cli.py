"""Command-line interface: explain a pair of entities, or serve explanations.

Usage examples::

    # run against the bundled paper example KB
    rex-explain --demo brad_pitt angelina_jolie

    # run against a TSV edge list with a specific measure and k
    rex-explain --kb edges.tsv --measure local-dist --top 5 alice bob

    # boot the HTTP/JSON explanation server on the demo KB, warmed up,
    # sharding batch requests across 4 worker processes
    rex-explain serve --demo --warmup --port 8080 --workers 4

    # one-shot smoke check: boot, hit /healthz and /explain, shut down
    rex-explain serve --demo --smoke

    # durable serving: SQLite system of record + compiled-plane checkpoints
    # (first boot seeds the store from --demo; later boots replay/restore)
    rex-explain serve --demo --db kb.db --checkpoint-dir ./ckpt

    # write or verify a compiled-plane checkpoint offline
    rex-explain checkpoint --db kb.db --checkpoint-dir ./ckpt
    rex-explain checkpoint --db kb.db --checkpoint-dir ./ckpt --verify

    # bulk-evaluate a JSON request file offline across 4 workers
    rex-explain batch --kb edges.tsv --requests requests.json --workers 4

    # generate and evaluate a synthetic 64-request stream on the demo KB
    rex-explain batch --demo --generate 64 --seed 7 --workers 2

    # print KB statistics (entities, edges, labels, compiled-core size)
    rex-explain info --kb edges.tsv
    rex-explain info --workload clustered --seed 7

    # profile one explain request: per-phase span tree + timings
    rex-explain profile --demo brad_pitt angelina_jolie
    rex-explain profile --demo brad_pitt angelina_jolie --json

The CLI is intentionally thin: it loads a knowledge base, invokes the same
:class:`repro.Rex` facade (or :mod:`repro.service` engine) the examples use,
and pretty-prints the result.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.request
from pathlib import Path

from repro import Rex
from repro.datasets.entertainment import small_entertainment_kb
from repro.datasets.paper_example import PAPER_PAIRS, paper_example_kb
from repro.errors import RexError
from repro.kb.io import load_json, load_tsv
from repro.measures import default_measures

__all__ = [
    "build_parser",
    "build_serve_parser",
    "build_batch_parser",
    "build_info_parser",
    "build_checkpoint_parser",
    "build_profile_parser",
    "main",
    "serve_main",
    "batch_main",
    "info_main",
    "checkpoint_main",
    "profile_main",
]


def _add_kb_source_arguments(parser: argparse.ArgumentParser) -> None:
    """The mutually exclusive KB source flags shared by both subcommands."""
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--kb",
        type=Path,
        help="knowledge base file (.tsv edge list or .json document)",
    )
    source.add_argument(
        "--demo",
        action="store_true",
        help="use the bundled paper running-example knowledge base",
    )
    source.add_argument(
        "--synthetic",
        action="store_true",
        help="use the bundled synthetic entertainment knowledge base",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for ``rex-explain``."""
    parser = argparse.ArgumentParser(
        prog="rex-explain",
        description="Explain why two entities of a knowledge base are related (REX, VLDB 2011).",
    )
    parser.add_argument("v_start", help="the entity the user searched for")
    parser.add_argument("v_end", help="the related entity to explain")
    _add_kb_source_arguments(parser)
    parser.add_argument(
        "--measure",
        default="size+monocount",
        choices=sorted(default_measures()),
        help="interestingness measure used for ranking (default: size+monocount)",
    )
    parser.add_argument("--top", type=int, default=5, help="number of explanations to show")
    parser.add_argument(
        "--size-limit",
        type=int,
        default=5,
        help="maximum number of pattern variables (paper default: 5)",
    )
    parser.add_argument(
        "--max-instances",
        type=int,
        default=3,
        help="number of witnessing instances to print per explanation",
    )
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``serve`` subcommand (``rex-serve``)."""
    parser = argparse.ArgumentParser(
        prog="rex-serve",
        description=(
            "Serve relationship explanations over an HTTP/JSON API "
            "(GET /explain, POST /explain/batch, GET /healthz, GET /metrics, "
            "POST /kb/edges)."
        ),
    )
    _add_kb_source_arguments(parser)
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=8080,
        help="bind port (0 picks an ephemeral port; default: 8080)",
    )
    parser.add_argument(
        "--size-limit",
        type=int,
        default=5,
        help="default pattern size limit for requests (paper default: 5)",
    )
    parser.add_argument(
        "--cache-capacity",
        type=int,
        default=2048,
        help="maximum number of cached rankings (default: 2048)",
    )
    parser.add_argument(
        "--cache-ttl",
        type=float,
        default=None,
        help="optional TTL in seconds for cached rankings (default: no TTL)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes for POST /explain/batch (default: "
            "REX_PARALLELISM or 0 = evaluate on the serving thread)"
        ),
    )
    parser.add_argument(
        "--db",
        type=Path,
        default=None,
        help=(
            "SQLite system-of-record path: every acknowledged POST /kb/edges "
            "batch is committed in one WAL transaction and survives kill -9; "
            "a non-empty store wins over the --kb/--demo/--synthetic seed"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=None,
        help=(
            "directory for compiled-plane checkpoints: cold boots restore "
            "from the checkpoint in O(file size) instead of replay+recompile"
        ),
    )
    parser.add_argument(
        "--warmup",
        action="store_true",
        help="precompute the paper's user-study pairs (PAPER_PAIRS) at startup",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "boot on an ephemeral port, request /healthz and one /explain, "
            "print both responses and exit (used by `make serve-smoke`)"
        ),
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-request logging"
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=None,
        help=(
            "enable structured logging on the 'rex' logger hierarchy at this "
            "level (access log, slow-query log, server errors); default: off"
        ),
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit log lines as JSON objects (one per line) instead of text",
    )
    parser.add_argument(
        "--slow-query-s",
        type=float,
        default=None,
        help=(
            "requests slower than this many seconds log at WARNING "
            "(default: REX_SLOW_QUERY_S or 1.0)"
        ),
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=None,
        help=(
            "fraction of requests to trace with phase spans, 0..1 "
            "(default: REX_TRACE_SAMPLE or 0.01; 1.0 traces everything)"
        ),
    )
    parser.add_argument(
        "--deadline-s",
        type=float,
        default=None,
        help=(
            "default per-request compute budget in seconds; an exceeded "
            "budget answers 504 with Retry-After (default: REX_DEADLINE_S "
            "or no deadline; clients can override per request via "
            "?timeout_s=)"
        ),
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help=(
            "admission control: concurrent requests computing at once "
            "(default: REX_MAX_INFLIGHT or 64; excess load sheds 429)"
        ),
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=None,
        help=(
            "admission control: requests allowed to wait for a slot "
            "(default: REX_MAX_QUEUE or 128)"
        ),
    )
    parser.add_argument(
        "--queue-timeout-s",
        type=float,
        default=None,
        help=(
            "admission control: how long a queued request waits before it "
            "is shed with 429 (default: REX_QUEUE_TIMEOUT_S or 5.0)"
        ),
    )
    parser.add_argument(
        "--request-timeout-s",
        type=float,
        default=None,
        help=(
            "per-connection socket timeout for idle or trickling clients "
            "(default: 30)"
        ),
    )
    parser.add_argument(
        "--rolling-restart-s",
        type=float,
        default=None,
        help=(
            "roll the worker fleet every N seconds with zero downtime "
            "(replicas replaced one at a time, make-before-break; default: "
            "REX_ROLLING_RESTART_S or off)"
        ),
    )
    return parser


def build_batch_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``batch`` subcommand (offline bulk explain)."""
    parser = argparse.ArgumentParser(
        prog="rex-batch",
        description=(
            "Bulk-evaluate explain requests against a knowledge base, "
            "optionally sharded across worker processes.  Requests come from "
            "a JSON file (--requests) or a seeded synthetic stream "
            "(--generate)."
        ),
    )
    _add_kb_source_arguments(parser)
    # required: silently fabricating a synthetic stream when the user forgot
    # --requests would produce a report that looks like a real evaluation
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--requests",
        type=Path,
        help=(
            "JSON request file: either {\"requests\": [...]} or a bare list of "
            "{start, end, measure?, k?, size_limit?} objects"
        ),
    )
    source.add_argument(
        "--generate",
        type=int,
        metavar="N",
        help="sample a synthetic N-request stream from the loaded KB instead",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes to shard the batch across (default: "
            "REX_PARALLELISM or 0 = sequential)"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="seed for --generate sampling"
    )
    parser.add_argument(
        "--measure",
        default="size+monocount",
        choices=sorted(default_measures()),
        help="measure for generated requests (default: size+monocount)",
    )
    parser.add_argument(
        "--top", type=int, default=5, help="k for generated requests (default: 5)"
    )
    parser.add_argument(
        "--size-limit",
        type=int,
        default=5,
        help="pattern size limit (paper default: 5)",
    )
    parser.add_argument(
        "--max-instances",
        type=int,
        default=3,
        help="witnessing instances included per explanation (default: 3)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write the JSON report here instead of stdout",
    )
    return parser


def build_info_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``info`` subcommand (KB statistics)."""
    parser = argparse.ArgumentParser(
        prog="rex-info",
        description=(
            "Print knowledge-base statistics — entities, edges, labels, "
            "density, compiled-core size and compile time — for a KB file, "
            "a bundled dataset or a generated repro.workloads workload."
        ),
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--kb",
        type=Path,
        help="knowledge base file (.tsv edge list or .json document)",
    )
    source.add_argument(
        "--demo",
        action="store_true",
        help="use the bundled paper running-example knowledge base",
    )
    source.add_argument(
        "--synthetic",
        action="store_true",
        help="use the bundled synthetic entertainment knowledge base",
    )
    source.add_argument(
        "--workload",
        choices=("scale-free", "bipartite", "clustered"),
        help="generate a synthetic repro.workloads KB at its default knobs",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for --workload generation"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the statistics as a JSON object instead of text lines",
    )
    return parser


def info_main(argv: list[str] | None = None) -> int:
    """Entry point of the ``info`` subcommand; returns an exit code."""
    import pickle

    from repro.kb.compiled import CompiledKB
    from repro.parallel.snapshot import PAYLOAD_FORMAT, kb_to_payload

    parser = build_info_parser()
    args = parser.parse_args(argv)
    try:
        if args.workload:
            from repro.workloads import generate_kb

            kb = generate_kb(args.workload, seed=args.seed)
        else:
            kb = _load_kb(args)
        compiled = CompiledKB.compile(kb)
        snapshot_bytes = len(pickle.dumps(kb_to_payload(compiled)))
    except (RexError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    info = {
        "entities": compiled.num_entities,
        "edges": compiled.num_edges,
        "labels": len(compiled.label_of),
        "density": round(kb.density(), 3),
        "kb_version": kb.version,
        "compiled_plane_bytes": compiled.plane_bytes(),
        "compile_ms": round(compiled.compile_seconds * 1000, 3),
        "snapshot_format": PAYLOAD_FORMAT,
        "snapshot_bytes": snapshot_bytes,
    }
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    width = max(len(name) for name in info)
    for name, value in info.items():
        print(f"{name:<{width}}  {value}")
    return 0


def build_checkpoint_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``checkpoint`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="rex-checkpoint",
        description=(
            "Write (or verify) an atomic compiled-plane checkpoint so a "
            "cold `rex-explain serve` reaches warm-compiled state in "
            "O(file size) instead of O(edges).  The KB comes from a SQLite "
            "store (--db, replayed) or from the usual KB source flags."
        ),
    )
    _add_kb_source_arguments(parser)
    parser.add_argument(
        "--db",
        type=Path,
        default=None,
        help="replay the KB from this SQLite store (wins over the KB flags)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        type=Path,
        required=True,
        help="directory holding the checkpoint file (created if missing)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help=(
            "verify the existing checkpoint (magic, checksum, payload) "
            "instead of writing one; with --db, also require its version to "
            "match the store's last committed version"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the checkpoint report as a JSON object instead of text",
    )
    return parser


def checkpoint_main(argv: list[str] | None = None) -> int:
    """Entry point of the ``checkpoint`` subcommand; returns an exit code."""
    import os

    from repro.errors import CheckpointError, StoreError
    from repro.kb.checkpoint import (
        CHECKPOINT_FILENAME,
        checkpoint_info,
        load_checkpoint,
        save_checkpoint,
    )
    from repro.kb.store import KnowledgeBaseStore

    parser = build_checkpoint_parser()
    args = parser.parse_args(argv)
    path = args.checkpoint_dir / CHECKPOINT_FILENAME
    try:
        if args.verify:
            expected = None
            if args.db is not None:
                with KnowledgeBaseStore(args.db) as store:
                    expected = store.last_version()
            # a full load, not just the header: verification must exercise
            # the same checksum/payload path a booting server would
            load_checkpoint(path, expected_version=expected)
            report = checkpoint_info(path)
            report["verified"] = True
            report["expected_version"] = expected
        else:
            if args.db is not None:
                with KnowledgeBaseStore(args.db) as store:
                    kb = store.load()
            else:
                kb = _load_kb(args)
            os.makedirs(args.checkpoint_dir, exist_ok=True)
            compiled = save_checkpoint(kb, path)
            report = checkpoint_info(path)
            report["written"] = True
            report["compile_ms"] = round(compiled.compile_seconds * 1000, 3)
    except (CheckpointError, StoreError, RexError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        width = max(len(name) for name in report)
        for name, value in report.items():
            print(f"{name:<{width}}  {value}")
    return 0


def build_profile_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``profile`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="rex-profile",
        description=(
            "Run one explain request with tracing forced on and print the "
            "per-phase span tree (cache lookup, KB compile, path enumeration, "
            "union merge, matcher, ranking sweep) with wall-clock timings."
        ),
    )
    parser.add_argument("v_start", help="the entity the user searched for")
    parser.add_argument("v_end", help="the related entity to explain")
    _add_kb_source_arguments(parser)
    parser.add_argument(
        "--measure",
        default="size+monocount",
        choices=sorted(default_measures()),
        help="interestingness measure used for ranking (default: size+monocount)",
    )
    parser.add_argument("--top", type=int, default=5, help="k for the request")
    parser.add_argument(
        "--size-limit",
        type=int,
        default=5,
        help="maximum number of pattern variables (paper default: 5)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help=(
            "profile the request N times and print each trace; the second "
            "run shows the warm-cache path (default: 1)"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the trace(s) as JSON objects instead of the text tree",
    )
    return parser


def profile_main(argv: list[str] | None = None) -> int:
    """Entry point of the ``profile`` subcommand; returns an exit code."""
    from repro.obs.trace import format_trace
    from repro.service import ExplanationEngine

    parser = build_profile_parser()
    args = parser.parse_args(argv)
    if args.repeat < 1:
        print("error: --repeat must be at least 1", file=sys.stderr)
        return 1
    engine = None
    try:
        kb = _load_kb(args)
        engine = ExplanationEngine(kb, size_limit=args.size_limit)
        traces = []
        for _ in range(args.repeat):
            outcome = engine.explain(
                args.v_start,
                args.v_end,
                measure=args.measure,
                k=args.top,
                profile=True,
            )
            trace = engine.tracer.find(outcome.trace_id)
            if trace is None:  # pragma: no cover - find follows a forced start
                print("error: trace was not recorded", file=sys.stderr)
                return 1
            traces.append((outcome, trace))
    except (RexError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        if engine is not None:
            engine.close()
    if args.json:
        print(json.dumps([trace for _, trace in traces], indent=2, sort_keys=True))
        return 0
    for index, (outcome, trace) in enumerate(traces):
        if index:
            print()
        print(
            f"explain({args.v_start!r}, {args.v_end!r}) "
            f"measure={args.measure} k={args.top} "
            f"results={len(outcome.ranked)} cached={outcome.cached}"
        )
        print(format_trace(trace))
    return 0


def _load_batch_requests(args: argparse.Namespace, kb) -> list:
    """The request list for ``batch``: from a file, or freshly sampled."""
    if args.requests is not None:
        with args.requests.open("r", encoding="utf-8") as handle:
            document = json.load(handle)
        if isinstance(document, dict):
            document = document.get("requests")
        if not isinstance(document, list):
            raise RexError(
                f"{args.requests}: expected a JSON list of requests or an "
                f"object with a 'requests' list"
            )
        return document
    from repro.workloads import sample_request_stream

    return sample_request_stream(
        kb,
        args.generate,
        seed=args.seed,
        measures=(args.measure,),
        k_choices=(args.top,),
        size_limit=args.size_limit,
    )


def batch_main(argv: list[str] | None = None) -> int:
    """Entry point of the ``batch`` subcommand; returns an exit code."""
    from repro.parallel import WorkerCrashError
    from repro.service import ExplanationEngine
    from repro.service.serialize import outcome_to_dict

    parser = build_batch_parser()
    args = parser.parse_args(argv)
    engine = None
    try:
        kb = _load_kb(args)
        requests = _load_batch_requests(args, kb)
        engine = ExplanationEngine(
            kb, size_limit=args.size_limit, parallelism=args.workers
        )
        started = time.perf_counter()
        results = engine.explain_batch(requests)
        elapsed = time.perf_counter() - started
    except (
        RexError,
        WorkerCrashError,
        ValueError,
        OSError,
        json.JSONDecodeError,
    ) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        if engine is not None:
            engine.close()
    rendered = []
    answered = 0
    for item in results:
        if isinstance(item, RexError):
            rendered.append({"error": str(item)})
        else:
            answered += 1
            rendered.append(outcome_to_dict(item, max_instances=args.max_instances))
    report = {
        "num_requests": len(requests),
        "num_answered": answered,
        "elapsed_s": round(elapsed, 6),
        "requests_per_s": round(len(requests) / elapsed, 3) if elapsed else None,
        "workers": engine.parallelism,
        "results": rendered,
    }
    body = json.dumps(report, indent=2, sort_keys=True)
    if args.output is not None:
        args.output.write_text(body + "\n", encoding="utf-8")
        print(
            f"batch: {answered}/{len(requests)} answered in {elapsed:.3f}s "
            f"({report['workers']} workers) -> {args.output}"
        )
    else:
        print(body)
    return 0


def _load_kb(args: argparse.Namespace):
    if args.kb is not None:
        suffix = args.kb.suffix.lower()
        if suffix == ".json":
            return load_json(args.kb)
        return load_tsv(args.kb)
    if args.synthetic:
        return small_entertainment_kb()
    return paper_example_kb()


def _run_smoke(engine, verbose: bool) -> int:
    """Boot an ephemeral server, hit /healthz and one /explain, shut down."""
    from repro.service import create_server, run_in_thread

    server = create_server(engine, port=0, verbose=False)
    run_in_thread(server)
    try:
        with urllib.request.urlopen(server.url + "/healthz", timeout=10) as response:
            health = json.load(response)
        print(f"GET /healthz -> {json.dumps(health, sort_keys=True)}")
        if health.get("status") != "ok":
            print("error: /healthz did not report status ok", file=sys.stderr)
            return 1
        pair = next(
            (
                (start, end)
                for start, end in PAPER_PAIRS
                if engine.kb.has_entity(start) and engine.kb.has_entity(end)
            ),
            None,
        )
        if pair is None:
            print("error: no smoke pair found in the knowledge base", file=sys.stderr)
            return 1
        # no k override: with --warmup the default-k entry is already cached
        query = f"/explain?start={pair[0]}&end={pair[1]}"
        with urllib.request.urlopen(server.url + query, timeout=30) as response:
            explained = json.load(response)
        print(
            f"GET {query} -> {explained['num_results']} results, "
            f"cached={explained['cached']}, kb_version={explained['kb_version']}"
        )
        if verbose and explained["results"]:
            top = explained["results"][0]
            print(f"top explanation (score={top['score']:g}):")
            print(top["explanation"]["pattern"]["text"])
        print("serve smoke: OK")
        return 0
    finally:
        server.shutdown()
        server.server_close()


def serve_main(argv: list[str] | None = None) -> int:
    """Entry point of the ``serve`` subcommand; returns an exit code."""
    from repro.service import ExplanationEngine, serve

    parser = build_serve_parser()
    args = parser.parse_args(argv)
    try:
        # the KB goes straight into the engine, which keeps only its compiled
        # view: no local here holds the dict graph while serving
        if args.smoke:
            engine = ExplanationEngine(
                _load_kb(args),
                size_limit=args.size_limit,
                cache_capacity=args.cache_capacity,
                cache_ttl=args.cache_ttl,
                parallelism=args.workers,
                store_path=args.db,
                checkpoint_dir=args.checkpoint_dir,
            )
            if args.warmup:
                engine.warmup(PAPER_PAIRS)
            try:
                return _run_smoke(engine, verbose=not args.quiet)
            finally:
                engine.close()
        serve_kwargs = {}
        if args.slow_query_s is not None:
            serve_kwargs["slow_query_s"] = args.slow_query_s
        for knob in (
            "deadline_s",
            "max_inflight",
            "max_queue",
            "queue_timeout_s",
            "request_timeout_s",
            "rolling_restart_s",
        ):
            value = getattr(args, knob)
            if value is not None:
                serve_kwargs[knob] = value
        # a loader, not the KB: the call's arguments stay referenced here for
        # as long as the server runs
        serve(
            lambda: _load_kb(args),
            host=args.host,
            port=args.port,
            size_limit=args.size_limit,
            cache_capacity=args.cache_capacity,
            cache_ttl=args.cache_ttl,
            warmup_pairs=PAPER_PAIRS if args.warmup else None,
            verbose=not args.quiet,
            parallelism=args.workers,
            store_path=args.db,
            checkpoint_dir=args.checkpoint_dir,
            log_level=args.log_level,
            log_json=args.log_json,
            trace_sample=args.trace_sample,
            **serve_kwargs,
        )
    except (RexError, ValueError, OverflowError, OSError) as error:
        # RexError: bad --size-limit; ValueError: bad cache knobs;
        # OverflowError: --port outside 0-65535; OSError: unreadable KB
        # file or port already in use
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code.

    ``rex-explain serve ...`` dispatches to the serving subcommand,
    ``rex-explain batch ...`` to offline bulk evaluation, ``rex-explain
    info ...`` to knowledge-base statistics, ``rex-explain checkpoint ...``
    to compiled-plane checkpoint management, ``rex-explain profile ...`` to
    a one-shot traced explain with a per-phase timing tree; anything else is
    the classic one-shot explain flow.
    """
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "batch":
        return batch_main(argv[1:])
    if argv and argv[0] == "info":
        return info_main(argv[1:])
    if argv and argv[0] == "checkpoint":
        return checkpoint_main(argv[1:])
    if argv and argv[0] == "profile":
        return profile_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        kb = _load_kb(args)
        rex = Rex(kb, size_limit=args.size_limit)
        ranked = rex.explain(
            args.v_start, args.v_end, measure=args.measure, k=args.top
        )
    except (RexError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    if not ranked:
        print(
            f"No explanation with at most {args.size_limit} pattern nodes connects "
            f"{args.v_start!r} and {args.v_end!r}."
        )
        return 0

    print(
        f"Top {len(ranked)} explanations for ({args.v_start}, {args.v_end}) "
        f"by {args.measure}:"
    )
    for rank, entry in enumerate(ranked, start=1):
        print(f"\n#{rank}  score={entry.value:g}")
        print(entry.explanation.describe(max_instances=args.max_instances))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
