"""Span recording around the program's public layer functions (traced runs).

Nothing under ``src/`` knows about this module: :func:`install` replaces
each layer's public function, in the namespaces its callers look it up in,
with a wrapper that times the call from outside.  A span is ``(id, parent,
name, start, end, request, extra)``; the request id is the id of the root
span on the calling thread.  Spans stay in memory until :meth:`dump`.

The same module composes the layers itself once more after every computed
``ExplanationEngine.explain`` (enumeration, union, scoring, sort and top-k
cut on the very compiled view the engine used), which times the repeat work
and checks that the composed answer equals the engine's.
"""

from __future__ import annotations

import itertools
import json
import threading
import time

import repro.cli
import repro.service.engine as engine_module
import repro.service.server as server_module
from repro.enumeration.path_enum import PATH_ENUM_ALGORITHMS
from repro.enumeration.path_union import PATH_UNION_ALGORITHMS, MergeStats
from repro.kb.compiled import CompiledKB
from repro.kb.store import KnowledgeBaseStore
from repro.measures.base import Measure
from repro.ranking.general import RankedExplanation
from repro.service.engine import ExplanationEngine
from repro.service.serialize import outcome_to_dict, ranked_to_dict

perf = time.perf_counter


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.mismatches: list[dict] = []
        self.views: dict[int, object] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def suffix(self) -> str:
        return getattr(self._local, "suffix", "")

    def span(self, name: str, fn, *args, extra=None, **kwargs):
        """Run ``fn`` inside a span; ``extra(result, args)`` adds a detail dict."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        request = stack[0] if stack else span_id
        stack.append(span_id)
        started = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            ended = perf()
            stack.pop()
        detail = extra(result, args) if extra is not None else None
        with self._lock:
            self.spans.append(
                (span_id, parent, name + self.suffix, started, ended, request, detail)
            )
        return result

    def wrap(self, name: str, fn, extra=None, outermost=False):
        recorder = self

        def wrapper(*args, **kwargs):
            if outermost and getattr(recorder._local, "inside_" + name, False):
                return fn(*args, **kwargs)
            setattr(recorder._local, "inside_" + name, True)
            try:
                return recorder.span(name, fn, *args, extra=extra, **kwargs)
            finally:
                setattr(recorder._local, "inside_" + name, False)

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path, **extra) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "mismatches": self.mismatches, **extra}, handle)


RECORDER = Recorder()


def _path_extra(result, args):
    # the compiled view the engine enumerated on, for the composed repeat
    RECORDER.views[threading.get_ident()] = args[0]
    return {"expansions": result.stats.get("expansions", 0),
            "paths": result.num_paths}


def _union_extra(result, args):
    stats = args[2]  # the framework and the repeat both pass a MergeStats
    return {"merge_calls": stats.merge_calls, "produced": stats.explanations_produced}


def _compile_extra(result, args):
    # compile(cls, kb) returns an already compiled kb unchanged: not a compile
    return {"plane_bytes": result.plane_bytes(), "fresh": result is not args[1]}


def _explain_extra(result, args):
    return {"cached": result.cached, "elapsed_s": result.elapsed_s}


def _write_extra(result, args):
    return {"purged": result["cache_purged"], "retained": result["cache_retained"]}


def install() -> Recorder:
    """Wrap every layer's public entry point; returns the shared recorder."""
    r = RECORDER
    compile_fn = CompiledKB.__dict__["compile"].__func__
    CompiledKB.compile = classmethod(r.wrap("kb.compile", compile_fn, _compile_extra))
    engine_module.extend_compiled = r.wrap("kb.extend", engine_module.extend_compiled)
    engine_module.save_checkpoint = r.wrap("kb.checkpoint_save", engine_module.save_checkpoint)
    KnowledgeBaseStore.append_batch = r.wrap("kb.store_append", KnowledgeBaseStore.append_batch)
    repro.cli.load_tsv = r.wrap("kb.load", repro.cli.load_tsv)
    PATH_ENUM_ALGORITHMS["prioritized"] = r.wrap(
        "enum.path", PATH_ENUM_ALGORITHMS["prioritized"], _path_extra)
    PATH_UNION_ALGORITHMS["prune"] = r.wrap(
        "enum.union", PATH_UNION_ALGORITHMS["prune"], _union_extra)
    Measure.value = r.wrap("measures.value", Measure.value, outermost=True)
    explain = r.wrap("service.explain", ExplanationEngine.explain, _explain_extra)

    def explain_and_repeat(engine, *args, **kwargs):
        outcome = explain(engine, *args, **kwargs)
        r._local.last_repeat = None
        if not (outcome.cached or outcome.coalesced or getattr(r._local, "repeating", False)):
            r._local.last_repeat = repeat(engine, outcome)
        return outcome

    def request(engine, *args, **kwargs):
        return r.span("service.request", explain_and_repeat, engine, *args, **kwargs)

    ExplanationEngine.explain = request
    ExplanationEngine.add_edges = r.wrap(
        "service.add_edges", ExplanationEngine.add_edges, _write_extra)

    def serialize(outcome, max_instances=3):
        rendered = outcome_to_dict(outcome, max_instances)
        json.dumps(rendered, sort_keys=True)
        return rendered

    server_module.outcome_to_dict = r.wrap("service.serialize", serialize)
    return r


def _sort_key(entry: RankedExplanation) -> tuple:
    # the ranking's documented order: value descending, then canonical key
    return (-entry.value, entry.explanation.pattern.canonical_key)


def repeat(engine: ExplanationEngine, outcome) -> dict:
    """Compose the layers again on the engine's view and compare the answers.

    Every span recorded here carries the ``_repeat`` suffix.  Returns the
    composed pieces the enum-fresh checks use: the path explanations and
    every scored explanation.
    """
    r = RECORDER
    view = r.views.get(threading.get_ident())
    measure = engine.measures()[outcome.measure]
    v_start, v_end = outcome.v_start, outcome.v_end
    previous, r._local.suffix = r.suffix, "_repeat"
    try:
        paths = PATH_ENUM_ALGORITHMS["prioritized"](view, v_start, v_end, outcome.size_limit - 1)
        merged = PATH_UNION_ALGORITHMS["prune"](
            paths.explanations, outcome.size_limit, MergeStats(),
            compiled=isinstance(view, CompiledKB))
        scored = [
            RankedExplanation(explanation, measure.value(view, explanation, v_start, v_end))
            for explanation in merged
        ]
        top = r.span("ranking.topk", lambda: sorted(scored, key=_sort_key)[: outcome.k])
    finally:
        r._local.suffix = previous
    composed = [ranked_to_dict(entry, rank) for rank, entry in enumerate(top, 1)]
    served = [ranked_to_dict(entry, rank) for rank, entry in enumerate(outcome.ranked, 1)]
    if composed != served:
        r.mismatches.append({"start": v_start, "end": v_end, "measure": outcome.measure,
                             "kb_version": outcome.kb_version})
    return {"paths": paths.explanations, "scored": scored}


def probe_hit(engine: ExplanationEngine, outcome) -> None:
    """Ask the same request again: a cache hit, timed as ``service.explain``."""
    RECORDER._local.repeating = True
    try:
        engine.explain(outcome.v_start, outcome.v_end, measure=outcome.measure,
                       k=outcome.k, size_limit=outcome.size_limit)
    finally:
        RECORDER._local.repeating = False
