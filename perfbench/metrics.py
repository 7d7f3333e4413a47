"""End-to-end and per-layer figures of one run, from its raw records.

The names and units under which they are reported are those of
``BENCHMARK.json``; ``run.py`` refuses a run whose figures differ from them.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

def _median_ms(values) -> float:
    return statistics.median(values) * 1000 if values else 0.0


def end_to_end(setups, read_latencies, write_latencies, measured_s, cpu_s, ops, peak_rss_mb) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "explain_p50_ms": statistics.median(read_latencies) * 1000,
        "explain_p90_ms": statistics.quantiles(read_latencies, n=10)[8] * 1000,
        "explain_rps": len(read_latencies) / measured_s,
        "write_p50_ms": _median_ms(write_latencies),
        "cpu_ms_per_op": cpu_s * 1000 / ops,
        "peak_rss_mb": peak_rss_mb,
    }


class Spans:
    """Span records ``(id, parent, name, start, end, request, extra)``.

    Built from ``(spans, window)`` per process: ids are made unique by the
    process's position, and a span is measured when it starts inside its
    own process's measured window.
    """

    def __init__(self, processes) -> None:
        self.all, self.measured = [], []
        for number, (spans, (lower, upper)) in enumerate(processes):
            for ident, parent, *rest in spans:
                span = ((number, ident), None if parent is None else (number, parent), *rest)
                self.all.append(span)
                if lower <= span[3] <= upper:
                    self.measured.append(span)
        self.children = defaultdict(float)
        for span in self.all:
            if span[1] is not None:
                self.children[span[1]] += span[4] - span[3]

    def named(self, *names, measured=True):
        pool = self.measured if measured else self.all
        return [span for span in pool if span[2] in names]

    def durations(self, *names, measured=True):
        return [span[4] - span[3] for span in self.named(*names, measured=measured)]

    def self_time(self, span) -> float:
        return span[4] - span[3] - self.children[span[0]]


def per_layer(spans: Spans, import_ms, hit_ratio, http_overhead_s, http_share,
              write_summaries, lags_s) -> dict:
    """Layer figures of a traced run (times in ms per call unless noted)."""
    explains = spans.named("service.explain")
    computed = [span for span in explains if not span[6]["cached"]]
    hits = [span for span in explains if span[6]["cached"]]
    computed_total = sum(span[4] - span[3] for span in computed)
    paths = spans.named("enum.path")
    unions = spans.named("enum.union")
    values = sum(spans.durations("measures.value"))
    expansions = sum(span[6]["expansions"] for span in paths)
    found = sum(span[6]["paths"] for span in paths)
    calls = sum(span[6]["merge_calls"] for span in unions)
    produced = sum(span[6]["produced"] for span in unions)
    compiles = [span for span in spans.named("kb.compile", measured=False) if span[6]["fresh"]]
    retained = sum(summary["cache_retained"] for summary in write_summaries)
    purged = sum(summary["cache_purged"] for summary in write_summaries)

    def mean_ms(durations) -> float:
        return sum(durations) * 1000 / len(durations) if durations else 0.0

    return {
        "repro.import_ms": import_ms,
        "kb.load_ms": _median_ms(spans.durations("kb.load", measured=False)),
        "kb.compile_ms": _median_ms([span[4] - span[3] for span in compiles]),
        "kb.plane_mb": max((span[6]["plane_bytes"] for span in compiles), default=0) / 1e6,
        "kb.checkpoint_save_ms": _median_ms(spans.durations(
            "kb.checkpoint_save", "kb.checkpoint_save_probe", measured=False)),
        "kb.extend_ms": _median_ms(spans.durations("kb.extend")),
        "kb.store_append_ms": _median_ms(spans.durations(
            "kb.store_append", "kb.store_append_probe", measured=False)),
        "enumeration.path_enum_ms": mean_ms([span[4] - span[3] for span in paths]),
        "enumeration.path_expansions": expansions / len(paths) if paths else 0.0,
        "enumeration.path_yield": found / expansions if expansions else 0.0,
        "enumeration.union_merge_ms": mean_ms([span[4] - span[3] for span in unions]),
        "enumeration.union_merge_repeat_ms": mean_ms(spans.durations("enum.union_repeat")),
        "enumeration.merge_calls": calls / len(unions) if unions else 0.0,
        "enumeration.merge_yield": produced / calls if calls else 0.0,
        "enumeration.union_merge_share": 100 * sum(span[4] - span[3] for span in unions)
        / computed_total if computed_total else 0.0,
        "measures.score_ms": values * 1000 / len(computed) if computed else 0.0,
        "measures.score_repeat_ms": sum(spans.durations("measures.value_repeat")) * 1000
        / len(computed) if computed else 0.0,
        "measures.score_share": 100 * values / computed_total if computed_total else 0.0,
        "ranking.topk_ms": mean_ms(spans.durations("ranking.topk_repeat")),
        "service.engine_overhead_ms": mean_ms([spans.self_time(span) for span in computed]),
        "service.cache_hit_ms": _median_ms([span[4] - span[3] for span in hits]),
        "service.hit_ratio": hit_ratio,
        "service.serialize_ms": _median_ms(spans.durations("service.serialize")),
        "service.http_overhead_ms": _median_ms(http_overhead_s),
        "service.http_overhead_share": http_share,
        "service.retained_ratio": retained / (retained + purged) if retained + purged else 0.0,
        "service.add_edges_ms": _median_ms(spans.durations("service.add_edges")),
        "service.generator_lag_ms": _median_ms(lags_s),
    }
