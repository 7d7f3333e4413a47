"""REX: Explaining Relationships between Entity Pairs — a full reproduction.

This package reimplements the REX system of Fang, Das Sarma, Yu and Bohannon
(PVLDB 5(3), 2011) in pure Python: given a knowledge base and a pair of
related entities, it enumerates all *minimal relationship explanations*
(constrained graph patterns plus their instances) and ranks them by a family
of interestingness measures.

Quick start::

    from repro import Rex, paper_example_kb

    rex = Rex(paper_example_kb())
    for ranked in rex.explain("brad_pitt", "angelina_jolie", k=3):
        print(ranked.value)
        print(ranked.explanation.describe())

The main layers are:

* :mod:`repro.kb` — the knowledge-base substrate (labelled graph, schema,
  the compiled CSR view every read kernel runs on, and the conjunctive
  evaluation behind the SQL-style distributional computation);
* :mod:`repro.core` — patterns, instances, explanations and their structural
  properties (minimality, covering path sets);
* :mod:`repro.enumeration` — NaiveEnum, path enumeration and path union;
* :mod:`repro.measures` — structural, aggregate, distributional and combined
  interestingness measures;
* :mod:`repro.ranking` — the general ranking framework plus pruned top-k
  algorithms;
* :mod:`repro.evaluation` — pair sampling, simulated user study and the
  path/non-path statistics used to reproduce the paper's evaluation.
"""

from __future__ import annotations

from repro.core.explanation import Explanation
from repro.core.instance import ExplanationInstance
from repro.core.pattern import END, START, ExplanationPattern, PatternEdge
from repro.datasets.entertainment import (
    EntertainmentConfig,
    generate_entertainment_kb,
    small_entertainment_kb,
)
from repro.datasets.paper_example import PAPER_PAIRS, paper_example_kb
from repro.enumeration.framework import (
    DEFAULT_SIZE_LIMIT,
    EnumerationResult,
    enumerate_explanations,
)
from repro.errors import RexError
from repro.kb.graph import KnowledgeBase
from repro.kb.schema import Schema
from repro.measures import default_measures
from repro.measures.base import Measure
from repro.ranking.general import RankedExplanation, RankingResult, rank_explanations
from repro.ranking.topk import rank_topk_anti_monotonic

__version__ = "1.1.0"


def validate_k(k: object) -> int:
    """Reject ``k`` values the ranking layer cannot honour.

    The single source of truth for ``k`` validity, shared by the :class:`Rex`
    facade and the serving engine so their error behaviour cannot diverge.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k <= 0:
        raise RexError(f"k must be a positive integer, got {k!r}")
    return k


def validate_size_limit(size_limit: object) -> int:
    """Reject size limits the enumeration layer cannot honour (< 2 nodes)."""
    if not isinstance(size_limit, int) or isinstance(size_limit, bool) or size_limit < 2:
        raise RexError(
            f"size_limit must be an integer >= 2 (the start and end variables), "
            f"got {size_limit!r}"
        )
    return size_limit


__all__ = [
    "Rex",
    "validate_k",
    "validate_size_limit",
    "KnowledgeBase",
    "Schema",
    "Explanation",
    "ExplanationInstance",
    "ExplanationPattern",
    "PatternEdge",
    "START",
    "END",
    "EnumerationResult",
    "enumerate_explanations",
    "DEFAULT_SIZE_LIMIT",
    "RankedExplanation",
    "RankingResult",
    "rank_explanations",
    "rank_topk_anti_monotonic",
    "Measure",
    "default_measures",
    "RexError",
    "paper_example_kb",
    "PAPER_PAIRS",
    "EntertainmentConfig",
    "generate_entertainment_kb",
    "small_entertainment_kb",
    "__version__",
]


class Rex:
    """High-level facade over enumeration and ranking.

    Wraps a knowledge base and exposes the two operations a search engine
    would call: enumerate all minimal explanations for a pair, or directly ask
    for the top-k most interesting explanations under a chosen measure.

    Example:
        >>> rex = Rex(paper_example_kb())
        >>> top = rex.explain("tom_cruise", "nicole_kidman", k=1)
        >>> top[0].explanation.pattern.num_edges >= 1
        True
    """

    def __init__(self, kb: KnowledgeBase, size_limit: int = DEFAULT_SIZE_LIMIT) -> None:
        self.kb = kb
        self.size_limit = validate_size_limit(size_limit)
        self._measures = default_measures()

    def measures(self) -> dict[str, Measure]:
        """The available measures keyed by their Table 1 names."""
        return dict(self._measures)

    def enumerate(self, v_start: str, v_end: str, size_limit: int | None = None) -> EnumerationResult:
        """All minimal explanations for the pair (Section 3)."""
        if size_limit is not None:
            size_limit = validate_size_limit(size_limit)
        return enumerate_explanations(
            self.kb, v_start, v_end, size_limit=size_limit or self.size_limit
        )

    def explain(
        self,
        v_start: str,
        v_end: str,
        measure: str | Measure = "size+monocount",
        k: int = 10,
        size_limit: int | None = None,
    ) -> list[RankedExplanation]:
        """The top-k most interesting explanations for the pair (Section 4).

        Args:
            v_start: the entity the user searched for.
            v_end: the related entity to explain.
            measure: a measure name from :func:`repro.measures.default_measures`
                or a :class:`Measure` instance.
            k: how many explanations to return.
            size_limit: optional override of the pattern size limit.

        Raises:
            RexError: for an unknown measure name, a non-positive ``k`` or a
                size limit below 2 — rejected here at the facade boundary so
                callers get a clear message instead of a silent empty result
                or a deep stack trace.
        """
        validate_k(k)
        if size_limit is not None:
            size_limit = validate_size_limit(size_limit)
        if isinstance(measure, str):
            try:
                measure = self._measures[measure]
            except KeyError:
                raise RexError(
                    f"unknown measure {measure!r}; available: {sorted(self._measures)}"
                ) from None
        result = rank_explanations(
            self.kb,
            v_start,
            v_end,
            measure,
            k=k,
            size_limit=size_limit or self.size_limit,
        )
        return list(result.ranked)
