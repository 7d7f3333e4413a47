"""Top-k pruning for anti-monotonic measures (Theorem 4, Section 4.4).

For an anti-monotonic measure (monocount, size, or a lexicographic combination
of anti-monotonic measures) any explanation derived by PathUnion from a parent
explanation scores at most as much as the parent.  The ranking loop can
therefore interleave enumeration, scoring and pruning: it maintains a running
top-k list and *only expands explanations that are currently in the top-k* —
everything derived from an already-dropped explanation is guaranteed to be
outside the top-k as well.

The function returns the same top-k set as the general framework (ties aside)
while enumerating far fewer explanations, which is what Figures 9 and 10
measure.
"""

from __future__ import annotations

from repro.core.explanation import Explanation
from repro.core.isomorphism import DuplicateRegistry
from repro.enumeration.framework import DEFAULT_SIZE_LIMIT
from repro.enumeration.path_enum import PATH_ENUM_ALGORITHMS
from repro.enumeration.path_union import MergeStats, PathPostings
from repro.errors import RankingError
from repro.kb.graph import KnowledgeBase
from repro.measures.base import Measure
from repro.ranking.general import RankedExplanation, RankingResult, _sort_key

__all__ = ["rank_topk_anti_monotonic"]


def rank_topk_anti_monotonic(
    kb: KnowledgeBase,
    v_start: str,
    v_end: str,
    measure: Measure,
    k: int = 10,
    size_limit: int = DEFAULT_SIZE_LIMIT,
    path_algorithm: str = "prioritized",
) -> RankingResult:
    """Top-k ranking with aggressive pruning for anti-monotonic measures.

    Args:
        kb: the knowledge base.
        v_start: the entity the user searched for.
        v_end: the suggested related entity.
        measure: an anti-monotonic measure (``measure.is_anti_monotonic``).
        k: number of explanations to return.
        size_limit: maximum number of pattern variables.
        path_algorithm: the path enumeration algorithm used for the seeds.

    Raises:
        RankingError: when the measure is not anti-monotonic (the pruning
            would not be sound) or ``k`` is not positive.
    """
    if k < 1:
        raise RankingError("k must be at least 1")
    if not measure.is_anti_monotonic:
        raise RankingError(
            f"measure {measure.name!r} is not anti-monotonic; "
            "use the general ranking framework instead"
        )
    path_enum = PATH_ENUM_ALGORITHMS[path_algorithm]
    path_result = path_enum(kb, v_start, v_end, size_limit - 1)
    path_explanations = [
        explanation
        for explanation in path_result.explanations
        if explanation.pattern.num_nodes <= size_limit
    ]

    postings = PathPostings(path_explanations, size_limit)
    registry = DuplicateRegistry()
    merge_stats = MergeStats()
    scored: list[RankedExplanation] = []
    expanded_keys: set[tuple] = set()
    explanations_seen = 0

    def add_candidate(explanation: Explanation) -> None:
        nonlocal explanations_seen
        if not registry.add(explanation.pattern):
            return
        explanations_seen += 1
        value = measure.value(kb, explanation, v_start, v_end)
        scored.append(RankedExplanation(explanation, value))
        scored.sort(key=_sort_key)

    for explanation in path_explanations:
        add_candidate(explanation)

    # Step 3 of Section 4.4: keep expanding only from the current top-k.
    # Explanations tied with the k-th best value are also expanded so that the
    # returned score multiset matches the unpruned ranking even under ties.
    while True:
        if len(scored) >= k:
            threshold = scored[k - 1].value
            top = [entry for entry in scored if entry.value >= threshold]
        else:
            top = list(scored)
        expandable = [
            entry.explanation
            for entry in top
            if entry.explanation.pattern.canonical_key not in expanded_keys
        ]
        if not expandable:
            break
        for explanation in expandable:
            expanded_keys.add(explanation.pattern.canonical_key)
            for merged in postings.merge(explanation, merge_stats):
                add_candidate(merged)

    return RankingResult(
        ranked=scored[:k],
        measure_name=measure.name,
        v_start=v_start,
        v_end=v_end,
        k=k,
        explanations_considered=explanations_seen,
        stats={
            "path_" + key: value for key, value in path_result.stats.items()
        }
        | {"union_" + key: value for key, value in merge_stats.as_dict().items()},
    )
