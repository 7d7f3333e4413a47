"""Pruned top-k ranking for distribution-based measures (Section 5.3.2).

Distributional position measures are not anti-monotonic, so Theorem 4 does not
apply.  The paper instead integrates the *measure computation* with ranking:
the position of an explanation is computed by a grouped self-join query over
the edge relation (``HAVING count > c``), and once a running top-k list is
available, a candidate whose position is already known to exceed the current
k-th best position cannot enter the list — so the query can stop counting at
that bound (the ``LIMIT p`` clause).

Two entry points are provided:

* :func:`rank_by_local_position` — position within the local distribution
  (fixed start entity, end entity varied);
* :func:`rank_by_global_position` — position within a sampled estimate of the
  global distribution (both entities varied), pooled over a configurable
  number of local distributions as in the paper.

Both return the same rankings as the brute-force Algorithm 5 with the
corresponding measure; ``prune=False`` switches the early termination off so
benchmarks can quantify its benefit (Figure 11).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

from repro.core.explanation import Explanation
from repro.errors import RankingError
from repro.kb.graph import KnowledgeBase
from repro.kb.sql import count_qualifying_end_entities, sweep_position_count
from repro.measures.aggregate import CountMeasure
from repro.measures.distributional import sample_start_entities
from repro.obs.trace import span
from repro.ranking.general import RankedExplanation, RankingResult, _sort_key

__all__ = ["PositionComputation", "rank_by_local_position", "rank_by_global_position"]


@dataclass
class PositionComputation:
    """Outcome of one (possibly pruned) position computation."""

    position: int
    exact: bool  # False when evaluation stopped early at the pruning bound
    bindings_enumerated: int


def _position_for_start(
    kb: KnowledgeBase,
    explanation: Explanation,
    start_entity: str,
    own_count: float,
    exclude_end: str | None,
    bound: int | None,
) -> PositionComputation:
    """Number of end entities whose count exceeds ``own_count`` for one start.

    Stops early once more than ``bound`` qualifying end entities are known
    (the LIMIT-style pruning); the returned position is then a lower bound
    that is already larger than the pruning bound, which is all the caller
    needs to discard the candidate.
    """
    qualifying, exact, bindings = count_qualifying_end_entities(
        kb,
        explanation.pattern,
        start_entity,
        own_count,
        exclude_end=exclude_end,
        bound=bound,
    )
    return PositionComputation(qualifying, exact, bindings)


def _rank_by_position(
    kb: KnowledgeBase,
    explanations: list[Explanation],
    v_start: str,
    v_end: str,
    k: int,
    prune: bool,
    start_entities_for: "callable",
    measure_name: str,
) -> RankingResult:
    """Shared scoring loop for local and global position ranking."""
    if k < 1:
        raise RankingError("k must be at least 1")
    count_measure = CountMeasure()
    scored: list[RankedExplanation] = []
    total_bindings = 0
    pruned_out = 0

    # One span covers the whole candidate sweep: per-candidate spans would
    # aggregate anyway (same name, same parent) while costing a context
    # manager entry per explanation on the hot loop.
    with span("ranking_sweep"):
        for explanation in explanations:
            own_count = count_measure.raw_value(kb, explanation, v_start, v_end)
            bound: int | None = None
            if prune and len(scored) >= k:
                # Current k-th best position (scores are negative positions).
                bound = int(-scored[k - 1].value)
            position = 0
            exact = True
            start_entities = start_entities_for(explanation)
            if bound is None:
                # No pruning bound applies: evaluate every start entity in one
                # batched sweep (the pattern is compiled once and the
                # traversal shared) instead of one matcher run per start.
                position, swept_bindings = sweep_position_count(
                    kb, explanation.pattern, start_entities, own_count, v_start, v_end
                )
                total_bindings += swept_bindings
            else:
                for start_entity in start_entities:
                    exclude_end = v_end if start_entity == v_start else None
                    remaining_bound = bound - position
                    if remaining_bound < 0:
                        exact = False
                        break
                    outcome = _position_for_start(
                        kb,
                        explanation,
                        start_entity,
                        own_count,
                        exclude_end,
                        remaining_bound,
                    )
                    total_bindings += outcome.bindings_enumerated
                    position += outcome.position
                    if not outcome.exact:
                        exact = False
                        break
            if not exact and bound is not None and position > bound:
                pruned_out += 1
                continue
            insort(scored, RankedExplanation(explanation, float(-position)), key=_sort_key)

    return RankingResult(
        ranked=scored[:k],
        measure_name=measure_name,
        v_start=v_start,
        v_end=v_end,
        k=k,
        explanations_considered=len(explanations),
        stats={
            "bindings_enumerated": total_bindings,
            "pruned_out": pruned_out,
        },
    )


def rank_by_local_position(
    kb: KnowledgeBase,
    explanations: list[Explanation],
    v_start: str,
    v_end: str,
    k: int = 10,
    prune: bool = True,
) -> RankingResult:
    """Top-k ranking by position in the local distribution.

    Args:
        kb: the knowledge base.
        explanations: the enumerated minimal explanations for the pair.
        v_start: start entity of the pair.
        v_end: end entity of the pair.
        k: size of the returned ranking.
        prune: enable the LIMIT-style early termination of Section 5.3.2.
    """
    return _rank_by_position(
        kb,
        explanations,
        v_start,
        v_end,
        k,
        prune,
        start_entities_for=lambda explanation: [v_start],
        measure_name="local-dist",
    )


def rank_by_global_position(
    kb: KnowledgeBase,
    explanations: list[Explanation],
    v_start: str,
    v_end: str,
    k: int = 10,
    prune: bool = True,
    num_samples: int = 100,
    seed: int = 13,
) -> RankingResult:
    """Top-k ranking by position in the sampled global distribution.

    The global distribution is estimated by pooling ``num_samples`` local
    distributions anchored at randomly chosen start entities other than
    ``v_start``, exactly as in the paper's experiments.  The pair's own
    local distribution is not pooled: this is the distribution
    :class:`~repro.measures.distributional.GlobalDistributionMeasure`
    computes, so both return the same ranking (docs/performance.md).
    """
    start_entities = sample_start_entities(kb.entities, v_start, num_samples, seed)

    return _rank_by_position(
        kb,
        explanations,
        v_start,
        v_end,
        k,
        prune,
        start_entities_for=lambda explanation: start_entities,
        measure_name="global-dist",
    )
