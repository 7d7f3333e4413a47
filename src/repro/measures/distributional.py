"""Distribution-based interestingness measures (Section 4.3).

Aggregate measures compare explanations *for one entity pair*; they cannot
tell that a spouse edge (count 1) is rarer — hence more interesting — than a
single co-starred movie (also count 1).  Distributional measures capture that
rarity by comparing the aggregate value of the given pair against the
distribution of aggregate values obtained by varying the target entities:

* the **local** distribution keeps the start entity fixed and varies the end
  entity over the whole knowledge base;
* the **global** distribution varies both entities; computing it exactly is
  prohibitively expensive, so — exactly like the paper — it is estimated from
  a fixed number of local distributions anchored at randomly chosen start
  entities.

The *position* of the pair is the number of pairs in the distribution whose
aggregate value is strictly larger (``M_position``); a lower position means a
rarer, more interesting explanation.  A standard-deviation variant
(:meth:`Distribution.z_score`) is also provided, which the paper reports to be
similarly effective.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

from repro.core.explanation import Explanation
from repro.core.pattern import END, START, ExplanationPattern
from repro.errors import MeasureError
from repro.kb.graph import KnowledgeBase
from repro.kb.sql import count_position, start_handles, sweep_local_count_distributions
from repro.measures.base import Measure, Monotonicity

__all__ = [
    "Distribution",
    "local_aggregate_distribution",
    "sample_start_entities",
    "LocalDistributionMeasure",
    "GlobalDistributionMeasure",
]

#: Start samples a global-dist measure keeps per KB view before it starts over
#: (each is ``num_samples`` strings; the draw costs one pass over the entities).
_MAX_CACHED_SAMPLES = 4096


@dataclass(frozen=True)
class Distribution:
    """A distribution of aggregate values over entity pairs.

    Stored in the paper's form ``{(a_i, c_i)}``: ``a_i`` is an aggregate value
    and ``c_i`` the number of entity pairs attaining it.  Positional queries
    run in O(log n) against a precomputed suffix-count table and the moments
    are computed once and cached, so ranking loops that probe the same
    distribution many times pay O(n) only on first use.
    """

    value_counts: tuple[tuple[float, int], ...]

    @classmethod
    def from_values(cls, values: list[float]) -> "Distribution":
        counts: dict[float, int] = {}
        for value in values:
            counts[value] = counts.get(value, 0) + 1
        return cls(tuple(sorted(counts.items())))

    @cached_property
    def _values(self) -> tuple[float, ...]:
        """The distinct aggregate values, ascending (bisect substrate)."""
        return tuple(observed for observed, _ in self.value_counts)

    @cached_property
    def _suffix_counts(self) -> tuple[int, ...]:
        """``_suffix_counts[i]`` = number of pairs with value >= values[i]."""
        suffix: list[int] = [0] * (len(self.value_counts) + 1)
        for index in range(len(self.value_counts) - 1, -1, -1):
            suffix[index] = suffix[index + 1] + self.value_counts[index][1]
        return tuple(suffix)

    @cached_property
    def total_pairs(self) -> int:
        return self._suffix_counts[0] if self.value_counts else 0

    def position(self, value: float) -> int:
        """Number of pairs with aggregate strictly greater than ``value``."""
        return self._suffix_counts[bisect_right(self._values, value)]

    @cached_property
    def _moments(self) -> tuple[float, float]:
        """Cached ``(mean, standard deviation)`` of the distribution."""
        total = self.total_pairs
        if total == 0:
            return (0.0, 0.0)
        mean = sum(observed * count for observed, count in self.value_counts) / total
        variance = (
            sum(count * (observed - mean) ** 2 for observed, count in self.value_counts)
            / total
        )
        return (mean, math.sqrt(variance))

    def mean(self) -> float:
        return self._moments[0]

    def standard_deviation(self) -> float:
        return self._moments[1]

    def z_score(self, value: float) -> float:
        """How many standard deviations ``value`` sits above the mean."""
        mean, deviation = self._moments
        if deviation == 0.0:
            return 0.0
        return (value - mean) / deviation

    def merged_with(self, other: "Distribution") -> "Distribution":
        """Pool two distributions (used to estimate the global distribution)."""
        counts: dict[float, int] = dict(self.value_counts)
        for observed, count in other.value_counts:
            counts[observed] = counts.get(observed, 0) + count
        return Distribution(tuple(sorted(counts.items())))


def _aggregate_from_group(
    bindings_per_variable: dict[str, set[str]], instance_count: int, aggregate: str
) -> float:
    """Aggregate value of one end-entity group of the local distribution."""
    if aggregate == "count":
        return float(instance_count)
    if aggregate == "monocount":
        non_target = {
            variable: entities
            for variable, entities in bindings_per_variable.items()
            if variable not in (START, END)
        }
        if not non_target:
            return 1.0 if instance_count else 0.0
        return float(min(len(entities) for entities in non_target.values()))
    raise MeasureError(f"unknown aggregate for distributional measure: {aggregate!r}")


def local_aggregate_distribution(
    kb: KnowledgeBase,
    pattern: ExplanationPattern,
    v_start: str,
    aggregate: str = "count",
) -> dict[str, float]:
    """Aggregate values of ``pattern`` for ``v_start`` paired with every end entity.

    One pass over all bindings with the start variable fixed (the conjunctive
    query of Section 5.3.2) is grouped by end entity; each group is reduced to
    its aggregate (count or monocount).  Evaluation goes through the batched
    sweep evaluator, so the pattern's compiled plan is shared with every other
    start entity this pattern is evaluated for.
    """
    return _sweep_aggregates(kb, pattern, (v_start,), aggregate).get(v_start, {})


def _sweep_aggregates(
    kb: KnowledgeBase,
    pattern: ExplanationPattern,
    start_entities: "tuple[str, ...] | list[str]",
    aggregate: str,
) -> dict[str, dict[str, float]]:
    """Per-start local aggregate distributions from one batched sweep."""
    result = sweep_local_count_distributions(
        kb,
        pattern,
        start_entities,
        collect_variable_sets=aggregate != "count",
    )
    distributions: dict[str, dict[str, float]] = {}
    for start_entity, per_end in result.counts.items():
        values: dict[str, float] = {}
        for end_entity, count in per_end.items():
            if end_entity == start_entity:
                continue
            if aggregate == "count":
                values[end_entity] = float(count)
            else:
                values[end_entity] = _aggregate_from_group(
                    result.variable_sets[(start_entity, end_entity)], count, aggregate
                )
        if values:
            distributions[start_entity] = values
    return distributions


def sample_start_entities(
    entities: "tuple[str, ...] | list[str]", v_start: str, num_samples: int, seed: int
) -> list[str]:
    """The start entities whose local distributions estimate the global one.

    ``num_samples`` entities drawn with ``random.Random(seed).sample`` from
    ``entities`` in order, ``v_start`` excluded; all of them when at most
    ``num_samples`` remain (docs/performance.md, "The sampled global
    distribution").
    """
    candidates = list(entities)
    try:
        candidates.remove(v_start)  # entities are distinct: drops the one copy
    except ValueError:
        pass
    if len(candidates) <= num_samples:
        return candidates
    return random.Random(seed).sample(candidates, num_samples)


class LocalDistributionMeasure(Measure):
    """Position of the pair within the local distribution (``M^local_position``).

    The raw value is the number of end entities that achieve a strictly larger
    aggregate with the same start entity and pattern; fewer such entities mean
    a rarer and therefore more interesting explanation.
    """

    name = "local-dist"
    monotonicity = Monotonicity.NONE
    higher_raw_is_better = False

    def __init__(self, aggregate: str = "count") -> None:
        self.aggregate = aggregate

    def distribution(
        self, kb: KnowledgeBase, explanation: Explanation, v_start: str
    ) -> Distribution:
        """The full local distribution of aggregate values for this pattern."""
        values = local_aggregate_distribution(
            kb, explanation.pattern, v_start, self.aggregate
        )
        return Distribution.from_values(list(values.values()))

    def raw_value(
        self, kb: KnowledgeBase, explanation: Explanation, v_start: str, v_end: str
    ) -> float:
        if self.aggregate == "count":
            # v_start's own groups, tallied in handle space
            return float(count_position(kb, explanation.pattern, v_start, v_end))
        values = local_aggregate_distribution(
            kb, explanation.pattern, v_start, self.aggregate
        )
        own = values.get(v_end, 0.0)
        return float(sum(1 for entity, value in values.items() if value > own))


class GlobalDistributionMeasure(Measure):
    """Position within an estimated global distribution (``M^global_position``).

    The exact global distribution varies both target entities; the paper
    estimates it by pooling 100 local distributions anchored at randomly
    chosen start entities, and so does this implementation (the number of
    samples and the random seed are parameters).
    """

    name = "global-dist"
    monotonicity = Monotonicity.NONE
    higher_raw_is_better = False

    def __init__(self, aggregate: str = "count", num_samples: int = 100, seed: int = 13) -> None:
        if num_samples < 1:
            raise MeasureError("the global distribution needs at least one sample")
        self.aggregate = aggregate
        self.num_samples = num_samples
        self.seed = seed
        # (entity tuple the draws were made from, {v_start: (sample, its
        # handles)}); replaced whole, never mutated in place once another
        # view's tuple shows up
        self._samples: tuple[
            tuple[str, ...], dict[str, tuple[list[str], tuple[int, ...]]]
        ] = ((), {})

    def _draw(self, kb: KnowledgeBase, v_start: str) -> tuple[list[str], tuple[int, ...]]:
        """The start sample of ``v_start`` and its handles, drawn once per view.

        Every explanation of a request (and every request against the same
        view) scores against the same draw, so it is cached per ``v_start``
        and keyed on the *identity* of ``kb.entities``: compiled views and
        plain KBs hand out one cached tuple until their entity set changes,
        so a new view or a grown KB never reuses a stale sample.  Handles
        are dense in entity order, so they are fixed by the same tuple.  The
        cache holds that tuple, so its identity cannot be recycled.
        Concurrent callers may both draw on a miss; the draw is
        deterministic, so either result is the same.
        """
        entities = kb.entities
        drawn_from, samples = self._samples
        if drawn_from is not entities:
            samples = {}
            self._samples = (entities, samples)
        drawn = samples.get(v_start)
        if drawn is None:
            if len(samples) >= _MAX_CACHED_SAMPLES:
                samples.clear()
            sample = sample_start_entities(entities, v_start, self.num_samples, self.seed)
            drawn = samples[v_start] = (sample, start_handles(kb, sample))
        return drawn

    def _sample_starts(self, kb: KnowledgeBase, v_start: str) -> list[str]:
        """The start sample of ``v_start`` (:func:`sample_start_entities`)."""
        return self._draw(kb, v_start)[0]

    def distribution(
        self, kb: KnowledgeBase, explanation: Explanation, v_start: str
    ) -> Distribution:
        """Estimate of the global distribution pooled over sampled start entities.

        All sampled local distributions come from **one** batched sweep of the
        pattern (one compiled plan, one shared frontier expansion) instead of
        one matcher run per sampled start entity.
        """
        per_start = _sweep_aggregates(
            kb, explanation.pattern, self._sample_starts(kb, v_start), self.aggregate
        )
        pooled_values: list[float] = []
        for values in per_start.values():
            pooled_values.extend(values.values())
        return Distribution.from_values(pooled_values)

    def raw_value(
        self, kb: KnowledgeBase, explanation: Explanation, v_start: str, v_end: str
    ) -> float:
        if self.aggregate == "count":
            # the pair's own count against the sample's groups, tallied in
            # handle space: no pooled distribution is built or decoded
            return float(
                count_position(
                    kb,
                    explanation.pattern,
                    v_start,
                    v_end,
                    self._draw(kb, v_start)[1],
                )
            )
        own_values = local_aggregate_distribution(
            kb, explanation.pattern, v_start, self.aggregate
        )
        own = own_values.get(v_end, 0.0)
        pooled = self.distribution(kb, explanation, v_start)
        return float(pooled.position(own))
