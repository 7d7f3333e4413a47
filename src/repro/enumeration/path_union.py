"""Path explanation combination: PathUnionBasic and PathUnionPrune (Section 3.3).

Given the path explanations (the ``MinP(1)`` stratum) produced by one of the
path enumeration algorithms, these routines generate every minimal explanation
of size up to ``n`` by repeatedly *merging* explanations with path
explanations (Theorem 2: each ``MinP(k)`` pattern has a covering pattern set
made of a ``MinP(k-1)`` pattern and a path).

``PathUnionBasic`` follows Algorithm 3: each round merges every explanation
produced in the previous round with every path explanation.  ``PathUnionPrune``
follows Algorithm 4: it records, for every explanation, which
``(parent, path)`` pairs generated it, and uses Theorem 3 to only attempt the
merges whose composition history shows a shared sub-component, cutting the
number of merge calls substantially.

The merge is implemented in two phases so the union algorithms can skip the
(expensive) instance join for candidate patterns that are already known:

1. :func:`_merge_candidates` enumerates the partial one-to-one variable
   mappings that survive cheap pruning (size limit, assignment-set overlap)
   and returns a plain-tuple plan, keyed by the merged pattern's canonical
   key, for each mapping that adds an edge;
2. :func:`_join_instances` hash-joins the two instance sets over the matched
   variables, enforcing subgraph (injective) semantics.

A union finds the (explanation, path) pairs worth merging through
:class:`PathPostings`, an entity postings index over its seed paths, and
builds a pattern object only for a plan that is new and has instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from repro.core.explanation import Explanation
from repro.core.instance import ExplanationInstance
from repro.core.pattern import (
    ExplanationPattern,
    PatternEdge,
    canonical_key_of,
    fresh_variable,
)
from repro.errors import EnumerationError
from repro.resilience.deadline import current_deadline

__all__ = [
    "MergeStats",
    "PathPostings",
    "merge_explanations",
    "path_union_basic",
    "path_union_prune",
    "PATH_UNION_ALGORITHMS",
]


@dataclass
class MergeStats:
    """Work counters exposed for the Figure 7 benchmark and the ablations.

    ``merge_calls`` counts the (explanation, path) pairs a union visits.  The
    union algorithms visit only the pairs that share an entity (the postings
    join of :class:`PathPostings` finds no other), so a pair whose assignment
    sets are disjoint is never counted there: over one enum-fresh pass of the
    performance ledger that is 268,630 visits, where testing every pair made
    315,655.  :func:`merge_explanations` counts every call.
    ``mappings_tried`` counts the variable mappings of the visited pairs that
    pass the size bound and the per-variable overlap masks; each that adds
    an edge becomes a per-request merge plan (a plain tuple, ``_MergePlan``).
    """

    merge_calls: int = 0
    mappings_tried: int = 0
    instance_joins: int = 0
    explanations_produced: int = 0
    duplicates_discarded: int = 0
    rounds: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "merge_calls": self.merge_calls,
            "mappings_tried": self.mappings_tried,
            "instance_joins": self.instance_joins,
            "explanations_produced": self.explanations_produced,
            "duplicates_discarded": self.duplicates_discarded,
            "rounds": self.rounds,
        }


#: One candidate merge as a plain ``(key, matched, added, new_edges)`` tuple:
#: the merged pattern's canonical key, the ``(left variable, right variable)``
#: pairs sorted by left variable, the ``(right variable, new name)`` pairs of
#: the unmatched right variables, and the right edges the merge adds as
#: ``(source, target, label, directed)`` tuples in the merged names.  A union
#: builds the merged :class:`ExplanationPattern` only for a plan whose key is
#: new and whose instance join is non-empty.
_MergePlan = tuple


# ---------------------------------------------------------------------------
# The merge kernel
# ---------------------------------------------------------------------------
#
# Candidate generation enumerates the partial one-to-one variable mappings of
# a (left, right) pair that survive the cheap pruning rules: the size limit
# (through a minimum matched-pair count), assignment-set overlap of every
# matched pair (a disjoint pair cannot produce a joined instance), and at
# least one added edge.  The compatibility matrix is one bitmask per left
# variable; the partial-mapping enumeration over those masks is a pure
# function of a few small ints, memoised in ``_mapping_table``.
#
# Most (left, path) pairs yield nothing, so a union never tests pairs one by
# one: :class:`PathPostings` indexes every entity of the seed paths'
# assignment sets once per union, and one pass over a left explanation's
# assignment sets builds the masks of exactly the paths it shares an entity
# with.  Everything a union builds lives in that one object and in its
# output; nothing is kept between requests.


def _merge_info(explanation: Explanation) -> tuple:
    """Per-explanation constants of the merge kernel, cached.

    ``(sorted non-target variables, aligned assignment sets, edge tuples,
    edge key set, variable set, sorted edge keys)``.
    """
    info = explanation.__dict__.get("_merge_info")
    if info is None:
        pattern = explanation.pattern
        variables = tuple(sorted(pattern.non_target_variables))
        edge_keys = tuple(sorted(edge.key() for edge in pattern.edges))
        info = (
            variables,
            tuple(explanation.assignments(variable) for variable in variables),
            tuple(
                (edge.source, edge.target, edge.label, edge.directed)
                for edge in pattern.edges
            ),
            frozenset(edge_keys),
            pattern.variables,
            edge_keys,
        )
        explanation.__dict__["_merge_info"] = info
    return info


@lru_cache(maxsize=65536)
def _mapping_table(
    masks: tuple[int, ...], right_count: int, min_matched: int, max_matched: int
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All partial one-to-one index mappings compatible with ``masks``.

    ``masks[i]`` has bit ``j`` set when left variable ``i`` may map onto
    right variable ``j``.  Mappings are ``((left_index, right_index), ...)``
    tuples in a fixed order: ascending matched count, left subsets in
    combination order, right choices in index order.
    """
    left_count = len(masks)
    results: list[tuple[tuple[int, int], ...]] = []
    rights_of = [
        [j for j in range(right_count) if mask >> j & 1] for mask in masks
    ]
    for matched_count in range(max(1, min_matched), max_matched + 1):
        for left_subset in itertools.combinations(range(left_count), matched_count):
            chosen: list[int] = []

            def assign(position: int) -> None:
                if position == len(left_subset):
                    results.append(tuple(zip(left_subset, chosen)))
                    return
                for right_index in rights_of[left_subset[position]]:
                    if right_index in chosen:
                        continue
                    chosen.append(right_index)
                    assign(position + 1)
                    chosen.pop()

            assign(0)
    return tuple(results)


def _merge_plan(
    left_info: tuple, right_info: tuple, index_pairs: tuple[tuple[int, int], ...]
) -> _MergePlan | None:
    """The pattern-space half of one merge candidate, or ``None``.

    Matched right variables take the left name; unmatched ones receive the
    lowest fresh names that are not left variables, in sorted order.  A
    mapping that adds no edge reproduces the left pattern and yields
    ``None``.
    """
    left_vars, _, _, left_edge_keys, left_variables, left_sorted_keys = left_info
    right_vars, _, right_edges, _, _, _ = right_info
    rename = {right_vars[j]: left_vars[i] for i, j in index_pairs}
    matched = tuple((left_vars[i], right_vars[j]) for i, j in index_pairs)
    added: list[tuple[str, str]] = []
    next_fresh = 0
    for variable in right_vars:
        if variable in rename:
            continue
        name = fresh_variable(next_fresh)
        while name in left_variables:
            next_fresh += 1
            name = fresh_variable(next_fresh)
        next_fresh += 1
        rename[variable] = name
        added.append((variable, name))
    new_edges: list[tuple[str, str, str, bool]] = []
    new_keys: list[tuple[str, str, str, bool]] = []
    for source, target, label, directed in right_edges:
        source = rename.get(source, source)
        target = rename.get(target, target)
        if directed or source <= target:
            key = (source, target, label, directed)
        else:
            key = (target, source, label, directed)
        if key in left_edge_keys:
            continue
        new_edges.append((source, target, label, directed))
        new_keys.append(key)
    if not new_edges:
        return None
    canonical_key = canonical_key_of(
        tuple(sorted((*left_variables, *(name for _, name in added)))),
        tuple(sorted((*left_sorted_keys, *new_keys))),
    )
    return (canonical_key, matched, tuple(added), tuple(new_edges))


def _merge_candidates(
    left_info: tuple,
    right_info: tuple,
    masks: tuple[int, ...],
    min_matched: int,
    max_matched: int,
    stats: MergeStats | None,
) -> list[_MergePlan]:
    """The merge plans of one (left, right) pair with these overlap masks.

    Callers check the size bound (``min_matched`` ≤ ``max_matched``) and
    that at least ``max(min_matched, 1)`` masks are non-empty first, so the
    mapping enumeration runs only on pairs that can yield a mapping.
    """
    mappings = _mapping_table(masks, len(right_info[0]), min_matched, max_matched)
    if not mappings:
        return []
    if stats is not None:
        stats.mappings_tried += len(mappings)
    plans: list[_MergePlan] = []
    for index_pairs in mappings:
        plan = _merge_plan(left_info, right_info, index_pairs)
        if plan is not None:
            plans.append(plan)
    return plans


def _merged_pattern(left: Explanation, plan: _MergePlan) -> ExplanationPattern:
    """Build the merged pattern of ``plan``, its canonical key already set."""
    pattern = left.pattern
    return ExplanationPattern._trusted(
        pattern.variables | {name for _, name in plan[2]},
        pattern.edges | {PatternEdge(*edge) for edge in plan[3]},
        plan[0],
    )


def _join_instances(
    left: Explanation,
    right: Explanation,
    plan: _MergePlan,
    stats: MergeStats | None = None,
    index_cache: dict | None = None,
) -> list[ExplanationInstance]:
    """Hash-join the instance sets of ``left`` and ``right`` for a plan.

    Instances agree on every matched variable pair and the result must remain
    injective (instances are subgraphs), so unmatched variables from the two
    sides may not collapse onto the same entity.

    ``index_cache`` (optional) memoizes the hash index built over ``right``'s
    instances per ``(right, matched-variables)`` key: the union algorithms
    join the same few path explanations against many parents, and the index
    only depends on the right side.
    """
    if stats is not None:
        stats.instance_joins += 1
    _, matched, added, _ = plan
    matched_left = [pair[0] for pair in matched]
    matched_right = tuple(pair[1] for pair in matched)
    only_left = [
        variable for variable in _merge_info(left)[0] if variable not in matched_left
    ]

    cache_key = (id(right), matched_right)
    right_index: dict[tuple[str, ...], list[ExplanationInstance]] | None = (
        index_cache.get(cache_key) if index_cache is not None else None
    )
    if right_index is None:
        right_index = {}
        for right_instance in right.instances:
            key = tuple(right_instance[variable] for variable in matched_right)
            right_index.setdefault(key, []).append(right_instance)
        if index_cache is not None:
            index_cache[cache_key] = right_index

    merged: list[ExplanationInstance] = []
    for left_instance in left.instances:
        key = tuple(left_instance[variable] for variable in matched_left)
        partners = right_index.get(key)
        if not partners:
            continue
        left_mapping = left_instance.mapping
        left_only_entities = {left_mapping[variable] for variable in only_left}
        for right_instance in partners:
            conflict = False
            additions: dict[str, str] = {}
            for variable, name in added:
                entity = right_instance[variable]
                if entity in left_only_entities:
                    conflict = True
                    break
                additions[name] = entity
            if conflict:
                continue
            if len(set(additions.values())) != len(additions):
                continue
            combined = dict(left_mapping)
            combined.update(additions)
            merged.append(ExplanationInstance(combined))
    return merged


def merge_explanations(
    left: Explanation,
    right: Explanation,
    size_limit: int,
    stats: MergeStats | None = None,
) -> list[Explanation]:
    """Merge two explanations under every valid partial mapping (Algorithm 3).

    Args:
        left: an explanation whose pattern is minimal.
        right: a (path) explanation whose pattern is minimal.
        size_limit: maximum number of variables allowed in the merged pattern.
        stats: optional counters updated in place.

    Returns:
        The merged explanations with at most ``size_limit`` variables and at
        least one instance.  Instances are derived from the input instances
        (no knowledge-base evaluation happens here).
    """
    if stats is not None:
        stats.merge_calls += 1
    left_info = _merge_info(left)
    right_info = _merge_info(right)
    right_sets = right_info[1]
    masks = tuple(
        sum(
            1 << j
            for j, right_set in enumerate(right_sets)
            if not left_set.isdisjoint(right_set)
        )
        for left_set in left_info[1]
    )
    max_matched = min(len(masks), len(right_sets))
    min_matched = len(left_info[4]) + len(right_sets) - size_limit
    nonempty = len(masks) - masks.count(0)
    if max_matched == 0 or min_matched > max_matched or nonempty < max(min_matched, 1):
        return []
    results: list[Explanation] = []
    for plan in _merge_candidates(
        left_info, right_info, masks, min_matched, max_matched, stats
    ):
        instances = _join_instances(left, right, plan, stats)
        if not instances:
            continue
        results.append(Explanation(_merged_pattern(left, plan), instances))
        if stats is not None:
            stats.explanations_produced += 1
    return results


class PathPostings:
    """One union's index of its seed paths: the postings join.

    Every entity of an eligible seed path's assignment sets maps to the
    ``(path, variable bit)`` pairs that hold it, packed as one int per pair.
    :meth:`overlap_masks` builds, in one pass over a left explanation's
    assignment sets, the overlap masks of every path that shares an entity
    with it: the associative-array join of D4M over entity keys.  The object
    also holds the union's join indexes, so all a union keeps lives here and
    dies with the request.

    Args:
        path_explanations: the seed paths, addressed by their list index.
        size_limit: maximum number of pattern variables; longer seeds are
            not indexed.
    """

    def __init__(self, path_explanations: list[Explanation], size_limit: int) -> None:
        self.paths = path_explanations
        self.size_limit = size_limit
        self._infos: list[tuple | None] = [None] * len(path_explanations)
        eligible: list[int] = []
        for index, path in enumerate(path_explanations):
            if path.pattern.num_nodes <= size_limit:
                self._infos[index] = _merge_info(path)
                eligible.append(index)
        # Codes are ``path_index << shift | variable``: wide enough for the
        # longest indexed path's non-target variables.
        widest = max((len(self._infos[index][0]) for index in eligible), default=1)
        self._shift = shift = max(widest - 1, 1).bit_length()
        postings: dict[str, list[int]] = {}
        for index in eligible:
            for bit, assignment_set in enumerate(self._infos[index][1]):
                code = index << shift | bit
                for entity in assignment_set:
                    posting = postings.get(entity)
                    if posting is None:
                        postings[entity] = [code]
                    else:
                        posting.append(code)
        self._postings = postings
        self._join_indexes: dict = {}

    def overlap_masks(self, left: Explanation) -> dict[int, list[int]]:
        """Path index -> overlap masks, for every path sharing an entity with ``left``.

        ``masks[i]`` has bit ``j`` set when the ``i``-th non-target variable
        of ``left`` and the ``j``-th of the path (both sorted) share an
        entity.  One pass over ``left``'s assignment sets builds them all.
        """
        left_sets = _merge_info(left)[1]
        shift = self._shift
        low_bits = (1 << shift) - 1
        postings_get = self._postings.get
        rows: dict[int, list[int]] = {}
        for position, left_set in enumerate(left_sets):
            for code in set().union(*map(postings_get, left_set, itertools.repeat(()))):
                path_index = code >> shift
                row = rows.get(path_index)
                if row is None:
                    row = rows[path_index] = [0] * len(left_sets)
                row[position] |= 1 << (code & low_bits)
        return rows

    def plans(
        self,
        left: Explanation,
        stats: MergeStats,
        allowed: set[int] | None = None,
    ):
        """Yield ``(path_index, plan)`` for every merge plan of ``left``.

        Visits, in ascending path index, the indexed paths that share an
        entity with ``left`` (and lie in ``allowed``, when given); each
        visit is one ``merge_calls``.
        """
        left_info = _merge_info(left)
        left_count = len(left_info[0])
        rows = self.overlap_masks(left)
        visit = rows.keys() if allowed is None else rows.keys() & allowed
        deadline = current_deadline()
        infos = self._infos
        # The size bound: a merged pattern keeps the left variables and adds
        # every unmatched right one, so it needs this many matched pairs.
        slack = len(left_info[4]) - self.size_limit
        for path_index in sorted(visit):
            if deadline is not None:
                deadline.tick()
            stats.merge_calls += 1
            right_info = infos[path_index]
            right_count = len(right_info[0])
            min_matched = slack + right_count
            max_matched = left_count if left_count < right_count else right_count
            if min_matched > max_matched:
                continue
            masks = rows[path_index]
            # Every visited path shares an entity, so one mask is non-empty.
            if min_matched > 1 and left_count - masks.count(0) < min_matched:
                continue
            for plan in _merge_candidates(
                left_info, right_info, tuple(masks), min_matched, max_matched, stats
            ):
                yield path_index, plan

    def join(
        self,
        left: Explanation,
        path_index: int,
        plan: _MergePlan,
        stats: MergeStats,
    ) -> Explanation | None:
        """The merged explanation of ``plan``, or ``None`` when no instance joins."""
        instances = _join_instances(
            left, self.paths[path_index], plan, stats, self._join_indexes
        )
        if not instances:
            return None
        stats.explanations_produced += 1
        return Explanation(_merged_pattern(left, plan), instances)

    def merge(self, left: Explanation, stats: MergeStats) -> list[Explanation]:
        """Every merge of ``left`` with an indexed path that has an instance.

        The pairwise :func:`merge_explanations` over all seed paths, in the
        same order, through the postings join.  The anti-monotonic top-k
        ranker expands its explanations with it.
        """
        merged: list[Explanation] = []
        for path_index, plan in self.plans(left, stats):
            explanation = self.join(left, path_index, plan, stats)
            if explanation is not None:
                merged.append(explanation)
        return merged


def _validate_inputs(path_explanations: list[Explanation], size_limit: int) -> None:
    if size_limit < 2:
        raise EnumerationError("the pattern size limit must be at least 2")
    for explanation in path_explanations:
        if not explanation.is_path():
            raise EnumerationError(
                "path_union expects path explanations as seeds; got a non-path pattern"
            )


def _distinct_seeds(
    path_explanations: list[Explanation], size_limit: int, seen: set[tuple]
) -> list[Explanation]:
    """The seed paths within the size limit, one per canonical key."""
    seeds: list[Explanation] = []
    for explanation in path_explanations:
        pattern = explanation.pattern
        if pattern.num_nodes <= size_limit and pattern.canonical_key not in seen:
            seen.add(pattern.canonical_key)
            seeds.append(explanation)
    return seeds


def path_union_basic(
    path_explanations: list[Explanation],
    size_limit: int,
    stats: MergeStats | None = None,
    compiled: bool = False,  # no effect; kept because perfbench/tracing.py passes it
) -> list[Explanation]:
    """PathUnionBasic (Algorithm 3).

    Every round merges each explanation produced in the previous round with
    every path explanation; duplicates (isomorphic patterns) are discarded.
    Terminates when a round produces nothing new, which is guaranteed because
    each round grows the number of edges and the size limit bounds patterns.

    Returns:
        All minimal explanations with at most ``size_limit`` variables and at
        least one instance, including the seed path explanations.
    """
    _validate_inputs(path_explanations, size_limit)
    stats = stats if stats is not None else MergeStats()
    seen: set[tuple] = set()
    results = _distinct_seeds(path_explanations, size_limit, seen)
    postings = PathPostings(path_explanations, size_limit)

    expand_queue = list(results)
    while expand_queue:
        stats.rounds += 1
        new_round: list[Explanation] = []
        for explanation in expand_queue:
            for path_index, plan in postings.plans(explanation, stats):
                if plan[0] in seen:
                    stats.duplicates_discarded += 1
                    continue
                merged = postings.join(explanation, path_index, plan, stats)
                if merged is None:
                    continue
                seen.add(plan[0])
                new_round.append(merged)
        results.extend(new_round)
        expand_queue = new_round
    return results


def path_union_prune(
    path_explanations: list[Explanation],
    size_limit: int,
    stats: MergeStats | None = None,
    compiled: bool = False,  # no effect; kept because perfbench/tracing.py passes it
) -> list[Explanation]:
    """PathUnionPrune (Algorithm 4).

    Identical output to :func:`path_union_basic`, but each explanation records
    the ``(parent_index, path_index)`` pairs it was generated from.  By
    Theorem 3, a ``MinP(k)`` pattern can always be produced by merging a
    ``MinP(k-1)`` parent with a path that some *sibling* sharing a
    ``MinP(k-2)`` sub-component was built from — so instead of trying every
    path against every explanation, a parent is only merged with the paths
    recorded in the histories of explanations that share a composition parent
    with it.
    """
    _validate_inputs(path_explanations, size_limit)
    stats = stats if stats is not None else MergeStats()
    seen: set[tuple] = set()
    seeds = _distinct_seeds(path_explanations, size_limit, seen)
    results = list(seeds)
    postings = PathPostings(path_explanations, size_limit)

    expand_queue: list[Explanation] = seeds
    expand_history: list[list[tuple[int, int]]] = [[] for _ in seeds]
    first_round = True

    while expand_queue:
        stats.rounds += 1
        new_round: list[Explanation] = []
        new_history: list[list[tuple[int, int]]] = []
        new_index_by_key: dict[tuple, int] = {}

        # Invert the round's composition histories once (parent -> paths used
        # by any sibling built from it) instead of rescanning every history
        # for every explanation, which made the sharing test quadratic.
        paths_by_parent: dict[int, set[int]] = {}
        if not first_round:
            for history_right in expand_history:
                for parent, path_index in history_right:
                    paths_by_parent.setdefault(parent, set()).add(path_index)

        for index_left, explanation in enumerate(expand_queue):
            candidate_paths: set[int] | None = None
            if not first_round:
                candidate_paths = set()
                for parent, _ in expand_history[index_left]:
                    candidate_paths.update(paths_by_parent.get(parent, ()))

            for path_index, plan in postings.plans(explanation, stats, candidate_paths):
                key = plan[0]
                if key in seen:
                    stats.duplicates_discarded += 1
                    # Still extend the composition history of a duplicate
                    # produced earlier in this round, as Algorithm 4 does:
                    # the history drives the next round's pruning.
                    if key in new_index_by_key:
                        new_history[new_index_by_key[key]].append(
                            (index_left, path_index)
                        )
                    continue
                merged = postings.join(explanation, path_index, plan, stats)
                if merged is None:
                    continue
                seen.add(key)
                new_round.append(merged)
                new_history.append([(index_left, path_index)])
                new_index_by_key[key] = len(new_round) - 1

        results.extend(new_round)
        expand_queue = new_round
        expand_history = new_history
        first_round = False
    return results


#: Registry used by the enumeration framework and the benchmarks.
PATH_UNION_ALGORITHMS = {
    "basic": path_union_basic,
    "prune": path_union_prune,
}
