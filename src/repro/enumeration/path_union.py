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
   mappings, applies cheap pruning (size limit, assignment-set overlap) and
   builds the merged pattern;
2. :func:`_join_instances` hash-joins the two instance sets over the matched
   variables, enforcing subgraph (injective) semantics.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from functools import lru_cache

from repro.core.explanation import Explanation
from repro.core.instance import ExplanationInstance
from repro.core.isomorphism import DuplicateRegistry
from repro.core.pattern import ExplanationPattern, PatternEdge, fresh_variable
from repro.errors import EnumerationError
from repro.resilience.deadline import current_deadline

__all__ = [
    "MergeStats",
    "merge_explanations",
    "path_union_basic",
    "path_union_prune",
    "PATH_UNION_ALGORITHMS",
]


@dataclass
class MergeStats:
    """Work counters exposed for the Figure 7 benchmark and the ablations."""

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


#: One candidate merged pattern plus the bookkeeping to join instances, as a
#: plain ``(pattern, matched, rename)`` tuple: the merged
#: :class:`ExplanationPattern`, the ``(left variable, right variable)`` pairs
#: sorted by left variable, and the right-variable -> merged-name mapping.
#: A tuple rather than a dataclass because candidate generation sits on the
#: union's hottest path (and the kernel re-emits cached candidates without
#: constructing anything).
_MergeCandidate = tuple


# ---------------------------------------------------------------------------
# The merge kernel
# ---------------------------------------------------------------------------
#
# Candidate generation enumerates the partial one-to-one variable mappings of
# a (left, right) pair that survive the cheap pruning rules: the size limit
# (through a minimum matched-pair count), assignment-set overlap of every
# matched pair (a disjoint pair cannot produce a joined instance), and at
# least one added edge.  Most (left, right) pairs yield nothing, so the
# kernel
#
# 1. short-circuits pairs whose *overall* entity sets are disjoint (no
#    variable pair can overlap) with a single frozenset probe;
# 2. encodes the compatibility matrix as one bitmask per left variable and
#    resolves the partial-mapping enumeration through a memoised table keyed
#    on those masks — tiny domains (paths have at most three non-target
#    variables), so the enumeration is almost always a dict hit;
# 3. memoises the pattern-space half of a merge (variable renaming, fresh
#    names, added edges, the merged pattern object) per
#    ``(left pattern, right pattern, mapping)``: explanation *shapes* recur
#    heavily, and the merged pattern for a shape pair is independent of the
#    instances at hand.


#: Pattern value -> integer token.  Tokens turn the merge-plan cache keys
#: into int pairs: a pattern pays the (frozenset-hashing) intern lookup once
#: per *object*, not once per merge call.  Tokens come from a monotone
#: counter, so a token is globally unique for the life of the process:
#: clearing the intern table (or the plan cache) at any moment — including
#: while other serving threads are mid-union under the engine's read lock —
#: can only cause cache misses, never key aliasing.  Minting is serialised
#: by :data:`_MERGE_CACHE_LOCK`; everything else relies on the atomicity of
#: individual dict operations plus the value-equality of rebuilt entries.
_PATTERN_TOKENS: dict[ExplanationPattern, int] = {}
_TOKEN_COUNTER = itertools.count()
_MERGE_CACHE_LOCK = threading.Lock()


def _pattern_token(pattern: ExplanationPattern) -> int:
    cached = pattern.__dict__.get("_merge_token")
    if cached is not None:
        return cached
    with _MERGE_CACHE_LOCK:
        token = _PATTERN_TOKENS.get(pattern)
        if token is None:
            token = _PATTERN_TOKENS[pattern] = next(_TOKEN_COUNTER)
    pattern.__dict__["_merge_token"] = token
    return token


def _merge_info(explanation: Explanation) -> tuple:
    """Per-explanation constants of the merge kernel, cached.

    ``(sorted non-target variables, aligned assignment sets, right-edge
    tuples, left-edge key set, pattern size, union of all assignment sets,
    pattern token)``.
    """
    info = explanation.__dict__.get("_merge_info")
    if info is None:
        pattern = explanation.pattern
        variables = sorted(pattern.non_target_variables)
        assignment_sets = [explanation.assignments(variable) for variable in variables]
        all_entities = (
            frozenset().union(*assignment_sets) if assignment_sets else frozenset()
        )
        info = (
            tuple(variables),
            tuple(assignment_sets),
            tuple(
                (edge.source, edge.target, edge.label, edge.directed)
                for edge in pattern.edges
            ),
            {edge.key() for edge in pattern.edges},
            pattern.num_nodes,
            all_entities,
            _pattern_token(pattern),
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


#: (left pattern, right pattern) -> {mapping index pairs -> (merged pattern |
#: None, rename, mapping names)}.  Pattern-space only, so safe to share
#: across pairs and requests; two-level so the (comparatively expensive)
#: pattern-pair key is hashed once per merge call, not once per mapping.
#: Cleared wholesale when it outgrows its cap.
_MERGE_PLAN_CACHE: dict[tuple, dict] = {}
_MERGE_PLAN_CACHE_CAP = 1 << 15


def _build_merge_plan(
    left_pattern: ExplanationPattern,
    right_sorted_vars: tuple[str, ...],
    right_edge_tuples: tuple,
    left_edge_keys: set,
    mapping_names: tuple[tuple[str, str], ...],
) -> tuple[ExplanationPattern | None, dict[str, str]]:
    """The pattern-space half of one merge candidate.

    Matched right variables take the left name; unmatched ones receive fresh
    names that cannot collide with the left pattern's variables.
    """
    left_variables = left_pattern.variables
    reverse = {right_name: left_name for left_name, right_name in mapping_names}
    if len(mapping_names) == len(right_sorted_vars):
        rename = reverse
    else:
        fresh_names: list[str] = []
        next_fresh = 0
        while len(fresh_names) < len(right_sorted_vars):
            name = fresh_variable(next_fresh)
            if name not in left_variables:
                fresh_names.append(name)
            next_fresh += 1
        rename = {}
        fresh_iter = iter(fresh_names)
        for variable in right_sorted_vars:
            mapped = reverse.get(variable)
            rename[variable] = mapped if mapped is not None else next(fresh_iter)
    new_edges: list[PatternEdge] = []
    for source, target, label, directed in right_edge_tuples:
        renamed_source = rename.get(source, source)
        renamed_target = rename.get(target, target)
        if directed or renamed_source <= renamed_target:
            key = (renamed_source, renamed_target, label, directed)
        else:
            key = (renamed_target, renamed_source, label, directed)
        if key in left_edge_keys:
            continue
        new_edges.append(PatternEdge(renamed_source, renamed_target, label, directed))
    if not new_edges:
        # A merge that adds no edge reproduces the left pattern and would
        # only create duplicate work downstream.
        return (None, rename)
    merged = ExplanationPattern._trusted(
        left_variables | frozenset(rename.values()),
        left_pattern.edges | frozenset(new_edges),
    )
    return (merged, rename)


def _merge_candidates(
    left: Explanation,
    right: Explanation,
    size_limit: int,
    stats: MergeStats | None = None,
    left_info: tuple | None = None,
    right_info: tuple | None = None,
) -> list[_MergeCandidate]:
    """Enumerate merged patterns of ``left`` and ``right`` worth joining.

    The union loops hoist ``left_info``/``right_info`` (see :func:`_merge_info`)
    and the overall-disjointness skip out of this call; when invoked directly
    both are derived here.
    """
    if stats is not None:
        stats.merge_calls += 1
    if left_info is None:
        left_info = _merge_info(left)
    if right_info is None:
        right_info = _merge_info(right)
    left_vars, left_sets, _, left_edge_keys, left_size, left_all, left_token = left_info
    right_vars, right_sets, right_edges, _, _, right_all, right_token = right_info
    right_non_target = len(right_vars)
    left_count = len(left_vars)
    max_matched = left_count if left_count < right_non_target else right_non_target
    min_matched = left_size + right_non_target - size_limit
    if max_matched == 0 or min_matched > max_matched:
        return []
    if left_all.isdisjoint(right_all):
        return []
    needed = min_matched if min_matched > 1 else 1
    masks: list[int] = []
    nonempty = 0
    remaining = len(left_sets)
    for left_set in left_sets:
        mask = 0
        bit = 1
        for right_set in right_sets:
            if not left_set.isdisjoint(right_set):
                mask |= bit
            bit <<= 1
        masks.append(mask)
        if mask:
            nonempty += 1
        remaining -= 1
        if nonempty + remaining < needed:
            return []
    mappings = _mapping_table(tuple(masks), right_non_target, min_matched, max_matched)
    if not mappings:
        return []
    pair_key = (left_token, right_token)
    pair_plans = _MERGE_PLAN_CACHE.get(pair_key)
    if pair_plans is None:
        pair_plans = _MERGE_PLAN_CACHE[pair_key] = {}
    if stats is not None:
        stats.mappings_tried += len(mappings)
    candidates: list[_MergeCandidate] = []
    for index_pairs in mappings:
        plan = pair_plans.get(index_pairs)
        if plan is None:
            mapping_names = tuple(
                (left_vars[left_index], right_vars[right_index])
                for left_index, right_index in index_pairs
            )
            merged_pattern, rename = _build_merge_plan(
                left.pattern, right_vars, right_edges, left_edge_keys, mapping_names
            )
            plan = pair_plans[index_pairs] = (
                (merged_pattern, mapping_names, rename)
                if merged_pattern is not None
                else None
            )
        if plan is not None:
            candidates.append(plan)
    return candidates


def _maybe_trim_merge_caches() -> None:
    """Entry-point cap check for the merge kernel's shared caches.

    Safe to run while other threads are mid-union: tokens are never reused
    (monotone counter), so dropping intern or plan entries can only force a
    rebuild under a fresh — still unique — token, never an aliased hit.  A
    concurrent union holding a reference to a dropped inner plan dict keeps
    filling its (now orphaned) dict and stays correct.
    """
    with _MERGE_CACHE_LOCK:
        if len(_MERGE_PLAN_CACHE) > _MERGE_PLAN_CACHE_CAP:
            _MERGE_PLAN_CACHE.clear()
        if len(_PATTERN_TOKENS) > _MERGE_PLAN_CACHE_CAP:
            _PATTERN_TOKENS.clear()


def _join_instances(
    left: Explanation,
    right: Explanation,
    candidate: _MergeCandidate,
    stats: MergeStats | None = None,
    index_cache: dict | None = None,
) -> list[ExplanationInstance]:
    """Hash-join the instance sets of ``left`` and ``right`` for a candidate.

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
    _, matched, rename = candidate
    matched_left = [pair[0] for pair in matched]
    matched_right = [pair[1] for pair in matched]
    only_left = sorted(left.pattern.non_target_variables - set(matched_left))
    only_right = sorted(
        right.pattern.non_target_variables - set(matched_right)
    )

    cache_key = (id(right), tuple(matched_right))
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
            for variable in only_right:
                entity = right_instance[variable]
                if entity in left_only_entities:
                    conflict = True
                    break
                additions[rename[variable]] = entity
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
    _maybe_trim_merge_caches()
    results: list[Explanation] = []
    for candidate in _merge_candidates(left, right, size_limit, stats):
        instances = _join_instances(left, right, candidate, stats)
        if not instances:
            continue
        results.append(Explanation(candidate[0], instances))
        if stats is not None:
            stats.explanations_produced += 1
    return results


def _validate_inputs(path_explanations: list[Explanation], size_limit: int) -> None:
    if size_limit < 2:
        raise EnumerationError("the pattern size limit must be at least 2")
    for explanation in path_explanations:
        if not explanation.is_path():
            raise EnumerationError(
                "path_union expects path explanations as seeds; got a non-path pattern"
            )


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
    _maybe_trim_merge_caches()

    results: list[Explanation] = []
    registry = DuplicateRegistry()
    for explanation in path_explanations:
        if explanation.pattern.num_nodes <= size_limit and registry.add(explanation.pattern):
            results.append(explanation)

    # Hoisted per-path constants: size eligibility and the merge infos
    # driving the pair-level disjointness skip.
    eligible: list[tuple[Explanation, tuple]] = [
        (path_explanation, _merge_info(path_explanation))
        for path_explanation in path_explanations
        if path_explanation.pattern.num_nodes <= size_limit
    ]

    join_index_cache: dict = {}
    deadline = current_deadline()
    expand_queue = list(results)
    while expand_queue:
        stats.rounds += 1
        new_round: list[Explanation] = []
        for explanation in expand_queue:
            left_info = _merge_info(explanation)
            for path_explanation, right_info in eligible:
                if deadline is not None:
                    deadline.tick()
                if left_info[5].isdisjoint(right_info[5]):
                    # No variable pair can share an entity: the merge cannot
                    # produce a joinable candidate, so skip the kernel call.
                    stats.merge_calls += 1
                    continue
                for candidate in _merge_candidates(
                    explanation, path_explanation, size_limit, stats,
                    left_info, right_info,
                ):
                    if candidate[0] in registry:
                        stats.duplicates_discarded += 1
                        continue
                    instances = _join_instances(
                        explanation, path_explanation, candidate, stats, join_index_cache
                    )
                    if not instances:
                        continue
                    registry.add(candidate[0])
                    merged = Explanation(candidate[0], instances)
                    stats.explanations_produced += 1
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
    _maybe_trim_merge_caches()

    results: list[Explanation] = []
    registry = DuplicateRegistry()
    seeds: list[Explanation] = []
    for explanation in path_explanations:
        if explanation.pattern.num_nodes <= size_limit and registry.add(explanation.pattern):
            seeds.append(explanation)
    results.extend(seeds)

    # Hoisted per-path constants (see path_union_basic).
    path_ok = [
        path_explanation.pattern.num_nodes <= size_limit
        for path_explanation in path_explanations
    ]
    path_infos = [
        _merge_info(path_explanation) if ok else None
        for path_explanation, ok in zip(path_explanations, path_ok)
    ]

    join_index_cache: dict = {}
    deadline = current_deadline()
    expand_queue: list[Explanation] = list(seeds)
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
            if first_round:
                candidate_paths = set(range(len(path_explanations)))
            else:
                candidate_paths = set()
                for parent, _ in expand_history[index_left]:
                    candidate_paths.update(paths_by_parent.get(parent, ()))

            left_info = _merge_info(explanation)
            for path_index in sorted(candidate_paths):
                if deadline is not None:
                    deadline.tick()
                if not path_ok[path_index]:
                    continue
                path_explanation = path_explanations[path_index]
                right_info = path_infos[path_index]
                if left_info[5].isdisjoint(right_info[5]):
                    # Entity-disjoint pair: no joinable candidate can exist.
                    stats.merge_calls += 1
                    continue
                for candidate in _merge_candidates(
                    explanation, path_explanation, size_limit, stats,
                    left_info, right_info,
                ):
                    candidate_pattern = candidate[0]
                    key = candidate_pattern.canonical_key
                    if candidate_pattern in registry:
                        stats.duplicates_discarded += 1
                        # Still extend the composition history of a duplicate
                        # produced earlier in this round, as Algorithm 4 does:
                        # the history drives the next round's pruning.
                        if key in new_index_by_key:
                            new_history[new_index_by_key[key]].append(
                                (index_left, path_index)
                            )
                        continue
                    instances = _join_instances(
                        explanation, path_explanation, candidate, stats, join_index_cache
                    )
                    if not instances:
                        continue
                    registry.add(candidate_pattern)
                    merged = Explanation(candidate_pattern, instances)
                    stats.explanations_produced += 1
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
