"""Property-based equivalence: indexed hot paths vs naive reference semantics.

The PR-1 performance work replaced linear adjacency scans with secondary
indexes, gave the matcher compiled plans with a partial-binding memo, and
batched the distributional evaluation into one shared traversal.  None of
that may change a single result.  These tests generate seeded random
knowledge bases (hypothesis-style, but dependency-free and deterministic)
and assert that the optimised implementations return results identical to
straightforward reference implementations that only use the public edge
list — the pre-index semantics.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core.matcher import match_pattern
from repro.core.pattern import END, START, ExplanationPattern, PatternEdge
from repro.kb.graph import KnowledgeBase
from repro.kb.schema import Schema
from repro.kb.sql import (
    count_qualifying_end_entities,
    iter_pattern_bindings,
    sweep_local_count_distributions,
)
from repro.measures.distributional import Distribution, local_aggregate_distribution

LABELS = [("knows", True), ("likes", True), ("spouse", False), ("works_at", True)]
NUM_RANDOM_KBS = 12


def random_kb(seed: int) -> KnowledgeBase:
    """A small random labelled multigraph, deterministic in ``seed``."""
    rng = random.Random(seed)
    schema = Schema()
    for label, directed in LABELS:
        schema.declare_relation(label, directed=directed)
    kb = KnowledgeBase(schema=schema)
    num_entities = rng.randint(5, 11)
    entities = [f"e{index}" for index in range(num_entities)]
    for entity in entities:
        kb.add_entity(entity)
    num_edges = rng.randint(num_entities, num_entities * 3)
    for _ in range(num_edges):
        source, target = rng.sample(entities, 2)
        label, _ = rng.choice(LABELS)
        kb.add_edge(source, target, label)
    return kb


def random_pattern(seed: int) -> ExplanationPattern:
    """A small connected random pattern over the fixed label vocabulary."""
    rng = random.Random(seed * 31 + 5)
    variables = [START, END] + [f"?v{index}" for index in range(rng.randint(0, 2))]
    edges: list[PatternEdge] = []
    connected = {variables[0]}
    for variable in variables[1:]:
        anchor = rng.choice(sorted(connected))
        label, directed = rng.choice(LABELS)
        if rng.random() < 0.5:
            edges.append(PatternEdge(anchor, variable, label, directed))
        else:
            edges.append(PatternEdge(variable, anchor, label, directed))
        connected.add(variable)
    # A few extra edges to create cycles / parallel constraints.
    for _ in range(rng.randint(0, 2)):
        source, target = rng.sample(variables, 2)
        label, directed = rng.choice(LABELS)
        edge = PatternEdge(source, target, label, directed)
        if edge not in edges:
            edges.append(edge)
    return ExplanationPattern.from_edges(edges)


# ---------------------------------------------------------------------------
# Reference implementations (pre-index semantics over the raw edge list)
# ---------------------------------------------------------------------------


def reference_neighbors(kb: KnowledgeBase, entity: str):
    """(neighbor, label, orientation) triples derived only from kb.edges()."""
    entries = []
    for edge in kb.edges():
        if edge.source == entity:
            orientation = "out" if edge.directed else "undirected"
            entries.append((edge.target, edge.label, orientation))
        elif edge.target == entity:
            orientation = "in" if edge.directed else "undirected"
            entries.append((edge.source, edge.label, orientation))
    return entries


def reference_has_edge(
    kb: KnowledgeBase, source: str, target: str, label: str, direction: str
) -> bool:
    for edge in kb.edges():
        if edge.label != label:
            continue
        if not edge.directed:
            if {edge.source, edge.target} == {source, target}:
                return True
            continue
        if direction == "out" and (edge.source, edge.target) == (source, target):
            return True
        if direction == "in" and (edge.source, edge.target) == (target, source):
            return True
        if direction == "any" and {edge.source, edge.target} == {source, target} and (
            (edge.source, edge.target) in ((source, target), (target, source))
        ):
            return True
    return False


def reference_matches(
    kb: KnowledgeBase, pattern: ExplanationPattern, v_start: str, v_end: str
) -> list[dict[str, str]]:
    """Brute force: try every injective assignment of entities to variables.

    Edge tests use a set built once from ``kb.edges()`` with the semantics of
    :func:`reference_has_edge`: a directed pattern edge needs the KB edge in
    its direction, an undirected one either direction; undirected KB edges
    hold both ways.
    """
    linked: set[tuple[str, str, str]] = set()
    for edge in kb.edges():
        linked.add((edge.source, edge.target, edge.label))
        if not edge.directed:
            linked.add((edge.target, edge.source, edge.label))
    non_targets = sorted(pattern.non_target_variables)
    candidates = [entity for entity in kb.entities if entity not in (v_start, v_end)]
    results = []
    for assignment in itertools.permutations(candidates, len(non_targets)):
        binding = {START: v_start, END: v_end, **dict(zip(non_targets, assignment))}
        if all(
            (binding[edge.source], binding[edge.target], edge.label) in linked
            or (
                not edge.directed
                and (binding[edge.target], binding[edge.source], edge.label) in linked
            )
            for edge in pattern.edges
        ):
            results.append(binding)
    return sorted(results, key=lambda mapping: sorted(mapping.items()))


@pytest.mark.parametrize("seed", range(NUM_RANDOM_KBS))
class TestIndexedGraphEquivalence:
    def test_filtered_neighbors_match_reference(self, seed):
        kb = random_kb(seed)
        for entity in kb.entities:
            reference = reference_neighbors(kb, entity)
            full = [
                (entry.neighbor, entry.label, entry.orientation)
                for entry in kb.neighbors(entity)
            ]
            assert sorted(full) == sorted(reference)
            for label, _ in LABELS:
                for orientation in ("out", "in", "undirected"):
                    indexed = sorted(
                        entry.neighbor
                        for entry in kb.neighbors(entity, label, orientation)
                    )
                    expected = sorted(
                        neighbor
                        for neighbor, entry_label, entry_orientation in reference
                        if entry_label == label and entry_orientation == orientation
                    )
                    assert indexed == expected
                    assert sorted(kb.neighbor_ids(entity, label, orientation)) == expected

    def test_has_edge_matches_reference(self, seed):
        kb = random_kb(seed)
        rng = random.Random(seed * 7 + 1)
        entities = list(kb.entities)
        for _ in range(60):
            source, target = rng.choice(entities), rng.choice(entities)
            label, _ = rng.choice(LABELS)
            direction = rng.choice(["out", "in", "any"])
            assert kb.has_edge(source, target, label, direction) == reference_has_edge(
                kb, source, target, label, direction
            )

    def test_degree_and_label_counts_match_reference(self, seed):
        kb = random_kb(seed)
        for entity in kb.entities:
            assert kb.degree(entity) == len(reference_neighbors(kb, entity))
        counts: dict[str, int] = {}
        for edge in kb.edges():
            counts[edge.label] = counts.get(edge.label, 0) + 1
        assert dict(kb.label_counts()) == counts
        for label, count in counts.items():
            assert kb.label_count(label) == count


@pytest.mark.parametrize("seed", range(NUM_RANDOM_KBS))
class TestMatcherEquivalence:
    def test_indexed_matcher_matches_brute_force(self, seed):
        kb = random_kb(seed)
        pattern = random_pattern(seed)
        rng = random.Random(seed * 13 + 3)
        entities = list(kb.entities)
        for _ in range(4):
            v_start, v_end = rng.sample(entities, 2)
            indexed = [
                dict(instance.items())
                for instance in match_pattern(kb, pattern, v_start, v_end)
            ]
            indexed = sorted(indexed, key=lambda mapping: sorted(mapping.items()))
            assert indexed == reference_matches(kb, pattern, v_start, v_end)


@pytest.mark.parametrize("seed", range(NUM_RANDOM_KBS))
class TestBatchedSweepEquivalence:
    def test_sweep_matches_per_start_bindings(self, seed):
        """The batched evaluator equals one lazy evaluation per start entity."""
        kb = random_kb(seed)
        pattern = random_pattern(seed)
        starts = list(kb.entities)
        sweep = sweep_local_count_distributions(kb, pattern, starts)
        expected_counts: dict[str, dict[str, int]] = {}
        expected_bindings = 0
        for start in starts:
            per_end: dict[str, int] = {}
            for binding in iter_pattern_bindings(kb, pattern, {START: start}):
                expected_bindings += 1
                per_end[binding[END]] = per_end.get(binding[END], 0) + 1
            if per_end:
                expected_counts[start] = per_end
        assert sweep.counts == expected_counts
        assert sweep.bindings_enumerated == expected_bindings

    def test_sweep_variable_sets_match_per_start_bindings(self, seed):
        kb = random_kb(seed)
        pattern = random_pattern(seed)
        starts = list(kb.entities)
        sweep = sweep_local_count_distributions(
            kb, pattern, starts, collect_variable_sets=True
        )
        expected: dict[tuple[str, str], dict[str, set[str]]] = {}
        for start in starts:
            for binding in iter_pattern_bindings(kb, pattern, {START: start}):
                group = expected.setdefault((start, binding[END]), {})
                for variable, entity in binding.items():
                    group.setdefault(variable, set()).add(entity)
        assert sweep.variable_sets == expected

    def test_local_aggregates_match_naive_grouping(self, seed):
        """Both aggregates equal the naive per-binding grouping, per start."""
        kb = random_kb(seed)
        pattern = random_pattern(seed)
        for aggregate in ("count", "monocount"):
            for v_start in kb.entities:
                naive_counts: dict[str, int] = {}
                naive_sets: dict[str, dict[str, set[str]]] = {}
                for binding in iter_pattern_bindings(kb, pattern, {START: v_start}):
                    end = binding[END]
                    if end == v_start:
                        continue
                    naive_counts[end] = naive_counts.get(end, 0) + 1
                    sets = naive_sets.setdefault(end, {})
                    for variable, entity in binding.items():
                        sets.setdefault(variable, set()).add(entity)
                if aggregate == "count":
                    expected = {
                        end: float(count) for end, count in naive_counts.items()
                    }
                else:
                    expected = {}
                    for end, count in naive_counts.items():
                        non_target = {
                            variable: entities
                            for variable, entities in naive_sets[end].items()
                            if variable not in (START, END)
                        }
                        if not non_target:
                            expected[end] = 1.0 if count else 0.0
                        else:
                            expected[end] = float(
                                min(len(entities) for entities in non_target.values())
                            )
                assert (
                    local_aggregate_distribution(kb, pattern, v_start, aggregate)
                    == expected
                )

    def test_duplicate_starts_do_not_double_count(self, seed):
        kb = random_kb(seed)
        pattern = random_pattern(seed)
        starts = list(kb.entities)
        once = sweep_local_count_distributions(kb, pattern, starts)
        doubled = sweep_local_count_distributions(kb, pattern, starts + starts)
        assert doubled.counts == once.counts
        assert doubled.bindings_enumerated == once.bindings_enumerated

    def test_qualifying_counts_match_per_start_bindings(self, seed):
        """The pruned position query equals the naive grouping of bindings.

        Without a bound the count is exact; with one, evaluation may stop
        early, and then the count is a lower bound that already exceeds it.
        """
        kb = random_kb(seed)
        pattern = random_pattern(seed)
        rng = random.Random(seed * 23 + 9)
        for v_start in kb.entities:
            per_end: dict[str, int] = {}
            total = 0
            for binding in iter_pattern_bindings(kb, pattern, {START: v_start}):
                total += 1
                per_end[binding[END]] = per_end.get(binding[END], 0) + 1
            for threshold in (0.0, 1.0, 2.5):
                exclude = rng.choice(list(kb.entities))
                expected = sum(
                    1
                    for end, count in per_end.items()
                    if end != v_start and end != exclude and count > threshold
                )
                qualifying, exact, bindings = count_qualifying_end_entities(
                    kb, pattern, v_start, threshold, exclude_end=exclude
                )
                assert (qualifying, exact, bindings) == (expected, True, total)
                for bound in (0, 1, 2):
                    qualifying, exact, bindings = count_qualifying_end_entities(
                        kb, pattern, v_start, threshold,
                        exclude_end=exclude, bound=bound,
                    )
                    if exact:
                        assert (qualifying, bindings) == (expected, total)
                    else:
                        assert bound < qualifying <= expected
                        assert bindings <= total


class TestDistributionAccelerators:
    @pytest.mark.parametrize("seed", range(NUM_RANDOM_KBS))
    def test_position_matches_linear_scan(self, seed):
        rng = random.Random(seed * 17 + 11)
        values = [float(rng.randint(0, 6)) for _ in range(rng.randint(0, 40))]
        distribution = Distribution.from_values(values)
        probes = values + [-1.0, 0.5, 3.5, 100.0]
        for probe in probes:
            expected = sum(1 for value in values if value > probe)
            assert distribution.position(probe) == expected

    @pytest.mark.parametrize("seed", range(NUM_RANDOM_KBS))
    def test_moments_match_two_pass_formulas(self, seed):
        import math

        rng = random.Random(seed * 19 + 7)
        values = [float(rng.randint(0, 9)) for _ in range(rng.randint(1, 30))]
        distribution = Distribution.from_values(values)
        mean = sum(values) / len(values)
        variance = sum((value - mean) ** 2 for value in values) / len(values)
        assert distribution.total_pairs == len(values)
        assert distribution.mean() == pytest.approx(mean)
        assert distribution.standard_deviation() == pytest.approx(math.sqrt(variance))
