"""Tests for the conjunctive evaluation of patterns (Section 5.3.2)."""

from __future__ import annotations

import pytest

from repro.core.matcher import count_matches
from repro.core.pattern import END, START, ExplanationPattern, PatternEdge
from repro.errors import RelationalError
from repro.kb.sql import (
    count_qualifying_end_entities,
    iter_pattern_bindings,
    pattern_bindings,
    sweep_local_count_distributions,
)
from repro.measures.distributional import local_aggregate_distribution


def costar() -> ExplanationPattern:
    return ExplanationPattern.from_edges(
        [PatternEdge("?v0", START, "starring"), PatternEdge("?v0", END, "starring")]
    )


class TestPatternBindings:
    def test_requires_start_binding(self, paper_kb):
        with pytest.raises(RelationalError):
            pattern_bindings(paper_kb, costar(), {END: "angelina_jolie"})

    def test_rejects_fixed_variable_outside_pattern(self, paper_kb):
        with pytest.raises(RelationalError):
            pattern_bindings(
                paper_kb, costar(), {START: "brad_pitt", "?v9": "titanic"}
            )

    def test_unknown_fixed_entity_yields_nothing(self, paper_kb):
        assert pattern_bindings(paper_kb, costar(), {START: "ghost"}) == []

    def test_free_end_enumerates_costars(self, paper_kb):
        bindings = pattern_bindings(paper_kb, costar(), {START: "brad_pitt"})
        ends = {binding[END] for binding in bindings}
        assert "angelina_jolie" in ends
        assert "george_clooney" in ends
        assert "brad_pitt" not in ends

    def test_fixed_both_targets_matches_matcher(self, paper_kb):
        bindings = pattern_bindings(
            paper_kb, costar(), {START: "brad_pitt", END: "angelina_jolie"}
        )
        assert len(bindings) == count_matches(
            paper_kb, costar(), "brad_pitt", "angelina_jolie"
        )

    def test_bindings_are_injective(self, paper_kb):
        pattern = ExplanationPattern.from_edges(
            [
                PatternEdge("?v0", START, "starring"),
                PatternEdge("?v0", "?v1", "director"),
                PatternEdge("?v1", END, "award_won"),
            ]
        )
        for binding in iter_pattern_bindings(paper_kb, pattern, {START: "kate_winslet"}):
            assert len(set(binding.values())) == len(binding)

    def test_non_injective_allowed_when_disabled(self, paper_kb):
        pattern = ExplanationPattern.from_edges(
            [
                PatternEdge("?v0", START, "starring"),
                PatternEdge("?v1", START, "starring"),
                PatternEdge("?v0", END, "starring"),
                PatternEdge("?v1", END, "starring"),
            ]
        )
        strict = pattern_bindings(
            paper_kb, pattern, {START: "kate_winslet", END: "leonardo_dicaprio"}
        )
        loose = pattern_bindings(
            paper_kb,
            pattern,
            {START: "kate_winslet", END: "leonardo_dicaprio"},
            injective=False,
        )
        assert len(loose) > len(strict)

    def test_disconnected_pattern_rejected(self, paper_kb):
        pattern = ExplanationPattern(
            {START, END, "?v0", "?v1"},
            [
                PatternEdge(START, END, "partner", directed=False),
                PatternEdge("?v0", "?v1", "director"),
            ],
        )
        with pytest.raises(RelationalError):
            pattern_bindings(paper_kb, pattern, {START: "brad_pitt"})


class TestPositionQuery:
    """The grouped Section 5.3.2 query: counts per end entity, HAVING, LIMIT."""

    def test_counts_per_end_entity(self, paper_kb):
        counts = sweep_local_count_distributions(
            paper_kb, costar(), ["brad_pitt"]
        ).counts["brad_pitt"]
        assert counts["angelina_jolie"] == 2  # mr_and_mrs_smith + by_the_sea
        assert counts["george_clooney"] == 2  # oceans eleven + twelve
        assert counts["julia_roberts"] == 3

    def test_having_threshold(self, paper_kb):
        qualifying, exact, _ = count_qualifying_end_entities(
            paper_kb, costar(), "brad_pitt", threshold=2
        )
        assert (qualifying, exact) == (1, True)  # only julia_roberts

    def test_limit_stops_early(self, paper_kb):
        qualifying, exact, _ = count_qualifying_end_entities(
            paper_kb, costar(), "brad_pitt", threshold=0, bound=1
        )
        assert not exact
        assert qualifying == 2  # stopped as soon as the bound was exceeded

    def test_start_entity_never_counted(self, paper_kb):
        values = local_aggregate_distribution(paper_kb, costar(), "brad_pitt")
        assert "brad_pitt" not in values
        assert values["julia_roberts"] == 3.0
