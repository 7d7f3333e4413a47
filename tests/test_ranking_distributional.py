"""Tests for pruned ranking with distribution-based measures (Section 5.3.2)."""

from __future__ import annotations

import pytest

from repro.datasets.paper_example import PAPER_PAIRS
from repro.enumeration.framework import enumerate_explanations
from repro.errors import RankingError
from repro.measures.distributional import (
    GlobalDistributionMeasure,
    LocalDistributionMeasure,
)
from repro.ranking.distributional_pruning import (
    rank_by_global_position,
    rank_by_local_position,
)
from repro.ranking.general import rank_explanations, score_explanations


def _keyed(ranked) -> list[tuple]:
    return [(entry.explanation.pattern.canonical_key, entry.value) for entry in ranked]


class TestLocalPositionRanking:
    def test_rejects_non_positive_k(self, paper_kb, brad_angelina_explanations):
        with pytest.raises(RankingError):
            rank_by_local_position(
                paper_kb, brad_angelina_explanations, "brad_pitt", "angelina_jolie", k=0
            )

    def test_pruned_and_unpruned_agree_on_scores(self, paper_kb, brad_angelina_explanations):
        pruned = rank_by_local_position(
            paper_kb, brad_angelina_explanations, "brad_pitt", "angelina_jolie", k=5, prune=True
        )
        full = rank_by_local_position(
            paper_kb, brad_angelina_explanations, "brad_pitt", "angelina_jolie", k=5, prune=False
        )
        assert [entry.value for entry in pruned.ranked] == [
            entry.value for entry in full.ranked
        ]

    def test_matches_general_framework_with_local_measure(
        self, paper_kb, brad_angelina_explanations
    ):
        via_pruning = rank_by_local_position(
            paper_kb, brad_angelina_explanations, "brad_pitt", "angelina_jolie", k=5, prune=False
        )
        via_measure = score_explanations(
            paper_kb,
            brad_angelina_explanations,
            LocalDistributionMeasure(),
            "brad_pitt",
            "angelina_jolie",
        )[:5]
        assert [entry.value for entry in via_pruning.ranked] == [
            entry.value for entry in via_measure
        ]

    def test_pruning_enumerates_no_more_bindings(self, paper_kb, winslet_dicaprio_explanations):
        pruned = rank_by_local_position(
            paper_kb,
            winslet_dicaprio_explanations,
            "kate_winslet",
            "leonardo_dicaprio",
            k=2,
            prune=True,
        )
        full = rank_by_local_position(
            paper_kb,
            winslet_dicaprio_explanations,
            "kate_winslet",
            "leonardo_dicaprio",
            k=2,
            prune=False,
        )
        assert pruned.stats["bindings_enumerated"] <= full.stats["bindings_enumerated"]

    def test_scores_are_negated_positions(self, paper_kb, brad_angelina_explanations):
        result = rank_by_local_position(
            paper_kb, brad_angelina_explanations, "brad_pitt", "angelina_jolie", k=3, prune=False
        )
        for entry in result.ranked:
            assert entry.value <= 0  # positions are non-negative

    def test_returns_at_most_k(self, paper_kb, brad_angelina_explanations):
        result = rank_by_local_position(
            paper_kb, brad_angelina_explanations, "brad_pitt", "angelina_jolie", k=2
        )
        assert len(result) <= 2

    def test_empty_explanations(self, paper_kb):
        result = rank_by_local_position(paper_kb, [], "brad_pitt", "angelina_jolie", k=3)
        assert len(result) == 0


class TestGlobalPositionRanking:
    def test_pruned_and_unpruned_agree_on_scores(self, paper_kb, brad_angelina_explanations):
        pruned = rank_by_global_position(
            paper_kb,
            brad_angelina_explanations,
            "brad_pitt",
            "angelina_jolie",
            k=3,
            prune=True,
            num_samples=15,
        )
        full = rank_by_global_position(
            paper_kb,
            brad_angelina_explanations,
            "brad_pitt",
            "angelina_jolie",
            k=3,
            prune=False,
            num_samples=15,
        )
        assert [entry.value for entry in pruned.ranked] == [
            entry.value for entry in full.ranked
        ]

    def test_sampling_is_deterministic(self, paper_kb, brad_angelina_explanations):
        first = rank_by_global_position(
            paper_kb, brad_angelina_explanations, "brad_pitt", "angelina_jolie",
            k=3, num_samples=10, seed=42,
        )
        second = rank_by_global_position(
            paper_kb, brad_angelina_explanations, "brad_pitt", "angelina_jolie",
            k=3, num_samples=10, seed=42,
        )
        assert [entry.value for entry in first.ranked] == [
            entry.value for entry in second.ranked
        ]

    def test_global_costs_more_bindings_than_local(self, paper_kb, brad_angelina_explanations):
        local = rank_by_local_position(
            paper_kb, brad_angelina_explanations, "brad_pitt", "angelina_jolie", k=3, prune=False
        )
        global_ = rank_by_global_position(
            paper_kb, brad_angelina_explanations, "brad_pitt", "angelina_jolie",
            k=3, prune=False, num_samples=20,
        )
        assert global_.stats["bindings_enumerated"] > local.stats["bindings_enumerated"]

    @pytest.mark.parametrize("num_samples", [5, 15, 100])
    @pytest.mark.parametrize("prune", [True, False])
    def test_matches_general_framework_with_global_measure(
        self, paper_kb, prune, num_samples
    ):
        """The pruned ranker and the served measure pool the same samples.

        Both estimate the global distribution from the local distributions
        of the sampled start entities only; ``v_start``'s own distribution
        is not pooled.  Same ranked top-k, with and without pruning.
        """
        for v_start, v_end in PAPER_PAIRS:
            explanations = enumerate_explanations(paper_kb, v_start, v_end).explanations
            via_pruning = rank_by_global_position(
                paper_kb, explanations, v_start, v_end,
                k=5, prune=prune, num_samples=num_samples,
            )
            via_measure = rank_explanations(
                paper_kb, v_start, v_end,
                GlobalDistributionMeasure(num_samples=num_samples), k=5,
            )
            assert _keyed(via_pruning.ranked) == _keyed(via_measure.ranked), (
                v_start, v_end,
            )

    def test_pruned_out_counter(self, paper_kb, winslet_dicaprio_explanations):
        pruned = rank_by_global_position(
            paper_kb,
            winslet_dicaprio_explanations,
            "kate_winslet",
            "leonardo_dicaprio",
            k=1,
            prune=True,
            num_samples=10,
        )
        assert pruned.stats["pruned_out"] >= 0
