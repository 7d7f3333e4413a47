"""Tests for pruned ranking with distribution-based measures (Section 5.3.2)."""

from __future__ import annotations

import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.datasets.paper_example import PAPER_PAIRS
from repro.enumeration.framework import enumerate_explanations
from repro.errors import RankingError
from repro.kb.compiled import CompiledKB, extend_compiled
from repro.kb.graph import KnowledgeBase
from repro.measures.distributional import (
    GlobalDistributionMeasure,
    LocalDistributionMeasure,
)
from repro.ranking.distributional_pruning import (
    rank_by_global_position,
    rank_by_local_position,
)
from repro.ranking.general import rank_explanations, score_explanations
from repro.workloads import clustered_kb


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


def _uncached_draw(entities, v_start: str, num_samples: int, seed: int) -> list[str]:
    """The start sample as docs/performance.md defines it, drawn afresh."""
    candidates = [entity for entity in entities if entity != v_start]
    if len(candidates) <= num_samples:
        return candidates
    return random.Random(seed).sample(candidates, num_samples)


@pytest.fixture()
def sample_kb() -> KnowledgeBase:
    return clustered_kb(
        num_communities=4, community_size=12, intra_degree=3, inter_edges=10, seed=5
    )


class TestGlobalSampleDraw:
    """``GlobalDistributionMeasure`` draws once per (view, ``v_start``); every
    draw must still be exactly the uncached definition."""

    NUM_SAMPLES = 15

    def _expected(self, view, v_start: str) -> list[str]:
        return _uncached_draw(view.entities, v_start, self.NUM_SAMPLES, 13)

    def test_draw_follows_v_start(self, sample_kb):
        view = CompiledKB.compile(sample_kb)
        measure = GlobalDistributionMeasure(num_samples=self.NUM_SAMPLES)
        starts = list(view.entities)[:6]
        draws = {}
        for v_start in starts + starts[::-1]:
            draw = measure._sample_starts(view, v_start)
            assert draw == self._expected(view, v_start)
            draws.setdefault(v_start, draw)
        assert len({tuple(draw) for draw in draws.values()}) > 1

    def test_view_that_added_entities_redraws(self, sample_kb):
        kb = sample_kb.copy()
        first = CompiledKB.compile(kb)
        measure = GlobalDistributionMeasure(num_samples=self.NUM_SAMPLES)
        v_start = kb.entities[0]
        before = measure._sample_starts(first, v_start)
        second = extend_compiled(
            first,
            [(kb.entities[index], f"sample_new_{index}", "rel0", None)
             for index in range(5)],
        )
        after = measure._sample_starts(second, v_start)
        assert after == self._expected(second, v_start)
        assert after != before
        # the older view, still held by in-flight readers, keeps its own draw
        assert measure._sample_starts(first, v_start) == before
        # a plain KB that grew is redrawn as well
        plain = sample_kb.copy()
        assert measure._sample_starts(plain, v_start) == before
        plain.add_edge(v_start, "plain_new", "rel0")
        assert measure._sample_starts(plain, v_start) == self._expected(plain, v_start)

    def test_scores_equal_an_uncached_measure(self, sample_kb):
        view = CompiledKB.compile(sample_kb)
        measure = GlobalDistributionMeasure(num_samples=self.NUM_SAMPLES)
        entities = list(view.entities)
        for v_start, v_end in ((entities[0], entities[3]), (entities[13], entities[15])):
            explanations = enumerate_explanations(
                view, v_start, v_end, size_limit=3
            ).explanations
            assert explanations
            for explanation in explanations:
                fresh = GlobalDistributionMeasure(num_samples=self.NUM_SAMPLES)
                assert measure.raw_value(
                    view, explanation, v_start, v_end
                ) == fresh.raw_value(view, explanation, v_start, v_end)

    def test_concurrent_draws_match_the_definition(self, sample_kb):
        kb = sample_kb.copy()
        first = CompiledKB.compile(kb)
        second = extend_compiled(first, [(kb.entities[0], "hammer_new", "rel1", None)])
        views = (first, second)
        starts = list(first.entities)[:10]
        expected = {
            (index, v_start): self._expected(view, v_start)
            for index, view in enumerate(views)
            for v_start in starts
        }
        measure = GlobalDistributionMeasure(num_samples=self.NUM_SAMPLES)
        barrier = threading.Barrier(8, timeout=30)

        def hammer(worker: int) -> list[tuple]:
            barrier.wait()
            mismatches = []
            for round_ in range(200):
                index = (worker + round_) % 2
                v_start = starts[(worker * 7 + round_) % len(starts)]
                draw = measure._sample_starts(views[index], v_start)
                if draw != expected[index, v_start]:
                    mismatches.append((worker, round_, index, v_start))
            return mismatches

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(hammer, range(8), timeout=60))
        finally:
            sys.setswitchinterval(previous)
        assert results == [[]] * 8
