"""Tests for PathUnionBasic / PathUnionPrune (Section 3.3)."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_property_based import build_random_kb

from repro.core.matcher import match_pattern
from repro.core.pattern import END, START
from repro.core.properties import is_minimal
from repro.datasets.paper_example import PAPER_PAIRS
from repro.enumeration.path_enum import path_enum_basic
from repro.enumeration.path_union import (
    PATH_UNION_ALGORITHMS,
    MergeStats,
    PathPostings,
    merge_explanations,
    path_union_basic,
    path_union_prune,
)
from repro.errors import EnumerationError
from repro.measures.combined import size_plus_monocount
from repro.ranking.topk import rank_topk_anti_monotonic


@pytest.fixture(scope="module")
def brad_angelina_paths(paper_kb_module):
    return path_enum_basic(paper_kb_module, "brad_pitt", "angelina_jolie", 4).explanations


@pytest.fixture(scope="module")
def paper_kb_module():
    from repro.datasets.paper_example import paper_example_kb

    return paper_example_kb()


def _pattern_keys(explanations):
    return sorted(explanation.pattern.canonical_key for explanation in explanations)


def _full_signature(explanations):
    return sorted(
        (
            explanation.pattern.canonical_key,
            tuple(
                sorted(
                    tuple(sorted(instance.mapping.values()))
                    for instance in explanation.instances
                )
            ),
        )
        for explanation in explanations
    )


class TestMergeExplanations:
    def test_merge_costar_with_director_path_yields_non_path_pattern(
        self, paper_kb_module, brad_angelina_paths
    ):
        costar = next(
            e
            for e in brad_angelina_paths
            if e.pattern.num_edges == 2 and e.pattern.labels() == {"starring"}
        )
        starring_director = next(
            e
            for e in brad_angelina_paths
            if e.pattern.num_edges == 2
            and e.pattern.labels() == {"starring", "director"}
        )
        merged = merge_explanations(costar, starring_director, size_limit=5)
        assert merged, "expected at least one merged explanation"
        # The 'by_the_sea' movie stars both and is directed by Angelina Jolie,
        # so the merged (non-path) pattern has a witnessing instance.
        non_paths = [e for e in merged if not e.is_path()]
        assert non_paths
        for explanation in merged:
            assert is_minimal(explanation.pattern)
            assert explanation.num_instances > 0

    def test_merge_requires_shared_variable(self, paper_kb_module):
        paths = path_enum_basic(paper_kb_module, "tom_cruise", "nicole_kidman", 2).explanations
        direct = next(e for e in paths if e.pattern.num_edges == 1)
        costar = next(e for e in paths if e.pattern.num_edges == 2)
        # Direct edges have no non-target variable, so no mapping exists.
        assert merge_explanations(direct, costar, size_limit=5) == []
        assert merge_explanations(costar, direct, size_limit=5) == []

    def test_merge_respects_size_limit(self, brad_angelina_paths):
        long_paths = [e for e in brad_angelina_paths if e.pattern.num_edges >= 3]
        if len(long_paths) < 2:
            pytest.skip("need two long paths")
        merged = merge_explanations(long_paths[0], long_paths[1], size_limit=4)
        for explanation in merged:
            assert explanation.pattern.num_nodes <= 4

    def test_merged_instances_match_direct_evaluation(self, paper_kb_module, brad_angelina_paths):
        stats = MergeStats()
        for left in brad_angelina_paths:
            for right in brad_angelina_paths:
                for merged in merge_explanations(left, right, size_limit=5, stats=stats):
                    direct = set(
                        match_pattern(
                            paper_kb_module,
                            merged.pattern,
                            "brad_pitt",
                            "angelina_jolie",
                        )
                    )
                    assert set(merged.instances) == direct
        assert stats.merge_calls > 0

    def test_stats_counters_accumulate(self, brad_angelina_paths):
        stats = MergeStats()
        merge_explanations(brad_angelina_paths[0], brad_angelina_paths[0], 5, stats)
        assert stats.merge_calls == 1
        assert stats.mappings_tried >= 0
        as_dict = stats.as_dict()
        assert set(as_dict) >= {"merge_calls", "mappings_tried", "explanations_produced"}


class TestPathUnionAlgorithms:
    def test_rejects_small_size_limit(self, brad_angelina_paths):
        with pytest.raises(EnumerationError):
            path_union_basic(brad_angelina_paths, size_limit=1)

    def test_rejects_non_path_seeds(self, brad_angelina_paths):
        minimal = path_union_basic(brad_angelina_paths, size_limit=4)
        non_paths = [e for e in minimal if not e.is_path()]
        assert non_paths
        with pytest.raises(EnumerationError):
            path_union_basic(non_paths, size_limit=4)

    def test_seeds_are_included_in_output(self, brad_angelina_paths):
        result = path_union_basic(brad_angelina_paths, size_limit=5)
        result_keys = set(_pattern_keys(result))
        for path in brad_angelina_paths:
            assert path.pattern.canonical_key in result_keys

    def test_all_outputs_are_minimal_with_instances(self, brad_angelina_paths):
        for algorithm in PATH_UNION_ALGORITHMS.values():
            for explanation in algorithm(brad_angelina_paths, 5):
                assert is_minimal(explanation.pattern)
                assert explanation.num_instances > 0
                assert explanation.pattern.num_nodes <= 5

    def test_no_duplicate_patterns_in_output(self, brad_angelina_paths):
        for algorithm in PATH_UNION_ALGORITHMS.values():
            result = algorithm(brad_angelina_paths, 5)
            keys = _pattern_keys(result)
            assert len(keys) == len(set(keys))

    def test_prune_and_basic_agree_exactly(self, brad_angelina_paths):
        basic = path_union_basic(brad_angelina_paths, 5)
        prune = path_union_prune(brad_angelina_paths, 5)
        assert _full_signature(basic) == _full_signature(prune)

    def test_prune_and_basic_agree_on_other_pairs(self, paper_kb_module):
        for pair in [("kate_winslet", "leonardo_dicaprio"), ("james_cameron", "kate_winslet")]:
            paths = path_enum_basic(paper_kb_module, *pair, 4).explanations
            basic = path_union_basic(paths, 5)
            prune = path_union_prune(paths, 5)
            assert _full_signature(basic) == _full_signature(prune)

    def test_prune_performs_no_more_instance_joins_than_basic(self, paper_kb_module):
        paths = path_enum_basic(paper_kb_module, "brad_pitt", "angelina_jolie", 4).explanations
        basic_stats, prune_stats = MergeStats(), MergeStats()
        path_union_basic(paths, 5, basic_stats)
        path_union_prune(paths, 5, prune_stats)
        assert prune_stats.mappings_tried <= basic_stats.mappings_tried

    def test_empty_seed_list_yields_empty_result(self):
        assert path_union_basic([], 5) == []
        assert path_union_prune([], 5) == []

    def test_size_limit_two_keeps_only_direct_edges(self, brad_angelina_paths):
        result = path_union_basic(brad_angelina_paths, 2)
        assert all(explanation.pattern.num_nodes <= 2 for explanation in result)


#: The work counters below, per PAPER_PAIRS pair at size limit 5, as the
#: pairwise merge loop counted them before the postings join replaced it:
#: both unions and the anti-monotonic top-k ranker (size+monocount, k=5).
#: The postings join only stops visiting entity-disjoint pairs, which never
#: yielded a mapping, so every one of these must stay as it was.
COUNTERS = ("mappings_tried", "instance_joins", "explanations_produced", "duplicates_discarded")
RECORDED_COUNTERS = {
    ("brad_pitt", "angelina_jolie"): {
        "basic": (39, 5, 5, 15), "prune": (39, 5, 5, 15), "topk": (36, 20, 20, 0),
    },
    ("kate_winslet", "leonardo_dicaprio"): {
        "basic": (34, 5, 5, 13), "prune": (34, 5, 5, 13), "topk": (34, 18, 18, 0),
    },
    ("tom_cruise", "will_smith"): {
        "basic": (6, 1, 1, 1), "prune": (6, 1, 1, 1), "topk": (6, 2, 2, 0),
    },
    ("james_cameron", "kate_winslet"): {
        "basic": (39, 6, 6, 14), "prune": (39, 6, 6, 14), "topk": (39, 20, 20, 0),
    },
    ("mel_gibson", "helen_hunt"): {
        "basic": (2, 0, 0, 0), "prune": (2, 0, 0, 0), "topk": (2, 0, 0, 0),
    },
}


def _pairwise_masks(left, path) -> list[int]:
    """The overlap masks by definition: one ``isdisjoint`` per variable pair."""
    path_variables = sorted(path.pattern.non_target_variables)
    return [
        sum(
            1 << bit
            for bit, path_variable in enumerate(path_variables)
            if not left.assignments(left_variable).isdisjoint(
                path.assignments(path_variable)
            )
        )
        for left_variable in sorted(left.pattern.non_target_variables)
    ]


def _entities(explanation) -> set[str]:
    """Every entity bound to a non-target variable of ``explanation``."""
    return set().union(
        *(
            explanation.assignments(variable)
            for variable in explanation.pattern.non_target_variables
        )
    )


small_kb_strategy = st.builds(
    build_random_kb,
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=3),
        ),
        min_size=3,
        max_size=12,
    ),
    st.integers(min_value=4, max_value=6),
)


class TestPostingsJoin:
    @settings(
        derandomize=True,
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(small_kb_strategy)
    def test_masks_equal_the_pairwise_definition(self, kb):
        paths = path_enum_basic(kb, "n0", "n1", 3).explanations
        postings = PathPostings(paths, 4)
        for left in path_union_basic(paths, 4):
            masks = postings.overlap_masks(left)
            for path_index, path in enumerate(paths):
                if path_index in masks:
                    assert masks[path_index] == _pairwise_masks(left, path)
                else:
                    # A path the join skips shares no entity with ``left``.
                    assert _entities(left).isdisjoint(_entities(path))

    @pytest.mark.parametrize("pair", PAPER_PAIRS)
    def test_work_counters_match_the_pairwise_loop(self, paper_kb_module, pair):
        paths = path_enum_basic(paper_kb_module, *pair, 4).explanations
        for name, algorithm in (("basic", path_union_basic), ("prune", path_union_prune)):
            stats = MergeStats()
            algorithm(paths, 5, stats)
            counted = tuple(getattr(stats, counter) for counter in COUNTERS)
            assert counted == RECORDED_COUNTERS[pair][name], name
        ranked = rank_topk_anti_monotonic(
            paper_kb_module, *pair, size_plus_monocount(), k=5, size_limit=5
        )
        counted = tuple(ranked.stats["union_" + counter] for counter in COUNTERS)
        assert counted == RECORDED_COUNTERS[pair]["topk"]

    def test_union_visits_only_pairs_that_share_an_entity(self, brad_angelina_paths):
        """``merge_calls`` counts the visited pairs: fewer than every pair."""
        stats = MergeStats()
        result = path_union_basic(brad_angelina_paths, 5, stats)
        every_pair = len(result) * len(brad_angelina_paths)
        sharing = sum(
            1
            for left in result
            for path in brad_angelina_paths
            if not _entities(left).isdisjoint(_entities(path))
        )
        assert stats.merge_calls == sharing < every_pair
