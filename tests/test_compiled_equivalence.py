"""The compiled kernels against independent oracles on generator KBs.

Every read kernel — pattern matching, path enumeration, the union's merge
kernel, the distributional sweeps — runs on the compiled CSR view, whether
the caller passes a plain knowledge base or a compiled one.  These tests pin
those kernels to oracles that read only the plain KB's own API, over seeded
:mod:`repro.workloads` generator knowledge bases:

* NaiveEnum (Algorithm 1) on the plain KB finds the same explanations, with
  the same instances, as every PathEnum × PathUnion combination;
* the matcher, including ``limit=`` prefixes, equals the brute-force
  ``reference_matches``;
* sweeps, position counts and the pruned position query equal the grouping
  of :func:`~repro.kb.sql.iter_pattern_bindings` per start entity;
* the pruned local- and global-position rankers equal Algorithm 5 with the
  served local-dist and global-dist measures;
* those measures' count-aggregate scores, tallied in handle space, equal
  ``Distribution.position`` of the decoded distributions that define them,
  on plain KBs and on overlay views after writes.

The facade on a plain KB ranks exactly as on a separately compiled view,
under every served measure.  Worker replicas restored from snapshots, the
serving engine, and the pickle hygiene of the merge kernel's caches are
checked against the plain facade, and answers must not depend on the order
in which one process was asked for them.
"""

from __future__ import annotations

import json
import pickle
import random
from functools import partial

import pytest

from test_indexed_equivalence import reference_matches

from repro import Rex
from repro.core.matcher import match_pattern
from repro.core.pattern import END, START
from repro.datasets.entertainment import small_entertainment_kb
from repro.enumeration.framework import enumerate_explanations
from repro.enumeration.naive import naive_enum
from repro.errors import RexError
from repro.kb.compiled import CompiledKB, OverlayCompiledKB
from repro.kb.sql import (
    count_qualifying_end_entities,
    iter_pattern_bindings,
    sweep_local_count_distributions,
    sweep_position_count,
)
from repro.measures.distributional import (
    GlobalDistributionMeasure,
    LocalDistributionMeasure,
    local_aggregate_distribution,
)
from repro.parallel.snapshot import kb_from_payload, kb_to_payload
from repro.ranking.distributional_pruning import (
    rank_by_global_position,
    rank_by_local_position,
)
from repro.ranking.general import rank_explanations
from repro.service import ExplanationEngine
from repro.service.serialize import ranked_to_dict
from repro.workloads import bipartite_kb, clustered_kb, scale_free_kb

SIZE_LIMIT = 4

#: (generator name, factory) — small knobs so the whole matrix stays fast.
WORKLOADS = [
    (
        "scale-free",
        lambda seed: scale_free_kb(num_entities=48, attach_per_entity=2, seed=seed),
    ),
    (
        "bipartite",
        lambda seed: bipartite_kb(
            num_entities=40, num_attributes=10, attributes_per_entity=3, seed=seed
        ),
    ),
    (
        "clustered",
        lambda seed: clustered_kb(
            num_communities=3,
            community_size=12,
            intra_degree=3,
            inter_edges=10,
            seed=seed,
        ),
    ),
    # Few attributes and labels: plane rows longer than the sweep kernel's
    # inline-count cutoff, so its C-level row fold runs too.
    (
        "hub",
        lambda seed: bipartite_kb(
            num_entities=40,
            num_attributes=4,
            attributes_per_entity=2,
            num_labels=2,
            seed=seed,
        ),
    ),
]

SEEDS = [0, 1, 2]


def _distinct_neighbors(kb, entity: str) -> list[str]:
    """Neighbouring entity ids of ``entity``, once each, in adjacency order."""
    return list(dict.fromkeys(entry.neighbor for entry in kb.neighbors(entity)))


def _connected_pairs(kb, seed: int, count: int) -> list[tuple[str, str]]:
    """Deterministic connected entity pairs (share at least one neighbour)."""
    rng = random.Random(seed * 77 + 3)
    entities = list(kb.entities)
    pairs: list[tuple[str, str]] = []
    attempts = 0
    while len(pairs) < count and attempts < 500:
        attempts += 1
        start = entities[rng.randrange(len(entities))]
        hop = _distinct_neighbors(kb, start)
        if not hop:
            continue
        middle = hop[rng.randrange(len(hop))]
        two_hop = _distinct_neighbors(kb, middle)
        end = two_hop[rng.randrange(len(two_hop))]
        if end != start and (start, end) not in pairs:
            pairs.append((start, end))
    return pairs


def _render_ranked(ranked) -> str:
    return json.dumps(
        [ranked_to_dict(entry, rank) for rank, entry in enumerate(ranked, start=1)],
        sort_keys=True,
    )


def _instance_signature(pattern, instance) -> frozenset:
    """The KB subgraph an instance binds; isomorphic patterns agree on it."""
    mapping = instance.mapping
    edges = set()
    for edge in pattern.edges:
        source, target = mapping[edge.source], mapping[edge.target]
        if not edge.directed and target < source:
            source, target = target, source
        edges.add((source, target, edge.label, edge.directed))
    return frozenset(edges)


def _by_canonical_key(explanations) -> dict:
    """Canonical key -> (instance count, set of instance subgraphs)."""
    keyed = {
        explanation.pattern.canonical_key: (
            explanation.num_instances,
            frozenset(
                _instance_signature(explanation.pattern, instance)
                for instance in explanation.instances
            ),
        )
        for explanation in explanations
    }
    assert len(keyed) == len(explanations), "duplicate (isomorphic) patterns"
    return keyed


def _reference_groups(kb, pattern, starts) -> tuple[dict, dict, int]:
    """Per-start grouping of ``iter_pattern_bindings``: the sweep oracle.

    Returns ``(counts, variable_sets, bindings)`` shaped like a
    :class:`~repro.kb.sql.SweepResult`; duplicate starts count once.
    """
    counts: dict[str, dict[str, int]] = {}
    variable_sets: dict[tuple[str, str], dict[str, set[str]]] = {}
    bindings = 0
    for start in dict.fromkeys(starts):
        per_end: dict[str, int] = {}
        for binding in iter_pattern_bindings(kb, pattern, {START: start}):
            bindings += 1
            end = binding[END]
            per_end[end] = per_end.get(end, 0) + 1
            group = variable_sets.setdefault((start, end), {})
            for variable, entity in binding.items():
                group.setdefault(variable, set()).add(entity)
        if per_end:
            counts[start] = per_end
    return counts, variable_sets, bindings


def _qualifying(per_end: dict, start: str, exclude: str, threshold: float) -> int:
    return sum(
        1
        for end, count in per_end.items()
        if end != start and end != exclude and count > threshold
    )


@pytest.fixture(params=[(kind, seed) for kind, _ in WORKLOADS for seed in SEEDS],
                ids=lambda p: f"{p[0]}-{p[1]}", scope="module")
def workload(request):
    kind, seed = request.param
    return dict(WORKLOADS)[kind](seed), seed


class TestEnumerationOracle:
    #: At size 5 a merge can leave variables unmatched on both sides, which
    #: is where the instance join's injectivity checks matter.  NaiveEnum on
    #: the clustered KB costs seconds per pair there, so it stays at 4.
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "kind, size_limit",
        [("scale-free", 5), ("bipartite", 5), ("clustered", 4), ("hub", 5)],
    )
    def test_every_path_union_combination_matches_naive_enum(
        self, kind, size_limit, seed
    ):
        kb = dict(WORKLOADS)[kind](seed)
        pairs = _connected_pairs(kb, seed, 2)
        assert pairs, "workload produced no connected pairs"
        for v_start, v_end in pairs:
            expected = _by_canonical_key(naive_enum(kb, v_start, v_end, size_limit))
            for path_algorithm in ("naive", "basic", "prioritized"):
                for union_algorithm in ("basic", "prune"):
                    actual = enumerate_explanations(
                        kb, v_start, v_end, size_limit=size_limit,
                        path_algorithm=path_algorithm, union_algorithm=union_algorithm,
                    )
                    assert _by_canonical_key(actual.explanations) == expected, (
                        v_start, v_end, path_algorithm, union_algorithm,
                    )

    def test_matcher_matches_brute_force_including_limit_prefixes(self, workload):
        kb, seed = workload
        for v_start, v_end in _connected_pairs(kb, seed, 2):
            explanations = enumerate_explanations(
                kb, v_start, v_end, size_limit=SIZE_LIMIT
            ).explanations
            for explanation in explanations[:8]:
                pattern = explanation.pattern
                full = [
                    dict(instance.items())
                    for instance in match_pattern(kb, pattern, v_start, v_end)
                ]
                assert sorted(full, key=lambda m: sorted(m.items())) == (
                    reference_matches(kb, pattern, v_start, v_end)
                )
                for limit in (1, 2):
                    prefix = match_pattern(kb, pattern, v_start, v_end, limit=limit)
                    assert [dict(i.items()) for i in prefix] == full[:limit]


class TestSweepOracle:
    def test_sweeps_and_position_counts_match_bindings(self, workload):
        kb, seed = workload
        pairs = _connected_pairs(kb, seed, 1)
        rng = random.Random(seed)
        starts = rng.sample(list(kb.entities), min(20, kb.num_entities))
        for v_start, v_end in pairs:
            explanations = enumerate_explanations(
                kb, v_start, v_end, size_limit=SIZE_LIMIT
            ).explanations
            sweep_starts = starts + [v_start, starts[0]]  # own start + a duplicate
            for explanation in explanations[:10]:
                pattern = explanation.pattern
                counts, variable_sets, bindings = _reference_groups(
                    kb, pattern, sweep_starts
                )
                swept = sweep_local_count_distributions(kb, pattern, sweep_starts)
                assert (swept.counts, swept.bindings_enumerated) == (counts, bindings)
                assert swept.variable_sets is None
                collected = sweep_local_count_distributions(
                    kb, pattern, sweep_starts, collect_variable_sets=True
                )
                assert collected.counts == counts
                assert collected.variable_sets == variable_sets
                for own_count in (0.0, 1.0, 2.0):
                    position = sum(
                        _qualifying(
                            per_end, start, v_end if start == v_start else None,
                            own_count,
                        )
                        for start, per_end in counts.items()
                    )
                    assert sweep_position_count(
                        kb, pattern, sweep_starts, own_count, v_start, v_end
                    ) == (position, bindings)

    def test_position_query_matches_bindings(self, workload):
        kb, seed = workload
        for v_start, v_end in _connected_pairs(kb, seed, 1):
            explanations = enumerate_explanations(
                kb, v_start, v_end, size_limit=SIZE_LIMIT
            ).explanations
            for explanation in explanations[:10]:
                pattern = explanation.pattern
                counts, _, bindings = _reference_groups(kb, pattern, [v_start])
                per_end = counts.get(v_start, {})
                for threshold in (0, 1, 2):
                    expected = _qualifying(per_end, v_start, v_end, threshold)
                    assert count_qualifying_end_entities(
                        kb, pattern, v_start, threshold, exclude_end=v_end
                    ) == (expected, True, bindings)
                    for bound in (0, 2):
                        qualifying, exact, walked = count_qualifying_end_entities(
                            kb, pattern, v_start, threshold,
                            exclude_end=v_end, bound=bound,
                        )
                        if exact:
                            assert (qualifying, walked) == (expected, bindings)
                        else:
                            assert bound < qualifying <= expected
                            assert walked <= bindings


class TestRankingOracle:
    @pytest.mark.parametrize("prune", [True, False])
    @pytest.mark.parametrize(
        "ranker, measure",
        [
            (rank_by_local_position, LocalDistributionMeasure),
            (
                partial(rank_by_global_position, num_samples=15),
                partial(GlobalDistributionMeasure, num_samples=15),
            ),
        ],
        ids=["local", "global"],
    )
    def test_position_ranking_matches_distributional_measure(
        self, workload, ranker, measure, prune
    ):
        """Section 5.3.2's pruned rankers ≡ Algorithm 5 with the served measure."""
        kb, seed = workload
        for v_start, v_end in _connected_pairs(kb, seed, 1):
            explanations = enumerate_explanations(
                kb, v_start, v_end, size_limit=SIZE_LIMIT
            ).explanations
            via_pruning = ranker(kb, explanations, v_start, v_end, k=5, prune=prune)
            via_measure = rank_explanations(
                kb, v_start, v_end, measure(), k=5, size_limit=SIZE_LIMIT
            )
            assert [
                (entry.explanation.pattern.canonical_key, entry.value)
                for entry in via_pruning.ranked
            ] == [
                (entry.explanation.pattern.canonical_key, entry.value)
                for entry in via_measure.ranked
            ]


class TestHandleSpaceScoring:
    """``raw_value`` of the count-aggregate local-dist and global-dist never
    builds a distribution; the decoded ``distribution()`` and
    ``local_aggregate_distribution`` stay the definition it must equal."""

    @staticmethod
    def _assert_scores_match_decoded(kb, pairs, num_samples: int) -> int:
        local = LocalDistributionMeasure()
        pooled = GlobalDistributionMeasure(num_samples=num_samples)
        entities = list(kb.entities)
        checked = 0
        for v_start, v_end in pairs:
            explanations = enumerate_explanations(
                kb, v_start, v_end, size_limit=SIZE_LIMIT
            ).explanations
            assert explanations
            other = entities[0] if entities[0] != v_start else entities[1]
            # the pair itself, its reverse, and a pair the pattern may not
            # connect (own count 0)
            for start, end in ((v_start, v_end), (v_end, v_start), (v_start, other)):
                for explanation in explanations:
                    own = local_aggregate_distribution(
                        kb, explanation.pattern, start
                    ).get(end, 0.0)
                    for measure in (local, pooled):
                        expected = measure.distribution(kb, explanation, start).position(own)
                        actual = measure.raw_value(kb, explanation, start, end)
                        assert actual == float(expected), (
                            start, end, repr(explanation.pattern), measure.name,
                        )
                        checked += 1
        return checked

    @pytest.mark.parametrize("num_samples", [5, 15, 100])
    def test_scores_equal_decoded_positions(self, workload, num_samples):
        kb, seed = workload
        assert self._assert_scores_match_decoded(
            kb, _connected_pairs(kb, seed, 1), num_samples
        )

    def test_scores_equal_decoded_positions_on_overlay_views(self):
        """Engine writes that add entities and labels: the served overlay view's
        membership tables and sample handles cover the new entities."""
        kb = clustered_kb(
            num_communities=3, community_size=12, intra_degree=3, inter_edges=10, seed=4
        )
        entities = list(kb.entities)
        engine = ExplanationEngine(
            kb.copy(), size_limit=SIZE_LIMIT, delta_compact_edges=10_000
        )
        try:
            engine.add_edges(
                [
                    {"source": entities[0], "target": "written_1", "label": "rel0"},
                    {"source": "written_1", "target": entities[5], "label": "written_rel"},
                    {"source": entities[5], "target": entities[9], "label": "written_rel"},
                    {"source": entities[2], "target": entities[7], "label": "rel1"},
                ]
            )
            engine.add_edges(
                [
                    {"source": entities[9], "target": "written_2", "label": "written_rel"},
                    {"source": "written_2", "target": "written_1", "label": "rel2"},
                    {"source": entities[0], "target": entities[9], "label": "rel0"},
                ]
            )
            view = engine.kb
            assert isinstance(view, OverlayCompiledKB)
            pairs = [
                (entities[0], entities[5]),
                ("written_1", entities[9]),
                (entities[5], "written_2"),
            ]
            for num_samples in (5, 15, 100):
                assert self._assert_scores_match_decoded(view, pairs, num_samples)
        finally:
            engine.close()


class TestRankingEquivalence:
    @pytest.mark.parametrize(
        "measure",
        [
            "count",
            "size",
            "monocount",
            "size+monocount",
            "local-dist",
            "global-dist",
            # Fewer samples than entities, so the draw depends on the order
            # of the KB's entity list.
            pytest.param(GlobalDistributionMeasure(num_samples=15), id="global-dist-15"),
            "random-walk",
            "size+local-dist",
        ],
    )
    def test_facade_rankings_identical(self, workload, measure):
        """A plain KB reaches the kernels through ``compile_kb``'s cache while
        the measures read its own API (global-dist samples from its entity
        list); the facade must rank exactly as on a separately compiled view."""
        kb, seed = workload
        compiled = CompiledKB.compile(kb)
        rex_plain = Rex(kb, size_limit=SIZE_LIMIT)
        rex_compiled = Rex(compiled, size_limit=SIZE_LIMIT)
        for v_start, v_end in _connected_pairs(kb, seed, 2):
            expected = rex_plain.explain(v_start, v_end, measure=measure, k=5)
            actual = rex_compiled.explain(v_start, v_end, measure=measure, k=5)
            assert _render_ranked(actual) == _render_ranked(expected), (
                v_start, v_end, measure,
            )


class TestPickleHygiene:
    def test_merge_kernel_caches_never_cross_the_process_boundary(self, workload):
        """Explanations produced by the union carry the merge kernel's
        per-explanation constants, assignment sets included; pickling — what
        the executor's result path does — must strip those bulky caches
        while preserving the explanation value.  The canonical key the union
        sets on every merged pattern is value-derived and travels along."""
        kb, seed = workload
        pairs = _connected_pairs(kb, seed, 1)
        v_start, v_end = pairs[0]
        explanations = enumerate_explanations(
            kb, v_start, v_end, size_limit=SIZE_LIMIT
        ).explanations
        assert any(
            "_merge_info" in explanation.__dict__ for explanation in explanations
        ), "the union did not populate the caches this test guards"
        restored = pickle.loads(pickle.dumps(explanations))
        for original, copy in zip(explanations, restored):
            assert "_merge_info" not in copy.__dict__
            assert "_assignment_cache" not in copy.__dict__
            assert copy.pattern == original.pattern
            assert copy.pattern.__dict__.get("canonical_key") == (
                original.pattern.__dict__.get("canonical_key")
            )
            assert copy.pattern.canonical_key == original.pattern.canonical_key
            assert copy.instances == original.instances


class TestHistoryIndependence:
    @pytest.mark.parametrize("kind", [kind for kind, _ in WORKLOADS] + ["entertainment"])
    def test_answers_do_not_depend_on_request_order(self, kind):
        """One process answers the same pairs forward, then in reverse: the
        union keeps no state between requests, so every answer renders
        identically whichever requests came before it."""
        if kind == "entertainment":
            kb, seed = small_entertainment_kb(), 0
        else:
            kb, seed = dict(WORKLOADS)[kind](0), 0
        pairs = _connected_pairs(kb, seed, 6)
        rex = Rex(kb, size_limit=5)

        def answers(order):
            return {
                pair: _render_ranked(rex.explain(*pair, measure="size+monocount", k=5))
                for pair in order
            }

        forward = answers(pairs)
        assert any(answer != "[]" for answer in forward.values())
        assert answers(pairs[::-1]) == forward


class TestReplicaAndServingEquivalence:
    def test_snapshot_replica_answers_identically(self, workload):
        kb, seed = workload
        replica, version = kb_from_payload(kb_to_payload(CompiledKB.compile(kb)))
        assert version == kb.version
        pairs = _connected_pairs(kb, seed, 2)
        rex_plain = Rex(kb, size_limit=SIZE_LIMIT)
        rex_replica = Rex(replica, size_limit=SIZE_LIMIT)
        for v_start, v_end in pairs:
            expected = rex_plain.explain(v_start, v_end, k=5)
            actual = rex_replica.explain(v_start, v_end, k=5)
            assert _render_ranked(actual) == _render_ranked(expected)

    def test_engine_serves_plain_facade_results(self, workload):
        """The engine computes on its cached compile; outputs must match the
        plain-KB facade bit for bit."""
        kb, seed = workload
        pairs = _connected_pairs(kb, seed, 2)
        engine = ExplanationEngine(kb.copy(), size_limit=SIZE_LIMIT)
        rex_plain = Rex(kb, size_limit=SIZE_LIMIT)
        try:
            for v_start, v_end in pairs:
                outcome = engine.explain(v_start, v_end, k=5)
                expected = rex_plain.explain(v_start, v_end, k=5)
                assert _render_ranked(outcome.ranked) == _render_ranked(expected)
        finally:
            engine.close()

    def test_engine_parallel_batch_matches_plain_facade(self, workload):
        """Worker replicas (format-2 restores) under REX_PARALLELISM=2 return
        exactly the plain-KB facade's answers, positionally."""
        kb, seed = workload
        pairs = _connected_pairs(kb, seed, 3)
        requests = [
            {"start": start, "end": end, "k": 3, "size_limit": SIZE_LIMIT}
            for start, end in pairs
        ]
        engine = ExplanationEngine(kb.copy(), size_limit=SIZE_LIMIT, parallelism=2)
        rex_plain = Rex(kb, size_limit=SIZE_LIMIT)
        try:
            results = engine.explain_batch(requests)
            for request, result in zip(requests, results):
                assert not isinstance(result, RexError), result
                expected = rex_plain.explain(
                    request["start"], request["end"], k=3, size_limit=SIZE_LIMIT
                )
                assert _render_ranked(result.ranked) == _render_ranked(expected)
        finally:
            engine.close()
