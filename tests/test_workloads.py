"""Tests for the synthetic workload generators and the request sampler."""

from __future__ import annotations

import pytest

from repro.errors import KnowledgeBaseError
from repro.workloads import (
    GENERATORS,
    bipartite_kb,
    clustered_kb,
    generate_kb,
    sample_connected_pairs,
    sample_request_stream,
    scale_free_kb,
)


def _edge_keys(kb):
    return [edge.key() for edge in kb.edges()]


class TestScaleFree:
    def test_shape_and_size(self):
        kb = scale_free_kb(num_entities=300, attach_per_entity=3, seed=5)
        assert kb.num_entities == 300
        # ~ (300 - 4) * 3 minus dedup collisions
        assert 700 <= kb.num_edges <= 296 * 3
        assert len(kb.relation_labels()) > 1

    def test_deterministic_per_seed(self):
        first = scale_free_kb(num_entities=200, seed=9)
        second = scale_free_kb(num_entities=200, seed=9)
        assert list(first.entities) == list(second.entities)
        assert _edge_keys(first) == _edge_keys(second)

    def test_different_seeds_differ(self):
        first = scale_free_kb(num_entities=200, seed=1)
        second = scale_free_kb(num_entities=200, seed=2)
        assert _edge_keys(first) != _edge_keys(second)

    def test_heavy_tail(self):
        """Preferential attachment must concentrate degree on hubs."""
        kb = scale_free_kb(num_entities=500, attach_per_entity=2, seed=3)
        degrees = sorted((kb.degree(entity) for entity in kb.entities), reverse=True)
        top_share = sum(degrees[:25]) / sum(degrees)
        assert top_share > 0.15, f"no hubs: top-5% share {top_share:.3f}"

    def test_undirected_labels_declared(self):
        kb = scale_free_kb(num_entities=100, num_labels=4, undirected_labels=2, seed=0)
        directed_flags = [kb.schema.is_directed(f"rel{i}") for i in range(4)]
        assert directed_flags == [True, True, False, False]

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            scale_free_kb(num_entities=3, attach_per_entity=3)
        with pytest.raises(ValueError):
            scale_free_kb(num_entities=100, attach_per_entity=0)
        with pytest.raises(ValueError):
            scale_free_kb(num_entities=100, num_labels=2, undirected_labels=3)


class TestBipartite:
    def test_structure(self):
        kb = bipartite_kb(num_entities=150, num_attributes=20, seed=4)
        entities = [e for e in kb.entities if kb.entity_type(e) == "entity"]
        attributes = [e for e in kb.entities if kb.entity_type(e) == "attribute"]
        assert len(entities) == 150 and len(attributes) == 20
        # strictly bipartite: every edge goes entity -> attribute
        for edge in kb.edges():
            assert kb.entity_type(edge.source) == "entity"
            assert kb.entity_type(edge.target) == "attribute"
            assert edge.directed

    def test_popularity_skew(self):
        kb = bipartite_kb(num_entities=300, num_attributes=30, seed=8)
        degrees = {e: kb.degree(e) for e in kb.entities if kb.entity_type(e) == "attribute"}
        assert degrees["a00"] > degrees[max(degrees)]  # a00 is the most popular

    def test_deterministic(self):
        assert _edge_keys(bipartite_kb(seed=2)) == _edge_keys(bipartite_kb(seed=2))


class TestClustered:
    def test_structure(self):
        kb = clustered_kb(num_communities=5, community_size=30, inter_edges=40, seed=6)
        assert kb.num_entities == 150
        intra = inter = 0
        for edge in kb.edges():
            if edge.source[:3] == edge.target[:3]:
                intra += 1
            else:
                inter += 1
        assert intra > inter
        assert inter > 0

    def test_deterministic(self):
        assert _edge_keys(clustered_kb(seed=1)) == _edge_keys(clustered_kb(seed=1))


class TestRegistry:
    def test_generate_by_name(self):
        kb = generate_kb("clustered", num_communities=2, community_size=20, seed=0)
        assert kb.num_entities == 40
        assert set(GENERATORS) == {"scale-free", "bipartite", "clustered"}

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown workload generator"):
            generate_kb("ring")


class TestPairSampling:
    def test_pairs_are_connected_and_distinct(self):
        kb = scale_free_kb(num_entities=300, seed=7)
        pairs = sample_connected_pairs(kb, 20, seed=1)
        assert len(pairs) == len(set(frozenset(p) for p in pairs)) == 20
        for v_start, v_end in pairs:
            assert any(entry.neighbor == v_end for entry in kb.neighbors(v_start))

    def test_hub_bias_raises_mean_degree(self):
        kb = scale_free_kb(num_entities=500, attach_per_entity=2, seed=7)

        def mean_degree(pairs):
            degrees = [kb.degree(a) + kb.degree(b) for a, b in pairs]
            return sum(degrees) / len(degrees)

        uniform = mean_degree(sample_connected_pairs(kb, 30, seed=2, hub_bias=0))
        biased = mean_degree(sample_connected_pairs(kb, 30, seed=2, hub_bias=6))
        assert biased > uniform

    def test_empty_kb_rejected(self):
        from repro.kb.graph import KnowledgeBase

        with pytest.raises(KnowledgeBaseError):
            sample_connected_pairs(KnowledgeBase(), 1)


class TestRequestStream:
    def test_shape_and_determinism(self):
        kb = scale_free_kb(num_entities=300, seed=7)
        stream = sample_request_stream(
            kb, 25, seed=11, unique_pairs=10, size_limit=4, k_choices=(2, 4)
        )
        assert len(stream) == 25
        for request in stream:
            assert kb.has_entity(request["start"]) and kb.has_entity(request["end"])
            assert request["k"] in (2, 4)
            assert request["size_limit"] == 4
            assert request["measure"] == "size+monocount"
        again = sample_request_stream(
            kb, 25, seed=11, unique_pairs=10, size_limit=4, k_choices=(2, 4)
        )
        assert stream == again
        distinct = {(r["start"], r["end"]) for r in stream}
        assert len(distinct) == 10  # every unique pair appears at least once

    def test_rejects_bad_knobs(self):
        kb = scale_free_kb(num_entities=100, seed=0)
        with pytest.raises(ValueError):
            sample_request_stream(kb, 0)
        with pytest.raises(ValueError):
            sample_request_stream(kb, 5, unique_pairs=9)
        with pytest.raises(ValueError):
            sample_request_stream(kb, 5, measures=())
