"""Tests for the KnowledgeBase labelled multigraph."""

from __future__ import annotations

import pytest

from repro.errors import KnowledgeBaseError, UnknownEntityError
from repro.kb.graph import Edge, KnowledgeBase
from repro.kb.schema import Schema


class TestEdge:
    def test_undirected_equality_ignores_order(self):
        left = Edge("a", "b", "spouse", directed=False)
        right = Edge("b", "a", "spouse", directed=False)
        assert left == right
        assert hash(left) == hash(right)

    def test_directed_equality_respects_order(self):
        assert Edge("a", "b", "likes") != Edge("b", "a", "likes")

    def test_other_endpoint(self):
        edge = Edge("a", "b", "likes")
        assert edge.other("a") == "b"
        assert edge.other("b") == "a"

    def test_other_rejects_non_endpoint(self):
        with pytest.raises(KnowledgeBaseError):
            Edge("a", "b", "likes").other("c")


class TestConstruction:
    def test_add_entity_and_membership(self):
        kb = KnowledgeBase()
        kb.add_entity("x", entity_type="person")
        assert "x" in kb
        assert kb.has_entity("x")
        assert kb.entity_type("x") == "person"

    def test_add_entity_rejects_empty_id(self):
        with pytest.raises(KnowledgeBaseError):
            KnowledgeBase().add_entity("")

    def test_re_adding_entity_keeps_type(self):
        kb = KnowledgeBase()
        kb.add_entity("x", entity_type="person")
        kb.add_entity("x")
        assert kb.entity_type("x") == "person"

    def test_re_adding_entity_fills_missing_type(self):
        kb = KnowledgeBase()
        kb.add_entity("x")
        kb.add_entity("x", entity_type="movie")
        assert kb.entity_type("x") == "movie"

    def test_add_edge_creates_endpoints(self):
        kb = KnowledgeBase()
        kb.add_edge("m", "p", "starring")
        assert kb.num_entities == 2
        assert kb.num_edges == 1

    def test_add_edge_rejects_self_loop(self):
        with pytest.raises(KnowledgeBaseError):
            KnowledgeBase().add_edge("x", "x", "knows")

    def test_add_edge_rejects_empty_label(self):
        with pytest.raises(KnowledgeBaseError):
            KnowledgeBase().add_edge("a", "b", "")

    def test_add_edge_rejects_non_string_arguments(self):
        with pytest.raises(KnowledgeBaseError):
            KnowledgeBase().add_edge(1, "b", "knows")
        with pytest.raises(KnowledgeBaseError):
            KnowledgeBase().add_edge("a", None, "knows")
        with pytest.raises(KnowledgeBaseError):
            KnowledgeBase().add_edge("a", "b", "knows", directed="yes")

    def test_validate_edge_args_is_a_pure_check(self):
        kb = KnowledgeBase()
        kb.validate_edge_args("a", "b", "knows", None)  # no exception, no mutation
        assert kb.num_entities == 0
        with pytest.raises(KnowledgeBaseError, match="self-loop"):
            kb.validate_edge_args("a", "a", "knows")

    def test_duplicate_edges_are_ignored(self):
        kb = KnowledgeBase()
        kb.add_edge("m", "p", "starring")
        kb.add_edge("m", "p", "starring")
        assert kb.num_edges == 1

    def test_duplicate_undirected_edge_either_order(self):
        kb = KnowledgeBase()
        kb.add_edge("a", "b", "spouse", directed=False)
        kb.add_edge("b", "a", "spouse", directed=False)
        assert kb.num_edges == 1

    def test_directionality_comes_from_schema(self):
        schema = Schema()
        schema.declare_relation("spouse", directed=False)
        kb = KnowledgeBase(schema=schema)
        edge = kb.add_edge("a", "b", "spouse")
        assert edge.directed is False

    def test_unknown_label_is_auto_registered_as_directed(self):
        kb = KnowledgeBase()
        edge = kb.add_edge("a", "b", "new_rel")
        assert edge.directed is True
        assert kb.schema.is_directed("new_rel") is True

    def test_add_edges_bulk(self):
        kb = KnowledgeBase()
        kb.add_edges([("a", "b", "r1"), ("b", "c", "r2")])
        assert kb.num_edges == 2


class TestQueries:
    def test_degree_counts_each_undirected_edge_once(self, triangle_kb):
        assert triangle_kb.degree("a") == 3  # knows, likes (incoming), works_at

    def test_degree_unknown_entity_raises(self, triangle_kb):
        with pytest.raises(UnknownEntityError):
            triangle_kb.degree("ghost")

    def test_neighbors_include_orientation(self, triangle_kb):
        entries = {
            (entry.neighbor, entry.label, entry.orientation)
            for entry in triangle_kb.neighbors("a")
        }
        assert ("b", "knows", "undirected") in entries
        assert ("c", "likes", "in") in entries
        assert ("org", "works_at", "out") in entries

    def test_has_edge_directions(self, triangle_kb):
        assert triangle_kb.has_edge("c", "a", "likes", "out")
        assert not triangle_kb.has_edge("a", "c", "likes", "out")
        assert triangle_kb.has_edge("a", "c", "likes", "in")
        assert triangle_kb.has_edge("a", "c", "likes", "any")

    def test_has_edge_undirected_matches_all_directions(self, triangle_kb):
        for direction in ("out", "in", "any"):
            assert triangle_kb.has_edge("a", "b", "knows", direction)
            assert triangle_kb.has_edge("b", "a", "knows", direction)

    def test_has_edge_unknown_entities_is_false(self, triangle_kb):
        assert not triangle_kb.has_edge("ghost", "a", "knows")

    def test_entities_of_type(self):
        kb = KnowledgeBase()
        kb.add_entity("p1", "person")
        kb.add_entity("m1", "movie")
        kb.add_entity("p2", "person")
        assert kb.entities_of_type("person") == ["p1", "p2"]

    def test_relation_labels_and_counts(self, triangle_kb):
        assert set(triangle_kb.relation_labels()) == {"knows", "likes", "works_at"}
        counts = triangle_kb.label_counts()
        assert counts["likes"] == 2
        assert counts["knows"] == 1

    def test_density(self):
        kb = KnowledgeBase()
        assert kb.density() == 0.0
        kb.add_edge("a", "b", "r")
        assert kb.density() == pytest.approx(1.0)

    def test_len_matches_num_entities(self, triangle_kb):
        assert len(triangle_kb) == triangle_kb.num_entities == 4


class TestExportAndCopy:
    def test_to_networkx_roundtrips_edge_count(self, triangle_kb):
        graph = triangle_kb.to_networkx()
        # Undirected "knows" edge becomes two anti-parallel directed edges.
        assert graph.number_of_edges() == triangle_kb.num_edges + 1
        assert set(graph.nodes) == set(triangle_kb.entities)

    def test_copy_is_deep(self, triangle_kb):
        clone = triangle_kb.copy()
        clone.add_edge("new", "a", "likes")
        assert not triangle_kb.has_entity("new")
        assert clone.num_edges == triangle_kb.num_edges + 1

    def test_copy_preserves_entity_types(self, paper_kb):
        clone = paper_kb.copy()
        assert clone.entity_type("brad_pitt") == "person"
        assert clone.num_edges == paper_kb.num_edges
