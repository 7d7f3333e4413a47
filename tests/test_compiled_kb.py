"""Unit tests for the compiled array-backed KB core (CSR planes)."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.errors import KnowledgeBaseError, UnknownEntityError
from repro.kb.compiled import _COMPILED_VIEWS, CompiledKB, compile_kb
from repro.kb.graph import KnowledgeBase
from repro.service import ExplanationEngine
from repro.workloads import clustered_kb, scale_free_kb


@pytest.fixture(scope="module")
def source_kb(tiny_synthetic_kb) -> KnowledgeBase:
    return tiny_synthetic_kb


@pytest.fixture(scope="module")
def compiled(source_kb) -> CompiledKB:
    return CompiledKB.compile(source_kb)


class TestReadApiParity:
    def test_entity_tables_mirror_insertion_order(self, source_kb, compiled):
        assert compiled.entities == tuple(source_kb.entities)
        assert compiled.num_entities == source_kb.num_entities
        assert len(compiled) == len(source_kb)
        for entity in source_kb.entities:
            assert compiled.handle_of(entity) == source_kb.handle_of(entity)
            assert compiled.entity_of(compiled.handle_of(entity)) == entity
            assert compiled.entity_type(entity) == source_kb.entity_type(entity)
            assert entity in compiled

    def test_edges_and_label_tables(self, source_kb, compiled):
        assert [e.key() for e in compiled.edges()] == [
            e.key() for e in source_kb.edges()
        ]
        assert compiled.num_edges == source_kb.num_edges
        assert compiled.relation_labels() == source_kb.relation_labels()
        assert compiled.label_counts() == source_kb.label_counts()
        for label in source_kb.relation_labels():
            assert compiled.label_count(label) == source_kb.label_count(label)
        assert compiled.density() == pytest.approx(source_kb.density())

    def test_adjacency_parity(self, source_kb, compiled):
        for entity in source_kb.entities:
            assert compiled.degree(entity) == source_kb.degree(entity)
            assert compiled.neighbors(entity) == source_kb.neighbors(entity)
            assert compiled.traversal_steps(entity) == source_kb.traversal_steps(entity)

    def test_plane_rows_match_neighbor_ids(self, source_kb, compiled):
        for entity in list(source_kb.entities)[:40]:
            for label in source_kb.relation_labels():
                for orientation in ("out", "in", "undirected"):
                    assert tuple(
                        compiled.neighbor_ids(entity, label, orientation)
                    ) == tuple(source_kb.neighbor_ids(entity, label, orientation))

    def test_has_edge_parity_and_unknowns(self, source_kb, compiled):
        for edge in list(source_kb.edges())[:80]:
            for direction in ("out", "in", "any"):
                assert compiled.has_edge(
                    edge.source, edge.target, edge.label, direction
                ) == source_kb.has_edge(edge.source, edge.target, edge.label, direction)
                assert compiled.has_edge(
                    edge.target, edge.source, edge.label, direction
                ) == source_kb.has_edge(edge.target, edge.source, edge.label, direction)
        assert not compiled.has_edge("nope", "also_nope", "starring")
        some = next(iter(source_kb.entities))
        assert not compiled.has_edge(some, some, "no_such_label")

    def test_unknown_entity_raises(self, compiled):
        with pytest.raises(UnknownEntityError):
            compiled.degree("missing-entity")
        with pytest.raises(UnknownEntityError):
            compiled.handle_of("missing-entity")
        with pytest.raises(KnowledgeBaseError):
            compiled.entity_of(10**9)

    def test_sort_rank_reproduces_sorted_entities(self, source_kb, compiled):
        by_rank = sorted(
            range(compiled.num_entities), key=compiled.sort_rank.__getitem__
        )
        assert [compiled.names[h] for h in by_rank] == sorted(source_kb.entities)

    def test_to_networkx_matches(self, source_kb, compiled):
        expected = source_kb.to_networkx()
        actual = compiled.to_networkx()
        assert sorted(expected.nodes) == sorted(actual.nodes)
        assert sorted(expected.edges(data="label")) == sorted(
            actual.edges(data="label")
        )


class TestReadOnly:
    def test_mutators_raise(self, compiled):
        with pytest.raises(KnowledgeBaseError, match="read-only"):
            compiled.add_entity("x")
        with pytest.raises(KnowledgeBaseError, match="read-only"):
            compiled.add_edge("a", "b", "knows")
        with pytest.raises(KnowledgeBaseError, match="read-only"):
            compiled.add_edges([("a", "b", "knows")])

    def test_compile_is_idempotent(self, compiled):
        assert CompiledKB.compile(compiled) is compiled
        assert compile_kb(compiled) is compiled


class TestCompileCache:
    def test_one_view_per_kb_version(self):
        kb = scale_free_kb(num_entities=30, attach_per_entity=2, seed=1)
        first = compile_kb(kb)
        assert compile_kb(kb) is first
        assert first.version == kb.version
        anchor = next(iter(kb.entities))
        kb.add_edge("late_arrival", anchor, "rel0")
        second = compile_kb(kb)
        assert second is not first
        assert second.version == kb.version
        assert second.has_entity("late_arrival")
        assert compile_kb(kb) is second

    def test_cache_holds_its_kb_weakly(self):
        kb = scale_free_kb(num_entities=30, attach_per_entity=2, seed=2)
        view = weakref.ref(compile_kb(kb))
        assert kb in _COMPILED_VIEWS
        del kb
        gc.collect()
        assert view() is None

    def test_serving_engine_never_fills_the_cache(self):
        """The engine reads through its own per-version compiled views: a
        second compiled copy of its KB would double the served footprint."""
        kb = scale_free_kb(num_entities=60, attach_per_entity=2, seed=3)
        v_start = next(iter(kb.entities))
        hop = kb.neighbors(v_start)[0].neighbor
        v_end = next(
            entry.neighbor for entry in kb.neighbors(hop)
            if entry.neighbor != v_start
        )
        engine = ExplanationEngine(kb, size_limit=4)
        try:
            for name in engine.measures():
                engine.explain(v_start, v_end, measure=name, k=3)
            engine.add_edges([{"source": "late_arrival", "target": v_start,
                               "label": "rel0"}])
            for name in engine.measures():
                engine.explain(v_start, v_end, measure=name, k=3)
            engine.explain("late_arrival", v_end, k=3)
            assert kb not in _COMPILED_VIEWS
        finally:
            engine.close()


class TestBuffers:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_buffer_round_trip_preserves_everything(self, seed):
        kb = scale_free_kb(num_entities=40, attach_per_entity=2, seed=seed)
        compiled = CompiledKB.compile(kb)
        restored = CompiledKB.from_buffers(compiled.to_buffers())
        assert restored.version == compiled.version
        assert restored.names == compiled.names
        assert restored.types == compiled.types
        assert restored.label_of == compiled.label_of
        assert restored.presence == compiled.presence
        assert restored.adj_offsets == compiled.adj_offsets
        assert restored.adj_neighbors == compiled.adj_neighbors
        assert restored.adj_codes == compiled.adj_codes
        assert restored.sort_rank == compiled.sort_rank
        assert [e.key() for e in restored.edges()] == [
            e.key() for e in compiled.edges()
        ]
        for label in kb.relation_labels():
            assert restored.schema.is_directed(label) == kb.schema.is_directed(label)

    def test_plane_bytes_positive_and_stable(self):
        kb = clustered_kb(
            num_communities=2, community_size=10, intra_degree=2, inter_edges=4, seed=1
        )
        compiled = CompiledKB.compile(kb)
        assert compiled.plane_bytes() > 0
        assert compiled.plane_bytes() == compiled.plane_bytes()
        assert compiled.compile_seconds > 0.0


class TestKernelSurface:
    def test_plane_row_and_set_agree(self, source_kb, compiled):
        for label in source_kb.relation_labels():
            for orientation, orient in (("out", 0), ("in", 1), ("undirected", 2)):
                plane = compiled.label_code[label] * 3 + orient
                for entity in list(source_kb.entities)[:25]:
                    h = compiled.handle_of(entity)
                    row = compiled.plane_row(plane, h)
                    assert compiled.plane_row_set(plane, h) == frozenset(row)
                    assert tuple(compiled.names[nh] for nh in row) == tuple(
                        source_kb.neighbor_ids(entity, label, orientation)
                    )

    def test_pack_edge_matches_presence(self, source_kb, compiled):
        for edge in list(source_kb.edges())[:40]:
            src = compiled.handle_of(edge.source)
            dst = compiled.handle_of(edge.target)
            code = compiled.label_code[edge.label]
            if edge.directed:
                assert compiled.pack_edge(src, dst, code * 3) in compiled.presence
                assert compiled.pack_edge(dst, src, code * 3 + 1) in compiled.presence
            else:
                assert compiled.pack_edge(src, dst, code * 3 + 2) in compiled.presence
                assert compiled.pack_edge(dst, src, code * 3 + 2) in compiled.presence

    def test_plane_tables_materialise_fully(self, compiled):
        label = compiled.label_of[0]
        plane = compiled.label_code[label] * 3
        rows, members = compiled.plane_tables(plane, with_members=True)
        if rows is not None:
            assert all(row is not None for row in rows)
            assert all(entry is not None for entry in members)
            for h in range(compiled.num_entities):
                assert frozenset(members[h]) == frozenset(rows[h])
