"""Property tests for the snapshot payload (compiled array shipping).

Replica determinism rests on the snapshot round-trip preserving *everything*
observable: entity insertion order (handles, iteration order, ranking
tie-breaks), edge insertion order with per-edge directionality, the full
schema and the version label.  These tests pickle the payload (exactly what
crosses the process boundary) and compare the restored replica field by
field against the source across seeded workload generators.  The payload has
one shape, ``(PAYLOAD_FORMAT, base, delta)``, with the base by value or by
checkpoint path; every other head (formats 1–4 included) must be rejected
with an upgrade message.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.errors import CheckpointError
from repro.kb.checkpoint import save_checkpoint
from repro.kb.compiled import CompiledKB, OverlayCompiledKB, extend_compiled
from repro.kb.graph import KnowledgeBase
from repro.kb.schema import Schema
from repro.parallel.snapshot import PAYLOAD_FORMAT, kb_from_payload, kb_to_payload
from repro.workloads import bipartite_kb, clustered_kb, scale_free_kb

GENERATOR_CASES = [
    lambda seed: scale_free_kb(num_entities=35, attach_per_entity=2, seed=seed),
    lambda seed: bipartite_kb(
        num_entities=30, num_attributes=8, attributes_per_entity=2, seed=seed
    ),
    lambda seed: clustered_kb(
        num_communities=2, community_size=11, intra_degree=3, inter_edges=6, seed=seed
    ),
]


def _random_mixed_kb(seed: int) -> KnowledgeBase:
    """A hand-rolled KB with undirected labels, types and unused relations."""
    rng = random.Random(seed)
    schema = Schema()
    schema.declare_relation("knows", directed=True)
    schema.declare_relation("spouse", directed=False)
    schema.declare_relation("declared_but_unused", directed=False)
    kb = KnowledgeBase(schema=schema)
    entities = [f"n{index}" for index in range(rng.randint(6, 14))]
    for index, entity in enumerate(entities):
        kb.add_entity(entity, "person" if index % 2 else None)
    for _ in range(rng.randint(8, 25)):
        source, target = rng.sample(entities, 2)
        kb.add_edge(source, target, rng.choice(["knows", "spouse"]))
    return kb


def _payload_round_trip(kb: KnowledgeBase):
    payload = kb_to_payload(kb)
    return kb_from_payload(pickle.loads(pickle.dumps(payload)))


class TestFormat2RoundTrip:
    @pytest.mark.parametrize("factory_index", range(len(GENERATOR_CASES)))
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_generator_kbs_round_trip(self, factory_index, seed):
        kb = GENERATOR_CASES[factory_index](seed)
        replica, version = _payload_round_trip(kb)
        assert version == kb.version
        # entity insertion order (drives handles and ranking tie-breaks)
        assert list(replica.entities) == list(kb.entities)
        for entity in kb.entities:
            assert replica.handle_of(entity) == kb.handle_of(entity)
            assert replica.entity_type(entity) == kb.entity_type(entity)
        # edge insertion order with directionality
        assert [
            (e.source, e.target, e.label, e.directed) for e in replica.edges()
        ] == [(e.source, e.target, e.label, e.directed) for e in kb.edges()]
        # schema
        for label in kb.relation_labels():
            assert replica.schema.is_directed(label) == kb.schema.is_directed(label)

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_mixed_kbs_round_trip(self, seed):
        kb = _random_mixed_kb(seed)
        replica, version = _payload_round_trip(kb)
        assert version == kb.version
        assert list(replica.entities) == list(kb.entities)
        assert [e.key() for e in replica.edges()] == [e.key() for e in kb.edges()]
        assert replica.label_counts() == kb.label_counts()
        # declared-but-unused relations survive via the schema tuples
        assert replica.schema.has_relation("declared_but_unused")
        assert not replica.schema.is_directed("declared_but_unused")
        # adjacency answers (including undirected edges) are identical
        for entity in kb.entities:
            assert replica.traversal_steps(entity) == kb.traversal_steps(entity)

    def test_payload_is_one_shape(self):
        payload = kb_to_payload(_random_mixed_kb(1))
        assert payload[0] == PAYLOAD_FORMAT == 5
        _, base, delta = payload
        assert isinstance(base, tuple) and delta is None


def _overlay(kb: KnowledgeBase) -> OverlayCompiledKB:
    """An overlay over ``kb``'s compile: one new entity, one new label."""
    entities = list(kb.entities)
    view = extend_compiled(
        CompiledKB.compile(kb),
        [(entities[0], "payload_new", "payload_label", None),
         (entities[1], entities[2], "knows", None)],
    )
    assert isinstance(view, OverlayCompiledKB)
    return view


class TestBaseAndDelta:
    def test_overlay_ships_its_base_by_value_plus_its_delta(self):
        view = _overlay(_random_mixed_kb(4))
        payload = kb_to_payload(view)
        assert payload[1] == view.base.to_buffers()
        assert payload[2] == view.delta_buffers()
        replica, version = kb_from_payload(pickle.loads(pickle.dumps(payload)))
        assert version == view.version
        assert isinstance(replica, OverlayCompiledKB)
        assert replica.to_buffers() == view.to_buffers()

    def test_checkpointed_root_base_ships_by_path(self, tmp_path):
        view = _overlay(_random_mixed_kb(5))
        path = tmp_path / "kb.ckpt"
        save_checkpoint(view.base, path)
        payload = kb_to_payload(view, (str(path), view.base.version))
        assert payload[1:] == (str(path), view.delta_buffers())
        replica, version = kb_from_payload(payload)
        assert version == view.version
        assert replica.to_buffers() == view.to_buffers()

    def test_checkpoint_of_the_whole_view_ships_without_a_delta(self, tmp_path):
        view = _overlay(_random_mixed_kb(6))
        path = tmp_path / "kb.ckpt"
        save_checkpoint(view, path)
        payload = kb_to_payload(view, (str(path), view.version))
        assert payload[1:] == (str(path), None)
        replica, version = kb_from_payload(payload)
        assert version == view.version
        assert replica.to_buffers() == view.to_buffers()

    def test_unrelated_checkpoint_is_not_referenced(self, tmp_path):
        view = _overlay(_random_mixed_kb(7))
        payload = kb_to_payload(view, (str(tmp_path / "kb.ckpt"), view.version + 1))
        assert isinstance(payload[1], tuple)

    def test_delta_base_checkpoint_must_be_at_the_recorded_version(self, tmp_path):
        view = _overlay(_random_mixed_kb(8))
        path = tmp_path / "kb.ckpt"
        save_checkpoint(view.base, path)
        payload = kb_to_payload(view, (str(path), view.base.version))
        # the checkpoint moves on underneath the shipped payload
        save_checkpoint(view, path)
        with pytest.raises(CheckpointError, match="stale"):
            kb_from_payload(payload)


class TestFormatRejection:
    def test_format_1_rejected_with_upgrade_message(self):
        kb = _random_mixed_kb(2)
        payload = list(kb_to_payload(kb))
        payload[0] = 1
        with pytest.raises(ValueError, match="format 1.*Recycle"):
            kb_from_payload(tuple(payload))

    @pytest.mark.parametrize("retired", [2, 3, 4])
    def test_retired_formats_rejected(self, retired):
        payload = list(kb_to_payload(_random_mixed_kb(3)))
        payload[0] = retired
        with pytest.raises(ValueError, match=f"format {retired}.*Recycle"):
            kb_from_payload(tuple(payload))

    def test_unknown_format_rejected(self):
        kb = _random_mixed_kb(3)
        payload = list(kb_to_payload(kb))
        payload[0] = 999
        with pytest.raises(ValueError, match="payload format"):
            kb_from_payload(tuple(payload))
