"""Locality: edges far from the start entity never change a local answer.

Every explanation instance contains ``v_start`` and spans at most
``size_limit`` edges, so a write whose edge endpoints (new entities included)
all lie more than ``size_limit`` hops from ``v_start`` — in the graph after
the write — cannot take part in any instance of any pattern for the pair.
A measure declared :attr:`~repro.measures.base.Measure.local_scope` must
therefore rank exactly as before.  This is the claim the serving engine's
scoped cache invalidation (``ExplanationEngine._scope_classifier``) relies
on; here it is checked against recomputation with plain :class:`Rex` on
fixed-seed ``repro.workloads`` KBs, not through the cache.
"""

from __future__ import annotations

import json
import random
from collections import deque

import pytest

from repro import Rex
from repro.kb.graph import KnowledgeBase
from repro.service.serialize import ranked_to_dict
from repro.workloads import clustered_kb, scale_free_kb

SIZE_LIMIT = 3
K = 5

WORKLOADS = {
    "clustered-3": lambda: clustered_kb(
        num_communities=5, community_size=10, intra_degree=3, inter_edges=4, seed=3
    ),
    "clustered-8": lambda: clustered_kb(
        num_communities=5, community_size=10, intra_degree=3, inter_edges=4, seed=8
    ),
    "scale-free-5": lambda: scale_free_kb(
        num_entities=60, attach_per_entity=1, seed=5
    ),
}


def _within(kb: KnowledgeBase, source: str, limit: int) -> dict[str, int]:
    """Hop distances from ``source``, for the entities at most ``limit`` away."""
    distance = {source: 0}
    frontier = deque([source])
    while frontier:
        entity = frontier.popleft()
        if distance[entity] == limit:
            continue
        for entry in kb.neighbors(entity):
            if entry.neighbor not in distance:
                distance[entry.neighbor] = distance[entity] + 1
                frontier.append(entry.neighbor)
    return distance


def _far_writes(
    kb: KnowledgeBase, v_start: str, rng: random.Random
) -> list[tuple[str, str, str]]:
    """Edges among entities beyond ``SIZE_LIMIT`` hops, plus new entities
    hung off them; ``[]`` when nothing is that far from ``v_start``."""
    near = _within(kb, v_start, SIZE_LIMIT)
    far = [entity for entity in kb.entities if entity not in near]
    if len(far) < 2:
        return []
    labels = kb.relation_labels()
    writes = []
    for index in range(6):
        source, target = rng.sample(far, 2)
        writes.append((source, target, rng.choice(labels)))
        writes.append((rng.choice(far), f"far_new_{index}", rng.choice(labels)))
    writes.append((rng.choice(far), "far_new_0", "far_only_label"))
    return writes


def _answers(kb: KnowledgeBase, v_start: str, v_end: str) -> dict[str, str]:
    rex = Rex(kb, size_limit=SIZE_LIMIT)
    return {
        name: json.dumps(
            [
                ranked_to_dict(entry, rank)
                for rank, entry in enumerate(
                    rex.explain(v_start, v_end, measure=measure, k=K), start=1
                )
            ],
            sort_keys=True,
        )
        for name, measure in rex.measures().items()
        if measure.local_scope
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_far_writes_never_change_a_local_answer(workload):
    kb = WORKLOADS[workload]()
    rng = random.Random(workload)
    entities = list(kb.entities)
    checked = 0
    for v_start in rng.sample(entities, 8):
        near = _within(kb, v_start, 2)
        ends = sorted(entity for entity, hops in near.items() if hops)
        writes = _far_writes(kb, v_start, rng)
        if not ends or not writes:
            continue
        v_end = rng.choice(ends)
        grown = kb.copy()
        for source, target, label in writes:
            grown.add_edge(source, target, label)
        # the premise, in the graph after the write
        reach = _within(grown, v_start, SIZE_LIMIT)
        endpoints = {entity for write in writes for entity in write[:2]}
        assert not endpoints & set(reach)
        assert grown.num_edges > kb.num_edges
        before = _answers(kb, v_start, v_end)
        assert _answers(grown, v_start, v_end) == before
        checked += sum(1 for answer in before.values() if answer != "[]")
    # not vacuous: several pairs had explanations under every local measure
    assert checked >= 8
