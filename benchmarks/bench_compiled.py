"""Snapshot build + restore of the compiled KB core (BENCH_pr4.json).

One gated scenario on the ~52k-edge clustered workload KB that the
scale-out benchmark (PR 3) introduced, with the replicas asserted to answer
the same read API before any timing is trusted:

* **snapshot build + restore** — shipping a worker replica: the format-1
  entity/edge tuple replay (rebuilt edge-by-edge through ``add_edge``, the
  PR 3 baseline, reproduced locally below) vs payload format 2 (``tobytes``
  buffers of the serving engine's cached compile, restored with
  ``frombytes``).  Gate: ``REX_BENCH_SNAPSHOT_FLOOR`` (the check target sets
  5.0).  The one-off compile is recorded separately (``compile_s``): in the
  serving flow it is the engine's per-version cache, already paid for by the
  request path, so snapshotting bills only the buffer copies.

The fig7 enumeration and fig11 global-sweep rows that ``BENCH_pr4.json``
also records timed the dict backend against the compiled one.  Every read
kernel now runs on the compiled view, so those rows are no longer produced;
the paper-figure benchmarks (``bench_fig7_enumeration.py``,
``bench_fig11_distributional.py``) time the same work.

Environment knobs:

* ``REX_BENCH_SNAPSHOT_FLOOR`` — when > 0, assert the snapshot speedup meets
  this floor (default 0 = record only).
* ``REX_BENCH_COMPILED_COMMUNITIES`` — KB scale (default 250 communities of
  40 ≈ 52k edges; CI smoke can shrink it).
"""

from __future__ import annotations

import os
import pickle
import time

import pytest

from repro.kb.compiled import CompiledKB
from repro.kb.graph import KnowledgeBase
from repro.kb.schema import EntityType, RelationType, Schema
from repro.parallel.snapshot import kb_from_payload, kb_to_payload
from repro.workloads import clustered_kb

GROUP = "compiled-core"
ROUNDS = 3

SNAPSHOT_FLOOR = float(os.environ.get("REX_BENCH_SNAPSHOT_FLOOR", "0"))
COMMUNITIES = int(os.environ.get("REX_BENCH_COMPILED_COMMUNITIES", "250"))
WORKLOAD_SEED = int(os.environ.get("REX_BENCH_SEED", "7")) + 4


@pytest.fixture(scope="module")
def workload_kb() -> KnowledgeBase:
    """The PR 3 clustered workload KB (~52k edges at the default knobs)."""
    return clustered_kb(
        num_communities=COMMUNITIES,
        community_size=40,
        intra_degree=5,
        inter_edges=10 * COMMUNITIES,
        seed=WORKLOAD_SEED,
    )


@pytest.fixture(scope="module")
def compiled_kb(workload_kb) -> CompiledKB:
    return CompiledKB.compile(workload_kb)


def _best_of(callable_, rounds: int = ROUNDS) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - started)
    return best, result


# ---------------------------------------------------------------------------
# snapshot build + restore (format 1 replay vs format 2 buffers)
# ---------------------------------------------------------------------------


def _payload_v1(kb: KnowledgeBase) -> tuple:
    """The PR 3 format-1 snapshot: plain entity/edge tuples (baseline)."""
    relations = tuple(
        (relation.name, relation.directed, relation.domain, relation.range)
        for relation in kb.schema
    )
    entity_types = tuple(
        (entity_type.name, entity_type.description)
        for entity_type in kb.schema.entity_types.values()
    )
    entities = tuple((entity, kb.entity_type(entity)) for entity in kb.entities)
    edges = tuple(
        (edge.source, edge.target, edge.label, edge.directed) for edge in kb.edges()
    )
    return (1, kb.version, relations, entity_types, entities, edges)


def _restore_v1(payload: tuple) -> KnowledgeBase:
    """The PR 3 format-1 restore: N× ``add_edge`` replay (baseline)."""
    _, _, relations, entity_types, entities, edges = payload
    schema = Schema(
        relations=(
            RelationType(name=name, directed=directed, domain=domain, range=range_)
            for name, directed, domain, range_ in relations
        ),
        entity_types=(
            EntityType(name=name, description=description)
            for name, description in entity_types
        ),
    )
    kb = KnowledgeBase(schema=schema)
    for entity, entity_type in entities:
        kb.add_entity(entity, entity_type)
    for source, target, label, directed in edges:
        kb.add_edge(source, target, label, directed)
    return kb


def test_snapshot_build_restore_speedup(benchmark, workload_kb, compiled_kb):
    """Format-2 ship+restore vs the format-1 edge replay on the 52k-edge KB."""
    # Correctness first: both replicas answer the same read API.
    v1_replica = _restore_v1(_payload_v1(workload_kb))
    v2_replica, v2_version = kb_from_payload(kb_to_payload(compiled_kb))
    assert v2_version == workload_kb.version
    assert list(v2_replica.entities) == list(v1_replica.entities)
    assert [e.key() for e in v2_replica.edges()] == [
        e.key() for e in v1_replica.edges()
    ]
    assert v2_replica.label_counts() == v1_replica.label_counts()

    v1_build_s, v1_payload = _best_of(lambda: _payload_v1(workload_kb))
    v1_restore_s, _ = _best_of(lambda: _restore_v1(v1_payload))

    # Format-2 build ships the engine's cached compile (the request path has
    # already paid for it); the cold compile is recorded separately.
    v2_build_s, v2_payload = _best_of(lambda: kb_to_payload(compiled_kb))

    def v2_restore():
        return kb_from_payload(v2_payload)

    benchmark.pedantic(v2_restore, rounds=ROUNDS, iterations=1)
    v2_restore_s = benchmark.stats.stats.min

    compile_s, _ = _best_of(lambda: CompiledKB.compile(workload_kb), rounds=1)

    v1_total = v1_build_s + v1_restore_s
    v2_total = v2_build_s + v2_restore_s
    speedup = v1_total / v2_total
    speedup_cold = v1_total / (v2_total + compile_s)

    benchmark.group = f"{GROUP}-snapshot"
    benchmark.extra_info.update(
        {
            "scenario": "snapshot-build-restore",
            "entities": workload_kb.num_entities,
            "edges": workload_kb.num_edges,
            "format1_build_s": round(v1_build_s, 6),
            "format1_restore_s": round(v1_restore_s, 6),
            "format2_build_s": round(v2_build_s, 6),
            "format2_restore_s": round(v2_restore_s, 6),
            "compile_s": round(compile_s, 6),
            "format1_payload_bytes": len(pickle.dumps(v1_payload)),
            "format2_payload_bytes": len(pickle.dumps(v2_payload)),
            "speedup": round(speedup, 3),
            "speedup_including_cold_compile": round(speedup_cold, 3),
            "gated": True,
            "floor": SNAPSHOT_FLOOR,
        }
    )
    if SNAPSHOT_FLOOR > 0:
        assert speedup >= SNAPSHOT_FLOOR, (
            f"format-2 snapshot build+restore speedup {speedup:.2f}x is below the "
            f"{SNAPSHOT_FLOOR}x floor (format 1 {v1_total:.3f}s vs format 2 "
            f"{v2_total:.3f}s)"
        )
