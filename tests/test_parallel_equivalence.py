"""Property-based equivalence: parallel results == sequential results.

For random workloads drawn from the :mod:`repro.workloads` generators (seeded
stdlib ``random`` only — regenerating a failing case needs nothing but the
printed seed), the sharded batch path must return, position for position, the
same answers as the sequential engine — under request-order permutation, with
duplicate requests, and with invalid requests mixed into the stream.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.errors import RexError
from repro.service import ExplanationEngine
from repro.service.serialize import outcome_to_dict
from repro.workloads import (
    bipartite_kb,
    clustered_kb,
    sample_request_stream,
    scale_free_kb,
)

SIZE_LIMIT = 4

#: (generator description, KB) cases, kept small so each property runs fast.
WORKLOADS = [
    ("scale-free", lambda seed: scale_free_kb(num_entities=160, seed=seed)),
    (
        "bipartite",
        lambda seed: bipartite_kb(num_entities=120, num_attributes=25, seed=seed),
    ),
    (
        "clustered",
        lambda seed: clustered_kb(
            num_communities=4, community_size=25, inter_edges=30, seed=seed
        ),
    ),
]


def _canonical(batch_results):
    """Serialize a batch result list, dropping the fields that legitimately
    differ between the two execution paths (timing, cache/coalesce flags)."""
    rendered = []
    for item in batch_results:
        if isinstance(item, RexError):
            rendered.append({"error": str(item)})
        else:
            payload = outcome_to_dict(item)
            for volatile in ("elapsed_s", "cached", "coalesced"):
                payload.pop(volatile)
            rendered.append(payload)
    return json.dumps(rendered, sort_keys=True)


@pytest.mark.parametrize("kind,factory", WORKLOADS, ids=[w[0] for w in WORKLOADS])
@pytest.mark.parametrize("seed", [3, 21])
def test_parallel_batch_matches_sequential(kind, factory, seed):
    kb = factory(seed)
    requests = sample_request_stream(
        kb, 14, seed=seed, unique_pairs=9, size_limit=SIZE_LIMIT, k_choices=(2, 5)
    )
    sequential_engine = ExplanationEngine(kb, size_limit=SIZE_LIMIT, parallelism=0)
    parallel_engine = ExplanationEngine(kb, size_limit=SIZE_LIMIT, parallelism=2)
    try:
        expected = _canonical(sequential_engine.explain_batch(requests))
        actual = _canonical(parallel_engine.explain_batch(requests))
        assert actual == expected, f"{kind} seed={seed}"
    finally:
        parallel_engine.close()


@pytest.mark.parametrize("seed", [5, 40])
def test_permutation_identical(seed):
    """Shuffling the request order permutes the results identically."""
    kb = scale_free_kb(num_entities=150, seed=seed)
    requests = sample_request_stream(kb, 10, seed=seed, size_limit=SIZE_LIMIT)
    rng = random.Random(seed)
    order = list(range(len(requests)))
    rng.shuffle(order)
    shuffled = [requests[i] for i in order]

    engine = ExplanationEngine(kb, size_limit=SIZE_LIMIT, parallelism=2)
    try:
        # fresh engine per run so cache state cannot mask a mis-ordering
        straight = engine.explain_batch(requests)
        engine.cache.clear()
        permuted = engine.explain_batch(shuffled)
    finally:
        engine.close()
    for new_position, old_position in enumerate(order):
        assert _canonical([permuted[new_position]]) == _canonical(
            [straight[old_position]]
        )


@pytest.mark.parametrize("seed", [2, 13])
def test_streams_with_errors_and_duplicates(seed):
    """Invalid items error in place; duplicates coalesce to identical answers."""
    kb = clustered_kb(num_communities=3, community_size=20, seed=seed)
    good = sample_request_stream(kb, 6, seed=seed, size_limit=SIZE_LIMIT)
    rng = random.Random(seed)
    stream = list(good) + [
        good[0],  # duplicate of an earlier request
        {"start": "missing_entity", "end": good[0]["end"]},
        {"end": "no_start_key"},
        {"start": good[1]["start"], "end": good[1]["end"], "measure": "bogus"},
        {"start": good[2]["start"], "end": good[2]["end"], "k": -1},
        "not even an object",
    ]
    rng.shuffle(stream)

    sequential_engine = ExplanationEngine(kb, size_limit=SIZE_LIMIT, parallelism=0)
    parallel_engine = ExplanationEngine(kb, size_limit=SIZE_LIMIT, parallelism=2)
    try:
        expected = _canonical(sequential_engine.explain_batch(stream))
        actual = _canonical(parallel_engine.explain_batch(stream))
        assert actual == expected
    finally:
        parallel_engine.close()


def test_custom_measure_instances_are_answered_inline():
    """A caller-supplied Measure instance cannot be shipped to a worker (the
    pool resolves measures from the registry by name): it must be evaluated
    inline with correct results — never a KeyError, never a silently
    different registry measure."""
    from repro.measures.structural import SizeMeasure

    class RenamedSize(SizeMeasure):
        name = "custom-size"  # collides with no registry entry

    kb = scale_free_kb(num_entities=120, seed=8)
    requests = sample_request_stream(kb, 3, seed=8, size_limit=SIZE_LIMIT)
    with_custom = [dict(requests[0], measure=RenamedSize())] + requests[1:]
    sequential_engine = ExplanationEngine(kb, size_limit=SIZE_LIMIT, parallelism=0)
    parallel_engine = ExplanationEngine(kb, size_limit=SIZE_LIMIT, parallelism=2)
    try:
        expected = _canonical(sequential_engine.explain_batch(with_custom))
        actual = _canonical(parallel_engine.explain_batch(with_custom))
        assert actual == expected
    finally:
        parallel_engine.close()


def test_forced_sequential_flag():
    """``parallel=False`` bypasses the pool even on a parallel engine."""
    kb = scale_free_kb(num_entities=120, seed=4)
    requests = sample_request_stream(kb, 4, seed=4, size_limit=SIZE_LIMIT)
    engine = ExplanationEngine(kb, size_limit=SIZE_LIMIT, parallelism=2)
    try:
        engine.explain_batch(requests, parallel=False)
        assert engine.executor is None  # no pool was ever spun up
    finally:
        engine.close()
