"""Delta-versioned KB: overlay views, incremental compile, scoped invalidation.

The property at the heart of this file: serving a version through
``base + overlay delta`` must be **byte-identical** to a from-scratch compile
of a mirror KB that got the same ``add_edge`` calls, at every version, across
random write interleavings — both on the sequential serving path and with the
parallel batch executor.  On top of that sit the engine-level guarantees:
writes extend the compiled view instead of dropping it, scoped cache
invalidation keeps provably unaffected rankings, the SQLite fsync happens
outside the writer lock, and a mid-warmup write restarts the stale part of
the warmup pass.
"""

from __future__ import annotations

import random
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Rex
from repro.datasets.paper_example import paper_example_kb
from repro.errors import KnowledgeBaseError
from repro.kb.compiled import (
    MEMBERS_TUPLE_MAX,
    CompiledKB,
    OverlayCompiledKB,
    extend_compiled,
)
from repro.kb.graph import KnowledgeBase
from repro.kb.store import KnowledgeBaseStore
from repro.service.engine import DEFAULT_DELTA_COMPACT_EDGES, ExplanationEngine
from repro.workloads import bipartite_kb, clustered_kb


def _comparable(ranked) -> list[tuple[str, float]]:
    return [(repr(entry.explanation.pattern), round(entry.value, 9)) for entry in ranked]


def _apply_random_writes(
    kb: KnowledgeBase, rng: random.Random, count: int
) -> list[tuple[str, str, str, None]]:
    """Add a mix of edge flavours to the mirror ``kb``; returns the calls.

    The returned ``(source, target, label, directed)`` tuples are the batch
    :func:`extend_compiled` applies to the compiled view of the same history.
    """
    labels = list(kb.relation_labels())
    calls = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.6:
            # edge between existing entities
            src, dst = rng.sample(list(kb.entities), 2)
            label = rng.choice(labels)
        elif roll < 0.9:
            # edge attaching a brand-new entity
            src = rng.choice(list(kb.entities))
            dst = f"delta_entity_{kb.num_entities}_{rng.randrange(10_000)}"
            label = rng.choice(labels)
        else:
            # edge introducing a brand-new label
            src, dst = rng.sample(list(kb.entities), 2)
            label = f"delta_label_{rng.randrange(10_000)}"
        kb.add_edge(src, dst, label)
        calls.append((src, dst, label, None))
    return calls


@pytest.fixture(scope="module")
def small_kb() -> KnowledgeBase:
    return clustered_kb(
        num_communities=4, community_size=12, intra_degree=3, inter_edges=10, seed=11
    )


class TestOverlayCore:
    def test_extend_matches_full_recompile_bytes(self, small_kb):
        kb = small_kb.copy()
        base = CompiledKB.compile(kb)
        overlay = extend_compiled(base, _apply_random_writes(kb, random.Random(1), 12))
        assert isinstance(overlay, OverlayCompiledKB)
        assert overlay.version == kb.version
        assert overlay.compact().to_buffers() == CompiledKB.compile(kb).to_buffers()

    def test_second_generation_overlay_keeps_the_root_base(self, small_kb):
        kb = small_kb.copy()
        base = CompiledKB.compile(kb)
        first = extend_compiled(base, _apply_random_writes(kb, random.Random(2), 5))
        second = extend_compiled(first, _apply_random_writes(kb, random.Random(3), 5))
        # built from the first overlay, but the chain never nests: the
        # second overlay's base is the root and its delta is cumulative
        assert second.base is base
        assert second.overlay_edges > first.overlay_edges
        assert second.compact().to_buffers() == CompiledKB.compile(kb).to_buffers()

    def test_extend_rejects_an_invalid_edge_before_building(self, small_kb):
        base = CompiledKB.compile(small_kb)
        with pytest.raises(KnowledgeBaseError, match="self-loop"):
            extend_compiled(base, [("x", "y", "rel0", None), ("z", "z", "rel0", None)])
        assert not base.has_entity("x")

    def test_all_duplicate_batch_returns_the_view_itself(self, small_kb):
        base = CompiledKB.compile(small_kb)
        edge = next(iter(small_kb.edges()))
        batch = [(edge.source, edge.target, edge.label, edge.directed)]
        if not edge.directed:
            batch.append((edge.target, edge.source, edge.label, False))
        assert extend_compiled(base, batch) is base

    def test_read_api_parity_with_fresh_compile(self, small_kb):
        kb = small_kb.copy()
        base = CompiledKB.compile(kb)
        overlay = extend_compiled(base, _apply_random_writes(kb, random.Random(4), 15))
        fresh = CompiledKB.compile(kb)
        assert overlay.entities == fresh.entities
        for entity in kb.entities:
            assert overlay.degree(entity) == fresh.degree(entity)
            assert overlay.neighbors(entity) == fresh.neighbors(entity)
            assert overlay.traversal_steps(entity) == fresh.traversal_steps(entity)
        for edge in kb.edges():
            for orient in ("any", "out", "undirected"):
                assert overlay.has_edge(
                    edge.source, edge.target, edge.label, orient
                ) == fresh.has_edge(edge.source, edge.target, edge.label, orient)

    def test_delta_buffers_roundtrip(self, small_kb):
        kb = small_kb.copy()
        base = CompiledKB.compile(kb)
        overlay = extend_compiled(base, _apply_random_writes(kb, random.Random(5), 8))
        rebuilt = OverlayCompiledKB.from_delta_buffers(base, overlay.delta_buffers())
        assert rebuilt.version == overlay.version
        assert rebuilt.compact().to_buffers() == overlay.compact().to_buffers()

    def test_delta_buffers_reject_mismatched_base(self, small_kb):
        kb = small_kb.copy()
        base = CompiledKB.compile(kb)
        overlay = extend_compiled(base, _apply_random_writes(kb, random.Random(6), 4))
        buffers = overlay.delta_buffers()
        wrong = CompiledKB.compile(kb)  # newer version than the recorded base
        with pytest.raises(KnowledgeBaseError):
            OverlayCompiledKB.from_delta_buffers(wrong, buffers)


def _all_plane_tables(view: CompiledKB) -> list:
    return [
        view.plane_tables(plane, with_members=True) for plane in range(view.num_planes)
    ]


class TestOverlayChain:
    """Each version extends the previous one by copy-on-write (base = root)."""

    @pytest.mark.parametrize("seed", [3, 17, 58])
    def test_random_chain_matches_fresh_compile_at_every_generation(
        self, small_kb, seed
    ):
        """A chain of writes adding entities and labels, compacting whenever
        the delta outgrows a small threshold: every generation's merged
        buffers and every plane's rows and membership tables equal a fresh
        compile,
        and after all later extensions each earlier generation still reads
        exactly its own version."""
        rng = random.Random(seed)
        kb = small_kb.copy()
        view: CompiledKB = CompiledKB.compile(kb)
        threshold = 12
        generations: list[tuple[OverlayCompiledKB, tuple]] = []
        compactions = 0
        for _ in range(14):
            overlay = extend_compiled(
                view, _apply_random_writes(kb, rng, rng.randrange(1, 5))
            )
            fresh = CompiledKB.compile(kb)
            assert overlay.version == kb.version
            assert overlay.compact().to_buffers() == fresh.to_buffers()
            assert _all_plane_tables(overlay) == _all_plane_tables(fresh)
            generations.append((overlay, fresh.to_buffers()))
            view = overlay
            if overlay.overlay_edges > threshold:
                view = overlay.compact()
                compactions += 1
        assert compactions >= 1
        for overlay, expected in generations:
            # rebuilt from the side structures as they are now, not the cache
            assert overlay._build_compact().to_buffers() == expected
            rebuilt = OverlayCompiledKB.from_delta_buffers(
                overlay.base, overlay.delta_buffers()
            )
            assert rebuilt.compact().to_buffers() == expected

    def test_extension_copies_nothing_it_does_not_touch(self, small_kb):
        """An overlay's untouched membership entries are the base's own
        objects, and extending an overlay leaves the earlier one's delta as
        it was."""
        kb = small_kb.copy()
        base = CompiledKB.compile(kb)
        entities = list(kb.entities)
        label = kb.relation_labels()[0]
        plane = base.label_code[label] * 3  # the label's out-plane
        writes = [
            (entities[0], entities[5], label, True),
            (entities[1], entities[6], label, True),
            (entities[2], "chain_new_entity", label, True),
        ]
        for write in writes:
            kb.add_edge(*write)
        first = extend_compiled(base, writes[:1])
        second = extend_compiled(first, writes[1:])
        assert second.base is base
        assert first.overlay_edges == 1 and second.overlay_edges == 3
        assert first.degree(entities[1]) == base.degree(entities[1])
        assert "chain_new_entity" not in first
        _, base_members = base.plane_tables(plane, with_members=True)
        for view, touched in ((first, {0}), (second, {0, 1, 2})):
            rows, members = view.plane_tables(plane, with_members=True)
            assert rows is not base.plane_tables(plane)[0]
            for h, entry in enumerate(base_members):
                if h in touched:
                    assert entry is not members[h]
                    assert frozenset(members[h]) == frozenset(rows[h])
                else:
                    assert members[h] is entry
        fresh = CompiledKB.compile(kb)
        assert _all_plane_tables(second) == _all_plane_tables(fresh)

    def test_concurrent_readers_see_only_final_row_sets(self, small_kb):
        """Threads filling one overlay's plane tables at once (whole row and
        membership tables, and single lazy row sets, base tables cold) only
        ever read final entries."""
        n_workers = 8
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for attempt in range(20):
                kb = small_kb.copy()
                base = CompiledKB.compile(kb)
                overlay = extend_compiled(
                    base, _apply_random_writes(kb, random.Random(attempt), 10)
                )
                expected = _all_plane_tables(CompiledKB.compile(kb))
                planes = range(overlay.num_planes)
                barrier = threading.Barrier(n_workers, timeout=30)

                def read(worker: int) -> list[tuple]:
                    barrier.wait()
                    wrong = []
                    for plane in list(planes)[worker:] + list(planes)[:worker]:
                        rows, members = expected[plane]
                        if rows is None:
                            continue
                        if worker % 2:
                            got = overlay.plane_tables(plane, with_members=True)
                            if got != (rows, members):
                                wrong.append((plane, "tables"))
                        else:
                            for h in range(len(rows)):
                                if overlay.plane_row_set(plane, h) != frozenset(rows[h]):
                                    wrong.append((plane, h))
                    return wrong

                with ThreadPoolExecutor(max_workers=n_workers) as pool:
                    results = list(pool.map(read, range(n_workers), timeout=60))
                assert results == [[]] * n_workers
        finally:
            sys.setswitchinterval(previous)


def _hub_kb() -> KnowledgeBase:
    """44 entities whose attribute in-rows run to 17 entries: base membership
    tables hold frozensets as well as row tuples."""
    return bipartite_kb(
        num_entities=40, num_attributes=4, attributes_per_entity=2, num_labels=2, seed=0
    )


# Each write fans out of one source to a run of targets, so rows grow past
# MEMBERS_TUPLE_MAX in many draws; writes also add entities and a label.
_MEMBER_SOURCES = ("a0", "e00", "member_new_0")
_MEMBER_TARGETS = tuple(f"e{index:02d}" for index in range(10, 30)) + (
    "a1", "member_new_0", "member_new_1",
)
_MEMBER_FAN = st.builds(
    lambda source, label, directed, first, count: [
        (source, target, label, directed)
        for target in _MEMBER_TARGETS[first : first + count]
        if target != source
    ],
    st.sampled_from(_MEMBER_SOURCES),
    st.sampled_from(("has_attr1", "member_rel")),
    st.sampled_from((None, True, False)),
    st.integers(min_value=0, max_value=len(_MEMBER_TARGETS) - 1),
    st.integers(min_value=1, max_value=12),
)
_MEMBER_BATCHES = st.lists(
    st.lists(_MEMBER_FAN, min_size=1, max_size=3).map(
        lambda fans: [edge for fan in fans for edge in fan]
    ),
    min_size=1,
    max_size=4,
)


class TestMembershipTables:
    """The leaf kernels probe ``plane_tables(plane, with_members=True)``: the
    row tuple itself for a short row, a frozenset of it for a long one."""

    @settings(
        max_examples=30,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(batches=_MEMBER_BATCHES)
    def test_complete_equal_to_rows_and_shared_where_untouched(self, batches):
        """At every version: every entry present and equal to its row as a
        set, a tuple exactly when the row is short, and the root base's own
        object wherever the cumulative delta left the row alone; tables equal
        a fresh compile's, and no later version changes an earlier one's."""
        mirror = _hub_kb()
        base = CompiledKB.compile(mirror)
        view: CompiledKB = base
        published = []
        for batch in [[]] + batches:
            if batch:
                view = extend_compiled(view, batch)
                for edge in batch:
                    mirror.add_edge(*edge)
            fresh = CompiledKB.compile(mirror)
            for plane in range(view.num_planes):
                rows, members = view.plane_tables(plane, with_members=True)
                assert (rows, members) == fresh.plane_tables(plane, with_members=True)
                if rows is None:
                    continue
                assert len(members) == view.num_entities
                base_rows, base_members = base.plane_tables(plane, with_members=True)
                for h, (row, entry) in enumerate(zip(rows, members)):
                    assert frozenset(entry) == frozenset(row)
                    short = len(row) <= MEMBERS_TUPLE_MAX
                    assert isinstance(entry, tuple if short else frozenset)
                    if base_rows is not None and h < len(base_rows) and row == base_rows[h]:
                        assert entry is base_members[h]
                published.append((members, list(members)))
        for members, entries in published:
            assert len(members) == len(entries)
            assert all(now is then for now, then in zip(members, entries))


class TestByteIdentityProperty:
    """The acceptance property: overlay + base == full recompile, always."""

    @pytest.mark.parametrize("seed", [7, 23, 91])
    @pytest.mark.parametrize("compact_edges", [0, 3, 10_000])
    def test_every_version_matches_scratch_compile(self, seed, compact_edges):
        """Random write interleavings through the engine: at every produced
        version the *served* compiled view must serialize byte-identically to
        compiling, from scratch, a mirror KB that got the same edges — with
        compaction forced on every write (0), kicking in mid-run (3) and
        never kicking in (10k)."""
        rng = random.Random(seed)
        kb = clustered_kb(
            num_communities=3, community_size=10, intra_degree=3,
            inter_edges=8, seed=seed,
        )
        mirror = kb.copy()
        engine = ExplanationEngine(
            kb, size_limit=3, delta_compact_edges=compact_edges
        )
        try:
            entities = list(kb.entities)
            pair = (entities[0], entities[5])
            engine.explain(*pair, k=3)
            for _ in range(6):
                batch = []
                for _ in range(rng.randrange(1, 4)):
                    src, dst = rng.sample(entities, 2)
                    batch.append(
                        {"source": src, "target": dst, "label": "rel0"}
                    )
                if rng.random() < 0.5:
                    batch.append(
                        {
                            "source": rng.choice(entities),
                            "target": f"novel_{rng.randrange(100_000)}",
                            "label": "rel1",
                        }
                    )
                summary = engine.add_edges(batch)
                for edge in batch:
                    mirror.add_edge(edge["source"], edge["target"], edge["label"])
                assert summary["kb_version"] == engine.kb_version == mirror.version
                served = engine.kb
                scratch = CompiledKB.compile(mirror)
                assert served.to_buffers() == scratch.to_buffers()
                if compact_edges == 0:
                    assert not isinstance(served, OverlayCompiledKB)
                # the served view answers exactly like a scratch facade
                outcome = engine.explain(*pair, k=3)
                fresh = Rex(scratch, size_limit=3).explain(*pair, k=3)
                assert _comparable(outcome.ranked) == _comparable(fresh)
        finally:
            engine.close()

    def test_parallel_replicas_match_sequential(self):
        """With parallelism=2 the worker replicas (rebuilt across writes,
        potentially from overlay payloads) must answer byte-identically to a
        sequential engine over the same KB history."""
        kb = clustered_kb(
            num_communities=3, community_size=10, intra_degree=3,
            inter_edges=8, seed=42,
        )
        entities = list(kb.entities)
        requests = [
            {"start": entities[i], "end": entities[i + 7], "k": 3}
            for i in range(0, 12, 2)
        ]
        writes = [
            [{"source": entities[1], "target": entities[20], "label": "rel0"}],
            [
                {"source": entities[3], "target": "par_novel_1", "label": "rel1"},
                {"source": "par_novel_1", "target": entities[9], "label": "rel1"},
            ],
        ]
        parallel = ExplanationEngine(kb.copy(), size_limit=3, parallelism=2)
        sequential = ExplanationEngine(kb.copy(), size_limit=3, parallelism=0)
        try:
            for batch in [None, *writes]:
                if batch is not None:
                    parallel.add_edges(batch)
                    sequential.add_edges(batch)
                par_results = parallel.explain_batch(requests)
                seq_results = sequential.explain_batch(requests)
                for par, seq in zip(par_results, seq_results):
                    assert _comparable(par.ranked) == _comparable(seq.ranked)
                    assert par.kb_version == seq.kb_version
        finally:
            parallel.close()
            sequential.close()


# Entities and labels the write sequences draw from: known ones, new ones,
# labels the paper schema declares undirected ("spouse", and "sibling" which
# no edge uses yet) and labels no schema knows.
_WRITE_ENTITIES = (
    "brad_pitt", "angelina_jolie", "tom_cruise", "nicole_kidman",
    "fresh_a", "fresh_b", "fresh_c",
)
_WRITE_LABELS = ("starring", "spouse", "sibling", "fresh_rel", "fresh_link")
_WRITE_EDGE = st.tuples(
    st.sampled_from(_WRITE_ENTITIES),
    st.sampled_from(_WRITE_ENTITIES),
    st.sampled_from(_WRITE_LABELS),
    st.sampled_from((None, True, False)),
).filter(lambda edge: edge[0] != edge[1])
# an earlier edge again: as written, reversed, or forced (un)directed — so
# duplicates, reversed undirected duplicates and directed/undirected twins
# with the same endpoints and label all occur
_WRITE_REPEAT = st.tuples(
    st.integers(min_value=0, max_value=63),
    st.sampled_from(("same", "reversed", "undirected", "directed")),
)
_WRITE_BATCHES = st.lists(
    st.lists(st.one_of(_WRITE_EDGE, _WRITE_REPEAT), min_size=1, max_size=4),
    min_size=1,
    max_size=6,
)


def _resolve_batch(ops, history: list) -> list[tuple[str, str, str, bool | None]]:
    batch = []
    for op in ops:
        if len(op) == 2:
            if not history:
                continue
            source, target, label, directed = history[op[0] % len(history)]
            if op[1] == "reversed":
                source, target = target, source
            elif op[1] == "undirected":
                directed = False
            elif op[1] == "directed":
                directed = True
            op = (source, target, label, directed)
        batch.append(op)
        history.append(op)
    return batch


class TestWritePathIdentity:
    """The view a write builds equals a compile of a KB that got the same
    ``add_edge`` calls: buffers, schema order, version, count and store."""

    @pytest.mark.parametrize(
        "compact_edges", [0, 3, DEFAULT_DELTA_COMPACT_EDGES]
    )
    @settings(
        max_examples=25,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(batches=_WRITE_BATCHES)
    def test_random_writes_match_a_mirror_kb(self, compact_edges, batches):
        mirror = paper_example_kb()
        history: list = []
        with tempfile.TemporaryDirectory() as scratch:
            engine = ExplanationEngine(
                paper_example_kb(),
                size_limit=3,
                store_path=Path(scratch) / "kb.sqlite3",
                delta_compact_edges=compact_edges,
            )
            try:
                for ops in batches:
                    batch = _resolve_batch(ops, history)
                    if not batch:
                        continue
                    edges_before = mirror.num_edges
                    summary = engine.add_edges(
                        [
                            {"source": s, "target": t, "label": l, "directed": d}
                            for s, t, l, d in batch
                        ]
                    )
                    for edge in batch:
                        mirror.add_edge(*edge)
                    view = engine.kb
                    expected = CompiledKB.compile(mirror).to_buffers()
                    assert view.to_buffers() == expected
                    assert [r.name for r in view.schema] == [
                        r.name for r in mirror.schema
                    ]
                    assert summary["kb_version"] == view.version == mirror.version
                    assert summary["added"] == mirror.num_edges - edges_before
                    if compact_edges == 0:
                        assert not isinstance(view, OverlayCompiledKB)
                    replayed = engine.store.load()
                    assert replayed.version == mirror.version
                    assert CompiledKB.compile(replayed).to_buffers() == expected
            finally:
                engine.close()


def _chain_kb(prefix: str, length: int, kb: KnowledgeBase | None = None) -> KnowledgeBase:
    kb = kb if kb is not None else KnowledgeBase()
    for i in range(length - 1):
        kb.add_edge(f"{prefix}{i}", f"{prefix}{i + 1}", "linked")
    return kb


class TestScopedInvalidation:
    def test_far_write_retains_cached_ranking(self):
        """A write beyond a cached pair's size_limit neighborhood must not
        cost that pair its cache entry — and the survivor must keep serving
        hits (no re-enumeration) at the new version."""
        kb = _chain_kb("a", 12)
        _chain_kb("b", 12, kb)
        engine = ExplanationEngine(kb, size_limit=3)
        try:
            engine.explain("a0", "a2", k=3)
            engine.explain("b0", "b2", k=3)
            enumerations = engine.metrics.counter("engine.enumerations").value
            # touches b10/b_far: 10 hops from b0, unreachable within size_limit 3
            summary = engine.add_edges(
                [{"source": "b10", "target": "b_far", "label": "linked"}]
            )
            assert summary["cache_retained"] == 2
            assert summary["cache_purged"] == 0
            for pair in (("a0", "a2"), ("b0", "b2")):
                outcome = engine.explain(*pair, k=3)
                assert outcome.cached is True
                assert outcome.kb_version == summary["kb_version"]
            assert (
                engine.metrics.counter("engine.enumerations").value == enumerations
            )
        finally:
            engine.close()

    def test_near_write_purges_only_the_touched_neighborhood(self):
        kb = _chain_kb("a", 12)
        _chain_kb("b", 12, kb)
        engine = ExplanationEngine(kb, size_limit=3)
        try:
            engine.explain("a0", "a2", k=3)
            engine.explain("b0", "b2", k=3)
            # a1 is 1 hop from a0: inside the a-pair's neighborhood
            summary = engine.add_edges(
                [{"source": "a1", "target": "a_new", "label": "linked"}]
            )
            assert summary["cache_purged"] == 1
            assert summary["cache_retained"] == 1
            assert engine.explain("b0", "b2", k=3).cached is True
            assert engine.explain("a0", "a2", k=3).cached is False
        finally:
            engine.close()

    def test_write_creating_a_shortcut_invalidates_through_new_edges(self):
        """The dirty frontier must be walked over the *merged* graph: a new
        edge can pull a previously distant region into a pair's
        neighborhood, and a second write there must purge the pair."""
        kb = _chain_kb("a", 12)
        _chain_kb("b", 12, kb)
        engine = ExplanationEngine(kb, size_limit=3)
        try:
            engine.explain("a0", "a2", k=3)
            # shortcut lands directly on a0: purges the pair outright
            first = engine.add_edges(
                [{"source": "a0", "target": "b6", "label": "linked"}]
            )
            assert first["cache_purged"] == 1
            engine.explain("a0", "a2", k=3)
            # b7 is now 2 hops from a0 *via the shortcut*; without merging
            # the delta into the BFS this write would wrongly be "far"
            second = engine.add_edges(
                [{"source": "b7", "target": "b_new", "label": "linked"}]
            )
            assert second["cache_purged"] == 1
            assert engine.explain("a0", "a2", k=3).cached is False
        finally:
            engine.close()

    def test_earlier_writes_do_not_widen_a_later_purge(self):
        """Only the batch being written can change an entry cached at the
        previous version: an entry cached after a write next to its start
        survives a later write far from it, and equals a fresh compute."""
        kb = _chain_kb("a", 12)
        _chain_kb("b", 12, kb)
        mirror = kb.copy()
        engine = ExplanationEngine(kb, size_limit=3)
        try:
            engine.explain("a0", "a2", k=3)
            near = engine.add_edges(
                [{"source": "a1", "target": "a_near", "label": "linked"}]
            )
            assert near["cache_purged"] == 1
            assert engine.explain("a0", "a2", k=3).cached is False
            far = engine.add_edges(
                [{"source": "b10", "target": "b_far", "label": "linked"}]
            )
            assert far["cache_retained"] == 1
            assert far["cache_purged"] == 0
            outcome = engine.explain("a0", "a2", k=3)
            assert outcome.cached is True
            assert outcome.kb_version == far["kb_version"]
            mirror.add_edge("a1", "a_near", "linked")
            mirror.add_edge("b10", "b_far", "linked")
            fresh = Rex(mirror, size_limit=3).explain("a0", "a2", k=3)
            assert _comparable(outcome.ranked) == _comparable(fresh)
        finally:
            engine.close()

    def test_global_measure_entries_never_survive(self):
        kb = _chain_kb("a", 12)
        _chain_kb("b", 12, kb)
        engine = ExplanationEngine(kb, size_limit=3)
        try:
            engine.explain("a0", "a2", measure="random-walk", k=3)
            engine.explain("b0", "b2", measure="size", k=3)
            summary = engine.add_edges(
                [{"source": "b10", "target": "b_far", "label": "linked"}]
            )
            # the local "size" entry survives; the global random-walk cannot
            assert summary["cache_retained"] == 1
            assert summary["cache_purged"] == 1
            assert engine.explain("b0", "b2", measure="size", k=3).cached is True
            assert (
                engine.explain("a0", "a2", measure="random-walk", k=3).cached is False
            )
        finally:
            engine.close()

    def test_surviving_entries_match_scratch_results(self):
        """Retention is only sound if the retained ranking equals what a
        from-scratch engine would compute at the new version."""
        kb = _chain_kb("a", 12)
        _chain_kb("b", 12, kb)
        mirror = kb.copy()
        engine = ExplanationEngine(kb, size_limit=3)
        try:
            engine.explain("b0", "b2", k=3)
            engine.add_edges([{"source": "b10", "target": "b_far", "label": "linked"}])
            outcome = engine.explain("b0", "b2", k=3)
            assert outcome.cached is True
            mirror.add_edge("b10", "b_far", "linked")
            fresh = Rex(mirror, size_limit=3).explain("b0", "b2", k=3)
            assert _comparable(outcome.ranked) == _comparable(fresh)
        finally:
            engine.close()


class _GatedStore(KnowledgeBaseStore):
    """A store whose commits block until the test releases them."""

    def __init__(self, path):
        super().__init__(path)
        self.entered = threading.Event()
        self.release = threading.Event()
        self.gate_next = False

    def append_batch(self, *args, **kwargs):
        if self.gate_next:
            self.gate_next = False
            self.entered.set()
            assert self.release.wait(timeout=30), "test never released the commit"
        return super().append_batch(*args, **kwargs)


class TestCommitOutsideReadPath:
    def test_readers_proceed_while_commit_is_in_flight(self, tmp_path):
        """The SQLite fsync must not run inside the writer lock.
        While one writer's commit is blocked on (simulated) disk, a reader
        must still be answered — against the already-applied new version."""
        store = _GatedStore(tmp_path / "kb.sqlite3")
        engine = ExplanationEngine(paper_example_kb(), store=store, size_limit=4)
        try:
            engine.explain("brad_pitt", "angelina_jolie", k=3)
            store.gate_next = True
            with ThreadPoolExecutor(max_workers=1) as pool:
                writer = pool.submit(
                    engine.add_edges,
                    [{"source": "gate_a", "target": "gate_b", "label": "award_won"}],
                )
                assert store.entered.wait(timeout=30)
                # the batch is applied and visible...
                assert engine.kb.has_entity("gate_a")
                # ...and reads complete while the commit is still in flight
                outcome = engine.explain("gate_a", "gate_b", k=3)
                assert outcome.kb_version == engine.kb_version
                assert not writer.done(), "ack must wait for the commit"
                store.release.set()
                result = writer.result(timeout=30)
            assert result["durable"] is True
            assert store.last_version() == result["kb_version"]
        finally:
            engine.close()

    def test_concurrent_writers_commit_in_version_order(self, tmp_path):
        store = KnowledgeBaseStore(tmp_path / "kb.sqlite3")
        engine = ExplanationEngine(paper_example_kb(), store=store, size_limit=4)
        try:
            def write(i):
                return engine.add_edges(
                    [{"source": f"w{i}_a", "target": f"w{i}_b", "label": "award_won"}]
                )

            with ThreadPoolExecutor(max_workers=4) as pool:
                results = [f.result() for f in [pool.submit(write, i) for i in range(8)]]
            assert all(r["durable"] for r in results)
            assert store.last_version() == engine.kb_version
            # the store replays to exactly the live KB
            replayed = store.load()
            assert replayed.version == engine.kb_version
            assert [e.key() for e in replayed.edges()] == [
                e.key() for e in engine.kb.edges()
            ]
        finally:
            engine.close()


class TestSingleFlightUnderWrites:
    def test_hammer_readers_against_writer(self):
        """Coalesced readers racing a writer must always observe a ranking
        consistent with *some* KB version that actually existed — never a
        torn result or a stale entry served beyond its version."""
        mirror = paper_example_kb()
        engine = ExplanationEngine(paper_example_kb(), size_limit=4)
        snapshots: dict[int, KnowledgeBase] = {}
        snapshots[engine.kb_version] = mirror.copy()
        outcomes = []
        outcomes_lock = threading.Lock()
        stop = threading.Event()
        errors = []

        def reader():
            try:
                while not stop.is_set():
                    outcome = engine.explain("brad_pitt", "angelina_jolie", k=3)
                    with outcomes_lock:
                        outcomes.append((outcome.kb_version, _comparable(outcome.ranked)))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        def writer():
            try:
                for i in range(12):
                    summary = engine.add_edges(
                        [
                            {
                                "source": "brad_pitt",
                                "target": f"hammer_{i}",
                                "label": "award_won",
                            }
                        ]
                    )
                    mirror.add_edge("brad_pitt", f"hammer_{i}", "award_won")
                    assert summary["kb_version"] == mirror.version
                    snapshots[mirror.version] = mirror.copy()
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        write_thread = threading.Thread(target=writer)
        for thread in threads:
            thread.start()
        write_thread.start()
        write_thread.join(timeout=60)
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert engine._inflight == {}, "in-flight slots must not leak"
        expected_cache: dict[int, list] = {}
        for version, ranked in outcomes:
            assert version in snapshots, "outcome labelled with a phantom version"
            if version not in expected_cache:
                expected_cache[version] = _comparable(
                    Rex(snapshots[version], size_limit=4).explain(
                        "brad_pitt", "angelina_jolie", k=3
                    )
                )
            assert ranked == expected_cache[version]
        engine.close()


class TestWarmupRestart:
    def test_mid_warmup_write_restarts_stale_pairs(self):
        pairs = [
            ("tom_cruise", "nicole_kidman"),
            ("brad_pitt", "angelina_jolie"),
            ("kate_winslet", "leonardo_dicaprio"),
        ]

        class _WriteOnce(ExplanationEngine):
            wrote = False

            def explain(self, *args, **kwargs):
                outcome = super().explain(*args, **kwargs)
                if not self.wrote:
                    # lands between warmup pairs: bumps the version and (the
                    # edge hits tom_cruise directly) purges the first entry
                    type(self).wrote = True
                    self.add_edges(
                        [
                            {
                                "source": "tom_cruise",
                                "target": "warmup_intruder",
                                "label": "award_won",
                            }
                        ]
                    )
                return outcome

        engine = _WriteOnce(paper_example_kb(), size_limit=4)
        try:
            summary = engine.warmup(pairs, k=3)
            assert summary["restarts"] == 1
            # 3 first-pass warms + 1 re-warm of the purged first pair
            assert summary["warmed"] == 4
            assert engine.metrics.counter("engine.warmup_restarts").value == 1
            enumerations = engine.metrics.counter("engine.enumerations").value
            for pair in pairs:
                assert engine.explain(*pair, k=3).cached is True
            assert engine.metrics.counter("engine.enumerations").value == enumerations
        finally:
            engine.close()

    def test_write_free_warmup_never_restarts(self):
        engine = ExplanationEngine(paper_example_kb(), size_limit=4)
        try:
            summary = engine.warmup(
                [("tom_cruise", "nicole_kidman"), ("brad_pitt", "angelina_jolie")],
                k=3,
            )
            assert summary["restarts"] == 0
            assert engine.metrics.counter("engine.warmup_restarts").value == 0
        finally:
            engine.close()
