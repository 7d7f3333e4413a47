"""Tests for the concurrent, caching explanation engine."""

from __future__ import annotations

import gc
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import Rex
from repro.datasets.paper_example import PAPER_PAIRS, paper_example_kb
from repro.errors import RexError, UnknownEntityError
from repro.kb.store import KnowledgeBaseStore
from repro.measures.base import Measure
from repro.service.engine import ExplanationEngine


@pytest.fixture()
def engine():
    """A fresh engine over a private copy of the paper KB (mutation tests)."""
    return ExplanationEngine(paper_example_kb(), size_limit=4)


def _counter(engine: ExplanationEngine, name: str) -> int:
    return engine.metrics.counter(name).value


class SlowSizeMeasure(Measure):
    """A measure that blocks in ``raw_value`` until the test releases it.

    Scoring happens inside the leader's enumeration+ranking computation, so
    holding this gate open keeps the leader in flight while the hammer
    threads pile onto the same key.
    """

    name = "slow-size"

    def __init__(self) -> None:
        self.gate = threading.Event()
        self.entered = threading.Event()

    def raw_value(self, kb, explanation, v_start, v_end) -> float:
        self.entered.set()
        assert self.gate.wait(timeout=30), "test never released the gate"
        return -float(explanation.size)


class TestExplainBasics:
    def test_matches_the_facade(self, engine, paper_kb):
        facade = Rex(paper_kb, size_limit=4)
        expected = facade.explain("tom_cruise", "nicole_kidman", k=3)
        outcome = engine.explain("tom_cruise", "nicole_kidman", k=3)
        assert list(outcome.ranked) == expected
        assert outcome.cached is False
        assert outcome.kb_version == engine.kb_version

    def test_unknown_entity_raises(self, engine):
        with pytest.raises(UnknownEntityError):
            engine.explain("nobody", "brad_pitt")

    def test_unknown_measure_raises_and_counts(self, engine):
        with pytest.raises(RexError):
            engine.explain("brad_pitt", "angelina_jolie", measure="bogus")
        assert _counter(engine, "engine.errors") == 1

    def test_invalid_k_rejected_at_facade_boundary(self, engine):
        with pytest.raises(RexError, match="positive integer"):
            engine.explain("brad_pitt", "angelina_jolie", k=0)

    def test_batch_mixes_answers_and_errors(self, engine):
        results = engine.explain_batch(
            [
                {"start": "tom_cruise", "end": "nicole_kidman", "k": 2},
                {"start": "tom_cruise"},  # missing 'end'
                {"start": "tom_cruise", "end": "nicole_kidman", "measure": "bogus"},
            ]
        )
        assert len(results) == 3
        assert not isinstance(results[0], RexError)
        assert isinstance(results[1], RexError)
        assert isinstance(results[2], RexError)


class TestCaching:
    def test_cache_hit_skips_enumeration(self, engine):
        """The acceptance criterion: hits provably never re-enumerate."""
        first = engine.explain("brad_pitt", "angelina_jolie", k=5)
        assert _counter(engine, "engine.enumerations") == 1
        for _ in range(10):
            outcome = engine.explain("brad_pitt", "angelina_jolie", k=5)
            assert outcome.cached is True
            assert outcome.ranked is first.ranked  # the very same tuple
        assert _counter(engine, "engine.enumerations") == 1
        assert _counter(engine, "engine.cache_hits") == 10

    def test_different_parameters_are_different_entries(self, engine):
        engine.explain("brad_pitt", "angelina_jolie", k=3)
        engine.explain("brad_pitt", "angelina_jolie", k=5)
        engine.explain("brad_pitt", "angelina_jolie", k=3, measure="count")
        assert _counter(engine, "engine.enumerations") == 3

    def test_kb_mutation_invalidates(self, engine):
        engine.explain("brad_pitt", "angelina_jolie", k=3)
        version_before = engine.kb_version
        summary = engine.add_edges(
            [{"source": "brad_pitt", "target": "angelina_jolie", "label": "award_won"}]
        )
        assert summary["added"] == 1
        assert summary["kb_version"] > version_before
        assert summary["cache_purged"] == 1
        outcome = engine.explain("brad_pitt", "angelina_jolie", k=3)
        assert outcome.cached is False
        assert _counter(engine, "engine.enumerations") == 2

    def test_new_edge_is_visible_after_update(self, engine):
        engine.add_edges(
            [{"source": "connie_nielsen", "target": "brad_pitt", "label": "spouse"}]
        )
        outcome = engine.explain("brad_pitt", "connie_nielsen", k=3)
        labels = {
            edge.label
            for entry in outcome.ranked
            for edge in entry.explanation.pattern.edges
        }
        assert "spouse" in labels

    def test_add_edges_rejects_incomplete_edge(self, engine):
        with pytest.raises(RexError, match="label"):
            engine.add_edges([{"source": "a", "target": "b"}])

    def test_rejected_batch_is_atomic(self, engine):
        """A bad edge anywhere in the batch must leave the KB untouched."""
        version = engine.kb_version
        edges_before = engine.kb.num_edges
        with pytest.raises(RexError, match="self-loop"):
            engine.add_edges(
                [
                    {"source": "x", "target": "y", "label": "knows"},  # valid
                    {"source": "z", "target": "z", "label": "knows"},  # self-loop
                ]
            )
        assert engine.kb_version == version
        assert engine.kb.num_edges == edges_before
        assert not engine.kb.has_entity("x")

    def test_batch_rejects_non_mapping_items_inline(self, engine):
        results = engine.explain_batch(["not-an-object"])
        assert isinstance(results[0], RexError)

    def test_batch_tolerates_unhashable_parameters_inline(self, engine):
        """An unhashable k (would break the cache key) must stay a per-item
        error, not a TypeError that kills the sibling requests."""
        results = engine.explain_batch(
            [
                {"start": "tom_cruise", "end": "nicole_kidman", "k": [5]},
                {"start": "tom_cruise", "end": "nicole_kidman", "k": 2},
            ]
        )
        assert isinstance(results[0], RexError)
        assert not isinstance(results[1], RexError)

    @pytest.mark.parametrize(
        "request_kwargs",
        [
            {"v_start": ["brad_pitt"], "v_end": "angelina_jolie"},
            {"v_start": "brad_pitt", "v_end": "angelina_jolie", "measure": ["size"]},
            {"v_start": "brad_pitt", "v_end": "angelina_jolie", "size_limit": "4"},
        ],
    )
    def test_non_string_request_types_raise_rex_error(self, engine, request_kwargs):
        with pytest.raises(RexError):
            engine.explain(**request_kwargs)

    def test_rejected_batch_with_non_string_field_is_atomic(self, engine):
        edges_before = engine.kb.num_edges
        with pytest.raises(RexError, match="non-empty"):
            engine.add_edges(
                [
                    {"source": "zz1", "target": "zz2", "label": "x"},
                    {"source": 1, "target": 2, "label": "y"},
                ]
            )
        assert engine.kb.num_edges == edges_before
        assert not engine.kb.has_entity("zz1")

    def test_directed_must_be_a_boolean(self, engine):
        with pytest.raises(RexError, match="boolean"):
            engine.add_edges(
                [
                    {
                        "source": "aa",
                        "target": "bb",
                        "label": "rel",
                        "directed": "undirected",
                    }
                ]
            )
        assert not engine.kb.has_entity("aa")

    def test_boolean_directed_is_respected(self, engine):
        engine.add_edges(
            [{"source": "aa", "target": "bb", "label": "rel", "directed": False}]
        )
        (edge,) = [e for e in engine.kb.edges() if e.label == "rel"]
        assert edge.directed is False

    def test_added_count_excludes_duplicates(self, engine):
        """'added' reports actual new edges, not batch length."""
        first = engine.add_edges([{"source": "aa", "target": "bb", "label": "rel"}])
        assert first["added"] == 1
        second = engine.add_edges(
            [
                {"source": "aa", "target": "bb", "label": "rel"},  # duplicate
                {"source": "aa", "target": "cc", "label": "rel"},  # new
            ]
        )
        assert second["added"] == 1
        assert second["kb_version"] > first["kb_version"]

    def test_write_does_not_wait_for_inflight_enumeration(self, engine):
        """Reads take no lock: a write completes while an enumeration is in
        flight, and the reader finishes on the view it started with."""
        from concurrent.futures import ThreadPoolExecutor

        version_before = engine.kb_version
        measure = SlowSizeMeasure()
        with ThreadPoolExecutor(max_workers=2) as pool:
            reader = pool.submit(
                engine.explain, "brad_pitt", "angelina_jolie", measure, 3
            )
            assert measure.entered.wait(timeout=30)
            # the reader is parked inside the computation; the write lands
            summary = engine.add_edges(
                [{"source": "brad_pitt", "target": "q", "label": "knows"}]
            )
            assert summary["added"] == 1
            assert engine.kb.has_entity("q")
            measure.gate.set()
            outcome = reader.result(timeout=30)
        # labelled with, and computed on, the version it started on
        assert outcome.kb_version == version_before < summary["kb_version"]
        reference = SlowSizeMeasure()
        reference.gate.set()
        expected = Rex(paper_example_kb(), size_limit=4).explain(
            "brad_pitt", "angelina_jolie", measure=reference, k=3
        )
        assert [entry.explanation.pattern for entry in outcome.ranked] == [
            entry.explanation.pattern for entry in expected
        ]
        assert engine._inflight == {}, "in-flight slots must not leak"


class TestWarmup:
    def test_warmup_precomputes_paper_pairs(self, engine):
        summary = engine.warmup(PAPER_PAIRS, k=5)
        assert summary["warmed"] == len(PAPER_PAIRS)
        assert summary["skipped"] == 0
        enumerations = _counter(engine, "engine.enumerations")
        for start, end in PAPER_PAIRS:
            assert engine.explain(start, end, k=5).cached is True
        assert _counter(engine, "engine.enumerations") == enumerations

    def test_warmup_skips_unknown_pairs(self, engine):
        summary = engine.warmup([("brad_pitt", "no_such_entity")], k=5)
        assert summary == {
            "warmed": 0,
            "skipped": 1,
            "restarts": 0,
            "elapsed_s": summary["elapsed_s"],
        }


class TestSingleFlight:
    def test_hammer_coalesces_concurrent_identical_requests(self, engine):
        """N threads, one slow computation: exactly one enumeration runs and
        the other callers are recorded as coalesced by the metrics counters."""
        measure = SlowSizeMeasure()
        hammers = 8
        outcomes = []

        def request():
            return engine.explain(
                "brad_pitt", "angelina_jolie", measure=measure, k=3
            )

        with ThreadPoolExecutor(max_workers=hammers) as pool:
            leader = pool.submit(request)
            assert measure.entered.wait(timeout=30)
            # the leader is now blocked mid-computation; pile on
            followers = [pool.submit(request) for _ in range(hammers - 1)]
            # wait until every follower is parked on the in-flight slot
            deadline = threading.Event()
            for _ in range(500):
                if engine.metrics.counter("engine.coalesced").value == hammers - 1:
                    break
                deadline.wait(0.01)
            measure.gate.set()
            outcomes.append(leader.result(timeout=30))
            outcomes.extend(f.result(timeout=30) for f in followers)

        assert _counter(engine, "engine.enumerations") == 1
        assert _counter(engine, "engine.coalesced") == hammers - 1
        reference = outcomes[0].ranked
        assert all(outcome.ranked == reference for outcome in outcomes)
        coalesced_flags = [outcome.coalesced for outcome in outcomes]
        assert coalesced_flags.count(True) == hammers - 1
        assert engine._inflight == {}, "in-flight slots must not leak"

    def test_leader_error_propagates_to_waiters(self, engine):
        class ExplodingMeasure(SlowSizeMeasure):
            name = "exploding"

            def raw_value(self, kb, explanation, v_start, v_end) -> float:
                self.entered.set()
                assert self.gate.wait(timeout=30)
                raise RexError("boom")

        measure = ExplodingMeasure()
        with ThreadPoolExecutor(max_workers=2) as pool:
            leader = pool.submit(
                engine.explain, "brad_pitt", "angelina_jolie", measure, 3
            )
            assert measure.entered.wait(timeout=30)
            follower = pool.submit(
                engine.explain, "brad_pitt", "angelina_jolie", measure, 3
            )
            for _ in range(500):
                if engine.metrics.counter("engine.coalesced").value == 1:
                    break
                threading.Event().wait(0.01)
            measure.gate.set()
            with pytest.raises(RexError, match="boom"):
                leader.result(timeout=30)
            with pytest.raises(RexError, match="boom"):
                follower.result(timeout=30)
        # a failed computation must not leave a poisoned in-flight slot
        outcome = engine.explain("brad_pitt", "angelina_jolie", k=3)
        assert outcome.ranked

    def test_followers_get_their_own_exception_copy(self, engine):
        """Waiters must not raise the leader's exception instance (its
        traceback would be rebound concurrently across threads)."""
        import copy
        from concurrent.futures import ThreadPoolExecutor

        class ExplodingMeasure(SlowSizeMeasure):
            name = "exploding-copy"

            def raw_value(self, kb, explanation, v_start, v_end) -> float:
                self.entered.set()
                assert self.gate.wait(timeout=30)
                raise RexError("boom")

        measure = ExplodingMeasure()
        with ThreadPoolExecutor(max_workers=2) as pool:
            leader = pool.submit(
                engine.explain, "brad_pitt", "angelina_jolie", measure, 3
            )
            assert measure.entered.wait(timeout=30)
            follower = pool.submit(
                engine.explain, "brad_pitt", "angelina_jolie", measure, 3
            )
            for _ in range(500):
                if engine.metrics.counter("engine.coalesced").value == 1:
                    break
                threading.Event().wait(0.01)
            coalesced = engine.metrics.counter("engine.coalesced").value
            measure.gate.set()
            leader_error = leader.exception(timeout=30)
            follower_error = follower.exception(timeout=30)
        assert isinstance(leader_error, RexError)
        assert isinstance(follower_error, RexError)
        if coalesced:  # the follower actually joined the leader's flight
            assert follower_error is not leader_error
            assert follower_error.__cause__ is leader_error

    def test_unknown_entity_error_copies_cleanly(self):
        """copy/pickle must rebuild from the constructor argument, not the
        formatted message (no double-wrapping)."""
        import copy

        original = UnknownEntityError("ghost")
        clone = copy.copy(original)
        assert type(clone) is UnknownEntityError
        assert clone.entity == "ghost"
        assert str(clone) == str(original)


class TestDeadLeaderRecovery:
    """Regression: a leader that dies without publishing must not strand
    its followers on an event nobody will ever set."""

    PAIR = ("brad_pitt", "angelina_jolie")

    def _plant_flight(self, engine, leader_thread):
        """Register an in-flight slot for PAIR/k=3 exactly as explain would."""
        from repro.service.engine import _InFlight

        from repro.service.engine import DEFAULT_MEASURE

        measure_obj, effective_limit = engine._validate_request(
            *self.PAIR, DEFAULT_MEASURE, 3, None
        )
        key = (*self.PAIR, measure_obj.name, 3, effective_limit)
        flight_key = (engine.kb_version, *key)
        flight = _InFlight()
        flight.leader_thread = leader_thread
        engine._inflight[flight_key] = flight
        return flight, flight_key

    def test_follower_takes_over_a_dead_leader(self, engine):
        dead = threading.Thread(target=lambda: None)
        dead.start()
        dead.join()
        assert not dead.is_alive()
        flight, _ = self._plant_flight(engine, dead)

        # this call coalesces onto the planted flight, detects the dead
        # leader within one wait slice, and computes the answer itself
        outcome = engine.explain(*self.PAIR, k=3)
        assert outcome.ranked
        assert outcome.coalesced is True
        assert _counter(engine, "engine.leader_takeovers") == 1
        assert flight.event.is_set()
        assert flight.outcome == outcome.ranked
        assert engine._inflight == {}, "the dead flight's slot must be freed"

    def test_exactly_one_follower_takes_over(self, engine):
        dead = threading.Thread(target=lambda: None)
        dead.start()
        dead.join()
        self._plant_flight(engine, dead)

        followers = 4
        with ThreadPoolExecutor(max_workers=followers) as pool:
            futures = [
                pool.submit(engine.explain, *self.PAIR, k=3)
                for _ in range(followers)
            ]
            outcomes = [f.result(timeout=30) for f in futures]
        reference = outcomes[0].ranked
        assert all(outcome.ranked == reference for outcome in outcomes)
        # one follower recomputed, the rest consumed its published result
        assert _counter(engine, "engine.leader_takeovers") == 1
        assert _counter(engine, "engine.enumerations") == 1
        assert engine._inflight == {}

    def test_follower_recomputes_when_leader_died_of_its_own_deadline(
        self, engine
    ):
        from repro.errors import DeadlineExceeded

        # the main thread plays a live leader so the follower keeps waiting
        flight, flight_key = self._plant_flight(
            engine, threading.current_thread()
        )
        with ThreadPoolExecutor(max_workers=1) as pool:
            follower = pool.submit(engine.explain, *self.PAIR, k=3)
            for _ in range(500):
                if _counter(engine, "engine.coalesced") == 1:
                    break
                threading.Event().wait(0.01)
            # leader publishes a deadline failure — but that 504 describes
            # the *leader's* budget; the follower has no deadline at all
            flight.error = DeadlineExceeded(1e-9)
            engine._inflight.pop(flight_key, None)
            flight.event.set()
            outcome = follower.result(timeout=30)
        assert outcome.ranked
        assert outcome.coalesced is True
        assert _counter(engine, "engine.leader_takeovers") == 1

    def test_follower_with_spent_budget_gives_up_without_waiting(self, engine):
        from repro.errors import DeadlineExceeded

        flight, flight_key = self._plant_flight(
            engine, threading.current_thread()
        )
        try:
            with pytest.raises(DeadlineExceeded):
                engine.explain(*self.PAIR, k=3, deadline_s=1e-9)
        finally:
            engine._inflight.pop(flight_key, None)
            flight.event.set()
        assert _counter(engine, "engine.deadline_exceeded") == 1


class TestStats:
    def test_stats_shape(self, engine):
        engine.explain("brad_pitt", "angelina_jolie", k=2)
        stats = engine.stats()
        assert stats["kb"]["version"] == engine.kb_version
        assert stats["cache"]["size"] == 1
        assert stats["counters"]["engine.requests"] == 1
        assert stats["histograms"]["engine.explain_latency"]["count"] == 1


def _collected(ref: weakref.ref) -> bool:
    gc.collect()
    return ref() is None


class TestBootKbReleased:
    """The engine serves its compiled view and keeps no reference to the KB
    it was given, nor to a KB it replayed from its store."""

    def test_seed_boot(self):
        kb = paper_example_kb()
        ref = weakref.ref(kb)
        engine = ExplanationEngine(kb, size_limit=4)
        del kb
        try:
            assert _collected(ref)
            engine.explain("brad_pitt", "angelina_jolie", k=3)
            engine.add_edges([{"source": "brad_pitt", "target": "q", "label": "knows"}])
            assert engine.kb.has_entity("q")
        finally:
            engine.close()

    def test_store_bootstrap(self, tmp_path):
        kb = paper_example_kb()
        ref = weakref.ref(kb)
        engine = ExplanationEngine(kb, size_limit=4, store_path=tmp_path / "kb.db")
        del kb
        try:
            assert engine.boot_info["source"] == "seed"
            assert _collected(ref)
        finally:
            engine.close()

    def test_store_replay(self, tmp_path, monkeypatch):
        db = tmp_path / "kb.db"
        first = ExplanationEngine(paper_example_kb(), size_limit=4, store_path=db)
        first.add_edges([{"source": "brad_pitt", "target": "q", "label": "knows"}])
        first.close()
        replayed: list[weakref.ref] = []
        load = KnowledgeBaseStore.load

        def recording_load(store):
            loaded = load(store)
            replayed.append(weakref.ref(loaded))
            return loaded

        monkeypatch.setattr(KnowledgeBaseStore, "load", recording_load)
        seed = paper_example_kb()
        ref = weakref.ref(seed)
        engine = ExplanationEngine(seed, size_limit=4, store_path=db)
        del seed
        try:
            assert engine.boot_info["source"] == "store"
            assert engine.kb.has_entity("q")
            assert len(replayed) == 1
            assert _collected(ref)
            assert _collected(replayed[0])
        finally:
            engine.close()
