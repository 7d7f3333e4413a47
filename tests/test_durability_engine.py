"""Engine-level durability behaviour (in-process, no subprocess crashes).

Covers the recovery ladder and the degraded-mode contract of
``ExplanationEngine`` with a store and checkpoint directory attached:

* restarts replay the store (or fast-boot from the checkpoint with zero
  recompiles) and land on the exact persisted version;
* a checkpoint-booted engine's first write extends the restored view (no
  thaw back to a mutable KB);
* storage failures degrade writes (``durable: false``) and the health
  report, but reads keep being served from memory — never an exception;
* ``close()`` is idempotent and flushes a final checkpoint;
* with parallelism, pool rebuilds ship the on-disk checkpoint path instead
  of plane buffers, and answers match the sequential engine exactly.
"""

from __future__ import annotations

import pytest

from faultinject import broken_checkpoint_fs, flaky_connection_factory
from repro.errors import RexError
from repro.kb import KnowledgeBaseStore, checkpoint_info
from repro.service import ExplanationEngine
from repro.service.serialize import outcome_to_dict
from repro.workloads import clustered_kb, sample_request_stream

SIZE_LIMIT = 4


def _comparable(outcome) -> dict:
    payload = outcome_to_dict(outcome)
    for volatile in ("elapsed_s", "cached", "coalesced"):
        payload.pop(volatile, None)
    return payload


@pytest.fixture()
def kb():
    return clustered_kb(num_communities=3, community_size=14, seed=21)


@pytest.fixture()
def dirs(tmp_path):
    return tmp_path / "kb.sqlite3", tmp_path / "checkpoints"


class TestRecoveryLadder:
    def test_bootstrap_then_store_replay(self, kb, dirs):
        db, _ = dirs
        first = ExplanationEngine(kb.copy(), store_path=db, size_limit=SIZE_LIMIT)
        assert first.boot_info["source"] == "seed"
        version = first.add_edges(
            [{"source": "r1", "target": "r2", "label": "rel0"}]
        )["kb_version"]
        first.close()

        second = ExplanationEngine(kb.copy(), store_path=db, size_limit=SIZE_LIMIT)
        assert second.boot_info["source"] == "store"
        assert second.kb_version == version
        second.close()

    def test_checkpoint_fast_boot_skips_recompile(self, kb, dirs):
        db, ckdir = dirs
        first = ExplanationEngine(
            kb.copy(), store_path=db, checkpoint_dir=ckdir, size_limit=SIZE_LIMIT
        )
        first.checkpoint()
        request = sample_request_stream(kb, 1, seed=3)[0]
        expected = _comparable(first.explain(request["start"], request["end"]))
        first.close()

        second = ExplanationEngine(
            kb.copy(), store_path=db, checkpoint_dir=ckdir, size_limit=SIZE_LIMIT
        )
        assert second.boot_info["source"] == "checkpoint"
        outcome = second.explain(request["start"], request["end"])
        # the whole point of the checkpoint: zero compile work on the boot path
        assert second.metrics.counter("engine.kb_compiles").value == 0
        assert _comparable(outcome) == expected
        second.close()

    def test_corrupt_checkpoint_falls_back_to_store(self, kb, dirs):
        db, ckdir = dirs
        first = ExplanationEngine(
            kb.copy(), store_path=db, checkpoint_dir=ckdir, size_limit=SIZE_LIMIT
        )
        first.checkpoint()
        version = first.kb_version
        first.close()

        path = ckdir / "kb.ckpt"
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))

        second = ExplanationEngine(
            kb.copy(), store_path=db, checkpoint_dir=ckdir, size_limit=SIZE_LIMIT
        )
        assert second.boot_info["source"] == "store"
        assert "checkpoint_rejected" in second.boot_info
        assert second.kb_version == version
        assert second.metrics.counter("engine.checkpoint_rejected").value == 1
        second.close()

    def test_checkpoint_written_on_version_bump(self, kb, dirs):
        db, ckdir = dirs
        engine = ExplanationEngine(
            kb.copy(), store_path=db, checkpoint_dir=ckdir, size_limit=SIZE_LIMIT
        )
        engine.add_edges([{"source": "v1", "target": "v2", "label": "rel0"}])
        request = sample_request_stream(kb, 1, seed=4)[0]
        engine.explain(request["start"], request["end"])
        version = engine.kb_version
        engine.close()  # close() joins the writer / flushes the final image
        assert checkpoint_info(ckdir / "kb.ckpt")["kb_version"] == version


class TestWritesAndThaw:
    def test_thaw_on_first_write_after_checkpoint_boot(self, kb, dirs):
        db, ckdir = dirs
        first = ExplanationEngine(
            kb.copy(), store_path=db, checkpoint_dir=ckdir, size_limit=SIZE_LIMIT
        )
        first.checkpoint()
        first.close()

        second = ExplanationEngine(
            kb.copy(), store_path=db, checkpoint_dir=ckdir, size_limit=SIZE_LIMIT
        )
        assert second.boot_info["source"] == "checkpoint"
        before = second.kb_version
        result = second.add_edges(
            [{"source": "t1", "target": "t2", "label": "rel0"}]
        )
        assert result["durable"] is True
        assert result["kb_version"] == before + 3  # 2 new entities + 1 edge
        # the write survives another restart
        second.close()
        third = ExplanationEngine(kb.copy(), store_path=db, size_limit=SIZE_LIMIT)
        assert third.kb_version == result["kb_version"]
        third.close()

    def test_duplicate_batch_is_durable_noop(self, kb, dirs):
        db, _ = dirs
        engine = ExplanationEngine(kb.copy(), store_path=db, size_limit=SIZE_LIMIT)
        batch = [{"source": "d1", "target": "d2", "label": "rel0"}]
        engine.add_edges(batch)
        repeat = engine.add_edges(batch)
        assert repeat["added"] == 0
        assert repeat["durable"] is True
        engine.close()

    def test_memory_mode_reports_not_durable(self, kb):
        engine = ExplanationEngine(kb.copy(), size_limit=SIZE_LIMIT)
        assert engine.durability()["mode"] == "memory"
        result = engine.add_edges(
            [{"source": "m1", "target": "m2", "label": "rel0"}]
        )
        assert result["durable"] is False
        engine.close()


class TestDegradedMode:
    def test_store_failure_degrades_but_serves(self, kb, dirs):
        db, _ = dirs
        # budget 2: schema init + bootstrap commit, first append fails
        store = KnowledgeBaseStore(db, connection_factory=flaky_connection_factory(2))
        engine = ExplanationEngine(kb.copy(), store=store, size_limit=SIZE_LIMIT)
        assert engine.durability()["mode"] == "durable"

        result = engine.add_edges(
            [{"source": "deg1", "target": "deg2", "label": "rel0"}]
        )
        assert result["durable"] is False
        durability = engine.durability()
        assert durability["mode"] == "degraded"
        assert "injected commit failure" in durability["store_error"]

        # reads keep working from memory, including the freshly added edge
        outcome = engine.explain("deg1", "deg2")
        assert outcome.ranked
        engine.close()

    def test_checkpoint_write_failure_degrades(self, kb, dirs):
        db, ckdir = dirs
        engine = ExplanationEngine(
            kb.copy(), store_path=db, checkpoint_dir=ckdir, size_limit=SIZE_LIMIT
        )
        with broken_checkpoint_fs(fail_replace=True):
            with pytest.raises(Exception):
                engine.checkpoint()
        durability = engine.durability()
        assert durability["mode"] == "degraded"
        assert durability["checkpoint_error"]
        # a later successful checkpoint clears the degradation
        engine.checkpoint()
        assert engine.durability()["mode"] == "durable"
        engine.close()

    def test_store_and_store_path_are_mutually_exclusive(self, kb, dirs):
        db, _ = dirs
        store = KnowledgeBaseStore(db)
        try:
            with pytest.raises(RexError):
                ExplanationEngine(kb.copy(), store=store, store_path=db)
        finally:
            store.close()


class TestLifecycle:
    def test_close_is_idempotent(self, kb, dirs):
        db, ckdir = dirs
        engine = ExplanationEngine(
            kb.copy(), store_path=db, checkpoint_dir=ckdir, size_limit=SIZE_LIMIT
        )
        engine.close()
        engine.close()

    def test_close_flushes_final_checkpoint(self, kb, dirs):
        db, ckdir = dirs
        engine = ExplanationEngine(
            kb.copy(), store_path=db, checkpoint_dir=ckdir, size_limit=SIZE_LIMIT
        )
        version = engine.add_edges(
            [{"source": "c1", "target": "c2", "label": "rel0"}]
        )["kb_version"]
        engine.close()
        info = checkpoint_info(ckdir / "kb.ckpt")
        assert info["complete"] is True
        assert info["kb_version"] == version


class TestParallelCheckpointShipping:
    def test_pool_ships_checkpoint_path_and_answers_match(self, kb, dirs):
        db, ckdir = dirs
        seeded = ExplanationEngine(
            kb.copy(), store_path=db, checkpoint_dir=ckdir, size_limit=SIZE_LIMIT
        )
        seeded.checkpoint()
        seeded.close()

        requests = sample_request_stream(kb, 6, seed=8)
        parallel = ExplanationEngine(
            kb.copy(), store_path=db, checkpoint_dir=ckdir,
            size_limit=SIZE_LIMIT, parallelism=2,
        )
        assert parallel.boot_info["source"] == "checkpoint"
        parallel_outcomes = parallel.explain_batch(requests)
        ships = parallel.stats()["parallel"]["checkpoint_ships"]
        assert ships >= 1
        parallel.close()

        sequential = ExplanationEngine(kb.copy(), size_limit=SIZE_LIMIT)
        sequential_outcomes = sequential.explain_batch(requests)
        sequential.close()

        assert [_comparable(o) for o in parallel_outcomes] == [
            _comparable(o) for o in sequential_outcomes
        ]

    def test_writes_ship_the_checkpointed_base_plus_delta(self, kb, dirs):
        """After writes, rebuilds ship the checkpointed root base by path and
        the overlay delta by value; compactions move the checkpoint on.  No
        version bump books a worker crash, and every answer matches a
        sequential engine fed the same writes."""
        db, ckdir = dirs
        requests = sample_request_stream(kb, 6, seed=12)
        anchors = [request["start"] for request in requests]
        parallel = ExplanationEngine(
            kb.copy(), store_path=db, checkpoint_dir=ckdir,
            size_limit=SIZE_LIMIT, parallelism=2, delta_compact_edges=3,
        )
        sequential = ExplanationEngine(kb.copy(), size_limit=SIZE_LIMIT)
        try:
            parallel.checkpoint()  # the boot view's checkpoint, on disk now
            for round_ in range(5):
                batch = [
                    {"source": anchors[round_], "target": f"ship_{round_}",
                     "label": "rel0"},
                    {"source": f"ship_{round_}", "target": anchors[round_ + 1],
                     "label": "rel1"},
                ]
                assert (
                    parallel.add_edges(batch)["kb_version"]
                    == sequential.add_edges(batch)["kb_version"]
                )
                got = parallel.explain_batch(requests)
                expected = sequential.explain_batch(requests)
                assert [_comparable(o) for o in got] == [
                    _comparable(o) for o in expected
                ]
            stats = parallel.stats()["parallel"]
            assert stats["worker_crashes"] == 0
            assert stats["recycles"] >= 4
            assert stats["checkpoint_ships"] >= 2
            assert parallel.metrics.counter("engine.delta_compactions").value >= 1
        finally:
            parallel.close()
            sequential.close()
