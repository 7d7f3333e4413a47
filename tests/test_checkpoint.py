"""Atomic compiled-plane checkpoints (``repro.kb.checkpoint``).

The contract under test: a checkpoint on disk is either a complete,
checksum-verified image of the compiled planes at one KB version, or it is
rejected at load time — there is no state in which a torn, truncated,
corrupted or stale file is served.  Write failures must never clobber the
previous good checkpoint.
"""

from __future__ import annotations

import os
import pickle

import pytest

from faultinject import broken_checkpoint_fs
from repro.errors import CheckpointError
from repro.kb import CompiledKB, checkpoint_info, load_checkpoint, save_checkpoint
from repro.kb.checkpoint import HEADER_SIZE
from repro.workloads import clustered_kb


@pytest.fixture(scope="module")
def kb():
    return clustered_kb(num_communities=3, community_size=14, seed=11)


@pytest.fixture()
def checkpoint(kb, tmp_path):
    path = tmp_path / "kb.ckpt"
    compiled = save_checkpoint(kb, path)
    return compiled, path


class TestRoundTrip:
    def test_load_restores_identical_planes(self, kb, checkpoint):
        compiled, path = checkpoint
        restored = load_checkpoint(path)
        assert restored.version == kb.version
        assert restored.to_buffers() == CompiledKB.compile(kb).to_buffers()

    def test_expected_version_accepts_match(self, kb, checkpoint):
        _, path = checkpoint
        assert load_checkpoint(path, expected_version=kb.version).version == kb.version

    def test_info_reads_header_only(self, kb, checkpoint):
        _, path = checkpoint
        info = checkpoint_info(path)
        assert info["kb_version"] == kb.version
        assert info["entities"] == kb.num_entities
        assert info["edges"] == kb.num_edges
        assert info["complete"] is True
        assert info["file_bytes"] == path.stat().st_size

    def test_rewrite_replaces_atomically(self, kb, checkpoint):
        _, path = checkpoint
        grown = kb.copy()
        grown.add_edge("extra1", "extra2", "rel0")
        save_checkpoint(grown, path)
        assert load_checkpoint(path).version == grown.version
        # no temp litter left behind
        assert [p.name for p in path.parent.iterdir()] == [path.name]


class TestRejection:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_stale_version(self, kb, checkpoint):
        _, path = checkpoint
        with pytest.raises(CheckpointError, match="stale"):
            load_checkpoint(path, expected_version=kb.version + 5)

    def test_truncated_payload(self, checkpoint, tmp_path):
        _, path = checkpoint
        data = path.read_bytes()
        torn = tmp_path / "torn.ckpt"
        torn.write_bytes(data[: len(data) - 64])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(torn)

    def test_truncated_header(self, checkpoint, tmp_path):
        _, path = checkpoint
        torn = tmp_path / "header.ckpt"
        torn.write_bytes(path.read_bytes()[: HEADER_SIZE // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(torn)

    def test_flipped_payload_byte_fails_checksum(self, checkpoint, tmp_path):
        _, path = checkpoint
        data = bytearray(path.read_bytes())
        data[HEADER_SIZE + 10] ^= 0xFF
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(bad)

    def test_wrong_magic(self, checkpoint, tmp_path):
        _, path = checkpoint
        data = bytearray(path.read_bytes())
        data[:8] = b"NOTREXCK"
        bad = tmp_path / "magic.ckpt"
        bad.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="not a REX checkpoint|magic"):
            load_checkpoint(bad)

    def test_valid_pickle_wrong_shape_is_corrupt(self, tmp_path, checkpoint):
        # checksum passes but the payload is not a snapshot payload
        import hashlib
        import struct as structlib

        from repro.kb.checkpoint import CHECKPOINT_FORMAT, CHECKPOINT_MAGIC, _HEADER

        payload = pickle.dumps(("nonsense",), protocol=pickle.HIGHEST_PROTOCOL)
        header = _HEADER.pack(
            CHECKPOINT_MAGIC, CHECKPOINT_FORMAT, 1, 1, 0,
            len(payload), hashlib.sha256(payload).digest(),
        )
        bad = tmp_path / "shape.ckpt"
        bad.write_bytes(header + payload)
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(bad)

    def test_parent_container_format_1_is_rejected_and_counted(self, kb, tmp_path):
        """A container-format-1 file (its body a whole format-2 snapshot
        payload) is refused, never misread; an engine booting on it counts
        the rejection and replays its store."""
        import hashlib

        from repro.kb.checkpoint import CHECKPOINT_MAGIC, _HEADER
        from repro.service import ExplanationEngine

        db, ckdir = tmp_path / "kb.db", tmp_path / "ckpt"
        first = ExplanationEngine(kb.copy(), store_path=db, size_limit=3)
        view = first.kb
        first.close()
        payload = pickle.dumps(
            (2, *view.to_buffers()), protocol=pickle.HIGHEST_PROTOCOL
        )
        header = _HEADER.pack(
            CHECKPOINT_MAGIC, 1, view.version, view.num_entities,
            view.num_edges, len(payload), hashlib.sha256(payload).digest(),
        )
        ckdir.mkdir()
        (ckdir / "kb.ckpt").write_bytes(header + payload)
        with pytest.raises(CheckpointError, match="container format 1"):
            load_checkpoint(ckdir / "kb.ckpt")
        engine = ExplanationEngine(
            kb.copy(), store_path=db, checkpoint_dir=ckdir, size_limit=3
        )
        try:
            assert engine.boot_info["source"] == "store"
            assert "container format 1" in engine.boot_info["checkpoint_rejected"]
            assert engine.metrics.counter("engine.checkpoint_rejected").value == 1
            assert engine.kb_version == view.version
        finally:
            engine.close()


class TestWriteFailures:
    def test_failed_fsync_keeps_previous_checkpoint(self, kb, checkpoint):
        compiled, path = checkpoint
        grown = kb.copy()
        grown.add_edge("f1", "f2", "rel0")
        with broken_checkpoint_fs(fail_fsync=True):
            with pytest.raises(CheckpointError):
                save_checkpoint(grown, path)
        # the old file is untouched and still loads at the old version
        assert load_checkpoint(path).version == compiled.version
        assert [p.name for p in path.parent.iterdir()] == [path.name]

    def test_failed_replace_keeps_previous_checkpoint(self, kb, checkpoint):
        compiled, path = checkpoint
        grown = kb.copy()
        grown.add_edge("g1", "g2", "rel0")
        with broken_checkpoint_fs(fail_replace=True):
            with pytest.raises(CheckpointError):
                save_checkpoint(grown, path)
        assert load_checkpoint(path).version == compiled.version
        assert [p.name for p in path.parent.iterdir()] == [path.name]

    def test_first_write_failure_leaves_nothing(self, kb, tmp_path):
        path = tmp_path / "kb.ckpt"
        with broken_checkpoint_fs(fail_fsync=True):
            with pytest.raises(CheckpointError):
                save_checkpoint(kb, path)
        assert list(tmp_path.iterdir()) == []

    def test_stray_temp_file_is_ignored(self, kb, checkpoint):
        _, path = checkpoint
        stray = path.parent / f"{path.name}.tmp.99999"
        stray.write_bytes(b"leftover from a crashed writer")
        assert load_checkpoint(path).version is not None
        # a new save still lands atomically next to the stray
        save_checkpoint(kb, path)
        assert load_checkpoint(path).version == kb.version
