"""Atomic on-disk checkpoints of compiled knowledge-base planes.

A checkpoint is the serving-layer complement of the SQLite system of record
(:mod:`repro.kb.store`): where the store replays *edges* (O(edges) dict-KB
reconstruction plus an O(edges) compile), a checkpoint restores the already
compiled CSR planes of :class:`~repro.kb.compiled.CompiledKB` in O(file size)
— a cold process memory-maps the file, verifies a checksum, and is warm.

File layout (all integers little-endian)::

    offset  size  field
    0       8     magic  b"REXCKPT1"
    8       8     container format (2)
    16      8     kb version the planes were compiled at
    24      8     num_entities   (redundant, for `checkpoint_info` display)
    32      8     num_edges
    40      8     payload length in bytes
    48      32    sha256 of the payload
    80      ...   payload: the pickled plane buffers of
                  `CompiledKB.to_buffers()`

Container format 1 pickled a whole snapshot payload (format tag plus the
buffers); a format-1 file is rejected like any other unusable checkpoint.

Write protocol: serialise to a temp file in the destination directory, flush,
``fsync``, then ``os.replace`` onto the final name and fsync the directory.
A reader therefore observes either the previous complete checkpoint or the
new complete checkpoint, never a torn file — and if the process is killed
mid-write, the leftover temp file is simply ignored.

Read protocol: every way the file can be unusable — missing, too short,
wrong magic, unknown container format, truncated payload, checksum mismatch,
or version-stale against an expected version — raises
:class:`~repro.errors.CheckpointError`, and callers uniformly fall back to
replay-from-SQLite + recompile.  A checkpoint is *never* partially loaded.

``_fsync`` and ``_replace`` are module-level indirections so the
fault-injection harness can make the durability steps fail without
monkeypatching ``os`` globally.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import pickle
import struct
from pathlib import Path
from typing import Any

from repro.errors import CheckpointError
from repro.kb.compiled import CompiledKB
from repro.kb.graph import KnowledgeBase
from repro.obs.trace import span

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_info",
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_FILENAME",
]

CHECKPOINT_MAGIC = b"REXCKPT1"
CHECKPOINT_FORMAT = 2
#: Fixed name used inside a checkpoint directory: `os.replace` onto one name
#: makes publication atomic and leaves nothing to garbage-collect.
CHECKPOINT_FILENAME = "kb.ckpt"

_HEADER = struct.Struct("<8s5Q32s")
HEADER_SIZE = _HEADER.size  # 80 bytes

# Injection points for the fault harness (tests/faultinject.py).
_fsync = os.fsync
_replace = os.replace


def _digest(payload: bytes) -> bytes:
    return hashlib.sha256(payload).digest()


def save_checkpoint(kb: KnowledgeBase | CompiledKB, path: str | Path) -> CompiledKB:
    """Atomically persist the compiled planes of ``kb`` to ``path``.

    Compiles ``kb`` if it is not already a :class:`CompiledKB` and returns
    the compiled form (so callers can reuse it for serving).  Raises
    :class:`CheckpointError` if any durability step fails; on failure the
    previous checkpoint at ``path`` (if any) is left untouched.

    The whole write (compile, serialise, fsync, rename) records as one
    ``checkpoint_io`` span when a trace is active.
    """
    with span("checkpoint_io"):
        return _save_checkpoint(kb, path)


def _save_checkpoint(kb: KnowledgeBase | CompiledKB, path: str | Path) -> CompiledKB:
    path = Path(path)
    compiled = CompiledKB.compile(kb)
    payload = pickle.dumps(compiled.to_buffers(), protocol=pickle.HIGHEST_PROTOCOL)
    header = _HEADER.pack(
        CHECKPOINT_MAGIC,
        CHECKPOINT_FORMAT,
        compiled.version,
        compiled.num_entities,
        compiled.num_edges,
        len(payload),
        _digest(payload),
    )
    tmp_path = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(header)
            handle.write(payload)
            handle.flush()
            _fsync(handle.fileno())
        _replace(tmp_path, path)
    except OSError as error:
        try:
            tmp_path.unlink()
        except OSError:
            pass
        raise CheckpointError(
            f"cannot write checkpoint {str(path)!r}: {error}"
        ) from error
    # fsync the directory so the rename itself is durable; best-effort on
    # filesystems that refuse O_RDONLY directory fds
    try:
        dir_fd = os.open(str(path.parent), os.O_RDONLY)
    except OSError:
        return compiled
    try:
        _fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)
    return compiled


def _read_header(view: bytes, path: Path) -> tuple[int, int, int, int, bytes]:
    if len(view) < HEADER_SIZE:
        raise CheckpointError(
            f"checkpoint {str(path)!r} is truncated: "
            f"{len(view)} bytes, header needs {HEADER_SIZE}"
        )
    magic, fmt, version, num_entities, num_edges, payload_len, digest = (
        _HEADER.unpack_from(view)
    )
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"checkpoint {str(path)!r} has bad magic {magic!r}; not a REX checkpoint"
        )
    if fmt != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"checkpoint {str(path)!r} uses container format {fmt}, "
            f"this build reads format {CHECKPOINT_FORMAT}"
        )
    return version, num_entities, num_edges, payload_len, digest


def load_checkpoint(
    path: str | Path, expected_version: int | None = None
) -> CompiledKB:
    """Load and verify a checkpoint, returning its :class:`CompiledKB`.

    Args:
        path: checkpoint file written by :func:`save_checkpoint`.
        expected_version: when given, the checkpoint must have been taken at
            exactly this knowledge-base version — a mismatch (stale
            checkpoint lagging the SQLite store, or a checkpoint from a
            different store altogether) is rejected.

    Raises:
        CheckpointError: missing/unreadable file, truncation, bad magic or
            format, checksum mismatch, payload corruption, internal version
            disagreement, or staleness against ``expected_version``.  The
            caller's recovery ladder is: fall back to replaying the system
            of record and recompiling.

    The whole read (mmap, checksum, payload restore) records as one
    ``checkpoint_io`` span when a trace is active.
    """
    with span("checkpoint_io"):
        return _load_checkpoint(path, expected_version)


def _load_checkpoint(
    path: str | Path, expected_version: int | None = None
) -> CompiledKB:
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            with mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
                view = memoryview(mapped)
                payload_view = None
                try:
                    version, num_entities, num_edges, payload_len, digest = (
                        _read_header(view, path)
                    )
                    if len(view) != HEADER_SIZE + payload_len:
                        raise CheckpointError(
                            f"checkpoint {str(path)!r} is truncated: "
                            f"{len(view)} bytes, header promises "
                            f"{HEADER_SIZE + payload_len}"
                        )
                    payload_view = view[HEADER_SIZE:]
                    if _digest(payload_view) != digest:
                        raise CheckpointError(
                            f"checkpoint {str(path)!r} failed checksum "
                            "verification; refusing to load corrupt planes"
                        )
                    if expected_version is not None and version != expected_version:
                        raise CheckpointError(
                            f"checkpoint {str(path)!r} is stale: taken at KB "
                            f"version {version}, system of record is at "
                            f"{expected_version}"
                        )
                    try:
                        # pickle copies out of the mapping, so the planes do
                        # not keep the file mapped after this returns
                        compiled = CompiledKB.from_buffers(
                            pickle.loads(payload_view)
                        )
                    except Exception as error:
                        raise CheckpointError(
                            f"checkpoint {str(path)!r} payload is corrupt: {error}"
                        ) from error
                finally:
                    if payload_view is not None:
                        payload_view.release()
                    view.release()
    except FileNotFoundError as error:
        raise CheckpointError(f"checkpoint {str(path)!r} does not exist") from error
    except CheckpointError:
        raise
    except (OSError, ValueError) as error:
        raise CheckpointError(
            f"cannot read checkpoint {str(path)!r}: {error}"
        ) from error
    if compiled.version != version or compiled.num_entities != num_entities:
        raise CheckpointError(
            f"checkpoint {str(path)!r} header disagrees with its payload "
            f"(header v{version}/{num_entities} entities, payload "
            f"v{compiled.version}/{compiled.num_entities} entities)"
        )
    return compiled


def checkpoint_info(path: str | Path) -> dict[str, Any]:
    """Read and validate only the 80-byte header of a checkpoint.

    Cheap enough to call from health endpoints and the CLI without paying
    the payload checksum.  Raises :class:`CheckpointError` on a missing file
    or malformed header.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            head = handle.read(HEADER_SIZE)
        size = os.path.getsize(path)
    except FileNotFoundError as error:
        raise CheckpointError(f"checkpoint {str(path)!r} does not exist") from error
    except OSError as error:
        raise CheckpointError(
            f"cannot read checkpoint {str(path)!r}: {error}"
        ) from error
    version, num_entities, num_edges, payload_len, _ = _read_header(head, path)
    return {
        "path": str(path),
        "kb_version": version,
        "entities": num_entities,
        "edges": num_edges,
        "payload_bytes": payload_len,
        "file_bytes": size,
        "complete": size == HEADER_SIZE + payload_len,
    }
