"""Immutable knowledge-base snapshots for cross-process shipping.

Worker processes of the batch executor each hold a *read-only replica* of the
knowledge base: a :class:`~repro.kb.compiled.CompiledKB`, or an
:class:`~repro.kb.compiled.OverlayCompiledKB` over one.  A snapshot payload
has one shape, ``(PAYLOAD_FORMAT, base, delta)``:

* ``base`` is the root compiled view, either **by reference** — the path of
  an on-disk checkpoint (:mod:`repro.kb.checkpoint`) that each worker loads
  and checksum-verifies itself, so the parent pipes no plane bytes — or
  **by value**, the ``tobytes()`` buffers of
  :meth:`~repro.kb.compiled.CompiledKB.to_buffers`, restored with bulk
  ``frombytes`` calls;
* ``delta`` is ``None`` or the
  :meth:`~repro.kb.compiled.OverlayCompiledKB.delta_buffers` of an overlay
  over that base, so a recycle after a write ships the write-sized delta,
  not the full planes again.

Replicas preserve everything that makes results deterministic:

* entity insertion order (drives ``kb.entities`` iteration order, integer
  handles and ranking tie-break stability),
* edge insertion order with explicit directionality (the plane rows are the
  per-node index rows of the source KB, in the same order),
* the full schema (relation directedness, domains/ranges, entity types),

so a replica answers every explanation request byte-identically to the
served view at the version the snapshot was taken.

Any other payload head (the edge-replay format 1 and the earlier compiled
formats 2–4 included) is rejected with a message asking for a pool recycle,
never misread.
"""

from __future__ import annotations

from typing import Any

from repro.kb.checkpoint import load_checkpoint
from repro.kb.compiled import CompiledKB, OverlayCompiledKB, compile_kb
from repro.kb.graph import KnowledgeBase
from repro.obs.trace import span

__all__ = ["kb_to_payload", "kb_from_payload", "PAYLOAD_FORMAT"]

#: Payload format version, bumped when the layout changes so a stale worker
#: cannot silently misinterpret a newer snapshot.  Formats 1–4 (edge replay,
#: full buffers, checkpoint path, base path plus delta) are retired.
PAYLOAD_FORMAT = 5


def kb_to_payload(
    kb: KnowledgeBase | CompiledKB, checkpoint: tuple[str, int] | None = None
) -> tuple[Any, ...]:
    """Snapshot ``kb`` as a picklable ``(PAYLOAD_FORMAT, base, delta)`` tuple.

    ``kb`` is a compiled view (the serving engine's current one) or a plain
    :class:`~repro.kb.graph.KnowledgeBase`, compiled on the fly.  An overlay
    ships as its root base plus its delta.  ``checkpoint`` is ``(path,
    version)`` of an on-disk checkpoint: the base goes by that path when the
    checkpoint holds either the whole view (no delta is shipped then) or the
    overlay's root base, and by value otherwise.

    The snapshot carries the version it was taken at; the executor keys
    worker replicas on it to decide when a pool must be recycled.
    """
    with span("snapshot_build"):
        view = compile_kb(kb)
        base: CompiledKB = view
        delta = None
        if isinstance(view, OverlayCompiledKB):
            base, delta = view.base, view.delta_buffers()
        if checkpoint is not None:
            path, version = checkpoint
            if version == view.version:
                return (PAYLOAD_FORMAT, str(path), None)
            if version == base.version:
                return (PAYLOAD_FORMAT, str(path), delta)
        return (PAYLOAD_FORMAT, base.to_buffers(), delta)


def kb_from_payload(payload: tuple[Any, ...]) -> tuple[CompiledKB, int]:
    """Rebuild a read-only KB replica (and its snapshot version) from a payload.

    A base by reference is loaded through
    :func:`~repro.kb.checkpoint.load_checkpoint` (checksum and header
    verified); under a delta it must also be at exactly the base version the
    delta records, so a checkpoint swapped underneath fails replica
    initialisation instead of yielding a replica that misses or doubles
    edges.

    Returns:
        ``(replica, version)`` where ``replica`` is a
        :class:`~repro.kb.compiled.CompiledKB` exposing the full read API of
        :class:`~repro.kb.graph.KnowledgeBase`.

    Raises:
        ValueError: for any payload head other than :data:`PAYLOAD_FORMAT`.
    """
    if payload[0] != PAYLOAD_FORMAT or len(payload) != 3:
        raise ValueError(
            f"unsupported KB payload format {payload[0]!r}: this worker reads "
            f"format {PAYLOAD_FORMAT}.  Recycle the worker pool so parent and "
            "workers agree on the snapshot format, or re-serialise the KB "
            "with the current kb_to_payload()."
        )
    _format, base, delta = payload
    if isinstance(base, str):
        view = load_checkpoint(
            base, expected_version=delta[1] if delta is not None else None
        )
    else:
        view = CompiledKB.from_buffers(base)
    if delta is not None:
        view = OverlayCompiledKB.from_delta_buffers(view, delta)
    return view, view.version
