"""Exception hierarchy for the REX reproduction.

Every error raised by the library derives from :class:`RexError` so callers
can catch a single base class.  Specific subclasses communicate which
subsystem rejected the input.
"""

from __future__ import annotations


class RexError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class KnowledgeBaseError(RexError):
    """Raised for invalid knowledge-base construction or lookups."""


class UnknownEntityError(KnowledgeBaseError):
    """Raised when an entity id is not present in the knowledge base."""

    def __init__(self, entity: str) -> None:
        super().__init__(f"unknown entity: {entity!r}")
        self.entity = entity

    def __reduce__(self):
        # default exception reduction re-calls __init__ with args (the
        # formatted message), double-wrapping it; copy/pickle must rebuild
        # from the original constructor argument
        return (type(self), (self.entity,))


class UnknownRelationError(KnowledgeBaseError):
    """Raised when a relation label is not declared in the schema."""

    def __init__(self, relation: str) -> None:
        super().__init__(f"unknown relation label: {relation!r}")
        self.relation = relation

    def __reduce__(self):
        return (type(self), (self.relation,))


class StoreError(KnowledgeBaseError):
    """Raised by the durable SQLite knowledge-base store (open/replay/append)."""


class CheckpointError(KnowledgeBaseError):
    """Raised when a compiled-plane checkpoint cannot be written or loaded.

    Loading raises this for every way a checkpoint file can be unusable —
    missing, truncated, wrong magic, checksum mismatch, or version-stale —
    and callers uniformly fall back to recompiling from the system of record.
    """


class PatternError(RexError):
    """Raised for malformed explanation patterns."""


class InstanceError(RexError):
    """Raised for instance mappings that violate Definition 2."""


class EnumerationError(RexError):
    """Raised when an enumeration algorithm receives invalid parameters."""


class MeasureError(RexError):
    """Raised when an interestingness measure cannot be computed."""


class RankingError(RexError):
    """Raised for invalid ranking parameters (e.g. non-positive k)."""


class RelationalError(RexError):
    """Raised when a pattern cannot be evaluated as a conjunctive query."""


class DeadlineExceeded(RexError):
    """Raised when a request's deadline budget expires mid-computation.

    Enumeration, matching and ranking sweeps poll the ambient deadline
    (:func:`repro.resilience.current_deadline`) at loop checkpoints and raise
    this to unwind cooperatively.  The HTTP layer maps it to ``504`` with a
    ``Retry-After`` hint; it lives here (not in ``repro.resilience``) so the
    import-light enumeration layers can raise it without new dependencies.
    """

    def __init__(self, budget_s: float | None = None) -> None:
        if budget_s is None:
            super().__init__("deadline exceeded")
        else:
            super().__init__(f"deadline exceeded (budget {budget_s:.3f}s)")
        self.budget_s = budget_s

    def __reduce__(self):
        return (type(self), (self.budget_s,))


class DatasetError(RexError):
    """Raised by dataset generators or loaders for invalid parameters."""
