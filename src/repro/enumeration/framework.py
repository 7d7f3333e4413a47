"""The general minimal-explanation enumeration framework (Algorithm 2).

``GeneralEnumFramework`` ties together a path enumeration algorithm
(Section 3.2) and a path union algorithm (Section 3.3):

1. enumerate all path explanations between the target entities with path
   length at most ``n - 1`` (a pattern of ``n`` nodes is covered by paths of
   at most ``n - 1`` edges), then
2. combine them into all minimal explanations with at most ``n`` nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.explanation import Explanation
from repro.enumeration.path_enum import PATH_ENUM_ALGORITHMS, PathEnumResult
from repro.enumeration.path_union import PATH_UNION_ALGORITHMS, MergeStats
from repro.errors import EnumerationError
from repro.kb.graph import KnowledgeBase
from repro.obs.trace import span

__all__ = ["EnumerationResult", "enumerate_explanations", "DEFAULT_SIZE_LIMIT"]

#: The paper's experiments use a pattern size limit of 5 nodes.
DEFAULT_SIZE_LIMIT = 5


@dataclass
class EnumerationResult:
    """Minimal explanations for a target pair plus per-stage work counters."""

    explanations: list[Explanation]
    v_start: str
    v_end: str
    size_limit: int
    path_algorithm: str
    union_algorithm: str
    path_stats: dict[str, int] = field(default_factory=dict)
    union_stats: dict[str, int] = field(default_factory=dict)

    @property
    def num_explanations(self) -> int:
        return len(self.explanations)

    @property
    def num_instances(self) -> int:
        """Total number of explanation instances across all explanations."""
        return sum(explanation.num_instances for explanation in self.explanations)

    def paths(self) -> list[Explanation]:
        """Only the path-shaped explanations."""
        return [explanation for explanation in self.explanations if explanation.is_path()]

    def non_paths(self) -> list[Explanation]:
        """Only the non-path explanations."""
        return [explanation for explanation in self.explanations if not explanation.is_path()]


def enumerate_explanations(
    kb: KnowledgeBase,
    v_start: str,
    v_end: str,
    size_limit: int = DEFAULT_SIZE_LIMIT,
    path_algorithm: str = "prioritized",
    union_algorithm: str = "prune",
) -> EnumerationResult:
    """Enumerate all minimal explanations for ``(v_start, v_end)``.

    Args:
        kb: the knowledge base.
        v_start: the entity the user searched for.
        v_end: the suggested related entity.
        size_limit: maximum number of pattern variables (paper default 5).
        path_algorithm: one of ``"naive"``, ``"basic"``, ``"prioritized"``.
        union_algorithm: one of ``"basic"``, ``"prune"``.

    Returns:
        An :class:`EnumerationResult` with all minimal explanations that have
        at least one instance, along with per-stage statistics.

    Example:
        >>> from repro.datasets.paper_example import paper_example_kb
        >>> kb = paper_example_kb()
        >>> result = enumerate_explanations(kb, "brad_pitt", "angelina_jolie", size_limit=4)
        >>> result.num_explanations > 0
        True
    """
    if size_limit < 2:
        raise EnumerationError("the pattern size limit must be at least 2")
    try:
        path_enum = PATH_ENUM_ALGORITHMS[path_algorithm]
    except KeyError:
        raise EnumerationError(
            f"unknown path enumeration algorithm: {path_algorithm!r}; "
            f"choose from {sorted(PATH_ENUM_ALGORITHMS)}"
        ) from None
    try:
        path_union = PATH_UNION_ALGORITHMS[union_algorithm]
    except KeyError:
        raise EnumerationError(
            f"unknown path union algorithm: {union_algorithm!r}; "
            f"choose from {sorted(PATH_UNION_ALGORITHMS)}"
        ) from None

    with span("path_enum"):
        path_result: PathEnumResult = path_enum(kb, v_start, v_end, size_limit - 1)
    union_stats = MergeStats()
    with span("union_merge"):
        explanations = path_union(path_result.explanations, size_limit, union_stats)
    return EnumerationResult(
        explanations=explanations,
        v_start=v_start,
        v_end=v_end,
        size_limit=size_limit,
        path_algorithm=path_algorithm,
        union_algorithm=union_algorithm,
        path_stats=dict(path_result.stats),
        union_stats=union_stats.as_dict(),
    )
