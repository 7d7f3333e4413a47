"""Relationship explanations: a pattern together with its instances.

For a pair of entities the paper defines a relationship explanation as the
pair ``(p, I_p)`` where ``p`` is an explanation pattern and ``I_p`` the set of
its instances in the knowledge base.  :class:`Explanation` is the immutable
container used throughout enumeration and ranking.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator

from repro.core.instance import ExplanationInstance
from repro.core.pattern import END, START, ExplanationPattern
from repro.errors import InstanceError

__all__ = ["Explanation"]


class Explanation:
    """An explanation ``(pattern, instances)`` for one target entity pair.

    The instance collection is stored as a sorted tuple so explanations are
    hashable and their iteration order is deterministic.

    Example:
        >>> from repro.core.pattern import PatternEdge
        >>> pattern = ExplanationPattern.from_edges(
        ...     [PatternEdge("?v0", START, "starring"), PatternEdge("?v0", END, "starring")])
        >>> instance = ExplanationInstance(
        ...     {START: "brad_pitt", END: "angelina_jolie", "?v0": "mr_and_mrs_smith"})
        >>> explanation = Explanation(pattern, [instance])
        >>> explanation.num_instances
        1
    """

    __slots__ = ("_pattern", "_instances", "__dict__")

    def __init__(
        self,
        pattern: ExplanationPattern,
        instances: Iterable[ExplanationInstance],
    ) -> None:
        unique = sorted(set(instances), key=lambda instance: instance.items())
        for instance in unique:
            if instance.variables() != pattern.variables:
                raise InstanceError(
                    "instance binds a different variable set than the pattern: "
                    f"{sorted(instance.variables())} vs {sorted(pattern.variables)}"
                )
        self._pattern = pattern
        self._instances = tuple(unique)

    # -- accessors ---------------------------------------------------------

    @property
    def pattern(self) -> ExplanationPattern:
        return self._pattern

    @property
    def instances(self) -> tuple[ExplanationInstance, ...]:
        return self._instances

    @property
    def num_instances(self) -> int:
        return len(self._instances)

    @property
    def has_instances(self) -> bool:
        return bool(self._instances)

    @property
    def size(self) -> int:
        """Pattern size = number of variables (the paper's size measure basis)."""
        return self._pattern.num_nodes

    def is_path(self) -> bool:
        """Whether the underlying pattern is a simple start-to-end path."""
        return self._pattern.is_path()

    def __iter__(self) -> Iterator[ExplanationInstance]:
        return iter(self._instances)

    def __len__(self) -> int:
        return len(self._instances)

    # -- aggregate helpers (used by the measures of Section 4.2) -------------

    @cached_property
    def target_pair(self) -> tuple[str, str] | None:
        """The ``(v_start, v_end)`` pair witnessed by the instances, if any."""
        if not self._instances:
            return None
        first = self._instances[0]
        return (first.start_entity, first.end_entity)

    def assignments(self, variable: str) -> set[str]:
        """Distinct entities assigned to ``variable`` over all instances.

        This is the paper's ``uniq(v)`` used to define the monocount measure.
        The result is cached per variable: the merge step of PathUnion uses
        assignment sets to discard hopeless variable mappings early.
        """
        cache: dict[str, set[str]] = self.__dict__.setdefault("_assignment_cache", {})
        if variable not in cache:
            cache[variable] = {instance[variable] for instance in self._instances}
        return cache[variable]

    def uniq(self, variable: str) -> int:
        """``|uniq(v)|``: number of distinct assignments of ``variable``."""
        return len(self.assignments(variable))

    def count(self) -> int:
        """The count aggregate: number of distinct instances."""
        return len(self._instances)

    def monocount(self) -> int:
        """The monocount aggregate (Section 4.2).

        The minimum over non-target variables of the number of distinct
        assignments; defined to be 1 when the pattern has no non-target
        variable (a direct edge between the targets).
        """
        non_target = self._pattern.non_target_variables
        if not non_target:
            return 1 if self._instances else 0
        if not self._instances:
            return 0
        return min(self.uniq(variable) for variable in non_target)

    # -- transformation ----------------------------------------------------

    def with_canonical_names(self) -> "Explanation":
        """Rename variables canonically in both the pattern and the instances."""
        pattern, mapping = self._pattern.with_canonical_names()
        instances = [instance.renamed(mapping) for instance in self._instances]
        return Explanation(pattern, instances)

    def merged_instances_with(self, extra: Iterable[ExplanationInstance]) -> "Explanation":
        """Return a copy with additional instances folded in."""
        return Explanation(self._pattern, list(self._instances) + list(extra))

    # -- dunder ------------------------------------------------------------

    #: ``__dict__`` keys never pickled: the merge kernel's per-explanation
    #: constants (which hold every assignment set) and the assignment-set
    #: caches themselves — both bulky, both rebuilt on demand, and shipping
    #: them would inflate every executor result payload.
    _TRANSIENT_CACHES = ("_merge_info", "_assignment_cache")

    def __getstate__(self):
        extras = {
            key: value
            for key, value in self.__dict__.items()
            if key not in self._TRANSIENT_CACHES
        }
        return (self._pattern, self._instances, extras)

    def __setstate__(self, state) -> None:
        pattern, instances, extras = state
        self._pattern = pattern
        self._instances = instances
        self.__dict__.update(extras)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Explanation):
            return NotImplemented
        return self._pattern == other._pattern and self._instances == other._instances

    def __hash__(self) -> int:
        return hash((self._pattern, self._instances))

    def __repr__(self) -> str:
        return (
            f"Explanation(size={self.size}, edges={self._pattern.num_edges}, "
            f"instances={self.num_instances})"
        )

    def describe(self, max_instances: int = 3) -> str:
        """Human readable multi-line rendering used by the CLI and examples."""
        lines = [self._pattern.describe()]
        lines.append(f"instances ({self.num_instances} total):")
        for instance in self._instances[:max_instances]:
            bindings = ", ".join(
                f"{variable}={entity}"
                for variable, entity in instance.items()
                if variable not in (START, END)
            )
            lines.append(f"  {{{bindings}}}" if bindings else "  {<direct edge>}")
        if self.num_instances > max_instances:
            lines.append(f"  ... and {self.num_instances - max_instances} more")
        return "\n".join(lines)
