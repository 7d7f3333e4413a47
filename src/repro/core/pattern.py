"""Explanation patterns (Definition 1 of the paper).

An explanation pattern is a small graph whose nodes are *variables* — two of
which are the distinguished ``start`` and ``end`` variables — and whose edges
carry constant relationship labels.  The pattern is independent of the
knowledge base; applying it to a knowledge base and an entity pair yields the
explanation *instances* (see :mod:`repro.core.instance`).

This module provides the immutable :class:`ExplanationPattern` value type
together with canonicalisation utilities used for duplicate elimination during
enumeration (the paper performs explicit isomorphism checks; we additionally
expose a canonical key so duplicates can be found with a hash lookup).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

from repro.errors import PatternError

__all__ = [
    "START",
    "END",
    "PatternEdge",
    "ExplanationPattern",
    "canonical_key_of",
    "fresh_variable",
]

#: The distinguished variable mapped to the entity the user searched for.
START = "?start"
#: The distinguished variable mapped to the suggested (related) entity.
END = "?end"

#: Beyond this many non-target variables the exact canonical key (which tries
#: every permutation) becomes too expensive; patterns in the paper have at
#: most three non-target variables (size limit n = 5).
_MAX_CANONICAL_VARIABLES = 8


def fresh_variable(index: int) -> str:
    """Return the canonical name of the ``index``-th non-target variable."""
    return f"?v{index}"


@dataclass(frozen=True)
class PatternEdge:
    """A labelled edge between two pattern variables.

    For undirected relationship labels the ``source``/``target`` order is
    irrelevant; equality and hashing normalise it.
    """

    source: str
    target: str
    label: str
    directed: bool = True

    def __post_init__(self) -> None:
        if self.source == self.target:
            raise PatternError("pattern edges must connect distinct variables")
        if not self.label:
            raise PatternError("pattern edge label must be non-empty")

    def key(self) -> tuple[str, str, str, bool]:
        """Canonical identity of the pattern edge (cached)."""
        cached = self.__dict__.get("_key")
        if cached is None:
            if self.directed or self.source <= self.target:
                cached = (self.source, self.target, self.label, self.directed)
            else:
                cached = (self.target, self.source, self.label, self.directed)
            self.__dict__["_key"] = cached
        return cached

    def endpoints(self) -> tuple[str, str]:
        return (self.source, self.target)

    def touches(self, variable: str) -> bool:
        """Whether ``variable`` is one of the edge's endpoints."""
        return variable in (self.source, self.target)

    def other(self, variable: str) -> str:
        """Return the endpoint opposite ``variable``."""
        if variable == self.source:
            return self.target
        if variable == self.target:
            return self.source
        raise PatternError(f"{variable!r} is not an endpoint of {self!r}")

    def renamed(self, mapping: dict[str, str]) -> "PatternEdge":
        """Return a copy with endpoints renamed through ``mapping``."""
        return PatternEdge(
            source=mapping.get(self.source, self.source),
            target=mapping.get(self.target, self.target),
            label=self.label,
            directed=self.directed,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PatternEdge):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = self.__dict__["_hash"] = hash(self.key())
        return cached


class ExplanationPattern:
    """An immutable explanation pattern (Definition 1).

    Attributes:
        variables: all variables including :data:`START` and :data:`END`.
        edges: the labelled edges between variables.

    Example:
        >>> costar = ExplanationPattern.from_edges([
        ...     PatternEdge("?v0", START, "starring"),
        ...     PatternEdge("?v0", END, "starring"),
        ... ])
        >>> costar.num_nodes, costar.num_edges
        (3, 2)
        >>> costar.is_path()
        True
    """

    __slots__ = ("_variables", "_edges", "__dict__")

    def __init__(self, variables: Iterable[str], edges: Iterable[PatternEdge]) -> None:
        variable_set = frozenset(variables)
        edge_set = frozenset(edges)
        if START not in variable_set or END not in variable_set:
            raise PatternError(
                "an explanation pattern must contain the start and end variables"
            )
        for edge in edge_set:
            if edge.source not in variable_set or edge.target not in variable_set:
                raise PatternError(
                    f"edge {edge!r} references a variable outside the pattern"
                )
        self._variables = variable_set
        self._edges = edge_set

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(
        cls,
        variables: frozenset[str],
        edges: frozenset[PatternEdge],
        canonical_key: tuple | None = None,
    ) -> "ExplanationPattern":
        """Construct without validation from already-checked frozensets.

        Internal fast path for the enumeration algorithms, which build
        patterns whose invariants hold by construction and whose canonical
        key they have often computed already (``canonical_key``).
        """
        pattern = cls.__new__(cls)
        pattern._variables = variables
        pattern._edges = edges
        if canonical_key is not None:
            pattern.__dict__["canonical_key"] = canonical_key
        return pattern

    @classmethod
    def from_edges(cls, edges: Iterable[PatternEdge]) -> "ExplanationPattern":
        """Build a pattern from its edges; variables are inferred.

        The start and end variables are always included even when no edge
        touches them (useful only transiently during enumeration).
        """
        edge_list = list(edges)
        variables = {START, END}
        for edge in edge_list:
            variables.add(edge.source)
            variables.add(edge.target)
        return cls(variables, edge_list)

    @classmethod
    def direct_edge(cls, label: str, directed: bool = True, reverse: bool = False) -> "ExplanationPattern":
        """The simplest pattern: a single edge between start and end.

        Args:
            label: the relationship label.
            directed: whether the relationship is directed.
            reverse: when ``True`` the directed edge points end -> start.
        """
        if reverse:
            edge = PatternEdge(END, START, label, directed)
        else:
            edge = PatternEdge(START, END, label, directed)
        return cls.from_edges([edge])

    # -- basic accessors ---------------------------------------------------

    @property
    def variables(self) -> frozenset[str]:
        return self._variables

    @property
    def edges(self) -> frozenset[PatternEdge]:
        return self._edges

    @property
    def non_target_variables(self) -> frozenset[str]:
        """Variables other than start and end."""
        return self._variables - {START, END}

    @property
    def num_nodes(self) -> int:
        """Number of variables (the paper's pattern *size*)."""
        return len(self._variables)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def edges_of(self, variable: str) -> list[PatternEdge]:
        """All edges incident to ``variable`` (sorted for determinism)."""
        return sorted(
            (edge for edge in self._edges if edge.touches(variable)),
            key=lambda edge: edge.key(),
        )

    def degree(self, variable: str) -> int:
        """Number of edges incident to ``variable``."""
        return sum(1 for edge in self._edges if edge.touches(variable))

    def neighbors(self, variable: str) -> set[str]:
        """Variables adjacent to ``variable``."""
        return {edge.other(variable) for edge in self._edges if edge.touches(variable)}

    def labels(self) -> set[str]:
        """Distinct relationship labels used by the pattern."""
        return {edge.label for edge in self._edges}

    def __iter__(self) -> Iterator[PatternEdge]:
        return iter(sorted(self._edges, key=lambda edge: edge.key()))

    # -- structure ---------------------------------------------------------

    def is_connected(self) -> bool:
        """Whether every variable is reachable from start (edges undirected)."""
        if not self._edges:
            return len(self._variables) <= 1
        adjacency = self._adjacency()
        seen = {START}
        frontier = [START]
        while frontier:
            node = frontier.pop()
            for neighbor in adjacency.get(node, ()):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return seen == self._variables

    def is_path(self) -> bool:
        """Whether the pattern is a simple start-to-end path.

        A path pattern has every non-target variable with degree exactly two,
        the two target variables with degree exactly one, and no cycles.
        """
        if not self._edges:
            return False
        if self.degree(START) != 1 or self.degree(END) != 1:
            return False
        for variable in self.non_target_variables:
            if self.degree(variable) != 2:
                return False
        # degree conditions + connectivity + |E| = |V| - 1 imply a simple path
        return self.is_connected() and self.num_edges == self.num_nodes - 1

    def path_length(self) -> int | None:
        """Length (number of edges) if the pattern is a path, else ``None``."""
        return self.num_edges if self.is_path() else None

    def simple_paths(self) -> list[tuple[PatternEdge, ...]]:
        """All simple start-to-end paths through the pattern (as edge tuples).

        Edges are traversed ignoring direction, matching Definition 3 which
        considers edges as undirected when testing essentiality.
        """
        results: list[tuple[PatternEdge, ...]] = []

        def extend(current: str, visited: set[str], trail: list[PatternEdge]) -> None:
            if current == END:
                results.append(tuple(trail))
                return
            for edge in self.edges_of(current):
                neighbor = edge.other(current)
                if neighbor in visited:
                    continue
                visited.add(neighbor)
                trail.append(edge)
                extend(neighbor, visited, trail)
                trail.pop()
                visited.remove(neighbor)

        extend(START, {START}, [])
        return results

    def _adjacency(self) -> dict[str, set[str]]:
        adjacency: dict[str, set[str]] = {variable: set() for variable in self._variables}
        for edge in self._edges:
            adjacency[edge.source].add(edge.target)
            adjacency[edge.target].add(edge.source)
        return adjacency

    # -- transformations ---------------------------------------------------

    def renamed(self, mapping: dict[str, str]) -> "ExplanationPattern":
        """Return a copy with non-target variables renamed via ``mapping``.

        The start and end variables may not be renamed.
        """
        if mapping.get(START, START) != START or mapping.get(END, END) != END:
            raise PatternError("the start and end variables cannot be renamed")
        variables = {mapping.get(variable, variable) for variable in self._variables}
        if len(variables) != len(self._variables):
            raise PatternError("variable renaming must be injective")
        edges = [edge.renamed(mapping) for edge in self._edges]
        return ExplanationPattern(variables, edges)

    def with_canonical_names(self) -> tuple["ExplanationPattern", dict[str, str]]:
        """Rename non-target variables to ``?v0, ?v1, ...`` deterministically.

        Returns the renamed pattern and the mapping old-name -> new-name.
        The deterministic order is the sorted order of the original names,
        which keeps the operation stable across runs.
        """
        mapping: dict[str, str] = {}
        for index, variable in enumerate(sorted(self.non_target_variables)):
            mapping[variable] = fresh_variable(index)
        return self.renamed(mapping), mapping

    # -- canonicalisation and isomorphism -----------------------------------

    @cached_property
    def canonical_key(self) -> tuple:
        """A key equal for exactly the patterns isomorphic to this one.

        Isomorphism here means a bijection between variables that fixes the
        start and end variables and preserves labelled (directed) edges — the
        notion used by the paper's duplicate check.  The key is computed by
        trying every permutation of non-target variables and keeping the
        lexicographically smallest edge encoding; patterns in REX have at most
        a handful of variables so this is cheap.  Enumeration regenerates the
        same pattern shapes over and over (as distinct objects), so the
        computation is additionally memoized by :func:`canonical_key_of` —
        only the first object of a shape pays for the permutations.
        """
        return canonical_key_of(
            tuple(sorted(self._variables)),
            tuple(sorted(edge.key() for edge in self._edges)),
        )

    def is_isomorphic(self, other: "ExplanationPattern") -> bool:
        """Whether two patterns are isomorphic (start/end fixed)."""
        if self.num_nodes != other.num_nodes or self.num_edges != other.num_edges:
            return False
        return self.canonical_key == other.canonical_key

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExplanationPattern):
            return NotImplemented
        return self._variables == other._variables and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._variables, self._edges))

    def __repr__(self) -> str:
        edges = ", ".join(
            f"{edge.source}-[{edge.label}{'' if edge.directed else ',undirected'}]->{edge.target}"
            for edge in self
        )
        return f"ExplanationPattern({edges})"

    def describe(self) -> str:
        """A short multi-line human readable rendering of the pattern."""
        lines = [f"pattern with {self.num_nodes} nodes / {self.num_edges} edges:"]
        for edge in self:
            arrow = "->" if edge.directed else "--"
            lines.append(f"  {edge.source} {arrow}[{edge.label}] {edge.target}")
        return "\n".join(lines)


@lru_cache(maxsize=65536)
def canonical_key_of(
    variables: tuple[str, ...], edge_keys: tuple[tuple[str, str, str, bool], ...]
) -> tuple:
    """The canonical key of the pattern with these variables and edge keys.

    Memoized on the two tuples, so callers pass them sorted (the variable
    names, and the :meth:`PatternEdge.key` of every edge): every equal
    pattern shape then shares one entry, and the memo holds only strings
    and tuples.  Any order yields the same key; only the memo's hit rate
    depends on it.
    """
    others = sorted(
        variable for variable in variables if variable != START and variable != END
    )
    if len(others) > _MAX_CANONICAL_VARIABLES:
        raise PatternError(
            "pattern too large for exact canonicalisation "
            f"({len(others)} non-target variables)"
        )
    canonical_names = [fresh_variable(index) for index in range(len(others))]
    best: tuple | None = None
    for permutation in itertools.permutations(canonical_names):
        mapping = dict(zip(others, permutation))
        encoding_list = []
        for source, target, label, directed in edge_keys:
            renamed_source = mapping.get(source, source)
            renamed_target = mapping.get(target, target)
            if directed or renamed_source <= renamed_target:
                encoding_list.append((renamed_source, renamed_target, label, directed))
            else:
                encoding_list.append((renamed_target, renamed_source, label, directed))
        encoding = tuple(sorted(encoding_list))
        if best is None or encoding < best:
            best = encoding
    if best is None:
        best = ()
    return best


def pattern_from_label_path(
    labels: Sequence[tuple[str, bool, bool]],
) -> ExplanationPattern:
    """Build a path pattern from a start-to-end sequence of labels.

    Args:
        labels: a sequence of ``(label, directed, forward)`` triples; the
            ``forward`` flag states whether the directed edge points along the
            start-to-end direction of traversal.

    Returns:
        The corresponding path :class:`ExplanationPattern`.
    """
    if not labels:
        raise PatternError("a path pattern needs at least one edge")
    nodes = [START]
    for index in range(len(labels) - 1):
        nodes.append(fresh_variable(index))
    nodes.append(END)
    edges = []
    for index, (label, directed, forward) in enumerate(labels):
        left, right = nodes[index], nodes[index + 1]
        if directed and not forward:
            left, right = right, left
        edges.append(PatternEdge(left, right, label, directed))
    return ExplanationPattern.from_edges(edges)
