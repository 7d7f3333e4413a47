"""The knowledge-base graph substrate.

The paper represents a knowledge base as a three-tuple ``G = (V, E, lambda)``
with entities as nodes and labelled primary relationships as edges.  Edges can
be directed (``starring``) or undirected (``spouse``).  This module provides
:class:`KnowledgeBase`, an in-memory labelled multigraph with the adjacency
indexes that the enumeration algorithms of Section 3 need:

* constant-time degree lookups (used by BANKS2-style activation scores),
* iteration over the labelled neighbourhood of a node,
* constant-time membership tests for a labelled edge in a given direction, and
* per-node secondary indexes ``(label, orientation) -> neighbors`` so pattern
  matchers and the batched distributional evaluator never scan edges whose
  label cannot satisfy the constraint at hand.

All indexes are maintained incrementally by :meth:`add_edge`; entity ids and
labels are interned so the dict-heavy hot paths compare by pointer.  External
caches (e.g. the traversal-step caches of the path enumerators) can key on
:attr:`version`, which increases on every mutation.

The class is deliberately independent of ``networkx`` so that the algorithmic
layers do not pay conversion costs on the hot path; a ``to_networkx`` helper
is offered for interoperability and for the random-walk measure.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import networkx as nx

from repro.errors import KnowledgeBaseError, UnknownEntityError
from repro.kb.schema import Schema

__all__ = ["Edge", "NeighborEntry", "KnowledgeBase"]

# Orientation of an edge relative to the node whose adjacency list holds it.
OUT = "out"
IN = "in"
UNDIRECTED = "undirected"
_ORIENTATIONS = (OUT, IN, UNDIRECTED)


@dataclass(frozen=True)
class Edge:
    """A single labelled edge of the knowledge base.

    For undirected relations the ``source``/``target`` order is the insertion
    order; equality treats the two orders as the same edge.
    """

    source: str
    target: str
    label: str
    directed: bool = True

    def key(self) -> tuple[str, str, str, bool]:
        """Canonical identity of the edge (order-normalised when undirected)."""
        if self.directed or self.source <= self.target:
            return (self.source, self.target, self.label, self.directed)
        return (self.target, self.source, self.label, self.directed)

    def endpoints(self) -> tuple[str, str]:
        """The two endpoints as stored."""
        return (self.source, self.target)

    def other(self, node: str) -> str:
        """Return the endpoint opposite ``node``."""
        if node == self.source:
            return self.target
        if node == self.target:
            return self.source
        raise KnowledgeBaseError(f"{node!r} is not an endpoint of {self!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Edge):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())


@dataclass(frozen=True)
class NeighborEntry:
    """One entry of a node's adjacency list.

    Attributes:
        neighbor: the node at the other end of the edge.
        label: the relationship label.
        orientation: ``"out"`` if the edge points from the owning node to
            ``neighbor``, ``"in"`` for the opposite direction, and
            ``"undirected"`` for undirected relations.
    """

    neighbor: str
    label: str
    orientation: str


class KnowledgeBase:
    """An in-memory labelled multigraph of entities and primary relationships.

    Example:
        >>> kb = KnowledgeBase()
        >>> kb.add_entity("brad_pitt", entity_type="person")
        >>> kb.add_entity("troy", entity_type="movie")
        >>> kb.add_edge("troy", "brad_pitt", "starring")
        >>> kb.degree("brad_pitt")
        1
    """

    def __init__(self, schema: Schema | None = None) -> None:
        self.schema = schema if schema is not None else Schema()
        self._entity_types: dict[str, str | None] = {}
        self._adjacency: dict[str, list[NeighborEntry]] = {}
        self._edges: list[Edge] = []
        self._edge_keys: set[tuple[str, str, str, bool]] = set()
        # -- secondary indexes, maintained incrementally ---------------------
        # node -> (label, orientation) -> neighbor ids (insertion order)
        self._label_index: dict[str, dict[tuple[str, str], list[str]]] = {}
        # (source, target, label, orientation-as-seen-from-source) presence set
        self._edge_presence: set[tuple[str, str, str, str]] = set()
        # label -> number of edges, in first-use order (incremental
        # label-frequency table; its key order is `relation_labels()`)
        self._label_counts: dict[str, int] = {}
        # entity id -> dense integer handle; handle -> entity id
        self._handles: dict[str, int] = {}
        self._names: list[str] = []
        # cached immutable `entities` view, invalidated on add_entity
        self._entities_view: tuple[str, ...] | None = None
        # entity -> cached traversal tuples, invalidated per touched node
        self._traversal_cache: dict[str, tuple] = {}
        #: Mutation counter; bumps on every added entity or edge so external
        #: caches keyed on ``(kb, kb.version)`` can detect staleness.
        self.version = 0

    # -- construction ------------------------------------------------------

    def add_entity(self, entity: str, entity_type: str | None = None) -> None:
        """Add an entity node.  Re-adding an existing entity is a no-op,
        except that a non-``None`` ``entity_type`` overrides a ``None`` one.
        """
        if not entity:
            raise KnowledgeBaseError("entity id must be a non-empty string")
        if entity not in self._entity_types:
            entity = sys.intern(entity)
            self._entity_types[entity] = entity_type
            self._adjacency[entity] = []
            self._label_index[entity] = {}
            self._handles[entity] = len(self._names)
            self._names.append(entity)
            self._entities_view = None
            self.version += 1
        elif entity_type is not None and self._entity_types[entity] is None:
            self._entity_types[entity] = entity_type

    def add_edge(
        self,
        source: str,
        target: str,
        label: str,
        directed: bool | None = None,
    ) -> Edge:
        """Add a labelled edge, creating missing endpoints on the fly.

        Args:
            source: source entity id.
            target: target entity id.
            label: relationship label.
            directed: directionality override.  When ``None`` the schema is
                consulted; labels unknown to the schema are auto-registered
                as directed relations.

        Returns:
            The :class:`Edge` that was added (or the existing identical edge).
        """
        self.validate_edge_args(source, target, label, directed)
        if directed is None:
            if self.schema.has_relation(label):
                directed = self.schema.is_directed(label)
            else:
                directed = True
                self.schema.declare_relation(label, directed=True)
        elif not self.schema.has_relation(label):
            self.schema.declare_relation(label, directed=directed)

        label = sys.intern(label)
        self.add_entity(source)
        self.add_entity(target)
        source = sys.intern(source)
        target = sys.intern(target)
        edge = Edge(source=source, target=target, label=label, directed=directed)
        if edge.key() in self._edge_keys:
            return edge
        self._edge_keys.add(edge.key())
        self._edges.append(edge)
        self._label_counts[label] = self._label_counts.get(label, 0) + 1
        if directed:
            pairs = ((source, target, OUT), (target, source, IN))
        else:
            pairs = ((source, target, UNDIRECTED), (target, source, UNDIRECTED))
        for owner, neighbor, orientation in pairs:
            self._adjacency[owner].append(NeighborEntry(neighbor, label, orientation))
            self._label_index[owner].setdefault((label, orientation), []).append(neighbor)
            self._edge_presence.add((owner, neighbor, label, orientation))
            self._traversal_cache.pop(owner, None)
        self.version += 1
        return edge

    @staticmethod
    def validate_edge_args(
        source: object, target: object, label: object, directed: object = None
    ) -> None:
        """Raise :class:`KnowledgeBaseError` if :meth:`add_edge` would reject
        these arguments.

        This is the single source of truth for edge-argument validity:
        :meth:`add_edge` calls it before mutating anything, and batch callers
        (e.g. the serving layer's atomic ``POST /kb/edges``) pre-validate a
        whole batch with it so no edge is applied unless every edge passes.
        """
        for field, value in (("source", source), ("target", target)):
            if not isinstance(value, str) or not value:
                raise KnowledgeBaseError(
                    f"edge {field} must be a non-empty entity id string, got {value!r}"
                )
        if not isinstance(label, str) or not label:
            raise KnowledgeBaseError(
                f"edge label must be a non-empty string, got {label!r}"
            )
        if source == target:
            raise KnowledgeBaseError(
                f"self-loops are not part of the REX data model: {source!r}"
            )
        if directed is not None and not isinstance(directed, bool):
            raise KnowledgeBaseError(
                f"edge directionality must be a boolean or None, got {directed!r}"
            )

    def add_edges(self, edges: Iterable[tuple[str, str, str]]) -> None:
        """Bulk-add ``(source, target, label)`` triples."""
        for source, target, label in edges:
            self.add_edge(source, target, label)

    # -- queries -----------------------------------------------------------

    @property
    def entities(self) -> tuple[str, ...]:
        """All entity ids, in insertion order.

        Returned as a cached immutable view: the tuple is rebuilt only after
        a new entity was added, so repeated access (hot in the distributional
        sweeps) costs a single attribute load instead of an O(n) copy.
        """
        view = self._entities_view
        if view is None:
            view = self._entities_view = tuple(self._entity_types)
        return view

    @property
    def num_entities(self) -> int:
        return len(self._entity_types)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def __contains__(self, entity: object) -> bool:
        return entity in self._entity_types

    def __len__(self) -> int:
        return len(self._entity_types)

    def has_entity(self, entity: str) -> bool:
        """Whether ``entity`` is a node of the knowledge base."""
        return entity in self._entity_types

    def entity_type(self, entity: str) -> str | None:
        """The declared type of ``entity`` (``None`` if untyped)."""
        self._require_entity(entity)
        return self._entity_types[entity]

    def entities_of_type(self, entity_type: str) -> list[str]:
        """All entities declared with the given type."""
        return [
            entity
            for entity, declared in self._entity_types.items()
            if declared == entity_type
        ]

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges in insertion order."""
        return iter(self._edges)

    def neighbors(
        self, entity: str, label: str | None = None, orientation: str | None = None
    ) -> list[NeighborEntry]:
        """The labelled adjacency list of ``entity``, optionally filtered.

        Args:
            entity: the node whose adjacency is requested.
            label: restrict to entries carrying this relationship label.
            orientation: restrict to ``"out"``, ``"in"`` or ``"undirected"``
                entries (relative to ``entity``).

        Filtered requests are answered from the per-node secondary index, so
        callers never scan adjacency entries that cannot match.
        """
        self._require_entity(entity)
        if label is None and orientation is None:
            return list(self._adjacency[entity])
        index = self._label_index[entity]
        if label is not None and orientation is not None:
            return [
                NeighborEntry(neighbor, label, orientation)
                for neighbor in index.get((label, orientation), ())
            ]
        return [
            entry
            for entry in self._adjacency[entity]
            if (label is None or entry.label == label)
            and (orientation is None or entry.orientation == orientation)
        ]

    def neighbor_ids(
        self, entity: str, label: str, orientation: str
    ) -> Sequence[str]:
        """Neighbor ids of ``entity`` along ``label`` with ``orientation``.

        Constant-time index lookup returning the live internal list (callers
        must not mutate it).  This is the primitive the pattern matchers and
        the batched distributional evaluator are built on.
        """
        entry = self._label_index.get(entity)
        if entry is None:
            self._require_entity(entity)
            return ()
        return entry.get((label, orientation), ())

    def traversal_steps(
        self, entity: str
    ) -> tuple[tuple[str, str, bool, bool], ...]:
        """Cached ``(neighbor, label, directed, forward)`` traversal tuples.

        ``forward`` states whether a directed edge points from ``entity`` to
        ``neighbor``; undirected edges report ``directed=False, forward=True``.
        Enumerators that repeatedly walk the same nodes use this instead of
        translating :class:`NeighborEntry` orientations on every visit.  The
        cache entry of a node is invalidated when an edge touches it.
        """
        steps = self._traversal_cache.get(entity)
        if steps is None:
            self._require_entity(entity)
            steps = tuple(
                (
                    entry.neighbor,
                    entry.label,
                    entry.orientation != UNDIRECTED,
                    entry.orientation != IN,
                )
                for entry in self._adjacency[entity]
            )
            self._traversal_cache[entity] = steps
        return steps

    def degree(self, entity: str) -> int:
        """Number of incident edges (each undirected edge counted once)."""
        self._require_entity(entity)
        return len(self._adjacency[entity])

    def has_edge(
        self, source: str, target: str, label: str, direction: str = OUT
    ) -> bool:
        """Whether an edge with ``label`` connects ``source`` and ``target``.

        Args:
            direction: ``"out"`` requires ``source -> target`` for directed
                labels, ``"in"`` requires ``target -> source`` and ``"any"``
                accepts either.  Undirected edges match all three.
        """
        presence = self._edge_presence
        if (source, target, label, UNDIRECTED) in presence:
            return True
        if direction == "any":
            return (
                (source, target, label, OUT) in presence
                or (source, target, label, IN) in presence
            )
        return (source, target, label, direction) in presence

    def relation_labels(self) -> list[str]:
        """Distinct relation labels appearing on edges, in first-use order."""
        return list(self._label_counts)

    def label_counts(self) -> Mapping[str, int]:
        """Number of edges per relation label (incrementally maintained)."""
        return dict(self._label_counts)

    def label_count(self, label: str) -> int:
        """Number of edges carrying ``label`` (O(1))."""
        return self._label_counts.get(label, 0)

    # -- integer handles ---------------------------------------------------

    def handle_of(self, entity: str) -> int:
        """The dense integer handle of ``entity`` (stable across the KB's life).

        Handles let hot loops replace string keys with array indexes; they
        are assigned in entity insertion order, so ``entity_of(handle_of(x))``
        round-trips.
        """
        try:
            return self._handles[entity]
        except KeyError:
            raise UnknownEntityError(entity) from None

    def entity_of(self, handle: int) -> str:
        """The entity id carrying integer ``handle``."""
        try:
            return self._names[handle]
        except IndexError:
            raise KnowledgeBaseError(f"unknown entity handle: {handle}") from None

    # -- interoperability --------------------------------------------------

    def to_networkx(self) -> nx.MultiDiGraph:
        """Export the knowledge base as a ``networkx`` multigraph.

        Undirected edges are materialised as a pair of anti-parallel directed
        edges carrying ``directed=False`` so that no information is lost.
        """
        graph = nx.MultiDiGraph()
        for entity, entity_type in self._entity_types.items():
            graph.add_node(entity, entity_type=entity_type)
        for edge in self._edges:
            graph.add_edge(edge.source, edge.target, label=edge.label, directed=edge.directed)
            if not edge.directed:
                graph.add_edge(edge.target, edge.source, label=edge.label, directed=False)
        return graph

    def copy(self) -> "KnowledgeBase":
        """Return a deep, independent copy of the knowledge base."""
        clone = KnowledgeBase(schema=self.schema.copy())
        for entity, entity_type in self._entity_types.items():
            clone.add_entity(entity, entity_type)
        for edge in self._edges:
            clone.add_edge(edge.source, edge.target, edge.label, edge.directed)
        return clone

    def density(self) -> float:
        """Average degree; the paper notes density drives enumeration cost."""
        if not self._entity_types:
            return 0.0
        return 2.0 * len(self._edges) / len(self._entity_types)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KnowledgeBase({self.num_entities} entities, {self.num_edges} edges, "
            f"{len(self.relation_labels())} relation labels)"
        )

    # -- internals ---------------------------------------------------------

    def _require_entity(self, entity: str) -> None:
        if entity not in self._entity_types:
            raise UnknownEntityError(entity)
