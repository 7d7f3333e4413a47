"""A compiled, array-backed view of a frozen knowledge base (CSR planes).

The dict-of-interned-strings :class:`~repro.kb.graph.KnowledgeBase` is the
right substrate for *building* a knowledge base incrementally, but the hot
loops of pattern enumeration and the distributional sweeps pay for its
flexibility on every expansion: a string-keyed dict probe plus a
``(label, orientation)`` tuple allocation per index lookup, and worker
replicas are rebuilt edge-by-edge through ``add_edge``.  In the style of
D4M's associative arrays and factorised-database storage, :class:`CompiledKB`
freezes a knowledge base at one :attr:`~repro.kb.graph.KnowledgeBase.version`
into contiguous integer arrays:

* **id / handle tables** — ``names[handle] -> entity id`` and the inverse
  dict, reusing the dense insertion-order handles the dict KB already
  assigns, plus a ``label_of[code] -> label`` table for relation labels;
* **CSR planes** — one ``(label, orientation)`` slice of the adjacency,
  stored as an offsets ``array('i')`` of length ``n + 1`` plus a flat
  neighbor ``array('i')`` (row ``h`` is ``neighbors[offsets[h]:offsets[h+1]]``
  in edge-insertion order, exactly the dict index's row order);
* **a traversal CSR** — the full adjacency with one packed step code per
  entry (``label_code * 4 + directed * 2 + forward``), the substrate of the
  path enumerators;
* **degree and sort-rank tables** — ``degrees[h]`` mirrors ``kb.degree`` and
  ``sort_rank[h]`` is the rank of ``names[h]`` in lexicographic order, so
  kernels can reproduce ``sorted(entity_ids)`` by sorting integer handles;
* **a packed edge-membership hash** — a set of single integers
  ``(src * n + dst) * (num_labels * 3) + label_code * 3 + orientation``
  answering ``has_edge`` without tuple allocation.

A compiled view is **read-only** (mutators raise) and carries the version it
was compiled at; the serving engine caches one per KB version.  It is the
one read backend: the matcher, path enumeration and the sweeps of
:mod:`repro.kb.sql` run on its integer handles end to end, and a plain KB
reaches them through :func:`compile_kb`, which caches one view per KB object
and version.  The view also duck-types the read API of
:class:`~repro.kb.graph.KnowledgeBase` — decoding handles back to strings at
those API boundaries — so NaiveEnum and the other KB-API readers run on it
unchanged.

:meth:`CompiledKB.to_buffers` / :meth:`CompiledKB.from_buffers` round-trip
the arrays as ``tobytes()`` blobs, which is what checkpoints
(:mod:`repro.kb.checkpoint`) store and snapshot payloads
(:mod:`repro.parallel.snapshot`) ship to worker processes: restoring a
replica is a handful of ``frombytes`` calls instead of N× ``add_edge``.
:func:`extend_compiled` builds the next version of a view straight from a
write batch, so the serving engine never holds a mutable KB.
"""

from __future__ import annotations

import json
import threading
import time
from array import array
from typing import Any, Iterable, Iterator, Mapping, Sequence
from weakref import WeakKeyDictionary

import networkx as nx

from repro.errors import KnowledgeBaseError, UnknownEntityError
from repro.kb.graph import IN, OUT, UNDIRECTED, Edge, KnowledgeBase, NeighborEntry
from repro.kb.schema import EntityType, RelationType, Schema

__all__ = [
    "CompiledKB",
    "OverlayCompiledKB",
    "compile_kb",
    "extend_compiled",
    "ORIENT_CODE",
]

#: Orientation codes of the CSR planes (relative to the row's owning node).
#: A ``(label, orientation)`` plane lives at ``label_code * 3 + orientation``;
#: this contract is load-bearing for plane selection, the packed presence
#: keys and the shipped buffers, so every kernel imports :data:`ORIENT_CODE`
#: from here instead of restating the mapping.
ORIENT_OUT = 0
ORIENT_IN = 1
ORIENT_UNDIRECTED = 2
ORIENT_CODE = {OUT: ORIENT_OUT, IN: ORIENT_IN, UNDIRECTED: ORIENT_UNDIRECTED}
_ORIENT_CODE = ORIENT_CODE

#: Longest row a membership table holds as the row tuple itself.  A miss in
#: an 8-tuple costs ~95 ns against ~20 ns in a frozenset, and a leaf probes
#: only its bound slots, but a frozenset per row is one more long-lived
#: object that every full garbage collection traverses.
MEMBERS_TUPLE_MAX = 8


def row_members(row: tuple[int, ...]) -> "tuple[int, ...] | frozenset[int]":
    """The membership-table entry of ``row``: the row itself when short."""
    return row if len(row) <= MEMBERS_TUPLE_MAX else frozenset(row)


_READ_ONLY_MESSAGE = (
    "CompiledKB is a read-only snapshot; extend_compiled builds the view of "
    "the next version"
)


class CompiledKB:
    """An immutable, array-backed snapshot of a knowledge base.

    Build one with :meth:`compile` (or the :func:`compile_kb` convenience);
    construction from raw parts is internal.  All read accessors mirror
    :class:`~repro.kb.graph.KnowledgeBase` semantics — including iteration
    orders, which downstream determinism relies on.

    Example:
        >>> from repro.datasets.paper_example import paper_example_kb
        >>> compiled = CompiledKB.compile(paper_example_kb())
        >>> compiled.degree("brad_pitt") == paper_example_kb().degree("brad_pitt")
        True
    """

    def __init__(self) -> None:
        # Populated by compile()/from_buffers(); listed here for reference.
        self.schema: Schema = Schema()
        self.version: int = 0
        self.names: list[str] = []
        self.handles: dict[str, int] = {}
        self.types: list[str | None] = []
        self.label_of: list[str] = []
        self.label_code: dict[str, int] = {}
        self.adj_offsets: array = array("i")
        self.adj_neighbors: array = array("i")
        self.adj_codes: array = array("i")
        self.plane_offsets: list[array | None] = []
        self.plane_neighbors: list[array | None] = []
        self.degrees: array = array("i")
        self.sort_rank: array = array("i")
        self.presence: set[int] = set()
        # -- presence packing parameters ------------------------------------
        # The packed keys in ``presence`` were minted against a specific
        # entity count and plane count; an overlay view shares its base's
        # ``presence`` set untouched, so probes must pack with the *base's*
        # parameters and fall through to ``presence_delta`` (plain
        # ``(src, dst, plane)`` tuples) for edges the delta added.  A regular
        # compile sets these to its own dimensions and an empty delta.
        self.presence_n: int = 0
        self.presence_planes: int = 0
        self._presence_stride: int = 1
        self.presence_delta: frozenset[tuple[int, int, int]] = frozenset()
        self.edge_src: array = array("i")
        self.edge_dst: array = array("i")
        self.edge_label: array = array("i")
        self.edge_directed: array = array("b")
        #: Wall seconds the compile itself took (0.0 for restored replicas).
        self.compile_seconds: float = 0.0
        # -- lazily materialised kernel caches --------------------------------
        # plane index -> per-node row tuple / frozenset (None until first use).
        # A compiled view is shared by every serving thread of one KB version,
        # so list *creation* and the full-materialisation fill are serialised
        # by _plane_lock: without it, two threads could each allocate a table
        # for the same plane and one could flag the canonical (unfilled) table
        # complete.  Individual row fills stay lock-free — they are idempotent
        # writes of equal values.  Membership tables (plane index -> complete
        # list of ``row_members`` entries) are published whole, once built.
        self._plane_lock = threading.Lock()
        self._plane_rows: dict[int, list[tuple[int, ...] | None]] = {}
        self._plane_row_sets: dict[int, list[frozenset[int] | None]] = {}
        self._plane_rows_complete: dict[int, bool] = {}
        self._plane_members: dict[int, list] = {}
        self._entities_view: tuple[str, ...] | None = None
        self._edges_view: tuple[Edge, ...] | None = None
        self._label_counts: dict[str, int] | None = None
        self._neighbor_entries: dict[int, list[NeighborEntry]] = {}
        self._traversal_cache: dict[int, tuple] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def compile(cls, kb: KnowledgeBase) -> "CompiledKB":
        """Freeze ``kb`` at its current version into array planes.

        One pass over the adjacency and the per-node secondary indexes; the
        source KB is not modified and must not be mutated concurrently (the
        serving engine compiles under its KB read lock).
        """
        if isinstance(kb, CompiledKB):
            return kb
        started = time.perf_counter()
        compiled = cls()
        compiled.schema = kb.schema.copy()
        compiled.version = kb.version

        names = list(kb.entities)
        n = len(names)
        compiled.names = names
        compiled.handles = handles = {name: h for h, name in enumerate(names)}
        compiled.types = [kb._entity_types[name] for name in names]  # noqa: SLF001

        labels = list(kb.relation_labels())
        compiled.label_of = labels
        compiled.label_code = label_code = {
            label: code for code, label in enumerate(labels)
        }
        num_planes = len(labels) * 3
        stride = num_planes if num_planes else 1
        compiled.presence_n = n
        compiled.presence_planes = num_planes
        compiled._presence_stride = stride

        adj_offsets = array("i", bytes(4 * (n + 1)))
        adj_neighbors = array("i")
        adj_codes = array("i")
        degrees = array("i", bytes(4 * n))
        # per-plane accumulation: rows arrive grouped by owning node because
        # the outer loop runs in handle order, so the flat lists are CSR-ready
        plane_counts: list[array | None] = [None] * num_planes
        plane_flat: list[list[int] | None] = [None] * num_planes
        presence: list[int] = []

        adjacency = kb._adjacency  # noqa: SLF001 - same-subsystem compile
        label_index = kb._label_index  # noqa: SLF001

        # step code per (label, orientation): label_code * 4 + directed * 2 + forward
        step_code = {
            (label, orientation): label_code[label] * 4
            + (0 if orientation == UNDIRECTED else 2)
            + (0 if orientation == IN else 1)
            for label in labels
            for orientation in (OUT, IN, UNDIRECTED)
        }
        plane_of = {
            (label, orientation): label_code[label] * 3 + orient
            for label in labels
            for orientation, orient in _ORIENT_CODE.items()
        }
        handle_of = handles.__getitem__
        cursor = 0
        for h, name in enumerate(names):
            row = adjacency[name]
            cursor += len(row)
            adj_offsets[h + 1] = cursor
            degrees[h] = len(row)
            adj_neighbors.extend([handles[entry.neighbor] for entry in row])
            adj_codes.extend(
                [step_code[entry.label, entry.orientation] for entry in row]
            )
            base = h * n
            for key, neighbors in label_index[name].items():
                plane = plane_of[key]
                counts = plane_counts[plane]
                if counts is None:
                    counts = plane_counts[plane] = array("i", bytes(4 * n))
                    plane_flat[plane] = []
                counts[h] = len(neighbors)
                row_handles = list(map(handle_of, neighbors))
                plane_flat[plane].extend(row_handles)
                packed_base = base * stride + plane
                presence.extend([packed_base + nh * stride for nh in row_handles])

        compiled.adj_offsets = adj_offsets
        compiled.adj_neighbors = adj_neighbors
        compiled.adj_codes = adj_codes
        compiled.degrees = degrees
        compiled.presence = set(presence)

        plane_offsets: list[array | None] = [None] * num_planes
        plane_neighbors: list[array | None] = [None] * num_planes
        for plane in range(num_planes):
            counts = plane_counts[plane]
            if counts is None:
                continue
            offsets = array("i", bytes(4 * (n + 1)))
            total = 0
            for h in range(n):
                total += counts[h]
                offsets[h + 1] = total
            plane_offsets[plane] = offsets
            plane_neighbors[plane] = array("i", plane_flat[plane])
        compiled.plane_offsets = plane_offsets
        compiled.plane_neighbors = plane_neighbors

        edge_list = list(kb.edges())
        compiled.edge_src = array("i", [handles[edge.source] for edge in edge_list])
        compiled.edge_dst = array("i", [handles[edge.target] for edge in edge_list])
        compiled.edge_label = array("i", [label_code[edge.label] for edge in edge_list])
        compiled.edge_directed = array(
            "b", [1 if edge.directed else 0 for edge in edge_list]
        )

        rank = array("i", bytes(4 * n))
        for position, h in enumerate(sorted(range(n), key=names.__getitem__)):
            rank[h] = position
        compiled.sort_rank = rank

        compiled.compile_seconds = time.perf_counter() - started
        return compiled

    # -- zero-copy-ish shipping --------------------------------------------

    def to_buffers(self) -> tuple[Any, ...]:
        """The compiled arrays as a tuple of plain bytes/str/int values.

        This is the body of checkpoints and of a snapshot payload's base:
        every array ships as one ``tobytes()`` blob (a single memcpy each
        way), the string tables as JSON, and the schema as plain tuples.
        """
        relations = tuple(
            (relation.name, relation.directed, relation.domain, relation.range)
            for relation in self.schema
        )
        entity_types = tuple(
            (entity_type.name, entity_type.description)
            for entity_type in self.schema.entity_types.values()
        )
        presence = array("q", sorted(self.presence))
        planes = tuple(
            (plane, offsets.tobytes(), self.plane_neighbors[plane].tobytes())
            for plane, offsets in enumerate(self.plane_offsets)
            if offsets is not None
        )
        return (
            self.version,
            relations,
            entity_types,
            json.dumps(self.names, ensure_ascii=False),
            json.dumps(self.types, ensure_ascii=False),
            json.dumps(self.label_of, ensure_ascii=False),
            len(self.names),
            self.adj_offsets.tobytes(),
            self.adj_neighbors.tobytes(),
            self.adj_codes.tobytes(),
            planes,
            self.degrees.tobytes(),
            self.sort_rank.tobytes(),
            presence.tobytes(),
            self.edge_src.tobytes(),
            self.edge_dst.tobytes(),
            self.edge_label.tobytes(),
            self.edge_directed.tobytes(),
        )

    @classmethod
    def from_buffers(cls, buffers: tuple[Any, ...]) -> "CompiledKB":
        """Rebuild a compiled view from :meth:`to_buffers` output.

        Pure bulk restores: ``frombytes`` per array, one JSON parse per string
        table and one ``set`` construction for the membership hash — no
        per-edge Python work, which is what makes worker recycling cheap.
        """
        (
            version,
            relations,
            entity_types,
            names_json,
            types_json,
            labels_json,
            n,
            adj_offsets_b,
            adj_neighbors_b,
            adj_codes_b,
            planes,
            degrees_b,
            sort_rank_b,
            presence_b,
            edge_src_b,
            edge_dst_b,
            edge_label_b,
            edge_directed_b,
        ) = buffers
        compiled = cls()
        compiled.version = version
        compiled.schema = Schema(
            relations=(
                RelationType(name=name, directed=directed, domain=domain, range=range_)
                for name, directed, domain, range_ in relations
            ),
            entity_types=(
                EntityType(name=name, description=description)
                for name, description in entity_types
            ),
        )
        compiled.names = names = json.loads(names_json)
        compiled.handles = {name: h for h, name in enumerate(names)}
        compiled.types = json.loads(types_json)
        compiled.label_of = labels = json.loads(labels_json)
        compiled.label_code = {label: code for code, label in enumerate(labels)}
        compiled.presence_n = n
        compiled.presence_planes = len(labels) * 3
        compiled._presence_stride = compiled.presence_planes or 1

        def restore(typecode: str, blob: bytes) -> array:
            arr = array(typecode)
            arr.frombytes(blob)
            return arr

        compiled.adj_offsets = restore("i", adj_offsets_b)
        compiled.adj_neighbors = restore("i", adj_neighbors_b)
        compiled.adj_codes = restore("i", adj_codes_b)
        num_planes = len(labels) * 3
        compiled.plane_offsets = [None] * num_planes
        compiled.plane_neighbors = [None] * num_planes
        for plane, offsets_b, neighbors_b in planes:
            compiled.plane_offsets[plane] = restore("i", offsets_b)
            compiled.plane_neighbors[plane] = restore("i", neighbors_b)
        compiled.degrees = restore("i", degrees_b)
        compiled.sort_rank = restore("i", sort_rank_b)
        compiled.presence = set(restore("q", presence_b).tolist())
        compiled.edge_src = restore("i", edge_src_b)
        compiled.edge_dst = restore("i", edge_dst_b)
        compiled.edge_label = restore("i", edge_label_b)
        compiled.edge_directed = restore("b", edge_directed_b)
        return compiled

    def plane_bytes(self) -> int:
        """Total bytes held by the CSR planes and tables (for ``/metrics``)."""
        total = 0
        for arr in (
            self.adj_offsets,
            self.adj_neighbors,
            self.adj_codes,
            self.degrees,
            self.sort_rank,
            self.edge_src,
            self.edge_dst,
            self.edge_label,
            self.edge_directed,
        ):
            total += len(arr) * arr.itemsize
        for offsets in self.plane_offsets:
            if offsets is not None:
                total += len(offsets) * offsets.itemsize
        for neighbors in self.plane_neighbors:
            if neighbors is not None:
                total += len(neighbors) * neighbors.itemsize
        total += len(self.presence) * 8
        return total

    # -- integer-handle kernel surface -------------------------------------

    @property
    def num_planes(self) -> int:
        return len(self.label_of) * 3

    @property
    def presence_stride(self) -> int:
        """Multiplier of the packed presence keys.

        Fixed at compile time (``num_labels * 3`` of the compile that built
        ``presence``); an overlay view keeps its base's stride even after the
        delta introduced new labels, because the shared ``presence`` set was
        packed with the base's dimensions.
        """
        return self._presence_stride

    def _plane_lists(self, plane: int) -> tuple[list | None, list | None]:
        """The (shared, canonical) lazy row/row-set tables of one plane.

        Creation happens under :attr:`_plane_lock` so every thread indexes
        the *same* lists — a lost-update race here would let one thread fill
        (and flag complete) a table that another thread's kernel never sees.
        Returns ``(None, None)`` for an empty plane.
        """
        rows = self._plane_rows.get(plane)
        sets = self._plane_row_sets.get(plane)
        if rows is not None and sets is not None:
            return rows, sets
        if plane >= len(self.plane_offsets) or self.plane_offsets[plane] is None:
            return None, None
        with self._plane_lock:
            rows = self._plane_rows.get(plane)
            if rows is None:
                rows = self._plane_rows[plane] = [None] * len(self.names)
            sets = self._plane_row_sets.get(plane)
            if sets is None:
                sets = self._plane_row_sets[plane] = [None] * len(self.names)
        return rows, sets

    def plane_row(self, plane: int, h: int) -> tuple[int, ...]:
        """Row ``h`` of a ``(label, orientation)`` plane as a cached tuple.

        Rows are materialised as tuples of (shared) ``int`` objects on first
        access so the inner loops of the kernels iterate allocation-free; the
        underlying arrays stay the compact shipping representation.
        """
        rows, _ = self._plane_lists(plane)
        if rows is None:
            return ()
        row = rows[h]
        if row is None:
            offsets = self.plane_offsets[plane]
            row = rows[h] = tuple(
                self.plane_neighbors[plane][offsets[h] : offsets[h + 1]]
            )
        return row

    def plane_row_set(self, plane: int, h: int) -> frozenset[int]:
        """Row ``h`` of a plane as a cached frozenset (for intersections)."""
        _, sets = self._plane_lists(plane)
        if sets is None:
            return frozenset()
        row_set = sets[h]
        if row_set is None:
            row_set = sets[h] = frozenset(self.plane_row(plane, h))
        return row_set

    def plane_buffers(
        self, plane: int
    ) -> tuple[list | None, list | None, array | None, array | None]:
        """Kernel-inlining view of one plane: ``(rows, row_sets, offsets, nbrs)``.

        ``rows``/``row_sets`` are the shared lazy caches behind
        :meth:`plane_row` / :meth:`plane_row_set`; kernels index them directly
        and materialise missing rows inline from ``offsets``/``nbrs`` without
        a method call per expansion.  Returns all ``None`` for an empty plane.
        """
        rows, sets = self._plane_lists(plane)
        if rows is None:
            return None, None, None, None
        return rows, sets, self.plane_offsets[plane], self.plane_neighbors[plane]

    def pack_edge(self, src: int, dst: int, plane: int) -> int:
        """The packed presence key of ``(src, dst, plane)``.

        Only meaningful for handles/planes within the presence packing
        dimensions (``presence_n`` / ``presence_planes``); overlay-added
        edges live in :attr:`presence_delta` instead.
        """
        return (src * self.presence_n + dst) * self._presence_stride + plane

    def has_plane_entry(self, src: int, dst: int, plane: int) -> bool:
        """Whether row ``src`` of ``plane`` holds ``dst``.

        An exact probe of one ``(label, orientation)`` plane, unlike
        :meth:`has_edge`, where an undirected edge answers a directed probe
        too.  Base edges are looked up packed, overlay-added ones in
        :attr:`presence_delta`.
        """
        pn = self.presence_n
        if src < pn and dst < pn and plane < self.presence_planes:
            if (src * pn + dst) * self._presence_stride + plane in self.presence:
                return True
        return (src, dst, plane) in self.presence_delta

    def plane_tables(
        self, plane: int, with_members: bool = False
    ) -> tuple[list | None, list | None]:
        """Fully materialised ``(rows, members)`` tables of one plane.

        Generated sweep kernels index these without any lazy-fill branch in
        the hot loop, so the whole plane is materialised up front on first
        request (one pass over the plane's CSR arrays, amortised across every
        sweep against this compiled view).  ``members`` (``None`` unless
        ``with_members``; leaf steps need membership tests) holds
        :func:`row_members` of every row: the row tuple itself for a short
        row, a frozenset only for a long one.  The fill-then-flag sequence
        runs under the plane lock so a concurrent caller can never observe a
        completeness flag before the fill.
        """
        rows, _ = self._plane_lists(plane)
        if rows is None:
            return None, None
        offsets = self.plane_offsets[plane]
        neighbors = self.plane_neighbors[plane]
        if not self._plane_rows_complete.get(plane):
            with self._plane_lock:
                if not self._plane_rows_complete.get(plane):
                    for h in range(len(self.names)):
                        if rows[h] is None:
                            offset = offsets[h]
                            rows[h] = tuple(neighbors[offset : offsets[h + 1]])
                    self._plane_rows_complete[plane] = True
        if not with_members:
            return rows, None
        members = self._plane_members.get(plane)
        if members is None:
            with self._plane_lock:
                members = self._plane_members.get(plane)
                if members is None:
                    members = self._plane_members[plane] = list(map(row_members, rows))
        return rows, members

    # -- KnowledgeBase read API (strings at the boundary) -------------------

    @property
    def entities(self) -> tuple[str, ...]:
        view = self._entities_view
        if view is None:
            view = self._entities_view = tuple(self.names)
        return view

    @property
    def num_entities(self) -> int:
        return len(self.names)

    @property
    def num_edges(self) -> int:
        return len(self.edge_src)

    def __contains__(self, entity: object) -> bool:
        return entity in self.handles

    def __len__(self) -> int:
        return len(self.names)

    def has_entity(self, entity: str) -> bool:
        return entity in self.handles

    def entity_type(self, entity: str) -> str | None:
        return self.types[self._require_handle(entity)]

    def entities_of_type(self, entity_type: str) -> list[str]:
        return [
            name
            for name, declared in zip(self.names, self.types)
            if declared == entity_type
        ]

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges in insertion order (decoded, cached)."""
        view = self._edges_view
        if view is None:
            label_of = self.label_of
            names = self.names
            view = self._edges_view = tuple(
                Edge(
                    source=names[src],
                    target=names[dst],
                    label=label_of[label],
                    directed=bool(directed),
                )
                for src, dst, label, directed in zip(
                    self.edge_src, self.edge_dst, self.edge_label, self.edge_directed
                )
            )
        return iter(view)

    def adj_pairs(self, h: int) -> tuple[tuple[int, int], ...]:
        """Row ``h`` of the traversal CSR as ``(neighbor_handle, step_code)``.

        The one accessor hot paths use to walk the full adjacency of a node,
        overridable by delta views that splice overlay entries onto the base
        arrays.  Entries come in edge-insertion order, the same order the
        dict KB's adjacency lists hold.
        """
        start = self.adj_offsets[h]
        end = self.adj_offsets[h + 1]
        return tuple(
            zip(self.adj_neighbors[start:end], self.adj_codes[start:end])
        )

    def _entries_of(self, h: int) -> list[NeighborEntry]:
        entries = self._neighbor_entries.get(h)
        if entries is None:
            names = self.names
            label_of = self.label_of
            entries = []
            for nh, code in self.adj_pairs(h):
                if not code & 2:
                    orientation = UNDIRECTED
                elif code & 1:
                    orientation = OUT
                else:
                    orientation = IN
                entries.append(
                    NeighborEntry(names[nh], label_of[code >> 2], orientation)
                )
            self._neighbor_entries[h] = entries
        return entries

    def neighbors(
        self, entity: str, label: str | None = None, orientation: str | None = None
    ) -> list[NeighborEntry]:
        h = self._require_handle(entity)
        if label is None and orientation is None:
            return list(self._entries_of(h))
        if label is not None and orientation is not None:
            code = self.label_code.get(label)
            orient = _ORIENT_CODE.get(orientation)
            if code is None or orient is None:
                return []
            names = self.names
            return [
                NeighborEntry(names[nh], label, orientation)
                for nh in self.plane_row(code * 3 + orient, h)
            ]
        return [
            entry
            for entry in self._entries_of(h)
            if (label is None or entry.label == label)
            and (orientation is None or entry.orientation == orientation)
        ]

    def neighbor_ids(self, entity: str, label: str, orientation: str) -> Sequence[str]:
        h = self.handles.get(entity)
        if h is None:
            raise UnknownEntityError(entity)
        code = self.label_code.get(label)
        orient = _ORIENT_CODE.get(orientation)
        if code is None or orient is None:
            return ()
        names = self.names
        return tuple(names[nh] for nh in self.plane_row(code * 3 + orient, h))

    def traversal_steps(self, entity: str) -> tuple[tuple[str, str, bool, bool], ...]:
        h = self._require_handle(entity)
        steps = self._traversal_cache.get(h)
        if steps is None:
            steps = self._traversal_cache[h] = tuple(
                (
                    entry.neighbor,
                    entry.label,
                    entry.orientation != UNDIRECTED,
                    entry.orientation != IN,
                )
                for entry in self._entries_of(h)
            )
        return steps

    def degree(self, entity: str) -> int:
        return self.degrees[self._require_handle(entity)]

    def has_edge(
        self, source: str, target: str, label: str, direction: str = OUT
    ) -> bool:
        src = self.handles.get(source)
        dst = self.handles.get(target)
        code = self.label_code.get(label)
        if src is None or dst is None or code is None:
            return False
        if direction != "any":
            orient = _ORIENT_CODE.get(direction)
            if orient is None:
                return False
        plane = code * 3
        pn = self.presence_n
        # Probe the packed base set only for keys its packing can express;
        # overlay-added entities/labels fall outside it by construction.
        if src < pn and dst < pn and plane + 3 <= self.presence_planes:
            presence = self.presence
            packed = (src * pn + dst) * self._presence_stride + plane
            if packed + ORIENT_UNDIRECTED in presence:
                return True
            if direction == "any":
                if packed + ORIENT_OUT in presence or packed + ORIENT_IN in presence:
                    return True
            elif packed + orient in presence:
                return True
        delta = self.presence_delta
        if not delta:
            return False
        if (src, dst, plane + ORIENT_UNDIRECTED) in delta:
            return True
        if direction == "any":
            return (src, dst, plane + ORIENT_OUT) in delta or (
                src,
                dst,
                plane + ORIENT_IN,
            ) in delta
        return (src, dst, plane + orient) in delta

    def relation_labels(self) -> list[str]:
        return list(self.label_of)

    def label_counts(self) -> Mapping[str, int]:
        if self._label_counts is None:
            counts: dict[str, int] = {}
            label_of = self.label_of
            for code in self.edge_label:
                label = label_of[code]
                counts[label] = counts.get(label, 0) + 1
            self._label_counts = counts
        return dict(self._label_counts)

    def label_count(self, label: str) -> int:
        return self.label_counts().get(label, 0)

    def handle_of(self, entity: str) -> int:
        try:
            return self.handles[entity]
        except KeyError:
            raise UnknownEntityError(entity) from None

    def entity_of(self, handle: int) -> str:
        try:
            return self.names[handle]
        except IndexError:
            raise KnowledgeBaseError(f"unknown entity handle: {handle}") from None

    def density(self) -> float:
        if not self.names:
            return 0.0
        return 2.0 * self.num_edges / len(self.names)

    def to_networkx(self) -> nx.MultiDiGraph:
        graph = nx.MultiDiGraph()
        for name, entity_type in zip(self.names, self.types):
            graph.add_node(name, entity_type=entity_type)
        for edge in self.edges():
            graph.add_edge(
                edge.source, edge.target, label=edge.label, directed=edge.directed
            )
            if not edge.directed:
                graph.add_edge(edge.target, edge.source, label=edge.label, directed=False)
        return graph

    # -- mutation guards ----------------------------------------------------

    def add_entity(self, *args, **kwargs):
        raise KnowledgeBaseError(_READ_ONLY_MESSAGE)

    def add_edge(self, *args, **kwargs):
        raise KnowledgeBaseError(_READ_ONLY_MESSAGE)

    def add_edges(self, *args, **kwargs):
        raise KnowledgeBaseError(_READ_ONLY_MESSAGE)

    validate_edge_args = staticmethod(KnowledgeBase.validate_edge_args)

    # -- internals ----------------------------------------------------------

    def _require_handle(self, entity: str) -> int:
        handle = self.handles.get(entity)
        if handle is None:
            raise UnknownEntityError(entity)
        return handle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledKB({self.num_entities} entities, {self.num_edges} edges, "
            f"{len(self.label_of)} labels, version={self.version})"
        )


class OverlayCompiledKB(CompiledKB):
    """A compiled view expressed as a root base plus a small sorted delta.

    Instead of recompiling every CSR plane when a write batch lands, the
    engine extends the previous compiled view with the write batch
    (:func:`extend_compiled`):
    the base's big structures (plane CSR arrays, the packed presence set, the
    traversal CSR) are **shared untouched**, and the delta lives in small
    side structures merged at probe time —

    * ``presence_delta`` — plain ``(src, dst, plane)`` tuples probed after
      the base's packed set misses;
    * ``_plane_appends`` — per-plane ``{handle: [appended neighbors]}``,
      spliced onto base rows when a plane's row tables are first requested;
    * ``_adj_appends`` / ``_adj_new`` — traversal-CSR row extensions served
      through :meth:`adj_pairs`.

    Because the KB is append-only (entities
    keep their dense insertion-order handles, labels their first-use codes,
    adjacency rows their insertion order), base row + appended tail is
    *exactly* the row a from-scratch compile would produce — enumeration
    orders, and therefore every downstream ranking, stay byte-identical.
    The delta is always **cumulative relative to a root (non-overlay) base**,
    so chains never nest and probe cost stays one extra set lookup, but each
    version is built from the *previous* one by copy-on-write
    (:meth:`_extend`): a write costs its own batch plus C-level copies, and
    a view held by in-flight readers is never mutated.  Plane tables start
    from the base's materialised rows and row sets and rebuild only the rows
    the delta touched.  :meth:`compact` folds the delta back into a full
    :class:`CompiledKB` (byte-identical to a fresh compile) once the overlay
    outgrows its threshold.
    """

    def __init__(self) -> None:
        super().__init__()
        self._base: CompiledKB = self  # replaced by _extend
        self._base_n: int = 0
        self._new_n: int = 0
        self._delta_edges: list[tuple[int, int, int, int]] = []
        # plane -> {owner handle -> [appended neighbor handles]}
        self._plane_appends: dict[int, dict[int, list[int]]] = {}
        # traversal-CSR extensions: base handles -> appended (nh, code) pairs,
        # and one full row per overlay-added handle
        self._adj_appends: dict[int, list[tuple[int, int]]] = {}
        self._adj_new: list[list[tuple[int, int]]] = []
        self._adj_cache: dict[int, tuple[tuple[int, int], ...]] = {}
        self._compacted: CompiledKB | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def _extend(
        cls,
        prev: CompiledKB,
        new_names: list[str],
        new_types: list[str | None],
        new_labels: list[str],
        schema: Schema,
        version: int,
        batch: list[tuple[int, int, int, int]],
    ) -> "OverlayCompiledKB":
        """The next version: ``prev`` (a root compile or an overlay) + ``batch``.

        ``batch`` holds the ``(src, dst, label_code, directed)`` edges added
        since ``prev``, in the extended handle/label space and KB insertion
        order; ``new_names``/``new_labels`` are the entities and labels they
        introduced.  ``prev``'s side structures are copied at C level (list,
        dict, set and array copies) and only the entries the batch touches
        are rebuilt, so the Python work is proportional to the batch, not to
        the accumulated delta.  Nothing reachable from ``prev`` is mutated.
        """
        started = time.perf_counter()
        overlay = cls()
        if isinstance(prev, OverlayCompiledKB):
            base = prev._base
            overlay._delta_edges = prev._delta_edges + batch
            plane_appends = dict(prev._plane_appends)
            adj_appends = dict(prev._adj_appends)
            adj_new = list(prev._adj_new)
            presence_delta = prev.presence_delta
        else:
            base = prev
            overlay._delta_edges = list(batch)
            plane_appends = {}
            adj_appends = {}
            adj_new = []
            presence_delta = frozenset()
        base_n = base.num_entities
        prev_n = prev.num_entities
        overlay._base = base
        overlay._base_n = base_n
        overlay._new_n = prev_n - base_n + len(new_names)
        overlay.schema = schema
        overlay.version = version
        if new_names:
            overlay.names = prev.names + new_names
            overlay.types = prev.types + new_types
            handles = overlay.handles = dict(prev.handles)
            for offset, name in enumerate(new_names):
                handles[name] = prev_n + offset
            adj_new.extend([] for _ in new_names)
        else:
            overlay.names = prev.names
            overlay.types = prev.types
            overlay.handles = prev.handles
        if new_labels:
            overlay.label_of = prev.label_of + new_labels
            label_code = overlay.label_code = dict(prev.label_code)
            for offset, label in enumerate(new_labels):
                label_code[label] = len(prev.label_of) + offset
        else:
            overlay.label_of = prev.label_of
            overlay.label_code = prev.label_code

        # shared base structures + packing parameters of the base's presence
        overlay.presence = base.presence
        overlay.presence_n = base.presence_n
        overlay.presence_planes = base.presence_planes
        overlay._presence_stride = base._presence_stride
        overlay.adj_offsets = base.adj_offsets
        overlay.adj_neighbors = base.adj_neighbors
        overlay.adj_codes = base.adj_codes

        degrees = prev.degrees[:]
        if new_names:
            degrees.extend(array("i", bytes(4 * len(new_names))))
        overlay.degrees = degrees
        overlay.edge_src = prev.edge_src + array("i", [edge[0] for edge in batch])
        overlay.edge_dst = prev.edge_dst + array("i", [edge[1] for edge in batch])
        overlay.edge_label = prev.edge_label + array("i", [edge[2] for edge in batch])
        overlay.edge_directed = prev.edge_directed + array(
            "b", [1 if edge[3] else 0 for edge in batch]
        )

        # this batch's appends, grouped by plane and owner in insertion order
        batch_planes: dict[int, dict[int, list[int]]] = {}
        batch_adj: dict[int, list[tuple[int, int]]] = {}
        added: set[tuple[int, int, int]] = set()
        for src, dst, code, directed in batch:
            if directed:
                owner_entries = (
                    (src, dst, ORIENT_OUT, code * 4 + 3),
                    (dst, src, ORIENT_IN, code * 4 + 2),
                )
            else:
                owner_entries = (
                    (src, dst, ORIENT_UNDIRECTED, code * 4 + 1),
                    (dst, src, ORIENT_UNDIRECTED, code * 4 + 1),
                )
            for owner, neighbor, orient, step in owner_entries:
                plane = code * 3 + orient
                added.add((owner, neighbor, plane))
                batch_planes.setdefault(plane, {}).setdefault(owner, []).append(
                    neighbor
                )
                batch_adj.setdefault(owner, []).append((neighbor, step))
                degrees[owner] += 1
        # copy-on-write: every touched row is a new list (concatenation), so
        # the lists and dicts ``prev`` holds are shared but never appended to
        for plane, owners in batch_planes.items():
            rows = plane_appends[plane] = dict(plane_appends.get(plane, ()))
            for owner, extra in owners.items():
                rows[owner] = rows.get(owner, []) + extra
        for owner, extra in batch_adj.items():
            if owner < base_n:
                adj_appends[owner] = adj_appends.get(owner, []) + extra
            else:
                adj_new[owner - base_n] = adj_new[owner - base_n] + extra
        overlay.presence_delta = presence_delta | added
        overlay._plane_appends = plane_appends
        overlay._adj_appends = adj_appends
        overlay._adj_new = adj_new

        num_planes = len(overlay.label_of) * 3
        plane_offsets = list(base.plane_offsets)
        plane_neighbors = list(base.plane_neighbors)
        if num_planes > len(plane_offsets):
            plane_offsets.extend([None] * (num_planes - len(plane_offsets)))
            plane_neighbors.extend([None] * (num_planes - len(plane_neighbors)))
        overlay.plane_offsets = plane_offsets
        overlay.plane_neighbors = plane_neighbors

        if new_names:
            n = len(overlay.names)
            rank = array("i", bytes(4 * n))
            names = overlay.names
            for position, h in enumerate(sorted(range(n), key=names.__getitem__)):
                rank[h] = position
            overlay.sort_rank = rank
        else:
            overlay.sort_rank = prev.sort_rank

        overlay.compile_seconds = time.perf_counter() - started
        return overlay

    # -- delta introspection -------------------------------------------------

    @property
    def base(self) -> CompiledKB:
        """The root compiled view this overlay extends."""
        return self._base

    @property
    def overlay_edges(self) -> int:
        """Number of edges in the delta (the compaction-threshold input)."""
        return len(self._delta_edges)

    # -- merged probe surface ------------------------------------------------

    def adj_pairs(self, h: int) -> tuple[tuple[int, int], ...]:
        cached = self._adj_cache.get(h)
        if cached is not None:
            return cached
        if h < self._base_n:
            pairs = self._base.adj_pairs(h)
            extra = self._adj_appends.get(h)
            if extra:
                pairs = pairs + tuple(extra)
        else:
            pairs = tuple(self._adj_new[h - self._base_n])
        self._adj_cache[h] = pairs
        return pairs

    def _plane_mode(self, plane: int) -> str:
        """How this plane is served: ``delegate`` | ``merge`` | ``empty``."""
        if plane in self._plane_appends:
            return "merge"
        base_offsets = self._base.plane_offsets
        if plane >= len(base_offsets) or base_offsets[plane] is None:
            return "empty"
        return "delegate" if not self._new_n else "merge"

    def _base_tables(
        self, plane: int, with_members: bool = False
    ) -> tuple[list | None, list | None]:
        """The base's fully materialised tables of ``plane`` (``None`` if empty).

        Materialised once per base and shared by every overlay version built
        on it, so a version only pays for the rows its own delta touched.
        """
        base_offsets = self._base.plane_offsets
        if plane >= len(base_offsets) or base_offsets[plane] is None:
            return None, None
        return self._base.plane_tables(plane, with_members)

    def _plane_lists(self, plane: int) -> tuple[list | None, list | None]:
        rows = self._plane_rows.get(plane)
        if rows is not None:
            return rows, self._plane_row_sets[plane]
        mode = self._plane_mode(plane)
        if mode == "empty":
            return None, None
        if mode == "delegate":
            return self._base._plane_lists(plane)
        with self._plane_lock:
            rows = self._plane_rows.get(plane)
            if rows is not None:
                return rows, self._plane_row_sets[plane]
            base_rows, _ = self._base_tables(plane)
            if base_rows is not None:
                merged: list = list(base_rows)
                # the base's row sets so far, lazily filled ones included
                sets: list = list(self._base._plane_row_sets[plane])
            else:
                merged = [()] * self._base_n
                sets = [None] * self._base_n
            if self._new_n:
                merged.extend([()] * self._new_n)
                sets.extend([None] * self._new_n)
            for h, extra in self._plane_appends.get(plane, {}).items():
                merged[h] = merged[h] + tuple(extra)
                sets[h] = None
            self._plane_row_sets[plane] = sets
            self._plane_rows[plane] = merged
            self._plane_rows_complete[plane] = True
        return merged, sets

    def plane_tables(
        self, plane: int, with_members: bool = False
    ) -> tuple[list | None, list | None]:
        if self._plane_mode(plane) == "delegate":
            return self._base.plane_tables(plane, with_members)
        rows, _ = self._plane_lists(plane)
        if rows is None or not with_members:
            return rows, None
        # rows are fully materialised at merge time.  The membership table is
        # the base's (the same entry objects) with the delta-touched rows and
        # new handles rebuilt; a row absent from the base is ``()``, its own
        # entry.  Published whole, so a lock-free reader never sees it partial.
        members = self._plane_members.get(plane)
        if members is None:
            with self._plane_lock:
                members = self._plane_members.get(plane)
                if members is None:
                    _, base_members = self._base_tables(plane, with_members=True)
                    if base_members is not None:
                        members = list(base_members)
                    else:
                        members = [()] * self._base_n
                    if self._new_n:
                        members.extend([()] * self._new_n)
                    for h in self._plane_appends.get(plane, ()):
                        members[h] = row_members(rows[h])
                    self._plane_members[plane] = members
        return rows, members

    def plane_buffers(
        self, plane: int
    ) -> tuple[list | None, list | None, array | None, array | None]:
        if self._plane_mode(plane) == "delegate":
            return self._base.plane_buffers(plane)
        rows, sets = self._plane_lists(plane)
        if rows is None:
            return None, None, None, None
        # merged rows are complete, so kernels never need the raw CSR arrays
        return rows, sets, None, None

    # -- compaction ----------------------------------------------------------

    def compact(self) -> CompiledKB:
        """Fold the delta into a full :class:`CompiledKB`.

        The result is byte-identical (``to_buffers``) to compiling the source
        KB from scratch at this version, but built from array splices instead
        of per-edge Python work.  Cached: repeated calls return the same
        object.
        """
        compacted = self._compacted
        if compacted is None:
            compacted = self._compacted = self._build_compact()
        return compacted

    def _build_compact(self) -> CompiledKB:
        started = time.perf_counter()
        base = self._base
        base_n = self._base_n
        n = len(self.names)
        full = CompiledKB()
        full.schema = self.schema.copy()
        full.version = self.version
        full.names = list(self.names)
        full.handles = dict(self.handles)
        full.types = list(self.types)
        full.label_of = list(self.label_of)
        full.label_code = dict(self.label_code)
        num_planes = len(full.label_of) * 3
        stride = num_planes if num_planes else 1
        full.presence_n = n
        full.presence_planes = num_planes
        full._presence_stride = stride

        # traversal CSR: splice per-row appends into the base arrays
        if not self._adj_appends and not self._new_n:
            full.adj_offsets = base.adj_offsets
            full.adj_neighbors = base.adj_neighbors
            full.adj_codes = base.adj_codes
        else:
            offsets = array("i", bytes(4 * (n + 1)))
            neighbors = array("i")
            codes = array("i")
            base_off = base.adj_offsets
            base_nbr = base.adj_neighbors
            base_codes = base.adj_codes
            total = 0
            for h in range(n):
                if h < base_n:
                    start, end = base_off[h], base_off[h + 1]
                    if end > start:
                        neighbors.extend(base_nbr[start:end])
                        codes.extend(base_codes[start:end])
                        total += end - start
                    extra = self._adj_appends.get(h)
                else:
                    extra = self._adj_new[h - base_n]
                if extra:
                    for nh, code in extra:
                        neighbors.append(nh)
                        codes.append(code)
                    total += len(extra)
                offsets[h + 1] = total
            full.adj_offsets = offsets
            full.adj_neighbors = neighbors
            full.adj_codes = codes

        plane_offsets: list[array | None] = [None] * num_planes
        plane_neighbors: list[array | None] = [None] * num_planes
        for plane in range(num_planes):
            in_base = (
                plane < len(base.plane_offsets)
                and base.plane_offsets[plane] is not None
            )
            appends = self._plane_appends.get(plane)
            if appends is None and not in_base:
                continue
            if appends is None and not self._new_n:
                plane_offsets[plane] = base.plane_offsets[plane]
                plane_neighbors[plane] = base.plane_neighbors[plane]
                continue
            if appends is None:
                # untouched plane, but the handle space grew: pad the offsets
                base_offsets = base.plane_offsets[plane]
                padded = base_offsets[:]
                last = base_offsets[base_n]
                padded.extend(array("i", [last] * self._new_n))
                plane_offsets[plane] = padded
                plane_neighbors[plane] = base.plane_neighbors[plane]
                continue
            offsets = array("i", bytes(4 * (n + 1)))
            neighbors = array("i")
            base_offsets = base.plane_offsets[plane] if in_base else None
            base_nbrs = base.plane_neighbors[plane] if in_base else None
            total = 0
            for h in range(n):
                if base_offsets is not None and h < base_n:
                    start, end = base_offsets[h], base_offsets[h + 1]
                    if end > start:
                        neighbors.extend(base_nbrs[start:end])
                        total += end - start
                extra = appends.get(h)
                if extra:
                    neighbors.extend(array("i", extra))
                    total += len(extra)
                offsets[h + 1] = total
            plane_offsets[plane] = offsets
            plane_neighbors[plane] = neighbors
        full.plane_offsets = plane_offsets
        full.plane_neighbors = plane_neighbors

        # presence: re-key only when the packing dimensions changed
        old_n = base.presence_n
        old_stride = base._presence_stride
        if old_n == n and old_stride == stride:
            presence = set(base.presence)
        else:
            presence = set()
            for key in base.presence:
                pair, plane = divmod(key, old_stride)
                src, dst = divmod(pair, old_n)
                presence.add((src * n + dst) * stride + plane)
        for src, dst, plane in self.presence_delta:
            presence.add((src * n + dst) * stride + plane)
        full.presence = presence

        full.degrees = self.degrees
        full.sort_rank = self.sort_rank
        full.edge_src = self.edge_src
        full.edge_dst = self.edge_dst
        full.edge_label = self.edge_label
        full.edge_directed = self.edge_directed
        full.compile_seconds = time.perf_counter() - started
        return full

    # -- shipping ------------------------------------------------------------

    def to_buffers(self) -> tuple[Any, ...]:
        """Buffers of the *merged* view (via :meth:`compact`)."""
        return self.compact().to_buffers()

    def delta_buffers(self) -> tuple[Any, ...]:
        """The delta alone, as plain bytes/str/int values (a payload's delta).

        Together with the root base (a checkpoint path or its buffers), this
        reconstructs the overlay in a worker, so a checkpointed base is not
        re-sent after every write.
        """
        relations = tuple(
            (relation.name, relation.directed, relation.domain, relation.range)
            for relation in self.schema
        )
        entity_types = tuple(
            (entity_type.name, entity_type.description)
            for entity_type in self.schema.entity_types.values()
        )
        src = array("i", [edge[0] for edge in self._delta_edges])
        dst = array("i", [edge[1] for edge in self._delta_edges])
        label = array("i", [edge[2] for edge in self._delta_edges])
        directed = array("b", [edge[3] for edge in self._delta_edges])
        return (
            self.version,
            self._base.version,
            self._base_n,
            self._base.num_edges,
            relations,
            entity_types,
            json.dumps(self.names[self._base_n :], ensure_ascii=False),
            json.dumps(self.types[self._base_n :], ensure_ascii=False),
            json.dumps(self.label_of[len(self._base.label_of) :], ensure_ascii=False),
            src.tobytes(),
            dst.tobytes(),
            label.tobytes(),
            directed.tobytes(),
        )

    @classmethod
    def from_delta_buffers(
        cls, base: CompiledKB, buffers: tuple[Any, ...]
    ) -> "OverlayCompiledKB":
        """Rebuild an overlay from :meth:`delta_buffers` output atop ``base``."""
        (
            version,
            base_version,
            base_entities,
            base_edges,
            relations,
            entity_types,
            names_json,
            types_json,
            labels_json,
            src_b,
            dst_b,
            label_b,
            directed_b,
        ) = buffers
        if (
            base.version != base_version
            or base.num_entities != base_entities
            or base.num_edges != base_edges
        ):
            raise KnowledgeBaseError(
                f"overlay delta was built against base version {base_version} "
                f"({base_entities} entities, {base_edges} edges); got base "
                f"version {base.version} ({base.num_entities} entities, "
                f"{base.num_edges} edges)"
            )
        schema = Schema(
            relations=(
                RelationType(name=name, directed=directed, domain=domain, range=range_)
                for name, directed, domain, range_ in relations
            ),
            entity_types=(
                EntityType(name=name, description=description)
                for name, description in entity_types
            ),
        )
        src = array("i")
        src.frombytes(src_b)
        dst = array("i")
        dst.frombytes(dst_b)
        label = array("i")
        label.frombytes(label_b)
        directed = array("b")
        directed.frombytes(directed_b)
        delta_edges = [
            (s, d, c, int(flag)) for s, d, c, flag in zip(src, dst, label, directed)
        ]
        if isinstance(base, OverlayCompiledKB):
            raise KnowledgeBaseError(
                "overlay delta must be rebuilt atop a root CompiledKB, not an "
                "overlay"
            )
        return cls._extend(
            base,
            json.loads(names_json),
            json.loads(types_json),
            json.loads(labels_json),
            schema,
            version,
            delta_edges,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OverlayCompiledKB({self.num_entities} entities, "
            f"{self.num_edges} edges, +{self.overlay_edges} overlay, "
            f"base version={self._base.version}, version={self.version})"
        )


def extend_compiled(
    prev: CompiledKB, edges: Iterable[tuple[str, str, str, bool | None]]
) -> CompiledKB:
    """The view after ``add_edge(source, target, label, directed)`` of each edge.

    ``edges`` are applied in order with the semantics of
    :meth:`KnowledgeBase.add_edge`, on ``prev`` (a root compile or an
    overlay) instead of a mutable KB:

    * directedness resolves through a copy of ``prev``'s schema, and a label
      the schema does not know is declared at its first edge (directed
      unless the edge says otherwise);
    * unknown endpoints become new, untyped entities, source before target;
    * an edge is dropped when the view or an earlier edge of the batch
      already holds its :meth:`~repro.kb.graph.Edge.key`: a directed and an
      undirected edge with the same endpoints and label are two edges;
    * labels new to the view take the next codes in first-use order.

    The batch, in the extended handle and label space, goes to
    :meth:`OverlayCompiledKB._extend`, so a write costs its own edges.  The
    new view's version is ``prev.version`` plus one per new entity and per
    new edge, the version a mutable KB replaying the same calls reaches.
    Returns ``prev`` itself when every edge was already present.

    Raises:
        KnowledgeBaseError: an edge ``add_edge`` would reject; ``prev`` and
            everything it references stay as they were.
    """
    schema = prev.schema.copy()
    handles = prev.handles
    label_code = prev.label_code
    prev_n = prev.num_entities
    new_names: list[str] = []
    new_handles: dict[str, int] = {}
    new_labels: list[str] = []
    new_codes: dict[str, int] = {}
    seen: set[tuple[str, str, str, bool]] = set()
    batch: list[tuple[int, int, int, int]] = []

    def handle_of(name: str) -> int:
        h = handles.get(name)
        if h is None:
            h = new_handles.get(name)
            if h is None:
                h = new_handles[name] = prev_n + len(new_names)
                new_names.append(name)
        return h

    for source, target, label, directed in edges:
        KnowledgeBase.validate_edge_args(source, target, label, directed)
        if directed is None:
            if schema.has_relation(label):
                directed = schema.is_directed(label)
            else:
                directed = True
                schema.declare_relation(label, directed=True)
        elif not schema.has_relation(label):
            schema.declare_relation(label, directed=directed)
        src = handle_of(source)
        dst = handle_of(target)
        key = Edge(source, target, label, directed).key()
        if key in seen:
            continue
        code = label_code.get(label)
        if (
            code is not None
            and src < prev_n
            and dst < prev_n
            and prev.has_plane_entry(
                src, dst, code * 3 + (ORIENT_OUT if directed else ORIENT_UNDIRECTED)
            )
        ):
            continue
        seen.add(key)
        if code is None:
            code = new_codes.get(label)
            if code is None:
                code = new_codes[label] = len(prev.label_of) + len(new_labels)
                new_labels.append(label)
        batch.append((src, dst, code, 1 if directed else 0))
    if not batch:
        return prev
    return OverlayCompiledKB._extend(
        prev,
        new_names,
        [None] * len(new_names),
        new_labels,
        schema,
        prev.version + len(new_names) + len(batch),
        batch,
    )


#: KnowledgeBase -> its compiled view at the version it was compiled at.
#: Weak keys, so a view lives exactly as long as its source KB object.
_COMPILED_VIEWS: "WeakKeyDictionary[KnowledgeBase, CompiledKB]" = WeakKeyDictionary()
_COMPILED_VIEWS_LOCK = threading.Lock()


def compile_kb(kb: KnowledgeBase) -> CompiledKB:
    """The compiled view every read kernel runs on.

    A compiled view is returned unchanged.  A plain
    :class:`~repro.kb.graph.KnowledgeBase` is compiled at its current
    :attr:`~repro.kb.graph.KnowledgeBase.version` and the view is cached per
    KB object, so a sequence of reads against one plain KB pays for one
    compile; a mutation moves the version and the next read recompiles.
    The serving engine compiles its own per-version views and only ever
    passes those here, so it never fills this cache.
    """
    if isinstance(kb, CompiledKB):
        return kb
    view = _COMPILED_VIEWS.get(kb)
    if view is not None and view.version == kb.version:
        return view
    with _COMPILED_VIEWS_LOCK:
        view = _COMPILED_VIEWS.get(kb)
        if view is None or view.version != kb.version:
            view = _COMPILED_VIEWS[kb] = CompiledKB.compile(kb)
    return view
