"""Path explanation enumeration (Section 3.2).

Path explanations are the ``MinP(1)`` stratum: explanation patterns that are
simple start-to-end paths.  The paper adapts keyword-search algorithms:

* :func:`path_enum_naive` — enumerate every simple path from the start entity
  up to the length limit and keep the ones that end at the end entity.  This
  is the ``PathEnumNaive`` strawman of Section 5.2.
* :func:`path_enum_basic` — BANKS-style bidirectional search: partial paths
  are grown concurrently from both target entities (shortest first) and joined
  when they meet at a common entity.
* :func:`path_enum_prioritized` — BANKS2-style search where the node expanded
  next is chosen by an *activation score* that penalises high-degree hubs, so
  expansion tends to wait for the cheaper side to arrive.

All three return exactly the same set of path explanations (patterns grouped
with their instances); they differ in how much work they perform, which the
``stats`` counters expose for the Figure 7 benchmark and the ablations.  All
three search the compiled view (:func:`~repro.kb.compiled.compile_kb`) on
integer handles and decode entity ids only for the paths they emit.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from weakref import WeakKeyDictionary

from repro.core.explanation import Explanation
from repro.core.instance import ExplanationInstance
from repro.core.pattern import END, START, ExplanationPattern, PatternEdge, fresh_variable
from repro.errors import EnumerationError
from repro.kb.compiled import CompiledKB, compile_kb
from repro.kb.graph import KnowledgeBase
from repro.resilience.deadline import current_deadline

__all__ = [
    "PathStep",
    "PathInstance",
    "PathEnumResult",
    "path_enum_naive",
    "path_enum_basic",
    "path_enum_prioritized",
    "group_paths_into_explanations",
    "PATH_ENUM_ALGORITHMS",
]


@dataclass(frozen=True)
class PathStep:
    """One hop of an instance-level path.

    Attributes:
        entity: the entity reached by this hop.
        label: the relationship label of the traversed edge.
        directed: whether the relationship is directed.
        forward: for directed relations, whether the edge points in the
            direction of traversal (previous entity -> ``entity``).
    """

    entity: str
    label: str
    directed: bool
    forward: bool


@dataclass(frozen=True)
class PathInstance:
    """An instance-level simple path from the start entity to the end entity."""

    start: str
    steps: tuple[PathStep, ...]

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def nodes(self) -> tuple[str, ...]:
        return (self.start,) + tuple(step.entity for step in self.steps)

    @property
    def terminal(self) -> str:
        return self.steps[-1].entity if self.steps else self.start

    def signature(self) -> tuple:
        """Identity of the path used for de-duplication across algorithms."""
        return (self.start,) + tuple(
            (step.entity, step.label, step.directed, step.forward) for step in self.steps
        )

    def pattern_signature(self) -> tuple:
        """The label/direction sequence that defines the path's pattern."""
        return tuple((step.label, step.directed, step.forward) for step in self.steps)


@dataclass
class PathEnumResult:
    """Path explanations plus work counters for performance comparisons."""

    explanations: list[Explanation]
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def num_paths(self) -> int:
        return sum(explanation.num_instances for explanation in self.explanations)


#: CompiledKB -> {handle: ((neighbor_handle, PathStep), ...)}.  All three
#: path enumeration algorithms revisit the same nodes many times
#: (exponentially so for the naive forward search).  Neighbors stay integer
#: handles (cheap membership tests against the partial path's node tuple)
#: while the frozen :class:`PathStep` is pre-decoded once per adjacency
#: entry, so materialising a found path is a tuple copy.  A compiled view is
#: immutable, so no version check is needed; entries die with the view.
_STEP_CACHES: "WeakKeyDictionary[CompiledKB, dict]" = WeakKeyDictionary()


def _steps_of(ckb: CompiledKB, h: int) -> tuple[tuple[int, PathStep], ...]:
    """Cached ``(neighbor_handle, step)`` pairs of node ``h``."""
    per_entity = _STEP_CACHES.get(ckb)
    if per_entity is None:
        per_entity = {}
        _STEP_CACHES[ckb] = per_entity
    steps = per_entity.get(h)
    if steps is None:
        names = ckb.names
        label_of = ckb.label_of
        built = []
        for nh, code in ckb.adj_pairs(h):
            built.append(
                (
                    nh,
                    PathStep(
                        names[nh],
                        label_of[code >> 2],
                        directed=bool(code & 2),
                        forward=bool(code & 1),
                    ),
                )
            )
        steps = per_entity[h] = tuple(built)
    return steps


def _path_to_pattern(path: PathInstance) -> tuple[ExplanationPattern, ExplanationInstance]:
    """Convert an instance-level path into its pattern and instance."""
    nodes = path.nodes
    variables = [START]
    for index in range(len(nodes) - 2):
        variables.append(fresh_variable(index))
    variables.append(END)
    edges = []
    binding = {START: nodes[0], END: nodes[-1]}
    for index, step in enumerate(path.steps):
        left, right = variables[index], variables[index + 1]
        binding[variables[index + 1]] = step.entity
        if step.directed and not step.forward:
            left, right = right, left
        edges.append(PatternEdge(left, right, step.label, step.directed))
    pattern = ExplanationPattern.from_edges(edges)
    return pattern, ExplanationInstance(binding)


def _path_instance(path: PathInstance) -> ExplanationInstance:
    """The instance-level binding of a path (pattern built elsewhere)."""
    nodes = path.nodes
    binding = {START: nodes[0], END: nodes[-1]}
    for index in range(1, len(nodes) - 1):
        binding[fresh_variable(index - 1)] = nodes[index]
    return ExplanationInstance(binding)


def group_paths_into_explanations(paths: list[PathInstance]) -> list[Explanation]:
    """Group instance-level paths by their pattern into path explanations.

    Paths with the same start-to-end label/direction sequence share a pattern;
    the grouping simply replaces intermediate entities with variables, as
    described at the start of Section 3.2.  The shared pattern is built once
    per signature (from the group's first path); remaining paths only
    contribute their variable binding.
    """
    grouped: dict[tuple, tuple[ExplanationPattern, list[ExplanationInstance]]] = {}
    for path in paths:
        signature = path.pattern_signature()
        entry = grouped.get(signature)
        if entry is None:
            pattern, instance = _path_to_pattern(path)
            grouped[signature] = (pattern, [instance])
        else:
            entry[1].append(_path_instance(path))
    return [Explanation(pattern, instances) for pattern, instances in grouped.values()]


def _validate(kb: KnowledgeBase, v_start: str, v_end: str, length_limit: int) -> None:
    if length_limit < 1:
        raise EnumerationError("the path length limit must be at least 1")
    if v_start == v_end:
        raise EnumerationError("the start and end entities must differ")
    if not kb.has_entity(v_start):
        raise EnumerationError(f"start entity not in knowledge base: {v_start!r}")
    if not kb.has_entity(v_end):
        raise EnumerationError(f"end entity not in knowledge base: {v_end!r}")


# ---------------------------------------------------------------------------
# PathEnumNaive
# ---------------------------------------------------------------------------


def path_enum_naive(
    kb: KnowledgeBase, v_start: str, v_end: str, length_limit: int
) -> PathEnumResult:
    """Enumerate paths by exhaustive forward search from the start entity.

    Every length-limited simple path leaving ``v_start`` is expanded and the
    ones that reach ``v_end`` are kept.  This is the most naive strategy and
    exists as the lower baseline of Figure 7.  The search tracks visited
    nodes as handles; the pre-decoded :class:`PathStep` objects of the step
    cache are only assembled into a :class:`PathInstance` when a path
    actually reaches the end entity.
    """
    _validate(kb, v_start, v_end, length_limit)
    ckb = compile_kb(kb)
    start_h = ckb.handles[v_start]
    end_h = ckb.handles[v_end]
    paths: list[PathInstance] = []
    expansions = 0
    deadline = current_deadline()

    def extend(current: int, visited: set[int], steps: list[PathStep]) -> None:
        nonlocal expansions
        if len(steps) >= length_limit:
            return
        if deadline is not None:
            deadline.tick()
        for neighbor, step in _steps_of(ckb, current):
            expansions += 1
            if neighbor in visited:
                continue
            steps.append(step)
            if neighbor == end_h:
                paths.append(PathInstance(v_start, tuple(steps)))
            elif neighbor != start_h:
                visited.add(neighbor)
                extend(neighbor, visited, steps)
                visited.remove(neighbor)
            steps.pop()

    extend(start_h, {start_h}, [])
    explanations = group_paths_into_explanations(paths)
    return PathEnumResult(
        explanations,
        stats={"expansions": expansions, "paths": len(paths)},
    )


# ---------------------------------------------------------------------------
# Shared bidirectional machinery
# ---------------------------------------------------------------------------


class _PartialPath:
    """A simple path grown from one of the two target entities.

    ``nodes`` are entity handles (membership tests in the expansion loop are
    integer comparisons); ``steps`` are the shared pre-decoded
    :class:`PathStep` objects, so joining two halves never re-decodes labels.
    A plain ``__slots__`` class rather than a dataclass: the bidirectional
    searches allocate one per expansion.
    """

    __slots__ = ("origin", "nodes", "steps")

    def __init__(
        self, origin: str, nodes: tuple[int, ...], steps: tuple[PathStep, ...]
    ) -> None:
        self.origin = origin  # "start" or "end"
        self.nodes = nodes
        self.steps = steps

    @property
    def length(self) -> int:
        return len(self.steps)


def _expand_partial(
    ckb: CompiledKB, partial: _PartialPath, start_h: int, end_h: int
) -> list[_PartialPath]:
    """All one-step extensions of a partial path that keep it simple.

    Partial paths never run *through* a target entity: reaching the opposite
    target terminates the path there (it becomes a full path when joined with
    the zero-length partial path of the other side).
    """
    current = partial.nodes[-1]
    opposite = end_h if partial.origin == "start" else start_h
    own_target = start_h if partial.origin == "start" else end_h
    if current == opposite:
        return []
    extensions = []
    nodes = partial.nodes
    steps = partial.steps
    origin = partial.origin
    for neighbor, step in _steps_of(ckb, current):
        if neighbor == own_target or neighbor in nodes:
            continue
        extensions.append(
            _PartialPath(origin, nodes + (neighbor,), steps + (step,))
        )
    return extensions


def _join(
    names: list[str], forward: _PartialPath, backward: _PartialPath
) -> PathInstance | None:
    """Join a start-side and an end-side partial path meeting at a node.

    Returns ``None`` when the two halves overlap anywhere other than the
    meeting node (the joined path would not be simple).  Only the joined
    path is decoded to entity ids.
    """
    terminal = forward.nodes[-1]
    if terminal != backward.nodes[-1]:
        return None
    if set(forward.nodes) & set(backward.nodes) != {terminal}:
        return None
    steps = list(forward.steps)
    # Reverse the end-side path: its steps go v_end -> meeting node, we need
    # meeting node -> v_end with flipped traversal direction.
    nodes = backward.nodes
    for index in range(len(backward.steps) - 1, -1, -1):
        step = backward.steps[index]
        steps.append(
            PathStep(
                entity=names[nodes[index]],
                label=step.label,
                directed=step.directed,
                forward=(not step.forward) if step.directed else True,
            )
        )
    return PathInstance(names[forward.nodes[0]], tuple(steps))


def _collect_full_paths(
    names: list[str],
    start_side: dict[int, list[_PartialPath]],
    end_side: dict[int, list[_PartialPath]],
    length_limit: int,
) -> list[PathInstance]:
    """Join all compatible partial-path pairs into full simple paths."""
    seen: set[tuple] = set()
    paths: list[PathInstance] = []
    deadline = current_deadline()
    for terminal, forwards in start_side.items():
        backwards = end_side.get(terminal, [])
        for forward in forwards:
            if deadline is not None:
                deadline.tick()
            for backward in backwards:
                if forward.length + backward.length > length_limit:
                    continue
                if forward.length + backward.length == 0:
                    continue
                joined = _join(names, forward, backward)
                if joined is None:
                    continue
                signature = joined.signature()
                if signature in seen:
                    continue
                seen.add(signature)
                paths.append(joined)
    return paths


def path_enum_basic(
    kb: KnowledgeBase, v_start: str, v_end: str, length_limit: int
) -> PathEnumResult:
    """BANKS-style bidirectional path enumeration (``PathEnumBasic``).

    Partial paths are grown breadth-first (shortest first) from both targets:
    the start side up to ``ceil(l / 2)`` hops and the end side up to
    ``floor(l / 2)`` hops, after which every pair of partial paths meeting at
    a common entity is joined into a full path.
    """
    _validate(kb, v_start, v_end, length_limit)
    ckb = compile_kb(kb)
    start_h = ckb.handles[v_start]
    end_h = ckb.handles[v_end]
    forward_limit = math.ceil(length_limit / 2)
    backward_limit = length_limit // 2
    expansions = 0
    deadline = current_deadline()

    start_side: dict[int, list[_PartialPath]] = {}
    end_side: dict[int, list[_PartialPath]] = {}

    for origin, root, limit, store in (
        ("start", start_h, forward_limit, start_side),
        ("end", end_h, backward_limit, end_side),
    ):
        frontier = [_PartialPath(origin, (root,), ())]
        store.setdefault(root, []).append(frontier[0])
        depth = 0
        while frontier and depth < limit:
            next_frontier: list[_PartialPath] = []
            for partial in frontier:
                if deadline is not None:
                    deadline.tick()
                for extension in _expand_partial(ckb, partial, start_h, end_h):
                    expansions += 1
                    store.setdefault(extension.nodes[-1], []).append(extension)
                    next_frontier.append(extension)
            frontier = next_frontier
            depth += 1

    paths = _collect_full_paths(ckb.names, start_side, end_side, length_limit)
    explanations = group_paths_into_explanations(paths)
    return PathEnumResult(
        explanations,
        stats={"expansions": expansions, "paths": len(paths)},
    )


def path_enum_prioritized(
    kb: KnowledgeBase, v_start: str, v_end: str, length_limit: int
) -> PathEnumResult:
    """BANKS2-style prioritized bidirectional enumeration (``PathEnumPrioritized``).

    Expansion is driven by an activation score: each target entity starts with
    activation ``1 / degree`` and expanding a node spreads its activation to
    its neighbours divided by their degree.  High-degree hubs therefore
    receive little activation and are expanded late, letting the cheaper side
    of the search reach the meeting point first.  The produced path set is
    identical to :func:`path_enum_basic`; only the amount and order of work
    differs.  Heap ordering never compares node handles: the unique
    insertion counter breaks every tie first.
    """
    _validate(kb, v_start, v_end, length_limit)
    ckb = compile_kb(kb)
    start_h = ckb.handles[v_start]
    end_h = ckb.handles[v_end]
    forward_limit = math.ceil(length_limit / 2)
    backward_limit = length_limit // 2
    limits = {"start": forward_limit, "end": backward_limit}
    expansions = 0
    degrees = ckb.degrees
    deadline = current_deadline()

    start_side: dict[int, list[_PartialPath]] = {
        start_h: [_PartialPath("start", (start_h,), ())]
    }
    end_side: dict[int, list[_PartialPath]] = {
        end_h: [_PartialPath("end", (end_h,), ())]
    }
    stores = {"start": start_side, "end": end_side}

    activations = {
        "start": {start_h: 1.0 / max(degrees[start_h], 1)},
        "end": {end_h: 1.0 / max(degrees[end_h], 1)},
    }
    # Index of partial paths not yet expanded, per origin and node.
    pendings: dict[str, dict[int, list[_PartialPath]]] = {
        "start": {start_h: [start_side[start_h][0]]},
        "end": {end_h: [end_side[end_h][0]]},
    }
    counter = 0
    heap: list[tuple[float, int, str, int]] = []
    for origin, per_node in activations.items():
        for node, score in per_node.items():
            heap.append((-score, counter, origin, node))
            counter += 1
    heapq.heapify(heap)

    while heap:
        negative_score, _, origin, node = heapq.heappop(heap)
        if deadline is not None:
            deadline.tick()
        pending = pendings[origin]
        waiting = pending.pop(node, None)
        if not waiting:
            continue
        score = -negative_score
        store = stores[origin]
        activation = activations[origin]
        limit = limits[origin]
        spread: dict[int, None] = {}
        for partial in waiting:
            if partial.length >= limit:
                continue
            for extension in _expand_partial(ckb, partial, start_h, end_h):
                expansions += 1
                terminal = extension.nodes[-1]
                store.setdefault(terminal, []).append(extension)
                pending.setdefault(terminal, []).append(extension)
                spread[terminal] = None
        # Spread activation to the freshly reached nodes and (re-)enqueue them.
        for neighbor in spread:
            gained = score / max(degrees[neighbor], 1)
            total = activation.get(neighbor, 0.0) + gained
            activation[neighbor] = total
            heapq.heappush(heap, (-total, counter, origin, neighbor))
            counter += 1
        activation[node] = 0.0

    paths = _collect_full_paths(ckb.names, start_side, end_side, length_limit)
    explanations = group_paths_into_explanations(paths)
    return PathEnumResult(
        explanations,
        stats={"expansions": expansions, "paths": len(paths)},
    )


#: Registry used by the enumeration framework and the benchmarks.
PATH_ENUM_ALGORITHMS = {
    "naive": path_enum_naive,
    "basic": path_enum_basic,
    "prioritized": path_enum_prioritized,
}
