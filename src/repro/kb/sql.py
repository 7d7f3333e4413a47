"""Conjunctive evaluation of explanation patterns over the edge relation.

Section 5.3.2 computes the local distributional position of an explanation by
translating its pattern into a self-join SQL query over the edge relation
``R(eid1, eid2, rel)``, grouping by the end entity and counting, with a
``HAVING count > c`` filter and a ``LIMIT`` clause for pruning.  This module
evaluates that query directly:

* :func:`iter_pattern_bindings` / :func:`pattern_bindings` — the lazy
  conjunctive evaluation with some variables fixed (the start entity,
  optionally the end entity), reading only the knowledge base's public API;
  it is the reference the batched kernels are tested against;
* :func:`sweep_local_count_distributions` — the **batched evaluator**: the
  pattern is compiled once (edge order, slot assignment) into a loop nest
  over the compiled view's CSR planes that sweeps every requested start
  entity, grouping counts by ``(start, end)``.  The distributional measures
  of Section 4.3 use it to turn their O(pairs × match) loops into one shared
  traversal;
* :func:`sweep_position_count` / :func:`count_position` — the same sweep
  fused with the position tally, for the unpruned distributional ranking
  and the count-aggregate distributional measures;
* :func:`count_qualifying_end_entities` — the ``HAVING``/``LIMIT`` form used
  by the pruned ranking, which stops once a bound is exceeded.

The evaluation deliberately mirrors instance semantics (Definition 2):
bindings are injective and non-target variables avoid the target entities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterator, Mapping, Sequence
from weakref import WeakKeyDictionary

from repro.core.pattern import END, START, ExplanationPattern, PatternEdge
from repro.errors import RelationalError
from repro.kb.compiled import ORIENT_CODE, CompiledKB, compile_kb
from repro.kb.graph import KnowledgeBase
from repro.resilience.deadline import current_deadline

__all__ = [
    "pattern_bindings",
    "iter_pattern_bindings",
    "SweepResult",
    "sweep_local_count_distributions",
    "sweep_position_count",
    "start_handles",
    "count_position",
    "count_qualifying_end_entities",
]


# ---------------------------------------------------------------------------
# Conjunctive evaluation
# ---------------------------------------------------------------------------


def _edge_order(pattern: ExplanationPattern, fixed: Mapping[str, str]) -> list[PatternEdge]:
    """Order edges so each has at least one endpoint bound when reached."""
    bound = set(fixed)
    remaining = sorted(pattern.edges, key=lambda edge: edge.key())
    ordered: list[PatternEdge] = []
    while remaining:
        for index, edge in enumerate(remaining):
            if edge.source in bound or edge.target in bound:
                ordered.append(edge)
                bound.add(edge.source)
                bound.add(edge.target)
                remaining.pop(index)
                break
        else:
            raise RelationalError(
                "pattern is not connected to the fixed variables; cannot evaluate"
            )
    return ordered


def iter_pattern_bindings(
    kb: KnowledgeBase,
    pattern: ExplanationPattern,
    fixed: Mapping[str, str],
    injective: bool = True,
) -> Iterator[dict[str, str]]:
    """Yield all variable bindings of ``pattern`` extending ``fixed``.

    Args:
        kb: the knowledge base.
        pattern: the explanation pattern (the conjunctive query).
        fixed: variables with predetermined entities; must include the start
            variable (the end variable may be free, which is how local
            distributions vary the end entity).
        injective: enforce subgraph semantics (distinct variables map to
            distinct entities).  Matches Definition 2.
    """
    if START not in fixed:
        raise RelationalError("the start variable must be fixed")
    for variable, entity in fixed.items():
        if variable not in pattern.variables:
            raise RelationalError(f"fixed variable {variable!r} not in pattern")
        if not kb.has_entity(entity):
            return

    order = _edge_order(pattern, fixed)
    binding: dict[str, str] = dict(fixed)
    bound_entities = set(binding.values())

    def recurse(index: int) -> Iterator[dict[str, str]]:
        if index == len(order):
            yield dict(binding)
            return
        edge = order[index]
        source_entity = binding.get(edge.source)
        target_entity = binding.get(edge.target)
        if source_entity is not None and target_entity is not None:
            direction = "out" if edge.directed else "any"
            if kb.has_edge(source_entity, target_entity, edge.label, direction):
                yield from recurse(index + 1)
            return
        if source_entity is not None:
            anchor, free_variable = source_entity, edge.target
            orientation = "out" if edge.directed else "undirected"
        else:
            anchor, free_variable = target_entity, edge.source
            orientation = "in" if edge.directed else "undirected"
        for candidate in kb.neighbor_ids(anchor, edge.label, orientation):
            if injective and candidate in bound_entities:
                continue
            binding[free_variable] = candidate
            bound_entities.add(candidate)
            yield from recurse(index + 1)
            del binding[free_variable]
            bound_entities.discard(candidate)

    yield from recurse(0)


def pattern_bindings(
    kb: KnowledgeBase,
    pattern: ExplanationPattern,
    fixed: Mapping[str, str],
    injective: bool = True,
) -> list[dict[str, str]]:
    """All bindings of :func:`iter_pattern_bindings` as a list."""
    return list(iter_pattern_bindings(kb, pattern, fixed, injective))


# ---------------------------------------------------------------------------
# Batched evaluation (the shared-traversal evaluator of the measures layer)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SweepStep:
    """One compiled step of the sweep plan.

    ``anchor_slot``/``free_slot`` index the binding array.  When ``free_slot``
    is ``None`` both endpoints are already bound and the step is a constant
    time edge-presence check; otherwise the step expands the frontier through
    the ``(label, orientation)`` index anchored at ``anchor_slot``.
    """

    anchor_slot: int
    free_slot: int | None
    label: str
    orientation: str  # expansion: orientation from the anchor's perspective
    check_slot: int | None = None  # check: the other bound slot
    check_direction: str = "out"  # check: "out" (directed edge) or "any"


@dataclass(frozen=True)
class _SweepPlan:
    """A pattern compiled for the batched sweep: slots, steps, end position."""

    variable_names: tuple[str, ...]  # slot -> variable (slot 0 is START)
    steps: tuple[_SweepStep, ...]
    end_slot: int


@dataclass
class SweepResult:
    """Outcome of one batched sweep over many start entities.

    Attributes:
        counts: ``start -> end -> number of bindings`` (raw groups of the
            Section 5.3.2 query; pairs with ``end == start`` are included and
            left to the caller's filtering, mirroring the per-start evaluator).
        variable_sets: when requested, ``(start, end) -> variable -> set of
            entities`` over all bindings of the group (the ``uniq`` sets that
            the monocount aggregate needs).
        bindings_enumerated: total number of complete bindings produced.
    """

    counts: dict[str, dict[str, int]]
    variable_sets: dict[tuple[str, str], dict[str, set[str]]] | None
    bindings_enumerated: int


@lru_cache(maxsize=4096)
def _sweep_plan(pattern: ExplanationPattern) -> _SweepPlan:
    """Compile ``pattern`` once: edge order, slot assignment, index probes.

    Unlike :func:`_edge_order` (whose order is part of the lazy evaluator's
    observable enumeration order), the sweep groups bindings into counts, so
    the plan is free to order for speed: whenever an edge has both endpoints
    bound it is emitted immediately as a constant-time check, filtering
    partial bindings before any further frontier expansion.
    """
    remaining = sorted(pattern.edges, key=lambda edge: edge.key())
    bound = {START}
    order: list[PatternEdge] = []
    while remaining:
        emitted = True
        while emitted:
            emitted = False
            for index, edge in enumerate(remaining):
                if edge.source in bound and edge.target in bound:
                    order.append(remaining.pop(index))
                    emitted = True
                    break
        if not remaining:
            break
        for index, edge in enumerate(remaining):
            if edge.source in bound or edge.target in bound:
                bound.add(edge.source)
                bound.add(edge.target)
                order.append(remaining.pop(index))
                break
        else:
            raise RelationalError(
                "pattern is not connected to the fixed variables; cannot evaluate"
            )
    slots: dict[str, int] = {START: 0}
    names: list[str] = [START]
    steps: list[_SweepStep] = []

    def slot_of(variable: str) -> int:
        slot = slots.get(variable)
        if slot is None:
            slot = slots[variable] = len(names)
            names.append(variable)
        return slot

    for edge in order:
        source_bound = edge.source in slots
        target_bound = edge.target in slots
        if source_bound and target_bound:
            steps.append(
                _SweepStep(
                    anchor_slot=slots[edge.source],
                    free_slot=None,
                    label=edge.label,
                    orientation="",
                    check_slot=slots[edge.target],
                    check_direction="out" if edge.directed else "any",
                )
            )
        elif source_bound:
            anchor = slots[edge.source]
            steps.append(
                _SweepStep(
                    anchor_slot=anchor,
                    free_slot=slot_of(edge.target),
                    label=edge.label,
                    orientation="out" if edge.directed else "undirected",
                )
            )
        else:
            anchor = slots[edge.target]
            steps.append(
                _SweepStep(
                    anchor_slot=anchor,
                    free_slot=slot_of(edge.source),
                    label=edge.label,
                    orientation="in" if edge.directed else "undirected",
                )
            )
    end_slot = slots.get(END)
    if end_slot is None:
        raise RelationalError("the pattern does not constrain the end variable")
    return _SweepPlan(tuple(names), tuple(steps), end_slot)


# ---------------------------------------------------------------------------
# Integer-handle kernels over the compiled view
# ---------------------------------------------------------------------------
#
# The sweeps run on integer handles end to end: each expansion step of the
# compiled plan holds its (label, orientation) CSR plane's materialised row
# and membership tables directly (no string-keyed dict probe, no tuple-key
# allocation per lookup), edge-presence checks probe the packed-integer
# membership hash, and the deepest counting level folds a whole index row into
# the per-start group dict with one C-level call plus a small correction
# for the bound slots instead of one Python iteration per candidate.
# Entities decode back to strings only when the SweepResult is assembled; the
# position tallies never decode at all.


@dataclass(frozen=True)
class _CompiledSweepPlan:
    """A sweep plan bound to one CompiledKB's planes.

    ``steps`` entries are plain tuples for speed:

    * check step (both endpoints bound): ``(anchor_slot, None, check_slot,
      check_planes, base_ok)`` — the edge is present when the packed key hits
      any of ``check_planes`` (undirected first)
      in the base presence set (``base_ok`` = the packing covers these
      planes) or when the overlay delta holds the plain tuple;
    * expansion step: ``(anchor_slot, free_slot, rows, row_sets, offsets,
      neighbors)`` — the plane's shared lazy row caches plus the raw arrays
      to materialise missing rows inline.

    ``count_kernel`` is the *generated* count evaluator (see
    :func:`_generate_count_kernel`): ``kernel(start_handle, per_start_dict)
    -> bindings_enumerated``; ``position_kernel`` is its fused multi-start
    position tally.  ``impossible`` is set when the pattern
    references a label or a ``(label, orientation)`` plane with no edges at
    all: no complete binding can exist, so the sweep short-circuits to an
    empty result.
    """

    variable_names: tuple[str, ...]
    end_slot: int
    steps: tuple[tuple, ...]
    impossible: bool
    count_kernel: Any = None
    position_kernel: Any = None


#: CompiledKB -> {pattern: compiled plan}; entries die with the compiled view.
_COMPILED_SWEEP_PLANS: "WeakKeyDictionary[CompiledKB, dict]" = WeakKeyDictionary()

#: Generated kernel source -> compiled code object (shared across views).
_KERNEL_CODE_CACHE: dict[str, Any] = {}


def _generate_count_kernel(
    ckb: CompiledKB, steps: Sequence[_SweepStep], end_slot: int
) -> Any:
    """Specialise one sweep plan into straight-line nested loops.

    The generic evaluator interprets the plan step by step: one Python frame
    per frontier level, a step-table lookup per move, a ``used``-set probe
    per candidate.  Patterns are tiny (at most four edges at the paper's
    size limit), so instead we *generate the loop nest for this exact plan*:

    * binding slots become local variables ``b0, b1, ...``;
    * injectivity degenerates to chained integer comparisons against the
      bound slots (no set mutations on the hot path);
    * each expansion step indexes its plane's fully materialised row table;
    * edge checks probe the packed presence hash with literal plane offsets;
    * the deepest counting level folds a whole row into the group dict with
      one C-level ``_count_elements`` call, corrected by O(#bound-slots)
      membership tests against the row's membership-table entry (the row
      tuple itself when short, else a frozenset) — no per-candidate loop.

    The generated source depends only on the plan shape and the plane
    literals, so its code object is cached and shared; binding the runtime
    tables happens in a tiny generated factory.

    Against an :class:`~repro.kb.compiled.OverlayCompiledKB` the presence
    probes are widened at generation time: the packed base set is consulted
    only for handles/planes its packing covers, then the overlay's
    ``(src, dst, plane)`` delta set.  A plain compiled view generates the
    bare packed probe, so the base hot path is unchanged.
    """
    has_delta = bool(ckb.presence_delta)
    grew = len(ckb.names) != ckb.presence_n
    lines: list[str] = [
        "def _factory(tables, presence, n, stride, fold, ovp, current_deadline):",
    ]
    expansion_ordinals: list[int] = []
    for index, step in enumerate(steps):
        if step.free_slot is not None:
            ordinal = len(expansion_ordinals)
            expansion_ordinals.append(index)
            lines.append(f"    r{ordinal}, s{ordinal} = tables[{ordinal}]")

    bound = [0]
    ordinal = 0
    num_steps = len(steps)

    def emit(index: int, indent: str) -> None:
        nonlocal ordinal
        if index == num_steps:
            # Only reached when the plan ends in check steps.
            lines.append(f"{indent}bindings += 1")
            lines.append(f"{indent}e = b{end_slot}")
            lines.append(f"{indent}per_start[e] = get(e, 0) + 1")
            return
        step = steps[index]
        if step.free_slot is None:
            planes = _check_planes_of(ckb, step)
            # Base probes are only valid for keys the packed set can express:
            # planes minted before the overlay, handles below presence_n.
            base_ok = max(planes) < ckb.presence_planes
            clauses: list[str] = []
            if base_ok:
                lines.append(
                    f"{indent}t = (b{step.anchor_slot} * n "
                    f"+ b{step.check_slot}) * stride"
                )
                base_probe = " or ".join(f"t + {plane} in presence" for plane in planes)
                if grew:
                    guard = f"b{step.anchor_slot} < n and b{step.check_slot} < n"
                    clauses.append(f"({guard} and ({base_probe}))")
                else:
                    clauses.append(
                        base_probe if not has_delta else f"({base_probe})"
                    )
            if has_delta or not base_ok:
                clauses.extend(
                    f"(b{step.anchor_slot}, b{step.check_slot}, {plane}) in ovp"
                    for plane in planes
                )
            lines.append(f"{indent}if {' or '.join(clauses)}:")
            emit(index + 1, indent + "    ")
            return
        this_ordinal = ordinal
        ordinal += 1
        free = step.free_slot
        anchor = step.anchor_slot
        if index == num_steps - 1:
            lines.append(f"{indent}row = r{this_ordinal}[b{anchor}]")
            lines.append(f"{indent}if row:")
            inner = indent + "    "
            corrections = [f"b{slot}" for slot in bound]
            if free == end_slot:
                # Adaptive leaf: tiny rows count inline (a fold call costs
                # more than two dict updates); larger rows fold in C.
                guard = " and ".join(f"c != {name}" for name in corrections)
                lines.append(f"{inner}if len(row) <= 6:")
                lines.append(f"{inner}    for c in row:")
                lines.append(f"{inner}        if {guard}:")
                lines.append(f"{inner}            bindings += 1")
                lines.append(f"{inner}            per_start[c] = get(c, 0) + 1")
                lines.append(f"{inner}else:")
                inner = inner + "    "
                lines.append(f"{inner}rs = s{this_ordinal}[b{anchor}]")
                lines.append(f"{inner}fold(per_start, row)")
                lines.append(f"{inner}extra = len(row)")
                for name in corrections:
                    lines.append(f"{inner}if {name} in rs:")
                    lines.append(f"{inner}    per_start[{name}] -= 1")
                    lines.append(f"{inner}    extra -= 1")
                lines.append(f"{inner}bindings += extra")
            else:
                deductions = "".join(f" - ({name} in rs)" for name in corrections)
                lines.append(f"{inner}rs = s{this_ordinal}[b{anchor}]")
                lines.append(f"{inner}valid = len(row){deductions}")
                lines.append(f"{inner}if valid:")
                lines.append(f"{inner}    bindings += valid")
                lines.append(f"{inner}    e = b{end_slot}")
                lines.append(f"{inner}    per_start[e] = get(e, 0) + valid")
            return
        guard = " and ".join(f"b{free} != b{slot}" for slot in bound)
        lines.append(f"{indent}for b{free} in r{this_ordinal}[b{anchor}]:")
        lines.append(f"{indent}    if {guard}:")
        bound.append(free)
        emit(index + 1, indent + "        ")
        bound.pop()

    # One-start kernel: used by the decoded sweeps.
    lines.append("    def kernel(b0, per_start):")
    lines.append("        get = per_start.get")
    lines.append("        bindings = 0")
    emit(0, "        ")
    lines.append("        return bindings")
    # Multi-start position tally: the same loop nest fused with the
    # qualifying-group comparison, so one generated frame sweeps a whole
    # start list (this is what the unpruned distributional ranking calls).
    bound = [0]
    ordinal = 0
    lines.append("    def position_many(starts, own_count, own_start, own_end):")
    # The ambient deadline is per request while kernels are cached per view,
    # so it is resolved per call; the per-start tick keeps the granularity.
    lines.append("        deadline = current_deadline()")
    lines.append("        position = 0")
    lines.append("        bindings = 0")
    lines.append("        for b0 in starts:")
    lines.append("            if deadline is not None:")
    lines.append("                deadline.tick()")
    lines.append("            per_start = {}")
    lines.append("            get = per_start.get")
    emit(0, "            ")
    lines.append("            exclude = own_end if b0 == own_start else -1")
    lines.append("            for group_end, group_count in per_start.items():")
    lines.append(
        "                if group_count > own_count and group_end != b0 "
        "and group_end != exclude:"
    )
    lines.append("                    position += 1")
    lines.append("        return position, bindings")
    lines.append("    return kernel, position_many")
    source = "\n".join(lines)
    code = _KERNEL_CODE_CACHE.get(source)
    if code is None:
        code = _KERNEL_CODE_CACHE[source] = compile(source, "<sweep-kernel>", "exec")
    namespace: dict[str, Any] = {}
    exec(code, namespace)  # noqa: S102 - source generated above, no user input
    tables = []
    for position, index in enumerate(expansion_ordinals):
        step = steps[index]
        plane = (
            ckb.label_code[step.label] * 3 + ORIENT_CODE[step.orientation]
        )
        is_leaf = index == num_steps - 1
        tables.append(ckb.plane_tables(plane, with_members=is_leaf))
    return namespace["_factory"](
        tables,
        ckb.presence,
        ckb.presence_n,
        ckb.presence_stride,
        _count_elements,
        ckb.presence_delta,
        current_deadline,
    )


def _check_planes_of(ckb: CompiledKB, step: _SweepStep) -> tuple[int, ...]:
    """Packed plane offsets a check step probes (undirected plane first)."""
    plane = ckb.label_code[step.label] * 3
    if step.check_direction == "out":
        return (plane + 2, plane)
    return (plane + 2, plane, plane + 1)

try:
    # The C helper behind collections.Counter: counts an iterable into any
    # mapping via mapping.get, without Counter.update's per-call isinstance
    # dance.  Folding a whole index row costs one C call this way.
    from collections import _count_elements
except ImportError:  # pragma: no cover - non-CPython fallback

    def _count_elements(mapping: dict, iterable) -> None:
        get = mapping.get
        for element in iterable:
            mapping[element] = get(element, 0) + 1


def _compiled_sweep_plan(ckb: CompiledKB, pattern: ExplanationPattern) -> _CompiledSweepPlan:
    plans = _COMPILED_SWEEP_PLANS.get(ckb)
    if plans is None:
        plans = {}
        _COMPILED_SWEEP_PLANS[ckb] = plans
    plan = plans.get(pattern)
    if plan is not None:
        return plan
    base = _sweep_plan(pattern)
    label_code = ckb.label_code
    steps: list[tuple] = []
    impossible = False
    for step in base.steps:
        code = label_code.get(step.label)
        if code is None:
            impossible = True
            break
        plane = code * 3
        if step.free_slot is None:
            planes = _check_planes_of(ckb, step)
            steps.append(
                (
                    step.anchor_slot,
                    None,
                    step.check_slot,
                    planes,
                    max(planes) < ckb.presence_planes,
                )
            )
        else:
            rows, row_sets, offsets, neighbors = ckb.plane_buffers(
                plane + ORIENT_CODE[step.orientation]
            )
            if rows is None:
                impossible = True
                break
            steps.append(
                (step.anchor_slot, step.free_slot, rows, row_sets, offsets, neighbors)
            )
    count_kernel = position_kernel = None
    if not impossible:
        count_kernel, position_kernel = _generate_count_kernel(
            ckb, base.steps, base.end_slot
        )
    plan = _CompiledSweepPlan(
        variable_names=base.variable_names,
        end_slot=base.end_slot,
        steps=tuple(steps),
        impossible=impossible,
        count_kernel=count_kernel,
        position_kernel=position_kernel,
    )
    plans[pattern] = plan
    return plan


def sweep_local_count_distributions(
    kb: KnowledgeBase,
    pattern: ExplanationPattern,
    start_entities: Sequence[str] | None = None,
    collect_variable_sets: bool = False,
) -> SweepResult:
    """Evaluate the local-distribution query for many start entities at once.

    Semantically equivalent to running ``iter_pattern_bindings(kb, pattern,
    {START: s})`` for every ``s`` and grouping the bindings by ``(s, end)``,
    but the pattern is compiled once per compiled view into a generated loop
    nest (:func:`_compiled_sweep_plan`, cached), bindings live in local
    integer slots, and every candidate step is a row of a ``(label,
    orientation)`` CSR plane — no per-start setup, no per-binding dict
    copies.  This is the evaluator behind the decoded distributions of the
    distributional measures (Section 4.3) and the unpruned Figure 11
    scenarios.

    Args:
        kb: the knowledge base.
        pattern: the explanation pattern (conjunctive query).
        start_entities: start entities to sweep; ``None`` sweeps every entity.
        collect_variable_sets: also gather per-``(start, end)`` per-variable
            entity sets (needed by the monocount aggregate).

    Returns:
        A :class:`SweepResult`; starts absent from the knowledge base simply
        contribute no groups, matching the per-start evaluator.
    """
    ckb = compile_kb(kb)
    plan = _compiled_sweep_plan(ckb, pattern)
    if plan.impossible:
        return SweepResult({}, {} if collect_variable_sets else None, 0)
    names = ckb.names
    # Each distinct start is evaluated once; a duplicated entry in
    # ``start_entities`` must not double its groups or binding count.
    starts = start_handles(ckb, start_entities)
    deadline = current_deadline()
    counts_h: dict[int, dict[int, int]] = {}
    bindings_enumerated = 0
    variable_sets_h: dict[tuple[int, int], dict[str, set[int]]] | None = None
    if not collect_variable_sets:
        count_kernel = plan.count_kernel
        for start_h in starts:
            if deadline is not None:
                deadline.tick()
            raw: dict[int, int] = {}
            bindings_enumerated += count_kernel(start_h, raw)
            per_start = {entity: count for entity, count in raw.items() if count > 0}
            if per_start:
                counts_h[start_h] = per_start
    else:
        variable_sets_h = {}
        steps = plan.steps
        num_steps = len(steps)
        end_slot = plan.end_slot
        vnames = plan.variable_names
        presence = ckb.presence
        stride = ckb.presence_stride
        pn = ckb.presence_n
        delta = ckb.presence_delta
        binding: list[int] = [0] * len(vnames)
        used: set[int] = set()

        def run_full(index: int, per_start: dict[int, int], start: int) -> None:
            """General recursion: complete bindings, per-variable entity sets."""
            nonlocal bindings_enumerated
            if index == num_steps:
                bindings_enumerated += 1
                end = binding[end_slot]
                per_start[end] = per_start.get(end, 0) + 1
                group = variable_sets_h.get((start, end))
                if group is None:
                    group = variable_sets_h[(start, end)] = {
                        name: set() for name in vnames
                    }
                for name, entity in zip(vnames, binding):
                    group[name].add(entity)
                return
            step = steps[index]
            if step[1] is None:
                anchor = binding[step[0]]
                check = binding[step[2]]
                if step[4] and anchor < pn and check < pn:
                    base = (anchor * pn + check) * stride
                    for plane in step[3]:
                        if base + plane in presence:
                            run_full(index + 1, per_start, start)
                            return
                if delta:
                    for plane in step[3]:
                        if (anchor, check, plane) in delta:
                            run_full(index + 1, per_start, start)
                            return
                return
            anchor_slot, free_slot, rows, _, offsets, neighbors = step
            anchor = binding[anchor_slot]
            row = rows[anchor]
            if row is None:
                offset = offsets[anchor]
                row = rows[anchor] = tuple(neighbors[offset : offsets[anchor + 1]])
            for candidate in row:
                if candidate in used:
                    continue
                binding[free_slot] = candidate
                used.add(candidate)
                run_full(index + 1, per_start, start)
                used.discard(candidate)

        try:
            for start_h in starts:
                if deadline is not None:
                    deadline.tick()
                binding[0] = start_h
                used.clear()
                used.add(start_h)
                per_start = {}
                run_full(0, per_start, start_h)
                if per_start:
                    counts_h[start_h] = per_start
        finally:
            # run_full refers to itself through its closure cell: empty the
            # cell so the function is freed now, not by the cycle collector
            del run_full

    counts = {
        names[start]: {names[end]: count for end, count in per.items()}
        for start, per in counts_h.items()
    }
    variable_sets = None
    if variable_sets_h is not None:
        variable_sets = {
            (names[start], names[end]): {
                variable: {names[entity] for entity in entities}
                for variable, entities in group.items()
            }
            for (start, end), group in variable_sets_h.items()
        }
    return SweepResult(counts, variable_sets, bindings_enumerated)


def sweep_position_count(
    kb: KnowledgeBase,
    pattern: ExplanationPattern,
    start_entities: Sequence[str] | None,
    own_count: float,
    v_start: str,
    v_end: str,
) -> tuple[int, int]:
    """Count the (start, end) groups whose count exceeds ``own_count``.

    This is the inner loop of the unpruned distributional position ranking:
    run the batched sweep over ``start_entities`` and count groups above the
    pair's own count, skipping ``end == start`` groups and — for the pair's
    own start only — the pair's own end.  Returns ``(position,
    bindings_enumerated)``.

    The whole computation stays in handle space: group counts are never
    decoded to entity strings because the position is just a comparison
    tally.
    """
    ckb = compile_kb(kb)
    plan = _compiled_sweep_plan(ckb, pattern)
    if plan.impossible:
        return 0, 0
    handles = ckb.handles
    return plan.position_kernel(
        start_handles(ckb, start_entities),
        own_count,
        handles.get(v_start, -1),
        handles.get(v_end, -1),
    )


def start_handles(
    kb: KnowledgeBase, start_entities: Sequence[str] | None
) -> Sequence[int]:
    """``start_entities`` as handles of ``kb``'s compiled view, in order.

    ``None`` means every entity.  Entities absent from the view are dropped,
    and so is every repeat of a start (one C-level pass: ``dict.fromkeys``
    keeps first occurrences).
    """
    ckb = compile_kb(kb)
    if start_entities is None:
        return range(len(ckb.names))
    handles = ckb.handles
    return tuple(
        dict.fromkeys(
            handle for handle in map(handles.get, start_entities) if handle is not None
        )
    )


def count_position(
    kb: KnowledgeBase,
    pattern: ExplanationPattern,
    v_start: str,
    v_end: str,
    starts: Sequence[int] | None = None,
) -> int:
    """The pair's position under the count aggregate, without decoding.

    The pair's own count is its ``(v_start, v_end)`` group from one run of
    the plan's one-start kernel.  With ``starts`` ``None`` the position is
    local: the end entities of ``v_start``'s other groups whose count exceeds
    it.  Otherwise it is the position in the distribution pooled over the
    start handles ``starts`` (:func:`start_handles`): the groups whose count
    exceeds it, tallied by the fused ``position_many`` kernel.  Either equals
    :meth:`Distribution.position` of the decoded distribution
    (``repro.measures.distributional``), which stays the definition.
    """
    ckb = compile_kb(kb)
    plan = _compiled_sweep_plan(ckb, pattern)
    if plan.impossible:
        return 0
    deadline = current_deadline()
    if deadline is not None:
        deadline.tick()
    handles = ckb.handles
    start_h = handles.get(v_start)
    end_h = handles.get(v_end)
    groups: dict[int, int] = {}
    if start_h is not None:
        plan.count_kernel(start_h, groups)
    own = groups.get(end_h, 0) if end_h != start_h else 0
    if starts is None:
        return sum(
            1 for end, count in groups.items() if count > own and end != start_h
        )
    return plan.position_kernel(starts, own, -1, -1)[0]


def count_qualifying_end_entities(
    kb: KnowledgeBase,
    pattern: ExplanationPattern,
    v_start: str,
    threshold: float,
    exclude_end: str | None = None,
    bound: int | None = None,
) -> tuple[int, bool, int]:
    """Count end entities whose group count exceeds ``threshold``, with LIMIT.

    The compiled, early-terminating form of the Section 5.3.2 position query
    (``HAVING count > c ... LIMIT p``) used by the pruned ranking scenarios:
    evaluation aborts as soon as more than ``bound`` qualifying end entities
    are known, because the caller only needs to learn that the candidate
    cannot enter the current top-k.

    Returns:
        ``(qualifying, exact, bindings_enumerated)`` where ``exact`` is
        ``False`` when evaluation stopped at the bound (``qualifying`` is then
        a lower bound that already exceeds ``bound``).

    The traversal is an interpreted walk of the compiled plan (check-step
    folding, fused leaf levels) with abort plumbing threaded through; it
    folds groups one candidate at a time so the abort fires as soon as the
    bound is exceeded.  ``tests/test_indexed_equivalence.py`` pins it, and
    the batched sweeps, to :func:`iter_pattern_bindings` on random knowledge
    bases.
    """
    deadline = current_deadline()
    if deadline is not None:
        deadline.tick()
    ckb = compile_kb(kb)
    start_h = ckb.handles.get(v_start)
    if start_h is None:
        return (0, True, 0)
    plan = _compiled_sweep_plan(ckb, pattern)
    if plan.impossible:
        return (0, True, 0)
    steps = plan.steps
    num_steps = len(steps)
    last_step = num_steps - 1
    end_slot = plan.end_slot
    presence = ckb.presence
    stride = ckb.presence_stride
    pn = ckb.presence_n
    delta = ckb.presence_delta
    exclude_h = ckb.handles.get(exclude_end, -1) if exclude_end is not None else -1
    binding: list[int] = [0] * len(plan.variable_names)
    binding[0] = start_h
    used = {start_h}
    counts: dict[int, int] = {}
    qualifying: set[int] = set()
    bindings_enumerated = 0

    def group(end: int, additional: int) -> bool:
        """Fold ``additional`` bindings into ``end``'s group; True = abort."""
        nonlocal bindings_enumerated
        bindings_enumerated += additional
        if end == start_h or end == exclude_h:
            return False
        total = counts.get(end, 0) + additional
        counts[end] = total
        if total > threshold:
            qualifying.add(end)
            if bound is not None and len(qualifying) > bound:
                return True
        return False

    def rec(
        index: int,
        steps: tuple = steps,
        binding: list = binding,
        used: set = used,
        presence: set = presence,
        num_steps: int = num_steps,
        last_step: int = last_step,
        end_slot: int = end_slot,
        pn: int = pn,
        stride: int = stride,
        delta: frozenset = delta,
    ) -> bool:
        step = steps[index]
        while step[1] is None:
            anchor = binding[step[0]]
            check = binding[step[2]]
            hit = False
            if step[4] and anchor < pn and check < pn:
                base = (anchor * pn + check) * stride
                for plane in step[3]:
                    if base + plane in presence:
                        hit = True
                        break
            if not hit and delta:
                for plane in step[3]:
                    if (anchor, check, plane) in delta:
                        hit = True
                        break
            if not hit:
                return False
            index += 1
            if index == num_steps:
                return group(binding[end_slot], 1)
            step = steps[index]
        rows = step[2]
        anchor = binding[step[0]]
        row = rows[anchor]
        if row is None:
            offsets = step[4]
            offset = offsets[anchor]
            row = rows[anchor] = tuple(step[5][offset : offsets[anchor + 1]])
        if not row:
            return False
        free_slot = step[1]
        if index == last_step:
            row_sets = step[3]
            row_set = row_sets[anchor]
            if row_set is None:
                row_set = row_sets[anchor] = frozenset(row)
            if free_slot == end_slot:
                for candidate in row:
                    if candidate not in used and group(candidate, 1):
                        return True
                return False
            valid = len(row) - len(used & row_set)
            if valid:
                return group(binding[end_slot], valid)
            return False
        next_index = index + 1
        leaf = steps[next_index]
        if next_index == last_step and leaf[1] is not None:
            # Same two-deepest-level fusion as the batched sweep.
            (
                leaf_anchor_slot,
                leaf_free,
                leaf_rows,
                leaf_sets,
                leaf_offsets,
                leaf_neighbors,
            ) = leaf
            leaf_is_end = leaf_free == end_slot
            for candidate in row:
                if candidate in used:
                    continue
                binding[free_slot] = candidate
                used.add(candidate)
                stop = False
                leaf_anchor = binding[leaf_anchor_slot]
                leaf_row = leaf_rows[leaf_anchor]
                if leaf_row is None:
                    offset = leaf_offsets[leaf_anchor]
                    leaf_row = leaf_rows[leaf_anchor] = tuple(
                        leaf_neighbors[offset : leaf_offsets[leaf_anchor + 1]]
                    )
                if leaf_row:
                    leaf_set = leaf_sets[leaf_anchor]
                    if leaf_set is None:
                        leaf_set = leaf_sets[leaf_anchor] = frozenset(leaf_row)
                    if leaf_is_end:
                        for end in leaf_row:
                            if end not in used and group(end, 1):
                                stop = True
                                break
                    else:
                        valid = len(leaf_row) - len(used & leaf_set)
                        if valid:
                            stop = group(binding[end_slot], valid)
                used.discard(candidate)
                if stop:
                    return True
            return False
        for candidate in row:
            if candidate in used:
                continue
            binding[free_slot] = candidate
            used.add(candidate)
            stop = rec(next_index)
            used.discard(candidate)
            if stop:
                return True
        return False

    aborted = rec(0)
    return (len(qualifying), not aborted, bindings_enumerated)
