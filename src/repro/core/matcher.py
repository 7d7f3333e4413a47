"""Direct evaluation of explanation patterns against the knowledge base.

Given a pattern and a target entity pair, :func:`match_pattern` enumerates all
explanation instances (Definition 2) by backtracking over the pattern's
variables.  The path-union algorithms of Section 3 avoid calling this on every
candidate — they derive instances of merged patterns from the instances of the
covering path patterns — but the matcher remains essential:

* the naive baseline enumerator (Algorithm 1) uses it to evaluate candidates,
* distributional measures evaluate the *same pattern* for many different
  target pairs, and
* the test suite uses it as a correctness oracle for PathUnion.

The matcher compiles each pattern into an *evaluation plan* (cached across
calls): a variable order plus, per variable, the incident edges whose other
endpoint is bound earlier in the order.  Candidate generation then reduces to
intersecting the compiled view's ``(label, orientation)`` CSR plane rows,
and a per-call memo keyed on the bound frontier lets sibling branches of the
backtracking tree share candidate sets instead of recomputing them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from repro.core.instance import ExplanationInstance
from repro.core.pattern import END, START, ExplanationPattern
from repro.kb.compiled import ORIENT_CODE, compile_kb
from repro.kb.graph import KnowledgeBase
from repro.resilience.deadline import current_deadline

__all__ = ["match_pattern", "iter_matches", "count_matches", "has_match"]


def _variable_order(pattern: ExplanationPattern) -> list[str]:
    """Order non-target variables so each is adjacent to an earlier variable.

    Starting from the two bound target variables, repeatedly pick the unbound
    variable with the most edges to already-ordered variables.  This keeps the
    backtracking search propagating constraints as early as possible.
    """
    ordered: list[str] = [START, END]
    placed = {START, END}
    remaining = set(pattern.non_target_variables)
    while remaining:
        def connectivity(variable: str) -> tuple[int, int, str]:
            edges_to_placed = sum(
                1
                for edge in pattern.edges_of(variable)
                if edge.other(variable) in placed
            )
            return (edges_to_placed, pattern.degree(variable), variable)

        # max connectivity first; the variable name breaks ties deterministically
        best = max(remaining, key=connectivity)
        ordered.append(best)
        placed.add(best)
        remaining.remove(best)
    return ordered


@dataclass(frozen=True)
class _VariableStep:
    """Plan entry for one variable of the backtracking order.

    Attributes:
        variable: the variable bound at this step.
        anchors: ``(anchor_variable, label, orientation)`` triples — one per
            pattern edge from ``variable`` to an earlier-bound variable, with
            the orientation expressed from the anchor's point of view so the
            knowledge base's secondary index can answer it directly.
    """

    variable: str
    anchors: tuple[tuple[str, str, str], ...]


@dataclass(frozen=True)
class _PatternPlan:
    """A compiled pattern: target-edge checks plus per-variable index probes."""

    # Edges between START and END, checked once up front:
    # (source_variable, target_variable, label, direction)
    target_checks: tuple[tuple[str, str, str, str], ...]
    steps: tuple[_VariableStep, ...]


def _anchor_orientation(edge, anchor: str) -> str:
    """Orientation of ``edge`` as seen from ``anchor`` for the index lookup."""
    if not edge.directed:
        return "undirected"
    return "out" if edge.source == anchor else "in"


@lru_cache(maxsize=4096)
def _pattern_plan(pattern: ExplanationPattern) -> _PatternPlan:
    """Compile ``pattern`` into its (cached) evaluation plan."""
    target_checks = tuple(
        (edge.source, edge.target, edge.label, "out" if edge.directed else "any")
        for edge in pattern.edges_of(START)
        if edge.other(START) == END
    )
    order = _variable_order(pattern)[2:]
    bound = {START, END}
    steps: list[_VariableStep] = []
    for variable in order:
        anchors = tuple(
            (edge.other(variable), edge.label, _anchor_orientation(edge, edge.other(variable)))
            for edge in pattern.edges_of(variable)
            if edge.other(variable) in bound
        )
        steps.append(_VariableStep(variable, anchors))
        bound.add(variable)
    return _PatternPlan(target_checks, tuple(steps))


def iter_matches(
    kb: KnowledgeBase,
    pattern: ExplanationPattern,
    v_start: str,
    v_end: str,
    limit: int | None = None,
) -> Iterator[ExplanationInstance]:
    """Yield instances of ``pattern`` for the target pair, lazily.

    The plan runs on the compiled view (:func:`~repro.kb.compiled.compile_kb`)
    with integer handles: candidate sets are intersections of CSR plane row
    *sets*, target-edge checks probe the packed membership hash, and the
    enumeration order is ``sorted(entity ids)`` per variable, reproduced by
    sorting candidate handles by the compiled sort-rank table.  Instances are
    decoded to entity ids only at the yield boundary.

    Args:
        kb: the knowledge base (plain or compiled).
        pattern: the explanation pattern to evaluate.
        v_start: entity bound to the start variable.
        v_end: entity bound to the end variable.
        limit: stop after this many instances (``None`` = exhaustive).
    """
    ckb = compile_kb(kb)
    if not ckb.has_entity(v_start) or not ckb.has_entity(v_end):
        return
    plan = _pattern_plan(pattern)
    targets = {START: v_start, END: v_end}
    for source, target, label, direction in plan.target_checks:
        if not ckb.has_edge(targets[source], targets[target], label, direction):
            return

    names = ckb.names
    start_h = ckb.handles[v_start]
    end_h = ckb.handles[v_end]
    label_code = ckb.label_code
    sort_rank = ckb.sort_rank
    binding: dict[str, int] = {START: start_h, END: end_h}
    steps = plan.steps
    produced = 0
    deadline = current_deadline()
    # Memo shared across sibling branches: raw candidate sets depend only on
    # the step and the entities bound to its anchor variables — not on the
    # rest of the frontier — so branches differing elsewhere reuse them.
    memo: dict[tuple, frozenset[int]] = {}

    def raw_candidates(index: int) -> frozenset[int] | None:
        step = steps[index]
        if not step.anchors:
            return None
        key = (index,) + tuple(binding[anchor] for anchor, _, _ in step.anchors)
        cached = memo.get(key)
        if cached is not None:
            return cached
        candidates: set[int] | frozenset[int] | None = None
        for anchor, label, orientation in step.anchors:
            code = label_code.get(label)
            if code is None:
                candidates = frozenset()
                break
            reachable = ckb.plane_row_set(
                code * 3 + ORIENT_CODE[orientation], binding[anchor]
            )
            if candidates is None:
                candidates = reachable
            else:
                candidates = candidates & reachable
            if not candidates:
                break
        result = frozenset(candidates) if candidates else frozenset()
        memo[key] = result
        return result

    def backtrack(index: int) -> Iterator[ExplanationInstance]:
        nonlocal produced
        if limit is not None and produced >= limit:
            return
        if deadline is not None:
            deadline.tick()
        if index == len(steps):
            produced += 1
            yield ExplanationInstance(
                {variable: names[handle] for variable, handle in binding.items()}
            )
            return
        raw = raw_candidates(index)
        if raw is None:
            # No incident edge touches a bound variable (disconnected pattern):
            # fall back to all entities.
            candidates = set(range(len(names)))
        else:
            candidates = set(raw)
        # Non-target variables must not map onto the target entities, and
        # the mapping must be injective (instances are KB subgraphs).
        candidates.discard(start_h)
        candidates.discard(end_h)
        candidates.difference_update(binding.values())
        variable = steps[index].variable
        for candidate in sorted(candidates, key=sort_rank.__getitem__):
            binding[variable] = candidate
            yield from backtrack(index + 1)
            del binding[variable]
            if limit is not None and produced >= limit:
                return

    yield from backtrack(0)


def match_pattern(
    kb: KnowledgeBase,
    pattern: ExplanationPattern,
    v_start: str,
    v_end: str,
    limit: int | None = None,
) -> list[ExplanationInstance]:
    """All instances of ``pattern`` for ``(v_start, v_end)`` (Definition 2)."""
    return list(iter_matches(kb, pattern, v_start, v_end, limit=limit))


def count_matches(
    kb: KnowledgeBase, pattern: ExplanationPattern, v_start: str, v_end: str
) -> int:
    """Number of instances of ``pattern`` for the target pair."""
    return sum(1 for _ in iter_matches(kb, pattern, v_start, v_end))


def has_match(
    kb: KnowledgeBase, pattern: ExplanationPattern, v_start: str, v_end: str
) -> bool:
    """Whether the pattern has at least one instance for the target pair."""
    for _ in iter_matches(kb, pattern, v_start, v_end, limit=1):
        return True
    return False
