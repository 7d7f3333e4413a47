"""Answer checks of the performance ledger (pure Python; never imports ``repro``).

All checks read answers in the program's wire format (the ``/explain``
envelope) and compare them with the benchmark's own edge set and its own
path enumeration from :mod:`gen`.  A failed check raises :class:`CheckFailed`
naming the request and what was wrong.
"""

from __future__ import annotations

from collections import Counter

from gen import EdgeList, simple_paths

START, END = "?start", "?end"
#: Reply fields that say how an answer was served, not what it is.
PROVENANCE = ("cached", "coalesced", "elapsed_s", "request_id", "kb_version", "trace_id")


class CheckFailed(Exception):
    pass


class EdgeLedger:
    """The benchmark's own edge set: input edges plus acknowledged writes.

    Each edge remembers the write batch that added it (-1 for input edges),
    so an answer can be checked against the edges that existed when it was
    served.
    """

    def __init__(self, input_edges) -> None:
        self.added_by: dict[tuple, int] = {}
        for edge in input_edges:
            self.added_by.setdefault(EdgeList.key(*edge), -1)

    def add_batch(self, edges, batch: int) -> None:
        for edge in edges:
            self.added_by.setdefault(EdgeList.key(*edge), batch)

    def present(self, edge, visible_batches: int) -> bool:
        batch = self.added_by.get(EdgeList.key(*edge))
        return batch is not None and batch < visible_batches


def _label(answer: dict) -> str:
    return f"{answer.get('measure')} ({answer.get('start')}, {answer.get('end')})"


def check_answer(answer, start, end, size_limit, k, ledger, visible_batches) -> None:
    """The properties every workload checks on every answer."""
    name = f"{answer.get('measure')} ({start}, {end})"
    if answer.get("start") != start or answer.get("end") != end:
        raise CheckFailed(f"{name}: answer is for ({answer.get('start')}, {answer.get('end')})")
    results = answer["results"]
    if len(results) > k or answer["num_results"] != len(results):
        raise CheckFailed(f"{name}: {len(results)} results for k={k}")
    previous = None
    for rank, result in enumerate(results, start=1):
        score = result["score"]
        if previous is not None and score > previous:
            raise CheckFailed(f"{name}: rank {rank} scores {score} above rank {rank - 1} ({previous})")
        previous = score
        pattern = result["explanation"]["pattern"]
        if len(pattern["variables"]) > size_limit or pattern["num_nodes"] > size_limit:
            raise CheckFailed(f"{name}: rank {rank} has {pattern['num_nodes']} variables, limit {size_limit}")
        for instance in result["explanation"]["instances"]:
            if instance.get(START) != start or instance.get(END) != end:
                raise CheckFailed(f"{name}: rank {rank} instance binds {instance.get(START)}->{instance.get(END)}")
            for edge in pattern["edges"]:
                concrete = (instance[edge["source"]], edge["label"], instance[edge["target"]], edge["directed"])
                if not ledger.present(concrete, visible_batches):
                    raise CheckFailed(f"{name}: rank {rank} instance uses edge {concrete}, absent from the KB")


def path_steps(edges, binding) -> tuple:
    """A path pattern instance as ``((entity, label, orientation), ...)`` from start."""
    incident: dict[str, list] = {}
    for edge in edges:
        source, target, label, directed = edge
        incident.setdefault(source, []).append((target, label, "out" if directed else "undirected"))
        incident.setdefault(target, []).append((source, label, "in" if directed else "undirected"))
    steps, previous, current = [], None, START
    while current != END:
        following = [hop for hop in incident[current] if hop[0] != previous]
        if len(following) != 1:
            raise CheckFailed(f"pattern {edges} is not a path")
        variable, label, orientation = following[0]
        steps.append((binding[variable], label, orientation))
        previous, current = current, variable
    return tuple(steps)


def _signature(steps) -> tuple:
    return tuple((label, orientation) for _entity, label, orientation in steps)


def check_paths(name, program_paths, adj, start, end, max_length) -> dict:
    """Path enumeration must find exactly the benchmark's own simple paths.

    ``program_paths`` is a list of ``{"edges", "instances"}`` path
    explanations.  Returns the benchmark's paths grouped by signature.
    """
    found = Counter(
        path_steps(explanation["edges"], instance)
        for explanation in program_paths
        for instance in explanation["instances"]
    )
    expected = Counter(simple_paths(adj, start, end, max_length))
    if found != expected:
        missing = list((expected - found).elements())[:1]
        extra = list((found - expected).elements())[:1]
        raise CheckFailed(
            f"{name}: path enumeration found {sum(found.values())} paths, "
            f"expected {sum(expected.values())}; missing {missing}, unexpected {extra}"
        )
    grouped: dict[tuple, list] = {}
    for steps in expected:
        grouped.setdefault(_signature(steps), []).append(steps)
    return grouped


def check_path_aggregates(name, answer, grouped) -> None:
    """Size and monocount of each returned path explanation match our count."""
    for rank, result in enumerate(answer["results"], start=1):
        explanation = result["explanation"]
        pattern = explanation["pattern"]
        if not pattern["is_path"]:
            continue
        edges = [(e["source"], e["target"], e["label"], e["directed"]) for e in pattern["edges"]]
        binding = {variable: variable for variable in pattern["variables"]}
        signature = _signature(path_steps(edges, binding))
        paths = grouped.get(signature, [])
        intermediates = [len({steps[i][0] for steps in paths}) for i in range(len(signature) - 1)]
        monocount = min(intermediates) if intermediates else (1 if paths else 0)
        if explanation["size"] != len(signature) + 1 or explanation["num_instances"] != len(paths) \
                or explanation["aggregates"]["monocount"] != monocount:
            raise CheckFailed(
                f"{name}: rank {rank} path explanation reports size {explanation['size']}, "
                f"{explanation['num_instances']} instances, monocount "
                f"{explanation['aggregates']['monocount']}; counted {len(signature) + 1}, "
                f"{len(paths)}, {monocount}"
            )


def check_topk(name, returned_keys, all_scores, k) -> None:
    """No explanation of the full enumeration outranks a returned one."""
    if len(returned_keys) != min(k, len(all_scores)):
        raise CheckFailed(f"{name}: {len(returned_keys)} returned of {len(all_scores)} explanations, k={k}")
    scores = dict(all_scores)
    missing = [key for key in returned_keys if key not in scores]
    if missing:
        raise CheckFailed(f"{name}: returned explanation {missing[0]} is not in the full enumeration")
    floor = min((scores[key] for key in returned_keys), default=None)
    chosen = set(returned_keys)
    for key, value in all_scores:
        if key not in chosen and floor is not None and value > floor:
            raise CheckFailed(f"{name}: unreturned explanation {key} scores {value} above returned {floor}")


def strip(answer: dict) -> dict:
    return {key: value for key, value in answer.items() if key not in PROVENANCE}


def check_cache_consistency(replies) -> None:
    """A cached reply equals the uncached reply for the same key and KB version."""
    first: dict[tuple, dict] = {}
    for reply in sorted(replies, key=lambda reply: reply["cached"]):
        key = (reply["start"], reply["end"], reply["measure"], reply["k"],
               reply["size_limit"], reply["kb_version"])
        seen = first.setdefault(key, strip(reply))
        if reply["cached"] and seen != strip(reply):
            raise CheckFailed(f"{_label(reply)}: cached reply at KB version {reply['kb_version']} "
                              f"differs from the computed one")


def check_fresh(served: list, fresh: list) -> None:
    """Answers served at the end must equal a fresh engine's on the rebuilt KB."""
    for got, want in zip(served, fresh, strict=True):
        if strip(got) != strip(want):
            raise CheckFailed(f"{_label(got)}: served answer differs from a fresh engine "
                              f"on the input edges plus the acknowledged writes (stale answer)")
