"""Each checker of the ledger must reject an injected fault.

Run from the repository root (no ``repro`` import, no server)::

    python3 -m unittest perfbench/selftest_checks.py

The file name keeps these tests out of the repository's own pytest run.
"""

from __future__ import annotations

import copy
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import gen  # noqa: E402

# a tiny KB: two persons who co-star in two movies, one also a spouse pair
EDGES = [
    ("m1", "starring", "alice", True),
    ("m1", "starring", "bob", True),
    ("m2", "starring", "alice", True),
    ("m2", "starring", "bob", True),
    ("alice", "spouse", "bob", False),
]


def _path_explanation(label: str) -> dict:
    """The ``?start <-label- ?v0 -label-> ?end`` explanation, all instances."""
    return {
        "edges": [["?v0", "?start", label, True], ["?v0", "?end", label, True]],
        "instances": [{"?start": "alice", "?v0": movie, "?end": "bob"} for movie in ("m1", "m2")],
    }


def _answer(scores=(2.0, 1.0), movie="m1") -> dict:
    """A two-result wire answer for (alice, bob): the co-star path, the spouse edge."""
    costar = {
        "variables": ["?end", "?start", "?v0"], "num_nodes": 3, "num_edges": 2, "is_path": True,
        "edges": [
            {"source": "?v0", "target": "?start", "label": "starring", "directed": True},
            {"source": "?v0", "target": "?end", "label": "starring", "directed": True},
        ],
    }
    spouse = {
        "variables": ["?end", "?start"], "num_nodes": 2, "num_edges": 1, "is_path": True,
        "edges": [{"source": "?start", "target": "?end", "label": "spouse", "directed": False}],
    }
    results = []
    for rank, (pattern, instances, score) in enumerate([
        (costar, [{"?start": "alice", "?v0": movie, "?end": "bob"}], scores[0]),
        (spouse, [{"?start": "alice", "?end": "bob"}], scores[1]),
    ], start=1):
        results.append({"rank": rank, "score": score, "explanation": {
            "pattern": pattern, "size": pattern["num_nodes"], "num_instances": len(instances),
            "instances": instances,
            "aggregates": {"count": len(instances), "monocount": 1},
        }})
    return {"start": "alice", "end": "bob", "measure": "size+monocount", "k": 10,
            "size_limit": 5, "kb_version": 3, "cached": False, "coalesced": False,
            "elapsed_s": 0.001, "num_results": len(results), "results": results}


class CheckerFaults(unittest.TestCase):
    def setUp(self) -> None:
        self.ledger = checks.EdgeLedger(EDGES)
        self.adj = gen.adjacency(EDGES)

    def test_sound_answer_passes(self) -> None:
        checks.check_answer(_answer(), "alice", "bob", 5, 10, self.ledger, 0)
        checks.check_paths("pair", [_path_explanation("starring"), {
            "edges": [["?start", "?end", "spouse", False]],
            "instances": [{"?start": "alice", "?end": "bob"}]}], self.adj, "alice", "bob", 4)

    def test_dropped_path_is_rejected(self) -> None:
        dropped = _path_explanation("starring")
        dropped["instances"].pop()
        with self.assertRaisesRegex(checks.CheckFailed, "missing"):
            checks.check_paths("pair", [dropped], self.adj, "alice", "bob", 4)

    def test_instance_on_missing_edge_is_rejected(self) -> None:
        with self.assertRaisesRegex(checks.CheckFailed, "absent from the KB"):
            checks.check_answer(_answer(movie="m3"), "alice", "bob", 5, 10, self.ledger, 0)

    def test_edge_written_later_is_not_yet_visible(self) -> None:
        self.ledger.add_batch([("m3", "starring", "alice", True), ("m3", "starring", "bob", True)], 0)
        checks.check_answer(_answer(movie="m3"), "alice", "bob", 5, 10, self.ledger, 1)
        with self.assertRaisesRegex(checks.CheckFailed, "absent from the KB"):
            checks.check_answer(_answer(movie="m3"), "alice", "bob", 5, 10, self.ledger, 0)

    def test_misordered_ranking_is_rejected(self) -> None:
        with self.assertRaisesRegex(checks.CheckFailed, "above rank"):
            checks.check_answer(_answer(scores=(1.0, 2.0)), "alice", "bob", 5, 10, self.ledger, 0)

    def test_outranking_unreturned_explanation_is_rejected(self) -> None:
        with self.assertRaisesRegex(checks.CheckFailed, "above returned"):
            checks.check_topk("pair", ["a"], [["a", 1.0], ["b", 2.0]], 1)

    def test_wrong_path_aggregate_is_rejected(self) -> None:
        grouped = checks.check_paths("pair", [_path_explanation("starring"), {
            "edges": [["?start", "?end", "spouse", False]],
            "instances": [{"?start": "alice", "?end": "bob"}]}], self.adj, "alice", "bob", 4)
        with self.assertRaisesRegex(checks.CheckFailed, "counted 3, 2"):
            checks.check_path_aggregates("pair", _answer(), grouped)

    def test_stale_answer_after_write_is_rejected(self) -> None:
        served = _answer()
        fresh = copy.deepcopy(served)
        # after the write a third co-star movie exists: the fresh engine counts it
        fresh["results"][0]["explanation"]["num_instances"] = 3
        fresh["kb_version"] = 9
        checks.check_fresh([served], [copy.deepcopy(served)])
        with self.assertRaisesRegex(checks.CheckFailed, "stale answer"):
            checks.check_fresh([served], [fresh])

    def test_cached_reply_differing_from_computed_is_rejected(self) -> None:
        computed = _answer()
        cached = copy.deepcopy(computed)
        cached["cached"] = True
        checks.check_cache_consistency([cached, computed])
        cached["results"][1]["score"] = 0.5
        with self.assertRaisesRegex(checks.CheckFailed, "cached reply"):
            checks.check_cache_consistency([cached, computed])


if __name__ == "__main__":
    unittest.main()
