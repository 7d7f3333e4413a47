"""Concurrency hammer: parallel batches racing live KB updates.

The satellite scenario of the scale-out PR: ``explain_batch`` with
``parallelism > 1`` is hammered from several threads while KB edge updates
land mid-batch (engine-level and over ``POST /kb/edges``).  The assertions
pin the serving guarantees:

* every served outcome is labelled with a KB version that actually existed
  at a write boundary — never a torn/intermediate version;
* an outcome's content equals a from-scratch sequential computation against
  a snapshot of the KB at exactly that version (no stale result is ever
  served under a fresh version label, and vice versa);
* after the dust settles the result cache holds only current-version
  entries — mid-batch races cannot resurrect purged versions;
* worker pools recycle cleanly on version change and keep answering.
"""

from __future__ import annotations

import json
import random
import threading
import urllib.request

import pytest

from repro import Rex
from repro.errors import RexError
from repro.service import ExplanationEngine, create_server, run_in_thread
from repro.service.serialize import outcome_to_dict, ranked_to_dict
from repro.workloads import clustered_kb, sample_request_stream

SIZE_LIMIT = 4
HAMMER_THREADS = 3
BATCHES_PER_THREAD = 5
UPDATES = 4


def _fresh_kb(seed=29):
    return clustered_kb(
        num_communities=4, community_size=22, inter_edges=25, seed=seed
    )


def _render_outcome(outcome) -> str:
    payload = outcome_to_dict(outcome)
    for volatile in ("elapsed_s", "cached", "coalesced"):
        payload.pop(volatile)
    return json.dumps(payload, sort_keys=True)


class TestEngineHammer:
    def test_updates_mid_batch_never_serve_torn_results(self):
        kb = _fresh_kb()
        # the oracle: a KB that gets the same add_edge calls as the engine,
        # independent of the views the engine serves
        mirror = kb.copy()
        engine = ExplanationEngine(kb, size_limit=SIZE_LIMIT, parallelism=2)
        requests = sample_request_stream(
            kb, 8, seed=5, unique_pairs=8, size_limit=SIZE_LIMIT, k_choices=(3,)
        )
        # version -> deep mirror copy taken at that write boundary (the
        # updater thread is the only writer, so the copies are race-free)
        snapshots = {mirror.version: mirror.copy()}
        boundary_versions = {mirror.version}
        collected: list = []
        failures: list[BaseException] = []
        stop = threading.Event()
        lock = threading.Lock()

        anchors = [requests[i]["start"] for i in range(4)]

        def updater():
            try:
                rng = random.Random(99)
                for update in range(UPDATES):
                    # connect a brand-new entity AND rewire two existing pair
                    # endpoints, so stale replicas would rank differently
                    edges = [
                        {
                            "source": f"upd_{update}",
                            "target": anchors[update % len(anchors)],
                            "label": "rel0",
                        },
                        {
                            "source": requests[rng.randrange(len(requests))]["start"],
                            "target": requests[rng.randrange(len(requests))]["end"],
                            "label": f"rel{rng.randrange(4)}",
                        },
                    ]
                    try:
                        summary = engine.add_edges(edges)
                    except RexError:
                        # the random rewire can pick source == target
                        edges = edges[:1]
                        summary = engine.add_edges(edges)
                    for edge in edges:
                        mirror.add_edge(edge["source"], edge["target"], edge["label"])
                    assert summary["kb_version"] == mirror.version
                    with lock:
                        snapshots[mirror.version] = mirror.copy()
                        boundary_versions.add(mirror.version)
                    stop.wait(0.01)
            except BaseException as error:  # pragma: no cover - failure path
                failures.append(error)

        def hammer():
            try:
                for _ in range(BATCHES_PER_THREAD):
                    batch = engine.explain_batch(requests)
                    with lock:
                        collected.extend(batch)
            except BaseException as error:  # pragma: no cover - failure path
                failures.append(error)

        threads = [threading.Thread(target=updater)]
        threads += [threading.Thread(target=hammer) for _ in range(HAMMER_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "hammer deadlocked"
        try:
            assert not failures, failures

            # 1. nothing errored: the stale-replica retry path absorbs every
            #    mid-batch race for entities that existed up front
            errors = [item for item in collected if isinstance(item, RexError)]
            assert not errors, [str(e) for e in errors]

            # 2. only write-boundary versions are ever served
            served_versions = {outcome.kb_version for outcome in collected}
            assert served_versions <= boundary_versions

            # 3. served content is byte-identical to a sequential recompute
            #    against the snapshot of exactly that version
            spot_checked = set()
            for outcome in collected:
                identity = (
                    outcome.kb_version,
                    outcome.v_start,
                    outcome.v_end,
                    outcome.measure,
                    outcome.k,
                    outcome.size_limit,
                )
                if identity in spot_checked:
                    continue
                spot_checked.add(identity)
                reference_kb = snapshots[outcome.kb_version]
                reference = tuple(
                    Rex(reference_kb, size_limit=SIZE_LIMIT).explain(
                        outcome.v_start,
                        outcome.v_end,
                        measure=outcome.measure,
                        k=outcome.k,
                        size_limit=outcome.size_limit,
                    )
                )
                assert [
                    ranked_to_dict(entry, rank)
                    for rank, entry in enumerate(outcome.ranked, start=1)
                ] == [
                    ranked_to_dict(entry, rank)
                    for rank, entry in enumerate(reference, start=1)
                ], f"stale/torn result served for {identity}"

            # 4. one more update + batch: workers recycle and answer current
            final_anchor = anchors[0]
            engine.add_edges(
                [{"source": "post_hammer", "target": final_anchor, "label": "rel1"}]
            )
            final_batch = engine.explain_batch(requests)
            assert all(
                outcome.kb_version == engine.kb_version for outcome in final_batch
            )
            executor = engine.executor
            assert executor is not None
            assert executor.stats.recycles >= 1
            assert executor.stats.worker_crashes == 0

            # 5. the cache holds nothing from purged versions
            for version, _key in engine.cache.keys():
                assert version == engine.kb_version
        finally:
            engine.close()


class TestHttpHammer:
    @pytest.fixture()
    def service(self):
        kb = _fresh_kb(seed=31)
        engine = ExplanationEngine(kb, size_limit=SIZE_LIMIT, parallelism=2)
        server = create_server(engine, port=0)
        run_in_thread(server)
        try:
            yield engine, server.url, kb
        finally:
            server.shutdown()
            server.server_close()

    @staticmethod
    def _post(url: str, payload: dict) -> tuple[int, dict]:
        body = json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            url, data=body, headers={"Content-Type": "application/json"}
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.load(response)

    def test_kb_edges_landing_mid_batch(self, service):
        engine, url, kb = service
        requests = sample_request_stream(
            kb, 6, seed=9, size_limit=SIZE_LIMIT, k_choices=(3,)
        )
        results: list[dict] = []
        failures: list[BaseException] = []
        lock = threading.Lock()

        def hammer():
            try:
                for _ in range(4):
                    status, payload = self._post(
                        url + "/explain/batch", {"requests": requests}
                    )
                    assert status == 200
                    assert payload["num_answered"] == len(requests)
                    with lock:
                        results.extend(payload["results"])
            except BaseException as error:  # pragma: no cover - failure path
                failures.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(2)]
        for thread in threads:
            thread.start()
        anchor = requests[0]["start"]
        for update in range(3):
            status, payload = self._post(
                url + "/kb/edges",
                {
                    "edges": [
                        {
                            "source": f"http_upd_{update}",
                            "target": anchor,
                            "label": "rel0",
                        }
                    ]
                },
            )
            assert status == 200 and payload["added"] == 1
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "HTTP hammer deadlocked"
        assert not failures, failures

        final_version = engine.kb_version
        assert all(item["kb_version"] <= final_version for item in results)
        # a fresh batch after the last update is answered at the new version
        status, payload = self._post(url + "/explain/batch", {"requests": requests})
        assert status == 200
        assert {item["kb_version"] for item in payload["results"]} == {final_version}
        stats = engine.stats()
        assert stats["parallel"]["batches"] >= 1
        assert stats["parallel"]["worker_crashes"] == 0
