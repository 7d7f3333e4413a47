"""End-to-end tests for the HTTP/JSON explanation API.

A real ``ThreadingHTTPServer`` is bound to an ephemeral port on localhost and
exercised with ``urllib`` — the same path `make serve-smoke` takes.
"""

from __future__ import annotations

import gc
import http.client
import json
import statistics
import time
import urllib.error
import urllib.request
import weakref
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import urlsplit

import pytest

from repro.datasets.paper_example import paper_example_kb
from repro.service import ExplanationEngine, create_server, run_in_thread


@pytest.fixture()
def service():
    """A live server on an ephemeral port; yields ``(engine, base_url)``."""
    engine = ExplanationEngine(paper_example_kb(), size_limit=4)
    server = create_server(engine, port=0)
    run_in_thread(server)
    try:
        yield engine, server.url
    finally:
        server.shutdown()
        server.server_close()


def _get(url: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


def _post(url: str, payload: dict) -> tuple[int, dict]:
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


class TestHealthz:
    def test_reports_kb_shape(self, service):
        engine, url = service
        status, payload = _get(url + "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["kb_version"] == engine.kb_version
        assert payload["entities"] == engine.kb.num_entities
        assert payload["edges"] == engine.kb.num_edges

    def test_reports_resilience_state(self, service):
        """The breaker and the admission gate are operator-visible."""
        _, url = service
        status, payload = _get(url + "/healthz")
        assert status == 200
        assert payload["breaker"] == "closed"
        resilience = payload["resilience"]
        assert resilience["breaker"]["state"] == "closed"
        assert resilience["admission"]["inflight"] >= 0
        assert resilience["admission"]["max_inflight"] >= 1
        assert resilience["leaked_threads"] == []


class TestExplain:
    def test_end_to_end_json_shape(self, service):
        """The ISSUE's end-to-end test: explain a demo pair, assert the shape."""
        _, url = service
        status, payload = _get(
            url + "/explain?start=tom_cruise&end=nicole_kidman&k=3"
        )
        assert status == 200
        assert payload["start"] == "tom_cruise"
        assert payload["end"] == "nicole_kidman"
        assert payload["measure"] == "size+monocount"
        assert payload["cached"] is False
        assert 1 <= payload["num_results"] <= 3
        assert len(payload["results"]) == payload["num_results"]
        top = payload["results"][0]
        assert top["rank"] == 1
        assert isinstance(top["score"], (int, float))
        explanation = top["explanation"]
        assert explanation["pattern"]["num_nodes"] >= 2
        assert explanation["pattern"]["edges"], "pattern must render its edges"
        for edge in explanation["pattern"]["edges"]:
            assert {"source", "target", "label", "directed"} <= set(edge)
        assert explanation["num_instances"] >= 1
        assert explanation["instances"][0]["?start"] == "tom_cruise"
        assert explanation["instances"][0]["?end"] == "nicole_kidman"

    def test_second_request_is_a_cache_hit(self, service):
        _, url = service
        query = url + "/explain?start=tom_cruise&end=nicole_kidman&k=3"
        _, first = _get(query)
        _, second = _get(query)
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["results"] == first["results"]

    def test_missing_parameters_are_400(self, service):
        _, url = service
        status, payload = _get(url + "/explain?start=tom_cruise")
        assert status == 400
        assert "end" in payload["error"]

    def test_unknown_entity_is_404(self, service):
        _, url = service
        status, payload = _get(url + "/explain?start=tom_cruise&end=nobody")
        assert status == 404
        assert "nobody" in payload["error"]

    def test_bad_measure_is_400(self, service):
        _, url = service
        status, payload = _get(
            url + "/explain?start=tom_cruise&end=nicole_kidman&measure=bogus"
        )
        assert status == 400
        assert "bogus" in payload["error"]

    def test_non_integer_k_is_400(self, service):
        _, url = service
        status, payload = _get(
            url + "/explain?start=tom_cruise&end=nicole_kidman&k=three"
        )
        assert status == 400
        assert "k" in payload["error"]

    def test_non_positive_k_is_400(self, service):
        _, url = service
        status, _ = _get(url + "/explain?start=tom_cruise&end=nicole_kidman&k=0")
        assert status == 400

    def test_negative_max_instances_is_400(self, service):
        _, url = service
        status, payload = _get(
            url + "/explain?start=tom_cruise&end=nicole_kidman&max_instances=-1"
        )
        assert status == 400
        assert "max_instances" in payload["error"]

    def test_unknown_route_is_404_and_counted(self, service):
        engine, url = service
        status, payload = _get(url + "/nope")
        assert status == 404
        assert "unknown route" in payload["error"]
        counters = engine.metrics.snapshot()["counters"]
        assert counters["http.requests{GET <unknown>}"] == 1
        assert counters["http.errors"] == 1


class TestBatch:
    def test_batch_answers_and_inline_errors(self, service):
        _, url = service
        status, payload = _post(
            url + "/explain/batch",
            {
                "requests": [
                    {"start": "tom_cruise", "end": "nicole_kidman", "k": 2},
                    {"start": "tom_cruise", "end": "nobody"},
                ]
            },
        )
        assert status == 200
        assert payload["num_requests"] == 2
        assert payload["num_answered"] == 1
        assert payload["results"][0]["num_results"] >= 1
        assert "error" in payload["results"][1]

    def test_malformed_body_is_400(self, service):
        _, url = service
        status, payload = _post(url + "/explain/batch", {"not_requests": []})
        assert status == 400
        assert "requests" in payload["error"]

    def test_non_integer_max_instances_is_400(self, service):
        _, url = service
        status, payload = _post(
            url + "/explain/batch",
            {
                "requests": [{"start": "tom_cruise", "end": "nicole_kidman"}],
                "max_instances": "3",
            },
        )
        assert status == 400
        assert "max_instances" in payload["error"]

    def test_non_object_request_item_is_an_inline_error(self, service):
        _, url = service
        status, payload = _post(
            url + "/explain/batch", {"requests": ["tom_cruise"]}
        )
        assert status == 200
        assert "error" in payload["results"][0]


class TestKbEdges:
    def test_update_bumps_version_and_invalidates_cache(self, service):
        """The ISSUE's cache-invalidation-on-POST test."""
        engine, url = service
        query = url + "/explain?start=brad_pitt&end=angelina_jolie&k=5"
        _, first = _get(query)
        assert first["cached"] is False
        _, again = _get(query)
        assert again["cached"] is True
        enumerations_before = engine.metrics.counter("engine.enumerations").value

        status, summary = _post(
            url + "/kb/edges",
            {
                "edges": [
                    {
                        "source": "new_movie",
                        "target": "brad_pitt",
                        "label": "starring",
                    },
                    {
                        "source": "new_movie",
                        "target": "angelina_jolie",
                        "label": "starring",
                    },
                ]
            },
        )
        assert status == 200
        assert summary["added"] == 2
        assert summary["kb_version"] > first["kb_version"]
        assert summary["cache_purged"] >= 1

        _, after = _get(query)
        assert after["cached"] is False
        assert after["kb_version"] == summary["kb_version"]
        assert (
            engine.metrics.counter("engine.enumerations").value
            == enumerations_before + 1
        )
        # the new co-starring movie shows up as a witness
        witnesses = {
            entity
            for result in after["results"]
            for instance in result["explanation"]["instances"]
            for entity in instance.values()
        }
        assert "new_movie" in witnesses

    def test_malformed_edges_are_400(self, service):
        _, url = service
        status, payload = _post(url + "/kb/edges", {"edges": [{"source": "a"}]})
        assert status == 400
        assert "label" in payload["error"] or "target" in payload["error"]

    def test_invalid_json_body_is_400(self, service):
        _, url = service
        request = urllib.request.Request(
            url + "/kb/edges",
            data=b"not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_oversized_body_does_not_desync_keepalive(self, service):
        """A 413 sent without reading the body must close the connection,
        not let the unread bytes be parsed as the next request."""
        import http.client
        from urllib.parse import urlsplit

        _, url = service
        host, port = urlsplit(url).hostname, urlsplit(url).port
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            big_body = b"x" * (2 << 20)  # 2 MiB, over the 1 MiB limit
            try:
                # the server 413s without reading the body and closes the
                # socket; depending on buffer timing the client may see the
                # reset while still sending — an equally valid rejection
                connection.request("POST", "/kb/edges", body=big_body)
                response = connection.getresponse()
                assert response.status == 413
                response.read()
            except (BrokenPipeError, ConnectionResetError):
                return
            # response received: the server must still have closed the
            # connection, so a second request on the same socket must not be
            # answered from the stale body bytes
            with pytest.raises((http.client.HTTPException, OSError)):
                connection.request("GET", "/healthz")
                connection.getresponse()
        finally:
            connection.close()


class TestMetrics:
    def test_metrics_shape(self, service):
        _, url = service
        _get(url + "/explain?start=tom_cruise&end=nicole_kidman&k=2")
        status, payload = _get(url + "/metrics")
        assert status == 200
        assert payload["counters"]["engine.requests"] >= 1
        assert payload["counters"]["http.requests{GET /explain}"] >= 1
        assert payload["histograms"]["engine.explain_latency"]["count"] >= 1
        assert payload["cache"]["capacity"] == 2048
        assert payload["kb"]["entities"] > 0


class TestConcurrentHammer:
    def test_hammer_costs_one_enumeration(self, service):
        """32 concurrent identical requests: exactly one enumeration runs —
        every other request either coalesces onto the in-flight leader or
        hits the cache the leader filled, per the metrics counters."""
        engine, url = service
        query = url + "/explain?start=kate_winslet&end=leonardo_dicaprio&k=5"
        hammers = 32
        with ThreadPoolExecutor(max_workers=16) as pool:
            results = list(pool.map(lambda _: _get(query), range(hammers)))
        assert all(status == 200 for status, _ in results)
        counters = engine.metrics.snapshot()["counters"]
        assert counters["engine.enumerations"] == 1
        assert counters["engine.requests"] == hammers
        # every non-leader request was served without recomputation
        assert (
            counters["engine.cache_hits"] + counters["engine.coalesced"]
            == hammers - 1
        )
        reference = results[0][1]["results"]
        assert all(payload["results"] == reference for _, payload in results)


class TestKeepAlive:
    def test_back_to_back_cached_requests_do_not_stall(self, service):
        """Replies on a keep-alive connection go out without waiting for the
        client's delayed ACK (Nagle's algorithm is off on the socket)."""
        engine, url = service
        parts = urlsplit(url)
        path = "/explain?start=tom_cruise&end=nicole_kidman&k=3"
        connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=30)
        try:
            connection.request("GET", path)
            connection.getresponse().read()  # computed once, then cached
            durations = []
            for _ in range(20):
                started = time.perf_counter()
                connection.request("GET", path)
                response = connection.getresponse()
                body = json.loads(response.read())
                durations.append(time.perf_counter() - started)
                assert response.status == 200 and body["cached"] is True
        finally:
            connection.close()
        assert statistics.median(durations) < 0.020, durations


class TestServeReleasesTheBootKb:
    """``serve()`` and ``rex-explain serve`` keep no reference to the KB
    while serving: the engine's compiled view is all that stays alive."""

    @pytest.fixture()
    def alive_while_serving(self, monkeypatch):
        from repro.service import server as server_module

        refs: list[weakref.ref] = []
        seen: list[bool] = []

        def probe_serve_forever(server, poll_interval=0.5):
            gc.collect()
            seen.extend(ref() is not None for ref in refs)

        monkeypatch.setattr(
            server_module.ExplanationServer, "serve_forever", probe_serve_forever
        )

        def make_kb():
            kb = paper_example_kb()
            refs.append(weakref.ref(kb))
            return kb

        return make_kb, seen

    def test_serve(self, alive_while_serving):
        from repro.service import serve

        make_kb, seen = alive_while_serving
        serve(make_kb(), port=0, verbose=False)
        assert seen == [False]

    def test_serve_main(self, alive_while_serving, monkeypatch):
        import repro.cli

        make_kb, seen = alive_while_serving
        monkeypatch.setattr(repro.cli, "_load_kb", lambda args: make_kb())
        assert repro.cli.serve_main(["--demo", "--port", "0", "--quiet"]) == 0
        assert seen == [False]
