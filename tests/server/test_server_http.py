"""Live-server endpoint semantics: envelopes, errors, backpressure.

The protocol-error tests run against both ``/v1`` front ends: the
gateway and a one-shard cluster router.
"""

import http.client
import json
import time
import urllib.request

import pytest

from repro.server import ServerClient
from repro.server.app import MAX_BODY_BYTES
from tests.cluster.conftest import live_cluster, needs_fork  # noqa: F401
from tests.server.conftest import cheap_spec, wait_until

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture(
    params=["live_server", pytest.param("live_cluster", marks=needs_fork)]
)
def front_end(request):
    """Factory over both front ends: ``start(**overrides)`` returns
    ``(server, client)`` for a gateway or a one-shard cluster."""
    start = request.getfixturevalue(request.param)
    if request.param == "live_server":
        return start

    def start_cluster(**overrides):
        cluster = start(**{"shards": 1, **overrides})
        return cluster, ServerClient(cluster.url, max_retries=0)

    return start_cluster


class TestBasicEndpoints:
    def test_healthz(self, live_server):
        _, client = live_server()
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0
        assert set(health["jobs"]) == {
            "queued", "running", "done", "error",
            "timed_out", "quarantined",
        }
        assert "faults" in health

    def test_unknown_route_404(self, front_end):
        _, client = front_end()
        status, _, _ = client._request("GET", "/v1/nope")
        assert status == 404

    def test_wrong_method_405(self, front_end):
        _, client = front_end()
        status, _, _ = client._request("GET", "/v1/jobs")
        assert status == 405

    def test_unknown_job_404(self, live_server):
        _, client = live_server()
        status, _, _ = client._request("GET", "/v1/jobs/job-99999999")
        assert status == 404

    def test_uncached_result_404(self, live_server):
        _, client = live_server()
        status, _, _ = client._request("GET", f"/v1/results/{'0' * 64}")
        assert status == 404


class TestPostJobs:
    def test_submit_and_poll(self, live_server):
        _, client = live_server()
        [envelope] = client.submit(cheap_spec())
        assert envelope["status"] in ("queued", "running", "done")
        assert envelope["disposition"] == "queued"
        [finished] = client.wait_for([envelope["id"]])
        assert finished["status"] == "done"
        assert finished["spec_hash"] == envelope["spec_hash"]
        assert finished["speedups"]["GradPIM-BD"]["overall"] > 1.0
        assert "result" in finished

    def test_wait_blocks_until_done(self, live_server):
        _, client = live_server()
        [envelope] = client.submit(cheap_spec(batch=16), wait=30)
        assert envelope["status"] == "done"
        assert envelope["result"]["network"] == "MLP1"

    def test_second_submit_is_cached(self, live_server):
        _, client = live_server()
        client.submit(cheap_spec(batch=32), wait=30)
        [envelope] = client.submit(cheap_spec(batch=32), wait=30)
        assert envelope["disposition"] == "cached"
        assert envelope["from_cache"] is True

    def test_batch_submission(self, live_server):
        _, client = live_server()
        envelopes = client.submit(
            [cheap_spec(batch=b) for b in (16, 32, 64)], wait=30
        )
        assert len(envelopes) == 3
        assert {e["status"] for e in envelopes} == {"done"}
        assert len({e["spec_hash"] for e in envelopes}) == 3

    def test_result_endpoint_after_execution(self, live_server):
        _, client = live_server()
        [envelope] = client.submit(cheap_spec(batch=48), wait=30)
        payload = client.result(envelope["spec_hash"])
        assert payload["spec_hash"] == envelope["spec_hash"]
        assert payload["result"] == envelope["result"]

    def test_summary_query_omits_result(self, live_server):
        _, client = live_server()
        [envelope] = client.submit(cheap_spec(batch=24), wait=30)
        summary = client.job(envelope["id"], summary=True)
        assert "result" not in summary
        assert summary["speedups"]["GradPIM-BD"]["overall"] > 1.0
        # Falsy spellings keep the payload (?summary=0 != ?summary=1).
        status, _, body = client._request(
            "GET", f"/v1/jobs/{envelope['id']}?summary=0"
        )
        assert status == 200 and "result" in json.loads(body)

    def test_bad_spec_400(self, front_end):
        _, client = front_end()
        status, _, body = client._request(
            "POST", "/v1/jobs", {"network": "NoSuchNet"}
        )
        assert status == 400
        assert "NoSuchNet" in json.loads(body)["error"]

    def test_bad_json_400(self, front_end):
        server, _ = front_end()
        request = urllib.request.Request(
            f"{server.url}/v1/jobs",
            data=b"{not json",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(request, timeout=10)
        assert exc.value.code == 400

    def test_error_responses_close_keepalive_connections(
        self, front_end
    ):
        """An error path that never drained the body must not leave it
        on the socket to be parsed as the next keep-alive request."""
        server, _ = front_end()
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request(
                "POST",
                "/v1/nope",
                body=json.dumps({"network": "MLP1"}),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 404
            assert response.getheader("Connection") == "close"
            response.read()
        finally:
            connection.close()
        # A fresh connection still works fine.
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()

    def test_keepalive_survives_successful_requests(self, live_server):
        """Happy-path requests keep the connection reusable."""
        server, _ = live_server()
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            for _ in range(3):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()

    def test_empty_batch_400(self, front_end):
        _, client = front_end()
        status, _, _ = client._request("POST", "/v1/jobs", {"jobs": []})
        assert status == 400

    def test_oversize_batch_400(self, front_end):
        _, client = front_end(max_batch=2)
        status, _, body = client._request(
            "POST",
            "/v1/jobs",
            {"jobs": [cheap_spec(batch=b) for b in (16, 32, 64)]},
        )
        assert status == 400
        assert "max_batch" in json.loads(body)["error"]

    def test_oversize_body_413(self, front_end):
        """The body bound is checked on the declared length, before
        a byte of the body is read."""
        server, _ = front_end()
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.putrequest("POST", "/v1/jobs")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 413
            assert response.getheader("Connection") == "close"
            assert str(MAX_BODY_BYTES) in json.loads(response.read())[
                "error"
            ]
        finally:
            connection.close()

    def test_bad_wait_admits_nothing(self, front_end):
        _, client = front_end()
        status, _, body = client._request(
            "POST", "/v1/jobs?wait=abc", cheap_spec(batch=40)
        )
        assert status == 400
        assert json.loads(body) == {"error": "bad wait value 'abc'"}
        assert sum(client.healthz()["jobs"].values()) == 0

    def test_error_job_lifecycle(self, live_server, monkeypatch):
        from repro.service import pool

        def explode(spec):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(pool, "execute_spec", explode)
        _, client = live_server()
        [envelope] = client.submit(cheap_spec(batch=56), wait=30)
        assert envelope["status"] == "error"
        assert "synthetic failure" in envelope["error"]


class TestBackpressure:
    def test_queue_full_503_with_retry_after(
        self, live_server, gated_executor
    ):
        release, calls = gated_executor
        server, client = live_server(
            queue_depth=1, retry_after_seconds=2.5
        )
        # First job: dequeued by the dispatcher, blocked mid-execution.
        client.submit(cheap_spec(batch=16))
        wait_until(lambda: len(calls) == 1)
        # Second job fills the (depth-1) queue; third must bounce.
        client.submit(cheap_spec(batch=32))
        status, headers, body = client._request(
            "POST", "/v1/jobs", cheap_spec(batch=64)
        )
        assert status == 503
        assert headers.get("Retry-After") == "2.5"
        assert "queue full" in json.loads(body)["error"]
        assert (
            server.metrics.counter_value("rejected_total") == 1
        )
        release.set()

    def test_batch_partially_accepted(
        self, live_server, gated_executor
    ):
        release, calls = gated_executor
        server, client = live_server(queue_depth=1)
        client.submit(cheap_spec(batch=16))
        wait_until(lambda: len(calls) == 1)
        status, headers, body = client._request(
            "POST",
            "/v1/jobs",
            {"jobs": [cheap_spec(batch=32), cheap_spec(batch=64)]},
        )
        assert status == 503
        payload = json.loads(body)
        assert payload["accepted"] == 1
        assert payload["rejected"] == 1
        assert "Retry-After" in headers
        release.set()
        # The accepted job still runs to completion.
        [finished] = client.wait_for([payload["jobs"][0]["id"]])
        assert finished["status"] == "done"


class TestJobStoreBounds:
    def test_finished_jobs_evicted(self, live_server):
        _, client = live_server(max_finished_jobs=2)
        ids = []
        for batch in (16, 32, 64):
            [envelope] = client.submit(cheap_spec(batch=batch), wait=30)
            ids.append(envelope["id"])
        status, _, _ = client._request("GET", f"/v1/jobs/{ids[0]}")
        assert status == 404  # evicted by the two later finishers
        assert client.job(ids[2])["status"] == "done"


class TestMetricsEndpoint:
    def test_latencies_after_traffic(self, live_server):
        _, client = live_server()
        client.submit(cheap_spec(batch=16), wait=30)
        client.healthz()
        summary = client.latency_summary()
        post = summary["POST /v1/jobs"]
        assert post["count"] >= 1
        assert post["p50"] > 0 and post["p95"] > 0 and post["p99"] > 0
        assert post["p50"] <= post["p95"] <= post["p99"]
        assert summary["GET /healthz"]["count"] >= 1

    def test_counters_and_gauges_exposed(self, live_server):
        from repro.obs.metrics import parse_prometheus

        _, client = live_server()
        client.submit(cheap_spec(batch=16), wait=30)
        client.submit(cheap_spec(batch=16), wait=30)  # cached
        parsed = parse_prometheus(client.metrics_text())
        assert parsed["repro_server_executions_total"][""] == 1.0
        assert parsed["repro_server_cache_hits_total"] == {"": 1.0}
        # One cold job = exactly one counted miss (admission counts it;
        # the execution itself must not re-probe and double it).
        assert parsed["repro_server_cache_misses"][""] == 1.0
        assert parsed["repro_server_cache_hits"][""] == 1.0
        assert "repro_server_queue_depth" in parsed
        assert "repro_server_uptime_seconds" in parsed
        assert "repro_server_cache_entries" in parsed
        status_counts = parsed["repro_server_requests_total"]
        assert any('status="200"' in k for k in status_counts)


class TestReadiness:
    """Liveness (/healthz) and readiness (/readyz) are split: a
    draining or not-yet-started gateway is alive but must not be sent
    new work (the cluster supervisor routes on exactly this signal)."""

    def _get(self, client, path):
        status, _, text = client._request("GET", path)
        return status, json.loads(text)

    def test_readyz_ok_while_serving(self, live_server):
        _, client = live_server()
        status, body = self._get(client, "/readyz")
        assert status == 200
        assert body["ready"] is True
        assert body["draining"] is False
        assert "queue_depth" in body

    def test_readyz_503_while_draining_healthz_still_200(
        self, live_server
    ):
        server, client = live_server()
        server.dispatcher.draining = True
        status, body = self._get(client, "/readyz")
        assert status == 503
        assert body["ready"] is False
        assert body["reason"] == "draining"
        # Liveness is unaffected: the process is healthy, just not
        # accepting new work.
        assert client.healthz()["status"] == "ok"

    def test_readyz_405_on_post(self, front_end):
        _, client = front_end()
        status, _, _ = client._request("POST", "/readyz", body={})
        assert status == 405

    def test_not_ready_before_dispatcher_starts(self):
        from repro.server import ServerConfig, create_server

        server = create_server(ServerConfig(port=0))
        try:
            assert not server.dispatcher.is_ready()
        finally:
            server.server_close()

    def test_not_ready_after_stop(self, live_server):
        server, _ = live_server()
        assert server.dispatcher.is_ready()
        server.stop()
        assert server.dispatcher.draining
        assert not server.dispatcher.is_ready()
