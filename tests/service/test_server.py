"""End-to-end tests over real HTTP: server, client, concurrent dedup."""

import http.client
import threading

import pytest

from repro.config import AnalysisConfig
from repro.service import (
    JobQueue,
    ServiceClient,
    ServiceError,
    Worker,
    make_server,
)

CFG = AnalysisConfig.tiny()


@pytest.fixture
def live(tmp_path):
    """A served API on an ephemeral port; yields (client, root)."""
    root = tmp_path / "svc"
    server = make_server(root, port=0, default_preset="tiny")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield ServiceClient(f"http://{host}:{port}"), root
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class TestTransport:
    def test_health_over_the_wire(self, live):
        client, _ = live
        assert client.health()["ok"] is True

    def test_http_error_carries_status_and_body(self, live):
        client, _ = live
        with pytest.raises(ServiceError) as err:
            client.job("does-not-exist")
        assert err.value.status == 404
        assert "does-not-exist" in str(err.value)

    def test_post_without_content_length_is_411(self, live):
        client, _ = live
        host, port = client.base_url.replace("http://", "").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.putrequest("POST", "/jobs", skip_accept_encoding=True)
            conn.endheaders()  # no Content-Length, no body
            response = conn.getresponse()
            assert response.status == 411
            response.read()
        finally:
            conn.close()

    def test_keep_alive_responses_do_not_stall(self, live):
        # Nagle's algorithm against the client's delayed ACK would hold
        # each response body back about 40 ms on a reused connection.
        import statistics
        import time

        client, _ = live
        host, port = client.base_url.replace("http://", "").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        latencies = []
        try:
            for _ in range(20):
                start = time.perf_counter()
                conn.request("GET", "/health")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
                latencies.append(time.perf_counter() - start)
        finally:
            conn.close()
        assert statistics.median(latencies) < 0.02, latencies

    def test_oversized_declared_body_is_413_before_upload(self, live):
        client, _ = live
        host, port = client.base_url.replace("http://", "").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.putrequest("POST", "/jobs")
            conn.putheader("Content-Length", str(50_000_000))
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 413
            response.read()
        finally:
            conn.close()

    def test_malformed_json_over_the_wire_is_400(self, live):
        client, _ = live
        host, port = client.base_url.replace("http://", "").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            body = b"}{"
            conn.putrequest("POST", "/jobs")
            conn.putheader("Content-Length", str(len(body)))
            conn.endheaders()
            conn.send(body)
            response = conn.getresponse()
            assert response.status == 400
            response.read()
        finally:
            conn.close()


class TestEndToEnd:
    def test_submit_work_fetch(self, live):
        import hashlib

        client, root = live
        submitted = client.submit(suites=["BMW"])
        job_id = submitted["job"]["job_id"]
        Worker(root, "w1").run(once=True)
        done = client.wait(job_id, timeout=60)
        assert done["state"] == "done"
        artifact = client.artifact(job_id)
        assert hashlib.sha256(artifact).hexdigest() == done["result"]["sha256"]
        progress = client.progress(job_id)
        assert progress["live"]["ok"] is True
        assert client.events(job_id).startswith(b"{")
        assert client.report(job_id)["command"] == "service.characterize"
        assert [j["job_id"] for j in client.jobs()] == [job_id]

    def test_concurrent_duplicate_clients_share_one_build(self, live):
        """Ten racing clients, one job, one build — the dedup contract.

        Every submission references the same suites + config, so all of
        them must land on a single queue entry; the build ledger (the
        counting hook) then proves the pipeline ran exactly once, and
        every client fetches byte-identical artifact bytes.
        """
        client, root = live
        results = [None] * 10
        errors = []

        def submit(i):
            try:
                results[i] = client.submit(suites=["BMW"], priority=i % 3)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(10)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        job_ids = {r["job"]["job_id"] for r in results}
        assert len(job_ids) == 1  # all ten landed on one job
        assert sum(1 for r in results if not r["deduped"]) == 1
        job_id = job_ids.pop()
        queue = JobQueue(root)
        assert queue.get(job_id).submissions == 10

        Worker(root, "w1").run(once=True)
        done = client.wait(job_id, timeout=60)
        assert done["state"] == "done"
        # The counting hook: exactly one pipeline execution.
        assert len(queue.builds()) == 1
        blobs = {client.artifact(job_id) for _ in range(3)}
        assert len(blobs) == 1  # every client reads identical bytes
