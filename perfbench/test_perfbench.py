"""Self-tests for the benchmark, at toy sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
import threading
import types

import numpy as np
import pytest

import benchutil
import pipeline_runs
import service_runs
from tracing import Tracer

sys.path.insert(0, str(benchutil.SRC))


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_nested_wrapped_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    mod = types.SimpleNamespace()

    def inner(step):
        clock.now += step
        return step

    def outer():
        clock.now += 1.0
        total = mod.inner(2.0) + mod.inner(3.0)
        clock.now += 0.5
        return total

    mod.inner = inner
    mod.outer = outer
    tracer.wrap(mod, "inner", "inner_s")
    tracer.wrap(mod, "outer", "outer_s")

    assert mod.outer() == 5.0
    assert tracer.self_s["outer_s"] == pytest.approx(1.5)
    assert tracer.total_s["outer_s"] == pytest.approx(6.5)
    assert tracer.self_s["inner_s"] == pytest.approx(5.0)
    assert tracer.calls["inner_s"] == 2
    # Self times partition the outermost call's wall time.
    assert sum(tracer.self_s.values()) == pytest.approx(6.5)

    tracer.restore()
    assert mod.inner is inner and mod.outer is outer


def test_wrap_keeps_classmethods_and_times_lock_acquisition_only():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    class Thing:
        @classmethod
        def make(cls, x):
            clock.now += 1.0
            return cls, x

    tracer.wrap(Thing, "make", "make_s")
    assert Thing.make(7) == (Thing, 7)
    assert tracer.self_s["make_s"] == pytest.approx(1.0)

    class Lock:
        def __enter__(self):
            clock.now += 0.25

        def __exit__(self, *exc):
            return False

    mod = types.SimpleNamespace(lock=lambda path: Lock())
    tracer.wrap_acquire(mod, "lock", "lock_s")
    with mod.lock("x"):
        clock.now += 4.0  # held, not acquiring
    assert tracer.self_s["lock_s"] == pytest.approx(0.25)
    tracer.restore()
    assert isinstance(Thing.__dict__["make"], classmethod)


def test_self_time_stacks_are_per_thread():
    tracer = Tracer()
    mod = types.SimpleNamespace(work=lambda: sum(range(1000)))
    tracer.wrap(mod, "work", "work_s")
    threads = [threading.Thread(target=mod.work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert tracer.calls["work_s"] == 4
    assert tracer.self_s["work_s"] == pytest.approx(tracer.total_s["work_s"])


def test_digest_catches_a_perturbed_array(tmp_path, monkeypatch):
    arrays = {"features": np.arange(12.0).reshape(3, 4), "labels": np.array([0, 1, 1])}
    original = tmp_path / "a.npz"
    np.savez(original, **arrays, __artifact__=np.array("header one"))
    same = tmp_path / "b.npz"
    np.savez(same, **arrays, __artifact__=np.array("header two"))
    perturbed = tmp_path / "c.npz"
    bad = dict(arrays)
    bad["features"] = arrays["features"].copy()
    bad["features"][1, 2] = np.nextafter(bad["features"][1, 2], np.inf)
    np.savez(perturbed, **bad)

    digest = benchutil.artifact_digest(original)
    assert benchutil.artifact_digest(same) == digest  # header is not results
    assert benchutil.artifact_digest(perturbed) != digest

    # Against a recorded digest, and run-against-run without one.
    def result(index, path):
        doc = {"digest": benchutil.artifact_digest(path), "wall_s": 1.0}
        return pipeline_runs.ChildResult(index, 0.1, doc, "")

    monkeypatch.setattr(benchutil, "load_digests", lambda: {"w/1/0": digest})
    runs = [result(0, original), result(1, perturbed)]
    runs.append(result(pipeline_runs.INPUTS_PER_SEED, perturbed))  # input 0 again
    pipeline_runs.check_digests("w", 1, runs)
    assert runs[0].doc is not None
    assert runs[1].doc is not None  # input 1: first of its kind
    assert runs[2].doc is None and "digest" in runs[2].error

    monkeypatch.setattr(benchutil, "load_digests", lambda: {})
    runs = [result(0, original), result(pipeline_runs.INPUTS_PER_SEED, perturbed)]
    pipeline_runs.check_digests("w", 2, runs)
    assert runs[0].doc is not None and runs[1].doc is None


@pytest.fixture
def service(tmp_path):
    from repro.service.server import make_server

    server = make_server(tmp_path / "svc", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield service_runs.Client(server.server_address[1])
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def test_service_client_counts_4xx_as_failed(service):
    op, doc = service_runs.http_op(
        service, "write", "POST", "/jobs", {"preset": "no-such-preset"}
    )
    assert not op.ok and doc is None and "status 400" in op.why

    op, _ = service_runs.http_op(service, "read", "GET", "/jobs/no-such-job")
    assert not op.ok and "status 404" in op.why

    body = service_runs.submission(5)
    first, doc = service_runs.http_op(service, "write", "POST", "/jobs", body)
    assert first.ok and doc["deduped"] is False
    # A 2xx with the wrong dedup flag is a failed operation too.
    op, _ = service_runs.http_op(
        service,
        "write",
        "POST",
        "/jobs",
        body,
        lambda s, d: "" if d["deduped"] is False else "deduped",
    )
    assert not op.ok
