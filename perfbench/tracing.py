"""Per-layer timing wrappers, installed from the benchmark's own files.

Each wrapper replaces a name where the program looks it up (for
example ``repro.core.pipeline.kmeans``, not ``repro.stats.kmeans.kmeans``)
and charges the call's *self time* — its duration minus the durations
of wrapped calls made inside it — to one metric.  Summed self times
therefore never count a second twice, and the traced wall time minus
their sum is what no wrapper covers (``unattributed_s``).

Nothing here changes what a wrapped function computes: arguments and
results pass through untouched.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Optional, Union

MetricName = Union[str, Callable[[tuple, dict], str]]
AfterHook = Callable[["Tracer", tuple, dict, Any], None]


class Tracer:
    """Accumulates self time, inclusive time and counts per metric."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` and charge its self time to ``name``."""
        stack = self._stack()
        stack.append(0.0)  # time spent in wrapped calls nested inside
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - start
            nested = stack.pop()
            if stack:
                stack[-1] += elapsed
            with self._lock:
                self.self_s[name] += elapsed - nested
                self.total_s[name] += elapsed
                self.calls[name] += 1

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: MetricName,
        after: Optional[AfterHook] = None,
    ) -> None:
        """Replace ``owner.attr`` by a timed pass-through.

        ``owner`` is a module or a class; class- and static methods keep
        their kind.  ``name`` may be a function of ``(args, kwargs)``
        choosing the metric per call.  ``after`` sees each result.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            metric = name(args, kwargs) if callable(name) else name
            result = self.call(metric, fn, *args, **kwargs)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._undo.append((owner, attr, raw))

    def wrap_acquire(self, owner: Any, attr: str, name: str) -> None:
        """Wrap a context-manager factory, timing only ``__enter__``.

        Used for locks: the metric is the time spent acquiring, while
        the work done under the lock stays with the caller's metric.
        """
        factory = getattr(owner, attr)
        tracer = self

        class _Timed:
            def __init__(self, cm):
                self.cm = cm

            def __enter__(self):
                return tracer.call(name, self.cm.__enter__)

            def __exit__(self, *exc):
                return self.cm.__exit__(*exc)

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return _Timed(factory(*args, **kwargs))

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, factory))

    def restore(self) -> None:
        """Put every wrapped name back."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "total_s": dict(self.total_s),
                "calls": {k: float(v) for k, v in self.calls.items()},
                "counts": dict(self.counts),
            }


def _add_file_bytes(metric: str) -> AfterHook:
    def hook(tracer: Tracer, args, kwargs, result) -> None:
        path = result if result is not None else args[1]
        tracer.count(metric, float(os.path.getsize(path)))

    return hook


#: The six MICA meters, in the order ``repro.mica.meter`` runs them.
METERS = (
    "instruction_mix",
    "ilp",
    "register_traffic",
    "footprint",
    "strides",
    "branch",
)


def install_pipeline(tracer: Tracer) -> None:
    """Wrap the pipeline layers: synth, mica, core, stats, ga, io."""
    import repro.core.dataset as dataset
    import repro.core.pipeline as pipeline
    import repro.core.results as results
    import repro.mica.meter as meter
    from repro.io.artifacts import StageCheckpoint
    from repro.mica import FUSED_MAX_INTERVAL_INSTRUCTIONS
    from repro.mica.profile import IntervalProfile
    from repro.synth.program import SyntheticProgram

    tracer.wrap(
        SyntheticProgram,
        "interval_trace",
        "synth.trace_s",
        after=lambda t, a, k, r: t.count("synth.traces"),
    )
    tracer.wrap(IntervalProfile, "from_trace", "mica.profile_s")
    for name in METERS:
        tracer.wrap(meter, f"measure_{name}", f"mica.{name}_s")

    def batch_metric(args, kwargs) -> str:
        # Mirrors the program's engine choice so the fused pass and the
        # per-interval loop's own glue (feature-vector assembly) are
        # charged separately.
        traces = args[0]
        fused = max(len(t) for t in traces) <= FUSED_MAX_INTERVAL_INSTRUCTIONS
        return "mica.fused_s" if fused else "mica.assemble_s"

    def count_batch(t: Tracer, args, kwargs, result) -> None:
        t.count("mica.batches")
        t.count("mica.intervals", len(args[0]))

    tracer.wrap(dataset, "characterize_intervals", batch_metric, after=count_batch)
    tracer.wrap(dataset, "sample_interval_indices", "core.sampling_s")
    tracer.wrap(pipeline, "build_dataset", "core.dataset_s")
    tracer.wrap(pipeline, "fit_pca", "stats.pca_s")
    tracer.wrap(
        pipeline,
        "kmeans",
        "stats.kmeans_s",
        after=lambda t, a, k, r: t.count("stats.kmeans_iters", r.n_iter),
    )
    tracer.wrap(pipeline, "select_prominent_phases", "core.prominent_s")
    tracer.wrap(
        pipeline,
        "select_features",
        "ga.select_s",
        after=lambda t, a, k, r: t.count("ga.generations", r.generations),
    )
    tracer.wrap(
        StageCheckpoint, "save", "io.checkpoint_s", after=_add_file_bytes("io.artifact_bytes")
    )
    tracer.wrap(
        results,
        "save_characterization",
        "io.save_s",
        after=_add_file_bytes("io.artifact_bytes"),
    )


def install_service(tracer: Tracer) -> None:
    """Wrap the service layers: HTTP API, job queue, record log, locks."""
    import repro.io.artifacts as artifacts
    import repro.service.queue as queue
    from repro.io.records import RecordLog
    from repro.service.api import ServiceAPI
    from repro.service.queue import JobQueue

    tracer.wrap(ServiceAPI, "handle", "service.api_s")
    tracer.wrap(
        JobQueue,
        "jobs",
        "service.queue.fold_s",
        after=lambda t, a, k, r: t.count("service.queue.folds"),
    )
    tracer.wrap(JobQueue, "submit", "service.queue.submit_s")
    tracer.wrap(JobQueue, "claim", "service.queue.claim_s")
    tracer.wrap(JobQueue, "complete", "service.queue.complete_s")
    tracer.wrap(
        RecordLog,
        "read",
        "io.records.read_s",
        after=lambda t, a, k, r: t.count("io.records.records_read", len(r)),
    )
    tracer.wrap(RecordLog, "append", "io.records.append_s")
    # The queue binds artifact_lock at import; RecordLog.append imports
    # it from repro.io.artifacts on every call.  Wrap both lookups.
    tracer.wrap_acquire(queue, "artifact_lock", "io.lock_s")
    tracer.wrap_acquire(artifacts, "artifact_lock", "io.lock_s")
