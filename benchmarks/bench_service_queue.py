"""S1 — Throughput of the persistent job queue.

The characterization service folds its job state from an append-only
record log on every transaction.  The fold starts from the newest
checksummed snapshot and reads only the records after it, and a
snapshot is written every ``SNAPSHOT_INTERVAL`` records, so the cost of
an operation is bounded by that interval rather than by the length of
the log.  This bench submits a ramp of distinct jobs, re-submits one
of them (the dedup hot path every duplicate client hits), and
claims/completes the backlog, timing each operation class; it also
reports how many records each operation read and how many snapshots
were written.

The numbers answer the deployment question directly — how many jobs
can one service root hold before submit latency is felt over HTTP —
and the soft gates catch an accidental O(n^2) fold or a lost
read-cache without being load-sensitive: they bound *operation
counts per second* at generous floors, not wall-clock ratios.

Run it alone (it does not touch the session-scoped paper cache)::

    PYTHONPATH=src python -m pytest benchmarks/bench_service_queue.py -q

Set ``REPRO_BENCH_REQUIRE_SPEEDUP=1`` to fail when throughput drops
below the floors.
"""

import os
import tempfile
import time

from repro.config import AnalysisConfig
from repro.io import format_table
from repro.obs import emit_bench
from repro.io.records import SNAPSHOT_INTERVAL
from repro.service import JobQueue

#: Distinct jobs submitted (the log ends near 3x this: queued,
#: running, done records per job).
N_JOBS = 120

#: Duplicate submissions against one existing job (dedup hot path).
N_DUPES = 60

#: Generous throughput floors (ops/second) — an order of magnitude
#: under what a laptop does, so only a complexity bug trips them.
MIN_SUBMIT_PER_S = 20.0
MIN_DEDUP_PER_S = 20.0
MIN_CLAIM_PER_S = 20.0


def _timed(fn, n):
    start = time.perf_counter()
    for i in range(n):
        fn(i)
    return n / (time.perf_counter() - start)


def bench_service_queue(report):
    base = AnalysisConfig.tiny()
    tmpdir = tempfile.mkdtemp(prefix="repro-bench-queue-")
    queue = JobQueue(os.path.join(tmpdir, "svc"))
    records_read = []
    read = queue.log.read

    def counting_read(after=0):
        out = read(after)
        records_read.append(len(out))
        return out

    queue.log.read = counting_read

    submit_rate = _timed(
        lambda i: queue.submit(suites=["BMW"], config=base.replace(seed=i)), N_JOBS
    )
    dedup_rate = _timed(
        lambda i: queue.submit(suites=["BMW"], config=base.replace(seed=0)), N_DUPES
    )
    claim_rate = _timed(lambda i: queue.claim(f"w{i}"), N_JOBS)
    complete_rate = _timed(
        lambda i: queue.complete(
            f"BMW-{base.replace(seed=i).full_key()}", f"w{i}", {"artifact": "x"}
        ),
        N_JOBS,
    )

    ops = len(records_read)
    read_per_op = sum(records_read) / ops
    snapshots = len(list(queue.log.root.glob("**/snapshot-*.json")))

    fold_start = time.perf_counter()
    jobs = queue.jobs()
    fold_seconds = time.perf_counter() - fold_start
    assert len(jobs) == N_JOBS
    assert all(v.state == "done" for v in jobs.values())
    hot = f"BMW-{base.replace(seed=0).full_key()}"
    assert jobs[hot].submissions == 1 + N_DUPES

    rows = [
        ["submit (new job)", f"{submit_rate:.0f}"],
        ["submit (duplicate, dedup)", f"{dedup_rate:.0f}"],
        ["claim", f"{claim_rate:.0f}"],
        ["complete", f"{complete_rate:.0f}"],
    ]
    text = format_table(["operation", "ops / second"], rows)
    text += (
        f"\n{N_JOBS} jobs, {N_DUPES} duplicate submissions; final log holds "
        f"{3 * N_JOBS + N_DUPES} records; one state fold over it takes "
        f"{fold_seconds * 1e3:.1f} ms\n"
        f"records read per operation: {read_per_op:.1f} (max {max(records_read)}, "
        f"snapshot interval {SNAPSHOT_INTERVAL}); snapshots written: {snapshots}\n"
    )
    report("service_queue.txt", text)
    print("\n" + text)

    payload = {
        "n_jobs": N_JOBS,
        "n_duplicates": N_DUPES,
        "submit_per_s": round(submit_rate, 1),
        "dedup_per_s": round(dedup_rate, 1),
        "claim_per_s": round(claim_rate, 1),
        "complete_per_s": round(complete_rate, 1),
        "fold_seconds": round(fold_seconds, 6),
        "records_read_per_op": round(read_per_op, 1),
        "snapshots": snapshots,
        "min_submit_per_s": MIN_SUBMIT_PER_S,
        "min_dedup_per_s": MIN_DEDUP_PER_S,
        "min_claim_per_s": MIN_CLAIM_PER_S,
    }
    emit_bench("service_queue", payload, report=report)

    if os.environ.get("REPRO_BENCH_REQUIRE_SPEEDUP"):
        assert submit_rate >= MIN_SUBMIT_PER_S, f"submit {submit_rate:.0f}/s"
        assert dedup_rate >= MIN_DEDUP_PER_S, f"dedup {dedup_rate:.0f}/s"
        assert claim_rate >= MIN_CLAIM_PER_S, f"claim {claim_rate:.0f}/s"
