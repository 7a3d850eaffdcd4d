"""The pipeline workloads: ``paper-subset`` and ``fine-intervals``.

The parent (:func:`run`) launches one child process per
characterization, so every measured call pays what a user's
``characterize`` process pays: a fresh interpreter, cold imports and
the OpenBLAS thread-pool start-up.  The child (``--child``) builds the
inputs from the seed, reports readiness (the end of set-up), times
``characterize_to_file(..., resume=False)`` up to the saved artifact,
and prints one JSON line with the wall time, its peak RSS and the
artifact digest.

Both workloads characterize all 77 benchmarks; the seed sets
``config.seed``, which picks the sampled intervals and seeds k-means
and the GA.  Run ``i`` of a seed characterizes input ``i mod
INPUTS_PER_SEED``, so a run covers two inputs and repeats input 0,
checking that the same input gives the same artifact.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

import benchutil
from benchutil import log, metric

#: Distinct inputs characterized per seed; run ``i`` uses input ``i mod`` this.
INPUTS_PER_SEED = 2
#: Characterizations per run, at least; more follow while ``--seconds`` lasts.
MIN_CHILDREN = 3
#: Set-up-only children per run, on top of the measured ones' set-ups.
SETUP_PROBES = 4
#: Intervals sampled per benchmark by ``paper-subset`` (the preset samples 100).
PAPER_SUBSET_INTERVALS = 16
#: A child that has not finished after this long counts as failed.
CHILD_TIMEOUT_S = 150.0
#: Most of the traced wall time that may go unattributed.
MAX_UNATTRIBUTED_SHARE = 0.05


def input_seed(workload: str, seed: int, index: int) -> int:
    """The config seed of input ``index`` of ``seed`` (stable across hosts)."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % (2**31)


def make_inputs(workload: str, seed: int, index: int):
    """``(benchmarks, config)`` for one input; imports the program."""
    from repro.config import AnalysisConfig
    from repro.suites import all_benchmarks

    benchmarks = all_benchmarks()
    config = AnalysisConfig.paper().replace(seed=input_seed(workload, seed, index))
    if workload == "paper-subset":
        config = config.replace(intervals_per_benchmark=PAPER_SUBSET_INTERVALS)
    elif workload == "fine-intervals":
        config = config.replace(interval_instructions=500)
    else:
        raise ValueError(f"not a pipeline workload: {workload}")
    return benchmarks, config


def child_main(argv: List[str]) -> int:
    """One characterization; prints ``ready`` then a JSON result line."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--input", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from repro.core import characterize_to_file

    benchmarks, config = make_inputs(args.workload, args.seed, args.input)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer, install_pipeline

        tracer = Tracer()
        install_pipeline(tracer)
    output = Path(args.out) / "characterization.npz"
    start = time.perf_counter()
    characterize_to_file(
        benchmarks,
        config,
        output,
        suite_tag=f"{args.workload}-{args.seed}-{args.input}",
        resume=False,
    )
    wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "wall_s": wall,
        "peak_rss_mb": peak_kb / 1024.0,
        "digest": benchutil.artifact_digest(output),
    }
    if tracer is not None:
        tracer.restore()
        result["trace"] = tracer.snapshot()
    print(json.dumps(result), flush=True)
    return 0


class ChildResult:
    def __init__(self, index: int, setup_s: float, doc: Optional[dict], error: str):
        self.index = index
        self.setup_s = setup_s
        self.doc = doc
        self.error = error


def run_child(
    workload: str, seed: int, index: int, trace: bool = False, setup_only: bool = False
) -> ChildResult:
    """Launch one child and collect its set-up time and result."""
    out = benchutil.WORK_DIR / f"{workload}-{seed}-{index}-{time.time_ns()}"
    out.mkdir(parents=True)
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--input",
        str(index % INPUTS_PER_SEED),
        "--out",
        str(out),
        "--trace",
        "1" if trace else "0",
    ] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=str(benchutil.ROOT),
        env=benchutil.scrub_environment(),
    )
    setup_s = float("nan")
    try:
        first = proc.stdout.readline()
        if first.strip() == "ready":
            setup_s = time.perf_counter() - start
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return ChildResult(index, setup_s, None, "timed out")
    finally:
        benchutil.clean_dir(out)
    if proc.returncode != 0 or setup_s != setup_s:
        tail = (stderr or "").strip().splitlines()[-3:]
        return ChildResult(index, setup_s, None, f"exit {proc.returncode}: {tail}")
    if setup_only:
        return ChildResult(index, setup_s, {}, "")
    try:
        doc = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return ChildResult(index, setup_s, None, "no result line")
    return ChildResult(index, setup_s, doc, "")


def probe_setup(workload: str, seed: int) -> Optional[float]:
    """Set-up time of a child that stops once its inputs are built, or
    None when it failed."""
    res = run_child(workload, seed, 0, setup_only=True)
    return None if res.doc is None else res.setup_s


def check_digests(
    workload: str, seed: int, results: List[ChildResult]
) -> None:
    """Mark a result failed when its digest disagrees.

    A recorded digest for ``<workload>/<seed>/<input>`` is the reference;
    without one, every run of the same input must agree with the first.
    """
    recorded = benchutil.load_digests()
    first: Dict[int, str] = {}
    for res in results:
        if res.doc is None:
            continue
        key = res.index % INPUTS_PER_SEED
        digest = res.doc["digest"]
        expected = recorded.get(f"{workload}/{seed}/{key}", first.get(key))
        if expected is None:
            first[key] = digest
        elif digest != expected:
            res.error = f"artifact digest {digest[:12]} != expected {expected[:12]}"
            res.doc = None


def run(workload: str, seed: int, seconds: float, trace: bool, per_layer) -> dict:
    """Measure a pipeline workload; returns the result-line fields."""
    setups = [] if trace else [probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
    start = time.perf_counter()
    results: List[ChildResult] = []
    while len(results) < MIN_CHILDREN or time.perf_counter() - start < seconds:
        res = run_child(workload, seed, len(results))
        log(
            f"{workload} seed {seed} input {res.index % INPUTS_PER_SEED}: "
            + (f"{res.doc['wall_s']:.3f} s" if res.doc else "failed")
        )
        results.append(res)
    traced = run_child(workload, seed, 0, trace=True) if trace else None
    check_digests(workload, seed, results + ([traced] if traced else []))
    good = [r for r in results if r.doc is not None]
    if not good:
        raise RuntimeError(f"every {workload} run failed: {results[0].error}")
    walls = [r.doc["wall_s"] for r in good]
    if trace:
        metrics = layer_metrics(traced, median(walls), per_layer)
        results.append(traced)
    else:
        measured = [s for s in setups if s is not None] + [r.setup_s for r in good]
        metrics = {
            "wall_s": metric(median(walls), "s"),
            "peak_rss_mb": metric(median(r.doc["peak_rss_mb"] for r in good), "MB"),
            "setup_s": metric(median(measured), "s"),
        }
    for res in results:
        if res.doc is None:
            log(f"{workload} input {res.index}: failed: {res.error}")
    failed = sum(1 for r in results if r.doc is None) + setups.count(None)
    return {
        "attempted": len(results) + len(setups),
        "failed": failed,
        "metrics": metrics,
    }


def layer_metrics(traced: ChildResult, untraced_wall: float, per_layer) -> dict:
    """Per-layer metrics from the traced child; fails its accounting check
    when more than 5% of the traced wall time is unattributed."""
    out = {name: metric(0.0, unit) for name, unit in per_layer}
    if traced.doc is None:
        return out
    snap = traced.doc["trace"]
    wall = traced.doc["wall_s"]
    for name, unit in per_layer:
        if name in snap["self_s"]:
            out[name] = metric(snap["self_s"][name], unit)
        elif name in snap["counts"]:
            out[name] = metric(snap["counts"][name], unit)
    unattributed = wall - sum(snap["self_s"].values())
    out["unattributed_s"] = metric(unattributed, "s")
    out["trace.overhead_s"] = metric(wall - untraced_wall, "s")
    log(f"traced wall {wall:.3f} s, unattributed {unattributed:.4f} s")
    if unattributed > MAX_UNATTRIBUTED_SHARE * wall:
        traced.error = (
            f"unattributed {unattributed:.3f} s exceeds "
            f"{MAX_UNATTRIBUTED_SHARE:.0%} of traced wall {wall:.3f} s"
        )
        traced.doc = None
    return out


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        sys.exit(child_main(sys.argv[2:]))
    sys.exit("usage: run through perfbench/run.py")
