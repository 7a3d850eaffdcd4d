"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the root of a checkout and prints, as the last
line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` a separate traced run adds timing wrappers from this
directory and reports the per-layer metrics.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import benchutil

# The program under test and the in-process stand-in worker both run
# without the variables that select non-default paths; drop them before
# numpy (and its BLAS) is first imported.
for _name in benchutil.SCRUBBED_ENV:
    os.environ.pop(_name, None)

WORKLOADS = ("paper-subset", "fine-intervals", "service-queue")


def load_contract():
    path = benchutil.ROOT / "BENCHMARK.json"
    doc = json.loads(path.read_text())
    end_to_end = [(m["name"], m["unit"]) for m in doc["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in doc["per_layer"]]
    return end_to_end, per_layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not benchutil.have_program():
        print(f"no program sources under {benchutil.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(benchutil.SRC))
    end_to_end, per_layer = load_contract()
    env = benchutil.environment_record()
    print("environment " + json.dumps(env, sort_keys=True), flush=True)

    benchutil.WORK_DIR.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "service-queue":
            import service_runs

            fields = service_runs.run(args.seed, args.seconds, bool(args.trace), per_layer)
        else:
            import pipeline_runs

            fields = pipeline_runs.run(
                args.workload, args.seed, args.seconds, bool(args.trace), per_layer
            )
    finally:
        benchutil.clean_dir(benchutil.WORK_DIR)

    expected = per_layer if args.trace else end_to_end
    metrics = fields["metrics"]
    for name, unit in expected:
        if name not in metrics:
            raise RuntimeError(f"workload {args.workload} did not measure {name}")
        metrics[name]["unit"] = unit
    metrics = {name: metrics[name] for name, _ in expected}
    print(
        benchutil.result_line(
            fields["failed"] == 0, fields["attempted"], fields["failed"], metrics
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
