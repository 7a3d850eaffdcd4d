"""Record reference artifact digests for the pipeline workloads.

    python3 perfbench/record_digests.py FIRST_SEED LAST_SEED

Characterizes every input of every seed in the range (inclusive) in
this process and merges the digests into ``digests.json``.  The
benchmark then fails any run whose artifact differs from the recorded
one, so re-record only when a change is meant to alter results.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import benchutil

for _name in benchutil.SCRUBBED_ENV:
    os.environ.pop(_name, None)
sys.path.insert(0, str(benchutil.SRC))

import pipeline_runs  # noqa: E402

WORKLOADS = ("paper-subset", "fine-intervals")


def main(argv) -> int:
    first, last = int(argv[0]), int(argv[1])
    from repro.core import characterize_to_file

    path = benchutil.BENCH_DIR / "digests.json"
    digests = benchutil.load_digests()
    for workload in WORKLOADS:
        for seed in range(first, last + 1):
            for index in range(pipeline_runs.INPUTS_PER_SEED):
                benchmarks, config = pipeline_runs.make_inputs(workload, seed, index)
                benchutil.WORK_DIR.mkdir(exist_ok=True)
                with tempfile.TemporaryDirectory(dir=benchutil.WORK_DIR) as tmp:
                    output = Path(tmp) / "characterization.npz"
                    characterize_to_file(benchmarks, config, output, resume=False)
                    digest = benchutil.artifact_digest(output)
                key = f"{workload}/{seed}/{index}"
                if digests.get(key, digest) != digest:
                    raise SystemExit(f"{key}: digest changed from the recorded one")
                digests[key] = digest
                benchutil.log(f"{key} {digest}")
                path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    benchutil.clean_dir(benchutil.WORK_DIR)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
