"""Helpers shared by the benchmark's workloads: paths, child environment,
artifact digests and the environment record."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional

#: The checkout the benchmark runs in: the directory holding ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Scratch space for artifacts and service state; removed after each run.
WORK_DIR = ROOT / ".perfbench_work"

#: Variables that switch the program onto a non-default path or pin
#: BLAS threads.  The program under test runs without them, so the
#: benchmark measures what a user gets (the OpenBLAS thread-pool
#: start-up stall included).
SCRUBBED_ENV = (
    "REPRO_PER_INTERVAL_METERS",
    "REPRO_REFERENCE_METERS",
    "REPRO_REFERENCE_KMEANS",
    "REPRO_HISTORY_DIR",
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
)


def scrub_environment(env: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """A copy of ``env`` (default: this process's) without the scrubbed
    variables, with ``src/`` first on ``PYTHONPATH``."""
    out = dict(os.environ if env is None else env)
    for name in SCRUBBED_ENV:
        out.pop(name, None)
    out["PYTHONPATH"] = str(SRC)
    return out


def have_program() -> bool:
    """Whether the checkout holds the program's sources."""
    return (SRC / "repro" / "__init__.py").is_file()


def artifact_digest(path: os.PathLike) -> str:
    """SHA-256 over every payload array of a saved ``.npz`` artifact.

    Arrays are hashed in name order with their dtype and shape; the
    ``__artifact__`` header is skipped because it is metadata, not
    results.
    """
    import numpy as np

    digest = hashlib.sha256()
    with np.load(path, allow_pickle=False) as data:
        for name in sorted(data.files):
            if name.startswith("__"):
                continue
            arr = np.ascontiguousarray(data[name])
            digest.update(name.encode())
            digest.update(str(arr.dtype).encode())
            digest.update(repr(arr.shape).encode())
            digest.update(arr.tobytes())
    return digest.hexdigest()


def load_digests() -> Dict[str, str]:
    """Recorded artifact digests, keyed ``<workload>/<seed>/<input>``."""
    path = BENCH_DIR / "digests.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


def _blas_info() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict mode
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment_record() -> Dict[str, object]:
    """What the numbers were measured on, printed with every result."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "git_sha": _git_sha(),
        "scrubbed_env": list(SCRUBBED_ENV),
    }


def log(message: str) -> None:
    """Progress goes to stderr; stdout ends with the result line."""
    print(message, file=sys.stderr, flush=True)


def result_line(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, Dict[str, object]]
) -> str:
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        }
    )


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def read_vm_hwm_mb(pid: int) -> Optional[float]:
    """Peak resident set of a live process, from ``/proc`` (Linux)."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return None


def clean_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
