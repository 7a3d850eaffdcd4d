"""Benchmark drift across suite generations.

The paper's related work highlights "the exigency of benchmark and
compiler drift" (Yi et al., ICS 2006): designing tomorrow's processors
with yesterday's benchmarks risks mis-steering.  With CPU2000 and
CPU2006 in one workload space, drift is directly measurable: how far
did each same-named benchmark (bzip2, gcc, mcf, perl) move between
generations, and how much did the suites' occupied regions shift?
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from ..core import PhaseCharacterization

#: Same-workload pairs across the two SPEC generations.
GENERATION_PAIRS: Tuple[Tuple[Tuple[str, str], Tuple[str, str]], ...] = (
    (("SPECint2000", "bzip2"), ("SPECint2006", "bzip2")),
    (("SPECint2000", "gcc"), ("SPECint2006", "gcc")),
    (("SPECint2000", "mcf"), ("SPECint2006", "mcf")),
    (("SPECint2000", "perlbmk"), ("SPECint2006", "perlbench")),
)


def benchmark_centroid(
    result: PhaseCharacterization, suite: str, name: str
) -> np.ndarray:
    """A benchmark's centroid in the rescaled PCA space."""
    mask = result.dataset.rows_for_benchmark(suite, name)
    if not mask.any():
        raise KeyError(f"benchmark {suite}/{name} not in the dataset")
    return result.space[mask].mean(axis=0)


def benchmark_drift(
    result: PhaseCharacterization,
    old: Tuple[str, str],
    new: Tuple[str, str],
) -> float:
    """Centroid distance between two benchmarks (generation drift)."""
    return float(
        np.linalg.norm(
            benchmark_centroid(result, *new) - benchmark_centroid(result, *old)
        )
    )


def generation_drift(
    result: PhaseCharacterization,
    pairs: Sequence[Tuple[Tuple[str, str], Tuple[str, str]]] = GENERATION_PAIRS,
) -> Dict[str, float]:
    """Drift of every same-workload pair, keyed by the new-side name."""
    return {
        f"{new[0]}/{new[1]}": benchmark_drift(result, old, new)
        for old, new in pairs
    }


def typical_benchmark_distance(
    result: PhaseCharacterization, *, suites: Sequence[str], seed: int = 0, samples: int = 200
) -> float:
    """Median centroid distance between random benchmark pairs.

    The yardstick drift is compared against: a drift close to this
    value means the successor is effectively a *different* workload.
    """
    dataset = result.dataset
    keys = sorted(
        {
            (str(s), str(b))
            for s, b in zip(dataset.suites, dataset.benchmarks)
            if str(s) in set(suites)
        }
    )
    if len(keys) < 2:
        raise ValueError("need at least two benchmarks")
    centroids = {k: benchmark_centroid(result, *k) for k in keys}
    rng = np.random.default_rng(seed)
    distances = []
    for _ in range(samples):
        i, j = rng.choice(len(keys), size=2, replace=False)
        distances.append(
            float(np.linalg.norm(centroids[keys[i]] - centroids[keys[j]]))
        )
    return float(np.median(distances))
