"""Memory-footprint meter.

Counts the unique 64-byte blocks and 4KB pages touched by the
instruction stream (PCs) and the data stream (effective addresses).
Reported as ``log2(1 + count)``: footprints span orders of magnitude,
and a log scale keeps the subsequent normalize/PCA steps from being
dominated by the largest-footprint intervals.

Each stream is sorted once and both granularities are counted from that
one sorted array: ``v >> 6`` and ``v >> 12`` stay non-decreasing, so the
distinct blocks (pages) are one plus the number of places where the
shifted value changes.  A bare ``np.unique`` is avoided on purpose: from
numpy 2.3 it counts through a hash table, which costs ~20x a sort for
the few dozen distinct PCs of a 10k-instruction interval.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from ..isa import Trace, is_memory_op
from .profile import IntervalProfile

BLOCK_SHIFT = 6  # 64-byte blocks
PAGE_SHIFT = 12  # 4KB pages


def _log_distinct_sorted(addresses: np.ndarray, shift: int) -> float:
    """``log2(1 + |distinct address >> shift|)`` of a sorted stream."""
    if len(addresses) == 0:
        return 0.0
    units = addresses >> shift
    count = 1 + int(np.count_nonzero(units[1:] != units[:-1]))
    return math.log2(1 + count)


def measure_footprint(
    trace: Trace, *, profile: Optional[IntervalProfile] = None
) -> Dict[str, float]:
    """Return the 4 memory-footprint features for a trace interval."""
    if len(trace) == 0:
        raise ValueError("cannot characterize an empty trace")
    data_addr = profile.mem_addrs if profile is not None else trace.addr[is_memory_op(trace.op)]
    pcs = np.sort(trace.pc)
    data = np.sort(data_addr)
    return {
        "foot_instr_64b": _log_distinct_sorted(pcs, BLOCK_SHIFT),
        "foot_instr_4k": _log_distinct_sorted(pcs, PAGE_SHIFT),
        "foot_data_64b": _log_distinct_sorted(data, BLOCK_SHIFT),
        "foot_data_4k": _log_distinct_sorted(data, PAGE_SHIFT),
    }
