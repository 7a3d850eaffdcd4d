"""Synthetic programs: named, seeded, phase-scheduled trace sources.

A :class:`SyntheticProgram` stands in for one benchmark binary + input:
it owns a phase schedule, a nominal dynamic length (expressed in
intervals, the Table 3 analog), and a deterministic seed.  Intervals are
generated on demand and independently — interval ``i`` always produces
the same trace regardless of which other intervals were generated.
"""

from __future__ import annotations

from typing import List

from ..isa import Trace, concat
from .phases import PhaseSchedule
from .rng import generator


class SyntheticProgram:
    """One benchmark workload: a seeded phase schedule of kernels.

    Args:
        name: benchmark name (e.g. ``"astar"``).
        schedule: the program's phase structure.
        n_intervals: nominal dynamic length in intervals; the Table 3
            analog.  Interval indices range over ``[0, n_intervals)``.
        seed: the program's root seed; every interval derives its own
            random stream from ``(seed, interval_index)``.
    """

    def __init__(
        self,
        name: str,
        schedule: PhaseSchedule,
        *,
        n_intervals: int,
        seed: int,
    ) -> None:
        if n_intervals < 1:
            raise ValueError("n_intervals must be >= 1")
        self.name = name
        self.schedule = schedule
        self.n_intervals = n_intervals
        self.seed = seed

    def __repr__(self) -> str:
        return (
            f"SyntheticProgram({self.name!r}, phases={len(self.schedule)}, "
            f"intervals={self.n_intervals})"
        )

    def interval_trace(self, index: int, interval_instructions: int) -> Trace:
        """Generate the trace of interval ``index``.

        Intervals that straddle a phase boundary receive instructions
        from each overlapped phase in order, exactly like a real trace
        sliced at fixed instruction counts.
        """
        if not 0 <= index < self.n_intervals:
            raise ValueError(
                f"interval index {index} out of range [0, {self.n_intervals})"
            )
        if interval_instructions <= 0:
            raise ValueError("interval_instructions must be positive")
        total = self.n_intervals * interval_instructions
        start = index * interval_instructions
        stop = start + interval_instructions
        pieces: List[Trace] = []
        for seg_index, (lo, hi, kernel) in enumerate(
            self.schedule.overlapping(total, start, stop)
        ):
            rng = generator(self.seed, "interval", index, seg_index)
            pieces.append(kernel.generate(hi - lo, rng))
        trace = concat(pieces)
        if len(trace) != interval_instructions:
            raise AssertionError(
                f"generated {len(trace)} instructions, expected {interval_instructions}"
            )
        return trace
