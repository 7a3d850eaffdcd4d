"""Shared per-interval trace facts: the :class:`IntervalProfile`.

Several MICA meters need the same derived views of a trace interval —
the memory-operation mask, the conditional-branch stream, the per-kind
load/store address streams, and the register producer of every source
operand.  Before this module existed each meter re-derived its views
from the raw :class:`~repro.isa.Trace`; the ILP and register-traffic
meters even ran the *same* read-to-write matching twice per interval.

:func:`IntervalProfile.from_trace` computes every shared fact exactly
once; :func:`~repro.mica.meter.characterize_interval` threads the
profile through all six meters.  Every meter still accepts a bare trace
(``profile=None``) and derives its own views, so direct calls and unit
tests need no ceremony.

The producer matching here is one sort of tagged register events.
Every source operand (tag 0 for src1, 1 for src2) and every write (tag
2) becomes the integer ``(register, position, tag)``, and the events are
sorted once.  Within a register the order is program order, and a read
sorts before a write at the same position, so an instruction never sees
its own write.  Each read's producer is then the latest write at or
before it in that order: a forward fill of the write keys, done as a
running maximum because the keys ascend.  One virtual write per
register at position -1 heads every register's run, so the fill never
crosses into another register and a read with no earlier write
resolves to -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..isa import NO_REG, N_OP_CLASSES, N_REGISTERS, OpClass, Trace, is_memory_op


#: Bits of an event key above the position: 6 for the register (the
#: sign bit of ``NO_REG`` is what makes absent operands sort first) and
#: 2 below it for the slot tag.
_REGISTER_BITS = 6
_TAG_BITS = 2
_WRITE_TAG = 2


def _key_dtype(position_bits: int) -> type:
    """The narrowest key type holding ``(register, position, tag)``.

    The comparison order does not depend on the dtype, so keys stay
    int32 (half the bytes to sort) while they fit in 31 bits.
    """
    if position_bits + _REGISTER_BITS + _TAG_BITS <= 31:
        return np.int32
    return np.int64


def match_producers(trace: Trace) -> Tuple[np.ndarray, np.ndarray]:
    """For each instruction, the trace index that produced each source.

    Returns two int64 arrays ``(p1, p2)`` parallel to the trace; entry
    ``-1`` means the source operand is absent or its producing write
    precedes the interval.  Equivalent to one ``searchsorted`` per
    architectural register over that register's write positions.

    Producers of instruction ``i`` always satisfy ``p < i``, so the
    arrays for any prefix ``trace[:m]`` are exactly ``p1[:m], p2[:m]``
    — which is what lets one full-interval matching serve both the
    register-traffic meter (whole interval) and the ILP meter (leading
    subsample).
    """
    n = len(trace)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    # Positions are stored +1 so that 0 is free for the virtual writes.
    position_bits = int(n).bit_length()
    key_dtype = _key_dtype(position_bits)
    reg_shift = position_bits + _TAG_BITS
    keys = np.empty(3 * n + N_REGISTERS, dtype=key_dtype)
    operands = keys[: 3 * n].reshape(3, n)
    operands[0] = trace.src1
    operands[1] = trace.src2
    operands[2] = trace.dst
    operands <<= reg_shift
    step = 1 << _TAG_BITS
    operands |= np.arange(step, (n + 1) * step, step, dtype=key_dtype)
    operands[1] |= 1
    operands[2] |= _WRITE_TAG
    keys[3 * n :] = (np.arange(N_REGISTERS, dtype=key_dtype) << reg_shift) | _WRITE_TAG
    keys.sort()
    # Keys ascend, so a running maximum over the write keys (0 at the
    # reads: tag bit 1 is set only on writes) is the latest write at or
    # before each event.  Absent operands (NO_REG) have negative keys
    # and sort first; their writes never lift the maximum above 0, so
    # their reads resolve to -1 too.
    latest = keys & _WRITE_TAG
    latest >>= 1
    latest *= keys
    np.maximum.accumulate(latest, out=latest)
    latest >>= _TAG_BITS
    latest &= (1 << position_bits) - 1
    latest -= 1
    # Scatter by the key's low bits, (position + 1, tag): slot 4 * (i + 1)
    # holds instruction i's src1 producer and the next slot its src2's.
    # Every such slot is written, since every instruction has both
    # source events, so the array needs no fill.
    slots = np.empty((n + 1) * step, dtype=key_dtype)
    slots[(keys & ((1 << reg_shift) - 1)).astype(np.intp)] = latest
    return slots[step::step].astype(np.int64), slots[step + 1 :: step].astype(np.int64)


@dataclass(frozen=True)
class IntervalProfile:
    """Derived views of one trace interval, computed once, shared by meters.

    Attributes:
        n: interval length in instructions.
        op_counts: dynamic count per opcode class (``N_OP_CLASSES``,).
        mem_addrs: effective addresses of the memory operations, in
            program order.
        load_addrs / load_pcs: address and PC streams of the loads.
        store_addrs / store_pcs: address and PC streams of the stores.
        branch_pcs / branch_taken: PC and outcome streams of the
            conditional branches.
        producers: ``(p1, p2)`` full-interval producer indices from
            :func:`match_producers`.
        n_register_reads: source operands naming a register.
        n_register_writes: instructions writing a register.
    """

    n: int
    op_counts: np.ndarray
    mem_addrs: np.ndarray
    load_addrs: np.ndarray
    load_pcs: np.ndarray
    store_addrs: np.ndarray
    store_pcs: np.ndarray
    branch_pcs: np.ndarray
    branch_taken: np.ndarray
    producers: Tuple[np.ndarray, np.ndarray]
    n_register_reads: int
    n_register_writes: int

    @classmethod
    def from_trace(cls, trace: Trace) -> "IntervalProfile":
        """Compute the shared facts for one interval."""
        n = len(trace)
        if n == 0:
            raise ValueError("cannot profile an empty trace")
        op = trace.op
        op_counts = np.bincount(op, minlength=N_OP_CLASSES)
        load_mask = op == OpClass.LOAD
        store_mask = op == OpClass.STORE
        branch_mask = op == OpClass.BRANCH
        mem_mask = is_memory_op(op)
        n_register_reads = int(np.count_nonzero(trace.src1 != NO_REG)) + int(
            np.count_nonzero(trace.src2 != NO_REG)
        )
        n_register_writes = int(np.count_nonzero(trace.dst != NO_REG))
        return cls(
            n=n,
            op_counts=op_counts,
            mem_addrs=trace.addr[mem_mask],
            load_addrs=trace.addr[load_mask],
            load_pcs=trace.pc[load_mask],
            store_addrs=trace.addr[store_mask],
            store_pcs=trace.pc[store_mask],
            branch_pcs=trace.pc[branch_mask],
            branch_taken=trace.taken[branch_mask],
            producers=match_producers(trace),
            n_register_reads=n_register_reads,
            n_register_writes=n_register_writes,
        )
