"""Prediction-by-partial-match (PPM) branch predictability meter.

Implements the theoretical PPM predictor of Chen, Coffey and Mudge
("Analysis of branch prediction via data compression", ASPLOS 1996) as
used by MICA: for each dynamic conditional branch, predict using the
longest previously-seen history context, from the maximum history length
down to the empty context; after predicting, update the counters of
every tracked context length.

Four predictor organizations are measured, crossing the history kind
with the table kind:

========  =================  ==================
name      history            prediction table
========  =================  ==================
GAg       global             global
PAg       per-address        global
GAs       global             per-address
PAs       per-address        per-address
========  =================  ==================

For each organization the miss rate is reported for maximum history
lengths 4, 8 and 12.  A single pass per organization produces all three:
the prediction for maximum length L uses the longest matched context of
length <= L.

Two implementations live here.  :func:`measure_ppm_reference` is the
original per-branch table walk — tables update as the stream advances,
so it is sequential Python.  :func:`measure_ppm_kernel` is the
grouped-scan formulation that produces identical output from pure array
operations:

1. Branch ids come from one stable argsort of the PCs (not a hashing
   ``np.unique``), and the 12-bit global and per-address histories are
   built by doubling: four shifted ORs instead of twelve.
2. Every (organization, tracked length, branch) triple becomes one
   *counter event*.  GAg and PAg see the same events at length 0, and
   so do GAs and PAs, so 22 event streams cover the 24 tables.  Each
   stream's contexts get a dense range of integers, and an event's key
   is ``(context, position, outcome)`` packed into one int32 whenever
   it fits, so a single ``np.sort`` orders all events by context and
   then by time.
3. Within each context segment the saturating counter evolves as a
   composition of ±1 updates, each a clamped-affine map
   ``y -> min(C, max(B, y + A))``.  Such maps compose in closed form, so
   a segmented Hillis–Steele scan gives every event its prefix map, and
   the counter it saw is the previous prefix applied to 0.
4. Scattering the counters back to program order gives, per branch, the
   counter each context held when the branch predicted.  The sign of
   the longest non-zero context under each reported maximum is the sign
   of one power-of-two weighted sum of counter signs.

Steps 2-4 take table ids as data, so the fused whole-trace pass
(:mod:`repro.mica.fused`) runs them once for a batch of intervals, with
one set of tables per interval.

:func:`measure_ppm` dispatches to the kernel unless the
``REPRO_REFERENCE_METERS`` environment flag asks for the reference.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

import numpy as np

from ._dispatch import reference_meters_enabled

#: Context lengths tracked per predictor.  A strict PPM tracks every
#: length 0..12; tracking this subset keeps the table state tractable
#: while preserving the short/medium/long history structure that
#: separates workloads.
TRACKED_LENGTHS = (12, 8, 4, 2, 1, 0)

#: Maximum history lengths reported, as in the paper.
REPORTED_LENGTHS = (4, 8, 12)

#: Saturating-counter clamp.
_COUNTER_MAX = 4

_HISTORY_BITS = 12

_ORGANIZATIONS = ("gag", "pag", "gas", "pas")


def global_histories(outcomes: np.ndarray) -> np.ndarray:
    """Vectorized 12-bit global history before each branch.

    Bit ``k`` of ``history[i]`` is the outcome of branch ``i - 1 - k``.
    """
    n = len(outcomes)
    hist = np.zeros(n, dtype=np.int64)
    bits = outcomes.astype(np.int64)
    for k in range(_HISTORY_BITS):
        # outcome of branch i-1-k contributes bit k
        if k + 1 >= n:
            break
        hist[k + 1 :] |= bits[: n - k - 1] << k
    return hist


def local_histories(pc_ids: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
    """Vectorized 12-bit per-address history before each branch.

    Same encoding as :func:`global_histories`, but only outcomes of the
    same static branch (same ``pc_id``) participate.
    """
    n = len(outcomes)
    order = np.argsort(pc_ids, kind="stable")
    sorted_ids = pc_ids[order]
    sorted_bits = outcomes[order].astype(np.int64)
    hist_sorted = np.zeros(n, dtype=np.int64)
    for k in range(_HISTORY_BITS):
        if k + 1 >= n:
            break
        same = sorted_ids[k + 1 :] == sorted_ids[: n - k - 1]
        contrib = np.where(same, sorted_bits[: n - k - 1] << k, 0)
        hist_sorted[k + 1 :] |= contrib
    hist = np.empty(n, dtype=np.int64)
    hist[order] = hist_sorted
    return hist


def _run_ppm(
    pc_ids: np.ndarray,
    outcomes: np.ndarray,
    histories: np.ndarray,
    *,
    per_address_table: bool,
) -> Dict[int, float]:
    """One reference PPM pass; returns miss rate per reported max length."""
    n = len(outcomes)
    if n == 0:
        return {length: 0.0 for length in REPORTED_LENGTHS}
    table: Dict[int, int] = {}
    misses = {length: 0 for length in REPORTED_LENGTHS}
    lengths = TRACKED_LENGTHS
    masks = [(1 << length) - 1 for length in lengths]
    pc_list = pc_ids.tolist() if per_address_table else None
    out_list = outcomes.tolist()
    hist_list = histories.tolist()
    reported = REPORTED_LENGTHS
    for i in range(n):
        taken = out_list[i]
        hist = hist_list[i]
        addr_part = (pc_list[i] << 20) if per_address_table else 0
        # Predict: longest matched context wins; record the first match
        # whose length fits under each reported maximum.
        preds = {}
        keys = []
        for j, length in enumerate(lengths):
            key = addr_part | (length << 14) | (hist & masks[j])
            keys.append(key)
            counter = table.get(key)
            if counter is not None and counter != 0:
                pred = counter > 0
                for maxlen in reported:
                    if length <= maxlen and maxlen not in preds:
                        preds[maxlen] = pred
                if len(preds) == len(reported):
                    # Remaining (shorter) contexts only matter for update.
                    for jj in range(j + 1, len(lengths)):
                        keys.append(addr_part | (lengths[jj] << 14) | (hist & masks[jj]))
                    break
        for maxlen in reported:
            if preds.get(maxlen, False) != taken:
                misses[maxlen] += 1
        # Update all tracked context lengths.
        delta = 1 if taken else -1
        for key in keys:
            counter = table.get(key, 0) + delta
            if counter > _COUNTER_MAX:
                counter = _COUNTER_MAX
            elif counter < -_COUNTER_MAX:
                counter = -_COUNTER_MAX
            table[key] = counter
    return {length: misses[length] / n for length in reported}


def _empty_result() -> Dict[str, float]:
    out: Dict[str, float] = {}
    for kind in _ORGANIZATIONS:
        for length in REPORTED_LENGTHS:
            out[f"ppm_{kind}_h{length}"] = 0.0
    return out


def measure_ppm_reference(pcs: np.ndarray, outcomes: np.ndarray) -> Dict[str, float]:
    """Reference PPM meter: the original sequential table walk."""
    if len(pcs) != len(outcomes):
        raise ValueError("pcs and outcomes must have equal length")
    if len(pcs) == 0:
        return _empty_result()
    _, pc_ids = np.unique(pcs, return_inverse=True)
    g_hist = global_histories(outcomes)
    l_hist = local_histories(pc_ids, outcomes)
    configs = (
        ("gag", g_hist, False),
        ("pag", l_hist, False),
        ("gas", g_hist, True),
        ("pas", l_hist, True),
    )
    out: Dict[str, float] = {}
    for kind, hist, per_addr in configs:
        rates = _run_ppm(pc_ids, outcomes, hist, per_address_table=per_addr)
        for length, rate in rates.items():
            out[f"ppm_{kind}_h{length}"] = rate
    return out


def _doubling_histories(bits: np.ndarray) -> np.ndarray:
    """12-bit history before each position of ``bits``, as int32.

    ``h[i]`` starts as the single bit ``bits[i - 1]``; each step ORs in
    the history ``width`` positions back, shifted up ``width`` bits, so
    the bits covered double: 1, 2, 4, 8, then the last 4 of 12.
    """
    n = len(bits)
    hist = np.zeros(n, dtype=np.int32)
    hist[1:] = bits[:-1]
    width = 1
    while width < _HISTORY_BITS and width < n:
        step = min(width, _HISTORY_BITS - width)
        part = hist[: n - width] << width
        if step < width:
            part &= ((1 << step) - 1) << width
        hist[width:] |= part
        width += step
    return hist


def _stable_groups(ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group equal ids, keeping program order within a group.

    Returns the stable sort ``order``, a mask of group starts in sorted
    order, and each sorted element's rank within its group.
    """
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    starts = np.empty(len(ids), dtype=bool)
    starts[0] = True
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=starts[1:])
    return order, starts, _group_rank(starts)


def _group_rank(starts: np.ndarray) -> np.ndarray:
    """Each element's rank within its group, from the group-start mask."""
    idx = np.arange(len(starts))
    return idx - np.maximum.accumulate(idx * starts)


def _grouped_histories(bits: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """12-bit histories of ``bits`` laid out group by group: only the
    ``rank[i]`` earlier bits of element ``i``'s group may contribute."""
    hist = _doubling_histories(bits)
    hist &= (1 << np.minimum(rank, _HISTORY_BITS)) - 1
    return hist


_N_LENGTHS = len(TRACKED_LENGTHS)
#: Event streams per organization: the per-address-history ones (odd)
#: skip length 0, whose tables see exactly the events of their
#: global-history twin.
_ORG_STREAMS = [_N_LENGTHS - (org & 1) for org in range(4)]
_ORG_ROWS = [slice(sum(_ORG_STREAMS[:org]), sum(_ORG_STREAMS[: org + 1])) for org in range(4)]
#: (organization, tracked-length index) of every event stream.
_STREAMS = [(org, j) for org in range(4) for j in range(_ORG_STREAMS[org])]
_STREAM_ROW = np.array([org * _N_LENGTHS + j for org, j in _STREAMS])
_STREAM_LENGTH = np.array([TRACKED_LENGTHS[j] for _, j in _STREAMS])
_STREAM_PER_ADDRESS = np.array([org >= 2 for org, _ in _STREAMS])
#: One row per reported maximum: tracked lengths under it are weighted
#: by powers of two, each outweighing all shorter lengths together, so
#: the sign of the weighted sum of counter signs is the sign of the
#: longest non-zero counter.
_PREFER = np.array(
    [
        [1 << (_N_LENGTHS - 1 - j) if TRACKED_LENGTHS[j] <= maxlen else 0 for j in range(_N_LENGTHS)]
        for maxlen in REPORTED_LENGTHS
    ],
    dtype=np.int8,
)


def _counters_before(events: np.ndarray, low: int) -> np.ndarray:
    """Counter before each event of a sorted event array.

    ``events`` are sorted keys whose bits from ``low`` up name the
    context and whose bit 0 is the outcome.  Returns int8 counters in
    the same order, each context starting from 0.
    """
    m = len(events)
    context = events >> low
    starts = np.empty(m, dtype=bool)
    starts[0] = True
    np.not_equal(context[1:], context[:-1], out=starts[1:])
    idx = np.arange(m, dtype=np.int32)
    seg_first = np.maximum.accumulate(np.where(starts, idx, np.int32(0)))
    longest_segment = int((idx - seg_first).max()) + 1
    # A run of updates acts on a counter as y -> min(C, max(B, y + A));
    # composing the map of events (i-shift, i] after the map ending at
    # i-shift doubles the window, Hillis-Steele style.  A window of w
    # events keeps |A|, |B| and |C| within COUNTER_MAX + w, so int16
    # triples hold every segment shorter than ~32k events.
    dtype = np.int16 if longest_segment + _COUNTER_MAX < 2**15 else np.int32
    A = (events & 1).astype(dtype)
    A *= 2
    A -= 1
    B = np.full(m, -_COUNTER_MAX, dtype=dtype)
    C = np.full(m, _COUNTER_MAX, dtype=dtype)
    tmp_a = np.empty(m, dtype=dtype)
    tmp_b = np.empty(m, dtype=dtype)
    tmp_c = np.empty(m, dtype=dtype)
    in_segment = np.empty(m, dtype=bool)
    shift = 1
    while shift < longest_segment:
        left_a, left_b, left_c = A[:-shift], B[:-shift], C[:-shift]
        right_a, right_b, right_c = A[shift:], B[shift:], C[shift:]
        ok = in_segment[shift:]
        np.less_equal(seg_first[shift:], idx[:-shift], out=ok)
        new_a, new_b, new_c = tmp_a[shift:], tmp_b[shift:], tmp_c[shift:]
        np.add(left_a, right_a, out=new_a)
        np.add(left_b, right_a, out=new_b)
        np.maximum(new_b, right_b, out=new_b)
        np.add(left_c, right_a, out=new_c)
        np.maximum(new_c, right_b, out=new_c)
        np.minimum(new_c, right_c, out=new_c)
        np.copyto(right_a, new_a, where=ok)
        np.copyto(right_b, new_b, where=ok)
        np.copyto(right_c, new_c, where=ok)
        shift <<= 1
    # Counter after event i (from the fresh-table state 0) is the prefix
    # map applied to 0: min(C, max(B, A)); the counter before it is the
    # one after the previous event of its context.
    np.maximum(B, A, out=A)
    np.minimum(A, C, out=A)
    before = np.empty(m, dtype=np.int8)
    before[0] = 0
    before[1:] = A[:-1]
    before[starts] = 0
    return before


def _mispredictions(
    outcomes: np.ndarray,
    g_hist: np.ndarray,
    l_hist: np.ndarray,
    tables: Union[np.ndarray, int],
    n_tables: int,
    pc_tables: np.ndarray,
    n_pc_tables: int,
) -> Optional[np.ndarray]:
    """Which branches each organization mispredicts, per reported maximum.

    ``g_hist`` and ``l_hist`` are the global and per-address histories
    before each branch.  The global-table organizations (GAg, PAg) pick
    a table by ``tables`` (ids below ``n_tables``), the per-address ones
    (GAs, PAs) by ``pc_tables`` (below ``n_pc_tables``); every table
    starts empty.  One stream can so carry many independent predictors:
    the fused pass meters every interval of a batch in one call.

    Returns a bool array of shape (4 organizations, 3 reported maxima,
    n), or None when the packed event keys would not fit an int64.
    """
    n = len(outcomes)
    # -- event keys: stream context | position | outcome ----------------
    contexts = np.where(_STREAM_PER_ADDRESS, n_pc_tables, n_tables) << _STREAM_LENGTH
    low = max(1, int(n - 1).bit_length()) + 1
    width = int(contexts.sum() - 1).bit_length() + low
    if width > 63:
        return None
    dtype = np.int32 if width <= 31 else np.int64
    lengths = np.array(TRACKED_LENGTHS, dtype=dtype)[:, None]
    masks = ((dtype(1) << lengths) - 1) << low
    g_part = (g_hist.astype(dtype) << low) & masks
    l_part = (l_hist.astype(dtype) << low) & masks
    table_part = np.asarray(tables, dtype=dtype) << (lengths + low)
    pc_part = np.asarray(pc_tables, dtype=dtype) << (lengths + low)
    stream_base = (np.cumsum(contexts) - contexts).astype(dtype) << low
    keys = stream_base[:, None] + ((np.arange(n, dtype=dtype) << 1) | outcomes)
    gag, pag, gas, pas = (keys[rows] for rows in _ORG_ROWS)
    gag += g_part
    gag += table_part
    pag += l_part[:-1]
    pag += table_part[:-1]
    gas += g_part
    gas += pc_part
    pas += l_part[:-1]
    pas += pc_part[:-1]
    events = keys.reshape(-1)
    events.sort()
    counters = _counters_before(events, low)

    # -- counters back in program order --------------------------------
    # Stream bases ascend, so sorted events come stream by stream, n each.
    dest = events >> 1
    dest &= (1 << (low - 1)) - 1
    dest = dest.astype(np.intp)
    dest.reshape(-1, n)[...] += (_STREAM_ROW * n)[:, None]
    before = np.empty((4, _N_LENGTHS, n), dtype=np.int8)
    before.reshape(-1)[dest] = counters
    before[1, -1] = before[0, -1]
    before[3, -1] = before[2, -1]

    # No seen context (counter 0) predicts not-taken, as the reference's
    # preds.get(maxlen, False) default does.
    votes = np.matmul(_PREFER, np.sign(before))
    return (votes > 0) != outcomes


def measure_ppm_kernel(pcs: np.ndarray, outcomes: np.ndarray) -> Dict[str, float]:
    """Grouped-scan PPM meter; bit-identical to the reference walk."""
    if len(pcs) != len(outcomes):
        raise ValueError("pcs and outcomes must have equal length")
    n = len(pcs)
    if n == 0:
        return _empty_result()
    order, new_pc, rank = _stable_groups(pcs)
    pc_sorted = np.cumsum(new_pc) - 1
    pc_ids = np.empty(n, dtype=np.intp)
    pc_ids[order] = pc_sorted
    l_hist = np.empty(n, dtype=np.int32)
    l_hist[order] = _grouped_histories(outcomes[order], rank)
    wrong = _mispredictions(
        outcomes, _doubling_histories(outcomes), l_hist, 0, 1, pc_ids, int(pc_sorted[-1]) + 1
    )
    if wrong is None:  # pragma: no cover - needs n ~ 2**24
        return measure_ppm_reference(pcs, outcomes)
    misses = np.count_nonzero(wrong, axis=2)
    out: Dict[str, float] = {}
    for k, maxlen in enumerate(REPORTED_LENGTHS):
        for org, kind in enumerate(_ORGANIZATIONS):
            out[f"ppm_{kind}_h{maxlen}"] = int(misses[org, k]) / n
    return out


def measure_ppm(pcs: np.ndarray, outcomes: np.ndarray) -> Dict[str, float]:
    """PPM miss rates for the 4 organizations x 3 max history lengths.

    Args:
        pcs: static branch addresses of the sampled conditional branches,
            in program order.
        outcomes: their taken/not-taken outcomes.

    Returns:
        12 features named ``ppm_{gag,pag,gas,pas}_h{4,8,12}``.
    """
    if reference_meters_enabled():
        return measure_ppm_reference(pcs, outcomes)
    return measure_ppm_kernel(pcs, outcomes)
