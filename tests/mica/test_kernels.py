"""Kernel/reference equivalence for the vectorized MICA meters.

The grouped-scan PPM kernel and the fused ILP depth kernel must be
*bit-identical* to the retained sequential reference implementations on
arbitrary traces — that is the contract that keeps the kernel choice out
of every cache key.  Hypothesis drives randomized traces through both
paths; a few directed cases pin the edge conditions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import NO_REG, N_REGISTERS, OpClass
from repro.mica import profile as profile_module
from repro.mica import (
    REFERENCE_METERS_ENV,
    IntervalProfile,
    match_producers,
    measure_ilp,
    measure_ilp_kernel,
    measure_ilp_reference,
    measure_ppm,
    measure_ppm_kernel,
    measure_ppm_reference,
    producer_indices_reference,
)
from repro.mica.ppm import (
    _doubling_histories,
    _group_rank,
    _grouped_histories,
    _stable_groups,
    global_histories,
    local_histories,
)
from tests.conftest import make_trace
from tests.mica.test_properties import random_traces

SETTINGS = dict(max_examples=25, deadline=None)


@st.composite
def branch_streams(draw, max_len=1000, max_static=20, min_len=0):
    """A correlated (pcs, outcomes) conditional-branch stream.

    A small static-branch pool with per-branch bias produces the history
    collisions and mixed-counter states that exercise every PPM path.
    The defaults match the paper preset (``ppm_sample_branches`` = 1000
    branches over up to ~20 static branches), whose equal-context
    segments run hundreds of events deep.
    """
    n = draw(st.integers(min_len, max_len))
    n_static = draw(st.integers(1, max_static))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    pcs = rng.integers(0, n_static, n).astype(np.int64) * 4 + 0x1000
    bias = rng.random(n_static)
    outcomes = rng.random(n) < bias[(pcs - 0x1000) // 4]
    return pcs, outcomes


@settings(**SETTINGS)
@given(branch_streams())
def test_ppm_kernel_matches_reference(stream):
    pcs, outcomes = stream
    ref = measure_ppm_reference(pcs, outcomes)
    new = measure_ppm_kernel(pcs, outcomes)
    assert set(ref) == set(new)
    for name in ref:
        assert ref[name] == new[name], name


@pytest.mark.parametrize("bias", [0.0, 0.5, 0.97, 1.0])
def test_ppm_deepest_segments(bias):
    # One static branch over the full paper sample: the length-0 context
    # is a single 1000-event segment, the deepest scan the kernel meets.
    rng = np.random.default_rng(7)
    pcs = np.full(1000, 0x4000, dtype=np.int64)
    outcomes = rng.random(1000) < bias
    assert measure_ppm_kernel(pcs, outcomes) == measure_ppm_reference(pcs, outcomes)


def test_ppm_segments_past_int16():
    # A 33k-event context segment needs int32 counter maps in the scan.
    rng = np.random.default_rng(11)
    pcs = np.full(33_000, 0x4000, dtype=np.int64)
    outcomes = rng.random(33_000) < 0.999
    outcomes[-2_000:] = rng.random(2_000) < 0.5
    assert measure_ppm_kernel(pcs, outcomes) == measure_ppm_reference(pcs, outcomes)


@settings(**SETTINGS)
@given(st.integers(13, 400), st.integers(0, 2**31))
def test_doubling_histories_match_bitwise_loop(n, seed):
    # Past 12 branches the last doubling step must keep bits 8..11 only.
    outcomes = np.random.default_rng(seed).random(n) < 0.5
    np.testing.assert_array_equal(_doubling_histories(outcomes), global_histories(outcomes))


@settings(**SETTINGS)
@given(branch_streams(max_len=400, max_static=4, min_len=52))
def test_grouped_histories_match_bitwise_loop(stream):
    # >= 52 branches over <= 4 static branches: some per-address group
    # runs more than 12 deep, so the rank mask and the doubling both bind.
    pcs, outcomes = stream
    order, _, rank = _stable_groups(pcs)
    hist = np.empty(len(pcs), dtype=np.int64)
    hist[order] = _grouped_histories(outcomes[order], rank)
    _, pc_ids = np.unique(pcs, return_inverse=True)
    np.testing.assert_array_equal(hist, local_histories(pc_ids, outcomes))


@settings(**SETTINGS)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=8), st.integers(0, 2**31))
def test_interval_grouped_histories_restart_per_interval(sizes, seed):
    # The fused pass groups the global history by interval: each
    # interval's history must be that interval's own global history.
    outcomes = np.random.default_rng(seed).random(sum(sizes)) < 0.5
    starts = np.zeros(len(outcomes), dtype=bool)
    starts[np.cumsum(sizes) - sizes] = True
    expected = np.concatenate(
        [global_histories(part) for part in np.split(outcomes, np.cumsum(sizes)[:-1])]
    )
    np.testing.assert_array_equal(_grouped_histories(outcomes, _group_rank(starts)), expected)


@settings(**SETTINGS)
@given(random_traces())
def test_ilp_kernel_matches_reference(trace):
    ref = measure_ilp_reference(trace, sample_instructions=200)
    new = measure_ilp_kernel(trace, sample_instructions=200)
    assert set(ref) == set(new)
    for name in ref:
        assert new[name] == pytest.approx(ref[name], abs=1e-12), name


@settings(**SETTINGS)
@given(random_traces())
def test_ilp_kernel_with_profile_matches_reference(trace):
    profile = IntervalProfile.from_trace(trace)
    ref = measure_ilp_reference(trace, sample_instructions=150)
    new = measure_ilp_kernel(trace, sample_instructions=150, profile=profile)
    for name in ref:
        assert new[name] == pytest.approx(ref[name], abs=1e-12), name


@st.composite
def register_traces(draw, max_len=300):
    """A trace built to stress producer matching.

    A small register pool makes dependencies dense; the draws also produce
    traces with no writes, traces with no register reads, single
    instructions, and instructions that read their own destination.
    """
    n = draw(st.integers(1, max_len))
    n_regs = draw(st.integers(1, N_REGISTERS))
    p_write = draw(st.sampled_from([0.0, 0.3, 1.0]))
    p_read = draw(st.sampled_from([0.0, 0.5, 1.0]))
    p_self = draw(st.sampled_from([0.0, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))

    def regs():
        # the top registers, so the register field's high bit is used
        return N_REGISTERS - 1 - rng.integers(0, n_regs, n)

    dst = np.where(rng.random(n) < p_write, regs(), NO_REG)
    src1 = np.where(rng.random(n) < p_read, regs(), NO_REG)
    src2 = np.where(rng.random(n) < p_read, regs(), NO_REG)
    own = (rng.random(n) < p_self) & (dst != NO_REG)
    src1 = np.where(own, dst, src1)
    return make_trace(zip([OpClass.IADD] * n, src1.tolist(), src2.tolist(), dst.tolist()))


@settings(**SETTINGS)
@given(st.one_of(random_traces(), register_traces()))
def test_batched_producers_match_reference(trace):
    ref1, ref2 = producer_indices_reference(trace)
    new1, new2 = match_producers(trace)
    assert np.array_equal(ref1, new1)
    assert np.array_equal(ref2, new2)


@settings(**SETTINGS)
@given(st.one_of(random_traces(min_len=10), register_traces()))
def test_producer_prefix_property(trace):
    # Producers of a prefix are a prefix of the producers: this is what
    # lets one full-interval matching serve the ILP subsample.
    m = len(trace) // 2
    full1, full2 = match_producers(trace)
    pre1, pre2 = match_producers(trace.slice(0, m))
    assert np.array_equal(full1[:m], pre1)
    assert np.array_equal(full2[:m], pre2)


@settings(**SETTINGS)
@given(register_traces())
def test_event_sort_producers_with_int64_keys(trace):
    # Real traces only need int64 keys past 2**23 instructions; force
    # the wide branch through the key-width helper instead.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(profile_module, "_key_dtype", lambda bits: np.int64)
        new1, new2 = match_producers(trace)
    ref1, ref2 = producer_indices_reference(trace)
    assert new1.dtype == new2.dtype == np.int64
    assert np.array_equal(ref1, new1)
    assert np.array_equal(ref2, new2)


def test_key_width_switches_to_int64_past_31_bits():
    assert profile_module._key_dtype(23) is np.int32
    assert profile_module._key_dtype(24) is np.int64


@settings(**SETTINGS)
@given(register_traces())
def test_no_instruction_sees_its_own_or_a_later_write(trace):
    positions = np.arange(len(trace))
    for producers in match_producers(trace):
        assert producers.dtype == np.int64
        assert (producers < positions).all()


def test_single_instruction_never_sees_its_own_write():
    trace = make_trace([(OpClass.IADD, 5, 5, 5)])
    p1, p2 = match_producers(trace)
    assert p1.tolist() == [-1] and p2.tolist() == [-1]


def test_ppm_empty_stream():
    empty = np.empty(0, dtype=np.int64)
    ref = measure_ppm_reference(empty, empty.astype(bool))
    new = measure_ppm_kernel(empty, empty.astype(bool))
    assert ref == new
    assert all(v == 0.0 for v in new.values())


def test_ppm_single_branch():
    pcs = np.array([0x4000], dtype=np.int64)
    outcomes = np.array([True])
    assert measure_ppm_kernel(pcs, outcomes) == measure_ppm_reference(pcs, outcomes)


def test_ppm_length_mismatch_raises():
    with pytest.raises(ValueError):
        measure_ppm_kernel(np.zeros(3, dtype=np.int64), np.zeros(2, dtype=bool))
    with pytest.raises(ValueError):
        measure_ppm_reference(np.zeros(3, dtype=np.int64), np.zeros(2, dtype=bool))


def test_reference_flag_routes_dispatch(monkeypatch):
    calls = []

    def spy_ref(pcs, outcomes):
        calls.append("reference")
        return measure_ppm_reference(pcs, outcomes)

    monkeypatch.setattr("repro.mica.ppm.measure_ppm_reference", spy_ref)
    pcs = np.array([0, 0, 4, 4], dtype=np.int64)
    outcomes = np.array([True, False, True, True])
    monkeypatch.setenv(REFERENCE_METERS_ENV, "1")
    flagged = measure_ppm(pcs, outcomes)
    assert calls == ["reference"]
    monkeypatch.delenv(REFERENCE_METERS_ENV)
    unflagged = measure_ppm(pcs, outcomes)
    assert calls == ["reference"]  # kernel path did not re-enter the spy
    assert flagged == unflagged


def test_reference_flag_routes_ilp(monkeypatch):
    trace = make_trace(
        [
            (OpClass.IADD, 1, 2, 3),
            (OpClass.IADD, 3, 1, 4),
            (OpClass.IMUL, 4, 3, 5),
            (OpClass.IADD, 5, 5, 1),
        ]
    )
    monkeypatch.setenv(REFERENCE_METERS_ENV, "1")
    flagged = measure_ilp(trace, sample_instructions=4)
    monkeypatch.delenv(REFERENCE_METERS_ENV)
    unflagged = measure_ilp(trace, sample_instructions=4)
    assert flagged == unflagged
