"""Known-answer tests for the memory-footprint meter."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import NO_REG, OpClass, Trace
from repro.mica import measure_footprint
from repro.mica.footprint import BLOCK_SHIFT, PAGE_SHIFT, _log_distinct_sorted

from ..conftest import make_trace


def loads_at(addresses, pc=0x1000):
    return make_trace([(OpClass.LOAD, 0, NO_REG, 1, a, pc) for a in addresses])


def test_rejects_empty():
    with pytest.raises(ValueError):
        measure_footprint(Trace.empty())


def test_single_block_data_footprint():
    t = loads_at([0x100, 0x108, 0x110])  # same 64B block
    out = measure_footprint(t)
    assert out["foot_data_64b"] == pytest.approx(math.log2(2))  # 1 block
    assert out["foot_data_4k"] == pytest.approx(math.log2(2))   # 1 page


def test_two_blocks_one_page():
    t = loads_at([0x100, 0x140])  # blocks 4 and 5, same page
    out = measure_footprint(t)
    assert out["foot_data_64b"] == pytest.approx(math.log2(3))
    assert out["foot_data_4k"] == pytest.approx(math.log2(2))


def test_pages_counted_at_4k_granularity():
    t = loads_at([0x0, 0x1000, 0x2000])
    out = measure_footprint(t)
    assert out["foot_data_4k"] == pytest.approx(math.log2(4))


def test_instruction_footprint_from_pcs():
    rows = [
        (OpClass.IADD, 0, 1, 2, -1, 0x400000),
        (OpClass.IADD, 0, 1, 2, -1, 0x400004),   # same block
        (OpClass.IADD, 0, 1, 2, -1, 0x400040),   # next block
    ]
    out = measure_footprint(make_trace(rows))
    assert out["foot_instr_64b"] == pytest.approx(math.log2(3))
    assert out["foot_instr_4k"] == pytest.approx(math.log2(2))


def test_no_memory_ops_zero_data_footprint():
    t = make_trace([(OpClass.IADD, 0, 1, 2)])
    out = measure_footprint(t)
    assert out["foot_data_64b"] == 0.0
    assert out["foot_data_4k"] == 0.0


def test_footprint_monotone_in_working_set():
    small = measure_footprint(loads_at(range(0, 1024, 8)))
    large = measure_footprint(loads_at(range(0, 65536, 8)))
    assert large["foot_data_64b"] > small["foot_data_64b"]
    assert large["foot_data_4k"] > small["foot_data_4k"]


# --- sorted boundary count ------------------------------------------------

BOUNDARIES = [1 << BLOCK_SHIFT, 1 << PAGE_SHIFT]


@st.composite
def address_streams(draw):
    """Addresses clustered around 64 B / 4 KB boundaries, plus far ones."""
    near = draw(
        st.lists(
            st.tuples(
                st.integers(0, 1 << 20),
                st.sampled_from(BOUNDARIES),
                st.integers(-2, 1),
            ).map(lambda t: max(0, t[0] * t[1] + t[2])),
            max_size=40,
        )
    )
    far = draw(st.lists(st.integers(0, 1 << 47), max_size=40))
    addresses = np.array(near + far, dtype=np.int64)
    return addresses[np.random.default_rng(draw(st.integers(0, 2**31))).permutation(len(addresses))]


@settings(max_examples=60, deadline=None)
@given(address_streams(), st.sampled_from([BLOCK_SHIFT, PAGE_SHIFT]))
def test_sorted_boundary_count_equals_unique(addresses, shift):
    expected = math.log2(1 + len(np.unique(addresses >> shift)))
    assert _log_distinct_sorted(np.sort(addresses), shift) == expected


@pytest.mark.parametrize(
    "addresses, blocks, pages",
    [
        ([], 0, 0),
        ([0x1234], 1, 1),
        ([0x3F, 0x40], 2, 1),  # either side of a block boundary
        ([0xFFF, 0x1000], 2, 2),  # either side of a page boundary
        ([0x1000, 0xFFF, 0x1000, 0xFFF], 2, 2),  # unsorted, repeated
    ],
)
def test_boundary_counts(addresses, blocks, pages):
    data = np.sort(np.array(addresses, dtype=np.int64))
    assert _log_distinct_sorted(data, BLOCK_SHIFT) == math.log2(1 + blocks)
    assert _log_distinct_sorted(data, PAGE_SHIFT) == math.log2(1 + pages)


def test_boundary_addresses_through_meter():
    out = measure_footprint(loads_at([0xFFF, 0x1000, 0x103F, 0x1040]))
    assert out["foot_data_64b"] == math.log2(1 + 3)
    assert out["foot_data_4k"] == math.log2(1 + 2)
