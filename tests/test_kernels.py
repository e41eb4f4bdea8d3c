import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from logiczono import kernels, points
from logiczono.bitvec import BitMatrix, BitVector
from logiczono.points import enumerate_points
from logiczono.sets import ConstrainedPolyLogicalZonotope, IdAllocator
from conftest import naive_enumerate, random_cplz


def test_sweep_matches_reference(rng, alloc):
    sets = [random_cplz(rng, alloc) for _ in range(30)]
    # n > 64 and m > 64 spread points and constraint rows over several words
    for n, m_max in ((70, 2), (5, 70), (130, 66)):
        sets += [random_cplz(rng, alloc, n=n, h_max=6, p_max=6, m_max=m_max, constrained=True)
                 for _ in range(4)]
    # only the constraint row in the second word excludes alpha = 1
    a = np.zeros((70, 1), dtype=bool)
    a[66, 0] = True
    one = BitMatrix.identity(1)
    sets.append(ConstrainedPolyLogicalZonotope(
        BitVector.from01("0"), one, one, BitMatrix.from_bool(a), BitVector.from_bits(np.zeros(70, dtype=int)),
        one, alloc.fresh(1)))
    for z in sets:
        assert set(enumerate_points(z).to_bitstrings()) == naive_enumerate(z)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 3, 64, 65]), m_max=st.sampled_from([1, 3, 65]))
def test_sweep_equals_naive_property(seed, n, m_max):
    rng = np.random.default_rng(seed)
    z = random_cplz(rng, IdAllocator(), n=n, h_max=6, p_max=7, m_max=m_max)
    assert set(enumerate_points(z).to_bitstrings()) == naive_enumerate(z)


def test_chunked_sweep(rng, alloc, monkeypatch):
    # force several chunks per sweep and compare against one-shot results
    z = random_cplz(rng, alloc, n=4, h_max=4, p_max=5, constrained=True)
    whole = enumerate_points(z)
    monkeypatch.setattr(points, "_CHUNK_BITS", 2)
    assert enumerate_points(z) == whole


def test_limit_contract():
    # the kernel fills at most `limit` rows even when more assignments satisfy,
    # and writes them in increasing alpha order
    emasks = np.array([1, 2], dtype=np.uint64)
    gwords = np.array([[1], [2]], dtype=np.uint64)
    cwords = np.zeros(1, dtype=np.uint64)
    nothing = np.zeros(0, dtype=np.uint64)
    awords = np.zeros((0, 0), dtype=np.uint64)
    out = np.zeros((4, 1), dtype=np.uint64)
    assert kernels.sweep_chunk(0, 4, emasks, gwords, cwords, nothing, awords, nothing, out, 1) == 1
    assert out[0, 0] == 0
    assert kernels.sweep_chunk(0, 4, emasks, gwords, cwords, nothing, awords, nothing, out, 3) == 3
    assert out[:3, 0].tolist() == [0, 1, 2]
    assert kernels.sweep_chunk(4, 8, emasks, gwords, cwords, nothing, awords, nothing, out, 4) == 4
    assert out[:, 0].tolist() == [0, 1, 2, 3]


def test_unaligned_block_rejected():
    nothing = np.zeros(0, dtype=np.uint64)
    out = np.zeros((4, 1), dtype=np.uint64)
    args = (nothing, np.zeros((0, 1), dtype=np.uint64), np.zeros(1, dtype=np.uint64),
            nothing, np.zeros((0, 0), dtype=np.uint64), nothing, out, 4)
    for start, stop in ((0, 3), (2, 6), (4, 4)):
        with pytest.raises(ValueError):
            kernels.sweep_chunk(start, stop, *args)
