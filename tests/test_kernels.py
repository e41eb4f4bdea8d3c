import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from logiczono import kernels, points
from logiczono.bitvec import BitMatrix, BitVector
from logiczono.errors import BudgetExceeded
from logiczono.points import EnumerationBudget, enumerate_points, is_empty, witness_point
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

    # points alpha over 4 factors; the constraint alpha_3 == 1 admits only
    # alpha = 8..15, so the first two chunks of 4 assignments are empty
    ident = BitMatrix.identity(4)
    late = ConstrainedPolyLogicalZonotope(
        BitVector.zeros(4), ident, ident, BitMatrix.identity(1), BitVector.ones(1),
        BitMatrix.from_bool(np.array([[0], [0], [0], [1]], dtype=bool)), alloc.fresh(4))
    assert witness_point(late) == BitVector.from01("0001")
    assert not is_empty(late)
    # 4 points per admissible chunk, 8 in all: a cap of 5 is crossed only when the last chunk joins
    assert len(enumerate_points(late, EnumerationBudget(max_points=8))) == 8
    with pytest.raises(BudgetExceeded):
        enumerate_points(late, EnumerationBudget(max_points=5))
    # the same 4 points in both chunks: the cap counts distinct points
    twice = ConstrainedPolyLogicalZonotope(
        BitVector.zeros(2), BitMatrix.identity(2), BitMatrix.from_bool(np.eye(4, 2, dtype=bool)),
        BitMatrix.from_bool(np.array([[1, 0]], dtype=bool)), BitVector.ones(1),
        BitMatrix.from_bool(np.array([[0, 0], [0, 0], [0, 1], [1, 0]], dtype=bool)), alloc.fresh(4))
    assert len(enumerate_points(twice, EnumerationBudget(max_points=4))) == 4


def test_alpha_order_and_offset_block():
    # every admissible point is written, in increasing alpha order, also for
    # an aligned block that starts past 0
    emasks = np.array([1, 2], dtype=np.uint64)
    gwords = np.array([[1], [2]], dtype=np.uint64)
    cwords = np.zeros(1, dtype=np.uint64)
    nothing = np.zeros(0, dtype=np.uint64)
    awords = np.zeros((0, 0), dtype=np.uint64)
    out = np.zeros((4, 1), dtype=np.uint64)
    assert kernels.sweep_chunk(0, 4, emasks, gwords, cwords, nothing, awords, nothing, out) == 4
    assert out[:, 0].tolist() == [0, 1, 2, 3]
    out[:] = 9
    emasks = np.array([1, 4], dtype=np.uint64)  # factor 2 is set throughout [4, 8)
    assert kernels.sweep_chunk(4, 8, emasks, gwords, cwords, nothing, awords, nothing, out) == 4
    assert out[:, 0].tolist() == [2, 3, 2, 3]
    # a constraint that rejects factor 1: the admissible points move to the front
    one = np.ones(1, dtype=np.uint64)
    rmasks, awords, bwords = np.array([2], dtype=np.uint64), one[:, None], np.zeros(1, dtype=np.uint64)
    assert kernels.sweep_chunk(4, 8, emasks, gwords, cwords, rmasks, awords, bwords, out) == 2
    assert out[:2, 0].tolist() == [2, 3]


def test_unaligned_block_rejected():
    nothing = np.zeros(0, dtype=np.uint64)
    out = np.zeros((4, 1), dtype=np.uint64)
    args = (nothing, np.zeros((0, 1), dtype=np.uint64), np.zeros(1, dtype=np.uint64),
            nothing, np.zeros((0, 0), dtype=np.uint64), nothing, out)
    for start, stop in ((0, 3), (2, 6), (4, 4)):
        with pytest.raises(ValueError):
            kernels.sweep_chunk(start, stop, *args)
