import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from logiczono import kernels, points
from logiczono.bitvec import BitMatrix, BitVector
from logiczono.errors import BudgetExceeded
from logiczono.points import enumerate_points, is_empty, witness_point
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
    monkeypatch.setattr(points, "MAX_POINTS", 8)
    assert len(enumerate_points(late)) == 8
    monkeypatch.setattr(points, "MAX_POINTS", 5)
    with pytest.raises(BudgetExceeded):
        enumerate_points(late)
    # the same 4 points in both chunks: the cap counts distinct points
    twice = ConstrainedPolyLogicalZonotope(
        BitVector.zeros(2), BitMatrix.identity(2), BitMatrix.from_bool(np.eye(4, 2, dtype=bool)),
        BitMatrix.from_bool(np.array([[1, 0]], dtype=bool)), BitVector.ones(1),
        BitMatrix.from_bool(np.array([[0, 0], [0, 0], [0, 1], [1, 0]], dtype=bool)), alloc.fresh(4))
    monkeypatch.setattr(points, "MAX_POINTS", 4)
    assert len(enumerate_points(twice)) == 4


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


def _subset_xor_reference(start, masks, payloads, size, words):
    """Row i is the XOR of the payloads whose mask is a subset of start + i."""
    table = np.zeros((size, words), dtype=np.uint64)
    for i in range(size):
        alpha = np.uint64(start + i)
        for mask, payload in zip(masks, payloads):
            if mask & alpha == mask:
                table[i] ^= payload
    return table


def _random_columns(rng, h, bits, words):
    masks = rng.integers(0, 1 << bits, size=h).astype(np.uint64)
    masks[rng.random(h) < 0.2] = masks[0] if h else 0  # duplicate masks
    return masks, rng.integers(0, 2**64, size=(h, words), dtype=np.uint64)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(0, 12), words=st.integers(0, 3),
       block=st.integers(0, 3))
def test_subset_xor_matches_per_row_reference(seed, p, words, block):
    # blocks smaller and larger than 2^FOLD_BITS rows, masks with bits above
    # the block, and aligned blocks past 0
    rng = np.random.default_rng(seed)
    size = 1 << p
    masks, payloads = _random_columns(rng, int(rng.integers(0, 24)), p + 2, words)
    table = np.full((size, words), 7, dtype=np.uint64)
    got = kernels.subset_xor(block * size, masks, payloads, table)
    assert got is table
    assert np.array_equal(got, _subset_xor_reference(block * size, masks, payloads, size, words))


@pytest.mark.parametrize("p", [3, 6, 9])
def test_subset_xor_dense_set_folds_nothing(rng, p):
    # h close to 2^p, as an encoded point list has: the guard keeps the fold
    # width at 0, while a sparse set of the same size folds FOLD_BITS bits;
    # at fold width 0 the passes with runs below STRIDED_RUNS are strided,
    # on uint64 words and on the uint32 words of a sweep of at most 32 bits
    size = 1 << p
    assert kernels._fold_width(size, size) == 0
    assert kernels._fold_width(1, 1 << 20) == kernels.FOLD_BITS
    for words in (1, 2, 3):
        masks, payloads = _random_columns(rng, size + 5, p, words)
        expected = _subset_xor_reference(size, masks, payloads, size, words)
        for dtype in (np.uint64, np.uint32):
            table = np.empty((size, words), dtype=dtype)
            got = kernels.subset_xor(size, masks, payloads.astype(dtype), table)
            assert np.array_equal(got, expected.astype(dtype))


def test_fold_width_keeps_the_scatter_small():
    for h in (1, 3, 100, 886, 5000):
        for p in range(0, 21):
            b = kernels._fold_width(h, 1 << p)
            assert 0 <= b <= kernels.FOLD_BITS
            assert b == 0 or h << b <= (1 << p) // kernels.SCATTER_SHARE
            assert b == kernels.FOLD_BITS or h << (b + 1) > (1 << p) // kernels.SCATTER_SHARE


def test_sweep_without_constraint_columns():
    # q = 0: b == 0 admits the whole block in alpha order, any other b nothing
    emasks = np.array([1, 2, 6], dtype=np.uint64)
    gwords = np.array([[1], [2], [4]], dtype=np.uint64)
    cwords = np.array([8], dtype=np.uint64)
    nothing = np.zeros(0, dtype=np.uint64)
    out = np.full((8, 1), 99, dtype=np.uint64)
    for m in (0, 1, 70):
        zero_b = np.zeros((m + 63) // 64, dtype=np.uint64)
        awords = np.zeros((0, zero_b.shape[0]), dtype=np.uint64)
        assert kernels.sweep_chunk(0, 8, emasks, gwords, cwords, nothing, awords, zero_b, out) == 8
        assert out[:, 0].tolist() == [8, 9, 10, 11, 8, 9, 14, 15]
        if m:
            one_b = zero_b.copy()
            one_b[-1] = 1
            out[:] = 99
            assert kernels.sweep_chunk(0, 8, emasks, gwords, cwords, nothing, awords, one_b, out) == 0


def _sweep_both_widths(start, size, emasks, gwords, cwords, rmasks, awords, bwords):
    """(count, points) of sweep_chunk on the uint64 words and on the same words as uint32."""
    results = []
    for dtype in (np.uint64, np.uint32):
        out = np.empty((size, gwords.shape[1]), dtype=dtype)
        g, c, a, b = (x.astype(dtype) for x in (gwords, cwords, awords, bwords))
        cnt = kernels.sweep_chunk(start, start + size, emasks, g, c, rmasks, a, b, out)
        results.append((cnt, out[:cnt]))
    return results


@pytest.mark.parametrize("fold", range(kernels.FOLD_BITS + 1))
def test_uint32_payloads_give_the_uint64_bits(fold):
    # the packed words of sets of at most 32 bits, swept as uint32 (points._lanes):
    # every fold width, blocks at 0 and past it, with and without constraint columns
    rng = np.random.default_rng(fold)
    p, h = 12, 512 >> fold
    size = 1 << p
    assert kernels._fold_width(h, size) == fold
    emasks = rng.integers(0, 1 << (p + 1), size=h).astype(np.uint64)  # some bits above the block
    gwords = rng.integers(0, 2**32, size=(h, 1), dtype=np.uint64)
    cwords = rng.integers(0, 2**32, size=1, dtype=np.uint64)
    for start in (0, size):
        wide = kernels.subset_xor(start, emasks, gwords, np.empty((size, 1), dtype=np.uint64))
        narrow = np.empty((size, 1), dtype=np.uint32)
        kernels.subset_xor(start, emasks, gwords.astype(np.uint32), narrow)
        assert narrow.dtype == np.uint32 and np.array_equal(narrow, wide.astype(np.uint32))

        # q = 0: all admissible, or none when b is nonzero
        no_r, no_a = np.zeros(0, dtype=np.uint64), np.zeros((0, 1), dtype=np.uint64)
        for b in (0, 1 << 31):
            (c64, p64), (c32, p32) = _sweep_both_widths(
                start, size, emasks, gwords, cwords, no_r, no_a, np.array([b], dtype=np.uint64))
            assert c64 == c32 == (0 if b else size)
            assert p32.dtype == np.uint32 and np.array_equal(p32, p64.astype(np.uint32))

        # sparse constraint columns (1/8 of the factor bits) over 32 rows,
        # b taken from a witness assignment
        q = 24
        rmasks = np.bitwise_and.reduce(rng.integers(0, size, size=(3, q)), axis=0).astype(np.uint64)
        awords = rng.integers(0, 2**32, size=(q, 1), dtype=np.uint64)
        witness = np.uint64(int(rng.integers(0, size)))
        bwords = np.bitwise_xor.reduce(awords[(rmasks & ~witness) == 0], axis=0)
        (c64, p64), (c32, p32) = _sweep_both_widths(
            start, size, emasks, gwords, cwords, rmasks, awords, bwords)
        assert c64 == c32 and (start or c64 > 0)
        assert p32.dtype == np.uint32 and np.array_equal(p32, p64.astype(np.uint32))


def test_unaligned_block_rejected_on_uint32_lanes():
    nothing = np.zeros(0, dtype=np.uint64)
    out = np.zeros((4, 1), dtype=np.uint32)
    args = (nothing, np.zeros((0, 1), dtype=np.uint32), np.zeros(1, dtype=np.uint32),
            nothing, np.zeros((0, 1), dtype=np.uint32), np.zeros(1, dtype=np.uint32), out)
    for start, stop in ((0, 3), (2, 6), (4, 4)):
        with pytest.raises(ValueError):
            kernels.sweep_chunk(start, stop, *args)
