import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from logiczono.bitvec import (
    BitMatrix,
    BitVector,
    Gate,
    _move_rows,
    _unique_rows,
    blkdiag,
    complement,
    concat,
    elementwise_gate,
    gf2_basis,
    hconcat,
    pack_bool_rows,
    pad_mask,
    select_rows,
    unpack_rows,
)
from logiczono.errors import DimensionError


def test_parse_and_render():
    v = BitVector.from01("1010")
    assert v.to01() == "1010"
    assert len(v) == 4
    assert v.bits().tolist() == [1, 0, 1, 0]
    with pytest.raises(ValueError):
        BitVector.from01("10x")


def test_xor_self_inverse():
    a = BitVector.from01("1010")
    assert elementwise_gate(Gate.XOR, a, a).to01() == "0000"


def test_and_truth_table():
    out = elementwise_gate(Gate.AND, BitVector.from01("1100"), BitVector.from01("1010"))
    assert out.to01() == "1000"


def test_nand_truth_table():
    out = elementwise_gate(Gate.NAND, BitVector.from01("11"), BitVector.from01("10"))
    assert out.to01() == "01"


def test_all_gates_bitwise():
    rng = np.random.default_rng(1)
    expected = {
        Gate.XOR: lambda a, b: a ^ b,
        Gate.AND: lambda a, b: a & b,
        Gate.OR: lambda a, b: a | b,
        Gate.XNOR: lambda a, b: ~(a ^ b),
        Gate.NAND: lambda a, b: ~(a & b),
        Gate.NOR: lambda a, b: ~(a | b),
    }
    for n in (1, 7, 64, 65, 130):
        xa = rng.integers(0, 2, size=n).astype(bool)
        xb = rng.integers(0, 2, size=n).astype(bool)
        a, b = BitVector.from_bits(xa), BitVector.from_bits(xb)
        for gate, fn in expected.items():
            got = elementwise_gate(gate, a, b).bits()
            assert np.array_equal(got, fn(xa, xb)), gate


def test_complement():
    assert complement(BitVector.from01("10")).to01() == "01"
    assert complement(BitVector.from01("0000")).to01() == "1111"


def test_complement_involution():
    rng = np.random.default_rng(2)
    for n in (3, 64, 100):
        v = BitVector.from_bits(rng.integers(0, 2, size=n))
        assert complement(complement(v)) == v


def test_de_morgan():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 130))
        a = BitVector.from_bits(rng.integers(0, 2, size=n))
        b = BitVector.from_bits(rng.integers(0, 2, size=n))
        lhs = complement(elementwise_gate(Gate.AND, a, b))
        rhs = elementwise_gate(Gate.NAND, a, b)
        assert lhs == rhs


def test_padding_stays_clear():
    # negating gates touch the padding word; repacking must agree
    rng = np.random.default_rng(4)
    for n in (1, 63, 64, 65, 70, 127):
        a = BitVector.from_bits(rng.integers(0, 2, size=n))
        b = BitVector.from_bits(rng.integers(0, 2, size=n))
        for gate in Gate:
            out = elementwise_gate(gate, a, b)
            repacked = pack_bool_rows(out.bits()[None, :])[0]
            assert np.array_equal(out.words, repacked)
        out = complement(a)
        assert np.array_equal(out.words, pack_bool_rows(out.bits()[None, :])[0])


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130])
def test_shared_pad_mask_is_read_only(n):
    mask = pad_mask(n)
    assert mask is pad_mask(n)
    with pytest.raises(ValueError):
        mask[...] = 0
    ones = BitVector.ones(n)
    assert ones == BitVector.from01("1" * n)
    assert np.array_equal(ones.words, pack_bool_rows(np.ones((1, n), dtype=bool))[0])
    assert np.array_equal(pad_mask(n), pack_bool_rows(np.ones((1, n), dtype=bool))[0])


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        elementwise_gate(Gate.XOR, BitVector.from01("10"), BitVector.from01("100"))


def test_equality_and_hash():
    a = BitVector.from01("101")
    b = BitVector.from_bits([1, 0, 1])
    assert a == b and hash(a) == hash(b)
    assert a != BitVector.from01("1010")


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(5)
    arr = rng.integers(0, 2, size=(6, 131)).astype(bool)
    assert np.array_equal(unpack_rows(pack_bool_rows(arr), 131), arr)


def test_concat():
    assert concat(BitVector.from01("10"), BitVector.from01("011")).to01() == "10011"


def test_matrix_basics():
    m = BitMatrix.from_bool(np.array([[1, 0], [0, 1], [1, 1]], dtype=bool))
    assert m.rows == 3 and m.cols == 2
    assert m.column(0).to01() == "101"
    assert m.column(1).to01() == "011"
    assert np.array_equal(m.to_bool(), np.array([[1, 0], [0, 1], [1, 1]], dtype=bool))
    empty = BitMatrix.zeros(4, 0)
    assert empty.cols == 0 and empty.rows == 4


def test_matrix_from_columns():
    cols = [BitVector.from01("10"), BitVector.from01("11")]
    m = BitMatrix.from_columns(cols)
    assert m.column(1).to01() == "11"
    with pytest.raises(DimensionError):
        BitMatrix.from_columns([BitVector.from01("10"), BitVector.from01("100")])
    with pytest.raises(ValueError):
        BitMatrix.from_columns([])


def test_matrix_compositions():
    a = BitMatrix.from_bool(np.array([[1], [0]], dtype=bool))
    b = BitMatrix.from_bool(np.array([[1, 1]], dtype=bool))
    wide = hconcat(a, BitMatrix.zeros(2, 1))
    assert wide.cols == 2 and wide.column(1).to01() == "00"
    bd = blkdiag(a, b)
    assert bd.rows == 3 and bd.cols == 3
    assert bd.column(0).to01() == "100"
    assert bd.column(1).to01() == "001"
    assert bd.column(2).to01() == "001"


def test_move_rows_scatters_rows():
    m = BitMatrix.from_bool(np.array([[1, 0], [1, 1]], dtype=bool))
    out = BitMatrix(3, _move_rows(m.data, range(2), [2, 0], 3))
    assert np.array_equal(out.to_bool(), np.array([[1, 1], [0, 0], [1, 0]], dtype=bool))


@pytest.mark.parametrize("n", [1, 64, 65, 130])
def test_unique_rows_matches_np_unique(n):
    # the payload dedupe of lz_flatten: same rows, same order as np.unique
    rng = np.random.default_rng(n)
    for _ in range(50):
        distinct = BitMatrix.from_bool(rng.random((n, int(rng.integers(1, 8)))) < 0.5).data
        rows = distinct[rng.integers(0, distinct.shape[0], size=int(rng.integers(0, 40)))]
        assert np.array_equal(_unique_rows(rows.copy()), np.unique(rows, axis=0))


def _ints(words):
    """Packed rows as plain ints, bit i of a row at position i."""
    return [sum(int(w) << 64 * k for k, w in enumerate(row)) for row in words]


def _reduce(x, pivots):
    """x reduced against a {top bit: row} echelon basis (plain ints)."""
    while x and x.bit_length() - 1 in pivots:
        x ^= pivots[x.bit_length() - 1]
    return x


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 63, 64, 65, 130]),
    k=st.integers(0, 200),
    spanning=st.integers(0, 24),
)
def test_gf2_basis_is_the_reduced_basis_of_the_span(seed, n, k, spanning):
    # k rows in the span of a few random vectors, so duplicate and zero rows occur
    rng = np.random.default_rng(seed)
    gens = rng.integers(0, 2, size=(spanning, n))
    coef = rng.integers(0, 2, size=(k, spanning)) * (rng.random((k, 1)) < 0.9)
    words = pack_bool_rows((coef @ gens) % 2)
    basis = gf2_basis(words)
    assert basis.shape[1] == words.shape[1]

    pivots = {}  # the plain-int reference elimination
    for x in _ints(words):
        x = _reduce(x, pivots)
        if x:
            pivots[x.bit_length() - 1] = x
    got = _ints(basis)
    assert len(got) == len(pivots) and not any(_reduce(x, pivots) for x in got)
    tops = [x.bit_length() - 1 for x in got]
    assert tops == sorted(pivots) and all(bool(y >> t & 1) == (y == x) for x, t in zip(got, tops) for y in got)

    # one basis per span: shuffled, duplicated and recombined rows give it again
    assert np.array_equal(gf2_basis(words[rng.permutation(k)]), basis)
    assert np.array_equal(gf2_basis(np.concatenate([words, words[rng.integers(0, k, size=k)]])), basis)
    mixed = words.copy()
    for i, j in rng.integers(0, max(k, 1), size=(2 * k, 2)):
        if i != j:
            mixed[i] ^= mixed[j]
    assert np.array_equal(gf2_basis(mixed), basis)


# row counts on both sides of the word boundaries
ROW_COUNTS = st.one_of(st.sampled_from([0, 1, 63, 64, 65, 127, 128, 129]), st.integers(0, 130))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), r1=ROW_COUNTS, r2=ROW_COUNTS, c1=st.integers(0, 4), c2=st.integers(0, 4))
def test_packed_compositions_match_bool_reference(seed, r1, r2, c1, c2):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=(r1, c1)).astype(bool)
    b = rng.integers(0, 2, size=(r2, c2)).astype(bool)
    ma, mb = BitMatrix.from_bool(a), BitMatrix.from_bool(b)

    diag = np.zeros((r1 + r2, c1 + c2), dtype=bool)
    diag[:r1, :c1] = a
    diag[r1:, c1:] = b
    assert blkdiag(ma, mb) == BitMatrix.from_bool(diag)

    x, y = rng.integers(0, 2, size=r1), rng.integers(0, 2, size=r2)
    assert concat(BitVector.from_bits(x), BitVector.from_bits(y)) == BitVector.from_bits(np.concatenate([x, y]))

    # scattered rows, and one block of rows at an offset
    scattered = rng.permutation(r1 + r2)[:r1]
    offset = int(rng.integers(0, r2 + 1))
    for positions in (scattered, range(offset, offset + r1)):
        positions = [int(k) for k in positions]
        spread = np.zeros((r1 + r2, c1), dtype=bool)
        spread[positions] = a
        moved = _move_rows(ma.data, range(r1), positions, r1 + r2)
        assert np.array_equal(moved, BitMatrix.from_bool(spread).data)
        assert select_rows(BitMatrix.from_bool(spread), positions) == ma


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.lists(ROW_COUNTS, min_size=1, max_size=4),
    cols=st.lists(st.integers(0, 3), min_size=4, max_size=4),
)
def test_compositions_of_many_operands_match_bool_reference(seed, rows, cols):
    # 1-4 operands at offsets that fall on both sides of the word boundaries
    rng = np.random.default_rng(seed)
    blocks = [rng.integers(0, 2, size=(r, c)).astype(bool) for r, c in zip(rows, cols)]
    diag = np.zeros((sum(rows), sum(b.shape[1] for b in blocks)), dtype=bool)
    r0 = c0 = 0
    for b in blocks:
        diag[r0 : r0 + b.shape[0], c0 : c0 + b.shape[1]] = b
        r0, c0 = r0 + b.shape[0], c0 + b.shape[1]
    assert blkdiag(*map(BitMatrix.from_bool, blocks)) == BitMatrix.from_bool(diag)

    vecs = [rng.integers(0, 2, size=r) for r in rows]
    assert concat(*map(BitVector.from_bits, vecs)) == BitVector.from_bits(np.concatenate(vecs))


def _run_positions(rng, lengths):
    """Positions made of contiguous runs of the given lengths, laid out in a
    shuffled order at random gaps; returns them in run order with a row count."""
    starts = np.empty(len(lengths), dtype=int)
    at = 0
    for k in rng.permutation(len(lengths)):
        at += int(rng.integers(0, 16))
        starts[k] = at
        at += int(lengths[k])
    positions = np.concatenate([np.arange(s, s + n) for s, n in zip(starts, lengths)])
    return [int(k) for k in positions], at + int(rng.integers(0, 8))


def _ordered_runs(rng, lengths):
    """Positions made of contiguous runs of the given lengths, in order, with a
    gap of 1-15 rows before each run; returns them with a row count."""
    positions, at = [], 0
    for n in lengths:
        at += int(rng.integers(1, 16))
        positions += range(at, at + int(n))
        at += int(n)
    return positions, at + int(rng.integers(0, 8))


def _moved_reference(a: np.ndarray, src, dst, nbits: int) -> np.ndarray:
    """The packed rows of nbits bits holding row src[k] of the bool rows a at
    row dst[k], built in the bool domain."""
    moved = np.zeros((nbits, a.shape[1]), dtype=bool)
    moved[list(dst)] = a[list(src)]
    return BitMatrix.from_bool(moved).data


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    runs=st.integers(1, 6),
    cols=st.integers(0, 3),
    width=st.sampled_from([None, 1, 63, 64, 65]),
    layout=st.sampled_from(["shuffled", "up", "down"]),
)
def test_row_moves_by_runs_match_bool_reference(seed, runs, cols, width, layout):
    rng = np.random.default_rng(seed)
    if width is None and layout == "shuffled":
        # a few contiguous runs at random starts on each side (a few hundred rows), so
        # runs cross word boundaries on the source side, the destination side or both
        lengths = rng.integers(1, 36, size=runs)
        src, src_rows = _run_positions(rng, lengths)
        dst, dst_rows = _run_positions(rng, lengths)
    elif width is None:
        # 1 to 6 runs spread upward from a whole masked block, as the merged
        # factor rows of a set operation take them, or gathered downward into
        # one, as a drop of inert factor rows does; sources may pass 64 bits
        lengths = rng.integers(1, 36, size=runs)
        spread, spread_rows = _ordered_runs(rng, lengths)
        block = range(len(spread))
        src, dst, src_rows, dst_rows = (
            (block, spread, len(block), spread_rows) if layout == "up" else (spread, block, spread_rows, len(block))
        )
    else:
        # most rows of a width-row result, its top row and row 63 included, so
        # runs end at bit 63 and at the top bit; the same runs on the source side
        # end at bit 63 too, and random rows follow them in the source words
        dst = [k for k in range(width) if k in (63, width - 1) or rng.random() < 0.7]
        shift = max(63 - dst[-1], 0) if rng.random() < 0.5 else int(rng.integers(0, 70))
        src, dst_rows = [k + shift for k in dst], width
        src_rows = src[-1] + 1 + int(rng.integers(1, 70))
    a = rng.integers(0, 2, size=(src_rows, cols)).astype(bool)
    words = _move_rows(BitMatrix.from_bool(a).data, src, dst, dst_rows)
    assert np.array_equal(words, _moved_reference(a, src, dst, dst_rows))
    block = BitMatrix.from_bool(a[list(src)])
    assert np.array_equal(_move_rows(block.data, range(len(dst)), dst, dst_rows), words)
    assert np.array_equal(_move_rows(block.data, list(range(len(dst))), dst, dst_rows), words)
    assert select_rows(BitMatrix.from_bool(a), src) == block


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=ROW_COUNTS,
    offset=ROW_COUNTS,
    cols=st.integers(0, 3),
    width=st.sampled_from([None, 1, 63, 64, 65]),
)
def test_block_moves_match_the_run_by_run_path(seed, rows, offset, cols, width):
    # a whole masked block moved by two ranges, as blkdiag, concat and _compose
    # move it, equals the same move given as plain lists and the bool
    # reference, bit for bit: at offset 0 (the identity), inside one word, and
    # across words
    rng = np.random.default_rng(seed)
    nbits = offset + rows + int(rng.integers(0, 70))
    if width is not None:
        # a width-bit result, the block ending at bit 63 or at the top bit
        nbits = width
        end = 64 if width >= 64 and rng.random() < 0.5 else width
        rows = min(rows, end)
        offset = end - rows
    a = rng.integers(0, 2, size=(rows, cols)).astype(bool)
    block = BitMatrix.from_bool(a)
    src, dst = range(rows), range(offset, offset + rows)
    moved = _move_rows(block.data, src, dst, nbits)
    assert np.array_equal(moved, _move_rows(block.data, list(src), list(dst), nbits))
    assert np.array_equal(moved, _moved_reference(a, src, dst, nbits))
    if offset == 0 and block.data.shape[1] == moved.shape[1]:
        assert moved is block.data
    # a range of a larger matrix's rows, as select_rows takes it: the source
    # words hold rows past the moved ones, and the selection stays masked
    m = BitMatrix.from_bool(rng.integers(0, 2, size=(nbits, cols)).astype(bool))
    picked = select_rows(m, dst)
    assert picked == select_rows(m, list(dst)) == BitMatrix.from_bool(m.to_bool()[dst])
    assert not np.count_nonzero(picked.data & ~pad_mask(rows))
    # range(lo, lo + rows) with lo > 0 moved to the offset of a taller result:
    # the source rows past the range must not leak into the result's rows
    lo = int(rng.integers(1, 70))
    tall = rng.integers(0, 2, size=(lo + rows + int(rng.integers(1, 70)), cols)).astype(bool)
    src = range(lo, lo + rows)
    moved = _move_rows(BitMatrix.from_bool(tall).data, src, dst, nbits + 1)
    assert np.array_equal(moved, _moved_reference(tall, src, dst, nbits + 1))


def test_identity():
    eye = BitMatrix.identity(3)
    assert eye.column(0).to01() == "100"
    assert eye.column(2).to01() == "001"
