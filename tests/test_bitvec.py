import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from logiczono.bitvec import (
    BitMatrix,
    BitVector,
    Gate,
    blkdiag,
    complement,
    concat,
    elementwise_gate,
    embed_rows,
    hconcat,
    pack_bool_rows,
    select_rows,
    shift_rows,
    unpack_rows,
    vstack,
)
from logiczono.errors import DimensionError


def test_parse_and_render():
    v = BitVector.from01("1010")
    assert v.to01() == "1010"
    assert len(v) == 4
    assert v[0] == 1 and v[1] == 0 and v[2] == 1 and v[3] == 0
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
    tall = vstack(a, BitMatrix.from_bool(np.array([[1]], dtype=bool)))
    assert tall.rows == 3 and tall.column(0).to01() == "101"


def test_embed_rows():
    m = BitMatrix.from_bool(np.array([[1, 0], [1, 1]], dtype=bool))
    out = embed_rows(m, [2, 0], 3)
    assert np.array_equal(out.to_bool(), np.array([[1, 1], [0, 0], [1, 0]], dtype=bool))


# row counts on both sides of the word boundaries
ROW_COUNTS = st.one_of(st.sampled_from([0, 1, 63, 64, 65, 127, 128, 129]), st.integers(0, 130))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), r1=ROW_COUNTS, r2=ROW_COUNTS, c1=st.integers(0, 4), c2=st.integers(0, 4))
def test_packed_compositions_match_bool_reference(seed, r1, r2, c1, c2):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=(r1, c1)).astype(bool)
    b = rng.integers(0, 2, size=(r2, c2)).astype(bool)
    under = rng.integers(0, 2, size=(r2, c1)).astype(bool)
    ma, mb = BitMatrix.from_bool(a), BitMatrix.from_bool(b)

    diag = np.zeros((r1 + r2, c1 + c2), dtype=bool)
    diag[:r1, :c1] = a
    diag[r1:, c1:] = b
    assert blkdiag(ma, mb) == BitMatrix.from_bool(diag)
    assert vstack(ma, BitMatrix.from_bool(under)) == BitMatrix.from_bool(np.concatenate([a, under]))

    x, y = rng.integers(0, 2, size=r1), rng.integers(0, 2, size=r2)
    assert concat(BitVector.from_bits(x), BitVector.from_bits(y)) == BitVector.from_bits(np.concatenate([x, y]))

    # scattered rows, and one block of rows at an offset
    scattered = rng.permutation(r1 + r2)[:r1]
    offset = int(rng.integers(0, r2 + 1))
    for positions in (scattered, np.arange(r1) + offset):
        positions = [int(k) for k in positions]
        spread = np.zeros((r1 + r2, c1), dtype=bool)
        spread[positions] = a
        assert embed_rows(ma, positions, r1 + r2) == BitMatrix.from_bool(spread)
        assert select_rows(BitMatrix.from_bool(spread), positions) == ma
    assert shift_rows(ma, offset, r1 + r2) == BitMatrix.from_bool(spread)  # the last spread is the block


def test_identity():
    eye = BitMatrix.identity(3)
    assert eye.column(0).to01() == "100"
    assert eye.column(2).to01() == "001"
