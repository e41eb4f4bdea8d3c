import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from logiczono import points
from logiczono.bitvec import BitMatrix, BitVector, Gate, elementwise_gate
from logiczono.errors import BudgetExceeded, DimensionError
from logiczono.points import (
    EnumerationBudget,
    PointSet,
    contains,
    count_points,
    encode_points,
    enumerate_points,
    is_empty,
    pointset_gate,
    witness_point,
    _unique_rows,
)
from logiczono.sets import (
    ConstrainedPolyLogicalZonotope as CPLZ,
    IdAllocator,
    drop_inert_ids,
    intersect,
    stack,
)
from conftest import naive_enumerate, random_cplz


def set01(strings):
    return PointSet.from_bitstrings(strings)


def two_valued(alloc, zero="0", one="1"):
    """{zero, zero^one} over one generator and one factor."""
    n = len(zero)
    return CPLZ.unconstrained(
        BitVector.from01(zero),
        BitMatrix.from_columns([BitVector.from01(one)], n),
        BitMatrix.identity(1),
        alloc.fresh(1),
    )


def test_singleton_enumerates_to_center(alloc):
    z = CPLZ.singleton(BitVector.from01("101"))
    assert enumerate_points(z) == set01(["101"])


def test_two_independent_generators(alloc):
    z = CPLZ.unconstrained(
        BitVector.from01("00"),
        BitMatrix.from_columns([BitVector.from01("10"), BitVector.from01("01")]),
        BitMatrix.identity(2),
        alloc.fresh(2),
    )
    assert len(enumerate_points(z)) == 4


def test_enumeration_matches_reference(rng, alloc):
    for _ in range(60):
        z = random_cplz(rng, alloc)
        assert set(enumerate_points(z).to_bitstrings()) == naive_enumerate(z)


def test_intersection_point_example(alloc):
    x01 = two_valued(alloc)
    one = CPLZ.singleton(BitVector.from01("1"))
    got = enumerate_points(intersect(x01, one, alloc))
    assert got == set01(["1"])


def test_budget_on_factor_count(alloc):
    z = CPLZ.unconstrained(
        BitVector.from01("0"),
        BitMatrix.from_bool(np.ones((1, 1), dtype=bool)),
        BitMatrix.from_bool(np.ones((10, 1), dtype=bool)),
        alloc.fresh(10),
    )
    with pytest.raises(BudgetExceeded):
        enumerate_points(z, EnumerationBudget(max_factors=5))
    # the same set fits a larger budget
    assert len(enumerate_points(z, EnumerationBudget(max_factors=12))) == 2


def test_budget_validation():
    with pytest.raises(ValueError):
        EnumerationBudget(max_factors=0)
    with pytest.raises(ValueError):
        EnumerationBudget(max_factors=64)


@pytest.mark.parametrize("n", [6, 64, 65, 130])
def test_affine_sets_skip_the_sweep(alloc, n):
    # identity exponents over more factors than the budget: listed through the
    # GF(2) basis, never swept; at n = 6 the generators are dependent
    h = 12
    rng = np.random.default_rng(n)
    lz = CPLZ.lz(
        BitVector.from_bits(rng.integers(0, 2, size=n)),
        BitMatrix.from_bool(rng.integers(0, 2, size=(n, h)).astype(bool)),
        alloc,
    )
    budget = EnumerationBudget(max_factors=h // 2)
    span = {int(lz.c.to01(), 2)}
    for g in lz.G.columns():
        span |= {x ^ int(g.to01(), 2) for x in span}
    pts = enumerate_points(lz, budget)
    assert {int(x, 2) for x in pts.to_bitstrings()} == span
    assert len(pts) == count_points(lz, budget) <= 2 ** min(n, h)
    assert not is_empty(lz, budget)


def test_is_empty_cases(alloc):
    assert not is_empty(two_valued(alloc))
    zero = CPLZ.singleton(BitVector.from01("0"))
    one = CPLZ.singleton(BitVector.from01("1"))
    assert is_empty(intersect(zero, one, alloc))
    x01 = two_valued(alloc)
    overlap = intersect(x01, one, alloc)
    assert not is_empty(overlap)
    assert enumerate_points(overlap).issubset(enumerate_points(x01))


def test_contains(alloc):
    c = BitVector.from01("10")
    assert contains(CPLZ.singleton(c), c)
    x01 = two_valued(alloc)
    assert contains(x01, BitVector.from01("1"))
    one = CPLZ.singleton(BitVector.from01("1"))
    assert not contains(intersect(x01, one, alloc), BitVector.from01("0"))
    with pytest.raises(DimensionError):
        contains(x01, BitVector.from01("10"))


def test_pointset_gate_examples():
    assert pointset_gate(Gate.XOR, set01(["1"]), set01(["0"])) == set01(["1"])
    both = set01(["0", "1"])
    assert pointset_gate(Gate.AND, both, both) == both
    quad = pointset_gate(Gate.XOR, set01(["00", "10"]), set01(["00", "01"]))
    assert quad == set01(["00", "01", "10", "11"])


def test_pointset_gate_dimension_error():
    with pytest.raises(DimensionError):
        pointset_gate(Gate.AND, set01(["1"]), set01(["10"]))


def test_sets_equal():
    p = set01(["01", "10"])
    assert p == set01(["10", "01"])
    assert set01(["0"]) != set01(["1"])
    assert set01(["0"]) != set01(["00"])


def test_cardinality_bounds(rng, alloc):
    for _ in range(30):
        z = random_cplz(rng, alloc)
        assert len(enumerate_points(z)) <= 2 ** z.p


def test_unconstrained_full_sweep(alloc):
    # independent identity exponents: exactly 2^p distinct evaluations land
    z = CPLZ.unconstrained(
        BitVector.from01("000"),
        BitMatrix.from_bool(np.eye(3, dtype=bool)),
        BitMatrix.identity(3),
        alloc.fresh(3),
    )
    assert len(enumerate_points(z)) == 8


def test_pointset_dedup_and_order():
    a = PointSet.from_bitstrings(["10", "01", "10"])
    b = PointSet.from_bitstrings(["01", "10"])
    assert len(a) == 2 and a == b
    assert a.to_bitstrings() == b.to_bitstrings()


def _struct_unique(rows):
    # reference order: np.unique over one structured uint64 field per word
    w = rows.shape[1]
    as_void = np.ascontiguousarray(rows).view([("", np.uint64)] * w).ravel()
    return np.unique(as_void).view(np.uint64).reshape(-1, w)


@pytest.mark.parametrize("w", [1, 2, 3])
def test_unique_rows_order_is_numeric_word0_first(w):
    rng = np.random.default_rng(100 + w)
    for _ in range(100):
        distinct = rng.integers(0, 2**64, size=(int(rng.integers(1, 20)), w), dtype=np.uint64)
        # shared words so later words decide some comparisons
        distinct[rng.random(distinct.shape) < 0.4] = np.uint64(7)
        rows = distinct[rng.integers(0, distinct.shape[0], size=int(rng.integers(1, 200)))]
        assert np.array_equal(_unique_rows(rows), _struct_unique(rows))
        n = 64 * (w - 1) + int(rng.integers(1, 65))
        ref = PointSet(n, rows)
        dup = np.concatenate([rows, rows[::-1], rows[: rows.shape[0] // 2]])
        shuffled = PointSet(n, dup[rng.permutation(dup.shape[0])])
        assert np.array_equal(shuffled.rows, ref.rows)
        assert shuffled.to_bitstrings() == ref.to_bitstrings()
    no_rows = np.zeros((0, w), dtype=np.uint64)
    assert _unique_rows(no_rows).shape == _struct_unique(no_rows).shape == (0, w)
    for k in range(3):
        assert _unique_rows(np.zeros((k, 0), dtype=np.uint64)).shape == (min(k, 1), 0)


@pytest.mark.parametrize("n", [10, 70])
def test_pointset_leaves_caller_rows_unchanged(n):
    # _unique_rows sorts in place; PointSet hands it a masked copy
    rng = np.random.default_rng(n)
    arr = rng.integers(0, 2**64, size=(50, (n + 63) // 64), dtype=np.uint64)
    arr = np.concatenate([arr, arr[::3]])
    before = arr.copy()
    ps = PointSet(n, arr)
    assert np.array_equal(arr, before)
    assert ps.issubset(ps) and np.array_equal(arr, before)


def test_union_subset():
    a = set01(["00", "01"])
    b = set01(["01", "11"])
    u = set01(["00", "01", "11"])
    assert a.issubset(u) and b.issubset(u) and not u.issubset(a)


def test_count_matches_enumeration(rng, alloc):
    for _ in range(20):
        z = random_cplz(rng, alloc)
        assert count_points(z) == len(enumerate_points(z))


def _point_lists(n):
    point = st.integers(0, 2**n - 1).map(lambda v: format(v, f"0{n}b"))
    return st.lists(point, min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 130).flatmap(_point_lists))
def test_encode_points_is_exact(strings):
    z = encode_points([BitVector.from01(s) for s in strings], IdAllocator())
    assert z.m == 0 and z.p == math.ceil(math.log2(len(set(strings))))
    assert z.c == BitVector.from01(strings[0])
    assert enumerate_points(z) == set01(strings)


@pytest.mark.parametrize(
    "strings",
    [["101"], ["1001", "0110"], ["0110", "0110", "1111"], ["1" * 130, "01" * 65]],
)
def test_encode_points_pairs_and_singletons(strings):
    # one or two points: the first point as center and x0 ^ x1 under an
    # identity exponent, the encoding the point shorthand has always used
    points = list(dict.fromkeys(BitVector.from01(s) for s in strings))
    gens = [elementwise_gate(Gate.XOR, points[0], x) for x in points[1:]]
    z = encode_points(points, IdAllocator())
    assert z.c == points[0]
    assert z.G == BitMatrix.from_columns(gens, points[0].n)
    assert z.E == BitMatrix.identity(len(gens))
    assert z.p == len(gens)


# --- the sweep's 32-bit lanes ------------------------------------------------


def _all_ones_set(rng, alloc, n, m=0, p=5, h=5):
    """A random set the sweep must list, with the all-ones point at alpha = 0.

    The center is all ones and no exponent column is zero, so alpha = 0
    gives the center; column 0 has degree 2, so the set is not affine.
    With m > 0, b makes alpha = 0 admissible."""
    E = rng.random((p, h)) < 0.4
    E[0, :] = True
    E[1, 0] = True
    args = (BitVector.ones(n), BitMatrix.from_bool(rng.random((n, h)) < 0.5), BitMatrix.from_bool(E))
    if not m:
        return CPLZ.unconstrained(*args, alloc.fresh(p))
    q = 3
    A = rng.random((m, q)) < 0.5
    A[m - 1, :] = True  # the top constraint row is in play
    R = rng.random((p, q)) < 0.4
    R[:, 0] = False  # a column active at alpha = 0
    b = np.bitwise_xor.reduce(A[:, ~R.any(axis=0)], axis=1)
    constraints = BitMatrix.from_bool(A), BitVector.from_bits(b), BitMatrix.from_bool(R)
    return CPLZ(*args, *constraints, alloc.fresh(p))


def _check_swept(z):
    expected = naive_enumerate(z)
    ps = enumerate_points(z)
    assert set(ps.to_bitstrings()) == expected
    assert count_points(z) == len(expected)
    rows = ps.rows
    assert rows.dtype == np.uint64 and rows.flags.c_contiguous
    assert np.array_equal(rows, _struct_unique(rows))  # sorted and distinct
    w = witness_point(z)
    assert w.words.dtype == np.uint64
    assert w.to01() in expected
    return ps, w


@pytest.mark.parametrize("n", [1, 31, 32, 33, 64, 65])
def test_sweep_lanes_match_naive_at_the_word_boundaries(alloc, n):
    rng = np.random.default_rng(n)
    for m in (0, 0, 2, 5):
        z = _all_ones_set(rng, alloc, n, m=m)
        ps, w = _check_swept(z)
        # the all-ones point sets bit n - 1 and fills a 32-bit lane at n = 32
        assert w == BitVector.ones(n) and BitVector.ones(n) in ps


@pytest.mark.parametrize("m", [31, 32, 33])
@pytest.mark.parametrize("n", [5, 32, 33])
def test_sweep_lanes_match_naive_at_the_constraint_boundaries(alloc, n, m):
    rng = np.random.default_rng(100 * n + m)
    for _ in range(3):
        z = _all_ones_set(rng, alloc, n, m=m)
        assert z.m == m and z.q > 0
        ps, w = _check_swept(z)
        assert w == BitVector.ones(n)
        # all-ones A columns XOR to all ones or all zeros, never to the top row alone
        top = np.zeros(m, dtype=int)
        top[m - 1] = 1
        none = CPLZ(z.c, z.G, z.E, BitMatrix.from_bool(np.ones((m, z.q), dtype=bool)),
                    BitVector.from_bits(top), z.R, z.id)
        assert naive_enumerate(none) == set()
        assert len(enumerate_points(none)) == count_points(none) == 0
        assert witness_point(none) is None


@pytest.mark.parametrize("n", [32, 33])
def test_sweep_lanes_merge_several_blocks(alloc, monkeypatch, n):
    rng = np.random.default_rng(7 + n)
    sets = [_all_ones_set(rng, alloc, n, m=m, p=6, h=8) for m in (0, 0, 32, 33)]
    whole = [enumerate_points(z) for z in sets]
    monkeypatch.setattr(points, "_CHUNK_BITS", 2)  # 16 blocks of 4 assignments
    for z, ref in zip(sets, whole):
        ps, w = _check_swept(z)
        assert ps == ref and np.array_equal(ps.rows, ref.rows)
        assert w == BitVector.ones(n)


# --- split enumeration: two sides joined on their shared factors -------------


def _operand(rng, n, ids):
    """A random unconstrained set over the given ids: some rows constant (no
    generator has their bit), some monomials repeated, and sometimes a
    constant-monomial column or no generator at all."""
    p, h = len(ids), int(rng.integers(0, 6))
    G = rng.random((n, h)) < 0.5
    G[rng.random(n) < 0.3, :] = False
    E = rng.random((p, h)) < 0.5
    if h > 1 and rng.random() < 0.5:
        E[:, -1] = E[:, 0]
    if h and rng.random() < 0.2:
        E[:, 0] = False
    return CPLZ.unconstrained(BitVector.from_bits(rng.integers(0, 2, size=n)), BitMatrix.from_bool(G),
                              BitMatrix.from_bool(E), ids)


def _random_stack(rng, alloc, share, widths):
    """stack() of operands whose ids are disjoint, partly shared or identical."""
    ops, ids = [], alloc.fresh(int(rng.integers(1, 4)))
    for n in widths:
        ops.append(_operand(rng, n, ids))
        if share == "disjoint":
            ids = alloc.fresh(int(rng.integers(1, 4)))
        elif share == "partly":
            ids = [i for i in ids if rng.random() < 0.5] + alloc.fresh(int(rng.integers(1, 3)))
    return ops, stack(*ops)


def _enumerate_with(monkeypatch, z, split_rows):
    monkeypatch.setattr(points, "_SPLIT_ROWS", split_rows)
    return enumerate_points(z)


ALWAYS_SPLIT, NEVER_SPLIT = -(1 << 80), 1 << 80  # _SPLIT_ROWS that make every split pay, or none


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), share=st.sampled_from(["disjoint", "partly", "identical"]),
       widths=st.lists(st.integers(1, 12), min_size=2, max_size=3))
def test_split_enumeration_matches_the_sweep_and_naive(seed, share, widths):
    rng = np.random.default_rng(seed)
    ops, z = _random_stack(rng, IdAllocator(), share, widths)
    with pytest.MonkeyPatch.context() as mp:
        split = _enumerate_with(mp, z, ALWAYS_SPLIT)
        plain = _enumerate_with(mp, z, NEVER_SPLIT)
    assert np.array_equal(split.rows, plain.rows) and split.rows.dtype == np.uint64
    assert set(split.to_bitstrings()) == naive_enumerate(z)
    if share == "disjoint":  # factor-disjoint operands are independent
        assert len(split) == math.prod(count_points(s) for s in ops)


@pytest.mark.parametrize("seed", range(6))
def test_every_partition_joins_to_the_same_points(monkeypatch, seed):
    # any two sides give the points, not only the greedy ones: the rows no
    # generator touches, one row, a random half, no row and every row
    rng = np.random.default_rng(seed)
    _, z = _random_stack(rng, IdAllocator(), ["disjoint", "partly", "identical"][seed % 3], [3, 5, 4])
    d = drop_inert_ids(z)
    expected = enumerate_points(z).rows
    monkeypatch.setattr(points, "_SPLIT_ROWS", ALWAYS_SPLIT)
    constant = sum(1 << int(i) for i in np.flatnonzero(~z.G.to_bool().any(axis=1)))
    for side in (constant, 1, int(rng.integers(0, 1 << z.n)), 0, (1 << z.n) - 1):
        got = points._distinct(points._joined(d, side), 1)
        assert np.array_equal(got.astype(np.uint64), expected), side


def _two_blocks(n, cut, fa, fb):
    """n bits: rows below ``cut`` are the AND of factors fa, the rest the AND of fb."""
    G = np.zeros((n, 2), dtype=bool)
    G[:cut, 0] = G[cut:, 1] = True
    E = np.zeros((max(fa + fb) + 1, 2), dtype=bool)
    E[fa, 0] = E[fb, 1] = True
    return CPLZ.unconstrained(BitVector.zeros(n), BitMatrix.from_bool(G), BitMatrix.from_bool(E),
                              IdAllocator().fresh(E.shape[0]))


def test_split_is_taken_only_where_it_can_apply(monkeypatch, rng, alloc):
    monkeypatch.setattr(points, "_SPLIT_ROWS", ALWAYS_SPLIT)
    z = _two_blocks(6, 2, [0, 1], [2, 3])
    assert points._split(z) == 0b11
    # a key holds the n bits and one bit per shared factor: 60 + 3 and 64 + 0
    # fit a word, 62 + 3 do not
    assert points._split(_two_blocks(60, 30, [0, 1, 2, 3], [1, 2, 3, 4])) is not None
    assert points._split(_two_blocks(64, 32, [0, 1], [2, 3])) == (1 << 32) - 1
    assert points._split(_two_blocks(62, 30, [0, 1, 2, 3], [1, 2, 3, 4])) is None
    # one group of rows, a constrained set, or points wider than one word keep the whole sweep
    assert points._split(_two_blocks(6, 2, [0, 1], [0, 1])) is None
    assert points._split(drop_inert_ids(random_cplz(rng, alloc, n=6, constrained=True, p=4))) is None
    _, wide = _random_stack(rng, alloc, "disjoint", [40, 30])
    assert points._split(drop_inert_ids(wide)) is None
    for z in (_two_blocks(60, 30, [0, 1, 2, 3], [1, 2, 3, 4]), _two_blocks(64, 32, [0, 1], [2, 3]),
              _two_blocks(62, 30, [0, 1, 2, 3], [1, 2, 3, 4]), wide):
        assert set(enumerate_points(z).to_bitstrings()) == naive_enumerate(z)
