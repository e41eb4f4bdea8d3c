import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from logiczono import cli, points
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
    canonicalize,
    drop_inert_ids,
    intersect,
    mink_and,
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


ALWAYS_PRODUCT = -(1 << 80)  # a _PRODUCT_ROWS that makes every product pay


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), share=st.sampled_from(["disjoint", "partly", "identical"]),
       widths=st.lists(st.integers(1, 12), min_size=2, max_size=3))
def test_product_counts_equal_the_enumeration(seed, share, widths):
    # with every product paying, a stack whose row groups have disjoint factor
    # sets is counted as the product of one sweep per group, none of them
    # over a shared factor: an id-disjoint stack of 2 or 3 operands has at
    # least one group per operand that reads a factor. Id-sharing stacks
    # have fewer groups. Every count equals the enumeration's length.
    rng = np.random.default_rng(seed)
    ops, z = _random_stack(rng, IdAllocator(), share, widths)
    sides, keys = [], points._side_keys
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(points, "_PRODUCT_ROWS", ALWAYS_PRODUCT)
        mp.setattr(points, "_side_keys", lambda d, side, shared: (sides.append(shared), keys(d, side, shared))[1])
        got = count_points(z)
    assert got == len(enumerate_points(z)) == len(naive_enumerate(z))
    if share == "disjoint":
        assert got == math.prod(count_points(s) for s in ops)
        reading = sum(canonicalize(s).h > 0 for s in ops)
        if reading >= 2 and points._span_form(z) is None:
            assert len(sides) >= reading and set(sides) == {0}


def _side_set(rng, n, p, side_factors):
    """An unconstrained set of n bits over p factors whose output rows in
    ``side`` (a mask word) depend on the factors ``side_factors``, scattered
    among the p, and whose other rows depend on any factors."""
    side = int(rng.integers(1, 1 << n)) if n < 64 else int(rng.integers(1, 1 << 63)) << 1 | 1
    rows = np.array([side >> i & 1 for i in range(n)], dtype=bool)
    cols = []
    for _ in range(int(rng.integers(1, 10))):  # columns that meet the side (and maybe other rows)
        g = rows & (rng.random(n) < 0.5)
        g[rng.choice(np.flatnonzero(rows))] = True
        g |= ~rows & (rng.random(n) < 0.3)
        e = np.zeros(p, dtype=bool)
        e[[k for k in side_factors if rng.random() < 0.5]] = True
        cols.append((g, e))
    for _ in range(int(rng.integers(0, 10))):  # columns off the side, over any factors
        g = ~rows & (rng.random(n) < 0.5)
        cols.append((g, rng.random(p) < 0.3))
    G = np.array([g for g, _ in cols]).T
    E = np.array([e for _, e in cols]).T
    z = CPLZ.unconstrained(BitVector.from_bits(rng.integers(0, 2, size=n)), BitMatrix.from_bool(G),
                           BitMatrix.from_bool(E), IdAllocator().fresh(p))
    return z, side


def _reference_side_keys(d, side, shared):
    """The side rebuilt as a set, as the point layer once built it: d's c and G
    cut to the side's rows, the columns that meet them and one unit column
    per shared factor, with its inert factors dropped, enumerated naively."""
    G = d.G.data[:, 0] & np.uint64(side)
    keep = G != 0
    units = [k for k in range(d.p) if shared >> k & 1]
    nk = d.n + len(units)
    G = np.concatenate([G[keep], np.uint64(1) << np.arange(d.n, nk, dtype=np.uint64)])
    E = np.concatenate([d.E.data[keep, 0], np.uint64(1) << np.array(units, dtype=np.uint64)])
    z = drop_inert_ids(CPLZ.unconstrained(BitVector(nk, d.c.words & np.uint64(side)), BitMatrix(nk, G[:, None]),
                                          BitMatrix(d.p, E[:, None]), d.id))
    return np.array(sorted(int(x[::-1], 2) for x in naive_enumerate(z)), dtype=np.uint64)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64), p=st.integers(1, 63), chunk_bits=st.sampled_from([2, 20]))
def test_side_keys_from_words_equal_the_rebuilt_side(seed, n, p, chunk_bits):
    # side keys are swept from d's words with the side's factors compacted;
    # they equal the keys of the side rebuilt as a set, x | s << n included,
    # with or without shared factors, and over several blocks when the
    # chunk is smaller than the side
    rng = np.random.default_rng(seed)
    own = sorted(rng.choice(p, size=int(rng.integers(0, min(p, 6) + 1)), replace=False).tolist())
    d, side = _side_set(rng, n, p, own)  # inert factors left in: the side drops them
    fa = _factors(d, side)
    room = min(64 - d.n, 6 - fa.bit_count())
    extra = [k for k in range(d.p) if not fa >> k & 1 and rng.random() < 0.2][:max(room, 0)]
    shared = sum(1 << k for k in range(d.p) if fa >> k & 1 and rng.random() < 0.5)
    shared = shared if d.n + shared.bit_count() <= 64 else 0
    shared |= sum(1 << k for k in extra) if d.n + (shared.bit_count() + len(extra)) <= 64 else 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(points, "_CHUNK_BITS", chunk_bits)
        got = points._side_keys(d, side, shared)
    assert got.dtype == np.uint64
    assert np.array_equal(got, _reference_side_keys(d, side, shared))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64), p=st.integers(1, 63), h=st.integers(0, 40))
def test_group_masks_equal_a_bool_product(seed, n, p, h):
    # row i's factor word has bit k iff some column with bit i has k in its
    # monomial: the bool product of G and E's transpose, in blocks of columns
    rng = np.random.default_rng(seed)
    G, E = rng.random((n, h)) < 0.3, rng.random((p, h)) < 0.2
    z = CPLZ.unconstrained(BitVector.from_bits(rng.integers(0, 2, size=n)), BitMatrix.from_bool(G),
                           BitMatrix.from_bool(E), IdAllocator().fresh(p))
    hits = (G.astype(int) @ E.T.astype(int)) > 0
    expected: dict[int, int] = {}
    for i, row in enumerate(hits):
        f = sum(1 << k for k in np.flatnonzero(row).tolist())
        expected[f] = expected.get(f, 0) | 1 << i
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(points, "_COLUMN_BLOCK", 7)
        assert dict(points._groups(z, ALWAYS_PRODUCT)) == expected


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), widths=st.lists(st.integers(1, 8), min_size=2, max_size=3))
def test_product_budget_counts_the_largest_group(seed, widths):
    # an id-disjoint stack is counted by groups: a cap that fits the largest
    # group counts it, although the stack's p is over it, and one less names
    # that group's size
    rng = np.random.default_rng(seed)
    alloc = IdAllocator()
    ops = [_operand(rng, n, alloc.fresh(int(rng.integers(2, 5)))) for n in widths]
    z = stack(*ops)
    d = drop_inert_ids(z)
    groups = points._groups(d, ALWAYS_PRODUCT)
    parts = [f for f, _ in points._disjoint(groups)] if groups else []
    largest = max([f.bit_count() for f in parts], default=0)
    if len(parts) < 2 or largest == d.p or points._span_form(z) is not None:
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(points, "_PRODUCT_ROWS", ALWAYS_PRODUCT)
        assert count_points(z, EnumerationBudget(largest)) == len(naive_enumerate(z))
        if largest > 1:
            with pytest.raises(BudgetExceeded, match=f"a group of {largest} factors exceeds the enumeration cap"):
                count_points(z, EnumerationBudget(largest - 1))
    with pytest.raises(BudgetExceeded, match=f"{d.p} factors exceed the enumeration cap of {largest}"):
        enumerate_points(z, EnumerationBudget(largest))


def _and_rows(n, k):
    """n bits, row i the AND of its own k factors: n groups of k factors."""
    E = np.zeros((n * k, n), dtype=bool)
    for i in range(n):
        E[i * k : (i + 1) * k, i] = True
    return CPLZ.unconstrained(BitVector.zeros(n), BitMatrix.from_bool(np.eye(n, dtype=bool)),
                              BitMatrix.from_bool(E), IdAllocator().fresh(n * k))


def test_product_budget_still_refuses_more_than_63_factors():
    # groups of 18 factors fit the default cap: 3 of them (p = 54) are
    # counted, 4 of them (p = 72) are over one mask word and refused
    assert count_points(_and_rows(3, 18)) == 8
    with pytest.raises(BudgetExceeded, match="72 factors exceed the enumeration cap of 24"):
        count_points(_and_rows(4, 18))


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
    full = (1 << z.n) - 1
    for side in (constant, 1, int(rng.integers(0, 1 << z.n)), 0, full):
        got = points._distinct(points._joined(d, side, _factors(d, side), _factors(d, full & ~side)), 1)
        assert np.array_equal(got.astype(np.uint64), expected), side


def _factors(d, rows):
    """The factors of the columns that meet the output rows of the mask word ``rows``."""
    meets = (d.G.data[:, 0] & np.uint64(rows)) != 0
    return int(np.bitwise_or.reduce(d.E.data[meets, 0], initial=np.uint64(0)))


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
    # side A's rows and the factors of both sides, the side with fewer factors first
    assert points._split(_two_blocks(6, 2, [0, 1], [2, 3])) == (0b11, 0b11, 0b1100)
    assert points._split(_two_blocks(6, 2, [0, 1, 2], [3])) == (0b111100, 0b1000, 0b111)
    # a key holds the n bits and one bit per shared factor: 60 + 3 and 64 + 0
    # fit a word, 62 + 3 do not
    assert points._split(_two_blocks(60, 30, [0, 1, 2, 3], [1, 2, 3, 4])) == ((1 << 30) - 1, 0b1111, 0b11110)
    assert points._split(_two_blocks(64, 32, [0, 1], [2, 3])) == ((1 << 32) - 1, 0b11, 0b1100)
    assert points._split(_two_blocks(62, 30, [0, 1, 2, 3], [1, 2, 3, 4])) is None
    # one group of rows, a constrained set, or points wider than one word keep the whole sweep
    assert points._split(_two_blocks(6, 2, [0, 1], [0, 1])) is None
    assert points._split(drop_inert_ids(random_cplz(rng, alloc, n=6, constrained=True, p=4))) is None
    _, wide = _random_stack(rng, alloc, "disjoint", [40, 30])
    assert points._split(drop_inert_ids(wide)) is None
    for z in (_two_blocks(60, 30, [0, 1, 2, 3], [1, 2, 3, 4]), _two_blocks(64, 32, [0, 1], [2, 3]),
              _two_blocks(62, 30, [0, 1, 2, 3], [1, 2, 3, 4]), wide):
        assert set(enumerate_points(z).to_bitstrings()) == naive_enumerate(z)


def _mink_and_sets():
    """The mink_and sets of ``intersect --dim 10 --seed 7 --trials 20``, each with its operands."""
    for t in range(20):
        alloc = IdAllocator()
        rng = np.random.default_rng([7, t])
        l1 = cli._random_lz(rng, 10, 9, alloc)
        l2 = cli._random_lz(rng, 10, 9, alloc)
        yield l1, l2, mink_and(l1, l2, alloc)


def test_split_counts_one_join_row_per_shared_value(monkeypatch):
    # the sides of trial 0 share 15 of their 16 and 17 factors: every value
    # of the shared ones meets both sides, so the join has at least 2^15
    # rows and the split does not pay
    _, _, z = next(_mink_and_sets())
    d = drop_inert_ids(z)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(points, "_SPLIT_ROWS", ALWAYS_SPLIT)
        _, fa, fb = points._split(d)
        forced = enumerate_points(z)
    assert (fa.bit_count(), fb.bit_count(), (fa & fb).bit_count()) == (16, 17, 15)
    assert points._split(d) is None
    assert np.array_equal(forced.rows, _enumerate_with(monkeypatch, z, NEVER_SPLIT).rows)


def test_joined_sweeps_whole_when_the_join_bound_does_not_pay(monkeypatch):
    # a side sweep is over side A's factors, the whole sweep over all p live
    # factors: a fallback sweeps one side, then the set
    sweep, widths = points._sweep, []
    monkeypatch.setattr(points, "_sweep", lambda p, *words: widths.append(p) or sweep(p, *words))
    fell_back = 0
    for l1, l2, z in _mink_and_sets():
        widths.clear()
        ps = enumerate_points(z)
        fell_back += len(widths) == 2 and widths[0] < drop_inert_ids(z).p == widths[1]
        with pytest.MonkeyPatch.context() as mp:
            assert np.array_equal(ps.rows, _enumerate_with(mp, z, NEVER_SPLIT).rows)
        assert ps == pointset_gate(Gate.AND, enumerate_points(l1), enumerate_points(l2))
    assert fell_back >= 1


# --- witnesses ---------------------------------------------------------------


def test_witness_of_an_unconstrained_set_needs_no_budget(alloc):
    # 12 bits, 40 degree-2 monomials over 30 factors and one constant column:
    # far over the factor budget, yet alpha = 0 is admissible, so the set has
    # the member c XOR the constant column, with or without constraint
    # columns or rows that constrain nothing
    rng = np.random.default_rng(3)
    n, h, p = 12, 41, 30
    E = np.zeros((p, h), dtype=bool)
    for j in range(1, h):
        E[rng.choice(p, size=2, replace=False), j] = True
    G, c = rng.random((n, h)) < 0.5, rng.integers(0, 2, size=n).astype(bool)
    z = CPLZ.unconstrained(BitVector.from_bits(c), BitMatrix.from_bool(G), BitMatrix.from_bool(E), alloc.fresh(p))
    assert drop_inert_ids(z).p > points.DEFAULT_MAX_FACTORS
    with pytest.raises(BudgetExceeded):
        enumerate_points(z)
    expected = BitVector.from_bits(c ^ G[:, 0])
    no_rows = BitMatrix.from_bool(np.zeros((0, 2), dtype=bool)), BitVector.from_bits([])
    fixed = BitMatrix.from_bool(np.zeros((2, 0), dtype=bool))
    for A, b, R in ((*no_rows, BitMatrix.from_bool(rng.random((p, 2)) < 0.5)),
                    (fixed, BitVector.zeros(2), BitMatrix.from_bool(np.zeros((p, 0), dtype=bool)))):
        assert witness_point(CPLZ(z.c, z.G, z.E, A, b, R, z.id)) == expected
    assert witness_point(z) == expected and not is_empty(z)
    unsat = CPLZ(z.c, z.G, z.E, fixed, BitVector.from01("01"), BitMatrix.from_bool(np.zeros((p, 0), dtype=bool)),
                 z.id)
    assert witness_point(unsat) is None and is_empty(unsat)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["unconstrained", "constrained", "fixed", "no rows"]))
def test_witness_is_a_member(seed, kind):
    rng = np.random.default_rng(seed)
    z = random_cplz(rng, IdAllocator(), constrained=kind == "constrained")
    if kind == "fixed":  # 0 == b: every assignment is admissible, or none
        z = CPLZ(z.c, z.G, z.E, BitMatrix.from_bool(np.zeros((2, 0), dtype=bool)),
                 BitVector.from_bits(rng.integers(0, 2, size=2)), BitMatrix.from_bool(np.zeros((z.p, 0), dtype=bool)),
                 z.id)
    elif kind == "no rows":  # constraint columns without rows constrain nothing
        z = CPLZ(z.c, z.G, z.E, BitMatrix.from_bool(np.zeros((0, 2), dtype=bool)), BitVector.from_bits([]),
                 BitMatrix.from_bool(rng.random((z.p, 2)) < 0.5), z.id)
    ps, w = enumerate_points(z), witness_point(z)
    assert set(ps.to_bitstrings()) == naive_enumerate(z)
    assert (w is None) == (len(ps) == 0) == is_empty(z)
    assert w is None or w in ps
