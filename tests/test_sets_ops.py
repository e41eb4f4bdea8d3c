import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from logiczono.bitvec import BitMatrix, BitVector, Gate, _move_rows, blkdiag, concat, n_words, pad_mask
from logiczono.errors import DimensionError
from logiczono.points import PointSet, enumerate_points
from logiczono.sets import (
    ConstrainedPolyLogicalZonotope as CPLZ,
    IdAllocator,
    _compose,
    apply_gate,
    canonicalize,
    drop_inert_ids,
    exact_and,
    exact_xor,
    intersect,
    intersect_overapprox_lz,
    lz_flatten,
    mink_and,
    mink_xor,
    negate,
    refresh_ids,
    stack,
)
from conftest import naive_enumerate, naive_gate, naive_not, random_cplz, same_set


def set01(strings):
    return PointSet.from_bitstrings(strings)


def two_valued(alloc):
    return CPLZ.unconstrained(
        BitVector.from01("0"),
        BitMatrix.from_columns([BitVector.from01("1")]),
        BitMatrix.identity(1),
        alloc.fresh(1),
    )


def singleton(bits):
    return CPLZ.singleton(BitVector.from01(bits))


# --- id management -----------------------------------------------------------


def test_unique_ids_monotone():
    alloc = IdAllocator()
    assert alloc.fresh(3) == [1, 2, 3]
    assert alloc.fresh(2) == [4, 5]
    assert alloc.fresh(0) == []


def _placed(z, m, ids):
    """Bool reference keyed by id: z's row of each id at that id's merged row, foreign rows zero."""
    by_id = dict(zip(z.id, m.to_bool()))
    ref = np.zeros((len(ids), m.cols), dtype=bool)
    for k, ident in enumerate(ids):
        if ident in by_id:
            ref[k] = by_id[ident]
    return BitMatrix.from_bool(ref).data


def _assert_composed_constraints(sets, ids, A, b, R):
    """A, b and R are the constrained operands' blocks, R's rows placed by id."""
    held = [z for z in sets if z.m or z.q]
    if not held:
        assert A.rows == A.cols == b.n == 0 and R.shape == (0, n_words(len(ids)))
        return
    assert A == blkdiag(*(z.A for z in held)) and b == concat(*(z.b for z in held))
    assert np.array_equal(R, np.concatenate([_placed(z, z.R, ids) for z in held]))


def test_compose_keeps_identical_ids(alloc):
    a = random_cplz(np.random.default_rng(0), IdAllocator(), n=2, p=3, constrained=True)
    b = CPLZ(a.c, a.G, a.E, a.A, a.b, a.R, a.id)
    free = CPLZ.unconstrained(a.c, a.G, a.E, a.id)
    ids, (E1, E2), A, bb, R = _compose(a, b)
    assert ids == a.id
    assert E1 is a.E.data and E2 is b.E.data
    _assert_composed_constraints((a, b), ids, A, bb, R)
    # one constrained operand: its own constraint parts, nothing composed
    ids, (E1, E2), A, bb, R = _compose(free, a)
    assert E1 is free.E.data and E2 is a.E.data
    assert A is a.A and bb is a.b and R is a.R.data


def test_compose_disjoint_ids(alloc):
    x = two_valued(alloc)  # id [1]
    y = two_valued(alloc)  # id [2]
    ids, (E1, E2), A, b, R = _compose(x, y)
    assert list(ids) == [1, 2]
    assert BitMatrix(2, E1).column(0).to01() == "10"
    assert BitMatrix(2, E2).column(0).to01() == "01"
    _assert_composed_constraints((x, y), ids, A, b, R)


def test_compose_overlapping_ids_keeps_the_points():
    # ids [1,3] and [3,2] merge to [1,2,3], point sets untouched
    rng = np.random.default_rng(5)
    a1 = IdAllocator()
    x = random_cplz(rng, a1, n=3, p_max=2)
    while x.p != 2:
        x = random_cplz(rng, a1, n=3, p_max=2)
    x = CPLZ(x.c, x.G, x.E, x.A, x.b, x.R, [1, 3])
    y = random_cplz(rng, a1, n=3, p_max=2)
    while y.p != 2:
        y = random_cplz(rng, a1, n=3, p_max=2)
    y = CPLZ(y.c, y.G, y.E, y.A, y.b, y.R, [3, 2])
    ids, Es, A, b, R = _compose(x, y)
    assert list(ids) == [1, 2, 3]
    _assert_composed_constraints((x, y), ids, A, b, R)
    for z, E in zip((x, y), Es):
        z2 = CPLZ(z.c, z.G, BitMatrix(3, E), z.A, z.b, BitMatrix(3, _placed(z, z.R, ids)), ids)
        assert set(enumerate_points(z2).to_bitstrings()) == naive_enumerate(z)


ID_RELATIONS = ("identical", "permuted", "prefix", "disjoint", "partial", "c1_leads")


def _related_ids(rng, alloc, id1, relation):
    """c2's ids in the given relation to c1's."""
    pick = lambda ids: [ids[k] for k in rng.permutation(len(ids))]
    if relation == "identical":
        return list(id1)
    if relation == "permuted":
        return pick(id1)
    if relation == "prefix":
        return id1[: int(rng.integers(0, len(id1) + 1))]
    if relation == "disjoint":
        return alloc.fresh(int(rng.choice([0, 1, 63, 64, 65, 100])))
    if relation == "partial":
        return pick(pick(id1)[: int(rng.integers(0, len(id1) + 1))] + alloc.fresh(int(rng.integers(1, 40))))
    # c1's ids lead c2's, which add enough to pass the next word boundary
    return list(id1) + alloc.fresh(64 * (len(id1) // 64 + 1) - len(id1) + int(rng.integers(1, 4)))


def _operand_over(rng, ids, constrained, n=3):
    p, h = len(ids), int(rng.integers(0, 4))
    bits = lambda *shape: rng.integers(0, 2, size=shape).astype(bool)
    c, G, E = BitVector.from_bits(bits(n)), BitMatrix.from_bool(bits(n, h)), BitMatrix.from_bool(bits(p, h))
    if not constrained:
        return CPLZ.unconstrained(c, G, E, ids)
    q = int(rng.integers(1, 3))
    return CPLZ(c, G, E, BitMatrix.from_bool(bits(1, q)), BitVector.from_bits(bits(1)), BitMatrix.from_bool(bits(p, q)), ids)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p1=st.sampled_from([0, 1, 63, 64, 65, 100]),
    relation=st.sampled_from(ID_RELATIONS),
    constrained=st.sampled_from(["none", "first", "second", "both"]),
)
def test_compose_and_stack_place_rows_by_id_across_words(seed, p1, relation, constrained):
    rng = np.random.default_rng(seed)
    alloc = IdAllocator()
    id1 = alloc.fresh(p1)
    x = _operand_over(rng, id1, constrained in ("first", "both"))
    y = _operand_over(rng, _related_ids(rng, alloc, id1, relation), constrained in ("second", "both"))
    merged, Es, A, b, R = _compose(x, y)
    joint = stack(x, y)
    ids = tuple(sorted(set(x.id) | set(y.id)))
    assert merged == joint.id == ids
    for z, E in zip((x, y), Es):
        assert np.array_equal(E, _placed(z, z.E, ids))
    _assert_composed_constraints((x, y), ids, A, b, R)
    assert np.array_equal(joint.E.data, np.concatenate([_placed(x, x.E, ids), _placed(y, y.E, ids)]))
    assert joint.A == A and joint.b == b
    assert np.array_equal(joint.R.data, R)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p1=st.sampled_from([0, 1, 63, 64, 65, 100, 130]),
    relation=st.sampled_from(ID_RELATIONS),
    constrained=st.booleans(),
)
def test_built_words_keep_their_padding_zero(seed, p1, relation, constrained):
    # 70 bits and up to 130 ids per operand leave the last word of G, E and R
    # partly padding; the operations wrap the words they build without masking
    rng = np.random.default_rng(seed)
    alloc = IdAllocator()
    x = _operand_over(rng, alloc.fresh(p1), constrained, n=70)
    y = _operand_over(rng, _related_ids(rng, alloc, list(x.id), relation), constrained, n=70)
    built = [apply_gate(g, x, y, alloc, mode) for g in Gate for mode in ("exact", "minkowski")]
    built += [stack(x, y), intersect(x, y, alloc)]
    built += [canonicalize(s) for s in built] + [drop_inert_ids(s) for s in built]
    for s in built:
        for m in (s.G, s.E, s.A, s.R):
            assert not (m.data & ~pad_mask(m.rows)).any()


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 3, 65]),
    starts=st.tuples(st.integers(1, 8), st.integers(1, 8)),
)
def test_gates_give_one_result_in_either_operand_order(seed, n, starts):
    # operands whose ids coincide, overlap or sit one above the other
    rng = np.random.default_rng(seed)
    a = random_cplz(rng, IdAllocator(starts[0]), n=n, h_max=3, p_max=4)
    b = random_cplz(rng, IdAllocator(starts[1]), n=n, h_max=3, p_max=4)
    pairs = [(z[:n], z[n:]) for z in naive_stacked_product([a, b])]
    # constraint blocks follow the operand order, which a gate keeps unless it swaps
    swaps = a.p and b.p and (min(a.id) > max(b.id) or min(b.id) > max(a.id))
    one_order = not (a.m and b.m) or swaps
    for gate in Gate:
        ab, ba = (canonicalize(apply_gate(gate, x, y, IdAllocator(100), "exact")) for x, y in ((a, b), (b, a)))
        assert (ab.c, ab.G, ab.E, ab.id) == (ba.c, ba.G, ba.E, ba.id)
        assert not one_order or (ab.A, ab.b, ab.R) == (ba.A, ba.b, ba.R)
        assert naive_enumerate(ab) == set().union(*(naive_gate(gate.value, {x}, {y}) for x, y in pairs))


def test_an_input_or_a_state_comes_out_canonical(rng, alloc):
    # U1 | B on the shipped circuit: a one-column input with an id above the
    # state's, in either operand; the gate puts it second, so its columns
    # come out in monomial order, and with no zero payload canonicalize keeps it
    for _ in range(20):
        state = canonicalize(random_cplz(rng, alloc, n=10, h_max=8, p_max=6, constrained=False))
        if state.c == BitVector.ones(10):
            state = negate(state)
        u1 = CPLZ.lz(BitVector.zeros(10), BitMatrix.from_columns([BitVector.ones(10)]), alloc)
        for x, y in ((u1, state), (state, u1)):
            out = apply_gate(Gate.OR, x, y, alloc, "exact")
            assert canonicalize(out) is out
        noisy = CPLZ.lz(BitVector.from_bits(rng.integers(0, 2, size=10)), u1.G, alloc)
        keys = [as_int(e) for e in apply_gate(Gate.OR, noisy, state, alloc, "exact").E.columns()]
        assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))


# --- minkowski operations -----------------------------------------------------


def test_mink_xor_examples(alloc):
    assert enumerate_points(mink_xor(singleton("1"), singleton("0"), alloc)) == set01(["1"])
    got = mink_xor(two_valued(alloc), singleton("1"), alloc)
    assert enumerate_points(got) == set01(["0", "1"])


def test_mink_xor_two_bit_cover(alloc):
    c1 = CPLZ.unconstrained(
        BitVector.from01("00"),
        BitMatrix.from_columns([BitVector.from01("10")]),
        BitMatrix.identity(1),
        alloc.fresh(1),
    )
    c2 = CPLZ.unconstrained(
        BitVector.from01("00"),
        BitMatrix.from_columns([BitVector.from01("01")]),
        BitMatrix.identity(1),
        alloc.fresh(1),
    )
    assert enumerate_points(mink_xor(c1, c2, alloc)) == set01(["00", "01", "10", "11"])


def test_mink_shapes(rng, alloc):
    for _ in range(20):
        c1 = random_cplz(rng, alloc, n=3)
        c2 = random_cplz(rng, alloc, n=3)
        x = mink_xor(c1, c2, alloc)
        assert x.h == c1.h + c2.h
        assert x.p == c1.p + c2.p
        assert x.m == c1.m + c2.m and x.q == c1.q + c2.q
        a = mink_and(c1, c2, alloc)
        assert a.h == c1.h + c2.h + c1.h * c2.h
        assert a.p == c1.p + c2.p


def test_mink_and_examples(alloc):
    assert enumerate_points(mink_and(singleton("1"), singleton("1"), alloc)) == set01(["1"])
    got = mink_and(two_valued(alloc), singleton("1"), alloc)
    assert enumerate_points(got) == set01(["0", "1"])
    both = mink_and(two_valued(alloc), two_valued(alloc), alloc)
    assert enumerate_points(both) == set01(["0", "1"])


def test_mink_dimension_error(alloc):
    with pytest.raises(DimensionError):
        mink_xor(singleton("1"), singleton("10"), alloc)
    with pytest.raises(DimensionError):
        mink_and(singleton("1"), singleton("10"), alloc)


def test_mink_ops_vs_pointwise_oracle(rng, alloc):
    for _ in range(40):
        c1 = random_cplz(rng, alloc, n=3)
        c2 = random_cplz(rng, alloc, n=3)
        p1, p2 = naive_enumerate(c1), naive_enumerate(c2)
        got_xor = set(enumerate_points(mink_xor(c1, c2, alloc)).to_bitstrings())
        assert got_xor == naive_gate("xor", p1, p2)
        got_and = set(enumerate_points(mink_and(c1, c2, alloc)).to_bitstrings())
        assert got_and == naive_gate("and", p1, p2)


# --- negate and derived gates --------------------------------------------------


def test_negate_examples(alloc):
    assert enumerate_points(negate(singleton("10"))) == set01(["01"])
    pair = CPLZ.unconstrained(
        BitVector.from01("00"),
        BitMatrix.from_columns([BitVector.from01("10")]),
        BitMatrix.identity(1),
        alloc.fresh(1),
    )
    assert enumerate_points(negate(pair)) == set01(["11", "01"])


def test_negate_involution(rng, alloc):
    for _ in range(20):
        c = random_cplz(rng, alloc)
        assert enumerate_points(negate(negate(c))) == enumerate_points(c)
        assert negate(c).id == c.id


def test_derived_gate_truth_tables(alloc):
    cases = {
        Gate.XNOR: naive_gate("xnor", {"0", "1"}, {"0", "1"}),
        Gate.NAND: naive_gate("nand", {"0", "1"}, {"0", "1"}),
        Gate.OR: naive_gate("or", {"0", "1"}, {"0", "1"}),
        Gate.NOR: naive_gate("nor", {"0", "1"}, {"0", "1"}),
    }
    for gate in cases:
        for mode in ("minkowski", "exact"):
            for x in "01":
                for y in "01":
                    got = apply_gate(gate, singleton(x), singleton(y), alloc, mode)
                    want = naive_gate(gate.value, {x}, {y})
                    assert set(enumerate_points(got).to_bitstrings()) == want, (gate, mode, x, y)


def test_derived_gate_examples(alloc):
    assert enumerate_points(
        apply_gate(Gate.NAND, singleton("1"), singleton("1"), alloc, "minkowski")
    ) == set01(["0"])
    got = apply_gate(Gate.OR, two_valued(alloc), singleton("0"), alloc, "minkowski")
    assert enumerate_points(got) == set01(["0", "1"])
    assert enumerate_points(
        apply_gate(Gate.NOR, singleton("0"), singleton("0"), alloc, "minkowski")
    ) == set01(["1"])


def test_derived_gates_vs_pointwise_oracle(rng, alloc):
    for _ in range(25):
        c1 = random_cplz(rng, alloc, n=2)
        c2 = random_cplz(rng, alloc, n=2)
        p1, p2 = naive_enumerate(c1), naive_enumerate(c2)
        for gate in (Gate.XNOR, Gate.NAND, Gate.OR, Gate.NOR):
            got = apply_gate(gate, c1, c2, alloc, "minkowski")
            assert set(enumerate_points(got).to_bitstrings()) == naive_gate(gate.value, p1, p2)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 3, 65]), shared=st.booleans())
def test_minkowski_gates_are_exact_gates_on_fresh_ids(seed, n, shared):
    rng = np.random.default_rng(seed)
    c1 = random_cplz(rng, IdAllocator(), n=n)
    c2 = random_cplz(rng, IdAllocator(1 if shared else 50), n=n)

    def exact_on_copies(gate):
        alloc = IdAllocator(100)
        return apply_gate(gate, refresh_ids(c1, alloc), refresh_ids(c2, alloc), alloc, "exact")

    for gate in Gate:
        assert same_set(apply_gate(gate, c1, c2, IdAllocator(100), "minkowski"), exact_on_copies(gate))
    assert same_set(mink_xor(c1, c2, IdAllocator(100)), exact_on_copies(Gate.XOR))
    assert same_set(mink_and(c1, c2, IdAllocator(100)), exact_on_copies(Gate.AND))


# --- exact operations ----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 3, 65]), offset=st.integers(0, 5))
def test_exact_de_morgan(seed, n, offset):
    # b's ids start at 1 + offset, so the operands share all, some or none of a's ids;
    # an exact gate acts per factor assignment, so its points are the gate on the pairs of stack(a, b)
    rng = np.random.default_rng(seed)
    a = random_cplz(rng, IdAllocator(), n=n, h_max=3, p_max=4)
    b = random_cplz(rng, IdAllocator(1 + offset), n=n, h_max=3, p_max=4)
    pairs = [(z[:n], z[n:]) for z in naive_enumerate(stack(a, b))]
    alloc = IdAllocator(100)
    for gate, dual, name in ((Gate.AND, Gate.OR, "nand"), (Gate.OR, Gate.AND, "nor")):
        want = set().union(*(naive_gate(name, {x}, {y}) for x, y in pairs))
        assert naive_enumerate(negate(apply_gate(gate, a, b, alloc, "exact"))) == want
        assert naive_enumerate(apply_gate(dual, negate(a), negate(b), alloc, "exact")) == want


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 3, 65, 130]), offset=st.integers(0, 6))
def test_exact_gates_are_their_de_morgan_compositions(seed, n, offset):
    # b's ids start at 1 + offset, so the operands share all, some or none of a's ids
    rng = np.random.default_rng(seed)
    a = random_cplz(rng, IdAllocator(), n=n)
    b = random_cplz(rng, IdAllocator(1 + offset), n=n)
    compositions = {
        Gate.XOR: exact_xor(a, b),
        Gate.AND: exact_and(a, b),
        Gate.XNOR: negate(exact_xor(a, b)),
        Gate.NAND: negate(exact_and(a, b)),
        Gate.OR: negate(exact_and(negate(a), negate(b))),
        Gate.NOR: exact_and(negate(a), negate(b)),
    }
    for gate, want in compositions.items():
        assert same_set(apply_gate(gate, a, b, IdAllocator(100), "exact"), want)


def test_exact_xor_self_cancels(rng, alloc):
    for _ in range(15):
        x = random_cplz(rng, alloc, n=3)
        got = enumerate_points(exact_xor(x, x))
        if len(naive_enumerate(x)) == 0:
            assert len(got) == 0
        else:
            assert got == set01(["000"])


def test_exact_xor_examples(alloc):
    x = two_valued(alloc)
    y = singleton("1")
    assert enumerate_points(exact_xor(x, y)) == set01(["0", "1"])
    other = two_valued(alloc)  # disjoint id
    assert enumerate_points(exact_xor(x, other)) == set01(["0", "1"])


def test_exact_and_idempotent(rng, alloc):
    for _ in range(15):
        x = random_cplz(rng, alloc, n=3)
        got = set(enumerate_points(exact_and(x, x)).to_bitstrings())
        assert got == naive_enumerate(x)


def test_exact_and_examples(alloc):
    assert enumerate_points(exact_and(singleton("1"), singleton("0"))) == set01(["0"])
    x, y = two_valued(alloc), two_valued(alloc)
    exact = enumerate_points(exact_and(x, y))
    mink = enumerate_points(mink_and(x, y, alloc))
    assert exact == mink == set01(["0", "1"])


def test_exact_ops_with_disjoint_ids_match_minkowski(rng, alloc):
    for _ in range(20):
        c1 = random_cplz(rng, alloc, n=3)
        c2 = random_cplz(rng, alloc, n=3)
        assert enumerate_points(exact_xor(c1, c2)) == enumerate_points(mink_xor(c1, c2, alloc))
        assert enumerate_points(exact_and(c1, c2)) == enumerate_points(mink_and(c1, c2, alloc))


def test_exact_ops_preserve_shared_dependencies(alloc):
    # y is x shifted through a NOT: same factor, so x XOR y is constant
    x = two_valued(alloc)
    y = negate(x)
    got = enumerate_points(exact_xor(x, y))
    assert got == set01(["1"])


# --- intersection ---------------------------------------------------------------


def test_intersect_examples(alloc):
    x01 = two_valued(alloc)
    one = singleton("1")
    assert enumerate_points(intersect(x01, one, alloc)) == set01(["1"])
    empty = intersect(singleton("0"), singleton("1"), alloc)
    assert len(enumerate_points(empty)) == 0


def test_intersect_idempotent_on_copies(rng, alloc):
    for _ in range(15):
        c = random_cplz(rng, alloc, n=3)
        again = refresh_ids(c, alloc)
        got = set(enumerate_points(intersect(c, again, alloc)).to_bitstrings())
        assert got == naive_enumerate(c)


def test_intersect_shape(rng, alloc):
    for _ in range(20):
        c1 = random_cplz(rng, alloc, n=4)
        c2 = random_cplz(rng, alloc, n=4)
        out = intersect(c1, c2, alloc)
        assert out.m == c1.m + c2.m + c1.n
        assert out.q == c1.q + c2.q + c1.h + c2.h
        assert out.h == c1.h
        assert out.p == c1.p + c2.p


def test_intersect_is_exact(rng, alloc):
    for _ in range(40):
        c1 = random_cplz(rng, alloc, n=3)
        c2 = random_cplz(rng, alloc, n=3)
        got = set(enumerate_points(intersect(c1, c2, alloc)).to_bitstrings())
        assert got == naive_enumerate(c1) & naive_enumerate(c2)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 3, 65]))
def test_intersect_commutes_in_points(seed, n):
    rng = np.random.default_rng(seed)
    alloc = IdAllocator()
    c1 = random_cplz(rng, alloc, n=n, h_max=3, p_max=3)
    c2 = random_cplz(rng, alloc, n=n, h_max=3, p_max=3)
    both = naive_enumerate(c1) & naive_enumerate(c2)
    assert naive_enumerate(intersect(c1, c2, alloc)) == naive_enumerate(intersect(c2, c1, alloc)) == both


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 3, 65]))
def test_intersect_with_itself_keeps_the_points(seed, n):
    rng = np.random.default_rng(seed)
    a = random_cplz(rng, IdAllocator(), n=n, h_max=3, p_max=4)
    assert naive_enumerate(intersect(a, a, IdAllocator(100))) == naive_enumerate(a)


def random_lz(rng, alloc, n, h):
    return CPLZ.lz(
        BitVector.from_bits(rng.integers(0, 2, size=n)),
        BitMatrix.from_bool(rng.integers(0, 2, size=(n, h)).astype(bool)),
        alloc,
    )


def test_lz_overapprox_examples(alloc):
    s1 = CPLZ.lz(BitVector.from01("1"), BitMatrix.zeros(1, 0), alloc)
    out = intersect_overapprox_lz(s1, s1, alloc)
    assert enumerate_points(out) == set01(["1"])
    l1 = CPLZ.lz(BitVector.from01("0"), BitMatrix.from_columns([BitVector.from01("1")]), alloc)
    l2 = CPLZ.lz(BitVector.from01("1"), BitMatrix.zeros(1, 0), alloc)
    out = intersect_overapprox_lz(l1, l2, alloc)
    assert out.c.to01() == "0" and out.h == 1 and out.G.column(0).to01() == "1"
    assert out.E == BitMatrix.identity(1) and out.m == out.q == 0
    assert enumerate_points(out) == set01(["0", "1"])


def test_lz_overapprox_contains_exact(rng, alloc):
    for _ in range(25):
        n = int(rng.integers(1, 6))
        l1 = random_lz(rng, alloc, n, 3)
        l2 = random_lz(rng, alloc, n, 3)
        exact = enumerate_points(intersect(l1, l2, alloc))
        over = enumerate_points(intersect_overapprox_lz(l1, l2, alloc))
        assert exact.issubset(over)


def test_lz_overapprox_sound_for_any_input(rng, alloc):
    # only c and G are read: the AND of the LZ hulls covers every common point
    for _ in range(40):
        c1 = random_cplz(rng, alloc, n=3)
        c2 = random_cplz(rng, alloc, n=3)
        over = set(enumerate_points(intersect_overapprox_lz(c1, c2, alloc)).to_bitstrings())
        assert naive_enumerate(c1) & naive_enumerate(c2) <= over


# --- LZ form / canonicalize / stack ----------------------------------------------


def test_lz_form_levels(alloc):
    l = CPLZ.lz(BitVector.from01("01"), BitMatrix.from_columns([BitVector.from01("10")]), alloc)
    assert l.E == BitMatrix.identity(1) and l.p == 1
    assert l.m == 0 and l.q == 0
    m = CPLZ.lz(l.c, l.G, alloc)
    assert set(m.id).isdisjoint(l.id)
    assert enumerate_points(l) == set01(["01", "11"])


def test_lz_form_points_are_the_span(rng, alloc):
    for _ in range(15):
        n = int(rng.integers(1, 7))
        h = int(rng.integers(0, 5))
        l = random_lz(rng, alloc, n, h)
        assert set(enumerate_points(l).to_bitstrings()) == naive_enumerate(l)


def test_canonicalize_duplicate_columns(alloc):
    ids = alloc.fresh(1)
    z = CPLZ.unconstrained(
        BitVector.from01("0"),
        BitMatrix.from_columns([BitVector.from01("1"), BitVector.from01("1")]),
        BitMatrix.from_bool(np.array([[True, True]])),
        ids,
    )
    out = canonicalize(z)
    assert out.h == 0 and out.c.to01() == "0"
    assert enumerate_points(out) == set01(["0"])
    # one monomial, two payloads: the columns merge into their XOR
    z = CPLZ.unconstrained(
        BitVector.from01("000"),
        BitMatrix.from_columns([BitVector.from01("110"), BitVector.from01("011")]),
        BitMatrix.from_bool(np.array([[True, True]])),
        ids,
    )
    out = canonicalize(z)
    assert out.h == 1 and out.G.column(0).to01() == "101" and out.E == BitMatrix.identity(1)
    assert enumerate_points(out) == set01(["000", "101"])


def test_canonicalize_constant_column(alloc):
    z = CPLZ.unconstrained(
        BitVector.from01("00"),
        BitMatrix.from_columns([BitVector.from01("11")]),
        BitMatrix.zeros(1, 1),
        alloc.fresh(1),
    )
    out = canonicalize(z)
    assert out.h == 0 and out.c.to01() == "11"


def test_canonicalize_preserves_points(rng, alloc):
    for _ in range(30):
        z = random_cplz(rng, alloc)
        assert set(enumerate_points(canonicalize(z)).to_bitstrings()) == naive_enumerate(z)


def spread_factors(rng, z, alloc, p_total):
    """z with its factor rows scattered over p_total rows; the other rows are inert."""
    positions = [int(k) for k in rng.permutation(p_total)[: z.p]]
    spread = lambda m: BitMatrix(p_total, _move_rows(m.data, range(z.p), positions, p_total))
    return CPLZ(z.c, z.G, spread(z.E), z.A, z.b, spread(z.R), alloc.fresh(p_total))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 3, 65]),
    p_total=st.sampled_from([0, 6, 63, 64, 65, 130]),
)
def test_normalization_laws(seed, n, p_total):
    # few factors and many columns, so monomials repeat; inert rows put the
    # exponent keys across several words
    rng = np.random.default_rng(seed)
    alloc = IdAllocator()
    z = random_cplz(rng, alloc, n=n, h_max=8, p_max=4)
    points = naive_enumerate(z)
    big = spread_factors(rng, z, alloc, max(p_total, z.p))

    for s in (z, big):
        out = canonicalize(s)
        assert same_set(canonicalize(out), out)
        assert out.h <= s.h
        assert (out.A, out.b, out.R, out.id) == (s.A, s.b, s.R, s.id)
        exponents = out.E.columns()
        assert len(set(exponents)) == out.h
        assert BitVector.zeros(out.p) not in exponents
        assert BitVector.zeros(out.n) not in out.G.columns()
        assert naive_enumerate(drop_inert_ids(out)) == points

    live = drop_inert_ids(big)
    assert naive_enumerate(live) == points
    assert (live.E.to_bool().any(axis=1) | live.R.to_bool().any(axis=1)).all()
    assert set(live.id) <= set(big.id) and live.p <= z.p


def test_stack_shared_and_independent(alloc):
    x = two_valued(alloc)
    diag = enumerate_points(stack(x, x))
    assert diag == set01(["00", "11"])
    y = refresh_ids(x, alloc)
    full = enumerate_points(stack(x, y))
    assert full == set01(["00", "01", "10", "11"])


def _sparse_operand(rng, ids, n, constrained):
    """A set over the given ids with at most two live factors, so a stack of
    three stays small enough to enumerate by plain assignment."""
    p, h = len(ids), int(rng.integers(0, 4))
    bits = lambda *shape: rng.integers(0, 2, size=shape).astype(bool)
    live = rng.permutation(p)[:2]
    E = np.zeros((p, h), dtype=bool)
    E[live] = bits(len(live), h)
    c, G = BitVector.from_bits(bits(n)), BitMatrix.from_bool(bits(n, h))
    if not constrained:
        return CPLZ.unconstrained(c, G, BitMatrix.from_bool(E), ids)
    q = int(rng.integers(1, 3))
    R = np.zeros((p, q), dtype=bool)
    R[live] = bits(len(live), q)
    A, b = BitMatrix.from_bool(bits(1, q)), BitVector.from_bits(bits(1))
    return CPLZ(c, G, BitMatrix.from_bool(E), A, b, BitMatrix.from_bool(R), ids)


def naive_stacked_product(sets) -> set[str]:
    """{[x1(alpha); x2(alpha); ...]} over every value alpha of the factors
    live in some operand, each operand read by id, as bit strings."""
    def point(z, alpha):
        on = lambda col: all(alpha[i] for i, bit in zip(z.id, col) if bit)
        E, G, A, R = z.E.to_bool(), z.G.to_bool(), z.A.to_bool(), z.R.to_bool()
        acc = np.zeros(z.m, dtype=bool)
        for k in range(z.q):
            if on(R[:, k]):
                acc ^= A[:, k]
        if (acc != z.b.bits()).any():
            return None
        x = z.c.bits().copy()
        for j in range(z.h):
            if on(E[:, j]):
                x ^= G[:, j]
        return "".join("1" if v else "0" for v in x)

    all_ids = {i for z in sets for i in z.id}
    live = sorted({
        i for z in sets for i, e, r in zip(z.id, z.E.to_bool(), z.R.to_bool()) if e.any() or r.any()
    })
    out = set()
    for values in itertools.product((0, 1), repeat=len(live)):
        alpha = dict.fromkeys(all_ids, 0) | dict(zip(live, values))
        parts = [point(z, alpha) for z in sets]
        if None not in parts:
            out.add("".join(parts))
    return out


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.sampled_from([0, 1, 63, 64, 65]),
    relations=st.tuples(*[st.sampled_from(["shared", "permuted", "disjoint"])] * 2),
    widths=st.tuples(*[st.sampled_from([1, 3, 30, 64, 65])] * 3),
    constrained=st.tuples(st.booleans(), st.booleans(), st.booleans()),
)
def test_stack_of_many_equals_the_pairwise_fold(seed, p, relations, widths, constrained):
    rng = np.random.default_rng(seed)
    alloc = IdAllocator()
    id1 = alloc.fresh(p)
    related = {
        "shared": lambda: list(id1),
        "permuted": lambda: [id1[k] for k in rng.permutation(p)],
        "disjoint": lambda: alloc.fresh(int(rng.choice([0, 1, 63, 64, 65]))),
    }
    ids = [id1] + [related[r]() for r in relations]
    a, b, c = (_sparse_operand(rng, i, n, con) for i, n, con in zip(ids, widths, constrained))
    joint = stack(a, b, c)
    assert same_set(joint, stack(stack(a, b), c))
    assert same_set(joint, stack(a, stack(b, c)))
    assert same_set(stack(a), a)
    assert set(enumerate_points(joint).to_bitstrings()) == naive_stacked_product([a, b, c])


def test_lz_flatten_is_superset(rng, alloc):
    for _ in range(20):
        z = random_cplz(rng, alloc, constrained=False)
        flat = lz_flatten(z, alloc)
        assert enumerate_points(z).issubset(enumerate_points(flat))
        eb = flat.E.to_bool()
        assert flat.E.cols == flat.h and (eb.sum(axis=0) <= 1).all()


def test_soundness_with_constraints(rng, alloc):
    # minkowski gates on constrained operands still match the pointwise oracle
    for _ in range(25):
        c1 = random_cplz(rng, alloc, n=2, constrained=True)
        c2 = random_cplz(rng, alloc, n=2, constrained=True)
        p1, p2 = naive_enumerate(c1), naive_enumerate(c2)
        got = set(enumerate_points(mink_xor(c1, c2, alloc)).to_bitstrings())
        assert got == naive_gate("xor", p1, p2)
        got = set(enumerate_points(negate(c1)).to_bitstrings())
        assert got == naive_not(p1)


def as_int(v: BitVector) -> int:
    """Bit k of the vector as bit k of an int: the order canonicalize sorts by."""
    return sum(1 << k for k, bit in enumerate(v.bits()) if bit)


def reference_canonical(z):
    """(center, [(exponent, payload)] by increasing exponent) from a dict of
    monomials over plain ints."""
    terms: dict[int, int] = {}
    for e, g in zip(z.E.columns(), z.G.columns()):
        terms[as_int(e)] = terms.get(as_int(e), 0) ^ as_int(g)
    center = as_int(z.c) ^ terms.pop(0, 0)
    return center, sorted((e, g) for e, g in terms.items() if g)


def monomial_input(rng, alloc, n, p, shape):
    """An unconstrained set whose exponent columns have the given shape."""
    h = 0 if shape == "empty" else int(rng.integers(1, 12))
    pool = rng.random((int(rng.integers(1, 5)), p)) < 0.3  # few monomials, so keys repeat
    E = pool[rng.integers(0, pool.shape[0], size=h)].T
    G = rng.integers(0, 2, size=(n, h)).astype(bool)
    if shape == "all_constant":
        E[:] = False
    elif shape in ("ordered", "leading_constant"):
        keys = sorted({as_int(BitVector.from_bits(col)) for col in E.T} - {0})
        if shape == "leading_constant":
            keys = [0] + keys
        E = np.array([[(k >> f) & 1 for k in keys] for f in range(p)], dtype=bool).reshape(p, len(keys))
        G = rng.integers(0, 2, size=(n, len(keys))).astype(bool)
        G[:, rng.random(len(keys)) < 0.3] = False  # zero payloads between ordered columns
    c = BitVector.from_bits(rng.integers(0, 2, size=n))
    return CPLZ.unconstrained(c, BitMatrix.from_bool(G), BitMatrix.from_bool(E), alloc.fresh(p))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 3, 65]),
    p=st.sampled_from([0, 1, 63, 64, 65]),
    shape=st.sampled_from(["random", "ordered", "leading_constant", "all_constant", "empty"]),
)
def test_canonicalize_matches_monomial_dict(seed, n, p, shape):
    z = monomial_input(np.random.default_rng(seed), IdAllocator(), n, p, shape)
    out = canonicalize(z)
    center, terms = reference_canonical(z)
    assert as_int(out.c) == center
    assert [(as_int(e), as_int(g)) for e, g in zip(out.E.columns(), out.G.columns())] == terms
    assert (out.A, out.b, out.R, out.id) == (z.A, z.b, z.R, z.id)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 3, 65]),
    p=st.sampled_from([1, 2, 30, 63, 64]),
    shape=st.sampled_from(["random", "ordered", "leading_constant", "all_constant", "constrained"]),
)
def test_canonicalize_agrees_across_key_widths(seed, n, p, shape):
    # 64 inert factor rows with ids above the set's make its keys two words
    # wide: canonicalize then sorts them by lexsort, not by the one-word
    # argsort, and dropping the inert rows again gives the one-word result
    # column for column (the drop also takes any row canonicalize left inert)
    rng, alloc = np.random.default_rng(seed), IdAllocator()
    if shape == "constrained":
        z = random_cplz(rng, alloc, n=n, h_max=12, p=p, constrained=True)
    else:
        z = monomial_input(rng, alloc, n, p, shape)
    inert = np.zeros((64, z.h), dtype=bool), np.zeros((64, z.q), dtype=bool)
    wide = CPLZ(
        z.c, z.G, BitMatrix.from_bool(np.vstack([z.E.to_bool(), inert[0]])), z.A, z.b,
        BitMatrix.from_bool(np.vstack([z.R.to_bool(), inert[1]])), z.id + tuple(alloc.fresh(64)),
    )
    assert wide.E.data.shape[1] == 2
    got, want = drop_inert_ids(canonicalize(wide)), drop_inert_ids(canonicalize(z))
    assert (got.c, got.G, got.E, got.id) == (want.c, want.G, want.E, want.id)
    assert (got.A, got.b, got.R) == (want.A, want.b, want.R)


def rebuilt(z):
    """z through the public constructors, which check every shape and id and mask every word."""
    return CPLZ(
        BitVector(z.c.n, z.c.words),
        BitMatrix(z.G.rows, z.G.data),
        BitMatrix(z.E.rows, z.E.data),
        BitMatrix(z.A.rows, z.A.data),
        BitVector(z.b.n, z.b.words),
        BitMatrix(z.R.rows, z.R.data),
        z.id,
    )


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 5, 63, 64, 65, 130]),
    ps=st.tuples(*[st.sampled_from([0, 3, 63, 64, 65, 70])] * 3),
    starts=st.tuples(*[st.integers(1, 8)] * 3),
)
def test_trusted_results_revalidate(seed, n, ps, starts):
    # the operations build their results without the public checks; each
    # result passes them unchanged: the same masked words, the same ids
    rng = np.random.default_rng(seed)
    sets = [random_cplz(rng, IdAllocator(s), n=n, p=p) for s, p in zip(starts, ps)]
    a, b = sets[:2]
    alloc = IdAllocator(1000)
    results = [negate(a), refresh_ids(a, alloc), canonicalize(a), drop_inert_ids(a), intersect(a, b, alloc)]
    results += [stack(*sets[:k]) for k in (1, 2, 3)]
    for gate in Gate:
        for mode in ("exact", "minkowski"):
            out = apply_gate(gate, a, b, alloc, mode)
            results += [out, canonicalize(out), drop_inert_ids(canonicalize(out))]
    for z in results:
        words = (z.c.words, z.G.data, z.E.data, z.A.data, z.b.words, z.R.data)
        assert all(w.dtype == np.uint64 and not w.flags.writeable for w in words)
        assert type(z.id) is tuple
        assert same_set(rebuilt(z), z)


@pytest.mark.parametrize("p_big", [4, 70])
def test_gates_on_fresh_operand_emit_increasing_keys(rng, alloc, p_big):
    # operand 2's ids are new to operand 1, so _compose puts them above operand 1's
    for _ in range(20):
        big = canonicalize(spread_factors(rng, random_cplz(rng, alloc, n=3, h_max=8, p_max=4), alloc, p_big))
        fresh = canonicalize(random_lz(rng, alloc, 3, 1))
        for c1, c2 in ((big, fresh), (fresh, big)):
            for gate in (exact_and, exact_xor):
                keys = [as_int(e) for e in gate(c1, c2).E.columns()]
                assert all(a < b for a, b in zip(keys, keys[1:]))
