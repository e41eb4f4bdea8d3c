"""The constrained polynomial logical zonotope and its generator-space operations.

A constrained polynomial logical zonotope <c, G, E, A, b, R, id> collects
c XOR the generator columns whose monomial over binary factors (one
factor per id, exponents in E) is 1, for every factor vector alpha with
XOR_i (AND_k alpha_k^R[k,i]) A[:,i] == b. It is the only set class. With
no constraints it is a polynomial logical zonotope <c, G, E, id>; with
identity exponents over fresh ids as well it is a logical zonotope
<c, G>, the XOR-subset combinations of G added to c.

Minkowski operations treat the operands as independent (fresh factor
ids); exact operations align the operands onto a shared id vector first
so repeated occurrences of one set stay correlated. All values are
immutable; operations are pure. Only IdAllocator mutates, under a lock.
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

from .bitvec import (
    BitMatrix,
    BitVector,
    Gate,
    blkdiag,
    complement,
    concat,
    elementwise_gate,
    embed_rows,
    hconcat,
    vstack,
)
from .errors import DimensionError

MINKOWSKI = "minkowski"
EXACT = "exact"
DERIVED_GATES = (Gate.XNOR, Gate.NAND, Gate.OR, Gate.NOR)


class IdAllocator:
    """Monotone source of factor identifiers; never reuses a value."""

    def __init__(self, start: int = 1):
        self._next = start
        self._lock = threading.Lock()

    def fresh(self, count: int) -> list[int]:
        if count < 0:
            raise ValueError("count must be non-negative")
        with self._lock:
            first = self._next
            self._next += count
        return list(range(first, first + count))


def _check_distinct_ids(ids: Sequence[int]) -> tuple[int, ...]:
    ids = tuple(int(i) for i in ids)
    if len(set(ids)) != len(ids):
        raise ValueError(f"factor ids must be pairwise distinct: {ids}")
    if any(i <= 0 for i in ids):
        raise ValueError(f"factor ids must be positive: {ids}")
    return ids


class ConstrainedPolyLogicalZonotope:
    """<c, G, E, A, b, R, id>: polynomial form plus binary constraints on the factors."""

    __slots__ = ("c", "G", "E", "A", "b", "R", "id")

    def __init__(
        self,
        c: BitVector,
        G: BitMatrix,
        E: BitMatrix,
        A: BitMatrix,
        b: BitVector,
        R: BitMatrix,
        ids: Sequence[int],
    ):
        ids = _check_distinct_ids(ids)
        if G.rows != c.n:
            raise DimensionError(f"generator rows {G.rows} != center length {c.n}")
        if E.cols != G.cols:
            raise DimensionError(f"exponent columns {E.cols} != generator columns {G.cols}")
        if E.rows != len(ids) or R.rows != len(ids):
            raise DimensionError(
                f"exponent rows (E={E.rows}, R={R.rows}) must equal id count {len(ids)}"
            )
        if A.cols != R.cols:
            raise DimensionError(f"constraint columns disagree: A has {A.cols}, R has {R.cols}")
        if A.rows != b.n:
            raise DimensionError(f"constraint rows {A.rows} != constraint vector length {b.n}")
        self.c = c
        self.G = G
        self.E = E
        self.A = A
        self.b = b
        self.R = R
        self.id = ids

    @property
    def n(self) -> int:
        return self.c.n

    @property
    def h(self) -> int:
        return self.G.cols

    @property
    def p(self) -> int:
        return len(self.id)

    @property
    def m(self) -> int:
        return self.A.rows

    @property
    def q(self) -> int:
        return self.A.cols

    @classmethod
    def unconstrained(
        cls, c: BitVector, G: BitMatrix, E: BitMatrix, ids: Sequence[int]
    ) -> "ConstrainedPolyLogicalZonotope":
        p = len(list(ids))
        return cls(c, G, E, BitMatrix.zeros(0, 0), BitVector.zeros(0), BitMatrix.zeros(p, 0), ids)

    @classmethod
    def lz(cls, c: BitVector, G: BitMatrix, alloc: IdAllocator) -> "ConstrainedPolyLogicalZonotope":
        """The logical zonotope <c, G>: one fresh factor per generator."""
        return cls.unconstrained(c, G, BitMatrix.identity(G.cols), alloc.fresh(G.cols))

    @classmethod
    def singleton(cls, point: BitVector) -> "ConstrainedPolyLogicalZonotope":
        return cls.unconstrained(point, BitMatrix.zeros(point.n, 0), BitMatrix.zeros(0, 0), [])

    def __repr__(self) -> str:
        return (
            f"ConstrainedPolyLogicalZonotope(n={self.n}, h={self.h}, p={self.p},"
            f" m={self.m}, q={self.q})"
        )


CPLZ = ConstrainedPolyLogicalZonotope


def merge_id(c1: CPLZ, c2: CPLZ) -> tuple[CPLZ, CPLZ]:
    """Re-express both operands over the union of their id vectors.

    Order: c1's ids first, then c2's novel ids. Rows of E and R that
    belong to a foreign id are zero, so each point set is unchanged.
    """
    known = set(c1.id)
    merged = list(c1.id) + [i for i in c2.id if i not in known]
    pos = {ident: k for k, ident in enumerate(merged)}

    def align(c: CPLZ) -> CPLZ:
        positions = [pos[i] for i in c.id]
        return ConstrainedPolyLogicalZonotope(
            c.c,
            c.G,
            embed_rows(c.E, positions, len(merged)),
            c.A,
            c.b,
            embed_rows(c.R, positions, len(merged)),
            merged,
        )

    return align(c1), align(c2)


def _require_same_dim(c1, c2) -> None:
    if c1.c.n != c2.c.n:
        raise DimensionError(f"set dimensions differ: {c1.c.n} != {c2.c.n}")


def _scale(v: BitVector, m: BitMatrix) -> BitMatrix:
    """AND a fixed vector into every column."""
    if m.rows != v.n:
        raise DimensionError(f"vector length {v.n} != matrix rows {m.rows}")
    return BitMatrix(m.rows, m.data & v.words[None, :])


def _pairwise_and(g1: BitMatrix, g2: BitMatrix) -> BitMatrix:
    """All columnwise products g1[:,i] AND g2[:,j], i-major order."""
    if g1.rows != g2.rows:
        raise DimensionError(f"row count mismatch: {g1.rows} != {g2.rows}")
    prod = g1.data[:, None, :] & g2.data[None, :, :]
    return BitMatrix(g1.rows, prod.reshape(g1.cols * g2.cols, g1.data.shape[1]))


def mink_xor(c1: CPLZ, c2: CPLZ, alloc: IdAllocator) -> CPLZ:
    """Minkowski XOR: every pair x1 in c1, x2 in c2 contributes x1 XOR x2."""
    _require_same_dim(c1, c2)
    return ConstrainedPolyLogicalZonotope(
        elementwise_gate(Gate.XOR, c1.c, c2.c),
        hconcat(c1.G, c2.G),
        blkdiag(c1.E, c2.E),
        blkdiag(c1.A, c2.A),
        concat(c1.b, c2.b),
        blkdiag(c1.R, c2.R),
        alloc.fresh(c1.p + c2.p),
    )


def _and_generators(x1: CPLZ, x2: CPLZ) -> BitMatrix:
    return hconcat(
        _scale(x1.c, x2.G),
        _scale(x2.c, x1.G),
        _pairwise_and(x1.G, x2.G),
    )


def mink_and(c1: CPLZ, c2: CPLZ, alloc: IdAllocator) -> CPLZ:
    """Minkowski AND: every pair x1, x2 contributes x1 AND x2.

    Generators: [c1*G2 | c2*G1 | all pairwise products]; exponent columns
    are zero-padded single-operand columns and the stacked pair columns.
    """
    _require_same_dim(c1, c2)
    p1, p2, h1, h2 = c1.p, c2.p, c1.h, c2.h
    e1, e2 = c1.E.to_bool(), c2.E.to_bool()
    block_c1g2 = np.concatenate([np.zeros((p1, h2), dtype=bool), e2], axis=0)
    block_c2g1 = np.concatenate([e1, np.zeros((p2, h1), dtype=bool)], axis=0)
    block_pairs = np.concatenate(
        [np.repeat(e1, h2, axis=1), np.tile(e2, (1, h1))], axis=0
    )
    exponents = BitMatrix.from_bool(
        np.concatenate([block_c1g2, block_c2g1, block_pairs], axis=1)
    )
    return ConstrainedPolyLogicalZonotope(
        elementwise_gate(Gate.AND, c1.c, c2.c),
        _and_generators(c1, c2),
        exponents,
        blkdiag(c1.A, c2.A),
        concat(c1.b, c2.b),
        blkdiag(c1.R, c2.R),
        alloc.fresh(p1 + p2),
    )


def negate(c: CPLZ) -> CPLZ:
    """Pointwise NOT: flip the center, keep everything else (ids included)."""
    return ConstrainedPolyLogicalZonotope(complement(c.c), c.G, c.E, c.A, c.b, c.R, c.id)


def exact_xor(c1: CPLZ, c2: CPLZ) -> CPLZ:
    """Dependency-preserving XOR: operands share one factor vector after merge_id."""
    _require_same_dim(c1, c2)
    a1, a2 = merge_id(c1, c2)
    return ConstrainedPolyLogicalZonotope(
        elementwise_gate(Gate.XOR, a1.c, a2.c),
        hconcat(a1.G, a2.G),
        hconcat(a1.E, a2.E),
        blkdiag(a1.A, a2.A),
        concat(a1.b, a2.b),
        hconcat(a1.R, a2.R),
        a1.id,
    )


def exact_and(c1: CPLZ, c2: CPLZ) -> CPLZ:
    """Dependency-preserving AND.

    Pair columns use the elementwise max of the operand exponent columns,
    since alpha^a AND alpha^b == alpha^max(a,b) for binary exponents. Both
    operands' constraints are carried over the merged id rows.
    """
    _require_same_dim(c1, c2)
    a1, a2 = merge_id(c1, c2)
    h1, h2 = a1.h, a2.h
    e1, e2 = a1.E.to_bool(), a2.E.to_bool()
    pair_cols = np.repeat(e1, h2, axis=1) | np.tile(e2, (1, h1))
    exponents = BitMatrix.from_bool(np.concatenate([e2, e1, pair_cols], axis=1))
    return ConstrainedPolyLogicalZonotope(
        elementwise_gate(Gate.AND, a1.c, a2.c),
        _and_generators(a1, a2),
        exponents,
        blkdiag(a1.A, a2.A),
        concat(a1.b, a2.b),
        hconcat(a1.R, a2.R),
        a1.id,
    )


def derived_gate(gate: Gate, c1: CPLZ, c2: CPLZ, alloc: IdAllocator, mode: str = MINKOWSKI) -> CPLZ:
    """XNOR, NAND, OR, NOR built from XOR/AND/NOT; NAND is the universal gate.

    ``mode`` picks the underlying XOR/AND flavor: independent pairing
    (minkowski) or shared-factor (exact).
    """
    if mode not in (MINKOWSKI, EXACT):
        raise ValueError(f"mode must be '{MINKOWSKI}' or '{EXACT}', got {mode!r}")
    if mode == EXACT:
        xor_op = exact_xor
        and_op = exact_and
    else:
        xor_op = lambda a, b: mink_xor(a, b, alloc)
        and_op = lambda a, b: mink_and(a, b, alloc)
    if gate is Gate.XNOR:
        return negate(xor_op(c1, c2))
    if gate is Gate.NAND:
        return negate(and_op(c1, c2))
    if gate is Gate.OR:
        return negate(and_op(negate(c1), negate(c2)))
    if gate is Gate.NOR:
        return negate(derived_gate(Gate.OR, c1, c2, alloc, mode))
    raise ValueError(f"{gate} is not a derived gate; use mink_xor/mink_and/exact_xor/exact_and")


def apply_gate(gate: Gate, c1: CPLZ, c2: CPLZ, alloc: IdAllocator, mode: str = MINKOWSKI) -> CPLZ:
    """Route any of the six binary gates to its generator-space construction."""
    if gate is Gate.XOR:
        return exact_xor(c1, c2) if mode == EXACT else mink_xor(c1, c2, alloc)
    if gate is Gate.AND:
        return exact_and(c1, c2) if mode == EXACT else mink_and(c1, c2, alloc)
    return derived_gate(gate, c1, c2, alloc, mode)


def intersect(c1: CPLZ, c2: CPLZ, alloc: IdAllocator) -> CPLZ:
    """Exact intersection.

    Keeps c1's center and generators and adds a coupling constraint that
    forces c1's expansion to equal c2's: [0 0 G1 G2] combined under the
    exponent rows [[R1 0 E1 0], [0 R2 0 E2]] must XOR to c1 XOR c2, on
    top of both operands' own constraints.
    """
    _require_same_dim(c1, c2)
    n = c1.n
    p1, p2, h1, h2, m1, m2, q1, q2 = c1.p, c2.p, c1.h, c2.h, c1.m, c2.m, c1.q, c2.q

    exponents = vstack(c1.E, BitMatrix.zeros(p2, h1))

    a_rows = m1 + m2 + n
    a_cols = q1 + q2 + h1 + h2
    ab = np.zeros((a_rows, a_cols), dtype=bool)
    ab[:m1, :q1] = c1.A.to_bool()
    ab[m1 : m1 + m2, q1 : q1 + q2] = c2.A.to_bool()
    ab[m1 + m2 :, q1 + q2 : q1 + q2 + h1] = c1.G.to_bool()
    ab[m1 + m2 :, q1 + q2 + h1 :] = c2.G.to_bool()

    rb = np.zeros((p1 + p2, a_cols), dtype=bool)
    rb[:p1, :q1] = c1.R.to_bool()
    rb[p1:, q1 : q1 + q2] = c2.R.to_bool()
    rb[:p1, q1 + q2 : q1 + q2 + h1] = c1.E.to_bool()
    rb[p1:, q1 + q2 + h1 :] = c2.E.to_bool()

    b_new = concat(concat(c1.b, c2.b), elementwise_gate(Gate.XOR, c1.c, c2.c))
    return ConstrainedPolyLogicalZonotope(
        c1.c,
        c1.G,
        exponents,
        BitMatrix.from_bool(ab),
        b_new,
        BitMatrix.from_bool(rb),
        alloc.fresh(p1 + p2),
    )


def intersect_overapprox_lz(l1: CPLZ, l2: CPLZ, alloc: IdAllocator) -> CPLZ:
    """Overapproximate an intersection by the AND of the operands' LZ hulls.

    Reads only c and G: every point of a set lies in its hull <c, G>, and
    every common point z satisfies z == z AND z with one expansion from
    each hull, so the result is a sound superset for any operands.
    """
    _require_same_dim(l1, l2)
    return CPLZ.lz(elementwise_gate(Gate.AND, l1.c, l2.c), _and_generators(l1, l2), alloc)


def canonicalize(c: CPLZ) -> CPLZ:
    """Normalize the generator part without changing the point set.

    Constant columns (all-zero exponent column, monomial == 1) fold into
    the center; duplicate (generator, exponent) column pairs cancel
    (x XOR x == 0, kept count is mod 2); all-zero generator columns drop.
    Constraints and ids are untouched; never applied implicitly.
    """
    gb = c.G.to_bool()
    eb = c.E.to_bool()
    center_bits = c.c.bits()

    const_cols = ~eb.any(axis=0) if c.p else np.ones(c.h, dtype=bool)
    if const_cols.any():
        fold = gb[:, const_cols].sum(axis=1) % 2
        center_bits = center_bits ^ fold.astype(bool)
        gb = gb[:, ~const_cols]
        eb = eb[:, ~const_cols]

    if gb.shape[1]:
        keys = np.concatenate([gb, eb], axis=0).T
        uniq, counts = np.unique(keys, axis=0, return_counts=True)
        keep = uniq[counts % 2 == 1]
        nonzero = keep[:, : c.n].any(axis=1)
        keep = keep[nonzero]
        gb = keep[:, : c.n].T
        eb = keep[:, c.n :].T
    else:
        gb = np.zeros((c.n, 0), dtype=bool)
        eb = np.zeros((c.p, 0), dtype=bool)

    return ConstrainedPolyLogicalZonotope(
        BitVector.from_bits(center_bits),
        BitMatrix.from_bool(gb),
        BitMatrix.from_bool(eb),
        c.A,
        c.b,
        c.R,
        c.id,
    )


def stack(c1: CPLZ, c2: CPLZ) -> CPLZ:
    """Dependency-preserving cartesian stack: points are [x1(alpha); x2(alpha)]
    over the shared factor vector. Used to measure joint reachable sets."""
    a1, a2 = merge_id(c1, c2)
    n1, n2 = a1.n, a2.n
    top = vstack(a1.G, BitMatrix.zeros(n2, a1.h))
    bottom = vstack(BitMatrix.zeros(n1, a2.h), a2.G)
    return ConstrainedPolyLogicalZonotope(
        concat(a1.c, a2.c),
        hconcat(top, bottom),
        hconcat(a1.E, a2.E),
        blkdiag(a1.A, a2.A),
        concat(a1.b, a2.b),
        hconcat(a1.R, a2.R),
        a1.id,
    )


def lz_flatten(c: CPLZ, alloc: IdAllocator) -> CPLZ:
    """Release every monomial into its own fresh independent factor.

    This is the logical-zonotope view of a set (identity exponents, no
    dependencies) and in general a superset of the input. Once factors
    are independent, a repeated generator payload spans nothing new, so
    duplicate columns collapse exactly. Requires an unconstrained input;
    constraints cannot be represented at this level.
    """
    if c.m or c.q:
        raise ValueError("cannot flatten a constrained set to logical-zonotope form")
    d = canonicalize(c)
    payloads = np.unique(d.G.to_bool().T, axis=0)
    payloads = payloads[payloads.any(axis=1)]
    return CPLZ.lz(d.c, BitMatrix.from_bool(payloads.T), alloc)


def refresh_ids(c: CPLZ, alloc: IdAllocator) -> CPLZ:
    """Same structure, brand-new factor ids: the copy is independent of the original."""
    return ConstrainedPolyLogicalZonotope(c.c, c.G, c.E, c.A, c.b, c.R, alloc.fresh(c.p))


def drop_inert_ids(c: CPLZ) -> CPLZ:
    """Remove factor rows that are zero in both E and R.

    Such a factor gates nothing and constrains nothing, so the point set
    is unchanged; keeping the rows only inflates enumeration budgets.
    """
    eb = c.E.to_bool()
    rb = c.R.to_bool()
    live = eb.any(axis=1) | rb.any(axis=1)
    if bool(live.all()):
        return c
    ids = [ident for ident, keep in zip(c.id, live) if keep]
    return ConstrainedPolyLogicalZonotope(
        c.c, c.G, BitMatrix.from_bool(eb[live]), c.A, c.b, BitMatrix.from_bool(rb[live]), ids
    )
