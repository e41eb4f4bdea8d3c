"""The constrained polynomial logical zonotope and its generator-space operations.

A constrained polynomial logical zonotope <c, G, E, A, b, R, id> collects
c XOR the generator columns whose monomial over binary factors (one
factor per id, exponents in E) is 1, for every factor vector alpha with
XOR_i (AND_k alpha_k^R[k,i]) A[:,i] == b. It is the only set class. With
no constraints it is a polynomial logical zonotope <c, G, E, id>; with
identity exponents over fresh ids as well it is a logical zonotope
<c, G>, the XOR-subset combinations of G added to c.

Every binary operation is one composition: ``merge_id`` aligns the
operands onto a shared id vector, so repeated occurrences of one set stay
correlated, and the result carries both operands' constraints. The exact
gates and ``stack`` differ only in their c, G and E; a Minkowski gate is
the exact one on copies with fresh ids, and ``intersect`` composes such
copies under one more coupling constraint. Every operation and
normalizer works on the packed words of ``bitvec``. All values are
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
    select_rows,
    shift_rows,
    unpack_rows,
)
from .errors import DimensionError

MINKOWSKI = "minkowski"
EXACT = "exact"


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
    ids = tuple(map(int, ids))
    if len(set(ids)) != len(ids):
        raise ValueError(f"factor ids must be pairwise distinct: {ids}")
    if ids and min(ids) <= 0:
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
    belong to a foreign id are zero, so each point set is unchanged. When
    all of c2's ids are novel (Minkowski copies, intersect), c2's rows are
    one block after c1's. c1 itself is returned when c2 adds no id.
    """
    known = set(c1.id)
    merged = c1.id + tuple(i for i in c2.id if i not in known)
    p = len(merged)

    def align(c: CPLZ, place) -> CPLZ:
        return ConstrainedPolyLogicalZonotope(c.c, c.G, place(c.E), c.A, c.b, place(c.R), merged)

    if p == c1.p + c2.p:
        a2 = align(c2, lambda m: shift_rows(m, c1.p, p))
    else:
        pos = {ident: k for k, ident in enumerate(merged)}
        positions = [pos[i] for i in c2.id]
        a2 = align(c2, lambda m: embed_rows(m, positions, p))
    return (c1 if p == c1.p else align(c1, lambda m: shift_rows(m, 0, p))), a2


def _joint(a1: CPLZ, a2: CPLZ, c: BitVector, G: BitMatrix, E: BitMatrix) -> CPLZ:
    """<c, G, E> over the merged ids of a1 and a2, under both operands' constraints."""
    return ConstrainedPolyLogicalZonotope(
        c, G, E, blkdiag(a1.A, a2.A), concat(a1.b, a2.b), hconcat(a1.R, a2.R), a1.id
    )


def _require_same_dim(c1, c2) -> None:
    if c1.c.n != c2.c.n:
        raise DimensionError(f"set dimensions differ: {c1.c.n} != {c2.c.n}")


def _scale(v: BitVector, m: BitMatrix) -> BitMatrix:
    """AND a fixed vector into every column."""
    if m.rows != v.n:
        raise DimensionError(f"vector length {v.n} != matrix rows {m.rows}")
    return BitMatrix(m.rows, m.data & v.words[None, :])


def _pairwise(op, m1: BitMatrix, m2: BitMatrix) -> BitMatrix:
    """All columnwise op(m1[:,i], m2[:,j]), i-major order."""
    if m1.rows != m2.rows:
        raise DimensionError(f"row count mismatch: {m1.rows} != {m2.rows}")
    prod = op(m1.data[:, None, :], m2.data[None, :, :])
    return BitMatrix(m1.rows, prod.reshape(m1.cols * m2.cols, m1.data.shape[1]))


def _and_generators(x1: CPLZ, x2: CPLZ) -> BitMatrix:
    return hconcat(
        _scale(x1.c, x2.G),
        _scale(x2.c, x1.G),
        _pairwise(np.bitwise_and, x1.G, x2.G),
    )


def mink_xor(c1: CPLZ, c2: CPLZ, alloc: IdAllocator) -> CPLZ:
    """Minkowski XOR: every pair x1 in c1, x2 in c2 contributes x1 XOR x2."""
    return exact_xor(refresh_ids(c1, alloc), refresh_ids(c2, alloc))


def mink_and(c1: CPLZ, c2: CPLZ, alloc: IdAllocator) -> CPLZ:
    """Minkowski AND: every pair x1 in c1, x2 in c2 contributes x1 AND x2."""
    return exact_and(refresh_ids(c1, alloc), refresh_ids(c2, alloc))


def negate(c: CPLZ) -> CPLZ:
    """Pointwise NOT: flip the center, keep everything else (ids included)."""
    return ConstrainedPolyLogicalZonotope(complement(c.c), c.G, c.E, c.A, c.b, c.R, c.id)


def exact_xor(c1: CPLZ, c2: CPLZ) -> CPLZ:
    """Dependency-preserving XOR: operands share one factor vector after merge_id."""
    _require_same_dim(c1, c2)
    a1, a2 = merge_id(c1, c2)
    return _joint(
        a1, a2, elementwise_gate(Gate.XOR, a1.c, a2.c), hconcat(a1.G, a2.G), hconcat(a1.E, a2.E)
    )


def exact_and(c1: CPLZ, c2: CPLZ) -> CPLZ:
    """Dependency-preserving AND.

    Generators: [c1*G2 | c2*G1 | all pairwise products]. Pair columns use
    the OR of the operand exponent columns, since alpha^a AND alpha^b ==
    alpha^(a OR b) for binary exponents.
    """
    _require_same_dim(c1, c2)
    a1, a2 = merge_id(c1, c2)
    return _joint(
        a1,
        a2,
        elementwise_gate(Gate.AND, a1.c, a2.c),
        _and_generators(a1, a2),
        hconcat(a2.E, a1.E, _pairwise(np.bitwise_or, a1.E, a2.E)),
    )


# The six binary gates over exact XOR, exact AND and NOT; NAND is the universal gate.
_GATES = {
    Gate.XOR: exact_xor,
    Gate.AND: exact_and,
    Gate.XNOR: lambda c1, c2: negate(exact_xor(c1, c2)),
    Gate.NAND: lambda c1, c2: negate(exact_and(c1, c2)),
    Gate.OR: lambda c1, c2: negate(exact_and(negate(c1), negate(c2))),
    Gate.NOR: lambda c1, c2: exact_and(negate(c1), negate(c2)),
}


def apply_gate(gate: Gate, c1: CPLZ, c2: CPLZ, alloc: IdAllocator, mode: str = MINKOWSKI) -> CPLZ:
    """Any of the six binary gates.

    ``mode`` exact keeps the operands' shared factors; minkowski pairs
    independent points, by running the same construction on copies with
    fresh ids.
    """
    if mode not in (MINKOWSKI, EXACT):
        raise ValueError(f"mode must be '{MINKOWSKI}' or '{EXACT}', got {mode!r}")
    if mode == MINKOWSKI:
        c1, c2 = refresh_ids(c1, alloc), refresh_ids(c2, alloc)
    return _GATES[gate](c1, c2)


def intersect(c1: CPLZ, c2: CPLZ, alloc: IdAllocator) -> CPLZ:
    """Exact intersection.

    Composes independent copies of both operands (fresh ids) and keeps
    c1's center and generators, under both operands' constraints and a
    coupling constraint that forces c1's expansion to equal c2's: the
    columns [G1 G2] under the exponent rows [E1 E2] must XOR to c1 XOR c2.
    """
    _require_same_dim(c1, c2)
    a1, a2 = merge_id(refresh_ids(c1, alloc), refresh_ids(c2, alloc))
    both = _joint(a1, a2, a1.c, a1.G, a1.E)
    return ConstrainedPolyLogicalZonotope(
        both.c,
        both.G,
        both.E,
        blkdiag(both.A, hconcat(a1.G, a2.G)),
        concat(both.b, elementwise_gate(Gate.XOR, a1.c, a2.c)),
        hconcat(both.R, a1.E, a2.E),
        both.id,
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
    """Merge the columns that gate the same monomial, without changing the point set.

    Columns with equal exponent columns are active for the same factor
    assignments, so their payloads XOR into one column (the ``compact``
    step of sparse polynomial zonotopes, Kochdumper & Althoff 2021). The
    all-zero exponent column is the constant monomial 1 and folds into the
    center; zero payloads drop. The result has pairwise-distinct nonzero
    exponent columns, ordered by their packed words, so a second call
    returns it unchanged. Constraints and ids are untouched; never applied
    implicitly.
    """
    if c.h == 0:
        return c
    words = c.E.data
    # lexsort is stable: columns with one key keep their order
    order = np.lexsort(words.T) if words.shape[1] else np.arange(c.h)
    keys = words[order]
    first = np.flatnonzero(np.concatenate([[True], (keys[1:] != keys[:-1]).any(axis=1)]))
    payloads = np.bitwise_xor.reduceat(c.G.data[order], first, axis=0)
    keys = keys[first]
    const = ~keys.any(axis=1)
    keep = ~const & payloads.any(axis=1)
    return ConstrainedPolyLogicalZonotope(
        BitVector(c.n, c.c.words ^ np.bitwise_xor.reduce(payloads[const], axis=0)),
        BitMatrix(c.n, payloads[keep]),
        BitMatrix(c.p, keys[keep]),
        c.A,
        c.b,
        c.R,
        c.id,
    )


def stack(c1: CPLZ, c2: CPLZ) -> CPLZ:
    """Dependency-preserving cartesian stack: points are [x1(alpha); x2(alpha)]
    over the shared factor vector. Used to measure joint reachable sets."""
    a1, a2 = merge_id(c1, c2)
    return _joint(a1, a2, concat(a1.c, a2.c), blkdiag(a1.G, a2.G), hconcat(a1.E, a2.E))


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
    return CPLZ.lz(d.c, BitMatrix(d.n, np.unique(d.G.data, axis=0)), alloc)


def refresh_ids(c: CPLZ, alloc: IdAllocator) -> CPLZ:
    """Same structure, brand-new factor ids: the copy is independent of the original."""
    return ConstrainedPolyLogicalZonotope(c.c, c.G, c.E, c.A, c.b, c.R, alloc.fresh(c.p))


def drop_inert_ids(c: CPLZ) -> CPLZ:
    """Remove factor rows that are zero in both E and R.

    Such a factor gates nothing and constrains nothing, so the point set
    is unchanged; keeping the rows only inflates enumeration budgets.
    """
    used = np.bitwise_or.reduce(np.concatenate([c.E.data, c.R.data]), axis=0)
    live = np.flatnonzero(unpack_rows(used[None, :], c.p)[0])
    if live.size == c.p:
        return c
    return ConstrainedPolyLogicalZonotope(
        c.c, c.G, select_rows(c.E, live), c.A, c.b, select_rows(c.R, live), [c.id[k] for k in live]
    )
