"""The constrained polynomial logical zonotope and its generator-space operations.

A constrained polynomial logical zonotope <c, G, E, A, b, R, id> collects
c XOR the generator columns whose monomial over binary factors (one
factor per id, exponents in E) is 1, for every factor vector alpha with
XOR_i (AND_k alpha_k^R[k,i]) A[:,i] == b. It is the only set class. With
no constraints it is a polynomial logical zonotope <c, G, E, id>; with
identity exponents over fresh ids as well it is a logical zonotope
<c, G>, the XOR-subset combinations of G added to c.

Every binary operation is one composition, ``_compose``: it puts the
operands' exponent words over one merged id vector, in ascending id
order, so repeated occurrences of one set stay correlated, and carries
the constraints of the operands that have some. Only those operands'
constraint words move to the merged rows, and their A, b and R compose
block by block only when two or more have constraints. Ascending ids keep a
canonical operand's exponent keys sorted in the merged rows, so a gate's
columns come out in a few sorted runs; a gate whose operand 1 has only
ids above operand 2's swaps its (symmetric) operands, so the newer
factors sit in the high rows. The exact gates, ``stack`` and ``intersect``
build their result from those words in one constructor call and differ
only in their c, G and E (``intersect`` adds a coupling constraint on
copies with fresh ids); a Minkowski gate is the exact one on such
copies. The six gates are the XOR or AND core with complemented input
and output centers, since NOT flips only a center. Every operation and
normalizer works on the packed words of ``bitvec``.

The public constructor checks shapes and ids and ``BitVector`` and
``BitMatrix`` mask every word; a set from outside passes them once. The
operations here build from parts that hold by construction, so they call
the trusted ``CPLZ._of_parts``, ``BitVector._of_masked`` and
``BitMatrix._of_masked`` and pay only for their arithmetic: ids are the
merged tuple of ``_compose``, fresh ids from an ``IdAllocator`` or a subset
of checked ids, and words are XOR, AND, OR and row moves of masked words,
with a complement taken as XOR with the pad mask, never ``~``. All values
are immutable; operations are pure. Only IdAllocator mutates.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

import numpy as np

from .bitvec import (
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
    n_words,
    pack_bool_rows,
    pad_mask,
    select_rows,
    unpack_rows,
)
from .errors import BudgetExceeded, DimensionError

MINKOWSKI = "minkowski"
EXACT = "exact"
# Cap on the columns one gate may build; an AND of h1 and h2 columns builds h1 + h2 + h1*h2.
MAX_COLUMNS = 1 << 22


class IdAllocator:
    """Monotone source of factor identifiers; never reuses a value."""

    def __init__(self, start: int = 1):
        if start < 1:
            raise ValueError(f"factor ids must be positive, got start {start}")
        self._next = start

    def fresh(self, count: int) -> list[int]:
        if count < 0:
            raise ValueError("count must be non-negative")
        first = self._next
        self._next += count
        return list(range(first, first + count))

    def reserve(self, ids) -> None:
        """Hand out only ids above these (ids chosen elsewhere, e.g. in a document)."""
        self._next = max([self._next, *(i + 1 for i in ids)])


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

    @classmethod
    def _of_parts(cls, c, G, E, A, b, R, ids: tuple) -> "ConstrainedPolyLogicalZonotope":
        """Trust parts whose shapes agree and a tuple of distinct positive
        ids, as the operations below build them from checked operands: ids
        merged by ``_compose`` (which also composes the constraints),
        handed out by an ``IdAllocator``, or a subset of a set's own ids.
        No checks."""
        z = object.__new__(cls)
        z.c, z.G, z.E, z.A, z.b, z.R, z.id = c, G, E, A, b, R, ids
        return z

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


def _compose(*sets: CPLZ) -> tuple:
    """(ids, Es, A, b, R): the operands' ids merged in ascending order, each
    operand's E words over them, and the constraints of the operands that
    have some, with their R words over them. Rows of a foreign id are zero,
    so each point set is unchanged. An operand whose ids are a run of the
    merged ids moves as one block, and one that leads them in as many
    words keeps its own words. A row embedding that keeps the ids' order
    keeps the order of the exponent keys, so the words of a canonical
    operand with ascending ids stay sorted. Only a constrained operand's R
    words move; the blocks compose only when two or more operands have
    constraints, and with none R is a fresh matrix with no columns."""
    ids = tuple(sorted({i for s in sets for i in s.id}))
    p, row = len(ids), None
    Es, held = [], []
    for s in sets:
        k = bisect_left(ids, s.id[0]) if s.id else 0
        if s.id == ids[k : k + s.p]:
            rows = range(k, k + s.p)
        else:
            row = row or {ident: j for j, ident in enumerate(ids)}
            rows = [row[i] for i in s.id]
        Es.append(_move_rows(s.E.data, range(s.p), rows, p))
        if s.m or s.q:
            held.append((s, _move_rows(s.R.data, range(s.p), rows, p)))
    if len(held) < 2:  # nothing to compose: one operand's constraints, or none
        s, R = held[0] if held else (sets[0], np.zeros((0, n_words(p)), dtype=np.uint64))
        return ids, Es, s.A, s.b, R
    A, b = blkdiag(*(s.A for s, _ in held)), concat(*(s.b for s, _ in held))
    return ids, Es, A, b, np.concatenate([R for _, R in held])


def _require_same_dim(c1, c2) -> None:
    if c1.c.n != c2.c.n:
        raise DimensionError(f"set dimensions differ: {c1.c.n} != {c2.c.n}")


def _product(op, x1, x2, m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """The word rows [x2 op m1 | for each row j of m2: x1 op m2[j], then every
    m1[i] op m2[j]], built in place. This j-major layout puts exponent
    columns in canonical order when both operands are canonical and m2's
    factors all sit above m1's (operand 2's ids above operand 1's), and
    writes contiguous rows when m2 has one row."""
    h1, h2, w = m1.shape[0], m2.shape[0], m1.shape[1]
    out = np.empty((h1 + h2 * (h1 + 1), w), dtype=np.uint64)
    op(x2, m1, out=out[:h1])
    blocks = out[h1:].reshape(h2, h1 + 1, w)
    op(x1, m2, out=blocks[:, 0])
    op(m2[:, None, :], m1[None, :, :], out=blocks[:, 1:])
    return out


def mink_xor(c1: CPLZ, c2: CPLZ, alloc: IdAllocator) -> CPLZ:
    """Minkowski XOR: every pair x1 in c1, x2 in c2 contributes x1 XOR x2."""
    return exact_xor(refresh_ids(c1, alloc), refresh_ids(c2, alloc))


def mink_and(c1: CPLZ, c2: CPLZ, alloc: IdAllocator) -> CPLZ:
    """Minkowski AND: every pair x1 in c1, x2 in c2 contributes x1 AND x2."""
    return exact_and(refresh_ids(c1, alloc), refresh_ids(c2, alloc))


def negate(c: CPLZ) -> CPLZ:
    """Pointwise NOT: flip the center, keep everything else (ids included)."""
    return CPLZ._of_parts(complement(c.c), c.G, c.E, c.A, c.b, c.R, c.id)


def _gate(c1: CPLZ, c2: CPLZ, core: Gate, flip1=False, flip2=False, flip_out=False) -> CPLZ:
    """The exact XOR or AND core with the chosen centers complemented, which is
    its composition with ``negate``. AND generators: x2*G1, then per column
    j of G2 x1*G2[j] and its products with every column of G1 (see
    ``_product``), for the input centers x; product columns take the OR of
    the exponent columns, since alpha^a AND alpha^b == alpha^(a OR b).
    Both cores are symmetric, so when all of operand 1's ids sit above
    operand 2's the operands swap, flips with them: operand 2's factors
    then sit above operand 1's, the layout ``_product`` keeps in order."""
    _require_same_dim(c1, c2)
    if c1.id and c2.id and min(c1.id) > max(c2.id):
        c1, c2, flip1, flip2 = c2, c1, flip2, flip1
    ids, (E1, E2), A, b, R = _compose(c1, c2)
    n, G1, G2 = c1.c.n, c1.G.data, c2.G.data
    pad = pad_mask(n)  # complements stay masked: x ^ pad, never ~x
    x1 = c1.c.words ^ pad if flip1 else c1.c.words
    x2 = c2.c.words ^ pad if flip2 else c2.c.words
    if core is Gate.XOR:
        c, G, E = x1 ^ x2, np.concatenate([G1, G2]), np.concatenate([E1, E2])
    else:
        h1, h2 = len(G1), len(G2)
        if h1 + h2 + h1 * h2 > MAX_COLUMNS:
            msg = f"an AND of {h1} x {h2} generators would build {h1 + h2 + h1 * h2} columns"
            raise BudgetExceeded(f"{msg}, over the cap of {MAX_COLUMNS}")
        G = _product(np.bitwise_and, x1, x2, G1, G2)
        c, E = x1 & x2, _product(np.bitwise_or, 0, 0, E1, E2)
    c, p = BitVector._of_masked(n, c ^ pad if flip_out else c), len(ids)
    trusted = BitMatrix._of_masked  # AND, OR and XOR of masked words
    return CPLZ._of_parts(c, trusted(n, G), trusted(p, E), A, b, trusted(p, R), ids)


def exact_xor(c1: CPLZ, c2: CPLZ) -> CPLZ:
    """Dependency-preserving XOR: operands share one factor vector over their merged ids."""
    return _gate(c1, c2, Gate.XOR)


def exact_and(c1: CPLZ, c2: CPLZ) -> CPLZ:
    """Dependency-preserving AND; see ``_gate`` for its generators."""
    return _gate(c1, c2, Gate.AND)


# Each binary gate as the XOR or AND core plus complemented centers (input 1,
# input 2, output): e.g. OR == NOT(AND(NOT a, NOT b)); NAND is the universal gate.
_GATES = {
    Gate.XOR: (Gate.XOR, False, False, False),
    Gate.AND: (Gate.AND, False, False, False),
    Gate.XNOR: (Gate.XOR, False, False, True),
    Gate.NAND: (Gate.AND, False, False, True),
    Gate.OR: (Gate.AND, True, True, True),
    Gate.NOR: (Gate.AND, True, True, False),
}


def apply_gate(gate: Gate, c1: CPLZ, c2: CPLZ, alloc: IdAllocator, mode: str) -> CPLZ:
    """Any of the six binary gates, in a required ``mode``.

    Exact keeps the operands' shared factors; minkowski pairs independent
    points, by running the same construction on copies with fresh ids.
    This is the one place the gate mode is checked.
    """
    if mode not in (MINKOWSKI, EXACT):
        raise ValueError(f"mode must be '{MINKOWSKI}' or '{EXACT}', got {mode!r}")
    if mode == MINKOWSKI:
        c1, c2 = refresh_ids(c1, alloc), refresh_ids(c2, alloc)
    return _gate(c1, c2, *_GATES[gate])


def intersect(c1: CPLZ, c2: CPLZ, alloc: IdAllocator) -> CPLZ:
    """Exact intersection.

    Composes independent copies of both operands (fresh ids) and keeps
    c1's center and generators, under both operands' constraints and a
    coupling constraint that forces c1's expansion to equal c2's: the
    columns [G1 G2] under the exponent rows [E1 E2] must XOR to c1 XOR c2.
    """
    _require_same_dim(c1, c2)
    ids, (E1, E2), A, b, R = _compose(refresh_ids(c1, alloc), refresh_ids(c2, alloc))
    A, b = blkdiag(A, hconcat(c1.G, c2.G)), concat(b, elementwise_gate(Gate.XOR, c1.c, c2.c))
    p, trusted = len(ids), BitMatrix._of_masked
    return CPLZ._of_parts(c1.c, c1.G, trusted(p, E1), A, b, trusted(p, np.concatenate([R, E1, E2])), ids)


def intersect_overapprox_lz(l1: CPLZ, l2: CPLZ, alloc: IdAllocator) -> CPLZ:
    """Overapproximate an intersection by the AND of the operands' LZ hulls.

    Reads only c and G: every point of a set lies in its hull <c, G>, and
    every common point z satisfies z == z AND z with one expansion from
    each hull, so the result is a sound superset for any operands.
    """
    _require_same_dim(l1, l2)
    G = _product(np.bitwise_and, l1.c.words, l2.c.words, l1.G.data, l2.G.data)
    return CPLZ.lz(elementwise_gate(Gate.AND, l1.c, l2.c), BitMatrix(l1.n, G), alloc)


def canonicalize(c: CPLZ) -> CPLZ:
    """Merge the columns that gate the same monomial, without changing the point set.

    Columns with equal exponent columns are active for the same factor
    assignments, so their payloads XOR into one column (the ``compact``
    step of sparse polynomial zonotopes, Kochdumper & Althoff 2021). The
    all-zero exponent column is the constant monomial 1 and folds into the
    center; zero payloads drop. The result has pairwise-distinct nonzero
    exponent columns, increasing as packed integers (last word most
    significant), so a second call returns it unchanged. One-word exponent
    columns (1 <= p <= 64) are one 1-D column of keys: a stable
    ``argsort`` sorts them where wider keys take a ``lexsort`` (both give
    the same order), and their key starts, like the zero payloads of a
    one-word G, are found on 1-D words. One-word keys already in order,
    as gates emit them when one operand's ids all sit above the other's,
    skip the sort and the merge; other gate results arrive as a few
    sorted runs (see ``_compose``), which the stable sort merges cheaply.
    Constraints and ids are untouched: ``_compose`` is the one place that
    merges ids and composes A, b and R. Never applied implicitly.
    """
    keys, payloads = c.E.data, c.G.data
    h, w = keys.shape
    if h == 0:
        return c
    # per call, count_nonzero, tolist and the array methods cost less than
    # ndarray.all and .any and the np.take and np.compress wrappers
    one = w == 1
    k = keys[:, 0] if one else keys
    if not (one and not np.count_nonzero(k[1:] <= k[:-1])):
        # both sorts are stable: columns with one key keep their order
        order = k.argsort(kind="stable") if one else np.lexsort(keys.T) if w else np.arange(h)
        k, payloads = k.take(order, axis=0), payloads.take(order, axis=0)
        first = np.empty(h, dtype=bool)  # the columns that start a key
        first[0] = True
        if one:
            np.not_equal(k[1:], k[:-1], out=first[1:])
        else:
            np.any(k[1:] != k[:-1], axis=1, out=first[1:])
        if np.count_nonzero(first) < h:
            first = first.nonzero()[0]
            payloads = np.bitwise_xor.reduceat(payloads, first, axis=0)
            k = k.take(first, axis=0)
    center = c.c
    if not (k[0] if one else any(k[0].tolist())):  # the constant monomial sorts first
        center = BitVector._of_masked(c.n, c.c.words ^ payloads[0])
        k, payloads = k[1:], payloads[1:]
    keep = payloads[:, 0] != 0 if payloads.shape[1] == 1 else payloads.any(axis=1)
    if np.count_nonzero(keep) < len(keep):
        payloads, k = payloads.compress(keep, axis=0), k.compress(keep, axis=0)
    if payloads is c.G.data:  # already in normal form
        return c
    keys = k.reshape(-1, 1) if one else k
    trusted = BitMatrix._of_masked  # gathered and XORed masked words
    return CPLZ._of_parts(center, trusted(c.n, payloads), trusted(c.p, keys), c.A, c.b, c.R, c.id)


def stack(*sets: CPLZ) -> CPLZ:
    """Dependency-preserving cartesian stack: points are [x1(alpha); x2(alpha); ...]
    over the shared factor vector, built in one ``_compose`` call, which
    carries the constrained operands' constraints block by block; it equals
    the pairwise fold ``stack(stack(a, b), c)`` bit for bit. Used to measure
    joint reachable sets."""
    ids, Es, A, b, R = _compose(*sets)
    p, E = len(ids), np.concatenate(Es)
    c, G = concat(*(s.c for s in sets)), blkdiag(*(s.G for s in sets))
    return CPLZ._of_parts(c, G, BitMatrix._of_masked(p, E), A, b, BitMatrix._of_masked(p, R), ids)


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
    return CPLZ.lz(d.c, BitMatrix(d.n, _unique_rows(d.G.data.copy())), alloc)


def refresh_ids(c: CPLZ, alloc: IdAllocator) -> CPLZ:
    """Same structure, brand-new factor ids: the copy is independent of the original."""
    return CPLZ._of_parts(c.c, c.G, c.E, c.A, c.b, c.R, tuple(alloc.fresh(c.p)))


def refresh_shared(sets: dict, alloc: IdAllocator) -> dict:
    """The sets, by name, with brand-new ids under one order-preserving map
    (fresh ids for the sorted old ones): ids they share stay shared, and
    their words are untouched."""
    old = sorted({i for s in sets.values() for i in s.id})
    new = dict(zip(old, alloc.fresh(len(old))))
    return {
        name: CPLZ._of_parts(s.c, s.G, s.E, s.A, s.b, s.R, tuple(map(new.__getitem__, s.id)))
        for name, s in sets.items()
    }


def drop_inert_ids(c: CPLZ) -> CPLZ:
    """Remove factor rows that are zero in both E and R.

    Such a factor gates nothing and constrains nothing, so the point set
    is unchanged; keeping the rows only inflates enumeration budgets.
    """
    used = np.bitwise_or.reduce(c.E.data, axis=0)
    if c.q:
        used |= np.bitwise_or.reduce(c.R.data, axis=0)
    if used.tobytes() == pad_mask(c.p).tobytes():
        return c
    live = np.flatnonzero(unpack_rows(used[None, :], c.p)[0]).tolist()
    ids, p = tuple(c.id[k] for k in live), len(live)
    R = select_rows(c.R, live) if c.q else BitMatrix._of_masked(p, np.zeros((0, n_words(p)), dtype=np.uint64))
    return CPLZ._of_parts(c.c, c.G, select_rows(c.E, live), c.A, c.b, R, ids)


def absorb(c: CPLZ, private) -> CPLZ:
    """Quantify the factors in ``private`` (ids that no other set holds) out
    of an unconstrained set, as early quantification does in symbolic image
    computation (Burch, Clarke & Long 1991).

    A private factor that occurs only in its own degree-1 column is a free
    XOR of that column's payload, so the set is X xor V over the span V of
    those payloads. The center and every other payload are reduced modulo
    V (``gf2_basis`` rows clear their pivot bits), one such column per
    basis row keeps its factor with the basis row as payload, and the rest
    go. For each value of the other factors the reduced point lies in the
    same coset of V, so the point set is kept; since no other set reads the
    absorbed factors, every joint with other sets is kept too. The result
    is in the normal form of ``canonicalize`` and ``drop_inert_ids``; a set
    with constraints, or with no factor to absorb, is returned as it is.
    """
    if c.m or c.q or not c.h:
        return c
    own = np.fromiter((i in private for i in c.id), dtype=bool, count=c.p)
    if not own.any():
        return c
    d = canonicalize(c)  # one column per monomial, none of them constant
    keys, payloads = d.E.data, d.G.data
    mask = pack_bool_rows(own[None, :])[0]
    # a unit monomial has one nonzero word, and that word a power of two
    unit = (np.count_nonzero(keys, axis=1) == 1) & ~(keys & (keys - np.uint64(1))).any(axis=1)
    if not unit.all():  # leave the factors that a higher-degree monomial reads
        mask &= ~np.bitwise_or.reduce(keys[~unit], axis=0)
    free = np.flatnonzero(unit & (keys & mask).any(axis=1))
    if not len(free):
        return c
    basis = gf2_basis(payloads[free])
    rows = np.concatenate([d.c.words[None, :], payloads])  # the center, then the payloads
    for row in basis:  # a basis row holds its pivot, its top bit, alone
        words = row.tolist()
        w = max(j for j, x in enumerate(words) if x)
        bit = np.uint64(1 << (words[w].bit_length() - 1))
        np.bitwise_xor(rows, row, out=rows, where=(rows[:, w] & bit != 0)[:, None])
    center, G = rows[0], rows[1:]
    G[free[: len(basis)]] = basis
    keep = G.any(axis=1)
    keep[free[len(basis) :]] = False
    # dropping columns keeps the order and the distinct keys of canonicalize
    trusted = BitMatrix._of_masked  # XORs of masked words
    return drop_inert_ids(CPLZ._of_parts(
        BitVector._of_masked(d.n, center), trusted(d.n, G[keep]), trusted(d.p, keys[keep]),
        d.A, d.b, d.R, d.id,
    ))
