"""Ground-truth point-domain machinery.

Converts generator-domain sets to explicit point sets by sweeping all
factor assignments that satisfy the constraints, and provides brute-force
set operations for equivalence testing; encodes a point list back into
one exact set with the same transform. One sweep generator yields the
points block by block: enumeration dedupes after each block, and a
witness is the first point of the first non-empty block. The sweep cost
is 2^p over the live factors (inert ones are dropped first), so that p
is guarded by an EnumerationBudget, and an enumeration emits at most
MAX_POINTS points. Unconstrained sets whose monomials all have degree at
most one (logical zonotopes among them) are affine subspaces over GF(2),
offset XOR span(G), whatever their factor count: ``bitvec.gf2_basis``
reduces their generators to a basis of some rank r, so they have 2^r
points, and the same subset-XOR transform lists them over r factors,
one per basis row.
Enumeration dedupes by sorting the packed words of the swept points in
place (``bitvec._unique_rows``) and keeping each row that differs from
its predecessor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import kernels
from .bitvec import GATE_WORDS, BitMatrix, BitVector, Gate, _unique_rows, gf2_basis, n_words, pad_mask
from .errors import BudgetExceeded, DimensionError
from .sets import CPLZ, IdAllocator, canonicalize, drop_inert_ids

DEFAULT_MAX_FACTORS = 24
MAX_POINTS = 2_000_000  # cap on the points one enumeration emits

_CHUNK_BITS = 20  # sweep in chunks of 2^20 assignments to bound memory


@dataclass(frozen=True)
class EnumerationBudget:
    """Cap on the enumeration sweep: the factors it sweeps, inert ones left out."""

    max_factors: int = DEFAULT_MAX_FACTORS

    def __post_init__(self):
        if self.max_factors <= 0:
            raise ValueError("max_factors must be positive")
        if self.max_factors > 63:
            raise ValueError("at most 63 factors are supported per sweep")


DEFAULT_BUDGET = EnumerationBudget()


class PointSet:
    """Deduplicated collection of equal-length binary vectors.

    Rows are stored packed and lexicographically sorted, so equality is a
    plain array comparison and enumeration order never shows through.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: np.ndarray):
        rows = np.asarray(rows, dtype=np.uint64)
        if rows.ndim != 2 or rows.shape[1] != n_words(n):
            raise ValueError(f"expected (k, {n_words(n)}) rows for {n} bits, got {rows.shape}")
        rows = _unique_rows(rows & pad_mask(n)[None, :])
        rows.setflags(write=False)
        self.n = n
        self.rows = rows

    @classmethod
    def _of_unique(cls, n: int, rows: np.ndarray) -> "PointSet":
        """Trust rows that are already masked, distinct and sorted, as _unique_rows leaves them."""
        ps = object.__new__(cls)
        rows.setflags(write=False)
        ps.n, ps.rows = n, rows
        return ps

    @classmethod
    def empty(cls, n: int) -> "PointSet":
        return cls(n, np.zeros((0, n_words(n)), dtype=np.uint64))

    @classmethod
    def from_bitvectors(cls, vectors: Iterable[BitVector], n: int | None = None) -> "PointSet":
        vectors = list(vectors)
        if n is None:
            if not vectors:
                raise ValueError("dimension required for an empty point set")
            n = vectors[0].n
        for v in vectors:
            if v.n != n:
                raise DimensionError(f"point length {v.n} != {n}")
        if not vectors:
            return cls.empty(n)
        return cls(n, np.stack([v.words for v in vectors]))

    @classmethod
    def from_bitstrings(cls, strings: Iterable[str], n: int | None = None) -> "PointSet":
        return cls.from_bitvectors([BitVector.from01(s) for s in strings], n)

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __contains__(self, x: BitVector) -> bool:
        if x.n != self.n:
            raise DimensionError(f"point length {x.n} != set dimension {self.n}")
        return bool((self.rows == x.words).all(axis=1).any())

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.rows, other.rows))

    def __hash__(self):
        return hash((self.n, self.rows.tobytes()))

    def issubset(self, other: "PointSet") -> bool:
        if self.n != other.n:
            raise DimensionError(f"dimensions differ: {self.n} != {other.n}")
        merged = _unique_rows(np.concatenate([self.rows, other.rows]))
        return merged.shape[0] == other.rows.shape[0]

    def bitvectors(self) -> list[BitVector]:
        return [BitVector(self.n, row) for row in self.rows]

    def to_bitstrings(self) -> list[str]:
        return [v.to01() for v in self.bitvectors()]

    def __repr__(self) -> str:
        return f"PointSet(n={self.n}, k={len(self)})"


def pointset_gate(gate: Gate, p1: PointSet, p2: PointSet) -> PointSet:
    """Brute-force Minkowski semantics: the gate applied to every point pair."""
    if p1.n != p2.n:
        raise DimensionError(f"dimensions differ: {p1.n} != {p2.n}")
    out = GATE_WORDS[gate](p1.rows[:, None, :], p2.rows[None, :, :])
    return PointSet(p1.n, out.reshape(-1, p1.rows.shape[1]))


# --- point domain -> generator domain ---------------------------------------


def encode_points(points: Iterable[BitVector], alloc: IdAllocator) -> CPLZ:
    """One exact unconstrained set whose points are exactly the listed ones.

    The K distinct points, in listed order, fill an index -> point table
    over k = ceil(log2 K) fresh factors, padded to 2^k entries with the
    first point. The subset-XOR transform is its own inverse over GF(2),
    so on the table it yields the algebraic normal form F, with
    table[alpha] == XOR of F[m] over m subset-of alpha: F[0] is the
    center (the first point) and each nonzero F[m] one generator with
    exponent column m. One point is a singleton; two are the center plus
    the generator x0 ^ x1 under an identity exponent.
    """
    points = list(dict.fromkeys(points))
    if not points:
        raise ValueError("a point list must contain at least one point")
    widths = {v.n for v in points}
    if len(widths) != 1:
        raise ValueError(f"points of mixed lengths: {sorted(widths)}")
    n = points[0].n
    k = (len(points) - 1).bit_length()
    size = 1 << k
    table = np.stack([v.words for v in points] + [points[0].words] * (size - len(points)))
    anf = kernels.subset_xor(0, np.arange(size, dtype=np.uint64), table, np.empty_like(table))
    cols = np.flatnonzero(anf.any(axis=1)[1:]) + 1
    exponents = (cols[None, :] >> np.arange(k)[:, None]) & 1
    return CPLZ.unconstrained(
        BitVector(n, anf[0]), BitMatrix(n, anf[cols]), BitMatrix.from_bool(exponents), alloc.fresh(k)
    )


# --- generator domain -> point domain ---------------------------------------


def _span_form(c: CPLZ) -> tuple[np.ndarray, np.ndarray] | None:
    """(offset, basis) with point set == offset XOR span(basis), for sets whose
    monomials all have degree <= 1 (no effective constraints); the basis
    is ``bitvec.gf2_basis`` of the payloads.

    After canonicalize, the columns gated by one factor have merged into
    one and the degree-0 columns have folded into the center, so the
    offset is the center and the payloads span the rest. Returns None
    when a sweep is required, or when the empty constraint system is
    unsatisfiable (caller checks that first).
    """
    if c.q > 0 and c.m > 0:
        return None
    words = c.E.data
    # degree <= 1: each exponent column has at most one nonzero word, a power of two
    if (words & (words - np.uint64(1))).any() or ((words != 0).sum(axis=1) > 1).any():
        return None
    d = canonicalize(c)
    return d.c.words, gf2_basis(d.G.data)


def _empty_by_constraints(c: CPLZ) -> bool:
    """q == 0 leaves the fixed constraint 0 == b; unsatisfiable iff b has a set bit."""
    return c.q == 0 and c.m > 0 and bool(c.b.words.any())


def _sweep(c: CPLZ, budget: EnumerationBudget):
    """Yield the points of the admissible assignments, one block of at most
    2^_CHUNK_BITS assignments at a time; points may repeat across blocks.

    Inert factor rows are compacted away first, and only the factors left
    count against the budget. Within the budget (at most 63 factors) each
    packed column of E and R is one word, which is the column's factor mask.
    """
    d = drop_inert_ids(c)
    if d.p > budget.max_factors:
        raise BudgetExceeded(
            f"{d.p} factors exceed the enumeration cap of {budget.max_factors};"
            " raise max_factors if the sweep is really wanted"
        )
    emasks = np.bitwise_or.reduce(d.E.data, axis=1)  # the one word, or 0 when no factor is left
    rmasks = np.bitwise_or.reduce(d.R.data, axis=1)
    chunk = 1 << min(_CHUNK_BITS, d.p)
    for start in range(0, 1 << d.p, chunk):
        out = np.empty((chunk, n_words(c.n)), dtype=np.uint64)
        cnt = kernels.sweep_chunk(
            start, start + chunk, emasks, d.G.data, d.c.words, rmasks, d.A.data, d.b.words, out
        )
        if cnt:
            yield out[:cnt]


def enumerate_points(c: CPLZ, budget: EnumerationBudget | None = None) -> PointSet:
    """All points of a set, per the defining comprehension.

    For each factor assignment alpha in {0,1}^p satisfying the constraint
    system, emits c XOR the XOR of generator columns whose monomial is 1
    (convention alpha^0 == 1, alpha^1 == alpha), then deduplicates.
    Affine sets enumerate through their GF(2) span; everything else
    sweeps, subject to the factor budget.
    """
    budget = budget or DEFAULT_BUDGET
    if _empty_by_constraints(c):
        return PointSet.empty(c.n)
    span = _span_form(c)
    if span is not None:
        offset, basis = span
        r = basis.shape[0]
        if 1 << r > MAX_POINTS:
            raise BudgetExceeded(f"affine set has 2^{r} points, over the cap of {MAX_POINTS}")
        # one factor per basis row: the transform lists every subset XOR of the basis
        table = np.empty((1 << r, basis.shape[1]), dtype=np.uint64)
        masks = np.uint64(1) << np.arange(r, dtype=np.uint64)
        return PointSet(c.n, kernels.subset_xor(0, masks, basis, table) ^ offset)
    rows = np.zeros((0, n_words(c.n)), dtype=np.uint64)
    for block in _sweep(c, budget):
        # the first block is deduped without a copy: it is a sweep's largest array
        rows = _unique_rows(np.concatenate([rows, block]) if rows.shape[0] else block)
        if rows.shape[0] > MAX_POINTS:
            raise BudgetExceeded(f"point set exceeds the cap of {MAX_POINTS}")
    return PointSet._of_unique(c.n, rows)  # swept points are masked like c and G


def count_points(c: CPLZ, budget: EnumerationBudget | None = None) -> int:
    """Cardinality of the point set; affine sets are counted by rank, without
    materializing."""
    budget = budget or DEFAULT_BUDGET
    if _empty_by_constraints(c):
        return 0
    span = _span_form(c)
    if span is not None:
        return 1 << len(span[1])
    return len(enumerate_points(c, budget))


def witness_point(c: CPLZ, budget: EnumerationBudget | None = None) -> BitVector | None:
    """Some member of the set, or None when it is empty."""
    budget = budget or DEFAULT_BUDGET
    if _empty_by_constraints(c):
        return None
    span = _span_form(c)
    if span is not None:
        return BitVector(c.n, span[0])
    for block in _sweep(c, budget):
        return BitVector(c.n, block[0])
    return None


def is_empty(s, budget: EnumerationBudget | None = None) -> bool:
    """True iff no factor assignment satisfies the constraints."""
    return witness_point(s, budget) is None


def contains(s, x: BitVector, budget: EnumerationBudget | None = None) -> bool:
    """Membership query in the point domain."""
    if x.n != s.n:
        raise DimensionError(f"point length {x.n} != set dimension {s.n}")
    return x in enumerate_points(s, budget)
