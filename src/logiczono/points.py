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
its predecessor. A set of at most 32 bits sweeps and dedupes on uint32
words (``_lanes``; so does a constraint system of at most 32 rows), half
the bytes of the uint64 words, and only its distinct points are widened
back to the uint64 words that ``PointSet`` and every set keep.

Split enumeration. The output bits of a joint set often depend on
different factors: on the shipped circuit the step-5 joint has p = 18,
but B1 and B2 depend on 12 of them and B3 on 11, and the two share the 5
factors of U2. An unconstrained set of at most 64 bits is then swept as
two sides (``_split``): side A is some of its output rows and side B the
rest, F_A and F_B are the factors of the columns that meet each side's
rows, and S = F_A & F_B are the shared ones. Each side is an ordinary
unconstrained set, its rows of c and G plus one unit column per shared
factor, and the same sweep lists its distinct keys (s, x) over F_A (or
F_B) alone. Given s, the private factors of the two sides are
independent, so the points are the join of the two key lists on s,
deduped like any sweep block: the same ``PointSet`` as one sweep, bit
for bit. The split is taken when its predicted cost, in rows of one
sweep, is below the 2^p rows of one sweep: 2^|F_A| + 2^|F_B| rows of
side sweeps, the rows of the join, n rows per generator column and the
fixed ``_SPLIT_ROWS``, measured as the crossover on the shipped
circuit's joints. On the shipped demo that splits the joints of steps
5-7 and sweeps those of steps 1-4 whole. The budget still counts all p
live factors of the set, and constrained sets, sets wider than 64 bits
and sets whose side keys (n bits, then |S|) do not fit one word keep the
single sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

from . import kernels
from .bitvec import (
    GATE_WORDS,
    BitMatrix,
    BitVector,
    Gate,
    _unique_rows,
    gf2_basis,
    n_words,
    pack_bool_rows,
    pad_mask,
    unpack_rows,
)
from .errors import BudgetExceeded, DimensionError
from .sets import CPLZ, IdAllocator, canonicalize, drop_inert_ids

DEFAULT_MAX_FACTORS = 24
MAX_POINTS = 2_000_000  # cap on the points one enumeration emits

_CHUNK_BITS = 20  # sweep in chunks of 2^20 assignments to bound memory
_SPLIT_ROWS = 1 << 15  # a split's fixed cost, in rows of one sweep
_COLUMN_BLOCK = 1 << 16  # columns per product in _row_factors


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


def _lanes(words: np.ndarray, nbits: int) -> np.ndarray:
    """Packed words of nbits-bit rows in the sweep's lanes: uint32 when the
    one word holds them (its high half is padding, so zero), else as given."""
    return words.astype(np.uint32) if nbits <= 32 else words


def _live(c: CPLZ, budget: EnumerationBudget) -> CPLZ:
    """The set with its inert factor rows compacted away; only the factors
    left count against the budget."""
    d = drop_inert_ids(c)
    if d.p > budget.max_factors:
        raise BudgetExceeded(
            f"{d.p} factors exceed the enumeration cap of {budget.max_factors};"
            " raise max_factors if the sweep is really wanted"
        )
    return d


def _sweep(d: CPLZ):
    """Yield the points of the admissible assignments of a set with no inert
    factor, one block of at most 2^_CHUNK_BITS assignments at a time; points
    may repeat across blocks.

    Within the budget (at most 63 factors) each packed column of E and R is
    one word, which is the column's factor mask. The generator and
    constraint tables run on ``_lanes``, so the blocks of a set of at most
    32 bits are uint32 words.
    """
    emasks = np.bitwise_or.reduce(d.E.data, axis=1)  # the one word, or 0 when no factor is left
    rmasks = np.bitwise_or.reduce(d.R.data, axis=1)
    G, center = _lanes(d.G.data, d.n), _lanes(d.c.words, d.n)
    A, b = _lanes(d.A.data, d.m), _lanes(d.b.words, d.m)
    chunk = 1 << min(_CHUNK_BITS, d.p)
    for start in range(0, 1 << d.p, chunk):
        out = np.empty((chunk, n_words(d.n)), dtype=G.dtype)
        cnt = kernels.sweep_chunk(start, start + chunk, emasks, G, center, rmasks, A, b, out)
        if cnt:
            yield out[:cnt]


def _distinct(blocks, nw: int, cap: int | None = None) -> np.ndarray:
    """The distinct rows of the blocks, sorted; raises once more than ``cap``
    are found. The first block is deduped without a copy: it is a sweep's
    largest array."""
    rows = np.zeros((0, nw), dtype=np.uint64)
    for block in blocks:
        rows = _unique_rows(np.concatenate([rows, block]) if rows.shape[0] else block)
        if cap is not None and rows.shape[0] > cap:
            raise BudgetExceeded(f"point set exceeds the cap of {cap}")
    return rows


def _row_factors(d: CPLZ) -> np.ndarray:
    """(n, p) bools: output row i depends on factor k, i.e. some column with
    bit i in its payload has k in its monomial. Counted as a product of the
    unpacked G and E, a block of columns at a time to bound memory."""
    hits = np.zeros((d.n, d.p), dtype=np.float32)
    for j in range(0, d.h, _COLUMN_BLOCK):
        g = unpack_rows(d.G.data[j : j + _COLUMN_BLOCK], d.n).astype(np.float32)
        hits += g.T @ unpack_rows(d.E.data[j : j + _COLUMN_BLOCK], d.p).astype(np.float32)
    return hits > 0


def _fixed_rows(d: CPLZ) -> int:
    """The part of a split's cost that does not depend on its sides, in rows
    of one sweep: n per generator column and ``_SPLIT_ROWS``."""
    return d.h * d.n + _SPLIT_ROWS


def _split(d: CPLZ) -> int | None:
    """The output rows of side A, as a mask word, when two sides may pay.

    Rows with equal factor sets form groups, and the two groups whose union
    has the fewest factors merge until two are left, sides A and B with
    factors F_A and F_B. In rows of one sweep, a split costs the
    2^|F_A| + 2^|F_B| rows its sides sweep, the J rows of their join, n
    rows per generator column (the grouping reads every payload bit, and
    each side rebuilds its columns) and ``_SPLIT_ROWS`` of fixed cost. It
    is taken when that is less than the 2^p rows of one sweep and a key
    (the n bits, then one per shared factor) fits one word. J is not known
    here and counts as 0; ``_joined`` checks again with a bound on it.
    """
    if d.q or not d.p or not 0 < d.n <= 64 or _fixed_rows(d) >= 1 << d.p:
        return None
    groups: dict[int, int] = {}  # factor set -> its rows, both as mask words
    for i, f in enumerate(pack_bool_rows(_row_factors(d))[:, 0].tolist()):
        groups[f] = groups.get(f, 0) | 1 << i
    masks, rows = list(groups), list(groups.values())
    while len(masks) > 2:
        i, j = min(combinations(range(len(masks)), 2), key=lambda ij: (masks[ij[0]] | masks[ij[1]]).bit_count())
        masks[i] |= masks.pop(j)
        rows[i] |= rows.pop(j)
    if len(masks) < 2:
        return None
    fa, fb = masks
    swept = (1 << fa.bit_count()) + (1 << fb.bit_count())
    return rows[0] if d.n + (fa & fb).bit_count() <= 64 and swept + _fixed_rows(d) < 1 << d.p else None


def _side_keys(d: CPLZ, side: int, own: int, shared: int) -> np.ndarray:
    """The sorted distinct keys x | s << n of one side, as uint64: x holds the
    side's output rows (the mask word ``side``) in place, s the values of
    the shared factors.

    The side is an unconstrained set over its own factors ``own`` alone:
    d's c and G cut to its rows, the columns that meet them, and one unit
    column per shared factor."""
    G = d.G.data & np.uint64(side)
    keep = G[:, 0] != 0
    pos = [k for k in range(d.p) if own >> k & 1]
    units = [t for t, k in enumerate(pos) if shared >> k & 1]
    f, nk = len(pos), d.n + len(units)
    E = np.concatenate([unpack_rows(d.E.data[keep], d.p)[:, pos], np.eye(f, dtype=bool)[units]])
    G = np.concatenate([G[keep], (np.uint64(1) << np.arange(d.n, nk, dtype=np.uint64))[:, None]])
    z = CPLZ._of_parts(
        BitVector._of_masked(nk, d.c.words & np.uint64(side)),
        BitMatrix._of_masked(nk, G),
        BitMatrix._of_masked(f, pack_bool_rows(E)),
        d.A, d.b, BitMatrix._of_masked(f, np.zeros((0, n_words(f)), dtype=np.uint64)),
        tuple(d.id[k] for k in pos),
    )
    return _distinct(_sweep(z), 1)[:, 0].astype(np.uint64, copy=False)


def _joined(d: CPLZ, side: int):
    """Yield the points of an unconstrained set of at most 64 bits from two
    sides, the rows of the mask word ``side`` and the rest, in blocks of
    about 2^_CHUNK_BITS rows; points may repeat across blocks.

    A side's factors are those of the columns that meet its rows. Given
    the shared factors S = F_A & F_B, the private factors of the two sides
    are independent, so the points are every pair of A and B keys with
    equal s. Both key lists sort by s, so each key of one side meets one
    run of keys of the other, found by binary search.

    The side with fewer factors is swept first. Each of its K keys meets
    at most 2^(|F| - |S|) keys of the other side, F being that side's
    factors, so the join has J <= K * 2^(|F| - |S|) rows. When that bound
    makes the split cost more than one sweep (see ``_split``), the set is
    swept whole instead.
    """
    sides = (side, int(pad_mask(d.n)[0]) & ~side)
    emasks, payloads = d.E.data[:, 0], d.G.data[:, 0]
    own = [int(np.bitwise_or.reduce(emasks[(payloads & np.uint64(r)) != 0], initial=np.uint64(0))) for r in sides]
    shared = own[0] & own[1]
    (ra, fa), (rb, fb) = sorted(zip(sides, own), key=lambda rf: rf[1].bit_count())
    ka = _side_keys(d, ra, fa, shared)
    swept = (1 << fa.bit_count()) + (1 << fb.bit_count())
    if (len(ka) << (fb & ~shared).bit_count()) + swept + _fixed_rows(d) >= 1 << d.p:
        yield from _sweep(d)
        return
    kb = _side_keys(d, rb, fb, shared)
    n, pad = np.uint64(d.n), pad_mask(d.n)[0]
    lo = np.searchsorted(kb >> n, ka >> n, "left")
    cnt = np.searchsorted(kb >> n, ka >> n, "right") - lo
    xa, xb = _lanes(ka & pad, d.n), _lanes(kb & pad, d.n)
    step = max(1, (1 << _CHUNK_BITS) // max(int(cnt.max()), 1))
    for i in range(0, len(cnt), step):
        c = cnt[i : i + step]
        first = np.cumsum(c) - c
        pts = xb[np.arange(first[-1] + c[-1]) - np.repeat(first - lo[i : i + step], c)]
        pts |= np.repeat(xa[i : i + step], c)
        if len(pts):
            yield pts[:, None]


def enumerate_points(c: CPLZ, budget: EnumerationBudget | None = None) -> PointSet:
    """All points of a set, per the defining comprehension.

    For each factor assignment alpha in {0,1}^p satisfying the constraint
    system, emits c XOR the XOR of generator columns whose monomial is 1
    (convention alpha^0 == 1, alpha^1 == alpha), then deduplicates.
    Affine sets enumerate through their GF(2) span; everything else
    sweeps, subject to the factor budget, either whole or as two sides
    joined on their shared factors (``_split``).
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
    d = _live(c, budget)
    side = _split(d)
    blocks = _sweep(d) if side is None else _joined(d, side)
    rows = _distinct(blocks, n_words(c.n), MAX_POINTS)
    # swept points are masked like c and G, and widening keeps their order
    return PointSet._of_unique(c.n, rows.astype(np.uint64, copy=False))


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
    for block in _sweep(_live(c, budget)):
        return BitVector(c.n, block[0].astype(np.uint64))
    return None


def is_empty(s, budget: EnumerationBudget | None = None) -> bool:
    """True iff no factor assignment satisfies the constraints."""
    return witness_point(s, budget) is None


def contains(s, x: BitVector, budget: EnumerationBudget | None = None) -> bool:
    """Membership query in the point domain."""
    if x.n != s.n:
        raise DimensionError(f"point length {x.n} != set dimension {s.n}")
    return x in enumerate_points(s, budget)
