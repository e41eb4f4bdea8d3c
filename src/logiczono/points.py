"""Ground-truth point-domain machinery.

Converts generator-domain sets to explicit point sets by sweeping all
factor assignments that satisfy the constraints, and provides brute-force
set operations for equivalence testing; encodes a point list back into
one exact set with the same transform. One sweep generator (``_sweep``)
yields the points block by block: enumeration dedupes after each block,
and a witness is the first point of the first non-empty block. It runs
from words, not from a set: one factor mask word per generator and
constraint column (the column's one packed word of E or R, as a set of
at most 63 factors has), and the payloads, center, A and b in
``_lanes``; ``_words`` reduces a set to them. The sweep cost is 2^p over
the live factors (inert ones are dropped first), so that p is guarded by
an EnumerationBudget, and an enumeration emits at most MAX_POINTS
points. A set with no effective constraint admits every
assignment, so its witness is the point of alpha = 0, found without a
sweep or a budget. Unconstrained sets whose monomials all have degree at
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
rows, and S = F_A & F_B are the shared ones. Each side is an
unconstrained set built as words, never as a set: its rows of c and G,
the factor masks of the columns that meet them plus one unit column per
shared factor, compacted to F_A (or F_B) by one row move
(``bitvec._move_rows``); the same sweep lists its distinct keys (s, x)
over F_A (or F_B) alone. Given s, the private factors of the two sides are
independent, so the points are the join of the two key lists on s,
deduped like any sweep block: the same ``PointSet`` as one sweep, bit
for bit. ``_split`` plans the split once: side A's rows and the factor
masks of both sides, the side with fewer factors first. A split pays
(``_pays``) when its predicted cost, in rows of one sweep, is below the
2^p rows of one sweep: 2^|F_A| + 2^|F_B| rows of side sweeps, the rows
of the join, n rows per generator column and the fixed ``_SPLIT_ROWS``,
measured as the crossover on the shipped circuit's joints. Every value
of the shared factors occurs on both sides, so ``_split`` counts the
join as at least 2^|S| rows; after sweeping side A, ``_joined`` bounds
it from above by K * 2^|F_B - S| for side A's K keys and sweeps the set
whole when that no longer pays. A split may have no shared factor; then
the join is a cross product. On the shipped demo the joints of steps
5-7 split and those of steps 1-4 are swept whole. The budget counts
all p live factors of a split set, and constrained sets, sets wider
than 64 bits and sets whose side keys (n bits, then |S|) do not fit one
word keep the single sweep.

Product counts. When the output rows fall into two or more groups over
pairwise-disjoint factor sets (``_groups``, merged by ``_disjoint``;
row i's factor word is the OR of the factor masks of the columns with
bit i), the groups are independent and ``count_points`` multiplies their
counts: each group is swept over its own factors (``_side_keys`` with no
shared factor), with no join and no dedupe of joint points. It does so
when 2^|F_1| + ... + 2^|F_k| rows, n rows per generator column and the
fixed ``_PRODUCT_ROWS`` (measured as the crossover on the shipped
circuit's joints) cost less than the 2^p rows of one sweep. On the
shipped demo the joints of steps 4-11 are counted so, as B1 and B2 over
their factors and B3 over its own. A product count sweeps each group
alone, so the budget caps the largest group, not p: the demo's step-8
joint (p = 27) is counted as groups of 18 and 9 factors. A set must
still have at most 63 live factors, since ``_groups`` reads one mask
word per column.
"""

from __future__ import annotations

import math
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
    _move_rows,
    _unique_rows,
    gf2_basis,
    n_words,
    pad_mask,
    unpack_rows,
)
from .errors import BudgetExceeded, DimensionError
from .sets import CPLZ, IdAllocator, canonicalize, drop_inert_ids

DEFAULT_MAX_FACTORS = 24
MAX_POINTS = 2_000_000  # cap on the points one enumeration emits

_CHUNK_BITS = 20  # sweep in chunks of 2^20 assignments to bound memory
_SPLIT_ROWS = 1 << 15  # a split's fixed cost, in rows of one sweep
_PRODUCT_ROWS = 1 << 13  # a product count's fixed cost, in rows of one sweep
_COLUMN_BLOCK = 1 << 16  # columns per block of _groups' factor words


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
    when a sweep is required: a constraint is in play (a column of it, or
    the fixed constraint 0 == b with b nonzero, which no point meets).
    """
    if c.m and (c.q or c.b.words.any()):
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


def _within(factors: int, budget: EnumerationBudget, group: bool = False) -> None:
    """Raise unless a sweep over that many factors, a whole set's or one
    group's, fits the budget."""
    if factors > budget.max_factors:
        what = f"a group of {factors} factors exceeds" if group else f"{factors} factors exceed"
        raise BudgetExceeded(
            f"{what} the enumeration cap of {budget.max_factors};"
            " raise max_factors if the sweep is really wanted"
        )


def _live(c: CPLZ, budget: EnumerationBudget) -> CPLZ:
    """The set with its inert factor rows compacted away; only the factors
    left count against the budget."""
    d = drop_inert_ids(c)
    _within(d.p, budget)
    return d


def _masks(words: np.ndarray) -> np.ndarray:
    """The factor mask of each packed column of E or R over at most 64
    factors: its one word, or 0 when no factor is left."""
    return words[:, 0] if words.shape[1] else np.zeros(words.shape[0], dtype=np.uint64)


_NONE = np.zeros(0, dtype=np.uint64)  # no constraint column, no constraint row


def _sweep(p: int, emasks, G, center, rmasks=_NONE, A=_NONE, b=_NONE):
    """Yield the points of the admissible assignments over p factors, one
    block of at most 2^_CHUNK_BITS assignments at a time; points may repeat
    across blocks.

    The set comes as words: the factor masks of its generator and
    constraint columns, its payloads G and center in ``_lanes`` (the
    blocks take their dtype), and A and b; no constraint is the default.
    """
    chunk = 1 << min(_CHUNK_BITS, p)
    for start in range(0, 1 << p, chunk):
        out = np.empty((chunk, G.shape[1]), dtype=G.dtype)
        cnt = kernels.sweep_chunk(start, start + chunk, emasks, G, center, rmasks, A, b, out)
        if cnt:
            yield out[:cnt]


def _words(d: CPLZ) -> tuple:
    """``_sweep``'s arguments for a set with no inert factor: within the
    budget (at most 63 factors) each packed column of E and R is one word,
    its factor mask. A set of at most 32 bits, or with at most 32
    constraint rows, sweeps on uint32 words."""
    A, b = (_lanes(d.A.data, d.m), _lanes(d.b.words, d.m)) if d.m else (d.A.data, d.b.words)
    return d.p, _masks(d.E.data), _lanes(d.G.data, d.n), _lanes(d.c.words, d.n), _masks(d.R.data), A, b


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


def _pays(d: CPLZ, factors: list[int], join_rows: int, fixed: int) -> bool:
    """Sweeping d as sides over the factor sets ``factors`` (mask words)
    costs less than the 2^p rows of one sweep. In rows of one sweep it
    costs the 2^|F| rows each side sweeps, the ``join_rows`` of their join,
    n rows per generator column (``_groups`` unpacks every payload bit to
    OR-reduce the columns' factor masks, and each side selects its
    columns) and a ``fixed`` cost per call."""
    swept = sum(1 << f.bit_count() for f in factors)
    return swept + join_rows + d.h * d.n + fixed < 1 << d.p


def _groups(d: CPLZ, fixed: int) -> list[tuple[int, int]] | None:
    """(factors, rows) mask words of d's output rows grouped by equal factor
    sets, for a split or a product with that ``fixed`` cost; None when
    neither can pay: d is constrained, has no factor, is wider than 64
    bits, or is too small for the fixed cost.

    Output row i depends on factor k when some column with bit i in its
    payload has k in its monomial, so row i's factor word is the OR of the
    factor masks of the columns with bit i, a block of columns at a time to
    bound memory. d has at most 63 factors: each mask is one word."""
    if d.q or not d.p or not 0 < d.n <= 64 or not _pays(d, [], 0, fixed):
        return None
    masks, words = d.E.data[:, 0], np.zeros(d.n, dtype=np.uint64)
    for j in range(0, d.h, _COLUMN_BLOCK):
        hits = unpack_rows(d.G.data[j : j + _COLUMN_BLOCK], d.n)
        words |= np.bitwise_or.reduce(np.where(hits, masks[j : j + _COLUMN_BLOCK, None], np.uint64(0)), axis=0)
    groups: dict[int, int] = {}
    for i, f in enumerate(words.tolist()):
        groups[f] = groups.get(f, 0) | 1 << i
    return list(groups.items())


def _disjoint(groups: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The groups merged until their factor sets are pairwise disjoint: a
    group takes in every group it shares a factor with."""
    parts: list[tuple[int, int]] = []
    for f, rows in groups:
        for g, r in [part for part in parts if part[0] & f]:
            parts.remove((g, r))
            f, rows = f | g, rows | r
        parts.append((f, rows))
    return parts


def _split(d: CPLZ, groups: list[tuple[int, int]] | None = None) -> tuple[int, int, int] | None:
    """(side, fa, fb) when two sides may pay: side A's output rows and the
    factors of sides A and B, all mask words, the side with fewer factors
    first.

    Of d's row ``groups`` (``_groups``, found here when not given), the two
    whose union has the fewest factors merge until two are left. Every
    value of the shared factors S = fa & fb occurs on both sides of an
    unconstrained set, so the join has at least 2^|S| rows, and the split
    is taken when it pays (``_pays``) with that many and a key (the n bits,
    then one per shared factor) fits one word. ``_joined`` checks again
    with an upper bound on the join.
    """
    if groups is None:
        groups = _groups(d, _SPLIT_ROWS) or []
    masks, rows = [f for f, _ in groups], [r for _, r in groups]
    while len(masks) > 2:
        i, j = min(combinations(range(len(masks)), 2), key=lambda ij: (masks[ij[0]] | masks[ij[1]]).bit_count())
        masks[i] |= masks.pop(j)
        rows[i] |= rows.pop(j)
    if len(masks) < 2:
        return None
    (fa, side), (fb, _) = sorted(zip(masks, rows), key=lambda fr: fr[0].bit_count())
    shared = (fa & fb).bit_count()
    return (side, fa, fb) if d.n + shared <= 64 and _pays(d, [fa, fb], 1 << shared, _SPLIT_ROWS) else None


def _side_keys(d: CPLZ, side: int, shared: int) -> np.ndarray:
    """The sorted distinct keys x | s << n of one side, as uint64: x holds the
    side's output rows (the mask word ``side``) in place, s the values of
    the shared factors (the mask word ``shared``).

    The side is an unconstrained set swept from words: d's c and G cut to
    its rows, the columns that meet them, and one unit column per shared
    factor (key bits n, n + 1, ... in ascending factor order), with the
    factor masks compacted to the side's own factors F by one row move."""
    G = d.G.data[:, 0] & np.uint64(side)
    keep = G != 0
    units = [k for k in range(d.p) if shared >> k & 1]
    masks = np.concatenate([_masks(d.E.data)[keep], np.uint64(1) << np.array(units, dtype=np.uint64)])
    f = int(np.bitwise_or.reduce(masks, initial=np.uint64(0)))
    own = [k for k in range(d.p) if f >> k & 1]
    if f & (f + 1):  # F is not the low factors 0..|F|-1 already
        masks = _move_rows(masks[:, None], own, range(len(own)), len(own))[:, 0]
    nk = d.n + len(units)
    G = np.concatenate([G[keep], np.uint64(1) << np.arange(d.n, nk, dtype=np.uint64)])
    keys = _sweep(len(own), masks, _lanes(G[:, None], nk), _lanes(d.c.words & np.uint64(side), nk))
    return _distinct(keys, 1)[:, 0].astype(np.uint64, copy=False)


def _joined(d: CPLZ, side: int, fa: int, fb: int):
    """Yield the points of an unconstrained set of at most 64 bits from two
    sides, the rows of the mask word ``side`` over factors ``fa`` and the
    rest over ``fb``, in blocks of about 2^_CHUNK_BITS rows; points may
    repeat across blocks.

    Given the shared factors S = fa & fb, the private factors of the two
    sides are independent, so the points are every pair of A and B keys
    with equal s. Both key lists sort by s, so each key of one side meets
    one run of keys of the other, found by binary search.

    Side A is swept first. Each of its K keys meets at most 2^|F_B - S|
    keys of side B, so the join has J <= K * 2^|F_B - S| rows. When the
    split does not pay (``_pays``) with that bound, the set is swept whole
    instead.
    """
    shared = fa & fb
    ka = _side_keys(d, side, shared)
    if not _pays(d, [fa, fb], len(ka) << (fb & ~shared).bit_count(), _SPLIT_ROWS):
        yield from _sweep(*_words(d))
        return
    n, pad = np.uint64(d.n), pad_mask(d.n)[0]
    kb = _side_keys(d, int(pad) & ~side, shared)
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


def _points(d: CPLZ, groups: list[tuple[int, int]] | None = None) -> np.ndarray:
    """The sorted distinct points of a set with no inert factor, swept whole
    or, when its row ``groups`` make a split pay, as two sides joined on
    their shared factors."""
    plan = _split(d, groups)
    blocks = _sweep(*_words(d)) if plan is None else _joined(d, *plan)
    return _distinct(blocks, n_words(d.n), MAX_POINTS)


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
    rows = _points(d)
    # swept points are masked like c and G, and widening keeps their order
    return PointSet._of_unique(c.n, rows.astype(np.uint64, copy=False))


def count_points(c: CPLZ, budget: EnumerationBudget | None = None) -> int:
    """Cardinality of the point set. Affine sets are counted by rank, without
    materializing. An unconstrained set whose output rows fall into groups
    with pairwise-disjoint factor sets (``_disjoint``) is the product of
    independent groups, so its count is the product of theirs, each swept
    from words over its own factors with no join, when that pays (``_pays``
    with ``_PRODUCT_ROWS``). The budget caps the largest group there, and
    all p live factors otherwise; a set over 63 live factors is refused
    either way."""
    if _empty_by_constraints(c):
        return 0
    span = _span_form(c)
    if span is not None:
        return 1 << len(span[1])
    budget = budget or DEFAULT_BUDGET
    d = drop_inert_ids(c)
    # _groups reads one mask word per column: a set over 63 factors fails below
    groups = _groups(d, min(_PRODUCT_ROWS, _SPLIT_ROWS)) if d.p <= 63 else None
    parts = _disjoint(groups) if groups else []
    if len(parts) > 1 and _pays(d, [f for f, _ in parts], 0, _PRODUCT_ROWS):
        _within(max(f.bit_count() for f, _ in parts), budget, group=True)
        # a group over no factor is one point
        return math.prod(len(_side_keys(d, rows, 0)) for f, rows in parts if f)
    _within(d.p, budget)
    return len(_points(d, groups or []))


def witness_point(c: CPLZ, budget: EnumerationBudget | None = None) -> BitVector | None:
    """Some member of the set, or None when it is empty.

    With no effective constraint every assignment is admissible, and the
    witness is the point of alpha = 0: c XOR the payloads whose monomial is
    constant, with no sweep and no budget. It is also the span's offset and
    the first point a sweep emits."""
    if _empty_by_constraints(c):
        return None
    if not (c.q and c.m):
        constant = c.G.data[~c.E.data.any(axis=1)]
        return BitVector._of_masked(c.n, c.c.words ^ np.bitwise_xor.reduce(constant, axis=0))
    for block in _sweep(*_words(_live(c, budget or DEFAULT_BUDGET))):
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
