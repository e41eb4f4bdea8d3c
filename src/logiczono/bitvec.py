"""Bit-packed binary vectors and matrices with word-wide gate kernels.

Bits are packed LSB-first into 64-bit words: bit i of a vector lives in
word i // 64 at position i % 64, so an elementwise gate over n bits is
ceil(n / 64) machine instructions. Padding bits past the declared length
are kept at zero; every constructor and gate maintains that invariant.

Textual form: index 0 is the leftmost character, e.g. "1010" has bit 0
set, bit 1 clear.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError

WORD_BITS = 64
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


class Gate(Enum):
    XOR = "xor"
    AND = "and"
    OR = "or"
    XNOR = "xnor"
    NAND = "nand"
    NOR = "nor"


def n_words(nbits: int) -> int:
    return (nbits + WORD_BITS - 1) // WORD_BITS


@lru_cache(maxsize=None)
def pad_mask(nbits: int) -> np.ndarray:
    """Per-word mask with ones at bit positions < nbits and zeros in the padding.

    Built once per length and shared, so it is read-only: callers AND it
    into a new array.
    """
    nw = n_words(nbits)
    mask = np.full(nw, _ALL_ONES, dtype=np.uint64)
    tail = nbits % WORD_BITS
    if nw and tail:
        mask[-1] = (np.uint64(1) << np.uint64(tail)) - np.uint64(1)
    mask.setflags(write=False)
    return mask


def pack_bool_rows(rows: np.ndarray) -> np.ndarray:
    """Pack a (k, nbits) boolean array into (k, n_words(nbits)) uint64 rows."""
    rows = np.ascontiguousarray(rows, dtype=bool)
    k, nbits = rows.shape
    if nbits == 0:
        return np.zeros((k, 0), dtype=np.uint64)
    shifts = (np.arange(nbits, dtype=np.uint64) % np.uint64(WORD_BITS))
    contrib = rows.astype(np.uint64) << shifts
    boundaries = np.arange(0, nbits, WORD_BITS)
    return np.bitwise_or.reduceat(contrib, boundaries, axis=1)


def unpack_rows(words: np.ndarray, nbits: int) -> np.ndarray:
    """Expand (k, nw) packed rows back into a (k, nbits) boolean array."""
    k = words.shape[0]
    if nbits == 0:
        return np.zeros((k, 0), dtype=bool)
    idx = np.arange(nbits)
    w = words[:, idx // WORD_BITS]
    shifts = (idx % WORD_BITS).astype(np.uint64)
    return ((w >> shifts) & np.uint64(1)).astype(bool)


class BitVector:
    """Immutable fixed-length vector over {0, 1}.

    Equality and hashing are bitwise over the first ``len`` positions.
    """

    __slots__ = ("n", "words")

    def __init__(self, n: int, words: np.ndarray):
        if n < 0:
            raise ValueError("bit length must be non-negative")
        words = np.asarray(words, dtype=np.uint64)
        if words.shape != (n_words(n),):
            raise ValueError(f"expected {n_words(n)} words for {n} bits, got shape {words.shape}")
        words = words & pad_mask(n)
        words.setflags(write=False)
        self.n = n
        self.words = words

    @classmethod
    def _of_masked(cls, n: int, words: np.ndarray) -> "BitVector":
        """Trust n_words(n) uint64 words whose padding bits are already zero,
        as XOR, AND and OR of masked words and row moves leave them: no copy,
        no mask."""
        v = object.__new__(cls)
        words.setflags(write=False)
        v.n, v.words = n, words
        return v

    @classmethod
    def zeros(cls, n: int) -> "BitVector":
        return cls(n, np.zeros(n_words(n), dtype=np.uint64))

    @classmethod
    def ones(cls, n: int) -> "BitVector":
        return cls(n, pad_mask(n))

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVector":
        arr = np.asarray(list(bits), dtype=bool)
        return cls(arr.size, pack_bool_rows(arr[None, :])[0])

    @classmethod
    def from01(cls, text: str) -> "BitVector":
        if any(ch not in "01" for ch in text):
            raise ValueError(f"bit string may contain only '0'/'1': {text!r}")
        return cls.from_bits(1 if ch == "1" else 0 for ch in text)

    def to01(self) -> str:
        return "".join("1" if b else "0" for b in self.bits())

    def bits(self) -> np.ndarray:
        return unpack_rows(self.words[None, :], self.n)[0]

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.words, other.words))

    def __hash__(self) -> int:
        return hash((self.n, self.words.tobytes()))

    def __repr__(self) -> str:
        return f"BitVector('{self.to01()}')"


# Word-level form of the six gates; every constructor masks the padding bits.
GATE_WORDS = {
    Gate.XOR: np.bitwise_xor,
    Gate.AND: np.bitwise_and,
    Gate.OR: np.bitwise_or,
    Gate.XNOR: lambda a, b: ~(a ^ b),
    Gate.NAND: lambda a, b: ~(a & b),
    Gate.NOR: lambda a, b: ~(a | b),
}


def elementwise_gate(gate: Gate, a: BitVector, b: BitVector) -> BitVector:
    """Apply one of the six binary gates position by position."""
    if a.n != b.n:
        raise DimensionError(f"bit length mismatch: {a.n} != {b.n}")
    return BitVector(a.n, GATE_WORDS[gate](a.words, b.words))


def complement(a: BitVector) -> BitVector:
    """Flip every bit; padding stays zero."""
    return BitVector._of_masked(a.n, a.words ^ pad_mask(a.n))


def _move_rows(words: np.ndarray, src: Sequence[int], dst: Sequence[int], nbits: int) -> np.ndarray:
    """Packed rows of nbits bits that hold bit src[k] of each row at bit dst[k]
    and zeros elsewhere.

    The runs of (src, dst), maximal stretches that step by one on both
    sides, are found once by arithmetic: a step-one range has no break, any
    other sequence breaks where its difference is not one. A run moves in
    pieces that stay in one word on each side, each by at most one shift
    and one mask. The mask is left out where the shift already clears every
    bit outside the piece, or where the bits above it are the padding of a
    source given as range(n), which callers pass masked and n rows high.
    The first piece into a result word writes it, later ones OR into it,
    and only words that no piece reaches are zeroed. A block at offset 0 in
    as many words is ``words`` itself."""
    n, nw = len(src), n_words(nbits)
    whole = isinstance(src, range) and src.step == 1
    if whole and isinstance(dst, range) and dst.step == 1:
        if src.start == dst.start == 0 and words.shape[1] == nw:
            return words
        starts = [0] if n else []
    else:
        breaks = None
        for side in (src, dst):
            if not (isinstance(side, range) and side.step == 1):
                side = np.asarray(side)
                b = side[1:] - side[:-1] != 1
                breaks = b if breaks is None else breaks | b
        starts = [0, *(k + 1 for k in breaks.nonzero()[0].tolist())] if n else []
    top = n if whole and src.start == 0 else -1
    out = np.empty((words.shape[0], nw), dtype=np.uint64)
    blank = [True] * nw
    for lo, hi in zip(starts, starts[1:] + [n]):
        s, d, left = int(src[lo]), int(dst[lo]), hi - lo
        while left:
            (ws, so), (wd, do) = divmod(s, WORD_BITS), divmod(d, WORD_BITS)
            take = min(left, WORD_BITS - so, WORD_BITS - do)
            first, x = blank[wd], words[:, ws]
            into = out[:, wd] if first else None
            if so != do:
                x = into = (np.right_shift if so > do else np.left_shift)(x, abs(so - do), out=into)
            # the shift keeps source bits below the piece when both offsets
            # are nonzero, and those above it when it ends inside both words
            if min(so, do) or (max(so, do) + take < WORD_BITS and s + take != top):
                x = np.bitwise_and(x, ((1 << take) - 1) << do, out=into)
            if not first:
                out[:, wd] |= x
            elif x is not into:  # neither shifted nor masked
                out[:, wd] = x
            blank[wd] = False
            s, d, left = s + take, d + take, left - take
    if any(blank):
        out[:, [w for w, b in enumerate(blank) if b]] = 0
    return out


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """Distinct packed rows in ``np.unique(rows, axis=0)`` order (word 0 is the
    primary key): sorts the words and keeps each row unequal to its predecessor.

    One-word rows are sorted in place, in their own dtype (uint64 words, or
    the uint32 words of a sweep block of at most 32 bits), so callers pass
    an array they own: ``PointSet`` its masked copy, ``issubset`` a
    concatenation, ``enumerate_points`` its sweep block, ``lz_flatten`` a
    copy of G."""
    if rows.shape[0] == 0 or rows.shape[1] == 0:
        return rows[:1] if rows.shape[1] == 0 and rows.shape[0] else rows.copy()
    one_word = rows.shape[1] == 1
    if one_word:
        s = rows[:, 0]
        s.sort()
    else:
        s = rows[np.lexsort(rows.T[::-1])]
    keep = np.empty(s.shape[0], dtype=bool)
    keep[0] = True
    if one_word:
        np.not_equal(s[1:], s[:-1], out=keep[1:])
        return s[keep].reshape(-1, 1)
    np.any(s[1:] != s[:-1], axis=1, out=keep[1:])
    return s[keep]


def gf2_basis(rows: np.ndarray) -> np.ndarray:
    """The reduced row-echelon basis of the GF(2) span of packed rows, as packed
    rows in increasing pivot order; a row's pivot is its top bit, which no
    other basis row has set, so the basis is unique for a span.

    Dedupes and drops the zero row first, then each pass takes the rest row
    with the highest top bit as the next pivot and XORs it into every row,
    pivots found so far included, that has that bit. Found pivots are kept
    in front, highest first."""
    m = _unique_rows(rows.copy())
    if m.shape[0] and not np.count_nonzero(m[0]):  # the zero row sorts first
        m = m[1:]
    i, w = 0, m.shape[1] - 1
    while i < m.shape[0] and w >= 0:
        j = i + int(m[i:, w].argmax())
        r = m[j].copy()
        if not r[w]:  # no rest row has a bit in word w
            w -= 1
            continue
        col = m[:, w]
        # r's top bit is the highest bit r flips, so x ^ r < x in word w iff x has it
        np.bitwise_xor(m, r, out=m, where=((col ^ r[w]) < col)[:, None])
        m[j] = m[i]
        m[i] = r
        i += 1
    return m[:i][::-1]


class BitMatrix:
    """Matrix over {0, 1} stored column-major: one packed payload per column.

    ``data`` has shape (cols, n_words(rows)); row index is the bit index
    inside a column payload. A 0-column matrix is valid.
    """

    __slots__ = ("rows", "data")

    def __init__(self, rows: int, data: np.ndarray):
        if rows < 0:
            raise ValueError("row count must be non-negative")
        data = np.asarray(data, dtype=np.uint64)
        if data.ndim != 2 or data.shape[1] != n_words(rows):
            raise ValueError(f"expected (cols, {n_words(rows)}) payload for {rows} rows, got {data.shape}")
        data = data & pad_mask(rows)[None, :]
        data.setflags(write=False)
        self.rows = rows
        self.data = data

    @classmethod
    def _of_masked(cls, rows: int, data: np.ndarray) -> "BitMatrix":
        """Trust a (cols, n_words(rows)) uint64 payload whose padding bits are
        already zero, as XOR, AND, OR and row moves of masked words leave them:
        no copy, no mask."""
        m = object.__new__(cls)
        data.setflags(write=False)
        m.rows, m.data = rows, data
        return m

    @property
    def cols(self) -> int:
        return self.data.shape[0]

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, np.zeros((cols, n_words(rows)), dtype=np.uint64))

    @classmethod
    def identity(cls, k: int) -> "BitMatrix":
        return cls.from_bool(np.eye(k, dtype=bool))

    @classmethod
    def from_columns(cls, columns: Sequence[BitVector], rows: int | None = None) -> "BitMatrix":
        if rows is None:
            if not columns:
                raise ValueError("row count required for a matrix with no columns")
            rows = columns[0].n
        for c in columns:
            if c.n != rows:
                raise DimensionError(f"column length {c.n} != {rows}")
        if not columns:
            return cls.zeros(rows, 0)
        return cls(rows, np.stack([c.words for c in columns]))

    @classmethod
    def from_bool(cls, arr: np.ndarray) -> "BitMatrix":
        """Build from a (rows, cols) boolean array."""
        arr = np.asarray(arr, dtype=bool)
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        rows, _ = arr.shape
        return cls(rows, pack_bool_rows(np.ascontiguousarray(arr.T)))

    def to_bool(self) -> np.ndarray:
        return unpack_rows(self.data, self.rows).T

    def column(self, j: int) -> BitVector:
        return BitVector(self.rows, self.data[j])

    def columns(self) -> list[BitVector]:
        return [self.column(j) for j in range(self.cols)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self.rows == other.rows and bool(np.array_equal(self.data, other.data))

    def __hash__(self):
        return hash((self.rows, self.data.tobytes()))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


def hconcat(*mats: BitMatrix) -> BitMatrix:
    """Concatenate matrices side by side (same row count)."""
    rows = mats[0].rows
    for m in mats[1:]:
        if m.rows != rows:
            raise DimensionError(f"row count mismatch: {m.rows} != {rows}")
    return BitMatrix._of_masked(rows, np.concatenate([m.data for m in mats], axis=0))


def blkdiag(*mats: BitMatrix) -> BitMatrix:
    """Block-diagonal composition [[a, 0, ...], [0, b, ...], ...] of one or more matrices."""
    rows, off, blocks = sum(m.rows for m in mats), 0, []
    for m in mats:
        blocks.append(_move_rows(m.data, range(m.rows), range(off, off + m.rows), rows))
        off += m.rows
    return BitMatrix._of_masked(rows, np.concatenate(blocks))


def concat(*vecs: BitVector) -> BitVector:
    """Concatenate vectors: each one's bits follow those of the ones before it."""
    n, off = sum(v.n for v in vecs), 0
    words = np.zeros(n_words(n), dtype=np.uint64)
    for v in vecs:
        words |= _move_rows(v.words[None, :], range(v.n), range(off, off + v.n), n)[0]
        off += v.n
    return BitVector._of_masked(n, words)


def select_rows(m: BitMatrix, rows: Sequence[int]) -> BitMatrix:
    """The matrix of m's rows at the given indices, in that order."""
    words = _move_rows(m.data, rows, range(len(rows)), len(rows))
    # a range of rows moves as a block, which carries m's rows past it into the padding
    return BitMatrix(len(rows), words) if isinstance(rows, range) else BitMatrix._of_masked(len(rows), words)
