"""Bit-packed binary vectors and matrices with word-wide gate kernels.

Bits are packed LSB-first into 64-bit words: bit i of a vector lives in
word i // 64 at position i % 64, so an elementwise gate over n bits is
ceil(n / 64) machine instructions. Padding bits past the declared length
are kept at zero; every constructor and gate maintains that invariant.

Textual form: index 0 is the leftmost character, e.g. "1010" has bit 0
set, bit 1 clear.

Row moves (``_move_rows``: ``blkdiag``, ``select_rows`` and the merged
factor rows of ``sets``) place bits of every column at new row positions
a run of rows at a time, on whole columns of words. Their runs are
planned on Python ints, so a move costs about one numpy call per run:
one shift for a block that lands in one word, and one mask, one shift
and one OR for any other run inside one word.
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
    rows = np.asarray(rows, dtype=bool)
    k, nbits = rows.shape
    octets = np.zeros((k, 8 * n_words(nbits)), dtype=np.uint8)  # bit i is bit i % 8 of octet i // 8
    octets[:, : (nbits + 7) // 8] = np.packbits(rows, axis=1, bitorder="little")
    return octets.view("<u8").astype(np.uint64, copy=False)


def unpack_rows(words: np.ndarray, nbits: int) -> np.ndarray:
    """Expand (k, nw) packed rows back into a (k, nbits) boolean array."""
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)  # bit i is bit i % 8 of octet i // 8
    return np.unpackbits(octets, axis=1, count=nbits, bitorder="little").view(bool)


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
    and zeros elsewhere: the bit gather/scatter of Warren, *Hacker's
    Delight* (2nd ed., 2012), section 7-4, one run of bits at a time.

    The runs of (src, dst), maximal stretches that step by one on both
    sides, are planned once on Python ints; two step-one ranges are one
    run. A source given as range(n) is a block, which callers pass masked
    and n rows high, so its bits past row n are zero. Cost, in numpy calls
    on the rows: a block at offset 0 in as many words is ``words`` itself;
    a block that lands in one word is one shift; every other run that stays
    in one word on each side is one mask, one shift and one OR into a
    zeroed result column, and a run that crosses a word boundary on either
    side moves as such pieces, word by word. The mask is left out where the
    shift already clears every bit outside the piece, or where the bits
    above it are a block's zero bits."""
    n, nw = len(src), n_words(nbits)
    if isinstance(src, range) and isinstance(dst, range) and src.step == dst.step == 1:
        if src.start == dst.start == 0 and words.shape[1] == nw:
            return words
        runs = [(src.start, dst.start, n)] if n else []
    else:
        runs, ps, pd = [], -2, -2  # [s, d, length] of each run
        for s, d in zip(src, dst):
            if s == ps + 1 and d == pd + 1:
                runs[-1][2] += 1
            else:
                runs.append([s, d, 1])
            ps, pd = s, d
    top = n if isinstance(src, range) and src.step == 1 and src.start == 0 else -1
    if top >= 0 and len(runs) == 1:
        wd, do = divmod(runs[0][1], WORD_BITS)
        if do + n <= WORD_BITS:  # a block that lands in one word: one shift
            if nw == 1:
                return np.left_shift(words if words.shape[1] == 1 else words[:, :1], do)
            out = np.zeros((words.shape[0], nw), dtype=np.uint64)
            np.left_shift(words[:, 0], do, out=out[:, wd])
            return out
    out = np.zeros((words.shape[0], nw), dtype=np.uint64)
    if not out.size:
        return out
    for s, d, left in runs:
        while left:
            (ws, so), (wd, do) = divmod(s, WORD_BITS), divmod(d, WORD_BITS)
            take = min(left, WORD_BITS - so, WORD_BITS - do)
            x, into, own = words[:, ws], out[:, wd], None
            # the shift keeps source bits below the piece when both offsets
            # are nonzero, and those above it when it ends inside both words
            if min(so, do) or (max(so, do) + take < WORD_BITS and s + take != top):
                x = own = np.bitwise_and(x, ((1 << take) - 1) << so)
            if so != do:
                x = (np.right_shift if so > do else np.left_shift)(x, abs(so - do), out=own)
            np.bitwise_or(into, x, out=into)
            s, d, left = s + take, d + take, left - take
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

    Rows are reduced one at a time, on Python ints: a row is XORed with the
    pivot row of its top bit until it is zero or its top bit has no pivot
    row, and then becomes that bit's pivot row, so a row meets only the
    pivots of the bits it tops, and zero and repeated rows need no dedupe.
    Then each pivot row, lowest first, is XORed into the higher ones that
    have its bit."""
    size = 8 * rows.shape[1]
    data = np.ascontiguousarray(rows, dtype="<u8").tobytes()
    pivots: dict[int, int] = {}
    for i in range(rows.shape[0]):
        x = int.from_bytes(data[i * size : (i + 1) * size], "little")
        while x and (top := x.bit_length() - 1) in pivots:
            x ^= pivots[top]
        if x:
            pivots[top] = x
    tops = sorted(pivots)
    for i, t in enumerate(tops):
        for u in tops[i + 1 :]:
            if pivots[u] >> t & 1:
                pivots[u] ^= pivots[t]
    words = np.frombuffer(b"".join(pivots[t].to_bytes(size, "little") for t in tops), dtype="<u8")
    return words.astype(np.uint64).reshape(len(tops), rows.shape[1])


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
    """Concatenate vectors: each one's bits follow those of the ones before it.

    The bits gather in one Python int, so the words are built in one pass."""
    n, bits = 0, 0
    for v in vecs:
        bits |= int.from_bytes(v.words.astype("<u8", copy=False).tobytes(), "little") << n
        n += v.n
    words = np.frombuffer(bits.to_bytes(8 * n_words(n), "little"), dtype="<u8")
    return BitVector._of_masked(n, words.astype(np.uint64, copy=False))


def select_rows(m: BitMatrix, rows: Sequence[int]) -> BitMatrix:
    """The matrix of m's rows at the given indices, in that order."""
    words = _move_rows(m.data, rows, range(len(rows)), len(rows))
    # a range of rows moves as a block, which carries m's rows past it into the padding
    return BitMatrix(len(rows), words) if isinstance(rows, range) else BitMatrix._of_masked(len(rows), words)
