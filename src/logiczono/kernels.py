"""Enumeration sweep kernel: the GF(2) subset-XOR (zeta) transform.

A sweep covers the factor assignments alpha = start..stop-1 (bit k of the
integer is the value of factor k). Column j is active for alpha iff
(alpha & mask_j) == mask_j, so the XOR of the active payloads is

    T[alpha] = XOR of F[m] over all m subset-of alpha,

where F[m] is the XOR of the payloads whose mask is m. T is the binary
zeta transform of F and takes one in-place pass per factor bit over a
table of all assignments, instead of testing every column against every
assignment at O(h * 2^p) (Joux, *Algorithmic Cryptanalysis*, 2009,
ch. 9). Over GF(2) the transform is its own inverse (the Moebius
transform), so the same pass also turns a table of points back into its
generators (``points.encode_points``), and it lists an affine set from
its reduced basis (``bitvec.gf2_basis``), one factor per basis row
(``points.enumerate_points``).

The passes over short runs are the expensive ones: a pass whose runs
are 2^j rows long pays numpy's per-run overhead, so on a 2^18-row table
the j = 1 pass costs 15 to 20 times a pass with long runs. The transform
is separable by bit, so the lowest b <= FOLD_BITS bits are applied to the
sparse payload list instead: a column lands on every row of its aligned
2^b-row group whose low bits contain its low mask bits, which is
2^(b - popcount) scatter entries, (3/2)^b per column for uniform bits. The
table then takes p - b passes, all with runs of at least 2^b rows, for
O((p - b) * 2^p + h * 2^b) word operations. b is the largest width whose
worst-case scatter h * 2^b stays within 1/SCATTER_SHARE of the table's
rows; a dense set (h close to 2^p, as ``encode_points`` builds) folds
nothing. A pass left with runs shorter than STRIDED_RUNS rows views the
table as one row per pair of runs and XORs each word of the first run
into the second by one strided call, so numpy loops over the long axis.
On a 2^18-row table of uint64 words (2-core x86 box, numpy 2.4) that
takes the runs-of-2 pass from about 1.4 to 0.2 ms and the runs-of-4
pass from about 0.8 to 0.3 ms, with the same bits; at runs of 8 the two
forms cost about the same on large tables, and the per-run form wins on
small ones.

Precondition: ``[start, stop)`` is an aligned power-of-two block, i.e.
``stop - start == 2^k`` and ``start`` is a multiple of ``2^k``. Every
alpha in the block then shares the high bits of ``start``; only the
columns whose high mask bits lie inside ``start`` can be active there,
and they are transformed over the low k bits.

``sweep_chunk`` transforms the constraint table, then builds the value
table in its output buffer and keeps the point of every admissible
assignment in the block. It takes no cap on that count: the value table
is built whole either way. A set without constraint columns builds no
constraint table: all of its assignments are admissible, or none are.

Masks are uint64 words. Payloads may be words of any unsigned type, the
type of the table they are XORed into: the value table is ``out``, and
the constraint table takes the type of ``bwords``. ``points._sweep``
passes uint32 words for sets of at most 32 bits and constraint systems
of at most 32 rows, so each pass and scatter moves half the bytes.
"""

from __future__ import annotations

import numpy as np


FOLD_BITS = 5  # the most low factor bits applied in the scatter
SCATTER_SHARE = 8  # the worst-case scatter stays within 1/8 of the table's rows
STRIDED_RUNS = 8  # passes with shorter runs XOR one strided column pair at a time

_BITS = np.arange(1 << FOLD_BITS)
_SUPERSETS = (_BITS[:, None] & _BITS[None, :]) == _BITS[:, None]  # [l, r]: r contains l


def _fold_width(h: int, size: int) -> int:
    """The largest b <= FOLD_BITS with h * 2^b <= size / SCATTER_SHARE, else 0."""
    return min(FOLD_BITS, max(size // (SCATTER_SHARE * h), 1).bit_length() - 1)


def subset_xor(
    start: int, masks: np.ndarray, payloads: np.ndarray, table: np.ndarray
) -> np.ndarray:
    """Fill ``table`` for the block of its length at ``start`` and return it: row i
    becomes the XOR of the payloads whose mask is a subset of start + i."""
    size, words = table.shape
    low = np.uint64(size - 1)
    table.fill(0)
    keep = (masks & ~np.uint64(start | (size - 1))) == 0  # the high mask bits fit in start
    h = int(np.count_nonzero(keep))
    if words and h:
        rows = (masks[keep] & low).astype(np.intp)
        cols = payloads[keep]
        group = 1 << _fold_width(h, size)
        if group > 1:  # the low bits' passes, on the payload list
            j, r = np.nonzero(_SUPERSETS[rows & (group - 1), :group])
            rows = rows[j] | r  # r contains the low bits of rows[j]
            cols = cols[j]
        np.bitwise_xor.at(table, rows, cols)
        half = group
        while half < size:
            if half < STRIDED_RUNS:  # one long strided XOR per word of the run pair
                v, run = table.reshape(-1, 2 * half * words), half * words
                for col in range(run, 2 * run):
                    np.bitwise_xor(v[:, col], v[:, col - run], out=v[:, col])
            else:
                v = table.reshape(-1, 2, half, words)
                v[:, 1] ^= v[:, 0]
            half *= 2
    return table


def sweep_chunk(start, stop, emasks, gwords, cwords, rmasks, awords, bwords, out):
    """Write the points of the admissible assignments in ``[start, stop)`` to ``out``.

    An assignment is admissible when the XOR of the constraint columns
    ``awords`` whose mask in ``rmasks`` it covers equals ``bwords``; its
    point is ``cwords`` XOR the generator columns ``gwords`` whose mask in
    ``emasks`` it covers. ``out`` holds at least ``stop - start`` rows: the
    value table is built in it, then the points are packed to its front in
    increasing alpha order. Returns how many points were written.
    """
    size = stop - start
    if size <= 0 or size & (size - 1) or start % size:
        raise ValueError(f"[{start}, {stop}) is not an aligned power-of-two block")
    if rmasks.shape[0]:
        acc = subset_xor(start, rmasks, awords, np.empty((size, bwords.shape[0]), dtype=bwords.dtype))
        admissible = (acc == bwords).all(axis=1)
        del acc  # hold one full table at a time
        cnt = int(np.count_nonzero(admissible))
    else:  # no constraint columns: the constraints read 0 == b for every assignment
        cnt = 0 if bwords.any() else size
    if cnt:
        table = subset_xor(start, emasks, gwords, out[:size])
        table ^= cwords
        if cnt < size:
            out[:cnt] = table[admissible]
    return cnt
