"""Enumeration sweep kernel: the GF(2) subset-XOR (zeta) transform.

A sweep covers the factor assignments alpha = start..stop-1 (bit k of the
integer is the value of factor k). Column j is active for alpha iff
(alpha & mask_j) == mask_j, so the XOR of the active payloads is

    T[alpha] = XOR of F[m] over all m subset-of alpha,

where F[m] is the XOR of the payloads whose mask is m. T is the binary
zeta transform of F and takes one in-place pass per factor bit over a
table of all assignments: O(p * 2^p + h) word operations instead of the
O(h * 2^p) of testing every column against every assignment (Joux,
*Algorithmic Cryptanalysis*, 2009, ch. 9). Over GF(2) the transform is
its own inverse (the Moebius transform), so the same pass also turns a
table of points back into its generators: ``points.encode_points``.

Precondition: ``[start, stop)`` is an aligned power-of-two block, i.e.
``stop - start == 2^k`` and ``start`` is a multiple of ``2^k``. Every
alpha in the block then shares the high bits of ``start``; only the
columns whose high mask bits lie inside ``start`` can be active there,
and they are transformed over the low k bits.

``sweep_chunk`` transforms the constraint table, then builds the value
table in its output buffer and keeps the point of every admissible
assignment in the block. It takes no cap on that count: the value table
is built whole either way.
"""

from __future__ import annotations

import numpy as np


def subset_xor(
    start: int, masks: np.ndarray, payloads: np.ndarray, table: np.ndarray
) -> np.ndarray:
    """Fill ``table`` for the block of its length at ``start`` and return it: row i
    becomes the XOR of the payloads whose mask is a subset of start + i."""
    size, words = table.shape
    low = np.uint64(size - 1)
    table.fill(0)
    keep = (masks & ~np.uint64(start | (size - 1))) == 0  # the high mask bits fit in start
    if words and keep.any():
        np.bitwise_xor.at(table, (masks[keep] & low).astype(np.intp), payloads[keep])
        half = 1
        while half < size:
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
    acc = subset_xor(start, rmasks, awords, np.empty((size, bwords.shape[0]), dtype=np.uint64))
    admissible = (acc == bwords).all(axis=1)
    del acc  # hold one full table at a time
    cnt = int(np.count_nonzero(admissible))
    if cnt:
        table = subset_xor(start, emasks, gwords, out[:size])
        table ^= cwords
        if cnt < size:
            out[:cnt] = table[admissible]
    return cnt
