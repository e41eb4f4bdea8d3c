"""Set-exchange JSON format and binding files.

A set document looks like

    {"kind": "lz" | "plz" | "cplz", "n": int,
     "c": "bitstring", "G": ["bitstring", ...],
     "E": [...], "A": [...], "b": "bitstring", "R": [...],
     "id": [int, ...]}

Matrices are serialized column-wise as bitstrings whose length equals the
row count; absent fields default to empty. Index 0 of a bitstring is the
leftmost character. Every kind loads as a constrained set: "plz" without
constraints, and "lz" (only n, c and G are read) with identity exponents
over fresh ids. The writer always emits "cplz".

The shorthand {"points": ["bitstring", ...]} is always one exact
unconstrained set (``points.encode_points``): K distinct points take
ceil(log2 K) fresh factors, the first point is the center, and one or two
points give a singleton or a single generator under an identity exponent.
"""

from __future__ import annotations

import json

from .bitvec import BitMatrix, BitVector
from .points import encode_points
from .sets import CPLZ, IdAllocator


def _matrix_to_strings(m: BitMatrix) -> list[str]:
    return [m.column(j).to01() for j in range(m.cols)]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _bitstrings(value, what: str) -> list[str]:
    if not (isinstance(value, list) and all(isinstance(s, str) for s in value)):
        raise ValueError(f"{what} must be a list of bitstrings")
    return value


def _bitstring(doc: dict, key: str, default: str) -> BitVector:
    value = doc.get(key, default)
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a bitstring")
    return BitVector.from01(value)


def _matrix_from_strings(strings, rows: int, what: str) -> BitMatrix:
    cols = []
    for s in _bitstrings(strings, what):
        if len(s) != rows:
            raise ValueError(f"{what} column {s!r} has length {len(s)}, expected {rows}")
        cols.append(BitVector.from01(s))
    return BitMatrix.from_columns(cols, rows)


def set_to_json(s: CPLZ) -> dict:
    """Serialize a set as a "cplz" exchange document."""
    return {
        "kind": "cplz",
        "n": s.n,
        "c": s.c.to01(),
        "G": _matrix_to_strings(s.G),
        "E": _matrix_to_strings(s.E),
        "A": _matrix_to_strings(s.A),
        "b": s.b.to01(),
        "R": _matrix_to_strings(s.R),
        "id": list(s.id),
    }


def _reserve_ids(docs, alloc: IdAllocator) -> None:
    """Move alloc past every explicit id of the documents, so that no fresh id repeats one."""
    groups = (doc.get("id") for doc in docs if isinstance(doc, dict))
    alloc.reserve(i for ids in groups if isinstance(ids, list) for i in ids if _is_int(i))


def load_set(doc, alloc: IdAllocator) -> CPLZ:
    """Parse one exchange document or points shorthand; "lz" and points take
    fresh ids from alloc, which first moves past the document's own ids."""
    _reserve_ids([doc], alloc)
    if not isinstance(doc, dict):
        raise ValueError(f"a set must be a JSON object, got {type(doc).__name__}")
    if "points" in doc:
        # in listed order, not sorted: the first point is the center
        points = _bitstrings(doc["points"], "points")
        return encode_points([BitVector.from01(v) for v in points], alloc)
    kind = doc.get("kind")
    if kind not in ("lz", "plz", "cplz"):
        raise ValueError(f"unknown set kind {kind!r}")
    if "n" not in doc:
        raise ValueError("a set document needs its dimension n")
    n = doc["n"]
    if not _is_int(n) or n < 0:
        raise ValueError("n must be a non-negative integer")
    c = _bitstring(doc, "c", "0" * n)
    if c.n != n:
        raise ValueError(f"center has length {c.n}, expected {n}")
    G = _matrix_from_strings(doc.get("G", []), n, "G")
    if kind == "lz":
        return CPLZ.lz(c, G, alloc)
    ids = doc.get("id", [])
    if not (isinstance(ids, list) and all(map(_is_int, ids))):
        raise ValueError("id must be a list of integers")
    E = _matrix_from_strings(doc.get("E", []), len(ids), "E")
    if kind == "plz":
        return CPLZ.unconstrained(c, G, E, ids)
    b = _bitstring(doc, "b", "")
    A = _matrix_from_strings(doc.get("A", []), b.n, "A")
    R = _matrix_from_strings(doc.get("R", []), len(ids), "R")
    return CPLZ(c, G, E, A, b, R, ids)


def load_bindings(doc: dict, alloc: IdAllocator) -> dict[str, CPLZ]:
    """A bindings file: JSON object mapping variable names to set documents."""
    if not isinstance(doc, dict):
        raise ValueError("bindings must be a JSON object mapping names to sets")
    _reserve_ids(doc.values(), alloc)
    return {name: load_set(value, alloc) for name, value in doc.items()}


def load_input_bindings(doc, alloc: IdAllocator):
    """Input bindings: one map reused every step, or an array of per-step maps."""
    if isinstance(doc, list):
        return [load_bindings(step, alloc) for step in doc]
    return load_bindings(doc, alloc)


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
