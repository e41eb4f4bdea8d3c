"""Shared test helpers: an independent reference enumerator and random generators.

The reference enumerator below works on '0'/'1' strings with plain python
ints, so it shares no code with the packed-word sweep it is used to check.
"""

import itertools

import numpy as np
import pytest

from logiczono.bitvec import BitMatrix, BitVector
from logiczono.sets import ConstrainedPolyLogicalZonotope, IdAllocator


def naive_enumerate(z) -> set[str]:
    """Point set per the defining comprehension, as a set of bit strings."""
    c = z.c.to01()
    G = [z.G.column(j).to01() for j in range(z.h)]
    E = [z.E.column(j).to01() for j in range(z.h)]
    A = [z.A.column(i).to01() for i in range(z.q)]
    R = [z.R.column(i).to01() for i in range(z.q)]
    b = [int(ch) for ch in z.b.to01()]
    points = set()
    for alpha in itertools.product((0, 1), repeat=z.p):
        acc = [0] * z.m
        for i in range(z.q):
            if all(alpha[k] == 1 for k in range(z.p) if R[i][k] == "1"):
                for r in range(z.m):
                    acc[r] ^= int(A[i][r])
        if acc != b:
            continue
        val = [int(ch) for ch in c]
        for j in range(z.h):
            if all(alpha[k] == 1 for k in range(z.p) if E[j][k] == "1"):
                for r in range(z.n):
                    val[r] ^= int(G[j][r])
        points.add("".join(map(str, val)))
    return points


def same_set(a, b) -> bool:
    """Bit-identical fields, ids included."""
    return (a.c, a.G, a.E, a.A, a.b, a.R, tuple(a.id)) == (b.c, b.G, b.E, b.A, b.b, b.R, tuple(b.id))


def naive_gate(op: str, xs: set[str], ys: set[str]) -> set[str]:
    """Pairwise gate on bit-string sets, straight truth tables."""
    tables = {
        "xor": lambda a, b: a ^ b,
        "and": lambda a, b: a & b,
        "or": lambda a, b: a | b,
        "xnor": lambda a, b: 1 - (a ^ b),
        "nand": lambda a, b: 1 - (a & b),
        "nor": lambda a, b: 1 - (a | b),
    }
    fn = tables[op]
    out = set()
    for x in xs:
        for y in ys:
            out.add("".join(str(fn(int(a), int(b))) for a, b in zip(x, y)))
    return out


def naive_not(xs: set[str]) -> set[str]:
    return {"".join("1" if ch == "0" else "0" for ch in x) for x in xs}


def random_cplz(
    rng: np.random.Generator,
    alloc: IdAllocator,
    n: int | None = None,
    n_max: int = 5,
    h_max: int = 4,
    p_max: int = 5,
    m_max: int = 2,
    constrained: bool | None = None,
    p: int | None = None,
) -> ConstrainedPolyLogicalZonotope:
    """Random set; constrained instances get b from a witness assignment so
    they are never trivially empty."""
    if n is None:
        n = int(rng.integers(1, n_max + 1))
    h = int(rng.integers(0, h_max + 1))
    if p is None:
        p = int(rng.integers(0, p_max + 1))
    c = BitVector.from_bits(rng.integers(0, 2, size=n))
    G = BitMatrix.from_bool(rng.integers(0, 2, size=(n, h)).astype(bool))
    E = BitMatrix.from_bool(rng.integers(0, 2, size=(p, h)).astype(bool))
    ids = alloc.fresh(p)
    if constrained is None:
        constrained = bool(rng.random() < 0.5) and p > 0
    if not constrained:
        return ConstrainedPolyLogicalZonotope.unconstrained(c, G, E, ids)
    m = int(rng.integers(1, m_max + 1))
    q = int(rng.integers(1, 3))
    A = rng.integers(0, 2, size=(m, q)).astype(bool)
    R = rng.integers(0, 2, size=(p, q)).astype(bool)
    witness = rng.integers(0, 2, size=p).astype(bool)
    bbits = np.zeros(m, dtype=bool)
    for i in range(q):
        if all(witness[k] or not R[k, i] for k in range(p)):
            bbits ^= A[:, i]
    return ConstrainedPolyLogicalZonotope(
        c,
        G,
        E,
        BitMatrix.from_bool(A),
        BitVector.from_bits(bbits),
        BitMatrix.from_bool(R),
        ids,
    )


def random_network_setup(rng, alloc):
    """Random synchronous network plus matching set and point bindings.

    Total state bits stay <= 6 and input bits <= 4; expression depth <= 4.
    """
    from logiczono.network import parse_network
    from logiczono.points import PointSet
    from logiczono.setio import load_set

    width = int(rng.integers(1, 3))
    n_states = int(rng.integers(1, 6 // width + 1))
    n_inputs = int(rng.integers(0, 4 // width + 1))
    states = [f"s{i}" for i in range(n_states)]
    inputs = [f"u{i}" for i in range(n_inputs)]
    names = states + inputs
    ops = ["^", "&", "|", "~^", "~&", "~|"]

    def expr(depth):
        if depth == 0 or rng.random() < 0.35:
            return names[int(rng.integers(0, len(names)))]
        if rng.random() < 0.2:
            return f"~({expr(depth - 1)})"
        op = ops[int(rng.integers(0, len(ops)))]
        return f"({expr(depth - 1)} {op} {expr(depth - 1)})"

    lines = [f"state {', '.join(f'{s}[{width}]' for s in states)}"]
    if inputs:
        lines.append(f"input {', '.join(f'{u}[{width}]' for u in inputs)}")
    for s in states:
        lines.append(f"next {s} = {expr(int(rng.integers(1, 5)))}")
    net = parse_network("\n".join(lines) + "\n")

    def random_points(count):
        pts = set()
        while len(pts) < count:
            pts.add("".join(str(b) for b in rng.integers(0, 2, size=width)))
        return sorted(pts)

    init_strs = {s: random_points(int(rng.integers(1, 3))) for s in states}
    input_strs = {u: random_points(int(rng.integers(1, 3))) for u in inputs}
    init = {k: load_set({"points": v}, alloc) for k, v in init_strs.items()}
    input_sets = {k: load_set({"points": v}, alloc) for k, v in input_strs.items()}
    init_pts = {k: PointSet.from_bitstrings(v) for k, v in init_strs.items()}
    input_pts = {k: PointSet.from_bitstrings(v) for k, v in input_strs.items()}
    return net, init, input_sets, init_pts, input_pts


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def alloc():
    return IdAllocator()
