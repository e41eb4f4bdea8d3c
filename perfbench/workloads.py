"""The benchmark's workloads: seeded inputs, the timed operation, the oracle check.

Every workload calls the library through module attributes
(``reach_mod.reach``, ``points.count_points``, ``sets.mink_xor``) at call
time, so the tracer can wrap the functions where callers look them up.

A workload object is built once per process (parse, input generation)
and then runs ``op(i)`` for i = 0, 1, 2, ... over a seeded input pool.
``record`` turns an op's output into what the oracle needs, outside the
timed region, and ``check`` compares that record with the point domain.
README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import numpy as np

from logiczono import points, sets
from logiczono.bitvec import BitMatrix, BitVector, Gate
from logiczono.network import parse_network
from logiczono.points import PointSet, pointset_gate
from logiczono.sets import ConstrainedPolyLogicalZonotope as CPLZ
from logiczono.sets import IdAllocator

import oracle

reach_mod = importlib.import_module("logiczono.reach")

_U64 = np.uint64
DATA = Path(sets.__file__).resolve().parent / "data"
WIDTH = 10
UNSAFE_STATE = "B1"
UNSAFE_GENERATORS = 3
CHECKED_STEPS = 5  # steps whose point sets the oracle can afford on every op


def _parse_points(text: str) -> int:
    """Index-0-leftmost bit string to an integer with bit i at position i."""
    return sum(1 << i for i, ch in enumerate(text) if ch == "1")


def _vector(value: int, n: int) -> BitVector:
    return BitVector(n, np.array([value], dtype=_U64))


def _affine_set(center: int, generators: list[int], n: int, alloc: IdAllocator) -> CPLZ:
    """center XOR any subset of the generators, one fresh factor per generator."""
    g = BitMatrix(n, np.array(generators, dtype=_U64).reshape(len(generators), 1))
    k = len(generators)
    return CPLZ.unconstrained(_vector(center, n), g, BitMatrix.identity(k), alloc.fresh(k))


def _same_set(x: CPLZ, y: CPLZ) -> bool:
    """Identical representation, field by field (equal sets, equal ids)."""
    return (
        x.id == y.id
        and all(np.array_equal(getattr(x, f).words, getattr(y, f).words) for f in ("c", "b"))
        and all(
            getattr(x, f).rows == getattr(y, f).rows
            and np.array_equal(getattr(x, f).data, getattr(y, f).data)
            for f in ("G", "E", "A", "R")
        )
    )


def _affine_points(center: int, generators: list[int]) -> np.ndarray:
    pts = {center}
    for g in generators:
        pts |= {x ^ g for x in pts}
    return np.array(sorted(pts), dtype=_U64)


class CircuitWorkload:
    """The shipped three-register circuit, exact constrained polynomial mode.

    Op 0 binds the shipped point lists; later ops bind each state and input
    to a seeded complement pair {c, ~c}, the shape of the shipped lists,
    and put a seeded 8-point unsafe set on B1.
    """

    def __init__(self, seed: int, horizon: int, with_counts: bool, pool_size: int, trace_ops: int):
        self.horizon = horizon
        self.with_counts = with_counts
        self.trace_ops = trace_ops
        self.net = parse_network((DATA / "circuit3x10.bn").read_text())
        self.budget = points.EnumerationBudget()
        rng = np.random.default_rng(seed)
        full = (1 << WIDTH) - 1
        shipped = {}
        for name in ("init", "inputs"):
            doc = json.loads((DATA / f"circuit3x10_{name}.json").read_text())
            shipped.update({var: [_parse_points(s) for s in d["points"]] for var, d in doc.items()})
        self.pool = []
        for i in range(pool_size):
            if i == 0:
                binding = dict(shipped)
            else:
                binding = {}
                for var in self.net.state_names + self.net.input_names:
                    c = int(rng.integers(0, full + 1))
                    binding[var] = [c, c ^ full]
            binding["unsafe"] = (
                int(rng.integers(0, full + 1)),
                [int(g) for g in rng.integers(1, full + 1, size=UNSAFE_GENERATORS)],
            )
            self.pool.append(binding)
        self._expected: dict[int, list[np.ndarray]] = {}

    def _sets(self, binding: dict, names, alloc: IdAllocator) -> dict:
        out = {}
        for name in names:
            p0, p1 = binding[name]
            out[name] = _affine_set(p0, [p0 ^ p1], WIDTH, alloc)
        return out

    def op(self, i: int):
        binding = self.pool[i % len(self.pool)]
        alloc = IdAllocator()
        problem = reach_mod.ReachProblem(
            net=self.net,
            init=self._sets(binding, self.net.state_names, alloc),
            inputs=self._sets(binding, self.net.input_names, alloc),
            steps=self.horizon,
        )
        result = reach_mod.reach(problem, alloc=alloc, budget=self.budget)
        if not self.with_counts:
            return result
        counts = [points.count_points(result.joint(k), self.budget) for k in range(len(result.steps))]
        center, generators = binding["unsafe"]
        unsafe = _affine_set(center, generators, WIDTH, alloc)
        verdicts = reach_mod.check_unsafe(
            result, reach_mod.SafetySpec(UNSAFE_STATE, unsafe), alloc, self.budget
        )
        return counts, [(v.safe, None if v.witness is None else int(v.witness.words[0])) for v in verdicts]

    def record(self, output):
        if self.with_counts:
            return output
        joints = [output.joint(k) for k in range(len(output.steps))]
        return {
            "sets": joints[: CHECKED_STEPS + 1],
            "shapes": [(j.h, j.p) for j in joints],
        }

    def same(self, a, b) -> bool:
        if self.with_counts:
            return a == b
        return a["shapes"] == b["shapes"] and all(map(_same_set, a["sets"], b["sets"]))

    def expected(self, i: int, steps: int) -> list[np.ndarray]:
        key = i % len(self.pool)
        if key not in self._expected:
            binding = self.pool[key]
            self._expected[key] = oracle.simulate(
                self.net,
                {name: binding[name] for name in self.net.state_names},
                {name: binding[name] for name in self.net.input_names},
                steps,
            )
        return self._expected[key]

    def check(self, i: int, rec) -> list[str]:
        if not self.with_counts:
            expected = self.expected(i, min(self.horizon, CHECKED_STEPS))
            return [
                f"op {i} step {k}: joint point set differs from exhaustive simulation"
                for k, (z, want) in enumerate(zip(rec["sets"], expected))
                if not np.array_equal(oracle.zeta_points(z), want)
            ]
        counts, verdicts = rec
        expected = self.expected(i, self.horizon)
        errors = [
            f"op {i} step {k}: count {got} != exhaustive {len(want)}"
            for k, (got, want) in enumerate(zip(counts, expected))
            if got != len(want)
        ]
        offset = self.net.state_names.index(UNSAFE_STATE) * WIDTH
        unsafe = _affine_points(*self.pool[i % len(self.pool)]["unsafe"])
        for k, (safe, witness) in enumerate(verdicts):
            overlap = np.intersect1d(oracle.projection(expected[k], offset, WIDTH), unsafe)
            if safe != (overlap.size == 0):
                errors.append(f"op {i} step {k}: verdict {'SAFE' if safe else 'UNSAFE'} is wrong")
            elif not safe and witness not in set(overlap.tolist()):
                errors.append(f"op {i} step {k}: witness {witness} is not a reachable unsafe point")
        return errors

    def cross_check(self) -> list[str]:
        """The simulator against the library's exhaustive_reach on the shipped lists."""
        steps = min(self.horizon, CHECKED_STEPS)
        binding = self.pool[0]
        to_points = lambda names: {
            name: PointSet.from_bitvectors([_vector(v, WIDTH) for v in binding[name]])
            for name in names
        }
        reference = reach_mod.exhaustive_reach(
            self.net, to_points(self.net.state_names), to_points(self.net.input_names), steps
        )
        return [
            f"simulator disagrees with exhaustive_reach at step {k}"
            for k, (ref, sim) in enumerate(zip(reference, self.expected(0, steps)))
            if not np.array_equal(np.unique(ref.rows[:, 0]), sim)
        ]

    def summary(self, records) -> list[str]:
        if self.with_counts:
            return []
        shapes = [rec["shapes"] for _, rec, _ in records if rec is not None]
        if not shapes:
            return []
        last = max(s[-1][0] for s in shapes)
        steps = " ".join(f"{k}:({h},{p})" for k, (h, p) in enumerate(shapes[0]))
        return [
            f"joint (h, p) per step of op 0: {steps}",
            f"largest final joint h over {len(shapes)} ops: {last}",
        ]


def _random_set(rng: np.random.Generator, n: int, alloc: IdAllocator) -> CPLZ:
    """n bits, h <= 6, p <= 6; about half constrained (m <= 2, q <= 2) with b
    taken from a witness assignment, so the set is never empty."""
    h = int(rng.integers(0, 7))
    p = int(rng.integers(0, 7))
    c = BitVector.from_bits(rng.integers(0, 2, size=n))
    g = BitMatrix.from_bool(rng.integers(0, 2, size=(n, h)).astype(bool))
    e = BitMatrix.from_bool(rng.integers(0, 2, size=(p, h)).astype(bool))
    ids = alloc.fresh(p)
    if p == 0 or rng.random() >= 0.5:
        return CPLZ.unconstrained(c, g, e, ids)
    m = int(rng.integers(1, 3))
    q = int(rng.integers(1, 3))
    a = rng.integers(0, 2, size=(m, q)).astype(bool)
    r = rng.integers(0, 2, size=(p, q)).astype(bool)
    witness = rng.integers(0, 2, size=p).astype(bool)
    b = np.zeros(m, dtype=bool)
    for col in range(q):
        if (witness | ~r[:, col]).all():
            b ^= a[:, col]
    return CPLZ(c, g, e, BitMatrix.from_bool(a), BitVector.from_bits(b), BitMatrix.from_bool(r), ids)


class SmallSetsWorkload:
    """Seeded pairs of small sets through every gate, intersection and enumeration."""

    def __init__(self, seed: int, pool_size: int, trace_ops: int):
        self.trace_ops = trace_ops
        rng = np.random.default_rng(seed)
        self.alloc = IdAllocator()
        self.pool = []
        for _ in range(pool_size):
            n = int(rng.integers(4, 9))
            self.pool.append((_random_set(rng, n, self.alloc), _random_set(rng, n, self.alloc)))
        self._expected: dict[int, tuple] = {}

    def op(self, i: int):
        a, b = self.pool[i % len(self.pool)]
        alloc = self.alloc
        results = (
            sets.mink_xor(a, b, alloc),
            sets.mink_and(a, b, alloc),
            sets.exact_xor(a, b),
            sets.exact_and(a, b),
            sets.intersect(a, b, alloc),
            sets.exact_xor(a, a),
            sets.exact_and(a, a),
        )
        enumerated = [points.enumerate_points(sets.canonicalize(r)) for r in results]
        return enumerated, points.is_empty(results[4])

    def record(self, output):
        enumerated, empty = output
        return [ps.rows[:, 0].copy() for ps in enumerated], empty

    def same(self, a, b) -> bool:
        return a[1] == b[1] and all(map(np.array_equal, a[0], b[0]))

    def expected(self, i: int):
        key = i % len(self.pool)
        if key not in self._expected:
            a, b = self.pool[key]
            pa, pb = oracle.zeta_points(a), oracle.zeta_points(b)
            as_set = lambda pts: PointSet(a.n, pts[:, None])
            xor = pointset_gate(Gate.XOR, as_set(pa), as_set(pb)).rows[:, 0]
            conj = pointset_gate(Gate.AND, as_set(pa), as_set(pb)).rows[:, 0]
            both = np.intersect1d(pa, pb)
            zero = np.zeros(1, dtype=_U64)
            self._expected[key] = ([xor, conj, xor, conj, both, zero, pa], both.size == 0)
        return self._expected[key]

    def check(self, i: int, rec) -> list[str]:
        got, empty = rec
        want, want_empty = self.expected(i)
        labels = ("mink_xor", "mink_and", "exact_xor", "exact_and", "intersect", "a xor a", "a and a")
        errors = [
            f"op {i}: {label} points differ from the point domain"
            for label, g, w in zip(labels, got, want)
            if not np.array_equal(np.unique(g), w)
        ]
        if empty != want_empty:
            errors.append(f"op {i}: is_empty(intersect) is {empty}, expected {want_empty}")
        return errors

    def cross_check(self) -> list[str]:
        return []

    def summary(self, records) -> list[str]:
        return []


# name -> size -> constructor arguments. "tiny" is for the smoke test only.
WORKLOADS = {
    "circuit_reach": {
        "full": lambda seed: CircuitWorkload(seed, horizon=5, with_counts=True, pool_size=64, trace_ops=4),
        "tiny": lambda seed: CircuitWorkload(seed, horizon=2, with_counts=True, pool_size=4, trace_ops=2),
    },
    "circuit_deep": {
        "full": lambda seed: CircuitWorkload(seed, horizon=9, with_counts=False, pool_size=32, trace_ops=4),
        "tiny": lambda seed: CircuitWorkload(seed, horizon=3, with_counts=False, pool_size=4, trace_ops=2),
    },
    "small_sets": {
        "full": lambda seed: SmallSetsWorkload(seed, pool_size=2048, trace_ops=800),
        "tiny": lambda seed: SmallSetsWorkload(seed, pool_size=64, trace_ops=32),
    },
}
