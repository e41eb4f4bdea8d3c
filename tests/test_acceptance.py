"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import statistics
import time
from importlib import resources

import numpy as np
import pytest

from logiczono.bitvec import BitMatrix, BitVector, Gate
from logiczono.network import parse_network
from logiczono.points import (
    EnumerationBudget,
    PointSet,
    enumerate_points,
    pointset_complement,
    pointset_gate,
)
from logiczono.reach import ReachProblem, SafetySpec, check_unsafe, exhaustive_reach, reach
from logiczono.sets import (
    ConstrainedPolyLogicalZonotope as CPLZ,
    IdAllocator,
    apply_gate,
    exact_and,
    exact_xor,
    intersect,
    intersect_overapprox_lz,
    mink_and,
    mink_xor,
    negate,
)
from logiczono.setio import load_bindings, read_json
from conftest import random_cplz, random_network_setup

DATA = resources.files("logiczono") / "data"


def _report(name: str, passed: bool, detail: str = ""):
    print(f"\n[{'PASS' if passed else 'FAIL'}] {name}" + (f" -- {detail}" if detail else ""))
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # compile the sweep kernel outside any timed region
    alloc = IdAllocator()
    z = random_cplz(np.random.default_rng(0), alloc, n=2, constrained=True)
    enumerate_points(z)


def _random_pair(rng, alloc):
    n = int(rng.integers(1, 6))
    c1 = random_cplz(rng, alloc, n=n, h_max=4, p_max=5, m_max=2)
    c2 = random_cplz(rng, alloc, n=n, h_max=4, p_max=5, m_max=2)
    return c1, c2


def test_criterion_1_minkowski_oracle_equivalence():
    rng = np.random.default_rng(101)
    alloc = IdAllocator()
    binary_gates = (Gate.XOR, Gate.AND, Gate.XNOR, Gate.NAND, Gate.OR, Gate.NOR)
    t0 = time.monotonic()
    checked = 0
    for _ in range(500):
        c1, c2 = _random_pair(rng, alloc)
        p1, p2 = enumerate_points(c1), enumerate_points(c2)
        for gate in binary_gates:
            if gate is Gate.XOR:
                result = mink_xor(c1, c2, alloc)
            elif gate is Gate.AND:
                result = mink_and(c1, c2, alloc)
            else:
                result = apply_gate(gate, c1, c2, alloc, "minkowski")
            assert enumerate_points(result) == pointset_gate(gate, p1, p2), gate
        assert enumerate_points(negate(c1)) == pointset_complement(p1)
        checked += 1
    elapsed = time.monotonic() - t0
    _report(
        "criterion 1: minkowski ops match the pointwise oracle",
        checked == 500 and elapsed < 60.0,
        f"{checked}/500 pairs x 6 gates + NOT, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_exactness_under_dependency():
    rng = np.random.default_rng(102)
    alloc = IdAllocator()
    checked = 0
    for _ in range(200):
        x = random_cplz(rng, alloc, n=int(rng.integers(1, 6)))
        pts = enumerate_points(x)
        zero = PointSet.from_bitvectors([BitVector.zeros(x.n)])
        assert enumerate_points(exact_xor(x, x)) == zero
        assert enumerate_points(exact_and(x, x)) == pts
        checked += 1
    _report("criterion 2: shared-id XOR cancels, AND is idempotent", checked == 200, "200/200")


def test_criterion_3_exact_intersection():
    rng = np.random.default_rng(103)
    alloc = IdAllocator()
    checked = 0
    for _ in range(500):
        c1, c2 = _random_pair(rng, alloc)
        out = intersect(c1, c2, alloc)
        assert out.m == c1.m + c2.m + c1.n
        assert out.q == c1.q + c2.q + c1.h + c2.h
        common = set(enumerate_points(c1).to_bitstrings()) & set(
            enumerate_points(c2).to_bitstrings()
        )
        got = set(enumerate_points(out).to_bitstrings())
        assert got == common
        checked += 1
    _report(
        "criterion 3: intersection is exact and has the composed constraint shape",
        checked == 500,
        "500/500",
    )


def test_criterion_4_overapproximation_containment_and_ordering():
    rng = np.random.default_rng(104)
    alloc = IdAllocator()
    sizes = {dim: {"lz": [], "plz": [], "cplz": []} for dim in (5, 7, 10)}
    plan = [(5, 200), (7, 200), (10, 100)]
    checked = 0
    for dim, count in plan:
        gens = dim - 1
        for _ in range(count):
            l1 = CPLZ.lz(
                BitVector.from_bits(rng.integers(0, 2, size=dim)),
                BitMatrix.from_bool(rng.integers(0, 2, size=(dim, gens)).astype(bool)),
                alloc,
            )
            l2 = CPLZ.lz(
                BitVector.from_bits(rng.integers(0, 2, size=dim)),
                BitMatrix.from_bool(rng.integers(0, 2, size=(dim, gens)).astype(bool)),
                alloc,
            )
            over_lz = enumerate_points(intersect_overapprox_lz(l1, l2, alloc))
            over_plz = enumerate_points(mink_and(l1, l2, alloc))
            exact = enumerate_points(intersect(l1, l2, alloc))
            assert exact.issubset(over_lz)
            assert exact.issubset(over_plz)
            assert over_plz.issubset(over_lz)
            sizes[dim]["lz"].append(len(over_lz))
            sizes[dim]["plz"].append(len(over_plz))
            sizes[dim]["cplz"].append(len(exact))
            checked += 1
    med = {
        dim: tuple(statistics.median(sizes[dim][k]) for k in ("cplz", "plz", "lz"))
        for dim in (5, 7, 10)
    }
    ordering = all(m[0] <= m[1] <= m[2] for m in med.values())
    _report(
        "criterion 4: exact within both overapproximations, sizes ordered",
        checked == 500 and ordering,
        f"500/500 contained; median cplz/plz/lz per dim: {med}",
    )


def test_criterion_5_reachability_matches_exhaustive_simulation():
    rng = np.random.default_rng(105)
    alloc = IdAllocator()
    t0 = time.monotonic()
    checked = 0
    for _ in range(100):
        net, init, input_sets, init_pts, input_pts = random_network_setup(rng, alloc)
        steps = int(rng.integers(1, 5))
        prob = ReachProblem(net=net, init=init, inputs=input_sets, steps=steps)
        result = reach(prob, mode="exact", alloc=alloc)
        oracle = exhaustive_reach(net, init_pts, input_pts, steps)
        assert enumerate_points(result.joint(steps)) == oracle[steps]
        checked += 1
    elapsed = time.monotonic() - t0
    _report(
        "criterion 5: exact reach equals exhaustive point simulation",
        checked == 100 and elapsed < 300.0,
        f"{checked}/100 networks, {elapsed:.1f}s (< 300s)",
    )


def test_criterion_6_shipped_circuit_run():
    net = parse_network((DATA / "circuit3x10.bn").read_text())
    alloc = IdAllocator()
    init = load_bindings(read_json(str(DATA / "circuit3x10_init.json")), alloc)
    inputs = load_bindings(read_json(str(DATA / "circuit3x10_inputs.json")), alloc)
    prob = ReachProblem(net=net, init=init, inputs=inputs, steps=5)
    budget = EnumerationBudget()
    t0 = time.monotonic()
    exact = reach(prob, mode="exact", alloc=alloc, budget=budget)
    exact_sizes = [exact.size(k) for k in range(6)]
    elapsed = time.monotonic() - t0
    lz = reach(prob, mode="lz", alloc=alloc, budget=budget)
    lz_sizes = [lz.size(k) for k in range(6)]
    per_step = exact_sizes[1:]
    non_decreasing = all(a <= b for a, b in zip(per_step, per_step[1:]))
    saturated = exact_sizes[3] == exact_sizes[4] == exact_sizes[5]
    dominated = all(lz_sizes[k] >= exact_sizes[k] for k in range(6))
    _report(
        "criterion 6: shipped circuit, 5 steps",
        elapsed < 30.0 and non_decreasing and saturated and dominated,
        f"exact sizes {per_step} in {elapsed:.2f}s (< 30s), "
        f"lz sizes {lz_sizes[1:]} dominate",
    )


def test_criterion_7_generator_growth():
    rng = np.random.default_rng(107)
    alloc = IdAllocator()
    rows = []
    for h in (2, 4, 8, 16):
        def operand():
            return CPLZ.unconstrained(
                BitVector.from_bits(rng.integers(0, 2, size=4)),
                BitMatrix.from_bool(rng.integers(0, 2, size=(4, h)).astype(bool)),
                BitMatrix.identity(h),
                alloc.fresh(h),
            )
        c1, c2 = operand(), operand()
        x = mink_xor(c1, c2, alloc)
        a = mink_and(c1, c2, alloc)
        assert x.h == 2 * h, "XOR generator count must be h1+h2"
        assert a.h == 2 * h + h * h, "AND generator count must be h1+h2+h1*h2"
        rows.append((h, x.h, a.h))
    _report(
        "criterion 7: generator counts grow linearly (XOR) and quadratically (AND)",
        True,
        f"(h, xor, and) = {rows}",
    )


def test_criterion_8_safety_verdicts():
    alloc = IdAllocator()
    net = parse_network("state b[1]\nnext b = ~b\n")
    prob = ReachProblem(net=net, init={"b": CPLZ.singleton(BitVector.from01("0"))}, steps=2)
    result = reach(prob, alloc=alloc)
    unsafe = CPLZ.singleton(BitVector.from01("0"))
    verdicts = check_unsafe(result, SafetySpec("b", unsafe), alloc)
    pattern = [v.safe for v in verdicts]
    witnesses_ok = True
    for v, sets in zip(verdicts, result.steps):
        if not v.safe:
            witnesses_ok &= v.witness in enumerate_points(sets["b"])
            witnesses_ok &= v.witness in enumerate_points(unsafe)
        else:
            witnesses_ok &= v.witness is None
    _report(
        "criterion 8: alternating network is UNSAFE/SAFE/UNSAFE with valid witnesses",
        pattern == [False, True, False] and witnesses_ok,
        f"verdicts {['UNSAFE' if not s else 'SAFE' for s in pattern]}",
    )
