import gc
import importlib
from importlib import resources

import numpy as np
import pytest

from logiczono import points
from logiczono.bitvec import BitMatrix, BitVector
from logiczono.errors import BudgetExceeded, DimensionError
from logiczono.network import parse_network
from logiczono.points import EnumerationBudget, PointSet, enumerate_points
from logiczono.reach import (
    ReachProblem,
    SafetySpec,
    check_unsafe,
    exhaustive_reach,
    reach,
)
from logiczono.sets import ConstrainedPolyLogicalZonotope as CPLZ
from logiczono.sets import IdAllocator, canonicalize, drop_inert_ids, negate
from logiczono.setio import load_bindings, load_set, read_json
from conftest import random_network_setup as _random_network_setup
from conftest import same_set


def points_set(strings, alloc):
    return load_set({"points": strings}, alloc)


def set01(strings):
    return PointSet.from_bitstrings(strings)


def test_identity_network(alloc):
    net = parse_network("state b[1]\nnext b = b\n")
    prob = ReachProblem(net=net, init={"b": points_set(["0", "1"], alloc)}, steps=5)
    res = reach(prob, alloc=alloc)
    assert [res.size(k) for k in range(6)] == [2] * 6
    for k in range(6):
        assert enumerate_points(res.joint(k)) == set01(["0", "1"])


def test_dependency_step(alloc):
    net = parse_network("state b[1]\nnext b = b ^ b\n")
    prob = ReachProblem(net=net, init={"b": points_set(["0", "1"], alloc)}, steps=1)
    exact = reach(prob, mode="exact", alloc=alloc)
    assert enumerate_points(exact.joint(1)) == set01(["0"])
    mink = reach(prob, mode="minkowski", alloc=alloc)
    assert enumerate_points(mink.joint(1)) == set01(["0", "1"])


def test_zero_steps_returns_inits(alloc):
    net = parse_network("state b[2]\nnext b = ~b\n")
    init = points_set(["00", "11"], alloc)
    prob = ReachProblem(net=net, init={"b": init}, steps=0)
    res = reach(prob, alloc=alloc)
    assert len(res.steps) == 1
    assert same_set(res.steps[0]["b"], init)


def test_synchronous_swap(alloc):
    net = parse_network("state a[1], b[1]\nnext a = b\nnext b = a\n")
    prob = ReachProblem(
        net=net,
        init={"a": CPLZ.singleton(BitVector.from01("0")), "b": CPLZ.singleton(BitVector.from01("1"))},
        steps=1,
    )
    res = reach(prob, alloc=alloc)
    assert enumerate_points(res.joint(1)) == set01(["10"])


def test_inputs_fresh_each_step(alloc):
    # b' = b ^ u must cover both values at every step; correlated step inputs
    # would collapse step 2 back to {0}
    net = parse_network("state b[1]\ninput u[1]\nnext b = b ^ u\n")
    prob = ReachProblem(
        net=net,
        init={"b": CPLZ.singleton(BitVector.from01("0"))},
        inputs={"u": points_set(["0", "1"], alloc)},
        steps=2,
    )
    res = reach(prob, alloc=alloc)
    assert enumerate_points(res.joint(1)) == set01(["0", "1"])
    assert enumerate_points(res.joint(2)) == set01(["0", "1"])


def test_per_step_input_maps(alloc):
    net = parse_network("state b[1]\ninput u[1]\nnext b = u\n")
    step1 = {"u": CPLZ.singleton(BitVector.from01("1"))}
    step2 = {"u": CPLZ.singleton(BitVector.from01("0"))}
    prob = ReachProblem(
        net=net,
        init={"b": CPLZ.singleton(BitVector.from01("0"))},
        inputs=[step1, step2],
        steps=2,
    )
    res = reach(prob, alloc=alloc)
    assert enumerate_points(res.joint(1)) == set01(["1"])
    assert enumerate_points(res.joint(2)) == set01(["0"])
    # a list is cut to the horizon and must cover it; one map is the same object every step
    init = {"b": CPLZ.singleton(BitVector.from01("0"))}
    assert list(ReachProblem(net=net, init=init, inputs=[step1, step2], steps=1).inputs_for_steps()) == [step1]
    with pytest.raises(ValueError, match="2 input maps given but 3 steps requested"):
        ReachProblem(net=net, init=init, inputs=[step1, step2], steps=3)
    reused = list(ReachProblem(net=net, init=init, inputs=step1, steps=5).inputs_for_steps())
    assert len(reused) == 5 and all(m is step1 for m in reused)


def test_problem_validation(alloc):
    net = parse_network("state b[2]\ninput u[2]\nnext b = b ^ u\n")
    with pytest.raises(ValueError):
        ReachProblem(net=net, init={}, steps=1)
    with pytest.raises(DimensionError):
        ReachProblem(
            net=net,
            init={"b": CPLZ.singleton(BitVector.from01("0"))},
            inputs={"u": CPLZ.singleton(BitVector.from01("00"))},
            steps=1,
        )
    with pytest.raises(ValueError):
        ReachProblem(
            net=net,
            init={"b": CPLZ.singleton(BitVector.from01("00")), "zz": CPLZ.singleton(BitVector.from01("0"))},
            inputs={"u": CPLZ.singleton(BitVector.from01("00"))},
            steps=1,
        )


def test_a_reused_input_map_is_checked_once(monkeypatch):
    reach_mod = importlib.import_module("logiczono.reach")
    checked = []
    check = reach_mod._check_bindings
    monkeypatch.setattr(
        reach_mod, "_check_bindings", lambda kind, *args: (checked.append(kind), check(kind, *args))
    )
    net = parse_network("state b[1]\ninput u[1]\nnext b = u\n")
    init = {"b": CPLZ.singleton(BitVector.from01("0"))}
    u0, u1 = ({"u": CPLZ.singleton(BitVector.from01(x))} for x in "01")
    ReachProblem(net=net, init=init, inputs=u0, steps=1000)
    assert checked == ["initial", "input"]
    checked.clear()
    ReachProblem(net=net, init=init, inputs=[u0, u1, u0], steps=3)
    assert checked == ["initial", "input", "input", "input"]
    with pytest.raises(DimensionError):
        ReachProblem(net=net, init=init, inputs=[u0, {"u": CPLZ.singleton(BitVector.from01("00"))}], steps=2)


def test_reach_matches_exhaustive_simulation(alloc):
    rng = np.random.default_rng(77)
    for _ in range(12):
        net, init, input_sets, init_pts, input_pts = _random_network_setup(rng, alloc)
        steps = int(rng.integers(1, 4))
        prob = ReachProblem(net=net, init=init, inputs=input_sets, steps=steps)
        res = reach(prob, mode="exact", alloc=alloc)
        oracle = exhaustive_reach(net, init_pts, input_pts, steps)
        for k in range(steps + 1):
            assert enumerate_points(res.joint(k)) == oracle[k]


def test_minkowski_superset_of_exact(alloc):
    # independent factors pile up fast in minkowski mode, so only instances
    # whose joint sets stay within the default sweep budget are checked
    rng = np.random.default_rng(78)
    checked = 0
    for _ in range(10):
        net, init, input_sets, _, _ = _random_network_setup(rng, alloc)
        steps = int(rng.integers(1, 4))
        prob = ReachProblem(net=net, init=init, inputs=input_sets, steps=steps)
        exact = reach(prob, mode="exact", alloc=alloc)
        mink = reach(prob, mode="minkowski", alloc=alloc)
        try:
            for k in range(steps + 1):
                assert enumerate_points(exact.joint(k)).issubset(enumerate_points(mink.joint(k)))
            checked += 1
        except BudgetExceeded:
            continue
    assert checked >= 5


def test_lz_rep_superset_of_exact(alloc):
    rng = np.random.default_rng(79)
    for _ in range(6):
        net, init, input_sets, _, _ = _random_network_setup(rng, alloc)
        steps = int(rng.integers(1, 4))
        prob = ReachProblem(net=net, init=init, inputs=input_sets, steps=steps)
        exact = reach(prob, mode="exact", alloc=alloc)
        lz = reach(prob, mode="lz", alloc=alloc)
        for k in range(steps + 1):
            assert lz.size(k) >= exact.size(k)
            assert enumerate_points(exact.joint(k)).issubset(enumerate_points(lz.joint(k)))


def _flipped(ps: PointSet) -> PointSet:
    return PointSet.from_bitstrings(["".join("10"[int(b)] for b in s) for s in ps.to_bitstrings()])


@pytest.mark.parametrize("mode, j, k", [("exact", 2, 2), ("minkowski", 1, 1), ("lz", 1, 1), ("lz", 2, 2)])
def test_restarting_from_a_reached_step_reaches_the_same_points(alloc, mode, j, k):
    # j steps, then k more from the sets reached at step j, reach the points of
    # one run of j + k steps: with a reused input map, and with the tail of a
    # per-step list whose odd steps bind the complemented inputs. Exact runs
    # equal exhaustive_reach; Minkowski and lz runs contain it. An lz run
    # keeps the ids of flat initial sets, so states that share ids at step j
    # (after ``next s1 = s0``) stay correlated when the run restarts there.
    rng = np.random.default_rng(91)
    checked = 0
    for _ in range(30):
        net, init, inputs, init_pts, input_pts = _random_network_setup(rng, alloc)
        odd = lambda s, x, flip: x if s % 2 == 0 else {u: flip(v) for u, v in x.items()}
        per_step = [odd(s, inputs, negate) for s in range(j + k)]
        per_step_pts = [odd(s, input_pts, _flipped) for s in range(j + k)]
        for ins, pts, tail in ((inputs, input_pts, inputs), (per_step, per_step_pts, per_step[j:])):
            oracle = exhaustive_reach(net, init_pts, pts, j + k)
            try:
                full = reach(ReachProblem(net=net, init=init, inputs=ins, steps=j + k), mode=mode, alloc=alloc)
                first = reach(ReachProblem(net=net, init=init, inputs=ins, steps=j), mode=mode, alloc=alloc)
                rest = reach(ReachProblem(net=net, init=first.steps[j], inputs=tail, steps=k), mode=mode, alloc=alloc)
                for i in range(1, k + 1):
                    got = enumerate_points(rest.joint(i))
                    assert got == enumerate_points(full.joint(j + i))
                    if mode == "exact":
                        assert got == oracle[j + i]
                    else:
                        assert oracle[j + i].issubset(got)
                    checked += 1
            except BudgetExceeded:
                assert mode != "exact"
    assert checked >= 50 * k


def _denormalized(s: CPLZ, alloc) -> CPLZ:
    """The same point set with one inert factor row and, when there is a
    generator, a cancelling pair of copies of the first column."""
    G, E, R = s.G.to_bool(), s.E.to_bool(), s.R.to_bool()
    E = np.vstack([E, np.zeros((1, s.h), dtype=bool)])
    R = np.vstack([R, np.zeros((1, s.q), dtype=bool)])
    if s.h:
        G = np.hstack([G, G[:, :1], G[:, :1]])
        E = np.hstack([E, E[:, :1], E[:, :1]])
    return CPLZ(
        s.c, BitMatrix.from_bool(G), BitMatrix.from_bool(E), s.A, s.b, BitMatrix.from_bool(R),
        s.id + tuple(alloc.fresh(1)),
    )


def test_construction_budget_names_the_step(alloc):
    # in minkowski mode the 8th and 17th of these networks would build gates of
    # about 31 M and 11 M columns at step 3; the AND core refuses before building
    rng = np.random.default_rng(81)
    networks = [_random_network_setup(rng, alloc) for _ in range(17)]
    for k, sizes in ((7, "4654 x 6674"), (16, "222 x 49284")):
        net, init, input_sets, _, _ = networks[k]
        prob = ReachProblem(net=net, init=init, inputs=input_sets, steps=3)
        with pytest.raises(BudgetExceeded, match=f"^step 3 update of s\\d: an AND of {sizes} generators"):
            reach(prob, mode="minkowski", alloc=alloc)


def test_reach_states_are_in_normal_form(alloc):
    # every set enters reach with an inert id row and two cancelling columns;
    # every state set reach returns, step 0 included, is normalized. Minkowski
    # sets grow too fast for a third step on every network, so it runs two.
    rng = np.random.default_rng(81)
    for _ in range(40):
        net, init, input_sets, init_pts, input_pts = _random_network_setup(rng, alloc)
        init = {k: _denormalized(s, alloc) for k, s in init.items()}
        input_sets = {k: _denormalized(s, alloc) for k, s in input_sets.items()}
        oracle = exhaustive_reach(net, init_pts, input_pts, 3)
        for mode, steps in (("exact", 3), ("minkowski", 2)):
            prob = ReachProblem(net=net, init=init, inputs=input_sets, steps=steps)
            res = reach(prob, mode=mode, alloc=alloc)
            for k, sets in enumerate(res.steps):
                for s in sets.values():
                    assert same_set(s, drop_inert_ids(canonicalize(s)))
                try:
                    got = enumerate_points(res.joint(k), EnumerationBudget(max_factors=16))
                except BudgetExceeded:
                    assert mode == "minkowski"
                    continue
                if mode == "exact":
                    assert got == oracle[k]
                else:
                    assert oracle[k].issubset(got)


def test_check_unsafe_alternation(alloc):
    net = parse_network("state b[1]\nnext b = ~b\n")
    prob = ReachProblem(net=net, init={"b": CPLZ.singleton(BitVector.from01("0"))}, steps=2)
    res = reach(prob, alloc=alloc)
    verdicts = check_unsafe(res, SafetySpec("b", CPLZ.singleton(BitVector.from01("0"))), alloc)
    assert [v.safe for v in verdicts] == [False, True, False]
    assert verdicts[0].witness.to01() == "0"
    assert verdicts[1].witness is None
    assert verdicts[2].witness.to01() == "0"


def test_check_unsafe_disjoint_always_safe(alloc):
    net = parse_network("state b[2]\nnext b = b\n")
    prob = ReachProblem(net=net, init={"b": points_set(["00", "01"], alloc)}, steps=3)
    res = reach(prob, alloc=alloc)
    verdicts = check_unsafe(res, SafetySpec("b", CPLZ.singleton(BitVector.from01("11"))), alloc)
    assert all(v.safe for v in verdicts)


def test_check_unsafe_full_space_always_unsafe(alloc):
    net = parse_network("state b[1]\nnext b = ~b\n")
    prob = ReachProblem(net=net, init={"b": CPLZ.singleton(BitVector.from01("1"))}, steps=3)
    res = reach(prob, alloc=alloc)
    full = points_set(["0", "1"], alloc)
    verdicts = check_unsafe(res, SafetySpec("b", full), alloc)
    assert all(not v.safe for v in verdicts)
    for v, sets in zip(verdicts, res.steps):
        assert v.witness in enumerate_points(sets["b"])


def test_witness_is_in_both_sets(alloc):
    net = parse_network("state b[2]\nnext b = ~b\n")
    init = points_set(["00", "10"], alloc)
    unsafe = points_set(["10", "11"], alloc)
    prob = ReachProblem(net=net, init={"b": init}, steps=1)
    res = reach(prob, alloc=alloc)
    verdicts = check_unsafe(res, SafetySpec("b", unsafe), alloc)
    for v, sets in zip(verdicts, res.steps):
        if not v.safe:
            assert v.witness in enumerate_points(sets["b"])
            assert v.witness in enumerate_points(unsafe)


def test_reach_with_point_lists_matches_exhaustive_simulation(alloc):
    # 3- and 4-point lists are each one exact set over two factors
    rng = np.random.default_rng(80)
    checked = 0
    while checked < 10:
        net, _, _, _, _ = _random_network_setup(rng, alloc)
        if min(net.widths.values()) < 2:
            continue
        strs = {
            name: [format(int(v), "02b") for v in rng.permutation(4)[: int(rng.integers(3, 5))]]
            for name in net.widths
        }
        sets = {name: points_set(v, alloc) for name, v in strs.items()}
        assert all(s.p == 2 for s in sets.values())
        pts = {name: set01(v) for name, v in strs.items()}
        states, inputs = net.state_names, net.input_names
        steps = int(rng.integers(1, 4))
        prob = ReachProblem(
            net=net,
            init={k: sets[k] for k in states},
            inputs={k: sets[k] for k in inputs},
            steps=steps,
        )
        res = reach(prob, mode="exact", alloc=alloc)
        oracle = exhaustive_reach(
            net, {k: pts[k] for k in states}, {k: pts[k] for k in inputs}, steps
        )
        for k in range(steps + 1):
            assert enumerate_points(res.joint(k)) == oracle[k]
        checked += 1


def test_unsafe_budget_error_names_step_and_set(alloc):
    net = parse_network("state b[1]\nnext b = b\n")
    res = reach(ReachProblem(net=net, init={"b": points_set(["0", "1"], alloc)}, steps=1), alloc=alloc)
    unsafe = SafetySpec("b", points_set(["0", "1"], alloc))
    with pytest.raises(BudgetExceeded, match=r"^step 0 b ∩ unsafe \(h=1, p=2\): "):
        check_unsafe(res, unsafe, alloc, EnumerationBudget(max_factors=1))


def test_result_keeps_its_budget_for_counts_and_checks(alloc):
    # {0, 1} gated by a degree-2 monomial: counting it sweeps its 2 factors
    net = parse_network("state b[1]\nnext b = b\n")
    one = BitMatrix.from_bool(np.ones((1, 1), dtype=bool))
    both = CPLZ.unconstrained(BitVector.from01("0"), one, BitMatrix.from_bool(np.ones((2, 1), dtype=bool)),
                              alloc.fresh(2))
    res = reach(ReachProblem(net=net, init={"b": both}, steps=1), alloc=alloc,
                budget=EnumerationBudget(max_factors=1))
    with pytest.raises(BudgetExceeded, match=r"^step 1 joint state set \(h=1, p=2\): 2 factors exceed"):
        res.size(1)
    unsafe = SafetySpec("b", points_set(["1"], alloc))
    with pytest.raises(BudgetExceeded, match=r"^step 0 b ∩ unsafe"):
        check_unsafe(res, unsafe, alloc)
    assert [v.safe for v in check_unsafe(res, unsafe, alloc, EnumerationBudget())] == [False, False]
    assert reach(ReachProblem(net=net, init={"b": both}, steps=1), alloc=alloc).size(1) == 2


def test_reach_without_an_allocator_keeps_input_ids_fresh(alloc):
    # the caller's sets already hold ids 1 and 2; a private allocator must not reuse them
    net = parse_network("state a[1]\ninput u[1]\nnext a = a ^ u\n")
    prob = ReachProblem(net=net, init={"a": points_set(["0", "1"], alloc)},
                        inputs={"u": points_set(["0", "1"], alloc)}, steps=1)
    res = reach(prob)
    assert [res.size(k) for k in range(2)] == [2, 2]


def _shipped_demo(steps: int, alloc) -> ReachProblem:
    data = resources.files("logiczono") / "data"
    return ReachProblem(
        net=parse_network((data / "circuit3x10.bn").read_text()),
        init=load_bindings(read_json(data / "circuit3x10_init.json"), alloc),
        inputs=load_bindings(read_json(data / "circuit3x10_inputs.json"), alloc),
        steps=steps,
    )


def test_shipped_demo_joint_shapes_stay_bounded(alloc):
    # an encoding change that inflates the sets fails here: point lists
    # encoded in sorted rather than listed order (another center) grow the
    # step-5 joint h from 574 to 984 and the step-8 one from 10520 to 21502
    result = reach(_shipped_demo(8, alloc), alloc=alloc)
    shapes = [(result.joint(k).h, result.joint(k).p) for k in range(9)]
    bounds = [3, 14, 38, 94, 230, 574, 1468, 3874, 10520]
    assert all(h <= bound for (h, _), bound in zip(shapes, bounds)), shapes
    assert [p for _, p in shapes] == [3 * k + 3 for k in range(9)]


def test_shipped_demo_counts_split_only_where_it_pays(alloc, monkeypatch):
    # the joints of steps 5-7 (p = 18, 21, 24) are swept as two sides joined
    # on their shared factors, those of steps 1-4 whole; the budget still
    # counts every live factor of the joint, with the same message
    result = reach(_shipped_demo(8, alloc), alloc=alloc)
    joints = [drop_inert_ids(result.joint(k)) for k in range(9)]
    assert [points._split(d) is not None for d in joints[1:8]] == [False] * 4 + [True] * 3
    assert [result.size(k) for k in range(1, 8)] == [64, 150, 180, 180, 180, 180, 180]
    with pytest.raises(BudgetExceeded, match=r"step 8 joint state set \(h=10520, p=27\): 27 factors exceed"):
        result.size(8)
    split = [enumerate_points(joints[k]) for k in (5, 6)]
    monkeypatch.setattr(points, "_SPLIT_ROWS", 1 << 80)
    assert [points._split(joints[k]) for k in (5, 6)] == [None, None]
    for k, ps in zip((5, 6), split):
        assert np.array_equal(enumerate_points(joints[k]).rows, ps.rows)


def test_reach_leaves_no_cyclic_garbage():
    alloc = IdAllocator()
    prob = _shipped_demo(5, alloc)
    gc.collect()
    gc.disable()
    try:
        reach(prob, alloc=alloc)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _normalized_inputs(monkeypatch, problem, mode):
    """How many times reach normalizes each input set of problem (by its G,
    which refresh_ids shares with every copy): counted at canonicalize in
    the exact modes, at lz_flatten in mode lz."""
    reach_mod = importlib.import_module("logiczono.reach")
    name = "lz_flatten" if mode == "lz" else "canonicalize"
    seen, fn = [], getattr(reach_mod, name)
    monkeypatch.setattr(reach_mod, name, lambda s, *rest: (seen.append(s.G), fn(s, *rest))[1])
    reach(problem, mode=mode)
    maps = problem.inputs if isinstance(problem.inputs, list) else [problem.inputs]
    given = {n: [m[n].G for m in maps] for n in maps[0]}
    return {n: sum(any(g is G for G in Gs) for g in seen) for n, Gs in given.items()}


@pytest.mark.parametrize("mode", ["exact", "minkowski", "lz"])
def test_a_reused_input_map_is_normalized_once_per_run(monkeypatch, alloc, mode):
    net = parse_network("state a[2]\ninput u[2], v[2]\nnext a = (a ^ u) & v\n")
    init = {"a": points_set(["00", "11"], alloc)}
    inputs = {"u": points_set(["01", "10"], alloc), "v": points_set(["11", "10", "01"], alloc)}
    steps = 5
    reused = ReachProblem(net=net, init=init, inputs=inputs, steps=steps)
    assert _normalized_inputs(monkeypatch, reused, mode) == {"u": 1, "v": 1}
    monkeypatch.undo()
    listed = ReachProblem(net=net, init=init, inputs=[inputs] * steps, steps=steps)
    assert _normalized_inputs(monkeypatch, listed, mode) == {"u": steps, "v": steps}


@pytest.mark.parametrize("mode", ["exact", "minkowski", "lz"])
def test_a_reused_input_map_builds_the_sets_of_a_per_step_list(alloc, mode):
    # normalizing once and re-id'ing each step builds the sets that normalizing
    # each step's fresh copy builds, field by field but for id values; exact
    # joint counts equal exhaustive simulation, the other modes' contain it
    rng = np.random.default_rng(83)
    fields = lambda s: (s.c, s.G, s.E, s.A, s.b, s.R)
    checked = 0
    for _ in range(12):
        net, init, input_sets, init_pts, input_pts = _random_network_setup(rng, alloc)
        steps = 3 if mode == "exact" else 2
        oracle = exhaustive_reach(net, init_pts, input_pts, steps)
        runs = [
            reach(ReachProblem(net=net, init=init, inputs=inputs, steps=steps), mode=mode)
            for inputs in (input_sets, [input_sets] * steps)
        ]
        for k in range(steps + 1):
            for name in net.state_names:
                assert fields(runs[0].steps[k][name]) == fields(runs[1].steps[k][name])
        try:
            for k in range(steps + 1):
                size = runs[0].size(k)
                assert size == len(oracle[k]) if mode == "exact" else size >= len(oracle[k])
                assert oracle[k].issubset(enumerate_points(runs[0].joint(k)))
            checked += 1
        except BudgetExceeded:  # minkowski joint sets can pass the sweep budget
            continue
    assert checked >= 6
