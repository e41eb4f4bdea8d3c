import pytest

from logiczono.bitvec import BitMatrix, BitVector, Gate
from logiczono.errors import (
    DuplicateUpdate,
    NetParseError,
    UndeclaredVariable,
    WidthMismatch,
)
from logiczono.network import (
    BinOp,
    Not,
    Var,
    eval_expr_point,
    eval_expr_sets,
    parse_network,
)
from importlib import resources

from logiczono.points import enumerate_points, PointSet
from logiczono.sets import ConstrainedPolyLogicalZonotope as CPLZ

CIRCUIT = (resources.files("logiczono") / "data" / "circuit3x10.bn").read_text()


def set01(strings):
    return PointSet.from_bitstrings(strings)


def two_valued(alloc):
    return CPLZ.unconstrained(
        BitVector.from01("0"),
        BitMatrix.from_columns([BitVector.from01("1")]),
        BitMatrix.identity(1),
        alloc.fresh(1),
    )


def test_parse_minimal():
    net = parse_network("state b[1]\nnext b = ~b\n")
    assert net.states == (("b", 1),)
    assert net.updates["b"] == Not(Var("b"))


def test_parse_shipped_circuit():
    net = parse_network(CIRCUIT)
    assert net.states == (("B1", 10), ("B2", 10), ("B3", 10))
    assert net.inputs == (("U1", 10), ("U2", 10), ("U3", 10))
    assert net.updates["B1"] == BinOp(Gate.OR, Var("U1"), BinOp(Gate.XNOR, Var("B2"), Var("B1")))
    assert net.updates["B2"] == BinOp(Gate.XNOR, Var("B2"), BinOp(Gate.AND, Var("B1"), Var("U2")))
    assert net.updates["B3"] == BinOp(Gate.NAND, Var("B3"), BinOp(Gate.XNOR, Var("U2"), Var("U3")))


def test_undeclared_variable():
    with pytest.raises(UndeclaredVariable):
        parse_network("state b[1]\nnext b = b ^ c\n")


def test_syntax_error_carries_position():
    with pytest.raises(NetParseError) as err:
        parse_network("state b[1]\nnext b = b ^^ b\n")
    assert err.value.line == 2


def test_width_mismatch():
    with pytest.raises(WidthMismatch):
        parse_network("state a[2], b[3]\nnext a = a ^ b\nnext b = b\n")


def test_duplicate_update():
    with pytest.raises(DuplicateUpdate):
        parse_network("state b[1]\nnext b = b\nnext b = ~b\n")


def test_missing_update():
    with pytest.raises(NetParseError):
        parse_network("state a[1], b[1]\nnext a = a\n")


@pytest.mark.parametrize("text", ["", "input u[1]\n"])
def test_network_needs_a_state(text):
    with pytest.raises(NetParseError, match="a network needs at least one state"):
        parse_network(text)


def test_update_target_must_be_state():
    with pytest.raises(UndeclaredVariable):
        parse_network("state a[1]\ninput u[1]\nnext u = a\nnext a = a\n")


def test_precedence():
    net = parse_network("state a[1], b[1], c[1]\nnext a = a ^ b & c\nnext b = b\nnext c = c\n")
    assert net.updates["a"] == BinOp(Gate.XOR, Var("a"), BinOp(Gate.AND, Var("b"), Var("c")))
    net = parse_network("state a[1], b[1], c[1]\nnext a = a | b ^ c\nnext b = b\nnext c = c\n")
    assert net.updates["a"] == BinOp(Gate.OR, Var("a"), BinOp(Gate.XOR, Var("b"), Var("c")))
    net = parse_network("state a[1], b[1]\nnext a = ~a ^ b\nnext b = b\n")
    assert net.updates["a"] == BinOp(Gate.XOR, Not(Var("a")), Var("b"))
    net = parse_network("state a[1], b[1], c[1]\nnext a = (a | b) & c\nnext b = b\nnext c = c\n")
    assert net.updates["a"] == BinOp(Gate.AND, BinOp(Gate.OR, Var("a"), Var("b")), Var("c"))


def test_left_associativity():
    net = parse_network("state a[1], b[1], c[1]\nnext a = a ^ b ^ c\nnext b = b\nnext c = c\n")
    assert net.updates["a"] == BinOp(Gate.XOR, BinOp(Gate.XOR, Var("a"), Var("b")), Var("c"))


def test_comments_and_blanks():
    net = parse_network("# header\n\nstate b[1]  # trailing\nnext b = b\n")
    assert net.states == (("b", 1),)


def test_eval_point_examples():
    assert eval_expr_point(Not(Var("b")), {"b": BitVector.from01("10")}).to01() == "01"
    b = BitVector.from01("0110")
    assert eval_expr_point(BinOp(Gate.XOR, Var("b"), Var("b")), {"b": b}).to01() == "0000"


def test_eval_point_circuit_b3_update():
    net = parse_network(CIRCUIT)
    env = {
        "B3": BitVector.from01("1" * 10),
        "U2": BitVector.from01("0" * 10),
        "U3": BitVector.from01("0" * 10),
    }
    assert eval_expr_point(net.updates["B3"], env).to01() == "0" * 10


def test_eval_point_unbound():
    with pytest.raises(UndeclaredVariable):
        eval_expr_point(Var("z"), {})


def test_eval_sets_dependency(alloc):
    x = two_valued(alloc)
    expr = BinOp(Gate.XOR, Var("x"), Var("x"))
    exact = eval_expr_sets(expr, {"x": x}, "exact", alloc)
    assert enumerate_points(exact) == set01(["0"])
    mink = eval_expr_sets(expr, {"x": x}, "minkowski", alloc)
    assert enumerate_points(mink) == set01(["0", "1"])


def test_eval_sets_singleton_example(alloc):
    env = {
        "u": CPLZ.singleton(BitVector.from01("1")),
        "b": CPLZ.singleton(BitVector.from01("0")),
        "b2": CPLZ.singleton(BitVector.from01("0")),
    }
    expr = BinOp(Gate.OR, Var("u"), BinOp(Gate.XNOR, Var("b"), Var("b2")))
    for mode in ("exact", "minkowski"):
        assert enumerate_points(eval_expr_sets(expr, env, mode, alloc)) == set01(["1"])


def test_eval_sets_matches_point_eval_on_singletons(rng, alloc):
    net = parse_network(CIRCUIT)
    for _ in range(5):
        env_pts = {
            name: BitVector.from_bits(rng.integers(0, 2, size=10))
            for name in ("B1", "B2", "B3", "U1", "U2", "U3")
        }
        env_sets = {name: CPLZ.singleton(v) for name, v in env_pts.items()}
        for update in net.updates.values():
            want = eval_expr_point(update, env_pts)
            for mode in ("exact", "minkowski"):
                got = enumerate_points(eval_expr_sets(update, env_sets, mode, alloc))
                assert got == PointSet.from_bitvectors([want])


def _consistent_choice_eval(expr, env_points: dict[str, list[str]]):
    """Brute force over one point choice per variable."""
    import itertools

    names = list(env_points)
    out = set()
    for combo in itertools.product(*[env_points[n] for n in names]):
        env = {n: BitVector.from01(s) for n, s in zip(names, combo)}
        out.add(eval_expr_point(expr, env).to01())
    return out


def test_eval_sets_exact_mode_soundness(rng, alloc):
    # random expressions over independently bound sets, repeated variables allowed
    gates = list(Gate)
    names = ["x", "y"]

    def random_expr(depth):
        if depth == 0 or rng.random() < 0.3:
            return Var(names[int(rng.integers(0, len(names)))])
        if rng.random() < 0.2:
            return Not(random_expr(depth - 1))
        g = gates[int(rng.integers(0, len(gates)))]
        return BinOp(g, random_expr(depth - 1), random_expr(depth - 1))

    for _ in range(20):
        expr = random_expr(3)
        env = {n: two_valued(alloc) for n in names}
        env_points = {n: enumerate_points(env[n]).to_bitstrings() for n in names}
        want = _consistent_choice_eval(expr, env_points)
        got = set(enumerate_points(eval_expr_sets(expr, env, "exact", alloc)).to_bitstrings())
        assert got == want
        mink = set(enumerate_points(eval_expr_sets(expr, env, "minkowski", alloc)).to_bitstrings())
        assert got <= mink


def test_eval_sets_minkowski_equals_exact_without_repeats(alloc):
    expr = BinOp(Gate.AND, Var("x"), Not(Var("y")))
    env = {"x": two_valued(alloc), "y": two_valued(alloc)}
    exact = enumerate_points(eval_expr_sets(expr, env, "exact", alloc))
    mink = enumerate_points(eval_expr_sets(expr, env, "minkowski", alloc))
    assert exact == mink
