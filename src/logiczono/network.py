"""Boolean-network description language: parser and evaluators.

Line-oriented grammar ('#' starts a comment):

    state NAME[WIDTH](, NAME[WIDTH])*
    input NAME[WIDTH](, NAME[WIDTH])*
    next NAME = EXPR

Expression operators, tightest binding first: ~ (NOT), then & ~&, then
^ ~^, then | ~|; parentheses override; binary operators associate left.
All gates act bitwise, so every variable inside one expression must have
the same width.

Expressions evaluate both over concrete bit vectors (the ground truth
used by the oracles) and over constrained polynomial logical zonotopes,
where exact mode keeps repeated occurrences of a variable correlated
through shared factor ids and minkowski mode treats every operand as
independent. ``NetworkSpec.hoisted`` lifts the subexpressions that read
only inputs out of the updates, so that ``reach`` can evaluate them once
per input map.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .bitvec import BitVector, Gate, complement, elementwise_gate
from .errors import (
    DuplicateUpdate,
    NetParseError,
    UndeclaredVariable,
    WidthMismatch,
)
from .sets import IdAllocator, apply_gate, negate


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Not:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: Gate
    lhs: "Expr"
    rhs: "Expr"


Expr = Var | Not | BinOp


class NetworkSpec:
    """Declared state/input variables plus one update expression per state."""

    def __init__(self, states, inputs, updates):
        self.states = tuple(states)
        self.inputs = tuple(inputs)
        self.updates = dict(updates)
        self.widths = {name: w for name, w in self.states + self.inputs}

    @property
    def state_names(self) -> list[str]:
        return [name for name, _ in self.states]

    @property
    def input_names(self) -> list[str]:
        return [name for name, _ in self.inputs]

    @cached_property
    def hoisted(self) -> tuple[dict[str, Expr], dict[str, Expr], set[str]]:
        """(updates, subtrees, private): the update expressions with each
        maximal subtree that reads only inputs lifted out (``_lift``), those
        subtrees by name, and the inputs whose name occurs once across all
        updates. Such a subtree gives the same set every step up to ids, and
        no other set of a step holds a private input's factors."""
        inputs, subtrees = set(self.input_names), {}
        updates = {name: _lift(expr, inputs, subtrees) for name, expr in self.updates.items()}
        uses = Counter(v for expr in self.updates.values() for v in _expr_vars(expr))
        return updates, {name: expr for expr, name in subtrees.items()}, {u for u in inputs if uses[u] == 1}

    def __repr__(self):
        return f"NetworkSpec(states={self.state_names}, inputs={self.input_names})"


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<ident>[A-Za-z_]\w*)|(?P<int>\d+)|(?P<op>~\^|~&|~\||[\[\],=()^&|~])"
)

_BINARY_LEVELS = (
    {"|": Gate.OR, "~|": Gate.NOR},
    {"^": Gate.XOR, "~^": Gate.XNOR},
    {"&": Gate.AND, "~&": Gate.NAND},
)


def _tokenize(text: str, line_no: int):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise NetParseError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        tokens.append((m.lastgroup, m.group(), m.start() + 1))
    return tokens


class _ExprParser:
    def __init__(self, tokens, line_no):
        self.tokens = tokens
        self.line = line_no
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise NetParseError("unexpected end of expression", self.line)
        self.i += 1
        return tok

    def expect_op(self, op):
        tok = self.take()
        if tok[0] != "op" or tok[1] != op:
            raise NetParseError(f"expected {op!r}, found {tok[1]!r}", self.line, tok[2])
        return tok

    def parse(self) -> Expr:
        expr = self._binary(0)
        tok = self.peek()
        if tok is not None:
            raise NetParseError(f"trailing input {tok[1]!r}", self.line, tok[2])
        return expr

    def _binary(self, level: int) -> Expr:
        if level == len(_BINARY_LEVELS):
            return self._unary()
        ops = _BINARY_LEVELS[level]
        node = self._binary(level + 1)
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] not in ops:
                return node
            self.take()
            rhs = self._binary(level + 1)
            node = BinOp(ops[tok[1]], node, rhs)

    def _unary(self) -> Expr:
        tok = self.peek()
        if tok is not None and tok[0] == "op" and tok[1] == "~":
            self.take()
            return Not(self._unary())
        return self._atom()

    def _atom(self) -> Expr:
        tok = self.take()
        if tok[0] == "ident":
            return Var(tok[1])
        if tok[0] == "op" and tok[1] == "(":
            inner = self._binary(0)
            self.expect_op(")")
            return inner
        raise NetParseError(f"expected a variable or '(', found {tok[1]!r}", self.line, tok[2])


def _parse_declarations(tokens, line_no):
    """NAME[WIDTH](, NAME[WIDTH])* after a 'state' or 'input' keyword."""
    decls = []
    parser = _ExprParser(tokens, line_no)
    while True:
        tok = parser.take()
        if tok[0] != "ident":
            raise NetParseError(f"expected a variable name, found {tok[1]!r}", line_no, tok[2])
        name = tok[1]
        parser.expect_op("[")
        wtok = parser.take()
        if wtok[0] != "int":
            raise NetParseError(f"expected a width, found {wtok[1]!r}", line_no, wtok[2])
        width = int(wtok[1])
        if width <= 0:
            raise NetParseError(f"width of {name} must be positive", line_no, wtok[2])
        parser.expect_op("]")
        decls.append((name, width))
        nxt = parser.peek()
        if nxt is None:
            return decls
        if nxt[0] == "op" and nxt[1] == ",":
            parser.take()
            continue
        raise NetParseError(f"expected ',' between declarations, found {nxt[1]!r}", line_no, nxt[2])


def _expr_vars(expr: Expr):
    if isinstance(expr, Var):
        yield expr.name
    elif isinstance(expr, Not):
        yield from _expr_vars(expr.operand)
    else:
        yield from _expr_vars(expr.lhs)
        yield from _expr_vars(expr.rhs)


def _lift(expr: Expr, inputs: set[str], subtrees: dict[Expr, str]) -> Expr:
    """expr with each maximal subtree that reads only inputs, bare inputs
    aside, replaced by a variable named after it in ``subtrees`` (equal
    subtrees share one name, which no declared variable can take)."""
    if isinstance(expr, Var):
        return expr
    if set(_expr_vars(expr)) <= inputs:
        return Var(subtrees.setdefault(expr, f"<{len(subtrees)}>"))
    if isinstance(expr, Not):
        return Not(_lift(expr.operand, inputs, subtrees))
    return BinOp(expr.op, _lift(expr.lhs, inputs, subtrees), _lift(expr.rhs, inputs, subtrees))


def parse_network(text: str) -> NetworkSpec:
    """Parse a network description; raises NetParseError with line/column."""
    states: list[tuple[str, int]] = []
    inputs: list[tuple[str, int]] = []
    updates: dict[str, Expr] = {}
    declared: dict[str, int] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = _tokenize(line, line_no)
        kind, word, col = tokens[0]
        if kind != "ident" or word not in ("state", "input", "next"):
            raise NetParseError(
                f"expected 'state', 'input' or 'next', found {word!r}", line_no, col
            )
        if word in ("state", "input"):
            for name, width in _parse_declarations(tokens[1:], line_no):
                if name in declared:
                    raise NetParseError(f"variable {name} declared twice", line_no)
                declared[name] = width
                (states if word == "state" else inputs).append((name, width))
            continue
        # next NAME = EXPR
        if len(tokens) < 3 or tokens[1][0] != "ident":
            raise NetParseError("expected 'next NAME = EXPR'", line_no)
        target = tokens[1][1]
        if tokens[2][0] != "op" or tokens[2][1] != "=":
            raise NetParseError("expected '=' after the state name", line_no, tokens[2][2])
        if target not in dict(states):
            raise UndeclaredVariable(f"{target} is not a declared state", line_no, tokens[1][2])
        if target in updates:
            raise DuplicateUpdate(f"state {target} already has an update", line_no)
        expr = _ExprParser(tokens[3:], line_no).parse()
        width = None
        for name in _expr_vars(expr):
            if name not in declared:
                raise UndeclaredVariable(f"{name} is not declared", line_no)
            if width is None:
                width = declared[name]
            elif declared[name] != width:
                raise WidthMismatch(
                    f"{name} has width {declared[name]} but the expression uses {width}",
                    line_no,
                )
        if width is not None and width != declared[target]:
            raise WidthMismatch(
                f"update for {target} (width {declared[target]}) has width {width}", line_no
            )
        updates[target] = expr

    if not states:
        raise NetParseError("a network needs at least one state")
    missing = [name for name, _ in states if name not in updates]
    if missing:
        raise NetParseError(f"missing update for state(s): {', '.join(missing)}")
    return NetworkSpec(states, inputs, updates)


def eval_expr_point(expr: Expr, env: dict[str, BitVector]) -> BitVector:
    """Ground-truth bitwise evaluation over concrete vectors."""
    if isinstance(expr, Var):
        if expr.name not in env:
            raise UndeclaredVariable(f"{expr.name} is not bound")
        return env[expr.name]
    if isinstance(expr, Not):
        return complement(eval_expr_point(expr.operand, env))
    lhs = eval_expr_point(expr.lhs, env)
    rhs = eval_expr_point(expr.rhs, env)
    return elementwise_gate(expr.op, lhs, rhs)


def eval_expr_sets(
    expr: Expr,
    env: dict,
    mode: str,
    alloc: IdAllocator,
    normalize=lambda s: s,
):
    """Bottom-up evaluation over constrained polynomial logical zonotopes.

    ``mode`` is the gate mode, passed to every ``apply_gate`` (which checks
    it): in exact mode, variables bound to the same set (or to sets sharing
    factor ids) stay correlated; minkowski mode re-ids at every gate.
    Every gate result passes through ``normalize`` (the identity by
    default); ``reach`` passes its run's normal form, so deep expressions
    stay tractable. A module function, not a closure: a recursive closure
    is a reference cycle that would keep env and every set of the step
    alive until gc runs.
    """
    if isinstance(expr, Var):
        if expr.name not in env:
            raise UndeclaredVariable(f"{expr.name} is not bound")
        return env[expr.name]
    if isinstance(expr, Not):
        return negate(eval_expr_sets(expr.operand, env, mode, alloc, normalize))
    lhs = eval_expr_sets(expr.lhs, env, mode, alloc, normalize)
    rhs = eval_expr_sets(expr.rhs, env, mode, alloc, normalize)
    return normalize(apply_gate(expr.op, lhs, rhs, alloc, mode))
