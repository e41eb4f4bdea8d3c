"""Point-domain oracles for the benchmark's correctness gate.

Nothing here calls the library's enumeration sweep (``points._sweep`` and
``kernels``). Sets are enumerated with a subset-XOR (zeta) transform over
all factor assignments, which is a different algorithm from the packed
sweep, and networks are simulated point by point over integer-coded
states. Only the data layout of the library's sets and the parsed network
expressions are shared with the code under test.
"""

from __future__ import annotations

import itertools

import numpy as np

from logiczono.bitvec import Gate
from logiczono.network import BinOp, Not, Var

_U64 = np.uint64
_MAX_ORACLE_FACTORS = 24


def _first_words(mat) -> np.ndarray:
    """Column payloads of a BitMatrix with at most 64 rows, one uint64 each."""
    if mat.rows > 64:
        raise ValueError(f"oracle handles at most 64 rows, got {mat.rows}")
    if mat.data.shape[1] == 0:
        return np.zeros(mat.cols, dtype=_U64)
    return np.ascontiguousarray(mat.data[:, 0])


def _first_word(vec) -> int:
    if vec.n > 64:
        raise ValueError(f"oracle handles at most 64 bits, got {vec.n}")
    return int(vec.words[0]) if vec.words.shape[0] else 0


def _subset_xor_table(p: int, masks: np.ndarray, payloads: np.ndarray) -> np.ndarray:
    """t[alpha] = XOR of the payloads whose mask is a subset of alpha."""
    t = np.zeros(1 << p, dtype=_U64)
    np.bitwise_xor.at(t, masks.astype(np.int64), payloads)
    for k in range(p):
        v = t.reshape(-1, 2, 1 << k)
        v[:, 1, :] ^= v[:, 0, :]
    return t


def zeta_points(z) -> np.ndarray:
    """Sorted distinct points (as integers) of a constrained polynomial set.

    Point alpha is c XOR the generators whose monomial divides alpha; it is
    admissible when the constraint columns whose monomial divides alpha XOR
    to b. Requires n, m <= 64 and p <= 24.
    """
    if z.p > _MAX_ORACLE_FACTORS:
        raise ValueError(f"oracle handles at most {_MAX_ORACLE_FACTORS} factors, got {z.p}")
    values = _subset_xor_table(z.p, _first_words(z.E), _first_words(z.G)) ^ _U64(_first_word(z.c))
    constraint = _subset_xor_table(z.p, _first_words(z.R), _first_words(z.A))
    values = values[constraint == _U64(_first_word(z.b))]
    return np.unique(values)


def _gate(gate: Gate, a, b, mask):
    if gate is Gate.XOR:
        return a ^ b
    if gate is Gate.AND:
        return a & b
    if gate is Gate.OR:
        return a | b
    if gate is Gate.XNOR:
        return ~(a ^ b) & mask
    if gate is Gate.NAND:
        return ~(a & b) & mask
    if gate is Gate.NOR:
        return ~(a | b) & mask
    raise ValueError(f"unknown gate {gate!r}")


def _eval(expr, env: dict, mask):
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, Not):
        return ~_eval(expr.operand, env) & mask
    if isinstance(expr, BinOp):
        return _gate(expr.op, _eval(expr.lhs, env, mask), _eval(expr.rhs, env, mask), mask)
    raise TypeError(f"unknown expression node {expr!r}")


def simulate(net, init_points: dict, input_points: dict, steps: int) -> list[np.ndarray]:
    """Exhaustive synchronous simulation with one reused input map.

    Points are integers (bit i is position i). Returns the joint state set
    per step as sorted integers, state k occupying the bits after the
    widths of the states declared before it, as in ``ReachResult.joint``.
    """
    names = net.state_names
    width = {name: net.widths[name] for name in names}
    offsets = np.cumsum([0] + [width[name] for name in names[:-1]])
    if sum(width.values()) > 64:
        raise ValueError("oracle handles joint states of at most 64 bits")
    frontier = np.array(
        list(itertools.product(*[init_points[name] for name in names])), dtype=_U64
    ).reshape(-1, len(names))
    input_names = list(input_points)
    combos = list(itertools.product(*[input_points[name] for name in input_names]))

    def joint(front: np.ndarray) -> np.ndarray:
        acc = np.zeros(front.shape[0], dtype=_U64)
        for k, off in enumerate(offsets):
            acc |= front[:, k] << _U64(off)
        return np.unique(acc)

    out = [joint(frontier)]
    for _ in range(steps):
        parts = []
        for combo in combos:
            env = {name: frontier[:, k] for k, name in enumerate(names)}
            env.update({name: _U64(v) for name, v in zip(input_names, combo)})
            parts.append(
                np.stack(
                    [
                        np.broadcast_to(
                            _eval(net.updates[name], env, _U64((1 << width[name]) - 1)),
                            frontier.shape[:1],
                        )
                        for name in names
                    ],
                    axis=1,
                )
            )
        frontier = np.unique(np.concatenate(parts), axis=0)
        out.append(joint(frontier))
    return out


def projection(joint_points: np.ndarray, offset: int, width: int) -> np.ndarray:
    """Distinct values of one state inside joint points."""
    return np.unique((joint_points >> _U64(offset)) & _U64((1 << width) - 1))
