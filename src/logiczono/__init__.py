"""Constrained polynomial logical zonotopes over GF(2).

Exact generator-space logical operations, exact set intersection, and
N-step reachability analysis of boolean networks, validated against a
brute-force point-enumeration oracle.
"""

from .bitvec import BitMatrix, BitVector, Gate, complement, elementwise_gate
from .errors import BudgetExceeded, DimensionError, NetParseError
from .network import NetworkSpec, eval_expr_point, eval_expr_sets, parse_network
from .points import (
    EnumerationBudget,
    PointSet,
    contains,
    count_points,
    enumerate_points,
    is_empty,
    pointset_gate,
    sets_equal,
)
from .reach import (
    ReachProblem,
    ReachResult,
    SafetySpec,
    check_unsafe,
    exhaustive_reach,
    reach,
)
from .sets import (
    ConstrainedPolyLogicalZonotope,
    IdAllocator,
    canonicalize,
    derived_gate,
    exact_and,
    exact_xor,
    intersect,
    intersect_overapprox_lz,
    merge_id,
    mink_and,
    mink_xor,
    negate,
    stack,
)

__version__ = "0.1.0"

__all__ = [
    "BitMatrix",
    "BitVector",
    "BudgetExceeded",
    "ConstrainedPolyLogicalZonotope",
    "DimensionError",
    "EnumerationBudget",
    "Gate",
    "IdAllocator",
    "NetParseError",
    "NetworkSpec",
    "PointSet",
    "ReachProblem",
    "ReachResult",
    "SafetySpec",
    "canonicalize",
    "check_unsafe",
    "complement",
    "contains",
    "count_points",
    "derived_gate",
    "elementwise_gate",
    "enumerate_points",
    "eval_expr_point",
    "eval_expr_sets",
    "exact_and",
    "exact_xor",
    "exhaustive_reach",
    "intersect",
    "intersect_overapprox_lz",
    "is_empty",
    "merge_id",
    "mink_and",
    "mink_xor",
    "negate",
    "parse_network",
    "pointset_gate",
    "reach",
    "sets_equal",
    "stack",
]
