"""N-step reachability of boolean networks and unsafe-set checking.

Updates are synchronous: within one step every update expression reads
the same pre-step state sets, then the environment swaps. Input sets get
fresh factor ids every step (inputs are a free choice per step), while
state sets keep their ids so correlations between states propagate
exactly through the shared-factor operations. A subexpression that reads
only inputs gives the same set every step up to ids, so with a reused
input map it is evaluated once per run and renamed each step with the
inputs; the factors of an input read once across all updates are
quantified out of it early (``sets.absorb``).
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from .bitvec import BitVector, _unique_rows, concat
from .errors import BudgetExceeded, DimensionError
from .network import NetworkSpec, eval_expr_point, eval_expr_sets
from .points import (
    EnumerationBudget,
    PointSet,
    count_points,
    witness_point,
)
from .sets import (
    EXACT,
    MINKOWSKI,
    ConstrainedPolyLogicalZonotope,
    IdAllocator,
    absorb,
    canonicalize,
    drop_inert_ids,
    intersect,
    lz_flatten,
    refresh_ids,
    refresh_shared,
    stack,
)

CPLZ = ConstrainedPolyLogicalZonotope

# the paper's three runs: exact and Minkowski gates on constrained polynomial
# sets, and Minkowski gates flattened to logical zonotopes
MODES = (EXACT, MINKOWSKI, "lz")


def _per_step(inputs, steps: int) -> Iterable:
    """One input map per step: a list gives its first ``steps`` maps, one map is
    reused, yielded ``steps`` times without building a list."""
    if isinstance(inputs, list):
        if len(inputs) < steps:
            raise ValueError(f"{len(inputs)} input maps given but {steps} steps requested")
        return inputs[:steps]
    return itertools.repeat(inputs or {}, steps)


def _check_bindings(kind, declared, bound):
    missing = [name for name, _ in declared if name not in bound]
    if missing:
        raise ValueError(f"missing {kind} set(s): {', '.join(missing)}")
    unknown = [name for name in bound if name not in dict(declared)]
    if unknown:
        raise ValueError(f"unknown {kind} name(s): {', '.join(unknown)}")
    for name, width in declared:
        if bound[name].n != width:
            raise DimensionError(
                f"{kind} set for {name} has dimension {bound[name].n}, declared width is {width}"
            )


@dataclass
class ReachProblem:
    """A network, initial state sets, per-step (or reused) input sets, and a horizon."""

    net: NetworkSpec
    init: dict[str, CPLZ]
    inputs: dict[str, CPLZ] | list[dict[str, CPLZ]] | None = None
    steps: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be non-negative")
        _check_bindings("initial", self.net.states, self.init)
        maps = self.inputs_for_steps()
        # a reused map is one map: checked once, not once per step
        for step_inputs in maps if isinstance(self.inputs, list) else itertools.islice(maps, 1):
            _check_bindings("input", self.net.inputs, step_inputs)

    def inputs_for_steps(self) -> Iterable[dict[str, CPLZ]]:
        return _per_step(self.inputs, self.steps)


@dataclass
class SafetySpec:
    """An unsafe region attached to one named state variable."""

    state: str
    unsafe: CPLZ


@dataclass
class StepVerdict:
    step: int
    safe: bool
    witness: BitVector | None = None


@dataclass
class ReachResult:
    """Per-step state sets and wall times of one run, with the enumeration
    budget its counts use (None: the default budget).

    Step 0 holds the initial sets in the run's normal form. A step's time
    covers its gates; with a reused input map it leaves out the work done
    once per run (normalizing the map and evaluating its input-only
    subexpressions).
    """

    state_names: list[str]
    budget: EnumerationBudget | None = None
    steps: list[dict[str, CPLZ]] = field(default_factory=list)
    times: list[float] = field(default_factory=list)

    def joint(self, k: int) -> CPLZ:
        """The step-k state vector stacked in declaration order."""
        return stack(*(self.steps[k][name] for name in self.state_names))

    def size(self, k: int) -> int:
        """Point count of the step-k joint set under the run's budget; a
        budget failure names the step."""
        return _budgeted(count_points, self.joint(k), self.budget, f"step {k} joint state set")


def _is_flat(s: CPLZ) -> bool:
    """Whether s already is what ``lz_flatten`` returns, up to ids: no
    constraints, each exponent column a distinct unit vector and pairwise
    distinct nonzero payloads."""
    if s.m or s.q:
        return False
    E = s.E.to_bool()
    if not (E.sum(axis=0) == 1).all() or (E.sum(axis=1) > 1).any():
        return False
    return bool(s.G.data.any(axis=1).all()) and len(_unique_rows(s.G.data.copy())) == s.h


def _with_subtrees(inputs: dict, subtrees: dict, private: set, mode: str, alloc, normalize) -> dict:
    """The inputs and the value of each input-only subtree over them, with the
    factors of the private inputs absorbed (``sets.absorb``)."""
    own = {i for name in private for i in inputs[name].id}
    values = {name: absorb(eval_expr_sets(expr, inputs, mode, alloc, normalize), own) for name, expr in subtrees.items()}
    return {**inputs, **values}


def reach(
    problem: ReachProblem,
    mode: str = EXACT,
    alloc: IdAllocator | None = None,
    budget: EnumerationBudget | None = None,
) -> ReachResult:
    """Iterate the network per the synchronous semantics for problem.steps steps.

    ``mode`` is one of ``MODES``. "exact" and "minkowski" run exact or
    Minkowski gates on constrained polynomial sets; "lz" runs Minkowski
    gates and flattens every set to logical-zonotope form, an
    overapproximating run. Every set is normalized once, where it enters
    the run (the initial sets, a reused input map, or each step's copies
    of a per-step input list) or leaves a gate, so every state set, step 0
    included, is in the run's normal form. An "lz" run takes an initial
    set that is already flat (``_is_flat``) as it is, ids included, so j
    steps and then k more from the sets of step j reach the sets of j + k
    steps.

    Each maximal subexpression that reads only inputs
    (``NetworkSpec.hoisted``) is evaluated once per step map and enters
    ``eval_expr_sets`` as a bound variable, with the factors of private
    inputs (read once across all updates) absorbed (``sets.absorb``). A reused map gives each input its
    own ids, evaluates these subexpressions once, before step 1 and, like
    its normalization, outside the step times, and renames the inputs and
    the values each step with one order-preserving id map
    (``sets.refresh_shared``); a per-step list evaluates them each step.

    A gate over ``sets.MAX_COLUMNS`` fails naming the step and the state
    (or the input-only subexpressions), and the ``BudgetExceeded`` carries
    the steps built before it as ``partial``. Nothing is enumerated here: the
    result keeps ``budget`` for its joint counts (``ReachResult.size``)
    and for ``check_unsafe``.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if alloc is None:  # fresh input and Minkowski ids must not repeat a state's
        alloc = IdAllocator()
        alloc.reserve(i for s in problem.init.values() for i in s.id)
    if mode == "lz":
        mode = MINKOWSKI
        normalize = lambda s: lz_flatten(s, alloc)
        # a flat initial set keeps its ids, so a run restarted from a step's
        # sets keeps the ids its states share and is the tail of one run
        start = lambda s: s if _is_flat(s) else normalize(s)
    else:
        # merged monomials and no inert factor rows: the point set is kept
        normalize = start = lambda s: drop_inert_ids(canonicalize(s))

    env = {name: start(s) for name, s in problem.init.items()}
    result = ReachResult(state_names=problem.net.state_names, budget=budget)
    result.steps.append(env)
    result.times.append(0.0)

    updates, subtrees, private = problem.net.hoisted
    lifted = lambda inputs, k: _budgeted_step(
        k, "input-only subexpressions", result, _with_subtrees, inputs, subtrees, private, mode, alloc, normalize
    )
    if isinstance(problem.inputs, list):
        step_maps = problem.inputs_for_steps()
        enter = lambda m, k: lifted({name: normalize(refresh_ids(s, alloc)) for name, s in m.items()}, k)
    else:
        # a reused map is normalized and its input-only subtrees evaluated
        # once; each step renames all of them with one order-preserving map,
        # since the normal form depends on the order of a set's factor rows,
        # not on ids. Disjoint ids first: a set bound to two names is two inputs.
        fixed = {name: refresh_ids(normalize(s), alloc) for name, s in (problem.inputs or {}).items()}
        fixed = lifted(fixed, 1) if problem.steps else fixed
        step_maps, enter = itertools.repeat(fixed, problem.steps), lambda m, k: refresh_shared(m, alloc)

    for k, step_inputs in enumerate(step_maps, start=1):
        t0 = time.perf_counter()
        bound = {**env, **enter(step_inputs, k)}
        env = {}
        for name in problem.net.state_names:
            env[name] = _budgeted_step(
                k, f"update of {name}", result, eval_expr_sets, updates[name], bound, mode, alloc, normalize
            )
        result.steps.append(env)
        result.times.append(time.perf_counter() - t0)
    return result


def _budgeted_step(k: int, what: str, result: ReachResult, fn, *args):
    """fn(*args), with a construction-cap failure naming step k and what was
    built, and carrying the steps of ``result`` as ``partial``."""
    try:
        return fn(*args)
    except BudgetExceeded as exc:
        raise BudgetExceeded(f"step {k} {what}: {exc}", partial=result) from exc


def _budgeted(fn, s: CPLZ, budget: EnumerationBudget | None, what: str):
    """fn(s, budget), with a budget failure naming the step and the set."""
    try:
        return fn(s, budget)
    except BudgetExceeded as exc:
        raise BudgetExceeded(f"{what} (h={s.h}, p={s.p}): {exc}") from exc


def unsafe_checker(
    result: ReachResult,
    safety: SafetySpec,
    alloc: IdAllocator | None = None,
    budget: EnumerationBudget | None = None,
) -> Callable[[int], StepVerdict]:
    """Check the safety spec against the result once and return the verdict
    of one step: SAFE iff the exact intersection with the unsafe set is
    empty; an UNSAFE verdict carries a witness point from the overlap.
    Without a budget of its own it uses the result's."""
    if safety.state not in result.state_names:
        raise ValueError(f"{safety.state} is not a state of this result")
    width = result.steps[0][safety.state].n
    if width != safety.unsafe.n:
        raise DimensionError(f"unsafe set dimension {safety.unsafe.n} != state width {width}")
    # the overlaps take every id fresh from this allocator and never leave this
    # check, so a private allocator cannot collide with the caller's ids
    alloc = alloc or IdAllocator()
    budget = budget or result.budget

    def verdict(k: int) -> StepVerdict:
        overlap = intersect(result.steps[k][safety.state], safety.unsafe, alloc)
        witness = _budgeted(witness_point, overlap, budget, f"step {k} {safety.state} ∩ unsafe")
        return StepVerdict(step=k, safe=witness is None, witness=witness)

    return verdict


def check_unsafe(
    result: ReachResult,
    safety: SafetySpec,
    alloc: IdAllocator | None = None,
    budget: EnumerationBudget | None = None,
) -> list[StepVerdict]:
    """The verdict of every step, step 0 first (see ``unsafe_checker``)."""
    verdict = unsafe_checker(result, safety, alloc, budget)
    return [verdict(k) for k in range(len(result.steps))]


def exhaustive_reach(
    net: NetworkSpec,
    init_points: dict[str, PointSet],
    input_points: dict[str, PointSet] | list[dict[str, PointSet]] | None,
    steps: int,
) -> list[PointSet]:
    """Brute-force reachable sets straight from the definition.

    Walks every combination of initial points and per-step input points,
    deduplicating the state frontier after each synchronous update, and
    returns the stacked joint state set per step. Independent oracle for
    the generator-space computation; state spaces must be desk-scale.
    """
    names = net.state_names
    frontier = {
        tuple(combo)
        for combo in itertools.product(*[init_points[name].bitvectors() for name in names])
    }

    def joint(front) -> PointSet:
        n = sum(net.widths[name] for name in names)
        return PointSet.from_bitvectors([concat(*combo) for combo in front], n)

    out = [joint(frontier)]
    for step_inputs in _per_step(input_points, steps):
        input_names = list(step_inputs)
        input_choices = list(
            itertools.product(*[step_inputs[name].bitvectors() for name in input_names])
        )
        new_frontier = set()
        for combo in frontier:
            env = dict(zip(names, combo))
            for input_combo in input_choices:
                env.update(zip(input_names, input_combo))
                new_frontier.add(
                    tuple(eval_expr_point(net.updates[name], env) for name in names)
                )
        frontier = new_frontier
        out.append(joint(frontier))
    return out
