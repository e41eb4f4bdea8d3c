"""Command-line front end: reachability runs, intersection benchmarks, enumeration.

Exit codes: 0 success/safe, 1 an UNSAFE step was found, 2 usage or parse
error, 3 a budget exceeded: the enumeration budget, or the construction cap
``sets.MAX_COLUMNS`` on one gate. --max-factors sets the enumeration budget.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import numpy as np

from .bitvec import BitMatrix, BitVector
from .errors import BudgetExceeded, NetParseError
from .network import parse_network
from .points import DEFAULT_MAX_FACTORS, EnumerationBudget, enumerate_points
from .reach import MODES, ReachProblem, SafetySpec, StepVerdict, reach, unsafe_checker
from .sets import EXACT, CPLZ, IdAllocator, intersect, intersect_overapprox_lz, mink_and
from . import setio

TIMING_REPS = 10  # median of this many runs, after one discarded warm-up


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise OSError(f"cannot open {path}: {exc.strerror}") from exc


def _read_json(path: str):
    try:
        return setio.read_json(path)
    except OSError as exc:
        raise OSError(f"cannot open {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc


def _out(text: str) -> None:
    """Print a line to stdout; once its reader has gone, drop the rest of the output."""
    try:
        print(text)
    except BrokenPipeError:
        _discard_stdout()


def _discard_stdout() -> None:
    # Point the descriptor at the null device so that later writes, and the
    # flush at interpreter exit, do not fail again on the closed pipe.
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _median_time_ms(fn) -> float:
    fn()  # warm-up discarded
    samples = []
    for _ in range(TIMING_REPS):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


# --- reach -------------------------------------------------------------------


def cmd_reach(args) -> int:
    net = parse_network(_read_text(args.net))
    alloc = IdAllocator()
    budget = EnumerationBudget(args.max_factors)

    init_bindings = setio.load_bindings(_read_json(args.init), alloc)
    input_bindings = None
    if args.inputs:
        input_bindings = setio.load_input_bindings(_read_json(args.inputs), alloc)

    safety = None
    if args.unsafe:
        doc = _read_json(args.unsafe)
        if not isinstance(doc, dict) or "state" not in doc or "set" not in doc:
            raise ValueError('unsafe file must be {"state": NAME, "set": {...}}')
        safety = SafetySpec(doc["state"], setio.load_set(doc["set"], alloc))

    problem = ReachProblem(net=net, init=init_bindings, inputs=input_bindings, steps=args.steps)
    failure = None
    try:
        result = reach(problem, mode=args.mode, alloc=alloc, budget=budget)
    except BudgetExceeded as exc:
        if exc.partial is None:
            raise
        # a construction cap at step k: report steps 1..k-1, then fail
        result, failure = exc.partial, exc
    times, n_steps = result.times, len(result.steps)
    checking = safety is not None
    if checking:
        verdict = unsafe_checker(result, safety, alloc)
    found_unsafe = False

    header = f"{'step':>4}  {'time_ms':>9}  {'size':>10}" + ("  verdict" if checking else "")
    _out(header)
    rows = []
    for k in range(1, n_steps):
        # counted and checked row by row, so a budget failure at step k keeps rows 1..k-1
        size = result.size(k) if args.enumerate else None
        size_txt = str(size) if size is not None else "not enumerated"
        row = {"step": k, "time_ms": round(times[k] * 1e3, 3), "size": size}
        line = f"{k:>4}  {times[k] * 1e3:>9.3f}  {size_txt:>10}"
        if checking:
            row["verdict"], row["witness"] = _verdict_text(verdict(k))
            line += f"  {row['verdict']}" + (f" (witness {row['witness']})" if row["witness"] else "")
            found_unsafe |= row["witness"] is not None
        _out(line)
        rows.append(row)
    if checking:
        v0, w0 = _verdict_text(verdict(0))
        _out(f"step 0 (initial): {v0}" + (f" (witness {w0})" if w0 else ""))
        found_unsafe |= w0 is not None
    if failure is not None:
        raise failure

    if args.json:
        report = {
            "command": "reach",
            "net": args.net,
            "steps": args.steps,
            "mode": args.mode,
            "per_step": rows,
        }
        if checking:
            report["step0_verdict"] = v0
        setio.write_json(args.json, report)
    return 1 if found_unsafe else 0


def _verdict_text(v: StepVerdict) -> tuple[str, str | None]:
    """SAFE or UNSAFE, and the witness as a bitstring (None when safe)."""
    return ("SAFE", None) if v.safe else ("UNSAFE", v.witness.to01())


# --- intersect ---------------------------------------------------------------


def _random_lz(rng: np.random.Generator, dim: int, gens: int, alloc: IdAllocator) -> CPLZ:
    c = BitVector.from_bits(rng.integers(0, 2, size=dim))
    G = BitMatrix.from_bool(rng.integers(0, 2, size=(dim, gens)).astype(bool))
    return CPLZ.lz(c, G, alloc)


def _intersection_routes(l1: CPLZ, l2: CPLZ, alloc: IdAllocator, budget):
    """LZ overapproximation, polynomial overapproximation, exact intersection."""
    routes = {
        "lz": (lambda: intersect_overapprox_lz(l1, l2, alloc)),
        "plz": (lambda: mink_and(l1, l2, alloc)),
        "cplz": (lambda: intersect(l1, l2, alloc)),
    }
    records = {}
    points = {}
    for kind, fn in routes.items():
        ms = _median_time_ms(fn)
        points[kind] = enumerate_points(fn(), budget)
        records[kind] = {"time_ms": round(ms, 4), "size": len(points[kind])}
    if not points["cplz"].issubset(points["plz"]) or not points["plz"].issubset(points["lz"]):
        raise AssertionError("exact intersection escaped an overapproximation; this is a bug")
    return records


def cmd_intersect(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if args.dim < 1:
        raise ValueError(f"--dim must be at least 1, got {args.dim}")
    if args.gens is not None and args.gens < 0:
        raise ValueError(f"--gens must be at least 0, got {args.gens}")
    alloc = IdAllocator()
    budget = EnumerationBudget(args.max_factors)
    records = []

    if args.a or args.b:
        if not (args.a and args.b):
            raise ValueError("--a and --b must be given together")
        ca = setio.load_set(_read_json(args.a), alloc)
        cb = setio.load_set(_read_json(args.b), alloc)
        ms = _median_time_ms(lambda: intersect(ca, cb, alloc))
        pts = enumerate_points(intersect(ca, cb, alloc), budget)
        rec = {"kind": "cplz", "operation": "intersect", "time_ms": round(ms, 4),
               "size": len(pts), "dim": ca.n, "a": args.a, "b": args.b}
        records.append(rec)
        _out(f"exact intersection: size {len(pts)}, {ms:.4f} ms")
    else:
        gens = args.gens if args.gens is not None else max(args.dim - 1, 1)
        _out(f"{'trial':>5}  {'lz_ms':>8} {'lz_size':>8}  {'plz_ms':>8} {'plz_size':>9}"
             f"  {'cplz_ms':>8} {'cplz_size':>10}")
        for t in range(args.trials):
            rng = np.random.default_rng([args.seed, t])
            l1 = _random_lz(rng, args.dim, gens, alloc)
            l2 = _random_lz(rng, args.dim, gens, alloc)
            recs = _intersection_routes(l1, l2, alloc, budget)
            for kind in ("lz", "plz", "cplz"):
                records.append({
                    "kind": kind,
                    "operation": "intersection" if kind == "cplz" else "intersection_overapprox",
                    "time_ms": recs[kind]["time_ms"],
                    "size": recs[kind]["size"],
                    "dim": args.dim,
                    "gens": gens,
                    "seed": args.seed,
                    "trial": t,
                })
            _out(f"{t:>5}  {recs['lz']['time_ms']:>8.4f} {recs['lz']['size']:>8}"
                 f"  {recs['plz']['time_ms']:>8.4f} {recs['plz']['size']:>9}"
                 f"  {recs['cplz']['time_ms']:>8.4f} {recs['cplz']['size']:>10}")
        medians = {}
        for kind in ("lz", "plz", "cplz"):
            sizes = [r["size"] for r in records if r["kind"] == kind]
            times = [r["time_ms"] for r in records if r["kind"] == kind]
            medians[kind] = {"size": statistics.median(sizes), "time_ms": statistics.median(times)}
        _out("medians: " + "  ".join(
            f"{kind}: size {medians[kind]['size']}, {medians[kind]['time_ms']:.4f} ms"
            for kind in ("lz", "plz", "cplz")))

    if args.json:
        doc = {"command": "intersect", "records": records}
        if not (args.a or args.b):
            doc.update({"dim": args.dim, "gens": gens, "seed": args.seed, "trials": args.trials})
        setio.write_json(args.json, doc)
    return 0


# --- enumerate ---------------------------------------------------------------


def cmd_enumerate(args) -> int:
    alloc = IdAllocator()
    budget = EnumerationBudget(args.max_factors)
    pts = enumerate_points(setio.load_set(_read_json(args.set), alloc), budget)
    _out(json.dumps(pts.to_bitstrings()))
    return 0


# --- wiring ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logiczono",
        description="Generator-space logical set operations and boolean-network reachability.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # every subcommand enumerates points, under one budget flag
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--max-factors", type=int, default=DEFAULT_MAX_FACTORS,
                        help="enumeration budget in live factors")

    p_reach = sub.add_parser("reach", parents=[budget],
                             help="run N-step reachability, optionally checking an unsafe set")
    p_reach.add_argument("--net", required=True, help="network description file")
    p_reach.add_argument("--init", required=True, help="JSON bindings for initial state sets")
    p_reach.add_argument("--inputs", help="JSON bindings for input sets (map, or per-step array)")
    p_reach.add_argument("--steps", type=int, required=True)
    p_reach.add_argument("--mode", choices=MODES, default=EXACT)
    p_reach.add_argument("--enumerate", action="store_true", help="report joint point counts per step")
    p_reach.add_argument("--unsafe", help='JSON {"state": NAME, "set": {...}}')
    p_reach.add_argument("--json", help="write a machine-readable report here")
    p_reach.set_defaults(func=cmd_reach)

    p_int = sub.add_parser("intersect", parents=[budget],
                           help="compare intersection routes on random or explicit sets")
    p_int.add_argument("--dim", type=int, default=5)
    p_int.add_argument("--gens", type=int, default=None, help="generators per operand (default dim-1)")
    p_int.add_argument("--seed", type=int, default=0)
    p_int.add_argument("--trials", type=int, default=1)
    p_int.add_argument("--a", help="explicit first operand (set-exchange JSON)")
    p_int.add_argument("--b", help="explicit second operand")
    p_int.add_argument("--json", help="write a machine-readable report here")
    p_int.set_defaults(func=cmd_intersect)

    p_enum = sub.add_parser("enumerate", parents=[budget],
                            help="print the point set of a set-exchange file")
    p_enum.add_argument("--set", required=True)
    p_enum.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 3
    except (NetParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _discard_stdout()
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
