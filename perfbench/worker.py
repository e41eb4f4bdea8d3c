"""One workload in one single-threaded process: set up, measure, check.

run.py starts this file once per measured run and a few more times with
--setup-only to time set-up. The process prints ``ready`` once set-up is
done (import, network parse, input generation, one discarded warm-up op),
then progress lines, then ``result {json}`` as its last line.

The load is a closed loop with one caller: op i+1 starts when op i has
returned. Oracle checks run after the loop, outside every timed region.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RECORDS = HERE / ".records"


def use_checkout_source() -> None:
    """Import logiczono from this checkout's src/, never from an installed copy."""
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import logiczono

    if Path(logiczono.__file__).resolve().parent != (SRC / "logiczono").resolve():
        raise ImportError(f"logiczono was imported from {logiczono.__file__}, not from {SRC}")


def environment(seed: int) -> dict:
    import numpy

    from logiczono import kernels

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": has_numba,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }
    if hasattr(kernels, "backend"):
        env["kernels_backend"] = kernels.backend()
    return env


class Outcomes:
    """The results of one run's ops, kept per entry of the workload's input pool.

    The first op on each pool entry keeps its record for the oracle. A later
    op on the same entry is compared with that record and only counted, so
    the memory held is bounded by the pool, not by the number of ops, and
    peak_rss_mb does not grow when the program gets faster.
    """

    def __init__(self, workload):
        self.workload = workload
        self.first: dict[int, tuple] = {}  # pool entry -> (op index, record, error)
        self.runs: dict[int, int] = defaultdict(int)
        self.differs: dict[int, int] = defaultdict(int)

    def add(self, i: int, rec, err: str | None) -> None:
        key = i % len(self.workload.pool)
        self.runs[key] += 1
        if key not in self.first:
            self.first[key] = (i, rec, err)
            return
        _, first_rec, first_err = self.first[key]
        if err != first_err or (err is None and not self.workload.same(first_rec, rec)):
            self.differs[key] += 1

    def attempted(self) -> int:
        return sum(self.runs.values())

    def check(self) -> tuple[int, list[str]]:
        """Failed op count and messages; every first op is judged by the point domain."""
        failed, messages = 0, []
        for key, (i, rec, err) in self.first.items():
            errors = [err] if err else self.workload.check(i, rec)
            if errors:
                failed += self.runs[key]
                messages.extend(errors)
            elif self.differs[key]:
                failed += self.differs[key]
                messages.append(f"op {i}: {self.differs[key]} later op(s) on the same input returned another result")
        return failed, messages


def _run_op(workload, outcomes: Outcomes, i: int) -> float:
    """Seconds op i took; its result goes to ``outcomes``, a budget overrun as a failure."""
    from logiczono.errors import BudgetExceeded

    start = time.perf_counter()
    try:
        output = workload.op(i)
    except BudgetExceeded as exc:
        elapsed = time.perf_counter() - start
        outcomes.add(i, None, f"op {i}: budget exceeded: {exc}")
        return elapsed
    elapsed = time.perf_counter() - start
    outcomes.add(i, workload.record(output), None)
    return elapsed


def run_for(workload, outcomes: Outcomes, seconds: float) -> array:
    """Closed loop until the ops have taken ``seconds`` in total."""
    latencies = array("d")
    total = 0.0
    i = 0
    while total < seconds:
        elapsed = _run_op(workload, outcomes, i)
        latencies.append(elapsed)
        total += elapsed
        i += 1
    return latencies


def run_count(workload, outcomes: Outcomes, count: int) -> array:
    return array("d", (_run_op(workload, outcomes, i) for i in range(count)))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of samples at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def code_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *SRC.rglob("*.bn"), *SRC.rglob("*.json"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def repeatable_counts(name: str, seed: int, size: str, metrics: dict) -> list[str]:
    """Compare exact counts with an earlier traced run of the same code and seed.

    The first run stores its counts under .records/; a later run that
    differs reports each differing count as nondeterminism.
    """
    counts = {k: v for k, v in metrics.items() if not k.endswith(".ms") and k != "trace.overhead_ratio"}
    RECORDS.mkdir(exist_ok=True)
    path = RECORDS / f"{name}-{size}-{seed}-{code_fingerprint()}.json"
    if not path.exists():
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(counts, sort_keys=True))
        tmp.replace(path)
        return []
    earlier = json.loads(path.read_text())
    return [
        f"nondeterminism: {k} was {earlier.get(k)} in an earlier run, now {counts.get(k)}"
        for k in sorted(set(earlier) | set(counts))
        if earlier.get(k) != counts.get(k)
    ]


def measure(workload, name: str, seed: int, seconds: float, trace: bool, size: str, emit=print) -> dict:
    """Run the measured part of one run and return the worker's result."""
    outcomes = Outcomes(workload)
    if not trace:
        latencies = run_for(workload, outcomes, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        n = len(latencies)
        metrics = {
            "ops_per_s": n / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        # Printed, not a BENCHMARK.json metric: only small_sets has enough
        # samples for it; on the circuits it is the maximum of a few ops.
        p99 = percentile(latencies, 99)
        beyond = sum(1 for x in latencies if x > p99)
        emit(f"ops {n} in {sum(latencies):.3f} s of op time (closed loop, one caller)")
        emit(f"op_p99 {p99 * 1e3:.3f} ms over {n} samples, {beyond} beyond it"
             + ("" if beyond >= 10 else " (fewer than 10: read it as a maximum)"))
        absent: list[str] = []
    else:
        from tracing import Tracer

        plain = run_count(workload, outcomes, workload.trace_ops)
        with Tracer() as tracer:
            traced = run_count(workload, outcomes, workload.trace_ops)
        metrics, absent = tracer.metrics(sum(traced) / sum(plain))
        emit(f"traced {len(traced)} ops after the same {len(plain)} ops untraced")
    messages = workload.cross_check()
    failed, op_messages = outcomes.check()
    messages += op_messages
    if trace:
        messages += repeatable_counts(name, seed, size, metrics)
    for line in workload.summary(outcomes.first.values()):
        emit(line)
    for line in messages[:20]:
        emit(f"FAIL {line}")
    if absent:
        emit(f"absent (layer not found): {', '.join(absent)}")
    return {
        "correct": not messages,
        "attempted": outcomes.attempted(),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    use_checkout_source()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload][args.size](args.seed)
    workload.op(0)  # warm-up, discarded
    print("ready", flush=True)
    if args.setup_only:
        return 0
    print("env " + json.dumps(environment(args.seed)), flush=True)
    result = measure(workload, args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
