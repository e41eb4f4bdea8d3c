"""logiczono benchmark: one workload per call, every metric printed with its unit.

    python3 perfbench/run.py --workload circuit_reach --seed 1 --seconds 55 --trace 0

--trace 0 prints the end-to-end metrics and --trace 1 the per-layer ones
(see BENCHMARK.json and README.md in this directory). The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 0 only when every op matched the
point-domain oracle.

Each workload runs in its own single-threaded worker process
(worker.py). With --trace 0, set-up is timed in the measured worker and
in SETUP_PROBES more workers that stop once set up; setup_s is the
median, from process start to ready.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# small_sets is run by hand only; README.md says why it is not in BENCHMARK.json.
WORKLOADS = ("circuit_reach", "circuit_deep", "small_sets")
SETUP_PROBES = 2
DEADLINE_S = 170
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
# Single-threaded numeric libraries, and a fixed hash seed so that set
# iteration order cannot change the exact counts between runs.
WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMBA_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerError(RuntimeError):
    pass


def _start(args, extra: list[str]) -> tuple[subprocess.Popen, float]:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
        *extra,
    ]
    env = {**os.environ, **WORKER_ENV}
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    return proc, start


def _until_ready(proc: subprocess.Popen, start: float) -> float:
    for line in proc.stdout:
        if line.strip() == "ready":
            return time.perf_counter() - start
    proc.wait()
    raise WorkerError(f"worker exited with code {proc.returncode} before it was set up")


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def measured_run(args) -> tuple[float, dict]:
    """Set-up seconds and result of the measured worker; its other lines are relayed."""
    proc, start = _start(args, [])
    try:
        setup = _until_ready(proc, start)
        result = None
        for line in proc.stdout:
            if line.startswith("result "):
                result = json.loads(line[len("result "):])
            else:
                print(line.rstrip("\n"), flush=True)
        if proc.wait() != 0 or result is None:
            raise WorkerError(f"worker exited with code {proc.returncode} without a result")
        return setup, result
    finally:
        _stop(proc)


def setup_probe(args) -> float:
    proc, start = _start(args, ["--setup-only"])
    try:
        setup = _until_ready(proc, start)
        if proc.wait() != 0:
            raise WorkerError(f"set-up worker exited with code {proc.returncode}")
        return setup
    finally:
        _stop(proc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the smoke test only")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "logiczono" / "__init__.py").is_file():
        print(f"error: no logiczono sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    def on_deadline(signum, frame):
        raise WorkerError(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(DEADLINE_S)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}", flush=True)
    try:
        setup, result = measured_run(args)
        if not args.trace:
            setups = [setup] + [setup_probe(args) for _ in range(SETUP_PROBES)]
            result["metrics"]["setup_s"] = statistics.median(setups)
            print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setups)}")
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    if args.trace:
        from tracing import metric_units

        units = metric_units()
    else:
        units = END_TO_END_UNITS
    metrics = {
        name: {"value": result["metrics"][name], "unit": unit}
        for name, unit in units.items()
        if name in result["metrics"]
    }
    for name, m in metrics.items():
        print(f"{name:<36} {m['value']:>16.6g} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'fail_ratio':<36} {failed / attempted:>16.6g} ratio ({failed}/{attempted} ops)")
    out = {"correct": result["correct"], "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(out), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
