"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric of BENCHMARK.json is printed by name with its
unit on every workload, that a wrong result planted through a wrapper is
counted as a failed op, and that the command fails, printing no result,
when the library sources are missing.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]] + ["small_sets"]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [*BENCH["command"], "--workload", workload, "--seed", "3", "--seconds", "0.3",
           "--trace", str(trace), "--size", "tiny"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if len(line.split()) == 3}
    for name, unit in declared.items():
        assert printed.get(name) == unit, f"{name} not printed with unit {unit}"
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert {"python", "numpy", "numba_importable", "nproc", "cpu", "seed"} <= set(env)
    assert any(line.startswith("fail_ratio ") for line in lines)


def _corrupt_count(points, reach_mod, sets):
    original = points.count_points
    return points, "count_points", lambda *a, **k: original(*a, **k) + 1


def _corrupt_state(points, reach_mod, sets):
    original = reach_mod.canonicalize
    return reach_mod, "canonicalize", lambda *a, **k: sets.negate(original(*a, **k))


def _corrupt_emptiness(points, reach_mod, sets):
    original = points.is_empty
    return points, "is_empty", lambda *a, **k: not original(*a, **k)


@pytest.mark.parametrize(
    "workload, plant",
    [("circuit_reach", _corrupt_count), ("circuit_deep", _corrupt_state), ("small_sets", _corrupt_emptiness)],
)
def test_planted_wrong_result_counts_as_failed(monkeypatch, workload, plant):
    monkeypatch.syspath_prepend(str(HERE))
    worker = importlib.import_module("worker")
    worker.use_checkout_source()
    from workloads import WORKLOADS

    from logiczono import points, sets

    module, attr, wrapper = plant(points, importlib.import_module("logiczono.reach"), sets)
    monkeypatch.setattr(module, attr, wrapper)
    result = worker.measure(
        WORKLOADS[workload]["tiny"](3), workload, 3, 0.1, False, "tiny", emit=lambda line: None
    )
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert not result["correct"]


def test_repeat_that_differs_from_the_checked_first_op_counts_as_failed(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    worker = importlib.import_module("worker")
    worker.use_checkout_source()
    from workloads import WORKLOADS

    from logiczono import points

    workload = WORKLOADS["circuit_reach"]["tiny"](3)
    first_pass_calls = len(workload.pool) * (workload.horizon + 1)
    original = points.count_points
    calls = []

    def wrong_after_first_pass(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs) + (len(calls) > first_pass_calls)

    monkeypatch.setattr(points, "count_points", wrong_after_first_pass)
    result = worker.measure(workload, "circuit_reach", 3, 0.3, False, "tiny", emit=lambda line: None)
    assert result["attempted"] > len(workload.pool)
    assert result["failed"] == result["attempted"] - len(workload.pool)
    assert not result["correct"]


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".records"))
    proc = _run(tmp_path, WORKLOAD_NAMES[0], 0)
    assert proc.returncode != 0
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    assert not last.startswith("{")


def test_missing_layer_is_reported_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    importlib.import_module("worker").use_checkout_source()
    from tracing import Tracer, metric_units

    from logiczono import kernels

    monkeypatch.delattr(kernels, "sweep_chunk")
    with Tracer() as tracer:
        pass
    metrics, absent = tracer.metrics(1.0)
    assert "kernels.sweep_chunk.ms" in absent and "kernels.col_ops" in absent
    assert set(metrics) | set(absent) == set(metric_units())
    assert not set(metrics) & set(absent)
