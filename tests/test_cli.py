import argparse
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from logiczono import sets
from logiczono.bitvec import BitVector
from logiczono.cli import build_parser, main
from logiczono.network import parse_network
from logiczono.points import PointSet
from logiczono.reach import MODES, ReachProblem, exhaustive_reach, reach
from logiczono.sets import CPLZ

DATA = resources.files("logiczono") / "data"
README = Path(__file__).resolve().parents[1] / "README.md"


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def toy_net(tmp_path):
    p = tmp_path / "toy.bn"
    p.write_text("state b[1]\nnext b = b\n")
    return str(p)


def test_reach_identity_singleton(tmp_path, toy_net, capsys):
    init = write(tmp_path / "init.json", {"b": {"points": ["0"]}})
    code = main(["reach", "--net", toy_net, "--init", init, "--steps", "3", "--enumerate"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [l.split() for l in out.splitlines() if l.strip() and l.strip()[0].isdigit()]
    assert [r[2] for r in rows] == ["1", "1", "1"]


def test_reach_explicit_ids_do_not_collide_with_fresh_ones(tmp_path, capsys):
    # A's document names id 1, which B's lz document would otherwise take fresh,
    # making A ^ B look correlated: the true step-1 count is 4, not 2
    net = tmp_path / "xor.bn"
    net.write_text("state A[2], B[2]\nnext A = A ^ B\nnext B = B\n")
    init = write(tmp_path / "init.json", {
        "A": {"kind": "cplz", "n": 2, "c": "00", "G": ["10"], "E": ["1"], "id": [1]},
        "B": {"kind": "lz", "n": 2, "c": "00", "G": ["01"]},
    })
    code = main(["reach", "--net", str(net), "--init", init, "--steps", "1", "--enumerate"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[1].split()[2] == "4"


def test_reach_mode_is_the_only_run_knob(toy_net, capsys):
    # --rep is gone, and so are the set kinds as run names
    for flags in (["--rep", "lz"], ["--mode", "cplz"], ["--mode", "plz"]):
        assert main(["reach", "--net", toy_net, "--init", "x.json", "--steps", "1", *flags]) == 2
    problem = ReachProblem(net=parse_network("state b[1]\nnext b = b\n"),
                           init={"b": CPLZ.singleton(BitVector.from01("0"))})
    with pytest.raises(ValueError, match="mode must be one of"):
        reach(problem, mode="cplz")


def test_reach_missing_file(tmp_path, toy_net, capsys):
    code = main(["reach", "--net", toy_net, "--init", str(tmp_path / "nope.json"), "--steps", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot open" in err


def test_reach_bad_flags(capsys):
    assert main(["reach", "--net", "x"]) == 2


def test_reach_unsafe_exit_code(tmp_path, capsys):
    net = tmp_path / "alt.bn"
    net.write_text("state b[1]\nnext b = ~b\n")
    init = write(tmp_path / "init.json", {"b": {"points": ["0"]}})
    unsafe = write(tmp_path / "unsafe.json", {"state": "b", "set": {"points": ["0"]}})
    report = tmp_path / "report.json"
    code = main([
        "reach", "--net", str(net), "--init", init, "--steps", "2",
        "--unsafe", unsafe, "--json", str(report),
    ])
    out = capsys.readouterr().out
    assert code == 1
    doc = json.loads(report.read_text())
    verdicts = [row["verdict"] for row in doc["per_step"]]
    assert verdicts == ["SAFE", "UNSAFE"]
    assert doc["step0_verdict"] == "UNSAFE"
    assert doc["per_step"][1]["witness"] == "0"
    assert "UNSAFE" in out


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_reach_closed_stdout_pipe(tmp_path, unbuffered):
    # the reader of stdout is gone before the first line is written, as with
    # `logiczono reach ... | head -0`; the verdict exit code and the report survive
    net = tmp_path / "alt.bn"
    net.write_text("state b[1]\nnext b = ~b\n")
    init = write(tmp_path / "init.json", {"b": {"points": ["0"]}})
    unsafe = write(tmp_path / "unsafe.json", {"state": "b", "set": {"points": ["0"]}})
    report = tmp_path / "report.json"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "logiczono.cli", "reach", "--net", str(net), "--init", init,
             "--steps", "2", "--enumerate", "--unsafe", unsafe, "--json", str(report)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ""
    doc = json.loads(report.read_text())
    assert [row["verdict"] for row in doc["per_step"]] == ["SAFE", "UNSAFE"]


CIRCUIT = [
    "reach",
    "--net", str(DATA / "circuit3x10.bn"),
    "--init", str(DATA / "circuit3x10_init.json"),
    "--inputs", str(DATA / "circuit3x10_inputs.json"),
]


@pytest.mark.parametrize(
    "mode, sizes", [("exact", [64, 150, 180]), ("lz", [512, 512, 512])], ids=["cplz", "lz"]
)
def test_reach_example_circuit(tmp_path, capsys, mode, sizes):
    report = tmp_path / "r.json"
    code = main([
        *CIRCUIT, "--steps", "3",
        "--mode", mode, "--enumerate",
        "--json", str(report),
    ])
    assert code == 0
    doc = json.loads(report.read_text())
    assert [row["size"] for row in doc["per_step"]] == sizes


@pytest.mark.parametrize("mode", MODES)
def test_reach_report_names_the_mode_that_ran(tmp_path, toy_net, mode):
    init = write(tmp_path / "init.json", {"b": {"points": ["0", "1"]}})
    report = tmp_path / "r.json"
    args = ["--mode", mode, "--json", str(report)]
    assert main(["reach", "--net", toy_net, "--init", init, "--steps", "1", *args]) == 0
    doc = json.loads(report.read_text())
    assert doc["mode"] == mode
    assert "rep" not in doc


def test_reach_example_circuit_minkowski(capsys):
    code = main([*CIRCUIT, "--steps", "5", "--mode", "minkowski", "--enumerate"])
    out, err = capsys.readouterr()
    assert code == 3
    assert "step 3 joint state set (h=162, p=37)" in err
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [(int(r[0]), int(r[2])) for r in rows] == [(1, 128), (2, 200)]


def test_reach_construction_budget_exit(capsys, monkeypatch):
    # with a cap of 200 columns, B3's NAND at step 5 (121 x 2 generators) is refused
    monkeypatch.setattr(sets, "MAX_COLUMNS", 200)
    code = main([*CIRCUIT, "--steps", "5"])
    assert code == 3
    assert "step 5 update of B3: an AND of 121 x 2 generators" in capsys.readouterr().err


def test_reach_point_lists_single_run(tmp_path, capsys):
    # 3-point lists are one exact set each: a single run whose counts and
    # verdicts match exhaustive simulation
    net = tmp_path / "t.bn"
    net.write_text("state b[3]\ninput u[3]\nnext b = (b & u) ^ ~b\n")
    init, inputs, bad = ["000", "011", "101"], ["001", "110", "111"], ["001", "010", "100"]
    report = tmp_path / "r.json"
    code = main([
        "reach", "--net", str(net), "--steps", "3", "--enumerate", "--json", str(report),
        "--init", write(tmp_path / "i.json", {"b": {"points": init}}),
        "--inputs", write(tmp_path / "u.json", {"u": {"points": inputs}}),
        "--unsafe", write(tmp_path / "bad.json", {"state": "b", "set": {"points": bad}}),
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "subproblems" not in out and "subproblems" not in report.read_text()
    oracle = exhaustive_reach(
        parse_network(net.read_text()),
        {"b": PointSet.from_bitstrings(init)}, {"u": PointSet.from_bitstrings(inputs)}, 3,
    )
    doc = json.loads(report.read_text())
    assert [row["size"] for row in doc["per_step"]] == [len(p) for p in oracle[1:]] == [4, 5, 5]
    assert [row["verdict"] for row in doc["per_step"]] == ["SAFE", "UNSAFE", "UNSAFE"]
    assert doc["step0_verdict"] == "SAFE"


def test_reach_budget_names_the_step(tmp_path, capsys):
    # the shipped circuit with a third point in B1 and in U1: the step-6
    # joint set has 28 factors, over the default cap of 24
    init = json.loads((DATA / "circuit3x10_init.json").read_text())
    inputs = json.loads((DATA / "circuit3x10_inputs.json").read_text())
    init["B1"]["points"].append("1111100000")
    inputs["U1"]["points"].append("0000011111")
    code = main([
        "reach", "--net", str(DATA / "circuit3x10.bn"), "--steps", "6", "--enumerate",
        "--init", write(tmp_path / "i.json", init), "--inputs", write(tmp_path / "u.json", inputs),
    ])
    out, err = capsys.readouterr()
    assert code == 3
    assert "step 6 joint state set" in err
    # rows counted before the failing step are still printed
    lines = out.splitlines()
    assert lines[0].split() == ["step", "time_ms", "size"]
    rows = [line.split() for line in lines[1:]]
    assert [(int(r[0]), int(r[2])) for r in rows] == list(
        zip(range(1, 6), [128, 540, 1295, 2325, 3165])
    )


def test_reach_unsafe_budget_failure_keeps_decided_rows(tmp_path, capsys):
    # the same 3-point circuit: B1 ∩ unsafe has 15 live factors at step 4,
    # over a cap of 12, while steps 1-3 are decided (all UNSAFE)
    init = json.loads((DATA / "circuit3x10_init.json").read_text())
    inputs = json.loads((DATA / "circuit3x10_inputs.json").read_text())
    init["B1"]["points"].append("1111100000")
    inputs["U1"]["points"].append("0000011111")
    unsafe = {"state": "B1", "set": {"points": ["1111111111", "0000000001"]}}
    code = main([
        "reach", "--net", str(DATA / "circuit3x10.bn"), "--steps", "5", "--max-factors", "12",
        "--init", write(tmp_path / "i.json", init), "--inputs", write(tmp_path / "u.json", inputs),
        "--unsafe", write(tmp_path / "x.json", unsafe),
    ])
    out, err = capsys.readouterr()
    assert code == 3
    assert "step 4 B1 ∩ unsafe (h=784, p=15): 15 factors exceed" in err
    lines = out.splitlines()
    assert lines[0].split() == ["step", "time_ms", "size", "verdict"]
    rows = [line.split() for line in lines[1:]]
    assert [(int(r[0]), r[2], r[3], r[4]) for r in rows] == [
        (k, "not", "enumerated", "UNSAFE") for k in (1, 2, 3)
    ]


def test_enumerate_singleton(tmp_path, capsys):
    p = write(tmp_path / "s.json", {"points": ["10"]})
    assert main(["enumerate", "--set", p]) == 0
    assert json.loads(capsys.readouterr().out) == ["10"]


def test_enumerate_two_generators(tmp_path, capsys):
    doc = {"kind": "cplz", "n": 2, "c": "00", "G": ["10", "01"], "E": ["10", "01"], "id": [1, 2]}
    p = write(tmp_path / "g2.json", doc)
    assert main(["enumerate", "--set", p]) == 0
    assert sorted(json.loads(capsys.readouterr().out)) == ["00", "01", "10", "11"]


@pytest.mark.parametrize(
    "doc, message",
    [
        (["0", "1"], "JSON object"),
        ({"kind": "lz", "c": "01"}, "dimension n"),
        ({"kind": "lz", "n": 2, "G": 5}, "list of bitstrings"),
        ({"points": ["01", 5]}, "points must be a list of bitstrings"),
        ({"points": "0101"}, "points must be a list of bitstrings"),
        ({"kind": "plz", "n": 2, "c": "01", "G": [3]}, "G must be a list of bitstrings"),
        ({"kind": "cplz", "n": 2, "c": 7}, "c must be a bitstring"),
        ({"kind": "cplz", "n": 1, "b": 1}, "b must be a bitstring"),
        ({"kind": "cplz", "n": 1, "E": [0], "id": [1]}, "E must be a list of bitstrings"),
        ({"kind": "cplz", "n": 1, "id": ["1"]}, "id must be a list of integers"),
        ({"kind": "cplz", "n": [2]}, "n must be a non-negative integer"),
    ],
)
def test_enumerate_malformed_set_is_a_usage_error(tmp_path, capsys, doc, message):
    p = write(tmp_path / "bad.json", doc)
    assert main(["enumerate", "--set", p]) == 2
    assert message in capsys.readouterr().err


def test_reach_malformed_init_is_a_usage_error(tmp_path, toy_net, capsys):
    init = write(tmp_path / "init.json", {"b": {"points": "0"}})
    assert main(["reach", "--net", toy_net, "--init", init, "--steps", "1"]) == 2
    assert "points must be a list of bitstrings" in capsys.readouterr().err


def test_enumerate_lz_document_past_the_factor_cap(tmp_path, capsys):
    # an "lz" document takes one fresh factor per generator; its points come
    # from the GF(2) span, so 30 generators pass a 24-factor budget
    doc = {"kind": "lz", "n": 2, "c": "00", "G": ["10", "01"] * 15}
    p = write(tmp_path / "lz30.json", doc)
    assert main(["enumerate", "--set", p]) == 0
    assert sorted(json.loads(capsys.readouterr().out)) == ["00", "01", "10", "11"]


def test_enumerate_budget_exit(tmp_path, capsys):
    ids = list(range(1, 31))
    doc = {"kind": "cplz", "n": 1, "c": "0", "G": ["1"], "E": ["1" * 30], "id": ids}
    p = write(tmp_path / "p30.json", doc)
    assert main(["enumerate", "--set", p]) == 3


def test_enumerate_budget_counts_only_live_factors(tmp_path, capsys):
    # 30 ids, of which only the first two gate a column: the sweep covers 2^2 assignments
    ids = list(range(1, 31))
    E = ["1" + "0" * 29, "01" + "0" * 28, "11" + "0" * 28]
    doc = {"kind": "cplz", "n": 3, "c": "000", "G": ["100", "010", "001"], "E": E, "id": ids}
    assert main(["enumerate", "--set", write(tmp_path / "p2.json", doc)]) == 0
    assert sorted(json.loads(capsys.readouterr().out)) == ["000", "010", "100", "111"]
    # 25 live factors of 30 are still over the default cap of 24
    doc = {"kind": "cplz", "n": 1, "c": "0", "G": ["1"], "E": ["1" * 25 + "0" * 5], "id": ids}
    assert main(["enumerate", "--set", write(tmp_path / "p25.json", doc)]) == 3
    assert "25 factors exceed the enumeration cap of 24" in capsys.readouterr().err


def test_enumerate_env_budget(tmp_path, capsys, monkeypatch):
    ids = list(range(1, 7))
    doc = {"kind": "cplz", "n": 1, "c": "0", "G": ["1"], "E": ["1" * 6], "id": ids}
    p = write(tmp_path / "p6.json", doc)
    monkeypatch.setenv("LOGICZONO_MAX_FACTORS", "5")
    assert main(["enumerate", "--set", p]) == 3
    monkeypatch.setenv("LOGICZONO_MAX_FACTORS", "10")
    assert main(["enumerate", "--set", p]) == 0


def test_env_budget_must_be_an_integer(tmp_path, toy_net, capsys, monkeypatch):
    init = write(tmp_path / "init.json", {"b": {"points": ["0"]}})
    monkeypatch.setenv("LOGICZONO_MAX_FACTORS", "abc")
    assert main(["reach", "--net", toy_net, "--init", init, "--steps", "1", "--enumerate"]) == 2
    assert "LOGICZONO_MAX_FACTORS must be an integer, got 'abc'" in capsys.readouterr().err


def test_intersect_random_trials(tmp_path, capsys):
    report = tmp_path / "bench.json"
    code = main([
        "intersect", "--dim", "5", "--gens", "4", "--seed", "1", "--trials", "2",
        "--json", str(report),
    ])
    assert code == 0
    doc = json.loads(report.read_text())
    assert len(doc["records"]) == 6
    for rec in doc["records"]:
        assert rec["size"] <= 2 ** 5
        assert {"kind", "operation", "time_ms", "size", "dim", "gens", "seed", "trial"} <= set(rec)


def test_intersect_report_reproducible(tmp_path):
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["intersect", "--dim", "6", "--gens", "4", "--seed", "9", "--trials", "3"]
    assert main(args + ["--json", str(r1)]) == 0
    assert main(args + ["--json", str(r2)]) == 0
    d1 = json.loads(r1.read_text())
    d2 = json.loads(r2.read_text())
    strip = lambda recs: [{k: v for k, v in r.items() if k != "time_ms"} for r in recs]
    assert strip(d1["records"]) == strip(d2["records"])


def test_intersect_explicit_disjoint_singletons(tmp_path, capsys):
    a = write(tmp_path / "a.json", {"points": ["0"]})
    b = write(tmp_path / "b.json", {"points": ["1"]})
    assert main(["intersect", "--a", a, "--b", b]) == 0
    assert "size 0" in capsys.readouterr().out


def test_intersect_containment_assertion_runs(capsys):
    # size ordering lz >= plz >= cplz must hold on every trial
    assert main(["intersect", "--dim", "7", "--gens", "5", "--seed", "3", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0].isdigit():
            lz, plz, cplz = int(parts[2]), int(parts[4]), int(parts[6])
            assert cplz <= plz <= lz


def test_intersect_rejects_zero_trials(capsys):
    assert main(["intersect", "--dim", "5", "--trials", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--trials must be at least 1, got 0" in err


def _readme_usage() -> dict[str, str]:
    """The README's "Command line" block as {subcommand: its usage text}."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    usage: dict[str, str] = {}
    command = None
    for line in block.strip().splitlines():
        words = line.split()
        if words[0] == "logiczono":
            command, line = words[1], " ".join(words[2:])
        usage[command] = usage.get(command, "") + " " + line
    return usage


def test_readme_usage_matches_the_parser():
    # every flag the README shows exists on its subcommand with the listed
    # choices, and every flag the parser takes is shown
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    usage = _readme_usage()
    assert set(usage) == set(subparsers.choices)
    for command, text in usage.items():
        options = subparsers.choices[command]._option_string_actions
        shown = dict(re.findall(r"(--[\w-]+)(?: ([^\s\[\]-][^\s\[\]]*))?", text))
        assert set(shown) == {flag for flag in options if flag.startswith("--")} - {"--help"}, command
        for flag, value in shown.items():
            listed = value.split("|") if "|" in value else None
            choices = options[flag].choices
            assert listed == (list(choices) if choices else None), (command, flag)
