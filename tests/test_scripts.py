import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GATES = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


@pytest.mark.parametrize("script,args", [
    ("polarization_study.py", ["--count", "3"]),
])
def test_script_runs(script, args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def load_bench_pairs():
    path = ROOT / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("parent,change,better,unresolved", [
    # spreads of 0.1 under a bound of 0.25
    ([9.5, 10.0, 10.5, 10.0] * 3, [9.6, 10.1, 10.6, 10.1] * 3, "lower", False),
    # the parent's spread is 0.4, and the runs overlap
    ([8.0, 10.0, 12.0, 10.0] * 3, [8.5, 10.5, 12.5, 10.5] * 3, "lower", True),
    # the same spread, but every change run beats every parent run
    ([8.0, 10.0, 12.0, 10.0] * 3, [3.0, 4.0, 5.0, 4.0] * 3, "lower", False),
    ([8.0, 10.0, 12.0, 10.0] * 3, [3.0, 4.0, 5.0, 4.0] * 3, "higher", True),
    # the change's own spread is the wide one
    ([10.0] * 12, [5.0, 10.0, 15.0, 10.0] * 3, "higher", True),
])
def test_summary_reports_spread_wider_than_bound_as_unresolved(parent, change, better, unresolved):
    result = load_bench_pairs().summary(parent, change, better, 0.25)
    assert result["unresolved"] is unresolved
    q1, q3 = result["parent"]["q1"], result["parent"]["q3"]
    assert result["parent"]["spread"] == pytest.approx((q3 - q1) / result["parent"]["median"])


def test_summary_of_recorded_pairs():
    # sweep-atomic-json op_p50_ms in BENCH_9.json: a parent spread of 0.28
    # against a bound of 0.25
    runs = json.loads((ROOT / "BENCH_9.json").read_text())["workloads"]["sweep-atomic-json"]["runs"]
    parent, change = ([r["metrics"]["op_p50_ms"] for r in runs[s]] for s in ("parent", "change"))
    result = load_bench_pairs().summary(parent, change, "lower", 0.25)
    assert result["parent"]["spread"] == pytest.approx(0.283, abs=1e-3)
    assert result["unresolved"] is True
    assert result["worse_than_bound"] is False and result["change_wins"] == 9


def test_compile_tree_writes_bytecode_of_src_and_bench(tmp_path):
    for name in ("src/pkg/mod.py", "bench/run.py"):
        (tmp_path / name).parent.mkdir(parents=True)
        (tmp_path / name).write_text("X = 1\n")
    load_bench_pairs().compile_tree(tmp_path)
    for directory in ("src/pkg", "bench"):
        assert list((tmp_path / directory / "__pycache__").glob("*.pyc")), directory


def test_both_trees_are_compiled_before_the_first_pair(tmp_path, monkeypatch):
    bench_pairs = load_bench_pairs()
    calls = []
    monkeypatch.setattr(bench_pairs, "export", lambda rev, into: "0" * 40)
    monkeypatch.setattr(bench_pairs, "compile_tree", lambda tree: calls.append(("compile", tree)))

    def run_once(tree, workload, seed, seconds):
        calls.append(("run", tree))
        return {"metrics": {name: 1.0 for name in GATES}, "attempted": 1, "failed": 0, "env": {}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--parent", "HEAD", "--pairs", "2",
                                      "--workload", "verify-oracle",
                                      "--out", str(tmp_path / "pairs.json")])
    assert bench_pairs.main() == 0
    compiled = {tree for kind, tree in calls[:2] if kind == "compile"}
    assert len(compiled) == 2 and bench_pairs.ROOT in compiled
    assert [kind for kind, _ in calls] == ["compile"] * 2 + ["run"] * 4
    assert {tree for _, tree in calls[2:]} == compiled
