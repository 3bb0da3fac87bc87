import importlib.util
import json
import shlex
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


def load_diff_parent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))  # it imports bench_pairs
    path = ROOT / "scripts" / "diff_parent.py"
    spec = importlib.util.spec_from_file_location("diff_parent", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_diff_parent_argvs_are_seeded_and_cover_the_force_tables(monkeypatch):
    diff_parent = load_diff_parent(monkeypatch)
    argvs = diff_parent.argvs(400, 7)
    assert argvs == diff_parent.argvs(400, 7) != diff_parent.argvs(400, 8)
    texts = [" ".join(argv) for argv in argvs]
    assert {argv[0] for argv in argvs} == {"force", "sweep"}
    assert all(argv[1] == "force" for argv in argvs if argv[0] == "sweep")
    for part in ("--at-minimum", "--omega=", "--scaling=frozen", "--ref-d=", "--format=json"):
        assert any(part in text and text.startswith("force") for text in texts), part
    counts = [int(option.split(":")[2]) for argv in argvs for option in argv
              if option.startswith(("--omega=", "--d=")) and option.count(":") >= 2
              and option.split(":")[2].isdigit()]
    assert any(count > 1024 for count in counts) and any(count > 2048 for count in counts)


def git_tree():
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
                          capture_output=True)
    return done.returncode == 0


def run_diff_parent(tmp_path, tree, count, seed):
    summary = tmp_path / "summary.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "diff_parent.py"), "--parent", "HEAD",
         "--tree", str(tree), "--count", str(count), "--seed", str(seed), "--out", str(summary)],
        capture_output=True, text=True, timeout=300,
    )
    return done, json.loads(summary.read_text()) if summary.exists() else None


@pytest.mark.skipif(not git_tree(), reason="needs a git checkout")
def test_diff_parent_of_head_against_head_finds_no_difference(tmp_path, monkeypatch):
    head = tmp_path / "head"
    load_diff_parent(monkeypatch).export("HEAD", head)
    done, summary = run_diff_parent(tmp_path, head, 40, 3)
    assert done.returncode == 0, done.stderr
    assert summary["differences"] == [] and summary["count"] == 40
    codes = summary["exit_codes"]
    assert codes["parent"] == codes["change"] and sum(codes["change"].values()) == 40
    assert {"0", "2", "3"} <= set(codes["change"])


@pytest.mark.skipif(not git_tree(), reason="needs a git checkout")
def test_diff_parent_reports_a_planted_change_with_its_argv(tmp_path, monkeypatch):
    diff_parent = load_diff_parent(monkeypatch)
    planted = tmp_path / "planted"
    diff_parent.export("HEAD", planted)
    plates = planted / "src" / "quasimode" / "plates.py"
    text = plates.read_text()
    # doubles every force at a mode frequency, and nothing else
    formula = "return numer / denom * photons / g.d\n"
    assert text.count(formula) == 1
    plates.write_text(text.replace(formula, "return 2.0 * numer / denom * photons / g.d\n"))
    done, summary = run_diff_parent(tmp_path, planted, 40, 3)
    assert done.returncode == 1
    differing = [tuple(entry["argv"]) for entry in summary["differences"]]
    assert differing
    for entry in summary["differences"]:
        parent, change = entry["parent"], entry["change"]
        assert parent["code"] == change["code"] == 0 and "--at-minimum" not in entry["argv"]
        assert parent["sha256"] != change["sha256"]
    assert set(differing) <= {tuple(argv) for argv in diff_parent.argvs(40, 3)}


@pytest.mark.skipif(not git_tree(), reason="needs a git checkout")
@pytest.mark.parametrize("where", ["argv", "import"])
def test_diff_parent_names_the_argv_a_worker_dies_on(where, tmp_path, monkeypatch):
    diff_parent = load_diff_parent(monkeypatch)
    planted = tmp_path / "planted"
    diff_parent.export("HEAD", planted)
    cli = planted / "src" / "quasimode" / "cli.py"
    # the worker exits without a result at the first --at-minimum argv, or
    # while importing the CLI
    crash = ("\n_main = main\n\ndef main(argv):\n"
             "    if '--at-minimum' in argv:\n        os._exit(5)\n    return _main(argv)\n"
             if where == "argv" else "\nos._exit(5)\n")
    cli.write_text(cli.read_text() + "\nimport os\n" + crash)
    done, summary = run_diff_parent(tmp_path, planted, 40, 3)
    assert done.returncode == 2 and summary is None
    argvs = diff_parent.argvs(40, 3)
    first = next(argv for argv in argvs if "--at-minimum" in argv) if where == "argv" else argvs[0]
    assert done.stderr == f"diff_parent: the worker on {planted} died running {shlex.join(first)}\n"
