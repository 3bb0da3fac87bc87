import importlib.util
import json
import math
import shlex
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from quasimode import critical_points
from quasimode.params import _SLICE
from quasimode.tables import QUANTITIES

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


def test_diff_parent_argvs_are_seeded_and_cover_force_and_verify(monkeypatch):
    diff_parent = load_diff_parent(monkeypatch)
    argvs = diff_parent.argvs(400, 7)
    assert argvs == diff_parent.argvs(400, 7) != diff_parent.argvs(400, 8)
    texts = [" ".join(argv) for argv in argvs]
    assert {argv[0] for argv in argvs} == {"figures", "force", "spectrum", "sweep", "verify"}
    assert {tuple(argv) for argv in argvs if argv[0] == "figures"} == {
        ("figures",), ("figures", "--outdir=figures/a"), ("figures", "--outdir=figures/a/b"),
    }
    for part in ("--at-minimum", "--omega=", "--scaling=frozen", "--ref-d=", "--format=json"):
        assert any(part in text and text.startswith("force") for text in texts), part
    counts = [int(option.split(":")[2]) for argv in argvs for option in argv
              if option.startswith(("--omega=", "--d=")) and option.count(":") >= 2
              and option.split(":")[2].isdigit()]
    assert any(count > 1024 for count in counts) and any(count > 2048 for count in counts)

    verify = [dict(option.split("=", 1) for option in argv[1:] if option.startswith("--")
                   and option[2:4] != "p=")
              for argv in argvs if argv[0] == "verify"]
    momenta = [option[4:].split(",") for argv in argvs if argv[0] == "verify"
               for option in argv if option.startswith("--p=")]
    assert 60 <= len(verify) <= 140 and {} in verify  # {}: the default run
    xis = {xi for options in verify for xi in options.get("--xi", "").split(",") if xi}
    assert {"0", "1"} < xis
    assert [0.0, 0.0] in [[float(major), float(minor)] for major, minor, _ in momenta]
    assert any(float(major) != 0.0 and float(minor) == 0.0 for major, minor, _ in momenta)
    assert any(float(major) * float(minor) != 0.0 for major, minor, _ in momenta)
    caps = [int(options.get("--cutoff-cap", 1024)) for options in verify]
    assert 0 < sum(cap > 256 for cap in caps) and max(caps) == 1024
    # A minority climb above 256, about 27%: counted on argvs drawn by
    # verify_argv alone, since the verify argvs above are too few to hold
    # their share under 1/3 whatever the draws of the other argvs before them.
    rng = random.Random(7)
    caps = [dict(option.split("=") for option in diff_parent.verify_argv(rng)
                 if option.startswith("--cutoff-cap=")).get("--cutoff-cap", "1024")
            for _ in range(2000)]
    assert 0.2 < sum(int(cap) > 256 for cap in caps) / len(caps) < 1 / 3

    def fails(options):
        omegas = options.get("--omega", "1").split(",")
        start = int(options.get("--cutoff-start", 64))
        return ("nan" in omegas or any(float(w) < 1e-160 for w in omegas)
                or int(options.get("--levels", 5)) > start / 4
                or int(options.get("--cutoff-cap", 1024)) < start)

    assert 0.2 < sum(map(fails, verify)) / len(verify) < 0.45


def test_diff_parent_sweep_argvs_cover_every_table_and_edge(monkeypatch):
    diff_parent = load_diff_parent(monkeypatch)
    argvs = [argv for argv in diff_parent.argvs(1000, 7) if argv[0] in ("sweep", "spectrum")]
    assert {argv[1] for argv in argvs if argv[0] == "sweep"} == set(QUANTITIES)
    argvs = [argv for argv in argvs if argv[:2] != ["sweep", "force"]]
    options = [dict(option.split("=", 1) for option in argv if option.startswith("--"))
               for argv in argvs]
    assert any("," in o["--n"] for argv, o in zip(argvs, options) if argv[0] == "spectrum")
    reduced = [o for argv, o in zip(argvs, options) if argv[1] in diff_parent.REDUCED]
    assert {o.get("--units", "reduced") for o in reduced} == {"reduced", "atomic"}
    assert {o.get("--format", "csv") for o in options} == {"csv", "json"}
    xis = {xi for o in options for xi in o["--xi"].split(",")}
    assert {"0", "1"} < xis
    grids = [o.get("--k", o.get("--omega")) for o in options]
    assert sum(grid in diff_parent.OVERFLOWING_LOG_GRIDS for grid in grids) > 20
    ranges = [grid.split(":") for grid in grids if grid and grid.count(":") in (2, 3)]
    assert any(len(r) == 3 for r in ranges) and any(r[3:] == ["log"] for r in ranges)
    counts = [int(r[2]) for r in ranges if r[2].isdigit()]
    assert any(1000 < count < 1050 for count in counts) and any(count > 2048 for count in counts)
    lists = [grid.split(",") for grid in grids if grid and ":" not in grid]
    assert any(len(points) == 1 for points in lists) and any(len(points) > 30 for points in lists)

    def hits(o, axis, xi):
        """Whether the grid holds every critical point of xi on the axis, as
        the package computes them, and y = 1 on the omega axis."""
        cp = critical_points(float(xi))
        points = [cp.k_star] if axis == "k" else [1.0, cp.omega_tilde, cp.omega_star]
        return f"--{axis}" in o and set(map(repr, points)) <= set(o[f"--{axis}"].split(","))

    for axis in ("k", "omega"):
        hit = {xi for o in options for xi in o["--xi"].split(",") if hits(o, axis, xi)}
        assert len(hit) > 5 and {"0", "1"} < hit, axis


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
    formula = "force = numer / denom * photons / g.d\n"
    assert text.count(formula) == 1
    plates.write_text(text.replace(formula, "force = 2.0 * numer / denom * photons / g.d\n"))
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
def test_diff_parent_reports_a_figure_change_on_the_figures_argvs(tmp_path, monkeypatch):
    diff_parent = load_diff_parent(monkeypatch)
    planted = tmp_path / "planted"
    diff_parent.export("HEAD", planted)
    figures = planted / "src" / "quasimode" / "figures.py"
    text = figures.read_text()
    # moves the last point of the energy surface's omega grid, and nothing else
    grid = "_W_GRID = np.linspace(0.1, 3.0, 30)\n"
    assert text.count(grid) == 1
    figures.write_text(text.replace(grid, "_W_GRID = np.linspace(0.1, 3.1, 30)\n"))
    done, summary = run_diff_parent(tmp_path, planted, 40, 3)
    assert done.returncode == 1
    expected = [argv for argv in diff_parent.argvs(40, 3) if argv[0] == "figures"]
    assert expected and [entry["argv"] for entry in summary["differences"]] == expected
    for entry in summary["differences"]:
        parent, change = entry["parent"], entry["change"]
        assert parent["code"] == change["code"] == 0 and parent["stdout"] == change["stdout"]
        assert parent["stdout"].count(".csv\n") == 6 and parent["sha256"] != change["sha256"]


@pytest.mark.skipif(not git_tree(), reason="needs a git checkout")
def test_diff_parent_reports_an_oracle_change_of_one_ulp(tmp_path, monkeypatch):
    diff_parent = load_diff_parent(monkeypatch)
    planted = tmp_path / "planted"
    diff_parent.export("HEAD", planted)
    fock = planted / "src" / "quasimode" / "fock.py"
    text = fock.read_text()
    # moves every oracle eigenvalue up by one unit in the last place
    formula = "return [float(v) for v in levels]\n"
    assert text.count(formula) == 1
    fock.write_text(text.replace(formula, "return [math.nextafter(v, math.inf) for v in levels]\n"))
    done, summary = run_diff_parent(tmp_path, planted, 40, 3)
    assert done.returncode == 1
    differing = {tuple(entry["argv"]) for entry in summary["differences"]}
    reports = {tuple(entry["argv"]) for entry in summary["differences"]
               if entry["parent"]["code"] in (0, 1) and entry["parent"]["sha256"]
               != entry["change"]["sha256"]}
    verify = {tuple(argv) for argv in diff_parent.argvs(40, 3) if argv[0] == "verify"}
    assert differing and differing == reports <= verify


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


def grid_points(grid):
    """The number of points of a grid option's value: a range's count or a
    list's length."""
    parts = grid.split(":")
    return int(parts[2]) if len(parts) in (3, 4) and parts[2].isdigit() else len(grid.split(","))


def test_diff_parent_tables_cross_the_slice_boundary(monkeypatch):
    """About one in ten sweep, spectrum and force tables has 8,180 to 24,600
    points per xi, one to four table blocks of _SLICE points, and some of
    their comma grids hold a bad point past the first slice."""
    diff_parent = load_diff_parent(monkeypatch)
    assert diff_parent.SLICE == _SLICE and diff_parent.SLICED == (8180, 24600)
    tables = [argv for argv in diff_parent.argvs(1000, 7) if argv[0] in ("sweep", "spectrum")
              or (argv[0] == "force" and "--at-minimum" not in argv)]
    sliced, kinds, late_faults = 0, set(), 0
    for argv in tables:
        options = dict(option.split("=", 1) for option in argv if option.startswith("--")
                       and "=" in option)
        grids = [options[name] for name in ("--k", "--omega", "--d") if name in options
                 and not (argv[0] == "sweep" and name == "--d")]
        points = math.prod(grid_points(grid) for grid in grids)
        if diff_parent.SLICED[0] <= points <= diff_parent.SLICED[1]:
            sliced += 1
            kinds.add(argv[1] if argv[0] == "sweep" else argv[0])
            for grid in grids:
                values = grid.split(",")
                late_faults += any(value in diff_parent.BAD_POINTS
                                   for value in values[diff_parent.SLICE:])
    assert 0.05 < sliced / len(tables) < 0.15
    assert kinds == {*QUANTITIES, "spectrum", "force"}
    assert late_faults > 5
