#!/usr/bin/env python3
"""Alternating parent/change pairs of the end-to-end benchmark.

Usage, from the repository root:

    python3 scripts/bench_pairs.py --parent HEAD~1 --pairs 10 --seconds 25 --out BENCH_7.json

The parent revision is exported with `git archive` into a temporary
`.bench_pairs-*` directory of the repository, removed afterwards; the change
is the working tree.  Both trees' `src/` and `bench/` are compiled to
bytecode before the first pair, so neither side pays for it in a timed
run.  For each workload of `BENCHMARK.json` and each seed
1..N, both sides run `bench/run.py --workload W --seed S --seconds T
--trace 0` from their own tree; odd seeds run the parent first.  Both sides use their own `bench/`,
so compare only revisions whose benchmark code is the same.

The output file holds, per workload and end-to-end metric, each side's
median, quartiles and spread (interquartile distance over its own median),
the change's win count (ties count for neither), the relative change of the
median, and three verdicts: a claimable gain (wins in at least nine tenths
of the pairs, and medians further apart than the parent's interquartile
distance), a regression beyond the metric's bound, and unresolved (either
side's spread is wider than the bound, so a change within the bound cannot
be told from noise, unless every change run beats every parent run).  It
also holds every run's value, failed-operation count and `env` line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, into: Path) -> str:
    """Extract `rev` into `into`; returns its full SHA."""
    sha = git("rev-parse", rev)
    archive = into.parent / "parent.tar"
    with archive.open("wb") as f:
        subprocess.run(["git", "-C", str(ROOT), "archive", sha], check=True, stdout=f)
    with tarfile.open(archive) as tar:
        tar.extractall(into)
    archive.unlink()
    return sha


def compile_tree(tree: Path) -> None:
    """Write the bytecode of the tree's `src/` and `bench/`."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"],
                   cwd=tree, check=True, capture_output=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"], "env": env}


def side(values: list[float]) -> dict:
    """Median, quartiles and spread (interquartile distance over the median)
    of one side's runs."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0}


def summary(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0.0)
    p, c = side(parent), side(change)
    relative = (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
    separated = min(sign * v for v in change) > max(sign * v for v in parent)
    return {
        "parent": p,
        "change": c,
        "change_wins": wins,
        "pairs": len(parent),
        "median_relative_change": relative,
        "gain_claimable": wins >= 0.9 * len(parent)
        and sign * (c["median"] - p["median"]) > p["q3"] - p["q1"],
        "worse_than_bound": -sign * relative > bound,
        "unresolved": max(p["spread"], c["spread"]) > bound and not separated,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    gates = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    record = {"parent": None, "change": git("describe", "--always", "--dirty", "--abbrev=40"),
              "pairs": args.pairs,
              "seconds": args.seconds, "order": "odd seeds run the parent first",
              "workloads": {}}
    with tempfile.TemporaryDirectory(prefix=".bench_pairs-", dir=ROOT) as tmp:
        parent_tree = Path(tmp) / "parent"
        record["parent"] = export(args.parent, parent_tree)
        for tree in (parent_tree, ROOT):
            compile_tree(tree)
        for workload in workloads:
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for seed in range(1, args.pairs + 1):
                order = ["parent", "change"] if seed % 2 else ["change", "parent"]
                for side in order:
                    tree = parent_tree if side == "parent" else ROOT
                    runs[side].append(run_once(tree, workload, seed, args.seconds))
                    print(f"{workload} seed {seed} {side}: "
                          f"{json.dumps(runs[side][-1]['metrics'])}", file=sys.stderr)
            record["workloads"][workload] = {
                "metrics": {
                    name: summary([r["metrics"][name] for r in runs["parent"]],
                                  [r["metrics"][name] for r in runs["change"]],
                                  gate["better"], gate["bound"])
                    for name, gate in gates.items()
                },
                "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
                "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
                "runs": runs,
            }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
