#!/usr/bin/env python3
"""Byte differential of the CLI against a parent revision.

Usage, from the repository root:

    python3 scripts/diff_parent.py --parent HEAD~1 --count 3000 --seed 1 --out diff.json

The parent revision is exported and compiled as `bench_pairs.py` does; the
change is the working tree, or the tree given by `--tree`.  The same
seeded argvs run through `quasimode.cli.main` in one long-lived worker per
tree, each with its own `--out` file.  For each argv the exit code, stdout,
stderr and the sha256 of the output file are compared.

The JSON summary holds both sides' counts per exit code, the change's total
output bytes, and every argv that differs with both sides' results.  The
command exits 1 if any argv differs, and 2, naming the argv, if a worker
dies.

The argvs are `force` (both modes and scalings) and `sweep force` tables,
CSV and JSON, over grids of 1 to 2,100 points around the 1,024 rows of an
output chunk.  About half of them carry an input that should fail: a bad or
extreme plate input, a mode frequency of 0 or one whose square overflows,
or a malformed option.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import os
import random
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, compile_tree, export, git

# Runs argvs read as JSON lines from stdin through cli.main in-process and
# writes one JSON line of results per argv.
WORKER = r"""
import contextlib, hashlib, io, json, os, sys
from quasimode.cli import main

out = sys.argv[1]
for line in sys.stdin:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main([*json.loads(line), f"--out={out}"])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
    digest = size = None
    if os.path.exists(out):
        with open(out, "rb") as f:
            data = f.read()
        digest, size = hashlib.sha256(data).hexdigest(), len(data)
        os.remove(out)
    print(json.dumps({"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
                      "sha256": digest, "bytes": size}), flush=True)
"""

HUGE_INT = "1" + "0" * 400  # no float holds it
BIG_INT = "1" + "0" * 308  # a float holds it, but not 1 + 2n

# Values an option takes when it is meant to fail, or to sit at an edge.
BAD = {
    "--d": ["-1", "0", "1e-300", "1e300", "nan", "inf"],
    "--area": ["-1", "0", "1e-200", "1e300", "nan"],
    "--charge": ["-1", "0", "1e-170", "1e200", "inf"],
    "--mass": ["-1", "0", "1e-200", "1e300"],
    "--hbar": ["0", "-1", "1e-300", "1e200"],
    "--charges": ["-1", "0", HUGE_INT, BIG_INT, "2.5"],
    "--n-photons": ["-1", HUGE_INT, BIG_INT],
    "--ref-d": ["-1", "0", "1e-300", "nan"],
}
BAD_POINTS = ["0", "-1", "1e-160", "1e160", "1e-310", "nan"]
MALFORMED_GRIDS = ["1:2", "1,a", "2:1:5", "1:2:1", "0:1:5:log", "1:2:5:cubic", ""]


def _value(rng: random.Random) -> str:
    """A positive value, log-uniform over 1e-12 ... 1e17 or near 1."""
    if rng.random() < 0.5:
        return repr(round(rng.uniform(0.05, 5.0), 4))
    return f"{10.0 ** rng.uniform(-12.0, 17.0):.6g}"


def _count(rng: random.Random, large: bool) -> int:
    if not large:
        return rng.choice([1, 2, 3, rng.randint(1, 6)])
    return rng.choice([rng.randint(1, 60), rng.randint(1000, 1050), rng.randint(2040, 2100)])


def _grid(rng: random.Random, count: int) -> str:
    """A list of count values, or a start:stop:count[:log] range."""
    if count < 2 or (count <= 60 and rng.random() < 0.5):
        return ",".join(_value(rng) for _ in range(count))
    start = rng.choice([0.0, 10.0 ** rng.uniform(-12.0, 0.0), rng.uniform(0.05, 1.0)])
    stop = start + 10.0 ** rng.uniform(-1.0, 3.0)
    log = start > 0.0 and rng.random() < 0.5
    return f"{start!r}:{stop!r}:{count}" + (":log" if log else "")


def _xi(rng: random.Random) -> str:
    values = [rng.choice(["0", "1", repr(round(rng.uniform(0.0, 1.0), 4))])
              for _ in range(rng.randint(1, 3))]
    return ",".join(values)


def force_argv(rng: random.Random) -> list[str]:
    """One seeded `force` or `sweep force` argv; about half are meant to fail."""
    sweep = rng.random() < 0.4
    options = {"--xi": _xi(rng)}
    for name in ("--area", "--charge", "--mass", "--hbar"):
        if rng.random() < 0.4:
            options[name] = _value(rng)
    for name in ("--charges", "--n-photons"):
        if rng.random() < 0.4:
            options[name] = str(rng.randint(0 if name == "--n-photons" else 1, 5))
    at_minimum = not sweep and rng.random() < 0.5
    if sweep:
        options["--omega"] = _grid(rng, _count(rng, True))
        if rng.random() < 0.5:
            options["--d"] = _value(rng)
    else:
        many_d = at_minimum or rng.random() < 0.5
        options["--d"] = _grid(rng, _count(rng, many_d))
        if not at_minimum:
            options["--omega"] = _grid(rng, _count(rng, not many_d))
        if rng.random() < 0.4:
            options["--scaling"] = "frozen"
            if rng.random() < 0.5:
                options["--ref-d"] = _value(rng)
    flags = ["--at-minimum"] if at_minimum else []
    if rng.random() < 0.5:
        options["--format"] = "json"
    if rng.random() < 0.5:
        _spoil(rng, options, flags, sweep)
    command = ["sweep", "force"] if sweep else ["force"]
    return [*command, *(f"{name}={value}" for name, value in options.items()), *flags]


def _spoil(rng: random.Random, options: dict, flags: list, sweep: bool) -> None:
    """Give the argv an input that should fail, or an edge value."""
    kind = rng.random()
    grids = [name for name in ("--omega", "--d") if name in options and not (sweep and name == "--d")]
    if kind < 0.5:
        name = rng.choice([n for n in BAD if n != "--ref-d" or "--scaling" in options])
        options[name] = rng.choice(BAD[name])
    elif kind < 0.8:
        name = rng.choice(grids)
        points = [p for p in options[name].split(",") if ":" not in p] or [_value(rng)]
        points.insert(rng.randint(0, len(points)), rng.choice(BAD_POINTS))
        options[name] = ",".join(points)
    elif kind < 0.9:
        options[rng.choice(grids)] = rng.choice(MALFORMED_GRIDS)
    elif sweep:
        options.pop("--omega")
    elif flags:
        options["--omega"] = _value(rng)  # with --at-minimum
    else:
        options.pop("--omega")  # neither --omega nor --at-minimum


def argvs(count: int, seed: int) -> list[list[str]]:
    rng = random.Random(f"diff_parent/{seed}")
    return [force_argv(rng) for _ in range(count)]


class WorkerDied(RuntimeError):
    """A worker gave no result for an argv, or exited with an error."""


def run_all(tree: Path, batch: list[list[str]], scratch: Path) -> list[dict]:
    """The results of the argvs in one worker on the tree's `src/`."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    out = scratch / f"out-{tree.name}"
    results = []
    with subprocess.Popen(
        [sys.executable, "-c", WORKER, str(out)], cwd=scratch, env=env, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    ) as worker:
        for argv in batch:
            try:
                worker.stdin.write(json.dumps(argv) + "\n")
                worker.stdin.flush()
                line = worker.stdout.readline()
            except BrokenPipeError:
                line = ""
            if not line:  # it died: its traceback, if any, is on stderr
                with contextlib.suppress(BrokenPipeError):
                    worker.stdin.close()  # drops what it holds for the dead worker
                raise WorkerDied(f"the worker on {tree} died running {shlex.join(argv)}")
            results.append(json.loads(line))
    if worker.returncode != 0:
        raise WorkerDied(f"the worker on {tree} exited with {worker.returncode}")
    return results


def compare(parent: Path, change: Path, batch: list[list[str]], scratch: Path) -> dict:
    sides = {"parent": run_all(parent, batch, scratch), "change": run_all(change, batch, scratch)}
    differences = [
        {"argv": argv, "parent": p, "change": c}
        for argv, p, c in zip(batch, sides["parent"], sides["change"]) if p != c
    ]
    return {
        "count": len(batch),
        "exit_codes": {side: dict(collections.Counter(str(r["code"]) for r in results))
                       for side, results in sides.items()},
        "bytes": sum(r["bytes"] or 0 for r in sides["change"]),
        "differences": differences,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--count", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="the tree of the change (default: the working tree)")
    parser.add_argument("--out", type=Path, default=None, help="JSON summary (default: stdout)")
    args = parser.parse_args()

    tree = args.tree.resolve()
    with tempfile.TemporaryDirectory(prefix=".diff_parent-", dir=ROOT) as tmp:
        parent_tree = Path(tmp) / "parent"
        sha = export(args.parent, parent_tree)
        for side in (parent_tree, tree):
            compile_tree(side)
        scratch = Path(tmp) / "scratch"
        scratch.mkdir()
        try:
            summary = compare(parent_tree, tree, argvs(args.count, args.seed), scratch)
        except WorkerDied as exc:
            print(f"diff_parent: {exc}", file=sys.stderr)
            return 2
    change = git("describe", "--always", "--dirty", "--abbrev=40") if tree == ROOT else str(tree)
    record = {"parent": sha, "change": change, "seed": args.seed, **summary}
    text = json.dumps(record, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    print(f"{len(summary['differences'])} of {args.count} argvs differ; exit codes "
          f"{summary['exit_codes']['change']}", file=sys.stderr)
    return 1 if summary["differences"] else 0


if __name__ == "__main__":
    sys.exit(main())
