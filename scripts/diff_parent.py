#!/usr/bin/env python3
"""Byte differential of the CLI against a parent revision.

Usage, from the repository root:

    python3 scripts/diff_parent.py --parent HEAD~1 --count 3000 --seed 1 --out diff.json

The parent revision is exported and compiled as `bench_pairs.py` does; the
change is the working tree, or the tree given by `--tree`.  The same
seeded argvs run through `quasimode.cli.main` in one long-lived worker per
tree, each with its own `--out` file.  For each argv the exit code, stdout,
stderr and the sha256 of the output file are compared; for `figures`, that
of every file under its `--outdir`, with their paths.

The JSON summary holds both sides' counts per exit code, the change's total
output bytes, and every argv that differs with both sides' results.  The
command exits 1 if any argv differs, and 2, naming the argv, if a worker
dies.

Two in five argvs are `force` (both modes and scalings) and `sweep force`
tables, CSV and JSON, over grids of 1 to 2,100 points around the 1,024 rows
of an output chunk.  About half of them carry an input that should fail: a
bad or extreme plate input, a mode frequency of 0 or one whose square
overflows, or a malformed option.

Two in five are tables of the other six `sweep` quantities and of the
`spectrum` command, CSV and JSON, in reduced and atomic units, with xi in
{0, 1, interior}, over linear, log and comma grids of the same sizes with
values from 1e-12 to 1e17.  Among them are log grids whose last points
overflow, and comma grids that hit y = 1 and the critical points (omega~,
omega* and k*) exactly.  About a third should fail: a bad grid point (0 in
a k grid at xi > 0, a negative, tiny, huge or nan value), a malformed grid,
the wrong axis, or an extreme omega_p, mass, hbar, c or level.

About one in ten of the `sweep`, `spectrum` and `force` tables instead has
8,180 to 24,600 points per xi (for `force --omega`, separations times
mode frequencies), so that it spans one to four table blocks, slices of
8,192 points; some of their grids are comma lists with a bad point past
the first slice.

One in twenty argvs is `figures` (the shares above and below are of the
others), with its default `--outdir` or one nested in it.  Both trees run
in the same directory, so the paths it prints match.

The rest are `verify` runs: the default grid, or xi in {0, 1, interior}
with momenta at rest in the polarization plane, with p_minor = 0, or
general, so that both of the oracle's solvers run.  Most cap the cutoff at
256; a minority climb to 512 or 1024.  About a third should fail: a nan
mode frequency, one whose square underflows, more levels than the starting
cutoff/4, or a cap below the starting cutoff.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import math
import os
import random
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, compile_tree, export, git

# Runs argvs read as JSON lines from stdin through cli.main in-process and
# writes one JSON line of results per argv.  figures writes under its
# --outdir, "figures" or a directory in it, relative to the working
# directory: every file there is hashed, with its path, and removed.
WORKER = r"""
import contextlib, hashlib, io, json, os, shutil, sys
from pathlib import Path
from quasimode.cli import main

out = sys.argv[1]
for line in sys.stdin:
    argv = json.loads(line)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv if argv[0] == "figures" else [*argv, f"--out={out}"])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
    data = digest = size = None
    if argv[0] == "figures":
        files = sorted(path for path in Path("figures").rglob("*") if path.is_file())
        if files:
            data = b"".join(b"%s\0%d\0%s" % (str(path).encode(), path.stat().st_size,
                                               path.read_bytes()) for path in files)
        shutil.rmtree("figures", ignore_errors=True)
    elif os.path.exists(out):
        data = Path(out).read_bytes()
        os.remove(out)
    if data is not None:
        digest, size = hashlib.sha256(data).hexdigest(), len(data)
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


# The most points of a table block (quasimode.params._SLICE), and the grid
# sizes (points per xi) of the tables that span one to four blocks.
SLICE = 8192
SLICED = (SLICE - 12, 3 * SLICE + 24)


def _sliced_count(rng: random.Random, share: int = 1) -> int:
    """A count of points whose product with share lies in SLICED."""
    return rng.randint(-(-SLICED[0] // share), SLICED[1] // share)


def _sliced_grid(rng: random.Random, count: int) -> str:
    """A grid of count points: a range, or in a third of them a comma list
    of values near 1 with a bad point, which should fail there: past the
    first slice if count is more than one slice, else the last point."""
    if rng.random() < 2 / 3:
        return _grid(rng, count, zero=False)
    points = [repr(round(rng.uniform(0.05, 5.0), 4)) for _ in range(count)]
    points[rng.randrange(min(SLICE, count - 1), count)] = rng.choice(BAD_POINTS)
    return ",".join(points)


def _grid(rng: random.Random, count: int, zero: bool = True) -> str:
    """A list of count values, or a start:stop:count[:log] range, which may
    start at 0 if zero is set."""
    if count < 2 or (count <= 60 and rng.random() < 0.5):
        return ",".join(_value(rng) for _ in range(count))
    starts = [10.0 ** rng.uniform(-12.0, 0.0), rng.uniform(0.05, 1.0)]
    start = rng.choice([0.0, *starts] if zero else starts)
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
    sliced = rng.random() < 0.1
    if sweep:
        options["--omega"] = (_sliced_grid(rng, _sliced_count(rng)) if sliced
                              else _grid(rng, _count(rng, True)))
        if rng.random() < 0.5:
            options["--d"] = _value(rng)
    elif sliced and at_minimum:
        options["--d"] = _grid(rng, _sliced_count(rng), zero=False)
    elif sliced:
        # a product of more than one slice; only omega holds a bad point,
        # since a bad separation fails before any point is evaluated
        few = rng.randint(1, 6)
        options["--d"] = _grid(rng, few, zero=False)
        options["--omega"] = _sliced_grid(rng, _sliced_count(rng, few))
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


REDUCED = ("dispersion", "wavenumber", "dielectric", "reflectivity", "velocity")
K_SWEPT = ("dispersion", "velocity")
# Log grids up to the largest float: the last points of most of them overflow.
OVERFLOWING_LOG_GRIDS = [f"{start}:1.7976931348623157e308:{count}:log"
                         for start in ("1", "1e300", "0.5") for count in (3, 1030, 2100)]
# Values a sweep option takes when it is meant to fail, or to sit at an edge.
SWEEP_BAD = {
    "--omega-p": ["0", "-1", "1e-300", "1e200", "nan"],
    "--mass": ["0", "-1", "1e-300", "1e300"],
    "--hbar": ["0", "-1", "1e-300", "1e300"],
    "--c": ["0", "-1", "1e-300", "1e300"],
    "--charges": ["0", "-1", HUGE_INT],
    "--n": ["-1", "1000000"],
}


def _critical(xi: float, axis: str) -> list[float]:
    """The critical points of the dispersion at xi, as the package computes
    them: k* on the k axis, omega~ and omega* (and y = 1) on the omega axis."""
    one_plus = 1.0 + xi * xi
    if axis == "k":
        return [math.sqrt(xi / one_plus)]
    return [1.0, (1.0 - xi) / math.sqrt(one_plus), (1.0 + xi) / math.sqrt(one_plus)]


def _sweep_grid(rng: random.Random, xi: str, axis: str) -> str:
    """A grid of 1 to 2,100 points: a range, a list, a list that hits the
    critical points of xi's values, or a log grid that overflows; or one of
    more than one slice (_sliced_grid)."""
    if rng.random() < 0.1:
        return _sliced_grid(rng, _sliced_count(rng))
    kind = rng.random()
    if kind < 0.1:
        return rng.choice(OVERFLOWING_LOG_GRIDS)
    if kind < 0.35:
        points = [value for v in xi.split(",") for value in _critical(float(v), axis)]
        points += [float(_value(rng)) for _ in range(rng.randint(0, 5))]
        rng.shuffle(points)
        return ",".join(map(repr, points))
    return _grid(rng, _count(rng, True), zero=rng.random() < 0.2)


def sweep_argv(rng: random.Random) -> list[str]:
    """One seeded `sweep` argv of a quantity other than the force, or a
    `spectrum` argv; about a third are meant to fail."""
    quantity = rng.choice([*REDUCED, "spectrum", "spectrum-command"])
    spectrum = quantity.startswith("spectrum")
    axis = "k" if quantity in K_SWEPT else "omega"
    xi = _xi(rng)
    options = {"--xi": xi, f"--{axis}": _sweep_grid(rng, xi, axis)}
    if spectrum or rng.random() < 0.3:
        options["--omega-p"] = _frequency(rng)
        if not spectrum:
            options["--units"] = "atomic"
        for name in ("--c", "--mass", "--hbar") if spectrum else ("--c",):
            if rng.random() < 0.3:
                options[name] = _value(rng)
    if spectrum:
        options["--p"] = _momentum(rng)
        levels = [str(rng.randint(0, 5)) for _ in range(rng.randint(1, 3))]
        options["--n"] = ",".join(levels) if quantity == "spectrum-command" else levels[0]
        if rng.random() < 0.3:
            options["--charges"] = str(rng.randint(1, 5))
    if rng.random() < 0.5:
        options["--format"] = "json"
    if rng.random() < 1 / 3:
        kind = rng.random()
        if kind < 0.5:
            points = [p for p in options[f"--{axis}"].split(",") if ":" not in p] or [_value(rng)]
            points.insert(rng.randint(0, len(points)), rng.choice(["0", *BAD_POINTS]))
            options[f"--{axis}"] = ",".join(points)
        elif kind < 0.65:
            options[f"--{axis}"] = rng.choice(MALFORMED_GRIDS)
        elif kind < 0.75 and not spectrum:
            options[f"--{'omega' if axis == 'k' else 'k'}"] = options.pop(f"--{axis}")
        else:
            name = rng.choice([n for n in SWEEP_BAD if spectrum or n in ("--omega-p", "--c")])
            options[name] = rng.choice(SWEEP_BAD[name])
            if not spectrum:
                options["--units"] = "atomic"
    command = ["spectrum"] if quantity == "spectrum-command" else ["sweep", quantity]
    return [*command, *(f"{name}={value}" for name, value in options.items())]


def _frequency(rng: random.Random) -> str:
    """A mode or plasma frequency near 1, or log-uniform over 1e-3 ... 1e3."""
    if rng.random() < 0.5:
        return repr(round(rng.uniform(0.2, 3.0), 3))
    return f"{10.0 ** rng.uniform(-3.0, 3.0):.6g}"


def _momentum(rng: random.Random) -> str:
    """At rest in the polarization plane, with p_minor = 0, or general."""
    kind = rng.randrange(3)
    major = round(rng.uniform(-1.0, 1.0), 3) if kind > 0 else 0.0
    minor = round(rng.uniform(-1.0, 1.0), 3) if kind > 1 else 0.0
    perp = round(rng.uniform(-1.0, 1.0), 3) if rng.random() < 0.5 else 0.0
    return f"{major!r},{minor!r},{perp!r}"


def verify_argv(rng: random.Random) -> list[str]:
    """One seeded `verify` argv; about a third are meant to fail."""
    if rng.random() < 0.1:
        return ["verify"]  # the default grid, capped at 1,024
    start = rng.choice([8, 16, 32, 64])
    options = {
        "--xi": ",".join(rng.choice(["0", "1", repr(round(rng.uniform(0.0, 1.0), 4))])
                         for _ in range(rng.randint(1, 2))),
        "--omega": _frequency(rng),
        "--omega-p": _frequency(rng),
        "--levels": str(rng.randint(1, start // 4)),
        "--cutoff-start": str(start),
    }
    if rng.random() < 0.2:
        cap = rng.choice(["512", "1024", None])  # None: the default, 1,024
    else:
        cap = str(rng.choice([c for c in (8, 16, 32, 64, 128, 256) if c >= start]))
    if cap is not None:
        options["--cutoff-cap"] = cap
    if rng.random() < 0.3:
        options["--tol"] = rng.choice(["1e-3", "1e-9", "1e-12"])
    if rng.random() < 1 / 3:
        kind = rng.randrange(4)
        if kind < 2:
            bad = "nan" if kind == 0 else f"{10.0 ** -rng.uniform(162.0, 200.0):.3g}"
            values = [options["--omega"]]
            values.insert(rng.randint(0, 1), bad)
            options["--omega"] = ",".join(values)
        elif kind == 2:
            options["--levels"] = str(start // 4 + rng.randint(1, 4))
        else:
            options["--cutoff-cap"] = str(rng.randint(1, start - 1))
    momenta = [f"--p={_momentum(rng)}" for _ in range(rng.randint(0, 2))]
    return ["verify", *(f"{name}={value}" for name, value in options.items()), *momenta]


def figures_argv(rng: random.Random) -> list[str]:
    """A `figures` argv, writing to its default --outdir or to one nested in it."""
    outdir = rng.choice([None, "figures/a", "figures/a/b"])
    return ["figures"] if outdir is None else ["figures", f"--outdir={outdir}"]


def argvs(count: int, seed: int) -> list[list[str]]:
    """count seeded argvs.  The kind of each is drawn from a stream of its
    own, so that a change to how one kind is drawn leaves the mix of kinds
    as it was."""
    rng = random.Random(f"diff_parent/{seed}")
    kind_rng = random.Random(f"diff_parent/{seed}/kinds")
    kinds = [verify_argv, force_argv, force_argv, sweep_argv, sweep_argv]
    return [(figures_argv if kind_rng.random() < 0.05 else kind_rng.choice(kinds))(rng)
            for _ in range(count)]


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
