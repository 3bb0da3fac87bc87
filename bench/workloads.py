"""Seeded operation generators for the benchmark workloads.

Every workload is a closed loop with one client.  A run replays *cycles*:
a cycle is the workload's fixed template of operation kinds and sizes,
filled with fresh values drawn from (workload, seed, cycle index) and
shuffled.  Every cycle has the same mix of sizes, so the latency
percentiles of a run do not depend on how many cycles fit into it.

Small sweep operations are sized by cost rather than by row count: their
target costs are spaced geometrically, so the sorted operation times form a
smooth ladder and a percentile never sits on a jump between two size
classes.  The per-point costs used for sizing were measured once on a
2-core x86-64 machine; they only shape the template and are not checked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

REDUCED_QUANTITIES = ("dispersion", "wavenumber", "dielectric", "reflectivity", "velocity")
K_SWEPT = frozenset({"dispersion", "velocity"})

# Microseconds per evaluated grid point, including rendering.
US_PER_POINT = {
    "dispersion": 9.0,
    "velocity": 11.0,
    "wavenumber": 34.0,
    "dielectric": 27.0,
    "reflectivity": 32.0,
    "sweep-spectrum": 28.0,
    "sweep-force": 17.0,
    "spectrum": 25.0,
    "force-min-frozen": 22.0,
    "force-omega": 17.0,
}

SMALL_OPS = 30
SMALL_MS_MIN = 3.0
SMALL_MS_MAX = 100.0
LARGE_ROWS = 100_000

# The CLI's verify defaults, which the generated verify calls rely on.
VERIFY_DEFAULTS = {"tol": 1e-6, "levels": 5, "cutoff_start": 64, "cutoff_cap": 1024}


@dataclass(frozen=True)
class Op:
    """One CLI call.  `args` is the argv without its output argument;
    `spec` holds the values the argv was built from, which the checker
    uses to predict the output."""

    kind: str
    args: tuple[str, ...]
    spec: dict

    def argv(self, out: str) -> list[str]:
        flag = "--outdir" if self.kind == "figures" else "--out"
        return [*self.args, f"{flag}={out}"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cycle: Callable[[random.Random], list[Op]]
    warmup: Callable[[random.Random], list[Op]]


def _small_targets_ms() -> list[float]:
    ratio = (SMALL_MS_MAX / SMALL_MS_MIN) ** (1.0 / (SMALL_OPS - 1))
    return [SMALL_MS_MIN * ratio**i for i in range(SMALL_OPS)]


def _points(kind: str, target_ms: float) -> int:
    return max(8, round(target_ms * 1000.0 / US_PER_POINT[kind]))


def _values(values) -> str:
    return ",".join(repr(v) for v in values)


def _grid_text(grid: dict) -> str:
    text = f"{grid['start']!r}:{grid['stop']!r}:{grid['count']}"
    return text + ":log" if grid["spacing"] == "log" else text


def _grid(rng: random.Random, count: int, start: tuple, stop: tuple,
          log: bool | None = None) -> dict:
    if log is None:
        log = rng.random() < 0.5
    return {
        "start": round(rng.uniform(*start), 4),
        "stop": round(rng.uniform(*stop), 4),
        "count": max(2, count),
        "spacing": "log" if log else "linear",
    }


def _xi_list(rng: random.Random) -> list[float]:
    """1-4 polarizations; the exact linear and circular ends appear often."""
    return [
        rng.choice((0.0, 1.0)) if rng.random() < 0.2 else round(rng.uniform(0.0, 1.0), 3)
        for _ in range(rng.randint(1, 4))
    ]


def _momentum(rng: random.Random) -> list[float]:
    return [round(rng.uniform(-0.5, 0.5), 3) for _ in range(3)]


# --- sweep-reduced-csv -------------------------------------------------------


def reduced_sweep(rng: random.Random, quantity: str, points: int) -> Op:
    """A reduced-unit CSV sweep whose grid crosses the evanescent, damped
    and traveling regimes (0.02-0.3 up to 1.8-3.5 in omega/omega_p, and the
    matching k range)."""
    xi = _xi_list(rng)
    axis = "k" if quantity in K_SWEPT else "omega"
    grid = _grid(rng, points // len(xi), (0.02, 0.3), (1.8, 3.5))
    spec = {"quantity": quantity, "units": "reduced", "format": "csv", "xi": xi, "grid": grid}
    args = ("sweep", quantity, f"--xi={_values(xi)}", f"--{axis}={_grid_text(grid)}",
            "--format=csv")
    return Op("sweep", args, spec)


def figures_op() -> Op:
    return Op("figures", ("figures",), {})


def sweep_reduced_cycle(rng: random.Random) -> list[Op]:
    ops = [
        reduced_sweep(rng, q, _points(q, ms))
        for q, ms in zip(REDUCED_QUANTITIES * SMALL_OPS, _small_targets_ms())
    ]
    ops.append(figures_op())
    ops.append(reduced_sweep(rng, "wavenumber", LARGE_ROWS // 2))
    return ops


def sweep_reduced_warmup(rng: random.Random) -> list[Op]:
    return [reduced_sweep(rng, q, 200) for q in REDUCED_QUANTITIES] + [figures_op()]


# --- sweep-atomic-json -------------------------------------------------------

ATOMIC_KINDS = ("sweep-spectrum", "sweep-force", "spectrum", "force-min-frozen", "force-omega")


def atomic_op(rng: random.Random, kind: str, points: int) -> Op:
    """One atomic-unit JSON table, through `sweep` or the separate
    `spectrum` / `force` subcommands."""
    xi = _xi_list(rng)
    charges = rng.randint(1, 3)
    if kind in ("sweep-spectrum", "spectrum"):
        levels = 1 if kind == "sweep-spectrum" else rng.randint(1, 3)
        n_list = [rng.randint(0, 3) for _ in range(levels)]
        grid = _grid(rng, points // (len(xi) * len(n_list)), (0.05, 0.5), (2.0, 5.0))
        spec = {"xi": xi, "grid": grid, "omega_p": round(rng.uniform(0.2, 2.0), 3),
                "p": _momentum(rng), "n": n_list, "charges": charges}
        common = (f"--xi={_values(xi)}", f"--omega={_grid_text(grid)}",
                  f"--omega-p={spec['omega_p']!r}", f"--p={_values(spec['p'])}",
                  f"--n={_values(n_list)}", f"--charges={charges}", "--format=json")
        if kind == "sweep-spectrum":
            return Op("sweep", ("sweep", "spectrum", *common),
                      {**spec, "quantity": "spectrum", "units": "atomic", "format": "json"})
        return Op("spectrum", ("spectrum", *common), spec)

    plates = {"area": round(rng.uniform(0.5, 4.0), 3), "charge": round(rng.uniform(0.5, 2.0), 3),
              "charges": charges, "n_photons": rng.randint(0, 2)}
    plate_args = (f"--area={plates['area']!r}", f"--charge={plates['charge']!r}",
                  f"--charges={charges}", f"--n-photons={plates['n_photons']}", "--format=json")
    if kind == "sweep-force":
        grid = _grid(rng, points // len(xi), (0.05, 0.5), (2.0, 6.0))
        spec = {"quantity": "force", "units": "atomic", "format": "json", "xi": xi,
                "grid": grid, "d": round(rng.uniform(0.5, 5.0), 3), **plates}
        return Op("sweep", ("sweep", "force", f"--xi={_values(xi)}",
                            f"--omega={_grid_text(grid)}", f"--d={spec['d']!r}", *plate_args), spec)
    if kind == "force-min-frozen":
        d_grid = _grid(rng, points // len(xi), (0.5, 2.0), (20.0, 100.0), log=True)
        spec = {"xi": xi, "d": d_grid, "omega": None, "scaling": "frozen", **plates}
        return Op("force", ("force", f"--xi={_values(xi)}", f"--d={_grid_text(d_grid)}",
                            "--at-minimum", "--scaling=frozen", *plate_args), spec)
    d_grid = _grid(rng, rng.randint(2, 3), (0.5, 2.0), (3.0, 10.0))
    omega_grid = _grid(rng, points // (len(xi) * d_grid["count"]), (0.05, 0.5), (2.0, 6.0))
    spec = {"xi": xi, "d": d_grid, "omega": omega_grid, "scaling": "recompute", **plates}
    return Op("force", ("force", f"--xi={_values(xi)}", f"--d={_grid_text(d_grid)}",
                        f"--omega={_grid_text(omega_grid)}", *plate_args), spec)


def sweep_atomic_cycle(rng: random.Random) -> list[Op]:
    ops = [
        atomic_op(rng, kind, _points(kind, ms))
        for kind, ms in zip(ATOMIC_KINDS * SMALL_OPS, _small_targets_ms())
    ]
    ops.append(atomic_op(rng, "sweep-spectrum", LARGE_ROWS))
    return ops


def sweep_atomic_warmup(rng: random.Random) -> list[Op]:
    return [atomic_op(rng, kind, 200) for kind in ATOMIC_KINDS]


# --- verify-oracle -----------------------------------------------------------

# Parameter classes by how far the cutoff ladder climbs (64 doubling up to
# the 1024 cap).  Convergence depends mostly on xi and omega/omega_p: the
# squeezing term grows as omega/omega_p shrinks and vanishes at xi = 1.
# Ranges were scanned so that every draw lands in its class.
VERIFY_CLASSES = {
    # name: (xi range, omega/omega_p range, expected exit code)
    "weak": ((0.0, 1.0), (0.5, 2.0), 0),          # converges at cutoff 64
    "climb-128": ((0.15, 0.25), (0.01, 0.05), 0),  # 64-128
    "climb-256": ((0.0, 0.0), (0.065, 0.1), 0),    # 256
    "climb-512": ((0.0, 0.0), (0.035, 0.05), 0),   # 512, so solves up to 1024
    "cap": ((0.0, 0.0), (0.005, 0.012), 1),        # never stabilizes: exit 1
}


def verify_op(rng: random.Random, cls: str) -> Op:
    """A `verify` call over the product of seeded xi, omega, omega_p and
    momentum lists, all drawn from one convergence class."""
    (xi_lo, xi_hi), (r_lo, r_hi), expect_exit = VERIFY_CLASSES[cls]
    weak = cls == "weak"
    xis = [round(rng.uniform(xi_lo, xi_hi), 3) for _ in range(rng.randint(1, 3) if weak else 1)]
    omega_p = round(rng.uniform(0.5, 2.0), 3)
    omegas = [round(rng.uniform(r_lo, r_hi) * omega_p, 5)
              for _ in range(rng.randint(1, 2) if weak else 1)]
    momenta = [_momentum(rng) if rng.random() < 0.5 else [0.0, 0.0, 0.0]
               for _ in range(rng.randint(1, 2) if weak else 1)]
    cases = [[xi, w, omega_p, p] for xi in xis for w in omegas for p in momenta]
    spec = {**VERIFY_DEFAULTS, "cases": cases, "expect_exit": expect_exit}
    args = ("verify", f"--xi={_values(xis)}", f"--omega={_values(omegas)}",
            f"--omega-p={omega_p!r}", *(f"--p={_values(p)}" for p in momenta))
    return Op("verify", args, spec)


def default_verify_op() -> Op:
    return Op("verify", ("verify",), {**VERIFY_DEFAULTS, "cases": "default", "expect_exit": 0})


def dense_solve_op(cutoff: int) -> Op:
    """One case solved once, at exactly `cutoff`: it cannot stabilize
    without a second cutoff, so it reports exit 1."""
    spec = {**VERIFY_DEFAULTS, "cases": [[0.5, 1.0, 0.5, [0.0, 0.0, 0.0]]], "expect_exit": 1,
            "cutoff_start": cutoff, "cutoff_cap": cutoff}
    return Op("verify", ("verify", "--xi=0.5", "--omega=1.0", "--omega-p=0.5",
                         f"--cutoff-start={cutoff}", f"--cutoff-cap={cutoff}"), spec)


def verify_cycle(rng: random.Random) -> list[Op]:
    # Two of ten operations climb to the 1024 cap, so p90 lies inside the
    # heavy group and p50 among the cheap ones.
    classes = ["weak", "weak", "climb-128", "climb-128", "climb-256", "climb-256",
               "climb-512", "cap"]
    return [default_verify_op(), default_verify_op()] + [verify_op(rng, c) for c in classes]


def verify_warmup(rng: random.Random) -> list[Op]:
    largest = VERIFY_DEFAULTS["cutoff_cap"]
    return [default_verify_op(), verify_op(rng, "weak"), dense_solve_op(largest)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-reduced-csv",
            "Reduced-unit CSV sweeps of the five wave quantities, figures and 1e5-row sweeps: "
            "kernel, row-assembly and CSV gains show here while fock sits idle.",
            sweep_reduced_cycle,
            sweep_reduced_warmup,
        ),
        Workload(
            "sweep-atomic-json",
            "Atomic-unit spectrum and force tables as JSON via sweep and the spectrum/force "
            "subcommands: a CSV-only gain, or one costing either duplicate CLI path, shows here.",
            sweep_atomic_cycle,
            sweep_atomic_warmup,
        ),
        Workload(
            "verify-oracle",
            "verify runs of the default 9 cases plus strong-coupling cases that climb the cutoff "
            "ladder to 1024 or hit the cap: only oracle (fock) changes should move it.",
            verify_cycle,
            verify_warmup,
        ),
    )
}


def make_cycle(workload: str, seed: int, index: int) -> list[Op]:
    """Cycle `index` of a workload: the same for the same seed."""
    rng = random.Random(f"{workload}/{seed}/cycle/{index}")
    ops = WORKLOADS[workload].cycle(rng)
    rng.shuffle(ops)
    return ops


def make_warmup(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload].warmup(random.Random(f"{workload}/{seed}/warmup"))
