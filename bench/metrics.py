"""Metric declarations and their computation from one run's measurements.

End-to-end metrics come from the untraced run (`--trace 0`), per-layer
metrics from the traced run (`--trace 1`).  `BENCHMARK.json` lists the same
names; the self-tests keep the two in step.
"""

from __future__ import annotations

import statistics

from tracer import LAYERS

CUTOFFS = (64, 128, 256, 512, 1024)

# name -> unit
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{layer}.{what}": unit for layer in LAYERS
       for what, unit in (("calls", "count"), ("self_s", "s"), ("self_share", "ratio"))},
    "dispersion.critical_points_calls_per_row": "ratio",
    "fock.build_s": "s",
    "fock.solve_s": "s",
    "fock.solves_per_case": "ratio",
    "fock.max_cutoff": "count",
    "fock.matrix_bytes_max": "B-computed",
    **{f"fock.solve_ms.c{cutoff}": "ms" for cutoff in CUTOFFS},
    "output.bytes": "B",
    "output.bytes_per_s": "B/s",
    "output.write_s": "s",
    "trace_overhead_ratio": "ratio",
}

# Per-layer metrics where a higher value is better; the rest are lower-better.
HIGHER_IS_BETTER = {"output.bytes_per_s"}


def percentile(samples: list[float], p: int) -> float:
    """The p-th percentile, interpolated between order statistics."""
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def end_to_end(setup_seconds: list[float], op_seconds: list[float], rows: int,
               peak_rss_kb: int) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_seconds),
        "op_p50_ms": percentile(op_seconds, 50) * 1e3,
        "op_p90_ms": percentile(op_seconds, 90) * 1e3,
        "rows_per_s": rows / sum(op_seconds),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(spans: list[list], observations: dict, rows: int, traced_s: float,
              untraced_s: float, passes: int) -> dict[str, float]:
    """Per-layer metrics of `passes` traced passes over the same operations,
    reported per pass.  `spans` rows are [layer, function, parent layer,
    calls, total s, self s]."""

    def calls(layer: str, *functions: str) -> int:
        return sum(s[3] for s in spans if s[0] == layer and (not functions or s[1] in functions))

    def total(layer: str, *functions: str) -> float:
        return sum(s[4] for s in spans if s[0] == layer and s[1] in functions)

    metrics = {}
    for layer in LAYERS:
        self_s = sum(s[5] for s in spans if s[0] == layer)
        metrics[f"{layer}.calls"] = calls(layer) / passes
        metrics[f"{layer}.self_s"] = self_s / passes
        metrics[f"{layer}.self_share"] = _ratio(self_s, traced_s)
    solves = observations["solve_seconds"]
    metrics.update({
        "dispersion.critical_points_calls_per_row":
            _ratio(calls("dispersion", "critical_points"), rows),
        "fock.build_s":
            total("fock", "build_dipole_hamiltonian", "build_planewave_hamiltonian") / passes,
        "fock.solve_s": total("fock", "lowest_eigenvalues") / passes,
        "fock.solves_per_case":
            _ratio(calls("fock", "lowest_eigenvalues"), calls("fock", "verify_spectrum")),
        "fock.max_cutoff": observations["max_cutoff"],
        "fock.matrix_bytes_max": observations["matrix_bytes_max"],
        **{f"fock.solve_ms.c{c}": statistics.median(solves.get(str(c), [0.0])) * 1e3
           for c in CUTOFFS},
        "output.bytes": observations["output_bytes"] / passes,
        "output.bytes_per_s": _ratio(observations["output_bytes"],
                                     sum(s[5] for s in spans if s[0] == "output")),
        "output.write_s": total("output", "write_bytes") / passes,
        "trace_overhead_ratio": _ratio(traced_s, untraced_s),
    })
    return metrics
