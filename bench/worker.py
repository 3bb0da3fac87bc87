"""Workload process: calls `quasimode.cli.main(argv)` for `run.py`.

Usage: python worker.py <src directory>

The worker is the benchmark's one client, a single fresh interpreter that
runs one operation at a time.  It reads one JSON request per line on stdin
and answers each with one JSON line on stdout:

    {"cmd": "run", "argv": [...], "trace": false}
        -> {"rc": 0, "seconds": 0.0123, "stderr": "...", "error": null}
    {"cmd": "report"}
        -> peak RSS, BLAS build, whether the heap is trimmed between
           operations, and the aggregated spans and observations of every
           traced operation so far
    {"cmd": "quit"}

The operation's own stdout and stderr are captured, so they never mix with
the replies.  `seconds` runs from the `main(argv)` call until it returns,
with its output file written.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import resource
import sys
import time
import traceback
from collections import defaultdict

from tracer import LayerTracer


class Observations:
    """Values read from traced calls' arguments and results."""

    def __init__(self) -> None:
        self.solve_seconds: dict[int, list[float]] = defaultdict(list)
        self.max_cutoff = 0
        self.matrix_bytes_max = 0
        self.output_bytes = 0

    def on_build(self, args: tuple, hamiltonian, seconds: float) -> None:
        self.max_cutoff = max(self.max_cutoff, hamiltonian.cutoff)
        self.matrix_bytes_max = max(self.matrix_bytes_max, hamiltonian.matrix.nbytes)

    def on_solve(self, args: tuple, levels, seconds: float) -> None:
        self.solve_seconds[args[0].cutoff].append(seconds)

    def on_render(self, args: tuple, data: bytes, seconds: float) -> None:
        self.output_bytes += len(data)

    def observers(self) -> dict:
        return {
            "fock.build_dipole_hamiltonian": self.on_build,
            "fock.build_planewave_hamiltonian": self.on_build,
            "fock.lowest_eigenvalues": self.on_solve,
            "output.render_csv": self.on_render,
            "output.render_json_table": self.on_render,
            "output.render_json": self.on_render,
        }

    def as_dict(self) -> dict:
        return {
            "solve_seconds": {str(k): v for k, v in sorted(self.solve_seconds.items())},
            "max_cutoff": self.max_cutoff,
            "matrix_bytes_max": self.matrix_bytes_max,
            "output_bytes": self.output_bytes,
        }


def blas_build() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        return {"name": "unknown"}
    return {"name": blas.get("name"), "version": blas.get("version"),
            "configuration": blas.get("openblas configuration")}


def heap_trimmer():
    """glibc's malloc_trim, or None where the C library lacks it.

    Each CLI call normally runs in a process of its own.  Handing freed heap
    back to the system after every operation keeps one operation's leftovers
    out of the next one's resident memory, so the peak RSS is that of the
    largest single operation rather than an accident of heap layout.
    """
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def run_op(cli, argv: list[str], tracer: LayerTracer | None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            (tracer or contextlib.nullcontext()):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code
        except Exception:
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
    return {"rc": rc, "seconds": seconds, "stderr": err.getvalue(), "error": error}


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    import quasimode.cli as cli

    observations = Observations()
    tracer = LayerTracer("quasimode", observations.observers())
    trim = heap_trimmer()
    replies = sys.stdout
    while line := sys.stdin.readline():
        request = json.loads(line)
        if request["cmd"] == "quit":
            break
        if request["cmd"] == "run":
            reply = run_op(cli, request["argv"], tracer if request["trace"] else None)
            if trim is not None:
                trim(0)
        else:
            reply = {
                "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "blas": blas_build(),
                "heap_trim": trim is not None,
                "spans": tracer.spans.rows(),
                "observations": observations.as_dict(),
            }
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
