"""The benchmark's bindings into the package.

bench/worker.py traces every public function of the package by name and
observes some of them; `LayerTracer` raises ValueError when an observed
name is no longer a plain public function of its module (renamed, moved,
or replaced by an alias).  The worker then dies and every benchmark run
fails, so the bindings are checked here with the rest of the suite.
"""

from pathlib import Path

import quasimode.cli  # noqa: F401  the tracer binds the modules already imported

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_worker_traces_and_observes_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import checks  # noqa: F401  the operation checks import the public kernels
    import tracer
    import worker

    observed = tracer.LayerTracer("quasimode", worker.Observations().observers())
    with observed:
        assert "quasimode.output.render_csv" in tracer.bound_wrappers("quasimode")
    assert tracer.bound_wrappers("quasimode") == []
