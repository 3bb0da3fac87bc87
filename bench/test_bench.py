"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import random
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import metrics  # noqa: E402
import quasimode  # noqa: E402
import quasimode.cli  # noqa: E402
import workloads  # noqa: E402
from tracer import MARK, LayerTracer, SpanAggregator, bound_wrappers  # noqa: E402
from workloads import WORKLOADS, make_cycle, make_warmup  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BASELINES = ROOT / "tests" / "baselines"


# --- generator ---------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    def argvs(seed, index):
        return [op.argv("out") for op in make_cycle(workload, seed, index)]

    assert argvs(7, 0) == argvs(7, 0)
    assert argvs(7, 0) != argvs(8, 0)
    assert argvs(7, 0) != argvs(7, 1)
    warm = [op.argv("out") for op in make_warmup(workload, 7)]
    assert warm == [op.argv("out") for op in make_warmup(workload, 7)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_cycle_has_the_same_mix_of_kinds(workload):
    def mix(seed):
        ops = make_cycle(workload, seed, 0)
        return sorted(f"{op.kind} {op.spec.get('quantity')}" for op in ops)

    assert mix(1) == mix(2)


# --- span arithmetic ---------------------------------------------------------


def test_self_time_of_synthetic_nested_spans():
    spans = SpanAggregator()
    spans.push("cli", "main", 0.0)
    spans.push("dispersion", "k_branches", 1.0)
    spans.push("dispersion", "critical_points", 1.5)  # same-layer child
    spans.push("params", "validate_xi", 1.75)
    assert spans.pop(2.0) == 0.25
    assert spans.pop(2.5) == 1.0
    assert spans.pop(4.0) == 3.0
    spans.push("output", "render_csv", 5.0)
    spans.push("output", "format_cell", 6.0)
    spans.pop(6.5)
    spans.pop(8.0)
    assert spans.pop(10.0) == 10.0
    rows = {(r[0], r[1], r[2]): r[3:] for r in spans.rows()}
    assert rows[("cli", "main", "root")] == [1, 10.0, 10.0 - 3.0 - 3.0]
    assert rows[("dispersion", "k_branches", "cli")] == [1, 3.0, 2.0]
    assert rows[("dispersion", "critical_points", "dispersion")] == [1, 1.0, 0.75]
    assert rows[("params", "validate_xi", "dispersion")] == [1, 0.25, 0.25]
    assert rows[("output", "render_csv", "cli")] == [1, 3.0, 2.5]
    assert rows[("output", "format_cell", "output")] == [1, 0.5, 0.5]
    # Self times partition the root span exactly.
    assert sum(r[5] for r in spans.rows()) == 10.0


def test_per_layer_metrics_from_synthetic_spans():
    spans = [
        ["cli", "main", "root", 2, 4.0, 1.0],
        ["dispersion", "critical_points", "dispersion", 6, 0.5, 0.5],
        ["dispersion", "k_branches", "cli", 3, 2.0, 1.5],
        ["output", "render_csv", "cli", 2, 1.0, 0.75],
        ["output", "write_bytes", "cli", 2, 0.25, 0.25],
    ]
    observations = {"solve_seconds": {}, "max_cutoff": 0, "matrix_bytes_max": 0,
                    "output_bytes": 1000}
    m = metrics.per_layer(spans, observations, rows=12, traced_s=4.0, untraced_s=2.0, passes=2)
    assert m["cli.calls"] == 1 and m["cli.self_s"] == 0.5 and m["cli.self_share"] == 0.25
    assert m["dispersion.calls"] == 4.5 and m["dispersion.self_s"] == 1.0
    assert m["dispersion.critical_points_calls_per_row"] == 0.5
    assert m["output.bytes"] == 500 and m["output.bytes_per_s"] == 1000
    assert m["output.write_s"] == 0.125
    assert m["fock.calls"] == 0 and m["fock.solves_per_case"] == 0
    assert m["trace_overhead_ratio"] == 2.0
    assert set(m) == set(metrics.PER_LAYER)


# --- tracer ------------------------------------------------------------------


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    original = quasimode.cli.k_branches
    seen = []
    tracer = LayerTracer("quasimode", {"dispersion.k_branches": lambda a, r, s: seen.append(a)})
    with tracer:
        for binding in (quasimode.cli.k_branches, quasimode.figures.k_branches,
                        quasimode.k_branches, quasimode.dispersion.k_branches):
            assert getattr(binding, MARK, False)
        rc = quasimode.cli.main(["sweep", "wavenumber", "--xi=0.5", "--omega=0.5,1.2",
                                 f"--out={tmp_path / 'wn.csv'}"])
    assert rc == 0
    assert bound_wrappers("quasimode") == []
    assert quasimode.cli.k_branches is original
    assert seen == [(0.5, 0.5), (1.2, 0.5)]
    stats = {tuple(r[:3]): r[3] for r in tracer.spans.rows()}
    assert stats[("cli", "main", "root")] == 1
    assert stats[("dispersion", "k_branches", "cli")] == 2
    assert stats[("dispersion", "critical_points", "dispersion")] == 4


def test_tracer_restores_bindings_when_the_call_raises():
    with pytest.raises(RuntimeError):
        with LayerTracer("quasimode"):
            raise RuntimeError("boom")
    assert bound_wrappers("quasimode") == []


def test_tracer_rejects_observers_of_untraced_functions():
    with pytest.raises(ValueError):
        LayerTracer("quasimode", {"dispersion._private": lambda a, r, s: None})


# --- checks ------------------------------------------------------------------


def _run(op, out: Path) -> int:
    return quasimode.cli.main(op.argv(str(out)))


def _small_ops():
    rng = random.Random(3)
    ops = [workloads.reduced_sweep(rng, q, 60) for q in workloads.REDUCED_QUANTITIES]
    ops += [workloads.atomic_op(rng, kind, 60) for kind in workloads.ATOMIC_KINDS]
    ops += [workloads.verify_op(rng, "weak"), workloads.dense_solve_op(64)]
    return ops


def _nudge_last_float(path: Path) -> None:
    """Move the last float of the last row (or the first analytic level of
    the last verify case) to the next representable value."""
    text = path.read_text()
    if text.startswith("{"):
        doc = json.loads(text)
        row = doc["rows"][-1] if "rows" in doc else doc["cases"][-1]["lowest_analytic"]
        i = [j for j, v in enumerate(row) if isinstance(v, float)][-1 if "rows" in doc else 0]
        row[i] = math.nextafter(row[i], math.inf)
        path.write_text(json.dumps(doc))
        return
    *head, last = text[:-1].split("\n")
    cells = last.split(",")
    i = [j for j, c in enumerate(cells) if "e" in c and c[-1].isdigit()][-1]
    cells[i] = f"{math.nextafter(float(cells[i]), math.inf):.16e}"
    path.write_text("\n".join([*head, ",".join(cells)]) + "\n")


@pytest.mark.parametrize("op", _small_ops(), ids=lambda op: " ".join(op.args[:2]))
def test_checks_accept_the_program_and_reject_a_changed_value(op, tmp_path):
    out = tmp_path / "out"
    rc = _run(op, out)
    assert checks.check(op, rc, "", out, BASELINES, random.Random(0)) >= 1
    _nudge_last_float(out)
    with pytest.raises(checks.CheckFailed):
        checks.check(op, rc, "", out, BASELINES, random.Random(0))


def test_checks_compare_figures_byte_for_byte(tmp_path):
    op = workloads.figures_op()
    out = tmp_path / "figures"
    assert checks.check(op, _run(op, out), "", out, BASELINES, random.Random(0)) > 1000
    path = out / "fig1_dispersion.csv"
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n", 1))
    with pytest.raises(checks.CheckFailed):
        checks.check(op, 0, "", out, BASELINES, random.Random(0))


def test_checks_reject_a_wrong_exit_code(tmp_path):
    op = workloads.dense_solve_op(64)
    out = tmp_path / "out"
    rc = _run(op, out)
    assert rc == 1
    with pytest.raises(checks.CheckFailed):
        checks.check(op, 0, "", out, BASELINES, random.Random(0))


# --- BENCHMARK.json ----------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_are_well_formed_and_declared():
    declared = {m["name"]: m for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    produced = {**metrics.END_TO_END, **metrics.PER_LAYER}
    for name, unit in produced.items():
        assert NAME.fullmatch(name), name
        assert declared[name]["unit"] == unit
    assert set(declared) == set(produced)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(metrics.END_TO_END)
    for m in BENCHMARK["per_layer"]:
        expected = "higher" if m["name"] in metrics.HIGHER_IS_BETTER else "lower"
        assert m["better"] == expected, m["name"]


def test_workloads_and_reasons_match_benchmark_json():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    for w in BENCHMARK["workloads"]:
        assert NAME.fullmatch(w["name"]) and len(w["why"]) <= 200 and "\n" not in w["why"]
