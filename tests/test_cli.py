import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from typing import NamedTuple

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import quasimode
import quasimode.cli
import quasimode.tables
from quasimode import DomainError, energy_level, ModelParams, Momentum, zero_point_minimum
from quasimode.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    main,
    parse_grid,
    run_sweep,
)
from quasimode.errors import SpecError
from quasimode.params import _finite
from quasimode.tables import (
    ATOMIC_ONLY, K_SWEPT, QUANTITIES, TABLE, SweepSpec, finite_grid, force_columns, tabulate,
)

SCHEMA_DIR = Path(quasimode.__file__).parent / "schemas"
# An integer that no float can hold
HUGE_INT = "1" + "0" * 400
# 1e308, which a float holds, and twice which it does not
BIG_INT = "1" + "0" * 308


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


def table_cells(out: str, fmt: str) -> tuple[list[str], list[list]]:
    """The header and the rows of a table written as CSV or JSON, each CSV
    cell as its text."""
    if fmt == "csv":
        header, *lines = out.splitlines()
        return header.split(","), [line.split(",") for line in lines]
    doc = json.loads(out)
    return doc["columns"], doc["rows"]


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestGridParsing:
    def test_range(self):
        values = parse_grid("0.01:3:300")
        assert len(values) == 300
        assert values[0] == pytest.approx(0.01)
        assert values[-1] == pytest.approx(3.0)

    def test_log_range(self):
        values = parse_grid("0.1:100:4:log")
        assert values == pytest.approx([0.1, 1.0, 10.0, 100.0], rel=1e-12)

    def test_explicit_list_and_single_value(self):
        assert parse_grid("0,0.2,1") == (0.0, 0.2, 1.0)
        assert parse_grid("1.5") == (1.5,)

    @pytest.mark.parametrize("text", ["1:2:1", "3:1:10", "a:b:c", "0:1:10:cubic", "-1:1:5:log"])
    def test_invalid_ranges(self, text):
        with pytest.raises(SpecError):
            parse_grid(text)

    @pytest.mark.parametrize("text", ["nan,1", "1,inf", "0:inf:5", "nan:1:3", "-inf:0:3"])
    def test_non_finite_values_are_domain_errors(self, text):
        with pytest.raises(DomainError, match="finite"):
            parse_grid(text)

    @pytest.mark.parametrize(
        "text", ["0:1e308:3", "-1e308:1e308:3", "1:1.7976931348623157e308:3:log"]
    )
    def test_overflowing_grid_points_are_domain_errors(self, text):
        with pytest.raises(DomainError):
            parse_grid(text)

    @pytest.mark.parametrize("values", [
        (), (1.0, 2.0), [0.5, 2], (0.0, math.nan, math.inf), (1.0, -math.inf, math.nan),
        (1, int(HUGE_INT), math.nan), (2.0, int(BIG_INT) * 2), (-int(BIG_INT) * 2, math.inf),
        # an int above the largest float that rounds to it
        (sys.float_info.max, int(sys.float_info.max) + 1),
        (sys.float_info.max, -sys.float_info.max, int(sys.float_info.max) - 1),
        tuple(np.linspace(0.0, 1.0, 5)), (np.float64(1.0), np.float64(np.nan)),
    ])
    def test_finite_grid_is_the_per_value_check(self, values):
        def per_value(values):
            for value in values:
                _finite(value, "grid values")
            return tuple(values)

        try:
            expected = per_value(values)
        except DomainError as exc:
            with pytest.raises(DomainError) as got:
                finite_grid(values)
            assert str(got.value) == str(exc)
        else:
            assert finite_grid(values) == expected


def test_parser_is_built_once_and_each_call_finds_its_handler(monkeypatch, capsys):
    argv = ["sweep", "dispersion", "--xi", "0", "--k", "1"]
    assert main(argv) == EXIT_OK
    assert quasimode.cli._build_parser() is quasimode.cli._build_parser()
    calls = []
    monkeypatch.setattr(quasimode.cli, "_cmd_sweep", lambda args: calls.append(args.k) or 7)
    assert main(argv) == 7
    assert calls == ["1"]


class TestSweepCommand:
    def test_dispersion_row_count_and_columns(self, tmp_path):
        out = tmp_path / "disp.csv"
        code = main([
            "sweep", "dispersion", "--xi", "0,0.2,1",
            "--k", "0.01:3:300", "--out", str(out),
        ])
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["k_over_kp", "xi", "omega_over_wp"]
        assert len(rows) == 900

    def test_reflectivity_branch_values(self, tmp_path):
        out = tmp_path / "refl.csv"
        assert main([
            "sweep", "reflectivity", "--xi", "1", "--omega", "1.5", "--out", str(out),
        ]) == EXIT_OK
        _, rows = read_csv(out)
        by_branch = {r["branch"]: float(r["reflectivity"]) for r in rows}
        assert by_branch["plus"] == pytest.approx(0.04, rel=1e-12)
        assert by_branch["minus"] == pytest.approx(0.25, rel=1e-12)

    def test_velocity_backward_threshold_row(self, tmp_path):
        out = tmp_path / "vel.csv"
        assert main([
            "sweep", "velocity", "--xi", "1", "--k", "0.5", "--out", str(out),
        ]) == EXIT_OK
        _, rows = read_csv(out)
        assert float(rows[0]["v_group_over_c"]) == pytest.approx(-1.0, rel=1e-12)

    def test_row_ordering_xi_outer_branch_innermost(self, tmp_path):
        out = tmp_path / "wn.csv"
        assert main([
            "sweep", "wavenumber", "--xi", "0.2,1", "--omega", "1,2", "--out", str(out),
        ]) == EXIT_OK
        _, rows = read_csv(out)
        key = [(r["xi"], r["omega_over_wp"], r["branch"]) for r in rows]
        xis = [float(k[0]) for k in key]
        assert xis == sorted(xis)
        assert [k[2] for k in key[:2]] == ["plus", "minus"]

    def test_csv_byte_stable(self, tmp_path):
        args = ["sweep", "dielectric", "--xi", "0,0.5,1", "--omega", "0.05:3:50"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        data = a.read_bytes()
        assert data == b.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")

    def test_json_output_validates_against_schema(self, tmp_path):
        out = tmp_path / "disp.json"
        assert main([
            "sweep", "dispersion", "--xi", "0.5", "--k", "0.1:2:10",
            "--format", "json", "--out", str(out),
        ]) == EXIT_OK
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, load_schema("sweep.schema.json"))
        assert doc["schema_version"] == 1
        assert len(doc["rows"]) == 10

    def test_spectrum_sweep_matches_library(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main([
            "sweep", "spectrum", "--xi", "0.5", "--omega", "1",
            "--omega-p", "0.5", "--p", "0.2,0.1,0.05", "--n", "2",
            "--out", str(out),
        ]) == EXIT_OK
        _, rows = read_csv(out)
        expected = energy_level(
            ModelParams(xi=0.5, omega=1.0, omega_p=0.5),
            Momentum(0.2, 0.1, 0.05), 2,
        ).energy
        assert float(rows[0]["energy"]) == pytest.approx(expected, rel=1e-15)

    def test_force_sweep_static_limit(self, tmp_path):
        out = tmp_path / "force.csv"
        assert main([
            "sweep", "force", "--xi", "0", "--omega", "1e-8,1",
            "--d", "1", "--area", str(math.pi), "--out", str(out),
        ]) == EXIT_OK
        _, rows = read_csv(out)
        assert float(rows[0]["force"]) == pytest.approx(0.5, rel=1e-10)
        assert float(rows[1]["force"]) < 0.5

    def test_atomic_units_dispersion(self, tmp_path):
        out = tmp_path / "at.csv"
        assert main([
            "sweep", "dispersion", "--xi", "0", "--k", "2", "--units", "atomic",
            "--omega-p", "1", "--c", "1", "--out", str(out),
        ]) == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["k", "xi", "omega"]
        assert float(rows[0]["omega"]) == pytest.approx(math.sqrt(5.0), rel=1e-12)


class TestExitCodes:
    def test_xi_out_of_range_is_usage_error(self, capsys):
        assert main(["sweep", "dispersion", "--xi", "2", "--k", "1"]) == EXIT_USAGE

    def test_zero_wavenumber_with_finite_xi_is_usage_error(self):
        assert main(["sweep", "dispersion", "--xi", "0.5", "--k", "0,1"]) == EXIT_USAGE

    def test_zero_wavenumber_with_linear_xi_allowed(self, tmp_path):
        out = tmp_path / "ok.csv"
        assert main([
            "sweep", "dispersion", "--xi", "0", "--k", "0,1", "--out", str(out),
        ]) == EXIT_OK

    def test_domain_error_identifies_row(self, capsys):
        # omega = 0 is outside the dielectric's domain but passes spec checks
        assert main(["sweep", "dielectric", "--xi", "0.5", "--omega", "0,1"]) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert "omega=0" in err

    def test_both_grids_rejected(self):
        assert main([
            "sweep", "dispersion", "--xi", "0.5", "--k", "1", "--omega", "1",
        ]) == EXIT_USAGE

    def test_unknown_quantity_rejected_by_parser(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "entropy", "--xi", "0.5", "--k", "1"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv,message", [
        (["force", "--xi", "0.5", "--d", "1"],
         "provide exactly one of --omega and --at-minimum"),
        (["force", "--xi", "0.5", "--d", "1", "--omega", "1", "--at-minimum"],
         "provide exactly one of --omega and --at-minimum"),
        (["sweep", "wavenumber", "--xi", "0.5", "--k", "1"], "wavenumber sweeps over --omega"),
        (["sweep", "dispersion", "--xi", "0.5,x", "--k", "1"],
         "malformed value list '0.5,x': could not convert string to float: 'x'"),
        (["sweep", "spectrum", "--xi", "0.5", "--omega", "1", "--p", "1,2"],
         "momentum must be three comma-separated numbers, got '1,2'"),
        (["spectrum", "--xi", "0.5", "--omega", "1", "--omega-p", "1", "--n", "0,x"],
         "malformed excitation list '0,x': invalid literal for int() with base 10: 'x'"),
        (["sweep", "dispersion", "--xi", "0.5", "--k", "1:2"],
         "grid must be start:stop:count[:spacing], got '1:2'"),
        (["sweep", "dispersion", "--xi", "0.5", "--k", "1", "--units", "atomic",
          "--omega-p", "0"],
         "atomic units for reduced-family sweeps require omega_p > 0"),
        # an empty value list is malformed, not absent
        *[(argv, "malformed value list '': could not convert string to float: ''") for argv in [
            ["force", "--xi", "0.5", "--d", "1", "--omega", ""],
            ["verify", "--xi", ""],
            ["verify", "--omega", ""],
            ["verify", "--omega-p", ""],
        ]],
    ])
    def test_usage_error_writes_its_message_and_no_output(self, argv, message, capsys):
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_force_spec_is_validated_before_its_mode_is_checked(self, capsys):
        # neither --omega nor --at-minimum, but the bad hbar is reported first
        assert main(["force", "--xi", "0.5", "--d", "1", "--hbar", "-1"]) == EXIT_DOMAIN
        assert capsys.readouterr() == ("", "domain error: hbar must be positive, got -1.0\n")

    def test_verify_failure_exit_code(self, tmp_path):
        out = tmp_path / "rep.json"
        code = main([
            "verify", "--xi", "0.5", "--omega", "1", "--omega-p", "2",
            "--p", "0.2,0.1,0.05", "--tol", "1e-16", "--cutoff-cap", "128",
            "--out", str(out),
        ])
        assert code == EXIT_VERIFY_FAILED
        assert json.loads(out.read_text())["all_converged"] is False

    @pytest.mark.parametrize(
        "argv", [["verify", "--omega", "nan"], ["verify", "--omega-p", "inf"]]
    )
    def test_non_finite_verify_input_is_domain_error(self, argv, capsys):
        assert main(argv) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("domain error:") and "finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["sweep", "dispersion", "--xi", "0.5", "--k", "nan,inf"],
        ["sweep", "wavenumber", "--xi", "0.5", "--omega", "nan"],
        ["sweep", "dispersion", "--xi", "0", "--k", "0:inf:5"],
        ["sweep", "dispersion", "--xi", "0", "--k", "1", "--units", "atomic", "--omega-p", "nan"],
        ["force", "--xi", "0.5", "--d", "nan", "--at-minimum"],
        ["force", "--xi", "0.5", "--d", "1", "--charge", "nan", "--at-minimum"],
        ["force", "--xi", "0.5", "--d", "1", "--ref-d", "inf", "--scaling", "frozen",
         "--at-minimum"],
    ])
    def test_non_finite_cli_input_is_domain_error(self, argv, capsys):
        assert main(argv) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("domain error:") and "finite" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "--xi", "0", "--omega-p", "1e200"],
        ["verify", "--xi", "0", "--omega", "1e-305"],
        ["sweep", "dielectric", "--xi", "1", "--omega", "1e-170"],
        ["sweep", "reflectivity", "--xi", "0.5", "--omega", "1e-170"],
        ["verify", "--xi", "1", "--omega-p", "1e154"],
        ["force", "--xi", "0.5", "--d", "1", "--charge", "1e200", "--at-minimum"],
        ["sweep", "wavenumber", "--xi", "0.5", "--omega", "1e100"],
        ["sweep", "dispersion", "--xi", "0.5", "--k", "1e200"],
        ["sweep", "velocity", "--xi", "0.5", "--k", "1e-80"],
        ["sweep", "dispersion", "--xi", "0.5", "--k", "1e-200"],
        ["sweep", "velocity", "--xi", "0.5", "--k", "1e-200"],
        ["sweep", "force", "--xi", "0.5", "--omega", "1e-200"],
        ["sweep", "force", "--xi", "0.5", "--omega", "1", "--charge", "1e200"],
        ["sweep", "force", "--xi", "0.5", "--omega", "1e200"],
        ["force", "--xi", "0.5", "--d", "1e-300", "--at-minimum"],
        ["force", "--xi", "0.5", "--d", "1e300", "--at-minimum"],
        ["verify", "--xi", "0.5", "--omega", "1e-150", "--omega-p", "1e10"],
        ["sweep", "spectrum", "--xi", "0.5", "--omega", "1e-155", "--omega-p", "1"],
        ["verify", "--xi", "0.5", "--p", "1e200,0,0"],
        ["spectrum", "--xi", "0.5", "--omega", "1", "--omega-p", "1", "--p", "1e200,0,0"],
        # tanh(2 theta) rounds to 1
        ["sweep", "spectrum", "--xi", "0", "--omega", "1", "--omega-p", "1e9"],
        # 1/(omega_p/omega)^2 overflows, which would make the force 0
        ["sweep", "force", "--xi", "0.5", "--omega", "1e155"],
        # the conversion to reduced units overflows
        ["sweep", "dispersion", "--xi", "0.5", "--k", "1e200", "--units", "atomic",
         "--omega-p", "1", "--c", "1e200"],
        ["sweep", "velocity", "--xi", "0.5", "--k", "1e200", "--units", "atomic",
         "--omega-p", "1", "--c", "1e200"],
        ["sweep", "wavenumber", "--xi", "0.5", "--omega", "1e200", "--units", "atomic",
         "--omega-p", "1e-200"],
        ["sweep", "dielectric", "--xi", "0.5", "--omega", "1e200", "--units", "atomic",
         "--omega-p", "1e-200"],
    ])
    def test_unrepresentable_input_is_domain_error(self, argv, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == EXIT_DOMAIN
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert "domain error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv,where,message", [
        (["sweep", "wavenumber", "--xi", "0.5", "--omega", "1,-1"],
         "xi=0.5, omega=-1", "reduced frequency must be nonnegative, got -1.0"),
        (["sweep", "wavenumber", "--xi", "0,0.5", "--omega", "2,1e200"],
         "xi=0, omega=1e+200", "wavenumber is not a finite float at y = 1e+200"),
        # the first point's k overflows in atomic units; the second is negative
        (["sweep", "wavenumber", "--xi", "0.5", "--units", "atomic", "--omega-p", "1e300",
          "--c", "1e-7", "--omega", "1e308,-1e308"],
         "xi=0.5, omega=1e+308", "result is not a finite float"),
        (["sweep", "dielectric", "--xi", "0.5", "--omega", "1,0"],
         "xi=0.5, omega=0", "dielectric function requires y > 0, got 0.0"),
        (["sweep", "dielectric", "--xi", "0,1", "--omega", "1,1e-161"],
         "xi=0, omega=1e-161", "permittivity is not a finite float at y = 1e-161"),
        (["sweep", "dielectric", "--xi", "0.5,1", "--omega", "0.3,1e-170"],
         "xi=0.5, omega=1e-170", "y^2 underflows to 0 at y = 1e-170"),
        (["sweep", "reflectivity", "--xi", "0.5", "--omega", "0.3,0.8,2,1e200"],
         "xi=0.5, omega=1e+200", "permittivity is not a finite float at y = 1e+200"),
        (["sweep", "reflectivity", "--xi", "0.5", "--omega", "1,-2"],
         "xi=0.5, omega=-2", "dielectric function requires y > 0, got -2.0"),
        (["sweep", "dispersion", "--xi", "0", "--k", "1,-1"],
         "xi=0, k=-1", "reduced wavenumber must be nonnegative, got -1.0"),
        (["sweep", "dispersion", "--xi", "0", "--k", "1,1e200"],
         "xi=0, k=1e+200", "frequency is not a finite float at x = 1e+200"),
        (["sweep", "dispersion", "--xi", "0.5", "--k", "1,1e-200"],
         "xi=0.5, k=1e-200", "x^2 underflows to 0 at x = 1e-200"),
        (["sweep", "velocity", "--xi", "0", "--k", "1,0"],
         "xi=0, k=0", "phase velocity requires x > 0, got 0.0"),
        (["sweep", "velocity", "--xi", "0.5", "--k", "1,1e-80"],
         "xi=0.5, k=1e-80", "phase velocity is not a finite float at x = 1e-80"),
        (["sweep", "velocity", "--xi", "0", "--k", "1,1e-170"],
         "xi=0, k=1e-170", "x^4 underflows to 0 at x = 1e-170"),
        # the first point's velocity overflows in atomic units; the second is negative
        (["sweep", "velocity", "--xi", "0", "--k", "5e-309,-1", "--units", "atomic",
          "--omega-p", "1", "--c", "1e308"],
         "xi=0, k=5e-309", "result is not a finite float"),
        (["force", "--xi", "1", "--d", "1,2", "--omega", "1,0"],
         "xi=1, d=1, omega=0", "plate force diverges at omega=0 for xi > 0"),
        # one block per xi holds every separation: the fault is at the second
        (["force", "--xi", "0,0.5", "--d", "1,1e10", "--omega", "1,1e150,2"],
         "xi=0, d=1e+10, omega=1e+150", "(omega/omega_p)^2 overflows at omega = 1e+150"),
        (["force", "--xi", "0.5", "--d", "2,1e-300", "--at-minimum"],
         "xi=0.5, d=1e-300", "d^(3/2) is not a positive finite float at d = 1e-300"),
        (["force", "--xi", "0.5", "--d", "2,1e300", "--at-minimum"],
         "xi=0.5, d=1e+300", "d^(3/2) is not a positive finite float at d = 1e+300"),
        # m * N e^2 underflows to 0 in the Bohr form, which --at-minimum
        # evaluates once per separation
        (["force", "--xi", "0.5", "--d", "1,2", "--at-minimum", "--mass", "1e-200",
          "--charge", "1e-100"],
         "xi=0.5, d=1", "m * N e^2 underflows to 0 (m=1e-200, e=1e-100, N=1)"),
        (["sweep", "force", "--xi", "0.5", "--omega", "1,2,1e-160"],
         "xi=0.5, omega=1e-160",
         "(omega_p/omega)^2 is not a positive finite float at omega = 1e-160"),
        (["sweep", "force", "--xi", "0.5", "--omega", "1,2,1e160"],
         "xi=0.5, omega=1e+160", "(omega/omega_p)^2 overflows at omega = 1e+160"),
    ])
    def test_domain_error_names_the_first_failing_point(self, argv, where, message, capsys):
        assert main(argv) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"domain error at {where}: {message}\ndomain error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["sweep", "dispersion", "--xi", "0.2", "--k", "1"],
        ["sweep", "velocity", "--xi", "0.5", "--k", "1"],
    ])
    def test_plasma_wavenumber_domain_error_names_no_grid_point(self, argv, capsys):
        # k_p = omega_p/c underflows to 0, which raised ZeroDivisionError at k = 1
        argv = [*argv, "--units", "atomic", "--omega-p", "1e-300", "--c", "1e100"]
        assert main(argv) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        message = "k_p = omega_p/c underflows to 0 (omega_p=1e-300, c=1e+100)"
        assert captured.err == f"domain error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["sweep", "dispersion", "--xi", "0.2", "--k", "1,2"],
        ["sweep", "velocity", "--xi", "0.5", "--k", "1,2"],
        ["sweep", "wavenumber", "--xi", "0.5", "--omega", "1e300,-1e300"],
    ])
    def test_overflowing_plasma_wavenumber_names_no_grid_point(self, argv, capsys):
        # k_p = omega_p/c overflows to inf: dispersion divided k by it and
        # blamed k=1 for a singular k=0, wavenumber multiplied by it
        argv = [*argv, "--units", "atomic", "--omega-p", "1e300", "--c", "1e-10"]
        assert main(argv) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        message = "k_p = omega_p/c overflows (omega_p=1e+300, c=1e-10)"
        assert captured.err == f"domain error: {message}\n"

    @pytest.mark.parametrize("argv,message", [
        (["force", "--xi", "0.5", "--d", "2", "--omega", "1", "--area", "1e-200",
          "--mass", "1e-200"],
         "m * A * d is not a positive finite float (m=1e-200, A=1e-200, d=2.0)"),
        (["force", "--xi", "0.5", "--d", "1e-300", "--omega", "1", "--charge", "1e200"],
         "plasma frequency is not a finite float (e=1e+200, N=1, m=1.0, A=1.0, d=1e-300)"),
        # the plates are checked before any grid point is evaluated
        (["sweep", "force", "--xi", "0.5", "--omega", "1", "--d", "-1"],
         "plate separation must be positive, got -1.0"),
        (["sweep", "force", "--xi", "0.5", "--omega", "1", "--charge", "-1"],
         "charge must be nonnegative, got -1.0"),
        (["sweep", "force", "--xi", "0.5", "--omega", "1", "--area", "1e-200",
          "--mass", "1e-200"],
         "m * A * d is not a positive finite float (m=1e-200, A=1e-200, d=1.0)"),
        # hbar <= 0 would make the force attractive, or 0
        (["sweep", "force", "--xi", "0.5", "--omega", "1", "--hbar", "-1"],
         "hbar must be positive, got -1.0"),
        (["force", "--xi", "0.5", "--d", "1", "--omega", "1", "--hbar", "0"],
         "hbar must be positive, got 0.0"),
        (["force", "--xi", "0.5", "--d", "1", "--at-minimum", "--hbar", "0"],
         "hbar must be positive, got 0.0"),
        (["force", "--xi", "0.5", "--d", "1", "--at-minimum", "--hbar", "-1"],
         "hbar must be positive, got -1.0"),
        (["force", "--xi", "0.5", "--d", "1", "--at-minimum", "--hbar", "-1",
          "--scaling", "frozen"],
         "hbar must be positive, got -1.0"),
        # sqrt(N) of an int that no float can hold
        (["sweep", "force", "--xi", "0.5", "--omega", "1", "--charges", HUGE_INT],
         f"plasma frequency is not a finite float (e=1.0, N={HUGE_INT}, m=1.0, A=1.0, d=1.0)"),
        (["force", "--xi", "0.5", "--d", "1", "--at-minimum", "--charges", HUGE_INT],
         f"plasma frequency is not a finite float (e=1.0, N={HUGE_INT}, m=1.0, A=1.0, d=1.0)"),
        # a photon count that no float can hold; 1 + 2n overflowed at the first point
        (["sweep", "force", "--xi", "0.5", "--omega", "1,2", "--n-photons", HUGE_INT],
         "n_photons is too large for a float"),
        (["force", "--xi", "0.5", "--d", "1", "--omega", "1", "--n-photons", HUGE_INT],
         "n_photons is too large for a float"),
        # a photon count that fits a float but whose 1 + 2n overflows
        (["sweep", "force", "--xi", "0.5", "--omega", "1,2", "--n-photons", BIG_INT],
         "n_photons is too large: 1 + 2 n_photons overflows"),
        (["force", "--xi", "0.5", "--d", "1", "--at-minimum", "--n-photons", BIG_INT],
         "n_photons is too large: 1 + 2 n_photons overflows"),
        # a plate fault at a later separation names no point either
        (["force", "--xi", "0.5", "--d", "1,1e-300", "--omega", "1", "--charge", "1e200"],
         "plasma frequency is not a finite float (e=1e+200, N=1, m=1.0, A=1.0, d=1e-300)"),
        (["force", "--xi", "0.5", "--d", "2,1e-300", "--at-minimum", "--charge", "1e200"],
         "plasma frequency is not a finite float (e=1e+200, N=1, m=1.0, A=1.0, d=1e-300)"),
        (["force", "--xi", "0.5", "--d", "1,-2", "--omega", "1"],
         "plate separation must be positive, got -2.0"),
        # the first separation's fault wins over a bad later separation,
        # whichever of the plates' inputs it lies in
        (["force", "--xi", "0.5", "--d", "1,-2", "--at-minimum", "--area", "-1"],
         "plate area must be positive, got -1.0"),
        (["force", "--xi", "0.5", "--d", "2,-1", "--at-minimum", "--area", "1e-200",
          "--mass", "1e-200"],
         "m * A * d is not a positive finite float (m=1e-200, A=1e-200, d=2.0)"),
        (["force", "--xi", "0.5", "--d", "2,-1", "--omega", "1", "--area", "1e-200",
          "--mass", "1e-200"],
         "m * A * d is not a positive finite float (m=1e-200, A=1e-200, d=2.0)"),
        # the frozen reference plates are built first
        (["force", "--xi", "0.5", "--d", "1,2", "--at-minimum", "--scaling", "frozen",
          "--ref-d", "-1"],
         "plate separation must be positive, got -1.0"),
        # frozen plates are still checked at every separation
        (["force", "--xi", "0.5", "--d", "1,0", "--at-minimum", "--scaling", "frozen"],
         "plate separation must be positive, got 0.0"),
        (["force", "--xi", "0.5", "--d", "2,-1", "--omega", "1", "--scaling", "frozen",
          "--ref-d", "3"],
         "plate separation must be positive, got -1.0"),
    ])
    def test_plate_domain_error_names_no_grid_point(self, argv, message, capsys):
        assert main(argv) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"domain error: {message}\n"

    @pytest.mark.parametrize("argv,message", [
        (["sweep", "spectrum", "--omega-p", "0.5", "--n", "-1"],
         "excitation number must be nonnegative, got -1"),
        (["spectrum", "--omega-p", "0.5", "--n", "0,-1"],
         "excitation number must be nonnegative, got -1"),
        (["spectrum", "--omega-p", "0.5", "--charges", "0"],
         "charge count must be at least 1, got 0"),
        (["spectrum", "--omega-p", "0.5", "--mass", "-1"], "mass must be positive, got -1.0"),
        (["spectrum", "--omega-p", "0.5", "--hbar", "0"], "hbar must be positive, got 0.0"),
        (["spectrum", "--omega-p", "-1"], "plasma frequency must be nonnegative, got -1.0"),
        # omega_p^2, at the charge count, is read at every point
        (["sweep", "spectrum", "--omega-p", "1e200"], "omega_p^2 overflows at 1e+200"),
        (["spectrum", "--omega-p", "1e154", "--charges", "3"],
         "omega_p^2 overflows at 1.7320508075688773e+154"),
        (["spectrum", "--omega-p", "1", "--charges", HUGE_INT],
         "charge count is too large for a float"),
        (["sweep", "spectrum", "--omega-p", "1", "--n", HUGE_INT],
         "excitation number is too large for a float"),
    ])
    def test_level_domain_error_names_no_grid_point(self, argv, message, capsys):
        # every level reads these, so none of them is a fault of omega = 1
        assert main([*argv, "--xi", "0.5", "--omega", "1,2"]) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"domain error: {message}\n"

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-6"])
    def test_tolerance_must_be_positive_and_finite(self, tol, capsys):
        assert main(["verify", "--xi", "0.5", f"--tol={tol}"]) == EXIT_USAGE
        assert "positive and finite" in capsys.readouterr().err

    def test_levels_above_quarter_of_starting_cutoff_is_usage_error(self, capsys):
        assert main(["verify", "--xi", "0.5", "--levels", "20"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: levels must be at most")

    @pytest.mark.parametrize("argv", [
        ["verify", "--xi", "0.5", "--cutoff-cap", "1048576"],
        ["verify", "--xi", "0.5", "--cutoff-cap", "16385"],
        ["verify", "--xi", "0.5", "--cutoff-start", "100000000", "--cutoff-cap", "100000000"],
    ])
    def test_cutoff_above_maximum_is_usage_error(self, argv, capsys, monkeypatch):
        def no_oracle(*args, **kwargs):
            raise AssertionError("the oracle must not run")

        monkeypatch.setattr(quasimode.cli, "verify_spectrum", no_oracle)
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: cutoff cap must be at most")

    def test_maximum_cutoff_is_accepted(self, monkeypatch):
        def no_oracle(*args, **kwargs):
            raise DomainError("oracle reached")

        monkeypatch.setattr(quasimode.cli, "verify_spectrum", no_oracle)
        assert main(["verify", "--xi", "0.5", "--cutoff-cap", "16384"]) == EXIT_DOMAIN

    @pytest.mark.parametrize("argv", [
        ["figures", "--outdir", "{file}"],
        ["sweep", "dispersion", "--xi", "0", "--k", "1", "--out", "{dir}"],
        ["verify", "--xi", "0.5", "--out", "{dir}"],
    ])
    def test_unwritable_output_is_usage_error(self, argv, tmp_path, capsys):
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        argv = [arg.format(file=a_file, dir=tmp_path) for arg in argv]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        # verify reports each case on stderr before it writes
        lines = [line for line in err.splitlines() if not line.startswith("[ok]")]
        assert len(lines) == 1 and lines[0].startswith("error:")


# Floats at the edges of every domain check, as the CLI reads them.
EDGE_FLOATS = [
    "nan", "inf", "-inf", "0", "-0.0", "-1", "5e-324", "1e-200", "1e200", "-1e200",
    "1e-155", "1e155", "1e9",
]
FUZZ_FLOAT = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(min_value=-4.0, max_value=4.0).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
# Mostly valid polarizations and nonnegative grid points, so that most
# examples reach the kernels.
FUZZ_XI = st.one_of(
    st.sampled_from(["0", "0.5", "1"]), st.floats(min_value=0.0, max_value=1.0).map(repr),
    FUZZ_FLOAT,
)
FUZZ_POINT = st.one_of(
    st.sampled_from(["0", "5e-324", "1e-200", "1e-155", "1e155", "1e200"]),
    st.floats(min_value=0.0, max_value=4.0).map(repr),
    FUZZ_FLOAT,
)


@st.composite
def fuzz_grid(draw) -> str:
    """A value list or range with at most 8 points."""
    if draw(st.booleans()):
        return ",".join(draw(st.lists(FUZZ_POINT, min_size=1, max_size=8)))
    start, stop = draw(FUZZ_POINT), draw(FUZZ_POINT)
    count = draw(st.integers(min_value=1, max_value=8))
    return f"{start}:{stop}:{count}" + draw(st.sampled_from(["", ":log"]))


FUZZ_POSITIVE = st.one_of(
    st.sampled_from(["1", "0.5", "2", "1e-3", "1e3"]),
    st.floats(min_value=1e-3, max_value=1e3).map(repr),
)


class Values(NamedTuple):
    """The strategies an argv draws its values from."""

    float: st.SearchStrategy
    xi: st.SearchStrategy
    grid: st.SearchStrategy
    momentum: st.SearchStrategy
    count: st.SearchStrategy  # --n, --charges and --n-photons


ANY_VALUES = Values(
    FUZZ_FLOAT,
    st.lists(FUZZ_XI, min_size=1, max_size=3).map(",".join),
    fuzz_grid(),
    st.lists(FUZZ_FLOAT, min_size=3, max_size=3).map(",".join),
    st.sampled_from(["0", "1", "2", "5", "-1", HUGE_INT]),
)
# Valid values only, so that the argv reaches the kernels.
VALID_VALUES = Values(
    FUZZ_POSITIVE,
    st.lists(
        st.one_of(st.sampled_from(["0", "0.5", "1"]), st.floats(0.0, 1.0).map(repr)),
        min_size=1, max_size=3,
    ).map(",".join),
    st.one_of(
        st.lists(FUZZ_POSITIVE, min_size=1, max_size=8).map(",".join),
        st.sampled_from(["0.1:3:8", "0.5:4:5:log", "1e-3:1e3:8:log"]),
    ),
    st.lists(st.floats(-4.0, 4.0).map(repr), min_size=3, max_size=3).map(",".join),
    st.sampled_from(["1", "2", "5"]),
)
FUZZ_VALUES = st.sampled_from([ANY_VALUES, VALID_VALUES])
FUZZ_FORMAT = st.sampled_from(["csv", "json"])


def _with_options(draw, argv: list[str], options: dict) -> list[str]:
    """argv plus up to 5 of the options; options use the --name=value form so
    that a leading minus stays a value."""
    for name in draw(st.lists(st.sampled_from(sorted(options)), unique=True, max_size=5)):
        argv.append(f"{name}={draw(options[name])}")
    return argv


@st.composite
def sweep_argv(draw) -> list[str]:
    """A sweep argv from the CLI grammar."""
    v = draw(FUZZ_VALUES)
    quantity = draw(st.sampled_from(QUANTITIES))
    axis = "k" if quantity in K_SWEPT else "omega"
    argv = ["sweep", quantity, f"--xi={draw(v.xi)}", f"--{axis}={draw(v.grid)}"]
    return _with_options(draw, argv, {
        "--units": st.sampled_from(["reduced", "atomic"]),
        "--format": FUZZ_FORMAT,
        "--omega-p": v.float, "--c": v.float, "--mass": v.float, "--hbar": v.float,
        "--d": v.float, "--area": v.float, "--charge": v.float,
        "--p": v.momentum, "--n": v.count, "--charges": v.count, "--n-photons": v.count,
    })


@st.composite
def force_argv(draw) -> list[str]:
    """A `force` argv, at frequencies or at the energy minimum, under either
    scaling."""
    v = draw(FUZZ_VALUES)
    at = ["--at-minimum"] if draw(st.booleans()) else [f"--omega={draw(v.grid)}"]
    scaling = draw(st.sampled_from(["recompute", "frozen"]))
    argv = ["force", f"--xi={draw(v.xi)}", f"--d={draw(v.grid)}", *at, f"--scaling={scaling}"]
    return _with_options(draw, argv, {
        "--format": FUZZ_FORMAT, "--ref-d": v.float, "--area": v.float,
        "--charge": v.float, "--mass": v.float, "--hbar": v.float,
        "--charges": v.count, "--n-photons": v.count,
    })


@st.composite
def spectrum_argv(draw) -> list[str]:
    """A `spectrum` argv with a list of excitation numbers."""
    v = draw(FUZZ_VALUES)
    argv = ["spectrum", f"--xi={draw(v.xi)}", f"--omega={draw(v.grid)}",
            f"--omega-p={draw(v.float)}",
            "--n=" + ",".join(draw(st.lists(v.count, min_size=1, max_size=4)))]
    return _with_options(draw, argv, {
        "--format": FUZZ_FORMAT, "--p": v.momentum,
        "--mass": v.float, "--hbar": v.float, "--c": v.float, "--charges": v.count,
    })


@st.composite
def verify_argv(draw) -> list[str]:
    """A `verify` argv whose oracle cutoffs stay at or below 64."""
    v = draw(FUZZ_VALUES)
    cutoffs = [8, 16, 32, 64]
    levels = v.count
    if v is VALID_VALUES:
        start = draw(st.sampled_from(cutoffs))
        cap = draw(st.sampled_from([c for c in cutoffs if c >= start]))
        levels = st.sampled_from(["1", "2"])  # at most start/4
    else:
        start, cap = draw(st.sampled_from([7, *cutoffs])), draw(st.sampled_from(cutoffs))
    argv = ["verify", f"--cutoff-start={start}", f"--cutoff-cap={cap}"]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        argv.append(f"--p={draw(v.momentum)}")
    values = st.lists(v.float, min_size=1, max_size=2).map(",".join)
    return _with_options(draw, argv, {
        "--xi": v.xi, "--omega": values, "--omega-p": values, "--levels": levels,
        "--tol": st.one_of(st.sampled_from(["1e-6", "1e-3", "1e-12"]), v.float),
    })


def _emitted_floats(text: str, fmt: str) -> list[float]:
    if fmt == "json":
        numbers = []

        def collect(value):
            if isinstance(value, (list, dict)):
                for item in value.values() if isinstance(value, dict) else value:
                    collect(item)
            elif isinstance(value, float):
                numbers.append(value)

        collect(json.loads(text, parse_constant=float))
        return numbers
    numbers = []
    for line in text.splitlines()[1:]:
        for cell in line.split(","):
            try:
                numbers.append(float(cell))
            except ValueError:
                pass
    return numbers


def _column(text: str, fmt: str, name: str) -> list[float]:
    if fmt == "json":
        doc = json.loads(text, parse_constant=float)
        i = doc["columns"].index(name)
        return [row[i] for row in doc["rows"]]
    header, *lines = text.splitlines()
    i = header.split(",").index(name)
    return [float(line.split(",")[i]) for line in lines]


def _assert_domain_error_report(err: str) -> None:
    """err is `domain error: M`, or that line after `domain error at W: M`
    with the same message M."""
    *at, last = err.splitlines(keepends=True)
    assert last.startswith("domain error: ") and last.endswith("\n"), err
    message = last.removeprefix("domain error: ")
    if at:
        (line,) = at
        assert line.startswith("domain error at ") and line.endswith(f": {message}"), err


def _exits_cleanly(argv: list[str], capsys) -> None:
    """argv exits with a contract code, without a traceback or a numpy
    warning, and writes nothing but finite numbers, and only when it
    succeeds; every plate force it writes is repulsive or 0, and a domain
    error is reported as _assert_domain_error_report reads it."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    captured = capsys.readouterr()
    reports = argv[0] == "verify"
    allowed = (EXIT_OK, EXIT_USAGE, EXIT_DOMAIN, *([EXIT_VERIFY_FAILED] if reports else []))
    assert code in allowed, captured.err
    assert "Traceback" not in captured.err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if code == EXIT_DOMAIN:
        _assert_domain_error_report(captured.err)
    if code not in (EXIT_OK, EXIT_VERIFY_FAILED):
        assert captured.out == ""
        return
    fmt = "json" if reports or "--format=json" in argv else "csv"
    assert all(math.isfinite(v) for v in _emitted_floats(captured.out, fmt))
    if "force" in argv[:2]:
        assert all(f >= 0.0 for f in _column(captured.out, fmt, "force"))


CONTRACT = settings(
    max_examples=400, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestSweepContract:
    @given(argv=sweep_argv())
    @example(argv=["sweep", "force", "--xi=0.5", "--omega=1", "--hbar=-1"])
    @CONTRACT
    def test_any_sweep_exits_cleanly_with_finite_output(self, argv, capsys):
        _exits_cleanly(argv, capsys)

    @given(argv=force_argv())
    @example(argv=["force", "--xi=0.5", "--d=1", "--omega=1", "--hbar=-1"])
    @example(argv=["force", "--xi=0.5", "--d=1", "--at-minimum", "--scaling=frozen",
                   "--hbar=-1"])
    @CONTRACT
    def test_any_force_table_exits_cleanly_with_repulsive_forces(self, argv, capsys):
        _exits_cleanly(argv, capsys)

    @given(argv=spectrum_argv())
    @CONTRACT
    def test_any_spectrum_exits_cleanly_with_finite_output(self, argv, capsys):
        _exits_cleanly(argv, capsys)

    @given(argv=verify_argv())
    @settings(CONTRACT, max_examples=150)
    def test_any_verify_exits_cleanly_with_finite_report(self, argv, capsys):
        _exits_cleanly(argv, capsys)


class TestVerifyCommand:
    def test_default_grid_report(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, load_schema("verify_report.schema.json"))
        assert doc["all_converged"] is True
        assert len(doc["cases"]) == 9

    def test_single_diagonal_case(self, tmp_path):
        out = tmp_path / "report.json"
        assert main([
            "verify", "--xi", "1", "--omega", "1", "--omega-p", "0.5",
            "--p", "0,0,0", "--out", str(out),
        ]) == EXIT_OK
        case = json.loads(out.read_text())["cases"][0]
        assert case["cutoff_used"] == 64
        assert case["max_rel_err"] < 1e-12


class TestForceCommand:
    def test_at_minimum_unit_case(self, tmp_path):
        out = tmp_path / "force.csv"
        assert main([
            "force", "--xi", "0", "--d", "1", "--area", str(math.pi),
            "--at-minimum", "--out", str(out),
        ]) == EXIT_OK
        _, rows = read_csv(out)
        assert float(rows[0]["force"]) == pytest.approx(0.5, rel=1e-12)

    def test_frozen_vs_recompute_scaling(self, tmp_path):
        def slope(scaling):
            out = tmp_path / f"{scaling}.csv"
            assert main([
                "force", "--xi", "0.5", "--d", "1:100:25:log", "--area", "2",
                "--at-minimum", "--scaling", scaling, "--out", str(out),
            ]) == EXIT_OK
            _, rows = read_csv(out)
            ds = [math.log(float(r["d"])) for r in rows]
            fs = [math.log(float(r["force"])) for r in rows]
            n = len(ds)
            mean_d, mean_f = sum(ds) / n, sum(fs) / n
            return sum((a - mean_d) * (b - mean_f) for a, b in zip(ds, fs)) / sum(
                (a - mean_d) ** 2 for a in ds
            )

        assert slope("recompute") == pytest.approx(-1.5, abs=1e-6)
        assert slope("frozen") == pytest.approx(-1.0, abs=1e-6)

    def test_minimum_frequency_is_the_library_value(self, tmp_path):
        # at these xi, x ** 0.5 and math.sqrt(x) round k* differently, so the
        # omega cells match only when they take k* from critical_points
        out = tmp_path / "force.csv"
        assert main([
            "force", "--xi", "0.0378,0.6302,0.6642,0.7925,0.9089", "--d", "1,2",
            "--area", "2", "--at-minimum", "--out", str(out),
        ]) == EXIT_OK
        _, rows = read_csv(out)
        assert len(rows) == 10
        for r in rows:
            expected = zero_point_minimum(float(r["xi"]), float(r["omega_p"]))[0]
            assert float(r["omega"]) == expected, r

    def test_omega_zero_circular_is_domain_error(self):
        assert main([
            "force", "--xi", "1", "--d", "1", "--omega", "0",
        ]) == EXIT_DOMAIN

    @pytest.mark.parametrize("argv,count", [
        (["sweep", "force", "--xi", "0,0.5", "--omega", "0.5,2"], 4),
        (["force", "--xi", "0.5", "--d", "1,2", "--omega", "0.5,2"], 4),
        *((["force", "--xi", "0.5", "--d", "1,2", "--at-minimum", "--scaling", scaling], 2)
          for scaling in ("recompute", "frozen")),
    ])
    def test_force_vanishes_at_zero_charge(self, argv, count, tmp_path):
        # the paper's closing claim: with no charge there is no plasma
        # frequency, and the plates feel no force
        out = tmp_path / "force.csv"
        assert main([*argv, "--charge", "0", "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out)
        assert len(rows) == count
        zero = "0.0000000000000000e+00"
        assert {(row["omega_p"], row["force"]) for row in rows} == {(zero, zero)}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("xi", ["0", "0.5", "1"])
    def test_rows_at_omega_are_the_sweep_force_rows(self, xi, fmt, capsys):
        args = ["--xi", xi, "--d", "2", "--omega", "0.1:3:20", "--area", "3",
                "--charges", "2", "--n-photons", "1", "--format", fmt]
        tables = []
        for command in (["force"], ["sweep", "force"]):
            assert main([*command, *args]) == EXIT_OK
            tables.append(table_cells(capsys.readouterr().out, fmt))
        (header, rows), (sweep_header, sweep_rows) = tables
        assert len(rows) == 20
        index = [header.index(name) for name in sweep_header]
        assert [[row[i] for i in index] for row in rows] == sweep_rows

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("mode", [["--omega", "0.1:3:7"], ["--at-minimum"]])
    def test_frozen_at_the_only_separation_is_recompute(self, mode, fmt, capsys):
        # ref_d defaults to the one d, so the frozen omega_p is the plates' own
        argv = ["force", "--xi", "0,0.5,1", "--d", "2.5", "--area", "3", "--charges", "2",
                "--n-photons", "1", *mode, "--format", fmt]
        tables = {}
        for scaling in ("recompute", "frozen"):
            assert main([*argv, "--scaling", scaling]) == EXIT_OK
            header, rows = table_cells(capsys.readouterr().out, fmt)
            i = header.index("scaling")
            assert {row.pop(i) for row in rows} == {scaling}
            tables[scaling] = rows
        assert tables["frozen"] == tables["recompute"]
        assert len(tables["frozen"]) == (21 if mode[0] == "--omega" else 3)

    @pytest.mark.parametrize("argv,flag", [
        (["sweep", "force", "--xi", "0,0.5,1", "--omega", "0.1:3:20", "--d", "2",
          "--area", "3", "--charges", "2"], ["--omega-p", "5"]),
        (["force", "--xi", "0,0.5,1", "--d", "0.5:4:6", "--at-minimum"], ["--ref-d", "inf"]),
        (["force", "--xi", "0,0.5,1", "--d", "0.5:4:6", "--omega", "0.3,1"], ["--ref-d", "3"]),
        (["sweep", "dispersion", "--xi", "0,0.5,1", "--k", "0.3,1"], ["--hbar", "-1"]),
    ])
    def test_inert_flag_changes_no_byte(self, argv, flag, capsys):
        # the plates set omega_p, only frozen scaling reads --ref-d, and only
        # the spectrum and force tables read hbar
        outputs = []
        for extra in ([], flag):
            assert main([*argv, *extra]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestSpectrumCommand:
    def test_levels_equally_spaced(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main([
            "spectrum", "--xi", "0.5", "--omega", "1", "--omega-p", "0.5",
            "--p", "0.2,0.1,0.05", "--n", "0,1,2", "--out", str(out),
        ]) == EXIT_OK
        _, rows = read_csv(out)
        energies = [float(r["energy"]) for r in rows]
        omega_eff = float(rows[0]["effective_omega"])
        assert energies[1] - energies[0] == pytest.approx(omega_eff, rel=1e-12)
        assert energies[2] - energies[1] == pytest.approx(omega_eff, rel=1e-12)

    # Every column but xi and n is 0: no coupling, no mode, no momentum.
    ZERO_ROW = ",".join(["0.0000000000000000e+00", "5.0000000000000000e-01",
                         *["0.0000000000000000e+00"] * 4, "0",
                         *["0.0000000000000000e+00"] * 4])

    @pytest.mark.parametrize("args,code,stderr", [
        (["--xi", "0.5", "--omega", "0"], EXIT_DOMAIN,
         "domain error at xi=0.5, omega=0: effective frequency diverges at omega=0 for xi > 0\n"
         "domain error: effective frequency diverges at omega=0 for xi > 0\n"),
        (["--xi", "0", "--omega", "0"], EXIT_DOMAIN,
         "domain error at xi=0, omega=0: operation requires a positive mode frequency omega\n"
         "domain error: operation requires a positive mode frequency omega\n"),
        (["--xi", "0.5", "--omega", "0", "--omega-p", "0"], EXIT_OK, ""),
        (["--xi", "0.5", "--omega", "1e-305"], EXIT_DOMAIN,
         "domain error at xi=0.5, omega=1e-305: omega^2 underflows to 0 at omega = 1e-305\n"
         "domain error: omega^2 underflows to 0 at omega = 1e-305\n"),
    ])
    def test_zero_and_tiny_mode_frequency(self, args, code, stderr, capsys):
        # Which check fires first at omega = 0 is part of the contract: the
        # divergence at xi > 0 before the positive-frequency requirement.
        assert main(["sweep", "spectrum", *args]) == code
        captured = capsys.readouterr()
        assert captured.err == stderr
        if code == EXIT_OK:
            assert captured.out.splitlines()[1] == self.ZERO_ROW


@pytest.fixture(scope="module")
def figdir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("figs")
    assert main(["figures", "--outdir", str(outdir)]) == EXIT_OK
    return outdir


class TestFiguresCommand:
    def test_all_six_files(self, figdir):
        names = sorted(p.name for p in figdir.glob("*.csv"))
        assert names == [
            "fig1_dispersion.csv",
            "fig2a_rek.csv",
            "fig2b_imk.csv",
            "fig3_velocities.csv",
            "fig4_reflectivity.csv",
            "fig5_energy.csv",
        ]

    def test_linear_dispersion_starts_at_plasma_frequency(self, figdir):
        _, rows = read_csv(figdir / "fig1_dispersion.csv")
        row = next(r for r in rows if float(r["xi"]) == 0.0 and float(r["k_over_kp"]) == 0.0)
        assert float(row["omega_over_wp"]) == 1.0

    def test_imaginary_branch_limits_circular(self, figdir):
        _, rows = read_csv(figdir / "fig2b_imk.csv")
        cp = [r for r in rows if float(r["xi"]) == 1.0 and not r["marker"]]
        first_plus = next(r for r in cp if r["branch"] == "plus")
        first_minus = next(r for r in cp if r["branch"] == "minus")
        assert float(first_plus["im_k_over_kp"]) == pytest.approx(0.707107, abs=1e-4)
        assert float(first_minus["im_k_over_kp"]) == pytest.approx(-0.707107, abs=1e-4)

    def test_velocity_marker_at_dispersion_minimum(self, figdir):
        _, rows = read_csv(figdir / "fig3_velocities.csv")
        marker = next(
            r for r in rows if r["marker"] == "k_star" and float(r["xi"]) == 1.0
        )
        assert float(marker["k_over_kp"]) == pytest.approx(0.707107, abs=1e-6)
        assert float(marker["v_group_over_c"]) == pytest.approx(0.0, abs=1e-10)
        assert float(marker["v_phase_over_c"]) == pytest.approx(2.0, rel=1e-12)

    def test_markers_present_in_every_dataset(self, figdir):
        for name in ("fig1_dispersion", "fig2a_rek", "fig2b_imk",
                     "fig3_velocities", "fig4_reflectivity", "fig5_energy"):
            _, rows = read_csv(figdir / f"{name}.csv")
            assert any(r["marker"] for r in rows), name

    def test_wavenumber_tables_evaluate_each_point_once(self, tmp_path, monkeypatch):
        points = []
        original = quasimode.tables.k_branches_array
        monkeypatch.setattr(
            quasimode.tables, "k_branches_array",
            lambda y, xi: points.append(len(y)) or original(y, xi),
        )
        assert main(["figures", "--outdir", str(tmp_path)]) == EXIT_OK
        # 300 grid frequencies plus the omega~ and omega* markers, per xi,
        # in one call per xi
        assert sum(points) == 4 * (300 + 2)
        assert len(points) == 4

    def test_velocity_tables_evaluate_both_velocities_in_one_call_per_xi(
        self, tmp_path, monkeypatch
    ):
        points = []
        original = quasimode.tables.velocities_array
        monkeypatch.setattr(
            quasimode.tables, "velocities_array",
            lambda x, xi: points.append(len(x)) or original(x, xi),
        )
        assert main(["figures", "--outdir", str(tmp_path)]) == EXIT_OK
        # 300 grid wavenumbers, plus k* where it is positive (xi > 0)
        assert points == [300, 301, 301, 301]
        points.clear()
        assert main(["sweep", "velocity", *XI4, "--k", "0.05:3:40", "--out",
                     str(tmp_path / "v.csv")]) == EXIT_OK
        assert points == [40] * 4

    def test_rerun_is_byte_identical(self, figdir, tmp_path):
        again = tmp_path / "figs2"
        assert main(["figures", "--outdir", str(again)]) == EXIT_OK
        for path in sorted(figdir.glob("*.csv")):
            assert (again / path.name).read_bytes() == path.read_bytes()


class TestRunSweepApi:
    def test_spec_validation_catches_bad_units(self):
        spec = SweepSpec(
            quantity="spectrum", xi_list=(0.5,), grid=(1.0,),
            units="reduced",
        )
        with pytest.raises(SpecError):
            run_sweep(spec)

    @pytest.mark.parametrize("change,message", [
        ({"quantity": "entropy"}, "unknown quantity 'entropy'"),
        ({"units": "si"}, "unknown units 'si'"),
        ({"fmt": "xml"}, "unknown format 'xml'"),
        ({"xi_list": ()}, "at least one xi value is required"),
    ])
    def test_spec_validation_names_the_bad_field(self, change, message, capsys):
        spec = SweepSpec(**{"quantity": "dispersion", "xi_list": (0.5,), "grid": (1.0,), **change})
        with pytest.raises(SpecError) as excinfo:
            run_sweep(spec)
        assert str(excinfo.value) == message
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("quantity", QUANTITIES)
    def test_empty_grid_writes_the_header_only(self, quantity, capsys, monkeypatch):
        def no_columns(*args):
            raise AssertionError("no column may be evaluated")

        monkeypatch.setitem(TABLE, quantity, TABLE[quantity]._replace(evaluate=no_columns))
        units = "atomic" if quantity in ("spectrum", "force") else "reduced"
        run_sweep(SweepSpec(quantity=quantity, xi_list=(0.5,), grid=(), units=units))
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_stdout_output(self, capsys):
        spec = SweepSpec(
            quantity="dispersion", xi_list=(1.0,), grid=(1.0,),
        )
        run_sweep(spec)
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "k_over_kp,xi,omega_over_wp"
        assert "1.5000000000000000e+00" in out


class TestTabulate:
    """tabulate names a grid point only for an error that the empty grid
    does not raise too."""

    AXES = [("xi", (0.5,)), ("omega", (1.0, 2.0, 3.0))]

    def test_error_of_every_grid_names_no_point(self, capsys):
        def always(xi, omega):
            raise DomainError("shared")

        with pytest.raises(DomainError, match="^shared$"):
            tabulate(self.AXES, always)
        assert capsys.readouterr().err == ""

    def test_error_of_one_point_names_it(self, capsys):
        def at_two(xi, omega):
            if (omega == 2.0).any():
                raise DomainError("bad omega")
            return [omega, xi]

        with pytest.raises(DomainError, match="^bad omega$"):
            tabulate(self.AXES, at_two)
        assert capsys.readouterr().err == "domain error at xi=0.5, omega=2: bad omega\n"

    @pytest.mark.parametrize("error", [OverflowError, ZeroDivisionError])
    def test_arithmetic_error_of_one_point_is_a_domain_error_there(
        self, error, tmp_path, capsys, monkeypatch
    ):
        def at_two(spec, units, xi, omega):
            if (omega == 2.0).any():
                raise error("raw")
            return [omega, xi]

        monkeypatch.setitem(TABLE, "wavenumber", TABLE["wavenumber"]._replace(evaluate=at_two))
        out = tmp_path / "table.csv"
        argv = ["sweep", "wavenumber", "--xi", "0.5", "--omega", "1,2,3", "--out", str(out)]
        assert main(argv) == EXIT_DOMAIN
        message = f"result is not a finite float ({error.__name__})"
        assert capsys.readouterr() == (
            "", f"domain error at xi=0.5, omega=2: {message}\ndomain error: {message}\n"
        )
        assert not out.exists()

    def test_error_of_the_empty_grid_is_reported_without_a_point(self, capsys):
        # the spectrum kernel's order: a check of each frequency, then one
        # of an input that every frequency reads
        def spectrum_like(xi, omega):
            if (omega < 0.0).any():
                raise DomainError("mode frequency must be nonnegative, got -1.0")
            raise DomainError("mass must be positive, got -1.0")

        with pytest.raises(DomainError, match="^mass must be positive, got -1.0$"):
            tabulate([("xi", (0.5,)), ("omega", (1.0, -1.0))], spectrum_like)
        assert capsys.readouterr().err == ""
        argv = ["sweep", "spectrum", "--xi", "0.5", "--omega", "1,-1", "--mass", "-1"]
        assert main(argv) == EXIT_DOMAIN
        assert capsys.readouterr() == ("", "domain error: mass must be positive, got -1.0\n")

    @pytest.mark.parametrize("ref_d", [None, 2.0])
    @pytest.mark.parametrize("omega", [None, (1.0, 2.0)])
    def test_force_table_of_no_separation_is_its_header(self, omega, ref_d, monkeypatch):
        def no_force(*args, **kwargs):
            raise AssertionError("no force may be evaluated")

        for kernel in ("force_general", "force_at_minimum"):
            monkeypatch.setattr(quasimode.tables, kernel, no_force)
        spec = SweepSpec(quantity="force", xi_list=(0.5, 1.0), grid=(), units="atomic")
        spec.validate()
        header, blocks = force_columns(spec, omega, ref_d)
        assert header == ["xi", "omega", "d", "area", "n_charges", "n_photons",
                          "scaling", "omega_p", "force"]
        assert blocks == []

    @pytest.mark.parametrize("quantity,units", [
        (quantity, units) for quantity in QUANTITIES for units in ("reduced", "atomic")
        if units == "atomic" or quantity not in ATOMIC_ONLY
    ])
    def test_column_functions_return_empty_columns_on_an_empty_grid(self, quantity, units):
        spec = SweepSpec(
            quantity=quantity, xi_list=(0.5,), grid=(1.0,), units=units, n=(0, 1),
            n_charges=2, momentum=Momentum(0.1, 0.2, 0.3),
        )
        spec.validate()
        block = TABLE[quantity].evaluate(spec, quasimode.tables._units(spec), 0.5, np.empty(0))
        arrays = [column for column in block if isinstance(column, np.ndarray)]
        assert arrays and all(column.size == 0 for column in arrays)


# omega~ and omega* at xi = 0.2 with their nextafter neighbours: the points
# where the branch kernel switches regime, clamps, and builds the double root.
CRITICAL_OMEGAS_XI02 = (
    "0.784464540552736,0.7844645405527361,0.7844645405527362,"
    "1.1766968108291038,1.176696810829104,1.1766968108291043"
)
XI4 = ["--xi", "0,0.2,0.5,1"]
SPECTRUM_ONE = ["--omega-p", "0.5", "--p", "0.2,-0.1,0.05", "--n", "1"]
SPECTRUM_ARGS = [*SPECTRUM_ONE, "--charges", "2"]
FORCE_ARGS = ["--d", "2", "--area", "3", "--charges", "2", "--n-photons", "1"]
FORCE_AT_OMEGA = ["force", "--xi", "0,0.5", "--d", "0.5:4:6", "--omega", "0.3,1,2.5",
                  "--area", "2", "--charges", "3", "--n-photons", "1"]
FROZEN = ["--scaling", "frozen", "--ref-d", "2"]
# 3 xi x 1,500 separations: blocks longer than CHUNK_ROWS, with plates of
# several charges and photons.
FORCE_AT_MINIMUM_LONG = [
    "force", "--xi", "0,0.4,1", "--d", "0.5:80:1500:log", "--at-minimum", "--charge", "1.3",
    "--charges", "3", "--n-photons", "2", "--area", "2.5",
]
# omega = 0 at xi = 0 takes the force's omega -> 0 limit.
FORCE_OMEGA_LIMIT = [
    "sweep", "force", "--xi", "0", "--omega", "0,1e-8,0.5,1,3", "--charges", "2",
    "--n-photons", "1",
]
DISPERSION_REPR_LAYOUTS = [
    "sweep", "dispersion", "--xi", "0,0.5", "--k",
    "1e-6,3.5e-5,0.25,0.5,2,1234567890123456.7,1e16,1.2345e17", "--format", "json",
]
# 600 float cells a block, enough for the JSON float kernel.
DISPERSION_REPR_KERNEL = [
    "sweep", "dispersion", "--xi", "0,0.5", "--k", "1e-6:1e17:300:log", "--format", "json",
]
# omega~ and omega* with their nextafter neighbours at xi = 0, 0.5, 0.99995 and
# 1 (y = 1 exactly is both at xi = 0), evaluated at every one of these xi.
XI_CRITICAL = ["--xi", "0,0.5,0.99995,1"]
CRITICAL_OMEGAS_POSITIVE = (
    "0.9999999999999999,1.0,1.0000000000000002,"
    "0.44721359549995787,0.4472135954999579,0.447213595499958,"
    "1.3416407864998736,1.3416407864998738,1.341640786499874,"
    "3.5356222953848226e-05,3.535622295384823e-05,3.535622295384824e-05,"
    "1.4142135619311311,1.4142135619311313,1.4142135619311316,"
    "1.4142135623730947,1.414213562373095,1.4142135623730951"
)
# omega~ = 0 at xi = 1, and its upper neighbour, are in the wavenumber domain only.
CRITICAL_OMEGAS = "0.0,5e-324," + CRITICAL_OMEGAS_POSITIVE
# k* at xi = 0.5, 0.99995 and 1, reduced; then at xi = 0.2, 0.5 and 1 in atomic
# units with omega_p = 0.7 and c = 137.035999.
K_STAR = "0.05,0.6324555320336759,0.7071067807445837,0.7071067811865476,1.5"
K_STAR_ATOMIC = (
    "0.0002,0.0022400705580835015,0.0032306757031309204,0.003612005242728834,0.01"
)

# k_p = 1/2: the atomic wavenumber column scales damped cells and the
# double root's purely imaginary minus branch.
WAVENUMBER_ATOMIC_CRITICAL = [
    "sweep", "wavenumber", *XI_CRITICAL, "--omega", CRITICAL_OMEGAS, "--units", "atomic",
    "--omega-p", "1", "--c", "2",
]

# sha256 of each command's output, recorded before the sweep, spectrum and
# force commands were merged onto one row table; any byte change fails here.
GOLDEN_DIGESTS = [
    (["sweep", "dispersion", *XI4, "--k", "0.05:3:40"],
     "91e20fe41f433e96e8d9dc1dc574b9a6393c5539a4e3b96940ecc353efb0bbe3"),
    (["sweep", "dispersion", *XI4, "--k", "0.05:3:40", "--format", "json"],
     "896bc4ce0631521341688a91fd9d02dc9df19a9f7394d2c12c9c97c8a9199c72"),
    (["sweep", "velocity", *XI4, "--k", "0.05:3:40"],
     "6d0b8eba89478efc4407e4991893479efc9f4430a1a2365cb6106022ce1de9cd"),
    (["sweep", "velocity", *XI4, "--k", "0.05:3:40", "--format", "json"],
     "d60d61e5a9e2ba2c83ddc25ec754a76f9ec9d77b200eca06dba036759fc93434"),
    (["sweep", "wavenumber", *XI4, "--omega", "0.05:3:40"],
     "01db855e4ae0324cb43c64d0ed4f6f8eddecec5421030972e077b148d7b82684"),
    (["sweep", "wavenumber", *XI4, "--omega", "0.05:3:40", "--format", "json"],
     "4f4154e7756d8af7231824aba9af401c6491e562ff22428e7bab634f762292d7"),
    (["sweep", "dielectric", *XI4, "--omega", "0.05:3:40"],
     "de4f1da9305e46ba5d1c0aef9a9d1ca7b433bfa8b002ba4af2a69b2197102802"),
    (["sweep", "dielectric", *XI4, "--omega", "0.05:3:40", "--format", "json"],
     "b37c8c8fc4e977dc0764577ee27fe3b69bee1b6b579fdb6d6f2bb750c6184d9a"),
    (["sweep", "reflectivity", *XI4, "--omega", "0.05:3:40"],
     "1c38c8e077d0dd9cceae6473c42c1d8ac987d5213f56d3a779548e7ef52363f7"),
    (["sweep", "reflectivity", *XI4, "--omega", "0.05:3:40", "--format", "json"],
     "c36e3aee93cea6b8d6ac49d99ba5f888cad5b0f1b2365a22fed89cbcf50390f8"),
    (["sweep", "dispersion", *XI4, "--k", "0.05:3:40", "--units", "atomic",
      "--omega-p", "0.7"],
     "e5d0b0768b1d8d4638bfd4c4ae87cb532b3a40e829d4a4b183ed3f41fac51533"),
    (["sweep", "dispersion", *XI4, "--k", "0.05:3:40", "--units", "atomic",
      "--omega-p", "0.7", "--format", "json"],
     "0074997fdada11509fda0cd630427b8b8150c42bed5bfd1f4ab3d16989c8299d"),
    (["sweep", "velocity", *XI4, "--k", "0.05:3:40", "--units", "atomic",
      "--omega-p", "0.7"],
     "168ac8121a4f4bfbcfd834db3ccc12ccd7ea4ff05767df12e32fea9318f37985"),
    (["sweep", "wavenumber", *XI4, "--omega", "0.05:2:40", "--units", "atomic",
      "--omega-p", "0.7"],
     "2f5d81a080d8023c75574702524c14105ce741a38d7c9bd557bd12ee71741529"),
    (["sweep", "wavenumber", *XI4, "--omega", "0.05:2:40", "--units", "atomic",
      "--omega-p", "0.7", "--format", "json"],
     "65f28eb7897d830b3c1cb71bc319c3a44a911ae4c690ae0d1bd2980d98104cc8"),
    (["sweep", "dielectric", *XI4, "--omega", "0.05:2:40", "--units", "atomic",
      "--omega-p", "0.7"],
     "f19adccb921fbd52b19df0a46bfdd46aea8e5a4d2782f48f804a0276eaeaf0f0"),
    (["sweep", "reflectivity", *XI4, "--omega", "0.05:2:40", "--units", "atomic",
      "--omega-p", "0.7"],
     "41adb150c647ae834b84a728ea38b02d3fd70b4623b45a8240d7c1823b686879"),
    (["sweep", "spectrum", *XI4, "--omega", "0.1:3:20", *SPECTRUM_ARGS],
     "75f6a1c6064a2bf0b8692937962f1e187ad8cd97a2db27df125a98673afb1044"),
    (["sweep", "spectrum", *XI4, "--omega", "0.1:3:20", *SPECTRUM_ARGS,
      "--format", "json"],
     "66ec2c4c124420289b6d55e838d0f754e1d499c0ac1ae1efaf1f76d551fc633c"),
    (["sweep", "force", *XI4, "--omega", "0.1:3:20", *FORCE_ARGS],
     "29ac7d3cfc12fa34cb8e57b824c48e352e05df6448205b7c5b8a04619f330b55"),
    (["sweep", "force", *XI4, "--omega", "0.1:3:20", *FORCE_ARGS, "--format", "json"],
     "43ad9b50cb5aa63c429b6732625a531cdd6b0db42cfd28021743a73d99fe1325"),
    (["sweep", "wavenumber", "--xi", "0.2", "--omega", CRITICAL_OMEGAS_XI02],
     "b3bbf1ac40b172eb8ad2108aba921a91928f57ae7d40fa3d3640a00915fae85b"),
    (["sweep", "dielectric", "--xi", "0.2", "--omega", CRITICAL_OMEGAS_XI02],
     "fb2631e31a594ad2ea0d39e3d16f3b582aadb0fc651696715d7ee2e11076d62c"),
    (["spectrum", "--xi", "0.2,1", "--omega", "0.5:2:5", "--omega-p", "0.8",
      "--p", "0.1,0.2,0.3", "--n", "0,1,2", "--charges", "2"],
     "45e888f97e83df6516559c22063bb5cff4292e18a9eb36d0c655d9f42b48f281"),
    (["spectrum", "--xi", "0.2,1", "--omega", "0.5:2:5", "--omega-p", "0.8",
      "--p", "0.1,0.2,0.3", "--n", "0,1,2", "--charges", "2", "--format", "json"],
     "4d8f387535c46b4470cef4f3d1d180742aa048234a735d7f95acb6dcea032d52"),
    (FORCE_AT_OMEGA, "5ca228589cfc5d958532af4248f72ec39acecf99d8a91d9b63f131f34631b170"),
    (["force", "--xi", "0.3,1", "--d", "1:100:9:log", "--area", "2", "--at-minimum",
      "--scaling", "frozen"],
     "6ef62b4d26b25893d94a7a3cd3182eb5b16b568ef76265a812c16a8dda827de3"),
    (["force", "--xi", "0.3,1", "--d", "1:100:9:log", "--area", "2", "--at-minimum",
      "--format", "json"],
     "6de59ea72f8a1e4af0ebd2e38d169bc80443535c339d943f427cf52f70602359"),
    (["sweep", "spectrum", *XI4, "--omega", "0.1:3:20", *SPECTRUM_ONE],
     "50d8855865c0542c2e6800289ad348328ebdcc4a5ea3e977e6811ac902fce220"),
    (["sweep", "spectrum", *XI4, "--omega", "0.1:3:20", *SPECTRUM_ONE, "--format", "json"],
     "1885ee2a010e83462266e90e24b7e0b96f78398d1db535a51828ebd98d875b89"),
    # Recorded while the wave tables were still evaluated one point at a time.
    (["sweep", "wavenumber", *XI_CRITICAL, "--omega", CRITICAL_OMEGAS],
     "74bd25a286cdee7b01424829a3103917987bc6f632308c61948def151ded290f"),
    (["sweep", "wavenumber", *XI_CRITICAL, "--omega", CRITICAL_OMEGAS, "--format", "json"],
     "ba9c4834049e338ce3759839cc42fc6af15af0ce1407425491853d1669db47ba"),
    (WAVENUMBER_ATOMIC_CRITICAL,
     "abbe8956c1539830097513e9680486d9e3f42a3fccdb6244b591450bbaa2926f"),
    (["sweep", "dielectric", *XI_CRITICAL, "--omega", CRITICAL_OMEGAS_POSITIVE],
     "dc2d0c2331499e511b6cc5d122b477b8d3e7d85bec7c9164b3e47ad7759a7df0"),
    (["sweep", "dielectric", *XI_CRITICAL, "--omega", CRITICAL_OMEGAS_POSITIVE,
      "--format", "json"],
     "04c022644d9685ccc856af26004c1b8efea8dd338528c1529b2ca209f1d0a7d5"),
    (["sweep", "reflectivity", *XI_CRITICAL, "--omega", CRITICAL_OMEGAS_POSITIVE],
     "5806437b8e770e9a8a3b0b2ef50f940d374add22964c3978444e7fcaba90ca24"),
    (["sweep", "reflectivity", *XI_CRITICAL, "--omega", CRITICAL_OMEGAS_POSITIVE,
      "--format", "json"],
     "1972ed3ca5c3f2ee9cd52304e6e8695c916679474eec2608cd535863f28e8ddf"),
    (["sweep", "dispersion", "--xi", "0.2,0.5,0.99995,1", "--k", K_STAR],
     "ec949f8d8345cdfa52131dced62a57e0fc6b94fb966ae05f5642ac6d33399193"),
    (["sweep", "velocity", "--xi", "0.2,0.5,0.99995,1", "--k", K_STAR],
     "417d85caa81a7614ccc78e188e152c9952959d4527018e4fa3254d4b884566e3"),
    (["sweep", "dispersion", "--xi", "0.2,0.5,1", "--k", K_STAR_ATOMIC, "--units", "atomic",
      "--omega-p", "0.7"],
     "57e204818c3bae3d8b141f31283ca466f4d19107014e6e216f3072575dc27d71"),
    (["sweep", "velocity", "--xi", "0.2,0.5,1", "--k", K_STAR_ATOMIC, "--units", "atomic",
      "--omega-p", "0.7"],
     "8e3cbeda695c6a624db524afb7c1b95c389578e1363bf37f0191d26f9fe0137d"),
    # Recorded while force --omega and sweep force built their force blocks apart.
    ([*FORCE_AT_OMEGA, "--format", "json"],
     "eb0315f113c9df265e77f04ddc2735582efb1ea7ffefeab423dbafe6d7eaa149"),
    ([*FORCE_AT_OMEGA, *FROZEN],
     "0063d0efe74b8ddcd9e1f6a6a5c69a10c4bb526e753232fe2202045eaed2c474"),
    ([*FORCE_AT_OMEGA, *FROZEN, "--format", "json"],
     "f7eae20d20f624e35e0e8680bf9fbfa889241c59811c2eb334aa4c8a3e313c5a"),
    # Recorded while JSON float cells were float.__repr__ per cell: repr's
    # layouts (1e-06, 3.5e-05, 0.25, 2.0, 1234567890123456.8, 1e+16,
    # 1.2345e+17), negative cells, 0.0 and str cells, and a log grid from
    # 1e-6 to 1e17 whose blocks are large enough for the float kernel.
    (DISPERSION_REPR_LAYOUTS,
     "1b8021553ad35e71768e84bf9eb71860cb680bfccde3a9bb140834fd6115bba9"),
    (["sweep", "wavenumber", "--xi", "0,0.5,1", "--omega", "0.1,0.5,1,2", "--format", "json"],
     "df0f90ad6f66f06e0e969cc82f6e4957800fa4ec05d94a0e5fa0de896601c0a8"),
    (DISPERSION_REPR_KERNEL,
     "8f5bb1138c87d44268fde36d2fb651e4e290bf75add2221247150e5d40ada23f"),
    # Recorded while the atomic wavenumber column multiplied by k_p as
    # Python multiplies a complex by a float.
    ([*WAVENUMBER_ATOMIC_CRITICAL, "--format", "json"],
     "6c3aee641672e24677c9248da7090fb5b3fc7c18d4449ca0ecbe0706fccf3751"),
    # Recorded while the force tables called the scalar force kernels and
    # built the plates once per row.
    (FORCE_AT_MINIMUM_LONG,
     "6da83c2d014f83a40a4023288b6511dcd34cb35725cc0a1fad540cdfd7af7e61"),
    ([*FORCE_AT_MINIMUM_LONG, "--format", "json"],
     "4732f7efb5668b2fa20fadd373e149f077d4d5c15c5f84d77be1f64d784d163c"),
    ([*FORCE_AT_MINIMUM_LONG, "--scaling", "frozen", "--ref-d", "3"],
     "ce0c297280366992cca9bd8a4de0a741b70c969501b09da78373d3290578a571"),
    ([*FORCE_AT_MINIMUM_LONG, "--scaling", "frozen", "--ref-d", "3", "--format", "json"],
     "c30e7276c5bfb7f7610b4025328f84df61cb93696bbfe89603c620562c624a05"),
    (FORCE_OMEGA_LIMIT, "30c8cc5a7e195c2dc8aa54c244f60282a43b79cde414c78f39917b77c33adb43"),
    ([*FORCE_OMEGA_LIMIT, "--format", "json"],
     "b6938e6257da4860894520fda2f7f517a046fca9eb5137042227c97b6a729e8a"),
]


@pytest.mark.parametrize(
    "argv,digest",
    GOLDEN_DIGESTS,
    ids=[f"{i:02d}-{argv[0]}-{argv[1]}" for i, (argv, _) in enumerate(GOLDEN_DIGESTS)],
)
def test_golden_output_digest(argv, digest, tmp_path):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv,code", [
    # the dual closed forms disagree because one overflows
    (["force", "--xi", "0.5", "--d", "1", "--charge", "1e200", "--at-minimum"], EXIT_DOMAIN),
    (["verify", "--xi", "0.5", "--tol", "nan"], EXIT_USAGE),
    (["sweep", "wavenumber", "--xi", "0.5", "--omega", "1e100"], EXIT_DOMAIN),
    (GOLDEN_DIGESTS[2][0], EXIT_OK),
    ([*FORCE_AT_OMEGA, *FROZEN], EXIT_OK),
    (DISPERSION_REPR_LAYOUTS, EXIT_OK),
    (DISPERSION_REPR_KERNEL, EXIT_OK),
    (WAVENUMBER_ATOMIC_CRITICAL, EXIT_OK),
    (FORCE_AT_MINIMUM_LONG, EXIT_OK),
])
def test_optimized_interpreter_gives_the_same_result(argv, code):
    # The runtime checks are not assert statements, which python -O drops.
    src = Path(quasimode.__file__).resolve().parents[1]
    plain, optimized = (
        subprocess.run([sys.executable, *flags, "-m", "quasimode.cli", *argv],
                       capture_output=True, env={**os.environ, "PYTHONPATH": str(src)})
        for flags in ([], ["-O"])
    )
    assert plain.returncode == optimized.returncode == code, plain.stderr
    assert (optimized.stdout, optimized.stderr) == (plain.stdout, plain.stderr)
    if code == EXIT_OK:
        digest = {tuple(golden): digest for golden, digest in GOLDEN_DIGESTS}[tuple(argv)]
        assert hashlib.sha256(plain.stdout).hexdigest() == digest
