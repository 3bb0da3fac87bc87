import hashlib
import json
import math
import warnings
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import quasimode
import quasimode.figures
from quasimode import DomainError, energy_level, ModelParams, Momentum, zero_point_minimum
from quasimode.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    K_SWEPT,
    QUANTITIES,
    SpecError,
    SweepSpec,
    main,
    parse_grid,
    run_sweep,
)

SCHEMA_DIR = Path(quasimode.__file__).parent / "schemas"


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


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
          "--c", "1e-10", "--omega", "1e300,-1e300"],
         "xi=0.5, omega=1e+300", "result is not a finite float"),
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
        # k_p = omega_p/c overflows, so k/k_p is 0
        (["sweep", "dispersion", "--xi", "0.2", "--k", "1", "--units", "atomic",
          "--omega-p", "1e300", "--c", "1e-10"],
         "xi=0.2, k=1", "dispersion is singular at k=0 for xi > 0"),
        # k_p = omega_p/c underflows to 0
        (["sweep", "dispersion", "--xi", "0.2", "--k", "1", "--units", "atomic",
          "--omega-p", "1e-300", "--c", "1e100"],
         "xi=0.2, k=1", "result is not a finite float (ZeroDivisionError)"),
        (["sweep", "velocity", "--xi", "0", "--k", "1,0"],
         "xi=0, k=0", "phase velocity requires x > 0, got 0.0"),
        (["sweep", "velocity", "--xi", "0.5", "--k", "1,1e-80"],
         "xi=0.5, k=1e-80", "phase velocity is not a finite float at x = 1e-80"),
        (["sweep", "velocity", "--xi", "0", "--k", "1,1e-170"],
         "xi=0, k=1e-170", "x^4 underflows to 0 at x = 1e-170"),
        (["sweep", "velocity", "--xi", "0.5", "--k", "1", "--units", "atomic",
          "--omega-p", "1e-300", "--c", "1e100"],
         "xi=0.5, k=1", "result is not a finite float (ZeroDivisionError)"),
        # the first point's velocity overflows in atomic units; the second is negative
        (["sweep", "velocity", "--xi", "0", "--k", "5e-309,-1", "--units", "atomic",
          "--omega-p", "1", "--c", "1e308"],
         "xi=0, k=5e-309", "result is not a finite float"),
        (["force", "--xi", "1", "--d", "1,2", "--omega", "1,0"],
         "xi=1, d=1, omega=0", "plate force diverges at omega=0 for xi > 0"),
    ])
    def test_domain_error_names_the_first_failing_point(self, argv, where, message, capsys):
        assert main(argv) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"domain error at {where}: {message}\ndomain error: {message}\n"

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
def sweep_argv(draw) -> list[str]:
    """A sweep argv from the CLI grammar with at most 8 grid points; options
    use the --name=value form so that a leading minus stays a value."""
    quantity = draw(st.sampled_from(QUANTITIES))
    axis = "k" if quantity in K_SWEPT else "omega"
    if draw(st.booleans()):
        grid = ",".join(draw(st.lists(FUZZ_POINT, min_size=1, max_size=8)))
    else:
        start, stop = draw(FUZZ_POINT), draw(FUZZ_POINT)
        count = draw(st.integers(min_value=1, max_value=8))
        grid = f"{start}:{stop}:{count}" + draw(st.sampled_from(["", ":log"]))
    xi = ",".join(draw(st.lists(FUZZ_XI, min_size=1, max_size=3)))
    argv = ["sweep", quantity, f"--xi={xi}", f"--{axis}={grid}"]
    options = {
        "--units": st.sampled_from(["reduced", "atomic"]),
        "--format": st.sampled_from(["csv", "json"]),
        "--omega-p": FUZZ_FLOAT, "--c": FUZZ_FLOAT, "--mass": FUZZ_FLOAT,
        "--hbar": FUZZ_FLOAT, "--d": FUZZ_FLOAT, "--area": FUZZ_FLOAT, "--charge": FUZZ_FLOAT,
        "--p": st.lists(FUZZ_FLOAT, min_size=3, max_size=3).map(",".join),
        "--n": st.sampled_from(["0", "1", "5", "-1"]),
        "--charges": st.sampled_from(["1", "2", "0", "-1"]),
        "--n-photons": st.sampled_from(["0", "1", "-1"]),
    }
    for name in draw(st.lists(st.sampled_from(sorted(options)), unique=True, max_size=5)):
        argv.append(f"{name}={draw(options[name])}")
    return argv


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


class TestSweepContract:
    @given(argv=sweep_argv())
    @settings(
        max_examples=400, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_any_sweep_exits_cleanly_with_finite_output(self, argv, capsys):
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
        captured = capsys.readouterr()
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_DOMAIN), captured.err
        assert "Traceback" not in captured.err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if code != EXIT_OK:
            assert captured.out == ""
            return
        fmt = "json" if "--format=json" in argv else "csv"
        assert all(math.isfinite(v) for v in _emitted_floats(captured.out, fmt))


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
        original = quasimode.cli.k_branches_array
        monkeypatch.setattr(
            quasimode.cli, "k_branches_array",
            lambda y, xi: points.append(len(y)) or original(y, xi),
        )
        assert main(["figures", "--outdir", str(tmp_path)]) == EXIT_OK
        # 300 grid frequencies plus the omega~ and omega* markers, per xi
        assert sum(points) == 4 * (300 + 2)

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

    @pytest.mark.parametrize("quantity", QUANTITIES)
    def test_empty_grid_writes_the_header_only(self, quantity, capsys):
        units = "atomic" if quantity in ("spectrum", "force") else "reduced"
        run_sweep(SweepSpec(quantity=quantity, xi_list=(0.5,), grid=(), units=units, charge=-1.0))
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_stdout_output(self, capsys):
        spec = SweepSpec(
            quantity="dispersion", xi_list=(1.0,), grid=(1.0,),
        )
        run_sweep(spec)
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "k_over_kp,xi,omega_over_wp"
        assert "1.5000000000000000e+00" in out


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
    (["force", "--xi", "0,0.5", "--d", "0.5:4:6", "--omega", "0.3,1,2.5", "--area", "2",
      "--charges", "3", "--n-photons", "1"],
     "5ca228589cfc5d958532af4248f72ec39acecf99d8a91d9b63f131f34631b170"),
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
    (["sweep", "wavenumber", *XI_CRITICAL, "--omega", CRITICAL_OMEGAS, "--units", "atomic",
      "--omega-p", "1", "--c", "2"],
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
