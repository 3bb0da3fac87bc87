import json
import math
from pathlib import Path

import jsonschema
import pytest

import quasimode
from quasimode import energy_level, ModelParams, Momentum
from quasimode.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    GridSpec,
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
        grid = parse_grid("0.01:3:300")
        values = grid.resolve()
        assert len(values) == 300
        assert values[0] == pytest.approx(0.01)
        assert values[-1] == pytest.approx(3.0)

    def test_log_range(self):
        values = parse_grid("0.1:100:4:log").resolve()
        assert values == pytest.approx([0.1, 1.0, 10.0, 100.0], rel=1e-12)

    def test_explicit_list_and_single_value(self):
        assert parse_grid("0,0.2,1").resolve() == [0.0, 0.2, 1.0]
        assert parse_grid("1.5").resolve() == [1.5]

    @pytest.mark.parametrize("text", ["1:2:1", "3:1:10", "a:b:c", "0:1:10:cubic", "-1:1:5:log"])
    def test_invalid_ranges(self, text):
        with pytest.raises(SpecError):
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

    def test_rerun_is_byte_identical(self, figdir, tmp_path):
        again = tmp_path / "figs2"
        assert main(["figures", "--outdir", str(again)]) == EXIT_OK
        for path in sorted(figdir.glob("*.csv")):
            assert (again / path.name).read_bytes() == path.read_bytes()


class TestRunSweepApi:
    def test_spec_validation_catches_bad_units(self):
        spec = SweepSpec(
            quantity="spectrum", xi_list=(0.5,), grid=GridSpec(values=(1.0,)),
            units="reduced",
        )
        with pytest.raises(SpecError):
            run_sweep(spec)

    def test_stdout_output(self, capsys):
        spec = SweepSpec(
            quantity="dispersion", xi_list=(1.0,), grid=GridSpec(values=(1.0,)),
        )
        run_sweep(spec)
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "k_over_kp,xi,omega_over_wp"
        assert "1.5000000000000000e+00" in out
