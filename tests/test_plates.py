import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quasimode.plates
from quasimode import (
    DomainError,
    PlateGeometry,
    force_at_minimum,
    force_general,
    force_minimum_bohr_form,
    force_minimum_plasma_form,
    plasma_frequency_plates,
    zero_point_minimum,
)

GEOM = st.floats(min_value=0.1, max_value=100.0, allow_nan=False)
XI = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

PI_AREA = PlateGeometry(d=1.0, A=math.pi)


class TestPlasmaFrequencyPlates:
    def test_unit_gap(self):
        assert plasma_frequency_plates(PI_AREA, 1.0, 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_no_charge(self):
        g = PlateGeometry(d=1.0, A=math.pi, N_charges=0)
        assert plasma_frequency_plates(g, 1.0, 1.0) == 0.0

    def test_inverse_sqrt_distance_scaling(self):
        g = PlateGeometry(d=4.0, A=math.pi)
        assert plasma_frequency_plates(g, 1.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_geometry_validation(self):
        with pytest.raises(DomainError):
            PlateGeometry(d=0.0, A=1.0)
        with pytest.raises(DomainError):
            PlateGeometry(d=1.0, A=-1.0)
        with pytest.raises(DomainError):
            PlateGeometry(d=1.0, A=1.0, N_charges=-1)

    @pytest.mark.parametrize("d,area", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan),
                                        (1.0, math.inf)])
    def test_geometry_rejects_non_finite(self, d, area):
        with pytest.raises(DomainError, match="finite"):
            PlateGeometry(d=d, A=area)

    def test_array_geometry_names_a_non_finite_separation_ahead_of_a_negative_one(self):
        with pytest.raises(DomainError) as exc:
            PlateGeometry(d=np.array([-1.0, math.nan]), A=1.0)
        assert str(exc.value) == "d must be finite, got nan"

    @pytest.mark.parametrize("d,area,charge", [
        (1e300, 1e300, 1.0),  # m * A * d overflows
        (1e-300, 1.0, 1e200),  # e / sqrt(m A d) overflows
    ])
    @pytest.mark.parametrize("numpy", [lambda x: np.array([1.0, x]), np.float64],
                             ids=["array", "float64"])
    def test_numpy_geometry_that_overflows_raises_without_a_warning(self, d, area, charge, numpy):
        # numpy's arithmetic must not warn first, even where warnings are errors
        with pytest.raises(DomainError) as scalar:
            plasma_frequency_plates(PlateGeometry(d=d, A=area), charge, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as array:
                plasma_frequency_plates(PlateGeometry(d=numpy(d), A=area), charge, 1.0)
        assert str(array.value) == str(scalar.value)

    @pytest.mark.parametrize("force,message", [
        (lambda x: force_general(x(1e-200), PlateGeometry(d=1.0, A=1.0), 1.0, 1.0, 0.5),
         "(omega_p/omega)^2 is not a positive finite float at omega = 1e-200"),
        (lambda x: force_minimum_bohr_form(PlateGeometry(d=x(1e300), A=1.0), 1.0, 1.0, 0.5),
         "d^(3/2) is not a positive finite float at d = 1e+300"),
    ])
    def test_float64_power_that_overflows_raises_without_a_warning(self, force, message):
        # numpy's scalar power warns where Python's raises OverflowError
        for x in (float, np.float64):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError) as exc:
                    force(x)
            assert str(exc.value) == message

    @pytest.mark.parametrize("n_photons,message", [
        (-1, "photon number must be nonnegative, got -1"),
        (10**400, "n_photons is too large for a float"),
        (10**308, "n_photons is too large: 1 + 2 n_photons overflows"),
    ])
    def test_geometry_rejects_photon_count(self, n_photons, message):
        with pytest.raises(DomainError) as exc:
            PlateGeometry(d=1.0, A=1.0, n_photons=n_photons)
        assert str(exc.value) == message


class TestForceGeneral:
    def test_linear_static_limit_is_maximum(self):
        # omega -> 0 for linear polarization: hbar omega_p / (4 d)
        assert force_general(0.0, PI_AREA, 1.0, 1.0, 0.0) == pytest.approx(0.5, abs=1e-12)
        assert force_general(1e-6, PI_AREA, 1.0, 1.0, 0.0) == pytest.approx(0.5, abs=1e-10)
        for omega in (0.3, 1.0, 5.0):
            assert force_general(omega, PI_AREA, 1.0, 1.0, 0.0) < 0.5

    def test_vanishes_at_high_frequency(self):
        for xi in (0.0, 0.5, 1.0):
            assert force_general(1e8, PI_AREA, 1.0, 1.0, xi) == pytest.approx(0.0, abs=1e-6)

    def test_diverges_at_zero_frequency_for_finite_xi(self):
        with pytest.raises(DomainError):
            force_general(0.0, PI_AREA, 1.0, 1.0, 0.5)

    @pytest.mark.parametrize("omega", [[1.0, 1.0], [1.0, 0.0]])
    def test_array_takes_the_limit_only_at_its_points(self, omega):
        # 4 d overflows at d = 1e308, where omega = 1 needs no limit: no
        # RuntimeWarning (an error in this suite), and a limit at omega = 0
        # keeps the bits of the float
        d = [1e308, 1.0]
        forces = force_general(np.array(omega), PlateGeometry(np.array(d), 1e-10), 1.0, 1.0, 0.0)
        assert forces.tolist() == [
            force_general(w, PlateGeometry(v, 1e-10), 1.0, 1.0, 0.0) for w, v in zip(omega, d)
        ]

    def test_equals_minimum_form_at_minimum_frequency(self):
        wp = plasma_frequency_plates(PI_AREA, 1.0, 1.0)
        assert force_general(wp / math.sqrt(2.0), PI_AREA, 1.0, 1.0, 1.0) == pytest.approx(
            force_at_minimum(PI_AREA, 1.0, 1.0, 1.0), rel=1e-12
        )

    @given(
        omega=st.floats(min_value=1e-3, max_value=1e3),
        d=GEOM, area=GEOM, xi=XI,
    )
    @settings(max_examples=300)
    def test_repulsive_everywhere(self, omega, d, area, xi):
        g = PlateGeometry(d=d, A=area)
        assert force_general(omega, g, 1.0, 1.0, xi) > 0.0

    @given(xi=st.floats(min_value=1e-3, max_value=1.0), d=GEOM)
    @settings(max_examples=200)
    def test_general_force_hits_closed_form_at_minimum_frequency(self, xi, d):
        # evaluating the frequency-dependent force at the energy-minimum
        # frequency omega* reproduces the closed form
        g = PlateGeometry(d=d, A=4.0)
        wp = plasma_frequency_plates(g, 1.0, 1.0)
        omega_star = wp * math.sqrt(xi / (1.0 + xi * xi))
        assert force_general(omega_star, g, 1.0, 1.0, xi) == pytest.approx(
            force_at_minimum(g, 1.0, 1.0, xi), rel=1e-11
        )


class TestForceAtMinimum:
    def test_linear_unit_case(self):
        assert force_at_minimum(PI_AREA, 1.0, 1.0, 0.0) == pytest.approx(0.5, rel=1e-13)

    def test_circular_unit_case(self):
        assert force_at_minimum(PI_AREA, 1.0, 1.0, 1.0) == pytest.approx(
            math.sqrt(2.0) / 2.0, rel=1e-13
        )

    def test_photon_number_enhancement(self):
        g = PlateGeometry(d=1.0, A=math.pi, n_photons=1)
        assert force_at_minimum(g, 1.0, 1.0, 0.0) == pytest.approx(1.5, rel=1e-13)

    @given(d=GEOM, area=GEOM, xi=XI, n=st.integers(min_value=0, max_value=5),
           N=st.integers(min_value=0, max_value=9))
    @settings(max_examples=400)
    def test_dual_closed_forms_agree(self, d, area, xi, n, N):
        g = PlateGeometry(d=d, A=area, N_charges=N, n_photons=n)
        plasma = force_minimum_plasma_form(g, 1.0, 1.0, xi)
        bohr = force_minimum_bohr_form(g, 1.0, 1.0, xi)
        assert bohr == pytest.approx(plasma, rel=1e-12, abs=1e-300)

    def test_disagreeing_closed_forms_raise(self, monkeypatch):
        # An explicit check, not an assert: it must fire under python -O too.
        monkeypatch.setattr(quasimode.plates, "force_minimum_bohr_form", lambda *args: 1.0)
        with pytest.raises(DomainError, match="disagree"):
            force_at_minimum(PI_AREA, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("xi", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("d", [0.3, 1.0, 7.5])
    def test_equals_energy_derivative(self, xi, d):
        # F* = -dE*/dd by central finite difference on the zero-point energy
        area = 2.0
        h = 1e-6 * d

        def e_star(dd):
            g = PlateGeometry(d=dd, A=area)
            wp = plasma_frequency_plates(g, 1.0, 1.0)
            return zero_point_minimum(xi, wp)[1]

        fd = -(e_star(d + h) - e_star(d - h)) / (2.0 * h)
        g = PlateGeometry(d=d, A=area)
        assert force_at_minimum(g, 1.0, 1.0, xi) == pytest.approx(fd, rel=1e-5)

    def test_underflowing_bohr_radius_denominator_is_domain_error(self):
        # m * N e^2 underflows to 0; this raised ZeroDivisionError
        with pytest.raises(DomainError) as exc:
            force_at_minimum(PlateGeometry(d=1.0, A=1.0), 1e-100, 1e-200, 0.5)
        assert str(exc.value) == "m * N e^2 underflows to 0 (m=1e-200, e=1e-100, N=1)"

    def test_vanishes_with_charge(self):
        tiny = force_at_minimum(PI_AREA, 1e-8, 1.0, 1.0)
        unit = force_at_minimum(PI_AREA, 1.0, 1.0, 1.0)
        assert tiny == pytest.approx(1e-8 * unit, rel=1e-12)
        g0 = PlateGeometry(d=1.0, A=math.pi, N_charges=0)
        assert force_at_minimum(g0, 1.0, 1.0, 1.0) == 0.0

    def test_distance_scaling_laws(self):
        ds = np.logspace(math.log10(0.5), math.log10(50.0), 40)
        # recompute mode: omega_p(d) varies, F* ~ d^(-3/2)
        forces = [
            force_at_minimum(PlateGeometry(d=d, A=2.0), 1.0, 1.0, 0.5) for d in ds
        ]
        slope = np.polyfit(np.log(ds), np.log(forces), 1)[0]
        assert slope == pytest.approx(-1.5, abs=1e-3)
        # frozen mode: omega_p fixed at d=1, F* ~ 1/d
        wp0 = plasma_frequency_plates(PlateGeometry(d=1.0, A=2.0), 1.0, 1.0)
        frozen = [
            force_at_minimum(PlateGeometry(d=d, A=2.0), 1.0, 1.0, 0.5, omega_p=wp0)
            for d in ds
        ]
        slope = np.polyfit(np.log(ds), np.log(frozen), 1)[0]
        assert slope == pytest.approx(-1.0, abs=1e-3)


@pytest.mark.parametrize("hbar,message", [
    (0.0, "hbar must be positive, got 0.0"),
    (-1.0, "hbar must be positive, got -1.0"),
    (math.nan, "hbar must be finite, got nan"),
    (math.inf, "hbar must be finite, got inf"),
])
@pytest.mark.parametrize("force", [
    lambda hbar: force_general(1.0, PI_AREA, 1.0, 1.0, 0.5, hbar),
    lambda hbar: force_general(1.0, PI_AREA, 1.0, 1.0, 0.5, hbar, omega_p=2.0),
    # without charge the force would be 0 whatever hbar is
    lambda hbar: force_general(1.0, PI_AREA, 0.0, 1.0, 0.0, hbar),
    lambda hbar: force_minimum_plasma_form(PI_AREA, 1.0, 1.0, 0.5, hbar),
    lambda hbar: force_minimum_bohr_form(PI_AREA, 1.0, 1.0, 0.5, hbar),
    lambda hbar: force_at_minimum(PI_AREA, 1.0, 1.0, 0.5, hbar),
    lambda hbar: force_at_minimum(PI_AREA, 1.0, 1.0, 0.5, hbar, omega_p=2.0),
    lambda hbar: zero_point_minimum(0.5, 1.0, hbar),
], ids=["general", "general-frozen", "general-uncharged", "plasma-form", "bohr-form",
        "at-minimum", "at-minimum-frozen", "zero-point-minimum"])
def test_hbar_must_be_positive_and_finite(force, hbar, message):
    # with hbar <= 0 the force would be attractive, or 0
    with pytest.raises(DomainError) as excinfo:
        force(hbar)
    assert str(excinfo.value) == message
