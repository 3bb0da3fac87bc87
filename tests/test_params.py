import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quasimode import (
    DomainError,
    ModelParams,
    PlateGeometry,
    critical_points,
    derived_constants,
    force_at_minimum,
    force_general,
    k_branches,
    omega_physical,
    plasma_frequency_plates,
    polarization_weight,
    reflectivity,
    zero_point_minimum,
)
from quasimode.params import _nonnegative, _positive

XI = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def _gap_of_volume(V):
    """Plates whose gap volume A * d is V."""
    return PlateGeometry(d=2.0, A=V / 2.0)


class TestPlasmaFrequencyFromVolume:
    # omega_p = sqrt(4 pi e^2 / (m V)) of a volume V = A * d
    def test_unit_example(self):
        # omega_p^2 = 4 pi / pi = 4
        assert plasma_frequency_plates(_gap_of_volume(math.pi), 1.0, 1.0) == pytest.approx(
            2.0, rel=1e-15
        )

    def test_zero_charge(self):
        assert plasma_frequency_plates(_gap_of_volume(1.0), 0.0, 1.0) == 0.0

    def test_large_volume_limit(self):
        # free photon restored as V -> infinity
        assert plasma_frequency_plates(_gap_of_volume(1e30), 1.0, 1.0) < 1e-14

    @pytest.mark.parametrize("e,m,V", [(1, 0, 1), (1, -1, 1), (1, 1, 0), (1, 1, -2), (-1, 1, 1)])
    def test_domain_errors(self, e, m, V):
        with pytest.raises(DomainError):
            plasma_frequency_plates(_gap_of_volume(V), e, m)


class TestDerivedConstants:
    # The polarization closed forms at each point are those of
    # polarization_weight (q) and critical_points (kappa = omega_star).
    def test_circular_endpoint(self):
        dc = derived_constants(ModelParams(xi=1.0, omega=1.0, omega_p=1.0))
        assert (dc.g, dc.quad) == (math.sqrt(0.5), 0.5)
        assert polarization_weight(1.0) == pytest.approx(0.25, abs=0)
        assert critical_points(1.0).omega_star == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_linear_endpoint(self):
        dc = derived_constants(ModelParams(xi=0.0, omega=1.0, omega_p=1.0))
        assert (dc.g, dc.quad) == (math.sqrt(0.5), 0.5)
        assert polarization_weight(0.0) == 0.0
        assert critical_points(0.0).omega_star == 1.0

    def test_elliptic_midpoint(self):
        # independent high-precision evaluation of the closed forms
        dc = derived_constants(ModelParams(xi=0.5, omega=1.0, omega_p=1.0))
        assert (dc.g, dc.quad) == (math.sqrt(0.5), 0.5)
        assert polarization_weight(0.5) == pytest.approx(0.16, rel=1e-15)
        assert critical_points(0.5).omega_star == pytest.approx(1.3416407864998738, rel=1e-15)

    def test_requires_omega(self):
        with pytest.raises(DomainError):
            derived_constants(ModelParams(xi=0.5, omega_p=1.0))

    @given(
        xi=XI,
        omega=st.floats(min_value=1e-3, max_value=1e3),
        omega_p=st.floats(min_value=0.0, max_value=1e3),
        mass=st.floats(min_value=1e-2, max_value=1e2),
        hbar=st.floats(min_value=1e-2, max_value=1e2),
    )
    def test_coupling_identities(self, xi, omega, omega_p, mass, hbar):
        dc = derived_constants(
            ModelParams(xi=xi, omega=omega, omega_p=omega_p, mass=mass, hbar=hbar)
        )
        # quad / (hbar omega) = omega_p^2 / (2 omega^2)
        assert dc.quad / (hbar * omega) == pytest.approx(
            omega_p**2 / (2.0 * omega**2), rel=1e-14, abs=1e-300
        )
        # m g^2 = quad (both equal hbar omega_p^2 / (2 omega))
        assert mass * dc.g**2 == pytest.approx(dc.quad, rel=1e-14, abs=1e-300)


class TestPolarizationFunctions:
    @given(xi=st.floats(min_value=1e-6, max_value=1.0))
    def test_q_symmetric_under_inversion(self, xi):
        inv = 1.0 / xi
        q_inv = inv * inv / (1.0 + inv * inv) ** 2
        assert polarization_weight(xi) == pytest.approx(q_inv, rel=1e-12)

    def test_q_monotone_on_unit_interval(self):
        xs = [i / 200 for i in range(201)]
        qs = [polarization_weight(x) for x in xs]
        assert all(a < b for a, b in zip(qs, qs[1:]))
        assert qs[0] == 0.0
        assert qs[-1] == 0.25

    def test_kappa_monotone_with_endpoints(self):
        xs = [i / 200 for i in range(201)]
        ks = [critical_points(x).omega_star for x in xs]
        assert ks[0] == 1.0
        assert ks[-1] == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert all(a < b for a, b in zip(ks, ks[1:]))

    @pytest.mark.parametrize("xi", [-0.1, 1.1, 2.0, -1e-9])
    def test_xi_rejected_not_clamped(self, xi):
        with pytest.raises(DomainError):
            polarization_weight(xi)


class TestModelParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"xi": 1.5},
            {"xi": 0.5, "omega": -1.0},
            {"xi": 0.5, "omega_p": -1.0},
            {"xi": 0.5, "mass": 0.0},
            {"xi": 0.5, "hbar": 0.0},
            {"xi": 0.5, "c": -1.0},
            {"xi": 0.5, "omega": math.nan},
            {"xi": 0.5, "omega_p": math.inf},
            {"xi": 0.5, "mass": math.inf},
            {"xi": 0.5, "hbar": math.nan},
            {"xi": 0.5, "c": math.inf},
            {"xi": 0.5, "omega_p": 1e200},
            {"xi": 0.5, "omega": 1e155},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            ModelParams(**kwargs)

    @pytest.mark.parametrize("omega,message", [
        ([1.0, -2.0, math.nan], "omega must be finite, got nan"),
        ([1.0, -2.0, -3.0], "mode frequency must be nonnegative, got -2.0"),
    ])
    def test_array_of_frequencies_names_the_first_element_of_the_earliest_check(
        self, omega, message
    ):
        with pytest.raises(DomainError) as exc:
            ModelParams(xi=0.5, omega=np.array(omega), omega_p=1.0)
        assert str(exc.value) == message

    @pytest.mark.parametrize("omega,omega_p", [(1e155, 0.0), (1e200, 1.0)])
    @pytest.mark.parametrize("numpy", [lambda x: np.array([1.0, x]), np.float64],
                             ids=["array", "float64"])
    def test_numpy_square_that_overflows_raises_without_a_warning(self, omega, omega_p, numpy):
        # numpy's product must not warn first, even where warnings are errors
        with pytest.raises(DomainError) as scalar:
            ModelParams(xi=0.5, omega=omega, omega_p=omega_p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as array:
                ModelParams(xi=0.5, omega=numpy(omega), omega_p=omega_p)
        assert str(array.value) == str(scalar.value)


PLATES = PlateGeometry(d=1.0, A=1.0)
NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("call", [
    pytest.param(lambda: k_branches(NAN, 0.5), id="classify_regime-nan"),
    pytest.param(lambda: k_branches(INF, 0.5), id="classify_regime-inf"),
    pytest.param(lambda: reflectivity(complex(NAN, 0.0)), id="reflectivity-nan"),
    pytest.param(lambda: reflectivity(complex(INF, 0.0)), id="reflectivity-inf"),
    pytest.param(lambda: plasma_frequency_plates(PLATES, NAN, 1.0), id="plates-charge-nan"),
    pytest.param(lambda: plasma_frequency_plates(PLATES, 1.0, NAN), id="plates-mass-nan"),
    pytest.param(lambda: force_general(NAN, PLATES, 1.0, 1.0, 0.5), id="force-omega-nan"),
    pytest.param(
        lambda: force_general(1.0, PLATES, 1.0, 1.0, 0.5, omega_p=NAN), id="force-omega_p-nan"
    ),
    pytest.param(
        lambda: force_general(1e-200, PLATES, 1.0, 1.0, 0.5), id="force-ratio-overflow"
    ),
    pytest.param(
        lambda: force_at_minimum(PLATES, 1.0, 1.0, 0.5, omega_p=NAN), id="minimum-omega_p-nan"
    ),
    pytest.param(lambda: zero_point_minimum(0.5, NAN), id="zero_point-omega_p-nan"),
    pytest.param(lambda: omega_physical(1.0, 0.0, 0.5, c=INF), id="omega_physical-c-inf"),
])
def test_kernel_entry_rejects_non_finite(call):
    # Each call returned NaN or inf, a wrong regime, or raised OverflowError.
    with pytest.raises(DomainError, match="finite"):
        call()


@pytest.mark.parametrize("kwargs,message", [
    ({"omega": 10**400}, "omega is too large for a float"),
    ({"omega_p": -(10**400)}, "omega_p is too large for a float"),
    ({"mass": 10**400}, "mass is too large for a float"),
    # the int fits a float, its square does not
    ({"omega": 10**200}, "omega^2 or omega_p^2 overflows at 1" + "0" * 200 + ", 0.0"),
])
def test_model_params_rejects_ints_beyond_the_float_range(kwargs, message):
    # These raised OverflowError from math.isinf.
    with pytest.raises(DomainError) as exc:
        ModelParams(xi=0.5, **kwargs)
    assert str(exc.value) == message


@pytest.mark.parametrize("check,what", [(_positive, "positive"), (_nonnegative, "nonnegative")])
@pytest.mark.parametrize("values,message", [
    ([-1.0, NAN], "d must be finite, got nan"),
    ([NAN, -1.0], "d must be finite, got nan"),
    ([-1.0, 2.0, -INF], "d must be finite, got -inf"),
    ([1.0, -2.0, -3.0], "plate separation must be {}, got -2.0"),
])
def test_array_checks_name_the_first_element_of_the_earliest_check(check, what, values, message):
    # finiteness is checked over the whole array before the sign
    with pytest.raises(DomainError) as exc:
        check(np.array(values), "plate separation", "d")
    assert str(exc.value) == message.format(what)
