"""The DomainError text of every parameter check, pinned case by case.

Each input is given as a Python float, a numpy float64, and one- and
three-element arrays where the entry takes an array, so that a change to
the check helpers of quasimode.params cannot reword or reorder a message
for one of these forms.  The suite turns RuntimeWarning into an error, so
no case may warn before it raises."""

import math
import sys

import numpy as np
import pytest

from quasimode import (
    DomainError,
    ModelParams,
    Momentum,
    PlateGeometry,
    energy_level,
    k_branches,
    omega_of_k,
    omega_physical,
    phase_velocity,
)
from quasimode.dispersion import k_branches_array, omega_of_k_array, omega_physical_array
from quasimode.kinematics import velocities_array
from quasimode.spectrum import energy_levels_array
from quasimode.tables import SweepSpec

NAN, INF = math.nan, math.inf
FLOAT_MAX = sys.float_info.max
# The largest float whose square is finite, the next float, and the largest
# int whose square is at most FLOAT_MAX.
ROOT = math.sqrt(FLOAT_MAX)
ABOVE_ROOT = math.nextafter(ROOT, INF)
INT_ROOT = math.isqrt(int(FLOAT_MAX))

FORMS = {
    "float": lambda v: v,
    "float64": np.float64,
    "array1": lambda v: np.array([v]),
    "array3": lambda v: np.array([1.0, v, 2.0]),
}


def _message(call):
    """The text of the DomainError call raises, or None if it returns."""
    try:
        call()
    except DomainError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("field,name,value,message", [
    ("omega", "mode frequency", NAN, "omega must be finite, got nan"),
    ("omega", "mode frequency", INF, "omega must be finite, got inf"),
    ("omega", "mode frequency", -INF, "omega must be finite, got -inf"),
    ("omega", "mode frequency", -1.0, "mode frequency must be nonnegative, got -1.0"),
    ("omega", "mode frequency", -0.0, None),
    ("omega_p", "plasma frequency", NAN, "omega_p must be finite, got nan"),
    ("omega_p", "plasma frequency", INF, "omega_p must be finite, got inf"),
    ("omega_p", "plasma frequency", -INF, "omega_p must be finite, got -inf"),
    ("omega_p", "plasma frequency", -1.0, "plasma frequency must be nonnegative, got -1.0"),
    ("omega_p", "plasma frequency", -0.0, None),
])
def test_model_params_frequency_messages(form, field, name, value, message):
    kwargs = {"omega": 1.0, "omega_p": 1.0, field: FORMS[form](value)}
    assert _message(lambda: ModelParams(0.5, **kwargs)) == message


@pytest.mark.parametrize("field", ["omega", "omega_p"])
@pytest.mark.parametrize("sign", [1, -1])
def test_model_params_int_beyond_the_float_range(field, sign):
    kwargs = {"omega": 1.0, "omega_p": 1.0, field: sign * 10**400}
    assert _message(lambda: ModelParams(0.5, **kwargs)) == f"{field} is too large for a float"


SQUARE_FORMS = {
    "float": lambda v: v,
    "float64": np.float64,
    "array0d": np.array,
    "element": lambda v: np.array([1.0, v]),
}


@pytest.mark.parametrize("form", SQUARE_FORMS)
@pytest.mark.parametrize("field", ["omega", "omega_p"])
def test_square_bound_at_the_root_of_the_largest_float(form, field):
    # ROOT**2 rounds to a finite float, ABOVE_ROOT**2 to inf
    other = "omega_p" if field == "omega" else "omega"
    kwargs = {other: 1.0, field: SQUARE_FORMS[form](ROOT)}
    assert _message(lambda: ModelParams(0.5, **kwargs)) is None
    kwargs[field] = SQUARE_FORMS[form](ABOVE_ROOT)
    pair = (ABOVE_ROOT, 1.0) if field == "omega" else (1.0, ABOVE_ROOT)
    expected = "omega^2 or omega_p^2 overflows at {!r}, {!r}".format(*pair)
    assert _message(lambda: ModelParams(0.5, **kwargs)) == expected


@pytest.mark.parametrize("field", ["omega", "omega_p"])
def test_square_bound_on_ints(field):
    # int(ROOT) + 1 exceeds ROOT, yet its exact square is below FLOAT_MAX
    kwargs = {"omega": 1.0, "omega_p": 1.0, field: int(ROOT) + 1}
    assert _message(lambda: ModelParams(0.5, **kwargs)) is None
    kwargs[field] = INT_ROOT + 1
    expected = f"omega^2 or omega_p^2 overflows at {kwargs['omega']}, {kwargs['omega_p']}"
    assert _message(lambda: ModelParams(0.5, **kwargs)) == expected


def test_scaled_plasma_frequency_square_names_the_scaled_value():
    params = ModelParams(0.5, 1.0, ROOT / 1.5)
    scaled = ROOT / 1.5 * math.sqrt(4)
    assert _message(lambda: energy_level(params, Momentum(), 0, N_charges=4)) == (
        f"omega^2 or omega_p^2 overflows at 1.0, {scaled!r}"
    )
    assert _message(
        lambda: energy_levels_array(0.5, np.array([1.0]), ROOT / 1.5, Momentum(), (0,), 4)
    ) == f"omega_p^2 overflows at {scaled!r}"


@pytest.mark.parametrize("call,nan_message,negative_message", [
    (lambda x: omega_of_k(x, 0.5), "reduced wavenumber must be finite, got nan",
     "reduced wavenumber must be nonnegative, got -1.0"),
    (lambda y: k_branches(y, 0.5), "reduced frequency must be finite, got nan",
     "reduced frequency must be nonnegative, got -1.0"),
    (lambda x: phase_velocity(x, 0.5), "reduced wavenumber must be finite, got nan",
     "phase velocity requires x > 0, got -1.0"),
    (lambda k: omega_physical(k, 0.0, 0.5), "wavenumber must be finite, got nan",
     "wavenumber must be nonnegative, got -1.0"),
], ids=["omega_of_k", "k_branches", "phase_velocity", "omega_physical"])
def test_scalar_kernel_messages(call, nan_message, negative_message):
    assert _message(lambda: call(NAN)) == nan_message
    assert _message(lambda: call(-1.0)) == negative_message


@pytest.mark.parametrize("call,message", [
    (lambda x: omega_of_k_array(x, 0.5), "reduced wavenumber must be finite, got nan"),
    (lambda y: k_branches_array(y, 0.5), "reduced frequency must be finite, got nan"),
    (lambda x: velocities_array(x, 0.5), "reduced wavenumber must be finite, got nan"),
    (lambda k: omega_physical_array(k, 0.0, 0.5), "wavenumber must be finite, got nan"),
], ids=["omega_of_k", "k_branches", "velocities", "omega_physical"])
def test_array_kernels_check_finiteness_before_sign(call, message):
    assert _message(lambda: call(np.array([1.0, -1.0, NAN]))) == message


@pytest.mark.parametrize("call,message", [
    (lambda: Momentum(np.float64(INF)), "p_major must be finite, got inf"),
    (lambda: Momentum(np.array(NAN)), "p_major must be finite, got nan"),
    (lambda: Momentum(0.0, 0.0, -INF), "p_perp must be finite, got -inf"),
    (lambda: SweepSpec("dispersion", (0.5,), (1.0,), mass=NAN).validate(),
     "mass must be finite, got nan"),
    (lambda: SweepSpec("dispersion", (0.5,), (1.0,), charge=-INF).validate(),
     "charge must be finite, got -inf"),
], ids=["momentum-float64", "momentum-0d", "momentum-perp", "spec-mass", "spec-charge"])
def test_named_field_messages(call, message):
    assert _message(call) == message


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("value,message", [
    (NAN, "d must be finite, got nan"),
    (-INF, "d must be finite, got -inf"),
    (-1.0, "plate separation must be positive, got -1.0"),
    (0.0, "plate separation must be positive, got 0.0"),
    (-0.0, "plate separation must be positive, got -0.0"),
])
def test_plate_separation_messages(form, value, message):
    assert _message(lambda: PlateGeometry(d=FORMS[form](value), A=1.0)) == message


@pytest.mark.parametrize("kwargs,message", [
    ({"d": 1.0, "A": 10**400}, "A is too large for a float"),
    ({"d": 1.0, "A": -1}, "plate area must be positive, got -1"),
    ({"d": 1.0, "A": 1.0, "n_photons": -1}, "photon number must be nonnegative, got -1"),
])
def test_plate_field_messages(kwargs, message):
    assert _message(lambda: PlateGeometry(**kwargs)) == message


@pytest.mark.parametrize("call,message", [
    (lambda: ModelParams(0.5, np.array(-1.0)), "mode frequency must be nonnegative, got -1.0"),
    (lambda: ModelParams(0.5, 1.0, np.array(-1.0)),
     "plasma frequency must be nonnegative, got -1.0"),
    (lambda: PlateGeometry(d=np.array(-1.0), A=1.0), "plate separation must be positive, got -1.0"),
    (lambda: PlateGeometry(d=np.array(0.0), A=1.0), "plate separation must be positive, got 0.0"),
], ids=["omega", "omega_p", "d-negative", "d-zero"])
def test_zero_dimensional_arrays_raise_a_domain_error(call, message):
    # These raised IndexError: a 0-d array has no element to index.
    assert _message(call) == message
