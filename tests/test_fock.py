import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from quasimode import (
    DomainError,
    FockHamiltonian,
    ModelParams,
    Momentum,
    build_dipole_hamiltonian,
    build_planewave_hamiltonian,
    default_verification_cases,
    energy_level,
    k_branches,
    lowest_eigenvalues,
    omega_physical,
    verify_spectrum,
)

CP_REST = ModelParams(xi=1.0, omega=1.0, omega_p=0.5)
LP_REST = ModelParams(xi=0.0, omega=1.0, omega_p=0.5)
EP_CASE = ModelParams(xi=0.5, omega=1.0, omega_p=0.5)
EP_MOM = Momentum(0.2, 0.1, 0.05)


def dense(band):
    """Full matrix from the upper band form band[2 + i - j, j] = H[i, j]: the
    diagonal and upper triangle as stored, the lower triangle conjugated."""
    dim = band.shape[1]
    h = np.zeros((dim, dim), dtype=complex)
    h[np.diag_indices(dim)] = band[2]
    for offset in (1, 2):
        i = np.arange(dim - offset)
        h[i, i + offset] = band[2 - offset, offset:]
        h[i + offset, i] = np.conj(band[2 - offset, offset:])
    return h


def docstring_dense(params, p, cutoff, plane_wave=False):
    """The truncated Hamiltonian written out entry by entry from the formulas
    in the fock module docstring, independently of the module's band code."""
    quad = params.hbar * params.omega_p**2 / (2.0 * params.omega)
    g = math.sqrt(quad / params.mass)
    xi2 = params.xi**2
    k = params.omega / params.c
    h = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for n in range(cutoff + 1):
        h[n, n] = p.squared / (2.0 * params.mass) + (
            params.hbar * params.omega + quad
        ) * (n + 0.5)
        if plane_wave:
            h[n, n] += -params.hbar * k * p.p_perp / params.mass * (n + 0.5)
            h[n, n] += params.hbar**2 * k**2 / (2.0 * params.mass) * (n + 0.5) ** 2
        if n + 1 <= cutoff:
            h[n, n + 1] = (
                -g * math.sqrt(n + 1) * complex(p.p_major, params.xi * p.p_minor)
                / math.sqrt(1.0 + xi2)
            )
            h[n + 1, n] = h[n, n + 1].conjugate()
        if n + 2 <= cutoff:
            h[n, n + 2] = quad / 2.0 * (1.0 - xi2) / (1.0 + xi2) * math.sqrt(
                (n + 1) * (n + 2)
            )
            h[n + 2, n] = h[n, n + 2].conjugate()
    return h


class TestMatrixStructure:
    @pytest.mark.parametrize(
        "params,p",
        [
            (CP_REST, Momentum()),
            (EP_CASE, EP_MOM),
            (ModelParams(xi=0.3, omega=0.7, omega_p=2.0), Momentum(0.5, -0.4, 0.2)),
        ],
    )
    def test_hermitian_and_pentadiagonal(self, params, p):
        band = build_dipole_hamiltonian(params, p, 32).matrix
        assert band.shape == (3, 33)
        # corners of the band form lie outside the matrix and must stay empty
        assert band[1, 0] == 0.0 and band[0, 0] == 0.0 and band[0, 1] == 0.0
        h = dense(band)
        np.testing.assert_allclose(
            h, docstring_dense(params, p, 32), rtol=1e-14, atol=0
        )
        assert np.max(np.abs(h - h.conj().T)) <= 1e-14
        dim = h.shape[0]
        for i in range(dim):
            for j in range(dim):
                if abs(i - j) > 2:
                    assert h[i, j] == 0.0

    def test_cutoff_floor(self):
        with pytest.raises(DomainError):
            build_dipole_hamiltonian(CP_REST, Momentum(), 4)

    def test_circular_at_rest_is_diagonal(self):
        h = dense(build_dipole_hamiltonian(CP_REST, Momentum(), 16).matrix)
        off = h - np.diag(np.diag(h))
        assert np.max(np.abs(off)) == 0.0
        # levels are (hbar omega + quad)(n + 1/2) = 1.125 (n + 1/2)
        expected = 1.125 * (np.arange(17) + 0.5)
        assert np.allclose(np.diag(h).real, expected, rtol=1e-15)

    def test_band_storage_is_linear_in_cutoff(self):
        # 3 complex values per basis state: no (cutoff+1)^2 allocation
        cutoff = 2**16
        h = build_dipole_hamiltonian(EP_CASE, EP_MOM, cutoff)
        assert h.matrix.nbytes == 3 * (cutoff + 1) * 16


class TestEigensolver:
    def test_known_two_by_two(self):
        # [[1, i], [-i, 1]] (eigenvalues 0 and 2) as the top block of a band
        # whose remaining diagonal lies far above it
        band = np.zeros((3, 9), dtype=complex)
        band[2] = [1.0, 1.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0]
        band[1, 1] = 1j
        h = FockHamiltonian(cutoff=8, matrix=band)
        assert lowest_eigenvalues(h, 2) == pytest.approx([0.0, 2.0], abs=1e-14)

    def test_diagonal_matrix_returns_sorted_diagonal(self):
        h = build_dipole_hamiltonian(CP_REST, Momentum(), 16)
        assert lowest_eigenvalues(h, 4) == pytest.approx(
            [1.125 * (n + 0.5) for n in range(4)], rel=1e-15
        )

    def test_linear_rest_ladder(self):
        h = build_dipole_hamiltonian(LP_REST, Momentum(), 100)
        got = lowest_eigenvalues(h, 3)
        expected = [math.sqrt(1.25) * (n + 0.5) for n in range(3)]
        assert got == pytest.approx(expected, rel=1e-10)
        assert got[0] == pytest.approx(0.5590169943749475, rel=1e-10)

    def test_truncation_guard(self):
        h = build_dipole_hamiltonian(CP_REST, Momentum(), 16)
        with pytest.raises(DomainError, match="cutoff"):
            lowest_eigenvalues(h, 5)
        with pytest.raises(DomainError):
            lowest_eigenvalues(h, 0)

    @pytest.mark.parametrize(
        "build", [build_dipole_hamiltonian, build_planewave_hamiltonian]
    )
    @pytest.mark.parametrize("cutoff", [64, 128, 256, 512, 1024])
    def test_matches_dense_eigvalsh_of_docstring_matrix(self, build, cutoff):
        # strong squeezing, complex linear coupling and longitudinal momentum
        params = ModelParams(xi=0.3, omega=0.7, omega_p=2.0)
        p = Momentum(0.5, -0.4, 0.2)
        got = lowest_eigenvalues(build(params, p, cutoff), 5)
        plane_wave = build is build_planewave_hamiltonian
        reference = np.linalg.eigvalsh(docstring_dense(params, p, cutoff, plane_wave))[:5]
        assert got == pytest.approx(list(reference), rel=1e-10)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_matrix_is_domain_error(self):
        params = ModelParams(xi=1.0, omega=1.0, omega_p=1e154)
        with pytest.raises(DomainError, match="non-finite"):
            lowest_eigenvalues(build_dipole_hamiltonian(params, Momentum(), 64), 5)

    def test_elliptic_with_momentum_matches_analytic_levels(self):
        h = build_dipole_hamiltonian(EP_CASE, EP_MOM, 200)
        got = lowest_eigenvalues(h, 5)
        expected = [energy_level(EP_CASE, EP_MOM, n).energy for n in range(5)]
        assert got == pytest.approx(expected, rel=1e-10)


@st.composite
def real_bands_with_a_zero_off_diagonal(draw):
    """A dipole or plane-wave band that is real with one off-diagonal zero:
    p_major = xi p_minor = 0 at any xi, or xi = 1 with p_minor = 0."""
    xi = draw(st.sampled_from([0.0, 1e-8, 1.0 - 1e-9, 1.0]) | st.floats(0.0, 1.0))
    decades = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
    params = ModelParams(xi=xi, omega=draw(decades), omega_p=draw(decades))
    p_perp = draw(st.floats(-1.0, 1.0))
    if xi == 1.0 and draw(st.booleans()):
        p = Momentum(draw(st.floats(-1.0, 1.0)), 0.0, p_perp)
    else:
        p_minor = draw(st.floats(-1.0, 1.0)) if xi == 0.0 else 0.0
        p = Momentum(0.0, p_minor, p_perp)
    build = draw(st.sampled_from([build_dipole_hamiltonian, build_planewave_hamiltonian]))
    cutoff = draw(st.integers(8, 1024))
    return build(params, p, cutoff), draw(st.integers(1, cutoff // 4))


class TestSolverDispatch:
    """Real bands with a zero off-diagonal go to the real solver, which must
    give the complex solver's eigenvalues bit for bit."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(real_bands_with_a_zero_off_diagonal())
    def test_real_solve_is_the_complex_solve_bit_for_bit(self, case):
        h, count = case
        with np.errstate(over="ignore", invalid="ignore"):
            assume(np.isfinite(h.matrix).all())
        complex_levels = scipy.linalg.eigvals_banded(
            h.matrix, select="i", select_range=(0, count - 1), check_finite=False
        )
        got = lowest_eigenvalues(h, count)
        assert [v.hex() for v in got] == [float(v).hex() for v in complex_levels]

    @pytest.mark.parametrize("params,p,dtype", [
        # real pentadiagonal: its real solve gives other bits
        (LP_REST, Momentum(0.3, 0.0, 0.1), complex),
        (EP_CASE, Momentum(0.3, 0.0, 0.0), complex),
        # p_minor at 0 < xi makes the first off-diagonal imaginary
        (EP_CASE, Momentum(0.0, 0.2, 0.0), complex),
        (CP_REST, Momentum(0.3, 0.2, 0.0), complex),
        (ModelParams(xi=1e-8, omega=1.0, omega_p=0.5), Momentum(0.0, 0.2, 0.0), complex),
        # real, with one off-diagonal zero
        (EP_CASE, Momentum(0.0, 0.0, 0.4), float),
        (LP_REST, Momentum(0.0, 0.2, 0.0), float),
        (CP_REST, Momentum(0.3, 0.0, 0.1), float),
        (CP_REST, Momentum(), float),
    ])
    @pytest.mark.parametrize(
        "build", [build_dipole_hamiltonian, build_planewave_hamiltonian]
    )
    def test_band_reaches_the_solver_as(self, params, p, dtype, build, monkeypatch):
        seen = []
        solve = scipy.linalg.eigvals_banded

        def spy(band, *args, **kwargs):
            seen.append(band)
            return solve(band, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigvals_banded", spy)
        h = build(params, p, 64)
        lowest_eigenvalues(h, 3)
        (band,) = seen
        assert band.dtype == np.dtype(dtype)
        assert np.array_equal(band, h.matrix) and h.matrix.dtype == complex


class TestSpectrumInvariants:
    @pytest.mark.parametrize("params,p", default_verification_cases())
    def test_equal_spacing_and_ground_offset(self, params, p):
        h = build_dipole_hamiltonian(params, p, 128)
        levels = lowest_eigenvalues(h, 6)
        ground = energy_level(params, p, 0)
        omega_eff = ground.Omega
        spacings = [b - a for a, b in zip(levels, levels[1:])]
        for s in spacings:
            assert s == pytest.approx(params.hbar * omega_eff, rel=1e-8)
        # E_0 - p^2/2m - hbar*Omega/2 = -hbar*Omega*|sigma|^2
        offset = levels[0] - p.squared / (2.0 * params.mass) - params.hbar * omega_eff / 2.0
        assert offset == pytest.approx(-params.hbar * omega_eff * ground.sigma_sq, abs=1e-10)

    @pytest.mark.parametrize("params,p", default_verification_cases())
    def test_level_spacing_is_the_dispersion_frequency(self, params, p):
        # The oracle knows nothing of the dispersion relation, so its level
        # spacing checks the quasimode frequency at k = omega/c directly.
        levels = lowest_eigenvalues(build_dipole_hamiltonian(params, p, 256), 3)
        frequency = omega_physical(params.omega / params.c, params.omega_p, params.xi, params.c)
        for lower, upper in zip(levels, levels[1:]):
            assert (upper - lower) / params.hbar == pytest.approx(frequency, rel=1e-12)
        # and the wavenumber branches invert it: one of them is omega/omega_p again
        x = params.omega / params.omega_p
        branches = [b.value for b in k_branches(frequency / params.omega_p, params.xi)]
        assert min(abs(b - x) for b in branches) <= 1e-12 * x, branches

    def test_truncation_error_shrinks_geometrically(self):
        # strong squeezing makes low cutoffs visibly wrong
        params = ModelParams(xi=0.0, omega=0.3, omega_p=3.0)
        p = Momentum(0.2, 0.0, 0.0)
        cutoffs = [8, 16, 32, 64, 128]
        ladders = [
            lowest_eigenvalues(build_dipole_hamiltonian(params, p, c), 2)
            for c in cutoffs
        ]
        diffs = [
            max(abs(a - b) for a, b in zip(lo, hi))
            for lo, hi in zip(ladders, ladders[1:])
        ]
        assert diffs[0] > 1e-6
        for a, b in zip(diffs, diffs[1:]):
            if a < 1e-13:
                break
            assert b < a


class TestPlaneWaveVariant:
    def test_exact_shift_circular_at_rest(self):
        # both variants diagonal: shift per level is (hbar^2 k^2/2m)(n+1/2)^2
        dip = build_dipole_hamiltonian(CP_REST, Momentum(), 64)
        pw = build_planewave_hamiltonian(CP_REST, Momentum(), 64)
        e_dip = lowest_eigenvalues(dip, 8)
        e_pw = lowest_eigenvalues(pw, 8)
        k = CP_REST.omega / CP_REST.c
        recoil = k * k / (2.0 * CP_REST.mass)
        for n, (a, b) in enumerate(zip(e_dip, e_pw)):
            assert b - a == pytest.approx(recoil * (n + 0.5) ** 2, abs=1e-12)

    def test_ground_shift_matches_first_order_perturbation(self):
        # hbar k^2/(2 m omega) = 5e-5
        params = ModelParams(xi=0.0, omega=1.0, omega_p=0.5, mass=1e4)
        p = Momentum()
        e_dip = lowest_eigenvalues(build_dipole_hamiltonian(params, p, 256), 1)[0]
        e_pw = lowest_eigenvalues(build_planewave_hamiltonian(params, p, 256), 1)[0]
        shift = e_pw - e_dip
        s2 = math.sinh(energy_level(params, p, 0).theta) ** 2
        expectation = 3.0 * s2 * s2 + 3.0 * s2 + 0.25  # <(n+1/2)^2> in squeezed vacuum
        recoil = 1.0 / (2.0 * params.mass)
        assert shift == pytest.approx(recoil * expectation, rel=1e-2)

    def test_ground_energy_linear_in_longitudinal_momentum(self):
        # Hellmann-Feynman: dE0/dp_perp at p=0 equals -(hbar k/m) <n + 1/2>
        params = ModelParams(xi=0.5, omega=1.0, omega_p=0.5, mass=100.0)
        k = params.omega / params.c
        h0 = dense(build_planewave_hamiltonian(params, Momentum(), 128).matrix)
        vals, vecs = np.linalg.eigh(h0)
        ground = vecs[:, 0]
        n_expect = float(np.sum(np.abs(ground) ** 2 * (np.arange(129) + 0.5)))
        slope_expected = -params.hbar * k / params.mass * n_expect

        step = 1e-3
        e_hi = lowest_eigenvalues(
            build_planewave_hamiltonian(params, Momentum(p_perp=step), 128), 1
        )[0]
        e_lo = lowest_eigenvalues(
            build_planewave_hamiltonian(params, Momentum(p_perp=-step), 128), 1
        )[0]
        slope_fd = (e_hi - e_lo) / (2.0 * step)
        assert slope_fd == pytest.approx(slope_expected, rel=1e-5)
        assert slope_fd < 0.0

    def test_rest_limit_shift_bounded_by_recoil_term(self):
        # at p=0 the variants differ by a positive-semidefinite diagonal term;
        # first-order perturbation bounds the ground shift from above
        params = ModelParams(xi=0.5, omega=1.0, omega_p=1.0, mass=5.0)
        dip = build_dipole_hamiltonian(params, Momentum(), 128)
        pw = build_planewave_hamiltonian(params, Momentum(), 128)
        shift = lowest_eigenvalues(pw, 1)[0] - lowest_eigenvalues(dip, 1)[0]
        vals, vecs = np.linalg.eigh(dense(dip.matrix))
        ground = vecs[:, 0]
        expectation = float(np.sum(np.abs(ground) ** 2 * (np.arange(129) + 0.5) ** 2))
        k = params.omega / params.c
        bound = params.hbar**2 * k * k / (2.0 * params.mass) * expectation
        assert 0.0 <= shift <= bound * (1.0 + 1e-10) + 1e-12


class TestVerifySpectrum:
    def test_diagonal_case_converges_at_starting_cutoff(self):
        report = verify_spectrum(CP_REST, Momentum(), n_levels=5, tol=1e-6)
        assert report.converged
        assert report.cutoff_used == 64
        assert report.max_rel_err < 1e-12

    def test_headline_linear_case(self):
        params = ModelParams(xi=0.0, omega=1.0, omega_p=0.5)
        report = verify_spectrum(params, Momentum(0.3, 0.0, 0.0), n_levels=5, tol=1e-6)
        assert report.converged

    def test_strong_coupling_case(self):
        params = ModelParams(xi=0.5, omega=1.0, omega_p=2.0)
        report = verify_spectrum(params, EP_MOM, n_levels=5, tol=1e-6)
        assert report.converged

    def test_report_shape(self):
        report = verify_spectrum(EP_CASE, EP_MOM, n_levels=4, tol=1e-6)
        assert len(report.lowest_analytic) == len(report.lowest_numeric) == 4
        assert report.lowest_numeric == sorted(report.lowest_numeric)
        assert report.lowest_analytic == sorted(report.lowest_analytic)

    def test_unattainable_tolerance_reports_failure(self):
        report = verify_spectrum(EP_CASE, EP_MOM, n_levels=5, tol=1e-16, cutoff_cap=256)
        assert not report.converged
        assert report.max_rel_err > 1e-16

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        with pytest.raises(DomainError, match="positive and finite"):
            verify_spectrum(EP_CASE, EP_MOM, tol=tol)

    def test_cap_hit_reported_not_raised(self):
        # strong squeezing: truncation error still visible at the low cap
        params = ModelParams(xi=0.0, omega=0.3, omega_p=3.0)
        report = verify_spectrum(
            params, Momentum(), n_levels=2, tol=1e-10, cutoff_start=8, cutoff_cap=16
        )
        assert not report.converged
        assert report.cutoff_used == 16

    @pytest.mark.parametrize("start,cap", [(64, 100), (8, 12), (8, 16), (64, 64)])
    def test_cutoff_never_exceeds_cap(self, start, cap):
        # the levels keep moving at these cutoffs, so the ladder climbs to the
        # cap; a cap off the doubling ladder is the last rung, not overshot
        params = ModelParams(xi=0.0, omega=0.3, omega_p=3.0)
        report = verify_spectrum(
            params, Momentum(), n_levels=2, tol=1e-16,
            cutoff_start=start, cutoff_cap=cap,
        )
        assert not report.converged
        assert report.cutoff_used == cap

    def test_cap_below_start_is_domain_error(self, monkeypatch):
        built = []
        monkeypatch.setattr(
            "quasimode.fock._base_matrix", lambda *args: built.append(args)
        )
        with pytest.raises(DomainError, match="cutoff cap 64 is below"):
            verify_spectrum(EP_CASE, EP_MOM, cutoff_start=256, cutoff_cap=64)
        assert built == []

    def test_default_grid_has_nine_cases(self):
        cases = default_verification_cases()
        assert len(cases) == 9
        assert {params.xi for params, _ in cases} == {0.0, 0.5, 1.0}
