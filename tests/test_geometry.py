import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import basis_fv, random_fv, random_omega, rng_for
from spincs import (HamiltonianSpec, MonomialTerm, NotFinite, NumericalFailure, PathTooShort,
                    Spin, TimesNotMonotone, ZCoords, action_along_path, coherent_state,
                    gauge_potential, geometric_phase, infinitesimal_overlap, kinetic_term,
                    kinetic_term_z, make_fiducial, one_form, path_velocities, random_fiducial,
                    structure_pair, two_form)


def _fd_kinetic(fv, omega, omega_dot, h=1e-6):
    """Oracle: Re i <psi(t)| d/dt |psi(t)> via symmetric differencing of the
    rotated state."""
    om = np.asarray(omega, dtype=float)
    dot = np.asarray(omega_dot, dtype=float)
    plus = coherent_state(fv, _ea(om + h * dot)).amplitudes
    minus = coherent_state(fv, _ea(om - h * dot)).amplitudes
    here = coherent_state(fv, _ea(om)).amplitudes
    return (1j * np.vdot(here, (plus - minus) / (2 * h))).real


def _ea(triple):
    from spincs import EulerAngles
    return EulerAngles(*triple)


def test_one_form_components():
    rng = rng_for(30)
    fv = random_fv(Spin(3), rng)
    om = random_omega(rng)
    a0, b0 = structure_pair(fv)
    b = np.exp(1j * om.psi) * b0
    k = one_form(fv, om)
    assert_allclose(k.k_phi, a0 * math.cos(om.theta) - b.real * math.sin(om.theta))
    assert_allclose(k.k_theta, b.imag)
    assert_allclose(k.k_psi, a0)


def test_kinetic_term_against_finite_differences():
    rng = rng_for(31)
    for two_s in (1, 2, 4):
        fv = random_fv(Spin(two_s), rng)
        for _ in range(5):
            om = random_omega(rng, theta_margin=0.05, wrap_margin=0.05)
            omega_dot = rng.normal(size=3)
            analytic = kinetic_term(fv, om.as_array(), omega_dot)
            assert_allclose(analytic, _fd_kinetic(fv, om.as_array(), omega_dot),
                            atol=1e-7)


def test_kinetic_term_for_single_m_fiducial():
    # for |m> the one-form is exactly m (dphi cos t + dpsi)
    spin = Spin(4)
    for idx, m in enumerate([2.0, 1.0, 0.0, -1.0, -2.0]):
        fv = basis_fv(spin, idx)
        om = (0.7, 1.1, 0.4)
        dot = (0.3, -0.2, 0.5)
        expected = m * (dot[0] * math.cos(om[1]) + dot[2])
        assert_allclose(kinetic_term(fv, om, dot), expected, atol=1e-14)


def test_two_form_is_derivative_of_one_form():
    rng = rng_for(32)
    fv = random_fv(Spin(3), rng)
    h = 1e-6

    def kappa(phi, theta, psi):
        k = one_form(fv, (phi, theta, psi))
        return np.array([k.k_phi, k.k_theta, k.k_psi])

    for _ in range(5):
        om = random_omega(rng, theta_margin=0.05, wrap_margin=0.05)
        w = two_form(fv, om)
        # partial derivative of component j along coordinate i at om
        jac = np.zeros((3, 3))
        base = np.array([om.phi, om.theta, om.psi])
        for i in range(3):
            step = np.zeros(3)
            step[i] = h
            jac[i] = (kappa(*(base + step)) - kappa(*(base - step))) / (2 * h)
        # coordinates ordered (phi, theta, psi)
        assert_allclose(jac[1, 0] - jac[0, 1], w.w_theta_phi, atol=1e-8)
        assert_allclose(jac[0, 2] - jac[2, 0], w.w_phi_psi, atol=1e-8)
        assert_allclose(jac[2, 1] - jac[1, 2], w.w_psi_theta, atol=1e-8)


def test_gauge_potential_finite_at_poles():
    rng = rng_for(33)
    for two_s in (1, 2, 3):
        for _ in range(5):
            fv = random_fv(Spin(two_s), rng)
            for theta in (0.0, math.pi):
                a = gauge_potential(fv, theta, 0.37, -1.2)
                assert np.isfinite([a.a_theta, a.a_xi, a.a_eta]).all()


def test_gauge_potential_frame_identity():
    # with xi = phi + psi and eta = phi - psi the one-form reads
    # kappa = (a_theta/2) dtheta + (cos(t/2) a_xi / 2) dxi
    #         + (sin(t/2) a_eta / 2) deta, so the frame components relate
    # to the Euler components through the half-angle factors
    rng = rng_for(34)
    for _ in range(5):
        fv = random_fv(Spin(2), rng)
        om = random_omega(rng)
        k = one_form(fv, om)
        a = gauge_potential(fv, om.theta, om.phi + om.psi, om.phi - om.psi)
        ch, sh = math.cos(0.5 * om.theta), math.sin(0.5 * om.theta)
        assert_allclose(0.5 * a.a_theta, k.k_theta, atol=1e-13)
        assert_allclose(ch * a.a_xi, k.k_phi + k.k_psi, atol=1e-12)
        assert_allclose(sh * a.a_eta, k.k_phi - k.k_psi, atol=1e-12)


def test_path_velocities():
    t = np.linspace(0.0, 2.0, 201)
    path = np.column_stack([t, np.sin(t), 0.5 * t, np.cos(2 * t)])
    vel = path_velocities(path)
    assert_allclose(vel[:, 0], np.cos(t), atol=1e-3)
    assert_allclose(vel[:, 1], 0.5, atol=1e-12)
    assert_allclose(vel[:, 2], -2 * np.sin(2 * t), atol=5e-3)
    with pytest.raises(PathTooShort):
        path_velocities(path[:1])
    with pytest.raises(PathTooShort):
        path_velocities(np.zeros((4, 3)))


def test_repeated_or_unordered_times_raise():
    # a repeated time was a zero step: NaN velocities, phase and action
    fv = random_fv(Spin(2), rng_for(36))
    spec = HamiltonianSpec(Spin(2), (MonomialTerm(0, 1, 0, 1.0),))
    repeated = np.array([[0.0, 0.0, 0.9, 0.0], [0.5, 1.0, 0.9, 0.1],
                         [0.5, 2.0, 0.9, 0.2], [1.0, 3.0, 0.9, 0.3]])
    unordered = repeated[[0, 1, 3, 2]]
    for path in (repeated, unordered):
        with pytest.raises(TimesNotMonotone):
            path_velocities(path)
        with pytest.raises(TimesNotMonotone):
            geometric_phase(fv, path)
        with pytest.raises(TimesNotMonotone):
            action_along_path(fv, spec, path)


@pytest.mark.parametrize("column", [0, 1, 2, 3])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_path_row_raises(column, bad):
    # a NaN row made geometric_phase and action_along_path return nan
    fv = random_fv(Spin(2), rng_for(38))
    spec = HamiltonianSpec(Spin(2), (MonomialTerm(0, 1, 0, 1.0),))
    t = np.linspace(0.0, 1.0, 6)
    path = np.column_stack([t, t, 0.9 + t, 0.1 * t])
    path[3, column] = bad
    for call in (path_velocities, lambda p: geometric_phase(fv, p),
                 lambda p: action_along_path(fv, spec, p)):
        with pytest.raises(NotFinite, match="row 3"):
            call(path)


def test_reversed_path_negates_phase():
    fv = random_fv(Spin(2), rng_for(37))
    t = np.linspace(0.0, 1.0, 400)
    path = np.column_stack([t, 2.0 * np.pi * t, 0.9 + 0.2 * t, np.sin(t)])
    assert_allclose(path_velocities(path[::-1]), path_velocities(path)[::-1], atol=1e-12)
    assert_allclose(geometric_phase(fv, path[::-1]), -geometric_phase(fv, path), atol=1e-12)


def test_geometric_phase_latitude_loop():
    # a full latitude loop at fixed theta encloses flux 2 pi m cos(theta)
    # for a single-m fiducial vector
    spin = Spin(4)
    theta = 0.9
    t = np.linspace(0.0, 1.0, 4001)
    phi = 2.0 * math.pi * t
    path = np.column_stack([t, phi, np.full_like(t, theta), np.zeros_like(t)])
    for idx, m in enumerate([2.0, 1.0, 0.0, -1.0, -2.0]):
        fv = basis_fv(spin, idx)
        assert_allclose(geometric_phase(fv, path), 2.0 * math.pi * m * math.cos(theta),
                        atol=1e-9)


def test_geometric_phase_stokes_consistency():
    # line integral around a small rectangle in (theta, phi) ~ enclosed
    # two-form flux
    rng = rng_for(35)
    fv = random_fv(Spin(2), rng)
    th0, ph0 = 1.1, 0.6
    dth, dph = 0.02, 0.03
    n = 400
    legs = []
    # rectangle traversed counterclockwise in (phi, theta)
    u = np.linspace(0.0, 1.0, n)
    legs.append(np.column_stack([u, ph0 + dph * u, np.full(n, th0), np.zeros(n)]))
    legs.append(np.column_stack([u, np.full(n, ph0 + dph), th0 + dth * u, np.zeros(n)]))
    legs.append(np.column_stack([u, ph0 + dph * (1 - u), np.full(n, th0 + dth), np.zeros(n)]))
    legs.append(np.column_stack([u, np.full(n, ph0), th0 + dth * (1 - u), np.zeros(n)]))
    line = sum(geometric_phase(fv, leg) for leg in legs)
    w = two_form(fv, (ph0 + 0.5 * dph, th0 + 0.5 * dth, 0.0))
    flux = w.w_theta_phi * dth * dph * (-1.0)
    # orientation: dphi then dtheta traversal puts dphi^dtheta = -dtheta^dphi
    assert_allclose(line, flux, atol=1e-4 * max(1.0, abs(flux)))


def test_geometric_phase_requires_path():
    fv = make_fiducial(Spin(1), [1.0, 0.0])
    with pytest.raises(PathTooShort):
        geometric_phase(fv, np.array([[0.0, 0.0, 1.0, 0.0]]))


# the overflow probes: under the RuntimeWarning filter of the test run, each
# raised the bare warning (and otherwise returned inf or nan)
_OVERFLOW_FV = random_fiducial(Spin(2), np.random.default_rng(7))


@pytest.mark.parametrize("path, row", [
    ([[0.0, 0.1, 0.2, 0.3], [1e-300, 1e300, 0.2, 0.3]], 0),
    ([[0.0, 1e308, 0.2, 0.3], [1.0, -1e308, 0.2, 0.3], [2.0, 1e308, 0.2, 0.3]], 0),
], ids=["step_1e300", "phi_pm_1e308"])
def test_overflowed_velocity_raises_numerical_failure(path, row):
    spec = HamiltonianSpec(Spin(2), (MonomialTerm(0, 1, 0, 1.0),))
    for call in (path_velocities, lambda p: geometric_phase(_OVERFLOW_FV, p),
                 lambda p: action_along_path(_OVERFLOW_FV, spec, p)):
        with pytest.raises(NumericalFailure, match=f"velocity at path row {row}"):
            call(path)


def test_overflowed_kinetic_term_raises_numerical_failure():
    # finite velocities whose contraction with n_fv, or whose z-chart map
    # dz/z near the origin, passes the float range
    with pytest.raises(NumericalFailure, match="omega_dot"):
        kinetic_term(_OVERFLOW_FV, (0.1, 0.2, 0.3), (1e308, 1e308, 1e308))
    with pytest.raises(NumericalFailure, match="z_dot"):
        kinetic_term_z(_OVERFLOW_FV, ZCoords(2e-9, 2e-9), (1e308, 0.0))
    # OneForm.contract returned -inf here, with a bare overflow warning
    lowest = make_fiducial(Spin(8), [0.0] * 8 + [1.0])
    with pytest.raises(NumericalFailure, match="omega_dot"):
        one_form(lowest, (0.3, 1.1, 0.7)).contract((0.0, 0.0, 1.7e308))
    path = [[0.0, 0.0, 0.2, 0.3], [1.0, 1.7e308, 0.2, 1.7e308]]
    with pytest.raises(NumericalFailure):
        geometric_phase(_OVERFLOW_FV, path)


@pytest.mark.parametrize("velocity", [
    np.array([0.1, 0.2 + 0.5j, 0.3]), [0.1, 0.2 + 0.5j, 0.3], [0.1, np.complex128(0.2), 0.3],
], ids=["array", "list", "zero_imaginary"])
def test_complex_velocity_raises_type_error(velocity):
    # a complex numpy velocity lost its imaginary part to a cast, with only
    # a ComplexWarning; a list of complex values met numpy's float() message
    fv = random_fv(Spin(2), rng_for(23))
    with pytest.raises(TypeError, match="omega_dot must be real"):
        kinetic_term(fv, (0.3, 1.1, 0.7), velocity)
    with pytest.raises(TypeError, match="delta_omega must be real"):
        infinitesimal_overlap(fv, (0.3, 1.1, 0.7), velocity)


def test_one_form_contract_reads_the_velocity_rule():
    # a complex velocity lost its imaginary part with only a ComplexWarning
    fv = random_fv(Spin(2), rng_for(23))
    k = one_form(fv, (0.3, 1.1, 0.7))
    with pytest.raises(TypeError, match="omega_dot must be real"):
        k.contract(np.array([0.5j, 0.0, 0.0]))
    value = k.contract((0.1, 0.2, 0.3))
    assert isinstance(value, float)
    assert_allclose(value, kinetic_term(fv, (0.3, 1.1, 0.7), (0.1, 0.2, 0.3)), rtol=1e-14)
    assert_allclose(k.contract(np.eye(3)), [k.k_phi, k.k_theta, k.k_psi], rtol=0, atol=0)


def test_action_over_a_1e308_step():
    # the spacing 2 dt of np.gradient overflowed, though the angles do not
    # move: the phase is 0 and the action is minus the energy trapezoid,
    # 1e308 <H> with <H> = c at |m=1>, theta = 0.  At c = 2 it passes the
    # float range
    fv = basis_fv(Spin(2), 0)
    path = np.array([[0.0, 0.1, 0.0, 0.3], [1e308, 0.1, 0.0, 0.3]])
    assert geometric_phase(fv, path) == 0.0
    for coeff in (1.0, -1.0):
        spec = HamiltonianSpec(Spin(2), (MonomialTerm(0, 1, 0, coeff),))
        assert_allclose(action_along_path(fv, spec, path), -coeff * 1e308, rtol=1e-14)
    spec = HamiltonianSpec(Spin(2), (MonomialTerm(0, 1, 0, 2.0),))
    with pytest.raises(NumericalFailure, match="action overflows"):
        action_along_path(fv, spec, path)
