"""kappa = n_fv . omega_body against references that share no code with it:
omega_body by central differences of su2_matrix's g^-1 dg/dt, n_fv from
the dense spin operators, d kappa from np.cross, and the chart velocities
from their exact analytic maps."""

import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import basis_fv, random_fv, rng_for
from spincs import (EulerAngles, Spin, gauge_potential, infinitesimal_overlap, kinetic_term,
                    kinetic_term_a, kinetic_term_z, make_fiducial, omega_to_a, omega_to_z,
                    one_form, spin_operators, su2_matrix, two_form)

_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _fd_body_velocity(omega, omega_dot, h=1e-5):
    """omega_k = i tr(sigma_k g^-1 dg/dt), from g^-1 dg/dt = -i omega.sigma/2,
    with dg/dt by central differences of su2_matrix."""
    omega, omega_dot = np.asarray(omega, float), np.asarray(omega_dot, float)
    g_dot = (su2_matrix(omega + h * omega_dot) - su2_matrix(omega - h * omega_dot)) / (2 * h)
    a = su2_matrix(omega).conj().T @ g_dot
    return np.real(1j * np.einsum("kij,ji->k", _PAULI, a))


def _spin_vector(fv):
    """<Psi0|S|Psi0> from the dense S3 and S+."""
    ops = spin_operators(fv.spin)
    s_plus = np.vdot(fv.coeffs, ops.s_plus @ fv.coeffs)
    return np.array([s_plus.real, s_plus.imag, np.vdot(fv.coeffs, ops.s3 @ fv.coeffs).real])


def _fiducials(rng):
    """A dense and a single-m fiducial at each of two_s 1-4, and |m=0> at
    two_s = 2, whose spin vector is zero."""
    fvs = [make_fiducial(Spin(2), [0.0, 1.0, 0.0])]
    for two_s in (1, 2, 3, 4):
        fvs += [random_fv(Spin(two_s), rng), basis_fv(Spin(two_s), int(rng.integers(two_s + 1)))]
    return fvs


def _points(rng):
    """Raw angles in [-7, 7], and the same with theta at each pole."""
    raw = rng.uniform(-7.0, 7.0, 3)
    return [raw, np.array([raw[0], 0.0, raw[2]]), np.array([raw[0], math.pi, raw[2]])]


def test_zero_spin_vector_of_m_zero():
    assert_allclose(_spin_vector(make_fiducial(Spin(2), [0.0, 1.0, 0.0])), 0.0, atol=1e-15)


def test_kinetic_term_is_spin_vector_against_body_velocity():
    rng = rng_for(90)
    for fv in _fiducials(rng):
        n = _spin_vector(fv)
        for om in _points(rng):
            dot = rng.normal(size=3)
            assert_allclose(kinetic_term(fv, om, dot), n @ _fd_body_velocity(om, dot),
                            atol=1e-8)
            k = one_form(fv, om)
            assert_allclose([k.k_phi, k.k_theta, k.k_psi],
                            [n @ _fd_body_velocity(om, e) for e in np.eye(3)], atol=1e-8)


def test_two_form_is_minus_spin_vector_against_body_cross_products():
    rng = rng_for(91)
    for fv in _fiducials(rng):
        n = _spin_vector(fv)
        for om in _points(rng):
            w_phi, w_theta, w_psi = (_fd_body_velocity(om, e) for e in np.eye(3))
            w = two_form(fv, om)
            assert_allclose([w.w_theta_phi, w.w_phi_psi, w.w_psi_theta],
                            [-n @ np.cross(w_theta, w_phi), -n @ np.cross(w_phi, w_psi),
                             -n @ np.cross(w_psi, w_theta)], atol=1e-8)


def test_gauge_potential_is_spin_vector_against_frame():
    # the frame 2 d_theta, 2 d_xi / cos(t/2), 2 d_eta / sin(t/2) in the
    # Euler chart: d_xi = (d_phi + d_psi)/2, d_eta = (d_phi - d_psi)/2
    rng = rng_for(92)
    for fv in _fiducials(rng):
        n = _spin_vector(fv)
        for om in _points(rng):
            phi, theta, psi = om
            a = gauge_potential(fv, theta, phi + psi, phi - psi)
            ch, sh = math.cos(0.5 * theta), math.sin(0.5 * theta)
            expected = [n @ _fd_body_velocity(om, (0.0, 2.0, 0.0)),
                        n @ _fd_body_velocity(om, (1.0, 0.0, 1.0)) / ch if abs(ch) > 0.1
                        else None,
                        n @ _fd_body_velocity(om, (1.0, 0.0, -1.0)) / sh if abs(sh) > 0.1
                        else None]
            for got, want in zip((a.a_theta, a.a_xi, a.a_eta), expected):
                if want is not None:
                    assert_allclose(got, want, atol=1e-8)
            # the frame factor that vanishes at a pole: the component is the
            # limit of its neighbours there
            for side in (-1e-7, 1e-7):
                near = gauge_potential(fv, theta + side, phi + psi, phi - psi)
                assert_allclose([near.a_theta, near.a_xi, near.a_eta],
                                [a.a_theta, a.a_xi, a.a_eta], atol=1e-6)


def _z_dot(om, d):
    """(dz+/dt, dz-/dt) of z+ = -tan(t/2) e^{-i phi}, z- = tan(t/2) e^{-i psi}."""
    (phi, theta, psi), (dphi, dtheta, dpsi) = om, d
    t = math.tan(0.5 * theta)
    sec2 = 1.0 + t * t
    return ((-0.5 * dtheta * sec2 + 1j * dphi * t) * cmath.exp(-1j * phi),
            (0.5 * dtheta * sec2 - 1j * dpsi * t) * cmath.exp(-1j * psi))


def _a_dot(om, d):
    """(da1/dt, da2/dt) of a1 = cos(t/2) e^{-i(phi+psi)/2},
    a2 = sin(t/2) e^{i(phi-psi)/2}."""
    (phi, theta, psi), (dphi, dtheta, dpsi) = om, d
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    return ((-0.5 * dtheta * s - 0.5j * (dphi + dpsi) * c) * cmath.exp(-0.5j * (phi + psi)),
            (0.5 * dtheta * c + 0.5j * (dphi - dpsi) * s) * cmath.exp(0.5j * (phi - psi)))


def test_spinor_chart_under_exact_velocity_map():
    rng = rng_for(93)
    for fv in _fiducials(rng):
        for om in _points(rng):
            dot = rng.normal(size=3)
            assert_allclose(kinetic_term_a(fv, omega_to_a(om), _a_dot(om, dot)),
                            kinetic_term(fv, om, dot), atol=1e-14)


def test_z_chart_under_exact_velocity_map():
    rng = rng_for(94)
    for fv in _fiducials(rng):
        for _ in range(3):
            om = EulerAngles(*rng.uniform(-7.0, 7.0, 3))
            if not 0.1 <= om.theta <= 2.0:
                om = EulerAngles(om.phi, rng.uniform(0.1, 2.0), om.psi)
            dot = rng.normal(size=3)
            assert_allclose(kinetic_term_z(fv, omega_to_z(om), _z_dot(om.as_array(), dot)),
                            kinetic_term(fv, om, dot), atol=1e-13)


@pytest.mark.parametrize("two_s", [1, 4])
def test_stacked_calls_equal_single_calls(two_s):
    rng = rng_for(95, two_s)
    fv = random_fv(Spin(two_s), rng)
    omega = rng.uniform(-7.0, 7.0, (12, 3))
    omega[:4, 1] = [0.0, math.pi, -math.pi, 0.0]
    dots = rng.normal(size=(12, 3))
    stacked = kinetic_term(fv, omega, dots)
    assert stacked.shape == (12,)
    assert_allclose(stacked, [kinetic_term(fv, om, d) for om, d in zip(omega, dots)],
                    rtol=0, atol=1e-15)
    # one point against a stack of velocities, and (2, 6) stacks
    assert_allclose(kinetic_term(fv, omega[0], dots),
                    [kinetic_term(fv, omega[0], d) for d in dots], rtol=0, atol=1e-15)
    assert_allclose(kinetic_term(fv, omega.reshape(2, 6, 3), dots.reshape(2, 6, 3)),
                    stacked.reshape(2, 6), rtol=0, atol=1e-15)
    overlaps = infinitesimal_overlap(fv, omega, 1e-3 * dots)
    assert overlaps.shape == (12,)
    assert_allclose(overlaps, [infinitesimal_overlap(fv, om, 1e-3 * d)
                               for om, d in zip(omega, dots)], rtol=0, atol=1e-15)
