import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import basis_fv, lowest_fv, random_fv, random_omega, rng_for
import spincs.semiclassical
from spincs import (HamiltonianSpec, InconsistentSystem, MonomialTerm, Spin,
                    build_system, h_expectation, h_gradient, integrate_trajectory,
                    make_fiducial, solve_velocities, two_form)


def _field_spec(spin, bz=1.0, bx=0.0):
    terms = [MonomialTerm(0, 1, 0, bz)]
    if bx:
        terms += [MonomialTerm(1, 0, 0, 0.5 * bx), MonomialTerm(0, 0, 1, 0.5 * bx)]
    return HamiltonianSpec(spin, tuple(terms))


def _fd_gradient(fv, spec, omega, t=0.0, h=1e-6):
    omega = np.asarray(omega, dtype=float)
    out = np.zeros(3)
    for k in range(3):
        step = np.zeros(3)
        step[k] = h
        out[k] = (h_expectation(fv, spec, omega + step, t)
                  - h_expectation(fv, spec, omega - step, t)) / (2 * h)
    return out


def test_analytic_gradient_matches_finite_differences():
    rng = rng_for(60)
    for two_s in (1, 2, 3):
        fv = random_fv(Spin(two_s), rng)
        spec = _field_spec(Spin(two_s), bz=0.8, bx=0.6)
        for _ in range(5):
            om = random_omega(rng, theta_margin=0.05, wrap_margin=0.05)
            assert_allclose(h_gradient(fv, spec, om.as_array()),
                            _fd_gradient(fv, spec, om.as_array()), atol=1e-7)


def test_gradient_of_quadratic_uses_finite_differences():
    rng = rng_for(61)
    spin = Spin(2)
    fv = random_fv(spin, rng)
    spec = HamiltonianSpec(spin, (MonomialTerm(0, 2, 0, 1.0),))
    om = random_omega(rng, theta_margin=0.05, wrap_margin=0.05)
    assert_allclose(h_gradient(fv, spec, om.as_array()),
                    _fd_gradient(fv, spec, om.as_array()), atol=1e-5)


def test_system_matrix_is_reordered_two_form():
    rng = rng_for(62)
    fv = random_fv(Spin(3), rng)
    om = random_omega(rng)
    sys = build_system(fv, _field_spec(Spin(3)), om)
    w = sys.antisymmetric()
    assert_allclose(w, -w.T, atol=1e-14)
    f = two_form(fv, om)
    # contraction pairing: w[i, j] integrates coordinate order (phi, theta, psi)
    assert_allclose(w[1, 0], f.w_theta_phi, atol=1e-13)
    assert_allclose(w[0, 2], f.w_phi_psi, atol=1e-13)
    assert_allclose(w[2, 1], f.w_psi_theta, atol=1e-13)


def test_system_rank_is_two_and_kernel():
    rng = rng_for(63)
    for _ in range(10):
        fv = random_fv(Spin(2), rng)
        om = random_omega(rng, theta_margin=0.1)
        sys = build_system(fv, _field_spec(Spin(2)), om)
        assert sys.rank <= 2
        # odd antisymmetric matrices are singular; the kernel is annihilated
        kernel = np.array([-sys.m[0, 2],
                           sys.m[2, 0] * np.sign(1.0),
                           0.0])
        # build the kernel from the documented direction (-a1, a4 sin t, C)
        a1 = sys.m[0, 2]
        a4_sin = sys.m[2, 0]
        c = sys.m[0, 0]
        kernel = np.array([-a1, a4_sin, c])
        assert np.linalg.norm(sys.m @ kernel) < 1e-12 * max(1.0, np.abs(sys.m).max())


def test_solve_full_consistency_hand_built():
    # rank-2 consistent system: solution must satisfy the normal equations
    rng = rng_for(64)
    fv = lowest_fv(Spin(2))
    spec = _field_spec(Spin(2), bz=1.0, bx=0.4)
    om = random_omega(rng, theta_margin=0.2)
    sys = build_system(fv, spec, om)
    omega_dot, diag = solve_velocities(sys)
    assert diag.consistent
    assert diag.residual < 1e-10
    assert_allclose(sys.m @ omega_dot, sys.b, atol=1e-10)


def test_minimum_norm_solution_has_no_kernel_component():
    rng = rng_for(65)
    fv = lowest_fv(Spin(3))
    spec = _field_spec(Spin(3), bz=0.7, bx=0.2)
    om = random_omega(rng, theta_margin=0.2)
    sys = build_system(fv, spec, om)
    omega_dot, _ = solve_velocities(sys)
    # kernel direction of the coefficient matrix
    _, _, vt = np.linalg.svd(sys.m)
    kernel = vt[-1]
    assert abs(np.dot(omega_dot, kernel)) < 1e-10


def test_inconsistent_system_raises():
    # multi-component fiducial vector plus a degree-2 term generically
    # leaves the gradient outside the rank-2 column space
    rng = rng_for(66)
    spin = Spin(2)
    fv = make_fiducial(spin, [0.6, 0.0, 0.8])
    spec = HamiltonianSpec(spin, (MonomialTerm(0, 2, 0, 1.0),))
    om = random_omega(rng, theta_margin=0.2)
    with pytest.raises(InconsistentSystem):
        solve_velocities(build_system(fv, spec, om))


def test_precession_benchmark():
    # H = omega_z S3 drives phi at exactly omega_z/hbar with theta frozen
    spin = Spin(4)
    fv = basis_fv(spin, 3)  # m = -1
    omega_z = 1.3
    spec = _field_spec(spin, bz=omega_z)
    om0 = (0.4, 1.1, 2.2)
    traj = integrate_trajectory(fv, spec, om0, (0.0, 4.0), 0.01)
    t = traj.path[:, 0]
    assert_allclose(traj.path[:, 1], 0.4 + omega_z * t, atol=1e-8)
    assert_allclose(traj.path[:, 2], 1.1, atol=1e-10)
    assert np.all(traj.ranks == 2)
    # energy is conserved along the flow
    assert np.abs(traj.energies - traj.energies[0]).max() < 1e-10
    assert traj.error_estimate < 1e-10


def test_rk4_reuses_recorded_solution_as_first_stage(monkeypatch):
    # classic RK4 with its own first-stage solve, as the reference
    spin = Spin(3)
    fv = random_fv(spin, rng_for(41))
    spec = _field_spec(spin, bz=0.8, bx=0.6)
    om0, dt, n = np.array([0.3, 1.0, 0.5]), 0.05, 10

    def velocity(y, t):
        return solve_velocities(build_system(fv, spec, y, t))[0]

    y = om0.copy()
    for j in range(n):
        t = j * dt
        k1 = velocity(y, t)
        k2 = velocity(y + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = velocity(y + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = velocity(y + dt * k3, t + dt)
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    calls = []

    def counting(sys):
        calls.append(1)
        return solve_velocities(sys)

    monkeypatch.setattr(spincs.semiclassical, "solve_velocities", counting)
    traj = integrate_trajectory(fv, spec, om0, (0.0, n * dt), dt)
    # 11 recorded samples whose solutions serve as k1, 3 more solves per
    # step, and 4 per step of the 20-step half-step rerun
    assert len(calls) == 11 + 3 * 10 + 4 * 20
    assert np.array_equal(traj.path[-1, 1:], y)


def test_precession_scales_with_hbar():
    spin = Spin(2)
    fv = lowest_fv(spin)
    spec = _field_spec(spin, bz=1.0)
    traj = integrate_trajectory(fv, spec, (0.0, 1.0, 0.0), (0.0, 2.0), 0.01,
                                hbar=2.0)
    assert_allclose(traj.path[-1, 1], 1.0, atol=1e-8)


def test_reversed_span_keeps_the_step():
    # H = S3 + 0.4 (S+ + S-): integrating forward over (0, 2) and back over
    # (2, 0) with the same dt takes 20 steps each way and returns to the start
    spin = Spin(2)
    fv = lowest_fv(spin)
    spec = _field_spec(spin, bz=1.0, bx=0.8)
    om0 = np.array([0.3, 1.0, 0.5])
    forward = integrate_trajectory(fv, spec, om0, (0.0, 2.0), 0.1)
    back = integrate_trajectory(fv, spec, forward.path[-1, 1:], (2.0, 0.0), 0.1)
    assert len(forward.path) == len(back.path) == 21
    assert_allclose(back.path[:, 0], np.linspace(2.0, 0.0, 21), atol=1e-12)
    assert np.abs(back.path[-1, 1:] - om0).max() < 1e-5


def test_quadratic_single_m_trajectory():
    # single-m fiducial vectors keep dH/dpsi = 0, so even quadratic
    # Hamiltonians stay consistent.  For |m> and H = S3^2 the energy is
    # g(theta) = m^2 cos^2(t) + (s(s+1) - m^2) sin^2(t)/2 and the flow is
    # a steady precession phi_dot = -g'(theta)/(m sin(theta))
    spin = Spin(4)
    fv = basis_fv(spin, 1)  # m = 1
    spec = HamiltonianSpec(spin, (MonomialTerm(0, 2, 0, 1.0),))
    om0 = (0.2, 0.9, 0.0)
    traj = integrate_trajectory(fv, spec, om0, (0.0, 2.0), 0.005)
    t = traj.path[:, 0]
    s, m = 2.0, 1.0
    phi_dot = -math.cos(0.9) * (s * (s + 1) - 3.0 * m * m) / m
    assert_allclose(traj.path[:, 2], 0.9, atol=1e-8)
    assert_allclose(traj.path[:, 1], 0.2 + phi_dot * t, atol=1e-5)
    assert np.abs(traj.energies - traj.energies[0]).max() < 1e-8


def test_trajectory_failure_reports_time():
    spin = Spin(2)
    fv = make_fiducial(spin, [0.6, 0.0, 0.8])
    spec = HamiltonianSpec(spin, (MonomialTerm(0, 2, 0, 1.0),))
    with pytest.raises(InconsistentSystem, match="at t="):
        integrate_trajectory(fv, spec, (0.3, 1.0, 0.2), (0.0, 1.0), 0.1)


def test_trajectory_validation():
    spin = Spin(1)
    fv = lowest_fv(spin)
    spec = _field_spec(spin)
    with pytest.raises(ValueError):
        integrate_trajectory(fv, spec, (0.0, 1.0, 0.0), (0.0, 1.0), -0.1)
