import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from conftest import basis_fv, lowest_fv, random_fv, random_omega, rng_for
import spincs.propagator
import spincs.semiclassical
from spincs import (HamiltonianSpec, InconsistentSystem, MonomialTerm, Spin,
                    build_system, h_expectation, h_gradient, hamiltonian_matrix,
                    integrate_trajectory, make_fiducial, solve_velocities, spin_operators,
                    two_form)


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


def test_gradient_of_quadratic_matches_central_differences():
    rng = rng_for(61)
    spin = Spin(2)
    fv = random_fv(spin, rng)
    spec = HamiltonianSpec(spin, (MonomialTerm(0, 2, 0, 1.0),))
    om = random_omega(rng, theta_margin=0.05, wrap_margin=0.05)
    assert_allclose(h_gradient(fv, spec, om.as_array()),
                    _fd_gradient(fv, spec, om.as_array()), atol=1e-5)


def _degree_specs(spin):
    """Hermitian specs of monomial degree 1, 2 and 3; the degree-2 one is
    driven."""
    return (
        _field_spec(spin, bz=0.8, bx=0.6),
        HamiltonianSpec(spin, (MonomialTerm(0, 2, 0, 0.7),
                               MonomialTerm(2, 0, 0, 0.2 + 0.1j, profile=("cosine", 1.3, 0.4)),
                               MonomialTerm(0, 0, 2, 0.2 - 0.1j, profile=("cosine", 1.3, 0.4)),
                               MonomialTerm(1, 0, 0, 0.3), MonomialTerm(0, 0, 1, 0.3))),
        HamiltonianSpec(spin, (MonomialTerm(0, 3, 0, 0.1), MonomialTerm(1, 1, 1, 0.2),
                               MonomialTerm(2, 1, 0, 0.05j), MonomialTerm(0, 1, 2, -0.05j),
                               MonomialTerm(0, 1, 0, 0.4))),
    )


def _commutator_gradient(fv, spec, omega, t):
    """(dH/dphi, dH/dtheta, dH/dpsi) as commutator expectations on a state
    built from matrix exponentials at the raw angles:
    i<O|[S3, H]|O>, i<O|[G, H]|O> with G = e^{-i phi S3} S2 e^{i phi S3},
    and i<fv|[S3, R^dag H R]|fv>."""
    ops = spin_operators(fv.spin)
    phi, theta, psi = omega
    turn = expm(-1j * phi * ops.s3)
    r = turn @ expm(-1j * theta * ops.s2) @ expm(-1j * psi * ops.s3)
    state = r @ fv.coeffs
    h = hamiltonian_matrix(spec, t)
    g = turn @ ops.s2 @ turn.conj().T
    h_body = r.conj().T @ h @ r

    def expect(a, b, v):
        return float(np.real(1j * np.vdot(v, (a @ b - b @ a) @ v)))

    return np.array([expect(ops.s3, h, state), expect(g, h, state),
                     expect(ops.s3, h_body, fv.coeffs)])


def test_gradient_matches_commutator_oracle():
    # raw angles outside the canonical ranges: theta < 0, theta > pi, phi > 2 pi
    rng = rng_for(67)
    angles = [(0.4, -0.7, 1.9), (2.2, 4.1, -0.8), (7.5, 1.2, 6.9), (9.9, -2.5, 13.0)]
    worst = 0.0
    for two_s in range(1, 9):
        spin = Spin(two_s)
        fv = random_fv(spin, rng)
        for spec in _degree_specs(spin):
            for omega in angles:
                expected = _commutator_gradient(fv, spec, omega, 0.37)
                got = h_gradient(fv, spec, omega, 0.37)
                worst = max(worst, np.abs(got - expected).max())
    assert worst <= 1e-12


@pytest.mark.parametrize("degree", [2, 3])
def test_single_m_psi_gradient_is_zero(degree):
    # a psi shift only rephases a single-m state, so dH/dpsi vanishes for
    # every H, to roundoff and not to a difference quotient's ~1e-10
    rng = rng_for(68, degree)
    for two_s in (2, 3, 4):
        spin = Spin(two_s)
        spec = _degree_specs(spin)[degree - 1]
        for index in range(spin.dim):
            om = random_omega(rng, theta_margin=0.05).as_array()
            assert abs(h_gradient(basis_fv(spin, index), spec, om, 0.37)[2]) <= 1e-14


def test_single_m_trajectory_near_stationary_latitude():
    # |m=+2> under S3^2 just off theta = pi/2, where dH/dtheta nearly
    # vanishes: an error of 1e-10 in dH/dpsi would exceed the 1e-8 ||b||
    # consistency bound by t = 0.05
    spin = Spin(4)
    spec = HamiltonianSpec(spin, (MonomialTerm(0, 2, 0, 1.0),))
    traj = integrate_trajectory(basis_fv(spin, 0), spec, (0.3, math.pi / 2 + 1e-3, 0.7),
                                (0.0, 1.0), 0.1)
    assert len(traj.path) == 11
    assert traj.residuals.max() <= 1e-14


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


def test_rk4_energies_come_from_the_velocity_solve(monkeypatch):
    spin = Spin(3)
    fv = random_fv(spin, rng_for(42))
    # driven, so every recorded sample has its own H(t)
    spec = HamiltonianSpec(spin, (MonomialTerm(0, 1, 0, 0.8, ("cosine", 3.0, 0.2)),
                                  MonomialTerm(1, 0, 0, 0.3), MonomialTerm(0, 0, 1, 0.3)))
    calls = []

    def counting(*args):
        calls.append(args)
        return h_expectation(*args)

    for module in (spincs.propagator, spincs.semiclassical):
        monkeypatch.setattr(module, "h_expectation", counting, raising=False)
    traj = integrate_trajectory(fv, spec, (0.3, 1.0, 0.5), (0.0, 0.5), 0.05)
    monkeypatch.undo()
    assert calls == []
    for (t, *om), energy in zip(traj.path, traj.energies):
        h_norm = np.linalg.norm(hamiltonian_matrix(spec, t), 2)
        assert abs(energy - h_expectation(fv, spec, om, t)) <= 1e-12 * h_norm


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
