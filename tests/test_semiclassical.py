import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from conftest import basis_fv, lowest_fv, random_fv, random_omega, rng_for
import spincs.propagator
import spincs.semiclassical
from spincs import (EulerAngles, HamiltonianSpec, InconsistentSystem, LengthMismatch,
                    MonomialTerm, Spin, build_system, coherent_state, exact_propagator,
                    h_expectation, h_gradient, hamiltonian_matrix, integrate_trajectory,
                    make_fiducial, solve_velocities, spin_operators, two_form)
from spincs.spin_core import _cayley_klein, _euler_of


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


def _cross_matrix(n):
    """The matrix of xi -> n x xi."""
    return np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])


def _space_velocities(omega):
    """Columns: the lab angular velocities of unit steps in phi, theta, psi."""
    phi, theta, _ = omega
    return np.array([[0.0, -math.sin(phi), math.sin(theta) * math.cos(phi)],
                     [0.0, math.cos(phi), math.sin(theta) * math.sin(phi)],
                     [1.0, 0.0, math.cos(theta)]])


def _phase_distance(u, v):
    """||u - e^{i a} v|| at the phase a that aligns v with u."""
    o = np.vdot(v, u)
    return float(np.linalg.norm(u - o / abs(o) * v))


def test_system_matrix_is_reordered_two_form():
    # the lab system hbar (n x xi) = G, pulled back to (phi, theta, psi) by
    # the lab velocities of unit steps, is hbar d(kappa) of two_form
    rng = rng_for(62)
    fv = random_fv(Spin(3), rng)
    om = random_omega(rng)
    sys = build_system(fv, _field_spec(Spin(3)), om)
    jac = _space_velocities(om.as_array())
    w = jac.T @ (sys.hbar * _cross_matrix(sys.n)) @ jac
    assert_allclose(w, -w.T, atol=1e-14)
    f = two_form(fv, om)
    # contraction pairing: w[i, j] integrates coordinate order (phi, theta, psi)
    assert_allclose(w[1, 0], f.w_theta_phi, atol=1e-13)
    assert_allclose(w[0, 2], f.w_phi_psi, atol=1e-13)
    assert_allclose(w[2, 1], f.w_psi_theta, atol=1e-13)


def test_system_rank_is_two_and_kernel():
    rng = rng_for(63)
    ops = spin_operators(Spin(2))
    for _ in range(10):
        fv = random_fv(Spin(2), rng)
        om = random_omega(rng, theta_margin=0.1)
        sys = build_system(fv, _field_spec(Spin(2)), om)
        a = sys.hbar * _cross_matrix(sys.n)
        tol = 1e-10 * max(1.0, np.abs(a).max())
        assert sys.rank == np.linalg.matrix_rank(a, tol=tol) == 2
        # the kernel is n = <Omega|S|Omega>, which the cross product annihilates
        v = coherent_state(fv, om).amplitudes
        lab_n = [np.vdot(v, s @ v).real for s in (ops.s1, ops.s2, ops.s3)]
        assert_allclose(sys.n, lab_n, atol=1e-12)
        assert np.linalg.norm(a @ sys.n) < 1e-12 * max(1.0, np.abs(a).max())


def test_solve_full_consistency_hand_built():
    # rank-2 consistent system: the solution must satisfy hbar (n x xi) = G
    rng = rng_for(64)
    fv = lowest_fv(Spin(2))
    spec = _field_spec(Spin(2), bz=1.0, bx=0.4)
    om = random_omega(rng, theta_margin=0.2)
    sys = build_system(fv, spec, om)
    xi = solve_velocities(sys)
    assert sys.residual < 1e-10
    assert_allclose(sys.hbar * np.cross(sys.n, xi), sys.gradient, atol=1e-10)


def test_lambda_minimizes_the_schrodinger_residual():
    # McLachlan: the component lambda of xi along n minimizes
    # ||(i hbar d/dt - H)|Omega>|| = ||hbar xi.S v - H v|| on the line
    # xi_perp + lambda n-hat; a constant term in H makes the fit nontrivial
    rng = rng_for(65)
    spin = Spin(3)
    fv = random_fv(spin, rng)
    spec = HamiltonianSpec(spin, _field_spec(spin, bz=0.7, bx=0.2).terms
                           + (MonomialTerm(0, 0, 0, 0.9),))
    ops = spin_operators(spin)
    for hbar in (1.0, 2.0):
        om = random_omega(rng, theta_margin=0.2)
        sys = build_system(fv, spec, om, hbar=hbar)
        xi = solve_velocities(sys)
        v = coherent_state(fv, om).amplitudes
        x = np.array([s @ v for s in (ops.s1, ops.s2, ops.s3)])
        n_hat = sys.n / np.linalg.norm(sys.n)
        lam = xi @ n_hat
        rest = hbar * (xi - lam * n_hat) @ x - hamiltonian_matrix(spec) @ v
        column = hbar * n_hat @ x
        expected = np.linalg.lstsq(np.concatenate([column.real, column.imag])[:, None],
                                   -np.concatenate([rest.real, rest.imag]), rcond=None)[0][0]
        assert abs(lam - expected) <= 1e-12 * max(1.0, abs(expected))


@pytest.mark.parametrize("hbar", [1.0, 2.0])
@pytest.mark.parametrize("n_norm", [1.0, 1e-3, 1e-9, 0.0])
def test_closed_form_matches_lstsq(hbar, n_norm):
    # n is set to a random direction with the given length and G is random,
    # so the system hbar (n x xi) = G is generically inconsistent
    rng = rng_for(69, int(hbar))
    spin = Spin(2)
    fv = random_fv(spin, rng)
    for _ in range(50):
        theta, psi = rng.uniform(0.2, math.pi - 0.2), rng.uniform(0.0, 2 * math.pi)
        direction = rng.normal(size=3)
        sys = build_system(fv, _field_spec(spin, bx=0.4), (0.3, theta, psi), hbar=hbar)
        sys.n = n_norm * direction / np.linalg.norm(direction)
        a = hbar * _cross_matrix(sys.n)
        tol = 1e-10 * max(1.0, np.abs(a).max())
        assert sys.rank == np.linalg.matrix_rank(a, tol=tol)
        sys.gradient = rng.normal(size=3)
        expected = np.linalg.lstsq(a, sys.gradient, rcond=None)[0]
        with pytest.raises(InconsistentSystem):
            solve_velocities(sys)
        assert_allclose(sys.residual, np.linalg.norm(a @ expected - sys.gradient), rtol=1e-12)
        # the part of G in the range of the system is consistent: the part of
        # xi normal to n is its minimum-norm solution, and at rank 0 all of
        # xi is the least-squares fit
        sys.gradient = a @ expected
        xi = solve_velocities(sys)
        if sys.rank:
            n_hat = sys.n / np.linalg.norm(sys.n)
            assert_allclose(xi - (xi @ n_hat) * n_hat, expected, rtol=1e-12, atol=0)
        else:
            fit = np.linalg.pinv(hbar * sys.metric, rcond=1e-10) @ sys.fit
            assert np.abs(xi - fit).max() <= 1e-12 * np.abs(fit).max()


def test_zero_spin_vector_state_follows_expm():
    # |m=0> has n_fv = 0, so the lab system is empty (rank 0) and the
    # velocity is the least-squares fit, where a zero velocity kept the
    # state in place.  The fit drops the turn about the fiducial's own axis,
    # so xi varies along the path and the error is RKMK4's fourth-order one:
    # 7.2e-8 at dt = 0.1, 4.5e-13 at dt = 0.005
    spin = Spin(2)
    fv, spec, om0 = basis_fv(spin, 1), _field_spec(spin), (0.3, 1.1, 0.7)
    assert build_system(fv, spec, om0).rank == 0
    traj = integrate_trajectory(fv, spec, om0, (0.0, 1.0), 0.005)
    assert set(traj.ranks.tolist()) == {0}
    exact = expm(-1j * hamiltonian_matrix(spec)) @ coherent_state(fv, om0).amplitudes
    assert _phase_distance(coherent_state(fv, traj.path[-1, 1:]).amplitudes, exact) <= 1e-12


def test_single_m_equilibrium_stays_put():
    # |m=+2> under S3^2 exactly at theta = pi/2, where dH/dtheta vanishes
    spin = Spin(4)
    spec = HamiltonianSpec(spin, (MonomialTerm(0, 2, 0, 1.0),))
    om0 = np.array([0.3, math.pi / 2, 0.7])
    traj = integrate_trajectory(basis_fv(spin, 0), spec, om0, (0.0, 1.0), 0.1)
    assert len(traj.path) == 11
    assert np.abs(traj.path[:, 1:3] - om0[:2]).max() <= 1e-12
    # the fit turns |m> about n at E/(hbar m), which gives it the phase
    # e^{-iEt/hbar} of the Schrodinger state: psi moves at that constant rate
    energy, m = traj.energies[0], 2.0
    assert abs(energy - 1.0) <= 1e-14
    assert np.abs(traj.path[:, 3] - (om0[2] + energy / m * traj.path[:, 0])).max() <= 1e-12


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
    # RKMK4 on the Cayley-Klein pair with its own first-stage solve, written
    # out by hand as the reference: closed-form exponentials, dexp^-1 to
    # [u, [u, k]]/12 with the cross product as the bracket
    spin = Spin(3)
    fv = random_fv(spin, rng_for(41))
    spec = _field_spec(spin, bz=0.8, bx=0.6)
    om0, dt, n = np.array([0.3, 1.0, 0.5]), 0.05, 10

    def velocity(g, t):
        return solve_velocities(build_system(fv, spec, _euler_of(*g), t))

    def cross(u, w):
        (u1, u2, u3), (w1, w2, w3) = u.tolist(), w.tolist()
        return np.array([u2 * w3 - u3 * w2, u3 * w1 - u1 * w3, u1 * w2 - u2 * w1])

    def dexpinv(u, k):
        return k - 0.5 * cross(u, k) + cross(u, cross(u, k)) / 12.0

    def exp_times(w, g):
        w1, w2, w3 = w.tolist()
        angle = math.sqrt(w1 * w1 + w2 * w2 + w3 * w3)
        s = 0.5 if angle == 0.0 else math.sin(0.5 * angle) / angle
        alpha, beta = complex(math.cos(0.5 * angle), -s * w3), complex(s * w2, -s * w1)
        return alpha * g[0] - beta.conjugate() * g[1], beta * g[0] + alpha.conjugate() * g[1]

    g = _cayley_klein(*om0)
    for j in range(n):
        t = j * dt
        k1 = velocity(g, t)
        k2 = dexpinv(0.5 * dt * k1, velocity(exp_times(0.5 * dt * k1, g), t + 0.5 * dt))
        k3 = dexpinv(0.5 * dt * k2, velocity(exp_times(0.5 * dt * k2, g), t + 0.5 * dt))
        k4 = dexpinv(dt * k3, velocity(exp_times(dt * k3, g), t + dt))
        a, b = exp_times((dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4), g)
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        g = (a / norm, b / norm)

    calls = []

    def counting(sys):
        calls.append(1)
        return solve_velocities(sys)

    monkeypatch.setattr(spincs.semiclassical, "solve_velocities", counting)
    traj = integrate_trajectory(fv, spec, om0, (0.0, n * dt), dt)
    # 11 recorded samples whose solutions serve as k1, 3 more solves per
    # step, and 4 per step of the 20-step half-step rerun
    assert len(calls) == 11 + 3 * 10 + 4 * 20
    assert np.array_equal(traj.elements[-1], g)


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


def test_euler_angles_start_matches_raw_triple():
    # an EulerAngles start raised a bare TypeError from np.isfinite
    spin = Spin(2)
    fv = random_fv(spin, rng_for(43))
    spec = _field_spec(spin, bz=1.0, bx=0.4)
    raw = integrate_trajectory(fv, spec, (0.4, 1.1, 0.7), (0.0, 0.2), 0.05)
    named = integrate_trajectory(fv, spec, EulerAngles(0.4, 1.1, 0.7), (0.0, 0.2), 0.05)
    assert np.array_equal(named.path, raw.path)
    assert np.array_equal(named.energies, raw.energies)
    assert named.error_estimate == raw.error_estimate


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


@pytest.mark.parametrize("call", [
    lambda fv, spec: h_gradient(fv, spec, (0.1, 0.2, 0.3)),
    lambda fv, spec: build_system(fv, spec, (0.1, 0.2, 0.3)),
    lambda fv, spec: integrate_trajectory(fv, spec, (0.1, 0.2, 0.3), (0.0, 0.1), 0.05),
], ids=["h_gradient", "build_system", "integrate_trajectory"])
def test_spin_mismatch_raises_length_mismatch(call):
    # a Spin(2) fiducial with a Spin(4) spec raised numpy's matmul ValueError
    fv = random_fv(Spin(2), rng_for(67))
    with pytest.raises(LengthMismatch, match="differs from fiducial spin"):
        call(fv, _field_spec(Spin(4), bx=0.3))


@pytest.mark.parametrize("omega0, shape", [
    ([[0.4, 1.1, 0.7], [0.1, 0.2, 0.3]], "(2, 3)"),
    ([EulerAngles(0.4, 1.1, 0.7)] * 3, "(3, 3)"),
], ids=["array_stack", "euler_angles_stack"])
def test_stacked_omega0_is_refused(omega0, shape):
    # a (2, 3) stack raised a ValueError that named the shape (3, 2)
    spin = Spin(1)
    fv = random_fv(spin, rng_for(77))
    spec = HamiltonianSpec(spin, (MonomialTerm(0, 1, 0, 1.0),))
    with pytest.raises(LengthMismatch, match=re.escape(f"shape {shape}")):
        integrate_trajectory(fv, spec, omega0, (0.0, 0.2), 0.05)


def _tilted_spec(spin, bx, driven):
    """S3 + bx (S+ + S-), the transverse pair under cos(3t + 0.2) if driven."""
    profile = ("cosine", 3.0, 0.2) if driven else None
    return HamiltonianSpec(spin, (MonomialTerm(0, 1, 0, 1.0), MonomialTerm(1, 0, 0, bx, profile),
                                  MonomialTerm(0, 0, 1, bx, profile)))


def _check_follows_schrodinger(fv, spec, om0, traj, times):
    """1 - F <= 1e-10 against expm (static H) or exact_propagator (driven)
    at each of the given times, and every row rebuilding its stepped
    element, on the same sheet, to 1e-15."""
    start = coherent_state(fv, om0).amplitudes
    for t in times:
        (row,) = np.flatnonzero(np.isclose(traj.path[:, 0], t, rtol=0, atol=1e-12))
        u = (exact_propagator(spec, 0.0, t) if spec.time_dependent
             else expm(-1j * t * hamiltonian_matrix(spec)))
        v = coherent_state(fv, traj.path[row, 1:]).amplitudes
        assert 1.0 - abs(np.vdot(u @ start, v)) ** 2 <= 1e-10, f"t={t}"
    rebuilt = np.array([_cayley_klein(*row) for row in traj.path[:, 1:].tolist()])
    assert np.abs(rebuilt - traj.elements).max() <= 1e-15


@pytest.mark.parametrize("driven", [False, True], ids=["static", "driven"])
@pytest.mark.parametrize("two_s", [1, 2, 4, 8])
def test_dense_fiducial_follows_schrodinger(two_s, driven):
    # the chart's minimum-norm velocity dropped the turn about n: fidelity
    # 0.930 / 0.998 / 0.257 at two_s 2 / 4 / 8 by t = 0.5 under the static H
    spin = Spin(two_s)
    fv = random_fv(spin, np.random.default_rng(7))
    spec = _tilted_spec(spin, 0.3, driven)
    om0 = (0.4, 1.1, 0.7)
    traj = integrate_trajectory(fv, spec, om0, (0.0, 3.0), 0.02)
    _check_follows_schrodinger(fv, spec, om0, traj, (0.5, 3.0))


@pytest.mark.parametrize("theta0", [0.0, 0.3], ids=["from_pole", "across_pole"])
def test_lowest_weight_at_the_pole_follows_schrodinger(theta0):
    # the chart's n vanished at theta = 0, so a pole start never left it
    # (fidelity 0.593 at t = 1), and from theta = 0.3 the path crossed the
    # pole with fidelity 1 - 2.4e-5
    spin = Spin(2)
    fv = lowest_fv(spin)
    spec = HamiltonianSpec(spin, (MonomialTerm(1, 0, 0, 0.5), MonomialTerm(0, 0, 1, 0.5)))
    om0 = (math.pi / 2, theta0, 0.0)
    traj = integrate_trajectory(fv, spec, om0, (0.0, 3.0), 0.02)
    assert set(traj.ranks.tolist()) == {2}
    assert traj.error_estimate <= 1e-12
    _check_follows_schrodinger(fv, spec, om0, traj, (1.0, 3.0))


@pytest.mark.parametrize("driven", [False, True], ids=["static", "driven"])
def test_zero_spin_vector_follows_schrodinger(driven):
    # |m=0>, n_fv = 0: the chart left it in place (fidelity 0.532 at t = 1)
    spin = Spin(2)
    fv = basis_fv(spin, 1)
    spec = _tilted_spec(spin, 0.3, driven)
    om0 = (0.1, 0.7, 0.2)
    traj = integrate_trajectory(fv, spec, om0, (0.0, 3.0), 0.02)
    assert set(traj.ranks.tolist()) == {0}
    _check_follows_schrodinger(fv, spec, om0, traj, (1.0, 3.0))
