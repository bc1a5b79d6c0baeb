"""Headline acceptance checks, one test per advertised guarantee.

Each test exercises a full pipeline at its stated tolerance; the terminal
summary section lists a PASS/FAIL line per criterion.
"""

import math

import numpy as np

from conftest import basis_fv, dense_gram, lowest_fv, random_fv, random_omega, rng_for
from spincs import (EulerAngles, HamiltonianSpec, MonomialTerm, Spin,
                    annihilation_degree_residual, big_r, build_grid, canonical_cs,
                    ccs_resolution_residual, coherent_state, compose_euler,
                    discrete_cspi, displacement_matrix, dns_amplitudes,
                    dns_number_check, exact_propagator, gauge_potential,
                    hp_contract_state, hp_measure_ratio,
                    infinitesimal_overlap, integrate_trajectory, invert_euler,
                    kinetic_term, kinetic_term_a, kinetic_term_z, ladder_factor,
                    make_fiducial, make_fock, omega_to_a, omega_to_z, one_form,
                    overlap, resolution_residual, structure_pair, two_form)


def test_criterion_01_resolution_of_unity():
    for two_s in (1, 2, 3, 4, 10):
        spin = Spin(two_s)
        grid = build_grid(spin)
        rng = rng_for(101, two_s)
        for _ in range(20):
            fv = random_fv(spin, rng)
            assert resolution_residual(fv, grid) <= 1e-10


def test_criterion_02_rotation_algebra():
    rng = rng_for(102)
    for _ in range(100):
        two_s = int(rng.integers(1, 5))
        spin = Spin(two_s)
        om1, om2 = random_omega(rng), random_omega(rng)
        r1 = big_r(spin, om1).entries
        r2 = big_r(spin, om2).entries
        eye = np.eye(spin.dim)
        assert np.linalg.norm(r1.conj().T @ r1 - eye) <= 1e-10
        r_inv = big_r(spin, invert_euler(om1)).entries
        assert min(np.linalg.norm(r_inv - r1.conj().T),
                   np.linalg.norm(r_inv + r1.conj().T)) <= 1e-10
        om12, sign = compose_euler(om2, om1)
        assert np.linalg.norm(sign ** two_s * big_r(spin, om12).entries
                              - r2 @ r1) <= 1e-10
        lhs = math.cos(om12.theta)
        rhs = (math.cos(om1.theta) * math.cos(om2.theta)
               - math.sin(om1.theta) * math.sin(om2.theta)
               * math.cos(om2.psi + om1.phi))
        assert abs(lhs - rhs) <= 1e-10


def test_criterion_03_orthogonality_relation():
    for two_s in (1, 2, 3, 4):
        spin = Spin(two_s)
        grid = build_grid(spin)
        for a in range(spin.dim):
            for b in range(spin.dim):
                gram = dense_gram(grid, basis_fv(spin, a), basis_fv(spin, b))
                target = np.eye(spin.dim) if a == b else 0.0
                assert np.abs(gram - target).max() <= 1e-10


def test_criterion_04_infinitesimal_overlap_slope():
    rng = rng_for(104)
    steps = np.logspace(-5, -2, 7)
    for _ in range(20):
        spin = Spin(int(rng.integers(1, 5)))
        fv = random_fv(spin, rng)
        om = random_omega(rng, theta_margin=0.3, wrap_margin=0.3)
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        errs = []
        for h in steps:
            delta = h * d
            displaced = EulerAngles(om.phi + delta[0], om.theta + delta[1],
                                    om.psi + delta[2])
            errs.append(abs(overlap(fv, displaced, om)
                            - infinitesimal_overlap(fv, om, delta)))
        slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert abs(slope - 2.0) <= 0.1


def test_criterion_05_kinetic_term_vs_finite_differences():
    rng = rng_for(105)
    h = 1e-5
    for _ in range(50):
        spin = Spin(int(rng.integers(1, 5)))
        fv = random_fv(spin, rng)
        om = random_omega(rng, theta_margin=0.3, wrap_margin=0.3)
        om_dot = rng.normal(size=3)
        base = om.as_array()
        plus = coherent_state(fv, EulerAngles(*(base + h * om_dot))).amplitudes
        minus = coherent_state(fv, EulerAngles(*(base - h * om_dot))).amplitudes
        here = coherent_state(fv, om).amplitudes
        fd = 1j * np.vdot(here, (plus - minus) / (2 * h))
        assert abs(kinetic_term(fv, om, om_dot) - fd.real) <= 1e-6
        assert abs(fd.imag) <= 1e-9


def test_criterion_06_discrete_propagator_convergence():
    cases = [
        (1, EulerAngles(0.7, 0.9, 1.3), EulerAngles(4.1, 1.9, 5.2)),
        (2, EulerAngles(0.581, 0.336, 4.841), EulerAngles(3.005, 2.660, 2.358)),
    ]
    t_f = 2.0 * math.pi
    for two_s, om_i, om_f in cases:
        spin = Spin(two_s)
        fv = lowest_fv(spin)
        spec = HamiltonianSpec(spin, (MonomialTerm(0, 1, 0, 1.0),
                                      MonomialTerm(1, 0, 0, 0.15),
                                      MonomialTerm(0, 0, 1, 0.15)))
        grid = build_grid(spin)
        oracle = exact_propagator(spec, 0.0, t_f)
        for mode in ("M1", "M2", "M3"):
            errs = [discrete_cspi(fv, spec, om_i, om_f, 0.0, t_f, n, grid,
                                  mode, oracle=oracle).error_estimate
                    for n in (32, 64)]
            assert 1.7 <= errs[0] / errs[1] <= 2.3
            assert errs[1] <= 0.02


def test_criterion_07_zero_hamiltonian_collapse():
    rng = rng_for(107)
    spin = Spin(2)
    fv = random_fv(spin, rng)
    spec = HamiltonianSpec(spin)
    grid = build_grid(spin)
    om_i, om_f = random_omega(rng), random_omega(rng)
    target = overlap(fv, om_f, om_i)
    for n_slices in range(1, 9):
        for mode in ("M1", "M2", "M3"):
            res = discrete_cspi(fv, spec, om_i, om_f, 0.0, 1.0, n_slices,
                                grid, mode)
            assert abs(res.amplitude - target) <= 1e-12


def test_criterion_08_gauge_structure():
    rng = rng_for(108)
    h = 1e-5
    # exterior derivative of the kinetic one-form vs finite differences
    for _ in range(20):
        spin = Spin(int(rng.integers(1, 5)))
        fv = random_fv(spin, rng)
        om = random_omega(rng, theta_margin=0.2, wrap_margin=0.2)
        base = om.as_array()

        def kappa(angles):
            k = one_form(fv, angles)
            return np.array([k.k_phi, k.k_theta, k.k_psi])

        jac = np.zeros((3, 3))
        for i in range(3):
            step = np.zeros(3)
            step[i] = h
            jac[i] = (kappa(base + step) - kappa(base - step)) / (2 * h)
        w = two_form(fv, om)
        assert abs((jac[1, 0] - jac[0, 1]) - w.w_theta_phi) <= 1e-6
        assert abs((jac[0, 2] - jac[2, 0]) - w.w_phi_psi) <= 1e-6
        assert abs((jac[2, 1] - jac[1, 2]) - w.w_psi_theta) <= 1e-6
    # gauge potentials stay finite at both coordinate poles
    for _ in range(50):
        spin = Spin(int(rng.integers(1, 5)))
        fv = random_fv(spin, rng)
        for theta in (0.0, math.pi):
            a = gauge_potential(fv, theta, float(rng.uniform(0, 2 * math.pi)),
                                float(rng.uniform(0, 2 * math.pi)))
            assert np.isfinite([a.a_theta, a.a_xi, a.a_eta]).all()
    # single-m fiducial vectors carry kappa = m (cos(theta) dphi + dpsi)
    spin = Spin(4)
    for idx, m in enumerate([2.0, 1.0, 0.0, -1.0, -2.0]):
        for _ in range(3):
            om = random_omega(rng)
            k = one_form(basis_fv(spin, idx), om)
            assert abs(k.k_phi - m * math.cos(om.theta)) <= 1e-12
            assert abs(k.k_theta) <= 1e-12
            assert abs(k.k_psi - m) <= 1e-12


def test_criterion_09_semiclassical_precession():
    omega_z = 1.3
    spin = Spin(4)
    fv = lowest_fv(spin)
    spec = HamiltonianSpec(spin, (MonomialTerm(0, 1, 0, omega_z),))
    period = 2.0 * math.pi / omega_z
    om0 = (0.4, 1.1, 2.2)
    traj = integrate_trajectory(fv, spec, om0, (0.0, period), period / 400)
    t = traj.path[:, 0]
    assert np.abs(traj.path[:, 1] - (0.4 + omega_z * t)).max() <= 1e-8
    assert np.abs(traj.path[:, 2] - 1.1).max() <= 1e-8
    assert np.abs(traj.energies - traj.energies[0]).max() <= 1e-8
    assert set(traj.ranks.tolist()) == {2}


def test_criterion_10_contraction_limit():
    alpha = 1.0
    vacuum = make_fock([1.0])
    target = canonical_cs(vacuum, alpha, n_max=40).amplitudes
    devs = []
    for two_s in (100, 200, 400):
        spin = Spin(two_s)
        fv = lowest_fv(spin)
        hp = hp_contract_state(fv, alpha).coeffs
        devs.append(float(np.abs(hp[:41] - target).max()))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] <= 0.01
    # ladder factors approach the canonical sqrt(n) with relative error n/(4s)
    for two_s in (100, 200, 400):
        spin = Spin(two_s)
        for n in range(1, 11):
            f = ladder_factor(spin, 2 * n - two_s)
            assert abs(f / math.sqrt(two_s * n) - 1.0) <= n / (2.0 * two_s) + 1e-15
    # S3 expectation reindexed by n = m + s equals the Fock occupation
    fock = make_fock([0.5, 0.5, 0.5, 0.5])
    spin = Spin(400)
    coeffs = np.zeros(spin.dim, dtype=complex)
    coeffs[:4] = fock.coeffs
    fv = make_fiducial(spin, coeffs[::-1])
    a0, _ = structure_pair(fv)
    occupation = float(np.sum(np.arange(4) * np.abs(fock.coeffs) ** 2))
    assert abs((a0 + spin.s) - occupation) <= 1e-10
    # measure pushforward approaches the flat canonical density at O(1/s)
    alphas = np.linspace(0.0, 2.0, 41)
    worst = [max(abs(hp_measure_ratio(a, Spin(two_s)) - 1.0) for a in alphas)
             for two_s in (100, 200, 400)]
    assert worst[0] > worst[1] > worst[2]
    assert 1.8 <= worst[0] / worst[1] <= 2.2
    assert 1.8 <= worst[1] / worst[2] <= 2.2


def test_criterion_11_canonical_coherent_states():
    # closed displaced-number-state forms vs displacement-matrix columns
    for alpha in (0.7, 1.3 - 0.4j):
        d = displacement_matrix(alpha, 64)
        for n in (0, 2, 5):
            assert np.abs(dns_amplitudes(alpha, n, 64) - d[:, n]).max() <= 1e-9
    # eigen-relation residuals at adequate truncation
    assert dns_number_check(1.0, 3, 96) <= 1e-8
    assert annihilation_degree_residual(make_fock([1.0]), 0.9 + 0.2j) <= 1e-8
    assert annihilation_degree_residual(
        make_fock([0.6, 0.0, 0.8]), 1.0, n_max=96) <= 1e-8
    # canonical resolution of unity on the low-Fock subspace
    assert ccs_resolution_residual(make_fock([1.0])) <= 1e-6
    assert ccs_resolution_residual(make_fock([0.6, 0.0, 0.8])) <= 1e-6


def test_criterion_12_chart_compatibility():
    rng = rng_for(112)
    step = 1e-6
    for _ in range(100):
        spin = Spin(int(rng.integers(1, 5)))
        fv = random_fv(spin, rng)
        om = random_omega(rng, theta_margin=0.25, wrap_margin=0.3)
        om_dot = rng.normal(size=3)
        base = kinetic_term(fv, om, om_dot)
        angles = om.as_array()
        om_p = EulerAngles(*(angles + step * om_dot))
        om_m = EulerAngles(*(angles - step * om_dot))
        z_p, z_m = omega_to_z(om_p), omega_to_z(om_m)
        z_dot = ((z_p.z_plus - z_m.z_plus) / (2 * step),
                 (z_p.z_minus - z_m.z_minus) / (2 * step))
        assert abs(kinetic_term_z(fv, omega_to_z(om), z_dot) - base) <= 1e-8
        a_p, a_m = omega_to_a(om_p), omega_to_a(om_m)
        a_dot = ((a_p.a1 - a_m.a1) / (2 * step),
                 (a_p.a2 - a_m.a2) / (2 * step))
        assert abs(kinetic_term_a(fv, omega_to_a(om), a_dot) - base) <= 1e-8
