import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from conftest import random_omega, rng_for
from spincs import (DecompositionPole, EulerAngles, NotUnitary, RotationMatrix,
                    Spin, a_to_omega, big_r, compose_euler, conjugate_spin_ops,
                    euler_from_su2, gaussian_decompose, invert_euler, ladder_factor,
                    little_d, omega_to_a, spin_operators, su2_matrix)


def test_spin_validation():
    assert Spin(3).s == 1.5
    assert Spin(3).dim == 4
    assert_allclose(Spin(2).two_m_values(), [2, 0, -2])
    with pytest.raises(ValueError):
        Spin(-1)
    with pytest.raises(ValueError):
        Spin(1.5)


def test_euler_angle_normalization():
    om = EulerAngles(0.3, 1.2, 5.9)
    assert_allclose((om.phi, om.theta, om.psi), (0.3, 1.2, 5.9))
    # negative theta folds onto (phi+pi, theta, psi+pi)
    folded = EulerAngles(0.3, -1.2, 5.9)
    assert_allclose(folded.theta, 1.2)
    assert_allclose(folded.phi, 0.3 + math.pi)
    assert_allclose(folded.psi, (5.9 + math.pi) % (2 * math.pi))
    # the fold labels the same rotation
    spin = Spin(2)
    assert_allclose(big_r(spin, folded).entries,
                    big_r(spin, EulerAngles(0.3 + math.pi, 1.2, 5.9 + math.pi)).entries,
                    atol=1e-14)


def test_little_d_half_spin_closed_form():
    th = 0.83
    d = little_d(Spin(1), th)
    assert_allclose(d, [[math.cos(th / 2), -math.sin(th / 2)],
                        [math.sin(th / 2), math.cos(th / 2)]], atol=1e-14)


def test_little_d_spin_one_closed_form():
    th = 1.21
    c, s = math.cos(th), math.sin(th)
    r2 = math.sqrt(2.0)
    expected = np.array([
        [(1 + c) / 2, -s / r2, (1 - c) / 2],
        [s / r2, c, -s / r2],
        [(1 - c) / 2, s / r2, (1 + c) / 2],
    ])
    assert_allclose(little_d(Spin(2), th), expected, atol=1e-14)


@pytest.mark.parametrize("two_s", [1, 2, 3, 5, 8, 31, 40, 64, 80])
def test_little_d_matches_exponential(two_s):
    # 31 to 80 are where a factorial sum cancels at mid angles
    rng = rng_for(10, two_s)
    ops = spin_operators(Spin(two_s))
    for th in [rng.uniform(0, math.pi) for _ in range(4)] + [0.5 * math.pi]:
        assert_allclose(little_d(Spin(two_s), th), expm(-1j * th * ops.s2).real,
                        atol=1e-12)


def test_little_d_inverse_angle():
    d = little_d(Spin(5), 0.9)
    assert_allclose(d @ little_d(Spin(5), -0.9), np.eye(6), atol=1e-13)


@pytest.mark.parametrize("two_s", [1, 2, 4])
def test_big_r_matches_exponentials(two_s):
    rng = rng_for(11, two_s)
    ops = spin_operators(Spin(two_s))
    for _ in range(4):
        om = random_omega(rng)
        direct = (expm(-1j * om.phi * ops.s3) @ expm(-1j * om.theta * ops.s2)
                  @ expm(-1j * om.psi * ops.s3))
        assert_allclose(big_r(Spin(two_s), om).entries, direct, atol=1e-12)


def test_big_r_large_spin_consistent_with_composition():
    # the log-space little-d route (two_s > 30) must still represent the
    # group: R(om2) R(om1) = sign^two_s R(om2 . om1)
    two_s = 41
    rng = rng_for(12)
    om1, om2 = random_omega(rng), random_omega(rng)
    r1 = big_r(Spin(two_s), om1).entries
    r2 = big_r(Spin(two_s), om2).entries
    om12, sign = compose_euler(om2, om1)
    assert_allclose(sign ** two_s * big_r(Spin(two_s), om12).entries, r2 @ r1,
                    atol=1e-11)


def test_rotation_matrix_unitarity_guard():
    with pytest.raises(NotUnitary):
        RotationMatrix(Spin(1), np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_su2_roundtrip_and_double_cover():
    rng = rng_for(13)
    for _ in range(20):
        om = random_omega(rng, theta_margin=1e-6)
        u = su2_matrix(om)
        om2, sign = euler_from_su2(u)
        assert_allclose(sign * su2_matrix(om2), u, atol=1e-12)
        om3, sign3 = euler_from_su2(-u)
        assert_allclose(sign3 * su2_matrix(om3), -u, atol=1e-12)


def test_su2_matrix_keeps_psi_next_to_a_huge_phi():
    # e^{-i(phi + psi)/2} from the sum lost psi = 0.1 to rounding at
    # phi = 1e300; each half-angle phase is its own factor
    u0, u = su2_matrix((1e300, 0.2, 0.0)), su2_matrix((1e300, 0.2, 0.1))
    assert_allclose(u[:, 0], u0[:, 0] * np.exp(-0.05j), rtol=0, atol=1e-15)
    assert_allclose(u[:, 1], u0[:, 1] * np.exp(0.05j), rtol=0, atol=1e-15)


@pytest.mark.parametrize("theta, tol", [(0.0, 1e-14), (1e-10, 1e-14), (1e-9, 1e-14),
                                        (math.pi, 1e-14), (math.pi - 1e-10, 1e-14),
                                        (math.pi - 1e-9, 1e-14)])
def test_su2_roundtrip_at_degenerate_theta(theta, tol):
    # the angles are read from (a, b) with no pole cutoff, so the
    # reconstruction is exact to roundoff within 1e-9 of either pole too
    rng = rng_for(16)
    for _ in range(10):
        phi, psi = rng.uniform(-2 * math.pi, 2 * math.pi, 2)
        for u in (su2_matrix((phi, theta, psi)), -su2_matrix((phi, theta, psi))):
            om, sign = euler_from_su2(u)
            assert_allclose(sign * su2_matrix(om), u, rtol=0, atol=tol)


@pytest.mark.parametrize("theta", [5e-10, 9e-10, math.pi - 5e-10])
def test_compose_euler_near_the_poles(theta):
    # a 1e-9 pole cutoff dropped the entry of size sin(theta/2) or
    # cos(theta/2): errors of 2.5e-10 at two_s=1 up to 9.2e-9 at two_s=40
    om1, om2 = EulerAngles(0.3, theta, 0.1), EulerAngles(0.7, 0.0, 0.4)
    om12, sign = compose_euler(om2, om1)
    for two_s in (1, 8, 40):
        spin = Spin(two_s)
        assert_allclose(sign ** two_s * big_r(spin, om12).entries,
                        big_r(spin, om2).entries @ big_r(spin, om1).entries, rtol=0, atol=1e-12)
    a = omega_to_a(om1)
    back, sign = a_to_omega(a)
    b = omega_to_a(back)
    assert_allclose(sign * np.array([b.a1, b.a2]), [a.a1, a.a2], rtol=0, atol=1e-14)


def test_big_r_takes_a_raw_triple_on_its_sheet():
    # a raw triple raised AttributeError; 2pi in phi is the other sheet at
    # half-integer spin
    spin = Spin(3)
    entries = big_r(spin, EulerAngles(0.4, 1.1, 2.2)).entries
    assert_allclose(big_r(spin, (0.4, 1.1, 2.2)).entries, entries, rtol=0, atol=1e-14)
    assert_allclose(big_r(spin, (0.4 + 2 * math.pi, 1.1, 2.2)).entries, -entries,
                    rtol=0, atol=1e-14)


def test_euler_angles_never_reach_two_pi():
    # x % 2pi rounded -1e-17 and -1e-300 up to 2pi, outside [0, 2pi)
    om = EulerAngles(-1e-17, 0.5, -1e-300)
    assert (om.phi, om.theta, om.psi) == (0.0, 0.5, 0.0)


@pytest.mark.parametrize("u, error", [
    (np.eye(3), ValueError),
    (np.array([[1.0, 0.1], [0.0, 1.0]]), NotUnitary),
    (np.diag([1.0, -1.0]), NotUnitary),
], ids=["not_2x2", "not_unitary", "det_minus_one"])
def test_euler_from_su2_rejects(u, error):
    with pytest.raises(error):
        euler_from_su2(u)


@pytest.mark.parametrize("two_s", [1, 2, 3])
def test_compose_euler(two_s):
    rng = rng_for(14, two_s)
    spin = Spin(two_s)
    for _ in range(6):
        om1, om2 = random_omega(rng), random_omega(rng)
        om12, sign = compose_euler(om2, om1)
        assert_allclose(sign ** two_s * big_r(spin, om12).entries,
                        big_r(spin, om2).entries @ big_r(spin, om1).entries,
                        atol=1e-12)


def test_composed_theta_relation():
    rng = rng_for(15)
    for _ in range(30):
        om1, om2 = random_omega(rng), random_omega(rng)
        om12, _ = compose_euler(om2, om1)
        expected = (math.cos(om1.theta) * math.cos(om2.theta)
                    - math.sin(om1.theta) * math.sin(om2.theta)
                    * math.cos(om2.psi + om1.phi))
        assert_allclose(math.cos(om12.theta), expected, atol=1e-12)


@pytest.mark.parametrize("two_s", [1, 2, 5])
def test_invert_euler(two_s):
    rng = rng_for(16, two_s)
    spin = Spin(two_s)
    for _ in range(6):
        om = random_omega(rng)
        r = big_r(spin, om).entries
        r_inv = big_r(spin, invert_euler(om)).entries
        # canonical angle ranges cover half of the double cover, so the
        # half-integer representation may pick up a global sign
        dev = min(np.linalg.norm(r_inv - r.conj().T),
                  np.linalg.norm(r_inv + r.conj().T))
        assert dev < 1e-12


@pytest.mark.parametrize("two_s", [1, 2, 3, 4])
def test_gaussian_decomposition_product(two_s):
    rng = rng_for(17, two_s)
    ops = spin_operators(Spin(two_s))
    for _ in range(5):
        om = random_omega(rng, theta_margin=0.05)
        z_plus, z3, z_minus = gaussian_decompose(om)
        product = (expm(z_plus * ops.s_plus) @ expm(z3 * ops.s3)
                   @ expm(z_minus * ops.s_minus))
        assert_allclose(product, big_r(Spin(two_s), om).entries, atol=1e-11)


def test_gaussian_decomposition_pole():
    with pytest.raises(DecompositionPole):
        gaussian_decompose(EulerAngles(0.3, math.pi - 1e-12, 0.1))


def test_spin_operator_algebra():
    for two_s in (1, 2, 3):
        ops = spin_operators(Spin(two_s))
        assert_allclose(ops.s3 @ ops.s_plus - ops.s_plus @ ops.s3, ops.s_plus,
                        atol=1e-13)
        assert_allclose(ops.s_plus @ ops.s_minus - ops.s_minus @ ops.s_plus,
                        2.0 * ops.s3, atol=1e-13)
        casimir = ops.s3 @ ops.s3 + 0.5 * (ops.s_plus @ ops.s_minus
                                           + ops.s_minus @ ops.s_plus)
        s = 0.5 * two_s
        assert_allclose(casimir, s * (s + 1) * np.eye(two_s + 1), atol=1e-13)


def test_ladder_factor_matches_matrix():
    spin = Spin(5)
    ops = spin_operators(spin)
    two_m = spin.two_m_values()
    for i in range(spin.dim - 1):
        assert_allclose(ops.s_plus[i, i + 1], ladder_factor(spin, int(two_m[i])))


@pytest.mark.parametrize("two_s", [1, 2, 3])
def test_conjugate_spin_ops(two_s):
    rng = rng_for(18, two_s)
    spin = Spin(two_s)
    ops = spin_operators(spin)
    for _ in range(4):
        om = random_omega(rng)
        r = big_r(spin, om).entries
        rotated = conjugate_spin_ops(spin, om)
        assert_allclose(rotated.s3, r.conj().T @ ops.s3 @ r, atol=1e-12)
        assert_allclose(rotated.s_plus, r.conj().T @ ops.s_plus @ r, atol=1e-12)
        assert_allclose(rotated.s_minus, rotated.s_plus.conj().T, atol=1e-12)
