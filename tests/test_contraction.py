import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.sparse import diags
from scipy.sparse.linalg import expm_multiply
from scipy.special import factorial

from conftest import random_fv, rng_for
from spincs import (AmplitudesTooLarge, FockVector, GridCoarseWarning, NotHermitian,
                    NotNormalized, PoleMargin, Spin, ZCoords, ZeroVector,
                    annihilation_degree_residual, canonical_cs, ccs_canonical_rhs,
                    ccs_kinetic_term, ccs_resolution_residual, displacement_matrix,
                    dns_amplitudes, dns_number_check, fock_annihilation,
                    hp_contract_state, hp_measure_ratio, kinetic_term_z,
                    ladder_factor, make_fiducial, make_fock, normal_ordered_matrix,
                    structure_pair, z_to_omega)


def _spin_fiducial_from_fock(fock, spin):
    """Embed Fock coefficients (ascending n) as an m-descending fiducial
    vector at the given spin: n = m + s reverses the order."""
    coeffs = np.zeros(spin.dim, dtype=complex)
    coeffs[:fock.coeffs.size] = fock.coeffs
    return make_fiducial(spin, coeffs[::-1])


def test_make_fock():
    fv = make_fock([2.0, 0.0, 1.0j])
    assert_allclose(np.linalg.norm(fv.coeffs), 1.0, atol=1e-15)
    assert fv.n_max == 2
    assert fv.degree == 2
    with pytest.raises(ZeroVector):
        make_fock([0.0, 0.0])
    with pytest.raises(NotNormalized):
        FockVector(np.array([0.5, 0.0]))


@pytest.mark.parametrize("raw, expected", [
    ([1e308, 1e308], [2 ** -0.5, 2 ** -0.5]),
    ([1e-320, 0.0], [1.0, 0.0]),
], ids=["near_overflow", "subnormal"])
def test_make_fock_normalizes_extreme_magnitudes(raw, expected):
    # the norm was taken unscaled: inf (NotFinite, or a RuntimeWarning under
    # the suite's filter) near overflow, 0 (ZeroVector) for a subnormal entry
    assert_allclose(make_fock(raw).coeffs, expected, rtol=1e-15, atol=0)


def test_fock_vector_copies_the_callers_array():
    # the caller's complex array was made read-only in place
    a = np.array([1.0 + 0j, 0.0])
    fv = FockVector(a)
    assert a.flags.writeable
    a[0] = 0.0
    assert fv.coeffs[0] == 1.0
    assert not fv.coeffs.flags.writeable


def test_fock_annihilation():
    a = fock_annihilation(4)
    assert_allclose(a, np.diag(np.sqrt(np.arange(1.0, 5.0)), k=1))
    # [a, a+] = 1 away from the truncation corner
    comm = a @ a.conj().T - a.conj().T @ a
    assert_allclose(comm[:4, :4], np.eye(4), atol=1e-14)


def test_displacement_matrix_unitary_and_poisson():
    alpha = 0.7 - 0.4j
    d = displacement_matrix(alpha, 40)
    assert_allclose(d.conj().T @ d, np.eye(41), atol=1e-12)
    n = np.arange(41)
    poisson = np.exp(-0.5 * abs(alpha) ** 2) * alpha ** n / np.sqrt(factorial(n))
    assert_allclose(d[:, 0], poisson, atol=1e-12)


def test_dns_amplitudes_match_displacement_columns():
    alpha = 0.9 + 0.3j
    d = displacement_matrix(alpha, 48)
    for n in range(4):
        assert_allclose(dns_amplitudes(alpha, n, 48), d[:, n], atol=1e-10)
    assert_allclose(dns_amplitudes(0.0, 2, 10), np.eye(11)[:, 2], atol=0)


def test_dns_number_check():
    # the displaced state is an eigenvector of (a+ - conj(alpha))(a - alpha)
    assert dns_number_check(0.8 - 0.5j, 2, 60) < 1e-10
    # an aggressively truncated space leaves a visible defect
    assert dns_number_check(2.0, 3, 8) > 1e-3


def test_canonical_cs_norm_defect_tracks_truncation():
    # adequate truncation: n_max >= |alpha|^2 + 10 sqrt(|alpha|^2 + 1) + degree
    fock = make_fock([0.6, 0.0, 0.8])
    good = canonical_cs(fock, 1.1 + 0.4j, n_max=20)
    assert good.norm_defect < 1e-9
    bad = canonical_cs(fock, 1.1 + 0.4j, n_max=4)
    assert bad.norm_defect > 1e-3


def test_canonical_cs_matches_displacement_oracle():
    fock = make_fock([1.0, 0.5j, 0.0, 0.2])
    alpha = 0.8 - 0.6j
    state = canonical_cs(fock, alpha, n_max=50)
    oracle = displacement_matrix(alpha, 50)[:, :4] @ fock.coeffs
    assert_allclose(state.amplitudes, oracle, atol=1e-9)


def test_annihilation_degree_residual():
    # (a - alpha)^(degree+1) annihilates a displaced degree-d superposition
    assert annihilation_degree_residual(make_fock([1.0]), 0.9 + 0.2j) < 1e-10
    assert annihilation_degree_residual(make_fock([0.7, 0.0, 0.714142842854285]),
                                        1.2 - 0.3j) < 1e-6


def test_hp_contract_state_guards():
    fv = make_fiducial(Spin(100), np.eye(101)[-1])
    with pytest.raises(PoleMargin):
        hp_contract_state(fv, 10.0 + 0.1j)
    # alpha = 0 leaves the (reversed) fiducial coefficients untouched
    flat = hp_contract_state(fv, 0.0)
    assert_allclose(flat.coeffs, fv.coeffs[::-1], atol=0)


def _contraction_ladder(spins):
    """Deviations of hp_contract_state from the canonical coherent state
    along a ladder of spins: decreasing, O(1/s), halving per doubling."""
    alpha = 1.3 + 0.4j
    fock = make_fock([0.8, 0.0, 0.6])
    target = canonical_cs(fock, alpha, n_max=60).amplitudes
    devs = []
    for two_s in spins:
        spin = Spin(two_s)
        fv = _spin_fiducial_from_fock(fock, spin)
        hp = hp_contract_state(fv, alpha).coeffs
        devs.append(np.abs(hp[:61] - target).max())
    assert all(a > b for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 0.01
    assert all(1.7 < a / b < 2.3 for a, b in zip(devs, devs[1:]))


def test_hp_contract_state_converges_to_canonical():
    _contraction_ladder((100, 200, 400))


def test_hp_contract_state_converges_at_large_spin():
    # three rotation columns a spin, where a full S2 basis would not fit in
    # memory above two_s of about 12000
    _contraction_ladder((12500, 25000, 50000, 100000))


def test_hp_contract_state_refuses_dense_band_within_memory():
    # a dense fiducial needs every column of r(theta): 3.2 GB at two_s=20000
    fv = random_fv(Spin(20000), rng_for(42))
    tracemalloc.start()
    try:
        with pytest.raises(AmplitudesTooLarge, match="GB"):
            hp_contract_state(fv, 1.3 + 0.4j)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50e6


@pytest.mark.parametrize("two_s", [100, 400, 1600, 6400])
def test_hp_contract_state_matches_sparse_expm(two_s):
    alpha = 1.3 + 0.4j
    spin = Spin(two_s)
    fv = _spin_fiducial_from_fock(make_fock([0.8, 0.3j, 0.6]), spin)
    root = math.sqrt(two_s)
    om = z_to_omega(ZCoords(alpha / root, -np.conj(alpha) / root))
    m = spin.m_values()
    # S2 = -i/2 (S+ - S-) with S+ on the first superdiagonal (descending m)
    f = np.array([ladder_factor(spin, int(t)) for t in spin.two_m_values()[:-1]])
    s2 = diags([-0.5j * f, 0.5j * f], [1, -1], format="csr")
    expected = np.exp(-1j * om.phi * m) * expm_multiply(
        -1j * om.theta * s2, np.exp(-1j * om.psi * m) * fv.coeffs)
    assert_allclose(hp_contract_state(fv, alpha).coeffs, expected[::-1], rtol=0, atol=1e-12)


def test_occupation_identity():
    # a0 + s = sum_n n |c_n|^2 connects the spin-side S3 expectation to the
    # Fock occupation of the reversed coefficients
    fock = make_fock([0.5, 0.5, 0.5, 0.5])
    spin = Spin(120)
    fv = _spin_fiducial_from_fock(fock, spin)
    a0, _ = structure_pair(fv)
    occupation = np.sum(np.arange(4) * np.abs(fock.coeffs) ** 2)
    assert_allclose(a0 + spin.s, occupation, atol=1e-10)


def test_ladder_factor_contraction_bound():
    # f(s, m)/sqrt(2s n) -> 1 with relative error at most n/(4s)
    for two_s in (100, 200, 400):
        spin = Spin(two_s)
        for n in range(1, 11):
            two_m = 2 * n - two_s  # n = m + s
            f = ladder_factor(spin, two_m)
            rel = abs(f / math.sqrt(two_s * n) - 1.0)
            assert rel <= n / (2.0 * two_s) + 1e-15


def test_hp_measure_ratio():
    spin = Spin(200)
    assert_allclose(hp_measure_ratio(0.7, spin),
                    (201 / 200) / (1 + 0.49 / 200) ** 2, rtol=1e-13)
    # sup over |alpha| <= 2 shrinks like 1/s
    worst = [max(abs(hp_measure_ratio(a, Spin(two_s)) - 1.0)
                 for a in np.linspace(0.0, 2.0, 41))
             for two_s in (100, 200, 400)]
    assert worst[0] > worst[1] > worst[2]
    assert 1.8 < worst[0] / worst[1] < 2.2
    assert worst[2] < 0.02


def test_ccs_kinetic_term_against_finite_differences():
    fock = make_fock([0.6, 0.3j, 0.0, 0.74161984870957])
    alpha, alpha_dot = 0.9 - 0.2j, 0.4 + 0.7j
    h = 1e-6

    def amps(t):
        return canonical_cs(fock, alpha + t * alpha_dot, n_max=60).amplitudes

    numeric = (1j * np.vdot(amps(0.0), (amps(h) - amps(-h)) / (2 * h))).real
    assert_allclose(ccs_kinetic_term(alpha, alpha_dot, fock), numeric, atol=1e-6)
    assert_allclose(ccs_kinetic_term(alpha, alpha_dot, fock, hbar=3.0),
                    3.0 * ccs_kinetic_term(alpha, alpha_dot, fock), rtol=1e-13)


def test_spin_kinetic_term_contracts_to_canonical():
    # hbar * kinetic_term_z at z = (alpha/sqrt(2s), -conj(alpha)/sqrt(2s))
    # approaches the canonical kinetic term at O(1/s)
    alpha, alpha_dot = 0.8 + 0.3j, -0.5 + 0.9j
    fock = make_fock([0.6, 0.8])
    target = ccs_kinetic_term(alpha, alpha_dot, fock)
    errs = []
    for two_s in (200, 400, 800):
        spin = Spin(two_s)
        fv = _spin_fiducial_from_fock(fock, spin)
        root = math.sqrt(two_s)
        z = ZCoords(alpha / root, -np.conj(alpha) / root)
        z_dot = (alpha_dot / root, -np.conj(alpha_dot) / root)
        errs.append(abs(kinetic_term_z(fv, z, z_dot) - target))
    assert errs[0] > errs[1] > errs[2]
    assert 1.8 < errs[0] / errs[1] < 2.2
    assert 1.8 < errs[1] / errs[2] < 2.2


def test_ccs_resolution_residual():
    assert ccs_resolution_residual(make_fock([1.0])) < 1e-9
    assert ccs_resolution_residual(make_fock([0.6, 0.0, 0.8])) < 1e-6


def test_ccs_resolution_residual_warns_on_short_radial_grid():
    with pytest.warns(GridCoarseWarning):
        res = ccs_resolution_residual(make_fock([1.0]), radial_max=2.0)
    assert res > 0.1


def test_normal_ordered_matrix():
    m = normal_ordered_matrix([(1, 1, 2.0)], 5)
    assert_allclose(m, 2.0 * np.diag(np.arange(6.0)), atol=1e-13)
    with pytest.raises(NotHermitian):
        normal_ordered_matrix([(1, 0, 1.0)], 5)


@pytest.mark.parametrize("alpha", [0.7 + 0.2j, 0.4 - 0.6j])
def test_ccs_canonical_rhs_harmonic_oscillator(alpha):
    # H = w a+a drives alpha_dot = -i w alpha
    rhs = ccs_canonical_rhs([(1, 1, 1.5)], alpha)
    assert_allclose(rhs, -1.5j * alpha, rtol=0, atol=1e-12)
    # hbar enters as 1/hbar once H is fixed
    rhs2 = ccs_canonical_rhs([(1, 1, 1.5)], alpha, hbar=2.0)
    assert_allclose(rhs2, -0.75j * alpha, rtol=0, atol=1e-12)


@pytest.mark.parametrize("degree", [1, 3, 6])
def test_ccs_canonical_rhs_oscillator_dense_fiducial(degree):
    # H = w a+a in D(alpha)|fv> gives alpha_dot = -i w (alpha + <fv|a|fv>) / hbar
    rng = rng_for(40, degree)
    fock = make_fock(rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1))
    mean_a = np.vdot(fock.coeffs, fock_annihilation(degree) @ fock.coeffs)
    for alpha in (0.0, 0.8 - 0.5j, 2.5 + 1.0j):
        rhs = ccs_canonical_rhs([(1, 1, 1.5)], alpha, fock, hbar=0.7)
        assert_allclose(rhs, -1.5j * (alpha + mean_a) / 0.7, rtol=0,
                        atol=1e-12 * (1.0 + abs(alpha) ** 2))


@pytest.mark.parametrize("terms", [
    [(3, 1, 0.2j), (1, 3, -0.2j), (2, 2, 0.05), (1, 1, 1.0)],
    [(4, 0, 0.1), (0, 4, 0.1), (2, 1, 0.3 - 0.1j), (1, 2, 0.3 + 0.1j)],
])
def test_ccs_canonical_rhs_degree_four_against_finite_differences(terms):
    # -(i/hbar) (d_re + i d_im)/2 of <H> on a truncation far past the tail
    rng = rng_for(41)
    fock = make_fock(rng.normal(size=4) + 1j * rng.normal(size=4))
    h_mat = normal_ordered_matrix(terms, 60)

    def h_of(a):
        v = canonical_cs(fock, a, n_max=60).amplitudes
        return np.vdot(v, h_mat @ v).real

    alpha, step = 0.8 - 0.5j, 1e-5
    d_re = (h_of(alpha + step) - h_of(alpha - step)) / (2 * step)
    d_im = (h_of(alpha + 1j * step) - h_of(alpha - 1j * step)) / (2 * step)
    assert_allclose(ccs_canonical_rhs(terms, alpha, fock), -0.5j * (d_re + 1j * d_im),
                    rtol=0, atol=1e-8)


def test_ccs_canonical_rhs_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        ccs_canonical_rhs([(1, 0, 1.0)], 0.5)
