import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from conftest import (basis_fv, dense_gram, jittered_grid, lowest_fv, random_fv,
                      random_omega, rng_for)
from spincs import (AmplitudesTooLarge, EulerAngles, GridCoarseWarning, LengthMismatch,
                    NotFinite, NotNormalized, Spin, ZeroVector, big_r, build_grid, coherent_state,
                    generating_function, grid_amplitudes, make_fiducial,
                    euler_from_su2, matrix_elements, overlap, resolution_residual,
                    spin_operators, structure_pair, su2_matrix)
from spincs.coherent import _grid_gram


def test_make_fiducial_normalizes_and_fixes_phase():
    fv = make_fiducial(Spin(2), [2.0, 0.0, 2.0j])
    assert_allclose(np.linalg.norm(fv.coeffs), 1.0, atol=1e-15)
    # leading nonzero coefficient is made real positive
    assert fv.coeffs[0].imag == 0.0
    assert fv.coeffs[0].real > 0.0
    fv2 = make_fiducial(Spin(2), [0.0, 1.0j, 0.0])
    assert_allclose(fv2.coeffs, [0.0, 1.0, 0.0], atol=1e-15)


def test_make_fiducial_errors():
    with pytest.raises(LengthMismatch):
        make_fiducial(Spin(2), [1.0, 0.0])
    with pytest.raises(ZeroVector):
        make_fiducial(Spin(1), [0.0, 0.0])
    with pytest.raises(NotNormalized):
        from spincs import FiducialVector
        FiducialVector(Spin(1), np.array([0.8, 0.0]))


@pytest.mark.parametrize("raw, expected", [
    ([1e308, 1e308, 0.0], [2 ** -0.5, 2 ** -0.5, 0.0]),
    ([1e-320, 0.0, 0.0], [1.0, 0.0, 0.0]),
    ([3e-162, 4e-162, 0.0], [0.6, 0.8, 0.0]),
    ([0.0, 1e308 + 1e308j, -1e308j], [0.0, (2 / 3) ** 0.5, -(1 + 1j) / 6 ** 0.5]),
], ids=["near_overflow", "subnormal", "subnormal_squares", "complex_near_overflow"])
def test_make_fiducial_normalizes_extreme_magnitudes(raw, expected):
    # the norm was taken unscaled: inf (NotFinite) near overflow, 0
    # (ZeroVector) for a subnormal entry, and 1.2% off (NotNormalized)
    # where the squares were subnormal
    fv = make_fiducial(Spin(2), raw)
    assert_allclose(fv.coeffs, expected, rtol=0, atol=1e-15)


def test_coherent_state_is_rotated_fiducial():
    rng = rng_for(20)
    for two_s in (1, 2, 3):
        fv = random_fv(Spin(two_s), rng)
        om = random_omega(rng)
        state = coherent_state(fv, om)
        assert_allclose(state.amplitudes, big_r(fv.spin, om).entries @ fv.coeffs,
                        atol=1e-13)
        assert_allclose(np.linalg.norm(state.amplitudes), 1.0, atol=1e-13)


def test_coherent_state_takes_raw_triples_and_stacks():
    rng = rng_for(27)
    for two_s in (1, 2, 4):
        fv = random_fv(Spin(two_s), rng)
        angles = rng.uniform(-7.0, 7.0, (6, 3))
        stack = coherent_state(fv, angles).amplitudes
        assert stack.shape == (6, two_s + 1)
        # one _rotate call whatever the layout of the stack: nested arrays,
        # lists of triples and sequences of EulerAngles give its rows bit for bit
        nested = coherent_state(fv, angles.reshape(2, 3, 3)).amplitudes
        assert np.array_equal(nested.reshape(6, -1), stack)
        assert np.array_equal(coherent_state(fv, angles.tolist()).amplitudes, stack)
        folded = [EulerAngles(*a) for a in angles]
        assert np.array_equal(coherent_state(fv, folded).amplitudes,
                              coherent_state(fv, [om.as_array() for om in folded]).amplitudes)
        for row, a, om in zip(stack, angles, folded):
            single = coherent_state(fv, a).amplitudes
            # one point takes BLAS's vector product and a stack its matrix
            # product, which may round the last bit differently
            assert_allclose(row, single, rtol=0, atol=1e-15)
            # a raw triple at canonical angles is its EulerAngles, bit for bit
            assert np.array_equal(coherent_state(fv, om.as_array()).amplitudes,
                                  coherent_state(fv, om).amplitudes)
            # raw angles keep the SU(2) sheet: R(a) = sign^(2s) R(folded)
            _, sign = euler_from_su2(su2_matrix(a))
            assert_allclose(single, sign ** two_s * coherent_state(fv, om).amplitudes,
                            atol=1e-12)


def test_overlap_against_direct_inner_product():
    rng = rng_for(21)
    for two_s in (1, 2, 4):
        fv = random_fv(Spin(two_s), rng)
        om1, om2 = random_omega(rng), random_omega(rng)
        direct = np.vdot(coherent_state(fv, om2).amplitudes,
                         coherent_state(fv, om1).amplitudes)
        assert_allclose(overlap(fv, om2, om1), direct, atol=1e-13)
        assert_allclose(overlap(fv, om1, om1), 1.0, atol=1e-13)


@pytest.mark.parametrize("two_s", [1, 2, 7, 26, 34])
def test_overlap_matches_composed_rotation_route(two_s):
    # c^dag R(Omega3) c with Omega3 the Euler angles of R(Omega2)^dag
    # R(Omega1), taken from the 2x2 product with its double-cover sign
    rng = rng_for(27, two_s)
    spin = Spin(two_s)
    for _ in range(5):
        fv = random_fv(spin, rng)
        om1, om2 = random_omega(rng), random_omega(rng)
        u = su2_matrix((-om2.psi, -om2.theta, -om2.phi)) @ su2_matrix(om1)
        om3, sign = euler_from_su2(u)
        composed = sign ** two_s * np.vdot(fv.coeffs, big_r(spin, om3).entries @ fv.coeffs)
        assert abs(overlap(fv, om2, om1) - composed) < 1e-10


def test_structure_pair_against_operator_expectations():
    rng = rng_for(22)
    for two_s in (1, 2, 3, 5):
        fv = random_fv(Spin(two_s), rng)
        ops = spin_operators(fv.spin)
        a0, b0 = structure_pair(fv)
        assert_allclose(a0, np.vdot(fv.coeffs, ops.s3 @ fv.coeffs).real,
                        atol=1e-13)
        assert_allclose(b0, np.vdot(fv.coeffs, ops.s_plus @ fv.coeffs),
                        atol=1e-13)


def test_structure_pair_computed_once_per_fiducial():
    fv = random_fv(Spin(4), rng_for(32))
    # nothing is computed at construction, where large-spin fiducials are cheap
    assert "_structure_pair" not in vars(fv)
    pair = structure_pair(fv)
    assert structure_pair(fv) is pair
    assert structure_pair(make_fiducial(fv.spin, fv.coeffs)) is not pair


def test_matrix_elements_match_dense_conjugation():
    rng = rng_for(23)
    for two_s in (1, 2, 4):
        fv = random_fv(Spin(two_s), rng)
        ops = spin_operators(fv.spin)
        for _ in range(5):
            om = random_omega(rng)
            s3_exp, s_plus_exp, _ = matrix_elements(fv, om)
            r = big_r(fv.spin, om).entries
            psi = r @ fv.coeffs
            assert_allclose(s3_exp, np.vdot(psi, ops.s3 @ psi).real, atol=1e-12)
            assert_allclose(s_plus_exp, np.vdot(psi, ops.s_plus @ psi), atol=1e-12)


def test_matrix_element_set_components():
    rng = rng_for(24)
    fv = random_fv(Spin(3), rng)
    a0, b0 = structure_pair(fv)
    om = random_omega(rng)
    _, _, mset = matrix_elements(fv, om)
    assert_allclose(mset.a0, a0, atol=1e-14)
    assert_allclose(mset.a1, (np.exp(1j * om.psi) * b0).real, atol=1e-14)
    assert_allclose(mset.a4, (np.exp(1j * om.psi) * b0).imag, atol=1e-14)


def test_generating_function_reduces_to_overlap_and_derivative():
    rng = rng_for(25)
    fv = random_fv(Spin(2), rng)
    om1, om2 = random_omega(rng), random_omega(rng)
    assert_allclose(generating_function(fv, om2, om1, 0.0, 0.0, 0.0),
                    overlap(fv, om2, om1), atol=1e-13)
    # d/dz3 at 0 gives <Omega2| S3 |Omega1>
    h = 1e-6
    fd = (generating_function(fv, om2, om1, 0.0, h, 0.0)
          - generating_function(fv, om2, om1, 0.0, -h, 0.0)) / (2 * h)
    ops = spin_operators(fv.spin)
    direct = np.vdot(coherent_state(fv, om2).amplitudes,
                     ops.s3 @ coherent_state(fv, om1).amplitudes)
    assert_allclose(fd, direct, atol=1e-8)


def test_grid_weights_and_exactness_window():
    grid = build_grid(Spin(4))
    assert_allclose(grid.weights().sum(), 8.0 * math.pi ** 2, rtol=1e-13)
    assert_allclose(grid.measure_weights(Spin(4)).sum(), 5.0, rtol=1e-13)
    assert grid.exact_two_s >= 4
    with pytest.raises(ValueError):
        build_grid(Spin(2), oversample=0.5)


@pytest.mark.parametrize("oversample", [math.nan, math.inf])
def test_build_grid_non_finite_oversample(oversample):
    # nan failed in int() ("cannot convert float NaN to integer"), inf with
    # an OverflowError
    with pytest.raises(NotFinite, match="oversample"):
        build_grid(Spin(2), oversample)


def test_build_grid_shares_read_only_gauss_legendre_rule():
    first, second = build_grid(Spin(3)), build_grid(Spin(3))
    assert first.theta is second.theta
    assert first.theta_weights is second.theta_weights
    for arr in (first.theta, first.theta_weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    x, w = np.polynomial.legendre.leggauss(first.n_theta)
    assert_allclose(first.theta, np.arccos(x), atol=0)
    assert_allclose(first.theta_weights, w, atol=0)


class _RuleReached(Exception):
    pass


def test_build_grid_refuses_a_rule_past_the_budget(monkeypatch):
    # oversample=1e9 raised a bare MemoryError, and oversample=3000 took 88 s
    # in leggauss, whose dense n_theta x n_theta companion matrix was 1.15 GB
    # at n_theta = 12000.  At two_s = 2, n_theta = ceil(4 oversample) passes
    # 2**30 bytes at 11586 nodes: the smallest failing oversample is the
    # float after 2896.25.  leggauss is replaced, so nothing is allocated
    def reached(n):
        raise _RuleReached(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", reached)
    for oversample in (math.nextafter(2896.25, math.inf), 3000.0, 1e9):
        with pytest.raises(AmplitudesTooLarge, match="Gauss-Legendre"):
            build_grid(Spin(2), oversample)
    # one node fewer fits the budget and reaches leggauss (which raises, so
    # the rule cache keeps nothing)
    with pytest.raises(_RuleReached, match="11585"):
        build_grid(Spin(2), 2896.25)


@pytest.mark.parametrize("two_s", [1, 2, 3])
def test_resolution_residual_at_roundoff(two_s):
    rng = rng_for(26, two_s)
    grid = build_grid(Spin(two_s))
    for _ in range(3):
        fv = random_fv(Spin(two_s), rng)
        assert resolution_residual(fv, grid) < 1e-12


def test_resolution_residual_warns_on_coarse_grid():
    # six azimuthal nodes alias the e^{6i phi} harmonics of a spin-3 kernel
    fv = random_fv(Spin(6), rng_for(29))
    coarse = build_grid(Spin(1))
    with pytest.warns(GridCoarseWarning):
        res = resolution_residual(fv, coarse)
    assert res > 1e-3


def test_resolution_residual_warning_is_conservative():
    # the warning keys off a sufficient (not sharp) exactness bound, so a
    # mildly undersized grid can still integrate exactly
    fv = lowest_fv(Spin(6))
    grid = build_grid(Spin(2))
    with pytest.warns(GridCoarseWarning):
        res = resolution_residual(fv, grid)
    assert res < 1e-12


def test_grid_amplitudes_orthogonality():
    # with the normalized measure, rotation-matrix columns integrate to
    # delta_ab delta_kl: the Gram matrix of two basis fiducials is diagonal
    spin = Spin(2)
    grid = build_grid(spin)
    gram = dense_gram(grid, basis_fv(spin, 0), basis_fv(spin, 2))
    assert_allclose(gram, np.zeros((spin.dim, spin.dim)), atol=1e-12)
    gram_self = dense_gram(grid, basis_fv(spin, 0))
    assert_allclose(gram_self, np.eye(spin.dim), atol=1e-12)


def test_grid_amplitudes_match_pointwise_states():
    rng = rng_for(27)
    spin = Spin(2)
    fv = random_fv(spin, rng)
    grid = build_grid(spin)
    amps = grid_amplitudes(fv, grid)
    # spot-check a handful of grid nodes against coherent_state
    idx = rng.integers(0, amps.shape[0], size=5)
    n_phi, n_psi = grid.n_phi, grid.n_psi
    for g in idx:
        i_t, rem = divmod(int(g), n_phi * n_psi)
        i_p, i_s = divmod(rem, n_psi)
        om = EulerAngles(grid.phi[i_p], grid.theta[i_t], grid.psi[i_s])
        assert_allclose(amps[g], coherent_state(fv, om).amplitudes, atol=1e-12)


@pytest.mark.parametrize("two_s", [64, 80])
def test_grid_amplitudes_large_spin_match_expm(two_s):
    # the coarse grid has a theta node at pi/2, the angle where a factorial
    # sum for r(theta) cancels worst
    fv = random_fv(Spin(two_s), rng_for(29, two_s))
    grid = build_grid(Spin(0))
    amps = grid_amplitudes(fv, grid)
    ops = spin_operators(fv.spin)
    m = fv.spin.m_values()
    g = 0
    for th in grid.theta:
        r_c = expm(-1j * th * ops.s2)
        for ph in grid.phi:
            for ps in grid.psi:
                expected = np.exp(-1j * ph * m) * (r_c @ (np.exp(-1j * ps * m) * fv.coeffs))
                assert_allclose(amps[g], expected, atol=1e-10)
                g += 1


def test_resolution_residual_above_two_s_30():
    fv = random_fv(Spin(36), rng_for(30))
    assert resolution_residual(fv, build_grid(Spin(36), oversample=1.0)) <= 1e-13


def test_grid_amplitudes_size_guard():
    # 11.8 GB per amplitude array: refused before numpy allocates it, while
    # the factorized residual on the same grid needs no such array
    fv = random_fv(Spin(100), rng_for(31))
    grid = build_grid(Spin(100))
    tracemalloc.start()
    try:
        with pytest.raises(AmplitudesTooLarge, match="GB"):
            grid_amplitudes(fv, grid)
        residual = resolution_residual(fv, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    assert residual <= 1e-12


@pytest.mark.parametrize("two_s", range(31))
def test_grid_gram_matches_dense_sum(two_s):
    rng = rng_for(32, two_s)
    spin = Spin(two_s)
    grid = build_grid(spin)
    bra, ket = random_fv(spin, rng), random_fv(spin, rng)
    for b, k in ((bra, ket), (bra, bra)):
        assert_allclose(_grid_gram(grid, spin, b.coeffs, k.coeffs), dense_gram(grid, b, k),
                        rtol=0, atol=1e-13)


@pytest.mark.parametrize("two_s,grid_two_s,fv_kind", [(6, 1, "random"), (6, 2, "lowest")])
def test_grid_gram_matches_dense_sum_on_coarse_grids(two_s, grid_two_s, fv_kind):
    # the grids of the two GridCoarseWarning tests, aliased and not
    rng = rng_for(33, two_s, grid_two_s)
    spin = Spin(two_s)
    grid = build_grid(Spin(grid_two_s))
    bra = random_fv(spin, rng) if fv_kind == "random" else lowest_fv(spin)
    ket = random_fv(spin, rng)
    for b, k in ((bra, ket), (bra, bra)):
        assert_allclose(_grid_gram(grid, spin, b.coeffs, k.coeffs), dense_gram(grid, b, k),
                        rtol=0, atol=1e-13)
    dense_residual = np.linalg.norm(dense_gram(grid, bra) - np.eye(spin.dim), 2)
    with pytest.warns(GridCoarseWarning):
        assert abs(resolution_residual(bra, grid) - dense_residual) <= 1e-13


@pytest.mark.parametrize("two_s", [1, 4, 9])
def test_grid_gram_matches_dense_sum_on_nonuniform_grid(two_s):
    rng = rng_for(34, two_s)
    spin = Spin(two_s)
    grid = jittered_grid(spin, rng)
    bra, ket = random_fv(spin, rng), random_fv(spin, rng)
    gram = _grid_gram(grid, spin, bra.coeffs, ket.coeffs)
    assert_allclose(gram, dense_gram(grid, bra, ket), rtol=0, atol=1e-13)
    # a stack of kets gives one Gram block per ket
    basis = np.eye(spin.dim)
    stacked = _grid_gram(grid, spin, bra.coeffs, basis)
    for l in range(spin.dim):
        assert_allclose(stacked[l], _grid_gram(grid, spin, bra.coeffs, basis[l]),
                        rtol=0, atol=1e-15)
    assert np.linalg.norm(_grid_gram(grid, spin, bra.coeffs, bra.coeffs)
                          - np.eye(spin.dim), 2) > 1e-3


@pytest.mark.parametrize("two_s", [100, 400])
def test_resolution_residual_at_large_spin(two_s):
    fv = random_fv(Spin(two_s), rng_for(35, two_s))
    grid = build_grid(Spin(two_s))
    tracemalloc.start()
    try:
        residual = resolution_residual(fv, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert residual <= 1e-12
    assert peak < 50e6


def test_generating_function_matches_expm_product():
    rng = rng_for(28)
    fv = random_fv(Spin(3), rng)
    om1, om2 = random_omega(rng), random_omega(rng)
    zp, z3, zm = 0.2 - 0.1j, 0.15j, -0.05 + 0.3j
    ops = spin_operators(fv.spin)
    middle = expm(zp * ops.s_plus) @ expm(z3 * ops.s3) @ expm(zm * ops.s_minus)
    direct = np.vdot(coherent_state(fv, om2).amplitudes,
                     middle @ coherent_state(fv, om1).amplitudes)
    assert_allclose(generating_function(fv, om2, om1, zp, z3, zm), direct,
                    atol=1e-12)
