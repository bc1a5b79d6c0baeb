"""The rotation routes: states and grid maps are rotated vectors on the
cached S2 eigenbasis, contraction states are built from the few columns of
r(theta) their fiducial meets, each an eigenvector of a tridiagonal matrix
with no basis built; both are checked against dense matrix exponentials and
little_d, and every route refuses a non-orthogonal eigenvector."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import eigh_tridiagonal, expm
from scipy.sparse import diags
from scipy.sparse.linalg import expm_multiply

from conftest import random_fv, rng_for
from spincs import (EulerAngles, HamiltonianSpec, MonomialTerm, NotUnitary, QuadratureGrid,
                    Spin, ZCoords, big_r, build_grid, coherent_state, grid_amplitudes,
                    h_gradient, hp_contract_state, ladder_factor, little_d, overlap,
                    resolution_residual, spin_operators, z_to_omega)
from spincs import spin_core
from spincs.spin_core import _r_columns, _rotate, _s2_eigensystem

SPINS = [1, 2, 7, 64, 80]
# theta at 0, pi/2 and pi, then raw angle triples outside the canonical ranges
ANGLES = [(0.4, 0.0, 5.1), (2.3, 0.5 * math.pi, 1.7), (5.9, math.pi, 0.2),
          (-7.3, 4.1, 9.9), (13.0, -2.2, -0.4), (0.3, 7.5, -12.0)]


def _expm_rotation(spin, phi, theta, psi):
    ops = spin_operators(spin)
    m = spin.m_values()
    return np.exp(-1j * phi * m)[:, None] * expm(-1j * theta * ops.s2) * np.exp(-1j * psi * m)


@pytest.mark.parametrize("two_s", SPINS)
def test_states_match_expm(two_s):
    spin = Spin(two_s)
    fv = random_fv(spin, rng_for(90, two_s))
    for raw in ANGLES:
        # the primitive rotates at the raw angles; coherent_state at the
        # folded ones, which may flip the sign at half-integer spin
        assert_allclose(_rotate(two_s, *raw, fv.coeffs),
                        _expm_rotation(spin, *raw) @ fv.coeffs, rtol=0, atol=1e-12)
        om = EulerAngles(*raw)
        assert_allclose(coherent_state(fv, om).amplitudes,
                        _expm_rotation(spin, om.phi, om.theta, om.psi) @ fv.coeffs,
                        rtol=0, atol=1e-12)


@pytest.mark.parametrize("two_s", SPINS)
def test_grid_maps_match_expm(two_s):
    spin = Spin(two_s)
    fv = random_fv(spin, rng_for(91, two_s))
    theta = np.array([0.0, 0.5 * math.pi, math.pi, 4.1, -2.2])
    phi = np.array([-7.3, 0.4, 13.0])
    psi = np.array([9.9, -0.4])
    grid = QuadratureGrid(theta, np.ones(theta.size), phi, psi)
    amps = grid_amplitudes(fv, grid).reshape(theta.size, phi.size, psi.size, spin.dim)
    for i, th in enumerate(theta):
        for j, ph in enumerate(phi):
            for k, ps in enumerate(psi):
                assert_allclose(amps[i, j, k], _expm_rotation(spin, ph, th, ps) @ fv.coeffs,
                                rtol=0, atol=1e-12)


@pytest.mark.parametrize("two_s", SPINS)
def test_contraction_states_match_expm(two_s):
    spin = Spin(two_s)
    fv = random_fv(spin, rng_for(92, two_s))
    root = math.sqrt(two_s)
    # |alpha| from 0 up to just inside the pole at sqrt(2s), where theta
    # approaches pi/2
    for alpha in (0.0, 0.3 * root * np.exp(2.1j), 0.99 * root * np.exp(-0.7j)):
        if alpha == 0:
            expected = fv.coeffs
        else:
            om = z_to_omega(ZCoords(alpha / root, -np.conj(alpha) / root))
            expected = _expm_rotation(spin, om.phi, om.theta, om.psi) @ fv.coeffs
        before = _s2_eigensystem.cache_info()
        assert_allclose(hp_contract_state(fv, alpha).coeffs, expected[::-1],
                        rtol=0, atol=1e-12)
        # the contraction reads columns of r(theta) and never the S2 basis
        assert _s2_eigensystem.cache_info() == before


@pytest.mark.parametrize("two_s", [1, 2, 7, 64])
def test_r_columns_match_little_d(two_s):
    # theta at both poles, one step inside each, and the equator
    for theta in (0.0, 1e-9, 0.5 * math.pi, math.pi - 1e-9, math.pi):
        d = little_d(Spin(two_s), theta)
        for k_lo in range(two_s + 1):
            assert_allclose(_r_columns(two_s, theta, k_lo), d[:, k_lo:], rtol=0, atol=1e-12)


@pytest.mark.parametrize("theta", [1e-9, 1e-3, math.pi - 1e-3, math.pi - 1e-9])
def test_r_columns_where_the_lowest_column_underflows(theta):
    # the lowest-weight column is ~ cos(theta/2)^i sin(theta/2)^(2s-i): near
    # either pole most of its entries underflow, and its sign must be read
    # from the entries that do not
    two_s = 1600
    spin = Spin(two_s)
    f = np.array([ladder_factor(spin, int(t)) for t in spin.two_m_values()[:-1]])
    s2 = diags([-0.5j * f, 0.5j * f], [1, -1], format="csr")
    lowest = np.eye(two_s + 1)[:, -3:]
    if theta < 1.0:
        expected = expm_multiply(-1j * theta * s2, lowest).real
    else:
        # r(pi - beta) = r(pi) r(-beta), with r(pi)|m> = (-1)^(s-m) |-m>:
        # reverse the rows and alternate their signs (a short expm_multiply
        # in place of one across the whole angle)
        expected = expm_multiply(1j * (math.pi - theta) * s2, lowest).real
        expected = ((-1.0) ** np.arange(two_s + 1))[:, None] * expected
        expected = expected[::-1]
    assert_allclose(_r_columns(two_s, theta, two_s - 2), expected, rtol=0, atol=1e-12)


def test_cache_holds_the_basis_and_exact_eigenvalues():
    for two_s in (1, 6, 33):
        u, m = _s2_eigensystem(two_s)
        s2 = spin_operators(Spin(two_s)).s2
        assert_allclose(u.conj().T @ u, np.eye(two_s + 1), atol=1e-13)
        assert_allclose(u @ np.diag(m) @ u.conj().T, s2, atol=1e-13)
        assert_allclose(m, np.arange(two_s + 1) - 0.5 * two_s, atol=0)
        assert not u.flags.writeable and not m.flags.writeable


@pytest.fixture
def skewed_basis(monkeypatch):
    """Every S2 eigenbasis built while active is 1e-6 away from orthogonal."""
    def skewed(*args, **kwargs):
        w, v = eigh_tridiagonal(*args, **kwargs)
        return w, v * (1.0 + 1e-6)

    _s2_eigensystem.cache_clear()
    monkeypatch.setattr(spin_core, "eigh_tridiagonal", skewed)
    yield
    _s2_eigensystem.cache_clear()


ROUTES = {
    "coherent_state": lambda fv: coherent_state(fv, EulerAngles(0.3, 1.1, 2.0)),
    "overlap": lambda fv: overlap(fv, EulerAngles(0.3, 1.1, 2.0), EulerAngles(1.0, 0.2, 0.5)),
    "grid_amplitudes": lambda fv: grid_amplitudes(fv, build_grid(Spin(1))),
    "resolution_residual": lambda fv: resolution_residual(fv, build_grid(fv.spin)),
    "hp_contract_state": lambda fv: hp_contract_state(fv, 0.8 + 0.3j),
    "h_gradient": lambda fv: h_gradient(
        fv, HamiltonianSpec(fv.spin, (MonomialTerm(0, 1, 0, 1.0),)), (0.3, 1.1, 2.0)),
    "little_d": lambda fv: little_d(fv.spin, 0.7),
    "big_r": lambda fv: big_r(fv.spin, EulerAngles(0.3, 1.1, 2.0)),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_non_orthogonal_basis_raises_on_every_route(route, skewed_basis):
    fv = random_fv(Spin(6), rng_for(93))
    with pytest.raises(NotUnitary):
        ROUTES[route](fv)
