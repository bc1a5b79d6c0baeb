"""Shared helpers and the acceptance-criteria summary.

Every test named ``test_criterion_*`` in test_acceptance.py gets one
PASS/FAIL line in a dedicated terminal section after the run.
"""

import math

import numpy as np

from spincs import (EulerAngles, QuadratureGrid, Spin, build_grid, grid_amplitudes,
                    make_fiducial, random_fiducial)

_ACCEPTANCE = {}


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance.py::test_criterion_" not in report.nodeid:
        return
    _ACCEPTANCE[report.nodeid.split("::")[-1]] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE):
        outcome = _ACCEPTANCE[name]
        tag = "PASS" if outcome == "passed" else outcome.upper()
        terminalreporter.write_line(f"{tag:>6}  {name}")


def rng_for(*tags):
    """A seeded generator, stable across runs and machines."""
    return np.random.default_rng(list(tags))


def random_omega(rng, theta_margin=0.0, wrap_margin=0.0):
    """Random Euler angles; margins keep theta away from the poles and
    phi/psi away from the 2 pi wrap (useful for finite differencing)."""
    lo, hi = wrap_margin, 2.0 * np.pi - wrap_margin
    return EulerAngles(rng.uniform(lo, hi),
                       rng.uniform(theta_margin, np.pi - theta_margin),
                       rng.uniform(lo, hi))


def basis_fv(spin: Spin, index: int):
    """Fiducial vector |m> with m the index-th entry in descending order."""
    c = np.zeros(spin.dim)
    c[index] = 1.0
    return make_fiducial(spin, c)


def lowest_fv(spin: Spin):
    return basis_fv(spin, spin.dim - 1)


def random_fv(spin: Spin, rng):
    return random_fiducial(spin, rng)


def dense_gram(grid, bra_fv, ket_fv=None):
    """The quadrature Gram matrix sum_g w_g conj(a_g)^T a_g summed over every
    grid point from the (G, dim) amplitude arrays: the oracle for the
    factorized grid sums of the library."""
    weighted = grid_amplitudes(bra_fv, grid)
    np.conjugate(weighted, out=weighted)
    weighted *= grid.measure_weights(bra_fv.spin)[:, None]
    return weighted.T @ grid_amplitudes(bra_fv if ket_fv is None else ket_fv, grid)


def jittered_grid(spin: Spin, rng):
    """A QuadratureGrid with the node counts of build_grid(spin) but
    non-uniform theta, phi and psi nodes and perturbed theta weights, so
    that it is not an exact product rule."""
    g = build_grid(spin)
    theta = np.sort(np.clip(g.theta + rng.uniform(-0.05, 0.05, g.n_theta), 0.0, math.pi))
    weights = g.theta_weights * rng.uniform(0.9, 1.1, g.n_theta)
    phi = np.sort(g.phi + rng.uniform(0.0, 0.2, g.n_phi))
    psi = np.sort(g.psi + rng.uniform(0.0, 0.2, g.n_psi))
    return QuadratureGrid(theta, weights, phi, psi)
