import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from conftest import (basis_fv, dense_gram, jittered_grid, lowest_fv, random_fv,
                      random_omega, rng_for)
from spincs import coherent, propagator
from spincs import (EulerAngles, GridTooCoarse, HamiltonianSpec, LengthMismatch,
                    MonomialTerm, NotHermitian, NotNormalized, OrthogonalPair,
                    Spin, action_along_path, build_grid, coherent_state,
                    discrete_cspi, exact_propagator, geometric_phase, grid_amplitudes,
                    h_expectation, h_ratio, hamiltonian_matrix,
                    infinitesimal_overlap, kinetic_term, midpoint_product,
                    overlap, spin_operators, transition_amplitude)


def _precession_spec(spin):
    """H = S3 + 0.15 (S+ + S-), the tilted-field benchmark Hamiltonian."""
    return HamiltonianSpec(spin, (MonomialTerm(0, 1, 0, 1.0),
                                  MonomialTerm(1, 0, 0, 0.15),
                                  MonomialTerm(0, 0, 1, 0.15)))


def test_monomial_term_validation():
    with pytest.raises(ValueError):
        MonomialTerm(-1, 0, 0, 1.0)
    with pytest.raises(ValueError):
        MonomialTerm(0, 0.5, 0, 1.0)
    with pytest.raises(ValueError):
        MonomialTerm(0, 1, 0, 1.0, profile=("sawtooth",))


def test_monomial_time_profiles():
    const = MonomialTerm(0, 1, 0, 1.0)
    cos = MonomialTerm(0, 1, 0, 1.0, profile=("cosine", 2.0, 0.5))
    ramp = MonomialTerm(0, 1, 0, 1.0, profile=("ramp",))
    assert const.factor(3.7) == 1.0
    assert_allclose(cos.factor(1.2), math.cos(2.0 * 1.2 + 0.5))
    assert ramp.factor(1.2) == 1.2


def test_hamiltonian_spec_hermiticity():
    spin = Spin(2)
    with pytest.raises(NotHermitian):
        HamiltonianSpec(spin, (MonomialTerm(1, 0, 0, 1.0),))
    # a time profile that breaks the pairing only at t > 0 is still caught
    with pytest.raises(NotHermitian):
        HamiltonianSpec(spin, (MonomialTerm(1, 0, 0, 1.0, profile=("ramp",)),
                               MonomialTerm(0, 0, 1, 1.0)))
    with pytest.raises(ValueError):
        HamiltonianSpec(spin, ("S3",))
    ok = _precession_spec(spin)
    h = hamiltonian_matrix(ok)
    assert_allclose(h, h.conj().T, atol=1e-14)
    zero = HamiltonianSpec(spin)
    assert_allclose(hamiltonian_matrix(zero), np.zeros((3, 3)), atol=0)


def test_hamiltonian_matrix_monomials():
    spin = Spin(3)
    ops = spin_operators(spin)
    spec = HamiltonianSpec(spin, (MonomialTerm(1, 2, 1, 0.7),
                                  MonomialTerm(0, 1, 0, -0.3)))
    expected = 0.7 * ops.s_plus @ ops.s3 @ ops.s3 @ ops.s_minus - 0.3 * ops.s3
    assert_allclose(hamiltonian_matrix(spec), expected, atol=1e-13)


def test_hamiltonian_matrix_time_dependence():
    spin = Spin(1)
    ops = spin_operators(spin)
    spec = HamiltonianSpec(spin, (MonomialTerm(0, 1, 0, 1.0,
                                               profile=("cosine", 3.0, 0.2)),))
    for t in (0.0, 0.4, 1.7):
        assert_allclose(hamiltonian_matrix(spec, t),
                        math.cos(3.0 * t + 0.2) * ops.s3, atol=1e-14)


def test_h_expectation_and_ratio():
    rng = rng_for(50)
    spin = Spin(2)
    fv = random_fv(spin, rng)
    spec = _precession_spec(spin)
    om1, om2 = random_omega(rng), random_omega(rng)
    h = hamiltonian_matrix(spec)
    v1 = coherent_state(fv, om1).amplitudes
    v2 = coherent_state(fv, om2).amplitudes
    assert_allclose(h_expectation(fv, spec, om1), np.vdot(v1, h @ v1).real,
                    atol=1e-13)
    assert_allclose(h_ratio(fv, spec, om2, om1),
                    np.vdot(v2, h @ v1) / np.vdot(v2, v1), atol=1e-12)


def test_h_ratio_builds_each_state_once(monkeypatch):
    rng = rng_for(63)
    spin = Spin(2)
    fv = random_fv(spin, rng)
    calls = []
    rotate = coherent._rotate

    def counting(*args):
        calls.append(args)
        return rotate(*args)

    monkeypatch.setattr(coherent, "_rotate", counting)
    h_ratio(fv, _precession_spec(spin), random_omega(rng), random_omega(rng))
    assert len(calls) == 2


def test_h_ratio_orthogonal_pair():
    spin = Spin(1)
    fv = lowest_fv(spin)
    spec = _precession_spec(spin)
    # antipodal points on the sphere carry orthogonal spin-1/2 states
    with pytest.raises(OrthogonalPair):
        h_ratio(fv, spec, (0.0, math.pi, 0.0), (0.0, 0.0, 0.0))


@pytest.mark.parametrize("two_s", [1, 2, 3])
def test_exact_propagator_full_turn(two_s):
    spin = Spin(two_s)
    spec = HamiltonianSpec(spin, (MonomialTerm(0, 1, 0, 1.0),))
    u = exact_propagator(spec, 0.0, 2.0 * math.pi)
    assert_allclose(u, (-1.0) ** two_s * np.eye(spin.dim), atol=1e-9)


def test_exact_propagator_constant_matches_expm():
    spin = Spin(2)
    spec = _precession_spec(spin)
    u = exact_propagator(spec, 0.0, 1.3)
    assert_allclose(u, expm(-1.3j * hamiltonian_matrix(spec)), atol=1e-10)
    # hbar rescales the phase
    u2 = exact_propagator(spec, 0.0, 1.3, hbar=2.0)
    assert_allclose(u2, expm(-0.65j * hamiltonian_matrix(spec)), atol=1e-10)


def test_exact_propagator_time_dependent():
    spin = Spin(1)
    spec = HamiltonianSpec(spin, (MonomialTerm(0, 1, 0, 1.0),
                                  MonomialTerm(1, 0, 0, 0.2, ("cosine", 1.5, 0.0)),
                                  MonomialTerm(0, 0, 1, 0.2, ("cosine", 1.5, 0.0))))
    u = exact_propagator(spec, 0.0, 2.0)
    ref = midpoint_product(spec, 0.0, 2.0, 4096)
    assert_allclose(u, ref, atol=1e-6)
    assert_allclose(u.conj().T @ u, np.eye(spin.dim), atol=1e-10)


def test_exact_propagator_edge_cases():
    spec = HamiltonianSpec(Spin(1), (MonomialTerm(0, 1, 0, 1.0),))
    assert_allclose(exact_propagator(spec, 0.5, 0.5), np.eye(2), atol=0)
    with pytest.raises(ValueError):
        exact_propagator(spec, 1.0, 0.0)


def test_midpoint_product_is_second_order():
    # the drive must not commute with itself across times, else midpoint
    # sampling is exact and the error is pure roundoff
    spin = Spin(1)
    spec = HamiltonianSpec(spin, (MonomialTerm(0, 1, 0, 1.0),
                                  MonomialTerm(1, 0, 0, 0.4, ("cosine", 2.0, 0.3)),
                                  MonomialTerm(0, 0, 1, 0.4, ("cosine", 2.0, 0.3))))
    # a 1024-step product is converged far beyond the 8/16-step errors
    exact = midpoint_product(spec, 0.0, 1.5, 1024)
    e1 = np.linalg.norm(midpoint_product(spec, 0.0, 1.5, 8) - exact)
    e2 = np.linalg.norm(midpoint_product(spec, 0.0, 1.5, 16) - exact)
    assert 3.5 < e1 / e2 < 4.5


@pytest.mark.parametrize("mode", ["M1", "M2", "M3"])
@pytest.mark.parametrize("n_slices", [1, 3, 8])
def test_zero_hamiltonian_collapse(mode, n_slices):
    rng = rng_for(51, n_slices)
    spin = Spin(2)
    fv = random_fv(spin, rng)
    spec = HamiltonianSpec(spin)
    grid = build_grid(spin)
    om_i, om_f = random_omega(rng), random_omega(rng)
    res = discrete_cspi(fv, spec, om_i, om_f, 0.0, 1.0, n_slices, grid, mode)
    assert abs(res.amplitude - overlap(fv, om_f, om_i)) < 1e-12


def test_m1_and_m2_agree_to_roundoff():
    rng = rng_for(52)
    spin = Spin(1)
    fv = lowest_fv(spin)
    spec = _precession_spec(spin)
    grid = build_grid(spin)
    om_i, om_f = random_omega(rng), random_omega(rng)
    kw = dict(t_i=0.0, t_f=2.0, n_slices=6, grid=grid)
    r1 = discrete_cspi(fv, spec, om_i, om_f, mode="M1", **kw)
    r2 = discrete_cspi(fv, spec, om_i, om_f, mode="M2", **kw)
    assert abs(r1.amplitude - r2.amplitude) < 1e-12
    assert r1.n_zeroed == r2.n_zeroed == 0
    assert r1.fallback_fraction is None and r2.fallback_fraction is None


@pytest.mark.parametrize("two_s", [1, 2, 3])
def test_m2_equals_m1_for_driven_degree2_h(two_s):
    rng = rng_for(57, two_s)
    spin = Spin(two_s)
    fv = random_fv(spin, rng)
    # S3 + a cos-driven S+S3 + S3S- pair + a ramped S+S-
    spec = HamiltonianSpec(spin, (MonomialTerm(0, 1, 0, 1.0),
                                  MonomialTerm(1, 1, 0, 0.3, ("cosine", 1.5, 0.4)),
                                  MonomialTerm(0, 1, 1, 0.3, ("cosine", 1.5, 0.4)),
                                  MonomialTerm(1, 0, 1, 0.2, ("ramp",))))
    grid = build_grid(spin)
    om_i, om_f = random_omega(rng), random_omega(rng)
    ket_i, ket_f = random_fv(spin, rng).coeffs, random_fv(spin, rng).coeffs
    n, t_f = 5, 1.2
    eps = t_f / (n + 1)
    # the Euler chain with each step's H at its left endpoint: an exact grid
    # makes every inserted projector the identity
    chain = np.eye(spin.dim, dtype=complex)
    for j in range(n + 1):
        chain = (np.eye(spin.dim) - 1j * eps * hamiltonian_matrix(spec, j * eps)) @ chain
    amps_i = coherent_state(fv, om_i).amplitudes
    amps_f = coherent_state(fv, om_f).amplitudes
    r1, r2 = (discrete_cspi(fv, spec, om_i, om_f, 0.0, t_f, n, grid, mode)
              for mode in ("M1", "M2"))
    assert abs(r1.amplitude - r2.amplitude) < 1e-12
    assert abs(r2.amplitude - np.vdot(amps_f, chain @ amps_i)) < 1e-12
    assert r2.n_zeroed == 0
    t1, t2 = (transition_amplitude(fv, spec, ket_i, ket_f, 0.0, t_f, grid, n, mode)
              for mode in ("M1", "M2"))
    assert abs(t1 - t2) < 1e-12
    assert abs(t2 - np.vdot(ket_f, chain @ ket_i)) < 1e-12


@pytest.mark.parametrize("mode", ["M1", "M2"])
def test_grid_residual_of_exact_grid(mode):
    rng = rng_for(59)
    spin = Spin(3)
    fv = random_fv(spin, rng)
    kw = dict(t_i=0.0, t_f=1.0, n_slices=4, grid=build_grid(spin))
    res = discrete_cspi(fv, _precession_spec(spin), random_omega(rng), random_omega(rng),
                        mode=mode, **kw)
    assert res.grid_residual <= 1e-13
    m3 = discrete_cspi(fv, _precession_spec(spin), random_omega(rng), random_omega(rng),
                       mode="M3", **kw)
    assert m3.projector is None and m3.grid_residual is None


@pytest.mark.parametrize("two_s", [1, 3])
def test_m1_m2_chain_applies_the_grid_projector(two_s):
    # a grid with build_grid's node counts passes the exactness check, but
    # with non-uniform nodes its projector is not the identity: the chain
    # must apply that projector, here summed densely
    rng = rng_for(60, two_s)
    spin = Spin(two_s)
    fv = random_fv(spin, rng)
    grid = jittered_grid(spin, rng)
    spec = _precession_spec(spin)
    om_i, om_f = random_omega(rng), random_omega(rng)
    ket_i, ket_f = random_fv(spin, rng).coeffs, random_fv(spin, rng).coeffs
    n, t_f = 4, 1.0
    eps = t_f / (n + 1)
    h = hamiltonian_matrix(spec)
    p = dense_gram(grid, fv).T
    step = np.eye(spin.dim) - 1j * eps * h
    amps_i = coherent_state(fv, om_i).amplitudes
    amps_f = coherent_state(fv, om_f).amplitudes
    expected = np.vdot(amps_f, step @ np.linalg.matrix_power(p @ step, n) @ amps_i)
    expected_t = np.vdot(ket_f, np.linalg.matrix_power(p @ step, n + 1) @ p @ ket_i)
    residual = np.linalg.norm(p - np.eye(spin.dim), 2)
    assert residual > 1e-3
    for mode in ("M1", "M2"):
        res = discrete_cspi(fv, spec, om_i, om_f, 0.0, t_f, n, grid, mode)
        assert abs(res.amplitude - expected) < 1e-12
        assert_allclose(res.projector, p, rtol=0, atol=1e-13)
        assert abs(res.grid_residual - residual) < 1e-13
        t = transition_amplitude(fv, spec, ket_i, ket_f, 0.0, t_f, grid, n, mode)
        assert abs(t - expected_t) < 1e-12


@pytest.mark.parametrize("two_s", [1, 4])
def test_static_m3_kernel_reuse_matches_per_slice_build(two_s):
    # a zero-coefficient cosine term leaves H unchanged but marks the spec
    # time-dependent, which forces the kernel to be rebuilt at every slice;
    # two_s=4 (G=1568) is past the one-block size, so both runs take the
    # blocked per-slice build
    rng = rng_for(58, two_s)
    spin = Spin(two_s)
    fv = random_fv(spin, rng)
    static = _precession_spec(spin)
    driven = HamiltonianSpec(spin, static.terms + (
        MonomialTerm(0, 1, 0, 0.0, ("cosine", 2.0, 0.3)),))
    assert not static.time_dependent and driven.time_dependent
    grid = build_grid(spin)
    om_i, om_f = random_omega(rng), random_omega(rng)
    ket_i, ket_f = random_fv(spin, rng).coeffs, random_fv(spin, rng).coeffs
    n = 6 if two_s == 1 else 2
    reused, rebuilt = (discrete_cspi(fv, spec, om_i, om_f, 0.0, 2.0, n, grid, "M3")
                       for spec in (static, driven))
    assert abs(reused.amplitude - rebuilt.amplitude) < 1e-13
    assert reused.n_zeroed == rebuilt.n_zeroed > 0
    if two_s == 1:
        t_reused, t_rebuilt = (
            transition_amplitude(fv, spec, ket_i, ket_f, 0.0, 2.0, grid, n, "M3")
            for spec in (static, driven))
        assert abs(t_reused - t_rebuilt) < 1e-13


def _driven_spec(spin):
    """The precession Hamiltonian with a cosine-driven transverse pair."""
    return HamiltonianSpec(spin, (MonomialTerm(0, 1, 0, 1.0),
                                  MonomialTerm(1, 0, 0, 0.3, ("cosine", 1.7, 0.2)),
                                  MonomialTerm(0, 0, 1, 0.3, ("cosine", 1.7, 0.2))))


@pytest.mark.parametrize("two_s", [1, 2])
@pytest.mark.parametrize("driven", [False, True], ids=["static", "driven"])
def test_transition_m3_matches_dense_grid_chain(two_s, driven):
    # explicit G x G kernels from the grid amplitudes, with the same
    # |eps h / o| < 1/2 guard, chained c <- K_j w c from the grid overlaps of
    # ket_i and read out against those of ket_f
    rng = rng_for(61, two_s, driven)
    spin = Spin(two_s)
    fv = random_fv(spin, rng)
    spec = _driven_spec(spin) if driven else _precession_spec(spin)
    grid = build_grid(spin)
    ket_i, ket_f = random_fv(spin, rng).coeffs, random_fv(spin, rng).coeffs
    n, t_f = 3, 1.5
    eps = t_f / (n + 1)
    a = grid_amplitudes(fv, grid)
    w = grid.measure_weights(spin)
    o = a.conj() @ a.T
    c = a.conj() @ ket_i
    for j in range(n + 1):
        h = a.conj() @ hamiltonian_matrix(spec, j * eps) @ a.T
        kernel = o - 1j * eps * h
        safe = np.abs(eps * h) < 0.5 * np.abs(o)
        kernel[safe] = o[safe] * np.exp(-1j * eps * h[safe] / o[safe])
        c = kernel @ (w * c)
    expected = (a @ ket_f.conj()) @ (w * c)
    amp = transition_amplitude(fv, spec, ket_i, ket_f, 0.0, t_f, grid, n, "M3")
    assert abs(amp - expected) < 1e-13


def _dense_fallback_count(nodes, hs, eps):
    """Kernel entries with |eps h| >= |o|/2, the guard of
    test_transition_m3_matches_dense_grid_chain, over a chain of node sets
    (rows of amplitudes) with one step per slice Hamiltonian."""
    count = 0
    for src, dst, h in zip(nodes, nodes[1:], hs):
        o = dst.conj() @ src.T
        safe = np.abs(eps * (dst.conj() @ h @ src.T)) < 0.5 * np.abs(o)
        count += safe.size - np.count_nonzero(safe)
    return count


@pytest.mark.parametrize("two_s", [1, 4])
@pytest.mark.parametrize("driven", [False, True], ids=["static", "driven"])
def test_m3_fallback_count_matches_dense_count(two_s, driven, monkeypatch):
    # at two_s=1 the lowest-weight fiducial gives antipodal grid pairs whose
    # overlap is zero up to roundoff while h is not, so those entries must
    # take the linear form; at two_s=4 (G=1568) every kernel is built in two
    # row blocks.  A reused static kernel counts once per use.
    rng = rng_for(63, two_s, driven)
    spin = Spin(two_s)
    fv = lowest_fv(spin) if two_s == 1 else random_fv(spin, rng)
    spec = _driven_spec(spin) if driven else _precession_spec(spin)
    grid = build_grid(spin)
    om_i, om_f = random_omega(rng), random_omega(rng)
    ket_i, ket_f = random_fv(spin, rng).coeffs, random_fv(spin, rng).coeffs
    n, t_f = (6 if two_s == 1 else 2), 2.0
    eps = t_f / (n + 1)
    hs = [hamiltonian_matrix(spec, j * eps) for j in range(n + 1)]
    a = grid_amplitudes(fv, grid)
    g = len(a)
    if two_s == 1:
        o, h = a.conj() @ a.T, a.conj() @ hs[1] @ a.T
        assert np.any((np.abs(o) < 1e-14) & (np.abs(h) > 1e-2))

    amps_i, amps_f = (coherent_state(fv, om).amplitudes for om in (om_i, om_f))
    expected = _dense_fallback_count([amps_i[None]] + [a] * n + [amps_f[None]], hs, eps)
    res = discrete_cspi(fv, spec, om_i, om_f, 0.0, t_f, n, grid, "M3")
    assert res.n_zeroed == expected > 0
    assert res.fallback_fraction == expected / (g * g * (n - 1) + 2 * g)

    counts = []
    m3_chain = propagator._m3_chain

    def recording(*args):
        out = m3_chain(*args)
        counts.append(out[1:])
        return out

    monkeypatch.setattr(propagator, "_m3_chain", recording)
    transition_amplitude(fv, spec, ket_i, ket_f, 0.0, t_f, grid, n, "M3")
    assert counts == [(_dense_fallback_count([a] * (n + 2), hs, eps), g * g * (n + 1))]


def test_grid_kernel_builds_per_call(monkeypatch):
    # a static spec builds its G x G M3 kernel once per call through either
    # entry point; a driven spec builds one per grid-to-grid step
    rng = rng_for(62)
    spin = Spin(1)
    fv = random_fv(spin, rng)
    grid = build_grid(spin)
    g = grid.n_points
    ket_i, ket_f = random_fv(spin, rng).coeffs, random_fv(spin, rng).coeffs
    om_i, om_f = random_omega(rng), random_omega(rng)
    builds = []
    kernel_entries = propagator._kernel_entries

    def counting(pair, x):
        builds.append(x.shape == (g, g))
        return kernel_entries(pair, x)

    monkeypatch.setattr(propagator, "_kernel_entries", counting)
    n = 6
    for spec, via_cspi, via_transition in ((_precession_spec(spin), 1, 1),
                                           (_driven_spec(spin), 5, 7)):
        builds.clear()
        discrete_cspi(fv, spec, om_i, om_f, 0.0, 2.0, n, grid, "M3")
        assert sum(builds) == via_cspi
        builds.clear()
        transition_amplitude(fv, spec, ket_i, ket_f, 0.0, 2.0, grid, n, "M3")
        assert sum(builds) == via_transition


@pytest.mark.parametrize("mode", ["M1", "M3"])
def test_discrete_cspi_first_order_convergence(mode):
    spin = Spin(1)
    fv = lowest_fv(spin)
    spec = _precession_spec(spin)
    grid = build_grid(spin)
    om_i = EulerAngles(0.7, 0.9, 1.3)
    om_f = EulerAngles(4.1, 1.9, 5.2)
    t_f = 2.0 * math.pi
    oracle = exact_propagator(spec, 0.0, t_f)
    errs = {}
    for n in (16, 32):
        res = discrete_cspi(fv, spec, om_i, om_f, 0.0, t_f, n, grid, mode,
                            oracle=oracle)
        errs[n] = res.error_estimate
        assert res.mode == mode and res.n_slices == n
    assert 1.5 < errs[16] / errs[32] < 2.6


def test_discrete_cspi_validation():
    spin = Spin(2)
    fv = lowest_fv(spin)
    spec = _precession_spec(spin)
    grid = build_grid(spin)
    with pytest.raises(GridTooCoarse):
        discrete_cspi(fv, spec, (0, 1, 0), (1, 1, 1), 0.0, 1.0, 2,
                      build_grid(Spin(0)))
    with pytest.raises(ValueError):
        discrete_cspi(fv, spec, (0, 1, 0), (1, 1, 1), 0.0, 1.0, 0, grid)
    with pytest.raises(ValueError):
        discrete_cspi(fv, spec, (0, 1, 0), (1, 1, 1), 0.0, 1.0, 2, grid,
                      mode="M4")
    with pytest.raises(LengthMismatch):
        discrete_cspi(lowest_fv(Spin(1)), spec, (0, 1, 0), (1, 1, 1), 0.0, 1.0,
                      2, grid)


def test_transition_amplitude_zero_hamiltonian():
    rng = rng_for(53)
    spin = Spin(2)
    fv = random_fv(spin, rng)
    spec = HamiltonianSpec(spin)
    grid = build_grid(spin)
    ket_i = random_fv(spin, rng).coeffs
    ket_f = random_fv(spin, rng).coeffs
    for mode in ("M1", "M2"):
        amp = transition_amplitude(fv, spec, ket_i, ket_f, 0.0, 1.0, grid, 3,
                                   mode)
        assert abs(amp - np.vdot(ket_f, ket_i)) < 1e-12


def test_transition_amplitude_converges_to_oracle():
    spin = Spin(1)
    fv = lowest_fv(spin)
    spec = _precession_spec(spin)
    grid = build_grid(spin)
    ket_i = np.array([1.0, 0.0], dtype=complex)
    ket_f = np.array([0.6, 0.8], dtype=complex)
    u = exact_propagator(spec, 0.0, 2.0)
    target = np.vdot(ket_f, u @ ket_i)
    errs = [abs(transition_amplitude(fv, spec, ket_i, ket_f, 0.0, 2.0, grid, n)
                - target) for n in (8, 16, 32)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.05


def test_transition_amplitude_validation():
    spin = Spin(1)
    fv = lowest_fv(spin)
    spec = HamiltonianSpec(spin)
    grid = build_grid(spin)
    with pytest.raises(NotNormalized):
        transition_amplitude(fv, spec, [0.5, 0.0], [1.0, 0.0], 0.0, 1.0, grid, 2)
    with pytest.raises(LengthMismatch):
        transition_amplitude(fv, spec, [1.0, 0.0, 0.0], [1.0, 0.0], 0.0, 1.0,
                             grid, 2)


def test_infinitesimal_overlap_quadratic_remainder():
    rng = rng_for(54)
    fv = random_fv(Spin(3), rng)
    om = random_omega(rng, theta_margin=0.1, wrap_margin=0.1)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    scales = np.logspace(-5, -2, 10)
    devs = []
    for eps in scales:
        delta = eps * direction
        exact = overlap(fv, EulerAngles(*(om.as_array() + delta)), om)
        devs.append(abs(infinitesimal_overlap(fv, om, delta) - exact))
    slope = np.polyfit(np.log(scales), np.log(devs), 1)[0]
    assert 1.9 < slope < 2.1


def test_action_static_path():
    rng = rng_for(55)
    spin = Spin(2)
    fv = random_fv(spin, rng)
    spec = _precession_spec(spin)
    om = random_omega(rng)
    t = np.linspace(0.0, 3.0, 50)
    path = np.column_stack([t, np.full_like(t, om.phi), np.full_like(t, om.theta),
                            np.full_like(t, om.psi)])
    # a static path has no kinetic piece, leaving -T <H>
    assert_allclose(action_along_path(fv, spec, path),
                    -3.0 * h_expectation(fv, spec, om), atol=1e-10)


def test_action_kinetic_piece_scales_with_hbar():
    rng = rng_for(56)
    spin = Spin(2)
    fv = random_fv(spin, rng)
    zero = HamiltonianSpec(spin)
    t = np.linspace(0.0, 1.0, 400)
    path = np.column_stack([t, 2 * math.pi * t, np.full_like(t, 0.8),
                            np.zeros_like(t)])
    s1 = action_along_path(fv, zero, path)
    s2 = action_along_path(fv, zero, path, hbar=2.0)
    assert_allclose(s2, 2.0 * s1, rtol=1e-12)
    assert_allclose(s1, geometric_phase(fv, path), rtol=1e-12)
