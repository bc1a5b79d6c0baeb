import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from conftest import (dense_gram, jittered_grid, lowest_fv, random_fv, random_omega,
                      rng_for)
from spincs import coherent, propagator
from spincs import (EulerAngles, GridCoarseWarning, GridTooCoarse, HamiltonianSpec,
                    LengthMismatch, MonomialTerm, NotFinite, NotHermitian, NotNormalized,
                    NumericalFailure, OrthogonalPair, QuadratureGrid, Spin, action_along_path,
                    build_grid, coherent_state, discrete_cspi, exact_propagator,
                    generating_function, geometric_phase, grid_amplitudes, h_expectation,
                    h_ratio, hamiltonian_matrix, infinitesimal_overlap, midpoint_product,
                    overlap, path_velocities, random_fiducial, resolution_residual,
                    spin_operators, structure_pair, transition_amplitude)


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
    # an empty profile tuple was an IndexError from reading its first entry
    with pytest.raises(ValueError, match="unknown time profile"):
        MonomialTerm(0, 1, 0, 1.0, profile=())


def test_monomial_time_profiles():
    const = MonomialTerm(0, 1, 0, 1.0)
    cos = MonomialTerm(0, 1, 0, 1.0, profile=("cosine", 2.0, 0.5))
    ramp = MonomialTerm(0, 1, 0, 1.0, profile=("ramp",))
    assert const.factor(3.7) == 1.0
    assert_allclose(cos.factor(1.2), math.cos(2.0 * 1.2 + 0.5))
    assert ramp.factor(1.2) == 1.2
    assert all(type(term.factor(1.2)) is float for term in (const, cos, ramp))
    times = np.array([0.0, 1.2, 3.7])
    assert_allclose(const.factor(times), np.ones(3), atol=0)
    assert_allclose(cos.factor(times), np.cos(2.0 * times + 0.5), atol=0)
    assert_allclose(ramp.factor(times), times, atol=0)


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


def test_hermiticity_is_checked_per_time_profile():
    # 0.3 cos(100 pi t + pi/2) S+ vanishes at t = 0, 1 and every integer t,
    # but H(0.005) - H(0.005)^dag has Frobenius norm 0.85
    spin = Spin(2)
    with pytest.raises(NotHermitian):
        HamiltonianSpec(spin, (MonomialTerm(0, 1, 0, 1.0),
                               MonomialTerm(1, 0, 0, 0.3, ("cosine", 100 * math.pi, math.pi / 2))))
    # H(t) sums one Hermitian matrix per profile
    ops = spin_operators(spin)
    pair = (("cosine", 1.5, 0.4), ("ramp",))
    spec = HamiltonianSpec(spin, (MonomialTerm(0, 1, 0, 0.7),
                                  MonomialTerm(1, 0, 0, 0.2j, pair[0]),
                                  MonomialTerm(0, 0, 1, -0.2j, pair[0]),
                                  MonomialTerm(0, 2, 0, 0.3, pair[1])))
    for t in (0.0, 0.005, 1.3):
        expected = (0.7 * ops.s3 + math.cos(1.5 * t + 0.4) * 0.2j * (ops.s_plus - ops.s_minus)
                    + 0.3 * t * ops.s3 @ ops.s3)
        assert_allclose(hamiltonian_matrix(spec, t), expected, atol=1e-14)


def test_hamiltonian_matrix_monomials():
    spin = Spin(3)
    ops = spin_operators(spin)
    spec = HamiltonianSpec(spin, (MonomialTerm(1, 2, 1, 0.7),
                                  MonomialTerm(0, 1, 0, -0.3)))
    expected = 0.7 * ops.s_plus @ ops.s3 @ ops.s3 @ ops.s_minus - 0.3 * ops.s3
    assert_allclose(hamiltonian_matrix(spec), expected, atol=1e-13)


def test_monomial_matrix_matches_dense_powers():
    # the closed-form diagonal against the dense matrix_power product it
    # replaced, kept here as the reference
    for two_s in range(12):
        ops = spin_operators(Spin(two_s))
        for p in range(4):
            for q in range(3):
                for r in range(4):
                    ref = (np.linalg.matrix_power(ops.s_plus, p)
                           @ np.linalg.matrix_power(ops.s3, q)
                           @ np.linalg.matrix_power(ops.s_minus, r))
                    got = propagator._monomial_matrix(two_s, p, q, r)
                    assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max(), (two_s, p, q, r)


def test_hamiltonian_matrix_time_dependence():
    spin = Spin(1)
    ops = spin_operators(spin)
    spec = HamiltonianSpec(spin, (MonomialTerm(0, 1, 0, 1.0,
                                               profile=("cosine", 3.0, 0.2)),))
    for t in (0.0, 0.4, 1.7):
        assert_allclose(hamiltonian_matrix(spec, t),
                        math.cos(3.0 * t + 0.2) * ops.s3, atol=1e-14)


@pytest.mark.parametrize("profile", [None, ("cosine", 3.0, 0.2), ("ramp",), "mixed", "zero"])
def test_stacked_hamiltonian_matches_scalar_calls(profile):
    # an array of times gives the (len(t), dim, dim) stack of H(t)
    spin = Spin(3)
    if profile == "mixed":
        terms = (MonomialTerm(0, 1, 0, 0.7),
                 MonomialTerm(1, 0, 0, 0.2j, ("cosine", 1.5, 0.4)),
                 MonomialTerm(0, 0, 1, -0.2j, ("cosine", 1.5, 0.4)),
                 MonomialTerm(0, 2, 0, 0.3, ("ramp",)))
    elif profile == "zero":
        terms = ()
    else:
        terms = (MonomialTerm(0, 1, 0, 0.7, profile), MonomialTerm(1, 0, 0, 0.2, profile),
                 MonomialTerm(0, 0, 1, 0.2, profile))
    spec = HamiltonianSpec(spin, terms)
    times = np.linspace(-1.0, 2.5, 8)
    stack = hamiltonian_matrix(spec, times)
    assert stack.shape == (len(times), spin.dim, spin.dim)
    for t, h in zip(times, stack):
        expected = hamiltonian_matrix(spec, float(t))
        assert np.linalg.norm(h - expected) <= 1e-15 * np.linalg.norm(expected)


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
    # one rotation call whose angle arrays carry both states' rows
    assert len(calls) == 1
    assert all(np.shape(angle) == (2,) for angle in calls[0][1:4])


@pytest.mark.parametrize("call", [
    lambda fv, a, b: generating_function(fv, a, b, 0.1, 0.2j, -0.3),
    lambda fv, a, b: discrete_cspi(fv, HamiltonianSpec(fv.spin), a, b, 0.0, 1.0, 2,
                                   build_grid(fv.spin)),
], ids=["generating_function", "discrete_cspi"])
def test_state_pairs_take_one_rotation(monkeypatch, call):
    rng = rng_for(64)
    fv = random_fv(Spin(3), rng)
    calls = []
    rotate = coherent._rotate

    def counting(*args):
        calls.append(args)
        return rotate(*args)

    monkeypatch.setattr(coherent, "_rotate", counting)
    call(fv, random_omega(rng), random_omega(rng))
    assert len(calls) == 1
    assert all(np.shape(angle) == (2,) for angle in calls[0][1:4])


@pytest.mark.parametrize("call", [
    lambda fv, spec: h_expectation(fv, spec, (0.1, 0.2, 0.3)),
    lambda fv, spec: h_ratio(fv, spec, (0.1, 0.2, 0.3), (0.4, 0.5, 0.6)),
    lambda fv, spec: action_along_path(fv, spec, [[0.0, 0.1, 0.2, 0.3], [1.0, 0.4, 0.5, 0.6]]),
], ids=["h_expectation", "h_ratio", "action_along_path"])
def test_spin_mismatch_raises_length_mismatch(call):
    # a Spin(2) fiducial with a Spin(4) spec raised a bare numpy ValueError
    # from the matmul or a reshape
    fv = random_fv(Spin(2), rng_for(65))
    with pytest.raises(LengthMismatch, match="differs from fiducial spin"):
        call(fv, _precession_spec(Spin(4)))


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


@pytest.mark.parametrize("two_s", [1, 2])
@pytest.mark.parametrize("mode", ["M1", "M2", "M3"])
def test_zero_hamiltonian_collapse_at_raw_angles(mode, two_s):
    # the endpoints were built at folded angles (psi_i = 7 > 2 pi), so at
    # two_s=1 every mode returned -overlap(fv, omega_f, omega_i)
    spin = Spin(two_s)
    fv = random_fiducial(spin, np.random.default_rng(5))
    om_i, om_f = (0.3, 1.0, 7.0), (1.0, 0.5, 0.2)
    res = discrete_cspi(fv, HamiltonianSpec(spin, ()), om_i, om_f, 0.0, 1.0, 4,
                        build_grid(spin), mode)
    assert abs(res.amplitude - overlap(fv, om_f, om_i)) <= 1e-12


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


@pytest.mark.parametrize("two_s, fiducial", [pytest.param(1, "random", id="1"),
                                             pytest.param(2, "random", id="2"),
                                             pytest.param(1, "lowest", id="1-lowest")])
@pytest.mark.parametrize("driven", [False, True], ids=["static", "driven"])
def test_transition_m3_matches_dense_grid_chain(two_s, fiducial, driven):
    # explicit G x G kernels from the grid amplitudes, with the same
    # |eps h / o| < 1/2 guard, chained c <- K_j w c from the grid overlaps of
    # ket_i and read out against those of ket_f.  The lowest-weight
    # fiducial at two_s=1 has antipodal grid pairs whose overlap is zero up
    # to roundoff, where 1/o is about 1e17.
    rng = rng_for(61, two_s, driven)
    spin = Spin(two_s)
    fv = lowest_fv(spin) if fiducial == "lowest" else random_fv(spin, rng)
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
    if fiducial == "lowest":
        assert np.any(np.abs(o) < 1e-16)
    amp = transition_amplitude(fv, spec, ket_i, ket_f, 0.0, t_f, grid, n, "M3")
    assert abs(amp - expected) < 1e-13


def test_kernel_entries_at_exact_zero_overlaps():
    # orthogonal basis states give o = 0 exactly, where 1/o is taken as 0
    # and the entry must be the linear form o + x, with no warning; |x| at
    # exactly |o|/2 is linearized too
    dst = np.array([[1.0, 0.0], [0.6, 0.8j]])
    src = np.array([[0.0, 1.0], [1.0, 0.0], [0.8, 0.6]])
    x = np.array([[0.3j, -0.1, 0.02 - 0.01j], [0.4, 1e-3j, -0.2]])
    o = dst.conj() @ src.T
    assert o[0, 0] == 0 and abs(x[1, 0]) == abs(o[1, 0]) / 2
    safe = np.abs(x) < 0.5 * np.abs(o)
    expected = np.where(safe, o * np.exp(np.divide(x, o, where=safe, out=np.zeros_like(x))),
                        o + x)
    k, zeroed = propagator._kernel_entries(propagator._pair_terms(dst, src), x.copy())
    assert zeroed == np.count_nonzero(~safe) == 2
    assert np.max(np.abs(k - expected)) <= 1e-15


def _block_of(a):
    while a.base is not None:
        a = a.base
    return a


@pytest.mark.parametrize("pair", ["grid", "bra_endpoint", "ket_endpoint"])
def test_pair_terms_share_one_block(pair):
    # o, 1/o, the bound, the scratch x and f are views of one float64
    # block, which the next M3 call gets back from the allocator without
    # page faults; arrays allocated apart would fault in afresh each call
    fv = random_fv(Spin(1), rng_for(74))
    grid = build_grid(fv.spin)
    a = grid_amplitudes(fv, grid)
    end = coherent_state(fv, (0.3, 1.2, -0.4)).amplitudes[None]
    dst, src = {"grid": (a, a), "bra_endpoint": (end, a), "ket_endpoint": (a, end)}[pair]
    terms = propagator._pair_terms(dst, src)
    arrays = (terms.o, terms.inv, terms.bound, terms.x, terms.f)
    block = _block_of(terms.o)
    assert all(_block_of(arr) is block for arr in arrays)
    assert block.nbytes == sum(arr.nbytes for arr in arrays)
    assert terms.o.shape == terms.x.shape == (len(dst), len(src))
    assert_allclose(terms.o, dst.conj() @ src.T, rtol=0, atol=1e-15)


@pytest.mark.parametrize("mode", ["M1", "M2"])
def test_euler_chain_overflow_is_named(mode):
    # t_f = 1e308 overflows the chain of steps 1 - i eps H; the error named
    # a near-orthogonal kernel pair, which M1 and M2 never build, and under
    # the suite's RuntimeWarning filter it was the warning itself
    spin = Spin(1)
    fv = random_fv(spin, rng_for(75))
    grid = build_grid(spin)
    spec = _precession_spec(spin)
    with pytest.raises(NumericalFailure, match="Euler chain"):
        discrete_cspi(fv, spec, (0.1, 0.2, 0.3), (0.4, 0.5, 0.6), 0.0, 1e308, 2, grid, mode)
    with pytest.raises(NumericalFailure, match="Euler chain"):
        transition_amplitude(fv, spec, fv.coeffs, fv.coeffs, 0.0, 1e308, grid, 2, mode)


@pytest.mark.parametrize("y", [
    np.linspace(-0.5, 0.5, 201),
    1j * np.linspace(-0.5, 0.5, 201),
    np.add.outer(np.linspace(-0.5, 0.5, 41), 1j * np.linspace(-0.5, 0.5, 41)),
    np.array([0.5 + 0.5j, 0.5 - 0.5j, -0.5 + 0.5j, -0.5 - 0.5j, 0.0]),
], ids=["real", "imaginary", "square", "corners"])
def test_exp_small_matches_np_exp(y):
    # the M3 guard keeps |y| < 1/2; y = 0 (a linearized entry) must give
    # exactly 1, which the kernel's product with o relies on
    y = np.asarray(y, dtype=complex)
    expected = np.exp(y)
    got = propagator._exp_small(y.copy(), np.empty((3,) + y.shape))
    assert np.max(np.abs(got - expected) / np.abs(expected)) <= 1e-15
    assert np.all(got[y == 0] == 1.0)


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


@pytest.mark.parametrize("mode", ["M1", "M2"])
def test_static_chain_builds_no_per_slice_stack(mode):
    # 20001 slices of a 9 x 9 H would stack to 26 MB; a static spec's one
    # matrix serves every slice
    rng = rng_for(64)
    spin = Spin(8)
    fv = random_fv(spin, rng)
    grid = build_grid(spin)
    tracemalloc.start()
    try:
        res = discrete_cspi(fv, _precession_spec(spin), random_omega(rng), random_omega(rng),
                            0.0, 1.0, 20000, grid, mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20
    assert np.isfinite(res.amplitude)


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


def test_grid_node_counts_are_the_array_sizes():
    # a 2-node theta rule with the azimuths of the two_s=4 grid, once
    # declared with n_theta=8, passed as exact at two_s=4: here M1 was off
    # by 0.066 and the residual, 0.057, came without a warning
    spin = Spin(4)
    fv = random_fv(spin, rng_for(57))
    exact = build_grid(spin)
    x, w = np.polynomial.legendre.leggauss(2)
    grid = QuadratureGrid(np.arccos(x), w, exact.phi, exact.psi)
    assert (grid.n_theta, grid.n_phi, grid.n_psi) == (2, exact.n_phi, exact.n_psi)
    assert grid.exact_two_s == 1
    with pytest.raises(GridTooCoarse):
        discrete_cspi(fv, _precession_spec(spin), (0.3, 1.1, 0.7), (1.0, 0.8, 2.0),
                      0.0, 1.0, 4, grid)
    with pytest.warns(GridCoarseWarning):
        assert resolution_residual(fv, grid) > 1e-3
    with pytest.raises(LengthMismatch):
        QuadratureGrid(exact.theta, w, exact.phi, exact.psi)


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
    # the raw thetas 4.1 and -0.5 are passed unfolded: the displacement is
    # in the raw chart, which folding the base point alone would flip
    rng = rng_for(54)
    fv = random_fv(Spin(3), rng)
    om = random_omega(rng, theta_margin=0.1, wrap_margin=0.1)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    scales = np.logspace(-5, -2, 10)
    for theta in (om.theta, 4.1, -0.5):
        raw = np.array([om.phi, theta, om.psi])
        base = om if theta == om.theta else raw
        devs = []
        for eps in scales:
            delta = eps * direction
            exact = overlap(fv, EulerAngles(*(raw + delta)), EulerAngles(*raw))
            devs.append(abs(infinitesimal_overlap(fv, base, delta) - exact))
        slope = np.polyfit(np.log(scales), np.log(devs), 1)[0]
        assert 1.9 < slope < 2.1, theta


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


def _path_specs(spin):
    cos = ("cosine", 2.5, 0.3)
    return {
        "static": _precession_spec(spin),
        "cosine": HamiltonianSpec(spin, (MonomialTerm(0, 1, 0, 1.0),
                                         MonomialTerm(1, 0, 0, 0.3, cos),
                                         MonomialTerm(0, 0, 1, 0.3, cos))),
        "ramp": HamiltonianSpec(spin, (MonomialTerm(0, 2, 0, 0.4, ("ramp",)),)),
        "mixed": HamiltonianSpec(spin, (MonomialTerm(0, 2, 0, 0.5),
                                        MonomialTerm(1, 0, 0, 0.2, ("ramp",)),
                                        MonomialTerm(0, 0, 1, 0.2, ("ramp",)),
                                        MonomialTerm(1, 1, 0, 0.1, cos),
                                        MonomialTerm(0, 1, 1, 0.1, cos))),
        "empty": HamiltonianSpec(spin),
    }


def _loop_phase_and_action(fv, spec, path, hbar):
    """The per-sample reference: kappa from the structure pair and <H> from
    the dense H(t) between folded coherent states, one row at a time."""
    a0, b0 = structure_pair(fv)
    kinetic, energies = [], []
    for (t, phi, theta, psi), (dphi, dtheta, dpsi) in zip(path, path_velocities(path)):
        b = complex(np.exp(1j * psi) * b0)
        kinetic.append((a0 * math.cos(theta) - b.real * math.sin(theta)) * dphi
                       + b.imag * dtheta + a0 * dpsi)
        v = coherent_state(fv, EulerAngles(phi, theta, psi)).amplitudes
        energies.append(np.vdot(v, hamiltonian_matrix(spec, t) @ v).real)
    phase = np.trapezoid(kinetic, path[:, 0])
    return phase, hbar * phase - np.trapezoid(energies, path[:, 0])


@pytest.mark.parametrize("two_s", [2, 3])
@pytest.mark.parametrize("kind", ["static", "cosine", "ramp", "mixed", "empty"])
def test_path_functions_match_per_sample_loops(two_s, kind):
    rng = rng_for(70, two_s)
    spin = Spin(two_s)
    fv = random_fv(spin, rng)
    spec = _path_specs(spin)[kind]
    t = np.linspace(-0.4, 1.1, 37)
    for theta in (0.0, math.pi, 4.1, -0.5):
        # raw angles: psi and phi run past 2 pi, theta starts at its raw value
        path = np.column_stack([t, 0.3 + 5.0 * t, theta + 0.2 * np.sin(2.0 * t), -1.0 + 6.0 * t])
        for rows in (path, path[::-1], path[:2], path[::-1][:2]):
            phase, action = _loop_phase_and_action(fv, spec, rows, hbar=0.7)
            span = abs(rows[-1, 0] - rows[0, 0])
            h_norm = max(np.linalg.norm(hamiltonian_matrix(spec, ti), 2) for ti in rows[:, 0])
            assert abs(geometric_phase(fv, rows) - phase) <= 1e-14 * max(1.0, abs(phase))
            assert (abs(action_along_path(fv, spec, rows, hbar=0.7) - action)
                    <= 1e-14 * max(1.0, h_norm * span))


@pytest.mark.parametrize("kind", ["static", "cosine", "mixed", "empty"])
def test_h_expectation_on_stacked_angles_and_times(kind):
    rng = rng_for(71)
    spin = Spin(3)
    fv = random_fv(spin, rng)
    spec = _path_specs(spin)[kind]
    angles = rng.uniform(-7.0, 7.0, (6, 3))
    t = rng.uniform(-1.0, 2.0, 6)
    stacked = h_expectation(fv, spec, angles, t)
    assert stacked.shape == (6,)
    # a stack's states come from BLAS's matrix product, a point's from its
    # vector product, so the two may differ in the last bits
    assert_allclose(stacked, [h_expectation(fv, spec, a, ti) for a, ti in zip(angles, t)],
                    rtol=0, atol=1e-14)
    assert_allclose(h_expectation(fv, spec, angles, 0.5),
                    [h_expectation(fv, spec, a, 0.5) for a in angles], rtol=0, atol=1e-14)
    assert np.array_equal(h_expectation(fv, spec, angles.reshape(2, 3, 3), t.reshape(2, 3)),
                          stacked.reshape(2, 3))
    assert isinstance(h_expectation(fv, spec, angles[0], t[0]), float)


def test_action_memory_is_linear_in_samples():
    # the (20000, 33, 33) stack of H(t) alone would be 348 MB
    rng = rng_for(71)
    spin = Spin(32)
    fv = random_fv(spin, rng)
    spec = _path_specs(spin)["mixed"]
    t = np.linspace(0.0, 2.0, 20000)
    path = np.column_stack([t, 0.3 + 2.0 * t, 1.1 + 0.4 * np.sin(3.0 * t), -1.0 + 3.0 * t])
    tracemalloc.start()
    try:
        value = action_along_path(fv, spec, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert np.isfinite(value)


@pytest.mark.parametrize("t_i, t_f", [(0.0, math.nan), (-math.inf, 1.0), (0.0, math.inf)])
def test_non_finite_times_raise_not_finite(t_i, t_f):
    # t_f = nan was a NumericalFailure that blamed a near-orthogonal pair
    spin = Spin(2)
    fv = random_fv(spin, rng_for(72))
    spec = _precession_spec(spin)
    grid = build_grid(spin)
    for mode in ("M1", "M3"):
        with pytest.raises(NotFinite, match="must be finite"):
            discrete_cspi(fv, spec, (0.1, 0.2, 0.3), (0.4, 0.5, 0.6), t_i, t_f, 2, grid, mode)
        with pytest.raises(NotFinite):
            transition_amplitude(fv, spec, fv.coeffs, fv.coeffs, t_i, t_f, grid, 2, mode)


@pytest.mark.parametrize("hbar, error", [(0.0, ValueError), (-1.0, ValueError),
                                         (math.nan, NotFinite), (math.inf, NotFinite)])
def test_chain_hbar_is_checked(hbar, error):
    # hbar=0 raised ZeroDivisionError, and hbar=nan a NumericalFailure that
    # blamed a near-orthogonal pair
    spin = Spin(1)
    fv = random_fv(spin, rng_for(73))
    spec = _precession_spec(spin)
    grid = build_grid(spin)
    for mode in ("M1", "M3"):
        with pytest.raises(error, match="hbar"):
            discrete_cspi(fv, spec, (0.1, 0.2, 0.3), (0.4, 0.5, 0.6), 0.0, 1.0, 2, grid, mode,
                          hbar=hbar)
        with pytest.raises(error, match="hbar"):
            transition_amplitude(fv, spec, fv.coeffs, fv.coeffs, 0.0, 1.0, grid, 2, mode,
                                 hbar=hbar)


_DRIVEN = HamiltonianSpec(Spin(1), (MonomialTerm(0, 1, 0, 1.0),
                                    MonomialTerm(1, 0, 0, 0.2, ("cosine", 1.5, 0.0)),
                                    MonomialTerm(0, 0, 1, 0.2, ("cosine", 1.5, 0.0))))


@pytest.mark.parametrize("call, error, message", [
    (lambda: exact_propagator(_DRIVEN, 0.0, 1.0, hbar=0.0), ValueError, "hbar"),
    (lambda: exact_propagator(_DRIVEN, 0.0, 1.0, hbar=-1.0), ValueError, "hbar"),
    (lambda: exact_propagator(_DRIVEN, 0.0, math.nan), NotFinite, "must be finite"),
    (lambda: midpoint_product(_DRIVEN, 0.0, 1.0, 0), ValueError, "n_steps"),
], ids=["hbar_zero", "hbar_negative", "t_f_nan", "zero_steps"])
def test_oracle_arguments_are_checked(call, error, message):
    # hbar=0 and n_steps=0 raised ZeroDivisionError, hbar=-1 returned the
    # propagator of -H, and t_f=nan ran all 24 doublings (about 2^25 expm calls)
    with pytest.raises(error, match=message):
        call()


def _drive(two_s, profile):
    """S3 plus a profile-driven 0.3 (S+ + S-), which does not commute with
    itself across times."""
    return HamiltonianSpec(Spin(two_s), (MonomialTerm(0, 1, 0, 1.0),
                                         MonomialTerm(1, 0, 0, 0.3, profile),
                                         MonomialTerm(0, 0, 1, 0.3, profile)))


def _dop853_propagator(spec, t_i, t_f):
    dim = spec.spin.dim

    def rhs(t, y):
        return (-1j * hamiltonian_matrix(spec, t) @ y.reshape(dim, dim)).ravel()

    sol = solve_ivp(rhs, (t_i, t_f), np.eye(dim, dtype=complex).ravel(), method="DOP853",
                    rtol=1e-13, atol=1e-13)
    assert sol.success
    return sol.y[:, -1].reshape(dim, dim)


@pytest.mark.parametrize("two_s", [1, 4])
@pytest.mark.parametrize("profile", [("cosine", 1.5, 0.2), ("ramp",)], ids=["cosine", "ramp"])
def test_exact_propagator_matches_dop853(two_s, profile):
    spec = _drive(two_s, profile)
    u = exact_propagator(spec, 0.0, 2.0)
    assert_allclose(u, _dop853_propagator(spec, 0.0, 2.0), rtol=0, atol=1e-10)


def test_cf4_product_is_fourth_order():
    # the drive of test_midpoint_product_is_second_order; with its two
    # exponentials swapped the scheme is second order and this ratio is
    # about 4
    spin = Spin(1)
    spec = HamiltonianSpec(spin, (MonomialTerm(0, 1, 0, 1.0),
                                  MonomialTerm(1, 0, 0, 0.4, ("cosine", 2.0, 0.3)),
                                  MonomialTerm(0, 0, 1, 0.4, ("cosine", 2.0, 0.3))))
    exact = propagator._cf4_product(spec, 0.0, 1.5, 1024, 1.0)
    e1 = np.linalg.norm(propagator._cf4_product(spec, 0.0, 1.5, 8, 1.0) - exact)
    e2 = np.linalg.norm(propagator._cf4_product(spec, 0.0, 1.5, 16, 1.0) - exact)
    assert 12.0 <= e1 / e2 <= 20.0


@pytest.mark.parametrize("n_steps", [1, 5, 7, 16])
def test_cf4_product_matches_the_step_loop(monkeypatch, n_steps):
    # the pairwise product of the factors against one step at a time, later
    # steps on the left; blocks of three steps, so blocks and factor counts
    # come odd and even
    spin = Spin(2)
    spec = HamiltonianSpec(spin, (MonomialTerm(0, 1, 0, 1.0),
                                  MonomialTerm(1, 0, 0, 0.4, ("cosine", 2.0, 0.3)),
                                  MonomialTerm(0, 0, 1, 0.4, ("cosine", 2.0, 0.3))))
    monkeypatch.setattr(propagator, "_H_BLOCK_ENTRIES", 3 * spin.dim ** 2)
    eps = 1.5 / n_steps
    (c1, c2), (a1, a2) = propagator._CF4_NODES, propagator._CF4_WEIGHTS
    u = np.eye(spin.dim)
    for j in range(n_steps):
        h1, h2 = (hamiltonian_matrix(spec, (j + c) * eps) for c in (c1, c2))
        u = expm(-1j * eps * (a1 * h1 + a2 * h2)) @ expm(-1j * eps * (a2 * h1 + a1 * h2)) @ u
    assert_allclose(propagator._cf4_product(spec, 0.0, 1.5, n_steps, 1.0), u, rtol=0, atol=1e-13)


def _counted_cf4(monkeypatch):
    steps = []
    cf4 = propagator._cf4_product

    def counted(spec, t_i, t_f, n_steps, hbar):
        steps.append(n_steps)
        return cf4(spec, t_i, t_f, n_steps, hbar)

    monkeypatch.setattr(propagator, "_cf4_product", counted)
    return steps


def test_static_oracle_settles_at_the_first_doubling(monkeypatch):
    steps = _counted_cf4(monkeypatch)
    spec = _precession_spec(Spin(3))
    u = exact_propagator(spec, 0.0, 1.3)
    assert steps == [1, 2]
    assert_allclose(u, expm(-1.3j * hamiltonian_matrix(spec)), atol=1e-10)


def test_driven_oracle_settles_within_eight_doublings(monkeypatch):
    # the drive of test_exact_propagator_time_dependent, which took 17
    # doublings of the midpoint product
    steps = _counted_cf4(monkeypatch)
    exact_propagator(_DRIVEN, 0.0, 2.0)
    assert steps == [2 ** k for k in range(len(steps))]
    assert len(steps) <= 9


@pytest.mark.parametrize("driven", [False, True], ids=["static", "driven"])
def test_m3_step_overflow_is_named(driven):
    # t_f = 1e308 makes the scaled H elements of the M3 kernel overflow; the
    # error blamed a near-orthogonal pair, which the guard rules out, and
    # under the suite's RuntimeWarning filter it was the bare warning
    spin = Spin(1)
    fv = random_fv(spin, rng_for(76))
    grid = build_grid(spin)
    spec = _DRIVEN if driven else _precession_spec(spin)
    with pytest.raises(NumericalFailure, match=r"step eps H/hbar overflowed"):
        discrete_cspi(fv, spec, (0.1, 0.2, 0.3), (0.4, 0.5, 0.6), 0.0, 1e308, 2, grid, "M3")
    with pytest.raises(NumericalFailure, match=r"step eps H/hbar overflowed"):
        transition_amplitude(fv, spec, fv.coeffs, fv.coeffs, 0.0, 1e308, grid, 2, "M3")
