"""Every Euler-angle argument enters by one rule: one point through
spin_core._point_of, a point or a stack through spin_core._angles_of, each
angle reduced exactly modulo 4pi there (and modulo 2pi by the EulerAngles
fold), so finite angles of any size give finite values or a named error."""

import cmath
import dataclasses
import inspect
import math

import numpy as np
import pytest

import spincs
from spincs import (DecompositionPole, EulerAngles, HamiltonianSpec, LengthMismatch,
                    MonomialTerm, OrthogonalPair, Spin, SpincsError, big_r, build_grid,
                    build_system, coherent_state, compose_euler, conjugate_spin_ops,
                    discrete_cspi, gaussian_decompose, generating_function, h_expectation,
                    h_gradient, h_ratio, infinitesimal_overlap, integrate_trajectory,
                    invert_euler, kinetic_term, matrix_elements, omega_to_a, omega_to_z,
                    one_form, overlap, random_fiducial, su2_matrix, two_form)
from spincs.spin_core import TWO_PI, _angles_of, _cayley_klein, _point_of, _s2_eigensystem

from conftest import rng_for


@dataclasses.dataclass
class _Setup:
    """A dense fiducial at two_s, S3 + 0.3 (S+ + S-) and an exact grid."""

    two_s: int

    def __post_init__(self):
        self.spin = Spin(self.two_s)
        self.fv = random_fiducial(self.spin, rng_for(27, self.two_s))
        self.spec = HamiltonianSpec(self.spin, (MonomialTerm(0, 1, 0, 1.0),
                                                MonomialTerm(1, 0, 0, 0.3),
                                                MonomialTerm(0, 0, 1, 0.3)))
        self.grid = build_grid(self.spin)


# One row per export with an Euler-angle (omega*) parameter: whether it
# reads one point or a stack, the numbers it returns for the setup f and its
# angle arguments, and the named errors of its own domain.
_ROWS = {
    "big_r": ("point", lambda f, o: big_r(f.spin, o).entries, ()),
    "build_system": ("point", lambda f, o: build_system(f.fv, f.spec, o).gradient, ()),
    "coherent_state": ("stack", lambda f, o: coherent_state(f.fv, o).amplitudes, ()),
    "compose_euler": ("point", lambda f, o2, o1: compose_euler(o2, o1)[0].as_array(), ()),
    "conjugate_spin_ops": ("point", lambda f, o: conjugate_spin_ops(f.spin, o).s_plus, ()),
    "discrete_cspi": ("point", lambda f, oi, of: discrete_cspi(
        f.fv, f.spec, oi, of, 0.0, 0.3, 2, f.grid, "M1").amplitude, ()),
    "gaussian_decompose": ("point", lambda f, o: gaussian_decompose(o), (DecompositionPole,)),
    "generating_function": ("point", lambda f, o2, o1: generating_function(
        f.fv, o2, o1, 0.1, 0.2j, -0.3), ()),
    "h_expectation": ("stack", lambda f, o: h_expectation(f.fv, f.spec, o), ()),
    "h_gradient": ("point", lambda f, o: h_gradient(f.fv, f.spec, o), ()),
    "h_ratio": ("point", lambda f, o2, o1: h_ratio(f.fv, f.spec, o2, o1), (OrthogonalPair,)),
    "infinitesimal_overlap": ("stack", lambda f, o: infinitesimal_overlap(
        f.fv, o, (1e-3, -2e-3, 1e-3)), ()),
    "integrate_trajectory": ("point", lambda f, o: integrate_trajectory(
        f.fv, f.spec, o, (0.0, 0.1), 0.05).path[:, 1:], ()),
    "invert_euler": ("point", lambda f, o: invert_euler(o).as_array(), ()),
    "kinetic_term": ("stack", lambda f, o: kinetic_term(f.fv, o, (0.3, -0.2, 0.5)), ()),
    "matrix_elements": ("point", lambda f, o: matrix_elements(f.fv, o)[:2], ()),
    "omega_to_a": ("point", lambda f, o: dataclasses.astuple(omega_to_a(o)), ()),
    "omega_to_z": ("point", lambda f, o: dataclasses.astuple(omega_to_z(o)),
                   (DecompositionPole,)),
    "one_form": ("point", lambda f, o: dataclasses.astuple(one_form(f.fv, o)), ()),
    "overlap": ("point", lambda f, o2, o1: overlap(f.fv, o2, o1), ()),
    "su2_matrix": ("point", lambda f, o: su2_matrix(o), ()),
    "two_form": ("point", lambda f, o: dataclasses.astuple(two_form(f.fv, o)), ()),
}
_POINT_ROWS = sorted(name for name, (kind, _, _) in _ROWS.items() if kind == "point")
_STACK_ROWS = sorted(name for name, (kind, _, _) in _ROWS.items() if kind == "stack")


def _n_angles(name) -> int:
    """The number of Euler-angle arguments the row's call takes."""
    return len(inspect.signature(_ROWS[name][1]).parameters) - 1


def test_every_angle_export_has_a_row():
    # an exported function with an omega* parameter (omega_dot is a
    # velocity) must declare here whether it reads a point or a stack
    exports = {}
    for name in dir(spincs):
        fn = getattr(spincs, name)
        if name.startswith("_") or not inspect.isfunction(fn):
            continue
        params = [p for p in inspect.signature(fn).parameters
                  if p.startswith("omega") and not p.endswith("_dot")]
        if params:
            exports[name] = len(params)
    assert set(exports) == set(_ROWS)
    assert {name: _n_angles(name) for name in _ROWS} == exports
    assert _STACK_ROWS == ["coherent_state", "h_expectation", "infinitesimal_overlap",
                           "kinetic_term"]


_STACK = np.array([[0.1, 0.2, 0.3], [0.4, 1.5, 0.6], [2.1, 2.6, -0.9]])


@pytest.mark.parametrize("name", _POINT_ROWS)
def test_point_exports_refuse_stacks(name):
    # at two_s = 2 one_form returned the three components of three points,
    # h_ratio and M1 discrete_cspi one number for two stacks (|amplitude|
    # 2.03), and two_form, matrix_elements and generating_function raised a
    # bare TypeError or ValueError
    f = _Setup(2)
    call = _ROWS[name][1]
    point = (0.7, 1.1, -0.4)
    stacks = (_STACK, [EulerAngles(*row) for row in _STACK])
    if _n_angles(name) == 1:
        for stack in stacks:
            with pytest.raises(LengthMismatch, match=r"shape \(3, 3\)"):
                call(f, stack)
        return
    for stack in stacks:
        with pytest.raises(LengthMismatch, match=r"shapes \(3, 3\) and \(3, 3\)"):
            call(f, stack, stack)
        with pytest.raises(LengthMismatch, match=r"shapes \(3, 3\) and \(3,\)"):
            call(f, stack, point)
        with pytest.raises(LengthMismatch, match=r"shapes \(3,\) and \(3, 3\)"):
            call(f, point, stack)


@pytest.mark.parametrize("name", _STACK_ROWS)
def test_stack_exports_match_their_points(name):
    f = _Setup(2)
    call = _ROWS[name][1]
    stacked = np.asarray(call(f, _STACK))
    assert stacked.shape[0] == 3
    for row, value in zip(_STACK, stacked):
        assert np.abs(value - np.asarray(call(f, tuple(row)))).max() <= 1e-13


_PROBES = [(1e308, 0.2, 0.1), (0.3, 1e308, 0.1), (0.3, 0.2, -1e308), (1e308, -1e308, 1e308)]


@pytest.mark.parametrize("probe", _PROBES, ids=["phi", "theta", "psi", "all"])
@pytest.mark.parametrize("name", sorted(_ROWS))
def test_overflow_sized_angles_give_finite_values(name, probe):
    # at two_s = 4 and (1e308, 0.2, 0.1) coherent_state, h_expectation,
    # h_ratio, generating_function, build_system and h_gradient returned
    # NaN, big_r raised NotUnitary (defect nan) and discrete_cspi a
    # NumericalFailure that blamed the slice count.  RuntimeWarnings are
    # errors in this suite, so an overflowed phase fails here too
    f = _Setup(4)
    _, call, domain = _ROWS[name]
    others = [(probe,), (probe, probe), (probe, (0.1, 0.2, 0.3)), ((0.1, 0.2, 0.3), probe)]
    for angles in (a for a in others if len(a) == _n_angles(name)):
        try:
            value = np.asarray(call(f, *angles), dtype=complex)
        except domain:
            continue
        except SpincsError as exc:
            pytest.fail(f"{type(exc).__name__} outside the domain of {name}: {exc}")
        assert np.isfinite(value).all(), (name, angles, value)
        if name == "coherent_state":
            assert abs(np.linalg.norm(value) - 1.0) <= 1e-13


def _reference_state(fv, phi, theta, psi) -> np.ndarray:
    """R(phi, theta, psi) c with every phase e^{-i m x} taken as the integer
    power (e^{-i x/2})^(2m), whose half angle libm reduces exactly: a route
    that reduces no whole angle."""
    u, m = _s2_eigensystem(fv.spin.two_s)
    two_m = np.rint(2.0 * m).astype(int)

    def phases(x, two_ms):
        half = cmath.exp(-0.5j * x)
        return np.array([half ** int(k) for k in two_ms])

    s3 = two_m[::-1]
    x = phases(psi, s3) * fv.coeffs
    x = u @ (phases(theta, two_m) * (u.conj().T @ x))
    return phases(phi, s3) * x


@pytest.mark.parametrize("two_s", range(1, 8))
def test_angles_are_reduced_exactly_at_any_size(two_s):
    fv = random_fiducial(Spin(two_s), rng_for(27, 1, two_s))
    other = (0.3, 1.2, -0.4)
    for x in (20.0, 1e15, 1e300, 1e308):
        for raw in ((x, 0.7, 0.1), (0.7, x, 0.1), (0.7, 0.1, -x), (x, -x, x)):
            bra, ket = coherent_state(fv, [raw, other]).amplitudes
            assert abs(np.vdot(bra, ket) - overlap(fv, raw, other)) <= 1e-13
            single = coherent_state(fv, raw).amplitudes
            assert np.abs(single - _reference_state(fv, *raw)).max() <= 1e-13
            # the fold names the rotation of the raw triple, up to the sign
            # a half-integer spin may take
            folded = coherent_state(fv, EulerAngles(*raw)).amplitudes
            assert 1.0 - abs(np.vdot(folded, single)) <= 1e-13, (x, raw)


def _head_fold(phi, theta, psi) -> tuple:
    """The EulerAngles fold as it stood before angles were reduced."""
    theta = theta % TWO_PI
    if theta > math.pi:
        theta, phi, psi = TWO_PI - theta, phi + math.pi, psi + math.pi
    return phi % TWO_PI % TWO_PI, theta, psi % TWO_PI % TWO_PI


def test_angles_below_4pi_enter_bit_for_bit():
    rng = rng_for(27, 2)
    below = math.nextafter(4.0 * math.pi, 0.0)
    triples = rng.uniform(-below, below, (1000, 3))
    triples[:4] = [[0.0, -0.0, 5e-324], [below, -below, 0.0], [-1e-300, math.pi, -math.pi],
                   [TWO_PI, -TWO_PI, 3.0 * math.pi]]

    def bits(values):
        return [float(v).hex() for v in values]

    for row in triples.tolist():
        assert bits(_angles_of(row)) == bits(row)
        assert bits(_point_of(tuple(row))) == bits(row)
        folded = EulerAngles(*row)
        assert bits((folded.phi, folded.theta, folded.psi)) == bits(_head_fold(*row))
    for shape in ((1000, 3), (10, 100, 3)):
        stack = triples.reshape(shape)
        assert all(np.array_equal(a, stack[..., k]) and a.shape == shape[:-1]
                   for k, a in enumerate(_angles_of(stack)))


def test_trajectory_from_negative_theta_is_continuous():
    # row 0 was omega0 as given and row 1 the readback with theta in
    # [0, pi]: from theta = -1.1 phi and psi jumped by pi, which
    # path_velocities and geometric_phase read as motion
    spin = Spin(2)
    fv = random_fiducial(spin, np.random.default_rng(7))
    spec = HamiltonianSpec(spin, (MonomialTerm(0, 1, 0, 1.0),))
    omega0 = (0.4, -1.1, 0.7)
    traj = integrate_trajectory(fv, spec, omega0, (0.0, 1.0), 0.05)
    a, b = traj.elements.T
    # the rotation angle of each step, from Re <g_j, g_j+1> = cos(angle/2)
    inner = (a[:-1].conj() * a[1:] + b[:-1].conj() * b[1:]).real
    step = 2.0 * np.arccos(np.clip(inner, -1.0, 1.0))
    jumps = np.abs(np.diff(traj.path[:, 1:], axis=0)).max(axis=1)
    assert (jumps <= 2.0 * step + 1e-12).all(), jumps.max()
    start = np.array(_cayley_klein(*omega0))
    assert np.abs(np.array(_cayley_klein(*traj.path[0, 1:])) - start).max() <= 1e-15
    for row, g in zip(traj.path[:, 1:], traj.elements):
        assert np.abs(np.array(_cayley_klein(*row)) - g).max() <= 1e-14
