"""Spin coherent states built from an arbitrary fiducial vector.

A fiducial vector |Psi0> = sum_m c_m |m> (any normalized superposition, not
just the lowest-weight state) is carried over the group: |Omega> =
R(Omega) |Psi0> at the angles given.  This module provides the state
construction, overlaps, matrix elements of the generators, and the
product quadrature grid that makes the resolution of unity

    integral |Omega> dmu <Omega| = 1,
    dmu = (2s+1)/(8 pi^2) sin(theta) dtheta dphi dpsi

exact (to roundoff) for band-limited integrands, independent of the
fiducial vector.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
import math
import warnings

import numpy as np
from scipy.linalg import expm

from .errors import (AmplitudesTooLarge, GridCoarseWarning, LengthMismatch, NotFinite,
                     NotNormalized, ZeroVector, _finite)
from .spin_core import (Spin, spin_operators, _angles_of, _cayley_klein, _euler_of, _ladder,
                        _point_of, _rotate, _s2_eigensystem)

__all__ = [
    "FiducialVector",
    "CoherentState",
    "MatrixElementSet",
    "QuadratureGrid",
    "make_fiducial",
    "random_fiducial",
    "coherent_state",
    "overlap",
    "matrix_elements",
    "structure_pair",
    "generating_function",
    "build_grid",
    "resolution_residual",
    "grid_amplitudes",
]


@dataclass(frozen=True)
class FiducialVector:
    """Normalized fiducial coefficients c_m in descending-m order, with the
    global phase fixed so the first nonzero coefficient is real positive."""

    spin: Spin
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.spin.dim,):
            raise LengthMismatch(f"expected {self.spin.dim} coefficients, got shape {c.shape}")
        norm_dev = abs(np.vdot(c, c).real - 1.0)
        if not norm_dev <= 1e-12:
            raise NotNormalized(f"coefficients are not normalized (defect {norm_dev:.3e})")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @cached_property
    def _structure_pair(self) -> tuple:
        c = self.coeffs
        a0 = float(np.sum(self.spin.m_values() * np.abs(c) ** 2))
        # c is descending in m: index i holds m_i, index i+1 holds m_i - 1
        b0 = complex(np.sum(_ladder(self.spin.two_s) * np.conj(c[:-1]) * c[1:]))
        return a0, b0


@dataclass(frozen=True)
class CoherentState:
    """A rotated fiducial vector |Omega> = R(Omega) |Psi0>, or a stack, with
    the amplitudes sum_m' R_{m'm} c_m in descending-m order, (..., dim)."""

    fv: FiducialVector
    omega: object
    amplitudes: np.ndarray


@dataclass(frozen=True)
class MatrixElementSet:
    """Structure functions of a fiducial vector at a point Omega:

        a0       = sum_m m |c_m|^2
        a1(psi)  = Re sum_m f(s,m) c_m^* c_{m-1} e^{i psi}
        a4(psi)  = Im sum_m f(s,m) c_m^* c_{m-1} e^{i psi}
        a2(Omega)= (1/2) e^{i phi} [(1+cos t) B - (1-cos t) conj(B)],
                   B = e^{i psi} sum_m f(s,m) c_m^* c_{m-1}

    a0 is bounded by |a0| <= s.
    """

    a0: float
    a1: float
    a2: complex
    a4: float


def make_fiducial(spin: Spin, raw) -> FiducialVector:
    """Normalize raw coefficients (descending-m order) into a FiducialVector.

    Raises LengthMismatch for a wrong-sized array, ZeroVector for an
    all-zero input and NotFinite for a NaN or infinite one.  Any other
    input normalizes, from subnormal to near-overflow entries.  The global
    phase is chosen so the first (highest-m) nonzero coefficient is real
    positive.
    """
    c = np.asarray(raw, dtype=complex).ravel()
    if c.shape != (spin.dim,):
        raise LengthMismatch(f"expected {spin.dim} coefficients, got {c.shape[0]}")
    c = _normalized(c, "fiducial")
    lead = np.flatnonzero(np.abs(c) > 0)[0]
    c = c * np.exp(-1j * np.angle(c[lead]))
    return FiducialVector(spin, c)


def _normalized(c: np.ndarray, what: str) -> np.ndarray:
    """c / ||c|| for complex coefficients, from subnormal to near-overflow
    entries.  Raises ZeroVector for an all-zero c and NotFinite for a NaN or
    infinite part, naming the coefficients as what."""
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(c)
    if not 2.0 ** -480 < norm < 2.0 ** 480:
        # outside 2^(+-480) the squares under the norm may overflow or lose
        # bits to underflow: scale by the power of two that brings the
        # largest real or imaginary part into [1/2, 1), which changes no
        # bit of c / norm
        parts = np.stack((c.real, c.imag), axis=-1)
        big = float(np.abs(parts).max(initial=0.0))
        if big == 0.0:
            raise ZeroVector(f"{what} coefficients are all zero")
        if not math.isfinite(big):
            raise NotFinite(f"{what} coefficients hold a NaN or infinite part ({big})")
        c = np.ldexp(parts, -math.frexp(big)[1]).view(complex)[..., 0]
        norm = np.linalg.norm(c)
    return c / norm


def random_fiducial(spin: Spin, rng: np.random.Generator) -> FiducialVector:
    """A Haar-ish random fiducial vector: iid complex normal coefficients,
    normalized and phase-fixed.  Deterministic given the generator state."""
    raw = rng.standard_normal(spin.dim) + 1j * rng.standard_normal(spin.dim)
    return make_fiducial(spin, raw)


def coherent_state(fv: FiducialVector, omega) -> CoherentState:
    """|Omega> = R(Omega)|Psi0> at the angles given: the coefficients rotated
    in the cached S2 eigenbasis, O(dim^2) a point, with no matrix built.
    omega is an EulerAngles, a raw triple, a sequence of those or an array
    of shape (..., 3), and the (..., dim) amplitudes come from one _rotate
    call.  Raw angles are not folded, so they keep the SU(2) sheet; at
    |angle| >= 4pi they are reduced exactly modulo 4pi (see _angles_of)."""
    amps = _rotate(fv.spin.two_s, *_angles_of(omega), fv.coeffs)
    return CoherentState(fv, omega, amps)


def overlap(fv: FiducialVector, omega2, omega1) -> complex:
    """<Omega2|Omega1> = <Psi0| R(g) |Psi0> for a shared fiducial vector,
    with g = g2^-1 g1 the group product of the spin-1/2 rotations at the
    angles given: one rotated row a pair, not two states.  g's first column
    a = conj(a2) a1 + conj(b2) b1, b = a2 b1 - b2 a1 (see _cayley_klein) is
    read back as raw angles by _euler_of, which rebuild g itself, so the
    half-integer sheet is kept with no sign flag or pole cutoff.  Agrees
    with the vdot of two coherent_state calls to roundoff, not bit for bit.
    Each side is one point (see _point_of): LengthMismatch for a stack."""
    w2, w1 = _point_of(omega2, omega1)
    (a2, b2), (a1, b1) = _cayley_klein(*w2), _cayley_klein(*w1)
    angles = _euler_of(a2.conjugate() * a1 + b2.conjugate() * b1, a2 * b1 - b2 * a1)
    c = fv.coeffs
    return complex(np.vdot(c, _rotate(fv.spin.two_s, *angles, c)))


def _pair_states(fv: FiducialVector, omega2, omega1) -> np.ndarray:
    """The states at two single points (see _point_of), the rows of one
    _rotate call."""
    return _rotate(fv.spin.two_s, *zip(*_point_of(omega2, omega1)), fv.coeffs)


def structure_pair(fv: FiducialVector) -> tuple:
    """(a0, b0) with a0 = sum_m m |c_m|^2 and b0 = sum_m f(s,m) c_m^* c_{m-1}.

    Every angle-dependent structure function is built from these two numbers:
    a1 = Re(e^{i psi} b0), a4 = Im(e^{i psi} b0), and the spin vector
    <Psi0|S|Psi0> = (Re b0, Im b0, a0) of the kinetic terms.
    Computed on the first call for a fiducial vector and kept with it.
    """
    return fv._structure_pair


def _spin_vector(fv: FiducialVector) -> tuple:
    """n_fv = <Psi0|S|Psi0> = (Re b0, Im b0, a0), the cached structure pair
    read as a spin vector (<S+> = b0, <S3> = a0)."""
    a0, b0 = structure_pair(fv)
    return b0.real, b0.imag, a0


def matrix_elements(fv: FiducialVector, omega) -> tuple:
    """Expectation values (<S3>, <S+>) in |Omega> and the structure set.

        <S3> = a0 cos(t) - a1(psi) sin(t)
        <S+> = a0 sin(t) e^{i phi} + a2(Omega),  <S-> = conj(<S+>)

    ``omega`` is one point, an EulerAngles or a raw (phi, theta, psi)
    triple (see _point_of); the values are 2pi-periodic and fold-invariant,
    so raw angles are safe.
    """
    phi, theta, psi = _point_of(omega)
    a0, b0 = structure_pair(fv)
    b = np.exp(1j * psi) * b0
    a1, a4 = float(b.real), float(b.imag)
    ct, st = math.cos(theta), math.sin(theta)
    a2 = 0.5 * np.exp(1j * phi) * ((1.0 + ct) * b - (1.0 - ct) * np.conj(b))
    s3 = a0 * ct - a1 * st
    s_plus = a0 * st * np.exp(1j * phi) + a2
    return float(s3), complex(s_plus), MatrixElementSet(a0, a1, complex(a2), a4)


def generating_function(fv: FiducialVector, omega2, omega1,
                        z_plus: complex, z3: complex, z_minus: complex) -> complex:
    """<Omega2| exp(z+ S+) exp(z3 S3) exp(z- S-) |Omega1>, evaluated by dense
    matrix exponentials.  Differentiating at z = 0 generates matrix elements
    of arbitrary generator monomials between coherent states.  Each side
    is one point (see _point_of); NotFinite names a NaN or infinite z."""
    for name, z in (("z_plus", z_plus), ("z3", z3), ("z_minus", z_minus)):
        _finite(name, z, complex)
    bra, ket = _pair_states(fv, omega2, omega1)
    ops = spin_operators(fv.spin)
    middle = expm(z_plus * ops.s_plus) @ expm(z3 * ops.s3) @ expm(z_minus * ops.s_minus)
    return complex(np.vdot(bra, middle @ ket))


@dataclass(frozen=True)
class QuadratureGrid:
    """Product quadrature for the group measure sin(theta) dtheta dphi dpsi:
    Gauss-Legendre in cos(theta), uniform (trapezoidal) in phi and psi.

    Total weight is 8 pi^2.  The grid integrates products of two rotation
    matrices of spin <= s_max exactly when n_theta >= 2 s_max + 1 and
    n_phi, n_psi >= 4 s_max + 1; ``exact_two_s`` records the largest doubled
    spin for which that holds.  The node counts are the sizes of the node
    arrays, each read by errors._finite (a float array is kept uncopied):
    NotFinite names a NaN or infinite node or weight, and LengthMismatch is
    raised unless theta_weights has one weight per theta node.
    """

    theta: np.ndarray
    theta_weights: np.ndarray
    phi: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        for name in ("theta", "theta_weights", "phi", "psi"):
            length = self.theta.size if name == "theta_weights" else None
            object.__setattr__(self, name, _finite(name, getattr(self, name), length=length))

    @property
    def n_theta(self) -> int:
        return self.theta.size

    @property
    def n_phi(self) -> int:
        return self.phi.size

    @property
    def n_psi(self) -> int:
        return self.psi.size

    @property
    def exact_two_s(self) -> int:
        return min(self.n_theta - 1, (self.n_phi - 1) // 2, (self.n_psi - 1) // 2)

    @property
    def n_points(self) -> int:
        return self.n_theta * self.n_phi * self.n_psi

    def weights(self) -> np.ndarray:
        """Flattened quadrature weights for sin(t) dt dphi dpsi, in
        (theta, phi, psi)-major order.  They sum to 8 pi^2."""
        cell = (2.0 * math.pi / self.n_phi) * (2.0 * math.pi / self.n_psi)
        w = np.broadcast_to((self.theta_weights * cell)[:, None, None],
                            (self.n_theta, self.n_phi, self.n_psi))
        return w.ravel()

    def measure_weights(self, spin: Spin) -> np.ndarray:
        """Weights for the normalized measure dmu = (2s+1)/(8 pi^2) sin(t)
        dt dphi dpsi; they sum to 2s + 1."""
        return (spin.dim / (8.0 * math.pi ** 2)) * self.weights()


# The package's one byte budget, checked by _check_budget before each
# allocation it guards: the (n_points, dim) complex array of
# grid_amplitudes, which only M3 and explicit amplitude maps build (grid
# sums of two states go through _grid_gram); the dense n x n companion
# matrix that leggauss builds for an n-node rule; the contraction's column
# block; and the G x G pair block of the M3 kernel, 10 float64 per entry
# (propagator._m3_chain).  It lets through every grid this package's tests
# and benchmark map (the largest, two_s = 36 on an oversample-1 grid, is
# 0.13 GB) and every M3 kernel up to G = 3663 (two_s = 6 on the default
# grid, 0.84 GB), and stops two_s = 60 amplitudes on the default grid
# (1.6 GB), an M3 kernel at two_s = 7 on it (1.88 GB) or a rule past 11585
# nodes before numpy runs out of memory.
_AMPLITUDE_BYTES_MAX = 2 ** 30


def _check_budget(n_bytes: int, needs: str):
    """AmplitudesTooLarge when an allocation of n_bytes would exceed
    _AMPLITUDE_BYTES_MAX, called before it; the message is needs, which
    names the object and its sizes, then the two sizes in GB."""
    if n_bytes > _AMPLITUDE_BYTES_MAX:
        raise AmplitudesTooLarge(f"{needs} {n_bytes / 1e9:.2f} GB, above the "
                                 f"{_AMPLITUDE_BYTES_MAX / 1e9:.2f} GB budget")


@lru_cache(maxsize=64)
def _gauss_legendre(n: int) -> tuple:
    """The n-node Gauss-Legendre rule on [-1, 1]: nodes x, weights w and the
    angles arccos(x), all read-only.  leggauss costs far more than the rest
    of a small grid build, and grids of one size, and the radial rule of
    contraction.ccs_resolution_residual, share the same rule.

    Raises AmplitudesTooLarge, before allocating, when the n x n float
    companion matrix of leggauss would exceed ``_AMPLITUDE_BYTES_MAX`` bytes.
    """
    _check_budget(n * n * np.dtype(float).itemsize,
                  f"the {n}-node Gauss-Legendre rule needs a {n} x {n} companion matrix of")
    x, w = np.polynomial.legendre.leggauss(n)
    rule = x, w, np.arccos(x)
    for arr in rule:
        arr.flags.writeable = False
    return rule


def build_grid(spin_max: Spin, oversample: float = 1.2) -> QuadratureGrid:
    """Product grid sized for exact integration at spin <= spin_max:
    n_theta = ceil(ov (2 s_max + 2)), n_phi = n_psi = ceil(ov (4 s_max + 3)).
    The theta nodes and weights are the cached Gauss-Legendre rule of that
    size, shared read-only by every grid with the same n_theta.  Raises
    NotFinite for a NaN or infinite oversample, ValueError below 1 and
    AmplitudesTooLarge, before allocating, past 11585 theta nodes (see
    _gauss_legendre).
    """
    oversample = _finite("oversample", oversample)
    if oversample < 1.0:
        raise ValueError("oversample must be >= 1")
    two_s = spin_max.two_s
    n_theta = math.ceil(oversample * (two_s + 2))
    n_ang = math.ceil(oversample * (2 * two_s + 3))
    _, w, theta = _gauss_legendre(n_theta)
    phi = 2.0 * math.pi * np.arange(n_ang) / n_ang
    return QuadratureGrid(theta, w, phi, phi.copy())


def grid_amplitudes(fv: FiducialVector, grid: QuadratureGrid) -> np.ndarray:
    """Coherent-state amplitudes at every grid node, shape (n_points, dim),
    in the same flattened order as ``grid.weights()``.

    Built factorized: the fiducial vector is rotated once per (theta, psi)
    node pair, batched over the theta nodes in the cached S2 eigenbasis,
    and the phi phases are applied last, so no rotation matrix is built.

    Raises AmplitudesTooLarge, before allocating, when the result would
    exceed ``_AMPLITUDE_BYTES_MAX`` bytes.
    """
    spin = fv.spin
    dim = spin.dim
    _check_budget(grid.n_points * dim * np.dtype(complex).itemsize,
                  f"amplitudes of {grid.n_points} grid points x {dim} states need")
    # phases of shape (n_phi, 1, dim), (n_theta, 1, 1, dim) and (n_psi, dim)
    # broadcast to (n_theta, n_phi, n_psi, dim)
    amps = _rotate(spin.two_s, grid.phi[:, None], grid.theta[:, None, None], grid.psi,
                   fv.coeffs)
    return amps.reshape(grid.n_points, dim)


def _node_sums(x: np.ndarray, weights: np.ndarray, dim: int) -> np.ndarray:
    """sum_n weights_n exp(-i x_n d) for the integer frequencies
    d = -(dim - 1), ..., dim - 1, at index d + dim - 1.  The weights are
    real, so the negative frequencies are the conjugates of the positive."""
    half = weights @ np.exp(-1j * np.multiply.outer(x, np.arange(dim)))
    return np.concatenate((half[:0:-1].conj(), half))


def _grid_gram(grid: QuadratureGrid, spin: Spin, bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """The quadrature Gram matrix sum_g dmu_g conj(R_g bra)_i (R_g ket)_j,
    exact to roundoff for any grid, aliased or not, without visiting grid
    points: O(dim^3 + (n_theta + n_phi + n_psi) dim) time, O(dim^2) memory.

    With R_g = e^{-i phi S3} r(theta) e^{-i psi S3} the phi and psi sums are
    discrete Fourier sums s(d) = sum_x e^{-i x d} / n at the frequencies
    d = m_i - m_j.  The theta sum separates in the S2 eigenbasis (Kostelec &
    Rockmore, J. Fourier Anal. Appl. 14:145, 2008): with the cached basis U
    and eigenvalues m_n of _s2_eigensystem, r(theta) = U E U^H with
    E = diag(e^{-i theta m_n}), and

        Gram = (dim/2) conj(s_phi[m_i - m_j])
               * [U ((U^H C conj(U)) * w_theta[m_n + m_n']) U^T]_ij,
        C_kl = conj(bra_k) ket_l conj(s_psi[m_k - m_l]),

    where w_theta(d) = sum_theta w_theta e^{-i theta d}.  With bra = ket =
    the fiducial coefficients it is the transpose of the projector
    P = sum_g dmu_g |Omega_g><Omega_g|.  bra and ket may be stacks of shape
    (..., dim) that broadcast; the result then has shape (..., dim, dim).
    """
    dim = spin.dim
    k = np.arange(dim)
    u = _s2_eigensystem(spin.two_s)[0]
    uc = u.conj()
    diff = k[None, :] - k[:, None] + dim - 1      # m_i - m_j (descending m), as an index
    total = k[:, None] + k[None, :]               # m_n + m_n' (ascending eigenvalues)
    s_phi = _node_sums(grid.phi, np.full(grid.n_phi, 1.0 / grid.n_phi), dim)
    s_psi = _node_sums(grid.psi, np.full(grid.n_psi, 1.0 / grid.n_psi), dim)
    w_theta = _node_sums(grid.theta, grid.theta_weights, dim)
    c = np.conj(bra)[..., :, None] * ket[..., None, :] * np.conj(s_psi[diff])
    inner = (uc.T @ c @ uc) * w_theta[total]
    return (0.5 * dim) * np.conj(s_phi[diff]) * (u @ inner @ u.T)


def resolution_residual(fv: FiducialVector, grid: QuadratureGrid) -> float:
    """Operator-norm defect || sum_g w_g dmu_g |Omega_g><Omega_g| - 1 ||.

    For a grid exact at the fiducial spin this is roundoff-level regardless
    of the fiducial vector.  If the grid is too coarse a GridCoarseWarning
    is emitted and the (large) residual is still returned.  The grid sum is
    factorized (see _grid_gram): O(dim^3) whatever the number of grid points.
    """
    if grid.exact_two_s < fv.spin.two_s:
        warnings.warn(
            f"grid exact to two_s={grid.exact_two_s} but fiducial spin has "
            f"two_s={fv.spin.two_s}; residual will not be at roundoff level",
            GridCoarseWarning, stacklevel=2)
    p = _grid_gram(grid, fv.spin, fv.coeffs, fv.coeffs)
    return float(np.linalg.svd(p - np.eye(fv.spin.dim), compute_uv=False)[0])
