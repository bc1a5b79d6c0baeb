"""SU(2) representation machinery: Wigner rotation matrices, Euler-angle
algebra, spin ladder operators, and the Gaussian decomposition.

Conventions used throughout the package:

* A rotation is parametrized by Euler angles ``(phi, theta, psi)`` in the
  z-y-z convention, ``R = exp(-i phi S3) exp(-i theta S2) exp(-i psi S3)``.
* Basis states are ordered by descending magnetic number, ``m = s, s-1, ...,
  -s``, so row 0 of every matrix is the highest-weight state.
* Spins and magnetic numbers are carried as doubled integers (``two_s``,
  ``two_m``) so half-integer bookkeeping stays exact; floats appear only in
  actual matrix entries.
* Canonical Euler ranges ``phi in [0, 2pi)``, ``theta in [0, pi]``,
  ``psi in [0, 2pi)`` label rotations (SO(3) elements).  They cover half of
  SU(2), so functions that extract angles from a 2x2 special-unitary matrix
  also return a sign flag: ``u = sign * R^(1/2)(angles)``.  At spin s the
  flag enters as ``sign**two_s``.  Only ``EulerAngles`` fold: every other
  angle argument enters through ``_angles_of`` (a point or a stack) or
  ``_point_of`` (one point) as given, reduced there modulo 4pi, the period
  of the SU(2) element, by ``_reduced``, exactly and only where
  |angle| >= 4pi, so the sheet is kept and no phase overflows.
* Every rotation of a whole state comes from one S2 eigenbasis per spin,
  cached and checked orthogonal once.  States are rotated vectors, R(Omega)
  applied at O(dim^2) a vector with no matrix built; ``little_d`` and
  ``big_r`` build the dense matrix only for callers that ask for it.  The
  large-spin contraction reads only the band of columns of r(theta) its
  fiducial meets, each an eigenvector of a real tridiagonal matrix, at
  O(dim band) with no basis built (``_r_columns``).
"""

from dataclasses import dataclass
from functools import lru_cache
import cmath
import math

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import DecompositionPole, LengthMismatch, NotFinite, NotUnitary, _count

__all__ = [
    "Spin",
    "EulerAngles",
    "RotationMatrix",
    "SpinOperators",
    "little_d",
    "big_r",
    "su2_matrix",
    "euler_from_su2",
    "compose_euler",
    "invert_euler",
    "gaussian_decompose",
    "spin_operators",
    "conjugate_spin_ops",
    "ladder_factor",
]

TWO_PI = 2.0 * math.pi
_FOUR_PI = 4.0 * math.pi

@dataclass(frozen=True)
class Spin:
    """Total spin, stored as the doubled integer ``two_s = 2s >= 0``
    (ValueError otherwise)."""

    two_s: int

    def __post_init__(self):
        object.__setattr__(self, "two_s", _count("two_s", self.two_s, 0))

    @property
    def s(self) -> float:
        return 0.5 * self.two_s

    @property
    def dim(self) -> int:
        """Dimension of the spin-s representation, 2s + 1."""
        return self.two_s + 1

    def two_m_values(self) -> np.ndarray:
        """Doubled magnetic numbers in descending order, 2m = 2s, 2s-2, ..., -2s."""
        return np.arange(self.two_s, -self.two_s - 2, -2)

    def m_values(self) -> np.ndarray:
        return 0.5 * self.two_m_values()


@dataclass(frozen=True)
class EulerAngles:
    """Euler angles (phi, theta, psi), normalized on construction to the
    canonical ranges phi in [0, 2pi), theta in [0, pi], psi in [0, 2pi).

    Out-of-range input angles are folded with the identity
    ``(phi, -theta, psi) ~ (phi + pi, theta, psi + pi)`` and 2pi shifts,
    which preserve the rotation (the SO(3) element), after an angle of
    size 4pi or more is reduced modulo 2pi exactly by _reduced, so the fold
    names the rotation of the raw triple at any size.  At half-integer spin
    the folded representative may differ from the raw one by an overall
    sign of the representation matrix; raw triples, which every state
    takes as given, keep the sheet, as does :func:`euler_from_su2`'s sign.
    Raises NotFinite for a NaN or infinite angle.
    """

    phi: float
    theta: float
    psi: float

    def __post_init__(self):
        phi, theta, psi = _reduced((float(self.phi), float(self.theta), float(self.psi)), 1.0)
        theta = theta % TWO_PI
        if theta > math.pi:
            theta = TWO_PI - theta
            phi += math.pi
            psi += math.pi
        # x % 2pi rounds up to 2pi for a tiny negative x; the second % maps
        # that one value to 0 and leaves every other unchanged
        object.__setattr__(self, "phi", phi % TWO_PI % TWO_PI)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "psi", psi % TWO_PI % TWO_PI)

    def as_array(self) -> np.ndarray:
        return np.array([self.phi, self.theta, self.psi])


@dataclass(frozen=True)
class RotationMatrix:
    """Dense spin-s rotation matrix with rows/columns in descending-m order.

    ``entries[i, j] = <m_i| R |m_j> = exp(-i phi m_i) r_{m_i m_j}(theta)
    exp(-i psi m_j)``.
    """

    spin: Spin
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        if e.shape != (self.spin.dim, self.spin.dim):
            raise ValueError(f"entries must be {self.spin.dim}x{self.spin.dim}, got {e.shape}")
        dev = np.linalg.norm(e.conj().T @ e - np.eye(self.spin.dim))
        if not dev <= 1e-12 * self.spin.dim:
            raise NotUnitary(f"rotation matrix unitarity defect {dev:.3e}")
        object.__setattr__(self, "entries", e)


@dataclass(frozen=True)
class SpinOperators:
    """Matrices of S3, S+ and S- in the descending-m basis."""

    spin: Spin
    s3: np.ndarray
    s_plus: np.ndarray
    s_minus: np.ndarray

    @property
    def s1(self) -> np.ndarray:
        return 0.5 * (self.s_plus + self.s_minus)

    @property
    def s2(self) -> np.ndarray:
        return -0.5j * (self.s_plus - self.s_minus)


def ladder_factor(spin: Spin, two_m: int) -> float:
    """f(s, m) = sqrt((s + m)(s - m + 1)), the S+ matrix element
    <m| S+ |m-1>, with m given as the doubled integer ``two_m``: 0.0 at
    m = -s, and ValueError unless two_m is one of -2s, -2s + 2, ..., 2s."""
    if not (-spin.two_s <= two_m <= spin.two_s and (spin.two_s - two_m) % 2 == 0):
        raise ValueError(f"two_m={two_m!r} is not a doubled magnetic number at "
                         f"two_s={spin.two_s}")
    a = (spin.two_s + two_m) // 2
    b = (spin.two_s - two_m + 2) // 2
    return math.sqrt(a * b)


def _ladder(two_s: int) -> np.ndarray:
    """The superdiagonal of S+ in descending-m order: f(s, m_i) at index i,
    for m_i = s - i, i = 0..2s-1 (``ladder_factor`` at every m but -s)."""
    i = np.arange(two_s)
    return np.sqrt((two_s - i) * (i + 1.0))


# Bounded because the basis grows as dim^2: 41 MB at two_s = 1600.  States,
# grid maps and gradients fill it; the large-spin contraction does not.
@lru_cache(maxsize=32)
def _s2_eigensystem(two_s: int) -> tuple:
    """The complex eigenbasis U of S2 and its exact eigenvalues m.

    The phase similarity P = diag(i^k) turns S2 into the real symmetric
    tridiagonal T = P^dag S2 P with off-diagonal f/2, so U = P V with V the
    real eigenvectors of T, and S2 = U diag(m) U^H with m = -s, ..., s in
    place of the computed eigenvalues; then r(theta) = U diag(e^{-i theta m})
    U^H at every spin and angle (Feng, Wang, Yang, Jin, PRE 92, 043307,
    2015).  V is checked here, once per two_s, for the tolerance of
    RotationMatrix: NotUnitary unless ||V^T V - 1||_F <= 1e-12 dim, so every
    rotation built on the basis is checked with it.  The arrays are
    read-only because every caller shares them.
    """
    dim = two_s + 1
    _, v = eigh_tridiagonal(np.zeros(dim), 0.5 * _ladder(two_s))
    dev = np.linalg.norm(v.T @ v - np.eye(dim))
    if not dev <= 1e-12 * dim:
        raise NotUnitary(f"S2 eigenbasis orthogonality defect {dev:.3e} at two_s={two_s}")
    u = np.array([1, 1j, -1, -1j])[np.arange(dim) % 4, None] * v
    m = np.arange(dim) - 0.5 * two_s
    for a in (u, m):
        a.flags.writeable = False
    return u, m


def _rotate(two_s: int, phi, theta, psi, x) -> np.ndarray:
    """R(phi, theta, psi) applied to every row of ``x`` (shape (..., dim)).

    R x = e^{-i phi S3} U diag(e^{-i theta m}) U^H e^{-i psi S3} x costs two
    products with the cached basis U and three diagonal phases, O(dim^2) a
    row, and builds no matrix.  The angles are taken raw, unfolded, as the
    entry helpers reduce them (below 4pi, so no phase overflows).  Each
    may be an array: its phases, of shape angle.shape + (dim,), broadcast
    against the rows where they act (psi first, then theta, then phi), so
    angle arrays of different shapes make a product grid.
    """
    u, m = _s2_eigensystem(two_s)
    s3 = m[::-1]
    x = np.exp(-1j * np.multiply.outer(psi, s3)) * x
    # x @ conj(U) as conj(conj(x) @ U), without a conjugated copy of U
    x = np.conj(np.conj(x) @ u) * np.exp(-1j * np.multiply.outer(theta, m))
    return np.exp(-1j * np.multiply.outer(phi, s3)) * (x @ u.T)


def _r_columns(two_s: int, theta: float, k_lo: int) -> np.ndarray:
    """Columns k_lo..2s (descending-m order) of r(theta), shape (dim, dim - k_lo),
    in O(dim) a column with no S2 basis built.

    Column k is r|m_k>, the eigenvector with eigenvalue m_k = s - k of the
    real symmetric tridiagonal r S3 r^T = cos(theta) S3 + sin(theta) S1, so
    one index-selected ``eigh_tridiagonal`` call returns them all (Feng,
    Wang, Yang, Jin, PRE 92, 043307, 2015).  Signs: the lowest-weight column
    d_{m,-s} alternates as (-1)^(2s-i), fixed at its largest entry, which
    never underflows; each higher column then makes
    <v_k| r S+ r^T |v_{k+1}> = f(s, m_k) > 0, with r S+ r^T = (1 + cos)/2 S+
    - (1 - cos)/2 S- - sin S3 real.  NotUnitary unless every column has
    unit norm and eigen-residual within 1e-12 dim, the tolerance of
    RotationMatrix.
    """
    dim = two_s + 1
    c, s = math.cos(theta), math.sin(theta)
    m = 0.5 * two_s - np.arange(dim)
    f = _ladder(two_s)
    _, v = eigh_tridiagonal(c * m, 0.5 * s * f, select="i", select_range=(0, two_s - k_lo))
    v = v[:, ::-1]

    def tri(diag, upper, lower, x):
        """(diag on the diagonal, upper and lower off it) @ x."""
        y = diag[:, None] * x
        y[:-1] += upper[:, None] * x[1:]
        y[1:] += lower[:, None] * x[:-1]
        return y

    tol = 1e-12 * dim
    residual = np.linalg.norm(tri(c * m, 0.5 * s * f, 0.5 * s * f, v) - m[k_lo:] * v, axis=0)
    norm_dev = np.abs(np.linalg.norm(v, axis=0) - 1.0)
    if not (residual.max() <= tol and norm_dev.max() <= tol):
        raise NotUnitary(f"r(theta) columns: eigen-residual {residual.max():.3e}, norm defect "
                         f"{norm_dev.max():.3e} at two_s={two_s}, theta={theta}")
    peak = np.argmax(np.abs(v[:, -1]))
    anchor = np.sign(v[peak, -1]) * (-1.0) ** (two_s - peak)
    links = np.sign(np.einsum("ij,ij->j", v[:, :-1],
                              tri(-s * m, 0.5 * (1 + c) * f, -0.5 * (1 - c) * f, v[:, 1:])))
    signs = anchor * np.append(np.cumprod(links[::-1])[::-1], 1.0)
    return v * signs


def little_d(spin: Spin, theta: float) -> np.ndarray:
    """Real rotation matrix r(theta) = exp(-i theta S2) in the descending-m
    basis, U diag(e^{-i theta m}) U^H on the cached S2 eigenbasis: one
    matrix product when warm, orthogonal to roundoff at any real theta.
    Built only for callers that need the matrix: states never build it.
    theta enters by the angle rule (see _reduced): NotFinite unless finite.
    """
    _, theta, _ = _reduced((0.0, float(theta), 0.0))
    u, m = _s2_eigensystem(spin.two_s)
    return ((u * np.exp(-1j * theta * m)) @ u.conj().T).real


def big_r(spin: Spin, omega) -> RotationMatrix:
    """Full rotation matrix R(phi, theta, psi) = exp(-i phi S3) r(theta)
    exp(-i psi S3) at one point, taken as given (see _point_of), so a raw
    triple keeps its SU(2) sheet."""
    phi, theta, psi = _point_of(omega)
    m = 0.5 * spin.two_m_values()
    r = little_d(spin, theta)
    entries = np.exp(-1j * phi * m)[:, None] * r * np.exp(-1j * psi * m)[None, :]
    return RotationMatrix(spin, entries)


def _reduced(x, k: float = 0.5) -> tuple:
    """(phi, theta, psi) of one point given as a tuple of three floats, as
    floats, or of a (..., 3) array, as arrays of shape (...), with each
    angle kept where |angle| < 4pi and set to atan2(sin(k angle),
    cos(k angle)) / k elsewhere: the angle modulo 4pi for k = 1/2, which
    keeps the SU(2) sheet, or modulo 2pi for k = 1.  Exact to roundoff at
    any size, as k angle is exact and sin and cos reduce their argument
    exactly; fmod by the rounded 4pi would move an angle of 1e300 to another
    rotation.  A NaN or infinite angle raises NotFinite."""
    # one point's floats are checked with no numpy call (a NaN fails each <)
    if (isinstance(x, tuple)
            and abs(x[0]) < _FOUR_PI and abs(x[1]) < _FOUR_PI and abs(x[2]) < _FOUR_PI):
        return x
    a = np.asarray(x)
    if not np.abs(a).max(initial=0.0) < _FOUR_PI:
        if not np.isfinite(a).all():
            where = x if isinstance(x, tuple) else f"of shape {a.shape}"
            raise NotFinite(f"Euler angles {where} must be finite")
        a = np.where(np.abs(a) < _FOUR_PI, a, np.arctan2(np.sin(k * a), np.cos(k * a)) / k)
    return tuple(a.tolist()) if isinstance(x, tuple) else (a[..., 0], a[..., 1], a[..., 2])


def _angles_of(omega) -> tuple:
    """(phi, theta, psi) as given, unfolded and reduced by _reduced, from an
    EulerAngles, a raw triple, a sequence of those or an array of shape
    (..., 3): floats for one point, arrays of shape (...) for a stack.
    Every point or stack angle argument enters here or through _point_of,
    and a NaN or infinite one raises NotFinite (see _reduced)."""
    if isinstance(omega, EulerAngles):
        return omega.phi, omega.theta, omega.psi
    if not isinstance(omega, np.ndarray) and EulerAngles in map(type, omega):
        return tuple(np.array([_angles_of(o) for o in omega]).T)
    a = np.asarray(omega, dtype=float)
    if a.shape[-1:] != (3,):
        raise ValueError(f"Euler angles need a last axis of length 3, got shape {a.shape}")
    return _reduced(tuple(a.tolist()) if a.ndim == 1 else a)


def _point_of(omega, other=None) -> tuple:
    """_angles_of for arguments that take one point each: three floats for
    omega alone, or the two triples of omega and other, or LengthMismatch
    quoting the shape of each argument when one is a stack."""
    sides = (_angles_of(omega),) if other is None else (_angles_of(omega), _angles_of(other))
    if isinstance(sides[0][0], np.ndarray) or isinstance(sides[-1][0], np.ndarray):
        raise LengthMismatch(f"expected one point each, got Euler angles of shape"
                             f"{'s' * (len(sides) > 1)} " + " and ".join(
                                 str(np.shape(side[0]) + (3,)) for side in sides))
    return sides[0] if other is None else sides


def _cayley_klein(phi: float, theta: float, psi: float) -> tuple:
    """The first column (a, b) of the spin-1/2 rotation at raw scalar angles,

        a = cos(t/2) e^{-i phi/2} e^{-i psi/2},  b = sin(t/2) e^{+i phi/2} e^{-i psi/2},

    each half-angle phase its own factor: a sum phi + psi would lose psi
    to rounding once |phi| dwarfs it (at |phi| ~ 1e300, say)."""
    e_phi, e_psi = cmath.exp(-0.5j * phi), cmath.exp(-0.5j * psi)
    return math.cos(0.5 * theta) * e_phi * e_psi, math.sin(0.5 * theta) * e_phi.conjugate() * e_psi


def su2_matrix(omega) -> np.ndarray:
    """The 2x2 special-unitary matrix of the spin-1/2 representation,

        [[a, -conj(b)],    a = cos(t/2) e^{-i(phi+psi)/2}
         [b,  conj(a)]],   b = sin(t/2) e^{+i(phi-psi)/2}

    with (a, b) from _cayley_klein, evaluated at raw (unnormalized) angles,
    so it is usable as the exact double-cover lift in compositions.
    """
    a, b = _cayley_klein(*_point_of(omega))
    return np.array([[a, -b.conjugate()], [b, a.conjugate()]])


def _euler_of(a: complex, b: complex) -> tuple:
    """The raw angles whose _cayley_klein pair is the unit pair (a, b):
    theta = 2 atan2(|b|, |a|), phi = arg b - arg a, psi = -arg a - arg b, on
    both sheets and at every theta, with no cutoff.  A zero has arg 0 (+ 0.0
    clears a signed zero), so b = 0 gives phi = psi = -arg a and a = 0 gives
    phi = -psi = arg b.  psi is 0.0 - arg a - arg b, as -0.0 - 0.0 would be
    -0.0 at arg a = arg b = 0.  Every Euler angle read from SU(2) data comes
    here."""
    arg_a, arg_b = cmath.phase(a + 0.0), cmath.phase(b + 0.0)
    return arg_b - arg_a, 2.0 * math.atan2(abs(b), abs(a)), 0.0 - arg_a - arg_b


def _folded(a: complex, b: complex) -> tuple:
    """(omega, sign) of the unit pair (a, b): omega the angles of _euler_of
    folded into an EulerAngles, and sign = +1 or -1 with (a, b) = sign *
    the pair of omega, read from Re <pair of omega, (a, b)> > 0."""
    omega = EulerAngles(*_euler_of(a, b))
    fa, fb = _cayley_klein(omega.phi, omega.theta, omega.psi)
    return omega, 1 if (fa.conjugate() * a + fb.conjugate() * b).real > 0.0 else -1


def euler_from_su2(u: np.ndarray) -> tuple:
    """Extract canonical Euler angles from a 2x2 special-unitary matrix.

    Returns ``(omega, sign)`` with ``u = sign * su2_matrix(omega)`` and
    ``sign in {+1, -1}``; canonical angle ranges cover only half of SU(2),
    so the sign flag carries the sheet.  At spin s the representation of
    ``u`` is ``sign**two_s * big_r(spin, omega).entries``.

    Raises NotUnitary unless ``||u^dag u - 1|| <= 1e-10`` and
    ``|det u - 1| <= 1e-10``.

    The angles are read from the first column (a, b) by _euler_of and then
    folded, exact to roundoff at every theta, the poles included.  Before
    folding, theta = 0 (b = 0) gives phi = psi = -arg a, and theta = pi
    (a = 0) gives phi = -psi = arg b.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
    if not np.linalg.norm(u.conj().T @ u - np.eye(2)) <= 1e-10:
        raise NotUnitary("matrix is not unitary to 1e-10")
    if not abs(np.linalg.det(u) - 1.0) <= 1e-10:
        raise NotUnitary("matrix determinant differs from 1 by more than 1e-10")
    return _folded(*u[:, 0].tolist())


def compose_euler(omega2, omega1) -> tuple:
    """Euler angles of the composed rotation R(omega2) R(omega1).

    Returns ``(omega, sign)`` such that at any spin

        big_r(spin, omega2) @ big_r(spin, omega1)
            == sign**two_s * big_r(spin, omega).

    Each side is one point, taken as given (see _point_of).  The product is
    the first column (a2 a1 - conj(b2) b1, b2 a1 + conj(a2) b1) of the two
    spin-1/2 matrices, multiplied as scalars, and read back as in
    euler_from_su2: exact to roundoff at every theta, the poles included.
    """
    w2, w1 = _point_of(omega2, omega1)
    (a2, b2), (a1, b1) = _cayley_klein(*w2), _cayley_klein(*w1)
    return _folded(a2 * a1 - b2.conjugate() * b1, b2 * a1 + a2.conjugate() * b1)


def invert_euler(omega) -> EulerAngles:
    """Euler angles of the inverse rotation, normalize(-psi, -theta, -phi),
    of one point taken as given (see _point_of).

    Exact at the SO(3) level; at half-integer spin the representation of the
    result may differ from R(omega)^dag by an overall sign (the canonical
    ranges cover half of SU(2)).
    """
    phi, theta, psi = _point_of(omega)
    return EulerAngles(-psi, -theta, -phi)


_DEGENERATE_CUTOFF = 1e-9


def gaussian_decompose(omega) -> tuple:
    """Coordinates (z_plus, z3, z_minus) of the Gaussian decomposition

        R(omega) = exp(z_plus S+) exp(z3 S3) exp(z_minus S-)

    read from the _cayley_klein pair (a, b) of one point taken as given
    (see _point_of): z_plus = -conj(b)/conj(a) = -tan(theta/2) e^{-i phi},
    z3 = -2 Log(conj(a)) (principal branch) and z_minus = b/conj(a) =
    tan(theta/2) e^{-i psi}.

    Any 2pi i ambiguity in the log branch drops out of exp(z3 S3) for both
    integer and half-integer spin, so the product identity is exact, and a
    raw triple keeps its sheet.

    Raises DecompositionPole where |a| = |cos(theta/2)| < 0.5e-9, within
    1e-9 of theta = pi, where tan(theta/2) diverges.
    """
    a, b = _cayley_klein(*_point_of(omega))
    if abs(a) < 0.5 * _DEGENERATE_CUTOFF:
        raise DecompositionPole(f"|cos(theta/2)| = {abs(a):.3e}: theta is within 1e-9 of "
                                f"the pole at pi")
    a_bar = a.conjugate()
    return -b.conjugate() / a_bar, -2.0 * cmath.log(a_bar), b / a_bar


def spin_operators(spin: Spin) -> SpinOperators:
    """S3, S+, S- in the descending-m basis: S3 = diag(s, s-1, ..., -s) and
    S+ |m-1> = f(s, m) |m> with f(s, m) = sqrt((s+m)(s-m+1))."""
    s3 = np.diag(spin.m_values()).astype(complex)
    s_plus = np.diag(_ladder(spin.two_s), 1).astype(complex)
    return SpinOperators(spin, s3, s_plus, s_plus.conj().T)


def conjugate_spin_ops(spin: Spin, omega) -> SpinOperators:
    """Rotated generators R^dag S R in closed form:

        R^dag S3 R  = cos(t) S3 - (1/2) sin(t) [e^{i psi} S+ + e^{-i psi} S-]
        R^dag S+- R = e^{+-i phi} { sin(t) S3
                        + (1/2) [(cos(t) +- 1) e^{i psi} S+
                                 + (cos(t) -+ 1) e^{-i psi} S-] }

    with t = theta, at one point taken as given (see _point_of).  Matches
    the explicit triple product to 1e-12.
    """
    phi, theta, psi = _point_of(omega)
    ops = spin_operators(spin)
    ct, st = math.cos(theta), math.sin(theta)
    ep, em = np.exp(1j * psi), np.exp(-1j * psi)
    s3 = ct * ops.s3 - 0.5 * st * (ep * ops.s_plus + em * ops.s_minus)
    s_plus = np.exp(1j * phi) * (
        st * ops.s3 + 0.5 * ((ct + 1.0) * ep * ops.s_plus + (ct - 1.0) * em * ops.s_minus))
    s_minus = np.exp(-1j * phi) * (
        st * ops.s3 + 0.5 * ((ct - 1.0) * ep * ops.s_plus + (ct + 1.0) * em * ops.s_minus))
    return SpinOperators(spin, s3, s_plus, s_minus)
