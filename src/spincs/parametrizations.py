"""Alternative coordinates for the coherent-state manifold: the Gaussian
z-chart and the spinor a-chart, with their invariant measure densities and
kinetic terms.

Both charts are linked to Euler angles by

    z_plus = -tan(t/2) e^{-i phi},  z_minus = tan(t/2) e^{-i psi},
    a1 = cos(t/2) e^{-i(phi+psi)/2}, a2 = sin(t/2) e^{i(phi-psi)/2}.

Neither chart carries a kinetic formula of its own.  Each maps its velocity
to the body angular velocity omega_body of geometry, and the kinetic term
is the fiducial vector's spin vector n_fv against it, as in the Euler
chart: the a-chart reads omega_body from g^-1 dg/dt directly, the z-chart
through the Euler-angle velocity at z_to_omega(z).
"""

from dataclasses import dataclass
import cmath
import math

from .coherent import FiducialVector, structure_pair, _spin_vector
from .errors import NotUnitary, NumericalFailure, SubsidiaryViolation, ZOriginSingular, _finite
from .geometry import kinetic_term
from .spin_core import EulerAngles, Spin, gaussian_decompose, _cayley_klein, _folded, _point_of

__all__ = [
    "ZCoords",
    "ACoords",
    "omega_to_z",
    "z_to_omega",
    "z3_of",
    "omega_to_a",
    "a_to_omega",
    "z_measure_weight",
    "a_measure_weight",
    "kinetic_term_z",
    "kinetic_term_a",
]


@dataclass(frozen=True)
class ZCoords:
    """Gaussian-decomposition coordinates restricted to the coherent-state
    constraint surface |z_plus| = |z_minus| (enforced to 1e-10).  The third
    coordinate z3 is derived, see :func:`z3_of`."""

    z_plus: complex
    z_minus: complex

    def __post_init__(self):
        if not abs(abs(self.z_plus) - abs(self.z_minus)) <= 1e-10:
            raise SubsidiaryViolation(
                f"| |z+| - |z-| | = {abs(abs(self.z_plus) - abs(self.z_minus)):.3e} > 1e-10")
        object.__setattr__(self, "z_plus", complex(self.z_plus))
        object.__setattr__(self, "z_minus", complex(self.z_minus))


@dataclass(frozen=True)
class ACoords:
    """Spinor coordinates (a1, a2) on the unit 3-sphere |a1|^2 + |a2|^2 = 1
    (enforced to 1e-12).  They fill the first column of the spin-1/2
    rotation matrix [[a1, -a2*], [a2, a1*]]."""

    a1: complex
    a2: complex

    def __post_init__(self):
        dev = abs(abs(self.a1) ** 2 + abs(self.a2) ** 2 - 1.0)
        if not dev <= 1e-12:
            raise NotUnitary(f"|a|^2 deviates from 1 by {dev:.3e}")
        object.__setattr__(self, "a1", complex(self.a1))
        object.__setattr__(self, "a2", complex(self.a2))


def omega_to_z(omega) -> ZCoords:
    """(z_plus, z_minus) of the Gaussian decomposition at one point, taken
    as given.  Raises DecompositionPole within 1e-9 of theta = pi."""
    z_plus, _, z_minus = gaussian_decompose(omega)
    return ZCoords(z_plus, z_minus)


def z_to_omega(z: ZCoords) -> EulerAngles:
    """Euler angles with theta = 2 atan(|z_plus|), phi = -arg(-z_plus),
    psi = -arg(z_minus).  Inverse of omega_to_z for theta in (0, pi); the
    chart is degenerate at the origin, which maps to (0, 0, 0)."""
    u = abs(z.z_plus)
    if u == 0.0:
        return EulerAngles(0.0, 0.0, 0.0)
    theta = 2.0 * math.atan(u)
    phi = -cmath.phase(-z.z_plus)
    psi = -cmath.phase(z.z_minus)
    return EulerAngles(phi, theta, psi)


def z3_of(z: ZCoords) -> complex:
    """The derived third Gaussian coordinate, from

        exp(-z3/2) = i sqrt( z+* z-* / (|z+|^2 (1 + |z+|^2)) ),

    principal square root and log.  The square root leaves a sign ambiguity,
    so the value is defined modulo 2 pi i; exp(-z3) is unambiguous and
    matches the gaussian_decompose value exactly.
    """
    u2 = abs(z.z_plus) ** 2
    if u2 == 0.0:
        raise ZOriginSingular("z3 is undefined at z_plus = 0")
    w = (z.z_plus.conjugate() * z.z_minus.conjugate()) / (u2 * (1.0 + u2))
    return -2.0 * cmath.log(1j * cmath.sqrt(w))


def omega_to_a(omega) -> ACoords:
    """(a1, a2), the _cayley_klein pair and first column of su2_matrix, at
    one point taken as given, so the spinor keeps the SU(2) sheet."""
    return ACoords(*_cayley_klein(*_point_of(omega)))


def a_to_omega(a: ACoords) -> tuple:
    """Euler angles of the spinor pair, with the double-cover sign flag:
    returns (omega, sign) with [[a1,-a2*],[a2,a1*]] = sign * R^(1/2)(omega),
    read back from (a1, a2) as in euler_from_su2, exact at the poles."""
    return _folded(a.a1, a.a2)


def z_measure_weight(z: ZCoords, spin: Spin) -> float:
    """Invariant-measure density on the constraint surface in the chart
    (u, arg z_plus, arg z_minus) with u = |z_plus|:

        w(u) = (2s+1)/(2 pi^2) * u / (1 + u^2)^2.

    This is the delta-resolved surface density of
    (2s+1)/(2 pi^2) delta(|z+|-|z-|) / (|z+| (1+|z+|^2)^2) d^2z+ d^2z-,
    and equals the pushforward of dmu(Omega) under omega_to_z exactly.
    """
    u = abs(z.z_plus)
    return (spin.dim / (2.0 * math.pi ** 2)) * u / (1.0 + u * u) ** 2


def a_measure_weight(a: ACoords, spin: Spin) -> float:
    """Invariant-measure density with respect to the round surface measure
    on the unit 3-sphere (total area 2 pi^2): the constant (2s+1)/(2 pi^2).

    Equivalently the delta form (2s+1)/pi^2 delta(|a|^2 - 1) d^2a1 d^2a2;
    the full sphere double-covers the states, |{-a}> = +-|{a}>, so each
    projector is counted twice and the resolution of unity still sums to
    one.
    """
    return spin.dim / (2.0 * math.pi ** 2)


def kinetic_term_z(fv: FiducialVector, z: ZCoords, z_dot) -> float:
    """kinetic_term at z_to_omega(z), with z_dot = (dz_plus/dt, dz_minus/dt)
    mapped to dphi = -Im(dz+/z+), dtheta = 2 |z+| Re(dz+/z+) / (1 + |z+|^2)
    and dpsi = -Im(dz-/z-).  Raises NotFinite or LengthMismatch for a bad
    z_dot, NumericalFailure when a finite z_dot overflows that map or the
    term, and ZOriginSingular when |z_plus| < 1e-9 and b0 != 0, where the
    limit depends on the direction of approach; for b0 = 0 the term
    vanishes with |z+| along constraint paths and 0.0 is returned.
    """
    zp_dot, zm_dot = _finite("z_dot", z_dot, complex, 2).tolist()
    u = abs(z.z_plus)
    if u * u < 1e-18:
        if abs(structure_pair(fv)[1]) > 0.0:
            raise ZOriginSingular(
                "kinetic term is singular at z_plus = 0 for fiducial vectors "
                "with coupled neighboring components")
        return 0.0
    rate_p, rate_m = zp_dot / z.z_plus, zm_dot / z.z_minus
    omega_dot = (-rate_p.imag, 2.0 * u * rate_p.real / (1.0 + u * u), -rate_m.imag)
    if not all(map(math.isfinite, omega_dot)):
        raise NumericalFailure(f"z_dot {[zp_dot, zm_dot]} overflows the Euler velocity {omega_dot}")
    return kinetic_term(fv, z_to_omega(z), omega_dot)


def kinetic_term_a(fv: FiducialVector, a: ACoords, a_dot) -> float:
    """n_fv . omega_body with the body velocity of g^-1 dg/dt at
    g = [[a1, -a2*], [a2, a1*]] and a_dot = (da1/dt, da2/dt):
    omega_body = (-2 Im v, 2 Re v, -2 Im(a1* da1 + a2* da2)), v = a1 da2 -
    da1 a2.  Globally regular on the sphere.  Raises NotFinite or
    LengthMismatch for a bad a_dot."""
    a1_dot, a2_dot = _finite("a_dot", a_dot, complex, 2).tolist()
    v = a.a1 * a2_dot - a1_dot * a.a2
    spin_rate = (a.a1.conjugate() * a1_dot + a.a2.conjugate() * a2_dot).imag
    x, y, z = _spin_vector(fv)
    return float(-2.0 * (x * v.imag - y * v.real + z * spin_rate))
