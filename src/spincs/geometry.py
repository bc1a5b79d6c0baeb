"""Geometric structure carried by a fiducial vector: the kinetic one-form,
its exterior derivative, orthogonal-coordinate gauge potentials, and
geometric phases along sampled paths.

The central object is the one-form kappa = n_fv . omega_body, whose
contraction with a velocity is <Omega| i d/dt |Omega>: the fiducial
vector's constant spin vector n_fv = <Psi0|S|Psi0> = (Re b0, Im b0, a0)
against the body angular velocity of g^-1 dg/dt = -i omega_body.sigma/2,
g the spin-1/2 rotation.  A single-m fiducial vector has n_fv = (0, 0, m)
and kappa = m (cos t dphi + dpsi), the monopole form; superpositions tilt
n_fv off the body z-axis.  Every chart (Euler angles here, the z and spinor
charts in parametrizations) contracts n_fv with its own body velocity.
"""

from dataclasses import dataclass
import math

import numpy as np

from .coherent import FiducialVector, _spin_vector
from .errors import LengthMismatch, NotFinite, NumericalFailure, PathTooShort, TimesNotMonotone
from .spin_core import _angles_of

__all__ = [
    "OneForm",
    "TwoForm",
    "GaugePotential",
    "one_form",
    "two_form",
    "gauge_potential",
    "kinetic_term",
    "geometric_phase",
    "path_velocities",
]


@dataclass(frozen=True)
class OneForm:
    """Coefficients of kappa in the (dphi, dtheta, dpsi) basis at a point."""

    k_phi: float
    k_theta: float
    k_psi: float

    def contract(self, omega_dot) -> float | np.ndarray:
        """kappa(omega_dot): a float for one velocity, an array of shape
        (...) for a (..., 3) stack.  Raises TypeError, NotFinite or
        LengthMismatch for a bad omega_dot, and NumericalFailure when a
        finite velocity overflows the result, as kinetic_term does."""
        omega_dot = _velocity(omega_dot, "omega_dot")
        dphi, dtheta, dpsi = np.moveaxis(omega_dot, -1, 0)
        with np.errstate(over="ignore", invalid="ignore"):
            k = self.k_phi * dphi + self.k_theta * dtheta + self.k_psi * dpsi
        return _finite_kinetic(k, omega_dot)


@dataclass(frozen=True)
class TwoForm:
    """Coefficients of d(kappa) = w_theta_phi dtheta^dphi
    + w_phi_psi dphi^dpsi + w_psi_theta dpsi^dtheta."""

    w_theta_phi: float
    w_phi_psi: float
    w_psi_theta: float


@dataclass(frozen=True)
class GaugePotential:
    """Components of kappa along the orthonormal frame of the metric
    ds^2 = (1/4)[dt^2 + cos^2(t/2) dxi^2 + sin^2(t/2) deta^2] in the
    orthogonal coordinates xi = phi + psi, eta = phi - psi:

        kappa = a_theta (1/2) dt + a_xi (1/2) cos(t/2) dxi
                + a_eta (1/2) sin(t/2) deta.
    """

    a_theta: float
    a_xi: float
    a_eta: float


def _velocity(value, name: str, length: int = 3, dtype=float) -> np.ndarray:
    """value as an array with a last axis of the given length, checked
    finite: LengthMismatch quoting the shape given, or NotFinite naming the
    argument.  A complex value where dtype is float raises TypeError naming
    the argument, where a cast would drop its imaginary part.  Every
    velocity argument of a kinetic term enters here."""
    v = np.asarray(value)
    if dtype is float and np.iscomplexobj(v):
        raise TypeError(f"{name} must be real, got complex entries: {v.tolist()}")
    v = np.asarray(v, dtype=dtype)
    if v.shape[-1:] != (length,):
        raise LengthMismatch(f"{name} needs a last axis of length {length}, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise NotFinite(f"{name} holds a NaN or infinite entry: {v.tolist()}")
    return v


def _body_velocity(theta, psi, omega_dot: np.ndarray) -> tuple:
    """omega_body = (dtheta sin psi - dphi sin t cos psi, dtheta cos psi +
    dphi sin t sin psi, dphi cos t + dpsi) of g = su2_matrix(phi, theta, psi)
    moving with (dphi, dtheta, dpsi) = omega_dot[..., :], as three
    components that broadcast over theta, psi and omega_dot[..., 0]."""
    dphi, dtheta, dpsi = np.moveaxis(omega_dot, -1, 0)
    st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(psi), np.cos(psi)
    return dtheta * sp - dphi * st * cp, dtheta * cp + dphi * st * sp, dphi * ct + dpsi


def kinetic_term(fv: FiducialVector, omega, omega_dot) -> float | np.ndarray:
    """<Omega| i d/dt |Omega> = n_fv . omega_body at the angles given (raw
    angles are not folded): a float for one point, an array of shape (...)
    for (..., 3) stacks of points or velocities that broadcast.  Raises
    NotFinite or LengthMismatch for a bad omega_dot, and NumericalFailure
    when a finite velocity overflows the result."""
    _, theta, psi = _angles_of(omega)
    omega_dot = _velocity(omega_dot, "omega_dot")
    x, y, z = _spin_vector(fv)
    with np.errstate(over="ignore", invalid="ignore"):
        w1, w2, w3 = _body_velocity(theta, psi, omega_dot)
        k = x * w1 + y * w2 + z * w3
    return _finite_kinetic(k, omega_dot)


def _finite_kinetic(k, omega_dot: np.ndarray) -> float | np.ndarray:
    """k as a float for one velocity or an array for a stack, or
    NumericalFailure naming omega_dot unless every entry is finite."""
    if not np.isfinite(k).all():
        raise NumericalFailure(f"the kinetic term overflows at omega_dot {omega_dot.tolist()}")
    return float(k) if np.ndim(k) == 0 else k


def one_form(fv: FiducialVector, omega) -> OneForm:
    """kappa at a point: kinetic_term on the three unit velocities."""
    return OneForm(*kinetic_term(fv, omega, np.eye(3)).tolist())


def two_form(fv: FiducialVector, omega) -> TwoForm:
    """d kappa(u, v) = -n_fv . (omega_u x omega_v) by Maurer-Cartan, for the
    body velocities omega_u of unit coordinate steps:

        omega_theta x omega_phi = (cos t cos psi, -cos t sin psi, sin t),
        omega_phi x omega_psi   = sin t (sin psi, cos psi, 0),
        omega_psi x omega_theta = (-cos psi, sin psi, 0).
    """
    _, theta, psi = _angles_of(omega)
    x, y, z = _spin_vector(fv)
    st, ct, sp, cp = math.sin(theta), math.cos(theta), math.sin(psi), math.cos(psi)
    return TwoForm(-(z * st + ct * (x * cp - y * sp)), -st * (x * sp + y * cp), x * cp - y * sp)


def gauge_potential(fv: FiducialVector, theta: float, xi: float, eta: float) -> GaugePotential:
    """Frame components of kappa in orthogonal coordinates: n_fv against the
    body velocities of the frame 2 d_theta, 2 d_xi / cos(t/2) and
    2 d_eta / sin(t/2), psi = (xi - eta)/2.  The frame factors cancel the
    monopole divergence, so all three stay finite at theta = 0 and pi for
    every fiducial vector.  Raises NotFinite for a NaN or infinite angle.
    """
    if not (math.isfinite(theta) and math.isfinite(xi) and math.isfinite(eta)):
        raise NotFinite(f"(theta, xi, eta) = ({theta}, {xi}, {eta}) must be finite")
    x, y, z = _spin_vector(fv)
    psi = 0.5 * xi - 0.5 * eta
    ch, sh, sp, cp = math.cos(0.5 * theta), math.sin(0.5 * theta), math.sin(psi), math.cos(psi)
    return GaugePotential(2.0 * (x * sp + y * cp), 2.0 * (z * ch - sh * (x * cp - y * sp)),
                          -2.0 * (z * sh + ch * (x * cp - y * sp)))


def path_velocities(path: np.ndarray) -> np.ndarray:
    """Finite-difference velocities (dphi, dtheta, dpsi)/dt for a sampled
    path of rows (t, phi, theta, psi): second-order central differences in
    the interior and second-order one-sided differences at the ends.

    Angles must be sampled as continuous (unwrapped) floats.  Raises
    NotFinite, naming the first such row, for a non-finite time or angle,
    TimesNotMonotone unless the times strictly increase or strictly
    decrease (a repeated time would be a zero step), and NumericalFailure,
    naming the first such row, for a velocity that overflows.
    """
    path = np.asarray(path, dtype=float)
    if path.ndim != 2 or path.shape[1] != 4 or path.shape[0] < 2:
        raise PathTooShort(f"need at least 2 samples of (t, phi, theta, psi), got {path.shape}")
    bad = np.flatnonzero(~np.isfinite(path).all(axis=1))
    if bad.size:
        raise NotFinite(f"path row {bad[0]} is not finite: {path[bad[0]].tolist()}")
    t = path[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        dt = np.diff(t)
        if not (np.all(dt > 0) or np.all(dt < 0)):
            raise TimesNotMonotone(f"sample times must be strictly monotone, got {t.tolist()}")
        edge = 2 if path.shape[0] > 2 else 1
        vel = np.column_stack([np.gradient(path[:, k], t, edge_order=edge)
                               for k in (1, 2, 3)])
    bad = np.flatnonzero(~np.isfinite(vel).all(axis=1))
    if bad.size:
        raise NumericalFailure(f"the velocity at path row {bad[0]} overflows: "
                               f"{vel[bad[0]].tolist()}")
    return vel


def _trapezoid(y: np.ndarray, t: np.ndarray) -> float:
    """np.trapezoid(y, t) with each pair of samples halved before the sum,
    which rounds the same but overflows only where a step's area does."""
    return float(np.sum(np.diff(t) * (0.5 * y[1:] + 0.5 * y[:-1])))


def geometric_phase(fv: FiducialVector, path: np.ndarray) -> float:
    """integral of kappa along a sampled path: composite trapezoid of the
    kinetic term with finite-difference velocities, kinetic_term evaluated
    at all rows (raw angles, unfolded) in one stacked call.

    The raw line integral is returned (no 2pi reduction): for a closed
    latitude loop at fixed theta it converges to the enclosed-flux value,
    e.g. 2 pi m cos(theta) for a single-m fiducial vector.

    Raises PathTooShort for fewer than two samples, NotFinite for a
    non-finite row, TimesNotMonotone unless the times are strictly
    monotone, and NumericalFailure when a velocity, a kinetic term or the
    integral overflows.
    """
    path = np.asarray(path, dtype=float)
    vel = path_velocities(path)
    with np.errstate(over="ignore", invalid="ignore"):
        phase = _trapezoid(kinetic_term(fv, path[:, 1:], vel), path[:, 0])
    if not math.isfinite(phase):
        raise NumericalFailure(f"the geometric phase overflows to {phase}")
    return phase
