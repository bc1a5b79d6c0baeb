"""Geometric structure carried by a fiducial vector: the kinetic one-form,
its exterior derivative, orthogonal-coordinate gauge potentials, and
geometric phases along sampled paths.

The central object is the one-form

    kappa = a0 (cos t dphi + dpsi) - a1(psi) sin t dphi + a4(psi) dt,

whose contraction with a velocity is <Omega| i d/dt |Omega>.  For a
single-m fiducial vector kappa = m (cos t dphi + dpsi), the familiar
monopole form; superpositions switch on the a1/a4 terms, which have no
single-m analogue.
"""

from dataclasses import dataclass
import math

import numpy as np

from .coherent import FiducialVector, _structure_at
from .errors import NotFinite, PathTooShort, TimesNotMonotone
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

    def contract(self, omega_dot) -> float:
        dphi, dtheta, dpsi = (float(x) for x in omega_dot)
        return self.k_phi * dphi + self.k_theta * dtheta + self.k_psi * dpsi


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


def _kappa(fv: FiducialVector, theta, psi) -> np.ndarray:
    """kappa's coefficients (k_phi, k_theta, k_psi) = (a0 cos t - a1 sin t,
    a4, a0) at scalar or array (theta, psi) that broadcast: shape
    broadcast(theta, psi).shape + (3,)."""
    a0, a1, a4 = _structure_at(fv, psi)
    return np.stack(np.broadcast_arrays(a0 * np.cos(theta) - a1 * np.sin(theta), a4, a0),
                    axis=-1)


def one_form(fv: FiducialVector, omega) -> OneForm:
    """kappa at a point: k_phi = a0 cos t - a1 sin t, k_theta = a4,
    k_psi = a0."""
    _, theta, psi = _angles_of(omega)
    return OneForm(*(float(k) for k in _kappa(fv, theta, psi)))


def two_form(fv: FiducialVector, omega) -> TwoForm:
    """Exterior derivative of kappa.  Using a1' = -a4 and a4' = a1 (primes
    are psi-derivatives),

        d kappa = -[a0 sin t + a1 cos t] dt^dphi - a4 sin t dphi^dpsi
                  + a1 dpsi^dt.
    """
    _, theta, psi = _angles_of(omega)
    a0, a1, a4 = _structure_at(fv, psi)
    st, ct = math.sin(theta), math.cos(theta)
    return TwoForm(-(a0 * st + a1 * ct), -a4 * st, a1)


def gauge_potential(fv: FiducialVector, theta: float, xi: float, eta: float) -> GaugePotential:
    """Frame components of kappa in orthogonal coordinates:

        a_theta = 2 a4(psi),  a_xi = 2 a0 cos(t/2) - 2 a1 sin(t/2),
        a_eta = -2 a0 sin(t/2) - 2 a1 cos(t/2),   psi = (xi - eta)/2.

    All three stay finite at the coordinate degeneracies theta = 0 and pi
    for every fiducial vector (the divergence familiar from the monopole
    potential is absorbed by the frame factors).
    """
    a0, a1, a4 = _structure_at(fv, 0.5 * (xi - eta))
    ch, sh = math.cos(0.5 * theta), math.sin(0.5 * theta)
    return GaugePotential(2.0 * a4, 2.0 * (a0 * ch - a1 * sh), -2.0 * (a0 * sh + a1 * ch))


def kinetic_term(fv: FiducialVector, omega, omega_dot) -> float:
    """<Omega| i d/dt |Omega> = a0 (dphi cos t + dpsi) - a1 dphi sin t
    + a4 dtheta, the contraction of kappa with the Euler-angle velocity.

    ``omega`` may be an EulerAngles or a raw (phi, theta, psi) triple;
    the value is real and invariant under the 2pi/fold normalization as
    long as omega and omega_dot describe the same chart point.
    """
    return one_form(fv, omega).contract(omega_dot)


def path_velocities(path: np.ndarray) -> np.ndarray:
    """Finite-difference velocities (dphi, dtheta, dpsi)/dt for a sampled
    path of rows (t, phi, theta, psi): second-order central differences in
    the interior and second-order one-sided differences at the ends.

    Angles must be sampled as continuous (unwrapped) floats.  Raises
    NotFinite, naming the first such row, for a non-finite time or angle,
    and TimesNotMonotone unless the times strictly increase or strictly
    decrease: a repeated time would be a zero step.
    """
    path = np.asarray(path, dtype=float)
    if path.ndim != 2 or path.shape[1] != 4 or path.shape[0] < 2:
        raise PathTooShort(f"need at least 2 samples of (t, phi, theta, psi), got {path.shape}")
    bad = np.flatnonzero(~np.isfinite(path).all(axis=1))
    if bad.size:
        raise NotFinite(f"path row {bad[0]} is not finite: {path[bad[0]].tolist()}")
    t = path[:, 0]
    dt = np.diff(t)
    if not (np.all(dt > 0) or np.all(dt < 0)):
        raise TimesNotMonotone(f"sample times must be strictly monotone, got {t.tolist()}")
    edge = 2 if path.shape[0] > 2 else 1
    return np.column_stack([np.gradient(path[:, k], t, edge_order=edge)
                            for k in (1, 2, 3)])


def geometric_phase(fv: FiducialVector, path: np.ndarray) -> float:
    """integral of kappa along a sampled path: composite trapezoid of the
    kinetic term with finite-difference velocities, kappa evaluated at all
    rows (raw angles, unfolded) in one array call.

    The raw line integral is returned (no 2pi reduction): for a closed
    latitude loop at fixed theta it converges to the enclosed-flux value,
    e.g. 2 pi m cos(theta) for a single-m fiducial vector.

    Raises PathTooShort for fewer than two samples, NotFinite for a
    non-finite row and TimesNotMonotone unless the times are strictly
    monotone.
    """
    path = np.asarray(path, dtype=float)
    vel = path_velocities(path)
    vals = (_kappa(fv, path[:, 2], path[:, 3]) * vel).sum(axis=1)
    return float(np.trapezoid(vals, path[:, 0]))
