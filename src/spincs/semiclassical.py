"""Variational equations of motion for the coherent-state label Omega(t).

Stationarity of the action integral of hbar*kinetic_term - <H> gives a
linear system for the angular velocities whose matrix is hbar d(kappa), the
kinetic two-form of geometry.two_form with components w_tp = w_theta_phi,
w_pp = w_phi_psi and w_pt = w_psi_theta:

    hbar * [[-w_tp,  0,     w_pt],     [[dphi  ],    [[-dH/dtheta],
            [0,     -w_tp,  w_pp],      [dtheta],  =  [ dH/dphi  ],
            [-w_pp,  w_pt,  0   ]]      [dpsi  ]]     [ dH/dpsi  ]]

with the exact gradient of h_gradient.  Reordered to rows (phi, theta, psi)
with the theta row negated (VelocitySystem.antisymmetric), the system is
the cross product hbar (omega_dot x n) = grad H with the kernel vector
n = -(w_pt, w_pp, w_tp) of VelocitySystem.kernel.  Since d kappa(u, v) =
-n_fv . (omega_u x omega_v), the components of n are the fiducial vector's
spin vector n_fv against the body-frame cross products omega_psi x
omega_theta, omega_phi x omega_psi and omega_theta x omega_phi.  Both
nonzero singular values are hbar |n|, so the rank is 2 unless n = 0, and a
velocity exists only when grad H annihilates n.  It does for single-m
fiducial vectors (psi shifts are pure phases, so dH/dpsi = 0) and for every
H of monomial degree <= 1 (linear generators move coherent states rigidly
along group orbits); a multi-component fiducial vector with degree >= 2
terms generically admits none, which solve_velocities reports as
InconsistentSystem.  The minimum-norm velocity, (n x grad H) / (hbar |n|^2),
is returned; the component along n is left undetermined.
"""

from dataclasses import dataclass, field

import numpy as np

from .coherent import FiducialVector
from .errors import InconsistentSystem, LengthMismatch, NotFinite
from .geometry import two_form
from .propagator import (HamiltonianSpec, hamiltonian_matrix, _check_hbar, _check_spin,
                         _monomial_matrix)
from .spin_core import _angles_of, _point_of, _rotate

_CONSISTENCY_REL = 1e-8
_RANK_TOL = 1e-10
# per unit of dim * max(1, s) * ||H(t)||_F; residuals at equilibria reached 0.42 eps
_ROUNDOFF = 64 * np.finfo(float).eps


@dataclass
class VelocitySystem:
    """Linear system m @ (dphi, dtheta, dpsi) = b at one phase-space point.

    rank is 2 when hbar |n| > 1e-10 max(1, max|m|), else 0.  build_system
    fills in energy = <Omega|H(t)|Omega> and the consistency floor roundoff
    = 64 eps dim max(1, s) ||H(t)||_F; solve_velocities fills in residual.
    """

    m: np.ndarray
    b: np.ndarray
    rank: int
    residual: float = None
    energy: float = field(default=None, init=False)
    roundoff: float = field(default=None, init=False)

    def antisymmetric(self) -> np.ndarray:
        """Rows reordered to (phi, theta, psi) with the theta row negated;
        equals the kinetic two-form contraction and satisfies w.T == -w."""
        return np.array([self.m[1], -self.m[0], self.m[2]])

    def kernel(self) -> np.ndarray:
        """hbar * n, so that antisymmetric() @ x == np.cross(x, kernel())."""
        return np.array([-self.m[0, 2], self.m[2, 0], self.m[0, 0]])


def h_gradient(fv: FiducialVector, spec: HamiltonianSpec, omega, t: float = 0.0):
    """Gradient of H(Omega, t) = <Omega|H(t)|Omega> in (phi, theta, psi),
    exact for every spec: dH/dk = 2 Re <d_k Omega|H(t)|Omega> with

        d_phi |Omega>   = -i S3 |Omega>,
        d_theta |Omega> = -(e^{-i phi} S+ - e^{i phi} S-)/2 |Omega>,
        d_psi |Omega>   = -i R(Omega) S3 |Psi0>.

    Raw angles are fine: the state and R(Omega) S3 |Psi0> are rotated at
    the raw angles, in one call on the stacked rows [c, m c].  Raises
    LengthMismatch unless the spec's spin is the fiducial's, as do
    build_system and integrate_trajectory, which evaluate it.
    """
    return _gradient_and_energy(fv, spec, omega, t)[0]


def _gradient_and_energy(fv, spec, omega, t):
    """(h_gradient, <Omega|H(t)|Omega>, ||H(t)||_F) from one state and H(t)."""
    _check_spin(fv, spec)
    phi, theta, psi = _angles_of(omega)
    m = 0.5 * fv.spin.two_m_values()
    v, r_mc = _rotate(fv.spin.two_s, phi, theta, psi, np.stack([fv.coeffs, m * fv.coeffs]))
    sp_phi = np.exp(-1j * phi) * _monomial_matrix(fv.spin.two_s, 1, 0, 0)
    derivs = np.array([-1j * m * v, -0.5 * ((sp_phi - sp_phi.conj().T) @ v), -1j * r_mc])
    h = hamiltonian_matrix(spec, t)
    hv = h @ v
    return 2.0 * np.real(derivs.conj() @ hv), float(np.vdot(v, hv).real), np.linalg.norm(h)


def build_system(fv: FiducialVector, spec: HamiltonianSpec, omega, t: float = 0.0,
                 hbar: float = 1.0) -> VelocitySystem:
    """Velocity system at (omega, t); omega may be raw angles (continuous
    paths are kept unwrapped, the coefficients are 2pi-periodic anyway).
    A non-finite hbar raises NotFinite, hbar <= 0 ValueError."""
    _check_hbar(hbar)
    w = two_form(fv, omega)
    tp, pp, pt = w.w_theta_phi, w.w_phi_psi, w.w_psi_theta
    m = hbar * np.array([[-tp, 0.0, pt],
                         [0.0, -tp, pp],
                         [-pp, pt, 0.0]])
    grad, energy, h_norm = _gradient_and_energy(fv, spec, omega, t)
    sys = VelocitySystem(m=m, b=np.array([-grad[1], grad[0], grad[2]]), rank=0)
    hbar_n = sys.kernel()
    sys.rank = 2 if np.linalg.norm(hbar_n) > _RANK_TOL * max(1.0, np.abs(hbar_n).max()) else 0
    sys.energy = energy
    sys.roundoff = _ROUNDOFF * fv.spin.dim * max(1.0, 0.5 * fv.spin.two_s) * h_norm
    return sys


def solve_velocities(sys: VelocitySystem) -> np.ndarray:
    """Minimum-norm velocities (n x grad H) / (hbar |n|^2), 0 when n = 0.
    m is hbar times the cross product with n up to a signed row permutation,
    so its pseudo-inverse is m.T / (hbar |n|)^2, which is applied to b.

    Sets sys.residual to ||m @ omega_dot - b||, which is |grad H . n / |n||
    (||grad H|| when n = 0).  Raises InconsistentSystem when it exceeds
    1e-8 ||b|| + sys.roundoff, the floor that keeps equilibria consistent.
    """
    hbar_n = sys.kernel()
    grad = np.array([sys.b[1], -sys.b[0], sys.b[2]])
    nn = float(hbar_n @ hbar_n)
    sys.residual = (abs(float(hbar_n @ grad)) / np.sqrt(nn) if nn > 0.0
                    else float(np.linalg.norm(grad)))
    bound = _CONSISTENCY_REL * np.linalg.norm(sys.b) + sys.roundoff
    if not sys.residual <= bound:
        raise InconsistentSystem(f"velocity system residual {sys.residual:.3e} exceeds "
                                 f"{_CONSISTENCY_REL:g}*||b|| + {sys.roundoff:.3e} = {bound:.3e}")
    return sys.m.T @ sys.b / nn if nn > 0.0 else np.zeros(3)


@dataclass
class Trajectory:
    """RK4 solution samples: path rows are (t, phi, theta, psi), energies
    holds H(Omega(t), t), ranks/residuals the per-sample diagnostics, and
    error_estimate the max angle deviation against a half-step rerun."""

    path: np.ndarray
    energies: np.ndarray
    ranks: np.ndarray
    residuals: np.ndarray
    error_estimate: float = None


def _solve_at(fv, spec, omega, t, hbar):
    """(omega_dot, solved VelocitySystem) at (omega, t)."""
    try:
        sys = build_system(fv, spec, omega, t, hbar)
        return solve_velocities(sys), sys
    except InconsistentSystem as exc:
        raise InconsistentSystem(f"at t={t:.6g}: {exc}") from None


def _rk4_path(fv, spec, y, t0, t1, n_steps, hbar, record=True):
    dt = (t1 - t0) / n_steps
    rows, systems = [], []
    for j in range(n_steps + 1 if record else n_steps):
        t = t0 + j * dt
        k1, sys = _solve_at(fv, spec, y, t, hbar)
        if record:
            rows.append((t, y[0], y[1], y[2]))
            systems.append(sys)
        if j == n_steps:
            break
        k2 = _solve_at(fv, spec, y + 0.5 * dt * k1, t + 0.5 * dt, hbar)[0]
        k3 = _solve_at(fv, spec, y + 0.5 * dt * k2, t + 0.5 * dt, hbar)[0]
        k4 = _solve_at(fv, spec, y + dt * k3, t + dt, hbar)[0]
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return np.array(rows), systems, y


def integrate_trajectory(fv: FiducialVector, spec: HamiltonianSpec, omega0,
                         t_span, dt: float, hbar: float = 1.0) -> Trajectory:
    """Fixed-step RK4 integration of the velocity system over t_span from
    omega0, an EulerAngles or a raw (phi, theta, psi) triple.

    A reversed span (t1 < t0) integrates backward, with steps no longer than
    dt either way.  Angles evolve as raw unwrapped floats.  The error estimate
    is the maximum endpoint angle deviation against an integration with half
    the step.  InconsistentSystem aborts with the failure time in the message.
    NotFinite names a NaN or infinite omega0, t_span, dt or hbar,
    LengthMismatch a stack of points as omega0, and dt <= 0 or hbar <= 0
    raises ValueError.
    """
    try:
        y0 = np.array(_point_of(omega0))
    except (NotFinite, LengthMismatch) as exc:
        raise type(exc)(f"omega0: {exc}") from None
    t0, t1 = float(t_span[0]), float(t_span[1])
    for name, value in (("t_span", (t0, t1)), ("dt", dt)):
        if not np.isfinite(value).all():
            raise NotFinite(f"{name}={value} must be finite")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n_steps = max(1, int(np.ceil(abs(t1 - t0) / dt - 1e-12)))
    path, systems, y_end = _rk4_path(fv, spec, y0, t0, t1, n_steps, hbar)
    *_, y_half = _rk4_path(fv, spec, y0, t0, t1, 2 * n_steps, hbar, record=False)
    energies, ranks, residuals = (np.array([getattr(sys, name) for sys in systems])
                                  for name in ("energy", "rank", "residual"))
    return Trajectory(path, energies, ranks, residuals,
                      error_estimate=float(np.abs(y_end - y_half).max()))
