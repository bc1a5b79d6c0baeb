"""Variational equations of motion for the coherent-state label Omega(t).

Stationarity of the action integral of hbar*kinetic_term - <H> gives a
linear system for the angular velocities,

    hbar * [[C,          0,   a1        ],     [[dphi  ],    [[-dH/dtheta],
            [0,          C,   -a4 sin(theta)],  [dtheta],  =  [ dH/dphi  ],
            [a4 sin(theta), a1, 0        ]]     [dpsi  ]]     [ dH/dpsi  ]]

with C = a0 sin(theta) + a1 cos(theta) and a1, a4 evaluated at (fv, Omega).
The gradient is exact for every Hamiltonian (h_gradient): dH/dk =
2 Re <d_k Omega|H(t)|Omega>, where d_phi = -i S3 and d_theta =
-i e^{-i phi S3} S2 e^{i phi S3} act on |Omega>, and d_psi |Omega> =
-i R(Omega) S3 |Psi0>.  The coefficient matrix is the contraction of the
closed two-form of the kinetic one-form, so after reordering rows to
(phi, theta, psi) and flipping the theta row it is antisymmetric
(VelocitySystem.antisymmetric).  An odd-dimensional antisymmetric matrix is
always singular: the generic rank is 2, with kernel direction
(-a1, a4 sin(theta), C), so the system is solvable only when the gradient
of H annihilates that kernel.  It does for single-m fiducial vectors (psi
shifts are pure phases, so dH/dpsi = 0) and for every H of monomial degree
<= 1 (linear generators move coherent states rigidly along group orbits);
a multi-component fiducial vector with degree >= 2 terms generically admits
no velocity, which solve_velocities reports as InconsistentSystem.
Solutions are unique only up to the kernel flow; the minimum-norm
least-squares representative is returned, never a direct inverse.
"""

from dataclasses import dataclass, field

import numpy as np

from .coherent import FiducialVector, matrix_elements
from .errors import InconsistentSystem
from .propagator import HamiltonianSpec, hamiltonian_matrix, _monomial_matrix
from .spin_core import _angles_of, _rotate

_CONSISTENCY_REL = 1e-8
_RANK_TOL = 1e-10


@dataclass
class VelocitySystem:
    """Linear system m @ (dphi, dtheta, dpsi) = b at one phase-space point.

    rank is the numerical rank of m; residual is filled in by
    solve_velocities with ||m @ omega_dot - b|| for the returned solution.
    energy is <Omega|H(t)|Omega>, filled in by build_system from the state
    and H(t) that give b.
    """

    m: np.ndarray
    b: np.ndarray
    rank: int
    residual: float = None
    energy: float = field(default=None, init=False)

    def antisymmetric(self) -> np.ndarray:
        """Rows reordered to (phi, theta, psi) with the theta row negated;
        equals the kinetic two-form contraction and satisfies w.T == -w."""
        return np.array([self.m[1], -self.m[0], self.m[2]])


@dataclass(frozen=True)
class SolveDiagnostics:
    rank: int
    residual: float
    consistent: bool


def h_gradient(fv: FiducialVector, spec: HamiltonianSpec, omega, t: float = 0.0):
    """Gradient of H(Omega, t) = <Omega|H(t)|Omega> in (phi, theta, psi),
    exact for every spec: dH/dk = 2 Re <d_k Omega|H(t)|Omega> with

        d_phi |Omega>   = -i S3 |Omega>,
        d_theta |Omega> = -(e^{-i phi} S+ - e^{i phi} S-)/2 |Omega>,
        d_psi |Omega>   = -i R(Omega) S3 |Psi0>.

    Raw angles are fine: the state and R(Omega) S3 |Psi0> are rotated at
    the raw angles, in one call on the stacked rows [c, m c].
    """
    return _gradient_and_energy(fv, spec, omega, t)[0]


def _gradient_and_energy(fv, spec, omega, t):
    """(h_gradient, <Omega|H(t)|Omega>) from one state and one H(t)."""
    phi, theta, psi = _angles_of(omega)
    m = 0.5 * fv.spin.two_m_values()
    v, r_mc = _rotate(fv.spin.two_s, phi, theta, psi, np.stack([fv.coeffs, m * fv.coeffs]))
    sp_phi = np.exp(-1j * phi) * _monomial_matrix(fv.spin.two_s, 1, 0, 0)
    derivs = np.array([-1j * m * v, -0.5 * ((sp_phi - sp_phi.conj().T) @ v), -1j * r_mc])
    hv = hamiltonian_matrix(spec, t) @ v
    return 2.0 * np.real(derivs.conj() @ hv), float(np.vdot(v, hv).real)


def build_system(fv: FiducialVector, spec: HamiltonianSpec, omega, t: float = 0.0,
                 hbar: float = 1.0) -> VelocitySystem:
    """Velocity system at (omega, t); omega may be raw angles (continuous
    paths are kept unwrapped, the coefficients are 2pi-periodic anyway)."""
    theta = _angles_of(omega)[1]
    _, _, mes = matrix_elements(fv, omega)
    sin_t = np.sin(theta)
    c = mes.a0 * sin_t + mes.a1 * np.cos(theta)
    m = hbar * np.array([[c, 0.0, mes.a1],
                         [0.0, c, -mes.a4 * sin_t],
                         [mes.a4 * sin_t, mes.a1, 0.0]])
    grad, energy = _gradient_and_energy(fv, spec, omega, t)
    b = np.array([-grad[1], grad[0], grad[2]])
    rank = int(np.linalg.matrix_rank(m, tol=_RANK_TOL * max(1.0, np.abs(m).max())))
    sys = VelocitySystem(m=m, b=b, rank=rank)
    sys.energy = energy
    return sys


def solve_velocities(sys: VelocitySystem):
    """Minimum-norm least-squares velocities (omega_dot, diagnostics).

    Raises InconsistentSystem when ||m @ omega_dot - b|| > 1e-8 ||b||,
    meaning b has a component outside the column space of m: the fiducial
    vector and Hamiltonian admit no velocity at this point.  Degenerate but
    consistent systems (the generic single-m case, rank 2) are fine and the
    undetermined component is returned as 0 (minimum norm).
    """
    omega_dot = np.linalg.lstsq(sys.m, sys.b, rcond=None)[0]
    residual = float(np.linalg.norm(sys.m @ omega_dot - sys.b))
    sys.residual = residual
    bound = _CONSISTENCY_REL * np.linalg.norm(sys.b)
    if not residual <= bound:
        raise InconsistentSystem(f"velocity system residual {residual:.3e} exceeds "
                                 f"{_CONSISTENCY_REL:g} * ||b|| = {bound:.3e}")
    return omega_dot, SolveDiagnostics(sys.rank, residual, True)


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
    """(omega_dot, diagnostics, energy) at (omega, t)."""
    try:
        sys = build_system(fv, spec, omega, t, hbar)
        return (*solve_velocities(sys), sys.energy)
    except InconsistentSystem as exc:
        raise InconsistentSystem(f"at t={t:.6g}: {exc}") from None


def _rk4_path(fv, spec, omega0, t0, t1, n_steps, hbar, record=True):
    dt = (t1 - t0) / n_steps
    y = np.asarray(omega0, dtype=float).copy()
    rows, energies, ranks, residuals = [], [], [], []
    for j in range(n_steps + 1 if record else n_steps):
        t = t0 + j * dt
        k1, diag, energy = _solve_at(fv, spec, y, t, hbar)
        if record:
            rows.append((t, y[0], y[1], y[2]))
            energies.append(energy)
            ranks.append(diag.rank)
            residuals.append(diag.residual)
        if j == n_steps:
            break
        k2 = _solve_at(fv, spec, y + 0.5 * dt * k1, t + 0.5 * dt, hbar)[0]
        k3 = _solve_at(fv, spec, y + 0.5 * dt * k2, t + 0.5 * dt, hbar)[0]
        k4 = _solve_at(fv, spec, y + dt * k3, t + dt, hbar)[0]
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return np.array(rows), np.array(energies), np.array(ranks), np.array(residuals), y


def integrate_trajectory(fv: FiducialVector, spec: HamiltonianSpec, omega0,
                         t_span, dt: float, hbar: float = 1.0) -> Trajectory:
    """Fixed-step RK4 integration of the velocity system over t_span.

    A reversed span (t1 < t0) integrates backward, with steps no longer
    than dt either way.  Angles evolve as raw unwrapped floats.  The error estimate is the
    maximum endpoint angle deviation against an integration with half the
    step.  InconsistentSystem aborts with the failure time in the message.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n_steps = max(1, int(np.ceil(abs(t1 - t0) / dt - 1e-12)))
    path, energies, ranks, residuals, y_end = _rk4_path(
        fv, spec, omega0, t0, t1, n_steps, hbar)
    *_, y_half = _rk4_path(fv, spec, omega0, t0, t1, 2 * n_steps, hbar, record=False)
    return Trajectory(path, energies, ranks, residuals,
                      error_estimate=float(np.abs(y_end - y_half).max()))
