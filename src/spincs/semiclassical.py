"""Variational equations of motion for the coherent-state label, on SU(2).

|Omega> = R(g)|Psi0> moves with its spin-1/2 element g as g' = (-i xi.sigma/2) g,
xi the lab angular velocity, so d|Omega>/dt = -i xi.S |Omega>.  With
v = |Omega>, x_k = S_k v and y = H(t) v, the state gives n = Re<x, v> = <S>,
the lab gradient G = -2 Im<x, y> of <H> and M_jk = Re<x_j, x_k>.  As
kappa(xi) = n . xi, the action of hbar kappa - <H> is stationary when
hbar (n x xi) = G, a system of rank 2 unless n = 0 that is consistent only
when G . n = 0: for single-m fiducial vectors (rotations about n are phases)
and H of degree <= 1, but generically not for dense fiducial vectors with
terms of degree >= 2.  Its solutions are (G x n) / (hbar |n|^2) = xi_perp
plus lambda n-hat; McLachlan's least squares (Mol. Phys. 8:39, 1964) fixes
lambda = n-hat . (Re<x, y> - hbar M xi_perp) / (hbar n-hat . M n-hat), the
minimizer of ||(i hbar d/dt - H)|Omega>||, phase included, and n-hat . M
n-hat >= |n|^2 > 0.  When n_fv = 0, so n = 0, xi = pinv(hbar M) Re<x, y>.
"""

from dataclasses import dataclass
import math

import numpy as np

from .coherent import FiducialVector
from .errors import InconsistentSystem, LengthMismatch, NotFinite, _check_hbar, _finite
from .propagator import HamiltonianSpec, hamiltonian_matrix, _check_spin
from .spin_core import _cayley_klein, _euler_of, _ladder, _point_of, _rotate

_CONSISTENCY_REL = 1e-8
_RANK_TOL = 1e-10
# per unit of dim * max(1, s) * ||H(t)||_F; residuals at equilibria reached 0.42 eps
_ROUNDOFF = 64 * np.finfo(float).eps
# rows S1 = (S+ + S-)/2, S2 = (S+ - S-)/2i and S3 from the rows S+, S-, S3
_CARTESIAN = np.array([[0.5, 0.5, 0.0], [-0.5j, 0.5j, 0.0], [0.0, 0.0, 1.0]])


@dataclass
class VelocitySystem:
    """hbar (n x xi) = gradient at one point, with the fit Re<x, y>, metric M
    and energy <H> of the module docstring.  rank is 2 when hbar |n| > 1e-10
    max(1, hbar max|n_k|), else 0; roundoff = 64 eps dim max(1, s) ||H(t)||_F
    is the consistency floor; solve_velocities fills in residual."""

    n: np.ndarray
    gradient: np.ndarray
    fit: np.ndarray
    metric: np.ndarray
    hbar: float
    energy: float
    roundoff: float
    residual: float = None

    @property
    def rank(self) -> int:
        hbar_n = (self.hbar * self.n).tolist()
        return 2 if math.hypot(*hbar_n) > _RANK_TOL * max(1.0, *map(abs, hbar_n)) else 0


def h_gradient(fv: FiducialVector, spec: HamiltonianSpec, omega, t: float = 0.0):
    """Gradient of <Omega|H(t)|Omega> in (phi, theta, psi), exact for every
    spec: the lab angular velocities of unit steps, z, (-sin phi, cos phi, 0)
    and (sin t cos phi, sin t sin phi, cos t), dotted into the lab gradient G
    of build_system, at the raw angles given."""
    phi, theta, _ = _point_of(omega)
    g1, g2, g3 = build_system(fv, spec, omega, t).gradient.tolist()
    cp, sp, ct, st = math.cos(phi), math.sin(phi), math.cos(theta), math.sin(theta)
    return np.array([g3, cp * g2 - sp * g1, st * (cp * g1 + sp * g2) + ct * g3])


def build_system(fv: FiducialVector, spec: HamiltonianSpec, omega, t: float = 0.0,
                 hbar: float = 1.0) -> VelocitySystem:
    """Velocity system at (omega, t) from one state at the raw angles given,
    x from the ladder with no matrix built.  LengthMismatch unless the spec's
    spin is the fiducial's; NotFinite or ValueError for a bad hbar."""
    _check_hbar(hbar)
    _check_spin(fv, spec)
    v = _rotate(fv.spin.two_s, *_point_of(omega), fv.coeffs)
    f = _ladder(fv.spin.two_s)
    ladder = np.zeros((3, fv.spin.dim), complex)
    ladder[0, :-1], ladder[1, 1:], ladder[2] = f * v[1:], f * v[:-1], fv.spin.m_values() * v
    x, h = _CARTESIAN @ ladder, hamiltonian_matrix(spec, t)
    xc, y = x.conj(), h @ v
    xy = xc @ y
    return VelocitySystem((xc @ v).real, -2.0 * xy.imag, xy.real, (xc @ x.T).real, hbar,
                          float(np.vdot(v, y).real), _ROUNDOFF * fv.spin.dim
                          * max(1.0, 0.5 * fv.spin.two_s) * math.sqrt(np.vdot(h, h).real))


def solve_velocities(sys: VelocitySystem) -> np.ndarray:
    """xi = xi_perp + lambda n-hat, or pinv(hbar M) Re<x, y> at rank 0.
    Sets sys.residual to |G . n-hat| (|G| at rank 0), and raises
    InconsistentSystem when it exceeds 1e-8 |G| + sys.roundoff, the floor
    that keeps equilibria consistent."""
    n, g, hbar = sys.n, sys.gradient, sys.hbar
    nn, g_norm, rank = float(n @ n), math.sqrt(g @ g), sys.rank
    sys.residual = abs(float(g @ n)) / math.sqrt(nn) if rank else g_norm
    bound = _CONSISTENCY_REL * g_norm + sys.roundoff
    if not sys.residual <= bound:
        raise InconsistentSystem(f"velocity system residual {sys.residual:.3e} exceeds "
                                 f"{_CONSISTENCY_REL:g}*||G|| + {sys.roundoff:.3e} = {bound:.3e}")
    if not rank:
        return np.linalg.lstsq(hbar * sys.metric, sys.fit, rcond=_RANK_TOL)[0]
    xi = _cross(g, n) / (hbar * nn)
    m_n = sys.metric @ n
    # lambda n-hat, with the norms of n cancelled
    return xi + float(n @ sys.fit - hbar * (m_n @ xi)) / (hbar * float(n @ m_n)) * n


@dataclass
class Trajectory:
    """RKMK4 samples: path rows (t, phi, theta, psi) read from the stepped
    elements' Cayley-Klein pairs (a, b), energies H(Omega(t), t), per-sample
    ranks and residuals, and error_estimate, the rotation angle
    2 max|d(a, b)| between the endpoints of this run and a half-step rerun."""

    path: np.ndarray
    energies: np.ndarray
    ranks: np.ndarray
    residuals: np.ndarray
    error_estimate: float
    elements: np.ndarray


def _cross(u, w) -> np.ndarray:
    """u x w, also the Lie bracket of su(2) on xi vectors."""
    (u1, u2, u3), (w1, w2, w3) = u.tolist(), w.tolist()
    return np.array([u2 * w3 - u3 * w2, u3 * w1 - u1 * w3, u1 * w2 - u2 * w1])


def _exp_times(w, g) -> tuple:
    """exp(-i w.sigma/2) g on pairs, exp as (cos(|w|/2) - i s w3, s (w2 - i w1))."""
    w1, w2, w3 = w.tolist()
    angle = math.sqrt(w1 * w1 + w2 * w2 + w3 * w3)
    s = 0.5 if angle == 0.0 else math.sin(0.5 * angle) / angle
    alpha, beta = complex(math.cos(0.5 * angle), -s * w3), complex(s * w2, -s * w1)
    return alpha * g[0] - beta.conjugate() * g[1], beta * g[0] + alpha.conjugate() * g[1]


def _solve_at(fv, spec, g, t, hbar):
    """(xi, solved VelocitySystem) at the element g and time t."""
    try:
        sys = build_system(fv, spec, _euler_of(*g), t, hbar)
        return solve_velocities(sys), sys
    except InconsistentSystem as exc:
        raise InconsistentSystem(f"at t={t:.6g}: {exc}") from None


def _stage(fv, spec, g, u, t, hbar) -> np.ndarray:
    """dexp_u^-1 of xi at (exp(u) g, t), to the O(|u|^4) that fourth order
    needs: k - [u, k]/2 + [u, [u, k]]/12 (the next term has B_3 = 0)."""
    k = _solve_at(fv, spec, _exp_times(u, g), t, hbar)[0]
    uk = _cross(u, k)
    return k - 0.5 * uk + _cross(u, uk) / 12.0


def _rkmk4_path(fv, spec, g, t0, t1, n_steps, hbar, record=True):
    dt = (t1 - t0) / n_steps
    samples = []
    for j in range(n_steps + 1 if record else n_steps):
        t = t0 + j * dt
        k1, sys = _solve_at(fv, spec, g, t, hbar)
        if record:
            samples.append((t, g, sys))
        if j == n_steps:
            break
        k2 = _stage(fv, spec, g, 0.5 * dt * k1, t + 0.5 * dt, hbar)
        k3 = _stage(fv, spec, g, 0.5 * dt * k2, t + 0.5 * dt, hbar)
        k4 = _stage(fv, spec, g, dt * k3, t + dt, hbar)
        a, b = _exp_times((dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4), g)
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        g = (a / norm, b / norm)
    return samples, g


def integrate_trajectory(fv: FiducialVector, spec: HamiltonianSpec, omega0,
                         t_span, dt: float, hbar: float = 1.0) -> Trajectory:
    """Fixed-step RKMK4 (Munthe-Kaas, BIT 38:92, 1998) on g' = (-i xi.sigma/2) g
    over t_span from omega0 (EulerAngles or a raw triple), with closed-form
    exponentials, so every static H of degree <= 1 is integrated exactly.
    Every row, row 0 included, is read from its element g by _euler_of
    (theta in [0, pi]), with arg a = -(phi + psi)/2 and arg b = (phi - psi)/2
    unwrapped from row 0's, so phi and psi stay continuous and on the sheet
    of g, and _cayley_klein of a row rebuilds its element.

    A reversed span (t1 < t0) integrates backward, with steps no longer than
    dt.  InconsistentSystem names the failure time, NotFinite a NaN or
    infinite omega0, t_span, dt or hbar, LengthMismatch a stack as omega0
    or a t_span of other than two times; dt <= 0 or hbar <= 0 raises
    ValueError.
    """
    try:
        g0 = _cayley_klein(*_point_of(omega0))
    except (NotFinite, LengthMismatch) as exc:
        raise type(exc)(f"omega0: {exc}") from None
    t0, t1 = _finite("t_span", t_span, length=2).tolist()
    if _finite("dt", dt) <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n_steps = max(1, int(np.ceil(abs(t1 - t0) / dt - 1e-12)))
    samples, (a, b) = _rkmk4_path(fv, spec, g0, t0, t1, n_steps, hbar)
    _, (a_half, b_half) = _rkmk4_path(fv, spec, g0, t0, t1, 2 * n_steps, hbar, record=False)
    times, elements, systems = zip(*samples)
    phi, theta, psi = np.array([_euler_of(*g) for g in elements]).T
    arg_a, arg_b = np.unwrap(-0.5 * phi - 0.5 * psi), np.unwrap(0.5 * phi - 0.5 * psi)
    path = np.column_stack([times, arg_b - arg_a, theta, -arg_a - arg_b])
    energies, ranks, residuals = (np.array([getattr(sys, name) for sys in systems])
                                  for name in ("energy", "rank", "residual"))
    return Trajectory(path, energies, ranks, residuals,
                      2.0 * max(abs(a - a_half), abs(b - b_half)), np.array(elements))
