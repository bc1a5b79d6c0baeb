"""Reference computations made apart from spincs.

Nothing here imports the package under test.  Spin matrices come from the
textbook ladder formula, rotations from three scipy matrix exponentials,
propagators from ``expm`` (static H) or a tight DOP853 integration (driven
H), and displaced Fock states from ``expm`` on a generous truncation.  All
spin-side arrays use the m-descending basis (index 0 is m = +s), the order
the package documents.
"""

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm


@lru_cache(maxsize=None)
def spin_matrices(two_s):
    """(S3, S+, S-, S2) for spin two_s/2: S3 = diag(s, ..., -s) and
    <m+1|S+|m> = sqrt(s(s+1) - m(m+1))."""
    s = 0.5 * two_s
    m = s - np.arange(two_s + 1)
    s3 = np.diag(m).astype(complex)
    s_plus = np.zeros((two_s + 1, two_s + 1), dtype=complex)
    for i in range(1, two_s + 1):
        s_plus[i - 1, i] = np.sqrt(s * (s + 1) - m[i] * (m[i] + 1))
    s_minus = s_plus.conj().T
    s2 = (s_plus - s_minus) / 2j
    for a in (s3, s_plus, s_minus, s2):
        a.flags.writeable = False
    return s3, s_plus, s_minus, s2


def rotation(two_s, phi, theta, psi):
    """expm(-i phi S3) expm(-i theta S2) expm(-i psi S3); S3 is diagonal, so
    its exponentials are the diagonal phases exp(-i phi m)."""
    s3, _, _, s2 = spin_matrices(two_s)
    m = np.real(np.diag(s3))
    return np.exp(-1j * phi * m)[:, None] * expm(-1j * theta * s2) * np.exp(-1j * psi * m)


def coherent(coeffs, angles):
    """R(angles) @ coeffs for a normalized fiducial coefficient vector."""
    coeffs = np.asarray(coeffs, dtype=complex)
    return rotation(coeffs.size - 1, *angles) @ coeffs


def quadrature(two_s, oversample=1.2):
    """The product grid ``build_grid`` documents: Gauss-Legendre in
    cos(theta) with ceil(ov (two_s + 2)) nodes, uniform phi and psi with
    ceil(ov (2 two_s + 3)) nodes each.  Returns (theta, phi, psi, weights),
    the weights of the normalized measure (they sum to 2s + 1) flattened in
    (theta, phi, psi)-major order."""
    n_theta = math.ceil(oversample * (two_s + 2))
    n_ang = math.ceil(oversample * (2 * two_s + 3))
    x, w = np.polynomial.legendre.leggauss(n_theta)
    ang = 2.0 * math.pi * np.arange(n_ang) / n_ang
    cell = (two_s + 1) / (8.0 * math.pi ** 2) * (2.0 * math.pi / n_ang) ** 2
    weights = np.repeat(w * cell, n_ang * n_ang)
    return np.arccos(x), ang, ang.copy(), weights


def grid_states(coeffs, theta, phi, psi):
    """Coherent states at every (theta, phi, psi) node, (theta, phi,
    psi)-major: e^{-i phi m} [expm(-i theta S2) (e^{-i psi m'} c)]_m."""
    coeffs = np.asarray(coeffs, dtype=complex)
    two_s = coeffs.size - 1
    s3, _, _, s2 = spin_matrices(two_s)
    m = np.real(np.diag(s3))
    psi_c = np.exp(-1j * np.outer(psi, m)) * coeffs[None, :]
    phi_ph = np.exp(-1j * np.outer(phi, m))
    out = np.empty((len(theta), len(phi), len(psi), two_s + 1), dtype=complex)
    for i, th in enumerate(theta):
        out[i] = phi_ph[:, None, :] * (psi_c @ expm(-1j * th * s2).T)[None, :, :]
    return out.reshape(-1, two_s + 1)


def overlap(coeffs, angles2, angles1):
    """<angles2|angles1> for one fiducial vector."""
    return complex(np.vdot(coherent(coeffs, angles2), coherent(coeffs, angles1)))


def hamiltonian_parts(two_s, terms):
    """[(profile, matrix)] with matrix = coeff * S+^p S3^q S-^r for each of
    the (p, q, r, coeff, profile) terms; profile is None or ("cosine",
    omega, phase)."""
    s3, s_plus, s_minus, _ = spin_matrices(two_s)
    mp = np.linalg.matrix_power
    return [(profile, coeff * (mp(s_plus, p) @ mp(s3, q) @ mp(s_minus, r)))
            for p, q, r, coeff, profile in terms]


def evaluate(parts, dim, t):
    h = np.zeros((dim, dim), dtype=complex)
    for profile, m in parts:
        h += m if profile is None else np.cos(profile[1] * t + profile[2]) * m
    return h


def hamiltonian(two_s, terms, t=0.0):
    """H(t) of the (p, q, r, coeff, profile) terms."""
    return evaluate(hamiltonian_parts(two_s, terms), two_s + 1, t)


def is_driven(terms):
    return any(profile is not None for *_, profile in terms)


def propagator(two_s, terms, t_i, t_f):
    """Time-ordered U(t_f, t_i): one expm for static H, else the columns of
    U integrated with DOP853 at rtol = atol = 1e-13."""
    dim = two_s + 1
    parts = hamiltonian_parts(two_s, terms)
    if not is_driven(terms):
        return expm(-1j * (t_f - t_i) * evaluate(parts, dim, 0.0))
    if t_f == t_i:
        return np.eye(dim, dtype=complex)

    def rhs(t, y):
        u = (y[:dim * dim] + 1j * y[dim * dim:]).reshape(dim, dim)
        du = -1j * evaluate(parts, dim, t) @ u
        return np.concatenate([du.real.ravel(), du.imag.ravel()])

    y0 = np.concatenate([np.eye(dim).ravel(), np.zeros(dim * dim)])
    sol = solve_ivp(rhs, (t_i, t_f), y0, method="DOP853", rtol=1e-13, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    y = sol.y[:, -1]
    return (y[:dim * dim] + 1j * y[dim * dim:]).reshape(dim, dim)


def euler_chain(two_s, terms, t_i, t_f, n_slices):
    """Product of the n_slices + 1 explicit Euler factors (1 - i eps H(t_j)),
    t_j = t_i + j eps, eps = (t_f - t_i) / (n_slices + 1).  An exact
    resolution of unity between the factors leaves this product unchanged,
    so it is what the M1 and M2 kernels must reproduce."""
    dim = two_s + 1
    parts = hamiltonian_parts(two_s, terms)
    eps = (t_f - t_i) / (n_slices + 1)
    u = np.eye(dim, dtype=complex)
    for j in range(n_slices + 1):
        u = (np.eye(dim) - 1j * eps * evaluate(parts, dim, t_i + j * eps)) @ u
    return u


def m3_chain(coeffs, terms, angles_i, angles_f, t_f, n_slices):
    """<f|i> through the M3 kernels that ``discrete_cspi`` documents, over the
    ``quadrature`` grid: n_slices + 1 steps of eps = t_f / (n_slices + 1), H
    sampled at the left end of each step, and per grid pair with overlap o
    and element h = <g|H|g'> the kernel o exp(-i eps h / o) where
    |eps h / o| < 1/2, else o - i eps h."""
    coeffs = np.asarray(coeffs, dtype=complex)
    two_s = coeffs.size - 1
    dim = two_s + 1
    theta, phi, psi, w = quadrature(two_s)
    a = grid_states(coeffs, theta, phi, psi)
    parts = hamiltonian_parts(two_s, terms)
    eps = t_f / (n_slices + 1)

    def kernel(o, h):
        safe = 0.5 * np.abs(o) > eps * np.abs(h)
        ratio = np.divide(h, o, out=np.zeros_like(o), where=safe)
        return np.where(safe, o * np.exp(-1j * eps * ratio), o - 1j * eps * h)

    a_i, a_f = coherent(coeffs, angles_i), coherent(coeffs, angles_f)
    bra = a.conj()
    c = kernel(bra @ a_i, bra @ (evaluate(parts, dim, 0.0) @ a_i))
    o = bra @ a.T
    for j in range(1, n_slices):
        c = kernel(o, bra @ (evaluate(parts, dim, j * eps) @ a.T)) @ (w * c)
    h_f = evaluate(parts, dim, n_slices * eps)
    k_f = kernel(np.conj(bra @ a_f), np.conj(bra @ (h_f @ a_f)))
    return complex(k_f @ (w * c))


def displaced_fock(alpha, fock_coeffs, n_keep, n_max=160):
    """First n_keep amplitudes of expm(alpha a^+ - alpha^* a) |fock> computed
    on levels 0..n_max (n_max far above |alpha|^2, so the truncation edge
    does not reach the kept levels)."""
    a = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=1)
    d = expm(alpha * a.T - np.conj(alpha) * a)
    v = np.zeros(n_max + 1, dtype=complex)
    v[:len(fock_coeffs)] = fock_coeffs
    return (d @ v)[:n_keep]
