"""Canonical coherent states on truncated Fock space and the high-spin
limit that carries spin coherent states onto them.

The canonical side lives on Fock levels n = 0..n_max with annihilation
operator a.  A canonical coherent state with fiducial vector {c_n} is
D(alpha)|fv> with D(alpha) = exp(alpha a^+ - alpha^* a); the displaced
number states D(alpha)|n> have the closed Laguerre-polynomial amplitudes
implemented in dns_amplitudes.

The contraction map sends a spin-s coherent state with z_+ = alpha/sqrt(2s)
(and z_- = -z_+^*) to Fock amplitudes via the reindexing n = m + s; as s
grows these amplitudes tend to those of the canonical coherent state with
the reindexed fiducial vector.  The spin state is built from the few
columns of r(theta) that a Fock-like fiducial occupies, O(dim) each, so
two_s in the tens of thousands takes milliseconds and no dim x dim basis.
Every comparison here is at finite truncation with the tail accounted for.
Numbers enter by the package's rules (errors._finite, _count, _check_hbar):
a NaN or infinite alpha, alpha_dot or radial_max raises NotFinite naming
it, a truncation n_max or level n that is not an integer >= 0 (n_max >= 1
for displacement_matrix) ValueError, and hbar <= 0 ValueError.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.special import eval_genlaguerre, gammaln

from .coherent import FiducialVector, _check_budget, _gauss_legendre, _normalized
from .errors import (GridCoarseWarning, LengthMismatch, NotHermitian, NotNormalized, PoleMargin,
                     ZeroVector, _check_hbar, _count, _finite)
from .parametrizations import ZCoords, z_to_omega
from .spin_core import Spin, _r_columns

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class FockVector:
    """Normalized coefficients c_n on Fock levels n = 0..n_max."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise LengthMismatch(f"need a 1-d coefficient vector, got shape {c.shape}")
        norm = np.linalg.norm(c)
        if norm == 0.0:
            raise ZeroVector("Fock coefficients are identically zero")
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise NotNormalized(f"Fock vector norm {norm:.12f} is not 1")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def n_max(self) -> int:
        return self.coeffs.size - 1

    @property
    def degree(self) -> int:
        """Highest occupied level N (for the (a - alpha)^{N+1} annihilation
        identity)."""
        return int(np.max(np.nonzero(np.abs(self.coeffs) > 0)))


def make_fock(raw) -> FockVector:
    """Normalize raw coefficients into a FockVector.  Raises ZeroVector for
    an all-zero input and NotFinite for a NaN or infinite one.  Any other
    input normalizes, from subnormal to near-overflow entries."""
    return FockVector(_normalized(np.asarray(raw, dtype=complex), "Fock"))


@dataclass(frozen=True)
class CanonicalCS:
    """D(alpha)|fv> on the truncated Fock space.

    norm_defect = |1 - ||amplitudes||| records the truncation loss; it is
    below 1e-9 when n_max >= |alpha|^2 + 10 sqrt(|alpha|^2 + 1) + degree.
    """

    alpha: complex
    fv: FockVector
    amplitudes: np.ndarray

    @property
    def norm_defect(self) -> float:
        return float(abs(1.0 - np.linalg.norm(self.amplitudes)))


def fock_annihilation(n_max: int) -> np.ndarray:
    """Matrix of a on levels 0..n_max: a|n> = sqrt(n)|n-1>."""
    n_max = _count("n_max", n_max, 0)
    return np.diag(np.sqrt(np.arange(1, n_max + 1)), k=1)


def displacement_matrix(alpha: complex, n_max: int) -> np.ndarray:
    """exp(alpha a^+ - alpha^* a) on the truncated space; unitary up to the
    truncation tail."""
    alpha = _finite("alpha", alpha, complex)
    a = fock_annihilation(_count("n_max", n_max, 1))
    return expm(alpha * a.conj().T - np.conj(alpha) * a)


def canonical_cs(fv: FockVector, alpha: complex, n_max: int = None) -> CanonicalCS:
    """Displace fv by alpha on levels 0..n_max (default: the fv's length).

    Amplitudes come from the closed displaced-number-state forms, so they
    equal the untruncated state's first n_max+1 entries and norm_defect
    genuinely measures the discarded tail (the truncated matrix exponential
    would be exactly unitary and hide it).
    """
    n_max = fv.n_max if n_max is None else _count("n_max", n_max, 0)
    if n_max < fv.n_max:
        raise LengthMismatch(f"n_max={n_max} cannot hold a degree-{fv.n_max} fiducial vector")
    amps = np.zeros(n_max + 1, dtype=complex)
    for n in np.flatnonzero(np.abs(fv.coeffs) > 0):
        amps += fv.coeffs[n] * dns_amplitudes(alpha, int(n), n_max)
    return CanonicalCS(complex(alpha), fv, amps)


def dns_amplitudes(alpha: complex, n: int, n_max: int) -> np.ndarray:
    """Amplitudes <m|D(alpha)|n> for m = 0..n_max by the closed form

        m <= n:  e^{-|a|^2/2} sqrt(m!/n!) (-a^*)^(n-m) L_m^(n-m)(|a|^2)
        m >  n:  e^{-|a|^2/2} sqrt(n!/m!) a^(m-n)    L_n^(m-n)(|a|^2)

    with generalized Laguerre polynomials L.  Factorial ratios go through
    log-gamma so large truncations stay finite.
    """
    n, n_max = _count("n", n, 0), _count("n_max", n_max, 0)
    if n > n_max:
        raise ValueError(f"need 0 <= n <= n_max, got n={n}, n_max={n_max}")
    alpha = _finite("alpha", alpha, complex)
    m = np.arange(n_max + 1)
    x = abs(alpha) ** 2
    out = np.empty(n_max + 1, dtype=complex)
    if alpha == 0:
        out[:] = 0.0
        out[n] = 1.0
        return out
    lo = m <= n
    k = np.abs(m - n)
    log_ratio = -0.5 * np.abs(gammaln(m + 1) - gammaln(n + 1))
    base = np.where(lo, -np.conj(alpha), alpha)
    phase = (base / abs(alpha)) ** k
    magnitude = np.exp(-0.5 * x + log_ratio + k * np.log(abs(alpha)))
    lag = eval_genlaguerre(np.minimum(m, n), k, x)
    out = phase * magnitude * lag
    return out.astype(complex)


def dns_number_check(alpha: complex, n: int, n_max: int) -> float:
    """Residual ||(a^+ - alpha^*)(a - alpha)|alpha, n> - n|alpha, n>|| on
    the truncated space; small away from the truncation edge."""
    v = dns_amplitudes(alpha, n, n_max)
    a = fock_annihilation(n_max)
    shifted = a - alpha * np.eye(n_max + 1)
    return float(np.linalg.norm(shifted.conj().T @ (shifted @ v) - n * v))


def annihilation_degree_residual(fv: FockVector, alpha: complex, n_max: int = None) -> float:
    """Residual ||(a - alpha)^{N+1} D(alpha)|fv>|| with N the highest
    occupied fv level; exactly zero in the untruncated space."""
    n_max = (fv.n_max + 24) if n_max is None else _count("n_max", n_max, 0)
    state = canonical_cs(fv, alpha, n_max).amplitudes
    shifted = fock_annihilation(n_max) - alpha * np.eye(n_max + 1)
    v = state
    for _ in range(fv.degree + 1):
        v = shifted @ v
    return float(np.linalg.norm(v))


def hp_contract_state(fv_spin: FiducialVector, alpha: complex) -> FockVector:
    """Spin coherent state at z_+ = alpha/sqrt(2s), z_- = -z_+^*, reindexed
    to Fock amplitudes by n = m + s (so the m-descending amplitude vector is
    reversed).  Raises PoleMargin when |alpha| >= sqrt(2s), where the polar
    angle theta = 2*atan|z_+| leaves the chart.

    The state is e^{-i phi m} r(theta) e^{-i psi m} c, where only the band
    of columns k_lo..2s of r(theta) that meet the fiducial's occupied levels
    (k_lo its first, in descending m) is computed, by ``_r_columns``:
    O(dim band) time and memory, with no S2 basis built or cached.  A
    Fock-like fiducial has a band of a few columns (two_s = 6400 in about
    10 ms); a dense one makes the band the whole dimension, which is slower
    than the cached basis of ``coherent_state`` (two_s = 800: 0.3 s, against
    0.07 s cold and about 1 ms warm for that basis).  Raises
    AmplitudesTooLarge, before allocating, when the (dim, band) float block
    of columns would exceed ``coherent._AMPLITUDE_BYTES_MAX`` bytes
    (``coherent._check_budget``).
    """
    alpha = _finite("alpha", alpha, complex)
    spin = fv_spin.spin
    root = np.sqrt(spin.two_s)
    if abs(alpha) >= root:
        raise PoleMargin(f"|alpha| = {abs(alpha):.3f} >= sqrt(2s) = {root:.3f}")
    k_lo = int(np.flatnonzero(fv_spin.coeffs)[0])
    _check_budget(spin.dim * (spin.dim - k_lo) * np.dtype(float).itemsize,
                  f"r(theta) columns {k_lo}..{spin.two_s} at two_s={spin.two_s} need")
    omega = z_to_omega(ZCoords(alpha / root, -np.conj(alpha) / root))
    m = spin.m_values()
    cols = _r_columns(spin.two_s, omega.theta, k_lo)
    x = (np.exp(-1j * omega.psi * m) * fv_spin.coeffs)[k_lo:]
    amps = np.exp(-1j * omega.phi * m) * (cols @ x.real + 1j * (cols @ x.imag))
    return FockVector(amps[::-1])


def hp_measure_ratio(alpha: complex, spin: Spin) -> float:
    """Pointwise ratio of the contracted spin-side measure density to the
    flat canonical density 1/pi at alpha: (2s+1)/(2s) (1+|alpha|^2/(2s))^-2,
    which tends to 1 as s grows.  NotFinite for a NaN or infinite alpha,
    ValueError at two_s = 0, where the density is undefined."""
    two_s = _count("two_s", spin.two_s, 1)
    u2 = abs(_finite("alpha", alpha, complex)) ** 2 / two_s
    return (two_s + 1) / two_s / (1.0 + u2) ** 2


def ccs_kinetic_term(alpha: complex, alpha_dot: complex, fv: FockVector,
                     hbar: float = 1.0) -> float:
    """(i hbar/2) [(alpha^* d_alpha - c.c.) + A] with the fiducial cross
    term A = 2 sum_n sqrt(n) (d_alpha c_n^* c_{n-1} - c.c.); both brackets
    are purely imaginary, so the result is real."""
    _check_hbar(hbar)
    alpha, alpha_dot = _finite("alpha", alpha, complex), _finite("alpha_dot", alpha_dot, complex)
    c = fv.coeffs
    n = np.arange(1, c.size)
    cross = np.sum(np.sqrt(n) * alpha_dot * np.conj(c[1:]) * c[:-1])
    term = (np.conj(alpha) * alpha_dot - np.conj(alpha_dot) * alpha) \
        + 2.0 * (cross - np.conj(cross))
    return float((0.5j * hbar * term).real)


def ccs_resolution_residual(fv: FockVector, radial_max: float = 8.0, n_max: int = 40) -> float:
    """Operator-norm residual of (1/pi) integral |alpha><alpha| d^2 alpha
    against the identity on the low Fock levels n < n_max//2.

    Quadrature is 200-node Gauss-Legendre in |alpha| on [0, radial_max]
    times a uniform angular grid of 2*n_max + 2*degree + 3 nodes, enough to
    kill every phase mode present.  The amplitudes come from the closed
    displaced-number-state forms, so the residual measures only the radial
    truncation and quadrature, not matrix exponentials.  NotFinite names a
    NaN or infinite radial_max.
    """
    radial_max, n_max = _finite("radial_max", radial_max), _count("n_max", n_max, 0)
    if n_max < fv.n_max:
        raise LengthMismatch(f"n_max={n_max} cannot hold a degree-{fv.n_max} fiducial vector")
    k = n_max // 2
    if radial_max ** 2 < k + 6.0 * np.sqrt(k) + fv.degree:
        warnings.warn(f"radial_max={radial_max} truncates states that overlap the "
                      f"first {k} checked levels", GridCoarseWarning, stacklevel=2)
    n_phi = 2 * n_max + 2 * fv.degree + 3
    x, w, _ = _gauss_legendre(200)
    r = 0.5 * radial_max * (x + 1.0)
    wr = 0.5 * radial_max * w * r          # r dr
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    w_phi = 2.0 * np.pi / n_phi

    dim = n_max + 1
    m = np.arange(dim)
    occ = np.flatnonzero(np.abs(fv.coeffs) > 0)
    # D(r e^{i phi}) = e^{i phi N} D(r) e^{-i phi N}, so amplitudes at
    # alpha = r e^{i phi} are e^{i m phi} sum_n c_n e^{-i n phi} <m|D(r)|n>.
    phase_m = np.exp(1j * np.outer(m, phis))
    phase_n = np.exp(-1j * np.outer(occ, phis))
    p = np.zeros((dim, dim), dtype=complex)
    for rr, ww in zip(r, wr):
        d_cols = np.column_stack([dns_amplitudes(rr, int(nn), n_max) for nn in occ])
        a = phase_m * (d_cols @ (fv.coeffs[occ, None] * phase_n))
        p += (ww * w_phi) * (a @ a.conj().T)
    p /= np.pi
    return float(np.linalg.norm(p[:k, :k] - np.eye(k), ord=2))


def normal_ordered_matrix(terms, n_max: int) -> np.ndarray:
    """Sum of coeff * (a^+)^p a^q on levels 0..n_max from (p, q, coeff)
    triples; raises NotHermitian when the total is not Hermitian, and
    ValueError for an exponent or n_max that is not an integer >= 0."""
    a = fock_annihilation(n_max)
    h = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for p, q, coeff in terms:
        h += complex(coeff) * np.linalg.matrix_power(a.conj().T, _count("p", p, 0)) \
            @ np.linalg.matrix_power(a, _count("q", q, 0))
    defect = np.linalg.norm(h - h.conj().T)
    if not defect <= 1e-12 * max(1.0, np.linalg.norm(h)):
        raise NotHermitian(f"normal-ordered polynomial deviates from Hermitian by {defect:.3e}")
    return h


def ccs_canonical_rhs(h_terms, alpha: complex, fv: FockVector = None,
                      hbar: float = 1.0) -> complex:
    """d(alpha)/dt = -(i/hbar) dH/d(alpha^*) for H(alpha) = <alpha|H|alpha>.

    h_terms is a sequence of normal-ordered (p, q, coeff) triples meaning
    coeff (a^+)^p a^q, evaluated in D(alpha)|fv> (vacuum by default).  From
    D(alpha)^+ a D(alpha) = a + alpha,

        H(alpha)        = sum coeff <(a + alpha)^p fv | (a + alpha)^q fv>,
        dH/d(alpha^*)   = sum coeff p <(a + alpha)^(p-1) fv | (a + alpha)^q fv>,

    and a + alpha maps the fiducial's levels 0..n_max into themselves, so
    the derivative is exact: no Fock truncation, no displaced state and no
    step are involved.  Raises NotHermitian when the terms do not sum to a
    Hermitian operator: the monomials (a^+)^p a^q are independent, so that
    is c_pq = conj(c_qp) for the coefficients merged by (p, q), checked to
    1e-14 sum |coeff| in the sum of the defects, with no matrix built.
    """
    _check_hbar(hbar)
    alpha = _finite("alpha", alpha, complex)
    if fv is None:
        fv = FockVector(np.array([1.0 + 0j]))
    terms = [(_count("p", p, 0), _count("q", q, 0), complex(c)) for p, q, c in h_terms]
    merged = {}
    for p, q, c in terms:
        merged[p, q] = merged.get((p, q), 0.0) + c
    # a sum, not a max, so a NaN defect fails the check
    defect = sum(abs(c - merged.get((q, p), 0.0).conjugate()) for (p, q), c in merged.items())
    if not defect <= 1e-14 * sum(abs(c) for _, _, c in terms):
        raise NotHermitian(f"normal-ordered coefficients deviate from Hermitian by {defect:.3e}")
    deg = max((max(p, q) for p, q, _ in terms), default=0)
    shifted = fock_annihilation(fv.n_max) + alpha * np.eye(fv.n_max + 1)
    powers = [fv.coeffs]
    for _ in range(deg):
        powers.append(shifted @ powers[-1])
    grad = sum(c * p * np.vdot(powers[p - 1], powers[q]) for p, q, c in terms if p > 0)
    return complex(-1j / hbar * grad)
