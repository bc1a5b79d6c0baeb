"""Discrete coherent-state path integrals against exact time-ordered oracles.

The amplitude <Omega_f, t_f|Omega_i, t_i> is discretized by splitting
[t_i, t_f] into N+1 steps of length eps = (t_f - t_i)/(N+1), inserting the
quadrature resolution of unity at the N interior times t_j = t_i + j*eps,
and applying one short-time kernel per step.  The Hamiltonian inside step j
is sampled at the left endpoint t_{j-1}.  Three kernel modes are supported:

* ``M1`` matrix element        <O''|(1 - i eps H/hbar)|O'>
* ``M2`` overlap times ratio   <O''|O'> (1 - i eps H(O'',O')/hbar)
* ``M3`` exponentiated ratio   <O''|O'> exp(-i eps H(O'',O')/hbar)

with H(O'', O') = <O''|H|O'>/<O''|O'>.  M1 and M2 are algebraically equal
wherever the overlap is nonzero; all three converge to the exact
time-ordered propagator at first order in eps.

Both entry points run one chain (_path_sum); transition_amplitude is the
discrete_cspi chain with grid-summed endpoints.  M1 and M2 contract through
dim x dim transfer matrices: the M2 kernel in its product form o - i*eps*h
is exactly <O''|(1 - i eps H)|O'>, so every grid sum between kernels is the
quadrature projector P = sum_g w_g |O_g><O_g|, and the chain is
v -> P (1 - i eps H_j) v.  P is summed factorized, once per call
(coherent._grid_gram): O(dim^3) for any grid size.  M2 never divides by the
overlap.  The M3 kernel does not factorize through the spin space, so its
chain runs over grid-indexed vectors; it falls back to the product form
wherever |eps*h/o| is not small (see _kernel_entries).  When its G x G
kernel fits in one row block, what H does not touch (the overlaps, the
guard bound |o|/2 and 1/o) is computed once per call, and each slice costs
one matmul for the H elements and one masked exp per entry; a
time-independent H builds the kernel itself once per call.  Larger kernels
are built in row blocks at every slice, overlaps included (see _m3_chain).
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from numpy.linalg import matrix_power
from scipy.linalg import expm

from .coherent import (FiducialVector, QuadratureGrid, coherent_state, grid_amplitudes,
                       structure_pair, _grid_gram)
from .errors import (GridTooCoarse, LengthMismatch, NoConvergence, NotHermitian, NotNormalized,
                     NumericalFailure, OrthogonalPair)
from .geometry import geometric_phase
from .spin_core import EulerAngles, Spin, spin_operators

_ZERO_OVERLAP = 1e-12
_M3_GUARD = 0.5
_HERMITICITY_TOL = 1e-12
_MODES = ("M1", "M2", "M3")
_KERNEL_BLOCK_ENTRIES = 1 << 21


@dataclass(frozen=True)
class MonomialTerm:
    """One normal-ordered monomial coeff * S+^p S3^q S-^r with a time profile.

    profile is None for a constant term, ("cosine", omega, phase) for a
    cos(omega*t + phase) factor, or ("ramp",) for a factor t.
    """

    p: int
    q: int
    r: int
    coeff: complex
    profile: tuple = None

    def __post_init__(self):
        for name in ("p", "q", "r"):
            e = getattr(self, name)
            if not isinstance(e, (int, np.integer)) or e < 0:
                raise ValueError(f"exponent {name}={e!r} must be a non-negative integer")
            object.__setattr__(self, name, int(e))
        object.__setattr__(self, "coeff", complex(self.coeff))
        if self.profile is not None:
            prof = tuple(self.profile)
            if prof[0] == "cosine" and len(prof) == 3:
                prof = ("cosine", float(prof[1]), float(prof[2]))
            elif prof[0] == "ramp" and len(prof) == 1:
                pass
            else:
                raise ValueError(f"unknown time profile {self.profile!r}")
            object.__setattr__(self, "profile", prof)

    def factor(self, t: float) -> float:
        if self.profile is None:
            return 1.0
        if self.profile[0] == "cosine":
            return float(np.cos(self.profile[1] * t + self.profile[2]))
        return float(t)


@dataclass(frozen=True)
class HamiltonianSpec:
    """A spin Hamiltonian as a sum of normal-ordered monomials.

    Hermiticity of the assembled matrix is validated at construction on a
    few sample times (one suffices for constant terms); a spec whose matrix
    is not Hermitian there raises NotHermitian.  An empty term list is the
    zero Hamiltonian.
    """

    spin: Spin
    terms: tuple = ()

    def __post_init__(self):
        terms = tuple(self.terms)
        for term in terms:
            if not isinstance(term, MonomialTerm):
                raise ValueError(f"terms must be MonomialTerm, got {type(term).__name__}")
        object.__setattr__(self, "terms", terms)
        for t in self._sample_times():
            h = hamiltonian_matrix(self, t)
            defect = np.linalg.norm(h - h.conj().T)
            if defect > _HERMITICITY_TOL * max(1.0, np.linalg.norm(h)):
                raise NotHermitian(f"H(t={t}) deviates from Hermitian by {defect:.3e}")

    @property
    def time_dependent(self) -> bool:
        return any(term.profile is not None for term in self.terms)

    def _sample_times(self):
        return (0.0, 0.37, 1.0, 2.6) if self.time_dependent else (0.0,)


@dataclass(frozen=True)
class PropagatorResult:
    """Discrete path-integral amplitude plus the settings that produced it.

    error_estimate is |amplitude - exact| when an oracle matrix was passed,
    else None.  n_zeroed is the near-orthogonal-pair diagnostic: in M3 the
    number of kernel entries evaluated with the linearized fallback instead
    of the exponentiated ratio, summed over slices; 0 in M1 and M2, whose
    chains run through the spin-space projector and never meet a grid pair.
    projector is the quadrature projector P = sum_g w_g |O_g><O_g| that an
    M1 or M2 chain applied, None in M3, whose chain does not contract
    through P.  grid_residual is ||P - 1||_2 of that P (roundoff on an exact
    grid), computed on first read; None in M3.  fallback_fraction is M3's
    n_zeroed over the kernel entries applied (G^2 per grid-to-grid step, G
    per endpoint step, a reused kernel counted once per use); None in M1
    and M2.
    """

    amplitude: complex
    n_slices: int
    mode: str
    grid: QuadratureGrid
    error_estimate: float = None
    n_zeroed: int = 0
    projector: np.ndarray = field(default=None, repr=False)
    fallback_fraction: float = None

    @cached_property
    def grid_residual(self) -> float:
        if self.projector is None:
            return None
        eye = np.eye(len(self.projector))
        return float(np.linalg.svd(self.projector - eye, compute_uv=False)[0])


@lru_cache(maxsize=None)
def _monomial_matrix(two_s: int, p: int, q: int, r: int) -> np.ndarray:
    ops = spin_operators(Spin(two_s))
    m = matrix_power(ops.s_plus, p) @ matrix_power(ops.s3, q) @ matrix_power(ops.s_minus, r)
    m.flags.writeable = False
    return m


def hamiltonian_matrix(spec: HamiltonianSpec, t: float = 0.0) -> np.ndarray:
    """Dense matrix of H(t) in the m-descending basis."""
    h = np.zeros((spec.spin.dim, spec.spin.dim), dtype=complex)
    for term in spec.terms:
        h += (term.coeff * term.factor(t)) * _monomial_matrix(
            spec.spin.two_s, term.p, term.q, term.r)
    return h


def h_expectation(fv: FiducialVector, spec: HamiltonianSpec, omega, t: float = 0.0) -> float:
    """<Omega|H(t)|Omega>, real for a Hermitian spec."""
    v = coherent_state(fv, _as_angles(omega)).amplitudes
    return float(np.real(np.vdot(v, hamiltonian_matrix(spec, t) @ v)))


def h_ratio(fv: FiducialVector, spec: HamiltonianSpec, omega2, omega1, t: float = 0.0) -> complex:
    """<Omega2|H(t)|Omega1> / <Omega2|Omega1>.

    Raises OrthogonalPair when the overlap magnitude is at or below 1e-12.
    """
    v2 = coherent_state(fv, _as_angles(omega2)).amplitudes
    v1 = coherent_state(fv, _as_angles(omega1)).amplitudes
    o = complex(np.vdot(v2, v1))
    if abs(o) <= _ZERO_OVERLAP:
        raise OrthogonalPair(f"|<Omega2|Omega1>| = {abs(o):.3e} is too small to divide by")
    return complex(np.vdot(v2, hamiltonian_matrix(spec, t) @ v1)) / o


def midpoint_product(spec: HamiltonianSpec, t_i: float, t_f: float, n_steps: int,
                     hbar: float = 1.0) -> np.ndarray:
    """Product of n_steps midpoint-sampled matrix exponentials, the
    second-order building block of exact_propagator.  Time-independent
    specs reduce to a single exponential raised to a power."""
    eps = (t_f - t_i) / n_steps
    if not spec.time_dependent:
        return matrix_power(expm(-1j * eps / hbar * hamiltonian_matrix(spec, t_i)), n_steps)
    u = np.eye(spec.spin.dim, dtype=complex)
    for j in range(n_steps):
        u = expm(-1j * eps / hbar * hamiltonian_matrix(spec, t_i + (j + 0.5) * eps)) @ u
    return u


def exact_propagator(spec: HamiltonianSpec, t_i: float, t_f: float, tol: float = 1e-10,
                     hbar: float = 1.0) -> np.ndarray:
    """Time-ordered evolution matrix for H(t) over [t_i, t_f].

    Midpoint-exponential products with the step count doubled until two
    successive refinements differ by less than tol in Frobenius norm; the
    converged matrix is checked for unitarity at the same tolerance.
    Raises NoConvergence after 24 doublings (or on a unitarity defect).
    """
    if t_f < t_i:
        raise ValueError(f"t_f={t_f} must be >= t_i={t_i}")
    dim = spec.spin.dim
    if t_f == t_i:
        return np.eye(dim, dtype=complex)
    u_prev = midpoint_product(spec, t_i, t_f, 1, hbar)
    for k in range(1, 25):
        u = midpoint_product(spec, t_i, t_f, 2 ** k, hbar)
        if np.linalg.norm(u - u_prev) < tol:
            defect = np.linalg.norm(u.conj().T @ u - np.eye(dim))
            if defect > max(tol, 1e-12) * dim:
                raise NoConvergence(f"converged matrix has unitarity defect {defect:.3e}")
            return u
        u_prev = u
    raise NoConvergence(f"midpoint products did not settle below {tol} after 24 doublings")


def _as_angles(omega) -> EulerAngles:
    return omega if isinstance(omega, EulerAngles) else EulerAngles(*omega)


def _pair_terms(dst: np.ndarray, src: np.ndarray):
    """The parts of the M3 kernel from the states src to the states dst
    (rows of amplitudes) that H does not touch: the overlaps o[g, g'] =
    <dst[g]|src[g']>, the guard bound |o|/2 and 1/o (0 where o = 0)."""
    o = dst.conj() @ src.T
    inv = np.zeros_like(o)
    np.divide(1.0, o, out=inv, where=o != 0)
    return o, np.abs(o) * _M3_GUARD, inv


def _kernel_entries(pair, x: np.ndarray):
    """Elementwise M3 short-time kernel from the pair terms of _pair_terms
    and the scaled elements x = -i (eps/hbar) <''|H|'>, which it overwrites.

    The exponentiated ratio o*exp(x/o) is used only where |x| < |o|/2 (the
    regime where it approximates the product form o + x to O(eps^2) per
    entry) and the linearized form elsewhere, which keeps near-orthogonal
    pairs from blowing up exp; the returned counter reports the linearized
    entries.  Symmetric grids do hit exact overlap zeros on a
    non-negligible pair fraction for low spin, so dropping such entries
    outright would leave a slice-count-independent bias in the chain.  One
    pass each for the guard, the linear form, the ratio x*(1/o), the
    masked exp and the masked product with o.
    """
    o, bound, inv = pair
    safe = np.abs(x) < bound
    k = o + x
    np.multiply(x, inv, out=x)
    np.exp(x, out=x, where=safe)
    np.multiply(o, x, out=k, where=safe)
    return k, int(x.size - np.count_nonzero(safe))


def _kernel_step(dst: np.ndarray, src: np.ndarray, h: np.ndarray, c: np.ndarray,
                 eps_over_hbar: float, pair=None):
    """One chain step c -> K @ c, with K[g, g'] the M3 kernel of h from the
    state src[g'] to the state dst[g] (rows of amplitudes), built in row
    blocks of at most _KERNEL_BLOCK_ENTRIES entries to bound memory.  pair
    is the _pair_terms of (dst, src) computed by the caller, given only when
    K fits in one block; without it each block computes its own.  Returns
    K @ c, the fallback count and the last row block of K (all of K when it
    fit in one block)."""
    h_src = ((-1j * eps_over_hbar) * h) @ src.T
    out = np.empty(len(dst), dtype=complex)
    zeroed = 0
    block = max(1, _KERNEL_BLOCK_ENTRIES // len(src))
    for start in range(0, len(dst), block):
        rows = dst[start:start + block]
        k, z = _kernel_entries(pair if pair is not None else _pair_terms(rows, src),
                               rows.conj() @ h_src)
        zeroed += z
        out[start:start + block] = k @ c
    return out, zeroed, k


def _m3_chain(nodes, hs, c: np.ndarray, eps_over_hbar: float):
    """Apply c -> K_j @ (w_j * c) for each slice Hamiltonian hs[j], with K_j
    its M3 kernel from the node set nodes[j] = (amplitudes, weights) to
    nodes[j + 1]; return c on the last node set, the summed fallback count
    and the number of kernel entries applied.

    What H does not touch is computed once per call: when the grid-to-grid
    kernel fits in one row block, the pair terms (overlaps, guard bound,
    1/o) of the grid with itself are built at the first grid-to-grid step
    and serve every later one.  Per slice there remain one matmul for the
    scaled H elements and one masked exp (see _kernel_entries).  When every
    slice carries the same H object (a static spec, see _slice_hamiltonians)
    a one-block grid-to-grid kernel is itself reused, with its fallback
    count, at the rest of the steps.  Above one row block every step builds
    its kernel, pair terms included, block by block.  A reused kernel
    counts its entries and fallbacks once per use.
    """
    static = all(h is hs[0] for h in hs)
    zeroed, entries, pair, kept = 0, 0, None, None
    for (src, w), (dst, _), h in zip(nodes, nodes[1:], hs):
        if src is not dst:  # an endpoint step: one row or column of entries
            c, z, _ = _kernel_step(dst, src, h, w * c, eps_over_hbar)
        elif kept is not None:
            k, z = kept
            c = k @ (w * c)
        else:
            if pair is None and len(src) ** 2 <= _KERNEL_BLOCK_ENTRIES:
                pair = _pair_terms(src, src)
            c, z, k = _kernel_step(dst, src, h, w * c, eps_over_hbar, pair)
            if static and pair is not None:
                kept = k, z
        zeroed += z
        entries += len(src) * len(dst)
    return c, zeroed, entries


def _slice_hamiltonians(spec: HamiltonianSpec, t_i: float, eps: float, n_slices: int):
    if not spec.time_dependent:
        return [hamiltonian_matrix(spec)] * (n_slices + 1)
    return [hamiltonian_matrix(spec, t_i + j * eps) for j in range(n_slices + 1)]


def _check_grid(fv: FiducialVector, spec: HamiltonianSpec, grid: QuadratureGrid,
                n_slices: int, mode: str):
    if spec.spin != fv.spin:
        raise LengthMismatch(f"spec spin {spec.spin} differs from fiducial spin {fv.spin}")
    if grid.exact_two_s < fv.spin.two_s:
        raise GridTooCoarse(
            f"grid exact through two_s={grid.exact_two_s}, need {fv.spin.two_s}")
    if n_slices < 1:
        raise ValueError(f"n_slices must be >= 1, got {n_slices}")
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


def _path_sum(fv: FiducialVector, spec: HamiltonianSpec, grid: QuadratureGrid, ket_i, ket_f,
              t_i: float, t_f: float, n_slices: int, mode: str, hbar: float, grid_ends: bool):
    """<f|(1 - i eps H_n) P ... P (1 - i eps H_0)|i> in M1/M2, or its M3 grid
    chain, from ket_i to ket_f; grid_ends inserts the resolution at both ends
    too.  Returns the amplitude, the M3 fallback count and fraction, and the
    M1/M2 P."""
    _check_grid(fv, spec, grid, n_slices, mode)
    eps = (t_f - t_i) / (n_slices + 1)
    hs = _slice_hamiltonians(spec, t_i, eps, n_slices)
    n_zeroed, fallback, p = 0, None, None

    if mode == "M3":
        a = grid_amplitudes(fv, grid)
        on_grid = (a, grid.measure_weights(fv.spin))
        if grid_ends:
            start, end, c, readout = on_grid, on_grid, a.conj() @ ket_i, a @ ket_f.conj()
        else:
            one = np.ones(1)
            start, end, c, readout = (ket_i[None], one), (ket_f[None], one), one, one
        c, n_zeroed, entries = _m3_chain([start] + [on_grid] * n_slices + [end], hs, c,
                                         eps / hbar)
        fallback = n_zeroed / entries
        amplitude = complex(readout @ (end[1] * c))
    else:
        # the projector sum_g w_g |O_g><O_g| is the transposed fiducial Gram
        p = _grid_gram(grid, fv.spin, fv.coeffs, fv.coeffs).T
        if grid_ends:
            ket_i, ket_f = p @ ket_i, p @ ket_f
        v = ket_i
        for j, h in enumerate(hs):
            if j:
                v = p @ v
            v = v - (1j * eps / hbar) * (h @ v)
        amplitude = complex(np.vdot(ket_f, v))

    if not np.isfinite(amplitude.real) or not np.isfinite(amplitude.imag):
        raise NumericalFailure(
            f"mode {mode} amplitude is not finite (kernel overflow on a "
            "near-orthogonal pair); refine the grid or slice count")
    return amplitude, n_zeroed, fallback, p


def discrete_cspi(fv: FiducialVector, spec: HamiltonianSpec, omega_i, omega_f,
                  t_i: float, t_f: float, n_slices: int, grid: QuadratureGrid,
                  mode: str = "M1", hbar: float = 1.0, oracle: np.ndarray = None
                  ) -> PropagatorResult:
    """Discrete path-integral amplitude <Omega_f, t_f|Omega_i, t_i>.

    n_slices is the number of interior resolution insertions, so the step
    is eps = (t_f - t_i)/(n_slices + 1).  The grid must be exact for the
    fiducial spin (GridTooCoarse otherwise).  Pass the exact_propagator
    matrix as oracle to attach |amplitude - exact| as error_estimate.

    With the zero Hamiltonian every mode collapses to overlap(fv, omega_f,
    omega_i) up to roundoff for any slice count, since each grid sum is an
    exact resolution of unity.
    """
    amps_i = coherent_state(fv, _as_angles(omega_i)).amplitudes
    amps_f = coherent_state(fv, _as_angles(omega_f)).amplitudes
    amplitude, n_zeroed, fallback, p = _path_sum(fv, spec, grid, amps_i, amps_f, t_i, t_f,
                                                 n_slices, mode, hbar, grid_ends=False)
    error = None if oracle is None else float(abs(amplitude - np.vdot(amps_f, oracle @ amps_i)))
    return PropagatorResult(amplitude, n_slices, mode, grid, error, n_zeroed, p, fallback)


def transition_amplitude(fv: FiducialVector, spec: HamiltonianSpec, ket_i, ket_f,
                         t_i: float, t_f: float, grid: QuadratureGrid, n_slices: int,
                         mode: str = "M1", hbar: float = 1.0) -> complex:
    """<f|U(t_f, t_i)|i> for arbitrary normalized states via the discrete
    path integral with both endpoints grid-summed against coherent states.

    With the zero Hamiltonian this returns <f|i> exactly (the two endpoint
    grid sums are exact resolutions of unity).
    """
    ket_i = np.asarray(ket_i, dtype=complex)
    ket_f = np.asarray(ket_f, dtype=complex)
    for name, ket in (("ket_i", ket_i), ("ket_f", ket_f)):
        if ket.shape != (fv.spin.dim,):
            raise LengthMismatch(f"{name} has shape {ket.shape}, expected ({fv.spin.dim},)")
        if abs(np.linalg.norm(ket) - 1.0) > 1e-10:
            raise NotNormalized(f"{name} has norm {np.linalg.norm(ket):.12f}")
    return _path_sum(fv, spec, grid, ket_i, ket_f, t_i, t_f, n_slices, mode, hbar,
                     grid_ends=True)[0]


def infinitesimal_overlap(fv: FiducialVector, omega, delta_omega) -> complex:
    """First-order overlap <Omega + dOmega|Omega> = 1 + i a0 (dphi cos(theta)
    + dpsi) - (1/2) sum_m f(s,m) [c_m c_{m-1}^* e^{-i psi}(dtheta + i dphi
    sin(theta)) - c.c.-partner], with theta and psi taken at the displaced
    (bra) point.  The deviation from the exact overlap is O(|dOmega|^2)."""
    omega = _as_angles(omega)
    dphi, dtheta, dpsi = (float(x) for x in delta_omega)
    a0, b0 = structure_pair(fv)
    theta = omega.theta + dtheta
    psi = omega.psi + dpsi
    x = np.conj(b0) * np.exp(-1j * psi) * (dtheta + 1j * dphi * np.sin(theta))
    return complex(1.0 + 1j * a0 * (dphi * np.cos(theta) + dpsi) - 1j * x.imag)


def action_along_path(fv: FiducialVector, spec: HamiltonianSpec, path,
                      hbar: float = 1.0) -> float:
    """hbar * geometric_phase(fv, path) - the trapezoid integral of <H>
    along a sampled path of rows (t, phi, theta, psi).  Raises PathTooShort
    below 2 samples and TimesNotMonotone unless the times are strictly
    monotone."""
    path = np.asarray(path, dtype=float)
    kinetic = geometric_phase(fv, path)
    energies = [h_expectation(fv, spec, row[1:], row[0]) for row in path]
    return float(hbar * kinetic - np.trapezoid(energies, path[:, 0]))
