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
discrete_cspi chain with grid-summed endpoints.  The chain's fixed costs
are paid once per call: H is evaluated once, at all slice times, by one
hamiltonian_matrix call on the array of times (a time-independent H is one
matrix that serves every slice), and the grid's Gauss-Legendre rule comes
from a cache keyed by node count (coherent.build_grid).  M1 and M2
contract through dim x dim transfer matrices: the M2 kernel in its product
form o - i*eps*h is exactly <O''|(1 - i eps H)|O'>, so every grid sum
between kernels is the quadrature projector P = sum_g w_g |O_g><O_g|, and
the chain is v -> a_j P v with a_j = 1 - i (eps/hbar) H_j formed once per
call.  P stays a separate matvec at each slice: folding it into a_j would
cost a dim x dim product per slice.  P is summed factorized, once per call
(coherent._grid_gram): O(dim^3) for any grid size.  M2 never divides by the
overlap.  The M3 kernel does not factorize through the spin space, so its
chain runs over grid-indexed vectors; it falls back to the product form
wherever |eps*h/o| is not small (see _kernel_entries).  When its G x G
kernel fits in one row block, what H does not touch (the overlaps, the
guard bound |o|/2 and 1/o) is computed once per call with the scratch
arrays every slice reuses, all views of one allocation whose pages the
allocator keeps for the next call.  Each slice costs one matmul for the
H elements and a few float64 passes per entry, with no complex exp or
complex division (_exp_small takes exp(y) from real tan and exp); a
time-independent H builds the kernel itself once per call.  Larger kernels
are built in row blocks at every slice, overlaps included (see _m3_chain).
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
import math
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm

from .coherent import FiducialVector, QuadratureGrid, coherent_state, grid_amplitudes, _grid_gram
from .errors import (GridTooCoarse, LengthMismatch, NoConvergence, NotFinite, NotHermitian,
                     NotNormalized, NumericalFailure, OrthogonalPair)
from .geometry import geometric_phase, kinetic_term, _trapezoid, _velocity
from .spin_core import Spin, _angles_of, _ladder

_ZERO_OVERLAP = 1e-12
_M3_GUARD = 0.5
_HERMITICITY_TOL = 1e-12
_MODES = ("M1", "M2", "M3")
_KERNEL_BLOCK_ENTRIES = 1 << 21
# bound on the entries of one stacked block of midpoint H(t) matrices
_H_BLOCK_ENTRIES = 1 << 16
# exact_propagator's refinement and unitarity tolerance
_ORACLE_TOL = 1e-10
# the Gauss-Legendre nodes of a step and the weights of _cf4_product
_CF4_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_CF4_WEIGHTS = ((3.0 - 2.0 * math.sqrt(3.0)) / 12.0, (3.0 + 2.0 * math.sqrt(3.0)) / 12.0)
# time-profile kinds: kind -> (parameter names, their config defaults,
# f(t, *parameters)); a term's profile is the tuple (kind, *parameters)
_PROFILES = {
    "cosine": (("omega", "phase"), (1.0, 0.0), lambda t, omega, phase: np.cos(omega * t + phase)),
    "ramp": ((), (), lambda t: t),
}


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
            entry = _PROFILES.get(prof[0]) if prof and isinstance(prof[0], str) else None
            if entry is None or len(prof) != 1 + len(entry[0]):
                raise ValueError(f"unknown time profile {self.profile!r}")
            object.__setattr__(self, "profile", prof[:1] + tuple(float(x) for x in prof[1:]))

    def factor(self, t):
        """The profile value f(t): a float for a scalar t, an array of the
        same shape for an array of times."""
        t = np.asarray(t, dtype=float)
        if self.profile is None:
            return 1.0 if t.ndim == 0 else np.ones(t.shape)
        f = _PROFILES[self.profile[0]][2](t, *self.profile[1:])
        return float(f) if t.ndim == 0 else f


@dataclass(frozen=True)
class HamiltonianSpec:
    """A spin Hamiltonian as a sum of normal-ordered monomials.

    Terms that share a time profile must sum to a Hermitian operator, or
    construction raises NotHermitian; the profiles are real, so H(t) =
    sum_p f_p(t) H_p is Hermitian at every t.  No terms is H = 0.
    """

    spin: Spin
    terms: tuple = ()
    # one term per profile, and the read-only (n_profiles, dim * dim) rows
    # of the flattened H_p, each the sum of the terms with that profile
    _profiles: tuple = field(init=False, repr=False, compare=False)
    _h_parts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        terms = tuple(self.terms)
        parts = {}
        for term in terms:
            if not isinstance(term, MonomialTerm):
                raise ValueError(f"terms must be MonomialTerm, got {type(term).__name__}")
            _, h = parts.setdefault(term.profile, (term, np.zeros((self.spin.dim,) * 2, complex)))
            h += term.coeff * _monomial_matrix(self.spin.two_s, term.p, term.q, term.r)
        for term, h in parts.values():
            # Frobenius norms as sqrt(vdot), a third of np.linalg.norm's cost
            defect = h - h.conj().T
            defect = math.sqrt(np.vdot(defect, defect).real)
            if not defect <= _HERMITICITY_TOL * max(1.0, math.sqrt(np.vdot(h, h).real)):
                raise NotHermitian(f"profile {term.profile!r}: Hermitian defect {defect:.3e}")
        h_parts = np.array([h.ravel() for _, h in parts.values()], dtype=complex)
        h_parts.shape = (len(parts), self.spin.dim ** 2)
        h_parts.flags.writeable = False
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_profiles", tuple(term for term, _ in parts.values()))
        object.__setattr__(self, "_h_parts", h_parts)

    @property
    def time_dependent(self) -> bool:
        return any(term.profile is not None for term in self.terms)


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


# Bounded, each entry one diagonal of O(dim) floats: specs are often built
# afresh for every call, and a warm entry spares them the diagonal's build.
@lru_cache(maxsize=256)
def _monomial_diagonal(two_s: int, p: int, q: int, r: int) -> np.ndarray:
    """The one nonzero diagonal of S+^p S3^q S-^r in descending-m order.

    S-^r takes level j (m_j = s - j) down to level k = j + r, S3^q scales
    it by (s - k)^q = (m_j - r)^q, and S+^p takes it up to row k - p; each
    step passes one ladder value f(s, m_l) = <l|S+|l+1>.  So the entry at
    (k - p, k - r), column minus row p - r, is (s - k)^q times the ladder
    values of levels k - r .. k - 1 and k - p .. k - 1, for
    max(p, r) <= k <= 2s.  Read-only, as every caller shares it.
    """
    f, lo = _ladder(two_s), max(p, r)
    values = (0.5 * two_s - np.arange(lo, two_s + 1)) ** q
    for l in [*range(1, r + 1), *range(1, p + 1)]:
        values = values * f[lo - l:two_s + 1 - l]
    values.flags.writeable = False
    return values


def _monomial_matrix(two_s: int, p: int, q: int, r: int) -> np.ndarray:
    """Dense S+^p S3^q S-^r, its diagonal written from (max(p, r) - p,
    max(p, r) - r) on: a step of dim + 1 in the flat matrix is one step down
    the diagonal."""
    dim, lo = two_s + 1, max(p, r)
    values = _monomial_diagonal(two_s, p, q, r)
    m = np.zeros((dim, dim))
    m.reshape(-1)[(lo - p) * dim + lo - r::dim + 1][:values.size] = values
    return m


def hamiltonian_matrix(spec: HamiltonianSpec, t=0.0) -> np.ndarray:
    """Dense matrix of H(t) = sum_p f_p(t) H_p in the m-descending basis.

    t may also be a 1-D array of times; the result is then the
    (len(t), dim, dim) stack of H at each time, from one contraction of the
    profile values f_p(t) with the H_p.
    """
    t = np.asarray(t, dtype=float)
    f = np.array([term.factor(t) for term in spec._profiles], dtype=complex)
    h = f.reshape(len(f), t.size).T @ spec._h_parts
    return h.reshape(t.shape + (spec.spin.dim,) * 2)


def h_expectation(fv: FiducialVector, spec: HamiltonianSpec, omega, t=0.0):
    """<Omega|H(t)|Omega> at the angles given, one point or a stack (see
    coherent_state), at a time or times that broadcast against the points:
    sum_p f_p(t) <Omega|H_p|Omega> over the per-profile H_p, with no stack
    of H(t) matrices.  A float for one point and time, else an array.
    Raises LengthMismatch unless the spec's spin is the fiducial's."""
    _check_spin(fv, spec)
    v = coherent_state(fv, omega).amplitudes
    e = np.zeros(np.broadcast_shapes(v.shape[:-1], np.shape(t)))
    for term, h in zip(spec._profiles, spec._h_parts):
        e += term.factor(t) * np.vecdot(v, v @ h.reshape(fv.spin.dim, -1).T).real
    return float(e) if e.ndim == 0 else e


def h_ratio(fv: FiducialVector, spec: HamiltonianSpec, omega2, omega1, t: float = 0.0) -> complex:
    """<Omega2|H(t)|Omega1> / <Omega2|Omega1>, both states from one
    coherent_state call at the angles given.

    Raises OrthogonalPair when the overlap magnitude is at or below 1e-12,
    LengthMismatch unless the spec's spin is the fiducial's.
    """
    _check_spin(fv, spec)
    v2, v1 = coherent_state(fv, (omega2, omega1)).amplitudes
    o = complex(np.vdot(v2, v1))
    if abs(o) <= _ZERO_OVERLAP:
        raise OrthogonalPair(f"|<Omega2|Omega1>| = {abs(o):.3e} is too small to divide by")
    return complex(np.vdot(v2, hamiltonian_matrix(spec, t) @ v1)) / o


def midpoint_product(spec: HamiltonianSpec, t_i: float, t_f: float, n_steps: int,
                     hbar: float = 1.0) -> np.ndarray:
    """Product of n_steps midpoint-sampled matrix exponentials from scipy
    expm: the second-order reference that exact_propagator is checked
    against, independent of its eigh exponentials.  H at the midpoints comes
    from stacked hamiltonian_matrix calls, in blocks of at most
    _H_BLOCK_ENTRIES entries.  Raises NotFinite for a non-finite time or
    hbar, ValueError for hbar <= 0 or n_steps < 1."""
    _check_times(t_i, t_f, hbar)
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    eps = (t_f - t_i) / n_steps
    block = max(1, _H_BLOCK_ENTRIES // spec.spin.dim ** 2)
    u = np.eye(spec.spin.dim, dtype=complex)
    for start in range(0, n_steps, block):
        j = np.arange(start, min(start + block, n_steps))
        for h in hamiltonian_matrix(spec, t_i + (j + 0.5) * eps):
            u = expm(-1j * eps / hbar * h) @ u
    return u


def _cf4_product(spec: HamiltonianSpec, t_i: float, t_f: float, n_steps: int,
                 hbar: float) -> np.ndarray:
    """n_steps steps of the fourth-order commutator-free Magnus scheme
    (Alvermann & Fehske, J. Comput. Phys. 230:5930, 2011): with H_1, H_2 at
    the Gauss-Legendre nodes of a step of length eps, the step is
    exp(-i eps (a1 H_1 + a2 H_2)/hbar) exp(-i eps (a2 H_1 + a1 H_2)/hbar).
    The factor that weights the later node more goes on the left; swapped,
    the scheme is only second order.  H comes from two stacked
    hamiltonian_matrix calls per block of at most _H_BLOCK_ENTRIES entries
    each, and both factors of every step in the block from one eigh on the
    stacked Hermitian exponents, as V diag(exp(-i eps lam/hbar)) V^H.  A
    block's factors, in time order, are multiplied pairwise in stacked
    products, the later factor of each pair on the left, until one is left."""
    eps = (t_f - t_i) / n_steps
    dim = spec.spin.dim
    block = max(1, _H_BLOCK_ENTRIES // dim ** 2)
    (c1, c2), (a1, a2) = _CF4_NODES, _CF4_WEIGHTS
    u = np.eye(dim, dtype=complex)
    for start in range(0, n_steps, block):
        t = t_i + eps * np.arange(start, min(start + block, n_steps))
        h1, h2 = hamiltonian_matrix(spec, t + c1 * eps), hamiltonian_matrix(spec, t + c2 * eps)
        # per step, the right factor's exponent, then the left one's
        lam, v = np.linalg.eigh(np.stack((a2 * h1 + a1 * h2, a1 * h1 + a2 * h2), axis=1))
        f = ((v * np.exp((-1j * eps / hbar) * lam)[..., None, :])
             @ v.conj().swapaxes(-1, -2)).reshape(-1, dim, dim)
        while len(f) > 1:
            even = len(f) // 2 * 2
            # an odd count carries its last (latest) factor to the next round
            f = np.concatenate((f[1:even:2] @ f[0:even:2], f[even:]))
        u = f[0] @ u
    return u


def exact_propagator(spec: HamiltonianSpec, t_i: float, t_f: float,
                     hbar: float = 1.0) -> np.ndarray:
    """Time-ordered evolution matrix for H(t) over [t_i, t_f].

    Fourth-order commutator-free Magnus products (_cf4_product) with the
    step count doubled until two successive refinements differ by less than
    1e-10 (_ORACLE_TOL) in Frobenius norm; the converged matrix is checked
    for unitarity at the same tolerance per dimension.  A static H settles
    at the first doubling; the driven spin-1/2 of the tests, on [0, 2], at
    the eighth.  Raises NoConvergence after 24 doublings (or on a unitarity
    defect), NotFinite for a non-finite time or hbar, and ValueError for
    hbar <= 0 or t_f < t_i.
    """
    _check_times(t_i, t_f, hbar)
    if t_f < t_i:
        raise ValueError(f"t_f={t_f} must be >= t_i={t_i}")
    dim = spec.spin.dim
    if t_f == t_i:
        return np.eye(dim, dtype=complex)
    u_prev = _cf4_product(spec, t_i, t_f, 1, hbar)
    for k in range(1, 25):
        u = _cf4_product(spec, t_i, t_f, 2 ** k, hbar)
        if np.linalg.norm(u - u_prev) < _ORACLE_TOL:
            defect = np.linalg.norm(u.conj().T @ u - np.eye(dim))
            if not defect <= _ORACLE_TOL * dim:
                raise NoConvergence(f"converged matrix has unitarity defect {defect:.3e}")
            return u
        u_prev = u
    raise NoConvergence(f"Magnus products did not settle below {_ORACLE_TOL} after 24 doublings")


class _PairTerms(NamedTuple):
    """What the M3 kernel from the states src to the states dst (rows of
    amplitudes) takes from the pair alone, and the scratch that every
    _kernel_entries call on the pair reuses; see _pair_terms."""

    bra: np.ndarray    # the conjugated dst rows
    o: np.ndarray      # overlaps o[g, g'] = <dst[g]|src[g']>
    bound: np.ndarray  # the guard bound |o|/2
    inv: np.ndarray    # 1/o, 0 where o = 0
    x: np.ndarray      # complex scratch: the scaled H elements, then the kernel
    f: np.ndarray      # (3,) + o.shape float scratch


def _pair_terms(dst: np.ndarray, src: np.ndarray) -> _PairTerms:
    """The parts of the M3 kernel from the states src to the states dst that
    H does not touch, with the scratch of every slice that shares them.
    1/o is conj(o) (1/|o|) (1/|o|) from one real reciprocal, which neither
    divides complex numbers nor squares |o| (that would underflow for
    |o| < 1e-154).  o, 1/o, x, the bound and f are views of one float64
    block, freed together: glibc keeps the pages of one freed block for
    the next call, while separate arrays that sum past its trim threshold
    go back to the system and fault in again on every call."""
    bra = dst.conj()
    n, m = len(dst), len(src)
    block = np.empty(10 * n * m)
    o, inv, x = block[:6 * n * m].view(complex).reshape(3, n, m)
    rest = block[6 * n * m:].reshape(4, n, m)
    bound, f = rest[0], rest[1:]
    np.matmul(bra, src.T, out=o)
    r = np.abs(o, out=f[0])
    np.multiply(r, _M3_GUARD, out=bound)
    np.divide(1.0, r, out=r, where=r != 0)
    np.conjugate(o, out=inv)
    inv *= r
    inv *= r
    return _PairTerms(bra, o, bound, inv, x, f)


def _exp_small(y: np.ndarray, f: np.ndarray) -> np.ndarray:
    """exp(y) in place for complex y with |Im y| < pi, by float64 tan and
    exp only: exp(a + ib) = e^a (1 - t^2 + 2it) / (1 + t^2) with t =
    tan(b/2).  Unlike complex exp, sin and cos, those two run vectorized;
    the M3 exponents (|y| < 1/2) agree with np.exp to 7e-16 relative.  f is
    float scratch of shape (3,) + y.shape."""
    e, t, d = f
    np.multiply(y.imag, 0.5, out=t)
    np.tan(t, out=t)
    np.copyto(e, y.real)  # exp on a strided view runs at a third of the speed
    np.exp(e, out=e)
    np.square(t, out=d)
    d += 1.0
    e /= d
    np.subtract(2.0, d, out=d)
    np.multiply(e, d, out=y.real)
    t += t
    np.multiply(e, t, out=y.imag)
    return y


def _kernel_entries(pair: _PairTerms, x: np.ndarray):
    """Elementwise M3 short-time kernel from the pair terms of _pair_terms
    and the scaled elements x = -i (eps/hbar) <''|H|'>, which it overwrites
    with the kernel and returns, with the count of linearized entries.

    The exponentiated ratio o*exp(x/o) is used only where |x| < |o|/2 (the
    regime where it approximates the product form o + x to O(eps^2) per
    entry) and the linearized form elsewhere, which keeps near-orthogonal
    pairs from blowing up exp.  Symmetric grids do hit exact overlap zeros
    on a non-negligible pair fraction for low spin, so dropping such entries
    outright would leave a slice-count-independent bias in the chain.  The
    linearized entries (0.2-16% of them in M3 chains at two_s 1-2) are
    gathered and their exponents zeroed before _exp_small, so no entry can
    overflow; every other pass runs over the whole array in the pair's
    scratch: the guard, the ratio x*(1/o), the exp and the product with o.
    """
    fall = np.flatnonzero(~(np.abs(x, out=pair.f[0]) < pair.bound))
    linear = np.take(pair.o, fall) + np.take(x, fall)
    np.multiply(x, pair.inv, out=x)
    np.put(x, fall, 0.0)
    _exp_small(x, pair.f)
    x *= pair.o
    np.put(x, fall, linear)
    return x, len(fall)


def _kernel_step(dst: np.ndarray, src: np.ndarray, h: np.ndarray, c: np.ndarray,
                 eps_over_hbar: float, pair=None):
    """One chain step c -> K @ c, with K[g, g'] the M3 kernel of h from the
    state src[g'] to the state dst[g] (rows of amplitudes), built in row
    blocks of at most _KERNEL_BLOCK_ENTRIES entries to bound memory.  pair
    is the _pair_terms of (dst, src) computed by the caller, given only when
    K fits in one block; without it each block computes its own.  K is
    built in the pair's scratch x.  Returns K @ c, the fallback count and
    the last row block of K (all of K when it fit in one block)."""
    h_src = ((-1j * eps_over_hbar) * h) @ src.T
    out = np.empty(len(dst), dtype=complex)
    zeroed = 0
    block = max(1, _KERNEL_BLOCK_ENTRIES // len(src))
    for start in range(0, len(dst), block):
        terms = pair if pair is not None else _pair_terms(dst[start:start + block], src)
        k, z = _kernel_entries(terms, np.matmul(terms.bra, h_src, out=terms.x))
        zeroed += z
        out[start:start + block] = k @ c
    return out, zeroed, k


def _m3_chain(nodes, hs, c: np.ndarray, eps_over_hbar: float, static: bool):
    """Apply c -> K_j @ (w_j * c) for each slice Hamiltonian hs[j], with K_j
    its M3 kernel from the node set nodes[j] = (amplitudes, weights) to
    nodes[j + 1]; return c on the last node set, the summed fallback count
    and the number of kernel entries applied.

    What H does not touch is computed once per call: when the grid-to-grid
    kernel fits in one row block, the pair terms (overlaps, guard bound,
    1/o, scratch) of the grid with itself are built at the first
    grid-to-grid step and serve every later one.  Per slice there remain
    one matmul for the scaled H elements and the entry passes of
    _kernel_entries, all in that scratch.  When static (every hs[j] is the
    same H) a one-block grid-to-grid kernel is itself reused, with its
    fallback count, at the rest of the steps; no later step rebuilds it, so
    it can stay in the pair's scratch.  Above one row block every step
    builds its kernel, pair terms included, block by block.  A reused
    kernel counts its entries and fallbacks once per use.
    """
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


def _check_spin(fv: FiducialVector, spec: HamiltonianSpec):
    if spec.spin != fv.spin:
        raise LengthMismatch(f"spec spin {spec.spin} differs from fiducial spin {fv.spin}")


def _check_times(t_i: float, t_f: float, hbar: float):
    if not (math.isfinite(t_i) and math.isfinite(t_f)):
        raise NotFinite(f"t_i={t_i} and t_f={t_f} must be finite")
    _check_hbar(hbar)


def _check_hbar(hbar: float):
    """The one hbar rule: NotFinite unless finite, ValueError unless > 0."""
    if not math.isfinite(hbar):
        raise NotFinite(f"hbar={hbar} must be finite")
    if hbar <= 0:
        raise ValueError(f"hbar must be > 0, got {hbar}")


def _check_grid(fv: FiducialVector, spec: HamiltonianSpec, grid: QuadratureGrid,
                t_i: float, t_f: float, n_slices: int, mode: str, hbar: float):
    _check_times(t_i, t_f, hbar)
    _check_spin(fv, spec)
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
    _check_grid(fv, spec, grid, t_i, t_f, n_slices, mode, hbar)
    eps = (t_f - t_i) / (n_slices + 1)
    # H at the slice times t_i + j eps; a static spec's one matrix serves
    # every slice, broadcast over them, not copied
    h = hamiltonian_matrix(spec, t_i + eps * np.arange(n_slices + 1)
                           if spec.time_dependent else t_i)
    stack = (n_slices + 1,) + h.shape[-2:]
    n_zeroed, fallback, p = 0, None, None

    if mode == "M3":
        a = grid_amplitudes(fv, grid)
        on_grid = (a, grid.measure_weights(fv.spin))
        if grid_ends:
            start, end, c, readout = on_grid, on_grid, a.conj() @ ket_i, a @ ket_f.conj()
        else:
            one = np.ones(1)
            start, end, c, readout = (ket_i[None], one), (ket_f[None], one), one, one
        # an overflow here is reported below as the chain's, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            c, n_zeroed, entries = _m3_chain([start] + [on_grid] * n_slices + [end],
                                             np.broadcast_to(h, stack), c, eps / hbar,
                                             not spec.time_dependent)
            amplitude = complex(readout @ (end[1] * c))
        fallback = n_zeroed / entries
        # the guard keeps every exponent below 1/2, so only a step whose
        # linearized entries o - i eps h/hbar are huge can overflow
        cause = ("the M3 chain's step eps H/hbar overflowed; "
                 "take more slices or a shorter span")
    else:
        # the projector sum_g w_g |O_g><O_g| is the transposed fiducial Gram
        p = _grid_gram(grid, fv.spin, fv.coeffs, fv.coeffs).T
        if grid_ends:
            ket_i, ket_f = p @ ket_i, p @ ket_f
        # an overflow here is reported below as the chain's, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            # the slice transfers a_j = 1 - i (eps/hbar) H_j, formed once per call
            a = np.broadcast_to(np.eye(len(p)) - (1j * eps / hbar) * h, stack)
            v = a[0] @ ket_i
            for a_j in a[1:]:
                v = a_j @ (p @ v)
            amplitude = complex(np.vdot(ket_f, v))
        cause = ("the Euler chain of steps 1 - i eps H/hbar overflowed; "
                 "take more slices or a shorter span")

    if not np.isfinite(amplitude.real) or not np.isfinite(amplitude.imag):
        raise NumericalFailure(f"mode {mode} amplitude is not finite ({cause})")
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

    The endpoint states are built at the angles given, so with the zero
    Hamiltonian every mode collapses to overlap(fv, omega_f, omega_i) up to
    roundoff for any slice count and spin, since each grid sum is an exact
    resolution of unity.
    """
    amps_i, amps_f = coherent_state(fv, (omega_i, omega_f)).amplitudes
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
        if not abs(np.linalg.norm(ket) - 1.0) <= 1e-10:
            raise NotNormalized(f"{name} has norm {np.linalg.norm(ket):.12f}")
    return _path_sum(fv, spec, grid, ket_i, ket_f, t_i, t_f, n_slices, mode, hbar,
                     grid_ends=True)[0]


def infinitesimal_overlap(fv: FiducialVector, omega, delta_omega) -> complex | np.ndarray:
    """First-order overlap <Omega + dOmega|Omega> = 1 + i kappa(dOmega), with
    geometry.kinetic_term at the displaced (bra) point.  omega and
    delta_omega are points or (..., 3) stacks that broadcast: a complex for
    one pair, an array for a stack.  Raw angles are accepted and not
    folded, so the deviation from the exact overlap is O(|dOmega|^2) for
    every theta.  Raises NotFinite or LengthMismatch for a bad
    delta_omega."""
    delta_omega = _velocity(delta_omega, "delta_omega")
    with np.errstate(over="ignore"):
        bra = np.stack(np.broadcast_arrays(*_angles_of(omega)), axis=-1) + delta_omega
    kappa = kinetic_term(fv, bra, delta_omega)
    return complex(1.0, kappa) if np.ndim(kappa) == 0 else 1.0 + 1j * kappa


def action_along_path(fv: FiducialVector, spec: HamiltonianSpec, path,
                      hbar: float = 1.0) -> float:
    """hbar * geometric_phase(fv, path) - the trapezoid integral of <H>
    along a sampled path of rows (t, phi, theta, psi), with <H> at every
    row from one h_expectation call on the stacked angles and times.
    Raises PathTooShort below 2 samples, NotFinite for a non-finite row or
    hbar, ValueError for hbar <= 0, TimesNotMonotone unless the times are
    strictly monotone, LengthMismatch unless the spec's spin is the
    fiducial's, and NumericalFailure when a velocity, the phase, the
    energy integral or the action overflows."""
    _check_hbar(hbar)
    path = np.asarray(path, dtype=float)
    kinetic = geometric_phase(fv, path)
    energies = h_expectation(fv, spec, path[:, 1:], path[:, 0])
    with np.errstate(over="ignore", invalid="ignore"):
        energy = _trapezoid(energies, path[:, 0])
        action = hbar * kinetic - energy
    if not math.isfinite(action):
        raise NumericalFailure(f"the action overflows to {action} (hbar * phase = "
                               f"{hbar} * {kinetic}, energy integral {energy})")
    return action
