"""Exception and warning types shared across the package, and the entry
rules for every number that is not an Euler angle.

The names mirror the failure modes they signal, so call sites read like the
contract they enforce: ``raise DecompositionPole(...)`` at the theta = pi
coordinate singularity, ``raise OrthogonalPair(...)`` when a matrix-element
ratio is requested for (numerically) orthogonal states, and so on.

Euler angles enter through spin_core._point_of and _angles_of.  Every other
number enters through ``_finite`` (times, drive parameters, hbar,
velocities, quadrature nodes, alpha and the other canonical-side numbers)
or ``_count`` (two_s, exponents, slice and step counts, Fock levels), and
hbar through ``_check_hbar``, which adds its sign to ``_finite``.
"""

import cmath

import numpy as np


class SpincsError(Exception):
    """Base class for all errors raised by this package."""


class ZeroVector(SpincsError):
    """A vector that must be normalizable has zero norm."""


class LengthMismatch(SpincsError):
    """An array has the wrong length: 2s + 1 coefficients, one weight per node."""


class NotUnitary(SpincsError):
    """A matrix that must be (special) unitary fails the tolerance check."""


class NotNormalized(SpincsError):
    """A state or coordinate pair violates its normalization constraint."""


class NotHermitian(SpincsError):
    """The given Hamiltonian terms do not build Hermitian matrices."""


class DecompositionPole(SpincsError):
    """Gaussian decomposition requested at the theta = pi coordinate pole."""


class SubsidiaryViolation(SpincsError):
    """z-coordinates violate the constraint |z_plus| = |z_minus|."""


class ZOriginSingular(SpincsError):
    """z-chart kinetic term evaluated where its 1/|z_plus|^2 prefactor blows up."""


class GridTooCoarse(SpincsError):
    """An angular quadrature grid is not exact for the requested spin."""


class AmplitudesTooLarge(SpincsError):
    """A grid, its quadrature rule or a grid amplitude array would exceed the
    package's memory budget."""


class GridCoarseWarning(UserWarning):
    """Non-fatal variant of :class:`GridTooCoarse`: the value is still returned."""


class OrthogonalPair(SpincsError):
    """Matrix-element ratio requested for states with |overlap| below cutoff."""


class NoConvergence(SpincsError):
    """An adaptive refinement loop hit its iteration cap without converging."""


class InconsistentSystem(SpincsError):
    """A degenerate linear system has no solution within the residual bound."""


class PathTooShort(SpincsError):
    """A sampled path has fewer than two points."""


class TimesNotMonotone(SpincsError):
    """The sample times of a path are not strictly increasing or decreasing."""


class PoleMargin(SpincsError):
    """Contraction map evaluated outside its small-|alpha|/sqrt(2s) domain."""


class ConfigInvalid(SpincsError):
    """A run configuration fails schema validation."""


class NotFinite(SpincsError):
    """An input that must be a finite number is NaN or infinite."""


class NumericalFailure(SpincsError):
    """A run completed but a numerical acceptance check failed."""


def _finite(name: str, value, dtype=float, length: int = None):
    """value as a float (a complex where dtype is complex) for a scalar, or
    as an array whose last axis has length entries (any shape when length
    is None): the one rule for every number that is not an Euler angle.
    Raises TypeError for a complex entry where dtype is float, where a cast
    would drop its imaginary part, LengthMismatch quoting the shape given,
    and NotFinite naming the argument and its value (an array of more than
    8 entries by its first bad entry).  A finite Python scalar passes with
    no numpy call, and a float array is returned uncopied."""
    if length is None and isinstance(value, (int, float, dtype)) and cmath.isfinite(value):
        return dtype(value)
    a = np.asarray(value)
    if dtype is float and a.dtype.kind == "c":
        raise TypeError(f"{name} must be real, got complex entries: {a.tolist()}")
    a = a.astype(dtype, copy=False)
    if length is not None and a.shape[-1:] != (length,):
        raise LengthMismatch(f"{name} needs a last axis of length {length}, got shape {a.shape}")
    # count_nonzero costs half of .all() on the short arrays most callers pass
    if np.count_nonzero(np.isfinite(a)) < a.size:
        k = int(np.argmin(np.isfinite(a).ravel()))
        shown = a.tolist() if a.size <= 8 else f"<{a.shape} array, {a.flat[k]} at flat index {k}>"
        raise NotFinite(f"{name}={shown} must be finite")
    return a if a.ndim else dtype(a)


def _count(name: str, value, low: int) -> int:
    """value as an int >= low: the one rule for every count.  A bool, a float
    (2.0 included) or any other non-integer raises ValueError, as does an
    integer below low."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < low:
        raise ValueError(f"{name} must be >= {low} and an integer, got {value!r}")
    return int(value)


def _check_hbar(hbar) -> float:
    """hbar as a float by _finite, or ValueError unless it is > 0."""
    hbar = _finite("hbar", hbar)
    if hbar <= 0:
        raise ValueError(f"hbar must be > 0, got {hbar}")
    return hbar
