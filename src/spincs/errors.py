"""Exception and warning types shared across the package.

The names mirror the failure modes they signal, so call sites read like the
contract they enforce: ``raise DecompositionPole(...)`` at the theta = pi
coordinate singularity, ``raise OrthogonalPair(...)`` when a matrix-element
ratio is requested for (numerically) orthogonal states, and so on.
"""


class SpincsError(Exception):
    """Base class for all errors raised by this package."""


class ZeroVector(SpincsError):
    """A vector that must be normalizable has zero norm."""


class LengthMismatch(SpincsError):
    """A coefficient array does not match the dimension 2s + 1."""


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
    """A grid amplitude array would exceed the package's memory budget."""


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


class NumericalFailure(SpincsError):
    """A run completed but a numerical acceptance check failed."""
