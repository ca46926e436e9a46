"""Exception taxonomy shared by every module in the package.

Each base class carries the process exit code the CLI returns for it, as
``exit_code``, and every other class inherits the code of its base, so
the class hierarchy decides the code.  Error is 1, and so is
MalformedInputError, for anything that means "the input was bad", the
shape caps on the dimension d and the entry degree
(DimensionTooLargeError) among them; SingularMatrixError is 2;
CapExceededError, for "a documented computational cap was hit" (field
size, --max and --terms, the factoring step budget), is 3; and
InternalInvariantError, for "an internal consistency check failed", is 4.
"""


class Error(Exception):
    """Base class for all package errors."""

    exit_code = 1


class MalformedInputError(Error):
    """Input data does not satisfy a documented precondition."""


class NotPrimeError(MalformedInputError):
    """The requested field characteristic is not prime."""


class ReducibleModulusError(MalformedInputError):
    """A user-supplied field modulus is reducible."""


class DegreeMismatchError(MalformedInputError):
    """A coefficient sequence has the wrong length or leading term."""


class DimensionTooLargeError(MalformedInputError):
    """Matrix dimension or entry degree above the documented cap."""


class ZeroElementError(Error):
    """Multiplicative order of zero requested."""


class RootIsZeroError(Error):
    """Order of the residue class of X requested modulo a multiple of X."""


class ReducibleError(Error):
    """An operation requiring an irreducible polynomial got a reducible one."""


class BothZeroError(Error):
    """gcd(0, 0) requested."""


class NonMonicModulusError(Error):
    """Modular exponentiation needs a monic modulus."""


class ZeroInputError(Error):
    """Zero polynomial or rational function where a nonzero one is required."""


class NonMonicError(Error):
    """A monic polynomial is required here."""


class NonIntegralError(Error):
    """Polynomial coefficients must lie in the polynomial ring, not the
    fraction field."""


class ZeroRootError(Error):
    """Zero is a root where only nonzero roots are meaningful."""


class ZeroConstantTermError(Error):
    """The constant term vanishes, so the polynomial has a zero root."""


class SingularMatrixError(Error):
    """The matrix (or the relevant difference with the identity) is singular."""

    exit_code = 2


class CapExceededError(Error):
    """A documented computational size cap was exceeded."""

    exit_code = 3


class NotAlgebraicError(Error):
    """Closed form requested for a zeta function that has none."""


class InternalInvariantError(Error):
    """An internal cross-check failed; indicates a bug, not bad input."""

    exit_code = 4


class NonNegativeWeightError(InternalInvariantError):
    """A magnitude that must be strictly below one came out at or above it."""
