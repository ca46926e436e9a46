"""Exception taxonomy shared by every module in the package.

Error is the base of every package error.  Below it there is one class
per nonzero exit code, and the CLI returns the ``exit_code`` of the class
it catches: MalformedInputError, for anything that means "the input was
bad" (a non-prime p, a reducible modulus, the caps on the dimension d
and the entry degree, a zero or non-monic polynomial where a nonzero or
monic one is needed, a closed form asked of a transcendental zeta
function), is 1, as is Error itself; SingularMatrixError is 2;
CapExceededError, for "a documented computational cap was hit" (field
size, --max and --terms, the factoring step budget), is 3; and
InternalInvariantError, for "an internal consistency check failed", is 4.
The message, not the class, tells the failures of one code apart.
"""


class Error(Exception):
    """Base class for all package errors."""

    exit_code = 1


class MalformedInputError(Error):
    """Input data does not satisfy a documented precondition."""


class SingularMatrixError(Error):
    """The matrix (or the relevant difference with the identity) is singular."""

    exit_code = 2


class CapExceededError(Error):
    """A documented computational size cap was exceeded."""

    exit_code = 3


class InternalInvariantError(Error):
    """An internal cross-check failed; indicates a bug, not bad input."""

    exit_code = 4
