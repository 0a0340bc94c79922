"""Exception hierarchy shared by all modules.

Three coarse classes matter for callers (and for the CLI exit codes):
malformed input, precision exhaustion, and violated mathematical
preconditions.  Everything raised by this package derives from
PadicLieError.
"""


class PadicLieError(Exception):
    """Base class for all errors raised by padiclie."""


class InvalidInput(PadicLieError):
    """Malformed literals, out-of-range parameters, unusable arguments."""


class ParseError(InvalidInput):
    """A scalar or matrix literal does not match the grammar."""


class InvalidParameters(InvalidInput):
    """Parameters outside the documented range of a named family."""


class DenominatorZero(InvalidInput):
    """Rational input with denominator zero."""


class UnsupportedPrime(PadicLieError):
    """p = 2 is outside the scope of every algorithm here."""


class PrecisionLoss(PadicLieError):
    """A decision would need digits beyond the working precision window."""


class PreconditionViolated(PadicLieError):
    """A documented mathematical precondition does not hold."""


class ZeroInput(PreconditionViolated):
    """Operation undefined on the exact zero scalar."""


class ZeroInverse(PreconditionViolated):
    """Inversion of the exact zero scalar."""


class NotSymmetric(PreconditionViolated):
    """Matrix argument must be symmetric."""


class Degenerate(PreconditionViolated):
    """Matrix argument must have nonzero determinant."""


class ValuationMismatch(PreconditionViolated):
    """Two diagonal entries were required to share their valuation."""


class NotDiagonal(PreconditionViolated):
    """Matrix argument must be diagonal."""


class NotLie(PreconditionViolated):
    """Structure matrix does not define a Lie bracket (Jacobi fails)."""


class NotSubalgebra(PreconditionViolated):
    """Submodule is not closed under the bracket."""


class NotIndexPSelfSimilar(PreconditionViolated):
    """Construction requested for a class with no index-p endomorphism."""


class NotAnIdeal(PreconditionViolated):
    """Submodule is not an ideal of the ambient algebra."""


class PathDisagreement(PadicLieError):
    """Two independent computation routes disagreed; indicates a bug."""
