"""Exception hierarchy and the immutable record base shared by all modules.

Three coarse classes matter for callers (and for the CLI exit codes):
malformed input, precision exhaustion, and violated mathematical
preconditions.  Everything raised by this package derives from
PadicLieError.
"""

from operator import attrgetter

_set = object.__setattr__  # how a Record's __init__ writes its fields


class Record:
    """Base of the package's immutable result records.

    A subclass names its fields, in order, in __slots__ and writes them with
    _set in its own __init__; no code is generated at import.  Equality
    (with a record of the same class only), hash and repr read every field
    but those in _hidden, as a frozen dataclass would; assigning to a field
    raises AttributeError.
    """

    __slots__ = ()
    _hidden = ()

    def __init_subclass__(cls):
        cls._fields = tuple(f for f in cls.__slots__ if f not in cls._hidden)
        get = attrgetter(*cls._fields)
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda r: (get(r),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild the record through __init__
        return self.__class__, tuple(getattr(self, f) for f in self.__slots__)


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
