"""Exception hierarchy and the immutable record base shared by all modules.

Three coarse classes matter for callers (and for the CLI exit codes):
malformed input, precision exhaustion, and violated mathematical
preconditions.  Everything raised by this package derives from
PadicLieError.
"""

from operator import attrgetter


class Record:
    """Base of the package's immutable result records.

    A subclass's fields are its __slots__, in order; Record.__init__ binds
    them by position or keyword and raises TypeError on a missing, extra,
    unknown or repeated field.  A subclass that checks its fields does so in
    its own __init__ and then calls super().__init__; no code is generated
    at import.  Equality (with a record of the same class only), hash and
    repr read every field but those in _hidden, as a frozen dataclass would;
    assigning to a field raises AttributeError.
    """

    __slots__ = ()
    _hidden = ()

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for put, value in zip(setters, args):
            put(self, value)

    @classmethod
    def _bind(cls, args, kwargs):
        """All field values in __slots__ order, bound as a signature binds them."""
        names, given = cls.__slots__, len(args)
        rest = names[given:]
        if given + len(kwargs) == len(names):  # kwargs is exactly rest if it holds rest
            try:
                return args + tuple([kwargs[name] for name in rest])
            except KeyError:
                pass
        where = f"{cls.__qualname__}()"
        if given > len(names):
            raise TypeError(f"{where} takes {len(names)} fields but {given} were given")
        for name in kwargs:
            if name not in rest:
                how = "multiple values for" if name in names else "an unexpected"
                raise TypeError(f"{where} got {how} field {name!r}")
        missing = ", ".join(repr(name) for name in rest if name not in kwargs)
        raise TypeError(f"{where} is missing field(s) {missing}")

    def __init_subclass__(cls):
        # a field's slot descriptor writes it past the refusing __setattr__
        cls._setters = tuple(cls.__dict__[f].__set__ for f in cls.__slots__)
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
