"""Exception hierarchy shared by all igusazeta modules."""


class ZetaError(Exception):
    """Base class for every domain error raised by this package.

    Besides the message, an error carries what was observed: each name in
    its class's `observed` is an attribute, set from the keyword of that
    name and None when it is not given.  Any other keyword is a TypeError.
    """

    observed: tuple[str, ...] = ()

    def __init__(self, message: str, **values):
        for name in values:
            if name not in self.observed:
                raise TypeError(f"{type(self).__name__} got an unexpected keyword {name!r}")
        super().__init__(message)
        for name in self.observed:
            setattr(self, name, values.get(name))


class ArgumentError(ZetaError, ValueError):
    """An argument lies outside the operation's domain: a p that is not a
    prime, a negative precision, an exponent or order below zero, an inexact
    division.  It is a ValueError too, for callers that catch that.
    """


class ZeroPolynomial(ZetaError):
    """The operation is undefined for the zero polynomial."""


class DegreeZero(ZetaError):
    """The operation requires a polynomial of degree at least one."""


class IdenticallyZeroModP(ZetaError):
    """The polynomial vanishes identically modulo p."""


class InconsistentLengths(ZetaError):
    """A branch's chain in the lifting tree breaks the ceiling law, a digit
    the tree substitutes is no root mod p, or a squarefree part has
    discriminant 0.

    This signals an internal bug rather than bad input; it is raised
    instead of being silently patched over.  Of what it observed,
    `prefix` and `used` are a chain's digit prefix and the used precisions
    along it, `multiplicities` the branch multiplicities, and `degree` the
    degree they must not exceed.
    """

    observed = ("prefix", "used", "multiplicities", "degree")


class RegimeViolation(ZetaError):
    """A closed-form root count was requested below the stable precision."""


class DivisionByZero(ZetaError):
    """A rational function was given a zero denominator."""


class PoleAtZero(ZetaError):
    """A power-series expansion at t = 0 does not exist (denominator vanishes there)."""


class BudgetExceeded(ZetaError):
    """The brute-force oracle refuses an enumeration.

    It is raised before anything is allocated when p^k exceeds the caller's
    budget.  It replaces the MemoryError raised when one level of candidate
    residues, or the grouping of its roots, does not fit in memory.
    Of what it observed, `modulus` (p^k) and `limit` (the budget) are given
    for a refusal, and `size` (the level's number of candidates, or of
    roots) for a level that did not fit.
    """

    observed = ("modulus", "limit", "size")


class ParseError(ZetaError):
    """Polynomial syntax error. `position` is a 0-based index into the input string."""

    observed = ("position",)

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message, position=position)


class VariableError(ParseError):
    """A symbol other than the variable x appeared in a polynomial string."""
