"""Exception hierarchy shared by all igusazeta modules."""


class ZetaError(Exception):
    """Base class for every domain error raised by this package."""


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
    """A branch's chain in the lifting tree, or the root counts, break the ceiling law.

    This signals an internal bug rather than bad input; it is raised
    instead of being silently patched over.  Besides the message it carries
    what was observed; an attribute that does not apply is None.
    `prefix` and `used` are a chain's digit prefix and the used precisions
    along it, `multiplicities` the branch multiplicities, `degree` the
    degree they must not exceed, and `counts` the root counts N_0 .. N_k.
    """

    def __init__(
        self,
        message: str,
        *,
        prefix: tuple[int, ...] | None = None,
        used: tuple[int, ...] | None = None,
        multiplicities: tuple[int, ...] | None = None,
        degree: int | None = None,
        counts: tuple[int, ...] | None = None,
    ):
        super().__init__(message)
        self.prefix, self.used = prefix, used
        self.multiplicities, self.degree, self.counts = multiplicities, degree, counts


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
    Besides the message it carries what was observed: `modulus` (p^k) and
    `limit` (the budget) for a refusal, or `size` (the level's number of
    candidates, or of roots) for a level that did not fit; the others are
    None.
    """

    def __init__(
        self,
        message: str,
        *,
        modulus: int | None = None,
        limit: int | None = None,
        size: int | None = None,
    ):
        super().__init__(message)
        self.modulus, self.limit, self.size = modulus, limit, size


class ParseError(ZetaError):
    """Polynomial syntax error. `position` is a 0-based index into the input string."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class VariableError(ParseError):
    """A symbol other than the variable x appeared in a polynomial string."""
