"""Exact computation of root counts modulo prime powers, representative
roots, Poincare series, and Igusa local zeta functions of integer univariate
polynomials, with a built-in brute-force oracle for verification.

All arithmetic is exact (arbitrary-precision integers and rationals).  The
only floats are two sentinels: IntPoly().degree is -inf and valuation(0, p)
is inf.
"""

from .errors import (
    ArgumentError,
    BudgetExceeded,
    DegreeZero,
    DivisionByZero,
    IdenticallyZeroModP,
    InconsistentLengths,
    ParseError,
    PoleAtZero,
    RegimeViolation,
    VariableError,
    ZeroPolynomial,
    ZetaError,
)
from .exactpoly import (
    IntPoly,
    compose_linear,
    content_and_primitive,
    derivative,
    discriminant,
    poly_gcd,
    resultant,
    squarefree_part,
    valuation,
)
from .padic import (
    RepRoot,
    count_roots,
    is_prime,
    representative_roots,
    roots_mod_p,
)
from .ratfun import RationalFunction
from .igusa import (
    BranchParams,
    ZetaReport,
    closed_form_count,
    discriminant_valuation,
    report,
)
from .cli import parse_poly

__version__ = "0.1.0"

# Only verification uses the oracle, so it is imported on first use of one
# of its names (PEP 562) and report users skip the cost of its import.
_ORACLE_NAMES = {
    "CheckResult",
    "VerificationReport",
    "brute_count",
    "brute_rep_roots",
    "verify_instance",
}


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
