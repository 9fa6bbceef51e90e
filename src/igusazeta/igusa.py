"""Main pipeline: branch parameters, closed-form root counts, Poincare series,
and the Igusa local zeta function of an integer univariate polynomial at a prime.

The computation never factors anything over the p-adic integers.  For
f = p^c * g the lifting tree is walked to c + k0, k0 the stability threshold
of g.  Each p-adic root branch is read off it: a chain of single children
whose used precision grows by the same step at every level.  That step is
the branch's multiplicity, and the chain's top record gives its valuation.
P is the root counts below c + k0 plus one geometric tail per branch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ArgumentError, InconsistentLengths, RegimeViolation
from .exactpoly import (
    IntPoly,
    content_and_primitive,
    decimal_text,
    discriminant,
    squarefree_part,
    valuation,
)
from .padic import _LiftingTree, _squarefree_mod_p, check_prime, count_roots
from .padic import representative_roots  # noqa: F401  rebound by benchmarks/tracer.py
from .ratfun import RationalFunction


@dataclass(frozen=True)
class BranchParams:
    """Parameters of one p-adic root branch of f.

    multiplicity: multiplicity of the branch's p-adic root.
    valuation: p-adic valuation of the branch-free part of f at the root.
    k_align: least precision >= the stability threshold at which
        (k_align - valuation) is divisible by multiplicity.
    prefix: digit string identifying the branch at the stability threshold.
    """

    multiplicity: int
    valuation: int
    k_align: int
    prefix: tuple[int, ...]

    def __post_init__(self):
        if self.multiplicity < 1:
            raise ArgumentError("multiplicity must be positive")
        if self.valuation < 0:
            raise ArgumentError("valuation must be nonnegative")
        if (self.k_align - self.valuation) % self.multiplicity:
            raise ArgumentError("k_align is not aligned with the branch parameters")

    def prefix_length(self, k: int) -> int:
        """Length of the branch's representative root at precision k:
        ceil((k - valuation) / multiplicity), the ceiling law."""
        return -(-(k - self.valuation) // self.multiplicity)

    def to_json_dict(self) -> dict:
        return {
            "e": self.multiplicity,
            "nu": self.valuation,
            "k_align": self.k_align,
            "prefix": [decimal_text(d) for d in self.prefix],
        }


def discriminant_valuation(f: IntPoly, p: int) -> int:
    """p-adic valuation of the discriminant of the squarefree part of f.

    Finite for every nonzero f of degree >= 1, since the squarefree part has
    nonzero discriminant.  The content of f, p-power or not, is ignored:
    discriminant_valuation(2x^2 + 2, 2) is 2, the valuation for x^2 + 1.
    A p that is not a prime raises ArgumentError, checked first.

    When p does not divide lc(f) and f mod p is squarefree, it is 0 with no
    integer discriminant: Res(f, f') mod p is a unit times Res(f mod p,
    f' mod p), which is nonzero.  Only an f with a repeated factor, whose
    own discriminant is 0, needs the gcd(f, f').
    """
    check_prime(p)
    if _squarefree_mod_p(f, p):
        return 0
    d = discriminant(f.primitive())
    if d == 0:
        d = discriminant(squarefree_part(f))
    if d == 0:
        raise InconsistentLengths(f"f of degree {f.degree}: its squarefree part has discriminant 0")
    return valuation(d, p)


def _extract_branches(tree: _LiftingTree, c: int, d: int, k0: int) -> list[BranchParams]:
    """The branches of g, where f = p^c * g and g has degree d, read off the
    lifting tree of f: one per maximal representative root at precision
    c + k0, in prefix order.  Below such a node at depth D, the chain of
    single children, read to the tree's limit and to at least 3 records,
    has used precisions U_D, U_(D+1), ... that grow by one step e >= 1, the
    multiplicity.  Then nu = U_D - c - e*D must be >= 0, and k0 must lie on
    the chain: U_D - (c + k0) < e.  Leaves of the walk are expanded as the
    reader reaches them.
    """
    branches = []
    for n, prefix in tree._at(c + k0):
        _, _, depth, top = tree.nodes[n]
        used = [top]

        def chain_error(reason: str) -> InconsistentLengths:
            observed = f"prefix {prefix}, used precisions {', '.join(map(str, used))}"
            return InconsistentLengths(f"{observed}: {reason}", prefix=prefix, used=tuple(used))

        while used[-1] < tree.k or len(used) < 3:
            kids = tree._expand(n)
            if len(kids) != 1:
                raise chain_error(f"a chain node has {len(kids)} children")
            n = kids[0]
            used.append(tree.nodes[n][3])
        e = used[1] - used[0]
        if any(b - a != e for a, b in zip(used, used[1:])):
            raise chain_error("the steps are not one constant e")
        if top - (c + k0) >= e:
            raise chain_error(f"precision {c + k0} is not on the chain")
        nu = top - c - e * depth
        if nu < 0:
            raise chain_error(f"negative branch valuation {nu}")
        branches.append(BranchParams(e, nu, k0 + (nu - k0) % e, prefix))
    total = sum(b.multiplicity for b in branches)
    if total > d:
        raise InconsistentLengths(
            f"total branch multiplicity {total} exceeds the degree {d}",
            multiplicities=tuple(b.multiplicity for b in branches),
            degree=d,
        )
    return branches


def closed_form_count(
    branches: list[BranchParams] | tuple[BranchParams, ...], p: int, k: int, k0: int | None
) -> int:
    """Exact root count mod p^k from branch parameters, valid for k >= k0.

    With no branches the count is 0.  A constant primitive part has no
    stable precision (k0 is None), so no closed form applies to it.
    """
    if k0 is None:
        raise RegimeViolation("there is no stable precision: the primitive part is constant")
    if k < k0:
        raise RegimeViolation(f"precision {k} is below the stable threshold {k0}")
    return sum(p ** (k - b.prefix_length(k)) for b in branches)


def _run_pipeline(
    f: IntPoly, p: int, kmax: int | None = None
) -> tuple[ZetaReport, _LiftingTree]:
    """The report of f = p^c * g and the one lifting tree of f it is read
    from: the branches of g from the chains of the tree's maximal
    representative roots at precision top = c + k0, and P and Z from the
    root counts below top and the branches' closed form from top on.
    For a constant g, top = c + 1: P = 1 + t + ... + t^c has no tail.
    The tree is walked to top, or with kmax to max(c + kmax, c + k0 + 2d + 2),
    c + 4 for a constant g: every precision verify_instance checks.
    """
    c, g = content_and_primitive(f, p)
    delta = k0 = None
    top, deep = c + 1, c + 4
    if g.degree >= 1:
        delta = discriminant_valuation(g, p)
        k0 = g.degree * (delta + 1) + 1
        top, deep = c + k0, c + k0 + 2 * g.degree + 2
    tree = _LiftingTree(f, p, top if kmax is None else max(c + kmax, deep))
    branches = () if k0 is None else tuple(_extract_branches(tree, c, g.degree, k0))
    poincare, zeta = _poincare_and_zeta(p, tree.counts()[:top], branches, c)
    return ZetaReport(f, p, c, delta, k0, branches, poincare, zeta), tree


def _poincare_and_zeta(
    p: int, head: list[int], branches: tuple[BranchParams, ...], c: int
) -> tuple[RationalFunction, RationalFunction]:
    """P and Z of f = p^c * g, each reduced once: P is the head
    sum_(j < top) N_j (t/p)^j, from the root counts N_0 .. N_(top-1), plus
    one closed-form tail per branch b of g.

    From top on, b adds p^(-l) t^j to P, where l = b.prefix_length(j - c)
    grows by 1 every e = b.multiplicity precisions, so its tail is
    p * S_b / (p - t^e) with S_b = sum_(j = top)^(top + e - 1) p^(-l) t^j.
    Over p^s * prod (p - t^e), one factor per distinct e and s = top + max e,
    every coefficient is an integer.
    """
    top = len(head)
    s = top + max((b.multiplicity for b in branches), default=0)
    num, den = IntPoly(n * p ** (s - j) for j, n in enumerate(head)), IntPoly([1])
    for e in sorted({b.multiplicity for b in branches}):
        # P = num / (p^s * den) throughout; the branches of step e add
        # T_e / (p^s * (p - t^e)), where T_e sums p^(s + 1) * S_b over them.
        tail = [0] * top + [
            sum(p ** (s + 1 - b.prefix_length(j - c)) for b in branches if b.multiplicity == e)
            for j in range(top, top + e)
        ]
        factor = IntPoly([p] + [0] * (e - 1) + [-1])
        num = num * factor + IntPoly(tail) * den
        den = den * factor
    den = den * p**s
    # Z = (1 - (1 - t) P) / t; the shift is exact because P(0) = N_0 = 1.
    zeta_num = IntPoly((den - IntPoly((1, -1)) * num).coeffs[1:])
    return RationalFunction(num, den), RationalFunction(zeta_num, den)


@dataclass(frozen=True)
class ZetaReport:
    """Aggregate result of the full pipeline for one (f, p) input."""

    poly: IntPoly
    prime: int
    content_shift: int
    disc_valuation: int | None
    stable_precision: int | None
    branches: tuple[BranchParams, ...]
    poincare: RationalFunction
    zeta: RationalFunction

    @property
    def n(self) -> int:
        """Number of p-adic root branches."""
        return len(self.branches)

    def to_json_dict(self) -> dict:
        return {
            "poly": self.poly.to_text(),
            "prime": decimal_text(self.prime),
            "delta": self.disc_valuation,
            "k0": self.stable_precision,
            "n": self.n,
            "content_shift": self.content_shift,
            "branches": [b.to_json_dict() for b in self.branches],
            "poincare": self.poincare.to_json_dict(),
            "zeta": self.zeta.to_json_dict(),
        }

    def describe(self) -> str:
        lines = [
            f"polynomial: {self.poly.to_text()}",
            f"prime: {decimal_text(self.prime)}",
            f"content shift: {self.content_shift}",
            f"discriminant valuation: {self.disc_valuation}",
            f"stable precision: {self.stable_precision}",
            f"branches: {self.n}",
        ]
        for b in self.branches:
            prefix = ",".join(map(decimal_text, b.prefix)) or "-"
            lines.append(
                f"  prefix {prefix}: multiplicity {b.multiplicity},"
                f" valuation {b.valuation}, aligned precision {b.k_align}"
            )
        lines.append(
            f"poincare: {self.poincare.to_text()}"
            f"  [deg {self.poincare.num.degree} / deg {self.poincare.den.degree}]"
        )
        lines.append(f"zeta: {self.zeta.to_text()}")
        return "\n".join(lines)


def report(f: IntPoly, p: int) -> ZetaReport:
    """Run the whole pipeline once and package every result."""
    return _run_pipeline(f, p)[0]


# Not part of the package API: report(f, p).poincare and count_roots are.
# oracle imports these two names only so that benchmarks/tracer.py can rebind
# them there, and the tracer fails on a missing name.
def poincare_series(f: IntPoly, p: int) -> RationalFunction:
    return report(f, p).poincare


root_count = count_roots
