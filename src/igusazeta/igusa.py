"""Main pipeline: branch parameters, closed-form root counts, Poincare series,
and the Igusa local zeta function of an integer univariate polynomial at a prime.

The computation never factors anything over the p-adic integers.  Each p-adic
root branch of f is read off the lifting tree: past the stability threshold
it is a chain of single children, and the used precision grows by the same
step at every level of the chain.  That step is the branch's multiplicity,
and the chain's top record gives its value valuation.
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
    """
    return _discriminant_valuation(f, p)[0]


def _discriminant_valuation(f: IntPoly, p: int) -> tuple[int, bool]:
    """discriminant_valuation(f, p), and whether p does not divide lc(f) and
    f mod p is squarefree, which the pipeline also needs.

    In that case the answer is 0 and no integer discriminant is computed:
    Res(f, f') mod p is a unit times Res(f mod p, f' mod p), which is
    nonzero.  Otherwise a squarefree f is its own squarefree part up to
    content, and exactly then its discriminant is nonzero; only the rest
    needs the gcd(f, f').  p is checked to be a prime first.
    """
    check_prime(p)
    if _squarefree_mod_p(f, p):
        return 0, True
    d = discriminant(f.primitive())
    if d == 0:
        d = discriminant(squarefree_part(f))
    v = valuation(d, p)
    assert v != float("inf")
    return int(v), False


def stability_threshold(f: IntPoly, p: int) -> int:
    """The precision deg(f) * (delta + 1) + 1 beyond which the root counts of
    f mod p^k follow the closed form, where delta is the discriminant
    valuation of the squarefree part.
    """
    return f.degree * (discriminant_valuation(f, p) + 1) + 1


def extract_branches(f: IntPoly, p: int) -> list[BranchParams]:
    """Branch parameters of every p-adic root branch of a nonzero
    f = p^c * g: those of g, whose p-adic roots are the roots of f.
    """
    return list(report(f, p).branches)


def _extract_branches(tree: _LiftingTree, c: int, d: int, k0: int) -> list[BranchParams]:
    """The branches of g, where f = p^c * g and g has degree d, read off the
    lifting tree of f: one per maximal representative root at precision
    c + k0, in prefix order.  Below such a node at depth D, the chain of
    single children to the tree's limit has used precisions U_D, U_(D+1), ...
    that grow by one step e >= 1, the multiplicity.  Then nu = U_D - c - e*D
    must be >= 0, and k0 must lie on the chain: U_D - (c + k0) < e.
    """
    branches = []
    for n, prefix in tree._at(c + k0):
        _, _, depth, top = tree.nodes[n]
        used = [top]
        while used[-1] < tree.k and len(tree.kids[n]) == 1:
            n = tree.kids[n][0]
            used.append(tree.nodes[n][3])
        observed = f"prefix {prefix}, used precisions {', '.join(map(str, used))}"
        chain = {"prefix": prefix, "used": tuple(used)}
        if used[-1] < tree.k:
            raise InconsistentLengths(
                f"{observed}: a chain node has {len(tree.kids[n])} children below {tree.k}", **chain
            )
        if len(used) < 2:
            raise InconsistentLengths(f"{observed}: fewer than two records on the chain", **chain)
        e = used[1] - used[0]
        if any(b - a != e for a, b in zip(used, used[1:])):
            raise InconsistentLengths(f"{observed}: the steps are not one constant e", **chain)
        if top - (c + k0) >= e:
            raise InconsistentLengths(
                f"{observed}: precision {c + k0} is not on the chain", **chain
            )
        nu = top - c - e * depth
        if nu < 0:
            raise InconsistentLengths(f"{observed}: negative branch valuation {nu}", **chain)
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


# The root count of f mod p^k; the lifting tree handles the p-content.
root_count = count_roots


def _run_pipeline(
    f: IntPoly, p: int, kmax: int | None = None
) -> tuple[ZetaReport, _LiftingTree]:
    """The report of f = p^c * g and the one lifting tree of f it is read
    from: the branches of g from the chains of the tree's maximal
    representative roots at precision c + k0, each checked down to the
    tree's limit, and P and Z from the root counts below T = c + k0 + 2m,
    where m bounds the branch multiplicities.
    In general m = d, the degree of g.  When p does not divide lc(g) and
    g mod p is squarefree, every root mod p is simple, so by Hensel's lemma
    every branch has e = 1 and m = 1: den0 * P then has degree below
    c + k0 + 2, and every chain's top is at exactly c + k0, so the walk to
    T + 1 still leaves each chain 4 records and the fit check 2 coefficients.
    For a constant g, T = c + 2: then P = 1 + t + ... + t^c, so den0 * P has
    degree c + 1 below T.  The tree is walked to T + 1, or with kmax to
    max(c + kmax, c + k0 + 2d + 2), c + 4 for a constant g: every precision
    verify_instance checks.
    """
    c, g = content_and_primitive(f, p)
    delta = k0 = None
    branches = ()
    top = full = c + 2
    if g.degree >= 1:
        delta, simple = _discriminant_valuation(g, p)
        k0 = g.degree * (delta + 1) + 1
        full = c + k0 + 2 * g.degree
        top = c + k0 + 2 if simple else full
    tree = _LiftingTree(f, p, top + 1 if kmax is None else max(c + kmax, full + 2))
    if k0 is not None:
        branches = tuple(_extract_branches(tree, c, g.degree, k0))
    poincare, zeta = _poincare_and_zeta(
        p, tree.counts(), {b.multiplicity for b in branches}, top
    )
    return ZetaReport(f, p, c, delta, k0, branches, poincare, zeta), tree


def _poincare_and_zeta(
    p: int, counts: list[int], multiplicities: set[int], top: int
) -> tuple[RationalFunction, RationalFunction]:
    """P and Z, each read off the root counts N_0 .. N_last over a
    denominator known in advance and reduced once.

    From k0 on, N_k follows the closed form of the branches, so
    den0 * P is a polynomial of degree below top, where
    den0 = (1 - t) * prod (p - t^e) over the distinct branch multiplicities
    e.  The counts below top therefore fix that polynomial, and its
    coefficients from top through last must vanish.
    """
    multiplicities = sorted(multiplicities)
    one_minus_t = IntPoly((1, -1))
    den0 = one_minus_t
    for e in multiplicities:
        den0 = den0 * IntPoly([p] + [0] * (e - 1) + [-1])
    # sum_j N_j (t/p)^j, times p^last so that every coefficient is an integer
    last = len(counts) - 1
    head = (den0 * IntPoly(n * p ** (last - j) for j, n in enumerate(counts))).coeffs
    if any(head[top : last + 1]):
        raise InconsistentLengths(
            f"root counts at precisions {top}..{last} do not fit"
            f" the branch multiplicities {multiplicities}",
            counts=tuple(counts),
            multiplicities=tuple(multiplicities),
        )
    num = IntPoly(head[:top])
    den = den0 * p**last
    # Z = (1 - (1 - t) P) / t; the shift is exact because P(0) = N_0 = 1.
    zeta_num = IntPoly((den - one_minus_t * num).coeffs[1:])
    return RationalFunction(num, den), RationalFunction(zeta_num, den)


def poincare_series(f: IntPoly, p: int) -> RationalFunction:
    """The Poincare series of f at p: the generating function whose k-th
    Maclaurin coefficient is N_k / p^k, where N_k counts roots of f mod p^k.
    The result is an exact reduced rational function of t.
    """
    return report(f, p).poincare


def zeta_function(f: IntPoly, p: int) -> RationalFunction:
    """The Igusa local zeta function of f at p, as a rational function of
    t = p^(-s), recovered from the Poincare series P via
    Z = (1 - (1 - t) * P) / t.  The division by t is exact because P(0) = 1.
    """
    return report(f, p).zeta


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
