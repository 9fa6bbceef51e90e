"""The pipeline against the split oracle on clustered split products
f = u * p^c * prod (x - a_i)^e_i with a_i = a0 + b_i * p^m_i, at precisions
far past the brute-force budget."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from igusazeta.exactpoly import IntPoly
from igusazeta.igusa import report
from igusazeta.padic import count_roots, representative_roots

from split_oracle import split_counts

K = 120


@st.composite
def clustered(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    u = draw(st.sampled_from([u for u in range(-2 * p, 2 * p + 1) if u % p]))
    c = draw(st.integers(0, 2))
    a0 = draw(st.integers(-(p**3), p**3))
    roots = []
    for _ in range(draw(st.integers(1, 3))):
        b, m = draw(st.integers(-(p**2), p**2)), draw(st.integers(0, 25))
        roots.append((a0 + b * p**m, draw(st.integers(1, 3))))
    f = IntPoly([u * p**c])
    for a, e in roots:
        f = f * IntPoly([-a, 1]) ** e
    return f, p, c, roots


def test_split_oracle_on_small_cases():
    # x^2 - 1 at 2: the odd residues mod 8 are one family, and from k = 4
    # on the roots are 4 residues in two; 4x at 2: all of Z/4 at k <= 2,
    # then the family 0 mod 2^(k - 2)
    assert [split_counts(2, 0, [(1, 1), (-1, 1)], k) for k in range(5)] == [
        (1, 1), (1, 1), (2, 1), (4, 1), (4, 2)
    ]
    assert [split_counts(2, 2, [(0, 1)], k) for k in (1, 2, 3, 5)] == [
        (2, 1), (4, 1), (4, 1), (4, 1)
    ]
    assert split_counts(3, 0, [], 2) == (0, 0)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(clustered())
def test_pipeline_matches_the_split_oracle(instance):
    f, p, c, roots = instance
    assert (count_roots(f, p, K), len(representative_roots(f, p, K))) == split_counts(
        p, c, roots, K
    )
    series = report(f, p).poincare.series(K)
    assert series == [Fraction(split_counts(p, c, roots, j)[0], p**j) for j in range(K + 1)]
