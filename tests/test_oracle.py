"""det, charpoly and factorint against sympy, an oracle outside the package.

Entries are lifted to Z[t], sympy takes the Berkowitz determinant over Z,
and the result is reduced mod p.  Only prime fields (e = 1), where a
packed field element is its own residue.
"""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import tpolys
from ffzeta import make_field
from ffzeta.gf import factorint
from ffzeta.polycore import polyring
from ffzeta.polymat import charpoly, det

sympy = pytest.importorskip("sympy")

t, x = sympy.symbols("t x")
PRIMES = (2, 3, 5, 7)


def lift(f):
    return sum(int(c) * t**i for i, c in enumerate(f.coeffs))


def reduced(expr, p, *gens):
    """{exponent tuple: coefficient in [0, p)} of expr mod p, zeros dropped."""
    terms = sympy.Poly(expr, *gens, modulus=p).terms()
    return {m: int(c) % p for m, c in terms if int(c) % p}


def sympy_det(A, p):
    M = sympy.Matrix([[lift(a) for a in row] for row in A])
    return reduced(M.det(method="berkowitz"), p, t)


def sympy_charpoly(A, p):
    d = len(A)
    M = x * sympy.eye(d) - sympy.Matrix([[lift(a) for a in row] for row in A])
    return reduced(M.det(method="berkowitz"), p, x, t)


def ours_det(field, A):
    f = det(polyring(field), A)
    return {(j,): c for j, c in enumerate(f.coeffs) if c}


def ours_charpoly(field, A):
    P = charpoly(polyring(field), A)
    return {
        (i, j): c
        for i, ci in enumerate(P.coeffs)
        for j, c in enumerate(ci.coeffs)
        if c
    }


@st.composite
def prime_field_matrices(draw, dmax=4, tdeg=2):
    field = make_field(draw(st.sampled_from(PRIMES)))
    d = draw(st.integers(1, dmax))
    entry = tpolys(field, max_deg=tdeg)
    A = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d))
    return field, A


@settings(max_examples=40)
@given(case=prime_field_matrices())
def test_det_and_charpoly_match_sympy(case):
    field, A = case
    assert ours_det(field, A) == sympy_det(A, field.p)
    assert ours_charpoly(field, A) == sympy_charpoly(A, field.p)


def test_corpus_matches_sympy(corp):
    checked = 0
    for field, A in corp:
        if field.e != 1:
            continue
        assert ours_det(field, A) == sympy_det(A, field.p)
        assert ours_charpoly(field, A) == sympy_charpoly(A, field.p)
        checked += 1
    assert checked == 4 * 36


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.integers(2, 2**30).map(lambda n: int(sympy.nextprime(n))),
        min_size=1,
        max_size=4,
    )
)
def test_factorint_matches_sympy(primes):
    """Products of primes up to 2**30, so Brent's rho does the splitting."""
    n = 1
    for r in primes:
        n *= r
    assert factorint(n) == sympy.factorint(n)
