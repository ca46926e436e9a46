"""det, charpoly, factor, is_irreducible, factorint and is_prime against
sympy, an oracle outside the package.

Matrix entries are lifted to Z[t], sympy takes the Berkowitz determinant
over Z, and the result is reduced mod p.  Polynomials are factored by
sympy over GF(p) directly.  Only prime fields (e = 1), where a packed field
element is its own residue.
"""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import tpolys
from ffzeta import make_field
from ffzeta.integers import factorint, is_prime
from ffzeta.polycore import factor, is_irreducible, polyring
from ffzeta.polymat import charpoly, det

sympy = pytest.importorskip("sympy")

t, x = sympy.symbols("t x")
PRIMES = (2, 3, 5, 7)


def lift(f, var=t):
    return sum(int(c) * var**i for i, c in enumerate(f.coeffs))


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


def sympy_factors(f, p):
    """Monic irreducible factors of f over GF(p) as (coefficient tuple, mult)."""
    _, facs = sympy.Poly(lift(f, x), x, modulus=p).factor_list()
    out = []
    for g, mult in facs:
        cs = [int(c) % p for c in reversed(g.all_coeffs())]
        inv = pow(cs[-1], -1, p)
        out.append((tuple(c * inv % p for c in cs), mult))
    return sorted(out)


@settings(max_examples=80)
@given(
    case=st.sampled_from(PRIMES).flatmap(
        lambda p: tpolys(make_field(p), max_deg=12, min_deg=1).map(lambda f: (p, f))
    )
)
def test_factor_and_irreducibility_match_sympy(case):
    """Every factor of ours must pass is_irreducible, whose Rabin test takes
    the prime divisors of the degree from factorint.  is_irreducible wants
    a monic input, as all its callers give it."""
    p, f = case
    field = make_field(p)
    ours = factor(field, f)
    assert sorted((g.coeffs, mult) for g, mult in ours) == sympy_factors(f, p)
    assert all(is_irreducible(field, g) for g, _ in ours)
    want = sympy.Poly(lift(f, x), x, modulus=p).is_irreducible
    assert is_irreducible(field, f.monic()) == want


@settings(max_examples=200)
@given(
    st.one_of(
        st.integers(0, 2**70),
        st.integers(2, 2**62).map(lambda n: int(sympy.nextprime(n))),
    )
)
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == sympy.isprime(n)
