"""det, charpoly, resultant, poly_gcd, factor, is_irreducible, factorint,
the split factorization of q^delta - 1, elem_order, is_prime, N_1 and a
block-triangular charpoly at the entry caps and GF(p^e) arithmetic
against sympy, an oracle outside the
package; order_of_root against a direct power search in plain integers;
prime-field modpow and the root orders of ``gf._root_order`` against
galoistools' ``gf_pow_mod``; extension-field modpow and order_of_root
against powers of X by ``sympy.reduced`` over GF(p)[z, X]; the N_k table
over GF(4), GF(8) and GF(9) against sympy's det of the matrix restricted
to GF(p).

Matrix entries and polynomials over F[t] are lifted to Z[t], sympy
computes over Z, and the result is reduced mod p: determinants and
resultants are integer polynomials in the entries, so reduction commutes
with them.  Polynomials over GF(p) go to sympy over GF(p) directly.  Only
prime fields (e = 1), where a packed field element is its own residue,
except for the extension-field arithmetic, which sympy's galoistools
computes on digit lists mod the field's modulus.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import monic_tpolys, tpolys, xpolys
from ffzeta import NkValue, elem_order, errors, gf, make_field, nk_table, order_of_root
from ffzeta.corpus import block_cap_system, cap_system
from ffzeta.integers import factor_group_order, factorint, is_prime
from ffzeta.polycore import (
    Poly,
    factor,
    is_irreducible,
    modpow,
    poly_gcd,
    polyring,
    resultant,
)
from ffzeta.polymat import charpoly, det

sympy = pytest.importorskip("sympy")
from sympy.polys import galoistools as gt  # noqa: E402
from sympy.polys.domains import ZZ  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.subresultants_qq_zz import sylvester  # noqa: E402

t, x, z = sympy.symbols("t x z")
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
    """Every factor of ours must come back whole from is_irreducible, which
    factors it again; sympy decides the irreducibility of f on its own."""
    p, f = case
    field = make_field(p)
    ours = factor(field, f)
    assert sorted((g.coeffs, mult) for g, mult in ours) == sympy_factors(f, p)
    assert all(is_irreducible(field, g) for g, _ in ours)
    want = sympy.Poly(lift(f, x), x, modulus=p).is_irreducible
    assert is_irreducible(field, f) == want


def prime_field_pairs(make):
    """(p, f, g) with f, g drawn by make(field)."""
    return st.sampled_from(PRIMES).flatmap(
        lambda p: st.tuples(st.just(p), make(make_field(p)), make(make_field(p)))
    )


@settings(max_examples=60)
@given(case=prime_field_pairs(lambda F: tpolys(F, max_deg=8, min_deg=1)))
def test_resultant_over_gf_p_matches_sympy(case):
    """Against the Sylvester determinant: sympy's own resultant (1.14) has
    the wrong sign when deg f < deg g and both degrees are odd."""
    p, f, g = case
    want = sylvester(lift(f, x), lift(g, x), x).det()
    assert resultant(f, g) == int(want) % p


def lift_xpoly(P):
    return sum(lift(c) * x**i for i, c in enumerate(P.coeffs))


@settings(max_examples=40)
@given(
    case=prime_field_pairs(
        lambda F: xpolys(F, max_xdeg=4, max_tdeg=2, monic=False)
    )
)
def test_resultant_over_f_t_matches_sympy(case):
    """Res_X over F[t], against the Sylvester determinant over Z[t] mod p."""
    p, f, g = case
    want = sylvester(lift_xpoly(f), lift_xpoly(g), x).det(method="berkowitz")
    r = resultant(f, g)
    ours = {(j,): c for j, c in enumerate(r.coeffs) if c}
    assert ours == (reduced(want, p, t) if want else {})


@settings(max_examples=60)
@given(case=prime_field_pairs(lambda F: tpolys(F, max_deg=8)))
def test_gcd_matches_sympy(case):
    p, f, g = case
    if not f and not g:
        return
    h = sympy.Poly(sympy.gcd(lift(f, x), lift(g, x), modulus=p), x, modulus=p)
    cs = [int(c) % p for c in reversed(h.all_coeffs())]
    inv = pow(cs[-1], -1, p)
    assert poly_gcd(f, g).coeffs == tuple(c * inv % p for c in cs)


def power_search_order(h, p):
    """Least k >= 1 with X^k = 1 mod the monic h, stepping X^k -> X^(k+1)."""
    cs = [int(c) for c in h.coeffs]
    n = len(cs) - 1
    r = [0] * n
    r[0] = 1
    k = 0
    while True:
        top = r[-1]
        r = [0] + r[:-1]  # times X; reduce X^n = -(cs[0] + ... + cs[n-1] X^(n-1))
        r = [(a - top * c) % p for a, c in zip(r, cs)]
        k += 1
        if r[0] == 1 and not any(r[1:]):
            return k


@settings(max_examples=60)
@given(
    case=st.sampled_from(
        [(p, delta) for p in PRIMES for delta in range(1, 14) if p**delta <= 10**4]
    ).flatmap(
        lambda pd: monic_tpolys(make_field(pd[0]), min_deg=pd[1], max_deg=pd[1]).map(
            lambda f: (pd[0], f)
        )
    )
)
def test_order_of_root_matches_power_search(case):
    """Roots of each irreducible factor (by sympy) of a drawn polynomial;
    q^delta <= 10^4 bounds the search at q^delta - 1 steps."""
    p, f = case
    field = make_field(p)
    for cs, _ in sympy_factors(f, p):
        if cs[0]:
            h = Poly(field, cs)
            assert order_of_root(field, h) == power_search_order(h, p)


@settings(max_examples=200)
@given(
    st.one_of(
        st.integers(0, 2**70),
        st.integers(2, 2**62).map(lambda n: int(sympy.nextprime(n))),
    )
)
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


@settings(max_examples=200)
@given(
    st.one_of(
        st.integers(2**80, 2**400),
        st.integers(2**80, 2**300).map(lambda n: int(sympy.nextprime(n))),
        st.tuples(st.integers(2**40, 2**150), st.integers(2**40, 2**150)).map(
            lambda ab: int(sympy.nextprime(ab[0])) * int(sympy.nextprime(ab[1]))
        ),
    )
)
def test_is_prime_above_2_80_matches_sympy(n):
    """Past the proven Miller-Rabin range, where the Lucas test decides."""
    assert is_prime(n) == sympy.isprime(n)


def test_strong_pseudoprimes_to_bases_2_to_37():
    psi12, psi13 = 318665857834031151167461, 3317044064679887385961981
    assert not is_prime(psi12) and not is_prime(psi13)
    assert factorint(psi12) == sympy.factorint(psi12)


def sympy_group_order(q, delta):
    """sympy.factorint of q^delta - 1, taken one sympy Phi_j(q) at a time
    (sympy on q^delta - 1 as a whole runs for minutes at 61 bits)."""
    out = {}
    for j in sympy.divisors(delta):
        for r, k in sympy.factorint(int(sympy.cyclotomic_poly(j, q))).items():
            out[r] = out.get(r, 0) + k
    assert sympy.prod(r**k for r, k in out.items()) == q**delta - 1
    return out


@pytest.mark.parametrize("bits, count", [(20, 2), (61, 1)])
def test_group_order_split_matches_sympy(bits, count):
    """Seeded primes, every delta <= 8.  A budget overrun is allowed (its
    exit 3 is the documented limit), except for delta <= 2: q - 1 and
    q + 1 have at most 62 bits, so their second-largest prime factor is
    below 2^31 and within rho's budget."""
    rng = random.Random(bits)
    for _ in range(count):
        q = int(sympy.prevprime(rng.randrange(2 ** (bits - 1), 2**bits)))
        for delta in range(1, 9):
            try:
                ours = factor_group_order(q, delta)
            except errors.CapExceededError:
                assert delta > 2
                continue
            assert ours == sympy_group_order(q, delta), (q, delta)


def test_elem_order_matches_sympy_61_bit():
    rng = random.Random(61)
    for _ in range(4):
        p = int(sympy.prevprime(rng.randrange(2**60, 2**61)))
        field = make_field(p)
        for a in [1, p - 1] + [rng.randrange(2, p - 1) for _ in range(4)]:
            assert elem_order(field, a) == sympy.n_order(a, p)


def test_nk_at_entry_caps_matches_sympy():
    """N_1 of the d = 8, degree-32 GF(2) cap input against sympy's det of A - I."""
    field, A = cap_system()
    dom = sympy.GF(2)[t]
    d = len(A)
    M = DomainMatrix([[dom.from_sympy(lift(a)) for a in row] for row in A], (d, d), dom)
    D = (M - DomainMatrix.eye(d, dom)).det()
    assert nk_table(field, A, 1) == [NkValue.of(D.degree())]


def test_block_charpoly_at_entry_caps_matches_sympy():
    """charpoly of the permuted block-triangular d = 8, degree-32 GF(2)
    input, found in three strongly connected blocks, against sympy's."""
    field, A = block_cap_system()
    dom = sympy.GF(2)[t]
    d = len(A)
    M = DomainMatrix([[dom.from_sympy(lift(a)) for a in row] for row in A], (d, d), dom)
    P = charpoly(polyring(field), A)
    assert M.charpoly() == [dom.from_sympy(lift(c)) for c in reversed(P.coeffs)]


def dense(field, a):
    """The packed element a as a galoistools polynomial, high digit first."""
    return gt.gf_strip([a // field.p**i % field.p for i in reversed(range(field.e))])


def packed(field, f):
    return sum(c * field.p**i for i, c in enumerate(reversed(f)))


@pytest.mark.parametrize(
    "p, e, modulus",
    [(2, 2, None), (3, 2, None), (2, 16, None), (3, 10, None), (1021, 2, None),
     (3, 2, (2, 2, 1))],
    ids=["GF(4)", "GF(9)", "GF(2^16)", "GF(3^10)", "GF(1021^2)", "GF(9)-z2+2z+2"],
)
def test_extension_arithmetic_matches_galoistools(p, e, modulus):
    """mul, add, sub and inv, whose log, exp and Zech tables are seeded by
    the package's own polynomial arithmetic, against sympy's."""
    field = make_field(p, e, modulus)
    f = gt.gf_strip(list(reversed(field.modulus)))
    rng = random.Random(f"galoistools/{field.q}/{field.modulus}")
    for _ in range(100):
        a, b = rng.randrange(1, field.q), rng.randrange(field.q)
        A, B = dense(field, a), dense(field, b)
        product = gt.gf_rem(gt.gf_mul(A, B, p, ZZ), f, p, ZZ)
        assert field.mul(a, b) == packed(field, product)
        assert field.add(a, b) == packed(field, gt.gf_add(A, B, p, ZZ))
        assert field.sub(a, b) == packed(field, gt.gf_sub(A, B, p, ZZ))
        assert field.inv(a) == packed(field, gt.gf_pow_mod(A, field.q - 2, f, p, ZZ))


def dense_coeffs(cs):
    """A low-first coefficient list as a galoistools polynomial."""
    return gt.gf_strip([int(c) for c in reversed(cs)])


@pytest.mark.parametrize("p", [2, 3, 7, 1048573, 2**61 - 1, 2**63 - 25])
def test_prime_field_modpow_matches_gf_pow_mod(p):
    """Moduli of degree 1 to 8, random and with every low coefficient
    p - 1; bases random and all p - 1 (full slots); up to 2^63 - 25, the
    largest prime the package accepts."""
    field, rng = make_field(p), random.Random(f"gf_pow_mod/{p}")
    for m in range(1, 9):
        for fs in ([rng.randrange(p) for _ in range(m)] + [1], [p - 1] * m + [1]):
            for xs in ([rng.randrange(p) for _ in range(m)], [p - 1] * m):
                for n in (2, p, p**m - 1, rng.getrandbits(256)):
                    want = gt.gf_pow_mod(dense_coeffs(xs), n, dense_coeffs(fs), p, ZZ)
                    got = modpow(Poly(field, xs), n, Poly(field, fs))
                    assert dense_coeffs(got.coeffs) == want, (m, fs, xs, n)


@pytest.mark.parametrize("p", [1048573, 2**61 - 1])
def test_root_order_is_minimal_by_gf_pow_mod(p):
    """Each order n of ``gf._root_order`` on random irreducibles (by
    galoistools) of degree 2 to 4: X^n = 1 mod f, and X^(n / l) != 1 mod f
    for every prime l | n, the primes by sympy.factorint."""
    field, rng = make_field(p), random.Random(f"root order/{p}")
    for delta in range(2, 5):
        primes = sympy_group_order(p, delta)
        for _ in range(3):
            cs = None
            while cs is None or not gt.gf_irreducible_p(dense_coeffs(cs), p, ZZ):
                cs = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(delta - 1)] + [1]
            n, f = gf._root_order(field, Poly(field, cs)), dense_coeffs(cs)
            assert gt.gf_pow_mod([1, 0], n, f, p, ZZ) == [1]
            for ell in primes:
                if n % ell == 0:
                    assert gt.gf_pow_mod([1, 0], n // ell, f, p, ZZ) != [1], (cs, n, ell)


def lift_ext(field, xs, var):
    """The coefficient list xs over GF(p^e) as a polynomial in var over
    GF(p)[z]: each coefficient is the polynomial of its base-p digits in z."""
    p = field.p
    return sum(
        sum(c // p**k % p * z**k for k in range(field.e)) * var**i for i, c in enumerate(xs)
    )


def ext_x_power(field, fs, n):
    """X^n mod f over GF(p^e) = GF(p)[z]/(g), by square-and-multiply on
    ``sympy.reduced`` modulo [g(z), f(z, X)] over GF(p), lex X > z.  Their
    leading terms z^e and X^m are coprime, so the pair is a Groebner basis
    and each remainder is the normal form: degree below e in z and below m
    in X."""
    G = [sum(c * z**k for k, c in enumerate(field.modulus)), lift_ext(field, fs, x)]

    def mul(a, b):
        return sympy.reduced(sympy.expand(a * b), G, x, z, modulus=field.p)[1]

    out, y = sympy.Integer(1), x
    while n:
        if n & 1:
            out = mul(out, y)
        n >>= 1
        if n:
            y = mul(y, y)
    return out


def same_mod_p(a, b, p):
    return sympy.Poly(sympy.expand(a - b), x, z, modulus=p).is_zero


@pytest.mark.parametrize("p, e", [(3, 2), (5, 3), (3, 5)], ids=["GF(9)", "GF(5^3)", "GF(3^5)"])
def test_extension_powers_match_reduced(p, e):
    """modpow(X, n, f) over GF(p^e) against ``ext_x_power``, for random
    irreducibles f of degree 2 and 3 and exponents q, q^delta - 1 and a
    random 40-bit one; then order_of_root(f) = n checked the same way:
    X^n = 1 mod f, and X^(n / l) != 1 for every prime l | n, the primes by
    sympy.factorint."""
    field, rng = make_field(p, e), random.Random(f"reduced/{p}^{e}")
    q = field.q
    for delta in (2, 3):
        f = None
        while f is None or not is_irreducible(field, f):
            f = Poly(field, [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(delta - 1)] + [1])
        fs = list(f.coeffs)
        for n in (q, q**delta - 1, rng.getrandbits(40)):
            got = modpow(Poly.x(field), n, f)
            assert same_mod_p(lift_ext(field, got.coeffs, x), ext_x_power(field, fs, n), p), n
        n = order_of_root(field, f)
        assert same_mod_p(ext_x_power(field, fs, n), 1, p)
        for ell in sympy.factorint(n):
            assert not same_mod_p(ext_x_power(field, fs, n // ell), 1, p), (fs, n, ell)


def restrict_scalars(field, A):
    """Res(A) over GF(p)[t], as a sympy DomainMatrix: with F = GF(p)[z]/(g),
    each coefficient c of an entry becomes the e x e block of x -> c x on
    the basis 1, z, ..., z^(e - 1), whose column j holds the digits of
    c z^j mod g, by galoistools over GF(p), not by the field's tables."""
    p, e = field.p, field.e
    g = gt.gf_strip(list(reversed(field.modulus)))
    dom = sympy.GF(p)[t]

    def digits(c, j):  # of c z^j, low first
        r = gt.gf_rem(gt.gf_mul(dense(field, c), [1] + [0] * j, p, ZZ), g, p, ZZ)
        return [int(v) for v in reversed(r)] + [0] * (e - len(r))

    rows = []
    for row in A:
        blocks = [[digits(c, j) for c in a.coeffs] for a in row for j in range(e)]
        for i in range(e):
            rows.append([
                dom.from_sympy(sum(ds[i] * t**k for k, ds in enumerate(col)))
                for col in blocks
            ])
    n = len(A) * e
    return DomainMatrix(rows, (n, n), dom)


@pytest.mark.parametrize(
    "p, e, d, deg", [(2, 2, 3, 8), (2, 3, 2, 10), (3, 2, 2, 12)],
    ids=["GF(4)", "GF(8)", "GF(9)"],
)
def test_extension_nk_matches_restricted_det(p, e, d, deg, monkeypatch):
    """deg det(Res(A)^k - I) = e deg det(A^k - I) for k <= 4, as F[t] is a
    free GF(p)[t]-module of rank e, with sympy's det over GF(p)[t] on the
    left; the entries have random degrees up to deg and one has deg, so
    the leading matrix is singular and the table takes products and
    eliminations long enough for ``Field._kron_dot``."""
    field, rng = make_field(p, e), random.Random(f"restrict/{p}^{e}")

    def entry(n):
        low = [rng.randrange(field.q) for _ in range(n)]
        return Poly(field, low + [rng.randrange(1, field.q)])

    A = [[entry(rng.randint(0, deg)) for _ in range(d)] for _ in range(d)]
    A[0][0] = entry(deg)
    kron, calls = gf.Field._kron_dot, []
    monkeypatch.setattr(
        gf.Field, "_kron_dot", lambda self, pairs: calls.append(1) or kron(self, pairs)
    )
    got = [None if v.is_zero else e * v.exponent for v in nk_table(field, A, 4)]
    assert calls
    M = restrict_scalars(field, A)
    one = DomainMatrix.eye(d * e, M.domain)
    want = []
    for k in range(1, 5):
        D = (M**k - one).det()
        want.append(D.degree() if D else None)
    assert got == want
