"""Exact matrix algebra over F[t]: determinants, charpoly, powers, Smith form."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import tmat, tpoly, tpolys, xpoly
from ffzeta import errors, make_field, polymat
from ffzeta.corpus import cap_system, corpus
from ffzeta.gf import Field
from ffzeta.polycore import Domain, Poly, PolyRing, polyring, resultant
from ffzeta.polymat import (
    SmithForm,
    charpoly,
    companion,
    det,
    identity,
    mat_mul,
    matpow_minus_I,
    smith,
)

F2 = make_field(2)
F3 = make_field(3)
F7 = make_field(7)
F4 = make_field(2, 2)
F9 = make_field(3, 2)


def matrices(field, dmax=3, tdeg=1):
    entry = tpolys(field, max_deg=tdeg)
    return st.integers(1, dmax).flatmap(
        lambda d: st.lists(
            st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d
        )
    )


class NoDivRing(PolyRing):
    """polyring(base) with exact division switched off."""

    def exact_div(self, a, b):
        raise AssertionError("det must not divide")


def cofactor_det(ring, A):
    """Laplace expansion, the slow reference determinant."""
    n = len(A)
    if n == 0:
        return ring.one
    if n == 1:
        return A[0][0]
    acc = ring.zero
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in A[1:]]
        term = ring.mul(A[0][j], cofactor_det(ring, minor))
        acc = ring.add(acc, term) if j % 2 == 0 else ring.sub(acc, term)
    return acc


def x_minus(ring, A):
    """X*I - A as a matrix over ring[X]."""
    d = len(A)
    return [
        [Poly(ring, [-A[i][j], ring.one] if i == j else [-A[i][j]]) for j in range(d)]
        for i in range(d)
    ]


def nested_charpoly(ring, A):
    """det(X*I - A) by the subset-minor det over ring[X], the reference."""
    return det(polyring(ring), x_minus(ring, A))


class TestDet:
    def test_anchors(self):
        r7 = polyring(F7)
        A = tmat(F7, [[(0, 1), (1,)], [(1,), (0, 1)]])
        assert det(r7, A) == tpoly(F7, 6, 0, 1)  # t^2 - 1
        assert det(r7, identity(r7, 3)) == r7.one
        r2 = polyring(F2)
        B = tmat(F2, [[(0,), (0, 1)], [(1,), (1,)]])
        assert det(r2, B) == tpoly(F2, 0, 1)

    def test_empty_matrix(self):
        assert det(polyring(F7), []) == polyring(F7).one

    @given(A=matrices(F3))
    def test_matches_cofactor_expansion(self, A):
        ring = polyring(F3)
        assert det(ring, A) == cofactor_det(ring, A)

    @given(data=st.data())
    def test_matches_cofactor_expansion_extension_fields(self, data):
        field = data.draw(st.sampled_from([F4, F9]))
        A = data.draw(matrices(field, dmax=5))
        ring = polyring(field)
        assert det(ring, A) == cofactor_det(ring, A)

    @settings(max_examples=30)
    @given(A=matrices(F3, dmax=4, tdeg=2))
    def test_division_free(self, A):
        inner = polyring(F3)
        assert det(NoDivRing(F3), A) == cofactor_det(inner, A)
        assert det(NoDivRing(inner), x_minus(inner, A)) == charpoly(inner, A)
        assert charpoly(NoDivRing(F3), A).coeffs == charpoly(inner, A).coeffs

    def test_singular_rows(self):
        ring = polyring(F7)
        A = tmat(F7, [[(1, 2), (3,), (0, 1)], [(2, 4), (6,), (0, 2)], [(5,), (1,), (1,)]])
        assert det(ring, A) == ring.zero
        Z = tmat(F7, [[(1,), (2,)], [(), ()]])
        assert det(ring, Z) == ring.zero

    @settings(max_examples=30)
    @given(data=st.data())
    def test_multiplicative(self, data):
        ring = polyring(F3)
        d = data.draw(st.integers(1, 3))
        ms = st.lists(
            st.lists(tpolys(F3, max_deg=1), min_size=d, max_size=d),
            min_size=d,
            max_size=d,
        )
        A = data.draw(ms)
        B = data.draw(ms)
        assert det(ring, mat_mul(ring, A, B)) == det(ring, A) * det(ring, B)


class TestCharpoly:
    def test_anchors(self):
        r7 = polyring(F7)
        A = tmat(F7, [[(6,), (0,)], [(0,), (2,)]])
        assert charpoly(r7, A) == xpoly(F7, (5,), (6,), (1,))
        r2 = polyring(F2)
        assert charpoly(r2, tmat(F2, [[(0, 1)]])) == xpoly(F2, (0, 1), (1,))

    def test_companion_roundtrip(self):
        P = xpoly(F2, (0, 1), (0, 0, 1), (0, 0, 1), (1,))
        assert charpoly(polyring(F2), companion(polyring(F2), P)) == P

    def test_companion_needs_monic(self):
        with pytest.raises(errors.MalformedInputError, match="companion matrix needs a monic polynomial"):
            companion(polyring(F2), xpoly(F2, (1,), (0, 1)))

    @given(P=st.data())
    def test_companion_roundtrip_random(self, P):
        from conftest import xpolys

        f = P.draw(xpolys(F3, max_xdeg=4, max_tdeg=2))
        ring = polyring(F3)
        assert charpoly(ring, companion(ring, f)) == f

    @given(A=matrices(F3))
    def test_constant_term_is_det(self, A):
        ring = polyring(F3)
        d = len(A)
        lhs = charpoly(ring, A).coeff(0)
        rhs = det(ring, A)
        assert lhs == (rhs if d % 2 == 0 else -rhs)

    @settings(max_examples=25)
    @given(A=matrices(F2, dmax=2), k=st.integers(1, 4))
    def test_det_power_matches_resultant(self, A, k):
        """det(A^k - I) agrees with Res(charpoly, X^k - 1) up to sign."""
        ring = polyring(F2)
        lhs = det(ring, matpow_minus_I(ring, A, k))
        xk = Poly(ring, [ring.neg(ring.one)] + [ring.zero] * (k - 1) + [ring.one])
        rhs = resultant(charpoly(ring, A), xk)
        assert lhs == rhs or lhs == -rhs

    def test_matches_nested_expansion_on_corpus(self):
        """Every corpus system, GF(4) and GF(9) included."""
        for field, A in corpus():
            ring = polyring(field)
            assert charpoly(ring, A) == nested_charpoly(ring, A)

    def test_needs_no_det(self, monkeypatch):
        cases = corpus()[::9] + [cap_system()]
        want = [charpoly(polyring(field), A) for field, A in cases]

        def no_det(*args):
            raise AssertionError("charpoly must not call det")

        monkeypatch.setattr(polymat, "det", no_det)
        assert [charpoly(polyring(field), A) for field, A in cases] == want

    @pytest.mark.parametrize("d", [12, 16])
    @pytest.mark.parametrize("field", [F2, F7, F4], ids=repr)
    def test_conjugated_companion_past_the_cap(self, field, d):
        """charpoly(E C E^-1) = f for C = companion(f) and E a product of
        three transvections over F[t]: I + u e_j^T, I + e_j v^T, I + u' e_j^T
        with u_j = v_j = u'_j = 0, each inverted by negating u or v.  The
        conjugate is dense, so a cost exponential in d would show here."""
        rng = random.Random(d * field.q)
        ring = polyring(field)

        def entry(deg):
            low = [rng.randrange(field.q) for _ in range(deg)]
            return Poly(field, low + [rng.randrange(1, field.q)])

        f = Poly(ring, [entry(2) for _ in range(d)] + [ring.one])
        B = companion(ring, f)
        j = rng.randrange(d)
        for column in (True, False, True):
            E, Einv = identity(ring, d), identity(ring, d)
            for i in range(d):
                if i != j:
                    a, b = (i, j) if column else (j, i)
                    E[a][b] = entry(1)
                    Einv[a][b] = -E[a][b]
            B = mat_mul(ring, mat_mul(ring, E, B), Einv)
        assert sum(not a for row in B for a in row) < d
        assert charpoly(ring, B) == f


def permuted_blocks(field, sizes, rng, diagonal=False):
    """A random matrix over F[t], block upper triangular with diagonal blocks
    of the given sizes (block diagonal if asked), its rows and columns then
    permuted at random.  Entries inside the blocks have degree <= 2 and
    are nonzero, so the blocks are the strongly connected components."""
    d = sum(sizes)
    block = [b for b, n in enumerate(sizes) for _ in range(n)]

    def entry(i, j):
        if block[i] > block[j] or (diagonal and block[i] != block[j]):
            return Poly(field)
        if block[i] < block[j] and rng.random() < 0.3:
            return Poly(field)
        return Poly(field, [rng.randrange(field.q) for _ in range(2)] + [rng.randrange(1, field.q)])

    A = [[entry(i, j) for j in range(d)] for i in range(d)]
    perm = rng.sample(range(d), d)
    return [[A[i][j] for j in perm] for i in perm]


class TestCharpolyBlocks:
    """charpoly splits A along the strongly connected components of its
    nonzero pattern (``block_charpolys``) and multiplies the blocks'
    Berkowitz charpolys, on coefficient lists."""

    @pytest.mark.parametrize("field", [F2, F7, F4], ids=repr)
    @pytest.mark.parametrize("sizes", [(2, 3), (1, 2, 1), (3, 1, 2), (1, 1, 1, 1, 1), (4, 2)])
    def test_permuted_block_triangular(self, field, sizes):
        rng = random.Random(f"{field.q}/{sizes}")
        ring = polyring(field)
        for _ in range(2):
            A = permuted_blocks(field, sizes, rng)
            assert charpoly(ring, A) == nested_charpoly(ring, A)

    @pytest.mark.parametrize("field", [F2, F7, F4], ids=repr)
    def test_zero_row_and_zero_column(self, field):
        rng = random.Random(field.q)
        ring = polyring(field)
        A = permuted_blocks(field, (4,), rng)
        B = [row[:] for row in A]
        A[1] = [Poly(field)] * 4
        for row in B:
            row[2] = Poly(field)
        for M in (A, B):
            assert charpoly(ring, M) == nested_charpoly(ring, M)

    @pytest.mark.parametrize("field", [F2, F7, F4], ids=repr)
    def test_diagonal_single_and_empty(self, field):
        rng = random.Random(field.q)
        ring = polyring(field)
        D = permuted_blocks(field, (1, 1, 1, 1), rng, diagonal=True)
        D[2][2] = Poly(field)
        for M in (D, permuted_blocks(field, (1,), rng), [[Poly(field)]]):
            assert charpoly(ring, M) == nested_charpoly(ring, M)
        assert charpoly(ring, []) == nested_charpoly(ring, []) == Poly(ring, [ring.one])

    @pytest.mark.parametrize("field", [F2, F7, F4], ids=repr)
    def test_division_free(self, field):
        rng = random.Random(field.q)
        A = permuted_blocks(field, (2, 1, 3), rng)
        assert charpoly(NoDivRing(field), A).coeffs == nested_charpoly(polyring(field), A).coeffs

    def test_one_berkowitz_run_per_block(self, monkeypatch):
        ring = polyring(F7)
        berkowitz, sizes = polymat._berkowitz, []

        def counted(field, M):
            sizes.append(len(M))
            return berkowitz(field, M)

        monkeypatch.setattr(polymat, "_berkowitz", counted)
        A = permuted_blocks(F7, (3, 1, 2, 2), random.Random(1), diagonal=True)
        assert charpoly(ring, A) == nested_charpoly(ring, A)
        assert sorted(sizes) == [1, 2, 2, 3]
        sizes.clear()
        field, B = cap_system()
        charpoly(polyring(field), B)
        assert sizes == [8]


class TestSumsStayInTheKernel:
    """``mat_mul`` over F[t] builds each entry as one ``PolyRing.dot``, and
    ``charpoly`` each sum of products on coefficient lists, block product
    included: each is one ``poly_dot`` of the field, and no product or
    sum of one pair reaches the generic ``Domain.poly_mul`` or
    ``Domain.poly_add`` over a field."""

    @pytest.mark.parametrize("field", [F2, F7, F4, F9], ids=repr)
    def test_products_and_charpoly(self, field, monkeypatch):
        # entries of degree -1 to 24, so that both short and long pairs
        # of the Kronecker rule occur
        rng = random.Random(field.q)

        def entry():
            n = rng.randint(0, 25)
            return Poly(field, [rng.randrange(field.q) for _ in range(n)])

        A = [[entry() for _ in range(4)] for _ in range(4)]
        # two blocks, so that charpoly multiplies block charpolys
        B = A[:2] + [[Poly(field)] * 2 + row[2:] for row in A[2:]]
        ring = polyring(field)
        want = (mat_mul(ring, A, A), charpoly(ring, A), charpoly(ring, B))
        assert len(polymat.block_charpolys(field, B)) >= 2
        for name in ("poly_add", "poly_mul"):
            generic = getattr(Domain, name)

            def guarded(dom, xs, ys, generic=generic, name=name):
                if isinstance(dom, Field):
                    raise AssertionError(f"generic {name} reached over {dom!r}")
                return generic(dom, xs, ys)

            monkeypatch.setattr(Domain, name, guarded)
        assert (mat_mul(ring, A, A), charpoly(ring, A), charpoly(ring, B)) == want


class TestMatpow:
    def test_anchors(self):
        ring = polyring(F2)
        A = tmat(F2, [[(0, 1)]])
        assert matpow_minus_I(ring, A, 3) == [[tpoly(F2, 1, 0, 0, 1)]]
        I3 = identity(ring, 3)
        assert matpow_minus_I(ring, I3, 5) == [[ring.zero] * 3 for _ in range(3)]

    @given(A=matrices(F3, dmax=2), j=st.integers(1, 3), k=st.integers(1, 3))
    def test_power_additivity(self, A, j, k):
        from ffzeta.polymat import matpow

        ring = polyring(F3)
        assert matpow(ring, A, j + k) == mat_mul(ring, matpow(ring, A, j), matpow(ring, A, k))


class TestSmith:
    def test_already_chained(self):
        sf = smith(F7, tmat(F7, [[(0, 1), (0,)], [(0,), (0, 0, 1)]]))
        assert sf == SmithForm((tpoly(F7, 0, 1), tpoly(F7, 0, 0, 1)), 2)

    def test_coprime_diagonal(self):
        sf = smith(F7, tmat(F7, [[(0, 1), (0,)], [(0,), (1, 1)]]))
        assert sf.rank == 2
        assert sf.invariant_factors[0].is_one()
        assert sf.invariant_factors[1] == tpoly(F7, 0, 1) * tpoly(F7, 1, 1)

    def test_zero_matrix(self):
        assert smith(F7, [[Poly(F7)]]) == SmithForm((), 0)

    def test_rank_guard(self):
        x = tpoly(F7, 0, 1)
        with pytest.raises(errors.InternalInvariantError, match="rank"):
            SmithForm((x,), 2)

    def test_record_is_frozen(self):
        sf = SmithForm((tpoly(F7, 0, 1),), 1)
        with pytest.raises(AttributeError):
            sf.rank = 2
        with pytest.raises(AttributeError):
            sf.extra = 0

    def test_singular_rank_drop(self):
        A = tmat(F3, [[(0, 1), (0, 1)], [(0, 1), (0, 1)]])
        sf = smith(F3, A)
        assert sf.rank == 1 and sf.invariant_factors[0] == tpoly(F3, 0, 1)

    @settings(max_examples=40)
    @given(A=matrices(F3, dmax=3, tdeg=1))
    def test_chain_and_determinant(self, A):
        ring = polyring(F3)
        sf = smith(F3, A)
        for a, b in zip(sf.invariant_factors, sf.invariant_factors[1:]):
            assert not (b % a)
        dA = det(ring, A)
        if dA:
            assert sf.rank == len(A)
            prod = Poly.const(F3, F3.one)
            for b in sf.invariant_factors:
                assert b.is_monic()
                prod *= b
            assert prod == dA.monic()
            assert sum(b.degree for b in sf.invariant_factors) == dA.degree
        else:
            assert sf.rank < len(A)
