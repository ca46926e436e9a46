"""The zero-is-falsy contract of every domain, F[s]/(s^N) against the full
polynomial ring, the one binary-powering helper behind every power, and
ring identity."""

from functools import reduce

import pytest
from hypothesis import given, strategies as st

from conftest import felems, monic_tpolys, tpoly, tpolys
from ffzeta import make_field
from ffzeta.polycore import Poly, TruncRing, modpow, polyring, power
from ffzeta.polymat import det, identity, mat_mul, matpow

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
FIELDS = [F2, F3, F4]


CONTRACT_FIELDS = [
    F2,
    make_field(7),
    make_field(2**61 - 1),
    F4,
    make_field(3, 2),
    make_field(2, 16),
    make_field(3, 10),
]
CONTRACT_DOMAINS = [
    dom
    for field in CONTRACT_FIELDS
    for dom in (field, polyring(field), TruncRing(field, 4))
]


def domain_elems(dom):
    """Elements of a contract domain, zero-heavy; TruncRing ones reduced."""
    field = getattr(dom, "base", dom)
    coeff = st.one_of(st.just(0), felems(field))
    if dom is field:
        return coeff
    size = getattr(dom, "N", 6)
    return st.lists(coeff, max_size=size).map(lambda cs: Poly(field, cs))


class TestZeroIsFalsy:
    """An element is zero exactly when it is falsy, in every domain."""

    @pytest.mark.parametrize("dom", CONTRACT_DOMAINS, ids=repr)
    @given(data=st.data())
    def test_zero_is_the_falsy_element(self, dom, data):
        assert not dom.zero
        assert dom.one
        a = data.draw(domain_elems(dom))
        assert not dom.sub(a, a)
        assert not dom.add(a, dom.neg(a))
        assert bool(a) == (a != dom.zero)

    @pytest.mark.parametrize("field", CONTRACT_FIELDS, ids=repr)
    def test_truncated_product_is_falsy(self, field):
        N = 4
        ring = TruncRing(field, N)
        s = Poly.x(field)
        for j in range(N + 1):
            assert not ring.mul(s**j, s ** (N - j))
        assert ring.mul(s, s ** (N - 2))


def cut(f, N):
    return Poly(f.dom, f.coeffs[:N])


@st.composite
def trunc_cases(draw):
    """(field, N, A, B): d x d matrices, d <= 3, whose entries may be longer
    than N, as the unreduced B of the direct N_k route is."""
    field = draw(st.sampled_from(FIELDS))
    d, N = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    entry = st.lists(felems(field), max_size=2 * N + 2).map(lambda cs: Poly(field, cs))
    mats = st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d)
    return field, N, draw(mats), draw(mats)


class TestTruncRing:
    @given(trunc_cases())
    def test_det_and_mat_mul_are_the_full_results_cut(self, case):
        field, N, A, B = case
        full, trunc = polyring(field), TruncRing(field, N)
        assert det(trunc, A) == cut(det(full, A), N)
        assert mat_mul(trunc, A, B) == [
            [cut(x, N) for x in row] for row in mat_mul(full, A, B)
        ]

    def test_long_operands_are_cut_before_the_product(self):
        # s^2 * s^2 is zero mod s^3 though neither factor is
        ring = TruncRing(F2, 3)
        s2 = tpoly(F2, 0, 0, 1)
        assert ring.mul(s2, s2) == ring.zero
        assert ring.mul(tpoly(F2, 1, 0, 0, 1), tpoly(F2, 1, 1)) == tpoly(F2, 1, 1)
        # -(1 + 2s + s^3) is 2 + s mod s^3 over GF(3)
        assert TruncRing(F3, 3).neg(tpoly(F3, 1, 2, 0, 1)) == tpoly(F3, 2, 1)


class TestPower:
    def test_product_count(self):
        """bitlen(n) - 1 squarings and popcount(n) - 1 products, none by one."""
        one = object()
        for n in [*range(70), 2**40, 2**40 - 1]:
            calls = []

            def mul(a, b):
                assert a is not one and b is not one
                calls.append((a, b))
                return a + b

            # in the additive monoid of the integers, x^n is n * x
            assert power(1, n, mul, one) == (n if n else one)
            assert len(calls) == (n.bit_length() + n.bit_count() - 2 if n else 0)

    def test_one_is_returned_at_zero_and_x_itself_at_one(self):
        x, one = [[1]], [[0]]
        assert power(x, 0, None, one) is one
        assert power(x, 1, None, one) is x

    @given(st.sampled_from(FIELDS), st.integers(1, 3), st.data())
    def test_matpow_matches_repeated_mat_mul(self, field, d, data):
        row = st.lists(tpolys(field, max_deg=2), min_size=d, max_size=d)
        A = data.draw(st.lists(row, min_size=d, max_size=d))
        ring = polyring(field)
        I = identity(ring, len(A))
        assert matpow(ring, A, 0) == I
        assert matpow(ring, A, 1) == A
        for k in range(2, 10):
            assert matpow(ring, A, k) == reduce(
                lambda X, _: mat_mul(ring, X, A), range(k), I
            )

    @given(tpolys(F3, max_deg=6), monic_tpolys(F3))
    def test_modpow_at_zero_is_one(self, b, m):
        assert modpow(b, 0, m) == Poly.const(F3, 1)
        assert modpow(b, 1, m) == b % m

    def test_poly_pow(self):
        f = tpoly(F3, 1, 1)
        assert f**0 == Poly.const(F3, 1)
        assert f**1 is f
        assert f**5 == reduce(lambda g, _: g * f, range(5), Poly.const(F3, 1))
        with pytest.raises(ValueError):
            f ** -1


class TestIdentity:
    """Rings are cached, so one ring is one object, compared by identity."""

    def test_cached_rings(self):
        assert make_field(3, 2, [1, 0, 1]) is make_field(3, 2)
        assert make_field(2, 1, [0, 1]) is F2
        assert polyring(F4) is polyring(F4)
        assert polyring(polyring(F4)) is polyring(polyring(F4))

    def test_mixed_domains_raise(self):
        with pytest.raises(TypeError):
            tpoly(F2, 1) + tpoly(F3, 1)
        with pytest.raises(TypeError):
            tpoly(F2, 1, 1) * tpoly(F4, 1)
        with pytest.raises(TypeError):
            divmod(tpoly(F3, 1, 1), tpoly(F2, 1))
        X2, X3 = Poly.x(polyring(F2)), Poly.x(polyring(F3))
        with pytest.raises(TypeError):
            X2 - X3
        assert tpoly(F2, 1) != tpoly(F3, 1)
