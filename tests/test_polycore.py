"""Polynomial arithmetic, gcd, modpow, resultants, and factorization."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import monic_tpolys, tpoly, tpolys, xpoly, xpolys
from ffzeta import errors, make_field, order_of_root
from ffzeta.polycore import (
    Poly,
    factor,
    is_irreducible,
    modpow,
    poly_gcd,
    polyring,
    resultant,
)

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)
F7 = make_field(7)
F9 = make_field(3, 2)


def mobius(n):
    out = 1
    ell = 2
    while ell * ell <= n:
        if n % ell == 0:
            n //= ell
            if n % ell == 0:
                return 0
            out = -out
        ell += 1
    return -out if n > 1 else out


def gauss_count(q, n):
    """Number of monic irreducibles of degree n over GF(q)."""
    return sum(mobius(d) * q ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


class TestPolyBasics:
    def test_normalization(self):
        f = Poly(F7, [1, 2, 0, 0])
        assert f.coeffs == (1, 2) and f.degree == 1
        z = Poly(F7, [0, 0])
        assert not z and z.degree == -1

    def test_lc_of_zero_raises(self):
        with pytest.raises(errors.MalformedInputError, match="zero polynomial has no leading coefficient"):
            Poly(F7).lc

    def test_coeff_out_of_range_is_zero(self):
        assert tpoly(F7, 1, 2).coeff(9) == 0

    def test_pow(self):
        f = tpoly(F2, 1, 1)
        assert f**2 == tpoly(F2, 1, 0, 1)  # freshman's dream

    def test_monic_over_nonfield(self):
        f = xpoly(F7, (1,), (0, 1))  # t X + 1: no normalization over F[t]
        with pytest.raises(errors.MalformedInputError, match="cannot normalize over a non-field"):
            f.monic()
        g = xpoly(F7, (0, 1), (1,))
        assert g.monic() is g

    def test_monic_over_field(self):
        assert tpoly(F7, 2, 4).monic() == tpoly(F7, 4, 1)

    @pytest.mark.parametrize(
        "field, coeffs, text",
        [
            (F7, [], "0"),
            (F7, [3], "3"),
            (F7, [0, 1], "x"),
            (F7, [3, 1, 5], "3 + x + 5*x^2"),
            (F7, [0, 6, 0, 1], "6*x + x^3"),
            (F4, [], "0"),
            (F4, [2], "2"),
            (F4, [0, 1], "x"),
            (F4, [1, 3, 0, 1], "1 + 3*x + x^3"),
        ],
    )
    def test_format_and_repr(self, field, coeffs, text):
        # coefficients print as their packed ints, a unit one is left out,
        # zero ones are skipped, and x^1 prints as x
        f = Poly(field, coeffs)
        assert f.format() == text
        assert f.format("t") == text.replace("x", "t")
        assert repr(f) == f"Poly({text})"

    @given(f=tpolys(F5), g=tpolys(F5, min_deg=0))
    def test_divmod_property(self, f, g):
        quo, rem = divmod(f, g)
        assert quo * g + rem == f
        assert rem.degree < g.degree

    @given(f=tpolys(F3), g=tpolys(F3, min_deg=0))
    def test_exact_div_roundtrip(self, f, g):
        assert (f * g).exact_div(g) == f

    @given(f=xpolys(F3, max_xdeg=3, max_tdeg=1), g=xpolys(F3, max_xdeg=2, max_tdeg=1))
    def test_exact_div_over_polyring(self, f, g):
        assert (f * g).exact_div(g) == f


class TestGcd:
    def test_both_zero(self):
        with pytest.raises(errors.MalformedInputError, match=r"gcd\(0, 0\) is undefined"):
            poly_gcd(Poly(F5), Poly(F5))

    def test_one_zero(self):
        f = tpoly(F5, 2, 4)
        assert poly_gcd(f, Poly(F5)) == f.monic()

    @given(f=tpolys(F5, min_deg=0), g=tpolys(F5, min_deg=0), h=tpolys(F5, min_deg=1))
    def test_common_factor_survives(self, f, g, h):
        d = poly_gcd(f * h, g * h)
        assert d.is_monic()
        assert not (d % h.monic())

    @given(f=tpolys(F5, min_deg=0), g=tpolys(F5, min_deg=0))
    def test_divides_both(self, f, g):
        d = poly_gcd(f, g)
        assert not (f % d) and not (g % d)


class TestModpow:
    @given(
        f=tpolys(F5, max_deg=3),
        n=st.integers(0, 64),
        m=monic_tpolys(F5, max_deg=4),
    )
    def test_matches_naive(self, f, n, m):
        assert modpow(f, n, m) == (f**n) % m

    def test_nonmonic_modulus(self):
        with pytest.raises(errors.MalformedInputError, match="modulus must be monic of positive degree"):
            modpow(tpoly(F5, 1), 2, tpoly(F5, 1, 2))

    def test_rejects_polyring(self):
        # a monic modulus over F[t][X]: modpow runs on field products only
        P = xpoly(F2, (0, 1), (0, 0, 1), (0, 0, 1), (1,))
        X = Poly.x(polyring(F2))
        with pytest.raises(TypeError, match="^modpow needs field coefficients$"):
            modpow(X, 8, P)

    @pytest.mark.parametrize("base", [tpoly(F7, 3), tpoly(F7, 3, 1, 1, 1)])
    def test_rejects_mixed_domains(self, base):
        # a base below the modulus's degree is not divided, and still checked
        with pytest.raises(TypeError, match="^mixed-domain polynomial arithmetic$"):
            modpow(base, 5, tpoly(F5, 1, 0, 1))


class TestResultant:
    def test_frozen_over_field(self):
        x_plus = lambda c: tpoly(F7, c, 1)
        f = tpoly(F7, 1, 0, 1)  # X^2 + 1
        assert resultant(f, x_plus(3)) == 3
        assert resultant(x_plus(3), f) == 3  # even degree product: no sign
        assert resultant(x_plus(1), x_plus(2)) == 1  # g(-1) = 1
        assert resultant(x_plus(2), x_plus(1)) == 6  # antisymmetric

    def test_frozen_over_polyring(self):
        P = xpoly(F2, (0, 1), (0, 0, 1), (0, 0, 1), (1,))
        assert resultant(P, xpoly(F2, (1,), (1,))) == tpoly(F2, 1, 1)  # P(1) = 1+t
        a = xpoly(F2, (0, 1), (1,))  # X - t
        b = xpoly(F2, (1, 1), (1,))  # X - (t+1)
        assert resultant(a, b) == tpoly(F2, 1)

    def test_constant_cases(self):
        c = tpoly(F7, 4)
        g = tpoly(F7, 1, 2, 1)
        assert resultant(c, g) == pow(4, 2, 7)
        with pytest.raises(errors.MalformedInputError, match="resultant of the zero polynomial"):
            resultant(Poly(F7), g)

    @given(f=tpolys(F5, min_deg=1, max_deg=4), g=tpolys(F5, min_deg=1, max_deg=4))
    def test_zero_iff_common_root(self, f, g):
        r = resultant(f, g)
        assert bool(r) == (poly_gcd(f, g).degree == 0)

    @given(
        f=tpolys(F7, min_deg=1, max_deg=3),
        g=tpolys(F7, min_deg=1, max_deg=3),
        h=tpolys(F7, min_deg=1, max_deg=3),
    )
    def test_multiplicative(self, f, g, h):
        assert resultant(f, g * h) == F7.mul(resultant(f, g), resultant(f, h))

    @given(f=tpolys(F7, min_deg=1, max_deg=4), g=tpolys(F7, min_deg=1, max_deg=4))
    def test_swap_sign(self, f, g):
        sign = (-1) ** (f.degree * g.degree) % 7
        assert resultant(f, g) == F7.mul(sign, resultant(g, f))


class TestIrreducibility:
    def test_frozen(self):
        assert is_irreducible(F2, tpoly(F2, 1, 1, 1))
        assert not is_irreducible(F2, tpoly(F2, 1, 0, 1))
        assert is_irreducible(F3, tpoly(F3, 1, 0, 1))
        assert not is_irreducible(F5, tpoly(F5, 1, 0, 1))
        assert is_irreducible(F2, tpoly(F2, 1, 1, 0, 0, 1))
        assert is_irreducible(F2, tpoly(F2, 1, 1, 1, 1, 1))

    def test_non_monic_input(self):
        assert not is_irreducible(F3, tpoly(F3, 0, 0, 2))  # 2X^2
        assert is_irreducible(F3, tpoly(F3, 2, 0, 2))  # 2(X^2 + 1)

    @given(f=monic_tpolys(F4, max_deg=3), g=monic_tpolys(F4, max_deg=3))
    def test_products_are_reducible(self, f, g):
        assert not is_irreducible(F4, f * g)

    @pytest.mark.parametrize(
        "field, nmax", [(F2, 7), (F3, 5), (F4, 4), (F5, 3), (F9, 3)], ids=repr
    )
    def test_counts_match_gauss_formula(self, field, nmax):
        """All monic polynomials of each degree, against (1/n) sum mu(d) q^(n/d)."""
        for n in range(1, nmax + 1):
            count = sum(
                is_irreducible(field, Poly(field, list(low) + [1]))
                for low in product(range(field.q), repeat=n)
            )
            assert count == gauss_count(field.q, n)

    @pytest.mark.parametrize(
        "field, nmax", [(F2, 8), (F3, 6), (F5, 4), (F4, 4), (F9, 3)], ids=repr
    )
    def test_agrees_with_factor_exhaustively(self, field, nmax):
        """Every polynomial of degree <= nmax with leading coefficient 1 or
        the top field element, repeated factors included: the distinct-degree
        answer equals "factor gives one factor of multiplicity one"."""
        for n in range(nmax + 1):
            for low in product(range(field.q), repeat=n):
                for lc in {1, field.q - 1}:
                    f = Poly(field, list(low) + [lc])
                    want = f.degree >= 1 and factor(field, f) == [(f.monic(), 1)]
                    assert is_irreducible(field, f) == want, f

    def test_non_squarefree(self):
        assert not is_irreducible(F2, tpoly(F2, 1, 0, 1))  # (X + 1)^2
        cube = tpoly(F3, 2, 0, 0, 1)  # (X - 1)^3 = X^3 - 1, derivative zero
        assert not cube.derivative()
        assert not is_irreducible(F3, cube)
        with pytest.raises(errors.MalformedInputError, match="^polynomial is reducible$"):
            order_of_root(F3, tpoly(F3, 1, 2, 1))  # (X + 1)^2


class TestFactor:
    def test_frozen_gf2(self):
        got = factor(F2, tpoly(F2, 0, 1, 0, 0, 1))  # X^4 + X
        assert got == [
            (tpoly(F2, 0, 1), 1),
            (tpoly(F2, 1, 1), 1),
            (tpoly(F2, 1, 1, 1), 1),
        ]

    def test_frozen_multiplicity(self):
        assert factor(F2, tpoly(F2, 1, 0, 1)) == [(tpoly(F2, 1, 1), 2)]
        f = tpoly(F2, 1, 1) ** 3 * tpoly(F2, 1, 1, 1)
        assert factor(F2, f) == [(tpoly(F2, 1, 1), 3), (tpoly(F2, 1, 1, 1), 1)]

    def test_frozen_gf3_inseparable_shape(self):
        # X^6 + 1 = (X^2 + 1)^3 in characteristic 3
        f = Poly(F3, [1, 0, 0, 0, 0, 0, 1])
        assert factor(F3, f) == [(tpoly(F3, 1, 0, 1), 3)]

    def test_frozen_gf7_roots_of_unity(self):
        f = Poly(F7, [6, 0, 0, 0, 0, 0, 1])  # X^6 - 1
        got = factor(F7, f)
        assert all(h.degree == 1 and m == 1 for h, m in got)
        assert sorted(h.coeff(0) for h, _ in got) == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("field", [F2, F3, F4])
    @settings(max_examples=30)
    @given(data=st.data())
    def test_roundtrip(self, field, data):
        f = data.draw(monic_tpolys(field, max_deg=6))
        got = factor(field, f)
        prod = Poly.const(field, field.one)
        for h, mult in got:
            assert h.is_monic() and is_irreducible(field, h)
            prod *= h**mult
        assert prod == f
        keys = [(h.degree, h.coeffs) for h, _ in got]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)

    def test_deterministic(self):
        f = tpoly(F5, 3, 1, 4, 1, 1, 2, 1)
        assert factor(F5, f) == factor(F5, f)

    def test_large_prime_equal_degree_split(self):
        """Splitting over GF(2^31 - 1) builds nothing of size q."""
        p = 2147483647
        F = make_field(p)
        f1 = Poly(F, [p - 7, 0, 1])  # X^2 - 7, 7 a non-residue mod p
        f2 = Poly(F, [4, 1, 1])  # X^2 + X + 4, discriminant -15 a non-residue
        assert is_irreducible(F, f1) and is_irreducible(F, f2)
        assert factor(F, f1 * f2) == [(f2, 1), (f1, 1)]

    def test_gf2_16_equal_trace_roots_split(self, monkeypatch):
        """X + 2 and X + 3 over GF(2^16) have roots of equal absolute trace.

        No splitting element X + c separates them, so the split must come
        from random elements of higher degree, and it does at once.
        """
        from ffzeta import polycore

        F = make_field(2, 16)
        calls = []
        real = polycore._try_split

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(polycore, "_try_split", counting)
        lin = [Poly(F, [c, 1]) for c in (1, 2, 3)]
        got = factor(F, lin[0] * lin[1] * lin[2])
        assert got == [(h, 1) for h in lin]
        assert len(calls) <= 50
