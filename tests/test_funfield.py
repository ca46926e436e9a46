"""The valuation at infinity and reduced rational functions."""

import pytest
from hypothesis import assume, given

from conftest import tpoly, tpolys
from ffzeta import errors, make_field
from ffzeta.funfield import INFINITY, RatFun, redunit, valuation
from ffzeta.polycore import Poly

F2 = make_field(2)
F3 = make_field(3)
F7 = make_field(7)


def ratfuns(field, max_deg=3):
    return tpolys(field, max_deg=max_deg).flatmap(
        lambda num: tpolys(field, max_deg=max_deg, min_deg=0).map(
            lambda den: RatFun(field, num, den)
        )
    )


class TestValuation:
    def test_polynomial_anchors(self):
        assert valuation(tpoly(F2, 1, 0, 0, 1)) == -3
        assert valuation(tpoly(F2, 1)) == 0
        assert valuation(Poly(F2)) == INFINITY

    def test_fraction_anchors(self):
        t = tpoly(F3, 0, 1)
        one = tpoly(F3, 1)
        assert valuation(RatFun(F3, one, t)) == 1
        assert valuation(RatFun(F3, tpoly(F3, 1, 0, 1), t)) == -1
        assert valuation(RatFun(F3, Poly(F3), one)) == INFINITY

    def test_rejects_foreign_types(self):
        with pytest.raises(TypeError):
            valuation(3)

    @given(a=ratfuns(F3), b=ratfuns(F3))
    def test_ultrametric(self, a, b):
        va, vb, vs = valuation(a), valuation(b), valuation(a + b)
        assert vs >= min(va, vb)
        if va != vb:
            assert vs == min(va, vb)

    @given(a=ratfuns(F3), b=ratfuns(F3))
    def test_multiplicative(self, a, b):
        assume(a and b)
        assert valuation(a * b) == valuation(a) + valuation(b)


class TestRatFun:
    def test_reduces_common_factors(self):
        # (t^2 - 1)/(t - 1) = t + 1
        num = tpoly(F3, 2, 0, 1)
        den = tpoly(F3, 2, 1)
        assert RatFun(F3, num, den) == RatFun.from_poly(F3, tpoly(F3, 1, 1))

    def test_monic_denominator(self):
        x = RatFun(F3, tpoly(F3, 1), tpoly(F3, 0, 2))  # 1/(2t)
        assert x.den == tpoly(F3, 0, 1)
        assert x.num == tpoly(F3, 2)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RatFun(F3, tpoly(F3, 1), Poly(F3))

    def test_frac_part(self):
        t = tpoly(F3, 0, 1)
        x = RatFun(F3, tpoly(F3, 1, 0, 1), t)  # (t^2+1)/t
        assert x.frac_part() == RatFun(F3, tpoly(F3, 1), t)

    @given(x=ratfuns(F3), f=tpolys(F3))
    def test_frac_part_kills_polynomials(self, x, f):
        shifted = x + RatFun.from_poly(F3, f)
        assert shifted.frac_part() == x.frac_part()

    @given(x=ratfuns(F3), y=ratfuns(F3), z=ratfuns(F3))
    def test_field_axioms(self, x, y, z):
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        if y:
            assert (x / y) * y == x

    def test_immutable(self):
        x = RatFun.from_poly(F3, tpoly(F3, 1))
        with pytest.raises(AttributeError):
            x.num = tpoly(F3, 2)


class TestRedunit:
    def test_anchors(self):
        t7 = tpoly(F7, 0, 1)
        assert redunit(RatFun(F7, tpoly(F7, 1, 3), t7)) == 3
        assert redunit(tpoly(F7, 5, 0, 2)) == 2
        assert redunit(RatFun(F7, tpoly(F7, 5, 0, 2), tpoly(F7, 1, 1))) == 2

    def test_zero_rejected(self):
        with pytest.raises(errors.ZeroInputError):
            redunit(Poly(F7))

