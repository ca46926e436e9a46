r"""Rational functions over F[t] and the valuation at infinity.

Polynomials in t over a finite field F sit inside the Laurent series field
F((1/t)); the valuation there is v(f) = -deg f, extended to fractions by
v(num/den) = deg den - deg num and to 0 by v(0) = +infinity.  The induced
absolute value is |x| = q**(-v(x)) with q = |F|; Newton polygons read it
off as slopes, so no absolute value is ever materialized.

RatFun is a reduced fraction with a monic denominator, which makes equality
of torus points (fractions mod F[t]) a plain structural comparison; the
brute-force fixed-point count uses it.
"""

from __future__ import annotations

import math

from . import errors
from .polycore import Poly, poly_gcd

INFINITY = math.inf


class RatFun:
    """Element of F(t): num/den with den monic and gcd(num, den) = 1."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num: Poly, den: Poly):
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            den = Poly.const(field, field.one)
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            lc = den.lc
            if lc != field.one:
                c = field.inv(lc)
                num = num.scale(c)
                den = den.scale(c)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RatFun is immutable")

    @classmethod
    def from_poly(cls, field, num: Poly) -> "RatFun":
        return cls(field, num, Poly.const(field, field.one))

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        return RatFun(
            self.field,
            self.num * other.den + other.num * self.den,
            self.den * other.den,
        )

    def __sub__(self, other):
        return RatFun(
            self.field,
            self.num * other.den - other.num * self.den,
            self.den * other.den,
        )

    def __neg__(self):
        return RatFun(self.field, -self.num, self.den)

    def __mul__(self, other):
        return RatFun(self.field, self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if not other.num:
            raise ZeroDivisionError("division by zero rational function")
        return RatFun(self.field, self.num * other.den, self.den * other.num)

    def frac_part(self) -> "RatFun":
        """Representative mod F[t]: numerator reduced mod the denominator."""
        if self.num.degree < self.den.degree:
            return self
        return RatFun(self.field, self.num % self.den, self.den)

    def __eq__(self, other):
        return (
            isinstance(other, RatFun)
            and self.field == other.field
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((RatFun, self.num.coeffs, self.den.coeffs))

    def __repr__(self):
        if self.den.degree == 0:
            return f"RatFun({self.num.format('t')})"
        return f"RatFun(({self.num.format('t')})/({self.den.format('t')}))"


def valuation(x):
    """Valuation at infinity: -deg on F[t], deg den - deg num on F(t)."""
    if isinstance(x, RatFun):
        if not x.num:
            return INFINITY
        return x.den.degree - x.num.degree
    if isinstance(x, Poly):
        if not x:
            return INFINITY
        return -x.degree
    raise TypeError(f"no valuation for {type(x).__name__}")


def redunit(x):
    """Leading unit: the coefficient of the top Laurent term of x at infinity.

    For a polynomial this is the leading coefficient; for a fraction it is
    lc(num)/lc(den), which is lc(num) in the monic-denominator normal form.
    """
    if isinstance(x, RatFun):
        if not x.num:
            raise errors.ZeroInputError("zero has no leading unit")
        return x.field.div(x.num.lc, x.den.lc)
    if isinstance(x, Poly):
        return x.lc
    raise TypeError(f"no leading unit for {type(x).__name__}")
