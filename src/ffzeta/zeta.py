r"""Dynamical zeta functions: classification, closed forms, power series.

The zeta function of the system is exp(sum_k N_k z^k / k).  Whether it is
an algebraic function is decided by divisibility: every unit order must be
divisible by some root-of-unity order (vacuously true when there are no
unit roots).  In the algebraic case N_k = q^{kE} exactly when no
root-of-unity order divides k and is 0 otherwise.  Inclusion-exclusion
over the multiset of root-of-unity orders m writes the indicator of "no m
divides k" as the product of (1 - [m | k]); expanded in the algebra where
[a | k][b | k] = [lcm(a, b) | k] it is sum_L c_L [L | k], and the
exponential sum becomes the finite product of (1 - (q^E z)^L)^{-c_L/L}.
The expansion is one pass over the distinct orders with a dict keyed by
lcm, so it has no more terms than there are distinct lcms.  In the transcendental
case a certificate records the smallest offending unit order.

Series expansions come from two independent directions: the exponential
recurrence n c_n = sum N_k c_{n-k} driven by N_k from any route, and the
generalized binomial expansion of the closed-form product.  The inverse
recurrence recovers the N_k from a series, closing the loop for tests.

All three series routines run on Python ints over one common denominator
and build each coefficient once, at the end, by _exact: an int when it
is integral, as the Dold congruences make it unless the N_k = 0
convention breaks them, and a Fraction in lowest terms otherwise.  The
forward recurrence runs on the series in w = q^c z, for the largest c
that leaves every nonzero N'_k = N_k / q^(ck) an int, so that its products
stay short.  It carries p_n = order! c'_n, ints because the N'_k are:
n p_n = sum_k N'_k p_{n-k}, one exact divmod by n, and
c_n = q^(cn) p_n / order!.  The closed form is expanded in w = q^E z: a
factor (1 - w^L)^(a/b) has the integer terms
t_j = prod_{i<j} (i b - a) b^(J-j) J!/j! over b^J J!, J = order // L, the
factors are multiplied by an integer convolution at stride L and their
denominators multiplied, and c_n = q^(En) num_n / den.  The inverse
recurrence scales the series by the common denominator D of
c_0..c_order, so that a_n = D c_n are ints:
D N_k = k a_k - sum_{j<k} N_j a_{k-j}, and one divmod by D gives N_k or
shows it is not an integer.

Large numbers are rendered by one rule, here: num_str prints an int or a
Fraction in full, and power_str prints q^n in full while n is at most
dynamics.INT_RENDER_CAP and as the text "q^n" past it.  N_k values and the
closed form's q^(E L) go through power_str, so an lcm L of root-of-unity
orders as large as q^delta - 1 costs nothing to print.  Below z^L a factor
(1 - (q^E z)^L)^gamma is 1, so the closed-form series skips factors with
L past the order and never forms their q^(E L).
"""

from __future__ import annotations

import decimal
from fractions import Fraction
from math import factorial, lcm
from operator import mul
from typing import NamedTuple

from . import errors
from .dynamics import INT_RENDER_CAP
from .spectral import SpectralData


def num_str(x) -> str:
    """str(x) for an int or a Fraction, in subquadratic time for long ints.

    CPython 3.11 converts ints to decimal in quadratic time, and refuses
    past 4300 digits, while N_k values and series terms reach about
    282,000 digits within the caps.  A long n is split in binary halves,
    n = hi * 2^w + lo, and recombined in the decimal module, whose products
    are subquadratic; at MAX_PREC with integer operands every step is exact.
    """
    if x.denominator != 1:
        return f"{num_str(x.numerator)}/{num_str(x.denominator)}"
    n = x.numerator
    if n.bit_length() <= 1024:
        return str(n)
    if n < 0:
        return "-" + num_str(-n)
    D = decimal.Decimal
    pow2 = {}

    def two_to(w):
        if w not in pow2:
            pow2[w] = D(2) ** w if w <= 1024 else two_to(w // 2) * two_to(w - w // 2)
        return pow2[w]

    def to_dec(m, bits):
        if bits <= 1024:
            return D(m)
        w = bits // 2
        hi = m >> w
        return to_dec(hi, bits - w) * two_to(w) + to_dec(m - (hi << w), w)

    ctx = decimal.Context(
        prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact]
    )
    with decimal.localcontext(ctx):
        return str(to_dec(n, n.bit_length()))


def power_str(q: int, n: int) -> str:
    """q**n in full up to INT_RENDER_CAP, the text q^n past it."""
    return num_str(q**n) if n <= INT_RENDER_CAP else f"{q}^{n}"


class SeriesTrunc(NamedTuple("SeriesTrunc", [("order", int), ("coeffs", tuple)])):
    """Truncated power series around 0 with exact rational coefficients.

    coeffs holds order + 1 ints, with Fractions where not integral.
    """

    __slots__ = ()

    def __new__(cls, order: int, coeffs: tuple):
        if len(coeffs) != order + 1:
            raise errors.InternalInvariantError("series length mismatch")
        return super().__new__(cls, order, coeffs)


class ZetaClosedForm(NamedTuple):
    """Product of (1 - (q^E z)^L)^gamma over the factor list.

    factors is a tuple of (L, gamma) with integer L >= 1 and nonzero
    Fraction gamma, sorted by L; equal L are merged and zero exponents
    dropped, so equal products compare equal structurally.
    """

    q: int
    E: int
    factors: tuple

    def display(self) -> str:
        if not self.factors:
            return "1"

        def one_factor(L, gamma):
            coef = power_str(self.q, self.E * L)
            inner = "1-z" if coef == "1" else f"1-{coef}z"
            if L > 1:
                inner += f"^{L}"
            s = f"({inner})"
            mag = abs(gamma)
            if mag != 1:
                s += f"^{{{mag}}}"
            return s

        num = "".join(one_factor(L, g) for L, g in self.factors if g > 0)
        den_parts = [one_factor(L, g) for L, g in self.factors if g < 0]
        den = "".join(den_parts)
        if len(den_parts) > 1:
            den = f"({den})"
        if not den:
            return num
        return f"{num or '1'}/{den}"


class TranscendenceCertificate(NamedTuple):
    """Witness of transcendence: a unit order no root-of-unity order divides."""

    bad_unit_order: int
    rou_orders: tuple


class ZetaResult(NamedTuple):
    algebraic: bool
    closed_form: object  # ZetaClosedForm or None
    certificate: object  # TranscendenceCertificate or None
    radius_exponent: int  # radius of convergence is q**radius_exponent


def _bad_unit_order(sd: SpectralData):
    ms = [m for m, _ in sd.rou_orders]
    for n, _ in sd.unit_orders:
        if not any(n % m == 0 for m in ms):
            return n
    return None


def closed_form(sd: SpectralData) -> ZetaClosedForm:
    """Expand the inclusion-exclusion product for an algebraic system."""
    bad = _bad_unit_order(sd)
    if bad is not None:
        raise errors.MalformedInputError(
            f"unit order {bad} is not divisible by any root-of-unity order"
        )
    # c holds the product of (1 - [m]) over the orders so far, in the
    # algebra where [a][b] = [lcm(a, b)].  There [m]^2 = [m], so
    # (1 - [m])^mult = 1 - [m]: each distinct order enters once, and the
    # keys of c are lcms of distinct orders.
    c = {1: 1}
    for m, _mult in sd.rou_orders:
        for L, v in list(c.items()):
            Lm = lcm(L, m)
            c[Lm] = c.get(Lm, 0) - v
    factors = tuple(sorted((L, Fraction(-v, L)) for L, v in c.items() if v))
    return ZetaClosedForm(q=sd.field.q, E=sd.E, factors=factors)


def classify(sd: SpectralData) -> ZetaResult:
    """Decide algebraic versus transcendental and attach the evidence."""
    bad = _bad_unit_order(sd)
    if bad is None:
        return ZetaResult(
            algebraic=True,
            closed_form=closed_form(sd),
            certificate=None,
            radius_exponent=-sd.E,
        )
    return ZetaResult(
        algebraic=False,
        closed_form=None,
        certificate=TranscendenceCertificate(
            bad_unit_order=bad,
            rou_orders=tuple(m for m, _ in sd.rou_orders),
        ),
        radius_exponent=-sd.E,
    )


def _exact(xs: list, Q: int, d: int) -> tuple:
    """Q^n xs[n] / d for each n: an int where d divides it, else a Fraction."""
    out, power = [], 1
    for x in xs:
        quo, rem = divmod(x * power, d)
        out.append(Fraction(x * power, d) if rem else quo)
        power *= Q
    return tuple(out)


def series_from_nk(q: int, nk_source, order: int) -> SeriesTrunc:
    """exp(sum N_k z^k / k) truncated at z^order, exactly.

    nk_source is a sequence of NkValue covering k = 1..order.  With
    N_k = q^(e_k) and c the least floor(e_k / k) over the nonzero N_k
    (0 if there are none), z = w / q^c gives exp(sum N'_k w^k / k) with
    N'_k = q^(e_k - ck), ints, so the recurrence runs on the ints
    p_n = order! c'_n of that series and c_n = q^(cn) p_n / order!.  c is
    read off the table itself, never off the spectral data, so the route
    stays independent of the closed form.
    """
    nks = list(nk_source)
    if len(nks) < order:
        raise errors.MalformedInputError("not enough N_k values for the order")
    nks = list(enumerate(nks[:order], start=1))
    c = min((v.exponent // k for k, v in nks if not v.is_zero), default=0)
    N = [0 if v.is_zero else q ** (v.exponent - c * k) for k, v in nks]
    F = factorial(order)
    ps = [F]
    for n in range(1, order + 1):
        p, rem = divmod(sum(map(mul, N, reversed(ps))), n)
        if rem:
            raise errors.InternalInvariantError(f"order! c'_{n} is not an integer")
        ps.append(p)
    return SeriesTrunc(order, _exact(ps, q**c, F))


def series_from_closed_form(cf: ZetaClosedForm, order: int) -> SeriesTrunc:
    """The binomial expansion of the closed-form product, to z^order."""
    num, den = [1] + [0] * order, 1
    for L, gamma in cf.factors:
        if L > order:
            continue
        a, b, J = gamma.numerator, gamma.denominator, order // L
        t = [b**J * factorial(J)]  # t_j = t_{j-1} ((j-1) b - a) / (j b)
        for j in range(1, J + 1):
            t.append(t[-1] * ((j - 1) * b - a) // (j * b))
        nxt = [0] * (order + 1)
        for i, x in enumerate(num):
            if x:
                for j, tj in enumerate(t[: (order - i) // L + 1]):
                    if tj:
                        nxt[i + j * L] += x * tj
        num, den = nxt, den * t[0]
    return SeriesTrunc(order, _exact(num, cf.q**cf.E, den))


def nk_from_series(st: SeriesTrunc) -> list:
    """Invert the exponential recurrence; entries must come out integral.

    Coefficients may be ints or Fractions; the constant term must be 1.
    """
    cs = st.coeffs
    if cs[0] != 1:
        raise errors.MalformedInputError(f"series constant term is {cs[0]}, not 1")
    D = lcm(*(c.denominator for c in cs))
    a = [c.numerator * (D // c.denominator) for c in cs]
    N = []
    for k in range(1, st.order + 1):
        acc = k * a[k] - sum(map(mul, N, a[k - 1 : 0 : -1]))
        nk, rem = divmod(acc, D)
        if rem:
            raise errors.MalformedInputError(f"N_{k} from series is {Fraction(acc, D)}")
        N.append(nk)
    return N
