"""Dense univariate polynomial engine over pluggable coefficient domains.

A coefficient domain is a ``Domain`` subclass with ``zero``, ``one`` and
the scalar interface ``add/sub/neg/mul/exact_div`` (plus ``inv`` when
``is_field`` is true; a field's ``exact_div`` is a product by ``inv``).
An element is zero exactly when it is falsy: a field element is an int,
and a polynomial is a ``Poly``, falsy when it has no coefficients.
``Domain`` supplies the five bulk kernels that ``Poly`` arithmetic runs
on, on plain coefficient lists, low degree first, as loops over the
scalar operations: ``poly_add``, ``poly_sub``, ``poly_neg``,
``poly_mul`` and ``poly_divmod``.  A domain may override one wholesale,
as ``gf.Field`` does for ``poly_mul`` and ``poly_divmod`` (one loop per
field kind, and one Kronecker routine on Python ints for long
operands); a tracer can time them per domain.  Over a field the scalar
loops are the tests' references for the field's own.  Two products
need a field: ``modpow`` runs on ``gf.Field.residue_ops``, one int per
residue over a prime field, and ``PolyRing.dot``, each matrix entry of
``polymat`` over F[t], on ``gf.Field.poly_dot``, a sum of products
reduced once.

Domains are compared by identity: ``gf.make_field`` and ``polyring``
return one cached instance per ring, so polynomials over equal rings
share their domain object, and arithmetic across two domain objects
raises TypeError.

Every power in the package, of a polynomial, of a polynomial mod f, of
a matrix or of a field element while GF(p^e) builds its tables, goes
through the one binary-powering loop ``power(x, n, mul, one)``.

Polynomials are immutable: a tuple of coefficients, low degree first, with
no trailing zeros.  The zero polynomial has an empty tuple.  The same class
serves for polynomials in t over a finite field, polynomials in X over a
finite field, and polynomials in X whose coefficients are themselves
polynomials in t; the coefficient domain decides.

Beyond arithmetic this module provides monic gcd, modular exponentiation,
resultants by the subresultant pseudo-remainder sequence, and full
factorization over a finite field (squarefree split, distinct-degree split,
equal-degree split); ``is_irreducible`` reads the distinct-degree split
alone.

The equal-degree split is Cantor-Zassenhaus.  For a product f of distinct
degree-d irreducibles and a random alpha mod f, the map T(alpha) is
alpha^((q^d - 1)/2) - 1 in odd characteristic and the absolute trace
alpha + alpha^2 + ... + alpha^(2^(ed - 1)) over GF(2^e); each root of f
sends it to zero or not independently with probability about 1/2, so
gcd(f, T(alpha)) is a proper factor with probability about 1/2 or more.  The
alphas come from one random.Random(FACTOR_SEED) stream per factor call: the
sorted factorization is unique, so the stream only decides how fast it is
found.
"""

from __future__ import annotations

import random
from functools import lru_cache

from . import errors

# Seed of the equal-degree splitting stream; the CLI report prints it.
FACTOR_SEED = 0


class Domain:
    """Generic coefficient kernels; scalar ops come from subclasses."""

    is_field = False
    zero = None
    one = None

    # -- bulk kernels on raw coefficient lists ----------------------------

    def poly_add(self, xs, ys):
        add = self.add
        return [add(a, b) for a, b in zip(xs, ys)] + xs[len(ys) :] + ys[len(xs) :]

    def poly_neg(self, xs):
        return [self.neg(c) for c in xs]

    def poly_sub(self, xs, ys):
        sub = self.sub
        tail = self.poly_neg(ys[len(xs) :])
        return [sub(a, b) for a, b in zip(xs, ys)] + xs[len(ys) :] + tail

    def poly_mul(self, xs, ys):
        if not xs or not ys:
            return []
        out = [self.zero] * (len(xs) + len(ys) - 1)
        for i, a in enumerate(xs):
            if not a:
                continue
            for j, b in enumerate(ys):
                out[i + j] = self.add(out[i + j], self.mul(a, b))
        return out

    def poly_divmod(self, xs, ys):
        """Long division; leading-coefficient steps must divide exactly.

        Always valid over a field or for a monic divisor.  Otherwise each
        step uses exact_div, which over a mere integral domain raises when
        the division is not exact.
        """
        m = len(ys) - 1
        dlc = ys[-1]
        monic = dlc == self.one
        rem = list(xs)
        if len(xs) <= m:
            return [], rem
        quo = [self.zero] * (len(xs) - m)
        for j in range(len(xs) - m - 1, -1, -1):
            lead = rem[j + m]
            if not lead:
                continue
            c = lead if monic else self.exact_div(lead, dlc)
            quo[j] = c
            rem[j + m] = self.zero
            for i in range(m):
                rem[j + i] = self.sub(rem[j + i], self.mul(c, ys[i]))
        return quo, rem[:m]


class Poly:
    """Immutable dense univariate polynomial over a coefficient domain."""

    __slots__ = ("dom", "coeffs")

    def __init__(self, dom, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.dom = dom
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, dom, c):
        return cls(dom, (c,))

    @classmethod
    def x(cls, dom):
        return cls(dom, (dom.zero, dom.one))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    @property
    def lc(self):
        if not self.coeffs:
            raise errors.MalformedInputError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.dom.zero

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == self.dom.one

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.dom.one

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return Poly(self.dom, self.dom.poly_add(list(self.coeffs), list(other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return Poly(self.dom, self.dom.poly_sub(list(self.coeffs), list(other.coeffs)))

    def __neg__(self):
        return Poly(self.dom, self.dom.poly_neg(list(self.coeffs)))

    def __mul__(self, other):
        self._check(other)
        if not self or not other:
            return Poly(self.dom)
        return Poly(self.dom, self.dom.poly_mul(list(self.coeffs), list(other.coeffs)))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        return power(self, n, Poly.__mul__, Poly.const(self.dom, self.dom.one))

    def scale(self, c):
        if not c:
            return Poly(self.dom)
        mul = self.dom.mul
        return Poly(self.dom, [mul(x, c) for x in self.coeffs])

    def shift(self, k: int):
        """Multiply by X**k."""
        if not self:
            return self
        return Poly(self.dom, (self.dom.zero,) * k + self.coeffs)

    def __divmod__(self, other):
        self._check(other)
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        q, r = self.dom.poly_divmod(list(self.coeffs), list(other.coeffs))
        return Poly(self.dom, q), Poly(self.dom, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        quo, rem = divmod(self, other)
        if rem:
            raise errors.InternalInvariantError("polynomial division not exact")
        return quo

    def monic(self):
        if not self:
            raise errors.MalformedInputError("cannot normalize the zero polynomial")
        if self.is_monic():
            return self
        if not self.dom.is_field:
            raise errors.MalformedInputError("cannot normalize over a non-field")
        return self.scale(self.dom.inv(self.lc))

    def derivative(self):
        """Formal derivative over a field, whose ``from_int`` reduces i mod p."""
        dom = self.dom
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(dom.mul(self.coeffs[i], dom.from_int(i)))
        return Poly(dom, out)

    def map(self, new_dom, fn):
        """Apply fn to every coefficient, landing in new_dom."""
        return Poly(new_dom, [fn(c) for c in self.coeffs])

    # -- plumbing ------------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Poly) or other.dom is not self.dom:
            raise TypeError("mixed-domain polynomial arithmetic")

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.dom is other.dom
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((Poly, self.coeffs))

    def format(self, var: str = "x") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            cs = str(c)
            if i == 0:
                parts.append(cs)
            else:
                head = "" if c == self.dom.one else f"{cs}*"
                parts.append(f"{head}{var}" + (f"^{i}" if i > 1 else ""))
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly({self.format()})"


class PolyRing(Domain):
    """A polynomial ring viewed as a coefficient domain for outer polynomials."""

    is_field = False

    def __init__(self, base: Domain):
        self.base = base
        self.zero = Poly(base)
        self.one = Poly.const(base, base.one)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def exact_div(self, a, b):
        return a.exact_div(b)

    def dot(self, xs, ys):
        """sum xs[i] * ys[i] as one ``poly_dot`` of the base, a field."""
        pairs = [(x.coeffs, y.coeffs) for x, y in zip(xs, ys) if x and y]
        return Poly(self.base, self.base.poly_dot(pairs)) if pairs else self.zero

    def __repr__(self):
        return f"PolyRing({self.base!r})"


@lru_cache(maxsize=None)
def polyring(base) -> PolyRing:
    return PolyRing(base)


# ---------------------------------------------------------------------------
# powering, gcd, modular exponentiation
# ---------------------------------------------------------------------------


def power(x, n: int, mul, one):
    """x**n for n >= 0 by binary powering with the product mul.

    Returns one at n = 0 and never multiplies by it, so n >= 1 takes
    bitlen(n) - 1 squarings and popcount(n) - 1 further products, and
    n = 1 returns x itself.
    """
    out = None
    while n:
        if n & 1:
            out = x if out is None else mul(out, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return one if out is None else out


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor over a coefficient field."""
    if not f and not g:
        raise errors.MalformedInputError("gcd(0, 0) is undefined")
    if not f.dom.is_field:
        raise TypeError("poly_gcd needs field coefficients")
    while g:
        f, g = g, f % g
    return f.monic()


def modpow(base: Poly, n: int, modulus: Poly) -> Poly:
    """base**n mod modulus by binary exponentiation over a field.

    The powering runs on the field's residues mod the modulus
    (``gf.Field.residue_ops``: one int each over a prime field, lists of
    coefficient logs for odd p and e >= 2, coefficient lists for p = 2 and
    e >= 2), and one Poly is built at the end.  The
    modulus must be monic of degree at least 1.
    """
    if not modulus.is_monic() or modulus.degree < 1:
        raise errors.MalformedInputError("modulus must be monic of positive degree")
    if n < 0:
        raise ValueError("negative exponent")
    dom = base.dom
    if not dom.is_field:
        raise TypeError("modpow needs field coefficients")
    pack, mul, unpack = dom.residue_ops(list(modulus.coeffs))
    base._check(modulus)  # a base of lower degree skips the division's check
    x = pack(list((base if base.degree < modulus.degree else base % modulus).coeffs))
    return Poly(dom, unpack(power(x, n, mul, pack([dom.one]))))


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------


def _prem(f: Poly, g: Poly) -> Poly:
    """Pseudo-remainder: rem(lc(g)**(deg f - deg g + 1) * f, g), no divisions."""
    dom = f.dom
    ell = g.lc
    r = f
    steps = f.degree - g.degree + 1
    for _ in range(steps):
        if not r or r.degree < g.degree:
            r = r.scale(ell)
            continue
        lead = r.lc
        r = r.scale(ell) - g.shift(r.degree - g.degree).scale(lead)
    return r


def resultant(f: Poly, g: Poly):
    """Resultant of f and g as an element of the coefficient domain.

    Res(f, g) = lc(f)**deg(g) * product of g over the roots of f.  Computed
    by the subresultant pseudo-remainder sequence (Cohen, Algorithm 3.3.7,
    without the content step): each pseudo-remainder is divided exactly by
    lead * h**delta, so over F[t] no fractions appear, and over a finite
    field it is a remainder sequence with rescaled remainders.
    """
    if not f or not g:
        raise errors.MalformedInputError("resultant of the zero polynomial")
    dom = f.dom

    def dpow(c, k):
        return power(c, k, dom.mul, dom.one)

    neg = False
    if f.degree < g.degree:
        f, g = g, f
        neg = f.degree % 2 == 1 and g.degree % 2 == 1
    lead = h = dom.one
    while g.degree > 0:
        delta = f.degree - g.degree
        if f.degree % 2 == 1 and g.degree % 2 == 1:
            neg = not neg
        r = _prem(f, g)
        if not r:
            return dom.zero
        c = dom.mul(lead, dpow(h, delta))
        f, g = g, Poly(dom, [dom.exact_div(x, c) for x in r.coeffs])
        lead = f.lc
        if delta:
            h = dom.exact_div(dpow(lead, delta), dpow(h, delta - 1))
    if f.degree == 0:
        # the loop never ran: both are constants
        return dom.one
    res = dom.exact_div(dpow(g.lc, f.degree), dpow(h, f.degree - 1))
    return dom.neg(res) if neg else res


# ---------------------------------------------------------------------------
# irreducibility and factorization over a finite field
# ---------------------------------------------------------------------------


def _pth_root(field, f: Poly) -> Poly:
    # f is a polynomial in X^p; c -> c^(q/p) inverts the Frobenius on GF(q)
    p = field.p
    root_exp = field.q // p
    out = [field.pow(f.coeff(i * p), root_exp) for i in range(f.degree // p + 1)]
    return Poly(field, out)


def squarefree_parts(field, f: Poly):
    """Characteristic-p squarefree decomposition of a monic polynomial.

    Returns a list of (g, m) with g monic squarefree, pairwise coprime, and
    f = prod g**m.
    """
    out = []
    df = f.derivative()
    c = poly_gcd(f, df) if df else f
    w = f.exact_div(c)
    i = 1
    while not w.is_one():
        y = poly_gcd(w, c)
        z = w.exact_div(y)
        if not z.is_one():
            out.append((z, i))
        w = y
        c = c.exact_div(y)
        i += 1
    if not c.is_one():
        for g, m in squarefree_parts(field, _pth_root(field, c)):
            out.append((g, m * field.p))
    return out


def _distinct_degree(field, f: Poly):
    """Split a monic squarefree f into (product of degree-d irreducibles, d)."""
    out = []
    rest = f
    h = Poly.x(field) % rest
    d = 0
    while rest.degree > 0 and rest.degree > 2 * d:
        d += 1
        h = modpow(h, field.q, rest)
        g = poly_gcd(rest, h - Poly.x(field))
        if not g.is_one():
            out.append((g, d))
            rest = rest.exact_div(g)
            if rest.degree > 0:
                h = h % rest
    if rest.degree > 0:
        out.append((rest, rest.degree))
    return out


def _try_split(field, f: Poly, d: int, alpha: Poly):
    """A proper factor gcd(f, T(alpha)) of f, or None when alpha fails."""
    if field.p == 2:
        # Absolute trace to GF(2): alpha + alpha^2 + ... + alpha^(2^(ed-1))
        u = alpha % f
        cand = u
        for _ in range(field.e * d - 1):
            u = modpow(u, 2, f)
            cand = cand + u
    else:
        s = modpow(alpha, (field.q ** d - 1) // 2, f)
        cand = s - Poly.const(field, field.one)
    if not cand:
        return None
    g = poly_gcd(f, cand)
    if 0 < g.degree < f.degree:
        return g
    return None


def _equal_degree(field, f: Poly, d: int, rng):
    """The factors of f, a product of distinct monic degree-d irreducibles."""
    if f.degree == d:
        return [f]
    while True:
        alpha = Poly(field, [rng.randrange(field.q) for _ in range(f.degree)] + [1])
        g = _try_split(field, f, d, alpha)
        if g is not None:
            return _equal_degree(field, g, d, rng) + _equal_degree(
                field, f.exact_div(g), d, rng
            )


def factor(field, f: Poly):
    """Full factorization over GF(q).

    Returns a list of (irreducible monic factor, multiplicity), sorted by
    degree then by coefficient tuple; the factorization is unique, so the
    output does not depend on the splitting elements drawn.  The leading
    coefficient is dropped: f = lc(f) * prod factor**mult.
    """
    if not f:
        raise errors.MalformedInputError("cannot factor the zero polynomial")
    if f.degree == 0:
        return []
    found = {}
    rng = random.Random(FACTOR_SEED)
    for g, mult in squarefree_parts(field, f.monic()):
        for part, d in _distinct_degree(field, g):
            for irr in _equal_degree(field, part, d, rng):
                found[irr] = found.get(irr, 0) + mult
    return sorted(found.items(), key=lambda it: (it[0].degree, it[0].coeffs))


def is_irreducible(field, f: Poly) -> bool:
    """True when f is irreducible over GF(q), by the distinct-degree split.

    No squarefree split is needed: a reducible f has an irreducible factor
    of degree <= deg f / 2, so the split's loop finds a gcd before it ends.
    """
    if f.degree < 1:
        return False
    g = f.monic()
    return _distinct_degree(field, g) == [(g, g.degree)]
