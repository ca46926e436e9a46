r"""Entropy and periodic-point counts for torus endomorphisms.

A d x d matrix A over F[t] with det A != 0 acts on the torus
(F((1/t))/F[t])^d.  Its k-periodic points form a finite group of order
N_k = |det(A^k - I)| whenever that determinant is nonzero, and the count
is q to the degree of the determinant.  N_k values are therefore carried
as exponents (NkValue); the integer is materialized only on request, with
a cap, since exponents grow linearly in k.

Two independent routes compute N_k:

  * nk_direct / nk_table: the determinant, read in the 1/t-adic
    completion F((s)), s = 1/t.  With a the largest entry degree and
    B = s^a A(1/s), det(B^k - s^(ak) I) = s^(akd) det(A^k - I)(1/s), so
    N_k = q^(akd - v) for v the s-adic valuation of the left side.  v is
    the lowest nonzero coefficient of the division-free ``det`` over
    F[s]/(s^N).  N starts at a precision predicted from the last values
    of v and doubles on a zero result, up to akd + 1, where nothing is
    truncated and a zero proves N_k = 0.  Then N_jk = 0 for every j, as
    A^k - I divides A^jk - I.  No charpoly, factoring or root order is used;
  * nk_spectral: evaluate the closed formula from the spectral data
    (zero when a root-of-unity order divides k, otherwise
    k*E + p^{v_p(k)} * sum of the weights at unit orders dividing k).

Fixed points (k = 1) get two more routes: the Smith normal form of A - I,
and explicit enumeration of solutions of (A - I)x = 0 on the torus, the
latter only for tiny instances.  The enumeration solves over F(t) by
Cramer's rule and keys each solution coordinate num/den by its class mod
F[t]: the reduced fraction with den monic and deg num < deg den.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from . import errors
from .newton import polygon
from .polycore import Poly, TruncRing, poly_gcd, polyring
from .polymat import charpoly, det, identity, mat_mul, mat_sub, matpow, smith
from .spectral import SpectralData, spectral_data

INT_RENDER_CAP = 10**4


@dataclass(frozen=True)
class NkValue:
    """A periodic-point count: zero, or q**exponent."""

    is_zero: bool
    exponent: int

    @classmethod
    def zero(cls) -> "NkValue":
        return cls(True, 0)

    @classmethod
    def of(cls, exponent: int) -> "NkValue":
        return cls(False, exponent)

    def as_int(self, q: int) -> int:
        if self.is_zero:
            return 0
        if self.exponent > INT_RENDER_CAP:
            raise errors.CapExceededError(
                f"q**{self.exponent} exceeds the integer rendering cap"
            )
        return q**self.exponent


@dataclass(frozen=True)
class Entropy:
    """Topological entropy E * log q, kept exact as the pair (E, q)."""

    E: int
    q: int

    @property
    def value(self) -> float:
        return self.E * math.log(self.q)


def checked_charpoly(field, A) -> Poly:
    """charpoly(A) in F[t][X]; rejects singular A.

    det A = (-1)^d P(0) for P = charpoly(A), so the constant term of P
    decides singularity without a determinant of its own.
    """
    P = charpoly(polyring(field), A)
    if not P.coeff(0):
        raise errors.SingularMatrixError("matrix determinant is zero")
    return P


def system_data(field, A) -> SpectralData:
    """Spectral data of A's characteristic polynomial; rejects singular A."""
    return spectral_data(field, checked_charpoly(field, A))


def entropy(field, A) -> Entropy:
    """E from the Newton polygon of charpoly(A) alone: no factoring."""
    return Entropy(polygon(checked_charpoly(field, A)).entropy_exponent, field.q)


def _reversal(field, A):
    """(a, B): a the largest entry degree (0 for a zero matrix), B = s^a A(1/s).

    Each entry x of degree at most a becomes s^a x(1/s), its coefficient
    list reversed and padded at the low end to length a + 1.
    """
    a = max(0, max((x.degree for row in A for x in row), default=0))
    B = [
        [
            Poly(field, (field.zero,) * (a - x.degree) + x.coeffs[::-1]) if x else x
            for x in row
        ]
        for row in A
    ]
    return a, B


def _lowest(field, coeffs) -> int:
    """Index of the first nonzero coefficient of a nonzero polynomial."""
    return next(i for i, c in enumerate(coeffs) if not field.is_zero(c))


class _ReversedPowers:
    """B^k = s^m C mod s^P for B = s^a A(1/s); the precision P only grows.

    m is the least entry valuation of B^k mod s^P (P if B^k = 0 mod s^P)
    and C is known mod s^(P - m).  Once B^k is exact, C = s^(deg A^k)
    A^k(1/s), so its entries are no longer than those of A^k over F[t],
    whose degree falls below ak when the leading-coefficient matrix is
    singular.
    ``advance`` steps k by one product C B.  ``at(N)`` makes P >= N,
    rebuilding B^k by binary powering unless it is already exact (P > ak,
    since deg_s B^k <= ak).  An exact B^k is kept exact from then on, so
    each later step is one exact product.  A rebuild at least doubles P,
    so there are few of them.
    """

    def __init__(self, field, A, k: int = 1):
        self.field = field
        self.a, self.B = _reversal(field, A)
        self.k = k
        self._rebuild(1)

    def _rebuild(self, P: int):
        self.P = P
        self.m = 0
        self._strip(matpow(TruncRing(self.field, P), self.B, self.k))

    def _strip(self, C: list):
        """Store s^m C as s^(m + j) (C / s^j) for the largest such j."""
        j = min(
            (_lowest(self.field, x.coeffs) for row in C for x in row if x),
            default=self.P - self.m,
        )
        self.m += j
        if j:
            C = [[Poly(self.field, x.coeffs[j:]) for x in row] for row in C]
        self.C = C

    def advance(self):
        if self.a * self.k < self.P:
            self.P = max(self.P, self.a * (self.k + 1) + 1)
        self.k += 1
        if self.m < self.P:
            self._strip(mat_mul(TruncRing(self.field, self.P - self.m), self.C, self.B))

    def at(self, N: int):
        """(m, C) with B^k = s^m C mod s^N, C known mod s^(N - m)."""
        if N > self.P:
            if self.a * self.k < self.P:
                self.P = N
            else:
                self._rebuild(max(N, 2 * self.P))
        return self.m, self.C


def _nk_value(powers: _ReversedPowers, start: int):
    """(N_k, v) at k = powers.k, with v = v_s det(B^k - s^(ak) I), None if zero.

    The determinant is taken mod s^N, where the division-free ``det`` is
    exact, and N_k = q^(akd - v).  With B^k = s^m C and u = min(m, ak),
    det(B^k - s^(ak) I) = s^(ud) det(s^(m-u) C - s^(ak-u) I), where
    s^(m-u) C = C (m > ak only for C = 0); a nonzero value of the last
    det mod s^(N - ud) has v - ud as its lowest nonzero index.  Otherwise
    N doubles, from ``start`` (at least 1) up to
    akd + 1.  There the whole determinant, of s-degree at most akd, is
    kept, so a zero proves N_k = 0.
    """
    field = powers.field
    ak = powers.a * powers.k
    d = len(powers.B)
    full = ak * d + 1
    N = min(start, full)
    while True:
        m, C = powers.at(N)
        u = min(m, ak)
        Q = N - u * d
        if Q > 0:
            # C has a nonzero entry only if m <= ak, that is u = m
            M = [[Poly(field, x.coeffs[:Q]) for x in row] for row in C]
            if ak - u < Q:
                shift = Poly(field, (field.zero,) * (ak - u) + (field.one,))
                for i in range(d):
                    M[i][i] = M[i][i] - shift
            cs = det(TruncRing(field, Q), M).coeffs
            if cs:
                v = u * d + _lowest(field, cs)
                return NkValue.of(ak * d - v), v
        if N == full:
            return NkValue.zero(), None
        N = min(2 * N, full)


def nk_direct(field, A, k: int) -> NkValue:
    """N_k = q^D with D = deg_t det(A^k - I), read off at s = 1/t.

    With a the largest entry degree and B = s^a A(1/s),
    det(B^k - s^(ak) I) = s^(akd) det(A^k - I)(1/s), so
    D = akd - v_s(det(B^k - s^(ak) I)).  The valuation is found over
    F[s]/(s^N) with N doubling from 1 (see ``_nk_value``).
    """
    if k < 1:
        raise errors.MalformedInputError("k must be a positive integer")
    return _nk_value(_ReversedPowers(field, A, k), 1)[0]


def _predicted_valuation(vs: list, p: int) -> int:
    """A guess at v_k from vs = [v_1, ..., v_(k-1)], None where N_j = 0.

    For p | k it is p * v_(k/p), which is exact: A^(pj) - I = (A^j - I)^p
    in characteristic p, so D_(pj) = p * D_j.  v_(k/p) is known there,
    since ``nk_table`` settles k without a guess when N_j = 0 at a proper
    divisor j of k.  Otherwise it is the last known v plus its last rise
    (none if v fell), with zeros skipped and v_0 = 0.
    """
    k = len(vs) + 1
    if k % p == 0:
        return p * vs[k // p - 1]
    known = [0, 0] + [v for v in vs if v is not None]
    prev, last = known[-2:]
    return last if last <= prev else 2 * last - prev


def nk_table(field, A, kmax: int) -> list:
    """[N_1, ..., N_kmax] by the valuation route of ``nk_direct``.

    N_k = 0, with no determinant, when N_j = 0 at a proper divisor j of k
    (A^j - I divides A^k - I).  Otherwise B^k advances to k and N starts
    at w + 1 for the guess w of ``_predicted_valuation``, doubling on a
    zero result.  When v does not grow, as for a nonsingular
    leading-coefficient matrix (v = 0), each k takes one det over F[s]/(s).
    """
    powers = _ReversedPowers(field, A)
    out = []
    vs = []
    for k in range(1, kmax + 1):
        if any(vs[j - 1] is None for j in range(1, k) if k % j == 0):
            val, v = NkValue.zero(), None
        else:
            while powers.k < k:
                powers.advance()
            val, v = _nk_value(powers, _predicted_valuation(vs, field.p) + 1)
        out.append(val)
        vs.append(v)
    return out


def nk_spectral(field, sd: SpectralData, k: int) -> NkValue:
    """N_k from the spectral data alone."""
    if k < 1:
        raise errors.MalformedInputError("k must be a positive integer")
    if sd.is_periodic_time(k):
        return NkValue.zero()
    p = field.p
    wild = 1
    kk = k
    while kk % p == 0:
        wild *= p
        kk //= p
    return NkValue.of(k * sd.E + wild * sd.weight_sum(k))


def fixed_points_smith(field, A) -> NkValue:
    """N_1 via the Smith normal form of A - I over F[t]."""
    ring = polyring(field)
    B = mat_sub(ring, A, identity(ring, len(A)))
    sf = smith(field, B)
    if sf.rank < len(A):
        return NkValue.zero()
    return NkValue.of(sum(b.degree for b in sf.invariant_factors))


def _torus_point(field, num: Poly, den: Poly):
    """Hashable key (num, den) of num/den mod F[t], den nonzero.

    The fraction is reduced by the monic gcd, den is made monic and num is
    taken mod den, so two fractions get one key exactly when they differ by
    a polynomial; 0 gets (0, 1).
    """
    g = poly_gcd(num, den)
    den = den.exact_div(g)
    c = field.inv(den.lc)
    den = den.scale(c)
    return (num.exact_div(g).scale(c) % den, den)


def _poly_tuples(field, degree_bound: int):
    """All polynomials over F of degree < degree_bound, as coefficient tuples."""
    return product(range(field.q), repeat=degree_bound)


def fixed_points_bruteforce(field, A, cap: int = 100_000) -> int:
    """Count fixed points by enumeration; only viable for tiny systems.

    Solves (A - I)x = z over F(t) for every polynomial vector z of entry
    degree < D and counts distinct torus points among the solutions.  The
    bound starts just above the largest denominator degree and grows until
    the count stabilizes; one stable step proves completeness, because the
    image of the degree-bounded lattice is a subgroup and multiplication
    by t maps the degree-D image into the degree-(D+1) one.
    """
    ring = polyring(field)
    d = len(A)
    B = mat_sub(ring, A, identity(ring, d))
    detB = det(ring, B)
    if not detB:
        raise errors.SingularMatrixError("A - I is singular; fixed points not finite")

    def solve(z):
        # Cramer: x_i = det(B with column i replaced by z) / det B
        out = []
        for i in range(d):
            M = [[B[r][c] if c != i else z[r] for c in range(d)] for r in range(d)]
            out.append(_torus_point(field, det(ring, M), detB))
        return tuple(out)

    den_deg = 0
    for i in range(d):
        unit = [Poly.const(field, field.one) if r == i else Poly(field) for r in range(d)]
        for _num, den in solve(unit):
            den_deg = max(den_deg, den.degree)

    def count(D):
        if field.q ** (d * D) > cap:
            raise errors.CapExceededError(
                f"bruteforce enumeration q**{d * D} exceeds cap {cap}"
            )
        seen = set()
        for flat in _poly_tuples(field, d * D):
            z = [Poly(field, flat[i * D : (i + 1) * D]) for i in range(d)]
            seen.add(solve(z))
        return len(seen)

    D = den_deg + 1
    current = count(D)
    while True:
        nxt = count(D + 1)
        if nxt == current:
            return current
        current = nxt
        D += 1
