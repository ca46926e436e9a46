r"""Entropy and periodic-point counts for torus endomorphisms.

A d x d matrix A over F[t] with det A != 0 acts on the torus
(F((1/t))/F[t])^d.  Its k-periodic points form a finite group of order
N_k = |det(A^k - I)| whenever that determinant is nonzero, and the count
is q to the degree of the determinant.  N_k values are therefore carried
as exponents (NkValue); the integer is materialized only on request, with
a cap, since exponents grow linearly in k.

Two independent routes compute N_k:

  * nk_direct / nk_table: the determinant.  nk_direct takes
    det(A^k - I) over F[t] at every k and reads its degree.  nk_table
    takes no det: it gives the answers forced by N_1 and by divisors of
    k, as its docstring says, and reads every other one from A^k at
    s = 1/t by division-free elimination over F[s]/(s^N), on packed
    ints over prime fields from A on; A^k is taken only at those k, each
    the last one times a gap power built once.  The two share no matrix
    routine.  No charpoly, factoring or root order is used;
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
from itertools import product
from typing import NamedTuple

from . import errors
from .newton import polygon
from .polycore import Poly, poly_gcd, polyring
from .polymat import charpoly, det, identity, mat_sub, matpow_minus_I, smith
from .spectral import SpectralData, spectral_data

INT_RENDER_CAP = 10**4


class NkValue(NamedTuple):
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


class Entropy(NamedTuple):
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


def _max_degree(A) -> int:
    """The largest entry degree of A, 0 for a zero matrix."""
    return max(0, max((x.degree for row in A for x in row), default=0))


def _valuation(ops, rows, N):
    """The s-adic valuation v of det R if v < N, else None, for R given as
    rows of elements of ops = ``Field.series_ops(M)``, M >= N, unchanged.

    Division-free elimination with the pivot an entry of least valuation,
    zero counting as N (Caruso, Roe and Vaccon, ISSAC 2015, with s for p).
    For the pivot s^w u in column j, u a unit, every other row r becomes
    u r - (r_j / s^w) (pivot row): that clears column j and multiplies
    det R by a unit, so v is w plus the valuation of the rest, needed
    only mod s^(N - w).  u and r_j / s^w are known mod s^(N - w) and every
    entry they multiply has valuation at least w, so each step is exact.
    The pivot row is negated once per pivot, and every other row takes
    u r + (r_j / s^w) (-pivot row).
    """
    val, cut, neg, update = ops.val, ops.cut, ops.neg, ops.update
    P = N
    while rows:
        w, i, j = min(
            (val(x, P), i, j) for i, row in enumerate(rows) for j, x in enumerate(row)
        )
        if w >= P:
            return None
        P -= w
        u = cut(rows[i][j], w, P)
        pivot = [neg(y, P) for y in rows[i][:j] + rows[i][j + 1 :]]
        others = rows[:i] + rows[i + 1 :]
        rows = [
            [update(u, x, c, ny, P) for x, ny in zip(r[:j] + r[j + 1 :], pivot)]
            for r, c in zip(others, [cut(r[j], w, P) for r in others])
        ]
    return N - P


def _nk_value(ops, P, guess) -> NkValue:
    """N_k = q^(deg det M) for M = A^k - I, zero if det M = 0, from P = A^k.

    R = s^D M(1/s), for D the largest entry degree of P and M, is P's
    entries reversed, padded at the low end to D + 1, less 1 at s^D on the
    diagonal.  det R = s^(Dd) det M(1/s), so deg det M = Dd - v for v the
    s-adic valuation of det R, which ``_valuation`` reads mod s^N.  N
    starts at Dd - guess + 1 for a guess at deg det M, within [1, Dd + 1]:
    the least N that sees v if the guess is right, and doubles while
    v >= N up to Dd + 1, where nothing is cut and v >= N proves N_k = 0.
    """
    D = max(0, max(ops.degree(x) for row in P for x in row))
    R = [[ops.rev(x, D) for x in row] for row in P]
    for i, row in enumerate(R):
        row[i] = ops.less_one(row[i], D)
    full = D * len(P) + 1
    N = min(max(full - guess, 1), full)
    while True:
        v = _valuation(ops, R, N)
        if v is not None:
            return NkValue.of(full - 1 - v)
        if N == full:
            return NkValue.zero()
        N = min(2 * N, full)


def nk_direct(field, A, k: int) -> NkValue:
    """N_k = q^(deg det(A^k - I)), zero when the determinant is.

    One determinant over F[t] at every k, with no forced answer, no guess
    and no reversal at s = 1/t: it shares no determinant with ``nk_table``.
    """
    if k < 1:
        raise errors.MalformedInputError("k must be a positive integer")
    ring = polyring(field)
    dm = det(ring, matpow_minus_I(ring, A, k))
    return NkValue.of(dm.degree) if dm else NkValue.zero()


def nk_table(field, A, kmax: int) -> list:
    """[N_1, ..., N_kmax]: det(A^k - I) read at s = 1/t by ``_nk_value``.

    Three rules settle k with no power of A and no elimination past N_1's:

      * with a >= 1 the largest entry degree and L the matrix of t^a
        coefficients, det L is the t^(ad) coefficient of det(A - I), and
        N_1's elimination, at N = 1, is that of L over F.  If L is
        invertible, which N_1 = q^(ad) says, A^k has the invertible
        leading matrix L^k and N_k = q^(akd) for every k;
      * N_k = 0 when N_j = 0 at a proper divisor j of k, as A^j - I
        divides A^k - I;
      * for p | k, A^k - I = (A^(k/p) - I)^p in characteristic p, so the
        exponent is p times that of N_(k/p).

    Every other k takes A^k exactly, only then, as A^j A^(k - j) from the
    last such j, each gap power A^g built once, on first use, as
    A^(g // 2) A^(g - g // 2): over GF(2), where every such k is odd, that
    is one product per k past A^2.  Products and eliminations run on the
    elements of ``Field.series_ops`` at N = (a kmax + 1) d, which bounds
    every precision and d times every entry length: one packed int per
    entry over a prime field.  Each k takes one ``_nk_value`` with the
    guess e_j * k / j from the last nonzero N_j = q^(e_j), exact while
    the exponents grow linearly in k; before any, j = 1 and e_j = ad
    stand in, so the guess is akd, at least Dd, and N starts at 1.
    """
    d = len(A)
    a = _max_degree(A)
    ops = field.series_ops((a * kmax + 1) * d)
    gaps = {1: [[ops.pack(x.coeffs) for x in row] for row in A]}

    def gap(g):
        """A^g, built once as A^(g // 2) A^(g - g // 2)."""
        if g not in gaps:
            gaps[g] = ops.mat_mul(gap(g // 2), gap(g - g // 2))
        return gaps[g]

    power, j = gaps[1], 1
    out = []
    last = (1, a * d)
    for k in range(1, kmax + 1):
        if any(out[i - 1].is_zero for i in range(1, k) if k % i == 0):
            val = NkValue.zero()
        elif k % field.p == 0:
            val = NkValue.of(field.p * out[k // field.p - 1].exponent)
        else:
            if j < k:
                power, j = ops.mat_mul(power, gap(k - j)), k
            val = _nk_value(ops, power, last[1] * k // last[0])
        if k == 1 and a >= 1 and val == NkValue.of(a * d):
            return [NkValue(False, a * i * d) for i in range(1, kmax + 1)]
        out.append(val)
        if not val.is_zero:
            last = (k, val.exponent)
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
        for flat in product(range(field.q), repeat=d * D):
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
