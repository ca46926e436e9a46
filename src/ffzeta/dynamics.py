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
    gives the three answers forced without a determinant, as its
    docstring says, and ``_nk_value`` reads every other one at s = 1/t.
    No charpoly, factoring or root order is used;
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
from .polymat import charpoly, det, identity, mat_mul, mat_sub, matpow_minus_I, smith
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


def _max_degree(A) -> int:
    """The largest entry degree of A, 0 for a zero matrix."""
    return max(0, max((x.degree for row in A for x in row), default=0))


def _nk_value(field, M, guess) -> NkValue:
    """N_k = q^(deg det M) for M = A^k - I, zero if det M = 0.

    With D the largest entry degree of M and R = s^D M(1/s), each entry's
    coefficients reversed and padded at the low end to D + 1,
    det R = s^(Dd) det M(1/s), so deg det M = Dd - v for v the s-adic
    valuation of det R: the lowest nonzero coefficient of the
    division-free ``det`` over F[s]/(s^N), where it is exact.  R goes in
    whole: ``TruncRing`` cuts each entry as it multiplies, and every term
    of ``det`` is a product.  N starts at Dd - guess + 1 for a guess at
    deg det M, within [1, Dd + 1]: the least N that sees v if the guess
    is right, and doubles on a zero result up to Dd + 1.  There nothing
    of det R is cut, so a zero proves N_k = 0.
    """
    D = _max_degree(M)
    R = [
        [
            Poly(field, (field.zero,) * (D - x.degree) + x.coeffs[::-1]) if x else x
            for x in row
        ]
        for row in M
    ]
    full = D * len(M) + 1
    N = min(max(full - guess, 1), full)
    while True:
        cs = det(TruncRing(field, N), R).coeffs
        if cs:
            return NkValue.of(full - 1 - next(i for i, c in enumerate(cs) if c))
        if N == full:
            return NkValue.zero()
        N = min(2 * N, full)


def nk_direct(field, A, k: int) -> NkValue:
    """N_k = q^(deg det(A^k - I)), zero when the determinant is.

    One determinant over F[t] at every k, with no forced answer, no guess
    and no reversal at s = 1/t: it shares only ``det`` with ``nk_table``.
    """
    if k < 1:
        raise errors.MalformedInputError("k must be a positive integer")
    ring = polyring(field)
    dm = det(ring, matpow_minus_I(ring, A, k))
    return NkValue.of(dm.degree) if dm else NkValue.zero()


def nk_table(field, A, kmax: int) -> list:
    """[N_1, ..., N_kmax]: det(A^k - I) read at s = 1/t by ``_nk_value``.

    Three answers are forced and take no power of A and no determinant
    over F[s]/(s^N):

      * with a >= 1 the largest entry degree, if the matrix L of t^a
        coefficients is invertible, then A^k has the invertible leading
        matrix L^k, det(A^k - I) has degree akd and N_k = q^(akd) for
        every k; one det over F decides this;
      * N_k = 0 when N_j = 0 at a proper divisor j of k, as A^j - I
        divides A^k - I;
      * for p | k, A^k - I = (A^(k/p) - I)^p in characteristic p, so the
        exponent is p times that of N_(k/p).

    Every other k advances A^k exactly over F[t], only then, and takes one
    ``_nk_value`` with the guess e_j * k / j from the last nonzero
    N_j = q^(e_j), which is exact while the exponents grow linearly in k.
    Before any nonzero N_j, j = 1 and e_j = ad stand in, so the guess is
    akd, at least Dd, and N starts at 1.
    """
    d = len(A)
    a = _max_degree(A)
    L = [[x.coeff(a) for x in row] for row in A]
    if a >= 1 and det(field, L):
        return [NkValue.of(a * k * d) for k in range(1, kmax + 1)]
    ring = polyring(field)
    I = identity(ring, d)
    power, j = A, 1
    out = []
    last = (1, a * d)
    for k in range(1, kmax + 1):
        if any(out[i - 1].is_zero for i in range(1, k) if k % i == 0):
            val = NkValue.zero()
        elif k % field.p == 0:
            val = NkValue.of(field.p * out[k // field.p - 1].exponent)
        else:
            while j < k:
                power, j = mat_mul(ring, power, A), j + 1
            val = _nk_value(field, mat_sub(ring, power, I), last[1] * k // last[0])
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
