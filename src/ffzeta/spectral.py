r"""Splitting a characteristic polynomial by the arithmetic of its roots.

Everything downstream (periodic point counts, zeta functions) depends on
three things extracted from a monic P in F[t][X] with P(0) != 0:

  * which roots are roots of unity, and their multiplicative orders;
  * which roots have absolute value one without being roots of unity, and
    the orders of their residues in the algebraic closure of F;
  * for each such residue order n, a negative integer weight w_n measuring
    how closely those roots approach their root-of-unity shadow.

A root of P is a root of unity exactly when it is algebraic over F, and
the product of the corresponding linear factors is the largest monic
divisor of P with coefficients in F.  Writing P as a polynomial in t whose
coefficients are the t-power slices S_j in F[X], that divisor is
gcd_j S_j: it divides every slice, and conversely a common divisor of the
slices divides P.  This stays cheap no matter how large the orders are.

Weights come from slice divisibility.  Write P' = sum_j S_j(X) t^j.  For
a monic irreducible h in F[X] and a root beta of h, P'(beta) has t-degree
j_h = max{j : h does not divide S_j}, the same at every conjugate root, so
deg_t Res_X(P', h) = deg(h) * j_h.  That degree counts deg(h) * E plus the
(negative) valuation defects of the unit roots whose residues are roots
of h; summing deg(h) * (j_h - E) over the h of order n leaves w_n.  No
resultant is computed.  A slower textbook route through
Res_X(P', X^n - 1) and divisor inversion, weights_by_divisibility, is
kept as an independent oracle for tests.

spectral_data is the one entry point that computes all of this.  It
factors G and the residual once each and takes one root order per
irreducible factor: rou_orders reads the orders of G's roots off its
factorization, and weights_from_residual reads the orders of the
residual's roots and the weights off the same factorization of the
residual.  Both call gf._root_order, order_of_root without its
irreducibility check, since factor has just certified each factor.
"""

from __future__ import annotations

from typing import NamedTuple

from . import errors
from .gf import _root_order
from .newton import NewtonPolygon, polygon, unit_residual
from .polycore import Poly, factor, poly_gcd, polyring, resultant


class SpectralData(NamedTuple):
    """Arithmetic invariants of a monic P in F[t][X] with P(0) != 0.

    rou_orders and unit_orders hold (order, eigenvalue multiplicity) pairs
    sorted by order; weights holds (order, w) with w < 0, one entry per
    distinct unit order.  P is the polynomial the record was built from and
    hull its Newton polygon, which gives E and the slope-zero span.  The
    factors the orders are read from are not kept: ``rou_split`` gives
    the root-of-unity factor G and its cofactor P', and ``unit_residual``
    the residual of P'.
    """

    field: object
    P: Poly
    hull: NewtonPolygon
    E: int
    rou_orders: tuple
    unit_orders: tuple
    weights: tuple

    def weight_sum(self, k: int) -> int:
        return sum(w for n, w in self.weights if k % n == 0)

    def is_periodic_time(self, k: int) -> bool:
        """True when some root-of-unity order divides k, killing det(A^k - I)."""
        return any(k % m == 0 for m, _ in self.rou_orders)


def _slices(field, P: Poly):
    """Write P = sum_j S_j(X) t^j; returns {j: S_j} for the nonzero S_j."""
    maxdeg = max(c.degree for c in P.coeffs if c)
    out = {}
    for j in range(maxdeg + 1):
        s = Poly(field, [c.coeff(j) for c in P.coeffs])
        if s:
            out[j] = s
    return out


def _slice_gcd(field, P: Poly) -> Poly:
    slices = list(_slices(field, P).values())
    g = slices[0]
    for s in slices[1:]:
        g = poly_gcd(g, s)
        if g.degree == 0:
            break
    return g.monic()


def rou_split(field, P: Poly):
    """Split off the root-of-unity factor: P = G * Pprime with G in F[X].

    G is the largest monic divisor of P with constant coefficients; its
    roots are exactly the root-of-unity roots of P, with multiplicity.
    """
    if not P.coeff(0):
        raise errors.MalformedInputError("zero root contradicts invertibility")
    G = _slice_gcd(field, P)
    if G.degree == 0:
        return G, P
    ring = polyring(field)
    Glift = G.map(ring, lambda c: Poly.const(field, c))
    Pprime = P.exact_div(Glift)
    # the cofactor must have no constant-coefficient divisor left
    if _slice_gcd(field, Pprime).degree != 0:
        raise errors.InternalInvariantError("root-of-unity factor not maximal")
    return G, Pprime


def rou_orders(field, G: Poly):
    """Order multiset of the root-of-unity eigenvalues (roots of G in F[X])."""
    if G.degree >= 1 and not G.coeff(0):
        raise errors.MalformedInputError("zero is not a root of unity")
    agg = {}
    for h, mult in factor(field, G):
        n = _root_order(field, h)
        agg[n] = agg.get(n, 0) + h.degree * mult
    return tuple(sorted(agg.items()))


def weights_from_residual(field, Pprime: Poly, E: int, residual: Poly):
    """(unit_orders, weights) from one factorization of the residual.

    unit_orders holds (n, eigenvalue multiplicity) and weights (n, w_n),
    both sorted by the order n of the roots; w_n sums deg(h) * (j_h - E)
    over the irreducible factors h of order n, j_h being the top t-degree
    of a slice of P' that h does not divide.
    """
    slices = _slices(field, Pprime)
    top_down = sorted(slices, reverse=True)
    orders, weights = {}, {}
    for h, mult in factor(field, residual):
        n = _root_order(field, h)
        orders[n] = orders.get(n, 0) + h.degree * mult
        j = next((j for j in top_down if slices[j] % h), None)
        if j is None:
            raise errors.InternalInvariantError(
                "the unit factor divides every slice of P'"
            )
        weights[n] = weights.get(n, 0) + h.degree * (j - E)
    for n, w in weights.items():
        if w >= 0:
            raise errors.InternalInvariantError(f"weight at order {n} is {w}")
    return tuple(sorted(orders.items())), tuple(sorted(weights.items()))


def weights_by_divisibility(field, Pprime: Poly, E: int, unit_orders):
    """Reference route: W(n) = deg Res(P', X^n - 1) - n E, then inversion.

    Only sensible for small orders; used to cross-check the per-factor
    route in tests.
    """
    ring = polyring(field)
    ns = sorted(n for n, _ in unit_orders)
    out = {}
    for n in ns:
        xn = Poly(ring, [ring.neg(ring.one)] + [ring.zero] * (n - 1) + [ring.one])
        r = resultant(Pprime, xn)
        if not r:
            raise errors.InternalInvariantError(
                "resultant with X^n - 1 vanished on the unit-root factor"
            )
        total = r.degree - n * E
        out[n] = total - sum(out[m] for m in ns if m != n and n % m == 0)
    return tuple(sorted(out.items()))


def spectral_data(field, P: Poly) -> SpectralData:
    """Full spectral decomposition of a monic P in F[t][X], P(0) != 0."""
    hull = polygon(P)  # checks that P is monic and nonconstant
    E = hull.entropy_exponent
    G, Pprime = rou_split(field, P)
    rou = rou_orders(field, G)
    if Pprime.degree > 0:
        residual = unit_residual(field, Pprime)
    else:
        residual = Poly.const(field, field.one)
    unit, weights = weights_from_residual(field, Pprime, E, residual)
    # the hull against the slices: the absolute-value-one roots are the
    # roots of G and those of the top t-slice of Pprime
    span = hull.slope_zero_span()
    zero_len = span[1] - span[0] if span else 0
    if G.degree + residual.degree != zero_len:
        raise errors.InternalInvariantError(
            "unit-circle root count does not match the hull"
        )
    return SpectralData(
        field=field,
        P=P,
        hull=hull,
        E=E,
        rou_orders=rou,
        unit_orders=unit,
        weights=weights,
    )
