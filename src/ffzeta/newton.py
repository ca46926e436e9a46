r"""Newton polygons of polynomials over F[t] at the infinite place.

For P = sum c_i X^i with c_i in F[t], plot the points (i, v(c_i)), where
v(c) = -deg c is the valuation at infinity (the place with uniformizer
1/t), and take the lower convex hull.  An edge of slope s and horizontal length l says that P has exactly l roots
of absolute value q**s (counted with multiplicity) in an algebraic closure
of the Laurent series field.  Collinear segments are merged, so slopes
strictly increase left to right.

The slope-zero edge carries more structure: dividing each on-edge
coefficient by the power of t fixed by the hull height and reducing leaves
the residual polynomial over F, whose roots are the reductions of the
absolute-value-one roots of P.  The reduction of a polynomial c of the
edge's height is its leading coefficient c.lc, the unit part of c at
infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import errors
from .polycore import Poly


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower hull vertices and the derived edge data."""

    vertices: tuple  # ((i, v), ...) with strictly increasing i
    edges: tuple  # ((slope: Fraction, length: int), ...) slopes increasing

    @property
    def entropy_exponent(self) -> int:
        """Sum of slope * length over positive-slope edges, as an integer."""
        total = Fraction(0)
        for slope, length in self.edges:
            if slope > 0:
                total += slope * length
        if total.denominator != 1:
            raise errors.NonIntegralError("positive hull rise is not an integer")
        return int(total)

    def slope_zero_span(self):
        """(start index, end index) of the slope-zero edge, or None."""
        x = self.vertices[0][0]
        for slope, length in self.edges:
            if slope == 0:
                return (x, x + length)
            x += length
        return None


def _lower_hull(points):
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (pt[1] - y0) - (y1 - y0) * (pt[0] - x0) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def polygon(P: Poly) -> NewtonPolygon:
    """Newton polygon of a monic nonconstant P with coefficients in F[t].

    A vanishing constant term is allowed; the hull then starts at the first
    nonzero coefficient and the missing columns account for zero roots.
    """
    if P.degree < 1:
        raise errors.ZeroInputError("polygon needs a nonconstant polynomial")
    if not P.is_monic():
        raise errors.NonMonicError("polygon needs a monic polynomial")
    points = [
        (i, -c.degree)
        for i, c in enumerate(P.coeffs)
        if not P.dom.is_zero(c)
    ]
    hull = _lower_hull(points)
    edges = []
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        edges.append((Fraction(y1 - y0, x1 - x0), x1 - x0))
    return NewtonPolygon(tuple(hull), tuple(edges))


def unit_residual(field, P: Poly) -> Poly:
    """Residual polynomial of the slope-zero edge, or 1 if there is none.

    The residual lives in F[X]; its roots with multiplicity are the residue
    classes of the absolute-value-one roots of P.
    """
    poly = polygon(P)
    span = poly.slope_zero_span()
    if span is None:
        return Poly.const(field, field.one)
    a, b = span
    height = next((y for x, y in poly.vertices if x == a), None)
    if height is None:
        raise errors.InternalInvariantError("slope-zero edge without a vertex")
    out = []
    for i in range(a, b + 1):
        c = P.coeff(i)
        if not P.dom.is_zero(c) and -c.degree == height:
            out.append(c.lc)
        else:
            out.append(field.zero)
    res = Poly(field, out)
    if res.degree != b - a:
        raise errors.InternalInvariantError("residual degree mismatch")
    return res
