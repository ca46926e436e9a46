r"""Newton polygons of polynomials over F[t] at the infinite place.

For P = sum c_i X^i with c_i in F[t], plot the points (i, v(c_i)), where
v(c) = -deg c is the valuation at infinity (the place with uniformizer
1/t), and take the lower convex hull.  An edge of slope s and horizontal length l says that P has exactly l roots
of absolute value q**s (counted with multiplicity) in an algebraic closure
of the Laurent series field.  Collinear segments are merged, so slopes
strictly increase left to right.

Two hull data need no hull.  For a monic P the entropy exponent E, the
rise of the positive-slope edges, is the Gauss norm max_i deg c_i (by
Gauss's lemma the Mahler measure of P at infinity is q**E): the lowest
hull height is -E and the last vertex is (deg P, 0).  The slope-zero edge, if
any, lies at that lowest height and runs through the columns with
deg c_i = E; dividing each on-edge c_i by t^E and reducing keeps its
leading coefficient, so the residual polynomial over F, whose roots are
the reductions of the absolute-value-one roots of P, is the t^E slice of
P with its power of X divided out.
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
        """Rise of the positive-slope edges: minus the lowest vertex height."""
        return -min(v for _, v in self.vertices)

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


def _check_monic(P: Poly) -> None:
    if P.degree < 1:
        raise errors.MalformedInputError("polygon needs a nonconstant polynomial")
    if not P.is_monic():
        raise errors.MalformedInputError("polygon needs a monic polynomial")


def polygon(P: Poly) -> NewtonPolygon:
    """Newton polygon of a monic nonconstant P with coefficients in F[t].

    A vanishing constant term is allowed; the hull then starts at the first
    nonzero coefficient and the missing columns account for zero roots.
    """
    _check_monic(P)
    points = [(i, -c.degree) for i, c in enumerate(P.coeffs) if c]
    hull = _lower_hull(points)
    edges = []
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        edges.append((Fraction(y1 - y0, x1 - x0), x1 - x0))
    return NewtonPolygon(tuple(hull), tuple(edges))


def unit_residual(field, P: Poly) -> Poly:
    """Residual polynomial of the slope-zero edge, or 1 if there is none.

    The residual lives in F[X]; its roots with multiplicity are the residue
    classes of the absolute-value-one roots of P.  It is the top t-slice
    of P over X^a, a its first column; a monomial slice is a lone vertex.
    """
    _check_monic(P)
    top = max(c.degree for c in P.coeffs)
    cs = [c.coeff(top) for c in P.coeffs]
    a = next(i for i, c in enumerate(cs) if c)
    res = Poly(field, cs[a:])
    return res if res.degree > 0 else Poly.const(field, field.one)
