"""Newton polygons, root absolute values, and slope-zero residuals."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import tpoly, xpoly, xpolys
from ffzeta import errors, make_field
from ffzeta.newton import polygon, unit_residual
from ffzeta.polycore import Poly
from ffzeta.spectral import rou_split, spectral_data

F2 = make_field(2)
F5 = make_field(5)
F7 = make_field(7)

CUBIC = xpoly(F2, (0, 1), (0, 0, 1), (0, 0, 1), (1,))  # X^3 + t^2 X^2 + t^2 X + t


class TestPolygon:
    def test_ramified_edge(self):
        np = polygon(xpoly(F2, (0, 1), (1,), (1,)))  # X^2 + X + t
        assert np.edges == ((Fraction(1, 2), 2),)

    def test_three_slopes(self):
        np = polygon(CUBIC)
        assert np.edges == ((Fraction(-1), 1), (Fraction(0), 1), (Fraction(2), 1))
        assert np.vertices == ((0, -1), (1, -2), (2, -2), (3, 0))

    def test_single_shift(self):
        np = polygon(xpoly(F2, (0, 1), (1,)))  # X - t
        assert np.edges == ((Fraction(1), 1),)

    def test_zero_constant_term_starts_late(self):
        np = polygon(xpoly(F2, (0,), (0, 1), (1,)))  # X(X + t)
        assert np.vertices[0][0] == 1
        assert np.edges == ((Fraction(1), 1),)

    def test_zero_middle_coefficient(self):
        # X^2 + 0 X + t^2: the empty column 1 is skipped, one edge of slope 1
        np = polygon(xpoly(F2, (0, 0, 1), (), (1,)))
        assert np.vertices == ((0, -2), (2, 0))
        assert np.edges == ((Fraction(1), 2),)
        assert unit_residual(F2, xpoly(F2, (1,), (), (1,))) == tpoly(F2, 1, 0, 1)

    def test_rejects_constant(self):
        with pytest.raises(errors.MalformedInputError, match="needs a nonconstant polynomial"):
            polygon(xpoly(F2, (1,)))

    def test_rejects_nonmonic(self):
        with pytest.raises(errors.MalformedInputError, match="needs a monic polynomial"):
            polygon(xpoly(F2, (1,), (0, 1)))

    @given(P=xpolys(F5, max_xdeg=5, max_tdeg=3, nonzero_const=True))
    def test_mass_balance(self, P):
        """Total rise equals deg_t of the constant term for monic P."""
        np = polygon(P)
        total = sum(s * l for s, l in np.edges)
        assert total == P.coeff(0).degree

    @given(P=xpolys(F5, max_xdeg=5, max_tdeg=3))
    def test_convexity_and_support(self, P):
        np = polygon(P)
        slopes = [s for s, _ in np.edges]
        assert slopes == sorted(slopes) and len(set(slopes)) == len(slopes)
        # every support point sits on or above every edge line
        for (x0, y0), (x1, y1) in zip(np.vertices, np.vertices[1:]):
            for i, c in enumerate(P.coeffs):
                if not c or not (x0 <= i <= x1):
                    continue
                lhs = (y1 - y0) * (i - x0)
                rhs = (-c.degree - y0) * (x1 - x0)
                assert lhs <= rhs

    @given(P=xpolys(F5, max_xdeg=5, max_tdeg=3))
    def test_entropy_exponent_is_gauss_norm(self, P):
        """E is the positive-slope rise and the top t-degree of a coefficient."""
        np = polygon(P)
        rise = sum(s * l for s, l in np.edges if s > 0)
        assert np.entropy_exponent == rise == max(c.degree for c in P.coeffs)

    @given(
        P=xpolys(F5, max_xdeg=3, max_tdeg=2, nonzero_const=True),
        Q=xpolys(F5, max_xdeg=3, max_tdeg=2, nonzero_const=True),
    )
    @settings(max_examples=40)
    def test_rise_exponent_additive_under_products(self, P, Q):
        lhs = polygon(P * Q).entropy_exponent
        assert lhs == polygon(P).entropy_exponent + polygon(Q).entropy_exponent


class TestAbsSpectrum:
    """Root absolute values q**slope, read off the edges as the report does."""

    def test_anchors(self):
        assert polygon(xpoly(F7, (5,), (6,), (1,))).edges == ((Fraction(0), 2),)
        assert polygon(CUBIC).edges == (
            (Fraction(-1), 1),
            (Fraction(0), 1),
            (Fraction(2), 1),
        )
        assert polygon(xpoly(F2, (0, 1), (1,))).edges == ((Fraction(1), 1),)

    @given(P=xpolys(F5, max_xdeg=4, max_tdeg=2))
    def test_counts_degree(self, P):
        """Edge lengths sum to deg P less the zero roots; to deg P if P(0) != 0."""
        zero_roots = next(i for i, c in enumerate(P.coeffs) if c)
        assert sum(length for _, length in polygon(P).edges) == P.degree - zero_roots


class TestUnitResidual:
    def test_anchors(self):
        assert unit_residual(F2, CUBIC) == tpoly(F2, 1, 1)
        assert unit_residual(F7, xpoly(F7, (5,), (6,), (1,))) == tpoly(F7, 5, 6, 1)
        assert unit_residual(F2, xpoly(F2, (0, 1), (1,))).is_one()

    def test_argument_checks(self):
        """unit_residual keeps the argument checks of polygon."""
        with pytest.raises(errors.MalformedInputError, match="needs a nonconstant polynomial"):
            unit_residual(F2, xpoly(F2, (1,)))
        with pytest.raises(errors.MalformedInputError, match="needs a monic polynomial"):
            unit_residual(F2, xpoly(F2, (1,), (0, 1)))

    def test_shifted_height(self):
        # X^3 + tX^2 + tX + t: slope-zero edge at height -1 spans columns 0..2
        P = xpoly(F2, (0, 1), (0, 1), (0, 1), (1,))
        assert unit_residual(F2, P) == tpoly(F2, 1, 1, 1)

    @given(P=xpolys(F5, max_xdeg=4, max_tdeg=2, nonzero_const=True))
    def test_degree_matches_edge(self, P):
        res = unit_residual(F5, P)
        span = polygon(P).slope_zero_span()
        want = span[1] - span[0] if span else 0
        assert res.degree == want
        assert res.coeff(0) != 0  # nonzero constant term by construction

    @pytest.mark.parametrize("field", [F2, F5])
    @settings(max_examples=120)
    @given(data=st.data())
    def test_top_slice_is_the_edge_walk(self, field, data):
        """The top t-slice equals the residual read off the hull's edge."""
        P = data.draw(xpolys(field, max_xdeg=5, max_tdeg=3))
        assert unit_residual(field, P) == walk_slope_zero_edge(field, P)


def walk_slope_zero_edge(field, P):
    """Oracle: the leading coefficients of the slope-zero edge's points."""
    hull = polygon(P)
    span = hull.slope_zero_span()
    if span is None:
        return Poly.const(field, field.one)
    a, b = span
    height = dict(hull.vertices)[a]
    out = []
    for i in range(a, b + 1):
        c = P.coeff(i)
        out.append(c.lc if c and -c.degree == height else field.zero)
    res = Poly(field, out)
    assert res.degree == b - a
    return res


def test_spectral_data_builds_one_polygon(monkeypatch):
    """One Newton polygon per system: the residual needs none of its own."""
    from ffzeta import newton, spectral

    calls = []
    real = newton.polygon

    def recording(P):
        calls.append(P)
        return real(P)

    monkeypatch.setattr(newton, "polygon", recording)
    monkeypatch.setattr(spectral, "polygon", recording)
    sd = spectral_data(F2, CUBIC)
    assert len(calls) == 1 and calls[0] is CUBIC
    assert sd.E == 2
    assert unit_residual(F2, rou_split(F2, CUBIC)[1]) == tpoly(F2, 1, 1)
