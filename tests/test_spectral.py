"""Splitting spectra into root-of-unity, unit, and expanding parts."""

import pytest
from hypothesis import given, settings

from conftest import monic_tpolys, tpoly, xpoly, xpolys
from ffzeta import errors, make_field
from ffzeta.newton import unit_residual
from ffzeta.polycore import Poly, polyring, resultant
from ffzeta.spectral import (
    SpectralData,
    rou_orders,
    rou_split,
    spectral_data,
    weights_by_divisibility,
    weights_from_residual,
)

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)
F7 = make_field(7)

CUBIC = xpoly(F2, (0, 1), (0, 0, 1), (0, 0, 1), (1,))


def lift(field, f):
    return f.map(polyring(field), lambda c: Poly.const(field, c))


class TestRouSplit:
    def test_all_constant(self):
        G, Pprime = rou_split(F7, xpoly(F7, (5,), (6,), (1,)))
        assert G == tpoly(F7, 5, 6, 1)
        assert Pprime.is_one()

    def test_no_constant_factor(self):
        G, Pprime = rou_split(F2, CUBIC)
        assert G.is_one() and Pprime == CUBIC

    def test_mixed(self):
        # (X - 1)(X - t) = X^2 - (t+1)X + t
        P = xpoly(F2, (0, 1), (1, 1), (1,))
        G, Pprime = rou_split(F2, P)
        assert G == tpoly(F2, 1, 1)
        assert Pprime == xpoly(F2, (0, 1), (1,))

    def test_zero_constant_term(self):
        with pytest.raises(errors.MalformedInputError, match="zero root contradicts invertibility"):
            rou_split(F2, xpoly(F2, (0,), (1,)))

    @settings(max_examples=30)
    @given(
        G0=monic_tpolys(F3, max_deg=3),
        P1=xpolys(F3, max_xdeg=3, max_tdeg=2, nonzero_const=True),
    )
    def test_product_recovery(self, G0, P1):
        if not G0.coeff(0):
            G0 = G0 + Poly.const(F3, F3.one)
            if not G0.coeff(0):
                return
        P = lift(F3, G0) * P1
        G, Pprime = rou_split(F3, P)
        assert lift(F3, G) * Pprime == P
        assert not (G % G0.monic())  # the planted constant factor is inside G


class TestRouOrders:
    def test_anchors(self):
        assert rou_orders(F7, tpoly(F7, 5, 6, 1)) == ((2, 1), (3, 1))
        assert rou_orders(F2, tpoly(F2, 1, 1)) == ((1, 1),)
        assert rou_orders(F2, tpoly(F2, 1, 1, 1)) == ((3, 2),)
        assert rou_orders(F2, tpoly(F2, 1)) == ()

    def test_zero_root(self):
        with pytest.raises(errors.MalformedInputError, match="zero is not a root of unity"):
            rou_orders(F2, tpoly(F2, 0, 1))

    def test_multiplicity_counts_eigenvalues(self):
        # (X+1)^2 (X^2+X+1) over GF(2): order 1 twice, order 3 twice
        f = tpoly(F2, 1, 1) ** 2 * tpoly(F2, 1, 1, 1)
        assert rou_orders(F2, f) == ((1, 2), (3, 2))


class TestUnitOrders:
    """Orders of the unit-circle residues, as spectral_data reports them."""

    def test_anchors(self):
        assert spectral_data(F2, CUBIC).unit_orders == ((1, 1),)
        assert spectral_data(F2, xpoly(F2, (0, 1), (1,))).unit_orders == ()

    def test_quadratic_residual(self):
        # X^3 + tX^2 + tX + t has residual X^2 + X + 1: conjugate order-3 pair
        P = xpoly(F2, (0, 1), (0, 1), (0, 1), (1,))
        assert spectral_data(F2, P).unit_orders == ((3, 2),)

    def test_constant_input(self):
        # every root is a root of unity, so the cofactor P' is constant
        P = xpoly(F2, (1,), (1,))
        sd = spectral_data(F2, P)
        assert rou_split(F2, P)[1].is_one() and sd.unit_orders == ()


class TestWeights:
    def test_anchor(self):
        assert dict(weights_by_divisibility(F2, CUBIC, 2, ((1, 1),))) == {1: -1}

    def test_routes_agree_on_anchor(self):
        sd = spectral_data(F2, CUBIC)
        Pprime = rou_split(F2, CUBIC)[1]
        slow = weights_by_divisibility(F2, Pprime, sd.E, sd.unit_orders)
        assert dict(sd.weights) == dict(slow)

    def test_divisibility_inversion(self):
        # two orders with 1 | 3: w_3 = W(3) - w_1
        P = xpoly(F2, (0, 1), (0, 1), (0, 1), (1,))
        sd = spectral_data(F2, P)
        assert sd.unit_orders == ((3, 2),)
        Pprime = rou_split(F2, P)[1]
        w = dict(weights_by_divisibility(F2, Pprime, sd.E, sd.unit_orders))
        assert dict(sd.weights) == w
        ring = polyring(F2)
        x3 = Poly(ring, [ring.neg(ring.one), ring.zero, ring.zero, ring.one])
        assert resultant(Pprime, x3).degree == 3 * sd.E + w[3]

    @settings(max_examples=30)
    @given(P=xpolys(F5, max_xdeg=4, max_tdeg=2, nonzero_const=True))
    def test_reconstruction(self, P):
        """deg Res(P', X^n - 1) = nE + sum of w over orders dividing n."""
        sd = spectral_data(F5, P)
        if not sd.unit_orders:
            return
        w = dict(sd.weights)
        Pprime = rou_split(F5, P)[1]
        ring = polyring(F5)
        for n, _ in sd.unit_orders:
            xn = Poly(ring, [ring.neg(ring.one)] + [ring.zero] * (n - 1) + [ring.one])
            r = resultant(Pprime, xn)
            assert r.degree == n * sd.E + sum(
                w[m] for m, _ in sd.unit_orders if n % m == 0
            )

    @settings(max_examples=30)
    @given(P=xpolys(F3, max_xdeg=4, max_tdeg=2, nonzero_const=True))
    def test_fast_route_equals_reference(self, P):
        sd = spectral_data(F3, P)
        if not sd.unit_orders:
            return
        Pprime = rou_split(F3, P)[1]
        residual = unit_residual(F3, Pprime)
        unit, fast = weights_from_residual(F3, Pprime, sd.E, residual)
        slow = weights_by_divisibility(F3, Pprime, sd.E, sd.unit_orders)
        assert unit == sd.unit_orders
        assert fast == slow == sd.weights


    def test_unit_factor_dividing_every_slice(self):
        # X + 1 divides every t-slice of (X + 1) * CUBIC: P'(1) = 0
        Pprime = lift(F2, tpoly(F2, 1, 1)) * CUBIC
        with pytest.raises(errors.InternalInvariantError, match="divides every slice"):
            weights_from_residual(F2, Pprime, 2, tpoly(F2, 1, 1))

    def test_nonnegative_weight_rejected(self):
        # the top slice of CUBIC that X + 1 does not divide is S_1 = 1
        with pytest.raises(errors.InternalInvariantError, match="^weight at order 1 is 0$"):
            weights_from_residual(F2, CUBIC, 1, tpoly(F2, 1, 1))


# G = (X + 1)^2 (X^2 + X + 1); the residual of P' is (X + 1)(X^2 + X + 1)
MIXED = (
    lift(F2, tpoly(F2, 1, 1) ** 2 * tpoly(F2, 1, 1, 1))
    * CUBIC
    * xpoly(F2, (0, 1), (0, 1), (0, 1), (1,))
)


class TestOnePass:
    def test_one_factorization_per_polynomial(self, monkeypatch):
        """Two factor calls per spectral_data, counted at every binding in
        the package (an irreducibility check inside the order routine
        would be a third), and one root order per distinct factor."""
        import sys

        from ffzeta import gf, polycore, spectral

        factored, ordered = [], []
        real_factor, real_order = polycore.factor, gf._root_order

        def counting_factor(field, f):
            factored.append(f)
            return real_factor(field, f)

        def counting_order(field, h):
            ordered.append(h)
            return real_order(field, h)

        swaps = {id(real_factor): counting_factor, id(real_order): counting_order}
        for name, module in list(sys.modules.items()):
            if name.startswith("ffzeta"):
                for attr, val in list(vars(module).items()):
                    if id(val) in swaps:
                        monkeypatch.setattr(module, attr, swaps[id(val)])
        assert spectral.factor is counting_factor
        assert spectral._root_order is counting_order
        sd = spectral_data(F2, MIXED)
        G, Pprime = rou_split(F2, MIXED)
        assert factored == [G, unit_residual(F2, Pprime)]
        distinct = [h for f in factored for h, _ in real_factor(F2, f)]
        assert len(distinct) == 4
        assert ordered == distinct
        assert (sd.rou_orders, sd.unit_orders, sd.weights) == (
            ((1, 2), (3, 2)),
            ((1, 1), (3, 2)),
            ((1, -1), (3, -2)),
        )

    def test_no_resultant_on_the_pipeline(self, monkeypatch):
        from ffzeta import polycore, spectral

        want = [spectral_data(F2, P) for P in (MIXED, CUBIC)]

        def refuse(*args):
            raise AssertionError("resultant called")

        monkeypatch.setattr(spectral, "resultant", refuse)
        monkeypatch.setattr(polycore, "resultant", refuse)
        assert [spectral_data(F2, P) for P in (MIXED, CUBIC)] == want


class TestSpectralData:
    def test_all_unit_anchor(self):
        sd = spectral_data(F7, xpoly(F7, (5,), (6,), (1,)))
        assert (sd.E, sd.rou_orders, sd.unit_orders, sd.weights) == (
            0,
            ((2, 1), (3, 1)),
            (),
            (),
        )

    def test_mixed_anchor(self):
        sd = spectral_data(F2, CUBIC)
        assert (sd.E, sd.rou_orders, sd.unit_orders, sd.weights) == (
            2,
            (),
            ((1, 1),),
            ((1, -1),),
        )
        G, Pprime = rou_split(F2, CUBIC)
        assert G.is_one() and Pprime == CUBIC
        assert unit_residual(F2, Pprime) == tpoly(F2, 1, 1)

    def test_pure_shift_anchor(self):
        sd = spectral_data(F2, xpoly(F2, (0, 1), (1,)))
        assert (sd.E, sd.rou_orders, sd.unit_orders) == (1, (), ())

    def test_rejects_nonmonic(self):
        with pytest.raises(errors.MalformedInputError, match="polygon needs a monic polynomial"):
            spectral_data(F2, xpoly(F2, (1,), (0, 1)))

    def test_weight_sum_and_periodicity(self):
        sd = spectral_data(F7, xpoly(F7, (5,), (6,), (1,)))
        assert sd.is_periodic_time(6) and sd.is_periodic_time(4)
        assert not sd.is_periodic_time(5)
        sd2 = spectral_data(F2, CUBIC)
        assert sd2.weight_sum(4) == -1 and sd2.weight_sum(1) == -1

    @settings(max_examples=30)
    @given(P=xpolys(F5, max_xdeg=4, max_tdeg=2, nonzero_const=True))
    def test_structural_invariants(self, P):
        from ffzeta.newton import polygon

        sd = spectral_data(F5, P)
        G, Pprime = rou_split(F5, P)
        assert lift(F5, G) * Pprime == P
        span = polygon(P).slope_zero_span()
        zero_len = span[1] - span[0] if span else 0
        m = sum(mult for _, mult in sd.rou_orders)
        n = sum(mult for _, mult in sd.unit_orders)
        assert m + n == zero_len
        assert m == G.degree
        for order, _ in sd.rou_orders + sd.unit_orders:
            assert order % F5.p != 0
        for _, w in sd.weights:
            assert w < 0
