"""Entropy, periodic point counts by several routes, and the tiny-case oracle."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import tmat, tpoly, tpolys
from ffzeta import errors, make_field
from ffzeta.dynamics import (
    INT_RENDER_CAP,
    Entropy,
    NkValue,
    _torus_point,
    entropy,
    fixed_points_bruteforce,
    fixed_points_smith,
    nk_direct,
    nk_spectral,
    nk_table,
    system_data,
)
from ffzeta.polycore import Poly, polyring

F2 = make_field(2)
F3 = make_field(3)
F7 = make_field(7)

SHIFT2 = tmat(F2, [[(0, 1)]])  # multiplication by t on one coordinate
DIAG62 = tmat(F7, [[(6,), (0,)], [(0,), (2,)]])
CUBIC_COMP = tmat(
    F2,
    [
        [(0,), (0,), (0, 1)],
        [(1,), (0,), (0, 0, 1)],
        [(0,), (1,), (0, 0, 1)],
    ],
)


def nonsingular_matrices(field, dmax=2, tdeg=1):
    from conftest import tpolys

    def ok(A):
        ring = polyring(field)
        from ffzeta.polymat import det

        return bool(det(ring, A))

    entry = tpolys(field, max_deg=tdeg)
    return (
        st.integers(1, dmax)
        .flatmap(
            lambda d: st.lists(
                st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d
            )
        )
        .filter(ok)
    )


class TestNkValue:
    def test_as_int(self):
        assert NkValue.zero().as_int(7) == 0
        assert NkValue.of(3).as_int(2) == 8

    def test_render_cap(self):
        assert NkValue.of(INT_RENDER_CAP).as_int(2) == 2**INT_RENDER_CAP
        with pytest.raises(errors.CapExceededError):
            NkValue.of(INT_RENDER_CAP + 1).as_int(2)


class TestEntropy:
    def test_shift(self):
        ent = entropy(F2, SHIFT2)
        assert ent == Entropy(1, 2)
        assert math.isclose(ent.value, math.log(2))

    def test_unit_spectrum(self):
        assert entropy(F7, DIAG62) == Entropy(0, 7)

    def test_expanding_part(self):
        ent = entropy(F2, CUBIC_COMP)
        assert ent == Entropy(2, 2)
        assert math.isclose(ent.value, 2 * math.log(2))

    def test_singular_rejected(self):
        with pytest.raises(errors.SingularMatrixError):
            entropy(F2, tmat(F2, [[(0,)]]))
        with pytest.raises(errors.SingularMatrixError):
            system_data(F2, tmat(F2, [[(1,), (1,)], [(1,), (1,)]]))

    @settings(max_examples=40)
    @given(A=nonsingular_matrices(F3, dmax=3, tdeg=2))
    def test_matches_spectral_E(self, A):
        """entropy reads E off the polygon; spectral_data gets it the same way
        but only after the full split, which entropy no longer runs."""
        assert entropy(F3, A).E == system_data(F3, A).E

    @settings(max_examples=40)
    @given(data=st.data())
    def test_singular_iff_det_zero(self, data):
        """system_data reads singularity off charpoly(0) = (-1)^d det A."""
        from conftest import tpolys
        from ffzeta.polymat import det

        d = data.draw(st.integers(1, 3))
        row = st.lists(tpolys(F2, max_deg=1), min_size=d, max_size=d)
        A = data.draw(st.lists(row, min_size=d, max_size=d))
        if det(polyring(F2), A):
            system_data(F2, A)
        else:
            with pytest.raises(errors.SingularMatrixError, match="determinant is zero"):
                system_data(F2, A)


class TestNkRoutes:
    def test_direct_anchors(self):
        assert nk_direct(F2, SHIFT2, 3).as_int(2) == 8
        assert nk_direct(F7, tmat(F7, [[(1,)]]), 5) == NkValue.zero()
        assert nk_direct(F2, CUBIC_COMP, 1).as_int(2) == 2

    def test_direct_rejects_bad_k(self):
        with pytest.raises(errors.MalformedInputError):
            nk_direct(F2, SHIFT2, 0)

    def test_spectral_anchors(self):
        sd7 = system_data(F7, DIAG62)
        assert nk_spectral(F7, sd7, 5) == NkValue.of(0)
        assert nk_spectral(F7, sd7, 6) == NkValue.zero()
        sd2 = system_data(F2, CUBIC_COMP)
        assert nk_spectral(F2, sd2, 4) == NkValue.of(4)

    def test_cubic_first_counts(self):
        sd = system_data(F2, CUBIC_COMP)
        got = [nk_spectral(F2, sd, k).as_int(2) for k in range(1, 5)]
        assert got == [2, 4, 32, 16]
        assert [v.as_int(2) for v in nk_table(F2, CUBIC_COMP, 4)] == [2, 4, 32, 16]

    def test_table_matches_direct(self):
        tab = nk_table(F7, DIAG62, 12)
        assert tab == [nk_direct(F7, DIAG62, k) for k in range(1, 13)]

    @settings(max_examples=25)
    @given(A=nonsingular_matrices(F3), k=st.integers(1, 12))
    def test_route_equivalence(self, A, k):
        sd = system_data(F3, A)
        assert nk_direct(F3, A, k) == nk_spectral(F3, sd, k)

    @settings(max_examples=25)
    @given(A=nonsingular_matrices(F2), k=st.integers(1, 8))
    def test_growth_bound(self, A, k):
        sd = system_data(F2, A)
        v = nk_spectral(F2, sd, k)
        if not v.is_zero:
            assert v.exponent <= k * sd.E

    @settings(max_examples=25)
    @given(A=nonsingular_matrices(F3), k=st.integers(1, 6))
    def test_wild_power_law(self, A, k):
        """For p coprime to k, the k*p count follows from the k count."""
        p = F3.p
        if k % p == 0:
            return
        sd = system_data(F3, A)
        vk = nk_spectral(F3, sd, k)
        vkp = nk_spectral(F3, sd, k * p)
        if vk.is_zero:
            assert vkp.is_zero
        else:
            assert vkp == NkValue.of(k * p * sd.E + p * (vk.exponent - k * sd.E))

    def test_positive_when_no_rou(self):
        sd = system_data(F2, CUBIC_COMP)
        for k in range(1, 30):
            assert not nk_spectral(F2, sd, k).is_zero


class TestTorusPoint:
    """The brute-force key of num/den mod F[t]."""

    def test_one_class(self):
        t = tpoly(F3, 0, 1)
        want = (tpoly(F3, 1), t)
        assert _torus_point(F3, tpoly(F3, 2), tpoly(F3, 0, 2)) == want  # 2/(2t)
        assert _torus_point(F3, tpoly(F3, 1), t) == want  # 1/t
        assert _torus_point(F3, tpoly(F3, 1, 0, 1), t) == want  # (t^2+1)/t

    def test_zero(self):
        zero = (Poly(F3), tpoly(F3, 1))
        assert _torus_point(F3, Poly(F3), tpoly(F3, 1, 2, 2)) == zero
        # (t^2 - 1)/(t - 1) = t + 1 reduces to a polynomial
        assert _torus_point(F3, tpoly(F3, 2, 0, 1), tpoly(F3, 2, 1)) == zero

    @given(
        num=tpolys(F3, max_deg=4),
        den=tpolys(F3, min_deg=0, max_deg=3).filter(bool),
        f=tpolys(F3, max_deg=3),
        c=st.integers(1, 2),
    )
    def test_invariant_under_shift_and_scaling(self, num, den, f, c):
        key = _torus_point(F3, num, den)
        assert _torus_point(F3, num + f * den, den) == key
        assert _torus_point(F3, num.scale(c), den.scale(c)) == key
        knum, kden = key
        assert kden.is_monic() and knum.degree < kden.degree


class TestFixedPointRoutes:
    def test_smith_anchors(self):
        assert fixed_points_smith(F2, SHIFT2) == NkValue.of(1)
        ident = tmat(F3, [[(1,), (0,)], [(0,), (1,)]])
        assert fixed_points_smith(F3, ident) == NkValue.zero()
        double_shift = tmat(F3, [[(0, 1), (0,)], [(0,), (0, 1)]])
        assert fixed_points_smith(F3, double_shift) == NkValue.of(2)  # q^2

    def test_bruteforce_anchors(self):
        assert fixed_points_bruteforce(F2, SHIFT2) == 2
        assert fixed_points_bruteforce(F3, tmat(F3, [[(0, 1)]])) == 3

    def test_bruteforce_singular(self):
        with pytest.raises(errors.SingularMatrixError):
            fixed_points_bruteforce(F2, tmat(F2, [[(1,)]]))

    def test_bruteforce_cap(self):
        with pytest.raises(errors.CapExceededError):
            fixed_points_bruteforce(F3, tmat(F3, [[(0, 0, 0, 1)]]), cap=10)

    @settings(max_examples=20)
    @given(A=nonsingular_matrices(F2, dmax=2, tdeg=1))
    def test_three_routes_agree(self, A):
        direct = nk_direct(F2, A, 1)
        assert fixed_points_smith(F2, A) == direct
        ring = polyring(F2)
        from ffzeta.polymat import det, identity, mat_sub

        if det(ring, mat_sub(ring, A, identity(ring, len(A)))):
            assert fixed_points_bruteforce(F2, A, cap=10**5) == direct.as_int(2)
