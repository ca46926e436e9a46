"""Entropy, periodic point counts by several routes, and the tiny-case oracle."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import felems, tmat, tpoly, tpolys
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
from ffzeta.polymat import identity, mat_mul

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

    def test_record_contract(self):
        # a record's repr names its fields
        assert repr(NkValue.of(3)) == "NkValue(is_zero=False, exponent=3)"
        v = NkValue.zero()
        with pytest.raises(AttributeError):
            v.exponent = 1
        with pytest.raises(AttributeError):
            Entropy(1, 2).E = 0


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


F4 = make_field(2, 2)
F9 = make_field(3, 2)

# GF(2), d = 3, entry degree 1, all-ones leading matrix (corpus-routes shapes)
NONLINEAR_V = [[(1, 1), (1, 1), (0, 1)], [(0, 1), (0, 1), (1, 1)], [(1, 1), (0, 1), (0, 1)]]
ALL_ZERO = [[(1, 1), (0, 1), (0, 1)], [(1, 1), (0, 1), (1, 1)], [(1, 1), (1, 1), (1, 1)]]
PERIODIC_ZERO = [[(0, 1), (1, 1), (0, 1)], [(0, 1), (0, 1), (1, 1)], [(0, 1), (1, 1), (1, 1)]]


def exact_nk(field, A, k):
    """N_k from the full determinant over F[t], no valuation route."""
    ring = polyring(field)
    from ffzeta.polymat import det, matpow_minus_I

    D = det(ring, matpow_minus_I(ring, A, k))
    return NkValue.of(D.degree) if D else NkValue.zero()


def valuations(field, A, kmax):
    """v_k = akd - D_k of the table, None where N_k = 0."""
    a = max(0, max(x.degree for row in A for x in row))
    d = len(A)
    return [
        None if v.is_zero else a * k * d - v.exponent
        for k, v in enumerate(nk_table(field, A, kmax), start=1)
    ]


@st.composite
def planted_zeros(draw, field):
    """diag(Z, R) conjugated by I + f E_(i,j), deg f <= 1: d <= 4, degree <= 3.

    Z is [1], [-1] or the companion of X^2 + X + 1, so an eigenvalue 1, a
    root of unity of order 2 (p odd) or of order 3 (p != 3) makes N_k = 0
    at every k, at even k or at k divisible by 3; R is random of size 1-2.
    """
    ring = polyring(field)
    one, minus = field.one, field.neg(field.one)
    Z = draw(st.sampled_from([[[one]], [[minus]], [[field.zero, minus], [one, minus]]]))
    r = draw(st.integers(1, 2))
    entry = tpolys(field, max_deg=1)
    R = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=r, max_size=r))
    z, d = len(Z), len(Z) + r
    A = [[Poly.const(field, c) for c in row] + [ring.zero] * r for row in Z]
    A += [[ring.zero] * z + row for row in R]
    i, j = draw(st.permutations(range(d)))[:2]
    f = draw(entry)
    U, V = identity(ring, d), identity(ring, d)
    U[i][j], V[i][j] = f, -f
    return mat_mul(ring, mat_mul(ring, U, A), V)


class TestValuationRoute:
    """nk_table and nk_direct read D off det(B^k - s^(ak) I) mod s^N."""

    @settings(max_examples=80)
    @given(data=st.data())
    def test_matches_full_determinant(self, data):
        field = data.draw(st.sampled_from([F2, F3, F4, F9]))
        if data.draw(st.booleans()):
            A = data.draw(planted_zeros(field))
        else:
            d = data.draw(st.integers(1, 4))
            entry = tpolys(field, max_deg=3)
            A = data.draw(
                st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d)
            )
        kmax = data.draw(st.integers(1, 12))
        want = [exact_nk(field, A, k) for k in range(1, kmax + 1)]
        assert nk_table(field, A, kmax) == want
        k = data.draw(st.integers(1, kmax))
        assert nk_direct(field, A, k) == want[k - 1]

    @settings(max_examples=150)
    @given(data=st.data())
    def test_valuation_is_that_of_the_cut_determinant(self, data):
        """_valuation against det over F[s] cut to s^N, entries longer
        than N included, as R's are; its rows are left as they were."""
        from ffzeta.dynamics import _valuation
        from ffzeta.polymat import det

        field = data.draw(st.sampled_from([F2, F3, F7, F4, make_field(2**61 - 1)]))
        d, N = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))
        coeff = st.one_of(st.just(0), felems(field))
        entry = st.lists(coeff, max_size=N + 3)
        rows = data.draw(
            st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d)
        )
        shape = data.draw(st.sampled_from(["drawn", "zero row", "zero block"]))
        if shape == "zero row":
            rows[data.draw(st.integers(0, d - 1))] = [[] for _ in range(d)]
        elif shape == "zero block":
            rows = [[[0] * len(x) for x in row] for row in rows]
        cs = det(polyring(field), [[Poly(field, x) for x in row] for row in rows]).coeffs
        want = next((i for i, c in enumerate(cs[:N]) if c), None)
        ops = field.series_ops(N + 3)  # elements hold all N + 3 coefficients
        packed = [[ops.pack(x) for x in row] for row in rows]
        given = [list(row) for row in packed]
        assert _valuation(ops, packed, N) == want
        assert packed == given

    @pytest.mark.parametrize(
        "field, rows",
        [
            (F3, [[(), (1, 2)], [(2,), ()]]),  # zero entries
            (F3, [[(0, 1), (1, 1)], [(2, 2), (1, 2)]]),  # singular L, rank one
            (F9, [[(5,), (1,)], [(0,), (7,)]]),  # constant matrix, a = 0
            (F2, [[(1,), (0, 1)], [(0,), (1,)]]),  # eigenvalue 1, N_k = 0 for all k
            (F2, [[(), ()], [(), ()]]),  # zero matrix
            (F3, [[(), (0, 1)], [(), ()]]),  # nilpotent: B^k = 0 for k >= 2
            (F2, NONLINEAR_V),
            (F2, ALL_ZERO),
            (F2, PERIODIC_ZERO),
        ],
    )
    def test_edge_cases(self, field, rows):
        A = tmat(field, rows)
        want = [exact_nk(field, A, k) for k in range(1, 13)]
        assert nk_table(field, A, 12) == want
        assert [nk_direct(field, A, k) for k in range(1, 13)] == want

    @staticmethod
    def record_matrices(monkeypatch):
        """The list of (ops, P) that reach ``_nk_value``, for the powers
        P = A^k as elements of ops."""
        from ffzeta import dynamics

        ms = []
        real_nk_value = dynamics._nk_value

        def recording_nk_value(ops, P, guess):
            ms.append((ops, P))
            return real_nk_value(ops, P, guess)

        monkeypatch.setattr(dynamics, "_nk_value", recording_nk_value)
        return ms

    @staticmethod
    def ks_of(field, A, ms, kmax=12):
        """The k with P = A^k, A^k taken over F[t] and packed by the same
        ops, for each (ops, P) in ms."""
        from ffzeta.polymat import matpow

        ring = polyring(field)
        powers = [matpow(ring, A, k) for k in range(1, kmax + 1)]
        return [
            next(
                k
                for k, Ak in enumerate(powers, 1)
                if [[ops.pack(x.coeffs) for x in row] for row in Ak] == P
            )
            for ops, P in ms
        ]

    def test_edge_cases_reach_their_branch(self, monkeypatch):
        """N_j = 0 settles every multiple of j, and p | k settles k, with no det."""
        ms = self.record_matrices(monkeypatch)
        assert valuations(F2, tmat(F2, NONLINEAR_V), 6) == [3, 6, 7, 12, 11, 14]
        ms.clear()
        A = tmat(F2, ALL_ZERO)
        assert valuations(F2, A, 12) == [None] * 12
        assert self.ks_of(F2, A, ms) == [1]
        ms.clear()
        A = tmat(F2, PERIODIC_ZERO)
        assert valuations(F2, A, 12) == [
            2, 4, None, 8, 10, None, 14, 16, None, 20, 22, None
        ]
        assert self.ks_of(F2, A, ms) == [1, 3, 5, 7, 11]
        ms.clear()
        unipotent = tmat(F2, [[(1,), (0, 1)], [(0,), (1,)]])
        assert nk_table(F2, unipotent, 12) == [NkValue.zero()] * 12
        assert self.ks_of(F2, unipotent, ms) == [1]
        assert nk_table(F9, tmat(F9, [[(5,), (1,)], [(0,), (7,)]]), 3) == [NkValue.of(0)] * 3

    def test_wild_multiples_need_no_determinant(self, monkeypatch):
        """Over GF(3) with a singular leading matrix, N_3k follows from N_k."""
        A = tmat(F3, [[(2,), (1,)], [(1,), (1, 2)]])
        ms = self.record_matrices(monkeypatch)
        tab = nk_table(F3, A, 9)
        assert [v.exponent for v in tab] == [1, 1, 3, 3, 5, 3, 7, 7, 9]
        assert self.ks_of(F3, A, ms, 9) == [1, 2, 4, 5, 7, 8]
        assert tab == [nk_direct(F3, A, k) for k in range(1, 10)]

    def test_nonsingular_leading_matrix_needs_one_coefficient(self, monkeypatch):
        """An invertible L gives N_k = q^(akd) from N_1's one elimination,
        at N = 1, with no power of A and no det."""
        from ffzeta import dynamics

        A = tmat(F7, [[(1, 2, 3), (0, 0, 1), (4, 0, 2)],
                      [(2, 1, 5), (3, 3, 6), (0, 1, 1)],
                      [(6, 0, 2), (1, 2, 4), (5, 5, 3)]])
        L = tmat(F7, [[(x.lc,) for x in row] for row in A])
        assert dynamics.det(polyring(F7), L)
        precisions = self.record_precisions(monkeypatch)
        products = TestPowerAdvance.count_products(monkeypatch)
        monkeypatch.setattr(dynamics, "det", self.forbidden)
        tab = nk_table(F7, A, 40)
        assert tab == [NkValue.of(6 * k) for k in range(1, 41)]
        assert precisions == [1]
        assert products == []

    @staticmethod
    def forbidden(*args, **kwargs):
        raise AssertionError("nk_table took a det, identity or A^k - I")

    @staticmethod
    def record_precisions(monkeypatch):
        """The list of precisions N that ``_valuation`` runs at."""
        from ffzeta import dynamics

        precisions = []
        real_valuation = dynamics._valuation

        def recording_valuation(ops, rows, N):
            precisions.append(N)
            return real_valuation(ops, rows, N)

        monkeypatch.setattr(dynamics, "_valuation", recording_valuation)
        return precisions

    @staticmethod
    def record_det_rings(monkeypatch):
        """The list of rings ``dynamics.det`` runs over."""
        from ffzeta import dynamics

        rings = []
        real_det = dynamics.det

        def recording_det(ring, M):
            rings.append(ring)
            return real_det(ring, M)

        monkeypatch.setattr(dynamics, "det", recording_det)
        return rings

    def test_direct_takes_one_exact_determinant(self, monkeypatch):
        """nk_direct runs one det per k, over F[t] itself."""
        from ffzeta.polymat import det

        L = [[x.coeff(2) for x in row] for row in CUBIC_COMP]  # t^2 coefficients
        assert det(F2, L) == 0
        rings = self.record_det_rings(monkeypatch)
        for k in range(1, 7):
            rings.clear()
            nk_direct(F2, CUBIC_COMP, k)
            assert len(rings) == 1
            assert rings[0] is polyring(F2)

    def test_table_takes_no_det(self, monkeypatch):
        """With det, mat_sub and identity patched to raise, nk_table still
        matches nk_direct, on an invertible L and on a singular one."""
        from ffzeta import dynamics

        invertible = tmat(F7, [[(1, 2), (0, 3)], [(4, 1), (2, 6)]])
        cases = [(F7, invertible, 12), (F2, CUBIC_COMP, 9)]
        wants = [[nk_direct(f, A, k) for k in range(1, n + 1)] for f, A, n in cases]
        for name in ("det", "mat_sub", "identity"):
            monkeypatch.setattr(dynamics, name, self.forbidden)
        assert [nk_table(f, A, n) for f, A, n in cases] == wants
        assert wants[0] == [NkValue.of(2 * k) for k in range(1, 13)]

    def test_table_starts_at_one_coefficient(self, monkeypatch):
        """nk_table's first valuation keeps one coefficient, N = 1."""
        precisions = self.record_precisions(monkeypatch)
        for rows in (CUBIC_COMP, tmat(F2, NONLINEAR_V), tmat(F2, PERIODIC_ZERO)):
            precisions.clear()
            nk_table(F2, rows, 6)
            assert precisions[0] == 1

    def test_constant_matrix_keeps_the_leading_matrix_rule_off(self):
        """With a = 0, N_1 = q^0 says nothing of N_2: A = [[6]] over GF(7)
        has A^2 = I."""
        A = tmat(F7, [[(6,)]])
        want = [NkValue.of(0), NkValue.zero(), NkValue.of(0), NkValue.zero()]
        assert nk_table(F7, A, 4) == want
        assert [nk_direct(F7, A, k) for k in range(1, 5)] == want

    def test_independent_of_spectral_route(self, monkeypatch):
        """No charpoly, factor or root order on the direct route."""
        import sys

        from ffzeta import gf, polycore, polymat

        A = tmat(F2, PERIODIC_ZERO)
        want_table = nk_table(F2, A, 9)
        want_direct = nk_direct(F2, A, 6)

        def forbidden(*args, **kwargs):
            raise AssertionError("spectral routine on the direct route")

        spectral_fns = (
            polymat.charpoly,
            polycore.factor,
            gf.order_of_root,
            gf._root_order,
        )
        for fn in spectral_fns:
            for name, module in list(sys.modules.items()):
                if name.startswith("ffzeta"):
                    for attr, val in list(vars(module).items()):
                        if val is fn:
                            monkeypatch.setattr(module, attr, forbidden)
        assert nk_table(F2, A, 9) == want_table
        assert nk_direct(F2, A, 6) == want_direct


F5 = make_field(5)


def stepped_nk(field, A, kmax):
    """N_1..N_kmax from det(A^k - I) over F[t], A^k stepped one A at a time."""
    from ffzeta.polymat import det, mat_sub

    ring = polyring(field)
    I = identity(ring, len(A))
    out, power = [], A
    for _ in range(kmax):
        D = det(ring, mat_sub(ring, power, I))
        out.append(NkValue.of(D.degree) if D else NkValue.zero())
        power = mat_mul(ring, power, A)
    return out


class TestPowerAdvance:
    """nk_table takes A^k only at the k that reach ``_nk_value``, each as
    the last such power times a gap power built once."""

    @staticmethod
    def count_products(monkeypatch):
        """The list of matrix products nk_table makes, one entry each: the
        ``mat_mul`` calls of every ``Field.series_ops`` it builds."""
        from ffzeta.gf import Field

        calls = []
        real_series_ops = Field.series_ops

        def counting_series_ops(field, N):
            ops = real_series_ops(field, N)

            def counting_mat_mul(X, Y):
                calls.append(field)
                return ops.mat_mul(X, Y)

            return ops._replace(mat_mul=counting_mat_mul)

        monkeypatch.setattr(Field, "series_ops", counting_series_ops)
        return calls

    @pytest.mark.parametrize("m", [0, 1, 2, 7, 14])
    @pytest.mark.parametrize(
        "rows",
        [CUBIC_COMP, NONLINEAR_V, PERIODIC_ZERO],
        ids=["cubic", "nonlinear", "periodic zero"],
    )
    def test_gf2_needs_one_product_per_odd_k(self, monkeypatch, rows, m):
        """Over GF(2) every k that takes a determinant is odd: to k = 2m + 1
        that is A^2 once and at most one product per odd k past 1."""
        A = rows if isinstance(rows[0][0], Poly) else tmat(F2, rows)
        want = stepped_nk(F2, A, 2 * m + 1)
        calls = self.count_products(monkeypatch)
        assert nk_table(F2, A, 2 * m + 1) == want
        assert len(calls) <= m + 2

    @pytest.mark.parametrize("field", [F2, F3, F5], ids=repr)
    @pytest.mark.parametrize(
        "rows",
        [
            [[(1,), (0, 1)], [(0,), (1, 1)]],  # eigenvalue 1: N_k = 0 for all k
            [[(-1,), (0, 1)], [(0,), (1, 1)]],  # eigenvalue -1: N_2 = 0 for odd p
            NONLINEAR_V,
            PERIODIC_ZERO,
        ],
        ids=["eigenvalue 1", "eigenvalue -1", "nonlinear", "periodic zero"],
    )
    def test_matches_one_power_at_a_time(self, monkeypatch, field, rows):
        """The table is that of powers stepped one A at a time, and the
        matrices that reach ``_nk_value`` are A^k at increasing k that p
        does not divide."""
        A = tmat(field, [[tuple(c % field.p for c in x) for x in row] for row in rows])
        want = stepped_nk(field, A, 16)
        ms = TestValuationRoute.record_matrices(monkeypatch)
        assert nk_table(field, A, 16) == want
        ks = TestValuationRoute.ks_of(field, A, ms, 16)
        assert ks == sorted(ks) and all(k % field.p for k in ks)
        if field is not F2 and rows[0][0] == (-1,):
            # N_2 = 0 settles every even k with no power past A^2
            odd = [k for k in range(1, 17) if k % 2 and k % field.p]
            assert want[1] == NkValue.zero() and ks == sorted(odd + [2])

    @settings(max_examples=40)
    @given(data=st.data())
    def test_matches_stepped_powers(self, data):
        field = data.draw(st.sampled_from([F2, F3, F5]))
        A = data.draw(planted_zeros(field))
        kmax = data.draw(st.integers(1, 14))
        assert nk_table(field, A, kmax) == stepped_nk(field, A, kmax)


F65521 = make_field(65521)
M61 = make_field(2**61 - 1)


class TestPackedTable:
    """Over prime fields nk_table keeps A, its powers and R as one packed
    int per entry, from the first product to the elimination; for e >= 2
    they stay coefficient lists."""

    @settings(max_examples=60)
    @given(data=st.data())
    def test_matches_direct(self, data):
        field = data.draw(st.sampled_from([F2, F3, F7, F65521, M61]))
        if data.draw(st.booleans()):
            A = data.draw(planted_zeros(field))
        else:
            # a first row of lower degree makes the leading matrix singular
            # when the other rows reach degree 2, so the table takes powers
            d = data.draw(st.integers(1, 3))
            rows = [tpolys(field, max_deg=1)] + [tpolys(field, max_deg=2)] * (d - 1)
            A = [data.draw(st.lists(entry, min_size=d, max_size=d)) for entry in rows]
        kmax = data.draw(st.integers(1, 8))
        assert nk_table(field, A, kmax) == [nk_direct(field, A, k) for k in range(1, kmax + 1)]

    @staticmethod
    def record_widths(monkeypatch):
        """(N, slot width in bytes) of every ``Field.series_ops`` built."""
        from ffzeta.gf import Field

        widths = []
        real_series_ops = Field.series_ops

        def recording_series_ops(field, N):
            ops = real_series_ops(field, N)
            widths.append((N, ops.pack([1, 1]).bit_length() // 8))
            return ops

        monkeypatch.setattr(Field, "series_ops", recording_series_ops)
        return widths

    def test_gf2_width_transition(self, monkeypatch):
        """GF(2), d = 4, entry degree 2 and an all-ones leading matrix, as
        in the corpus: the slots hold 2 N p (p - 1) for N = (a kmax + 1) d,
        which bounds every precision, Dd + 1, and d times every entry
        length: one byte to kmax 7 and two at kmax 40, where d (ak + 1) =
        324 at k = 40 passes 255.  Both tables match nk_direct."""
        rng = random.Random(4)
        A = [
            [Poly(F2, [rng.randrange(2), rng.randrange(2), 1]) for _ in range(4)]
            for _ in range(4)
        ]
        want = [nk_direct(F2, A, k) for k in range(1, 41)]
        widths = self.record_widths(monkeypatch)
        assert nk_table(F2, A, 7) == want[:7]
        assert nk_table(F2, A, 40) == want
        assert widths == [(15 * 4, 1), (81 * 4, 2)]

    @pytest.mark.parametrize("field", [F2, F7, M61], ids=repr)
    def test_prime_field_table_stays_packed(self, monkeypatch, field):
        """With the coefficient-list product kernels and ``polymat.mat_mul``
        patched to raise, a table that takes powers still matches
        nk_direct over a prime field."""
        from ffzeta import polymat
        from ffzeta.gf import Field

        def forbidden(*args, **kwargs):
            raise AssertionError("a prime-field table left its packed ints")

        A = tmat(field, PERIODIC_ZERO)
        want = [nk_direct(field, A, k) for k in range(1, 10)]
        for name in ("poly_mul", "poly_dot", "_kron_dot", "_short_mul"):
            monkeypatch.setattr(Field, name, forbidden)
        monkeypatch.setattr(polymat, "mat_mul", forbidden)
        products = TestPowerAdvance.count_products(monkeypatch)
        assert nk_table(field, A, 9) == want
        assert products
