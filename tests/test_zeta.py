"""Zeta classification, closed forms, and exact series expansion routes."""

import time
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from conftest import tmat, xpoly
from ffzeta import errors, make_field
from ffzeta.dynamics import (
    INT_RENDER_CAP,
    NkValue,
    nk_direct,
    nk_table,
    system_data,
)
from ffzeta import zeta
from ffzeta.spectral import SpectralData
from ffzeta.zeta import (
    SeriesTrunc,
    ZetaClosedForm,
    classify,
    closed_form,
    nk_from_series,
    num_str,
    series_from_closed_form,
    series_from_nk,
)

F2 = make_field(2)
F7 = make_field(7)

DIAG62 = tmat(F7, [[(6,), (0,)], [(0,), (2,)]])
CUBIC_COMP = tmat(
    F2,
    [
        [(0,), (0,), (0, 1)],
        [(1,), (0,), (0, 0, 1)],
        [(0,), (1,), (0, 0, 1)],
    ],
)


def fake_sd(field, E, rou, unit, weights=()):
    """SpectralData shell for order-set logic; polynomial slots are dummies."""
    return SpectralData(
        field=field,
        P=xpoly(field, (1,)),
        hull=None,
        E=E,
        rou_orders=rou,
        unit_orders=unit,
        weights=weights,
    )


def series_by_fractions(q, nks, order):
    """The exponential recurrence n c_n = sum N_k c_{n-k}, one Fraction per
    term: the reference for the integer recurrence in series_from_nk."""
    N = [0 if v.is_zero else q**v.exponent for v in nks]
    cs = [Fraction(1)]
    for n in range(1, order + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            if N[k - 1]:
                acc += N[k - 1] * cs[n - k]
        cs.append(acc / n)
    return tuple(cs)


def closed_form_by_fractions(cf, order):
    """The product of the binomial series (1 - (q^E z)^L)^gamma, one
    Fraction per term: the reference for series_from_closed_form."""
    cs = [Fraction(1)] + [Fraction(0)] * order
    for L, gamma in cf.factors:
        if L > order:
            continue
        scale = cf.q ** (cf.E * L)
        fac = [Fraction(1)] + [Fraction(0)] * order
        term = Fraction(1)
        for j in range(1, order // L + 1):
            term *= (gamma - (j - 1)) / j
            fac[j * L] = term * (-scale) ** j
        nxt = [Fraction(0)] * (order + 1)
        for i, a in enumerate(cs):
            if a == 0:
                continue
            for j in range(0, order + 1 - i, L):
                if fac[j] != 0:
                    nxt[i + j] += a * fac[j]
        cs = nxt
    return tuple(cs)


@st.composite
def closed_forms(draw):
    """(ZetaClosedForm, order): factors with L in 1..12 and gamma = -v/L,
    v in -3..3, plus one factor with L past the order."""
    order = draw(st.integers(0, 40))
    gammas = {}
    for L, v in draw(st.lists(st.tuples(st.integers(1, 12), st.integers(-3, 3)))):
        gammas[L] = gammas.get(L, 0) + Fraction(-v, L)
    L = order + draw(st.integers(1, 5))
    gammas[L] = gammas.get(L, 0) + Fraction(-draw(st.integers(1, 3)), L)
    factors = tuple(sorted((L, g) for L, g in gammas.items() if g))
    q = draw(st.sampled_from((2, 4, 7, 2**61 - 1)))
    return ZetaClosedForm(q=q, E=draw(st.integers(0, 2)), factors=factors), order


@st.composite
def nk_lists(draw):
    """(q, NkValue list): free exponents, which mostly break the Dold
    congruences and give non-integral coefficients, or N_k = q^(Ek) with
    zeros where an order m divides k, as for an algebraic system."""
    q = draw(st.sampled_from((2, 4, 7, 2**61 - 1)))
    order = draw(st.integers(0, 40))
    if draw(st.booleans()):
        value = st.one_of(
            st.just(NkValue.zero()), st.builds(NkValue.of, st.integers(0, 60))
        )
        nks = draw(st.lists(value, min_size=order, max_size=order))
    else:
        E = draw(st.integers(0, 1))
        ms = draw(st.lists(st.integers(1, 12), max_size=3))
        nks = [
            NkValue.zero() if any(k % m == 0 for m in ms) else NkValue.of(E * k)
            for k in range(1, order + 1)
        ]
    return q, nks


def subset_expansion(orders):
    """Inclusion-exclusion over all 2^n subsets of the order multiset.

    The factor at L collects (-1)^(|S| + 1) / L over the subsets S whose
    lcm is L, the empty subset giving L = 1.
    """
    acc = {}
    for r in range(len(orders) + 1):
        for chosen in combinations(orders, r):
            L = lcm(*chosen) if chosen else 1
            acc[L] = acc.get(L, Fraction(0)) + Fraction((-1) ** (r + 1), L)
    return tuple(sorted((L, g) for L, g in acc.items() if g))


class TestClassify:
    def test_all_rou_is_algebraic(self):
        res = classify(system_data(F7, DIAG62))
        assert res.algebraic and res.certificate is None
        assert res.radius_exponent == 0

    def test_bare_unit_is_transcendental(self):
        res = classify(system_data(F2, CUBIC_COMP))
        assert not res.algebraic and res.closed_form is None
        assert res.certificate.bad_unit_order == 1
        assert res.certificate.rou_orders == ()
        assert res.radius_exponent == -2

    def test_divisibility_rescues(self):
        sd = fake_sd(F7, 0, rou=((2, 1),), unit=((4, 1),), weights=((4, -1),))
        assert classify(sd).algebraic

    def test_least_offender_reported(self):
        sd = fake_sd(F7, 1, rou=((3, 1),), unit=((2, 1), (6, 1), (4, 1)))
        res = classify(sd)
        assert not res.algebraic
        assert res.certificate.bad_unit_order == 2
        assert res.certificate.rou_orders == (3,)


class TestClosedForm:
    def test_two_coprime_orders(self):
        cf = closed_form(system_data(F7, DIAG62))
        assert cf.q == 7 and cf.E == 0
        assert cf.factors == (
            (1, Fraction(-1)),
            (2, Fraction(1, 2)),
            (3, Fraction(1, 3)),
            (6, Fraction(-1, 6)),
        )
        assert cf.display() == "(1-z^2)^{1/2}(1-z^3)^{1/3}/((1-z)(1-z^6)^{1/6})"

    def test_no_unit_circle_at_all(self):
        cf = closed_form(system_data(F2, tmat(F2, [[(0, 1)]])))
        assert cf.factors == ((1, Fraction(-1)),)
        assert cf.display() == "1/(1-2z)"

    def test_order_one_cancels_everything(self):
        cf = closed_form(fake_sd(F2, 0, rou=((1, 1),), unit=()))
        assert cf.factors == ()
        assert cf.display() == "1"

    @pytest.mark.parametrize("n", [INT_RENDER_CAP, INT_RENDER_CAP + 1])
    @pytest.mark.parametrize("E_is_n", [True, False], ids=["E=n", "L=n"])
    def test_display_at_render_cap(self, n, E_is_n):
        """q^(E L) prints in full up to INT_RENDER_CAP, as the text q^n past it."""
        E, L = (n, 1) if E_is_n else (1, n)
        cf = ZetaClosedForm(q=2, E=E, factors=((L, Fraction(-1, L)),))
        coef = str(2**n) if n <= INT_RENDER_CAP else f"2^{n}"
        shown = f"(1-{coef}z)" if L == 1 else f"(1-{coef}z^{L})^{{1/{L}}}"
        assert cf.display() == f"1/{shown}"

    def test_repeated_order_merges(self):
        cf = closed_form(fake_sd(F7, 0, rou=((2, 2),), unit=()))
        # subsets of {2, 2}: two singletons +1/2 each, one pair -1/2
        assert cf.factors == ((1, Fraction(-1)), (2, Fraction(1, 2)))

    def test_transcendental_rejected(self):
        with pytest.raises(errors.MalformedInputError, match="not divisible by any root-of-unity order"):
            closed_form(system_data(F2, CUBIC_COMP))

    def test_copies_of_one_order_collapse(self):
        """[m | k] is idempotent: 17 copies of order 1 act like one copy."""
        many = closed_form(fake_sd(F2, 0, rou=((1, 17),), unit=()))
        one = closed_form(fake_sd(F2, 0, rou=((1, 1),), unit=()))
        assert many.factors == one.factors == ()

    @given(
        orders=st.lists(st.sampled_from((1, 2, 3, 4, 6, 8, 12)), max_size=8)
    )
    def test_matches_subset_expansion(self, orders):
        rou = tuple(sorted(Counter(orders).items()))
        cf = closed_form(fake_sd(F7, 1, rou=rou, unit=()))
        assert cf.factors == subset_expansion(orders)


class TestSeriesFromNk:
    def test_zero_counts(self):
        s = series_from_nk(2, [NkValue.zero()] * 6, 6)
        assert s.coeffs == (Fraction(1),) + (Fraction(0),) * 6

    def test_geometric(self):
        s = series_from_nk(2, [NkValue.of(k) for k in range(1, 11)], 10)
        assert s.coeffs == tuple(Fraction(2**n) for n in range(11))

    def test_callable_source(self):
        s = series_from_nk(7, [nk_direct(F7, DIAG62, k) for k in range(1, 9)], 8)
        assert s.coeffs[:2] == (Fraction(1), Fraction(1))
        assert s == series_from_nk(7, nk_table(F7, DIAG62, 8), 8)

    def test_short_input_rejected(self):
        with pytest.raises(errors.MalformedInputError):
            series_from_nk(2, [NkValue.of(1)], 5)

    @given(case=nk_lists())
    def test_matches_fraction_recurrence(self, case):
        q, nks = case
        assert series_from_nk(q, nks, len(nks)).coeffs == series_by_fractions(
            q, nks, len(nks)
        )

    @pytest.mark.parametrize(
        "q, exps",
        [
            (7, [3 * k for k in range(1, 13)]),  # c = 3, every N'_k = 1
            (2, [0] + list(range(3, 14))),  # N_1 = 1: c = 0
            (4, [None if k % 2 == 0 else 2 * k + 1 for k in range(1, 13)]),  # c = 2
            (2**61 - 1, [5 * k - 1 for k in range(1, 13)]),  # k does not divide e_k
            (5, [None, 4, 9, 30] + [8 * k for k in range(5, 13)]),  # c from k = 2
            (3, [None] * 12),  # no nonzero N_k: c = 0
        ],
    )
    def test_rescaled_recurrence_matches_unscaled(self, q, exps):
        """The recurrence on N_k / q^(ck) against the one on the N_k."""
        nks = [NkValue.zero() if e is None else NkValue.of(e) for e in exps]
        for order in (0, 1, 2, 7, 12):
            want = series_by_fractions(q, nks, order)
            assert series_from_nk(q, nks, order).coeffs == want

    def test_dold_breaking_counts_give_fractions(self):
        # N_1 = 1, N_2 = 0: c_2 = (N_2 + N_1^2) / 2
        nks = [NkValue.of(0), NkValue.zero()]
        assert series_from_nk(5, nks, 2).coeffs == (1, 1, Fraction(1, 2))


class TestSeriesFromClosedForm:
    def test_geometric(self):
        cf = ZetaClosedForm(q=2, E=1, factors=((1, Fraction(-1)),))
        s = series_from_closed_form(cf, 6)
        assert s.coeffs == tuple(Fraction(2**n) for n in range(7))

    def test_square_root_factor(self):
        cf = ZetaClosedForm(q=5, E=0, factors=((2, Fraction(1, 2)),))
        s = series_from_closed_form(cf, 4)
        assert s.coeffs == (
            Fraction(1),
            Fraction(0),
            Fraction(-1, 2),
            Fraction(0),
            Fraction(-1, 8),
        )
        # exactly the non-integral coefficients are Fractions, in lowest terms
        assert [type(c) for c in s.coeffs] == [int, int, Fraction, int, Fraction]
        assert [gcd(c.numerator, c.denominator) for c in s.coeffs] == [1] * 5

    @given(case=closed_forms())
    def test_matches_fraction_product(self, case):
        cf, order = case
        got = series_from_closed_form(cf, order).coeffs
        want = closed_form_by_fractions(cf, order)
        assert got == want
        assert [num_str(c) for c in got] == [num_str(c) for c in want]

    def test_sixteen_factors(self):
        """The orders 2, 3, 5, 7, 8 give 16 factors, L = 1 up to 210."""
        rou = tuple((m, 1) for m in (2, 3, 5, 7, 8))
        cf = closed_form(fake_sd(F7, 1, rou=rou, unit=()))
        assert len(cf.factors) == 16
        got = series_from_closed_form(cf, 60).coeffs
        want = closed_form_by_fractions(cf, 60)
        assert got == want
        assert [num_str(c) for c in got] == [num_str(c) for c in want]

    def test_matches_exponential_route(self):
        cf = closed_form(system_data(F7, DIAG62))
        lhs = series_from_closed_form(cf, 50)
        rhs = series_from_nk(7, nk_table(F7, DIAG62, 50), 50)
        assert lhs == rhs

    def test_factor_past_order_skipped(self):
        """Below z^L a factor with L = 2^60 is 1; q^(E L) is never formed."""
        base = ((1, Fraction(-1)), (2, Fraction(1, 2)))
        long = ZetaClosedForm(q=7, E=1, factors=base + ((2**60, Fraction(1, 2**60)),))
        start = time.perf_counter()
        lhs = series_from_closed_form(long, 20)
        assert time.perf_counter() - start < 1
        assert lhs == series_from_closed_form(ZetaClosedForm(7, 1, base), 20)


class TestInverseRecurrence:
    def test_recovers_counts(self):
        tab = nk_table(F7, DIAG62, 20)
        s = series_from_nk(7, tab, 20)
        got = nk_from_series(s)
        assert got == [v.as_int(7) for v in tab]

    def test_non_integral_rejected(self):
        s = SeriesTrunc(order=1, coeffs=(Fraction(1), Fraction(1, 3)))
        with pytest.raises(errors.MalformedInputError, match=r"^N_1 from series is 1/3$"):
            nk_from_series(s)

    @given(case=nk_lists(), data=st.data())
    def test_inverts_and_rejects_perturbation(self, case, data):
        q, nks = case
        order = len(nks)
        s = series_from_nk(q, nks, order)
        assert nk_from_series(s) == [0 if v.is_zero else q**v.exponent for v in nks]
        if order == 0:
            return
        # c_j + 1/(j+1) moves N_j by j/(j+1), never an integer
        j = data.draw(st.integers(1, order))
        cs = list(s.coeffs)
        cs[j] += Fraction(1, j + 1)
        with pytest.raises(errors.MalformedInputError, match=rf"^N_{j} from series is "):
            nk_from_series(SeriesTrunc(order=order, coeffs=tuple(cs)))

    def test_int_coefficients_accepted(self):
        s = SeriesTrunc(order=4, coeffs=tuple(3**n for n in range(5)))
        assert nk_from_series(s) == [3, 9, 27, 81]

    @pytest.mark.parametrize("c0", [Fraction(2), 0, Fraction(1, 2)])
    def test_constant_term_must_be_one(self, c0):
        s = SeriesTrunc(order=2, coeffs=(c0, Fraction(1), Fraction(1)))
        with pytest.raises(errors.MalformedInputError, match="constant term"):
            nk_from_series(s)


class TestNumberType:
    """Coefficients are ints where integral and Fractions in lowest terms
    elsewhere, each built once: no Fraction per term on the way."""

    @pytest.mark.parametrize(
        "cf, nks, order, fractions",
        [
            (
                ZetaClosedForm(q=7, E=1, factors=((1, Fraction(-1)),)),
                [NkValue.of(k) for k in range(1, 41)],
                40,
                0,
            ),
            # N_2 - N_1 = -1 is odd, against the Dold congruences: c_2 = 1/2
            (
                closed_form(system_data(F7, DIAG62)),
                nk_table(F7, DIAG62, 20),
                20,
                19,
            ),
        ],
        ids=["1/(1-7z)", "DIAG62"],
    )
    def test_fractions_only_where_not_integral(
        self, monkeypatch, cf, nks, order, fractions
    ):
        made = []

        def counting(*args):
            made.append(args)
            return Fraction(*args)

        monkeypatch.setattr(zeta, "Fraction", counting)
        by_cf = series_from_closed_form(cf, order)
        by_nk = series_from_nk(7, nks, order)
        assert nk_from_series(by_nk) == [v.as_int(7) for v in nks]
        assert by_cf == by_nk
        for c in by_cf.coeffs + by_nk.coeffs:
            assert type(c) is (int if c.denominator == 1 else Fraction)
        assert len(made) == 2 * fractions
        assert sum(c.denominator != 1 for c in by_nk.coeffs) == fractions


def test_permuting_diagonal_leaves_closed_form():
    swapped = tmat(F7, [[(2,), (0,)], [(0,), (6,)]])
    assert closed_form(system_data(F7, DIAG62)) == closed_form(
        system_data(F7, swapped)
    )


def test_series_trunc_length_guard():
    with pytest.raises(errors.InternalInvariantError):
        SeriesTrunc(order=2, coeffs=(Fraction(1),))


def test_series_trunc_record_contract():
    s = SeriesTrunc(1, (1, Fraction(1, 3)))
    assert repr(s) == "SeriesTrunc(order=1, coeffs=(1, Fraction(1, 3)))"
    with pytest.raises(AttributeError):
        s.order = 2
    with pytest.raises(AttributeError):
        s.extra = 0
