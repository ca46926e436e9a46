"""Finite field construction, arithmetic, and multiplicative orders."""

import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import felems, tpoly
from ffzeta import elem_order, errors, make_field, order_of_root
from ffzeta import gf, integers
from ffzeta.dynamics import checked_charpoly, nk_table, system_data
from ffzeta.gf import EXT_CAP, PRIME_CAP, Field
from ffzeta.integers import factorint
from ffzeta.polycore import Domain, Poly, is_irreducible, power

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)
F7 = make_field(7)
F9 = make_field(3, 2)
M61 = make_field(2**61 - 1)  # beyond the int64 convolution guard

SMALL_FIELDS = [F2, F3, F4, F5, F7, F9]


def fpow(field, a, n):
    out = field.one
    b = a
    while n:
        if n & 1:
            out = field.mul(out, b)
        n >>= 1
        b = field.mul(b, b)
    return out


class TestMakeField:
    def test_rejects_nonprime(self):
        with pytest.raises(errors.MalformedInputError, match="^6 is not prime$"):
            make_field(6)
        with pytest.raises(errors.MalformedInputError, match="^1 is not prime$"):
            make_field(1)

    def test_rejects_bad_types(self):
        with pytest.raises(errors.MalformedInputError):
            make_field(2.0)
        with pytest.raises(errors.MalformedInputError):
            make_field(2, 0)

    @pytest.mark.parametrize("args", [(3, True), (True,), (2, False)])
    def test_rejects_bools(self, args):
        # True == 1 and hash(True) == hash(1), so the field cache would file
        # GF(3) built with e = True under the key of make_field(3)
        with pytest.raises(errors.MalformedInputError, match="must be integers"):
            make_field(*args)
        assert type(make_field(3).e) is int

    def test_prime_cap(self):
        with pytest.raises(errors.CapExceededError):
            make_field(PRIME_CAP)

    def test_extension_cap(self):
        # 2**21 > EXT_CAP, and the cap fires before any table is built
        assert 2**21 > EXT_CAP
        with pytest.raises(errors.CapExceededError):
            make_field(2, 21)

    def test_huge_extension_degree_rejected_fast(self):
        # e is checked before p**e, which would have 47 million digits here
        start = time.perf_counter()
        with pytest.raises(errors.CapExceededError):
            make_field(3, 10**8)
        assert time.perf_counter() - start < 1

    def test_extension_cap_edge(self):
        # 1031 is the least prime with p**2 > EXT_CAP; 1021 is the largest below
        assert 1021**2 <= EXT_CAP < 1031**2
        with pytest.raises(errors.CapExceededError):
            make_field(1031, 2)

    def test_default_moduli(self):
        assert F4.modulus == (1, 1, 1)
        assert F9.modulus == (1, 0, 1)

    def test_modulus_validation(self):
        with pytest.raises(errors.MalformedInputError, match="modulus is reducible"):
            make_field(2, 2, modulus=(1, 0, 1))  # (X+1)^2
        with pytest.raises(errors.MalformedInputError, match="must have degree 2, got degree 3"):
            make_field(2, 2, modulus=(1, 1, 1, 1))
        with pytest.raises(errors.MalformedInputError):
            make_field(2, 2, modulus=(1, 2, 1))
        with pytest.raises(errors.MalformedInputError):
            make_field(3, 2, modulus=(1, 0, 2))  # not monic

    @pytest.mark.parametrize("modulus", [[1.9, 0, 1], "101", [True, 0, 1]])
    def test_modulus_must_be_ints(self, modulus):
        # int() would read each of these as z^2 + 1
        with pytest.raises(errors.MalformedInputError, match="list of integers"):
            make_field(3, 2, modulus=modulus)

    def test_cached(self):
        assert make_field(7) is F7
        assert make_field(3, 2) is F9

    @pytest.mark.parametrize("modulus", [[1, 1], (2, 1), [0, 1]])
    def test_one_prime_field(self, modulus):
        """Every linear modulus gives the one GF(p), so Poly arithmetic mixes."""
        F3 = make_field(3, 1, modulus)
        assert F3 is make_field(3) and F3.modulus == (0, 1)
        x = Poly(F3, [1, 1])
        assert x * Poly(make_field(3), [2, 1]) == Poly(F3, [2, 0, 1])

    @pytest.mark.parametrize("p, e", [(2, 16), (3, 10)])
    def test_repeat_call_searches_no_modulus(self, monkeypatch, p, e):
        from ffzeta import gf

        first = make_field(p, e)
        calls = []
        real = gf.is_irreducible

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(gf, "is_irreducible", counting)
        assert make_field(p, e) is first
        assert calls == []


class TestArithmetic:
    def test_gf4_table(self):
        z = 2  # the residue of X
        assert F4.mul(z, z) == 3  # z^2 = z + 1
        assert F4.add(2, 3) == 1  # char 2: addition is xor of digit vectors
        assert F4.mul(3, 3) == 2  # (z+1)^2 = z^2 + 1 = z
        assert F4.inv(2) == 3

    def test_gf9_table(self):
        z = 3
        assert F9.mul(z, z) == 2  # z^2 = -1
        assert fpow(F9, z, 4) == 1
        assert elem_order(F9, z) == 4

    @pytest.mark.parametrize("field", SMALL_FIELDS + [M61])
    def test_axioms_spot(self, field):
        q = field.q
        xs = [0, 1, q - 1, q // 2, min(2, q - 1)]
        for a in xs:
            for b in xs:
                assert field.add(a, b) == field.add(b, a)
                assert field.mul(a, b) == field.mul(b, a)
                assert field.sub(a, b) == field.add(a, field.neg(b))
                for c in xs:
                    lhs = field.mul(a, field.add(b, c))
                    rhs = field.add(field.mul(a, b), field.mul(a, c))
                    assert lhs == rhs
                if b:
                    assert field.mul(field.div(a, b), b) == a

    @pytest.mark.parametrize("field", SMALL_FIELDS)
    def test_fermat(self, field):
        for a in range(1, field.q):
            assert fpow(field, a, field.q - 1) == 1


def digits(field, a):
    return [a // field.p**i % field.p for i in range(field.e)]


def from_digits(field, ds):
    return sum(d % field.p * field.p**i for i, d in enumerate(ds))


def digit_add(field, a, b, sign=1):
    """a + sign * b, one base-p digit at a time."""
    pairs = zip(digits(field, a), digits(field, b))
    return from_digits(field, [x + sign * y for x, y in pairs])


def poly_mul(field, a, b):
    """a * b as Poly arithmetic over GF(p) mod the field's modulus."""
    base = make_field(field.p)
    r = Poly(base, digits(field, a)) * Poly(base, digits(field, b))
    return from_digits(field, (r % Poly(base, field.modulus)).coeffs)


class TestScalarAddition:
    """add, sub and neg against base-p digit arithmetic written here."""

    FIELDS = [F4, F9, make_field(5, 3), make_field(7, 2), make_field(3, 10)]

    def pairs(self, field):
        rng = random.Random(f"scalar-add/{field.q}")
        out = []
        for _ in range(200):
            a = rng.randrange(1, field.q)
            # a = 0, b = 0, b = -a (the Zech "zero" entry), a = b, random
            minus_a = from_digits(field, [-d for d in digits(field, a)])
            out += [(0, a), (a, 0), (a, minus_a), (a, a), (a, rng.randrange(field.q))]
        return out + [(0, 0)]

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_matches_digit_reference(self, field):
        for a, b in self.pairs(field):
            assert field.add(a, b) == digit_add(field, a, b)
            assert field.sub(a, b) == digit_add(field, a, b, -1)
            assert field.neg(a) == digit_add(field, 0, a, -1)

    @pytest.mark.parametrize("field", [F4, F9], ids=repr)
    def test_exhaustive_small(self, field):
        for a in range(field.q):
            for b in range(field.q):
                assert field.add(a, b) == digit_add(field, a, b)
                assert field.sub(a, b) == digit_add(field, a, b, -1)


class TestPolyAddition:
    """poly_add, poly_sub and poly_neg against coefficient-wise references."""

    FIELDS = [F2, F7, F4, F9, make_field(3, 10), M61]

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    @settings(max_examples=30)
    @given(data=st.data())
    def test_matches_reference(self, field, data):
        xs = data.draw(st.lists(felems(field), max_size=300))
        ys = data.draw(st.lists(felems(field), max_size=300))
        n = max(len(xs), len(ys))
        a = xs + [0] * (n - len(xs))
        b = ys + [0] * (n - len(ys))
        assert field.poly_add(xs, ys) == [digit_add(field, x, y) for x, y in zip(a, b)]
        assert field.poly_sub(xs, ys) == [
            digit_add(field, x, y, -1) for x, y in zip(a, b)
        ]
        assert field.poly_neg(xs) == [digit_add(field, 0, x, -1) for x in xs]
        assert field.poly_add(xs, field.poly_neg(xs)) == [0] * len(xs)


class TestOrders:
    def test_elem_order_frozen(self):
        assert elem_order(F7, 3) == 6
        assert elem_order(F7, 6) == 2
        assert elem_order(F7, 2) == 3
        assert elem_order(F7, 1) == 1

    def test_elem_order_errors(self):
        with pytest.raises(errors.MalformedInputError, match="zero has no multiplicative order"):
            elem_order(F7, 0)
        with pytest.raises(errors.MalformedInputError):
            elem_order(F7, 7)

    @pytest.mark.parametrize("field", SMALL_FIELDS)
    def test_elem_order_minimal(self, field):
        for a in range(1, field.q):
            n = elem_order(field, a)
            assert (field.q - 1) % n == 0
            assert fpow(field, a, n) == 1
            for r in factorint(n):
                assert fpow(field, a, n // r) != 1

    def test_order_of_root_frozen(self):
        x_minus = lambda f, a: Poly(f, [f.neg(a), f.one])
        assert order_of_root(F7, x_minus(F7, 3)) == 6
        assert order_of_root(F7, x_minus(F7, 6)) == 2
        assert order_of_root(F7, x_minus(F7, 2)) == 3
        assert order_of_root(F2, Poly(F2, [1, 1])) == 1
        assert order_of_root(F2, Poly(F2, [1, 1, 1])) == 3
        assert order_of_root(F3, Poly(F3, [1, 1])) == 2

    def test_order_of_root_errors(self):
        with pytest.raises(errors.MalformedInputError, match="constant polynomials have no roots"):
            order_of_root(F2, Poly(F2, [1]))
        with pytest.raises(errors.MalformedInputError, match="the root of X is zero"):
            order_of_root(F2, Poly(F2, [0, 1]))
        with pytest.raises(errors.MalformedInputError, match="X divides the polynomial"):
            order_of_root(F2, Poly(F2, [0, 1, 1]))  # X(X+1)
        with pytest.raises(errors.MalformedInputError, match="^polynomial is reducible$"):
            order_of_root(F2, Poly(F2, [1, 0, 1]))  # (X+1)^2

    @pytest.mark.parametrize(
        "field", [F2, F3, make_field(1048573), M61, make_field(2, 16), make_field(3, 10)]
    )
    def test_order_of_root_is_minimal(self, field):
        """Every irreducible of degree <= 2 with a nonzero root over GF(2)
        and GF(3), and one random irreducible of each degree 2..5 over the
        larger fields (2..4 over 2^61 - 1, whose q^5 - 1 is past the rho
        budget).  X is powered by Poly arithmetic mod f, not by modpow,
        which order_of_root runs on."""
        one = Poly.const(field, field.one)

        def wanted(f):
            return f.coeff(0) and is_irreducible(field, f)

        if field.q <= 3:
            polys = [
                Poly(field, [packed // field.q**i % field.q for i in range(deg)] + [1])
                for deg in (1, 2)
                for packed in range(field.q**deg)
            ]
            polys = [f for f in polys if wanted(f)]
        else:
            rng, polys = random.Random(field.q), []
            for deg in range(2, 5 if field is M61 else 6):
                f = None
                while f is None or not wanted(f):
                    f = Poly(field, [rng.randrange(field.q) for _ in range(deg)] + [1])
                polys.append(f)
        for f in polys:
            n = order_of_root(field, f)
            group = field.q**f.degree - 1
            fac = integers.factor_group_order(field.q, f.degree)
            assert math.prod(ell**k for ell, k in fac.items()) == group
            assert group % n == 0

            def x_pow(k):
                return power(Poly.x(field) % f, k, lambda a, b: (a * b) % f, one)

            assert x_pow(n) == one
            for ell in fac:
                if n % ell == 0:
                    assert x_pow(n // ell) != one


def test_factorint_frozen():
    assert factorint(360) == {2: 3, 3: 2, 5: 1}
    assert factorint(10403) == {101: 1, 103: 1}
    assert factorint(97) == {97: 1}
    assert factorint(1) == {}
    # prime squares and cubes above the trial-division bound
    assert factorint(65537**3) == {65537: 3}
    assert factorint(65539**2 * 65543) == {65539: 2, 65543: 1}
    assert factorint(2**64 + 1) == {274177: 1, 67280421310721: 1}


def test_factorint_rho_budget(monkeypatch):
    n = 4294967311 * 4294967357  # rho needs about 2**16 steps
    assert factorint(n) == {4294967311: 1, 4294967357: 1}
    monkeypatch.setattr(integers, "RHO_BUDGET", 64)
    with pytest.raises(errors.CapExceededError, match="Pollard rho"):
        factorint(n)


@pytest.mark.parametrize("p,e", [(2, 2), (3, 2), (2, 8), (3, 5), (5, 3), (7, 2)])
def test_tables_are_sequential_powers(p, e):
    """The tables equal the powers of _exp[1] one by one."""
    field = make_field(p, e)
    g = field._exp[1]
    powers = [1]
    for _ in range(field.q - 2):
        powers.append(poly_mul(field, powers[-1], g))
    assert poly_mul(field, powers[-1], g) == 1
    assert field._exp == powers
    assert len(field._log) == field.q
    assert all(field._log[v] == i for i, v in enumerate(powers))
    if p != 2:
        # Zech logs: 1 + g^i = g^Z(i), and no Z(i) where 1 + g^i = 0
        assert len(field._zech) == field.q - 1
        for z, g_i in zip(field._zech, powers):
            one_plus = digit_add(field, 1, g_i)
            assert one_plus if z is not None else not one_plus
            assert z is None or powers[z] == one_plus


class TestEdgeFields:
    """Extension fields at the EXT_CAP edge: 2^20, 1021^2 and 3^12."""

    @pytest.fixture(
        scope="class",
        params=[(2, 20), (1021, 2), (3, 12)],
        ids=lambda pe: f"GF({pe[0]}^{pe[1]})",
    )
    def field(self, request):
        p, e = request.param
        # built outside the make_field cache, so the tables are freed after
        return Field(p, e, gf._default_modulus(p, e))

    def test_log_inverts_exp(self, field):
        exp, log = field._exp, field._log
        assert len(exp) == field.q - 1 and len(log) == field.q
        assert all(log[v] == i for i, v in enumerate(exp))
        assert 0 not in exp

    def test_exp_steps_by_generator(self, field):
        rng = random.Random(f"edge-steps/{field.q}")
        g = field._exp[1]
        for i in [0, field.q - 2] + rng.sample(range(field.q - 1), 300):
            nxt = field._exp[(i + 1) % (field.q - 1)]
            assert poly_mul(field, field._exp[i], g) == nxt

    def test_zech_adds_one(self, field):
        if field.p == 2:
            assert not hasattr(field, "_zech")
            return
        n = field.q - 1
        rng = random.Random(f"edge-zech/{field.q}")
        assert field._zech[n // 2] is None
        for i in [0, n - 1] + rng.sample(range(n), 300):
            if i != n // 2:
                want = digit_add(field, 1, field._exp[i])
                assert field._exp[field._zech[i]] == want

    def test_mul_inv_match_raw_mul(self, field):
        rng = random.Random(f"edge-mul/{field.q}")
        for _ in range(300):
            a, b = rng.randrange(1, field.q), rng.randrange(field.q)
            assert field.mul(a, b) == poly_mul(field, a, b)
            assert poly_mul(field, a, field.inv(a)) == 1


# every kind of Kronecker layout: p = 2 (parity by bytes.translate), small,
# 20-bit and word-sized primes, and extension fields of 2 to 16 digits; 61
# and 4093 put the 2^16 and 2^32 steps of the slot sums at short lengths,
# and with 2-byte slots 127 is reduced by bytes.translate (2 * 126 < 256)
# and 131 slot by slot
KRON_FIELDS = [
    F2, F3, F7, make_field(61), make_field(127), make_field(131),
    make_field(4093), make_field(1048573), make_field(2**31 - 1), M61,
    F4, F9, make_field(2, 16), make_field(3, 10),
]


def slot_crossings(field, limit=320):
    """Shorter lengths n <= limit at which the widest sub-slot sum of a
    product of all-(q - 1) operands, n * terms * (p - 1)^2, first needs
    another byte, with the n just below each."""
    per_pair = field._slot_terms * (field.p - 1) ** 2
    out = set()
    for bits in range(8, 137, 8):
        n = (2**bits - 1) // per_pair  # the longest that still fits
        out.update(m for m in (n, n + 1) if 1 <= m <= limit)
    return sorted(out)


class TestBulkKernels:
    """The bulk polynomial kernels must match the generic ones."""

    FIELDS = KRON_FIELDS

    @pytest.mark.parametrize("field", FIELDS)
    @settings(max_examples=40)
    @given(data=st.data())
    def test_mul(self, field, data):
        a = data.draw(st.lists(felems(field), min_size=0, max_size=80))
        b = data.draw(st.lists(felems(field), min_size=0, max_size=80))
        assert field.poly_mul(a, b) == Domain.poly_mul(field, a, b)

    @pytest.mark.parametrize("field", KRON_FIELDS)
    def test_mul_shapes(self, field):
        # balanced up to 300, and 1 x n, 2 x n on both sides; the Kronecker
        # product is checked on its own too, where poly_mul would not use it
        rng = random.Random(field.q)
        shapes = [(n, n) for n in (2, 3, 5, 8, 13, 24, 40, 64, 100, 170, 300)]
        shapes += [(k, n) for k in (1, 2) for n in (2, 7, 30, 64, 150, 300)]
        shapes += [(n, k) for k, n in shapes if k != n]
        for la, lb in shapes:
            a = [rng.randrange(field.q) for _ in range(la)]
            b = [rng.randrange(field.q) for _ in range(lb)]
            want = Domain.poly_mul(field, a, b)
            assert field.poly_mul(a, b) == want, (la, lb)
            assert field._kron_mul(a, b) == want, (la, lb)

    @pytest.mark.parametrize("field", KRON_FIELDS)
    def test_mul_full_slots(self, field):
        # all digits p - 1 reach the sub-slot bound exactly, on both sides
        # of each byte-width step
        top = field.q - 1
        for n in slot_crossings(field):
            for la, lb in ((n, n), (n, n + 3)):
                a, b = [top] * la, [top] * lb
                want = Domain.poly_mul(field, a, b)
                assert field._kron_mul(a, b) == want, (la, lb)
                assert field.poly_mul(a, b) == want, (la, lb)

    def test_slot_crossings_cover_the_widths(self):
        # the lengths above step over 2^8, 2^16, 2^32 and 2^64 somewhere
        steps = set()
        for field in KRON_FIELDS:
            per_pair = field._slot_terms * (field.p - 1) ** 2
            for n in slot_crossings(field):
                low, high = n * per_pair, (n + 1) * per_pair
                steps.update(b for b in (8, 16, 32, 64) if low < 2**b <= high)
        assert steps == {8, 16, 32, 64}

    @pytest.mark.parametrize(
        "field", [F2, F7, M61, F4, F9, make_field(2, 16), make_field(3, 10)]
    )
    @given(data=st.data())
    def test_mulmod(self, field, data):
        # operands of any length up to 70, long ones by the Kronecker
        # product where poly_mul would take it, zeros and empty ones too
        m = data.draw(st.sampled_from([1, 2, 5, 8]))
        fs = data.draw(st.lists(felems(field), min_size=m, max_size=m)) + [1]
        elems = st.one_of(st.just(0), felems(field))
        a = data.draw(st.lists(elems, max_size=70))
        b = data.draw(st.lists(elems, max_size=70))
        want = Domain.poly_mulmod(field, a, b, fs)
        assert field.poly_mulmod(a, b, fs) == want
        assert len(want) <= m and (not want or want[-1] != 0)

    @pytest.mark.parametrize("field", [F5, F9])
    @given(data=st.data())
    def test_divmod_reconstructs(self, field, data):
        f = data.draw(st.lists(felems(field), min_size=0, max_size=30))
        g = data.draw(
            st.lists(felems(field), min_size=1, max_size=8).filter(
                lambda cs: cs[-1] != 0
            )
        )
        quo, rem = field.poly_divmod(f, g)
        back = field.poly_add(field.poly_mul(list(quo), g), list(rem))
        assert Poly(field, list(back)) == Poly(field, f)
        assert Poly(field, list(rem)).degree < Poly(field, g).degree


class TestFieldProductsStayInTheField:
    """No field product reaches the generic ``Domain.poly_mul`` loop."""

    @staticmethod
    def system(field):
        """A 3 x 3 system whose t^3 coefficient matrix is singular, so that
        nk_table takes a determinant over F[s]/(s^N) at most k."""
        rng = random.Random(1)

        def entry(top):
            return Poly(field, [rng.randrange(field.q) for _ in range(3)] + top)

        A = [[entry([]) for _ in range(3)] for _ in range(3)]
        A[0][0] = entry([1])
        return A

    @pytest.mark.parametrize("field", [F7, F9, make_field(2, 16)], ids=repr)
    def test_routes_run_without_the_generic_product(self, field, monkeypatch):
        A = self.system(field)
        want = (checked_charpoly(field, A), nk_table(field, A, 6))

        def generic(dom, xs, ys):
            raise AssertionError(f"generic poly_mul reached over {dom!r}")

        monkeypatch.setattr(Domain, "poly_mul", generic)
        assert checked_charpoly(field, A) == want[0]
        assert system_data(field, A).P == want[0]
        assert nk_table(field, A, 6) == want[1]


def test_tpoly_builder_consistency():
    # the packed-int convention used across the suite
    f = tpoly(F4, 2, 3, 1)
    assert f.degree == 2 and f.coeffs == (2, 3, 1)
