"""Finite field construction, arithmetic, and multiplicative orders."""

import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import felems, tpoly
from ffzeta import elem_order, errors, make_field, order_of_root
from ffzeta import gf, integers
from ffzeta.dynamics import checked_charpoly, fixed_points_smith, nk_table, system_data
from ffzeta.gf import EXT_CAP, PRIME_CAP, Field
from ffzeta.integers import factorint
from ffzeta.polycore import Domain, Poly, PolyRing, is_irreducible, modpow, power

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
                    assert field.mul(field.exact_div(a, b), b) == a

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


def poly_pow_mod(f):
    """(y, k) -> y^k mod f by Poly products and remainders: a reference
    that shares no code with the residue kernel of ``modpow``."""
    one = Poly.const(f.dom, f.dom.one)
    return lambda y, k: power(y, k, lambda a, b: (a * b) % f, one)


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
            x, x_pow = Poly.x(field) % f, poly_pow_mod(f)
            assert x_pow(x, n) == one
            for ell in fac:
                if n % ell == 0:
                    assert x_pow(x, n // ell) != one


    @pytest.mark.parametrize(
        "field, deltas, norm_read",
        [
            (F2, range(2, 7), False),
            (F3, [2], False),
            (F4, range(2, 7), True),
            (make_field(2, 16), range(2, 7), True),
            (make_field(1048573), range(2, 7), True),
            (M61, range(2, 5), True),
        ],
        ids=["GF(2)", "GF(3)", "GF(4)", "GF(2^16)", "GF(1048573)", "GF(2^61-1)"],
    )
    def test_root_order_matches_full_descent(self, field, deltas, norm_read):
        """_root_order reads the primes of q - 1 that do not divide
        M = (q^delta - 1) / (q - 1) off the norm in GF(q); the full descent
        from X over every prime of q^delta - 1 is the reference.  Over
        GF(2) q - 1 = 1, and over GF(3) with delta = 2 the prime 2 of q - 1
        divides M = 4, so nothing is read off the norm there; every other
        field reads some prime off it.  q^5 - 1 and q^6 - 1 over 2^61 - 1
        are past the rho budget.  The reference powers by Poly arithmetic
        mod f, not by the residue kernel that _root_order runs on."""
        rng, q = random.Random(field.q), field.q
        one = Poly.const(field, field.one)
        read = False
        for delta in deltas:
            fac = integers.factor_group_order(q, delta)
            M = (q**delta - 1) // (q - 1)
            scalar = [ell for ell in fac if M % ell]
            assert len(scalar) < len(fac)
            read = read or bool(scalar)
            for _ in range(3):
                f = None
                while f is None or not is_irreducible(field, f):
                    f = Poly(field, [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(delta - 1)] + [1])
                descent = gf._order_from(fac, Poly.x(field), poly_pow_mod(f), one)
                assert gf._root_order(field, f) == descent
        assert read == norm_read

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
# and 131 by the Barrett pass; the digits of GF(2^k) and GF(3^k) take
# bytes.translate, those of GF(257^2) the Barrett pass
KRON_FIELDS = [
    F2, F3, F7, make_field(61), make_field(127), make_field(131),
    make_field(4093), make_field(1048573), make_field(2**31 - 1), M61,
    F4, F9, make_field(2, 16), make_field(3, 10), make_field(257, 2),
]


class TestModSlots:
    """``gf._mod_slots`` on both sides of its rule: bytes.translate for
    width * (p - 1) < 256, the Barrett pass of ``_divmod_slots`` else."""

    @pytest.mark.parametrize(
        "p, width",
        [
            (3, 127), (3, 128), (127, 2), (127, 3), (257, 1),
            (2**61 - 1, 16), (2**61 - 1, 17), (2**63 - 25, 16), (2**63 - 25, 17),
        ],
    )
    def test_matches_slotwise_mod(self, p, width):
        # all-0xff slots, slots whose byte k has the largest b 256^k mod p
        # (the byte-table sums at their bound) and random ones, at an offset
        # in strides with 0xff between them; every cell from the least that
        # holds p - 1 up to the width
        rng = random.Random(p * width)
        top = bytes(
            max(range(256), key=lambda b: b * pow(256, k, p) % p) for k in range(width)
        )
        slots = [b"\xff" * width, top] * 3 + [rng.randbytes(width) for _ in range(10)]
        at, stride = 3, width + 5
        buf = bytearray(b"\xff" * (len(slots) * stride))
        for i, slot in enumerate(slots):
            buf[at + i * stride : at + i * stride + width] = slot
        want = [int.from_bytes(slot, "little") % p for slot in slots]
        least = -(-(p - 1).bit_length() // 8)
        for cell in range(least, max(least, width) + 1):
            got = gf._mod_slots(bytes(buf), len(slots), at, stride, width, p, cell)
            assert got == sum(v << 8 * cell * i for i, v in enumerate(want)), cell


    @pytest.mark.parametrize(
        "p, bits",
        [(2, 8), (3, 8), (131, 16), (257, 8), (1048573, 48), (2**61 - 1, 136), (2**63 - 25, 128)],
    )
    def test_divmod_slots_at_the_cell_edge(self, p, bits):
        # cells of exactly _barrett_cell(bits) bytes, the fewest its proof
        # allows: values 2^bits - 1 (the largest product with mu), the
        # multiples of p and their neighbours at the top, and random ones
        width, rng = gf._barrett_cell(bits), random.Random(p * bits)
        top = (1 << bits) - 1
        k = top // p
        vals = [v for v in (top, k * p, k * p - 1, k * p - p, p - 1, 0, top - 1) if 0 <= v <= top]
        vals += [rng.getrandbits(bits) for _ in range(20)]
        x = sum(v << 8 * width * i for i, v in enumerate(vals))
        quo, rem = gf._divmod_slots(x, len(vals), width, bits, p)
        assert quo == sum(v // p << 8 * width * i for i, v in enumerate(vals))
        assert rem == sum(v % p << 8 * width * i for i, v in enumerate(vals))


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


def dot_reference(field, pairs):
    """The sum of xs * ys over the pairs by the generic ``Domain`` loops,
    one scalar add and mul per term: the reference for ``poly_dot``."""
    out = []
    for xs, ys in pairs:
        out = Domain.poly_add(field, out, Domain.poly_mul(field, xs, ys))
    return out


def mulmod_reference(field, xs, ys, fs):
    """xs * ys mod the monic fs, with no trailing zeros, by the generic
    ``Domain`` loops: the reference for the product of ``residue_ops``."""
    rem = Domain.poly_divmod(field, Domain.poly_mul(field, xs, ys), fs)[1]
    while rem and not rem[-1]:
        rem.pop()
    return rem


class TestReferencesAreScalarLoops:
    """The references that ``TestBulkKernels`` checks the field's kernels
    against reach none of them: ``Domain`` has only the five generic
    loops, and over a field each runs on the scalar operations."""

    GENERIC = ["poly_add", "poly_divmod", "poly_mul", "poly_neg", "poly_sub"]

    @pytest.mark.parametrize("field", [F7, F9, make_field(2, 16)], ids=repr)
    def test_no_field_kernel_reached(self, field, monkeypatch):
        rng = random.Random(field.q)
        edge = max(math.isqrt(field._kron_pairs - 1) + 1, field.e + 1)

        def side(n):
            low = [rng.randrange(field.q) for _ in range(n - 1)]
            return low + [rng.randrange(1, field.q)]

        # short pairs and pairs past the Kronecker rule, nonzero leads;
        # the last pair are residues mod fs
        pairs = [(side(n), side(n + 3)) for n in (1, 4, edge, 2 * edge)]
        xs, ys = pairs[-1]
        fs = side(len(ys)) + [1]
        for name in ("_kron_dot", "_short_mul", "poly_divmod"):

            def refuse(*args, name=name):
                raise AssertionError(f"{name} reached by a reference")

            monkeypatch.setattr(Field, name, refuse)
        assert sorted(n for n in vars(Domain) if n.startswith("poly_")) == self.GENERIC
        for name in self.GENERIC:
            getattr(Domain, name)(field, *((xs,) if name == "poly_neg" else (xs, ys)))
        want = dot_reference(field, pairs), mulmod_reference(field, xs, ys, fs)
        monkeypatch.undo()
        pack, mul, unpack = field.residue_ops(fs)
        assert want == (field.poly_dot(pairs), unpack(mul(pack(xs), pack(ys))))


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
        # product of the one pair is checked on its own too, where poly_mul
        # would not use it
        rng = random.Random(field.q)
        shapes = [(n, n) for n in (2, 3, 5, 8, 13, 24, 40, 64, 100, 170, 300)]
        shapes += [(k, n) for k in (1, 2) for n in (2, 7, 30, 64, 150, 300)]
        shapes += [(n, k) for k, n in shapes if k != n]
        for la, lb in shapes:
            a = [rng.randrange(field.q) for _ in range(la)]
            b = [rng.randrange(field.q) for _ in range(lb)]
            want = Domain.poly_mul(field, a, b)
            assert field.poly_mul(a, b) == want, (la, lb)
            assert field._kron_dot([(a, b)]) == want, (la, lb)

    @pytest.mark.parametrize("field", KRON_FIELDS)
    def test_mul_full_slots(self, field):
        # all digits p - 1 reach the sub-slot bound exactly, on both sides
        # of each byte-width step
        top = field.q - 1
        for n in slot_crossings(field):
            for la, lb in ((n, n), (n, n + 3)):
                a, b = [top] * la, [top] * lb
                want = Domain.poly_mul(field, a, b)
                assert field._kron_dot([(a, b)]) == want, (la, lb)
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

    @pytest.mark.parametrize("field", KRON_FIELDS)
    @settings(max_examples=40)
    @given(data=st.data())
    def test_dot(self, field, data):
        # 1 to 10 pairs, with sides of 1 to 12 coefficients or of just past
        # the square root of the Kronecker rule's pair count, so that short
        # and long pairs mix; no zeros, half zeros or nine in ten zeros
        edge = math.isqrt(field._kron_pairs - 1) + 1
        pairs = []
        for _ in range(data.draw(st.integers(1, 10))):
            lo = data.draw(st.sampled_from([1, edge]))
            zeros = data.draw(st.sampled_from([0, 0.5, 0.9]))
            rng = random.Random(data.draw(st.integers(0, 2**32)))

            def side():
                n = rng.randint(lo, lo + 11)
                draw = [rng.randrange(field.q) for _ in range(n)]
                return [0 if rng.random() < zeros else c for c in draw]

            pairs.append((side(), side()))
        assert field.poly_dot(pairs) == dot_reference(field, pairs)

    @pytest.mark.parametrize("field", [F7, F9, make_field(2, 16), M61], ids=repr)
    def test_dot_full_slots(self, field):
        # 8 long pairs of all digits p - 1, at the least length n where the
        # slots of one such pair are a byte narrower than those of the sum
        # of all 8: a slot width sized for one pair overflows here
        per_pair = field._slot_terms * (field.p - 1) ** 2

        def width(m):
            return -(-(m * per_pair).bit_length() // 8)

        n = max(math.isqrt(field._kron_pairs - 1) + 1, field.e + 1)
        while width(n) == width(8 * n):
            n += 1
        top = field.q - 1
        pairs = [([top] * (n + i), [top] * (n + 7 - i)) for i in range(8)]
        assert all(field._long(*pair) for pair in pairs)
        assert field.poly_dot(pairs) == dot_reference(field, pairs)

    @pytest.mark.parametrize("field", KRON_FIELDS)
    @settings(max_examples=40)
    @given(data=st.data())
    def test_mulmod(self, field, data):
        # the residue product mod a monic of degree 1 to 16, on residues
        # of any length up to it, zero-heavy and zero ones too
        m = data.draw(st.sampled_from([1, 2, 5, 8, 14, 16]))
        fs = data.draw(st.lists(felems(field), min_size=m, max_size=m)) + [1]
        elems = st.one_of(st.just(0), felems(field))
        residues = st.lists(elems, max_size=m).map(lambda xs: list(Poly(field, xs).coeffs))
        a, b = data.draw(residues), data.draw(residues)
        pack, mul, unpack = field.residue_ops(fs)
        want = mulmod_reference(field, a, b, fs)
        assert unpack(mul(pack(a), pack(b))) == want
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

    @pytest.mark.parametrize("field", KRON_FIELDS)
    @given(data=st.data())
    def test_divmod(self, field, data):
        # divisors of degree 0 to 8 with any nonzero lead, dividends of
        # length 0 to 70, zero-heavy ones and ones shorter than the divisor
        m = data.draw(st.integers(0, 8))
        ys = data.draw(st.lists(felems(field), min_size=m, max_size=m))
        ys.append(data.draw(st.integers(1, field.q - 1)))
        xs = data.draw(st.lists(st.one_of(st.just(0), felems(field)), max_size=70))
        assert field.poly_divmod(xs, ys) == Domain.poly_divmod(field, xs, ys)


# p = 2 and 3, a small and a 20-bit prime, 2^61 - 1, and the largest
# prime below PRIME_CAP, whose slots are the widest
EDGE_PRIMES = [2, 3, 7, 1048573, 2**61 - 1, PRIME_CAP - 25]


def modpow_reference(field, xs, n, fs):
    """xs^n mod the monic fs by square-and-multiply on ``mulmod_reference``,
    the generic ``Domain`` loops: the reference for ``modpow``."""
    out, x = [field.one], mulmod_reference(field, xs, [field.one], fs)
    while n:
        if n & 1:
            out = mulmod_reference(field, out, x, fs)
        n >>= 1
        if n:
            x = mulmod_reference(field, x, x, fs)
    return out


# odd p, e >= 2: the residues of ``residue_ops`` are lists of logs; F9
# first, so that ODD_EXT[1:] extends lists that hold it already
ODD_EXT = [F9, make_field(5, 3), make_field(3, 10), make_field(257, 2)]


class TestResidueOps:
    """``Field.residue_ops`` and ``modpow``, which powers on it, against
    references built from ``Domain.poly_mul`` and ``Domain.poly_divmod``
    called on the field."""

    def test_edge_prime_is_the_largest_below_the_cap(self):
        assert integers.is_prime(PRIME_CAP - 25)
        assert not any(integers.is_prime(n) for n in range(PRIME_CAP - 24, PRIME_CAP))

    @pytest.mark.parametrize(
        "field",
        [make_field(p) for p in EDGE_PRIMES] + [F4, F9, make_field(2, 16)] + ODD_EXT[1:],
        ids=lambda field: repr(field) if field.e > 1 else str(field.p),
    )
    def test_mul(self, field):
        # moduli of degree 1 to 8 and 16: random, and with every low
        # coefficient q - 1 or 1; residues random, all q - 1 (full slots
        # over a prime field), zero, one and a monomial.  At degree 16 the
        # random and full residues over GF(4) and GF(9) pass the Kronecker
        # rule, which no CLI residue reaches.
        q = field.q
        rng = random.Random(f"residue-mul/{q}")
        assert field.e != 2 or field._long([q - 1] * 16, [q - 1] * 16)
        for m in [*range(1, 9), 16]:
            sides = [
                [rng.randrange(q) for _ in range(m - 1)] + [rng.randrange(1, q)],
                [q - 1] * m, [], [1],
                [0] * (m - 1) + [rng.randrange(1, q)],
            ]
            moduli = [[rng.randrange(q) for _ in range(m)] + [1], [q - 1] * m + [1], [1] * (m + 1)]
            for fs in moduli:
                pack, mul, unpack = field.residue_ops(fs)
                for xs in sides:
                    assert unpack(pack(xs)) == mulmod_reference(field, xs, [1], fs)
                    for ys in sides:
                        got = unpack(mul(pack(xs), pack(ys)))
                        assert got == mulmod_reference(field, xs, ys, fs), (m, fs, xs, ys)

    @pytest.mark.parametrize("p, top", [(2, 4), (3, 3)])
    def test_mul_every_residue(self, p, top):
        # every monic modulus of degree up to top and every pair of residues
        field = make_field(p)
        for m in range(1, top + 1):
            residues = [[r // p**i % p for i in range(m)] for r in range(p**m)]
            for fs in residues:
                pack, mul, unpack = field.residue_ops(fs + [1])
                for xs, ys in itertools.product(residues, repeat=2):
                    want = mulmod_reference(field, xs, ys, fs + [1])
                    assert unpack(mul(pack(xs), pack(ys))) == want

    @pytest.mark.parametrize(
        "field", [make_field(p) for p in EDGE_PRIMES] + [F4, F9, make_field(5, 3)], ids=repr
    )
    def test_modpow(self, field):
        # exponents 0, 1, 2, q, q^m - 1 and a 256-bit one, on a base that
        # needs reducing, full slots and zero, mod a random monic of each
        # degree 1 to 8
        q, rng = field.q, random.Random(f"residue-modpow/{field.q}")
        for m in range(1, 9):
            fs = [rng.randrange(q) for _ in range(m)] + [1]
            for xs in ([rng.randrange(q) for _ in range(m + 2)], [q - 1] * m, []):
                for n in (0, 1, 2, q, q**m - 1, rng.getrandbits(256) | 1 << 255):
                    got = modpow(Poly(field, xs), n, Poly(field, fs))
                    assert got == Poly(field, modpow_reference(field, xs, n, fs)), (m, xs, n)

    @pytest.mark.parametrize("field", [F7, make_field(1048573), M61], ids=repr)
    def test_prime_fields_power_on_ints_alone(self, field, monkeypatch):
        """With ``poly_mul``, ``_short_mul`` and ``_kron_dot``, the
        kernels of the e >= 2 residue product, patched to raise, ``modpow``
        and ``_root_order`` over a prime field still give the answers of
        Poly arithmetic, computed before the patch."""
        rng, q = random.Random(f"residue-contract/{field.q}"), field.q
        cases = []
        for delta in (2, 3, 4):
            f = None
            while f is None or not is_irreducible(field, f):
                low = [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(delta - 1)]
                f = Poly(field, low + [1])
            fac = integers.factor_group_order(q, delta)
            pw, one = poly_pow_mod(f), Poly.const(field, field.one)
            base = Poly(field, [rng.randrange(q) for _ in range(delta)])
            n = rng.getrandbits(256)
            order = gf._order_from(fac, Poly.x(field), pw, one)
            cases.append((f, base, n, order, pw(base, n)))

        def refuse(*args):
            raise AssertionError("a list kernel reached by prime-field powering")

        for name in ("poly_mul", "_short_mul", "_kron_dot"):
            monkeypatch.setattr(Field, name, refuse)
        for f, base, n, order, want in cases:
            assert gf._root_order(field, f) == order
            assert modpow(base, n, f) == want

    @pytest.mark.parametrize("field", ODD_EXT, ids=repr)
    def test_odd_extension_fields_multiply_in_logs(self, field, monkeypatch):
        """With ``Field.add``, ``poly_mul`` and ``poly_divmod`` patched to
        raise, the residue product over odd p, e >= 2 still gives
        ``mulmod_reference``'s answers, and ``modpow`` and ``_root_order``
        those of Poly arithmetic, all computed before the patch."""
        rng, q = random.Random(f"log-contract/{field.q}"), field.q
        products, powers = [], []
        for delta in (2, 3, 4):
            f = None
            while f is None or not is_irreducible(field, f):
                low = [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(delta - 1)]
                f = Poly(field, low + [1])
            fs = list(f.coeffs)
            for _ in range(20):
                xs, ys = (list(Poly(field, [rng.randrange(q) for _ in range(delta)]).coeffs)
                          for _ in range(2))
                products.append((fs, xs, ys, mulmod_reference(field, xs, ys, fs)))
            fac = integers.factor_group_order(q, delta)
            pw, one = poly_pow_mod(f), Poly.const(field, field.one)
            base = Poly(field, [rng.randrange(q) for _ in range(delta)])
            n = rng.getrandbits(128)
            order = gf._order_from(fac, Poly.x(field), pw, one)
            powers.append((f, base, n, order, pw(base, n)))

        def refuse(*args):
            raise AssertionError("a list kernel reached by the log-domain product")

        for name in ("add", "poly_mul", "poly_divmod"):
            monkeypatch.setattr(Field, name, refuse)
        for fs, xs, ys, want in products:
            pack, mul, unpack = field.residue_ops(fs)
            assert unpack(mul(pack(xs), pack(ys))) == want
        for f, base, n, order, want in powers:
            assert gf._root_order(field, f) == order
            assert modpow(base, n, f) == want

    @pytest.mark.parametrize("field", ODD_EXT, ids=repr)
    def test_sums_reaching_the_zech_zero(self, field):
        """Coefficient sums a + (-a), 1 + g^(n/2) = 0, where Z is None: in
        the schoolbook rows, then added to again, in the fold, and in
        products that reduce to the zero residue and to one.  The moduli
        need not be irreducible."""
        n = field.q - 1
        minus_one = field._exp[n // 2]
        assert field._zech[n // 2] is None and field.add(1, minus_one) == 0
        rng = random.Random(f"zech-zero/{field.q}")
        for _ in range(10):
            a, c = rng.randrange(1, field.q), rng.randrange(1, field.q)
            ma, ci = field.neg(a), field.inv(c)
            cases = [
                # (X - a)(X + a) = X^2 - a^2 = 0 mod X^2 - a^2
                ([field.neg(field.mul(a, a)), 0, 1], [ma, 1], [a, 1], []),
                # X (X / c) = X^2 / c = 1 mod X^2 - c
                ([field.neg(c), 0, 1], [0, 1], [0, ci], [1]),
                # (1 + X + X^2)(1 - X + X^2) = 1 + X^2 + X^4: X^1 and X^3
                # cancel, X^2 cancels and is added to again
                ([1, 0, 0, 0, 0, 1], [1, 1, 1], [1, minus_one, 1], [1, 0, 1, 0, 1]),
                # X^2 (X^2 - a) = X^4 - a X^2 = -a^2 mod X^4 - a X^2 + a^2:
                # the fold of X^4 cancels the -a at X^2
                ([field.mul(a, a), 0, ma, 0, 1], [0, 0, 1], [ma, 0, 1],
                 [field.neg(field.mul(a, a))]),
            ]
            for fs, xs, ys, want in cases:
                pack, mul, unpack = field.residue_ops(fs)
                assert mulmod_reference(field, xs, ys, fs) == want
                assert unpack(mul(pack(xs), pack(ys))) == want, (fs, xs, ys)

    @pytest.mark.parametrize("field", ODD_EXT, ids=repr)
    def test_pack_is_the_log(self, field):
        """A residue over odd p, e >= 2 is the list of its coefficients'
        logs, None for 0; unpack inverts pack on every element and on
        random lists."""
        pack, _, unpack = field.residue_ops([1, 0, 0, 0, 1])
        assert pack([field.one]) == [0]
        assert pack([0, 1]) == [None, 0]
        assert unpack([None, 0]) == [0, 1] and pack([]) == unpack([]) == []
        g = field._exp[1]
        assert pack([g, 0, field.mul(g, g)]) == [1, None, 2]
        elems = range(1, field.q, max(1, field.q // 4096))
        assert unpack(pack(list(elems))) == list(elems)
        rng = random.Random(f"log-pack/{field.q}")
        for _ in range(50):
            xs = [rng.choice([0, rng.randrange(field.q)]) for _ in range(rng.randrange(4))]
            xs.append(rng.randrange(1, field.q))
            assert unpack(pack(xs)) == xs


class TestSeriesOps:
    """The elements of F[s]/(s^N) that ``dynamics._valuation`` eliminates on."""

    @staticmethod
    def full_slot_lengths(p):
        """Two precisions N for the packed update over GF(p): the largest
        with the slot width W of N = 8, sized from 2 N p (p - 1), and the
        least at which a width sized for one product, N (p - 1)^2, is a
        byte narrower than slot N - 2 of the sum of two needs, below the
        top slot, whose carry the mask would drop."""

        def width(m):
            return -(-m.bit_length() // 8)

        bound = 2 * p * (p - 1)
        top = (256 ** width(8 * bound) - 1) // bound
        assert width(top * bound) < width((top + 1) * bound)
        one = next(
            n for n in itertools.count(1)
            if width(n * (p - 1) ** 2) < width((n - 1) * (p - 1) * (2 * p - 1))
        )
        return top, one

    @staticmethod
    def coeffs(cut, x, n):
        """The first n coefficients of a packed element, by its ``cut``."""
        return [cut(x, i, 1) for i in range(n)]

    @pytest.mark.parametrize("field", [F2, F7, make_field(1048573), M61], ids=repr)
    def test_update_full_slots(self, field):
        # every digit p - 1 in u, x and c, and -y of digits 1 or p (y = 0):
        # the largest slot sums an update can take
        p = field.p
        for N in self.full_slot_lengths(p):
            pack, val, cut, neg, update = field.series_ops(N)[:5]
            top = [p - 1] * N
            for y in (top, []):
                want = field.poly_sub(
                    field.poly_mul(top, top)[:N], field.poly_mul(top, y)[:N]
                )
                got = update(pack(top), pack(top), pack(top), neg(pack(y), N), N)
                assert got == pack(want)
                assert val(got, N) == next((i for i, a in enumerate(want) if a), N)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("field", [F2, F7, make_field(65521), M61], ids=repr)
    def test_mat_mul_full_slots(self, field, d):
        # every coefficient p - 1 in d x d matrices of entries of N / d
        # coefficients, N the largest precision of its slot width: the
        # largest slot sums a product can take, d (N / d) (p - 1)^2
        p = field.p
        N = self.full_slot_lengths(p)[0]
        ops = field.series_ops(N)
        n = N // d
        top = [p - 1] * n
        X = [[ops.pack(top)] * d for _ in range(d)]
        want = []
        for _ in range(d):
            want = field.poly_add(want, field.poly_mul(top, top))
        want += [0] * (2 * n - len(want))
        for row in ops.mat_mul(X, X):
            for x in row:
                assert self.coeffs(ops.cut, x, 2 * n) == want

    @pytest.mark.parametrize("field", [F2, F3, F7, make_field(1048573), M61], ids=repr)
    @given(data=st.data())
    def test_packed_steps_match_coefficient_lists(self, field, data):
        """Every packed step against list arithmetic mod s^P, with entries
        longer than N, as the rows of R are."""
        N = data.draw(st.integers(1, 40))
        ops = field.series_ops(N)
        pack, val, cut, neg, update = ops[:5]
        coeff = st.one_of(st.just(0), felems(field))
        elems = st.lists(coeff, max_size=N + 5)
        u, x, c, y = (data.draw(elems) for _ in range(4))
        w = data.draw(st.integers(0, N - 1))
        P = N - w

        def low(xs, n):
            xs = list(xs[:n])
            return xs + [0] * (n - len(xs))

        assert val(pack(x), N) == next((i for i, a in enumerate(x[:N]) if a), N)
        assert cut(pack(x), w, P) == pack(low(x[w:], P))
        want = field.poly_sub(
            field.poly_mul(low(u, P), low(x, P))[:P],
            field.poly_mul(low(c, P), low(y, P))[:P],
        )
        got = update(pack(low(u, P)), pack(x), pack(low(c, P)), neg(pack(y), P), P)
        assert got == pack(low(want, P))
        D = data.draw(st.integers(0, N - 1))
        xD = low(x, D + 1)
        assert ops.degree(pack(xD)) == max((i for i, a in enumerate(xD) if a), default=-1)
        assert ops.rev(pack(xD), D) == pack(xD[::-1])
        assert ops.less_one(pack(xD), D) == pack(
            low(field.poly_sub(xD, [0] * D + [1]), D + 1)
        )
        d = data.draw(st.integers(1, min(N, 3)))
        entry = st.lists(coeff, max_size=N // d)
        X, Y = (
            data.draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d))
            for _ in range(2)
        )
        n = 2 * (N // d)
        pX, pY = ([[pack(e) for e in row] for row in M] for M in (X, Y))
        for i, row in enumerate(ops.mat_mul(pX, pY)):
            for j, got in enumerate(row):
                want = []
                for k in range(d):
                    want = field.poly_add(want, field.poly_mul(X[i][k], Y[k][j]))
                assert self.coeffs(cut, got, n) == low(want, n)


    @pytest.mark.parametrize("field", [F4, F9], ids=repr)
    @given(data=st.data())
    def test_list_steps_for_extension_fields(self, field, data):
        """degree, rev, less_one and mat_mul on the coefficient lists of
        e >= 2, trailing zeros included, as products leave them."""
        ops = field.series_ops(12)
        x = data.draw(st.lists(st.one_of(st.just(0), felems(field)), min_size=1, max_size=6))
        deg = max((i for i, a in enumerate(x) if a), default=-1)
        assert ops.degree(x) == deg
        D = data.draw(st.integers(max(deg, 0), 8))
        r = ops.rev(x, D)
        assert r == [x[D - i] if D - i < len(x) else 0 for i in range(D + 1)]
        assert ops.less_one(r, D) == r[:D] + [field.sub(r[D], 1)]
        X = [[ops.pack(data.draw(st.lists(felems(field), max_size=4))) for _ in range(2)]
             for _ in range(2)]
        want = [[field.poly_add(field.poly_mul(X[i][0], X[0][j]), field.poly_mul(X[i][1], X[1][j]))
                 for j in range(2)] for i in range(2)]
        got = ops.mat_mul(X, X)
        assert [[Poly(field, e) for e in row] for row in got] == [
            [Poly(field, e) for e in row] for row in want
        ]


class TestFieldProductsStayInTheField:
    """No field product reaches the generic ``Domain.poly_mul`` loop."""

    @staticmethod
    def system(field):
        """A 3 x 3 system whose t^3 coefficient matrix is singular, so that
        nk_table reads a valuation by elimination over F[s]/(s^N) at most k."""
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


class TestFieldDivisionsStayInTheField:
    """No field division reaches the generic ``Domain.poly_divmod`` loop;
    divisions over ``PolyRing`` (``spectral.rou_split``) still do."""

    @staticmethod
    def forbid_generic(monkeypatch):
        """Make ``Domain.poly_divmod`` raise over a field; the list returned
        collects the other domains it still divides over."""
        generic, others = Domain.poly_divmod, []

        def guarded(dom, xs, ys):
            if isinstance(dom, Field):
                raise AssertionError(f"generic poly_divmod reached over {dom!r}")
            others.append(dom)
            return generic(dom, xs, ys)

        monkeypatch.setattr(Domain, "poly_divmod", guarded)
        return others

    @pytest.mark.parametrize("field", [F7, F9, make_field(2, 16)], ids=repr)
    def test_routes_run_without_the_generic_division(self, field, monkeypatch):
        # a 1 x 1 block [2] adds the root of unity 2, so that rou_split
        # divides P by its root-of-unity factor over PolyRing
        zero = Poly(field)
        A = [row + [zero] for row in TestFieldProductsStayInTheField.system(field)]
        A.append([zero] * 3 + [Poly.const(field, 2)])

        def routes():
            return (
                checked_charpoly(field, A),
                system_data(field, A),
                nk_table(field, A, 6),
                fixed_points_smith(field, A),
            )

        want = routes()
        others = self.forbid_generic(monkeypatch)
        assert routes() == want
        assert others and all(isinstance(dom, PolyRing) for dom in others)

    def test_tables_build_without_the_generic_division(self, monkeypatch):
        want = make_field(3, 3)
        self.forbid_generic(monkeypatch)
        got = Field(3, 3, want.modulus)  # uncached: the tables are rebuilt
        for name in ("_exp", "_log", "_zech", "_fold"):
            assert getattr(got, name) == getattr(want, name), name


def test_tpoly_builder_consistency():
    # the packed-int convention used across the suite
    f = tpoly(F4, 2, 3, 1)
    assert f.degree == 2 and f.coeffs == (2, 3, 1)
