r"""Finite fields GF(p^e) with integer-packed elements.

An element of GF(p^e) is a plain Python int in ``range(p**e)``: the base-p
digits are the coefficients of the residue polynomial in the generator z,
low digit first.  For e = 1 this is just the residue mod p.  Packing keeps
elements hashable and lets long products of polynomials run as
Kronecker products on Python ints (``Field._kron_dot``): the digits of
the coefficients are laid out in byte slots wide enough for every sum of
digit products, each pair of integers is multiplied once, and the sum of
the products is folded and reduced mod p once, by whole-integer and
bytes operations, with no loop over coefficients in Python.  One routine
reduces byte slots mod p (``_mod_slots``), for every field kind: by
``bytes.translate`` on tables of b * 256^k mod p while the byte sums of
a slot cannot carry, width (p - 1) < 256, and otherwise by one Barrett
pass over cells wide enough for it (``_divmod_slots``).
Short products run one loop per field kind (``Field._short_mul``), in
place: for e = 1 the products are summed as plain ints, and for e >= 2
they are read off the log and exp tables inline and added by XOR for
p = 2 and by the Zech ``add`` for odd p, with no ``mul`` call per
product.  ``poly_dot``, a sum of products, takes both under one rule
(``KRON_CUTOFF``) and reduces once, as ``poly_mul`` does on one pair.

The N_k table (``dynamics.nk_table``) runs on the elements of
``Field.series_ops``, from its matrix products to the elimination over
F[s]/(s^N) that reads its valuations.  Over a prime field each is one int
in the slot layout of ``_kron_dot`` (Kronecker substitution, Harvey,
J. Symb. Comp. 2009): a product entry is d int products and one slot
reduction (``_mod_slots``, the low bit for p = 2), a row update is two
int products, a mask to s^P and one, and a valuation is read off the
lowest set bit.  For e >= 2 the elements stay coefficient lists, as a
spread-form packing measured slower there.

Division runs one loop per field kind too (``Field.poly_divmod``), on
reduced elements, and reduces late (Dumas, Giorgi and Pernet, ACM TOMS
2008): for e = 1 each coefficient at X^k, k >= deg f, is taken mod p
once as it is read and the deg f low ones once at the end.

Powers mod a monic f (``polycore.modpow``, the root-order descent) run on
``Field.residue_ops``: over a prime field one int per residue, a product
one int multiply, its high slots folded down as multiples of X^deg f mod f
and one reduction mod p.  For odd p and e >= 2 a residue is the list of
its coefficients' logs, and a product one loop of Zech steps on the
tables below (Huber, IEEE Trans. Inf. Theory 1990): the schoolbook sums,
then the high coefficients folded down from the top by
X^deg f = -(f - X^deg f).  For p = 2 and e >= 2 the residues are
coefficient lists, a product ``poly_mul`` and then ``poly_divmod``.

Each field kind has one scalar path.  For e = 1, add, sub and neg work
mod p; for p = 2 they are XOR (neg is the identity).  For e >= 2, scalar
multiplication goes through discrete log/exp tables over a fixed
multiplicative generator g, built once at construction, and for odd p so
does addition, by Zech logarithms: with n = q - 1 and Z(k) the log of
1 + g^k, g^i + g^j = g^(i + Z(j - i)), and since -1 = g^(n/2),
g^i - g^j = g^(i + Z(j + n/2 - i)) and -g^i = g^(i + n/2).  Z(n/2) is
None, for 1 + g^(n/2) = 0.

The tables are seeded by ``polycore`` arithmetic over GF(p) mod the
modulus f, a field that needs no tables: g is the first packed value
from z = p on with g^(n/l) != 1 mod f for every prime l | n (the values
below p lie in GF(p), whose orders divide p - 1 < n), each g^m below is
the square of the last, and the digits of z^k mod f for k = e..2e-2,
which ``_kron_dot`` folds, are remainders.  The exp table is built with
the slot arithmetic of ``_kron_dot``, on digit rows: row j is one int
holding digit j of g^0..g^(m-1), one per cell.  Multiplying by g^m is an
e x e digit map over GF(p), column j the digits of g^m z^j mod f, so
g^m..g^(2m-1) are sums of the rows times its entries, reduced mod p in
every cell at once (``_divmod_slots``), and m doubles up to q - 1.
Horner's rule over the rows packs each power into its cell.  The log and
Zech tables are read off exp: log is one loop over it, and Z(i) is the
log of exp[i] with one more in the low digit, mod p.  The hard cap
q <= 2**20 for extension fields bounds the table memory: Python lists of
q ints that share one int object per value, two lists for p = 2, 48 MB at
q = 2**20 (16 MB of list slots, 32 MB of ints), and a third for odd p.
A fresh process, import included, builds GF(2^20) in about 1 s with a
peak of 105 MB RSS, GF(1021^2) in 0.9 s with 120 MB (2-vCPU Xeon).
Prime fields need no tables and only p < 2**63.

The public constructors and queries:

    make_field(p, e=1, modulus=None)   build (and cache) a field
    elem_order(field, a)               multiplicative order of a nonzero a
    order_of_root(field, f)            order of a root of an irreducible f

The order of a root of an irreducible f of degree delta divides
n = q^delta - 1.  ``integers.factor_group_order`` factors n along the
cyclotomic values Phi_j(q), j | delta, under one Pollard rho step budget
for the whole call; past it order_of_root raises CapExceededError naming
itself.  The order is then found by a descent over a product tree of the
primes of n (``_order_from``), in GF(q) on the root's norm for those not
dividing n / (q - 1) and on the residues mod f for the others;
elem_order(field, a) is that of the root of X - a.
order_of_root checks that f is irreducible (a distinct-degree split); the
spectral layer calls ``_root_order``, the same computation without the
checks, on factors that ``factor`` has just certified.
"""

from __future__ import annotations

import math
import operator
from array import array
from collections import namedtuple
from functools import lru_cache
from itertools import compress

from . import errors
from .integers import factor_group_order, factorint, is_prime
from .polycore import Domain, Poly, is_irreducible, modpow, power

PRIME_CAP = 2**63
EXT_CAP = 2**20

# The short-product loop beats one Kronecker product below KRON_CUTOFF *
# e^1.5 coefficient pairs (the Kronecker side's cost grows faster than e),
# and when the shorter operand has no more coefficients than an element
# has digits.  Each field keeps that bound as an integer, _kron_pairs, and
# Field._long states the rule for poly_mul and poly_dot alike.
KRON_CUTOFF = 64

SeriesOps = namedtuple("SeriesOps", "pack val cut neg update mat_mul degree rev less_one")
ResidueOps = namedtuple("ResidueOps", "pack mul unpack")


# ---------------------------------------------------------------------------
# Kronecker packing
# ---------------------------------------------------------------------------


def _move(out, at: int, dst: int, buf, offset: int, src: int, width: int):
    """Copy `width` bytes from offset + i * src in buf to at + i * dst in
    out, for every slot i: out holds count slots of dst bytes and buf
    count slots of src bytes, and the widths fit inside both."""
    for t in range(width):
        out[at + t :: dst] = buf[offset + t :: src]


# array typecodes by item size, 2 to 8 bytes: slots that an array packs in C
_TYPECODES = {array(c).itemsize: c for c in "QLIH"}


def _pack(vals, width: int, small: bool) -> int:
    """One int holding vals in slots of width bytes; small says that every
    value is below 256, else each is below 2^64."""
    if small and width in _TYPECODES:
        return int.from_bytes(array(_TYPECODES[width], vals).tobytes(), "little")
    raw, size = (bytes(vals), 1) if small else (array("Q", vals).tobytes(), 8)
    if width == size:
        return int.from_bytes(raw, "little")
    out = bytearray(len(vals) * width)
    _move(out, 0, width, raw, 0, size, min(width, size))
    return int.from_bytes(out, "little")


@lru_cache(maxsize=None)
def _byte_residues(p: int, k: int) -> bytes:
    """b * 256^k mod p for every byte value b."""
    return bytes(b * pow(256, k, p) % p for b in range(256))


def _mod_slots(buf, count: int, at: int, stride: int, width: int, p: int, cell: int) -> int:
    """The count slots of width bytes at at + i * stride in buf, which holds
    count * stride bytes, mod p, as one int with slot i in cell i of cell
    bytes, which hold p - 1.  For width * (p - 1) < 256, byte k of a slot
    adds its b * 256^k mod p, by ``bytes.translate``, and the byte sums
    never carry; otherwise the slots are moved to cells wide enough for
    ``_divmod_slots``."""
    if width * (p - 1) < 256:
        total = 0
        for k in range(width):
            if pow(256, k, p):
                sums = buf[at + k :: stride].translate(_byte_residues(p, k))
                total += int.from_bytes(sums, "little")
        raw, size = total.to_bytes(count, "little").translate(_byte_residues(p, 0)), 1
    else:
        size = _barrett_cell(8 * width)
        cells = bytearray(count * size)
        _move(cells, 0, size, buf, at, stride, width)
        rem = _divmod_slots(int.from_bytes(cells, "little"), count, size, 8 * width, p)[1]
        raw = rem.to_bytes(count * size, "little")
    out = bytearray(count * cell)
    _move(out, 0, cell, raw, 0, size, min(cell, size))
    return int.from_bytes(out, "little")


def _ones(count: int, width: int, value: int) -> int:
    """value in each of count slots of width bytes."""
    return int.from_bytes(value.to_bytes(width, "little") * count, "little")


def _barrett_cell(bits: int) -> int:
    """Bytes of a slot that ``_divmod_slots`` reduces for values below
    2^bits: 2 bits + 2 bits."""
    return -(-(2 * bits + 2) // 8)


def _divmod_slots(x: int, count: int, width: int, bits: int, p: int):
    """(x // p, x % p) slot by slot, for count slots of width bytes with
    values below 2^bits and width >= ``_barrett_cell(bits)``.

    With L = bitlen(p), s = bits + L and mu = 2^s // p + 1,
    v // p = (v mu) >> s for v < 2^bits: for 2^s = a p + r, 0 <= r < p,
    v mu / 2^s is v / p plus v (p - r) / (p 2^s), which lies in
    (0, v / 2^s], below 2^-L < 1 / p, so it moves no floor.  As
    p >= 2^(L - 1), mu <= 2^(bits + 1) + 1 and v mu < 2^(2 bits + 2)
    <= 2^(8 width): one int product x mu takes every slot's product with no
    carry between slots.  The shift by s then puts the low s bits of slot
    i + 1's product into slot i from its bit 8 width - s >= bits + 2 - L
    on.  The quotient is at most (2^bits - 1) // p < 2^(bits + 1 - L), so a
    mask of that bound's bits reads it and nothing above.
    """
    s = bits + p.bit_length()
    top = ((1 << bits) - 1) // p  # the largest quotient
    mask = _ones(count, width, (1 << top.bit_length()) - 1)
    quo = (x * ((1 << s) // p + 1) >> s) & mask
    return quo, x - p * quo


# ---------------------------------------------------------------------------
# the field
# ---------------------------------------------------------------------------


def _digits(r: Poly, e: int) -> list:
    """The e coefficients of r, of degree below e, low first."""
    return list(r.coeffs) + [0] * (e - len(r.coeffs))


class Field(Domain):
    """GF(p^e) acting as a coefficient domain for the polynomial engine."""

    is_field = True
    zero = 0
    one = 1

    def __init__(self, p: int, e: int, modulus: tuple):
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = modulus  # monic, length e+1, entries in range(p)
        # the least pair count not below KRON_CUTOFF * e^1.5, in integers
        self._kron_pairs = math.isqrt(KRON_CUTOFF**2 * e**3 - 1) + 1
        # the least array item size that holds q - 1: _kron_dot's out cells
        self._cell = min(s for s in (1, 2, 4, 8) if (self.q - 1) >> 8 * s == 0)
        # digits of z^k mod the modulus for k = e..2e-2
        self._fold = []
        if e >= 2:
            f = Poly(_cached_field(p, 1, (0, 1)), modulus)
            self._build_tables(f)
            self._fold = [
                _digits(Poly(f.dom, [0] * k + [1]) % f, e) for k in range(e, 2 * e - 1)
            ]
        # the largest sub-slot sum of a product, over its shorter length
        # times (p - 1)^2: digit products summed, then high digits folded
        terms = [min(s + 1, 2 * e - 1 - s) for s in range(2 * e - 1)]
        self._slot_terms = max(
            terms[j] + sum(t * c[j] for t, c in zip(terms[e:], self._fold))
            for j in range(e)
        )

    # -- construction helpers ---------------------------------------------

    def _build_tables(self, f: Poly):
        """The log, exp and Zech tables, for the modulus f over GF(p)."""
        p, e, q = self.p, self.e, self.q
        n = q - 1
        fac = factorint(n)
        one = Poly.const(f.dom, 1)
        # packed values below p lie in GF(p), of orders dividing p - 1 < n
        for cand in range(p, q):
            gen = Poly(f.dom, [cand // p**j % p for j in range(e)])
            if all(modpow(gen, n // ell, f) != one for ell in fac):
                break
        else:
            raise errors.InternalInvariantError("no multiplicative generator found")
        # Row j holds digit j of g^0..g^(m-1), one per cell: a cell fits a
        # sum of e digit products for _divmod_slots, and a value below q.
        bits = (e * (p - 1) ** 2).bit_length()
        cell = max(_barrett_cell(bits), -(-n.bit_length() // 8))
        rows, m, g_m = [1] + [0] * (e - 1), 1, gen
        while m < n:
            # g^(m+i) = g^m g^i for i < k; digit i of g^m z^j is entry (i, j)
            # of the digit map of g^m.  The rows grow in place, and the mask
            # reads their low k cells, which growing leaves as they were.
            k, cols, y = min(m, n - m), [], g_m
            for _ in range(e):  # column j + 1 is z times column j, mod f
                cols.append(_digits(y, e))
                y = y.shift(1) % f
            mask = (1 << 8 * cell * k) - 1
            for i in range(e):
                new = sum(c[i] * (r & mask) for c, r in zip(cols, rows) if c[i])
                rows[i] |= _divmod_slots(new, k, cell, bits, p)[1] << 8 * cell * m
            # m doubles until k = n - m ends the loop
            m, g_m = m + k, g_m * g_m % f
        # Horner's rule packs g^i into cell i
        packed = 0
        for r in reversed(rows):
            packed = packed * p + r
        del rows
        # the n cells, read as an array: a list would hold n more ints
        cells = bytearray(n * 8)
        _move(cells, 0, 8, packed.to_bytes(n * cell, "little"), 0, cell, cell)
        del packed
        cells = array("Q", cells)
        # one int object per value, shared by all tables (48 MB at
        # q = 2**20 instead of 80 MB with an object per table entry)
        ints = list(range(q))
        exp = list(map(ints.__getitem__, cells))
        log = [0] * q
        for i, v in zip(ints, cells):
            log[v] = i
        del cells
        if p != 2:
            # Z(i) = log(1 + g^i), one more in the low digit of g^i mod p:
            # succ is log rotated by one, wrapped at each low digit p - 1
            succ = log[1:] + log[:1]
            succ[p - 1 :: p] = log[::p]
            self._zech = list(map(succ.__getitem__, exp))
            self._zech[n // 2] = None  # 1 + g^(n/2) = 1 - 1 = 0
        self._exp, self._log = exp, log

    # -- scalar arithmetic ---------------------------------------------------

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if a == 0 or b == 0:
            return a or b
        # g^i + g^j = g^(i + Z(j - i)); Z is None where 1 + g^k = 0
        n = self.q - 1
        i = self._log[a]
        z = self._zech[(self._log[b] - i) % n]
        return 0 if z is None else self._exp[(i + z) % n]

    def sub(self, a, b):
        if self.e == 1:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
        if a == 0 or b == 0:
            return a or self.neg(b)
        # g^i - g^j = g^i + g^(j + n/2), as -1 = g^(n/2)
        n = self.q - 1
        i = self._log[a]
        z = self._zech[(self._log[b] + n // 2 - i) % n]
        return 0 if z is None else self._exp[(i + z) % n]

    def neg(self, a):
        if self.e == 1:
            return (-a) % self.p
        if self.p == 2 or a == 0:
            return a
        n = self.q - 1
        return self._exp[(self._log[a] + n // 2) % n]

    def mul(self, a, b):
        if self.e == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def exact_div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, k: int):
        if k < 0:
            return self.pow(self.inv(a), -k)
        if a == 0:
            return 1 if k == 0 else 0
        if self.e == 1:
            return pow(a, k, self.p)
        return self._exp[(self._log[a] * k) % (self.q - 1)]

    def from_int(self, n: int):
        return n % self.p

    # -- bulk kernels ------------------------------------------------------------

    def _spread(self, cs, w: int) -> int:
        """cs as one int, digit j of cs[i] in sub-slot (2e - 1) i + j of w
        bytes: the digits are split off all coefficients at once, in cells
        wide enough for ``_divmod_slots``, then moved to their sub-slots."""
        p, e = self.p, self.e
        if e == 1:
            return _pack(cs, w, p <= 256)
        stride, bits = (2 * e - 1) * w, self.q.bit_length()
        cell = _barrett_cell(bits)
        rest, out = _pack(cs, cell, self.q <= 256), bytearray(len(cs) * stride)
        for j in range(e):
            rest, digit = _divmod_slots(rest, len(cs), cell, bits, p)
            digits = digit.to_bytes(len(cs) * cell, "little")
            _move(out, j * w, stride, digits, 0, cell, min(w, cell))
        return int.from_bytes(out, "little")

    def _long(self, xs, ys) -> bool:
        """True when xs * ys, both nonempty, goes through ``_kron_dot``."""
        return min(len(xs), len(ys)) > self.e and len(xs) * len(ys) >= self._kron_pairs

    def _short_mul(self, xs, ys, out):
        """Add xs * ys, both nonempty, into out in place and return out,
        by the schoolbook loop of the field kind, with no scalar method
        call per product: for e = 1 the products are summed as plain ints
        and left unreduced, and for e >= 2 each is read off the log and
        exp tables and added by XOR (p = 2) or ``add``."""
        if self.e == 1:
            for i, a in enumerate(xs):
                if a:
                    for k, b in enumerate(ys, i):
                        out[k] += a * b
            return out
        # exp has n = q - 1 entries, so exp[s - n] = g^s for 0 <= s < 2n:
        # one side of each log sum carries the - n, and no % n is taken
        log, exp, n = self._log, self._exp, self.q - 1
        add = operator.xor if self.p == 2 else self.add
        logs = [(j, log[b] - n) for j, b in enumerate(ys) if b]
        for i, a in enumerate(xs):
            if a:
                la = log[a]
                for j, lb in logs:
                    out[i + j] = add(out[i + j], exp[la + lb])
        return out

    def poly_mul(self, xs, ys):
        """Long products by ``_kron_dot`` of the one pair, short ones by
        ``_short_mul``, each coefficient taken mod p once for e = 1."""
        if not xs or not ys:
            return []
        if self._long(xs, ys):
            return self._kron_dot([(xs, ys)])
        out = self._short_mul(xs, ys, [0] * (len(xs) + len(ys) - 1))
        if self.e == 1:
            p = self.p
            return [v % p for v in out]
        return out

    def poly_dot(self, pairs):
        """The sum of xs * ys over a nonempty list of pairs of nonempty
        lists, as long as the longest product: the long pairs share one
        ``_kron_dot``, the short ones are added into it by ``_short_mul``,
        and for e = 1 each coefficient is then taken mod p once."""
        long, short = [], []
        for pair in pairs:
            (long if self._long(*pair) else short).append(pair)
        out = self._kron_dot(long) if long else []
        out += [0] * (max(len(xs) + len(ys) for xs, ys in pairs) - 1 - len(out))
        for xs, ys in short:
            self._short_mul(xs, ys, out)
        if short and self.e == 1:
            p = self.p
            return [v % p for v in out]
        return out

    def _kron_dot(self, pairs):
        """The sum of xs * ys over a nonempty list of pairs of nonempty
        lists, as one Kronecker product on Python ints per pair, summed
        and then reduced once.

        Each coefficient takes 2e - 1 sub-slots of w bytes, its e digits
        and e - 1 zeros (``_spread``), so one integer product sums every
        digit product of every coefficient pair in place, and the sum of
        the pairs' products every such sum; w fits the largest.  A digit
        at z^k, k >= e, is then folded into the low sub-slots as its
        digits of z^k mod the modulus, still on the integer.  Last, digit
        j of every coefficient is reduced mod p (``_mod_slots``) into a
        cell of its own, of the least array item size that holds q - 1,
        and taken into the packed coefficients by Horner's rule, from
        j = e - 1 down, and read off the cells as a list.  For e = 1 a
        coefficient is one digit, with nothing to fold.
        """
        p, e = self.p, self.e
        n = max(len(xs) + len(ys) for xs, ys in pairs) - 1
        top = sum(min(len(xs), len(ys)) for xs, ys in pairs)
        w = -(-(top * self._slot_terms * (p - 1) ** 2).bit_length() // 8)
        stride = (2 * e - 1) * w
        prod = sum(self._spread(xs, w) * self._spread(ys, w) for xs, ys in pairs)
        low = _ones(n, stride, (1 << 8 * w) - 1)
        for k, digits in enumerate(self._fold, e):
            high = (prod >> (8 * w * k)) & low
            if high:
                prod += high * _pack(digits, w, p <= 256)
        buf = prod.to_bytes(n * stride, "little")
        cell, acc = self._cell, 0
        for j in reversed(range(e)):
            acc = acc * p + _mod_slots(buf, n, j * w, stride, w, p, cell)
        out = acc.to_bytes(n * cell, "little")
        return list(out) if cell == 1 else array(_TYPECODES[cell], out).tolist()

    def series_ops(self, N: int) -> SeriesOps:
        """SeriesOps: elements of F[s]/(s^N), the steps of an elimination on
        them, each at a precision P <= N, and the N_k table's products.

        pack(xs) takes a coefficient list in s, low first, mod s^N;
        val(x, P) is the s-adic valuation of x, or P if it is P or more;
        cut(x, w, P) is (x / s^w) mod s^P, dropping the low w coefficients;
        neg(y, P) is -y mod s^P, and update(u, x, c, ny, P) is
        u x + c ny mod s^P for u, c, ny at precision P.  mat_mul(X, Y) is
        the exact product of d x d matrices whose entries have at most N / d
        coefficients; degree(x) is the degree of x, -1 for zero, and for x
        of degree at most D < N, rev(x, D) is s^D x(1/s) and less_one(x, D)
        is x - s^D, on D + 1 coefficients.

        For e >= 2 the elements are nonempty coefficient lists, multiplied
        by ``poly_mul`` and ``poly_dot``.  For e = 1 each is one int,
        coefficient i in slot i of W bytes, with W such that 2 N p (p - 1)
        fits in a slot: an update's slots, u x + c ny with digits below p
        and the negated ones p - y in (0, p], then sum at most that, and a
        product entry's at most d (N / d) (p - 1)^2, so no sum of products
        carries.  The mask to P slots is the truncation, the lowest set
        bit the valuation, and ``_mod_slots`` the one reduction per entry
        (Dumas, Giorgi and Pernet), into slots of W bytes again, for p = 2
        the low bit of each slot.  rev is one big-endian ``to_bytes``, which
        reverses the slots and the bytes in each, and W strided copies that
        put the bytes of each slot back in order.
        """
        if self.e >= 2:
            mul, add = self.poly_mul, self.poly_add
            return SeriesOps(
                lambda xs: list(xs[:N]) or [0],
                lambda x, P: next(compress(range(P), x), P),
                lambda x, w, P: x[w : w + P],
                lambda y, P: self.poly_neg(y[:P]),
                lambda u, x, c, ny, P: add(mul(u, x[:P])[:P], mul(c, ny)[:P]),
                lambda X, Y: [[self.poly_dot(list(zip(r, c))) for c in zip(*Y)] for r in X],
                lambda x: len(x) - 1 if x[-1]
                else max(compress(range(len(x)), x), default=-1),
                lambda x, D: [0] * (D + 1 - len(x)) + x[D::-1],
                lambda x, D: x[:D] + [self.sub(x[D], 1)],
            )
        p = self.p
        W = -(-(2 * N * p * (p - 1)).bit_length() // 8)
        bits, ones, top = 8 * W, _ones(2 * N, W, 1), 1 << 8 * W

        def reduce(x):
            """x's slots mod p: the low bit of each for p = 2, one % for one slot."""
            if p == 2:
                return x & ones
            if x < top:
                return x % p
            count = -(-x.bit_length() // bits)
            return _mod_slots(x.to_bytes(count * W, "little"), count, 0, W, W, p, W)

        def val(x, P):
            return min(((x & -x).bit_length() - 1) // bits, P) if x else P

        def cut(x, w, P):
            return (x >> bits * w) & ((1 << bits * P) - 1)

        def neg(y, P):
            low = (1 << bits * P) - 1
            return p * (ones & low) - (y & low)

        def update(u, x, c, ny, P):
            low = (1 << bits * P) - 1
            return reduce((u * (x & low) + c * ny) & low)

        def rev(x, D):
            buf, out = x.to_bytes((D + 1) * W, "big"), bytearray((D + 1) * W)
            for t in range(W):
                out[t::W] = buf[W - 1 - t :: W]
            return int.from_bytes(out, "little")

        return SeriesOps(
            lambda xs: _pack(xs[:N], W, p <= 256),
            val, cut, neg, update,
            lambda X, Y: [[reduce(sum(map(operator.mul, r, c))) for c in zip(*Y)] for r in X],
            lambda x: (x.bit_length() - 1) // bits,
            rev,
            lambda x, D: x + ((-1 if x >> bits * D else p - 1) << bits * D),
        )

    def poly_divmod(self, xs, ys):
        """xs // ys and xs % ys for reduced elements, as
        ``Domain.poly_divmod`` lays them out, by one loop per field kind as
        in ``_short_mul``, over the monic ys / lc(ys), the quotient scaled
        after it."""
        m, p, lead = len(ys) - 1, self.p, ys[-1]
        if len(xs) <= m:
            return [], list(xs)
        if lead != 1:
            inv = self.inv(lead)
            ys = [self.mul(f, inv) for f in ys]
        quo, rem = [0] * (len(xs) - m), list(xs)
        if self.e == 1:
            low = [(i, f) for i, f in enumerate(ys[:m]) if f]
            for j in range(len(quo) - 1, -1, -1):
                c = rem[j + m] % p
                if c:
                    quo[j] = c
                    for i, f in low:
                        rem[j + i] -= c * f
            rem = [v % p for v in rem[:m]]
        else:
            log, exp, n = self._log, self._exp, self.q - 1
            add = operator.xor if p == 2 else self.add
            low = [(i, log[self.neg(f)] - n) for i, f in enumerate(ys[:m]) if f]
            for j in range(len(quo) - 1, -1, -1):
                c = rem[j + m]
                if c:
                    quo[j] = c
                    lc = log[c]
                    for i, lf in low:
                        rem[j + i] = add(rem[j + i], exp[lc + lf])
            rem = rem[:m]
        if lead != 1:
            quo = [self.mul(c, inv) for c in quo]
        return quo, rem

    def residue_ops(self, fs) -> ResidueOps:
        """ResidueOps: the residues mod the monic fs of degree m >= 1 and
        their product, on which ``polycore.modpow`` and ``_root_order`` power.

        pack(xs) takes a coefficient list of length at most m, low first,
        with no trailing zeros, unpack(x) gives one back, and mul(x, y) is
        x y mod fs.  For p = 2 and e >= 2 the residues are the lists, and a
        product is ``poly_mul`` and then ``poly_divmod``, as a spread-form
        packing lost there.  For odd p and e >= 2 a residue is the list of
        the logs of its coefficients, None for 0, and pack and unpack are
        the log and exp maps.  A product is one loop: each sum of the
        schoolbook product and then, from X^(2m - 2) down to X^m, each
        coefficient c at X^(i + m) times -f_j into X^(i + j), is one Zech
        step on the logs, g^c + g^s = g^(c + Z(s - c)), with no method call
        and no table beyond the field's.  For e = 1 each is one int,
        coefficient i in slot i of W bytes, with (2m - 1)(p - 1)^2 below
        2^(8W).  A product is one int multiply, slot k at most
        min(k + 1, 2m - 1 - k)(p - 1)^2.  From
        k = 2m - 2 down, slot k is taken mod p and added in times
        X^(k - m) (X^m mod fs), packed, adding at most (p - 1)^2 to each of
        slots k - m..k - 1, so each low slot ends at most (2m - 1)(p - 1)^2
        and is taken mod p once (Dumas, Giorgi and Pernet).
        """
        if self.e >= 2 and self.p == 2:

            def mul(xs, ys):
                rem = self.poly_divmod(self.poly_mul(xs, ys), fs)[1]
                while rem and not rem[-1]:
                    rem.pop()
                return rem

            return ResidueOps(list, mul, list)
        if self.e >= 2:
            log, exp, zech, n = self._log, self._exp, self._zech, self.q - 1
            m = len(fs) - 1
            # X^m = -sum f_i X^i: the logs of the nonzero -f_i
            neg = [(i, log[self.neg(f)]) for i, f in enumerate(fs[:m]) if f]

            def mul(x, y):
                acc = [None] * (len(x) + len(y) - 1)
                terms = [(j, b) for j, b in enumerate(y) if b is not None]
                # the rows of the schoolbook product, then from the top down
                # each coefficient at X^(i + m), read once every row above
                # it is in, as the row of X^i (X^m mod fs)
                for src, at, row, span in (
                    (x, 0, terms, range(len(x))),
                    (acc, m, neg, range(len(acc) - 1 - m, -1, -1)),
                ):
                    for i in span:
                        a = src[i + at]
                        if a is not None:
                            for j, b in row:
                                s, k = (a + b) % n, i + j
                                c = acc[k]
                                if c is None:
                                    acc[k] = s
                                else:
                                    # g^c + g^s = g^(c + Z(s - c)): s - c lies in
                                    # (-n, n), and a negative index reads Z(s - c + n)
                                    z = zech[s - c]
                                    acc[k] = None if z is None else (c + z) % n
                del acc[m:]
                while acc and acc[-1] is None:
                    acc.pop()
                return acc

            return ResidueOps(
                lambda xs: [log[c] if c else None for c in xs],
                mul,
                lambda x: [0 if a is None else exp[a] for a in x],
            )
        p, m = self.p, len(fs) - 1
        bits = 8 * -(-((2 * m - 1) * (p - 1) ** 2).bit_length() // 8)
        top, mask, shifts = bits * m, (1 << bits) - 1, range(0, bits * m, bits)

        def pack(xs):
            x = 0
            for v in reversed(xs):
                x = x << bits | v
            return x

        # (offset of slot k, X^(k - m) (X^m mod fs), the slots below k)
        neg = pack([-c % p for c in fs[:m]])
        folds = [
            (bits * k, neg << bits * (k - m), (1 << bits * k) - 1)
            for k in range(2 * m - 2, m - 1, -1)
        ]

        def mul(x, y):
            x *= y
            if x >> top:
                for s, g, below in folds:
                    x = (x & below) + (x >> s) % p * g
            return sum([(x >> s & mask) % p << s for s in shifts])

        def unpack(x):
            return [x >> s & mask for s in range(0, x.bit_length(), bits)]

        return ResidueOps(pack, mul, unpack)

    def __repr__(self):
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e})"


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _default_modulus(p: int, e: int) -> tuple:
    """First monic irreducible of degree e over GF(p), by packed-int order."""
    base = _cached_field(p, 1, (0, 1))
    for packed in range(p**e, 2 * p**e):
        coeffs = [(packed // p**i) % p for i in range(e + 1)]
        if is_irreducible(base, Poly(base, coeffs)):
            return tuple(coeffs)
    raise errors.InternalInvariantError("no irreducible modulus found")


def _validate_modulus(p: int, e: int, modulus) -> tuple:
    """The modulus as a tuple: a list or tuple of ints, not bools, giving a
    monic irreducible of degree e over GF(p)."""
    if not isinstance(modulus, (list, tuple)) or not all(
        isinstance(c, int) and not isinstance(c, bool) for c in modulus
    ):
        raise errors.MalformedInputError("modulus must be a list of integers")
    coeffs = tuple(modulus)
    if len(coeffs) != e + 1:
        raise errors.MalformedInputError(
            f"modulus must have degree {e}, got degree {len(coeffs) - 1}"
        )
    if any(c < 0 or c >= p for c in coeffs):
        raise errors.MalformedInputError("modulus coefficients must lie in [0, p)")
    if coeffs[-1] != 1:
        raise errors.MalformedInputError("modulus must be monic")
    if e >= 2:
        base = _cached_field(p, 1, (0, 1))
        if not is_irreducible(base, Poly(base, coeffs)):
            raise errors.MalformedInputError("modulus is reducible over GF(p)")
    return coeffs


@lru_cache(maxsize=None)
def _cached_field(p: int, e: int, modulus: tuple) -> Field:
    return Field(p, e, modulus)


def make_field(p: int, e: int = 1, modulus=None) -> Field:
    """Build GF(p**e), reusing a cached instance when possible.

    The modulus, if given, is a monic irreducible polynomial over GF(p) of
    degree e as a low-first list or tuple of ints.  Without one, the monic
    irreducible with the smallest packed-integer value is used, e.g.
    z^2 + z + 1 for GF(4) and z^2 + 1 for GF(9).  For e = 1 a modulus is
    only checked: every one gives the one GF(p), with modulus (0, 1).
    """
    if any(isinstance(x, bool) or not isinstance(x, int) for x in (p, e)):
        raise errors.MalformedInputError("p and e must be integers")
    if e < 1:
        raise errors.MalformedInputError("extension degree must be at least 1")
    if p >= PRIME_CAP:
        raise errors.CapExceededError(f"prime modulus must be below 2**63, got {p}")
    if not is_prime(p):
        raise errors.MalformedInputError(f"{p} is not prime")
    # p >= 2, so p**e > EXT_CAP whenever 2**e is: decide those e without
    # computing p**e, which has millions of digits for e = 10**8
    if e >= 2 and (e >= EXT_CAP.bit_length() or p**e > EXT_CAP):
        raise errors.CapExceededError(
            f"extension field order {p}**{e} exceeds the 2**20 table cap"
        )
    if modulus is not None:
        coeffs = _validate_modulus(p, e, modulus)
    if e == 1:
        coeffs = (0, 1)
    elif modulus is None:
        coeffs = _default_modulus(p, e)
    return _cached_field(p, e, coeffs)


# ---------------------------------------------------------------------------
# element orders
# ---------------------------------------------------------------------------


def _order_from(fac: dict, x, power, one) -> int:
    """Order of x, given x^n = one for n = prod(ell^k for ell, k in fac).

    Product-tree descent: with the primes cut in two halves L and R and
    n_L, n_R the prime-power parts of n over them, x^(n_R) has the L-part
    of the order of x and x^(n_L) its R-part.  The cut puts the smallest
    prime powers in L, until n_L reaches sqrt(n), so that a large prime
    sits near the root.  Each half recurses down to a single prime ell,
    where repeated ell-th powers finish: a y != one with y^(ell^k) = one
    has order ell^j for the least j with y^(ell^j) = one, and j = k needs
    no last power.
    """
    pp = {ell: ell**k for ell, k in fac.items()}

    def descend(y, primes, n):
        if y == one:
            return 1
        if len(primes) == 1:
            ell = primes[0]
            order = ell
            for _ in range(fac[ell] - 1):
                y = power(y, ell)
                if y == one:
                    break
                order *= ell
            return order
        cut, n_left = 1, pp[primes[0]]
        while cut < len(primes) - 1 and n_left * n_left < n:
            n_left *= pp[primes[cut]]
            cut += 1
        n_right = n // n_left
        return descend(power(y, n_right), primes[:cut], n_left) * descend(
            power(y, n_left), primes[cut:], n_right
        )

    return descend(x, sorted(fac, key=pp.get), math.prod(pp.values()))


def elem_order(field: Field, a: int) -> int:
    """Multiplicative order of a in GF(q)*."""
    if a == 0:
        raise errors.MalformedInputError("zero has no multiplicative order")
    if not isinstance(a, int) or a < 0 or a >= field.q:
        raise errors.MalformedInputError("element out of range")
    return _root_order(field, Poly(field, [field.neg(a), field.one]))


def order_of_root(field: Field, f: Poly) -> int:
    """Multiplicative order of any root of the monic irreducible f.

    The roots of an irreducible polynomial are Frobenius conjugates, so
    they share one order; it is computed inside GF(q)[X]/(f) as the order
    of the class of X.
    """
    if f.degree < 1:
        raise errors.MalformedInputError("constant polynomials have no roots")
    f = f.monic()
    if f.coeff(0) == 0:
        if f.degree == 1:
            raise errors.MalformedInputError("the root of X is zero")
        raise errors.MalformedInputError("X divides the polynomial")
    if not is_irreducible(field, f):
        raise errors.MalformedInputError("polynomial is reducible")
    return _root_order(field, f)


def _root_order(field: Field, f: Poly) -> int:
    """order_of_root without its checks: f must be monic and irreducible
    with f(0) != 0, as the factors ``factor`` returns are.  A root a has
    norm a^M = (-1)^delta f(0) in GF(q), M = n / (q - 1) for n = q^delta - 1,
    and for a prime ell not dividing M the ell-part of ord(a) is the norm's.
    Only the primes of M descend mod f, on the residues of ``residue_ops``,
    from X^(n_s) with n_s the part of n over the other primes."""
    q, delta = field.q, f.degree
    try:
        fac = factor_group_order(q, delta)
    except errors.CapExceededError as ex:
        raise errors.CapExceededError(
            f"order_of_root: cannot factor the group order q^{delta} - 1: {ex}"
        ) from None
    M = (q**delta - 1) // (q - 1)
    scalar = {ell: k for ell, k in fac.items() if M % ell}
    lifted = {ell: k for ell, k in fac.items() if ell not in scalar}
    n_s = math.prod(ell**k for ell, k in scalar.items())
    norm = f.coeff(0) if delta % 2 == 0 else field.neg(f.coeff(0))
    order = _order_from(scalar, field.pow(norm, (q - 1) // n_s), field.pow, field.one)
    if not lifted:
        return order
    # M > 1 here, so delta >= 2 and X is its own residue
    pack, mul, _ = field.residue_ops(list(f.coeffs))
    one = pack([field.one])
    x = power(pack([0, 1]), n_s, mul, one)
    return order * _order_from(lifted, x, lambda y, k: power(y, k, mul, one), one)
