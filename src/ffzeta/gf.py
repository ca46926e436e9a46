r"""Finite fields GF(p^e) with integer-packed elements.

An element of GF(p^e) is a plain Python int in ``range(p**e)``: the base-p
digits are the coefficients of the residue polynomial in the generator z,
low digit first.  For e = 1 this is just the residue mod p.  Packing keeps
elements hashable and lets a long product of polynomials run as one
Kronecker product on Python ints (``Field._kron_mul``): the digits of the
coefficients are laid out in byte slots of two integers wide enough for
every sum of digit products, the integers are multiplied once, and the
slots are folded and reduced mod p by whole-integer and bytes operations,
with no loop over coefficients in Python for e >= 2.  Short products run
one loop per field kind (``Field._short_mul``): for e = 1 the products
are summed as plain ints, and for e >= 2 they are read off the log and
exp tables inline and added by XOR for p = 2 and by the Zech ``add`` for
odd p, with no ``mul`` call per product.  ``poly_mul`` and
``poly_mulmod`` share both products under one rule (``KRON_CUTOFF``).

``Field.poly_mulmod``, the product mod a monic f that ``polycore.modpow``
runs on, reduces late (Dumas, Giorgi and Pernet, ACM TOMS 2008): for
e = 1 the short product's sums stay unreduced, each coefficient at
X^k, k >= deg f, is taken mod p once as it is folded into the lower ones,
and the deg f low coefficients once at the end.

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
which ``_kron_mul`` folds, are remainders.  The exp table is built with
the slot arithmetic of ``_kron_mul``, on digit rows: row j is one int
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
primes of n (``_order_from``); elem_order(field, a) is the order of the
root a of X - a.  order_of_root checks that f is irreducible, which costs
a distinct-degree split; the spectral layer calls ``_root_order``, the
same computation without the checks, on factors that ``factor`` has just
certified.
"""

from __future__ import annotations

import math
import operator
from array import array
from functools import lru_cache

from . import errors
from .integers import factor_group_order, factorint, is_prime
from .polycore import Domain, Poly, is_irreducible, modpow

PRIME_CAP = 2**63
EXT_CAP = 2**20

# The short-product loop beats one Kronecker product below KRON_CUTOFF *
# e^1.5 coefficient pairs (the Kronecker side's cost grows faster than e),
# and when the shorter operand has no more coefficients than an element
# has digits.  Each field keeps that bound as an integer, _kron_pairs, and
# Field._long states the rule for poly_mul and poly_mulmod alike.
KRON_CUTOFF = 64


# ---------------------------------------------------------------------------
# Kronecker packing
# ---------------------------------------------------------------------------


def _move(out, at: int, dst: int, buf, offset: int, src: int, width: int):
    """Copy `width` bytes from offset + i * src in buf to at + i * dst in
    out, for every slot i: out holds count slots of dst bytes and buf
    count slots of src bytes, and the widths fit inside both."""
    for t in range(width):
        out[at + t :: dst] = buf[offset + t :: src]


def _pack(vals, width: int, small: bool) -> int:
    """One int holding vals in slots of width bytes; small says that every
    value is below 256, else each is below 2^64."""
    raw, size = (bytes(vals), 1) if small else (array("Q", vals).tobytes(), 8)
    if width == size:
        return int.from_bytes(raw, "little")
    out = bytearray(len(vals) * width)
    _move(out, 0, width, raw, 0, size, min(width, size))
    return int.from_bytes(out, "little")


def _read(buf, count: int, stride: int, width: int) -> list:
    """count ints of width bytes from buf, one every stride bytes."""
    if width == 1:
        return list(buf[::stride])
    if width > 8:
        return [
            int.from_bytes(buf[i : i + width], "little")
            for i in range(0, count * stride, stride)
        ]
    out = bytearray(count * 8)
    _move(out, 0, 8, buf, 0, stride, width)
    return array("Q", out).tolist()


@lru_cache(maxsize=None)
def _byte_residues(p: int, k: int) -> bytes:
    """b * 256^k mod p for every byte value b."""
    return bytes(b * pow(256, k, p) % p for b in range(256))


def _mod_bytes(buf, width: int, p: int) -> bytes:
    """The slots of width bytes that make up buf, mod p, one byte each, for
    width * (p - 1) < 256: byte k of a slot adds its b * 256^k mod p, by
    ``bytes.translate``, and the byte sums never carry."""
    total = 0
    for k in range(width):
        if pow(256, k, p):
            sums = buf[k::width].translate(_byte_residues(p, k))
            total += int.from_bytes(sums, "little")
    return total.to_bytes(len(buf) // width, "little").translate(_byte_residues(p, 0))


def _ones(count: int, width: int, value: int) -> int:
    """value in each of count slots of width bytes."""
    return int.from_bytes(value.to_bytes(width, "little") * count, "little")


def _divmod_slots(x: int, count: int, width: int, bits: int, p: int):
    """(x // p, x % p) slot by slot, for count slots of width bytes with
    values below 2^bits and 8 * width >= 2 * bits + bitlen(p): with
    s = bits + bitlen(p), v // p = (v * (2^s // p + 1)) >> s for v < 2^bits,
    and v * (2^s // p + 1) < 2^(8 * width) stays inside its slot."""
    s = bits + p.bit_length()
    quo = (x * ((1 << s) // p + 1) >> s) & _ones(count, width, (1 << bits) - 1)
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
        cell = max(-(-(2 * bits + p.bit_length()) // 8), -(-n.bit_length() // 8))
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

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def exact_div(self, a, b):
        return self.div(a, b)

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
        cell = -(-(2 * bits + p.bit_length()) // 8)
        rest, out = _pack(cs, cell, self.q <= 256), bytearray(len(cs) * stride)
        for j in range(e):
            rest, digit = _divmod_slots(rest, len(cs), cell, bits, p)
            digits = digit.to_bytes(len(cs) * cell, "little")
            _move(out, j * w, stride, digits, 0, cell, min(w, cell))
        return int.from_bytes(out, "little")

    def _long(self, xs, ys) -> bool:
        """True when xs * ys, both nonempty, is one ``_kron_mul``."""
        return min(len(xs), len(ys)) > self.e and len(xs) * len(ys) >= self._kron_pairs

    def _short_mul(self, xs, ys):
        """xs * ys, both nonempty, by the schoolbook loop of the field kind,
        with no scalar method call per product: for e = 1 the products are
        summed as plain ints and left unreduced, and for e >= 2 each is read
        off the log and exp tables and added by XOR (p = 2) or ``add``."""
        out = [0] * (len(xs) + len(ys) - 1)
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
        """Long products by ``_kron_mul``, short ones by ``_short_mul``,
        each coefficient taken mod p once for e = 1."""
        if not xs or not ys:
            return []
        if self._long(xs, ys):
            return self._kron_mul(xs, ys)
        out = self._short_mul(xs, ys)
        if self.e == 1:
            p = self.p
            return [v % p for v in out]
        return out

    def _kron_mul(self, xs, ys):
        """The product of two nonempty lists as one Kronecker product on
        Python ints.

        Each coefficient takes 2e - 1 sub-slots of w bytes, its e digits
        and e - 1 zeros (``_spread``), so one integer product sums every
        digit product of every coefficient pair in place; w fits the
        largest sum.  A product digit at z^k, k >= e, is then folded into
        the low sub-slots as its digits of z^k mod the modulus, still on
        the integer.  Last, digit j of every coefficient is moved to a cell
        of its own, reduced mod p (``_divmod_slots``) and taken into the
        packed coefficients by Horner's rule, from j = e - 1 down.  For
        e = 1 a slot is a coefficient, reduced by ``bytes.translate`` when
        w * (p - 1) < 256 and one by one otherwise.
        """
        p, e = self.p, self.e
        n = len(xs) + len(ys) - 1
        top = min(len(xs), len(ys)) * self._slot_terms * (p - 1) ** 2
        w = -(-top.bit_length() // 8)
        stride = (2 * e - 1) * w
        prod = self._spread(xs, w) * self._spread(ys, w)
        if e == 1:
            buf = prod.to_bytes(n * w, "little")
            if w * (p - 1) < 256:
                return list(_mod_bytes(buf, w, p))
            return [v % p for v in _read(buf, n, w, w)]
        low = _ones(n, stride, (1 << 8 * w) - 1)
        for k, digits in enumerate(self._fold, e):
            high = (prod >> (8 * w * k)) & low
            if high:
                prod += high * _pack(digits, w, p <= 256)
        buf = prod.to_bytes(n * stride, "little")
        out_bytes = -(-(self.q - 1).bit_length() // 8)
        wide = max(-(-(16 * w + p.bit_length()) // 8), out_bytes)
        acc = 0
        for j in reversed(range(e)):
            cells = bytearray(n * wide)
            _move(cells, 0, wide, buf, j * w, stride, w)
            slots = int.from_bytes(cells, "little")
            acc = acc * p + _divmod_slots(slots, n, wide, 8 * w, p)[1]
        return _read(acc.to_bytes(n * wide, "little"), n, wide, out_bytes)

    def poly_mulmod(self, xs, ys, fs):
        """xs * ys mod the monic fs, with no Poly and no scalar method call
        per product.

        The product is the one of ``poly_mul``, with its e = 1 sums left
        unreduced.  Then each coefficient c at X^k, k >= m = deg fs, from
        the top, is folded in as c X^(k - m) (X^m - fs), by the same int
        sums or table reads.  For e = 1, c is taken mod p as it is read,
        and the m low coefficients once at the end; no other sum is
        reduced.
        """
        if not xs or not ys:
            return []
        m = len(fs) - 1
        out = self._kron_mul(xs, ys) if self._long(xs, ys) else self._short_mul(xs, ys)
        if self.e == 1:
            p = self.p
            low = [(i, f) for i, f in enumerate(fs[:m]) if f]
            for k in range(len(out) - 1, m - 1, -1):
                c = out[k] % p
                if c:
                    for i, f in low:
                        out[k - m + i] -= c * f
            out = [v % p for v in out[:m]]
        else:
            log, exp, n = self._log, self._exp, self.q - 1
            add = operator.xor if self.p == 2 else self.add
            low = [(i, log[self.neg(f)] - n) for i, f in enumerate(fs[:m]) if f]
            for k in range(len(out) - 1, m - 1, -1):
                c = out[k]
                if c:
                    lc = log[c]
                    for i, lf in low:
                        out[k - m + i] = add(out[k - m + i], exp[lc + lf])
            out = out[:m]
        while out and not out[-1]:
            out.pop()
        return out

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
    with f(0) != 0, as the factors ``factor`` returns are."""
    delta = f.degree
    try:
        fac = factor_group_order(field.q, delta)
    except errors.CapExceededError as ex:
        raise errors.CapExceededError(
            f"order_of_root: cannot factor the group order q^{delta} - 1: {ex}"
        ) from None
    if delta == 1:
        # the root is -f(0), in GF(q) itself
        return _order_from(fac, field.neg(f.coeff(0)), field.pow, field.one)
    one = Poly.const(field, field.one)
    return _order_from(fac, Poly.x(field), lambda y, k: modpow(y, k, f), one)
