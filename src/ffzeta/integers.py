"""Integer primality and factorization, standard library only.

``is_prime`` runs Miller-Rabin to the 13 prime bases 2..41, which is a
proof of primality below psi_13 = 3317044064679887385961981 (about
3.3e24; psi_13 is the least strong pseudoprime to all 13 bases).  From
psi_13 on the rounds are followed by a strong Lucas test with Selfridge's
parameters, the Baillie-PSW test: no composite is known to pass it, but
it is not proven exact there.

``factorint`` strips the primes below 2^16 by trial division, over a table
sieved up to the least power of two past sqrt(n), and splits what is left
with Brent's variant of Pollard's rho under one step budget per call,
past which it raises CapExceededError instead of running on.  Trial
division runs no loop over the table (Bernstein, "How to find smooth
parts of integers", 2004): one gcd of n with the product of its primes,
then gcds of that with the products of its blocks of consecutive primes,
and divisions by the primes of the blocks that share a factor.  The
products are built once per table size (13 sizes): about 4 ms for the
2^16 table, sieve included, on a 2-vCPU Xeon.

``factor_group_order`` factors q^delta - 1, the order of GF(q^delta)*.
It is the product of the cyclotomic values Phi_j(q) over j | delta, each
got by exact integer division.  Trial division runs once, on q^delta - 1
as a whole, and each Phi_j(q) is stripped of the primes it found.  A
prime that divides two of the Phi_j(q) divides delta, so for delta below
the trial bound 2^16 the stripped parts are coprime, and the cofactor is
split along them before any rho step.  Rho then works on those parts,
much smaller than q^delta - 1, under the one budget of the call.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress

from . import errors

# Pollard rho steps one factorint or factor_group_order call may take in
# all, past which it raises CapExceededError: about 2 s of pure Python on a
# 300-bit composite (2-vCPU Xeon).  Rho needs about sqrt(r) steps to split
# off a prime r, so this reaches second-largest prime factors of about 40
# bits.
RHO_BUDGET = 2**20
# Rho steps per gcd.
RHO_BATCH = 128
# Trial division runs over the primes below this bound.
TRIAL_BOUND = 1 << 16

MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least strong pseudoprime to every base in MR_BASES.
PSI_13 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin to bases 2..41, exact for n < PSI_13 (3.3e24); from
    PSI_13 on, followed by a strong Lucas test (Baillie-PSW)."""
    if n < 2:
        return False
    for sp in MR_BASES:
        if n % sp == 0:
            return n == sp
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < PSI_13 or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test for odd n > 41 with no prime factor
    up to 41, as is_prime passes it.  Selfridge's parameters: D the first
    of 5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1 - D)/4.  With
    n + 1 = d 2^s, d odd, n passes when U_d = 0 or V_(d 2^r) = 0 for some
    r < s, mod n."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1 exists
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # |D| < n shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k, Q^k from k = 0 along the bits of d: k -> 2k, then k -> k + 1
    U, V, Qk = 0, 2, 1
    for bit in bin(d)[2:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            # U_(k+1) = (U_k + V_k)/2, V_(k+1) = (D U_k + V_k)/2 for P = 1
            U, V = (U + V) % n, (D * U + V) % n
            U = (U + n if U & 1 else U) // 2
            V = (V + n if V & 1 else V) // 2
            Qk = Qk * Q % n
    if U == 0:
        return True
    for _ in range(s):
        if V == 0:
            return True
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return False


def _pollard_rho(n: int, budget: int) -> tuple:
    """(factor, steps) for an odd composite n, by Brent's variant of rho.

    Steps are evaluations of x -> x^2 + c mod n; gcds are taken once per
    RHO_BATCH steps on the accumulated product of differences.  The factor
    is None when the budget of steps runs out first.
    """
    steps = 0
    for c in range(1, 64):
        y, r, g, acc = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    acc = acc * abs(x - y) % n
                g = math.gcd(acc, n)
                k += RHO_BATCH
            steps += r + min(k, r)
            if g == 1 and steps >= budget:
                return None, steps
            r *= 2
        if g == n:
            # the batch overshot: redo it one gcd per step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g, steps
    raise errors.CapExceededError(f"failed to factor {n}")


def factorint(n: int) -> dict:
    """Prime factorization as {prime: multiplicity}; n >= 1.

    Composite parts left after trial division are split by Pollard's rho
    under one budget of RHO_BUDGET steps for the whole call; past it the
    call raises CapExceededError.
    """
    if n < 1:
        raise errors.MalformedInputError(f"factorint needs n >= 1, got {n}")
    return _factor_parts(n, (n,))


def factor_group_order(q: int, delta: int) -> dict:
    """Prime factorization of q^delta - 1 (q >= 2, delta >= 1), split along
    the cyclotomic values Phi_j(q), j | delta, under one RHO_BUDGET."""
    if q < 2 or delta < 1:
        raise errors.MalformedInputError(f"need q >= 2, delta >= 1; got {q}, {delta}")
    phi = {}
    for j in range(1, delta + 1):
        if delta % j == 0:
            v = q**j - 1
            for i, phi_i in phi.items():
                if j % i == 0:
                    v //= phi_i
            phi[j] = v
    return _factor_parts(q**delta - 1, tuple(phi.values()))


def _trial_primes(bound: int) -> tuple:
    """The primes from 7 up to an even bound, by a sieve of the odd
    numbers: byte i stands for 2i + 1."""
    half = bound // 2
    sieve = bytearray([1]) * half
    for i in range(1, (math.isqrt(bound - 1) + 1) // 2):
        if sieve[i]:
            d = 2 * i + 1
            sieve[d * d // 2 :: d] = bytes(len(range(d * d // 2, half, d)))
    return tuple(compress(range(7, bound, 2), sieve[3:]))


@lru_cache(maxsize=None)
def _trial_table(bound: int) -> tuple:
    """(P, blocks) for the k primes of ``_trial_primes(bound)``: blocks of
    isqrt(k) consecutive ones as (their product, the primes), and P the
    product of all, multiplied up a balanced tree of the block products.
    Built once per bound."""
    primes = _trial_primes(bound)
    size = math.isqrt(len(primes))
    blocks = [primes[i : i + size] for i in range(0, len(primes), size)]
    level = [math.prod(block) for block in blocks]
    table = tuple(zip(level, blocks))
    while len(level) > 1:
        level = [math.prod(level[i : i + 2]) for i in range(0, len(level), 2)]
    return level[0], table


def _trial_divisors(n: int, bound: int):
    """The primes of ``_trial_primes(bound)`` that divide n, ascending: one
    gcd of n with their product P, then g = gcd(n, P) against each block
    product until g is used up, and a division of gcd(g, block) by each
    prime of the blocks that share a factor with g (Bernstein, 2004)."""
    whole, blocks = _trial_table(bound)
    g = math.gcd(n, whole)
    for prod, block in blocks:
        if g == 1:
            return
        h = math.gcd(g, prod)
        if h > 1:
            yield from (d for d in block if h % d == 0)
            g //= h


def _factor_parts(n: int, parts: tuple) -> dict:
    """Factorization of n = prod(parts): trial division on n, then each part
    stripped of the primes found and split by rho, one budget in all."""
    out: dict = {}
    for d in (2, 3, 5):
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    # The primes found are stripped in turn up to the first past isqrt of
    # what is left, which is then 1 or a prime, where a division by every
    # table prime in turn would stop too: the primes stripped and the
    # parts left are that loop's.  It never reaches a prime past isqrt(n),
    # so a table up to the next power of two above it strips what the
    # full one does.
    bound = min(TRIAL_BOUND, max(16, 1 << math.isqrt(n).bit_length()))
    for d in _trial_divisors(n, bound):
        if d * d > n:
            break
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    stack = []
    for m in parts:
        for ell in out:
            while m % ell == 0:
                m //= ell
        stack.append(m)
    budget = RHO_BUDGET
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        f, steps = _pollard_rho(m, budget)
        if f is None:
            raise errors.CapExceededError(
                f"the budget of {RHO_BUDGET} Pollard rho steps ran out "
                f"on a {m.bit_length()}-bit composite factor"
            )
        budget -= steps
        stack.append(f)
        stack.append(m // f)
    return out
