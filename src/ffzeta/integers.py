"""Integer primality and factorization, standard library only.

``is_prime`` is a deterministic Miller-Rabin test.  ``factorint`` strips
small primes by trial division and splits what is left with Brent's
variant of Pollard's rho under one step budget per call, past which it
raises CapExceededError instead of running on.
"""

from __future__ import annotations

import math

from . import errors

# Pollard rho steps one factorint call may take in all, past which it
# raises CapExceededError: about 2 s of pure Python on a 300-bit composite
# (2-vCPU Xeon).  Rho needs about sqrt(r) steps to split off a prime r, so
# this reaches second-largest prime factors of about 40 bits.
RHO_BUDGET = 2**20
# Rho steps per gcd.
RHO_BATCH = 128


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for sp in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % sp == 0:
            return n == sp
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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
    out: dict = {}
    for d in (2, 3, 5):
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    d = 7
    while d * d <= n and d < 1 << 16:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 2
    stack = [n] if n > 1 else []
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
