"""Seeded inputs for the three benchmark workloads.

Every generator is a pure function of its seed: it returns plain data
(field parameters and matrices of packed coefficient lists) that the
operations in ``ops.py`` hand to the package.  Generation uses the
package's field arithmetic, determinant and irreducibility test only to
shape inputs (reject singular draws, pick irreducible companion blocks);
no correctness check relies on them alone.

corpus-routes   systems shaped like ``ffzeta.corpus``: six fields, d = 1..4,
                entry degree <= 2; ops are ordered so that every block of 30
                covers each (field, d) pair once (d = 3 twice), which keeps
                the cost of a run nearly independent of the seed.
cli-cap         the five CLI commands on ``problems/*.json`` and on seeded
                inputs at the entry caps (d = 8, entry degree up to 32), in
                a fixed order inside each round.
spectral-wide   d = 6..8 block sums of a constant companion block and a
                rank-one-in-t block, over large extension fields and primes
                on both sides of the 2**31 scalar-path threshold; fields,
                shapes and residual factor patterns follow the op's position
                and are the same for every seed.

A run executes a fixed number of ops, so that every run of one seed
attempts and fails the same ops.  ``pool_size`` turns the run length into
whole blocks (corpus-routes) or rounds (cli-cap, spectral-wide); the
seconds per block are what the seed program takes on a 2-vCPU Xeon.
"""

from __future__ import annotations

import random

CORPUS_FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2))
# d = 3 twice: ops with d <= 2 and d >= 3 would otherwise be half each,
# and the median latency would sit in the gap between the two clusters,
# jumping with the seed; now it falls inside the d = 3 cluster.
CORPUS_DIMS = (1, 2, 3, 3, 4)
CORPUS_BLOCK = len(CORPUS_FIELDS) * len(CORPUS_DIMS)  # one op per (field, slot)
CORPUS_K = 40

# run with their defaults (report: --max 12 --terms 20) on every problem file
CLI_COMMANDS = ("classify", "entropy", "nk", "zeta", "report")
CLI_ROUNDS = 2

SPECTRAL_EXT = ((2, 16), (3, 10))
SPECTRAL_ROUNDS = 12

# Nominal seconds of one corpus block, one cli-cap round and one
# spectral-wide round, timed passes included, on the seed program; at
# --seconds 30 the op time of a run is 25-40 s, with the host's speed.
UNIT_SECONDS = {"corpus-routes": 7.2, "cli-cap": 17.0, "spectral-wide": 5.0}


def pool_size(workload: str, seconds: float) -> int:
    """Blocks or rounds of ops that fill a run of about `seconds`."""
    return max(1, round(seconds / UNIT_SECONDS[workload]))


# ---------------------------------------------------------------------------
# integer helpers (independent of the package)
# ---------------------------------------------------------------------------


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for b in bases:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
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


def random_prime(rng: random.Random, lo: int, hi: int) -> int:
    """A uniformly drawn prime in [lo, hi)."""
    while True:
        n = rng.randrange(lo, hi) | 1
        if n < hi and is_prime(n):
            return n


# ---------------------------------------------------------------------------
# corpus-routes
# ---------------------------------------------------------------------------


def corpus_routes(seed: int, pool: int = 10 * CORPUS_BLOCK) -> list:
    """Systems shaped like ffzeta.corpus, stratified by (field, d).

    Entry degrees are exact (the leading coefficient is drawn nonzero).
    For q > 2 the matrix L of leading coefficients is also nonsingular, so
    deg det(A^k - I) is k * d * (entry degree) for every system of the
    stratum; over GF(2), L is the all-ones matrix.  So the cost of a
    stratum varies little from seed to seed.
    """
    from ffzeta.gf import make_field
    from ffzeta.polycore import Poly, polyring
    from ffzeta.polymat import det

    rng = random.Random(f"corpus-routes/{seed}")
    strata = [(pe, slot) for pe in CORPUS_FIELDS for slot in range(len(CORPUS_DIMS))]
    out = []
    block = 0
    while len(out) < pool:
        order = list(strata)
        rng.shuffle(order)
        for (p, e), slot in order:
            d = CORPUS_DIMS[slot]
            field = make_field(p, e)
            ring = polyring(field)
            maxdeg = 1 + (block + slot) % 2
            while True:
                rows = [
                    [
                        [rng.randrange(field.q) for _ in range(maxdeg)] + [rng.randrange(1, field.q)]
                        for _ in range(d)
                    ]
                    for _ in range(d)
                ]
                # over GF(2) every leading coefficient is 1, so L is singular
                lead = [[Poly(field, c[-1:]) for c in row] for row in rows]
                if field.q == 2 or det(ring, lead):
                    if det(ring, [[Poly(field, c) for c in row] for row in rows]):
                        break
            out.append({"p": p, "e": e, "d": d, "matrix": rows, "kmax": CORPUS_K})
        block += 1
    return out[:pool]


# ---------------------------------------------------------------------------
# cli-cap
# ---------------------------------------------------------------------------


def _cli_doc(rng: random.Random, p: int, e: int, d: int, maxdeg: int) -> dict:
    def coeff():
        return rng.randrange(p) if e == 1 else [rng.randrange(p) for _ in range(e)]

    matrix = []
    for _ in range(d):
        row = []
        for _ in range(d):
            deg = rng.randint(0, maxdeg)
            entry = [coeff() for _ in range(deg)]
            lead = rng.randrange(1, p) if e == 1 else [rng.randrange(1, p)] + [0] * (e - 1)
            row.append(entry + [lead])
        matrix.append(row)
    # one entry reaches the degree cap exactly
    i, j = rng.randrange(d), rng.randrange(d)
    matrix[i][j] = [coeff() for _ in range(maxdeg)] + [lead]
    return {"p": p, "e": e, "d": d, "matrix": matrix}


# (p, e, d, max entry degree, [command argv tails]) of the seeded cap inputs.
# Every command but report runs at d = 8, degree 32.  report runs with its
# defaults at d = 4, degree 8: at d = 8 it takes 3.3 s even at degree 4
# (42 s at degree 32), and run twice per round it would take half the
# run's time.
CLI_SHAPES = (
    (2, 1, 8, 32, (["classify"], ["nk", "--max", "3"])),
    (7, 1, 8, 32, (["entropy"], ["zeta", "--terms", "3"])),
    (2, 2, 8, 32, (["classify"],)),
    (7, 1, 4, 8, (["report"],)),
)


def _nonsingular(doc) -> bool:
    from ffzeta.gf import make_field
    from ffzeta.polycore import Poly, polyring
    from ffzeta.polymat import det

    p, e = doc["p"], doc["e"]
    field = make_field(p, e)

    def packed(c):
        return c if e == 1 else sum(x * p**i for i, x in enumerate(c))

    A = [[Poly(field, [packed(c) for c in entry]) for entry in row] for row in doc["matrix"]]
    return bool(det(polyring(field), A))


def cli_cap(seed: int, problems: list, rounds: int = CLI_ROUNDS) -> list:
    """Ops as {"argv": command and options, "doc": problem document}.

    A round runs every command on every problem file and every cap
    command on fresh seeded inputs.  The order inside a round is fixed and
    spreads the slow cap commands evenly.
    """
    rng = random.Random(f"cli-cap/{seed}")
    out = []
    for _ in range(rounds):
        small = [{"argv": [cmd], "doc": doc} for doc in problems for cmd in CLI_COMMANDS]
        cap = []
        for p, e, d, maxdeg, cmds in CLI_SHAPES:
            doc = _cli_doc(rng, p, e, d, maxdeg)
            while not _nonsingular(doc):
                doc = _cli_doc(rng, p, e, d, maxdeg)
            cap += [{"argv": list(argv), "doc": doc} for argv in cmds]
        n, c = len(small) + len(cap), len(cap)
        for k in range(n):
            if (k + 1) * c // n > k * c // n:
                out.append(cap.pop(0))
            else:
                out.append(small.pop(0))
    return out


# ---------------------------------------------------------------------------
# spectral-wide
# ---------------------------------------------------------------------------


def spectral_fields(rounds: int = SPECTRAL_ROUNDS) -> list:
    """(p, e, d, delta, pattern) of each op in pool order.

    A round is eight ops in a fixed order: both extension fields, five
    primes in [2**20 - 2**16, 2**20) and one prime in [2**31, 2**62].  Dimension d,
    companion degree delta, the residual's factor pattern and the bit
    length of the big prime step through their ranges with the op's
    position rather than being drawn.  The primes are drawn once, from a
    fixed generator, and are the same for every seed: which ops overrun
    their budget in ``factorint`` depends on the prime alone, so every
    seed gets the same mix and the same failures, and only the field
    elements differ.
    """
    rng = random.Random("spectral-fields")
    out = []
    for r in range(rounds):
        bits = 32 + (7 * r) % 31
        big = (random_prime(rng, 2 ** (bits - 1), 2**bits), 1)
        small = [(random_prime(rng, 2**20 - 2**16, 2**20), 1) for _ in range(5)]
        fields = [SPECTRAL_EXT[0], small[0], small[1], big, SPECTRAL_EXT[1]] + small[2:]
        for s, (p, e) in enumerate(fields):
            a = r // 3
            d, delta = 6 + (a + s) % 3, 2 + (2 * a + s + 1) % 3
            pattern = PATTERNS[(r + s) % 3]
            if pattern == "split" and a % 2:
                pattern = "split-tr"
            out.append((p, e, d, delta, pattern))
    return out


# Factor patterns of the slope-zero residual (degree m = d - delta - 1):
#   irr    one irreducible of degree m;
#   mixed  factors of distinct degrees 1 and m - 1 (irr when m < 3);
#   split  two distinct factors of one degree (irr when m < 2), which
#          sends factor() through equal-degree splitting.
# In characteristic 2 the splitter's first 5000 candidates X + c all give
# the same answer, decided by the absolute traces of the two factors'
# roots: if they are equal, factor() falls through to its slow fallback.
# "split-tr" (every other group of three rounds) draws the two factors
# with equal traces and "split" with different ones, so the number of
# slow splits is the same for every seed.  Three linear factors (m = 3)
# always include two with equal traces.
PATTERNS = ("irr", "mixed", "split")


def _degrees(pattern: str, m: int) -> list:
    if pattern == "mixed" and m >= 3:
        return [1, m - 1]
    if pattern.startswith("split") and m >= 2:
        return [m // 2, m // 2] + ([1] if m % 2 else [])
    return [m]


def spectral_wide(seed: int, rounds: int = SPECTRAL_ROUNDS) -> list:
    """Block sums diag(companion(g), C + t u v^T).

    g is a random monic irreducible of degree delta, so the first block
    carries root-of-unity eigenvalues.  In the second block of size r the
    t-slice of the characteristic polynomial is v^T adj(X - C) u, which is
    the residual of the slope-zero Newton edge (of length r - 1; the
    entropy exponent is 1).  C is a companion matrix and u = e_1, so v
    can be solved for to make that residual a chosen product R of random
    irreducibles; a random unipotent change of basis then makes C, u and
    v dense.
    """
    from ffzeta.gf import make_field
    from ffzeta.polycore import Poly, is_irreducible

    rng = random.Random(f"spectral-wide/{seed}")
    out = []
    for p, e, d, delta, pattern in spectral_fields(rounds):
        field = make_field(p, e)
        q = field.q
        sub, mul = field.sub, field.mul

        def irreducible(k, avoid=()):
            while True:
                f = Poly(field, [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(k - 1)] + [1])
                if f not in avoid and is_irreducible(field, f):
                    return f

        g = irreducible(delta)
        r = d - delta
        R = Poly.const(field, rng.randrange(1, q))
        factors = []
        for k in _degrees(pattern, r - 1):
            factors.append(irreducible(k, avoid=factors))
        degs = [f.degree for f in factors]
        if p == 2 and len(degs) > 1 and degs[0] == degs[1] and degs != [1, 1, 1]:
            # second factor redrawn until its trace relation is the pattern's
            same = pattern == "split-tr"
            while (_trace_of_root(field, factors[0]) == _trace_of_root(field, factors[1])) != same:
                factors[1] = irreducible(degs[1], avoid=factors[:1])
        for factor in factors:
            R = R * factor
        f = [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(r - 1)] + [1]
        # adj(X - C) e_1 has entries y_j = sum_{k >= j} f_k X^(k - j), monic
        # of degree r - j, so v^T y = R is triangular in v.
        rest = list(R.coeffs) + [0] * (r - len(R.coeffs))
        v = []
        for j in range(r):
            vj = rest[r - 1 - j]
            v.append(vj)
            for k in range(j + 1, r + 1):
                rest[k - j - 1] = sub(rest[k - j - 1], mul(vj, f[k]))
        C = [[0] * r for _ in range(r)]
        for i in range(1, r):
            C[i][i - 1] = 1
        for i in range(r):
            C[i][r - 1] = field.neg(f[i])
        u = [1] + [0] * (r - 1)
        # S = I + L, L strictly lower triangular; S^-1 = sum (-L)^k
        L = [[rng.randrange(q) if j < i else 0 for j in range(r)] for i in range(r)]
        S = _mat_add(field, _identity(r), L)
        negL = [[field.neg(x) for x in row] for row in L]
        Sinv, term = _identity(r), _identity(r)
        for _ in range(r - 1):
            term = _mat_mul(field, term, negL)
            Sinv = _mat_add(field, Sinv, term)
        C = _mat_mul(field, _mat_mul(field, S, C), Sinv)
        u = [_dot(field, row, u) for row in S]
        v = [_dot(field, v, col) for col in zip(*Sinv)]
        rows = [[[0] for _ in range(d)] for _ in range(d)]
        for i in range(1, delta):
            rows[i][i - 1] = [1]
        for i in range(delta):
            rows[i][delta - 1] = [field.neg(g.coeff(i))]
        for i in range(r):
            for j in range(r):
                rows[delta + i][delta + j] = [C[i][j], mul(u[i], v[j])]
        out.append({"p": p, "e": e, "d": d, "matrix": rows})
    return out


def _trace_of_root(field, f):
    """Absolute trace of a root of the monic irreducible f over GF(2^e).

    Tr over GF(2) of a root is Tr_{GF(2^e)/GF(2)} of the sum of the roots,
    which is the coefficient of X^(deg f - 1) (in characteristic 2).
    """
    x, tr = f.coeff(f.degree - 1), 0
    for _ in range(field.e):
        tr = field.add(tr, x)
        x = field.mul(x, x)
    return tr


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _dot(field, xs, ys):
    acc = 0
    for x, y in zip(xs, ys):
        acc = field.add(acc, field.mul(x, y))
    return acc


def _mat_mul(field, A, B):
    return [[_dot(field, row, col) for col in zip(*B)] for row in A]


def _mat_add(field, A, B):
    return [[field.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]
