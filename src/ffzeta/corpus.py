"""Deterministic matrix corpus shared by tests and regression scripts.

Six small fields, 36 matrices each.  Dimensions cycle through 1..4 and
entry degrees through 1 and 2, so the corpus exercises every field with a
spread of sizes while staying cheap; singular draws are rejected and
redrawn from the same stream, keeping the corpus a pure function of the
seed.  The tiny instances (q <= 3, d <= 2, degree <= 1) double as
bruteforce-checkable fixed-point cases.  ``cap_system`` is one seeded
input at the entry caps for the outside determinant oracle (over GF(4)
for the change-of-scalars check), and ``block_cap_system`` a
block-triangular one for the charpoly oracle.
``restrict_scalars`` rewrites a system over GF(p^e) as one over GF(p)
with the same torus, for the change-of-scalars checks.
"""

from __future__ import annotations

import random

from .gf import make_field
from .polycore import Poly, polyring
from .polymat import det

CORPUS_SEED = 412870
CAP_SEED = 7
FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2))
PER_FIELD = 36


def corpus():
    """List of (field, matrix) pairs, 216 in all, det != 0 throughout."""
    rng = random.Random(CORPUS_SEED)
    out = []
    for p, e in FIELDS:
        field = make_field(p, e)
        ring = polyring(field)
        for i in range(PER_FIELD):
            d = 1 + i % 4
            maxdeg = 1 if i % 3 == 0 else 2
            while True:
                A = [
                    [
                        Poly(field, [rng.randrange(field.q) for _ in range(maxdeg + 1)])
                        for _ in range(d)
                    ]
                    for _ in range(d)
                ]
                if det(ring, A):
                    break
            out.append((field, A))
    return out


def is_bruteforce_sized(field, A) -> bool:
    return (
        field.q <= 3
        and len(A) <= 2
        and all(entry.degree <= 1 for row in A for entry in row)
    )


def cap_system(p: int = 2, e: int = 1):
    """(GF(p^e), A): d = 8, entries of degree <= 32, one of degree 32
    exactly; GF(2) by default, and GF(4) for the change-of-scalars check.

    The first nonsingular draw from random.Random(CAP_SEED), in the order
    of the bench's ``_cli_doc(rng, p, e, 8, 32)``: each entry a random
    degree, its lower coefficients (e digits each, low first) and a
    nonzero leading one in GF(p), then one entry of full degree.
    """
    d, maxdeg = 8, 32
    field = make_field(p, e)
    rng = random.Random(CAP_SEED)

    def coeff():
        return sum(rng.randrange(p) * p**i for i in range(e))

    while True:
        rows = []
        for _ in range(d):
            row = []
            for _ in range(d):
                cs = [coeff() for _ in range(rng.randint(0, maxdeg))]
                lead = rng.randrange(1, p)
                row.append(cs + [lead])
            rows.append(row)
        i, j = rng.randrange(d), rng.randrange(d)
        rows[i][j] = [coeff() for _ in range(maxdeg)] + [lead]
        A = [[Poly(field, cs) for cs in row] for row in rows]
        if det(polyring(field), A):
            return field, A


def block_cap_system():
    """(GF(2), B): cap_system's matrix (no zero entry) with the entries below
    diagonal blocks of sizes 3, 1, 4 zeroed, rows and columns then permuted
    by random.Random(CAP_SEED); the blocks are its strong components."""
    field, A = cap_system()
    block, perm = (0, 0, 0, 1, 2, 2, 2, 2), random.Random(CAP_SEED).sample(range(8), 8)
    zero = Poly(field)
    return field, [[A[i][j] if block[i] <= block[j] else zero for j in perm] for i in perm]


def restrict_scalars(field, A):
    """(GF(p), Res(A)) for A over F = GF(p^e) = GF(p)[z]/(g).

    F[t] is a free GF(p)[t]-module on 1, z, ..., z^(e - 1), so A acts on
    the same torus as the ed x ed matrix Res(A) over GF(p)[t] that puts in
    place of each entry a = sum c_k t^k the e x e block of x -> a x: its
    entry (i, j) is sum_k (digit i of c_k z^j) t^k.  The digits come from
    Poly arithmetic over GF(p) mod g, not from the field's tables.  Over a
    prime field Res(A) is A.
    """
    p, e = field.p, field.e
    base = make_field(p)
    g = Poly(base, field.modulus)

    def block(a):
        # rows[j][k]: the digits of c_k z^j mod g, low first
        rows = [
            [(Poly(base, [0] * j + [c // p**i % p for i in range(e)]) % g).coeffs
             for c in a.coeffs]
            for j in range(e)
        ]
        return [
            [Poly(base, [ds[i] if i < len(ds) else 0 for ds in rows[j]]) for j in range(e)]
            for i in range(e)
        ]

    blocks = [[block(a) for a in row] for row in A]
    return base, [
        [blocks[r][s][i][j] for s in range(len(A)) for j in range(e)]
        for r in range(len(A))
        for i in range(e)
    ]
