"""Deterministic matrix corpus shared by tests and regression scripts.

Six small fields, 36 matrices each.  Dimensions cycle through 1..4 and
entry degrees through 1 and 2, so the corpus exercises every field with a
spread of sizes while staying cheap; singular draws are rejected and
redrawn from the same stream, keeping the corpus a pure function of the
seed.  The tiny instances (q <= 3, d <= 2, degree <= 1) double as
bruteforce-checkable fixed-point cases.  ``cap_system`` is one seeded
input at the entry caps for the outside determinant oracle, and
``block_cap_system`` a block-triangular one for the charpoly oracle.
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


def cap_system():
    """(GF(2), A): d = 8, entries of degree <= 32, one of degree 32 exactly.

    The first nonsingular draw from random.Random(CAP_SEED), in the order
    of the bench's ``_cli_doc(rng, 2, 1, 8, 32)``: each entry a random
    degree, its lower coefficients and a nonzero leading one, then one
    entry of full degree.
    """
    p, d, maxdeg = 2, 8, 32
    field = make_field(p)
    rng = random.Random(CAP_SEED)
    while True:
        rows = []
        for _ in range(d):
            row = []
            for _ in range(d):
                cs = [rng.randrange(p) for _ in range(rng.randint(0, maxdeg))]
                lead = rng.randrange(1, p)
                row.append(cs + [lead])
            rows.append(row)
        i, j = rng.randrange(d), rng.randrange(d)
        rows[i][j] = [rng.randrange(p) for _ in range(maxdeg)] + [lead]
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
