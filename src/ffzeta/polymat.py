"""Exact matrix routines over a commutative coefficient ring.

Matrices are plain lists of lists whose entries belong to an explicit
domain (finite field elements, polynomials over a finite field, nested
polynomials).  Determinants and characteristic polynomials are
division-free: ``det`` expands row by row over memoized column-subset
minors, at most d * 2^(d-1) ring products for a d x d matrix, using only
``mul``, ``add`` and ``neg``; ``charpoly`` is that same ``det`` over the
nested ring F[t][X].  Powers go through ``polycore.power``, and
diagonalization through a gcd-driven Smith reduction that needs a
Euclidean entry ring (polynomials over a field).
"""

from __future__ import annotations

import dataclasses

from . import errors
from .polycore import Poly, polyring, power


@dataclasses.dataclass(frozen=True)
class SmithForm:
    """Invariant factors b_1 | b_2 | ... | b_r (monic, nonzero) and rank."""

    invariant_factors: tuple
    rank: int

    def __post_init__(self):
        if len(self.invariant_factors) != self.rank:
            raise errors.InternalInvariantError("rank disagrees with factor count")


def identity(dom, d: int) -> list:
    return [[dom.one if i == j else dom.zero for j in range(d)] for i in range(d)]


def mat_mul(dom, A: list, B: list) -> list:
    n, mid, m = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        row = []
        Ai = A[i]
        for j in range(m):
            acc = dom.zero
            for k in range(mid):
                if dom.is_zero(Ai[k]):
                    continue
                acc = dom.add(acc, dom.mul(Ai[k], B[k][j]))
            row.append(acc)
        out.append(row)
    return out


def mat_sub(dom, A: list, B: list) -> list:
    return [
        [dom.sub(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)
    ]


def matpow(dom, A: list, k: int) -> list:
    if k < 0:
        raise ValueError("negative matrix power")
    return power(A, k, lambda X, Y: mat_mul(dom, X, Y), identity(dom, len(A)))


def matpow_minus_I(dom, A: list, k: int) -> list:
    return mat_sub(dom, matpow(dom, A, k), identity(dom, len(A)))


def det(dom, A: list):
    """Division-free determinant by subset-minor expansion.

    Goes down the rows in order, like a Laplace expansion, keeping the
    minors of the rows seen so far keyed by their column subset S (a
    bitmask).  Row r with an entry in column j not in S adds
    (-1)^#{c in S : c > j} * A[r][j] * minor[S] to minor[S | {j}].  Zero
    entries and zero minors are skipped, and each entry is negated once per
    row rather than once per product.  The cost is at most d * 2^(d-1)
    products of an entry by a minor, and no division is ever made.
    """
    minors = {0: dom.one}
    for row in A:
        cols = [
            (j, 1 << j, (a, dom.neg(a)))
            for j, a in enumerate(row)
            if not dom.is_zero(a)
        ]
        nxt = {}
        for S, m in minors.items():
            for j, bit, signed in cols:
                if S & bit:
                    continue
                term = dom.mul(signed[(S >> (j + 1)).bit_count() & 1], m)
                T = S | bit
                nxt[T] = dom.add(nxt[T], term) if T in nxt else term
        minors = {S: m for S, m in nxt.items() if not dom.is_zero(m)}
        if not minors:
            return dom.zero
    return minors[(1 << len(A)) - 1]


def charpoly(ring, A: list) -> Poly:
    """det(X*I - A) for a matrix with entries in ring; monic of degree d."""
    outer = polyring(ring)
    d = len(A)
    char = [
        [
            Poly(ring, [ring.neg(A[i][j]), ring.one])
            if i == j
            else Poly(ring, [ring.neg(A[i][j])])
            for j in range(d)
        ]
        for i in range(d)
    ]
    f = det(outer, char)
    if f.degree != d or not f.is_monic():
        raise errors.InternalInvariantError("characteristic polynomial not monic")
    return f


def companion(ring, f: Poly) -> list:
    """Companion matrix of a monic f over ring; charpoly(companion(f)) = f."""
    if not f.is_monic() or f.degree < 1:
        raise errors.NonMonicError("companion matrix needs a monic polynomial")
    d = f.degree
    M = [[ring.zero for _ in range(d)] for _ in range(d)]
    for i in range(1, d):
        M[i][i - 1] = ring.one
    for i in range(d):
        M[i][d - 1] = ring.neg(f.coeff(i))
    return M


def smith(field, A: list) -> SmithForm:
    """Smith form of a square matrix over F[t].

    Returns the chain of monic invariant factors b_1 | b_2 | ... | b_r;
    rank r is short of d exactly when the matrix is singular.  Entries of
    A are Poly over field.
    """
    d = len(A)
    M = [[Poly(field, e.coeffs) for e in row] for row in A]
    out = []

    def min_entry(top):
        best = None
        for i in range(top, d):
            for j in range(top, d):
                if M[i][j] and (best is None or M[i][j].degree < M[best[0]][best[1]].degree):
                    best = (i, j)
        return best

    for top in range(d):
        while True:
            pos = min_entry(top)
            if pos is None:
                return SmithForm(tuple(out), len(out))
            i, j = pos
            M[top], M[i] = M[i], M[top]
            for row in M:
                row[top], row[j] = row[j], row[top]
            pivot = M[top][top]
            dirty = False
            for r in range(top + 1, d):
                if M[r][top]:
                    q = M[r][top] // pivot
                    M[r] = [a - q * b for a, b in zip(M[r], M[top])]
                    if M[r][top]:
                        dirty = True
            if dirty:
                continue
            for c in range(top + 1, d):
                if M[top][c]:
                    q = M[top][c] // pivot
                    for r in range(top, d):
                        M[r][c] = M[r][c] - q * M[r][top]
                    if M[top][c]:
                        dirty = True
            if dirty:
                continue
            # pivot must divide the rest of the block for b_i | b_{i+1}
            offender = None
            for r in range(top + 1, d):
                for c in range(top + 1, d):
                    if M[r][c] % pivot:
                        offender = r
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            M[top] = [a + b for a, b in zip(M[top], M[offender])]
        out.append(M[top][top].monic())
    return SmithForm(tuple(out), len(out))
