"""Exact matrix routines over a commutative coefficient ring.

Matrices are plain lists of lists whose entries belong to an explicit
domain (finite field elements or polynomials over a finite field).
Determinants and characteristic polynomials are division-free, using only
``mul``, ``add``, ``neg`` and ``dot``: ``det`` expands row by row over
memoized column-subset minors, at most d * 2^(d-1) ring products for a
d x d matrix, over any domain; ``charpoly`` is Berkowitz's recursion over
the entry ring on each strongly connected block, O(d^4) ring products.
``mat_mul`` and ``charpoly`` build every sum of products as one
``dom.dot``, which is ``PolyRing.dot``, so their entry ring is F[t] over
a field: one ``poly_dot`` of the field per entry, reduced once.  Powers
go through ``polycore.power``, and diagonalization through a gcd-driven
Smith reduction that needs a Euclidean entry ring (polynomials over a
field).
"""

from __future__ import annotations

import math
from itertools import compress
from typing import NamedTuple

from . import errors
from .polycore import Poly, power


class SmithForm(NamedTuple("SmithForm", [("invariant_factors", tuple), ("rank", int)])):
    """Invariant factors b_1 | b_2 | ... | b_r (monic, nonzero) and rank."""

    __slots__ = ()

    def __new__(cls, invariant_factors: tuple, rank: int):
        if len(invariant_factors) != rank:
            raise errors.InternalInvariantError("rank disagrees with factor count")
        return super().__new__(cls, invariant_factors, rank)


def identity(dom, d: int) -> list:
    return [[dom.one if i == j else dom.zero for j in range(d)] for i in range(d)]


def mat_mul(dom, A: list, B: list) -> list:
    cols = list(zip(*B))
    return [[dom.dot(row, col) for col in cols] for row in A]


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
        cols = [(j, 1 << j, (a, dom.neg(a))) for j, a in enumerate(row) if a]
        nxt = {}
        for S, m in minors.items():
            for j, bit, signed in cols:
                if S & bit:
                    continue
                term = dom.mul(signed[(S >> (j + 1)).bit_count() & 1], m)
                T = S | bit
                nxt[T] = dom.add(nxt[T], term) if T in nxt else term
        minors = {S: m for S, m in nxt.items() if m}
        if not minors:
            return dom.zero
    return minors[(1 << len(A)) - 1]


def charpoly(ring, A: list) -> Poly:
    """det(X*I - A), monic of degree d: ``_berkowitz`` on each strongly
    connected block of A's nonzero pattern (A is block triangular ordered by
    them), multiplied.  reach[i], the bitmask of the j that i reaches, i
    included, is closed by Warshall's rule; rows of equal reach are a block."""
    bits = [1 << j for j in range(len(A))]
    reach = [sum(compress(bits, row)) | bit for row, bit in zip(A, bits)]
    for k, bit in enumerate(bits):
        via = reach[k]
        reach = [r | via if r & bit else r for r in reach]
    blocks = [[i for i, r in enumerate(reach) if r == key] for key in dict.fromkeys(reach)]
    subs = [A] if len(blocks) == 1 else [[[A[i][j] for j in b] for i in b] for b in blocks]
    polys = [_berkowitz(ring, M) for M in subs]
    f = math.prod(polys[1:], start=polys[0]) if polys else Poly(ring, [ring.one])
    if f.degree != len(A) or not f.is_monic():
        raise errors.InternalInvariantError("characteristic polynomial not monic")
    return f


def _berkowitz(ring, A: list) -> Poly:
    """det(X*I - A) by Berkowitz's recursion.

    c is the charpoly of the leading r x r block M, highest coefficient
    first.  With a = A[r][r] and R, S the rest of row r and column r, the
    next block's is c times the lower-triangular Toeplitz matrix with first
    column 1, -a, -R.S, -R.M.S, ..., -R.M^(r-1).S (Inf. Process. Lett. 18,
    1984).  Division-free: only ring's dot and neg, so ring is F[t].
    """
    c = [ring.one]
    for r, row in enumerate(A):
        S = [A[i][r] for i in range(r)]
        col = [ring.one, ring.neg(row[r])]
        for k in range(r):
            if k:
                S = [ring.dot(A[i], S) for i in range(r)]
            col.append(ring.neg(ring.dot(row, S)))
        c.append(ring.zero)
        c = [ring.dot(c[i::-1], col) for i in range(r + 2)]
    return Poly(ring, c[::-1])


def companion(ring, f: Poly) -> list:
    """Companion matrix of a monic f over ring; charpoly(companion(f)) = f."""
    if not f.is_monic() or f.degree < 1:
        raise errors.MalformedInputError("companion matrix needs a monic polynomial")
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
        cells = [(i, j) for i in range(top, d) for j in range(top, d) if M[i][j]]
        return min(cells, key=lambda ij: M[ij[0]][ij[1]].degree, default=None)

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
            rest = range(top + 1, d)
            offender = next((r for r in rest if any(M[r][c] % pivot for c in rest)), None)
            if offender is None:
                break
            M[top] = [a + b for a, b in zip(M[top], M[offender])]
        out.append(M[top][top].monic())
    return SmithForm(tuple(out), len(out))
