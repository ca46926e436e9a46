#!/usr/bin/env python3
"""Re-run the corpus cross-checks outside pytest, with timing.

Compares the spectral N_k formula against ``nk_table`` for every corpus
matrix and k <= KMAX, and ``nk_table`` against ``nk_direct`` (one
determinant at every k, where the table often has a forced answer) for
k <= 6.  Then the two series routes to order KMAX (closed form against
the N_k recurrence on algebraic systems, and the inverse recurrence back
to the N_k on every system), then the three fixed-point routes where each
applies.  Then ``gf._root_order`` on random irreducibles of degree 2 to 4
over GF(1048573), GF(2^61 - 1) and GF(2^63 - 25), and over GF(4), GF(9),
GF(2^8), GF(2^16), GF(3^10), GF(5^3), GF(7^2) and GF(1021^2), against
the descent from X over every prime of q^delta - 1 by Poly products and
remainders (``descent_order``).  Over odd p these share no code with the
residue kernel: the packed ints of a prime field and the Zech-log lists
of an extension field.  Over p = 2 they run on the same ``poly_mul`` and
``poly_divmod`` as the residue product, so there the stage checks the
product built on them, the norm read and the split of the primes.  Where
the group order is past the rho budget, ``_root_order`` must say so.
Last, when sympy is installed, the
d = 8, degree-32 cap inputs
against sympy over GF(2)[t]: ``charpoly`` against ``DomainMatrix.charpoly``
on the dense one and the permuted block-triangular one, and N_2 and N_3 of
the dense one against the determinant of A^k - I.
Prints one summary line per stage and exits 1 if any route disagrees:

    PYTHONPATH=src python3 scripts/corpus_regression.py           # KMAX = 40
"""

import argparse
import random
import sys
import time

from ffzeta import (
    NkValue,
    Poly,
    charpoly,
    errors,
    fixed_points_bruteforce,
    fixed_points_smith,
    make_field,
    nk_direct,
    nk_spectral,
    nk_table,
    polyring,
    system_data,
)
from ffzeta.corpus import block_cap_system, cap_system, corpus, is_bruteforce_sized
from ffzeta.gf import _order_from, _root_order
from ffzeta.integers import factor_group_order
from ffzeta.polycore import is_irreducible, power
from ffzeta.zeta import (
    classify,
    nk_from_series,
    series_from_closed_form,
    series_from_nk,
)

DIRECT_KMAX = 6
CAP_KS = (2, 3)
ROOT_FIELDS = (  # (p, e)
    (1048573, 1), (2**61 - 1, 1), (2**63 - 25, 1),
    (2, 2), (3, 2), (2, 8), (2, 16), (3, 10), (5, 3), (7, 2), (1021, 2),
)
ROOT_DEGREES = (2, 3, 4)
ROOT_POLYS = 3  # irreducibles per field and degree


def sympy_matrix(A, p):
    """A as a sympy DomainMatrix over GF(p)[t], and the entry lift."""
    import sympy
    from sympy.polys.matrices import DomainMatrix

    t = sympy.symbols("t")
    dom = sympy.GF(p)[t]

    def lift(a):
        return dom.from_sympy(sum(c * t**i for i, c in enumerate(a.coeffs)))

    d = len(A)
    return DomainMatrix([[lift(a) for a in row] for row in A], (d, d), dom), lift


def sympy_nk(M, k):
    """N_k of the sympy matrix M from its determinant of M^k - I."""
    from sympy.polys.matrices import DomainMatrix

    D = (M**k - DomainMatrix.eye(M.shape[0], M.domain)).det()
    return NkValue.of(D.degree()) if D else NkValue.zero()


def descent_order(field, f, fac):
    """The order of X mod f by ``_order_from`` over every prime of fac,
    the group order, each power by Poly products and remainders."""
    one = Poly.const(field, field.one)

    def pw(y, k):
        return power(y, k, lambda a, b: (a * b) % f, one)

    return _order_from(fac, Poly.x(field), pw, one)


def root_order_stage():
    """(polynomials checked, group orders past the rho budget, mismatches)."""
    checked = capped = bad = 0
    for p, e in ROOT_FIELDS:
        field = make_field(p, e)
        q, rng = field.q, random.Random(field.q)
        for delta in ROOT_DEGREES:
            polys = []
            while len(polys) < ROOT_POLYS:
                f = Poly(field, [rng.randrange(1, q)]
                         + [rng.randrange(q) for _ in range(delta - 1)] + [1])
                if is_irreducible(field, f):
                    polys.append(f)
            try:
                fac = factor_group_order(q, delta)
            except errors.CapExceededError:
                # past the rho budget: _root_order must stop there too
                capped += 1
                try:
                    _root_order(field, polys[0])
                    bad += 1
                except errors.CapExceededError:
                    pass
                continue
            for f in polys:
                checked += 1
                bad += _root_order(field, f) != descent_order(field, f, fac)
    return checked, capped, bad


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--kmax", type=int, default=40)
    args = ap.parse_args()

    t0 = time.time()
    cases = corpus()
    print(f"corpus: {len(cases)} matrices in {time.time() - t0:.2f}s")

    t0 = time.time()
    mismatches = 0
    analysed = []
    for field, A in cases:
        sd = system_data(field, A)
        direct = nk_table(field, A, args.kmax)
        analysed.append((field, sd, direct))
        for k in range(1, args.kmax + 1):
            if nk_spectral(field, sd, k) != direct[k - 1]:
                mismatches += 1
    print(f"nk routes (k <= {args.kmax}): {mismatches} mismatches "
          f"in {time.time() - t0:.2f}s")

    t0 = time.time()
    kd = min(DIRECT_KMAX, args.kmax)
    det_bad = sum(
        nk_direct(field, A, k) != direct[k - 1]
        for (field, A), (_, _, direct) in zip(cases, analysed)
        for k in range(1, kd + 1)
    )
    print(f"direct vs table (k <= {kd}): {det_bad} mismatches "
          f"in {time.time() - t0:.2f}s")

    t0 = time.time()
    algebraic = series_bad = 0
    for field, sd, direct in analysed:
        nk_series = series_from_nk(field.q, direct, args.kmax)
        zres = classify(sd)
        if zres.algebraic:
            algebraic += 1
            cf_series = series_from_closed_form(zres.closed_form, args.kmax)
            series_bad += cf_series != nk_series
        try:
            back = nk_from_series(nk_series)
        except errors.MalformedInputError:
            back = None
        series_bad += back != [v.as_int(field.q) for v in direct]
    print(f"series routes (order {args.kmax}): {len(analysed)} systems, "
          f"{algebraic} algebraic, {series_bad} mismatches "
          f"in {time.time() - t0:.2f}s")

    t0 = time.time()
    bad = sum(
        fixed_points_smith(field, A) != nk_direct(field, A, 1)
        for field, A in cases
    )
    print(f"smith route: {bad} mismatches in {time.time() - t0:.2f}s")

    t0 = time.time()
    checked = brute_bad = 0
    for field, A in cases:
        if not is_bruteforce_sized(field, A):
            continue
        n1 = nk_direct(field, A, 1)
        try:
            count = fixed_points_bruteforce(field, A)
        except errors.SingularMatrixError:
            brute_bad += not n1.is_zero
            continue
        brute_bad += count != n1.as_int(field.q)
        checked += 1
    print(f"bruteforce route: {checked} instances, {brute_bad} mismatches "
          f"in {time.time() - t0:.2f}s")

    t0 = time.time()
    checked, capped, root_bad = root_order_stage()
    print(f"root orders (delta 2..4 over GF(1048573), GF(2^61 - 1), GF(2^63 - 25), "
          f"GF(4), GF(9), GF(2^8), GF(2^16), GF(3^10), GF(5^3), GF(7^2), GF(1021^2)): "
          f"{checked} polynomials, {capped} group orders past the rho budget, "
          f"{root_bad} mismatches in {time.time() - t0:.2f}s")

    t0 = time.time()
    cap_bad = 0
    try:
        import sympy  # noqa: F401
    except ImportError:
        print("cap oracle: sympy not installed, skipped")
    else:
        for field, A in (block_cap_system(), cap_system()):
            M, lift = sympy_matrix(A, field.p)
            P = charpoly(polyring(field), A)
            cap_bad += M.charpoly() != [lift(c) for c in reversed(P.coeffs)]
        # field, A and M are the dense input's from here on
        table = nk_table(field, A, max(CAP_KS))
        cap_bad += sum(sympy_nk(M, k) != table[k - 1] for k in CAP_KS)
        print(f"cap oracle (d = 8, degree 32, GF(2), charpoly of the dense and "
              f"the block-triangular input, k in {CAP_KS}): {cap_bad} mismatches "
              f"in {time.time() - t0:.2f}s")
    failures = (mismatches, det_bad, series_bad, bad, brute_bad, root_bad, cap_bad)
    return 1 if any(failures) else 0


if __name__ == "__main__":
    sys.exit(main())
