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
remainders (``descent_order``).  These share no code with the residue
kernel, for p = 2 as for odd p: the packed ints of a prime field and the
Zech-log lists of an extension field.  Where the group order is past the
rho budget, ``_root_order`` must say so.  Then the change of scalars,
with no sympy (``change_of_scalars_stage``): Res(A) over GF(p) of every
GF(4) and GF(9) system (``corpus.restrict_scalars``) and of the GF(4)
cap input (``corpus.cap_system(2, 2)``, d = 8, degree 32, to k = 12),
and every prime-field system read over GF(p^2) and GF(p^3), the GF(2)
ones over GF(2^8) too, against the system itself, to k = 24: the N_k
table, the spectral N_k, E, the classification and the series.  The
extension side runs the e >= 2 code, root orders over GF(4), GF(8) and
GF(2^8) included, on inputs whose answers the prime-field code gives.
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
from ffzeta.corpus import (
    block_cap_system,
    cap_system,
    corpus,
    is_bruteforce_sized,
    restrict_scalars,
)
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
SCALARS_KMAX = 24
CAP_SCALARS_KMAX = 12  # the GF(4) cap input's Res(A) is 16 x 16 over GF(2)
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


def change_of_scalars_stage(cases, kmax):
    """(pairs checked, mismatches) of the change of scalars: A over
    GF(p^e), e >= 2, against Res(A) over GF(p) (r = e), the GF(4) cap
    input among them at k <= CAP_SCALARS_KMAX, and A over GF(p) against
    A read over GF(p^m), m = 2, 3, and m = 8 for p = 2 (r = 1).  Both
    are the same torus with q^x points read in units r times smaller, or
    the same polynomials over a larger field, so the second system's
    exponents are r times the first's: the N_k table, the spectral N_k
    and E.  The classification (closed-form factors or certificate) is
    the same, and the second system's series, from its table and its
    closed form, is that of the first one's exponents times r at the
    second q."""

    def answers(field, A, kmax):
        sd = system_data(field, A)
        table = nk_table(field, A, kmax)
        zres = classify(sd)
        series = {series_from_nk(field.q, table, kmax)}
        if zres.algebraic:
            series.add(series_from_closed_form(zres.closed_form, kmax))
        form = zres.closed_form and zres.closed_form.factors
        return (table, [nk_spectral(field, sd, k) for k in range(1, kmax + 1)],
                sd.E, (zres.algebraic, form, zres.certificate), series)

    # (field, A, field2, A2, r, k): exponents of A2 are r times A's, to k
    field, A = cap_system(2, 2)
    pairs = [(field, A, *restrict_scalars(field, A), field.e, min(kmax, CAP_SCALARS_KMAX))]
    for field, A in cases:
        if field.e >= 2:
            pairs.append((field, A, *restrict_scalars(field, A), field.e, kmax))
        else:
            for m in (2, 3, 8) if field.p == 2 else (2, 3):
                ext = make_field(field.p, m)
                A2 = [[Poly(ext, a.coeffs) for a in row] for row in A]
                pairs.append((field, A, ext, A2, 1, kmax))
    bad = 0
    for field, A, field2, A2, r, k in pairs:
        table, spectral, E, kind, _ = answers(field, A, k)
        table2, spectral2, E2, kind2, series2 = answers(field2, A2, k)
        times_r = [NkValue(v.is_zero, r * v.exponent) for v in table]
        bad += (table2 != times_r) + (E2 != r * E) + (kind2 != kind)
        bad += spectral2 != [NkValue(v.is_zero, r * v.exponent) for v in spectral]
        bad += series2 != {series_from_nk(field2.q, times_r, k)}
    return len(pairs), bad


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
    ks = min(SCALARS_KMAX, args.kmax)
    systems, scalars_bad = change_of_scalars_stage(cases, ks)
    print(f"change of scalars (k <= {ks}, Res(A) of GF(4) and GF(9) systems and of the "
          f"GF(4) cap input to k <= {min(ks, CAP_SCALARS_KMAX)}, prime-field systems over "
          f"GF(p^2) and GF(p^3), GF(2) ones over GF(2^8) too): {systems} pairs, "
          f"{scalars_bad} mismatches in {time.time() - t0:.2f}s")

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
    failures = (
        mismatches, det_bad, series_bad, bad, brute_bad, root_bad, scalars_bad, cap_bad
    )
    return 1 if any(failures) else 0


if __name__ == "__main__":
    sys.exit(main())
