#!/usr/bin/env python3
"""Re-run the corpus cross-checks outside pytest, with timing.

Compares the spectral N_k formula against direct determinants for every
corpus matrix and k <= KMAX, then the two series routes to order KMAX
(closed form against the N_k recurrence on algebraic systems, and the
inverse recurrence back to the N_k on every system), then the three
fixed-point routes where each applies.  Prints one summary line per stage
and exits 1 if any route disagrees:

    PYTHONPATH=src python3 scripts/corpus_regression.py --kmax 20
"""

import argparse
import sys
import time

from ffzeta import (
    errors,
    fixed_points_bruteforce,
    fixed_points_smith,
    nk_direct,
    nk_spectral,
    nk_table,
    system_data,
)
from ffzeta.corpus import corpus, is_bruteforce_sized
from ffzeta.zeta import (
    classify,
    nk_from_series,
    series_from_closed_form,
    series_from_nk,
)


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
        except errors.NonIntegralError:
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
    return 1 if mismatches or series_bad or bad or brute_bad else 0


if __name__ == "__main__":
    sys.exit(main())
