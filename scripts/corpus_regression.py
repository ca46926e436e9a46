#!/usr/bin/env python3
"""Re-run the corpus cross-checks outside pytest, with timing.

Compares the spectral N_k formula against direct determinants for every
corpus matrix and k <= KMAX, then the three fixed-point routes where each
applies.  Prints one summary line per stage and exits 1 if any route
disagrees:

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


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--kmax", type=int, default=40)
    args = ap.parse_args()

    t0 = time.time()
    cases = corpus()
    print(f"corpus: {len(cases)} matrices in {time.time() - t0:.2f}s")

    t0 = time.time()
    mismatches = 0
    for field, A in cases:
        sd = system_data(field, A)
        direct = nk_table(field, A, args.kmax)
        for k in range(1, args.kmax + 1):
            if nk_spectral(field, sd, k) != direct[k - 1]:
                mismatches += 1
    print(f"nk routes (k <= {args.kmax}): {mismatches} mismatches "
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
    return 1 if mismatches or bad or brute_bad else 0


if __name__ == "__main__":
    sys.exit(main())
