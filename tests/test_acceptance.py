"""Acceptance suite: one test (and one pass/fail line under -v) per criterion.

Run as `pytest tests/test_acceptance.py -v`.  The corpus is the fixed-seed
collection from ffzeta.corpus (216 systems over q in {2,3,4,5,7,9}, d <= 4,
entry degrees <= 2, nonsingular).  Expensive per-system tables are computed
once and shared across criteria; each criterion still asserts its own time
budget around the work it triggers.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from conftest import tmat
from ffzeta import errors, make_field
from ffzeta.corpus import CORPUS_SEED, corpus, is_bruteforce_sized
from ffzeta.dynamics import (
    entropy,
    fixed_points_bruteforce,
    fixed_points_smith,
    nk_direct,
    nk_spectral,
    nk_table,
    system_data,
)
from ffzeta.newton import polygon
from ffzeta.polycore import polyring
from ffzeta.polymat import charpoly, det, identity, mat_mul, mat_sub
from ffzeta.zeta import classify, closed_form, nk_from_series, series_from_closed_form, series_from_nk

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

F2 = make_field(2)
F7 = make_field(7)
DIAG62 = tmat(F7, [[(6,), (0,)], [(0,), (2,)]])
CUBIC_COMP = tmat(
    F2,
    [
        [(0,), (0,), (0, 1)],
        [(1,), (0,), (0, 0, 1)],
        [(0,), (1,), (0, 0, 1)],
    ],
)

KMAX = 40
_cache = {}


def corpus_tables():
    """(field, A, sd, nk values for k <= KMAX) per corpus system, memoized."""
    if "tables" not in _cache:
        rows = []
        for field, A in corpus():
            sd = system_data(field, A)
            rows.append((field, A, sd, nk_table(field, A, KMAX)))
        _cache["tables"] = rows
    return _cache["tables"]


def report(line):
    print(line)


def test_criterion_1_showcase_closed_form_and_series():
    t0 = time.monotonic()
    sd = system_data(F7, DIAG62)
    cf = closed_form(sd)
    assert cf.factors == (
        (1, Fraction(-1)),
        (2, Fraction(1, 2)),
        (3, Fraction(1, 3)),
        (6, Fraction(-1, 6)),
    )
    lhs = series_from_closed_form(cf, 50)
    rhs = series_from_nk(7, nk_table(F7, DIAG62, 50), 50)
    assert lhs == rhs
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(
        f"criterion 1 PASS: closed form (1,-1),(2,1/2),(3,1/3),(6,-1/6); "
        f"series routes equal to order 50 ({elapsed:.2f}s)"
    )


def test_criterion_2_route_equivalence_on_corpus():
    t0 = time.monotonic()
    rows = corpus_tables()
    assert len(rows) >= 200
    checked = 0
    for field, A, sd, nks in rows:
        for k, direct in enumerate(nks, start=1):
            assert direct == nk_spectral(field, sd, k), (field.q, A, k)
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(
        f"criterion 2 PASS: nk_spectral == nk_table on {len(rows)} systems, "
        f"k <= {KMAX} ({checked} comparisons, {elapsed:.2f}s, seed {CORPUS_SEED})"
    )


def mobius(n):
    """The Moebius function of a positive integer n."""
    out, m = 1, 2
    while m * m <= n:
        if n % m == 0:
            n //= m
            if n % m == 0:
                return 0
            out = -out
        m += 1
    return -out if n > 1 else out


def orbit_counts(N):
    """(1/n) sum_(j | n) mu(n/j) N_j for n = 1..len(N), as Fractions."""
    return [
        Fraction(sum(mobius(n // j) * N[j - 1] for j in range(1, n + 1) if n % j == 0), n)
        for n in range(1, len(N) + 1)
    ]


def test_dold_congruences_on_corpus():
    """When every A^k - I is invertible, N_k counts the points of period k,
    and the points of least period n fall into free orbits of length n: the
    orbit counts are nonnegative integers.  A zero N_k stands for infinitely
    many points, and there the congruences can fail (next test)."""
    t0 = time.monotonic()
    qualified = 0
    for field, _A, _sd, nks in corpus_tables():
        if any(v.is_zero for v in nks):
            continue
        orbits = orbit_counts([field.q**v.exponent for v in nks])
        assert all(o.denominator == 1 and o >= 0 for o in orbits), (field.q, orbits)
        qualified += 1
    assert qualified >= 200
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(
        f"Dold congruences PASS: integral orbit counts on {qualified} systems "
        f"with no zero N_k, k <= {KMAX} ({elapsed:.2f}s)"
    )


def test_dold_congruences_fail_with_a_zero_count():
    """Over GF(3), A = [[2 + t, 2 + 2t], [0, 2]] has N_1 = 3 and N_2 = 0, as
    A^2 - I is singular; the second orbit count is (0 - 3)/2."""
    F3 = make_field(3)
    A = tmat(F3, [[(2, 1), (2, 2)], [(), (2,)]])
    ring = polyring(F3)
    assert not det(ring, mat_sub(ring, mat_mul(ring, A, A), identity(ring, 2)))
    nks = nk_table(F3, A, 2)
    assert [v.as_int(3) for v in nks] == [3, 0]
    assert orbit_counts([3, 0]) == [3, Fraction(-3, 2)]


def test_criterion_3_fixed_point_routes():
    t0 = time.monotonic()
    rows = corpus_tables()
    for field, A, _sd, nks in rows:
        assert fixed_points_smith(field, A) == nks[0]
    brute_checked = 0
    for field, A, _sd, nks in rows:
        if not is_bruteforce_sized(field, A):
            continue
        ring = polyring(field)
        if not det(ring, mat_sub(ring, A, identity(ring, len(A)))):
            continue  # infinitely many fixed points; count undefined
        got = fixed_points_bruteforce(field, A, cap=10**5)
        assert got == nks[0].as_int(field.q)
        brute_checked += 1
    assert brute_checked > 0
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(
        f"criterion 3 PASS: smith == direct on {len(rows)} systems; "
        f"bruteforce agreed on {brute_checked} tiny systems ({elapsed:.2f}s)"
    )


def test_criterion_4_entropy_laws():
    t0 = time.monotonic()
    # base case: multiplication by t has entropy log q
    for field in (F2, make_field(3), make_field(7)):
        ent = entropy(field, tmat(field, [[(0, 1)]]))
        assert ent.E == 1 and ent.q == field.q

    # additivity over 20 random same-field block-diagonal pairs
    rows = corpus_tables()
    rng = random.Random(CORPUS_SEED + 1)
    pairs = 0
    while pairs < 20:
        (f1, A1, sd1, _), (f2, A2, sd2, _) = rng.sample(rows, 2)
        if f1 is not f2:
            continue
        ring = polyring(f1)
        d1, d2 = len(A1), len(A2)
        block = [row + [ring.zero] * d2 for row in A1] + [
            [ring.zero] * d1 + row for row in A2
        ]
        assert entropy(f1, block).E == sd1.E + sd2.E
        pairs += 1

    # mass balance: hull rise of charpoly equals deg_t det(A), corpus-wide
    for field, A, _sd, _nks in rows:
        ring = polyring(field)
        hull = polygon(charpoly(ring, A))
        rise = sum(s * l for s, l in hull.edges)
        assert rise == det(ring, A).degree

    # growth bound with equality at unconstrained times
    for field, _A, sd, nks in rows:
        for k, v in enumerate(nks, start=1):
            if v.is_zero:
                continue
            assert v.exponent <= k * sd.E
            if not sd.is_periodic_time(k) and sd.weight_sum(k) == 0:
                assert v.exponent == k * sd.E
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(
        f"criterion 4 PASS: entropy([t]) = log q; additivity on 20 block "
        f"pairs; mass balance and growth bound corpus-wide ({elapsed:.2f}s)"
    )


def test_criterion_5_transcendental_showcase():
    t0 = time.monotonic()
    sd = system_data(F2, CUBIC_COMP)
    res = classify(sd)
    assert not res.algebraic
    assert sd.E == 2
    assert sd.unit_orders == ((1, 1),)
    assert dict(sd.weights) == {1: -1}
    direct = [nk_direct(F2, CUBIC_COMP, k) for k in range(1, 5)]
    spectral = [nk_spectral(F2, sd, k) for k in range(1, 5)]
    assert direct == spectral
    assert [v.as_int(2) for v in direct] == [2, 4, 32, 16]
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(
        f"criterion 5 PASS: transcendental, E=2, unit order 1 with w=-1, "
        f"N_1..4 = 2,4,32,16 on both routes ({elapsed:.2f}s)"
    )


def test_criterion_6_algebraic_series_consistency():
    t0 = time.monotonic()
    order = 50
    algebraic = 0
    for field, A, sd, _nks in corpus_tables():
        res = classify(sd)
        if not res.algebraic:
            continue
        algebraic += 1
        nks50 = nk_table(field, A, order)
        lhs = series_from_closed_form(res.closed_form, order)
        rhs = series_from_nk(field.q, nks50, order)
        assert lhs == rhs, (field.q, A)
        assert nk_from_series(rhs) == [v.as_int(field.q) for v in nks50]
    assert algebraic > 0
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(
        f"criterion 6 PASS: series routes equal to order {order} and inverse "
        f"recurrence exact on {algebraic} algebraic systems ({elapsed:.2f}s)"
    )


def test_criterion_7_cli_determinism_and_canonicalization(tmp_path):
    prob = str(PROBLEMS / "diag_6_2_gf7.json")
    outs = [
        subprocess.run(
            [sys.executable, "-m", "ffzeta", "report", prob],
            capture_output=True,
            check=True,
        ).stdout
        for _ in range(3)
    ]
    assert outs[0] == outs[1] == outs[2]

    swapped = tmp_path / "swapped.json"
    swapped.write_text(
        json.dumps({"p": 7, "e": 1, "d": 2, "matrix": [[[2], [0]], [[0], [6]]]})
    )
    doc_a = json.loads(outs[0])
    doc_b = json.loads(
        subprocess.run(
            [sys.executable, "-m", "ffzeta", "report", str(swapped)],
            capture_output=True,
            check=True,
        ).stdout
    )
    assert doc_a["zeta"]["closed_form"] == doc_b["zeta"]["closed_form"]
    assert closed_form(system_data(F7, DIAG62)) == closed_form(
        system_data(F7, tmat(F7, [[(2,), (0,)], [(0,), (6,)]]))
    )
    report(
        "criterion 7 PASS: report byte-identical across 3 runs; diagonal "
        "permutation leaves the closed form unchanged"
    )
