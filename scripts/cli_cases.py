#!/usr/bin/env python3
"""Run a fixed set of CLI cases in-process and compare their output digests.

The cases are every command line below on every problem below, run through
``ffzeta.cli.main`` with the problem JSON on stdin (546 cases):

  * the three sample problems in ``problems/``;
  * 60 seeded random problems over GF(2), GF(3), GF(5), GF(7), GF(4) and
    GF(9), with d = 1..5 and entry degree 1..3, singular ones kept so that
    exit 2 stays covered;
  * one d = 1 problem of entry degree 8 over the prime 2^61 - 1;
  * three zero-heavy problems, where N_k = 0 at every k, at even k and at
    k divisible by 3;
  * three problems over the 20-bit prime 1048573, over 2^61 - 1 and over
    GF(3^10), with d = 2..3 and entry degree up to 10..16, drawn from a
    seed of their own: their N_k tables multiply polynomials of 100
    coefficients and more, so the long-product kernels are pinned too;
  * diag(2, t) over GF(1000003) and diag(3, t) over 2^61 - 1, whose
    closed forms have a factor with L = 1000002 and L near 2.6e17, so
    q^(E L) past ``INT_RENDER_CAP`` is printed as text;
  * [[z, 1], [0, 1 + t]] under five given moduli: z^2 + 2z + 2 for GF(9),
    where z has order 8 rather than 4 as under the default modulus, so
    N_4 is nonzero; z^2 + z + 1 for GF(4), the default given explicitly;
    and three rejected ones, the reducible z^2 + 2 for GF(9), and [] and
    [1, true, 1] for GF(4), the latter z^2 + z + 1 if true were taken as 1;

  under ``classify``, ``entropy``, ``nk``, ``nk --max 20``, ``zeta``,
  ``report`` and ``report --text``.

Each case gets one line: the sha256 of its exit code, stdout and stderr,
then its name.  numpy is made unimportable before ``ffzeta`` is imported,
so a command that came to need it would fail here.  ``--write FILE``
stores the digests; ``--check FILE`` recomputes them and exits 1 naming
each case that differs:

    PYTHONPATH=src python3 scripts/cli_cases.py --check scripts/cli_cases.sha256
"""

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

sys.modules["numpy"] = None  # no command may need numpy

from ffzeta import cli

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
COMMANDS = (
    ["classify"],
    ["entropy"],
    ["nk"],
    ["nk", "--max", "20"],
    ["zeta"],
    ["report"],
    ["report", "--text"],
)
FIELDS = ((2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2))
RANDOM_PER_FIELD = 10
M61 = 2**61 - 1
# (name, p, blocks, steps): a block whose N_k vanish (an eigenvalue 1, or a
# root of unity of order 2 or 3) beside the block [[t, 1], [1, 0]] with
# nonzero N_k, conjugated by I + f E_(i,j) for each (i, j, f) of steps.
# Entries are coefficient lists, lowest degree first.
ZERO_HEAVY = (
    (
        "zero_eig1_gf2",
        2,
        [[[1], [0], [0]], [[0], [0, 1], [1]], [[0], [1], [0]]],
        ((0, 1, [0, 1]), (2, 0, [1])),
    ),
    (
        "zero_rou2_gf3",
        3,
        [[[2], [0], [0]], [[0], [0, 1], [1]], [[0], [1], [0]]],
        ((1, 0, [0, 1]), (0, 2, [1, 1])),
    ),
    (
        "zero_rou3_gf2",
        2,
        [
            [[0], [1], [0], [0]],
            [[1], [1], [0], [0]],
            [[0], [0], [0, 1], [1]],
            [[0], [0], [1], [0]],
        ],
        ((0, 2, [0, 1]), (3, 1, [1])),
    ),
)


# (name, p, e, d, entry degree) of the long-product problems, drawn in this
# order from one stream seeded with LONG_SEED
LONG = (
    ("long_p20", 1048573, 1, 3, 10),
    ("long_m61", M61, 1, 2, 16),
    ("long_gf3^10", 3, 10, 2, 10),
)
LONG_SEED = 20224
# the long-product problem over an odd extension field, drawn last from a
# stream of its own so that the problems above keep their draws
ODD_EXT = ("long_gf1021^2", 1021, 2, 3, 12)
ODD_EXT_SEED = 10212
# (name, p, a): diag(a, t) with a of multiplicative order L = 1000002 and
# about 2.6e17
LARGE_ORDER = (("order_p1000003", 1000003, 2), ("order_m61", M61, 3))
# (name, p, modulus) of the problems that give GF(p^2) a modulus
MODULI = (
    ("modulus_gf9_z2+2z+2", 3, [2, 2, 1]),
    ("modulus_gf4_default", 2, [1, 1, 1]),
    ("modulus_gf9_reducible", 3, [2, 0, 1]),
    ("modulus_empty", 2, []),
    ("modulus_bool", 2, [1, True, 1]),
)


def _long_problem(rng, p, e, d, deg):
    """Entries of random degree up to deg, one of them at deg: the matrix of
    leading coefficients is singular, so N_k needs long determinants."""

    def coeff():
        return rng.randrange(p) if e == 1 else [rng.randrange(p) for _ in range(e)]

    def lead():
        return rng.randrange(1, p) if e == 1 else [rng.randrange(1, p)] + [0] * (e - 1)

    matrix = [
        [[coeff() for _ in range(rng.randint(0, deg))] + [lead()] for _ in range(d)]
        for _ in range(d)
    ]
    entry = [coeff() for _ in range(deg)] + [lead()]
    matrix[rng.randrange(d)][rng.randrange(d)] = entry  # drawn after the entry
    return {"p": p, "e": e, "d": d, "matrix": matrix}


def _random_problem(rng, p, e):
    def coeff():
        return rng.randrange(p) if e == 1 else [rng.randrange(p) for _ in range(e)]

    d = rng.randint(1, 5)
    deg = rng.randint(1, 3)
    matrix = [
        [[coeff() for _ in range(rng.randint(1, deg + 1))] for _ in range(d)]
        for _ in range(d)
    ]
    return {"p": p, "e": e, "d": d, "matrix": matrix}


def _conjugated(p, blocks, steps):
    """U A U^-1 over GF(p) for A = blocks and U the product of the steps.

    A step (i, j, f) is U = I + f E_(i,j), i != j, with U^-1 = I - f E_(i,j):
    row i gains f times row j, then column j loses f times column i.
    Conjugation over F[t] leaves every N_k unchanged.
    """

    def axpy(x, f, y):  # x + f*y, trimmed to its degree
        out = x + [0] * (len(f) + len(y))
        for a, fa in enumerate(f):
            for b, yb in enumerate(y):
                out[a + b] = (out[a + b] + fa * yb) % p
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return out

    M = [list(row) for row in blocks]
    for i, j, f in steps:
        M[i] = [axpy(x, f, y) for x, y in zip(M[i], M[j])]
        neg = [-c % p for c in f]
        for row in M:
            row[j] = axpy(row[j], neg, row[i])
    return M


def problems():
    """(name, JSON text) of every problem, in a fixed order."""
    out = [(path.stem, path.read_text()) for path in sorted(PROBLEMS.glob("*.json"))]
    rng = random.Random(20211)
    for p, e in FIELDS:
        for i in range(RANDOM_PER_FIELD):
            name = f"random_gf{p}^{e}_{i}"
            out.append((name, json.dumps(_random_problem(rng, p, e))))
    entry = [rng.randrange(M61) for _ in range(8)] + [rng.randrange(1, M61)]
    out.append(("m61_deg8", json.dumps({"p": M61, "d": 1, "matrix": [[entry]]})))
    for name, p, blocks, steps in ZERO_HEAVY:
        matrix = _conjugated(p, blocks, steps)
        out.append((name, json.dumps({"p": p, "d": len(matrix), "matrix": matrix})))
    rng = random.Random(LONG_SEED)
    for name, p, e, d, deg in LONG:
        out.append((name, json.dumps(_long_problem(rng, p, e, d, deg))))
    for name, p, a in LARGE_ORDER:
        matrix = [[[a], [0]], [[0], [0, 1]]]
        out.append((name, json.dumps({"p": p, "d": 2, "matrix": matrix})))
    for name, p, modulus in MODULI:
        # [[z, 1], [0, 1 + t]], entries as digit lists
        matrix = [[[[0, 1]], [[1, 0]]], [[[0, 0]], [[1, 0], [1, 0]]]]
        doc = {"p": p, "e": 2, "modulus": modulus, "d": 2, "matrix": matrix}
        out.append((name, json.dumps(doc)))
    name, p, e, d, deg = ODD_EXT
    doc = _long_problem(random.Random(ODD_EXT_SEED), p, e, d, deg)
    out.append((name, json.dumps(doc)))
    return out


def run_case(argv, text):
    """sha256 over the exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = str(cli.main(argv + ["-"]))
            except Exception as ex:  # a traceback is an outcome to record too
                status = f"raised {type(ex).__name__}"
    finally:
        sys.stdin = stdin
    record = f"{status}\n{out.getvalue()}\n{err.getvalue()}"
    return hashlib.sha256(record.encode()).hexdigest()


def digests():
    out = {}
    for name, text in problems():
        for argv in COMMANDS:
            out[f"{name} {' '.join(argv)}"] = run_case(list(argv), text)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="FILE", help="store the digests in FILE")
    mode.add_argument("--check", metavar="FILE", help="compare against FILE")
    args = ap.parse_args()

    got = digests()
    if args.write:
        lines = [f"{digest}  {case}\n" for case, digest in got.items()]
        Path(args.write).write_text("".join(lines))
        print(f"cli cases: wrote {len(got)} digests to {args.write}")
        return 0
    want = {}
    for line in Path(args.check).read_text().splitlines():
        digest, case = line.split("  ", 1)
        want[case] = digest
    cases = list(got) + [case for case in want if case not in got]
    bad = [case for case in cases if got.get(case) != want.get(case)]
    for case in bad:
        print(f"differs: {case}")
    print(f"cli cases: {len(cases) - len(bad)} of {len(cases)} match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
