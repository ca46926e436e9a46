"""Fuzz the ffzeta command on generated problem documents.

Well-formed documents over small fields and mutations of them (wrong
types, booleans, missing or unknown keys, out-of-range digits, bad
moduli) must all end in bounded time with exit 0-3 and no traceback.
"""

import contextlib
import io
import json
import sys
import time

from hypothesis import given, settings, strategies as st

from ffzeta.cli import main

# (p, e, modulus or None): prime fields and small extension fields
FIELDS = [(2, 1, None), (3, 1, None), (5, 1, None), (7, 1, None), (2, 2, None)]
FIELDS += [(2, 3, [1, 1, 0, 1]), (3, 2, None), (5, 2, [2, 0, 1]), (7, 2, None)]
COMMANDS = [
    ["classify"],
    ["entropy"],
    ["nk", "--max", "6"],
    ["zeta", "--terms", "6"],
    ["report", "--max", "4", "--terms", "4"],
    ["report", "--text", "--max", "4", "--terms", "4"],
]


@st.composite
def problems(draw):
    p, e, modulus = draw(st.sampled_from(FIELDS))
    d = draw(st.integers(1, 3))
    coeff = st.integers(0, p - 1)
    if e > 1:
        coeff = st.lists(coeff, min_size=e, max_size=e)
    entry = st.lists(coeff, min_size=0, max_size=4)
    row = st.lists(entry, min_size=d, max_size=d)
    matrix = draw(st.lists(row, min_size=d, max_size=d))
    doc = {"p": p, "e": e, "d": d, "matrix": matrix}
    if modulus is not None:
        doc["modulus"] = modulus
    return doc


JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 2**64),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.lists(st.integers(-2, 9), max_size=4),
    st.lists(st.lists(st.integers(-2, 9), max_size=3), max_size=3),
)


@st.composite
def mutated(draw):
    doc = draw(problems())
    kind = draw(
        st.sampled_from(
            ["replace", "drop", "unknown", "digit", "modulus", "entry", "toplevel"]
        )
    )
    if kind == "replace":
        doc[draw(st.sampled_from(["p", "e", "d", "matrix", "modulus"]))] = draw(JUNK)
    elif kind == "drop":
        doc.pop(draw(st.sampled_from(sorted(doc))))
    elif kind == "unknown":
        doc[draw(st.text(min_size=1, max_size=5))] = draw(JUNK)
    elif kind == "digit":
        cells = [ent for row in doc["matrix"] for ent in row if ent]
        if cells:
            ent = draw(st.sampled_from(cells))
            bad = draw(st.one_of(st.integers(-5, -1), st.integers(doc["p"], 99), JUNK))
            i = draw(st.integers(0, len(ent) - 1))
            if isinstance(ent[i], list):
                ent[i][draw(st.integers(0, len(ent[i]) - 1))] = bad
            else:
                ent[i] = bad
    elif kind == "modulus":
        doc["modulus"] = draw(
            st.one_of(
                st.lists(st.integers(-1, 9), max_size=5),
                st.lists(st.booleans(), max_size=4),
                JUNK,
            )
        )
    elif kind == "entry":
        row = draw(st.sampled_from(doc["matrix"]))
        row[draw(st.integers(0, len(row) - 1))] = draw(JUNK)
    else:
        doc = draw(JUNK)
    return doc


def run_cli(doc, argv):
    """(exit code, stderr, seconds) of main(argv + ['-']) reading doc on stdin."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv[:1] + ["-"] + argv[1:])
    finally:
        sys.stdin = old_stdin
    return code, err.getvalue(), time.perf_counter() - start


@settings(max_examples=30, deadline=None)
@given(doc=st.one_of(problems(), mutated()), argv=st.sampled_from(COMMANDS))
def test_cli_exits_cleanly(doc, argv):
    code, err, secs = run_cli(doc, argv)
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err
    assert secs < 2.0


@settings(max_examples=30, deadline=None)
@given(doc=problems(), argv=st.sampled_from(COMMANDS))
def test_well_formed_problems_run(doc, argv):
    """A well-formed problem is parsed: only exit 0 (ok) or 2 (singular)."""
    code, err, secs = run_cli(doc, argv)
    assert code in (0, 2), err
    assert secs < 2.0
