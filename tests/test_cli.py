"""Command line behavior: parsing, exit codes, determinism, round trips."""

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ffzeta import cli, errors
from ffzeta.cli import MAX_K, build_system, main, parse_problem
from ffzeta.zeta import num_str

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
DIAG62 = str(PROBLEMS / "diag_6_2_gf7.json")
CUBIC = str(PROBLEMS / "companion_cubic_gf2.json")
SHIFT = str(PROBLEMS / "shift_gf2.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_problem(tmp_path, doc, name="prob.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# q = 1 mod 3 and 2 is no cube mod q, so X^3 - 2 is irreducible over GF(q)
CUBIC_Q = 2244298144489180309


def unfactorable_problem():
    """Companion matrix of X^3 - 2 over the 61-bit prime CUBIC_Q.

    Phi_3(q) = q^2 + q + 1 = 3 * 3907 * 4700970961 * 117613183141 *
    777235918171: after trial division, rho takes 1.11 million steps to
    split its 110-bit part (q - 1 adds a few thousand), 6% past the budget
    of 2^20.  A stronger factoring method would factor it, and this input
    would then have to be replaced to keep covering exit 3.
    """
    rows = [[[0], [0], [2]], [[1], [0], [0]], [[0], [1], [0]]]
    return {"p": CUBIC_Q, "d": 3, "matrix": rows}


OCTIC_G = [181785116543108203, 1546893918547566459, 960691145375510833,
           1422198890898970246, 2158787438339059539, 1190864571044349696,
           2159263096884028552, 697900490548643529]


def octic_problem():
    """Companion matrix of X^8 + sum g_i X^i, irreducible over a 61-bit prime."""
    p = 2305843009213693921
    rows = [[[1] if i == j + 1 else [0] for j in range(8)] for i in range(8)]
    for i in range(8):
        rows[i][7] = [-OCTIC_G[i] % p]
    return {"p": p, "d": 8, "matrix": rows}


class TestParseProblem:
    def test_minimal(self):
        spec = parse_problem({"p": 2, "d": 1, "matrix": [[[0, 1]]]})
        assert (spec.p, spec.e, spec.d) == (2, 1, 1)
        assert spec.matrix == (((0, 1),),)
        assert spec.modulus is None

    def test_unknown_keys(self):
        with pytest.raises(errors.MalformedInputError):
            parse_problem({"p": 2, "d": 1, "matrix": [[[1]]], "extra": 1})

    def test_missing_keys(self):
        with pytest.raises(errors.MalformedInputError):
            parse_problem({"p": 2, "d": 1})

    def test_bool_is_not_int(self):
        with pytest.raises(errors.MalformedInputError):
            parse_problem({"p": True, "d": 1, "matrix": [[[1]]]})

    def test_dimension_limit(self):
        doc = {"p": 2, "d": 9, "matrix": [[[1]] * 9] * 9}
        with pytest.raises(errors.MalformedInputError, match="^d = 9 exceeds the limit 8$"):
            parse_problem(doc)

    def test_row_shape(self):
        with pytest.raises(errors.MalformedInputError):
            parse_problem({"p": 2, "d": 2, "matrix": [[[1]], [[1]]]})

    def test_bare_int_requires_prime_field(self):
        with pytest.raises(errors.MalformedInputError):
            parse_problem({"p": 2, "e": 2, "d": 1, "matrix": [[[1]]]})

    def test_digit_lists(self):
        spec = parse_problem({"p": 2, "e": 2, "d": 1, "matrix": [[[[1, 1]]]]})
        assert spec.matrix == (((3,),),)

    def test_digit_list_length(self):
        with pytest.raises(errors.MalformedInputError):
            parse_problem({"p": 2, "e": 2, "d": 1, "matrix": [[[[1]]]]})

    def test_entry_degree_limit(self):
        entry = [0] * 34
        with pytest.raises(errors.MalformedInputError):
            parse_problem({"p": 2, "d": 1, "matrix": [[entry]]})

    def test_coefficient_range(self):
        with pytest.raises(errors.MalformedInputError):
            parse_problem({"p": 3, "d": 1, "matrix": [[[3]]]})

    def test_entry_degree_limit_is_a_shape_cap(self):
        entry = [0] * 34
        with pytest.raises(errors.MalformedInputError, match="entry degree exceeds the limit 32"):
            parse_problem({"p": 2, "d": 1, "matrix": [[entry]]})
        parse_problem({"p": 2, "d": 1, "matrix": [[entry[:33]]]})

    def test_empty_modulus(self):
        # [] is a modulus of degree -1, not an omitted one
        doc = {"p": 3, "e": 2, "modulus": [], "d": 1, "matrix": [[[[0, 1]]]]}
        with pytest.raises(errors.MalformedInputError):
            build_system(parse_problem(doc))


class TestExitCodes:
    def test_ok(self, capsys):
        assert run(capsys, "classify", DIAG62)[0] == 0

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "classify", "/nonexistent.json")
        assert code == 1 and "error:" in err

    def test_bad_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(capsys, "classify", str(path))[0] == 1

    def test_deeply_nested_json(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, _, err = run(capsys, "classify", str(path))
        assert code == 1 and "invalid JSON" in err

    def test_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, "classify", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot read") and err.count("\n") == 1

    def test_stdin_not_utf8(self, capsys, monkeypatch):
        raw = io.BytesIO(b"\xff{")
        stdin = io.TextIOWrapper(raw, encoding="utf-8", errors="strict")
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run(capsys, "classify", "-")
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot read -:") and err.count("\n") == 1

    def test_nonprime(self, capsys, tmp_path):
        path = write_problem(tmp_path, {"p": 6, "d": 1, "matrix": [[[0, 1]]]})
        assert run(capsys, "classify", path)[0] == 1

    @pytest.mark.parametrize(
        "doc",
        [
            {"p": 3, "e": 2, "modulus": [], "d": 1, "matrix": [[[[0, 1]]]]},
            {"p": 3, "e": 2, "modulus": [1, 0], "d": 1, "matrix": [[[[0, 1]]]]},
            {"p": 2, "d": 1, "matrix": [[[0] * 33 + [1]]]},
        ],
        ids=["empty-modulus", "short-modulus", "entry-degree-33"],
    )
    def test_rejected_shapes(self, capsys, tmp_path, doc):
        code, out, err = run(capsys, "classify", write_problem(tmp_path, doc))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_singular(self, capsys, tmp_path):
        path = write_problem(tmp_path, {"p": 2, "d": 1, "matrix": [[[0]]]})
        assert run(capsys, "classify", path)[0] == 2

    @pytest.mark.parametrize("cmd", ["classify", "entropy", "nk", "zeta", "report"])
    def test_singular_rank_one(self, capsys, tmp_path, cmd):
        rows = [[[1, 1], [0, 1]], [[1, 1], [0, 1]]]
        path = write_problem(tmp_path, {"p": 3, "d": 2, "matrix": rows})
        code, out, err = run(capsys, cmd, path)
        assert (code, out) == (2, "")
        assert err == "error: matrix determinant is zero\n"

    def test_cap_exceeded(self, capsys, tmp_path):
        one = [1] + [0] * 20
        t = [0] * 21
        doc = {"p": 2, "e": 21, "d": 1, "matrix": [[[t, one]]]}
        assert run(capsys, "classify", write_problem(tmp_path, doc))[0] == 3

    def test_huge_extension_degree_ends(self, capsys, tmp_path):
        """The cap rejects e before computing p**e, 47 million digits here."""
        doc = {"p": 3, "e": 100000000, "d": 1, "matrix": [[[]]]}
        start = time.perf_counter()
        code, out, err = run(capsys, "entropy", write_problem(tmp_path, doc))
        assert time.perf_counter() - start < 2
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and "Traceback" not in err

    def test_unfactorable_group_order_ends(self, capsys, tmp_path):
        """Phi_3(q) of a 61-bit q has a 110-bit part that Pollard rho does
        not split within its step budget, which ends the command with
        exit 3 naming the stage.
        """
        assert CUBIC_Q % 3 == 1 and pow(2, (CUBIC_Q - 1) // 3, CUBIC_Q) != 1
        path = write_problem(tmp_path, unfactorable_problem())
        start = time.perf_counter()
        code, out, err = run(capsys, "classify", path)
        assert time.perf_counter() - start < 10
        assert (code, out) == (3, "")
        assert err.startswith("error: order_of_root:")

    def test_octic_group_order_factors(self, capsys, tmp_path):
        """q^8 - 1 splits along Phi_1, Phi_2, Phi_4 and Phi_8 at q, each
        within reach of rho, so the order of the roots is found.  sympy
        checks it: factorint of each sympy-built Phi_j(q), and powers of X
        modulo the octic by sympy's own GF(p)[X] arithmetic.
        """
        sympy = pytest.importorskip("sympy")
        from sympy.polys.domains import ZZ
        from sympy.polys.galoistools import gf_pow_mod

        doc = octic_problem()
        p = doc["p"]
        start = time.perf_counter()
        code, out, err = run(capsys, "classify", write_problem(tmp_path, doc))
        assert time.perf_counter() - start < 10
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "classification: algebraic"
        m = int(out.split("z^", 1)[1].split(")", 1)[0])
        primes = {}
        for j in (1, 2, 4, 8):
            for r, k in sympy.factorint(int(sympy.cyclotomic_poly(j, p))).items():
                primes[r] = primes.get(r, 0) + k
        assert math.prod(r**k for r, k in primes.items()) == p**8 - 1
        assert (p**8 - 1) % m == 0
        octic = [1] + OCTIC_G[::-1]

        def x_to(k):
            return gf_pow_mod([1, 0], k, octic, p, ZZ)

        assert x_to(m) == [1]
        assert all(x_to(m // r) != [1] for r in primes if m % r == 0)

    def test_entropy_needs_no_group_order(self, capsys, tmp_path):
        """E comes from the Newton polygon alone, so nothing is factored."""
        path = write_problem(tmp_path, unfactorable_problem())
        start = time.perf_counter()
        code, out, err = run(capsys, "entropy", path)
        assert time.perf_counter() - start < 2
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "E: 0"

    def test_eigenvalue_one_at_cap_ends(self, capsys, tmp_path):
        """N_1 = 0 settles every N_k by divisibility, so d = 8, degree 32
        takes one determinant sequence at k = 1, not one at full precision
        akd + 1 for each k.
        """
        rng = random.Random(7)
        # GF(2) entries as bit masks, degree <= 32; column 0 is e_0
        M = [[rng.getrandbits(33) for _ in range(8)] for _ in range(8)]
        M[1][1] |= 1 << 32
        for i in range(8):
            M[i][0] = int(i == 0)
        # conjugate by U = I + sum_(i >= 1) E_(i,0): row i += row 0, then
        # column 0 -= columns 1..7
        for i in range(1, 8):
            M[i] = [x ^ y for x, y in zip(M[i], M[0])]
        for row in M:
            for x in row[1:]:
                row[0] ^= x
        matrix = [[[x >> b & 1 for b in range(max(1, x.bit_length()))] for x in row] for row in M]
        path = write_problem(tmp_path, {"p": 2, "d": 8, "matrix": matrix})
        start = time.perf_counter()
        code, out, err = run(capsys, "nk", "--max", "60", path)
        assert time.perf_counter() - start < 10
        assert (code, err) == (0, "")
        assert out.splitlines() == [f"N_{k} = 0 (spectral 0, equal yes)" for k in range(1, 61)]

    @pytest.mark.parametrize(
        "exc, code, label",
        [
            (errors.InternalInvariantError, 4, "internal error: "),
            (errors.CapExceededError, 3, "error: "),
            (errors.SingularMatrixError, 2, "error: "),
            (errors.MalformedInputError, 1, "error: "),
        ],
    )
    def test_error_class_sets_exit(self, capsys, monkeypatch, exc, code, label):
        def fail(field, A):
            raise exc("raised here")

        monkeypatch.setattr(cli, "system_data", fail)
        assert run(capsys, "classify", DIAG62) == (code, "", f"{label}raised here\n")

    def test_exit_code_follows_documented_base(self):
        """One class per exit code: the messages tell failures apart."""
        codes = {
            errors.Error: 1,
            errors.MalformedInputError: 1,
            errors.SingularMatrixError: 2,
            errors.CapExceededError: 3,
            errors.InternalInvariantError: 4,
        }
        classes = {
            c for c in vars(errors).values()
            if isinstance(c, type) and issubclass(c, errors.Error)
        }
        assert classes == set(codes)
        for cls, code in codes.items():
            assert cls.exit_code == code, cls.__name__

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate", DIAG62)[0] == 1

    def test_bad_max(self, capsys):
        assert run(capsys, "nk", SHIFT, "--max", "0")[0] == 1

    @pytest.mark.parametrize(
        "cmd, option",
        [("nk", "--max"), ("zeta", "--terms"), ("report", "--max"), ("report", "--terms")],
    )
    def test_k_cap_edges(self, capsys, cmd, option):
        """MAX_K is accepted; one more exits 3 at once, before any analysis."""
        code, out, err = run(capsys, cmd, SHIFT, option, str(MAX_K))
        assert (code, err) == (0, "") and out
        start = time.perf_counter()
        code, out, err = run(capsys, cmd, SHIFT, option, str(MAX_K + 1))
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert err == f"error: {option} {MAX_K + 1} exceeds the limit {MAX_K}\n"

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "exit codes" in capsys.readouterr().out


def int_str_limit():
    """Python's digit limit for int/str conversion; None before 3.10.7."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else None


@contextlib.contextmanager
def unlimited_int_str():
    """Lift the int/str digit limit for the block, then restore it."""
    limit = int_str_limit()
    if limit is None:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class TestLongIntegers:
    """N_k and series terms past Python's 4300-digit str() limit print in
    full, and no command touches the limit, so the problem JSON is parsed
    under the caller's limit."""

    # A = t^32 over GF(2^61 - 1): N_k = q^(32k) and zeta = 1/(1 - q^32 z),
    # so N_8 = q^256 (4700 digits) is also the series term of z^8.
    M61_T32 = {"p": 2**61 - 1, "d": 1, "matrix": [[[0] * 32 + [1]]]}

    @pytest.mark.parametrize("argv", [["nk"], ["zeta", "--terms", "20"], ["report"]])
    def test_printed_in_full(self, capsys, tmp_path, argv, monkeypatch):
        with unlimited_int_str():
            n8 = str((2**61 - 1) ** 256)
        assert len(n8) > 4300

        def refuse(limit):
            raise AssertionError("the int/str digit limit was changed")

        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)
        limit = int_str_limit()
        code, out, err = run(capsys, *argv, write_problem(tmp_path, self.M61_T32))
        assert (code, err) == (0, "")
        assert int_str_limit() == limit
        assert n8 in out

    @pytest.mark.parametrize("bits", [1, 1024, 1025, 2048, 4097, 50001])
    def test_num_str_matches_str(self, bits):
        rng = random.Random(bits)
        cases = [2**bits - 1, 2**bits, 10 ** (bits // 3), rng.getrandbits(bits)]
        cases += [-n for n in cases]
        cases += [Fraction(n, rng.getrandbits(bits) | 1) for n in cases]
        with unlimited_int_str():
            for x in cases:
                assert num_str(x) == str(x)

    @pytest.mark.skipif(int_str_limit() is None, reason="no int/str digit limit")
    def test_huge_p_rejected_at_parse(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"p": 1' + "0" * 4999 + ', "d": 1, "matrix": [[[1]]]}')
        start = time.perf_counter()
        code, out, err = run(capsys, "nk", str(path))
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid JSON")

    def test_limit_restored_after_error(self, capsys, tmp_path):
        limit = int_str_limit()
        singular = {"p": 2, "d": 1, "matrix": [[[0]]]}
        assert run(capsys, "zeta", write_problem(tmp_path, singular))[0] == 2
        assert int_str_limit() == limit


class TestLargeOrders:
    """Root-of-unity orders near q: q^(E L) past INT_RENDER_CAP prints as
    the text q^n, and the series skips factors with L past the order."""

    # diag(2, t): 2 generates GF(1000003)^*, so L = 1000002
    P1000003 = {"p": 1000003, "d": 2, "matrix": [[[2], [0]], [[0], [0, 1]]]}
    # diag(3, t) over 2^61 - 1: 3 has order about 2.6e17
    M61_DIAG3 = {"p": 2**61 - 1, "d": 2, "matrix": [[[3], [0]], [[0], [0, 1]]]}

    @pytest.mark.parametrize("doc", [P1000003, M61_DIAG3], ids=["p1000003", "m61"])
    @pytest.mark.parametrize(
        "argv", [["classify"], ["zeta", "--terms", "3"], ["report"]]
    )
    def test_ends_quickly(self, capsys, tmp_path, doc, argv):
        path = write_problem(tmp_path, doc)
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, path)
        assert time.perf_counter() - start < 5
        assert (code, err) == (0, "")
        assert "^{1/" in out

    def test_display_prints_power_as_text(self, capsys, tmp_path):
        code, out, _ = run(capsys, "classify", write_problem(tmp_path, self.P1000003))
        assert code == 0
        assert out.splitlines()[1] == (
            "zeta: (1-1000003^1000002z^1000002)^{1/1000002}/(1-1000003z)"
        )


class TestCommands:
    def test_classify_algebraic(self, capsys):
        code, out, _ = run(capsys, "classify", DIAG62)
        assert code == 0
        assert out == (
            "classification: algebraic\n"
            "zeta: (1-z^2)^{1/2}(1-z^3)^{1/3}/((1-z)(1-z^6)^{1/6})\n"
            "radius_exponent: 0\n"
        )

    def test_classify_transcendental(self, capsys):
        code, out, _ = run(capsys, "classify", CUBIC)
        assert code == 0
        assert out == (
            "classification: transcendental\n"
            "bad_unit_order: 1\n"
            "rou_orders: []\n"
            "radius_exponent: -2\n"
        )

    def test_entropy(self, capsys):
        code, out, _ = run(capsys, "entropy", SHIFT)
        assert code == 0
        assert out == f"E: 1\nq: 2\nentropy: 1*log(2) = {math.log(2):.12g}\n"

    def test_nk(self, capsys):
        code, out, _ = run(capsys, "nk", SHIFT, "--max", "3")
        assert code == 0
        assert out == (
            "N_1 = 2 (spectral 2, equal yes)\n"
            "N_2 = 4 (spectral 4, equal yes)\n"
            "N_3 = 8 (spectral 8, equal yes)\n"
        )

    def test_zeta_series(self, capsys):
        code, out, _ = run(capsys, "zeta", SHIFT, "--terms", "4")
        assert code == 0
        assert out == (
            "zeta: 1/(1-2z)\n"
            "series: 1 + 2z + 4z^2 + 8z^3 + 16z^4\n"
            "series from N_k: 1 + 2z + 4z^2 + 8z^3 + 16z^4 (equal yes)\n"
        )

    def test_zeta_renders_equal_series_once(self, capsys, monkeypatch):
        from ffzeta import cli

        calls = []
        real = cli._series_str

        def counting(series):
            calls.append(series)
            return real(series)

        monkeypatch.setattr(cli, "_series_str", counting)
        code, out, _ = run(capsys, "zeta", DIAG62)
        assert code == 0
        assert "(equal yes)" in out
        assert len(calls) == 1

    def test_zeta_transcendental(self, capsys):
        code, out, _ = run(capsys, "zeta", CUBIC, "--terms", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "zeta: transcendental"
        assert lines[1] == "bad_unit_order: 1"
        assert lines[2].startswith("series: 1 + 2z + 4z^2 +")

    def test_classify_at_ext_cap(self, capsys, tmp_path):
        # A = [[t, 1], [1, z]] over GF(2^20), the largest extension field the
        # CLI accepts; z is the generator of the digit basis, det A = tz + 1
        zero, one, z = [0] * 20, [1] + [0] * 19, [0, 1] + [0] * 18
        rows = [[[zero, one], [one]], [[one], [z]]]
        path = write_problem(tmp_path, {"p": 2, "e": 20, "d": 2, "matrix": rows})
        code, out, _ = run(capsys, "classify", path)
        assert code == 0
        assert out.startswith("classification: ")

    def test_stdin(self, capsys, monkeypatch):
        doc = json.dumps({"p": 2, "d": 1, "matrix": [[[0, 1]]]})
        monkeypatch.setattr(sys, "stdin", __import__("io").StringIO(doc))
        code, out, _ = run(capsys, "entropy", "-")
        assert code == 0 and out.startswith("E: 1\n")


class TestReport:
    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "report", DIAG62)
        _, second, _ = run(capsys, "report", DIAG62)
        assert first == second

    def test_schema_and_content(self, capsys):
        _, out, _ = run(capsys, "report", CUBIC, "--max", "4")
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["entropy"]["E"] == 2
        assert doc["spectral"]["unit_orders"] == [[1, 1]]
        assert doc["spectral"]["weights"] == [[1, -1]]
        assert [e["value"] for e in doc["nk"]] == ["2", "4", "32", "16"]
        assert all(e["routes_equal"] for e in doc["nk"])
        assert doc["zeta"]["algebraic"] is False
        assert doc["zeta"]["certificate"]["bad_unit_order"] == 1

    @pytest.mark.parametrize("path", [DIAG62, CUBIC, SHIFT], ids=lambda p: Path(p).stem)
    def test_det_degree_matches_det(self, capsys, path):
        # the report reads deg_t det A off charpoly(0); check it against det
        from ffzeta.cli import build_system, load_problem
        from ffzeta.polycore import polyring
        from ffzeta.polymat import det

        field, A = build_system(load_problem(path))
        _, out, _ = run(capsys, "report", path)
        assert json.loads(out)["det_t_degree"] == det(polyring(field), A).degree

    def test_renders_system_data(self, monkeypatch):
        """One charpoly and one Newton polygon of it per report: the report
        reads system_data's record and builds no second one."""
        from ffzeta import newton, polymat

        calls = {"charpoly": [], "polygon": []}

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                calls[name].append((args, out))
                return out

            return wrapper

        for name, fn in (("charpoly", polymat.charpoly), ("polygon", newton.polygon)):
            wrapped = recording(name, fn)
            for modname, module in list(sys.modules.items()):
                if modname.startswith("ffzeta"):
                    for attr, val in list(vars(module).items()):
                        if val is fn:
                            monkeypatch.setattr(module, attr, wrapped)
        # diag(2, t) over GF(7): a root-of-unity factor X - 2 and P' = X - t
        doc = {"p": 7, "d": 2, "matrix": [[[2], []], [[], [0, 1]]]}
        report = cli.build_report(parse_problem(doc), 4, 4)
        assert len(calls["charpoly"]) == 1
        P = calls["charpoly"][0][1]
        assert sum(args[0] is P for args, _ in calls["polygon"]) == 1
        assert report["entropy"] == {"E": 1, "q": 7, "log_value": math.log(7)}
        assert report["det_t_degree"] == 1
        assert report["abs_spectrum"] == [
            {"slope_num": 0, "slope_den": 1, "length": 1},
            {"slope_num": 1, "slope_den": 1, "length": 1},
        ]

    def test_prime_field_modulus_changes_nothing(self, capsys, tmp_path):
        """A linear modulus names the one GF(p): the report is the same."""
        doc = {"p": 3, "d": 2, "matrix": [[[1, 1], [0, 1]], [[2], [0, 0, 1]]]}
        plain = run(capsys, "report", write_problem(tmp_path, doc, "plain.json"))
        keyed = {**doc, "modulus": [1, 1]}
        assert run(capsys, "report", write_problem(tmp_path, keyed)) == plain
        assert plain[0] == 0 and json.loads(plain[1])["problem"]["modulus"] == [0, 1]

    @pytest.mark.parametrize("modulus", [[1, 2], [3, 1], [1], [], [1, 0, 1]])
    def test_bad_prime_field_modulus_exits_1(self, capsys, tmp_path, modulus):
        doc = {"p": 3, "modulus": modulus, "d": 1, "matrix": [[[1, 1]]]}
        code, out, err = run(capsys, "report", write_problem(tmp_path, doc))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_closed_form_shape(self, capsys):
        _, out, _ = run(capsys, "report", DIAG62)
        doc = json.loads(out)
        assert doc["zeta"]["closed_form"]["factors"] == {
            "1": {"num": -1, "den": 1},
            "2": {"num": 1, "den": 2},
            "3": {"num": 1, "den": 3},
            "6": {"num": -1, "den": 6},
        }
        assert doc["zeta"]["series_routes_equal"] is True
        assert doc["zeta"]["series"] == doc["zeta"]["series_from_nk"]
        assert doc["abs_spectrum"] == [{"slope_num": 0, "slope_den": 1, "length": 2}]

    def test_echo_roundtrip(self, capsys, tmp_path):
        """Reporting the echoed problem reproduces the report byte for byte."""
        _, first, _ = run(capsys, "report", DIAG62)
        echoed = json.loads(first)["problem"]
        path = write_problem(tmp_path, echoed)
        _, second, _ = run(capsys, "report", path)
        assert first == second

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "report", DIAG62, "--text")
        assert code == 0
        assert "entropy.E = 0" in out
        assert "zeta.closed_form.display" in out

    def test_formats_exclusive(self, capsys):
        assert run(capsys, "report", DIAG62, "--json", "--text")[0] == 1


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ffzeta", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "classify" in proc.stdout and "exit codes" in proc.stdout


def test_closed_stdout_exits_1_without_traceback(tmp_path):
    # the series of t^8 over GF(2^61 - 1) to 60 terms is 539 KB, far more
    # than a pipe holds, so the writer is still printing when the reader goes
    doc = {"p": 2**61 - 1, "d": 1, "matrix": [[[0] * 8 + [1]]]}
    proc = subprocess.Popen(
        [sys.executable, "-m", "ffzeta", "zeta", "--terms", "60"]
        + [write_problem(tmp_path, doc)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(10) == b"zeta: 1/(1"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 1
    assert "Traceback" not in err and "Exception ignored" not in err, err


@pytest.mark.parametrize(
    "options",
    [["--max", "abc"], ["--frobnicate"]],
    ids=["non-integer max", "unknown flag"],
)
def test_option_errors_exit_1_in_one_line(options):
    # argparse reports through cli._Parser.error: exit 1 and one line on
    # stderr, with no usage text and no traceback
    proc = subprocess.run(
        [sys.executable, "-m", "ffzeta", "nk", SHIFT] + options,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


# over GF(7), entries of degree 3: its N_k table multiplies long polynomials
GF7_DEG3 = {"p": 7, "d": 2, "matrix": [[[1, 2, 3], [0, 1]], [[5, 0, 1, 4], [2, 6]]]}
# over GF(4) and GF(3^10): extension fields, which build log/exp/Zech tables
GF4_DEG3 = {
    "p": 2,
    "e": 2,
    "d": 2,
    "matrix": [
        [[[0, 1], [1, 0], [1, 1]], [[1, 1], [0, 1]]],
        [[[1, 0], [0, 0], [1, 1], [0, 1]], [[0, 1], [1, 1]]],
    ],
}
GF3_10_DEG2 = {
    "p": 3,
    "e": 10,
    "d": 2,
    "matrix": [
        [
            [[2, 1, 0, 0, 1, 2, 0, 1, 0, 1], [0, 1, 2, 2, 0, 1, 1, 0, 2, 0]],
            [[1, 0, 0, 2, 1, 0, 0, 0, 1, 1]],
        ],
        [
            [
                [0, 2, 1, 0, 0, 1, 2, 2, 0, 1],
                [1, 1, 0, 0, 2, 0, 1, 0, 0, 2],
                [0, 0, 1, 1, 0, 2, 0, 1, 1, 0],
            ],
            [[2, 2, 0, 1, 0, 0, 1, 2, 1, 0], [0, 1, 0, 2, 1, 1, 0, 0, 2, 1]],
        ],
    ],
}


@pytest.mark.parametrize("doc", [None, GF7_DEG3, GF4_DEG3, GF3_10_DEG2])
def test_prime_field_command_never_imports_numpy(tmp_path, doc):
    # no command needs numpy: a fresh interpreter in which it cannot be
    # imported runs commands over prime fields, long products included, and
    # over extension fields, tables included
    path = CUBIC if doc is None else write_problem(tmp_path, doc)
    code = (
        "import contextlib, io, sys\n"
        "sys.modules['numpy'] = None\n"
        "from ffzeta import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = cli.main(['report', '--max', '20', {path!r}])\n"
        "assert status == 0, status\n"
        "assert sys.modules['numpy'] is None, 'numpy was imported'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_out_dataclasses_and_inspect():
    # the records are NamedTuples, so starting a command pays for neither
    # dataclasses nor the inspect, ast, dis and tokenize it imports
    code = (
        "import sys, ffzeta.cli\n"
        "loaded = {'dataclasses', 'inspect'} & set(sys.modules)\n"
        "assert not loaded, sorted(loaded)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PROBLEMS.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
