"""Command line behavior: parsing, exit codes, determinism, round trips."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from ffzeta import errors
from ffzeta.cli import main, parse_problem

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


class TestParseProblem:
    def test_minimal(self):
        spec = parse_problem({"p": 2, "d": 1, "matrix": [[[0, 1]]]})
        assert (spec.p, spec.e, spec.d) == (2, 1, 1)
        assert spec.matrix == (((0, 1),),)
        assert spec.modulus == ()

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
        with pytest.raises(errors.DimensionTooLargeError):
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

    def test_nonprime(self, capsys, tmp_path):
        path = write_problem(tmp_path, {"p": 6, "d": 1, "matrix": [[[0, 1]]]})
        assert run(capsys, "classify", path)[0] == 1

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

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate", DIAG62)[0] == 1

    def test_bad_max(self, capsys):
        assert run(capsys, "nk", SHIFT, "--max", "0")[0] == 1

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "exit codes" in capsys.readouterr().out


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

    def test_zeta_transcendental(self, capsys):
        code, out, _ = run(capsys, "zeta", CUBIC, "--terms", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "zeta: transcendental"
        assert lines[1] == "bad_unit_order: 1"
        assert lines[2].startswith("series: 1 + 2z + 4z^2 +")

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
