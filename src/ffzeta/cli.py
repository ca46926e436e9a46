"""Command line front end.

Reads a problem description as JSON (a file path argument, or - for
stdin), builds the field and matrix, and runs one of the subcommands:

    classify    algebraic or transcendental, with the evidence
    entropy     the entropy as E * log q
    nk          a table of periodic point counts N_1..N_max
    zeta        closed form or certificate, plus a series expansion
    report      the full machine-readable report (JSON or text)

Problem format, low-degree-first coefficient lists throughout:

    {"p": 7, "e": 1, "d": 2, "matrix": [[[6], [0]], [[0], [2]]]}

Each matrix entry is a list of coefficients in t; each coefficient is an
integer in [0, p) when e = 1, or a list of e base-p digits in general.
An optional "modulus" gives the defining polynomial of GF(p^e) as e+1
digits, checked by ``gf.make_field``.  Exit codes: 0 ok, 1 malformed
input, 2 singular matrix, 3 a cap was exceeded, 4 internal invariant
violation; an error exits with the ``exit_code`` of its class.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NamedTuple

from . import __version__, errors
from .dynamics import (
    INT_RENDER_CAP,
    Entropy,
    entropy,
    nk_spectral,
    nk_table,
    system_data,
)
from .gf import make_field
from .polycore import FACTOR_SEED, Poly
from .zeta import (
    classify,
    num_str,
    power_str,
    series_from_closed_form,
    series_from_nk,
)

MAX_DIM = 8
MAX_ENTRY_DEG = 32
# Largest --max and --terms, a bound on time and output size; the README
# ("Command line") lists the times at the entry caps.
MAX_K = 60


class ProblemSpec(NamedTuple):
    p: int
    e: int
    modulus: object  # as given, checked by make_field; None when omitted
    d: int
    matrix: tuple  # d x d of tuples of packed coefficient ints


def _as_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise errors.MalformedInputError(f"{what} must be an integer")
    return value


def _packed_coeff(value, p: int, e: int) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        if e != 1:
            raise errors.MalformedInputError(
                "bare integer coefficients are only allowed when e = 1"
            )
        if not 0 <= value < p:
            raise errors.MalformedInputError(f"coefficient {value} outside [0, {p})")
        return value
    if isinstance(value, list):
        if len(value) != e:
            raise errors.MalformedInputError(
                f"coefficient digit list must have length e = {e}"
            )
        packed = 0
        for i, digit in enumerate(value):
            digit = _as_int(digit, "coefficient digit")
            if not 0 <= digit < p:
                raise errors.MalformedInputError(f"digit {digit} outside [0, {p})")
            packed += digit * p**i
        return packed
    raise errors.MalformedInputError("coefficients must be integers or digit lists")


def parse_problem(doc) -> ProblemSpec:
    if not isinstance(doc, dict):
        raise errors.MalformedInputError("problem must be a JSON object")
    unknown = set(doc) - {"p", "e", "modulus", "d", "matrix"}
    if unknown:
        raise errors.MalformedInputError(f"unknown problem keys: {sorted(unknown)}")
    if "p" not in doc or "d" not in doc or "matrix" not in doc:
        raise errors.MalformedInputError("problem needs p, d, and matrix")
    p = _as_int(doc["p"], "p")
    e = _as_int(doc.get("e", 1), "e")
    if p < 2 or e < 1:
        raise errors.MalformedInputError("need p >= 2 and e >= 1")
    d = _as_int(doc["d"], "d")
    if d < 1:
        raise errors.MalformedInputError("d must be positive")
    if d > MAX_DIM:
        raise errors.MalformedInputError(f"d = {d} exceeds the limit {MAX_DIM}")
    matrix = doc["matrix"]
    if not isinstance(matrix, list) or len(matrix) != d:
        raise errors.MalformedInputError(f"matrix must be a list of {d} rows")
    rows = []
    for row in matrix:
        if not isinstance(row, list) or len(row) != d:
            raise errors.MalformedInputError(f"each matrix row must have {d} entries")
        entries = []
        for entry in row:
            if not isinstance(entry, list):
                raise errors.MalformedInputError(
                    "matrix entries must be coefficient lists"
                )
            if len(entry) > MAX_ENTRY_DEG + 1:
                raise errors.MalformedInputError(
                    f"entry degree exceeds the limit {MAX_ENTRY_DEG}"
                )
            entries.append(tuple(_packed_coeff(c, p, e) for c in entry))
        rows.append(tuple(entries))
    return ProblemSpec(p=p, e=e, modulus=doc.get("modulus"), d=d, matrix=tuple(rows))


def load_problem(path: str) -> ProblemSpec:
    try:
        if path == "-":
            raw = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
    except (OSError, UnicodeDecodeError) as ex:
        raise errors.MalformedInputError(f"cannot read {path}: {ex}")
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError) as ex:
        raise errors.MalformedInputError(f"invalid JSON: {ex}")
    return parse_problem(doc)


def build_system(spec: ProblemSpec):
    """Field and matrix from a parsed problem.

    Singular matrices are rejected by the first analysis step every command
    takes (checked_charpoly, also inside system_data), not here.
    """
    field = make_field(spec.p, spec.e, spec.modulus)
    A = [[Poly(field, entry) for entry in row] for row in spec.matrix]
    return field, A


def _check_k(option: str, value: int) -> None:
    if value < 1:
        raise errors.MalformedInputError(f"{option} must be at least 1")
    if value > MAX_K:
        raise errors.CapExceededError(f"{option} {value} exceeds the limit {MAX_K}")


def _expanded_matrix(spec: ProblemSpec, p: int, e: int):
    out = []
    for row in spec.matrix:
        out.append(
            [[[c // p**i % p for i in range(e)] for c in entry] for entry in row]
        )
    return out


def _nk_render(v, q: int) -> str:
    return "0" if v.is_zero else power_str(q, v.exponent)


def _nk_entry(k: int, direct, spect, q: int):
    entry = {
        "k": k,
        "zero": direct.is_zero,
        "q_exponent": 0 if direct.is_zero else direct.exponent,
        "routes_equal": direct == spect,
    }
    if direct.is_zero or direct.exponent <= INT_RENDER_CAP:
        entry["value"] = _nk_render(direct, q)
    return entry


def build_report(spec: ProblemSpec, max_k: int, terms: int) -> dict:
    field, A = build_system(spec)
    sd = system_data(field, A)
    table = nk_table(field, A, max(max_k, terms))
    nks, nks_for_series = table[:max_k], table[:terms]
    zres = classify(sd)
    doc = {
        "schema": 1,
        "tool": {"name": "ffzeta", "version": __version__},
        "seed": FACTOR_SEED,
        "problem": {
            "p": spec.p,
            "e": spec.e,
            "modulus": list(field.modulus),
            "d": spec.d,
            "matrix": _expanded_matrix(spec, spec.p, spec.e),
        },
        # det A = (-1)^d P(0)
        "det_t_degree": sd.P.coeff(0).degree,
        "entropy": {"E": sd.E, "q": field.q, "log_value": Entropy(sd.E, field.q).value},
        "abs_spectrum": [
            {
                "slope_num": slope.numerator,
                "slope_den": slope.denominator,
                "length": length,
            }
            for slope, length in sd.hull.edges
        ],
        "spectral": {
            "rou_orders": [[m, mult] for m, mult in sd.rou_orders],
            "unit_orders": [[n, mult] for n, mult in sd.unit_orders],
            "weights": [[n, w] for n, w in sd.weights],
        },
        "nk": [
            _nk_entry(k, v, nk_spectral(field, sd, k), field.q)
            for k, v in enumerate(nks, start=1)
        ],
        "zeta": _zeta_doc(field, zres, nks_for_series, terms),
    }
    return doc


def _zeta_doc(field, zres, nks, terms):
    out = {"algebraic": zres.algebraic, "radius_exponent": zres.radius_exponent}
    nk_series = series_from_nk(field.q, nks, terms)
    if zres.algebraic:
        cf = zres.closed_form
        out["closed_form"] = {
            "factors": {
                str(L): {"num": g.numerator, "den": g.denominator}
                for L, g in cf.factors
            },
            "display": cf.display(),
        }
        cf_series = series_from_closed_form(cf, terms)
        equal = cf_series == nk_series
        out["series"] = [num_str(c) for c in cf_series.coeffs]
        out["series_from_nk"] = (
            out["series"] if equal else [num_str(c) for c in nk_series.coeffs]
        )
        out["series_routes_equal"] = equal
    else:
        cert = zres.certificate
        out["certificate"] = {
            "bad_unit_order": cert.bad_unit_order,
            "rou_orders": list(cert.rou_orders),
        }
        out["series"] = [num_str(c) for c in nk_series.coeffs]
    return out


def _render_text(doc: dict) -> str:
    lines = []

    def walk(prefix, val):
        if isinstance(val, dict):
            for key in sorted(val):
                walk(f"{prefix}.{key}" if prefix else key, val[key])
        elif isinstance(val, list):
            lines.append(f"{prefix} = {json.dumps(val, sort_keys=True)}")
        else:
            lines.append(f"{prefix} = {val}")

    walk("", doc)
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise errors.MalformedInputError(message)


def _make_parser() -> _Parser:
    parser = _Parser(
        prog="ffzeta",
        description=__doc__.splitlines()[0],
        epilog=(
            "exit codes: 0 ok, 1 malformed input, 2 singular matrix, "
            "3 cap exceeded, 4 internal invariant violation"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("classify", "entropy", "nk", "zeta", "report"):
        s = sub.add_parser(name)
        s.add_argument("problem", help="path to a problem JSON file, or - for stdin")
        if name in ("nk", "report"):
            s.add_argument("--max", type=int, default=12, help="largest k (default 12)")
        if name in ("zeta", "report"):
            s.add_argument(
                "--terms", type=int, default=20, help="series order (default 20)"
            )
        if name == "report":
            fmt = s.add_mutually_exclusive_group()
            fmt.add_argument("--json", dest="fmt", action="store_const", const="json")
            fmt.add_argument("--text", dest="fmt", action="store_const", const="text")
            s.set_defaults(fmt="json")
    return parser


def _cmd_classify(args, spec) -> int:
    field, A = build_system(spec)
    sd = system_data(field, A)
    zres = classify(sd)
    if zres.algebraic:
        print("classification: algebraic")
        print(f"zeta: {zres.closed_form.display()}")
    else:
        cert = zres.certificate
        print("classification: transcendental")
        print(f"bad_unit_order: {cert.bad_unit_order}")
        print(f"rou_orders: {list(cert.rou_orders)}")
    print(f"radius_exponent: {zres.radius_exponent}")
    return 0


def _cmd_entropy(args, spec) -> int:
    field, A = build_system(spec)
    ent = entropy(field, A)
    print(f"E: {ent.E}")
    print(f"q: {ent.q}")
    print(f"entropy: {ent.E}*log({ent.q}) = {ent.value:.12g}")
    return 0


def _cmd_nk(args, spec) -> int:
    field, A = build_system(spec)
    sd = system_data(field, A)
    for k, v in enumerate(nk_table(field, A, args.max), start=1):
        s = nk_spectral(field, sd, k)
        flag = "yes" if v == s else "NO"
        print(
            f"N_{k} = {_nk_render(v, field.q)}"
            f" (spectral {_nk_render(s, field.q)}, equal {flag})"
        )
    return 0


def _series_str(coeffs) -> str:
    pieces = []
    for i, cs in enumerate(coeffs):
        if cs == "0":
            continue
        if "/" in cs and i > 0:
            cs = f"({cs})"
        elif cs == "1" and i > 0:
            cs = ""
        if i == 0:
            pieces.append(cs)
        elif i == 1:
            pieces.append(f"{cs}z")
        else:
            pieces.append(f"{cs}z^{i}")
    return " + ".join(pieces) or "0"


def _cmd_zeta(args, spec) -> int:
    field, A = build_system(spec)
    zres = classify(system_data(field, A))
    doc = _zeta_doc(field, zres, nk_table(field, A, args.terms), args.terms)
    shown = _series_str(doc["series"])
    if doc["algebraic"]:
        print(f"zeta: {doc['closed_form']['display']}")
        print(f"series: {shown}")
        if doc["series_routes_equal"]:
            print(f"series from N_k: {shown} (equal yes)")
        else:
            print(f"series from N_k: {_series_str(doc['series_from_nk'])} (equal NO)")
    else:
        print("zeta: transcendental")
        print(f"bad_unit_order: {doc['certificate']['bad_unit_order']}")
        print(f"series: {shown}")
    return 0


def _cmd_report(args, spec) -> int:
    doc = build_report(spec, args.max, args.terms)
    if args.fmt == "json":
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(_render_text(doc))
    return 0


_COMMANDS = {
    "classify": _cmd_classify,
    "entropy": _cmd_entropy,
    "nk": _cmd_nk,
    "zeta": _cmd_zeta,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    try:
        args = _make_parser().parse_args(argv)
        for option in ("max", "terms"):
            if option in vars(args):
                _check_k(f"--{option}", getattr(args, option))
        spec = load_problem(args.problem)
        code = _COMMANDS[args.command](args, spec)
        sys.stdout.flush()
        return code
    except errors.Error as ex:
        internal = isinstance(ex, errors.InternalInvariantError)
        print(f"{'internal error' if internal else 'error'}: {ex}", file=sys.stderr)
        return ex.exit_code
    except BrokenPipeError:
        # the reader closed stdout; on devnull the interpreter's last flush
        # of what is still buffered stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
