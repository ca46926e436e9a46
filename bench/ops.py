"""One benchmark operation per workload, and the checks on its output.

An in-process op returns a plain-data result; ``check_*`` compares the
independent routes inside it and returns a list of mismatch messages
(empty when correct).  ``digest`` condenses a result into the string that
the frozen expected digests of the default seed are compared against.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import signal
import subprocess
import sys

PKG_FRAME = re.compile(r'File "[^"]*ffzeta[/\\](\w+)\.py", line \d+, in (\w+)')


class OpTimeout(BaseException):
    """Raised by the interval timer when an op overruns its budget.

    A BaseException, so that no ``except Exception`` inside the package
    can swallow it.
    """

    def __init__(self, layer):
        super().__init__(layer)
        self.layer = layer


def innermost_layer(frame) -> str:
    """'module.function' of the innermost package frame on a stack."""
    while frame is not None:
        fname = frame.f_code.co_filename.replace("\\", "/")
        if "/ffzeta/" in fname:
            mod = fname.rsplit("/", 1)[-1][:-3]
            return f"{mod}.{frame.f_code.co_name}"
        frame = frame.f_back
    return "-"


def layer_of_traceback(tb) -> str:
    """Innermost package layer on the stack where an exception was raised."""
    while tb.tb_next is not None:
        tb = tb.tb_next
    return innermost_layer(tb.tb_frame)


@contextlib.contextmanager
def budget(seconds: float):
    """Raise OpTimeout in this thread once `seconds` of wall time pass."""

    def on_alarm(_signum, frame):
        raise OpTimeout(innermost_layer(frame))

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def digest(result) -> str:
    return hashlib.sha256(repr(result).encode()).hexdigest()[:16]


def op_key(op) -> str:
    """Content hash of an op's input, the key of its expected digest."""
    return hashlib.sha256(json.dumps(op, sort_keys=True).encode()).hexdigest()[:16]


def build(spec):
    from ffzeta.gf import make_field
    from ffzeta.polycore import Poly

    field = make_field(spec["p"], spec["e"])
    return field, [[Poly(field, c) for c in row] for row in spec["matrix"]]


# ---------------------------------------------------------------------------
# corpus-routes: system_data, one N_k table, spectral N_k, classify, series
# ---------------------------------------------------------------------------


def corpus_op(spec):
    from ffzeta.dynamics import nk_spectral, nk_table, system_data
    from ffzeta.zeta import classify, nk_from_series, series_from_closed_form, series_from_nk

    field, A = build(spec)
    K = spec["kmax"]
    sd = system_data(field, A)
    direct = nk_table(field, A, K)
    spectral = [nk_spectral(field, sd, k) for k in range(1, K + 1)]
    z = classify(sd)
    out = {
        "E": sd.E,
        "rou": sd.rou_orders,
        "unit": sd.unit_orders,
        "weights": sd.weights,
        "algebraic": z.algebraic,
        "direct": [None if v.is_zero else v.exponent for v in direct],
        "spectral": [None if v.is_zero else v.exponent for v in spectral],
    }
    if z.algebraic:
        cf_series = series_from_closed_form(z.closed_form, K)
        nk_series = series_from_nk(field.q, direct, K)
        out["factors"] = z.closed_form.factors
        out["series_equal"] = cf_series == nk_series
        out["round_trip"] = nk_from_series(nk_series) == [v.as_int(field.q) for v in direct]
        out["series"] = [str(c) for c in nk_series.coeffs]
    else:
        out["bad_unit_order"] = z.certificate.bad_unit_order
    return out


def check_corpus(spec, out):
    bad = []
    if out["direct"] != out["spectral"]:
        bad.append("direct and spectral N_k differ")
    if out["algebraic"]:
        if not out["series_equal"]:
            bad.append("closed-form series differs from the N_k series")
        if not out["round_trip"]:
            bad.append("nk_from_series does not return the N_k")
    return bad


# ---------------------------------------------------------------------------
# spectral-wide: classify and entropy, as the two CLI commands do
# ---------------------------------------------------------------------------


def spectral_op(spec):
    from ffzeta.dynamics import entropy, system_data
    from ffzeta.zeta import classify

    field, A = build(spec)
    z = classify(system_data(field, A))
    ent = entropy(field, A)
    sd_view = {
        "E": ent.E,
        "radius_exponent": z.radius_exponent,
        "algebraic": z.algebraic,
    }
    if z.algebraic:
        sd_view["factors"] = z.closed_form.factors
    else:
        sd_view["bad_unit_order"] = z.certificate.bad_unit_order
        sd_view["rou_orders"] = z.certificate.rou_orders
    return sd_view


def check_spectral(spec, out):
    """Hull rise == deg_t det A; E is 1 by construction and agrees with the
    radius of convergence; root-of-unity orders divide some q^j - 1."""
    from ffzeta.newton import polygon
    from ffzeta.polycore import polyring
    from ffzeta.polymat import charpoly, det

    field, A = build(spec)
    ring = polyring(field)
    bad = []
    rise = sum(s * n for s, n in polygon(charpoly(ring, A)).edges)
    if rise != det(ring, A).degree:
        bad.append(f"hull rise {rise} != deg det A")
    if out["E"] != 1:
        bad.append(f"entropy exponent {out['E']}, but the input is built with E = 1")
    if out["radius_exponent"] != -out["E"]:
        bad.append("entropy and classify disagree on E")
    q, d = field.q, len(A)
    for m in out.get("rou_orders", ()):
        if not any(pow(q, j, m) == 1 % m for j in range(1, d + 1)):
            bad.append(f"root-of-unity order {m} divides no q^j - 1")
    return bad


# ---------------------------------------------------------------------------
# cli-cap: one command per op
# ---------------------------------------------------------------------------


def cli_argv(op, path):
    return list(op["argv"][:1]) + [path] + list(op["argv"][1:])


def cli_subprocess(op, path, env, timeout):
    """Run `python -m ffzeta` as users do; returns (rc, stdout, failure)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "ffzeta"] + cli_argv(op, path),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        # SIGINT first, so the traceback names the layer that overran
        proc.send_signal(signal.SIGINT)
        try:
            out, err = proc.communicate(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        frames = PKG_FRAME.findall(err or "")
        layer = ".".join(frames[-1]) if frames else "-"
        return None, "", ("OpTimeout", layer)
    if proc.returncode != 0:
        frames = PKG_FRAME.findall(err)
        kind = err.strip().splitlines()[-1].split(":")[0] if err.strip() else "exit"
        return proc.returncode, out, (kind, ".".join(frames[-1]) if frames else "-")
    return 0, out, None


def cli_inprocess(op, path):
    """The same command through ffzeta.cli.main inside this process."""
    from ffzeta import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(cli_argv(op, path))
    return rc, buf.getvalue()


def check_cli(op, stdout):
    """Route-equality flags the CLI prints itself."""
    cmd = op["argv"][0]
    bad = []
    if cmd == "nk":
        lines = stdout.splitlines()
        if not lines or not all(line.endswith(", equal yes)") for line in lines):
            bad.append("nk: direct and spectral N_k differ")
    if cmd == "zeta" and "(equal NO)" in stdout:
        bad.append("zeta: series routes differ")
    if cmd == "report":
        doc = json.loads(stdout)
        if not all(e["routes_equal"] for e in doc["nk"]):
            bad.append("report: direct and spectral N_k differ")
        if doc["zeta"]["algebraic"] and not doc["zeta"]["series_routes_equal"]:
            bad.append("report: series routes differ")
        if doc["zeta"]["algebraic"]:
            from fractions import Fraction

            from ffzeta.zeta import SeriesTrunc, nk_from_series

            cs = tuple(Fraction(c) for c in doc["zeta"]["series_from_nk"])
            got = nk_from_series(SeriesTrunc(len(cs) - 1, cs))
            want = []
            for entry in doc["nk"]:
                if "value" not in entry:
                    break
                want.append(int(entry["value"]))
            n = min(len(got), len(want))
            if got[:n] != want[:n]:
                bad.append("report: nk_from_series does not return the N_k")
    if cmd == "entropy":
        m = re.search(r"^E: (\d+)$", stdout, re.M)
        if m is None:
            bad.append("entropy printed no E")
    return bad
