"""ffzeta benchmark: seeded workloads, checked outputs, metrics by name.

    python3 bench/run.py --workload corpus-routes --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout (the directory holding ``src/ffzeta``).
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced run instead.  The exit status is non-zero when any
output check fails, or when the package cannot be found.

Each workload runs in one worker process (``worker.py``), one at a time.
Set-up time is the median of three timed starts of a fresh interpreter up
to the point where ``import ffzeta`` and ``make_field`` for every field of
the workload are done: two set-up-only starts and the worker's own.
Every end-to-end time is scaled to a reference host speed, measured with
the kernels of ``hostspeed.py``; the unscaled figures are printed too.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from tracer import FIELD_CLASSES  # noqa: E402

WORKLOADS = ("corpus-routes", "cli-cap", "spectral-wide")
SETUP_SAMPLES = 3
# How setup_s is scaled to the reference host speed, like the op times.
# Where set-up is mostly interpreter start and imports, a fresh
# interpreter is timed right before each start.  spectral-wide's set-up
# is seconds of pure-Python field-table building; the compute kernel
# tracks that best over the whole run that follows (None).
SETUP_KERNEL = {"corpus-routes": "spawn", "cli-cap": "spawn", "spectral-wide": None}
RUN_LIMIT = 170.0  # seconds one workload may take in all, set-up included

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "success_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    """Name -> unit of every per-layer metric, in print order."""
    out = {}
    for kernel in ("poly_mul", "poly_divmod", "poly_addsub"):
        for cls in FIELD_CLASSES:
            out[f"gf.{kernel}.{cls}.calls"] = "count/op"
            out[f"gf.{kernel}.{cls}.self_s"] = "s/op"
    out["gf.kernel.long_frac"] = "ratio"
    out["gf.scalar.calls"] = "count/op"
    out["gf.order_of_root.calls"] = "count/op"
    out["gf.order_of_root.self_s"] = "s/op"
    out["gf.order_of_root.total_s"] = "s/op"
    out["gf.factorint.self_s"] = "s/op"
    out["gf.make_field.calls"] = "count"
    out["gf.make_field.self_s"] = "s"
    for fn in ("factor", "is_irreducible", "modpow", "poly_gcd", "resultant"):
        out[f"polycore.{fn}.calls"] = "count/op"
        out[f"polycore.{fn}.self_s"] = "s/op"
    out["polycore.factor.total_s"] = "s/op"
    for fn in ("mat_mul", "det"):
        out[f"polymat.{fn}.calls"] = "count/op"
        out[f"polymat.{fn}.self_s"] = "s/op"
    out["polymat.det.total_s"] = "s/op"
    out["polymat.det.mean_entry_deg"] = "degree"
    out["polymat.charpoly.total_s"] = "s/op"
    out["newton.polygon.calls"] = "count/op"
    out["newton.polygon.self_s"] = "s/op"
    out["newton.unit_residual.self_s"] = "s/op"
    for fn in ("spectral_data", "rou_split", "weights_from_residual"):
        out[f"spectral.{fn}.self_s"] = "s/op"
    out["dynamics.system_data.total_s"] = "s/op"
    out["dynamics.nk_spectral.self_s"] = "s/op"
    out["dynamics.nk_table.self_s"] = "s/op"
    out["dynamics.nk_table.k_total"] = "count/op"
    for fn in ("classify", "closed_form", "series_from_nk", "series_from_closed_form", "nk_from_series"):
        out[f"zeta.{fn}.self_s"] = "s/op"
    for fn in ("load_problem", "build_system", "build_report", "main"):
        out[f"cli.{fn}.self_s"] = "s/op"
    out["cli.det_calls_per_cmd"] = "count"
    out["cli.nk_k_per_cmd"] = "count"
    out["trace.overhead"] = "ratio"
    return out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(latencies):
    """(value, percentile, n): the highest percentile with >= 10 ops beyond it."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= 10:
        return lat[-1], 100.0, n
    return lat[n - 11], 100.0 * (n - 10) / n, n


def summarize(records):
    """The correct/attempted/failed fields of the result line."""
    return {
        "correct": not any(r.get("mismatch") for r in records),
        "attempted": len(records),
        "failed": sum(r["fail"] is not None for r in records),
    }


def end_to_end(records, setups, peak_rss_mb, key="scaled_s"):
    """End-to-end metrics from the op times under `key`.

    Failed ops count in op time unscaled: most of them end at their budget,
    which is wall time whatever the speed of the host.
    """
    ok = [r[key] for r in records if r["fail"] is None]
    wall = sum(ok) + sum(r["s"] for r in records if r["fail"] is not None)
    value, pct, n = tail(ok)
    return {
        "ops_per_s": len(ok) / wall,
        "latency_p50_s": statistics.median(ok),
        "latency_tail_s": value,
        "success_frac": len(ok) / len(records),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }, (pct, n)


def per_layer(result, n_ops):
    """Per-layer metrics from the worker's span aggregates; times per op."""
    spans = {}
    for row in result["trace"]["spans"]:
        agg = spans.setdefault(row["name"], [0, 0.0, 0.0])
        agg[0] += row["calls"]
        agg[1] += row["total_s"]
        agg[2] += row["self_s"]
    counts = {}
    for row in result["trace"]["counts"]:
        counts[row["name"]] = counts.get(row["name"], 0) + row["value"]

    def span(name, i):
        return spans.get(name, [0, 0.0, 0.0])[i]

    out = {}
    for name, unit in per_layer_units().items():
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            v = span(base, 0)
        elif kind == "self_s":
            v = span(base, 2)
        elif kind == "total_s":
            v = span(base, 1)
        else:
            v = None
        if v is not None and unit.endswith("/op"):
            v /= n_ops
        out[name] = v
    kernel_calls = counts.get("gf.kernel.calls", 0)
    out["gf.kernel.long_frac"] = counts.get("gf.kernel.long", 0) / kernel_calls if kernel_calls else 0.0
    out["gf.scalar.calls"] = counts.get("gf.scalar.calls", 0) / n_ops
    tmat = counts.get("polymat.det.tmat_calls", 0)
    out["polymat.det.mean_entry_deg"] = (
        counts.get("polymat.det.entry_deg_mean_sum", 0) / tmat if tmat else 0.0
    )
    out["dynamics.nk_table.k_total"] = counts.get("dynamics.nk_table.k_total", 0) / n_ops
    reports = result.get("report_counts", [])
    out["cli.det_calls_per_cmd"] = statistics.mean(r[0] for r in reports) if reports else 0.0
    out["cli.nk_k_per_cmd"] = statistics.mean(r[1] for r in reports) if reports else 0.0
    out["trace.overhead"] = result["trace_overhead"]
    return out


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def worker_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Overrun(Exception):
    pass


def on_alarm(_signum, _frame):
    raise Overrun()


def kill_group(proc):
    """Kill a worker and every process it started, and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def host_scale(kernel, env):
    """REF_S over the median of three kernel times taken now."""
    meter = hostspeed.Meter(kernel, env=env)
    for _ in range(3):
        meter.tick()
    return meter.scale(1)


def start_worker(args, env, deadline):
    """Start worker.py; returns (process, seconds until it printed ready)."""
    t0 = time.perf_counter()
    # its own process group, so that kill_group reaches the CLI commands too
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")] + args,
        stdout=subprocess.PIPE,
        env=env,
        text=True,
        start_new_session=True,
    )
    try:
        signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 0.1))
        line = proc.stdout.readline()
        signal.setitimer(signal.ITIMER_REAL, 0)
    except BaseException:
        kill_group(proc)
        raise
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, deadline)
        raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, ready


def finish(proc, deadline):
    """Wait for a worker and return its remaining output; kill at the deadline."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.1))
    except subprocess.TimeoutExpired:
        kill_group(proc)
        raise RuntimeError("worker overran the time limit of the run and was killed")
    except BaseException:
        kill_group(proc)
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return out


def run_workload(workload, seed, seconds, trace, root, deadline):
    env = worker_env(root)
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    kernel = SETUP_KERNEL[workload]
    setups, scales = [], []
    for _ in range(SETUP_SAMPLES - 1):
        if kernel:
            scales.append(host_scale(kernel, env))
        proc, ready = start_worker(["setup"] + common, env, deadline)
        finish(proc, deadline)
        setups.append(ready)
    if kernel:
        scales.append(host_scale(kernel, env))
    proc, ready = start_worker(
        ["run"] + common + ["--trace", str(trace)], env, deadline
    )
    setups.append(ready)
    out = finish(proc, deadline)
    result = json.loads(out.strip().splitlines()[-1])
    records = result["records"]
    for r in [r for r in records if r["fail"] is not None][:10]:
        print(f"{workload}: op {r['i']} failed: {r['fail'][0]} in {r['fail'][1]}")
    summary = summarize(records)
    if summary["failed"] == summary["attempted"]:
        raise RuntimeError(f"{workload}: no op succeeded")
    if trace:
        summary["metrics"] = per_layer(result, len(records))
        units = per_layer_units()
    else:
        raw, _ = end_to_end(records, setups, result["peak_rss_mb"], key="s")
        print(f"{workload}: unscaled ops_per_s {raw['ops_per_s']:.6g}, "
              f"latency_p50_s {raw['latency_p50_s']:.6g}, latency_tail_s {raw['latency_tail_s']:.6g}, "
              f"setup_s {raw['setup_s']:.6g}")
        if not kernel:
            scales = [hostspeed.REF_S["compute"] / result["kernel_s"]] * len(setups)
        scaled_setups = [s * k for s, k in zip(setups, scales)]
        metrics, (pct, n) = end_to_end(records, scaled_setups, result["peak_rss_mb"])
        summary["metrics"] = metrics
        units = END_TO_END
        print(f"{workload}: latency_tail_s is p{pct:.1f} of {n} successful ops")
        print(f"{workload}: failed_frac = {summary['failed']}/{len(records)} "
              f"= {summary['failed'] / len(records):.4f}")
    summary["metrics"] = {
        k: {"value": summary["metrics"][k], "unit": units[k]} for k in units
    }
    for k, m in summary["metrics"].items():
        print(f"{workload}: {k} = {m['value']:.6g} {m['unit']}")
    if trace:
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{workload}-{seed}.json").write_text(json.dumps(result["trace"]))
    return summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ffzeta" / "__init__.py").is_file():
        print("error: run from a checkout root holding src/ffzeta", file=sys.stderr)
        return 2
    if not (root / "problems").is_dir():
        print("error: the checkout has no problems/ directory", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    signal.signal(signal.SIGALRM, on_alarm)
    # SIGTERM ends the run through the same clean-up as an error
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(1))
    try:
        for w in names:
            deadline = time.monotonic() + RUN_LIMIT
            results[w] = run_workload(w, args.seed, args.seconds, args.trace, root, deadline)
    except Overrun:
        print("error: a worker overran the time limit of the run in set-up", file=sys.stderr)
        return 1
    except RuntimeError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()
            },
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
