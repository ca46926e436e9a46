"""The workload process: set up, run a fixed list of seeded ops, report.

    python3 bench/worker.py setup --workload W --seed S --seconds T
    python3 bench/worker.py run --workload W --seed S --seconds T --trace 0|1

``run.py`` starts this from the root of a checkout with ``src`` on
PYTHONPATH.  It prints ``ready`` once ``import ffzeta`` and ``make_field``
for every field of the workload are done (the parent times set-up up to
that line), then, in ``run`` mode, one JSON line with the per-op records.
The number of ops follows from ``--seconds`` (``workloads.pool_size``),
not from a clock, so two runs of one seed attempt the same ops.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import ops  # noqa: E402
import workloads  # noqa: E402
from tracer import field_class  # noqa: E402

DEFAULT_SEED = 1
EXPECTED = HERE / "expected.json"
OUT_DIR = Path(".bench_out")
# Per-op time budgets in seconds.  The cli-cap budget covers process
# start, import and field build, which every command pays.  The
# spectral-wide budget sits in the gap between its slowest successful op
# (1.1 s) and its overruns (over 6 s), so the same ops fail on every run.
BUDGET = {"corpus-routes": 10.0, "spectral-wide": 2.5, "cli-cap": 15.0}
# Timed passes over the pool.  An op's latency is the lowest of its
# passes, so that a burst of load from elsewhere on a shared host, which
# only ever slows an op, must hit every pass of it to show.  spectral-wide
# has the fewest ops, so its median moves most with the noise of one op.
PASSES = {"corpus-routes": 2, "spectral-wide": 3, "cli-cap": 2}
# Reference kernel of each workload (hostspeed.py), timed before every
# op, or every sixth op for the one that starts a process.
KERNEL = {"corpus-routes": ("compute", 1), "spectral-wide": ("compute", 1), "cli-cap": ("spawn", 6)}
# Address-space cap for this process and its children: a runaway
# allocation then fails with MemoryError instead of filling the machine.
ADDRESS_CAP = 4 << 30


def fields_of(workload, seconds):
    if workload == "corpus-routes":
        return list(workloads.CORPUS_FIELDS)
    if workload == "cli-cap":
        return sorted({(p, e) for p, e, *_shape in workloads.CLI_SHAPES})
    rounds = workloads.pool_size(workload, seconds)
    return sorted({(p, e) for p, e, *_shape in workloads.spectral_fields(rounds)})


def make_pool(workload, seed, seconds):
    n = workloads.pool_size(workload, seconds)
    if workload == "corpus-routes":
        return workloads.corpus_routes(seed, pool=n * workloads.CORPUS_BLOCK)
    if workload == "spectral-wide":
        return workloads.spectral_wide(seed, rounds=n)
    problems = [json.loads(p.read_text()) for p in sorted(Path("problems").glob("*.json"))]
    return workloads.cli_cap(seed, problems, rounds=n)


class Runner:
    """Executes ops of one workload and keeps one record per op."""

    def __init__(self, workload, seed, tracer=None, pool=None, seconds=30.0, meter=None):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.meter = meter
        self.pool = make_pool(workload, seed, seconds) if pool is None else pool
        self.expected = {}
        if seed == DEFAULT_SEED and EXPECTED.exists():
            self.expected = json.loads(EXPECTED.read_text()).get(workload, {})
        self.env = dict(os.environ)
        self.paths = []
        if workload == "cli-cap":
            base = OUT_DIR / "cli-cap" / str(seed)
            base.mkdir(parents=True, exist_ok=True)
            for i, op in enumerate(self.pool):
                path = base / f"op{i}.json"
                path.write_text(json.dumps(op["doc"]))
                self.paths.append(str(path))
        self.report_counts = []  # (det calls, nk k-steps) per default report

    def run_one(self, i, traced=False):
        """(record, output or None) for pool op i."""
        op = self.pool[i]
        tr = self.tracer
        t0 = time.perf_counter()
        if self.workload == "cli-cap" and tr is None:
            _rc, out, failure = ops.cli_subprocess(op, self.paths[i], self.env, BUDGET["cli-cap"])
        else:
            if tr is not None:
                fields = op.get("doc", op)
                tr.field_class = field_class(fields["p"], fields.get("e", 1))
                before = (tr.counter("cmd.det_calls"), tr.counter("dynamics.nk_table.k_total"))
                tr.enabled = traced
            out, failure = self._guarded(i)
            if tr is not None:
                tr.enabled = False
                if traced and op.get("argv") == ["report"]:
                    after = (tr.counter("cmd.det_calls"), tr.counter("dynamics.nk_table.k_total"))
                    self.report_counts.append((after[0] - before[0], after[1] - before[1]))
        return {"i": i, "s": time.perf_counter() - t0, "fail": failure}, (None if failure else out)

    def tick(self):
        return None if self.meter is None else self.meter.tick()

    def _guarded(self, i):
        """(output, None) or (None, (failure kind, layer)) for op i in-process."""
        op = self.pool[i]
        try:
            with ops.budget(BUDGET[self.workload]):
                if self.workload == "cli-cap":
                    rc, out = ops.cli_inprocess(op, self.paths[i])
                    return (out, None) if rc == 0 else (None, (f"exit{rc}", "-"))
                fn = ops.corpus_op if self.workload == "corpus-routes" else ops.spectral_op
                return fn(op), None
        except ops.OpTimeout as ex:
            return None, ("OpTimeout", ex.layer)
        except Exception as ex:  # the op failed (the CLI would exit 1); go on
            return None, (type(ex).__name__, ops.layer_of_traceback(ex.__traceback__))

    def check(self, i, out):
        """Mismatch messages for the output of pool op i (empty if right)."""
        op = self.pool[i]
        checker = {
            "corpus-routes": ops.check_corpus,
            "spectral-wide": ops.check_spectral,
            "cli-cap": ops.check_cli,
        }[self.workload]
        try:
            bad = checker(op, out)
        except Exception as ex:  # a check that cannot even run is a mismatch
            bad = [f"check raised {type(ex).__name__}: {ex}"]
        want = self.expected.get(ops.op_key(op))
        if want is not None and not want.startswith("fail:"):
            got = ops.digest(out)
            if got != want:
                bad.append(f"digest {got} != expected {want}")
        return bad

    def run_all(self, traced, passes=1):
        """One record per pool op, after one untimed warm-up op.

        Every op runs once, in pool order, and its output is checked.  Each
        further pass runs the ops that have not failed again; an op that
        fails in a later pass counts as failed.  An op's time "s" is the
        lowest of its passes, and with a meter "scaled_s" is the lowest of
        its times scaled to the reference host speed.
        """
        self.run_one(0, traced=False)
        records, times = [], []
        for i in range(len(self.pool)):
            tick = self.tick()
            rec, out = self.run_one(i, traced)
            if rec["fail"] is None:
                bad = self.check(i, out)
                if bad:
                    rec["fail"] = ("mismatch", "; ".join(bad))
                    rec["mismatch"] = True
            records.append(rec)
            times.append([(tick, rec["s"])])
        for _ in range(passes - 1):
            for rec, ts in zip(records, times):
                if rec["fail"] is None:
                    tick = self.tick()
                    again, _out = self.run_one(rec["i"], traced)
                    rec["fail"] = again["fail"]
                    ts.append((tick, again["s"]))
        for rec, ts in zip(records, times):
            rec["s"] = min(s for _tick, s in ts)
            if self.meter is not None:
                rec["scaled_s"] = min(s * self.meter.scale(tick) for tick, s in ts)
        return records


def setup(workload, seconds, trace):
    """import ffzeta and build every field; returns the tracer or None."""
    import ffzeta  # noqa: F401
    from ffzeta.gf import make_field

    tr = None
    if trace:
        from tracer import Tracer

        tr = Tracer()
        tr.install()
        tr.enabled = True
        make_field = sys.modules["ffzeta.gf"].make_field
    for p, e in fields_of(workload, seconds):
        make_field(p, e)
    if tr is not None:
        tr.enabled = False
    return tr


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args(argv)
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_CAP, ADDRESS_CAP))

    tr = setup(args.workload, args.seconds, args.trace)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    meter = None
    if not args.trace:
        kernel, every = KERNEL[args.workload]
        meter = hostspeed.Meter(kernel, every, env=dict(os.environ))
    runner = Runner(args.workload, args.seed, tr, seconds=args.seconds, meter=meter)
    # a traced run makes one pass: its figures are per op, not latencies
    passes = 1 if args.trace else PASSES[args.workload]
    records = runner.run_all(traced=bool(args.trace), passes=passes)
    result = {"records": records}
    if meter is not None:
        result["kernel_s"] = meter.median()
    if args.workload == "cli-cap" and tr is None:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["peak_rss_mb"] = rss_kb / 1024.0
    if tr is not None:
        traced_wall = sum(r["s"] for r in records)
        tr.uninstall()
        untraced = [runner.run_one(r["i"], traced=False)[0]["s"] for r in records]
        result["trace"] = tr.dump()
        result["trace_overhead"] = traced_wall / max(sum(untraced), 1e-9)
        result["report_counts"] = runner.report_counts
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
