"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def problems():
    return [json.loads(p.read_text()) for p in sorted((ROOT / "problems").glob("*.json"))]


def test_same_seed_same_inputs():
    assert workloads.corpus_routes(5, pool=30) == workloads.corpus_routes(5, pool=30)
    assert workloads.spectral_wide(5, rounds=1) == workloads.spectral_wide(5, rounds=1)
    assert workloads.cli_cap(5, problems(), rounds=1) == workloads.cli_cap(5, problems(), rounds=1)
    assert workloads.corpus_routes(5, pool=30) != workloads.corpus_routes(6, pool=30)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_run_length_is_a_fixed_number_of_ops():
    assert workloads.pool_size("corpus-routes", 30) == workloads.pool_size("corpus-routes", 30)
    assert workloads.pool_size("spectral-wide", 1) == 1
    fields = workloads.spectral_fields(rounds=2)
    assert fields == workloads.spectral_fields(rounds=3)[:16]


def small_runner(workload="corpus-routes"):
    pool = workloads.corpus_routes(worker.DEFAULT_SEED, pool=2)
    return worker.Runner(workload, worker.DEFAULT_SEED, pool=pool)


def test_gate_fails_on_corrupted_digest():
    r = small_runner()
    rec, out = r.run_one(0)
    assert rec["fail"] is None
    key = ops.op_key(r.pool[0])
    r.expected = {key: ops.digest(out)}
    assert r.check(0, out) == []
    r.expected = {key: "0" * 16}
    assert any("digest" in m for m in r.check(0, out))
    records = r.run_all(traced=False)
    assert records[0].get("mismatch")
    assert run.summarize(records)["correct"] is False


def test_second_pass_keeps_lower_time_and_counts_failures(monkeypatch):
    r = small_runner()
    monkeypatch.setattr(r, "check", lambda i, out: [])
    # per op: warm-up (op 0 only), first pass, second pass
    script = {0: [0.9, 0.5, 0.3], 1: [0.2, None]}

    def fake_run_one(i, traced=False):
        s = script[i].pop(0)
        if s is None:
            return {"i": i, "s": 2.5, "fail": ("OpTimeout", "-")}, None
        return {"i": i, "s": s, "fail": None}, "out"

    monkeypatch.setattr(r, "run_one", fake_run_one)
    records = r.run_all(traced=False, passes=2)
    assert records[0] == {"i": 0, "s": 0.3, "fail": None}
    assert records[1]["fail"][0] == "OpTimeout"
    assert run.summarize(records) == {"correct": True, "attempted": 2, "failed": 1}


def test_host_scale_uses_kernel_times_near_the_op():
    meter = hostspeed.Meter("compute", every=1, window=1)
    ref = hostspeed.REF_S["compute"]
    # slow host for ticks 0-2, twice as fast from tick 3 on
    meter.samples = [(t, 2 * ref if t < 3 else ref) for t in range(8)]
    assert meter.scale(0) == 0.5
    assert meter.scale(6) == 1.0


def test_scaled_latency_is_the_lowest_scaled_pass(monkeypatch):
    r = small_runner()
    monkeypatch.setattr(r, "check", lambda i, out: [])
    r.pool = r.pool[:1]
    r.meter = hostspeed.Meter("compute")
    monkeypatch.setattr(r.meter, "scale", lambda tick: {1: 0.5, 2: 1.0}.get(tick, 1.0))
    script = [0.9, 0.4, 0.3]  # warm-up, first pass (tick 1), second pass (tick 2)
    monkeypatch.setattr(r, "run_one", lambda i, traced=False: ({"i": i, "s": script.pop(0), "fail": None}, "out"))
    monkeypatch.setattr(hostspeed, "compute", lambda: None)
    r.meter.ticks = 1
    (rec,) = r.run_all(traced=False, passes=2)
    assert rec["s"] == 0.3
    assert rec["scaled_s"] == 0.2


def test_known_failure_accepts_any_checked_output():
    r = small_runner()
    rec, out = r.run_one(0)
    r.expected = {ops.op_key(r.pool[0]): "fail:MemoryError"}
    assert r.check(0, out) == []


class FakeClock:
    """perf_counter stand-in that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now


def test_self_time_of_nested_calls(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracer, "time", clock)
    tr = tracer.Tracer()

    def inner():
        clock.now += 2.0

    w_inner = tr.wrap("inner", inner)

    def outer():
        clock.now += 1.0
        w_inner()
        w_inner()
        clock.now += 0.5

    w_outer = tr.wrap("outer", outer)
    tr.enabled = True
    w_outer()
    totals = tr.totals()
    assert totals["outer"] == [1, 5.5, 1.5]
    assert totals["inner"] == [2, 4.0, 4.0]
    assert ("inner", "outer", "-") in tr.spans


def spin():
    while True:
        pass


def test_budget_overrun_is_a_failure(monkeypatch):
    r = small_runner()
    monkeypatch.setitem(worker.BUDGET, "corpus-routes", 0.05)
    monkeypatch.setattr(ops, "corpus_op", lambda spec: spin())
    t0 = time.perf_counter()
    rec, out = r.run_one(0)
    assert time.perf_counter() - t0 < 2.0
    assert out is None
    assert rec["fail"][0] == "OpTimeout"
    summary = run.summarize([rec, {"i": 1, "s": 0.1, "fail": None}])
    assert summary == {"correct": True, "attempted": 2, "failed": 1}


def test_cli_timeout_is_a_failure(tmp_path):
    path = tmp_path / "p.json"
    path.write_text((ROOT / "problems" / "shift_gf2.json").read_text())
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    rc, out, failure = ops.cli_subprocess({"argv": ["report"]}, str(path), env, 0.01)
    assert rc is None and failure[0] == "OpTimeout"


def test_tail_has_ten_ops_beyond_it():
    lat = [float(i) for i in range(100)]
    value, pct, n = run.tail(lat)
    assert sum(x > value for x in lat) == 10
    assert (pct, n) == (90.0, 100)


@pytest.mark.parametrize("p,e,cls", [(7, 1, "e1"), (2, 16, "ext"), (2**31 - 1, 1, "e1"), (2**31 + 11, 1, "bigp")])
def test_field_class(p, e, cls):
    assert tracer.field_class(p, e) == cls
