"""Write expected.json: the digest of every op's output for the default seed.

Digests are keyed by a hash of the op's input, so a pool that gains,
loses or reorders ops keeps the digests of the ops it still has.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 bench/freeze.py

Run from the root of a checkout whose outputs are known to be right; the
file in the repository was written from the commit that introduced the
benchmark.  An op that fails there (a budget overrun, MemoryError) is
recorded as ``fail:<exception type>``; the gate then accepts any output
for it that passes the cross-route checks, so a fix is not a mismatch.
"""

from __future__ import annotations

import json
import resource
import sys

import worker

# the run length the digests are taken for; longer runs add ops without one
SECONDS = json.loads((worker.HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def main():
    resource.setrlimit(resource.RLIMIT_AS, (worker.ADDRESS_CAP, worker.ADDRESS_CAP))
    out = {"seed": worker.DEFAULT_SEED}
    for workload in ("corpus-routes", "cli-cap", "spectral-wide"):
        # a longer budget, so that ops near the budget get a digest too
        worker.BUDGET[workload] *= 3
        worker.setup(workload, SECONDS, trace=0)
        runner = worker.Runner(workload, worker.DEFAULT_SEED, seconds=SECONDS)
        runner.expected = {}  # the digests being replaced
        digests = {}
        for i in range(len(runner.pool)):
            key = worker.ops.op_key(runner.pool[i])
            rec, result = runner.run_one(i)
            if rec["fail"] is not None:
                digests[key] = f"fail:{rec['fail'][0]}"
                continue
            bad = runner.check(i, result)
            if bad:
                sys.exit(f"{workload} op {i}: {bad}")
            digests[key] = worker.ops.digest(result)
        out[workload] = digests
        failed = sum(v.startswith("fail:") for v in digests.values())
        print(f"{workload}: {len(digests)} ops, {failed} failed", flush=True)
    worker.EXPECTED.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
