"""One workload in one fresh process; started by ``run.py``, not by hand.

Usage: worker.py '<json>' with keys workload, seed, seconds, mode,
spawned_at and scratch.  Modes:

* ``probe``     -- import and generate inputs, then report the set-up time;
* ``measure``   -- set up, then run whole passes of the workload's
  operations for ``seconds`` with tracing off;
* ``trace``     -- as ``measure``, but each pass runs twice on the same
  inputs, untraced then traced, and the digests of the two must agree;
* ``companion`` -- set up and run a single traced pass, for the layers of
  a workload other than the one the run is about.

The last line of stdout is a JSON result.
"""

import json
import os
import resource
import statistics
import sys
import time
import traceback


def run_pass(ops, tracer=None):
    """Run ``ops`` closed-loop: each starts after the previous finishes."""
    records = []
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = op.key
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception:  # a raising operation is a failed one, never dropped
            records.append({"key": op.key, "time_s": time.perf_counter() - t0, "ok": False,
                            "error": traceback.format_exc(limit=4), "digest": None,
                            "work": 0.0, "ratios": [], "rows": 0, "checks": []})
            continue
        elapsed = time.perf_counter() - t0
        records.append({
            "key": op.key, "time_s": elapsed,
            "ok": all(check[1] for check in result.checks),
            "checks": [list(c) for c in result.checks],
            "digest": result.digest, "work": result.work, "ratios": result.ratios,
            "rows": result.rows, "info": result.info,
        })
    return {"wall_s": time.perf_counter() - start, "traced": tracer is not None,
            "ops": records}


def traced_pass(workload, ops, tracer):
    tracer.install(workload.trace_patches(tracer))
    try:
        return run_pass(ops, tracer)
    finally:
        tracer.uninstall()
        tracer.op = None


def speedup_two_workers(workload):
    """One impulse-verify operation at 2 workers against 1 (untraced).

    The operation runs at ``speedup_paths`` paths, two blocks of
    ``map_blocks``, so a second worker has a block to take.  It also checks
    ROADMAP criterion 9 from outside: the worker count must not change a
    single output bit.
    """
    from workloads import op_seed

    seed = op_seed(workload.seed, 0, 1)
    times, digests = [], []
    for workers in (1, 2):
        t0 = time.perf_counter()
        result = workload.verify(seed, 1, workers=workers,
                                 n_paths=workload.spec["speedup_paths"])
        times.append(time.perf_counter() - t0)
        digests.append(result.digest)
    return {"workers_1_s": times[0], "workers_2_s": times[1],
            "speedup": times[0] / times[1], "digests_equal": digests[0] == digests[1]}


def main():
    args = json.loads(sys.argv[1])
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args["workload"]](args["seed"], args["scratch"])
    ready = time.perf_counter()
    out = {"workload": args["workload"], "setup_probe_s": ready - args["spawned_at"]}
    mode = args["mode"]
    if mode == "probe":
        print(json.dumps(out))
        return

    import numpy
    import scipy

    out["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    tracer = Tracer() if mode in ("trace", "companion") else None
    t0 = time.perf_counter()
    if tracer is None:
        workload.prepare()
    else:
        tracer.install()
        tracer.op = "setup"
        try:
            workload.prepare()
        finally:
            tracer.uninstall()
            tracer.op = None
    out["prepare_s"] = time.perf_counter() - t0

    passes, rounds = [], []
    start = time.perf_counter()
    index = 0
    while True:
        round_start = time.perf_counter()
        if mode != "companion":
            passes.append(run_pass(workload.ops(index)))
        if tracer is not None:
            passes.append(traced_pass(workload, workload.ops(index), tracer))
        rounds.append(time.perf_counter() - round_start)
        index += 1
        # start another round only if it is likely to end less than half a
        # round late, so a run of rounds longer than a few seconds measures
        # about ``seconds`` rather than up to one round short of it
        if mode == "companion" or \
                time.perf_counter() - start + statistics.median(rounds) / 2 > args["seconds"]:
            break

    out["passes"] = passes
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        traced_ops = {r["key"] for p in passes if p["traced"] for r in p["ops"]}
        out["trace"] = {
            "passes": tracer.summary(traced_ops),
            "setup": tracer.summary({"setup"}),
            "counters": dict(tracer.counters),
            "tagged_s": {tag: tracer.tagged_total("race.simulate_pattern_race", tag)
                         for tag in ("iid", "markov")},
            "span_count": len(tracer.spans),
        }
        spans_file = os.path.join(args["scratch"], "spans.tsv")
        tracer.dump(spans_file)
        out["trace"]["spans_file"] = spans_file
        if args["workload"] == "impulse-verify":
            out["speedup_2_workers"] = speedup_two_workers(workload)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
