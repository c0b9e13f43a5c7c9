"""jumpkit benchmark: one command, four workloads, every output checked.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (defined in workloads.py and workloads.json): impulse-solve,
impulse-verify, pattern-race and per-path.  Each runs in its own fresh
process, closed-loop with one client and ``workers=1``, for ``--seconds``
of whole passes over its fixed list of operations.  Inputs come only from
``--seed``.  BENCHMARK.json times the first three only.  A shared 2-core
host drifts between a fast and a slow state for minutes at a time, and
runs of 30 s, long enough to hold the 25% bounds, fit the time allowed
for all runs with three workloads but not four.  per-path, whose scalar
Python loops swing most with the host (up to 50% between runs), is the
one left out; its layers are measured by every traced run (see below),
and it can be run by name.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json with
tracing off.  ``--trace 1`` reports the per-layer metrics: the named
workload runs each pass untraced and then traced on the same inputs (the
difference is the tracing overhead), and every other workload runs one
traced pass so that each layer is measured on the workload that exercises
it.  Per-layer times and counts are per pass of the owning workload.

Every operation's output is checked against its oracle, and each Monte
Carlo comparison is checked again pooled over the run's passes, which sees
a bias a single pass cannot.  Outputs are digested; a digest that differs
from an earlier run of the same operation at the same seed and source tree
counts as a failure.  A full report goes to ``perfbench/out/``; the last
stdout line is the JSON result.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("impulse-solve", "impulse-verify", "pattern-race", "per-path")
SETUP_PROBES = 4
RUN_LIMIT_S = 170.0
# BLAS/OpenMP caps for the benchmark's own child processes only; one
# thread keeps the single-client timings free of pool start-up noise
THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
# a fixed string hash seed gives every child the same dict and set
# layouts, which takes one per-process source of timing spread away
CHILD_ENV = {**THREAD_CAPS, "PYTHONHASHSEED": "0"}


class BenchError(RuntimeError):
    pass


def spread(values):
    """Median with quartiles and sample count."""
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": values[0], "max": values[-1], "n": len(values)}


# ---------------------------------------------------------------------------
# child processes


class Children:
    def __init__(self, run_dir, deadline):
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = {**os.environ, **CHILD_ENV, "PYTHONPATH": str(ROOT / "src")}
        self.count = 0

    def run(self, mode, workload, seed, seconds=0.0):
        self.count += 1
        scratch = self.run_dir / f"{self.count:02d}-{mode}-{workload}"
        scratch.mkdir(parents=True)
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchError("run time limit reached before all workloads ran")
        args = {"workload": workload, "seed": seed, "seconds": seconds, "mode": mode,
                "scratch": str(scratch)}
        args["spawned_at"] = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(args)],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} {workload} exceeded the run time limit") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"{mode} {workload} exited with {proc.returncode}:\n"
                             + proc.stderr[-4000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# digests


def source_fingerprint():
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "jumpkit").glob("*.py")) + sorted(BENCH_DIR.glob("*.py")) \
        + [BENCH_DIR / "workloads.json"]
    for path in files:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_digests(store_path, results):
    """Compare every operation's digest with earlier runs of the same op.

    Within a run this pairs each traced pass with its untraced twin; across
    runs it pairs runs at the same seed on the same source tree.  Returns
    the number of mismatches and marks the records that failed.
    """
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    mismatches = 0
    for result in results:
        seen = store.setdefault(result["workload"], {})
        for record in (r for p in result["passes"] for r in p["ops"]):
            if record["digest"] is None:
                continue
            earlier = seen.setdefault(record["key"], record["digest"])
            if earlier != record["digest"]:
                record["ok"] = False
                record.setdefault("checks", []).append(
                    ["digest", False, "output differs from an earlier run of this operation"])
                mismatches += 1
    store_path.parent.mkdir(parents=True, exist_ok=True)
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True))
    return mismatches


def check_pooled(results, sigma):
    """Pool each Monte Carlo comparison over the passes of a run.

    One pass has too few paths to see a small bias; the mean deviation of
    k passes has a k^(1/2) smaller stderr.  A pooled comparison that fails
    marks every operation that fed it as failed.
    """
    groups = {}
    for result in results:
        records = {r["key"]: r for p in result["passes"] for r in p["ops"]}
        for record in records.values():   # traced twins repeat their key
            label = record["key"].split(".", 1)[1]
            for check in record["checks"]:
                if len(check) == 4:
                    groups.setdefault((result["workload"], label, check[0]), []).append(
                        (record, check[3]))
    for (_, label, name), members in groups.items():
        if len(members) < 2:
            continue
        k = len(members)
        gap = abs(sum(v - t for _, (v, t, _, _) in members) / k)
        stderr = math.sqrt(sum(se * se for _, (_, _, se, _) in members)) / k
        bound = sigma * stderr + max(a for _, (_, _, _, a) in members)
        if gap > bound:
            for record, _ in members:
                record["ok"] = False
                record["checks"].append([f"pooled_{name}", False,
                                         f"mean deviation over {k} passes {gap:.3g} > {bound:.3g}"])


def tally(results):
    attempted = failed = 0
    for result in results:
        for record in (r for p in result["passes"] for r in p["ops"]):
            attempted += 1
            failed += not record["ok"]
        if "speedup_2_workers" in result:
            attempted += 1
            failed += not result["speedup_2_workers"]["digests_equal"]
    return attempted, failed


# ---------------------------------------------------------------------------
# metrics


def op_medians(passes):
    """Each operation's median time over the passes, in pass order.

    Operation j of every pass does the same kind and amount of work on fresh
    inputs, so its median over the passes sheds the bursts of a shared host
    that a median of whole-pass times keeps whenever a burst spans a pass.
    """
    return [statistics.median(p["ops"][j]["time_s"] for p in passes)
            for j in range(len(passes[0]["ops"]))]


def accuracy_time(passes, medians):
    """Time to reach each operation's target stderr, summed over one pass.

    Per operation: its median time over the passes x the mean over the
    passes of (stderr / target stderr)^2 across its estimates.  Pooling the
    variance ratios over passes keeps the sampling noise of a single stderr
    out of the metric.  Exact operations reach their accuracy when they
    finish and count with their own time.
    """
    total = 0.0
    for j, median in enumerate(medians):
        ratios = [x for p in passes for x in p["ops"][j]["ratios"]]
        total += median * (statistics.fmean(ratios) if ratios else 1.0)
    return total


def end_to_end(main, setups, attempted, failed):
    """End-to-end metrics of one untraced run.

    A pass's time is the sum of its operations' median times, so every
    timing is a median over the run's passes; the whole-pass times are
    kept in the report as the run-to-run spread beside it.
    """
    untraced = [p for p in main["passes"] if not p["traced"]]
    medians = op_medians(untraced)
    wall_s = sum(medians)
    work = statistics.fmean(sum(r["work"] for r in p["ops"]) for p in untraced)
    setup = spread(setups)
    setup_s = setup["median"] + main["prepare_s"]
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "work_per_s": work / wall_s,
        "time_to_accuracy_s": accuracy_time(untraced, medians),
        "peak_rss_mb": main["peak_rss_mb"],
        "check_pass_rate": 1.0 - failed / attempted,
    }
    detail = {
        "wall_s": spread([p["wall_s"] for p in untraced]),
        "work_per_s": spread([sum(r["work"] for r in p["ops"]) / p["wall_s"]
                              for p in untraced]),
        "op_median_s": {r["key"].split(".", 1)[1]: m
                        for r, m in zip(untraced[0]["ops"], medians)},
        "setup_s": {"fresh_process": setup, "prepare_s": main["prepare_s"],
                    "value": setup_s},
        "check_fail_rate": {"value": failed / attempted, "failed": failed,
                            "attempted": attempted},
    }
    return metrics, detail


def _layer_stats(result):
    traced = [p for p in result["passes"] if p["traced"]]
    return {
        "n": len(traced), "passes": result["trace"]["passes"],
        "setup": result["trace"]["setup"], "counters": result["trace"]["counters"],
        "tagged_s": result["trace"]["tagged_s"],
        "rows": sum(r["rows"] for p in traced for r in p["ops"]),
        "speedup_2_workers": result.get("speedup_2_workers"),
    }


def per_layer(stats, main, workload):
    """Per-layer metrics, each from the workload that exercises the layer."""
    s, v, r, p = (stats["impulse-solve"], stats["impulse-verify"], stats["pattern-race"],
                  stats["per-path"])

    def tot(st, name):
        return st["passes"].get(name, {}).get("total_s", 0.0) / st["n"]

    def self_s(st, name):
        return st["passes"].get(name, {}).get("self_s", 0.0) / st["n"]

    def calls(st, name):
        return st["passes"].get(name, {}).get("calls", 0) / st["n"]

    def ctr(st, name):
        return st["counters"].get(name, 0.0) / st["n"]

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    untraced = [q["wall_s"] for q in main["passes"] if not q["traced"]]
    traced = [q["wall_s"] for q in main["passes"] if q["traced"]]
    overhead = statistics.median(traced) - statistics.median(untraced)
    values = {
        "qvi.solve_s": tot(s, "qvi.solve_benchmark_qvi"),
        "qvi.sweeps": ctr(s, "qvi.sweeps"),
        "qvi.linear_solve_s": tot(s, "qvi.spsolve"),
        "qvi.self_s": self_s(s, "qvi.solve_benchmark_qvi"),
        "impulse.m_operator_s": tot(s, "impulse.minimize_over_targets"),
        "impulse.m_operator_calls": calls(s, "impulse.minimize_over_targets"),
        "impulse.qvi_residual_s": tot(s, "impulse.qvi_residual"),
        # the impulse-solve kind never synthesizes a policy; impulse-verify's
        # set-up is the one place it runs
        "impulse.synthesize_policy_s":
            v["setup"].get("impulse.synthesize_policy", {}).get("total_s", 0.0),
        "impulse.estimate_cost_s": tot(v, "impulse.estimate_cost"),
        "impulse.path_steps_per_s": rate(ctr(v, "impulse.path_steps"),
                                         tot(v, "impulse.estimate_cost")),
        "impulse.scalar_eval_share": rate(ctr(v, "impulse.running_cost_scalar_calls"),
                                          ctr(v, "impulse.running_cost_calls")),
        "impulse.interventions": ctr(v, "impulse.interventions"),
        "mc.blocks": calls(v, "mc.block") + calls(r, "mc.block"),
        "mc.block_s": tot(v, "mc.block") + tot(r, "mc.block"),
        "mc.replications": calls(p, "mc.replication"),
        "mc.replication_s": tot(p, "mc.replication"),
        "mc.speedup_2_workers": v["speedup_2_workers"]["speedup"],
        "streams.substream_s": tot(p, "streams.substream"),
        "streams.substream_calls": calls(p, "streams.substream"),
        "sde.simulate_s": tot(p, "sde.simulate_jump_diffusion"),
        "sde.path_steps_per_s": rate(ctr(p, "sde.path_steps"),
                                     tot(p, "sde.simulate_jump_diffusion")),
        "calculus.generator_apply_s": tot(p, "calculus.generator_apply"),
        "calculus.ito_residual_s": tot(p, "calculus.ito_residual"),
        "calculus.dynkin_residual_s": tot(p, "calculus.dynkin_residual"),
        "race.simulate_s": tot(r, "race.simulate_pattern_race"),
        "race.iid_trial_steps_per_s": rate(r["counters"].get("race.iid_trial_steps", 0.0),
                                           r["tagged_s"]["iid"]),
        "race.markov_trial_steps_per_s": rate(r["counters"].get("race.markov_trial_steps", 0.0),
                                              r["tagged_s"]["markov"]),
        "race.truncated_share": rate(ctr(r, "race.truncated"), ctr(r, "race.trials")),
        "race.race_solve_s": tot(r, "race.race_solve"),
        "patterns.automaton_s": tot(r, "patterns.automaton_expected_time"),
        "patterns.automaton_calls": calls(r, "patterns.automaton_expected_time"),
        "patterns.conditional_s": tot(r, "patterns.conditional_expected_time"),
        "renewal.simulate_renewal_calls": calls(p, "renewal.simulate_renewal"),
        "renewal_equation.solve_s": tot(p, "renewal_equation.solve_renewal_equation"),
        "renewal_equation.nodes": ctr(p, "renewal_equation.nodes"),
        "cli.self_s": self_s(s, "cli.main") + self_s(r, "cli.main"),
        "cli.rows_written": s["rows"] / s["n"] + r["rows"] / r["n"],
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / statistics.median(untraced),
    }
    for estimator in ("estimate_mean_process", "blackwell_check", "wald_check",
                      "reward_rate_check", "delayed_renewal_stats", "regenerative_occupancy"):
        values[f"renewal.{estimator}_s"] = tot(p, f"renewal.{estimator}")
    detail = {"overhead": {"workload": workload, "untraced_pass_s": spread(untraced),
                           "traced_pass_s": spread(traced)},
              "speedup_2_workers": v["speedup_2_workers"]}
    return values, detail


# ---------------------------------------------------------------------------


def run_history(path, args, metrics):
    """Append this run and return each metric's spread over all runs of the
    workload on this source tree (any seed), this run included."""
    entry = {"workload": args.workload, "trace": args.trace, "seed": args.seed,
             "values": {name: m["value"] for name, m in metrics.items()}}
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry) + "\n")
    with open(path, encoding="utf-8") as fh:
        runs = [json.loads(line) for line in fh]
    runs = [r for r in runs if r["workload"] == args.workload and r["trace"] == args.trace]
    return {name: spread([r["values"][name] for r in runs if name in r["values"]])
            for name in metrics}


def machine_block(versions):
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "platform": platform.platform(),
        "child_env": CHILD_ENV,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    started = time.perf_counter()
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "jumpkit" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from a jumpkit checkout (src/jumpkit and BENCHMARK.json "
              "are missing)", file=sys.stderr)
        return 2
    bench = json.loads(spec_path.read_text(encoding="utf-8"))
    out_dir = BENCH_DIR / "out"
    run_dir = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    children = Children(run_dir, started + RUN_LIMIT_S)

    try:
        if args.trace == 0:
            probes = [children.run("probe", args.workload, args.seed)
                      for _ in range(SETUP_PROBES)]
            main_result = children.run("measure", args.workload, args.seed, args.seconds)
            results = [main_result]
        else:
            main_result = children.run("trace", args.workload, args.seed, args.seconds)
            results = [main_result] + [children.run("companion", w, args.seed)
                                       for w in WORKLOADS if w != args.workload]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    fingerprint = source_fingerprint()
    store = out_dir / "digests" / f"{fingerprint}-seed{args.seed}.json"
    mismatches = check_digests(store, results)
    spec = json.loads((BENCH_DIR / "workloads.json").read_text(encoding="utf-8"))
    check_pooled(results, spec["check_sigma"])
    attempted, failed = tally(results)

    if args.trace == 0:
        setups = [p["setup_probe_s"] for p in probes] + [main_result["setup_probe_s"]]
        values, detail = end_to_end(main_result, setups, attempted, failed)
        wanted = bench["end_to_end"]
    else:
        stats = {res["workload"]: _layer_stats(res) for res in results}
        values, detail = per_layer(stats, main_result, args.workload)
        detail["spans"] = {res["workload"]: {"passes": res["trace"]["passes"],
                                             "setup": res["trace"]["setup"]}
                           for res in results}
        wanted = bench["per_layer"]

    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": spec[args.workload]["why"],
        "work_unit": spec[args.workload]["work_unit"],
        "target_stderr": spec[args.workload].get("target_stderr", {}),
        "machine": machine_block(main_result["versions"]),
        "metrics": metrics, "detail": detail, "digest_mismatches": mismatches,
        "failures": [r for res in results for p in res["passes"] for r in p["ops"]
                     if not r["ok"]],
        "results": results,
    }
    runs = run_history(out_dir / f"history-{fingerprint}.jsonl", args, metrics)
    report["detail"]["runs_at_this_tree"] = runs
    report_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"work unit: {report['work_unit']}/s")
    for name, metric in metrics.items():
        line = f"  {name:32s} {metric['value']:<12.6g} {metric['unit']:6s}"
        within = detail.get(name, {})
        if "n" in within:
            line += (f" whole passes median {within['median']:.4g} "
                     f"q1..q3 {within['q1']:.4g}..{within['q3']:.4g} n={within['n']}")
        if runs[name]["n"] > 1:
            line += (f"  runs median {runs[name]['median']:.4g} "
                     f"q1..q3 {runs[name]['q1']:.4g}..{runs[name]['q3']:.4g} n={runs[name]['n']}")
        print(line)
    if args.trace == 0:
        print(f"  {'check_fail_rate':32s} {failed / attempted:.6g} ratio "
              f"({failed} of {attempted} operations)")
    for res in results:
        if not res.get("speedup_2_workers", {}).get("digests_equal", True):
            print("  FAILED impulse-verify at 2 workers: output differs from 1 worker")
    for record in report["failures"]:
        print(f"  FAILED {record['key']}: "
              + (record.get("error") or "; ".join(c[2] for c in record["checks"] if not c[1])))
    print(f"  report: {report_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
