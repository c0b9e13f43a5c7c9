"""Scenario-driven command line: JSON config in, CSV/JSON results out.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 closed-form hypothesis violation.  All state flows through flags and
the config document; outputs contain no timestamps or environment
details, so a rerun with the same config and seed is byte-identical for
any worker count.  ``workers`` is clamped to ``os.cpu_count()`` when the
config is validated, and ``n_paths`` and ``n_trials`` must be integers no
larger than ``MAX_COUNT``; a time step finer than the kernel's
``MAX_STEPS`` grid steps is a configuration error too.

One scenario per config file.  ``kind`` selects the computation:

* ``simulate``       -- one jump-diffusion path, written as a path table
* ``renewal-check``  -- a renewal estimator next to its analytic limit
* ``pattern-expect`` -- expected pattern time, closed form and automaton
* ``pattern-race``   -- multi-pattern race, exact and optional Monte Carlo
* ``impulse-solve``  -- benchmark QVI solve, node table plus summary
* ``impulse-verify`` -- value-vs-cost verification of the benchmark
"""

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import renewal as rn
from . import renewal_equation as rq
from .distributions import Deterministic, Discrete, Exponential, Uniform, bernoulli
from .errors import ConfigError, HypothesisViolationError, JumpkitError, ParameterError
from .impulse import qvi_residual, synthesize_policy, verify_value
from .patterns import (
    IIDSource,
    MarkovChain,
    Pattern,
    automaton_expected_time,
    expected_time_iid,
    expected_time_markov,
)
from .qvi import BenchmarkParams, make_benchmark_problem, solve_benchmark_qvi
from .race import race_solve, simulate_pattern_race
from .sde import JumpDiffusionSpec, simulate_jump_diffusion
from .streams import derive_stream

KINDS = (
    "simulate",
    "renewal-check",
    "pattern-expect",
    "pattern-race",
    "impulse-solve",
    "impulse-verify",
)

MAX_COUNT = 10_000_000  # largest n_paths or n_trials a config may ask for


@dataclass(frozen=True)
class Scenario:
    kind: str
    seed: int
    workers: int
    output: str
    parameters: dict


def _fmt(value):
    return f"{float(value):.17g}"


def _finite_number(text):
    """JSON number hook: reject NaN, Infinity and overflowing literals."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {text} in config")
    return value


def _require(doc, field, kinds=None, ctx=""):
    if field not in doc:
        raise ConfigError(f"missing field: {ctx}{field}")
    value = doc[field]
    if kinds is not None and not isinstance(value, kinds):
        raise ConfigError(f"field {ctx}{field} has invalid type {type(value).__name__}")
    return value


def _number(value, name):
    """A config number as a float: bools, non-numbers and ints beyond float range fail."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field {name} must be a number, not {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"field {name} is out of float range") from None


def _require_number(doc, field, ctx=""):
    return _number(_require(doc, field, ctx=ctx), ctx + field)


def _count(value, name, lo=0):
    """A path or trial count: an integral number in ``[lo, MAX_COUNT]``."""
    number = _number(value, name)
    if not (number.is_integer() and lo <= number <= MAX_COUNT):
        raise ConfigError(f"field {name} must be an integer from {lo} to {MAX_COUNT}, "
                          f"got {value!r}")
    return int(number)


def _n_paths(params):
    return _count(_require(params, "n_paths", int), "n_paths", lo=1)


def parse_config(document):
    """Validate a scenario document; the diagnostic names the first problem."""
    if not isinstance(document, dict):
        raise ConfigError("config root must be a JSON object")
    kind = _require(document, "kind", str)
    if kind not in KINDS:
        raise ConfigError(f"unknown kind: {kind}")
    seed = _require(document, "seed", int)
    workers = document.get("workers", 1)
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ConfigError("field workers must be a positive integer")
    workers = min(workers, os.cpu_count() or 1)
    output = document.get("output", kind.replace("-", "_"))
    if not isinstance(output, str) or not output:
        raise ConfigError("field output must be a nonempty string")
    parameters = document.get("parameters", {})
    if not isinstance(parameters, dict):
        raise ConfigError("field parameters must be an object")
    return Scenario(kind=kind, seed=seed, workers=workers, output=output,
                    parameters=parameters)


# ---------------------------------------------------------------------------
# JSON vocabularies for distributions, coefficient functions, sources


def _make_distribution(doc, ctx="distribution."):
    kind = _require(doc, "type", str, ctx)
    if kind == "exponential":
        return Exponential(rate=_require_number(doc, "rate", ctx))
    if kind == "uniform":
        return Uniform(lo=_require_number(doc, "lo", ctx), hi=_require_number(doc, "hi", ctx))
    if kind == "deterministic":
        return Deterministic(value=_require_number(doc, "value", ctx))
    if kind == "discrete":
        return Discrete(values=[_number(v, ctx + "values")
                                for v in _require(doc, "values", list, ctx)],
                        probs=[_number(v, ctx + "probs") for v in _require(doc, "probs", list, ctx)])
    if kind == "bernoulli":
        return bernoulli(_require_number(doc, "p", ctx))
    raise ConfigError(f"unknown {ctx}type: {kind}")


def _make_coefficient(doc, ctx):
    kind = _require(doc, "type", str, ctx)
    if kind == "constant":
        v = _require_number(doc, "value", ctx)
        return lambda t, x: v * np.ones_like(np.asarray(x, dtype=float))
    if kind == "linear":
        a = _require_number(doc, "rate", ctx)
        return lambda t, x: a * np.asarray(x, dtype=float)
    if kind == "affine":
        a = _require_number(doc, "slope", ctx)
        b = _require_number(doc, "intercept", ctx)
        return lambda t, x: a * np.asarray(x, dtype=float) + b
    raise ConfigError(f"unknown {ctx}type: {kind}")


def _normalize_symbol(symbol):
    # JSON symbols may arrive as ints, floats or strings; keep ints exact.
    if isinstance(symbol, float) and symbol.is_integer():
        return int(symbol)
    return symbol


def _make_source(doc):
    kind = _require(doc, "type", str, "source.")
    if kind == "iid":
        symbols = [_normalize_symbol(s) for s in _require(doc, "symbols", list, "source.")]
        probs = [_number(p, "source.probs") for p in _require(doc, "probs", list, "source.")]
        return IIDSource(symbols=tuple(symbols), probs=probs)
    if kind == "markov":
        states = [_normalize_symbol(s) for s in _require(doc, "states", list, "source.")]
        matrix = _require(doc, "matrix", list, "source.")
        if not all(isinstance(row, list) and len(row) == len(matrix) for row in matrix):
            raise ConfigError("field source.matrix must be a square list of rows")
        matrix = [[_number(v, "source.matrix") for v in row] for row in matrix]
        return MarkovChain(matrix=np.asarray(matrix, dtype=float), states=tuple(states))
    raise ConfigError(f"unknown source.type: {kind}")


# ---------------------------------------------------------------------------
# output writers


def _write_rows(path, fmt, columns, rows):
    if fmt == "json":
        payload = {"columns": list(columns), "rows": [list(r) for r in rows]}
        path = path.with_suffix(".json")
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    else:
        path = path.with_suffix(".csv")
        lines = [",".join(columns)]
        lines += [",".join(str(v) for v in row) for row in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _estimate_rows(entries):
    """entries: iterable of (name, value, stderr, n)."""
    return [(name, _fmt(value), _fmt(stderr), str(int(n)))
            for name, value, stderr, n in entries]


# ---------------------------------------------------------------------------
# scenario executors


def _run_simulate(params, stream, workers):
    x0 = _require_number(params, "x0")
    horizon = _require_number(params, "horizon")
    dt = _require_number(params, "dt")
    spec = JumpDiffusionSpec(
        drift=_make_coefficient(_require(params, "drift", dict), "drift."),
        diffusion=_make_coefficient(_require(params, "diffusion", dict), "diffusion."),
        jump_intensity=_number(params.get("jump_intensity", 0.0), "jump_intensity"),
        mark_distribution=_make_distribution(params["marks"], "marks.")
        if "marks" in params else None,
        compensated=bool(params.get("compensated", False)),
    )
    path = simulate_jump_diffusion(spec, x0, horizon, dt, stream)
    jump_idx = {rec.index for rec in path.jumps}
    impulses = {rec.index: rec.impulse for rec in path.interventions}
    rows = []
    for k, t in enumerate(path.times):
        rows.append((
            _fmt(t), _fmt(path.states[k]),
            str(int(k in jump_idx)), str(int(k in impulses)),
            _fmt(impulses.get(k, 0.0)),
        ))
    return ("t,x,jump_flag,intervention_flag,impulse".split(","), rows)


def _renewal_spec(params):
    spec = rn.RenewalSpec(
        interarrival=_make_distribution(_require(params, "interarrival", dict),
                                        "interarrival."),
        delay=_make_distribution(params["delay"], "delay.") if "delay" in params else None,
        reward=_make_distribution(params["reward"], "reward.") if "reward" in params else None,
        lattice_period=_number(params.get("lattice_period", 0.0), "lattice_period"),
    )
    return spec


def _run_renewal_check(params, stream, workers):
    check = _require(params, "check", str)
    entries = []
    if check == "mean-process":
        spec = _renewal_spec(params)
        t = _require_number(params, "t")
        n = _n_paths(params)
        est = rn.estimate_mean_process(spec, t, n, stream, workers=workers)
        entries += [("mean_process", est.value, est.stderr, est.n),
                    ("elementary_limit", t / spec.mean, 0.0, 0)]
    elif check == "blackwell":
        spec = _renewal_spec(params)
        t = _require_number(params, "t")
        a = _require_number(params, "a")
        mode = _require(params, "mode", str)
        n = _n_paths(params)
        est, limit = rn.blackwell_check(spec, t, a, mode, n, stream, workers=workers)
        entries += [(f"blackwell_{mode}", est.value, est.stderr, est.n),
                    ("limit", limit, 0.0, 0)]
    elif check == "wald":
        spec = _renewal_spec(params)
        t = _require_number(params, "t")
        n = _n_paths(params)
        lhs, rhs = rn.wald_check(spec, t, n, stream, workers=workers)
        entries += [("stopped_sum", lhs.value, lhs.stderr, lhs.n),
                    ("count_times_mean", rhs.value, rhs.stderr, rhs.n)]
    elif check == "reward-rate":
        spec = _renewal_spec(params)
        t = _require_number(params, "t")
        n = _n_paths(params)
        est, limit = rn.reward_rate_check(spec, t, n, stream, workers=workers)
        entries += [("reward_rate", est.value, est.stderr, est.n),
                    ("limit", limit, 0.0, 0)]
    elif check == "delayed":
        spec = _renewal_spec(params)
        t = _require_number(params, "t")
        n = _n_paths(params)
        mean_est, age_est, age_limit = rn.delayed_renewal_stats(spec, t, n, stream,
                                                                workers=workers)
        entries += [("mean_process", mean_est.value, mean_est.stderr, mean_est.n),
                    ("age", age_est.value, age_est.stderr, age_est.n),
                    ("age_limit", age_limit, 0.0, 0)]
    elif check == "regenerative":
        rates = _require(params, "rates", list)
        state = int(_require(params, "state", int))
        horizon = _require_number(params, "horizon")
        n = _n_paths(params)
        rates = np.asarray([_number(r, "rates") for r in rates])
        if np.any(rates <= 0):
            raise ConfigError("field rates must be positive")

        def sample_cycles(gen, size, _rates=rates):
            occ = np.column_stack([gen.exponential(1.0 / r, size=size) for r in _rates])
            return occ.sum(axis=1), occ

        spec = rn.RegenerativeSpec(
            n_states=rates.size,
            sample_cycles=sample_cycles,
            mean_occupations=1.0 / rates,
        )
        est, limit = rn.regenerative_occupancy(spec, state, horizon, n, stream,
                                               workers=workers)
        entries += [("occupancy", est.value, est.stderr, est.n),
                    ("limit", limit, 0.0, 0)]
    elif check == "renewal-equation":
        dist = _make_distribution(_require(params, "interarrival", dict), "interarrival.")
        rate = _number(params.get("f_decay_rate", 1.0), "f_decay_rate")
        t_max = _require_number(params, "t_max")
        step = _require_number(params, "step")
        sol = rq.solve_renewal_equation(dist.cdf, lambda s: np.exp(-rate * s), t_max, step)
        entries += [("convolution", sol.convolution_value, 0.0, 0),
                    ("limit", sol.limit_value, 0.0, 0)]
    elif check == "last-renewal-cdf":
        dist = _make_distribution(_require(params, "interarrival", dict), "interarrival.")
        t = _require_number(params, "t")
        s = _require_number(params, "s")
        step = _require_number(params, "step")
        value = rq.last_renewal_cdf(dist.cdf, t, s, step)
        entries += [("last_renewal_cdf", value, 0.0, 0)]
    else:
        raise ConfigError(f"unknown renewal check: {check}")
    return ("name,value,stderr,n".split(","), _estimate_rows(entries))


def _run_pattern_expect(params, stream, workers):
    pattern = Pattern(tuple(_normalize_symbol(s)
                            for s in _require(params, "pattern", list)))
    source = _make_source(_require(params, "source", dict))
    closed_form = bool(params.get("closed_form", True))
    strict = bool(params.get("strict", True))
    entries = []
    if closed_form:
        if isinstance(source, MarkovChain):
            x0 = params.get("x0")
            x0 = _normalize_symbol(x0) if x0 is not None else None
            value = expected_time_markov(pattern, source, x0=x0, strict=strict)
        else:
            value = expected_time_iid(pattern, source, strict=strict)
        entries.append(("closed_form", value, 0.0, 0))
    last = pattern.symbols[-1] if isinstance(source, MarkovChain) else None
    oracle = automaton_expected_time(pattern, source, last_symbol=last)
    entries.append(("automaton", oracle, 0.0, 0))
    return ("name,value,stderr,n".split(","), _estimate_rows(entries))


def _run_pattern_race(params, stream, workers):
    raw_patterns = _require(params, "patterns", list)
    patterns = [Pattern(tuple(_normalize_symbol(s) for s in p)) for p in raw_patterns]
    source = _make_source(_require(params, "source", dict))
    initial_state = params.get("initial_state")
    initial_state = _normalize_symbol(initial_state) if initial_state is not None else None
    result = race_solve(patterns, source, initial_state=initial_state)
    entries = [(f"P_{i + 1}", p, 0.0, 0) for i, p in enumerate(result.probabilities)]
    entries.append(("E_T_min", result.expected_min_time, 0.0, 0))
    for i, e in enumerate(result.expected_times):
        entries.append((f"E_T_{i + 1}", e, 0.0, 0))
    n_trials = _count(params.get("n_trials", 0), "n_trials")
    if n_trials > 0:
        sim = simulate_pattern_race(patterns, source, n_trials, stream,
                                    initial_state=initial_state, workers=workers)
        for i in range(len(patterns)):
            entries.append((f"mc_P_{i + 1}", sim.probabilities[i], sim.prob_stderr[i],
                            sim.n_trials - sim.n_truncated))
        entries.append(("mc_E_T_min", sim.min_time.value, sim.min_time.stderr,
                        sim.min_time.n))
    return ("name,value,stderr,n".split(","), _estimate_rows(entries))


def _benchmark_params(params):
    doc = params.get("benchmark", {})
    if not isinstance(doc, dict):
        raise ConfigError("field benchmark must be an object")
    kwargs = {}
    for key in ("drift_rate", "sigma", "jump_intensity", "jump_size", "discount",
                "fixed_cost", "proportional_cost", "grid_lo", "grid_hi", "grid_step"):
        if key in doc:
            kwargs[key] = _number(doc[key], f"benchmark.{key}")
    return BenchmarkParams(**kwargs)


def _run_impulse_solve(params, stream, workers):
    bench = _benchmark_params(params)
    solution = solve_benchmark_qvi(bench)
    problem = make_benchmark_problem(bench)
    report = qvi_residual(problem, solution.candidate)
    rows = [tuple(map(_fmt, row[:3])) + (row[3],) for row in report.rows()]
    extra = [
        ("band_lo", solution.band[0], 0.0, 0),
        ("band_hi", solution.band[1], 0.0, 0),
        ("value_at_zero", float(solution.candidate.psi(0.0)), 0.0, 0),
        ("qvi_sup_norm", report.sup_norm, 0.0, 0),
        ("sweeps", float(solution.sweeps), 0.0, 0),
    ]
    return [
        ("x,L_phi_plus_l,phi_minus_Mphi,region".split(","), rows),
        ("name,value,stderr,n".split(","), _estimate_rows(extra), "_summary"),
    ]


def _run_impulse_verify(params, stream, workers):
    bench = _benchmark_params(params)
    n_paths = _n_paths(params)
    dt = _require_number(params, "dt")
    horizon = _number(params.get("horizon", 14.0 / bench.discount), "horizon")
    allowance_coeff = _number(params.get("allowance_coeff", 25.0), "allowance_coeff")
    y0_list = params.get("y0", [0.0])
    if not isinstance(y0_list, list):
        raise ConfigError("field y0 must be a list of floats")
    y0_list = [_number(y0, "y0") for y0 in y0_list]

    solution = solve_benchmark_qvi(bench)
    problem = make_benchmark_problem(bench)
    policy = synthesize_policy(problem, solution.candidate)
    alt_docs = params.get("alternatives", [{"band_delta": 0.5}, {"target_delta": 0.3}])
    if not isinstance(alt_docs, list):
        raise ConfigError("field alternatives must be a list of perturbation objects")
    alternatives = []
    for doc in alt_docs:
        if not isinstance(doc, dict):
            raise ConfigError("each alternative must be an object")
        band = _number(doc.get("band_delta", 0.0), "alternatives.band_delta")
        target = _number(doc.get("target_delta", 0.0), "alternatives.target_delta")
        label = doc.get("label", f"band{band:+g}_target{target:+g}")
        alternatives.append((label, policy.shifted(band_delta=band, target_delta=target)))
    rows = []
    for j, y0 in enumerate(y0_list):
        report = verify_value(problem, solution.candidate, policy, y0,
                              alternatives, n_paths, dt, stream.substream(j),
                              allowance_coeff=allowance_coeff, horizon=horizon,
                              workers=workers)
        rows.append(("equality", _fmt(y0), _fmt(report.candidate_value),
                     _fmt(report.policy_cost.value), _fmt(report.policy_cost.stderr),
                     str(int(report.equality_passed))))
        for entry in report.alternatives:
            rows.append((f"dominance_{entry.label}", _fmt(y0),
                         _fmt(report.candidate_value), _fmt(entry.cost.value),
                         _fmt(entry.cost.stderr), str(int(entry.passed))))
    return ("check,y0,phi,cost,stderr,passed".split(","), rows)


_EXECUTORS = {
    "simulate": _run_simulate,
    "renewal-check": _run_renewal_check,
    "pattern-expect": _run_pattern_expect,
    "pattern-race": _run_pattern_race,
    "impulse-solve": _run_impulse_solve,
    "impulse-verify": _run_impulse_verify,
}


def execute_scenario(scenario, out_dir, fmt="csv"):
    """Run one scenario and write its outputs; returns the written paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stream = derive_stream(scenario.seed, 0)
    result = _EXECUTORS[scenario.kind](scenario.parameters, stream, scenario.workers)
    if isinstance(result, tuple):
        result = [result]
    written = []
    for item in result:
        columns, rows = item[0], item[1]
        suffix = item[2] if len(item) > 2 else ""
        path = _write_rows(out_dir / (scenario.output + suffix), fmt, columns, rows)
        written.append(path)
    return written


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="jumpkit",
        description="Run a jumpkit scenario from a JSON config file.",
    )
    parser.add_argument("--config", required=True, help="path to the scenario JSON")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--workers", type=int, default=None, help="worker thread count")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    args = parser.parse_args(argv)

    try:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        try:
            document = json.loads(text, parse_float=_finite_number, parse_constant=_finite_number)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON: {exc}") from exc
        if args.seed is not None:
            document = {**document, "seed": args.seed}
        if args.workers is not None:
            document = {**document, "workers": args.workers}
        scenario = parse_config(document)
        written = execute_scenario(scenario, args.out, fmt=args.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HypothesisViolationError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 4
    except ParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except JumpkitError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
