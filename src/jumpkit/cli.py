"""Scenario-driven command line: JSON config in, CSV/JSON results out.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 closed-form hypothesis violation.  All state flows through flags and
the config document; outputs contain no timestamps or environment
details, so a rerun with the same config and seed is byte-identical.
``--workers`` and the ``workers`` field are validated for compatibility
and change nothing.  ``n_paths`` and ``n_trials`` must be integers no
larger than ``MAX_COUNT``; work beyond the library's size bounds
(``MAX_STEPS``, ``MAX_ARRIVALS``, ``MAX_NODES``, ``MAX_GRID_NODES``) is
a configuration error too.  ``MAX_ARRIVALS`` bounds the expected
arrivals of one renewal path and, for ``simulate``, the expected jumps
``jump_intensity * horizon`` of the path.

One scenario per config file.  ``kind`` selects the computation and its
tables; ``<output>.csv`` (or ``.json``) holds the first table:

* ``simulate``       -- one jump-diffusion path, as a path table
* ``renewal-check``  -- a renewal estimator next to its analytic limit
* ``pattern-expect`` -- expected pattern time, closed form and automaton
* ``pattern-race``   -- multi-pattern race, exact and optional Monte Carlo
* ``impulse-solve``  -- benchmark QVI solve, the node table plus the
  estimate table ``<output>_summary``
* ``impulse-verify`` -- value-vs-cost verification of the benchmark

Each executor returns its tables as ``(suffix, columns, rows)`` with text
cells, and one renderer makes the CSV or JSON.  A scenario's tables are
written all or none: every table is rendered before the first is
written, and a failed write removes the ones already written (exit 2).
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields
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
    output: str
    parameters: dict


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


def _integer(value, name, positive=False):
    """A config integer; JSON ``true`` and ``false`` are not integers."""
    if isinstance(value, bool) or not isinstance(value, int) or (positive and value < 1):
        kind = "a positive integer" if positive else "an integer"
        raise ConfigError(f"field {name} must be {kind}, not {value!r}")
    return value


def _flag(doc, field, default):
    """A config flag: JSON ``true`` or ``false`` only."""
    value = doc.get(field, default)
    if not isinstance(value, bool):
        raise ConfigError(f"field {field} must be true or false, not {type(value).__name__}")
    return value


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
    seed = _integer(_require(document, "seed"), "seed")
    _integer(document.get("workers", 1), "workers", positive=True)
    output = document.get("output", kind.replace("-", "_"))
    if not isinstance(output, str) or output in ("", "..") or "\0" in output \
            or Path(output).name != output:
        raise ConfigError(f"field output must be a plain file name, not {output!r}")
    parameters = document.get("parameters", {})
    if not isinstance(parameters, dict):
        raise ConfigError("field parameters must be an object")
    return Scenario(kind=kind, seed=seed, output=output, parameters=parameters)


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
        return lambda t, x: np.full(np.shape(x), v, dtype=float)
    if kind == "linear":
        a = _require_number(doc, "rate", ctx)
        return lambda t, x: a * np.asarray(x, dtype=float)
    if kind == "affine":
        a = _require_number(doc, "slope", ctx)
        b = _require_number(doc, "intercept", ctx)
        return lambda t, x: a * np.asarray(x, dtype=float) + b
    raise ConfigError(f"unknown {ctx}type: {kind}")


def _symbol(value, name):
    """A pattern, source or state symbol: a number or a string, integral floats as ints."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"field {name} must hold numbers or strings, not {type(value).__name__}")
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _make_source(doc):
    kind = _require(doc, "type", str, "source.")
    if kind == "iid":
        symbols = [_symbol(s, "source.symbols") for s in _require(doc, "symbols", list, "source.")]
        probs = [_number(p, "source.probs") for p in _require(doc, "probs", list, "source.")]
        return IIDSource(symbols=tuple(symbols), probs=probs)
    if kind == "markov":
        states = [_symbol(s, "source.states") for s in _require(doc, "states", list, "source.")]
        matrix = _require(doc, "matrix", list, "source.")
        if not all(isinstance(row, list) and len(row) == len(matrix) for row in matrix):
            raise ConfigError("field source.matrix must be a square list of rows")
        matrix = [[_number(v, "source.matrix") for v in row] for row in matrix]
        return MarkovChain(matrix=np.asarray(matrix, dtype=float), states=tuple(states))
    raise ConfigError(f"unknown source.type: {kind}")


# ---------------------------------------------------------------------------
# tables


def _floats(values):
    """A column of floats as text, 17 significant digits each."""
    return [f"{v:.17g}" for v in np.asarray(values, dtype=float).tolist()]


def _ints(values):
    """A column of integers (or flags, as 0 and 1) as text."""
    return [str(v) for v in np.asarray(values, dtype=int).tolist()]


def _estimates(entries, suffix=""):
    """The ``name,value,stderr,n`` table of (name, value, stderr, n) entries."""
    names, values, stderrs, counts = zip(*entries)
    rows = list(zip(names, _floats(values), _floats(stderrs), _ints(counts)))
    return suffix, ("name", "value", "stderr", "n"), rows


def _render(fmt, columns, rows):
    """The text of one table: CSV lines, or a JSON object of columns and rows."""
    if fmt == "json":
        return json.dumps({"columns": columns, "rows": rows}, indent=1) + "\n"
    return "\n".join([",".join(columns), *map(",".join, rows)]) + "\n"


# ---------------------------------------------------------------------------
# scenario executors


def _run_simulate(params, stream):
    x0 = _require_number(params, "x0")
    horizon = _require_number(params, "horizon")
    dt = _require_number(params, "dt")
    spec = JumpDiffusionSpec(
        drift=_make_coefficient(_require(params, "drift", dict), "drift."),
        diffusion=_make_coefficient(_require(params, "diffusion", dict), "diffusion."),
        jump_intensity=_number(params.get("jump_intensity", 0.0), "jump_intensity"),
        mark_distribution=_make_distribution(params["marks"], "marks.")
        if "marks" in params else None,
        compensated=_flag(params, "compensated", False),
    )
    path = simulate_jump_diffusion(spec, x0, horizon, dt, stream)
    nodes = np.arange(path.times.size)
    acts = [rec.index for rec in path.interventions]
    impulse = np.zeros(nodes.size)
    impulse[acts] = [rec.impulse for rec in path.interventions]
    rows = list(zip(_floats(path.times), _floats(path.states),
                    _ints(np.isin(nodes, [rec.index for rec in path.jumps])),
                    _ints(np.isin(nodes, acts)), _floats(impulse)))
    return [("", ("t", "x", "jump_flag", "intervention_flag", "impulse"), rows)]


def _run_renewal_check(params, stream):
    check = _require(params, "check", str)
    entries = []
    if check in ("mean-process", "blackwell", "wald", "reward-rate", "delayed"):
        spec = rn.RenewalSpec(
            interarrival=_make_distribution(_require(params, "interarrival", dict),
                                            "interarrival."),
            delay=_make_distribution(params["delay"], "delay.") if "delay" in params else None,
            reward=_make_distribution(params["reward"], "reward.") if "reward" in params else None,
            lattice_period=_number(params.get("lattice_period", 0.0), "lattice_period"),
        )
        t = _require_number(params, "t")
        n = _n_paths(params)
    if check == "mean-process":
        est = rn.estimate_mean_process(spec, t, n, stream)
        entries += [("mean_process", est.value, est.stderr, est.n),
                    ("elementary_limit", t / spec.mean, 0.0, 0)]
    elif check == "blackwell":
        a = _require_number(params, "a")
        mode = _require(params, "mode", str)
        est, limit = rn.blackwell_check(spec, t, a, mode, n, stream)
        entries += [(f"blackwell_{mode}", est.value, est.stderr, est.n),
                    ("limit", limit, 0.0, 0)]
    elif check == "wald":
        lhs, rhs = rn.wald_check(spec, t, n, stream)
        entries += [("stopped_sum", lhs.value, lhs.stderr, lhs.n),
                    ("count_times_mean", rhs.value, rhs.stderr, rhs.n)]
    elif check == "reward-rate":
        est, limit = rn.reward_rate_check(spec, t, n, stream)
        entries += [("reward_rate", est.value, est.stderr, est.n),
                    ("limit", limit, 0.0, 0)]
    elif check == "delayed":
        mean_est, age_est, age_limit = rn.delayed_renewal_stats(spec, t, n, stream)
        entries += [("mean_process", mean_est.value, mean_est.stderr, mean_est.n),
                    ("age", age_est.value, age_est.stderr, age_est.n),
                    ("age_limit", age_limit, 0.0, 0)]
    elif check == "regenerative":
        rates = _require(params, "rates", list)
        state = _integer(_require(params, "state"), "state")
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
        est, limit = rn.regenerative_occupancy(spec, state, horizon, n, stream)
        entries += [("occupancy", est.value, est.stderr, est.n),
                    ("limit", limit, 0.0, 0)]
    elif check == "renewal-equation":
        dist = _make_distribution(_require(params, "interarrival", dict), "interarrival.")
        rate = _number(params.get("f_decay_rate", 1.0), "f_decay_rate")
        if not rate > 0:  # exp(-rate s) is integrable only for a positive rate
            raise ConfigError(f"field f_decay_rate must be positive, got {rate!r}")
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
    return [_estimates(entries)]


def _run_pattern_expect(params, stream):
    pattern = Pattern(tuple(_symbol(s, "pattern") for s in _require(params, "pattern", list)))
    source = _make_source(_require(params, "source", dict))
    closed_form = _flag(params, "closed_form", True)
    strict = _flag(params, "strict", True)
    entries = []
    if closed_form:
        if isinstance(source, MarkovChain):
            x0 = params.get("x0")
            x0 = _symbol(x0, "x0") if x0 is not None else None
            value = expected_time_markov(pattern, source, x0=x0, strict=strict)
        else:
            value = expected_time_iid(pattern, source, strict=strict)
        entries.append(("closed_form", value, 0.0, 0))
    last = pattern.symbols[-1] if isinstance(source, MarkovChain) else None
    oracle = automaton_expected_time(pattern, source, last_symbol=last)
    entries.append(("automaton", oracle, 0.0, 0))
    return [_estimates(entries)]


def _run_pattern_race(params, stream):
    raw_patterns = _require(params, "patterns", list)
    if not all(isinstance(p, list) for p in raw_patterns):
        raise ConfigError("field patterns must be a list of symbol lists")
    patterns = [Pattern(tuple(_symbol(s, "patterns") for s in p)) for p in raw_patterns]
    source = _make_source(_require(params, "source", dict))
    initial_state = params.get("initial_state")
    initial_state = _symbol(initial_state, "initial_state") if initial_state is not None else None
    result = race_solve(patterns, source, initial_state=initial_state)
    entries = [(f"P_{i + 1}", p, 0.0, 0) for i, p in enumerate(result.probabilities)]
    entries.append(("E_T_min", result.expected_min_time, 0.0, 0))
    for i, e in enumerate(result.expected_times):
        entries.append((f"E_T_{i + 1}", e, 0.0, 0))
    n_trials = _count(params.get("n_trials", 0), "n_trials")
    if n_trials > 0:
        sim = simulate_pattern_race(patterns, source, n_trials, stream,
                                    initial_state=initial_state)
        for i in range(len(patterns)):
            entries.append((f"mc_P_{i + 1}", sim.probabilities[i], sim.prob_stderr[i],
                            sim.n_trials - sim.n_truncated))
        entries.append(("mc_E_T_min", sim.min_time.value, sim.min_time.stderr,
                        sim.min_time.n))
    return [_estimates(entries)]


def _benchmark_params(params):
    doc = params.get("benchmark", {})
    if not isinstance(doc, dict):
        raise ConfigError("field benchmark must be an object")
    return BenchmarkParams(**{f.name: _number(doc[f.name], f"benchmark.{f.name}")
                              for f in fields(BenchmarkParams) if f.name in doc})


def _run_impulse_solve(params, stream):
    bench = _benchmark_params(params)
    solution = solve_benchmark_qvi(bench)
    problem = make_benchmark_problem(bench)
    report = qvi_residual(problem, solution.candidate)
    rows = list(zip(_floats(report.x), _floats(report.generator_plus_running),
                    _floats(report.value_minus_intervention), report.region.tolist()))
    summary = [
        ("band_lo", solution.band[0], 0.0, 0),
        ("band_hi", solution.band[1], 0.0, 0),
        ("value_at_zero", float(solution.candidate.psi(0.0)), 0.0, 0),
        ("qvi_sup_norm", report.sup_norm, 0.0, 0),
        ("sweeps", solution.sweeps, 0.0, 0),
    ]
    return [("", ("x", "L_phi_plus_l", "phi_minus_Mphi", "region"), rows),
            _estimates(summary, "_summary")]


def _run_impulse_verify(params, stream):
    bench = _benchmark_params(params)
    n_paths = _n_paths(params)
    dt = _require_number(params, "dt")
    horizon = _number(params["horizon"], "horizon") if "horizon" in params else None
    allowance_coeff = _number(params.get("allowance_coeff", 25.0), "allowance_coeff")
    y0_list = params.get("y0", [0.0])
    if not isinstance(y0_list, list) or not y0_list:
        raise ConfigError("field y0 must be a nonempty list of numbers")
    y0_list = [_number(y0, "y0") for y0 in y0_list]
    alt_docs = params.get("alternatives", [{"band_delta": 0.5}, {"target_delta": 0.3}])
    if not isinstance(alt_docs, list):
        raise ConfigError("field alternatives must be a list of perturbation objects")
    shifts = []
    for doc in alt_docs:
        if not isinstance(doc, dict):
            raise ConfigError("each alternative must be an object")
        band = _number(doc.get("band_delta", 0.0), "alternatives.band_delta")
        target = _number(doc.get("target_delta", 0.0), "alternatives.target_delta")
        label = doc.get("label", f"band{band:+g}_target{target:+g}")
        # a comma or a line break in a label would shift the table's cells
        if not isinstance(label, str) or not label.isprintable() or "," in label:
            raise ConfigError(f"field alternatives.label must be printable text without "
                              f"commas, not {label!r}")
        shifts.append((label, band, target))

    solution = solve_benchmark_qvi(bench)
    problem = make_benchmark_problem(bench)
    policy = synthesize_policy(problem, solution.candidate)
    alternatives = [(label, policy.shifted(band_delta=band, target_delta=target))
                    for label, band, target in shifts]
    entries = []  # (check, y0, phi, cost, stderr, passed)
    for j, y0 in enumerate(y0_list):
        report = verify_value(problem, solution.candidate, policy, y0,
                              alternatives, n_paths, dt, stream.substream(j),
                              allowance_coeff=allowance_coeff, horizon=horizon)
        checks = [("equality", report.policy_cost, report.equality_passed)]
        checks += [(f"dominance_{e.label}", e.cost, e.passed) for e in report.alternatives]
        entries += [(check, y0, report.candidate_value, cost.value, cost.stderr, passed)
                    for check, cost, passed in checks]
    check, y0s, phi, cost, stderr, passed = zip(*entries)
    rows = list(zip(check, _floats(y0s), _floats(phi), _floats(cost), _floats(stderr),
                    _ints(passed)))
    return [("", ("check", "y0", "phi", "cost", "stderr", "passed"), rows)]


_EXECUTORS = {
    "simulate": _run_simulate,
    "renewal-check": _run_renewal_check,
    "pattern-expect": _run_pattern_expect,
    "pattern-race": _run_pattern_race,
    "impulse-solve": _run_impulse_solve,
    "impulse-verify": _run_impulse_verify,
}


def execute_scenario(scenario, out_dir, fmt="csv"):
    """Run one scenario and write its tables, all or none; returns the written paths."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc
    tables = _EXECUTORS[scenario.kind](scenario.parameters, derive_stream(scenario.seed, 0))
    texts = [(out_dir / f"{scenario.output}{suffix}.{fmt}", _render(fmt, columns, rows))
             for suffix, columns, rows in tables]
    written = []
    try:
        for path, text in texts:
            with path.open("w", encoding="utf-8") as handle:
                written.append(path)  # opened, so truncated: this run's file now
                handle.write(text)
    except (OSError, UnicodeError) as exc:  # UnicodeError: an output name utf-8 refuses
        for path in written:
            path.unlink(missing_ok=True)
        raise ConfigError(f"cannot write output: {exc}") from exc
    return written


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="jumpkit",
        description="Run a jumpkit scenario from a JSON config file.",
    )
    parser.add_argument("--config", required=True, help="path to the scenario JSON")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--workers", type=int, default=None,
                        help="accepted for compatibility; changes nothing")
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
