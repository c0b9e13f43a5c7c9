"""The four benchmark workloads: inputs from the seed, operations, checks.

Each workload turns ``--seed`` into concrete inputs, hands jumpkit only
those inputs, and checks every operation's output against an oracle that
does not share the code under test (the exact race rows, analytic renewal
limits, the QVI candidate value, closed-form convolution limits).  Every
operation also yields a digest of its numeric output, so reruns at one
seed can be compared bit for bit.

Monte Carlo comparisons use a band of ``CHECK_SIGMA`` standard errors.
The acceptance tests use 2 and 3 sigma, which suits a handful of pinned
seeds; the benchmark makes thousands of such comparisons over fresh seeds,
where a 3-sigma band would raise false failures at 0.27% per comparison.
"""

import contextlib
import csv
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import jumpkit
import jumpkit.cli
from spans import counting_callable

SPEC = json.loads(Path(__file__).with_name("workloads.json").read_text(encoding="utf-8"))
CHECK_SIGMA = SPEC["check_sigma"]


@dataclass
class OpResult:
    """What one operation produced, as the runner records it."""

    digest: str
    checks: list                      # (name, passed, detail[, pooling numbers])
    work: float
    ratios: list = field(default_factory=list)   # (stderr / target)^2 per estimate
    rows: int = 0                     # CLI rows written
    info: dict = field(default_factory=dict)


@dataclass
class Op:
    key: str
    run: object


def op_seed(seed, pass_index, op_index):
    """A 63-bit seed fixed by (workload seed, pass, operation)."""
    state = np.random.SeedSequence([seed, pass_index, op_index]).generate_state(2, np.uint32)
    return int(state[0]) << 31 | int(state[1]) >> 1


def digest_numbers(*values):
    flat = np.concatenate([np.atleast_1d(np.asarray(v, dtype=np.float64)).ravel()
                           for v in values])
    return hashlib.sha256(flat.tobytes()).hexdigest()


def _within(name, value, target, stderr, allowance=0.0):
    """Two-sided check; the trailing numbers let the runner pool it over passes."""
    gap = abs(value - target)
    bound = CHECK_SIGMA * stderr + allowance
    return (name, bool(gap <= bound), f"|{value:.6g} - {target:.6g}| = {gap:.3g} <= {bound:.3g}",
            [float(value), float(target), float(stderr), float(allowance)])


class Workload:
    name = None

    def __init__(self, seed, scratch):
        self.seed = seed
        self.scratch = Path(scratch)
        self.spec = SPEC[self.name]

    def prepare(self):
        """Set-up every user of the workload pays once (timed as set-up)."""

    def ops(self, pass_index):
        raise NotImplementedError

    def trace_patches(self, tracer):
        return []

    def run_cli(self, document):
        """Run the ``jumpkit`` command in-process; returns (exit code, files)."""
        out_dir = self.scratch / "cli_out"
        shutil.rmtree(out_dir, ignore_errors=True)
        config = self.scratch / "config.json"
        config.write_text(json.dumps(document), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            code = jumpkit.cli.main(["--config", str(config), "--out", str(out_dir)])
        files = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*"))} \
            if out_dir.is_dir() else {}
        return code, files


def _estimate_table(blob):
    """name -> (value, stderr, n) from a ``name,value,stderr,n`` CSV."""
    reader = csv.DictReader(io.StringIO(blob.decode("utf-8")))
    return {r["name"]: (float(r["value"]), float(r["stderr"]), int(r["n"])) for r in reader}


def _digest_files(files):
    h = hashlib.sha256()
    for name, blob in files.items():
        h.update(name.encode() + b"\0" + blob)
    return h.hexdigest()


def _data_rows(files):
    return sum(blob.count(b"\n") - 1 for blob in files.values())


# ---------------------------------------------------------------------------


class ImpulseSolve(Workload):
    """The CLI ``impulse-solve`` kind on the 2401-node benchmark grid."""

    name = "impulse-solve"

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        # (fixed, proportional) pairs whose solves all take 52 sweeps and
        # leave qvi_sup_norm below 5e-4, so the pick changes no amount of work
        combos = self.spec["costs"]
        order = np.random.default_rng(seed).permutation(len(combos))
        self.combos = [tuple(combos[i]) for i in order]

    def ops(self, pass_index):
        fixed, prop = self.combos[pass_index % len(self.combos)]
        document = {
            "kind": "impulse-solve",
            "seed": op_seed(self.seed, pass_index, 0),
            "output": "solve",
            "parameters": {"benchmark": {"fixed_cost": fixed, "proportional_cost": prop}},
        }
        return [Op(f"p{pass_index}.solve(c={fixed},k={prop})",
                   lambda: self._solve(document))]

    def _solve(self, document):
        code, files = self.run_cli(document)
        checks = [("exit_code", code == 0, f"exit code {code}")]
        if code == 0:
            table = _estimate_table(files["solve_summary.csv"])
            params = jumpkit.BenchmarkParams()
            lo, hi = table["band_lo"][0], table["band_hi"][0]
            sup = table["qvi_sup_norm"][0]
            checks += [
                ("qvi_sup_norm", sup <= self.spec["qvi_sup_norm_max"],
                 f"{sup:.3g} <= {self.spec['qvi_sup_norm_max']}"),
                ("band_symmetric", abs(lo + hi) <= params.grid_step,
                 f"|{lo} + {hi}| <= {params.grid_step}"),
                ("band_inside_grid", params.grid_lo < lo < hi < params.grid_hi,
                 f"{params.grid_lo} < {lo} < {hi} < {params.grid_hi}"),
            ]
        return OpResult(digest=_digest_files(files), checks=checks, work=1.0,
                        rows=_data_rows(files))


class ImpulseVerify(Workload):
    """``verify_value`` on the synthesized policy, criterion-8 style."""

    name = "impulse-verify"

    def prepare(self):
        spec = self.spec
        self.solution = jumpkit.solve_benchmark_qvi(jumpkit.BenchmarkParams())
        self.problem = jumpkit.make_benchmark_problem(self.solution.params)
        self.policy = jumpkit.synthesize_policy(self.problem, self.solution.candidate)
        alternatives = [
            (alt["label"], self.policy.shifted(band_delta=alt.get("band_delta", 0.0),
                                               target_delta=alt.get("target_delta", 0.0)))
            for alt in spec["alternatives"]
        ]
        half = 0.5 * self.solution.band[1]
        self.starts = [("y0=0", 0.0, alternatives), ("y0=+band/2", half, []),
                       ("y0=-band/2", -half, [])]

    def ops(self, pass_index):
        return [Op(f"p{pass_index}.{label}",
                   lambda j=j: self.verify(op_seed(self.seed, pass_index, j), j))
                for j, (label, _, _) in enumerate(self.starts)]

    def verify(self, seed, start_index, workers=1, n_paths=None):
        spec = self.spec
        n_paths = n_paths or spec["n_paths"]
        label, y0, alternatives = self.starts[start_index]
        result = jumpkit.verify_value(
            self.problem, self.solution.candidate, self.policy, y0, alternatives,
            n_paths, spec["dt"], jumpkit.derive_stream(seed, 0),
            allowance_coeff=spec["allowance_coeff"], horizon=spec["horizon"],
            workers=workers,
        )
        phi, cost = result.candidate_value, result.policy_cost
        checks = [
            _within("equality", cost.value, phi, cost.stderr, result.allowance),
            ("tail_bound", cost.tail_bound <= 0.01 * cost.value,
             f"{cost.tail_bound:.3g} <= 1% of {cost.value:.6g}"),
        ]
        for entry in result.alternatives:
            floor = phi - CHECK_SIGMA * entry.cost.stderr
            checks.append((f"dominance_{entry.label}", entry.cost.value >= floor,
                           f"{entry.cost.value:.6g} >= {floor:.6g}"))
        estimates = [cost] + [entry.cost for entry in result.alternatives]
        target = spec["target_stderr"][label]
        steps = int(round(spec["horizon"] / spec["dt"]))
        return OpResult(
            digest=digest_numbers(phi, [(e.value, e.stderr, e.tail_bound) for e in estimates]),
            checks=checks,
            work=float(n_paths * steps * len(estimates)),
            ratios=[(e.stderr / target) ** 2 for e in estimates],
            info={"criterion_8_two_sigma_passed": bool(result.passed)},
        )

    def trace_patches(self, tracer):
        problem = self.problem
        return [
            (problem, "running_cost", counting_callable(
                tracer, problem.running_cost, "impulse.running_cost_calls",
                scalars="impulse.running_cost_scalar_calls")),
            (problem, "intervention_cost", counting_callable(
                tracer, problem.intervention_cost, "impulse.intervention_cost_calls",
                elements="impulse.interventions")),
        ]


class PatternRace(Workload):
    """The CLI ``pattern-race`` kind: showcase race, iid and Markov."""

    name = "pattern-race"

    def ops(self, pass_index):
        spec = self.spec
        rng = np.random.default_rng([self.seed, pass_index])
        a, b = rng.uniform(*spec["markov_switch_range"], size=2)
        initial = int(rng.integers(2))
        matrix = [[1.0 - a, a], [b, 1.0 - b]]
        # size the Markov op to a fixed expected number of trial-steps, so
        # the drawn matrix changes the source, not the amount of work
        exact = jumpkit.race_solve(spec["patterns"], jumpkit.MarkovChain(np.array(matrix)),
                                   initial_state=initial)
        n_markov = max(2, int(round(spec["markov_trial_steps"] / exact.expected_min_time)))
        sources = [
            ("iid", {"type": "iid", "symbols": [0, 1], "probs": [0.5, 0.5]}, None,
             spec["iid_trials"]),
            ("markov", {"type": "markov", "states": [0, 1], "matrix": matrix}, initial,
             n_markov),
        ]
        ops = []
        for j, (label, source, init, n_trials) in enumerate(sources):
            parameters = {"patterns": spec["patterns"], "source": source, "n_trials": n_trials}
            if init is not None:
                parameters["initial_state"] = init
            document = {"kind": "pattern-race", "seed": op_seed(self.seed, pass_index, j),
                        "output": "race", "parameters": parameters}
            ops.append(Op(f"p{pass_index}.{label}", lambda d=document: self._race(d)))
        return ops

    def _race(self, document):
        code, files = self.run_cli(document)
        checks = [("exit_code", code == 0, f"exit code {code}")]
        work, ratios = 0.0, []
        if code == 0:
            table = _estimate_table(files["race.csv"])
            p1, e_min = table["P_1"][0], table["E_T_min"][0]
            mc_p1, se_p1, _ = table["mc_P_1"]
            mc_e, se_e, n_done = table["mc_E_T_min"]
            checks += [_within("mc_P_1", mc_p1, p1, se_p1),
                       _within("mc_E_T_min", mc_e, e_min, se_e)]
            work = mc_e * n_done
            # targets scale with the exact per-trial spread, so the drawn
            # matrix changes the problem but not the accuracy asked for
            target = self.spec["target_stderr"]
            ratios = [(se_p1 / (target["mc_P_1_relative_to_bernoulli_sd"]
                                * np.sqrt(p1 * (1.0 - p1)))) ** 2,
                      (se_e / (target["mc_E_T_min_relative"] * e_min)) ** 2]
        return OpResult(digest=_digest_files(files), checks=checks, work=work,
                        ratios=ratios, rows=_data_rows(files))


def _jump_ou_spec():
    """Criterion 7's stable OU diffusion with symmetric compensated jumps."""
    return jumpkit.JumpDiffusionSpec(
        drift=lambda t, x: -0.5 * x,
        diffusion=lambda t, x: 0.4 * np.ones_like(np.asarray(x, dtype=float)),
        jump_intensity=1.0,
        mark_distribution=jumpkit.symmetric_pair(0.5),
        compensated=True,
    )


def _two_state_cycles(gen, size, _rates=np.array([1.0, 2.0])):
    occ = np.column_stack([gen.exponential(1.0 / r, size=size) for r in _rates])
    return occ.sum(axis=1), occ


class PerPath(Workload):
    """Kernels driven by ``replicate``: stochastic core and renewal theory."""

    name = "per-path"

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        jk = jumpkit
        self.sde = _jump_ou_spec()
        # the Dynkin check uses a quadratic field: it still exercises the
        # drift, diffusion and jump terms of the generator, with lighter
        # tails (steadier stderr) than the quartic Ito field
        self.dynkin_field = jk.ScalarField.from_polynomial(self.spec["dynkin"]["field"])
        self.ito_field = jk.ScalarField.from_polynomial(self.spec["ito"]["field"])
        uniform = jk.RenewalSpec(interarrival=jk.Uniform(0.0, 1.0))
        # criterion 5's renewal estimators: (label, call, limit, allowance)
        self.renewal = [
            ("estimate_mean_process",
             lambda n, s: (jk.estimate_mean_process(uniform, 100.0, n, s), 200.0), 1.0),
            ("blackwell_nonlattice",
             lambda n, s: jk.blackwell_check(uniform, 50.0, 2.0, "nonlattice", n, s), 0.0),
            ("blackwell_lattice",
             lambda n, s: jk.blackwell_check(
                 jk.RenewalSpec(interarrival=jk.Discrete([1.0, 2.0], [0.5, 0.5]),
                                lattice_period=1.0), 40.0, 1.0, "lattice", n, s), 0.0),
            ("blackwell_reward",
             lambda n, s: jk.blackwell_check(
                 jk.RenewalSpec(interarrival=jk.Exponential(1.0),
                                reward=jk.Discrete([3.0], [1.0])), 50.0, 1.0, "reward", n, s),
             0.0),
            ("blackwell_random_walk",
             lambda n, s: jk.blackwell_check(
                 jk.RenewalSpec(interarrival=jk.Uniform(0.5, 1.5)), 100.0, 1.0,
                 "random_walk", n, s), 0.0),
            ("wald_check", lambda n, s: jk.wald_check(uniform, 50.0, n, s), 0.0),
            ("reward_rate_check",
             lambda n, s: jk.reward_rate_check(
                 jk.RenewalSpec(interarrival=jk.Exponential(2.0), reward=jk.bernoulli(0.5)),
                 200.0, n, s), 0.0),
            ("delayed_renewal_stats",
             lambda n, s: jk.delayed_renewal_stats(
                 jk.RenewalSpec(interarrival=jk.Uniform(0.0, 1.0), delay=jk.Uniform(0.0, 1.0)),
                 50.0, n, s)[1:], 0.0),
            ("regenerative_occupancy",
             lambda n, s: jk.regenerative_occupancy(
                 jk.RegenerativeSpec(n_states=2, sample_cycles=_two_state_cycles,
                                     mean_occupations=np.array([1.0, 0.5])),
                 1, 10_000.0, n, s), 0.0),
        ]

    def ops(self, pass_index):
        seeds = [op_seed(self.seed, pass_index, j) for j in range(3 + len(self.renewal))]
        ops = [Op(f"p{pass_index}.dynkin_residual", lambda: self._dynkin(seeds[0])),
               Op(f"p{pass_index}.ito_residual", lambda: self._ito(seeds[1])),
               Op(f"p{pass_index}.renewal_equation", self._renewal_equation)]
        for j, (label, call, allowance) in enumerate(self.renewal):
            ops.append(Op(f"p{pass_index}.{label}",
                          lambda s=seeds[3 + j], lab=label, c=call, a=allowance:
                          self._renewal_op(lab, c, a, s)))
        return ops

    def _ratio(self, label, stderr):
        return (stderr / self.spec["target_stderr"][label]) ** 2

    def _dynkin(self, seed):
        cfg = self.spec["dynkin"]
        est = jumpkit.dynkin_residual(self.sde, self.dynkin_field, cfg["x0"], cfg["t"], cfg["dt"],
                                      cfg["n_paths"], jumpkit.derive_stream(seed, 0))
        return OpResult(
            digest=digest_numbers(est.value, est.stderr),
            checks=[_within("dynkin_residual", est.value, 0.0, est.stderr,
                            cfg["allowance_coeff"] * cfg["dt"])],
            work=float(cfg["n_paths"]),
            ratios=[self._ratio("dynkin_residual", est.stderr)],
        )

    def _ito(self, seed):
        cfg = self.spec["ito"]
        estimates = []
        for dt in cfg["dts"]:
            def kernel(sub, _i, dt=dt):
                path = jumpkit.simulate_jump_diffusion(self.sde, cfg["x0"], cfg["t"], dt, sub)
                return abs(jumpkit.ito_residual(self.sde, self.ito_field, path))

            samples = jumpkit.replicate(kernel, cfg["n_paths"], jumpkit.derive_stream(seed, 0))
            estimates.append(jumpkit.estimate_from_samples(samples))
        coarse, fine = estimates
        # criterion 7: the change-of-variable defect shrinks as dt shrinks
        return OpResult(
            digest=digest_numbers([(e.value, e.stderr) for e in estimates]),
            checks=[("ito_defect_monotone", coarse.value >= fine.value,
                     f"{coarse.value:.3g} (dt={cfg['dts'][0]}) >= "
                     f"{fine.value:.3g} (dt={cfg['dts'][1]})")],
            work=float(cfg["n_paths"] * len(estimates)),
            ratios=[self._ratio("ito_residual", fine.stderr)],
        )

    def _renewal_equation(self):
        cfg = self.spec["renewal_equation"]
        sol = jumpkit.solve_renewal_equation(jumpkit.Uniform(0.0, 1.0).cdf,
                                             lambda s: np.exp(-s), cfg["t_max"], cfg["step"])
        gap = abs(sol.convolution_value - cfg["target"])
        return OpResult(
            digest=digest_numbers(sol.mean_values, sol.convolution_value, sol.limit_value),
            checks=[("convolution", bool(gap <= cfg["tol"]),
                     f"|{sol.convolution_value:.6g} - 2| = {gap:.3g} <= {cfg['tol']}")],
            work=0.0,
        )

    def _renewal_op(self, label, call, allowance, seed):
        n = self.spec["renewal_paths"]
        first, second = call(n, jumpkit.derive_stream(seed, 0))
        if label == "wald_check":
            # both sides of the stopped-sum identity are estimates
            se = float(np.hypot(first.stderr, second.stderr))
            check = _within(label, first.value, second.value, se)
            values = [(first.value, first.stderr, second.value, second.stderr)]
        else:
            se = first.stderr
            check = _within(label, first.value, float(second), se, allowance)
            values = [(first.value, first.stderr, float(second))]
        return OpResult(digest=digest_numbers(values), checks=[check], work=float(n),
                        ratios=[self._ratio(label, se)])


WORKLOADS = {cls.name: cls for cls in (ImpulseSolve, ImpulseVerify, PatternRace, PerPath)}
