import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from jumpkit import (
    BenchmarkParams,
    estimate_cost,
    impulse,
    make_benchmark_problem,
    qvi_residual,
    solve_benchmark_qvi,
    synthesize_policy,
    verify_value,
)
from jumpkit.calculus import ScalarField, generator_apply
from jumpkit.distributions import Discrete
from jumpkit.errors import ParameterError
from jumpkit.impulse import CandidateValue, ImpulsePolicy, _affine_envelope, minimize_over_targets
from jumpkit.qvi import _assemble_operator
from jumpkit.sde import JumpDiffusionSpec


@pytest.fixture(scope="module")
def solution():
    return solve_benchmark_qvi(BenchmarkParams())


@pytest.fixture(scope="module")
def problem():
    return make_benchmark_problem(BenchmarkParams())


def test_params_validation():
    with pytest.raises(ParameterError):
        BenchmarkParams(drift_rate=0.6, discount=1.0)
    with pytest.raises(ParameterError):
        BenchmarkParams(jump_size=0.6117, grid_step=0.005)


@pytest.mark.parametrize("grid, message", [
    ({"grid_step": 0.0}, "grid step must be positive"),
    ({"grid_step": -0.005}, "grid step must be positive"),
    ({"grid_step": float("nan")}, "grid step must be positive"),
    ({"grid_lo": 6.0, "grid_hi": -6.0}, "grid_lo < grid_hi"),
    ({"grid_lo": float("nan")}, "grid_lo < grid_hi"),
    ({"grid_hi": float("inf")}, "MAX_GRID_NODES"),
    ({"grid_step": 1e-7}, "MAX_GRID_NODES"),
])
def test_params_reject_bad_grids(grid, message):
    with pytest.raises(ParameterError, match=message):
        BenchmarkParams(**grid)


def test_solution_is_symmetric(solution):
    x, psi = solution.candidate.x, solution.candidate.values
    assert np.max(np.abs(psi - psi[::-1])) < 1e-8
    lo, hi = solution.band
    assert lo == pytest.approx(-hi, abs=2 * solution.candidate.step)


def test_solution_improves_on_never_intervening(solution):
    params = solution.params
    x = solution.candidate.x
    uncontrolled = params.uncontrolled_value(x)
    psi = solution.candidate.values
    assert np.all(psi <= uncontrolled + 1e-8)
    assert psi[x.size // 2] < uncontrolled[x.size // 2]


def test_fd_residual_tiny(solution):
    assert solution.fd_residual < 1e-6


def test_history_records_every_sweep(solution):
    history = solution.history
    assert len(history) == solution.sweeps
    n = solution.candidate.x.size
    change, n_active, n_flips = history[-1]
    assert change < 1e-9 and n_flips == 0
    assert history[0][1] == history[0][2]  # the first sweep flips from all-continuation
    assert all(0 < active < n for _, active, _ in history)


def test_history_counts_what_the_stopping_rule_sees(solution):
    # a sweep that repeats the branches and the targets of the sweep before
    # solves the same system again, so only the last sweep flips nothing
    flips = [n_flips for _, _, n_flips in solution.history]
    assert flips[-1] == 0 and min(flips[:-1]) > 0


def _benchmark_operator(x, params):
    return _assemble_operator(x, make_benchmark_problem(params).dynamics, params.discount)


def _frozen_obstacle_solve(params, max_sweeps=200):
    """Reference loop: M psi frozen within each sweep, action rows pinned to it.

    Converges linearly to the same discrete QVI solution; returns psi and
    the continuation nodes.
    """
    x = np.linspace(params.grid_lo, params.grid_hi,
                    int(round((params.grid_hi - params.grid_lo) / params.grid_step)) + 1)
    operator = _benchmark_operator(x, params)
    c, kappa = params.fixed_cost, params.proportional_cost
    psi = params.uncontrolled_value(x)
    active_prev = np.zeros(x.size, dtype=bool)
    for sweep in range(1, max_sweeps + 1):
        obstacle, _ = _affine_envelope(psi, x, x, c, kappa)
        active = psi - obstacle >= operator @ psi - x**2
        active[0] = active[-1] = True
        mixed = sp.diags((~active).astype(float)) @ operator + sp.diags(active.astype(float))
        psi_new = spla.spsolve(sp.csc_matrix(mixed), np.where(active, obstacle, x**2))
        change = float(np.max(np.abs(psi_new - psi)))
        psi = psi_new
        if sweep > 1 and np.array_equal(active, active_prev) and change < 1e-9:
            return psi, ~active
        active_prev = active
    raise AssertionError("reference loop did not settle")


@pytest.mark.parametrize("h", [0.01, 0.005])
def test_policy_iteration_matches_frozen_obstacle_loop(h):
    params = BenchmarkParams(grid_step=h)
    sol = solve_benchmark_qvi(params)
    psi, continuation = _frozen_obstacle_solve(params)
    np.testing.assert_allclose(sol.candidate.values, psi, rtol=0.0, atol=1e-8)
    x = sol.candidate.x
    assert sol.band == (x[continuation][0], x[continuation][-1])
    assert sol.sweeps < 20


def test_fine_grid_settles_within_default_sweeps():
    # h = 0.000625 (19201 nodes) took 309 frozen-obstacle sweeps, past the
    # default cap of 200
    sol = solve_benchmark_qvi(BenchmarkParams(grid_step=0.000625))
    assert sol.sweeps < 200
    assert sol.fd_residual <= 1e-3
    assert sol.band[1] == pytest.approx(1.595625, abs=0.01)


def test_converged_iterate_is_a_fixed_point_of_the_dense_operator():
    params = BenchmarkParams(grid_step=0.01)
    sol = solve_benchmark_qvi(params)
    x, psi = sol.candidate.x, sol.candidate.values
    dense, _ = minimize_over_targets(
        lambda w: np.interp(w, x, psi),
        lambda y, z: params.fixed_cost + params.proportional_cost * np.abs(z), x, x)
    defect = np.minimum(x**2 - _benchmark_operator(x, params) @ psi, dense - psi)
    dj = int(round(params.jump_size / params.grid_step))
    assert np.max(np.abs(defect[dj + 1:x.size - dj - 1])) <= 1e-6


def test_operator_on_a_quadratic():
    # central differences and lattice jumps are exact on x^2:
    # B x^2 = (rho - 2a) x^2 - sigma^2 - lambda delta^2 away from the margin
    params = BenchmarkParams(grid_step=0.05)
    x = np.linspace(params.grid_lo, params.grid_hi, 241)
    dj = int(round(params.jump_size / params.grid_step))
    applied = _benchmark_operator(x, params) @ x**2
    expected = ((params.discount - 2 * params.drift_rate) * x**2 - params.sigma**2
                - params.jump_intensity * params.jump_size**2)
    np.testing.assert_allclose(applied[dj + 1:-dj - 1], expected[dj + 1:-dj - 1],
                               rtol=0.0, atol=1e-9)


def test_operator_follows_any_spec():
    # asymmetric compensated lattice marks, mean-reverting drift and
    # state-dependent diffusion: B F = rho F - L F up to the O(h^2) error of
    # the central differences, a quarter of it each time h halves
    h0, rho = 0.1, 0.9
    spec = JumpDiffusionSpec(
        drift=lambda t, x: 0.5 * (0.3 - x),
        diffusion=lambda t, x: 0.4 + 0.1 * np.asarray(x, dtype=float) ** 2,
        jump_intensity=1.2,
        mark_distribution=Discrete([-2 * h0, 3 * h0], [0.7, 0.3]),
        compensated=True,
    )
    field = ScalarField.from_polynomial([0.3, -0.2, 0.5, 0.1, 0.05])
    errors = []
    for h in (h0, h0 / 2, h0 / 4):
        x = np.linspace(-4.0, 4.0, int(round(8.0 / h)) + 1)
        applied = _assemble_operator(x, spec, rho) @ field.value(0.0, x)
        exact = rho * field.value(0.0, x) - generator_apply(spec, field, 0.0, x)
        clear = np.abs(x) <= 2.0  # every jump target stays on the grid
        errors.append(np.max(np.abs(applied - exact)[clear]))
    assert errors[0] < 1e-2
    np.testing.assert_allclose(np.array(errors[:-1]) / errors[1:], 4.0, rtol=0.05)


def test_grid_refinement():
    # h = 0.01, 0.005, 0.0025: the gaps in psi(0) at least halve and the
    # band edges move by at most one step of the coarsest grid
    sols = [solve_benchmark_qvi(BenchmarkParams(grid_step=h)) for h in (0.01, 0.005, 0.0025)]
    values = [float(sol.candidate.psi(0.0)) for sol in sols]
    gaps = np.abs(np.diff(values))
    assert gaps[1] <= 0.5 * gaps[0]
    for coarse, fine in zip(sols, sols[1:]):
        assert abs(fine.band[0] - coarse.band[0]) <= 0.01 + 1e-12
        assert abs(fine.band[1] - coarse.band[1]) <= 0.01 + 1e-12


def test_official_qvi_residual(solution, problem):
    report = qvi_residual(problem, solution.candidate)
    assert report.sup_norm <= 1e-3
    # one-sided inequalities hold everywhere in the interior
    inside = report.interior
    assert np.min(report.generator_plus_running[inside]) >= -1e-3
    assert np.max(report.value_minus_intervention[inside]) <= 1e-3


def test_region_dichotomy(solution, problem):
    report = qvi_residual(problem, solution.candidate)
    inside = report.interior
    gp = np.abs(report.generator_plus_running[inside])
    vm = np.abs(report.value_minus_intervention[inside])
    assert np.all((gp <= 1e-3) | (vm <= 1e-3))


def test_perturbation_detected(solution, problem):
    cand = solution.candidate
    bumped = CandidateValue(
        x=cand.x, values=cand.values + 0.1 * np.cos(cand.x), discount=cand.discount
    )
    report = qvi_residual(problem, bumped)
    assert report.sup_norm > 1e-2


def test_residual_refuses_a_candidate_of_another_discount(solution, problem):
    cand = solution.candidate
    rewrapped = CandidateValue(x=cand.x, values=cand.values, discount=0.5)
    with pytest.raises(ParameterError, match="discount"):
        qvi_residual(problem, rewrapped)


def test_band_widens_with_fixed_cost():
    bands = []
    for c in (0.5, 1.0, 2.0):
        sol = solve_benchmark_qvi(BenchmarkParams(fixed_cost=c, grid_step=0.01))
        bands.append(sol.band[1])
    assert bands[0] < bands[1] < bands[2]


def test_policy_bands_match_active_set(solution, problem):
    policy = synthesize_policy(problem, solution.candidate)
    assert len(policy.intervals) == 1
    lo, hi = policy.intervals[0]
    assert lo == pytest.approx(solution.band[0], abs=0.05)
    assert hi == pytest.approx(solution.band[1], abs=0.05)
    targets = policy.targets
    assert np.all(policy.contains(targets))


@pytest.mark.parametrize("h", [0.005, 0.0025, 0.00125,
                               pytest.param(0.000625, marks=pytest.mark.slow)])
def test_affine_operator_synthesizes_the_dense_search_policy(h, monkeypatch):
    # the O(n) operator against the dense O(n^2) search it replaces in
    # synthesize_policy: values, targets and intervals equal bit for bit
    params = BenchmarkParams(grid_step=h)
    cand = solve_benchmark_qvi(params).candidate
    problem = make_benchmark_problem(params)
    kost = lambda x, z: problem.intervention_cost(0.0, x, z)
    dense = minimize_over_targets(cand.psi, kost, cand.x, cand.x)
    fast = impulse._intervention_operator(problem, cand, cand.x)
    np.testing.assert_array_equal(fast[0], dense[0])
    np.testing.assert_array_equal(fast[1], dense[1])
    policy = synthesize_policy(problem, cand)
    monkeypatch.setattr(impulse, "_intervention_operator",
                        lambda problem, candidate, targets: dense)
    oracle = synthesize_policy(problem, cand)
    assert policy.intervals == oracle.intervals
    np.testing.assert_array_equal(policy.grid, oracle.grid)
    np.testing.assert_array_equal(policy.targets, oracle.targets)


def test_synthesis_skips_the_dense_search_only_for_the_affine_cost(solution, problem,
                                                                  monkeypatch):
    rho, c, kappa = problem.discount, 1.0, 0.3
    plain = dataclasses.replace(
        problem, intervention_cost=lambda t, x, z: np.exp(-rho * t) * (c + kappa * np.abs(z)))
    oracle = synthesize_policy(plain, solution.candidate)

    def refuse(*args):
        raise AssertionError("dense search called")

    monkeypatch.setattr(impulse, "minimize_over_targets", refuse)
    policy = synthesize_policy(problem, solution.candidate)
    with pytest.raises(AssertionError, match="dense search called"):
        synthesize_policy(plain, solution.candidate)
    assert policy.intervals == oracle.intervals
    np.testing.assert_array_equal(policy.targets, oracle.targets)


def _dense_residual(problem, candidate, monkeypatch):
    """qvi_residual with M phi from the dense search over 401 uniform targets."""
    x = candidate.x
    kost = lambda y, z: problem.intervention_cost(0.0, y, z)
    dense = minimize_over_targets(candidate.psi, kost, x, np.linspace(x[0], x[-1], 401))
    with monkeypatch.context() as patch:
        patch.setattr(impulse, "_intervention_operator", lambda problem, candidate, targets: dense)
        return qvi_residual(problem, candidate)


# (fixed, proportional) pairs of the CLI impulse-solve benchmark workload
BENCHMARK_COSTS = [(1.0, 0.2), (1.0, 0.3), (0.95, 0.35), (1.05, 0.25), (1.05, 0.3)]


@pytest.mark.parametrize("h, c, kappa", [
    (0.005, c, kappa) for c, kappa in BENCHMARK_COSTS
] + [(0.0025, 1.0, 0.3), (0.00125, 1.0, 0.3),
     pytest.param(0.000625, 1.0, 0.3, marks=pytest.mark.slow)])
def test_residual_equals_the_dense_search_residual(h, c, kappa, monkeypatch):
    # the envelope over the residual's 401 uniform targets against the
    # dense search it replaces there: the report agrees bit for bit
    params = BenchmarkParams(grid_step=h, fixed_cost=c, proportional_cost=kappa)
    cand = solve_benchmark_qvi(params).candidate
    problem = make_benchmark_problem(params)
    report = qvi_residual(problem, cand)
    oracle = _dense_residual(problem, cand, monkeypatch)
    np.testing.assert_array_equal(report.value_minus_intervention,
                                  oracle.value_minus_intervention)
    np.testing.assert_array_equal(report.region, oracle.region)
    assert report.sup_norm == oracle.sup_norm
    assert report.sup_norm <= 1e-3


def test_residual_skips_the_dense_search_only_for_the_affine_cost(solution, problem,
                                                                 monkeypatch):
    rho, c, kappa = problem.discount, 1.0, 0.3
    plain = dataclasses.replace(
        problem, intervention_cost=lambda t, x, z: np.exp(-rho * t) * (c + kappa * np.abs(z)))
    oracle = qvi_residual(plain, solution.candidate)

    def refuse(*args):
        raise AssertionError("dense search called")

    monkeypatch.setattr(impulse, "minimize_over_targets", refuse)
    report = qvi_residual(problem, solution.candidate)
    with pytest.raises(AssertionError, match="dense search called"):
        qvi_residual(plain, solution.candidate)
    np.testing.assert_array_equal(report.value_minus_intervention,
                                  oracle.value_minus_intervention)
    np.testing.assert_array_equal(report.region, oracle.region)
    assert report.sup_norm == oracle.sup_norm


def test_quick_value_consistency(solution, problem, stream):
    # cheap smoke version of the full verification: psi(0) vs simulated cost
    policy = synthesize_policy(problem, solution.candidate)
    est = estimate_cost(problem, policy, 0.0, 2000, 2e-3, stream, horizon=12.0)
    phi0 = float(solution.candidate.psi(0.0))
    assert abs(est.value - phi0) <= 3 * est.stderr + 25 * 2e-3


def test_never_intervene_cost_matches_uncontrolled_value(problem, stream):
    params = BenchmarkParams()
    est = estimate_cost(problem, ImpulsePolicy.never_intervene(), 0.0, 2000, 2e-3,
                        stream, horizon=12.0)
    target = float(params.uncontrolled_value(0.0))
    assert abs(est.value - target) <= 3 * est.stderr + 25 * 2e-3


def test_paired_streams_rank_policies(solution, problem, stream):
    # identical substreams path for path: doing nothing costs more
    policy = synthesize_policy(problem, solution.candidate)
    lazy = estimate_cost(problem, ImpulsePolicy.never_intervene(), 0.5, 1500, 2e-3,
                         stream.substream(7), horizon=12.0)
    active = estimate_cost(problem, policy, 0.5, 1500, 2e-3,
                           stream.substream(7), horizon=12.0)
    assert lazy.value >= active.value


def test_verification_pinned_to_block_by_block_values(solution, problem, stream):
    # 17-digit values of the loop that stepped each 256-path block alone;
    # the batched kernel must reproduce them bit for bit
    policy = synthesize_policy(problem, solution.candidate)
    report = verify_value(problem, solution.candidate, policy, 0.0,
                          [("never", ImpulsePolicy.never_intervene())], 2000, 2e-3, stream,
                          horizon=12.0)
    costs = [report.policy_cost, report.alternatives[0].cost]
    assert [(c.value, c.stderr, c.tail_bound) for c in costs] == [
        (0.5318527398118723, 0.00848786241512009, 1.7139616759755595e-05),
        (1.3091981609566237, 0.036405519571585755, 0.08803061789747886),
    ]
