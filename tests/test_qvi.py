import numpy as np
import pytest

from jumpkit import (
    BenchmarkParams,
    estimate_cost,
    make_benchmark_problem,
    qvi_residual,
    solve_benchmark_qvi,
    synthesize_policy,
    verify_value,
)
from jumpkit.errors import ParameterError
from jumpkit.impulse import CandidateValue, ImpulsePolicy, minimize_over_targets
from jumpkit.qvi import _assemble_operator


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


def test_converged_iterate_is_a_fixed_point_of_the_dense_operator():
    params = BenchmarkParams(grid_step=0.01)
    sol = solve_benchmark_qvi(params)
    x, psi = sol.candidate.x, sol.candidate.values
    dense, _ = minimize_over_targets(
        lambda w: np.interp(w, x, psi),
        lambda y, z: params.fixed_cost + params.proportional_cost * np.abs(z), x, x)
    defect = np.minimum(x**2 - _assemble_operator(x, params) @ psi, dense - psi)
    dj = int(round(params.jump_size / params.grid_step))
    assert np.max(np.abs(defect[dj + 1:x.size - dj - 1])) <= 1e-6


def test_operator_on_a_quadratic():
    # central differences and lattice jumps are exact on x^2:
    # B x^2 = (rho - 2a) x^2 - sigma^2 - lambda delta^2 away from the margin
    params = BenchmarkParams(grid_step=0.05)
    x = np.linspace(params.grid_lo, params.grid_hi, 241)
    dj = int(round(params.jump_size / params.grid_step))
    applied = _assemble_operator(x, params) @ x**2
    expected = ((params.discount - 2 * params.drift_rate) * x**2 - params.sigma**2
                - params.jump_intensity * params.jump_size**2)
    np.testing.assert_allclose(applied[dj + 1:-dj - 1], expected[dj + 1:-dj - 1],
                               rtol=0.0, atol=1e-9)


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
