import re

import numpy as np
import pytest

from jumpkit import (
    CandidateValue,
    affine_intervention_operator,
    Discrete,
    ImpulsePolicy,
    ImpulseProblem,
    JumpDiffusionSpec,
    estimate_cost,
    intervention_operator,
    minimize_over_targets,
    qvi_residual,
    sample_jump_times,
    simulate_controlled,
    simulate_jump_diffusion,
    symmetric_pair,
    synthesize_policy,
    verify_value,
)
from jumpkit.errors import ChatteringError, DegeneratePolicyError, NumericalError, ParameterError
from jumpkit import sde
from jumpkit.impulse import default_target_grid


def constant(v):
    return lambda t, x: v * np.ones_like(np.asarray(x, dtype=float))


def quiet_problem(**overrides):
    """Driftless, noiseless problem used to exercise the operators."""
    defaults = dict(
        dynamics=JumpDiffusionSpec(drift=constant(0.0), diffusion=constant(0.0)),
        running_cost=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        intervention_cost=lambda t, x, z: 1.0 + np.abs(z),
        min_intervention_cost=1.0,
        discount=1.0,
        horizon=None,
    )
    defaults.update(overrides)
    return ImpulseProblem(**defaults)


TARGETS = default_target_grid(-6.0, 6.0)


def square(x):
    return np.asarray(x, dtype=float) ** 2


# ---------------------------------------------------------------------------
# intervention operator


def test_free_interventions_reach_the_minimum():
    m, z = intervention_operator(square, lambda x, z: 0.0 * np.asarray(z), 2.0, TARGETS)
    assert m == pytest.approx(0.0, abs=1e-10)
    assert z == pytest.approx(-2.0, abs=1e-6)


def test_affine_cost_example():
    m, z = intervention_operator(square, lambda x, z: 1.0 + np.abs(z), 1.0, TARGETS)
    assert m == pytest.approx(1.75, abs=1e-9)
    assert z == pytest.approx(-0.5, abs=1e-6)


def test_prohibitive_cost_never_pays():
    m, _ = intervention_operator(square, lambda x, z: 1000.0 + np.abs(z), 1.0, TARGETS)
    assert m == pytest.approx(1000.75, abs=1e-9)
    assert m > square(1.0)


def test_matches_brute_force_grid_oracle():
    dense = np.linspace(-6.0, 6.0, 2_000_001)
    for y in (-2.3, -0.4, 0.9, 3.1):
        oracle = np.min(square(dense) + 1.0 + 0.7 * np.abs(dense - y))
        m, _ = intervention_operator(
            square, lambda x, z: 1.0 + 0.7 * np.abs(z), y, TARGETS
        )
        assert m == pytest.approx(oracle, abs=1e-6)


def test_tie_breaks_toward_smallest_impulse():
    # flat value, flat cost: every target ties; the stay-put impulse wins
    flat = lambda x: np.ones_like(np.asarray(x, dtype=float))
    targets = np.linspace(-1.0, 1.0, 41)  # includes 0
    _, z = intervention_operator(flat, lambda x, z: 2.0 + 0.0 * np.asarray(z), 0.0, targets)
    assert z == pytest.approx(0.0, abs=1e-12)


def test_empty_target_grid_rejected():
    with pytest.raises(ParameterError):
        minimize_over_targets(square, lambda x, z: np.abs(z), [0.0], np.empty(0))


@pytest.mark.parametrize("grid", ["uniform", "nonuniform"])
@pytest.mark.parametrize("fixed,proportional", [(1.0, 0.0), (0.5, 0.3), (2.0, 1.7)])
def test_affine_operator_matches_dense_search(grid, fixed, proportional):
    rng = np.random.default_rng(17)
    for n in (2, 9, 200):
        if grid == "uniform":
            x = np.linspace(-3.0, 3.0, n)
        else:
            x = np.sort(rng.uniform(-3.0, 3.0, n))
        values = rng.normal(size=n) + x**2
        dense, _ = minimize_over_targets(
            lambda w: np.interp(w, x, values),
            lambda y, z: fixed + proportional * np.abs(z), x, x)
        fast = affine_intervention_operator(values, x, fixed, proportional)
        np.testing.assert_allclose(fast, dense, rtol=0.0, atol=1e-12)


def test_affine_operator_rejects_bad_input():
    x = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ParameterError):
        affine_intervention_operator(x[:4], x, 1.0, 0.3)
    with pytest.raises(ParameterError):
        affine_intervention_operator(x, x, 1.0, -0.3)


def test_coarse_search_blocks_leave_results_unchanged():
    # reversing the points moves every block boundary but keeps the
    # refinement's span, so values and targets must agree bit for bit
    points = np.random.default_rng(3).uniform(-5.0, 5.0, 700)
    cost = lambda y, z: 1.0 + 0.4 * np.abs(z)
    values, targets = minimize_over_targets(square, cost, points, TARGETS)
    rev_values, rev_targets = minimize_over_targets(square, cost, points[::-1], TARGETS)
    assert np.array_equal(values, rev_values[::-1])
    assert np.array_equal(targets, rev_targets[::-1])


# ---------------------------------------------------------------------------
# candidate values


def test_candidate_reproduces_nodes_and_derivatives():
    x = np.linspace(-3, 3, 121)
    cand = CandidateValue(x=x, values=x**2, discount=0.5)
    assert np.max(np.abs(cand.psi(x) - x**2)) < 1e-12
    assert cand.psi_prime(1.0) == pytest.approx(2.0, abs=1e-9)
    assert cand.curvature(0.5) == pytest.approx(2.0, abs=1e-7)
    # linear extension outside the grid
    assert cand.psi(4.0) == pytest.approx(cand.psi(3.0) + cand.psi_prime(3.0), rel=1e-9)
    # discount factorisation
    assert cand.value(1.0, 2.0) == pytest.approx(np.exp(-0.5) * cand.psi(2.0))
    field = cand.as_scalar_field()
    assert field.dt(0.0, 2.0) == pytest.approx(-0.5 * cand.psi(2.0))


def test_candidate_rejects_negative_values():
    x = np.linspace(0, 1, 10)
    with pytest.raises(ParameterError):
        CandidateValue(x=x, values=x - 0.5)


# ---------------------------------------------------------------------------
# policy synthesis


def test_synthesize_quadratic_band():
    x = np.linspace(-4.0, 4.0, 1601)
    cand = CandidateValue(x=x, values=x**2, discount=1.0)
    policy = synthesize_policy(quiet_problem(), cand, region_tol=1e-6)
    assert len(policy.intervals) == 1
    lo, hi = policy.intervals[0]
    assert lo == pytest.approx(-1.5, abs=0.01)
    assert hi == pytest.approx(1.5, abs=0.01)
    # impulse from the boundary targets the cheap interior point +-0.5
    assert policy.target(1.6) == pytest.approx(0.5, abs=1e-3)
    assert policy.impulse(1.5) == pytest.approx(-1.0, abs=0.01)
    assert policy.target(-2.5) == pytest.approx(-0.5, abs=1e-3)


def test_synthesize_huge_fixed_cost_never_intervenes():
    x = np.linspace(-4.0, 4.0, 801)
    cand = CandidateValue(x=x, values=x**2, discount=1.0)
    problem = quiet_problem(
        intervention_cost=lambda t, x, z: 1e6 + np.abs(z),
        min_intervention_cost=1e6,
    )
    policy = synthesize_policy(problem, cand)
    assert policy.intervals == ((float(x[0]), float(x[-1])),)
    assert policy.grid.size == 0


def test_synthesize_symmetric_problem_gives_odd_impulse():
    x = np.linspace(-5.0, 5.0, 2001)
    cand = CandidateValue(x=x, values=0.5 * x**2 + 0.2, discount=1.0)
    policy = synthesize_policy(quiet_problem(), cand, region_tol=1e-6)
    lo, hi = policy.intervals[0]
    assert lo == pytest.approx(-hi, abs=1e-9)
    for y in (2.6, 3.4, 4.1):
        assert policy.impulse(y) == pytest.approx(-policy.impulse(-y), abs=1e-6)


def test_synthesize_degenerate_region():
    x = np.linspace(-1.0, 1.0, 101)
    cand = CandidateValue(x=x, values=np.full_like(x, 5.0), discount=1.0)
    problem = quiet_problem(intervention_cost=lambda t, x, z: 1e-6 + 0.0 * np.asarray(z),
                            min_intervention_cost=1e-6)
    with pytest.raises(DegeneratePolicyError):
        synthesize_policy(problem, cand)


# ---------------------------------------------------------------------------
# QVI residual


def test_qvi_residual_zero_candidate():
    x = np.linspace(-2.0, 2.0, 201)
    cand = CandidateValue(x=x, values=np.zeros_like(x), discount=1.0)
    report = qvi_residual(quiet_problem(), cand)
    # L phi + running = 0 and phi - M phi = -inf K < 0: defect vanishes
    assert report.sup_norm == pytest.approx(0.0, abs=1e-9)
    assert set(report.region) == {"continuation"}


def test_qvi_report_partitions_grid():
    x = np.linspace(-2.0, 2.0, 201)
    cand = CandidateValue(x=x, values=x**2, discount=1.0)
    report = qvi_residual(quiet_problem(), cand)
    assert report.region.shape == x.shape
    assert set(np.unique(report.region)) <= {"action", "continuation"}
    rows = list(report.rows())
    assert len(rows) == x.size and len(rows[0]) == 4


# ---------------------------------------------------------------------------
# controlled simulation


def band_policy(b, target):
    grid = np.array([-b - 6.0, -b, b, b + 6.0])
    targets = np.array([-target, -target, target, target])
    return ImpulsePolicy(intervals=((-b, b),), grid=grid, targets=targets)


def test_stable_drift_never_intervenes(stream):
    problem = quiet_problem(
        dynamics=JumpDiffusionSpec(drift=lambda t, x: -0.5 * x, diffusion=constant(0.0)),
    )
    path = simulate_controlled(problem, band_policy(2.0, 0.5), 1.0, 5.0, 1e-3, stream)
    assert path.interventions == []
    assert abs(path.final_state - np.exp(-2.5)) < 1e-2


def test_unstable_drift_exit_time(stream):
    a, b, x0 = 0.5, 2.0, 0.5
    problem = quiet_problem(
        dynamics=JumpDiffusionSpec(drift=lambda t, x: a * x, diffusion=constant(0.0)),
    )
    dt = 1e-3
    path = simulate_controlled(problem, band_policy(b, 0.5), x0, 6.0, dt, stream)
    assert path.interventions, "unstable path must eventually exit"
    first = path.interventions[0].time
    assert first == pytest.approx(np.log(b / x0) / a, abs=5 * dt)


def test_interventions_restore_continuation(stream):
    problem = quiet_problem(
        dynamics=JumpDiffusionSpec(drift=lambda t, x: 0.8 * x, diffusion=constant(0.4)),
    )
    policy = band_policy(1.5, 0.3)
    path = simulate_controlled(problem, policy, 0.9, 10.0, 1e-3, stream)
    assert path.interventions
    seen = set()
    for rec in path.interventions:
        assert rec.index not in seen, "two interventions at one instant"
        seen.add(rec.index)
        assert not policy.contains(path.pre_states[rec.index] if rec.index else 0.9) \
            or rec.index == 0
        assert policy.contains(path.states[rec.index])
    path.validate()


# ---------------------------------------------------------------------------
# cost estimation


def test_zero_cost_zero(stream):
    problem = quiet_problem(
        running_cost=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
    )
    est = estimate_cost(problem, ImpulsePolicy.never_intervene(), 0.3, 8, 1e-2, stream,
                        horizon=2.0)
    assert est.value == 0.0 and est.stderr == 0.0


def test_deterministic_decay_closed_form(stream):
    a, rho, x0 = 0.7, 1.2, 1.4
    problem = quiet_problem(
        dynamics=JumpDiffusionSpec(drift=lambda t, x: -a * x, diffusion=constant(0.0)),
        running_cost=lambda t, x: np.exp(-rho * t) * np.asarray(x, dtype=float) ** 2,
        discount=rho,
    )
    dt = 1e-3
    est = estimate_cost(problem, ImpulsePolicy.never_intervene(), x0, 4, dt, stream,
                        horizon=14.0 / rho)
    target = x0**2 / (rho + 2 * a)
    assert est.stderr == 0.0
    assert est.value == pytest.approx(target, abs=5e-4 + est.tail_bound)
    assert not est.horizon_warning


def test_horizon_doubling_within_tail_bound(stream):
    rho = 1.0
    problem = quiet_problem(
        dynamics=JumpDiffusionSpec(drift=lambda t, x: -0.2 * x, diffusion=constant(0.0)),
        running_cost=lambda t, x: np.exp(-rho * t) * np.asarray(x, dtype=float) ** 2,
        discount=rho,
    )
    short = estimate_cost(problem, ImpulsePolicy.never_intervene(), 1.0, 4, 1e-3,
                          stream.substream(0), horizon=8.0)
    long = estimate_cost(problem, ImpulsePolicy.never_intervene(), 1.0, 4, 1e-3,
                         stream.substream(0), horizon=16.0)
    assert abs(long.value - short.value) <= short.tail_bound


def test_cost_worker_invariance(stream):
    problem = quiet_problem(
        dynamics=JumpDiffusionSpec(drift=lambda t, x: 0.4 * x, diffusion=constant(0.5)),
        running_cost=lambda t, x: np.exp(-t) * np.asarray(x, dtype=float) ** 2,
    )
    policy = band_policy(1.5, 0.3)
    results = [
        estimate_cost(problem, policy, 0.5, 512, 1e-2, stream, horizon=3.0, workers=w)
        for w in (1, 4, 8)
    ]
    assert results[0].value == results[1].value == results[2].value
    assert results[0].stderr == results[1].stderr == results[2].stderr


# ---------------------------------------------------------------------------
# one stepping kernel behind every simulator


def jumpy_problem():
    """Unstable drift, noise, compensated jumps and discounted costs."""
    return quiet_problem(
        dynamics=JumpDiffusionSpec(
            drift=lambda t, x: 0.3 * np.asarray(x, dtype=float), diffusion=constant(0.4),
            jump_intensity=2.0, mark_distribution=symmetric_pair(0.5), compensated=True,
        ),
        running_cost=lambda t, x: np.exp(-t) * np.asarray(x, dtype=float) ** 2,
        intervention_cost=lambda t, x, z: np.exp(-t) * (1.0 + np.abs(z)),
    )


def test_never_intervening_control_is_the_free_path(stream):
    spec = jumpy_problem().dynamics
    free = simulate_jump_diffusion(spec, 0.5, 3.0, 1e-2, stream.substream(3))
    controlled = simulate_controlled(jumpy_problem(), ImpulsePolicy.never_intervene(),
                                     0.5, 3.0, 1e-2, stream.substream(3))
    assert free.jumps and controlled.interventions == []
    assert np.array_equal(free.times, controlled.times)
    assert np.array_equal(free.states, controlled.states)
    assert np.array_equal(free.pre_states, controlled.pre_states)
    assert free.jumps == controlled.jumps
    controlled.validate()


def test_single_path_cost_matches_recorded_path(stream):
    problem = jumpy_problem()
    policy = band_policy(0.8, 0.2)
    horizon, dt = 3.0, 1e-2
    est = estimate_cost(problem, policy, 0.5, 1, dt, stream, horizon=horizon)
    path = simulate_controlled(problem, policy, 0.5, horizon, dt, stream.substream(0))
    jump_nodes = {rec.index for rec in path.jumps}
    assert any(rec.index in jump_nodes for rec in path.interventions)
    t, pre, post = path.times, path.pre_states, path.states
    running = np.sum(0.5 * np.diff(t) * (problem.running_cost(t[:-1], post[:-1])
                                         + problem.running_cost(t[1:], pre[1:])))
    kicks = sum(problem.intervention_cost(r.time, post[r.index] - r.impulse, r.impulse)
                for r in path.interventions)
    assert est.value == pytest.approx(running + kicks, rel=1e-12, abs=1e-12)


def kicked_problem():
    """No drift or noise; jumps of +2 at rate 5."""
    return quiet_problem(dynamics=JumpDiffusionSpec(
        drift=constant(0.0), diffusion=constant(0.0),
        jump_intensity=5.0, mark_distribution=Discrete([2.0], [1.0]),
    ))


def test_chattering_cap_counts_jump_time_impulses(stream):
    problem, policy = kicked_problem(), band_policy(1.0, 0.0)
    with pytest.raises(ChatteringError):
        estimate_cost(problem, policy, 0.0, 4, 1e-2, stream, horizon=10.0,
                      max_interventions=3)
    with pytest.raises(ChatteringError):
        simulate_controlled(problem, policy, 0.0, 10.0, 1e-2, stream, max_interventions=3)


def test_jump_time_impulse_landing_outside_region_raises_at_once(stream):
    problem = kicked_problem()
    policy = ImpulsePolicy(intervals=((-1.0, 1.0),), grid=np.array([-7.0, -1.0, 1.0, 7.0]),
                           targets=np.full(4, 5.0))
    times, _ = sample_jump_times(stream.substream(0), 5.0, Discrete([2.0], [1.0]), 10.0)
    first = float(times[0])
    assert first != round(first)  # off the unit grid, so only a jump-time check sees it
    message = re.escape(f"t={first!r}")
    with pytest.raises(NumericalError, match=message):
        estimate_cost(problem, policy, 0.0, 1, 1.0, stream, horizon=10.0)
    with pytest.raises(NumericalError, match=message):
        simulate_controlled(problem, policy, 0.0, 10.0, 1.0, stream.substream(0))


def test_policy_without_intervals_fails_the_landing_check(stream):
    # D is empty, so every impulse lands outside it
    policy = ImpulsePolicy(intervals=(), grid=np.array([-1.0, 1.0]), targets=np.zeros(2))
    assert not policy.contains(0.0) and not policy.contains(np.zeros(3)).any()
    with pytest.raises(NumericalError, match="continuation region"):
        estimate_cost(jumpy_problem(), policy, 0.0, 4, 1e-2, stream, horizon=1.0)


# ---------------------------------------------------------------------------
# lanes: many blocks and policies in one kernel run


def two_interval_policy():
    """D = (-1.6, 0.2) U (0.6, 1.6); the gap and the right exterior go to 1."""
    return ImpulsePolicy(intervals=((-1.6, 0.2), (0.6, 1.6)),
                         grid=np.array([-4.0, -1.6, 0.2, 0.6, 1.6, 4.0]),
                         targets=np.array([-0.5, -0.5, 1.0, 1.0, 1.0, 1.0]))


LANE_POLICIES = [band_policy(0.8, 0.2), ImpulsePolicy.never_intervene(), two_interval_policy()]


def cost_fields(est):
    return (est.value, est.stderr, est.tail_bound, est.peak, est.interventions_per_path,
            est.jumps_per_path)


def lane_verification(stream):
    """Three policies at 300 paths each: six lanes of 256 and 44 paths."""
    candidate = CandidateValue(np.linspace(-4.0, 4.0, 9), np.ones(9))
    policy, *others = LANE_POLICIES
    alternatives = [(f"alt{j}", alt) for j, alt in enumerate(others)]
    report = verify_value(jumpy_problem(), candidate, policy, 0.3, alternatives, 300, 1e-2,
                          stream, horizon=3.0)
    return [report.policy_cost] + [entry.cost for entry in report.alternatives]


def test_verify_value_costs_equal_separate_estimates(stream):
    costs = lane_verification(stream)
    for j, (policy, cost) in enumerate(zip(LANE_POLICIES, costs)):
        alone = estimate_cost(jumpy_problem(), policy, 0.3, 300, 1e-2, stream.substream(j),
                              horizon=3.0)
        assert cost_fields(cost) == cost_fields(alone)
    assert costs[0].interventions_per_path > 0 and costs[2].interventions_per_path > 0
    assert costs[1].interventions_per_path == 0
    assert all(cost.jumps_per_path > 0 for cost in costs)


def test_small_run_cap_is_bit_identical(stream, monkeypatch):
    costs = lane_verification(stream)
    monkeypatch.setattr(sde, "_MAX_RUN_PATHS", 300)
    capped = lane_verification(stream)
    assert [cost_fields(c) for c in capped] == [cost_fields(c) for c in costs]


def kernel_lanes(stream, sizes=(40, 1, 25)):
    """One lane per policy, each on its own substream with fresh generators."""
    return [(stream.substream(j).generator, n, policy)
            for j, (n, policy) in enumerate(zip(sizes, LANE_POLICIES))]


def test_lanes_with_different_policies_equal_each_run_alone(stream):
    problem = jumpy_problem()
    options = dict(intervention_cost=problem.intervention_cost, max_interventions=1000,
                   integrand=problem.running_cost, trapezoid=True)
    together = sde._simulate_batch(problem.dynamics, 0.3, 3.0, 1e-2, kernel_lanes(stream),
                                   **options)
    for lane, mine in zip(kernel_lanes(stream), together):
        alone, = sde._simulate_batch(problem.dynamics, 0.3, 3.0, 1e-2, [lane], **options)
        assert np.array_equal(mine.x, alone.x)
        assert np.array_equal(mine.integral, alone.integral)
        assert (mine.peak, mine.interventions, mine.jumps) == \
            (alone.peak, alone.interventions, alone.jumps)
    assert [lane.interventions > 0 for lane in together] == [True, False, True]


def test_cost_counters_match_the_recorded_path(stream):
    problem, policy = jumpy_problem(), band_policy(0.8, 0.2)
    est = estimate_cost(problem, policy, 0.5, 1, 1e-2, stream, horizon=3.0)
    path = simulate_controlled(problem, policy, 0.5, 3.0, 1e-2, stream.substream(0))
    grid = np.isin(path.times, 3.0 / 300 * np.arange(1, 301))
    assert est.jumps_per_path == len(path.jumps) > 0
    assert est.interventions_per_path == len(path.interventions) > 0
    assert est.peak == np.max(np.abs(path.pre_states[grid]))
