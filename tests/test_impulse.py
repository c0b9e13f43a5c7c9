import re

import numpy as np
import pytest

from jumpkit import (
    AffineInterventionCost,
    BenchmarkParams,
    CandidateValue,
    Discrete,
    Uniform,
    ImpulsePolicy,
    ImpulseProblem,
    JumpDiffusionSpec,
    estimate_cost,
    make_benchmark_problem,
    minimize_over_targets,
    qvi_residual,
    sample_jump_times,
    simulate_controlled,
    simulate_jump_diffusion,
    solve_benchmark_qvi,
    symmetric_pair,
    synthesize_policy,
    verify_value,
)
from jumpkit.errors import ChatteringError, DegeneratePolicyError, NumericalError, ParameterError
from jumpkit import impulse, sde


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


TARGETS = np.linspace(-6.0, 6.0, 401)


def square(x):
    return np.asarray(x, dtype=float) ** 2


# ---------------------------------------------------------------------------
# intervention operator


def test_free_interventions_reach_the_minimum():
    (m,), (w,) = minimize_over_targets(square, lambda x, z: 0.0 * np.asarray(z), [2.0], TARGETS)
    z = w - 2.0
    assert m == pytest.approx(0.0, abs=1e-10)
    assert z == pytest.approx(-2.0, abs=1e-6)


def test_affine_cost_example():
    (m,), (w,) = minimize_over_targets(square, lambda x, z: 1.0 + np.abs(z), [1.0], TARGETS)
    z = w - 1.0
    assert m == pytest.approx(1.75, abs=1e-9)
    assert z == pytest.approx(-0.5, abs=1e-6)


def test_prohibitive_cost_never_pays():
    (m,), _ = minimize_over_targets(square, lambda x, z: 1000.0 + np.abs(z), [1.0], TARGETS)
    assert m == pytest.approx(1000.75, abs=1e-9)
    assert m > square(1.0)


def test_matches_brute_force_grid_oracle():
    dense = np.linspace(-6.0, 6.0, 2_000_001)
    for y in (-2.3, -0.4, 0.9, 3.1):
        oracle = np.min(square(dense) + 1.0 + 0.7 * np.abs(dense - y))
        (m,), _ = minimize_over_targets(
            square, lambda x, z: 1.0 + 0.7 * np.abs(z), [y], TARGETS
        )
        assert m == pytest.approx(oracle, abs=1e-6)


def test_tie_breaks_toward_smallest_impulse():
    # flat value, flat cost: every target ties; the stay-put impulse wins
    flat = lambda x: np.ones_like(np.asarray(x, dtype=float))
    targets = np.linspace(-1.0, 1.0, 41)  # includes 0
    # the point is 0, so its best target is its impulse
    _, (z,) = minimize_over_targets(flat, lambda x, z: 2.0 + 0.0 * np.asarray(z), [0.0], targets)
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
        dense, dense_targets = minimize_over_targets(
            lambda w: np.interp(w, x, values),
            lambda y, z: fixed + proportional * np.abs(z), x, x)
        fast, pick = impulse._affine_envelope(values, x, x, fixed, proportional)
        np.testing.assert_allclose(fast, dense, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(x[pick], dense_targets)


@pytest.mark.parametrize("proportional", [0.0, 1.0, 2.0])
def test_affine_operator_targets_break_ties_like_dense_search(proportional):
    # small integers on integer nodes make many exact ties, which both
    # searches must give to the smallest impulse
    rng = np.random.default_rng(23)
    for n in (2, 7, 30):
        x = np.cumsum(rng.integers(1, 3, n)).astype(float) - 10.0
        values = rng.integers(0, 4, n).astype(float)
        dense, dense_targets = minimize_over_targets(
            lambda w: np.interp(w, x, values),
            lambda y, z: 1.0 + proportional * np.abs(z), x, x)
        fast, pick = impulse._affine_envelope(values, x, x, 1.0, proportional)
        np.testing.assert_array_equal(fast, dense)
        np.testing.assert_array_equal(x[pick], dense_targets)
    flat, pick = impulse._affine_envelope(np.zeros(5), x[:5], x[:5], 1.0, proportional)
    np.testing.assert_array_equal(x[:5][pick], x[:5])  # every node ties with staying put


def test_affine_cost_equals_the_lambda_bit_for_bit():
    rng = np.random.default_rng(5)
    for fixed, proportional, rho in ((1.0, 0.3, 1.0), (0.95, 0.35, 0.7), (2.5, 0.0, 1e-3)):
        cost = AffineInterventionCost(fixed, proportional, rho)
        old = lambda t, x, z: np.exp(-rho * t) * (fixed + proportional * np.abs(z))
        z = np.concatenate([rng.normal(scale=3.0, size=50), [0.0, -0.0, 1e-300, -7.5]])
        x = rng.normal(size=z.size)
        for t in (0.0, 0.37, 12.0, rng.uniform(0.0, 14.0, z.size)):
            for args in ((t, x, z), (t, x[:, None], z[None, :]), (t, 0.5, -1.25)):
                assert np.asarray(cost(*args)).tobytes() == np.asarray(old(*args)).tobytes()


def _dense_coarse_pick(target_values, cost, targets, points):
    """The dense search's coarse winner per point: ties within 1e-12 go to the smaller impulse."""
    z = targets[None, :] - points[:, None]
    obj = target_values[None, :] + cost(0.0, points[:, None], z)
    vmin = obj.min(axis=1, keepdims=True)
    ties = obj <= vmin + 1e-12 * (1.0 + np.abs(vmin))
    return np.where(ties, np.abs(z), np.inf).argmin(axis=1)


def test_affine_operator_equals_dense_search_on_random_candidates():
    # a third of the candidates take dyadic node values, nodes and costs,
    # so that many objectives tie exactly; the coarse picks of the envelope
    # and of the dense tie rule, and the refined values and targets, must agree
    rng = np.random.default_rng(2026)
    n_picks = 0
    for case in range(300):
        n = int(rng.integers(8, 201))
        if case % 3 == 0:
            x = np.cumsum(rng.integers(1, 3, n)) * 0.25 - 0.125 * n
            values = rng.integers(0, 5, n) * 0.5
            cost = AffineInterventionCost(float(rng.integers(1, 4)) * 0.5,
                                          float(rng.integers(0, 5)) * 0.25, 1.0)
        else:
            x = np.sort(rng.uniform(-4.0, 4.0, n))
            while np.any(np.diff(x) <= 0):
                x = np.sort(rng.uniform(-4.0, 4.0, n))
            values = x**2 + rng.uniform(0.0, 1.0, n)
            cost = AffineInterventionCost(rng.uniform(0.05, 2.0), rng.uniform(0.0, 1.5),
                                          rng.uniform(0.1, 2.0))
        cand = CandidateValue(x, values, discount=cost.discount)
        problem = quiet_problem(intervention_cost=cost, discount=cost.discount,
                                min_intervention_cost=cost.fixed)
        target_values = cand.psi(x)
        _, pick = impulse._affine_envelope(target_values, x, x, cost.fixed, cost.proportional)
        np.testing.assert_array_equal(pick, _dense_coarse_pick(target_values, cost, x, x))
        n_picks += pick.size
        kost = lambda y, z: cost(0.0, y, z)
        dense = minimize_over_targets(cand.psi, kost, x, x)
        fast = impulse._intervention_operator(problem, cand, x)
        np.testing.assert_array_equal(fast[0], dense[0])
        np.testing.assert_array_equal(fast[1], dense[1])
    assert n_picks > 30_000


def test_affine_operator_on_other_targets_equals_dense_search():
    # targets that are not the points: the points come unsorted and some
    # lie beyond the targets, and a third of the cases are dyadic, their
    # targets a subset of the nodes, so that many objectives tie exactly.
    # The envelope's picks must be the dense tie rule's, and the operator
    # over these targets must refine to the dense search's values and targets.
    rng = np.random.default_rng(2027)
    n_picks = n_outside = 0
    for case in range(300):
        n = int(rng.integers(8, 121))
        if case % 3 == 0:
            x = np.cumsum(rng.integers(1, 3, n)) * 0.25 - 0.125 * n
            values = rng.integers(0, 5, n) * 0.5
            targets = x[np.sort(rng.choice(n, int(rng.integers(1, n + 1)), replace=False))]
            points = rng.integers(-8, 9, 2 * n) * 0.125 + rng.choice(x, 2 * n)
            cost = AffineInterventionCost(float(rng.integers(1, 4)) * 0.5,
                                          float(rng.integers(0, 5)) * 0.25, 1.0)
        else:
            x = np.sort(rng.uniform(-4.0, 4.0, n))
            while np.any(np.diff(x) <= 0):
                x = np.sort(rng.uniform(-4.0, 4.0, n))
            values = x**2 + rng.uniform(0.0, 1.0, n)
            lo, hi = np.sort(rng.uniform(-5.0, 5.0, 2))
            targets = np.unique(rng.uniform(lo, hi, int(rng.integers(1, 2 * n))))
            points = rng.uniform(-6.0, 6.0, 2 * n)
            cost = AffineInterventionCost(rng.uniform(0.05, 2.0), rng.uniform(0.0, 1.5),
                                          rng.uniform(0.1, 2.0))
        cand = CandidateValue(x, values, discount=cost.discount)
        problem = quiet_problem(intervention_cost=cost, discount=cost.discount,
                                min_intervention_cost=cost.fixed)
        target_values = cand.psi(targets)
        for where in (points, x):
            _, pick = impulse._affine_envelope(target_values, targets, where,
                                               cost.fixed, cost.proportional)
            np.testing.assert_array_equal(pick, _dense_coarse_pick(target_values, cost,
                                                                   targets, where))
            n_picks += pick.size
            n_outside += np.count_nonzero((where < targets[0]) | (where > targets[-1]))
        kost = lambda y, z: cost(0.0, y, z)
        dense = minimize_over_targets(cand.psi, kost, x, targets)
        fast = impulse._intervention_operator(problem, cand, targets)
        np.testing.assert_array_equal(fast[0], dense[0])
        np.testing.assert_array_equal(fast[1], dense[1])
    assert n_picks > 40_000 and n_outside > 5_000
    # the documented difference: at point 2 the objectives at targets 0 and 1
    # are 2 and 2 + 2**-50, inside the dense rule's 1e-12 tolerance but not
    # equal, so the dense search takes the smaller impulse (target 1) and the
    # envelope the smaller objective (target 0)
    targets = np.array([0.0, 1.0, 2.0])
    values = np.array([0.0, 0.5 + 2.0**-50, 10.0])
    point = np.array([2.0])
    _, pick = impulse._affine_envelope(values, targets, point, 1.0, 0.5)
    assert pick.tolist() == [0]
    assert _dense_coarse_pick(values, AffineInterventionCost(1.0, 0.5, 1.0),
                              targets, point).tolist() == [1]


def test_affine_operator_rejects_bad_input():
    x = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ParameterError):
        impulse._affine_envelope(x[:4], x, x, 1.0, 0.3)
    with pytest.raises(ParameterError):
        impulse._affine_envelope(x, x, x, 1.0, -0.3)
    with pytest.raises(ParameterError, match="strictly increasing"):
        impulse._affine_envelope(x, x[::-1], x, 1.0, 0.3)
    with pytest.raises(ParameterError, match="strictly increasing"):
        impulse._affine_envelope(x, np.array([0.0, 0.25, 0.25, 0.5, 1.0]), x, 1.0, 0.3)
    with pytest.raises(ParameterError, match="strictly increasing"):
        impulse._affine_envelope(x, np.array([0.0, 0.25, np.nan, 0.5, 1.0]), x, 1.0, 0.3)
    with pytest.raises(ParameterError, match="target values"):
        impulse._affine_envelope(x[:, None], x, x, 1.0, 0.3)
    with pytest.raises(ParameterError, match="target values"):
        impulse._affine_envelope(np.empty(0), np.empty(0), x, 1.0, 0.3)
    with pytest.raises(ParameterError, match="points"):
        impulse._affine_envelope(x, x, x[:, None], 1.0, 0.3)
    with pytest.raises(ParameterError, match="points"):
        impulse._affine_envelope(x, x, 0.5, 1.0, 0.3)
    with pytest.raises(ParameterError, match="nonnegative"):
        impulse._affine_envelope(x, x, np.array([2.0, -1.0]), 1.0, -0.3)


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


def _cubic_spline_oracle(cand):
    """psi, psi_prime and the end slopes as scipy's CubicSpline gives them."""
    from scipy.interpolate import CubicSpline  # the oracle only; the library never loads it

    x = cand.x
    spline = CubicSpline(x, cand.values)
    deriv = spline.derivative()
    slope_lo, slope_hi = float(deriv(x[0])), float(deriv(x[-1]))

    def psi(xq):
        out = spline(np.clip(xq, x[0], x[-1]))
        out = out + np.where(xq < x[0], (xq - x[0]) * slope_lo, 0.0)
        return out + np.where(xq > x[-1], (xq - x[-1]) * slope_hi, 0.0)

    return psi, lambda xq: deriv(np.clip(xq, x[0], x[-1])), slope_lo, slope_hi


def _assert_bit_identical_to_cubic_spline(cand, n_random, seed):
    psi, psi_prime, slope_lo, slope_hi = _cubic_spline_oracle(cand)
    x, h = cand.x, cand.step
    span = x[-1] - x[0]
    ends = np.array([x[0], x[-1], x[0] - 1e-9, x[-1] + 1e-9, x[0] - 0.3 * span,
                     x[-1] + 2.5 * span, np.nextafter(x[0], -np.inf), np.nextafter(x[-1], np.inf)])
    random = np.random.default_rng(seed).uniform(x[0], x[-1], n_random)
    assert cand._slope_lo == slope_lo and cand._slope_hi == slope_hi
    for xq in (x, 0.5 * (x[:-1] + x[1:]), random, ends):
        assert np.array_equal(cand.psi(xq), psi(xq))
        assert np.array_equal(cand.psi_prime(xq), psi_prime(xq))
        oracle_curvature = (psi(xq + h) - 2.0 * psi(xq) + psi(xq - h)) / h**2
        assert np.array_equal(cand.curvature(xq), oracle_curvature)
    for xq in ends:  # scalar queries give floats with the same bits
        assert cand.psi(float(xq)) == float(psi(xq)) and isinstance(cand.psi(float(xq)), float)
        assert cand.psi_prime(float(xq)) == float(psi_prime(xq))


def test_candidate_spline_is_cubic_spline_bit_for_bit_on_the_benchmark():
    cand = solve_benchmark_qvi(BenchmarkParams(grid_step=0.005)).candidate
    _assert_bit_identical_to_cubic_spline(cand, 100_000, seed=7)


@pytest.mark.parametrize("n", [4, 5, 7, 50, 1001])
def test_candidate_spline_is_cubic_spline_bit_for_bit_on_uneven_grids(n):
    rng = np.random.default_rng(n)
    x = np.cumsum(rng.uniform(0.05, 1.0, n)) - 3.0
    cand = CandidateValue(x=x, values=rng.uniform(0.0, 2.0, n) + x**2, discount=0.5)
    _assert_bit_identical_to_cubic_spline(cand, 10_000, seed=n)


@pytest.mark.parametrize("where", ["x", "values"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_candidate_refuses_non_finite_nodes_and_values(where, bad):
    x = np.linspace(0.0, 1.0, 10)
    values = x + 1.0
    if where == "x":  # placed where the grid still reads as increasing
        x[0 if bad < 0 else -1] = bad
    else:
        values[2] = bad
    with pytest.raises(ParameterError):
        CandidateValue(x=x, values=values)


# ---------------------------------------------------------------------------
# policy synthesis


def test_synthesize_quadratic_band(monkeypatch):
    x = np.linspace(-4.0, 4.0, 1601)
    cand = CandidateValue(x=x, values=x**2, discount=1.0)
    monkeypatch.setattr(impulse, "_REGION_TOL", 1e-6)
    policy = synthesize_policy(quiet_problem(), cand)
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


def test_synthesize_symmetric_problem_gives_odd_impulse(monkeypatch):
    x = np.linspace(-5.0, 5.0, 2001)
    cand = CandidateValue(x=x, values=0.5 * x**2 + 0.2, discount=1.0)
    monkeypatch.setattr(impulse, "_REGION_TOL", 1e-6)
    policy = synthesize_policy(quiet_problem(), cand)
    lo, hi = policy.intervals[0]
    assert lo == pytest.approx(-hi, abs=1e-9)
    for y in (2.6, 3.4, 4.1):
        assert policy.impulse(y) == pytest.approx(-policy.impulse(-y), abs=1e-6)


def _continuation_runs(inside, x):
    """Reference: the runs of ``inside`` by a plain scan."""
    intervals = []
    i = 0
    while i < x.size:
        if inside[i]:
            j = i
            while j + 1 < x.size and inside[j + 1]:
                j += 1
            intervals.append((float(x[i]), float(x[j])))
            i = j + 1
        else:
            i += 1
    return tuple(intervals)


def test_synthesize_two_wells_matches_a_plain_run_scan(monkeypatch):
    x = np.linspace(-4.0, 4.0, 801)
    cand = CandidateValue(x=x, values=0.25 * (x**2 - 4.0) ** 2, discount=1.0)
    problem = quiet_problem()
    monkeypatch.setattr(impulse, "_REGION_TOL", 1e-6)
    policy = synthesize_policy(problem, cand)
    m_vals, _ = minimize_over_targets(
        cand.psi, lambda x, z: problem.intervention_cost(0.0, x, z), x, x)
    assert len(policy.intervals) == 2
    assert policy.intervals == _continuation_runs(m_vals - cand.values > 1e-6, x)


def test_synthesize_degenerate_region():
    x = np.linspace(-1.0, 1.0, 101)
    cand = CandidateValue(x=x, values=np.full_like(x, 5.0), discount=1.0)
    problem = quiet_problem(intervention_cost=lambda t, x, z: 1e-6 + 0.0 * np.asarray(z),
                            min_intervention_cost=1e-6)
    with pytest.raises(DegeneratePolicyError):
        synthesize_policy(problem, cand)


def test_region_threshold_is_read_at_call_time(monkeypatch):
    # M phi - phi is at most 1 on this candidate: a threshold of 2 leaves no region
    x = np.linspace(-4.0, 4.0, 801)
    cand = CandidateValue(x=x, values=x**2, discount=1.0)
    assert len(synthesize_policy(quiet_problem(), cand).intervals) == 1
    monkeypatch.setattr(impulse, "_REGION_TOL", 2.0)
    with pytest.raises(DegeneratePolicyError):
        synthesize_policy(quiet_problem(), cand)


# ---------------------------------------------------------------------------
# QVI residual


@pytest.mark.parametrize("marks, excluded", [
    (symmetric_pair(0.6), 12),  # margin 0.6 + 2h = 11.6 steps
    (Uniform(-0.5, 0.8), 15),  # margin 0.8 + 2h = 14.8 steps
    (None, 2),  # margin 2h: the node two steps in is interior
])
def test_qvi_residual_margin_is_jump_reach_plus_two_steps(marks, excluded):
    # a dyadic grid, h = 1/16, puts every node and margin end exactly in binary
    x = np.linspace(-4.0, 4.0, 129)
    dynamics = JumpDiffusionSpec(drift=constant(0.0), diffusion=constant(0.5),
                                 jump_intensity=0.0 if marks is None else 0.8,
                                 mark_distribution=marks)
    cand = CandidateValue(x=x, values=x**2, discount=1.0)
    report = qvi_residual(quiet_problem(dynamics=dynamics), cand)
    expected = np.zeros(x.size, dtype=bool)
    expected[excluded:x.size - excluded] = True
    assert np.array_equal(report.interior, expected)
    defect = np.minimum(report.generator_plus_running, -report.value_minus_intervention)
    assert report.sup_norm == np.max(np.abs(defect[expected]))


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


def test_finite_horizon_decay_closed_form(stream):
    # running and terminal cost x^2 on [0, 1], undiscounted: the Euler path's
    # error in the cost is O(dt), here below x0^2 a dt
    a, x0 = 0.7, 1.5
    problem = quiet_problem(
        dynamics=JumpDiffusionSpec(drift=lambda t, x: -a * x, diffusion=constant(0.0)),
        running_cost=lambda t, x: np.asarray(x, dtype=float) ** 2,
        terminal_cost=lambda t, x: np.asarray(x, dtype=float) ** 2,
        discount=0.0, horizon=1.0,
    )
    target = x0**2 * (1 - np.exp(-2 * a)) / (2 * a) + x0**2 * np.exp(-2 * a)
    for dt in (1e-2, 1e-3):
        est = estimate_cost(problem, ImpulsePolicy.never_intervene(), x0, 4, dt, stream)
        assert est.stderr == 0.0
        assert abs(est.value - target) <= x0**2 * a * dt
        assert est.tail_bound == 0.0 and not est.horizon_warning
    # the problem's own horizon overrides the argument
    longer = estimate_cost(problem, ImpulsePolicy.never_intervene(), x0, 4, dt, stream,
                           horizon=5.0)
    assert longer.horizon == 1.0 and longer.value == est.value


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


def test_chattering_cap_counts_jump_time_impulses(stream, monkeypatch):
    problem, policy = kicked_problem(), band_policy(1.0, 0.0)
    monkeypatch.setattr(sde, "MAX_INTERVENTIONS", 3)
    with pytest.raises(ChatteringError):
        estimate_cost(problem, policy, 0.0, 4, 1e-2, stream, horizon=10.0)
    with pytest.raises(ChatteringError):
        simulate_controlled(problem, policy, 0.0, 10.0, 1e-2, stream)


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


def lane_verification(stream, **options):
    """Three policies at 300 paths each: six lanes of 256 and 44 paths."""
    candidate = CandidateValue(np.linspace(-4.0, 4.0, 9), np.ones(9))
    policy, *others = LANE_POLICIES
    alternatives = [(f"alt{j}", alt) for j, alt in enumerate(others)]
    report = verify_value(jumpy_problem(), candidate, policy, 0.3, alternatives, 300, 1e-2,
                          stream, horizon=3.0, **options)
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


def test_verify_value_ignores_workers(stream):
    # perfbench's two-worker probe still passes ``workers``; it changes nothing
    costs = lane_verification(stream)
    two = lane_verification(stream, workers=2)
    assert [cost_fields(c) for c in two] == [cost_fields(c) for c in costs]


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
    options = dict(intervention_cost=problem.intervention_cost,
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


def recorded_lanes(stream):
    problem = jumpy_problem()
    return sde._simulate_batch(problem.dynamics, 0.3, 3.0, 1e-2, kernel_lanes(stream),
                               intervention_cost=problem.intervention_cost,
                               integrand=problem.running_cost, trapezoid=True, record=True)


@pytest.mark.parametrize("chunk", [1, 200, 1000])
def test_noise_chunks_are_bit_identical(stream, monkeypatch, chunk):
    # 66 paths: 300 steps in one chunk by default, 1, 3 or 15 steps here
    whole = recorded_lanes(stream)
    monkeypatch.setattr(sde, "_NOISE_CHUNK", chunk)
    chunked = recorded_lanes(stream)
    for mine, ref in zip(chunked, whole):
        assert np.array_equal(mine.x, ref.x)
        assert np.array_equal(mine.integral, ref.integral)
        assert (mine.peak, mine.interventions, mine.jumps) == (ref.peak, ref.interventions,
                                                               ref.jumps)
        for path, ref_path in zip(mine.paths, ref.paths):
            assert np.array_equal(path.times, ref_path.times)
            assert np.array_equal(path.states, ref_path.states)
            assert np.array_equal(path.pre_states, ref_path.pre_states)
            assert (path.jumps, path.interventions) == (ref_path.jumps, ref_path.interventions)
    assert [lane.jumps > 0 for lane in whole] == [True, True, True]
    assert [lane.interventions > 0 for lane in whole] == [True, False, True]


def test_estimates_are_pinned_to_17_digits(stream):
    # the kernel's draw order and arithmetic fix these numbers; any change moves them
    est = estimate_cost(jumpy_problem(), two_interval_policy(), 0.3, 300, 1e-2, stream,
                        horizon=3.0)
    assert (est.value, est.stderr, est.peak) == \
        (5.504821393656358, 0.07388269442129668, 1.7162283248862795)
    assert (est.interventions_per_path, est.jumps_per_path) == \
        (6.303333333333334, 6.126666666666667)
    est = estimate_cost(make_benchmark_problem(BenchmarkParams()), band_policy(1.0, 0.3), 0.0,
                        300, 1e-2, stream, horizon=4.0)
    assert (est.value, est.stderr, est.peak) == \
        (0.6835424111906749, 0.029138918845329626, 1.1276520004821287)
    assert (est.interventions_per_path, est.jumps_per_path) == (2.1733333333333333, 3.19)


def test_cost_counters_match_the_recorded_path(stream):
    problem, policy = jumpy_problem(), band_policy(0.8, 0.2)
    est = estimate_cost(problem, policy, 0.5, 1, 1e-2, stream, horizon=3.0)
    path = simulate_controlled(problem, policy, 0.5, 3.0, 1e-2, stream.substream(0))
    grid = np.isin(path.times, 3.0 / 300 * np.arange(1, 301))
    assert est.jumps_per_path == len(path.jumps) > 0
    assert est.interventions_per_path == len(path.interventions) > 0
    assert est.peak == np.max(np.abs(path.pre_states[grid]))
