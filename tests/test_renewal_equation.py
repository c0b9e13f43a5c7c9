import numpy as np
import pytest

from jumpkit import (
    Exponential,
    RenewalSpec,
    Uniform,
    last_renewal_cdf,
    simulate_renewal,
    solve_renewal_equation,
)
from jumpkit.errors import ParameterError


def test_zero_function_gives_zero():
    sol = solve_renewal_equation(Exponential(1.0).cdf, lambda s: np.zeros_like(s), 20.0, 0.01)
    assert sol.convolution_value == 0.0
    assert sol.limit_value == 0.0


def test_exponential_mean_process_is_linear():
    lam = 1.5
    sol = solve_renewal_equation(Exponential(lam).cdf, lambda s: np.exp(-s), 30.0, 0.005)
    # m(t) = lam * t for the memoryless law
    assert np.max(np.abs(sol.mean_values - lam * sol.times)) < 5e-3
    # convolution -> lam * integral of f
    assert sol.convolution_value == pytest.approx(lam, rel=1e-2)
    assert sol.limit_value == pytest.approx(lam, rel=1e-3)


def test_uniform_interarrivals_limit_two():
    sol = solve_renewal_equation(Uniform(0.0, 1.0).cdf, lambda s: np.exp(-s), 50.0, 1e-3)
    assert sol.limit_value == pytest.approx(2.0, rel=1e-3)
    assert abs(sol.convolution_value - 2.0) < 0.02
    # early mean process for U(0,1): m(t) = e^t - 1 on [0, 1]
    window = sol.times <= 1.0
    assert np.max(np.abs(sol.mean_values[window] - (np.exp(sol.times[window]) - 1))) < 2e-3


def test_step_halving_consistency():
    coarse = solve_renewal_equation(Uniform(0.0, 1.0).cdf, lambda s: np.exp(-s), 30.0, 4e-3)
    fine = solve_renewal_equation(Uniform(0.0, 1.0).cdf, lambda s: np.exp(-s), 30.0, 2e-3)
    # first-order scheme: halving the step should change the value by
    # less than the coarse-level error bound constant
    coarse_err = abs(coarse.convolution_value - 2.0)
    assert abs(fine.convolution_value - coarse.convolution_value) <= max(coarse_err, 1e-4)


def test_last_renewal_cdf_total_probability():
    assert last_renewal_cdf(Uniform(0.0, 1.0).cdf, 10.0, 10.0, 1e-3) == pytest.approx(
        1.0, abs=1e-3
    )


def test_last_renewal_cdf_exponential_closed_form():
    lam, t = 1.3, 6.0
    for s in (0.0, 1.5, 3.0, 5.0, 6.0):
        value = last_renewal_cdf(Exponential(lam).cdf, t, s, 1e-3)
        assert value == pytest.approx(np.exp(-lam * (t - s)), abs=1e-3)


def test_last_renewal_cdf_monotone_and_bounded():
    grid = np.linspace(0.0, 8.0, 17)
    vals = [last_renewal_cdf(Uniform(0.0, 1.0).cdf, 8.0, s, 2e-3) for s in grid]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(-1e-12 <= v <= 1 + 1e-3 for v in vals)


def test_last_renewal_cdf_matches_simulation(stream):
    t, s, dist = 5.0, 3.5, Uniform(0.0, 1.0)
    value = last_renewal_cdf(dist.cdf, t, s, 1e-3)
    spec = RenewalSpec(interarrival=dist)
    hits = []
    for i in range(4000):
        arrivals = simulate_renewal(spec, t, stream.substream(i))
        last = arrivals[-1] if arrivals.size else 0.0
        hits.append(last <= s)
    p_hat = np.mean(hits)
    se = np.sqrt(p_hat * (1 - p_hat) / len(hits))
    assert abs(p_hat - value) <= 3 * se + 1e-3


def test_invalid_window_rejected():
    with pytest.raises(ParameterError):
        last_renewal_cdf(Exponential(1.0).cdf, 5.0, 6.0, 1e-2)
    with pytest.raises(ParameterError):
        solve_renewal_equation(Exponential(1.0).cdf, lambda s: np.exp(-s), 10.0, -0.1)


def test_oversized_or_degenerate_grid_refused():
    with pytest.raises(ParameterError, match="MAX_NODES"):
        solve_renewal_equation(Exponential(1.0).cdf, np.exp, 1e12, 1e-3)
    with pytest.raises(ParameterError, match="delta must be positive"):
        last_renewal_cdf(Exponential(1.0).cdf, 1.0, 0.5, 0.0)
    with pytest.raises(ParameterError, match="MAX_NODES"):
        solve_renewal_equation(Exponential(1.0).cdf, np.exp, np.nan, 0.01)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_f_not_finite_on_the_grid_refused(value):
    with pytest.raises(ParameterError, match="finite"):
        solve_renewal_equation(Exponential(1.0).cdf,
                               lambda s: np.where(s > 1.0, value, np.exp(-s)), 10.0, 0.01)
