import numpy as np
import pytest

from jumpkit import (
    Deterministic,
    Discrete,
    Exponential,
    RegenerativeSpec,
    RenewalSpec,
    Uniform,
    bernoulli,
    blackwell_check,
    delayed_renewal_stats,
    derive_stream,
    estimate_mean_process,
    regenerative_occupancy,
    reward_rate_check,
    simulate_renewal,
    wald_check,
)
from jumpkit.errors import DistributionError, HypothesisViolationError, ParameterError


def within(est, target, k=3.0, slack=0.0):
    return abs(est.value - target) <= k * est.stderr + slack


def test_simulate_deterministic_arrivals(stream):
    spec = RenewalSpec(interarrival=Deterministic(1.0))
    arrivals = simulate_renewal(spec, 10.5, stream)
    assert np.allclose(arrivals, np.arange(1, 11))


def test_simulate_poisson_rate(stream):
    spec = RenewalSpec(interarrival=Exponential(2.0))
    t = 1000.0
    counts = [simulate_renewal(spec, t, stream.substream(i)).size for i in range(50)]
    est = np.mean(counts) / t
    se = np.std(counts, ddof=1) / np.sqrt(len(counts)) / t
    assert abs(est - 2.0) <= 3 * se


def test_simulate_delay_point_mass(stream):
    spec = RenewalSpec(interarrival=Exponential(1.0), delay=Deterministic(5.0))
    arrivals = simulate_renewal(spec, 30.0, stream)
    assert arrivals[0] == 5.0


def test_simulate_rejects_nonpositive_gaps(stream):
    class Degenerate:
        mean = 1.0
        second_moment = 1.0

        def sample(self, gen, size=None):
            return np.zeros(size if size is not None else 1)

    with pytest.raises(DistributionError):
        simulate_renewal(RenewalSpec(interarrival=Degenerate()), 5.0, stream)


class FourthDrawNaN:
    """Exponential(1) gaps, except that the 4th draw is NaN."""

    mean = 1.0
    second_moment = 2.0

    def sample(self, gen, size=None):
        draws = gen.exponential(1.0, size=size)
        draws[3] = np.nan
        return draws


@pytest.mark.parametrize("mode", ["nonlattice", "random_walk"])
def test_blackwell_refuses_a_nan_draw(stream, mode):
    # a NaN position is never over the random walk's bound, so the walk must refuse it
    with pytest.raises(DistributionError):
        blackwell_check(RenewalSpec(interarrival=FourthDrawNaN()), 5.0, 1.0, mode, 4, stream)


def test_mean_process_poisson(stream):
    spec = RenewalSpec(interarrival=Exponential(2.0))
    est = estimate_mean_process(spec, 10.0, 4000, stream)
    assert within(est, 20.0)


def test_mean_process_deterministic_exact(stream):
    spec = RenewalSpec(interarrival=Deterministic(1.0))
    est = estimate_mean_process(spec, 10.5, 100, stream)
    assert est.value == 10.0 and est.stderr == 0.0


def test_mean_process_uniform_elementary_rate(stream):
    spec = RenewalSpec(interarrival=Uniform(0.0, 1.0))
    t = 100.0
    est = estimate_mean_process(spec, t, 4000, stream)
    assert abs(est.value / t - 2.0) < 0.04


@pytest.mark.parametrize("t", [1.0, 10.0, 100.0])
def test_blackwell_exponential_any_t(stream, t):
    spec = RenewalSpec(interarrival=Exponential(1.0))
    est, limit = blackwell_check(spec, t, 2.0, "nonlattice", 4000, stream)
    assert limit == 2.0
    assert within(est, limit)


def test_blackwell_uniform(stream):
    spec = RenewalSpec(interarrival=Uniform(0.0, 1.0))
    est, limit = blackwell_check(spec, 50.0, 2.0, "nonlattice", 4000, stream)
    assert limit == 4.0
    assert within(est, limit)


def test_blackwell_lattice(stream):
    spec = RenewalSpec(
        interarrival=Discrete([1.0, 2.0], [0.5, 0.5]), lattice_period=1.0
    )
    est, limit = blackwell_check(spec, 40.0, 1.0, "lattice", 4000, stream)
    assert limit == pytest.approx(1 / 1.5)
    assert within(est, limit)


def test_blackwell_reward(stream):
    spec = RenewalSpec(
        interarrival=Exponential(1.0),
        reward=Discrete([3.0], [1.0]),
    )
    est, limit = blackwell_check(spec, 50.0, 1.0, "reward", 4000, stream)
    assert limit == 3.0
    assert within(est, limit)


def test_blackwell_random_walk(stream):
    spec = RenewalSpec(interarrival=Uniform(0.5, 1.5))
    est, limit = blackwell_check(spec, 100.0, 1.0, "random_walk", 2000, stream)
    assert limit == 1.0
    assert within(est, limit)


def test_blackwell_mode_mismatch(stream):
    spec = RenewalSpec(interarrival=Exponential(1.0))
    with pytest.raises(HypothesisViolationError):
        blackwell_check(spec, 10.0, 1.0, "lattice", 10, stream)
    with pytest.raises(HypothesisViolationError):
        blackwell_check(spec, 10.0, 1.0, "reward", 10, stream)
    with pytest.raises(ParameterError):
        blackwell_check(spec, 10.0, 1.0, "frobnicate", 10, stream)


@pytest.mark.parametrize("check", [
    lambda spec, stream: blackwell_check(spec, 10.0, 1.0, "lattice", 10, stream),
    lambda spec, stream: blackwell_check(spec, 10.0, 1.0, "random_walk", 10, stream),
    lambda spec, stream: wald_check(spec, 10.0, 10, stream),
], ids=["lattice", "random_walk", "wald"])
def test_undelayed_estimators_refuse_a_declared_delay(stream, check):
    spec = RenewalSpec(interarrival=Discrete([1.0, 2.0], [0.5, 0.5]), lattice_period=1.0,
                       delay=Exponential(1.0))
    with pytest.raises(HypothesisViolationError, match="delay"):
        check(spec, stream)


def test_wald_deterministic(stream):
    spec = RenewalSpec(interarrival=Deterministic(1.0))
    lhs, rhs = wald_check(spec, 10.5, 200, stream)
    assert lhs.value == rhs.value == 11.0


def test_wald_exponential_excess(stream):
    spec = RenewalSpec(interarrival=Exponential(1.0))
    lhs, rhs = wald_check(spec, 10.0, 4000, stream)
    joint = 3 * (lhs.stderr + rhs.stderr)
    assert abs(lhs.value - rhs.value) <= joint
    # memorylessness puts both near t + 1
    assert within(lhs, 11.0)
    assert within(rhs, 11.0)


def test_reward_rate(stream):
    spec = RenewalSpec(interarrival=Exponential(2.0), reward=bernoulli(0.5))
    est, limit = reward_rate_check(spec, 200.0, 3000, stream)
    assert limit == pytest.approx(1.0)
    assert within(est, limit)


def test_reward_rate_unit_rewards_match_mean_process(stream):
    spec = RenewalSpec(interarrival=Exponential(2.0), reward=Discrete([1.0], [1.0]))
    t = 50.0
    est, _ = reward_rate_check(spec, t, 3000, stream.substream(0))
    mean_est = estimate_mean_process(spec, t, 3000, stream.substream(1))
    joint = 3 * (est.stderr + mean_est.stderr / t)
    assert abs(est.value - mean_est.value / t) <= joint


def test_reward_rate_zero_rewards(stream):
    spec = RenewalSpec(interarrival=Exponential(1.0), reward=Discrete([0.0], [1.0]))
    est, _ = reward_rate_check(spec, 20.0, 50, stream)
    assert est.value == 0.0 and est.stderr == 0.0


def test_reward_rate_requires_reward(stream):
    with pytest.raises(HypothesisViolationError):
        reward_rate_check(RenewalSpec(interarrival=Exponential(1.0)), 10.0, 10, stream)


def test_stopped_sum_identity_fixed_count(stream):
    # k gaps with a deterministic count: the stopped sum averages k * mu
    k, mu = 7, 0.5
    gen = stream.generator
    sums = gen.exponential(mu, size=(4000, k)).sum(axis=1)
    se = sums.std(ddof=1) / np.sqrt(sums.size)
    assert abs(sums.mean() - k * mu) <= 3 * se


def test_delayed_age_limit_uniform(stream):
    spec = RenewalSpec(interarrival=Uniform(0.0, 1.0), delay=Uniform(0.0, 1.0))
    mean_est, age_est, limit = delayed_renewal_stats(spec, 60.0, 4000, stream)
    assert limit == pytest.approx(1 / 3)
    assert within(age_est, limit, slack=0.01)
    assert mean_est.value > 0


def test_delayed_age_limit_exponential(stream):
    lam = 2.0
    spec = RenewalSpec(interarrival=Exponential(lam), delay=Deterministic(0.3))
    _, age_est, limit = delayed_renewal_stats(spec, 40.0, 4000, stream)
    assert limit == pytest.approx(1 / lam)
    assert within(age_est, limit, slack=0.01)


def test_delayed_same_law_matches_ordinary(stream):
    spec_delay = RenewalSpec(interarrival=Exponential(1.0), delay=Exponential(1.0))
    spec_plain = RenewalSpec(interarrival=Exponential(1.0))
    t = 30.0
    mean_d, _, _ = delayed_renewal_stats(spec_delay, t, 4000, stream.substream(0))
    mean_o = estimate_mean_process(spec_plain, t, 4000, stream.substream(1))
    assert abs(mean_d.value - mean_o.value) <= 3 * (mean_d.stderr + mean_o.stderr)


def test_delayed_requires_second_moment(stream):
    class NoSecond:
        mean = 1.0
        second_moment = None

        def sample(self, gen, size=None):
            return gen.exponential(1.0, size=size)

    spec = RenewalSpec(interarrival=NoSecond(), delay=Deterministic(1.0))
    with pytest.raises(HypothesisViolationError):
        delayed_renewal_stats(spec, 10.0, 10, stream)


def _alternating_spec(rates=(1.0, 2.0)):
    rates = np.asarray(rates, dtype=float)

    def sample_cycles(gen, size):
        occ = np.column_stack([gen.exponential(1.0 / r, size=size) for r in rates])
        return occ.sum(axis=1), occ

    return RegenerativeSpec(
        n_states=rates.size, sample_cycles=sample_cycles, mean_occupations=1.0 / rates
    )


def test_regenerative_single_state(stream):
    def sample(gen, size):
        lengths = gen.exponential(1.0, size=size)
        return lengths, lengths[:, None]

    spec = RegenerativeSpec(n_states=1, sample_cycles=sample,
                            mean_occupations=np.array([1.0]))
    est, limit = regenerative_occupancy(spec, 0, 100.0, 200, stream)
    assert limit == 1.0
    assert est.value == pytest.approx(1.0)


def test_regenerative_alternating_limit(stream):
    spec = _alternating_spec()
    est, limit = regenerative_occupancy(spec, 1, 10_000.0, 400, stream)
    assert limit == pytest.approx(1 / 3)
    assert within(est, limit, slack=1e-3)


def test_elementary_renewal_bound(stream):
    cases = [
        (Exponential(2.0), 0.5),
        (Uniform(0.0, 1.0), 0.5),
        (Deterministic(1.0), 1.0),
    ]
    t = 100.0
    for i, (dist, mu) in enumerate(cases):
        spec = RenewalSpec(interarrival=dist)
        est = estimate_mean_process(spec, t, 3000, stream.substream(i))
        bound = 3 * est.stderr / t + 2 * mu / t
        assert abs(est.value / t - 1 / mu) <= bound, dist


LATTICE = RenewalSpec(interarrival=Discrete([1.0, 2.0], [0.5, 0.5]), lattice_period=1.0)


@pytest.mark.parametrize("run", [
    lambda s: simulate_renewal(RenewalSpec(interarrival=Exponential(1.0)), 1e300, s),
    lambda s: simulate_renewal(RenewalSpec(interarrival=Exponential(1.0)), np.nan, s),
    lambda s: estimate_mean_process(RenewalSpec(interarrival=Exponential(1.0)), 1e300, 5, s),
    lambda s: wald_check(RenewalSpec(interarrival=Exponential(1.0)), 1e300, 5, s),
    lambda s: wald_check(RenewalSpec(interarrival=Exponential(1.0)), np.nan, 5, s),
    lambda s: blackwell_check(RenewalSpec(interarrival=Uniform(0.0, 2.0)), 1e300, 1.0,
                              "nonlattice", 5, s),
    lambda s: blackwell_check(LATTICE, 1e300, 1.0, "lattice", 5, s),
    lambda s: blackwell_check(RenewalSpec(interarrival=Uniform(-1.0, 3.0)), 1e300, 1.0,
                              "random_walk", 5, s),
    lambda s: regenerative_occupancy(_alternating_spec(), 0, 1e300, 5, s),
], ids=["simulate", "simulate-nan", "mean-process", "wald", "wald-nan", "blackwell-nonlattice",
        "blackwell-lattice", "blackwell-random-walk", "regenerative"])
def test_oversized_paths_refused(stream, run):
    # 1e300 / mean arrivals per path would be drawn in one chunk; refuse first
    with pytest.raises(ParameterError, match="MAX_ARRIVALS"):
        run(stream)


def test_lattice_mode_refuses_off_lattice_gaps(stream):
    # a law without declared support is only checked on its draws
    spec = RenewalSpec(interarrival=Uniform(0.5, 1.5), lattice_period=1.0)
    with pytest.raises(DistributionError, match="off-lattice"):
        blackwell_check(spec, 10.0, 1.0, "lattice", 5, stream)


# 17-digit outputs of the per-estimator arrival loops that one sampler
# replaced; the shared sampler must reproduce them bit for bit


def test_pinned_wald_check():
    lhs, rhs = wald_check(RenewalSpec(interarrival=Uniform(0.0, 1.0)), 20.0, 400,
                          derive_stream(71, 0))
    assert (lhs.value, lhs.stderr) == (20.324268848908247, 0.011582667793209489)
    assert (rhs.value, rhs.stderr) == (20.355, 0.09464317633653083)


@pytest.mark.parametrize("spec, t, stream_index, expected", [
    (LATTICE, 30.0, 72, (0.6825, 0.023304336619246597, 0.6666666666666666)),
    (RenewalSpec(interarrival=Discrete([0.1, 0.3, 0.7], [0.2, 0.5, 0.3]), lattice_period=0.1),
     5.0, 73, (0.285, 0.022598988599366248, 0.26315789473684215)),
], ids=["period-1", "period-0.1"])
def test_pinned_lattice_mode(spec, t, stream_index, expected):
    est, limit = blackwell_check(spec, t, 1.0, "lattice", 400, derive_stream(stream_index, 0))
    assert (est.value, est.stderr, limit) == expected


@pytest.mark.parametrize("law, t, stream_index, expected", [
    (Uniform(-1.0, 3.0), 20.0, 74, (0.935, 0.06614948048809016, 1.0)),
    # a wide, slowly drifting walk recrosses the bound, so where the run of
    # positions above it is counted from changes the stopping chunk
    (Uniform(-10.0, 10.4), 5.0, 76, (3.25, 0.24410126410094313, 4.999999999999996)),
], ids=["narrow", "wide"])
def test_pinned_random_walk_mode(law, t, stream_index, expected):
    est, limit = blackwell_check(RenewalSpec(interarrival=law), t, 1.0, "random_walk", 200,
                                 derive_stream(stream_index, 0))
    assert (est.value, est.stderr, limit) == expected


def test_pinned_delayed_renewal_path():
    spec = RenewalSpec(interarrival=Uniform(0.0, 2.0), delay=Exponential(0.5))
    assert simulate_renewal(spec, 6.0, derive_stream(75, 0)).tolist() == [
        1.0439865511899613, 2.018482112500988, 2.694546062274344, 3.3858530361582844,
        3.891532505658935, 4.724516252017008, 4.85196098578084]
