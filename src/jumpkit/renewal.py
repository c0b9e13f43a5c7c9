"""Renewal process simulation and limit-theorem checks.

Every estimator here pairs a Monte Carlo quantity with the analytic limit
the corresponding theorem predicts, so tests (and the command line) can
assert agreement at a stated number of standard errors.  Horizons follow
the convention that "t -> infinity" results are asserted only at the
largest of a short convergence ladder; the operations take whatever ``t``
the caller fixes.

Renewal paths come from one sampler, ``jumpkit.sde._arrival_times``, which
also draws the Poisson jump schedules (renewal sequences with exponential
gaps); only the regenerative and random-walk estimators, which draw cycles
and signed steps rather than gaps, loop on their own.

Whether interarrivals are lattice is *declared* on the
:class:`RenewalSpec`, never inferred from samples: finite samples cannot
settle the question.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DistributionError, HypothesisViolationError, ParameterError
from .mc import estimate_from_samples, replicate
from .sde import MAX_ARRIVALS, _arrival_times, _check_arrivals  # noqa: F401 (re-exported)


@dataclass
class RenewalSpec:
    """Interarrival law plus optional delay, reward and lattice structure.

    ``lattice_period`` of 0 declares a nonlattice law; a positive value c
    asserts that every interarrival is an integer multiple of c.
    """

    interarrival: object
    delay: object = None
    reward: object = None
    lattice_period: float = 0.0

    def __post_init__(self):
        mu = self.interarrival.mean
        if not np.isfinite(mu) or mu <= 0:
            raise ParameterError(f"interarrival mean must be positive, got {mu}")
        if self.delay is not None and not np.isfinite(self.delay.mean):
            raise ParameterError("delay distribution must have finite mean")
        if self.lattice_period < 0:
            raise ParameterError("lattice period must be nonnegative")
        if self.lattice_period > 0 and hasattr(self.interarrival, "values"):
            mult = self.interarrival.values / self.lattice_period
            if np.max(np.abs(mult - np.round(mult))) > 1e-9:
                raise ParameterError(
                    "declared lattice support must be integer multiples of the period"
                )

    @property
    def mean(self):
        return self.interarrival.mean


@dataclass
class RegenerativeSpec:
    """Cycle sampler for a regenerative process over a finite state set.

    ``sample_cycles(gen, size)`` must return ``(lengths, occupations)``
    where ``occupations`` has one row per cycle and one column per state,
    rows summing to the corresponding length.  ``mean_occupations`` holds
    the exact per-state expected occupation times used for analytic
    limits.
    """

    n_states: int
    sample_cycles: callable
    mean_occupations: np.ndarray = None

    def limit_fraction(self, state):
        if self.mean_occupations is None:
            raise ParameterError("mean occupation times are required for the analytic limit")
        m = np.asarray(self.mean_occupations, dtype=float)
        return float(m[state] / m.sum())


def simulate_renewal(spec, horizon, stream):
    """Arrival times of one renewal path on ``(0, horizon]``.

    The first gap is drawn from the delay law when one is declared, all
    later gaps from the interarrival law.
    """
    if horizon <= 0:
        raise ParameterError(f"horizon must be positive, got {horizon}")
    gen = stream.generator
    if spec.delay is None:
        return _arrival_times(gen, spec.interarrival, horizon)[:-1]
    first = float(np.asarray(spec.delay.sample(gen, 1), dtype=float)[0])
    if not first > 0:
        raise DistributionError("delay sampler produced a delay that is not positive")
    if first > horizon:
        return np.empty(0)
    return np.append(first, _arrival_times(gen, spec.interarrival, horizon, first)[:-1])


def estimate_mean_process(spec, t, n_paths, stream):
    """Monte Carlo estimate of m(t) = E[N(t)]."""
    if t <= 0:
        raise ParameterError("t must be positive")

    def _one(sub, _i):
        return simulate_renewal(spec, t, sub).size

    return estimate_from_samples(replicate(_one, n_paths, stream))


def _arrivals_and_rewards(spec, horizon, sub):
    arrivals = simulate_renewal(spec, horizon, sub)
    rewards = np.asarray(spec.reward.sample(sub.generator, arrivals.size), dtype=float)
    return arrivals, rewards


def blackwell_check(spec, t, a, mode, n_paths, stream):
    """Estimate a stationary-increment quantity and pair it with its limit.

    mode:
      * ``nonlattice``  -- E[N(t+a) - N(t)], limit a / mu
      * ``lattice``     -- E[number of renewals exactly at the epoch
                           nearest t on the declared lattice], limit c / mu
      * ``reward``      -- E[reward earned in (t, t+a]], limit a E[R] / mu
      * ``random_walk`` -- E[visits of the walk to (t, t+a]] where steps
                           follow the interarrival law (mean must be
                           positive, sign-unrestricted), limit a / mu

    ``lattice`` and ``random_walk`` draw undelayed paths, so they raise
    :class:`HypothesisViolationError` on a spec that declares a delay.
    """
    if a <= 0:
        raise ParameterError("a must be positive")
    if mode in ("lattice", "random_walk") and spec.delay is not None:
        raise HypothesisViolationError(f"{mode} mode draws undelayed paths; drop the delay")
    mu = spec.mean
    _check_arrivals(t + a, mu)

    if mode == "nonlattice":
        if spec.lattice_period > 0:
            raise HypothesisViolationError("nonlattice mode on a declared lattice law")

        def _one(sub, _i):
            arr = simulate_renewal(spec, t + a, sub)
            return np.count_nonzero((arr > t) & (arr <= t + a))

        limit = a / mu

    elif mode == "lattice":
        c = spec.lattice_period
        if c <= 0:
            raise HypothesisViolationError("lattice mode requires a declared period")
        n_epoch = max(1, int(round(t / c)))

        def _one(sub, _i):
            units = _arrival_times(sub.generator, spec.interarrival, n_epoch * c) / c
            epochs = np.rint(units)
            if np.abs(units - epochs).max() > 1e-9 * units[-1]:
                raise DistributionError("lattice sampler produced an off-lattice gap")
            return np.count_nonzero(epochs == n_epoch)

        limit = c / mu

    elif mode == "reward":
        if spec.reward is None:
            raise HypothesisViolationError("reward mode requires a reward distribution")

        def _one(sub, _i):
            arrivals, rewards = _arrivals_and_rewards(spec, t + a, sub)
            window = (arrivals > t) & (arrivals <= t + a)
            return rewards[window].sum()

        limit = a * spec.reward.mean / mu

    elif mode == "random_walk":
        if mu <= 0:
            raise HypothesisViolationError("random-walk mode requires positive step mean")
        hi = t + a

        def _one(sub, _i):
            gen = sub.generator
            visits = 0
            s = 0.0
            above = 0
            bound = hi + 20.0 * mu
            while above < 50:
                steps = np.asarray(spec.interarrival.sample(gen, 256), dtype=float)
                pos = s + np.cumsum(steps)
                if not np.isfinite(pos[-1]):  # NaN is never over the bound: the walk would not end
                    raise DistributionError("random-walk step sampler produced a step that is "
                                            "not finite")
                visits += np.count_nonzero((pos > t) & (pos <= hi))
                # the run of positions over the bound at the end of the walk so far
                below = np.flatnonzero(~(pos > bound))
                above = above + pos.size if below.size == 0 else pos.size - 1 - below[-1]
                s = pos[-1]
            return visits

        limit = a / mu

    else:
        raise ParameterError(f"unknown blackwell mode: {mode!r}")

    est = estimate_from_samples(replicate(_one, n_paths, stream))
    return est, float(limit)


def wald_check(spec, t, n_paths, stream):
    """Both sides of the stopped-sum identity at the stopping time N(t) + 1.

    Returns estimates of E[sum of the first N(t)+1 gaps] and of
    E[N(t)+1] * mu; the identity says they agree.  The paths are
    undelayed, so a spec that declares a delay raises
    :class:`HypothesisViolationError`.
    """
    if t <= 0:
        raise ParameterError("t must be positive")
    if spec.delay is not None:
        raise HypothesisViolationError("wald_check draws undelayed paths; drop the delay")
    mu = spec.mean

    def _one(sub, _i):
        times = _arrival_times(sub.generator, spec.interarrival, t)
        return (times[-1], times.size * mu)

    pairs = replicate(_one, n_paths, stream)
    return estimate_from_samples(pairs[:, 0]), estimate_from_samples(pairs[:, 1])


def reward_rate_check(spec, t, n_paths, stream):
    """Estimate of R(t)/t with the long-run limit E[R] / mu."""
    if spec.reward is None:
        raise HypothesisViolationError("reward_rate_check requires a reward distribution")
    if t <= 0:
        raise ParameterError("t must be positive")

    def _one(sub, _i):
        _, rewards = _arrivals_and_rewards(spec, t, sub)
        return rewards.sum() / t

    est = estimate_from_samples(replicate(_one, n_paths, stream))
    return est, float(spec.reward.mean / spec.mean)


def delayed_renewal_stats(spec, t, n_paths, stream):
    """Mean count and age of a delayed renewal process at time t.

    Returns ``(mean_process, age, age_limit)`` where the age limit is
    E[A^2] / (2 E[A]) for the post-delay interarrival law.  Requires a
    declared delay, a nonlattice interarrival law and a finite second
    moment.
    """
    if spec.delay is None:
        raise HypothesisViolationError("delayed_renewal_stats requires a delay distribution")
    if spec.lattice_period > 0:
        raise HypothesisViolationError("age limit requires a nonlattice interarrival law")
    m2 = spec.interarrival.second_moment
    if m2 is None or not np.isfinite(m2):
        raise HypothesisViolationError("age limit requires a finite second moment")

    def _one(sub, _i):
        arrivals = simulate_renewal(spec, t, sub)
        last = arrivals[-1] if arrivals.size else 0.0
        return (arrivals.size, t - last)

    pairs = replicate(_one, n_paths, stream)
    age_limit = m2 / (2.0 * spec.mean)
    return (
        estimate_from_samples(pairs[:, 0]),
        estimate_from_samples(pairs[:, 1]),
        float(age_limit),
    )


def regenerative_occupancy(spec, state, horizon, n_paths, stream):
    """Long-run fraction of time a regenerative process spends in ``state``.

    The cycle straddling the horizon is included whole; the resulting bias
    vanishes as horizon / E[cycle] grows.  Returns the empirical fraction
    and the occupation-ratio limit.
    """
    if not 0 <= state < spec.n_states:
        raise ParameterError(f"state {state} outside range(0, {spec.n_states})")
    if horizon <= 0:
        raise ParameterError("horizon must be positive")
    limit = spec.limit_fraction(state)
    mean_cycle = float(np.sum(spec.mean_occupations))
    _check_arrivals(horizon, mean_cycle)

    def _one(sub, _i):
        gen = sub.generator
        total = 0.0
        in_state = 0.0
        while total < horizon:
            want = max(8, int(1.2 * (horizon - total) / mean_cycle) + 1)
            lengths, occ = spec.sample_cycles(gen, want)
            lengths = np.asarray(lengths, dtype=float)
            occ = np.asarray(occ, dtype=float)
            if np.any(lengths <= 0):
                raise DistributionError("regenerative cycle of non-positive length")
            if np.max(np.abs(occ.sum(axis=1) - lengths)) > 1e-9 * max(1.0, lengths.max()):
                raise DistributionError("occupation times must sum to the cycle length")
            cum = total + np.cumsum(lengths)
            take = np.searchsorted(cum, horizon, side="left") + 1
            take = min(take, lengths.size)
            total = cum[take - 1]
            in_state += occ[:take, state].sum()
        return in_state / total

    est = estimate_from_samples(replicate(_one, n_paths, stream))
    return est, limit
