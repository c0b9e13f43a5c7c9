"""Tour of the renewal limit theorems.

Each block estimates a long-run quantity by Monte Carlo and prints it
next to the analytic limit the theory predicts.  Horizons follow a short
convergence ladder so you can watch the estimates settle.
"""

import numpy as np

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
    wald_check,
)

root = derive_stream(7, 0)
N = 4000

print("=== time-average renewal rate: m(t)/t -> 1/mu ===")
for i, (dist, label, mu) in enumerate([
    (Exponential(2.0), "exponential(rate 2)", 0.5),
    (Uniform(0.0, 1.0), "uniform(0, 1)", 0.5),
    (Deterministic(1.0), "deterministic(1)", 1.0),
]):
    spec = RenewalSpec(interarrival=dist)
    for k, t in enumerate((5.0, 25.0, 100.0)):
        est = estimate_mean_process(spec, t, N, root.substream(10 * i + k))
        print(f"  {label:22s} t={t:6.1f}  m(t)/t = {est.value / t:.4f}"
              f"  (limit {1 / mu:.4f})")

print()
print("=== stationary increments: m(t+a) - m(t) -> a/mu ===")
spec = RenewalSpec(interarrival=Uniform(0.0, 1.0))
for k, t in enumerate((5.0, 25.0, 50.0)):
    est, limit = blackwell_check(spec, t, 2.0, "nonlattice", N, root.substream(100 + k))
    print(f"  t={t:5.1f}  increment = {est.value:.4f} +- {est.stderr:.4f}  (limit {limit})")

print()
print("=== lattice epochs: expected renewals at the n-th epoch -> c/mu ===")
spec = RenewalSpec(interarrival=Discrete([1.0, 2.0], [0.5, 0.5]), lattice_period=1.0)
est, limit = blackwell_check(spec, 40.0, 1.0, "lattice", N, root.substream(200))
print(f"  estimate = {est.value:.4f} +- {est.stderr:.4f}  (limit {limit:.4f})")

print()
print("=== reward flow through a window -> a E[R]/mu ===")
spec = RenewalSpec(interarrival=Exponential(1.0), reward=Discrete([3.0], [1.0]))
est, limit = blackwell_check(spec, 50.0, 1.0, "reward", N, root.substream(300))
print(f"  estimate = {est.value:.4f} +- {est.stderr:.4f}  (limit {limit})")

print()
print("=== random-walk visits to (t, t+a] -> a/mu ===")
spec = RenewalSpec(interarrival=Uniform(0.5, 1.5))
est, limit = blackwell_check(spec, 100.0, 1.0, "random_walk", 2000, root.substream(400))
print(f"  estimate = {est.value:.4f} +- {est.stderr:.4f}  (limit {limit})")

print()
print("=== stopped-sum identity at N(t) + 1 ===")
lhs, rhs = wald_check(RenewalSpec(interarrival=Exponential(1.0)), 10.0, N,
                      root.substream(500))
print(f"  E[sum gaps] = {lhs.value:.4f} +- {lhs.stderr:.4f}")
print(f"  E[count] mu = {rhs.value:.4f} +- {rhs.stderr:.4f}   (memoryless: both near 11)")

print()
print("=== reward rate R(t)/t -> E[R]/mu ===")
spec = RenewalSpec(interarrival=Exponential(2.0), reward=bernoulli(0.5))
est, limit = reward_rate_check(spec, 200.0, N, root.substream(600))
print(f"  estimate = {est.value:.4f} +- {est.stderr:.4f}  (limit {limit})")

print()
print("=== age of a delayed process -> E[A^2] / (2 E[A]) ===")
spec = RenewalSpec(interarrival=Uniform(0.0, 1.0), delay=Uniform(0.0, 1.0))
_, age, limit = delayed_renewal_stats(spec, 50.0, N, root.substream(700))
print(f"  age = {age.value:.4f} +- {age.stderr:.4f}  (limit {limit:.4f})")

print()
print("=== regenerative occupancy -> E[A_i] / E[A] ===")
rates = np.array([1.0, 2.0])


def sample_cycles(gen, size):
    occ = np.column_stack([gen.exponential(1.0 / r, size=size) for r in rates])
    return occ.sum(axis=1), occ


spec = RegenerativeSpec(n_states=2, sample_cycles=sample_cycles,
                        mean_occupations=1.0 / rates)
est, limit = regenerative_occupancy(spec, 1, 10_000.0, 400, root.substream(800))
print(f"  fraction in state 1 = {est.value:.4f} +- {est.stderr:.4f}  (limit {limit:.4f})")
