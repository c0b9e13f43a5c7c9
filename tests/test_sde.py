import numpy as np
import pytest

from jumpkit import (
    Discrete,
    Exponential,
    JumpDiffusionSpec,
    NumericalBlowupError,
    NumericalError,
    ParameterError,
    RenewalSpec,
    derive_stream,
    sample_jump_times,
    simulate_jump_diffusion,
    simulate_renewal,
    symmetric_pair,
)
from jumpkit import sde


def constant(v):
    return lambda t, x: v * np.ones_like(np.asarray(x, dtype=float))


def test_sample_jump_times_zero_intensity(stream):
    times, marks = sample_jump_times(stream, 0.0, None, 10.0)
    assert times.size == 0 and marks.size == 0


def test_sample_jump_times_rate(stream):
    lam, horizon = 2.0, 1000.0
    times, _ = sample_jump_times(stream, lam, symmetric_pair(1.0), horizon)
    rate = times.size / horizon
    se = np.sqrt(lam / horizon)
    assert abs(rate - lam) <= 3 * se
    assert np.all(np.diff(times) > 0) and times[-1] <= horizon


def test_sample_jump_times_mark_mean(stream):
    times, marks = sample_jump_times(stream, 1.0, symmetric_pair(1.0), 10_000.0)
    se = 1.0 / np.sqrt(marks.size)
    assert abs(marks.mean()) <= 3 * se


def test_sample_jump_times_bad_params(stream):
    with pytest.raises(ParameterError):
        sample_jump_times(stream, -1.0, None, 1.0)
    with pytest.raises(ParameterError):
        sample_jump_times(stream, 1.0, symmetric_pair(1.0), -2.0)


def test_sample_jump_times_refuses_oversized_schedule(stream):
    # 1e15 expected jumps would be drawn in one chunk; refuse before drawing
    with pytest.raises(ParameterError, match="MAX_ARRIVALS"):
        sample_jump_times(stream, 1e15, symmetric_pair(1.0), 1.0)


@pytest.mark.parametrize("lam, horizon", [(0.8, 12.0), (2.5, 1.0), (1.0, 100.0)])
def test_jump_times_are_a_poisson_renewal_path(lam, horizon):
    # the jump schedule is the renewal sequence of Exponential(lam) gaps
    times, _ = sample_jump_times(derive_stream(31, 0), lam, symmetric_pair(1.0), horizon)
    arrivals = simulate_renewal(RenewalSpec(Exponential(lam)), horizon, derive_stream(31, 0))
    assert np.array_equal(times, arrivals)


def test_constant_path(stream):
    spec = JumpDiffusionSpec(drift=constant(0.0), diffusion=constant(0.0))
    path = simulate_jump_diffusion(spec, 3.0, 1.0, 0.01, stream)
    assert np.all(path.states == 3.0)
    path.validate()


def test_pure_counting_process(stream):
    spec = JumpDiffusionSpec(
        drift=constant(0.0),
        diffusion=constant(0.0),
        jump_intensity=1.0,
        mark_distribution=Discrete([1.0], [1.0]),
        compensated=False,
    )
    path = simulate_jump_diffusion(spec, 0.0, 50.0, 0.1, stream)
    assert path.final_state == len(path.jumps)
    path.validate()


@pytest.mark.parametrize("dt", [1e-3, 1e-4])
def test_deterministic_decay_matches_ode(stream, dt):
    spec = JumpDiffusionSpec(drift=lambda t, x: -x, diffusion=constant(0.0))
    path = simulate_jump_diffusion(spec, 1.0, 1.0, dt, stream)
    assert abs(path.final_state - np.exp(-1.0)) < 2.0 * dt


def test_compensated_equals_shifted_drift(stream):
    marks = Discrete([0.5, 1.5], [0.5, 0.5])
    lam = 2.0
    comp = lam * marks.mean

    def drift(t, x):
        return -0.3 * x

    spec_comp = JumpDiffusionSpec(
        drift=drift, diffusion=constant(0.2),
        jump_intensity=lam, mark_distribution=marks, compensated=True,
    )
    spec_plain = JumpDiffusionSpec(
        drift=lambda t, x: drift(t, x) - comp, diffusion=constant(0.2),
        jump_intensity=lam, mark_distribution=marks, compensated=False,
    )
    from jumpkit import derive_stream

    p1 = simulate_jump_diffusion(spec_comp, 1.0, 2.0, 1e-3, derive_stream(77, 0))
    p2 = simulate_jump_diffusion(spec_plain, 1.0, 2.0, 1e-3, derive_stream(77, 0))
    assert np.array_equal(p1.times, p2.times)
    assert np.array_equal(p1.states, p2.states)


def test_jump_times_on_grid(stream):
    spec = JumpDiffusionSpec(
        drift=constant(0.0), diffusion=constant(0.1),
        jump_intensity=5.0, mark_distribution=symmetric_pair(0.3), compensated=False,
    )
    path = simulate_jump_diffusion(spec, 0.0, 2.0, 0.05, stream)
    path.validate()
    for rec in path.jumps:
        assert path.times[rec.index] == rec.time
        # applied size recorded at the node
        assert abs(path.states[rec.index] - path.pre_states[rec.index] - rec.size) < 1e-12


def test_jumps_at_a_grid_node_add_no_node(stream, monkeypatch):
    # two jumps at the grid node 0.5 and one at 0.75: the zero-length steps
    # they leave (a second jump at the same time, an empty tail to the step
    # end) record no node, and every jump acts on the node at its time
    import jumpkit.sde as sde

    monkeypatch.setattr(sde, "_sample_jump_schedule",
                        lambda gen, law, marks, horizon: (np.array([0.5, 0.5, 0.75]),
                                                          np.ones(3)))
    spec = JumpDiffusionSpec(
        drift=lambda t, x: -x, diffusion=constant(0.0),
        jump_intensity=1.0, mark_distribution=Discrete([1.0], [1.0]), compensated=False,
    )
    path = simulate_jump_diffusion(spec, 1.0, 1.0, 0.25, stream)
    path.validate()
    assert path.times.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert path.pre_states.tolist() == [1.0, 0.75, 0.5625, 1.921875, 2.19140625]
    assert path.states.tolist() == [1.0, 0.75, 2.5625, 2.921875, 2.19140625]
    assert [(rec.index, rec.time) for rec in path.jumps] == [(2, 0.5), (2, 0.5), (3, 0.75)]


def test_validate_raises_on_a_corrupted_state(stream):
    # a check that raises, not an assert, so it holds under python -O too
    spec = JumpDiffusionSpec(
        drift=constant(0.0), diffusion=constant(0.1),
        jump_intensity=5.0, mark_distribution=symmetric_pair(0.3), compensated=False,
    )
    path = simulate_jump_diffusion(spec, 0.0, 2.0, 0.05, stream)
    path.validate()
    path.states[path.jumps[0].index] += 0.3
    with pytest.raises(NumericalError, match="left limit"):
        path.validate()


def test_blowup_raises(stream):
    spec = JumpDiffusionSpec(drift=lambda t, x: x**3, diffusion=constant(0.0))
    with pytest.raises(NumericalBlowupError) as info:
        simulate_jump_diffusion(spec, 10.0, 5.0, 0.05, stream)
    assert info.value.time is not None


def test_determinism_across_reruns():
    from jumpkit import derive_stream

    spec = JumpDiffusionSpec(
        drift=lambda t, x: -x, diffusion=constant(0.5),
        jump_intensity=1.0, mark_distribution=symmetric_pair(0.5), compensated=True,
    )
    a = simulate_jump_diffusion(spec, 0.5, 1.0, 1e-3, derive_stream(3, 9))
    b = simulate_jump_diffusion(spec, 0.5, 1.0, 1e-3, derive_stream(3, 9))
    assert np.array_equal(a.states, b.states)
    assert [(r.index, r.mark) for r in a.jumps] == [(r.index, r.mark) for r in b.jumps]


@pytest.mark.parametrize("xs", [[0.2, 0.4], [0.2, 0.4, -1.3]])
def test_state_dependent_compensator_on_batches(xs):
    spec = JumpDiffusionSpec(
        drift=constant(0.0), diffusion=constant(0.0),
        jump_intensity=1.0, mark_distribution=Discrete([0.5, 1.5], [0.5, 0.5]),
        jump_coefficient=lambda t, x, z: x * z, compensated=True,
    )
    xs = np.array(xs)
    batched = spec.compensator(0.0, xs)
    scalars = [spec.compensator(0.0, float(x)) for x in xs]
    assert batched.shape == xs.shape
    assert np.allclose(batched, xs, rtol=0, atol=1e-15)
    assert np.array_equal(batched, scalars)
    assert np.array_equal(spec.effective_drift(0.0, xs), -batched)


# dx = a x dt with no noise and no jumps: every path is the Euler
# recursion x_{k+1} = (1 + a h) x_k, so both integral rules have exact sums
def _euler_integrals(trapezoid, stream):
    spec = JumpDiffusionSpec(drift=lambda t, x: -0.8 * x, diffusion=constant(0.0))
    lane, = sde._simulate_batch(spec, 1.5, 1.0, 0.01, [(stream.generator, 2, None)],
                                integrand=lambda t, x: x, trapezoid=trapezoid, record=True)
    return lane


def test_left_point_integral_is_h_times_the_left_states(stream):
    lane = _euler_integrals(False, stream)
    xs = lane.paths[0].states
    assert xs.size == 101 and lane.jumps == 0
    assert lane.integral == pytest.approx([0.01 * xs[:-1].sum()] * 2, rel=1e-14)


def test_trapezoid_integral_averages_both_step_ends(stream):
    lane = _euler_integrals(True, stream)
    xs = lane.paths[0].states
    assert lane.integral == pytest.approx([0.005 * (xs[:-1] + xs[1:]).sum()] * 2, rel=1e-14)
    assert lane.integral[0] != pytest.approx(0.01 * xs[:-1].sum(), rel=1e-6)
