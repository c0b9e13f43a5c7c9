import numpy as np
import pytest

from jumpkit import (
    Discrete,
    JumpDiffusionSpec,
    ScalarField,
    dynkin_residual,
    generator_apply,
    ito_residual,
    simulate_jump_diffusion,
    symmetric_pair,
)
from jumpkit.errors import ParameterError


def constant(v):
    return lambda t, x: v * np.ones_like(np.asarray(x, dtype=float))


def test_generator_constant_field_is_zero(jump_ou_spec):
    field = ScalarField.from_polynomial([4.0])
    assert generator_apply(jump_ou_spec, field, 0.0, 1.3) == pytest.approx(0.0, abs=1e-12)


def test_generator_quadratic_diffusion_only():
    a, sigma = -0.7, 0.9
    spec = JumpDiffusionSpec(drift=lambda t, x: a * x, diffusion=constant(sigma))
    field = ScalarField.from_polynomial([0.0, 0.0, 1.0])
    for x in (-2.0, 0.5, 3.0):
        assert generator_apply(spec, field, 0.0, x) == pytest.approx(2 * a * x**2 + sigma**2)


def test_generator_quadratic_with_uncompensated_jumps():
    a, sigma, lam = -0.7, 0.9, 1.3
    spec = JumpDiffusionSpec(
        drift=lambda t, x: a * x, diffusion=constant(sigma),
        jump_intensity=lam, mark_distribution=symmetric_pair(1.0), compensated=False,
    )
    field = ScalarField.from_polynomial([0.0, 0.0, 1.0])
    # E[(x + Z)^2 - x^2] = E[Z^2] = 1
    assert generator_apply(spec, field, 0.0, 0.8) == pytest.approx(
        2 * a * 0.8**2 + sigma**2 + lam
    )


def test_generator_compensated_jump_term():
    lam = 2.0
    marks = Discrete([0.5, 1.5], [0.5, 0.5])
    spec = JumpDiffusionSpec(
        drift=constant(0.0), diffusion=constant(0.0),
        jump_intensity=lam, mark_distribution=marks, compensated=True,
    )
    field = ScalarField.from_polynomial([0.0, 1.0])  # F = x
    # E[(x + z) - x - 1*z] = 0 for linear F under compensation
    assert generator_apply(spec, field, 0.0, 2.0) == pytest.approx(0.0, abs=1e-14)
    quad = ScalarField.from_polynomial([0.0, 0.0, 1.0])
    # E[(x+z)^2 - x^2 - 2x z] = E[z^2] = 1.25
    assert generator_apply(spec, quad, 0.0, 2.0) == pytest.approx(lam * marks.second_moment)


def test_generator_vectorized(jump_ou_spec):
    field = ScalarField.from_polynomial([0.0, 1.0, 0.5])
    xs = np.array([-1.0, 0.0, 2.0])
    vec = generator_apply(jump_ou_spec, field, 0.0, xs)
    scalars = [generator_apply(jump_ou_spec, field, 0.0, float(x)) for x in xs]
    assert np.allclose(vec, scalars, rtol=0, atol=1e-13)


def test_ito_residual_zero_for_linear_field(jump_ou_spec, stream):
    field = ScalarField.from_polynomial([1.0, 2.0])
    path = simulate_jump_diffusion(jump_ou_spec, 0.3, 1.0, 0.01, stream)
    assert abs(ito_residual(jump_ou_spec, field, path)) < 1e-12


def test_ito_residual_zero_for_pure_jump(stream):
    spec = JumpDiffusionSpec(
        drift=constant(0.0), diffusion=constant(0.0),
        jump_intensity=3.0, mark_distribution=symmetric_pair(1.0), compensated=False,
    )
    field = ScalarField.from_polynomial([0.0, 0.0, 0.0, 1.0])
    path = simulate_jump_diffusion(spec, 0.5, 2.0, 0.05, stream)
    assert abs(ito_residual(spec, field, path)) < 1e-10


def test_ito_residual_order_deterministic(stream):
    spec = JumpDiffusionSpec(drift=lambda t, x: 0.8 * x, diffusion=constant(0.0))
    field = ScalarField.from_polynomial([0.0, 0.0, 1.0])
    residuals = []
    for dt in (1e-2, 1e-3, 1e-4):
        path = simulate_jump_diffusion(spec, 1.0, 1.0, dt, stream)
        residuals.append(abs(ito_residual(spec, field, path)))
    # deterministic dynamics: defect shrinks linearly with dt
    assert residuals[0] / residuals[1] == pytest.approx(10.0, rel=0.2)
    assert residuals[1] / residuals[2] == pytest.approx(10.0, rel=0.2)


def test_ito_residual_monotone_under_refinement(jump_ou_spec):
    from jumpkit import derive_stream

    field = ScalarField.from_polynomial([0.0, 0.3, 1.0, 0.0, 0.05])
    means = []
    for dt in (1e-2, 1e-3, 1e-4):
        vals = []
        for i in range(100):
            path = simulate_jump_diffusion(
                jump_ou_spec, 0.5, 1.0, dt, derive_stream(515, i)
            )
            vals.append(abs(ito_residual(jump_ou_spec, field, path)))
        means.append(np.mean(vals))
    assert means[0] >= means[1] >= means[2]


def test_dynkin_martingale_mean(stream):
    spec = JumpDiffusionSpec(
        drift=constant(0.0), diffusion=constant(0.3),
        jump_intensity=2.0, mark_distribution=symmetric_pair(0.4), compensated=True,
    )
    field = ScalarField.from_polynomial([0.0, 1.0])
    est = dynkin_residual(spec, field, 0.2, 1.0, 1e-2, 2000, stream)
    assert abs(est.value) <= 3 * est.stderr + 1e-9


def test_dynkin_ou_second_moment(stream):
    spec = JumpDiffusionSpec(drift=lambda t, x: -x, diffusion=constant(1.0))
    field = ScalarField.from_polynomial([0.0, 0.0, 1.0])
    dt = 1e-3
    est = dynkin_residual(spec, field, 1.0, 1.0, dt, 3000, stream)
    assert abs(est.value) <= 3 * est.stderr + 25 * dt


def test_dynkin_stderr_scaling(stream):
    spec = JumpDiffusionSpec(drift=lambda t, x: -x, diffusion=constant(1.0))
    field = ScalarField.from_polynomial([0.0, 0.0, 1.0])
    small = dynkin_residual(spec, field, 0.0, 0.5, 1e-2, 1000, stream.substream(1))
    large = dynkin_residual(spec, field, 0.0, 0.5, 1e-2, 10_000, stream.substream(2))
    assert small.stderr / large.stderr == pytest.approx(np.sqrt(10), rel=0.35)


def test_dynkin_requires_two_paths(jump_ou_spec, stream):
    field = ScalarField.from_polynomial([0.0, 1.0])
    with pytest.raises(ParameterError):
        dynkin_residual(jump_ou_spec, field, 0.0, 1.0, 1e-2, 1, stream)


def test_dynkin_residual_of_the_identity_telescopes(stream):
    # sigma = 0, lambda = 0: L x = a x, and the left-point sum h * sum(a x_k)
    # of the Euler path is exactly x_K - x_0, so only rounding is left
    spec = JumpDiffusionSpec(drift=lambda t, x: -0.8 * x, diffusion=constant(0.0))
    est = dynkin_residual(spec, ScalarField.from_polynomial([0.0, 1.0]), 1.5, 1.0, 0.01, 4,
                          stream)
    assert est.n == 4
    assert est.value == pytest.approx(0.0, abs=1e-14)
