"""Stochastic calculus checks: generator, pathwise change-of-variable
residual, and the martingale identity for expectations along paths.

``generator_apply`` evaluates the full infinitesimal generator of a
jump diffusion, including the jump expectation term

    L F = dF/dt + f dF/dx + (sigma^2 / 2) d2F/dx2
          + lambda * E[ F(t, x + xi) - F(t, x) - 1{compensated} dF/dx xi ]

The jump integral belongs in the dt part of the dynamics whether or not
the noise is compensated; dropping it would leave the expectation identity
checked by ``dynkin_residual`` systematically biased, so it is always
included here.

Paths come from the one batched Euler kernel of :mod:`jumpkit.sde`; a path
jumping inside a grid step leaves its base-step normal unused.  Fields and
coefficients may receive an array of sub-step times in ``t``, as
``ito_residual`` passes a whole path's left grid times.  ``dynkin_residual``
hands all its blocks to the kernel as lanes of one batch.
"""

from dataclasses import dataclass

import numpy as np

from .distributions import expectation
from .errors import NumericalError, ParameterError
from .mc import estimate_from_samples, map_blocks
from .sde import _simulate_batch

_BLOCK_SIZE = 1024  # paths per block and substream; fixes the draws, not the batching


@dataclass
class ScalarField:
    """A function F(t, x) with its derivatives dF/dt, dF/dx and d2F/dx2.

    All four callables are required and must accept numpy arrays in ``x``.
    """

    value: callable
    dt: callable
    dx: callable
    dxx: callable

    @classmethod
    def from_polynomial(cls, coeffs):
        """Time-independent polynomial field from ascending coefficients."""
        c = np.asarray(coeffs, dtype=float)
        d1 = np.polynomial.polynomial.polyder(c)
        d2 = np.polynomial.polynomial.polyder(c, 2)
        pv = np.polynomial.polynomial.polyval
        return cls(
            value=lambda t, x: pv(x, c),
            dt=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
            dx=lambda t, x: pv(x, d1),
            dxx=lambda t, x: pv(x, d2),
        )


def generator_apply(spec, field, t, x):
    """Evaluate the infinitesimal generator of ``spec`` on ``field`` at (t, x).

    Works elementwise when ``x`` is an array.  The jump expectation is an
    exact sum for discrete mark laws and a fixed 64-node quadrature for
    continuous ones; a non-finite quadrature result raises
    :class:`NumericalError`.
    """
    x = np.asarray(x, dtype=float)
    out = np.asarray(
        field.dt(t, x)
        + spec.drift(t, x) * field.dx(t, x)
        + 0.5 * np.asarray(spec.diffusion(t, x)) ** 2 * field.dxx(t, x),
        dtype=float,
    )
    if spec.jump_intensity > 0:
        fx = np.asarray(field.value(t, x), dtype=float)
        dfx = np.asarray(field.dx(t, x), dtype=float) if spec.compensated else None
        # broadcast time alongside the extra mark axis when t is an array
        tb = np.asarray(t)[..., None] if np.ndim(t) else t

        def _increment(z):
            z = np.asarray(z, dtype=float)
            size = spec.jump_coefficient(tb, x[..., None], z)
            xz = x[..., None] + size
            inc = field.value(tb, xz) - fx[..., None]
            if spec.compensated:
                inc = inc - dfx[..., None] * size
            return inc

        jump_term = expectation(spec.mark_distribution, _increment)
        if not np.all(np.isfinite(np.atleast_1d(jump_term))):
            raise NumericalError("jump expectation quadrature returned non-finite values")
        out = out + spec.jump_intensity * jump_term
    return out if out.ndim else float(out)


def ito_residual(spec, field, path):
    """Pathwise defect of the change-of-variable formula on a simulated path.

    Returns F(t_K, x_K) - F(t_0, x_0) minus the discretised right-hand
    side: time and convection terms on the grid with the continuous
    quadratic variation approximated by sigma^2 dt, plus exact jump and
    intervention increments at their recorded instants.  Zero in exact
    arithmetic for affine F; O(dt) otherwise.
    """
    t = path.times
    post = path.states
    pre = path.pre_states
    h = np.diff(t)
    tl, xl = t[:-1], post[:-1]

    continuous = np.sum(
        field.dt(tl, xl) * h
        + field.dx(tl, xl) * (pre[1:] - xl)
        + 0.5 * field.dxx(tl, xl) * spec.diffusion(tl, xl) ** 2 * h
    )

    events = sorted(
        [(r.index, r.time, r.size) for r in path.jumps]
        + [(r.index, r.time, r.impulse) for r in path.interventions]
    )
    event_sum = 0.0
    cursor = {}
    for idx, time, size in events:
        v = cursor.get(idx, pre[idx])
        event_sum += field.value(time, v + size) - field.value(time, v)
        cursor[idx] = v + size

    lhs = field.value(t[-1], post[-1]) - field.value(t[0], pre[0])
    return float(lhs - continuous - event_sum)


def dynkin_residual(spec, field, x0, t, dt, n_paths, stream):
    """Monte Carlo defect of the expectation identity

        E[F(X(t))] - F(x0) - E[ integral_0^t L F(X(s)) ds ]

    estimated over ``n_paths`` independent paths.  The integral uses
    left-point values on the simulation grid, matching the Euler order.
    Block b of paths draws from substream b, and the blocks are lanes of
    one kernel run.
    """
    if n_paths < 2:
        raise ParameterError("n_paths must be at least 2")
    lanes = map_blocks(lambda sub, lo, hi: (sub.generator, hi - lo, None),
                       n_paths, stream, _BLOCK_SIZE)
    results = _simulate_batch(spec, x0, t, dt, lanes,
                              integrand=lambda s, y: generator_apply(spec, field, s, y))
    return estimate_from_samples(np.concatenate(
        [field.value(t, lane.x) - field.value(0.0, x0) - lane.integral for lane in results]))
