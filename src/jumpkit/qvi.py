"""Finite-difference QVI solver for the jump-linear benchmark.

Benchmark family: state dX = a X dt + sigma dW + jumps of +-delta
(equiprobable, compensated, intensity lambda), discounted quadratic
running cost e^{-rho t} x^2, intervention cost e^{-rho t} (c + kappa |z|).
The candidate factors as e^{-rho t} psi(x); psi solves the stationary
obstacle problem

    max( B psi - x^2, psi - M psi ) = 0,   B = rho I - L0,

with L0 psi = a x psi' + (sigma^2 / 2) psi'' + lambda ((psi(x+delta)
+ psi(x-delta)) / 2 - psi(x)).  The symmetric marks make the compensator
drift vanish, so the compensated and plain forms coincide here.

The discrete complementarity problem is solved by Howard policy
iteration: at each sweep every node enforces whichever branch currently
has the larger violation, and the resulting mixed linear system is solved
directly.  The scheme's M-matrix structure makes the iteration monotone;
the loop stops once the active set is stable and the update is at
rounding level.

Each sweep costs O(n) plus one sparse solve.  The obstacle M psi comes
from :func:`~jumpkit.impulse.affine_intervention_operator`, the L1
distance transform of the piecewise-linear iterate (the dense search of
``minimize_over_targets`` gives the same values in O(n^2)), and the mixed
matrix is B with its action rows masked to identity rows.  The obstacle
is frozen within a sweep, so the iteration converges linearly and the
number of sweeps still grows as the grid is refined.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .distributions import symmetric_pair
from .errors import NumericalError, ParameterError
from .impulse import CandidateValue, ImpulseProblem, affine_intervention_operator
from .sde import JumpDiffusionSpec


@dataclass(frozen=True)
class BenchmarkParams:
    """Parameters of the jump-linear benchmark problem."""

    drift_rate: float = 0.3
    sigma: float = 0.5
    jump_intensity: float = 0.8
    jump_size: float = 0.6
    discount: float = 1.0
    fixed_cost: float = 1.0
    proportional_cost: float = 0.3
    grid_lo: float = -6.0
    grid_hi: float = 6.0
    grid_step: float = 0.005

    def __post_init__(self):
        if self.discount <= 2 * self.drift_rate:
            raise ParameterError(
                "the solver initialises from the uncontrolled cost, which needs "
                "discount > 2 * drift_rate"
            )
        if self.fixed_cost <= 0:
            raise ParameterError("fixed intervention cost must be positive")
        ratio = self.jump_size / self.grid_step
        if abs(ratio - round(ratio)) > 1e-9:
            raise ParameterError("grid step must divide the jump size exactly")
        cells = (self.grid_hi - self.grid_lo) / self.grid_step
        if abs(cells - round(cells)) > 1e-9:
            raise ParameterError("grid step must divide the grid span exactly")

    def uncontrolled_value(self, x):
        """Exact discounted quadratic cost of never intervening."""
        alpha = 1.0 / (self.discount - 2.0 * self.drift_rate)
        beta = (self.sigma**2 + self.jump_intensity * self.jump_size**2) * alpha / self.discount
        return alpha * np.asarray(x, dtype=float) ** 2 + beta


def make_benchmark_problem(params):
    """Assemble the :class:`ImpulseProblem` for ``params``."""
    rho = params.discount
    c, kappa = params.fixed_cost, params.proportional_cost
    a = params.drift_rate
    sigma = params.sigma
    dynamics = JumpDiffusionSpec(
        drift=lambda t, x: a * x,
        diffusion=lambda t, x: sigma * np.ones_like(np.asarray(x, dtype=float)),
        jump_intensity=params.jump_intensity,
        mark_distribution=symmetric_pair(params.jump_size),
        compensated=True,
    )
    return ImpulseProblem(
        dynamics=dynamics,
        running_cost=lambda t, x: np.exp(-rho * t) * np.asarray(x, dtype=float) ** 2,
        intervention_cost=lambda t, x, z: np.exp(-rho * t) * (c + kappa * np.abs(z)),
        min_intervention_cost=c,
        discount=rho,
        horizon=None,
    )


@dataclass(frozen=True)
class BenchmarkSolution:
    """Converged candidate plus solver diagnostics."""

    candidate: CandidateValue
    params: BenchmarkParams
    band: tuple
    sweeps: int
    fd_residual: float
    # one (change, n_active, n_flips) per sweep: the sup-norm update, the
    # action-set size and the nodes whose branch changed since the sweep
    # before (the first sweep counts against the all-continuation start)
    history: tuple = ()


def _assemble_operator(x, params):
    """Sparse B = rho I - L0 with central differences and lattice jumps."""
    n = x.size
    h = x[1] - x[0]
    dj = int(round(params.jump_size / h))
    a, sigma, lam, rho = (
        params.drift_rate, params.sigma, params.jump_intensity, params.discount,
    )
    i = np.arange(1, n - 1)
    drift = a * x[i]
    diff = (sigma**2 / 2) / h**2
    # per interior row: diagonal, upper, lower, then the two jump targets,
    # clamped to the boundary (only reached in the action zone)
    cols = np.stack([i, i + 1, i - 1, np.minimum(i + dj, n - 1), np.maximum(i - dj, 0)], axis=1)
    vals = np.stack([
        np.full(i.size, rho + sigma**2 / h**2 + lam),
        -diff - drift / (2 * h),
        -diff + drift / (2 * h),
        np.full(i.size, -lam / 2.0),
        np.full(i.size, -lam / 2.0),
    ], axis=1)
    rows = np.concatenate([np.repeat(i, 5), [0, n - 1]])
    cols = np.concatenate([cols.ravel(), [0, n - 1]])
    vals = np.concatenate([vals.ravel(), [1.0, 1.0]])
    return sp.csr_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(n, n)))


def solve_benchmark_qvi(params=None, max_sweeps=200, update_tol=1e-9):
    """Policy iteration for the benchmark QVI.

    Returns a :class:`BenchmarkSolution` whose candidate passes
    ``qvi_residual`` at the 1e-3 level; raises :class:`NumericalError`
    if the active set has not stabilised within ``max_sweeps`` sweeps or
    the band reaches the jump margin of the grid.
    """
    params = params or BenchmarkParams()
    h = params.grid_step
    n_cells = int(round((params.grid_hi - params.grid_lo) / h))
    x = np.linspace(params.grid_lo, params.grid_hi, n_cells + 1)
    n = x.size
    operator = _assemble_operator(x, params)
    ell = x**2
    c, kappa = params.fixed_cost, params.proportional_cost

    psi = params.uncontrolled_value(x)
    active_prev = np.zeros(n, dtype=bool)
    history = []
    for sweeps in range(1, max_sweeps + 1):
        obstacle = affine_intervention_operator(psi, x, c, kappa)
        pde_viol = operator @ psi - ell
        obs_viol = psi - obstacle
        active = obs_viol >= pde_viol
        active[0] = active[-1] = True

        mixed = sp.diags((~active).astype(float)) @ operator + sp.diags(active.astype(float))
        rhs = np.where(active, obstacle, ell)
        psi_new = spla.spsolve(sp.csr_matrix(mixed), rhs)
        change = float(np.max(np.abs(psi_new - psi)))
        psi = psi_new
        n_flips = int(np.count_nonzero(active != active_prev))
        history.append((change, int(np.count_nonzero(active)), n_flips))
        if sweeps > 1 and n_flips == 0 and change < update_tol:
            break
        active_prev = active
    else:
        raise NumericalError(f"policy iteration did not settle within {max_sweeps} sweeps")

    continuation = ~active_prev
    if not np.any(continuation):
        raise NumericalError("benchmark solve produced an empty continuation region")
    idx = np.where(continuation)[0]
    band = (float(x[idx[0]]), float(x[idx[-1]]))
    dj = int(round(params.jump_size / h))
    if idx[0] <= dj or idx[-1] >= n - 1 - dj:
        raise NumericalError("continuation band reaches the jump margin; widen the grid")

    obstacle = affine_intervention_operator(psi, x, c, kappa)
    fd_defect = np.minimum(ell - operator @ psi, obstacle - psi)
    interior = slice(dj + 1, n - dj - 1)
    fd_residual = float(np.max(np.abs(fd_defect[interior])))
    if fd_residual > 1e-3:
        raise NumericalError(f"converged iterate has FD residual {fd_residual:.2e} > 1e-3")

    candidate = CandidateValue(x=x, values=np.maximum(psi, 0.0), discount=params.discount)
    return BenchmarkSolution(
        candidate=candidate,
        params=params,
        band=band,
        sweeps=sweeps,
        fd_residual=fd_residual,
        history=tuple(history),
    )
