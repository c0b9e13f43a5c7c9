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
iteration over pairs (branch, target) at every node.  The obstacle is
M psi_i = min_j psi_j + c + kappa |x_j - x_i|, so a node that acts is
the linear row psi_i - psi_j(i) = c + kappa |x_j(i) - x_i| for its best
target j(i), and a node that continues keeps its row of B.  Each sweep
lets every node take whichever branch has the larger violation, with
the current best target, and solves the mixed system directly; it is
weakly chained diagonally dominant (Azimzadeh & Forsyth, SIAM J. Numer.
Anal. 2016), the targets of the acting rows leading to rows of B.  The
loop stops once a sweep repeats the branches and the targets of the
sweep before and the update is at rounding level.

Each sweep costs O(n) plus one sparse solve.  The obstacle values and
targets come from :func:`~jumpkit.impulse.affine_intervention_operator`,
the L1 distance transform of the piecewise-linear iterate (the dense
search of ``minimize_over_targets`` gives the same values and targets in
O(n^2)).  The number of sweeps still grows with n: once the band is too
narrow it widens by about one node per sweep.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .distributions import symmetric_pair
from .errors import NumericalError, ParameterError
from .impulse import CandidateValue, ImpulseProblem, _affine_envelope
from .sde import JumpDiffusionSpec

# Largest grid accepted: one sparse solve of the default problem peaks near
# 0.2 GB resident at 1.2e5 nodes and 1.0 GB at 1e6, growing linearly.
MAX_GRID_NODES = 1_000_000


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
        if not self.discount > 2 * self.drift_rate:
            raise ParameterError(
                "the solver initialises from the uncontrolled cost, which needs "
                "discount > 2 * drift_rate"
            )
        if not self.fixed_cost > 0:
            raise ParameterError("fixed intervention cost must be positive")
        if not self.grid_step > 0:
            raise ParameterError(f"grid step must be positive, got {self.grid_step}")
        if not self.grid_hi - self.grid_lo > 0:
            raise ParameterError(f"need grid_lo < grid_hi, got {self.grid_lo} and {self.grid_hi}")
        cells = (self.grid_hi - self.grid_lo) / self.grid_step
        if not cells + 1 <= MAX_GRID_NODES:
            raise ParameterError(f"{cells + 1:.3g} grid nodes, more than MAX_GRID_NODES")
        ratio = self.jump_size / self.grid_step
        if abs(ratio - round(ratio)) > 1e-9:
            raise ParameterError("grid step must divide the jump size exactly")
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
        diffusion=lambda t, x: np.full(np.shape(x), sigma, dtype=float),
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
    # action-set size and the nodes whose branch or action target changed
    # since the sweep before (the first sweep counts against the
    # all-continuation start)
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


def _policy_matrix(operator, entry_rows, active, targets):
    """CSC matrix of one policy: rows of B, and e_i - e_j(i) on action rows."""
    n = active.size
    keep = ~active[entry_rows]
    acting = np.flatnonzero(active)
    rows = np.concatenate([entry_rows[keep], acting, acting])
    cols = np.concatenate([operator.indices[keep], acting, targets[acting]])
    vals = np.concatenate([operator.data[keep], np.ones(acting.size), -np.ones(acting.size)])
    return sp.csc_matrix((vals, (rows, cols)), shape=(n, n))


def solve_benchmark_qvi(params=None, max_sweeps=200, update_tol=1e-9):
    """Policy iteration for the benchmark QVI.

    Returns a :class:`BenchmarkSolution` whose candidate passes
    ``qvi_residual`` at the 1e-3 level; raises :class:`NumericalError`
    if the policy has not stabilised within ``max_sweeps`` sweeps or
    the band reaches the jump margin of the grid.
    """
    params = params or BenchmarkParams()
    h = params.grid_step
    n_cells = int(round((params.grid_hi - params.grid_lo) / h))
    x = np.linspace(params.grid_lo, params.grid_hi, n_cells + 1)
    n = x.size
    operator = _assemble_operator(x, params)
    entry_rows = np.repeat(np.arange(n), np.diff(operator.indptr))
    ell = x**2
    c, kappa = params.fixed_cost, params.proportional_cost

    psi = params.uncontrolled_value(x)
    active_prev = np.zeros(n, dtype=bool)
    targets_prev = np.arange(n)
    history = []
    for sweeps in range(1, max_sweeps + 1):
        obstacle, targets = _affine_envelope(psi, x, c, kappa)
        pde_viol = operator @ psi - ell
        obs_viol = psi - obstacle
        active = obs_viol >= pde_viol
        active[0] = active[-1] = True

        rhs = np.where(active, c + kappa * np.abs(x[targets] - x), ell)
        psi_new = spla.spsolve(_policy_matrix(operator, entry_rows, active, targets), rhs)
        if not np.all(np.isfinite(psi_new)):
            raise NumericalError("policy iteration met a singular policy system")
        change = float(np.max(np.abs(psi_new - psi)))
        psi = psi_new
        flipped = (active != active_prev) | (active & (targets != targets_prev))
        n_flips = int(np.count_nonzero(flipped))
        history.append((change, int(np.count_nonzero(active)), n_flips))
        if sweeps > 1 and n_flips == 0 and change < update_tol:
            break
        active_prev, targets_prev = active, targets
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

    obstacle, _ = _affine_envelope(psi, x, c, kappa)
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
