"""Finite-difference QVI solver for the jump-linear benchmark.

The benchmark's dynamics, running cost and intervention cost are the
:class:`ImpulseProblem` of :func:`make_benchmark_problem`.  The candidate
factors as e^{-rho t} psi(x); psi solves the stationary obstacle problem

    max( B psi - l, psi - M psi ) = 0,   B = rho I - L0,

with l the running cost at t = 0 and L0 the generator of the problem's
dynamics: central differences for the drift and diffusion, and one
lattice column per atom of the discrete mark law.

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
targets come from ``impulse._affine_envelope`` with the nodes as points
and targets, the L1 distance transform of the piecewise-linear iterate
(the dense search of ``minimize_over_targets`` gives the same targets,
short of near-ties inside its 1e-12 tie tolerance, in O(n^2)).  The number of sweeps still grows with n: once the
band is too narrow it widens by about one node per sweep.

``synthesize_policy`` and ``qvi_residual`` reach the same envelope
through ``impulse._intervention_operator``, over the nodes and over 401
uniform targets, and refine its picks on the spline.  The residual stays
an independent check of this solver: its targets are not the nodes, its
interpolant is the spline rather than the piecewise-linear iterate, and
tests hold it bit-equal to the dense search on the benchmark grids.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .distributions import symmetric_pair
from .errors import NumericalError, ParameterError
from .impulse import (
    AffineInterventionCost,
    CandidateValue,
    ImpulseProblem,
    _affine_envelope,
    _jump_reach,
)
from .sde import JumpDiffusionSpec

# Largest grid accepted: one sparse solve of the default problem peaks near
# 0.2 GB resident at 1.2e5 nodes and 1.0 GB at 1e6, growing linearly.
MAX_GRID_NODES = 1_000_000
_MAX_SWEEPS = 200  # policy iteration gives up after this many sweeps
_UPDATE_TOL = 1e-9  # sup-norm update of a settled sweep


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
        try:  # alpha + beta (never intervening from x = 1) and sigma^2 / h^2
            finite = np.isfinite(self.uncontrolled_value(1.0) + (self.sigma / self.grid_step) ** 2)
        except OverflowError:
            finite = False
        if not finite:
            raise ParameterError("never-intervene cost coefficients or sigma^2 / h^2 not finite")

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
        intervention_cost=AffineInterventionCost(c, kappa, rho),
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


def _assemble_operator(x, dynamics, discount):
    """Sparse B = rho I - L0 of ``dynamics`` at t = 0; mark atoms lie on the lattice of ``x``."""
    n = x.size
    h = x[1] - x[0]
    i = np.arange(1, n - 1)
    drift = dynamics.effective_drift(0.0, x[i])
    diff = dynamics.diffusion(0.0, x[i]) ** 2 / 2 / h**2
    lam, marks = dynamics.jump_intensity, dynamics.mark_distribution
    shifts = np.rint(marks.values / h).astype(int)
    # per interior row: diagonal, upper, lower, then one jump target per
    # atom, clamped to the boundary (only reached in the action zone)
    cols = np.stack([i, i + 1, i - 1] + [np.clip(i + s, 0, n - 1) for s in shifts], axis=1)
    vals = np.stack([
        discount + 2 * diff + lam,
        -diff - drift / (2 * h),
        -diff + drift / (2 * h),
    ] + [np.full(i.size, -lam * p) for p in marks.probs], axis=1)
    rows = np.concatenate([np.repeat(i, cols.shape[1]), [0, n - 1]])
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


def solve_benchmark_qvi(params=None):
    """Policy iteration for the benchmark QVI.

    Returns a :class:`BenchmarkSolution` whose candidate passes
    ``qvi_residual`` at the 1e-3 level; raises :class:`NumericalError`
    if the policy has not stabilised within 200 sweeps or the band
    reaches the jump margin of the grid.
    """
    params = params or BenchmarkParams()
    problem = make_benchmark_problem(params)
    h = params.grid_step
    n_cells = int(round((params.grid_hi - params.grid_lo) / h))
    x = np.linspace(params.grid_lo, params.grid_hi, n_cells + 1)
    n = x.size
    operator = _assemble_operator(x, problem.dynamics, problem.discount)
    entry_rows = np.repeat(np.arange(n), np.diff(operator.indptr))
    ell = problem.running_cost(0.0, x)
    c, kappa = params.fixed_cost, params.proportional_cost

    psi = params.uncontrolled_value(x)
    active_prev = np.zeros(n, dtype=bool)
    targets_prev = np.arange(n)
    history = []
    for sweeps in range(1, _MAX_SWEEPS + 1):
        obstacle, targets = _affine_envelope(psi, x, x, c, kappa)
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
        if sweeps > 1 and n_flips == 0 and change < _UPDATE_TOL:
            break
        active_prev, targets_prev = active, targets
    else:
        raise NumericalError(f"policy iteration did not settle within {_MAX_SWEEPS} sweeps")

    continuation = ~active_prev
    if not np.any(continuation):
        raise NumericalError("benchmark solve produced an empty continuation region")
    idx = np.where(continuation)[0]
    band = (float(x[idx[0]]), float(x[idx[-1]]))
    dj = int(round(_jump_reach(problem.dynamics) / h))
    if idx[0] <= dj or idx[-1] >= n - 1 - dj:
        raise NumericalError("continuation band reaches the jump margin; widen the grid")

    obstacle, _ = _affine_envelope(psi, x, x, c, kappa)
    fd_defect = np.minimum(ell - operator @ psi, obstacle - psi)
    interior = slice(dj + 1, n - dj - 1)
    fd_residual = float(np.max(np.abs(fd_defect[interior])))
    if fd_residual > 1e-3:
        raise NumericalError(f"converged iterate has FD residual {fd_residual:.2e} > 1e-3")

    candidate = CandidateValue(x=x, values=np.maximum(psi, 0.0), discount=problem.discount)
    return BenchmarkSolution(
        candidate=candidate,
        params=params,
        band=band,
        sweeps=sweeps,
        fd_residual=fd_residual,
        history=tuple(history),
    )
