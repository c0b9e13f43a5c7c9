"""Impulse control of 1-D jump diffusions.

A policy is a continuation region D plus an impulse map: the state evolves
freely inside D and is kicked by the impulse map whenever a grid or jump
time finds it outside.  A candidate value function is certified by the
quasi-variational inequality

    L phi + running_cost >= 0            (equality on D)
    phi - M phi          <= 0            (equality off D)

where M phi(y) = inf_z { phi(y + z) + K(y, z) } is the best value one
impulse can reach.  ``qvi_residual`` measures the complementarity defect
min(L phi + running_cost, M phi - phi), which is zero exactly when both
one-sided inequalities hold with one of them tight at every point.  Note
the orientation: for cost minimisation the generator inequality holds with
">=", so the defect rather than a signed maximum is the meaningful
residual.

Closed-loop paths and cost estimates come from the one batched Euler
kernel of :mod:`jumpkit.sde`: a path jumping inside a grid step leaves its
base-step normal unused and meets the policy at each jump instant, so the
cost callables may receive an array of sub-step times.  Every block of
paths of every policy in one estimate or verification is a lane of a
single kernel run (block b of a policy on substream b of its stream), so
each estimate is bit-identical to stepping its blocks one after another,
and ``workers`` no longer does anything for cost estimation.

Infinite-horizon discounted problems fold e^{-rho t} into the running and
intervention costs and factor candidates as phi(t, x) = e^{-rho t} psi(x).
Uniform integrability of the controlled candidate values, needed for the
equality part of the verification argument, is not checked symbolically;
it is evidenced numerically by the truncation tail bounds reported with
every cost estimate.
"""

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .calculus import ScalarField, generator_apply
from .errors import DegeneratePolicyError, NumericalError, ParameterError
from .mc import EstimateWithCI, block_ranges, estimate_from_samples
from .sde import _simulate_batch, in_intervals


@dataclass
class ImpulseProblem:
    """Dynamics plus the cost triple (running, terminal, intervention).

    ``running_cost(t, x)`` and ``intervention_cost(t, x, z)`` must be
    vectorised in ``x``/``z`` and nonnegative; the intervention cost must
    stay above the strictly positive ``min_intervention_cost`` (this is
    what rules out intervention chattering).  ``horizon=None`` declares an
    infinite-horizon problem, which requires a positive discount folded
    into the costs; the terminal cost is then never evaluated.
    """

    dynamics: object
    running_cost: callable
    intervention_cost: callable
    min_intervention_cost: float
    terminal_cost: callable = None
    discount: float = 0.0
    horizon: float = None

    def __post_init__(self):
        if self.min_intervention_cost <= 0:
            raise ParameterError("intervention cost must be bounded below by a positive constant")
        if self.horizon is None and self.discount <= 0:
            raise ParameterError("infinite-horizon problems need a positive discount rate")
        if self.horizon is not None and self.horizon <= 0:
            raise ParameterError("finite horizon must be positive")


@dataclass
class CandidateValue:
    """Nonnegative candidate value on a grid, time-factored by e^{-rho t}.

    Node values are interpolated by a C2 cubic spline (exact at the
    nodes) and extended linearly beyond the grid.  ``curvature`` is the
    second difference of the interpolant at the grid step: at nodes it
    reproduces the classic three-point stencil, which keeps generator
    evaluations consistent with finite-difference solvers and immune to
    spline ringing where the true solution has a curvature kink at a free
    boundary.
    """

    x: np.ndarray
    values: np.ndarray
    discount: float = 0.0

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.x.ndim != 1 or self.x.size < 4 or self.x.shape != self.values.shape:
            raise ParameterError("need matching 1-D arrays with at least 4 nodes")
        if np.any(np.diff(self.x) <= 0):
            raise ParameterError("grid must be strictly increasing")
        if np.any(self.values < -1e-12):
            raise ParameterError("candidate values must be nonnegative")
        self._spline = CubicSpline(self.x, self.values)
        self._deriv = self._spline.derivative()
        self._slope_lo = float(self._deriv(self.x[0]))
        self._slope_hi = float(self._deriv(self.x[-1]))

    @property
    def step(self):
        return float(self.x[1] - self.x[0])

    def psi(self, xq):
        """Stationary part, linearly extended beyond the grid."""
        xq = np.asarray(xq, dtype=float)
        clipped = np.clip(xq, self.x[0], self.x[-1])
        out = self._spline(clipped)
        out = out + np.where(xq < self.x[0], (xq - self.x[0]) * self._slope_lo, 0.0)
        out = out + np.where(xq > self.x[-1], (xq - self.x[-1]) * self._slope_hi, 0.0)
        return out if out.ndim else float(out)

    def psi_prime(self, xq):
        xq = np.asarray(xq, dtype=float)
        clipped = np.clip(xq, self.x[0], self.x[-1])
        out = self._deriv(clipped)
        return out if out.ndim else float(out)

    def curvature(self, xq):
        """Second difference of the interpolant at the grid step."""
        h = self.step
        return (self.psi(xq + h) - 2.0 * self.psi(xq) + self.psi(xq - h)) / h**2

    def value(self, t, xq):
        return np.exp(-self.discount * t) * self.psi(xq)

    def as_scalar_field(self):
        rho = self.discount
        return ScalarField(
            value=lambda t, x: np.exp(-rho * t) * self.psi(x),
            dt=lambda t, x: -rho * np.exp(-rho * t) * self.psi(x),
            dx=lambda t, x: np.exp(-rho * t) * self.psi_prime(x),
            dxx=lambda t, x: np.exp(-rho * t) * self.curvature(x),
        )


@dataclass(frozen=True)
class ImpulsePolicy:
    """Open continuation intervals plus the impulse map on their exterior.

    ``grid``/``targets`` tabulate the post-impulse position at exterior
    nodes; queries interpolate linearly and clamp beyond the table.  The
    policy is immutable and safe to share between threads.
    """

    intervals: tuple
    grid: np.ndarray
    targets: np.ndarray

    @classmethod
    def never_intervene(cls):
        return cls(intervals=((-np.inf, np.inf),), grid=np.empty(0), targets=np.empty(0))

    def bounds(self):
        """Lower and upper ends of the intervals, as two float arrays."""
        lo, hi = np.array(self.intervals, dtype=float).reshape(-1, 2).T
        return lo, hi

    def contains(self, x):
        mask = in_intervals(np.asarray(x, dtype=float), *self.bounds())
        return mask if mask.ndim else bool(mask)

    def target(self, x):
        if self.grid.size == 0:
            raise ParameterError("this policy never intervenes")
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.grid, self.targets)
        return out if out.ndim else float(out)

    def impulse(self, x):
        return self.target(x) - np.asarray(x, dtype=float)

    def shifted(self, band_delta=0.0, target_delta=0.0):
        """Perturbed copy: widen every interval and/or shift the targets.

        Used to manufacture deliberately suboptimal comparison policies;
        raises if the perturbation pushes a target outside its region.
        """
        intervals = tuple((lo - band_delta, hi + band_delta) for lo, hi in self.intervals)
        targets = self.targets + np.sign(self.targets) * target_delta if target_delta else self.targets
        policy = ImpulsePolicy(intervals=intervals, grid=self.grid, targets=targets.copy())
        inside = policy.contains(policy.targets)
        if policy.grid.size and not np.all(inside):
            raise ParameterError("perturbed targets left the continuation region")
        return policy


@dataclass(frozen=True)
class QVIReport:
    """Node-wise quasi-variational inequality diagnostics.

    ``generator_plus_running`` is L phi + running cost,
    ``value_minus_intervention`` is phi - M phi, ``defect`` their
    complementarity defect min(L phi + l, M phi - phi).  ``sup_norm``
    takes the largest absolute defect over interior nodes (the boundary
    margin excludes one-sided stencils and jump reach).
    """

    x: np.ndarray
    generator_plus_running: np.ndarray
    value_minus_intervention: np.ndarray
    region: np.ndarray
    interior: np.ndarray
    sup_norm: float

    @property
    def defect(self):
        return np.minimum(self.generator_plus_running, -self.value_minus_intervention)

    def rows(self):
        for i in range(self.x.size):
            yield (
                float(self.x[i]),
                float(self.generator_plus_running[i]),
                float(self.value_minus_intervention[i]),
                str(self.region[i]),
            )


# ---------------------------------------------------------------------------
# intervention operator


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

# points per block of the coarse search; bounds its dense arrays at
# _COARSE_BLOCK x len(targets) whatever the number of points
_COARSE_BLOCK = 256


def affine_intervention_operator(values, x, fixed, proportional):
    """M psi at the nodes for the cost ``fixed + proportional * |z|``.

    ``values`` are psi at the increasing nodes ``x``, read as the
    piecewise-linear interpolant, and the targets are the nodes
    themselves.  The objective psi(w) + proportional |w - x_i| is then
    piecewise linear with kinks at nodes only, so the infimum is the
    lower envelope min_j psi_j + proportional |x_j - x_i| (an L1 distance
    transform): one running minimum of psi - proportional x from the
    left and one of psi + proportional x from the right, O(n) in all.
    Returns the values only; :func:`minimize_over_targets` is the
    general search that also returns targets.
    """
    values = np.asarray(values, dtype=float)
    x = np.asarray(x, dtype=float)
    if values.ndim != 1 or values.shape != x.shape:
        raise ParameterError("need matching 1-D arrays of node values and nodes")
    if proportional < 0:
        raise ParameterError("proportional intervention cost must be nonnegative")
    slope = proportional * x
    fwd = np.minimum.accumulate(values - slope) + slope
    bwd = np.minimum.accumulate((values + slope)[::-1])[::-1] - slope
    return fixed + np.minimum(fwd, bwd)


def minimize_over_targets(value_fn, cost_fn, points, targets, refine_tol=1e-6):
    """Vectorised M-operator: best post-impulse position for each point.

    Coarse search over ``targets`` (ties resolved toward the smallest
    impulse magnitude), then golden-section refinement of the target
    between the coarse winner's neighbours down to ``refine_tol``.
    Returns ``(values, best_targets)`` arrays.

    This is the general search, for any cost and candidate, and the
    oracle for the fast paths: for the cost c + kappa |z| on a
    piecewise-linear candidate with targets at its nodes,
    :func:`affine_intervention_operator` gives the same values in O(n).
    The coarse search runs in blocks of points, so its memory stays
    O(len(targets)) per block; the refinement runs over all points at
    once, since its iteration count depends on every point's bracket.
    """
    points = np.atleast_1d(np.asarray(points, dtype=float))
    targets = np.asarray(targets, dtype=float)
    if targets.size == 0:
        raise ParameterError("target grid for the impulse search is empty")
    target_values = value_fn(targets)[None, :]
    pick = np.empty(points.size, dtype=np.intp)
    coarse_f = np.empty(points.size)
    for start in range(0, points.size, _COARSE_BLOCK):
        rows = slice(start, start + _COARSE_BLOCK)
        p = points[rows, None]
        obj = target_values + cost_fn(p, targets[None, :] - p)
        vmin = obj.min(axis=1, keepdims=True)
        ties = obj <= vmin + 1e-12 * (1.0 + np.abs(vmin))
        pick[rows] = np.where(ties, np.abs(targets[None, :] - p), np.inf).argmin(axis=1)
        coarse_f[rows] = np.take_along_axis(obj, pick[rows, None], axis=1)[:, 0]

    lo = targets[np.maximum(pick - 1, 0)]
    hi = targets[np.minimum(pick + 1, targets.size - 1)]
    a, b = lo.copy(), hi.copy()
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)

    def _eval(w):
        return value_fn(w) + cost_fn(points, w - points)

    fc, fd = _eval(c), _eval(d)
    span = np.max(hi - lo) if targets.size > 1 else 0.0
    n_iter = int(np.ceil(np.log(max(span, refine_tol) / refine_tol) / -np.log(_GOLDEN))) + 1
    for _ in range(max(n_iter, 1)):
        take_c = fc < fd
        b = np.where(take_c, d, b)
        a = np.where(take_c, a, c)
        c = b - _GOLDEN * (b - a)
        d = a + _GOLDEN * (b - a)
        fc, fd = _eval(c), _eval(d)
    w_ref = 0.5 * (a + b)
    f_ref = _eval(w_ref)

    coarse_w = targets[pick]
    better = f_ref < coarse_f
    best_w = np.where(better, w_ref, coarse_w)
    best_f = np.where(better, f_ref, coarse_f)
    return best_f, best_w


def default_target_grid(lo, hi, n=401):
    """Uniform impulse-target grid over the state span."""
    return np.linspace(lo, hi, n)


def intervention_operator(value_fn, cost_fn, x, targets, refine_tol=1e-6):
    """Best single-impulse value M phi(x) and its minimising impulse.

    ``value_fn`` maps positions to candidate values, ``cost_fn(x, z)`` is
    the intervention cost; both vectorised.  Searched targets falling
    outside the candidate's domain should be excluded by the caller via
    the target grid.  Ties go to the smallest impulse magnitude.
    """
    if np.ndim(x) != 0:
        raise ParameterError("intervention_operator is scalar; use minimize_over_targets")
    values, best = minimize_over_targets(value_fn, cost_fn, [x], targets, refine_tol)
    return float(values[0]), float(best[0] - x)


# ---------------------------------------------------------------------------
# QVI residual and policy synthesis


def _stationary_cost(problem):
    """Running and intervention costs with the t = 0 section exposed."""
    run = lambda x: problem.running_cost(0.0, x)
    kost = lambda x, z: problem.intervention_cost(0.0, x, z)
    return run, kost


def qvi_residual(problem, candidate, margin=None, n_targets=401, refine_tol=1e-6):
    """Complementarity defect of the QVI at every grid node.

    ``margin`` excludes nodes within that distance of the grid ends from
    the sup norm (one-sided interpolation stencils plus one jump reach by
    default); all nodes are still reported.
    """
    x = candidate.x
    run, kost = _stationary_cost(problem)
    field = candidate.as_scalar_field()
    gen_run = np.asarray(
        generator_apply(problem.dynamics, field, 0.0, x), dtype=float
    ) + np.asarray(run(x), dtype=float)

    targets = default_target_grid(x[0], x[-1], n_targets)
    m_vals, _ = minimize_over_targets(candidate.psi, kost, x, targets, refine_tol)
    value_minus = candidate.values - m_vals

    if margin is None:
        reach = 0.0
        dist = problem.dynamics.mark_distribution
        if dist is not None and hasattr(dist, "values"):
            reach = float(np.max(np.abs(dist.values)))
        elif dist is not None and hasattr(dist, "support"):
            reach = float(np.max(np.abs(dist.support)))
        margin = reach + 2.0 * candidate.step
    interior = (x >= x[0] + margin) & (x <= x[-1] - margin)
    if not np.any(interior):
        raise ParameterError("margin excluded every node from the residual")

    defect = np.minimum(gen_run, -value_minus)
    region = np.where(-value_minus <= gen_run, "action", "continuation")
    sup = float(np.max(np.abs(defect[interior])))
    if not np.all(np.isfinite(gen_run)) or not np.all(np.isfinite(value_minus)):
        raise NumericalError("QVI residual produced non-finite values")
    return QVIReport(
        x=x.copy(),
        generator_plus_running=gen_run,
        value_minus_intervention=value_minus,
        region=region,
        interior=interior,
        sup_norm=sup,
    )


def synthesize_policy(problem, candidate, region_tol=1e-4, refine_tol=1e-6):
    """Extract the continuation region and impulse map from a candidate.

    D is where the candidate is strictly below its intervention value
    (``M phi - phi > region_tol``; the threshold keeps solver-level noise
    on the action set from fragmenting the region).  The impulse map on
    the exterior re-optimises the intervention operator at every exterior
    node and must land strictly inside D.
    """
    x = candidate.x
    _, kost = _stationary_cost(problem)
    m_vals, m_targets = minimize_over_targets(
        candidate.psi, kost, x, x, refine_tol
    )
    gap = m_vals - candidate.values
    inside = gap > region_tol
    if not np.any(inside):
        raise DegeneratePolicyError("the continuation region is empty")

    intervals = []
    i = 0
    n = x.size
    while i < n:
        if inside[i]:
            j = i
            while j + 1 < n and inside[j + 1]:
                j += 1
            intervals.append((float(x[i]), float(x[j])))
            i = j + 1
        else:
            i += 1
    intervals = tuple(intervals)

    exterior = ~inside
    policy = ImpulsePolicy(
        intervals=intervals, grid=x[exterior].copy(), targets=m_targets[exterior].copy()
    )
    if policy.grid.size and not np.all(policy.contains(policy.targets)):
        raise NumericalError("impulse map does not land inside the continuation region")
    return policy


# ---------------------------------------------------------------------------
# closed-loop simulation and cost estimation


def simulate_controlled(problem, policy, y0, horizon, dt, stream,
                        max_interventions=100_000):
    """One closed-loop path: free dynamics inside D, impulses outside.

    The state is checked at every grid and jump time (including t = 0);
    the first check that finds it outside D applies the policy's impulse
    at that instant.  Exceeding ``max_interventions`` raises
    :class:`ChatteringError`; landing outside D, :class:`NumericalError`.
    """
    lane = (stream.generator, 1, policy)
    return _simulate_batch(problem.dynamics, y0, horizon, dt, [lane],
                           max_interventions=max_interventions, record=True)[0].paths[0]


@dataclass(frozen=True)
class CostEstimate:
    """Monte Carlo cost with the truncation bound for infinite horizons.

    ``peak`` is the largest |x| any path reached at a grid node (0 at
    least), and ``interventions_per_path`` and ``jumps_per_path`` are the
    mean counts of impulses and jumps per path.
    """

    estimate: EstimateWithCI
    horizon: float
    tail_bound: float
    horizon_warning: bool
    peak: float = 0.0
    interventions_per_path: float = 0.0
    jumps_per_path: float = 0.0

    @property
    def value(self):
        return self.estimate.value

    @property
    def stderr(self):
        return self.estimate.stderr


def estimate_cost(problem, policy, y0, n_paths, dt, stream, horizon=None,
                  workers=1, block_size=256, max_interventions=100_000):
    """Estimate the closed-loop objective from ``y0`` by Monte Carlo.

    The running cost is accumulated by the trapezoidal rule on the path
    grid, intervention costs are added at their instants, and the
    terminal cost is applied only on finite horizons.  Infinite-horizon
    problems are truncated at ``horizon`` (default 14 / discount) and the
    bound ``e^{-rho T} sup running / rho`` is reported; a bound above 1%
    of the estimate sets ``horizon_warning``.

    Paths form fixed blocks, block b on substream b, and the blocks are
    lanes of one kernel run, so the result does not depend on how they are
    stepped.  ``workers`` is kept for compatibility and does nothing.
    """
    return _estimate_costs(problem, [(policy, stream)], y0, n_paths, dt, horizon=horizon,
                           block_size=block_size, max_interventions=max_interventions)[0]


def _estimate_costs(problem, jobs, y0, n_paths, dt, horizon=None, block_size=256,
                    max_interventions=100_000):
    """:func:`estimate_cost` of every ``(policy, stream)`` in ``jobs``, from one kernel run.

    Each policy contributes its blocks as lanes, block b on substream b of
    its own stream, so each estimate equals its own ``estimate_cost`` call
    bit for bit.
    """
    if problem.horizon is not None:
        horizon = problem.horizon
    elif horizon is None:
        horizon = 14.0 / problem.discount
    if n_paths < 1:
        raise ParameterError(f"n_paths must be positive, got {n_paths}")
    blocks = block_ranges(n_paths, block_size)
    lanes = ((stream.substream(b).generator, hi - lo, policy)
             for policy, stream in jobs for b, (lo, hi) in enumerate(blocks))
    results = _simulate_batch(
        problem.dynamics, y0, horizon, dt, lanes, intervention_cost=problem.intervention_cost,
        max_interventions=max_interventions, integrand=problem.running_cost, trapezoid=True)

    estimates = []
    for j, (policy, _) in enumerate(jobs):
        mine = results[j * len(blocks):(j + 1) * len(blocks)]
        costs = np.concatenate([lane.integral for lane in mine])
        if problem.horizon is not None and problem.terminal_cost is not None:
            final = np.concatenate([lane.x for lane in mine])
            costs = costs + problem.terminal_cost(horizon, final)
        peak = max(lane.peak for lane in mine)
        est = estimate_from_samples(costs)
        if problem.horizon is None:
            hull = [abs(v) for pair in policy.intervals for v in pair if np.isfinite(v)]
            span = max([peak] + hull)
            sup_run = float(np.max(problem.running_cost(0.0, np.linspace(-span, span, 257))))
            tail = float(np.exp(-problem.discount * horizon) * sup_run / problem.discount)
        else:
            tail = 0.0
        warning = tail > 0.01 * max(abs(est.value), 1e-300)
        estimates.append(CostEstimate(
            estimate=est, horizon=float(horizon), tail_bound=tail, horizon_warning=warning,
            peak=peak,
            interventions_per_path=sum(lane.interventions for lane in mine) / n_paths,
            jumps_per_path=sum(lane.jumps for lane in mine) / n_paths))
    return estimates


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class DominanceEntry:
    label: str
    cost: CostEstimate
    passed: bool


@dataclass(frozen=True)
class ValueVerification:
    """Outcome of the candidate-vs-simulation verification.

    The synthesized policy's cost must match the candidate value within
    two standard errors plus a discretisation allowance proportional to
    dt; every alternative policy's cost must stay above the candidate
    value minus two of its own standard errors.  Failures are recorded,
    never swallowed.
    """

    y0: float
    candidate_value: float
    policy_cost: CostEstimate
    allowance: float
    equality_passed: bool
    alternatives: tuple

    @property
    def passed(self):
        return self.equality_passed and all(entry.passed for entry in self.alternatives)


def verify_value(problem, candidate, policy, y0, alternatives, n_paths, dt, stream,
                 allowance_coeff=25.0, horizon=None, workers=1):
    """Check the two verification inequalities by simulation.

    ``alternatives`` is an iterable of (label, policy) pairs; their costs
    must dominate the candidate value (first inequality), while the
    synthesized policy must attain it (second, equality case).

    The policy's cost is estimated on ``stream.substream(0)`` and the j-th
    alternative's on ``stream.substream(j + 1)``, every block of every
    policy a lane of one kernel run; each cost equals ``estimate_cost`` on
    that substream bit for bit.  ``workers`` is kept for compatibility and
    does nothing.
    """
    phi0 = float(candidate.value(0.0, y0))
    alternatives = list(alternatives)
    jobs = [(policy, stream.substream(0))]
    jobs += [(alt, stream.substream(j + 1)) for j, (_, alt) in enumerate(alternatives)]
    cost, *alt_costs = _estimate_costs(problem, jobs, y0, n_paths, dt, horizon=horizon)
    allowance = allowance_coeff * dt
    equality = abs(phi0 - cost.value) <= 2.0 * cost.stderr + allowance

    entries = []
    for (label, _), alt_cost in zip(alternatives, alt_costs):
        entries.append(DominanceEntry(
            label=label,
            cost=alt_cost,
            passed=alt_cost.value >= phi0 - 2.0 * alt_cost.stderr,
        ))
    return ValueVerification(
        y0=float(y0),
        candidate_value=phi0,
        policy_cost=cost,
        allowance=allowance,
        equality_passed=equality,
        alternatives=tuple(entries),
    )
