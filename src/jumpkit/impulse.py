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
each estimate is bit-identical to stepping its blocks one after another.

Infinite-horizon discounted problems fold e^{-rho t} into the running and
intervention costs and factor candidates as phi(t, x) = e^{-rho t} psi(x).
Uniform integrability of the controlled candidate values, needed for the
equality part of the verification argument, is not checked symbolically;
it is evidenced numerically by the truncation tail bounds reported with
every cost estimate.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .calculus import ScalarField, generator_apply
from .errors import DegeneratePolicyError, NumericalError, ParameterError
from .mc import EstimateWithCI, estimate_from_samples, map_blocks
from .sde import _simulate_batch, in_intervals


@dataclass(frozen=True)
class AffineInterventionCost:
    """The intervention cost e^{-discount t} (fixed + proportional |z|).

    A callable like any ``intervention_cost(t, x, z)``; its type declares
    the cost class for which the coarse search for M phi over increasing
    targets is an L1 lower envelope, so :func:`synthesize_policy` and
    :func:`qvi_residual` compute it in O(n) (plus a binary search per node
    when the targets are not the nodes).
    """

    fixed: float
    proportional: float
    discount: float

    def __call__(self, t, x, z):
        return np.exp(-self.discount * t) * (self.fixed + self.proportional * np.abs(z))


@dataclass
class ImpulseProblem:
    """Dynamics plus the cost triple (running, terminal, intervention).

    ``running_cost(t, x)`` and ``intervention_cost(t, x, z)`` must be
    vectorised in ``x``/``z`` and nonnegative; the intervention cost must
    stay above the strictly positive ``min_intervention_cost`` (this is
    what rules out intervention chattering).  ``horizon=None`` declares an
    infinite-horizon problem, which requires a positive discount folded
    into the costs; the terminal cost is then never evaluated.

    The intervention cost's type declares its class: an
    :class:`AffineInterventionCost` gets the O(n) intervention operator in
    :func:`synthesize_policy` and :func:`qvi_residual`, and any other
    callable the dense search.
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
    nodes) and extended linearly beyond the grid.  The spline has de
    Boor's not-a-knot ends: its slopes at the nodes solve one tridiagonal
    system, each interval holds a cubic in powers of (x - x_i), and a
    query is evaluated on the interval to its left, the last interval
    closed.  The construction repeats scipy's ``CubicSpline`` operation by
    operation, and a test holds it to ``CubicSpline`` bit for bit, but it
    needs only ``scipy.linalg.solve_banded``, which the QVI solver's
    sparse import loads anyway.  Non-finite nodes or values are refused
    with :class:`ParameterError`.  ``curvature`` is the
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
        self._coef = _not_a_knot_coefficients(self.x, self.values)
        self._dcoef = self._coef[:-1] * np.array([3.0, 2.0, 1.0])[:, None]
        self._slope_lo = float(_power_sum(self._dcoef, self.x, self.x[0]))
        self._slope_hi = float(_power_sum(self._dcoef, self.x, self.x[-1]))

    @property
    def step(self):
        return float(self.x[1] - self.x[0])

    def psi(self, xq):
        """Stationary part, linearly extended beyond the grid."""
        xq = np.asarray(xq, dtype=float)
        clipped = np.clip(xq, self.x[0], self.x[-1])
        out = _power_sum(self._coef, self.x, clipped)
        out = out + np.where(xq < self.x[0], (xq - self.x[0]) * self._slope_lo, 0.0)
        out = out + np.where(xq > self.x[-1], (xq - self.x[-1]) * self._slope_hi, 0.0)
        return out if out.ndim else float(out)

    def psi_prime(self, xq):
        xq = np.asarray(xq, dtype=float)
        clipped = np.clip(xq, self.x[0], self.x[-1])
        out = _power_sum(self._dcoef, self.x, clipped)
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


def _not_a_knot_coefficients(x, y):
    """Power-basis coefficients, shape (4, n - 1), of the not-a-knot cubic spline.

    Row k holds the coefficient of (x - x_i)^(3 - k) on interval i.  The
    slopes at the nodes solve the tridiagonal system with not-a-knot end
    rows, and the cubics are the Hermite cubics on those slopes, each
    written with the operations of scipy 1.17's ``CubicSpline`` and
    ``CubicHermiteSpline`` so that the coefficients carry the same bits.
    """
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ParameterError("spline nodes and values must be finite")
    n = x.size
    dx = np.diff(x)
    slope = np.diff(y) / dx
    A = np.zeros((3, n))  # banded: upper diagonal, diagonal, lower diagonal
    b = np.empty(n)
    A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    A[0, 2:] = dx[:-1]
    A[-1, :-2] = dx[1:]
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    A[1, 0] = dx[1]
    d = x[2] - x[0]
    A[0, 1] = d
    b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    A[1, -1] = dx[-2]
    d = x[-1] - x[-3]
    A[-1, -2] = d
    b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    s = solve_banded((1, 1), A, b, overwrite_ab=True, overwrite_b=True, check_finite=False)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


def _power_sum(coef, x, xq):
    """Piecewise polynomial with rows ``coef`` (highest power first) at ``xq``.

    The interval is the one whose left node is the last at or below the
    query, clipped to the first and last intervals: the count of interior
    nodes at or below it, ``searchsorted(x, xq, "right") - 1`` clipped to
    [0, n - 2].  The sum runs from the lowest power up, starting from 0.0,
    as scipy's ``PPoly`` evaluates it.
    """
    i = np.searchsorted(x[1:-1], xq, "right")
    s = xq - x[i]
    res = 0.0 + coef[-1, i]
    z = s
    for row in coef[-2::-1]:
        res = res + row[i] * z
        z = z * s
    return res


@dataclass(frozen=True)
class ImpulsePolicy:
    """Open continuation intervals plus the impulse map on their exterior.

    ``grid``/``targets`` tabulate the post-impulse position at exterior
    nodes; queries interpolate linearly and clamp beyond the table.
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

    ``generator_plus_running`` is L phi + running cost and
    ``value_minus_intervention`` is phi - M phi.  ``sup_norm`` takes the
    largest absolute complementarity defect min(L phi + l, M phi - phi)
    over interior nodes (the boundary margin excludes one-sided stencils
    and jump reach).
    """

    x: np.ndarray
    generator_plus_running: np.ndarray
    value_minus_intervention: np.ndarray
    region: np.ndarray
    interior: np.ndarray
    sup_norm: float


# ---------------------------------------------------------------------------
# intervention operator


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

# points per block of the coarse search; bounds its dense arrays at
# _COARSE_BLOCK x len(targets) whatever the number of points
_COARSE_BLOCK = 256
_REFINE_TOL = 1e-6  # bracket width at which the golden-section refinement stops
_N_TARGETS = 401  # nodes of the uniform target grid of qvi_residual
_BLOCK_SIZE = 256  # paths per block of a cost estimate, one substream each
_REGION_TOL = 1e-4  # synthesize_policy's continuation nodes have M phi - phi above this


def _affine_envelope(values, targets, points, fixed, proportional):
    """Coarse intervention search at ``points`` over ``targets``, cost ``fixed + proportional |z|``.

    ``values`` are psi at the strictly increasing ``targets``.  The coarse
    search of :func:`minimize_over_targets` is then the lower envelope
    min_j values_j + proportional |targets_j - p|, an L1 distance
    transform.  The targets at or below a point are read from one running
    minimum of values - proportional targets, up to the last target at or
    below it (``searchsorted(targets, p, "right") - 1``); those at or
    above, from one running minimum of values + proportional targets taken
    from the right, down to the first target at or above it
    (``searchsorted(targets, p, "left")``).  A point beyond the targets
    has one side empty.  That is O(len(targets)) plus two binary searches
    per point.  Returns ``(envelope, pick)``, ``pick`` the index of each
    point's winning target: exact ties go to the smallest impulse and
    equal impulses to the lower target.  The dense search counts as tied
    every objective within 1e-12 (1 + |min|) of its minimum, so the two
    picks agree where those objectives are one, or are equal in both
    roundings (as with dyadic data); a near-tie that is not exact can go to
    the smaller objective here and to the smaller impulse there.

    The QVI solver passes the nodes as points and targets; with psi read
    as the piecewise-linear interpolant of the node values the objective
    then has kinks at nodes only, so the envelope is M psi itself, the
    solver's obstacle.  :func:`synthesize_policy` (the nodes) and
    :func:`qvi_residual` (401 uniform targets) take only the picks,
    through :func:`_intervention_operator`.  Mismatched or empty shapes,
    targets that are not strictly increasing, points that are not 1-D and
    a negative ``proportional`` raise :class:`ParameterError`.
    """
    values = np.asarray(values, dtype=float)
    targets = np.asarray(targets, dtype=float)
    points = np.asarray(points, dtype=float)
    if targets.ndim != 1 or targets.size == 0 or values.shape != targets.shape:
        raise ParameterError("need matching nonempty 1-D arrays of target values and targets")
    if not np.all(np.diff(targets) > 0):
        raise ParameterError("targets must be strictly increasing")
    if points.ndim != 1:
        raise ParameterError("points must be a 1-D array")
    if proportional < 0:
        raise ParameterError("proportional intervention cost must be nonnegative")
    slope = proportional * targets
    nodes = np.arange(targets.size)
    # running argmins: the last node where the running minimum was attained
    # is the winner nearest to each node, from the left and from the right
    left = values - slope
    left_min = np.minimum.accumulate(left)
    left_pick = np.maximum.accumulate(np.where(left == left_min, nodes, 0))
    right = (values + slope)[::-1]
    right_min = np.minimum.accumulate(right)
    right_pick = nodes[-1] - np.maximum.accumulate(np.where(right == right_min, nodes, 0))[::-1]
    # below: the number of targets at or below each point; above: the index
    # of the first target at or above it
    below = np.searchsorted(targets, points, "right")
    above = np.searchsorted(targets, points, "left")
    # each side padded with an empty set, which reads +inf
    left_pick = np.append(0, left_pick)[below]
    right_pick = np.append(right_pick, 0)[above]
    shift = proportional * points
    fwd = np.append(np.inf, left_min)[below] + shift
    bwd = np.append(right_min[::-1], np.inf)[above] - shift
    nearer_right = (fwd > bwd) | (
        (fwd == bwd) & (targets[right_pick] - points < points - targets[left_pick]))
    return fixed + np.minimum(fwd, bwd), np.where(nearer_right, right_pick, left_pick)


def minimize_over_targets(value_fn, cost_fn, points, targets):
    """Vectorised M-operator: best post-impulse position for each point.

    Coarse search over ``targets`` (ties resolved toward the smallest
    impulse magnitude), then golden-section refinement of the target
    between the coarse winner's neighbours down to a width of 1e-6.
    Returns ``(values, best_targets)`` arrays.  M phi at one point ``y`` is
    the one-point call ``minimize_over_targets(value_fn, cost_fn, [y],
    targets)``, and its impulse is the best target minus ``y``.

    This is the general path, for any cost and candidate, and the oracle
    for the fast one: for an :class:`AffineInterventionCost`,
    :func:`_intervention_operator` takes the coarse winners from the L1
    envelope instead, for :func:`synthesize_policy` (the nodes as
    targets) and :func:`qvi_residual` (401 uniform targets).  The two
    paths return the same values and targets bit for bit unless the coarse
    search meets a near-tie, two objectives within its 1e-12 tolerance but
    not equal, where the envelope may pick another coarse winner (see
    :func:`_affine_envelope`); seeded tests and the benchmark grids hold
    them to equality.  The coarse search is O(len(points) * len(targets)); it runs in
    blocks of points, so its memory stays O(len(targets)) per block.
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
    return _refine_targets(value_fn, cost_fn, points, targets, pick, coarse_f)


def _refine_targets(value_fn, cost_fn, points, targets, pick, coarse_f):
    """Golden-section refinement of the coarse winners ``targets[pick]``.

    Each point's target is refined between the winner's neighbours down to
    a bracket of 1e-6, and the refined target replaces the winner only
    where its objective is below ``coarse_f``.  It runs over all points at
    once, since its iteration count depends on every point's bracket.
    """
    lo = targets[np.maximum(pick - 1, 0)]
    hi = targets[np.minimum(pick + 1, targets.size - 1)]
    a, b = lo.copy(), hi.copy()
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)

    def _eval(w):
        return value_fn(w) + cost_fn(points, w - points)

    fc, fd = _eval(c), _eval(d)
    span = np.max(hi - lo) if targets.size > 1 else 0.0
    n_iter = int(np.ceil(np.log(max(span, _REFINE_TOL) / _REFINE_TOL) / -np.log(_GOLDEN))) + 1
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


def _intervention_operator(problem, candidate, targets):
    """M psi and its best targets at the candidate's nodes, searched over ``targets``.

    The one entry for M psi: :func:`synthesize_policy` passes the nodes
    and :func:`qvi_residual` its 401 uniform targets.  For an
    :class:`AffineInterventionCost` the coarse winners are the picks of
    :func:`_affine_envelope` over the spline's values at the targets,
    O(len(targets)) plus two binary searches per node; their objective is
    evaluated as the dense search evaluates it, and the golden-section
    refinement follows, so the values and targets equal
    :func:`minimize_over_targets`'s bit for bit wherever the coarse
    winners do, which fails only at near-ties (see :func:`_affine_envelope`).
    Any other cost runs that dense search.
    """
    x = candidate.x
    _, kost = _stationary_cost(problem)
    cost = problem.intervention_cost
    if not isinstance(cost, AffineInterventionCost):
        return minimize_over_targets(candidate.psi, kost, x, targets)
    target_values = candidate.psi(targets)
    _, pick = _affine_envelope(target_values, targets, x, cost.fixed, cost.proportional)
    coarse_f = target_values[pick] + kost(x, targets[pick] - x)
    return _refine_targets(candidate.psi, kost, x, targets, pick, coarse_f)


# ---------------------------------------------------------------------------
# QVI residual and policy synthesis


def _stationary_cost(problem):
    """Running and intervention costs with the t = 0 section exposed."""
    run = lambda x: problem.running_cost(0.0, x)
    kost = lambda x, z: problem.intervention_cost(0.0, x, z)
    return run, kost


def _jump_reach(dynamics):
    """How far one mark can move the state: the largest |atom| of a
    discrete mark law, else the larger |end| of a bounded support, else 0."""
    dist = dynamics.mark_distribution
    if dist is None:
        return 0.0
    ends = dist.values if hasattr(dist, "values") else getattr(dist, "support", 0.0)
    return float(np.max(np.abs(ends)))


def qvi_residual(problem, candidate):
    """Complementarity defect of the QVI at every grid node.

    The sup norm excludes the nodes within one jump reach plus two grid
    steps of the grid ends (one-sided interpolation stencils); all nodes
    are still reported.  M phi searches 401 uniform targets over the grid
    through :func:`_intervention_operator`: the L1 envelope for an
    :class:`AffineInterventionCost`, the dense search of
    :func:`minimize_over_targets` for any other cost.  The two give the
    same bits except at a near-tie of the coarse search (see
    :func:`_affine_envelope`).  The residual stays a check independent of
    the solver: its targets are not the solver's nodes, its psi is the
    spline refined by golden-section search between targets rather than
    the piecewise-linear node values, and tests hold it bit-equal to the
    dense search on the benchmark grids.  A candidate whose
    ``discount`` is not the problem's raises :class:`ParameterError`.
    """
    if candidate.discount != problem.discount:
        raise ParameterError(f"candidate discount {candidate.discount!r} is not the "
                             f"problem's {problem.discount!r}")
    x = candidate.x
    run, _ = _stationary_cost(problem)
    field = candidate.as_scalar_field()
    gen_run = np.asarray(
        generator_apply(problem.dynamics, field, 0.0, x), dtype=float
    ) + np.asarray(run(x), dtype=float)

    targets = np.linspace(x[0], x[-1], _N_TARGETS)
    m_vals, _ = _intervention_operator(problem, candidate, targets)
    value_minus = candidate.values - m_vals

    margin = _jump_reach(problem.dynamics) + 2.0 * candidate.step
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


def synthesize_policy(problem, candidate):
    """Extract the continuation region and impulse map from a candidate.

    D is where the candidate is strictly below its intervention value
    (``M phi - phi > _REGION_TOL``, 1e-4, read at call time; the threshold
    keeps solver-level noise on the action set from fragmenting the
    region).  The impulse map on the exterior re-optimises the
    intervention operator at every exterior node and must land strictly
    inside D.

    M phi takes every node as a coarse target, through
    :func:`_intervention_operator`.  For an :class:`AffineInterventionCost`
    the coarse search is the O(n) L1 envelope; any other cost runs the
    dense O(n^2) search of :func:`minimize_over_targets`, which gives the
    same values and targets.
    """
    x = candidate.x
    m_vals, m_targets = _intervention_operator(problem, candidate, x)
    gap = m_vals - candidate.values
    inside = gap > _REGION_TOL
    if not np.any(inside):
        raise DegeneratePolicyError("the continuation region is empty")

    # the padded mask changes at the first node of every run and one past its last
    edges = np.flatnonzero(np.diff(np.concatenate(([False], inside, [False]))))
    intervals = tuple((float(x[i]), float(x[j - 1])) for i, j in zip(edges[::2], edges[1::2]))

    exterior = ~inside
    policy = ImpulsePolicy(
        intervals=intervals, grid=x[exterior].copy(), targets=m_targets[exterior].copy()
    )
    if policy.grid.size and not np.all(policy.contains(policy.targets)):
        raise NumericalError("impulse map does not land inside the continuation region")
    return policy


# ---------------------------------------------------------------------------
# closed-loop simulation and cost estimation


def simulate_controlled(problem, policy, y0, horizon, dt, stream):
    """One closed-loop path: free dynamics inside D, impulses outside.

    The state is checked at every grid and jump time (including t = 0);
    the first check that finds it outside D applies the policy's impulse
    at that instant.  A path with more than ``sde.MAX_INTERVENTIONS``
    impulses raises :class:`ChatteringError`; landing outside D,
    :class:`NumericalError`.
    """
    lane = (stream.generator, 1, policy)
    return _simulate_batch(problem.dynamics, y0, horizon, dt, [lane], record=True)[0].paths[0]


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


def estimate_cost(problem, policy, y0, n_paths, dt, stream, horizon=None):
    """Estimate the closed-loop objective from ``y0`` by Monte Carlo.

    The running cost is accumulated by the trapezoidal rule on the path
    grid, intervention costs are added at their instants, and the
    terminal cost is applied only on finite horizons.  Infinite-horizon
    problems are truncated at ``horizon`` (default 14 / discount) and the
    bound ``e^{-rho T} sup running / rho`` is reported; a bound above 1%
    of the estimate sets ``horizon_warning``.  A path with more than
    ``sde.MAX_INTERVENTIONS`` impulses raises :class:`ChatteringError`.

    Paths form fixed blocks of 256, block b on substream b, and the
    blocks are lanes of one kernel run, so the result does not depend on
    how they are stepped.
    """
    return _estimate_costs(problem, [(policy, stream)], y0, n_paths, dt, horizon=horizon)[0]


def _estimate_costs(problem, jobs, y0, n_paths, dt, horizon=None):
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
    lanes = [lane for policy, stream in jobs
             for lane in map_blocks(lambda sub, lo, hi: (sub.generator, hi - lo, policy),
                                    n_paths, stream, _BLOCK_SIZE)]
    n_blocks = len(lanes) // len(jobs)
    results = _simulate_batch(
        problem.dynamics, y0, horizon, dt, lanes, intervention_cost=problem.intervention_cost,
        integrand=problem.running_cost, trapezoid=True)

    estimates = []
    for j, (policy, _) in enumerate(jobs):
        mine = results[j * n_blocks:(j + 1) * n_blocks]
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
    that substream bit for bit.  ``workers`` is accepted and ignored.
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
