"""Jump-diffusion model coefficients and path simulation.

The state follows

    dX = f(t, X) dt + sigma(t, X) dW + integral of xi(t, X-, z) dN(t, z)

where N is a compound Poisson random measure with finite intensity
``jump_intensity`` and mark law ``mark_distribution``.  With
``compensated=True`` the jump integral is taken against the compensated
measure, which shifts the effective drift by minus
``jump_intensity * E[xi(t, x, z)]``.

Simulation is Euler-Maruyama on a uniform grid refined to include every
jump time exactly, so jump placement carries no O(dt) bias.  One kernel
steps every path in the package.  It steps a list of lanes, each a
``(generator, size, policy)`` triple, as one batch; a single path is a
lane of one.  Each lane draws from its own generator exactly what it
would draw alone: every path's jump schedule, then one normal per path per
grid step followed by that step's sub-step normals, one jumping path after
another (Philox gives the same normals drawn singly or in one call).  So
every lane's numbers are bit-identical to running it alone.  A path that
jumps inside a step takes exact sub-steps between its jump times on
normals of its own, so its base-step normal goes unused.  The k-th jumps
of all jumping paths share one masked sub-step, so time-varying
coefficients may receive an array of sub-step times in ``t``; callables
must act elementwise.

Memory is bounded whatever the number of paths: lanes are stepped in runs
of at most ``_MAX_RUN_PATHS`` paths.  A grid finer than ``MAX_STEPS``
steps is refused with :class:`ParameterError` before anything is
allocated.
"""

from dataclasses import dataclass, field

import numpy as np

from .distributions import expectation
from .errors import ChatteringError, NumericalBlowupError, NumericalError, ParameterError

BLOWUP_THRESHOLD = 1e12
MAX_STEPS = 10_000_000  # grid steps per simulation; more raise ParameterError
_MAX_RUN_PATHS = 1 << 16  # paths stepped together by one run of the kernel


def _identity_mark(t, x, z):
    return z


@dataclass
class JumpDiffusionSpec:
    """Coefficients of a 1-D jump diffusion.

    ``drift`` and ``diffusion`` are callables of ``(t, x)``;
    ``jump_coefficient`` maps ``(t, x, z)`` to the applied jump size and
    defaults to the raw mark ``z``.  Callables must accept numpy arrays in
    every argument, ``t`` included (an array of per-path sub-step times).
    """

    drift: callable
    diffusion: callable
    jump_intensity: float = 0.0
    mark_distribution: object = None
    jump_coefficient: callable = field(default=_identity_mark)
    compensated: bool = False

    def __post_init__(self):
        if not np.isfinite(self.jump_intensity) or self.jump_intensity < 0:
            raise ParameterError(
                f"jump intensity must be finite and nonnegative, got {self.jump_intensity}"
            )
        if self.jump_intensity > 0 and self.mark_distribution is None:
            raise ParameterError("positive jump intensity requires a mark distribution")
        # state-independent coefficient xi = z admits a constant compensator
        self._compensator_const = (
            self.jump_intensity * self.mark_distribution.mean
            if self.jump_intensity > 0 and self.jump_coefficient is _identity_mark
            else None
        )

    def compensator(self, t, x):
        """Drift correction ``jump_intensity * E[xi(t, x, z)]``; marks on an extra axis."""
        if self.jump_intensity == 0:
            return 0.0
        if self._compensator_const is not None:
            return self._compensator_const
        x = np.asarray(x, dtype=float)
        tb = np.asarray(t)[..., None] if np.ndim(t) else t
        return self.jump_intensity * expectation(
            self.mark_distribution, lambda z: self.jump_coefficient(tb, x[..., None], z)
        )

    def effective_drift(self, t, x):
        mu = self.drift(t, x)
        if self.compensated and self.jump_intensity > 0:
            mu = mu - self.compensator(t, x)
        return mu


@dataclass(frozen=True)
class JumpRecord:
    index: int
    time: float
    mark: float
    size: float


@dataclass(frozen=True)
class InterventionRecord:
    index: int
    time: float
    impulse: float


@dataclass
class SamplePath:
    """One simulated trajectory.

    ``states[k]`` is the value after any event at ``times[k]``;
    ``pre_states[k]`` is the left limit x(t-).  They differ exactly at
    recorded jump and intervention instants.
    """

    times: np.ndarray
    states: np.ndarray
    pre_states: np.ndarray
    jumps: list
    interventions: list

    @property
    def initial_state(self):
        return float(self.pre_states[0])

    @property
    def final_state(self):
        return float(self.states[-1])

    def validate(self, atol=1e-9):
        """Check the structural invariants; raises AssertionError on failure."""
        t = self.times
        assert t.ndim == 1 and np.all(np.diff(t) > 0), "times must strictly increase"
        assert self.states.shape == t.shape == self.pre_states.shape
        applied = np.zeros_like(self.states)
        for rec in self.jumps:
            assert t[0] <= rec.time <= t[-1]
            assert t[rec.index] == rec.time
            applied[rec.index] += rec.size
        for rec in self.interventions:
            assert t[0] <= rec.time <= t[-1]
            assert t[rec.index] == rec.time
            applied[rec.index] += rec.impulse
        gap = self.states - self.pre_states - applied
        scale = np.maximum(1.0, np.abs(self.states))
        assert np.all(np.abs(gap) <= atol * scale), "post - pre must equal applied events"


def in_intervals(x, lo, hi):
    """Whether ``x`` lies in one of the open intervals ``(lo[k], hi[k])``.

    The interval axis comes first in ``lo`` and ``hi``; each ``lo[k]`` and
    ``hi[k]`` broadcasts against ``x``, so the bounds may differ per entry.
    """
    inside = np.zeros(np.shape(x), dtype=bool)
    for lo_k, hi_k in zip(lo, hi):
        inside |= (x > lo_k) & (x < hi_k)
    return inside


def _sample_jump_schedule(gen, intensity, mark_distribution, horizon):
    """Generator-level jump schedule: exact exponential interarrivals."""
    if intensity == 0:
        return np.empty(0), np.empty(0)
    scale = 1.0 / intensity
    chunk = max(8, int(1.5 * intensity * horizon) + 1)
    times = []
    total = 0.0
    while True:
        gaps = gen.exponential(scale, size=chunk)
        arrivals = total + np.cumsum(gaps)
        inside = arrivals[arrivals <= horizon]
        times.append(inside)
        if inside.size < arrivals.size:
            break
        total = arrivals[-1]
    times = np.concatenate(times)
    marks = np.asarray(mark_distribution.sample(gen, times.size), dtype=float)
    return times, marks


def sample_jump_times(stream, intensity, mark_distribution, horizon):
    """Draw exact Poisson jump times on ``(0, horizon]`` with iid marks.

    Returns ``(times, marks)`` as float arrays; both are empty when the
    intensity is zero.
    """
    if intensity < 0:
        raise ParameterError(f"intensity must be nonnegative, got {intensity}")
    if horizon <= 0:
        raise ParameterError(f"horizon must be positive, got {horizon}")
    return _sample_jump_schedule(stream.generator, intensity, mark_distribution, horizon)


# ---------------------------------------------------------------------------
# the stepping kernel


class _PathLog:
    """Node-by-node record of one path, assembled into a SamplePath."""

    def __init__(self, x0):
        self.times, self.pre, self.post, self.jumps, self.interventions = [0.0], [x0], [x0], [], []

    def node(self, t, x):
        self.times.append(float(t))
        self.pre.append(float(x))
        self.post.append(float(x))

    def jump(self, t, mark, size, x):
        self.jumps.append(JumpRecord(len(self.times) - 1, float(t), float(mark), float(size)))
        self.post[-1] = float(x)

    def intervention(self, t, impulse, x):
        self.interventions.append(InterventionRecord(len(self.times) - 1, float(t), float(impulse)))
        self.post[-1] = float(x)

    def path(self):
        return SamplePath(np.array(self.times), np.array(self.post), np.array(self.pre),
                          self.jumps, self.interventions)


@dataclass(frozen=True)
class _LaneResult:
    """One lane's share of a kernel run.

    ``x`` and ``integral`` hold each path's final state and integral,
    ``peak`` the largest |x| at grid nodes (0 at least), ``interventions``
    and ``jumps`` the totals over the lane's paths, and ``paths`` the
    SamplePaths of a recorded run.
    """

    x: np.ndarray
    integral: np.ndarray
    peak: float
    interventions: int
    jumps: int
    paths: list = None


def _uniform_grid(horizon, dt):
    """Step length and right step ends of ``ceil(horizon / dt)`` uniform steps."""
    if not (dt > 0 and horizon > 0):
        raise ParameterError("dt and horizon must be positive")
    steps = np.ceil(horizon / dt - 1e-12)
    if not steps <= MAX_STEPS:
        raise ParameterError(f"horizon / dt = {horizon / dt:.3g} asks for more than "
                             f"MAX_STEPS = {MAX_STEPS} grid steps")
    n_steps = max(1, int(steps))
    h = horizon / n_steps
    ends = h * np.arange(1, n_steps + 1)
    ends[-1] = horizon
    return h, ends


def _simulate_batch(spec, x0, horizon, dt, lanes, intervention_cost=None,
                    max_interventions=None, integrand=None, trapezoid=False, record=False):
    """Step the paths of ``lanes`` from ``x0`` on ``ceil(horizon / dt)`` uniform steps.

    ``lanes`` is an iterable of ``(generator, size, policy)``: ``size``
    paths drawn from ``generator`` and steered by ``policy`` (either every
    lane carries a policy or none does).  A lane draws exactly what it
    would draw stepped alone: every path's jump schedule in path order,
    then per step one normal per path and, if paths jump in it, their
    sub-step normals in path order.  Its numbers are therefore
    bit-identical to a run of that lane alone, for callables that act
    elementwise.  Lanes are consumed in order and stepped together in runs
    of at most ``_MAX_RUN_PATHS`` paths (a larger lane runs alone), so
    memory stays bounded whatever the number of lanes.

    A ``policy`` gives its continuation region as ``bounds()``, open
    intervals tested by :func:`in_intervals`, and its impulses as
    ``impulse(x)``.  It acts at t = 0, interior grid nodes and jump
    instants, charging ``intervention_cost`` (if given) to the integral.
    ``integrand(t, x)`` is integrated per path by the trapezoid rule on
    (post-event left, pre-event right) values if ``trapezoid``, else at
    post-event left points.  Returns one :class:`_LaneResult` per lane.
    """
    h, ends = _uniform_grid(horizon, dt)
    options = dict(intervention_cost=intervention_cost, max_interventions=max_interventions,
                   integrand=integrand, trapezoid=trapezoid, record=record)
    results, run, run_size = [], [], 0
    for lane in lanes:
        if run and run_size + lane[1] > _MAX_RUN_PATHS:
            results += _step_lanes(spec, x0, h, ends, run, **options)
            run, run_size = [], 0
        run.append(lane)
        run_size += lane[1]
    if run:
        results += _step_lanes(spec, x0, h, ends, run, **options)
    return results


def _step_lanes(spec, x0, h, ends, lanes, intervention_cost, max_interventions, integrand,
                trapezoid, record):
    """One run of the kernel over ``lanes``; see :func:`_simulate_batch`."""
    gens = [gen for gen, _, _ in lanes]
    policies = [policy for _, _, policy in lanes]
    sizes = np.array([size for _, size, _ in lanes], dtype=np.int64)
    n_lanes, size, n_steps = len(lanes), int(sizes.sum()), ends.size
    starts = np.cumsum(sizes) - sizes
    lane_of = np.repeat(np.arange(n_lanes), sizes)
    spans = list(zip(gens, starts.tolist(), (starts + sizes).tolist()))

    schedules = [_sample_jump_schedule(gen, spec.jump_intensity, spec.mark_distribution, ends[-1])
                 for gen, n, _ in lanes for _ in range(n)]
    n_jumps = np.array([times.size for times, _ in schedules], dtype=np.int64)
    jump_t, jump_z = (np.concatenate(parts) for parts in zip(*schedules))
    owner = np.repeat(np.arange(size), n_jumps)
    # step k spans (ends[k - 1], ends[k]]; one path's jumps inside one step
    # form a pair (contiguous in jump_t), and a step's pairs a group
    keys, pair_at, pair_count = np.unique(np.searchsorted(ends, jump_t) * size + owner,
                                          return_index=True, return_counts=True)
    pair_step, pair_path = np.divmod(keys, size)
    pair_gen = [gens[lane] for lane in lane_of[pair_path].tolist()]
    steps, group_at = np.unique(pair_step, return_index=True)
    cuts = np.append(group_at, keys.size).tolist()
    groups = dict(zip(steps.tolist(), zip(cuts, cuts[1:])))

    everyone, rows = slice(None), np.arange(size)
    x = np.full(size, float(x0))
    integral, left = np.zeros(size), np.zeros(size)  # left: integrand after the latest node
    peak = np.zeros(size)
    n_int = np.zeros(size, dtype=np.int64)
    logs = [_PathLog(float(x0)) for _ in range(size)] if record else None

    policed = policies[0] is not None
    if policed:
        # each path's interval bounds, interval axis first; lanes with fewer
        # intervals are padded with empty ones
        lane_bounds = [policy.bounds() for policy in policies]
        n_intervals = max(lo.size for lo, _ in lane_bounds)
        lower = np.full((n_intervals, n_lanes), np.inf)
        upper = np.full((n_intervals, n_lanes), -np.inf)
        for lane, (lo, hi) in enumerate(lane_bounds):
            lower[:lo.size, lane], upper[:hi.size, lane] = lo, hi
        lower, upper = lower[:, lane_of], upper[:, lane_of]

    def _advance(idx, t0, t1, step, noise):
        """Euler sub-step of the paths ``idx`` from ``t0`` to the node ``t1``."""
        xs = x[idx]
        xs = xs + spec.effective_drift(t0, xs) * step \
            + spec.diffusion(t0, xs) * np.sqrt(step) * noise
        x[idx] = xs
        if integrand is not None:
            right = integrand(t1, xs)
            integral[idx] += 0.5 * step * (left[idx] + right) if trapezoid else step * left[idx]
            left[idx] = right
        if logs is not None and np.ndim(step) == 0:  # a plain step of every path
            for log, xp in zip(logs, xs.tolist()):
                log.node(t1, xp)
        elif logs is not None:
            for p, tp, xp, hp in np.broadcast(rows[idx], t1, xs, step):
                if hp > 0:
                    logs[p].node(tp, xp)

    def _apply_policy(idx, t):
        """Impulse the paths of ``idx`` that lie outside their lane's D at time(s) ``t``."""
        xs = x[idx]
        out = ~in_intervals(xs, lower[:, idx], upper[:, idx])
        if not out.any():
            return
        hit, t_hit, before = rows[idx][out], t[out] if np.ndim(t) else t, xs[out]
        hit_lane = lane_of[hit]
        z = np.empty(hit.size)
        for lane in np.unique(hit_lane).tolist():
            mine = hit_lane == lane
            z[mine] = policies[lane].impulse(before[mine])
        if intervention_cost is not None:
            integral[hit] += intervention_cost(t_hit, before, z)
        after = before + z
        x[hit] = after
        n_int[hit] += 1
        if logs is not None:
            for p, tp, zp, xp in np.broadcast(hit, t_hit, z, after):
                logs[p].intervention(tp, zp, xp)
        capped = n_int[hit] > max_interventions
        if capped.any():
            raise ChatteringError(f"a path exceeded {max_interventions} interventions "
                                  f"by t={np.broadcast_to(t_hit, hit.shape)[capped][0]}")
        missed = ~in_intervals(after, lower[:, hit], upper[:, hit])
        if missed.any():
            when = float(np.broadcast_to(t_hit, hit.shape)[missed][0])
            raise NumericalError(f"an impulse at t={when!r} failed to return the state "
                                 "to the continuation region")
        if integrand is not None:
            left[hit] = integrand(t_hit, after)

    def _jump_substeps(lo, hi, t, te, z):
        """Step pairs ``lo:hi`` through (t, te]; returns every path's last sub-step."""
        jumpers, at, count = pair_path[lo:hi], pair_at[lo:hi], pair_count[lo:hi]
        last = jump_t[at + count - 1]
        tail = te - last
        n_sub = count + (tail > 0)
        first = np.cumsum(n_sub) - n_sub
        # each jumping path draws its sub-step normals from its own lane
        normals = np.concatenate([gen.standard_normal(n)
                                  for gen, n in zip(pair_gen[lo:hi], n_sub.tolist())])
        # the k-th jumps of all paths that have one share a masked sub-step
        sel, now, nrm, remaining = jumpers, t, first, count
        while True:
            tau, marks = jump_t[at], jump_z[at]
            _advance(sel, now, tau, tau - now, normals[nrm])
            applied = spec.jump_coefficient(tau, x[sel], marks)
            xs = x[sel] + applied
            x[sel] = xs
            bad = ~(np.abs(xs) <= BLOWUP_THRESHOLD)
            if bad.any():
                when = float(tau[bad][0])
                raise NumericalBlowupError(f"a path blew up at t={when}", time=when)
            if logs is not None:
                for p, tp, mp, sp, xp in np.broadcast(sel, tau, marks, applied, xs):
                    logs[p].jump(tp, mp, sp, xp)
            if integrand is not None:
                left[sel] = integrand(tau, xs)
            if policed:
                _apply_policy(sel, tau)
            more = remaining > 1
            if not more.any():
                break
            sel, at, nrm, now = sel[more], at[more] + 1, nrm[more] + 1, tau[more]
            remaining = remaining[more] - 1
        # the tail to te joins the other paths' base step; a jump exactly at
        # te leaves a zero-length tail whose placeholder noise meets sqrt(0)
        t_left, step = np.full(size, t), np.full(size, h)
        t_left[jumpers], step[jumpers] = last, tail
        z[jumpers] = normals[np.minimum(first + count, normals.size - 1)]
        return t_left, step, z

    if policed:
        _apply_policy(everyone, 0.0)
    if integrand is not None:
        left[:] = integrand(0.0, x)
    t = 0.0
    for k, te in enumerate(ends.tolist()):
        z = np.empty(size)
        for gen, a, b in spans:
            gen.standard_normal(out=z[a:b])
        t_left, step = t, h
        if k in groups:
            t_left, step, z = _jump_substeps(*groups[k], t, te, z)
        _advance(everyone, t_left, te, step, z)
        size_now = np.abs(x)
        worst = size_now.max()
        if not worst <= BLOWUP_THRESHOLD:
            raise NumericalBlowupError(f"a path blew up to {float(worst)!r} at t={te}", time=te)
        np.maximum(peak, size_now, out=peak)
        if policed and k + 1 < n_steps:
            _apply_policy(everyone, te)
        t = te

    lane_peak = np.maximum.reduceat(peak, starts).tolist()
    lane_int = np.add.reduceat(n_int, starts).tolist()
    lane_jumps = np.add.reduceat(n_jumps, starts).tolist()
    paths = [log.path() for log in logs] if record else None
    return [_LaneResult(x[a:a + n], integral[a:a + n], lane_peak[i], lane_int[i], lane_jumps[i],
                        paths[a:a + n] if record else None)
            for i, (a, n) in enumerate(zip(starts.tolist(), sizes.tolist()))]


def simulate_jump_diffusion(spec, x0, horizon, dt, stream):
    """Euler-Maruyama path of ``spec`` started at ``x0`` on ``[0, horizon]``.

    The uniform grid of step at most ``dt`` is refined with the exact jump
    times; jumps are applied to the left limit at their own grid node.
    This is the stepping kernel run on one recorded lane of one path.
    Raises :class:`NumericalBlowupError` if the state passes 1e12 in
    magnitude and :class:`ParameterError` beyond ``MAX_STEPS`` steps.
    """
    lane = (stream.generator, 1, None)
    return _simulate_batch(spec, x0, horizon, dt, [lane], record=True)[0].paths[0]
