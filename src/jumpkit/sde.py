"""Jump-diffusion model coefficients and path simulation.

The state follows

    dX = f(t, X) dt + sigma(t, X) dW + integral of xi(t, X-, z) dN(t, z)

where N is a compound Poisson random measure with finite intensity
``jump_intensity`` and mark law ``mark_distribution``.  With
``compensated=True`` the jump integral is taken against the compensated
measure, which shifts the effective drift by minus
``jump_intensity * E[xi(t, x, z)]``.

The jump times are the renewal sequence of Exponential(jump_intensity)
gaps: ``_arrival_times``, the one sampler of renewal arrivals in the
package (:mod:`jumpkit.renewal` draws its paths with it too), draws them
and refuses a path expecting more than ``MAX_ARRIVALS`` arrivals.

Simulation is Euler-Maruyama on a uniform grid refined to include every
jump time exactly, so jump placement carries no O(dt) bias.  One kernel
steps every path in the package.  It steps a list of lanes, each a
``(generator, size, policy)`` triple, as one batch; a single path is a
lane of one.  Each lane draws from its own generator exactly what it
would draw alone: every path's jump schedule, then one normal per path per
grid step followed by that step's sub-step normals, one jumping path after
another.  The schedules come first, so the number of normals a lane takes
at each step is known before stepping starts: the kernel draws each lane's
normals for a chunk of steps in one call and reads every step's base
normals and every jumping path's sub-step normals by offset (Philox gives
the same normals drawn singly or in one call).  So every lane's numbers
are bit-identical to running it alone.  A path that jumps inside a step
takes exact sub-steps between its jump times on normals of its own, so its
base-step normal goes unused.  The k-th jumps of all jumping paths share
one masked sub-step, so time-varying coefficients may receive an array of
sub-step times in ``t``; callables must act elementwise.

One event step (Euler update, integral rule, node record and blowup
check) reaches every node, jump instant or grid node alike; at a jump
instant the jump then acts on the left limit it leaves.

Memory is bounded whatever the number of paths: lanes are stepped in runs
of at most ``_MAX_RUN_PATHS`` paths, and a run holds the normals of about
``_NOISE_CHUNK`` path-steps at a time.  A grid finer than ``MAX_STEPS``
steps is refused with :class:`ParameterError` before anything is
allocated.
"""

from dataclasses import dataclass, field

import numpy as np

from .distributions import Exponential, expectation
from .errors import (ChatteringError, DistributionError, NumericalBlowupError, NumericalError,
                     ParameterError)

BLOWUP_THRESHOLD = 1e12
MAX_STEPS = 10_000_000  # grid steps per simulation; more raise ParameterError
MAX_ARRIVALS = MAX_STEPS  # expected arrivals per path; more raise ParameterError
MAX_INTERVENTIONS = 100_000  # impulses per controlled path; more raise ChatteringError
_MAX_RUN_PATHS = 1 << 16  # paths stepped together by one run of the kernel
_NOISE_CHUNK = 1 << 16  # base normals drawn ahead at a time by one run of the kernel
_EVENT_ATOL = 1e-9  # relative slack of SamplePath.validate's post - pre = events


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
        # a zero constant compensator (symmetric marks) leaves mu as it is
        if self.compensated and self.jump_intensity > 0 and self._compensator_const != 0.0:
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

    def validate(self):
        """Raise :class:`NumericalError` unless the structural invariants hold."""
        t = self.times
        if not (t.ndim == 1 and np.all(np.diff(t) > 0)
                and self.states.shape == t.shape == self.pre_states.shape):
            raise NumericalError("path times must strictly increase, one per state")
        applied = np.zeros_like(self.states)
        events = [(r, r.size) for r in self.jumps] + [(r, r.impulse) for r in self.interventions]
        for rec, size in events:
            if not (0 <= rec.index < t.size and t[rec.index] == rec.time):
                raise NumericalError(f"event at t = {rec.time!r} is off the path's time grid")
            applied[rec.index] += size
        gap = self.states - self.pre_states - applied
        scale = np.maximum(1.0, np.abs(self.states))
        if not np.all(np.abs(gap) <= _EVENT_ATOL * scale):
            raise NumericalError("a state differs from its left limit plus the applied events")


def in_intervals(x, lo, hi):
    """Whether ``x`` lies in one of the open intervals ``(lo[k], hi[k])``.

    The interval axis comes first in ``lo`` and ``hi``; each ``lo[k]`` and
    ``hi[k]`` broadcasts against ``x``, so the bounds may differ per entry.
    """
    inside = np.zeros(np.shape(x), dtype=bool)
    for lo_k, hi_k in zip(lo, hi):
        inside |= (x > lo_k) & (x < hi_k)
    return inside


def _check_arrivals(span, mean):
    """Refuse, before any draw, a path expecting over ``MAX_ARRIVALS`` arrivals (or NaN)."""
    if not span / mean <= MAX_ARRIVALS:
        raise ParameterError(f"{span / mean:.3g} arrivals per path, more than MAX_ARRIVALS")


def _arrival_times(gen, law, horizon, start=0.0):
    """Arrivals ``start + S_k`` up to and including the first past ``horizon``.

    ``S_k`` sums the first k gaps of ``law``, drawn in chunks of 1.5 times
    the expected count; a gap that is not positive raises
    :class:`DistributionError`.
    """
    _check_arrivals(horizon - start, law.mean)
    chunk = max(8, int(1.5 * (horizon - start) / law.mean) + 1)
    parts = []
    while True:
        gaps = np.asarray(law.sample(gen, chunk), dtype=float)
        if not gaps.min() > 0:
            raise DistributionError("interarrival sampler produced a gap that is not positive")
        times = start + gaps.cumsum()
        if times[-1] > horizon:
            parts.append(times[:times.searchsorted(horizon, "right") + 1])
            return np.concatenate(parts)
        parts.append(times)
        start = times[-1]


def _sample_jump_schedule(gen, law, mark_distribution, horizon):
    """Jump times on ``(0, horizon]`` with Exponential ``law`` gaps (None: none), and marks."""
    if law is None:
        return np.empty(0), np.empty(0)
    times = _arrival_times(gen, law, horizon)[:-1]
    marks = np.asarray(mark_distribution.sample(gen, times.size), dtype=float)
    return times, marks


def sample_jump_times(stream, intensity, mark_distribution, horizon):
    """Draw exact Poisson jump times on ``(0, horizon]`` with iid marks.

    Returns ``(times, marks)`` as float arrays; both are empty when the
    intensity is zero.  More than ``MAX_ARRIVALS`` expected jumps raise
    :class:`ParameterError` before anything is drawn.
    """
    if not intensity >= 0:
        raise ParameterError(f"intensity must be nonnegative, got {intensity}")
    if horizon <= 0:
        raise ParameterError(f"horizon must be positive, got {horizon}")
    law = Exponential(intensity) if intensity > 0 else None
    return _sample_jump_schedule(stream.generator, law, mark_distribution, horizon)


# ---------------------------------------------------------------------------
# the stepping kernel


class _PathLog:
    """Node-by-node record of one path, assembled into a SamplePath."""

    def __init__(self, x0):
        self.times, self.pre, self.post, self.jumps, self.interventions = [0.0], [x0], [x0], [], []

    def node(self, t, x):
        if t > self.times[-1]:  # a zero-length step (a jump at the step end) adds no node
            self.times.append(t)
            self.pre.append(x)
            self.post.append(x)

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


def _simulate_batch(spec, x0, horizon, dt, lanes, intervention_cost=None, integrand=None,
                    trapezoid=False, record=False):
    """Step the paths of ``lanes`` from ``x0`` on ``ceil(horizon / dt)`` uniform steps.

    ``lanes`` is an iterable of ``(generator, size, policy)``: ``size``
    paths drawn from ``generator`` and steered by ``policy`` (either every
    lane carries a policy or none does; no two lanes share a generator).
    A lane draws exactly what it would draw stepped alone: every path's
    jump schedule in path order, then per step one normal per path and, if
    paths jump in it, their sub-step normals in path order.  The kernel
    draws these normals ahead, one call per lane for each chunk of
    ``max(1, _NOISE_CHUNK // paths)`` steps, in the same order.  A lane's
    numbers are therefore bit-identical to a run of that lane alone, for
    callables that act elementwise.  Lanes are consumed in order and
    stepped together in runs of at most ``_MAX_RUN_PATHS`` paths (a larger
    lane runs alone), so memory stays bounded whatever the number of lanes.

    A ``policy`` gives its continuation region as ``bounds()``, open
    intervals tested by :func:`in_intervals`, and its impulses as
    ``impulse(x)``.  It acts at t = 0, interior grid nodes and jump
    instants, charging ``intervention_cost`` (if given) to the integral;
    a path's impulse past ``MAX_INTERVENTIONS`` raises
    :class:`ChatteringError`.
    ``integrand(t, x)`` is integrated per path by the trapezoid rule on
    (post-event left, pre-event right) values if ``trapezoid``, else at
    post-event left points.  Returns one :class:`_LaneResult` per lane.

    One event step (Euler update, integral rule, node record and blowup
    check) serves the paths of a jump round at their jump instants and the
    whole batch at a grid node, where a path that jumped in the step steps
    from its last jump.
    """
    h, ends = _uniform_grid(horizon, dt)
    options = dict(intervention_cost=intervention_cost, integrand=integrand,
                   trapezoid=trapezoid, record=record)
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


def _step_lanes(spec, x0, h, ends, lanes, intervention_cost, integrand, trapezoid, record):
    """One run of the kernel over ``lanes``; see :func:`_simulate_batch`."""
    gens = [gen for gen, _, _ in lanes]
    policies = [policy for _, _, policy in lanes]
    sizes = np.array([size for _, size, _ in lanes], dtype=np.int64)
    n_lanes, size, n_steps = len(lanes), int(sizes.sum()), ends.size
    starts = np.cumsum(sizes) - sizes
    lane_of = np.repeat(np.arange(n_lanes), sizes)
    rows = np.arange(size)
    local = rows - starts[lane_of]  # each path's place in its lane

    law = Exponential(spec.jump_intensity) if spec.jump_intensity > 0 else None
    schedules = [_sample_jump_schedule(gen, law, spec.mark_distribution, ends[-1])
                 for gen, n, _ in lanes for _ in range(n)]
    n_jumps = np.array([times.size for times, _ in schedules], dtype=np.int64)
    jump_t, jump_z = (np.concatenate(parts) for parts in zip(*schedules))
    owner = np.repeat(np.arange(size), n_jumps)
    # step k spans (ends[k - 1], ends[k]]; one path's jumps inside one step
    # form a pair (contiguous in jump_t), and a step's pairs a group
    keys, pair_at, pair_count = np.unique(np.searchsorted(ends, jump_t) * size + owner,
                                          return_index=True, return_counts=True)
    pair_step, pair_path = np.divmod(keys, size)
    pair_lane = lane_of[pair_path]
    # a pair takes one sub-step per jump and one more for a tail of positive
    # length from its last jump to the step end; its lane draws the sub-step
    # normals after its base normals of the step and those of its earlier
    # pairs there (a lane's pairs in one step are contiguous)
    pair_last = jump_t[pair_at + pair_count - 1]
    pair_tail = ends[pair_step] - pair_last
    pair_sub = pair_count + (pair_tail > 0)
    drawn = np.cumsum(pair_sub) - pair_sub
    _, cell_at, cell_of = np.unique(pair_step * n_lanes + pair_lane, return_index=True,
                                    return_inverse=True)
    pair_skip = sizes[pair_lane] + drawn - drawn[cell_at][cell_of]
    steps, group_at = np.unique(pair_step, return_index=True)
    cuts = np.append(group_at, keys.size).tolist()
    rounds = np.maximum.reduceat(pair_count, group_at).tolist() if keys.size else []
    groups = dict(zip(steps.tolist(), zip(cuts, cuts[1:], rounds)))

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

    def _draw(k0, k1):
        """Every lane's normals for steps ``k0:k1``, each lane's in one call.

        Returns the base normals, one row per step, the flat buffer, and the
        places in it of the first and the last sub-step normal of every pair
        from the chunk's first pair ``j0`` on.
        """
        j0, j1 = np.searchsorted(pair_step, [k0, k1]).tolist()
        need = np.tile(sizes, (k1 - k0, 1))  # normals per step and lane
        np.add.at(need, (pair_step[j0:j1] - k0, pair_lane[j0:j1]), pair_sub[j0:j1])
        need = need.T  # lane-major: each lane's draws in the order it makes them
        at = (np.cumsum(need) - need.ravel()).reshape(need.shape)
        noise = np.empty(at[-1, -1] + need[-1, -1])
        cuts = at[:, 0].tolist() + [noise.size]
        for gen, a, b in zip(gens, cuts, cuts[1:]):
            gen.standard_normal(out=noise[a:b])
        first = at[pair_lane[j0:j1], pair_step[j0:j1] - k0] + pair_skip[j0:j1]
        index = at.T[:, lane_of]
        index += local  # in place: the chunk holds one index array, not two
        return noise[index], noise, first, first + pair_sub[j0:j1] - 1, j0

    def _advance(sel, t0, h0, root, z, t1):
        """Event step of the paths ``sel`` from ``t0`` by ``h0`` to ``t1``; returns their states.

        ``sel`` is a jump round's index array, or ``slice(None)``: the whole
        batch, stepped in place on a view of ``x``.  ``t1`` is a float at a
        grid node and an array of jump times in a jump round, which stores
        ``left`` itself after the jump.
        """
        at_node = isinstance(t1, float)
        xs = x[sel]
        # both coefficients read the state before the step; xs changes after
        drift = spec.effective_drift(t0, xs) * h0
        shock = spec.diffusion(t0, xs) * root * z
        xs += drift
        xs += shock
        if integrand is not None:
            right = integrand(t1, xs)
            seg = left[sel]
            if trapezoid:
                seg += right
            seg *= 0.5 * h0 if trapezoid else h0
            integral[sel] += seg
            if at_node:
                left[sel] = right
        if logs is not None:
            times = [t1] * xs.size if at_node else t1.tolist()
            for p, tp, xp in zip(rows[sel].tolist(), times, xs.tolist()):
                logs[p].node(tp, xp)
        return xs

    def _blowup(xs, t1):
        """|xs|, after refusing a state past ``BLOWUP_THRESHOLD`` (or NaN) at time(s) ``t1``."""
        magnitude = np.abs(xs)
        worst = magnitude.max()
        if not worst <= BLOWUP_THRESHOLD:
            when = float(np.broadcast_to(t1, xs.shape)[~(magnitude <= BLOWUP_THRESHOLD)][0])
            raise NumericalBlowupError(f"a path blew up to {float(worst)!r} at t={when}",
                                       time=when)
        return magnitude

    def _apply_policy(sel, t, xs):
        """Impulse the paths ``sel``, at ``xs``, that lie outside D at time(s) ``t``."""
        inside = in_intervals(xs, lower[:, sel], upper[:, sel])
        if inside.all():
            return
        out = ~inside
        hit, t_hit, before = rows[sel][out], t[out] if np.ndim(t) else t, xs[out]
        hit_lane = lane_of[hit]
        z = np.empty(hit.size)
        # hit ascends and a lane's rows are contiguous, so each lane's hits form one run
        cuts = [0, *(np.flatnonzero(np.diff(hit_lane)) + 1).tolist(), hit.size]
        for a, b in zip(cuts, cuts[1:]):
            z[a:b] = policies[hit_lane[a]].impulse(before[a:b])
        if intervention_cost is not None:
            integral[hit] += intervention_cost(t_hit, before, z)
        after = before + z
        x[hit] = after
        n_int[hit] += 1
        if logs is not None:
            for p, tp, zp, xp in np.broadcast(hit, t_hit, z, after):
                logs[p].intervention(tp, zp, xp)
        capped = n_int[hit] > MAX_INTERVENTIONS
        if capped.any():
            raise ChatteringError(f"a path exceeded {MAX_INTERVENTIONS} interventions "
                                  f"by t={np.broadcast_to(t_hit, hit.shape)[capped][0]}")
        landed = in_intervals(after, lower[:, hit], upper[:, hit])
        if not landed.all():
            when = float(np.broadcast_to(t_hit, hit.shape)[~landed][0])
            raise NumericalError(f"an impulse at t={when!r} failed to return the state "
                                 "to the continuation region")
        if integrand is not None:
            left[hit] = integrand(t_hit, after)

    def _jump_substeps(lo, hi, n_rounds, t, noise, first):
        """Step the paths of pairs ``lo:hi`` from ``t`` through their jumps."""
        sel, at, nrm, now, count = pair_path[lo:hi], pair_at[lo:hi], first, t, pair_count[lo:hi]
        # the r-th jumps of all paths that have one share a masked sub-step
        for r in range(n_rounds):
            if r:
                more = count > r
                sel, at, nrm, now, count = sel[more], at[more] + 1, nrm[more] + 1, tau[more], \
                    count[more]
            tau, marks = jump_t[at], jump_z[at]
            h1 = tau - now
            xs = _advance(sel, now, h1, np.sqrt(h1), noise[nrm], tau)
            applied = spec.jump_coefficient(tau, xs, marks)
            xs = xs + applied
            x[sel] = xs
            _blowup(xs, tau)
            if logs is not None:
                for p, tp, mp, sp, xp in np.broadcast(sel, tau, marks, applied, xs):
                    logs[p].jump(tp, mp, sp, xp)
            if integrand is not None:
                left[sel] = integrand(tau, xs)
            if policed:
                _apply_policy(sel, tau, xs)

    every = slice(None)
    if policed:
        _apply_policy(every, 0.0, x)
    if integrand is not None:
        left[:] = integrand(0.0, x)
    ends_list, root_h = ends.tolist(), np.sqrt(h)
    chunk = max(1, _NOISE_CHUNK // size)
    t = 0.0
    for k0 in range(0, n_steps, chunk):
        base = noise = z = None  # free the last chunk before drawing the next
        base, noise, first, last, j0 = _draw(k0, min(k0 + chunk, n_steps))
        for k, z in enumerate(base, start=k0):
            te = ends_list[k]
            if k in groups:
                lo, hi, n_rounds = groups[k]
                _jump_substeps(lo, hi, n_rounds, t, noise, first[lo - j0:hi - j0])
                # a jumping path's base step is its tail from its last jump to
                # te, on the pair's last normal; a jump exactly at te leaves a
                # zero-length tail, and that normal then meets sqrt(0)
                jumpers = pair_path[lo:hi]
                z[jumpers] = noise[last[lo - j0:hi - j0]]
                t0, h0 = np.full(size, t), np.full(size, h)
                t0[jumpers], h0[jumpers] = pair_last[lo:hi], pair_tail[lo:hi]
                root = np.sqrt(h0)
            else:
                t0, h0, root = t, h, root_h
            np.maximum(peak, _blowup(_advance(every, t0, h0, root, z, te), te), out=peak)
            if policed and k + 1 < n_steps:
                _apply_policy(every, te, x)
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
