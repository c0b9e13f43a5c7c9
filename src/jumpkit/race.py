"""Multi-pattern races: who occurs first, and how long until someone does.

Writing E[T_k] for the waiting time of pattern k and E[T_k | j] for the
extra wait for k right after j completes, the race satisfies

    E[T_k] = E[T_min] + sum_{j != k} E[T_k | j] P_j

which, with the probabilities summing to one, is an M x M linear system in
(P_1, ..., P_{M-1}, E[T_min]).  The race itself is solved on the joint
matching automaton of all the patterns, whose absorption probabilities
and time give it exactly, and the system above, built from the
automaton oracle's waiting times, checks that solution whenever those
times are finite; it needs that no pattern occurs inside another.  A
vectorised Monte Carlo racer, stepping the same joint automaton,
provides the empirical cross-check.
"""

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .errors import HypothesisViolationError, NumericalError, ParameterError
from .mc import EstimateWithCI, estimate_from_samples, map_blocks
from .patterns import (
    MarkovChain,
    Pattern,
    _absorb,
    _as_source,
    _matched_lengths,
    _source_automaton,
    automaton_expected_time,
    conditional_expected_time,
)

#: Previously reported probabilities for the alternating-vs-runs race with
#: n = 5, m = 6 and a fair coin: (after prefix "10", after prefix "11",
#: unconditional).  They come from the heuristic conditional decomposition
#: reproduced by :func:`conditional_decomposition_probabilities` and
#: disagree with the exact solution; comparison reports quote them next to
#: the exact and simulated values instead of matching them.
REPORTED_REFERENCE_PROBABILITIES = (0.7895, 0.7884, 0.7889)

# relative agreement asked of the conditional-time system and the closed
# form with the joint-automaton solution
_AGREE = 1e-9
_PROB_TOL = 1e-10  # slack of the race probabilities on their sum and on [0, 1]
_BLOCK_SIZE = 8192  # trials per block of a simulated race, one substream each
MAX_TRIAL_STEPS = 1_000_000  # symbols a simulated race trial may draw before it is truncated


@dataclass(frozen=True)
class RaceResult:
    """Exact race solution.

    ``probabilities[i]`` is the chance pattern i completes first;
    ``expected_times[i]`` is its solo waiting time; ``conditional_times``
    holds E[T_i | j] with zero diagonal.
    """

    probabilities: np.ndarray
    expected_min_time: float
    expected_times: np.ndarray
    conditional_times: np.ndarray

    def validate(self):
        """Raise :class:`NumericalError` unless the solution is a race law."""
        p = self.probabilities
        if not abs(p.sum() - 1.0) <= _PROB_TOL:
            raise NumericalError(f"race probabilities sum to {float(p.sum())!r}, not 1")
        if not (np.all(p >= -_PROB_TOL) and np.all(p <= 1 + _PROB_TOL)):
            raise NumericalError(f"race probabilities {p.tolist()} leave [0, 1]")
        shortest = float(self.expected_times.min())
        if not self.expected_min_time <= shortest + 1e-9 * (1 + shortest):
            raise NumericalError(f"E[T_min] = {self.expected_min_time!r} exceeds the "
                                 f"shortest solo waiting time {shortest!r}")


@dataclass(frozen=True)
class SimulatedRace:
    """Empirical race outcome from independent trials."""

    probabilities: np.ndarray
    prob_stderr: np.ndarray
    min_time: EstimateWithCI
    n_trials: int
    n_truncated: int


def race_solve(patterns, source, initial_state=None):
    """Solve the first-occurrence race among ``patterns``.

    ``initial_state`` supplies the starting chain state for Markov
    sources.  The win probabilities and E[T_min] are the absorption law
    of the joint matching automaton, solved on the states that can still
    reach a completion, so symbols of probability zero are allowed; a
    race that can run forever raises :class:`ParameterError`.  The
    conditional-time system checks the solution whenever every waiting
    time is finite, and needs that no pattern occurs inside another
    (duplicates included); such a pair raises
    :class:`HypothesisViolationError`.  For two patterns the solution is
    also checked against the closed form

        P_1 = (E[T_2] + E[T_1|2] - E[T_1]) / (E[T_2|1] + E[T_1|2])
        E[T_min] = E[T_2] - E[T_2|1] P_1
    """
    patterns, source, automaton = _race_automaton(patterns, source, initial_state)
    m = len(patterns)
    if m < 2:
        raise ParameterError("a race needs at least two patterns")
    for inner, outer in permutations([p.symbols for p in patterns], 2):
        if len(inner) in _matched_lengths(inner, outer):
            raise HypothesisViolationError(
                f"pattern {inner} occurs inside pattern {outer}; the race system needs "
                "patterns none of which contains another (simulate_pattern_race does not)")

    probs, expected_min = _absorb(*automaton, m)
    if not np.isfinite(expected_min):
        raise ParameterError("with positive probability no pattern ever occurs")
    expected = np.array([automaton_expected_time(p, source, last_symbol=initial_state)
                         for p in patterns])
    conditional = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i != j:
                conditional[i, j] = conditional_expected_time(patterns[i], patterns[j], source)
    if np.all(np.isfinite(expected)) and np.all(np.isfinite(conditional)):
        _check_against_conditional_system(probs, expected_min, expected, conditional)

    result = RaceResult(
        probabilities=probs,
        expected_min_time=expected_min,
        expected_times=expected,
        conditional_times=conditional,
    )
    result.validate()
    return result


def _race_automaton(patterns, source, initial_state):
    """The race's patterns and source, and their joint automaton started afresh."""
    patterns = [p if isinstance(p, Pattern) else Pattern(tuple(p)) for p in patterns]
    source = _as_source(source)
    start_row = 0
    if isinstance(source, MarkovChain):
        if initial_state is None:
            raise ParameterError("Markov races need the initial chain state")
        start_row = source.index(initial_state)
    automaton = _source_automaton([p.symbols for p in patterns], source,
                                  (0,) * len(patterns), start_row)
    return patterns, source, automaton


def _check_against_conditional_system(probs, expected_min, expected, conditional):
    """Raise :class:`NumericalError` unless the M x M system agrees.

    Row k reads E[T_k] = E[T_min] + sum_j P_j conditional[k, j]; the
    diagonal of ``conditional`` is zero.
    """
    m = len(probs)
    # unknowns: (P_1, ..., P_{m-1}, E[T_min]); P_m = 1 - sum of the others
    a = np.column_stack([conditional[:, :m - 1] - conditional[:, m - 1:], np.ones(m)])
    b = expected - conditional[:, m - 1]
    try:
        sol = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"race system is singular: {exc}") from exc
    if np.max(np.abs(a @ sol - b)) > 1e-10 * max(1.0, np.max(np.abs(b))):
        raise NumericalError("race solve failed its residual check")
    system = [(sol[k], probs[k]) for k in range(m - 1)] + [(sol[m - 1], expected_min)]
    if m == 2:
        closed_p1, closed_min = _two_pattern_closed_form(expected, conditional)
        system += [(closed_p1, probs[0]), (closed_min, expected_min)]
    for check, value in system:
        if abs(check - value) > _AGREE * max(1.0, abs(value)):
            raise NumericalError(
                f"race solution {float(value)!r} disagrees with the conditional system "
                f"({float(check)!r})")


def _two_pattern_closed_form(expected, conditional):
    """(P_1, E[T_min]) of a two-pattern race from its waiting times."""
    p1 = (expected[1] + conditional[0, 1] - expected[0]) / (conditional[1, 0] + conditional[0, 1])
    return p1, expected[1] - conditional[1, 0] * p1


def run_race_probability(n, m, p):
    """Probability of n consecutive ones before m consecutive zeros.

    For iid symbols with P(1) = p this is

        p^{n-1} (1 - q^m) / (q^{m-1} + p^{n-1} - q^{m-1} p^{n-1})

    with q = 1 - p.  Equals 1/2 exactly when n = m and p = 1/2.
    """
    if n < 1 or m < 1:
        raise ParameterError("run lengths must be at least 1")
    if not 0 < p < 1:
        raise ParameterError("p must lie strictly between 0 and 1")
    q = 1.0 - p
    return p ** (n - 1) * (1.0 - q**m) / (q ** (m - 1) + p ** (n - 1) - q ** (m - 1) * p ** (n - 1))


def simulate_pattern_race(patterns, source, n_trials, stream, initial_state=None):
    """Monte Carlo race: empirical win probabilities and minimum time.

    Trials exceeding ``MAX_TRIAL_STEPS`` symbols (read at call time) are
    counted as truncated and excluded from the estimates.  Simulation is
    vectorised over fixed-size blocks of trials; block b draws from
    substream b.  Every trial steps the joint matching automaton of the
    patterns, whose lowest-indexed pattern wins simultaneous completions.
    """
    if n_trials < 1:
        raise ParameterError("n_trials must be positive")
    patterns, _, (table, law, winner) = _race_automaton(patterns, source, initial_state)
    if not patterns:
        raise ParameterError("a race needs at least one pattern")
    # a draw u picks the first symbol whose cumulative probability exceeds
    # it, else the last: symbol = sum_a [u >= cum[a, state]], a < n_sym - 1
    n_sym = table.shape[1]
    cum = np.cumsum(law, axis=1).T[:-1].copy()
    flat = table.ravel()

    def _block(sub, lo, hi):
        gen = sub.generator
        alive = np.arange(hi - lo)
        state = np.zeros(alive.size, dtype=np.int64)
        won = np.full(alive.size, -1, dtype=np.int64)
        steps = np.zeros(alive.size, dtype=np.int64)
        for step in range(1, MAX_TRIAL_STEPS + 1):
            u = gen.random(alive.size)
            cell = state * n_sym  # the state's row of ``flat``; the symbol is added
            for column in cum:
                cell += u >= column[state]
            state = flat[cell]
            hit = winner[state]
            done = hit >= 0
            if done.any():
                finished = alive[done]
                won[finished] = hit[done]
                steps[finished] = step
                alive, state = alive[~done], state[~done]
                if alive.size == 0:
                    break
        return won, steps

    results = map_blocks(_block, n_trials, stream, _BLOCK_SIZE)
    winner = np.concatenate([w for w, _ in results])
    steps = np.concatenate([s for _, s in results])

    completed = winner >= 0
    n_done = int(completed.sum())
    n_trunc = int(n_trials - n_done)
    if n_done == 0:
        raise NumericalError("every race trial hit the step cap")
    probs = np.array([(winner == k).sum() / n_done for k in range(len(patterns))])
    prob_se = np.sqrt(np.maximum(probs * (1 - probs), 0.0) / n_done)
    return SimulatedRace(
        probabilities=probs,
        prob_stderr=prob_se,
        min_time=estimate_from_samples(steps[completed]),
        n_trials=n_trials,
        n_truncated=n_trunc,
    )


# ---------------------------------------------------------------------------
# the alternating-vs-runs showcase race


def conditional_decomposition_probabilities(n, m, p=0.5):
    """Heuristic conditional system for the alternating-vs-runs race.

    Races the length-2n alternating pattern (1,0,...,1,0) against m ones
    followed by m zeros by conditioning on the first two symbols, with
    restart weights (m-2)/(2m-2) and m/(2m-2) for the runs branch.  This
    decomposition double-counts restart states and is *not* exact; it is
    kept because its output is the usual source of the reported reference
    values.  Returns (P_first, P_after_10, P_after_11).
    """
    q = 1.0 - p
    a2 = p ** (n - 1) * q ** (n - 1)
    a3 = p ** (m - 2) * q**m
    c10 = (m - 2) / (2 * m - 2)
    c1 = m / (2 * m - 2)
    # unknowns: [P(E), P(E | 1,0), P(E | 1,1)]
    a = np.array([
        [1.0 - q, -p * q, -p * p],
        [-(1.0 - a2) * 0.5, 1.0, -(1.0 - a2) * 0.5],
        [0.0, -(1.0 - a3) * (c10 + c1 * q), 1.0 - (1.0 - a3) * c1 * p],
    ])
    b = np.array([0.0, a2, 0.0])
    pe, p10, p11 = np.linalg.solve(a, b)
    return float(pe), float(p10), float(p11)


@dataclass(frozen=True)
class AlternatingRunRaceReport:
    """All pipelines for the alternating-vs-runs race, side by side."""

    n: int
    m: int
    p: float
    expected_alternating: float
    expected_runs: float
    closed_form_p1: float
    closed_form_min_time: float
    race: RaceResult
    simulated: SimulatedRace
    decomposition: tuple
    reported_reference: tuple = field(default=REPORTED_REFERENCE_PROBABILITIES)

    @property
    def pipelines_consistent(self):
        """Closed form, linear solve and simulation all agree (3 sigma)."""
        se = max(self.simulated.prob_stderr[0], 1e-12)
        return (
            abs(self.closed_form_p1 - self.race.probabilities[0]) <= 1e-10
            and abs(self.simulated.probabilities[0] - self.closed_form_p1) <= 3 * se
        )

    @property
    def reference_discrepancy(self):
        """Gap between the exact probability and the reported reference."""
        return self.closed_form_p1 - self.reported_reference[2]

    def lines(self):
        exact = self.closed_form_p1
        sim = self.simulated
        dec = self.decomposition
        ref = self.reported_reference
        out = [
            f"race: alternating (1,0)x{self.n} vs runs 1^{self.m} 0^{self.m}, p={self.p}",
            f"expected waits: E[T_alt]={self.expected_alternating:.6g}, "
            f"E[T_runs]={self.expected_runs:.6g}",
            f"exact closed form: P_1={exact:.10g}, E[T_min]={self.closed_form_min_time:.10g}",
            f"linear-system solve: P_1={self.race.probabilities[0]:.10g}, "
            f"E[T_min]={self.race.expected_min_time:.10g}",
            f"monte carlo ({sim.n_trials} trials): P_1={sim.probabilities[0]:.6g} "
            f"(se {sim.prob_stderr[0]:.2g}), E[T_min]={sim.min_time.value:.6g} "
            f"(se {sim.min_time.stderr:.2g})",
            f"conditional decomposition: P_first={dec[0]:.6g}, "
            f"P_after_10={dec[1]:.6g}, P_after_11={dec[2]:.6g}",
            f"reported reference values: after_10={ref[0]}, after_11={ref[1]}, "
            f"first={ref[2]}",
            f"discrepancy exact - reference: {self.reference_discrepancy:+.6g} "
            f"({'FLAGGED' if abs(self.reference_discrepancy) > 3 * max(sim.prob_stderr[0], 1e-12) else 'within noise'})",
            f"pipelines consistent: {self.pipelines_consistent}",
        ]
        return out


def alternating_run_race_report(n, m, p, n_trials, stream):
    """Compare every pipeline on the alternating-vs-runs race.

    Builds the exact expected waiting times, the two-pattern closed form,
    the general linear solve, a Monte Carlo estimate, and the heuristic
    conditional decomposition whose output matches the previously reported
    reference probabilities.  The report flags the discrepancy between the
    exact and reported values rather than reconciling them.
    """
    alternating = Pattern((1, 0) * n)
    runs = Pattern((1,) * m + (0,) * m)
    source = {0: 1.0 - p, 1: p}

    race = race_solve([alternating, runs], source)
    e_alt, e_runs = race.expected_times
    closed_p1, closed_min = _two_pattern_closed_form(race.expected_times, race.conditional_times)

    simulated = simulate_pattern_race([alternating, runs], source, n_trials, stream)
    decomposition = conditional_decomposition_probabilities(n, m, p)

    return AlternatingRunRaceReport(
        n=n, m=m, p=p,
        expected_alternating=float(e_alt),
        expected_runs=float(e_runs),
        closed_form_p1=float(closed_p1),
        closed_form_min_time=float(closed_min),
        race=race,
        simulated=simulated,
        decomposition=decomposition,
    )
