"""Pattern occurrence in iid and Markov-modulated symbol streams.

Two independent routes to every expected waiting time:

* closed forms built from the stationary distribution, path
  probabilities and mean hitting times of the source;
* an exact automaton oracle: the expected absorption time of the
  pattern's matching automaton, from a linear solve.  The oracle needs
  no overlap hypotheses and is the arbiter whenever the closed forms do
  not apply.

One string matcher serves the layer: the prefix function
``failure_function`` and the matching automaton ``_transition_table``
built from it (Knuth, Morris & Pratt).  Overlaps, border chains,
carry-over and containment between patterns are all read from them.

One builder, ``_source_automaton``, makes the matching automaton for
iid and Markov sources alike: its states pair the matched length of
every pattern with the source row, so the same table serves the oracle
(one pattern) and the Monte Carlo race in :mod:`jumpkit.race` (many).

Waiting times count observed symbols.  ``expected_time_markov`` and
``expected_time_iid`` give the expected gap between completions when the
matcher restarts from scratch after each completion; started from the
chain state equal to the pattern's last symbol this is also the expected
first-occurrence time, which is how the automaton cross-checks them.
"""

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import HypothesisViolationError, NumericalError, ParameterError


@dataclass(frozen=True)
class Pattern:
    """A nonempty finite symbol sequence.

    Its symbols are checked against a source's alphabet where the pattern
    meets the source, in ``_source_automaton``.

    >>> Pattern((1, 0, 1, 0)).overlap
    2
    """

    symbols: tuple

    def __post_init__(self):
        symbols = tuple(self.symbols)
        object.__setattr__(self, "symbols", symbols)
        if len(symbols) == 0:
            raise ParameterError("pattern must be nonempty")

    def __len__(self):
        return len(self.symbols)

    @property
    def overlap(self):
        return overlap_size(self)


def _symbols(pattern):
    return pattern.symbols if isinstance(pattern, Pattern) else tuple(pattern)


def overlap_size(pattern):
    """Largest k < m with the first k symbols equal to the last k.

    >>> overlap_size((1, 1, 0, 0))
    0
    >>> overlap_size((1, 1, 1))
    2
    """
    fail = failure_function(pattern)
    return fail[-1] if fail else 0


def failure_function(pattern):
    """Border lengths of every prefix (classic prefix-function table)."""
    xs = _symbols(pattern)
    m = len(xs)
    fail = [0] * m
    k = 0
    for i in range(1, m):
        while k > 0 and xs[i] != xs[k]:
            k = fail[k - 1]
        if xs[i] == xs[k]:
            k += 1
        fail[i] = k
    return fail


def border_chain(pattern):
    """Lengths of all borders of the pattern, longest first, plus m itself.

    >>> border_chain((1, 0, 1, 0, 1, 0))
    [6, 4, 2]
    """
    fail = failure_function(pattern)
    chain = []
    length = len(fail)
    while length > 0:
        chain.append(length)
        length = fail[length - 1]
    return chain


def _check_overlap_hypothesis(pattern):
    """The closed forms require the overlap prefix itself to be overlap-free."""
    xs = _symbols(pattern)
    fail = failure_function(xs)
    k = fail[-1]
    if k > 0 and fail[k - 1] > 0:
        raise HypothesisViolationError(
            f"pattern {xs} has overlap {k} whose prefix overlaps again; "
            "the two-term closed form does not apply (use the automaton oracle "
            "or the border-chain extension)"
        )


# ---------------------------------------------------------------------------
# symbol sources


@dataclass(frozen=True)
class IIDSource:
    """Finite-alphabet iid symbol source; ``probs`` is validated on construction."""

    symbols: tuple
    probs: np.ndarray

    def __post_init__(self):
        symbols, probs = tuple(self.symbols), np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "probs", probs)
        # a NaN or infinite entry fails the sum test
        if probs.shape != (len(symbols),) or np.any(probs < 0) \
                or not abs(probs.sum() - 1.0) <= 1e-9:
            raise ParameterError("need one nonnegative probability per symbol, summing to 1")

    @classmethod
    def from_mapping(cls, mapping):
        symbols = tuple(mapping.keys())
        return cls(symbols=symbols, probs=[mapping[s] for s in symbols])

    def prob_of(self, symbol):
        try:
            return float(self.probs[self.symbols.index(symbol)])
        except ValueError:
            raise ParameterError(f"symbol {symbol!r} not in source alphabet") from None


class MarkovChain:
    """Finite Markov chain: a row-stochastic matrix and its state labels.

    The stationary law and the mean hitting times are solved anew on
    every call.
    """

    def __init__(self, matrix, states=None):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ParameterError("transition matrix must be square")
        if not np.all(np.isfinite(matrix)) or np.any(matrix < 0):
            raise ParameterError("transition probabilities must be finite and nonnegative")
        if np.max(np.abs(matrix.sum(axis=1) - 1.0)) > 1e-12:
            raise ParameterError("every row of the transition matrix must sum to 1")
        self.matrix = matrix
        self.states = tuple(states) if states is not None else tuple(range(matrix.shape[0]))
        if len(self.states) != matrix.shape[0]:
            raise ParameterError("state labels must match the matrix dimension")

    @property
    def n_states(self):
        return self.matrix.shape[0]

    def index(self, state):
        try:
            return self.states.index(state)
        except ValueError:
            raise ParameterError(f"state {state!r} not in chain") from None

    @property
    def stationary(self):
        return stationary_distribution(self.matrix)

    def hitting_times(self, target):
        """Mean first-passage times to ``target`` from every state."""
        return mean_hitting_times(self.matrix, self.index(target))

    def hitting_time(self, source, target):
        return float(self.hitting_times(target)[self.index(source)])


def stationary_distribution(matrix):
    """Stationary law of a row-stochastic matrix via the augmented system.

    Solves [P^T - I; 1^T] pi = [0; 1] in the least-squares sense and
    verifies the solution is a unique strictly positive probability
    vector; otherwise the chain is not irreducible and a
    :class:`HypothesisViolationError` is raised.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    a = np.vstack([matrix.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    if np.linalg.matrix_rank(matrix.T - np.eye(n), tol=1e-10) < n - 1:
        raise HypothesisViolationError(
            "stationary distribution is not unique; chain is not irreducible"
        )
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    if np.any(pi < 1e-12):
        raise HypothesisViolationError("stationary solve produced non-positive mass")
    if np.max(np.abs(pi @ matrix - pi)) > 1e-10 or abs(pi.sum() - 1.0) > 1e-10:
        raise NumericalError("stationary distribution failed its residual check")
    return pi


def mean_hitting_times(matrix, target):
    """Mean steps to reach ``target`` from each state; 0 at the target.

    Solves (I - P restricted away from the target) mu = 1.  Raises
    :class:`HypothesisViolationError` when the target is unreachable from
    some state.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    reach = _reaching(matrix > 0, np.eye(n, dtype=bool)[target])
    if not reach.all():
        raise HypothesisViolationError(
            f"target state {target} unreachable from states {np.flatnonzero(~reach).tolist()}"
        )
    a = np.eye(n) - matrix
    a[target, :] = 0.0
    a[target, target] = 1.0
    b = np.ones(n)
    b[target] = 0.0
    mu = np.linalg.solve(a, b)
    resid = np.max(np.abs(a @ mu - b))
    if resid > 1e-10 * max(1.0, np.max(np.abs(mu))):
        raise NumericalError("hitting-time solve failed its residual check")
    return mu


def _reaching(edge, goal):
    """States with a path along ``edge[i, j]`` into the boolean mask ``goal``."""
    reach = goal
    while True:
        grown = reach | edge[:, reach].any(axis=1)
        if np.array_equal(grown, reach):
            return reach
        reach = grown


def _as_source(source):
    if isinstance(source, (IIDSource, MarkovChain)):
        return source
    if isinstance(source, dict):
        return IIDSource.from_mapping(source)
    raise ParameterError(f"unsupported symbol source: {source!r}")


# ---------------------------------------------------------------------------
# closed forms


def expected_time_iid(pattern, probs, strict=True):
    """Expected symbols between completions for an iid source.

    With no overlap the value is 1 / prod p; with overlap k whose prefix
    is overlap-free the reciprocal prefix probability is added.  With
    ``strict=False`` the same two-term rule is applied recursively down
    the border chain, which handles any pattern and agrees with the
    automaton oracle; with ``strict=True`` (default) such patterns raise
    :class:`HypothesisViolationError` instead.
    """
    pattern = pattern if isinstance(pattern, Pattern) else Pattern(tuple(pattern))
    source = _as_source(probs)
    if strict:
        _check_overlap_hypothesis(pattern)
    p = [source.prob_of(s) for s in pattern.symbols]
    if any(v <= 0 for v in p):
        raise ParameterError("pattern uses a symbol of probability zero")
    total = 0.0
    for length in border_chain(pattern):
        total += 1.0 / np.prod(p[:length])
    return float(total)


def expected_time_markov(pattern, chain, x0=None, strict=True):
    """Expected symbols between completions for a Markov-modulated source.

    The base term is the reciprocal stationary path probability
    1 / (pi_{x1} prod P_{x_i, x_{i+1}}); an overlap adds the same term for
    the overlap prefix; conditioning on a starting state ``x0`` different
    from the pattern's last symbol adds the hitting-time correction
    mu(x0, x1) - mu(x_m, x1).  ``x0`` defaults to the last symbol, where
    the corrections cancel and the value equals the exact automaton
    first-occurrence time.

    With ``strict=False`` the overlap term is applied recursively down the
    border chain, extending the rule to patterns whose overlap prefix
    overlaps again (cross-checked against the automaton oracle in the test
    suite).
    """
    pattern = pattern if isinstance(pattern, Pattern) else Pattern(tuple(pattern))
    if strict:
        _check_overlap_hypothesis(pattern)
    xs = pattern.symbols
    if x0 is None:
        x0 = xs[-1]
    pi = chain.stationary
    idx = [chain.index(s) for s in xs]

    def _reciprocal_path_prob(length):
        prob = pi[idx[0]]
        for i in range(length - 1):
            step = chain.matrix[idx[i], idx[i + 1]]
            if step <= 0:
                raise ParameterError("pattern uses a transition of probability zero")
            prob *= step
        return 1.0 / prob

    total = sum(_reciprocal_path_prob(length) for length in border_chain(pattern))
    correction = chain.hitting_time(x0, xs[0]) - chain.hitting_time(xs[-1], xs[0])
    return float(total + correction)


# ---------------------------------------------------------------------------
# automaton oracle


def _solve_absorption(a, b):
    """Solve the absorption system with a residual sanity check."""
    try:
        expected = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"absorption system is singular: {exc}") from exc
    resid = np.max(np.abs(a @ expected - b))
    if not np.all(np.isfinite(expected)) or resid > 1e-8 * max(1.0, np.max(np.abs(expected))):
        raise NumericalError("absorption solve failed its residual check")
    return expected


def _absorb(table, law, winner, n_winners):
    """Win probabilities and expected absorption time from state 0.

    The system is solved on the transient states that can reach a winner
    along transitions of positive probability; the others never finish
    and would make it singular.  The time is infinite when state 0 can
    reach one of them.
    """
    n = len(table)
    a = np.eye(n)
    np.subtract.at(a, (np.arange(n)[:, None], table), law)
    edge = a != np.eye(n)
    live = _reaching(edge, winner >= 0)
    seen = _reaching(edge.T, np.arange(n) == 0)  # the states that state 0 reaches
    if not live[0]:
        return np.zeros(n_winners), np.inf
    solve = live & (winner < 0)
    hits = np.stack([-a[np.ix_(solve, winner == k)].sum(axis=1) for k in range(n_winners)],
                    axis=1)
    a = a[np.ix_(solve, solve)]
    # state 0 comes first among the solved states
    probs = _solve_absorption(a, hits)[0]
    if not np.all(live[seen]):
        return probs, np.inf
    return probs, float(_solve_absorption(a, np.ones(len(a)))[0])


def _transition_table(pattern, alphabet):
    """delta[j, y]: new matched length after symbol y at matched length j.

    The matched length is the longest suffix of the symbols read that is
    a prefix of the pattern; row m continues from the longest border.
    """
    xs = _symbols(pattern)
    m = len(xs)
    fail = failure_function(xs)
    table = np.zeros((m + 1, len(alphabet)), dtype=np.int64)
    for j in range(m + 1):
        for yi, y in enumerate(alphabet):
            if j < m and xs[j] == y:
                table[j, yi] = j + 1
            elif j > 0:
                table[j, yi] = table[fail[j - 1], yi]
    return table


def _matched_lengths(target, observed):
    """Matched length of ``target`` after each prefix of ``observed``, shortest first."""
    t, o = _symbols(target), _symbols(observed)
    alphabet = tuple(dict.fromkeys(t + o))
    table = _transition_table(t, alphabet)
    return list(accumulate(o, lambda j, y: int(table[j, alphabet.index(y)]), initial=0))


def _source_automaton(patterns, source, start_progress, start_row):
    """Joint matching automaton of ``patterns`` over ``source``.

    A state pairs the matched length of every pattern with the source row
    (the last symbol for a Markov source, 0 for an iid one): from a fresh
    start, the Aho-Corasick states of the patterns times the row.  State 0
    holds ``start_progress`` and ``start_row``; the rest are numbered
    breadth first.  Returns ``(table, law, winner)``: ``table[s, y]`` is
    the state after symbol y, ``law[s]`` the next-symbol law and
    ``winner[s]`` the lowest index among completed patterns, or -1.
    Winning states are absorbing.
    """
    markov = isinstance(source, MarkovChain)
    alphabet = source.states if markov else source.symbols
    missing = [s for p in patterns for s in p if s not in alphabet]
    if missing:
        raise ParameterError(f"pattern symbols {missing} not in source alphabet")
    deltas = [_transition_table(p, alphabet) for p in patterns]
    lengths = [len(p) for p in patterns]
    keys = [(tuple(start_progress), start_row)]
    index = {keys[0]: 0}
    table, winner = [], []
    for s, (progress, _) in enumerate(keys):  # keys grows as states are found
        done = [k for k, (j, m) in enumerate(zip(progress, lengths)) if j == m]
        winner.append(done[0] if done else -1)
        if done:
            table.append([s] * len(alphabet))
            continue
        successors = []
        for y in range(len(alphabet)):
            key = (tuple(int(d[j, y]) for d, j in zip(deltas, progress)), y if markov else 0)
            if key not in index:
                index[key] = len(keys)
                keys.append(key)
            successors.append(index[key])
        table.append(successors)
    law = (source.matrix if markov else source.probs[None, :])[[row for _, row in keys]]
    return np.array(table, dtype=np.int64), law, np.array(winner, dtype=np.int64)


def automaton_expected_time(pattern, source, start_progress=0, last_symbol=None):
    """Exact expected symbols to complete ``pattern`` from a given state.

    ``start_progress`` is the number of pattern symbols already matched
    (0 for a fresh start; the pattern's overlap for the post-occurrence
    state).  For Markov sources with ``start_progress == 0`` the current
    chain state must be supplied as ``last_symbol``; iid sources ignore
    it.  No overlap hypotheses are required; the expected absorption time
    of the matching automaton is obtained from a linear solve.
    """
    pattern = pattern if isinstance(pattern, Pattern) else Pattern(tuple(pattern))
    source = _as_source(source)
    xs = pattern.symbols
    m = len(xs)
    if not 0 <= start_progress < m:
        raise ParameterError(f"start_progress must lie in [0, {m}), got {start_progress}")
    start_row = 0
    if isinstance(source, MarkovChain):
        if start_progress == 0 and last_symbol is None:
            raise ParameterError("Markov sources need last_symbol when starting from scratch")
        if start_progress and last_symbol not in (None, xs[start_progress - 1]):
            raise ParameterError("last_symbol contradicts the matched prefix at this progress")
        start_row = source.index(xs[start_progress - 1] if start_progress else last_symbol)

    table, law, winner = _source_automaton([xs], source, (start_progress,), start_row)
    return _absorb(table, law, winner, 1)[1]


def carryover_progress(target, observed):
    """Matched length of ``target`` right after ``observed`` completes.

    The state of ``target``'s matching automaton after reading
    ``observed``; identical patterns fall back to their border, matching
    an automaton restart after a completed occurrence.
    """
    t, o = _symbols(target), _symbols(observed)
    if t == o:
        return overlap_size(t)
    return _matched_lengths(t, o)[-1]


def conditional_expected_time(target, observed, source):
    """Expected extra symbols to see ``target`` once ``observed`` occurred.

    Starts the matching automaton of ``target`` at the carry-over state
    implied by ``observed``; Markov sources additionally condition on the
    last symbol of ``observed``.  Returns 0 when ``observed`` ends with
    ``target`` entirely.
    """
    t = _symbols(target)
    o = _symbols(observed)
    carry = carryover_progress(t, o)
    if carry == len(t):
        return 0.0
    return automaton_expected_time(t, source, start_progress=carry, last_symbol=o[-1])
