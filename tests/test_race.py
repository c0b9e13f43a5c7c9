import numpy as np
import pytest

from jumpkit import (
    IIDSource,
    MarkovChain,
    Pattern,
    alternating_run_race_report,
    automaton_expected_time,
    conditional_decomposition_probabilities,
    derive_stream,
    race_solve,
    run_race_probability,
    run_race_probability_two_stage,
    simulate_pattern_race,
)
from jumpkit.errors import HypothesisViolationError, ParameterError
from jumpkit.patterns import _source_automaton
from jumpkit.race import REPORTED_REFERENCE_PROBABILITIES

FAIR = {0: 0.5, 1: 0.5}


def test_symmetric_race_half():
    result = race_solve([(1, 1), (0, 0)], FAIR)
    assert result.probabilities[0] == pytest.approx(0.5, abs=1e-12)
    assert result.expected_min_time == pytest.approx(3.0, abs=1e-12)


def test_race_expected_times_recorded():
    result = race_solve([(1, 1), (0, 0)], FAIR)
    assert np.allclose(result.expected_times, [6.0, 6.0])
    assert result.expected_min_time <= result.expected_times.min()


def test_penney_competition():
    # classic: (0,1,1) beats (1,1,1) three to one under a fair coin
    result = race_solve([(0, 1, 1), (1, 1, 1)], FAIR)
    assert result.probabilities[0] == pytest.approx(7 / 8 * 6 / 7 + 0, abs=0.2)
    sim = result.probabilities[0]
    assert sim > 0.7


def test_three_pattern_race_probabilities_sum():
    result = race_solve([(1, 1), (0, 0), (1, 0)], FAIR)
    assert result.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(result.probabilities >= 0)


def test_three_pattern_race_vs_simulation(stream):
    patterns = [(1, 1), (0, 0), (0, 1)]
    result = race_solve(patterns, FAIR)
    sim = simulate_pattern_race(patterns, FAIR, 200_000, stream)
    for k in range(3):
        se = max(sim.prob_stderr[k], 1e-9)
        assert abs(result.probabilities[k] - sim.probabilities[k]) <= 3.5 * se
    assert abs(result.expected_min_time - sim.min_time.value) <= 3.5 * sim.min_time.stderr


def test_race_needs_two_patterns():
    with pytest.raises(ParameterError):
        race_solve([(1, 1)], FAIR)


def test_markov_race(stream):
    chain = MarkovChain([[0.7, 0.3], [0.4, 0.6]])
    patterns = [(1, 1), (0, 0)]
    result = race_solve(patterns, chain, initial_state=0)
    sim = simulate_pattern_race(patterns, chain, 100_000, stream, initial_state=0)
    assert abs(result.probabilities[0] - sim.probabilities[0]) <= 3.5 * sim.prob_stderr[0]
    assert abs(result.expected_min_time - sim.min_time.value) <= 3.5 * sim.min_time.stderr


def test_run_race_probability_symmetric():
    for n in range(1, 6):
        assert run_race_probability(n, n, 0.5) == 0.5


def test_run_race_probability_example():
    assert run_race_probability(2, 3, 0.5) == pytest.approx(0.7, abs=1e-12)


def test_run_race_probability_one_flip():
    assert run_race_probability(1, 1, 0.3) == pytest.approx(0.3, abs=1e-15)


def test_run_race_matches_race_solve():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        p = float(rng.uniform(0.2, 0.8))
        source = {0: 1 - p, 1: p}
        result = race_solve([(1,) * n, (0,) * m], source)
        assert run_race_probability(n, m, p) == pytest.approx(
            result.probabilities[0], rel=1e-10
        )


def test_run_race_two_stage_product():
    assert run_race_probability_two_stage(2, 3, 2, 0.5, 0.5) == pytest.approx(0.49)


def test_simulated_race_single_pattern(stream):
    sim = simulate_pattern_race([(1, 0, 1)], FAIR, 50_000, stream)
    target = automaton_expected_time((1, 0, 1), FAIR)
    assert sim.probabilities[0] == 1.0
    assert abs(sim.min_time.value - target) <= 3 * sim.min_time.stderr


def test_simulated_race_truncation_counted(stream):
    sim = simulate_pattern_race([(1,) * 6, (0,) * 6], FAIR, 400, stream, max_steps=30)
    assert sim.n_truncated > 0
    assert sim.n_truncated + (sim.probabilities * (sim.n_trials - sim.n_truncated)).sum() \
        == pytest.approx(sim.n_trials)


class _ConstantStream:
    """A stream whose every substream draws the uniform ``u`` forever."""

    def __init__(self, u):
        self.u = u
        self.generator = self

    def substream(self, _index):
        return self

    def random(self, size):
        return np.full(size, self.u)


SHORT_ROW = [0.5, 0.5 - 5e-13]  # sums to 1 - 5e-13, inside both sources' tolerance


@pytest.mark.parametrize("source", [
    MarkovChain([SHORT_ROW, SHORT_ROW]),
    {0: SHORT_ROW[0], 1: SHORT_ROW[1]},
], ids=["markov", "iid"])
@pytest.mark.parametrize("u, winner", [(0.25, 1), (0.75, 0), (1 - 1e-14, 0)],
                         ids=["first-symbol", "last-symbol", "beyond-row-end"])
def test_symbol_draw_rule(source, u, winner):
    # a draw maps to the first symbol whose cumulative probability exceeds
    # it, and a draw at or above the row's rounded total to the last symbol
    sim = simulate_pattern_race([(1, 1), (0, 0)], source, 10, _ConstantStream(u),
                                initial_state=0)
    assert sim.probabilities[winner] == 1.0
    assert sim.min_time.value == 2.0


def test_conditional_decomposition_reproduces_reported_values():
    pe, p10, p11 = conditional_decomposition_probabilities(5, 6, 0.5)
    ref_p10, ref_p11, ref_pe = REPORTED_REFERENCE_PROBABILITIES
    assert pe == pytest.approx(ref_pe, abs=5e-5)
    assert p10 == pytest.approx(ref_p10, abs=5e-5)
    assert p11 == pytest.approx(ref_p11, abs=5e-5)


def test_showcase_report(stream):
    report = alternating_run_race_report(5, 6, 0.5, 200_000, stream)
    assert report.expected_alternating == pytest.approx(1364.0, rel=1e-12)
    assert report.expected_runs == pytest.approx(4096.0, rel=1e-12)
    assert report.closed_form_p1 == pytest.approx(4096 / 5460, abs=1e-10)
    assert report.race.probabilities[0] == pytest.approx(4096 / 5460, abs=1e-10)
    assert report.pipelines_consistent
    # exact value and reported reference disagree by ~0.039; flagged, not matched
    assert abs(report.reference_discrepancy) > 0.03
    text = "\n".join(report.lines())
    assert "FLAGGED" in text
    assert "0.7889" in text


def test_patterns_accept_pattern_objects():
    result = race_solve([Pattern((1, 1)), Pattern((0, 0))], FAIR)
    assert result.probabilities[0] == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# the joint automaton as an exact oracle


def _automaton_race(patterns, source, initial_state=None):
    """Win probabilities and E[T_min] as absorption of the joint automaton."""
    start_row = source.index(initial_state) if isinstance(source, MarkovChain) else 0
    table, law, winner = _source_automaton(patterns, source, (0,) * len(patterns), start_row)
    n = len(table)
    step = np.zeros((n, n))
    np.add.at(step, (np.arange(n)[:, None], table), law)
    transient = winner < 0
    a = np.eye(transient.sum()) - step[np.ix_(transient, transient)]
    hits = np.stack([step[np.ix_(transient, winner == k)].sum(axis=1)
                     for k in range(len(patterns))], axis=1)
    return np.linalg.solve(a, hits)[0], np.linalg.solve(a, np.ones(len(a)))[0]


def _random_race(rng):
    n_sym = int(rng.integers(2, 4))
    while True:
        patterns = [tuple(int(v) for v in rng.integers(0, n_sym, int(rng.integers(1, 7))))
                    for _ in range(int(rng.integers(2, 5)))]
        if not any(i != j and any(q[k:k + len(p)] == p for k in range(len(q)))
                   for i, p in enumerate(patterns) for j, q in enumerate(patterns)):
            break
    if rng.random() < 0.5:
        matrix = rng.random((n_sym, n_sym)) + 0.2
        return patterns, MarkovChain(matrix / matrix.sum(axis=1, keepdims=True)), \
            int(rng.integers(n_sym))
    probs = rng.random(n_sym) + 0.2
    return patterns, IIDSource(symbols=tuple(range(n_sym)), probs=probs / probs.sum()), None


def test_race_solve_matches_joint_automaton():
    rng = np.random.default_rng(606)
    for _ in range(300):
        patterns, source, initial_state = _random_race(rng)
        result = race_solve(patterns, source, initial_state=initial_state)
        probs, min_time = _automaton_race(patterns, source, initial_state)
        np.testing.assert_allclose(result.probabilities, probs, rtol=0, atol=1e-10,
                                   err_msg=str(patterns))
        assert result.expected_min_time == pytest.approx(min_time, rel=1e-10), patterns


@pytest.mark.parametrize("patterns, probs, min_time", [
    ([(0, 1), (1, 0, 1, 1)], [1.0, 0.0], 4.0),
    ([(0, 1), (0, 1)], [1.0, 0.0], 4.0),
], ids=["inside", "duplicate"])
def test_contained_pattern_race_rejected(patterns, probs, min_time):
    # the conditional-time system needs that no pattern occurs inside
    # another; the automaton still gives the true answer
    with pytest.raises(HypothesisViolationError, match="occurs inside"):
        race_solve(patterns, FAIR)
    exact_probs, exact_time = _automaton_race(patterns, IIDSource.from_mapping(FAIR))
    np.testing.assert_allclose(exact_probs, probs, atol=1e-12)
    assert exact_time == pytest.approx(min_time, rel=1e-12)


@pytest.mark.parametrize("source", [FAIR, MarkovChain([[0.7, 0.3], [0.4, 0.6]])],
                         ids=["iid", "markov"])
def test_foreign_pattern_symbol_is_parameter_error(source, stream):
    with pytest.raises(ParameterError, match="not in source alphabet"):
        automaton_expected_time((2, 2), source, last_symbol=0)
    with pytest.raises(ParameterError, match="not in source alphabet"):
        race_solve([(2, 2), (0, 0)], source, initial_state=0)
    with pytest.raises(ParameterError, match="not in source alphabet"):
        simulate_pattern_race([(2, 2), (0, 0)], source, 10, stream, initial_state=0)


@pytest.mark.parametrize("patterns", [[(), (1,)], []], ids=["empty-pattern", "no-patterns"])
def test_simulated_race_rejects_empty_patterns(patterns, stream):
    with pytest.raises(ParameterError):
        simulate_pattern_race(patterns, FAIR, 10, stream)


# Outputs of the race simulator at fixed seeds.  A change to the symbol
# draw or to the stepping that moves any Monte Carlo figure fails here.
PINNED_RACES = {
    "iid": (dict(patterns=[(1, 0, 1), (0, 1, 1)], source={0: 0.4, 1: 0.6},
                 n_trials=5000, stream=(61, 0)),
            [0.5498, 0.4502], 5.4572, 0.038689701609111955, 0),
    "markov": (dict(patterns=[(1, 1, 0), (0, 0)],
                    source=MarkovChain([[0.7, 0.3], [0.4, 0.6]]),
                    n_trials=4000, stream=(62, 0), initial_state=1, max_steps=12),
               [0.4934673366834171, 0.5065326633165829], 3.728391959798995,
               0.029561740153969895, 20),
    "three-symbol": (dict(patterns=[(2, 1), (0, 0, 2), (1, 2, 2)],
                          source=MarkovChain([[0.2, 0.5, 0.3], [0.6, 0.0, 0.4],
                                              [0.1, 0.3, 0.6]]),
                          n_trials=3000, stream=(63, 0), initial_state=0),
                     [0.6286666666666667, 0.088, 0.2833333333333333], 5.735333333333333,
                     0.06791309089188928, 0),
}


@pytest.mark.parametrize("name", PINNED_RACES)
def test_pinned_race_draws(name):
    kwargs, probs, mean, stderr, n_truncated = PINNED_RACES[name]
    sim = simulate_pattern_race(**{**kwargs, "stream": derive_stream(*kwargs["stream"])})
    assert sim.probabilities.tolist() == probs
    assert (sim.min_time.value, sim.min_time.stderr) == (mean, stderr)
    assert sim.n_truncated == n_truncated
