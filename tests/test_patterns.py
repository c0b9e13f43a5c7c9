from itertools import product

import numpy as np
import pytest

from jumpkit import (
    IIDSource,
    MarkovChain,
    Pattern,
    automaton_expected_time,
    border_chain,
    carryover_progress,
    conditional_expected_time,
    expected_time_iid,
    expected_time_markov,
    failure_function,
    mean_hitting_times,
    overlap_size,
    stationary_distribution,
)
from jumpkit.errors import HypothesisViolationError, ParameterError
from jumpkit.patterns import _check_overlap_hypothesis, _matched_lengths, _transition_table

FAIR = {0: 0.5, 1: 0.5}


# ---------------------------------------------------------------------------
# overlap structure


@pytest.mark.parametrize("pattern,expected", [
    ((1, 1, 0, 0), 0),
    ((1, 0, 1, 0), 2),
    ((1, 1, 1), 2),
    ((1,), 0),
    ((1, 0, 1), 1),
])
def test_overlap_size(pattern, expected):
    assert overlap_size(pattern) == expected


def test_failure_function_classic():
    assert failure_function((1, 0, 1, 0, 1)) == [0, 0, 1, 2, 3]
    assert failure_function("abcab") == [0, 0, 0, 1, 2]


def test_border_chain_alternating():
    assert border_chain((1, 0) * 3) == [6, 4, 2]


# naive scans, the oracles of the prefix-function matcher


def _naive_overlap(xs):
    m = len(xs)
    for k in range(m - 1, 0, -1):
        if xs[:k] == xs[m - k:]:
            return k
    return 0


def _naive_border_chain(xs):
    chain = []
    length = len(xs)
    while length > 0:
        chain.append(length)
        length = _naive_overlap(xs[:length])
    return chain


def _naive_suffix_prefix(target, observed):
    """Longest suffix of ``observed`` that is a prefix of ``target``."""
    for length in range(min(len(target), len(observed)), 0, -1):
        if observed[len(observed) - length:] == target[:length]:
            return length
    return 0


def _naive_carryover(target, observed):
    return _naive_overlap(target) if target == observed else _naive_suffix_prefix(target, observed)


def _naive_contains(outer, inner):
    return any(outer[i:i + len(inner)] == inner for i in range(len(outer)))


def _words(alphabet, max_len):
    """Every sequence up to ``max_len`` symbols, the empty one included."""
    return [w for m in range(max_len + 1) for w in product(alphabet, repeat=m)]


@pytest.mark.parametrize("alphabet,max_len", [((0, 1), 8), ((0, 1, 2), 5)])
def test_matcher_agrees_with_naive_scans_on_every_pattern(alphabet, max_len):
    for xs in _words(alphabet, max_len):
        assert overlap_size(xs) == _naive_overlap(xs), xs
        assert border_chain(xs) == _naive_border_chain(xs), xs
        k = _naive_overlap(xs)
        if k > 0 and _naive_overlap(xs[:k]) > 0:
            with pytest.raises(HypothesisViolationError):
                _check_overlap_hypothesis(xs)
        elif xs:
            _check_overlap_hypothesis(xs)
        table = _transition_table(xs, alphabet)
        for j in range(len(xs) + 1):
            row = [_naive_suffix_prefix(xs, xs[:j] + (y,)) for y in alphabet]
            assert table[j].tolist() == row, (xs, j)


def test_matcher_agrees_with_naive_scans_on_every_pair():
    words = _words((0, 1), 5)
    for target, observed in product(words, repeat=2):
        assert carryover_progress(target, observed) == _naive_carryover(target, observed)
        if target:  # race patterns are nonempty
            contained = len(target) in _matched_lengths(target, observed)
            assert contained == _naive_contains(observed, target), (target, observed)


def test_pattern_validation():
    with pytest.raises(ParameterError):
        Pattern(())


# ---------------------------------------------------------------------------
# chain machinery


def test_stationary_symmetric():
    pi = stationary_distribution([[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(pi, [0.5, 0.5], atol=1e-12)


def test_stationary_asymmetric():
    pi = stationary_distribution([[0.9, 0.1], [0.5, 0.5]])
    assert np.allclose(pi, [5 / 6, 1 / 6], atol=1e-12)


def test_stationary_periodic_chain():
    pi = stationary_distribution([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(pi, [0.5, 0.5], atol=1e-12)


def test_stationary_reducible_rejected():
    with pytest.raises(HypothesisViolationError):
        stationary_distribution(np.eye(2))


def test_hitting_times_convention_and_example():
    mu = mean_hitting_times([[0.9, 0.1], [0.5, 0.5]], 0)
    assert mu[0] == 0.0
    assert mu[1] == pytest.approx(2.0, abs=1e-12)


def test_hitting_times_iid_rows_geometric():
    p = np.array([0.2, 0.3, 0.5])
    matrix = np.tile(p, (3, 1))
    for target in range(3):
        mu = mean_hitting_times(matrix, target)
        for src in range(3):
            expected = 0.0 if src == target else 1.0 / p[target]
            assert mu[src] == pytest.approx(expected, abs=1e-10)


def test_hitting_times_unreachable():
    with pytest.raises(HypothesisViolationError):
        mean_hitting_times([[1.0, 0.0], [0.5, 0.5]], 1)


def test_chain_validation():
    with pytest.raises(ParameterError):
        MarkovChain([[0.7, 0.2], [0.5, 0.5]])
    with pytest.raises(ParameterError):
        MarkovChain([[np.nan, 1.0], [0.5, 0.5]])


@pytest.mark.parametrize("symbols,probs", [
    ((0, 1), [0.7, 0.7]),
    ((0, 1), [1.5, -0.5]),
    ((0, 1), [np.nan, 0.5]),
    ((0, 1, 2), [0.5, 0.5]),
])
def test_iid_source_validation(symbols, probs):
    with pytest.raises(ParameterError):
        IIDSource(symbols=symbols, probs=probs)


def test_iid_source_from_mapping_goes_through_constructor():
    source = IIDSource.from_mapping({"a": 0.25, "b": 0.75})
    assert source.symbols == ("a", "b") and np.array_equal(source.probs, [0.25, 0.75])
    with pytest.raises(ParameterError):
        IIDSource.from_mapping({"a": 0.7, "b": 0.7})


# ---------------------------------------------------------------------------
# closed forms, iid


def test_single_symbol_geometric():
    assert expected_time_iid((1,), FAIR) == pytest.approx(2.0)


def test_no_overlap_pair():
    assert expected_time_iid((1, 0), FAIR) == pytest.approx(4.0)


def test_overlap_pair():
    assert expected_time_iid((1, 1), FAIR) == pytest.approx(6.0)


def test_overlap_of_overlap_raises_by_default():
    with pytest.raises(HypothesisViolationError):
        expected_time_iid((1, 1, 1), FAIR)


def test_border_chain_extension_matches_oracle():
    value = expected_time_iid((1, 1, 1), FAIR, strict=False)
    oracle = automaton_expected_time((1, 1, 1), FAIR)
    assert value == pytest.approx(oracle, rel=1e-12)
    assert value == pytest.approx(14.0)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_alternating_run_sum(n, p):
    source = {0: 1 - p, 1: p}
    value = expected_time_iid((1, 0) * n, source, strict=False)
    target = sum(1.0 / (p * (1 - p)) ** j for j in range(1, n + 1))
    assert value == pytest.approx(target, rel=1e-12)


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_run_pattern_product(m, p):
    source = {0: 1 - p, 1: p}
    value = expected_time_iid((1,) * m + (0,) * m, source)
    assert value == pytest.approx(1.0 / (p * (1 - p)) ** m, rel=1e-12)


# ---------------------------------------------------------------------------
# closed forms, Markov


@pytest.fixture
def lazy_chain():
    return MarkovChain([[0.9, 0.1], [0.5, 0.5]])


def test_markov_example_no_overlap(lazy_chain):
    value = expected_time_markov((0, 1), lazy_chain, x0=1)
    assert value == pytest.approx(12.0, abs=1e-9)


def test_markov_corrections_cancel_by_default(lazy_chain):
    # x0 defaults to the last pattern symbol, cancelling the mu terms
    assert expected_time_markov((0, 1), lazy_chain) == pytest.approx(12.0, abs=1e-9)


def test_markov_iid_rows_reduce_exactly():
    p = {0: 0.35, 1: 0.65}
    chain = MarkovChain(np.tile([0.35, 0.65], (2, 1)))
    for pattern in [(1, 0), (1, 1), (0, 1, 1), (1, 0, 0, 1)]:
        markov = expected_time_markov(pattern, chain)
        iid = expected_time_iid(pattern, p)
        assert markov == pytest.approx(iid, rel=1e-12)


def test_markov_hypothesis_violation(lazy_chain):
    with pytest.raises(HypothesisViolationError):
        expected_time_markov((1, 1, 1), lazy_chain)


def test_markov_x0_correction(lazy_chain):
    base = expected_time_markov((1, 1), lazy_chain)          # x0 = 1
    shifted = expected_time_markov((1, 1), lazy_chain, x0=0)
    mu = lazy_chain.hitting_time(0, 1)
    assert shifted == pytest.approx(base + mu, abs=1e-9)


# ---------------------------------------------------------------------------
# automaton oracle


def test_automaton_double_one():
    assert automaton_expected_time((1, 1), FAIR) == pytest.approx(6.0)


def test_automaton_single_symbol():
    assert automaton_expected_time((1,), {0: 0.75, 1: 0.25}) == pytest.approx(4.0)


def test_automaton_markov_needs_context(lazy_chain):
    with pytest.raises(ParameterError):
        automaton_expected_time((0, 1), lazy_chain)


def test_automaton_interoccurrence_start():
    # post-occurrence state of (1, 1): progress 1; fair coin gives E=4
    value = automaton_expected_time((1, 1), FAIR, start_progress=1)
    assert value == pytest.approx(4.0)


def _random_chain(rng, n_states):
    matrix = rng.random((n_states, n_states)) + 0.3
    matrix /= matrix.sum(axis=1, keepdims=True)
    return MarkovChain(matrix)


def _random_hypothesis_pattern(rng, n_states):
    while True:
        m = int(rng.integers(1, 9))
        pattern = tuple(int(v) for v in rng.integers(0, n_states, m))
        k = overlap_size(pattern)
        if k == 0 or overlap_size(pattern[:k]) == 0:
            return pattern


def test_formula_oracle_equivalence_iid():
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 50:
        n_sym = int(rng.integers(2, 5))
        probs = rng.random(n_sym) + 0.6
        probs /= probs.sum()
        source = IIDSource(symbols=tuple(range(n_sym)), probs=probs)
        pattern = _random_hypothesis_pattern(rng, n_sym)
        value = expected_time_iid(pattern, source)
        oracle = automaton_expected_time(pattern, source)
        assert value == pytest.approx(oracle, rel=1e-10), pattern
        checked += 1


def test_formula_oracle_equivalence_markov():
    rng = np.random.default_rng(202)
    checked = 0
    while checked < 50:
        n_states = int(rng.integers(2, 5))
        chain = _random_chain(rng, n_states)
        pattern = _random_hypothesis_pattern(rng, n_states)
        value = expected_time_markov(pattern, chain)
        oracle = automaton_expected_time(pattern, chain, last_symbol=pattern[-1])
        assert value == pytest.approx(oracle, rel=1e-10), pattern
        checked += 1


def test_markov_border_chain_extension_matches_oracle():
    rng = np.random.default_rng(303)
    checked = 0
    while checked < 30:
        n_states = int(rng.integers(2, 4))
        chain = _random_chain(rng, n_states)
        m = int(rng.integers(3, 9))
        pattern = tuple(int(v) for v in rng.integers(0, n_states, m))
        k = overlap_size(pattern)
        if k == 0 or overlap_size(pattern[:k]) == 0:
            continue  # want genuinely recursive overlaps here
        value = expected_time_markov(pattern, chain, strict=False)
        oracle = automaton_expected_time(pattern, chain, last_symbol=pattern[-1])
        assert value == pytest.approx(oracle, rel=1e-10), pattern
        checked += 1


# ---------------------------------------------------------------------------
# conditional times


def test_conditional_fresh_start():
    assert conditional_expected_time((1, 1), (1, 0), FAIR) == pytest.approx(6.0)


def test_conditional_carryover():
    assert conditional_expected_time((1, 0), (1, 1), FAIR) == pytest.approx(2.0)


def test_conditional_self_is_interoccurrence():
    value = conditional_expected_time((1, 1), (1, 1), FAIR)
    assert value == pytest.approx(automaton_expected_time((1, 1), FAIR, start_progress=1))


def test_carryover_rules():
    assert carryover_progress((1, 1), (1, 0)) == 0
    assert carryover_progress((1, 0), (1, 1)) == 1
    assert carryover_progress((1, 1), (1, 1)) == 1
    assert carryover_progress((0, 1), (1, 0, 1)) == 2  # target inside observed suffix


def test_conditional_completed_target_is_zero():
    assert conditional_expected_time((0, 1), (1, 0, 1), FAIR) == 0.0


def test_conditional_markov_uses_last_symbol(lazy_chain):
    # after observing (1, 1) the chain sits at 1; expected wait for (0, 1)
    value = conditional_expected_time((0, 1), (1, 1), lazy_chain)
    oracle = automaton_expected_time((0, 1), lazy_chain, last_symbol=1)
    assert value == pytest.approx(oracle, rel=1e-12)
