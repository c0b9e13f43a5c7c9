import numpy as np
import pytest
from scipy import stats

from jumpkit import derive_stream
from jumpkit.mc import block_ranges, estimate_from_samples, map_blocks, replicate


def test_same_key_reproduces_draws():
    a = derive_stream(42, 0).generator.random(1000)
    b = derive_stream(42, 0).generator.random(1000)
    assert np.array_equal(a, b)


def test_distinct_indices_differ():
    a = derive_stream(42, 0).generator.random(1000)
    b = derive_stream(42, 1).generator.random(1000)
    assert not np.array_equal(a, b)


def test_uniformity_ks():
    u = derive_stream(7, 3).generator.random(100_000)
    assert stats.kstest(u, "uniform").pvalue > 0.001


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        derive_stream(1, -1)


def test_substreams_are_reproducible_and_distinct():
    parent = derive_stream(9, 4)
    a = parent.substream(0).generator.random(100)
    b = derive_stream(9, 4).substream(0).generator.random(100)
    c = parent.substream(1).generator.random(100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_replicate_substream_contract():
    def kernel(sub, i):
        return sub.generator.random() + 0.001 * i

    base = derive_stream(5, 0)
    by_hand = [base.substream(i).generator.random() + 0.001 * i for i in range(64)]
    assert np.array_equal(replicate(kernel, 64, base), np.asarray(by_hand))


def test_map_blocks_substream_contract():
    def block(sub, lo, hi):
        return lo, hi, sub.generator.random(hi - lo)

    base = derive_stream(6, 0)
    out = map_blocks(block, 1000, base, 128)
    assert len(out) == 8
    for b, (lo, hi, draws) in enumerate(out):
        assert (lo, hi) == (128 * b, min(128 * (b + 1), 1000))
        assert np.array_equal(draws, base.substream(b).generator.random(hi - lo))


def test_block_ranges_cover():
    ranges = block_ranges(10, 4)
    assert ranges == [(0, 4), (4, 8), (8, 10)]


def test_estimate_from_samples():
    est = estimate_from_samples([1.0, 2.0, 3.0, 4.0])
    assert est.value == 2.5
    assert est.n == 4
    expected = np.std([1, 2, 3, 4], ddof=1) / 2
    assert abs(est.stderr - expected) < 1e-15
