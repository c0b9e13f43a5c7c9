"""Monte Carlo plumbing: estimates with standard errors, one block driver.

Every Monte Carlo routine splits its samples into fixed blocks and block
``b`` draws only from substream ``b`` of the stream it was handed.  That
rule lives here, in :func:`map_blocks`; the blocks run one after another
in one thread, and results come back in block order.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EstimateWithCI:
    """A Monte Carlo estimate: sample mean, standard error, sample count."""

    value: float
    stderr: float
    n: int


def estimate_from_samples(samples):
    """Build an :class:`EstimateWithCI` from iid replication outputs."""
    arr = np.asarray(samples, dtype=float)
    n = arr.size
    if n == 0:
        raise ValueError("cannot form an estimate from zero samples")
    value = float(arr.mean())
    stderr = float(arr.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return EstimateWithCI(value=value, stderr=stderr, n=n)


def replicate(kernel, n, stream):
    """Run ``kernel(substream, i)`` for ``i in range(n)`` and stack results.

    This is :func:`map_blocks` with blocks of one: replication ``i`` draws
    only from substream ``i``.
    """
    if n < 1:
        raise ValueError("replication count must be positive")
    results = map_blocks(lambda sub, lo, _hi: kernel(sub, lo), n, stream, 1)
    return np.asarray(results, dtype=float)


def block_ranges(n, block_size):
    """Split ``range(n)`` into contiguous blocks of fixed size.

    Block boundaries depend only on ``n`` and ``block_size``, so
    block-indexed substreams stay reproducible.
    """
    return [(lo, min(lo + block_size, n)) for lo in range(0, n, block_size)]


def map_blocks(block_kernel, n, stream, block_size):
    """Run ``block_kernel(substream, lo, hi)`` over fixed-size blocks.

    Block ``b`` covers ``range(lo, hi)`` and gets ``stream.substream(b)``.
    Results are returned in block order as a list; callers concatenate or
    reduce them deterministically.
    """
    return [block_kernel(stream.substream(b), lo, hi)
            for b, (lo, hi) in enumerate(block_ranges(n, block_size))]
