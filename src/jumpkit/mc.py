"""Monte Carlo plumbing: estimates with standard errors, replication driver.

The replication driver pins the randomness of replication ``i`` to
substream ``i`` and stores results by index, so estimates are bit-identical
for any worker count.  Reductions go through numpy's pairwise summation on
the assembled array, which is likewise independent of scheduling.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EstimateWithCI:
    """A Monte Carlo estimate: sample mean, standard error, sample count."""

    value: float
    stderr: float
    n: int

    def half_width(self, k=3.0):
        """Half width of the ``k``-sigma interval around ``value``."""
        return k * self.stderr

    def covers(self, target, k=3.0):
        """True when ``target`` lies within ``k`` standard errors."""
        return abs(self.value - target) <= k * self.stderr


def estimate_from_samples(samples):
    """Build an :class:`EstimateWithCI` from iid replication outputs."""
    arr = np.asarray(samples, dtype=float)
    n = arr.size
    if n == 0:
        raise ValueError("cannot form an estimate from zero samples")
    value = float(arr.mean())
    stderr = float(arr.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return EstimateWithCI(value=value, stderr=stderr, n=n)


def replicate(kernel, n, stream, workers=1):
    """Run ``kernel(substream, i)`` for ``i in range(n)`` and stack results.

    This is :func:`map_blocks` with blocks of one: replication ``i`` draws
    only from substream ``i``, and ``workers`` merely parallelises the
    schedule and cannot change any output bit.
    """
    if n < 1:
        raise ValueError("replication count must be positive")
    results = map_blocks(lambda sub, lo, _hi: kernel(sub, lo), n, stream, 1, workers=workers)
    return np.asarray(results, dtype=float)


def block_ranges(n, block_size):
    """Split ``range(n)`` into contiguous blocks of fixed size.

    Block boundaries depend only on ``n`` and ``block_size``, never on the
    worker count, so block-indexed substreams stay reproducible.
    """
    return [(lo, min(lo + block_size, n)) for lo in range(0, n, block_size)]


def map_blocks(block_kernel, n, stream, block_size, workers=1):
    """Run ``block_kernel(substream, lo, hi)`` over fixed-size blocks.

    Results are returned in block order as a list; callers concatenate or
    reduce them deterministically.
    """
    def _run(job):
        b, (lo, hi) = job
        return block_kernel(stream.substream(b), lo, hi)

    jobs = enumerate(block_ranges(n, block_size))
    if workers <= 1:
        return list(map(_run, jobs))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run, jobs))
