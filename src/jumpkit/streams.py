"""Counter-based random streams with reproducible substream derivation.

Every stochastic routine in this package draws exclusively from a
``RandomStream``.  Streams are keyed Philox generators: the 128-bit Philox
key is built from ``(master_seed, stream_index)``, so

* the same pair always reproduces the same draw sequence, and
* distinct stream indices under one master seed give statistically
  independent streams without any coordination.

Monte Carlo drivers give block ``b`` of samples substream ``b`` of the
stream they were handed (:func:`jumpkit.mc.map_blocks`), so a result
depends only on the seed, the sample count and the block size.
"""

from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(z):
    """One round of the splitmix64 mixer (public-domain constants)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass
class RandomStream:
    """A deterministic, independently keyed source of randomness.

    Attributes
    ----------
    master_seed : int
        64-bit seed shared by a family of streams.
    stream_index : int
        Nonnegative index selecting one member of the family.
    generator : numpy.random.Generator
        The underlying Philox generator; draw from it directly.
    """

    master_seed: int
    stream_index: int
    generator: np.random.Generator = field(repr=False)

    def substream(self, index):
        """Derive the ``index``-th child stream.

        Children of distinct parents are kept apart by hashing the parent
        identity into a fresh master seed, so nested replication (paths
        within blocks within scenarios) never reuses a key.
        """
        child_master = _splitmix64(_splitmix64(self.master_seed) ^ self.stream_index)
        return derive_stream(child_master, index)


def derive_stream(master_seed, stream_index):
    """Create the stream identified by ``(master_seed, stream_index)``.

    The pair is packed into the 128-bit Philox key, making the derivation
    counter-based: no generator state is shared or advanced to reach a
    given stream.
    """
    if stream_index < 0:
        raise ValueError(f"stream_index must be nonnegative, got {stream_index}")
    key = ((master_seed & _MASK64) << 64) | (stream_index & _MASK64)
    return RandomStream(
        master_seed=master_seed,
        stream_index=stream_index,
        generator=np.random.Generator(np.random.Philox(key=key)),
    )
