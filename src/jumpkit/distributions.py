"""Small family of distributions used for interarrivals, rewards and marks.

Each class exposes ``mean``, ``second_moment`` (``None`` when it does not
exist or is not implemented), ``sample(gen, size)`` and ``cdf(x)``.
Continuous distributions with bounded support additionally expose ``pdf``
and ``support`` so that expectations against them can be evaluated with a
fixed-node quadrature; discrete ones expose ``values``/``probs`` for exact
summation.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

_GAUSS_NODES = 64


@dataclass(frozen=True)
class Exponential:
    """Exponential distribution parameterised by its rate."""

    rate: float

    def __post_init__(self):
        if self.rate <= 0:
            raise ParameterError(f"rate must be positive, got {self.rate}")

    @property
    def mean(self):
        return 1.0 / self.rate

    @property
    def second_moment(self):
        return 2.0 / self.rate**2

    def sample(self, gen, size=None):
        return gen.exponential(1.0 / self.rate, size=size)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0, -np.expm1(-self.rate * np.maximum(x, 0.0)), 0.0)


@dataclass(frozen=True)
class Uniform:
    """Uniform distribution on ``[lo, hi]``."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ParameterError(f"need hi > lo, got [{self.lo}, {self.hi}]")

    @property
    def mean(self):
        return 0.5 * (self.lo + self.hi)

    @property
    def second_moment(self):
        return (self.lo**2 + self.lo * self.hi + self.hi**2) / 3.0

    @property
    def support(self):
        return (self.lo, self.hi)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lo) & (x <= self.hi)
        return np.where(inside, 1.0 / (self.hi - self.lo), 0.0)

    def sample(self, gen, size=None):
        return gen.uniform(self.lo, self.hi, size=size)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)


@dataclass(frozen=True)
class Deterministic:
    """Point mass at ``value``."""

    value: float

    @property
    def mean(self):
        return self.value

    @property
    def second_moment(self):
        return self.value**2

    def sample(self, gen, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value, dtype=float)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return (x >= self.value).astype(float)


class Discrete:
    """Finite discrete distribution given by values and probabilities."""

    def __init__(self, values, probs):
        values = np.asarray(values, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if values.shape != probs.shape or values.ndim != 1 or values.size == 0:
            raise ParameterError("values and probs must be matching 1-D arrays")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
            raise ParameterError("probs must be nonnegative and sum to 1")
        self.values = values
        self.probs = probs / probs.sum()

    @property
    def mean(self):
        return float(self.values @ self.probs)

    @property
    def second_moment(self):
        return float((self.values**2) @ self.probs)

    def sample(self, gen, size=None):
        idx = gen.choice(self.values.size, size=size, p=self.probs)
        return self.values[idx]

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return (self.probs[None, :] * (self.values[None, :] <= x[..., None])).sum(axis=-1)


def bernoulli(p):
    """Reward distribution taking 1 with probability ``p`` else 0."""
    return Discrete([0.0, 1.0], [1.0 - p, p])


def symmetric_pair(magnitude):
    """Marks of ``+magnitude`` / ``-magnitude`` with equal probability."""
    return Discrete([-magnitude, magnitude], [0.5, 0.5])


def expectation(dist, fn):
    """Expectation of ``fn`` under ``dist``.

    Discrete laws are summed exactly; bounded continuous laws are
    integrated with a fixed 64-node Gauss-Legendre rule on their declared
    support, which keeps the result deterministic across runs.  ``fn`` may
    put the nodes on the last axis of a larger array; the sum runs over it.
    """
    if hasattr(dist, "values"):
        nodes, weights = dist.values, dist.probs
    elif hasattr(dist, "pdf") and hasattr(dist, "support"):
        lo, hi = dist.support
        z, w = np.polynomial.legendre.leggauss(_GAUSS_NODES)
        nodes = 0.5 * (hi - lo) * z + 0.5 * (hi + lo)
        weights = 0.5 * (hi - lo) * w * dist.pdf(nodes)
    else:
        raise ParameterError(
            "distribution must be discrete (values/probs) or continuous with "
            "bounded support (pdf/support) to take expectations"
        )
    out = np.sum(weights * np.asarray(fn(nodes), dtype=float), axis=-1)
    return out if np.ndim(out) else float(out)
