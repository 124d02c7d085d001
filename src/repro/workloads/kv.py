"""Key-value workload generators for the benchmarks.

§VI.A.1 fixes the experiment shape: "all the Key-Value pair has a 20
bytes key which was generated randomly like 'test-00000000000000', and
has a 20 bytes value which was a constant value."  :func:`paper_keys`
reproduces exactly that.  Zipfian/uniform mixes cover the ablations.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import Iterator

__all__ = ["paper_keys", "PAPER_VALUE", "uniform_keys", "zipfian_keys",
           "ZipfGenerator"]

PAPER_VALUE = b"value-0123456789abcd"
assert len(PAPER_VALUE) == 20


def paper_keys(n: int, seed: int = 0) -> list[bytes]:
    """``n`` random 20-byte keys in the paper's 'test-XXXXXXXXXXXXXX' shape."""
    rng = random.Random(seed)
    keys = []
    for _ in range(n):
        # 'test-' + 15 digits = 20 bytes (the paper's example prints 14
        # zeros but specifies 20-byte keys; we honour the byte count).
        suffix = "".join(rng.choice("0123456789") for _ in range(15))
        keys.append(f"test-{suffix}".encode())
    return keys


def uniform_keys(n: int, space: int, seed: int = 0) -> Iterator[bytes]:
    """``n`` draws uniformly from a key space of ``space`` distinct keys."""
    rng = random.Random(seed)
    for _ in range(n):
        yield f"uni-{rng.randrange(space):012d}".encode()


#: Shared harmonic-CDF cache keyed ``(space, theta)``.  A 5x5 theta
#: sweep builds 25 generators per client stream; without the cache each
#: one redoes the O(space) harmonic sum.  The tables are immutable
#: tuples, so sharing across generators cannot couple their draws.
_CDF_CACHE: dict[tuple[int, float], tuple[float, ...]] = {}


def _zipf_cdf(space: int, theta: float) -> tuple[float, ...]:
    """The (cached) inverse-sampling CDF for Zipf(theta) over ``space``."""
    key = (space, theta)
    cdf = _CDF_CACHE.get(key)
    if cdf is None:
        weights = [1.0 / (rank ** theta) for rank in range(1, space + 1)]
        total = sum(weights)
        acc = 0.0
        out = []
        for w in weights:
            acc += w / total
            out.append(acc)
        cdf = _CDF_CACHE[key] = tuple(out)
    return cdf


class ZipfGenerator:
    """Zipfian key sampler (skewed popularity, like tweet authors).

    Uses the classic rejection-free inverse-CDF over precomputed
    harmonic weights (cached per ``(space, theta)``); deterministic
    per seed.  ``seed`` may be an int or a string — string seeds go
    through ``random.Random``'s sha512 path, so they are stable across
    ``PYTHONHASHSEED`` values.
    """

    def __init__(self, space: int, theta: float = 0.99, seed=0):
        if space < 1:
            raise ValueError("space must be >= 1")
        if theta <= 0:
            raise ValueError("theta must be positive")
        self.theta = theta
        self._rng = random.Random(seed)
        self._cdf = _zipf_cdf(space, theta)

    def sample(self) -> int:
        """One rank in [0, space), rank 0 most popular."""
        return bisect_left(self._cdf, self._rng.random())


def zipfian_keys(n: int, space: int, theta: float = 0.99,
                 seed: int = 0) -> Iterator[bytes]:
    """``n`` Zipf-distributed draws over ``space`` keys."""
    gen = ZipfGenerator(space, theta, seed)
    for _ in range(n):
        yield f"zipf-{gen.sample():012d}".encode()
