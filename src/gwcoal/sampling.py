"""Reproducible random number plumbing.

Every sampler in the package consumes uniforms from a ``UniformStream``.
Streams are derived from ``(seed, run_id)`` pairs, so a campaign of runs
gives identical results no matter how the runs are spread over workers.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from typing import Callable, Sequence, TypeVar

import numpy as np

from .laws import FiniteSupportLaw, LinearFractionalLaw, OffspringLaw

_MASK64 = (1 << 64) - 1

T = TypeVar("T")


def rng_for_run(seed: int, run_id: int) -> np.random.Generator:
    """Independent generator for one run of a campaign."""
    entropy = (int(seed) & _MASK64, int(run_id))
    return np.random.default_rng(np.random.SeedSequence(entropy))


class UniformStream:
    """Block-buffered uniforms in [0, 1) drawn from a numpy generator."""

    __slots__ = ("_rng", "_block", "_buf", "_pos")

    def __init__(self, rng: np.random.Generator | int, block: int = 8192):
        if isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(np.random.SeedSequence(int(rng) & _MASK64))
        self._rng = rng
        self._block = block
        self._buf: list[float] = []
        self._pos = 0

    def next(self) -> float:
        if self._pos >= len(self._buf):
            self._buf = self._rng.random(self._block).tolist()
            self._pos = 0
        u = self._buf[self._pos]
        self._pos += 1
        return u


def stream_for_run(seed: int, run_id: int, block: int = 8192) -> UniformStream:
    return UniformStream(rng_for_run(seed, run_id), block=block)


def as_stream(source: UniformStream | np.random.Generator | int) -> UniformStream:
    if isinstance(source, UniformStream):
        return source
    return UniformStream(source)


def cumulative(probs: Sequence[float | Fraction]) -> tuple[float, ...]:
    out = []
    acc = 0.0
    for p in probs:
        acc += float(p)
        out.append(acc)
    return tuple(out)


def draw_from_cumulative(cum: Sequence[float], stream: UniformStream) -> int:
    return bisect_right(cum, stream.next())


def geometric_failures(success: float, stream: UniformStream) -> int:
    """Number of failures before the first success, success prob in (0, 1]."""
    if success >= 1.0:
        return 0
    u = stream.next()
    return int(math.log1p(-u) / math.log1p(-success))


def draw_count(law: OffspringLaw, stream: UniformStream) -> int:
    """Sample one child count from an offspring law."""
    if isinstance(law, FiniteSupportLaw):
        return draw_from_cumulative(cumulative(law.probs), stream)
    # linear fractional: zero with prob 1-r, else 1 + geometric failures
    if stream.next() < 1.0 - law.r:
        return 0
    return 1 + geometric_failures(law.p, stream)


def indexed_map(fn: Callable[[int], T], n_runs: int, threads: int = 1) -> list[T]:
    """Apply fn to run ids 0..n_runs-1, merging results in run order.

    The per-run work must derive all of its randomness from the run id, so
    the thread count cannot change any output.
    """
    if threads <= 1:
        return [fn(i) for i in range(n_runs)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(n_runs)))
