"""Reproducible random number plumbing.

Every sampler in the package consumes uniforms from a ``UniformStream``.
Run ``r`` of seed ``s`` reads the PCG64 stream of ``SeedSequence((s, r))``
in order, so each run's output depends on its own pair only.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DomainError
from .laws import FiniteSupportLaw, LinearFractionalLaw, OffspringLaw


def _check_seed(seed: int) -> int:
    if not 0 <= int(seed) < 1 << 64:
        raise DomainError(f"seed must be in [0, 2**64), got {seed}")
    return int(seed)


def rng_for_run(seed: int, run_id: int) -> np.random.Generator:
    """Independent generator for one run of a campaign."""
    return np.random.default_rng(np.random.SeedSequence((_check_seed(seed), int(run_id))))


class UniformStream:
    """Uniforms in [0, 1) from a numpy generator, in blocks of 32 doubling up
    to ``block``: a float64 uniform takes one 64-bit output, so the values
    read are those of one ``rng.random(n)`` call whatever the block sizes."""

    __slots__ = ("_rng", "_block", "_buf", "_pos")

    def __init__(self, rng: np.random.Generator | int, block: int = 8192):
        if isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(np.random.SeedSequence(_check_seed(rng)))
        self._rng = rng
        self._block = block
        self._buf: list[float] = []
        self._pos = 0

    def _refill(self) -> list[float]:
        size = min(self._block, max(32, 2 * len(self._buf)))
        self._buf = self._rng.random(size).tolist()
        self._pos = 0
        return self._buf

    def next(self) -> float:
        if self._pos >= len(self._buf):
            self._refill()
        u = self._buf[self._pos]
        self._pos += 1
        return u

    def take(self, n: int) -> list[float]:
        """The next n uniforms, the values of n calls to ``next``."""
        buf, pos = self._buf, self._pos
        end = pos + n
        if end <= len(buf):
            self._pos = end
            return buf[pos:end]
        out = buf[pos:]
        while True:
            buf = self._refill()
            need = n - len(out)
            if need <= len(buf):
                self._pos = need
                return out + buf[:need]
            out += buf


def stream_for_run(seed: int, run_id: int) -> UniformStream:
    return UniformStream(rng_for_run(seed, run_id))


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
