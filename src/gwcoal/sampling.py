"""Reproducible random number plumbing.

Every sampler in the package consumes uniforms from a ``UniformStream``.
Run ``r`` of seed ``s`` reads the PCG64 stream of ``SeedSequence((s, r))``
in order, so each run's output depends on its own pair only.
``stream_for_run`` builds that stream for one run; ``campaign_streams``
builds it for runs ``0..n-1`` on one generator, hashing every run's seed
sequence at once.  A campaign of at least ``_LONG`` runs also computes its
runs' first blocks of uniforms in numpy, from PCG64's LCG jumped ahead and
its XSL-RR output, so a run that reads no further never sets the
generator's state.  ``campaign_blocks`` hands out those blocks a sub-chunk
of runs at a time, with each run's stream made on demand, so a caller
that reads a run's values off its block makes no stream for it.  The
uniforms read, and the rule that a stream is read to its end before the
next one is made, are the same either way.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import compress, count, repeat
from operator import le
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from .errors import DomainError, EnumerationGuardError
from .laws import FiniteSupportLaw, LinearFractionalLaw, OffspringLaw

if TYPE_CHECKING:
    from .environment import Environment


def _check_seed(seed: int) -> int:
    if not 0 <= int(seed) < 1 << 64:
        raise DomainError(f"seed must be in [0, 2**64), got {seed}")
    return int(seed)


def rng_for_run(seed: int, run_id: int) -> np.random.Generator:
    """Independent generator for one run of a campaign."""
    return np.random.default_rng(np.random.SeedSequence((_check_seed(seed), int(run_id))))


# Most individuals one forward draw may hold, all its generations together.
MAX_WIDTH = 1_000_000
# The size of a stream's first block.
_FIRST = 32


class UniformStream:
    """Uniforms in [0, 1) from a numpy generator, in blocks of 32 doubling up
    to ``block``, at least 1: a float64 uniform takes one 64-bit output, so
    the values read are those of one ``rng.random(n)`` call whatever the
    block sizes.  A block never exceeds ``MAX_WIDTH``, so ``draw_forward``,
    which checks its size guard where a row crosses a block's end, reads at
    most one block past the guard."""

    __slots__ = ("_rng", "_block", "_buf", "_pos", "_lease")

    def __init__(self, rng: np.random.Generator | int, block: int = 8192):
        if block < 1:
            # an empty refill would leave take() and first_reaching() reading forever
            raise DomainError(f"block must be >= 1, got {block}")
        if isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(np.random.SeedSequence(_check_seed(rng)))
        self._rng = rng
        # not min(), which costs about 0.25 µs more, once per run of a campaign
        self._block = block if block <= MAX_WIDTH else MAX_WIDTH
        self._buf: list[float] = []
        self._pos = 0
        # a campaign stream shares its generator: [False] once the next run has it
        self._lease: list[bool] | None = None

    def _refill(self) -> list[float]:
        if self._lease is not None and not self._lease[0]:
            raise RuntimeError("a campaign stream was read after the next run's stream was made")
        size = min(self._block, max(_FIRST, 2 * len(self._buf)))
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
        if pos <= end <= len(buf):
            self._pos = end
            return buf[pos:end]
        if n < 0:
            # a negative count would move the read position back
            raise DomainError(f"cannot take a negative number of uniforms, got {n}")
        out = buf[pos:]
        while True:
            buf = self._refill()
            need = n - len(out)
            if need <= len(buf):
                self._pos = need
                return out + buf[:need]
            out += buf

    def first_reaching(self, floors: Sequence[float]) -> tuple[int, float] | None:
        """Read uniforms up to the first one at or above its floor, the i-th
        read against ``floors[i]``, and return its (i, u); None once one
        uniform per floor was read, all below.  The values read are those of
        calls to ``next``."""
        buf, pos = self._buf, self._pos
        done = 0
        while floors:
            if pos == len(buf):
                buf, pos = self._refill(), 0
            us = buf[pos:pos + len(floors)]
            hit = next(compress(count(), map(le, floors, us)), None)
            if hit is not None:
                self._pos = pos + hit + 1
                return done + hit, us[hit]
            pos += len(us)
            done += len(us)
            floors = floors[len(us):]
        self._pos = pos
        return None


def stream_for_run(seed: int, run_id: int) -> UniformStream:
    return UniformStream(rng_for_run(seed, run_id))


# numpy's SeedSequence: O'Neill's seed_seq hash with a pool of four 32-bit words
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_CHUNK = 4096
# A campaign of at least _LONG runs computes its runs' first blocks in
# numpy, _SUB runs at a time.  A run that reads past its block pays more
# than one seated as its stream is made, and blocks computed for fewer runs
# pay more of the numpy calls' fixed cost, so a shorter campaign seats
# every run, and a long one stops computing blocks once most of its runs
# read past them.
_LONG = 128
_SUB = 256


def _words(n: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence reads from an int."""
    out = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        out.append(n & _MASK32)
    return out


def _seed_states(seed: int, run_ids: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence((seed, r)).generate_state(4, np.uint64)`` for every r of
    ``run_ids`` (uint32), as four uint64 columns."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ (value >> 16)

    def mix(x, y):
        value = x * _MIX_L - y * _MIX_R
        return value ^ (value >> 16)

    n = len(run_ids)
    # at most two seed words and one run word, so the entropy fits the pool
    entropy = [np.full(n, w, dtype=np.uint32) for w in _words(seed)] + [run_ids]
    entropy += [np.zeros(n, dtype=np.uint32)] * (_POOL - len(entropy))
    pool = [hashmix(word) for word in entropy]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    const = _INIT_B
    words = []
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        words.append((value ^ (value >> 16)).astype(np.uint64))
    return [words[i] | (words[i + 1] << 32) for i in range(0, 2 * _POOL, 2)]


# PCG64's LCG jumped ahead (Brown 1994).  Seeding leaves the state
# M·t + inc, t = initstate + inc, and j draws later it is A_j·t + G_j·inc
# mod 2**128, A_j = M**(j+1), G_j = M**j + ... + M + 1.
def _lcg_jumps(draws: int) -> list[tuple[int, int]]:
    """(A_j, G_j) for j = 0..draws."""
    jumps = [(_PCG_MULT, 1)]
    for _ in range(draws):
        a, g = jumps[-1]
        jumps.append((a * _PCG_MULT & _MASK128, (g * _PCG_MULT + 1) & _MASK128))
    return jumps


_LCG_JUMPS = _lcg_jumps(_FIRST)


def _pcg64_state(words: list[list[int]], run: int, draws: int) -> tuple[int, int]:
    """PCG64 (state, inc) seeded by the ``SeedSequence`` words of ``run``
    (``_seed_states`` as lists), ``draws`` draws later."""
    hi_states, lo_states, hi_seqs, lo_seqs = words
    hi_state, lo_state, hi_seq, lo_seq = hi_states[run], lo_states[run], hi_seqs[run], lo_seqs[run]
    a, g = _LCG_JUMPS[draws]
    inc = (hi_seq << 65 | lo_seq << 1 | 1) & _MASK128
    return ((hi_state << 64 | lo_state) + inc) * a + inc * g & _MASK128, inc


def _limbs(values: list[int]) -> list[np.ndarray]:
    """The high and low words of 128-bit ints, then the 32-bit halves of the
    low word, each as a uint64 column."""
    low = [v & _MASK64 for v in values]
    return [np.array(col, dtype=np.uint64)[:, None]
            for col in ([v >> 64 for v in values], low, [v & _MASK32 for v in low],
                        [v >> 32 for v in low])]


# the (A_j, G_j) of the states after 1.._FIRST draws, as limbs
_A_HI, _A_LO, _A0, _A1 = _limbs([a for a, _ in _LCG_JUMPS[1:]])
_G_HI, _G_LO, _G0, _G1 = _limbs([g for _, g in _LCG_JUMPS[1:]])
_U1, _U11, _U32, _U58, _U63, _U64 = (np.uint64(k) for k in (1, 11, 32, 58, 63, 64))
_M32 = np.uint64(_MASK32)


def _add_mul_hi(acc: np.ndarray, c0: np.ndarray, c1: np.ndarray, x: np.ndarray) -> None:
    """Add to ``acc`` the high word of c·x, for c = c1·2**32 + c0 per row and
    x per column, taken on 32-bit halves so that no product overflows."""
    x0, x1 = x & _M32, x >> _U32
    cross = c0 * x1
    low = c0 * x0
    low >>= _U32
    cross += low
    np.bitwise_and(cross, _M32, out=low)
    cross >>= _U32
    acc += cross
    np.multiply(c1, x0, out=cross)
    low += cross
    low >>= _U32
    acc += low
    np.multiply(c1, x1, out=cross)
    acc += cross


def _first_blocks(columns: list[np.ndarray]) -> np.ndarray:
    """The first ``_FIRST`` uniforms of the runs with the seed words
    ``columns`` (see ``_seed_states``), one row per run."""
    hi_state, lo_state, hi_seq, lo_seq = columns
    inc_hi = hi_seq << _U1 | lo_seq >> _U63
    inc_lo = lo_seq << _U1 | _U1
    t_lo = lo_state + inc_lo
    t_hi = hi_state + inc_hi + (t_lo < inc_lo)
    # A_j·t + G_j·inc on 64-bit words, one row per j, with at most three
    # (rows, runs) arrays alive at once
    hi = _A_HI * t_lo
    hi += _A_LO * t_hi
    hi += _G_HI * inc_lo
    hi += _G_LO * inc_hi
    _add_mul_hi(hi, _A0, _A1, t_lo)
    _add_mul_hi(hi, _G0, _G1, inc_lo)
    lo = _A_LO * t_lo
    term = _G_LO * inc_lo
    lo += term
    hi += lo < term
    # XSL-RR: the two words xor-ed, rotated right by the state's top 6 bits;
    # random() keeps the top 53 bits of that output
    rot = np.right_shift(hi, _U58, out=term)
    hi ^= lo
    np.right_shift(hi, rot, out=lo)
    np.subtract(_U64, rot, out=rot)
    rot &= _U63
    hi <<= rot
    hi |= lo
    hi >>= _U11
    return (hi * 2.0 ** -53).T


class _CampaignRng:
    """The generator slot of one campaign, the ``_rng`` of every stream whose
    first block the campaign computed.

    It stands for the current run: ``block``, that first block, and ``run``,
    the run's index in the seed words ``seeds`` while the shared PCG64 is
    not yet at the run's state past the block.  The run's first ``random``
    call returns the block; the next one seats the PCG64, counts the run in
    ``past`` and draws.  A stream calls ``random`` only while its lease
    holds, so every call is the current run's.
    """

    __slots__ = ("bitgen", "rng", "draws", "seeds", "run", "block", "past")

    def __init__(self):
        self.bitgen = np.random.PCG64(0)
        self.rng = np.random.Generator(self.bitgen)
        self.draws = 0  # the size of the current run's block, 0 for none
        self.seeds: list[list[int]] = []
        self.run = -1
        self.block: np.ndarray | None = None
        self.past = 0

    def seat(self, run: int) -> None:
        """Set the shared PCG64 to the state of ``run`` past its block."""
        state, inc = _pcg64_state(self.seeds, run, self.draws)
        self.bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                             "has_uint32": 0, "uinteger": 0}

    def random(self, size: int) -> np.ndarray:
        block = self.block
        if block is not None:
            # a campaign stream's first refill, of _FIRST uniforms
            self.block = None
            return block
        if self.run >= 0:
            self.seat(self.run)
            self.run = -1
            self.past += 1
        return self.rng.random(size)


SubChunk = tuple[np.ndarray | None, int, Callable[[int], UniformStream]]


def campaign_blocks(seed: int, n: int) -> Iterator[SubChunk]:
    """The runs 0..n-1 of seed ``seed``, a sub-chunk of runs at a time, as
    ``(blocks, size, stream)``.

    ``size`` counts the sub-chunk's runs.  ``blocks`` holds their first
    ``_FIRST`` uniforms, one row per run, or is None where the campaign
    computes none.  ``stream(i)`` makes the stream of the sub-chunk's i-th
    run, which reads the uniforms of ``stream_for_run``; a caller that reads
    a run's values off its row makes no stream for it.  The streams share
    one generator, so they are made in run order, each read to its end
    before the next is made, and a sub-chunk's before the next sub-chunk is
    taken: a stream that needs more uniforms after that raises
    ``RuntimeError``, even one that has read none.

    A campaign of at least ``_LONG`` runs computes blocks, ``_SUB`` runs at
    a time, and sets the generator to a run's state only when the run reads
    past its block.  After a sub-chunk of which more than half the runs
    read past their blocks it stops, and from then on sets the generator as
    each stream is made, as a shorter campaign does throughout.
    """
    seed = _check_seed(seed)
    if not 0 <= n <= _MASK32 + 1:
        raise DomainError(f"run count must be in [0, 2**32] so that run ids fit 32 bits, "
                          f"got {n}")
    return _sub_chunks(seed, n)


def _sub_chunks(seed: int, n: int) -> Iterator[SubChunk]:
    slot = _CampaignRng()
    blocks = n >= _LONG
    lease = [False]
    sub, part = 0, None

    def stream(i: int) -> UniformStream:
        # run sub + i of the chunk; the lease of the stream made before it ends
        nonlocal lease
        lease[0] = False
        lease = [True]
        if part is None:
            # seated now, the stream draws from the generator itself
            slot.seat(sub + i)
            out = UniformStream(slot.rng)
        else:
            slot.run, slot.block = sub + i, part[i]
            out = UniformStream(slot)
        out._lease = lease
        return out

    for start in range(0, n, _CHUNK):
        columns = _seed_states(seed, np.arange(start, min(n, start + _CHUNK), dtype=np.uint32))
        slot.seeds = [c.tolist() for c in columns]
        runs = len(columns[0])
        for sub in range(0, runs, _SUB):
            # a block pays for itself only in a run that reads no further
            blocks = blocks and 2 * slot.past <= _SUB
            slot.draws, slot.past = (_FIRST if blocks else 0), 0
            part = _first_blocks([c[sub:sub + _SUB] for c in columns]) if blocks else None
            yield part, min(_SUB, runs - sub), stream


def campaign_streams(seed: int, n: int) -> Iterator[UniformStream]:
    """The streams of ``stream_for_run(seed, r)`` for r = 0..n-1, in order:
    every stream of ``campaign_blocks(seed, n)``, made as it is taken.  A
    stream must be read to its end before the next one is taken."""
    return (stream(i) for _, size, stream in campaign_blocks(seed, n) for i in range(size))


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


def geometric_from_uniform(log_fail: float, u: float) -> int:
    """Failures before the first success read off one uniform, where
    ``log_fail`` is ``log1p(-success)`` for a success prob in (0, 1)."""
    return int(math.log1p(-u) / log_fail)


def geometric_failures(success: float, stream: UniformStream) -> int:
    """Number of failures before the first success, success prob in (0, 1]."""
    if success >= 1.0:
        return 0
    return geometric_from_uniform(math.log1p(-success), stream.next())


def _too_wide(size: int) -> EnumerationGuardError:
    return EnumerationGuardError(
        f"a forward draw reached {size} individuals, more than {MAX_WIDTH}")


def draw_forward(env: Environment, stream: UniformStream,
                 limit: int) -> tuple[list[list[int]], int, int]:
    """Read forward draws until one survives, at most ``limit`` of them.

    A draw grows from one founder, generation by generation, with one child
    count per individual, and stops after its first generation without
    children, so a dead draw has fewer rows than the horizon.  Returns the
    child counts and final width of the first surviving draw, or of the last
    draw read when none survives, and the number of draws read.  The
    uniforms read are those of one ``draw_count`` per individual, in order:
    ``pmf`` generations are read off the stream's block, a founder dead at
    its uniform costing one comparison.

    A draw of more than ``MAX_WIDTH`` individuals, all its generations
    together, raises EnumerationGuardError before it is built into a tree.
    A row read in place takes one uniform per individual, so the draw's
    size is ``base + pos + width``, with ``base`` brought up to date where
    the block pointer jumps.  The check sits there, where a row does not
    fit the block or is an ``lf`` row, and on the final width, so the rows
    read in place pay nothing for it and a draw reads at most one block
    past the bound.
    """
    cums = env.levels.offspring_cumulatives
    levels = list(zip(env.laws, cums))
    first = cums[0]
    if first is not None:
        empty = first[0]  # a founder's uniform below it gives no child
        levels = levels[1:]
    buf, pos = stream._buf, stream._pos
    end = len(buf)
    counts: list[list[int]] | None = []
    width = read = 0
    while read < limit:
        read += 1
        if first is None:
            counts, width = [], 1
            base = -pos
        else:
            if pos == end:
                buf = stream._refill()
                pos, end = 0, len(buf)
            u = buf[pos]
            pos += 1
            if u < empty:
                counts = None
                continue
            width = bisect_right(first, u)
            counts = [[width]]
            base = 1 - pos
        for law, cum in levels:
            if cum is None or pos + width > end:
                # an lf generation, or a row that crosses the block's end
                size = base + pos + width
                if size > MAX_WIDTH:
                    raise _too_wide(size)
                stream._pos = pos
                if cum is None:
                    row = [draw_count(law, stream) for _ in range(width)]
                else:
                    row = [bisect_right(cum, u) for u in stream.take(width)]
                buf, pos = stream._buf, stream._pos
                end = len(buf)
                base = size - pos
                width = sum(row)
            elif width == 1:
                width = bisect_right(cum, buf[pos])
                pos += 1
                row = [width]
            else:
                row = list(map(bisect_right, repeat(cum), buf[pos:pos + width]))
                pos += width
                width = sum(row)
            counts.append(row)
            if not width:
                break
        size = base + pos + width
        if size > MAX_WIDTH:
            raise _too_wide(size)
        if width:
            break
    stream._pos = pos
    if counts is None:
        counts = [[0]]
    return counts, width, read


def draw_count(law: OffspringLaw, stream: UniformStream) -> int:
    """Sample one child count from an offspring law."""
    if isinstance(law, FiniteSupportLaw):
        return draw_from_cumulative(cumulative(law.probs), stream)
    # linear fractional: zero with prob 1-r, else 1 + geometric failures
    if stream.next() < 1.0 - law.r:
        return 0
    return 1 + geometric_failures(law.p, stream)
