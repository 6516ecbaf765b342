"""Backward chains that generate the genealogy without growing a tree.

The truncated-vector chain ("b") carries, for each successive present
individual, the counts of extra surviving daughters seen at each ancestor
level up to the running maximum of coalescent times.  Its first nonzero
entry is the next coalescent time.  The fixed-length chain ("d") carries all
levels up to the horizon.  Both consume fresh spine-sibling draws at the
levels below the current coalescent time and terminate when no further
individual exists within the horizon.

A state is held as a point measure: ``(length, pairs)``, where ``pairs``
lists the (level, count) of its nonzero entries with levels rising, so the
next coalescent time is ``pairs[0][0]``.  ``dense`` rebuilds the vector, for
printing only.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, compress
from operator import le
from typing import Callable, Iterator

import numpy as np

from .environment import Environment
from .errors import ChainStateError
from .pgf import EtaLaw
from .sampling import (
    UniformStream,
    as_stream,
    campaign_blocks,
    cumulative,
    draw_from_cumulative,
    geometric_failures,
    geometric_from_uniform,
)
from .tree import BtState, b_states, bt_star, state_pairs

class EtaSamplers:
    """Per-level samplers of the spine-sibling law, levels 1..N.

    ``draw`` reads one level's value from the stream: the per-level
    reference, kept for the tests and the benchmark tracer.  The chains call
    ``fresh`` and ``extend``, which read the same values, in the same order,
    through one index of the levels that read a uniform: their level
    numbers, their maps from a uniform to a value and their floors, with the
    count of such levels below each level.  A uniform below its level's
    floor gives 0 without a call to the map: the floor is ``cum[0]`` for a
    finite law, as ``bisect_right(cum, u) == 0`` exactly when ``u < cum[0]``,
    and 0.0 for a geometric law.  Only a geometric level whose success
    probability rounds to 1 reads no uniform: it is always 0, and the index
    leaves it out.
    """

    def __init__(self, env: Environment):
        self.horizon = env.horizon
        self._laws: list[EtaLaw] = env.levels.etas()
        self._cum = [None if law.geom is not None else cumulative(law.probs) for law in self._laws]
        # None marks a geometric law with success probability 1: always 0,
        # and it reads no uniform
        self._maps = [partial(bisect_right, cum) if cum is not None
                      else partial(geometric_from_uniform, math.log1p(-law.geom))
                      if law.geom < 1.0 else None
                      for law, cum in zip(self._laws, self._cum)]
        self._floors = [0.0 if cum is None else cum[0] for cum in self._cum]
        self._read_levels = list(compress(range(1, self.horizon + 1), self._maps))
        self._read_maps = list(filter(None, self._maps))
        self._read_floors = list(compress(self._floors, self._maps))
        # _reads_below[k]: the levels among 1..k that read a uniform
        self._reads_below = list(accumulate(map(bool, self._maps), initial=0))

    def law(self, level: int) -> EtaLaw:
        return self._laws[level - 1]

    def draw(self, level: int, stream: UniformStream) -> int:
        law = self._laws[level - 1]
        if law.geom is not None:
            return geometric_failures(law.geom, stream)
        return draw_from_cumulative(self._cum[level - 1], stream)

    def fresh(self, count: int, stream: UniformStream) -> list[tuple[int, int]]:
        """(level, value) of the nonzero values at levels 1..count, those of
        ``draw`` level by level."""
        levels, maps = self._read_levels, self._read_maps
        n = self._reads_below[count]
        us = stream.take(n)
        out = []
        for j in compress(range(n), map(le, self._read_floors, us)):
            if v := maps[j](us[j]):
                out.append((levels[j], v))
        return out

    def extend(self, length: int, stream: UniformStream) -> tuple[int, int] | None:
        """(level, value) of the first nonzero value at the levels after
        ``length``, read in level order; None when the horizon comes first."""
        j = self._reads_below[length]
        while (hit := stream.first_reaching(self._read_floors[j:])) is not None:
            j += hit[0]
            if v := self._read_maps[j](hit[1]):
                return self._read_levels[j], v
            j += 1
        return None


# (length, pairs): the (level, count) of the nonzero entries, levels rising
State = tuple[int, BtState]


def dense(state: State) -> tuple[int, ...]:
    """The state's entries at levels 1..length."""
    length, pairs = state
    vec = [0] * length
    for level, v in pairs:
        vec[level - 1] = v
    return tuple(vec)


def _redraw(pairs: BtState, samplers: EtaSamplers, stream: UniformStream) -> BtState:
    """Fresh draws below the first level a, the entry at a less one, the
    entries above copied."""
    a = pairs[0][0]
    rest = bt_star(pairs)
    return tuple(samplers.fresh(a - 1, stream)) + rest if a > 1 else rest


def b_step(state: State, samplers: EtaSamplers,
           stream: UniformStream) -> tuple[State, int] | tuple[None, None]:
    """One transition of the truncated chain; returns the next state and its
    first nonzero level, the next coalescent time, or ``(None, None)`` when
    the next individual does not exist within the horizon.

    The state's length is the running maximum of coalescent times and its
    first nonzero entry is the next one; the initial state is ``(0, ())``.
    Entries above the current coalescent time are copied, the entry at it is
    decremented, entries below are replaced by fresh level draws.  If that
    leaves the vector with no nonzero entry, further levels are drawn one by
    one (extending the vector) until a nonzero value appears or the horizon
    is exhausted.
    """
    length, pairs = state
    if pairs:
        pairs = _redraw(pairs, samplers, stream)
        if pairs:
            return (length, pairs), pairs[0][0]
    elif length:
        raise ChainStateError("all-zero state is represented by termination")
    new = samplers.extend(length, stream)
    if new is None:
        return None, None
    return (new[0], (new,)), new[0]


def d_step(state: State | None, samplers: EtaSamplers,
           stream: UniformStream) -> tuple[State, int | None]:
    """One transition of the fixed-length chain; returns the next state and
    its first nonzero level.

    ``None`` plays the initial role: every level gets a fresh draw.  The
    result may be all-zero, ``(N, ())`` with level ``None``, which means no
    further individual exists.
    """
    N = samplers.horizon
    if state is None:
        pairs = tuple(samplers.fresh(N, stream))
    else:
        length, pairs = state
        if length != N:
            raise ChainStateError(f"state length {length} != horizon {N}")
        if not pairs:
            raise ChainStateError("stepping an all-zero state; the run has terminated")
        pairs = _redraw(pairs, samplers, stream)
    return (N, pairs), pairs[0][0] if pairs else None


@dataclass
class ChainRun:
    """Realized backward chain: visited states and emitted coalescent times.

    A terminated run describes a genealogy with ``len(a_values) + 1`` present
    individuals.
    """

    a_values: list[int] = field(default_factory=list)
    states: list = field(default_factory=list)
    terminated: bool = False

    @property
    def k(self) -> int | None:
        return len(self.a_values) + 1 if self.terminated else None


def _run(step, state, env: Environment, rng, max_individuals: int,
         samplers: EtaSamplers | None) -> ChainRun:
    """Step from ``state`` until a step finds no next coalescent time."""
    if samplers is None:
        samplers = EtaSamplers(env)
    stream = as_stream(rng)
    run = ChainRun()
    while len(run.a_values) < max_individuals:
        state, first = step(state, samplers, stream)
        if first is None:
            run.terminated = True
            return run
        run.states.append(state)
        run.a_values.append(first)
    return run


def b_run(env: Environment, rng, max_individuals: int = 1_000_000,
          samplers: EtaSamplers | None = None) -> ChainRun:
    """Run the truncated chain from the empty state until termination."""
    return _run(b_step, (0, ()), env, rng, max_individuals, samplers)


def d_run(env: Environment, rng, max_individuals: int = 1_000_000,
          samplers: EtaSamplers | None = None) -> ChainRun:
    """Run the fixed-length chain from the null state until termination."""
    return _run(d_step, None, env, rng, max_individuals, samplers)


def lf_run(env: Environment, rng, max_individuals: int = 1_000_000) -> ChainRun:
    """Genealogy sampled from the LF closed form: independent coalescent
    times drawn until one falls past the horizon.

    The paper shows that when every offspring law is linear fractional the
    coalescent times are i.i.d., so the i-th time is the i-th uniform read
    through ``lf_cumulative`` and nothing else.  ``lf_campaign`` reads every
    run's first block of uniforms that way off a matrix, and calls this for
    the runs that read past it.
    """
    N = env.horizon
    cum = env.levels.lf_cumulative
    uniform = as_stream(rng).next
    a_values = []
    while len(a_values) < max_individuals:
        idx = bisect_right(cum, uniform())
        if idx >= N:
            return ChainRun(a_values, terminated=True)
        a_values.append(idx + 1)
    return ChainRun(a_values)


def lf_campaign(env: Environment, seed: int, n: int,
                max_individuals: int = 1_000_000) -> Iterator[ChainRun]:
    """The runs ``lf_run(env, stream, max_individuals)`` on the streams of
    ``campaign_streams(seed, n)``, in order: the same runs, read off the
    same uniforms.

    The times of an LF environment being i.i.d. (the paper's LF theorem),
    the first blocks of a sub-chunk's runs map to times in one
    ``searchsorted`` over ``lf_cumulative``.  A run ends at the first
    uniform of its row that falls past the horizon, or is left unfinished
    after ``max_individuals`` times; a run decided within its row makes no
    stream.  A run whose row holds no end while the cap lets it read
    further keeps the row's times, and ``lf_run`` reads the rest on its
    stream, past the row.
    """
    cum = np.array(env.levels.lf_cumulative)
    for blocks, size, stream in campaign_blocks(seed, n):
        width = blocks.shape[1]
        # bisect_right(cum, u) is N, past the horizon, exactly when u >= cum[-1]
        past = blocks >= cum[-1]
        ends = np.where(past.any(axis=1), past.argmax(axis=1), width)
        # the times a run reads off its row: those before its end, at most
        # the cap, in one search over the rows' leading uniforms; the cap is
        # clamped to the row first, as numpy takes no int past 64 bits
        counts = np.minimum(ends, min(max_individuals, width))
        times = np.searchsorted(cum, blocks[np.arange(width) < counts[:, None]], side="right")
        times += 1
        times = times.tolist()
        capped = max_individuals <= width
        start = 0
        for i, (end, count) in enumerate(zip(ends.tolist(), counts.tolist())):
            row = times[start:start + count]
            start += count
            if end < width or capped:
                yield ChainRun(row, terminated=end < max_individuals)
            else:
                # no end in the row, and the run may read further
                rest = stream(i)
                rest.take(width)
                run = lf_run(env, rest, max_individuals - width)
                yield ChainRun(row + run.a_values, terminated=run.terminated)


# ---------------------------------------------------------------------------
# Pathwise validation of realized runs, used by tests and the CLI.
# ---------------------------------------------------------------------------


def _validate(run: ChainRun, horizon: int,
              exact: Callable[[list[int], BtState], list[State]]) -> None:
    """``validate_b_run`` with ``exact(times, after)`` the states of the
    times followed by D_{m+1}'s pairs ``after``."""
    times = run.a_values
    if len(run.states) != len(times):
        raise ChainStateError(f"{len(run.states)} states for {len(times)} times")
    if times and not (1 <= min(times) and max(times) <= horizon):
        raise ChainStateError(f"times span {min(times)}..{max(times)}, outside 1..{horizon}")
    after: BtState = ()
    if not run.terminated and run.states:
        # the pairs above the first go through the scan unchanged, so the
        # comparison cannot see what is wrong with them
        length, pairs = last = run.states[-1]
        below = 0
        for level, v in pairs:
            if not below < level <= length or v <= 0:
                raise ChainStateError(
                    f"state {last} does not list positive counts at levels rising in 1..{length}")
            below = level
        after = bt_star(pairs)
    for j, (state, want) in enumerate(zip(run.states, exact(times, after)), 1):
        if state != want:
            raise ChainStateError(f"state {j} is {state}, but the times give {want}")


def validate_b_run(run: ChainRun, horizon: int) -> None:
    """Check a realized run's states against its times.

    A run lists one state per time, each time in 1..horizon.  The states
    are then functions of the times: each must equal ``b_states`` of them,
    which catches a wrong fresh draw.  A terminated run owes no pairs after
    its last time; an unfinished one owes its last state's pairs less one
    at its first level, once they are checked to be positive counts at
    levels rising within its length.
    """
    _validate(run, horizon, b_states)


def validate_d_run(run: ChainRun, horizon: int) -> None:
    """``validate_b_run`` for the fixed-length chain, whose states are
    ``(horizon, pairs)`` with the ``state_pairs`` of its times."""
    _validate(run, horizon, lambda times, after: [(horizon, pairs)
                                                   for pairs in state_pairs(times, after)])
