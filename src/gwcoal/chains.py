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
from typing import Iterator

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
from .tree import BtState, bt_star

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
    through ``lf_cumulative`` and nothing else.  ``lf_campaign`` reads most
    runs of a long campaign that way off a matrix of uniforms, and calls
    this for the rest.
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
    stream.  ``lf_run`` reads the others on their own streams: a run whose
    row holds no end while the cap lets it read further, and every run of
    a sub-chunk without blocks (a campaign of fewer than ``_LONG`` runs, or
    the rest of one whose runs mostly read past their blocks).
    """
    cum = np.array(env.levels.lf_cumulative)
    for blocks, size, stream in campaign_blocks(seed, n):
        if blocks is None:
            for i in range(size):
                yield lf_run(env, stream(i), max_individuals)
            continue
        width = blocks.shape[1]
        # bisect_right(cum, u) is N, past the horizon, exactly when u >= cum[-1]
        past = blocks >= cum[-1]
        ends = np.where(past.any(axis=1), past.argmax(axis=1), width)
        # the times a run reads off its row: those before its end, at most
        # the cap, in one search over the rows' leading uniforms
        counts = np.minimum(ends, max_individuals)
        times = np.searchsorted(cum, blocks[np.arange(width) < counts[:, None]], side="right")
        times += 1
        times = times.tolist()
        capped = max_individuals <= width
        start = 0
        for i, (end, count) in enumerate(zip(ends.tolist(), counts.tolist())):
            if end < width or capped:
                yield ChainRun(times[start:start + count], terminated=end < max_individuals)
            else:
                # no end in the row, and the run may read further
                yield lf_run(env, stream(i), max_individuals)
            start += count


# ---------------------------------------------------------------------------
# Pathwise validation of realized runs, used by tests and the CLI.
# ---------------------------------------------------------------------------


def _check_state(state: State, a: int) -> BtState:
    """The state's pairs, once they are checked to list positive counts at
    levels rising within 1..length, the first of them at the emitted time."""
    length, pairs = state
    if not pairs:
        raise ChainStateError(f"state {state} is all zero; termination ends a run")
    below = 0
    for level, v in pairs:
        if not below < level <= length:
            raise ChainStateError(f"state {state} does not list its levels rising in 1..{length}")
        if v <= 0:
            raise ChainStateError(f"nonpositive count in state {state}")
        below = level
    if pairs[0][0] != a:
        raise ChainStateError(f"emitted {a} but the first level is {pairs[0][0]}")
    return pairs


def _check_step(prev: BtState, pairs: BtState) -> None:
    """Same-length step: the entry at the previous first level dropped by one,
    the pairs above it were copied."""
    pa = prev[0][0]
    if tuple([pr for pr in pairs if pr[0] >= pa]) != bt_star(prev):
        raise ChainStateError("the step did not decrement the previous time and copy above it")


def validate_b_run(run: ChainRun, horizon: int) -> None:
    """Check the copy/decrement/extend structure along a realized run.

    Fresh draws cannot be re-derived, but every structural constraint that
    does not depend on them must hold: pairs list positive counts at rising
    levels and are not empty, emitted times are first levels, lengths follow
    the running maximum, the entry at the previous coalescent time dropped by
    one unless fresh levels were opened, and pairs above it are copied
    verbatim.  A state longer than the last one then holds a single pair, at
    its length: its first level is the new running maximum.
    """
    prev: State | None = None
    running = 0
    for state, a in zip(run.states, run.a_values):
        pairs = _check_state(state, a)
        running = max(running, a)
        if state[0] != running:
            raise ChainStateError(f"length {state[0]} != running maximum {running}")
        if running > horizon:
            raise ChainStateError(f"length {running} exceeds horizon {horizon}")
        if prev is not None and running == prev[0]:
            _check_step(prev[1], pairs)
        prev = state


def validate_d_run(run: ChainRun, horizon: int) -> None:
    prev: BtState | None = None
    for state, a in zip(run.states, run.a_values):
        if state[0] != horizon:
            raise ChainStateError(f"state length {state[0]} != horizon {horizon}")
        pairs = _check_state(state, a)
        if prev is not None:
            _check_step(prev, pairs)
        prev = pairs
