"""Backward chains that generate the genealogy without growing a tree.

The truncated-vector chain ("b") carries, for each successive present
individual, the counts of extra surviving daughters seen at each ancestor
level up to the running maximum of coalescent times.  Its first nonzero
entry is the next coalescent time.  The fixed-length chain ("d") carries all
levels up to the horizon.  Both consume fresh spine-sibling draws at the
levels below the current coalescent time and terminate when no further
individual exists within the horizon.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial

from .environment import Environment
from .errors import ChainStateError
from .pgf import EtaLaw
from .sampling import (
    UniformStream,
    as_stream,
    cumulative,
    draw_from_cumulative,
    geometric_failures,
    geometric_from_uniform,
)

try:
    from operator import call as _call
except ImportError:  # Python 3.10
    def _call(f, u):
        return f(u)


class EtaSamplers:
    """Per-level samplers of the spine-sibling law, levels 1..N.

    ``draw`` reads one level's value from the stream.  ``fresh`` and
    ``extend`` read the same values, in the same order, through one table of
    per-level maps from a uniform to a value.
    """

    def __init__(self, env: Environment):
        self.horizon = env.horizon
        self._laws: list[EtaLaw] = [env.levels.eta(m) for m in range(1, env.horizon + 1)]
        self._cum = [None if law.geom is not None else cumulative(law.probs) for law in self._laws]
        # None marks a geometric law with success probability 1: always 0,
        # and it reads no uniform
        self._maps = [partial(bisect_right, cum) if cum is not None
                      else partial(geometric_from_uniform, math.log1p(-law.geom))
                      if law.geom < 1.0 else None
                      for law, cum in zip(self._laws, self._cum)]
        self._one_each = None not in self._maps

    def law(self, level: int) -> EtaLaw:
        return self._laws[level - 1]

    def draw(self, level: int, stream: UniformStream) -> int:
        law = self._laws[level - 1]
        if law.geom is not None:
            return geometric_failures(law.geom, stream)
        return draw_from_cumulative(self._cum[level - 1], stream)

    def fresh(self, count: int, stream: UniformStream) -> list[int]:
        """Values at levels 1..count, those of ``draw`` level by level."""
        if self._one_each:
            return list(map(_call, self._maps, stream.take(count)))
        return [f(stream.next()) if f else 0 for f in self._maps[:count]]

    def extend(self, prefix: list[int], stream: UniformStream) -> int | None:
        """Append values at the levels after ``prefix``, up to the first
        nonzero one, and return that level; None when the horizon comes
        first."""
        for level, f in enumerate(self._maps[len(prefix):], start=len(prefix) + 1):
            v = f(stream.next()) if f else 0
            prefix.append(v)
            if v:
                return level
        return None


def first_nonzero(vec: tuple[int, ...]) -> int | None:
    """1-based position of the first nonzero entry; None when there is none."""
    for idx, v in enumerate(vec):
        if v:
            return idx + 1
    return None


State = tuple[int, ...]


def _redraw(vec: tuple[int, ...], a: int, samplers: EtaSamplers, stream: UniformStream) -> list[int]:
    """Fresh draws below level a, the entry at a less one, the entries above copied."""
    out = samplers.fresh(a - 1, stream) if a > 1 else []
    out.append(vec[a - 1] - 1)
    out.extend(vec[a:])
    return out


def b_step(state: State, samplers: EtaSamplers,
           stream: UniformStream) -> tuple[State, int] | tuple[None, None]:
    """One transition of the truncated chain; returns the next state and its
    first nonzero level, the next coalescent time, or ``(None, None)`` when
    the next individual does not exist within the horizon.

    The state's length is the running maximum of coalescent times and its
    first nonzero entry is the next one; the initial state is ``()``.
    Entries above the current coalescent time are copied, the entry at it is
    decremented, entries below are replaced by fresh level draws.  If that
    leaves the vector with no nonzero entry, further levels are drawn one by
    one (extending the vector) until a nonzero value appears or the horizon
    is exhausted.
    """
    a = first_nonzero(state)
    if a is None:
        if state:
            raise ChainStateError("all-zero state is represented by termination")
        prefix: list[int] = []
    else:
        prefix = _redraw(state, a, samplers, stream)
        first = first_nonzero(prefix)
        if first is not None:
            return tuple(prefix), first
    first = samplers.extend(prefix, stream)
    if first is None:
        return None, None
    return tuple(prefix), first


def d_step(state: State | None, samplers: EtaSamplers,
           stream: UniformStream) -> tuple[State, int | None]:
    """One transition of the fixed-length chain; returns the next state and
    its first nonzero level.

    ``None`` plays the initial role: every level gets a fresh draw.  The
    result may be all-zero, with level ``None``, which means no further
    individual exists.
    """
    N = samplers.horizon
    if state is None:
        nxt = samplers.fresh(N, stream)
    else:
        if len(state) != N:
            raise ChainStateError(f"state length {len(state)} != horizon {N}")
        a = first_nonzero(state)
        if a is None:
            raise ChainStateError("stepping an all-zero state; the run has terminated")
        nxt = _redraw(state, a, samplers, stream)
    return tuple(nxt), first_nonzero(nxt)


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
    return _run(b_step, (), env, rng, max_individuals, samplers)


def d_run(env: Environment, rng, max_individuals: int = 1_000_000,
          samplers: EtaSamplers | None = None) -> ChainRun:
    """Run the fixed-length chain from the null state until termination."""
    return _run(d_step, None, env, rng, max_individuals, samplers)


def lf_run(env: Environment, rng, max_individuals: int = 1_000_000) -> ChainRun:
    """Genealogy sampled from the LF closed form: independent coalescent
    times drawn until one falls past the horizon."""
    N = env.horizon
    cum = env.levels.lf_cumulative
    uniform = as_stream(rng).next
    run = ChainRun()
    while len(run.a_values) < max_individuals:
        idx = bisect_right(cum, uniform())
        if idx >= N:
            run.terminated = True
            return run
        run.a_values.append(idx + 1)
    return run


# ---------------------------------------------------------------------------
# Pathwise validation of realized runs, used by tests and the CLI.
# ---------------------------------------------------------------------------


def _check_step(prev: tuple[int, ...], state: tuple[int, ...], pa: int) -> None:
    """Same-length step: the entry at pa dropped by one, those above it were copied."""
    if state[pa - 1] != prev[pa - 1] - 1:
        raise ChainStateError("entry at the previous time did not decrement")
    if state[pa:] != prev[pa:]:
        raise ChainStateError("entries above the previous time changed")


def validate_b_run(run: ChainRun, horizon: int) -> None:
    """Check the copy/decrement/extend structure along a realized run.

    Fresh draws cannot be re-derived, but every structural constraint that
    does not depend on them must hold: entries are nonnegative and not all
    zero, emitted times are first-nonzero positions, lengths follow the
    running maximum, the entry at the previous coalescent time dropped by one
    unless fresh levels were opened, and entries above it are copied verbatim.
    """
    prev: State | None = None
    running = 0
    for state, a in zip(run.states, run.a_values):
        first = first_nonzero(state)
        if first is None:
            raise ChainStateError(f"state {state} is all zero; termination ends a run")
        if min(state) < 0:
            raise ChainStateError(f"negative entry in state {state}")
        if first != a:
            raise ChainStateError(f"emitted {a} but first nonzero is {first}")
        running = max(running, a)
        if len(state) != running:
            raise ChainStateError(f"length {len(state)} != running maximum {running}")
        if len(state) > horizon:
            raise ChainStateError(f"length {len(state)} exceeds horizon {horizon}")
        if prev is not None:
            if len(state) == len(prev):
                _check_step(prev, state, first_nonzero(prev))
            else:
                # extension happened, so the replaced prefix died out entirely
                if len(state) < len(prev) or any(state[: len(prev)]):
                    raise ChainStateError("extension with a surviving prefix")
                if any(state[len(prev) : -1]):
                    raise ChainStateError("extension passed a nonzero level")
        prev = state


def validate_d_run(run: ChainRun, horizon: int) -> None:
    prev: State | None = None
    for state, a in zip(run.states, run.a_values):
        if len(state) != horizon:
            raise ChainStateError(f"state length {len(state)} != horizon {horizon}")
        first = first_nonzero(state)
        if first != a:
            raise ChainStateError(f"emitted {a} but first nonzero is {first}")
        if prev is not None:
            _check_step(prev, state, first_nonzero(prev))
        prev = state
