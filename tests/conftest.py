import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from gwcoal import EtaSamplers, Environment, FiniteSupportLaw, LinearFractionalLaw, load_environment
from gwcoal.chains import dense
from gwcoal.errors import ChainStateError
from gwcoal.sampling import draw_count

ENVS = Path(__file__).resolve().parent.parent / "envs"


def first_nonzero(vec):
    """1-based position of the first nonzero entry; None when there is none."""
    for m, v in enumerate(vec, 1):
        if v:
            return m
    return None


def env_path(name: str) -> str:
    return str(ENVS / f"{name}.json")


@pytest.fixture
def binom_law():
    return FiniteSupportLaw((0.25, 0.5, 0.25))


@pytest.fixture
def binom_law_exact():
    return FiniteSupportLaw((Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)))


@pytest.fixture
def binom2(binom_law):
    # two generations of the same three-point law
    return Environment((binom_law, binom_law))


@pytest.fixture
def binom3():
    return load_environment(env_path("binom_n3"))


@pytest.fixture
def varying3():
    return load_environment(env_path("varying_n3"))


@pytest.fixture
def lf_half_n1():
    return load_environment(env_path("lf_half_n1"))


@pytest.fixture
def lf_half_n6():
    return load_environment(env_path("lf_half_n6"))


@pytest.fixture
def lf_varying3():
    return load_environment(env_path("lf_varying_n3"))


@pytest.fixture
def lf_law():
    return LinearFractionalLaw(0.5, 0.5)


# ---------------------------------------------------------------------------
# Per-draw reference samplers: one stream read per individual or level, in the
# order the samplers of the package must keep.
# ---------------------------------------------------------------------------


def per_draw_counts(env, stream):
    """Child counts of one forward draw, one ``draw_count`` per individual,
    and the last generation's width; a dead draw stops at its empty row."""
    counts, width = [], 1
    for law in env.laws:
        row = [draw_count(law, stream) for _ in range(width)]
        counts.append(row)
        width = sum(row)
        if not width:
            break
    return counts, width


def per_draw_condition(env, stream, max_attempts=100_000):
    """Counts of the first surviving draw and the number of draws read; the
    counts are None when all ``max_attempts`` draws die."""
    for attempt in range(1, max_attempts + 1):
        counts, width = per_draw_counts(env, stream)
        if width:
            return counts, attempt
    return None, max_attempts


def per_draw_chain(process, env, stream, max_individuals=1_000_000):
    """(a_values, states, terminated) of a b or d run, one
    ``EtaSamplers.draw`` per fresh level."""
    samplers = EtaSamplers(env)
    N = env.horizon

    def redraw(vec, a):
        return [samplers.draw(m, stream) for m in range(1, a)] + [vec[a - 1] - 1] + list(vec[a:])

    state = () if process == "b" else None
    a_values, states = [], []
    while len(a_values) < max_individuals:
        if process == "d":
            if state is None:
                state = tuple(samplers.draw(m, stream) for m in range(1, N + 1))
            else:
                state = tuple(redraw(state, first_nonzero(state)))
        else:
            a = first_nonzero(state)
            prefix = [] if a is None else redraw(state, a)
            if not any(prefix):
                for level in range(len(prefix) + 1, N + 1):
                    prefix.append(samplers.draw(level, stream))
                    if prefix[-1]:
                        break
                else:
                    return a_values, states, True
            state = tuple(prefix)
        first = first_nonzero(state)
        if first is None:
            return a_values, states, True
        states.append(state)
        a_values.append(first)
    return a_values, states, False


# ---------------------------------------------------------------------------
# Dense references: the exact sweep's transitions and the run validators on
# the vector of counts at levels 1..length, zeros included.
# ---------------------------------------------------------------------------


def dense_transitions(state, tables):
    """All transitions out of a dense chain state, with their probabilities,
    over the sweep's level tables.

    ``()`` is the start of the b chain, ``None`` that of the d chain.  The
    levels below the first nonzero one are drawn afresh and that level loses
    one.  A b state left all zero draws the levels beyond its length until a
    nonzero value, and terminates (``None``) if none comes up to the horizon;
    all-zero d states are yielded as they are.
    """
    one = 1 if any(isinstance(t.zero, Fraction) for t in tables) else 1.0
    if state is None:
        below, fixed = tables, ()
    elif state:
        a = first_nonzero(state)
        below, fixed = tables[: a - 1], (state[a - 1] - 1,) + state[a:]
    else:
        below, fixed = [], ()
    for combo in itertools.product(*(t.items for t in below)):
        p = one
        for _, q in combo:
            p = p * q
        prefix = tuple(pr[1] if pr else 0 for pr, _ in combo) + fixed
        if state is None or any(prefix):
            yield prefix, p
            continue
        start = len(prefix)
        for level in range(start + 1, len(tables) + 1):
            t = tables[level - 1]
            padded = prefix + (0,) * (level - start - 1)
            for pr, q in t.items:
                if pr:
                    yield padded + (pr[1],), p * q
            p = p * t.zero
            if p == 0:
                break
        else:
            yield None, p


def _dense_entries(state):
    """``dense(state)``, once its pairs are checked to be exactly the
    (level, count) of its nonzero entries, levels rising."""
    try:
        vec = dense(state)
    except IndexError:  # a level past the length
        vec = ()
    if tuple((m, v) for m, v in enumerate(vec, 1) if v) != state[1]:
        raise ChainStateError(f"state {state} does not list its nonzero entries by rising level")
    return vec


def _dense_check_step(prev, state, pa):
    if state[pa - 1] != prev[pa - 1] - 1:
        raise ChainStateError("entry at the previous time did not decrement")
    if state[pa:] != prev[pa:]:
        raise ChainStateError("entries above the previous time changed")


def dense_validate_b_run(run, horizon):
    prev = None
    running = 0
    for point, a in zip(run.states, run.a_values):
        state = _dense_entries(point)
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
                _dense_check_step(prev, state, first_nonzero(prev))
            else:
                # extension happened, so the replaced prefix died out entirely
                if len(state) < len(prev) or any(state[: len(prev)]):
                    raise ChainStateError("extension with a surviving prefix")
                if any(state[len(prev) : -1]):
                    raise ChainStateError("extension passed a nonzero level")
        prev = state


def dense_validate_d_run(run, horizon):
    prev = None
    for point, a in zip(run.states, run.a_values):
        state = _dense_entries(point)
        if len(state) != horizon:
            raise ChainStateError(f"state length {len(state)} != horizon {horizon}")
        first = first_nonzero(state)
        if first != a:
            raise ChainStateError(f"emitted {a} but first nonzero is {first}")
        if prev is not None:
            _dense_check_step(prev, state, first_nonzero(prev))
        prev = state
