from fractions import Fraction
from pathlib import Path

import pytest

from gwcoal import EtaSamplers, Environment, FiniteSupportLaw, LinearFractionalLaw, load_environment
from gwcoal.chains import first_nonzero
from gwcoal.sampling import draw_count

ENVS = Path(__file__).resolve().parent.parent / "envs"


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
