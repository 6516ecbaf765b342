import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gwcoal import (
    EtaSamplers,
    Environment,
    FiniteSupportLaw,
    LinearFractionalLaw,
    a1_tail,
    constant_environment,
    dirac,
    environment_from_dict,
    eta_law_at_depth,
    load_environment,
    survival_prob,
)
from gwcoal.errors import DegenerateEnvironmentError, DomainError, GwcoalError, HorizonError
from gwcoal.environment import LevelTable
from gwcoal.pgf import EtaLaw, compose_deriv, compose_range, eta_probs_generic

from conftest import ENVS, PerLevelTable, per_level_samplers


def exact_binom_env(n):
    law = FiniteSupportLaw((Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)))
    return constant_environment(law, n)


class TestComposition:
    def test_dirac_squares(self):
        env = constant_environment(dirac(2), 2)
        s = Fraction(1, 3)
        assert compose_range(env, -2, 0, s) == s ** 4
        assert compose_range(env, -1, 0, s) == s ** 2
        assert compose_range(env, -2, -1, s) == s ** 2
        assert compose_range(env, 0, 0, s) == s

    def test_range_validation(self, binom3):
        with pytest.raises(HorizonError):
            compose_range(binom3, -4, 0, 0.5)
        with pytest.raises(HorizonError):
            compose_range(binom3, 0, -1, 0.5)

    def test_binomial_double_composition(self):
        # (1 + f(0))^2 / 4 with f(0) = 1/4 gives 25/64
        env = exact_binom_env(2)
        assert compose_range(env, -2, 0, Fraction(0)) == Fraction(25, 64)
        assert survival_prob(env, 2) == Fraction(39, 64)
        assert survival_prob(env, 1) == Fraction(3, 4)
        assert survival_prob(env, 0) == 1

    def test_compose_deriv_chain_rule(self, binom3):
        h = 1e-6
        for s in (0.2, 0.5, 0.8):
            fd = (
                compose_range(binom3, -3, 0, s + h)
                - compose_range(binom3, -3, 0, s - h)
            ) / (2 * h)
            assert compose_deriv(binom3, -3, 0, s) == pytest.approx(fd, rel=1e-6)

    def test_compose_deriv_exact(self):
        env = exact_binom_env(2)
        # d/ds f(f(s)) at 0: f'(f(0)) * f'(0) = (5/8)(1/2)
        assert compose_deriv(env, -2, 0, Fraction(0)) == Fraction(5, 16)


class TestEtaLaw:
    def test_single_generation_values(self):
        # founder has at least one surviving daughter; with the three-point
        # law the chance of a second one is 1/3
        env = exact_binom_env(1)
        law = eta_law_at_depth(env, 1)
        assert law.prob(0) == Fraction(2, 3)
        assert law.prob(1) == Fraction(1, 3)
        assert law.total() == 1

    def test_two_generation_values(self):
        env = exact_binom_env(2)
        law = eta_law_at_depth(env, 2)
        assert law.prob(0) == Fraction(10, 13)
        assert law.prob(1) == Fraction(3, 13)
        assert law.total() == 1

    def test_depth_shifts_environment(self, varying3):
        deep = eta_law_at_depth(varying3, 3)
        direct = eta_law_at_depth(Environment(varying3.laws[:3]), 3)
        assert deep.probs == direct.probs
        shallow = eta_law_at_depth(varying3, 1)
        assert shallow.probs == eta_law_at_depth(varying3.shift(2), 1).probs
        with pytest.raises(HorizonError):
            eta_law_at_depth(varying3, 4)

    def test_degenerate_environment(self):
        env = constant_environment(dirac(0), 1)
        with pytest.raises(DegenerateEnvironmentError):
            eta_law_at_depth(env, 1)

    def test_lf_law_is_geometric(self, lf_half_n6):
        law = eta_law_at_depth(lf_half_n6, 3)
        assert law.geom is not None
        assert law.prob(0) == pytest.approx(law.geom)
        assert law.prob(2) == pytest.approx(law.geom * (1 - law.geom) ** 2)
        assert law.total() == 1.0

    def test_materialized_covers_mass(self, lf_half_n6):
        law = eta_law_at_depth(lf_half_n6, 6).materialized(tol=1e-13)
        assert law.tail <= 1e-13
        assert sum(law.probs) + law.tail == pytest.approx(1.0, abs=1e-14)
        for k in (0, 1, 5):
            assert law.probs[k] == pytest.approx(law.prob(k))

    def test_materialized_noop_for_tables(self):
        law = EtaLaw(probs=(0.5, 0.5))
        assert law.materialized() is law

    def test_prob_domain(self):
        law = EtaLaw(probs=(0.5, 0.5))
        with pytest.raises(DomainError):
            law.prob(-1)
        assert law.prob(7) == 0

    @given(st.integers(min_value=1, max_value=3))
    def test_generic_matches_pmf_table(self, depth):
        env = exact_binom_env(depth)
        law = eta_law_at_depth(env, depth)
        assert eta_probs_generic(env, depth, range(3)) == [law.prob(k) for k in range(3)]


class TestFirstTimeTail:
    def test_hand_values(self):
        env = exact_binom_env(2)
        # one level: f'(0)/(1-f(0)) = (1/2)/(3/4)
        assert a1_tail(env, 1) == Fraction(2, 3)
        # two levels: (5/16)/(39/64)
        assert a1_tail(env, 2) == Fraction(20, 39)

    def test_matches_eta_zero_product(self, varying3):
        env = varying3.as_rational()
        prod = Fraction(1)
        for i in (1, 2, 3):
            prod *= eta_law_at_depth(env, i).prob(0)
        assert a1_tail(env, 3) == prod

    def test_monotone_in_depth(self, binom3):
        tails = [a1_tail(binom3, n) for n in (1, 2, 3)]
        assert tails[0] > tails[1] > tails[2] > 0

    def test_degenerate(self):
        env = constant_environment(dirac(0), 2)
        with pytest.raises(DegenerateEnvironmentError):
            a1_tail(env, 1)

    def test_certain_single_line(self):
        # one child each generation: the lineage can never split
        env = constant_environment(dirac(1), 3)
        assert a1_tail(env, 3) == 1
        assert eta_law_at_depth(env, 2).prob(0) == 1


FINITE_ENVS = [
    p.stem for p in sorted(ENVS.glob("*.json")) if load_environment(str(p)).is_finite_support
]


class TestLevelTable:
    @pytest.mark.parametrize("name", FINITE_ENVS)
    def test_matches_reference_routes_exactly(self, name):
        env = load_environment(str(ENVS / f"{name}.json")).as_rational()
        N = env.horizon
        levels = env.levels
        zero = Fraction(0)
        assert levels.column(0)[:2] == (0, 1) and levels.column(0)[3] == 1
        product = 1
        for k in range(1, N + 1):
            u, deriv, p0, telescoped = levels.column(k)
            assert (u, deriv) == (compose_range(env, -k, 0, zero), compose_deriv(env, -k, 0, zero))
            sub = env.shift(N - k)
            law = levels.eta(k)
            assert law.probs == tuple(eta_probs_generic(sub, k, range(len(law.probs))))
            product *= law.probs[0]
            assert p0 == law.probs[0] and telescoped == product
        assert survival_prob(env, N) == 1 - compose_range(env, -N, 0, zero)

    def test_built_once_per_environment(self, varying3):
        assert varying3.levels is varying3.levels
        assert varying3.shift(1).levels is not varying3.levels

    def test_lazy_depth(self, monkeypatch):
        # exact values double in size per level: 200 exact levels never finish
        law = FiniteSupportLaw((Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)))
        env = constant_environment(law, 200)
        calls = []
        real = FiniteSupportLaw.pgf
        monkeypatch.setattr(
            FiniteSupportLaw, "pgf", lambda self, s: calls.append(s) or real(self, s)
        )
        tail = a1_tail(env, 8)
        assert len(calls) == 8  # one evaluation per level, newest 8 only
        calls.clear()
        assert a1_tail(env, 8) == tail
        eta_law_at_depth(env, 8)
        assert calls == []
        zero = Fraction(0)
        assert tail == compose_deriv(env, -8, 0, zero) / (1 - compose_range(env, -8, 0, zero))

    def test_degenerate_old_generation_raises_only_when_read(self):
        env = environment_from_dict(
            {"laws": [{"type": "pmf", "p": [1.0]}] + [{"type": "pmf", "p": [0.25, 0.5, 0.25]}] * 3}
        )
        assert a1_tail(env, 3) > 0
        assert eta_law_at_depth(env, 3).total() == pytest.approx(1.0)
        assert survival_prob(env, 4) == 0
        with pytest.raises(DegenerateEnvironmentError):
            a1_tail(env, 4)
        with pytest.raises(DegenerateEnvironmentError):
            eta_law_at_depth(env, 4)

    def test_depth_range(self, binom3):
        for k in (-1, 4):
            with pytest.raises(HorizonError):
                binom3.levels.column(k)
        with pytest.raises(HorizonError):
            binom3.levels.eta(0)

    def test_fills_each_level_once(self):
        # reading the deepest level first fills every level below it once,
        # with the rows a shallow-to-deep read gives
        law = FiniteSupportLaw((0.25, 0.5, 0.25))
        N = 300
        expected = [LevelTable((law,) * N).column(k) for k in range(N + 1)]
        levels = constant_environment(law, N).levels
        assert [levels.column(k) for k in range(N, -1, -1)][::-1] == expected
        assert len(levels._rows) == N + 1

    @pytest.mark.parametrize("etas", [False, True])
    def test_fill_is_one_loop(self, monkeypatch, etas):
        law = FiniteSupportLaw((0.25, 0.5, 0.25))
        N = 200
        expected = [LevelTable((law,) * N).column(k) for k in range(N + 1)]
        levels = constant_environment(law, N).levels
        calls = []
        real = LevelTable._fill
        monkeypatch.setattr(LevelTable, "_fill",
                            lambda self, k, e: calls.append((k, e)) or real(self, k, e))
        levels.fill(etas)
        assert [levels.column(k) for k in range(N + 1)] == expected
        assert len(levels._etas) == (N if etas else 0)
        assert calls == [(N, etas)]

    def test_fill_leaves_a_failing_level_to_its_read(self):
        # level 4 dies out; the fill keeps levels 1..3 and does not raise,
        # and a read of level 4 raises as it would without the fill
        doc = {"laws": [{"type": "pmf", "p": [1.0]}] + [{"type": "pmf", "p": [0.25, 0.5, 0.25]}] * 3}
        env, reference = environment_from_dict(doc), environment_from_dict(doc)
        env.levels.fill(etas=True)
        assert len(env.levels._etas) == 3
        for k in (1, 2, 3):
            assert env.levels.eta(k) == reference.levels.eta(k)
            assert a1_tail(env, k) == a1_tail(reference, k)
        with pytest.raises(DegenerateEnvironmentError):
            eta_law_at_depth(env, 4)
        with pytest.raises(DegenerateEnvironmentError):
            a1_tail(env, 4)


# ---------------------------------------------------------------------------
# The one-pass level table against the per-level route, bit for bit.
# ---------------------------------------------------------------------------


def _outcome(f, *args):
    """repr of the value, which tells every float bit apart but NaNs; or
    the error's type and text."""
    try:
        return "ok", repr(f(*args))
    except GwcoalError as exc:
        return type(exc).__name__, str(exc)


def _eta_outcomes(eta, N):
    """Outcomes of ``eta(1)``, ``eta(2)``, ... up to the first error."""
    out = []
    for k in range(1, N + 1):
        out.append(_outcome(eta, k))
        if out[-1][0] != "ok":
            break
    return out


def assert_one_pass_matches_per_level(env):
    """Every column row, every eta law, read in each of the orders the
    commands read them, and every sampler table and floor, are those of the
    per-level route."""
    N = env.horizon
    ref = PerLevelTable(env.laws)
    expected = _eta_outcomes(ref.eta, N)
    # deepest row first: one loop fills every row
    by_rows = LevelTable(env.laws)
    assert _outcome(by_rows.column, N) == _outcome(ref.column, N)
    for k in range(N + 1):
        assert _outcome(by_rows.column, k) == _outcome(ref.column, k)
    # eta laws over filled rows (verify), level by level (eta), all at once
    # (the samplers)
    assert _eta_outcomes(by_rows.eta, N) == expected
    assert _eta_outcomes(LevelTable(env.laws).eta, N) == expected
    at_once = LevelTable(env.laws)
    _outcome(at_once.etas)
    assert _eta_outcomes(at_once.eta, N) == expected

    try:
        laws, cums, floors, maps = per_level_samplers(env)
    except GwcoalError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            EtaSamplers(env)
        return
    samplers = EtaSamplers(env)
    assert repr(samplers._laws) == repr(laws)
    assert repr(samplers._cum) == repr(cums)
    assert repr(samplers._floors) == repr(floors)
    for got, want in zip(samplers._maps, maps, strict=True):
        assert (got is None) == (want is None)
        if want is not None:
            assert got.func is want.func and repr(got.args) == repr(want.args)


# float pmf laws of width 1-6 with zero entries; Fraction laws; lf laws
FLOAT_PMF = st.lists(st.integers(0, 4), min_size=1, max_size=6).filter(any).map(
    lambda c: FiniteSupportLaw(tuple(x / sum(c) for x in c)))
EXACT_PMF = st.lists(st.integers(0, 4), min_size=1, max_size=4).filter(any).map(
    lambda c: FiniteSupportLaw(tuple(Fraction(x, sum(c)) for x in c)))
LF = st.builds(LinearFractionalLaw, st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0, 1)),
               st.one_of(st.sampled_from([0.5, 1 - 2 ** -53]), st.floats(1e-3, 0.999)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(pattern=st.lists(st.one_of(FLOAT_PMF, LF, EXACT_PMF), min_size=1, max_size=8),
       horizon=st.integers(1, 200))
@example(pattern=[FiniteSupportLaw((0.25, 0.5, 0.25))], horizon=200)
@example(pattern=[FiniteSupportLaw((0.25, 0.5, 0.25)), FiniteSupportLaw((1.0,))], horizon=5)
@example(pattern=[LinearFractionalLaw(0.6, 0.5), FiniteSupportLaw((0.5, 0.0, 0.0, 0.5, 0.0))],
         horizon=200)
def test_one_pass_table_matches_per_level_route(pattern, horizon):
    laws = [pattern[i % len(pattern)] for i in range(horizon)]
    if all(isinstance(law, FiniteSupportLaw) and law.is_exact for law in laws):
        laws = laws[:6]  # exact values double in size per level
    assert_one_pass_matches_per_level(Environment(tuple(laws)))


@pytest.mark.parametrize("name, rational", [(p.stem, False) for p in sorted(ENVS.glob("*.json"))]
                         + [(name, True) for name in FINITE_ENVS])
def test_one_pass_table_matches_on_bundled_envs(name, rational):
    env = load_environment(str(ENVS / f"{name}.json"))
    assert_one_pass_matches_per_level(env.as_rational() if rational else env)
