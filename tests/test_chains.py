import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gwcoal import (
    ChainRun,
    Environment,
    EtaSamplers,
    FiniteSupportLaw,
    LinearFractionalLaw,
    b_run,
    constant_environment,
    d_run,
    dirac,
    lf_a1_tail,
    lf_run,
    load_environment,
    stream_for_run,
    validate_b_run,
    validate_d_run,
)
import gwcoal.chains
from gwcoal import sampling
from gwcoal.chains import b_step, d_step, dense, lf_campaign
from gwcoal.cli import EXIT_DEGENERATE, main
from gwcoal.errors import ChainStateError, DegenerateEnvironmentError, NotLinearFractionalError
from gwcoal.sampling import UniformStream, draw_from_cumulative

from conftest import dense_validate_b_run, dense_validate_d_run, env_path, per_draw_chain


class FixedStream:
    """Uniform stream with scripted values, for forcing specific draws."""

    def __init__(self, values):
        self.values = list(values)

    def next(self):
        return self.values.pop(0)

    def take(self, n):
        out, self.values = self.values[:n], self.values[n:]
        assert len(out) == n, "script ran out"
        return out

    def first_reaching(self, floors):
        for i, floor in enumerate(floors):
            if (u := self.next()) >= floor:
                return i, u
        return None


def stream_hitting(samplers, level, want):
    """A uniform that makes ``samplers.draw(level, ...)`` return ``want``."""
    law = samplers.law(level)
    acc = 0.0
    for k in range(want):
        acc += float(law.prob(k))
    return acc + float(law.prob(want)) / 2


class TestSteps:
    """States are (length, pairs): the (level, count) of the nonzero entries."""

    def test_deterministic_full_binary(self):
        # two children always, every line survives: the three transitions
        # and the final termination are forced
        env = constant_environment(dirac(2), 2)
        samplers = EtaSamplers(env)
        stream = stream_for_run(0, 0)
        s1, a1 = b_step((0, ()), samplers, stream)
        assert (s1, a1) == ((1, ((1, 1),)), 1)
        s2, a2 = b_step(s1, samplers, stream)
        assert (s2, a2) == ((2, ((2, 1),)), 2)
        s3, a3 = b_step(s2, samplers, stream)
        assert (s3, a3) == ((2, ((1, 1),)), 1)
        assert [dense(s) for s in (s1, s2, s3)] == [(1,), (0, 1), (1, 0)]
        assert b_step(s3, samplers, stream) == (None, None)

    def test_immediate_termination(self):
        # single-child generations never branch
        env = constant_environment(dirac(1), 2)
        samplers = EtaSamplers(env)
        assert b_step((0, ()), samplers, stream_for_run(0, 0)) == (None, None)

    def test_forced_decrement_and_copy(self, binom2):
        samplers = EtaSamplers(binom2)
        # from (0,2): fresh draw at level 1, decrement at level 2
        u0 = stream_hitting(samplers, 1, 0)
        u1 = stream_hitting(samplers, 1, 1)
        assert b_step((2, ((2, 2),)), samplers, FixedStream([u1])) == ((2, ((1, 1), (2, 1))), 1)
        assert b_step((2, ((2, 2),)), samplers, FixedStream([u0])) == ((2, ((2, 1),)), 2)

    def test_forced_extension(self, binom2):
        samplers = EtaSamplers(binom2)
        # from (1,): decrement kills the prefix, extension draws level 2
        u0 = stream_hitting(samplers, 2, 0)
        u1 = stream_hitting(samplers, 2, 1)
        nxt = b_step((1, ((1, 1),)), samplers, FixedStream([u1]))
        assert nxt == ((2, ((2, 1),)), 2)
        assert b_step((1, ((1, 1),)), samplers, FixedStream([u0])) == (None, None)

    def test_b_step_rejects_all_zero_state(self, binom2):
        # an all-zero vector is not a state: the run has terminated
        with pytest.raises(ChainStateError):
            b_step((2, ()), EtaSamplers(binom2), FixedStream([]))

    def test_d_step_semantics(self, binom2):
        samplers = EtaSamplers(binom2)
        u0 = stream_hitting(samplers, 1, 0)
        state = d_step((2, ((2, 2),)), samplers, FixedStream([u0]))
        assert state == ((2, ((2, 1),)), 2)
        u1 = stream_hitting(samplers, 1, 1)
        assert d_step((2, ((2, 1),)), samplers, FixedStream([u0])) == ((2, ()), None)
        assert d_step((2, ((2, 1),)), samplers, FixedStream([u1])) == ((2, ((1, 1),)), 1)
        with pytest.raises(ChainStateError):
            d_step((2, ()), samplers, FixedStream([]))
        with pytest.raises(ChainStateError):
            d_step((1, ((1, 1),)), samplers, FixedStream([]))

    def test_d_initial_draws_every_level(self, binom2):
        samplers = EtaSamplers(binom2)
        u1 = stream_hitting(samplers, 1, 1)
        u2 = stream_hitting(samplers, 2, 1)
        assert d_step(None, samplers, FixedStream([u1, u2])) == ((2, ((1, 1), (2, 1))), 1)

    def test_dense_fills_the_gaps(self):
        assert dense((0, ())) == ()
        assert dense((3, ())) == (0, 0, 0)
        assert dense((5, ((2, 1), (5, 3)))) == (0, 1, 0, 0, 3)


class TestRuns:
    def test_full_binary_run(self):
        env = constant_environment(dirac(2), 2)
        run = b_run(env, stream_for_run(0, 0))
        assert run.terminated
        assert run.a_values == [1, 2, 1]
        assert run.k == 4

    def test_validators_accept_real_runs(self, binom3, varying3):
        for seed in range(60):
            rb = b_run(binom3, stream_for_run(seed, 0))
            validate_b_run(rb, binom3.horizon)
            rd = d_run(varying3, stream_for_run(seed, 1))
            validate_d_run(rd, varying3.horizon)

    def test_validator_rejects_corruption(self, binom3):
        run = None
        for seed in range(50):
            cand = b_run(binom3, stream_for_run(seed, 0))
            if len(cand.states) >= 2:
                run = cand
                break
        assert run is not None
        bad = ChainRun(
            a_values=list(run.a_values),
            states=list(run.states),
            terminated=run.terminated,
        )
        bad.a_values[0] = 3 if bad.a_values[0] != 3 else 2
        with pytest.raises(ChainStateError):
            validate_b_run(bad, binom3.horizon)

    @pytest.mark.parametrize("state", [
        (2, ()), (2, ((1, 1), (2, -1))), (2, ((1, -1),)),
        (2, ((1, 1), (1, 1))), (2, ((2, 1), (1, 1))), (2, ((1, 0), (2, 1))), (1, ((1, 1), (2, 1))),
        (2, ((0, 1),)),
    ], ids=["all-zero", "negative", "negative-fresh", "repeated-level", "falling-levels",
            "zero-count", "past-length", "level-0"])
    def test_validator_rejects_invalid_state(self, state):
        # an all-zero vector ends the run; entries count daughters; the pairs
        # list the nonzero entries, levels rising within the length.  The
        # dense forms of the negative states have the structure of a step
        # from (0, 1): only the sign gives them away
        run = ChainRun(a_values=[2, 1], states=[(2, ((2, 1),)), state])
        with pytest.raises(ChainStateError):
            validate_b_run(run, 2)

    @pytest.mark.parametrize("process, state", [("b", (1, ((1, 1), (2, 1)))),
                                                ("d", (2, ((1, 1), (3, 1))))])
    def test_validator_rejects_level_past_length(self, process, state):
        # a first state: no earlier state has the level to copy
        run = ChainRun(a_values=[1], states=[state])
        for validate in ((validate_b_run, dense_validate_b_run) if process == "b"
                         else (validate_d_run, dense_validate_d_run)):
            with pytest.raises(ChainStateError):
                validate(run, 2)

    def test_runs_look_up_steps_at_call_time(self, binom3, monkeypatch):
        # a tracer counts steps by patching the module's step functions
        calls = {"b": 0, "d": 0}

        def counting(name, step):
            def wrapped(*args):
                calls[name] += 1
                return step(*args)
            return wrapped

        monkeypatch.setattr(gwcoal.chains, "b_step", counting("b", b_step))
        monkeypatch.setattr(gwcoal.chains, "d_step", counting("d", d_step))
        rb = b_run(binom3, stream_for_run(0, 0))
        rd = d_run(binom3, stream_for_run(0, 0))
        # one step per emitted value, and one more that ends the run
        assert calls == {"b": len(rb.a_values) + 1, "d": len(rd.a_values) + 1}

    def test_unfinished_run(self, binom3):
        run = b_run(binom3, stream_for_run(0, 0), max_individuals=0)
        assert not run.terminated
        assert run.k is None

    def test_b_is_prefix_of_d(self, binom3):
        # same seed drives both chains through identical draws while the
        # fresh-below/decrement/copy structure consumes uniforms in the same
        # order only stepwise; compare laws instead via long-run frequencies
        n = 4000
        kb = [b_run(binom3, stream_for_run(s, 10)).k for s in range(n)]
        kd = [d_run(binom3, stream_for_run(s, 11)).k for s in range(n)]
        mb = sum(kb) / n
        md = sum(kd) / n
        assert mb == pytest.approx(md, abs=0.12)


class TestClosedFormSampler:
    def test_requires_lf(self, binom3):
        with pytest.raises(NotLinearFractionalError):
            lf_run(binom3, stream_for_run(0, 0))

    @staticmethod
    def draws(env, seed, runs):
        """Every closed-form draw of ``runs`` runs, the one past the horizon
        that ends each run as math.inf: one i.i.d. sequence."""
        out = []
        for run_id in range(runs):
            run = lf_run(env, stream_for_run(seed, run_id))
            assert run.terminated
            out += run.a_values + [math.inf]
        return out

    def test_values_in_range(self, lf_half_n6):
        for v in self.draws(lf_half_n6, 2, 70):
            assert v == math.inf or 1 <= v <= 6

    def test_tail_frequencies(self, lf_half_n6):
        # the closed-form tail is 1/(n+1) at every depth; a run takes 7 draws
        # on average, the last past the horizon
        draws = self.draws(lf_half_n6, 7, 7_000)
        n = len(draws)
        for depth in (1, 3, 6):
            p = 1 / (depth + 1)
            hits = sum(1 for v in draws if v > depth) / n
            se = math.sqrt(p * (1 - p) / n)
            assert abs(hits - p) < 4 * se

    @pytest.mark.parametrize("dead", [0, 1], ids=["oldest", "newest"])
    def test_no_survival_is_degenerate(self, dead):
        # a law with r = 0 has no children, so there is no genealogy to sample
        laws = [LinearFractionalLaw(0.5, 0.5)] * 2
        laws[dead] = LinearFractionalLaw(0.0, 0.5)
        env = Environment(tuple(laws))
        with pytest.raises(DegenerateEnvironmentError):
            lf_run(env, stream_for_run(0, 0))
        if dead == 0:
            # the newest law alone survives
            assert lf_run(env.shift(1), stream_for_run(0, 0)).terminated

    def test_run_terminates_on_overflow(self, lf_half_n6):
        run = lf_run(lf_half_n6, stream_for_run(5, 0))
        assert run.terminated
        assert all(1 <= a <= 6 for a in run.a_values)
        assert run.k == len(run.a_values) + 1

    def test_run_matches_tails(self, lf_varying3):
        # fraction of runs whose first value exceeds n is the closed tail
        n_runs = 30_000
        firsts = []
        for s in range(n_runs):
            run = lf_run(lf_varying3, stream_for_run(s, 3))
            firsts.append(run.a_values[0] if run.a_values else math.inf)
        for depth in (1, 2, 3):
            p = lf_a1_tail(lf_varying3, depth)
            hits = sum(1 for v in firsts if v > depth) / n_runs
            se = math.sqrt(p * (1 - p) / n_runs)
            assert abs(hits - p) < 4 * se


def critical_lf_n200():
    """Horizon 200, seeded LF laws with r = p: a time passes the horizon
    with probability about 1/200, so most runs read past their first
    blocks and a long campaign stops computing them."""
    rng = np.random.default_rng(17)
    return Environment(tuple(LinearFractionalLaw(p, p) for p in rng.uniform(0.4, 0.6, 200)))


LF_CAMPAIGN_ENVS = {
    "lf_half_n6": lambda: load_environment(env_path("lf_half_n6")),
    "lf_varying_n3": lambda: load_environment(env_path("lf_varying_n3")),
    "critical_lf_n200": critical_lf_n200,
}
DEFAULT_CAP = 1_000_000


def fields(run):
    return run.k, run.a_values, run.terminated


class TestLfCampaign:
    """``lf_campaign`` reads most runs of a long campaign off the first-block
    matrix; every run must be ``lf_run``'s on ``stream_for_run``'s stream."""

    # 641 ends in a partial sub-chunk
    LENGTHS = (127, 128, 300, 641)
    SEEDS = (0, 1, 2 ** 32, 2 ** 64 - 1)
    CAPS = (1, 31, 32, 33, DEFAULT_CAP)

    @pytest.fixture(scope="class", params=list(LF_CAMPAIGN_ENVS))
    def lf_env(self, request):
        return LF_CAMPAIGN_ENVS[request.param]()

    @staticmethod
    def reference(env, seed, n, cap):
        return [fields(lf_run(env, stream_for_run(seed, run), cap)) for run in range(n)]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("cap", CAPS)
    def test_runs_are_those_of_lf_run(self, lf_env, seed, cap):
        # the first n runs of a campaign do not depend on n
        expected = self.reference(lf_env, seed, max(self.LENGTHS), cap)
        for n in self.LENGTHS:
            got = [fields(run) for run in lf_campaign(lf_env, seed, n, cap)]
            assert got == expected[:n], (n, cap)

    @staticmethod
    def fallback_runs(env, seed, n):
        """The runs the block rule leaves to ``lf_run`` at the default cap:
        those that read past their first block while blocks are computed,
        and every run once they are not."""
        blocks = n >= sampling._LONG
        fallback = 0
        for sub in range(0, n, sampling._SUB):
            size = min(sampling._SUB, n - sub)
            if not blocks:
                fallback += size
                continue
            past = sum(len(lf_run(env, stream_for_run(seed, run)).a_values) + 1 > sampling._FIRST
                       for run in range(sub, sub + size))
            fallback += past
            blocks = 2 * past <= sampling._SUB
        return fallback

    @pytest.mark.parametrize("n", LENGTHS)
    def test_only_fallback_runs_call_lf_run(self, monkeypatch, lf_env, n):
        calls = []

        def counting(*args):
            calls.append(None)
            return lf_run(*args)

        monkeypatch.setattr(gwcoal.chains, "lf_run", counting)
        runs = list(lf_campaign(lf_env, 5, n))
        assert len(runs) == n
        assert len(calls) == self.fallback_runs(lf_env, 5, n)
        if n >= sampling._LONG and lf_env.horizon <= 6:
            assert len(calls) < n // 10
        # a run capped within its block reads no further, so none falls back
        calls.clear()
        list(lf_campaign(lf_env, 5, n, sampling._FIRST))
        assert len(calls) == (0 if n >= sampling._LONG else n)

    def test_blocks_stop_when_most_runs_read_past_them(self, monkeypatch):
        computed = []
        first_blocks = sampling._first_blocks

        def counted(columns):
            computed.append(len(columns[0]))
            return first_blocks(columns)

        monkeypatch.setattr(sampling, "_first_blocks", counted)
        deep, short = critical_lf_n200(), load_environment(env_path("lf_half_n6"))
        list(lf_campaign(deep, 3, 641))
        assert computed == [sampling._SUB]
        computed.clear()
        list(lf_campaign(short, 3, 641))
        assert computed == [sampling._SUB, sampling._SUB, 641 - 2 * sampling._SUB]

    @pytest.mark.parametrize("cap", [1, 32, 33, DEFAULT_CAP])
    def test_uniforms_on_the_cumulative_values(self, monkeypatch, lf_half_n6, cap):
        # rows of uniforms equal to the law's cumulative values, or one ulp
        # off them: a uniform at cum[-1] falls past the horizon, one below
        # it does not
        cum = lf_half_n6.levels.lf_cumulative
        pool = [0.0] + [v for c in cum for v in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0))]
        weights = np.array([1.0] * (len(pool) - 2) + [0.2, 0.2])
        rng = np.random.default_rng(8)
        rows = rng.choice(pool, size=(sampling._SUB, sampling._FIRST), p=weights / weights.sum())
        rows[::7] = np.minimum(rows[::7], np.nextafter(cum[-1], 0.0))  # rows with no end

        class Script:
            """A row, then uniforms off the pool."""

            def __init__(self, row):
                self.row, self.rng = row, np.random.default_rng(9)

            def random(self, size):
                row, self.row = self.row, None
                return row if row is not None else self.rng.choice(pool, size)

        def blocks(seed, n):
            yield rows.T.copy().T, len(rows), lambda i: UniformStream(Script(rows[i]))

        monkeypatch.setattr(gwcoal.chains, "campaign_blocks", blocks)
        got = [fields(run) for run in lf_campaign(lf_half_n6, 0, len(rows), cap)]
        expected = [fields(lf_run(lf_half_n6, UniformStream(Script(row)), cap)) for row in rows]
        assert got == expected
        # terminated runs, and unfinished ones under a cap
        assert {k is None for k, _, _ in got} == {False, cap < DEFAULT_CAP}

    @pytest.mark.parametrize("dead", [0, 1], ids=["oldest", "newest"])
    def test_no_survival_writes_no_row(self, tmp_path, capsys, dead):
        # a law with r = 0 leaves no genealogy to sample: exit 3 before a row
        laws = [{"type": "lf", "r": 0.5, "p": 0.5}] * 6
        laws[dead] = {"type": "lf", "r": 0.0, "p": 0.5}
        path, out = tmp_path / "lf_dead.json", tmp_path / "out.csv"
        path.write_text(json.dumps({"laws": laws}))
        code = main(["chain", "--process", "lf", "--env", str(path), "--samples",
                     str(2 * sampling._SUB), "--out", str(out)])
        assert code == EXIT_DEGENERATE
        assert not out.exists()
        assert capsys.readouterr().out == ""


class TestEtaSamplers:
    def test_law_matches_module(self, varying3):
        from gwcoal import eta_law_at_depth

        samplers = EtaSamplers(varying3)
        for level in (1, 2, 3):
            assert samplers.law(level).probs == eta_law_at_depth(varying3, level).probs

    def test_draw_frequencies(self, binom2):
        samplers = EtaSamplers(binom2)
        stream = stream_for_run(9, 0)
        n = 30_000
        hits = sum(samplers.draw(2, stream) for _ in range(n)) / n
        # mean of the level-2 law is P(1) = 3/13
        assert hits == pytest.approx(3 / 13, abs=0.01)


# a near-critical law over 40 generations: long states, many fresh levels
DEEP_N40 = Environment((FiniteSupportLaw((0.25, 0.5, 0.25)),) * 40)


def dense_run(run):
    """(a_values, dense states, terminated) of a run, the form of
    ``per_draw_chain``, once each state's pairs are checked to be exactly
    its nonzero entries."""
    vecs = [dense(state) for state in run.states]
    for (_, pairs), vec in zip(run.states, vecs):
        assert pairs == tuple((m, v) for m, v in enumerate(vec, 1) if v)
    return run.a_values, vecs, run.terminated


class TestBatchedDraws:
    """The chains read fresh levels in one slice and extensions straight off
    the stream; states, times and the uniforms read must be those of one
    ``EtaSamplers.draw`` per level."""

    @pytest.mark.parametrize("name", ["binom_n6", "varying_n3", "lf_half_n6", "deep_n40"])
    @pytest.mark.parametrize("process", ["b", "d"])
    def test_runs_match_per_draw_reference(self, name, process):
        env = DEEP_N40 if name == "deep_n40" else load_environment(env_path(name))
        samplers = EtaSamplers(env)
        run_chain = b_run if process == "b" else d_run
        for seed in (0, 1, 7, 2 ** 63):
            for run_id in range(12):
                for cap in (2, 1_000_000):
                    ref, new = stream_for_run(seed, run_id), stream_for_run(seed, run_id)
                    expected = per_draw_chain(process, env, ref, cap)
                    run = run_chain(env, new, cap, samplers=samplers)
                    assert dense_run(run) == expected
                    assert new.take(3) == ref.take(3)

    def test_lf_run_matches_per_draw_reference(self, lf_half_n6):
        cum = lf_half_n6.levels.lf_cumulative
        for run_id in range(40):
            ref, new = stream_for_run(3, run_id), stream_for_run(3, run_id)
            times = []
            while (idx := draw_from_cumulative(cum, ref)) < lf_half_n6.horizon:
                times.append(idx + 1)
            assert lf_run(lf_half_n6, new).a_values == times
            assert new.take(3) == ref.take(3)

    @pytest.mark.parametrize("process", ["b", "d"])
    def test_level_without_uniform(self, process):
        # p = 1 - 2**-53 at level 2 above u_1 = 0.6 rounds the geometric
        # success probability to 1: that level is always 0 and reads no
        # uniform, so the batched reads must skip it too
        env = Environment((FiniteSupportLaw((0.25, 0.5, 0.25)),
                           LinearFractionalLaw(0.5, 1 - 2 ** -53), LinearFractionalLaw(0.4, 0.5)))
        samplers = EtaSamplers(env)
        assert samplers.law(2).geom == 1.0
        run_chain = b_run if process == "b" else d_run
        for run_id in range(40):
            ref, new = stream_for_run(4, run_id), stream_for_run(4, run_id)
            expected = per_draw_chain(process, env, ref)
            run = run_chain(env, new, samplers=samplers)
            assert dense_run(run) == expected
            assert new.take(3) == ref.take(3)


# pmf laws on {0..w}, w = 1..5, zero entries allowed; lf laws, among them
# p = 1 - 2**-53, whose eta level reads no uniform above most u
PMF_LAWS = st.lists(st.integers(0, 3), min_size=2, max_size=6).filter(lambda c: any(c[1:])).map(
    lambda c: FiniteSupportLaw(tuple(x / sum(c) for x in c)))
LF_LAWS = st.builds(LinearFractionalLaw, st.sampled_from([0.25, 0.5, 1.0]),
                    st.sampled_from([0.3, 0.5, 0.75, 1 - 2 ** -53]))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(laws=st.integers(1, 40).flatmap(lambda horizon: st.lists(
           st.one_of(PMF_LAWS, LF_LAWS), min_size=horizon, max_size=horizon)),
       process=st.sampled_from("bd"), seed=st.integers(0, 2 ** 64 - 1), cap=st.integers(0, 60))
@example(laws=[FiniteSupportLaw((0.25, 0.5, 0.25)), LinearFractionalLaw(0.5, 1 - 2 ** -53),
               LinearFractionalLaw(0.4, 0.5)], process="b", seed=4, cap=60)
@example(laws=[FiniteSupportLaw((0.25, 0.5, 0.25)), LinearFractionalLaw(0.5, 1 - 2 ** -53),
               LinearFractionalLaw(0.4, 0.5)], process="d", seed=4, cap=60)
def test_sparse_runs_match_dense_reference(laws, process, seed, cap):
    """Sparse b and d runs equal the dense per-draw reference: times, dense
    states, termination and the uniforms read after the run."""
    env = Environment(tuple(laws))
    try:
        samplers = EtaSamplers(env)
    except DegenerateEnvironmentError:
        assume(False)
    run_chain = b_run if process == "b" else d_run
    for run_id in range(4):
        ref, new = stream_for_run(seed, run_id), stream_for_run(seed, run_id)
        expected = per_draw_chain(process, env, ref, cap)
        assert dense_run(run_chain(env, new, cap, samplers=samplers)) == expected
        assert new.take(3) == ref.take(3)


def _rejects(validate, run, horizon):
    try:
        validate(run, horizon)
    except ChainStateError:
        return True
    return False


VALIDATED_ENVS = {name: load_environment(env_path(name))
                  for name in ("binom_n3", "varying_n3", "binom_n6", "lf_half_n6")}


@settings(derandomize=True, max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(VALIDATED_ENVS)), process=st.sampled_from("bd"),
       run_id=st.integers(0, 500), field=st.sampled_from(["level", "count", "length", "a"]),
       delta=st.integers(-2, 2), short=st.booleans(), data=st.data())
def test_pair_validators_match_dense_reference(name, process, run_id, field, delta, short, data):
    """A real run with one entry moved by ``delta``: a level, a count, a
    length or an emitted time, checked against the horizon or one level
    less.  The pair validators reject it exactly when the dense reference
    does, or when a count is negative: the dense d reference let negative
    counts through."""
    env = VALIDATED_ENVS[name]
    horizon = env.horizon - short
    run = (b_run if process == "b" else d_run)(env, stream_for_run(5, run_id))
    assume(run.states)
    step = data.draw(st.integers(0, len(run.states) - 1))
    length, pairs = run.states[step]
    if field == "a":
        run.a_values[step] += delta
    elif field == "length":
        run.states[step] = (length + delta, pairs)
    else:
        j = data.draw(st.integers(0, len(pairs) - 1))
        level, v = pairs[j]
        pair = (level + delta, v) if field == "level" else (level, v + delta)
        run.states[step] = (length, pairs[:j] + (pair,) + pairs[j + 1:])
    validate, reference = ((validate_b_run, dense_validate_b_run) if process == "b"
                           else (validate_d_run, dense_validate_d_run))
    negative = any(v < 0 for _, pairs in run.states for _, v in pairs)
    assert _rejects(validate, run, horizon) == (_rejects(reference, run, horizon) or negative)
    if delta == 0 and not short:
        validate(run, horizon)
