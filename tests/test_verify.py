import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from gwcoal import (
    DistTable,
    Environment,
    FiniteSupportLaw,
    LinearFractionalLaw,
    a1_tail,
    a1_identity_check,
    btilde_witness_search,
    constant_environment,
    dirac,
    exact_chain_law,
    exact_population_law,
    exact_tree_law,
    factorization_gap,
    figure1_consistency,
    joint_first_two_times,
    lf_a1_tail,
    lf_closed_form_checks,
    lf_iid_check,
    load_environment,
    mc_witness_check,
    run_verify_suite,
    tree_vs_chain_check,
    tv_distance,
)
from gwcoal.errors import (
    DegenerateEnvironmentError,
    DomainError,
    EnumerationGuardError,
    EnvFormatError,
    NotLinearFractionalError,
)
from gwcoal import automata, verify
from gwcoal.chains import dense
from gwcoal.cli import EXIT_CHECK_FAILED, EXIT_GUARD, EXIT_OK, main
from gwcoal.disttable import outcome_key
from gwcoal.environment import LevelTable
from gwcoal.tree import cpp_and_marks, simulate_tree
from gwcoal.verify import (
    TERM_KEY,
    McWitnessReport,
    a1_telescoping_check,
    encode_bt,
)

from conftest import (
    ENVS, chain_step_laws, dense_transitions, env_path, lockstep_chain_outcomes,
    loop_tree_numerators)

# conditioned genealogy law of the two-generation three-point environment,
# derived by enumerating all surviving shapes by hand before any code ran
HAND_TABLE_N2 = {
    "K=1;A=": Fraction(20, 39),
    "K=2;A=1": Fraction(10, 39),
    "K=2;A=2": Fraction(4, 39),
    "K=3;A=1,2": Fraction(2, 39),
    "K=3;A=2,1": Fraction(2, 39),
    "K=4;A=1,2,1": Fraction(1, 39),
}


@pytest.fixture
def binom2_exact(binom2):
    return binom2.as_rational()


class TestOutcomeKeys:
    def test_round_trip(self):
        assert outcome_key(3, (1, 2)) == "K=3;A=1,2"
        assert outcome_key(1, ()) == "K=1;A="

    def test_dist_table(self):
        t = DistTable({"a": 0.25, "b": 0.75})
        assert t.total() == 1.0
        t.add("a", 0.25)
        n = t.normalized()
        assert n["a"] == pytest.approx(0.4)
        assert tv_distance(t, t) == 0
        with pytest.raises(DomainError):
            DistTable().normalized()

    def test_tv_exact(self):
        a = DistTable({"x": Fraction(1, 3), "y": Fraction(2, 3)})
        b = DistTable({"x": Fraction(2, 3), "y": Fraction(1, 3)})
        assert tv_distance(a, b) == Fraction(1, 3)

    def test_tv_float_independent_of_hash_seed(self):
        # the union of string keys is a set, iterated in hash-seed order; on
        # binom_n3 a plain sum of the float terms printed a different value
        # under each of these three seeds
        code = ("import sys; from gwcoal import factorization_gap, load_environment; "
                "print(repr(factorization_gap(load_environment(sys.argv[1]))))")
        path = os.pathsep.join([str(ENVS.parent / "src"), os.environ.get("PYTHONPATH", "")])
        values = {
            subprocess.run([sys.executable, "-c", code, env_path("binom_n3")],
                           env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
                           capture_output=True, text=True, check=True).stdout
            for seed in ("1", "5", "7")
        }
        assert len(values) == 1


class TestExactTreeLaw:
    def test_hand_table(self, binom2_exact):
        table = exact_tree_law(binom2_exact)
        assert dict(table) == HAND_TABLE_N2
        assert table.truncated_mass == 0.0

    def test_float_agrees_with_exact(self, binom2):
        table = exact_tree_law(binom2)
        for key, frac in HAND_TABLE_N2.items():
            assert table[key] == pytest.approx(float(frac), abs=1e-14)

    def test_dirac_tree(self):
        # dirac laws hold Fractions: the environment is exact with no conversion
        env = constant_environment(dirac(2), 2)
        table = exact_tree_law(env)
        assert table == {"K=4;A=1,2,1": 1}
        for process in ("b", "d"):
            table = exact_chain_law(env, process=process)
            assert table == {"K=4;A=1,2,1": 1}
            assert isinstance(table["K=4;A=1,2,1"], Fraction)

    def test_always_dies(self):
        env = constant_environment(dirac(0), 2)
        with pytest.raises(DegenerateEnvironmentError):
            exact_tree_law(env)

    def test_guard_trips(self, binom3):
        with pytest.raises(EnumerationGuardError):
            exact_tree_law(binom3, guard=10)


class TestExactChainLaw:
    def test_matches_tree_law_exactly(self, binom3, varying3):
        for env in (binom3, varying3):
            tree = exact_tree_law(env.as_rational())
            for process in ("b", "d"):
                chain = exact_chain_law(env.as_rational(), process=process)
                assert tv_distance(tree, chain) == 0

    def test_float_mode_close(self, varying3):
        tree = exact_tree_law(varying3)
        chain = exact_chain_law(varying3)
        assert float(tv_distance(tree, chain)) < 1e-12

    def test_bad_process(self, binom3):
        with pytest.raises(ValueError):
            exact_chain_law(binom3, process="x")

    def test_check_wrapper(self, varying3):
        res = tree_vs_chain_check(varying3.as_rational())
        assert res.passed
        assert res.metric == 0.0
        assert "exact_zero=True" in res.detail

    def test_step_laws_agree(self, binom3, varying3):
        # the truncated chain is the visible part of the fixed-length chain
        for env in (binom3, varying3):
            b_steps = chain_step_laws(env, process="b", max_steps=5)
            d_steps = chain_step_laws(env, process="d", max_steps=5)
            assert len(b_steps) == len(d_steps)
            for lb, ld in zip(b_steps, d_steps):
                assert float(tv_distance(lb, ld)) < 1e-12


class TestPopulationLaw:
    def test_two_generations_exact(self, binom2_exact):
        # squaring the quadratic generating function by hand:
        # (5 + 2s + s^2)^2 / 64
        law = exact_population_law(binom2_exact, 2)
        assert law == {
            0: Fraction(25, 64),
            1: Fraction(20, 64),
            2: Fraction(14, 64),
            3: Fraction(4, 64),
            4: Fraction(1, 64),
        }

    def test_identity_checks(self, binom3, varying3, lf_half_n1):
        for env in (binom3, varying3):
            for n in (1, 2, 3):
                res = a1_identity_check(env, n)
                assert res.passed, res.detail
        res = a1_identity_check(lf_half_n1, 1)
        assert res.passed

    @pytest.mark.parametrize("name", sorted(p.stem for p in ENVS.glob("*.json")))
    def test_telescoping_passes_on_bundled_envs(self, name):
        env = load_environment(env_path(name))
        res = a1_telescoping_check(env)
        assert res.passed and res.threshold == 1e-12, res
        if env.is_finite_support:
            res = a1_telescoping_check(env.as_rational())
            assert res.passed and res.metric == 0 and res.threshold == 0, res

    @pytest.mark.parametrize("exact, scale", [(False, 1 + 1e-9), (True, 1 + Fraction(1, 2**80))])
    def test_telescoping_fails_on_perturbed_product(self, monkeypatch, varying3, exact, scale):
        # the exact perturbation is far below the float tolerance: only
        # exact comparison can see it
        real = LevelTable.column

        def perturbed(self, k):
            u, deriv, p0, product = real(self, k)
            return u, deriv, p0, product * scale if k == 3 else product

        monkeypatch.setattr(LevelTable, "column", perturbed)
        env = varying3.as_rational() if exact else varying3
        res = a1_telescoping_check(env)
        assert not res.passed
        assert res.metric > 0

    def test_tail_equals_singleton_share(self, binom2_exact):
        # P(first time beyond the horizon) is P(K = 1)
        assert a1_tail(binom2_exact, 2) == HAND_TABLE_N2["K=1;A="]


class TestReferenceTable:
    def test_rederives(self):
        res = figure1_consistency()
        assert res.passed
        assert (res.name, res.metric, res.detail) == ("reference-table", 0.0, "all rows re-derived")
        assert verify.REFERENCE_A == (1, 2, 1, 2, 1, 1, 4, 3, 5, 1, 4)
        assert verify.REFERENCE_L == (1, 2, 2, 2, 2, 2, 4, 4, 5, 5, 5)

    def test_reduced_states_integer_equality(self):
        assert figure1_consistency().passed
        assert verify.REFERENCE_BTILDE[0] == ((1, 1),)
        assert verify.REFERENCE_BTILDE[2] == ((1, 1), (2, 1))
        assert verify.REFERENCE_BTILDE[10] == ((4, 1),)

    @pytest.mark.parametrize("name, index, value, clauses", [
        # a time off the states' first levels also moves the running maxima
        # and the reduced recursion
        ("REFERENCE_A", 1, 3, ["lengths", "chain states", "reduced sequence"]),
        ("REFERENCE_L", 1, 3, ["lengths"]),
        # the times give (2, 1): one time 2 follows before a higher one
        ("REFERENCE_B_ROWS", 2, (2, ((1, 1), (2, 2))), ["chain states"]),
        ("REFERENCE_BTILDE", 10, ((4, 2),), ["reduced sequence"]),
    ])
    def test_each_broken_row_fails(self, monkeypatch, capsys, name, index, value, clauses):
        rows = list(getattr(verify, name))
        rows[index] = value
        monkeypatch.setattr(verify, name, tuple(rows))
        res = figure1_consistency()
        assert not res.passed
        assert (res.metric, res.threshold) == (1.0, 0.0)
        assert [clause.split(":")[0] for clause in res.detail.split("; ")] == clauses
        assert main(["verify", "--figure1"]) == EXIT_CHECK_FAILED
        assert capsys.readouterr().out == (
            f"FAIL reference-table metric=1.000e+00 threshold=0.000e+00 {res.detail}\n")


class TestIndependence:
    def test_lf_factorizes(self, lf_varying3):
        res = lf_iid_check(lf_varying3)
        assert res.passed and res.name == "lf-independence"
        # the larger of the joint and the marginal total variations
        assert res.metric < res.threshold
        assert res.threshold >= 1e-8

    def test_non_factorizing_joint_fails(self, monkeypatch, binom2):
        # binom2's joint law of the first two times, whose factorization gap
        # is 12/25 by hand, and a diagonal law on the closed-form marginals,
        # whose gap 2 c1 c2 is all that fails it
        env = constant_environment(LinearFractionalLaw(0.5, 0.5), 2)
        t1, t2 = lf_a1_tail(env, 1), lf_a1_tail(env, 2)
        c1, c2 = (1 - t1) / (1 - t2), (t1 - t2) / (1 - t2)
        cases = [(verify.joint_first_two_times(binom2)[0], 12 / 25),
                 (DistTable({"1,1": c1, "2,2": c2}), 2 * c1 * c2)]
        for joint, gap in cases:
            monkeypatch.setattr(verify, "joint_first_two_times", lambda env: (joint, 0.0))
            res = lf_iid_check(env)
            assert not res.passed
            assert res.metric == pytest.approx(gap, abs=1e-12)
            assert res.threshold == 1e-8
            assert res.detail.startswith(f"joint={gap:.3e} marginal=")

    def test_non_lf_control(self, binom2):
        # hand value: conditioned on three or more survivors the joint puts
        # 3/5 on (1,2) and 2/5 on (2,1); the product table spreads over four
        # cells and the distance is 12/25
        gap = factorization_gap(binom2)
        assert gap == pytest.approx(12 / 25, abs=1e-12)
        assert gap > 0.001

    def test_leak_is_the_rounded_exact_remainder(self, lf_varying3, lf_half_n1):
        # the bound is twice the mass no swept run accounts for, over the
        # joint's total: one less the masses of the runs that end at the
        # first step and every mass times the probability of its next time,
        # each a float product, summed exactly and rounded once
        for env in (lf_varying3, lf_half_n1):
            tables = verify._eta_tables(env)
            sweep = verify._Sweep(env, "b", 5_000_000, "joint sweep exceeded its budget")
            lost, total = Fraction(1), 0.0
            for first, mass in verify._transitions((0, ()), tables, 1.0):
                if first is None:
                    lost -= Fraction(mass)
                    continue
                for second, p in sweep.time_law(first):
                    lost -= Fraction(mass * p)
                    total += mass * p if second else 0.0
            _, bound = joint_first_two_times(env)
            assert bound == pytest.approx(2 * float(lost) / total, rel=1e-12, abs=0)

    def test_joint_reaches_horizon_six(self, lf_half_n6):
        # the second step's transitions below a high first level number the
        # product of up to five geometric tables, past the joint's budget;
        # the law of the next time is read off the tables instead
        joint, bound = joint_first_two_times(lf_half_n6)
        assert sum(joint.values()) == pytest.approx(1, abs=1e-12)
        assert {key.split(",")[0] for key in joint} == {str(n) for n in range(1, 7)}
        assert 0 < bound < 1e-11
        res = lf_iid_check(lf_half_n6)
        assert res.passed, res.detail

    def test_exact_joint(self, varying3):
        # an exact environment seeds its sweep with an integer mass: the
        # joint law comes out in Fractions, with nothing lost to truncation
        exact, bound = joint_first_two_times(varying3.as_rational())
        floats, _ = joint_first_two_times(varying3)
        assert bound == 0.0 and sum(exact.values()) == 1
        assert all(isinstance(p, Fraction) for p in exact.values())
        assert exact.keys() == floats.keys()
        for key, p in floats.items():
            assert float(exact[key]) == pytest.approx(p, rel=1e-12, abs=0)

    def test_joint_requires_survivors(self):
        env = constant_environment(dirac(1), 2)
        with pytest.raises(DegenerateEnvironmentError):
            joint_first_two_times(env)

    def test_lf_check_requires_lf(self, binom3):
        with pytest.raises(NotLinearFractionalError):
            lf_iid_check(binom3)

    def test_closed_form_checks(self, lf_half_n6, lf_varying3):
        for env in (lf_half_n6, lf_varying3):
            for res in lf_closed_form_checks(env):
                assert res.passed, res.detail

    def test_closed_form_checks_compose_each_level_once(self, monkeypatch):
        # the generic route composes level n's range once (n - 1 evaluations)
        # and evaluates the founder's pgf once more for survival; no shifted
        # environment fills a level table of its own
        N = 200
        laws = [LinearFractionalLaw(r=0.5 + 0.01 * (i % 3), p=0.5 + 0.005 * (i % 5))
                for i in range(N)]
        env = Environment(laws)
        a1_tail(env, N)  # fill the environment's own table first
        evals = []
        pgf = LinearFractionalLaw.pgf

        def counting_pgf(self, s):
            evals.append(1)
            return pgf(self, s)

        monkeypatch.setattr(LinearFractionalLaw, "pgf", counting_pgf)
        results = lf_closed_form_checks(env)
        assert all(res.passed for res in results)
        assert len(evals) <= N * (N + 1) // 2


class TestWitness:
    def test_found_at_horizon_five(self):
        env = load_environment(env_path("binom_n5"))
        w = btilde_witness_search(env)
        assert w is not None
        assert w.tv > 0.01
        assert w.step_index == 2
        assert w.shared_state == ((1, 1),)
        assert {w.history_a, w.history_b} == {((2, 1),), ((3, 1),)}
        assert abs(w.law_a.total() - 1) < 1e-12
        assert abs(w.law_b.total() - 1) < 1e-12

    def test_mc_agrees_in_direction(self):
        env = load_environment(env_path("binom_n5"))
        w = btilde_witness_search(env)
        rep = mc_witness_check(env, w, samples=60_000, seed=17)
        assert rep.hits_a > 100 and rep.hits_b > 100
        assert rep.same_direction

    def test_exact_env_gives_the_float_witness(self, varying3):
        # the sweep seeds an exact environment's start with an integer mass,
        # so its conditional laws are Fractions and its TV the float one's
        w = btilde_witness_search(varying3)
        exact = btilde_witness_search(varying3.as_rational())
        assert (exact.step_index, exact.shared_state, exact.history_a, exact.history_b) == (
            w.step_index, w.shared_state, w.history_a, w.history_b)
        assert all(isinstance(p, Fraction) for p in (*exact.law_a.values(), *exact.law_b.values()))
        assert exact.tv == pytest.approx(w.tv, rel=1e-12, abs=0)
        dp_gap = mc_witness_check(varying3, w, samples=2_000, seed=7).dp_gap
        rep = mc_witness_check(varying3.as_rational(), exact, samples=2_000, seed=7)
        assert rep.dp_gap == pytest.approx(dp_gap, rel=1e-12, abs=0)

    def test_requires_finite_support(self, lf_half_n6):
        with pytest.raises(EnumerationGuardError):
            btilde_witness_search(lf_half_n6)

    def test_encode(self):
        assert encode_bt(()) == "-"
        assert encode_bt(((1, 2), (4, 1))) == "1:2,4:1"


class TestSuite:
    def test_all_pass_on_bundled_small_envs(self):
        for name in ("binom_n3", "varying_n3", "lf_half_n1", "lf_varying_n3"):
            env = load_environment(env_path(name))
            results = run_verify_suite(env, rational=env.is_finite_support)
            assert results, name
            assert "a1-tail-telescoping" in [r.name for r in results]
            for res in results:
                assert res.passed, f"{name}: {res.name}: {res.detail}"

    def test_rational_forms_the_exact_environment_once(self, monkeypatch, varying3):
        # the exact tree-vs-chain line and the exact telescoping check share it
        calls = []
        real = Environment.as_rational
        monkeypatch.setattr(Environment, "as_rational", lambda env: calls.append(1) or real(env))
        names = [r.name for r in run_verify_suite(varying3, rational=True)]
        assert calls == [1]
        assert "tree-vs-chain-tv-rational" in names and "a1-tail-telescoping" in names

    def test_rational_runs_the_automata_once(self, monkeypatch, varying3):
        # the float and the rational line read one verdict, and neither
        # enumerates the tree's patterns
        calls = []
        real = verify._automata_verdict
        monkeypatch.setattr(verify, "_automata_verdict",
                            lambda *args: calls.append(1) or real(*args))
        monkeypatch.setattr(verify, "_tree_numerators", None)
        lines = {r.name: r for r in run_verify_suite(varying3, rational=True)}
        assert calls == [1]
        for mode in ("float", "rational"):
            res = lines[f"tree-vs-chain-tv-{mode}"]
            assert res.passed and res.metric == 0 and res.detail.startswith("outcomes=42 ")

    def test_automata_settle_past_the_enumeration(self):
        # six children at most on each of three levels: the tree's patterns
        # pass the default guard, the automata of the exact form do not
        env = constant_environment(FiniteSupportLaw((0.25, 0.25, 0.125, 0.125, 0.125, 0.125)), 3)
        with pytest.raises(EnumerationGuardError):
            verify._tree_numerators(env, 2_000_000)
        results = run_verify_suite(env)
        assert all(res.passed for res in results)
        assert results[1].name == "tree-vs-chain-tv-float" and results[1].metric == 0

    def test_check_result_serializes(self, varying3):
        res = tree_vs_chain_check(varying3)
        doc = json.loads(res.to_json())
        assert doc["name"] == "tree-vs-chain-tv-float"
        assert doc["passed"] is True
        assert doc["env_digest"] == res.env_digest == varying3.digest()
        assert sorted(doc) == ["detail", "env_digest", "metric", "name", "passed", "threshold"]

    @pytest.mark.parametrize("name, flags", [
        ("varying_n3", {"rational": True, "witness": True}),
        ("lf_varying_n3", {}),
        ("lf_half_n1", {}),
    ])
    def test_digest_read_from_the_environment(self, monkeypatch, name, flags):
        # no check computes the digest; each line reads it from its environment
        env = load_environment(env_path(name))
        digest = load_environment(env_path(name)).digest()
        calls = []
        real = Environment.digest
        monkeypatch.setattr(Environment, "digest", lambda e: calls.append(1) or real(e))
        results = run_verify_suite(env, **flags)
        assert calls == []
        assert [r.env_digest for r in results] == ["-"] + [digest] * (len(results) - 1)
        if flags:
            found = btilde_witness_search(env)
            assert found.env is env and found.env_digest == digest

    def test_telescoping_fills_the_table_once(self, monkeypatch):
        env = constant_environment(FiniteSupportLaw((0.25, 0.5, 0.25)), 200)
        calls = []
        real = LevelTable._fill
        monkeypatch.setattr(LevelTable, "_fill",
                            lambda self, k, e: calls.append((k, e)) or real(self, k, e))
        assert a1_telescoping_check(env).passed
        assert calls == [(200, False)]

    def test_witness_reported_in_suite(self):
        env = load_environment(env_path("binom_n5"))
        results = run_verify_suite(env, witness=True)
        names = [r.name for r in results]
        assert "reduced-sequence-witness" in names
        witness_res = results[names.index("reduced-sequence-witness")]
        assert witness_res.passed
        assert witness_res.metric > 0.01


# every law a permutation of (5, 7, 9, 11)/32: full support at every level
FULL_SUPPORT_N3 = Environment(tuple(
    FiniteSupportLaw(tuple(Fraction(c, 32) for c in perm))
    for perm in ((5, 7, 9, 11), (11, 9, 7, 5), (7, 11, 5, 9))
))
# the same laws in floats, as a user's pmf file gives them
FULL_SUPPORT_N3_FLOAT = Environment(tuple(
    FiniteSupportLaw(tuple(float(p) for p in law.probs)) for law in FULL_SUPPORT_N3.laws
))
EXACT_ENVS = {
    "binom_n3": lambda: load_environment(env_path("binom_n3")),
    "varying_n3": lambda: load_environment(env_path("varying_n3")),
    "full_support_n3": lambda: FULL_SUPPORT_N3,
}


@pytest.fixture(scope="module", params=sorted(EXACT_ENVS))
def exact_laws(request):
    """The rational tree law and the rational b and d chain laws of one env,
    as (K, A_1 or None, probability) rows."""
    env = EXACT_ENVS[request.param]().as_rational()
    laws = {
        "tree": exact_tree_law(env),
        "b": exact_chain_law(env, process="b"),
        "d": exact_chain_law(env, process="d"),
    }

    def first_time(key):
        k, _, a = key.removeprefix("K=").partition(";A=")
        return int(k), int(a.split(",", 1)[0]) if a else None

    return env, {route: [(*first_time(key), p) for key, p in table.items()]
                 for route, table in laws.items()}


def exact_sum(values):
    """Sum of Fractions over the lcm of their denominators."""
    values = list(values)
    den = math.lcm(*(p.denominator for p in values))
    return Fraction(sum(p.numerator * (den // p.denominator) for p in values), den)


class TestExactArithmetic:
    """The integer-numerator sweeps against routes that share no code with
    them: the plain Fraction convolution of the population size and the
    closed-form tail of the first coalescent time."""

    def test_k_marginal_is_population_law(self, exact_laws):
        env, laws = exact_laws
        pop = exact_population_law(env.as_rational(), env.horizon)
        alive = 1 - pop.get(0, 0)
        expected = {k: p / alive for k, p in pop.items() if k > 0 and p}
        for route, rows in laws.items():
            assert all(isinstance(p, Fraction) for _, _, p in rows), route
            by_k: dict[int, list[Fraction]] = {}
            for k, _, p in rows:
                by_k.setdefault(k, []).append(p)
            assert {k: exact_sum(ps) for k, ps in by_k.items()} == expected, route

    def test_first_time_tail_is_closed_form(self, exact_laws):
        env, laws = exact_laws
        exact = env.as_rational()
        for n in range(1, env.horizon + 1):
            closed = a1_tail(exact, n)
            for route, rows in laws.items():
                tail = exact_sum(p for k, a1, p in rows if k == 1 or a1 > n)
                assert tail == closed, (route, n)

    @pytest.mark.parametrize("rational", [False, True])
    @pytest.mark.parametrize("route, smallest", [("b", 89), ("d", 96), ("tree", 73)])
    def test_smallest_passing_guard(self, varying3, rational, route, smallest):
        # work counts every transition or combination examined
        env = varying3.as_rational() if rational else varying3

        def run(guard):
            if route == "tree":
                return exact_tree_law(env, guard=guard)
            return exact_chain_law(env, guard=guard, process=route)

        run(smallest)
        with pytest.raises(EnumerationGuardError):
            run(smallest - 1)

    @pytest.mark.parametrize("process, smallest", [("b", 172_872), ("d", 173_016)])
    def test_smallest_passing_guard_on_full_support(self, process, smallest):
        # the counts of a sweep that charged every (history, state) entry its
        # transitions: grouping the frontier by state charges each state its
        # transitions times its histories, which is the same sum
        exact_chain_law(FULL_SUPPORT_N3_FLOAT, guard=smallest, process=process)
        with pytest.raises(EnumerationGuardError):
            exact_chain_law(FULL_SUPPORT_N3_FLOAT, guard=smallest - 1, process=process)

    def test_smallest_passing_tree_guard_on_full_support(self):
        # the count of the product loop that charged each combination as it
        # examined it, now charged per depth before any key is built
        verify._tree_numerators(FULL_SUPPORT_N3_FLOAT, 65_730)
        with pytest.raises(EnumerationGuardError):
            verify._tree_numerators(FULL_SUPPORT_N3_FLOAT, 65_729)

    @pytest.mark.parametrize("process, horizon, guard", [
        ("d", 12, 1000), ("d", 16, 1000), ("d", 18, 1000), ("b", 18, 5)])
    def test_guard_stops_generating_transitions(self, monkeypatch, process, horizon, guard):
        # the d start has 2**horizon transitions and the b start horizon + 1;
        # a state raises before its list is built past the guard
        real = verify._transitions
        made = [0]

        def counting(*args):
            for move in real(*args):
                made[0] += 1
                yield move

        monkeypatch.setattr(verify, "_transitions", counting)
        env = constant_environment(FiniteSupportLaw((0.25, 0.5, 0.25)), horizon)
        with pytest.raises(EnumerationGuardError, match=f"exceeded {guard} transitions"):
            exact_chain_law(env, guard=guard, process=process)
        assert made[0] <= guard + 1

    @pytest.mark.parametrize("process", ["b", "d"])
    def test_transitions_generated_once_per_state(self, monkeypatch, varying3, process):
        real = verify._transitions
        calls: dict = {}

        def counting(state, tables, one):
            calls[state] = calls.get(state, 0) + 1
            return real(state, tables, one)

        monkeypatch.setattr(verify, "_transitions", counting)
        for env in (varying3, varying3.as_rational()):
            calls.clear()
            exact_chain_law(env, process=process)
            assert calls and set(calls.values()) == {1}
        calls.clear()
        chain_step_laws(varying3, process=process, max_steps=5)
        assert calls and set(calls.values()) == {1}
        if process == "b":
            # the joint reads its second step off the tables, so only the
            # start's transitions are built
            calls.clear()
            joint_first_two_times(load_environment(env_path("lf_varying_n3")))
            assert calls == {(0, ()): 1}
        if process == "d":
            calls.clear()
            btilde_witness_search(load_environment(env_path("binom_n5")))
            assert calls and set(calls.values()) == {1}

    @pytest.mark.parametrize("name, rational", [
        ("binom_n3", False), ("binom_n3", True), ("varying_n3", False), ("varying_n3", True),
        ("lf_half_n1", False), ("lf_varying_n3", False)])
    def test_time_law_sums_the_transitions(self, name, rational):
        # the law of a state's next time against its transitions summed by
        # the first level of their next state.  The law leaves the fresh
        # levels above that first level undrawn, so the reference puts back
        # what those tables leave out (nothing on a finite support); exact
        # numerators are equal, float sums agree to rounding
        env = load_environment(env_path(name))
        sweep = verify._Sweep(env.as_rational() if rational else env, "b", 10**9, "unbounded")
        states = [nxt for nxt, a, _ in sweep.transitions(sweep.start) if a is not None]
        assert states
        for state in states:
            summed: dict = {}
            for _, a, p in sweep.transitions(state):
                summed.setdefault(a, []).append(p)
            first = state[1][0][0]
            law = {}
            for a, p in sweep.time_law(state):
                assert isinstance(p, int if rational else float)
                if a is not None and a < first:
                    p *= math.prod(t.zero + t.nonzero for t in sweep.tables[a:first - 1])
                law[a] = p
            assert law.keys() == summed.keys(), state
            for a, p in law.items():
                if rational:
                    assert p == sum(summed[a]), (state, a)
                else:
                    assert p == pytest.approx(math.fsum(summed[a]), rel=0, abs=1e-15), (state, a)

    @pytest.mark.parametrize("process", ["b", "d"])
    @pytest.mark.parametrize("name", ["binom_n3", "varying_n3", "lf_half_n1"])
    def test_float_sweep_matches_uncached_loop(self, name, process):
        # the grouped kernel forms each outcome's mass as the product along
        # its one path of transitions, as a flat sweep that regenerates every
        # transition does, so the tables are equal bit for bit; they may list
        # the outcomes in another order
        env = load_environment(env_path(name))
        tables = verify._eta_tables(env)
        frontier = {((), (0, ()) if process == "b" else None): 1.0}
        done = DistTable()
        while frontier:
            new: dict = {}
            for (a_seq, state), mass in frontier.items():
                for nxt, p in verify._transitions(state, tables, 1.0):
                    mp = mass * p
                    a = nxt[1][0][0] if nxt and nxt[1] else None
                    if mp == 0:
                        continue
                    if a is None:
                        done.add(outcome_key(len(a_seq) + 1, a_seq), mp)
                    else:
                        key = (a_seq + (a,), nxt)
                        new[key] = new.get(key, 0.0) + mp
            frontier = new
            if frontier and sum(frontier.values()) < 1e-14:
                break
        table = exact_chain_law(env, process=process)
        assert dict(table) == dict(done)

    @pytest.mark.parametrize("process", ["b", "d"])
    @pytest.mark.parametrize("name, rational", [
        ("binom_n3", False), ("binom_n3", True), ("varying_n3", False), ("varying_n3", True),
        ("lf_half_n1", False)])
    def test_sparse_transitions_match_dense_reference(self, name, rational, process):
        # every state the sweep reaches, in the order it first reaches them:
        # its transitions under ``dense`` are the dense reference's, in the
        # same order and with bit-equal probabilities (LF laws have no
        # rational mode)
        env = load_environment(env_path(name))
        tables = verify._eta_tables(env.as_rational() if rational else env)
        start = (0, ()) if process == "b" else None
        seen, todo = {start}, [start]
        while todo:
            state = todo.pop(0)
            sparse = list(verify._transitions(state, tables, 1 if rational else 1.0))
            ref = dense_transitions(None if state is None else dense(state), tables)
            assert [(None if nxt is None else dense(nxt), repr(p)) for nxt, p in sparse] \
                == [(nxt, repr(p)) for nxt, p in ref]
            for nxt, _ in sparse:
                if nxt and nxt[1] and nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        assert len(seen) > 3

    def test_tv_of_equal_tables_keeps_its_type(self):
        exact = DistTable({"a": Fraction(1, 3), "b": Fraction(2, 3)})
        zero = tv_distance(exact, DistTable(exact))
        assert zero == 0 and isinstance(zero, Fraction)
        floats = DistTable({"a": 0.25, "b": 0.75})
        zero = tv_distance(floats, DistTable(floats))
        assert zero == 0 and isinstance(zero, float)
        assert tv_distance(DistTable(), DistTable()) == 0.0

    @pytest.mark.parametrize("name", ["binom_n3", "varying_n3", "binom_n6", "lf_half_n1",
                                      "lf_half_n6", "lf_varying_n3", "gapped"])
    def test_numpy_population_law_matches_loop(self, name):
        # the numpy powers against a float loop of the same products, in
        # keys, in values to 1e-15 and in the work the guard counts
        if name == "gapped":
            env = Environment((FiniteSupportLaw((0.5, 0.0, 0.25, 0.0, 0.25)),
                               FiniteSupportLaw((0.25, 0.0, 0.0, 0.75))))
        else:
            env = load_environment(env_path(name))
        for n in range(1, min(2, env.horizon) + 1):
            supports = [verify._offspring_support(law, guard=10**6) for law in env.laws[-n:]]
            ref, work = {1: 1.0}, 0
            for items in supports:
                powers = [{0: 1.0}]
                for _ in range(max(ref)):
                    nxt: dict = {}
                    for s, ps in powers[-1].items():
                        for k, pk in items:
                            work += 1
                            nxt[s + k] = nxt.get(s + k, 0.0) + ps * pk
                    powers.append(nxt)
                mixed: dict = {}
                for z, pz in ref.items():
                    for s, ps in powers[z].items():
                        mixed[s] = mixed.get(s, 0.0) + pz * ps
                ref = mixed
            law = verify._population_law_float(supports, guard=work)
            assert law.keys() == ref.keys()
            assert all(isinstance(p, float) for p in law.values())
            assert max(abs(law[k] - ref[k]) for k in law) <= 1e-15
            with pytest.raises(EnumerationGuardError):
                verify._population_law_float(supports, guard=work - 1)
            if env.is_finite_support:
                exact = exact_population_law(env.shift(env.horizon - n).as_rational(), n)
                assert max(abs(law[k] - float(exact[k])) for k in law) <= 1e-15

    def test_population_law_routes(self, monkeypatch, binom3, lf_varying3):
        # wide (truncated geometric) supports take numpy, narrow ones the loop
        calls = []
        real = verify._population_law_float
        monkeypatch.setattr(verify, "_population_law_float",
                            lambda *args: calls.append(1) or real(*args))
        exact_population_law(binom3, 3)
        exact_population_law(binom3.as_rational(), 3)
        assert calls == []
        exact_population_law(lf_varying3.shift(2), 1)
        assert calls == [1]

    def test_population_guard_counts_products(self, lf_varying3):
        # one product per (reachable sum, support item) pair, as in the loop
        sub = lf_varying3.shift(lf_varying3.horizon - 2)
        exact_population_law(sub, 2, guard=1_747_541)
        with pytest.raises(EnumerationGuardError):
            exact_population_law(sub, 2, guard=1_747_540)


def _edit_outcomes(monkeypatch, edit):
    """Edit the chain's outcome stream at its fourth outcome: add one to its
    mass, drop it (a key on the tree side only), or append a key on the chain
    side only, the history "7," of K = 2 and A = 7.  The public chain law
    reads the same stream, so a reference built from the public tables sees
    the same disagreement."""
    real = verify._chain_outcomes

    def edited(*args, **kwargs):
        dens = {}
        for n, (k, times, mass, den) in enumerate(real(*args, **kwargs)):
            dens[k] = den
            if n == 3 and edit == "drop":
                continue
            yield k, times, mass + (n == 3 and edit == "perturb"), den
        if edit == "extra":
            yield 2, "7,", 5, dens[2]

    monkeypatch.setattr(verify, "_chain_outcomes", edited)


def _reference_check(env):
    """``tree_vs_chain_check`` of an exact environment from the public
    Fraction tables and ``tv_distance``, with the exact gap; only a gap of
    0 passes."""
    tree_law = exact_tree_law(env, guard=2_000_000)
    chain_law = exact_chain_law(env, guard=2_000_000)
    gap = tv_distance(tree_law, chain_law)
    detail = f"outcomes={len(tree_law)} truncation={0.0:.3e} exact_zero={gap == 0}"
    return gap, (float(gap), gap == 0, detail)


# laws with entries of 2**-40: a move of one numerator unit sizes a gap far
# below any float threshold
TINY = Fraction(1, 2**40)
TINY_N3 = Environment((
    FiniteSupportLaw((Fraction(1, 4), Fraction(1, 2) - TINY, Fraction(1, 4) + TINY)),
    FiniteSupportLaw((Fraction(1, 4) + TINY, Fraction(1, 2), Fraction(1, 4) - TINY)),
    FiniteSupportLaw((Fraction(1, 4) - TINY, Fraction(1, 2) + TINY, Fraction(1, 4))),
))
# the youngest law has no death, so that u is 0 at level 1 as at level 0
NO_DEATH_N3 = Environment((
    FiniteSupportLaw((Fraction(1, 4), Fraction(0), Fraction(1, 2), Fraction(1, 4))),
    FiniteSupportLaw((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))),
    FiniteSupportLaw((Fraction(0), Fraction(1, 2), Fraction(1, 2))),
))


def _move_unit(monkeypatch, state=(0, ())):
    """Move one numerator unit of the b chain's transitions out of ``state``
    from its second move of positive mass to its first."""
    real = verify._Sweep.transitions

    def moved(self, at):
        out = list(real(self, at))
        if at == state:
            i, j = [n for n, (_, _, p) in enumerate(out) if p][:2]
            out[i] = (*out[i][:2], out[i][2] + 1)
            out[j] = (*out[j][:2], out[j][2] - 1)
        return out

    monkeypatch.setattr(verify._Sweep, "transitions", moved)


def _mutate_tree_weight(monkeypatch):
    """Add 1 to the first move of the first start state of the tree
    automaton that has a move, in residues."""
    real = verify.tree_automaton

    def mutated(env, prime=None, charge=lambda units: None):
        start, moves, end = real(env, prime, charge)
        state = next(s for s in start if moves[s])
        a, nxt, w = moves[state][0]
        moves[state][0] = (a, nxt, (w + 1) % prime)
        return start, moves, end

    monkeypatch.setattr(verify, "tree_automaton", mutated)


def _words(automaton):
    """The word law of an automaton with ``Fraction`` weights, keyed as the
    public tables are: every word of positive weight, by a walk over the
    forward vectors of the words, in integers over a common denominator."""
    start, moves, end = automaton
    weights = [*start.values(), *end.values(), *(w for out in moves.values() for _, _, w in out)]
    den = math.lcm(*(Fraction(w).denominator for w in weights))

    def num(w):
        return int(w * den)

    moves = {s: [(a, nxt, num(w)) for a, nxt, w in out] for s, out in moves.items()}
    end = {s: num(w) for s, w in end.items()}
    law = {}
    todo = [({s: num(w) for s, w in start.items()}, [], den)]
    while todo:
        vec, word, scale = todo.pop()
        weight = sum(x * end[s] for s, x in vec.items())
        if weight:
            law[outcome_key(len(word) + 1, word)] = Fraction(weight, scale * den)
        nexts: dict = {}
        for s, x in vec.items():
            for a, nxt, w in moves[s]:
                into = nexts.setdefault(a, {})
                into[nxt] = into.get(nxt, 0) + x * w
        todo.extend((vec, [*word, a], scale * den) for a, vec in nexts.items())
    return law


def _is_prime(n):
    """Miller-Rabin on the first twelve primes, deterministic below 3.3e24."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class TestIntegerCertificate:
    """The rational tree-vs-chain check compares the tree and b chain
    automata; it must report what ``tv_distance`` reports on the public
    Fraction tables, and sizes a gap by the integer-numerator enumeration."""

    @pytest.mark.parametrize("name", sorted(EXACT_ENVS))
    def test_matches_fraction_tables(self, name):
        env = EXACT_ENVS[name]().as_rational()
        gap, expected = _reference_check(env)
        res = tree_vs_chain_check(env)
        assert (res.metric, res.passed, res.detail) == expected
        assert res.name == "tree-vs-chain-tv-rational" and gap == 0 and res.threshold == 0

    @pytest.mark.parametrize("edit", ["perturb", "drop", "extra"])
    def test_disagreement_is_exact(self, monkeypatch, varying3, edit):
        # the edits reach the outcome stream of the enumeration that sizes a
        # gap, which the automata do not read
        _edit_outcomes(monkeypatch, edit)
        exact = varying3.as_rational()
        gap, (metric, passed, detail) = _reference_check(exact)
        assert isinstance(gap, Fraction) and gap > 0 and not passed
        outcomes = int(detail.split()[0].removeprefix("outcomes="))
        assert verify._tree_chain_gap(exact, 2_000_000) == (gap, outcomes, 0.0)

    def test_no_fraction_per_outcome(self, monkeypatch):
        # only the public tables form a Fraction for each outcome; what is
        # left is the exact laws' and eta tables' own arithmetic
        made = [0]
        real = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made[0] += 1
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        res = tree_vs_chain_check(FULL_SUPPORT_N3)
        assert res.detail.startswith("outcomes=60879 ") and made[0] < 1000

    @pytest.mark.parametrize("name", sorted(EXACT_ENVS))
    def test_no_enumeration_when_automata_agree(self, monkeypatch, name):
        env = EXACT_ENVS[name]().as_rational()

        def refuse(*args):
            raise AssertionError("enumerated")

        monkeypatch.setattr(verify, "_tree_numerators", refuse)
        monkeypatch.setattr(verify, "_chain_outcomes", refuse)
        res = tree_vs_chain_check(env)
        assert res.passed and res.metric == 0

    def test_guard_falls_back_to_enumeration(self, monkeypatch, varying3):
        # the automata and their span checks take 792 units here, the
        # enumeration 89 (the b sweep; the tree takes 73): below 792 the line
        # enumerates, and raises where the enumeration raises
        exact = varying3.as_rational()
        assert verify._automata_verdict(exact, 791) is None
        assert tree_vs_chain_check(exact, guard=89).passed
        with pytest.raises(EnumerationGuardError):
            tree_vs_chain_check(exact, guard=88)
        monkeypatch.setattr(verify, "_tree_numerators", None)
        assert tree_vs_chain_check(exact, guard=792).passed

    def test_tree_moves_charged_before_built(self, monkeypatch):
        # thirty-two entries of 1/32 at each of three levels: the tree
        # automaton's 14 328 510 moves pass the guard before any is built,
        # and before the chain's tables are formed; the line then
        # enumerates, which raises
        env = constant_environment(FiniteSupportLaw((1 / 32,) * 32), 3)
        charged = []

        def charge(units):
            charged.append(units)
            if sum(charged) > 2_000_000:
                raise EnumerationGuardError("past the guard")

        monkeypatch.setattr(automata, "itertools", None)  # no state is built
        with pytest.raises(EnumerationGuardError):
            automata.tree_automaton(env.as_rational(), automata.PRIMES[0], charge)
        assert charged == [31, 31**2, 31**3, 14_328_510]
        monkeypatch.setattr(verify, "_eta_tables", None)
        assert verify._automata_verdict(env.as_rational(), 2_000_000) is None
        monkeypatch.undo()
        with pytest.raises(EnumerationGuardError):
            tree_vs_chain_check(env)

    @pytest.mark.parametrize("name", [*sorted(EXACT_ENVS), "no_death"])
    def test_tree_moves_charged_are_built(self, name):
        # the moves' count matches the moves built, in residues and in
        # Fractions, also where a law without death makes u 0 above level 0
        env = NO_DEATH_N3 if name == "no_death" else EXACT_ENVS[name]().as_rational()
        for prime in (None, *automata.PRIMES):
            charged = []
            _, moves, _ = automata.tree_automaton(env, prime, charged.append)
            assert len(charged) == env.horizon + 1
            assert charged[-1] == sum(map(len, moves.values()))

    @pytest.mark.parametrize("name", sorted(EXACT_ENVS))
    def test_tree_automaton_is_tree_law(self, name):
        env = EXACT_ENVS[name]().as_rational()
        tree_law = exact_tree_law(env)
        assert _words(automata.tree_automaton(env)) == tree_law
        sweep = verify._Sweep(env, "b", 2_000_000, "")
        assert automata.word_count(verify._chain_automaton(sweep)) == len(tree_law)

    def test_primes_are_prime(self):
        assert all(map(_is_prime, automata.PRIMES)) and len(set(automata.PRIMES)) == 2
        assert not _is_prime(2**61 + 1) and not _is_prime(561)

    @pytest.mark.parametrize("name", [*sorted(EXACT_ENVS), "tiny_n3"])
    def test_moved_unit_fails(self, monkeypatch, name):
        env = TINY_N3 if name == "tiny_n3" else EXACT_ENVS[name]().as_rational()
        _move_unit(monkeypatch)
        gap, expected = _reference_check(env)
        assert gap > 0
        res = tree_vs_chain_check(env)
        assert (res.metric, res.passed, res.detail) == expected
        if name == "tiny_n3":  # within the float line's threshold of 1e-10
            assert 0 < res.metric < 1e-40

    @pytest.mark.parametrize("name", ["binom_n3", "varying_n3"])
    def test_mutated_tree_weight_fails(self, monkeypatch, name):
        env = EXACT_ENVS[name]().as_rational()
        _mutate_tree_weight(monkeypatch)
        gap, (metric, _, detail) = _reference_check(env)
        res = tree_vs_chain_check(env)
        assert (res.metric, res.passed, res.detail) == (metric, False, detail)
        assert gap == 0


# a law that is not dyadic: its binary values do not sum to exactly 1, so the
# environment has no exact form and its float line enumerates
NON_DYADIC_N3 = constant_environment(FiniteSupportLaw((0.1, 0.3, 0.6)), 3)
FLOAT_ENVS = {
    "binom_n3": lambda: load_environment(env_path("binom_n3")),
    "varying_n3": lambda: load_environment(env_path("varying_n3")),
    "lf_half_n1": lambda: load_environment(env_path("lf_half_n1")),
    "full_support_n3": lambda: FULL_SUPPORT_N3_FLOAT,
    "non_dyadic_n3": lambda: NON_DYADIC_N3,
}
# the float environments that have an exact form
DYADIC_FLOAT_ENVS = ("binom_n3", "full_support_n3", "varying_n3")


def _float_reference_check(env):
    """``tree_vs_chain_check`` in floats from the public tables and
    ``tv_distance``.  Finite supports are complete, so there is no slack;
    otherwise the slack is the tables' summed truncated mass."""
    tree_law = exact_tree_law(env, guard=2_000_000)
    chain_law = exact_chain_law(env, guard=2_000_000)
    gap = tv_distance(tree_law, chain_law)
    extra = 0.0
    if not env.is_finite_support:
        extra = tree_law.truncated_mass + chain_law.truncated_mass
    detail = f"outcomes={len(tree_law)} truncation={extra:.3e} exact_zero={gap == 0}"
    return gap, (float(gap), float(gap) <= 1e-10 + extra, detail)


class TestFloatCertificate:
    """The float tree-vs-chain check of a dyadic environment compares the
    automata of its exact form and reads a gap of 0 where they agree.
    Without an exact form it streams the chain's outcomes against the
    tree's masses; it must then report what ``tv_distance`` reports on the
    public float tables, bit for bit where the terms' sum does not depend on
    their order."""

    @pytest.mark.parametrize("name", sorted(FLOAT_ENVS))
    def test_matches_public_tables(self, monkeypatch, name):
        env = FLOAT_ENVS[name]()
        gap, expected = _float_reference_check(env)
        if name in DYADIC_FLOAT_ENVS:
            # the public tables agree within the threshold, and the automata
            # settle the line with no tree enumeration
            assert expected[1] and gap <= 1e-10
            outcomes = expected[2].split()[0]
            expected = (0.0, True, f"{outcomes} truncation=0.000e+00 exact_zero=True")

            def refuse(*args):
                raise AssertionError("enumerated")

            monkeypatch.setattr(verify, "_tree_numerators", refuse)
        else:
            with pytest.raises(EnvFormatError):
                env.as_rational()
        res = tree_vs_chain_check(env)
        assert (res.metric, res.passed, res.detail) == expected
        assert res.name == "tree-vs-chain-tv-float" and res.passed

    @pytest.mark.parametrize("edit", ["perturb", "drop", "extra"])
    def test_disagreement_matches_public_tables(self, monkeypatch, edit):
        # the streamed check adds its terms one by one in outcome order,
        # while ``tv_distance`` rounds their exact sum once (``math.fsum``);
        # with one large term next to rounding-sized ones the last bits can
        # differ (perturb: 0.5 against 0.5000000000000001), so the metric is
        # held to the rounding bound of n nonnegative terms, 2 n 2**-53 of
        # their sum.  The environment has no exact form, so the edits reach
        # the line.
        env = NON_DYADIC_N3
        _edit_outcomes(monkeypatch, edit)
        gap, (metric, passed, detail) = _float_reference_check(env)
        assert gap > 0
        res = tree_vs_chain_check(env)
        n = len(set(exact_tree_law(env)) | set(exact_chain_law(env)))
        assert res.metric == pytest.approx(metric, rel=2 * n * 2**-53, abs=0)
        assert (res.passed, res.detail) == (passed, detail)
        # a finite-support env has no slack to absorb the edit: dropping an
        # outcome of mass 0.011 fails too
        assert not res.passed and "truncation=0.000e+00" in res.detail

    @pytest.mark.parametrize("name", ["binom_n3", "varying_n3"])
    def test_moved_unit_fails(self, monkeypatch, name):
        # one numerator unit of the exact form's start transitions moves,
        # so the automata differ
        env = FLOAT_ENVS[name]()
        _move_unit(monkeypatch)
        assert verify._automata_verdict(env.as_rational(), 2_000_000) == 0
        res = tree_vs_chain_check(env)
        assert res.name == "tree-vs-chain-tv-float" and not res.passed

    @pytest.mark.parametrize("name", ["binom_n3", "varying_n3"])
    def test_mutated_tree_weight_fails(self, monkeypatch, name):
        # the enumeration never reads the tree automaton: it sizes a gap
        # within the threshold, and the line fails on the automata's verdict
        env = FLOAT_ENVS[name]()
        _mutate_tree_weight(monkeypatch)
        gap, (metric, passed, detail) = _float_reference_check(env)
        res = tree_vs_chain_check(env)
        assert passed and gap <= 1e-10
        assert (res.metric, res.passed, res.detail) == (metric, False, detail)

    def test_guard_falls_back_to_enumeration(self, monkeypatch, capsys, varying3):
        # the automata of the exact form and their span checks take 792
        # units; below that the line enumerates, so plain verify passes from
        # the enumeration's 89 units up and exits 4 below, as the
        # enumeration alone did
        argv = ["verify", "--env", env_path("varying_n3"), "--guard"]
        assert verify._automata_verdict(varying3.as_rational(), 791) is None
        assert main([*argv, "89"]) == EXIT_OK
        assert main([*argv, "88"]) == EXIT_GUARD
        capsys.readouterr()
        monkeypatch.setattr(verify, "_tree_numerators", None)
        assert main([*argv, "792"]) == EXIT_OK
        assert "PASS tree-vs-chain-tv-float metric=0.000e+00" in capsys.readouterr().out

    def test_lf_slack_is_truncated_mass(self):
        # geometric tails are cut, so an lf env keeps the tables' leak as slack
        env = FLOAT_ENVS["lf_half_n1"]()
        res = tree_vs_chain_check(env)
        tree_law, chain_law = exact_tree_law(env), exact_chain_law(env)
        extra = tree_law.truncated_mass + chain_law.truncated_mass
        assert extra > 0 and f"truncation={extra:.3e}" in res.detail

    def test_no_outcome_key_text(self, monkeypatch, varying3):
        # neither mode forms the public tables' string keys, whether the
        # automata settle the line or the outcomes are enumerated
        def refuse(*args):
            raise AssertionError("outcome_key called")

        monkeypatch.setattr(verify, "outcome_key", refuse)
        for env in (varying3, varying3.as_rational(), NON_DYADIC_N3):
            res = tree_vs_chain_check(env)
            assert res.passed, res.detail
            with mock.patch.object(verify, "_automata_verdict", return_value=None):
                res = tree_vs_chain_check(env)
            assert res.passed, res.detail


def _dyadic_counts(cuts):
    """The sixteenths between sorted cut points of [0, 16]: a law's counts."""
    edges = [0, *sorted(cuts), 16]
    return tuple(b - a for a, b in zip(edges, edges[1:]))


# pmf envs of horizon 1-3 and widths 1-4 in sixteenths, zero entries
# included (a width-1 law never has children, so about half of them cannot
# survive); horizon-1 lf envs, whose supports run to hundreds of counts
DYADIC_ENVS = st.lists(
    st.integers(0, 3).flatmap(lambda n: st.lists(st.integers(0, 16), min_size=n, max_size=n))
    .map(lambda cuts: FiniteSupportLaw(tuple(c / 16 for c in _dyadic_counts(cuts)))),
    min_size=1, max_size=3).map(lambda laws: Environment(tuple(laws)))
LF_N1_ENVS = st.builds(lambda r, p: Environment((LinearFractionalLaw(r, p),)),
                       st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                       st.sampled_from([0.05, 0.3, 0.5, 0.9]))


def _pattern_outcome(key):
    """(K, times text) of a tree pattern's key: its history text, or at
    horizon 1, where every time is 1, K itself."""
    if isinstance(key, int):
        return key, ",".join(["1"] * (key - 1))
    return key.count(",") + 1, key[:-1]


def _outcome_or_error(numerators, env, guard):
    try:
        return numerators(env, guard)
    except (EnumerationGuardError, DegenerateEnvironmentError) as exc:
        return type(exc)


@settings(derandomize=True, max_examples=250, deadline=None)
@given(env=st.one_of(DYADIC_ENVS, LF_N1_ENVS))
@example(env=Environment((FiniteSupportLaw((1 / 16, 3 / 16, 5 / 16, 7 / 16)),) * 3))
@example(env=Environment((FiniteSupportLaw((0.3, 0.3, 0.4)), FiniteSupportLaw((0.1, 0.2, 0.7)),
                          FiniteSupportLaw((0.2, 0.5, 0.3)))))
def test_prefix_extension_matches_loop_reference(env):
    """The tree's patterns, built by prefix extension and keyed by history
    text (by K at horizon 1), equal the product loop's: the same outcomes
    in the same order, bit-equal masses, dead and surviving mass, and the
    same smallest passing guard, in floats and for the exact form of the environment
    (lf laws have none).  Dyadic masses multiply exactly, so the order of
    each product shows only on the non-dyadic example, which has no exact
    form either."""
    forms = [env]
    if env.is_finite_support:
        try:
            forms.append(env.as_rational())
        except EnvFormatError:  # the non-dyadic example
            pass
    for form in forms:
        # the full-support example needs more than 20 000 combinations
        ref = _outcome_or_error(loop_tree_numerators, form, 20_000)
        new = _outcome_or_error(verify._tree_numerators, form, 20_000)
        if isinstance(ref, type):
            assert new is ref
            continue
        patterns, dead, alive, work = ref
        got, got_dead, got_alive = new
        assert [(_pattern_outcome(t), repr(p)) for t, p in got.items()] \
            == [(key, repr(p)) for key, p in patterns.items()]
        assert (repr(got_dead), repr(got_alive)) == (repr(dead), repr(alive))
        verify._tree_numerators(form, work)
        with pytest.raises(EnumerationGuardError):
            verify._tree_numerators(form, work - 1)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(env=DYADIC_ENVS)
@example(env=Environment((FiniteSupportLaw((0.25, 0.0, 0.75)), FiniteSupportLaw((0.5, 0.5)),
                          FiniteSupportLaw((0.0, 0.25, 0.25, 0.5)))))
def test_automata_match_enumeration(env):
    """The rational line settled by the automata reports what the
    enumeration route reports, or raises what it raises: the same metric,
    verdict and detail, on envs that cannot survive too.  So does the float
    line, which reads the same verdict."""
    exact = env.as_rational()

    def line(form=exact):
        try:
            res = tree_vs_chain_check(form)
        except (EnumerationGuardError, DegenerateEnvironmentError) as exc:
            return type(exc)
        return res.metric, res.passed, res.detail

    fast = line()
    with mock.patch.object(verify, "_automata_verdict", return_value=None):
        assert line() == fast
        slow = line(env)
    if not isinstance(fast, type):
        assert verify._automata_verdict(exact, 2_000_000) > 0
    # the float line reads the verdict of the same exact form; enumerated, it
    # passes with the same outcomes or raises the same error
    assert line(env) == fast
    if isinstance(fast, type):
        assert slow is fast
    else:
        assert slow[1] and slow[2].split()[0] == fast[2].split()[0]


ONE_LEVEL_ENVS = {
    "lf_half": Environment((LinearFractionalLaw(0.5, 0.5),)),
    "lf_r1_p004": Environment((LinearFractionalLaw(1.0, 0.04),)),
    "lf_r03_p09": Environment((LinearFractionalLaw(0.3, 0.9),)),
    "pmf_gap": Environment((FiniteSupportLaw((0.25, 0.0, 0.5, 0.25)),)),
    "pmf_gap_exact": Environment((FiniteSupportLaw((0.25, 0.0, 0.5, 0.25)),)).as_rational(),
    "pmf_no_death": Environment((FiniteSupportLaw((0.0, 0.5, 0.5)),)),
    "pmf_non_dyadic": Environment((FiniteSupportLaw((0.1, 0.2, 0.3, 0.4)),)),
    "pmf_rare": Environment((FiniteSupportLaw((1 - 2**-40, 2**-41, 2**-41)),)),
}


class TestOneLevel:
    """At horizon 1 the chain's runs are read off the level-1 eta table."""

    @pytest.mark.parametrize("process", ["b", "d"])
    @pytest.mark.parametrize("name", sorted(ONE_LEVEL_ENVS))
    def test_outcomes_match_the_lockstep_sweep(self, name, process):
        # the same runs in the same order, bit-equal masses, and the float
        # sweep's stop at less than 1e-14 still going
        env = ONE_LEVEL_ENVS[name]
        got = list(verify._chain_outcomes(env, process, 2_000_000))
        ref = list(lockstep_chain_outcomes(env, process, 2_000_000))
        assert [(k, hist, repr(mass), den) for k, hist, mass, den in got] \
            == [(k, hist, repr(mass), den) for k, hist, mass, den in ref]

    def test_rare_death_passes(self):
        # about 3 000 runs, each a single line of times 1: the lockstep
        # sweep carried them all and passed its 2 000 000 transitions
        env = Environment((LinearFractionalLaw(1.0, 0.01),))
        results = run_verify_suite(env)
        assert all(res.passed for res in results), [r.detail for r in results]
        assert results[1].detail.startswith("outcomes=2979 ")


    def test_tree_keys_grow_linearly_with_the_support(self):
        # keyed by K, not by K - 1 times "1,", the tree's outcomes hold
        # memory linear in the geometric support, which doubles from p =
        # 0.01 to 0.005
        def peak(p):
            tracemalloc.start()
            try:
                res = tree_vs_chain_check(Environment((LinearFractionalLaw(1.0, p),)))
                return tracemalloc.get_traced_memory()[1], res
            finally:
                tracemalloc.stop()

        (small, res_small), (large, res_large) = peak(0.01), peak(0.005)
        assert res_small.passed and res_large.passed
        assert res_large.detail.startswith("outcomes=5972 ")
        assert large < 2.5 * small


class TestLfSupportGuard:
    @pytest.mark.parametrize("r, p", [(1.0, 0.5), (0.75, 0.5), (0.9, 0.2), (1.0, 1e-3)])
    def test_smallest_passing_guard_is_item_count(self, r, p):
        law = LinearFractionalLaw(r, p)
        items = verify._offspring_support(law, guard=10**6)
        assert verify._offspring_support(law, guard=len(items)) == items
        with pytest.raises(EnumerationGuardError):
            verify._offspring_support(law, guard=len(items) - 1)

    def test_long_tail_raises_before_building(self):
        # 1e-8 would need about 3e9 items
        law = LinearFractionalLaw(1.0, 1e-8)
        for guard in (5, 2_000_000, 10_000_000):
            with pytest.raises(EnumerationGuardError):
                verify._offspring_support(law, guard=guard)
        with pytest.raises(EnumerationGuardError):
            exact_population_law(Environment((law,)), 1, guard=10_000_000)


def _mc_witness_by_trees(env, witness, samples, seed):
    """``mc_witness_check`` as a loop over fully built trees."""
    keys = sorted(set(witness.law_a) | set(witness.law_b))
    z_key = max(keys, key=lambda k: (abs(witness.law_a.get(k, 0.0) - witness.law_b.get(k, 0.0)), k))
    i = witness.step_index
    stream = verify.as_stream(seed)
    hits, z_hits = [0, 0], [0, 0]
    targets = {witness.history_a: 0, witness.history_b: 1}
    for _ in range(samples):
        tree = simulate_tree(env, stream)
        if tree.k < i + 1:
            continue
        state, seq = (), []
        for a_i, mult in zip(*cpp_and_marks(tree, upto=i + 1)):
            state = verify.bt_update(state, a_i, mult)
            seq.append(state)
        x = seq[i - 2] if i >= 2 else ()
        if seq[i - 1] != witness.shared_state or x not in targets:
            continue
        hits[targets[x]] += 1
        if (encode_bt(seq[i]) if len(seq) > i else TERM_KEY) == z_key:
            z_hits[targets[x]] += 1
    return hits, z_hits


class TestMcWitnessOnCounts:
    def test_same_samples_as_built_trees(self):
        env = load_environment(env_path("binom_n5"))
        w = btilde_witness_search(env)
        rep = mc_witness_check(env, w, samples=20_000, seed=7)
        assert isinstance(rep, McWitnessReport)
        hits, z_hits = _mc_witness_by_trees(env, w, 20_000, 7)
        assert [rep.hits_a, rep.hits_b] == hits
        assert rep.freq_a == z_hits[0] / hits[0] and rep.freq_b == z_hits[1] / hits[1]

    def test_dead_draws_build_no_tree(self, monkeypatch):
        env = load_environment(env_path("binom_n5"))
        w = btilde_witness_search(env)
        built = []
        real = verify.Tree

        def counting(env, counts):
            built.append(sum(counts[-1]))
            return real(env, counts)

        monkeypatch.setattr(verify, "Tree", counting)
        mc_witness_check(env, w, samples=2_000, seed=7)
        assert built and min(built) >= w.step_index + 1
