import json
from fractions import Fraction

import pytest

from gwcoal import (
    DistTable,
    Environment,
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
    lf_closed_form_checks,
    lf_iid_check,
    load_environment,
    mc_witness_check,
    outcome_key,
    parse_outcome,
    run_verify_suite,
    tree_vs_chain_check,
    tv_distance,
)
from gwcoal.errors import (
    DegenerateEnvironmentError,
    DomainError,
    EnumerationGuardError,
    NotLinearFractionalError,
)
from gwcoal.pgf import LevelTable
from gwcoal.verify import a1_telescoping_check, chain_step_laws, encode_bt

from conftest import ENVS, env_path

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
        assert parse_outcome("K=3;A=1,2") == (3, (1, 2))
        assert parse_outcome("K=1;A=") == (1, ())
        with pytest.raises(DomainError):
            parse_outcome("garbage")

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


class TestExactTreeLaw:
    def test_hand_table(self, binom2_exact):
        table = exact_tree_law(binom2_exact, rational=True)
        assert dict(table) == HAND_TABLE_N2
        assert table.truncated_mass == 0.0

    def test_float_agrees_with_exact(self, binom2):
        table = exact_tree_law(binom2)
        for key, frac in HAND_TABLE_N2.items():
            assert table[key] == pytest.approx(float(frac), abs=1e-14)

    def test_dirac_tree(self):
        env = constant_environment(dirac(2), 2)
        table = exact_tree_law(env, rational=True)
        assert table == {"K=4;A=1,2,1": 1}

    def test_always_dies(self):
        env = constant_environment(dirac(0), 2)
        with pytest.raises(DegenerateEnvironmentError):
            exact_tree_law(env)

    def test_guard_trips(self, binom3):
        with pytest.raises(EnumerationGuardError):
            exact_tree_law(binom3, guard=10)

    def test_support_cap(self, binom3, lf_half_n1):
        with pytest.raises(EnumerationGuardError):
            exact_tree_law(binom3, max_support=1)
        with pytest.raises(EnumerationGuardError):
            exact_tree_law(lf_half_n1, max_support=5)
        exact_tree_law(binom3, max_support=2)


class TestExactChainLaw:
    def test_matches_tree_law_exactly(self, binom3, varying3):
        for env in (binom3, varying3):
            tree = exact_tree_law(env, rational=True)
            for process in ("b", "d"):
                chain = exact_chain_law(env, rational=True, process=process)
                assert tv_distance(tree, chain) == 0

    def test_float_mode_close(self, varying3):
        tree = exact_tree_law(varying3)
        chain = exact_chain_law(varying3)
        assert float(tv_distance(tree, chain)) < 1e-12

    def test_bad_process(self, binom3):
        with pytest.raises(ValueError):
            exact_chain_law(binom3, process="x")

    def test_check_wrapper(self, varying3):
        res = tree_vs_chain_check(varying3, rational=True)
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
        rep = figure1_consistency()
        assert rep.passed
        assert rep.mismatches == []
        assert rep.derived_a == (1, 2, 1, 2, 1, 1, 4, 3, 5, 1, 4)
        assert rep.derived_l == (1, 2, 2, 2, 2, 2, 4, 4, 5, 5, 5)

    def test_reduced_states_integer_equality(self):
        rep = figure1_consistency()
        assert rep.derived_btilde[0] == ((1, 1),)
        assert rep.derived_btilde[2] == ((1, 1), (2, 1))
        assert rep.derived_btilde[10] == ((4, 1),)


class TestIndependence:
    def test_lf_factorizes(self, lf_varying3):
        rep = lf_iid_check(lf_varying3)
        assert rep.passed
        assert rep.tv_joint_vs_product < 1e-8 + rep.truncation_bound
        assert rep.tv_marginal_vs_closed_form < 1e-8 + rep.truncation_bound

    def test_non_lf_control(self, binom2):
        # hand value: conditioned on three or more survivors the joint puts
        # 3/5 on (1,2) and 2/5 on (2,1); the product table spreads over four
        # cells and the distance is 12/25
        gap = factorization_gap(binom2)
        assert gap == pytest.approx(12 / 25, abs=1e-12)
        assert gap > 0.001

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

    def test_check_result_serializes(self, varying3):
        res = tree_vs_chain_check(varying3)
        doc = json.loads(res.to_json())
        assert doc["name"] == "tree-vs-chain-tv-float"
        assert doc["passed"] is True

    def test_witness_reported_in_suite(self):
        env = load_environment(env_path("binom_n5"))
        results = run_verify_suite(env, witness=True)
        names = [r.name for r in results]
        assert "reduced-sequence-witness" in names
        witness_res = results[names.index("reduced-sequence-witness")]
        assert witness_res.passed
        assert witness_res.metric > 0.01
