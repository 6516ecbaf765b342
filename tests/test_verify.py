import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

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
    NotLinearFractionalError,
)
from gwcoal import verify
from gwcoal.chains import dense
from gwcoal.disttable import outcome_key, parse_outcome
from gwcoal.environment import LevelTable
from gwcoal.tree import cpp_and_marks, simulate_tree
from gwcoal.verify import (
    TERM_KEY,
    McWitnessReport,
    a1_telescoping_check,
    chain_step_laws,
    encode_bt,
)

from conftest import ENVS, dense_transitions, env_path

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
        for process in ("b", "d"):
            table = exact_chain_law(env, rational=True, process=process)
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
    env = EXACT_ENVS[request.param]()
    laws = {
        "tree": exact_tree_law(env, rational=True),
        "b": exact_chain_law(env, rational=True, process="b"),
        "d": exact_chain_law(env, rational=True, process="d"),
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
        def run(guard):
            if route == "tree":
                return exact_tree_law(varying3, guard=guard, rational=rational)
            return exact_chain_law(varying3, guard=guard, rational=rational, process=route)

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

    @pytest.mark.parametrize("process", ["b", "d"])
    def test_transitions_generated_once_per_state(self, monkeypatch, varying3, process):
        real = verify._transitions
        calls: dict = {}

        def counting(state, tables):
            calls[state] = calls.get(state, 0) + 1
            return real(state, tables)

        monkeypatch.setattr(verify, "_transitions", counting)
        for rational in (False, True):
            calls.clear()
            exact_chain_law(varying3, rational=rational, process=process)
            assert calls and set(calls.values()) == {1}
        calls.clear()
        chain_step_laws(varying3, process=process, max_steps=5)
        assert calls and set(calls.values()) == {1}
        if process == "d":
            calls.clear()
            btilde_witness_search(load_environment(env_path("binom_n5")))
            assert calls and set(calls.values()) == {1}

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
                for nxt, p in verify._transitions(state, tables):
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
        tables = verify._eta_tables(load_environment(env_path(name)), rational)
        start = (0, ()) if process == "b" else None
        seen, todo = {start}, [start]
        while todo:
            state = todo.pop(0)
            sparse = list(verify._transitions(state, tables))
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
    side only.  The public chain law reads the same stream, so a reference
    built from the public tables sees the same disagreement."""
    real = verify._chain_outcomes

    def edited(*args, **kwargs):
        dens = {}
        for n, (k, times, mass, den) in enumerate(real(*args, **kwargs)):
            dens[k] = den
            if n == 3 and edit == "drop":
                continue
            yield k, times, mass + (n == 3 and edit == "perturb"), den
        if edit == "extra":
            yield 2, "7", 5, dens[2]

    monkeypatch.setattr(verify, "_chain_outcomes", edited)


def _reference_check(env):
    """``tree_vs_chain_check(rational=True)`` from the public Fraction
    tables and ``tv_distance``, with the exact gap."""
    tree_law = exact_tree_law(env, rational=True, guard=2_000_000)
    chain_law = exact_chain_law(env, rational=True, guard=2_000_000)
    gap = tv_distance(tree_law, chain_law)
    detail = f"outcomes={len(tree_law)} truncation={0.0:.3e} exact_zero={gap == 0}"
    return gap, (float(gap), float(gap) <= 1e-10, detail)


class TestIntegerCertificate:
    """The rational tree-vs-chain check compares integer numerators; it must
    report what ``tv_distance`` reports on the public Fraction tables."""

    @pytest.mark.parametrize("name", sorted(EXACT_ENVS))
    def test_matches_fraction_tables(self, name):
        env = EXACT_ENVS[name]()
        gap, expected = _reference_check(env)
        res = tree_vs_chain_check(env, rational=True)
        assert (res.metric, res.passed, res.detail) == expected
        assert res.name == "tree-vs-chain-tv-rational" and gap == 0

    @pytest.mark.parametrize("edit", ["perturb", "drop", "extra"])
    def test_disagreement_is_exact(self, monkeypatch, varying3, edit):
        _edit_outcomes(monkeypatch, edit)
        gap, expected = _reference_check(varying3)
        assert isinstance(gap, Fraction) and gap > 0
        res = tree_vs_chain_check(varying3, rational=True)
        assert (res.metric, res.passed, res.detail) == expected
        assert "exact_zero=False" in res.detail
        assert verify._tree_chain_gap(varying3, 2_000_000, True)[0] == gap

    def test_no_fraction_per_outcome(self, monkeypatch):
        # only the public tables form a Fraction for each outcome; what is
        # left is the exact laws' and eta tables' own arithmetic
        made = [0]
        real = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made[0] += 1
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        res = tree_vs_chain_check(FULL_SUPPORT_N3, rational=True)
        assert res.detail.startswith("outcomes=60879 ") and made[0] < 1000


FLOAT_ENVS = {
    "binom_n3": lambda: load_environment(env_path("binom_n3")),
    "varying_n3": lambda: load_environment(env_path("varying_n3")),
    "lf_half_n1": lambda: load_environment(env_path("lf_half_n1")),
    "full_support_n3": lambda: FULL_SUPPORT_N3_FLOAT,
}


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
    """The float tree-vs-chain check streams the chain's outcomes against the
    tree's masses; it must report what ``tv_distance`` reports on the public
    float tables, bit for bit where the terms' sum does not depend on their
    order."""

    @pytest.mark.parametrize("name", sorted(FLOAT_ENVS))
    def test_matches_public_tables(self, name):
        env = FLOAT_ENVS[name]()
        _, expected = _float_reference_check(env)
        res = tree_vs_chain_check(env)
        assert (res.metric, res.passed, res.detail) == expected
        assert res.name == "tree-vs-chain-tv-float" and res.passed

    @pytest.mark.parametrize("edit", ["perturb", "drop", "extra"])
    def test_disagreement_matches_public_tables(self, monkeypatch, varying3, edit):
        # the streamed check adds its terms one by one in outcome order,
        # while ``tv_distance`` rounds their exact sum once (``math.fsum``);
        # with one large term next to rounding-sized ones the last bits can
        # differ (perturb: 0.5 against 0.5000000000000001), so the metric is
        # held to the rounding bound of n nonnegative terms, 2 n 2**-53 of
        # their sum
        _edit_outcomes(monkeypatch, edit)
        gap, (metric, passed, detail) = _float_reference_check(varying3)
        assert gap > 0
        res = tree_vs_chain_check(varying3)
        n = len(set(exact_tree_law(varying3)) | set(exact_chain_law(varying3)))
        assert res.metric == pytest.approx(metric, rel=2 * n * 2**-53, abs=0)
        assert (res.passed, res.detail) == (passed, detail)
        # a finite-support env has no slack to absorb the edit: dropping an
        # outcome of mass 0.028 fails too
        assert not res.passed and "truncation=0.000e+00" in res.detail

    def test_lf_slack_is_truncated_mass(self):
        # geometric tails are cut, so an lf env keeps the tables' leak as slack
        env = FLOAT_ENVS["lf_half_n1"]()
        res = tree_vs_chain_check(env)
        tree_law, chain_law = exact_tree_law(env), exact_chain_law(env)
        extra = tree_law.truncated_mass + chain_law.truncated_mass
        assert extra > 0 and f"truncation={extra:.3e}" in res.detail

    def test_no_outcome_key_text(self, monkeypatch, varying3):
        # neither mode forms the public tables' string keys
        def refuse(*args):
            raise AssertionError("outcome_key called")

        monkeypatch.setattr(verify, "outcome_key", refuse)
        for rational in (False, True):
            res = tree_vs_chain_check(varying3, rational=rational)
            assert res.passed, res.detail


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
