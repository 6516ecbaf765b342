from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gwcoal import (
    ChainRun,
    Cpp,
    Environment,
    FiniteSupportLaw,
    LinearFractionalLaw,
    Tree,
    ancestor_index,
    b_run,
    coalescent_times,
    condition_on_survival,
    constant_environment,
    cpp_and_marks,
    d_run,
    dirac,
    dump_tree,
    extract_B,
    extract_Btilde,
    extract_D,
    genealogy_from_cpp,
    load_environment,
    simulate_tree,
    stream_for_run,
    validate_b_run,
)
from gwcoal.errors import (
    AttemptCapError,
    DegenerateEnvironmentError,
    DomainError,
    EnumerationGuardError,
    HorizonError,
)
from gwcoal import sampling
from gwcoal.sampling import UniformStream, campaign_streams, draw_forward, rng_for_run
from gwcoal.tree import b_states, bt_fold, bt_min, bt_star, bt_update, state_pairs
from gwcoal.verify import REFERENCE_A, REFERENCE_B_ROWS

from conftest import (
    ENVS,
    EagerTree,
    counted_states,
    env_path,
    parent_walk_cpp_and_marks,
    per_draw_condition,
    per_draw_counts,
    recursive_dump_tree,
    walk_D,
)


@pytest.fixture
def tree_3leaves(binom2):
    # root -> (c1, c2); c1 -> one leaf, c2 -> two leaves
    return Tree(binom2, [[2], [1, 2]])


@pytest.fixture
def tree_with_gap(binom2):
    # c1's line dies out: root -> (c1, c2), c1 -> 0, c2 -> 2
    return Tree(binom2, [[2], [0, 2]])


class TestTreeStructure:
    def test_counts_and_labels(self, tree_3leaves):
        t = tree_3leaves
        assert t.horizon == 2
        assert t.k == 3
        assert t.n_nodes(0) == 1
        assert t.n_nodes(1) == 2
        assert t.n_nodes(2) == 3
        assert t.label(1, 1) == (2,)
        assert t.label(2, 1) == (2, 1)
        assert t.label(2, 2) == (2, 2)

    def test_ancestor_walk(self, tree_3leaves):
        assert ancestor_index(tree_3leaves, 1, 1) == 1
        assert ancestor_index(tree_3leaves, 2, 1) == 2
        assert ancestor_index(tree_3leaves, 3, 1) == 2
        assert ancestor_index(tree_3leaves, 3, 2) == 1

    def test_dead_line_not_counted(self, tree_with_gap):
        assert tree_with_gap.k == 2

    def test_dump_format(self, tree_3leaves):
        text = dump_tree(tree_3leaves)
        lines = text.strip().split("\n")
        assert lines[0].startswith("-")
        assert len(lines) == 6

    def test_dump_deeper_than_the_recursion_limit(self):
        N = 1200
        tree = Tree(constant_environment(FiniteSupportLaw((0.5, 0.5)), N), [[1]] * N)
        lines = ["- 1 1"] + [f"{'.'.join(['1'] * d)} {int(d < N)} 1" for d in range(1, N + 1)]
        assert dump_tree(tree) == "\n".join(lines) + "\n"


class TestCoalescentTimes:
    def test_hand_tree(self, tree_3leaves):
        cpp = coalescent_times(tree_3leaves)
        assert cpp == Cpp(k=3, a=(2, 1))

    def test_gap_tree(self, tree_with_gap):
        assert coalescent_times(tree_with_gap) == Cpp(k=2, a=(1,))

    def test_full_binary(self):
        env = constant_environment(dirac(2), 2)
        tree = simulate_tree(env, stream_for_run(0, 0))
        assert coalescent_times(tree) == Cpp(k=4, a=(1, 2, 1))

    def test_singleton(self, binom2):
        tree = Tree(binom2, [[1], [1]])
        assert coalescent_times(tree) == Cpp(k=1, a=())

    def test_cpp_validation(self):
        with pytest.raises(ValueError):
            Cpp(k=3, a=(1,))

    def test_pairwise_matrix(self):
        cpp = Cpp(k=4, a=(1, 2, 1))
        mat = genealogy_from_cpp(cpp)
        # time between leaves i and j is the running maximum between them
        expected = np.array(
            [[0, 1, 2, 2], [0, 0, 2, 2], [0, 0, 0, 1], [0, 0, 0, 0]]
        )
        assert (mat == expected).all()


class TestMarks:
    def test_sibling_counts_hand_tree(self, tree_3leaves):
        # leaf 1: its level-1 ancestor has no later surviving daughters, the
        # root has one
        assert extract_D(tree_3leaves, 1, 1) == 0
        assert extract_D(tree_3leaves, 1, 2) == 1
        assert extract_D(tree_3leaves, 2, 1) == 1
        assert extract_D(tree_3leaves, 2, 2) == 0
        assert extract_D(tree_3leaves, 3, 1) == 0
        assert extract_D(tree_3leaves, 3, 2) == 0

    def test_prefix_vectors(self, tree_3leaves):
        # D-values (0, 1) and (1, 0) as (length, pairs) states
        cpp = coalescent_times(tree_3leaves)
        assert extract_B(tree_3leaves, 1, cpp) == (2, ((2, 1),))
        assert extract_B(tree_3leaves, 2, cpp) == (2, ((1, 1),))

    def test_first_nonzero_is_time(self, binom3):
        # structural link between the tree's states and the times: the first
        # level is the time, the length its running maximum, and the states
        # along the tree form a b chain run
        for seed in range(40):
            tree = condition_on_survival(binom3, stream_for_run(seed, 0))
            cpp = coalescent_times(tree)
            running = 0
            states = []
            for i in range(1, tree.k):
                length, pairs = extract_B(tree, i, cpp)
                running = max(running, cpp.a[i - 1])
                assert length == running
                assert pairs[0][0] == cpp.a[i - 1]
                states.append((length, pairs))
            validate_b_run(ChainRun(a_values=list(cpp.a), states=states), binom3.horizon)

    def test_fused_extraction_matches(self, varying3):
        for seed in range(40):
            tree = condition_on_survival(varying3, stream_for_run(seed, 1))
            cpp = coalescent_times(tree)
            a_vals, marks = cpp_and_marks(tree)
            assert tuple(a_vals) == cpp.a
            ref = EagerTree(varying3, tree.counts)
            for i in range(1, tree.k):
                assert marks[i - 1] == walk_D(ref, i)[cpp.a[i - 1] - 1]

    @pytest.mark.parametrize("name", ["binom_n3", "varying_n3", "binom_n5", "binom_n6"])
    def test_marks_read_from_times(self, name):
        # D_i(A_i) against the tree walk, and every ``upto`` a prefix of
        # the whole, with no rank table built
        env = load_environment(env_path(name))
        for run in range(60):
            tree = condition_on_survival(env, stream_for_run(31, run))
            a_vals, marks = cpp_and_marks(tree)
            assert tree._ranks is None
            for upto in range(tree.k + 1):
                assert cpp_and_marks(tree, upto=upto) == (a_vals[:upto], marks[:upto])
            assert tree._ranks is None
            ref = EagerTree(env, tree.counts)
            assert marks == [walk_D(ref, i)[a - 1] for i, a in enumerate(a_vals, 1)]

    def test_negative_upto_rejected(self, tree_3leaves):
        assert cpp_and_marks(tree_3leaves, upto=0) == ([], [])
        with pytest.raises(DomainError):
            cpp_and_marks(tree_3leaves, upto=-1)

    def test_upto_walks_until_a_higher_meeting(self):
        # root -> 3 daughters with 2, 1 and 3 leaves: pairs meet at levels
        # 1, 2, 2, 1, 1.  The mark of pair 1 reads up to pair 2, the first
        # to meet higher, so the walk stops at level 1; pairs that meet at
        # level 2 read to the end
        env = constant_environment(FiniteSupportLaw((0.25,) * 4), 2)
        rows = _ReadRows([[3], [2, 1, 3]])
        tree = Tree(env, rows)
        rows.read.clear()
        assert cpp_and_marks(tree) == ([1, 2, 2, 1, 1], [1, 2, 1, 2, 1])
        for upto, depths in [(0, []), (1, [1]), (2, [1, 0])]:
            rows.read.clear()
            assert cpp_and_marks(tree, upto=upto) == ([1, 2, 2, 1, 1][:upto],
                                                      [1, 2, 1, 2, 1][:upto])
            assert rows.read == depths, upto


class _ReadRows(list):
    """Count rows that record the depth of each row read by index."""

    def __init__(self, rows):
        super().__init__(rows)
        self.read = []

    def __getitem__(self, depth):
        self.read.append(depth)
        return super().__getitem__(depth)


def _check_walk(tree):
    """The count walk against the parent-table reference, for the whole
    genealogy and for every ``upto``, with no parent row built."""
    cpp = coalescent_times(tree)
    whole = cpp_and_marks(tree)
    prefixes = [cpp_and_marks(tree, upto=upto) for upto in range(tree.k + 1)]
    assert tree._parents is None
    times, marks = parent_walk_cpp_and_marks(tree)
    assert cpp == Cpp(tree.k, tuple(times))
    assert whole == (times, marks)
    for upto, got in enumerate(prefixes):
        assert got == parent_walk_cpp_and_marks(tree, upto) == (times[:upto], marks[:upto])


@st.composite
def _count_rows(draw):
    """Child-count rows of up to 8 generations, at most 12 nodes wide.  A
    squeezed generation leaves one child in all, so the next one has a
    single node; zero counts fall between nonzero ones; a dead generation
    leaves an extinct tail of empty rows."""
    horizon = draw(st.integers(1, 8))
    rows, width = [], 1
    for _ in range(horizon):
        if not width:
            row = []
        elif draw(st.integers(0, 4)) == 0:
            row = [0] * width
            row[draw(st.integers(0, width - 1))] = 1
        else:
            row = draw(st.lists(st.integers(0, min(3, 12 // width)),
                                min_size=width, max_size=width))
        rows.append(row)
        width = sum(row)
    return rows


class TestCountWalk:
    """The walk over the child counts against the parent-table walk."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_count_rows())
    @example([[3], [2, 0, 3], [1, 0, 1, 0, 2]])  # zero counts between survivors
    @example([[2], [1, 2], [0, 1, 0], [3], [2, 0, 1]])  # a one-node generation inside
    @example([[2], [0, 1], [0], [], []])  # extinct tail, K = 0
    @example([[2], [0, 1], [1]])  # K = 1
    @example([[2], [1, 1], [1, 1]])  # K = 2, meeting at the founder
    @example([[1], [2], [0, 2]])  # K = 2, meeting at level 1
    def test_matches_parent_walk(self, rows):
        law = FiniteSupportLaw((0.25,) * 4)
        _check_walk(Tree(constant_environment(law, len(rows)), rows))

    def test_near_critical_horizon_200(self):
        # laws (a + d, 128 - 2a, a - d) / 128 whose drifts d cancel over
        # the window, so the product of means stays near one
        rng = np.random.default_rng(200)
        half = rng.integers(-1, 2, size=100)
        drift = rng.permutation(np.concatenate([half, -half]))
        spread = rng.integers(8, 25, size=200)
        env = _pmf_env([(a + d, 128 - 2 * a, a - d) for a, d in zip(spread, drift)], 128)
        sizes = set()
        for run in range(50):
            tree = condition_on_survival(env, stream_for_run(200, run))
            sizes.add(tree.k)
            _check_walk(tree)
        assert max(sizes) > 10


def _check_scan(env, tree, cells=True):
    """Every b and d state read off the times against the tree walk, with
    ``extract_B`` for every individual and, if ``cells``, ``extract_D`` for
    every individual and level: each of its calls walks the tree for the
    times again."""
    N = env.horizon
    cpp = coalescent_times(tree)
    ref = EagerTree(env, tree.counts)
    walked = [walk_D(ref, i) for i in range(1, tree.k + 1)]
    pairs = [tuple((n, d) for n, d in enumerate(vec, 1) if d) for vec in walked]
    b = [(length, tuple(pr for pr in prs if pr[0] <= length))
         for length, prs in zip(accumulate(cpp.a, max), pairs)]
    assert b_states(cpp.a) == b
    assert state_pairs(cpp.a) == pairs[:-1]
    assert [extract_B(tree, i, cpp) for i in range(1, tree.k)] == b
    if cells:
        assert [tuple(extract_D(tree, i, n) for n in range(1, N + 1))
                for i in range(1, tree.k + 1)] == walked


# the critical (1/4, 1/2, 1/4) law over 200 generations
CRITICAL_N200 = constant_environment(FiniteSupportLaw((0.25, 0.5, 0.25)), 200)


class TestStateScan:
    """The one scan of the times against the tree walk of ``walk_D``."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_count_rows())
    @example([[3], [2, 0, 3], [1, 0, 1, 0, 2]])
    @example([[2], [1, 2], [0, 1, 0], [3], [2, 0, 1]])
    @example([[2], [0, 1], [0], [], []])  # extinct tail, K = 0
    @example([[2], [0, 1], [1]])
    def test_matches_tree_walk_on_count_rows(self, rows):
        env = constant_environment(FiniteSupportLaw((0.25,) * 4), len(rows))
        _check_scan(env, Tree(env, rows))

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 64 - 1))
    def test_matches_tree_walk_at_horizon_200(self, seed):
        tree = condition_on_survival(CRITICAL_N200, stream_for_run(seed, 0))
        _check_scan(CRITICAL_N200, tree, cells=False)

    @pytest.mark.parametrize("name", sorted(path.stem for path in ENVS.glob("*.json")))
    def test_matches_tree_walk_on_bundled_envs(self, name):
        env = load_environment(env_path(name))
        for run in range(100):
            _check_scan(env, condition_on_survival(env, stream_for_run(29, run)))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 8), max_size=40))
    @example([2, 1, 1, 3, 2, 1, 3])
    def test_cut_scan_equals_full_scan(self, times):
        # cut after m times, the scan starts from D_{m+1}'s pairs at the
        # levels from A_m up: D_m's pairs less one at A_m, or those the b
        # state keeps
        pairs, states = state_pairs(times), b_states(times)
        for m in range(1, len(times) + 1):
            assert state_pairs(times[:m], bt_star(pairs[m - 1])) == pairs[:m]
            assert b_states(times[:m], bt_star(pairs[m - 1])) == states[:m]
            assert b_states(times[:m], bt_star(states[m - 1][1])) == states[:m]

    @pytest.mark.parametrize("process", ["b", "d"])
    def test_cut_scan_of_runs_at_horizon_200(self, process):
        run_chain = b_run if process == "b" else d_run
        cut = 0
        for run_id in range(30):
            run = run_chain(CRITICAL_N200, stream_for_run(11, run_id))
            want = counted_states(process, run.a_values, 200)
            for m in range(1, len(want) + 1):
                after = bt_star(want[m - 1][1])
                got = (b_states(run.a_values[:m], after) if process == "b" else
                       [(200, pairs) for pairs in state_pairs(run.a_values[:m], after)])
                assert got == want[:m]
                cut += 1
        assert cut > 100

    def test_reference_rows_are_the_scan_of_their_times(self):
        assert b_states(REFERENCE_A) == list(REFERENCE_B_ROWS)

    def test_extract_D_checks_its_cell(self, tree_3leaves):
        with pytest.raises(DomainError):
            extract_D(tree_3leaves, 4, 1)
        with pytest.raises(HorizonError):
            extract_D(tree_3leaves, 1, 3)


class TestReducedSequence:
    def test_update_rules(self):
        # consuming the minimum reveals nothing new
        assert bt_update((), 2, 2) == ((2, 2),)
        assert bt_update(((2, 2),), 2, 1) == ((2, 1),)
        # one unit at the minimum is always consumed first, then a strictly
        # lower new level is prepended with its own multiplicity
        assert bt_update(((2, 2),), 1, 3) == ((1, 3), (2, 1))
        assert bt_update(((2, 1),), 1, 3) == ((1, 3),)
        # consuming at the minimum does not re-add
        assert bt_update(((1, 1), (2, 1)), 1, 5) == ((2, 1),)

    def test_min_and_star(self):
        assert bt_min(((1, 2), (3, 1))) == 1
        assert bt_min(()) is None
        assert bt_star(((1, 2), (3, 1))) == ((1, 1), (3, 1))
        assert bt_star(((1, 1), (3, 1))) == ((3, 1),)

    def test_extract_hand_tree(self, tree_3leaves):
        seq = extract_Btilde(tree_3leaves)
        assert seq == (((2, 1),), ((1, 1),))

    def test_matches_update_recursion(self, binom3):
        for seed in range(40):
            tree = condition_on_survival(binom3, stream_for_run(seed, 2))
            cpp = coalescent_times(tree)
            seq = extract_Btilde(tree)
            ref = EagerTree(binom3, tree.counts)
            state = ()
            for i in range(1, tree.k):
                state = bt_update(state, cpp.a[i - 1], walk_D(ref, i)[cpp.a[i - 1] - 1])
                assert seq[i - 1] == state


class TestSharedWalk:
    """The count walk against definitions that do not use it."""

    @pytest.mark.parametrize("name", ["binom_n3", "varying_n3", "binom_n6"])
    def test_walk_matches_ancestor_definitions(self, name):
        env = load_environment(env_path(name))
        N = env.horizon
        for run in range(200):
            tree = condition_on_survival(env, stream_for_run(21, run))
            cpp = coalescent_times(tree)
            for i in range(1, tree.k):
                # the least level at which i and i + 1 have the same ancestor
                meet = next(n for n in range(1, N + 1)
                            if ancestor_index(tree, i, n) == ancestor_index(tree, i + 1, n))
                assert cpp.a[i - 1] == meet
            ref = EagerTree(env, tree.counts)
            state, folded = (), []
            for i in range(1, tree.k):
                state = bt_update(state, cpp.a[i - 1], walk_D(ref, i)[cpp.a[i - 1] - 1])
                folded.append(state)
            assert bt_fold(*cpp_and_marks(tree)) == tuple(folded)


class TestSimulation:
    def test_deterministic_given_seed(self, binom3):
        t1 = simulate_tree(binom3, stream_for_run(5, 3))
        t2 = simulate_tree(binom3, stream_for_run(5, 3))
        assert t1.counts == t2.counts

    def test_conditioning_survives(self, binom3):
        tree = condition_on_survival(binom3, stream_for_run(1, 0))
        assert tree.k >= 1
        assert tree.attempts >= 1

    def test_conditioning_impossible(self):
        env = constant_environment(dirac(0), 2)
        with pytest.raises(DegenerateEnvironmentError):
            condition_on_survival(env, stream_for_run(0, 0))

    def test_attempt_cap(self):
        # survival is possible but rare enough that two attempts cannot do it
        env = constant_environment(FiniteSupportLaw((0.999, 0.001)), 3)
        with pytest.raises(AttemptCapError):
            condition_on_survival(env, stream_for_run(0, 0), max_attempts=2)

    def test_empirical_survival_rate(self, binom2):
        # survival probability at two generations is 39/64
        stream = stream_for_run(123, 0)
        n = 20_000
        alive = sum(1 for _ in range(n) if simulate_tree(binom2, stream).k > 0)
        p = 39 / 64
        se = (p * (1 - p) / n) ** 0.5
        assert abs(alive / n - p) < 4 * se


PINNED_RUNS = [(seed, run) for seed in (0, 1, 7, 42, 2 ** 63) for run in range(10)]


class TestRejectionOnCounts:
    @pytest.mark.parametrize("name", ["binom_n6", "varying_n3"])
    def test_one_tree_per_call_and_same_attempts(self, monkeypatch, name):
        env = load_environment(env_path(name))
        built = []
        init = Tree.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        for seed, run in PINNED_RUNS:
            counts, attempts = per_draw_condition(env, stream_for_run(seed, run))
            monkeypatch.setattr(Tree, "__init__", counting_init)
            built.clear()
            tree = condition_on_survival(env, stream_for_run(seed, run))
            monkeypatch.setattr(Tree, "__init__", init)
            assert len(built) == 1
            assert tree.attempts == attempts
            assert tree.counts == counts

    def test_dead_draw_has_empty_rows_after_extinction(self):
        env = load_environment(env_path("binom_n6"))
        dead = 0
        for run in range(200):
            tree = simulate_tree(env, stream_for_run(3, run))
            assert len(tree.counts) == env.horizon
            if tree.k:
                continue
            dead += 1
            last = next(d for d, row in enumerate(tree.counts) if sum(row) == 0)
            assert all(tree.counts[d] for d in range(last + 1))
            assert all(row == [] for row in tree.counts[last + 1:])
            assert tree.alive[0] == [False]
            assert dump_tree(tree).startswith("- ")
        assert dead > 0

    def test_lazy_tables_match_eager_reference(self):
        cases = []
        for name in ("binom_n6", "varying_n3", "binom_n3"):
            env = load_environment(env_path(name))
            for run in range(60):
                cases.append((env, condition_on_survival(env, stream_for_run(11, run))))
        env6 = load_environment(env_path("binom_n6"))
        cases += [(env6, simulate_tree(env6, stream_for_run(12, run))) for run in range(20)]
        assert len(cases) == 200
        for env, tree in cases:
            ref = EagerTree(env, tree.counts)
            assert tree.parents == ref.parents
            assert tree.child_start == ref.child_start
            assert tree.alive == ref.alive
            assert [tree.n_nodes(d) for d in range(env.horizon + 1)] == list(map(len, ref.parents))
            assert dump_tree(tree) == dump_tree(ref) == recursive_dump_tree(ref)
            assert cpp_and_marks(tree) == cpp_and_marks(ref)
            for i in range(1, tree.k + 1):
                walked = walk_D(ref, i)
                for n in range(1, env.horizon + 1):
                    assert extract_D(tree, i, n) == walked[n - 1]

    def test_tables_not_built_for_coalescent_times(self, binom3):
        tree = condition_on_survival(binom3, stream_for_run(4, 0))
        assert tree._parents is None
        coalescent_times(tree)
        cpp_and_marks(tree)
        cpp_and_marks(tree, upto=1)
        assert tree._parents is None
        assert tree._ranks is None
        assert tree.alive[tree.horizon] == [True] * tree.k
        assert tree._ranks is not None
        assert tree._parents is None
        assert len(tree.parents[tree.horizon]) == tree.k
        assert tree._parents is not None

    def test_shape_checks_kept(self, binom2):
        with pytest.raises(DomainError):
            Tree(binom2, [[2]])
        with pytest.raises(DomainError):
            Tree(binom2, [[1, 1], [1, 1]])
        with pytest.raises(DomainError):
            Tree(binom2, [[2], [1]])


def _pmf_env(rows, denom):
    return Environment(tuple(FiniteSupportLaw(tuple(c / denom for c in row)) for row in rows))


# dyadic and subcritical: about one draw in 20 survives six generations
HIGH_REJECTION_N6 = _pmf_env([(10, 3, 2, 1), (9, 4, 2, 1), (11, 2, 2, 1),
                              (10, 3, 2, 1), (9, 5, 1, 1), (10, 4, 1, 1)], 16)
# a founder with 40 children or none, whose line then thins out: wide rows
# often cross the end of a small block
WIDE_N4 = Environment((FiniteSupportLaw((0.5,) + (0.0,) * 39 + (0.5,)),)
                      + _pmf_env([(15, 1), (13, 3), (12, 4)], 16).laws)
LF_FIRST_N6 = Environment((LinearFractionalLaw(0.5, 0.5),) + HIGH_REJECTION_N6.laws[1:])
LF_LAST_N6 = Environment(HIGH_REJECTION_N6.laws[:5] + (LinearFractionalLaw(0.25, 0.5),))
WALK_ENVS = {"high_rejection_n6": HIGH_REJECTION_N6, "wide_n4": WIDE_N4,
             "lf_first_n6": LF_FIRST_N6, "lf_last_n6": LF_LAST_N6,
             "binom_n6": load_environment(env_path("binom_n6")),
             "varying_n3": load_environment(env_path("varying_n3"))}


# pmf laws of up to five entries, zero and non-dyadic ones among them, and
# lf laws with means up to 10/3
_DRAW_LAWS = st.one_of(
    st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=5).filter(any)
    .map(lambda w: FiniteSupportLaw(tuple(x / sum(w) for x in w))),
    st.builds(LinearFractionalLaw, st.floats(min_value=0.0, max_value=1.0),
              st.floats(min_value=0.3, max_value=0.95)))


def _streams(seed, run, block):
    """Two streams over the same uniforms, in blocks of ``block``."""
    return (UniformStream(rng_for_run(seed, run), block),
            UniformStream(rng_for_run(seed, run), block))


class _Counting:
    """Stream stand-in that counts the uniforms read through it."""

    def __init__(self, stream):
        self.stream = stream
        self.read = 0

    def next(self):
        self.read += 1
        return self.stream.next()


class TestDeadDrawWalk:
    """Forward draws, dead ones included, read off the stream's block read
    the uniforms the per-draw sampler reads, so every tree, accepted tree
    and attempt count is that of the per-draw reference."""

    @pytest.mark.parametrize("name", sorted(WALK_ENVS))
    @pytest.mark.parametrize("block", [3, 8, 32, 8192])
    def test_unconditioned_draws_match_per_draw_reference(self, name, block):
        env = WALK_ENVS[name]
        dead = 0
        for seed in (0, 7):
            for run in range(15):
                ref, new = _streams(seed, run, block)
                for _ in range(4):
                    counts, width = per_draw_counts(env, ref)
                    dead += not width
                    counts += [[] for _ in range(env.horizon - len(counts))]
                    assert simulate_tree(env, new).counts == counts
                assert new.take(3) == ref.take(3)
        assert dead > 0

    @pytest.mark.parametrize("name", sorted(WALK_ENVS))
    def test_no_attempts_raise_cap_error(self, name):
        ref, new = _streams(1, 0, 8192)
        with pytest.raises(AttemptCapError):
            condition_on_survival(WALK_ENVS[name], new, max_attempts=0)
        assert new.take(3) == ref.take(3)

    @pytest.mark.parametrize("name", sorted(WALK_ENVS))
    @pytest.mark.parametrize("block", [1, 3, 8, 8192])
    def test_matches_per_draw_reference(self, name, block):
        env = WALK_ENVS[name]
        for seed in (0, 7, 2 ** 63):
            for run in range(15):
                ref, new = _streams(seed, run, block)
                counts, attempts = per_draw_condition(env, ref)
                tree = condition_on_survival(env, new)
                assert (tree.counts, tree.attempts) == (counts, attempts)
                # the next uniforms of both streams agree: the same number was read
                assert new.take(3) == ref.take(3)

    @pytest.mark.parametrize("name", sorted(WALK_ENVS))
    def test_campaign_streams_match_reference(self, name):
        env = WALK_ENVS[name]
        for run, new in enumerate(campaign_streams(11, 40)):
            ref = UniformStream(rng_for_run(11, run))
            counts, attempts = per_draw_condition(env, ref)
            tree = condition_on_survival(env, new)
            assert (tree.counts, tree.attempts) == (counts, attempts)

    @pytest.mark.parametrize("name", sorted(WALK_ENVS))
    @pytest.mark.parametrize("block", [1, 3, 8192])
    def test_max_width_bounds_each_draw(self, monkeypatch, name, block):
        # MAX_WIDTH bounds the individuals of one draw, all its generations
        # together: a draw of exactly that many is read as before, one more
        # raises naming the draw's size, and rejected draws count apart
        env = WALK_ENVS[name]
        for run in range(15):
            ref, _ = _streams(4, run, block)
            sizes = []
            while True:
                counts, width = per_draw_counts(env, ref)
                sizes.append(sum(map(len, counts)) + width)
                if width:
                    break
            largest = max(sizes)
            monkeypatch.setattr(sampling, "MAX_WIDTH", largest)
            _, new = _streams(4, run, block)
            assert condition_on_survival(env, new).counts == counts
            if largest > 1:
                monkeypatch.setattr(sampling, "MAX_WIDTH", largest - 1)
                _, new = _streams(4, run, block)
                with pytest.raises(EnumerationGuardError, match=(
                        f"^a forward draw reached {largest} individuals, "
                        f"more than {largest - 1}$")):
                    condition_on_survival(env, new)

    @settings(max_examples=120, deadline=None)
    @given(laws=st.lists(_DRAW_LAWS, min_size=1, max_size=6),
           seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
           block=st.sampled_from([1, 3, 32, 8192]))
    def test_guided_rows_match_per_draw_reference(self, laws, seed, block):
        # non-dyadic pmf rows through their guide tables, lf rows read in
        # place, at any block size
        env = Environment(tuple(laws))
        ref, new = _streams(seed, 0, block)
        for _ in range(6):
            counts, width = per_draw_counts(env, ref)
            got, got_width, read = draw_forward(env, new, 1)
            assert (got, got_width, read) == (counts, width, 1)
            assert all(type(row) is list for row in got)
        assert new.take(3) == ref.take(3)

    @pytest.mark.parametrize("block", [1, 3, 32, 8192])
    def test_uniforms_on_and_beside_the_cumulative_values(self, block):
        # every uniform on a cumulative value, one ulp off it or on a
        # bucket's edge: the buckets a guide table marks 255 are read by
        # bisect, the others by the table
        env = Environment((FiniteSupportLaw((0.25, 0.5, 0.25)),)
                          + (FiniteSupportLaw((0.3, 0.3, 0.4)),) * 5
                          + (FiniteSupportLaw((1 / 3,) * 3),))
        steps = env.levels.offspring_steps
        cums = {c for _, cum, _ in steps for c in cum if c < 1.0}
        pool = sorted({v for c in cums for v in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0))}
                      | {k / 256 for k in range(256)} | {float(np.nextafter(1.0, 0.0))})

        class Script:
            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)

            def random(self, size):
                return self.rng.choice(pool, size)

        split = 0
        for seed in range(20):
            ref, new = UniformStream(Script(seed), block), UniformStream(Script(seed), block)
            for _ in range(10):
                counts, width = per_draw_counts(env, ref)
                assert draw_forward(env, new, 1)[:2] == (counts, width)
            split += sum(guide[int(256 * u)] == 255 for _, _, guide in steps
                         for u in new._buf[:new._pos])
        assert split > 0

    @pytest.mark.parametrize("block", [3, 8, 32])
    def test_dead_draws_straddling_a_refill(self, block):
        # fixed blocks: uniform i lies in block i // block
        env = HIGH_REJECTION_N6
        straddled = 0
        for run in range(40):
            ref, new = _streams(5, run, block)
            counting = _Counting(ref)
            attempts = 0
            while True:
                attempts += 1
                start = counting.read
                counts, width = per_draw_counts(env, counting)
                if width:
                    break
                straddled += start // block != (counting.read - 1) // block
            tree = condition_on_survival(env, new)
            assert (tree.counts, tree.attempts) == (counts, attempts)
            assert new.take(3) == ref.take(3)
        assert straddled > 0

    @pytest.mark.parametrize("name", ["high_rejection_n6", "wide_n4", "lf_first_n6"])
    def test_attempt_cap_at_one_and_at_the_accepted_draw(self, name):
        env = WALK_ENVS[name]
        outcomes = set()
        for run in range(120):
            ref, _ = _streams(3, run, 8192)
            counts, attempts = per_draw_condition(env, ref)
            # capped exactly at the accepted draw: the same tree
            _, new = _streams(3, run, 8192)
            tree = condition_on_survival(env, new, max_attempts=attempts)
            assert (tree.counts, tree.attempts) == (counts, attempts)
            # one draw fewer, and a cap of one: the error after that many draws
            for cap in {1, attempts - 1} - {0}:
                ref, new = _streams(3, run, 8192)
                if cap >= attempts:
                    outcomes.add("accepted")
                    assert condition_on_survival(env, new, max_attempts=cap).counts == counts
                    continue
                outcomes.add("capped")
                assert per_draw_condition(env, ref, max_attempts=cap) == (None, cap)
                with pytest.raises(AttemptCapError):
                    condition_on_survival(env, new, max_attempts=cap)
                assert new.take(3) == ref.take(3)
        assert outcomes == {"accepted", "capped"}
