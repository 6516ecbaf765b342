import itertools
import math
from bisect import bisect_right
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from gwcoal import (
    DistTable, EtaSamplers, Environment, FiniteSupportLaw, LinearFractionalLaw, load_environment)
from gwcoal.chains import dense
from gwcoal.environment import _NO_SURVIVAL, EtaLaw
from gwcoal.errors import (
    ChainStateError,
    DegenerateEnvironmentError,
    EnumerationGuardError,
    GwcoalError,
    HorizonError,
)
from gwcoal.sampling import cumulative, draw_count, geometric_from_uniform
from gwcoal.verify import _Sweep, _offspring_support, _times_text

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
# Parent-table references of the tree readers: each pair of neighbours climbs
# the parent rows to the node where the two meet, and the dump recurses once
# per generation.
# ---------------------------------------------------------------------------


def parent_walk_meet(parents, N, i):
    """Depth of the node where individuals i and i + 1 first meet."""
    left, right = i - 1, i
    d = N
    while left != right:
        left = parents[d][left]
        right = parents[d][right]
        d -= 1
    return d


def parent_walk_cpp_and_marks(tree, upto=None):
    """``cpp_and_marks`` off the parent rows: pairs 1..upto climb the
    parents, then the pairs after them until one meets above all of those;
    the marks come from one right-to-left stack over the times walked."""
    N = tree.horizon
    parents = tree.parents
    pairs = tree.k - 1 if upto is None else min(upto, tree.k - 1)
    if pairs <= 0:
        return [], []
    scan = [N - parent_walk_meet(parents, N, i) for i in range(1, pairs + 1)]
    top = max(scan)
    for i in range(pairs + 1, tree.k):
        scan.append(N - parent_walk_meet(parents, N, i))
        if scan[-1] > top:
            break
    marks = [0] * len(scan)
    stack = []
    for j in range(len(scan) - 1, -1, -1):
        a = scan[j]
        while stack and stack[-1][0] < a:
            stack.pop()
        if stack and stack[-1][0] == a:
            stack[-1][1] += 1
        else:
            stack.append([a, 1])
        marks[j] = stack[-1][1]
    return scan[:pairs], marks[:pairs]


def recursive_dump_tree(tree):
    """``dump_tree`` as one recursive call per node."""
    lines = []

    def visit(depth, pos, label):
        count = tree.counts[depth][pos] if depth < tree.horizon else 0
        name = ".".join(str(x) for x in label) if label else "-"
        lines.append(f"{name} {count} {1 if tree.alive[depth][pos] else 0}")
        if depth < tree.horizon:
            start = tree.child_start[depth][pos]
            for c in range(count):
                visit(depth + 1, start + c, label + (c + 1,))

    visit(0, 0, ())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Tree-walk references of the chain states: the rank tables as the tree once
# built them eagerly, D_i read off the daughters of i's ancestors, and D_i
# counted straight from the times.
# ---------------------------------------------------------------------------


def eager_tables(counts, horizon):
    """parents, child_start, alive and max_rank (the largest rank of each
    node's present descendants, 0 when none), built eagerly."""
    child_start = []
    parents = [[-1]]
    for d in range(horizon):
        row = counts[d]
        starts = []
        acc = 0
        parent_row = []
        for j, c in enumerate(row):
            starts.append(acc)
            acc += c
            parent_row.extend([j] * c)
        child_start.append(starts)
        parents.append(parent_row)
    k = len(parents[horizon])
    alive = [None] * (horizon + 1)
    max_rank = [None] * (horizon + 1)
    alive[horizon] = [True] * k
    max_rank[horizon] = list(range(1, k + 1))
    for d in range(horizon - 1, -1, -1):
        row = counts[d]
        starts = child_start[d]
        child_rank = max_rank[d + 1]
        alive_row = []
        rank_row = []
        for j, c in enumerate(row):
            best = 0
            for pos in range(starts[j], starts[j] + c):
                if child_rank[pos] > best:
                    best = child_rank[pos]
            alive_row.append(best > 0)
            rank_row.append(best)
        alive[d] = alive_row
        max_rank[d] = rank_row
    return parents, child_start, alive, max_rank


class EagerTree:
    """Duck-typed stand-in for a ``Tree``, carrying the eagerly built tables."""

    def __init__(self, env, counts):
        self.env = env
        self.counts = counts
        self.parents, self.child_start, self.alive, self.max_rank = eager_tables(
            counts, env.horizon
        )
        self.horizon = env.horizon
        self.k = len(self.parents[env.horizon])


def walk_D(tree, i):
    """(D_i(1), ..., D_i(N)) by the tree walk: climbing from individual i, the
    daughters of each ancestor with a present descendant of rank >= i, less
    the one on i's own line.  ``tree`` is an ``EagerTree``."""
    out = []
    pos = i - 1
    for n in range(1, tree.horizon + 1):
        pos = tree.parents[tree.horizon - n + 1][pos]
        depth = tree.horizon - n
        start = tree.child_start[depth][pos]
        ranks = tree.max_rank[depth + 1][start:start + tree.counts[depth][pos]]
        out.append(sum(rank >= i for rank in ranks) - 1)
    return tuple(out)


def counted_D(a_values, i, n):
    """D_i(n) from the counting rule: the pairs j >= i with A_j = n before the
    first j >= i with A_j > n."""
    count = 0
    for a in a_values[i - 1:]:
        if a > n:
            break
        count += a == n
    return count


def counted_states(process, a_values, horizon):
    """The b or d states of the times, each D_i counted level by level: the
    b state keeps the levels up to max(A_1..A_i), the d state all up to the
    horizon."""
    states = []
    for i in range(1, len(a_values) + 1):
        length = max(a_values[:i]) if process == "b" else horizon
        states.append((length, tuple((n, d) for n in range(1, length + 1)
                                     if (d := counted_D(a_values, i, n)))))
    return states


def counted_run_states(process, run, horizon):
    """``counted_states`` of a run's times.  An unfinished run's times are
    continued by the pairs its last state owes: that state's pairs less one
    at the first level, each (level, count) as count times at that level,
    which D_{m+1} counts as those pairs when they are positive and rising."""
    times = list(run.a_values)
    if not run.terminated and run.states and run.states[-1][1]:
        (first, count), *above = run.states[-1][1]
        times += [level for level, v in [(first, count - 1), *above] for _ in range(v)]
    return counted_states(process, times, horizon)[:len(run.a_values)]


# ---------------------------------------------------------------------------
# Per-level reference of the level table and the spine-sibling samplers: one
# checked ``pgf``/``pgf_deriv`` call per level and per derivative order, and
# one ``eta`` call per level, in the order the one-pass table must reproduce
# bit for bit.
# ---------------------------------------------------------------------------


class PerLevelTable:
    """``LevelTable.column`` and ``LevelTable.eta`` as calls per level."""

    def __init__(self, laws):
        self.laws = tuple(laws)
        self.horizon = len(self.laws)
        exact = all(isinstance(law, FiniteSupportLaw) and law.is_exact for law in self.laws)
        self.zero = Fraction(0) if exact else 0.0
        self._rows = [(self.zero, 1, math.nan, 1)]
        self._eta = {}

    def column(self, k):
        if not 0 <= k <= self.horizon:
            raise HorizonError(f"depth {k} outside [0, {self.horizon}]")
        while (j := len(self._rows)) <= k:
            u, deriv, _, product = self._rows[j - 1]
            law = self.laws[self.horizon - j]
            fprime, nxt = law.pgf_deriv(u, 1), law.pgf(u)
            if isinstance(law, LinearFractionalLaw):
                p0 = (1.0 - law.q) / (1.0 - law.q * float(u))
            else:
                p0 = (1 - u) * fprime / (1 - nxt) if nxt != 1 else math.nan
            self._rows.append((nxt, deriv * fprime, p0, product * p0))
        return self._rows[k]

    def eta(self, k):
        if k not in self._eta:
            if not 1 <= k <= self.horizon:
                raise HorizonError(f"depth {k} outside [1, {self.horizon}]")
            u, (extinct, _, p0, _) = self.column(k - 1)[0], self.column(k)
            f, surv = self.laws[self.horizon - k], 1 - extinct
            if surv == 0:
                raise DegenerateEnvironmentError(_NO_SURVIVAL)
            if isinstance(f, LinearFractionalLaw):
                self._eta[k] = EtaLaw(probs=(), geom=p0)
            else:
                alive = 1 - u
                try:
                    self._eta[k] = EtaLaw(probs=(p0,) + tuple(
                        alive ** (j + 1) * f.pgf_deriv(u, j + 1) / (math.factorial(j + 1) * surv)
                        for j in range(1, max(f.max_children, 1))
                    ))
                except OverflowError:
                    raise GwcoalError(f"eta law at level {k}: a pmf law of width {len(f.probs)} "
                                      "overflows the float derivative formula") from None
        return self._eta[k]


def per_level_samplers(env):
    """(laws, cumulative tables, floors, maps) of an ``EtaSamplers`` built
    from one ``PerLevelTable.eta`` call per level."""
    levels = PerLevelTable(env.laws)
    laws = [levels.eta(m) for m in range(1, env.horizon + 1)]
    cums = [None if law.geom is not None else cumulative(law.probs) for law in laws]
    maps = [partial(bisect_right, cum) if cum is not None
            else partial(geometric_from_uniform, math.log1p(-law.geom))
            if law.geom < 1.0 else None
            for law, cum in zip(laws, cums)]
    floors = [0.0 if cum is None else cum[0] for cum in cums]
    return laws, cums, floors, maps


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


# ---------------------------------------------------------------------------
# Product-loop reference of the tree enumeration: one loop over the children
# of every combination, keyed by (K, comma-joined times).
# ---------------------------------------------------------------------------


def loop_tree_numerators(env, guard):
    """``verify._tree_numerators`` as a loop over every combination's
    children, with its patterns keyed ``(K, times text)``; also returns the
    number of combinations examined, the smallest passing guard."""
    exact = env.is_exact
    N = env.horizon
    supports = [_offspring_support(law, guard) for law in env.laws]
    total = 1 if exact else 1.0
    patterns = {(1, ""): total}
    work = 0
    for depth in range(N - 1, -1, -1):
        junction = str(N - depth)
        pats = list(patterns.items())
        merged = {}
        items = supports[depth]
        if exact:
            den = math.lcm(*(p.denominator for _, p in items))
            top = items[-1][0]
            items = [(c, p.numerator * (den // p.denominator) * total ** (top - c))
                     for c, p in items]
            total = den * total**top
        for count, p_count in items:
            for combo in itertools.product(pats, repeat=count):
                work += 1
                if work > guard:
                    raise EnumerationGuardError(
                        f"tree enumeration exceeded {guard} pattern combinations"
                    )
                prob = p_count
                k_total = 0
                a = []
                for (k_child, a_child), p_child in combo:
                    prob = prob * p_child
                    if k_child == 0:
                        continue
                    if k_total:
                        a.append(junction)
                    if a_child:
                        a.append(a_child)
                    k_total += k_child
                key = (k_total, ",".join(a))
                merged[key] = merged.get(key, 0 * total) + prob
        patterns = merged

    dead = patterns.pop((0, ""), 0 * total)
    alive = sum(patterns.values())
    if alive == 0:
        raise DegenerateEnvironmentError("no surviving tree has positive probability")
    return patterns, dead, alive, work


# ---------------------------------------------------------------------------
# Per-step laws of the two chains, swept by `verify._Sweep.step`.
# ---------------------------------------------------------------------------


def _times_and_peak(hists, a, _):
    """History fold: the emitted times' text, each followed by a comma, and
    their running maximum."""
    if a is None:
        return hists
    return [(f"{times}{a},", max(peak, a)) for times, peak in hists]


def chain_step_laws(env, process="b", max_steps=6):
    """Per-step joint law of (emitted times so far, visible state), on a
    float environment.

    For the fixed-length chain the visible state is its pairs up to the
    running maximum of emitted times, with that maximum as its length, which
    is exactly the truncated chain's state, so the two processes must produce
    identical tables step by step.
    """
    sweep = _Sweep(env, process, 2_000_000, "step-law sweep exceeded its budget")
    frontier = {sweep.start: {("", 0): sweep.one}}
    out = []
    for _ in range(max_steps):
        frontier, _ = sweep.step(frontier, _times_and_peak)
        step_law = DistTable()
        for state, hists in frontier.items():
            for (times, peak), mass in hists.items():
                visible = state
                if process == "d":
                    visible = (peak, tuple([pr for pr in state[1] if pr[0] <= peak]))
                step_law.add(f"A={times[:-1]}|S={visible}", mass)
        out.append(step_law)
        if not frontier:
            break
    return out


def lockstep_chain_outcomes(env, process, guard):
    """``verify._chain_outcomes`` by the lockstep sweep at every horizon, 1
    included: (K, history text, mass, denominator) of each run as its step
    ends it, the float sweep stopping once less than 1e-14 is still going."""
    sweep = _Sweep(env, process, guard, f"chain sweep exceeded {guard} transitions")
    frontier = {sweep.start: {"": sweep.one}}
    steps = 0
    while frontier:
        steps += 1
        frontier, ended = sweep.step(frontier, _times_text)
        for hist, mass in ended.items():
            yield steps, hist, mass, sweep.scale**steps
        if not sweep.exact and frontier and sum(
                mass for hists in frontier.values() for mass in hists.values()) < 1e-14:
            break
