"""Cross-checks between forward tree laws and backward chain laws.

The two central objects are

* ``exact_tree_law``: the genealogy law (K and the coalescent times) obtained
  by enumerating every possible tree, conditioned on survival, and
* ``exact_chain_law``: the same law obtained by exhaustively sweeping the
  backward-chain transition kernel.

They are computed by unrelated code paths, so their agreement is the main
correctness certificate of the package.  Further checks cover the identities
for the first coalescent time, the embedded hand-worked reference genealogy,
the non-Markov witness for the reduced point-measure sequence, and the
independence structure special to linear-fractional environments.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, asdict
from fractions import Fraction

import numpy as np

from .chains import ChainRun, State, validate_b_run
from .disttable import DistTable, outcome_key, tv_distance
from .environment import TAIL_CUT, Environment, lf_a1_tail
from .errors import (
    DegenerateEnvironmentError,
    EnumerationGuardError,
    NotLinearFractionalError,
)
from .laws import FiniteSupportLaw, Number
from .pgf import a1_tail, eta_law_at_depth, eta_probs_generic
from .sampling import as_stream, draw_forward
from .tree import BtState, Tree, bt_fold, bt_star, bt_update, cpp_and_marks

TERM_KEY = "TERMINATED"
# Total variation above which two conditional laws witness history dependence.
WITNESS_TV = 0.01


# ---------------------------------------------------------------------------
# Offspring and spine-sibling supports, with explicit truncation for the
# geometric tails of linear-fractional laws.
# ---------------------------------------------------------------------------


def _offspring_support(law, guard: int) -> list[tuple[int, Number]]:
    """(count, prob) pairs covering all but at most ``TAIL_CUT`` of the mass.

    A geometric tail that needs more than ``guard`` items raises, before any
    is built: item k >= 1 is kept while ``r * q ** (k - 1)`` exceeds the cut.
    """
    if isinstance(law, FiniteSupportLaw):
        return [(k, p) for k, p in enumerate(law.probs) if p > 0]
    if law.r == 0:
        return [(0, 1.0)]
    items = [(0, 1.0 - law.r)] if law.r < 1 else []
    if law.r * law.q ** (guard - len(items)) > TAIL_CUT:
        raise EnumerationGuardError(f"geometric support needs more than {guard} items")
    k = 1
    tail = law.r  # P(count >= k)
    while tail > TAIL_CUT:
        items.append((k, law.r * law.p * law.q ** (k - 1)))
        tail = law.r * law.q ** k
        k += 1
    return items


@dataclass(frozen=True)
class _LevelTable:
    """Spine-sibling law at one ancestor level, as explicit support items:
    the (level, value) pair of each value, None for 0, with its probability."""

    items: tuple[tuple[tuple[int, int] | None, Number], ...]
    zero: Number


def _eta_tables(env: Environment, rational: bool = False) -> list[_LevelTable]:
    base = env.as_rational() if rational else env
    out = []
    for level in range(1, base.horizon + 1):
        law = eta_law_at_depth(base, level).materialized()
        items = tuple(((level, k) if k else None, p) for k, p in enumerate(law.probs) if p > 0)
        out.append(_LevelTable(items=items, zero=law.probs[0]))
    return out


# ---------------------------------------------------------------------------
# Exact genealogy law by tree enumeration.
# ---------------------------------------------------------------------------


def exact_tree_law(
    env: Environment,
    guard: int = 500_000,
    rational: bool = False,
) -> DistTable:
    """Law of (K, coalescent times) over all trees, conditioned on K >= 1.

    Works bottom-up: the genealogy pattern of a subtree is assembled from the
    patterns of its child subtrees, joined at the subtree's root level.  This
    visits exactly the information content of every tree; ``guard`` bounds
    the number of child-pattern combinations examined.  In exact mode one
    ``Fraction`` per outcome is formed from the integer numerators.
    """
    patterns, dead, alive = _tree_numerators(env, guard, rational)
    table = DistTable({
        outcome_key(k, a): Fraction(p, alive) if rational else p / alive
        for (k, a), p in sorted(patterns.items())
    })
    if not rational:  # exact supports are complete
        table.truncated_mass = max(0.0, float(1 - dead - alive)) / float(alive)
    return table


def _tree_numerators(
    env: Environment,
    guard: int,
    rational: bool,
) -> tuple[dict[tuple[int, str], Number], Number, Number]:
    """The surviving patterns of ``exact_tree_law`` with their masses, the
    dead mass and the surviving mass ``alive``.

    Exact masses are integer numerators over one common denominator per
    depth, so that merging two patterns is an integer addition; a pattern's
    probability given survival is its numerator over ``alive``.
    """
    base = env.as_rational() if rational else env
    N = base.horizon
    supports = [_offspring_support(law, guard) for law in base.laws]

    # a pattern is K and the comma-joined coalescent times; its mass is
    # relative to ``total``, the mass of all subtrees rooted at the current
    # depth: 1, or in exact mode the common denominator of the numerators
    total: Number = 1 if rational else 1.0
    patterns: dict[tuple[int, str], Number] = {(1, ""): total}
    work = 0
    for depth in range(N - 1, -1, -1):
        junction = str(N - depth)
        pats = list(patterns.items())
        merged: dict[tuple[int, str], Number] = {}
        items = supports[depth]
        if rational:
            # P(count) * prod(num_i / total) over total' = den * total**top
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
                a: list[str] = []
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
    return patterns, dead, alive


# ---------------------------------------------------------------------------
# Exact genealogy law by sweeping the backward-chain kernel.
# ---------------------------------------------------------------------------


def _transitions(state: State | None, tables: list[_LevelTable]):
    """All transitions out of a chain state, with their probabilities.

    ``(0, ())`` is the start of the truncated (b) chain, ``None`` that of the
    fixed-length (d) chain.  The levels below the first one are drawn afresh
    and that level loses one.  A b state left without pairs draws the levels
    beyond its length until a nonzero value, and terminates (``None``) if
    none comes up to the horizon; a d start without pairs is yielded as it
    is.  Probabilities sum to one minus the truncation leak of the tables.
    """
    one: Number = 1 if any(isinstance(t.zero, Fraction) for t in tables) else 1.0
    if state is None:
        length, below, fixed = len(tables), tables, ()
    else:
        length, pairs = state
        below, fixed = (tables[: pairs[0][0] - 1], bt_star(pairs)) if pairs else ([], ())
    for combo in itertools.product(*(t.items for t in below)):
        p = one
        for _, q in combo:
            p = p * q
        prefix = tuple([pr for pr, _ in combo if pr]) + fixed
        if state is None or prefix:
            yield (length, prefix), p
            continue
        for level in range(length + 1, len(tables) + 1):
            t = tables[level - 1]
            for pr, q in t.items:
                if pr:
                    yield (level, (pr,)), p * q
            p = p * t.zero
            if p == 0:
                break
        else:
            yield None, p


class _Sweep:
    """Exhaustive forward sweep of the b or d chain's transition kernel.

    The frontier is grouped by state: ``{state: {history: mass}}`` holds the
    mass of reaching each state along each history.  The chain is Markov,
    so what leaves a state does not depend on how it was reached: a step
    fetches each state's transitions once and runs every one of them over
    all of that state's histories in one inner loop.  A history is the text
    of the emitted times, each followed by a comma, unless the caller keys
    it otherwise.  Each distinct state's transitions are generated once per
    sweep, with the first level of every next state (``None`` ends the run,
    and so does a d state without pairs).  ``work`` counts every
    transition examined once per history that reads it, so a state charges
    its number of transitions times its number of histories; more than
    ``guard`` raises.

    Exact masses are integers: numerators over ``scale ** i`` after i steps,
    where ``scale`` is the product of the levels' common denominators, so
    that merging two masses is an integer addition.
    """

    def __init__(self, env: Environment, process: str, guard: int, overflow: str,
                 rational: bool = False):
        if process not in ("b", "d"):
            raise ValueError("process must be 'b' or 'd'")
        self.tables = _eta_tables(env, rational)
        self.start = (0, ()) if process == "b" else None
        self.rational = rational
        self.one: Number = 1 if rational else 1.0
        self.scale = math.prod(math.lcm(t.zero.denominator, *(q.denominator for _, q in t.items))
                               for t in self.tables) if rational else 1
        self.guard = guard
        self.overflow = overflow
        self.work = 0
        self._memo: dict = {}

    def transitions(self, state) -> list[tuple[State | None, int | None, Number]]:
        """(next state or None, its first level, probability) of every
        transition out of ``state``."""
        out = self._memo.get(state)
        if out is None:
            out = []
            for nxt, p in _transitions(state, self.tables):
                a = nxt[1][0][0] if nxt and nxt[1] else None
                if self.rational:
                    p = p.numerator * (self.scale // p.denominator)
                out.append((None if a is None else nxt, a, p))
            self._memo[state] = out
        return out

    def moves(self, frontier: dict):
        """(next state or None, its first level or None, probability, the
        histories that take it) of every transition out of the frontier's
        states, in frontier order; the histories map to the masses before
        the move."""
        for state, hists in frontier.items():
            out = self.transitions(state)
            self.work += len(out) * len(hists)
            if self.work > self.guard:
                raise EnumerationGuardError(self.overflow)
            for nxt, a, p in out:
                yield nxt, a, p, hists

    def step(self, frontier: dict) -> tuple[dict, dict]:
        """The next frontier and the mass of the runs that ended, by history.
        Moves of zero mass are dropped."""
        zero = 0 * self.one
        new: dict = {}
        ended: dict = {}
        for nxt, a, p, hists in self.moves(frontier):
            if a is None:
                into, suffix = ended, ""
            else:
                into = new.get(nxt)
                if into is None:
                    into = new[nxt] = {}
                suffix = f"{a},"
            for hist, mass in hists.items():
                mp = mass * p
                if mp:
                    key = hist + suffix
                    into[key] = into.get(key, zero) + mp
        return {state: hists for state, hists in new.items() if hists}, ended


def exact_chain_law(
    env: Environment,
    guard: int = 2_000_000,
    rational: bool = False,
    process: str = "b",
) -> DistTable:
    """Law of (K, emitted coalescent times) of a backward chain, by exact
    forward sweep of its transition kernel from the initial state.  A float
    sweep stops once less than 1e-14 of the mass is still running."""
    done = DistTable()
    for k, times, mass, den in _chain_outcomes(env, process, guard, rational):
        done[outcome_key(k, times)] = Fraction(mass, den) if rational else mass
    done.truncated_mass = max(0.0, 1.0 - float(done.total())) if not rational else 0.0
    return done


def _chain_outcomes(env: Environment, process: str, guard: int, rational: bool):
    """(K, emitted times as text, mass, denominator) of every run of the
    chain sweep, yielded at the end of the step that ends it.  Exact masses
    are integers over ``scale ** K``; float masses are over 1."""
    sweep = _Sweep(env, process, guard, f"chain sweep exceeded {guard} transitions", rational)
    frontier = {sweep.start: {"": sweep.one}}
    steps = 0
    while frontier:
        steps += 1
        frontier, ended = sweep.step(frontier)
        # a run that ends at step K emitted K - 1 times
        den = sweep.scale**steps
        for times, mass in ended.items():
            yield steps, times[:-1], mass, den
        if not rational and frontier and sum(
                mass for hists in frontier.values() for mass in hists.values()) < 1e-14:
            break


def _tree_chain_gap(env: Environment, guard: int, rational: bool) -> tuple[Number, int, float]:
    """TV distance between the tree law and the b chain law, the number of
    tree outcomes and the truncation slack of the two laws, with no table of
    outcome keys on either side.

    The b chain's outcomes are compared as they end against the tree's
    numerators, which are popped as they are matched.  In exact mode an
    outcome agrees when ``tree * den == chain * alive``, and only outcomes
    that disagree, or that one side lacks, add a ``Fraction`` to the gap, so
    that the gap equals ``tv_distance`` on the two public tables.  In float
    mode an outcome adds ``|tree / alive - chain|`` when the two differ: the
    terms of ``tv_distance``, added in the order the chain ends them.  The
    slack is 0 when every law has finite support, so that an outcome one
    side lacks shows in full.  Otherwise (an ``lf`` law, whose geometric
    tails are cut) the float slack is the tree's lost mass over ``alive``
    plus the mass that never ended in the chain sweep.
    """
    tree, dead, alive = _tree_numerators(env, guard, rational)
    outcomes = len(tree)
    gap: Number = Fraction(0) if rational else 0.0
    ended = 0.0
    for k, times, mass, den in _chain_outcomes(env, "b", guard, rational):
        num = tree.pop((k, times), 0)
        if rational:
            if num * den != mass * alive:
                gap += abs(Fraction(num, alive) - Fraction(mass, den))
        else:
            ended += mass
            if num / alive != mass:
                gap += abs(num / alive - mass)
    if rational:
        return (gap + sum(Fraction(num, alive) for num in tree.values())) / 2, outcomes, 0.0
    for num in tree.values():
        gap += num / alive
    slack = 0.0
    if not env.is_finite_support:
        slack = max(0.0, float(1 - dead - alive)) / float(alive) + max(0.0, 1.0 - ended)
    return 0.5 * gap, outcomes, slack


def chain_step_laws(
    env: Environment,
    process: str = "b",
    max_steps: int = 6,
) -> list[DistTable]:
    """Per-step joint law of (emitted times so far, visible state).

    For the fixed-length chain the visible state is its pairs up to the
    running maximum of emitted times, with that maximum as its length, which
    is exactly the truncated chain's state, so the two processes must produce
    identical tables step by step.
    """
    sweep = _Sweep(env, process, 2_000_000, "step-law sweep exceeded its budget")
    frontier: dict = {sweep.start: {"": 1.0}}
    out: list[DistTable] = []
    for _ in range(max_steps):
        frontier, _ = sweep.step(frontier)
        step_law = DistTable()
        # the running maximum of each history's times, parsed once per step
        peaks: dict[str, int] = {}
        for state, hists in frontier.items():
            for times, mass in hists.items():
                visible = state
                if process == "d":
                    peak = peaks.get(times)
                    if peak is None:
                        peak = peaks[times] = max(map(int, times[:-1].split(",")))
                    visible = (peak, tuple([pr for pr in state[1] if pr[0] <= peak]))
                step_law.add(f"A={times[:-1]}|S={visible}", mass)
        out.append(step_law)
        if not frontier:
            break
    return out


# ---------------------------------------------------------------------------
# Embedded hand-worked reference genealogy.  Eleven consecutive individuals
# of one realized tree: their truncated states, coalescent times,
# running maxima, and the reduced point-measure sequence.
# ---------------------------------------------------------------------------

REFERENCE_B_ROWS: tuple[State, ...] = (
    (1, ((1, 1),)),
    (2, ((2, 2),)),
    (2, ((1, 1), (2, 1))),
    (2, ((2, 1),)),
    (2, ((1, 2),)),
    (2, ((1, 1),)),
    (4, ((4, 1),)),
    (4, ((3, 1),)),
    (5, ((5, 1),)),
    (5, ((1, 1), (4, 1))),
    (5, ((4, 1),)),
)
REFERENCE_A: tuple[int, ...] = (1, 2, 1, 2, 1, 1, 4, 3, 5, 1, 4)
REFERENCE_L: tuple[int, ...] = (1, 2, 2, 2, 2, 2, 4, 4, 5, 5, 5)
REFERENCE_BTILDE: tuple[BtState, ...] = (
    ((1, 1),),
    ((2, 2),),
    ((1, 1), (2, 1)),
    ((2, 1),),
    ((1, 2),),
    ((1, 1),),
    ((4, 1),),
    ((3, 1),),
    ((5, 1),),
    ((1, 1),),
    ((4, 1),),
)


@dataclass
class ReferenceTableReport:
    passed: bool
    derived_a: tuple[int, ...]
    derived_l: tuple[int, ...]
    derived_btilde: tuple[BtState, ...]
    mismatches: list[str] = field(default_factory=list)


def figure1_consistency() -> ReferenceTableReport:
    """Re-derive every derived row of the embedded reference genealogy.

    The coalescent times must be the first levels of the states, the state
    lengths must follow the running maximum of the times, the whole sequence
    must satisfy the chain's structural transition rules, and the reduced
    point-measure recursion must reproduce the listed states.
    """
    mismatches: list[str] = []
    derived_a = tuple(pairs[0][0] for _, pairs in REFERENCE_B_ROWS)
    if derived_a != REFERENCE_A:
        mismatches.append(f"coalescent times: derived {derived_a}")
    derived_l = tuple(length for length, _ in REFERENCE_B_ROWS)
    running = tuple(itertools.accumulate(REFERENCE_A, max))
    if derived_l != REFERENCE_L or running != REFERENCE_L:
        mismatches.append(f"lengths: rows {derived_l}, running maxima {running}")
    try:
        run = ChainRun(a_values=list(REFERENCE_A), states=list(REFERENCE_B_ROWS))
        validate_b_run(run, horizon=max(REFERENCE_L))
    except Exception as exc:
        mismatches.append(f"structural transition rules: {exc}")
    marks = [pairs[0][1] for _, pairs in REFERENCE_B_ROWS]
    derived_btilde = bt_fold(REFERENCE_A, marks)
    if derived_btilde != REFERENCE_BTILDE:
        mismatches.append(f"reduced sequence: derived {derived_btilde}")
    return ReferenceTableReport(
        passed=not mismatches,
        derived_a=derived_a,
        derived_l=derived_l,
        derived_btilde=derived_btilde,
        mismatches=mismatches,
    )


# ---------------------------------------------------------------------------
# Non-Markov witness for the reduced point-measure sequence.
# ---------------------------------------------------------------------------


def encode_bt(state: BtState) -> str:
    return ",".join(f"{lvl}:{m}" for lvl, m in state) if state else "-"


@dataclass
class Witness:
    """Two histories sharing a state but disagreeing about the next step.

    ``law_a`` is the conditional law of the state after ``step_index + 1``
    given the states at steps ``step_index - 1`` and ``step_index`` were
    ``history_a`` and ``shared_state``; likewise ``law_b``.  A positive total
    variation gap shows the reduced sequence is not a Markov chain.
    """

    env_digest: str
    step_index: int
    shared_state: BtState
    history_a: BtState
    history_b: BtState
    law_a: DistTable
    law_b: DistTable
    tv: float


def btilde_witness_search(env: Environment) -> Witness | None:
    """Exact search for a two-step history dependence of the reduced sequence.

    Sweeps the fixed-length chain jointly with the last two reduced states.
    At each step, histories (previous, current) sharing the same current
    state are compared through their conditional laws of the next reduced
    state (termination is an explicit outcome).  Returns the first pair whose
    laws differ by more than ``WITNESS_TV`` in total variation, within ten
    steps.
    """
    if not env.is_finite_support:
        raise EnumerationGuardError("witness search requires finite-support laws")
    sweep = _Sweep(env, "d", 5_000_000, "witness sweep exceeded its budget")
    # the frontier's history is the last two reduced states
    wave: dict[State | None, dict[tuple[BtState, BtState], float]] = {
        sweep.start: {((), ()): 1.0}}
    for step in range(1, 11):
        cond: dict[tuple[BtState, BtState], dict[str, float]] = {}
        nxt_wave: dict[State, dict[tuple[BtState, BtState], float]] = {}
        for d2, a2, p, hists in sweep.moves(wave):
            for (x, y), mass in hists.items():
                mp = mass * p
                if not mp:
                    continue
                if a2 is None:
                    z_key = TERM_KEY
                else:
                    z_state = bt_update(y, a2, d2[1][0][1])
                    z_key = encode_bt(z_state)
                    into = nxt_wave.setdefault(d2, {})
                    into[(y, z_state)] = into.get((y, z_state), 0.0) + mp
                bucket = cond.setdefault((x, y), {})
                bucket[z_key] = bucket.get(z_key, 0.0) + mp
        by_shared: dict[BtState, list[BtState]] = {}
        for x, y in cond:
            by_shared.setdefault(y, []).append(x)
        for y in sorted(by_shared):
            xs = sorted(by_shared[y])
            for i, j in itertools.combinations(range(len(xs)), 2):
                law_a = DistTable(cond[(xs[i], y)]).normalized()
                law_b = DistTable(cond[(xs[j], y)]).normalized()
                gap = float(tv_distance(law_a, law_b))
                if gap > WITNESS_TV:
                    return Witness(
                        env_digest=env.digest(),
                        step_index=step - 1,
                        shared_state=y,
                        history_a=xs[i],
                        history_b=xs[j],
                        law_a=law_a,
                        law_b=law_b,
                        tv=gap,
                    )
        wave = nxt_wave
        if not wave:
            break
    return None


@dataclass
class McWitnessReport:
    """Monte Carlo replication of a witness's conditional gap."""

    samples: int
    z_key: str
    dp_gap: float
    hits_a: int
    hits_b: int
    freq_a: float
    freq_b: float
    mc_gap: float
    same_direction: bool


def mc_witness_check(
    env: Environment, witness: Witness, samples: int, seed: int
) -> McWitnessReport:
    """Estimate the witness's two conditional laws from raw tree simulations.

    Picks the next-state outcome with the largest disagreement between the
    exact conditional laws and checks that the empirical frequencies differ
    in the same direction.
    """
    keys = sorted(set(witness.law_a) | set(witness.law_b))
    z_key = max(
        keys, key=lambda k: (abs(witness.law_a.get(k, 0.0) - witness.law_b.get(k, 0.0)), k)
    )
    dp_gap = witness.law_a.get(z_key, 0.0) - witness.law_b.get(z_key, 0.0)
    i = witness.step_index
    stream = as_stream(seed)
    hits = [0, 0]
    z_hits = [0, 0]
    targets = {witness.history_a: 0, witness.history_b: 1}
    for _ in range(samples):
        # draws with fewer than i + 1 individuals are rejected on their counts
        counts, width, _ = draw_forward(env, stream, 1)
        if width < i + 1:
            continue
        seq = bt_fold(*cpp_and_marks(Tree(env, counts), upto=i + 1))
        x = seq[i - 2] if i >= 2 else ()
        if seq[i - 1] != witness.shared_state or x not in targets:
            continue
        side = targets[x]
        hits[side] += 1
        z_hits[side] += (encode_bt(seq[i]) if len(seq) > i else TERM_KEY) == z_key
    freq_a = z_hits[0] / hits[0] if hits[0] else float("nan")
    freq_b = z_hits[1] / hits[1] if hits[1] else float("nan")
    mc_gap = freq_a - freq_b
    same = bool(hits[0] and hits[1]) and (mc_gap > 0) == (dp_gap > 0) and mc_gap != 0
    return McWitnessReport(
        samples=samples,
        z_key=z_key,
        dp_gap=dp_gap,
        hits_a=hits[0],
        hits_b=hits[1],
        freq_a=freq_a,
        freq_b=freq_b,
        mc_gap=mc_gap,
        same_direction=same,
    )


# ---------------------------------------------------------------------------
# Joint law of the first two coalescent times; independence holds exactly in
# the linear-fractional case and fails otherwise.
# ---------------------------------------------------------------------------


def joint_first_two_times(env: Environment) -> tuple[DistTable, float]:
    """Exact-to-truncation law of (A_1, A_2) given at least three individuals.

    Returns the normalized joint table keyed 'a1,a2' and a bound on the
    normalized mass lost to truncating geometric spine-sibling laws (zero for
    finite-support environments).
    """
    sweep = _Sweep(env, "b", 5_000_000, "joint sweep exceeded its budget")
    frontier, ended = sweep.step({sweep.start: {"": 1.0}})
    accounted = ended.get("", 0.0)
    joint = DistTable()
    for _, a2, p, hists in sweep.moves(frontier):
        for a1, mass in hists.items():
            mp = mass * p
            if mp:
                accounted += mp
                if a2 is not None:
                    joint.add(f"{a1}{a2}", mp)
    total = float(joint.total())
    if total == 0:
        raise DegenerateEnvironmentError("three individuals have zero probability")
    leak = max(0.0, 1.0 - accounted)
    bound = 2.0 * leak / total
    return joint.normalized(), bound


def _product_of_marginals(joint: DistTable) -> tuple[DistTable, DistTable, DistTable]:
    m1 = DistTable()
    m2 = DistTable()
    for key, mass in joint.items():
        a1, a2 = key.split(",")
        m1.add(a1, mass)
        m2.add(a2, mass)
    prod = DistTable()
    for k1, p1 in m1.items():
        for k2, p2 in m2.items():
            prod[f"{k1},{k2}"] = p1 * p2
    return prod, m1, m2


@dataclass
class LfIidReport:
    env_digest: str
    tv_joint_vs_product: float
    tv_marginal_vs_closed_form: float
    truncation_bound: float
    tolerance: float
    passed: bool


def lf_iid_check(env: Environment) -> LfIidReport:
    """For LF environments the coalescent times are independent draws from
    the closed-form law; check the factorization and the marginals."""
    if not env.is_linear_fractional:
        raise NotLinearFractionalError("independence structure is specific to LF laws")
    joint, bound = joint_first_two_times(env)
    prod, m1, m2 = _product_of_marginals(joint)
    tv_joint = float(tv_distance(joint, prod))
    N = env.horizon
    tails = [1.0] + [lf_a1_tail(env, n) for n in range(1, N + 1)]
    norm = 1.0 - tails[N]
    closed = DistTable({str(n): (tails[n - 1] - tails[n]) / norm for n in range(1, N + 1)})
    tv_marg = max(float(tv_distance(m1, closed)), float(tv_distance(m2, closed)))
    tol = 1e-8
    passed = tv_joint <= tol + bound and tv_marg <= tol + bound
    return LfIidReport(
        env_digest=env.digest(),
        tv_joint_vs_product=tv_joint,
        tv_marginal_vs_closed_form=tv_marg,
        truncation_bound=bound,
        tolerance=tol,
        passed=passed,
    )


def factorization_gap(env: Environment) -> float:
    """TV distance between the joint law of the first two coalescent times
    and the product of its marginals (zero means independence)."""
    joint, _ = joint_first_two_times(env)
    prod, _, _ = _product_of_marginals(joint)
    return float(tv_distance(joint, prod))


def lf_closed_form_checks(env: Environment) -> list[CheckResult]:
    """Closed forms specific to LF environments against the generic routes.

    The tail of the first coalescent time has two derivations: the summed
    ratio coefficients of the composed LF parameters, and the generic pgf
    composition product.  Each level's spine-sibling law must also coincide
    pointwise with its geometric closed form, for k <= 50.
    """
    if not env.is_linear_fractional:
        raise NotLinearFractionalError("closed forms are specific to LF laws")
    tail_gap = 0.0
    for n in range(1, env.horizon + 1):
        tail_gap = max(tail_gap, abs(lf_a1_tail(env, n) - float(a1_tail(env, n))))
    eta_gap = 0.0
    for depth in range(1, env.horizon + 1):
        geom = eta_law_at_depth(env, depth)
        sub = env.shift(env.horizon - depth)
        for k, generic in enumerate(eta_probs_generic(sub, depth, range(51))):
            eta_gap = max(eta_gap, abs(float(generic) - float(geom.prob(k))))
    return [
        CheckResult(
            name="lf-tail-two-routes",
            env_digest=env.digest(),
            metric=tail_gap,
            threshold=1e-12,
            passed=tail_gap <= 1e-12,
            detail=f"n=1..{env.horizon}",
        ),
        CheckResult(
            name="lf-eta-geometric",
            env_digest=env.digest(),
            metric=eta_gap,
            threshold=1e-10,
            passed=eta_gap <= 1e-10,
            detail=f"levels 1..{env.horizon}, k<=50",
        ),
    ]


# ---------------------------------------------------------------------------
# Population-size oracle and the tail identities for the first coalescent
# time.
# ---------------------------------------------------------------------------


def exact_population_law(env: Environment, n: int, guard: int = 200_000) -> dict[int, Number]:
    """Law of the population size n generations below the founder, by direct
    convolution (no generating functions involved)."""
    supports = [_offspring_support(law, guard) for law in env.laws[:n]]
    exact = all(isinstance(law, FiniteSupportLaw) and law.is_exact for law in env.laws[:n])
    # numpy repays its per-call cost on wide supports, such as truncated
    # geometric tails; on a few items the loop's products are cheaper
    if not exact and max(map(len, supports)) > 8:
        return _population_law_float(supports, guard)
    # work counts one product per (reachable sum, support item) pair
    work = 0
    one: Number = Fraction(1) if exact else 1.0
    dist: dict[int, Number] = {1: one}
    for items in supports:
        powers: list[dict[int, Number]] = [{0: one}]
        for _ in range(max(dist)):
            prev = powers[-1]
            work += len(prev) * len(items)
            if work > guard:
                raise EnumerationGuardError("population-law convolution exceeded its budget")
            nxt: dict[int, Number] = {}
            for s, ps in prev.items():
                for k, pk in items:
                    nxt[s + k] = nxt.get(s + k, 0) + ps * pk
            powers.append(nxt)
        new: dict[int, Number] = {}
        for z, pz in dist.items():
            for s, ps in powers[z].items():
                new[s] = new.get(s, 0) + pz * ps
        dist = new
    return dist


def _population_law_float(supports: list[list[tuple[int, Number]]], guard: int) -> dict[int, float]:
    """The convolution powers of ``exact_population_law`` with numpy.  The
    sizes each power reaches are tracked apart from its masses, so that work
    and keys are those of the exact loop."""
    dist, reach = np.array([0.0, 1.0]), np.array([0, 1])
    work = 0
    for items in supports:
        single = np.zeros(items[-1][0] + 1)
        single[[k for k, _ in items]] = [p for _, p in items]
        mark = (single > 0).astype(int)
        power, power_reach = np.ones(1), np.ones(1, dtype=int)
        new = np.zeros((len(dist) - 1) * (len(single) - 1) + 1)
        new_reach = np.zeros(len(new), dtype=int)
        for z in range(len(dist)):
            if z:
                work += int(np.count_nonzero(power_reach)) * len(items)
                if work > guard:
                    raise EnumerationGuardError("population-law convolution exceeded its budget")
                power = np.convolve(power, single)
                power_reach = np.minimum(np.convolve(power_reach, mark), 1)
            if reach[z]:
                new[: len(power)] += dist[z] * power
                new_reach[: len(power)] |= power_reach
        dist, reach = new, new_reach
    return {s: p for s, p in enumerate(dist.tolist()) if reach[s]}


@dataclass
class CheckResult:
    name: str
    env_digest: str
    metric: float
    threshold: float
    passed: bool
    detail: str = ""

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def a1_identity_check(env: Environment, n: int) -> CheckResult:
    """Tail of the first coalescent time computed two unrelated ways.

    The closed form must match the conditional probability that the
    population over the newest n generations is a single line, computed by
    plain convolution.
    """
    closed = float(a1_tail(env, n))
    sub = env.shift(env.horizon - n)
    pop = exact_population_law(sub, n, guard=10_000_000)
    alive = 1 - pop.get(0, 0)
    singleton = pop.get(1, 0)
    by_enum = float(singleton) / float(alive)
    gap = abs(closed - by_enum)
    return CheckResult(
        name=f"first-time-tail-identities-n{n}",
        env_digest=env.digest(),
        metric=gap,
        threshold=1e-10,
        passed=gap <= 1e-10,
        detail=f"closed={closed!r} enumeration={by_enum!r}",
    )


def a1_telescoping_check(env: Environment) -> CheckResult:
    """Closed-form tail of the first coalescent time against the running
    product of P(0) of the spine-sibling laws, at every level 1..N: within
    1e-12 in floats, identically in exact arithmetic."""
    gap: Number = 0
    for n in range(1, env.horizon + 1):
        closed = a1_tail(env, n)
        gap = max(gap, abs(closed - env.levels.column(n)[3]))
    threshold = 0.0 if isinstance(closed, Fraction) else 1e-12
    return CheckResult(
        name="a1-tail-telescoping",
        env_digest=env.digest(),
        metric=float(gap),
        threshold=threshold,
        passed=gap <= threshold,
        detail=f"levels 1..{env.horizon}",
    )


def tree_vs_chain_check(
    env: Environment,
    rational: bool = False,
    guard: int = 2_000_000,
) -> CheckResult:
    """Total variation between the tree law and the b chain law, streamed:
    each chain outcome is compared with the tree's numerator as it ends."""
    gap, outcomes, extra = _tree_chain_gap(env, guard, rational)
    passed = float(gap) <= 1e-10 + extra
    mode = "rational" if rational else "float"
    return CheckResult(
        name=f"tree-vs-chain-tv-{mode}",
        env_digest=env.digest(),
        metric=float(gap),
        threshold=1e-10,
        passed=passed,
        detail=f"outcomes={outcomes} truncation={extra:.3e} exact_zero={gap == 0}",
    )


def reference_table_check() -> CheckResult:
    """The embedded reference genealogy re-derived, as one check line."""
    ref = figure1_consistency()
    return CheckResult(
        name="reference-table",
        env_digest="-",
        metric=0.0 if ref.passed else 1.0,
        threshold=0.0,
        passed=ref.passed,
        detail="; ".join(ref.mismatches) or "all rows re-derived",
    )


def run_verify_suite(
    env: Environment,
    rational: bool = False,
    witness: bool = False,
    witness_mc_samples: int = 0,
    seed: int = 0,
    guard: int = 2_000_000,
) -> list[CheckResult]:
    """The default verification battery for one environment."""
    results = [reference_table_check()]
    # distinct genealogies grow as g(n) = g(n-1) + g(n-1)^2 per generation,
    # so the exhaustive comparison is a short-horizon instrument; geometric
    # tails further cap the LF case at horizon one
    rational_sweep = rational and env.is_finite_support and env.horizon <= 3
    if (env.is_finite_support and env.horizon <= 3) or env.horizon == 1:
        results.append(tree_vs_chain_check(env, guard=guard))
        if rational_sweep:
            results.append(tree_vs_chain_check(env, rational=True, guard=guard))
    for n in range(1, min(3, env.horizon) + 1):
        if env.is_finite_support or n <= 2:
            results.append(a1_identity_check(env, n))
    # exact only where the rational sweep runs: exact values grow doubly
    # exponentially in size with the depth
    results.append(a1_telescoping_check(env.as_rational() if rational_sweep else env))
    if env.is_linear_fractional:
        results.extend(lf_closed_form_checks(env))
        # the joint sweep stays tractable only for short horizons: the fresh
        # geometric draws below the coalescent level multiply combinatorially
        if env.horizon <= 3:
            rep = lf_iid_check(env)
            results.append(
                CheckResult(
                    name="lf-independence",
                    env_digest=rep.env_digest,
                    metric=max(rep.tv_joint_vs_product, rep.tv_marginal_vs_closed_form),
                    threshold=rep.tolerance + rep.truncation_bound,
                    passed=rep.passed,
                    detail=f"joint={rep.tv_joint_vs_product:.3e} marginal={rep.tv_marginal_vs_closed_form:.3e}",
                )
            )
    if witness:
        found = btilde_witness_search(env)
        metric, passed, detail = 0.0, False, "no history dependence found (inconclusive)"
        if found is not None:
            metric, passed = found.tv, found.tv > WITNESS_TV
            detail = (
                f"step={found.step_index} shared={encode_bt(found.shared_state)} "
                f"histories={encode_bt(found.history_a)}|{encode_bt(found.history_b)}"
            )
            if witness_mc_samples:
                mc = mc_witness_check(env, found, witness_mc_samples, seed)
                passed = passed and mc.same_direction
                detail += f" mc_gap={mc.mc_gap:.4f} dp_gap={mc.dp_gap:.4f}"
        results.append(
            CheckResult(
                name="reduced-sequence-witness",
                env_digest=env.digest(),
                metric=metric,
                threshold=WITNESS_TV,
                passed=passed,
                detail=detail,
            )
        )
    return results
