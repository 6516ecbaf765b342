"""Cross-checks between forward tree laws and backward chain laws.

The two central objects are

* ``exact_tree_law``: the genealogy law (K and the coalescent times) obtained
  by enumerating every possible tree, conditioned on survival, and
* ``exact_chain_law``: the same law obtained by exhaustively sweeping the
  backward-chain transition kernel.

They are computed by unrelated code paths, so their agreement is the main
correctness certificate of the package.  On the exact form of the
environment, which every dyadic float environment has, the certificate
compares the two routes as weighted automata over the coalescent times, in
residues, and enumerates the outcomes only to size a failure or where the
automata cannot settle it.  Further
checks cover the identities for the first coalescent time, the embedded
hand-worked reference genealogy, the non-Markov witness for the reduced
point-measure sequence, and the independence structure special to
linear-fractional environments.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .automata import PRIMES, same_word_law, tree_automaton, word_count
from .chains import ChainRun, State, validate_b_run
from .disttable import DistTable, outcome_key, tv_distance
from .environment import TAIL_CUT, Environment, lf_a1_tail
from .errors import (
    ChainStateError,
    DegenerateEnvironmentError,
    EnumerationGuardError,
    EnvFormatError,
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
    the (level, value) pair of each value, None for 0, with its probability.
    ``nonzero`` is the sum of the items' probabilities past 0, which falls
    short of ``1 - zero`` by the mass a truncated table leaves out."""

    items: tuple[tuple[tuple[int, int] | None, Number], ...]
    zero: Number
    nonzero: Number


def _eta_tables(env: Environment) -> list[_LevelTable]:
    out = []
    for level, law in enumerate(env.levels.etas(), 1):
        probs = law.materialized().probs
        items = tuple(((level, k) if k else None, p) for k, p in enumerate(probs) if p > 0)
        out.append(_LevelTable(items=items, zero=probs[0],
                               nonzero=sum(p for pr, p in items if pr)))
    return out


# ---------------------------------------------------------------------------
# Exact genealogy law by tree enumeration.
# ---------------------------------------------------------------------------


def exact_tree_law(env: Environment, guard: int = 500_000) -> DistTable:
    """Law of (K, coalescent times) over all trees, conditioned on K >= 1.

    Works bottom-up: the genealogy pattern of a subtree is assembled from the
    patterns of its child subtrees, joined at the subtree's root level.  This
    visits exactly the information content of every tree; ``guard`` bounds
    the number of child-pattern combinations examined.  Outcomes are listed
    by K, then by the text of their times.  An exact environment gives one
    ``Fraction`` per outcome, formed from the integer numerators.
    """
    patterns, dead, alive = _tree_numerators(env, guard)
    if env.horizon == 1:
        patterns = {"1," * (k - 1): p for k, p in patterns.items()}
    table = DistTable({
        outcome_key(k, a): Fraction(p, alive) if env.is_exact else p / alive
        for k, a, p in sorted((t.count(",") + 1, t[:-1], p) for t, p in patterns.items())
    })
    if not env.is_exact:  # exact supports are complete
        table.truncated_mass = max(0.0, float(1 - dead - alive)) / float(alive)
    return table


def _tree_numerators(env: Environment,
                     guard: int) -> tuple[dict[str | int, Number], Number, Number]:
    """The surviving patterns of ``exact_tree_law`` with their masses, the
    dead mass and the surviving mass ``alive``.

    A pattern is keyed by the b sweep's history text, every coalescent time
    followed by a comma: ``""`` for K = 1, ``"1,3,"`` for K = 3 with times
    (1, 3); the dead pattern is keyed None.  At horizon 1 every time is 1,
    and a pattern is keyed by K, so that the keys' memory grows with the
    support, not with its square.  The patterns of a subtree's
    ``c`` children are the combinations of ``c`` child patterns in
    ``itertools.product`` order, and each key extends the key of its first
    ``c - 1`` children, so a key is one concatenation, shared across the
    child counts.  A combination's mass is ``math.prod`` of its children's
    masses from ``P(count)``, the same left-to-right products as a loop.
    ``guard`` bounds the combinations, charged per depth before any is built.

    Exact masses are integer numerators over one common denominator per
    depth, so that merging two patterns is an integer addition; a pattern's
    probability given survival is its numerator over ``alive``.
    """
    exact = env.is_exact
    N = env.horizon
    supports = [_offspring_support(law, guard) for law in env.laws]

    # a pattern's mass is relative to ``total``, the mass of all subtrees
    # rooted at the current depth: 1, or in exact mode the common
    # denominator of the numerators
    total: Number = 1 if exact else 1.0
    patterns: dict[str | int | None, Number] = {"": total}
    work = 0
    for depth in range(N - 1, -1, -1):
        junction = f"{N - depth},"
        items = supports[depth]
        for c, _ in items:  # stops before n ** c grows past the guard
            work += len(patterns) ** c
            if work > guard:
                raise EnumerationGuardError(
                    f"tree enumeration exceeded {guard} pattern combinations")
        if exact:
            # P(count) * prod(num_i / total) over total' = den * total**top
            den = math.lcm(*(p.denominator for _, p in items))
            top = items[-1][0]
            items = [(c, p.numerator * (den // p.denominator) * total ** (top - c))
                     for c, p in items]
            total = den * total**top
        zero = 0 * total
        if N == 1:
            # the founder's count is K, and each child's one pattern has mass 1
            patterns = {count or None: zero + p_count for count, p_count in items}
            break
        child_keys, child_masses = list(patterns), list(patterns.values())
        merged: dict[str | None, Number] = {}
        keys: list[str | None] = [None]  # the keys of every combination of `built` children
        built = 0
        for count, p_count in items:
            while built < count:
                keys = [ck if key is None else key if ck is None else key + junction + ck
                        for key in keys for ck in child_keys]
                built += 1
            # below the deepest level a child's one pattern has mass 1, and
            # any number of them leaves P(count) as it is
            masses = [p_count] if child_masses == [1] else (
                math.prod(ms, start=p_count) for ms in itertools.product(child_masses, repeat=count))
            for key, mass in zip(keys, masses):
                merged[key] = merged.get(key, zero) + mass
        patterns = merged

    dead = patterns.pop(None, 0 * total)
    alive = sum(patterns.values())
    if alive == 0:
        raise DegenerateEnvironmentError("no surviving tree has positive probability")
    return patterns, dead, alive


# ---------------------------------------------------------------------------
# Exact genealogy law by sweeping the backward-chain kernel.
# ---------------------------------------------------------------------------


def _transitions(state: State | None, tables: list[_LevelTable], one: Number):
    """All transitions out of a chain state, with their probabilities.

    ``(0, ())`` is the start of the truncated (b) chain, ``None`` that of the
    fixed-length (d) chain.  The levels below the first one are drawn afresh
    and that level loses one.  A b state left without pairs draws the levels
    beyond its length until a nonzero value, and terminates (``None``) if
    none comes up to the horizon; a d start without pairs is yielded as it
    is.  Probabilities sum to one minus the truncation leak of the tables,
    and each is a product that starts from ``one``.
    """
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
    all of that state's histories in one inner loop.  A history is a fold
    of the run so far, which the caller chooses: the text of the emitted
    times, the first time, the last reduced states.  Each distinct state's
    transitions are generated once per sweep, with the first level of every
    next state (``None`` ends the run, and so does a d state without pairs).
    ``work`` counts every transition examined once per history that reads
    it, so a state charges its number of transitions times its number of
    histories; more than ``guard`` raises.  So does a state's list of
    transitions as it is built past what the guard has left, every state
    having a history, with each transition charged the pairs of its next
    state, at least 1, as those pairs are what the list holds.  A caller
    that needs only the next time reads ``time_law``, charged the same way.

    Exact masses are integers: numerators over ``scale ** i`` after i steps,
    where ``scale`` is the product of the levels' common denominators, so
    that merging two masses is an integer addition.  Every frontier starts
    from ``one``.
    """

    def __init__(self, env: Environment, process: str, guard: int, overflow: str):
        if process not in ("b", "d"):
            raise ValueError("process must be 'b' or 'd'")
        self.env = env
        self.start = (0, ()) if process == "b" else None
        self.exact = env.is_exact
        self.one: Number = 1 if self.exact else 1.0
        self.guard = guard
        self.overflow = overflow
        self.work = 0
        self._memo: dict = {}
        self._laws: dict = {}

    @cached_property
    def tables(self) -> list[_LevelTable]:
        """The eta tables, built on first use."""
        return _eta_tables(self.env)

    @cached_property
    def scale(self) -> int:
        """The product of the tables' common denominators; 1 in floats."""
        return math.prod(math.lcm(t.zero.denominator, *(q.denominator for _, q in t.items))
                         for t in self.tables) if self.exact else 1

    def transitions(self, state) -> list[tuple[State | None, int | None, Number]]:
        """(next state or None, its first level, probability) of every
        transition out of ``state``."""
        out = self._memo.get(state)
        if out is None:
            # each combination of the levels drawn afresh gives a transition
            # that holds its nonzero values and the state's fixed pairs, or
            # one pair at least; so too many pairs raise before any is built
            room = self.guard - self.work
            first = len(self.tables) + 1 if state is None else state[1][0][0] if state[1] else 1
            combos, pairs = 1, len(bt_star(state[1])) if state else 0
            for t in self.tables[: first - 1]:
                pairs = pairs * len(t.items) + combos * (len(t.items) - (t.zero > 0))
                combos *= len(t.items)
            if max(combos, pairs) > room:
                raise EnumerationGuardError(self.overflow)
            out = []
            for nxt, p in _transitions(state, self.tables, self.one):
                a = nxt[1][0][0] if nxt and nxt[1] else None
                room -= len(nxt[1]) if a else 1
                if room < 0:
                    raise EnumerationGuardError(self.overflow)
                if self.exact:
                    p = p.numerator * (self.scale // p.denominator)
                out.append((None if a is None else nxt, a, p))
            self._memo[state] = out
        return out

    def time_law(self, state) -> list[tuple[int | None, Number]]:
        """(next coalescent time or None, probability) out of a b state:
        its ``transitions`` summed by first level, read off the tables
        without building them.

        The first nonzero value among the levels drawn afresh below the
        state's first level f is at level j with probability z_1 ... z_{j-1}
        s_j, z being a table's ``zero`` and s its ``nonzero``; the levels
        above j are left undrawn, so their truncation leaks nothing.  If
        all of them are 0, the time is the first level of the state's fixed
        pairs, or, without any, the first nonzero level past the state's
        length, as in the extension of ``_transitions``; it ends at the
        horizon or where a product reaches 0.  Products start from ``one``;
        exact ones are numerators over ``scale``, as in ``transitions``."""
        law = self._laws.get(state)
        if law is None:
            length, pairs = state
            fixed = bt_star(pairs)
            first = pairs[0][0] if pairs else 1
            levels = list(range(1, first))
            if not fixed:
                levels += range(length + 1, len(self.tables) + 1)
            law = []
            p = self.one
            for level in levels:
                t = self.tables[level - 1]
                if t.nonzero:
                    law.append((level, p * t.nonzero))
                p = p * t.zero
                if p == 0:
                    break
            else:
                law.append((fixed[0][0] if fixed else None, p))
            if self.exact:
                law = [(a, p.numerator * (self.scale // p.denominator)) for a, p in law]
            self._laws[state] = law
        return law

    def charge(self, units: int) -> None:
        """Add ``units`` to ``work``; past the guard, raise."""
        self.work += units
        if self.work > self.guard:
            raise EnumerationGuardError(self.overflow)

    def step(self, frontier: dict, fold) -> tuple[dict, dict]:
        """The next frontier and the mass of the runs that ended, each
        history replaced by its fold.  ``fold(histories, time, next state)``
        gives the next keys of the histories that take one move, in their
        order; the time is None for a run that ends.  It is called once per
        move, which keeps a Python call out of the loop over histories.
        Masses that fold to one key under one state merge, in the order of
        the moves.  Moves of zero mass are dropped.  Each state charges its
        transitions times its histories before its moves are taken."""
        zero = 0 * self.one
        new: dict = {}
        ended: dict = {}
        for state, hists in frontier.items():
            out = self.transitions(state)
            self.charge(len(out) * len(hists))
            for nxt, a, p in out:
                if a is None:
                    into = ended
                else:
                    into = new.get(nxt)
                    if into is None:
                        into = new[nxt] = {}
                for key, mass in zip(fold(hists, a, nxt), hists.values()):
                    mp = mass * p
                    if mp:
                        into[key] = into.get(key, zero) + mp
        return {state: hists for state, hists in new.items() if hists}, ended


def exact_chain_law(env: Environment, guard: int = 2_000_000, process: str = "b") -> DistTable:
    """Law of (K, emitted coalescent times) of a backward chain, by exact
    forward sweep of its transition kernel from the initial state.  A float
    sweep stops once less than 1e-14 of the mass is still running."""
    done = DistTable()
    for k, hist, mass, den in _chain_outcomes(env, process, guard):
        done[outcome_key(k, hist[:-1])] = Fraction(mass, den) if env.is_exact else mass
    done.truncated_mass = 0.0 if env.is_exact else max(0.0, 1.0 - float(done.total()))
    return done


def _times_text(hists, a: int | None, _):
    """History fold of the chain sweeps: the text of the emitted times, each
    followed by a comma, which is also the tree's pattern key.  A run that
    ends emits no time and keeps its text."""
    if a is None:
        return hists
    suffix = f"{a},"
    return [hist + suffix for hist in hists]


def _chain_outcomes(env: Environment, process: str, guard: int):
    """(K, history, mass, denominator) of every run of the chain sweep,
    yielded at the end of the step that ends it, the history folded by
    ``_times_text``.  Exact masses are integers over ``scale ** K``; float
    masses are over 1.

    At horizon 1 every time is 1 and every step after the first has
    probability 1, so a run whose first step draws k from the level-1 eta
    table ends at step k + 1 with that draw's mass; those runs are read off
    the table in the order the sweep ends them, with its float stop rule."""
    sweep = _Sweep(env, process, guard, f"chain sweep exceeded {guard} transitions")
    if env.horizon == 1:
        runs = sorted((nxt[1][0][1] if nxt else 0, p) for nxt, _, p in sweep.transitions(sweep.start))
        # the mass of the runs from the i-th on: the sweep's frontier
        going = list(itertools.accumulate(p for _, p in reversed(runs)))[::-1]
        for i, (k, p) in enumerate(runs, 1):
            yield k + 1, "1," * k, p * sweep.scale**k, sweep.scale ** (k + 1)
            if not sweep.exact and i < len(runs) and going[i] < 1e-14:
                return
        return
    frontier = {sweep.start: {"": sweep.one}}
    steps = 0
    while frontier:
        steps += 1
        frontier, ended = sweep.step(frontier, _times_text)
        # a run that ends at step K emitted K - 1 times
        den = sweep.scale**steps
        for hist, mass in ended.items():
            yield steps, hist, mass, den
        if not sweep.exact and frontier and sum(
                mass for hists in frontier.values() for mass in hists.values()) < 1e-14:
            break


def _tree_chain_gap(env: Environment, guard: int) -> tuple[Number, int, float]:
    """TV distance between the tree law and the b chain law, the number of
    tree outcomes and the truncation slack of the two laws, with no table of
    outcome keys on either side.

    The b chain's outcomes are compared as they end against the tree's
    numerators, which are popped by the sweep's history text as they are
    matched, or at horizon 1 by K, as ``_tree_numerators`` keys them there.
    For an exact environment an
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
    exact = env.is_exact
    tree, dead, alive = _tree_numerators(env, guard)
    outcomes = len(tree)
    gap: Number = Fraction(0) if exact else 0.0
    ended = 0.0
    by_k = env.horizon == 1
    for k, hist, mass, den in _chain_outcomes(env, "b", guard):
        num = tree.pop(k if by_k else hist, 0)
        if exact:
            if num * den != mass * alive:
                gap += abs(Fraction(num, alive) - Fraction(mass, den))
        else:
            ended += mass
            if num / alive != mass:
                gap += abs(num / alive - mass)
    if exact:
        return (gap + sum(Fraction(num, alive) for num in tree.values())) / 2, outcomes, 0.0
    for num in tree.values():
        gap += num / alive
    slack = 0.0
    if not env.is_finite_support:
        slack = max(0.0, float(1 - dead - alive)) / float(alive) + max(0.0, 1.0 - ended)
    return 0.5 * gap, outcomes, slack


# ---------------------------------------------------------------------------
# The exact certificate by automaton equivalence: the b chain's kernel as an
# automaton of ``automata``, against the tree's depth-first walk.
# ---------------------------------------------------------------------------


def _chain_automaton(sweep: _Sweep):
    """The b chain from ``sweep.start`` over the states it reaches by moves
    of positive mass, its weights the integer numerators over
    ``sweep.scale`` of ``_Sweep.transitions``: a move's letter is the first
    level of its next state, and an ending move adds to the end weight.
    Each state charges its transitions once."""
    moves, end = {}, {}
    todo = [sweep.start]
    while todo:
        state = todo.pop()
        if state in moves:
            continue
        out = sweep.transitions(state)
        sweep.charge(len(out))
        moves[state] = [(a, nxt, p) for nxt, a, p in out if a is not None and p]
        end[state] = sum(p for _, a, p in out if a is None)
        todo.extend(nxt for _, nxt, _ in moves[state])
    return {sweep.start: 1}, moves, end


def _automata_verdict(env: Environment | None, guard: int) -> int | None:
    """The tree automaton of an exact environment against its b chain
    automaton, mod each of ``PRIMES``: the number of outcomes when the two
    word laws agree, 0 when they differ, and None when that is not settled:
    no exact environment, no tree survives, a denominator is 0 mod a prime,
    or the work of the automata and their span checks passes ``guard``."""
    if env is None or env.levels.column(env.horizon)[0] == 1:
        return None
    sweep = _Sweep(env, "b", guard, "automata exceeded their budget")
    try:
        chain = None
        for prime in PRIMES:
            # a tree automaton charges its moves before it builds any, so a
            # wide law passes the guard before the chain's tables are formed
            tree = tree_automaton(env, prime, sweep.charge)
            chain = start, moves, end = chain or _chain_automaton(sweep)
            k = pow(sweep.scale, -1, prime)  # numerators over scale
            residues = (start, {s: [(a, nxt, p * k % prime) for a, nxt, p in out]
                                for s, out in moves.items()},
                        {s: e * k % prime for s, e in end.items()})
            if not same_word_law(tree, residues, prime, sweep.charge):
                return 0
    except (EnumerationGuardError, ValueError):
        return None
    return word_count(chain)


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


def figure1_consistency() -> CheckResult:
    """The ``reference-table`` check line: every derived row of the embedded
    reference genealogy re-derived.

    The listed lengths must be the running maxima of the times, the rows
    must be the b chain's states of the times, its run cut after the last
    row (``validate_b_run``), and the reduced point-measure recursion must
    reproduce the listed states.  Each failure adds its own clause to the
    detail.
    """
    mismatches: list[str] = []
    running = tuple(itertools.accumulate(REFERENCE_A, max))
    if running != REFERENCE_L:
        mismatches.append(f"lengths: running maxima {running}")
    try:
        run = ChainRun(a_values=list(REFERENCE_A), states=list(REFERENCE_B_ROWS))
        validate_b_run(run, horizon=max(REFERENCE_L))
    except ChainStateError as exc:
        mismatches.append(f"chain states: {exc}")
    marks = [pairs[0][1] for _, pairs in REFERENCE_B_ROWS]
    derived_btilde = bt_fold(REFERENCE_A, marks)
    if derived_btilde != REFERENCE_BTILDE:
        mismatches.append(f"reduced sequence: derived {derived_btilde}")
    return CheckResult(
        name="reference-table",
        env=None,
        metric=1.0 if mismatches else 0.0,
        threshold=0.0,
        passed=not mismatches,
        detail="; ".join(mismatches) or "all rows re-derived",
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
    ``env`` is the environment searched; ``env_digest`` is computed from it
    when first read.
    """

    env: Environment
    step_index: int
    shared_state: BtState
    history_a: BtState
    history_b: BtState
    law_a: DistTable
    law_b: DistTable
    tv: float

    @property
    def env_digest(self) -> str:
        return self.env.digest()


def btilde_witness_search(env: Environment) -> Witness | None:
    """Exact search for a two-step history dependence of the reduced sequence.

    Sweeps the fixed-length chain, each history folded to the last two
    reduced states and the next one, so that each step's output holds the
    conditional laws.  At each step, histories (previous, current) sharing
    the same current state are compared through their conditional laws of
    the next reduced state (termination is an explicit outcome).  Returns
    the first pair whose laws differ by more than ``WITNESS_TV`` in total
    variation, within ten steps.
    """
    if not env.is_finite_support:
        raise EnumerationGuardError("witness search requires finite-support laws")
    sweep = _Sweep(env, "d", 5_000_000, "witness sweep exceeded its budget")

    def fold(hists, a, nxt):
        # the last two reduced states and the next one, None at the end
        if a is None:
            return [(x, y, None) for _, x, y in hists]
        mark = nxt[1][0][1]
        return [(x, y, bt_update(y, a, mark)) for _, x, y in hists]

    frontier = {sweep.start: {((), (), ()): sweep.one}}
    for step in range(1, 11):
        frontier, ended = sweep.step(frontier, fold)
        # the conditional laws of the next reduced state given the last two
        cond: dict[tuple[BtState, BtState], DistTable] = defaultdict(DistTable)
        for hists in (*frontier.values(), ended):
            for (x, y, z), mass in hists.items():
                cond[(x, y)].add(TERM_KEY if z is None else encode_bt(z), mass)
        by_shared: dict[BtState, list[BtState]] = {}
        for x, y in cond:
            by_shared.setdefault(y, []).append(x)
        for y in sorted(by_shared):
            xs = sorted(by_shared[y])
            for i, j in itertools.combinations(range(len(xs)), 2):
                law_a = cond[(xs[i], y)].normalized()
                law_b = cond[(xs[j], y)].normalized()
                gap = float(tv_distance(law_a, law_b))
                if gap > WITNESS_TV:
                    return Witness(
                        env=env,
                        step_index=step - 1,
                        shared_state=y,
                        history_a=xs[i],
                        history_b=xs[j],
                        law_a=law_a,
                        law_b=law_b,
                        tv=gap,
                    )
        if not frontier:
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
    dp_gap = float(witness.law_a.get(z_key, 0) - witness.law_b.get(z_key, 0))
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

    A_1 comes from one step of the b chain's sweep, each state keyed by its
    first time; A_2 from the state's ``_Sweep.time_law``, read off the eta
    tables, so the second step builds no transitions.  Returns the
    normalized joint table keyed 'a1,a2' and a bound on the normalized mass
    lost to truncating geometric spine-sibling laws: twice one less every
    mass swept, over the joint's total (zero for an exact environment).
    """
    sweep = _Sweep(env, "b", 5_000_000, "joint sweep exceeded its budget")
    # the history is the text of A_1; the second step needs only the law of
    # each state's next time, not its transitions
    frontier, ended = sweep.step({sweep.start: {"": sweep.one}}, _times_text)
    # the mass lost to truncation is one less every mass swept, rounded once
    # by fsum; read in floats only, as exact masses are over scale ** step
    lost = [1.0, *(-mass for mass in ended.values())]
    joint = DistTable()
    for state, hists in frontier.items():
        law = sweep.time_law(state)
        sweep.charge(len(law) * len(hists))
        for a2, p in law:
            for a1, mass in hists.items():
                mp = mass * p
                if mp:
                    lost.append(-mp)
                    if a2 is not None:
                        joint.add(f"{a1}{a2}", mp)
    total = joint.total()
    if total == 0:
        raise DegenerateEnvironmentError("three individuals have zero probability")
    if sweep.exact:  # exact supports are complete
        return joint.normalized(), 0.0
    return joint.normalized(), 2.0 * max(0.0, math.fsum(lost)) / total


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


def lf_iid_check(env: Environment) -> CheckResult:
    """The ``lf-independence`` check line.  For LF environments the
    coalescent times are independent draws from the closed-form law; the
    metric is the larger of the total variations of the factorization and
    of the marginals, the threshold 1e-8 plus the truncation bound."""
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
    threshold = 1e-8 + bound
    return CheckResult(
        name="lf-independence",
        env=env,
        metric=max(tv_joint, tv_marg),
        threshold=threshold,
        passed=tv_joint <= threshold and tv_marg <= threshold,
        detail=f"joint={tv_joint:.3e} marginal={tv_marg:.3e}",
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
            env=env,
            metric=tail_gap,
            threshold=1e-12,
            passed=tail_gap <= 1e-12,
            detail=f"n=1..{env.horizon}",
        ),
        CheckResult(
            name="lf-eta-geometric",
            env=env,
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
    exact = env.is_exact
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
    """One verify line.  ``env`` is the environment checked, None for the
    ``reference-table`` line; ``env_digest`` is computed from it when first
    read (``"-"`` without one), so only JSON output pays for the digest."""

    name: str
    env: Environment | None
    metric: float
    threshold: float
    passed: bool
    detail: str = ""

    @property
    def env_digest(self) -> str:
        return "-" if self.env is None else self.env.digest()

    def to_json(self) -> str:
        # field by field: asdict would copy the environment
        return json.dumps({"name": self.name, "env_digest": self.env_digest,
                           "metric": self.metric, "threshold": self.threshold,
                           "passed": self.passed, "detail": self.detail}, sort_keys=True)


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
        env=env,
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
    env.levels.fill()
    for n in range(1, env.horizon + 1):
        closed = a1_tail(env, n)
        gap = max(gap, abs(closed - env.levels.column(n)[3]))
    threshold = 0.0 if env.is_exact else 1e-12
    return CheckResult(
        name="a1-tail-telescoping",
        env=env,
        metric=float(gap),
        threshold=threshold,
        passed=gap <= threshold,
        detail=f"levels 1..{env.horizon}",
    )


def _exact_form(env: Environment) -> Environment | None:
    """``env`` if it is exact, else its exact binary form, None without one
    (a law that is not dyadic or does not sum to exactly 1, or an lf law)."""
    try:
        return env if env.is_exact else env.as_rational()
    except EnvFormatError:
        return None


def tree_vs_chain_check(env: Environment, guard: int = 2_000_000) -> CheckResult:
    """Total variation between the tree law and the b chain law.

    The two laws of the environment's exact form are first compared as
    automata (``_automata_verdict``): where they agree, the line reads a gap
    of 0.  The outcomes are enumerated, each chain outcome compared with the
    tree's numerator as it ends (``_tree_chain_gap``), only to size a gap
    where the automata differ, and the line then fails whatever the gap, or
    where they cannot settle it: no exact form, as for a law that is not
    dyadic or an lf law, and the cases of ``_automata_verdict``.  An exact
    environment passes only at a gap of 0, a float one within 1e-10 and the
    truncation slack."""
    return _tree_vs_chain_line(env, guard, _automata_verdict(_exact_form(env), guard))


def _tree_vs_chain_line(env: Environment, guard: int, verdict: int | None) -> CheckResult:
    """``tree_vs_chain_check`` given the verdict of the automata."""
    exact = env.is_exact
    if verdict:
        # the enumeration's sweep forms the eta laws, which can fail in
        # floats where those of the exact form do not
        env.levels.etas()
        gap, outcomes, extra = 0, verdict, 0.0
    else:
        gap, outcomes, extra = _tree_chain_gap(env, guard)
    threshold = 0.0 if exact else 1e-10
    mode = "rational" if exact else "float"
    return CheckResult(
        name=f"tree-vs-chain-tv-{mode}",
        env=env,
        metric=float(gap),
        threshold=threshold,
        passed=verdict != 0 and gap <= threshold + extra,
        detail=f"outcomes={outcomes} truncation={extra:.3e} exact_zero={gap == 0}",
    )


def witness_check(env: Environment, mc_samples: int, seed: int) -> CheckResult:
    """The ``reduced-sequence-witness`` check line: the exact witness
    search, and with ``mc_samples`` its Monte Carlo replication, which must
    then agree in direction.  No witness within the search is inconclusive
    and fails."""
    found = btilde_witness_search(env)
    metric, passed, detail = 0.0, False, "no history dependence found (inconclusive)"
    if found is not None:
        metric, passed = found.tv, found.tv > WITNESS_TV
        detail = (
            f"step={found.step_index} shared={encode_bt(found.shared_state)} "
            f"histories={encode_bt(found.history_a)}|{encode_bt(found.history_b)}"
        )
        if mc_samples:
            mc = mc_witness_check(env, found, mc_samples, seed)
            passed = passed and mc.same_direction
            detail += f" mc_gap={mc.mc_gap:.4f} dp_gap={mc.dp_gap:.4f}"
    return CheckResult(
        name="reduced-sequence-witness",
        env=env,
        metric=metric,
        threshold=WITNESS_TV,
        passed=passed,
        detail=detail,
    )


def run_verify_suite(
    env: Environment,
    rational: bool = False,
    witness: bool = False,
    witness_mc_samples: int = 0,
    seed: int = 0,
    guard: int = 2_000_000,
) -> list[CheckResult]:
    """The default verification battery for one environment; ``rational``
    also checks a short finite-support one in its exact form."""
    results = [figure1_consistency()]
    # the span check of the automata grows with the cube of their states, a
    # product of the laws' widths over the levels, and past horizon 3 it
    # costs seconds; an lf law has no exact form, and its geometric tails cap
    # the enumeration at horizon one
    telescoped = env
    if (env.is_finite_support and env.horizon <= 3) or env.horizon == 1:
        # the float and the rational line read one verdict of one exact form
        exact = _exact_form(env)
        verdict = _automata_verdict(exact, guard)
        results.append(_tree_vs_chain_line(env, guard, verdict))
        if rational and env.is_finite_support and env.horizon <= 3:
            # exact only where the rational sweep runs: exact values grow
            # doubly exponentially in size with the depth
            telescoped = exact or env.as_rational()
            results.append(_tree_vs_chain_line(telescoped, guard, verdict))
    for n in range(1, min(3, env.horizon) + 1):
        if env.is_finite_support or n <= 2:
            results.append(a1_identity_check(env, n))
    results.append(a1_telescoping_check(telescoped))
    if env.is_linear_fractional:
        results.extend(lf_closed_form_checks(env))
        # the joint's first step has a state per level and nonzero table
        # item, about N times the geometric support length; lifting this
        # gate needs a budget rule for such long supports
        if env.horizon <= 3:
            results.append(lf_iid_check(env))
    if witness:
        results.append(witness_check(env, witness_mc_samples, seed))
    return results
