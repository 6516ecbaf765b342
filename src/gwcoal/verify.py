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

from .chains import BState, ChainRun, validate_b_run
from .disttable import DistTable, outcome_key, tv_distance
from .environment import Environment, lf_a1_tail
from .errors import (
    DegenerateEnvironmentError,
    EnumerationGuardError,
    NotLinearFractionalError,
)
from .laws import FiniteSupportLaw, Number
from .pgf import a1_tail, eta_law_at_depth, eta_probs_generic
from .sampling import as_stream
from .tree import BtState, Tree, _draw_counts, bt_update, cpp_and_marks

TERM_KEY = "TERMINATED"


# ---------------------------------------------------------------------------
# Offspring and spine-sibling supports, with explicit truncation for the
# geometric tails of linear-fractional laws.
# ---------------------------------------------------------------------------


def _offspring_support(law, tol: float) -> list[tuple[int, Number]]:
    """(count, prob) pairs covering all but at most ``tol`` of the mass."""
    if isinstance(law, FiniteSupportLaw):
        return [(k, p) for k, p in enumerate(law.probs) if p > 0]
    if law.r == 0:
        return [(0, 1.0)]
    items = [(0, 1.0 - law.r)] if law.r < 1 else []
    k = 1
    tail = law.r  # P(count >= k)
    while tail > tol:
        items.append((k, law.r * law.p * law.q ** (k - 1)))
        tail = law.r * law.q ** k
        k += 1
    return items


@dataclass(frozen=True)
class _LevelTable:
    """Spine-sibling law at one ancestor level, as explicit support items."""

    items: tuple[tuple[int, Number], ...]
    zero: Number


def _eta_tables(env: Environment, rational: bool = False, tol: float = 1e-13) -> list[_LevelTable]:
    base = env.as_rational() if rational else env
    out = []
    for level in range(1, base.horizon + 1):
        law = eta_law_at_depth(base, level).materialized(tol)
        items = tuple((k, p) for k, p in enumerate(law.probs) if p > 0)
        out.append(_LevelTable(items=items, zero=law.probs[0]))
    return out


# ---------------------------------------------------------------------------
# Exact genealogy law by tree enumeration.
# ---------------------------------------------------------------------------


def exact_tree_law(
    env: Environment,
    guard: int = 500_000,
    rational: bool = False,
    max_support: int | None = None,
    truncation_tol: float = 1e-13,
) -> DistTable:
    """Law of (K, coalescent times) over all trees, conditioned on K >= 1.

    Works bottom-up: the genealogy pattern of a subtree is assembled from the
    patterns of its child subtrees, joined at the subtree's root level.  This
    visits exactly the information content of every tree; ``guard`` bounds
    the number of child-pattern combinations examined.

    Exact masses are integer numerators over one common denominator per
    depth, so that merging two patterns is an integer addition; one
    ``Fraction`` per outcome is formed at the end.
    """
    base = env.as_rational() if rational else env
    N = base.horizon
    if max_support is not None:
        for j, law in enumerate(base.laws):
            bound = law.max_children
            if bound is None or bound > max_support:
                raise EnumerationGuardError(
                    f"laws[{j}] support exceeds the cap of {max_support}"
                )
    supports = [_offspring_support(law, truncation_tol) for law in base.laws]

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
    table = DistTable({
        outcome_key(k, a): Fraction(p, alive) if rational else p / alive
        for (k, a), p in sorted(patterns.items())
    })
    if not rational:  # exact supports are complete
        table.truncated_mass = max(0.0, float(1 - dead - alive)) / float(alive)
    return table


# ---------------------------------------------------------------------------
# Exact genealogy law by sweeping the backward-chain kernel.
# ---------------------------------------------------------------------------


def _first_nonzero(vec: tuple[int, ...]) -> int | None:
    for idx, v in enumerate(vec):
        if v:
            return idx + 1
    return None


def _transitions(state: tuple[int, ...] | None, tables: list[_LevelTable]):
    """All transitions out of a chain state, with their probabilities.

    ``()`` is the start of the truncated (b) chain, ``None`` that of the
    fixed-length (d) chain.  The levels below the first nonzero one are drawn
    afresh and that level loses one.  A b state left all zero draws the
    levels beyond its length until a nonzero value, and terminates (``None``)
    if none comes up to the horizon; all-zero d states are yielded as they
    are.  Probabilities sum to one minus the truncation leak of the tables.
    """
    one: Number = 1 if any(isinstance(t.zero, Fraction) for t in tables) else 1.0
    if state is None:
        below, fixed = tables, ()
    elif state:
        a = _first_nonzero(state)
        below, fixed = tables[: a - 1], (state[a - 1] - 1,) + state[a:]
    else:
        below, fixed = [], ()
    for combo in itertools.product(*(t.items for t in below)):
        p = one
        for _, q in combo:
            p = p * q
        prefix = tuple(v for v, _ in combo) + fixed
        if state is None or any(prefix):
            yield prefix, p
            continue
        start = len(prefix)
        for level in range(start + 1, len(tables) + 1):
            t = tables[level - 1]
            padded = prefix + (0,) * (level - start - 1)
            for v, q in t.items:
                if v != 0:
                    yield padded + (v,), p * q
            p = p * t.zero
            if p == 0:
                break
        else:
            yield None, p


class _Sweep:
    """Exhaustive forward sweep of the b or d chain's transition kernel.

    A frontier maps (history, state) to the mass of reaching it; the history
    is the text of the emitted times, each followed by a comma, unless the
    caller keys it otherwise.  Each distinct state's transitions are
    generated once per sweep, with the first nonzero level of every next
    state (``None`` ends the run, and so does an all-zero d state).  ``work``
    counts every transition examined, once per frontier entry that reads it;
    more than ``guard`` raises.

    Exact masses are integers: numerators over ``scale ** i`` after i steps,
    where ``scale`` is the product of the levels' common denominators, so
    that merging two masses is an integer addition.
    """

    def __init__(self, env: Environment, process: str, guard: int, overflow: str,
                 rational: bool = False, eta_tol: float = 1e-13):
        if process not in ("b", "d"):
            raise ValueError("process must be 'b' or 'd'")
        self.tables = _eta_tables(env, rational=rational, tol=eta_tol)
        self.start = () if process == "b" else None
        self.rational = rational
        self.one: Number = 1 if rational else 1.0
        self.scale = math.prod(math.lcm(t.zero.denominator, *(q.denominator for _, q in t.items))
                               for t in self.tables) if rational else 1
        self.guard = guard
        self.overflow = overflow
        self.work = 0
        self._memo: dict = {}

    def transitions(self, state) -> list[tuple[tuple[int, ...] | None, int | None, Number]]:
        """(next state or None, its first nonzero level, probability) of every
        transition out of ``state``."""
        out = self._memo.get(state)
        if out is None:
            out = []
            for nxt, p in _transitions(state, self.tables):
                a = None if nxt is None else _first_nonzero(nxt)
                if self.rational:
                    p = p.numerator * (self.scale // p.denominator)
                out.append((None if a is None else nxt, a, p))
            self._memo[state] = out
        return out

    def moves(self, frontier: dict):
        """(history, mass, next first level or None, next state) of every
        move out of the frontier with nonzero mass, in frontier order."""
        for (hist, state), mass in frontier.items():
            out = self.transitions(state)
            self.work += len(out)
            if self.work > self.guard:
                raise EnumerationGuardError(self.overflow)
            for nxt, a, p in out:
                mp = mass * p
                if mp != 0:
                    yield hist, mp, a, nxt

    def step(self, frontier: dict, kept: dict | None = None, keep=None) -> tuple[dict, dict]:
        """The next frontier and the mass of the runs that ended, by history.
        ``keep(history, state)`` keys each continuing move in ``kept``."""
        zero = 0 * self.one
        new: dict = {}
        ended: dict = {}
        for hist, mp, a, nxt in self.moves(frontier):
            if a is None:
                ended[hist] = ended.get(hist, zero) + mp
                continue
            hist = f"{hist}{a},"
            if keep is not None:
                k = keep(hist, nxt)
                kept[k] = kept.get(k, zero) + mp
            key = (hist, nxt)
            new[key] = new.get(key, zero) + mp
        return new, ended


def exact_chain_law(
    env: Environment,
    guard: int = 2_000_000,
    rational: bool = False,
    eta_tol: float = 1e-13,
    stop_mass: float = 1e-14,
    max_steps: int | None = None,
    process: str = "b",
) -> DistTable:
    """Law of (K, emitted coalescent times) of a backward chain, by exact
    forward sweep of its transition kernel from the initial state."""
    sweep = _Sweep(env, process, guard, f"chain sweep exceeded {guard} transitions",
                   rational, eta_tol)
    frontier = {("", sweep.start): sweep.one}
    done = DistTable()
    steps = 0
    while frontier:
        steps += 1
        if max_steps is not None and steps > max_steps:
            break
        frontier, ended = sweep.step(frontier)
        # a run that ends at step K emitted K - 1 times
        den = sweep.scale**steps
        for times, mass in ended.items():
            done[outcome_key(steps, times[:-1])] = Fraction(mass, den) if rational else mass
        if not rational and frontier and float(sum(frontier.values())) < stop_mass:
            break
    if rational and frontier:
        raise EnumerationGuardError("exact sweep stopped before exhausting all paths")
    done.truncated_mass = max(0.0, 1.0 - float(done.total())) if not rational else 0.0
    return done


def chain_step_laws(
    env: Environment,
    process: str = "b",
    max_steps: int = 6,
    eta_tol: float = 1e-13,
    guard: int = 2_000_000,
) -> list[DistTable]:
    """Per-step joint law of (emitted times so far, visible state).

    For the fixed-length chain the visible state is the prefix up to the
    running maximum of emitted times, which is exactly the truncated chain's
    state, so the two processes must produce identical tables step by step.
    """
    sweep = _Sweep(env, process, guard, "step-law sweep exceeded its budget", eta_tol=eta_tol)

    def keep(times, nxt):
        if process == "d":
            nxt = nxt[: max(map(int, times[:-1].split(",")))]
        return f"A={times[:-1]}|S=" + ",".join(map(str, nxt))

    frontier: dict = {("", sweep.start): 1.0}
    out: list[DistTable] = []
    for _ in range(max_steps):
        step_law = DistTable()
        frontier, _ = sweep.step(frontier, step_law, keep)
        out.append(step_law)
        if not frontier:
            break
    return out


# ---------------------------------------------------------------------------
# Embedded hand-worked reference genealogy.  Eleven consecutive individuals
# of one realized tree: their truncated state vectors, coalescent times,
# running maxima, and the reduced point-measure sequence.
# ---------------------------------------------------------------------------

REFERENCE_B_ROWS: tuple[tuple[int, ...], ...] = (
    (1,),
    (0, 2),
    (1, 1),
    (0, 1),
    (2, 0),
    (1, 0),
    (0, 0, 0, 1),
    (0, 0, 1, 0),
    (0, 0, 0, 0, 1),
    (1, 0, 0, 1, 0),
    (0, 0, 0, 1, 0),
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

    The coalescent times must be the first nonzero positions of the state
    vectors, the vector lengths must follow the running maximum of the times,
    the whole sequence must satisfy the chain's structural transition rules,
    and the reduced point-measure recursion must reproduce the listed states.
    """
    mismatches: list[str] = []
    derived_a = tuple(_first_nonzero(row) for row in REFERENCE_B_ROWS)
    if derived_a != REFERENCE_A:
        mismatches.append(f"coalescent times: derived {derived_a}")
    derived_l = tuple(len(row) for row in REFERENCE_B_ROWS)
    running = tuple(itertools.accumulate(REFERENCE_A, max))
    if derived_l != REFERENCE_L or running != REFERENCE_L:
        mismatches.append(f"lengths: rows {derived_l}, running maxima {running}")
    try:
        run = ChainRun(
            a_values=list(REFERENCE_A),
            states=[BState(row) for row in REFERENCE_B_ROWS],
            terminated=False,
        )
        validate_b_run(run, horizon=max(REFERENCE_L))
    except Exception as exc:
        mismatches.append(f"structural transition rules: {exc}")
    state: BtState = ()
    derived_bt = []
    for a_i, row in zip(REFERENCE_A, REFERENCE_B_ROWS):
        state = bt_update(state, a_i, row[a_i - 1])
        derived_bt.append(state)
    derived_btilde = tuple(derived_bt)
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


def btilde_witness_search(
    env: Environment,
    threshold: float = 0.01,
    max_steps: int = 10,
    guard: int = 5_000_000,
) -> Witness | None:
    """Exact search for a two-step history dependence of the reduced sequence.

    Sweeps the fixed-length chain jointly with the last two reduced states.
    At each step, histories (previous, current) sharing the same current
    state are compared through their conditional laws of the next reduced
    state (termination is an explicit outcome).  Returns the first pair whose
    laws differ by more than ``threshold`` in total variation.
    """
    if not env.is_finite_support:
        raise EnumerationGuardError("witness search requires finite-support laws")
    sweep = _Sweep(env, "d", guard, "witness sweep exceeded its budget")
    # the frontier's history is the last two reduced states
    wave: dict[tuple[tuple[BtState, BtState], tuple[int, ...]], float] = {}
    for d1, a1, p in sweep.transitions(None):
        if a1 is None:
            continue
        key = (((), bt_update((), a1, d1[a1 - 1])), d1)
        wave[key] = wave.get(key, 0.0) + p
    for step in range(2, max_steps + 1):
        cond: dict[tuple[BtState, BtState], dict[str, float]] = {}
        nxt_wave: dict[tuple[tuple[BtState, BtState], tuple[int, ...]], float] = {}
        for (x, y), mp, a2, d2 in sweep.moves(wave):
            if a2 is None:
                z_key = TERM_KEY
            else:
                z_state = bt_update(y, a2, d2[a2 - 1])
                z_key = encode_bt(z_state)
                key = ((y, z_state), d2)
                nxt_wave[key] = nxt_wave.get(key, 0.0) + mp
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
                if gap > threshold:
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
        counts, width = _draw_counts(env, stream)
        if width < i + 1:
            continue
        state: BtState = ()
        seq = []
        for a_i, mult in zip(*cpp_and_marks(Tree(env, counts), upto=i + 1)):
            state = bt_update(state, a_i, mult)
            seq.append(state)
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


def joint_first_two_times(
    env: Environment, eta_tol: float = 1e-13, guard: int = 5_000_000
) -> tuple[DistTable, float]:
    """Exact-to-truncation law of (A_1, A_2) given at least three individuals.

    Returns the normalized joint table keyed 'a1,a2' and a bound on the
    normalized mass lost to truncating geometric spine-sibling laws (zero for
    finite-support environments).
    """
    sweep = _Sweep(env, "b", guard, "joint sweep exceeded its budget", eta_tol=eta_tol)
    frontier, ended = sweep.step({("", sweep.start): 1.0})
    accounted = ended.get("", 0.0)
    joint = DistTable()
    for a1, mp, a2, _ in sweep.moves(frontier):
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


def lf_iid_check(
    env: Environment, eta_tol: float = 1e-13, tol: float = 1e-8
) -> LfIidReport:
    """For LF environments the coalescent times are independent draws from
    the closed-form law; check the factorization and the marginals."""
    if not env.is_linear_fractional:
        raise NotLinearFractionalError("independence structure is specific to LF laws")
    joint, bound = joint_first_two_times(env, eta_tol=eta_tol)
    prod, m1, m2 = _product_of_marginals(joint)
    tv_joint = float(tv_distance(joint, prod))
    N = env.horizon
    tails = [1.0] + [lf_a1_tail(env, n) for n in range(1, N + 1)]
    norm = 1.0 - tails[N]
    closed = DistTable({str(n): (tails[n - 1] - tails[n]) / norm for n in range(1, N + 1)})
    tv_marg = max(float(tv_distance(m1, closed)), float(tv_distance(m2, closed)))
    passed = tv_joint <= tol + bound and tv_marg <= tol + bound
    return LfIidReport(
        env_digest=env.digest(),
        tv_joint_vs_product=tv_joint,
        tv_marginal_vs_closed_form=tv_marg,
        truncation_bound=bound,
        tolerance=tol,
        passed=passed,
    )


def factorization_gap(env: Environment, eta_tol: float = 1e-13) -> float:
    """TV distance between the joint law of the first two coalescent times
    and the product of its marginals (zero means independence)."""
    joint, _ = joint_first_two_times(env, eta_tol=eta_tol)
    prod, _, _ = _product_of_marginals(joint)
    return float(tv_distance(joint, prod))


def lf_closed_form_checks(
    env: Environment, tail_tol: float = 1e-12, eta_tol: float = 1e-10, kmax: int = 50
) -> list[CheckResult]:
    """Closed forms specific to LF environments against the generic routes.

    The tail of the first coalescent time has two derivations: the summed
    ratio coefficients of the composed LF parameters, and the generic pgf
    composition product.  Each level's spine-sibling law must also coincide
    pointwise with its geometric closed form.
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
        for k, generic in enumerate(eta_probs_generic(sub, depth, range(kmax + 1))):
            eta_gap = max(eta_gap, abs(float(generic) - float(geom.prob(k))))
    return [
        CheckResult(
            name="lf-tail-two-routes",
            env_digest=env.digest(),
            metric=tail_gap,
            threshold=tail_tol,
            passed=tail_gap <= tail_tol,
            detail=f"n=1..{env.horizon}",
        ),
        CheckResult(
            name="lf-eta-geometric",
            env_digest=env.digest(),
            metric=eta_gap,
            threshold=eta_tol,
            passed=eta_gap <= eta_tol,
            detail=f"levels 1..{env.horizon}, k<={kmax}",
        ),
    ]


# ---------------------------------------------------------------------------
# Population-size oracle and the tail identities for the first coalescent
# time.
# ---------------------------------------------------------------------------


def exact_population_law(
    env: Environment, n: int, guard: int = 200_000, truncation_tol: float = 1e-13
) -> dict[int, Number]:
    """Law of the population size n generations below the founder, by direct
    convolution (no generating functions involved)."""
    supports = [_offspring_support(law, truncation_tol) for law in env.laws[:n]]
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


def a1_identity_check(
    env: Environment, n: int, tol: float = 1e-10, guard: int = 10_000_000
) -> CheckResult:
    """Tail of the first coalescent time computed two unrelated ways.

    The closed form must match the conditional probability that the
    population over the newest n generations is a single line, computed by
    plain convolution.
    """
    closed = float(a1_tail(env, n))
    sub = env.shift(env.horizon - n)
    pop = exact_population_law(sub, n, guard=guard)
    alive = 1 - pop.get(0, 0)
    singleton = pop.get(1, 0)
    by_enum = float(singleton) / float(alive)
    gap = abs(closed - by_enum)
    return CheckResult(
        name=f"first-time-tail-identities-n{n}",
        env_digest=env.digest(),
        metric=gap,
        threshold=tol,
        passed=gap <= tol,
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
    tol: float = 1e-10,
    rational: bool = False,
    guard: int = 2_000_000,
) -> CheckResult:
    tree_law = exact_tree_law(env, rational=rational, guard=guard)
    chain_law = exact_chain_law(env, rational=rational, guard=guard)
    gap = tv_distance(tree_law, chain_law)
    extra = tree_law.truncated_mass + chain_law.truncated_mass
    passed = float(gap) <= tol + extra
    mode = "rational" if rational else "float"
    return CheckResult(
        name=f"tree-vs-chain-tv-{mode}",
        env_digest=env.digest(),
        metric=float(gap),
        threshold=tol,
        passed=passed,
        detail=f"outcomes={len(tree_law)} truncation={extra:.3e} exact_zero={gap == 0}",
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
    results: list[CheckResult] = []
    ref = figure1_consistency()
    results.append(
        CheckResult(
            name="reference-table",
            env_digest="-",
            metric=0.0 if ref.passed else 1.0,
            threshold=0.0,
            passed=ref.passed,
            detail="; ".join(ref.mismatches) or "all rows re-derived",
        )
    )
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
            metric, passed = found.tv, found.tv > 0.01
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
                threshold=0.01,
                passed=passed,
                detail=detail,
            )
        )
    return results
