"""Forward simulation of planar branching trees and genealogy extraction.

A tree starts from a single founder at generation -N and runs to generation
0.  Children are laid out left to right under their mother, and nodes at a
given depth are ordered left to right across the whole tree, so lineages
never cross.  The present individuals (depth N) are ranked 1..K in that
planar order.

A ``Tree`` keeps its child counts.  The coalescent times are read off them
by one walk from the present upward over the ancestors of the present
individuals; each node's parent is built only when something reads it.

Extraction functions recover, for each present individual i:

* its ancestor's rank at every level (``ancestor_index``),
* the pairwise coalescent times of consecutive individuals (``coalescent_times``),
* the count D_i(n) of extra daughters of its level-n ancestor whose
  descendants have rank >= i (``extract_D``), the truncated chain state
  (``extract_B``) and the reduced point-measure sequence (``extract_Btilde``).
  All of them, and the b and d chains' states, are read off the times by
  one scan (``state_pairs``).  The scan of a chain run cut short starts
  from the pairs that its last state still owes.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress, islice
from typing import Iterator, Sequence

import numpy as np

from .environment import Environment
from .errors import (
    AttemptCapError,
    DegenerateEnvironmentError,
    DomainError,
    HorizonError,
)
from .sampling import as_stream, draw_forward


class Tree:
    """Planar branching tree over a fixed number of generations.

    ``counts[d][j]`` is the child count of the j-th node (left to right) at
    depth d, for 0 <= d < N.  Depth-N nodes are the present individuals,
    ``k`` of them.  The tree checks each row's width against the row above
    and keeps the counts.  ``parents`` is built on first read;
    ``child_start`` and ``alive`` are built together on first read.
    ``horizon`` is N.
    """

    __slots__ = ("horizon", "counts", "k", "attempts", "_parents", "_ranks")

    def __init__(self, env: Environment, counts: list[list[int]]):
        N = env.horizon
        if len(counts) != N:
            raise DomainError(f"need {N} generations of child counts, got {len(counts)}")
        if len(counts[0]) != 1:
            raise DomainError("exactly one founder expected")
        width = 1
        for d, row in enumerate(counts):
            if len(row) != width:
                raise DomainError(f"depth {d} has {len(row)} counts but {width} nodes")
            width = sum(row)
        self.horizon = N
        self.counts = counts
        self.k = width
        self.attempts = 1
        self._parents = None
        self._ranks = None

    @property
    def parents(self) -> list[list[int]]:
        """Position of each node's parent in the generation above; the
        founder's is -1.  Children of one node occupy a contiguous block."""
        if self._parents is None:
            parents: list[list[int]] = [[-1]]
            for row in self.counts:
                if len(row) == 1:  # the founder's row, or a generation of one node
                    parent_row = [0] * row[0]
                else:
                    parent_row = []
                    extend = parent_row.extend
                    for j, c in enumerate(row):
                        if c:
                            extend([j] * c)
                parents.append(parent_row)
            self._parents = parents
        return self._parents

    def _build_ranks(self) -> tuple[list[list[int]], list[list[bool]]]:
        N = self.horizon
        child_start = [list(accumulate(row, initial=0))[:-1] for row in self.counts]
        alive: list[list[bool]] = [None] * (N + 1)  # type: ignore[list-item]
        alive[N] = [True] * self.k
        for d in range(N - 1, -1, -1):
            below = alive[d + 1]
            alive[d] = [any(below[s:s + c]) for s, c in zip(child_start[d], self.counts[d])]
        self._ranks = (child_start, alive)
        return self._ranks

    @property
    def child_start(self) -> list[list[int]]:
        """Position of each node's first child in the next generation."""
        return (self._ranks or self._build_ranks())[0]

    @property
    def alive(self) -> list[list[bool]]:
        """Whether each node has a descendant among the present individuals."""
        return (self._ranks or self._build_ranks())[1]

    def n_nodes(self, depth: int) -> int:
        if not 0 <= depth <= self.horizon:
            raise HorizonError(f"depth {depth} outside [0, {self.horizon}]")
        return len(self.counts[depth]) if depth < self.horizon else self.k

    def label(self, depth: int, pos: int) -> tuple[int, ...]:
        """Ulam-Harris label: 1-based child positions from the founder down."""
        child_start = self.child_start
        out = []
        d, j = depth, pos
        while d > 0:
            parent = self.parents[d][j]
            out.append(j - child_start[d - 1][parent] + 1)
            d, j = d - 1, parent
        out.reverse()
        return tuple(out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tree(horizon={self.horizon}, k={self.k})"


def simulate_tree(env: Environment, rng) -> Tree:
    """Draw one tree; ``rng`` may be a seed, numpy Generator, or UniformStream.

    Generations after an extinction have empty count rows.
    """
    counts, _, _ = draw_forward(env, as_stream(rng), 1)
    counts.extend([] for _ in range(env.horizon - len(counts)))
    return Tree(env, counts)


def condition_on_survival(env: Environment, rng, max_attempts: int = 100_000) -> Tree:
    """Rejection-sample a tree with at least one present individual.

    Dead draws are rejected from their child counts; only the accepted draw
    is built into a ``Tree``, whose ``attempts`` counts every draw read,
    itself included.
    """
    levels = env.levels
    if levels.column(levels.horizon)[0] == 1:  # u_N = 1: no line reaches the present
        raise DegenerateEnvironmentError(
            "environment cannot produce survivors; conditioning is undefined"
        )
    counts, width, attempts = draw_forward(env, as_stream(rng), max_attempts)
    if not width:
        raise AttemptCapError(f"no surviving tree in {max_attempts} attempts")
    tree = Tree(env, counts)
    tree.attempts = attempts
    return tree


def ancestor_index(tree: Tree, i: int, n: int) -> int:
    """Planar rank of the level-n ancestor of present individual i.

    Ranks count all nodes of that generation left to right, starting at 1.
    """
    N = tree.horizon
    if not 1 <= i <= tree.k:
        raise DomainError(f"individual {i} outside 1..{tree.k}")
    if not 1 <= n <= N:
        raise HorizonError(f"level {n} outside [1, {N}]")
    pos = i - 1
    for d in range(N, N - n, -1):
        pos = tree.parents[d][pos]
    return pos + 1


@dataclass(frozen=True, slots=True)
class Cpp:
    """Coalescent point process of one tree: K and the consecutive-pair
    coalescent times A_1..A_{K-1}."""

    k: int
    a: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.k < 0 or len(self.a) != max(self.k - 1, 0):
            raise DomainError(f"need exactly {max(self.k - 1, 0)} times for k={self.k}")


def _meeting_levels(tree: Tree, upto: int) -> list[int]:
    """Times A_1..A_m of the pairs that have met once pairs 1..upto have.

    One walk over the child counts from the present upward keeps the
    distinct ancestor positions of the present individuals that are still
    apart, left to right, and the pair that separates each neighbouring two.
    In the generation just above the present these are the nodes with
    children, and a node's running child count names the pair after its
    last child; every other pair meets at level 1.  Above it, a generation
    maps the positions to their parents through the running sums of its
    row; neighbours with one parent at depth d meet there, at level N - d.
    A one-node generation, or one parent for all, is every open pair's
    meeting and ends the walk.  Otherwise the walk stops at the level where
    the last of pairs 1..upto meets; m is the first pair still apart there,
    which meets higher than every pair before it, or K - 1.
    """
    k = tree.k
    if k < 2:
        return []
    counts = tree.counts
    N = len(counts)
    d = N - 1
    row = counts[d]
    times = [1] * k  # times[i] is A_i; times[0] is not a pair
    # between[g] is the pair that separates apart[g] and apart[g + 1]
    apart = list(compress(range(len(row)), row))
    between = list(compress(accumulate(row), row))
    between.pop()
    while between and between[0] <= upto:
        d -= 1
        row = counts[d]
        if len(row) > 1:
            ends = list(accumulate(row))
            ups = [bisect_right(ends, pos) for pos in apart]
        if len(row) == 1 or ups[0] == ups[-1]:  # every open pair meets here
            for i in between:
                times[i] = N - d
            return times[1:]
        if len(set(ups)) == len(ups):  # no pair meets here
            apart = ups
            continue
        apart = [ups[0]]
        left = []
        for i, up in zip(between, islice(ups, 1, None)):
            if up == apart[-1]:
                times[i] = N - d
            else:
                apart.append(up)
                left.append(i)
        between = left
    return times[1:between[0]] if between else times[1:]


def coalescent_times(tree: Tree) -> Cpp:
    """Levels at which consecutive present individuals first share an ancestor."""
    return Cpp(tree.k, tuple(_meeting_levels(tree, tree.k - 1)))


def _scan(times: Sequence[int], stack: list[tuple[int, int]]) -> Iterator[list[tuple[int, int]]]:
    """``stack`` after each time, the times walked right to left: it starts
    as D_{m+1}'s (level, count) pairs, levels falling toward its top, for
    m = len(times), and a time x pops the levels below x and adds one at x,
    leaving D_j's pairs after A_j.  The one list is changed in place."""
    for x in reversed(times):
        while stack and stack[-1][0] < x:
            stack.pop()
        count = stack.pop()[1] + 1 if stack and stack[-1][0] == x else 1
        stack.append((x, count))
        yield stack


def state_pairs(times: Sequence[int], after: BtState = ()) -> list[BtState]:
    """D_j's nonzero (level, count) pairs, levels rising, for j = 1..len(times).

    D_j(n) counts the pairs j' >= j with A_j' = n before the first one with
    A_j' > n, so ``_scan`` reads them off the times.  ``after`` is D_{m+1}'s
    pairs, levels rising, for a run cut after m = len(times) times, and ``()``
    for a run that ended.  The d chain's state j is ``(N, pairs)``.
    """
    out = [tuple(reversed(stack)) for stack in _scan(times, list(reversed(after)))]
    out.reverse()
    return out


def b_states(times: Sequence[int], after: BtState = ()) -> list[tuple[int, BtState]]:
    """The b chain's states along the times: D_j's pairs at levels up to
    l_j = max(A_1..A_j), with length l_j; ``after`` as in ``state_pairs``."""
    out = []
    cut = 0
    for length, stack in zip(reversed(list(accumulate(times, max))),
                             _scan(times, list(reversed(after)))):
        # the levels above l_j lie at the bottom of the stack; no later time
        # reaches them, and l_j only falls, so their number only grows
        while stack[cut][0] > length:
            cut += 1
        out.append((length, tuple(reversed(stack[cut:]))))
    out.reverse()
    return out


def extract_D(tree: Tree, i: int, n: int) -> int:
    """Extra daughters of i's level-n ancestor with descendants of rank >= i.

    The daughter leading to individual i always qualifies and is left out.
    The others are separated from it and each other by the pairs that
    ``state_pairs`` counts, so D_i(n) is read off the times.
    """
    if not 1 <= i <= tree.k:
        raise DomainError(f"individual {i} outside 1..{tree.k}")
    if not 1 <= n <= tree.horizon:
        raise HorizonError(f"level {n} outside [1, {tree.horizon}]")
    # no pair lies right of individual K, so D_K is 0
    return dict(state_pairs(coalescent_times(tree).a)[i - 1]).get(n, 0) if i < tree.k else 0


def extract_B(tree: Tree, i: int, cpp: Cpp | None = None) -> tuple[int, BtState]:
    """Individual i's b chain state ``(l_i, pairs)``, entry i - 1 of
    ``b_states``: the nonzero D_i(n) at levels n <= l_i = max(A_1..A_i)."""
    if cpp is None:
        cpp = coalescent_times(tree)
    if not 1 <= i <= cpp.k - 1:
        raise DomainError(f"individual {i} needs a right neighbor, k={cpp.k}")
    return b_states(cpp.a)[i - 1]


# ---------------------------------------------------------------------------
# Reduced point-measure sequence.  States are canonical tuples of
# (level, multiplicity) pairs sorted by level; the empty tuple is the null
# measure.
# ---------------------------------------------------------------------------

BtState = tuple[tuple[int, int], ...]


def bt_min(b: BtState) -> int | None:
    """Smallest charged level, or None for the null measure."""
    return b[0][0] if b else None


def bt_star(b: BtState) -> BtState:
    """Remove one unit of mass at the smallest charged level."""
    if not b:
        return b
    (lvl, mult), rest = b[0], b[1:]
    if mult > 1:
        return ((lvl, mult - 1),) + rest
    return rest


def bt_update(b: BtState, a: int, mult: int) -> BtState:
    """One step of the reduced recursion given the next pair (a, mult)."""
    s = bt_min(b)
    star = bt_star(b)
    s_star = bt_min(star)
    if a != s and (s_star is None or a < s_star):
        return ((a, mult),) + star
    return star


def bt_fold(a_vals: list[int], marks: list[int]) -> tuple[BtState, ...]:
    """Reduced-sequence states after each pair (A_i, D_i(A_i)), from the null measure."""
    state: BtState = ()
    out = []
    for a_i, mult in zip(a_vals, marks):
        state = bt_update(state, a_i, mult)
        out.append(state)
    return tuple(out)


def extract_Btilde(tree: Tree) -> tuple[BtState, ...]:
    """Reduced point-measure sequence along the present individuals.

    Entry i-1 is the state after folding in individual i's pair
    (A_i, D_i(A_i)); there are K-1 entries.
    """
    return bt_fold(*cpp_and_marks(tree))


def cpp_and_marks(tree: Tree, upto: int | None = None) -> tuple[list[int], list[int]]:
    """Coalescent times A_i with the spine multiplicities D_i(A_i), each
    the count on top of ``_scan``'s stack after A_i.

    ``upto`` (at least 0) limits the number of pairs returned; the walk
    stops where the last of them meets, and the first pair still apart there
    ends the scan as a higher meeting.
    """
    if upto is not None and upto < 0:
        raise DomainError(f"cannot read a negative number of pairs, got {upto}")
    pairs = tree.k - 1 if upto is None else min(upto, tree.k - 1)
    if pairs <= 0:
        return [], []
    times = _meeting_levels(tree, pairs)
    marks = [stack[-1][1] for stack in _scan(times, [])]
    marks.reverse()
    return times[:pairs], marks[:pairs]


def genealogy_from_cpp(cpp: Cpp) -> np.ndarray:
    """Full pairwise coalescent table C[i][j] = max(A_i..A_{j-1}), 1-based
    individuals mapped to 0-based entries; only i < j entries are filled."""
    k = cpp.k
    table = np.zeros((k, k), dtype=np.int64)
    for i in range(k - 1):
        acc = 0
        for j in range(i + 1, k):
            acc = max(acc, cpp.a[j - 1])
            table[i, j] = acc
    return table


def dump_tree(tree: Tree) -> str:
    """One node per line: label, child count, survival flag.

    Lines are emitted depth first, which sorts labels lexicographically as
    integer sequences.  The founder's empty label prints as '-'.
    """
    lines = []
    alive = tree.alive
    child_start = tree.child_start
    N = tree.horizon
    stack = [(0, 0, ())]
    while stack:
        depth, pos, label = stack.pop()
        count = tree.counts[depth][pos] if depth < N else 0
        name = ".".join(str(x) for x in label) if label else "-"
        flag = 1 if alive[depth][pos] else 0
        lines.append(f"{name} {count} {flag}")
        if count:
            start = child_start[depth][pos]
            # the last child goes on first, so the first comes off first
            stack.extend((depth + 1, start + c, label + (c + 1,))
                         for c in range(count - 1, -1, -1))
    return "\n".join(lines) + "\n"
