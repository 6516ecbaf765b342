"""Forward simulation of planar branching trees and genealogy extraction.

A tree starts from a single founder at generation -N and runs to generation
0.  Children are laid out left to right under their mother, and nodes at a
given depth are ordered left to right across the whole tree, so lineages
never cross.  The present individuals (depth N) are ranked 1..K in that
planar order.

Extraction functions recover, for each present individual i:

* its ancestor's rank at every level (``ancestor_index``),
* the pairwise coalescent times of consecutive individuals (``coalescent_times``),
* the count of extra daughters of each spine ancestor whose descendants have
  rank >= i (``extract_D``), and the derived truncated chain state
  (``extract_B``) and reduced point-measure sequence (``extract_Btilde``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .environment import Environment
from .errors import (
    AttemptCapError,
    DegenerateEnvironmentError,
    DomainError,
    HorizonError,
)
from .pgf import survival_prob
from .sampling import as_stream, draw_forward


class Tree:
    """Planar branching tree over a fixed number of generations.

    ``counts[d][j]`` is the child count of the j-th node (left to right) at
    depth d, for 0 <= d < N.  Depth-N nodes are the present individuals.
    ``parents`` is built with the tree; ``child_start``, ``alive`` and
    ``max_rank`` are built together on first read.
    """

    __slots__ = ("env", "counts", "parents", "attempts", "_ranks")

    def __init__(self, env: Environment, counts: list[list[int]]):
        N = env.horizon
        if len(counts) != N:
            raise DomainError(f"need {N} generations of child counts, got {len(counts)}")
        if len(counts[0]) != 1:
            raise DomainError("exactly one founder expected")
        self.env = env
        self.counts = counts
        self.attempts = 1
        self._ranks = None

        # children of node j at depth d occupy a contiguous block at depth d+1
        parents: list[list[int]] = [[-1]]
        width = 1
        for d, row in enumerate(counts):
            if len(row) != width:
                raise DomainError(f"depth {d} has {len(row)} counts but {width} nodes")
            parent_row: list[int] = []
            extend = parent_row.extend
            for j, c in enumerate(row):
                if c:
                    extend([j] * c)
            parents.append(parent_row)
            width = len(parent_row)
        self.parents = parents

    def _build_ranks(self) -> tuple[list[list[int]], list[list[bool]], list[list[int]]]:
        N = self.horizon
        child_start = []
        for row in self.counts:
            starts = []
            acc = 0
            for c in row:
                starts.append(acc)
                acc += c
            child_start.append(starts)
        # alive = has at least one descendant at depth N (present individuals
        # count as their own descendants)
        k = self.k
        alive: list[list[bool]] = [None] * (N + 1)  # type: ignore[list-item]
        max_rank: list[list[int]] = [None] * (N + 1)  # type: ignore[list-item]
        alive[N] = [True] * k
        max_rank[N] = list(range(1, k + 1))
        for d in range(N - 1, -1, -1):
            child_rank = max_rank[d + 1]
            rank_row = [max(child_rank[s:s + c], default=0)
                        for s, c in zip(child_start[d], self.counts[d])]
            alive[d] = [best > 0 for best in rank_row]
            max_rank[d] = rank_row
        self._ranks = (child_start, alive, max_rank)
        return self._ranks

    @property
    def child_start(self) -> list[list[int]]:
        """Position of each node's first child in the next generation."""
        return (self._ranks or self._build_ranks())[0]

    @property
    def alive(self) -> list[list[bool]]:
        """Whether each node has a descendant among the present individuals."""
        return (self._ranks or self._build_ranks())[1]

    @property
    def max_rank(self) -> list[list[int]]:
        """Largest rank of each node's present descendants, 0 when none."""
        return (self._ranks or self._build_ranks())[2]

    @property
    def horizon(self) -> int:
        return self.env.horizon

    @property
    def k(self) -> int:
        """Number of present individuals."""
        return len(self.parents[self.horizon])

    def n_nodes(self, depth: int) -> int:
        if not 0 <= depth <= self.horizon:
            raise HorizonError(f"depth {depth} outside [0, {self.horizon}]")
        return len(self.parents[depth])

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
    if survival_prob(env, env.horizon) == 0:
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


@dataclass(frozen=True)
class Cpp:
    """Coalescent point process of one tree: K and the consecutive-pair
    coalescent times A_1..A_{K-1}."""

    k: int
    a: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.k < 0 or len(self.a) != max(self.k - 1, 0):
            raise DomainError(f"need exactly {max(self.k - 1, 0)} times for k={self.k}")


def _meet(parents: list[list[int]], N: int, i: int) -> tuple[int, int]:
    """Depth and position of the node where individuals i and i + 1 first meet."""
    left, right = i - 1, i
    d = N
    while left != right:
        left = parents[d][left]
        right = parents[d][right]
        d -= 1
    return d, left


def _mark(tree: Tree, depth: int, pos: int, i: int) -> int:
    """Daughters of node ``pos`` at ``depth`` with a present descendant of
    rank >= i, minus the one on individual i's own line."""
    start = tree.child_start[depth][pos]
    ranks = tree.max_rank[depth + 1][start:start + tree.counts[depth][pos]]
    return sum(rank >= i for rank in ranks) - 1


def coalescent_times(tree: Tree) -> Cpp:
    """Levels at which consecutive present individuals first share an ancestor."""
    N = tree.horizon
    parents = tree.parents
    return Cpp(k=tree.k, a=tuple([N - _meet(parents, N, i)[0] for i in range(1, tree.k)]))


def extract_D(tree: Tree, i: int, n: int) -> int:
    """Extra daughters of i's level-n ancestor with descendants of rank >= i.

    The daughter leading to individual i always qualifies, so the result is
    the qualifying-daughter count minus one and is never negative.
    """
    return _mark(tree, tree.horizon - n, ancestor_index(tree, i, n) - 1, i)


def extract_B(tree: Tree, i: int, cpp: Cpp | None = None) -> tuple[int, BtState]:
    """The D-values of individual i truncated to the running maximum of
    coalescent times, b = (D_i(1), ..., D_i(l_i)) with l_i = max(A_1..A_i),
    as the b chain's state ``(l_i, pairs)``: the (level, D-value) of each
    nonzero D-value, levels rising."""
    if cpp is None:
        cpp = coalescent_times(tree)
    if not 1 <= i <= cpp.k - 1:
        raise DomainError(f"individual {i} needs a right neighbor, k={cpp.k}")
    l_i = max(cpp.a[:i])
    return l_i, tuple((n, d) for n in range(1, l_i + 1) if (d := extract_D(tree, i, n)))


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
    """Coalescent times A_i with the spine multiplicities D_i(A_i).

    The marks are read from the times alone: the daughters of the node where
    i and i + 1 meet that lead to ranks >= i are separated by the pairs
    j >= i with A_j = A_i, up to the first j with A_j > A_i, where the walk
    leaves that node.  So D_i(A_i) counts those j.  ``upto`` limits the
    number of pairs returned; the pairs after it are walked only until one
    meets above every returned pair.
    """
    N = tree.horizon
    parents = tree.parents
    pairs = tree.k - 1 if upto is None else min(upto, tree.k - 1)
    if pairs <= 0:
        return [], []
    scan = [N - _meet(parents, N, i)[0] for i in range(1, pairs + 1)]
    top = max(scan)
    for i in range(pairs + 1, tree.k):
        scan.append(N - _meet(parents, N, i)[0])
        if scan[-1] > top:
            break
    # right to left, a stack of (level, pairs at that level so far) with
    # levels rising from its top down
    marks = [0] * len(scan)
    stack: list[list[int]] = []
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

    def visit(depth: int, pos: int, label: tuple[int, ...]) -> None:
        count = tree.counts[depth][pos] if depth < tree.horizon else 0
        name = ".".join(str(x) for x in label) if label else "-"
        flag = 1 if alive[depth][pos] else 0
        lines.append(f"{name} {count} {flag}")
        if depth < tree.horizon:
            start = child_start[depth][pos]
            for c in range(count):
                visit(depth + 1, start + c, label + (c + 1,))

    visit(0, 0, ())
    return "\n".join(lines) + "\n"
