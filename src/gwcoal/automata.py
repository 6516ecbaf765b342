"""Weighted automata over the alphabet of coalescent times 1..N.

A word a_1..a_{K-1} is the genealogy outcome (K, A).  An automaton is
(start, moves, end): the start weight of each state, its moves as (letter,
next state, weight) and its end weight.  A word's weight is the sum over
its paths of the start weight, the moves' weights and the end weight.  The
tree's depth-first walk is one such automaton (``tree_automaton``) and the
b chain another; ``same_word_law`` decides whether two of them give every
word the same weight, in residues mod a prime, so that
``verify.tree_vs_chain_check`` need not enumerate the outcomes.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .environment import Environment

# the word laws of two automata that agree mod both primes are equal unless
# the product of the primes divides the difference of some word's weights
PRIMES = (2**61 - 1, 2**62 - 57)


def tree_automaton(env: Environment, prime: int | None = None, charge=lambda units: None):
    """The depth-first walk of a tree conditioned on survival, in residues
    mod ``prime`` or, without one, in ``Fraction``s.  Each level of descents
    passes its size to ``charge`` before it is built, and so do the moves,
    counted before any is.

    Level l = 1..N reproduces by f_l = ``laws[N - l]``, and u_l is its
    extinction probability from ``Environment.levels``; no eta law is read.
    At a present-day individual the state is (c_1, ..., c_N), c_l counting
    the younger siblings at level l - 1 of its level-l ancestor's line
    that the walk has not visited, each an unconditioned tree.
    - A descent from a surviving level-n individual draws, at each level
      l = n..1, m children with weight P(f_l = m), takes the i-th to be the
      first that survives with weight u_{l-1}^(i-1) and sets c_l = m - i;
      over every choice the weights sum to 1 - u_n.  The start is the
      descent from the founder over 1 - u_N.
    - Letter n takes the j-th unvisited sibling at level n - 1 as the first
      that survives: the siblings below level n are all dead, Π_{l<n}
      u_{l-1}^(c_l), and so are the first j - 1 at level n, u_{n-1}^(j-1).
      It sets c_n to c_n - j and redraws the levels below by a descent from
      that sibling, whose 1 - u_{n-1} cancels its chance to survive.
    - The end weight is the chance that every unvisited sibling is dead,
      Π_l u_{l-1}^(c_l).
    Raises ValueError when a denominator is 0 mod ``prime``."""
    N = env.horizon
    if prime is None:
        of, red = Fraction, lambda x: x
    else:
        def of(x):
            return x.numerator * pow(x.denominator, -1, prime) % prime

        def red(x):
            return x % prime
    u = [of(env.levels.column(l)[0]) for l in range(N + 1)]
    dead, descent = [None], [None]  # per level l: u_{l-1}^c, and c's descent weight
    for l in range(1, N + 1):
        p = [of(q) for q in env.laws[N - l].probs]
        width = env.laws[N - l].max_children
        dead.append([red(u[l - 1] ** c) for c in range(width + 1)])
        # Σ_{m > c} p_m u_{l-1}^(m-c-1), from the top down
        w = [0] * (width + 1)
        for c in range(width - 1, -1, -1):
            w[c] = red(p[c + 1] + u[l - 1] * w[c + 1])
        descent.append(w[:width])
    # descents[n]: (c_1..c_n, weight) of a descent from level n, zeros dropped
    descents = [[((), 1)]]
    for l in range(1, N + 1):
        charge(len(descents[-1]) * len(descent[l]))
        descents.append([(low + (c,), red(x * w)) for low, x in descents[-1]
                         for c, w in enumerate(descent[l]) if w])
    inv_alive = 1 / (1 - u[N]) if prime is None else pow(red(1 - u[N]), -1, prime)
    start = {c: red(x * inv_alive) for c, x in descents[N]}
    # letter n leaves a state once per descent for each of its first c_n
    # siblings, only the first where u_{n-1} is 0, unless a c_l > 0 below
    # n has u_{l-1} = 0; ``lower`` counts the c_1..c_{n-1} that do not
    widths = [len(w) for w in descent[1:]]
    count, lower = 0, 1
    for n in range(1, N + 1):
        live = u[n - 1] != 0
        siblings = sum(c if live else min(c, 1) for c in range(widths[n - 1]))
        count += lower * siblings * len(descents[n - 1]) * math.prod(widths[n:])
        lower *= widths[n - 1] if live else 1
    charge(count)
    moves, end = {}, {}
    for c in itertools.product(*(range(len(w)) for w in descent[1:])):
        out = moves[c] = []
        below = 1  # Π_{l<n} u_{l-1}^(c_l)
        for n in range(1, N + 1):
            for j in range(1, c[n - 1] + 1):
                x = red(below * dead[n][j - 1])
                if x:
                    for low, w in descents[n - 1]:
                        out.append((n, low + (c[n - 1] - j,) + c[n:], red(x * w)))
            below = red(below * dead[n][c[n - 1]])
            if not below:  # every later move weighs 0, and so does the end
                break
        end[c] = below
    return start, moves, end


def word_count(automaton) -> int:
    """The number of paths from the start to an ending move of an acyclic
    automaton with one start state.  The b chain's states along a run are a
    function of the run's times, so each of its outcomes has one path."""
    start, moves, end = automaton
    (first,) = start
    counts: dict = {}
    todo = [first]
    while todo:
        state = todo[-1]
        pending = [nxt for _, nxt, _ in moves[state] if nxt not in counts]
        if pending:
            todo.extend(pending)
            continue
        todo.pop()
        counts[state] = (end[state] > 0) + sum(counts[nxt] for _, nxt, _ in moves[state])
    return counts[first]


def same_word_law(one, two, prime: int, charge) -> bool:
    """Whether two automata with weights mod ``prime`` give every word the
    same weight mod ``prime`` (Tzeng 1992).

    The forward vector of a word over the states of both holds the weights
    of its paths into each state; the end weights of ``two`` negated, it
    dots to the difference of the word's weights.  The vectors of all words
    span a space with a basis among the vectors of words no longer than the
    states: each new independent vector is kept, reduced against those
    before it, and extended by every letter.  The laws agree mod ``prime``
    exactly when every kept vector dots to 0.  Each vector passes the size
    of the basis it is reduced against to ``charge``, and each kept vector
    the number of moves of both automata."""
    index: dict = {}
    for side, (_, moves, _) in enumerate((one, two)):
        for state in moves:
            index[side, state] = len(index)
    n = len(index)
    rows: dict[int, list[list[tuple[int, int]]]] = {}
    ending = [0] * n
    vec = [0] * n
    for side, (start, moves, end) in enumerate((one, two)):
        sign = -1 if side else 1
        for state, out in moves.items():
            i = index[side, state]
            ending[i] = sign * end[state] % prime
            for a, nxt, w in out:
                if a not in rows:
                    rows[a] = [[] for _ in range(n)]
                rows[a][i].append((index[side, nxt], w))
        for state, w in start.items():
            vec[index[side, state]] = w % prime
    cost = sum(len(out) for _, moves, _ in (one, two) for out in moves.values())
    basis: list[tuple[int, list[int]]] = []
    todo = [vec]
    while todo:
        vec = todo.pop()
        charge(len(basis))
        for pivot, kept in basis:
            c = vec[pivot]
            if c:
                vec = [(x - c * y) % prime for x, y in zip(vec, kept)]
        pivot = next((i for i, x in enumerate(vec) if x), None)
        if pivot is None:
            continue
        if sum(x * e for x, e in zip(vec, ending)) % prime:
            return False
        charge(cost)
        inv = pow(vec[pivot], -1, prime)
        vec = [x * inv % prime for x in vec]
        basis.append((pivot, vec))
        for moves in rows.values():
            nxt = [0] * n
            for x, out in zip(vec, moves):
                if x:
                    for j, w in out:
                        nxt[j] += x * w
            todo.append([x % prime for x in nxt])
    return True
