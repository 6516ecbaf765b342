"""Compositions of generating functions across the environment.

All range indices are backward generation labels: a range (m, n) with
-N <= m <= n <= 0 composes the per-generation generating functions acting
between those two generations, newest innermost.  Values stay exact when the
underlying laws carry Fraction probabilities and the evaluation point is a
Fraction.  They are the reference route that the per-environment table
``Environment.levels`` is checked against.
"""

from __future__ import annotations

import math
from typing import Sequence

from .environment import _NO_SURVIVAL, Environment, EtaLaw, _range_laws
from .errors import DegenerateEnvironmentError, DomainError, HorizonError
from .laws import Number


def compose_range(env: Environment, m: int, n: int, s: Number) -> Number:
    """Generating function of the generation-n population of one
    generation-m founder, evaluated at s."""
    acc = s
    for law in reversed(_range_laws(env, m, n)):
        acc = law.pgf(acc)
    return acc


def compose_deriv(env: Environment, m: int, n: int, s: Number) -> Number:
    """First derivative of ``compose_range`` in s, by the chain-rule product."""
    laws = _range_laws(env, m, n)
    acc = s
    deriv: Number = 1
    for law in reversed(laws):
        deriv = deriv * law.pgf_deriv(acc, 1)
        acc = law.pgf(acc)
    return deriv


def survival_prob(env: Environment, n: int) -> Number:
    """Probability the founder still has descendants n generations later.

    Counts forward from the oldest generation: the founder sits at -N and
    the population is inspected at generation -N + n.
    """
    N = env.horizon
    if not 0 <= n <= N:
        raise HorizonError(f"forward depth {n} outside [0, {N}]")
    if n == N:
        return 1 - env.levels.column(N)[0]
    return 1 - compose_range(env, -N, -N + n, env.levels.zero)


def eta_probs_generic(env: Environment, n: int, ks: Sequence[int]) -> list[Number]:
    """P(eta_n = k) for each k in ``ks``, from derivatives of the founder's
    offspring pgf, composing the range once.

    eta_n is defined for the founder of ``env`` observed at forward depth n:
    the number of its daughters with descendants at that depth, minus one,
    conditioned on there being at least one.
    """
    N = env.horizon
    if not 1 <= n <= N:
        raise HorizonError(f"forward depth {n} outside [1, {N}]")
    if any(k < 0 for k in ks):
        raise DomainError("support is k >= 0")
    first = env.laws[0]
    # probability a single daughter of the founder has no depth-n descendant
    u = compose_range(env, -N + 1, -N + n, env.levels.zero)
    surv = 1 - first.pgf(u)
    if surv == 0:
        raise DegenerateEnvironmentError(_NO_SURVIVAL)
    alive = 1 - u
    return [alive ** (k + 1) * first.pgf_deriv(u, k + 1) / (math.factorial(k + 1) * surv)
            for k in ks]


def eta_law_at_depth(env: Environment, depth: int) -> EtaLaw:
    """Law of the spine-sibling count at ancestor level ``depth``.

    Level 1 is the parent generation of the present individuals; level N is
    the founder.  Only the newest ``depth`` laws of the environment matter.
    """
    return env.levels.eta(depth)


def a1_tail(env: Environment, n: int) -> Number:
    """P(the two leftmost surviving lineages stay distinct for n levels):
    the closed form f'(0)/(1 - f(0)) over the newest n laws."""
    N = env.horizon
    if not 1 <= n <= N:
        raise HorizonError(f"depth {n} outside [1, {N}]")
    u, deriv, _, _ = env.levels.column(n)
    den = 1 - u
    if den == 0:
        raise DegenerateEnvironmentError(_NO_SURVIVAL)
    return deriv / den
