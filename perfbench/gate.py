"""Correctness gate: checks every command output against independent values.

Each check is one operation of the benchmark; a failed check counts in
``failed``.  Sampling checks are statistical with ``Z_SCORE`` standard
errors plus one count of slack (1/runs), wide enough that a correct
program trips none of them in practice and narrow enough that a shifted
coalescent time trips the tail check at every horizon used here.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction

from gwcoal.environment import Environment, lf_a1_tail
from gwcoal.pgf import a1_tail, survival_prob

Z_SCORE = 6.0
TAIL_TOL = 1e-12        # tail command against rational a1_tail
LF_TAIL_TOL = 1e-9      # tail command against the LF closed form
ETA_MASS_TOL = 1e-9     # each eta level must carry all but this much mass
RATIONAL_MAX_DEPTH = 8  # rational a1_tail is checked up to this depth


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class Reference:
    """Values a correct sample must reproduce: P(A1 > n) for n = 1..N and
    E[K | survival] = (product of law means) / P(survival)."""

    tails: tuple[float, ...]
    mean_k: float


def reference(env: Environment) -> Reference:
    N = env.horizon
    if env.is_linear_fractional:
        tails = tuple(lf_a1_tail(env, n) for n in range(1, N + 1))
    else:
        tails = tuple(float(a1_tail(env, n)) for n in range(1, N + 1))
    growth = math.prod(float(law.mean()) for law in env.laws)
    return Reference(tails, growth / float(survival_prob(env, N)))


def parse_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def parse_sample(text: str) -> tuple[list[int | None], list[tuple[int, ...]]]:
    """(K, A) per run from ``run_id,K,A`` rows; K is None for unfinished runs."""
    ks, As = [], []
    for row in parse_rows(text):
        ks.append(int(row["K"]) if row["K"] else None)
        As.append(tuple(int(x) for x in row["A"].split(";")) if row["A"] else ())
    return ks, As


def check_sample(label: str, ks, As, runs: int, ref: Reference) -> list[Check]:
    """Format, tail of A1 at every n, and mean of K."""
    N = len(ref.tails)
    bad = [i for i, (k, a) in enumerate(zip(ks, As))
           if k is None or k < 1 or len(a) != k - 1 or any(not 1 <= x <= N for x in a)]
    out = [Check(f"{label}:format", len(ks) == runs and not bad,
                 f"rows={len(ks)} expected={runs} malformed={bad[:5]}")]
    if len(ks) == 0 or bad:
        return out
    R = len(ks)
    first = [a[0] if a else N + 1 for a in As]
    for n, p in enumerate(ref.tails, start=1):
        hat = sum(1 for x in first if x > n) / R
        allow = Z_SCORE * math.sqrt(p * (1 - p) / R) + 1 / R
        out.append(Check(f"{label}:P(A1>{n})", abs(hat - p) <= allow,
                         f"empirical={hat:.6f} exact={p:.6f} allowed={allow:.2e}"))
    mean = sum(ks) / R
    var = sum((k - mean) ** 2 for k in ks) / max(R - 1, 1)
    # a small sample of a skewed K understates its spread; K | survival is
    # close to geometric, whose variance stays below its squared mean
    var = max(var, ref.mean_k ** 2)
    allow = Z_SCORE * math.sqrt(var / R) + 1 / R
    out.append(Check(f"{label}:E[K]", abs(mean - ref.mean_k) <= allow,
                     f"empirical={mean:.4f} exact={ref.mean_k:.4f} allowed={allow:.2e}"))
    return out


def check_tail(label: str, text: str, env: Environment, ref: Reference) -> list[Check]:
    """``tail`` rows against a1_tail: in rational arithmetic on dyadic pmf
    environments (up to RATIONAL_MAX_DEPTH), against the closed form on LF
    environments, and digit for digit against the float reference elsewhere."""
    rows = parse_rows(text)
    got = [float(r["tail"]) for r in rows]
    N = env.horizon
    out = [Check(f"{label}:rows", [int(r["n"]) for r in rows] == list(range(1, N + 1)),
                 f"rows={len(rows)}")]
    if len(got) != N:
        return out
    if env.is_linear_fractional:
        gap = max(abs(g - t) for g, t in zip(got, ref.tails))
        out.append(Check(f"{label}:lf-closed-form", gap <= LF_TAIL_TOL, f"max_gap={gap:.2e}"))
        return out
    exact = env.as_rational()
    depth = min(N, RATIONAL_MAX_DEPTH)
    gap = max(abs(Fraction(got[n - 1]) - a1_tail(exact, n)) for n in range(1, depth + 1))
    out.append(Check(f"{label}:rational-n<={depth}", gap <= TAIL_TOL, f"max_gap={float(gap):.2e}"))
    if depth < N:
        gap = max(abs(g - t) for g, t in zip(got, ref.tails))
        out.append(Check(f"{label}:float", gap <= TAIL_TOL, f"max_gap={gap:.2e}"))
    return out


def check_eta(label: str, text: str, env: Environment) -> list[Check]:
    """Every level 1..N is a probability law, up to LF truncation."""
    mass: dict[int, float] = {}
    negative = 0
    for r in parse_rows(text):
        p = float(r["p"])
        negative += p < 0
        mass[int(r["level"])] = mass.get(int(r["level"]), 0.0) + p
    worst = max((abs(m - 1) for m in mass.values()), default=math.inf)
    ok = sorted(mass) == list(range(1, env.horizon + 1)) and not negative and worst <= ETA_MASS_TOL
    return [Check(f"{label}:laws", ok, f"levels={len(mass)} negative={negative} worst={worst:.2e}")]


def check_verify(label: str, stdout: str) -> list[Check]:
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    failing = [ln for ln in lines if not ln.startswith("PASS ")]
    return [Check(f"{label}:all-pass", bool(lines) and not failing,
                  f"lines={len(lines)} failing={failing[:3]}")]
