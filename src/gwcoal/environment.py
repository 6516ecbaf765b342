"""Environment container: one offspring law per generation.

The process runs from a single founder at generation -N up to the present
generation 0.  ``laws`` is stored oldest-first: entry ``j`` is the offspring
law of individuals living at generation ``-N + j``.  Generation-0 individuals
do not reproduce within the modeled window.

Backward indices follow the convention used throughout the package: a
generation ``m`` satisfies ``-N <= m <= -1`` for reproducing individuals,
and composition ranges use ``-N <= m <= n <= 0``.  Per-level quantities live
in one ``LevelTable`` per environment, ``Environment.levels``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import (
    DegenerateEnvironmentError,
    DomainError,
    EnvFormatError,
    HorizonError,
    NotLinearFractionalError,
)
from .laws import FiniteSupportLaw, LinearFractionalLaw, Number, OffspringLaw
from .sampling import cumulative

_NO_SURVIVAL = "survival probability is zero; conditioned quantities undefined"


@dataclass(frozen=True)
class Environment:
    laws: tuple[OffspringLaw, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.laws, tuple):
            object.__setattr__(self, "laws", tuple(self.laws))

    @property
    def horizon(self) -> int:
        return len(self.laws)

    @cached_property
    def levels(self) -> LevelTable:
        """Per-level table of this environment, built once, filled lazily."""
        return LevelTable(self.laws)

    def shift(self, k: int) -> "Environment":
        """Drop the k oldest laws, leaving the window of the last N-k generations."""
        if not 0 <= k <= self.horizon:
            raise HorizonError(f"shift by {k} outside [0, {self.horizon}]")
        return Environment(self.laws[k:])

    @property
    def is_linear_fractional(self) -> bool:
        return all(isinstance(law, LinearFractionalLaw) for law in self.laws)

    @property
    def is_finite_support(self) -> bool:
        return all(isinstance(law, FiniteSupportLaw) for law in self.laws)

    def as_rational(self) -> "Environment":
        return Environment(tuple(law.as_rational() for law in self.laws))

    def to_dict(self) -> dict:
        entries = []
        for law in self.laws:
            if isinstance(law, FiniteSupportLaw):
                entries.append({"type": "pmf", "p": [float(p) for p in law.probs]})
            else:
                entries.append({"type": "lf", "r": law.r, "p": law.p})
        return {"horizon": self.horizon, "laws": entries}

    def digest(self) -> str:
        return self._digest

    @cached_property
    def _digest(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:12]


def _range_laws(env: Environment, m: int, n: int):
    N = env.horizon
    if not -N <= m <= n <= 0:
        raise HorizonError(f"range [{m}, {n}] outside [-{N}, 0]")
    # laws acting into generations m+1 .. n, oldest first
    return env.laws[m + N : n + N]


@dataclass(frozen=True)
class EtaLaw:
    """Distribution of the extra surviving daughters along the spine.

    Given that an individual has at least one daughter with descendants at
    generation 0, this is the law of the number of such daughters minus one.
    Finite-support offspring laws yield a finite table in ``probs``; an LF
    first law yields an exact geometric with success probability ``geom``
    (``probs`` then holds a truncated table and ``tail`` its missing mass).
    """

    probs: tuple[Number, ...]
    geom: float | None = None
    tail: float = 0.0

    def prob(self, k: int) -> Number:
        if k < 0:
            raise DomainError("support is k >= 0")
        if self.geom is not None:
            return self.geom * (1.0 - self.geom) ** k
        return self.probs[k] if k < len(self.probs) else 0 * self.probs[0]

    def total(self) -> Number:
        if self.geom is not None and not self.probs:
            return 1.0
        return sum(self.probs) + self.tail

    def materialized(self, tol: float = 1e-13, kmax: int = 100_000) -> "EtaLaw":
        """Finite table covering all but at most ``tol`` of the mass."""
        if self.geom is None:
            return self
        lam = self.geom
        if lam >= 1.0:
            return EtaLaw(probs=(1.0,), geom=lam, tail=0.0)
        # P(value > K) = (1-lam)^(K+1)
        need = min(kmax, max(0, math.ceil(math.log(tol) / math.log(1.0 - lam))))
        probs = tuple(lam * (1.0 - lam) ** k for k in range(need + 1))
        return EtaLaw(probs=probs, geom=lam, tail=(1.0 - lam) ** (need + 1))


class LevelTable:
    """Per-level quantities of one environment, from one backward pass.

    Level k = 1..N lies k generations above the present and reproduces by
    f_k = ``laws[N - k]``.  From u_0 = 0 and D_0 = 1 the pass sets u_k =
    f_k(u_{k-1}), the chance that one level-k individual has no descendant
    at generation 0, D_k = D_{k-1} f_k'(u_{k-1}), p_k = P(eta_k = 0) and
    P_k = p_1 ... p_k, which must equal the closed form D_k / (1 - u_k).
    Columns grow only as deep as the deepest level read: exact values grow
    doubly exponentially in size with the depth.  The LF column is the same
    pass in closed form, from the s-coefficients alone.
    """

    def __init__(self, laws: Sequence[OffspringLaw]):
        self.laws = tuple(laws)
        self.horizon = len(self.laws)
        exact = all(isinstance(law, FiniteSupportLaw) and law.is_exact for law in self.laws)
        self.zero: Number = Fraction(0) if exact else 0.0
        self._rows: list[tuple] = [(self.zero, 1, math.nan, 1)]
        self._eta: dict[int, EtaLaw] = {}

    def _check(self, k: int, lowest: int = 1) -> None:
        if not lowest <= k <= self.horizon:
            raise HorizonError(f"depth {k} outside [{lowest}, {self.horizon}]")

    def column(self, k: int) -> tuple[Number, Number, Number, Number]:
        """(u_k, D_k, p_k, P_k) for 0 <= k <= N; p_k is NaN at a
        finite-support level without survival, and so is P_k from there on."""
        self._check(k, 0)
        while (j := len(self._rows)) <= k:
            u, deriv, _, product = self._rows[j - 1]
            law = self.laws[self.horizon - j]
            fprime, nxt = law.pgf_deriv(u, 1), law.pgf(u)
            if isinstance(law, LinearFractionalLaw):
                p0 = (1.0 - law.q) / (1.0 - law.q * float(u))
            else:
                p0 = (1 - u) * fprime / (1 - nxt) if nxt != 1 else math.nan
            # concurrent runs share the table: a racing fill of the same level
            # overwrites an equal row instead of appending a second one
            self._rows[j : j + 1] = [(nxt, deriv * fprime, p0, product * p0)]
        return self._rows[k]

    def eta(self, k: int) -> EtaLaw:
        """Spine-sibling law at level k."""
        if k not in self._eta:
            self._check(k)
            u, (extinct, _, p0, _) = self.column(k - 1)[0], self.column(k)
            f, surv = self.laws[self.horizon - k], 1 - extinct
            if surv == 0:
                raise DegenerateEnvironmentError(_NO_SURVIVAL)
            if isinstance(f, LinearFractionalLaw):
                self._eta[k] = EtaLaw(probs=(), geom=p0)
            else:
                alive = 1 - u
                self._eta[k] = EtaLaw(probs=(p0,) + tuple(
                    alive ** (j + 1) * f.pgf_deriv(u, j + 1) / (math.factorial(j + 1) * surv)
                    for j in range(1, max(f.max_children, 1))
                ))
        return self._eta[k]

    @cached_property
    def offspring_cumulatives(self) -> list[tuple[float, ...] | None]:
        """Cumulative table of each generation's finite-support law, oldest
        first; None for a linear-fractional law."""
        return [cumulative(law.probs) if isinstance(law, FiniteSupportLaw) else None
                for law in self.laws]

    @cached_property
    def _lf(self) -> tuple[list[float], list[float]]:
        coeffs: list[float] = []
        sums = [0.0]
        ratio = 1.0  # product of r/p over the levels already folded in
        for law in reversed(self.laws):
            if not isinstance(law, LinearFractionalLaw):
                break
            coeffs.append((1.0 - law.p) / law.p * ratio)
            ratio *= law.r / law.p
            sums.append(sums[-1] + coeffs[-1])
        return coeffs, sums

    def lf_column(self, k: int) -> tuple[list[float], list[float]]:
        """LF s-coefficients s_1, s_2, ... (see ``lf_s_coefficients``) and
        their running sums S_0 = 0, S_1, ..., covering at least levels 1..k."""
        self._check(k)
        if k > len(self._lf[0]):
            raise NotLinearFractionalError(f"level {len(self._lf[0]) + 1} is not linear fractional")
        return self._lf

    @cached_property
    def lf_cumulative(self) -> tuple[float, ...]:
        """Cumulative law of the first coalescent time over levels 1..N of an
        LF environment; the rest of the mass lies past the horizon."""
        tails = [1.0 / (1.0 + s) for s in self.lf_column(self.horizon)[1]]
        return cumulative([tails[k - 1] - tails[k] for k in range(1, self.horizon + 1)])


def environment_from_dict(doc: dict) -> Environment:
    if not isinstance(doc, dict):
        raise EnvFormatError("environment document must be a JSON object")
    if "laws" not in doc:
        raise EnvFormatError("missing 'laws' list")
    raw_laws = doc["laws"]
    if not isinstance(raw_laws, list) or not raw_laws:
        raise EnvFormatError("'laws' must be a non-empty list")
    horizon = doc.get("horizon", len(raw_laws))
    if horizon != len(raw_laws):
        raise EnvFormatError(
            f"declared horizon {horizon} does not match {len(raw_laws)} law entries"
        )
    laws = []
    for i, entry in enumerate(raw_laws):
        try:
            laws.append(_law_from_entry(entry))
        except EnvFormatError as exc:
            raise EnvFormatError(f"laws[{i}]: {exc}") from None
    return Environment(tuple(laws))


def _number(value, what: str) -> float:
    """A JSON number as a float; strings, nulls, booleans and lists are
    format errors, not values."""
    if type(value) is float:
        return value
    if type(value) is not int:  # a bool is an int subclass, not a number here
        raise EnvFormatError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise EnvFormatError(f"{what} is out of range") from None


def _law_from_entry(entry: dict) -> OffspringLaw:
    if not isinstance(entry, dict) or "type" not in entry:
        raise EnvFormatError("law entry must be an object with a 'type' field")
    kind = entry["type"]
    if kind == "pmf":
        probs = entry.get("p")
        if not isinstance(probs, list) or not probs:
            raise EnvFormatError("'pmf' law needs a non-empty probability list 'p'")
        return FiniteSupportLaw(tuple(_number(x, "'pmf' probability") for x in probs))
    if kind == "lf":
        if "r" not in entry or "p" not in entry:
            raise EnvFormatError("'lf' law needs fields 'r' and 'p'")
        return LinearFractionalLaw(_number(entry["r"], "'lf' field 'r'"),
                                   _number(entry["p"], "'lf' field 'p'"))
    raise EnvFormatError(f"unknown law type {kind!r} (expected 'pmf' or 'lf')")


def load_environment(path: str) -> Environment:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise EnvFormatError(f"cannot read environment file: {exc}") from None
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to parse
        raise EnvFormatError(f"environment file is not valid JSON: {exc}") from None
    return environment_from_dict(doc)


def save_environment(env: Environment, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(env.to_dict(), fh, indent=2)
        fh.write("\n")


def constant_environment(law: OffspringLaw, horizon: int) -> Environment:
    if horizon < 1:
        raise EnvFormatError("horizon must be >= 1")
    return Environment((law,) * horizon)


# ---------------------------------------------------------------------------
# Linear-fractional closed forms.  The LF family is closed under composition;
# a member is pinned down by its mean and its normalized second factorial
# moment, which compose by explicit products and sums.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LfParams:
    """Parameters (r, p) of a linear-fractional law, boundary p=1 allowed.

    The boundary covers degenerate composites: the identity composition has
    r = p = 1 (one child with certainty) and an extinct range has r = 0.
    """

    r: float
    p: float

    def __post_init__(self) -> None:
        if not 0 <= self.r <= 1 or not 0 < self.p <= 1:
            raise EnvFormatError(f"invalid composite parameters r={self.r}, p={self.p}")

    @property
    def q(self) -> float:
        return 1.0 - self.p

    def mean(self) -> float:
        return self.r / self.p

    def nsfm(self) -> float:
        if self.r == 0:
            return 0.0
        return 2.0 * self.q / self.r

    def pgf(self, s: Number) -> float:
        s = float(s)
        return 1.0 - self.r * (1.0 - s) / (1.0 - self.q * s)


def lf_compose(env: Environment, m: int, n: int) -> LfParams:
    """Composite law of the population n-m generations below one founder.

    Composes the per-generation laws between generations m and n.  The
    composite mean is the product of the per-generation means and the
    composite normalized second factorial moment accumulates one weighted
    term per generation.
    """
    laws = _range_laws(env, m, n)
    if not all(isinstance(law, LinearFractionalLaw) for law in laws):
        raise NotLinearFractionalError(
            "composition closed form needs every law in the range to be "
            "linear fractional"
        )
    if any(law.r == 0 for law in laws):
        return LfParams(r=0.0, p=1.0)
    mean = 1.0
    for law in laws:
        mean *= law.r / law.p
    nsfm = 0.0
    prefix = 1.0  # product of p_l / r_l over the laws already folded in
    for idx, law in enumerate(laws):
        if idx == 0:
            nsfm += 2.0 * law.q / law.r
        else:
            nsfm += 2.0 * prefix * law.q / law.r
        prefix *= law.p / law.r
    if not laws:
        return LfParams(r=1.0, p=1.0)
    r = 2.0 * mean / (2.0 + mean * nsfm)
    p = 2.0 / (2.0 + mean * nsfm)
    return LfParams(r=r, p=p)


def lf_s_coefficients(env: Environment, n: int) -> tuple[float, ...]:
    """Weights s_i for generations i = -n+1 .. 0, returned oldest-first.

    With (r_i, p_i) the parameters of the law acting into generation i,
    s_0 = (1-p_0)/p_0 and deeper coefficients scale by the growth ratio of
    the generations in between.  The tail probability that the two leftmost
    surviving lineages have not met within n generations is
    1 / (1 + sum of these weights).
    """
    return tuple(reversed(env.levels.lf_column(n)[0][:n]))


def lf_a1_tail(env: Environment, n: int) -> float:
    """Closed-form tail P(first coalescent time > n) for an LF environment."""
    return 1.0 / (1.0 + env.levels.lf_column(n)[1][n])


def lf_eta_success(env: Environment, depth: int) -> float:
    """Geometric success probability of the spine-sibling count at ``depth``.

    The number of extra surviving daughters seen at each ancestor level of
    the leftmost lineage is geometric for LF environments; this returns the
    success parameter at the given level (1 = closest to the present).
    """
    sums = env.levels.lf_column(depth)[1]
    return (1.0 + sums[depth - 1]) / (1.0 + sums[depth])
