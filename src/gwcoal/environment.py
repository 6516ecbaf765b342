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
    EnumerationGuardError,
    EnvFormatError,
    GwcoalError,
    HorizonError,
    NotLinearFractionalError,
)
from .laws import FiniteSupportLaw, LinearFractionalLaw, Number, OffspringLaw
from .sampling import cumulative, guide_table

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

    @cached_property
    def is_exact(self) -> bool:
        """Every law has finite support and exact probabilities: the tables,
        laws and checks of an exact environment are exact, of others float."""
        return all(isinstance(law, FiniteSupportLaw) and law.is_exact for law in self.laws)

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


# Mass below which the geometric tails of linear-fractional laws are cut.
TAIL_CUT = 1e-13


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

    def materialized(self, tol: float = TAIL_CUT) -> "EtaLaw":
        """Finite table covering all but at most ``tol`` of the mass; raises
        EnumerationGuardError when that takes more than 100001 items."""
        if self.geom is None:
            return self
        lam = self.geom
        if lam >= 1.0:
            return EtaLaw(probs=(1.0,), geom=lam, tail=0.0)
        # P(value > K) = (1-lam)^(K+1)
        need = max(0, math.ceil(math.log(tol) / math.log(1.0 - lam)))
        if need > 100_000:
            raise EnumerationGuardError(f"geometric table needs more than 100000 items at tol={tol!r}")
        probs = tuple(lam * (1.0 - lam) ** k for k in range(need + 1))
        return EtaLaw(probs=probs, geom=lam, tail=(1.0 - lam) ** (need + 1))


class LevelTable:
    """Per-level quantities of one environment, from one backward pass.

    Level k = 1..N lies k generations above the present and reproduces by
    f_k = ``laws[N - k]``.  From u_0 = 0 and D_0 = 1 the pass sets u_k =
    f_k(u_{k-1}), the chance that one level-k individual has no descendant
    at generation 0, D_k = D_{k-1} f_k'(u_{k-1}), p_k = P(eta_k = 0) and
    P_k = p_1 ... p_k, which must equal the closed form D_k / (1 - u_k).
    A read of level k fills every level up to k that is not yet filled, in
    one loop; a read of an eta law also fills the eta laws below it.  So
    the table grows only as deep as the deepest level read: exact values
    grow doubly exponentially in size with the depth.  The LF column is the
    same pass in closed form, from the s-coefficients alone.
    """

    def __init__(self, laws: Sequence[OffspringLaw]):
        self.laws = tuple(laws)
        self.horizon = len(self.laws)
        self.zero: Number = Fraction(0) if Environment(self.laws).is_exact else 0.0
        self._rows: list[tuple] = [(self.zero, 1, math.nan, 1)]
        self._etas: list[EtaLaw] = []  # the eta laws of levels 1, 2, ...

    def _check(self, k: int, lowest: int = 1) -> None:
        if not lowest <= k <= self.horizon:
            raise HorizonError(f"depth {k} outside [{lowest}, {self.horizon}]")

    def column(self, k: int) -> tuple[Number, Number, Number, Number]:
        """(u_k, D_k, p_k, P_k) for 0 <= k <= N; p_k is NaN at a
        finite-support level without survival, and so is P_k from there on."""
        self._check(k, 0)
        if k >= len(self._rows):
            self._fill(k, False)
        return self._rows[k]

    def eta(self, k: int) -> EtaLaw:
        """Spine-sibling law at level k."""
        if not 0 < k <= len(self._etas):
            self._check(k)
            self._fill(k, True)
        return self._etas[k - 1]

    def etas(self) -> list[EtaLaw]:
        """Spine-sibling laws at levels 1..N, from one fill; a copy of the
        table's list."""
        if len(self._etas) < self.horizon:
            self._fill(self.horizon, True)
        return list(self._etas)

    def fill(self, etas: bool = False) -> None:
        """Fill levels 1..N, and with ``etas`` their eta laws, in one loop,
        for a caller about to read every level in turn.  A level that fails
        stops the loop and raises again when it is read, so such a caller
        meets each failure where it did without the fill."""
        try:
            self._fill(self.horizon, etas)
        except GwcoalError:
            pass

    def _fill(self, k: int, etas: bool) -> None:
        """The rows up to level k and, with ``etas``, the eta laws too, in
        one loop over the levels.  Each value is formed by the expressions,
        in the order, of the per-level calls: ``pgf``, ``pgf_deriv`` and
        ``_eta_law``, so it is the same number bit for bit.
        """
        rows, laws, N, out = self._rows, self.laws, self.horizon, self._etas
        filled = len(rows)
        start = len(out) + 1 if etas else filled
        u, deriv, _, product = rows[start - 1]
        for j in range(start, k + 1):
            law = laws[N - j]
            if j < filled:
                nxt, deriv, p0, product = rows[j]
            else:
                if isinstance(law, LinearFractionalLaw):
                    fprime, nxt = law.pgf_deriv(u, 1), law.pgf(u)
                    p0 = (1.0 - law.q) / (1.0 - law.q * float(u))
                else:
                    nxt = law.pgf(u)  # checks that u lies in [0, 1]
                    fprime = law._deriv(u, 1)
                    p0 = (1 - u) * fprime / (1 - nxt) if nxt != 1 else math.nan
                deriv, product = deriv * fprime, product * p0
                rows.append((nxt, deriv, p0, product))
            if etas:
                out.append(_eta_law(j, law, u, nxt, p0))
            u = nxt

    @cached_property
    def offspring_steps(self) -> tuple[tuple[OffspringLaw, tuple[float, ...] | None,
                                             bytes | None], ...]:
        """(law, cumulative table, guide table) of each generation, oldest
        first, as a forward draw reads them: the ``guide_table`` is None for
        a finite-support law of 255 or more entries, and both tables are
        None for a linear-fractional law."""
        steps = []
        for law in self.laws:
            if isinstance(law, FiniteSupportLaw):
                cum = cumulative(law.probs)
                steps.append((law, cum, guide_table(cum)))
            else:
                steps.append((law, None, None))
        return tuple(steps)

    @cached_property
    def _lf_sums(self) -> list[float]:
        sums = [0.0]
        ratio = 1.0  # product of r/p over the levels already folded in
        for law in reversed(self.laws):
            if not isinstance(law, LinearFractionalLaw):
                break
            sums.append(sums[-1] + (1.0 - law.p) / law.p * ratio)
            ratio *= law.r / law.p
        return sums

    def lf_column(self, k: int) -> list[float]:
        """Running sums S_0 = 0, S_1, ... of the LF s-coefficients, covering
        at least levels 1..k.  Level j adds s_j = (1 - p_j)/p_j times the
        product of r_i/p_i over the levels i < j, and the first coalescent
        time exceeds k with probability 1 / (1 + S_k)."""
        self._check(k)
        if k >= len(self._lf_sums):
            raise NotLinearFractionalError(f"level {len(self._lf_sums)} is not linear fractional")
        return self._lf_sums

    @cached_property
    def lf_cumulative(self) -> tuple[float, ...]:
        """Cumulative law of the first coalescent time over levels 1..N of an
        LF environment; the rest of the mass lies past the horizon.  A level
        with r = 0 has no children, so nothing survives and there is no law."""
        tails = [1.0 / (1.0 + s) for s in self.lf_column(self.horizon)]
        if any(law.r == 0 for law in self.laws):
            raise DegenerateEnvironmentError(_NO_SURVIVAL)
        return cumulative([tails[k - 1] - tails[k] for k in range(1, self.horizon + 1)])


def _eta_law(k: int, law: OffspringLaw, u: Number, extinct: Number, p0: Number) -> EtaLaw:
    """The eta law at level k, from u = u_{k-1}, u_k = ``extinct`` and p_k.

    A finite law gives p_k, then ``alive ** m * f^(m)(u) / (m! * surv)``
    for m = 2..max_children; an LF law gives the geometric law of success
    probability p_k.
    """
    surv = 1 - extinct
    if surv == 0:
        raise DegenerateEnvironmentError(_NO_SURVIVAL)
    if isinstance(law, LinearFractionalLaw):
        return EtaLaw((), p0)
    alive = 1 - u
    out = [p0]
    try:
        for m in range(2, law.max_children + 1):
            out.append(alive ** m * law._deriv(u, m) / (math.factorial(m) * surv))
    except OverflowError:
        # j!/(j-k)! past 170! does not fit a float
        raise GwcoalError(f"eta law at level {k}: a pmf law of width {len(law.probs)} "
                          "overflows the float derivative formula") from None
    return EtaLaw(tuple(out))


def environment_from_dict(doc: dict) -> Environment:
    if not isinstance(doc, dict):
        raise EnvFormatError("environment document must be a JSON object")
    if "laws" not in doc:
        raise EnvFormatError("missing 'laws' list")
    raw_laws = doc["laws"]
    if not isinstance(raw_laws, list) or not raw_laws:
        raise EnvFormatError("'laws' must be a non-empty list")
    horizon = doc.get("horizon", len(raw_laws))
    if type(horizon) is not int:  # a bool is an int subclass, and 1.0 == 1
        raise EnvFormatError(f"'horizon' must be an integer, got {horizon!r}")
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


def lf_a1_tail(env: Environment, n: int) -> float:
    """Closed-form tail P(first coalescent time > n) for an LF environment."""
    return 1.0 / (1.0 + env.levels.lf_column(n)[n])
