"""Offspring distributions and their probability generating functions.

Two families are supported:

* ``FiniteSupportLaw``: an explicit table p_0, ..., p_K over child counts.
* ``LinearFractionalLaw``: P(0) = 1-r and P(k) = r*p*q^(k-1) for k >= 1,
  with q = 1-p.  Its generating function is f(s) = 1 - r(1-s)/(1-qs), a
  family closed under composition.

Probabilities in a ``FiniteSupportLaw`` may be ``Fraction`` instances, in
which case every generating-function computation stays exact.  The
linear-fractional closed forms are float-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import lt
from typing import Union

from .errors import DomainError, EnvFormatError

Number = Union[int, float, Fraction]

# float laws must sum to 1 within this; Fraction laws must sum exactly
PROB_SUM_TOL = 1e-12


def _check_point(s: Number) -> None:
    if not 0 <= s <= 1:
        raise DomainError(f"generating functions are evaluated on [0,1], got {s!r}")


def _check_order(k: int) -> None:
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"derivative order must be an integer >= 1, got {k!r}")


@dataclass(frozen=True)
class FiniteSupportLaw:
    """Offspring law with finite support; ``probs[k]`` is P(k children)."""

    probs: tuple[Number, ...]

    def __post_init__(self) -> None:
        probs = self.probs
        if not probs:
            raise EnvFormatError("finite-support law needs at least one probability")
        if any(map(lt, probs, repeat(0))):
            raise EnvFormatError("negative probability in finite-support law")
        total = sum(probs)
        # a float first entry settles it without the slower ABC check
        exact = type(probs[0]) is not float and all(isinstance(p, (Fraction, int)) for p in probs)
        object.__setattr__(self, "_exact", exact)
        if exact:
            if total != 1:
                raise EnvFormatError(f"probabilities sum to {total}, expected exactly 1")
        elif not math.isfinite(total):
            # a NaN or infinite entry makes the sum non-finite
            raise EnvFormatError("non-finite probability in finite-support law")
        elif abs(total - 1) > PROB_SUM_TOL:
            raise EnvFormatError(f"probabilities sum to {float(total)!r}, expected 1")

    @property
    def is_exact(self) -> bool:
        """Every probability is a Fraction or an int."""
        return self._exact

    @property
    def max_children(self) -> int:
        """Largest k with P(k) > 0."""
        for k in range(len(self.probs) - 1, -1, -1):
            if self.probs[k] > 0:
                return k
        return 0

    def mean(self) -> Number:
        return sum(k * p for k, p in enumerate(self.probs))

    def pmf(self, k: int) -> Number:
        if k < 0:
            raise DomainError("child count must be >= 0")
        return self.probs[k] if k < len(self.probs) else 0 * self.probs[0]

    def pgf(self, s: Number) -> Number:
        _check_point(s)
        acc = 0 * s
        for p in reversed(self.probs):
            acc = acc * s + p
        return acc

    def pgf_deriv(self, s: Number, k: int) -> Number:
        _check_point(s)
        _check_order(k)
        return self._deriv(s, k)

    def _deriv(self, s: Number, k: int) -> Number:
        """``pgf_deriv`` without the argument checks, for callers that
        already hold s in [0, 1] and an integer k >= 1."""
        # d^k/ds^k sum_j p_j s^j = sum_{j>=k} p_j * j!/(j-k)! * s^(j-k)
        probs, perm = self.probs, math.perm
        acc = 0 * s
        for j in range(len(probs) - 1, k - 1, -1):
            acc = acc * s + probs[j] * perm(j, k)
        return acc

    def as_rational(self) -> "FiniteSupportLaw":
        """Convert float probabilities to exact fractions.

        Each float converts to its exact binary value, so this only succeeds
        when the stated probabilities are dyadic and sum to exactly 1.
        """
        probs = tuple(p if isinstance(p, Fraction) else Fraction(p) for p in self.probs)
        if sum(probs) != 1:
            raise EnvFormatError(
                "probabilities are not exactly representable; rational mode needs "
                "dyadic entries summing to 1"
            )
        return FiniteSupportLaw(probs)


@dataclass(frozen=True)
class LinearFractionalLaw:
    """P(0) = 1-r, P(k) = r*p*(1-p)^(k-1) for k >= 1."""

    r: float
    p: float

    def __post_init__(self) -> None:
        if not 0 <= self.r <= 1:
            raise EnvFormatError(f"linear-fractional r must lie in [0,1], got {self.r}")
        if not 0 < self.p < 1:
            raise EnvFormatError(f"linear-fractional p must lie in (0,1), got {self.p}")
        if 1.0 - self.p == 1.0:
            # q = 1 - p must stay below 1, or the geometric tail never decays
            raise EnvFormatError(f"linear-fractional p must exceed 2**-54, got {self.p}")

    @property
    def q(self) -> float:
        return 1.0 - self.p

    @property
    def max_children(self) -> int | None:
        """Unbounded support unless r == 0."""
        return 0 if self.r == 0 else None

    def mean(self) -> float:
        return self.r / self.p

    def pmf(self, k: int) -> float:
        if k < 0:
            raise DomainError("child count must be >= 0")
        if k == 0:
            return 1.0 - self.r
        return self.r * self.p * self.q ** (k - 1)

    def pgf(self, s: Number) -> float:
        _check_point(s)
        s = float(s)
        return 1.0 - self.r * (1.0 - s) / (1.0 - self.q * s)

    def pgf_deriv(self, s: Number, k: int) -> float:
        _check_point(s)
        _check_order(k)
        s = float(s)
        # closed form: f^(k)(s) = k! * r * p * q^(k-1) / (1-qs)^(k+1)
        return (
            math.factorial(k)
            * self.r
            * self.p
            * self.q ** (k - 1)
            / (1.0 - self.q * s) ** (k + 1)
        )

    def as_rational(self) -> "LinearFractionalLaw":
        raise EnvFormatError("rational mode is only available for finite-support laws")


OffspringLaw = Union[FiniteSupportLaw, LinearFractionalLaw]


def dirac(k: int) -> FiniteSupportLaw:
    """Law giving exactly k children."""
    probs = [Fraction(0)] * (k + 1)
    probs[k] = Fraction(1)
    return FiniteSupportLaw(tuple(probs))

