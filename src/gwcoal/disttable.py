"""Finite probability tables keyed by canonical outcome strings."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import DomainError


def outcome_key(k: int, a: Iterable[int] | str) -> str:
    """Canonical key for a genealogy outcome, e.g. 'K=3;A=1,2'.

    The times ``a`` may also be given as their comma-joined text.
    """
    return f"K={k};A=" + (a if isinstance(a, str) else ",".join(map(str, a)))


class DistTable(dict):
    """Probability table over canonical string keys.

    Values may be floats or Fractions.  ``truncated_mass`` records mass known
    to be missing from the table (zero for fully exact computations).
    """

    truncated_mass = 0.0

    def total(self):
        return sum(self.values())

    def add(self, key: str, mass) -> None:
        self[key] = self.get(key, 0) + mass

    def normalized(self) -> "DistTable":
        """The table over its total; integer masses, the numerators of an
        exact sweep, give ``Fraction`` values."""
        z = self.total()
        if z == 0:
            raise DomainError("cannot normalize an empty table")
        out = DistTable({k: Fraction(v, z) if isinstance(z, int) else v / z
                         for k, v in self.items()})
        out.truncated_mass = float(self.truncated_mass) / float(z)
        return out


def tv_distance(a: Mapping, b: Mapping):
    """Total variation distance, half the L1 gap over the union of keys.

    Returns a Fraction when both tables carry exact values, a float otherwise.
    Keys whose two values are equal add nothing and are skipped.  Float gaps
    are summed with ``math.fsum``, so the result does not depend on the
    iteration order of the keys.
    """
    keys = set(a) | set(b)
    terms = [abs(x - y) for x, y in ((a.get(k, 0), b.get(k, 0)) for k in keys) if x != y]
    if terms:
        exact = all(isinstance(t, Fraction) for t in terms)
    else:
        exact = isinstance(next(itertools.chain(a.values(), b.values()), None), Fraction)
    return sum(terms, Fraction(0)) / 2 if exact else 0.5 * math.fsum(terms)
