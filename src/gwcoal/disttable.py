"""Finite probability tables keyed by canonical outcome strings."""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import DomainError


def outcome_key(k: int, a: Iterable[int] | str) -> str:
    """Canonical key for a genealogy outcome, e.g. 'K=3;A=1,2'.

    The times ``a`` may also be given as their comma-joined text.
    """
    return f"K={k};A=" + (a if isinstance(a, str) else ",".join(map(str, a)))


def parse_outcome(key: str) -> tuple[int, tuple[int, ...]]:
    try:
        k_part, a_part = key.split(";")
        k = int(k_part.removeprefix("K="))
        body = a_part.removeprefix("A=")
        a = tuple(int(x) for x in body.split(",")) if body else ()
    except (ValueError, AttributeError):
        raise DomainError(f"malformed outcome key {key!r}") from None
    return k, a


class DistTable(dict):
    """Probability table over canonical string keys.

    Values may be floats or Fractions.  ``truncated_mass`` records mass known
    to be missing from the table (zero for fully exact computations).
    """

    def __init__(self, *args, truncated_mass: float = 0.0, **kwargs):
        super().__init__(*args, **kwargs)
        self.truncated_mass = truncated_mass

    def total(self):
        return sum(self.values())

    def add(self, key: str, mass) -> None:
        self[key] = self.get(key, 0) + mass

    def normalized(self) -> "DistTable":
        z = self.total()
        if z == 0:
            raise DomainError("cannot normalize an empty table")
        out = DistTable({k: v / z for k, v in self.items()})
        out.truncated_mass = float(self.truncated_mass) / float(z)
        return out

    def tv(self, other: Mapping) -> float:
        return tv_distance(self, other)


def tv_distance(a: Mapping, b: Mapping):
    """Total variation distance, half the L1 gap over the union of keys.

    Returns a Fraction when both tables carry exact values, a float otherwise.
    Keys whose two values are equal add nothing and are skipped.
    """
    keys = set(a) | set(b)
    gap = sum(abs(x - y) for x, y in ((a.get(k, 0), b.get(k, 0)) for k in keys) if x != y)
    if isinstance(gap, Fraction):
        return gap / 2
    if gap == 0 and isinstance(next(itertools.chain(a.values(), b.values()), None), Fraction):
        return Fraction(0)
    return 0.5 * float(gap)
