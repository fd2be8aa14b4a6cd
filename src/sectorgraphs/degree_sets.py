"""Degree sets: finite sets or upper tails of nonnegative integers.

Used both for counting vertices whose degree falls in a set and for the
Poisson probabilities ``P(Poi(mean) + shift in A)`` that drive the
total-variation bound integrands.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import poisson


@dataclass(frozen=True)
class DegreeSet:
    """Either the finite set ``members`` or the upper tail ``{j >= threshold}``."""

    kind: str  # "finite" | "tail"
    members: frozenset[int] = frozenset()
    threshold: int = 0

    @classmethod
    def upper_tail(cls, threshold: int) -> "DegreeSet":
        return cls(kind="tail", threshold=max(operator.index(threshold), 0))

    @classmethod
    def finite(cls, values) -> "DegreeSet":
        vals = frozenset(operator.index(v) for v in values)
        if any(v < 0 for v in vals):
            raise ValueError("degree sets contain nonnegative integers only")
        return cls(kind="finite", members=vals)

    def count_in(self, degrees: np.ndarray) -> int:
        """How many entries of ``degrees`` lie in the set."""
        degrees = np.asarray(degrees)
        if self.kind == "tail":
            return int(np.count_nonzero(degrees >= self.threshold))
        return int(np.count_nonzero(np.isin(degrees, sorted(self.members))))

    def poisson_prob(self, mean, shift: int = 0) -> np.ndarray:
        """``P(Poi(mean) + shift in A)``, vectorized over ``mean``; a tail
        the shift alone reaches is exactly 1, without summing a series."""
        mean = np.asarray(mean, dtype=float)
        if self.kind == "tail":
            return poisson.upper_tail(mean, self.threshold - shift)
        total = np.zeros_like(mean)
        for m in self.members:
            if m >= shift:
                total = total + poisson.pmf(m - shift, mean)
        return total

    def descriptor(self) -> str:
        if self.kind == "tail":
            return f"tail:{self.threshold}"
        return "set:" + ",".join(str(v) for v in sorted(self.members))

    @classmethod
    def parse(cls, text: str) -> "DegreeSet":
        """Inverse of ``descriptor``: ``tail:T`` with ``T >= 0``, or ``set:a,b,c``
        (``set:`` is empty)."""
        text = text.strip()
        if text.startswith("tail:"):
            threshold = int(text[5:])
            if threshold < 0:
                raise ValueError(f"negative tail threshold in degree-set descriptor {text!r}")
            return cls.upper_tail(threshold)
        if text.startswith("set:"):
            body = text[4:].strip()
            return cls.finite(int(v) for v in body.split(",") if v != "")
        raise ValueError(f"unrecognized degree-set descriptor {text!r}")
