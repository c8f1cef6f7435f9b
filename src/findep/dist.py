"""Exact finite probability distributions and one-step transition kernels.

States may be any hashable values; this package uses ``Word`` states for
colorings, tuples of bits for binary processes, and strings for
coarse-grained symbols. A law holds positive Python-int weights reduced by
their gcd, and their total, so equal laws hold equal weight dicts. Every
operation runs on these integers: ``prob``, ``items`` and the wire form
build a ``fractions.Fraction`` only on request, and only the constructor
from ``Fraction`` masses converts. No floating point enters these types.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from operator import index
from typing import Any, Hashable, Iterable, Iterator, Mapping

from .words import Word

State = Hashable

__all__ = ["ExactDist", "Kernel", "state_text"]


def state_text(state: State) -> str:
    """Canonical text form of a state, used for serialization and sorting."""
    if isinstance(state, Word):
        return state.text()
    if isinstance(state, tuple):
        if all(isinstance(s, int) and 0 <= s <= 9 for s in state):
            return "".join(str(s) for s in state)
        return ",".join(str(s) for s in state)
    if isinstance(state, str):
        return state
    return repr(state)


class ExactDist:
    """A finitely supported probability distribution with exact rational masses.

    Invariants: positive Python-int weights with gcd 1 and ``_total`` their
    sum; the mass of s is weights[s] / total. Instances are immutable values.
    """

    __slots__ = ("_weights", "_total")

    def __init__(self, probs: Mapping[State, Fraction | int]):
        """Nonnegative masses summing to exactly 1 (``from_weights`` rejects
        a negative one); zero masses are dropped."""
        clean = {s: Fraction(p) for s, p in probs.items() if p}
        if sum(clean.values()) != 1:
            raise ValueError(f"probabilities sum to {sum(clean.values())}, expected exactly 1")
        denom = math.lcm(*(p.denominator for p in clean.values()))
        d = self.from_weights({s: p.numerator * (denom // p.denominator) for s, p in clean.items()})
        self._weights, self._total = d._weights, d._total

    @classmethod
    def from_weights(cls, weights: Mapping[State, int]) -> "ExactDist":
        """The law proportional to nonnegative integer weights, held as Python
        ints (numpy ints too); zeros are dropped, other types raise TypeError."""
        clean = {s: w for s, w in zip(weights, map(index, weights.values())) if w}
        if not clean or min(clean.values()) < 0:
            raise ValueError("weights must be nonnegative with a positive total")
        g = math.gcd(*clean.values())
        d = cls.__new__(cls)
        d._weights = clean if g == 1 else {s: w // g for s, w in clean.items()}
        d._total = sum(d._weights.values())
        return d

    @classmethod
    def point_mass(cls, state: State) -> "ExactDist":
        return cls.from_weights({state: 1})

    def prob(self, state: State) -> Fraction:
        return Fraction(self._weights.get(state, 0), self._total)

    @property
    def support(self) -> Iterable[State]:
        return self._weights.keys()

    def items(self) -> list[tuple[State, Fraction]]:
        return [(s, Fraction(w, self._total)) for s, w in self._weights.items()]

    def __len__(self) -> int:
        return len(self._weights)

    def __iter__(self) -> Iterator[State]:
        return iter(self._weights)

    def __contains__(self, state: State) -> bool:
        return state in self._weights

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, ExactDist):
            return NotImplemented
        return self._weights == other._weights

    __hash__ = None  # mutable-dict backed; never used as a key

    def __repr__(self) -> str:
        return f"ExactDist({len(self._weights)} states)"

    def weights(self) -> tuple[dict[State, int], int]:
        """The stored (weights, total), read-only: prob(s) == weights[s] / total."""
        return self._weights, self._total

    def sorted_items(self) -> list[tuple[State, Fraction]]:
        return sorted(self.items(), key=lambda kv: state_text(kv[0]))

    def to_json_entries(self) -> list[dict[str, str]]:
        """The wire form: a list of {"state", "num", "den"} objects."""
        return [
            {"state": state_text(s), "num": str(p.numerator), "den": str(p.denominator)}
            for s, p in self.sorted_items()
        ]


class Kernel:
    """An exact one-step transition law: each source state maps to an ExactDist."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Mapping[State, ExactDist]):
        self._rows = dict(rows)

    def row(self, state: State) -> ExactDist:
        try:
            return self._rows[state]
        except KeyError:
            raise KeyError(f"state {state!r} not in kernel domain") from None

    @property
    def states(self) -> Iterable[State]:
        return self._rows.keys()

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, state: State) -> bool:
        return state in self._rows

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Kernel):
            return NotImplemented
        return self._rows == other._rows

    __hash__ = None

    def push(self, dist: ExactDist) -> ExactDist:
        """The exact law after one transition from ``dist``.

        Every state in the support of ``dist`` must be in the kernel domain.
        Rows are scaled to the lcm of their totals: integer products only.
        """
        rows = [(w, *self.row(s).weights()) for s, w in dist.weights()[0].items()]
        scale = math.lcm(*(total for _, _, total in rows))
        acc: Counter = Counter()
        for w, row, total in rows:
            w *= scale // total
            for succ, c in row.items():
                acc[succ] += w * c
        return ExactDist.from_weights(acc)
