"""Exact operations on distributions, dependence checking, and sampler GoF.

Everything except the chi-square test is exact rational arithmetic with no
tolerances; the chi-square decision is inherently statistical and is taken
at a configurable level (default 0.001). All operations are pure.

Independence has one engine, ``_Marginals``: a law as a count tensor with
one axis per coordinate, marginals as sums over the other axes, and a pair
(S1, S2) accepted iff joint * total == outer(m1, m2) exactly, in Python ints.
The public functions decode an ``ExactDist`` into it (``_dist_counts``);
``verify kdep`` hands ``_dependent_pair`` the dense level and its sum.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np
from scipy.special import gammaincc

from .dist import ExactDist, State, state_text
from .errors import BudgetExceeded
from .recurrence import DEFAULT_BUDGET
from .words import Word, apply_color_perm, reflect, rotate, rotl

__all__ = [
    "GofReport",
    "are_independent",
    "chi_square_gof",
    "k_dependence_counterexample",
    "marginalize",
    "pushforward",
    "symmetry_check",
    "tv_distance",
    "verify_k_dependence",
]


def _state_len(d: ExactDist) -> int:
    state = next(iter(d.support))
    return len(state)


def _restrict(state: State, coords0: Sequence[int]) -> State:
    if isinstance(state, Word):
        return Word(tuple(state.symbols[i] for i in coords0), state.q)
    return tuple(state[i] for i in coords0)


def marginalize(d: ExactDist, coords: Iterable[int]) -> ExactDist:
    """Exact law of the restriction to the given 1-based coordinates.

    Order-preserving: the output coordinates follow increasing input
    position.
    """
    n = _state_len(d)
    cs = sorted(set(int(c) for c in coords))
    if cs and not (1 <= cs[0] and cs[-1] <= n):
        raise ValueError(f"coordinates {cs} not a subset of [1, {n}]")
    coords0 = [c - 1 for c in cs]
    acc: Counter = Counter()
    for state, p in d.items():
        acc[_restrict(state, coords0)] += p
    return ExactDist(acc)


def pushforward(d: ExactDist, f: Callable[[State], State]) -> ExactDist:
    """Exact image law of d under the state map f (total on the support)."""
    acc: Counter = Counter()
    for state, p in d.items():
        acc[f(state)] += p
    return ExactDist(acc)


def _dist_counts(d: ExactDist) -> tuple[np.ndarray, int]:
    """(counts, total): the law's weights over their common denominator, as
    int64 of shape (a,)*n, axis i indexing the i-th coordinate's symbol in
    the sorted alphabet of the law's a symbols (Word and tuple states)."""
    weights, total = d.weights()
    if total >= 1 << 63:
        raise OverflowError(f"common denominator {total} does not fit in int64")
    rows = [tuple(state) for state in weights]
    alphabet = sorted(set().union(*rows))
    a, n = len(alphabet), len(rows[0])
    if a**n > DEFAULT_BUDGET:
        raise BudgetExceeded(f"{a}**{n} count cells exceed the budget {DEFAULT_BUDGET}")
    pos = {c: i for i, c in enumerate(alphabet)}
    idx = np.array([[pos[c] for c in r] for r in rows], dtype=np.int64).reshape(len(rows), n)
    counts = np.zeros((a,) * n, dtype=np.int64)
    values = list(weights.values())
    counts[tuple(idx.T)] = values if n else values[0]  # n = 0: one 0-d cell
    return counts, total


class _Marginals:
    """Integer marginal tables of the law counts / total, cached per
    coordinate tuple. Every entry and marginal sum is at most ``total``, which
    fits int64, so sums are exact; products are taken as Python ints."""

    def __init__(self, counts: np.ndarray, total: int):
        self.counts, self.total = counts, total
        self._cache: dict[tuple[int, ...], np.ndarray] = {}

    def __call__(self, coords0: tuple[int, ...]) -> np.ndarray:
        """Marginal counts on the sorted 0-based coordinates, one axis each."""
        got = self._cache.get(coords0)
        if got is None:
            rest = tuple(i for i in range(self.counts.ndim) if i not in coords0)
            got = self._cache[coords0] = self.counts.sum(axis=rest)
        return got

    def independent(self, s1_0: tuple[int, ...], s2_0: tuple[int, ...]) -> bool:
        """Exact factorization: joint * total == outer(m1, m2) on every cell."""
        union = tuple(sorted(s1_0 + s2_0))
        m1 = self(s1_0).ravel().astype(object)
        m2 = self(s2_0).ravel().astype(object)
        joint = self(union).transpose([union.index(c) for c in s1_0 + s2_0])
        lhs = joint.reshape(m1.size, m2.size).astype(object) * self.total
        return bool((lhs == np.multiply.outer(m1, m2)).all())


def are_independent(d: ExactDist, s1: Iterable[int], s2: Iterable[int]) -> bool:
    """True iff the joint law on s1 and s2 factorizes exactly.

    s1 and s2 are disjoint 1-based coordinate sets; an empty set is
    trivially independent of anything.
    """
    set1 = frozenset(int(c) for c in s1)
    set2 = frozenset(int(c) for c in s2)
    if set1 & set2:
        raise ValueError(f"coordinate sets overlap: {sorted(set1 & set2)}")
    n = _state_len(d)
    for c in set1 | set2:
        if not 1 <= c <= n:
            raise ValueError(f"coordinate {c} not in [1, {n}]")
    if not set1 or not set2:
        return True
    return _Marginals(*_dist_counts(d)).independent(
        tuple(sorted(c - 1 for c in set1)),
        tuple(sorted(c - 1 for c in set2)),
    )


def _cyclic_distance(i: int, j: int, n: int) -> int:
    delta = abs(i - j) % n
    return min(delta, n - delta)


def _admissible_pairs(n: int, k: int):
    """Unordered pairs of disjoint nonempty 0-based subsets at cyclic graph
    distance greater than k. Canonical form: the smallest occupied
    coordinate belongs to the first set, so each pair appears once."""

    def extend(pos: int, s1: list[int], s2: list[int]):
        if pos == n:
            if s1 and s2:
                yield tuple(s1), tuple(s2)
            return
        yield from extend(pos + 1, s1, s2)
        if all(_cyclic_distance(pos, j, n) > k for j in s2):
            s1.append(pos)
            yield from extend(pos + 1, s1, s2)
            s1.pop()
        if s1 and all(_cyclic_distance(pos, j, n) > k for j in s1):
            s2.append(pos)
            yield from extend(pos + 1, s1, s2)
            s2.pop()

    yield from extend(0, [], [])


_Pair = tuple[tuple[int, ...], tuple[int, ...]]


def _check_pair_limit(n: int) -> None:
    if n > 10:
        raise BudgetExceeded(f"the subset-pair check is limited to n <= 10, got {n}")


def _dependent_pair(counts: np.ndarray, total: int, k: int) -> Optional[_Pair]:
    """``k_dependence_counterexample`` of the law counts / total; callers
    check ``_check_pair_limit`` first."""
    marginals = _Marginals(counts, total)
    for s1_0, s2_0 in _admissible_pairs(counts.ndim, k):
        if not marginals.independent(s1_0, s2_0):
            return tuple(c + 1 for c in s1_0), tuple(c + 1 for c in s2_0)
    return None


def k_dependence_counterexample(d: ExactDist, k: int) -> Optional[_Pair]:
    """First dependent admissible pair as 1-based coordinate tuples, or None.

    Enumerates every pair of disjoint nonempty subsets at cyclic distance
    greater than k (definition-faithful); limited to n <= 10.
    """
    _check_pair_limit(_state_len(d))
    return _dependent_pair(*_dist_counts(d), k)


def verify_k_dependence(d: ExactDist, k: int) -> bool:
    """True iff every admissible coordinate-set pair is exactly independent."""
    return k_dependence_counterexample(d, k) is None


def symmetry_check(
    d: ExactDist,
    op: str,
    *,
    r: int = 1,
    sigma=None,
) -> bool:
    """True iff d is exactly invariant under the named state symmetry.

    op is one of "rotation" (cyclic left shift by r), "reflection", or
    "color-permutation" (requires sigma, a bijection of the colors).
    """
    if op == "rotation":
        f = lambda s: rotate(s, r) if isinstance(s, Word) else rotl(s, r)
    elif op == "reflection":
        f = lambda s: reflect(s) if isinstance(s, Word) else s[::-1]
    elif op == "color-permutation":
        if sigma is None:
            raise ValueError("color-permutation requires sigma")
        f = lambda s: apply_color_perm(s, sigma)
    else:
        raise ValueError(f"unknown symmetry operation {op!r}")
    return pushforward(d, f) == d


def tv_distance(d1: ExactDist, d2: ExactDist) -> Fraction:
    """Total variation distance: half the sum of absolute mass differences."""
    states = set(d1.support) | set(d2.support)
    return sum((abs(d1.prob(s) - d2.prob(s)) for s in states), Fraction(0)) / 2


@dataclass(frozen=True)
class GofReport:
    """Chi-square goodness-of-fit decision for sampled counts vs an exact law."""

    statistic: float
    dof: int
    p_value: float
    alpha: float
    passed: bool
    n_samples: int
    n_cells: int
    failure_reason: Optional[str] = None

    def to_json_obj(self) -> dict:
        return {
            "statistic": self.statistic,
            "dof": self.dof,
            "p_value": self.p_value,
            "alpha": self.alpha,
            "passed": self.passed,
            "n_samples": self.n_samples,
            "n_cells": self.n_cells,
            "failure_reason": self.failure_reason,
        }


def chi_square_gof(
    counts: Mapping[State, int], d: ExactDist, alpha: float = 0.001
) -> GofReport:
    """Chi-square test of observed counts against the exact law d.

    States are pooled (lowest expectation first, deterministically by state
    text) until every cell has expected count >= 5; the decision uses the
    regularized upper incomplete gamma tail of the chi-square law. Observed
    states outside the support of d fail automatically with a diagnostic.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    total = sum(counts.values())
    if total < 1:
        raise ValueError("need at least one observation")
    foreign = sorted(
        (state_text(s) for s, c in counts.items() if c and s not in d),
    )
    if foreign:
        return GofReport(
            statistic=float("inf"),
            dof=0,
            p_value=0.0,
            alpha=alpha,
            passed=False,
            n_samples=total,
            n_cells=0,
            failure_reason=f"observed states outside the exact support: {foreign[:5]}",
        )

    cells = [
        (p * total, counts.get(s, 0)) for s, p in d.sorted_items()
    ]  # (exact expectation, observed)
    cells.sort(key=lambda c: c[0])
    pooled: list[tuple[Fraction, int]] = []
    acc_e, acc_o = Fraction(0), 0
    for e, o in cells:
        acc_e += e
        acc_o += o
        if acc_e >= 5:
            pooled.append((acc_e, acc_o))
            acc_e, acc_o = Fraction(0), 0
    if acc_e > 0:
        if pooled:
            last_e, last_o = pooled.pop()
            pooled.append((last_e + acc_e, last_o + acc_o))
        else:
            pooled.append((acc_e, acc_o))

    if len(pooled) < 2:
        return GofReport(
            statistic=0.0,
            dof=0,
            p_value=1.0,
            alpha=alpha,
            passed=True,
            n_samples=total,
            n_cells=len(pooled),
            failure_reason=None,
        )
    stat = sum((o - float(e)) ** 2 / float(e) for e, o in pooled)
    dof = len(pooled) - 1
    p_value = float(gammaincc(dof / 2.0, stat / 2.0))
    return GofReport(
        statistic=stat,
        dof=dof,
        p_value=p_value,
        alpha=alpha,
        passed=p_value >= alpha,
        n_samples=total,
        n_cells=len(pooled),
        failure_reason=None,
    )
