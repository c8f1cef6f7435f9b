"""Exact operations on distributions, dependence checking, and sampler GoF.

Everything except the chi-square test is exact, on the integer weights
of ``ExactDist`` (``weights()``) with no tolerances and no ``Fraction``
arithmetic; the chi-square decision is inherently statistical and is taken
at a configurable level (default 0.001), and it too pools its cells on
integers. All operations are pure. scipy is loaded only by
``chi_square_gof``, for its p-value (``sample --gof``), so no other command
pays for importing it.

Independence has one engine, ``_independent``, on a law's nonzero cells
(rows, counts, total, a): each state a row of indices into the sorted
alphabet of the law's a symbols, with its int64 weight. The joint of a pair
(S1, S2) is summed over the cells, m1 and m2 from it, and the pair accepted
iff joint * total == outer(m1, m2), decided by ``_cross_equal`` in int64
with no product formed. The public functions read the cells off an
``ExactDist`` (``_dist_cells``), ``verify kdep`` off the count level. The
maximal pairs alone decide k-dependence; ``_pair_table`` lists the pairs as
site bitmasks and marks the maximal ones.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .dist import ExactDist, State, state_text
from .errors import BudgetExceeded
from .recurrence import DEFAULT_BUDGET, _check_k
from .words import Word, apply_color_perm, encode_digits, reflect, rotate, rotl

__all__ = [
    "GofReport",
    "are_independent",
    "chi_square_gof",
    "k_dependence_counterexample",
    "marginalize",
    "min_gof_samples",
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
    return pushforward(d, lambda state: _restrict(state, coords0))


def pushforward(d: ExactDist, f: Callable[[State], State]) -> ExactDist:
    """Exact image law of d under the state map f (total on the support)."""
    acc: Counter = Counter()
    for state, w in d.weights()[0].items():
        acc[f(state)] += w
    return ExactDist.from_weights(acc)


def _dist_cells(d: ExactDist) -> tuple:
    """The law's nonzero cells (rows, counts, total, a): row i holds the
    i-th state's indices into the sorted alphabet of the law's a symbols
    (Word and tuple states), counts[i] its int64 weight, total their sum."""
    weights, total = d.weights()
    if total >= 1 << 63:
        raise OverflowError(f"total weight {total} does not fit in int64")
    states = [tuple(state) for state in weights]
    alphabet = sorted(set().union(*states))
    a, n = len(alphabet), len(states[0])
    if a**n > DEFAULT_BUDGET:
        raise BudgetExceeded(f"{a}**{n} count cells exceed the budget {DEFAULT_BUDGET}")
    pos = {c: i for i, c in enumerate(alphabet)}
    rows = np.array([[pos[c] for c in s] for s in states], dtype=np.int64)
    return rows, np.fromiter(weights.values(), np.int64, len(states)), total, a


def _cross_equal(x: np.ndarray, a, y: np.ndarray, b) -> np.ndarray:
    """Cellwise x * a == y * b, exact, for int64 arrays x, y and positive
    int64 factors a, b that broadcast together: with a / b = a' / b' in
    lowest terms, iff b' | x, a' | y and x // b' == y // a'. No product is
    formed, so nothing exceeds max(|x|, |y|); a factor that is not positive
    raises ``ValueError``, one past int64 ``OverflowError``."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    if (a <= 0).any() or (b <= 0).any():
        raise ValueError("the factors of a cross-multiplication must be positive")
    g = np.gcd(a, b)
    (qx, rx), (qy, ry) = np.divmod(x, b // g), np.divmod(y, a // g)
    return (rx == 0) & (ry == 0) & (qx == qy)


def _independent(cells: tuple, s1: tuple, s2: tuple) -> bool:
    """Exact factorization of a law's nonzero cells (rows, counts, total, a)
    on the 0-based coordinate sets s1 and s2: joint * total == outer(m1, m2),
    the joint summed in int64 over the cells into a**|s1 + s2| values, m1
    and m2 from it by integer ``np.einsum``, which runs along the long axis
    of a tall or wide joint (``sum`` over a tall joint's short rows is
    several times slower). A row with m1 = 0 is a zero joint row; it is
    dropped before m2 is summed, as m1 is a factor."""
    rows, counts, total, a = cells
    joint = np.zeros(a ** (len(s1) + len(s2)), dtype=np.int64)
    np.add.at(joint, encode_digits(rows[:, s1 + s2], a), counts)
    joint = joint.reshape(a ** len(s1), -1)
    m1 = np.einsum("ij->i", joint)
    joint, m1 = joint[m1 > 0], m1[m1 > 0, None]
    return bool(_cross_equal(joint, total, np.einsum("ij->j", joint), m1).all())


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
    s1, s2 = (tuple(sorted(c - 1 for c in s)) for s in (set1, set2))
    return _independent(_dist_cells(d), s1, s2)


def _pair_table(n: int, k: int) -> tuple:
    """The admissible pairs (s1, s2, maximal) of an n-cycle at distance k:
    int64 site masks, site i at bit n-1-i, of the disjoint nonempty sets at
    cyclic distance greater than k, S1 holding the first occupied site
    (s1 > s2), in the base-3 order of the labelling (free, S1, S2) with site
    0 first. A pair is maximal when every free site lies within k of both
    sets; every admissible pair lies inside a maximal one, in one
    orientation or the other."""
    full = (1 << n) - 1
    s1 = s2 = np.zeros(1, dtype=np.int64)
    for _ in range(n):  # the next site's label is the next base-3 digit
        s1 = (s1[:, None] << 1 | [0, 1, 0]).ravel()
        s2 = (s2[:, None] << 1 | [0, 0, 1]).ravel()

    def near(s):  # s OR-ed with its cyclic rotations by 1..min(k, n-1) sites
        out = s
        for d in range(1, min(k, n - 1) + 1):
            out = out | (s << d | s >> (n - d) | s >> d | s << (n - d)) & full
        return out

    near1 = near(s1)
    keep = (s1 > s2) & (s2 > 0) & (near1 & s2 == 0)
    s1, s2, near1 = s1[keep], s2[keep], near1[keep]
    return s1, s2, (s1 | s2 | near1 & near(s2)) == full


_Pair = tuple[tuple[int, ...], tuple[int, ...]]


def _check_pair_limit(n: int) -> None:
    if n > 10:
        raise BudgetExceeded(f"the subset-pair check is limited to n <= 10, got {n}")


def _dependent_pair(cells: tuple, k: int) -> Optional[_Pair]:
    """``k_dependence_counterexample`` of a law's nonzero cells; callers
    check ``_check_pair_limit`` first. Independence passes to subsets, so
    the maximal rows of ``_pair_table`` decide; only a dependent law scans
    every row, in order, to name the first dependent pair."""
    n = cells[0].shape[1]
    s1, s2, maximal = _pair_table(n, k)
    sites = lambda m: tuple(i for i in range(n) if m >> (n - 1 - i) & 1)

    def pairs(rows):  # the rows' masks as 0-based site tuples, in order
        for a, b in zip(s1[rows].tolist(), s2[rows].tolist()):
            yield sites(a), sites(b)

    if all(_independent(cells, *pair) for pair in pairs(maximal)):
        return None
    p1, p2 = next(p for p in pairs(slice(None)) if not _independent(cells, *p))
    return tuple(c + 1 for c in p1), tuple(c + 1 for c in p2)


def k_dependence_counterexample(d: ExactDist, k: int) -> Optional[_Pair]:
    """First dependent admissible pair as 1-based coordinate tuples, or None.

    The pairs are the disjoint nonempty subsets at cyclic distance greater
    than k, in canonical order (definition-faithful); the maximal ones
    decide, and a dependent law is walked in order to its first dependent
    pair. Limited to n <= 10. A negative k raises ValueError.
    """
    _check_k(k)
    _check_pair_limit(_state_len(d))
    return _dependent_pair(_dist_cells(d), k)


def verify_k_dependence(d: ExactDist, k: int) -> bool:
    """True iff every admissible coordinate-set pair is exactly independent."""
    return k_dependence_counterexample(d, k) is None


def symmetry_check(d: ExactDist, op: str, *, r: int = 1, sigma=None) -> bool:
    """True iff d is exactly invariant under the named state symmetry.

    op is one of "rotation" (cyclic left shift by r), "reflection", or
    "color-permutation" (requires sigma, a bijection of the colors).
    """
    maps = {
        "rotation": lambda s: rotate(s, r) if isinstance(s, Word) else rotl(s, r),
        "reflection": lambda s: reflect(s) if isinstance(s, Word) else s[::-1],
        "color-permutation": lambda s: apply_color_perm(s, sigma),
    }
    if op not in maps:
        raise ValueError(f"unknown symmetry operation {op!r}")
    if op == "color-permutation" and sigma is None:
        raise ValueError("color-permutation requires sigma")
    return pushforward(d, maps[op]) == d


def tv_distance(d1: ExactDist, d2: ExactDist) -> Fraction:
    """Total variation distance: half the sum of absolute mass differences,
    summed on the weights cross-multiplied by the two totals."""
    (w1, t1), (w2, t2) = d1.weights(), d2.weights()
    diff = sum(abs(w1.get(s, 0) * t2 - w2.get(s, 0) * t1) for s in w1.keys() | w2.keys())
    return Fraction(diff, 2 * t1 * t2)


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


def _check_alpha(alpha: float) -> None:
    """Raise ValueError unless the GoF significance level lies in (0, 1)."""
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def _pool(expected: Sequence, least) -> list[int]:
    """Pool ascending expectations (here scaled to integers) left to right
    until each pooled cell sums to at least ``least``; a leftover joins the
    last cell (or is the only one). The end index of each pooled cell."""
    ends, acc = [], 0
    for i, e in enumerate(expected, 1):
        acc += e
        if acc >= least:
            ends.append(i)
            acc = 0
    if acc:
        ends[-1:] = [len(expected)]
    return ends


def min_gof_samples(d: ExactDist) -> int:
    """The fewest samples that ``chi_square_gof`` against d pools into at
    least two cells (dof >= 1), read from the expectations alone.

    With the weights in ascending order, prefix sums S_i and total T, n
    samples pool into two cells iff some i < m (the number of states) has
    n S_i >= 5 T and n (T - S_i) >= 5 T: the first cell closes no later
    than i, and the rest then expects at least 5. So the answer is the
    least max(ceil(5T / S_i), ceil(5T / (T - S_i))) over i < m.
    """
    if len(d) < 2:
        raise ValueError("a law with one state leaves a chi-square test nothing to test")
    weights, total = d.weights()
    prefix = list(accumulate(sorted(weights.values())))[:-1]
    return min(max(-(-5 * total // s), -(-5 * total // (total - s))) for s in prefix)


def chi_square_gof(
    counts: Mapping[State, int], d: ExactDist, alpha: float = 0.001
) -> GofReport:
    """Chi-square test of observed counts against the exact law d.

    States are pooled (lowest expectation first, deterministically by state
    text) until every cell has expected count >= 5 (``_pool``); the decision
    uses the regularized upper incomplete gamma tail of the chi-square law.
    Observed states outside the support of d fail automatically with a
    diagnostic. Fewer samples than ``min_gof_samples(d)`` pool into one
    cell, which leaves nothing to test: ValueError.
    """
    _check_alpha(alpha)
    total = sum(counts.values())
    if total < 1:
        raise ValueError("need at least one observation")
    foreign = sorted(state_text(s) for s, c in counts.items() if c and s not in d)
    if foreign:
        reason = f"observed states outside the exact support: {foreign[:5]}"
        return GofReport(statistic=float("inf"), dof=0, p_value=0.0, alpha=alpha,
                         passed=False, n_samples=total, n_cells=0, failure_reason=reason)

    # (weight, observed) by weight, ties by state text; weights summing to w
    # expect w * total / t samples, at least 5 iff w * total >= 5 * t
    weights, t = d.weights()
    cells = sorted(((weights[s], counts.get(s, 0)) for s in sorted(weights, key=state_text)),
                   key=lambda c: c[0])
    pooled, start = [], 0
    for end in _pool([w * total for w, _ in cells], 5 * t):
        pooled.append((sum(w for w, _ in cells[start:end]) * total / t,  # correctly rounded
                       sum(o for _, o in cells[start:end])))
        start = end
    if len(pooled) < 2:
        raise ValueError(f"{total} samples pool into one cell; a chi-square test "
                         f"needs min_gof_samples(d) = {min_gof_samples(d)}")
    dof = len(pooled) - 1
    stat = sum((o - e) ** 2 / e for e, o in pooled)
    # imported here, not at the top: scipy.special takes longer to import
    # than the rest of findep, and only this p-value needs it
    from scipy.special import gammaincc

    p_value = float(gammaincc(dof / 2.0, stat / 2.0))
    return GofReport(statistic=stat, dof=dof, p_value=p_value, alpha=alpha,
                     passed=p_value >= alpha, n_samples=total, n_cells=len(pooled))
