"""Exact insertion-count recurrences for proper colorings of cycles and lines.

Two counting functions drive everything in this package. For a word x of
length n over q colors,

    b_circ(x) = [x is cyclically proper] * sum_i b_circ(x with position i
                deleted),            b_circ(empty) = 1,

counts the ways to build x by repeated single-symbol insertion with every
intermediate stage cyclically proper; words of length <= 1 count as
cyclically proper, the unique convention under which the partition sum
obeys z_circ(2, q) = 2 q (q-1). The analogous line count ``b_vec`` demands
plain properness only. Normalizing by the partition sums yields exact laws:
``cycle_law`` on colorings of the n-cycle and ``line_window_law`` on
length-n windows of the line process.

Evaluation strategy: per-word values are memoized under rotation
canonicalization, which is sound because the cyclic count is invariant
under rotation. Whole levels come from a bottom-up pass over dense numpy
int64 arrays of shape (q,)*n, one broadcast step per level, that
canonicalizes nothing, so ``verify shift`` checks the symmetries on them.
Every sized verify suite reads the cycle and line laws only as levels,
through ``cycle_counts`` and ``line_counts`` (``symmetry`` through
``_law_counts``). The two engines are cross-checked in tests.

Laws come only from the dense levels: ``cycle_law``, ``line_window_law``
and the CLI's law dumps read the nonzero entries of level n through
``_law_counts``, and a law is built anew on every call. That bounds them
to n <= 14, q**n within the budget, and q**n < 2**31 (a level of 2**31
int64 counts takes 16 GiB), and partition sums to n <= 14; beyond any
bound they raise ``BudgetExceeded`` before allocating. Every level is checked to hold counts in [0, m!], so an int64
overflow raises instead of giving a law.

Thread-safety: all functions are pure. The shared memo tables are only
ever written with values equal to the single-threaded result, so
concurrent evaluation returns identical results.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Sequence, Union

import numpy as np

from .dist import ExactDist
from .errors import BudgetExceeded
from .words import Word, tuple_is_cyclically_proper, tuple_is_proper

WordLike = Union[Word, Sequence[int], str]

__all__ = [
    "DEFAULT_BUDGET",
    "THEOREM_GRADE",
    "b_circ",
    "b_circ_mobius",
    "b_vec",
    "cycle_counts",
    "cycle_law",
    "is_theorem_grade",
    "line_counts",
    "line_window_law",
    "restriction_sum",
    "z_circ",
    "z_circ_closed",
    "z_vec",
]

#: Cap on the number of states materialized by a law enumeration.
DEFAULT_BUDGET = 5_000_000

#: (dependence range k, color count q) pairs for which the window laws are
#: consistent marginals of a single stationary process on the line.
THEOREM_GRADE = frozenset({(1, 4), (2, 3)})

# Dense-array evaluation bounds. Counts of length-m words are at most m!,
# so int64 arithmetic (including level and slice sums) is exact for
# n <= _BULK_MAX_N; _ENUM_LIMIT caps how many words any sum may visit, and
# partition sums past _CHUNK words sum the top level one slice at a time.
_BULK_MAX_N = 14
_ENUM_LIMIT = 1 << 27
_CHUNK = 1 << 22
# A level of 2**31 int64 counts would take 16 GiB, so none is built.
_CELL_LIMIT = 1 << 31


def is_theorem_grade(k: int, q: int) -> bool:
    return (k, q) in THEOREM_GRADE


def as_symbols(x: WordLike, q: int) -> tuple[int, ...]:
    """Coerce a word-like value to a symbol tuple, validating against q."""
    if isinstance(x, Word):
        t = x.symbols
    elif isinstance(x, str):
        t = Word.parse(x, q).symbols
        return t
    else:
        t = tuple(int(s) for s in x)
    for s in t:
        if not 1 <= s <= q:
            raise ValueError(f"symbol {s} out of range [1, {q}]")
    return t


def _min_rotation(t: tuple[int, ...]) -> tuple[int, ...]:
    n = len(t)
    if n <= 1:
        return t
    best = t
    for r in range(1, n):
        c = t[r:] + t[:r]
        if c < best:
            best = c
    return best


# Memoized across the whole run, not per call: the recursion over deletions
# revisits the same subsequence classes from many top-level words.
_MEMO_CIRC: dict[tuple[int, ...], int] = {(): 1}
_MEMO_VEC: dict[tuple[int, ...], int] = {(): 1}


def _b_circ_rec(t: tuple[int, ...]) -> int:
    key = _min_rotation(t)
    val = _MEMO_CIRC.get(key)
    if val is not None:
        return val
    if not tuple_is_cyclically_proper(key):
        _MEMO_CIRC[key] = 0
        return 0
    total = 0
    for i in range(len(key)):
        total += _b_circ_rec(key[:i] + key[i + 1 :])
    _MEMO_CIRC[key] = total
    return total


def _b_vec_rec(t: tuple[int, ...]) -> int:
    val = _MEMO_VEC.get(t)
    if val is not None:
        return val
    if not tuple_is_proper(t):
        _MEMO_VEC[t] = 0
        return 0
    total = 0
    for i in range(len(t)):
        total += _b_vec_rec(t[:i] + t[i + 1 :])
    _MEMO_VEC[t] = total
    return total


def b_circ(x: WordLike, q: int) -> int:
    """Insertion count of the cyclic word x (exact, arbitrary precision)."""
    return _b_circ_rec(as_symbols(x, q))


def b_vec(x: WordLike, q: int) -> int:
    """Insertion count of the word x on the line (properness only)."""
    return _b_vec_rec(as_symbols(x, q))


def _defect_edges(t: tuple[int, ...]) -> list[int]:
    """0-based positions of the distinct monochromatic cyclic adjacencies.

    A cyclic word of length n >= 3 has n adjacencies (i, i+1 mod n). Length
    2 has a single adjacency, not two, and lengths <= 1 have none; these
    degenerate cases are what make the inclusion-exclusion form below agree
    with the defining recurrence on every word.
    """
    n = len(t)
    if n <= 1:
        return []
    if n == 2:
        return [0] if t[0] == t[1] else []
    return [i for i in range(n) if t[i] == t[(i + 1) % n]]


def b_circ_mobius(x: WordLike, q: int) -> int:
    """The cyclic insertion count via inclusion-exclusion over deletions.

    Evaluates sum_i b_circ(x_del_i) - 2 * sum over monochromatic cyclic
    adjacencies of b_circ(x_del_i), which equals ``b_circ(x)`` on every
    word of length >= 1.
    """
    t = as_symbols(x, q)
    if len(t) == 0:
        raise ValueError("inclusion-exclusion form is defined for length >= 1")
    dels = [b_circ(t[:i] + t[i + 1 :], q) for i in range(len(t))]
    return sum(dels) - 2 * sum(dels[i] for i in _defect_edges(t))


def z_circ_closed(n: int, q: int) -> int:
    """Closed form n! * q * (q-1) * (q-2)^(n-2) for the cyclic partition sum."""
    if n < 2:
        raise ValueError(f"closed form requires n >= 2, got {n}")
    return math.factorial(n) * q * (q - 1) * (q - 2) ** (n - 2)


# -- dense bottom-up evaluation --------------------------------------------
#
# Level m is an int64 array of shape (q,)*m whose entry [x1-1, ..., xm-1] is
# b(x1...xm). Its slice [a] holds the words that start with symbol a: the
# deletion of x1 is level m-1 itself, the deletion of a later x_i is
# level[m-1][a] broadcast along axis i, and ``_differ`` masks zero the words
# that are not (cyclically) proper. ``_levels`` refuses levels of 2**31 cells
# or more (16 GiB of int64) before allocating.
#
# Computed levels are cached per (q, cyclic) and shared across calls: the
# partition suite evaluates many n for one q and reuses all lower levels.

_LEVEL_CACHE: dict[tuple[int, bool], list[np.ndarray]] = {}


def _differ(m: int, q: int, i: int, j: int) -> np.ndarray:
    """The mask x_i != x_j over length-m words, broadcastable to (q,)*m."""
    return np.expand_dims(~np.eye(q, dtype=bool), tuple(k for k in range(m) if k not in (i, j)))


def _checked(vals: np.ndarray, m: int) -> np.ndarray:
    """vals, after checking that every count of a length-m word is in [0, m!].

    A count of a length-m word is a number of insertion orders, so it is at
    most m!; a value outside that range means int64 arithmetic overflowed.
    """
    if vals.size and (int(vals.min()) < 0 or int(vals.max()) > math.factorial(m)):
        raise OverflowError(f"level {m} holds a count outside [0, {m}!]")
    return vals


def _level_values(prev: np.ndarray, a: int, q: int, cyclic: bool, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with slice [a] of level m = prev.ndim + 1, the counts of
    the length-m words that start with symbol a, from level m-1 ``prev``;
    return it checked. ``out`` has the shape of ``prev``."""
    m = prev.ndim + 1
    out[...] = prev
    for i in range(m - 1):
        out += np.expand_dims(prev[a], i)
    for i in range(m - 2):
        out *= _differ(m - 1, q, i, i + 1)
    if m > 1:  # x1 = a differs from x2 and, on the cycle, from xm
        for j in {1, m - 1} if cyclic else {1}:
            out *= _differ(m, q, 0, j)[a]
    return _checked(out, m)


def _levels(q: int, cyclic: bool, upto: int) -> list[np.ndarray]:
    """Dense count arrays for levels 0..upto (cached)."""
    if q**upto >= _CELL_LIMIT:
        raise BudgetExceeded(f"{q}**{upto} int64 counts take 16 GiB or more")
    levels = _LEVEL_CACHE.setdefault((q, cyclic), [np.ones((), dtype=np.int64)])
    for m in range(len(levels), upto + 1):
        level = np.empty((q,) * m, dtype=np.int64)
        for a in range(q):
            _level_values(levels[m - 1], a, q, cyclic, level[a, ...])
        levels.append(level)
    return levels


def _sum_counts(n: int, q: int, *, cyclic: bool) -> int:
    if n < 0 or q < 1:
        raise ValueError("need n >= 0 and q >= 1")
    if n > _BULK_MAX_N or q**n > _ENUM_LIMIT:
        raise BudgetExceeded(
            f"partition sums are computed for n <= {_BULK_MAX_N} and "
            f"q**n <= 2**27 only, got {q}**{n}"
        )
    if n == 0:
        return 1
    if q**n <= _CHUNK:
        return int(_levels(q, cyclic, n)[n].sum())
    # The top level is summed slice by slice so memory stays at O(q**(n-1)).
    prev = _levels(q, cyclic, n - 1)[n - 1]
    buf = np.empty_like(prev)
    return sum(int(_level_values(prev, a, q, cyclic, buf).sum()) for a in range(q))


def z_circ(n: int, q: int) -> int:
    """Partition sum of the cyclic insertion counts over all q**n words."""
    return _sum_counts(n, q, cyclic=True)


def z_vec(n: int, q: int) -> int:
    """Partition sum of the line insertion counts over all q**n words."""
    return _sum_counts(n, q, cyclic=False)


def _check_law_request(n: int, q: int, budget: int) -> None:
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if q < 3:
        raise ValueError(f"law requires q >= 3 colors, got {q}")
    if n > _BULK_MAX_N:
        raise BudgetExceeded(f"laws are enumerated for n <= {_BULK_MAX_N} only, got n = {n}")
    if budget < 1 or q**n > budget:
        raise BudgetExceeded(f"{q}**{n} words exceed the enumeration budget {budget}")


def _counts_view(n: int, q: int, cyclic: bool) -> np.ndarray:
    _check_law_request(n, q, DEFAULT_BUDGET)
    view = _levels(q, cyclic, n)[n].view()
    view.flags.writeable = False
    return view


def cycle_counts(n: int, q: int) -> np.ndarray:
    """b_circ of every length-n word as a read-only (q,)*n view of level n.

    Entry [x1-1, ..., xn-1] is b_circ(x1...xn). Bounded like the laws:
    n <= 14 and q**n <= DEFAULT_BUDGET, else ``BudgetExceeded``.
    """
    return _counts_view(n, q, True)


def line_counts(n: int, q: int) -> np.ndarray:
    """b_vec of every length-n word, as ``cycle_counts`` gives b_circ."""
    return _counts_view(n, q, False)


def _law_counts(n: int, q: int, budget: int, *, cyclic: bool) -> tuple[np.ndarray, list[int], int]:
    """The law's support and weights, straight from the dense level n.

    Returns (rows, counts, z): rows[i] holds the 1-based symbols of the i-th
    word with a positive count, in lexicographic order (which is text
    order for q <= 9); counts[i] is its count as a Python int; z is the sum
    of the counts, so the word has mass counts[i] / z.
    """
    _check_law_request(n, q, budget)
    level = _levels(q, cyclic, n)[n]
    rows = np.argwhere(level).astype(np.int32) + 1
    counts = level[level != 0].tolist()
    return rows, counts, sum(counts)


def _law(n: int, q: int, budget: int, *, cyclic: bool) -> ExactDist:
    rows, counts, _ = _law_counts(n, q, budget, cyclic=cyclic)
    words = [Word(tuple(r), q) for r in rows.tolist()]
    return ExactDist.from_weights(dict(zip(words, counts)))


def cycle_law(n: int, q: int, *, budget: int = DEFAULT_BUDGET) -> ExactDist:
    """The exact law on colorings of the n-cycle: mass b_circ(x) / z_circ(n, q).

    The support is exactly the words with positive insertion count, which
    is a strict subset of the cyclically proper words for n >= 4.
    """
    return _law(n, q, budget, cyclic=True)


def line_window_law(n: int, k: int, q: int, *, budget: int = DEFAULT_BUDGET) -> ExactDist:
    """The exact law of a length-n window of the line process: b_vec / z_vec.

    The pairs (k, q) in ``THEOREM_GRADE`` are the ones for which these
    window laws are the marginals of a single stationary k-dependent
    process on the line; for other q >= 3 the law is still well defined
    and computed, but no consistency claim is made (callers can check
    ``is_theorem_grade``).
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    return _law(n, q, budget, cyclic=False)


def restriction_sum(x: WordLike, k: int, q: int) -> int:
    """Sum of b_circ(x + y) over all length-k extension words y."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    t = as_symbols(x, q)
    return sum(b_circ(t + y, q) for y in product(range(1, q + 1), repeat=k))
