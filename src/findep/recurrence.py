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

Evaluation strategy: ``b_circ`` and ``b_vec`` share one recursion over
deletions, memoized on the raw symbol tuple; they differ only in the
properness test they pass. No key is canonicalized under rotation, so the
rotation invariance that the tests check can fail. Whole levels come from
a bottom-up pass over the proper words only: level m is an int64 array of
shape (q,) + (q-1,)*(m-1), indexed by a word's first color and its m-1
nonzero color increments mod q, one gather per deletion, that
canonicalizes nothing. ``cycle_counts`` and ``line_counts`` scatter level
n, on every call, into a read-only dense (q,)*n view, zero off the proper
words, on which ``verify shift`` checks the symmetries. Every sized verify
suite reads the cycle and line laws only as these views, but ``symmetry``,
``kdep`` and ``coupling``'s level n (through ``_law_cells``). The two
engines are cross-checked in tests.

Everything else reads level n one first-color slice at a time, served by
a cached level n or else computed from the cached level n-1 into one
reused buffer and not stored; each reader computes every slice once.
``_level_totals`` gives (states, z), for ``z_circ``/``z_vec``;
``_slice_cells`` a slice's nonzero cells, int32 word codes in
lexicographic order (x1 is a code's most significant digit) with int64
counts; ``_law_cells`` all of them as 0-based rows, for the laws, the
``symmetry`` and ``kdep`` suites and ``growth._necklace_blocks``. The
CLI's GoF law reads the slices themselves, a block of cells at a time;
its dumps (``_law_slices``) need the totals first, so they alone may
compute level n twice. No array of q**n cells is allocated, and a law is
built anew on every call. That bounds laws to n <= 14, q**n within the
budget, and q**n < 2**31 (word codes are int32; this caps no memory: the
cached level n-1 holds q (q-1)**(n-2) int64 counts and a slice of level
n (q-1)**(n-1), 0.56 and 0.48 GB for ``exact cycle --n 11 --q 7 --budget
2000000000``), and partition sums to n <= 14; beyond any bound they
raise ``BudgetExceeded`` before allocating. Every level and slice is
checked to hold counts in [0, m!], and each sum of them to fit int64
before it is taken (``_count_sum``), so an int64 overflow raises instead
of giving a law.

Thread-safety: all functions are pure. The per-word memos and the level
cache are only ever written with values equal to the single-threaded
result, so concurrent evaluation returns identical results.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product
from typing import Callable, Sequence, Union

import numpy as np

from .dist import ExactDist
from .errors import BudgetExceeded
from .words import Word, decode_codes, tuple_is_cyclically_proper, tuple_is_proper

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
# so int64 level arithmetic is exact for n <= _BULK_MAX_N (``_count_sum``
# checks the sums); _ENUM_LIMIT caps how many words any sum may visit.
_BULK_MAX_N = 14
_ENUM_LIMIT = 1 << 27
# Word codes are int32 (``_slice_codes``): no level has q**m >= 2**31.
_CELL_LIMIT = 1 << 31
# The one int64 bound every overflow guard of the package compares with.
_INT64_MAX = np.iinfo(np.int64).max


def is_theorem_grade(k: int, q: int) -> bool:
    return (k, q) in THEOREM_GRADE


def as_symbols(x: WordLike, q: int) -> tuple[int, ...]:
    """Coerce a word-like value to a symbol tuple, validating against q."""
    if isinstance(x, Word):
        t = x.symbols
    elif isinstance(x, str):
        return Word.parse(x, q).symbols
    else:
        t = tuple(int(s) for s in x)
    for s in t:
        if not 1 <= s <= q:
            raise ValueError(f"symbol {s} out of range [1, {q}]")
    return t


# One memo per properness test, kept across the whole run: the recursion
# over deletions revisits the same subwords from many top-level words.
_MEMOS: dict[Callable, dict[tuple[int, ...], int]] = {
    test: {(): 1} for test in (tuple_is_cyclically_proper, tuple_is_proper)
}


def _insertion_count(t: tuple[int, ...], proper: Callable[[tuple[int, ...]], bool]) -> int:
    """The insertion orders that build t with every stage passing ``proper``."""
    memo = _MEMOS[proper]
    val = memo.get(t)
    if val is None:
        val = 0
        if proper(t):
            for i in range(len(t)):
                val += _insertion_count(t[:i] + t[i + 1 :], proper)
        memo[t] = val
    return val


def b_circ(x: WordLike, q: int) -> int:
    """Insertion count of the cyclic word x (exact, arbitrary precision)."""
    return _insertion_count(as_symbols(x, q), tuple_is_cyclically_proper)


def b_vec(x: WordLike, q: int) -> int:
    """Insertion count of the word x on the line (properness only)."""
    return _insertion_count(as_symbols(x, q), tuple_is_proper)


def _cyclic_edges(n: int) -> range:
    """The 0-based cyclic adjacencies (i, i+1 mod n) of a length-n word.

    A cyclic word of length n >= 3 has n adjacencies. Length 2 has a single
    adjacency, not two, and lengths <= 1 have none; these degenerate cases
    are what make the inclusion-exclusion form below agree with the
    defining recurrence on every word.
    """
    return range(n) if n >= 3 else range(n - 1)


def b_circ_mobius(x: WordLike, q: int) -> int:
    """The cyclic insertion count via inclusion-exclusion over deletions.

    Evaluates sum_i b_circ(x_del_i) - 2 * sum over monochromatic cyclic
    adjacencies of b_circ(x_del_i), which equals ``b_circ(x)`` on every
    word of length >= 1.
    """
    t = as_symbols(x, q)
    if len(t) == 0:
        raise ValueError("inclusion-exclusion form is defined for length >= 1")
    n = len(t)
    dels = [b_circ(t[:i] + t[i + 1 :], q) for i in range(n)]
    return sum(dels) - 2 * sum(dels[i] for i in _cyclic_edges(n) if t[i] == t[(i + 1) % n])


def z_circ_closed(n: int, q: int) -> int:
    """Closed form n! * q * (q-1) * (q-2)^(n-2) for the cyclic partition sum."""
    if n < 2:
        raise ValueError(f"closed form requires n >= 2, got {n}")
    return math.factorial(n) * q * (q - 1) * (q - 2) ** (n - 2)


# -- bottom-up evaluation on proper words -----------------------------------
#
# Only proper words can have a nonzero count, so a level stores just those.
# Level m >= 1 is an int64 array of shape (q,) + (q-1,)*(m-1): cell
# [c1, e2, ..., em] is the word with x1 = c1 and x_i = x_(i-1) + d_i
# (mod q), d_i = e_i + 1 (0-based colors); on the cycle the cells with
# d_2 + ... + d_m = 0 (mod q), whose last color equals the first, hold 0.
# Level 0 is a 0-d array. Slice [a] holds the words that start with color
# a. Deleting x1 reads level m-1 at first color a + d_2; deleting xm reads
# its slice [a], broadcast; deleting an interior x_i merges d_i and
# d_(i+1) into one increment, and a merged 0 marks an improper child,
# which counts 0. Each slice is computed from level m-1 alone, so no count
# of one slice is copied or relabeled into another and ``verify shift``
# still checks the color symmetry on the dense view. ``_levels`` refuses
# levels with q**m >= 2**31, whose word codes would not fit int32, before
# allocating.
#
# Computed levels are cached per (q, cyclic) and shared across calls: the
# partition suite evaluates many n for one q and reuses all lower levels.
# Sums and laws read level n slice by slice (``_top_slices``), from the
# cache if it holds level n, and keep none of it.

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


def _slice_codes(q: int, m: int, a: Union[int, np.ndarray]) -> np.ndarray:
    """The row-major index in (q,)*m of the word at each cell of slice [a] of
    level m >= 1, shape (q-1,)*(m-1), as int32: no level with q**m >= 2**31
    is built. The codes of slice [a] lie in a*q**(m-1) + [0, q**(m-1)). An
    array of first colors a gives their slices stacked along its axes, so
    a = range(q) gives the codes of the whole level."""
    color = code = np.array(a, dtype=np.int32)
    for _ in range(m - 1):
        color = color[..., None] + np.arange(1, q, dtype=np.int32)
        color %= q
        code = code[..., None] * q + color
    return code


@lru_cache(maxsize=2)
def _closing(q: int, m: int) -> np.ndarray:
    """The cyclically proper cells of a level-m slice: d_2 + ... + d_m != 0
    (mod q), shape (q-1,)*(m-1). Read-only."""
    s = np.zeros((), dtype=np.int64)
    for _ in range(m - 1):
        s = (s[..., None] + np.arange(1, q)) % q
    mask = s != 0
    mask.flags.writeable = False
    return mask


def _level_values(prev: np.ndarray, a: int, q: int, cyclic: bool, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with slice [a] of level m = prev.ndim + 1, the counts of
    the proper length-m words that start with color a, from level m-1
    ``prev``; return it checked. ``out`` has shape (q-1,)*(m-1)."""
    m = prev.ndim + 1
    if m == 1:  # one deletion, to the empty word
        out[...] = prev
        return _checked(out, m)
    # x1: the child starts at color a + d_2; xm: the child is x1..x(m-1)
    np.take(prev, (a + np.arange(1, q)) % q, axis=0, out=out)
    out += prev[a][..., None]
    # x_i, 1 < i < m: d_i and d_(i+1), axes i-2 and i-1 of out, merge into
    # increment index ``merged``; -1 (a merged 0) reads a wrong cell, reset to 0
    merged = (np.arange(q - 1)[:, None] + np.arange(q - 1) + 2) % q - 1
    improper = np.nonzero(merged < 0)
    part = np.empty_like(out)
    for i in range(2, m):
        child = prev[a].reshape((q - 1) ** (i - 2), q - 1, (q - 1) ** (m - 1 - i))
        gathered = part.reshape(child.shape[0], q - 1, q - 1, child.shape[2])
        np.take(child, merged, axis=1, out=gathered)
        gathered[:, improper[0], improper[1]] = 0
        out += part
    if cyclic:
        out *= _closing(q, m)
    return _checked(out, m)


def _count_sum(vals: np.ndarray, m: int) -> int:
    """The int64 sum of vals, counts of length-m words (each at most m!), as
    a Python int; ``OverflowError`` before summing unless size * m! < 2**63."""
    if vals.size * math.factorial(m) > _INT64_MAX:
        raise OverflowError(f"{vals.size} counts of length-{m} words may sum past int64")
    return int(vals.sum())


def _check_cells(q: int, m: int) -> None:
    """Raise before allocating if the word codes of level m would not fit int32."""
    if q**m >= _CELL_LIMIT:
        raise BudgetExceeded(f"{q}**{m} word codes do not fit int32")


def _levels(q: int, cyclic: bool, upto: int) -> list[np.ndarray]:
    """Count arrays on proper words for levels 0..upto (cached)."""
    _check_cells(q, upto)
    levels = _LEVEL_CACHE.setdefault((q, cyclic), [np.ones((), dtype=np.int64)])
    for m in range(len(levels), upto + 1):
        level = np.empty((q,) + (q - 1,) * (m - 1), dtype=np.int64)
        for a in range(q):
            _level_values(levels[m - 1], a, q, cyclic, level[a, ...])
        levels.append(level)
    return levels


def _top_slices(n: int, q: int, cyclic: bool) -> Callable[[int], np.ndarray]:
    """The function a -> slice [a] of level n >= 1: a view of the cached
    level n, or else computed from the cached level n-1 into one buffer
    that every call reuses (each call overwrites the last one's array)."""
    _check_cells(q, n)
    levels = _levels(q, cyclic, n - 1)
    if len(levels) > n:
        return levels[n].__getitem__
    buf = np.empty((q - 1,) * (n - 1), dtype=np.int64)
    return lambda a: _level_values(levels[n - 1], a, q, cyclic, buf)


def _level_totals(n: int, q: int, cyclic: bool) -> tuple[int, int]:
    """(states, z) of level n: the number of words with a positive count and
    the sum of the counts, both Python ints from one pass over the slices."""
    if n == 0:
        return 1, 1
    level = _top_slices(n, q, cyclic)
    states = z = 0
    for a in range(q):
        vals = level(a)
        states += int(np.count_nonzero(vals))
        z += _count_sum(vals, n)
    return states, z


def _check_sum_request(n: int, q: int) -> None:
    """Raise before any work if the partition sum at (n, q) is out of bounds."""
    if n < 0 or q < 1:
        raise ValueError("need n >= 0 and q >= 1")
    if n > _BULK_MAX_N or q**n > _ENUM_LIMIT:
        raise BudgetExceeded(
            f"partition sums are computed for n <= {_BULK_MAX_N} and "
            f"q**n <= 2**27 only, got {q}**{n}"
        )


def _sum_counts(n: int, q: int, *, cyclic: bool) -> int:
    _check_sum_request(n, q)
    return _level_totals(n, q, cyclic)[1]


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
    """Level n scattered into a read-only (q,)*n array, 0 off the proper words."""
    _check_law_request(n, q, DEFAULT_BUDGET)
    view = np.zeros((q,) * n, dtype=np.int64)
    codes = _slice_codes(q, n, np.arange(q)) if n else np.zeros((), dtype=np.int32)
    view.reshape(-1)[codes.reshape(-1)] = _levels(q, cyclic, n)[n].reshape(-1)
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


def _slice_cells(n: int, q: int, cyclic: bool) -> Callable[[int], tuple[np.ndarray, np.ndarray]]:
    """The function a -> the nonzero cells of slice [a] of level n (the words
    with x1 = a + 1), computed anew on each call: their row-major codes in
    (q,)*n as int32 in increasing order, in a*q**(n-1) + [0, q**(n-1)), and
    their int64 counts. At n = 0 slice 0 holds the empty word, code 0, and
    every other slice is empty."""
    if n == 0:
        return lambda a: (np.zeros(int(a == 0), np.int32), np.ones(int(a == 0), np.int64))
    level = _top_slices(n, q, cyclic)

    def slice_of(a: int) -> tuple[np.ndarray, np.ndarray]:
        vals = level(a).reshape(-1)
        cells = np.flatnonzero(vals)
        codes = _slice_codes(q, n, a).reshape(-1)[cells]
        order = np.argsort(codes)
        return codes[order], vals[cells[order]]

    return slice_of


def _law_slices(
    n: int, q: int, budget: int, *, cyclic: bool
) -> tuple[int, int, Callable[[int], tuple[np.ndarray, np.ndarray]]]:
    """The law one first-color slice at a time, for the CLI's dumps: (states,
    z, slice_of) from ``_level_totals`` and ``_slice_cells``; the word with
    count c has mass c / z. Level n, unless cached, is computed twice."""
    _check_law_request(n, q, budget)
    return (*_level_totals(n, q, cyclic), _slice_cells(n, q, cyclic))


def _law_cells(n: int, q: int, budget: int, *, cyclic: bool) -> tuple[np.ndarray, np.ndarray, int]:
    """The law's nonzero cells (rows, counts, z), from one pass over level n:
    rows[i] holds the 0-based int32 colors of the i-th word with a positive
    count, in lexicographic order, counts[i] its int64 count and z their
    sum, so the word has mass counts[i] / z."""
    _check_law_request(n, q, budget)
    codes, counts = map(np.concatenate, zip(*map(_slice_cells(n, q, cyclic), range(q))))
    return decode_codes(codes, n, q), counts, _count_sum(counts, n)


def _law(n: int, q: int, budget: int, *, cyclic: bool) -> ExactDist:
    rows, counts, _ = _law_cells(n, q, budget, cyclic=cyclic)
    rows += 1
    words = [Word(tuple(r), q) for r in rows.tolist()]
    return ExactDist.from_weights(dict(zip(words, counts.tolist())))


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
    process on the line. For every q >= 3 the laws are consistent over
    the range the tests check exactly: the length-(n+1) law summed over
    its first site, or over its last, is the length-n law for n + 1 <= 9
    at q = 3, 7 at q = 4, 6 at q = 5 and 5 at q = 6. Past the
    theorem-grade pairs no k-dependence is claimed (callers can check
    ``is_theorem_grade``).
    """
    _check_k(k)
    return _law(n, q, budget, cyclic=False)


def _check_k(k: int) -> None:
    """Raise ValueError for a negative dependence range k."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")


def restriction_sum(x: WordLike, k: int, q: int) -> int:
    """Sum of b_circ(x + y) over all length-k extension words y."""
    _check_k(k)
    t = as_symbols(x, q)
    return sum(b_circ(t + y, q) for y in product(range(1, q + 1), repeat=k))
