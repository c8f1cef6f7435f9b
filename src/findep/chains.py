"""Cyclic binary marginal processes and their insertion chains.

The cycle-law colorings have remarkable one- and two-color marginals. With
``J_i`` the indicator that site i carries a marked color:

* marking two of four colors gives the law of the cyclic descent
  indicators of a uniformly random permutation;
* marking one of three colors gives the law of the cyclic peak indicators
  of a uniformly random permutation;
* marking one of four colors gives the law of the cyclic descent
  indicators of i.i.d. fair bits.

The target laws come from one table (``_TARGETS``; ties between i.i.d.
uniforms are null events, so the finite models are exact): permutations
are counted by their descent bits with a signature DP
(``_perm_descents``), never walked one by one; bit strings by one numpy
pass over all 2^m of them (``_bit_descents``); peaks as a pushforward of
the descent bits (``_peaks``). Each is an int64 count vector over the
base-2 codes of the indicator vectors (``words.encode_digits``), made a
law in one place (``_vector_law``). The brute-force loops over permutations
and bit strings are the tests' literal oracle. The first two equalities are
driven by a pair of Markov insertion chains per variant: the J-chain, the
indicator image of the coloring insertion step (``words.insertion_orbits``),
and the Q-chain, that of the insertion step on permutations. Their
one-step kernels coincide exactly, which with the matching three-site
initial laws forces equality of the laws for every size.

The J step is one lumping rule: with m of the q colors marked, the q - 2
colors allowed between neighbors a != b hold m - [a marked] - [b marked]
marked ones, so it inserts m - a - b ones and q - 2 - m + a + b zeros
between neighbor bits a, b (``_j_bits``). The tests certify the rule, for
every n, on the q (q-1) neighbor pairs of every marked set at q = 3..6.

``_kernel_walk`` walks the lengths once on integer counts: the chain law,
and the J and Q rows on the states reachable from the initial law (variant
(ii) states are hard-core: no two cyclically adjacent ones). Every row is
checked to count each outcome once, so equal counts mean equal laws. The
``Kernel``/``ExactDist`` functions hold these same counts, reduced by their
gcd.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import count, islice, permutations
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .dist import ExactDist, Kernel
from .recurrence import _INT64_MAX, line_counts
from .words import Word, decode_codes, encode_digits, insertion_orbits, rotations

BinaryState = tuple[int, ...]
_States = Optional[Iterable[BinaryState]]

__all__ = [
    "BinaryState",
    "ChainVariant",
    "IotaStatReport",
    "bit_descent_law",
    "bit_descent_window_law",
    "chain_law",
    "color_indicator",
    "descent_law",
    "descent_window_law",
    "initial_law",
    "iota_text",
    "iota_two_site_statistic",
    "j_kernel",
    "kernel_equal",
    "peak_law",
    "peak_window_law",
    "q_kernel",
]


class ChainVariant(Enum):
    """Which marginal process the insertion chains model: its name, the q
    colors of which it marks ``marked_colors``, and its ``q_rule``: the
    symbols the Q step replaces and the blocks that replace them."""

    COLORS_ONE_TWO_Q4 = ("colors-12-of-4", 4, frozenset({1, 2}), (1, ((0, 1), (1, 0))))  # descents
    COLOR_ONE_Q3 = ("color-1-of-3", 3, frozenset({1}), (2, ((0, 1, 0),)))  # peaks

    def __new__(cls, value: str, q: int, marked_colors: frozenset[int], q_rule: tuple):
        variant = object.__new__(cls)
        variant._value_ = value
        variant.q, variant.marked_colors, variant.q_rule = q, marked_colors, q_rule
        return variant


def color_indicator(colors: Iterable[int]) -> Callable[[Word], BinaryState]:
    """Site-wise indicator map ``Word -> BinaryState`` for a marked color set."""
    marked = frozenset(colors)
    return lambda w: tuple(1 if s in marked else 0 for s in w.symbols)


def iota_text(w: Word) -> str:
    """Collapse colors 3 and 4 to '*': the two-colors-plus-star coarse graining."""
    return "".join(str(s) if s in (1, 2) else "*" for s in w.symbols)


def _perm_descents(m: int, cyclic: bool) -> np.ndarray:
    """Counts of the permutations of m values by their descent bits, value
    i > value i+1 for i < m-1 and, on a cycle, value m-1 > value 0. Entry c
    counts the bit vector c written in binary, first bit most significant.

    A signature DP: the values are placed left to right, the next one at
    relative rank j in [0, k] among the k + 1 placed so far. The state is
    the descent bits so far, the rank f of the first value and the rank l
    of the last; the step appends the bit [l >= j], moves f to
    f + [f >= j] and l to j, so the new counts are suffix sums over l. The
    cyclic closing bit is [l > f]. The counts total m!, checked to fit int64.
    """
    if math.factorial(m) > _INT64_MAX:
        raise OverflowError(f"{m}! permutations do not fit int64")
    a = np.ones((1, 1, 1), dtype=np.int64)  # a[bits, f, l], one value placed
    for k in range(1, m):
        suffix = np.zeros(a.shape[:2] + (k + 1,), dtype=np.int64)
        suffix[..., :k] = a[..., ::-1].cumsum(axis=2)[..., ::-1]  # sum over l >= j
        f, j = np.ogrid[:k, : k + 1]
        f = f + (f >= j)
        step = np.zeros((len(a), 2, k + 1, k + 1), dtype=np.int64)  # [bits, bit, f, j]
        step[:, 1, f, j] = suffix
        step[:, 0, f, j] = suffix[..., :1] - suffix
        a = step.reshape(2 * len(a), k + 1, k + 1)
    if cyclic:
        f, l = np.ogrid[:m, :m]
        closing = l > f
        counts = np.stack([(a * ~closing).sum((1, 2)), (a * closing).sum((1, 2))], 1)
    else:
        counts = a.sum((1, 2))
    if int(counts.sum()) != math.factorial(m):
        raise ArithmeticError(f"the descent counts of {m} values do not total {m}!")
    return counts.reshape(-1)


def _bit_descents(m: int, cyclic: bool) -> np.ndarray:
    """Counts of the m-bit strings by their descent bits, bit i > bit i+1,
    indexed as in ``_perm_descents``: every string, as a binary number."""
    x = np.arange(1 << m, dtype=np.int64)
    if cyclic:  # bit i+1 (mod m) moved to the place of bit i
        return np.bincount(x & ~((x << 1 | x >> (m - 1)) & ((1 << m) - 1)), minlength=1 << m)
    return np.bincount(x >> 1 & ~x & ((1 << (m - 1)) - 1), minlength=1 << (m - 1))


def _peaks(counts: np.ndarray, width: int, cyclic: bool) -> np.ndarray:
    """Descent counts (as ``_perm_descents``, width bits) pushed forward to
    peak counts: a peak is an ascent, then a descent. On a cycle the peak
    at site i reads bits i-1 (wrapping) and i; on a line, width bits give
    width-1 peaks, site i reading bits i and i+1."""
    d = decode_codes(np.arange(len(counts)), width, 2)
    before = np.roll(d, 1, axis=1) if cyclic else d[:, :-1]
    peaks = (1 - before) & (d if cyclic else d[:, 1:])
    out = np.zeros(1 << peaks.shape[1], dtype=np.int64)
    np.add.at(out, encode_digits(peaks, 2), counts)
    return out


# target law -> (descent counts of its values, the indicator, cyclic or on a
# line window, smallest n, largest n)
_TARGETS = {
    "cyclic-descent": (_perm_descents, "descent", True, 3, 9),
    "cyclic-peak": (_perm_descents, "peak", True, 3, 9),
    "cyclic-bit-descent": (_bit_descents, "descent", True, 3, 20),
    "line-descent": (_perm_descents, "descent", False, 1, 8),
    "line-peak": (_perm_descents, "peak", False, 1, 7),
    "line-bit-descent": (_bit_descents, "descent", False, 1, 20),
}


def _target_counts(target: str, n: int) -> np.ndarray:
    """Counts of the n-site indicator vectors of a ``_TARGETS`` law over its
    values, over their 2^n codes. On a cycle of n values, site i reads
    values i and i+1 for a descent, i-1, i and i+1 for a peak (modulo n);
    on a line of n + 1 values (n + 2 for peaks), values i, i+1 (and i+2)."""
    descents, indicator, cyclic, lo, hi = _TARGETS[target]
    if not lo <= n <= hi:
        raise ValueError(f"n must lie in [{lo}, {hi}], got {n}")
    peak = indicator == "peak"
    width = n if cyclic else n + peak  # descent bits
    counts = descents(width + (not cyclic), cyclic)
    return _peaks(counts, width, cyclic) if peak else counts


def _vector_law(counts: np.ndarray) -> ExactDist:
    """The law of the bit tuples whose base-2 codes ``counts`` counts."""
    codes = np.flatnonzero(counts)
    states = decode_codes(codes, len(counts).bit_length() - 1, 2).tolist()
    return ExactDist.from_weights(dict(zip(map(tuple, states), counts[codes].tolist())))


def descent_law(n: int) -> ExactDist:
    """Cyclic descent indicators of a uniform permutation: value i > value i+1 (mod n)."""
    return _vector_law(_target_counts("cyclic-descent", n))


def peak_law(n: int) -> ExactDist:
    """Cyclic peak indicators of a uniform permutation: value i > both cyclic neighbors."""
    return _vector_law(_target_counts("cyclic-peak", n))


def bit_descent_law(n: int) -> ExactDist:
    """Cyclic descent indicators of n i.i.d. fair bits."""
    return _vector_law(_target_counts("cyclic-bit-descent", n))


def descent_window_law(n: int) -> ExactDist:
    """n consecutive descent indicators on the line (n+1 values)."""
    return _vector_law(_target_counts("line-descent", n))


def peak_window_law(n: int) -> ExactDist:
    """n consecutive peak indicators on the line (n+2 values)."""
    return _vector_law(_target_counts("line-peak", n))


def bit_descent_window_law(n: int) -> ExactDist:
    """n consecutive bit-descent indicators on the line (n+1 bits)."""
    return _vector_law(_target_counts("line-bit-descent", n))


def _initial_counts(variant: ChainVariant) -> Counter:
    """The three-site starting law of the insertion chains, as counts: the
    indicator image of the q (q-1) (q-2) proper colorings of a triangle."""
    marked, colorings = variant.marked_colors, permutations(range(1, variant.q + 1), 3)
    return Counter(tuple(int(c in marked) for c in x) for x in colorings)


def initial_law(variant: ChainVariant) -> ExactDist:
    """The three-site starting law of the insertion chains (``_initial_counts``)."""
    return ExactDist.from_weights(_initial_counts(variant))


def _has_adjacent_ones(t: BinaryState) -> bool:
    n = len(t)
    return any(t[i] == 1 and t[(i + 1) % n] == 1 for i in range(n))


def _j_bits(q: int, m: int, a: int, b: int) -> tuple[int, ...]:
    """The bits the J step inserts between neighbor bits a, b with m of q
    colors marked; ``ValueError`` where no proper coloring has such neighbors."""
    ones = m - a - b
    if not 0 <= ones <= q - 2:
        raise ValueError(f"no proper coloring has neighbor bits {a}, {b} at (q, m) = ({q}, {m})")
    return (0,) * (q - 2 - ones) + (1,) * ones


def _j_row(variant: ChainVariant, t: BinaryState) -> Counter:
    """One J-chain step: the indicator image of the coloring insertion step.

    Insert a bit Z just before a uniform position I, then rotate uniformly:
    ``insertion_orbits`` with ``_j_bits`` (variant (ii): adjacent ones raise)."""
    q, m = variant.q, len(variant.marked_colors)
    return insertion_orbits(t, lambda a, b: _j_bits(q, m, a, b))


def _q_row(variant: ChainVariant, t: BinaryState) -> Counter:
    """One Q-chain step: the indicator image of the permutation insertion step.

    Variant (i): inserting a new extreme value splits one descent edge, so
    a uniformly chosen symbol is replaced by the two-symbol block (B, 1-B)
    with B a fair bit. Variant (ii): inserting a new maximum makes it a
    peak and silences its two neighbors, so the two symbols at a uniformly
    chosen adjacent pair are replaced by (0, 1, 0). A uniform rotation
    follows in both cases, so rotating t first changes no count: each
    rotation s of t stands for one position, and the block replaces the
    first ``cut`` symbols of s (``variant.q_rule``).
    """
    if variant is ChainVariant.COLOR_ONE_Q3 and _has_adjacent_ones(t):
        raise ValueError(f"state {t} has adjacent ones")
    cut, blocks = variant.q_rule
    row: Counter = Counter()
    for s in rotations(t):
        for block in blocks:
            row.update(rotations(block + s[cut:]))
    return row


def _row(row_fn, variant: ChainVariant, t: BinaryState) -> Counter:
    """``row_fn(variant, t)``, checked to count each (gap, one of the q - 2
    inserted colors, rotation) once, (q-2) n (n+1) for n = len(t): rows of
    one length then share a total, so they are equal as laws iff as counts."""
    row = row_fn(variant, t)
    total, expected = sum(row.values()), (variant.q - 2) * len(t) * (len(t) + 1)
    if total != expected:
        raise ValueError(f"the row from {t} counts {total} outcomes, not {expected}")
    return row


def _kernel_walk(variant: ChainVariant) -> Iterator[tuple[Counter, dict, dict]]:
    """For n = 3, 4, ...: the J-chain law of length n as counts, the J rows
    on its support, and the Q rows on the successors of the last Q rows."""
    law = _initial_counts(variant)
    q_states = list(law)
    for n in count(3):
        j_rows = {t: _row(_j_row, variant, t) for t in law}
        q_rows = {t: _row(_q_row, variant, t) for t in q_states}
        yield law, j_rows, q_rows
        stepped: Counter = Counter()
        for t, c in law.items():
            for s, k in j_rows[t].items():
                stepped[s] += c * k
        law = stepped
        q_states = {s for row in q_rows.values() for s in row}


def _walk_at(variant: ChainVariant, n: int) -> tuple[Counter, dict, dict]:
    if n < 3:
        raise ValueError(f"chains require n >= 3, got {n}")
    return next(islice(_kernel_walk(variant), n - 3, None))


def _build_kernel(variant, n, row_fn, states, walked: int) -> Kernel:
    """row_fn's kernel on states, by default on item ``walked`` of the walk."""
    if states is None or n < 3:  # _walk_at raises for n < 3
        rows = _walk_at(variant, n)[walked]
    else:
        rows = {t: _row(row_fn, variant, t) for t in map(tuple, states)}
    return Kernel({t: ExactDist.from_weights(row) for t, row in rows.items()})


def j_kernel(variant: ChainVariant, n: int, states: _States = None) -> Kernel:
    """The J-chain kernel on length-n states (reachable closure by default)."""
    return _build_kernel(variant, n, _j_row, states, 1)


def q_kernel(variant: ChainVariant, n: int, states: _States = None) -> Kernel:
    """The Q-chain kernel on length-n states (reachable closure by default)."""
    return _build_kernel(variant, n, _q_row, states, 2)


def kernel_equal(a: Kernel, b: Kernel) -> bool:
    """Exact row-by-row equality of two kernels.

    Kernels over state spaces of different word lengths are incomparable
    and raise; same-length kernels with different domains are unequal.
    """
    if len({len(t) for k in (a, b) for t in islice(k.states, 1)}) > 1:
        raise ValueError("kernels live on state spaces of different lengths")
    return a == b


def chain_law(variant: ChainVariant, n: int) -> ExactDist:
    """The length-n law of the J-chain started from the initial law."""
    return ExactDist.from_weights(_walk_at(variant, n)[0])


@dataclass(frozen=True)
class IotaStatReport:
    """Two-site statistics separating the coarse-grained process from any
    width-2 sliding-window construction."""

    two_site: Fraction  # P(two adjacent sites both carry color 3 or 4)
    block_factor_two_site: Fraction  # the value a width-2 window would force
    single_site: Fraction  # P(one site carries color 3 or 4)


def iota_two_site_statistic() -> IotaStatReport:
    """Compute the exact two-site star statistic and the width-2 benchmark.

    The adjacent-pair probability comes from the four-color line counts.
    A width-2 sliding-window (hard-core) construction with balanced
    single-site marginals would force P(three i.i.d. fair marks agree) =
    2 * (1/2)**3 = 1/4 instead; the two must differ.
    """
    pairs, sites = line_counts(2, 4), line_counts(1, 4)  # colors 3, 4 at [2:]
    return IotaStatReport(
        two_site=Fraction(int(pairs[2:, 2:].sum()), int(pairs.sum())),
        block_factor_two_site=Fraction(2, 2**3),
        single_site=Fraction(int(sites[2:].sum()), int(sites.sum())),
    )
