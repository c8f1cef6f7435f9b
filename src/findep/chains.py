"""Cyclic binary marginal processes and their insertion chains.

The cycle-law colorings have remarkable one- and two-color marginals. With
``J_i`` the indicator that site i carries a marked color:

* marking two of four colors gives the law of the cyclic descent
  indicators of a uniformly random permutation;
* marking one of three colors gives the law of the cyclic peak indicators
  of a uniformly random permutation;
* marking one of four colors gives the law of the cyclic descent
  indicators of i.i.d. fair bits.

The target laws are computed here by brute-force enumeration (permutations
or bit strings; ties between i.i.d. uniforms are null events, so the finite
models are exact). The first two equalities are driven by a pair of Markov
insertion chains per variant: the J-chain, obtained by applying the
indicator to the coloring insertion step, and the Q-chain, obtained from
the natural insertion step on permutations. Their one-step kernels
coincide exactly (``kernel_equal``), which together with the matching
three-site initial laws forces equality of the laws for every size.

Kernels are represented densely over the reachable state space only,
discovered by closure from the initial law; variant (ii) states are
hard-core (no two cyclically adjacent ones).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import count, islice, permutations, product
from typing import Callable, Iterable, Iterator, Optional

from .dist import ExactDist, Kernel
from .recurrence import line_window_law
from .words import Word, rotl

BinaryState = tuple[int, ...]

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
    """Which marginal process the insertion chains model."""

    COLORS_ONE_TWO_Q4 = "colors-12-of-4"  # sites carrying color 1 or 2 among 4
    COLOR_ONE_Q3 = "color-1-of-3"  # sites carrying color 1 among 3

    @property
    def q(self) -> int:
        return 4 if self is ChainVariant.COLORS_ONE_TWO_Q4 else 3

    @property
    def marked_colors(self) -> frozenset[int]:
        return frozenset({1, 2}) if self is ChainVariant.COLORS_ONE_TWO_Q4 else frozenset({1})


def color_indicator(colors: Iterable[int]) -> Callable[[Word], BinaryState]:
    """Site-wise indicator map ``Word -> BinaryState`` for a marked color set."""
    marked = frozenset(colors)
    return lambda w: tuple(1 if s in marked else 0 for s in w.symbols)


def iota_text(w: Word) -> str:
    """Collapse colors 3 and 4 to '*': the two-colors-plus-star coarse graining."""
    return "".join(str(s) if s in (1, 2) else "*" for s in w.symbols)


def _check_n(n: int, lo: int, hi: int) -> None:
    if not lo <= n <= hi:
        raise ValueError(f"n must lie in [{lo}, {hi}], got {n}")


def descent_law(n: int) -> ExactDist:
    """Exact law of the cyclic descent indicators of a uniform permutation.

    State i is 1 iff the permutation value at i exceeds the one at i+1
    (indices mod n).
    """
    _check_n(n, 3, 9)
    counts: Counter = Counter()
    for pi in permutations(range(n)):
        counts[tuple(int(pi[i] > pi[(i + 1) % n]) for i in range(n))] += 1
    return ExactDist.from_weights(counts)


def peak_law(n: int) -> ExactDist:
    """Exact law of the cyclic peak indicators of a uniform permutation.

    State i is 1 iff the value at i exceeds both cyclic neighbors.
    """
    _check_n(n, 3, 9)
    counts: Counter = Counter()
    for pi in permutations(range(n)):
        counts[
            tuple(int(pi[(i - 1) % n] < pi[i] > pi[(i + 1) % n]) for i in range(n))
        ] += 1
    return ExactDist.from_weights(counts)


def bit_descent_law(n: int) -> ExactDist:
    """Exact law of the cyclic descent indicators of i.i.d. fair bits."""
    _check_n(n, 3, 20)
    counts: Counter = Counter()
    for bits in product((0, 1), repeat=n):
        counts[tuple(int(bits[i] > bits[(i + 1) % n]) for i in range(n))] += 1
    return ExactDist.from_weights(counts)


def descent_window_law(n: int) -> ExactDist:
    """Law of n consecutive descent indicators on the line (n+1 values)."""
    _check_n(n, 1, 8)
    counts: Counter = Counter()
    for pi in permutations(range(n + 1)):
        counts[tuple(int(pi[i] > pi[i + 1]) for i in range(n))] += 1
    return ExactDist.from_weights(counts)


def peak_window_law(n: int) -> ExactDist:
    """Law of n consecutive peak indicators on the line (n+2 values)."""
    _check_n(n, 1, 7)
    counts: Counter = Counter()
    for pi in permutations(range(n + 2)):
        counts[tuple(int(pi[i] < pi[i + 1] > pi[i + 2]) for i in range(n))] += 1
    return ExactDist.from_weights(counts)


def bit_descent_window_law(n: int) -> ExactDist:
    """Law of n consecutive bit-descent indicators on the line (n+1 bits)."""
    _check_n(n, 1, 20)
    counts: Counter = Counter()
    for bits in product((0, 1), repeat=n + 1):
        counts[tuple(int(bits[i] > bits[i + 1]) for i in range(n))] += 1
    return ExactDist.from_weights(counts)


def initial_law(variant: ChainVariant) -> ExactDist:
    """The three-site starting law of the insertion chains.

    Variant (i): uniform over the six binary vectors of weight 1 or 2
    (cyclic descent sets of three distinct values). Variant (ii): uniform
    over the three singletons (cyclic peak sets of three distinct values).
    """
    if variant is ChainVariant.COLORS_ONE_TWO_Q4:
        states = [t for t in product((0, 1), repeat=3) if 1 <= sum(t) <= 2]
    else:
        states = [t for t in product((0, 1), repeat=3) if sum(t) == 1]
    return ExactDist.from_weights({s: 1 for s in states})


def _has_adjacent_ones(t: BinaryState) -> bool:
    n = len(t)
    return any(t[i] == 1 and t[(i + 1) % n] == 1 for i in range(n))


def _j_row(variant: ChainVariant, t: BinaryState) -> Counter:
    """One J-chain step: the indicator image of the coloring insertion step.

    Insert a bit Z just before a uniform position I, then rotate uniformly.
    Variant (i): if the two gap neighbors agree, Z is forced to their
    complement (the two excluded colors are then exactly one marked pair),
    otherwise Z is a fair bit. Variant (ii): Z = 1 iff both gap neighbors
    are 0 (the unique allowed color is the marked one exactly then).
    """
    n = len(t)
    row: Counter = Counter()
    if variant is ChainVariant.COLORS_ONE_TWO_Q4:
        for i0 in range(n):
            for b in (0, 1):
                z = (1 - t[i0]) if t[i0 - 1] == t[i0] else b
                y = t[:i0] + (z,) + t[i0:]
                for r in range(n + 1):
                    row[rotl(y, r)] += 1
    else:
        for i0 in range(n):
            z = 1 if (t[i0 - 1] == 0 and t[i0] == 0) else 0
            y = t[:i0] + (z,) + t[i0:]
            for r in range(n + 1):
                row[rotl(y, r)] += 1
    return row


def _q_row(variant: ChainVariant, t: BinaryState) -> Counter:
    """One Q-chain step: the indicator image of the permutation insertion step.

    Variant (i): inserting a new extreme value splits one descent edge, so
    a uniformly chosen symbol is replaced by the two-symbol block (B, 1-B)
    with B a fair bit. Variant (ii): inserting a new maximum makes it a
    peak and silences its two neighbors, so the two symbols at a uniformly
    chosen adjacent pair are replaced by (0, 1, 0). A uniform rotation
    follows in both cases.
    """
    n = len(t)
    row: Counter = Counter()
    if variant is ChainVariant.COLORS_ONE_TWO_Q4:
        for i0 in range(n):
            for b in (0, 1):
                y = t[:i0] + (b, 1 - b) + t[i0 + 1 :]
                for r in range(n + 1):
                    row[rotl(y, r)] += 1
    else:
        if _has_adjacent_ones(t):
            raise ValueError(f"state {t} has adjacent ones")
        for i0 in range(n):
            a = (i0 - 1) % n
            if a < i0:
                y = t[:a] + (0, 1, 0) + t[i0 + 1 :]
            else:  # wrap: replace (last, first)
                y = (1, 0) + t[1 : n - 1] + (0,)
            for r in range(n + 1):
                row[rotl(y, r)] += 1
    return row


def _reachable(variant: ChainVariant, n: int, row_fn) -> list[BinaryState]:
    states = set(initial_law(variant).support)
    size = 3
    while size < n:
        states = {succ for s in states for succ in row_fn(variant, s)}
        size += 1
    return sorted(states)


def _build_kernel(variant, n, row_fn, states) -> Kernel:
    if n < 3:
        raise ValueError(f"chains require n >= 3, got {n}")
    if states is None:
        states = _reachable(variant, n, row_fn)
    rows = {}
    for t in states:
        t = tuple(t)
        rows[t] = ExactDist.from_weights(row_fn(variant, t))
    return Kernel(rows)


def j_kernel(
    variant: ChainVariant, n: int, states: Optional[Iterable[BinaryState]] = None
) -> Kernel:
    """The J-chain kernel on length-n states (reachable closure by default)."""
    return _build_kernel(variant, n, _j_row, states)


def q_kernel(
    variant: ChainVariant, n: int, states: Optional[Iterable[BinaryState]] = None
) -> Kernel:
    """The Q-chain kernel on length-n states (reachable closure by default)."""
    return _build_kernel(variant, n, _q_row, states)


def kernel_equal(a: Kernel, b: Kernel) -> bool:
    """Exact row-by-row equality of two kernels.

    Kernels over state spaces of different word lengths are incomparable
    and raise; same-length kernels with different domains are unequal.
    """
    a_states = list(a.states)
    b_states = list(b.states)
    if a_states and b_states and len(a_states[0]) != len(b_states[0]):
        raise ValueError("kernels live on state spaces of different lengths")
    return a == b


def _chain_laws(variant: ChainVariant) -> Iterator[ExactDist]:
    """The J-chain laws of lengths 3, 4, ..., each one step from the last."""
    law = initial_law(variant)
    for m in count(3):
        yield law
        law = j_kernel(variant, m, states=list(law.support)).push(law)


def chain_law(variant: ChainVariant, n: int) -> ExactDist:
    """The length-n law of the J-chain started from the initial law."""
    if n < 3:
        raise ValueError(f"chains require n >= 3, got {n}")
    return next(islice(_chain_laws(variant), n - 3, None))


@dataclass(frozen=True)
class IotaStatReport:
    """Two-site statistics separating the coarse-grained process from any
    width-2 sliding-window construction."""

    two_site: Fraction  # P(two adjacent sites both carry color 3 or 4)
    block_factor_two_site: Fraction  # the value a width-2 window would force
    single_site: Fraction  # P(one site carries color 3 or 4)


def iota_two_site_statistic() -> IotaStatReport:
    """Compute the exact two-site star statistic and the width-2 benchmark.

    The adjacent-pair probability comes from the exact two-site window law
    of the four-color line process. A width-2 sliding-window (hard-core)
    construction with balanced single-site marginals would force the value
    P(three i.i.d. fair marks agree) = 2 * (1/2)**3 = 1/4 instead; the two
    must differ.
    """
    pair_law = line_window_law(2, 1, 4)
    two_site = sum(
        (p for w, p in pair_law.items() if set(w.symbols) <= {3, 4}),
        Fraction(0),
    )
    site_law = line_window_law(1, 1, 4)
    single_site = sum(
        (p for w, p in site_law.items() if w.symbols[0] in (3, 4)),
        Fraction(0),
    )
    block_factor_two_site = 2 * Fraction(1, 2) ** 3
    return IotaStatReport(
        two_site=two_site,
        block_factor_two_site=block_factor_two_site,
        single_site=single_site,
    )
