"""Cyclic binary marginal processes and their insertion chains.

The cycle-law colorings have remarkable one- and two-color marginals. With
``J_i`` the indicator that site i carries a marked color:

* marking two of four colors gives the law of the cyclic descent
  indicators of a uniformly random permutation;
* marking one of three colors gives the law of the cyclic peak indicators
  of a uniformly random permutation;
* marking one of four colors gives the law of the cyclic descent
  indicators of i.i.d. fair bits.

The target laws are counted by brute force over one table (``_TARGETS``:
permutations or bit strings; ties between i.i.d. uniforms are null
events, so the finite models are exact). The first two equalities are
driven by a pair of Markov insertion chains per variant: the J-chain, the
indicator image of the coloring insertion step (``words.insertion_orbits``),
and the Q-chain, that of the insertion step on permutations. Their
one-step kernels coincide exactly, which with the matching three-site
initial laws forces equality of the laws for every size.

``_kernel_walk`` walks the lengths once on integer counts: the chain law,
and the J and Q rows on the states reachable from the initial law (variant
(ii) states are hard-core: no two cyclically adjacent ones). Every row is
checked to count each outcome once, so equal counts mean equal laws. The
``Kernel``/``ExactDist`` functions normalize these same counts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import count, islice, permutations, product
from operator import and_, gt, lt
from typing import Callable, Iterable, Iterator, Optional

from .dist import ExactDist, Kernel
from .recurrence import line_window_law
from .words import Word, insertion_orbits, rotations

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


# indicator -> (the offsets of the values it reads around a site, its test
# run site by site on the value sequences at those offsets)
_INDICATORS = {
    "descent": ((0, 1), lambda cur, nxt: map(gt, cur, nxt)),
    "peak": ((-1, 0, 1), lambda prev, cur, nxt: map(and_, map(lt, prev, cur), map(gt, cur, nxt))),
}
_PERMS = lambda m: permutations(range(m))
_BITS = lambda m: product((0, 1), repeat=m)

# target law -> (the values enumerated, the indicator, cyclic or on a line
# window, smallest n, largest n)
_TARGETS = {
    "cyclic-descent": (_PERMS, "descent", True, 3, 9),
    "cyclic-peak": (_PERMS, "peak", True, 3, 9),
    "cyclic-bit-descent": (_BITS, "descent", True, 3, 20),
    "line-descent": (_PERMS, "descent", False, 1, 8),
    "line-peak": (_PERMS, "peak", False, 1, 7),
    "line-bit-descent": (_BITS, "descent", False, 1, 20),
}


def _target_counts(target: str, n: int) -> dict[BinaryState, int]:
    """Counts of the n-site indicator vectors of a ``_TARGETS`` law over its
    values. Site i reads the values at i + offset: modulo n on a cycle of n
    values; on a line of n + (span of the offsets) values, from value 0 on."""
    values, indicator, cyclic, lo, hi = _TARGETS[target]
    if not lo <= n <= hi:
        raise ValueError(f"n must lie in [{lo}, {hi}], got {n}")
    offsets, test = _INDICATORS[indicator]
    a, b = -offsets[0], offsets[-1]

    def sites(x: tuple[int, ...]) -> tuple[bool, ...]:
        if cyclic:  # wrap the ends around, so each offset reads one slice
            x = x[n - a :] + x + x[:b]
        return tuple(test(*[x[a + o : a + o + n] for o in offsets]))

    counts = Counter(map(sites, values(n if cyclic else n + a + b)))
    return {tuple(map(int, s)): c for s, c in counts.items()}


def descent_law(n: int) -> ExactDist:
    """Cyclic descent indicators of a uniform permutation: value i > value i+1 (mod n)."""
    return ExactDist.from_weights(_target_counts("cyclic-descent", n))


def peak_law(n: int) -> ExactDist:
    """Cyclic peak indicators of a uniform permutation: value i > both cyclic neighbors."""
    return ExactDist.from_weights(_target_counts("cyclic-peak", n))


def bit_descent_law(n: int) -> ExactDist:
    """Cyclic descent indicators of n i.i.d. fair bits."""
    return ExactDist.from_weights(_target_counts("cyclic-bit-descent", n))


def descent_window_law(n: int) -> ExactDist:
    """n consecutive descent indicators on the line (n+1 values)."""
    return ExactDist.from_weights(_target_counts("line-descent", n))


def peak_window_law(n: int) -> ExactDist:
    """n consecutive peak indicators on the line (n+2 values)."""
    return ExactDist.from_weights(_target_counts("line-peak", n))


def bit_descent_window_law(n: int) -> ExactDist:
    """n consecutive bit-descent indicators on the line (n+1 bits)."""
    return ExactDist.from_weights(_target_counts("line-bit-descent", n))


def _initial_counts(variant: ChainVariant) -> Counter:
    """The three-site starting law of the insertion chains, as counts.

    Variant (i): uniform over the six binary vectors of weight 1 or 2
    (cyclic descent sets of three distinct values). Variant (ii): uniform
    over the three singletons (cyclic peak sets of three distinct values).
    """
    weights = (1, 2) if variant is ChainVariant.COLORS_ONE_TWO_Q4 else (1,)
    return Counter(t for t in product((0, 1), repeat=3) if sum(t) in weights)


def initial_law(variant: ChainVariant) -> ExactDist:
    """The three-site starting law of the insertion chains (``_initial_counts``)."""
    return ExactDist.from_weights(_initial_counts(variant))


def _has_adjacent_ones(t: BinaryState) -> bool:
    n = len(t)
    return any(t[i] == 1 and t[(i + 1) % n] == 1 for i in range(n))


# variant -> the bits the J step may insert between gap neighbors (a, b).
# Variant (i): if the neighbors agree, Z is their complement (the two
# excluded colors are then one marked pair), once per allowed color, else a
# fair bit. Variant (ii): Z = 1 iff both are 0 (the one allowed color is
# then the marked one).
_J_RULES = {
    ChainVariant.COLORS_ONE_TWO_Q4: lambda a, b: (1 - b,) * 2 if a == b else (0, 1),
    ChainVariant.COLOR_ONE_Q3: lambda a, b: (int(a == b == 0),),
}

# variant -> (symbols the Q step replaces, the blocks that replace them)
_Q_RULES = {
    ChainVariant.COLORS_ONE_TWO_Q4: (1, ((0, 1), (1, 0))),
    ChainVariant.COLOR_ONE_Q3: (2, ((0, 1, 0),)),
}


def _j_row(variant: ChainVariant, t: BinaryState) -> Counter:
    """One J-chain step: the indicator image of the coloring insertion step.

    Insert a bit Z just before a uniform position I, then rotate uniformly:
    ``insertion_orbits`` with the variant's ``_J_RULES``.
    """
    return insertion_orbits(t, _J_RULES[variant])


def _q_row(variant: ChainVariant, t: BinaryState) -> Counter:
    """One Q-chain step: the indicator image of the permutation insertion step.

    Variant (i): inserting a new extreme value splits one descent edge, so
    a uniformly chosen symbol is replaced by the two-symbol block (B, 1-B)
    with B a fair bit. Variant (ii): inserting a new maximum makes it a
    peak and silences its two neighbors, so the two symbols at a uniformly
    chosen adjacent pair are replaced by (0, 1, 0). A uniform rotation
    follows in both cases, so rotating t first changes no count: each
    rotation s of t stands for one position, and the block replaces the
    first ``cut`` symbols of s (``_Q_RULES``).
    """
    if variant is ChainVariant.COLOR_ONE_Q3 and _has_adjacent_ones(t):
        raise ValueError(f"state {t} has adjacent ones")
    cut, blocks = _Q_RULES[variant]
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
