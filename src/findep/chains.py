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

The J step counts its outcomes with ``words.insertion_orbits``, as the
coloring insertion step does. Kernels are represented densely over the
reachable state space only, discovered by closure from the initial law;
variant (ii) states are hard-core (no two cyclically adjacent ones).
``verify kernels`` finds each closure as it walks the lengths once
(``_kernel_walk``); ``_reachable`` rebuilds it from length 3 for the
default domains of ``j_kernel`` and ``q_kernel``.
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
from .words import Word, insertion_orbits, rotations

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
    return Kernel({t: ExactDist.from_weights(row_fn(variant, t)) for t in map(tuple, states)})


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


def _kernel_walk(variant: ChainVariant) -> Iterator[tuple[ExactDist, Kernel, Kernel]]:
    """For n = 3, 4, ...: the J-chain law of length n, the J kernel on its
    support, which steps it to n+1, and the Q kernel on the successors of
    the previous Q kernel's rows: both domains are ``_reachable``'s."""
    law = initial_law(variant)
    q_states = list(law.support)
    for n in count(3):
        jk = j_kernel(variant, n, states=law.support)
        qk = q_kernel(variant, n, states=q_states)
        yield law, jk, qk
        law = jk.push(law)
        q_states = sorted({s for t in qk.states for s in qk.row(t).support})


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
