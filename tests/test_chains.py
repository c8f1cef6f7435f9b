"""Binary marginal laws and the J/Q insertion chains.

Frozen values come from independent enumeration scripts over permutations
and bit strings run before the module was written.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, islice, permutations, product

import numpy as np
import pytest

from findep import chains, suites
from findep.analysis import pushforward, tv_distance
from findep.chains import (
    _TARGETS,
    ChainVariant,
    _has_adjacent_ones,
    _j_bits,
    _j_row,
    _kernel_walk,
    _q_row,
    _row,
    _target_counts,
    bit_descent_law,
    bit_descent_window_law,
    chain_law,
    color_indicator,
    descent_law,
    descent_window_law,
    initial_law,
    iota_text,
    iota_two_site_statistic,
    j_kernel,
    kernel_equal,
    peak_law,
    peak_window_law,
    q_kernel,
)
from findep.dist import ExactDist
from findep.growth import allowed_colors
from findep.recurrence import cycle_law
from findep.words import Word, rotl

F = Fraction
V1 = ChainVariant.COLORS_ONE_TWO_Q4
V2 = ChainVariant.COLOR_ONE_Q3


def rotations(t):
    return {t[r:] + t[:r] for r in range(len(t))}


# -- target laws ----------------------------------------------------------------


def test_descent_law_3_uniform_over_weight_1_and_2():
    d = descent_law(3)
    assert len(d) == 6
    for s in d.support:
        assert 1 <= sum(s) <= 2
        assert d.prob(s) == F(1, 6)
    assert d.prob((0, 0, 0)) == 0


def test_descent_law_no_full_descent_cycle():
    assert descent_law(4).prob((1, 1, 1, 1)) == 0


def test_peak_law_3_uniform_over_singletons():
    d = peak_law(3)
    assert len(d) == 3
    for s in d.support:
        assert sum(s) == 1
        assert d.prob(s) == F(1, 3)


def test_peak_law_is_hard_core():
    for n in (3, 4, 5, 6):
        for s in peak_law(n).support:
            assert not any(s[i] == 1 and s[(i + 1) % n] == 1 for i in range(n))


def test_peak_law_4_antipodal_weight_2():
    # 4 permutations of S_4 have peaks exactly at one antipodal pair
    d = peak_law(4)
    assert d.prob((1, 0, 1, 0)) == F(4, 24)
    assert d.prob((0, 1, 0, 1)) == F(4, 24)


def test_bit_descent_law_3():
    d = bit_descent_law(3)
    assert d.prob((0, 0, 0)) == F(1, 4)
    for s in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        assert d.prob(s) == F(1, 4)
    assert sum(p for s, p in d.items() if sum(s) >= 2) == 0


def test_bit_descent_is_hard_core():
    for n in (3, 4, 5):
        for s in bit_descent_law(n).support:
            assert not any(s[i] == 1 and s[(i + 1) % n] == 1 for i in range(n))


def test_law_range_guards():
    with pytest.raises(ValueError):
        descent_law(2)
    with pytest.raises(ValueError):
        peak_law(10)
    with pytest.raises(ValueError):
        bit_descent_law(21)


# -- initial laws ----------------------------------------------------------------


def test_initial_laws():
    assert initial_law(V1) == descent_law(3)
    assert initial_law(V2) == peak_law(3)
    assert initial_law(V1).prob((0, 0, 0)) == 0
    assert initial_law(V2).prob((0, 0, 0)) == 0


# -- kernels ---------------------------------------------------------------------


def test_variant_i_row_from_100():
    # From (1,0,0) both rules put mass 1/3 on each rotation class of
    # (1,0,1,0), (1,1,0,0), (1,0,0,0), uniformly within the class.
    for kern in (j_kernel(V1, 3, states=[(1, 0, 0)]), q_kernel(V1, 3, states=[(1, 0, 0)])):
        row = kern.row((1, 0, 0))
        for rep in ((1, 0, 1, 0), (1, 1, 0, 0), (1, 0, 0, 0)):
            cls = rotations(rep)
            mass = sum(row.prob(s) for s in cls)
            assert mass == F(1, 3)
            probs = {row.prob(s) for s in cls}
            assert len(probs) == 1  # uniform within the rotation class


def test_variant_ii_row_from_000():
    for kern in (j_kernel(V2, 3, states=[(0, 0, 0)]), q_kernel(V2, 3, states=[(0, 0, 0)])):
        row = kern.row((0, 0, 0))
        expected = ExactDist.from_weights({s: 1 for s in rotations((1, 0, 0, 0))})
        assert row == expected


def _literal_j_row(variant, t):
    """The J step written out per variant, one rotl per outcome."""
    n = len(t)
    row = Counter()
    if variant is V1:
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


def _literal_q_row(variant, t):
    """The Q step written out per variant, one rotl per outcome."""
    n = len(t)
    row = Counter()
    if variant is V1:
        for i0 in range(n):
            for b in (0, 1):
                y = t[:i0] + (b, 1 - b) + t[i0 + 1 :]
                for r in range(n + 1):
                    row[rotl(y, r)] += 1
    else:
        for i0 in range(n):
            a = (i0 - 1) % n
            if a < i0:
                y = t[:a] + (0, 1, 0) + t[i0 + 1 :]
            else:  # wrap: replace (last, first)
                y = (1, 0) + t[1 : n - 1] + (0,)
            for r in range(n + 1):
                row[rotl(y, r)] += 1
    return row


@pytest.mark.parametrize("variant", [V1, V2])
def test_rows_match_their_literal_steps(variant):
    """Where no proper coloring gives the state (variant (ii): adjacent ones,
    so also the 1-site state (1,)), the J step raises instead."""
    for n in range(1, 8):
        for t in product((0, 1), repeat=n):
            if variant is V2 and _has_adjacent_ones(t):
                with pytest.raises(ValueError, match="no proper coloring"):
                    _j_row(variant, t)
            else:
                assert _j_row(variant, t) == _literal_j_row(variant, t)
            # a Q step of variant (ii) replaces an adjacent pair, so n >= 2
            if n >= 2 and not (variant is V2 and _has_adjacent_ones(t)):
                assert _q_row(variant, t) == _literal_q_row(variant, t)


@pytest.mark.parametrize("q", [3, 4, 5, 6])
def test_j_rule_is_the_indicator_image_of_the_allowed_colors(q):
    """The lumping certificate: for every marked set of m = 1..q-1 colors and
    each of the q (q-1) ordered neighbor pairs a != b, the colors allowed
    between them carry the marks that ``_j_bits`` inserts, as a multiset.
    So the indicator image of the coloring step is the J step at every n."""
    for m in range(1, q):
        for marked in map(set, combinations(range(1, q + 1), m)):
            for a, b in permutations(range(1, q + 1), 2):
                marks = sorted(int(c in marked) for c in allowed_colors(q, a, b))
                assert sorted(_j_bits(q, m, int(a in marked), int(b in marked))) == marks


@pytest.mark.parametrize("q,m", [(3, 1), (3, 2), (4, 1), (4, 3), (5, 1), (5, 4)])
def test_j_rule_raises_on_neighbors_no_coloring_gives(q, m):
    """Two marked neighbors need m >= 2, two unmarked ones q - m >= 2."""
    bits = (1, 1) if m == 1 else (0, 0)
    with pytest.raises(ValueError, match="no proper coloring"):
        _j_bits(q, m, *bits)


def test_kernels_fails_on_a_j_rule_with_one_mark_dropped(monkeypatch):
    """Turning one inserted marked bit unmarked keeps every row's total, so
    ``_row`` accepts the rule; the J rows then differ from the Q rows, and
    the chain law from the pushforward of the cycle law."""
    j_bits = chains._j_bits

    def one_mark_dropped(q, m, a, b):
        bits = j_bits(q, m, a, b)
        return (0,) + bits[1:] if (a, b) == (0, 0) else bits

    monkeypatch.setattr(chains, "_j_bits", one_mark_dropped)
    assert sum(_row(_j_row, V1, (1, 0, 0)).values()) == 2 * 3 * 4
    rep = suites.kernels_suite(5)
    failing = {(c["variant"], c["check"]) for c in rep["cases"] if not c["passed"]}
    assert failing == {(v.value, check) for v in (V1, V2)
                       for check in ("kernel-equal", "chain-vs-pushforward")}
    assert not rep["passed"]


def test_variant_ii_j_rule_never_creates_adjacent_ones():
    kern = j_kernel(V2, 5)
    for state in kern.states:
        for succ in kern.row(state).support:
            n = len(succ)
            assert not any(succ[i] == 1 and succ[(i + 1) % n] == 1 for i in range(n))


def test_variant_ii_q_kernel_rejects_adjacent_ones():
    with pytest.raises(ValueError):
        q_kernel(V2, 4, states=[(1, 1, 0, 0)])


def test_kernel_equality_small():
    for variant in (V1, V2):
        for n in (3, 4, 5, 6):
            assert kernel_equal(j_kernel(variant, n), q_kernel(variant, n))


def test_kernels_of_different_variants_differ():
    assert not kernel_equal(j_kernel(V1, 4), j_kernel(V2, 4))


def test_kernel_equal_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        kernel_equal(j_kernel(V1, 3), j_kernel(V1, 4))


# -- chain laws vs pushforwards ---------------------------------------------------


def test_chain_law_matches_cycle_pushforward():
    for n in (3, 4, 5, 6):
        assert chain_law(V1, n) == pushforward(cycle_law(n, 4), color_indicator({1, 2}))
        assert chain_law(V2, n) == pushforward(cycle_law(n, 3), color_indicator({1}))


def test_chain_laws_extend_step_by_step_to_chain_law():
    for v in (V1, V2):
        laws = [ExactDist.from_weights(law) for law, _, _ in islice(_kernel_walk(v), 4)]
        assert laws == [chain_law(v, n) for n in (3, 4, 5, 6)]


def _literal_closure(variant, n, kernel):
    """The states of length n reachable from the initial law, one
    ``kernel`` row at a time."""
    states = set(initial_law(variant).support)
    for m in range(3, n):
        states = {s for t in states for s in kernel(variant, m, states=[t]).row(t).support}
    return states


@pytest.mark.parametrize("variant", [V1, V2])
def test_walk_matches_exactdist_chain_and_kernels(variant):
    """The integer walk against its Fraction form: the law stepped by
    ``Kernel.push`` of J kernels on its support, and the Q rows against
    ``q_kernel`` rows on the literal Q closure."""
    law = initial_law(variant)
    for n, (counts, j_rows, q_rows) in zip(range(3, 8), _kernel_walk(variant)):
        assert ExactDist.from_weights(counts) == law, n
        assert set(j_rows) == set(law.support)
        assert set(q_rows) == _literal_closure(variant, n, q_kernel), n
        qk = q_kernel(variant, n, states=q_rows)
        for t, row in q_rows.items():
            assert ExactDist.from_weights(row) == qk.row(t)
        law = j_kernel(variant, n, states=law.support).push(law)


def test_walk_rows_differ_between_variants():
    _, j_rows, _ = next(_kernel_walk(V1))
    _, _, q_rows = next(_kernel_walk(V2))
    assert j_rows != q_rows
    shared = set(j_rows) & set(q_rows)
    assert shared and all(j_rows[t] != q_rows[t] for t in shared)


def test_a_row_of_the_wrong_total_raises(monkeypatch):
    def one_more(variant, t):
        row = _j_row(variant, t)
        row[t + (0,)] += 1
        return row

    assert sum(_row(_j_row, V1, (1, 0, 0)).values()) == 2 * 3 * 4
    assert sum(_row(_q_row, V2, (1, 0, 0)).values()) == 3 * 4
    with pytest.raises(ValueError, match="counts 25 outcomes, not 24"):
        _row(one_more, V1, (1, 0, 0))
    monkeypatch.setattr("findep.chains._j_row", one_more)
    with pytest.raises(ValueError, match="not 12"):
        next(_kernel_walk(V2))
    with pytest.raises(ValueError):
        chain_law(V1, 4)


def test_cycle_pushforward_matches_targets_small():
    for n in (3, 4, 5):
        assert pushforward(cycle_law(n, 4), color_indicator({1, 2})) == descent_law(n)
        assert pushforward(cycle_law(n, 3), color_indicator({1})) == peak_law(n)
        assert pushforward(cycle_law(n, 4), color_indicator({1})) == bit_descent_law(n)


# -- line windows -----------------------------------------------------------------


def _oracle_linear_descents(n):
    from collections import Counter

    c = Counter()
    for pi in permutations(range(n + 1)):
        c[tuple(int(pi[i] > pi[i + 1]) for i in range(n))] += 1
    return ExactDist.from_weights(c)


def _bit_string_descents(n, cyclic):
    """Counts of the n descent indicators over every string of m bits (m = n
    on the cycle, n + 1 on the line): the strings are the rows of a (2^m, m)
    uint8 matrix, and site i compares column i with column i + 1 (mod m on
    the cycle). Up to m = 21 that matrix takes 44 MB."""
    m = n if cyclic else n + 1
    strings = np.arange(2**m, dtype=np.int64)
    bits = np.empty((2**m, m), dtype=np.uint8)
    for i in range(m):
        bits[:, i] = (strings >> (m - 1 - i)) & 1
    code = np.zeros(2**m, dtype=np.int64)  # the indicators, site 1 highest
    for i in range(n):
        code = 2 * code + (bits[:, i] > bits[:, (i + 1) % m])
    counts = np.bincount(code, minlength=2**n)
    return Counter({tuple((c >> (n - 1 - i)) & 1 for i in range(n)): int(counts[c])
                    for c in np.flatnonzero(counts).tolist()})


# each target of chains._TARGETS, written out as its own enumeration: the
# permutations in Python loops, the bit strings as rows of a numpy matrix
_BRUTE = {
    "cyclic-descent": lambda n: Counter(
        tuple(int(p[i] > p[(i + 1) % n]) for i in range(n)) for p in permutations(range(n))),
    "cyclic-peak": lambda n: Counter(
        tuple(int(p[(i - 1) % n] < p[i] > p[(i + 1) % n]) for i in range(n))
        for p in permutations(range(n))),
    "cyclic-bit-descent": lambda n: _bit_string_descents(n, cyclic=True),
    "line-descent": lambda n: Counter(
        tuple(int(p[i] > p[i + 1]) for i in range(n)) for p in permutations(range(n + 1))),
    "line-peak": lambda n: Counter(
        tuple(int(p[i] < p[i + 1] > p[i + 2]) for i in range(n))
        for p in permutations(range(n + 2))),
    "line-bit-descent": lambda n: _bit_string_descents(n, cyclic=False),
}


def _code_vector(counts, n):
    """A count map over n-bit tuples as an int64 vector indexed by each
    tuple read as a binary number, first bit most significant."""
    vector = np.zeros(2**n, dtype=np.int64)
    for t, c in counts.items():
        vector[int("".join(map(str, t)), 2)] = c
    return vector


@pytest.mark.parametrize("target", sorted(_BRUTE))
def test_target_counts_match_their_loops(target):
    assert set(_BRUTE) == set(_TARGETS)
    _, _, _, lo, hi = _TARGETS[target]
    for n in range(lo, hi + 1):
        counts = _target_counts(target, n)
        assert counts.dtype == np.int64, n
        np.testing.assert_array_equal(counts, _code_vector(_BRUTE[target](n), n), err_msg=str(n))
    for n in (lo - 1, hi + 1):
        with pytest.raises(ValueError):
            _target_counts(target, n)


def test_descent_window_law_matches_oracle():
    for n in (1, 2, 3, 4):
        assert descent_window_law(n) == _oracle_linear_descents(n)


def test_window_laws_frozen_values():
    assert descent_window_law(1).prob((1,)) == F(1, 2)
    assert descent_window_law(2).prob((1, 1)) == F(1, 6)
    assert peak_window_law(1).prob((1,)) == F(1, 3)
    assert bit_descent_window_law(1).prob((1,)) == F(1, 4)


# -- block-factor statistic ---------------------------------------------------------


def test_iota_two_site_statistic():
    rep = iota_two_site_statistic()
    assert rep.two_site == F(1, 6)
    assert rep.block_factor_two_site == F(1, 4)
    assert rep.single_site == F(1, 2)
    assert rep.two_site != rep.block_factor_two_site


def test_iota_text():
    assert iota_text(Word.parse("1234", 4)) == "12**"


def test_iota_pushforward_example():
    d = pushforward(cycle_law(3, 4), iota_text)
    assert d.prob("12*") == F(1, 12)  # preimages 123 and 124, each 1/24


# -- distances ----------------------------------------------------------------------


def test_tv_descent_vs_peak():
    assert tv_distance(descent_law(3), peak_law(3)) == F(1, 2)
