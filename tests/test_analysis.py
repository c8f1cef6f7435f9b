"""Distribution operations, dependence checking, chi-square GoF."""

import re
from fractions import Fraction
from functools import cache
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from findep import analysis
from findep.analysis import (
    are_independent,
    chi_square_gof,
    k_dependence_counterexample,
    marginalize,
    min_gof_samples,
    pushforward,
    symmetry_check,
    tv_distance,
    verify_k_dependence,
)
from findep.chains import color_indicator
from findep.dist import ExactDist
from findep.errors import BudgetExceeded
from findep.recurrence import _law_cells, cycle_counts, cycle_law, line_window_law
from findep.words import Word

F = Fraction


def test_marginalize_identity_and_single_site():
    d = cycle_law(3, 3)
    assert marginalize(d, [1, 2, 3]) == d
    m = marginalize(d, {1})
    assert m == ExactDist({Word((c,), 3): F(1, 3) for c in (1, 2, 3)})


def test_marginalize_composes():
    d = cycle_law(5, 3)
    assert marginalize(marginalize(d, [1, 2, 4]), [1, 2]) == marginalize(d, [1, 2])
    # order-preserving: coordinates keep their relative order
    m = marginalize(cycle_law(4, 3), [2, 4])
    assert all(len(w) == 2 for w in m.support)


def test_marginalize_rejects_bad_coords():
    with pytest.raises(ValueError):
        marginalize(cycle_law(3, 3), [0, 1])
    with pytest.raises(ValueError):
        marginalize(cycle_law(3, 3), [4])


def test_pushforward_identity_and_constant():
    d = cycle_law(3, 3)
    assert pushforward(d, lambda s: s) == d
    assert pushforward(d, lambda s: "x") == ExactDist.point_mass("x")


def test_pushforward_preserves_mass():
    d = line_window_law(3, 1, 4)
    image = pushforward(d, lambda w: sum(w.symbols) % 2)
    assert sum(p for _, p in image.items()) == 1


def test_are_independent_far_sites():
    assert are_independent(cycle_law(6, 3), {1}, {4})


def test_are_independent_near_sites_fails():
    assert not are_independent(cycle_law(5, 3), {1}, {3})


def test_are_independent_empty_set_trivial():
    assert are_independent(cycle_law(5, 3), {1}, set())


def test_are_independent_rejects_overlap():
    with pytest.raises(ValueError):
        are_independent(cycle_law(5, 3), {1, 2}, {2, 3})


def test_cross_equal_is_exact_past_int64():
    # coprime factors; x * a and y * b are 2.6e24 and 1e25 in the last two
    # cells, far past 2**63
    a, b, k = 3**19, 2**31 - 1, np.array([1, 2**20, 2**22 + 1], dtype=np.int64)
    x, y = k * b, k * a
    assert int(x[1]) * a > 2**63
    assert analysis._cross_equal(x, a, y, b).all()
    y[1] += 1
    assert y[1] // a == x[1] // b  # equal quotients: only the remainder shows it
    assert analysis._cross_equal(x, a, y, b).tolist() == [True, False, True]


def test_cross_equal_reduces_factors_that_share_a_divisor():
    # 6x == 4y holds with 2 | x and 3 | y, though 4 divides no x and 6 no y
    x, y = np.array([2, 10, 14]), np.array([3, 15, 21])
    assert analysis._cross_equal(x, 6, y, 4).all()
    assert analysis._cross_equal(x, np.array([[6], [12]]), y, np.array([[4], [8]])).all()
    assert analysis._cross_equal(x, 6, y + [0, 0, 3], 4).tolist() == [True, True, False]


def test_cross_equal_rejects_factors_outside_int64_or_not_positive():
    for a in (0, -1, np.array([1, 0])):
        with pytest.raises(ValueError, match="positive"):
            analysis._cross_equal(np.array([1]), a, np.array([1]), 1)
    with pytest.raises(OverflowError):
        analysis._cross_equal(np.array([1]), 2**63, np.array([1]), 1)


def _cyclic_distance(i, j, n):
    return min((i - j) % n, (j - i) % n)


@cache
def _labellings(n):
    """Every labelling of the n sites as free (0), S1 (1) or S2 (2), in
    base-3 order with site 0 first, whose two sets are nonempty and whose
    first occupied site is in S1, as (s1, s2, gap, reach): the 0-based site
    tuples, the least cyclic distance from a site of S1 to one of S2, and
    the greatest distance from a free site to the farther of the two sets
    (0 with no free site). Each distance is taken pair by pair."""
    dist = [[_cyclic_distance(i, j, n) for j in range(n)] for i in range(n)]
    out = []
    for labels in product(range(3), repeat=n):
        if 2 in labels and 1 in labels[:labels.index(2)]:  # S1 holds the first occupied site
            free, s1, s2 = ([i for i, c in enumerate(labels) if c == side] for side in range(3))
            gap = min(dist[i][j] for i in s1 for j in s2)
            reach = max((max(min(dist[p][i] for i in s1), min(dist[p][j] for j in s2))
                         for p in free), default=0)
            out.append((tuple(s1), tuple(s2), gap, reach))
    return out


def _literal_pairs(n, k):
    """The admissible pairs at distance k by the definition, in canonical
    order, as (s1, s2, maximal): disjoint nonempty 0-based site sets whose
    sites all lie more than k apart on the n-cycle, S1 holding the first
    occupied site; maximal when every free site lies within k of both."""
    return [(s1, s2, reach <= k) for s1, s2, gap, reach in _labellings(n) if gap > k]


def _table_pairs(n, k):
    """``analysis._pair_table`` as (s1, s2, maximal) rows of site tuples."""
    sites = lambda m: tuple(i for i in range(n) if m >> (n - 1 - i) & 1)
    s1, s2, maximal = analysis._pair_table(n, k)
    return [(sites(a), sites(b), m) for a, b, m in zip(s1.tolist(), s2.tolist(), maximal.tolist())]


def test_pair_table_is_the_admissible_pairs_by_definition():
    """Every cycle to n = 10 at every k that admits a pair, and at the first
    k that admits none: the same pairs, in the same order, with the same
    maximal flags. Distances wrap around the cycle: sites 0 and n-1 are
    neighbours."""
    for n in range(11):
        for k in range(n // 2 + 1):
            assert _table_pairs(n, k) == _literal_pairs(n, k), (n, k)
    assert ((0,), (4,), False) in _table_pairs(6, 1)
    assert not any(p[:2] == ((0,), (5,)) for p in _table_pairs(6, 1))


def _literal_independent(counts, total, s1, s2):
    """The pair (s1, s2) of 0-based axes factorizes: joint * total ==
    m1 * m2 on every cell, multiplied out in Python ints. The joint is
    summed by ``np.einsum`` (exact: every sum is at most ``total``)."""
    n, q = counts.ndim, counts.shape[0]
    joint = np.einsum(counts, list(range(n)), list(s1 + s2)).reshape(q ** len(s1), -1).tolist()
    m1, m2 = [sum(row) for row in joint], [sum(col) for col in zip(*joint)]
    return all(x * total == a * b for row, a in zip(joint, m1) for x, b in zip(row, m2))


def _level_cells(n, q):
    """The nonzero cells (rows, counts, total, a) of the cycle law at (n, q),
    its 0-based rows and counts, so a = q."""
    return (*_law_cells(n, q, 10**8, cyclic=True), q)


def _dense(d):
    """The law d as an int64 count tensor of shape (a,)*n over the sorted
    alphabet of its a symbols, written state by state, with its total."""
    weights, total = d.weights()
    alphabet = sorted({c for state in weights for c in state})
    counts = np.zeros((len(alphabet),) * len(next(iter(weights))), dtype=np.int64)
    for state, w in weights.items():
        counts[tuple(alphabet.index(c) for c in state)] = w
    return counts, total


@pytest.mark.parametrize("n,q", [(7, 4), (6, 3)])
def test_independent_int64_and_python_int_paths_agree(n, q):
    """``_independent`` on the law's cells and the Python-int
    cross-multiplication of ``_literal_independent`` on the dense level
    decide every maximal pair at every k alike, dependent ones included."""
    counts, cells = cycle_counts(n, q), _level_cells(n, q)
    total = int(counts.sum())
    assert cells[2] == total
    pairs = [(s1, s2) for k in range(0, (n - 2) // 2 + 1)
             for s1, s2, maximal in _literal_pairs(n, k) if maximal]
    fast = [analysis._independent(cells, *p) for p in pairs]
    assert [_literal_independent(counts, total, *p) for p in pairs] == fast
    assert True in fast and False in fast


def test_independent_matches_python_ints_where_total_squared_leaves_int64():
    """Where joint * total overflows int64: every maximal pair at k = 1, and
    at k = 0 every pair of two sites and the first maximal pair."""
    counts, cells = cycle_counts(10, 4), _level_cells(10, 4)  # 1-dependent: both verdicts
    total = int(counts.sum())
    assert total * total > 2**63 and cells[2] == total
    pairs = [(s1, s2) for s1, s2, maximal in _literal_pairs(10, 1) if maximal]
    pairs.append(next((s1, s2) for s1, s2, maximal in _literal_pairs(10, 0) if maximal))
    pairs += [(s1, s2) for s1, s2, _ in _literal_pairs(10, 0) if len(s1 + s2) == 2]
    verdicts = [analysis._independent(cells, *p) for p in pairs]
    assert verdicts == [_literal_independent(counts, total, *p) for p in pairs]
    assert True in verdicts and False in verdicts


def _random_pairs(rng, n, count):
    """count random pairs of disjoint nonempty 0-based coordinate sets."""
    pairs = []
    while len(pairs) < count:
        side = rng.integers(0, 3, n)
        s1, s2 = (tuple(np.flatnonzero(side == i).tolist()) for i in (1, 2))
        if s1 and s2:
            pairs.append((s1, s2))
    return pairs


def _random_law(rng, alphabet, n, states):
    """Random weights in [1, 1000) on up to ``states`` random length-n
    tuples over alphabet."""
    rows = rng.choice(alphabet, size=(states, n)).tolist()
    return {tuple(row): int(w) for row, w in zip(rows, rng.integers(1, 1000, states))}


def _product(w1, w2):
    """The product of two laws' weights, on the concatenated tuples."""
    return {s + t: x * y for s, x in w1.items() for t, y in w2.items()}


@pytest.mark.parametrize("q", [3, 4, 5, 6])
def test_independent_matches_python_ints_on_random_laws(q):
    """``_independent`` on the cells of ``_dist_cells`` and
    ``_literal_independent`` on the same law as a dense tensor decide alike,
    over alphabets that are not 1..q: Words that miss a color, and bit
    tuples. Each length has a random law and a product of two random
    blocks, checked on random pairs and on the pair of its two blocks."""
    rng = np.random.default_rng(q)
    verdicts = set()
    for n in range(2, 8):
        h = n // 2
        missing = int(rng.integers(1, q + 1))
        colors = [c for c in range(1, q + 1) if c != missing]
        for alphabet, state in ((colors, lambda s: Word(s, q)), ([0, 1], tuple)):
            blocks = _product(_random_law(rng, alphabet, h, 8), _random_law(rng, alphabet, n - h, 8))
            for weights in (_random_law(rng, alphabet, n, 60), blocks):
                d = ExactDist.from_weights({state(s): w for s, w in weights.items()})
                cells, (counts, total) = analysis._dist_cells(d), _dense(d)
                assert cells[2:] == (total, counts.shape[0])
                for s1, s2 in _random_pairs(rng, n, 4) + [(tuple(range(h)), tuple(range(h, n)))]:
                    verdict = analysis._independent(cells, s1, s2)
                    assert verdict == _literal_independent(counts, total, s1, s2), (n, s1, s2)
                    assert verdict == are_independent(d, [c + 1 for c in s1], [c + 1 for c in s2])
                    verdicts.add(verdict)
    assert verdicts == {True, False}


def _swap(weights, state, i, j, x, y):
    """weights with 1 added on state and on state with sites i, j set to
    x, y, and 1 taken off state with only site i set to x and with only
    site j set to y: a 2 x 2 swap that keeps every one-site marginal."""
    out = dict(weights)
    for si, sj, delta in ((state[i], state[j], 1), (x, y, 1), (x, state[j], -1), (state[i], y, -1)):
        key = list(state)
        key[i], key[j] = si, sj
        out[tuple(key)] += delta
    return out


@pytest.mark.parametrize("alphabet", [(1, 3, 4), (0, 1), (2, 5)])
def test_product_laws_pass_and_a_marginal_keeping_swap_fails(alphabet):
    rng = np.random.default_rng(len(alphabet))
    for n in (3, 4, 5):
        weights = {(): 1}
        for _ in range(n):  # one-site weights >= 2, so a swap leaves every weight >= 1
            weights = _product(weights, {(c,): int(w) for c, w in
                                         zip(alphabet, rng.integers(2, 20, len(alphabet)))})
        d = ExactDist.from_weights(weights)
        assert k_dependence_counterexample(d, 0) is None
        assert all(are_independent(d, s1, s2) for s1, s2 in _admissible_1based(n, 0))
        swapped = ExactDist.from_weights(
            _swap(weights, (alphabet[0],) * n, 0, n - 1, alphabet[1], alphabet[1]))
        for c in range(1, n + 1):
            assert marginalize(swapped, [c]) == marginalize(d, [c]), c
        assert not are_independent(swapped, {1}, {n})
        assert not _literal_independent(*_dense(swapped), (0,), (n - 1,))
        assert k_dependence_counterexample(swapped, 0) is not None


def test_independent_is_exact_for_totals_past_2_53_and_up_to_int64():
    """A total in [2**53, 2**63) is decided exactly: a product law passes
    and a swap of 1 in about 2**55 fails. Totals of 2**63 - 1 are decided
    both ways, and 2**63 raises."""
    weights = _product({(0,): 2**27 + 1, (1,): 2**27 - 1}, {(0,): 2**26 + 1, (1,): 2**26 + 3})
    d = ExactDist.from_weights(weights)
    assert 2**53 <= d.weights()[1] < 2**63
    assert are_independent(d, {1}, {2})
    swapped = ExactDist.from_weights(_swap(weights, (0, 0), 0, 1, 1, 1))
    assert 2**53 <= swapped.weights()[1] < 2**63
    assert not are_independent(swapped, {1}, {2})
    assert not _literal_independent(*_dense(swapped), (0,), (1,))
    edge = _product({(0,): 1, (1,): 6}, {(0,): 1, (1,): (2**63 - 1) // 7 - 1})
    assert ExactDist.from_weights(edge).weights()[1] == 2**63 - 1
    assert are_independent(ExactDist.from_weights(edge), {1}, {2})
    assert not are_independent(ExactDist.from_weights({(0, 0): 1, (1, 1): 2**63 - 2}), {1}, {2})
    with pytest.raises(OverflowError):
        are_independent(ExactDist.from_weights({(0, 0): 1, (1, 1): 2**63 - 1}), {1}, {2})


def test_k_dependence_positive():
    assert verify_k_dependence(cycle_law(6, 3), 2)
    assert verify_k_dependence(cycle_law(6, 4), 1)
    # on a 5-cycle no pair of sites is more than distance 2 apart
    assert verify_k_dependence(cycle_law(5, 3), 2)


def test_k_dependence_negative_with_counterexample():
    cex = k_dependence_counterexample(cycle_law(5, 3), 1)
    assert cex is not None
    s1, s2 = cex
    assert not are_independent(cycle_law(5, 3), s1, s2)


def test_k_dependence_rejects_negative_k():
    for check in (k_dependence_counterexample, verify_k_dependence):
        with pytest.raises(ValueError, match="k >= 0"):
            check(cycle_law(6, 4), -1)


def test_k_dependence_budget_guard():
    with pytest.raises(BudgetExceeded):
        verify_k_dependence(cycle_law(11, 3, budget=10**7), 2)


def _oracle_independent(items, s1, s2):
    """Literal check: P(A=a, B=b) == P(A=a) P(B=b) for every a, b in the
    marginal supports, with the Fraction masses ``items`` (``d.items()``,
    taken once per law) summed state by state."""
    def law(coords):
        acc = {}
        for state, p in items:
            key = tuple(state[c - 1] for c in coords)
            acc[key] = acc.get(key, F(0)) + p
        return acc

    union = sorted(s1 + s2)
    joint, m1, m2 = law(union), law(s1), law(s2)
    for a, pa in m1.items():
        for b, pb in m2.items():
            vals = dict(zip(s1, a)) | dict(zip(s2, b))
            if joint.get(tuple(vals[c] for c in union), F(0)) != pa * pb:
                return False
    return True


def _admissible_1based(n, k):
    for s1, s2, _ in _literal_pairs(n, k):
        yield tuple(c + 1 for c in s1), tuple(c + 1 for c in s2)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_every_admissible_pair_lies_inside_a_maximal_pair(k):
    """Independence passes to subsets, so this is what lets the maximal
    pairs decide k-dependence for every admissible pair."""
    for n in range(1, 11):
        t1, t2, maximal = analysis._pair_table(n, k)
        m1, m2 = t1[maximal], t2[maximal]
        mask = lambda sites: sum(1 << (n - 1 - i) for i in sites)
        for s1, s2, _ in _literal_pairs(n, k):
            a1, a2 = mask(s1), mask(s2)
            inside = ((a1 & ~m1) | (a2 & ~m2)) == 0
            swapped = ((a1 & ~m2) | (a2 & ~m1)) == 0
            assert (inside | swapped).any(), (n, k, s1, s2)


def test_degenerate_cycles_have_no_pair_but_the_two_cycle():
    """A 0- or 1-cycle has no two nonempty disjoint sets, so no pair at any
    k; the two sites of a 2-cycle lie more than 0 apart, and are dependent."""
    for n in (0, 1):
        for k in (0, 1, 2):
            assert k_dependence_counterexample(cycle_law(n, 3), k) is None, (n, k)
    assert k_dependence_counterexample(cycle_law(2, 3), 0) == ((1,), (2,))


def test_maximal_pair_counts():
    counts = {(n, k): int(analysis._pair_table(n, k)[2].sum()) for n, k in
              ((8, 1), (9, 1), (10, 1), (10, 2))}
    assert counts == {(8, 1): 22, (9, 1): 36, (10, 1): 60, (10, 2): 25}
    # a maximal pair that needs two runs on each side: {1, 5} against {3, 7}
    assert ((0, 4), (2, 6), True) in _table_pairs(8, 1)


@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_are_independent_matches_fraction_oracle(n, q):
    d = cycle_law(n, q)
    items = d.items()
    verdicts = []
    for k in (1, 2):
        for s1, s2 in _admissible_1based(n, k):
            verdict = are_independent(d, s1, s2)
            assert verdict == _oracle_independent(items, s1, s2), (k, s1, s2)
            verdicts.append(verdict)
    if q == 3 and n >= 5:
        assert not all(verdicts)  # q = 3 is not 1-dependent, so both answers occur


def test_are_independent_matches_fraction_oracle_on_tuple_states():
    d = pushforward(cycle_law(6, 4), color_indicator({1}))
    items = d.items()
    pairs = list(_admissible_1based(6, 1))
    assert pairs
    for s1, s2 in pairs:
        assert are_independent(d, s1, s2) == _oracle_independent(items, s1, s2), (s1, s2)


def test_constructed_dependent_law_is_caught():
    # sites 1 and 3 carry one fair bit, sites 2 and 4 independent fair bits
    d = ExactDist.from_weights(
        {(a, b, a, c): 1 for a in (0, 1) for b in (0, 1) for c in (0, 1)}
    )
    assert not are_independent(d, {1}, {3})
    assert are_independent(d, {2}, {4})
    assert are_independent(d, {1, 3}, {2})
    assert k_dependence_counterexample(d, 1) == ((1,), (3,))


def test_denominator_beyond_int64_raises():
    d = ExactDist.from_weights({(0, 0): 1, (1, 1): 2**64})
    with pytest.raises(OverflowError):
        are_independent(d, {1}, {2})
    with pytest.raises(OverflowError):
        k_dependence_counterexample(d, 0)


def test_symmetry_checks():
    d = cycle_law(6, 3)
    assert symmetry_check(d, "rotation", r=1)
    assert symmetry_check(d, "rotation", r=4)
    assert symmetry_check(d, "reflection")
    assert symmetry_check(d, "color-permutation", sigma={1: 2, 2: 1, 3: 3})
    point = ExactDist.point_mass(Word.parse("123", 3))
    assert not symmetry_check(point, "rotation", r=1)
    with pytest.raises(ValueError):
        symmetry_check(d, "color-permutation")
    with pytest.raises(ValueError):
        symmetry_check(d, "transpose")


def test_symmetry_check_on_tuple_states():
    d = ExactDist.from_weights({(0, 1): 1, (1, 0): 1})
    assert symmetry_check(d, "rotation", r=1)
    assert symmetry_check(d, "reflection")


def test_tv_distance_metric_properties():
    a = cycle_law(4, 3)
    b = cycle_law(4, 4)
    c = pushforward(b, lambda w: Word(w.symbols, 3) if max(w.symbols) <= 3 else w)
    assert tv_distance(a, a) == 0
    assert tv_distance(a, b) == tv_distance(b, a)
    assert tv_distance(a, b) <= tv_distance(a, c) + tv_distance(c, b)


def test_tv_distance_point_masses():
    assert tv_distance(ExactDist.point_mass("a"), ExactDist.point_mass("b")) == 1


def test_chi_square_exact_counts_pass_with_zero_statistic():
    d = cycle_law(3, 3)
    counts = {s: 10 for s in d.support}
    report = chi_square_gof(counts, d)
    assert report.statistic == 0.0
    assert report.passed
    assert report.dof == 5
    assert report.n_samples == 60


def test_chi_square_concentrated_counts_fail():
    d = cycle_law(3, 3)  # uniform over 6 states
    state = next(iter(d.support))
    report = chi_square_gof({state: 600}, d)
    assert report.statistic == pytest.approx(3000.0)
    assert not report.passed


def test_chi_square_foreign_state_fails_with_diagnostic():
    d = cycle_law(3, 3)
    report = chi_square_gof({Word.parse("121", 3): 5}, d)
    assert not report.passed
    assert "outside the exact support" in report.failure_reason


def test_chi_square_rejects_empty_counts():
    with pytest.raises(ValueError):
        chi_square_gof({}, cycle_law(3, 3))
    with pytest.raises(ValueError):
        chi_square_gof({next(iter(cycle_law(3, 3).support)): 1}, cycle_law(3, 3), alpha=2)


def test_chi_square_pools_small_expectations():
    # weights 1,1,98: with 100 samples the two light states (expected 1
    # each) pool into the next cell, which leaves one cell and nothing to test
    d = ExactDist.from_weights({"a": 1, "b": 1, "c": 98})
    with pytest.raises(ValueError, match=r"min_gof_samples\(d\) = 250"):
        chi_square_gof({"a": 1, "b": 1, "c": 98}, d)
    report = chi_square_gof({"a": 2, "b": 3, "c": 245}, d)
    assert report.n_cells == 2
    assert report.passed
    d2 = ExactDist.from_weights({"a": 10, "b": 10, "c": 80})
    report2 = chi_square_gof({"a": 12, "b": 9, "c": 79}, d2)
    assert report2.n_cells == 3
    assert report2.dof == 2
    assert report2.passed


def _fraction_gof(counts, d):
    """(statistic, dof, p-value) recomputed from Fraction expectations
    p * N: states by expectation, ties by state text, pooled left to right
    until a cell expects at least 5, a leftover joining the last cell."""
    from scipy.special import gammaincc

    n = sum(counts.values())
    cells = sorted(((p * n, counts.get(s, 0)) for s, p in d.sorted_items()), key=lambda c: c[0])
    pooled, acc = [], (F(0), 0)
    for e, o in cells:
        acc = (acc[0] + e, acc[1] + o)
        if acc[0] >= 5:
            pooled.append(acc)
            acc = (F(0), 0)
    if acc[0]:
        e, o = pooled.pop()
        pooled.append((e + acc[0], o + acc[1]))
    stat = sum((o - float(e)) ** 2 / float(e) for e, o in pooled)
    dof = len(pooled) - 1
    return stat, dof, float(gammaincc(dof / 2.0, stat / 2.0)), pooled


def test_chi_square_pools_a_cell_that_expects_exactly_five():
    # N = 15 draws against weights 1, 2, 3, 3 (T = 9) expect 5/3, 10/3, 5
    # and 5: the first two pool into a cell expecting exactly 5, which
    # closes it, and the others close alone
    d = ExactDist.from_weights({"a": 1, "b": 2, "c": 3, "d": 3})
    counts = {"a": 1, "b": 5, "c": 3, "d": 6}
    stat, dof, p_value, pooled = _fraction_gof(counts, d)
    assert [e for e, _ in pooled] == [5, 5, 5]
    report = chi_square_gof(counts, d)
    assert (report.n_cells, report.dof) == (3, dof) == (3, 2)
    assert report.statistic == stat
    assert report.statistic == pytest.approx(float(sum(F((o - e) ** 2) / e for e, o in pooled)))
    assert report.p_value == p_value
    # one draw fewer leaves the first pair short of 5, so it pools on with
    # "c", and "d" joins that cell: one cell, nothing to test
    short = {"a": 1, "b": 5, "c": 3, "d": 5}
    assert _fraction_gof(short, d)[1] == 0
    assert min_gof_samples(d) == 15
    with pytest.raises(ValueError, match="pool into one cell"):
        chi_square_gof(short, d)


def test_chi_square_pools_equal_expectations_in_state_text_order():
    # six states expect 2.5 each, so they pool in pairs; the law lists them
    # out of text order, where "a" would pool with "c" and fail
    d = ExactDist.from_weights(dict.fromkeys("acbedf", 1))
    counts = {"a": 5, "b": 0, "c": 5, "d": 0, "e": 5, "f": 0}
    stat, dof, p_value, pooled = _fraction_gof(counts, d)
    assert pooled == [(5, 5)] * 3 and stat == 0.0
    report = chi_square_gof(counts, d)
    assert (report.statistic, report.dof, report.p_value) == (stat, dof, p_value)


@pytest.mark.parametrize("weights", [{"a": 1, "b": 1, "c": 98}, {"a": 1, "b": 1},
                                     {"a": 10, "b": 10, "c": 80}, {"a": 3, "b": 5, "c": 7}])
def test_min_gof_samples_is_where_pooling_first_gives_two_cells(weights):
    _assert_two_cells_first_at_min_gof_samples(ExactDist.from_weights(weights))


@pytest.mark.parametrize("n,q", [(4, 3), (6, 3), (5, 4), (6, 4)])
def test_min_gof_samples_of_cycle_laws_is_where_pooling_first_gives_two_cells(n, q):
    _assert_two_cells_first_at_min_gof_samples(cycle_law(n, q))


def _assert_two_cells_first_at_min_gof_samples(d):
    state = next(iter(d.support))
    need = min_gof_samples(d)
    for n in range(1, need):
        with pytest.raises(ValueError, match=f"needs min_gof_samples\\(d\\) = {need}$"):
            chi_square_gof({state: n}, d)
    assert min(chi_square_gof({state: n}, d).n_cells for n in range(need, need + 20)) >= 2


def test_min_gof_samples_of_small_laws():
    assert min_gof_samples(cycle_law(3, 3)) == 10  # six states of 1/6
    assert min_gof_samples(ExactDist.from_weights({"a": 1, "b": 1})) == 10
    with pytest.raises(ValueError):
        min_gof_samples(ExactDist.point_mass("a"))


def test_readme_library_surface_runs():
    """The fenced block under README's "Library surface" runs as written."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Library surface\n\n```python\n(.*?)```", readme, re.S).group(1)
    assert "verify_k_dependence" in block and "are_independent" in block
    exec(compile(block, "README.md", "exec"), {})
