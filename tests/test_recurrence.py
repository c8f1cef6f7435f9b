"""Recurrence engine: counts, partition sums, exact laws.

The oracle here is an independent literal implementation of the defining
recurrences (no memo canonicalization, no vectorization); the engine must
agree with it word by word. Frozen expected values were computed with the
oracle before the engine existed.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

from findep.analysis import marginalize
from findep.dist import ExactDist
from findep.errors import BudgetExceeded
from findep.recurrence import (
    b_circ,
    b_circ_mobius,
    b_vec,
    cycle_law,
    is_theorem_grade,
    line_window_law,
    restriction_sum,
    z_circ,
    z_circ_closed,
    z_vec,
)
from findep.words import Word

F = Fraction


# -- independent oracle ------------------------------------------------------


def _cyc_proper(t):
    if len(t) <= 1:
        return True
    return all(t[i] != t[i + 1] for i in range(len(t) - 1)) and t[-1] != t[0]


def _proper(t):
    return all(t[i] != t[i + 1] for i in range(len(t) - 1))


@lru_cache(maxsize=None)
def oracle_b_circ(t):
    if not t:
        return 1
    if not _cyc_proper(t):
        return 0
    return sum(oracle_b_circ(t[:i] + t[i + 1 :]) for i in range(len(t)))


@lru_cache(maxsize=None)
def oracle_b_vec(t):
    if not t:
        return 1
    if not _proper(t):
        return 0
    return sum(oracle_b_vec(t[:i] + t[i + 1 :]) for i in range(len(t)))


def all_words(n, q):
    return product(range(1, q + 1), repeat=n)


# -- per-word counts ---------------------------------------------------------


def test_b_circ_frozen_values():
    assert b_circ("", 3) == 1
    assert b_circ("11", 3) == 0
    assert b_circ("123", 3) == 6
    assert b_circ("1212", 3) == 0
    assert b_circ("1213", 3) == 12
    assert b_circ("1213", 4) == 12
    assert b_circ("1232", 3) == 12
    assert b_circ("1234", 4) == 24


def test_b_circ_rejects_out_of_range_symbols():
    with pytest.raises(ValueError):
        b_circ("123", 2)
    with pytest.raises(ValueError):
        b_vec((0, 1), 3)


def test_b_circ_matches_oracle_exhaustively():
    for q in (3, 4):
        for n in range(0, 7):
            for t in all_words(n, q):
                assert b_circ(t, q) == oracle_b_circ(t), t


def test_b_circ_invariances():
    # count-level rotation, reflection, and color-permutation invariance
    from itertools import permutations

    for q in (3, 4):
        perms = list(permutations(range(1, q + 1)))
        for n in range(1, 6):
            for t in all_words(n, q):
                v = b_circ(t, q)
                for r in range(1, n):
                    assert b_circ(t[r:] + t[:r], q) == v
                assert b_circ(t[::-1], q) == v
                for p in perms:
                    assert b_circ(tuple(p[s - 1] for s in t), q) == v


def test_b_vec_frozen_values():
    assert b_vec("", 3) == 1
    assert b_vec("11", 3) == 0
    assert b_vec("121", 3) == 4
    assert b_vec("123", 3) == 6


def test_b_vec_matches_oracle_exhaustively():
    for q in (3, 4):
        for n in range(0, 7):
            for t in all_words(n, q):
                assert b_vec(t, q) == oracle_b_vec(t), t


# -- inclusion-exclusion form -------------------------------------------------


def test_mobius_equals_recurrence_exhaustively():
    for q in (3, 4):
        for n in range(1, 8):
            for t in all_words(n, q):
                assert b_circ_mobius(t, q) == b_circ(t, q), t


def test_mobius_frozen_values():
    assert b_circ_mobius("123", 3) == 6
    assert b_circ_mobius("112", 3) == 0
    assert b_circ_mobius("1213", 4) == 12
    # degenerate lengths: single adjacency at n=2, none at n=1
    assert b_circ_mobius("1", 3) == 1
    assert b_circ_mobius("11", 3) == 0


def test_mobius_rejects_empty_word():
    with pytest.raises(ValueError):
        b_circ_mobius("", 3)


# -- partition sums -----------------------------------------------------------


def test_z_circ_frozen_values():
    assert z_circ(3, 3) == 36
    assert z_circ(4, 3) == 144
    assert z_circ(0, 3) == 1
    assert z_circ(1, 4) == 4


def test_z_circ_equals_oracle_sum():
    for q in (3, 4):
        for n in range(0, 7):
            assert z_circ(n, q) == sum(oracle_b_circ(t) for t in all_words(n, q))


def test_z_vec_equals_oracle_sum():
    for q in (3, 4):
        for n in range(0, 7):
            assert z_vec(n, q) == sum(oracle_b_vec(t) for t in all_words(n, q))


def test_z_circ_matches_closed_form():
    for q in (3, 4, 5, 6):
        for n in range(2, 9):
            assert z_circ(n, q) == z_circ_closed(n, q)


def test_z_circ_closed_requires_n_at_least_two():
    with pytest.raises(ValueError):
        z_circ_closed(1, 3)


def test_z_circ_budget():
    with pytest.raises(BudgetExceeded):
        z_circ(40, 6)


# -- exact laws ---------------------------------------------------------------


def test_cycle_law_3_3_uniform_over_distinct_triples():
    d = cycle_law(3, 3)
    assert len(d) == 6
    for w in d.support:
        assert sorted(w.symbols) == [1, 2, 3]
        assert d.prob(w) == F(1, 6)


def test_cycle_law_3_4_uniform():
    d = cycle_law(3, 4)
    assert len(d) == 24
    assert all(p == F(1, 24) for _, p in d.items())


def test_cycle_law_excludes_zero_count_words():
    d = cycle_law(4, 3)
    assert Word.parse("1212", 3) not in d
    assert d.prob(Word.parse("1212", 3)) == 0
    assert d.prob(Word.parse("1213", 3)) == F(12, 144)


def test_cycle_law_guards():
    with pytest.raises(ValueError):
        cycle_law(3, 2)
    with pytest.raises(BudgetExceeded):
        cycle_law(10, 4, budget=1000)


def test_cycle_law_zero_length():
    d = cycle_law(0, 3)
    assert d == ExactDist.point_mass(Word((), 3))


def test_line_window_law_frozen():
    d1 = line_window_law(1, 1, 4)
    assert len(d1) == 4 and all(p == F(1, 4) for _, p in d1.items())
    d2 = line_window_law(2, 1, 4)
    assert len(d2) == 12 and all(p == F(1, 12) for _, p in d2.items())
    both_high = sum(
        (p for w, p in d2.items() if set(w.symbols) <= {3, 4}), F(0)
    )
    assert both_high == F(1, 6)


def test_theorem_grade_flag():
    assert is_theorem_grade(1, 4) and is_theorem_grade(2, 3)
    assert not is_theorem_grade(1, 3) and not is_theorem_grade(2, 4)


def test_law_matches_oracle_masses():
    for n, q in ((5, 3), (4, 4)):
        d = cycle_law(n, q)
        z = sum(oracle_b_circ(t) for t in all_words(n, q))
        for t in all_words(n, q):
            assert d.prob(Word(t, q)) == F(oracle_b_circ(t), z)


# -- restriction sums ---------------------------------------------------------


def test_restriction_sum_frozen_values():
    assert restriction_sum("1", 2, 3) == 12 == z_circ(2, 3) * b_vec("1", 3)
    assert restriction_sum("11", 1, 4) == 0
    assert restriction_sum("", 2, 3) == 12 == z_circ(2, 3)


def test_restriction_identity_k2_q3():
    for n in range(0, 7):
        for t in all_words(n, 3):
            assert restriction_sum(t, 2, 3) == z_circ(2, 3) * b_vec(t, 3)


def test_restriction_identity_k1_q4_window_constant():
    # For window size 1 the extension-count identity holds with the
    # constant q(q-1)/(q-2) = 6 (the closed-form partition formula
    # extended to length 1), not with the partition sum z_circ(1,4) = 4:
    # length-1 words are degenerate for the inclusion-exclusion step that
    # would equate the two.
    for n in range(1, 7):
        for t in all_words(n, 4):
            assert restriction_sum(t, 1, 4) == 6 * b_vec(t, 4)
    # the partition-sum normalization provably differs on proper words
    assert restriction_sum("1", 1, 4) == 6 != z_circ(1, 4) * b_vec("1", 4)


# -- window consistency ---------------------------------------------------------


def test_window_marginals_match_line_laws_small():
    for (k, q) in ((1, 4), (2, 3)):
        for m in (4, 5, 6):
            got = marginalize(cycle_law(m, q), range(1, m - k + 1))
            assert got == line_window_law(m - k, k, q)
