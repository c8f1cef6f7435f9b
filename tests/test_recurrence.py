"""Recurrence engine: counts, partition sums, exact laws.

The oracle here is an independent literal implementation of the defining
recurrences (no memo canonicalization, no vectorization); the engine must
agree with it word by word. Frozen expected values were computed with the
oracle before the engine existed.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np
import pytest

from findep import recurrence, suites
from findep.analysis import _cross_equal, marginalize
from findep.dist import ExactDist
from findep.errors import BudgetExceeded
from findep.recurrence import (
    b_circ,
    b_circ_mobius,
    b_vec,
    cycle_law,
    is_theorem_grade,
    line_counts,
    line_window_law,
    restriction_sum,
    z_circ,
    z_circ_closed,
    z_vec,
)
from findep.words import Word, encode_digits

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


def test_partition_sums_stop_at_n_14(monkeypatch):
    def boom(*args):
        raise AssertionError("a level was built")

    monkeypatch.setattr(recurrence, "_level_values", boom)
    # 2**15 words is small, but partition sums, like laws, stop at n = 14
    with pytest.raises(BudgetExceeded):
        z_circ(15, 2)
    with pytest.raises(BudgetExceeded):
        z_vec(15, 2)


def test_cycle_counts_guards(monkeypatch):
    def boom(*args):
        raise AssertionError("a level was built")

    monkeypatch.setattr(recurrence, "_level_values", boom)
    with pytest.raises(BudgetExceeded):
        recurrence.cycle_counts(12, 4)  # 4**12 words exceed the default budget
    with pytest.raises(BudgetExceeded):
        recurrence.cycle_counts(15, 3)


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


def test_cycle_law_guards(monkeypatch):
    def boom(*args):
        raise AssertionError("a level was built")

    monkeypatch.setattr(recurrence, "_level_values", boom)
    with pytest.raises(ValueError):
        cycle_law(3, 2)
    with pytest.raises(BudgetExceeded):
        cycle_law(10, 4, budget=1000)
    # Beyond the dense levels (n > 14) and with q**n past 2**31 (5**14 word
    # codes do not fit int32) the budget does not matter: both raise before
    # any level is built.
    with pytest.raises(BudgetExceeded):
        cycle_law(15, 3, budget=10**8)
    with pytest.raises(BudgetExceeded):
        cycle_law(14, 5, budget=10**10)


def test_level_counts_are_checked_against_m_factorial():
    # Slice [0] of level 3 at q = 3 has shape (2, 2), from level 2 of shape (3, 2).
    out = np.empty((2, 2), dtype=np.int64)
    # A length-3 word sums three level-2 counts, each at most 2! = 2.
    vals = recurrence._level_values(np.full((3, 2), 2, dtype=np.int64), 0, 3, True, out)
    assert vals.max() == 6
    with pytest.raises(OverflowError):
        recurrence._level_values(np.full((3, 2), 3, dtype=np.int64), 0, 3, True, out)
    with pytest.raises(OverflowError):  # the int64 sum wraps to a negative count
        recurrence._level_values(np.full((3, 2), 2**62, dtype=np.int64), 0, 3, True, out)


def test_count_sums_are_checked_against_int64_before_summing():
    """cells * m! < 2**63 is what makes an int64 sum of level-m counts exact;
    the check raises before any cell is read."""
    top = math.factorial(20)  # 3 * 20! < 2**63 <= 4 * 20!
    assert 3 * top < 2**63 <= 4 * top
    assert recurrence._count_sum(np.full(3, top, dtype=np.int64), 20) == 3 * top
    with pytest.raises(OverflowError):
        recurrence._count_sum(np.full(4, top, dtype=np.int64), 20)
    # 2**62 cells at m = 2 make exactly 2**63: refused unread (an int8 view,
    # whose nominal bytes fit), and one cell fewer fits
    with pytest.raises(OverflowError):
        recurrence._count_sum(np.broadcast_to(np.int8(2), 2**62), 2)
    assert (2**62 - 1) * math.factorial(2) < 2**63
    assert recurrence._count_sum(np.full((3, 4), 2, dtype=np.int64), 2) == 24


def _encoded_word(cell, q):
    """The 1-based word at cell [c1, e2, ..., em] of an encoded level."""
    word = list(cell[:1])
    for e in cell[1:]:
        word.append((word[-1] + e + 1) % q)
    return tuple(x + 1 for x in word)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_encoded_levels_equal_oracle_on_every_cell(q):
    for n in range(0, 8):
        circ, vec = recurrence._levels(q, True, n)[n], recurrence._levels(q, False, n)[n]
        assert circ.shape == vec.shape == ((q,) + (q - 1,) * (n - 1) if n else ())
        for cell in np.ndindex(circ.shape):
            t = _encoded_word(cell, q)
            assert circ[cell] == oracle_b_circ(t), t
            assert vec[cell] == oracle_b_vec(t), t


@pytest.mark.parametrize("q", [3, 4, 5])
def test_slice_codes_encode_the_word_at_each_level_cell(q):
    for n in range(1, 6):
        codes = recurrence._slice_codes(q, n, np.arange(q))
        cells = list(np.ndindex(codes.shape))
        words = np.array([_encoded_word(cell, q) for cell in cells])
        assert np.array_equal(encode_digits(words - 1, q), [codes[c] for c in cells]), n


@pytest.mark.parametrize("q", [3, 4, 5])
def test_dense_view_is_zero_exactly_off_the_proper_words(q):
    for n in range(0, 7):
        circ, vec = recurrence.cycle_counts(n, q), recurrence.line_counts(n, q)
        proper = np.zeros((q,) * n, dtype=bool)
        cyc_proper = np.zeros((q,) * n, dtype=bool)
        for idx in np.ndindex(proper.shape):
            proper[idx] = _proper(idx)
            cyc_proper[idx] = _cyc_proper(idx)
        # Every proper word of the line can be built by insertion; on the
        # cycle some cyclically proper words count 0 (n >= 4).
        assert np.array_equal(vec != 0, proper), n
        assert not circ[~cyc_proper].any(), n
        codes = recurrence._slice_codes(q, n, np.arange(q)) if n else np.zeros((), np.int32)
        written = np.zeros(q**n, dtype=bool)
        written[codes.reshape(-1)] = True
        assert np.array_equal(written.reshape(proper.shape), proper), n


@pytest.mark.parametrize("q,top", [(3, 8), (4, 8), (5, 8), (10, 4)])
def test_law_counts_equal_the_nonzero_cells_of_the_dense_view(q, top):
    for cyclic in (True, False):
        for n in range(0, top + 1):
            dense = recurrence._counts_view(n, q, cyclic)
            rows, counts, z = recurrence._law_cells(n, q, 10**8, cyclic=cyclic)
            assert rows.dtype == np.int32 and counts.dtype == np.int64
            assert np.array_equal(rows, np.argwhere(dense)), (n, cyclic)
            assert np.array_equal(counts, dense[dense != 0]), (n, cyclic)
            assert type(z) is int and z == int(counts.sum()), (n, cyclic)


@pytest.mark.parametrize("q,top", [(3, 8), (4, 8), (5, 8), (10, 4)])
def test_law_codes_equal_the_nonzero_cells_of_the_dense_view(q, top):
    for cyclic, z_of in ((True, z_circ), (False, z_vec)):
        for n in range(0, top + 1):
            flat = recurrence._counts_view(n, q, cyclic).reshape(-1)
            states, z, slice_of = recurrence._law_slices(n, q, 10**8, cyclic=cyclic)
            codes, counts = map(np.concatenate, zip(*map(slice_of, range(q))))
            assert codes.dtype == np.int32 and counts.dtype == np.int64
            assert np.array_equal(codes, np.flatnonzero(flat)), (n, cyclic)
            assert np.array_equal(counts, flat[flat != 0]), (n, cyclic)
            assert type(z) is int and z == z_of(n, q), (n, cyclic)
            assert type(states) is int and states == codes.size, (n, cyclic)


def test_a_bumped_slice_breaks_the_color_symmetry_of_the_dense_level(monkeypatch):
    q, m = 4, 5

    monkeypatch.setattr(recurrence, "_LEVEL_CACHE", {})
    assert not suites._symmetry_fails(recurrence.cycle_counts(m, q))["color-permutation"].any()
    monkeypatch.setattr(recurrence, "_LEVEL_CACHE", {})
    prev = recurrence._levels(q, True, m - 1)[m - 1]
    cells = prev[1].reshape(-1)
    cells[np.flatnonzero(cells)[0]] += 1
    assert suites._symmetry_fails(recurrence.cycle_counts(m, q))["color-permutation"].any()


@pytest.mark.parametrize("q", [3, 4])
def test_dense_levels_equal_oracle_on_every_cell(q):
    for n in range(0, 7):
        circ, vec = recurrence.cycle_counts(n, q), recurrence.line_counts(n, q)
        assert circ.shape == vec.shape == (q,) * n
        for idx in np.ndindex(circ.shape):
            t = tuple(i + 1 for i in idx)
            assert circ[idx] == oracle_b_circ(t), t
            assert vec[idx] == oracle_b_vec(t), t


def test_sliced_partition_sums_equal_full_level_sums():
    # Partition sums read the top level one slice at a time; _levels builds
    # it whole. At q = 1 and 2 a step has 0 and 1 possible increments.
    for q in (3, 4, 5):
        for n in range(0, 8):
            assert z_circ(n, q) == int(recurrence._levels(q, True, n)[n].sum()), (n, q)
            assert z_vec(n, q) == int(recurrence._levels(q, False, n)[n].sum()), (n, q)
    for q, circ in ((1, (1, 1, 0, 0, 0, 0)), (2, (1, 2, 4, 0, 0, 0))):
        for n in range(0, 6):
            assert z_circ(n, q) == circ[n] == int(recurrence._levels(q, True, n)[n].sum()), (n, q)
            assert z_vec(n, q) == int(recurrence._levels(q, False, n)[n].sum()), (n, q)
    assert [z_vec(n, 2) for n in range(6)] == [2**n for n in range(6)]


def _level_n_calls(monkeypatch, n, q, read):
    """The ``_level_values`` calls that compute a slice of level n at q while
    ``read`` runs, with the levels below n at q already built and level n
    not: a cached level n serves its slices with no call."""
    monkeypatch.setattr(recurrence, "_LEVEL_CACHE", {})
    recurrence._levels(q, True, n - 1)
    calls = []
    orig = recurrence._level_values

    def counted(prev, a, q_, *args):
        calls.append((prev.ndim + 1, q_))
        return orig(prev, a, q_, *args)

    with monkeypatch.context() as m:
        m.setattr(recurrence, "_level_values", counted)
        read()
    return calls.count((n, q))


@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize("n", [6, 8])
def test_law_reads_compute_each_slice_of_level_n_once(monkeypatch, n, q):
    assert _level_n_calls(monkeypatch, n, q, lambda: cycle_law(n, q)) == q
    for k in (0, 1):
        assert _level_n_calls(monkeypatch, n, q, lambda: suites.kdep_report(n, q, k)) == q
    assert _level_n_calls(monkeypatch, n, q, lambda: suites.symmetry_suite(n)) == q


def test_partition_suite_computes_each_level_once(monkeypatch):
    """A cold default ``partition_suite(10)`` sums from n = 10 down: level
    10 at each q is read as q slices, and every level below it is built
    once (q slices each) and then read from the cache, so q = 3..6 take
    (3 + 4 + 5 + 6) * 10 = 180 slice computations. Summed from n = 2 up,
    each level below 10 is first summed as slices and then built: 324."""
    monkeypatch.setattr(recurrence, "_LEVEL_CACHE", {})
    calls = []
    orig = recurrence._level_values

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(recurrence, "_level_values", counted)
    rep = suites.partition_suite(10)
    assert len(calls) == 180
    assert [(c["q"], c["n"]) for c in rep["cases"]] == [
        (q, n) for q in (3, 4, 5, 6) for n in range(2, 11)]


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


# -- line-law consistency ---------------------------------------------------------

# q -> the largest n at which line level n + 1 is checked against level n.
LINE_CONSISTENT_TO = {3: 8, 4: 6, 5: 5, 6: 4}


def _proportional(x: np.ndarray, y: np.ndarray) -> bool:
    """x is a constant multiple of y, exactly: x * sum(y) == y * sum(x)."""
    return bool(_cross_equal(x, int(y.sum()), y, int(x.sum())).all())


@pytest.mark.parametrize("q,top", sorted(LINE_CONSISTENT_TO.items()))
def test_line_levels_are_consistent(q, top):
    # Level n + 1 summed over its first site, and over its last, is level n up
    # to a constant, theorem-grade (k, q) or not: the window laws are the
    # marginals of one stationary law at these lengths.
    for n in range(top + 1):
        upper, lower = line_counts(n + 1, q), line_counts(n, q)
        for axis in (0, -1):
            assert _proportional(upper.sum(axis=axis), lower), (n, axis)


@pytest.mark.parametrize("axis", [0, -1])
def test_line_consistency_check_can_fail(axis):
    upper, lower = line_counts(6, 4).copy(), line_counts(5, 4)
    assert _proportional(upper.sum(axis=axis), lower)
    upper[0, 1, 0, 1, 0, 1] += 1  # one proper word's count
    assert not _proportional(upper.sum(axis=axis), lower)
