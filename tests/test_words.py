"""Word value type and pure manipulations."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from findep.words import (
    Word,
    apply_color_perm,
    delete_at,
    insertion_orbits,
    is_cyclically_proper,
    is_proper,
    reflect,
    rotate,
    rotations,
    rotl,
    row_texts,
)


def W(text, q=4):
    return Word.parse(text, q)


def test_construction_validates_symbols():
    with pytest.raises(ValueError):
        Word((0, 1), 3)
    with pytest.raises(ValueError):
        Word((1, 4), 3)
    with pytest.raises(ValueError):
        Word((1,), 0)


@pytest.mark.parametrize("n,q", [(0, 3), (0, 11), (1, 3), (3, 4), (3, 9), (2, 10), (3, 12)])
def test_row_texts_match_word_text(n, q):
    words = list(product(range(1, q + 1), repeat=n))
    rows = np.array(words, dtype=np.int32).reshape(len(words), n)
    assert row_texts(rows, q) == [Word(w, q).text() for w in words]


@pytest.mark.parametrize("q", [10, 11, 12, 23, 100])
@pytest.mark.parametrize("n", [0, 1, 2, 6])
def test_comma_row_texts_match_the_per_row_join(n, q):
    # Random rows mix one-, two- and three-digit symbols in one block, and
    # every row ends in q or 1, the widest or narrowest last symbol.
    rows = np.random.default_rng(q * 10 + n).integers(1, q + 1, size=(200, n))
    if n:
        rows[:100, -1], rows[100:, -1] = q, 1
    assert row_texts(rows, q) == [",".join(map(str, r)) for r in rows.tolist()]


def test_parse_and_text_roundtrip():
    assert W("123", 3).symbols == (1, 2, 3)
    assert W("", 3).symbols == ()
    assert W("123", 3).text() == "123"
    big = Word.parse("10,2,11", 12)
    assert big.symbols == (10, 2, 11)
    assert big.text() == "10,2,11"


def test_delete_at():
    assert delete_at(W("123", 3), 2) == W("13", 3)
    assert delete_at(W("1", 3), 1) == W("", 3)
    assert delete_at(W("1213"), 4) == W("121")
    with pytest.raises(IndexError):
        delete_at(W("123", 3), 0)
    with pytest.raises(IndexError):
        delete_at(W("123", 3), 4)


def test_rotate():
    assert rotate(W("123", 3), 1) == W("231", 3)
    assert rotate(W("123", 3), 0) == W("123", 3)
    assert rotate(W("12", 3), 2) == W("12", 3)
    assert rotate(W("123", 3), -1) == W("312", 3)
    with pytest.raises(ValueError):
        rotate(W("", 3), 1)


def test_properness():
    assert is_proper(W("121", 3))
    assert not is_proper(W("112", 3))
    assert is_proper(W("", 3))
    assert is_cyclically_proper(W("123", 3))
    assert not is_cyclically_proper(W("121", 3))
    # single letters count as cyclically proper: the convention forced by
    # the partition identity Z(2, q) = 2 q (q-1)
    assert is_cyclically_proper(W("1", 3))
    assert is_cyclically_proper(W("", 3))


def test_reflect():
    assert reflect(W("123", 3)) == W("321", 3)
    assert reflect(W("11", 3)) == W("11", 3)
    assert reflect(W("", 3)) == W("", 3)


def test_apply_color_perm():
    assert apply_color_perm(W("123", 3), {1: 1, 2: 2, 3: 3}) == W("123", 3)
    assert apply_color_perm(W("123", 3), {1: 2, 2: 1, 3: 3}) == W("213", 3)
    # the 3-cycle sending 1 -> 3 -> 2 -> 1
    assert apply_color_perm(W("11", 3), {1: 3, 3: 2, 2: 1}) == W("33", 3)
    assert apply_color_perm(W("12", 3), [2, 3, 1]) == W("23", 3)
    with pytest.raises(ValueError):
        apply_color_perm(W("12", 3), {1: 1, 2: 1, 3: 3})
    with pytest.raises(ValueError):
        apply_color_perm(W("12", 3), {1: 2, 2: 1})


words_q3 = st.lists(st.integers(1, 3), max_size=8).map(lambda s: Word(tuple(s), 3))
words_q4 = st.lists(st.integers(1, 4), max_size=8).map(lambda s: Word(tuple(s), 4))
nonempty_q4 = st.lists(st.integers(1, 4), min_size=1, max_size=8).map(
    lambda s: Word(tuple(s), 4)
)


@given(nonempty_q4, st.integers(-8, 8), st.integers(-8, 8))
def test_rotate_composes(x, a, b):
    assert rotate(rotate(x, a), b) == rotate(x, a + b)


@given(nonempty_q4, st.integers(1, 8), st.permutations([1, 2, 3, 4]))
def test_delete_commutes_with_color_perm(x, i, perm):
    i = (i - 1) % len(x) + 1
    sigma = dict(zip([1, 2, 3, 4], perm))
    assert apply_color_perm(delete_at(x, i), sigma) == delete_at(
        apply_color_perm(x, sigma), i
    )


@given(nonempty_q4, st.integers(-8, 8))
def test_cyclic_properness_rotation_invariant(x, r):
    assert is_cyclically_proper(rotate(x, r)) == is_cyclically_proper(x)


@given(words_q4)
def test_cyclic_properness_reflection_invariant(x):
    assert is_cyclically_proper(reflect(x)) == is_cyclically_proper(x)


@given(words_q3)
def test_rotation_preserves_multiset(x):
    if len(x) > 0:
        assert sorted(rotate(x, 3).symbols) == sorted(x.symbols)


# -- rotations and insertion orbits -------------------------------------------


def test_rotations_are_every_rotl():
    for n in range(1, 7):
        for t in product((1, 2, 3), repeat=n):
            assert rotations(t) == [rotl(t, r) for r in range(n)]
    assert rotations(()) == []


def test_insertion_orbits_counts_every_gap_symbol_and_rotation():
    allowed = lambda a, b: [c for c in (1, 2, 3, 4) if c not in (a, b)]
    row = insertion_orbits((1, 2, 3), allowed)
    # 3 gaps, 2 colors each, 4 rotations, each outcome once
    assert sum(row.values()) == 3 * 2 * 4
    assert row[(1, 4, 2, 3)] == 1  # 4 before index 1, no rotation
    assert row[(4, 2, 3, 1)] == 1  # the same, rotated left by 1
    assert row[(1, 2, 3, 4)] == 1  # 4 before index 0, rotated left by 1
    # 3 before index 0 or before index 2 gives the same cyclic word
    row = insertion_orbits((1, 2, 1, 2), lambda a, b: (3,))
    assert row[(3, 1, 2, 1, 2)] == 2
    assert sum(row.values()) == 4 * 5
    assert insertion_orbits((1, 1), lambda a, b: ()) == {}
