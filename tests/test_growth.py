"""Samplers: insertion machinery, coupling kernel, Eden growth."""

import dataclasses
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import findep
from findep import growth
from findep.analysis import chi_square_gof
from findep.growth import (
    RngStream,
    _eden_bounds,
    _eden_read_from,
    _eden_step_at,
    _eden_word,
    _insertion_row,
    _necklace_bounds,
    _necklace_word,
    allowed_colors,
    coupling_kernel,
    eden_init,
    eden_read,
    eden_sample,
    eden_step,
    eden_vs_necklace_kernel_check,
    insert_with_rotation,
    necklace_sample,
    replicate_draws,
    validate_eden_state,
)
from findep.recurrence import cycle_counts, cycle_law
from findep.words import Word, is_cyclically_proper, rotl, tuple_is_cyclically_proper


def W(text, q=4):
    return Word.parse(text, q)


# -- insertion ----------------------------------------------------------------


def test_insert_with_rotation_frozen():
    assert insert_with_rotation(W("123"), 2, 4, 0) == W("1423")
    assert insert_with_rotation(W("123"), 2, 4, 4) == W("1423")  # full turn
    assert insert_with_rotation(W("123"), 1, 4, 1) == W("1234")
    assert insert_with_rotation(W("1", 3), 1, 2, 0) == W("21", 3)


def test_insert_with_rotation_errors():
    with pytest.raises(IndexError):
        insert_with_rotation(W("123"), 0, 4, 0)
    with pytest.raises(IndexError):
        insert_with_rotation(W("123"), 4, 4, 0)
    with pytest.raises(IndexError):
        insert_with_rotation(W("123"), 1, 4, 5)
    with pytest.raises(ValueError):
        insert_with_rotation(W("123", 3), 1, 4, 0)


# -- coupling kernel ------------------------------------------------------------


def test_kernel_rows_are_supported_on_cyclically_proper_words():
    k = coupling_kernel(3, 3)
    row = k.row(W("123", 3))
    assert all(is_cyclically_proper(w) for w in row.support)


def test_kernel_requires_small_preconditions():
    with pytest.raises(ValueError):
        coupling_kernel(2, 3)
    with pytest.raises(ValueError):
        coupling_kernel(3, 2)


def _literal_insertion_row(t, q):
    """One necklace step written out: a rotl per (gap, color, rotation)."""
    n = len(t)
    row = Counter()
    for i0 in range(n):
        for z in allowed_colors(q, t[i0 - 1], t[i0]):
            y = t[:i0] + (z,) + t[i0:]
            for r in range(n + 1):
                row[rotl(y, r)] += 1
    return row


@pytest.mark.parametrize("q", [3, 4])
def test_insertion_row_matches_literal_step(q):
    for n in range(1, 8):
        for t in filter(tuple_is_cyclically_proper, product(range(1, q + 1), repeat=n)):
            assert _insertion_row(t, q) == _literal_insertion_row(t, q)


def _dfs_cyclically_proper_words(n, q):
    """The cyclically proper words of length n, extended color by color."""
    def extend(prefix):
        if len(prefix) == n:
            if prefix[-1] != prefix[0]:
                yield prefix
            return
        for c in range(1, q + 1):
            if c != prefix[-1]:
                yield from extend(prefix + (c,))

    for first in range(1, q + 1):
        yield from extend((first,))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("q", [3, 4])
def test_kernel_states_in_dfs_order(n, q):
    states = [w.symbols for w in coupling_kernel(n, q).states]
    assert states == list(_dfs_cyclically_proper_words(n, q))


@pytest.mark.parametrize("n,q", [(3, 3), (4, 3), (3, 4)])
def test_kernel_transports_cycle_law(n, q):
    assert coupling_kernel(n, q).push(cycle_law(n, q)) == cycle_law(n + 1, q)


# -- necklace sampler -----------------------------------------------------------


def test_necklace_initial_triple_is_distinct():
    for rep in range(50):
        w = necklace_sample(3, 4, RngStream(11, rep))
        assert sorted(set(w.symbols)) == sorted(w.symbols)
        assert len(w) == 3


def test_necklace_words_always_cyclically_proper():
    for rep in range(100):
        w = necklace_sample(7, 3, RngStream(5, rep))
        assert is_cyclically_proper(w)


def test_necklace_determinism():
    a = [necklace_sample(6, 4, RngStream(99, r)) for r in range(10)]
    b = [necklace_sample(6, 4, RngStream(99, r)) for r in range(10)]
    assert a == b
    c = [necklace_sample(6, 4, RngStream(100, r)) for r in range(10)]
    assert a != c


def test_necklace_gof_quick():
    counts = {}
    for rep in range(20000):
        w = necklace_sample(5, 3, RngStream(2024, rep))
        counts[w] = counts.get(w, 0) + 1
    report = chi_square_gof(counts, cycle_law(5, 3), alpha=0.001)
    assert report.passed, report


# -- Eden growth -----------------------------------------------------------------


def test_eden_init_shape():
    s = eden_init(4, RngStream(3))
    assert s.size == 1
    assert len(s.outer) == 3 and len(s.gaps) == 3
    colors = [c for _, c in s.outer]
    assert len(set(colors)) == 3


def test_eden_growth_invariants():
    rng = RngStream(17)
    s = eden_init(3, rng)
    for m in range(1, 7):
        s = eden_step(s, rng)
        validate_eden_state(s)
        assert len(s.outer) == m + 3
        assert len(s.gaps) == m + 3
    w = eden_read(s, rng)
    assert len(w) == 9
    assert is_cyclically_proper(w)


def test_eden_sample_length_and_determinism():
    a = [eden_sample(6, 4, RngStream(8, r)) for r in range(10)]
    b = [eden_sample(6, 4, RngStream(8, r)) for r in range(10)]
    assert a == b
    assert all(len(w) == 6 and is_cyclically_proper(w) for w in a)


def _replay_history(q, first_colors, steps):
    """Replay a growth history with explicit choices, recording the stacked
    dual graph's edges; returns (coloring tuple, edge set)."""
    c1, c2, c3 = first_colors
    s = _FixedInit(q, (c1, c2, c3)).state
    edges = {(0, 1), (1, 2), (0, 2)}
    for gap_index, color_index in steps:
        left_id = s.gaps[gap_index][0]
        right_id = s.gaps[gap_index][1]
        new_id = s.next_outer_id
        edges |= {tuple(sorted((left_id, new_id))), tuple(sorted((right_id, new_id)))}
        s = _eden_step_at(s, gap_index, color_index)
    coloring = {vid: c for vid, c in s.outer}
    return tuple(coloring[i] for i in range(len(coloring))), edges


class _FixedInit:
    """eden_init with prescribed initial colors (choices made explicit)."""

    def __init__(self, q, colors):
        from findep.growth import EdenState

        c1, c2, c3 = colors
        self.state = EdenState(
            q=q,
            size=1,
            tree=(0,),
            tree_edges=((0, 1), (0, 2), (0, 3)),
            outer=((0, c1), (1, c2), (2, c3)),
            gaps=((0, 1, 1), (1, 2, 2), (2, 0, 3)),
            next_tree_id=4,
            next_outer_id=3,
        )


def _proper_colorings_of_graph(n_vertices, edges, q):
    count = 0
    for assignment in product(range(1, q + 1), repeat=n_vertices):
        if all(assignment[u] != assignment[v] for u, v in edges):
            count += 1
    return count


@pytest.mark.parametrize(
    "q,gap_seq",
    [
        (3, [0, 1]),
        (3, [0, 0, 2]),
        (4, [1]),
        (4, [2, 3]),
    ],
)
def test_greedy_coloring_uniformity(q, gap_seq):
    """For a fixed growth history, the greedy color choices reach each proper
    coloring of the stacked dual graph exactly once, and their number is
    q (q-1) (q-2)^cluster_size."""
    cluster_size = 1 + len(gap_seq)
    distinct_triples = [
        (a, b, c)
        for a in range(1, q + 1)
        for b in range(1, q + 1)
        for c in range(1, q + 1)
        if len({a, b, c}) == 3
    ]
    seen = set()
    edges = None
    for triple in distinct_triples:
        for color_choices in product(range(q - 2), repeat=len(gap_seq)):
            coloring, edges = _replay_history(
                q, triple, list(zip(gap_seq, color_choices))
            )
            assert coloring not in seen, "two choice sequences reached one coloring"
            seen.add(coloring)
    expected = q * (q - 1) * (q - 2) ** cluster_size
    assert len(seen) == expected
    # independent oracle: brute-force count of proper colorings of the graph
    n_vertices = cluster_size + 2
    assert _proper_colorings_of_graph(n_vertices, edges, q) == expected
    # and every reached coloring is proper on the recorded edges
    for coloring in seen:
        assert all(coloring[u] != coloring[v] for u, v in edges)


@pytest.mark.parametrize("n,q", [(3, 3), (4, 3), (3, 4)])
def test_eden_vs_necklace_kernel(n, q):
    assert eden_vs_necklace_kernel_check(n, q)


def _one_slot_right(insert, cyc, p, ci):
    """Insert the color that the gap's neighbors chose one slot to its right."""
    insert(cyc, p, ci)
    cyc.insert(p + 1, cyc.pop(p))


@pytest.mark.parametrize(
    "wrong,q",
    [
        (lambda insert, cyc, p, ci: insert(cyc, 1, ci), 3),  # always the first gap
        (lambda insert, cyc, p, ci: insert(cyc, 1, ci), 4),
        # always the first allowed color; at q = 3 there is only one
        (lambda insert, cyc, p, ci: insert(cyc, p, 0), 4),
        (_one_slot_right, 3),
        (_one_slot_right, 4),
        (lambda insert, cyc, p, ci: None, 4),  # a step that adds no color
    ],
)
def test_eden_vs_necklace_kernel_check_can_fail(monkeypatch, wrong, q):
    insert = growth._insert
    monkeypatch.setattr(growth, "_insert", lambda *args: wrong(insert, *args))
    assert not eden_vs_necklace_kernel_check(4, q)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_numpy_necklace_rows_match_insertion_rows(q):
    """The keys of ``_necklace_codes`` (``_block_keys``), decoded per state,
    count the rotated tuples that ``_insertion_row`` counts."""
    for n in range(2, 7):
        words = [t for t in product(range(1, q + 1), repeat=n) if tuple_is_cyclically_proper(t)]
        keys = growth._block_keys(*growth._necklace_codes(np.array(words), q), n + 1, q)
        rows, codes = np.divmod(keys, q ** (n + 1))
        digits = codes[:, None] // q ** np.arange(n, -1, -1) % q + 1  # first color most significant
        counted = [Counter() for _ in words]
        for row, word in zip(rows.tolist(), map(tuple, digits.tolist())):
            counted[row][word] += 1
        for t, row in zip(words, counted):
            assert row == _insertion_row(t, q), t


def test_eden_vs_necklace_kernel_check_catches_a_fault_in_a_late_block(monkeypatch):
    """At (7, 4) the 2,184 states span 9 blocks; the states with first
    color 4 come last, past the first 6 blocks, and only their step is
    broken: the stacked vertex always goes into the first gap."""
    n, q = 7, 4
    states = np.argwhere(cycle_counts(n, q)) + 1
    assert len(states) == 2184
    assert (states[: 6 * growth._BLOCK_STATES, 0] != q).all()
    assert eden_vs_necklace_kernel_check(n, q)
    insert = growth._insert

    def broken(cyc, p, ci):
        insert(cyc, 1 if cyc[0] == q else p, ci)

    monkeypatch.setattr(growth, "_insert", broken)
    assert not eden_vs_necklace_kernel_check(n, q)


def test_eden_read_from_start():
    s = _eden_step_at(eden_init(4, RngStream(3)), 2, 1)
    colors = tuple(c for _, c in s.outer)
    assert _eden_read_from(s, 0) == Word(colors, 4)
    assert _eden_read_from(s, 2) == Word(colors[2:] + colors[:2], 4)


def test_eden_state_json_snapshot():
    from findep.growth import eden_state_json

    s = eden_init(3, RngStream(0))
    doc = eden_state_json(s)
    assert doc["schema"] == "findep.eden-state/1"
    assert doc["size"] == 1
    assert len(doc["outer"]) == 3 and len(doc["gaps"]) == 3
    assert {"left", "right", "boundary_vertex"} == set(doc["gaps"][0])
    import json

    json.dumps(doc)  # serializable


def test_eden_gof_quick():
    counts = {}
    for rep in range(20000):
        w = eden_sample(5, 3, RngStream(31337, rep))
        counts[w] = counts.get(w, 0) + 1
    report = chi_square_gof(counts, cycle_law(5, 3), alpha=0.001)
    assert report.passed, report


# -- literal step-by-step oracle ---------------------------------------------------


def _necklace_reference(n, q, rng):
    """necklace_sample drawn one index at a time and built with
    insert_with_rotation, one full word per step."""
    colors = list(range(1, q + 1))
    c1 = colors[rng.index(q)]
    rest = [c for c in colors if c != c1]
    c2 = rest[rng.index(q - 1)]
    c3 = [c for c in rest if c != c2][rng.index(q - 2)]
    x = Word((c1, c2, c3), q)
    for m in range(3, n):
        i0 = rng.index(m)
        z = allowed_colors(q, x.symbols[i0 - 1], x.symbols[i0])[rng.index(q - 2)]
        x = insert_with_rotation(x, i0 + 1, z, rng.index(m + 1))
    return x


def _eden_reference(n, q, rng):
    """eden_sample through eden_init, eden_step and eden_read, validating
    every intermediate state."""
    s = eden_init(q, rng)
    for _ in range(n - 3):
        s = eden_step(s, rng)
        validate_eden_state(s)
    return eden_read(s, rng)


@pytest.mark.parametrize("n", [*range(3, 13), 200])
@pytest.mark.parametrize("q", [3, 4, 5, 6])
def test_samplers_match_step_by_step_reference(n, q):
    streams = [(seed, stream) for seed in (0, 7, 2024) for stream in (0, 1, 5)]
    if n == 200:
        streams = streams[::4]
    necklace_rows = {seed: list(replicate_draws(seed, 6, _necklace_bounds(n, q)))
                     for seed, _ in streams}
    eden_rows = {seed: list(replicate_draws(seed, 6, _eden_bounds(n, q))) for seed, _ in streams}
    for seed, stream in streams:
        want = _necklace_reference(n, q, RngStream(seed, stream))
        assert necklace_sample(n, q, RngStream(seed, stream)) == want, (seed, stream)
        assert _necklace_word(n, q, necklace_rows[seed][stream]) == want.symbols, (seed, stream)
        want = _eden_reference(n, q, RngStream(seed, stream))
        assert eden_sample(n, q, RngStream(seed, stream)) == want, (seed, stream)
        assert _eden_word(n, q, eden_rows[seed][stream]) == want.symbols, (seed, stream)


@pytest.mark.parametrize(
    "word_of,bounds_of",
    [(_necklace_word, _necklace_bounds), (_eden_word, _eden_bounds)],
    ids=["necklace", "eden"],
)
@pytest.mark.parametrize("n,q", [(5, 3), (6, 3), (5, 4)])
def test_word_builders_have_the_exact_cycle_law(word_of, bounds_of, n, q):
    """Every draw row, each of equal chance, gives the words in proportion
    to their insertion counts b_circ."""
    rows = list(product(*map(range, bounds_of(n, q))))
    words = Counter(word_of(n, q, row) for row in rows)
    level = cycle_counts(n, q)
    z = int(level.sum())
    assert set(words) == set(map(tuple, (np.argwhere(level) + 1).tolist()))
    for w, count in words.items():
        assert count * z == int(level[tuple(c - 1 for c in w)]) * len(rows), w


def test_allowed_color_arithmetic_matches_allowed_colors():
    rnd = random.Random(20)
    cases = []
    for _ in range(3000):
        q = rnd.randint(3, 400)
        a, b = rnd.sample(range(1, q + 1), 2)
        cases.append((q, a, b, rnd.randrange(q - 2)))
    cases += [(400, 1, 2, 0), (400, 399, 400, 397), (400, 400, 1, 397), (3, 3, 1, 0)]
    want = [allowed_colors(q, a, b)[ci] for q, a, b, ci in cases]
    _, a, b, ci = np.array(cases).T
    assert growth._allowed_color(a, b, ci).tolist() == want

    def inserted(a, b, ci):  # the per-row step, on Python ints
        cyc = [a, b]
        growth._insert(cyc, 1, ci)
        return cyc[1]

    assert [inserted(a, b, ci) for _, a, b, ci in cases] == want


def test_samplers_keep_no_color_table_over_q():
    """The per-row step counts its color up from 1. A table of
    ``allowed_colors`` over every neighbour pair would hold 121**2 lists
    of 118 colors at q = 120, about 14 MB (1.2 GB at q = 400). A first
    draw imports numpy's random modules, so it runs before tracing."""
    necklace_sample(6, 3, RngStream(0))
    tracemalloc.start()
    try:
        necklace_sample(6, 120, RngStream(0))
        eden_sample(6, 120, RngStream(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


@pytest.mark.parametrize(
    "words_of,word_of,bounds_of",
    [(growth._necklace_words, _necklace_word, _necklace_bounds),
     (growth._eden_words, _eden_word, _eden_bounds)],
    ids=["necklace", "eden"],
)
@pytest.mark.parametrize("q", [3, 4, 7, 10])
def test_block_builders_match_per_row_builders(monkeypatch, words_of, word_of, bounds_of, q):
    """On both sides of ``_VECTOR_MAX_N``, the block builder's rows equal
    the per-row builder on the literal streams, for blocks of 3 rows (the
    last of 1) from ``_replicate_blocks``. Each block's row 1 is forced
    to be recomputed, as a rejected row, after its values were zeroed."""
    lemire_draws = growth._lemire_draws

    def rejecting_row_1(seeded, jumps, b):
        values, rejected = lemire_draws(seeded, jumps, b)
        values[1:2] = 0
        rejected[1:2] = True
        return values, rejected

    monkeypatch.setattr(growth, "_lemire_draws", rejecting_row_1)
    recomputed = []
    indices = RngStream.indices

    def counted(self, b):
        recomputed.append(self.stream)
        return indices(self, b)

    seed, reps = 2**32 + 7, 7
    for n in range(3, growth._VECTOR_MAX_N + 3):
        bounds = bounds_of(n, q)
        want = [word_of(n, q, row) for row in _literal_rows(seed, reps, bounds)]
        n_out = (int((bounds > 1).sum()) + 1) // 2
        monkeypatch.setattr(growth, "_BLOCK_OUTPUTS", 3 * n_out)
        monkeypatch.setattr(RngStream, "indices", counted)
        got = [words_of(n, q, block) for block in growth._replicate_blocks(seed, reps, bounds)]
        monkeypatch.setattr(RngStream, "indices", indices)
        assert [len(block) for block in got] == [3, 3, 1], n
        assert list(map(tuple, np.concatenate(got).tolist())) == want, n
        # rows 1 and 4 are recomputed, rows 0, 3 and 6 are checked
        assert sorted(recomputed) == [0, 1, 3, 4, 6], n
        recomputed.clear()


@pytest.mark.parametrize("seed", [0, 1, 99])
def test_indices_equal_index_draws(seed):
    edge = [1, 2, 3, 1, 1, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**33, 2**62, 1]
    bounds = edge + [random.Random(seed).randrange(1, 2**34) for _ in range(500)]
    bulk, single = RngStream(seed, 3), RngStream(seed, 3)
    assert bulk.indices(bounds) == [single.index(b) for b in bounds]
    # the stream is left in the same state, whatever the spare 32-bit half
    for b in (5, 1, 2**40, 7):
        assert bulk.index(b) == single.index(b)
    assert bulk.indices([]) == []
    assert bulk.indices([3, 1, 3]) == [single.index(b) for b in (3, 1, 3)]


def test_indices_reject_nonpositive_bound():
    with pytest.raises(ValueError):
        RngStream(0).indices([3, 0])


# -- replicate_draws against the literal per-replicate streams ----------------------


def _literal_rows(seed, reps, bounds):
    return [RngStream(seed, r).indices(bounds) for r in range(reps)]


# Runs of 1 draw nothing; powers of two such as 2**31 and 2**32 never reject,
# and 2**32 takes a whole 32-bit half; odd and even counts of live draws
# leave and use the spare 32-bit half.
_EDGE_BOUNDS = [
    [],
    [1, 1, 1],
    [5],
    [2, 3],
    [3, 1, 1, 1, 2**31, 2**32, 1, 7],
    [2**32, 1, 2**31, 2**31, 2**32, 9, 1, 1],
    [1] * 4 + [2**31] * 5 + [2**32] * 4 + [1] * 3 + [6],
]


@pytest.mark.parametrize("seed", [0, 5, 2**32 + 1, 3**90])  # 3**90: entropy beyond the pool
@pytest.mark.parametrize("bounds", _EDGE_BOUNDS)
def test_replicate_draws_equal_literal_streams(seed, bounds):
    assert list(replicate_draws(seed, 9, bounds)) == _literal_rows(seed, 9, bounds)


@pytest.mark.parametrize("per_block", [1, 3])
def test_replicate_draws_cross_block_edges(monkeypatch, per_block):
    for n in [*range(3, 13), 200]:
        for bounds in (_necklace_bounds(n, 4), _eden_bounds(n, 3)):
            n_out = (int((bounds > 1).sum()) + 1) // 2
            monkeypatch.setattr(growth, "_BLOCK_OUTPUTS", per_block * n_out)
            seed = 2**32 + 1 if n % 2 else 5
            assert list(replicate_draws(seed, 7, bounds)) == _literal_rows(seed, 7, bounds), n


def test_replicate_draws_recompute_rejected_rows(monkeypatch):
    """Bound 2**31 + 1 rejects a 32-bit draw with probability about 1/2, and
    a rejected draw takes another 32 bits, which only the literal stream
    draws: the rows equal the literal ones only if those rows are redrawn."""
    bounds = [2**31 + 1] * 3 + [2**31] * 2
    want = _literal_rows(0, 40, bounds)
    redrawn = []
    literal = RngStream.indices

    def counted(self, b):
        redrawn.append(self.stream)
        return literal(self, b)

    monkeypatch.setattr(RngStream, "indices", counted)
    assert list(replicate_draws(0, 40, bounds)) == want
    # the 40 rows are one block, whose row 0 is also drawn for the self-check
    assert len(set(redrawn) - {0}) > 20


def test_replicate_draws_check_their_block_against_numpy(monkeypatch):
    """A kernel that no longer matches numpy's stream raises on its first block."""
    monkeypatch.setattr(growth, "_PCG64_MULT", growth._PCG64_MULT ^ 4)
    with pytest.raises(RuntimeError, match="differs from numpy"):
        next(replicate_draws(3, 4, _necklace_bounds(6, 4)))


@pytest.mark.parametrize(
    "seed,reps,bounds",
    [(-1, 3, [3]), (0, 2**32 + 1, [3]), (0, 3, [3, 2**32 + 1]), (0, 3, [3, 0])],
)
def test_replicate_draws_reject_unmodelled_arguments_up_front(seed, reps, bounds):
    with pytest.raises(ValueError):
        replicate_draws(seed, reps, bounds)


# -- validate_eden_state can fail ----------------------------------------------------


def _grown_state():
    rng = RngStream(4)
    s = eden_init(4, rng)
    for _ in range(5):
        s = eden_step(s, rng)
    validate_eden_state(s)
    return s


def _swap_outer_ids(s):
    (a, ca), (b, cb) = s.outer[0], s.outer[1]
    return ((b, ca), (a, cb)) + s.outer[2:]


def _repeat_neighbor_color(s):
    (a, _), (b, cb) = s.outer[0], s.outer[1]
    return ((a, cb), (b, cb)) + s.outer[2:]


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (lambda s: {"outer": s.outer[:-1]}, "outer size"),
        (lambda s: {"gaps": s.gaps[:-1]}, "gap count"),
        (lambda s: {"tree": s.tree[:-1]}, "tree size"),
        (lambda s: {"outer": _swap_outer_ids(s)}, "does not interleave"),
        (lambda s: {"outer": _repeat_neighbor_color(s)}, "adjacent outer colors"),
        (
            lambda s: {"gaps": ((s.gaps[0][0], s.gaps[0][1], 10**6),) + s.gaps[1:]},
            "boundary",
        ),
        (
            lambda s: {"tree_edges": s.tree_edges[:-1] + ((s.tree[0], 10**6),)},
            "boundary",
        ),
    ],
)
def test_validate_eden_state_rejects_each_broken_invariant(corrupt, message):
    s = _grown_state()
    with pytest.raises(AssertionError, match=message):
        validate_eden_state(dataclasses.replace(s, **corrupt(s)))


def test_validate_eden_state_raises_under_optimize():
    code = (
        "import dataclasses\n"
        "from findep.growth import RngStream, eden_init, validate_eden_state\n"
        "s = eden_init(3, RngStream(0))\n"
        "bad = dataclasses.replace(s, gaps=s.gaps[:-1])\n"
        "try:\n"
        "    validate_eden_state(bad)\n"
        "except AssertionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = str(Path(findep.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=120)
    assert run.returncode == 0
