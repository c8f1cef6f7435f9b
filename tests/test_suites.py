"""Verification suite reports: shapes, pass/fail semantics."""

import json
from collections import Counter
from fractions import Fraction
from itertools import islice, permutations, product

import numpy as np
import pytest

from findep import analysis, chains, cli, growth, recurrence, suites
from findep.analysis import k_dependence_counterexample, marginalize, pushforward, symmetry_check
from findep.chains import color_indicator
from findep.dist import ExactDist
from findep.errors import BudgetExceeded
from findep.growth import coupling_kernel
from findep.recurrence import cycle_law, line_window_law
from findep.suites import SIZES, run_all, run_suite, shift_suite
from findep.words import Word, encode_digits
from test_analysis import _literal_pairs


def test_report_shape():
    rep = run_suite("partition", max_n=4)
    assert rep["suite"] == "partition"
    assert rep["passed"] is True
    assert rep["counterexample"] is None
    assert all({"passed"} <= set(c) for c in rep["cases"])


@pytest.mark.parametrize(
    "name,kwargs",
    [
        ("partition", {"max_n": 5}),
        ("mobius", {"max_n": 5}),
        ("shift", {"max_n": 5}),
        ("symmetry", {"max_n": 5}),
        ("window", {"max_n": 6}),
        ("kdep", {"max_n": 6}),
        ("coupling", {"max_n": 4}),
        ("marginals", {"max_n": 5}),
        ("kernels", {"max_n": 5}),
        ("blockfactor-stat", {}),
    ],
)
def test_suites_pass(name, kwargs):
    assert run_suite(name, **kwargs)["passed"], name


def test_restriction_suite_reports_both_normalizations():
    rep = run_suite("restriction", max_n=4)
    assert rep["passed"] is False  # the (1,4) partition-sum case is known false
    by_key = {(c["k"], c["q"], c["mode"]): c for c in rep["cases"]}
    assert by_key[(2, 3, "partition-sum")]["passed"]
    assert by_key[(2, 3, "window-consistent")]["passed"]
    assert by_key[(1, 4, "window-consistent")]["passed"]
    failing = by_key[(1, 4, "partition-sum")]
    assert not failing["passed"]
    assert failing["counterexample"]["word"] == "1"
    assert rep["counterexample"] is not None


def test_run_all_smoke():
    rep = run_all(max_n=5)
    assert rep["suite"] == "all"
    names = {sub["suite"] for sub in rep["reports"]}
    assert "partition" in names and "kernels" in names
    # everything passes except the known-false restriction normalization
    failing = [sub["suite"] for sub in rep["reports"] if not sub["passed"]]
    assert failing == ["restriction"]
    assert rep["passed"] is False


def test_run_suite_matches_run_all_at_same_size():
    subs = {sub["suite"]: sub for sub in run_all(max_n=5)["reports"]}
    for name in SIZES:
        assert run_suite(name, max_n=5) == subs[name], name


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope")


def _rotation_class_bump(c):
    """c plus 1 on the rotations of 123, which breaks reflection (and color
    permutation) but not rotation."""
    c = c.copy()
    for t in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[t] += 1
    return c


def _bump(word):
    def patch(c):
        c = c.copy()
        c[tuple(s - 1 for s in word)] += 1
        return c
    return patch


@pytest.mark.parametrize(
    "patch,word,op",
    [
        # 123 is the smallest word of its orbit and its rotations keep their value
        (_bump((1, 2, 3)), "123", "rotation"),
        (_rotation_class_bump, "123", "reflection"),
        # 111 is fixed by rotation and reflection; relabeling moves it to 222
        (_bump((1, 1, 1)), "111", "color-permutation"),
    ],
)
def test_shift_suite_fails_on_broken_dense_level(monkeypatch, patch, word, op):
    orig = recurrence.cycle_counts

    def broken(n, q):
        c = orig(n, q)
        return patch(c) if (n, q) == (3, 3) else c

    monkeypatch.setattr(recurrence, "cycle_counts", broken)
    rep = shift_suite(max_n=4)
    failing = [(c["n"], c["q"]) for c in rep["cases"] if not c["passed"]]
    assert failing == [(3, 3)]
    assert rep["counterexample"] == {"word": word, "op": op}


def test_cycle_counts_is_a_read_only_view_of_b_circ():
    for n, q in ((4, 3), (5, 4)):
        for view, count in ((recurrence.cycle_counts(n, q), recurrence.b_circ),
                            (recurrence.line_counts(n, q), recurrence.b_vec)):
            assert view.shape == (q,) * n and not view.flags.writeable
            for idx in np.ndindex(view.shape):
                assert view[idx] == count(tuple(i + 1 for i in idx), q), (n, q, idx)


# -- whole-level coupling, restriction and symmetry vs their literal forms ----


@pytest.mark.parametrize("n,q", [(n, q) for n in (3, 4, 5) for q in (3, 4)])
def test_transport_counts_match_kernel_push(n, q):
    pushed = suites._necklace_step(n, q)[0].reshape((q,) * (n + 1))
    law = coupling_kernel(n, q).push(cycle_law(n, q))
    total = int(pushed.sum())
    assert total == recurrence.z_circ(n, q) * n * (q - 2) * (n + 1)
    for idx in np.ndindex(pushed.shape):
        word = Word(tuple(i + 1 for i in idx), q)
        assert Fraction(int(pushed[idx]), total) == law.prob(word), word


def _patched(monkeypatch, name, at, patch):
    """Replace recurrence.<name>(n, q, ...) by patch(result) at (n, q) == at."""
    orig = getattr(recurrence, name)

    def broken(n, q, *args, **kwargs):
        out = orig(n, q, *args, **kwargs)
        return patch(out) if (n, q) == at else out

    monkeypatch.setattr(recurrence, name, broken)


def test_coupling_transport_fails_on_broken_child_level(monkeypatch):
    # 1213 carries a positive count, so the Eden half still walks the same words
    _patched(monkeypatch, "cycle_counts", (4, 3), _bump((1, 2, 1, 3)))
    rep = suites.coupling_suite(max_n=3)
    by_case = {(c["n"], c["q"]): c for c in rep["cases"]}
    assert by_case[(3, 3)]["transport"] is False
    assert by_case[(3, 3)]["eden_step_law"] is True
    assert by_case[(3, 4)]["passed"] is True
    assert rep["counterexample"] == {"n": 3, "q": 3}


def test_coupling_eden_half_fails_on_off_by_one_gap(monkeypatch):
    insert = growth._insert_columns

    def one_slot_right(words, m, p, ci):
        insert(words, m, p, ci)
        rows, right = np.arange(len(words)), np.minimum(p + 1, m)
        words[rows, p], words[rows, right] = words[rows, right], words[rows, p]

    monkeypatch.setattr(growth, "_insert_columns", one_slot_right)
    rep = suites.coupling_suite(max_n=3)
    assert rep["passed"] is False
    assert all(c["transport"] and not c["eden_step_law"] for c in rep["cases"])


def test_coupling_fails_on_both_halves_without_the_last_gap(monkeypatch):
    """The necklace step that both halves share loses the insertions at
    its last gap: the transported mass falls short of z n (q-2) (n+1), and
    the Eden keys no longer match the necklace keys."""
    necklace_codes = growth._necklace_codes

    def without_last_gap(states, q):
        rows, codes = necklace_codes(states, q)
        n = states.shape[1]
        gap = np.arange(len(rows)) // (q - 2) % n  # q-2 colors at each gap of a proper state
        return rows[gap < n - 1], codes[gap < n - 1]

    monkeypatch.setattr(growth, "_necklace_codes", without_last_gap)
    rep = suites.coupling_suite(max_n=4)
    assert len(rep["cases"]) == 4
    assert all(not c["transport"] and not c["eden_step_law"] for c in rep["cases"])


def test_transport_counts_refuse_a_push_past_int64(monkeypatch):
    """The pushed total z n (q-2) (n+1) must stay below 2**63: a level whose
    z reaches past that raises before any insertion is computed."""
    n, q = 3, 4
    steps = n * (q - 2) * (n + 1)
    law_cells = growth._law_cells

    def with_z(z):
        monkeypatch.setattr(growth, "_law_cells", lambda *a, **kw: (*law_cells(*a, **kw)[:2], z))

    with_z((2**63 - 1) // steps)
    assert suites._necklace_step(n, q)[0].sum() == recurrence.z_circ(n, q) * steps
    with_z((2**63 - 1) // steps + 1)

    def boom(*args):
        raise AssertionError("an insertion was computed")

    monkeypatch.setattr(growth, "_necklace_codes", boom)
    with pytest.raises(OverflowError):
        suites._necklace_step(n, q)


def test_transport_holds_where_unreduced_factors_overflow():
    # z[11] * pushed and level[11] * z[10] * 10 * 2 * 11 both exceed 2**63 here
    assert suites._coupling_case(10, 4)["transport"]


def test_coupling_case_walks_each_block_once(monkeypatch):
    """At (7, 4) level 7 has 9 blocks: one case computes each block's
    necklace insertions once, and sorts keys twice per block (the
    necklace keys, then the Eden keys), for both halves."""
    n, q = 7, 4
    recurrence.cycle_counts(n + 1, q)  # build the levels first
    calls = Counter()

    def count_calls(name):
        orig = getattr(growth, name)

        def counted(*args):
            calls[name] += 1
            return orig(*args)

        monkeypatch.setattr(growth, name, counted)

    count_calls("_necklace_codes")
    count_calls("_block_keys")
    assert suites._coupling_case(n, q)["passed"]
    assert calls == {"_necklace_codes": 9, "_block_keys": 18}


def test_coupling_case_reports_a_late_block_eden_fault_and_keeps_the_transport(monkeypatch):
    """Only the states with first color 4, past block 6 of level (7, 4),
    get a broken step (the stacked vertex always goes into the first gap):
    the Eden check fails there, while the transport still adds the counts
    of every block."""
    n, q = 7, 4
    insert = growth._insert_columns

    def broken(words, m, p, ci):
        insert(words, m, np.where(words[:, 0] == q, 1, p), ci)

    monkeypatch.setattr(growth, "_insert_columns", broken)
    case = suites._coupling_case(n, q)
    assert case["eden_step_law"] is False and case["transport"] is True
    assert case["counterexample"] == {"n": n, "q": q}
    pushed, eden_ok = suites._necklace_step(n, q)
    assert not eden_ok
    assert pushed.sum() == recurrence.z_circ(n, q) * n * (q - 2) * (n + 1)


def test_scaled_equal_reduces_by_gcd_and_guards_int64():
    """The suites' cross-multiplication, ``analysis._cross_equal``, decides
    products past 2**63 exactly instead of overflowing."""
    big = 3 * 2**40
    x = np.array([2**40, 5], dtype=np.int64)
    assert analysis._cross_equal(x, big, x, big).all()
    assert not analysis._cross_equal(np.array([2**62]), 3, np.array([1]), 5).any()
    assert analysis._cross_equal(np.array([5 * 2**60]), 3, np.array([3 * 2**60]), 5).all()


def _literal_restriction(max_n):
    """The restriction suite on every word through restriction_sum and b_vec."""
    cases = []
    for (k, q) in ((1, 4), (2, 3)):
        z = recurrence.z_circ(k, q)
        window_const = Fraction(q * (q - 1), q - 2) if k == 1 else Fraction(z)
        for mode, const in (("partition-sum", Fraction(z)), ("window-consistent", window_const)):
            bad = None
            checked = 0
            for n in range(1 if mode == "window-consistent" else 0, max_n + 1):
                for t in product(range(1, q + 1), repeat=n):
                    lhs = Fraction(recurrence.restriction_sum(t, k, q))
                    rhs = const * recurrence.b_vec(t, q)
                    checked += 1
                    if lhs != rhs and bad is None:
                        bad = {"word": Word(t, q).text(), "k": k, "q": q,
                               "lhs": str(lhs), "rhs": str(rhs)}
                if bad:
                    break
            cases.append({"k": k, "q": q, "mode": mode, "constant": str(const),
                          "words_checked": checked, "passed": bad is None,
                          "counterexample": bad})
    return cases


@pytest.mark.parametrize("max_n", [1, 2, 3, 4, 5])
def test_restriction_matches_per_word_oracle(max_n):
    assert suites.restriction_suite(max_n)["cases"] == _literal_restriction(max_n)


def test_restriction_fails_on_broken_line_level(monkeypatch):
    _patched(monkeypatch, "line_counts", (3, 3), _bump((1, 2, 1)))
    rep = suites.restriction_suite(max_n=4)
    by_key = {(c["k"], c["q"], c["mode"]): c for c in rep["cases"]}
    lhs = recurrence.restriction_sum((1, 2, 1), 2, 3)
    vec = recurrence.b_vec((1, 2, 1), 3) + 1
    for mode, n_lo in (("partition-sum", 0), ("window-consistent", 1)):
        case = by_key[(2, 3, mode)]
        assert case["words_checked"] == sum(3**n for n in range(n_lo, 4))
        assert case["counterexample"] == {
            "word": "121", "k": 2, "q": 3, "lhs": str(lhs), "rhs": str(12 * vec)
        }
    assert by_key[(1, 4, "window-consistent")]["passed"]


def test_restriction_partition_sum_finding_at_word_1():
    case = suites.restriction_suite(max_n=3)["cases"][0]
    assert (case["k"], case["q"], case["mode"]) == (1, 4, "partition-sum")
    assert case["words_checked"] == 1 + 4
    assert case["counterexample"] == {"word": "1", "k": 1, "q": 4, "lhs": "6", "rhs": "4"}


def _literal_mobius(max_n):
    """The mobius suite word by word through b_circ_mobius and b_circ."""
    cases = []
    for q in (3, 4):
        for n in range(1, max_n + 1):
            bad = None
            for t in product(range(1, q + 1), repeat=n):
                if recurrence.b_circ_mobius(t, q) != recurrence.b_circ(t, q):
                    bad = {"word": Word(t, q).text(), "q": q}
                    break
            cases.append({"n": n, "q": q, "passed": bad is None, "counterexample": bad})
    return cases


@pytest.mark.parametrize("max_n", [1, 2, 3, 4, 5, 6])
def test_mobius_matches_per_word_oracle(max_n):
    assert suites.mobius_suite(max_n)["cases"] == _literal_mobius(max_n)


@pytest.mark.parametrize("word", [(1, 2, 1, 3), (1, 1, 1, 2)])
def test_mobius_fails_on_broken_level_at_that_word(monkeypatch, word):
    # 1213 carries a positive count, 1112 a zero one
    _patched(monkeypatch, "cycle_counts", (4, 3), _bump(word))
    rep = suites.mobius_suite(max_n=4)
    failing = [(c["n"], c["q"]) for c in rep["cases"] if not c["passed"]]
    assert failing == [(4, 3)]
    assert rep["counterexample"] == {"word": "".join(map(str, word)), "q": 3}


def _closure(generators):
    """Every permutation that compositions of the generators reach."""
    gens = [tuple(int(i) for i in g) for g in generators]
    group = {tuple(range(len(gens[0])))}
    frontier = list(group)
    while frontier:
        reached = {tuple(p[i] for i in g) for p in frontier for g in gens}
        frontier = list(reached - group)
        group |= reached
    return group


@pytest.mark.parametrize("q", [3, 4, 5, 6])
def test_symmetry_generators_generate_their_whole_groups(q):
    assert _closure(suites._color_generators(q)) == set(permutations(range(q)))
    for n in range(3, 9):
        sites = _closure(suites._site_generators(n).values())
        rotations = {tuple(np.roll(range(n), r).tolist()) for r in range(n)}
        assert sites == rotations | {r[::-1] for r in rotations}, n
        assert len(sites) == 2 * n


def test_symmetry_fails_flags_a_tensor_invariant_under_a_proper_subgroup_of_s4():
    # The colors {1, 2} and {3, 4} form blocks: c[i, j] is 1 within a block
    # and 2 across. (1 2) and (1 3)(2 4) keep the blocks, and generate a
    # group of order 8; (2 3) breaks them, so c is not invariant under S_4.
    block = np.array([0, 0, 1, 1])
    c = np.where(block[:, None] == block, 1, 2) - np.eye(4, dtype=int)
    for p in ([1, 0, 2, 3], [2, 3, 0, 1]):
        assert np.array_equal(c[np.ix_(p, p)], c)
    assert len(_closure([[1, 0, 2, 3], [2, 3, 0, 1]])) == 8
    p = [0, 2, 1, 3]
    assert not np.array_equal(c[np.ix_(p, p)], c)
    assert _flags(c) == {"rotation": True, "reflection": True, "color-permutation": False}


def _flags(c):
    return {op: not f.any() for op, f in suites._symmetry_fails(c).items()}


def _subgroup_invariant(c):
    """Tensors on the support of the level c, each invariant under a
    subgroup only, keyed by the operation whose group they break: the color
    cycle (1 2 ... q) but not (1 2), (1 2) but not the color cycle, and for
    even n rotation by 2 but not by 1."""
    x, q = np.indices(c.shape), c.shape[0]
    out = {"color-permutation": [(x[0] - x[1]) % q == 1, x[0] < 2]}
    if c.ndim % 2 == 0:
        out["rotation"] = [x[::2].sum(0)]
    return {op: [(1 + t) * (c > 0) for t in ts] for op, ts in out.items()}


@pytest.mark.parametrize("n,q", [(n, q) for n in (3, 4, 5, 6) for q in (3, 4)])
def test_symmetry_tensor_matches_symmetry_check(n, q):
    c = recurrence.cycle_counts(n, q)
    # a perturbed law that breaks some symmetries, the true law, and tensors
    # invariant under a subgroup only, which a check on too few generators
    # would pass
    inputs = [(None, c + np.arange(c.size).reshape(c.shape) % 3 * (c > 0)), (None, c)]
    inputs += [(op, t) for op, ts in _subgroup_invariant(c).items() for t in ts]
    for broken, weights in inputs:
        law = ExactDist.from_weights({
            Word(tuple(i + 1 for i in idx), q): int(weights[tuple(idx)])
            for idx in np.argwhere(weights).tolist()
        })
        oracle = {
            "rotation": all(symmetry_check(law, "rotation", r=r) for r in range(1, n)),
            "reflection": symmetry_check(law, "reflection"),
            "color-permutation": all(
                symmetry_check(law, "color-permutation", sigma=p)
                for p in permutations(range(1, q + 1))
            ),
        }
        assert _flags(weights) == oracle
        assert broken is None or not oracle[broken]


def _orbit_rows(word, q):
    """The words reached from word by rotations and color permutations."""
    n = len(word)
    return {tuple(p[s - 1] for s in word[r:] + word[:r])
            for r in range(n) for p in permutations(range(1, q + 1))}


def _add_rows(extra):
    def patch(law):
        rows, counts, z = law
        new = np.array(sorted(extra), dtype=rows.dtype) - 1
        return np.vstack([rows, new]), np.concatenate([counts, np.ones(len(new), counts.dtype)]), z
    return patch


def _add_counts(f):
    """Add f(word) to each count, f taking the word's 1-based colors."""
    def patch(law):
        rows, counts, z = law
        return rows, counts + np.array([int(f(r + 1)) for r in rows], dtype=counts.dtype), z
    return patch


@pytest.mark.parametrize(
    "patch,off",
    [
        # positions 1 and 4 are swapped by the reflection, not by a rotation
        (_add_counts(lambda r: r[1] == r[4]), "rotation"),
        # 111223 is chiral: no rotation or relabeling of it is its reverse
        (_add_rows(_orbit_rows((1, 1, 1, 2, 2, 3), 3)), "reflection"),
        (_add_counts(lambda r: (r == 1).sum()), "color_permutation"),
    ],
)
def test_symmetry_suite_fails_on_broken_law_rows(monkeypatch, patch, off):
    _patched(monkeypatch, "_law_cells", (6, 3), patch)
    rep = suites.symmetry_suite(max_n=6)
    failing = [c for c in rep["cases"] if not c["passed"]]
    assert [(c["n"], c["q"]) for c in failing] == [(6, 3)]
    flags = {op: failing[0][op] for op in ("rotation", "reflection", "color_permutation")}
    assert flags == {op: op != off for op in flags}


def test_check_levels_admits_the_largest_levels():
    suites._check_levels([(11, 4), (14, 3)])
    with pytest.raises(BudgetExceeded):
        suites._check_levels([(12, 4)])


# -- window, kdep, marginals and kernels on dense levels vs their ExactDist forms --


@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize("n", range(1, 8))
def test_binary_law_matches_pushforward(n, q):
    for marked in ({1}, {1, 2}):
        ind = color_indicator(marked)
        cyc = suites._binary_counts(recurrence.cycle_counts(n, q), marked)
        assert cyc.shape == (2**n,) and cyc.dtype == np.int64
        assert chains._vector_law(cyc) == pushforward(cycle_law(n, q), ind), marked
        line = suites._binary_counts(recurrence.line_counts(n, q), marked)
        assert chains._vector_law(line) == pushforward(line_window_law(n, 1, q), ind), marked


def _equal_laws(a, b):
    """The comparison that ``marginals`` and ``kernels`` make of two count
    vectors; entry i counts state i."""
    return suites._same_law(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))


def _walk_vector(law, n):
    """A chain law's count map over n-bit tuples as its vector over their
    binary codes, first bit most significant."""
    vector = np.zeros(2**n, dtype=np.int64)
    for t, c in law.items():
        vector[int("".join(map(str, t)), 2)] = c
    return vector


def test_same_law_compares_normalized_counts():
    assert _equal_laws([1, 3], [2, 6])
    assert not _equal_laws([1, 3], [1, 2])
    assert not _equal_laws([1, 3, 0], [1, 3, 1])


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_same_law_fails_on_a_variant_mismatch(n):
    """Variant (i)'s chain law against the level that variant (ii) reads
    (q = 3, color 1 marked), and against its own level."""
    v1 = chains.ChainVariant.COLORS_ONE_TWO_Q4
    law = _walk_vector(next(islice(chains._kernel_walk(v1), n - 3, None))[0], n)
    assert not _equal_laws(law, suites._binary_counts(recurrence.cycle_counts(n, 3), {1}))
    assert _equal_laws(law, suites._binary_counts(recurrence.cycle_counts(n, 4), {1, 2}))


@pytest.mark.parametrize("k,q", [(1, 3), (1, 4), (2, 3), (2, 4)])
def test_window_consistent_matches_marginalize(k, q):
    verdicts = []
    for m in range(k + 1, 8):
        oracle = marginalize(cycle_law(m, q), range(1, m - k + 1)) == line_window_law(m - k, k, q)
        verdicts.append(suites._window_consistent(m, k, q))
        assert verdicts[-1] == oracle, m
    if (k, q) == (1, 3):
        assert not all(verdicts)  # the pair is not theorem-grade: both answers occur


def _level_cells(n, q, cyclic=True):
    """The nonzero cells (rows, counts, total, a) of the count level at
    (n, q): the law's 0-based rows and counts."""
    return (*recurrence._law_cells(n, q, recurrence.DEFAULT_BUDGET, cyclic=cyclic), q)


def _level_pair(n, q, k):
    return analysis._dependent_pair(_level_cells(n, q), k)


@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_dependent_pair_on_level_matches_counterexample(n, q):
    for k in (0, 1, 2):
        assert _level_pair(n, q, k) == k_dependence_counterexample(cycle_law(n, q), k), k


def _literal_first_dependent(cells, k):
    """The first dependent admissible pair in canonical order, each pair
    checked on its own."""
    for s1, s2, _ in _literal_pairs(cells[0].shape[1], k):
        if not analysis._independent(cells, s1, s2):
            return tuple(c + 1 for c in s1), tuple(c + 1 for c in s2)
    return None


def test_dependent_pair_matches_a_literal_walk():
    verdicts = set()
    for q, cyclic in product((3, 4, 5, 6), (True, False)):
        for n in (n for n in range(2, 10) if q**n <= 5_000_000):
            cells = _level_cells(n, q, cyclic)
            for k in range(n // 2):  # n >= 2k + 2: some pair is at distance > k
                got = analysis._dependent_pair(cells, k)
                assert got == _literal_first_dependent(cells, k), (cyclic, n, q, k)
                verdicts.add(got is None)
    assert verdicts == {True, False}


def test_dependent_pair_negative_control():
    assert _level_pair(5, 3, 1) == ((3,), (5,))
    assert k_dependence_counterexample(cycle_law(5, 3), 1) == ((3,), (5,))


@pytest.mark.parametrize(
    "name,at,word,failing",
    [
        ("cycle_counts", (6, 3), (1, 2, 1, 2, 1, 3), (6, 2, 3)),
        ("line_counts", (3, 3), (1, 2, 1), (5, 2, 3)),
        ("line_counts", (4, 4), (1, 2, 1, 3), (5, 1, 4)),
    ],
)
def test_window_fails_on_broken_level(monkeypatch, name, at, word, failing):
    _patched(monkeypatch, name, at, _bump(word))
    rep = suites.window_suite(max_n=6)
    assert [(c["m"], c["k"], c["q"]) for c in rep["cases"] if not c["passed"]] == [failing]
    assert rep["counterexample"] == dict(zip("mkq", failing))


def test_marginals_fail_on_broken_levels(monkeypatch):
    _patched(monkeypatch, "cycle_counts", (4, 4), _bump((1, 2, 1, 3)))
    _patched(monkeypatch, "cycle_counts", (5, 4), _bump((1, 2, 1, 2, 3)))
    _patched(monkeypatch, "line_counts", (2, 3), _bump((1, 2)))
    rep = suites.marginals_suite(max_n=4)
    failing = [(c["law"], c.get("n")) for c in rep["cases"] if not c["passed"]]
    assert failing == [
        ("cyclic-descent", 4),
        ("cyclic-bit-descent", 4),
        ("one-site-marginal", None),
        ("line-peak", 2),
    ]
    assert rep["counterexample"] == {"n": 4}


def test_kernels_chain_vs_pushforward_fails_on_broken_level(monkeypatch):
    _patched(monkeypatch, "cycle_counts", (4, 3), _bump((1, 2, 1, 3)))
    rep = suites.kernels_suite(max_n=4)
    failing = [(c["variant"], c["n"], c["check"]) for c in rep["cases"] if not c["passed"]]
    assert failing == [("color-1-of-3", 4, "chain-vs-pushforward")]


def test_every_independent_kdep_case_checks_a_maximal_pair():
    """A case whose cycle has no pair at distance > k would pass having
    checked nothing."""
    cases = [c for c in suites.kdep_suite(10)["cases"] if c["expected"] == "independent"]
    for c in cases:
        assert analysis._pair_table(c["n"], c["k"])[2].any(), c


def test_kdep_fails_on_broken_level(monkeypatch):
    word = (1, 2, 1, 2, 1, 3)
    code = int(encode_digits(np.array([word]) - 1, 4)[0])

    def bump(law):  # one more count on the word's row, and on the total
        rows, counts, z = law
        return rows, counts + (encode_digits(rows, 4) == code), z + 1

    _patched(monkeypatch, "_law_cells", (6, 4), bump)
    rep = suites.kdep_suite(max_n=6)
    failing = [(c["n"], c["q"], c["k"]) for c in rep["cases"] if not c["passed"]]
    assert failing == [(6, 4, 1)]
    rows, counts, _ = recurrence._law_cells(6, 4, recurrence.DEFAULT_BUDGET, cyclic=True)
    bumped = dict(zip(map(tuple, (rows + 1).tolist()), counts.tolist()))
    assert bumped[word] == recurrence.b_circ(word, 4) + 1
    law = ExactDist.from_weights({Word(w, 4): c for w, c in bumped.items()})
    s1, s2 = k_dependence_counterexample(law, 1)
    assert rep["counterexample"] == {"s1": s1, "s2": s2}


@pytest.mark.parametrize("name", ["kernels", "marginals"])
def test_kernels_and_marginals_build_no_exactdist(monkeypatch, name):
    def boom(*args, **kwargs):
        raise AssertionError("an ExactDist was built")

    monkeypatch.setattr(ExactDist, "from_weights", boom)
    monkeypatch.setattr(ExactDist, "__init__", boom)
    assert run_suite(name)["passed"]


def test_verify_builds_no_exactdist(monkeypatch):
    """No suite of ``verify all`` builds an ``ExactDist``, by either
    constructor, and none reads a cached one: the report is unchanged."""
    expected = run_all(6)

    def boom(*args, **kwargs):
        raise AssertionError("an ExactDist was built")

    monkeypatch.setattr(ExactDist, "from_weights", boom)
    monkeypatch.setattr(ExactDist, "__init__", boom)
    assert run_all(6) == expected


def test_kernels_suite_never_recomputes_a_closure(monkeypatch):
    """One walk per variant, and never the library's default domains,
    which walk again from length 3."""
    walks = []
    walk = chains._kernel_walk

    def counted(variant):
        walks.append(variant)
        return walk(variant)

    def boom(*args, **kwargs):
        raise AssertionError("a reachable closure was recomputed")

    monkeypatch.setattr(chains, "_kernel_walk", counted)
    monkeypatch.setattr(chains, "_walk_at", boom)
    assert suites.kernels_suite(max_n=6)["passed"]
    assert walks == list(chains.ChainVariant)


def test_kernels_fails_where_the_q_step_is_broken(monkeypatch):
    """From length 5, variant (ii)'s broken Q step also reaches the all-zero
    state: the Q rows differ at n = 5, and at n = 6 the Q domain has that
    extra state, which the J chain never reaches."""
    q_row = chains._q_row

    def reaching_zero(variant, t):
        row = q_row(variant, t)
        if variant is chains.ChainVariant.COLOR_ONE_Q3 and len(t) == 5:
            row[max(row, key=row.get)] -= 1  # keeps the row's total
            row[(0,) * 6] += 1
        return row

    monkeypatch.setattr(chains, "_q_row", reaching_zero)
    rep = suites.kernels_suite(max_n=7)
    failing = [(c["variant"], c["n"], c["check"]) for c in rep["cases"] if not c["passed"]]
    assert failing == [("color-1-of-3", 5, "kernel-equal"), ("color-1-of-3", 6, "kernel-equal")]
    assert rep["counterexample"] == {"variant": "color-1-of-3", "n": 5}


def test_kernels_raises_on_chain_counts_past_int64(monkeypatch):
    """Each count fits int64 but their sum does not: refused before the
    vector is summed, where it would wrap."""
    walk = chains._kernel_walk

    def huge(variant):
        for law, j_rows, q_rows in walk(variant):
            yield {t: 2**62 for t in law}, j_rows, q_rows

    monkeypatch.setattr(chains, "_kernel_walk", huge)
    with pytest.raises(OverflowError, match="chain counts at n = 3 pass int64"):
        suites.kernels_suite(max_n=3)


def test_kernels_raises_on_a_q_row_of_the_wrong_total(monkeypatch):
    q_row = chains._q_row

    def one_more(variant, t):
        row = q_row(variant, t)
        if variant is chains.ChainVariant.COLOR_ONE_Q3 and len(t) == 5:
            row[(0,) * 6] += 1
        return row

    monkeypatch.setattr(chains, "_q_row", one_more)
    with pytest.raises(ValueError, match="counts 31 outcomes, not 30"):
        suites.kernels_suite(max_n=7)


def test_blockfactor_fails_on_broken_pair_counts(monkeypatch, capsys):
    """One more (3, 4) pair moves the two-site statistic off 1/6."""
    orig = chains.line_counts

    def broken(n, q):
        c = orig(n, q)
        return _bump((3, 4))(c) if (n, q) == (2, 4) else c

    monkeypatch.setattr(chains, "line_counts", broken)
    (case,) = run_suite("blockfactor-stat")["cases"]
    assert not case["passed"] and case["two_site"] != "1/6"
    assert cli.main(["verify", "blockfactor-stat"]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False
