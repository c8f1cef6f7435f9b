"""Verification suite reports: shapes, pass/fail semantics."""

import numpy as np
import pytest

from findep import recurrence
from findep.suites import SIZES, run_all, run_suite, shift_suite


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
    c = recurrence.cycle_counts(4, 3)
    assert c.shape == (3, 3, 3, 3) and not c.flags.writeable
    for idx in np.ndindex(c.shape):
        assert c[idx] == recurrence.b_circ(tuple(i + 1 for i in idx), 3)
