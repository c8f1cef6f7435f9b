"""Verification suite reports: shapes, pass/fail semantics."""

import pytest

from findep.suites import SIZES, run_all, run_suite


def test_report_shape():
    rep = run_suite("partition", max_n=4, qs=(3,))
    assert rep["suite"] == "partition"
    assert rep["passed"] is True
    assert rep["counterexample"] is None
    assert all({"passed"} <= set(c) for c in rep["cases"])


@pytest.mark.parametrize(
    "name,kwargs",
    [
        ("partition", {"max_n": 5, "qs": (3, 4)}),
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
