"""Distribution operations, dependence checking, chi-square GoF."""

from fractions import Fraction

import pytest

from findep.analysis import (
    _admissible_pairs,
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
from findep.recurrence import cycle_law, line_window_law
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


def _oracle_independent(d, s1, s2):
    """Literal check: P(A=a, B=b) == P(A=a) P(B=b) for every a, b in the
    marginal supports, with Fraction masses summed state by state."""
    def law(coords):
        acc = {}
        for state, p in d.items():
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
    for s1, s2 in _admissible_pairs(n, k):
        yield tuple(c + 1 for c in s1), tuple(c + 1 for c in s2)


@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_are_independent_matches_fraction_oracle(n, q):
    d = cycle_law(n, q)
    verdicts = []
    for k in (1, 2):
        for s1, s2 in _admissible_1based(n, k):
            verdict = are_independent(d, s1, s2)
            assert verdict == _oracle_independent(d, s1, s2), (k, s1, s2)
            verdicts.append(verdict)
    if q == 3 and n >= 5:
        assert not all(verdicts)  # q = 3 is not 1-dependent, so both answers occur


def test_are_independent_matches_fraction_oracle_on_tuple_states():
    d = pushforward(cycle_law(6, 4), color_indicator({1}))
    pairs = list(_admissible_1based(6, 1))
    assert pairs
    for s1, s2 in pairs:
        assert are_independent(d, s1, s2) == _oracle_independent(d, s1, s2), (s1, s2)


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
    # each) pool into the next cell so every cell has expectation >= 5
    d = ExactDist.from_weights({"a": 1, "b": 1, "c": 98})
    counts = {"a": 1, "b": 1, "c": 98}
    report = chi_square_gof(counts, d)
    assert report.n_cells == 1  # everything pooled; degenerate but passing
    assert report.passed
    d2 = ExactDist.from_weights({"a": 10, "b": 10, "c": 80})
    report2 = chi_square_gof({"a": 12, "b": 9, "c": 79}, d2)
    assert report2.n_cells == 3
    assert report2.dof == 2
    assert report2.passed


@pytest.mark.parametrize("weights", [{"a": 1, "b": 1, "c": 98}, {"a": 1, "b": 1},
                                     {"a": 10, "b": 10, "c": 80}, {"a": 3, "b": 5, "c": 7}])
def test_min_gof_samples_is_where_pooling_first_gives_two_cells(weights):
    d = ExactDist.from_weights(weights)
    need = min_gof_samples(d)
    cells = [chi_square_gof({"a": n}, d).n_cells for n in range(1, need + 20)]
    assert cells[: need - 1] == [1] * (need - 1)
    assert min(cells[need - 1 :]) >= 2


def test_min_gof_samples_of_small_laws():
    assert min_gof_samples(cycle_law(3, 3)) == 10  # six states of 1/6
    assert min_gof_samples(ExactDist.from_weights({"a": 1, "b": 1})) == 10
    with pytest.raises(ValueError):
        min_gof_samples(ExactDist.point_mass("a"))
