"""ExactDist and Kernel value types."""

from fractions import Fraction

import numpy as np
import pytest

from findep.dist import ExactDist, Kernel, state_text
from findep.words import Word

F = Fraction


def test_from_weights_normalizes_exactly():
    d = ExactDist.from_weights({"a": 1, "b": 2, "c": 3})
    assert d.prob("a") == F(1, 6)
    assert d.prob("c") == F(1, 2)
    assert sum(p for _, p in d.items()) == 1


def test_zero_mass_states_dropped():
    d = ExactDist({"a": F(1), "b": F(0)})
    assert "b" not in d
    assert len(d) == 1


def test_invalid_distributions_rejected():
    with pytest.raises(ValueError):
        ExactDist({"a": F(1, 2)})
    with pytest.raises(ValueError):
        ExactDist({"a": F(3, 2), "b": F(-1, 2)})
    with pytest.raises(ValueError):
        ExactDist.from_weights({})


def test_equality_is_structural():
    a = ExactDist({"x": F(1, 3), "y": F(2, 3)})
    b = ExactDist.from_weights({"x": 1, "y": 2})
    assert a == b
    assert a != ExactDist({"x": F(2, 3), "y": F(1, 3)})


def test_equality_holds_across_scalings():
    a = ExactDist.from_weights({"x": 1, "y": 2})
    assert a == ExactDist.from_weights({"x": 3, "y": 6})
    assert a.weights() == ({"x": 1, "y": 2}, 3)
    assert ExactDist.from_weights({"x": 3, "y": 6}).weights() == ({"x": 1, "y": 2}, 3)
    assert a != ExactDist.from_weights({"x": 3, "y": 7})
    assert a != ExactDist.from_weights({"x": 4, "y": 6})
    assert a != ExactDist.from_weights({"x": 1, "y": 2, "z": 1})


def test_from_weights_takes_integers_only():
    with pytest.raises(TypeError):
        ExactDist.from_weights({"x": F(1, 2), "y": 1})
    with pytest.raises(TypeError):
        ExactDist.from_weights({"x": 1.0, "y": 1})
    with pytest.raises(ValueError):
        ExactDist.from_weights({"x": -1, "y": 2})


def test_from_weights_holds_numpy_ints_as_python_ints():
    d = ExactDist.from_weights({"x": np.int64(2**62), "y": np.int64(1)})
    w, total = d.weights()
    assert all(type(v) is int for v in [*w.values(), total])
    assert w["x"] * w["x"] == 2**124  # an int64 product would wrap
    assert total == 2**62 + 1


def test_weights_common_denominator():
    d = ExactDist({"a": F(1, 6), "b": F(1, 2), "c": F(1, 3)})
    w, total = d.weights()
    assert total == 6
    assert w == {"a": 1, "b": 3, "c": 2}
    assert all(F(v, total) == d.prob(s) for s, v in w.items())


def test_state_text_forms():
    assert state_text(Word((1, 2, 3), 3)) == "123"
    assert state_text(Word((10, 2), 12)) == "10,2"
    assert state_text((0, 1, 1, 0)) == "0110"
    assert state_text("12*") == "12*"


def test_json_entries_sorted_and_exact():
    d = ExactDist.from_weights({Word((2, 1), 3): 1, Word((1, 2), 3): 2})
    entries = d.to_json_entries()
    assert entries == [
        {"state": "12", "num": "2", "den": "3"},
        {"state": "21", "num": "1", "den": "3"},
    ]


def test_kernel_push_preserves_mass():
    rows = {
        "a": ExactDist.from_weights({"x": 1, "y": 1}),
        "b": ExactDist.from_weights({"y": 1}),
    }
    k = Kernel(rows)
    pushed = k.push(ExactDist.from_weights({"a": 1, "b": 1}))
    assert pushed == ExactDist({"x": F(1, 4), "y": F(3, 4)})


def test_kernel_push_matches_a_literal_fraction_push():
    # a non-uniform law through rows whose totals differ (3, 5 and 1)
    law = {"a": 1, "b": 3, "c": 2}
    rows = {"a": {"x": 1, "y": 2}, "b": {"y": 1, "z": 4}, "c": {"x": 7}}
    pushed = Kernel({s: ExactDist.from_weights(r) for s, r in rows.items()}).push(
        ExactDist.from_weights(law))
    literal = {}
    for s, w in law.items():
        for t, c in rows[s].items():
            p = F(w, sum(law.values())) * F(c, sum(rows[s].values()))
            literal[t] = literal.get(t, F(0)) + p
    assert pushed == ExactDist(literal)
    assert {t: pushed.prob(t) for t in literal} == literal
    assert pushed.weights()[1] == sum(pushed.weights()[0].values())


def test_kernel_push_requires_rows():
    k = Kernel({"a": ExactDist.from_weights({"x": 1})})
    with pytest.raises(KeyError):
        k.push(ExactDist.from_weights({"a": 1, "missing": 1}))


def test_kernel_equality():
    k1 = Kernel({"a": ExactDist.from_weights({"x": 1})})
    k2 = Kernel({"a": ExactDist.from_weights({"x": 2})})
    assert k1 == k2
    assert k1 != Kernel({"b": ExactDist.from_weights({"x": 1})})
