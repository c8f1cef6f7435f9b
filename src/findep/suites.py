"""Named exact-verification suites behind the ``verify`` CLI command.

Each suite returns a JSON-ready report::

    {"suite": name, "passed": bool, "cases": [...], "counterexample": ...}

with one entry per checked case and the first failing case (if any)
surfaced as a minimal counterexample. All checks are exact. The sized
suites read the cycle and line laws as dense count levels
(``recurrence.cycle_counts`` and ``line_counts``) or, ``symmetry``,
``kdep`` and ``coupling``'s level n, as their nonzero cells from one pass
over that level (``recurrence._law_cells``), never as ``ExactDist``.
Counts that agree up to a constant factor are compared with
``analysis._cross_equal``, exact in int64; ``_same_law`` compares two
laws' counts, such as the binary marginals' over their 2^n codes.

Every suite but ``blockfactor-stat`` is sized by one ``max_n``, a bound on
word length; ``SIZES`` gives its default and smallest value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from . import analysis, chains, growth, recurrence
from .analysis import _cross_equal
from .chains import ChainVariant
# cycle_law is no longer called here, but perfbench's self-test checks that
# its tracer rebinds it at this lookup site, so the name stays.
from .recurrence import cycle_law  # noqa: F401
from .words import decode_codes, encode_digits, row_texts

__all__ = ["SIZES", "SUITES", "kdep_report", "run_all", "run_suite"]


def _report(suite: str, cases: list[dict]) -> dict:
    failing = [c for c in cases if not c["passed"]]
    return {
        "suite": suite,
        "passed": not failing,
        "cases": cases,
        "counterexample": failing[0].get("counterexample") if failing else None,
    }


def _case(ok: bool, bad: Optional[dict], **fields) -> dict:
    """A case: its fields, whether it passed, and bad as its counterexample
    if it failed."""
    return {**fields, "passed": ok, "counterexample": None if ok else bad}


def _check_levels(levels: Iterable[tuple[int, int]]) -> None:
    """Raise ``BudgetExceeded`` before any work if a suite would read a
    dense level (n, q) past the bounds of ``recurrence.cycle_counts``."""
    for n, q in levels:
        recurrence._check_law_request(n, q, recurrence.DEFAULT_BUDGET)


def _word_at(code: int, n: int, q: int) -> str:
    """Text of the length-n word with base-q code ``code``."""
    return row_texts(decode_codes(np.array([code]), n, q) + 1, q)[0]


def partition_suite(max_n: int) -> dict:
    """z_circ(n, q) == n! q (q-1) (q-2)^(n-2) for n in [2, max_n]."""
    for q in (3, 4, 5, 6):
        recurrence._check_sum_request(max_n, q)
    cases = []
    for q in (3, 4, 5, 6):
        # from max_n down: each smaller sum reads a level that the last built
        sums = {n: recurrence.z_circ(n, q) for n in range(max_n, 1, -1)}
        for n, total in sorted(sums.items()):
            closed = recurrence.z_circ_closed(n, q)
            cases.append(_case(total == closed, {"n": n, "q": q},
                               n=n, q=q, sum=str(total), closed_form=str(closed)))
    return _report("partition", cases)


def _mobius_counts(prev: np.ndarray, q: int) -> np.ndarray:
    """``b_circ_mobius`` of every length-n word from level n-1 ``prev``.

    The deletion of x_i counts with sign -1 where the cyclic edge (i, i+1)
    is monochromatic, over the edges of ``recurrence._cyclic_edges``.
    """
    n = prev.ndim + 1
    edges = recurrence._cyclic_edges(n)
    total = np.zeros((q,) * n, dtype=np.int64)
    for i in range(n):
        sign = np.where(recurrence._differ(n, q, i, (i + 1) % n), 1, -1) if i in edges else 1
        total += sign * np.expand_dims(prev, i)
    return total


def mobius_suite(max_n: int) -> dict:
    """Inclusion-exclusion form equals the defining recurrence on every word.

    Checked on whole levels: the form built from level n-1 against level n;
    a counterexample is the first failing word in lexicographic order.
    """
    _check_levels((max_n, q) for q in (3, 4))
    cases = []
    for q in (3, 4):
        for n in range(1, max_n + 1):
            level = recurrence.cycle_counts(n, q)
            wrong = np.flatnonzero(_mobius_counts(recurrence.cycle_counts(n - 1, q), q) != level)
            bad = {"word": _word_at(wrong[0], n, q), "q": q} if wrong.size else None
            cases.append(_case(bad is None, bad, n=n, q=q))
    return _report("mobius", cases)


def _site_generators(n: int) -> dict[str, np.ndarray]:
    """Rotation by one and the reflection as axis permutations of a length-n
    word: together they generate the dihedral group of order 2n (n >= 3)."""
    return {"rotation": np.roll(range(n), 1), "reflection": np.arange(n)[::-1]}


def _color_generators(q: int) -> tuple[np.ndarray, np.ndarray]:
    """The color transposition (1 2) and cycle (1 2 ... q) as 0-based color
    maps: together they generate all q! color permutations."""
    return np.r_[1, 0, 2:q], np.roll(range(q), 1)


def _symmetry_fails(c: np.ndarray) -> dict[str, np.ndarray]:
    """Per operation, the cells of the count tensor c (shape (q,)*n, n >= 1)
    that differ from their image under a generator of its group: the
    ``_site_generators`` and the ``_color_generators``. A tensor is
    invariant under a group iff it is invariant under the group's
    generators."""
    n, q = c.ndim, c.shape[0]
    fails = {op: c.transpose(p) != c for op, p in _site_generators(n).items()}
    colors = [c[np.ix_(*[p] * n)] != c for p in _color_generators(q)]
    fails["color-permutation"] = colors[0] | colors[1]
    return fails


def shift_suite(max_n: int) -> dict:
    """Count-level invariance of b_circ under rotation, reflection, relabeling.

    Checked on the dense level, which counts every word without
    canonicalizing, against the generators of ``_symmetry_fails``; a
    counterexample is the first word in lexicographic order whose count
    differs from its image under a generator, with its first failing
    operation.
    """
    _check_levels((max_n, q) for q in (3, 4))
    cases = []
    for q in (3, 4):
        for n in range(1, max_n + 1):
            fails = _symmetry_fails(recurrence.cycle_counts(n, q))
            codes = np.flatnonzero(np.logical_or.reduce(list(fails.values())))
            bad = None
            if codes.size:
                op = next(op for op, f in fails.items() if f.flat[codes[0]])
                bad = {"word": _word_at(codes[0], n, q), "op": op}
            cases.append(_case(bad is None, bad, n=n, q=q))
    return _report("shift", cases)


def symmetry_suite(max_n: int) -> dict:
    """Law-level invariance of the cycle law under the full symmetry group.

    Checked on the law's 0-based rows and counts, scattered back into a
    count tensor, so this covers law materialization as well as the level
    that ``shift`` checks.
    """
    _check_levels((max_n, q) for q in (3, 4))
    cases = []
    for q in (3, 4):
        for n in range(3, max_n + 1):
            rows, counts, _ = recurrence._law_cells(n, q, recurrence.DEFAULT_BUDGET, cyclic=True)
            c = np.zeros((q,) * n, dtype=np.int64)
            c[tuple(rows.T)] = counts
            ok = {op: not f.any() for op, f in _symmetry_fails(c).items()}
            cases.append(_case(all(ok.values()), {"n": n, "q": q}, n=n, q=q,
                               rotation=ok["rotation"], reflection=ok["reflection"],
                               color_permutation=ok["color-permutation"]))
    return _report("symmetry", cases)


# the (k, q) pairs of recurrence.THEOREM_GRADE, in report order
_PAIRS = ((1, 4), (2, 3))


def _extension_sum(n: int, k: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The cycle level n+k summed over its last k axes, and the line level
    n: one count per length-n word each, in code order."""
    lhs = recurrence.cycle_counts(n + k, q).reshape(q**n, q**k).sum(1)
    return lhs, recurrence.line_counts(n, q).reshape(-1)


def restriction_suite(max_n: int) -> dict:
    """Extension-count identity: restriction_sum(x, k, q) vs c * b_vec(x, q).

    Checked in two normalizations of the constant c:

    * ``partition-sum`` uses c = z_circ(k, q). Exact for (k, q) = (2, 3);
      for (k, q) = (1, 4) it is provably off by the factor 3/2 on every
      proper word of length >= 1 (the window of size one is degenerate),
      and the failing cases are reported with counterexamples.
    * ``window-consistent`` uses the constant that extends the closed-form
      partition formula to k = 1, namely c = q (q-1) / (q-2) for k = 1 and
      c = z_circ(k, q) for k = 2. Exact for both pairs; this is the
      constant under which the cycle and line laws are consistent.

    Each length n is checked as a whole level: the cycle level n+k summed
    over its last k axes against c times the line level n. A case stops
    after its first failing length and reports that length's first word.
    """
    _check_levels((max_n + k, q) for k, q in _PAIRS)
    cases = []
    for (k, q) in _PAIRS:
        z = recurrence.z_circ(k, q)
        window_const = Fraction(q * (q - 1), q - 2) if k == 1 else Fraction(z)
        for mode, const in (("partition-sum", Fraction(z)), ("window-consistent", window_const)):
            bad, checked = None, 0
            # the window-consistent constant applies to words of length >= 1;
            # at length 0 the extension sum is the partition sum by definition
            n_lo = 1 if mode == "window-consistent" else 0
            for n in range(n_lo, max_n + 1):
                lhs, vec = _extension_sum(n, k, q)
                checked += q**n
                wrong = np.flatnonzero(~_cross_equal(lhs, const.denominator, vec, const.numerator))
                if wrong.size:
                    i = int(wrong[0])
                    bad = {"word": _word_at(i, n, q), "k": k, "q": q,
                           "lhs": str(int(lhs[i])), "rhs": str(const * int(vec[i]))}
                    break
            cases.append(_case(bad is None, bad, k=k, q=q, mode=mode,
                               constant=str(const), words_checked=checked))
    return _report("restriction", cases)


def _same_law(x: np.ndarray, y: np.ndarray) -> bool:
    """x and y count the same law: x * sum(y) == y * sum(x) (``_cross_equal``)."""
    return x.shape == y.shape and bool(_cross_equal(x, int(y.sum()), y, int(x.sum())).all())


def _window_consistent(m: int, k: int, q: int) -> bool:
    """The cycle level m summed over its last k axes is proportional to the
    line level m-k: the cycle law's marginal is the line window law."""
    return _same_law(*_extension_sum(m - k, k, q))


def window_suite(max_n: int) -> dict:
    """Cycle-law marginals onto initial coordinates equal the line window
    laws, checked on whole levels by ``_window_consistent``."""
    _check_levels((max_n, q) for _, q in _PAIRS)
    cases = []
    for (k, q) in _PAIRS:
        for m in range(4, max_n + 1):
            bad = {"m": m, "k": k, "q": q}
            cases.append(_case(_window_consistent(m, k, q), bad, **bad))
    return _report("window", cases)


def _kdep_case(n: int, q: int, k: int, expected: str = "independent") -> dict:
    """Check whether the cycle law at (n, q) is k-dependent, on its nonzero
    cells: the 0-based rows, counts and z of ``recurrence._law_cells`` (so
    a = q). The case passes when the answer is the ``expected`` one
    ("independent" or "dependent")."""
    law = recurrence._law_cells(n, q, recurrence.DEFAULT_BUDGET, cyclic=True)
    cex = analysis._dependent_pair((*law, q), k)
    pair = None if cex is None else {"s1": cex[0], "s2": cex[1]}
    case = {"n": n, "q": q, "k": k, "expected": expected}
    if expected == "independent":
        return _case(pair is None, pair, **case)
    return {**case, "passed": pair is not None, "dependent_pair": pair,
            "counterexample": None if pair else {"n": n, "q": q, "k": k}}


def kdep_suite(max_n: int) -> dict:
    """Dependence range of the cycle laws: 2-dependence at q=3, 1-dependence
    at q=4, plus the negative control (q=3 is not 1-dependent)."""
    analysis._check_pair_limit(max_n)  # levels with n <= 10, q <= 4 are in bounds
    cases = [
        _kdep_case(n, q, k) for q, k in ((3, 2), (4, 1)) for n in range(5, max_n + 1)
    ]
    cases.append(_kdep_case(5, 3, 1, expected="dependent"))
    return _report("kdep", cases)


def kdep_report(n: int, q: int, k: int) -> dict:
    """Report of the one case "the cycle law at (n, q) is k-dependent"."""
    recurrence._check_k(k)
    if n < 2 * k + 2:
        raise ValueError(
            f"no coordinate pair is at cyclic distance > {k} when n = {n}; "
            f"k = {k} needs n >= {2 * k + 2}"
        )
    analysis._check_pair_limit(n)
    return _report("kdep", [_kdep_case(n, q, k)])


def _necklace_step(n: int, q: int) -> tuple[np.ndarray, bool]:
    """(pushed, eden_ok) from one walk of ``growth._necklace_blocks``.
    Entry y of the q**(n+1) int64 vector pushed, indexed by word code, sums
    each state's count over its (gap, allowed color, rotation) triples that
    give y, so the total z grows by n (q-2) (n+1); ``OverflowError`` before
    any block unless that product is below 2**63. eden_ok is
    ``growth._eden_agrees`` on every block, skipped after one fails."""
    m = n + 1
    z, blocks = growth._necklace_blocks(n, q)
    if z * n * (q - 2) * m > recurrence._INT64_MAX:
        raise OverflowError(f"the counts of level {n} at q = {q} may push past int64")
    pushed = np.zeros(q**m, dtype=np.int64)
    eden_ok = True
    for states, counts, keys in blocks:  # key = row in the block * q**m + outcome code
        np.add.at(pushed, keys % q**m, counts[keys // q**m])
        eden_ok = eden_ok and growth._eden_agrees(states, keys, n, q)
    return pushed, eden_ok


def _coupling_case(n: int, q: int) -> dict:
    """Necklace insertion carries the n-cycle law to the (n+1)-cycle law,
    pushed * z[n+1] == level[n+1] * z[n] * n (q-2) (n+1) on every word
    (the transport), and the Eden step has the same law (``_necklace_step``)."""
    pushed, eden_ok = _necklace_step(n, q)
    child = recurrence.cycle_counts(n + 1, q).reshape(-1)
    pushed_total = recurrence.z_circ(n, q) * n * (q - 2) * (n + 1)
    transported = bool(_cross_equal(pushed, recurrence.z_circ(n + 1, q), child, pushed_total).all())
    return _case(transported and eden_ok, {"n": n, "q": q}, n=n, q=q,
                 transport=transported, eden_step_law=eden_ok)


def coupling_suite(max_n: int) -> dict:
    """``_coupling_case`` for n = 3..max_n at q = 3 and 4: the transport and
    the Eden check from one walk of level n's blocks per case."""
    _check_levels((max_n + 1, q) for q in (3, 4))
    return _report("coupling", [_coupling_case(n, q) for q in (3, 4)
                                for n in range(3, max_n + 1)])


def _binary_counts(level: np.ndarray, marked: Iterable[int]) -> np.ndarray:
    """The counts of ``pushforward(law, color_indicator(marked))`` of a
    level's law over the 2^n indicator codes: every axis is contracted with
    the q x 2 0/1 matrix that sends color c to 1 iff c is marked."""
    q = level.shape[0]
    ind = np.array([[c not in marked, c in marked] for c in range(1, q + 1)], dtype=np.int64)
    for _ in range(level.ndim):  # each contraction moves the new axis last
        level = np.tensordot(level, ind, axes=(0, 0))
    return level.reshape(-1)


# marginal process -> (q, marked colors, longest cycle); its target laws are
# "cyclic-" and "line-" + the process in chains._TARGETS
_MARGINALS = {
    "descent": (ChainVariant.COLORS_ONE_TWO_Q4.q, ChainVariant.COLORS_ONE_TWO_Q4.marked_colors, 8),
    "peak": (ChainVariant.COLOR_ONE_Q3.q, ChainVariant.COLOR_ONE_Q3.marked_colors, 8),
    "bit-descent": (4, frozenset({1}), 9),
}


def _marginal_case(law: str, n: int, level: np.ndarray, marked) -> dict:
    ok = _same_law(_binary_counts(level, marked), chains._target_counts(law, n))
    return _case(ok, {"n": n}, law=law, n=n)


def marginals_suite(max_n: int) -> dict:
    """Marginal-process laws of the cycle and line colorings.

    Cyclic: two marked colors of four give permutation descents; one of
    three gives permutation peaks; one of four gives fair-bit descents
    (with one-site marginal exactly 1/4). Line: windows agree with the
    linear laws of the same processes. Each case compares the count vectors
    ``_binary_counts`` and ``chains._target_counts`` with ``_same_law``.
    Cycles stop at length min(max_n, 8), or 9 for bit descents, and line
    windows at min(max_n, 6).
    """
    cases = [
        _marginal_case(f"cyclic-{law}", n, recurrence.cycle_counts(n, q), marked)
        for law, (q, marked, top) in _MARGINALS.items()
        for n in range(3, min(max_n, top) + 1)
    ]
    level = recurrence.cycle_counts(5, 4)
    one_site = Fraction(int(level[0].sum()), int(level.sum()))
    cases.append(_case(one_site == Fraction(1, 4), {"value": str(one_site)},
                       law="one-site-marginal", value=str(one_site), expected="1/4"))
    cases += [
        _marginal_case(f"line-{law}", n, recurrence.line_counts(n, q), marked)
        for n in range(1, min(max_n, 6) + 1)
        for law, (q, marked, _) in _MARGINALS.items()
    ]
    return _report("marginals", cases)


def kernels_suite(max_n: int) -> dict:
    """J-chain and Q-chain kernels coincide; chain laws match the indicator
    images of the cycle laws, contracted from the dense levels. Each variant
    is walked once on integer counts (``chains._kernel_walk``), whose rows
    share one total per length: J and Q rows are compared as count dicts,
    the chain law with ``_binary_counts`` as count vectors (``_same_law``)."""
    _check_levels((max_n, variant.q) for variant in ChainVariant)
    equal_cases, law_cases = [], []
    for variant in ChainVariant:
        for n, (law, j_rows, q_rows) in zip(range(3, max_n + 1), chains._kernel_walk(variant)):
            bad = {"variant": variant.value, "n": n}
            equal_cases.append(_case(j_rows == q_rows, bad, **bad, check="kernel-equal"))
            level = recurrence.cycle_counts(n, variant.q)
            if sum(law.values()) > recurrence._INT64_MAX:  # so no count and no sum wraps
                raise OverflowError(f"the {variant.value} chain counts at n = {n} pass int64")
            chain = np.zeros(1 << n, dtype=np.int64)
            chain[encode_digits(np.array(list(law)), 2)] = list(law.values())
            ok = _same_law(chain, _binary_counts(level, variant.marked_colors))
            law_cases.append(_case(ok, bad, **bad, check="chain-vs-pushforward"))
    return _report("kernels", equal_cases + law_cases)


def blockfactor_suite() -> dict:
    """The adjacent-pair star statistic vs the width-2 window benchmark."""
    rep = chains.iota_two_site_statistic()
    ok = (
        rep.two_site == Fraction(1, 6)
        and rep.block_factor_two_site == Fraction(1, 4)
        and rep.two_site != rep.block_factor_two_site
        and rep.single_site == Fraction(1, 2)
    )
    case = _case(ok, {"two_site": str(rep.two_site)}, two_site=str(rep.two_site),
                 block_factor_two_site=str(rep.block_factor_two_site),
                 single_site=str(rep.single_site))
    return _report("blockfactor-stat", [case])


SUITES = {
    "partition": partition_suite,
    "mobius": mobius_suite,
    "shift": shift_suite,
    "symmetry": symmetry_suite,
    "restriction": restriction_suite,
    "window": window_suite,
    "kdep": kdep_suite,
    "coupling": coupling_suite,
    "marginals": marginals_suite,
    "kernels": kernels_suite,
    "blockfactor-stat": blockfactor_suite,
}


# Sized suite -> (default max_n, smallest max_n). Below the smallest, a suite
# emits no case or a case that checks nothing. kdep and marginals always emit
# a fixed case, so theirs is the shortest word length, 1.
SIZES = {
    "partition": (10, 2),
    "mobius": (8, 1),
    "shift": (8, 1),
    "symmetry": (8, 3),
    "restriction": (8, 1),
    "window": (9, 4),
    "kdep": (9, 1),
    "coupling": (7, 3),
    "marginals": (9, 1),
    "kernels": (8, 3),
}


def _check_size(name: str, max_n: int, least: int) -> None:
    if max_n < least:
        raise ValueError(
            f"max_n {max_n} is below the minimum {least} for {name!r}; "
            "smaller sizes check nothing"
        )


def run_suite(name: str, max_n: Optional[int] = None) -> dict:
    """Run one suite at max_n, or at its default size. A suite without a
    size rejects max_n."""
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}") from None
    if name in SIZES:
        default, least = SIZES[name]
        max_n = default if max_n is None else max_n
        _check_size(name, max_n, least)
        return fn(max_n)
    if max_n is not None:
        raise ValueError(f"suite {name!r} has no size and takes no max_n")
    return fn()


def run_all(max_n: Optional[int] = None) -> dict:
    """Run every suite at its default size, capped at max_n when given."""
    if max_n is not None:
        _check_size("all", max_n, max(least for _, least in SIZES.values()))
    caps = {} if max_n is None else {
        name: min(default, max_n) for name, (default, _) in SIZES.items()
    }
    reports = [run_suite(name, caps.get(name)) for name in SUITES]
    return {
        "suite": "all",
        "passed": all(r["passed"] for r in reports),
        "reports": reports,
    }
