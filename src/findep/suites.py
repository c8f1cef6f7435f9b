"""Named exact-verification suites behind the ``verify`` CLI command.

Each suite returns a JSON-ready report::

    {"suite": name, "passed": bool, "cases": [...], "counterexample": ...}

with one entry per checked case and the first failing case (if any)
surfaced as a minimal counterexample. All checks are exact.

Every suite but ``blockfactor-stat`` is sized by one ``max_n``, a bound on
word length; ``SIZES`` gives its default and smallest value.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from typing import Optional

import numpy as np

from . import analysis, chains, growth, recurrence
from .chains import ChainVariant
from .dist import state_text
from .recurrence import b_circ, b_circ_mobius, b_vec, cycle_law, line_window_law
from .words import Word

__all__ = ["SIZES", "SUITES", "kdep_report", "run_all", "run_suite"]


def _report(suite: str, cases: list[dict]) -> dict:
    failing = [c for c in cases if not c["passed"]]
    return {
        "suite": suite,
        "passed": not failing,
        "cases": cases,
        "counterexample": failing[0].get("counterexample") if failing else None,
    }


def _all_words(n: int, q: int):
    return product(range(1, q + 1), repeat=n)


def partition_suite(max_n: int) -> dict:
    """z_circ(n, q) == n! q (q-1) (q-2)^(n-2) for n in [2, max_n]."""
    cases = []
    for q in (3, 4, 5, 6):
        for n in range(2, max_n + 1):
            total = recurrence.z_circ(n, q)
            closed = recurrence.z_circ_closed(n, q)
            cases.append(
                {
                    "n": n,
                    "q": q,
                    "sum": str(total),
                    "closed_form": str(closed),
                    "passed": total == closed,
                    "counterexample": None if total == closed else {"n": n, "q": q},
                }
            )
    return _report("partition", cases)


def mobius_suite(max_n: int) -> dict:
    """Inclusion-exclusion form equals the defining recurrence on every word."""
    cases = []
    for q in (3, 4):
        for n in range(1, max_n + 1):
            bad = None
            for t in _all_words(n, q):
                if b_circ_mobius(t, q) != b_circ(t, q):
                    bad = {"word": state_text(Word(t, q)), "q": q}
                    break
            cases.append(
                {"n": n, "q": q, "passed": bad is None, "counterexample": bad}
            )
    return _report("mobius", cases)


_SHIFT_OPS = ("rotation", "reflection", "color-permutation")


def shift_suite(max_n: int) -> dict:
    """Count-level invariance of b_circ under rotation, reflection, relabeling.

    Checked on the dense level, which counts every word without
    canonicalizing; a counterexample is the first failing word in
    lexicographic order with its first failing operation.
    """
    cases = []
    for q in (3, 4):
        for n in range(1, max_n + 1):
            c = recurrence.cycle_counts(n, q)
            fails = {op: np.zeros(c.shape, dtype=bool) for op in _SHIFT_OPS}
            for r in range(1, n):
                fails["rotation"] |= c.transpose(np.roll(range(n), r)) != c
            fails["reflection"] |= c.transpose() != c
            for p in permutations(range(q)):
                fails["color-permutation"] |= c[np.ix_(*[np.array(p)] * n)] != c
            codes = np.flatnonzero(np.logical_or.reduce(list(fails.values())))
            bad = None
            if codes.size:
                t = tuple(int(i) + 1 for i in np.unravel_index(codes[0], c.shape))
                op = next(op for op in _SHIFT_OPS if fails[op].flat[codes[0]])
                bad = {"word": state_text(Word(t, q)), "op": op}
            cases.append({"n": n, "q": q, "passed": bad is None, "counterexample": bad})
    return _report("shift", cases)


def symmetry_suite(max_n: int) -> dict:
    """Law-level invariance of the cycle law under the full symmetry group."""
    cases = []
    for q in (3, 4):
        perms = list(permutations(range(1, q + 1)))
        for n in range(3, max_n + 1):
            d = cycle_law(n, q)
            ok_rot = all(analysis.symmetry_check(d, "rotation", r=r) for r in range(1, n))
            ok_ref = analysis.symmetry_check(d, "reflection")
            ok_col = all(
                analysis.symmetry_check(d, "color-permutation", sigma=p) for p in perms
            )
            passed = ok_rot and ok_ref and ok_col
            cases.append(
                {
                    "n": n,
                    "q": q,
                    "rotation": ok_rot,
                    "reflection": ok_ref,
                    "color_permutation": ok_col,
                    "passed": passed,
                    "counterexample": None if passed else {"n": n, "q": q},
                }
            )
    return _report("symmetry", cases)


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
    """
    cases = []
    for (k, q) in ((1, 4), (2, 3)):
        z = recurrence.z_circ(k, q)
        window_const = Fraction(q * (q - 1), q - 2) if k == 1 else Fraction(z)
        for mode, const in (("partition-sum", Fraction(z)), ("window-consistent", window_const)):
            bad = None
            checked = 0
            # the window-consistent constant applies to words of length >= 1;
            # at length 0 the extension sum is the partition sum by definition
            n_lo = 1 if mode == "window-consistent" else 0
            for n in range(n_lo, max_n + 1):
                for t in _all_words(n, q):
                    lhs = Fraction(recurrence.restriction_sum(t, k, q))
                    rhs = const * b_vec(t, q)
                    checked += 1
                    if lhs != rhs:
                        bad = bad or {
                            "word": state_text(Word(t, q)),
                            "k": k,
                            "q": q,
                            "lhs": str(lhs),
                            "rhs": str(rhs),
                        }
                if bad:
                    break
            cases.append(
                {
                    "k": k,
                    "q": q,
                    "mode": mode,
                    "constant": str(const),
                    "words_checked": checked,
                    "passed": bad is None,
                    "counterexample": bad,
                }
            )
    return _report("restriction", cases)


def window_suite(max_n: int) -> dict:
    """Cycle-law marginals onto initial coordinates equal the line window laws."""
    cases = []
    for (k, q) in ((1, 4), (2, 3)):
        for m in range(4, max_n + 1):
            lhs = analysis.marginalize(cycle_law(m, q), range(1, m - k + 1))
            rhs = line_window_law(m - k, k, q)
            passed = lhs == rhs
            cases.append(
                {
                    "m": m,
                    "k": k,
                    "q": q,
                    "passed": passed,
                    "counterexample": None if passed else {"m": m, "k": k, "q": q},
                }
            )
    return _report("window", cases)


def _kdep_case(n: int, q: int, k: int, expected: str = "independent") -> dict:
    """Check whether cycle_law(n, q) is k-dependent; the case passes when the
    answer is the ``expected`` one ("independent" or "dependent")."""
    cex = analysis.k_dependence_counterexample(cycle_law(n, q), k)
    pair = None if cex is None else {"s1": cex[0], "s2": cex[1]}
    case = {"n": n, "q": q, "k": k, "expected": expected}
    if expected == "independent":
        return {**case, "passed": pair is None, "counterexample": pair}
    return {
        **case,
        "passed": pair is not None,
        "dependent_pair": pair,
        "counterexample": None if pair else {"n": n, "q": q, "k": k},
    }


def kdep_suite(max_n: int) -> dict:
    """Dependence range of the cycle laws: 2-dependence at q=3, 1-dependence
    at q=4, plus the negative control (q=3 is not 1-dependent)."""
    cases = [
        _kdep_case(n, q, k) for q, k in ((3, 2), (4, 1)) for n in range(5, max_n + 1)
    ]
    cases.append(_kdep_case(5, 3, 1, expected="dependent"))
    return _report("kdep", cases)


def kdep_report(n: int, q: int, k: int) -> dict:
    """Report of the one case "cycle_law(n, q) is k-dependent"."""
    if n < 2 * k + 2:
        raise ValueError(
            f"no coordinate pair is at cyclic distance > {k} when n = {n}; "
            f"k = {k} needs n >= {2 * k + 2}"
        )
    return _report("kdep", [_kdep_case(n, q, k)])


def coupling_suite(max_n: int) -> dict:
    """Kernel transport of the cycle laws and the growth-vs-insertion check."""
    cases = []
    for q in (3, 4):
        for n in range(3, max_n + 1):
            kernel = growth.coupling_kernel(n, q)
            transported = kernel.push(cycle_law(n, q)) == cycle_law(n + 1, q)
            eden_ok = growth.eden_vs_necklace_kernel_check(n, q)
            passed = transported and eden_ok
            cases.append(
                {
                    "n": n,
                    "q": q,
                    "transport": transported,
                    "eden_step_law": eden_ok,
                    "passed": passed,
                    "counterexample": None if passed else {"n": n, "q": q},
                }
            )
    return _report("coupling", cases)


def marginals_suite(max_n: int) -> dict:
    """Marginal-process laws of the cycle and line colorings.

    Cyclic: two marked colors of four give permutation descents; one of
    three gives permutation peaks; one of four gives fair-bit descents
    (with one-site marginal exactly 1/4). Line: windows agree with the
    linear brute-force laws. Cycles stop at length min(max_n, 8), or 9 for
    bit descents, and line windows at min(max_n, 6).
    """
    max_cycle = min(max_n, 8)
    max_bits = min(max_n, 9)
    max_window = min(max_n, 6)
    cases = []
    ind12 = chains.color_indicator({1, 2})
    ind1 = chains.color_indicator({1})

    for n in range(3, max_cycle + 1):
        ok = analysis.pushforward(cycle_law(n, 4), ind12) == chains.descent_law(n)
        cases.append({"law": "cyclic-descent", "n": n, "passed": ok,
                      "counterexample": None if ok else {"n": n}})
    for n in range(3, max_cycle + 1):
        ok = analysis.pushforward(cycle_law(n, 3), ind1) == chains.peak_law(n)
        cases.append({"law": "cyclic-peak", "n": n, "passed": ok,
                      "counterexample": None if ok else {"n": n}})
    for n in range(3, max_bits + 1):
        ok = analysis.pushforward(cycle_law(n, 4), ind1) == chains.bit_descent_law(n)
        cases.append({"law": "cyclic-bit-descent", "n": n, "passed": ok,
                      "counterexample": None if ok else {"n": n}})

    one_site = analysis.marginalize(
        analysis.pushforward(cycle_law(5, 4), ind1), {1}
    ).prob((1,))
    ok = one_site == Fraction(1, 4)
    cases.append({"law": "one-site-marginal", "value": str(one_site),
                  "expected": "1/4", "passed": ok,
                  "counterexample": None if ok else {"value": str(one_site)}})

    for n in range(1, max_window + 1):
        ok = (
            analysis.pushforward(line_window_law(n, 1, 4), ind12)
            == chains.descent_window_law(n)
        )
        cases.append({"law": "line-descent", "n": n, "passed": ok,
                      "counterexample": None if ok else {"n": n}})
        ok = (
            analysis.pushforward(line_window_law(n, 2, 3), ind1)
            == chains.peak_window_law(n)
        )
        cases.append({"law": "line-peak", "n": n, "passed": ok,
                      "counterexample": None if ok else {"n": n}})
        ok = (
            analysis.pushforward(line_window_law(n, 1, 4), ind1)
            == chains.bit_descent_window_law(n)
        )
        cases.append({"law": "line-bit-descent", "n": n, "passed": ok,
                      "counterexample": None if ok else {"n": n}})
    return _report("marginals", cases)


def kernels_suite(max_n: int) -> dict:
    """J-chain and Q-chain kernels coincide; chain laws match pushforwards."""
    cases = []
    for variant in ChainVariant:
        for n in range(3, max_n + 1):
            equal = chains.kernel_equal(
                chains.j_kernel(variant, n), chains.q_kernel(variant, n)
            )
            cases.append({"variant": variant.value, "n": n, "check": "kernel-equal",
                          "passed": equal,
                          "counterexample": None if equal else {"variant": variant.value, "n": n}})
    for variant in ChainVariant:
        ind = chains.color_indicator(variant.marked_colors)
        for n in range(3, max_n + 1):
            ok = chains.chain_law(variant, n) == analysis.pushforward(
                cycle_law(n, variant.q), ind
            )
            cases.append({"variant": variant.value, "n": n, "check": "chain-vs-pushforward",
                          "passed": ok,
                          "counterexample": None if ok else {"variant": variant.value, "n": n}})
    return _report("kernels", cases)


def blockfactor_suite() -> dict:
    """The adjacent-pair star statistic vs the width-2 window benchmark."""
    rep = chains.iota_two_site_statistic()
    ok = (
        rep.two_site == Fraction(1, 6)
        and rep.block_factor_two_site == Fraction(1, 4)
        and rep.two_site != rep.block_factor_two_site
        and rep.single_site == Fraction(1, 2)
    )
    case = {
        "two_site": str(rep.two_site),
        "block_factor_two_site": str(rep.block_factor_two_site),
        "single_site": str(rep.single_site),
        "passed": ok,
        "counterexample": None if ok else {"two_site": str(rep.two_site)},
    }
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
