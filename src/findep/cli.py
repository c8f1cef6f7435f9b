"""Command-line front end: exact law dumps, samplers, verification suites.

Conventions: data goes to stdout (or ``--out``), logs to stderr. Exit codes
are stable: 0 success, 1 verification/GoF failure (or stdout closed by its
reader), 2 usage error, 3 resource budget exceeded. Every setting comes from the
command line, each default held once by the parser or the command, so an
output depends on its argv alone.

A command loads only its own engine, when it is dispatched. This module's
imports are what every command uses: numpy, ``recurrence`` and ``words``.
``sample`` loads ``growth``, and ``analysis`` (with scipy) only under
``--gof``; ``verify`` loads ``suites``, which loads the rest. So ``exact``
loads none of ``growth``, ``analysis``, ``suites`` or ``chains``. ``entry``
is the process entry of ``python -m findep`` and the ``findep`` script:
it freezes the import-time heap for the collector, then runs ``main``.
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import math
import os
import sys
from collections import Counter, deque
from dataclasses import asdict
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, Optional, Union

# findep's matrix products are all on int64, which numpy computes without BLAS,
# yet numpy's and scipy's OpenBLAS each start a thread pool as they load, whose
# idle threads burn about 0.1 s of CPU per process. One BLAS thread starts no
# pool; a value the caller set still wins. This has to run before numpy loads,
# which ``import findep`` does not do, so it holds under ``python -m findep`` too.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .errors import BudgetExceeded
from .recurrence import (DEFAULT_BUDGET, _check_k, _check_law_request, _law_slices, _slice_cells,
                         is_theorem_grade)
from .words import decode_codes, encode_digits, row_texts

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_SCHEMA_DIST = "findep.dist/1"
_SCHEMA_SAMPLES = "findep.samples/1"
_SCHEMA_GOF = "findep.gof/1"
_SCHEMA_REPORT = "findep.report/1"


def _write(text: Union[str, Iterable[str]], out: Optional[str]) -> None:
    """Write text, or each string of an iterable in turn, to out or stdout;
    an out that cannot be written raises ValueError, a usage error."""
    chunks = [text] if isinstance(text, str) else text
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise ValueError(f"cannot write --out {out}: {exc.strerror}") from None
    else:
        sys.stdout.writelines(chunks)


def _check_out(out: Optional[str]) -> None:
    """Raise ``_write``'s usage error at once if out plainly cannot be written:
    a directory, a missing or unwritable directory, or an unwritable file.
    Creates and truncates nothing; ``_write`` still reports any other failure."""
    if not out:
        return
    parent = os.path.dirname(out) or "."
    if os.path.isdir(out):
        err = errno.EISDIR
    elif not os.path.exists(parent):
        err = errno.ENOENT
    elif not os.path.isdir(parent):
        err = errno.ENOTDIR
    elif not os.access(out if os.path.exists(out) else parent, os.W_OK):
        err = errno.EACCES
    else:
        return
    raise ValueError(f"cannot write --out {out}: {os.strerror(err)}")


# States per block of a streamed law dump.
_DUMP_BLOCK = 1 << 12


def _text_order(codes: np.ndarray, n: int, q: int) -> np.ndarray:
    """The argsort of length-n word codes by their comma-joined texts (q > 9).

    ',' sorts before every digit, so comparing two such texts compares
    their symbols' decimal strings in turn: the texts sort as the codes
    re-encoded with each digit replaced by its symbol's rank in ``str`` order.
    """
    rank = np.argsort(np.argsort([str(s) for s in range(1, q + 1)]))
    return np.argsort(encode_digits(rank[decode_codes(codes, n, q)], q))


def _law_blocks(slice_of: Callable[[int], tuple[np.ndarray, np.ndarray]],
                n: int, q: int) -> Iterator[tuple[list[str], list[int]]]:
    """The law of ``_slice_cells``'s slice_of in text order, as blocks of at
    most ``_DUMP_BLOCK`` states: each block's word texts and their counts.

    The texts of the words with first symbol s sort together, in the ``str``
    order of s (``"1,…" < "10,…" < "2,…"``, the order of range(q) for
    q <= 9), so the blocks walk the first-color slices in that order and sort
    each slice by ``_text_order`` for q > 9. A block decodes only its own
    codes, so no code, row, text or Python int is held for the whole law; a
    slice's codes and counts are dropped before the next slice is computed.
    """
    for a in sorted(range(q), key=lambda a: str(a + 1)):
        codes, counts = slice_of(a)
        # comma-joined texts (q > 9): code order is not text order
        order = _text_order(codes, n, q) if q > 9 else slice(None)
        codes, counts = codes[order], counts[order]
        for i in range(0, len(codes), _DUMP_BLOCK):
            rows = decode_codes(codes[i:i + _DUMP_BLOCK], n, q) + 1
            yield row_texts(rows, q), counts[i:i + _DUMP_BLOCK].tolist()
        del codes, counts, order  # before slice_of computes the next slice


def _dist_dump(states: int, z: int, slice_of: Callable[[int], tuple[np.ndarray, np.ndarray]],
               n: int, q: int, meta: dict, fmt: str) -> Iterator[str]:
    """The ``findep.dist/1`` JSON or CSV text of the law of ``_law_slices``,
    with ``states`` words and counts summing to z, as the header and then one
    string per block of ``_law_blocks``.

    Byte-identical to ``json.dumps`` (indent=2) of the document built from
    ``ExactDist.to_json_entries``: each state's fraction is reduced by
    gcd(count, z), as ``Fraction`` reduces it, and the states are in text
    order. Each distinct count's text after the state is built once, and
    no more than a block's texts is held at a time.
    """
    if fmt == "csv":
        yield "state,num,den\n"
        quote = '"' if q > 9 and n > 1 else ""  # RFC 4180: around a field with a comma
        tail, seps = quote + ",{},{}\n", repeat(quote)
    else:
        # json.dumps renders the header; every entry has the same indent=2 shape.
        head = json.dumps({"schema": _SCHEMA_DIST, **meta, "total_states": states}, indent=2)
        yield f'{head[:-2]},\n  "states": ['
        tail = '",\n      "num": "{}",\n      "den": "{}"\n    }}'
        entry = '\n    {\n      "state": "'
        # A comma before every entry but the first. Each block's zip draws one
        # separator past its last state, which repeat() makes harmless.
        seps = chain([entry], repeat("," + entry))
    tails: dict[int, str] = {}  # count -> the entry's text after its state
    for texts, counts in _law_blocks(slice_of, n, q):
        for c in set(counts).difference(tails):
            g = math.gcd(c, z)
            tails[c] = tail.format(c // g, z // g)
        yield "".join(chain.from_iterable(zip(seps, texts, map(tails.__getitem__, counts))))
    if fmt != "csv":
        yield "\n  ]\n}\n"


def _cmd_exact(args: argparse.Namespace) -> int:
    if args.law == "cycle":
        meta = {"kind": "cycle", "n": args.n, "q": args.q}
    else:
        _check_k(args.k)
        meta = {"kind": "line-window", "n": args.n, "k": args.k, "q": args.q,
                "theorem_grade": is_theorem_grade(args.k, args.q)}
    law = _law_slices(args.n, args.q, args.budget, cyclic=args.law == "cycle")
    _write(_dist_dump(*law, args.n, args.q, meta, args.format), args.out)
    return EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> int:
    from .growth import (_eden_bounds, _eden_words, _necklace_bounds, _necklace_words,
                         _replicate_blocks)

    if args.reps < 1:
        raise ValueError(f"--reps must be at least 1, got {args.reps}")
    # (bounds of a replicate's draws, words from a block of draw rows)
    bounds_of, words_of = {"necklace": (_necklace_bounds, _necklace_words),
                           "eden": (_eden_bounds, _eden_words)}[args.sampler]
    bounds = bounds_of(args.n, args.q)
    # The GoF's arguments, and flags that would be ignored, exit before any draw.
    if args.gof:
        from .analysis import _check_alpha, chi_square_gof, min_gof_samples
        from .dist import ExactDist

        if args.format is not None:
            raise ValueError("--format does not apply with --gof, whose report is JSON")
        alpha = 0.001 if args.alpha is None else args.alpha
        budget = DEFAULT_BUDGET if args.budget is None else args.budget
        _check_alpha(alpha)
        _check_law_request(args.n, args.q, budget)
        # The law keyed by the printed texts, which chi_square_gof sorts, pools
        # and reports as it did the law's words (state_text of a str is itself),
        # built a block at a time, so that no code, row or numpy text buffer
        # spans the whole law.
        law: dict[str, int] = {}
        for texts, counts in _law_blocks(_slice_cells(args.n, args.q, True), args.n, args.q):
            law.update(zip(texts, counts))
        exact = ExactDist.from_weights(law)
        del law
        need = min_gof_samples(exact)
        if args.reps < need:
            raise ValueError(f"--gof pools {args.reps} draws into one cell, which tests "
                             f"nothing; two cells need --reps >= {need}")
    else:
        for flag, value in (("--alpha", args.alpha), ("--budget", args.budget)):
            if value is not None:
                raise ValueError(f"{flag} applies only with --gof")

    meta = {"sampler": args.sampler, "n": args.n, "q": args.q, "reps": args.reps, "seed": args.seed}
    # Each format's start and end, and each text as before + text + after,
    # json entries comma-separated, as json.dumps (indent=2) writes them.
    # A csv field that holds a comma (q > 9) is quoted, as in the dumps.
    head = json.dumps({"schema": _SCHEMA_SAMPLES, **meta}, indent=2)[:-2]
    quote = '"' if args.q > 9 else ""
    start, before, after, comma, end = {
        "text": ("", "", "\n", "", ""),
        "csv": ("word\n", quote, quote + "\n", "", ""),
        "json": (f'{head},\n  "words": [', '\n    "', '"', ",", "\n  ]\n}\n"),
    }["text" if args.gof else args.format or "text"]
    drawn = Counter()  # under --gof, how often each text was drawn
    # Replicate r draws from RngStream(seed, r). The seed is checked now,
    # before any output; each block is drawn, written and counted in turn.
    blocks = _replicate_blocks(args.seed, args.reps, bounds)

    def output() -> Iterator[str]:
        yield start
        lead = ""
        for block in blocks:
            texts = row_texts(words_of(args.n, args.q, block), args.q)
            if args.gof:
                drawn.update(texts)
            yield lead + before + (after + comma + before).join(texts) + after
            lead = comma
        yield end

    if args.gof and not args.out:  # the report is the data product
        deque(output(), maxlen=0)
    else:
        _write(output(), args.out)
    if not args.gof:
        return EXIT_OK
    report = chi_square_gof(drawn, exact, alpha=alpha)
    doc = {"schema": _SCHEMA_GOF, **meta, **asdict(report)}
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def _case_params(case: dict) -> str:
    skip = {"passed", "counterexample"}
    parts = [
        f"{k}={v}" for k, v in case.items()
        if k not in skip and isinstance(v, (int, str, bool))
    ]
    return ";".join(parts)


def _report_csv(report: dict) -> str:
    lines = ["suite,case,passed"]
    subs = report.get("reports", [report])
    for sub in subs:
        for case in sub.get("cases", []):
            lines.append(f"{sub['suite']},{_case_params(case)},{case['passed']}")
    return "\n".join(lines) + "\n"


def _cmd_verify(args: argparse.Namespace) -> int:
    from .suites import kdep_report, run_all, run_suite

    single = (args.n, args.q, args.k) != (None, None, None)
    if single and args.suite != "kdep":
        raise ValueError("--n/--q/--k apply only to 'verify kdep'")
    if single and args.max_n is not None:
        raise ValueError("verify kdep takes --max-n or --n/--q/--k, not both")
    if single and None in (args.n, args.q, args.k):
        raise ValueError("verify kdep's one case takes --n, --q and --k together")
    if single:
        report = kdep_report(args.n, args.q, args.k)
    elif args.suite == "all":
        report = run_all(args.max_n)
    else:
        report = run_suite(args.suite, args.max_n)
    if args.format == "csv":
        _write(_report_csv(report), args.out)
    else:
        doc = {"schema": _SCHEMA_REPORT, **report}
        _write(json.dumps(doc, indent=2) + "\n", args.out)
    if not report["passed"]:
        cex = report.get("counterexample")
        if cex is None and "reports" in report:
            for sub in report["reports"]:
                if not sub["passed"]:
                    cex = {"suite": sub["suite"], "counterexample": sub["counterexample"]}
                    break
        print(f"verification failed; minimal counterexample: {cex}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


# The sorted keys of ``suites.SUITES``, spelled out so that building the
# parser loads no suite engine; a test holds the two equal.
_SUITE_NAMES = (
    "blockfactor-stat", "coupling", "kdep", "kernels", "marginals", "mobius",
    "partition", "restriction", "shift", "symmetry", "window",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="findep",
        description="Exact laws, samplers, and verification for finitely "
        "dependent proper colorings of cycles and lines.",
        epilog="Exit codes: 0 ok, 1 verification failure, 2 usage error, "
        "3 budget exceeded.",
    )
    parser.add_argument("--version", action="version", version=f"findep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", help="dump an exact law")
    sub_exact = p_exact.add_subparsers(dest="law", required=True)
    for law in ("cycle", "line"):
        p = sub_exact.add_parser(law)
        p.add_argument("--n", type=int, required=True, help="word length")
        p.add_argument("--q", type=int, required=True, help="number of colors")
        if law == "line":
            p.add_argument("--k", type=int, required=True, help="dependence range")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help=f"max states to enumerate (default {DEFAULT_BUDGET})")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write to file instead of stdout")
        p.set_defaults(func=_cmd_exact)

    p_sample = sub.add_parser("sample", help="draw sampler replicates")
    p_sample.add_argument("sampler", choices=("necklace", "eden"))
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--q", type=int, required=True)
    p_sample.add_argument("--reps", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--gof", action="store_true",
                          help="chi-square the samples against the exact law; "
                          "exit 0 on pass, 1 on fail")
    p_sample.add_argument("--alpha", type=float, default=None,
                          help="GoF significance level (default 0.001)")
    p_sample.add_argument("--budget", type=int, default=None,
                          help=f"GoF law's max states to enumerate (default {DEFAULT_BUDGET})")
    p_sample.add_argument("--format", choices=("text", "json", "csv"), default=None,
                          help="sample output format (default text); not with --gof")
    p_sample.add_argument("--out", default=None)
    p_sample.set_defaults(func=_cmd_sample)

    p_verify = sub.add_parser("verify", help="run exact verification suites")
    p_verify.add_argument("suite", choices=[*_SUITE_NAMES, "all"])
    p_verify.add_argument("--max-n", type=int, default=None, dest="max_n")
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--q", type=int, default=None)
    p_verify.add_argument("--k", type=int, default=None)
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)  # before any work
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout early (``findep ... | head``). Python's
        # documented recipe: point stdout at devnull so the interpreter's
        # final flush cannot raise again, and exit 1 without a message.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_VERIFY_FAIL
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> int:
    """The process entry of ``python -m findep`` and the ``findep`` script:
    ``main()`` with the heap that importing this module built frozen.

    ``gc.freeze`` moves every object alive now (numpy's, findep's and the
    interpreter's module objects) out of the collector's generations, so
    neither a full collection during the command nor the final one at exit
    walks them again. A process runs one command and exits, so what is frozen
    is never garbage. An in-process ``main([...])`` call leaves the collector
    alone: there, freezing would make any pending cyclic garbage immortal.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
