"""Command-line front end: exact law dumps, samplers, verification suites.

Conventions: data goes to stdout (or ``--out``), logs to stderr. Exit codes
are stable: 0 success, 1 verification/GoF failure (or stdout closed by its
reader), 2 usage error, 3 resource budget exceeded. Flags take precedence over
FINDEP_* environment variables, which take precedence over built-in defaults.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from collections import Counter
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
from .analysis import _check_alpha, chi_square_gof, min_gof_samples
from .errors import BudgetExceeded
from .growth import _eden_bounds, _eden_words, _necklace_bounds, _necklace_words, _replicate_blocks
# The public samplers are not called here (they draw a replicate through its
# own RngStream), but perfbench's self-test checks that its tracer rebinds
# them at this lookup site, so the names stay.
from .growth import eden_sample, necklace_sample  # noqa: F401
from .recurrence import DEFAULT_BUDGET, _check_k, _law_slices
from .recurrence import cycle_law, is_theorem_grade
from .suites import SUITES, kdep_report, run_all, run_suite
from .words import Word, decode_codes, encode_digits, row_texts

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_SCHEMA_DIST = "findep.dist/1"
_SCHEMA_SAMPLES = "findep.samples/1"
_SCHEMA_GOF = "findep.gof/1"
_SCHEMA_REPORT = "findep.report/1"


def _setting(flag, name: str, default, parse=int):
    """The flag's value if given, else the environment variable ``name``
    parsed by ``parse`` (int or float), else default. A variable that does
    not parse is ignored with a warning."""
    if flag is not None:
        return flag
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return parse(raw)
    except ValueError:
        kind = "integer" if parse is int else "numeric"
        print(f"warning: ignoring non-{kind} {name}={raw!r}", file=sys.stderr)
        return default


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


def _dist_dump(states: int, z: int, slice_of: Callable[[int], tuple[np.ndarray, np.ndarray]],
               n: int, q: int, meta: dict, fmt: str) -> Iterator[str]:
    """The ``findep.dist/1`` JSON or CSV text of the law of ``_law_slices``,
    with ``states`` words and counts summing to z, as the header and then one
    string per block of at most ``_DUMP_BLOCK`` states.

    Byte-identical to ``json.dumps`` (indent=2) of the document built from
    ``ExactDist.to_json_entries``: each state's fraction is reduced by
    gcd(count, z), as ``Fraction`` reduces it, and the states are in text
    order. The texts of the words with first symbol s sort together, in the
    ``str`` order of s (``"1,…" < "10,…" < "2,…"``, the order of range(q) for
    q <= 9), so the dump walks the first-color slices in that order and
    sorts each slice by ``_text_order`` for q > 9. Each distinct count's text
    after the state is built once; a block decodes only its own codes, so no
    code, row, text or Python int is held for the whole law. A slice's codes
    and counts are dropped before the next slice is computed, and a block's
    rows and texts once its string is built.
    """
    if fmt == "csv":
        yield "state,num,den\n"
        tail, seps = ",{},{}\n", repeat("")
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

    def block_text(codes: np.ndarray, counts: np.ndarray) -> str:
        block = counts.tolist()
        for c in set(block).difference(tails):
            g = math.gcd(c, z)
            tails[c] = tail.format(c // g, z // g)
        texts = row_texts(decode_codes(codes, n, q) + 1, q)
        return "".join(chain.from_iterable(zip(seps, texts, map(tails.__getitem__, block))))

    for a in sorted(range(q), key=lambda a: str(a + 1)):
        codes, counts = slice_of(a)
        # comma-joined texts (q > 9): code order is not text order
        order = _text_order(codes, n, q) if q > 9 else slice(None)
        codes, counts = codes[order], counts[order]
        for i in range(0, len(codes), _DUMP_BLOCK):
            yield block_text(codes[i:i + _DUMP_BLOCK], counts[i:i + _DUMP_BLOCK])
        del codes, counts, order  # before slice_of computes the next slice
    if fmt != "csv":
        yield "\n  ]\n}\n"


def _cmd_exact(args: argparse.Namespace) -> int:
    budget = _setting(args.budget, "FINDEP_BUDGET", DEFAULT_BUDGET)
    if args.law == "cycle":
        meta = {"kind": "cycle", "n": args.n, "q": args.q}
    else:
        _check_k(args.k)
        meta = {
            "kind": "line-window",
            "n": args.n,
            "k": args.k,
            "q": args.q,
            "theorem_grade": is_theorem_grade(args.k, args.q),
        }
    law = _law_slices(args.n, args.q, budget, cyclic=args.law == "cycle")
    _write(_dist_dump(*law, args.n, args.q, meta, args.format), args.out)
    return EXIT_OK


# sampler name -> (bounds of a replicate's draws, words from a block of draw rows)
_SAMPLERS = {
    "necklace": (_necklace_bounds, _necklace_words),
    "eden": (_eden_bounds, _eden_words),
}


def _cmd_sample(args: argparse.Namespace) -> int:
    if args.reps < 1:
        raise ValueError(f"--reps must be at least 1, got {args.reps}")
    seed = _setting(args.seed, "FINDEP_SEED", 0)
    bounds_of, words_of = _SAMPLERS[args.sampler]
    bounds = bounds_of(args.n, args.q)
    # The GoF's arguments, and flags that would be ignored, are checked
    # before any draw.
    if args.gof:
        if args.format is not None:
            raise ValueError("--format does not apply with --gof, whose report is JSON")
        alpha = _setting(args.alpha, "FINDEP_ALPHA", 0.001, float)
        budget = _setting(args.budget, "FINDEP_BUDGET", DEFAULT_BUDGET)
        _check_alpha(alpha)
        exact = cycle_law(args.n, args.q, budget=budget)
        need = min_gof_samples(exact)
        if args.reps < need:
            raise ValueError(f"--gof pools {args.reps} draws into one cell, which tests "
                             f"nothing; two cells need --reps >= {need}")
    else:
        for flag, value in (("--alpha", args.alpha), ("--budget", args.budget)):
            if value is not None:
                raise ValueError(f"{flag} applies only with --gof")
    # Row r holds RngStream(seed, r).indices(bounds): replicate r draws from
    # stream r. A block's words become text at once, and are kept only as
    # text, a fraction of a Word's memory.
    texts = []
    for block in _replicate_blocks(seed, args.reps, bounds):
        texts += row_texts(words_of(args.n, args.q, block), args.q)

    sample_meta = {
        "schema": _SCHEMA_SAMPLES,
        "sampler": args.sampler,
        "n": args.n,
        "q": args.q,
        "reps": args.reps,
        "seed": seed,
    }
    if not args.gof:
        if args.format == "json":
            doc = {**sample_meta, "words": texts}
            _write(json.dumps(doc, indent=2) + "\n", args.out)
        elif args.format == "csv":
            _write("word\n" + "".join(t + "\n" for t in texts), args.out)
        else:
            _write("".join(t + "\n" for t in texts), args.out)
        return EXIT_OK

    # With --gof the report is the data product; samples are only persisted
    # if --out was given.
    if args.out:
        _write("".join(t + "\n" for t in texts), args.out)
    counts = {Word.parse(t, args.q): c for t, c in Counter(texts).items()}
    report = chi_square_gof(counts, exact, alpha=alpha)
    doc = {"schema": _SCHEMA_GOF, **{k: v for k, v in sample_meta.items() if k != "schema"},
           **asdict(report)}
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
    single = (args.n, args.q, args.k) != (None, None, None)
    if single and args.suite != "kdep":
        raise ValueError("--n/--q/--k apply only to 'verify kdep'")
    if single and args.max_n is not None:
        raise ValueError("verify kdep takes --max-n or --n/--q/--k, not both")
    if single:
        q = args.q if args.q is not None else 3
        k = args.k if args.k is not None else (2 if q == 3 else 1)
        report = kdep_report(args.n if args.n is not None else 6, q, k)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="findep",
        description="Exact laws, samplers, and verification for finitely "
        "dependent proper colorings of cycles and lines.",
        epilog="Environment: FINDEP_BUDGET, FINDEP_SEED, FINDEP_ALPHA supply "
        "defaults; flags override. Exit codes: 0 ok, 1 verification failure, "
        "2 usage error, 3 budget exceeded.",
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
        p.add_argument("--budget", type=int, default=None,
                       help=f"max states to enumerate (default {DEFAULT_BUDGET})")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write to file instead of stdout")
        p.set_defaults(func=_cmd_exact)

    p_sample = sub.add_parser("sample", help="draw sampler replicates")
    p_sample.add_argument("sampler", choices=("necklace", "eden"))
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--q", type=int, required=True)
    p_sample.add_argument("--reps", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=None)
    p_sample.add_argument("--gof", action="store_true",
                          help="chi-square the samples against the exact law; "
                          "exit 0 on pass, 1 on fail")
    p_sample.add_argument("--alpha", type=float, default=None,
                          help="GoF significance level (default 0.001)")
    p_sample.add_argument("--budget", type=int, default=None)
    p_sample.add_argument("--format", choices=("text", "json", "csv"), default=None,
                          help="sample output format (default text); not with --gof")
    p_sample.add_argument("--out", default=None)
    p_sample.set_defaults(func=_cmd_sample)

    p_verify = sub.add_parser("verify", help="run exact verification suites")
    p_verify.add_argument("suite", choices=sorted(SUITES) + ["all"])
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


if __name__ == "__main__":
    sys.exit(main())
