"""Span tracer that wraps findep's public functions from outside the package.

``Tracer.install`` replaces each function in ``TARGETS`` (and each suite in
``SUITE_NAMES``) with a wrapper, and rebinds the wrapper wherever findep looks
the name up: the defining module, every findep module that imported it by
name, and dicts held as module globals (``suites.SUITES``). A name that no
longer exists raises at install time, so a layer cannot silently read zero.

Each wrapped call opens a span with a name, a start and a parent (the span
below it on its thread's stack). When the span closes, its duration minus the
durations of the spans it contains is added to the name's self time. Spans are
aggregated as they close rather than stored, because one command opens up to
a few hundred thousand of them. Durations use the calling thread's CPU clock:
the sampler runs on a thread pool, and with the interpreter lock a wall clock
would charge a thread's wait for the lock, and the main thread's wait for the
pool, as busy time.

``RngStream.index`` runs about a million times per workload at about 3 us a
call, so its calls are counted but not timed; its time shows in its callers'
self time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict

MODULES = ("recurrence", "dist", "analysis", "growth", "chains", "suites", "cli")

# (module, attribute path, timed)
TARGETS = (
    ("recurrence", "cycle_law", True),
    ("recurrence", "line_window_law", True),
    ("recurrence", "z_circ", True),
    ("recurrence", "b_circ", True),
    ("dist", "ExactDist.from_weights", True),
    ("dist", "ExactDist.to_json_entries", True),
    ("dist", "Kernel.push", True),
    ("analysis", "k_dependence_counterexample", True),
    ("analysis", "symmetry_check", True),
    ("analysis", "pushforward", True),
    ("analysis", "marginalize", True),
    ("analysis", "chi_square_gof", True),
    ("growth", "necklace_sample", True),
    ("growth", "eden_sample", True),
    ("growth", "RngStream.__init__", True),
    ("growth", "RngStream.index", False),
    ("growth", "validate_eden_state", True),
    ("growth", "coupling_kernel", True),
    ("growth", "eden_vs_necklace_kernel_check", True),
    ("chains", "j_kernel", True),
    ("chains", "q_kernel", True),
    ("chains", "chain_law", True),
    ("cli", "main", True),
)

# Keys of suites.SUITES; each suite is traced as "suites.<key>".
SUITE_NAMES = (
    "partition",
    "mobius",
    "shift",
    "symmetry",
    "restriction",
    "window",
    "kdep",
    "coupling",
    "marginals",
    "kernels",
    "blockfactor-stat",
)

COUNTERS = (
    "recurrence.states_materialized",  # len of each law returned for the first time
    "recurrence.law_cache_hits",  # law calls returning an object returned before
    "analysis.gof_cells",  # pooled cells of each GoF report
)


def label(module: str, path: str) -> str:
    return f"{module}.{path.replace('__init__', 'init')}"


def spans() -> list[tuple[str, bool]]:
    """(label, timed) for every wrapped function, in report order."""
    out = [(label(m, p), timed) for m, p, timed in TARGETS]
    out += [(f"suites.{name}", True) for name in SUITE_NAMES]
    return out


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every value in ``Tracer.report`` plus the per-module totals."""
    names = []
    for name, timed in spans():
        names.append((f"{name}.calls", "count"))
        if timed:
            names.append((f"{name}.self_s", "s"))
    names += [(f"{m}.self_s", "s") for m in MODULES]
    names += [(c, "count") for c in COUNTERS]
    return names


class _Book:
    """One thread's span stack and per-name [calls, self seconds]."""

    __slots__ = ("stack", "stats")

    def __init__(self):
        self.stack: list[float] = []
        self.stats = defaultdict(lambda: [0, 0.0])


class Tracer:
    def __init__(self):
        self._tls = threading.local()
        self._books: list[_Book] = []
        self._books_lock = threading.Lock()
        self._counted: dict[str, itertools.count] = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._laws: dict[int, object] = {}  # id -> law; kept alive so ids stay unique
        self.originals: dict[str, object] = {}  # label -> unwrapped function

    def _book(self) -> _Book:
        book = _Book()
        self._tls.book = book
        with self._books_lock:
            self._books.append(book)
        return book

    def _timed(self, name, fn, after=None):
        tls = self._tls
        new_book = self._book
        clock = time.thread_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            book = getattr(tls, "book", None) or new_book()
            stack = book.stack
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                inner = stack.pop()
                stat = book.stats[name]
                stat[0] += 1
                stat[1] += duration - inner
                if stack:
                    stack[-1] += duration
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counting(self, name, fn):
        # next() on an itertools.count is a single C call, so concurrent
        # threads cannot lose an increment.
        counter = self._counted[name] = itertools.count()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        return wrapper

    def _law_returned(self, law):
        if id(law) in self._laws:
            self.counters["recurrence.law_cache_hits"] += 1
        else:
            self._laws[id(law)] = law
            self.counters["recurrence.states_materialized"] += len(law)

    def _gof_returned(self, report):
        self.counters["analysis.gof_cells"] += report.n_cells

    def _wrap(self, name, fn, timed):
        self.originals[name] = fn
        if not timed:
            return self._counting(name, fn)
        after = {
            "recurrence.cycle_law": self._law_returned,
            "recurrence.line_window_law": self._law_returned,
            "analysis.chi_square_gof": self._gof_returned,
        }.get(name)
        return self._timed(name, fn, after)

    def install(self) -> None:
        """Wrap every target and rebind it at every findep lookup site."""
        mods = {m: importlib.import_module(f"findep.{m}") for m in MODULES}
        replace: dict[int, object] = {}  # id(original) -> wrapper
        for module, path, timed in TARGETS:
            name = label(module, path)
            owner = mods[module]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            if cls_path:
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(name, raw.__func__, timed)))
                else:
                    setattr(owner, attr, self._wrap(name, raw, timed))
            else:
                fn = getattr(owner, attr)
                replace[id(fn)] = self._wrap(name, fn, timed)
        for key in SUITE_NAMES:
            fn = mods["suites"].SUITES[key]
            replace[id(fn)] = self._wrap(f"suites.{key}", fn, True)
        for mod in [m for n, m in sys.modules.items() if n == "findep" or n.startswith("findep.")]:
            for attr, value in list(vars(mod).items()):
                if id(value) in replace:
                    setattr(mod, attr, replace[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in replace:
                            value[k] = replace[id(v)]

    def report(self) -> dict:
        """Per-name calls and self seconds over all threads, per-module self
        seconds, and the counters; read once, at the end of the command."""
        out = {}
        for name, timed in spans():
            calls, self_s = 0, 0.0
            if timed:
                for book in self._books:
                    stat = book.stats.get(name)
                    if stat:
                        calls += stat[0]
                        self_s += stat[1]
                out[f"{name}.self_s"] = self_s
            else:
                calls = next(self._counted[name])  # the count of earlier next() calls
            out[f"{name}.calls"] = calls
        for m in MODULES:
            out[f"{m}.self_s"] = sum(
                v for k, v in out.items() if k.startswith(f"{m}.") and k.endswith(".self_s")
            )
        out.update(self.counters)
        return out
