"""Run one findep CLI command in a fresh interpreter with the span tracer installed.

    PYTHONPATH=src python perfbench/traced_main.py STATS.json exact cycle --n 6 --q 3

Writes to stdout exactly what ``python -m findep ARGV...`` writes, exits with
the same code, and writes ``Tracer.report()`` to STATS.json.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import findep.cli  # after install, findep.cli.main is the wrapper

    try:
        return findep.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(), fh)


if __name__ == "__main__":
    sys.exit(main())
