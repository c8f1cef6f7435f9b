#!/usr/bin/env python3
"""Benchmark of the findep command line; see perfbench/README.md.

    python3 perfbench/run.py --workload exact --seed 0 --seconds 10 --trace 0

Runs the workload's commands as cold ``python -m findep`` child processes, one
at a time from this one process (closed loop, one client), with every
``FINDEP_*`` variable unset. The list of commands is one pass; passes repeat
while the next one, taking as long as the last, would end within --seconds.
Every output is checked. With --trace 0 the metrics are the end-to-end ones;
with --trace 1 each pass runs untraced and then traced (tracer.py), and the
metrics are the per-layer split plus the tracing overhead. ``--workload all``
runs every workload and reports each one's metrics under its name.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

from tracer import metric_names
from workloads import DEFAULT_SEED, WORKLOADS, Command

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# name -> unit; BENCHMARK.json lists the same names and units.
END_TO_END = {
    "wall_s": "s",  # spawn to exit, summed over a pass's commands
    "cpu_s": "s",  # user + system time of those children
    "peak_rss_mb": "MiB",  # largest ru_maxrss of one child
    "setup_s": "s",  # spawn until `import findep` returns
    "items_per_s": "1/s",  # states, cases or draws a pass outputs, over wall_s
}
PER_LAYER = dict(metric_names(), **{"trace.overhead_frac": "ratio"})

SETUP_SPAWNS = 5
SETUP_PROBE = "import findep, time; print(time.monotonic())"
RUN_LIMIT_S = 170  # a run must end within 180 s

ENV = {k: v for k, v in os.environ.items() if not k.startswith("FINDEP_")}
ENV["PYTHONPATH"] = str(SRC)


def spawn(argv: list[str], tmp: Path, deadline: float):
    """Run argv to exit, killed at ``deadline``; (code, start, end, rusage, stdout, stderr).

    os.wait4 gives this child's own rusage; RUSAGE_CHILDREN would accumulate
    over every child so far. The child's ru_maxrss starts from this process's
    RSS at the spawn, so this process must stay smaller than any child.
    """
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=ENV)
        killer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted, as by SIGTERM: stop the child too
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, end, usage, out_path.read_bytes(), err_path.read_bytes()


def run_command(cmd: Command, tmp: Path, deadline: float, traced: bool = False) -> dict:
    stats_path = tmp / "stats.json"
    if traced:
        prefix = [sys.executable, str(HERE / "traced_main.py"), str(stats_path)]
        stats_path.unlink(missing_ok=True)
    else:
        prefix = [sys.executable, "-m", "findep"]
    code, start, end, usage, out, err = spawn(prefix + list(cmd.argv), tmp, deadline)
    res = {
        "wall_s": end - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "items": 0,
        "sha256": hashlib.sha256(out).hexdigest(),
        "error": None,
    }
    try:
        res["items"] = cmd.check(code, out)
    except Exception as exc:  # any error on the program's output fails the command
        last = err.decode(errors="replace").strip().splitlines()[-1:]
        res["error"] = f"{cmd.text}: {exc!r} stderr={last}"
    if traced:
        try:
            res["stats"] = json.loads(stats_path.read_text())
        except (OSError, ValueError) as exc:
            res["stats"] = {}
            res["error"] = res["error"] or f"{cmd.text}: no trace stats ({exc})"
    return res


def repeat(one_pass, seconds: float, deadline: float) -> list:
    """Run passes while the next one, as long as the last, ends in time; at least one."""
    limit = min(time.monotonic() + seconds, deadline)
    results = []
    while True:
        begin = time.monotonic()
        results.append(one_pass())
        now = time.monotonic()
        if now + (now - begin) > limit:
            return results


def measure_setup(tmp: Path, deadline: float) -> float:
    """Median over SETUP_SPAWNS spawns of the time from spawn until `import findep` returns."""
    times = []
    for i in range(SETUP_SPAWNS + 1):
        code, start, _, _, out, err = spawn([sys.executable, "-c", SETUP_PROBE], tmp, deadline)
        if code != 0:
            raise RuntimeError(f"import findep failed: {err.decode(errors='replace')}")
        if i:  # the first spawn warms bytecode and page caches
            times.append(float(out) - start)
    return statistics.median(times)


def end_to_end(passes: list[list[dict]], setup_s: float) -> dict:
    walls = [sum(r["wall_s"] for r in p) for p in passes]
    values = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(sum(r["cpu_s"] for r in p) for p in passes),
        "peak_rss_mb": max(r["rss_mb"] for p in passes for r in p),
        "setup_s": setup_s,
        "items_per_s": statistics.median(
            sum(r["items"] for r in p) / w for p, w in zip(passes, walls)
        ),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(pairs: list[tuple[list[dict], list[dict]]]) -> dict:
    per_pair = []
    for plain, traced in pairs:
        values = {k: sum(r["stats"].get(k, 0) for r in traced) for k in PER_LAYER}
        values["trace.overhead_frac"] = (
            sum(r["wall_s"] for r in traced) / sum(r["wall_s"] for r in plain) - 1
        )
        per_pair.append(values)
    return {
        k: {"value": statistics.median(v[k] for v in per_pair), "unit": unit}
        for k, unit in PER_LAYER.items()
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[dict]]:
    """(metrics, every command result) for one workload."""
    cmds = WORKLOADS[name](seed)
    deadline = time.monotonic() + RUN_LIMIT_S
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp_dir:
        tmp = Path(tmp_dir)
        if not trace:
            setup_s = measure_setup(tmp, deadline)
            passes = repeat(
                lambda: [run_command(c, tmp, deadline) for c in cmds], seconds, deadline
            )
            return end_to_end(passes, setup_s), [r for p in passes for r in p]

        def pair():
            plain = [run_command(c, tmp, deadline) for c in cmds]
            traced = [run_command(c, tmp, deadline, traced=True) for c in cmds]
            for c, p, t in zip(cmds, plain, traced):
                if p["sha256"] != t["sha256"] and not t["error"]:
                    t["error"] = f"{c.text}: traced output differs from untraced output"
            return plain, traced

        pairs = repeat(pair, seconds, deadline)
        return per_layer(pairs), [r for p in pairs for half in p for r in half]


def environment() -> str:
    def version(pkg: str) -> str:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "unknown"

    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return (
        f"nproc={os.cpu_count()} python={sys.version.split()[0]} numpy={version('numpy')} "
        f"scipy={version('scipy')} commit={commit}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through SystemExit, so that children are stopped and files removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "findep" / "__init__.py").is_file():
        print(f"perfbench: no findep sources under {SRC}", file=sys.stderr)
        return 2

    print(f"# perfbench seed={args.seed} trace={args.trace} {environment()}", flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, results = {}, []
    for name in names:
        m, r = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for k, v in m.items():
            print(f"{name:12s} {k:48s} {v['value']:14.6g} {v['unit']}")
            metrics[k if len(names) == 1 else f"{name}.{k}"] = v
        bad = sum(1 for x in r if x["error"])
        print(f"{name:12s} {'failed_ops_frac':48s} {bad / len(r):14.6g} ({bad} of {len(r)} commands)")
        results += r
    failed = [r["error"] for r in results if r["error"]]
    for error in failed:
        print(f"FAILED {error}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(results),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
