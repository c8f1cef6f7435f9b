"""Self-tests of the benchmark: tracer wiring, traced output, output checks.

Run with  python -m pytest perfbench/tests/check_perfbench.py  (about two
minutes; the file name keeps it out of the repository's default test run).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402

# Each wrapped function or counter, and the workload on which it must record calls.
EXPECTED_ON = {
    "exact": [
        "recurrence.cycle_law",
        "recurrence.line_window_law",
        "dist.ExactDist.from_weights",
        "dist.ExactDist.to_json_entries",
        "cli.main",
        "recurrence.states_materialized",
    ],
    "verify": [
        "recurrence.cycle_law",
        "recurrence.z_circ",
        "recurrence.b_circ",
        "recurrence.law_cache_hits",
        "dist.Kernel.push",
        "analysis.k_dependence_counterexample",
        "analysis.symmetry_check",
        "analysis.pushforward",
        "analysis.marginalize",
        "growth.coupling_kernel",
        "growth.eden_vs_necklace_kernel_check",
        "chains.j_kernel",
        "chains.q_kernel",
        "chains.chain_law",
    ]
    + [f"suites.{name}" for name in tracer.SUITE_NAMES],
    "sample-gof": [
        "analysis.chi_square_gof",
        "analysis.gof_cells",
        "growth.necklace_sample",
        "growth.eden_sample",
        "growth.RngStream.init",
        "growth.RngStream.index",
    ],
    "sample-long": [
        "growth.necklace_sample",
        "growth.eden_sample",
        "growth.validate_eden_state",
    ],
}


def run_cli(argv: list[str], traced_stats: Path | None = None) -> subprocess.CompletedProcess:
    if traced_stats is None:
        prefix = [sys.executable, "-m", "findep"]
    else:
        prefix = [sys.executable, str(HERE / "traced_main.py"), str(traced_stats)]
    return subprocess.run(
        prefix + argv, capture_output=True, cwd=run.ROOT, env=run.ENV, timeout=170
    )


def test_benchmark_json_lists_every_metric_and_workload():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def test_expected_map_covers_every_span_and_counter():
    named = {name for names in EXPECTED_ON.values() for name in names}
    assert named == {name for name, _ in tracer.spans()} | set(tracer.COUNTERS)


@pytest.fixture(scope="module")
def installed():
    t = tracer.Tracer()
    t.install()
    return t


def test_wrappers_are_bound_at_every_lookup_site(installed):
    import findep
    from findep import chains, cli, dist, growth, suites

    def wraps(obj, name):
        return getattr(obj, "__wrapped__", None) is installed.originals[name]

    assert wraps(suites.cycle_law, "recurrence.cycle_law")
    assert wraps(cli.cycle_law, "recurrence.cycle_law")
    assert wraps(findep.cycle_law, "recurrence.cycle_law")
    assert wraps(cli.necklace_sample, "growth.necklace_sample")
    assert wraps(cli.eden_sample, "growth.eden_sample")
    assert wraps(cli.chi_square_gof, "analysis.chi_square_gof")
    assert wraps(growth.b_circ, "recurrence.b_circ")
    assert wraps(chains.line_window_law, "recurrence.line_window_law")
    assert wraps(cli.main, "cli.main")
    assert wraps(dist.ExactDist.from_weights.__func__, "dist.ExactDist.from_weights")
    assert wraps(growth.RngStream.index, "growth.RngStream.index")
    for key in tracer.SUITE_NAMES:
        original = installed.originals[f"suites.{key}"]
        assert wraps(suites.SUITES[key], f"suites.{key}")
        # run_all calls the suites through the module globals
        assert wraps(getattr(suites, original.__name__), f"suites.{key}")

    originals = {id(fn) for fn in installed.originals.values()}
    stale = []
    for name, mod in list(sys.modules.items()):
        if name != "findep" and not name.startswith("findep."):
            continue
        for attr, value in vars(mod).items():
            if id(value) in originals:
                stale.append(f"{name}.{attr}")
            if isinstance(value, dict):
                stale += [f"{name}.{attr}[{k!r}]" for k, v in value.items() if id(v) in originals]
    assert stale == []


SMALL_COMMANDS = [
    "exact cycle --n 6 --q 3",
    "exact line --n 5 --k 1 --q 4 --format csv",
    "verify all --max-n 4",
    "verify kdep --n 6 --q 4 --k 1",
    "sample necklace --n 7 --q 3 --reps 3000 --seed 5 --gof",
    "sample eden --n 30 --q 3 --reps 5 --seed 5",
]


@pytest.mark.parametrize("args", SMALL_COMMANDS)
def test_traced_output_is_byte_identical(args, tmp_path):
    plain = run_cli(args.split())
    traced = run_cli(args.split(), tmp_path / "stats.json")
    assert traced.returncode == plain.returncode
    assert traced.stdout == plain.stdout
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert stats["cli.main.calls"] == 1


@pytest.mark.parametrize("workload", list(EXPECTED_ON))
def test_every_wrapped_function_records_calls_on_its_workload(workload, tmp_path):
    totals: dict[str, float] = {}
    deadline = time.monotonic() + 170
    for cmd in workloads.WORKLOADS[workload](workloads.DEFAULT_SEED):
        res = run.run_command(cmd, tmp_path, deadline, traced=True)
        assert res["error"] is None
        for k, v in res["stats"].items():
            totals[k] = totals.get(k, 0) + v
    assert set(totals) == set(run.PER_LAYER) - {"trace.overhead_frac"}
    silent = [
        name
        for name in EXPECTED_ON[workload]
        if not totals.get(name if name in tracer.COUNTERS else f"{name}.calls")
    ]
    assert silent == []


def command(workload: str, prefix: str) -> workloads.Command:
    (cmd,) = [c for c in workloads.WORKLOADS[workload](0) if c.text.startswith(prefix)]
    return cmd


def test_flipped_byte_in_exact_dump_is_flagged():
    cmd = command("exact", "exact cycle --n 14")
    out = run_cli(list(cmd.argv)).stdout
    assert cmd.check(0, out) == 16380
    flipped = bytearray(out)
    flipped[len(out) // 2] ^= 1
    with pytest.raises(CheckFailed):
        cmd.check(0, bytes(flipped))
    with pytest.raises(CheckFailed):
        cmd.check(1, out)


def test_verify_report_with_missing_cases_is_flagged():
    cmd = command("verify", "verify all")
    res = run_cli(list(cmd.argv))
    assert cmd.check(res.returncode, res.stdout) == sum(workloads.VERIFY_ALL_CASES.values())
    doc = json.loads(res.stdout)

    def mutated(edit) -> bytes:
        d = json.loads(json.dumps(doc))
        edit(d)
        return json.dumps(d).encode()

    def drop_cases(d):
        d["reports"][5]["cases"] = []

    def drop_suite(d):
        del d["reports"][2]

    def fail_another(d):
        d["reports"][0]["cases"][0]["passed"] = False

    for edit in (drop_cases, drop_suite, fail_another):
        with pytest.raises(CheckFailed):
            cmd.check(1, mutated(edit))
    with pytest.raises(CheckFailed):
        cmd.check(0, res.stdout)


def test_sampler_checks_flag_wrong_output():
    words = workloads._words("necklace", 5, 3, 2, 7)
    assert words.check(0, b"12123\n21313\n") == 2
    for bad in (b"12123\n", b"12123\n21312\n", b"12123\n21341\n", b"12123\n2131\n"):
        with pytest.raises(CheckFailed):
            words.check(0, bad)

    gof = workloads._gof("necklace", 7, 3, 100, 7)
    doc = {"schema": "findep.gof/1", "sampler": "necklace", "n": 7, "q": 3, "seed": 7,
           "n_samples": 100, "passed": True, "p_value": 0.5}
    assert gof.check(0, json.dumps(doc).encode()) == 100
    for edit, rc in (({"n_samples": 99}, 0), ({"p_value": 1e-9, "passed": False}, 1),
                     ({}, 1)):
        with pytest.raises(CheckFailed):
            gof.check(rc, json.dumps({**doc, **edit}).encode())


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
