"""CLI contract: flags, formats, exit codes, determinism, env precedence."""

import hashlib
import importlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import findep
from findep import cli, recurrence
from findep.cli import main
from findep.dist import ExactDist
from findep.recurrence import cycle_law, is_theorem_grade, line_window_law
from findep.words import decode_codes, row_texts


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exact_cycle_json(capsys):
    code, out, _ = run(capsys, "exact", "cycle", "--n", "3", "--q", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "findep.dist/1"
    assert doc["kind"] == "cycle"
    assert doc["total_states"] == 6
    assert all(e["num"] == "1" and e["den"] == "6" for e in doc["states"])


def test_exact_line_json(capsys):
    code, out, _ = run(capsys, "exact", "line", "--n", "2", "--k", "1", "--q", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "line-window"
    assert doc["theorem_grade"] is True
    assert doc["total_states"] == 12
    assert all(e["den"] == "12" for e in doc["states"])


def test_exact_line_formal_flagged(capsys):
    code, out, _ = run(capsys, "exact", "line", "--n", "2", "--k", "1", "--q", "5")
    assert code == 0
    assert json.loads(out)["theorem_grade"] is False


def test_exact_rejects_small_q(capsys):
    code, _, err = run(capsys, "exact", "cycle", "--n", "3", "--q", "2")
    assert code == 2
    assert "q >= 3" in err


def test_exact_budget_exceeded(capsys):
    code, _, err = run(capsys, "exact", "cycle", "--n", "10", "--q", "4", "--budget", "100")
    assert code == 3
    assert "budget" in err


def test_exact_csv_to_file(tmp_path, capsys):
    out_file = tmp_path / "law.csv"
    code, out, _ = run(
        capsys, "exact", "cycle", "--n", "3", "--q", "3",
        "--format", "csv", "--out", str(out_file),
    )
    assert code == 0
    assert out == ""
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "state,num,den"
    assert len(lines) == 7


# sha256 of `findep exact <args>` stdout, recorded before the dumps were
# written straight from the dense count arrays (the q = 5 dump before levels
# were built by broadcasting); the output is a stable contract.
EXACT_SHA256 = {
    "cycle --n 0 --q 3": "1632e32669088997ed4eb23cbb3bf37b66c2a447cadb49a18a08fd94806928b0",
    "cycle --n 0 --q 3 --format csv": "89def45b6cb84a944700f0cedcf47f698a12a9ff07818e218bdb70253128f28e",
    "cycle --n 0 --q 4": "75e4c1c41bb04318084f0eaf543f881abcb302da871d662c05063d52a8818be6",
    "cycle --n 0 --q 4 --format csv": "89def45b6cb84a944700f0cedcf47f698a12a9ff07818e218bdb70253128f28e",
    "cycle --n 0 --q 11": "00a992d1d0896c4a9bc213e6784603c3166fa4cacbe9c29e9f54ee6a8c4088a4",
    "cycle --n 0 --q 11 --format csv": "89def45b6cb84a944700f0cedcf47f698a12a9ff07818e218bdb70253128f28e",
    "cycle --n 1 --q 3": "4e56d72e2d57aa2446bd2735aceb7c878e04bf3a9faae94123f4a499909c8dcf",
    "cycle --n 1 --q 3 --format csv": "0c2cd2a652ed17ddc8f6960b502e722072c7949c4fae03bf347f327039f53550",
    "cycle --n 1 --q 4": "5d0fb53981399adbb9adcaf34244ecfb1030593c5edee5b65b579a4db173c164",
    "cycle --n 1 --q 4 --format csv": "c4431e960c64584538793090515029d4447c79068397a99f6cc3b719b3ff7c0a",
    "cycle --n 1 --q 11": "90343064651215c9c5c24f3148f2292b5945e36b3549b7ede972d1d68a1e2950",
    "cycle --n 1 --q 11 --format csv": "709f5cf5500d0913b7dab4fc1af9fd3b25c530b3876e4f3e0a8a1387686b70bf",
    "cycle --n 2 --q 3": "2e847b72fe1d3e1bce8ce937abab3f7abe81061b3ff6bf20011ca1149b65c4d1",
    "cycle --n 2 --q 3 --format csv": "a9645432c1f16650d03ad41bdf51ff4896b53873407a1cffe6322ff5e63b323b",
    "cycle --n 2 --q 4": "50fe98f96e25e465dc560d2fb03ee14f04fda9ce2d43297b6f60aeb181e24fbc",
    "cycle --n 2 --q 4 --format csv": "7b439a6d08f0f6e351156a849bcfd600f414f249abd7cf9126b00d0d9661423f",
    "cycle --n 2 --q 11": "aa1d8a0e56afc921c22125d2c011cc0aae5574f1892a721b61731c668b35a0c7",
    "cycle --n 2 --q 11 --format csv": "24c5aa970abc27650eca74f2359063e1646d68212634832da584ef4cbf0601a2",
    "cycle --n 5 --q 3": "54785e2a808005a7c69b3853b9d18d083f893dbeb50439318a846c7632364a19",
    "cycle --n 5 --q 3 --format csv": "ac02d1af24caa7e816d20e8a76375bdf6081989504cddfe97fb451c24cf6ef4a",
    "cycle --n 5 --q 4": "12f70fff84682243ee2b53d72f90046a7ffc7890c1684e842521d65cb77478b6",
    "cycle --n 5 --q 4 --format csv": "a31551137707e99720ef3779f39326d9b8040cb1fba3504b50faac75f581c340",
    "cycle --n 5 --q 11": "bd13c58f94bb6c7e8f68c080d950f37aa9224ae55ae72baa0ac9defd3eb42d75",
    "cycle --n 5 --q 11 --format csv": "f83b3905b7623d3da94e8259294319dea4b85074dc5deec02a627f030688fae8",
    "cycle --n 8 --q 5": "9b97681a05fa996188871670c5749fa8c7564956c87dcc7503a59147bcfd3f5c",
    "line --n 4 --k 1 --q 4": "130a9a223fb696b143cc7dd913aea7cb7474fc377029fbf1910da23b051d8390",
    "line --n 3 --k 1 --q 12 --format csv":
        "ef84c26116eac1755776d0c585a8f8dc638215f6f9a544f272573a84c5af98c6",
}


@pytest.mark.parametrize("args", sorted(EXACT_SHA256))
def test_exact_output_is_pinned(capsys, args):
    code, out, _ = run(capsys, "exact", *args.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXACT_SHA256[args]


# sha256 of the perfbench-sized dumps (perfbench/workloads.py
# RECORDED_SHA256), pinned by digest only: the Fraction serializer would
# take too long at 177k states.
LARGE_EXACT_SHA256 = {
    "cycle --n 11 --q 4": "9c8b465cc958b42d092427f83aac55d2ec27160e679f91d00efe4b7727ab494b",
    "line --n 10 --k 1 --q 4 --format csv":
        "5588961ae036d6b7d349522342f4076b909b08d470fb3387ab093fdbe3c94d75",
    "cycle --n 14 --q 3": "e352c3768c4807d3353736b65feb80a030521e8ff3ee30e8449691a677a4c982",
    # Recorded from the whole-level dump, before dumps were streamed by
    # first-color slice: several slices per law, and for q > 9 slices
    # walked in the str order of their first symbol.
    "cycle --n 13 --q 4 --budget 100000000":
        "90bb2117effd367d8925e906d6cca847909282fd28db4ac05a089f2c53069000",
    "cycle --n 9 --q 6 --budget 100000000":
        "8744dffa2f03aa74727cc48485b5c4446ac01bb70ca2cac115ff54888f447223",
    "cycle --n 6 --q 10 --format csv":
        "f1d3341da29ee8a92a7fb00b640aa4d18ea6d7d3f8b5658990dc58a254baa216",
    "line --n 5 --k 1 --q 11": "bfbb271c6cb2f33701a2790d50d9007645b3091c19f93dc4faea381b49f1315a",
}


@pytest.mark.parametrize("args", sorted(LARGE_EXACT_SHA256))
def test_large_exact_output_is_pinned(capsys, args):
    code, out, _ = run(capsys, "exact", *args.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_EXACT_SHA256[args]


def test_exact_never_scatters_a_dense_level(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("findep exact scattered a dense (q,)*n level")

    monkeypatch.setattr(recurrence, "_counts_view", boom)
    monkeypatch.setattr(recurrence, "_LEVEL_CACHE", {})
    for args in ("cycle --n 8 --q 5", "line --n 3 --k 1 --q 12 --format csv"):
        code, out, _ = run(capsys, "exact", *args.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == EXACT_SHA256[args]
    code, out, _ = run(capsys, "exact", *"line --n 10 --k 1 --q 4 --format csv".split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_EXACT_SHA256[
        "line --n 10 --k 1 --q 4 --format csv"]


def test_exact_allocates_far_less_than_the_dense_level(tmp_path, monkeypatch):
    # The dense view of (14, 3) holds 3**14 int64 counts, 38 MB; the
    # encoded level 14 holds 3 * 2**13 and the dump 16,380 states. numpy
    # reports its buffers to tracemalloc.
    monkeypatch.setattr(recurrence, "_LEVEL_CACHE", {})
    out_file = tmp_path / "law.json"
    tracemalloc.start()
    try:
        code = main(["exact", "cycle", "--n", "14", "--q", "3", "--out", str(out_file)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
    assert digest == LARGE_EXACT_SHA256["cycle --n 14 --q 3"]
    assert peak < 3**14 * 8 // 2, peak


def test_exact_to_file_allocates_less_than_its_states_as_python_objects(tmp_path, monkeypatch):
    # 177,040 states: holding them all as int32 symbol rows and Python-int
    # counts traces about 23 MiB. Streamed from the sorted codes, the dump
    # holds one slice's codes and counts and one block's rows and texts at a
    # time. With the levels below n built before tracing, that peaks at
    # 2.5 MiB. Keeping a slice and its last block alive while the next slice
    # is computed peaks at 3.3 MiB, over the bound.
    monkeypatch.setattr(recurrence, "_LEVEL_CACHE", {})
    recurrence._levels(4, True, 10)
    out_file = tmp_path / "law.json"
    tracemalloc.start()
    try:
        code = main(["exact", "cycle", "--n", "11", "--q", "4", "--out", str(out_file)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
    assert digest == LARGE_EXACT_SHA256["cycle --n 11 --q 4"]
    assert peak < 3 * 2**20, peak


@pytest.mark.parametrize("args,limit", [
    # Whole-level codes, cells, argsort and counts traced 9.3 MiB at (11, 4)
    # and 80 MiB at (13, 4); one slice of level n at a time traces about
    # 4 MiB and 34 MiB, most of it the cached levels below n.
    ("cycle --n 11 --q 4", 6 * 2**20),
    ("cycle --n 13 --q 4 --budget 100000000", 40 * 2**20),
])
def test_exact_to_file_holds_one_slice_of_the_law(tmp_path, monkeypatch, args, limit):
    monkeypatch.setattr(recurrence, "_LEVEL_CACHE", {})
    out_file = tmp_path / "law.json"
    tracemalloc.start()
    try:
        code = main(["exact", *args.split(), "--out", str(out_file)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == LARGE_EXACT_SHA256[args]
    assert peak < limit, peak


@pytest.mark.parametrize("block", [1, 7, 2**12, 2**14])
def test_exact_output_is_pinned_at_every_block_size(capsys, monkeypatch, block):
    # A block of 1 puts every state at a seam; 7 leaves a short last block.
    monkeypatch.setattr(cli, "_DUMP_BLOCK", block)
    for args, digest in EXACT_SHA256.items():
        code, out, _ = run(capsys, "exact", *args.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args


@pytest.mark.parametrize("q,top", [(10, 4), (11, 4), (12, 4), (23, 3)])
def test_text_order_sorts_codes_as_their_comma_joined_texts(q, top):
    for n in range(top + 1):
        codes = np.arange(q**n, dtype=np.int32)
        texts = row_texts(decode_codes(codes, n, q) + 1, q)
        order = cli._text_order(codes, n, q)
        assert [texts[i] for i in order] == sorted(texts), (q, n)


def _oracle_dump(args: str) -> str:
    """The dump as json.dumps / CSV of the law's ``to_json_entries``."""
    a = cli.build_parser().parse_args(["exact", *args.split()])
    if a.law == "cycle":
        law = cycle_law(a.n, a.q)
        meta = {"kind": "cycle", "n": a.n, "q": a.q}
    else:
        law = line_window_law(a.n, a.k, a.q)
        meta = {"kind": "line-window", "n": a.n, "k": a.k, "q": a.q,
                "theorem_grade": is_theorem_grade(a.k, a.q)}
    entries = law.to_json_entries()
    if a.format == "csv":
        return "state,num,den\n" + "".join(f"{e['state']},{e['num']},{e['den']}\n" for e in entries)
    doc = {"schema": "findep.dist/1", **meta, "total_states": len(entries), "states": entries}
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("args", sorted(EXACT_SHA256))
def test_exact_output_matches_exact_dist_serializer(capsys, args):
    code, out, _ = run(capsys, "exact", *args.split())
    assert code == 0
    assert out == _oracle_dump(args)


def test_exact_builds_no_law_objects(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("findep exact built an ExactDist")

    for name in ("cycle_law", "line_window_law"):
        monkeypatch.setattr(recurrence, name, boom)
        monkeypatch.setattr(cli, name, boom, raising=False)
    monkeypatch.setattr(ExactDist, "from_weights", boom)
    monkeypatch.setattr(ExactDist, "to_json_entries", boom)
    for args in ("cycle --n 5 --q 4", "line --n 3 --k 1 --q 12 --format csv"):
        code, out, _ = run(capsys, "exact", *args.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == EXACT_SHA256[args]


def test_exact_rejects_negative_k(capsys):
    code, out, err = run(capsys, "exact", "line", "--n", "3", "--k", "-1", "--q", "4")
    assert code == 2
    assert out == ""
    assert "k >= 0" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--n", "15", "--q", "3", "--budget", "100000000"),  # beyond the dense levels
        ("--n", "14", "--q", "5", "--budget", "10000000000"),  # codes past int32
    ],
)
def test_exact_beyond_dense_engine_exits_3(capsys, monkeypatch, argv):
    def boom(*args, **kwargs):
        raise AssertionError("a level was built")

    monkeypatch.setattr(recurrence, "_level_values", boom)
    code, out, err = run(capsys, "exact", "cycle", *argv)
    assert code == 3
    assert out == ""
    assert "error:" in err


def test_sample_text_deterministic(capsys):
    args = ("sample", "necklace", "--n", "5", "--q", "3", "--reps", "50", "--seed", "7")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.strip().splitlines()) == 50


def test_threads_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "sample", "eden", "--n", "5", "--q", "3", "--reps", "4"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize(
    "sampler,q,digest",
    [
        ("necklace", "4", "455c1b2a20485576a63ef7118afe17df9486a4cda1f3c9ae515fc5e99cfaad0e"),
        ("eden", "5", "d13b68213ea717fcedff4dad417429ea9f7e6ba5fd067344ddd3570be8d34333"),
    ],
)
def test_sample_output_is_pinned(capsys, sampler, q, digest):
    """sha256 of the text output recorded before the samplers drew each
    replicate's indices in one call; the output is a stable contract."""
    code, out, _ = run(capsys, "sample", sampler, "--n", "12", "--q", q,
                       "--reps", "50", "--seed", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `findep sample <args>` stdout. The first two were recorded while
# every replicate still drew through its own RngStream: many draw blocks,
# and a seed longer than one uint32 word with long rows. The others were
# recorded while every word was still built row by row from a table of
# allowed colors: both sides of the block builders' n <= 64 selection,
# comma-joined texts (q > 9), and large q (the table took 1.2 GB at
# q = 400).
SAMPLE_SHA256 = {
    "necklace --n 40 --q 5 --reps 3000 --seed 1099511627783":
        "c576aaa9ed3b1077465dc59fd6e269202b6e17645d1e6f3d023c558853a0bb25",
    "eden --n 1000 --q 3 --reps 3 --seed 123456789012345678901234567890123":
        "f999e171b2125bfdbc187b5994673f97012817af32256bff3e589e83fb47a4b0",
    "necklace --n 64 --q 4 --reps 300 --seed 9":
        "bccccb8462b389f757b013c2e226a898ca8597f4f92fd6bf99ec7801eb3b27ff",
    "necklace --n 65 --q 4 --reps 300 --seed 9":
        "85a9a73db8efa61652fcb6bd57a5c01e59040e7bc89aab43e9d088f5802d72d5",
    "eden --n 6 --q 11 --reps 400 --seed 2":
        "ff7a0c515ce192f3e05e744a32328cb7fd1ee0151a6964b8a51258537120c340",
    "necklace --n 5 --q 400 --reps 1":
        "02c60fafe3f14bca768b8a5d132ffb9cdca54d031f0494264eb26c9f9426a372",
    "eden --n 100 --q 120 --reps 20 --seed 5":
        "e2aefc372e424c24faba4b17a785d9dadf40b974dc56d02494d79de4324f328a",
}


@pytest.mark.parametrize("args", sorted(SAMPLE_SHA256))
def test_sample_block_output_is_pinned(capsys, args):
    code, out, _ = run(capsys, "sample", *args.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SAMPLE_SHA256[args]


@pytest.fixture
def no_draws(monkeypatch):
    """Fail the test if `sample` computes any replicate's draws."""
    checked = cli._replicate_blocks

    def argument_checks_only(seed, reps, bounds):
        checked(seed, reps, bounds)  # checks its arguments; the blocks are lazy
        raise AssertionError("a replicate was drawn")

    monkeypatch.setattr(cli, "_replicate_blocks", argument_checks_only)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["necklace", "--n", "2", "--q", "3"], "necklace sampler requires n >= 3, got 2"),
        (["necklace", "--n", "5", "--q", "2"], "necklace sampler requires q >= 3, got 2"),
        (["eden", "--n", "2", "--q", "3"], "growth sampler requires n >= 3, got 2"),
        (["eden", "--n", "5", "--q", "2"], "growth requires q >= 3 colors, got 2"),
        (["necklace", "--n", "5", "--q", "3", "--seed", "-1"], "expected non-negative integer"),
        # the largest bound is q: numpy draws above 2**32 on another path
        (["necklace", "--n", "3", "--q", str(2**32 + 1)], "[1, 2**32]"),
        (["eden", "--n", "3", "--q", str(2**32 + 1)], "[1, 2**32]"),
        # replicate r is spawn key (r,), which must stay one uint32 word
        (["eden", "--n", "4", "--q", "3", "--reps", str(2**32 + 1)], "at most 2**32"),
    ],
)
def test_sample_argument_errors_exit_2_before_any_draw(capsys, no_draws, argv, message):
    if "--reps" not in argv:
        argv = argv + ["--reps", "3"]
    code, out, err = run(capsys, "sample", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "argv,env_alpha,code,message",
    [
        # the exact law of n = 15 is past the enumeration bound
        (["eden", "--n", "15", "--q", "3", "--reps", "200000", "--gof"], None, 3, "n <= 14"),
        (["necklace", "--n", "5", "--q", "3", "--reps", "50000", "--gof", "--alpha", "0"],
         None, 2, "alpha"),
        (["eden", "--n", "5", "--q", "3", "--reps", "50000", "--gof"], "nan", 2, "alpha"),
    ],
)
def test_sample_gof_arguments_are_checked_before_any_draw(
    capsys, monkeypatch, no_draws, argv, env_alpha, code, message
):
    if env_alpha is not None:
        monkeypatch.setenv("FINDEP_ALPHA", env_alpha)
    got, out, err = run(capsys, "sample", *argv)
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("sampler", ["necklace", "eden"])
@pytest.mark.parametrize("reps", [1, 9])
def test_sample_gof_of_one_cell_exits_2_before_any_draw(capsys, no_draws, sampler, reps):
    """At (3, 3) the six states expect reps / 6 each: fewer than 10 draws
    pool into one cell, a test with no degree of freedom."""
    code, out, err = run(capsys, "sample", sampler, "--n", "3", "--q", "3",
                         "--reps", str(reps), "--gof")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "--reps >= 10" in err


def test_sample_gof_of_two_cells_runs(capsys):
    code, out, _ = run(capsys, "sample", "necklace", "--n", "3", "--q", "3",
                       "--reps", "10", "--gof")
    doc = json.loads(out)
    assert (code, doc["n_cells"], doc["dof"]) == (0, 2, 1)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--alpha", "0.01"], "--alpha applies only with --gof"),
        (["--budget", "1000"], "--budget applies only with --gof"),
        (["--gof", "--format", "text"], "--format does not apply with --gof"),
        (["--gof", "--format", "json"], "--format does not apply with --gof"),
    ],
)
def test_sample_ignored_flags_exit_2_before_any_draw(capsys, no_draws, argv, message):
    code, out, err = run(capsys, "sample", "necklace", "--n", "5", "--q", "3",
                         "--reps", "100", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("alpha,budget", [("0.01", "1000"), ("abc", "x")])
def test_sample_without_gof_never_reads_alpha_or_budget(capsys, monkeypatch, alpha, budget):
    monkeypatch.setenv("FINDEP_ALPHA", alpha)
    monkeypatch.setenv("FINDEP_BUDGET", budget)
    code, out, err = run(capsys, "sample", "necklace", "--n", "4", "--q", "3", "--reps", "2")
    assert (code, len(out.splitlines()), err) == (0, 2, "")


def test_sample_negative_env_seed_is_usage_error(capsys, monkeypatch, no_draws):
    monkeypatch.setenv("FINDEP_SEED", "-3")
    code, out, err = run(capsys, "sample", "eden", "--n", "5", "--q", "3", "--reps", "2")
    assert (code, out, err) == (2, "", "error: expected non-negative integer\n")


@pytest.mark.parametrize("reps", ["0", "-1"])
def test_sample_reps_below_one_is_usage_error(capsys, reps):
    code, out, err = run(capsys, "sample", "necklace", "--n", "4", "--q", "3", "--reps", reps)
    assert code == 2
    assert out == ""
    assert "--reps" in err


def test_sample_json_format(capsys):
    code, out, _ = run(
        capsys, "sample", "necklace", "--n", "4", "--q", "4",
        "--reps", "3", "--seed", "1", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "findep.samples/1"
    assert len(doc["words"]) == 3


def test_sample_gof_passes(capsys):
    code, out, _ = run(
        capsys, "sample", "necklace", "--n", "5", "--q", "3",
        "--reps", "20000", "--seed", "11", "--gof",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "findep.gof/1"
    assert doc["passed"] is True
    assert doc["seed"] == 11


def test_sample_gof_writes_samples_to_out(tmp_path, capsys):
    out_file = tmp_path / "samples.txt"
    code, out, _ = run(
        capsys, "sample", "eden", "--n", "4", "--q", "3",
        "--reps", "5000", "--seed", "2", "--gof", "--out", str(out_file),
    )
    assert code == 0
    assert json.loads(out)["passed"] is True
    assert len(out_file.read_text().strip().splitlines()) == 5000


@pytest.mark.parametrize(
    "argv",
    [
        ("exact", "cycle", "--n", "3", "--q", "3"),
        ("sample", "necklace", "--n", "4", "--q", "3", "--reps", "3"),
        ("verify", "partition", "--max-n", "3"),
    ],
)
@pytest.mark.parametrize("target", ["missing/x.json", "."])
def test_unwritable_out_is_usage_error(tmp_path, capsys, argv, target):
    """An --out that cannot be opened (a missing directory, a directory)
    exits 2 with one error line, not a traceback with exit 1."""
    path = tmp_path / target
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write --out {path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def _refuse(*args, **kwargs):
    raise AssertionError("the work began before --out was checked")


@pytest.mark.parametrize(
    "argv,module,name",
    [
        (("exact", "cycle", "--n", "3", "--q", "3"), recurrence, "_levels"),
        (("sample", "necklace", "--n", "4", "--q", "3", "--reps", "3"), cli, "_replicate_blocks"),
        (("sample", "eden", "--n", "4", "--q", "3", "--reps", "3000", "--gof"),
         recurrence, "_levels"),
        (("verify", "all", "--max-n", "3"), cli, "run_all"),
    ],
)
@pytest.mark.parametrize("target", ["missing/x.json", "."])
def test_unwritable_out_is_refused_before_the_work(tmp_path, capsys, monkeypatch,
                                                  argv, module, name, target):
    monkeypatch.setattr(module, name, _refuse)
    path = tmp_path / target
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write --out {path}: ")
    assert not (tmp_path / "missing").exists()


def test_out_check_creates_and_truncates_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(recurrence, "_levels", _refuse)
    kept, absent = tmp_path / "kept.json", tmp_path / "absent.json"
    kept.write_text("earlier output\n")
    for path in (kept, absent):
        with pytest.raises(AssertionError, match="before --out was checked"):
            main(["exact", "cycle", "--n", "3", "--q", "3", "--out", str(path)])
    assert kept.read_text() == "earlier output\n"
    assert not absent.exists()


# (exit code, sha256 of stdout) of `findep sample <args> --gof`, recorded while
# the chi-square p-value's scipy import was still at the top of the module;
# the last while every word was still built row by row (comma texts, q > 9).
GOF_SHA256 = {
    "necklace --n 7 --q 3 --reps 2000 --seed 5":
        (0, "a3eb2cd7ff54bd99e91106f59d58deb27883bbe8888a8f36237b8efe20ceb11c"),
    "eden --n 7 --q 4 --reps 1000 --seed 5":
        (0, "09dbd1f48f67aaf51a4ae58873355b5e83768df14bc7bca14a0030b3356e59eb"),
    "eden --n 4 --q 10 --reps 5000 --seed 2":
        (0, "9f88f7c557933cde9ab4200765f6f3eee8dad407c9124abdf174fc2677e1bfc6"),
}


@pytest.mark.parametrize("args", sorted(GOF_SHA256))
def test_sample_gof_output_is_pinned(capsys, args):
    code, out, _ = run(capsys, "sample", *args.split(), "--gof")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOF_SHA256[args]


def _child(args, *, blas_threads=None, **popen):
    """Start ``python args...`` with this tree's src on its path, every
    FINDEP_* variable unset and OPENBLAS_NUM_THREADS set to blas_threads (or
    unset, since an earlier in-process import of findep.cli sets it here)."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("FINDEP_") and k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.Popen([sys.executable, *args], env=env, **popen)


def _probe(code, **kwargs):
    """Run code in a child; return its stderr words, which it prints."""
    child = _child(["-c", code], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                   text=True, **kwargs)
    _, err = child.communicate(timeout=120)
    assert child.returncode == 0, err
    return err.split()


_SCIPY_PROBE = """
import sys
import findep, findep.cli
from findep.cli import main

def loaded(argv):
    main(argv)
    return "scipy" in sys.modules

print(int("scipy" in sys.modules),
      int(loaded(["exact", "cycle", "--n", "5", "--q", "3"])),
      int(loaded(["verify", "kdep", "--n", "6", "--q", "4", "--k", "1"])),
      int(loaded(["sample", "necklace", "--n", "4", "--q", "3", "--reps", "200", "--gof"])),
      file=sys.stderr)
"""


def test_scipy_is_loaded_only_by_the_gof_test():
    assert _probe(_SCIPY_PROBE) == ["0", "0", "0", "1"]


_IMPORT_PROBE = """
import os, sys
import findep
print(int("numpy" in sys.modules), file=sys.stderr)
findep.cycle_law(4, 3)
print(int("numpy" in sys.modules), int(findep.growth.Word is findep.Word),
      int("OPENBLAS_NUM_THREADS" in os.environ), file=sys.stderr)
"""


def test_import_findep_is_lazy_and_leaves_the_environment_alone():
    # A bare import loads no numpy; the first use of a name loads its
    # submodule, and a library process gets no BLAS setting from findep.
    assert _probe(_IMPORT_PROBE) == ["0", "1", "1", "0"]


def test_every_public_name_resolves_to_its_submodules_object():
    for name in findep.__all__:
        module = importlib.import_module(f"findep.{findep._EXPORTS[name]}")
        assert getattr(findep, name) is getattr(module, name), name
    assert set(findep.__all__) < set(dir(findep))
    with pytest.raises(AttributeError):
        findep.no_such_name


_BLAS_PROBE = """
import os, sys
import findep.cli
from findep.cli import main
main(["sample", "necklace", "--n", "4", "--q", "3", "--reps", "200", "--gof"])
tasks = len(os.listdir("/proc/self/task")) if sys.platform == "linux" else 1
print(os.environ["OPENBLAS_NUM_THREADS"], int("scipy" in sys.modules), tasks, file=sys.stderr)
"""


def test_cli_runs_blas_in_one_thread_unless_the_caller_says_otherwise():
    # numpy and scipy are both loaded, and neither started a thread pool.
    assert _probe(_BLAS_PROBE) == ["1", "1", "1"]
    assert _probe(_BLAS_PROBE, blas_threads="2")[:2] == ["2", "1"]


def test_closed_stdout_exits_1_without_a_traceback():
    # `findep exact cycle --n 11 --q 4 | head -c 64`: the dump (about 7 MB)
    # outgrows the pipe, so its writer meets the closed end.
    child = _child(["-m", "findep", "exact", "cycle", "--n", "11", "--q", "4"],
                   stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert child.stdout.read(64).startswith(b"{")
    child.stdout.close()
    err = child.stderr.read()
    assert (child.wait(timeout=120), err) == (1, b"")


def test_verify_partition(capsys):
    code, out, _ = run(capsys, "verify", "partition", "--max-n", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "findep.report/1"
    assert doc["passed"] is True


# (exit code, sha256 of stdout) of `findep verify <args>`, recorded before the
# independence checks and the shift, symmetry, restriction, coupling and mobius
# suites moved to count tensors, and before levels were built by broadcasting;
# the `kdep --n 10 --q 3` pin before k-dependence was decided on maximal pairs;
# the `kdep --n 10 --q 4` and `window` pins while independence at totals past
# 3.04e9 was still decided in Python ints.
VERIFY_SHA256 = {
    "symmetry --max-n 5": (0, "e4607ea91ee71af663d0e657fd204bb6ff2cf9e7f4e971e6840adcf280db25e8"),
    "symmetry": (0, "901e13be98fd7d0fbe1eeabf7ee1fa2089a08688dff785e2cb987ace659946f2"),
    "restriction --max-n 6":
        (1, "0d9f89bd19ae6b9a0066e786a567ca6c6cf0e00c327cc6e0c733f3d78a5dfa19"),
    "restriction": (1, "7c24be38b9f7ca42a46fb9db618e71e4c0e3f7f96c79172f88df56bb0c420fdf"),
    "coupling --max-n 6": (0, "7b0b22dc1b5ef9deb576e7e0e74e5958df2b0cc24a22f20c791733d5e15f7546"),
    "coupling": (0, "112acb9ee353c4ad698dc3bbf3c3dd981ef9086c3ef6458cc3d53d9aba48da23"),
    "all --max-n 6": (1, "c6d17a75cbe13c2d1c684d51777984074ab5a93b994a6286e25bd00a89f01243"),
    "shift --max-n 5": (0, "3f123aa51d1476cbb58414a41718ef3c1ade325bb0aaa06cd958754446264ce6"),
    "kdep --max-n 6": (0, "38548188af2b4738efc71359d1d26697d238385035651bdfa5ac9080cb45c597"),
    "kdep --n 8 --q 4 --k 1":
        (0, "b7c7019088ac615e7ad587783e72b00e67a98041e9beddbc9d96a99364d81343"),
    "kdep --n 5 --q 3 --k 1":
        (1, "1a6332c7ed29199d364c3b2403e017113933d5f3f5d46395936618098f04c176"),
    "kdep --n 10 --q 3 --k 1":
        (1, "2388ce808f81c192b7340f06a3e0af7ab6163434dce8c65df1f6d78c2c24e325"),
    "coupling --max-n 4": (0, "4437dc2747770a35cd8c1ed8cd446be95341c8e89026bdc4d114a57e6980f5f1"),
    "kernels --max-n 5": (0, "b5a85c98d9bdff0218ee5d59755358baa8f18a02def63805f906d05a6f8935df"),
    "mobius --max-n 5": (0, "f8b8f0d4ac7ccf5142c15dae0189f918044daedfc31fbead1956c5edf65ba969"),
    "mobius": (0, "7755ffba90d4851404c76311c581b7345b527686ea5f44baecc2622d3c5cd893"),
    "partition --max-n 9":
        (0, "adbe17e22c9936dcd773e72ee29957fe2db8350f963051f3565a9c007abb0423"),
    "marginals": (0, "a50cd7638dfe269fc28eb2ae80b98adaa0cf0e2ffdf073cf2a8063a91248b93e"),
    "marginals --max-n 8":
        (0, "1c4334c7646a0ae8129dc1cd3f6f912fc7e4a7d3555f7df48be0ecbf191c5d08"),
    "coupling --max-n 8":
        (0, "04ad2d44c4021177b54f55957c7eadeef0d98f61d2918b92407fc002a656154d"),
    "kdep --n 10 --q 4 --k 1":
        (0, "b6b9552ece4aa3e69ac1f5217d5279fd58e60e1036f77a2c1d869db8453ae004"),
    "kdep --n 10 --q 4 --k 0":
        (1, "de9c3bebb9ccce080fd23693b5fe8406da30aa8c4c6a597690e614b471991fad"),
    "window": (0, "9f23c29542352810b3a493475f7b97fceff03b6c8b0e92c3a226dcd80350c002"),
}


@pytest.mark.parametrize("args", sorted(VERIFY_SHA256))
def test_verify_output_is_pinned(capsys, args):
    code, out, _ = run(capsys, "verify", *args.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == VERIFY_SHA256[args]


def test_verify_blockfactor_stat(capsys):
    code, out, _ = run(capsys, "verify", "blockfactor-stat")
    assert code == 0
    doc = json.loads(out)
    case = doc["cases"][0]
    assert case["two_site"] == "1/6"
    assert case["block_factor_two_site"] == "1/4"


def test_verify_kdep_single_case_failure(capsys):
    code, out, err = run(capsys, "verify", "kdep", "--n", "5", "--q", "3", "--k", "1")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["counterexample"] is not None
    assert "counterexample" in err


def test_verify_kdep_single_case_pass(capsys):
    code, out, _ = run(capsys, "verify", "kdep", "--n", "6", "--q", "3", "--k", "2")
    assert code == 0


def test_verify_kdep_single_case_reports_expected(capsys):
    code, out, _ = run(capsys, "verify", "kdep", "--n", "6", "--q", "4", "--k", "1")
    assert code == 0
    (case,) = json.loads(out)["cases"]
    assert case["expected"] == "independent"


@pytest.mark.parametrize(
    "suite,least",
    [("window", 4), ("symmetry", 3), ("coupling", 3), ("kernels", 3),
     ("partition", 2), ("mobius", 1), ("shift", 1), ("restriction", 1),
     ("kdep", 1), ("marginals", 1)],
)
def test_verify_below_suite_minimum_is_usage_error(capsys, suite, least):
    code, out, err = run(capsys, "verify", suite, "--max-n", str(least - 1))
    assert code == 2
    assert out == ""
    assert f"minimum {least}" in err


@pytest.mark.parametrize(
    "suite,top",
    [("coupling", 10), ("symmetry", 11), ("restriction", 10), ("mobius", 11),
     ("window", 11), ("kernels", 11), ("kdep", 10), ("shift", 11), ("partition", 10)],
)
def test_verify_above_suite_level_bound_exits_3_before_any_level(capsys, monkeypatch, suite, top):
    def boom(*args, **kwargs):
        raise AssertionError("a level was read")

    monkeypatch.setattr(recurrence, "_levels", boom)
    code, out, err = run(capsys, "verify", suite, "--max-n", str(top + 1))
    assert code == 3
    assert out == ""
    assert "error:" in err


def test_verify_all_below_largest_minimum_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "all", "--max-n", "3")
    assert code == 2
    assert out == ""
    assert "minimum 4" in err
    code, out, _ = run(capsys, "verify", "all", "--max-n", "4")
    assert code == 1  # restriction: partition-sum case at (k, q) = (1, 4)
    assert json.loads(out)["reports"]


def test_verify_kdep_without_admissible_pair_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "kdep", "--n", "3", "--q", "3")
    assert code == 2
    assert out == ""
    assert "n >= 6" in err
    code, _, err = run(capsys, "verify", "kdep", "--n", "3", "--q", "4", "--k", "1")
    assert code == 2
    assert "n >= 4" in err


def test_verify_kdep_negative_k_is_usage_error_before_any_level(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("a level was read")

    monkeypatch.setattr(recurrence, "_levels", boom)
    code, out, err = run(capsys, "verify", "kdep", "--n", "6", "--q", "4", "--k", "-1")
    assert (code, out, err) == (2, "", "error: need k >= 0, got -1\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "partition", "--n", "5"),
        ("verify", "blockfactor-stat", "--q", "4"),
        ("verify", "blockfactor-stat", "--max-n", "5"),
        ("verify", "all", "--k", "1"),
        ("verify", "kdep", "--max-n", "6", "--n", "6"),
        ("verify", "kdep", "--max-n", "6", "--k", "1"),
    ],
)
def test_verify_ignored_flags_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exact", "cycle", "--n", "3"])
    assert exc.value.code == 2


def test_env_budget_respected(capsys, monkeypatch):
    monkeypatch.setenv("FINDEP_BUDGET", "100")
    code, _, _ = run(capsys, "exact", "cycle", "--n", "10", "--q", "4")
    assert code == 3
    # flag overrides env
    code, _, _ = run(capsys, "exact", "cycle", "--n", "10", "--q", "4",
                     "--budget", "2000000")
    assert code == 0


def test_verify_csv_format(capsys):
    code, out, _ = run(capsys, "verify", "blockfactor-stat", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "suite,case,passed"
    assert lines[1].startswith("blockfactor-stat,") and lines[1].endswith("True")


def test_sample_csv_format(capsys):
    code, out, _ = run(
        capsys, "sample", "necklace", "--n", "4", "--q", "3",
        "--reps", "2", "--seed", "5", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "word" and len(lines) == 3


def test_env_seed_default(capsys, monkeypatch):
    monkeypatch.setenv("FINDEP_SEED", "123")
    _, out_env, _ = run(capsys, "sample", "necklace", "--n", "4", "--q", "3", "--reps", "5")
    monkeypatch.delenv("FINDEP_SEED")
    _, out_flag, _ = run(capsys, "sample", "necklace", "--n", "4", "--q", "3",
                         "--reps", "5", "--seed", "123")
    assert out_env == out_flag
