"""CLI contract: flags, formats, exit codes, determinism, env precedence."""

import hashlib
import json

import pytest

from findep.cli import main


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


def test_sample_text_deterministic(capsys):
    args = ("sample", "necklace", "--n", "5", "--q", "3", "--reps", "50", "--seed", "7")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.strip().splitlines()) == 50


def test_sample_thread_count_does_not_change_output(capsys):
    base = ("sample", "eden", "--n", "5", "--q", "3", "--reps", "40", "--seed", "3")
    _, out, err = run(capsys, *base)
    assert err == ""
    for threads in ("1", "4"):
        _, out_t, err_t = run(capsys, "--threads", threads, *base)
        assert out_t == out
        assert "--threads is deprecated" in err_t


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


def test_verify_partition(capsys):
    code, out, _ = run(capsys, "verify", "partition", "--max-n", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "findep.report/1"
    assert doc["passed"] is True


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
