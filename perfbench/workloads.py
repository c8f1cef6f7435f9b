"""The benchmark's workloads: findep command lines and the checks on their output.

Each workload is a fixed list of CLI commands run one after another. Each
command has a check that takes its exit code and standard output, raises
``CheckFailed`` (or whatever error malformed output causes) when the output is
wrong, and otherwise returns the number of items the output holds: law states
for ``exact``, verification cases for ``verify``, sampler draws for the
``sample-*`` workloads.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from typing import Callable

# Seed whose sampler outputs were recorded in RECORDED_SHA256.
DEFAULT_SEED = 0

# sha256 of the standard output of these command lines, recorded when the
# benchmark was added. Output is part of the CLI contract (byte-identical
# unless a change documents otherwise), so a mismatch is a failed command.
RECORDED_SHA256 = {
    "exact cycle --n 11 --q 4":
        "9c8b465cc958b42d092427f83aac55d2ec27160e679f91d00efe4b7727ab494b",
    "exact line --n 10 --k 1 --q 4 --format csv":
        "5588961ae036d6b7d349522342f4076b909b08d470fb3387ab093fdbe3c94d75",
    "exact cycle --n 14 --q 3":
        "e352c3768c4807d3353736b65feb80a030521e8ff3ee30e8449691a677a4c982",
    "sample necklace --n 7 --q 3 --reps 50000 --seed 0 --gof":
        "69cb22caa72788bee2f43f42b2dca715e0004116cce9967624ac09e740b82b72",
    "sample eden --n 7 --q 4 --reps 25000 --seed 0 --gof":
        "866e651d59b4d583dfc147c361a4d42ab1404bf5c9ea601abc3878ab0288c66c",
    "sample necklace --n 1000 --q 4 --reps 200 --seed 0":
        "ee997b17e9611b71c5d3bcac3995d64f07acfaa2b3c28dc69e2e91841201cada",
    "sample eden --n 1000 --q 3 --reps 10 --seed 0":
        "1c7a6b6c1a1591e33e1149194b8e8cecdf3aadf2b70bce60b5da1f12bdbdaae0",
}

# Case count of each suite in `verify all --max-n 6`.
VERIFY_ALL_CASES = {
    "partition": 20,
    "mobius": 12,
    "shift": 12,
    "symmetry": 8,
    "restriction": 4,
    "window": 6,
    "kdep": 5,
    "coupling": 8,
    "marginals": 31,
    "kernels": 16,
    "blockfactor-stat": 1,
}

# The one failing case of `verify all`: the extension-sum identity with the
# partition-sum constant at (k, q) = (1, 4), red by design (criterion 4b).
VERIFY_ALL_FAILING = [("restriction", "partition-sum", 1, 4)]

# A correct sampler fails the CLI's GoF test (alpha = 0.001) on one seed in a
# thousand, and the benchmark runs hundreds of seeds. A report is accepted if
# its p-value is above this floor; a biased sampler gives p ~ 0 at these sizes.
GOF_P_FLOOR = 1e-6


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[int, bytes], int]

    @property
    def text(self) -> str:
        return " ".join(self.argv)


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def _check_digest(text: str, out: bytes) -> None:
    want = RECORDED_SHA256.get(text)
    if want is not None:
        _require(hashlib.sha256(out).hexdigest() == want, "output differs from the recorded digest")


def _exact(args: str) -> Command:
    def check(rc: int, out: bytes) -> int:
        _require(rc == 0, f"exit code {rc}")
        _check_digest(args, out)
        if "--format csv" in args:
            return out.count(b"\n") - 1
        # Scanned, not parsed: a parse would grow this process by ~100 MB,
        # and every later child's ru_maxrss starts from this process's RSS.
        head = re.search(rb'"schema": "findep.dist/1".*?"total_states": (\d+),', out[:400], re.S)
        _require(head is not None, "no findep.dist/1 header")
        total = int(head.group(1))
        _require(out.count(b'"state": ') == total, "total_states != len(states)")
        return total

    return Command(tuple(args.split()), check)


def _check_verify_all(rc: int, out: bytes) -> int:
    _require(rc == 1, f"exit code {rc}, expected 1 (criterion 4b)")
    doc = json.loads(out)
    _require(doc["schema"] == "findep.report/1", f"schema {doc['schema']!r}")
    counts = {r["suite"]: len(r["cases"]) for r in doc["reports"]}
    _require(counts == VERIFY_ALL_CASES, f"suite case counts {counts}")
    failing = [
        (r["suite"], c.get("mode"), c.get("k"), c.get("q"))
        for r in doc["reports"]
        for c in r["cases"]
        if not c["passed"]
    ]
    _require(failing == VERIFY_ALL_FAILING, f"failing cases {failing}")
    for r in doc["reports"]:
        _require(r["passed"] == all(c["passed"] for c in r["cases"]), f"{r['suite']} verdict")
    _require(doc["passed"] is False, "overall verdict")
    return sum(counts.values())


def _check_verify_kdep(rc: int, out: bytes) -> int:
    _require(rc == 0, f"exit code {rc}")
    doc = json.loads(out)
    _require(doc["schema"] == "findep.report/1", f"schema {doc['schema']!r}")
    cases = doc["cases"]
    _require(len(cases) == 1 and cases[0]["passed"] and doc["passed"], f"cases {cases}")
    return 1


def _gof(sampler: str, n: int, q: int, reps: int, seed: int) -> Command:
    args = f"sample {sampler} --n {n} --q {q} --reps {reps} --seed {seed} --gof"

    def check(rc: int, out: bytes) -> int:
        _check_digest(args, out)
        doc = json.loads(out)
        _require(doc["schema"] == "findep.gof/1", f"schema {doc['schema']!r}")
        got = (doc["sampler"], doc["n"], doc["q"], doc["seed"], doc["n_samples"])
        _require(got == (sampler, n, q, seed, reps), f"report for {got}")
        _require(rc == (0 if doc["passed"] else 1), f"exit code {rc} for passed={doc['passed']}")
        _require(doc["p_value"] >= GOF_P_FLOOR, f"p_value {doc['p_value']}")
        return reps

    return Command(tuple(args.split()), check)


def _words(sampler: str, n: int, q: int, reps: int, seed: int) -> Command:
    args = f"sample {sampler} --n {n} --q {q} --reps {reps} --seed {seed}"
    colors = set("123456789"[:q])

    def check(rc: int, out: bytes) -> int:
        _require(rc == 0, f"exit code {rc}")
        _check_digest(args, out)
        lines = out.decode("ascii").split("\n")
        _require(lines[-1] == "" and len(lines) == reps + 1, f"{len(lines) - 1} lines")
        for w in lines[:-1]:
            _require(len(w) == n and set(w) <= colors, f"word {w[:20]}... not over 1..{q}")
            # w[-1] vs w[0] is the wrap-around edge
            _require(all(w[i - 1] != w[i] for i in range(n)), f"word {w[:20]}... not proper")
        return reps

    return Command(tuple(args.split()), check)


# Workload name -> its commands for a seed; the seed reaches every sampler command.
WORKLOADS: dict[str, Callable[[int], list[Command]]] = {
    "exact": lambda seed: [
        _exact("exact cycle --n 11 --q 4"),
        _exact("exact line --n 10 --k 1 --q 4 --format csv"),
        _exact("exact cycle --n 14 --q 3"),
    ],
    "verify": lambda seed: [
        Command(("verify", "all", "--max-n", "6"), _check_verify_all),
        Command(("verify", "kdep", "--n", "8", "--q", "4", "--k", "1"), _check_verify_kdep),
    ],
    "sample-gof": lambda seed: [
        _gof("necklace", 7, 3, 50_000, seed),
        _gof("eden", 7, 4, 25_000, seed),
    ],
    "sample-long": lambda seed: [
        _words("necklace", 1000, 4, 200, seed),
        _words("eden", 1000, 3, 10, seed),
    ],
}
