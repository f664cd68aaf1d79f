"""Checks on the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/selfcheck.py

1. The expected files agree with facts recorded outside this program:
   the ROADMAP baseline for `certify V` (infinite-dimensional, 96
   vertices) and the braided-symmetrizer oracle of tests/oracles.py for
   the graded dimensions of B(W) up to degree 3 and B(P) up to degree 5.
2. The generated conductor-9 session passes `load_session` (pentagon and
   YD axioms) at seeds 0 and 1.
3. Relabelled sessions (seeds 1 and 2) give byte-identical stdout for two
   quick commands, so one expected file serves every seed.
4. Negative control: a corrupted expected file makes fail_rate positive,
   while the true one keeps it at 0.

Exits 1 if any check fails.  Takes under a minute on 2 cores.
"""

from __future__ import annotations

import os
import sys

import run

sys.path.insert(0, os.path.join(run.ROOT, "src"))
sys.path.insert(0, os.path.join(run.ROOT, "tests"))

import sessions  # noqa: E402
from oracles import oracle_graded_dims  # noqa: E402
from ydweyl import cli  # noqa: E402

def expected_dims(name: str) -> tuple:
    lines = run.read_expected(name).decode().splitlines()
    start = lines.index("degree  dim") + 1
    dims = []
    for line in lines[start:]:
        parts = line.split()
        if len(parts) != 2 or not parts[0].isdigit():
            break
        dims.append(int(parts[1]))
    return tuple(dims)


def run_command(path: str, argv: list) -> str:
    args = cli.build_parser().parse_args(["--session", path, *argv])
    return cli.COMMANDS[args.command](cli.load_session(path), args)


def main() -> int:
    failures = []

    def check(ok: bool, what: str):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    os.makedirs(run.WORKDIR, exist_ok=True)

    certify = run.read_expected("certify-V").decode().splitlines()
    check(certify[0] == "verdict: infinite-dimensional"
          and certify[1].startswith("semi-Cartan graph: 96 vertices"),
          "certify-V expected file: infinite-dimensional, 96 vertices")

    w_dims = expected_dims("nichols-W4")
    z2cubed = cli.load_session(os.path.join(run.ROOT, "sessions", "z2cubed.json"))
    oracle = oracle_graded_dims(z2cubed.tuples["W"], 3)
    check(oracle == (1, 6, 21, 60) and w_dims[:4] == oracle,
          f"nichols-W4 dims {w_dims[:4]} match the symmetrizer oracle {oracle}")

    z9_dims = expected_dims("nichols-z9pair7")
    z9_path = sessions.write_session(run.ROOT, "z9pair", 0, run.WORKDIR)
    z9 = cli.load_session(z9_path)
    oracle = oracle_graded_dims(z9.tuples["P"], 5)
    check(z9_dims == (1, 2, 4, 7, 12, 20, 32, 50) and z9_dims[:6] == oracle,
          f"nichols-z9pair7 dims {z9_dims} agree with the oracle {oracle}")

    relabelled = sessions.write_session(run.ROOT, "z9pair", 1, run.WORKDIR)
    check(cli.load_session(relabelled).tuples["P"].theta == 2,
          "relabelled conductor-9 session passes load_session")

    base = os.path.join(run.ROOT, "sessions", "z2cubed.json")
    for argv in (["certify", "W"], ["nichols", "W", "--max-degree", "3"]):
        want = run_command(base, argv)
        for seed in (1, 2):
            path = sessions.write_session(run.ROOT, "sessions/z2cubed.json",
                                          seed, run.WORKDIR)
            check(run_command(path, argv) == want,
                  f"seed {seed}: `{' '.join(argv)}` stdout unchanged")

    expected = run.read_expected("roots-W20")
    middle = len(expected) // 2
    corrupted = (expected[:middle] + bytes([expected[middle] ^ 1])
                 + expected[middle + 1:])
    for data, label, want_fail in ((corrupted, "corrupted", True),
                                   (expected, "true", False)):
        result = run.run_workload("roots-W20", 0, 0, False, expected=data)
        rate = result["fail_rate"]
        check((rate > 0) == want_fail,
              f"{label} expected file gives fail_rate {rate:.3f}")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
