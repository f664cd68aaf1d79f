"""Time-to-answer benchmark for the ydweyl CLI, with a per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --workload certify-V --seed 3 --seconds 25 --trace 1

Each repetition is a fresh child process (child.py) that imports ydweyl,
calls `ydweyl.cli.load_session` and runs one command from
`ydweyl.cli.COMMANDS`: what a CLI user pays on every call, cold caches
included.  The load is a closed loop with one client: one child at a time,
started only after the previous one has exited.  Every child's stdout is
compared byte for byte with the workload's file in expected/.

With --trace 0 the run reports the end-to-end metrics.  Its time to an
answer, `wall_rel`, is the median over repetitions of each one's wall time
divided by the mean time of reference.py's fixed work run just before and
just after it: the host's speed drifts by tens of percent for minutes at a
time, and the ratio cancels most of that drift where a time in seconds
cannot.  With --trace 1 it
alternates untraced and traced repetitions and reports the per-layer
metrics from tracer.py plus the tracing overhead.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, ".work")
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.py")

# name -> (session source, command).  A source is a shipped session or
# "z9pair", the generated conductor-9 session of sessions.py.  Each
# workload loads a different layer; README.md says which and why.
WORKLOADS = {
    # Largest Nichols blocks (192x192, 7.5% dense, +-1 scalars):
    # elimination-bound.
    "nichols-W4": ("sessions/z2cubed.json",
                   ["nichols", "W", "--max-degree", "4"]),
    # 36 small conductor-9 blocks with a nontrivial associator: delta_1n
    # and elimination share the time.
    "nichols-z9pair7": ("z9pair", ["nichols", "P", "--max-degree", "7"]),
    # 96-vertex reflection BFS (iso tests, YD axiom checks) and the
    # heaviest set-up, a 65,536-quadruple pentagon check.
    "certify-V": ("sessions/z2z2z4.json", ["certify", "V"]),
    # Root closure over 24 vertices; no elimination in the roots part.
    "roots-W20": ("sessions/z2cubed.json", ["roots", "W", "--bound", "20"]),
}

DEFAULT_SECONDS = 55
MIN_ROUNDS = 3             # so no untraced median rests on one or two children
OVERRUN = 60               # seconds a run may go past --seconds before a
                           # hung child is killed and counted failed


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("YDWEYL_WORKERS", None)   # keep the program single-process
    env["PYTHONPATH"] = SRC
    return env


def spawn(mode: str, session: str, command: list, tag: str,
          timeout: float) -> dict:
    """Run one child to completion; return its timings and outputs."""
    result_path = os.path.join(WORKDIR, f"{tag}.result.json")
    out_path = os.path.join(WORKDIR, f"{tag}.stdout")
    err_path = os.path.join(WORKDIR, f"{tag}.stderr")
    if os.path.exists(result_path):     # a crashed child must not leave
        os.remove(result_path)          # the previous child's result
    argv = [sys.executable, CHILD, mode, result_path, session, *command]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t_start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
        t_end = time.perf_counter()
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    try:
        with open(result_path) as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        result = {}
    t_loaded = result.get("t_loaded")
    return {"code": code, "stdout": stdout,
            "wall_s": t_end - t_start,
            "setup_s": (t_loaded - t_start) if t_loaded is not None else None,
            "peak_rss_mb": result.get("peak_rss_kb", 0) / 1024,
            "layers": result.get("layers")}


def reference_s(timeout: float) -> float:
    """Seconds the fixed reference work of reference.py took just now."""
    proc = subprocess.run([sys.executable, REFERENCE], capture_output=True,
                          text=True, timeout=timeout, check=True)
    return float(proc.stdout)


def missing_inputs() -> list:
    """Program and session files the benchmark needs but cannot find."""
    return [rel for rel in ("src/ydweyl/cli.py", "sessions/z2cubed.json",
                            "sessions/z2z2z4.json", "sessions/z3twisted.json")
            if not os.path.isfile(os.path.join(ROOT, rel))]


def prepare(name: str, seed: int) -> str:
    """Write the workload's session for `seed`; return its path."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import sessions
    os.makedirs(WORKDIR, exist_ok=True)
    return sessions.write_session(ROOT, WORKLOADS[name][0], seed, WORKDIR)


def read_expected(name: str) -> bytes:
    with open(os.path.join(HERE, "expected", f"{name}.txt"), "rb") as fh:
        return fh.read()


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 expected: bytes | None = None) -> dict:
    """Measure one workload for about `seconds` seconds.

    One untimed repetition first compiles the bytecode and warms the page
    cache; the first repetition of a run is often the slowest.  Then each
    round is the reference work and one repetition (with `trace`: one
    untraced and one traced repetition).  After MIN_ROUNDS rounds (one
    with `trace`), a new round starts only while a round of the median
    length still fits in the window.  Without `trace`, the reference work
    runs once more at the end, so every repetition has one on each side.
    """
    session = prepare(name, seed)
    if expected is None:
        expected = read_expected(name)
    command = WORKLOADS[name][1]
    runs = []
    references = []
    start = time.perf_counter()
    deadline = start + seconds + OVERRUN

    def run(mode, want, timed=True):
        timeout = max(1.0, deadline - time.perf_counter())
        rec = spawn(mode, session, command, f"{name}.{mode}", timeout)
        rec["mode"] = mode if timed else "warmup"
        rec["ok"] = rec["code"] == 0 and rec["stdout"] == want
        runs.append(rec)
        return rec

    run("run", expected, timed=False)
    min_rounds = 1 if trace else MIN_ROUNDS
    durations = []
    for rounds in itertools.count(1):
        began = time.perf_counter()
        if trace:
            run("run", expected)
            run("trace", expected)
        else:
            references.append(
                reference_s(max(1.0, deadline - time.perf_counter())))
            run("run", expected)
        now = time.perf_counter()
        durations.append(now - began)
        if (rounds >= min_rounds
                and now - start + statistics.median(durations) > seconds):
            break
    if not trace:
        references.append(reference_s(max(1.0, deadline - time.perf_counter())))
    return summarize(name, seed, trace, runs, references)


def median_of(runs, modes, key):
    values = [r[key] for r in runs if r["mode"] in modes and r[key] is not None]
    return statistics.median(values) if values else 0.0


def summarize(name, seed, trace, runs, references) -> dict:
    failed = sum(not r["ok"] for r in runs)
    unscaled = {}
    if trace:
        traced = [r["layers"] for r in runs if r["mode"] == "trace" and r["layers"]]
        metrics = {}
        if traced:
            for key, (_, unit) in traced[0].items():
                # median_low reports a measured value and keeps counts whole
                value = statistics.median_low(t[key][0] for t in traced)
                metrics[key] = {"value": value, "unit": unit}
        plain = median_of(runs, ("run",), "wall_s")
        traced_wall = median_of(runs, ("trace",), "wall_s")
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_wall - plain, "unit": "s"}
    else:
        walls = [r["wall_s"] for r in runs if r["mode"] == "run"]
        relative = [wall / ((before + after) / 2) for wall, before, after
                    in zip(walls, references, references[1:])]
        metrics = {
            "wall_rel": {"value": statistics.median(relative),
                         "unit": "ratio"},
            "setup_s": {"value": median_of(runs, ("run",), "setup_s"),
                        "unit": "s"},
            "peak_rss_mb": {"value": median_of(runs, ("run",), "peak_rss_mb"),
                            "unit": "MB"},
        }
        unscaled = {"wall_s": {"value": statistics.median(walls), "unit": "s"},
                    "reference_s": {"value": statistics.median(references),
                                    "unit": "s"}}
    return {"workload": name, "seed": seed, "trace": trace,
            "attempted": len(runs), "failed": failed,
            "fail_rate": failed / len(runs), "metrics": metrics,
            "unscaled": unscaled, "references": references,
            "samples": [{k: r[k] for k in ("mode", "code", "ok", "wall_s",
                                           "setup_s", "peak_rss_mb")}
                        for r in runs]}


def metadata() -> dict:
    sha = "unknown"      # a checkout without .git has no SHA to report
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    package = os.path.join(SRC, "ydweyl")
    lines = 0
    for fname in sorted(os.listdir(package)):
        if fname.endswith(".py"):
            with open(os.path.join(package, fname)) as fh:
                lines += sum(1 for _ in fh)
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": os.cpu_count(), "src_lines": lines}


def report(result: dict, meta: dict):
    print(f"workload {result['workload']} seed {result['seed']} "
          f"trace {int(result['trace'])}: {result['attempted']} children, "
          f"{result['failed']} failed")
    for key, m in result["metrics"].items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    for key, m in result["unscaled"].items():
        print(f"  {key} = {m['value']:.6g} {m['unit']} (not gated)")
    print(f"  fail_rate = {result['fail_rate']:.6g} ratio")
    name = (f"result.{result['workload']}.seed{result['seed']}"
            f".trace{int(result['trace'])}.json")
    path = os.path.join(WORKDIR, name)
    with open(path, "w") as fh:
        json.dump({**result, "meta": meta}, fh, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = missing_inputs()
    if missing:
        print(f"perfbench: missing {', '.join(missing)}: run from the root "
              "of a ydweyl checkout", file=sys.stderr)
        return 2
    meta = metadata()
    print("meta " + json.dumps(meta, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(result, meta)
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": m
                   for r in results for k, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
