"""One benchmark repetition: what a CLI user pays for one command.

Usage: python3 child.py MODE RESULT_JSON SESSION COMMAND...

MODE is `run` (load the session, run the command, write its output to
stdout) or `trace` (as `run`, with every layer's entry points wrapped from
outside; see tracer.py).  The child writes its timestamps, peak RSS and,
when traced, the per-layer numbers and the raw spans to RESULT_JSON.  Timestamps use time.perf_counter, which on
Linux reads the system-wide monotonic clock, so the parent can subtract its
own readings.
"""

import json
import resource
import sys
import time


def main(argv) -> int:
    mode, result_path, session_path, *command = argv
    tracer = None
    if mode == "trace":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    from ydweyl import cli
    from ydweyl.errors import YDWeylError

    args = cli.build_parser().parse_args(["--session", session_path, *command])
    code = 0
    output = ""
    t_loaded = None
    try:
        session = cli.load_session(session_path)
        t_loaded = time.perf_counter()
        output = cli.COMMANDS[args.command](session, args)
    except cli.SessionError as exc:
        print(exc, file=sys.stderr)
        code = exc.code
    except YDWeylError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        code = cli.EXIT_PARSE
    sys.stdout.write(output)
    sys.stdout.flush()
    result = {"t_loaded": t_loaded,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["layers"] = tracer.metrics(stdout_bytes=len(output.encode()))
        result["spans"] = tracer.spans
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
