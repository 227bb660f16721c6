"""Benchmark worker: imports powerwalk.cli, then runs CLI invocations in-process.

Started by run.py as ``python3 perfbench/worker.py SRC_DIR``. It prints
``ready`` once ``powerwalk.cli`` is imported, then reads at most one request
line from stdin and exits. The reply goes to the protocol channel (the
original stdout; stray writes to file descriptor 1 are sent to stderr):

  {"argvs": [[...], ...], "trace": false}
      runs ``cli.main(argv)`` for each argv in turn with stdout and stderr
      captured, and replies with each invocation's exit code, output, wall
      and CPU seconds, plus the process's peak resident memory. With
      "trace": true the layer wrappers are installed first and the reply
      carries the per-function span aggregates.

A worker whose stdin is closed without a request exits after ``ready``; that
is how run.py samples set-up time alone.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _run(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    wall = time.perf_counter()
    cpu = time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # reported to the parent as a failed invocation
        code = None
        error = traceback.format_exc()
    return {
        "argv": argv,
        "code": code,
        "error": error,
        "wall_s": time.perf_counter() - wall,
        "cpu_s": time.process_time() - cpu,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }


def main() -> int:
    src = os.path.realpath(sys.argv[1])
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.path.insert(0, src)
    import powerwalk
    from powerwalk import cli

    if not os.path.realpath(powerwalk.__file__).startswith(src + os.sep):
        print(f"powerwalk imported from {powerwalk.__file__}, not {src}", file=sys.stderr)
        return 2
    proto.write("ready\n")
    proto.flush()

    line = sys.stdin.readline()
    if not line:
        return 0
    request = json.loads(line)
    tracer = None
    if request["trace"]:
        import tracer as tracing

        tracer = tracing.install(powerwalk)
    results = [_run(cli, argv) for argv in request["argvs"]]
    reply = {
        "results": results,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.aggregate() if tracer is not None else None,
    }
    proto.write(json.dumps(reply) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
