"""One fresh CLI process: import the package, run a workload's invocations once, report.

Reads ``{"src": ..., "argvs": [...], "trace": bool}`` as JSON on stdin and
writes one JSON line to stdout with the set-up times, the wall-clock and CPU
time of the ``cli.main`` calls, the peak resident set, each invocation's
wall-clock and CPU time, exit code, error and captured output, and, when
traced, the spans and work counters kept in memory until the end.  An
untraced process also times a calibration loop just before each invocation
(``loop_s``), outside the invocation's times.  A failing invocation is
recorded and the next one runs.
"""

import time

_t0 = time.perf_counter()
import numpy  # noqa: E402,F401  (timed: setup.numpy_s)

_t1 = time.perf_counter()
from causet_qft import cli  # noqa: E402  (timed: setup.package_s)

_t2 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import spans  # noqa: E402

# The calibration loop, timed before each invocation: the median of
# CALIBRATION_TIMES runs of CALIBRATION_ITERATIONS squares.
CALIBRATION_ITERATIONS = 200_000
CALIBRATION_TIMES = 3


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _calibrate() -> float:
    """Median seconds of a fixed pure-Python loop: this process's speed just now."""
    times = []
    for _ in range(CALIBRATION_TIMES):
        start = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_ITERATIONS):
            total += i * i
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


def _invoke(argv: list[str], calibrate: bool) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    loop_s = _calibrate() if calibrate else None
    cpu0, start = _cpu_s(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is one failed invocation, not the end of the run
        error = traceback.format_exc()
    wall_s, cpu_s = time.perf_counter() - start, _cpu_s() - cpu0
    return {
        "loop_s": loop_s, "wall_s": wall_s, "cpu_s": cpu_s, "exit": code, "error": error,
        "stdout": out.getvalue(), "stderr": err.getvalue(),
    }


def main() -> None:
    spec = json.load(sys.stdin)
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"causet_qft was imported from {cli.__file__}, not from {src}")
    tracer = spans.Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    results = []
    start = time.perf_counter()
    for run, argv in enumerate(spec["argvs"]):
        if tracer is not None:
            tracer.run = run
        results.append(_invoke(argv, calibrate=tracer is None))
    end = time.perf_counter()
    report = {
        "setup": {"numpy_s": _t1 - _t0, "package_s": _t2 - _t1},
        "wall_s": sum(r["wall_s"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "results": results,
    }
    if tracer is not None:
        report.update(window=[start, end], spans=tracer.spans, counters=tracer.counters)
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
