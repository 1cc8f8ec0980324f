"""Benchmark of the causet-qft verifier command line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload verify --seed 0 --seconds 60 --trace 0

A workload (``workloads.py``) is a list of ``--format json`` invocations.  One
repetition starts a fresh child process (``child.py``) that imports numpy and
``causet_qft.cli`` from ``src/`` and passes the invocations to ``cli.main``
one at a time, because a CLI user pays import and lazy set-up on every run.
Repetitions follow one another (a closed loop with one client) for about
``--seconds``.  Every report is checked against its pins and against the
first repetition's stdout, byte for byte; an exception, a non-zero exit, a
broken pin or differing stdout is one failed invocation.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, each a
median over repetitions.  ``wall_cal_s`` and ``cpu_cal_s`` are the
wall-clock and CPU time of a repetition's ``cli.main`` calls, scaled to the
speed of the host the benchmark was defined on: just before each invocation
the child times a fixed pure-Python loop, and the invocation's times are
multiplied by the loop time recorded in ``record.json`` over the loop time
just measured.  That host runs the same process up to 1.6 times slower for
seconds to minutes at a time: over ten one-minute runs per workload, the
quartile spread of the scaled medians was 0.04-0.07 of their median, and
that of the unscaled ones 0.13-0.24.  The loop is the benchmark's own
code, so a change to the program moves the scaled times as much as the
unscaled ones, unless it leaves the process busy after an invocation returns
(threads still spinning), which would slow the next loop.  The unscaled medians ``wall_s`` and ``cpu_s`` and
the median ``scale`` (recorded over measured loop time) are printed for
people beside them, with the sample count.

``--trace 1`` alternates untraced and traced repetitions (``spans.py``) and
reports the per-layer metrics: medians over the traced repetitions, with
``trace.overhead_s`` the traced minus the untraced median ``wall_s``.  A
layer a workload does not reach reads 0.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the same
figures for people, with units, sample counts and ``fail_rate``.  The exit
code is 2, with no result, when the program cannot be set up.  Both
workloads' end-to-end figures in one command::

    for w in verify reports; do python3 perfbench/run.py --workload $w; done

The benchmark's own tests: ``python3 -m pytest -q perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# The run must end within 180 s; a child still running at this point is killed.
DEADLINE_S = 170.0
# Left to their defaults in the child: OpenBLAS uses nproc threads and the
# package runs its enumeration serially.
UNSET_ENV = ("CAUSET_QFT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The calibration loop's time (``child.py``) on the host the benchmark was
# defined on: the speed the calibrated times are scaled to.
CALIBRATION_LOOP_S = workloads.RECORD["calibration_loop_s"]

# Size counters read from the reports, per subcommand.
PAYLOAD_COUNTERS = {
    "causet-verify": {
        "causet.vertices": lambda p: p["vertex_count"],
        "causet.comparable_pairs": lambda p: p["comparable_pairs"],
        "causet.pathless_pairs": lambda p: p["pathless_comparable_pairs"],
    },
    "fock-verify": {
        "fock.points": lambda p: p["point_count"],
        "fock.dim": lambda p: p["total_dim"],
    },
    "scatter": {"scattering.dim": lambda p: p["pi_dim"] * p["sigma_dim"]},
}


class SetupError(RuntimeError):
    """The program could not be started or measured; no result is printed."""


def spawn(argvs: list[list[str]], traced: bool, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env["PYTHONPATH"] = str(SRC)
    spec = json.dumps({"src": str(SRC), "argvs": argvs, "trace": traced})
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py")],
            input=spec, capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        raise SetupError("a repetition overran the deadline and was killed") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SetupError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    child = json.loads(lines[-1])
    child["traced"] = traced
    return child


def measure(argvs: list[list[str]], seconds: float, trace: bool, started: float) -> list[dict]:
    """Repetitions while the next one, as long as their median so far, fits in ``seconds``.

    There is at least one; with ``trace`` they alternate untraced and traced,
    at least one of each.
    """
    children: list[dict] = []
    durations: list[float] = []
    begin = time.monotonic()
    while (
        not children
        or (trace and len(children) < 2)
        or time.monotonic() - begin + statistics.median(durations) <= seconds
    ):
        t0 = time.monotonic()
        children.append(spawn(argvs, trace and len(children) % 2 == 1, started + DEADLINE_S))
        durations.append(time.monotonic() - t0)
    return children


def failure(inv: workloads.Invocation, result: dict, reference: str) -> str | None:
    if result["error"]:
        return "raised " + result["error"].strip().splitlines()[-1]
    if result["exit"] != 0:
        return f"exited {result['exit']}: {result['stderr'].strip()[-300:]}"
    if result["stdout"] != reference:
        return "stdout differs from the first repetition's"
    found = workloads.problems(inv, result["stdout"])
    return "; ".join(found) if found else None


def verify(invocations: list[workloads.Invocation], children: list[dict]) -> list[str]:
    """One message per failed invocation, over every repetition."""
    reference = [r["stdout"] for r in children[0]["results"]]
    messages = []
    for child in children:
        for inv, result, ref in zip(invocations, child["results"], reference):
            why = failure(inv, result, ref)
            if why:
                messages.append(f"{' '.join(inv.argv)}: {why}")
    return messages


def layer_values(child: dict) -> dict[str, float]:
    """Per-layer figures of one traced repetition."""
    summary = spans.summarize(child["spans"], child["window"])
    values: dict[str, float] = dict(child["counters"])
    for name, stats in summary["functions"].items():
        for key, value in stats.items():
            values[f"{name}.{key}"] = value
    command_s = sum(s["s"] for n, s in summary["functions"].items() if n.startswith("cli.cmd_"))
    values["cli.render.s"] = values.get("cli.main.s", 0.0) - command_s
    values["cli.render.bytes"] = sum(len(r["stdout"].encode()) for r in child["results"])
    values["trace.unspanned_s"] = summary["unspanned_s"]
    for result in child["results"]:
        try:
            report = json.loads(result["stdout"])
        except json.JSONDecodeError:
            continue  # already counted as a failed invocation
        for name, read in PAYLOAD_COUNTERS.get(report["command"], {}).items():
            values[name] = read(report["payload"])
    return values


def median_of(children: list[dict], read) -> float:
    return statistics.median(read(c) for c in children)


def calibrated(child: dict, key: str) -> float:
    """A repetition's ``key`` time, each invocation's scaled by the loop time before it."""
    return sum(r[key] * CALIBRATION_LOOP_S / r["loop_s"] for r in child["results"])


def end_to_end(children: list[dict]) -> dict[str, float]:
    return {
        "setup_s": median_of(children, lambda c: c["setup"]["numpy_s"] + c["setup"]["package_s"]),
        "wall_cal_s": median_of(children, lambda c: calibrated(c, "wall_s")),
        "cpu_cal_s": median_of(children, lambda c: calibrated(c, "cpu_s")),
        "peak_rss_mb": median_of(children, lambda c: c["peak_rss_mb"]),
    }


def raw_times(children: list[dict]) -> dict[str, float]:
    """The unscaled medians of ``wall_cal_s`` and ``cpu_cal_s``, printed for people."""
    return {
        "wall_s": median_of(children, lambda c: c["wall_s"]),
        "cpu_s": median_of(children, lambda c: c["cpu_s"]),
        "scale": statistics.median(CALIBRATION_LOOP_S / r["loop_s"] for c in children for r in c["results"]),
    }


def per_layer(children: list[dict]) -> dict[str, float]:
    plain = [c for c in children if not c["traced"]]
    traced = [c for c in children if c["traced"]]
    samples = [layer_values(c) for c in traced]
    names = {name for s in samples for name in s}
    values = {n: statistics.median(s.get(n, 0.0) for s in samples) for n in names}
    values["setup.numpy_s"] = median_of(children, lambda c: c["setup"]["numpy_s"])
    values["setup.package_s"] = median_of(children, lambda c: c["setup"]["package_s"])
    values["trace.overhead_s"] = median_of(traced, lambda c: c["wall_s"]) - median_of(
        plain, lambda c: c["wall_s"]
    )
    return values


def print_functions(values: dict[str, float]) -> None:
    names = sorted({n.rsplit(".", 1)[0] for n in values if n.endswith(".calls")},
                   key=lambda n: -values[f"{n}.s"])
    print(f"{'span':44} {'calls':>8} {'s':>10} {'self_s':>10}")
    for n in names:
        print(f"{n:44} {values[n + '.calls']:8.0f} {values[n + '.s']:10.4f} {values[n + '.self_s']:10.4f}")


def result(invocations: list[workloads.Invocation], children: list[dict],
           values: dict[str, float], declared: list[dict]) -> dict:
    """The benchmark's result object for the ``declared`` metrics; failures go to stderr."""
    messages = verify(invocations, children)
    for message in messages[:10]:
        print(f"FAILED {message}", file=sys.stderr)
    return {
        "correct": not messages,
        "attempted": len(invocations) * len(children),
        "failed": len(messages),
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared},
    }


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "causet_qft" / "cli.py").is_file():
        print(f"error: no causet_qft package under {SRC}", file=sys.stderr)
        return 2

    invocations = workloads.build(args.workload, args.seed)
    argvs = [workloads.argv_of(inv) for inv in invocations]
    try:
        children = measure(argvs, args.seconds, bool(args.trace), started)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        values = per_layer(children)
        print_functions(values)
    else:
        values = end_to_end(children)
    outcome = result(invocations, children, values, SPEC["per_layer" if args.trace else "end_to_end"])
    traced = sum(c["traced"] for c in children)
    print(f"workload {args.workload} seed {args.seed}: {len(children)} repetitions "
          f"({traced} traced) of {len(invocations)} invocations")
    for name, m in outcome["metrics"].items():
        print(f"  {name:44} {m['value']:14.6g} {m['unit']}")
    if not args.trace:
        raw = raw_times(children)
        for name in ("wall_s", "cpu_s"):
            print(f"  {name:44} {raw[name]:14.6g} s (median of {len(children)})")
        loops = sum(len(c["results"]) for c in children)
        print(f"  {'scale':44} {raw['scale']:14.6g} ratio (median of {loops} loops)")
    failed, attempted = outcome["failed"], outcome["attempted"]
    print(f"  {'fail_rate':44} {failed / attempted:14.6g} ratio ({failed}/{attempted})")
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
