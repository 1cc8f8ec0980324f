"""Tests of the benchmark itself, not of the package.

Run from the root of the repository::

    python3 -m pytest -q perfbench/selftest.py

They start CLI child processes and trace every workload twice, so they take
about two minutes; the file name keeps them out of the package's test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import spans
import workloads
from workloads import Invocation

ROOT = Path(__file__).resolve().parent.parent
SIZE_COUNTERS = {
    "causet.vertices", "causet.comparable_pairs", "causet.pathless_pairs",
    "fock.points", "fock.dim", "scattering.dim", "cli.render.bytes", "util.op_matmul.flops",
}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


def outcome_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def measure(invocations: list[Invocation], trace: bool = False) -> list[dict]:
    argvs = [workloads.argv_of(inv) for inv in invocations]
    return run.measure(argvs, 0, trace, time.monotonic())


@pytest.fixture(scope="module")
def traced_twice() -> dict[str, list[dict]]:
    return {
        w: [outcome_of(bench("--workload", w, "--seconds", "0", "--trace", "1")) for _ in range(2)]
        for w in workloads.WORKLOADS
    }


def test_failures_are_counted_never_dropped():
    shells_t7 = next(inv for inv in workloads.build("reports", 0) if inv.argv == ("shells", "--t", "7"))
    invocations = [
        Invocation(("hyperboloid", "--m2", "0", "--pmax", "1"), workloads.pin_fields()),
        # the order-sum gate of scattering_series raises an uncaught AssertionError
        Invocation(("scatter", "--g", "1e4", "--m2", "0", "--M2", "1", "--horizon", "3", "--window", "1"),
                   workloads.pin_fields()),
        Invocation(("shells", "--t", "-1"), workloads.pin_fields()),  # exits 1
        Invocation(("shells", "--t", "6"), shells_t7.pins),  # breaks the t=7 shell-size pin
    ]
    children = measure(invocations)
    results = children[0]["results"]
    assert "AssertionError" in results[1]["error"]
    assert results[2]["exit"] == 1
    messages = run.verify(invocations, children)
    assert len(messages) == 3
    outcome = run.result(invocations, children, run.end_to_end(children), run.SPEC["end_to_end"])
    assert (outcome["correct"], outcome["attempted"], outcome["failed"]) == (False, 4, 3)


def test_differing_stdout_is_a_failure():
    invocations = [Invocation(("hyperboloid", "--m2", "0", "--pmax", "1"), workloads.pin_fields())]
    first = measure(invocations)[0]
    second = json.loads(json.dumps(first))
    second["results"][0]["stdout"] = first["results"][0]["stdout"].replace('"count": 13', '"count": 13 ')
    assert run.verify(invocations, [first, first]) == []
    assert run.verify(invocations, [first, second]) == [
        "hyperboloid --m2 0 --pmax 1: stdout differs from the first repetition's"
    ]


def test_every_workload_passes_with_its_pins_and_counters_repeat(traced_twice):
    for workload, (first, second) in traced_twice.items():
        assert first["correct"] and second["correct"], workload
        assert first["failed"] == 0
        counters = [n for n in first["metrics"] if n.endswith(".calls") or n in SIZE_COUNTERS]
        assert {n: first["metrics"][n] for n in counters} == {n: second["metrics"][n] for n in counters}


def test_layer_map_matches_the_declared_metrics_and_the_runs(traced_twice):
    mapped = [n for group in workloads.RECORD["layer_map"] for n in group["metrics"]]
    assert mapped == [m["name"] for m in run.SPEC["per_layer"]]
    for group in workloads.RECORD["layer_map"]:
        for workload in group["on"][:1]:
            metrics = traced_twice[workload][0]["metrics"]
            for name in group["metrics"]:
                if not name.startswith("trace."):
                    assert metrics[name]["value"] > 0, (workload, name)


def test_self_times_and_unspanned_add_up_to_the_traced_wall():
    children = measure(workloads.build("reports", 0), trace=True)
    traced = children[1]
    summary = spans.summarize(traced["spans"], traced["window"])
    self_s = sum(f["self_s"] for f in summary["functions"].values())
    assert summary["unspanned_s"] >= 0
    assert self_s + summary["unspanned_s"] == pytest.approx(traced["window"][1] - traced["window"][0], rel=1e-9)
    assert self_s + summary["unspanned_s"] == pytest.approx(traced["wall_s"], abs=1e-3)
    assert {s[4] for s in traced["spans"]} == set(range(8))  # one run id per invocation


def test_calibrated_times_scale_each_invocation_by_its_loop_time():
    loop_s = run.CALIBRATION_LOOP_S
    children = [
        {"setup": {"numpy_s": 0.1, "package_s": 0.1}, "wall_s": 3 * w, "cpu_s": 6 * w, "peak_rss_mb": 50.0,
         "results": [{"loop_s": loop_s * slow, "wall_s": w * slow, "cpu_s": 2 * w * slow} for slow in (1, 2, 3)]}
        for w in (1.0, 2.0, 4.0)
    ]
    values = run.end_to_end(children)
    assert values["wall_cal_s"] == pytest.approx(6.0)
    assert values["cpu_cal_s"] == pytest.approx(12.0)
    assert run.raw_times(children)["wall_s"] == 6.0


def test_summarize_self_time_and_gaps():
    spans_ = [["outer", 0.0, 4.0, -1, 0], ["inner", 1.0, 2.5, 0, 0], ["inner", 3.0, 3.5, 0, 0],
              ["outer", 5.0, 6.0, -1, 1]]
    summary = spans.summarize(spans_, (0.0, 7.0))
    assert summary["functions"]["outer"] == {"s": 5.0, "self_s": 3.0, "calls": 2}
    assert summary["functions"]["inner"] == {"s": 2.0, "self_s": 2.0, "calls": 2}
    assert summary["unspanned_s"] == 2.0


def test_seed_picks_distinct_pairs_and_the_default_keeps_the_cli_defaults():
    assert workloads.scatter_momenta(workloads.DEFAULT_SEED) == ((1, 2), (3, 4))
    for seed in range(1, 200):
        into, out = workloads.scatter_momenta(seed)
        assert into != out and into[0] < into[1] < workloads.PI_POINTS and out[0] < out[1] < workloads.PI_POINTS
        assert workloads.scatter_momenta(seed) == (into, out)
    for workload, fixed in (("verify", 2), ("reports", 8)):
        argvs = [[inv.argv for inv in workloads.build(workload, seed)][:fixed] for seed in (0, 3)]
        assert argvs[0] == argvs[1]


def test_non_default_seed_applies_the_structural_pins():
    scatter = workloads.build("verify", 7)[-1]
    assert scatter.argv[-4:] == ("--in", "3,12", "--out-momenta", "1,9")
    children = measure([scatter])
    assert run.verify([scatter], children) == []


def test_exits_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "reports", "--seed", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
