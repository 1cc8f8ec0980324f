"""Compare the command line's output at a git revision with the work tree's.

    python tools/stdout_diff.py REV

``git archive``s REV into a temporary directory, then runs every invocation in
``invocations()`` as ``python -m causet_qft.cli``, once with REV's ``src/`` and once with
the work tree's on ``PYTHONPATH``, under ``OPENBLAS_NUM_THREADS=1`` (BLAS sums in one
order).  Two runs agree when their stdout, their exit codes and their stderr lines
carrying ``error:`` or starting with ``FAILED:`` are equal; the ``# wall-clock:`` line
and argparse's usage text are not compared.  Prints one line per invocation and exits 1
when any invocation differs.  When both stdouts of a differing invocation are json
reports, an indented line follows for each dotted key path (list items by index) that
was added (``+``), removed (``-``) or changed (``~``); a changed number also shows its old
and new value and their relative difference |new - old| / |old|.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # leaves no cache beside the benchmark's files

import workloads  # noqa: E402  (the benchmark's invocations)

SCATTER = ("scatter", "--g", "0.1", "--m2", "0", "--M2", "1")
FOCK = [("0", "1", "3"), ("0", "1", "5"), ("0", "2", "3"), ("1", "2", "3"), ("3", "3", "2")]


def invocations(scratch: str) -> list[tuple[str, ...]]:
    """Every subcommand in json and text, the csv forms, the benchmark's invocations, the
    gates' edge cases, the documented ``error:`` cases and a run whose gates fail;
    ``scratch`` is an existing directory for ``--out``."""
    reports = [
        ("group-table",), ("group-table", "--check"), ("group-verify",), ("reps-verify",),
        *(("no-boost", "--bound", bound) for bound in ("3", "5", "12", "20")),
        ("shells", "--t", "3"), ("shells", "--t", "4", "--sizes-only"),
        ("causet-verify", "--t", "5"), ("speeds", "--t", "5"), ("masses", "--p0-max", "7"),
        ("hyperboloid", "--m2", "0", "--pmax", "4"), ("hyperboloid", "--m2", "3", "--pmax", "3"),
        *(("fock-verify", "--m2", m2, "--pmax", pmax, "--nmax", nmax) for m2, pmax, nmax in FOCK),
        SCATTER + ("--horizon", "3", "--window", "0"),
        SCATTER + ("--horizon", "4", "--window", "1", "--in", "3,3", "--out-momenta", "3,3"),
        SCATTER + ("--horizon", "4", "--window", "1", "--in", "3,4", "--out-momenta", "4,3"),
        SCATTER + ("--horizon", "3", "--window", "0", "--in", "2,7", "--out-momenta", "5,1"),
        SCATTER + ("--npi", "3", "--horizon", "4", "--window", "1"),
        SCATTER + ("--horizon", "6", "--window", "0", "--in=4,4", "--out-momenta=1,12"),
    ]
    tables = [argv for argv in reports if argv[0] in {"group-table", "shells", "speeds", "masses", "hyperboloid"}]
    tables += [argv for argv in reports if argv[0] == "fock-verify"]
    benchmark = [
        tuple(workloads.argv_of(inv))
        for name in workloads.WORKLOADS
        for inv in workloads.build(name, workloads.DEFAULT_SEED)
    ]
    causets = [("--format", "json", "causet-verify", "--t", str(t)) for t in (*range(9), 12, 20)]
    # edge cases of the gates: no shell 1 at t 0, H = 0 with S = I at g 0, and a series
    # that overflows into NaN at g 1e300
    edges = [
        ("--format", "json", "shells", "--t", "0"),
        ("--format", "json", "scatter", "--g", "0", "--m2", "0", "--M2", "1", "--horizon", "3", "--window", "0"),
        ("--format", "json", "scatter", "--g", "1e300", "--m2", "0", "--M2", "1", "--horizon", "3", "--window", "0"),
    ]
    errors = [
        ("fock-verify", "--m2", "0", "--pmax", "1", "--nmax", "0"),
        ("fock-verify", "--m2", "5", "--pmax", "1", "--nmax", "1"),
        ("fock-verify", "--m2", "0", "--pmax", "3", "--nmax", "9"),
        SCATTER + ("--horizon", "0", "--window", "0"),
        SCATTER + ("--horizon", "1", "--window", "0", "--in", "0,13"),
        SCATTER + ("--horizon", "1", "--window", "0", "--out-momenta=-1,2"),
        SCATTER + ("--horizon", "1", "--window", "0", "--in", "1"),
        SCATTER + ("--pmax", "3", "--horizon", "2", "--window", "0"),
        ("scatter", "--g", "0.1", "--m2", "5", "--M2", "1", "--horizon", "1", "--window", "0"),
        ("scatter", "--g", "inf", "--m2", "0", "--M2", "1", "--horizon", "1", "--window", "0"),
        ("--format", "csv") + SCATTER + ("--horizon", "1", "--window", "0"),
        ("causet-verify", "--t", "400"), ("shells", "--t", "400"),
        ("masses", "--p0-max", "100000000"), ("no-boost", "--bound", "1000"),
        ("--out", scratch, "group-verify"), ("--out", os.path.join(scratch, "missing", "report.json"), "group-verify"),
        ("--tol", "0", "group-verify"), ("--tol", "nan", "group-verify"),
        ("hyperboloid", "--m2", "5", "--pmax", "1"), ("--format", "json", "--tol", "1e-17", "reps-verify"),
    ]
    return [
        *(("--format", fmt, *argv) for fmt in ("json", "text") for argv in reports),
        *(("--format", "csv", *argv) for argv in tables),
        *benchmark,
        *causets,
        *edges,
        *errors,
    ]


def run(src: Path, argv: tuple[str, ...], cwd: str) -> tuple[bytes, int, list[str]]:
    """stdout, exit code and the compared stderr lines of one invocation."""
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "causet_qft.cli", *argv], cwd=cwd, env=env, capture_output=True, check=False
    )
    lines = proc.stderr.decode(errors="replace").splitlines()
    return proc.stdout, proc.returncode, [line for line in lines if "error:" in line or line.startswith("FAILED:")]


def relative(old: float, new: float) -> float:
    """|new - old| / |old|: inf when only ``old`` is 0, NaN when either is NaN."""
    if math.isnan(old) or math.isnan(new):
        return math.nan
    return abs(new - old) / abs(old) if old else math.inf


def key_changes(old, new, path: str = "") -> list[str]:
    """The dotted key paths where two parsed json reports differ, each marked ``+`` (only in
    ``new``), ``-`` (only in ``old``) or ``~`` (changed, a number with its old and new value
    and their relative difference); leaves compare as json text, so a NaN equals a NaN."""
    if isinstance(old, dict) and isinstance(new, dict):
        keys = sorted(old.keys() | new.keys())
    elif isinstance(old, list) and isinstance(new, list):
        keys = range(max(len(old), len(new)))
        old, new = dict(enumerate(old)), dict(enumerate(new))
    elif json.dumps(old) == json.dumps(new):
        return []
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)):
        return [f"~ {path}  {old!r} -> {new!r}  relative {relative(old, new):.3g}"]
    else:
        return [f"~ {path}"]
    changes = []
    for key in keys:
        at = f"{path}.{key}" if path else str(key)
        if key not in new:
            changes.append(f"- {at}")
        elif key not in old:
            changes.append(f"+ {at}")
        else:
            changes += key_changes(old[key], new[key], at)
    return changes


def json_changes(old: bytes, new: bytes) -> list[str]:
    """:func:`key_changes` of two stdouts, or nothing when either is not one json report."""
    try:
        return key_changes(json.loads(old), json.loads(new))
    except ValueError:
        return []


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        base, scratch = Path(tmp, "base"), Path(tmp, "scratch")
        base.mkdir()
        scratch.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", argv[0]], capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive.stdout, check=True)
        differing = 0
        cases = invocations(str(scratch))
        for case in cases:
            old, new = (run(src, case, str(scratch)) for src in (base / "src", ROOT / "src"))
            parts = [name for name, a, b in zip(("stdout", "exit", "errors"), old, new) if a != b]
            differing += bool(parts)
            verdict = f"DIFF ({', '.join(parts)})" if parts else "same"
            print(f"{verdict:<22} exit {new[1]}  {' '.join(case)}", flush=True)
            for change in json_changes(old[0], new[0]) if old[0] != new[0] else ():
                print(f"    {change}", flush=True)
    print(f"{len(cases) - differing} of {len(cases)} invocations identical to {argv[0]}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
