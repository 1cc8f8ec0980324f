"""The benchmark's workloads: CLI invocations and the pins their reports must meet.

A workload is a list of ``--format json`` invocations of ``causet_qft.cli.main``.
Each invocation carries the pins its report must satisfy; a pin is read from
the report's fields, not from a digest of stdout, so a change that only adds
payload fields still passes.  Every report must also have
``summary.all_passed`` true.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

RECORD = json.loads((Path(__file__).parent / "record.json").read_text(encoding="utf-8"))

# ``hyperboloid(0, 1)``, the pi-particle mass shell of the scatter workload,
# has 13 points; the seed picks the in/out momenta among them.
PI_POINTS = 13
DEFAULT_SEED = 0
SCATTER_ARGS = ("scatter", "--g", "0.1", "--m2", "0", "--M2", "1", "--horizon", "4", "--window", "1")

Pins = Callable[[dict], "list[str]"]


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    pins: Pins


def _field(report: dict, path: str):
    for key in path.split("."):
        report = report[key]
    return report


def pin_fields(*pins: tuple[str, object]) -> Pins:
    """Pins that each report field at a dotted path equals a value."""

    def check(report: dict) -> list[str]:
        return [
            f"{path} is {_field(report, path)!r}, pinned {want!r}"
            for path, want in pins
            if _field(report, path) != want
        ]

    return check


def _pin_length(path: str, want: int) -> Pins:
    def check(report: dict) -> list[str]:
        got = len(_field(report, path))
        return [] if got == want else [f"{path} has {got} entries, pinned {want}"]

    return check


def _check_passed(report: dict, name: str) -> list[str]:
    checks = {c["name"]: c["passed"] for c in report["summary"]["checks"]}
    return [] if checks.get(name) is True else [f"check {name} is {checks.get(name)!r}"]


def _complex(value: dict) -> complex:
    return complex(value["re"], value["im"])


def _scatter_structure(report: dict) -> list[str]:
    per_order = [_complex(v) for v in report["payload"]["per_order"]]
    problems = [f"order {k} amplitude {c!r} is not 0" for k, c in enumerate(per_order) if k % 2 and c != 0]
    problems += _check_passed(report, "odd_orders_vanish")
    problems += _check_passed(report, "order_zero_vanishes_for_distinct_states")
    return problems


def _scatter_reference(report: dict) -> list[str]:
    problems = _scatter_structure(report)
    per_order = [_complex(v) for v in report["payload"]["per_order"]]
    for key, ref in RECORD["scatter_reference_amplitudes"].items():
        want = complex(*ref)
        got = per_order[int(key.removeprefix("order"))]
        if abs(got - want) > 1e-9 * abs(want):
            problems.append(f"{key} amplitude {got!r}, recorded {want!r}")
    return problems


def _masses(report: dict) -> list[str]:
    norms = report["payload"]["attainable_spatial_norms_49"]
    return [] if 15 in norms and 14 not in norms else ["norm 15 must be attainable and 14 not"]


def scatter_momenta(seed: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """In/out index pairs: the CLI defaults for the default seed, else two distinct pairs."""
    if seed == DEFAULT_SEED:
        return (1, 2), (3, 4)
    into, out = random.Random(seed).sample(list(combinations(range(PI_POINTS), 2)), 2)
    return into, out


def _verify(seed: int) -> list[Invocation]:
    into, out = scatter_momenta(seed)
    scatter = SCATTER_ARGS + ("--in", f"{into[0]},{into[1]}", "--out-momenta", f"{out[0]},{out[1]}")
    return [
        Invocation(
            ("causet-verify", "--t", "4"),
            pin_fields(
                ("payload.vertex_count", 627),
                ("payload.comparable_pairs", 9852),
                ("payload.pathless_comparable_pairs", 492),
            ),
        ),
        Invocation(
            ("fock-verify", "--m2", "3", "--pmax", "3", "--nmax", "2"),
            pin_fields(
                ("payload.sector_dims", [1, 20, 210]),
                ("payload.phi_phi_commutator_max", 0.0),
                ("payload.psi_psi_commutator_max", 0.0),
            ),
        ),
        Invocation(scatter, _scatter_reference if seed == DEFAULT_SEED else _scatter_structure),
    ]


def _reports(seed: int) -> list[Invocation]:
    entries = [
        ("group-table --check", pin_fields(("paper_diff.table_cell_diffs", []))),
        ("group-verify", pin_fields(("payload.generators.failing_pair_count", 24))),
        ("reps-verify", _pin_length("paper_diff.spinor_mismatched_labels", 8)),
        ("no-boost --bound 12", pin_fields(("payload.boost_count", 2976), ("payload.fixing_time_axis", 48))),
        ("shells --t 7", pin_fields(("payload.sizes", [1, 13, 55, 177, 381, 767, 1289, 2093]))),
        ("speeds --t 5", pin_fields()),
        ("masses --p0-max 12", _masses),
        ("hyperboloid --m2 0 --pmax 4", pin_fields()),
    ]
    return [Invocation(tuple(argv.split()), pins) for argv, pins in entries]


# ``verify`` runs the three heavy reports in one repetition: causet-verify
# alone varies by about 25% from one process to the next on a shared 2-core
# VM, and one long workload measured for longer is steadier than three short
# ones.  ``reports`` leaves every heavy layer idle.
WORKLOADS: dict[str, Callable[[int], list[Invocation]]] = {"verify": _verify, "reports": _reports}


def build(name: str, seed: int) -> list[Invocation]:
    return WORKLOADS[name](seed)


def argv_of(inv: Invocation) -> list[str]:
    return ["--format", "json", *inv.argv]


def problems(inv: Invocation, stdout: str) -> list[str]:
    """Why the report on ``stdout`` fails, or an empty list when it passes."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not a JSON report: {exc}"]
    try:
        found = [] if report["summary"]["all_passed"] is True else ["summary.all_passed is not true"]
        return found + inv.pins(report)
    except (KeyError, IndexError, TypeError) as exc:
        return [f"report lacks a pinned field: {exc!r}"]
