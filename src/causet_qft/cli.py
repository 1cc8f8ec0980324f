"""Verification and reporting command line: it parses, thresholds and renders.

Each library module owns its gates: a function there measures one law (group
axioms, unitarity, commutator identities, and so on) and returns the value.
A subcommand draws its seeded samples, calls those functions, thresholds the
values against ``--tol`` or their exact target, and assembles a report bundle
with five sections: the command echo, the configuration, the result payload,
the diff against the published values (data that never fails the run), and a
pass/fail summary.  Bundles are rendered deterministically (sorted keys, no
timestamps); wall-clock timing goes to stderr so stdout is byte-identical
across runs.  No library gate raises: a failed gate is a named check in the
report.  Exit status: 0 when all gated checks pass, 1 when one fails (named
on stderr after the report) or the run stops on bad input (``error: ...`` on
stderr), 2 for usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import sys
import time
from dataclasses import asdict, is_dataclass
from fractions import Fraction

import numpy as np

from . import causet, fock, momentum, representations as reps, scattering, symmetry
from .lattice import Vec3, Vec4
from .momentum import PoincareElement

TABLE_COMMANDS = {"group-table", "shells", "speeds", "masses", "hyperboloid", "fock-verify"}

# The scattering series' defects are gated relative to max|S(n)|: a product's
# rounding error scales with the sizes of its factors, and |S| grows
# geometrically with the horizon.  Measured defects sit near 2e-15 relative.
SERIES_RELATIVE_BOUND = 1e-13


def _plain(obj):
    """Recursively convert report values into JSON-encodable structures."""
    if isinstance(obj, (Vec3, Vec4)):
        return list(obj.coords())
    if isinstance(obj, complex):
        return {"im": float(obj.imag), "re": float(obj.real)}
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.complexfloating,)):
        return _plain(complex(obj))
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if is_dataclass(obj) and not isinstance(obj, type):
        return _plain(asdict(obj))
    if isinstance(obj, dict):
        return {_key(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj, key=repr) if isinstance(obj, (set, frozenset)) else obj
        return [_plain(v) for v in seq]
    return obj


def _key(k):
    if isinstance(k, tuple):
        return ",".join(str(x) for x in k)
    return str(k)


def _check(name: str, passed: bool, detail=None) -> dict:
    entry = {"name": name, "passed": bool(passed)}
    if detail is not None:
        entry["detail"] = detail
    return entry


def _bundle(command: str, config: dict, payload: dict, paper_diff, checks: list[dict]) -> dict:
    return {
        "command": command,
        "config": config,
        "payload": payload,
        "paper_diff": paper_diff,
        "summary": {
            "checks": checks,
            "all_passed": all(c["passed"] for c in checks),
        },
    }


# ---------------------------------------------------------------- commands


def cmd_group_table(args) -> dict:
    table = symmetry.build_table()
    diffs = symmetry.table_diff_vs_printed(table)
    payload = {
        "labels": list(table.labels),
        "rows": [" ".join(row) for row in table.rows],
        "latin_square": table.latin_square,
        "associative": table.associative,
    }
    checks = [
        _check("latin_square", table.latin_square),
        _check("associative_all_triples", table.associative),
    ]
    paper_diff = {
        "element_matrix_diffs": list(symmetry.ELEMENT_PRINT_DIFFS),
        "table_cell_diffs": diffs,
    }
    if args.check:
        checks.append(_check("table_matches_printed", len(diffs) == 0, {"diff_cells": len(diffs)}))
    return _bundle("group-table", {"check": bool(args.check)}, payload, paper_diff, checks)


def cmd_group_verify(args) -> dict:
    table = symmetry.build_table()
    iso = symmetry.isometry_report()
    subgroups = symmetry.verify_subgroups()
    pairwise = symmetry.pairwise_generators()
    mn = len(symmetry.generate_from([symmetry.element("M"), symmetry.element("N")]))
    inverses_ok = all(
        symmetry.multiply(z, symmetry.inverse(z)).label == "I" for z in symmetry.elements()
    )
    failing_pairs = [
        r["pair"] for r in pairwise["pairs"] if not r["commute"] and r["generated_order"] != 24
    ]
    payload = {
        "order": len(symmetry.elements()),
        "axioms": {
            "latin_square": table.latin_square,
            "associative": table.associative,
            "inverses": inverses_ok,
        },
        "isometry": iso,
        "subgroups": subgroups,
        "generators": {
            "mn_generated_order": mn,
            "noncommuting_pairs_generate": pairwise["noncommuting_pairs_generate"],
            "failing_pair_count": len(failing_pairs),
            "failing_pairs": failing_pairs,
        },
    }
    checks = [
        _check("group_order_24", len(symmetry.elements()) == 24),
        _check("latin_square", table.latin_square),
        _check("associative_all_triples", table.associative),
        _check("inverses_exist", inverses_ok),
        _check("isometry_invariants", all(iso.values())),
        _check("listed_subgroups_verify", all(s["subgroup"] for s in subgroups)),
        _check("mn_generates_group", mn == 24),
    ]
    paper_diff = {
        "element_matrix_diffs": list(symmetry.ELEMENT_PRINT_DIFFS),
        "pairwise_generator_claim_holds": pairwise["noncommuting_pairs_generate"],
        "pairwise_generator_counterexamples": failing_pairs,
    }
    return _bundle("group-verify", {}, payload, paper_diff, checks)


def cmd_reps_verify(args) -> dict:
    tol = args.tol
    u_defect = max(reps.cal_u(z).unitarity_defect() for z in symmetry.elements())
    hom = reps.homomorphism_defect()
    eig = reps.eigenvalue_set_defect()
    spin_unitarity = reps.spinor_unitarity_defect()
    seven_worst = reps.spinor_equation_residual()
    log_worst = reps.generator_log_defect()
    proj_canonical = reps.projective_check(reps.SignConvention.CANONICAL)
    proj_printed = reps.projective_check(reps.SignConvention.PRINTED)
    proj_worst = proj_canonical["worst_residual"]
    printed_report = reps.printed_spinor_report()
    transport = reps.eigen_transport_check()
    mismatched = [r["label"] for r in printed_report if not r["matches_up_to_sign"]]
    pinned = {"I", "M", "N", "G", "J"}
    pinned_match = all(r["matches_up_to_sign"] for r in printed_report if r["label"] in pinned)
    payload = {
        "unitary3_defect": u_defect,
        "homomorphism_defect": hom,
        "eigenvalue_set_defect": eig,
        "generator_log_roundtrip_defect": log_worst,
        "spinor_unitarity_defect": spin_unitarity,
        "spinor_equation_residual": seven_worst,
        "projective_worst_residual": proj_worst,
        "eigen_transport_defect": transport,
        "cocycle_examples": {
            "printed_convention_GH": proj_printed["cocycle"][("G", "H")],
            "printed_convention_JJ": proj_printed["cocycle"][("J", "J")],
            "canonical_convention_JJ": proj_canonical["cocycle"][("J", "J")],
        },
        "unitary3": {z.label: reps.cal_u(z).matrix.astype(complex) for z in symmetry.elements()},
        "spinor": {z.label: reps.spinor_of(z).matrix for z in symmetry.elements()},
    }
    checks = [
        _check("unitary3_unitarity", u_defect < 1e-12, u_defect),
        _check("unitary3_homomorphism", hom < 1e-12, hom),
        _check("eigenvalues_in_allowed_set", eig < tol, eig),
        _check("generator_log_roundtrip", log_worst < tol, log_worst),
        _check("spinor_unitarity", spin_unitarity < 1e-12, spin_unitarity),
        _check("spinor_equations", seven_worst < tol, seven_worst),
        _check("projective_up_to_sign", proj_worst < tol, proj_worst),
        _check("pinned_spinor_examples_match", pinned_match),
        _check("cocycle_GH_minus_one", proj_printed["cocycle"][("G", "H")] == -1),
        _check("cocycle_JJ_minus_one", proj_printed["cocycle"][("J", "J")] == -1),
        _check("eigen_transport", transport < tol, transport),
    ]
    paper_diff = {
        "spinor_listing": printed_report,
        "spinor_mismatched_labels": mismatched,
    }
    return _bundle("reps-verify", {"tol": tol}, payload, paper_diff, checks)


def cmd_no_boost(args) -> dict:
    cert = symmetry.no_boost_search(args.bound)
    witnesses_ok = all(symmetry.preserves_minkowski_form(m) for m in cert.boost_examples)
    families_ok = all(all(found.values()) for found in cert.quoted_families_found.values())
    payload = {
        "bound": cert.bound,
        "time_eq_solution_count": len(cert.time_eq_solutions),
        "space_eq_solution_count": len(cert.space_eq_solutions),
        "total_solutions": cert.total_solutions,
        "fixing_time_axis": cert.fixing_time_axis,
        "boost_count": cert.boost_count,
        "no_boosts": cert.no_boosts,
        "boost_examples": [list(map(list, m)) for m in cert.boost_examples],
        "quoted_families_found": cert.quoted_families_found,
    }
    checks = [
        _check("quoted_diophantine_families_reproduced", families_ok),
        _check("boost_witnesses_verify_as_isometries", witnesses_ok),
    ]
    paper_diff = {
        "published_no_boost_claim_holds": cert.no_boosts,
        "boost_counterexample": payload["boost_examples"][0] if cert.boost_examples else None,
    }
    return _bundle("no-boost", {"bound": args.bound}, payload, paper_diff, checks)


def cmd_shells(args) -> dict:
    t = args.t
    hist = causet.history(t)
    sizes = np.diff(hist.offsets).tolist()
    cross = causet.construction_cross_check(hist)
    histogram = causet.parent_histogram(hist)
    complete, below_top = causet.complete_children(hist)
    payload = {
        "t": t,
        "sizes": sizes,
        "history_size": len(hist.coords),
        "children_per_vertex": 13,
        "parent_histogram": {str(k): v for k, v in sorted(histogram.items())},
        "cross_check": cross,
    }
    if not args.sizes_only:
        payload["shells"] = [sh.tolist() for sh in np.split(hist.coords, hist.offsets[1:-1])]
    checks = [
        _check("shell0_single_vertex", sizes[0] == 1),
        _check("shell1_thirteen_vertices", len(sizes) < 2 or sizes[1] == 13),
        _check("children_always_thirteen", complete == below_top, complete),
    ]
    paper_diff = {"construction_divergences": [r for r in cross if not r["equal"]]}
    return _bundle(
        "shells", {"t": t, "sizes_only": bool(args.sizes_only)}, payload, paper_diff, checks
    )


def cmd_causet_verify(args) -> dict:
    t = args.t
    hist = causet.history(t)
    axioms = causet.order_axioms(hist.order)
    diag = causet.covariance_diagnostics(hist)
    payload = {
        "t": t,
        "vertex_count": len(hist.coords),
        "order_axioms": axioms,
        "comparable_pairs": diag.comparable_pairs,
        # every link joins consecutive shells (the weak-covariance fact), so any
        # chain from u to v has exactly v.t - u.t links
        "existing_paths_have_shell_difference_length": diag.weakly_covariant,
        "weakly_covariant": diag.weakly_covariant,
        "covariant": diag.covariant,
        "covariance_witness": diag.covariance_witness,
        "orphan_count": diag.orphan_count,
        "height_mismatch_count": diag.height_mismatch_count,
        "pathless_comparable_pairs": diag.pathless_comparable_pairs,
        "pathless_sample": diag.pathless_sample,
        "parent_histogram": {str(k): v for k, v in sorted(diag.parent_histogram.items())},
    }
    checks = [
        _check("irreflexive", axioms["irreflexive"]),
        _check("antisymmetric", axioms["antisymmetric"]),
        _check("transitive", axioms["transitive"]),
        _check("existing_path_lengths_singleton", diag.weakly_covariant),
        _check("weakly_covariant", diag.weakly_covariant),
    ]
    if t > 2:
        checks.append(_check("covariance_fails_with_witness", not diag.covariant))
    paper_diff = {
        "comparable_pairs_without_paths": diag.pathless_comparable_pairs,
        "orphan_vertices": diag.orphan_count,
        "height_mismatches": diag.height_mismatch_count,
        "note": "comparability does not imply link reachability from t=3 on",
    }
    return _bundle("causet-verify", {"t": t}, payload, paper_diff, checks)


def cmd_speeds(args) -> dict:
    t = args.t
    speeds = causet.average_speeds(t)
    payload = {
        "t": t,
        "speeds": [{"norm_sq": s.norm_sq, "value": s.value} for s in speeds],
    }
    checks = [
        _check("zero_speed_attainable", speeds[0].norm_sq == 0),
        _check("light_speed_attainable", speeds[-1].norm_sq == t * t),
    ]
    paper_diff = causet.speeds_paper_diff(t) if t <= 5 else {"note": "no published list"}
    return _bundle("speeds", {"t": t}, payload, paper_diff, checks)


def cmd_masses(args) -> dict:
    k = args.p0_max
    if k < 0:
        raise ValueError(f"--p0-max must be nonnegative, got {k}")
    rows = {str(p0): list(momentum.mass_squared_values(p0)) for p0 in range(k + 1)}
    diff = momentum.mass_table_paper_diff(min(k, 7))
    norm_diff = momentum.spatial_norms_paper_diff(49)
    low_rows_ok = all(r["agree"] for r in diff[: min(k, 3) + 1])
    payload = {
        "p0_max": k,
        "rows": rows,
        "attainable_spatial_norms_49": list(momentum.attainable_spatial_norms(49)),
    }
    checks = [_check("rows_up_to_three_match_printed", low_rows_ok)]
    paper_diff = {"mass_rows": diff, "spatial_norms": norm_diff}
    return _bundle("masses", {"p0_max": k}, payload, paper_diff, checks)


def cmd_hyperboloid(args) -> dict:
    h = momentum.hyperboloid(args.m2, args.pmax)
    invariance = momentum.hyperboloid_invariance_defect(h, symmetry.elements())
    payload = {
        "mass_sq": args.m2,
        "p_max": args.pmax,
        "count": len(h),
        "points": h.coords.tolist(),
    }
    checks = [
        _check("points_on_shell_exact", momentum.mass_shell_defect(h) == 0),
        _check("rotation_invariant_point_set", invariance == 0),
        _check("lexicographic_order", payload["points"] == sorted(payload["points"])),
    ]
    return _bundle("hyperboloid", {"m2": args.m2, "pmax": args.pmax}, payload, {}, checks)


def cmd_fock_verify(args) -> dict:
    tol = args.tol
    if args.nmax < 1:
        raise ValueError(f"--nmax must be at least 1 (no sector is truncation-safe at 0), got {args.nmax}")
    h = momentum.hyperboloid(args.m2, args.pmax)
    space = fock.fock_space(h, args.nmax)
    rnd = random.Random(12345)

    def rand_x():
        return Vec4(*(rnd.randint(-3, 3) for _ in range(4)))

    def rand_g():
        return PoincareElement(rand_x(), symmetry.elements()[rnd.randrange(24)])

    adjoint_defect = fock.adjoint_defect(space, [rand_x() for _ in range(20)])
    phi_phi, psi_psi = fock.same_species_commutator_max(space, rand_x(), rand_x())
    mixed_defect = fock.phase_sum_defect(space, [(rand_x(), rand_x()) for _ in range(5)])
    xi_defect = fock.xi_commutator_defect(space, [(rand_x(), rand_x()) for _ in range(5)])
    v_unitarity, v_hom, block_ok = fock.rep_v_defects(space, [(rand_g(), rand_g()) for _ in range(50)])
    shell_defect = momentum.mass_shell_defect(h)

    payload = {
        "mass_sq": args.m2,
        "p_max": args.pmax,
        "n_max": args.nmax,
        "point_count": len(h),
        "sector_dims": np.diff(space.offsets).tolist(),
        "total_dim": space.dim,
        "basis_manifest": [ms.tolist() for ms in space.multiset_arrays],
        "adjoint_defect": adjoint_defect,
        "phi_phi_commutator_max": phi_phi,
        "psi_psi_commutator_max": psi_psi,
        "phi_psi_vs_phase_sum_defect": mixed_defect,
        "xi_commutator_defect": xi_defect,
        "rep_v_unitarity_defect": v_unitarity,
        "rep_v_homomorphism_defect": v_hom,
        "rep_v_block_diagonal": block_ok,
        "mass_shell_defect": shell_defect,
    }
    checks = [
        _check("creation_is_adjoint_of_annihilation", adjoint_defect < tol, adjoint_defect),
        _check("annihilator_commutator_zero_exact", phi_phi == 0.0, phi_phi),
        _check("creator_commutator_zero_exact", psi_psi == 0.0, psi_psi),
        _check("phi_psi_commutator_matches_phase_sum", mixed_defect < tol, mixed_defect),
        _check("xi_commutator_matches_sine_sum", xi_defect < tol, xi_defect),
        _check("rep_v_unitary", v_unitarity < tol, v_unitarity),
        _check("rep_v_homomorphism", v_hom < tol, v_hom),
        _check("rep_v_block_diagonal", block_ok),
        _check("mass_shell_identity_exact", shell_defect == 0),
    ]
    return _bundle(
        "fock-verify", {"m2": args.m2, "pmax": args.pmax, "nmax": args.nmax, "tol": tol},
        payload, {}, checks,
    )


def cmd_scatter(args) -> dict:
    cfg = scattering.InteractionConfig(
        coupling=args.g,
        pi_mass_sq=args.m2,
        sigma_mass_sq=args.big_m2,
        energy_cap=args.pmax,
        pi_particle_cap=args.npi,
        sigma_particle_cap=args.nsigma,
        window_radius=args.window,
        horizon=args.horizon,
    )
    model = scattering.build_model(cfg)
    pts = model.pi_space.hyperboloid.points
    try:
        p_in = tuple(pts[i] for i in args.into)
        p_out = tuple(pts[i] for i in args.outgoing)
    except IndexError:
        raise ValueError(
            f"momentum indices out of range for a {len(pts)}-point hyperboloid"
        ) from None
    series = scattering.scattering_series(model)
    report = scattering.amplitude(model, p_in, p_out, series)
    parity = scattering.order_parity_check(report, p_in, p_out)
    herm = scattering.self_adjoint_defect(series)
    payload = {
        "per_order": list(report.per_order),
        "total": report.total,
        "probability": report.probability,
        "pi_dim": report.dims[0],
        "sigma_dim": report.dims[1],
        "expansion_defect": series.expansion_defect,
        "series_max_abs": series.final_max_abs,
        "unitarity_defects": list(series.unitarity_defects),
        "odd_order_max": parity["odd_order_max"],
        "order0": parity["order0"],
        "in_momenta": [list(p.coords()) for p in p_in],
        "out_momenta": [list(p.coords()) for p in p_out],
        "conventions": {
            "density_ordering": "field squared as written, no normal ordering",
            "state_normalization": "unit norm under the multiplicity-weighted inner product",
            "wall_clock": "emitted on stderr to keep stdout deterministic",
        },
    }
    bound = SERIES_RELATIVE_BOUND * series.final_max_abs
    checks = [
        _check("recursion_matches_expansion", series.expansion_defect < bound, series.expansion_defect),
        _check("orders_sum_to_series", series.order_sum_defect < bound, series.order_sum_defect),
        _check("hamiltonians_self_adjoint", herm < args.tol, herm),
        _check("odd_orders_vanish", parity["odd_order_max"] <= args.tol, parity["odd_order_max"]),
    ]
    if parity["distinct_states"]:
        checks.append(
            _check("order_zero_vanishes_for_distinct_states", parity["order0"] <= args.tol, parity["order0"])
        )
    config = {
        "g": args.g,
        "m2": args.m2,
        "M2": args.big_m2,
        "pmax": args.pmax,
        "npi": args.npi,
        "nsigma": args.nsigma,
        "window": args.window,
        "horizon": args.horizon,
        "in": list(args.into),
        "out": list(args.outgoing),
    }
    return _bundle("scatter", config, payload, {}, checks)


# ---------------------------------------------------------------- rendering


def _render_text(value, indent=0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for k in value:
            v = value[k]
            if isinstance(v, (dict, list)) and v and not _is_scalar_list(v):
                lines.append(f"{pad}{k}:")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_fmt_scalar(v)}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)) and v and not _is_scalar_list(v):
                lines.append(f"{pad}-")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {_fmt_scalar(v)}")
    else:
        lines.append(f"{pad}{_fmt_scalar(value)}")
    return lines


def _is_scalar_list(v) -> bool:
    return isinstance(v, list) and all(not isinstance(x, (dict, list)) for x in v)


def _fmt_scalar(v) -> str:
    if isinstance(v, list):
        return "[" + ", ".join(_fmt_scalar(x) for x in v) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{k}: {_fmt_scalar(x)}" for k, x in v.items()) + "}"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _render_csv(bundle: dict) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    command = bundle["command"]
    payload = bundle["payload"]
    if command == "group-table":
        writer.writerow([""] + payload["labels"])
        for label, row in zip(payload["labels"], payload["rows"]):
            writer.writerow([label] + row.split())
    elif command == "shells":
        writer.writerow(["t", "size", "step_construction", "equal"])
        for row in payload["cross_check"]:
            writer.writerow([row["t"], row["enumerated"], row["step_construction"], row["equal"]])
        writer.writerow([])
        writer.writerow(["t", "parent_count", "vertices"])
        for t in sorted(payload["parent_histogram"], key=int):
            for k in sorted(payload["parent_histogram"][t], key=int):
                writer.writerow([t, k, payload["parent_histogram"][t][k]])
    elif command == "speeds":
        writer.writerow(["norm_sq", "value"])
        for s in payload["speeds"]:
            writer.writerow([s["norm_sq"], repr(s["value"])])
    elif command == "masses":
        writer.writerow(["p0", "mass_sq_values"])
        for p0 in sorted(payload["rows"], key=int):
            writer.writerow([p0, ",".join(str(v) for v in payload["rows"][p0])])
        writer.writerow([])
        writer.writerow(["p0", "computed_only", "printed_only"])
        for row in bundle["paper_diff"]["mass_rows"]:
            writer.writerow(
                [
                    row["p0"],
                    ",".join(str(v) for v in row["computed_only"]),
                    ",".join(str(v) for v in row["printed_only"]),
                ]
            )
    elif command == "hyperboloid":
        writer.writerow(["p0", "n", "p", "q"])
        for p in payload["points"]:
            writer.writerow(p)
    elif command == "fock-verify":
        writer.writerow(["row", "col", "re", "im"])
        h = momentum.hyperboloid(payload["mass_sq"], payload["p_max"])
        space = fock.fock_space(h, payload["n_max"])
        for r, c, re_v, im_v in fock.phi(Vec4(1, 0, 0, 0), space).triplets():
            writer.writerow([r, c, repr(re_v), repr(im_v)])
    else:  # pragma: no cover - guarded by the parser
        raise ValueError(f"no CSV form for {command}")
    return out.getvalue()


# ---------------------------------------------------------------- entry


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causet-qft",
        description="Verification reports for the tetrahedral-lattice spacetime toolkit.",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "csv"), default="text", help="output format"
    )
    parser.add_argument(
        "--tol", type=_float_type("finite and greater than 0", lambda v: 0.0 < v < math.inf),
        default=1e-10,
        help="tolerance for floating-point checks (finite, > 0)",
    )
    parser.add_argument("--out", help="also write the rendered report to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group-table", help="emit the 24x24 multiplication table")
    p.add_argument("--check", action="store_true", help="diff against the published table")
    p.set_defaults(func=cmd_group_table)

    p = sub.add_parser("group-verify", help="group axioms, subgroups, generators")
    p.set_defaults(func=cmd_group_verify)

    p = sub.add_parser("reps-verify", help="unitary and spinor representation checks")
    p.set_defaults(func=cmd_reps_verify)

    p = sub.add_parser("no-boost", help="bounded search for time-axis-moving isometries")
    p.add_argument("--bound", type=int, required=True, help="coordinate bound (>= 3)")
    p.set_defaults(func=cmd_no_boost)

    p = sub.add_parser("shells", help="enumerate shells and history statistics")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--sizes-only", action="store_true")
    p.set_defaults(func=cmd_shells)

    p = sub.add_parser("causet-verify", help="order axioms, paths, covariance diagnostics")
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=cmd_causet_verify)

    p = sub.add_parser("speeds", help="average-speed spectrum")
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=cmd_speeds)

    p = sub.add_parser("masses", help="mass-squared table")
    p.add_argument("--p0-max", type=int, required=True)
    p.set_defaults(func=cmd_masses)

    p = sub.add_parser("hyperboloid", help="list truncated hyperboloid points")
    p.add_argument("--m2", type=int, required=True)
    p.add_argument("--pmax", type=int, required=True)
    p.set_defaults(func=cmd_hyperboloid)

    p = sub.add_parser("fock-verify", help="field-operator theorem suite")
    p.add_argument("--m2", type=int, required=True)
    p.add_argument("--pmax", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.set_defaults(func=cmd_fock_verify)

    p = sub.add_parser("scatter", help="discrete scattering series and amplitudes")
    p.add_argument("--g", type=_float_type("finite", math.isfinite), required=True, help="coupling (finite)")
    p.add_argument("--m2", type=int, required=True)
    p.add_argument("--M2", dest="big_m2", type=int, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--pmax", type=int, default=1)
    p.add_argument("--npi", type=int, default=2)
    p.add_argument("--nsigma", type=int, default=1)
    p.add_argument("--in", dest="into", type=_index_pair, default=(1, 2))
    p.add_argument("--out-momenta", dest="outgoing", type=_index_pair, default=(3, 4))
    p.set_defaults(func=cmd_scatter)
    return parser


def _float_type(rule: str, accept):
    """Parser type for a float that ``accept`` allows; otherwise "must be <rule>"."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    return parse


def _index_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated indices")
    return (int(parts[0]), int(parts[1]))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format == "csv" and args.command not in TABLE_COMMANDS:
        parser.error(f"--format csv is not available for {args.command}")
    start = time.monotonic()
    try:
        bundle = args.func(args)
    except ValueError as exc:  # bad input; failed gates are checks in the report
        print(f"error: {exc}", file=sys.stderr)
        return 1
    plain = _plain(bundle)
    if args.format == "json":
        rendered = json.dumps(plain, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        rendered = _render_csv(bundle)
    else:
        rendered = "\n".join(_render_text(plain)) + "\n"
    sys.stdout.write(rendered)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    elapsed = time.monotonic() - start
    print(f"# wall-clock: {elapsed:.3f}s", file=sys.stderr)
    failed = [c["name"] for c in bundle["summary"]["checks"] if not c["passed"]]
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
