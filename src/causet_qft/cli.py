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
on stderr after the report) or the run stops on bad input, an unwritable
``--out`` path or too little memory (``error: ...`` on stderr), 2 for usage
errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import os
import random
import sys
import time
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from . import causet, fock, momentum, paperdata, representations as reps, scattering, symmetry

TABLE_COMMANDS = {"group-table", "shells", "speeds", "masses", "hyperboloid", "fock-verify"}

# The scattering series' defects are gated relative to max|S(n)|: a product's
# rounding error scales with the sizes of its factors, and |S| grows
# geometrically with the horizon.  Measured: below 6.2e-15 up to horizon 12 and
# 8.9e-15 at 16 (window 0, g 0.01 to 1e6); H's rotation defect 5.2e-16 of max|H|.
SERIES_RELATIVE_BOUND = 1e-13


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
    mn = len(symmetry.generate_from([symmetry.index("M"), symmetry.index("N")]))
    failing_pairs = [
        r["pair"] for r in pairwise["pairs"] if not r["commute"] and r["generated_order"] != 24
    ]
    payload = {
        "order": len(symmetry.MATRICES),
        "axioms": {
            "latin_square": table.latin_square,
            "associative": table.associative,
            "inverses": table.inverses,
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
        _check("group_order_24", len(symmetry.MATRICES) == 24),
        _check("latin_square", table.latin_square),
        _check("associative_all_triples", table.associative),
        _check("inverses_exist", table.inverses),
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
    u_defect = reps.unitary3_defect()
    hom = reps.homomorphism_defect()
    eig = reps.eigenvalue_set_defect()
    spin_unitarity = reps.spinor_unitarity_defect()
    seven_worst = reps.spinor_equation_residual()
    log_worst = reps.generator_log_defect()
    proj_canonical = reps.projective_check(reps.SPINORS)
    proj_printed = reps.projective_check(reps.PRINTED_SIGN_SPINORS)
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
        "unitary3": dict(zip(paperdata.LABEL_ORDER, reps.CAL_U.astype(complex))),
        "spinor": dict(zip(paperdata.LABEL_ORDER, reps.SPINORS)),
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
        payload["shells"] = np.split(hist.coords, hist.offsets[1:-1])
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
    axioms = causet.order_axioms(hist)
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
    checks = [_check(name, passed) for name, passed in axioms.items()] + [
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
    # one enumeration serves the rows, both paper diffs and the norms up to 49
    norms = momentum.attainable_spatial_norms(max(k * k, 49))
    rows = momentum.mass_squared_rows(norms, k)
    diff = momentum.mass_table_paper_diff(rows)
    norm_diff = momentum.spatial_norms_paper_diff(norms, 49)
    low_rows_ok = all(r["agree"] for r in diff[: min(k, 3) + 1])
    payload = {
        "p0_max": k,
        "rows": {str(p0): list(row) for p0, row in enumerate(rows)},
        "attainable_spatial_norms_49": [v for v in norms if v <= 49],
    }
    checks = [_check("rows_up_to_three_match_printed", low_rows_ok)]
    paper_diff = {"mass_rows": diff, "spatial_norms": norm_diff}
    return _bundle("masses", {"p0_max": k}, payload, paper_diff, checks)


def cmd_hyperboloid(args) -> dict:
    h = momentum.hyperboloid(args.m2, args.pmax)
    momentum.require_points(h)  # every check would pass vacuously on no points
    invariance = momentum.hyperboloid_invariance_defect(h)
    payload = {
        "mass_sq": args.m2,
        "p_max": args.pmax,
        "count": len(h),
        "points": h.coords,
    }
    points = h.coords.tolist()
    checks = [
        _check("points_on_shell_exact", momentum.mass_shell_defect(h) == 0),
        _check("rotation_invariant_point_set", invariance == 0),
        _check("lexicographic_order", points == sorted(points)),
    ]
    return _bundle("hyperboloid", {"m2": args.m2, "pmax": args.pmax}, payload, {}, checks)


def cmd_fock_verify(args) -> dict:
    tol = args.tol
    if args.nmax < 1:
        raise ValueError(f"--nmax must be at least 1 (no sector is truncation-safe at 0), got {args.nmax}")
    h = momentum.hyperboloid(args.m2, args.pmax)
    space = fock.fock_space(h, args.nmax)  # lazy: only checks that the hyperboloid is not empty
    fock.require_table_memory(len(h), args.nmax)
    # seeded samples in a fixed draw order: a translation is four randint(-3, 3) draws, and a
    # Poincare element is a translation, then one randrange(24) rotation index
    rnd = random.Random(12345)

    def rand_x() -> list[int]:
        return [rnd.randint(-3, 3) for _ in range(4)]

    def pairs() -> np.ndarray:  # five (x, y) pairs, as the x rows and the y rows
        return np.array([[rand_x(), rand_x()] for _ in range(5)], dtype=np.int64).transpose(1, 0, 2)

    adjoint_defect = fock.adjoint_defect(space, np.array([rand_x() for _ in range(20)], dtype=np.int64))
    phi_phi, psi_psi = fock.same_species_commutator_max(space, *np.array([rand_x(), rand_x()], dtype=np.int64))
    mixed_defect = fock.phase_sum_defect(space, *pairs())
    xs, ys = pairs()
    # the Freivalds vectors' own generator, so the sample draws stay as they were
    xi_defect, xi_matrix_defect = fock.xi_defects(space, xs, ys, random.Random(12345))
    g = np.array([[rand_x() + [rnd.randrange(24)] for _ in range(2)] for _ in range(50)], dtype=np.int64)
    v_unitarity, v_hom, block_ok = fock.rep_v_defects(space, g[..., :4], g[..., 4])
    shell_defect = momentum.mass_shell_defect(h)

    payload = {
        "mass_sq": args.m2,
        "p_max": args.pmax,
        "n_max": args.nmax,
        "point_count": len(h),
        "sector_dims": np.diff(space.offsets).tolist(),
        "total_dim": space.dim,
        "basis_manifest": list(space.multiset_arrays),
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
        _check("xi_matrix_products_match_bracket", xi_matrix_defect < tol, xi_matrix_defect),
        _check("rep_v_unitary", v_unitarity < tol, v_unitarity),
        _check("rep_v_homomorphism", v_hom < tol, v_hom),
        _check("rep_v_block_diagonal", block_ok),
        _check("mass_shell_identity_exact", shell_defect == 0),
    ]
    bundle = _bundle(
        "fock-verify", {"m2": args.m2, "pmax": args.pmax, "nmax": args.nmax, "tol": tol},
        payload, {}, checks,
    )
    if args.format == "csv":  # the csv table: phi(e_t)'s entries on this run's space
        bundle["triplets"] = fock.phi((1, 0, 0, 0), space).triplets()
    return bundle


def cmd_scatter(args) -> dict:
    if args.horizon < 1:
        raise ValueError(f"--horizon must be at least 1 (no H(t) to check at 0), got {args.horizon}")
    cfg = scattering.InteractionConfig(
        coupling=args.g, pi_mass_sq=args.m2, sigma_mass_sq=args.big_m2, energy_cap=args.pmax,
        pi_particle_cap=args.npi, sigma_particle_cap=args.nsigma, window_radius=args.window, horizon=args.horizon,
    )
    model = scattering.build_model(cfg)
    coords = model.pi_space.hyperboloid.coords
    if not all(0 <= i < len(coords) for i in (*args.into, *args.outgoing)):
        raise ValueError(f"momentum indices out of range for a {len(coords)}-point hyperboloid")
    series = scattering.scattering_series(model)
    report = scattering.amplitude(model, args.into, args.outgoing, series)
    parity = scattering.order_parity_check(report, args.into, args.outgoing)
    herm = scattering.self_adjoint_defect(series)
    rotated_h, h_max = scattering.rotation_defect(model, series)
    payload = {
        "per_order": list(report.per_order),
        "total": report.total,
        "probability": report.probability,
        "pi_dim": report.dims[0],
        "sigma_dim": report.dims[1],
        "sector_dims": list(model.sector_dims),
        "orbit_counts": [len(orbit[0]) for orbit in model.orbits],
        "rotated_coupling_defect": series.rotated_coupling_defect,
        "series_max_abs": series.final_max_abs,
        "unitarity_defects": list(series.unitarity_defects),
        "odd_order_max": parity["odd_order_max"],
        "order0": parity["order0"],
        "in_momenta": coords[list(args.into)].tolist(),
        "out_momenta": coords[list(args.outgoing)].tolist(),
        "conventions": {
            "density_ordering": "field squared as written, no normal ordering",
            "state_normalization": "unit norm under the multiplicity-weighted inner product",
            "wall_clock": "emitted on stderr to keep stdout deterministic",
        },
    }
    bound = SERIES_RELATIVE_BOUND * series.final_max_abs
    rotated, summed = series.rotated_coupling_defect, series.order_sum_defect
    checks = [
        _check("orders_match_rotated_couplings", rotated < bound, rotated),
        _check("orders_sum_to_series", summed < bound, summed),
        _check("hamiltonians_self_adjoint", herm < args.tol, herm),
        _check("hamiltonians_rotation_invariant", rotated_h <= SERIES_RELATIVE_BOUND * h_max, rotated_h),
        _check("odd_orders_vanish", parity["odd_order_max"] < args.tol, parity["odd_order_max"]),
    ]
    if parity["distinct_states"]:
        checks.append(
            _check("order_zero_vanishes_for_distinct_states", parity["order0"] < args.tol, parity["order0"])
        )
    config = {
        "g": args.g, "m2": args.m2, "M2": args.big_m2, "pmax": args.pmax, "npi": args.npi, "nsigma": args.nsigma,
        "window": args.window, "horizon": args.horizon, "in": list(args.into), "out": list(args.outgoing),
        "tol": args.tol,
    }
    return _bundle("scatter", config, payload, {}, checks)


# ---------------------------------------------------------------- rendering
# One walk per format renders the bundle as the commands built it: JSON in the
# layout of ``json.dumps(value, indent=2, sort_keys=True)``, text in insertion
# order.  A list of scalars is one join, a 2-D integer array one ``%`` call over
# its flattened values.

_SCALAR, _SCALARS, _BLOCK, _LIST, _DICT = range(5)
_PLAIN = frozenset({str, int, float, bool, type(None), dict, list})
_JSON_WORDS = {
    "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "None": "null", "True": "true", "False": "false"
}


def _leaf(v):
    """``v`` one level down in JSON's types: tuples as lists, complex numbers as
    ``{"im", "re"}``, numpy scalars and 0-d arrays as Python scalars; arrays stay."""
    if isinstance(v, (np.generic, np.ndarray)):
        if v.ndim:
            return v
        v = v.item()
    if isinstance(v, complex):
        return {"im": v.imag, "re": v.real}
    if isinstance(v, (list, tuple, dict)):
        return dict(v) if isinstance(v, dict) else list(v)
    return v


def _form(v):
    """``(form, value)``: a scalar (empty containers too), a nonempty list of scalars, a
    nonempty 2-D integer array as ``(flat values, width)``, a nonempty list, or a
    nonempty dict keyed through ``_key``."""
    if type(v) not in _PLAIN:
        v = _leaf(v)
    if type(v) is np.ndarray:
        if v.ndim == 2 and v.size and v.dtype.kind in "iu":
            return _BLOCK, (v.ravel().tolist(), v.shape[1])
        v = v.tolist()
    if type(v) not in (dict, list) or not v:
        return _SCALAR, v
    if type(v) is dict:
        return _DICT, {_key(k): x for k, x in v.items()}
    kinds = set(map(type, v))
    if not kinds <= _PLAIN:
        v = [x if type(x) in _PLAIN else _leaf(x) for x in v]
        kinds = set(map(type, v))
    return (_LIST if kinds & {dict, list, np.ndarray} else _SCALARS), v


def _json_scalar(v) -> str:
    if isinstance(v, str):
        return _json_str(v)
    if isinstance(v, float):
        text = float.__repr__(v)
    elif isinstance(v, int) and not isinstance(v, bool):
        text = int.__repr__(v)
    elif v is None or isinstance(v, (bool, dict, list)):  # the containers are empty
        text = str(v)
    else:
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
    return _JSON_WORDS.get(text, text)


def _json(v, nl: str, emit) -> None:
    """Emit ``v`` as JSON; ``nl`` is a newline and the indentation ``v`` starts at."""
    form, v = _form(v)
    inner = nl + "  "
    if form == _DICT or form == _LIST:
        sep, end = "{}" if form == _DICT else "[]"
        items = sorted(v.items()) if form == _DICT else ((None, x) for x in v)
        for k, x in items:
            head = "" if k is None else f"{_json_str(k)}: "
            emit(sep + inner + head)
            _json(x, inner, emit)
            sep = ","
        emit(nl + end)
    elif form == _SCALARS:
        emit("[" + inner + ("," + inner).join(map(_json_scalar, v)) + nl + "]")
    elif form == _BLOCK:
        flat, width = v
        cell = inner + "  "
        row = "[" + cell + ("," + cell).join(["%d"] * width) + inner + "]"
        emit("[" + inner + ("," + inner).join([row] * (len(flat) // width)) % tuple(flat) + nl + "]")
    else:
        emit(_json_scalar(v))


def _text_scalar(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def _text(pairs, pad: str, emit) -> None:
    """Emit a ``head value`` line per ``(head, value)`` pair, or, for a nonempty
    container that is not a list of scalars, a ``head`` line and its items below."""
    inner = pad + "  "
    for head, v in pairs:
        form, v = _form(v)
        if form == _SCALAR:
            emit(f"{pad}{head} {_text_scalar(v)}")
        elif form == _SCALARS:
            emit(f"{pad}{head} [{', '.join(map(_text_scalar, v))}]")
        else:
            emit(pad + head)
            if form == _BLOCK:
                flat, width = v
                row = inner + "- [" + ", ".join(["%d"] * width) + "]"
                emit("\n".join([row] * (len(flat) // width)) % tuple(flat))
            else:
                items = ((f"{k}:", x) for k, x in v.items()) if form == _DICT else (("-", x) for x in v)
                _text(items, inner, emit)


def _render_json(bundle: dict) -> str:
    out: list[str] = []
    _json(bundle, "\n", out.append)
    return "".join(out) + "\n"


def _render_text(bundle: dict) -> str:
    out: list[str] = []
    _text(((f"{k}:", x) for k, x in _form(bundle)[1].items()), "", out.append)
    return "\n".join(out) + "\n"


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
        for r, c, re_v, im_v in zip(*(column.tolist() for column in bundle["triplets"])):
            writer.writerow([r, c, repr(re_v), repr(im_v)])
    else:  # pragma: no cover - guarded by the parser
        raise ValueError(f"no CSV form for {command}")
    return out.getvalue()


# ---------------------------------------------------------------- entry


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  It names the subcommand only: ``main``
    looks its ``cmd_*`` handler up when it runs, so a replaced handler is the one called."""
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

    p = sub.add_parser("group-verify", help="group axioms, subgroups, generators")

    p = sub.add_parser("reps-verify", help="unitary and spinor representation checks")

    p = sub.add_parser("no-boost", help="bounded search for time-axis-moving isometries")
    p.add_argument("--bound", type=int, required=True, help="coordinate bound (>= 3)")

    p = sub.add_parser("shells", help="enumerate shells and history statistics")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--sizes-only", action="store_true")

    p = sub.add_parser("causet-verify", help="order axioms, paths, covariance diagnostics")
    p.add_argument("--t", type=int, required=True)

    p = sub.add_parser("speeds", help="average-speed spectrum")
    p.add_argument("--t", type=int, required=True)

    p = sub.add_parser("masses", help="mass-squared table")
    p.add_argument("--p0-max", type=int, required=True)

    p = sub.add_parser("hyperboloid", help="list truncated hyperboloid points")
    p.add_argument("--m2", type=int, required=True)
    p.add_argument("--pmax", type=int, required=True)

    p = sub.add_parser("fock-verify", help="field-operator theorem suite")
    p.add_argument("--m2", type=int, required=True)
    p.add_argument("--pmax", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)

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
    try:
        first, second = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two comma-separated integers, got {text!r}") from None
    return (first, second)


def _check_writable(path: str) -> None:
    """``ValueError`` unless ``path`` is a writable file or a new file in a writable directory."""
    if os.path.isdir(path):
        raise ValueError(f"--out {path!r} is a directory")
    if not os.access(path if os.path.exists(path) else os.path.dirname(path) or ".", os.W_OK):
        raise ValueError(f"--out {path!r} is not writable: no such directory, or no permission")


def main(argv=None) -> int:
    start = time.monotonic()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format == "csv" and args.command not in TABLE_COMMANDS:
        parser.error(f"--format csv is not available for {args.command}")
    parsed = time.monotonic()
    try:
        if args.out:
            _check_writable(args.out)
        bundle = globals()["cmd_" + args.command.replace("-", "_")](args)
    except (ValueError, MemoryError) as exc:  # bad input, or too large; failed gates are checks
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    commanded = time.monotonic()
    render = {"json": _render_json, "csv": _render_csv, "text": _render_text}[args.format]
    rendered = render(bundle)
    sys.stdout.write(rendered)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    end = time.monotonic()
    print(
        f"# wall-clock: {end - start:.3f}s (parse {parsed - start:.3f}s, "
        f"command {commanded - parsed:.3f}s, render {end - commanded:.3f}s)",
        file=sys.stderr,
    )
    failed = [c["name"] for c in bundle["summary"]["checks"] if not c["passed"]]
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
