"""Command-line surface: bundles, formats, exit codes, check lists.

Determinism across fresh processes is acceptance criterion 10.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causet_qft
import oracles
from causet_qft import causet, cli, fock, momentum, scattering, symmetry
from causet_qft.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_group_table_check(capsys):
    code, out, err = run_cli(capsys, "--format", "json", "group-table", "--check")
    assert code == 0
    bundle = json.loads(out)
    assert bundle["summary"]["all_passed"]
    assert bundle["paper_diff"]["table_cell_diffs"] == []
    assert len(bundle["paper_diff"]["element_matrix_diffs"]) == 1
    assert bundle["payload"]["rows"][0].startswith("I A B")


def test_group_table_csv(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "group-table")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 25
    assert lines[0] == ",I,A,B,C,D,E,F,G,H,J,K,L,M,N,O,P,Q,R,S,T,U,V,W,X"
    assert lines[1].startswith("I,I,A,B")


def test_group_verify(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "group-verify")
    assert code == 0
    bundle = json.loads(out)
    assert bundle["payload"]["order"] == 24
    assert bundle["payload"]["generators"]["mn_generated_order"] == 24
    # the pairwise-generator claim is reported as a diff, not gated
    assert bundle["paper_diff"]["pairwise_generator_claim_holds"] is False
    assert len(bundle["paper_diff"]["pairwise_generator_counterexamples"]) == 24
    assert bundle["payload"]["axioms"]["inverses"] is True
    assert bundle["payload"]["isometry"] == {
        "basis_pairs_preserved": True,
        "determinants_one": True,
        "triples_to_triples": True,
    }


def test_group_verify_reads_inverses_off_the_table(capsys, monkeypatch):
    # the identity entry of row A read as A: A has no inverse in the table
    corrupt = symmetry.PRODUCT_INDEX.copy()
    corrupt[1, oracles.index(oracles.inverse(oracles.element("A")))] = 1
    monkeypatch.setattr(symmetry, "PRODUCT_INDEX", corrupt)
    code, out, err = run_cli(capsys, "--format", "json", "group-verify")
    assert code == 1
    bundle = json.loads(out)
    checks = {c["name"]: c["passed"] for c in bundle["summary"]["checks"]}
    assert checks["inverses_exist"] is False
    assert bundle["payload"]["axioms"]["inverses"] is False
    assert "inverses_exist" in err
    assert "error:" not in err
    assert "Traceback" not in err


def test_reps_verify(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "reps-verify")
    assert code == 0
    bundle = json.loads(out)
    assert bundle["payload"]["cocycle_examples"]["printed_convention_GH"] == -1
    assert bundle["payload"]["cocycle_examples"]["printed_convention_JJ"] == -1
    assert sorted(bundle["paper_diff"]["spinor_mismatched_labels"]) == [
        "C", "F", "H", "Q", "R", "S", "V", "X",
    ]
    assert "A" in bundle["payload"]["spinor"]
    details = {c["name"]: c.get("detail") for c in bundle["summary"]["checks"]}
    assert details["projective_up_to_sign"] == bundle["payload"]["projective_worst_residual"]


def _complex_matrix(rows):
    return [[{"im": im, "re": re} for re, im in row] for row in rows]


def test_reps_verify_pins_the_values_of_a(capsys):
    """Element A's rotation and canonical spinor value, bit for bit as the per-element
    records gave them before the representations became stacks."""
    code, out, _ = run_cli(capsys, "--format", "json", "reps-verify")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["spinor"]["A"] == _complex_matrix([
        [(0.49999999999999994, -0.28867513459481287), (-0.4082482904638632, -0.7071067811865474)],
        [(0.4082482904638632, -0.7071067811865474), (0.49999999999999994, 0.28867513459481287)],
    ])
    assert payload["unitary3"]["A"] == _complex_matrix([
        [(0.5, 0.0), (0.2886751345948129, 0.0), (0.8164965809277258, 0.0)],
        [(0.8660254037844386, 0.0), (-0.16666666666666657, 0.0), (-0.47140452079103173, 0.0)],
        [(0.0, 0.0), (0.9428090415820635, 0.0), (-0.33333333333333337, 0.0)],
    ])


def test_reps_verify_fails_gates_in_the_report(capsys):
    # below the floating-point residuals the gates fail as named checks that carry their values
    code, out, _ = run_cli(capsys, "--format", "json", "--tol", "1e-17", "reps-verify")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["summary"]["checks"]}
    for name in ("projective_up_to_sign", "eigen_transport"):
        assert not checks[name]["passed"] and checks[name]["detail"] >= 1e-17
        assert checks[name]["below"] == 1e-17
    # the fixed tables' gates ignore --tol
    for name in ("unitary3_unitarity", "unitary3_homomorphism", "spinor_unitarity"):
        assert checks[name]["passed"] and checks[name]["below"] == cli.FIXED_TABLE_BOUND == 1e-12


def test_no_boost(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "no-boost", "--bound", "3")
    assert code == 0
    bundle = json.loads(out)
    assert bundle["payload"]["no_boosts"] is False
    assert bundle["payload"]["boost_count"] == 288
    assert bundle["paper_diff"]["published_no_boost_claim_holds"] is False
    assert bundle["paper_diff"]["boost_counterexample"] is not None
    assert bundle["summary"]["all_passed"]
    assert bundle["config"] == {"bound": 3}


def test_shells(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "shells", "--t", "3", "--sizes-only")
    assert code == 0
    bundle = json.loads(out)
    assert bundle["payload"]["sizes"] == [1, 13, 55, 177]
    assert "shells" not in bundle["payload"]
    checks = {c["name"]: c for c in bundle["summary"]["checks"]}
    # every vertex of shells 0..2 has its 13 children in the history
    assert checks["children_always_thirteen"] == {
        "name": "children_always_thirteen", "passed": True, "detail": 1 + 13 + 55, "equals": 1 + 13 + 55
    }
    assert bundle["paper_diff"]["construction_divergences"][0]["t"] == 3


def test_shells_at_t0_gates_only_what_exists(capsys):
    """Shell 1 and the children of the shells below the top do not exist at t = 0, so
    their checks are not emitted rather than passing vacuously."""
    code, out, _ = run_cli(capsys, "--format", "json", "shells", "--t", "0")
    assert code == 0
    bundle = json.loads(out)
    assert bundle["payload"]["sizes"] == [1]
    assert bundle["summary"]["checks"] == [
        {"name": "shell0_single_vertex", "passed": True, "detail": 1, "equals": 1}
    ]


def test_shells_full_listing(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "shells", "--t", "1")
    assert code == 0
    bundle = json.loads(out)
    assert len(bundle["payload"]["shells"][1]) == 13


def test_shells_csv_with_histogram(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "shells", "--t", "2", "--sizes-only")
    assert code == 0
    assert "t,size,step_construction,equal" in out
    assert "t,parent_count,vertices" in out
    assert "1,1,13" in out  # all thirteen first-shell vertices have one parent


def test_causet_verify(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "causet-verify", "--t", "3")
    assert code == 0
    bundle = json.loads(out)
    assert bundle["payload"]["order_axioms"] == {
        "irreflexive": True,
        "antisymmetric": True,
        "transitive": True,
    }
    assert bundle["payload"]["weakly_covariant"] is True
    assert bundle["payload"]["covariant"] is False
    assert bundle["paper_diff"]["comparable_pairs_without_paths"] == 30
    assert bundle["config"] == {"t": 3}
    assert bundle["summary"]["all_passed"]
    with pytest.raises(SystemExit) as exc:
        main(["causet-verify", "--t", "3", "--sample-limit", "5"])
    assert exc.value.code == 2


def test_causet_verify_pins_the_witness_and_the_first_pathless_pair(capsys):
    """The covariance witness and the first pathless pair at t = 3 as (t, n, p, q) rows,
    in json and in text, as they read when the reports held one point object each."""
    witness, first = [[1, -1, 0, 0], [2, -2, 0, 2]], [[0, 0, 0, 0], [3, -3, -1, 2]]
    code, out, _ = run_cli(capsys, "--format", "json", "causet-verify", "--t", "3")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["covariance_witness"] == witness
    assert payload["pathless_sample"][0] == first
    code, out, _ = run_cli(capsys, "causet-verify", "--t", "3")
    assert code == 0
    lines = out.splitlines()
    at = lines.index("  covariance_witness:")
    assert lines[at + 1 : at + 3] == ["    - [1, -1, 0, 0]", "    - [2, -2, 0, 2]"]
    at = lines.index("  pathless_sample:")
    assert lines[at + 1 : at + 4] == ["    -", "      - [0, 0, 0, 0]", "      - [3, -3, -1, 2]"]


def test_speeds(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "speeds", "--t", "4")
    assert code == 0
    bundle = json.loads(out)
    assert bundle["paper_diff"]["computed_only"] == [1, 2]
    assert bundle["paper_diff"]["printed_only"] == [14]


def test_masses(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "masses", "--p0-max", "7")
    assert code == 0
    bundle = json.loads(out)
    rows = bundle["paper_diff"]["mass_rows"]
    assert all(r["agree"] for r in rows[:4])
    assert any(not r["agree"] for r in rows[4:])
    assert bundle["paper_diff"]["spatial_norms"]["computed_only"][0] == 15
    assert [c["name"] for c in bundle["summary"]["checks"]] == ["rows_up_to_three_match_printed"]


def test_masses_rejects_negative_p0_max(capsys):
    code, out, err = run_cli(capsys, "masses", "--p0-max", "-1")
    assert code == 1
    assert out == ""
    assert "error: --p0-max must be nonnegative" in err


def test_masses_past_memory_is_a_named_error_at_once(capsys):
    """The table comes from one sieve up to p0_max^2, so a p0_max far past memory is
    refused before any row exists rather than after one pass per energy."""
    start = time.monotonic()
    code, out, err = run_cli(capsys, "masses", "--p0-max", "100000")
    assert time.monotonic() - start < 2
    assert (code, out) == (1, "")
    assert err.startswith("error: the attainable spatial norms up to 10000000000 needs about ")
    assert err.count("\n") == 1 and "of physical memory" in err


def test_hyperboloid(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "hyperboloid", "--m2", "0", "--pmax", "1")
    assert code == 0
    bundle = json.loads(out)
    assert bundle["payload"]["count"] == 13
    assert bundle["payload"]["points"][0] == [0, 0, 0, 0]


def test_hyperboloid_with_no_points_is_a_named_error(capsys):
    """m2 5 > pmax^2 leaves no point, where every check would pass vacuously: the error
    fock-verify and scatter give for the same hyperboloid."""
    code, out, err = run_cli(capsys, "hyperboloid", "--m2", "5", "--pmax", "1")
    assert (code, out) == (1, "")
    assert err == "error: hyperboloid is empty at this truncation\n"


def test_fock_verify(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "fock-verify", "--m2", "0", "--pmax", "1", "--nmax", "2"
    )
    assert code == 0
    bundle = json.loads(out)
    assert bundle["payload"]["sector_dims"] == [1, 13, 91]
    assert bundle["payload"]["phi_phi_commutator_max"] == 0.0
    assert bundle["summary"]["all_passed"]
    details = {c["name"]: c.get("detail") for c in bundle["summary"]["checks"]}
    assert details["annihilator_commutator_zero_exact"] == bundle["payload"]["phi_phi_commutator_max"]
    assert details["creator_commutator_zero_exact"] == bundle["payload"]["psi_psi_commutator_max"]


def test_fock_verify_builds_one_space_and_one_bracket_per_xi_pair(capsys, monkeypatch):
    """The csv table is phi(e_t)'s entries on the space the checks ran on, not on a second
    build, and both xi gates read one bracket per drawn pair: one row of a batch's
    brackets."""
    spaces, brackets = [], []
    build, bracket = fock.fock_space, fock._xi_bracket
    monkeypatch.setattr(fock, "fock_space", lambda *a: spaces.append(build(*a)) or spaces[-1])
    monkeypatch.setattr(fock, "_xi_bracket", lambda *a: brackets.append(a) or bracket(*a))
    code, out, _ = run_cli(capsys, "--format", "csv", "fock-verify", "--m2", "0", "--pmax", "1", "--nmax", "2")
    assert code == 0
    assert len(spaces) == 1 and sum(len(xs) for _, xs, _ in brackets) == 5
    want = zip(*(column.tolist() for column in fock.phi((1, 0, 0, 0), spaces[0]).triplets()))
    assert out.splitlines() == ["row,col,re,im"] + [f"{r},{c},{re!r},{im!r}" for r, c, re, im in want]


def test_fock_verify_builds_one_mixed_bracket_table(capsys, monkeypatch):
    """[psi(x), phi(y)] is read as -[phi(y), psi(x)]: the run builds the two same-species
    tables and one mixed one, from four product tables, and keeps those three."""
    spaces, products = [], []
    build, product = fock.fock_space, fock.FockSpace.product_table
    monkeypatch.setattr(fock, "fock_space", lambda *a: spaces.append(build(*a)) or spaces[-1])
    monkeypatch.setattr(
        fock.FockSpace, "product_table", lambda s, *roles, **end: products.append(roles) or product(s, *roles, **end)
    )
    code, _, _ = run_cli(capsys, "fock-verify", "--m2", "0", "--pmax", "1", "--nmax", "2")
    assert code == 0
    a, c = "annihilates", "creates"
    assert sorted(products) == sorted([(a, a), (c, c), (a, c), (c, a)])
    assert sorted(spaces[0]._bracket_tables) == sorted([(a, a), (c, c), (a, c)])


@pytest.mark.parametrize("m2, pmax, nmax", [(0, 2, 3), (3, 3, 2)])
def test_fock_verify_stdout_is_that_of_the_bracket_walk(capsys, monkeypatch, m2, pmax, nmax):
    """The tables built from the product tables give the bytes of the per-point walk over the
    dense ladder maps, which builds every table on its own."""
    argv = ["--format", "json", "fock-verify", "--m2", str(m2), "--pmax", str(pmax), "--nmax", str(nmax)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(fock.FockSpace, "bracket_table", oracles.bracket_walk)
    assert run_cli(capsys, *argv)[:2] == (0, out)


def test_fock_verify_three_particle_cap(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "fock-verify", "--m2", "0", "--pmax", "1", "--nmax", "3"
    )
    assert code == 0
    bundle = json.loads(out)
    assert bundle["payload"]["total_dim"] == 560
    assert bundle["payload"]["phi_phi_commutator_max"] == 0.0
    assert bundle["payload"]["psi_psi_commutator_max"] == 0.0
    assert all(c["passed"] for c in bundle["summary"]["checks"])


def _bits(values) -> list[str]:
    """Floats as their exact hex forms, so -0.0 and 0.0 differ; bools as they are."""
    return [v if isinstance(v, bool) else float(v).hex() for v in values]


def test_fock_verify_draws_its_samples_in_the_documented_order(capsys):
    """Every gate value is that of the seeded ``Vec4`` / ``PoincareElement`` draws, in order:
    20 points, one same-species pair, five phase-sum pairs, five xi pairs and 50 pairs of
    elements, each element its translation's four draws and then its rotation's; the gates
    run on those draws as coordinate rows and rotation indices, and agree bit for bit, in
    the payload and in the check details."""
    rnd = random.Random(12345)

    def rand_x():
        return oracles.Vec4(*(rnd.randint(-3, 3) for _ in range(4)))

    def rand_g():
        return oracles.PoincareElement(rand_x(), oracles.elements()[rnd.randrange(24)])

    points = [rand_x() for _ in range(20)]
    same = [rand_x(), rand_x()]
    mixed = [(rand_x(), rand_x()) for _ in range(5)]
    xi_pairs = [(rand_x(), rand_x()) for _ in range(5)]
    group_pairs = [(rand_g(), rand_g()) for _ in range(50)]
    space = fock.fock_space(momentum.hyperboloid(3, 3), 2)
    phi_phi, psi_psi = fock.same_species_commutator_max(space, *oracles.rows(same))
    xi, xi_products = fock.xi_defects(space, *oracles.pair_rows(xi_pairs), random.Random(12345))
    unitarity, hom, block_diagonal = fock.rep_v_defects(space, *oracles.element_rows(group_pairs))
    want = {  # check name: (payload key, value)
        "creation_is_adjoint_of_annihilation": ("adjoint_defect", fock.adjoint_defect(space, oracles.rows(points))),
        "annihilator_commutator_zero_exact": ("phi_phi_commutator_max", phi_phi),
        "creator_commutator_zero_exact": ("psi_psi_commutator_max", psi_psi),
        "phi_psi_commutator_matches_phase_sum": (
            "phi_psi_vs_phase_sum_defect", fock.phase_sum_defect(space, *oracles.pair_rows(mixed))
        ),
        "xi_commutator_matches_sine_sum": ("xi_commutator_defect", xi),
        "xi_matrix_products_match_bracket": (None, xi_products),
        "rep_v_unitary": ("rep_v_unitarity_defect", unitarity),
        "rep_v_homomorphism": ("rep_v_homomorphism_defect", hom),
    }
    code, out, _ = run_cli(capsys, "--format", "json", "fock-verify", "--m2", "3", "--pmax", "3", "--nmax", "2")
    assert code == 0
    bundle = json.loads(out)
    details = {c["name"]: c.get("detail") for c in bundle["summary"]["checks"]}
    assert _bits(details[name] for name in want) == _bits(value for _, value in want.values())
    keys = [key for key, _ in want.values() if key] + ["rep_v_block_diagonal"]
    values = [value for key, value in want.values() if key] + [block_diagonal]
    assert _bits(bundle["payload"][key] for key in keys) == _bits(values)
    # rounding-level values, which a reordered draw would move
    assert 0.0 < xi and 0.0 < hom


def test_scatter_momenta_are_the_rows_of_the_given_indices(capsys):
    """``in_momenta`` / ``out_momenta`` are the pi hyperboloid's coordinate rows at the
    indices given; in and out the same pair in another order is one state, so the
    order-zero gate for distinct states is left out."""
    coords = momentum.hyperboloid(0, 1).coords
    argv = ["--format", "json", "scatter", "--g", "0.1", "--m2", "0", "--M2", "1", "--horizon", "3", "--window", "0"]
    for into, outgoing in (((2, 7), (5, 1)), ((3, 4), (4, 3)), ((4, 4), (1, 12))):
        flags = ["--in", ",".join(map(str, into)), "--out-momenta", ",".join(map(str, outgoing))]
        code, out, _ = run_cli(capsys, *argv, *flags)
        assert code == 0
        bundle = json.loads(out)
        assert bundle["payload"]["in_momenta"] == coords[list(into)].tolist()
        assert bundle["payload"]["out_momenta"] == coords[list(outgoing)].tolist()
        names = [c["name"] for c in bundle["summary"]["checks"]]
        assert ("order_zero_vanishes_for_distinct_states" in names) == (set(into) != set(outgoing))


EXACT_MONOMIALS = fock._monomials


def _rep_v_checks(capsys, monkeypatch, corrupt):
    """fock-verify's rep_v checks with ``corrupt(call, perm)`` applied to every V(g) the
    gate builds, calls counted from 1 in the order of the gate's batches and their rows."""
    calls = []

    def corrupted(space, *elements):
        perms, amps = EXACT_MONOMIALS(space, *elements)
        perms = perms.copy()
        for row in perms:
            calls.append(None)
            row[:] = corrupt(len(calls), row.copy())
        return perms, amps

    monkeypatch.setattr(fock, "_monomials", corrupted)
    code, out, _ = run_cli(
        capsys, "--format", "json", "fock-verify", "--m2", "0", "--pmax", "1", "--nmax", "1"
    )
    assert code == 1
    return {c["name"]: c for c in json.loads(out)["summary"]["checks"] if c["name"].startswith("rep_v")}


def test_fock_verify_counts_a_differing_support(capsys, monkeypatch):
    def onto_vacuum(call, perm):
        perm[1] = perm[0]  # a one-particle column shares the vacuum's row
        return perm

    checks = _rep_v_checks(capsys, monkeypatch, onto_vacuum)
    assert not checks["rep_v_block_diagonal"]["passed"]
    assert not checks["rep_v_unitary"]["passed"] and checks["rep_v_unitary"]["detail"] > 0.5

    def swap_in_composite(call, perm):
        if call % 3 == 0:  # every third call is V(g1 g2)
            perm[[1, 2]] = perm[[2, 1]]
        return perm

    checks = _rep_v_checks(capsys, monkeypatch, swap_in_composite)
    assert checks["rep_v_unitary"]["passed"] and checks["rep_v_block_diagonal"]["passed"]
    assert not checks["rep_v_homomorphism"]["passed"]
    assert checks["rep_v_homomorphism"]["detail"] > 0.5


def test_fock_verify_fails_only_the_product_check_on_a_corrupted_xi_matrix(capsys, monkeypatch):
    exact = fock.xi_entries

    def corrupted(x, space):
        rows, cols, vals = exact(x, space)
        return rows, cols, vals + 0.5 * ((rows == 0) & (cols == 1))

    monkeypatch.setattr(fock, "xi_entries", corrupted)
    code, out, err = run_cli(
        capsys, "--format", "json", "fock-verify", "--m2", "0", "--pmax", "1", "--nmax", "2"
    )
    assert code == 1
    assert err.splitlines()[-1] == "FAILED: xi_matrix_products_match_bracket"
    check = {c["name"]: c for c in json.loads(out)["summary"]["checks"]}["xi_matrix_products_match_bracket"]
    assert check["detail"] > 1e-3


def test_fock_verify_rejects_nmax_0(capsys):
    code, out, err = run_cli(capsys, "fock-verify", "--m2", "0", "--pmax", "1", "--nmax", "0")
    assert code == 1
    assert out == ""
    assert err.startswith("error: --nmax must be at least 1")


def test_fock_verify_refuses_a_space_larger_than_memory(capsys, monkeypatch):
    """D = C(53, 13), about 8.4e11: refused from its size, before any sector is enumerated."""

    def no_sectors(space):
        raise AssertionError("a sector was enumerated before the memory guard")

    monkeypatch.setattr(fock.FockSpace, "multiset_arrays", property(no_sectors))
    code, out, err = run_cli(capsys, "fock-verify", "--m2", "0", "--pmax", "1", "--nmax", "40")
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: the field-operator suite at D = {math.comb(53, 13)} needs about ")
    assert err.count("\n") == 1 and "of physical memory" in err


def test_fock_verify_with_an_empty_hyperboloid_is_a_named_error(capsys):
    """No point at m2 2 > pmax^2: the space's own error, before the memory guard counts
    multisets over an empty point set."""
    code, out, err = run_cli(capsys, "fock-verify", "--m2", "2", "--pmax", "0", "--nmax", "1")
    assert (code, out) == (1, "")
    assert err == "error: hyperboloid is empty at this truncation\n"


def test_fock_verify_holds_less_than_one_dense_matrix(capsys):
    """At D = 2380 the run's traced peak stays below one dense D x D complex array
    (86.4 MiB): no gate forms a full matrix."""
    tracemalloc.start()
    try:
        code = main(["fock-verify", "--m2", "0", "--pmax", "1", "--nmax", "4"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < np.dtype(complex).itemsize * 2380**2


# per_order of ``scatter --g 0.1 --m2 0 --M2 1 --horizon 4 --window 1`` with the
# default momenta; the odd orders and order 0 are exact zeros
PINNED_PER_ORDER = [
    0j, 0j, complex(-4.582696319798418, 2.65753581796844), 0j, complex(253.74856288043614, 62.72805188532786)
]


def test_scatter(capsys):
    code, out, _ = run_cli(
        capsys,
        "--format", "json", "scatter", "--g", "0.1", "--m2", "0", "--M2", "1",
        "--horizon", "4", "--window", "1",
    )
    assert code == 0
    bundle = json.loads(out)
    per_order = [complex(c["re"], c["im"]) for c in bundle["payload"]["per_order"]]
    # pinned from the dense series; the parity blocks sum fewer exact zeros, in an order
    # BLAS may choose by its thread count, which moves the last digits of order 4
    for got, want in zip(per_order, PINNED_PER_ORDER, strict=True):
        assert got == want if want == 0 else abs(got - want) <= 1e-15 * abs(want)
    assert bundle["payload"]["sector_dims"] == [92, 92, 13, 13]
    assert bundle["payload"]["order0"] == 0.0
    assert bundle["payload"]["odd_order_max"] == 0.0
    assert bundle["summary"]["all_passed"]
    details = {c["name"]: c["detail"] for c in bundle["summary"]["checks"]}
    assert details["orders_sum_to_series"] < 1e-9
    assert details == {
        "orders_match_rotated_couplings": bundle["payload"]["rotated_coupling_defect"],
        "orders_sum_to_series": details["orders_sum_to_series"],
        "hamiltonians_self_adjoint": 0.0,
        "hamiltonians_rotation_invariant": details["hamiltonians_rotation_invariant"],
        "odd_orders_vanish": bundle["payload"]["odd_order_max"],
        "order_zero_vanishes_for_distinct_states": 0.0,
    }


def test_scatter_overflow_fails_its_gates_with_nan(capsys):
    """At g = 1e300 the series overflows, and inf - inf puts NaN in S, in order 3 and in
    the unitarity Gram.  Every maximum over them reads NaN, not the 0.0 that Python's
    ``max`` keeps against a NaN, so the gates on them fail."""
    code, out, err = run_cli(
        capsys, "--format", "json", "scatter", "--g", "1e300", "--m2", "0", "--M2", "1",
        "--horizon", "3", "--window", "0",
    )
    bundle = json.loads(out)
    payload = bundle["payload"]
    assert code == 1
    for key in ("series_max_abs", "rotated_coupling_defect", "odd_order_max"):
        assert math.isnan(payload[key]), key
    assert math.isnan(payload["per_order"][3]["re"])
    defects = payload["unitarity_defects"]
    assert defects[:2] == [0.0, math.inf] and all(math.isnan(d) for d in defects[2:])
    failed = [c["name"] for c in bundle["summary"]["checks"] if not c["passed"]]
    assert failed == ["orders_match_rotated_couplings", "orders_sum_to_series", "odd_orders_vanish"]
    assert err.splitlines()[-1] == "FAILED: " + ", ".join(failed)


def test_scatter_builds_one_series(capsys, monkeypatch):
    calls = {"scattering_series": 0, "interaction_hamiltonian": 0}
    for name in calls:
        original = getattr(scattering, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(scattering, name, counted)
    code, _, _ = run_cli(
        capsys, "scatter", "--g", "0.1", "--m2", "0", "--M2", "1", "--horizon", "4", "--window", "0"
    )
    assert code == 0
    assert calls == {"scattering_series": 1, "interaction_hamiltonian": 4}


def test_scatter_at_horizon_12_is_quick(capsys):
    """The rotated-coupling check costs n^2 step products where the sum over
    decreasing time tuples cost (n - 2) 2^(n-1) + 2, about 34 s here."""
    start = time.monotonic()
    code, out, _ = run_cli(
        capsys, "--format", "json", "scatter", "--g", "0.1", "--m2", "0", "--M2", "1",
        "--horizon", "12", "--window", "0",
    )
    assert time.monotonic() - start < 3
    assert code == 0
    checks = json.loads(out)["summary"]["checks"]
    assert len(checks) == 6 and all(c["passed"] for c in checks)


def test_scatter_bad_indices(capsys):
    code, out, err = run_cli(
        capsys,
        "scatter", "--g", "0.1", "--m2", "1", "--M2", "1",
        "--horizon", "1", "--window", "0",
    )
    assert code == 1
    assert "out of range" in err


def test_scatter_negative_index_is_out_of_range(capsys):
    code, out, err = run_cli(
        capsys,
        "scatter", "--g", "0.1", "--m2", "0", "--M2", "1",
        "--horizon", "1", "--window", "0", "--in=-1,2",
    )
    assert code == 1
    assert out == ""
    assert "error: momentum indices out of range for a 13-point hyperboloid" in err


@pytest.mark.parametrize("flag, value", [("--in", "a,b"), ("--out-momenta", "x,1")])
def test_scatter_index_pair_must_be_two_integers(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["scatter", "--g", "0.1", "--m2", "0", "--M2", "1", "--horizon", "1", "--window", "0",
              f"{flag}={value}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: expected two comma-separated integers, got '{value}'" in captured.err


def test_scatter_rejects_horizon_0(capsys):
    """At horizon 0 there is no H(t) and no root of unity to check: a named error, not a
    vacuous pass (the library still builds the trivial series)."""
    code, out, err = run_cli(
        capsys, "scatter", "--g", "0.1", "--m2", "0", "--M2", "1", "--horizon", "0", "--window", "0"
    )
    assert (code, out) == (1, "")
    assert "error: --horizon must be at least 1 (no H(t) to check at 0), got 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("m2, big_m2", [(5, 1), (0, 50)])
def test_scatter_with_an_empty_hyperboloid_is_a_named_error(capsys, m2, big_m2):
    """No pi point (m2 5 > pmax^2) or no sigma point: the same named error, before the
    memory guard counts states over an empty point set."""
    start = time.monotonic()
    code, out, err = run_cli(
        capsys, "scatter", "--g", "0.1", "--m2", str(m2), "--M2", str(big_m2), "--horizon", "2", "--window", "0"
    )
    assert time.monotonic() - start < 2
    assert (code, out) == (1, "")
    assert err == "error: hyperboloid is empty at this truncation\n"


def test_scatter_echoes_tol_and_gates_parity_strictly_below_it(capsys, monkeypatch):
    """Three gates read --tol, so the config carries it; a defect equal to it fails, as it
    does in every other --tol gate."""
    monkeypatch.setattr(
        scattering, "order_parity_check",
        lambda *args: {"odd_order_max": 1e-8, "order0": 1e-8, "order2": 0.0, "distinct_states": True},
    )
    code, out, err = run_cli(
        capsys, "--format", "json", "--tol", "1e-8", "scatter", "--g", "0.1", "--m2", "0", "--M2", "1",
        "--horizon", "2", "--window", "0",
    )
    bundle = json.loads(out)
    assert bundle["config"]["tol"] == 1e-8
    failed = [c["name"] for c in bundle["summary"]["checks"] if not c["passed"]]
    assert (code, failed) == (1, ["odd_orders_vanish", "order_zero_vanishes_for_distinct_states"])


def test_scatter_rotation_gate_sees_one_perturbed_entry(capsys, monkeypatch):
    """H(t) with one entry and its adjoint moved by 1e-6 max|H| is still self-adjoint and
    its series still consistent, but no longer commutes with the rotations, which the
    orbit columns assume: only ``hamiltonians_rotation_invariant`` fails."""
    original = scattering.interaction_hamiltonian

    def perturbed(model, t):
        blocks = [b.copy() for b in original(model, t)]
        blocks[0][3, 5] += 1e-6 * max(np.max(np.abs(b)) for b in blocks)
        blocks[1] = blocks[0].conj().T
        return tuple(blocks)

    monkeypatch.setattr(scattering, "interaction_hamiltonian", perturbed)
    code, out, err = run_cli(
        capsys, "--format", "json", "scatter", "--g", "0.1", "--m2", "0", "--M2", "1", "--horizon", "3", "--window", "1"
    )
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["summary"]["checks"]}
    assert [name for name, c in checks.items() if not c["passed"]] == ["hamiltonians_rotation_invariant"]
    assert checks["hamiltonians_rotation_invariant"]["detail"] > 1e-7
    assert checks["hamiltonians_self_adjoint"]["detail"] == 0.0
    assert err.splitlines()[-1] == "FAILED: hamiltonians_rotation_invariant"


def test_benchmark_invocations_leave_numpy_ma_unimported():
    """A plain ``np.unique`` imports ``numpy.ma`` (about 14 ms cold); after the eleven
    invocations of ``perfbench/workloads.py`` at its default seed a fresh process has
    not imported it."""
    child = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parents[1] / 'perfbench')!r})\n"
        "import workloads\n"
        "from causet_qft.cli import main\n"
        "invocations = [inv for name in workloads.WORKLOADS for inv in workloads.build(name, workloads.DEFAULT_SEED)]\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [main(workloads.argv_of(inv)) for inv in invocations]\n"
        "print(len(codes), set(codes), 'numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(causet_qft.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["11", "{0}", "False"]


def test_scatter_too_large_for_memory_is_a_named_error(capsys):
    # D = C(61 + 4, 4) * C(31 + 4, 4), about 3.5e10: stopped before any sector exists
    start = time.monotonic()
    code, out, err = run_cli(
        capsys,
        "scatter", "--g", "0.1", "--m2", "0", "--M2", "1", "--pmax", "3",
        "--npi", "4", "--nsigma", "4", "--horizon", "1", "--window", "0",
    )
    assert time.monotonic() - start < 2
    assert code == 1
    assert out == ""
    assert "error: the scattering series at D = " in err
    assert "of physical memory" in err


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--format", "csv", "group-verify"])
    assert exc.value.code == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_tolerance_must_be_finite_and_positive(capsys, tol):
    with pytest.raises(SystemExit) as exc:
        main(["--tol", tol, "scatter", "--g", "0.1", "--m2", "0", "--M2", "1",
              "--horizon", "1", "--window", "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --tol: must be finite and greater than 0, got '{tol}'" in captured.err


@pytest.mark.parametrize("g", ["nan", "inf", "-inf"])
def test_scatter_coupling_must_be_finite(capsys, g):
    with pytest.raises(SystemExit) as exc:
        main(["scatter", f"--g={g}", "--m2", "0", "--M2", "1", "--horizon", "1", "--window", "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --g: must be finite, got '{g}'" in captured.err


def test_scatter_zero_coupling_is_accepted(capsys):
    # S = I at g = 0: every order, the total amplitude and every series defect are exactly zero
    code, out, _ = run_cli(
        capsys, "--format", "json", "scatter", "--g", "0", "--m2", "0", "--M2", "1",
        "--horizon", "2", "--window", "0",
    )
    assert code == 0
    bundle = json.loads(out)
    payload = bundle["payload"]
    assert payload["total"] == {"im": 0.0, "re": 0.0}
    assert payload["unitarity_defects"] == [0.0, 0.0, 0.0]
    assert payload["rotated_coupling_defect"] == 0.0
    assert payload["series_max_abs"] == 1.0
    checks = {c["name"]: c for c in bundle["summary"]["checks"]}
    # H = 0, so the rotation gate passes 0 <= 0; the series gates' bound is 1e-13 max|S| = 1e-13
    assert checks["hamiltonians_rotation_invariant"] == {
        "name": "hamiltonians_rotation_invariant", "passed": True, "detail": 0.0, "at_most": 0.0
    }
    for name in ("orders_match_rotated_couplings", "orders_sum_to_series"):
        assert checks[name] == {"name": name, "passed": True, "detail": 0.0, "below": 1e-13}


def test_library_gate_failure_is_a_named_error(capsys, monkeypatch):
    # a series whose recursion disagrees with both of its cross-checks by 1e-6:
    # both series checks fail in the report, which is still written
    original = scattering.scattering_series

    def faulty(model):
        return dataclasses.replace(original(model), rotated_coupling_defect=1e-6, order_sum_defect=1e-6)

    monkeypatch.setattr(scattering, "scattering_series", faulty)
    code, out, err = run_cli(
        capsys, "--format", "json", "scatter", "--g", "0.1", "--m2", "0", "--M2", "1",
        "--horizon", "3", "--window", "0",
    )
    assert code == 1
    bundle = json.loads(out)
    checks = {c["name"]: c for c in bundle["summary"]["checks"]}
    for name in ("orders_match_rotated_couplings", "orders_sum_to_series"):
        assert checks[name]["passed"] is False
        assert checks[name]["detail"] > 1e-9
    assert checks["orders_match_rotated_couplings"]["detail"] == bundle["payload"]["rotated_coupling_defect"]
    assert "FAILED: orders_match_rotated_couplings, orders_sum_to_series" in err
    assert "error:" not in err
    assert "Traceback" not in err


def test_series_gates_scale_with_the_series(capsys):
    """At coupling 1e6 the absolute defects are about 1e7, yet 2e-15 of max|S|:
    rounding, which the relative bound passes."""
    code, out, _ = run_cli(
        capsys, "--format", "json", "scatter", "--g", "1e6", "--m2", "0", "--M2", "1",
        "--horizon", "3", "--window", "0",
    )
    assert code == 0
    bundle = json.loads(out)
    bound = 1e-13 * bundle["payload"]["series_max_abs"]
    checks = {c["name"]: c for c in bundle["summary"]["checks"]}
    for name in ("orders_match_rotated_couplings", "orders_sum_to_series"):
        assert checks[name]["passed"] is True
        assert 1e-9 < checks[name]["detail"] < bound


def test_scatter_fails_on_weight_moved_between_orders(capsys, monkeypatch):
    """A genuine fault that the sum of the orders cannot see: order 1 ends E above its
    value and order 3 E below, with S(n) and the odd part of the sum unchanged; E is odd,
    as both orders are.  Every step t adds iH(t) times order k - 1 into order k, so order
    1 starts at E, order 2 at F = -i(H(0) + H(1) + H(2)) E, which cancels the iH(t) E the
    steps add into it, and order 3 at -E less the iH(t) times order 2 they add into it.
    E joins the vacuum to a one-sigma state, so no two-pi amplitude moves."""
    cfg = scattering.InteractionConfig(
        coupling=0.1, pi_mass_sq=0, sigma_mass_sq=1, energy_cap=1,
        pi_particle_cap=2, sigma_particle_cap=1, window_radius=0, horizon=3,
    )
    model = scattering.build_model(cfg)
    hams = [scattering.interaction_hamiltonian(model, t) for t in range(3)]
    dims = model.sector_dims

    def times_h(h, blocks, parity):
        return [h[s ^ parity] @ b for s, b in enumerate(blocks)]

    fault = [np.zeros((dims[s ^ 1], dims[s]), dtype=complex) for s in range(4)]
    fault[0][0, 0] = 1e-6  # from the vacuum, sector 0, to sector 1
    h_fault = [times_h(h, fault, 1) for h in hams]
    order2 = [-1j * sum(parts) for parts in zip(*h_fault)]
    order3, before = [-e for e in fault], order2  # before: order 2 ahead of step t
    for h, hf in zip(hams, h_fault):
        order3 = [o - 1j * x for o, x in zip(order3, times_h(h, before, 0))]
        before = [b + 1j * x for b, x in zip(before, hf)]
    # The vacuum is the first representative of sector 0.  The series holds, in row
    # sector r, each column of column sector r's items (orders 0 and 2, then the four
    # chains' even parts) and then of column sector r ^ 1's (orders 1 and 3, then the
    # chains' odd parts) as a row: order 2 starts in row sector 0, orders 1 and 3 in 1.
    width = [len(orbit[0]) for orbit in model.orbits]
    starts = {0: [(1 * width[0], order2[0])], 1: [(6 * width[1], fault[0]), (6 * width[1] + width[0], order3[0])]}
    calls = iter(range(4))

    class StartsAtTheFault:
        """``numpy`` whose complex ``zeros`` hands out the row sectors' items with the
        starts of orders 1..3 at the vacuum's column."""

        def __getattr__(self, name):
            return getattr(np, name)

        def zeros(self, shape, dtype):
            held = np.zeros(shape, dtype)
            for row, block in starts.get(next(calls, None), []) if dtype is complex else ():
                held[row] = block[:, 0]
            return held

    # Hamiltonians built beforehand, so the row sectors' items are the series' only complex zeros
    monkeypatch.setattr(scattering, "interaction_hamiltonian", lambda model, t: hams[t])
    monkeypatch.setattr(scattering, "np", StartsAtTheFault())
    code, out, err = run_cli(
        capsys, "--format", "json", "scatter", "--g", "0.1", "--m2", "0", "--M2", "1",
        "--horizon", "3", "--window", "0",
    )
    assert code == 1
    bundle = json.loads(out)
    checks = bundle["summary"]["checks"]
    assert [c["name"] for c in checks if not c["passed"]] == ["orders_match_rotated_couplings"]
    assert checks[0]["detail"] > 1e-7
    assert checks[1]["detail"] < 1e-13 * bundle["payload"]["series_max_abs"]
    assert err.splitlines()[-1] == "FAILED: orders_match_rotated_couplings"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "--format", "csv", "--out", str(target), "group-table")
    assert code == 0
    assert target.read_text(encoding="utf-8") == out
    assert out.endswith("\n")


@pytest.mark.parametrize("target", ["missing/dir/r.txt", "."], ids=["missing-directory", "directory"])
def test_out_to_an_unwritable_path_is_a_named_error(tmp_path, capsys, target):
    # checked before the subcommand runs: no report, no traceback
    code, out, err = run_cli(capsys, "--out", str(tmp_path / target), "group-table")
    assert code == 1
    assert out == ""
    assert err.startswith("error: --out ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "t, vertices, comparable, pathless",
    [
        pytest.param(12, 36251, 20022076, 5011336, id="t12"),
        pytest.param(24, 533681, 4129359744, 1410961872, id="t24"),  # past every oracle's reach
    ],
)
def test_causet_verify_counts_pairs_from_the_shells(capsys, t, vertices, comparable, pathless):
    # V vertices, whose V x V order the causet layer never holds
    code, out, _ = run_cli(capsys, "--format", "json", "causet-verify", "--t", str(t))
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["vertex_count"] == vertices
    assert payload["comparable_pairs"] == comparable
    assert payload["pathless_comparable_pairs"] == pathless


def test_causet_verify_larger_than_memory_is_a_named_error(capsys, monkeypatch):
    need = causet._VERTEX_BYTES * 2683  # the vertices up to t = 6
    monkeypatch.setattr(os, "sysconf", lambda name: {"SC_PAGE_SIZE": 1}.get(name, need - 1))
    code, out, err = run_cli(capsys, "causet-verify", "--t", "6")
    assert (code, out) == (1, "")
    assert err.startswith("error: the history up to t = 6 (2683 vertices) needs about ")
    assert err.count("\n") == 1 and "of physical memory" in err
    monkeypatch.setattr(os, "sysconf", lambda name: {"SC_PAGE_SIZE": 1}.get(name, need))
    assert run_cli(capsys, "causet-verify", "--t", "6")[0] == 0


def test_out_of_memory_is_a_named_error(capsys):
    # about 5.9e9 points at 64 bytes each, 354 GiB: refused before any coordinate exists
    start = time.monotonic()
    code, out, err = run_cli(capsys, "no-boost", "--bound", "1000")
    assert time.monotonic() - start < 2.0
    assert (code, out) == (1, "")
    assert err.startswith("error: the lattice enumeration of norm_sq3 <= 1000001 (about 5923852804 points) needs")
    # about 5.9e6 points (0.4 GB) pass that estimate, but their 142 MB row array fails
    # under an address-space cap 64 MiB above what the process has mapped
    resource = pytest.importorskip("resource")
    if not os.path.exists("/proc/self/statm"):
        pytest.skip("needs /proc/self/statm for the process's mapped size")
    child = (
        "import resource, sys\n"
        "from causet_qft.cli import main\n"
        "cap = int(open('/proc/self/statm').read().split()[0]) * resource.getpagesize() + (64 << 20)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
        "sys.exit(main(['no-boost', '--bound', '100']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(causet_qft.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"},
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: Unable to allocate ")
    assert "Traceback" not in proc.stderr


def test_text_format_default(capsys):
    code, out, err = run_cli(capsys, "speeds", "--t", "2")
    assert code == 0
    assert out.startswith("command: speeds")
    assert "paper_diff" in out
    # stderr splits the time between argument parsing, the subcommand and rendering
    assert re.fullmatch(
        r"# wall-clock: \d+\.\d{3}s \(parse \d+\.\d{3}s, command \d+\.\d{3}s, render \d+\.\d{3}s\)\n", err
    )


def test_one_parser_per_process_and_handlers_looked_up_by_name(capsys, monkeypatch):
    cli.build_parser.cache_clear()
    assert run_cli(capsys, "group-verify")[0] == 0
    # a handler replaced after the parser exists is the one called
    handler, calls = cli.cmd_group_verify, []
    monkeypatch.setattr(cli, "cmd_group_verify", lambda args: calls.append(args.command) or handler(args))
    assert run_cli(capsys, "group-verify")[0] == 0
    assert calls == ["group-verify"]
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


SUBCOMMANDS = [
    ("group-table", "--check"),
    ("group-verify",),
    ("reps-verify",),
    ("no-boost", "--bound", "3"),
    ("shells", "--t", "2"),
    ("causet-verify", "--t", "2"),
    ("speeds", "--t", "5"),
    ("masses", "--p0-max", "7"),
    ("hyperboloid", "--m2", "0", "--pmax", "2"),
    ("fock-verify", "--m2", "0", "--pmax", "1", "--nmax", "2"),
    ("scatter", "--g", "0.1", "--m2", "0", "--M2", "1", "--horizon", "2", "--window", "0"),
]


CHECK_NAMES = {
    "group-table": ["latin_square", "associative_all_triples", "table_matches_printed"],
    "group-verify": [
        "group_order_24", "latin_square", "associative_all_triples", "inverses_exist",
        "isometry_invariants", "listed_subgroups_verify", "mn_generates_group",
    ],
    "reps-verify": [
        "unitary3_unitarity", "unitary3_homomorphism", "eigenvalues_in_allowed_set",
        "generator_log_roundtrip", "spinor_unitarity", "spinor_equations", "projective_up_to_sign",
        "pinned_spinor_examples_match", "cocycle_GH_minus_one", "cocycle_JJ_minus_one", "eigen_transport",
    ],
    "no-boost": ["quoted_diophantine_families_reproduced", "boost_witnesses_verify_as_isometries"],
    "shells": ["shell0_single_vertex", "shell1_thirteen_vertices", "children_always_thirteen"],
    "causet-verify": [
        "irreflexive", "antisymmetric", "transitive", "existing_path_lengths_singleton", "weakly_covariant",
    ],
    "speeds": ["zero_speed_attainable", "light_speed_attainable"],
    "masses": ["rows_up_to_three_match_printed"],
    "hyperboloid": ["points_on_shell_exact", "rotation_invariant_point_set", "lexicographic_order"],
    "fock-verify": [
        "creation_is_adjoint_of_annihilation", "annihilator_commutator_zero_exact",
        "creator_commutator_zero_exact", "phi_psi_commutator_matches_phase_sum",
        "xi_commutator_matches_sine_sum", "xi_matrix_products_match_bracket", "rep_v_unitary",
        "rep_v_homomorphism", "rep_v_block_diagonal", "mass_shell_identity_exact",
    ],
    "scatter": [
        "orders_match_rotated_couplings", "orders_sum_to_series", "hamiltonians_self_adjoint",
        "hamiltonians_rotation_invariant", "odd_orders_vanish", "order_zero_vanishes_for_distinct_states",
    ],
}


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda a: a[0])
def test_check_names(capsys, argv):
    """Each report gates exactly these checks, in this order, and passes them all."""
    code, out, _ = run_cli(capsys, "--format", "json", *argv)
    assert code == 0
    checks = json.loads(out)["summary"]["checks"]
    assert [c["name"] for c in checks] == CHECK_NAMES[argv[0]]
    assert all(c["passed"] for c in checks)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("argv", [*SUBCOMMANDS, ("shells", "--t", "7")], ids=lambda a: " ".join(a))
def test_render_matches_the_two_pass_oracle(capsys, monkeypatch, fmt, argv):
    """stdout is byte-identical to the converted copy rendered by json.dumps or the line walk."""
    name = f"_render_{fmt}"
    bundles = []

    def spy(bundle, _render=getattr(cli, name)):
        bundles.append(bundle)
        return _render(bundle)

    monkeypatch.setattr(cli, name, spy)
    code, out, _ = run_cli(capsys, "--format", fmt, *argv)
    assert code == 0
    assert out == getattr(oracles, name.removeprefix("_"))(bundles[0])


def _int_matrices(dtype):
    """Integer matrices of 1 to 3 columns and 0 to 3 rows."""
    bound = np.iinfo(dtype)
    values = st.lists(st.integers(int(bound.min), int(bound.max)), max_size=9)
    return st.tuples(st.integers(1, 3), values).map(
        lambda t: np.array(t[1][: len(t[1]) // t[0] * t[0]], dtype=dtype).reshape(-1, t[0])
    )


# ASCII, characters JSON escapes, non-ASCII, and one outside the BMP (a surrogate pair)
_TEXT = st.text(alphabet='az09 ,:"\\/\n\t\x00\x1f\x7fé∞ψ\u2028😀', max_size=6)
_KEYS = st.one_of(_TEXT, st.integers(-3, 3), st.tuples(st.integers(-3, 3), _TEXT))
_FLOATS = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e16]))
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), _FLOATS, _TEXT, st.complex_numbers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64), _FLOATS.map(np.float64), st.booleans().map(np.bool_),
    st.tuples(st.integers(), st.integers(), st.integers(), st.integers()),
    _int_matrices(np.int64), _int_matrices(np.int32),
    st.lists(st.booleans(), min_size=2, max_size=6).map(lambda xs: np.array(xs[: len(xs) // 2 * 2]).reshape(-1, 2)),
    st.lists(_FLOATS, max_size=3).map(np.array), st.lists(st.complex_numbers(), max_size=2).map(np.array),
    _FLOATS.map(np.array),
    st.just(np.zeros((2, 0), dtype=np.int64)),
    st.lists(st.lists(st.integers(), max_size=3), max_size=3),  # ragged and empty rows
    # equal-width rows of ints with True/False among them, empty rows included
    st.tuples(
        st.integers(0, 3), st.lists(st.lists(st.one_of(st.integers(), st.booleans()), min_size=3, max_size=3), max_size=3)
    ).map(lambda t: [row[: t[0]] for row in t[1]]),
)
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(_KEYS, _TREES, max_size=4))
def test_render_matches_the_two_pass_oracle_on_payload_trees(bundle):
    assert cli._render_json(bundle) == oracles.render_json(bundle)
    assert cli._render_text(bundle) == oracles.render_text(bundle)


RULES = {"below": lambda v, b: v < b, "at_most": lambda v, b: v <= b, "equals": lambda v, b: v == b}


@pytest.mark.parametrize(
    "argv",
    [
        *SUBCOMMANDS, ("shells", "--t", "0"), ("--tol", "1e-17", "reps-verify"),
        ("scatter", "--g", "0", "--m2", "0", "--M2", "1", "--horizon", "3", "--window", "0"),
    ],
    ids=lambda a: " ".join(a),
)
def test_check_records_compute_passed_from_value_and_bound(capsys, argv):
    """A check is a flag {name, passed} or a measured record {name, passed, detail,
    <rule>: bound} whose passed is its rule applied to the two; all_passed is the
    conjunction of the checks and sets the exit code."""
    code, out, _ = run_cli(capsys, "--format", "json", *argv)
    summary = json.loads(out)["summary"]
    for check in summary["checks"]:
        rest = check.keys() - {"name", "passed"}
        if rest:
            (rule,) = rest - {"detail"}
            assert rest == {"detail", rule} and rule in RULES
            assert check["passed"] is RULES[rule](check["detail"], check[rule])
        assert type(check["passed"]) is bool
    assert summary["all_passed"] is all(c["passed"] for c in summary["checks"])
    assert code == (0 if summary["all_passed"] else 1)
