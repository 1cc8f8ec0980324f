"""Command-line surface: bundles, formats, exit codes, check lists.

Determinism across fresh processes is acceptance criterion 10.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from causet_qft import fock, scattering
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


def test_reps_verify_fails_gates_in_the_report(capsys):
    # below the floating-point residuals the gates fail as named checks that carry their values
    code, out, _ = run_cli(capsys, "--format", "json", "--tol", "1e-17", "reps-verify")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["summary"]["checks"]}
    for name in ("projective_up_to_sign", "eigen_transport"):
        assert not checks[name]["passed"] and checks[name]["detail"] >= 1e-17


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
        "name": "children_always_thirteen", "passed": True, "detail": 1 + 13 + 55
    }
    assert bundle["paper_diff"]["construction_divergences"][0]["t"] == 3


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


def test_hyperboloid(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "hyperboloid", "--m2", "0", "--pmax", "1")
    assert code == 0
    bundle = json.loads(out)
    assert bundle["payload"]["count"] == 13
    assert bundle["payload"]["points"][0] == [0, 0, 0, 0]


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


EXACT_REP_V = fock.rep_v


def _rep_v_checks(capsys, monkeypatch, corrupt):
    """fock-verify's rep_v checks with ``corrupt(call, perm)`` applied to every rep_v result."""
    calls = []

    def corrupted(y, rot, space):
        perm, amp = EXACT_REP_V(y, rot, space)
        calls.append(None)
        return corrupt(len(calls), perm.copy()), amp

    monkeypatch.setattr(fock, "rep_v", corrupted)
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


def test_fock_verify_rejects_nmax_0(capsys):
    code, out, err = run_cli(capsys, "fock-verify", "--m2", "0", "--pmax", "1", "--nmax", "0")
    assert code == 1
    assert out == ""
    assert err.startswith("error: --nmax must be at least 1")


def test_scatter(capsys):
    code, out, _ = run_cli(
        capsys,
        "--format", "json", "scatter", "--g", "0.1", "--m2", "0", "--M2", "1",
        "--horizon", "3", "--window", "0",
    )
    assert code == 0
    bundle = json.loads(out)
    assert len(bundle["payload"]["per_order"]) == 4
    assert bundle["payload"]["order0"] == 0.0
    assert bundle["payload"]["odd_order_max"] <= 1e-10
    assert abs(complex(bundle["payload"]["per_order"][2]["re"],
                       bundle["payload"]["per_order"][2]["im"])) > 1e-4
    assert bundle["summary"]["all_passed"]
    details = {c["name"]: c["detail"] for c in bundle["summary"]["checks"]}
    assert details["orders_sum_to_series"] < 1e-9
    assert details == {
        "recursion_matches_expansion": bundle["payload"]["expansion_defect"],
        "orders_sum_to_series": details["orders_sum_to_series"],
        "hamiltonians_self_adjoint": 0.0,
        "odd_orders_vanish": bundle["payload"]["odd_order_max"],
        "order_zero_vanishes_for_distinct_states": 0.0,
    }


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


def test_scatter_bad_indices(capsys):
    code, out, err = run_cli(
        capsys,
        "scatter", "--g", "0.1", "--m2", "1", "--M2", "1",
        "--horizon", "1", "--window", "0",
    )
    assert code == 1
    assert "out of range" in err


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
    # S = I at g = 0: every order and the total amplitude are exactly zero
    code, out, _ = run_cli(
        capsys, "--format", "json", "scatter", "--g", "0", "--m2", "0", "--M2", "1",
        "--horizon", "2", "--window", "0",
    )
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["total"] == {"im": 0.0, "re": 0.0}
    assert set(payload["unitarity_defects"]) == {0.0}


def test_library_gate_failure_is_a_named_error(capsys, monkeypatch):
    # a series whose recursion disagrees with both of its cross-checks by 1e-6:
    # both series checks fail in the report, which is still written
    original = scattering.scattering_series

    def faulty(model):
        return dataclasses.replace(original(model), expansion_defect=1e-6, order_sum_defect=1e-6)

    monkeypatch.setattr(scattering, "scattering_series", faulty)
    code, out, err = run_cli(
        capsys, "--format", "json", "scatter", "--g", "0.1", "--m2", "0", "--M2", "1",
        "--horizon", "3", "--window", "0",
    )
    assert code == 1
    bundle = json.loads(out)
    checks = {c["name"]: c for c in bundle["summary"]["checks"]}
    for name in ("recursion_matches_expansion", "orders_sum_to_series"):
        assert checks[name]["passed"] is False
        assert checks[name]["detail"] > 1e-9
    assert checks["recursion_matches_expansion"]["detail"] == bundle["payload"]["expansion_defect"]
    assert "FAILED: recursion_matches_expansion, orders_sum_to_series" in err
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
    for name in ("recursion_matches_expansion", "orders_sum_to_series"):
        assert checks[name]["passed"] is True
        assert 1e-9 < checks[name]["detail"] < bound


def test_scatter_fails_on_a_differing_expansion(capsys, monkeypatch):
    """A genuine fault: an expansion off by 1e-6 fails only the expansion check."""
    original = scattering.expansion_formula

    def off(a_seq, x0, n):
        return original(a_seq, x0, n) + 1e-6

    monkeypatch.setattr(scattering, "expansion_formula", off)
    code, out, err = run_cli(
        capsys, "--format", "json", "scatter", "--g", "0.1", "--m2", "0", "--M2", "1",
        "--horizon", "3", "--window", "0",
    )
    assert code == 1
    checks = json.loads(out)["summary"]["checks"]
    assert [c["name"] for c in checks if not c["passed"]] == ["recursion_matches_expansion"]
    assert checks[0]["detail"] == pytest.approx(1e-6, rel=1e-6)
    assert err.splitlines()[-1] == "FAILED: recursion_matches_expansion"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "--format", "csv", "--out", str(target), "group-table")
    assert code == 0
    assert target.read_text(encoding="utf-8") == out
    assert out.endswith("\n")


def test_text_format_default(capsys):
    code, out, _ = run_cli(capsys, "speeds", "--t", "2")
    assert code == 0
    assert out.startswith("command: speeds")
    assert "paper_diff" in out


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
        "xi_commutator_matches_sine_sum", "rep_v_unitary", "rep_v_homomorphism",
        "rep_v_block_diagonal", "mass_shell_identity_exact",
    ],
    "scatter": [
        "recursion_matches_expansion", "orders_sum_to_series", "hamiltonians_self_adjoint",
        "odd_orders_vanish", "order_zero_vanishes_for_distinct_states",
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
