"""Unitary 3d representation, generator logs, spinor values, projective signs."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from causet_qft import paperdata
from causet_qft import representations as reps
from causet_qft.representations import (
    ALLOWED_EIGENVALUES,
    CAL_U,
    PRINTED_SIGN_SPINORS,
    SPINORS,
    eigen_transport_check,
    eigenvalue_set_defect,
    generator_log,
    homomorphism_defect,
    printed_spinor_report,
    projective_check,
    seven_equation_residuals,
    unitary3_defect,
)
from causet_qft.symmetry import index
from oracles import (
    SignConvention,
    basis_change,
    cal_u,
    eigensystem,
    element,
    elements,
    homomorphism_defect_by_pairs,
    multiply,
    printed_spinor_rows,
    projective_check_by_pairs,
    spinor_matrices,
    spinor_of,
    unitary3_defect_by_element,
)

OMEGA = cmath.exp(2j * math.pi / 3)


def test_stacks_match_the_per_element_oracles():
    """The three read-only stacks against each element's rotation and spinor values,
    solved one element at a time from its own matrix: bit for bit."""
    assert np.array_equal(CAL_U, [cal_u(z) for z in elements()])
    assert np.array_equal(SPINORS, [spinor_of(z).matrix for z in elements()])
    printed = [spinor_of(z, SignConvention.PRINTED).matrix for z in elements()]
    assert np.array_equal(PRINTED_SIGN_SPINORS, printed)
    assert not any(stack.flags.writeable for stack in (CAL_U, SPINORS, PRINTED_SIGN_SPINORS))


def test_basis_change_values():
    u, uinv = basis_change()
    assert np.allclose(u[:, 0], [1.0, 0.0, 0.0])
    assert uinv[0, 1] == pytest.approx(0.5)
    assert np.max(np.abs(u @ uinv - np.eye(3))) < 1e-14


def test_cal_u_values():
    assert np.allclose(CAL_U[index("I")], np.eye(3))
    assert np.allclose(CAL_U[index("M")], np.diag([1.0, -1.0, -1.0]), atol=1e-12)
    n_row1 = CAL_U[index("N")][0]
    assert np.allclose(
        n_row1, [0.5, -1.0 / (2.0 * math.sqrt(3.0)), -math.sqrt(2.0 / 3.0)], atol=1e-12
    )
    for lab, printed in paperdata.UNITARY3_PRINTED.items():
        assert np.max(np.abs(CAL_U[index(lab)] - np.array(printed))) < 1e-12


def test_unitarity_and_homomorphism():
    assert unitary3_defect() < 1e-12
    assert homomorphism_defect() < 1e-12
    # the stacked laws give the per-element and per-pair loops' values bit for bit
    rotations = [cal_u(z) for z in elements()]
    assert unitary3_defect() == unitary3_defect_by_element(rotations)
    assert homomorphism_defect() == homomorphism_defect_by_pairs(rotations)


def test_unitarity_and_homomorphism_see_a_corrupted_rotation(monkeypatch):
    broken = CAL_U.copy()
    broken[index("N"), 0, 1] += 1e-3
    monkeypatch.setattr(reps, "CAL_U", broken)
    assert unitary3_defect() > 1e-4
    assert homomorphism_defect() > 1e-4
    assert unitary3_defect() == unitary3_defect_by_element(broken)
    assert homomorphism_defect() == homomorphism_defect_by_pairs(broken)


def test_eigenvalue_set():
    assert eigenvalue_set_defect() < 1e-10


def _eig_multiset(label):
    vals, _ = eigensystem(element(label))
    return sorted((round(v.real, 8), round(v.imag, 8)) for v in vals)


def test_eigensystem_examples():
    assert _eig_multiset("A") == sorted(
        (round(v.real, 8), round(v.imag, 8)) for v in (1, OMEGA, OMEGA.conjugate())
    )
    assert _eig_multiset("I") == [(1.0, 0.0)] * 3
    assert _eig_multiset("J") == sorted([(-1.0, 0.0), (-1.0, 0.0), (1.0, 0.0)])


def test_eigensystem_sorted_by_argument():
    for z in elements():
        vals, _ = eigensystem(z)
        args = [cmath.phase(v) if cmath.phase(v) > -math.pi + 1e-12 else math.pi for v in vals]
        assert args == sorted(args)


def test_eigenvectors_orthonormal_when_distinct():
    for z in elements():
        vals, vecs = eigensystem(z)
        if len({(round(v.real, 6), round(v.imag, 6)) for v in vals}) == 3:
            assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(3))) < 1e-10


def test_generator_log_roundtrip_all_elements():
    for z in range(24):
        h = generator_log(z)
        assert np.max(np.abs(h - h.conj().T)) < 1e-10
        vals = np.linalg.eigvalsh(h)
        assert np.all(vals > -math.pi - 1e-9)
        assert np.all(vals <= math.pi + 1e-9)


def test_generator_log_examples():
    h = generator_log(index("A"))
    vals = sorted(np.linalg.eigvalsh(h))
    assert np.allclose(vals, [-2 * math.pi / 3, 0.0, 2 * math.pi / 3], atol=1e-10)
    assert np.max(np.abs(generator_log(index("I")))) < 1e-12


def _expm_hermitian(h):
    vals, vecs = np.linalg.eigh(h)
    return vecs @ np.diag(np.exp(1j * vals)) @ vecs.conj().T


def test_exponential_reproduces_representation():
    for z, rotation in enumerate(CAL_U):
        h = generator_log(z)
        assert np.max(np.abs(_expm_hermitian(h) - rotation)) < 1e-10


def test_spinor_values_and_equations():
    for rotation, m in zip(CAL_U, SPINORS):
        a, b = complex(m[0, 0]), complex(m[0, 1])
        assert np.array_equal(m, [[a, b], [-b.conjugate(), a.conjugate()]])
        assert abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) < 1e-12
        assert abs(np.linalg.det(m) - 1.0) < 1e-12
        assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-12
        assert max(seven_equation_residuals(rotation, a, b)) < 1e-10


def test_spinor_examples():
    m = SPINORS[index("M")]
    target = 1j * np.array([[0.0, 1.0], [1.0, 0.0]])
    assert min(np.max(np.abs(m - target)), np.max(np.abs(m + target))) < 1e-12
    i_mat = SPINORS[index("I")]
    assert min(np.max(np.abs(i_mat - np.eye(2))), np.max(np.abs(i_mat + np.eye(2)))) < 1e-12
    n_mat = SPINORS[index("N")]
    printed_n = np.array(paperdata.SPINOR_PRINTED["N"])
    assert min(np.max(np.abs(n_mat - printed_n)), np.max(np.abs(n_mat + printed_n))) < 1e-9


def test_printed_spinor_comparison():
    report = printed_spinor_report()
    assert report == printed_spinor_rows()
    mismatched = {r["label"] for r in report if not r["matches_up_to_sign"]}
    # the published listing garbles exactly these eight entries (misprinted
    # exponents, dropped imaginary units, a stray prefactor, one mixed row)
    assert mismatched == {"C", "F", "H", "Q", "R", "S", "V", "X"}
    for r in report:
        if r["label"] not in mismatched:
            assert r["max_abs_diff"] < 1e-9
            assert r["printed_sign"] in (-1, 1)


def test_flipped_printed_sign_flips_its_cocycle_entries():
    before = projective_check(PRINTED_SIGN_SPINORS)["cocycle"]
    flipped = PRINTED_SIGN_SPINORS.copy()
    flipped[index("G")] *= -1
    after = projective_check(flipped)
    mats = spinor_matrices(SignConvention.PRINTED)
    mats["G"] = -mats["G"]
    assert after == projective_check_by_pairs(mats)
    # R(G) -> -R(G) flips c(Y, Z) exactly when G is an odd number of Y, Z and YZ
    for y in elements():
        for z in elements():
            odd = ((y.label == "G") + (z.label == "G") + (multiply(y, z).label == "G")) % 2
            key = (y.label, z.label)
            assert after["cocycle"][key] == (-1 if odd else 1) * before[key]


def test_projective_property_canonical():
    report = projective_check(SPINORS)
    # the stacked check gives the pair loop's residual bit for bit and its 576 signs
    assert report == projective_check_by_pairs(spinor_matrices(SignConvention.CANONICAL))
    assert len(report["cocycle"]) == 576
    assert report["worst_residual"] < 1e-10
    cocycle = report["cocycle"]
    for z in elements():
        assert cocycle[("I", z.label)] == 1
    assert cocycle[("J", "J")] == -1  # the lift of an involution squares to -1


def test_projective_property_printed_convention():
    """Under the published sign choices both quoted sign facts reproduce."""
    report = projective_check(PRINTED_SIGN_SPINORS)
    assert report == projective_check_by_pairs(spinor_matrices(SignConvention.PRINTED))
    assert report["worst_residual"] < 1e-10
    assert multiply(element("G"), element("H")).label == "I"
    assert report["cocycle"][("G", "H")] == -1
    assert report["cocycle"][("J", "J")] == -1
    g, h, j = (PRINTED_SIGN_SPINORS[index(label)] for label in "GHJ")
    assert np.max(np.abs(g @ h + np.eye(2))) < 1e-10
    assert np.max(np.abs(j @ j + np.eye(2))) < 1e-10


def test_spinor_sign_convention_deterministic():
    for a, b in SPINORS[:, 0].tolist():
        for comp in (a.real, a.imag, b.real, b.imag):
            if abs(comp) > 1e-7:
                assert comp > 0
                break


def test_eigen_transport():
    assert eigen_transport_check() < 1e-10


def test_allowed_eigenvalues_on_unit_circle():
    for lam in ALLOWED_EIGENVALUES:
        assert abs(abs(lam) - 1.0) < 1e-15
