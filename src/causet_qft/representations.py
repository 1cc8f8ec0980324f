"""Unitary and spinor representations of the lattice symmetry group.

The 3-dimensional representation is the conjugation of the integer matrices
into Cartesian coordinates, where they become rotations: the read-only (24, 3, 3)
stack ``CAL_U`` in label order.  The 2-dimensional spinor values are recovered per
element from the standard quadratic relations between a rotation matrix and its
SU(2) preimages, into the read-only (24, 2, 2) stack ``SPINORS``.  The preimage is
only defined up to a global sign: ``SPINORS`` makes the first entry of
(Re a, Im a, Re b, Im b) larger than 1e-7 in magnitude positive, and
``PRINTED_SIGN_SPINORS`` follows the published listing's sign wherever the printed
matrix is a faithful lift, and ``SPINORS`` elsewhere.  Every law that relates pairs
of elements is one array expression over the group's product table.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

from . import paperdata
from .symmetry import MATRICES, PRODUCT_INDEX, index

__all__ = [
    "ALLOWED_EIGENVALUES",
    "CAL_U",
    "SPINORS",
    "PRINTED_SIGN_SPINORS",
    "unitary3_defect",
    "homomorphism_defect",
    "eigenvalue_set_defect",
    "eigen_transport_check",
    "generator_log",
    "generator_log_defect",
    "seven_equation_residuals",
    "spinor_unitarity_defect",
    "spinor_equation_residual",
    "projective_check",
    "printed_spinor_report",
]

#: Possible eigenvalues of any element of the rotation representation.
ALLOWED_EIGENVALUES = (
    1.0 + 0.0j,
    -1.0 + 0.0j,
    1.0j,
    -1.0j,
    cmath.exp(2j * math.pi / 3),
    cmath.exp(-2j * math.pi / 3),
)


# the published pair (U, U^-1) converting Cartesian <-> lattice coordinates
_U, _UINV = np.array(paperdata.U_MATRIX), np.array(paperdata.U_INVERSE)
CAL_U = _UINV @ MATRICES @ _U
CAL_U.flags.writeable = False


def unitary3_defect() -> float:
    """Worst |R^T R - I| entry over the (real) rotations R."""
    return float(np.max(np.abs(CAL_U.transpose(0, 2, 1) @ CAL_U - np.eye(3))))


def homomorphism_defect() -> float:
    """Worst | calU(YZ) - calU(Y) calU(Z) | entry over all 576 pairs."""
    return float(np.max(np.abs(CAL_U[PRODUCT_INDEX] - CAL_U[:, None] @ CAL_U[None, :])))


def _principal_angle(lam: complex) -> float:
    theta = cmath.phase(lam)
    if theta <= -math.pi + 1e-12:
        theta += 2.0 * math.pi
    return theta


def generator_log(z: int) -> np.ndarray:
    """Self-adjoint generator H with exp(iH) = ``CAL_U[z]``, spectrum in (-pi, pi].

    The rotation matrices are normal with well-separated eigenvalue clusters,
    so eigenvectors are orthonormalized cluster by cluster before assembling
    the spectral sum.
    """
    vals, vecs = np.linalg.eig(CAL_U[z])
    clusters: dict[int, list[int]] = {}
    for i, lam in enumerate(vals):
        key = min(
            range(len(ALLOWED_EIGENVALUES)),
            key=lambda k: abs(lam - ALLOWED_EIGENVALUES[k]),
        )
        clusters.setdefault(key, []).append(i)
    basis = np.zeros((3, 3), dtype=complex)
    out_angles = np.zeros(3)
    col = 0
    for key in sorted(clusters):
        idx = clusters[key]
        block, _ = np.linalg.qr(vecs[:, idx])
        for j in range(len(idx)):
            basis[:, col] = block[:, j]
            out_angles[col] = _principal_angle(ALLOWED_EIGENVALUES[key])
            col += 1
    return basis @ np.diag(out_angles) @ basis.conj().T


def generator_log_defect() -> float:
    """Worst |exp(iH) - calU(z)| entry over the group, H = generator_log(z)."""
    worst = 0.0
    for z, rotation in enumerate(CAL_U):
        vals, vecs = np.linalg.eigh(generator_log(z))
        exp_h = vecs @ np.diag(np.exp(1j * vals)) @ vecs.conj().T
        worst = max(worst, float(np.max(np.abs(exp_h - rotation))))
    return worst


def seven_equation_residuals(rotation: np.ndarray, a: complex, b: complex) -> tuple[float, ...]:
    """Residuals of the seven quadratic relations tying (a, b) to the rotation.

    The third relation is evaluated with the (2,1)/(3,2) components dictated
    by the SU(2) algebra; the published form carries a subscript misprint
    there.  Relations four and five are redundant given the others and act
    as consistency checks.
    """
    A = rotation
    return (
        abs(a * a - b * b - complex(A[0, 0], -A[1, 0])),
        abs(a * b - complex(-0.5 * A[0, 2], 0.5 * A[1, 2])),
        abs(a * b.conjugate() - complex(0.5 * A[2, 0], 0.5 * A[2, 1])),
        abs((a * a + b * b).real - A[1, 1]),
        abs((b * b - (a.conjugate()) ** 2).imag - A[0, 1]),
        abs(abs(b) ** 2 - 0.5 * (1.0 - A[2, 2])),
        abs(abs(a) ** 2 + abs(b) ** 2 - 1.0),
    )


# A rotation's imaginary parts, and the seven relations' residuals at its
# recovered spinor value, must stay within this.
_SPINOR_TOL = 1e-10


def _solve_spinor(rotation: np.ndarray) -> tuple[complex, complex]:
    A = np.asarray(rotation)
    if np.iscomplexobj(A):
        if np.max(np.abs(A.imag)) > _SPINOR_TOL:
            raise ValueError("rotation matrix must be real")
        A = A.real
    if np.max(np.abs(A.T @ A - np.eye(3))) > 1e-9 or np.linalg.det(A) < 0:
        raise ValueError("input is not a special orthogonal matrix")
    b_sq = min(1.0, max(0.0, 0.5 * (1.0 - A[2, 2])))
    a_abs, b_abs = math.sqrt(1.0 - b_sq), math.sqrt(b_sq)
    if b_abs < 1e-6:
        a, b = cmath.sqrt(complex(A[0, 0], -A[1, 0])), 0.0 + 0.0j
    elif a_abs < 1e-6:
        a, b = 0.0 + 0.0j, cmath.sqrt(-complex(A[0, 0], -A[1, 0]))
    else:
        sum_phase = cmath.phase(complex(-0.5 * A[0, 2], 0.5 * A[1, 2]))
        diff_phase = cmath.phase(complex(0.5 * A[2, 0], 0.5 * A[2, 1]))
        a = a_abs * cmath.exp(0.5j * (sum_phase + diff_phase))
        b = b_abs * cmath.exp(0.5j * (sum_phase - diff_phase))
    if max(seven_equation_residuals(A, a, b)) > _SPINOR_TOL:
        raise ValueError("no spinor value satisfies the relations for this input")
    return a, b


def _canonicalize(a: complex, b: complex) -> tuple[complex, complex]:
    for component in (a.real, a.imag, b.real, b.imag):
        if abs(component) > 1e-7:
            if component < 0.0:
                return -a, -b
            break
    return a, b


# the SU(2) values [[a, b], [-conj(b), conj(a)]] of the rotations, each sign made canonical
SPINORS = np.array(
    [[[a, b], [-b.conjugate(), a.conjugate()]] for a, b in (_canonicalize(*_solve_spinor(r)) for r in CAL_U)]
)
SPINORS.flags.writeable = False

# A printed spinor matrix counts as a valid form, or as a match, within this.
_PRINTED_TOL = 1e-9


def _printed_comparison() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per element, the printed matrix p against the canonical value R: whether p has
    the SU(2) form [[a, b], [-conj(b), conj(a)]] (unitary, determinant 1), the distance
    min(|p - R|, |p + R|), and the sign +1/-1 of the nearer one, 0 if p is corrupt."""
    p = np.array([paperdata.SPINOR_PRINTED[label] for label in paperdata.LABEL_ORDER])
    valid = (
        (np.max(np.abs(p.conj().transpose(0, 2, 1) @ p - np.eye(2)), axis=(1, 2)) < _PRINTED_TOL)
        & (np.abs(np.linalg.det(p) - 1.0) < _PRINTED_TOL)
        & (np.abs(p[:, 1, 1] - p[:, 0, 0].conj()) < _PRINTED_TOL)
        & (np.abs(p[:, 1, 0] + p[:, 0, 1].conj()) < _PRINTED_TOL)
    )
    d_plus, d_minus = (np.max(np.abs(d), axis=(1, 2)) for d in (p - SPINORS, p + SPINORS))
    diff = np.minimum(d_plus, d_minus)
    return valid, diff, np.where(valid & (diff < _PRINTED_TOL), np.where(d_plus < d_minus, 1, -1), 0)


_PRINTED_VALID, _PRINTED_DIFF, _PRINTED_SIGNS = _printed_comparison()
PRINTED_SIGN_SPINORS = np.where(_PRINTED_SIGNS[:, None, None] < 0, -SPINORS, SPINORS)
PRINTED_SIGN_SPINORS.flags.writeable = False


def spinor_unitarity_defect() -> float:
    """Worst |R^H R - I| entry over the canonical spinor values R."""
    return float(np.max(np.abs(SPINORS.conj().transpose(0, 2, 1) @ SPINORS - np.eye(2))))


def spinor_equation_residual() -> float:
    """Worst residual of the seven relations between each canonical spinor value and its rotation."""
    return max(
        max(seven_equation_residuals(r, complex(s[0, 0]), complex(s[0, 1]))) for r, s in zip(CAL_U, SPINORS)
    )


def projective_check(mats: np.ndarray) -> dict:
    """Worst residual of R(YZ) = +-R(Y)R(Z) over all pairs of the (24, 2, 2) spinor stack
    ``mats`` (``SPINORS`` or ``PRINTED_SIGN_SPINORS``), and the sign cocycle by labels."""
    prod, target = mats[:, None] @ mats[None, :], mats[PRODUCT_INDEX]
    d_plus, d_minus = (np.max(np.abs(d), axis=(-2, -1)) for d in (prod - target, prod + target))
    signs = np.where(d_plus <= d_minus, 1, -1).ravel().tolist()
    cocycle = dict(zip(itertools.product(paperdata.LABEL_ORDER, repeat=2), signs))
    worst = float(np.max(np.minimum(d_plus, d_minus)))
    return {"worst_residual": worst, "cocycle": cocycle}


def printed_spinor_report() -> list[dict]:
    """Per-element comparison of the computed spinor values with the listing."""
    rows = zip(paperdata.LABEL_ORDER, _PRINTED_VALID.tolist(), _PRINTED_DIFF.tolist(), _PRINTED_SIGNS.tolist())
    return [
        {
            "label": label,
            "printed_valid_form": valid,
            "matches_up_to_sign": diff < _PRINTED_TOL,
            "max_abs_diff": diff,
            "printed_sign": sign,
        }
        for label, valid, diff, sign in rows
    ]


def eigenvalue_set_defect() -> float:
    """Worst distance of any eigenvalue from the six allowed values."""
    vals, _ = np.linalg.eig(CAL_U)
    return float(np.max(np.abs(vals[..., None] - np.array(ALLOWED_EIGENVALUES)).min(axis=-1)))


def eigen_transport_check() -> float:
    """Worst eigen-equation residual of the published 3-cycle eigenvectors, before
    and after the basis change."""
    z = index("A")
    worst = 0.0
    for lam, coords in paperdata.EIGEN_EXAMPLE_A:
        u = np.array(coords, dtype=complex)
        zu = MATRICES[z].astype(float) @ u
        worst = max(worst, float(np.max(np.abs(zu - lam * u))))
        v = _UINV @ u
        worst = max(worst, float(np.max(np.abs(CAL_U[z] @ v - lam * v))))
    return worst
