"""Unitary and spinor representations of the lattice symmetry group.

The 3-dimensional representation is the conjugation of the integer matrices
into Cartesian coordinates, where they become rotations: one (24, 3, 3) stack
in label order.  The 2-dimensional spinor values are recovered per element
from the standard quadratic relations between a rotation matrix and its SU(2)
preimages, into one (24, 2, 2) stack; the preimage is only defined up to a
global sign, so a deterministic representative is chosen (see
``SignConvention``).  Every law that relates pairs of elements is one array
expression over the group's product table.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import paperdata
from .symmetry import MATRICES, PRODUCT_INDEX, GroupElement, element, elements, index

__all__ = [
    "Spinor2",
    "SignConvention",
    "ALLOWED_EIGENVALUES",
    "basis_change",
    "cal_u",
    "unitary3_defect",
    "homomorphism_defect",
    "eigenvalue_set_defect",
    "eigen_transport_check",
    "generator_log",
    "generator_log_defect",
    "spinor_of",
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


def basis_change() -> tuple[np.ndarray, np.ndarray]:
    """The published pair (U, U^-1) converting Cartesian <-> lattice coordinates."""
    return np.array(paperdata.U_MATRIX), np.array(paperdata.U_INVERSE)


_U, _UINV = basis_change()
_CAL_U = _UINV @ MATRICES @ _U
_CAL_U.flags.writeable = False


def cal_u(z: GroupElement) -> np.ndarray:
    """Rotation matrix of ``z`` in Cartesian coordinates (a read-only 3x3 array)."""
    return _CAL_U[index(z)]


def unitary3_defect() -> float:
    """Worst |R^T R - I| entry over the (real) rotations R."""
    return float(np.max(np.abs(_CAL_U.transpose(0, 2, 1) @ _CAL_U - np.eye(3))))


def homomorphism_defect() -> float:
    """Worst | calU(YZ) - calU(Y) calU(Z) | entry over all 576 pairs."""
    return float(np.max(np.abs(_CAL_U[PRODUCT_INDEX] - _CAL_U[:, None] @ _CAL_U[None, :])))


def _principal_angle(lam: complex) -> float:
    theta = cmath.phase(lam)
    if theta <= -math.pi + 1e-12:
        theta += 2.0 * math.pi
    return theta


def generator_log(z: GroupElement) -> np.ndarray:
    """Self-adjoint generator H with exp(iH) = cal_u(z), spectrum in (-pi, pi].

    The rotation matrices are normal with well-separated eigenvalue clusters,
    so eigenvectors are orthonormalized cluster by cluster before assembling
    the spectral sum.
    """
    vals, vecs = np.linalg.eig(cal_u(z))
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
    for z in elements():
        vals, vecs = np.linalg.eigh(generator_log(z))
        exp_h = vecs @ np.diag(np.exp(1j * vals)) @ vecs.conj().T
        worst = max(worst, float(np.max(np.abs(exp_h - cal_u(z)))))
    return worst


class SignConvention(Enum):
    """How the global sign of a spinor value is fixed.

    CANONICAL: the first entry of (Re a, Im a, Re b, Im b) larger than 1e-7
    in magnitude is made positive.  PRINTED: follow the published listing's
    choice whenever the printed matrix is a faithful lift; fall back to
    CANONICAL for entries the source misprints.
    """

    CANONICAL = "canonical"
    PRINTED = "printed"


@dataclass(frozen=True)
class Spinor2:
    """SU(2) value [[a, b], [-conj(b), conj(a)]] at one group element."""

    label: str
    a: complex
    b: complex

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [-self.b.conjugate(), self.a.conjugate()]])


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


_SPINORS = np.array([Spinor2(z.label, *_canonicalize(*_solve_spinor(cal_u(z)))).matrix for z in elements()])
_SPINORS.flags.writeable = False

# A printed spinor matrix counts as a valid form, or as a match, within this.
_PRINTED_TOL = 1e-9


def _printed_comparison() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per element, the printed matrix p against the canonical value R: whether p has
    the SU(2) form [[a, b], [-conj(b), conj(a)]] (unitary, determinant 1), the distance
    min(|p - R|, |p + R|), and the sign +1/-1 of the nearer one, 0 if p is corrupt."""
    p = np.array([paperdata.SPINOR_PRINTED[z.label] for z in elements()])
    valid = (
        (np.max(np.abs(p.conj().transpose(0, 2, 1) @ p - np.eye(2)), axis=(1, 2)) < _PRINTED_TOL)
        & (np.abs(np.linalg.det(p) - 1.0) < _PRINTED_TOL)
        & (np.abs(p[:, 1, 1] - p[:, 0, 0].conj()) < _PRINTED_TOL)
        & (np.abs(p[:, 1, 0] + p[:, 0, 1].conj()) < _PRINTED_TOL)
    )
    d_plus, d_minus = (np.max(np.abs(d), axis=(1, 2)) for d in (p - _SPINORS, p + _SPINORS))
    diff = np.minimum(d_plus, d_minus)
    return valid, diff, np.where(valid & (diff < _PRINTED_TOL), np.where(d_plus < d_minus, 1, -1), 0)


_PRINTED_VALID, _PRINTED_DIFF, _PRINTED_SIGNS = _printed_comparison()


def _spinors(convention: SignConvention) -> np.ndarray:
    """The (24, 2, 2) spinor values under ``convention``."""
    if convention is SignConvention.CANONICAL:
        return _SPINORS
    return np.where(_PRINTED_SIGNS[:, None, None] < 0, -_SPINORS, _SPINORS)


def spinor_of(z: GroupElement, convention: SignConvention = SignConvention.CANONICAL) -> Spinor2:
    """Spinor value of ``z`` under the requested sign convention."""
    m = _spinors(convention)[index(z)]
    return Spinor2(z.label, complex(m[0, 0]), complex(m[0, 1]))


def spinor_unitarity_defect() -> float:
    """Worst |R^H R - I| entry over the canonical spinor values R."""
    return float(np.max(np.abs(_SPINORS.conj().transpose(0, 2, 1) @ _SPINORS - np.eye(2))))


def spinor_equation_residual() -> float:
    """Worst residual of the seven relations between each canonical spinor value and its rotation."""
    spinors = [spinor_of(z) for z in elements()]
    return max(max(seven_equation_residuals(r, s.a, s.b)) for r, s in zip(_CAL_U, spinors))


def projective_check(convention: SignConvention = SignConvention.CANONICAL) -> dict:
    """Worst residual of R(YZ) = +-R(Y)R(Z) over all pairs, and the sign cocycle."""
    mats = _spinors(convention)
    prod, target = mats[:, None] @ mats[None, :], mats[PRODUCT_INDEX]
    d_plus, d_minus = (np.max(np.abs(d), axis=(-2, -1)) for d in (prod - target, prod + target))
    labels = [z.label for z in elements()]
    signs = np.where(d_plus <= d_minus, 1, -1).ravel().tolist()
    cocycle = dict(zip(itertools.product(labels, repeat=2), signs))
    worst = float(np.max(np.minimum(d_plus, d_minus)))
    return {"convention": convention.value, "worst_residual": worst, "cocycle": cocycle}


def printed_spinor_report() -> list[dict]:
    """Per-element comparison of the computed spinor values with the listing."""
    rows = zip(elements(), _PRINTED_VALID.tolist(), _PRINTED_DIFF.tolist(), _PRINTED_SIGNS.tolist())
    return [
        {
            "label": z.label,
            "printed_valid_form": valid,
            "matches_up_to_sign": diff < _PRINTED_TOL,
            "max_abs_diff": diff,
            "printed_sign": sign,
        }
        for z, valid, diff, sign in rows
    ]


def eigenvalue_set_defect() -> float:
    """Worst distance of any eigenvalue from the six allowed values."""
    vals, _ = np.linalg.eig(_CAL_U)
    return float(np.max(np.abs(vals[..., None] - np.array(ALLOWED_EIGENVALUES)).min(axis=-1)))


def eigen_transport_check() -> float:
    """Worst eigen-equation residual of the published 3-cycle eigenvectors, before
    and after the basis change."""
    z = element("A")
    worst = 0.0
    for lam, coords in paperdata.EIGEN_EXAMPLE_A:
        u = np.array(coords, dtype=complex)
        zu = np.array(z.matrix, dtype=float) @ u
        worst = max(worst, float(np.max(np.abs(zu - lam * u))))
        v = _UINV @ u
        worst = max(worst, float(np.max(np.abs(cal_u(z) @ v - lam * v))))
    return worst
