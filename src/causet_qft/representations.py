"""Unitary and spinor representations of the lattice symmetry group.

The 3-dimensional representation is the conjugation of the integer matrices
into Cartesian coordinates, where they become rotations.  The 2-dimensional
spinor values are recovered per element from the standard quadratic
relations between a rotation matrix and its SU(2) preimages; the preimage
is only defined up to a global sign, so a deterministic representative is
chosen (see ``SignConvention``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import paperdata
from .symmetry import GroupElement, elements, multiply

__all__ = [
    "Unitary3",
    "Spinor2",
    "SignConvention",
    "ALLOWED_EIGENVALUES",
    "basis_change",
    "cal_u",
    "eigensystem",
    "generator_log",
    "spinor_of",
    "seven_equation_residuals",
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


@dataclass(frozen=True)
class Unitary3:
    """Value of the 3d unitary representation at one group element."""

    label: str
    matrix: np.ndarray

    def unitarity_defect(self) -> float:
        m = self.matrix
        return float(np.max(np.abs(m.conj().T @ m - np.eye(3))))


_U, _UINV = basis_change()
_CAL_U = {
    z.label: _UINV @ np.array(z.matrix, dtype=float) @ _U for z in elements()
}


def cal_u(z: GroupElement) -> Unitary3:
    """Rotation matrix of ``z`` in Cartesian coordinates."""
    return Unitary3(z.label, _CAL_U[z.label].copy())


def _principal_angle(lam: complex) -> float:
    theta = cmath.phase(lam)
    if theta <= -math.pi + 1e-12:
        theta += 2.0 * math.pi
    return theta


def eigensystem(z: GroupElement) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (sorted by principal argument) and eigenvectors of cal_u(z)."""
    vals, vecs = np.linalg.eig(_CAL_U[z.label])
    order = sorted(range(3), key=lambda i: (_principal_angle(vals[i]), i))
    return vals[order], vecs[:, order]


def generator_log(z: GroupElement) -> np.ndarray:
    """Self-adjoint generator H with exp(iH) = cal_u(z), spectrum in (-pi, pi].

    The rotation matrices are normal with well-separated eigenvalue clusters,
    so eigenvectors are orthonormalized cluster by cluster before assembling
    the spectral sum.
    """
    m = _CAL_U[z.label]
    vals, vecs = np.linalg.eig(m)
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
        worst = max(worst, float(np.max(np.abs(exp_h - _CAL_U[z.label]))))
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
    convention: SignConvention

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.a, self.b], [-self.b.conjugate(), self.a.conjugate()]]
        )

    def negated(self) -> "Spinor2":
        return Spinor2(self.label, -self.a, -self.b, self.convention)


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


def _printed_matrix(label: str) -> np.ndarray:
    return np.array(paperdata.SPINOR_PRINTED[label])


# A printed spinor matrix counts as a valid form, or as a match, within this.
_PRINTED_TOL = 1e-9


def _valid_su2_form(p: np.ndarray) -> bool:
    """Unitary with determinant 1, of the form [[a, b], [-conj(b), conj(a)]]."""
    return bool(
        np.max(np.abs(p.conj().T @ p - np.eye(2))) < _PRINTED_TOL
        and abs(np.linalg.det(p) - 1.0) < _PRINTED_TOL
        and abs(p[1, 1] - p[0, 0].conjugate()) < _PRINTED_TOL
        and abs(p[1, 0] + p[0, 1].conjugate()) < _PRINTED_TOL
    )


_SPINOR_CANONICAL: dict[str, Spinor2] = {}
for _z in elements():
    _a, _b = _canonicalize(*_solve_spinor(_CAL_U[_z.label]))
    _SPINOR_CANONICAL[_z.label] = Spinor2(_z.label, _a, _b, SignConvention.CANONICAL)


def _printed_sign(label: str) -> int:
    """+1/-1 if the published representative is the +/- canonical one, 0 if corrupt."""
    canonical = _SPINOR_CANONICAL[label].matrix
    p = _printed_matrix(label)
    d_plus, d_minus = np.max(np.abs(p - canonical)), np.max(np.abs(p + canonical))
    if not _valid_su2_form(p) or min(d_plus, d_minus) >= _PRINTED_TOL:
        return 0
    return 1 if d_plus < d_minus else -1


_PRINTED_SIGNS = {z.label: _printed_sign(z.label) for z in elements()}


def spinor_of(z: GroupElement, convention: SignConvention = SignConvention.CANONICAL) -> Spinor2:
    """Spinor value of ``z`` under the requested sign convention."""
    s = _SPINOR_CANONICAL[z.label]
    if convention is SignConvention.CANONICAL:
        return s
    sign = _PRINTED_SIGNS[z.label]
    out = s if sign >= 0 else s.negated()
    return Spinor2(out.label, out.a, out.b, SignConvention.PRINTED)


def spinor_unitarity_defect() -> float:
    """Worst |R^H R - I| entry over the canonical spinor values R."""
    mats = [s.matrix for s in _SPINOR_CANONICAL.values()]
    return max(float(np.max(np.abs(m.conj().T @ m - np.eye(2)))) for m in mats)


def spinor_equation_residual() -> float:
    """Worst residual of the seven relations between each canonical spinor value and its rotation."""
    return max(max(seven_equation_residuals(_CAL_U[s.label], s.a, s.b)) for s in _SPINOR_CANONICAL.values())


def projective_check(convention: SignConvention = SignConvention.CANONICAL) -> dict:
    """Worst residual of R(YZ) = +-R(Y)R(Z) over all pairs, and the sign cocycle."""
    mats = {z.label: spinor_of(z, convention).matrix for z in elements()}
    cocycle: dict[tuple[str, str], int] = {}
    worst = 0.0
    for y in elements():
        for z in elements():
            yz = multiply(y, z)
            prod = mats[y.label] @ mats[z.label]
            d_plus = float(np.max(np.abs(prod - mats[yz.label])))
            d_minus = float(np.max(np.abs(prod + mats[yz.label])))
            worst = max(worst, min(d_plus, d_minus))
            cocycle[(y.label, z.label)] = 1 if d_plus <= d_minus else -1
    return {"convention": convention.value, "worst_residual": worst, "cocycle": cocycle}


def printed_spinor_report() -> list[dict]:
    """Per-element comparison of the computed spinor values with the listing."""
    out = []
    for z in elements():
        canonical = _SPINOR_CANONICAL[z.label].matrix
        p = _printed_matrix(z.label)
        diff = float(min(np.max(np.abs(p - canonical)), np.max(np.abs(p + canonical))))
        out.append(
            {
                "label": z.label,
                "printed_valid_form": _valid_su2_form(p),
                "matches_up_to_sign": diff < _PRINTED_TOL,
                "max_abs_diff": diff,
                "printed_sign": _PRINTED_SIGNS[z.label],
            }
        )
    return out


def homomorphism_defect() -> float:
    """Worst | calU(YZ) - calU(Y) calU(Z) | over all 576 pairs."""
    worst = 0.0
    for y in elements():
        for z in elements():
            yz = multiply(y, z)
            worst = max(
                worst,
                float(np.max(np.abs(_CAL_U[yz.label] - _CAL_U[y.label] @ _CAL_U[z.label]))),
            )
    return worst


def eigenvalue_set_defect() -> float:
    """Worst distance of any eigenvalue from the six allowed values."""
    worst = 0.0
    for z in elements():
        vals, _ = eigensystem(z)
        for lam in vals:
            worst = max(worst, min(abs(lam - mu) for mu in ALLOWED_EIGENVALUES))
    return worst


def eigen_transport_check() -> float:
    """Worst eigen-equation residual of the published 3-cycle eigenvectors, before
    and after the basis change."""
    z = next(e for e in elements() if e.label == "A")
    worst = 0.0
    for lam, coords in paperdata.EIGEN_EXAMPLE_A:
        u = np.array(coords, dtype=complex)
        zu = np.array(z.matrix, dtype=float) @ u
        worst = max(worst, float(np.max(np.abs(zu - lam * u))))
        v = _UINV @ u
        worst = max(worst, float(np.max(np.abs(_CAL_U["A"] @ v - lam * v))))
    return worst
