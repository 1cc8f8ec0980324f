"""Truncated bosonic Fock space over a mass hyperboloid and its field operators.

Sectors are indexed by multisets of hyperboloid points.  Internally every
vector is stored on the *orthonormal* sector basis (multiset indicators
divided by the square root of their arrangement count), which turns the
symmetric-function inner product into the plain complex dot product and
makes the creation operator the literal conjugate transpose of the
annihilation operator.  Multiset indicators with their multiplicity weights
are still available via :func:`multiset_indicator`.

Truncation conventions: the hyperboloid is energy-capped, the particle
number is capped at ``n_max``, and the creation image of the top sector is
dropped.  Operator identities are therefore exact on the sector ranges
where the truncation cannot leak, and the helpers expose those ranges
explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from .lattice import Vec4, minkowski_doubled, norm_sq3
from .momentum import Hyperboloid
from .representations import SignConvention, cal_u, spinor_of
from .symmetry import GroupElement, inverse

__all__ = [
    "SectorBasis",
    "FockSpace",
    "FieldOperator",
    "fock_space",
    "phase",
    "phase_sum",
    "sine_sum",
    "phi",
    "psi",
    "xi_matrix",
    "commutator",
    "matrix_commutator",
    "restrict",
    "xi_commutator",
    "rep_v",
    "spin_rep",
    "momentum_operators",
    "mass_shell_defect",
    "multiset_indicator",
    "basis_unit",
    "vacuum",
]


@dataclass(frozen=True)
class SectorBasis:
    """Basis of the n-particle sector: sorted index multisets with weights."""

    n: int
    multisets: tuple[tuple[int, ...], ...]
    weights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "_index", {m: i for i, m in enumerate(self.multisets)})

    @property
    def dim(self) -> int:
        return len(self.multisets)

    def index(self, multiset: tuple[int, ...]) -> int:
        return self._index[tuple(sorted(multiset))]


def _weight(multiset: tuple[int, ...]) -> int:
    w = math.factorial(len(multiset))
    for k in set(multiset):
        w //= math.factorial(multiset.count(k))
    return w


def _sector(d: int, n: int) -> SectorBasis:
    multisets = tuple(combinations_with_replacement(range(d), n))
    return SectorBasis(n=n, multisets=multisets, weights=tuple(_weight(m) for m in multisets))


@dataclass(frozen=True)
class FockSpace:
    """Direct sum of sectors 0..n_max over a truncated hyperboloid."""

    hyperboloid: Hyperboloid
    n_max: int
    sectors: tuple[SectorBasis, ...]
    offsets: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.offsets[-1]

    def sector_slice(self, n: int) -> slice:
        return slice(self.offsets[n], self.offsets[n + 1])

    def safe_sector_end(self) -> int:
        """Offset ending the sectors on which commutator identities are exact."""
        return self.offsets[self.n_max]


def fock_space(h: Hyperboloid, n_max: int) -> FockSpace:
    if n_max < 0:
        raise ValueError("particle cap must be nonnegative")
    if len(h) == 0:
        raise ValueError("hyperboloid is empty at this truncation")
    sectors = tuple(_sector(len(h), n) for n in range(n_max + 1))
    offsets = [0]
    for s in sectors:
        offsets.append(offsets[-1] + s.dim)
    return FockSpace(hyperboloid=h, n_max=n_max, sectors=sectors, offsets=tuple(offsets))


def phase(p: Vec4, x: Vec4) -> complex:
    """exp(i p.x) evaluated from the doubled integer pairing."""
    return complex(np.exp(0.5j * minkowski_doubled(p, x)))


def phase_sum(h: Hyperboloid, x: Vec4, y: Vec4) -> complex:
    """Independent oracle for the commutator scalar: sum of exp(i p.(y-x)))."""
    return sum(phase(p, y - x) for p in h.points)


def sine_sum(h: Hyperboloid, x: Vec4, y: Vec4) -> float:
    return sum(math.sin(0.5 * minkowski_doubled(p, y - x)) for p in h.points)


def _lowering_full(fock: FockSpace) -> tuple[np.ndarray, ...]:
    """Per-point real lowering matrices on the full space (cached on the space).

    Entry sqrt(count of the point in the source multiset) connects a multiset
    to the multiset with one copy removed.  Every field operator is a phase
    combination of these, and the bilinear expansion over point pairs is what
    makes structural commutator cancellations exact in floating point.
    """
    cached = getattr(fock, "_lowering_full", None)
    if cached is not None:
        return cached
    d = len(fock.hyperboloid)
    mats = [np.zeros((fock.dim, fock.dim)) for _ in range(d)]
    for n in range(fock.n_max):
        src, dst = fock.sectors[n + 1], fock.sectors[n]
        src_base, dst_base = fock.offsets[n + 1], fock.offsets[n]
        for col, mu in enumerate(src.multisets):
            for k in set(mu):
                removed = list(mu)
                removed.remove(k)
                row = dst.index(tuple(removed))
                mats[k][dst_base + row, src_base + col] = math.sqrt(mu.count(k))
    result = tuple(mats)
    object.__setattr__(fock, "_lowering_full", result)
    return result


@dataclass(frozen=True)
class FieldOperator:
    """Phase combination of per-point ladder matrices, with full-matrix view.

    ``coeffs[q]`` multiplies the lowering (or raising) matrix of the q-th
    hyperboloid point; annihilators carry e^{-ip.x}, creators e^{+ip.x}.
    """

    fock: FockSpace
    point: Vec4
    role: str  # "annihilates" or "creates"
    coeffs: tuple[complex, ...]

    def _ladder(self, q: int) -> np.ndarray:
        low = _lowering_full(self.fock)[q]
        return low if self.role == "annihilates" else low.T

    def as_matrix(self) -> np.ndarray:
        out = np.zeros((self.fock.dim, self.fock.dim), dtype=complex)
        for q, c in enumerate(self.coeffs):
            out += c * self._ladder(q)
        return out

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.as_matrix() @ vec

    def triplets(self) -> list[tuple[int, int, float, float]]:
        """(row, col, re, im) entries of the full matrix, for export."""
        m = self.as_matrix()
        rows, cols = np.nonzero(m)
        return [(int(r), int(c), float(m[r, c].real), float(m[r, c].imag)) for r, c in zip(rows, cols)]


def phi(x: Vec4, fock: FockSpace) -> FieldOperator:
    """Annihilation field: sector n+1 -> n with amplitude sqrt(count) e^{-ip.x}.

    The zero-particle sector is annihilated to zero: there is no block out of
    sector 0.
    """
    coeffs = tuple(phase(p, x).conjugate() for p in fock.hyperboloid.points)
    return FieldOperator(fock=fock, point=x, role="annihilates", coeffs=coeffs)


def psi(x: Vec4, fock: FockSpace) -> FieldOperator:
    """Creation field: sector n -> n+1 with amplitude sqrt(count+1) e^{ip.x}.

    The raising matrices are the transposes of the real lowering matrices
    (same square-root amplitudes), so the adjoint relation to :func:`phi` is
    a checkable fact about the phase coefficients.  The image of the top
    sector is dropped by the truncation.
    """
    coeffs = tuple(phase(p, x) for p in fock.hyperboloid.points)
    return FieldOperator(fock=fock, point=x, role="creates", coeffs=coeffs)


def xi_matrix(x: Vec4, fock: FockSpace) -> np.ndarray:
    """Self-adjoint field phi(x) + psi(x) as a full matrix."""
    return phi(x, fock).as_matrix() + psi(x, fock).as_matrix()


def commutator(a: FieldOperator, b: FieldOperator) -> np.ndarray:
    """[a, b] on the full space, expanded bilinearly over point pairs.

    Ladder matrices of equal role commute entry-for-entry in exact float
    arithmetic (every two-step path between multisets is unique), so
    same-species commutators cancel to exact zeros rather than roundoff.
    """
    if a.fock is not b.fock and a.fock != b.fock:
        raise ValueError("operators live on different Fock spaces")
    d = len(a.fock.hyperboloid)
    out = np.zeros((a.fock.dim, a.fock.dim), dtype=complex)
    for q in range(d):
        la = a._ladder(q)
        for r in range(d):
            lb = b._ladder(r)
            bracket = la @ lb - lb @ la
            if bracket.any():
                out += (a.coeffs[q] * b.coeffs[r]) * bracket
    return out


def matrix_commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """AB - BA of two dense matrices."""
    return a @ b - b @ a


def restrict(fock: FockSpace, m: np.ndarray) -> np.ndarray:
    """Top-left block of a full-space matrix covering the truncation-safe sectors."""
    end = fock.safe_sector_end()
    return m[:end, :end]


def xi_commutator(x: Vec4, y: Vec4, fock: FockSpace, tol: float = 1e-10) -> complex:
    """Scalar c with [xi(x), xi(y)] = c I on the truncation-safe sectors.

    Verifies the measured commutator against 2i * sum of sines before
    returning; raises if the identity fails beyond ``tol``.
    """
    expected = 2j * sine_sum(fock.hyperboloid, x, y)
    measured = restrict(fock, matrix_commutator(xi_matrix(x, fock), xi_matrix(y, fock)))
    defect = np.max(np.abs(measured - expected * np.eye(measured.shape[0])))
    if defect > tol:
        raise AssertionError(f"xi commutator defect {defect} exceeds {tol}")
    return complex(expected)


def rep_v(y: Vec4, rot: GroupElement, fock: FockSpace) -> np.ndarray:
    """Unitary spacetime-symmetry action: phases from the translation, point
    permutation from the rotation, block-diagonal over sectors."""
    f = fock
    h = f.hyperboloid
    perm = h.permutation_under(rot)
    point_phases = [phase(p, y) for p in h.points]
    out = np.zeros((f.dim, f.dim), dtype=complex)
    for n, sector in enumerate(f.sectors):
        base = f.offsets[n]
        for col, mu in enumerate(sector.multisets):
            mapped = tuple(sorted(perm[i] for i in mu))
            amp = 1.0 + 0.0j
            for i in mapped:
                amp *= point_phases[i]
            row = sector.index(mapped)
            out[base + row, base + col] = amp
    return out


_SPIN_TAGS = {0: 1, Fraction(1, 2): 2, 0.5: 2, 1: 3}


def spin_rep(y: Vec4, rot: GroupElement, spin, h: Hyperboloid) -> np.ndarray:
    """Single-particle representation tensored with the spin factor.

    spin 0 gives the plain single-particle action, spin 1/2 tensors with the
    spinor value of the inverse rotation (a homomorphism only up to sign),
    spin 1 with the 3d rotation of the inverse.
    """
    if spin not in _SPIN_TAGS:
        raise ValueError(f"spin must be one of 0, 1/2, 1; got {spin!r}")
    perm = h.permutation_under(rot)
    single = np.zeros((len(h), len(h)), dtype=complex)
    for i, p in enumerate(h.points):
        single[perm[i], i] = phase(h.points[perm[i]], y)
    k = _SPIN_TAGS[spin]
    if k == 1:
        return single
    rot_inv = inverse(rot)
    factor = (
        spinor_of(rot_inv, SignConvention.CANONICAL).matrix
        if k == 2
        else cal_u(rot_inv).matrix.astype(complex)
    )
    return np.kron(single, factor)


def momentum_operators(fock: FockSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal coordinate-multiplication operators on the one-particle sector."""
    pts = fock.hyperboloid.points
    comps = [np.diag([getattr(p, c) for p in pts]).astype(np.int64) for c in ("t", "n", "p", "q")]
    return tuple(comps)


def mass_shell_defect(fock: FockSpace) -> int:
    """Exact integer residual of the mass-shell identity on the basis points.

    The spatial square is the lattice quadratic form of the three momentum
    components, so the residual is integer-valued and must vanish identically.
    """
    m2 = fock.hyperboloid.mass_sq
    worst = 0
    for p in fock.hyperboloid.points:
        worst = max(worst, abs(p.t * p.t - norm_sq3(p.spatial) - m2))
    return worst


def multiset_indicator(fock: FockSpace, point_indices: tuple[int, ...]) -> np.ndarray:
    """Multiset indicator as a full-space vector.

    Its squared norm is the number of ordered arrangements of the multiset,
    matching the ordered-tuple inner product on symmetric functions.
    """
    n = len(point_indices)
    sector = fock.sectors[n]
    i = sector.index(tuple(sorted(point_indices)))
    vec = np.zeros(fock.dim, dtype=complex)
    vec[fock.offsets[n] + i] = math.sqrt(sector.weights[i])
    return vec


def basis_unit(fock: FockSpace, point_indices: tuple[int, ...]) -> np.ndarray:
    """Unit vector of the orthonormal basis at the given multiset."""
    n = len(point_indices)
    sector = fock.sectors[n]
    vec = np.zeros(fock.dim, dtype=complex)
    vec[fock.offsets[n] + sector.index(tuple(sorted(point_indices)))] = 1.0
    return vec


def vacuum(fock: FockSpace) -> np.ndarray:
    return basis_unit(fock, ())
