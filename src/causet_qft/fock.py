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
from functools import cached_property
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

    @property
    def dim(self) -> int:
        return len(self.multisets)


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

    @cached_property
    def multiset_arrays(self) -> tuple[np.ndarray, ...]:
        """Sector n's sorted multisets as a (sector dim, n) int array, in basis order."""
        return tuple(np.array(s.multisets, dtype=np.int64).reshape(s.dim, s.n) for s in self.sectors)

    def rank(self, n: int, multisets: np.ndarray) -> np.ndarray:
        """Full-space indices of the sorted rows of an (m, n) array of sector-n multisets."""
        # the basis is in lexicographic order, so the base-d keys of its rows ascend
        radix = len(self.hyperboloid) ** np.arange(n - 1, -1, -1, dtype=np.int64)
        return self.offsets[n] + np.searchsorted(self.multiset_arrays[n] @ radix, multisets @ radix)

    @cached_property
    def ladder_maps(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per-point ladder maps by field role, each ``(target, weight)`` of shape (d, dim).

        Lowering point q ("annihilates") sends column c to row ``target[q, c]``
        (-1 when the multiset holds no q) with amplitude ``weight[q, c]``, the
        square root of the count of q.  Raising ("creates") is the inverse map
        with the same weights; the image of the top sector is dropped.
        """
        low = np.full((len(self.hyperboloid), self.dim), -1, dtype=np.int64)
        low_w = np.zeros(low.shape)
        for n in range(1, self.n_max + 1):
            ms = self.multiset_arrays[n]
            cols = np.arange(self.offsets[n], self.offsets[n + 1])
            for pos in range(n):  # dropping any copy of a point leaves the same multiset
                low[ms[:, pos], cols] = self.rank(n - 1, np.delete(ms, pos, axis=1))
                low_w[ms[:, pos], cols] = np.sqrt((ms == ms[:, pos, None]).sum(axis=1))
        up, up_w = np.full_like(low, -1), np.zeros_like(low_w)
        q, c = np.nonzero(low >= 0)
        up[q, low[q, c]], up_w[q, low[q, c]] = c, low_w[q, c]
        return {"annihilates": (low, low_w), "creates": (up, up_w)}


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


@dataclass(frozen=True)
class FieldOperator:
    """Phase combination of per-point ladder maps, with full-matrix view.

    ``coeffs[q]`` multiplies the lowering (or raising) map of the q-th
    hyperboloid point; annihilators carry e^{-ip.x}, creators e^{+ip.x}.
    """

    fock: FockSpace
    point: Vec4
    role: str  # "annihilates" or "creates"
    coeffs: tuple[complex, ...]

    def _entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) of the matrix; each entry comes from one point."""
        target, weight = self.fock.ladder_maps[self.role]
        q, cols = np.nonzero(target >= 0)
        # 0.0 + turns a -0.0 part into +0.0, as summing ladder matrices does
        return target[q, cols], cols, 0.0 + np.asarray(self.coeffs)[q] * weight[q, cols]

    def as_matrix(self) -> np.ndarray:
        rows, cols, vals = self._entries()
        out = np.zeros((self.fock.dim, self.fock.dim), dtype=complex)
        out[rows, cols] = vals
        return out

    def apply(self, vec: np.ndarray) -> np.ndarray:
        rows, cols, vals = self._entries()
        out = np.zeros(self.fock.dim, dtype=complex)
        np.add.at(out, rows, vals * vec[cols])
        return out

    def triplets(self) -> list[tuple[int, int, float, float]]:
        """(row, col, re, im) entries of the full matrix in row-major order, for export."""
        rows, cols, vals = self._entries()
        order = np.lexsort((cols, rows))
        v = vals[order]
        return list(zip(rows[order].tolist(), cols[order].tolist(), v.real.tolist(), v.imag.tolist()))


def phi(x: Vec4, fock: FockSpace) -> FieldOperator:
    """Annihilation field: sector n+1 -> n with amplitude sqrt(count) e^{-ip.x}.

    The zero-particle sector is annihilated to zero: there is no block out of
    sector 0.
    """
    coeffs = tuple(phase(p, x).conjugate() for p in fock.hyperboloid.points)
    return FieldOperator(fock=fock, point=x, role="annihilates", coeffs=coeffs)


def psi(x: Vec4, fock: FockSpace) -> FieldOperator:
    """Creation field: sector n -> n+1 with amplitude sqrt(count+1) e^{ip.x}.

    The raising maps invert the lowering maps with the same square-root
    amplitudes, so the adjoint relation to :func:`phi` is a checkable fact
    about the phase coefficients.  The image of the top
    sector is dropped by the truncation.
    """
    coeffs = tuple(phase(p, x) for p in fock.hyperboloid.points)
    return FieldOperator(fock=fock, point=x, role="creates", coeffs=coeffs)


def xi_matrix(x: Vec4, fock: FockSpace) -> np.ndarray:
    """Self-adjoint field phi(x) + psi(x) as a full matrix."""
    return phi(x, fock).as_matrix() + psi(x, fock).as_matrix()


def commutator(a: FieldOperator, b: FieldOperator) -> np.ndarray:
    """[a, b] on the full space, expanded bilinearly over point pairs (q, r).

    X_q Y_r and Y_r X_q each take a column along one two-step path at most,
    to the same multiset where both are defined, so a bracket entry is one
    float product minus the other; for ladders of equal role these are the
    same factors, so same-species commutators cancel to exact zeros.  Terms
    add up in (q, r) order.  Cost O(d^2 dim) for d points, temporaries (d, dim).
    """
    if a.fock is not b.fock and a.fock != b.fock:
        raise ValueError("operators live on different Fock spaces")
    dim = a.fock.dim
    (xt, xw), (yt, yw) = a.fock.ladder_maps[a.role], b.fock.ladder_maps[b.role]
    out = np.zeros(dim * dim, dtype=complex)
    for q, ca in enumerate(a.coeffs):
        # rows [r, c] of X_q Y_r and Y_r X_q applied to column c, -1 where undefined
        xy_row = np.where(yt >= 0, xt[q, yt], -1)
        yx_row = np.where(xt[q] >= 0, yt[:, xt[q]], -1)
        xy = np.where(xy_row >= 0, xw[q, yt] * yw, 0.0)
        bracket = xy - np.where(yx_row >= 0, yw[:, xt[q]] * xw[q], 0.0)
        rows = np.maximum(xy_row, yx_row)
        hit = (rows >= 0) & (bracket != 0)
        terms = np.array([ca * cb for cb in b.coeffs])[:, None] * bracket
        np.add.at(out, (rows * dim + np.arange(dim))[hit], terms[hit])
    return out.reshape(dim, dim)


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
    if fock.n_max < 1:
        raise ValueError("xi commutator needs n_max >= 1: no sector is truncation-safe at n_max 0")
    expected = 2j * sine_sum(fock.hyperboloid, x, y)
    measured = restrict(fock, matrix_commutator(xi_matrix(x, fock), xi_matrix(y, fock)))
    defect = np.max(np.abs(measured - expected * np.eye(measured.shape[0])))
    if defect > tol:
        raise AssertionError(f"xi commutator defect {defect} exceeds {tol}")
    return complex(expected)


def rep_v(y: Vec4, rot: GroupElement, fock: FockSpace) -> tuple[np.ndarray, np.ndarray]:
    """Unitary symmetry action as ``(perm, amp)``, the monomial V[perm[c], c] = amp[c]:
    the rotation permutes each multiset's points (so V is block-diagonal over sectors)
    and the translation multiplies in the phases of the mapped points."""
    h = fock.hyperboloid
    point_perm = np.array(h.permutation_under(rot), dtype=np.int64)
    point_phases = np.array([phase(p, y) for p in h.points])
    perm = np.empty(fock.dim, dtype=np.int64)
    amp = np.ones(fock.dim, dtype=complex)
    for n, ms in enumerate(fock.multiset_arrays):
        mapped = np.sort(point_perm[ms], axis=1)
        block = fock.sector_slice(n)
        perm[block] = fock.rank(n, mapped)
        for points in mapped.T:
            amp[block] *= point_phases[points]
    return perm, amp


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
    return math.sqrt(_weight(tuple(point_indices))) * basis_unit(fock, point_indices)


def basis_unit(fock: FockSpace, point_indices: tuple[int, ...]) -> np.ndarray:
    """Unit vector of the orthonormal basis at the given multiset."""
    if not all(0 <= i < len(fock.hyperboloid) for i in point_indices):
        raise ValueError(f"point indices {tuple(point_indices)} are not all on the hyperboloid")
    vec = np.zeros(fock.dim, dtype=complex)
    vec[fock.rank(len(point_indices), np.sort([point_indices], axis=1))] = 1.0
    return vec


def vacuum(fock: FockSpace) -> np.ndarray:
    return basis_unit(fock, ())
