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

Sector n's basis is an array of sorted multisets, one row per basis vector;
the phases of all points at x are one expression over the point rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .lattice import MINKOWSKI_GRAM, Vec4, minkowski_doubled, rank_rows
from .momentum import Hyperboloid, poincare_product
from .representations import SignConvention, cal_u, spinor_of
from .symmetry import GroupElement, inverse

__all__ = [
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
    "adjoint_defect",
    "same_species_commutator_max",
    "phase_sum_defect",
    "xi_commutator_defect",
    "rep_v",
    "rep_v_defects",
    "spin_rep",
    "momentum_operators",
    "multiset_indicator",
    "basis_unit",
    "vacuum",
]


def _weight(multiset: tuple[int, ...]) -> int:
    w = math.factorial(len(multiset))
    for k in set(multiset):
        w //= math.factorial(multiset.count(k))
    return w


@dataclass(frozen=True)
class FockSpace:
    """Direct sum of sectors 0..n_max over a truncated hyperboloid."""

    hyperboloid: Hyperboloid
    n_max: int

    @cached_property
    def multiset_arrays(self) -> tuple[np.ndarray, ...]:
        """Sector n's basis: its sorted multisets as the rows of a (sector dim, n) int
        array, in lexicographic order."""
        points = range(len(self.hyperboloid))
        sectors = [list(itertools.combinations_with_replacement(points, n)) for n in range(self.n_max + 1)]
        return tuple(np.array(rows, dtype=np.int64).reshape(len(rows), n) for n, rows in enumerate(sectors))

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Sector n is the index range ``offsets[n]:offsets[n + 1]``."""
        return tuple(itertools.accumulate(map(len, self.multiset_arrays), initial=0))

    @property
    def dim(self) -> int:
        return self.offsets[-1]

    def sector_slice(self, n: int) -> slice:
        return slice(self.offsets[n], self.offsets[n + 1])

    def safe_sector_end(self) -> int:
        """Offset ending the sectors on which commutator identities are exact."""
        return self.offsets[self.n_max]

    def rank(self, n: int, multisets: np.ndarray) -> np.ndarray:
        """Full-space indices of the sorted rows of an (m, n) array of sector-n multisets."""
        return self.offsets[n] + rank_rows(self.multiset_arrays[n], multisets)

    @cached_property
    def _sector_permutations(self) -> dict[GroupElement, np.ndarray]:
        return {}

    def sector_permutation(self, rot: GroupElement) -> np.ndarray:
        """Full-space index of each basis multiset's image under the rotation, cached per
        rotation and read-only; raises if the point set is not closed under it."""
        perm = self._sector_permutations.get(rot)
        if perm is None:
            point_perm = self.hyperboloid.permutation_under(rot)
            perm = np.empty(self.dim, dtype=np.int64)
            for n, ms in enumerate(self.multiset_arrays):
                perm[self.sector_slice(n)] = self.rank(n, np.sort(point_perm[ms], axis=1))
            perm.flags.writeable = False
            self._sector_permutations[rot] = perm
        return perm

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
    return FockSpace(hyperboloid=h, n_max=n_max)


def phase(p: Vec4, x: Vec4) -> complex:
    """exp(i p.x) evaluated from the doubled integer pairing."""
    return complex(np.exp(0.5j * minkowski_doubled(p, x)))


def _phases(h: Hyperboloid, x: Vec4) -> np.ndarray:
    """exp(i p.x) for every point p of h, in point order: :func:`phase` on the rows."""
    return np.exp(0.5j * (h.coords @ MINKOWSKI_GRAM @ np.array(x.coords())))


def phase_sum(h: Hyperboloid, x: Vec4, y: Vec4) -> complex:
    """Independent oracle for the commutator scalar: sum of exp(i p.(y-x)), in point order."""
    return sum(_phases(h, y - x).tolist())


def sine_sum(h: Hyperboloid, x: Vec4, y: Vec4) -> float:
    """Sum of sin(p.(y-x)) over the points, in point order: exp of a purely imaginary
    argument has sin(p.(y-x)) as its imaginary part exactly."""
    return sum(_phases(h, y - x).imag.tolist())


@dataclass(frozen=True)
class FieldOperator:
    """Phase combination of per-point ladder maps, with full-matrix view.

    ``coeffs[q]`` multiplies the lowering (or raising) map of the q-th
    hyperboloid point; annihilators carry e^{-ip.x}, creators e^{+ip.x}.
    """

    fock: FockSpace
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
    coeffs = tuple(np.conj(_phases(fock.hyperboloid, x)).tolist())
    return FieldOperator(fock=fock, role="annihilates", coeffs=coeffs)


def psi(x: Vec4, fock: FockSpace) -> FieldOperator:
    """Creation field: sector n -> n+1 with amplitude sqrt(count+1) e^{ip.x}.

    The raising maps invert the lowering maps with the same square-root
    amplitudes, so the adjoint relation to :func:`phi` is a checkable fact
    about the phase coefficients.  The image of the top
    sector is dropped by the truncation.
    """
    coeffs = tuple(_phases(fock.hyperboloid, x).tolist())
    return FieldOperator(fock=fock, role="creates", coeffs=coeffs)


def xi_matrix(x: Vec4, fock: FockSpace) -> np.ndarray:
    """Self-adjoint field phi(x) + psi(x) as a full matrix: psi's entries are written
    into phi's, since phi lowers and psi raises the sector and no position holds both."""
    out = phi(x, fock).as_matrix()
    rows, cols, vals = psi(x, fock)._entries()
    out[rows, cols] = vals
    return out


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


def _identity_defect(fock: FockSpace, m: np.ndarray, scalar: complex) -> float:
    """Largest |entry| of m - scalar * I on the truncation-safe sectors."""
    if fock.n_max < 1:
        raise ValueError("identity check needs n_max >= 1: no sector is truncation-safe at n_max 0")
    safe = restrict(fock, m)
    return float(np.max(np.abs(safe - scalar * np.eye(safe.shape[0]))))


def adjoint_defect(fock: FockSpace, points) -> float:
    """Worst |psi(x) - phi(x)^H| entry over the points x, read off the ladder maps.

    Lowering q takes column c to row r; psi(x)'s entry at (c, r) is the raising
    entry (q, r) when that one leads back to c, and it is compared with the
    conjugated phi(x) entry.  A lowering entry without that raising partner, or
    a raising entry without its lowering one, counts at its full magnitude, as
    it does in the dense difference.  Cost O(d dim) per point.
    """
    (low, low_w), (up, up_w) = fock.ladder_maps["annihilates"], fock.ladder_maps["creates"]
    q, c = np.nonzero(low >= 0)
    r = low[q, c]
    paired = up[q, r] == c
    q_up, r_up = np.nonzero(up >= 0)
    orphans = low[q_up, up[q_up, r_up]] != r_up

    def worst(x: Vec4) -> float:
        a, b = np.asarray(phi(x, fock).coeffs), np.asarray(psi(x, fock).coeffs)
        # the values _entries gives the two matrices
        lowered = 0.0 + a[q] * low_w[q, c]
        raised = 0.0 + b[q] * up_w[q, r]
        diff = np.where(paired, np.abs(raised - np.conj(lowered)), np.abs(lowered))
        orphan = np.abs(0.0 + b[q_up[orphans]] * up_w[q_up[orphans], r_up[orphans]])
        return max(float(np.max(diff, initial=0.0)), float(np.max(orphan, initial=0.0)))

    return max(worst(x) for x in points)


def same_species_commutator_max(fock: FockSpace, x: Vec4, y: Vec4) -> tuple[float, float]:
    """Largest |entry| of [phi(x), phi(y)] and of [psi(x), psi(y)]; both are exact zeros."""
    return tuple(
        float(np.max(np.abs(commutator(field(x, fock), field(y, fock))))) for field in (phi, psi)
    )


def phase_sum_defect(fock: FockSpace, pairs) -> float:
    """Worst deviation of [phi(x), psi(y)] from phase_sum(x, y) I over the pairs (x, y)."""
    return max(
        _identity_defect(fock, commutator(phi(x, fock), psi(y, fock)), phase_sum(fock.hyperboloid, x, y))
        for x, y in pairs
    )


def xi_commutator_defect(fock: FockSpace, pairs) -> float:
    """Worst deviation of [xi(x), xi(y)] from 2i sine_sum(x, y) I over the pairs (x, y),
    from dense products: a cross-check of ``as_matrix`` against :func:`commutator`."""
    return max(
        _identity_defect(
            fock,
            matrix_commutator(xi_matrix(x, fock), xi_matrix(y, fock)),
            2j * sine_sum(fock.hyperboloid, x, y),
        )
        for x, y in pairs
    )


def rep_v(y: Vec4, rot: GroupElement, fock: FockSpace) -> tuple[np.ndarray, np.ndarray]:
    """Unitary symmetry action as ``(perm, amp)``, the monomial V[perm[c], c] = amp[c]:
    the rotation permutes each multiset's points (so V is block-diagonal over sectors)
    and the translation multiplies in the phases of the mapped points."""
    perm = fock.sector_permutation(rot)
    point_phases = _phases(fock.hyperboloid, y)
    amp = np.ones(fock.dim, dtype=complex)
    for n, ms in enumerate(fock.multiset_arrays):
        block = fock.sector_slice(n)
        for points in ms[perm[block] - fock.offsets[n]].T:  # the image multisets' points
            amp[block] *= point_phases[points]
    return perm, amp


def rep_v_defects(fock: FockSpace, pairs) -> tuple[float, float, bool]:
    """Over pairs (g1, g2) of Poincare elements: the worst unitarity defect of V(g1), the
    worst |V(g1) V(g2) - V(g1 g2)| entry, and whether every V(g1) is block-diagonal.

    V^H V is diag |amp|^2 plus |amp|^2-sized entries where columns share a row; V1 V2 is
    (perm1[perm2], amp1[perm2] amp2), and a differing support counts as a defect."""
    unitarity = hom = 0.0
    block_diagonal = True
    sector_of = np.repeat(np.arange(fock.n_max + 1), np.diff(fock.offsets))
    for g1, g2 in pairs:
        (p1, a1), (p2, a2), (p12, a12) = (
            rep_v(g.translation, g.rotation, fock) for g in (g1, g2, poincare_product(g1, g2))
        )
        shared = np.bincount(p1, minlength=fock.dim)[p1] > 1
        off_diagonal = float(np.max(np.abs(a1[shared]), initial=0.0)) ** 2
        unitarity = max(unitarity, off_diagonal, float(np.max(np.abs((a1.conj() * a1).real - 1.0))))
        prod = a1[p2] * a2
        defect = np.where(p1[p2] == p12, np.abs(prod - a12), np.maximum(np.abs(prod), np.abs(a12)))
        hom = max(hom, float(np.max(defect)))
        block_diagonal = block_diagonal and bool(np.all(sector_of[p1] == sector_of))
    return unitarity, hom, block_diagonal


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
    single[perm, np.arange(len(h))] = _phases(h, y)[perm]
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
    return tuple(np.diag(column) for column in fock.hyperboloid.coords.T)


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
