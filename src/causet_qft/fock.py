"""Truncated bosonic Fock space over a mass hyperboloid and its field operators.

Sectors are indexed by multisets of hyperboloid points.  Internally every
vector is stored on the *orthonormal* sector basis (multiset indicators
divided by the square root of their arrangement count), which turns the
symmetric-function inner product into the plain complex dot product and
makes the creation operator the literal conjugate transpose of the
annihilation operator.

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
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import MINKOWSKI_GRAM, Vec4, rank_rows, require_memory
from .momentum import Hyperboloid, poincare_product
from .symmetry import GroupElement, index

__all__ = [
    "FockSpace",
    "FieldOperator",
    "fock_space",
    "require_table_memory",
    "phase_sum",
    "sine_sum",
    "phi",
    "psi",
    "xi_entries",
    "adjoint_defect",
    "same_species_commutator_max",
    "phase_sum_defect",
    "xi_defects",
    "rep_v_defects",
    "basis_unit",
    "vacuum",
]


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
    def _sector_permutations(self) -> tuple[np.ndarray, np.ndarray]:
        """Whether the point set is closed under each of the 24 rotations, in
        ``symmetry.MATRICES`` order, and their sector permutations as the rows of one
        read-only (24, dim) array, ranked in one pass per sector; the row of a rotation
        that leaves the point set is meaningless."""
        point_perms = self.hyperboloid.rotation_images
        rotations = len(point_perms)
        perms = np.empty((rotations, self.dim), dtype=np.int64)
        for n, ms in enumerate(self.multiset_arrays):
            mapped = np.sort(point_perms[:, ms], axis=2).reshape(rotations * len(ms), n)
            perms[:, self.sector_slice(n)] = self.rank(n, mapped).reshape(rotations, len(ms))
        perms.flags.writeable = False
        return (point_perms >= 0).all(axis=1), perms

    def sector_permutation(self, rot: GroupElement) -> np.ndarray:
        """Full-space index of each basis multiset's image under the rotation, read-only;
        raises if the point set is not closed under it."""
        closed, perms = self._sector_permutations
        if not closed[index(rot)]:
            self.hyperboloid.permutation_under(rot)  # raises, naming a point that leaves
        return perms[index(rot)]

    @cached_property
    def _bracket_tables(self) -> dict[tuple[str, str], tuple[np.ndarray, ...]]:
        return {}

    def bracket_table(self, role_a: str, role_b: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every nonzero entry of the ladder brackets [X_q, Y_r], X of ``role_a`` and Y of
        ``role_b``, as read-only ``(flat, q, r, bracket)`` arrays in (q, r, column) order:
        entry ``flat`` (row * dim + column) of [X_q, Y_r] is the float ``bracket``.

        X_q Y_r and Y_r X_q hold one :meth:`product_table` entry per column at most, at one
        row where both do, so an entry is one weight minus the other: the same factors for
        ladders of equal role, whose tables are empty.  Built once per role pair."""
        table = self._bracket_tables.get((role_a, role_b))
        if table is None:
            d, dim = len(self.hyperboloid), self.dim
            xy = self.product_table(role_a, role_b)
            yx = xy if role_a == role_b else self.product_table(role_b, role_a)
            # (q, r, column) keys, Y's point first in Y_r X_q's table; a key's entries share a row
            keys = np.concatenate([(xy[2] * d + xy[3]) * dim + xy[1], (yx[3] * d + yx[2]) * dim + yx[1]])
            rows, weights = np.concatenate([xy[0], yx[0]]), np.concatenate([xy[4], -yx[4]])
            del xy, yx  # frees their q, r and column arrays before the sort
            keys, first, where = np.unique(keys, return_index=True, return_inverse=True)
            bracket = np.zeros(len(keys))
            np.add.at(bracket, where, weights)
            keep = bracket != 0
            qr, cols = np.divmod(keys[keep], dim)
            table = (rows[first[keep]] * dim + cols, *np.divmod(qr, d), bracket[keep])
            for column in table:
                column.flags.writeable = False
            self._bracket_tables[(role_a, role_b)] = table
        return table

    def product_table(self, role_a: str, role_b: str) -> tuple[np.ndarray, ...]:
        """Every entry of the two-step products X_q Y_r, X of ``role_a`` and Y of ``role_b``,
        as ``(rows, cols, q, r, weight)`` arrays in (q, r, column) order: X_q Y_r sends
        column ``cols`` to row ``rows`` with amplitude ``weight``.

        Y_r takes a column along one ladder entry at most and X_q the result along one
        more, so each product holds one entry per column at most: the table is one gather
        of X's maps at the targets of Y's entries.  Built afresh on each call."""
        xt, xw = self.ladder_maps[role_a]
        r, mid, cols, yw = self.ladder_entries[role_b]
        rows = xt[:, mid]
        q, j = np.nonzero(rows >= 0)
        return rows[q, j], cols[j], q, r[j], xw[q, mid[j]] * yw[j]

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

    @cached_property
    def ladder_entries(self) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Each role's defined ladder entries, read-only ``(q, rows, cols, weight)`` in
        (q, column) order: point q sends column ``cols`` to row ``rows`` with amplitude
        ``weight``, at the same positions for every field."""
        entries = {}
        for role, (target, weight) in self.ladder_maps.items():
            q, cols = np.nonzero(target >= 0)
            entries[role] = (q, target[q, cols], cols, weight[q, cols])
            for column in entries[role]:
                column.flags.writeable = False
        return entries


# Bytes per ladder-map slot or mixed bracket-table entry: a traced fock-verify run peaks
# at 104-116 of them from D = 231 to D = 10626, in the table's build or the xi gates.
_SLOT_BYTES = 120


def require_table_memory(points: int, n_max: int) -> None:
    """``ValueError``, before any sector exists, when the (points, dim) ladder maps and the
    mixed bracket table of a cap ``n_max >= 1`` would outgrow physical memory.  With
    top = C(d + n - 1, n) top-sector multisets, [X_q, Y_q] is nonzero on every column
    below the top sector and on each top one holding q, and [X_q, Y_r] (q != r) only on
    those, so the table holds d (dim - top) + d^2 C(d + n - 2, n - 1) entries."""
    d, n = points, n_max
    dim, top = math.comb(d + n, n), math.comb(d + n - 1, n)
    entries = d * (dim - top) + d * d * math.comb(d + n - 2, n - 1)
    require_memory(_SLOT_BYTES * (d * dim + entries), f"the field-operator suite at D = {dim}")


def fock_space(h: Hyperboloid, n_max: int) -> FockSpace:
    if n_max < 0:
        raise ValueError("particle cap must be nonnegative")
    if len(h) == 0:
        raise ValueError("hyperboloid is empty at this truncation")
    return FockSpace(hyperboloid=h, n_max=n_max)


def _phases(h: Hyperboloid, x) -> np.ndarray:
    """exp(i p.x) for every point p of h, in point order, from the doubled integer pairing:
    one row for a ``Vec4`` x, an (m, d) array for the (m, 4) coordinate rows of m points."""
    rows = np.array(x.coords()) if isinstance(x, Vec4) else x
    return np.exp(0.5j * (rows @ MINKOWSKI_GRAM @ h.coords.T))


def phase_sum(h: Hyperboloid, x: Vec4, y: Vec4) -> complex:
    """Independent oracle for the commutator scalar: sum of exp(i p.(y-x)), in point order."""
    return sum(_phases(h, y - x).tolist())


def sine_sum(h: Hyperboloid, x: Vec4, y: Vec4) -> float:
    """Sum of sin(p.(y-x)) over the points, in point order: exp of a purely imaginary
    argument has sin(p.(y-x)) as its imaginary part exactly."""
    return sum(_phases(h, y - x).imag.tolist())


def _apply(dim: int, entries: tuple[np.ndarray, np.ndarray, np.ndarray], vec: np.ndarray) -> np.ndarray:
    """The dim-row matrix with ``(rows, cols, values)`` entries applied to ``vec``, one
    scatter-add: entries at one row add up in the order given."""
    rows, cols, vals = entries
    out = np.zeros(dim, dtype=complex)
    np.add.at(out, rows, vals * vec[cols])
    return out


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
        """(rows, cols, values) of the matrix in (point, column) order; each entry comes
        from one point."""
        q, rows, cols, weight = self.fock.ladder_entries[self.role]
        # 0.0 + turns a -0.0 part into +0.0, as summing ladder matrices does
        return rows, cols, 0.0 + np.asarray(self.coeffs)[q] * weight

    def as_matrix(self) -> np.ndarray:
        rows, cols, vals = self._entries()
        out = np.zeros((self.fock.dim, self.fock.dim), dtype=complex)
        out[rows, cols] = vals
        return out

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The row, col, re and im columns of the matrix's entries in row-major order, for
        export; arrays, which hold no reference to the space."""
        rows, cols, vals = self._entries()
        order = np.lexsort((cols, rows))
        vals = vals[order]
        return rows[order], cols[order], vals.real, vals.imag


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


def xi_entries(x: Vec4, fock: FockSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, values) of the self-adjoint field phi(x) + psi(x): phi's entries, then
    psi's; phi lowers and psi raises the sector, so no position holds both."""
    return tuple(np.concatenate(parts) for parts in zip(phi(x, fock)._entries(), psi(x, fock)._entries()))


def _bracket_terms(a: FieldOperator, b: FieldOperator) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices and values of the nonzero [a, b] entries, in (q, r, column) order:
    each table bracket times its coefficient product a.coeffs[q] * b.coeffs[r]."""
    if a.fock is not b.fock and a.fock != b.fock:
        raise ValueError("operators live on different Fock spaces")
    flat, q, r, bracket = a.fock.bracket_table(a.role, b.role)
    # Python complex products: numpy's vectorised complex product is not bit-equal
    products = np.array([[ca * cb for cb in b.coeffs] for ca in a.coeffs])
    return flat, products[q, r] * bracket


def _accumulated(flat: np.ndarray, terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct positions in ``flat`` and the ``terms`` at each, added in the order given."""
    positions, where = np.unique(flat, return_inverse=True)
    entries = np.zeros(len(positions), dtype=complex)
    np.add.at(entries, where, terms)
    return positions, entries


def _identity_defect(fock: FockSpace, flat: np.ndarray, terms: np.ndarray, scalar: complex) -> float:
    """Largest |entry| of C - scalar * I on the truncation-safe sectors, C the ``terms``
    summed at their flat positions; a safe diagonal entry with no term counts at |scalar|."""
    if fock.n_max < 1:
        raise ValueError("identity check needs n_max >= 1: no sector is truncation-safe at n_max 0")
    end = fock.safe_sector_end()
    safe = flat < end * fock.dim  # the safe rows, then their safe columns
    safe[safe] = flat[safe] % fock.dim < end
    positions, entries = _accumulated(flat[safe], terms[safe])
    diagonal = positions % (fock.dim + 1) == 0
    entries[diagonal] -= scalar
    bare = float(np.abs(np.complex128(scalar))) if np.count_nonzero(diagonal) < end else 0.0
    return max(float(np.max(np.abs(entries), initial=0.0)), bare)


def adjoint_defect(fock: FockSpace, points) -> float:
    """Worst |psi(x) - phi(x)^H| entry over the points x, read off the ladder maps.

    Lowering q takes column c to row r; psi(x)'s entry at (c, r) is the raising
    entry (q, r) when that one leads back to c, and it is compared with the
    conjugated phi(x) entry.  A lowering entry without that raising partner, or
    a raising entry without its lowering one, counts at its full magnitude, as
    it does in the dense difference.  Cost O(d dim) per point.
    """
    (low, _), (up, up_w) = fock.ladder_maps["annihilates"], fock.ladder_maps["creates"]
    q, r, c, low_w = fock.ladder_entries["annihilates"]
    paired = up[q, r] == c
    q_up, c_up, r_up, w_up = fock.ladder_entries["creates"]
    orphans = low[q_up, c_up] != r_up

    def worst(x: Vec4) -> float:
        a, b = np.asarray(phi(x, fock).coeffs), np.asarray(psi(x, fock).coeffs)
        # the values _entries gives the two matrices
        lowered = 0.0 + a[q] * low_w
        raised = 0.0 + b[q] * up_w[q, r]
        diff = np.where(paired, np.abs(raised - np.conj(lowered)), np.abs(lowered))
        orphan = np.abs(0.0 + b[q_up[orphans]] * w_up[orphans])
        return max(float(np.max(diff, initial=0.0)), float(np.max(orphan, initial=0.0)))

    return max(worst(x) for x in points)


def same_species_commutator_max(fock: FockSpace, x: Vec4, y: Vec4) -> tuple[float, float]:
    """Largest |entry| of [phi(x), phi(y)] and of [psi(x), psi(y)]; both are exact zeros."""
    return tuple(
        float(np.max(np.abs(_accumulated(*_bracket_terms(field(x, fock), field(y, fock)))[1]), initial=0.0))
        for field in (phi, psi)
    )


def phase_sum_defect(fock: FockSpace, pairs) -> float:
    """Worst deviation of [phi(x), psi(y)] from phase_sum(x, y) I over the pairs (x, y)."""
    return max(
        _identity_defect(fock, *_bracket_terms(phi(x, fock), psi(y, fock)), phase_sum(fock.hyperboloid, x, y))
        for x, y in pairs
    )


def _xi_bracket(fock: FockSpace, x: Vec4, y: Vec4) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices and values of the nonzero [xi(x), xi(y)] entries: the table terms of its
    four field brackets, [psi(x), phi(y)] read off one mixed table as -[phi(y), psi(x)]."""
    phi_x, psi_x, phi_y, psi_y = phi(x, fock), psi(x, fock), phi(y, fock), psi(y, fock)
    flat, terms = _bracket_terms(phi_y, psi_x)
    parts = [_bracket_terms(phi_x, phi_y), _bracket_terms(phi_x, psi_y), (flat, -terms), _bracket_terms(psi_x, psi_y)]
    return tuple(np.concatenate(column) for column in zip(*parts))


def xi_defects(fock: FockSpace, pairs, rnd: random.Random) -> tuple[float, float]:
    """The two xi gates over the pairs (x, y), each pair's bracket C built once from the
    four field brackets' tables:

    - the worst deviation of C's truncation-safe block from 2i sine_sum(x, y) I;
    - the worst |xi(x) (xi(y) v) - xi(y) (xi(x) v) - C v| entry, v a random vector per
      pair: Freivalds' check of :func:`xi_entries`, the field's entries, against the
      ladder maps.  Each product is one scatter-add over xi's nonzeros,
      O(d dim).

    v's parts are drawn from ``rnd``, uniform in [-1, 1), on the truncation-safe sectors
    (zero above them).  xi(y) v then fills every sector, so the outer products read every
    entry of both fields.
    """
    end = fock.safe_sector_end()

    def pair_defects(x: Vec4, y: Vec4) -> tuple[float, float]:
        flat, terms = _xi_bracket(fock, x, y)
        identity = _identity_defect(fock, flat, terms, 2j * sine_sum(fock.hyperboloid, x, y))
        v = np.zeros(fock.dim, dtype=complex)
        v[:end] = np.array([2.0 * rnd.random() - 1.0 for _ in range(2 * end)]).view(complex)
        rows, cols = np.divmod(flat, fock.dim)
        safe = cols < end  # v is zero on the other columns
        defect = _apply(fock.dim, (rows[safe], cols[safe], -terms[safe]), v)
        xi_x, xi_y = xi_entries(x, fock), xi_entries(y, fock)
        defect += _apply(fock.dim, xi_x, _apply(fock.dim, xi_y, v))
        defect -= _apply(fock.dim, xi_y, _apply(fock.dim, xi_x, v))
        return identity, float(np.max(np.abs(defect)))

    identity, products = zip(*(pair_defects(x, y) for x, y in pairs))
    return max(identity), max(products)


def _monomials(fock: FockSpace, elements) -> tuple[np.ndarray, np.ndarray]:
    """``(perms, amps)`` of V(g) for each Poincare element g, as the rows of two (B, dim)
    arrays: V[perm[c], c] = amp[c].  Each amplitude is 1 times the phases of the image
    multiset's points, one point position at a time, for all elements at once."""
    perms = np.stack([fock.sector_permutation(g.rotation) for g in elements])
    phases = _phases(fock.hyperboloid, np.array([g.translation.coords() for g in elements]).reshape(-1, 4))
    amps = np.ones(perms.shape, dtype=complex)
    for n, ms in enumerate(fock.multiset_arrays):
        block = fock.sector_slice(n)
        mapped = ms[perms[:, block] - fock.offsets[n]]  # (B, sector dim, n) image points
        for j in range(n):
            amps[:, block] *= np.take_along_axis(phases, mapped[:, :, j], axis=1)
    return perms, amps


def rep_v_defects(fock: FockSpace, pairs) -> tuple[float, float, bool]:
    """Over pairs (g1, g2) of Poincare elements: the worst unitarity defect of V(g1), the
    worst |V(g1) V(g2) - V(g1 g2)| entry, and whether every V(g1) is block-diagonal.

    V^H V is diag |amp|^2 plus |amp|^2-sized entries where columns share a row; V1 V2 is
    (perm1[perm2], amp1[perm2] amp2), and a differing support counts as a defect.  The
    three actions of d // 6 pairs at a time are one :func:`_monomials` batch: at most d / 2
    rows of dim entries, so its temporaries stay of the order of the d x dim ladder maps."""
    pairs, dim = list(pairs), fock.dim
    chunk = max(1, len(fock.hyperboloid) // 6)
    unitarity = hom = 0.0
    block_diagonal = True
    sector_of = np.repeat(np.arange(fock.n_max + 1), np.diff(fock.offsets))
    for start in range(0, len(pairs), chunk):
        part = [(g1, g2, poincare_product(g1, g2)) for g1, g2 in pairs[start : start + chunk]]
        perms, amps = _monomials(fock, [g for triple in part for g in triple])
        (p1, p2, p12), (a1, a2, a12) = (a.reshape(len(part), 3, dim).transpose(1, 0, 2) for a in (perms, amps))
        own = p1 + dim * np.arange(len(part))[:, None]  # each pair's rows in a range of its own
        shared = np.bincount(own.ravel(), minlength=own.size)[own] > 1
        off_diagonal = float(np.max(np.abs(a1[shared]), initial=0.0)) ** 2
        unitarity = max(unitarity, off_diagonal, float(np.max(np.abs((a1.conj() * a1).real - 1.0))))
        prod = np.take_along_axis(a1, p2, axis=1) * a2
        defect = np.where(
            np.take_along_axis(p1, p2, axis=1) == p12, np.abs(prod - a12), np.maximum(np.abs(prod), np.abs(a12))
        )
        hom = max(hom, float(np.max(defect)))
        block_diagonal = block_diagonal and bool(np.all(sector_of[p1] == sector_of))
    return unitarity, hom, block_diagonal


def basis_unit(fock: FockSpace, point_indices: tuple[int, ...]) -> np.ndarray:
    """Unit vector of the orthonormal basis at the given multiset."""
    if not all(0 <= i < len(fock.hyperboloid) for i in point_indices):
        raise ValueError(f"point indices {tuple(point_indices)} are not all on the hyperboloid")
    vec = np.zeros(fock.dim, dtype=complex)
    vec[fock.rank(len(point_indices), np.sort([point_indices], axis=1))] = 1.0
    return vec


def vacuum(fock: FockSpace) -> np.ndarray:
    return basis_unit(fock, ())
