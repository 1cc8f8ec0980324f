"""Truncated bosonic Fock space over a mass hyperboloid and its field operators.

Sector n's basis is an array of sorted multisets of hyperboloid points.  Every vector
is stored on the *orthonormal* sector basis (multiset indicators divided by the square
root of their arrangement count), which makes the inner product the plain complex dot
product and the creation operator the conjugate transpose of the annihilation operator.

The hyperboloid is energy-capped, the particle number is capped at ``n_max`` and the
creation image of the top sector is dropped, so the commutation relations hold exactly
on the truncation-safe sectors below the top one, up to ``safe_sector_end()``: the
mixed bracket table keeps only those columns.  The gates take their sample points a
batch at a time, each batch within the memory ``require_table_memory`` reserves.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import MINKOWSKI_GRAM, rank_rows, require_memory
from .momentum import Hyperboloid, require_points
from .symmetry import MATRICES, PRODUCT_INDEX

__all__ = [
    "FockSpace",
    "FieldOperator",
    "fock_space",
    "require_table_memory",
    "phi",
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
        ``symmetry.MATRICES`` order, and their sector permutations as the rows of one read-only
        (24, dim) array, ranked in one pass per sector; a row whose rotation leaves is void."""
        point_perms = self.hyperboloid.rotation_images
        rotations = len(point_perms)
        perms = np.empty((rotations, self.dim), dtype=np.int64)
        for n, ms in enumerate(self.multiset_arrays):
            mapped = np.sort(point_perms[:, ms], axis=2).reshape(rotations * len(ms), n)
            perms[:, self.sector_slice(n)] = self.rank(n, mapped).reshape(rotations, len(ms))
        perms.flags.writeable = False
        return (point_perms >= 0).all(axis=1), perms

    @cached_property
    def _bracket_tables(self) -> dict[tuple[str, str], tuple[np.ndarray, ...]]:
        return {}

    def bracket_table(self, role_a: str, role_b: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero entries of the ladder brackets [X_q, Y_r], X of ``role_a`` and Y of
        ``role_b``, as read-only ``(flat, q, r, bracket)`` arrays in (q, r, column) order:
        entry ``flat`` (row * dim + column) of [X_q, Y_r] is the float ``bracket``.  Equal
        roles give every column (their tables are empty), different roles the truncation-
        safe ones, where [X_q, Y_r] is diagonal for r = q and zero otherwise: d (dim - top)
        entries.  X_q Y_r and Y_r X_q hold one :meth:`product_table` entry per column at
        most, at one row where both do, so an entry is one weight minus the other."""
        table = self._bracket_tables.get((role_a, role_b))
        if table is None:
            d, dim, end = len(self.hyperboloid), self.dim, self.dim if role_a == role_b else self.safe_sector_end()
            xy = self.product_table(role_a, role_b, end=end)
            yx = xy if role_a == role_b else self.product_table(role_b, role_a, end=end)
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

    def product_table(self, role_a: str, role_b: str, end: int | None = None) -> tuple[np.ndarray, ...]:
        """Every entry of the two-step products X_q Y_r, X of ``role_a`` and Y of ``role_b``,
        on the columns below ``end`` (all by default), as ``(rows, cols, q, r, weight)``
        arrays in (q, r, column) order: X_q Y_r sends column ``cols`` to row ``rows`` with
        amplitude ``weight``.  Y_r X_q has one entry per column at most: X's maps are read
        at the nonzeros of X's domains gathered at Y's targets."""
        xt, xw = self.ladder_maps[role_a]
        r, mid, cols, yw = self.ladder_entries[role_b]
        if end is not None:
            r, mid, cols, yw = (column[cols < end] for column in (r, mid, cols, yw))
        q, j = np.nonzero((xt >= 0)[:, mid])
        mid = mid[j]
        return xt[q, mid], cols[j], q, r[j], xw[q, mid] * yw[j]

    @cached_property
    def ladder_maps(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per-point ladder maps by field role, each ``(target, weight)`` of shape (d, dim):
        lowering point q ("annihilates") sends column c to row ``target[q, c]`` (-1 when the
        multiset holds no q) with amplitude ``weight[q, c]``, the square root of the count of
        q.  Raising ("creates") is the inverse map; the top sector's image is dropped."""
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


# Bytes per ladder-map slot, mixed bracket-table entry or build path: a traced fock-verify run
# peaks at 100-171 of them from D = 231 (a rep_v batch) to D = 77520 (the tables' builds).
_SLOT_BYTES = 184


def require_table_memory(points: int, n_max: int) -> None:
    """``ValueError``, before any sector exists, when a cap ``n_max >= 1`` would outgrow
    physical memory: d dim ladder-map slots and the mixed table's d (dim - top) entries, top =
    C(d + n - 1, n), as many as a gate's batch, and the d^2 C(d + n - 2, n - 2) paths of Y_r X_q
    its build gathers."""
    d, n = points, n_max
    dim, top = math.comb(d + n, n), math.comb(d + n - 1, n)
    paths = d * d * math.comb(d + n - 2, n - 2) if n > 1 else 0
    require_memory(_SLOT_BYTES * (d * (2 * dim - top) + paths), f"the field-operator suite at D = {dim}")


def _batches(fock: FockSpace, count: int, width: int) -> list[slice]:
    """Slices of range(count), as many samples of ``width`` entries as fill d (2 dim - top) slots."""
    step = max(1, len(fock.hyperboloid) * (fock.dim + fock.safe_sector_end()) // max(width, 1))
    return [slice(start, start + step) for start in range(0, count, step)]


def fock_space(h: Hyperboloid, n_max: int) -> FockSpace:
    if n_max < 0:
        raise ValueError("particle cap must be nonnegative")
    require_points(h)
    return FockSpace(hyperboloid=h, n_max=n_max)


_ROLES = ("annihilates", "creates")  # coefficient order: lowering e^{-ip.x}, as phi, raising e^{ip.x}


def _phases(h: Hyperboloid, xs: np.ndarray) -> np.ndarray:
    """exp(i p.x) for every point p of h, in point order, from the doubled integer pairing,
    at the (t, n, p, q) coordinate rows x: (..., 4) int rows give (..., d) phases."""
    return np.exp(0.5j * (xs @ MINKOWSKI_GRAM @ h.coords.T))


def _coefficients(h: Hyperboloid, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi(x)'s and psi(x)'s coefficients at (..., 4) coordinate rows x, as two (..., d) arrays."""
    phases = _phases(h, xs)
    return np.conj(phases), phases


def _products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b entry by entry as Python multiplies complex numbers: numpy's vectorised complex
    product fuses multiply-adds and is not bit-equal to it."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _scatter(index: np.ndarray, values: np.ndarray, width: int) -> np.ndarray:
    """The (m, width) array whose row k adds up ``values[k]`` at the columns ``index``, in order."""
    out = np.zeros(len(values) * width, dtype=complex)
    np.add.at(out, (index + width * np.arange(len(values))[:, None]).ravel(), values.ravel())
    return out.reshape(len(values), width)


def _apply(dim: int, entries: tuple[np.ndarray, np.ndarray, np.ndarray], vecs: np.ndarray) -> np.ndarray:
    """The dim-row matrices with ``(rows, cols, values)`` entries, ``values`` one row each,
    applied to the rows of ``vecs``, one row at a time: numpy writes a large product into
    its temporary operand, and that path rounds complex products its own way."""
    rows, cols, vals = entries
    return _scatter(rows, np.stack([v * vec[cols] for v, vec in zip(vals, vecs)]), dim)


@dataclass(frozen=True)
class FieldOperator:
    """Phase combination of per-point ladder maps, with full-matrix view: ``coeffs[q]``
    multiplies the lowering (or raising) map of the q-th hyperboloid point; annihilators
    carry e^{-ip.x}, creators e^{+ip.x}."""

    fock: FockSpace
    role: str  # "annihilates" or "creates"
    coeffs: tuple[complex, ...]

    def _entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) of the matrix in (point, column) order."""
        return _field_entries(self.fock, self.role, np.asarray(self.coeffs))

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


def phi(x, fock: FockSpace) -> FieldOperator:
    """Annihilation field at the (t, n, p, q) coordinate row x: sector n+1 -> n with
    amplitude sqrt(count) e^{-ip.x}; there is no block out of sector 0."""
    coeffs = tuple(np.conj(_phases(fock.hyperboloid, np.asarray(x))).tolist())
    return FieldOperator(fock=fock, role="annihilates", coeffs=coeffs)


def _field_entries(fock: FockSpace, role: str, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, values) of the fields of a role with coefficients ``coeffs[..., q]``."""
    q, rows, cols, weight = fock.ladder_entries[role]
    # 0.0 + turns a -0.0 part into +0.0, as summing ladder matrices does
    return rows, cols, 0.0 + coeffs[..., q] * weight


def xi_entries(xs: np.ndarray, fock: FockSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, values) of the self-adjoint field phi(x) + psi(x), ``values`` one row per
    (m, 4) coordinate row x: phi's entries, then psi's; phi lowers and psi raises the
    sector, so no position holds both."""
    coefficients = _coefficients(fock.hyperboloid, xs)
    parts = zip(*(_field_entries(fock, role, c) for role, c in zip(_ROLES, coefficients)))
    return tuple(np.concatenate(column, axis=-1) for column in parts)


def _table_terms(fock: FockSpace, roles: tuple, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the nonzero [X, Y] entries, X and Y fields of the two roles, and
    their values, one row per row of the coefficient arrays: bracket times a[q] * b[r]."""
    flat, q, r, bracket = fock.bracket_table(*roles)
    return flat, _products(a[:, q], b[:, r]) * bracket


def _accumulated(flat: np.ndarray, terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct positions in ``flat``, and for each row of ``terms`` the terms at each,
    added in the order given."""
    positions, where = np.unique(flat, return_inverse=True)
    return positions, _scatter(where, terms, len(positions))


def _identity_defect(fock: FockSpace, flat: np.ndarray, terms: np.ndarray, scalars) -> float:
    """Largest |entry| of C_k - scalars[k] I on the truncation-safe sectors, C_k row k of
    ``terms`` summed at the flat positions; a safe diagonal entry with no term counts at |scalar|."""
    if fock.n_max < 1:
        raise ValueError("identity check needs n_max >= 1: no sector is truncation-safe at n_max 0")
    end = fock.safe_sector_end()
    safe = flat < end * fock.dim  # the safe rows, then their safe columns
    safe[safe] = flat[safe] % fock.dim < end
    positions, entries = _accumulated(flat[safe], terms[:, safe])
    diagonal = positions % (fock.dim + 1) == 0
    scalars = np.array(scalars, dtype=complex)
    entries[:, diagonal] -= scalars[:, None]
    bare = float(np.max(np.abs(scalars))) if np.count_nonzero(diagonal) < end else 0.0
    return max(float(np.max(np.abs(entries), initial=0.0)), bare)


def adjoint_defect(fock: FockSpace, xs: np.ndarray) -> float:
    """Worst |psi(x) - phi(x)^H| entry over the (m, 4) int64 coordinate rows x, read off the
    ladder maps: lowering q takes column c to row r; psi(x)'s entry at (c, r) is the raising
    entry (q, r) when that one leads back to c, compared with the conjugated phi(x) entry.
    A lowering entry without that raising partner, or a raising entry without its lowering
    one, counts at its full magnitude, as in the dense difference.  O(d dim) per point."""
    (low, _), (up, up_w) = fock.ladder_maps["annihilates"], fock.ladder_maps["creates"]
    q, r, c, _ = fock.ladder_entries["annihilates"]
    paired, raise_w = up[q, r] == c, up_w[q, r]
    q_up, c_up, r_up, w_up = fock.ladder_entries["creates"]
    orphans = low[q_up, c_up] != r_up

    def worst(batch: slice) -> float:
        a, b = _coefficients(fock.hyperboloid, xs[batch])
        lowered = _field_entries(fock, "annihilates", a)[2]
        raised = 0.0 + b[:, q] * raise_w
        diff = np.where(paired, np.abs(raised - np.conj(lowered)), np.abs(lowered))
        orphan = np.abs(0.0 + b[:, q_up[orphans]] * w_up[orphans])
        return max(float(np.max(diff, initial=0.0)), float(np.max(orphan, initial=0.0)))

    return max(worst(batch) for batch in _batches(fock, len(xs), len(q)))


def same_species_commutator_max(fock: FockSpace, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Largest |entry| of [phi(x), phi(y)] and of [psi(x), psi(y)] at two (t, n, p, q)
    coordinate rows; both are exact zeros."""

    def worst(role: str, c: np.ndarray) -> float:
        return float(np.max(np.abs(_accumulated(*_table_terms(fock, (role, role), c[:1], c[1:]))[1]), initial=0.0))

    return tuple(map(worst, _ROLES, _coefficients(fock.hyperboloid, np.stack([x, y]))))


def phase_sum_defect(fock: FockSpace, xs: np.ndarray, ys: np.ndarray) -> float:
    """Worst deviation of [phi(x), psi(y)] from the phase sum, sum_p exp(i p.(y - x)) in
    point order, times I over the pairs of (m, 4) int64 coordinate rows (x, y), a batch of
    pairs at a time."""
    h = fock.hyperboloid

    def defect(batch: slice) -> float:
        flat, terms = _table_terms(fock, _ROLES, _coefficients(h, xs[batch])[0], _coefficients(h, ys[batch])[1])
        return _identity_defect(fock, flat, terms, [sum(row) for row in _phases(h, ys[batch] - xs[batch]).tolist()])

    return max(defect(batch) for batch in _batches(fock, len(xs), len(fock.bracket_table(*_ROLES)[0])))


def _xi_bracket(fock: FockSpace, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the nonzero [xi(x), xi(y)] entries, and their values, one row per
    pair of coordinate rows (x, y): the table terms of its four field brackets, [psi(x),
    phi(y)] read off one mixed table as -[phi(y), psi(x)]."""
    (phi_x, psi_x), (phi_y, psi_y) = _coefficients(fock.hyperboloid, xs), _coefficients(fock.hyperboloid, ys)
    a, c = _ROLES
    flat, terms = _table_terms(fock, (a, c), phi_y, psi_x)
    parts = [_table_terms(fock, (a, a), phi_x, phi_y), _table_terms(fock, (a, c), phi_x, psi_y), (flat, -terms)]
    parts.append(_table_terms(fock, (c, c), psi_x, psi_y))
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts], axis=1)


def xi_defects(fock: FockSpace, xs: np.ndarray, ys: np.ndarray, rnd: random.Random) -> tuple[float, float]:
    """The two xi gates over the pairs of (m, 4) int64 coordinate rows (x, y), each pair's
    bracket C built once from the four field brackets' tables:

    - the worst deviation of C's truncation-safe block from 2i sine_sum(x, y) I, the sum of
      sin(p.(y - x)) over the points in point order;
    - the worst |xi(x) (xi(y) v) - xi(y) (xi(x) v) - C v| entry: Freivalds' check of
      :func:`xi_entries`, the field's entries, against the ladder maps, each product one
      scatter-add over xi's nonzeros, O(d dim).  v's parts are drawn from ``rnd``, pair
      after pair, uniform in [-1, 1), on the truncation-safe sectors (zero above them);
      xi(y) v then fills every sector, so the outer products read every entry of both fields.
    """
    end, dim, h = fock.safe_sector_end(), fock.dim, fock.hyperboloid

    def defects(batch: slice) -> tuple[float, float]:
        x, y = xs[batch], ys[batch]
        flat, terms = _xi_bracket(fock, x, y)
        sines = [2j * sum(row) for row in _phases(h, y - x).imag.tolist()]
        draws = np.array([2.0 * rnd.random() - 1.0 for _ in range(2 * end * len(x))]).view(complex)
        v = np.pad(draws.reshape(len(x), end), ((0, 0), (0, dim - end)))
        rows, cols = np.divmod(flat, dim)
        safe = cols < end  # v is zero on the other columns
        defect = _apply(dim, (rows[safe], cols[safe], -terms[:, safe]), v)
        xi_x, xi_y = xi_entries(x, fock), xi_entries(y, fock)
        defect += _apply(dim, xi_x, _apply(dim, xi_y, v))
        defect -= _apply(dim, xi_y, _apply(dim, xi_x, v))
        return _identity_defect(fock, flat, terms, sines), float(np.max(np.abs(defect)))

    # a pair's bracket terms: the mixed table's twice (the same-species tables are empty)
    identity, products = zip(*map(defects, _batches(fock, len(xs), 2 * len(fock.bracket_table(*_ROLES)[0]))))
    return max(identity), max(products)


def _monomials(fock: FockSpace, translations: np.ndarray, rotations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(perms, amps)`` of V(g) for each Poincare element g, a (t, n, p, q) translation row
    and a rotation index (``symmetry.MATRICES`` order), as the rows of two (B, dim) arrays:
    V[perm[c], c] = amp[c], amp 1 times the phases of the image multiset's points in order:
    a sorted multiset's product is its prefix's, which lowering its last point reaches,
    times the last phase.  Raises at the first rotation that leaves the point set."""
    closed, perms = fock._sector_permutations
    if not closed[rotations].all():
        fock.hyperboloid.permutation_under(int(rotations[np.argmin(closed[rotations])]))
    phases, low = _phases(fock.hyperboloid, translations), fock.ladder_maps["annihilates"][0]
    amps = np.ones((len(phases), fock.dim), dtype=complex)
    for n, ms in enumerate(fock.multiset_arrays[1:], start=1):
        block = fock.sector_slice(n)
        amps[:, block] = amps[:, low[ms[:, -1], np.arange(block.start, block.stop)]] * phases[:, ms[:, -1]]
    perms = perms[rotations]
    return perms, np.take_along_axis(amps, perms, axis=1)


def rep_v_defects(fock: FockSpace, translations: np.ndarray, rotations: np.ndarray) -> tuple[float, float, bool]:
    """Over m pairs (g1, g2) of Poincare elements g = (y, Y), given as (m, 2, 4) int64
    translation rows y and (m, 2) rotation indices Y (``symmetry.MATRICES`` order): the worst
    unitarity defect of V(g1), the worst |V(g1) V(g2) - V(g1 g2)| entry, and whether every
    V(g1) is block-diagonal.  V^H V is diag |amp|^2 plus |amp|^2-sized entries where columns
    share a row; V1 V2 is (perm1[perm2], amp1[perm2] amp2), a differing support counting as
    a defect; g1 g2 is (y1 + Y1 y2, Y1 Y2), Y1 Y2 read off ``symmetry.PRODUCT_INDEX``."""
    dim, (t1, t2), (r1, r2) = fock.dim, translations.transpose(1, 0, 2), rotations.T
    t12 = t1 + np.concatenate([t2[:, :1], np.einsum("kij,kj->ki", MATRICES[r1], t2[:, 1:])], axis=1)
    translations, rotations = np.stack([t1, t2, t12], axis=1), np.stack([r1, r2, PRODUCT_INDEX[r1, r2]], axis=1)
    sector_of = np.repeat(np.arange(fock.n_max + 1), np.diff(fock.offsets))

    def defects(batch: slice) -> tuple[float, float, bool]:
        perms, amps = _monomials(fock, translations[batch].reshape(-1, 4), rotations[batch].ravel())
        (p1, p2, p12), (a1, a2, a12) = (a.reshape(-1, 3, dim).transpose(1, 0, 2) for a in (perms, amps))
        own = p1 + dim * np.arange(len(p1))[:, None]  # each pair's rows in a range of its own
        shared = np.bincount(own.ravel(), minlength=own.size)[own] > 1
        off_diagonal = float(np.max(np.abs(a1[shared]), initial=0.0)) ** 2
        prod, same = np.take_along_axis(a1, p2, axis=1) * a2, np.take_along_axis(p1, p2, axis=1) == p12
        unitarity = max(off_diagonal, float(np.max(np.abs((a1.conj() * a1).real - 1.0))))
        hom = np.where(same, np.abs(prod - a12), np.maximum(np.abs(prod), np.abs(a12)))
        return unitarity, float(np.max(hom)), bool(np.all(sector_of[p1] == sector_of))

    unitarity, hom, block_diagonal = zip((0.0, 0.0, True), *map(defects, _batches(fock, len(t1), 3 * dim)))
    return max(unitarity), max(hom), all(block_diagonal)


def basis_unit(fock: FockSpace, point_indices: tuple[int, ...]) -> np.ndarray:
    """Unit vector of the orthonormal basis at the given multiset."""
    if not all(0 <= i < len(fock.hyperboloid) for i in point_indices):
        raise ValueError(f"point indices {tuple(point_indices)} are not all on the hyperboloid")
    vec = np.zeros(fock.dim, dtype=complex)
    vec[fock.rank(len(point_indices), np.sort([point_indices], axis=1))] = 1.0
    return vec


def vacuum(fock: FockSpace) -> np.ndarray:
    return basis_unit(fock, ())
