"""Exact integer arithmetic on the tetrahedral space and spacetime lattices.

The spatial lattice is the integer span of three unit vectors with pairwise
inner product 1/2; the spacetime lattice adds an orthogonal unit time
direction.  All inner products are kept exact by working with *doubled*
values (2<u,v> is always an integer), so nothing in this module touches
floating point.

Sets of lattice points are integer rows (the enumerator returns (n, p, q)
rows, ``rank_rows`` and ``rank_keys`` find rows and keys in a sorted table);
``Vec4`` names one spacetime point, a momentum or a translation.  The squared
spatial length norm_sq3 of (n, p, q) is n^2 + p^2 + q^2 + np + nq + pq.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Vec4",
    "MINKOWSKI_GRAM",
    "det_exact",
    "norm_sq3_rows",
    "rank_rows",
    "rank_keys",
    "vectors_with_norm_up_to",
    "vectors_with_norm",
    "require_memory",
    "TRIPLE_MATRICES",
]


@dataclass(frozen=True, slots=True)
class Vec4:
    """Spacetime lattice vector (t, n, p, q); t is the time coordinate."""

    t: int
    n: int
    p: int
    q: int

    def __add__(self, other: "Vec4") -> "Vec4":
        return Vec4(self.t + other.t, self.n + other.n, self.p + other.p, self.q + other.q)

    def __sub__(self, other: "Vec4") -> "Vec4":
        return Vec4(self.t - other.t, self.n - other.n, self.p - other.p, self.q - other.q)

    def coords(self) -> tuple[int, int, int, int]:
        return (self.t, self.n, self.p, self.q)


# doubled Minkowski Gram matrix on coordinates (t, n, p, q): 2(p.x) = p @ G @ x
MINKOWSKI_GRAM = np.array(
    [[2, 0, 0, 0], [0, -2, -1, -1], [0, -1, -2, -1], [0, -1, -1, -2]], dtype=np.int64
)


def det_exact(m):
    """Exact determinant of a small square integer matrix (an ``int``), or of each
    matrix of a (..., k, k) stack (an int64 array), by first-row expansion.  int64
    is exact here: entries up to 12 keep a 4x4 below 24 * 12**4."""
    a = np.asarray(m, dtype=np.int64)
    k = a.shape[-1]
    det = a[..., 0, 0] if k == 1 else sum(
        (-1) ** j * a[..., 0, j] * det_exact(a[..., 1:, np.arange(k) != j]) for j in range(k)
    )
    return int(det) if a.ndim == 2 else det


def norm_sq3_rows(rows: np.ndarray) -> np.ndarray:
    """norm_sq3 of every (n, p, q) row of an (m, 3) integer array."""
    n, p, q = rows.T
    return n * n + p * p + q * q + n * p + n * q + p * q


def vectors_with_norm_up_to(limit: int) -> np.ndarray:
    """All spatial vectors with norm_sq3 <= limit, as the (n, p, q) rows of an
    (m, 3) int64 array in lexicographic order.

    For each (n, p) column, (2q + n + p)^2 <= 4 limit - 3n^2 - 3p^2 - 2np bounds q
    exactly: with s the integer square root of the right side, q runs from
    ceil((-s - n - p) / 2) to floor((s - n - p) / 2).  The columns ascend
    lexicographically and q within each, so the rows do.
    """
    # the form dominates half the coordinate sum of squares: |coordinate| <= sqrt(2 limit)
    b = math.isqrt(2 * limit) if limit >= 0 else -1
    side = 2 * b + 1
    # the ellipsoid norm_sq3 <= limit has volume (4 pi / 3) sqrt(2) limit^(3/2); 64 bytes
    # per point (the rows and their repeated columns) and 96 per (n, p) column
    points = math.ceil(4 * math.pi / 3 * math.sqrt(2) * max(limit, 0) ** 1.5)
    need = 64 * points + 96 * side * side
    require_memory(need, f"the lattice enumeration of norm_sq3 <= {limit} (about {points} points)")
    n, p = (a.ravel() for a in np.meshgrid(*[np.arange(-b, b + 1, dtype=np.int64)] * 2, indexing="ij"))
    room = 4 * limit - 3 * n * n - 3 * p * p - 2 * n * p
    inside = room >= 0
    n, p, room = n[inside], p[inside], room[inside]
    s = np.sqrt(room).astype(np.int64)  # the float root, corrected to isqrt by one either way
    s -= s * s > room
    s += (s + 1) * (s + 1) <= room
    low, high = -((s + n + p) // 2), (s - n - p) // 2
    counts = high - low + 1
    starts = np.cumsum(counts) - counts
    rows = np.empty((int(counts.sum()), 3), dtype=np.int64)
    rows[:, 0], rows[:, 1] = np.repeat(n, counts), np.repeat(p, counts)
    rows[:, 2] = np.arange(len(rows)) - np.repeat(starts - low, counts)
    return rows


def vectors_with_norm(value: int) -> np.ndarray:
    """All spatial vectors with norm_sq3 == value, as rows in lexicographic order."""
    rows = vectors_with_norm_up_to(value)
    return rows[norm_sq3_rows(rows) == value]


def rank_rows(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Index in ``table`` of each row of ``rows``, or -1 for a row not in it.

    ``table`` holds distinct integer rows in lexicographic order.  Each row is
    read as the digits of one key, in a base above the spread of every entry,
    so the table's keys ascend and a binary search finds each wanted key.
    """
    lo = min(table.min(initial=0), rows.min(initial=0))
    base = max(table.max(initial=0), rows.max(initial=0)) - lo + 1
    radix = base ** np.arange(table.shape[1] - 1, -1, -1, dtype=np.int64)
    return rank_keys((table - lo) @ radix, (rows - lo) @ radix)


def rank_keys(table: np.ndarray, wanted) -> np.ndarray:
    """Index in the ascending integer keys ``table`` of each of ``wanted``, or -1 for a
    key not in it.  Keys of any sign: a key past the last one is compared with the last."""
    pos = np.searchsorted(table, wanted)
    if not len(table):
        return np.full_like(pos, -1)
    return np.where(table.take(pos, mode="clip") == wanted, pos, -1)


def require_memory(need: int, what: str) -> None:
    """``ValueError`` when ``need`` bytes for ``what`` exceed physical memory, raised
    before allocating so that a run too large for the machine stops at once."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(
            f"{what} needs about {need / 2**30:.3g} GiB, "
            f"more than the {have / 2**30:.3g} GiB of physical memory"
        )


def _triple_matrices() -> np.ndarray:
    """The (24, 3, 3) stack of the positively oriented triples of unit vectors (pairwise
    doubled inner product 1), members as columns, in lexicographic member order.

    A triad's members have pairwise doubled inner product 1; of its 6 orderings the 3
    of determinant 1 are its triples, all 48 orderings taking one determinant call.
    """
    units = vectors_with_norm(1)
    gram = units @ -MINKOWSKI_GRAM[1:, 1:] @ units.T
    combos = np.array(list(itertools.combinations(range(len(units)), 3)))
    a, b, c = combos.T
    triad_index = combos[(gram[a, b] == 1) & (gram[a, c] == 1) & (gram[b, c] == 1)]
    orderings = triad_index[:, list(itertools.permutations(range(3)))].reshape(-1, 3)
    mats = units[orderings].transpose(0, 2, 1)
    mats = mats[det_exact(mats) == 1]
    # sort by the members' coordinates: the first member's n is the primary key
    mats = mats[np.lexsort(mats.transpose(0, 2, 1).reshape(-1, 9).T[::-1])]
    mats.flags.writeable = False
    return mats


TRIPLE_MATRICES = _triple_matrices()
