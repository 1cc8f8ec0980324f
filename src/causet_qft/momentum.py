"""Dual energy-momentum space: spectra and mass hyperboloids.

Dual vectors carry integer coordinates in the same oblique basis with the
same quadratic form, which is the only reading under which the squared mass
(p0^2 minus the spatial form) is always an integer.  Hyperboloids are the
forward sheet, truncated at a configurable energy cap so everything
downstream stays finite.

A hyperboloid's points are the sorted integer rows of a (d, 4) array, named by
their row indices; the rotation action ranks rows of it, and ``points`` is a view.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import paperdata
from .lattice import (
    MINKOWSKI_GRAM, Vec4, norm_sq3_rows, rank_rows, require_memory, vectors_with_norm_up_to,
)
from .symmetry import MATRICES, GroupElement, apply4, index

__all__ = [
    "attainable_spatial_norms",
    "spatial_norms_paper_diff",
    "mass_squared_rows",
    "mass_table_paper_diff",
    "Hyperboloid",
    "hyperboloid",
    "mass_shell_defect",
    "hyperboloid_invariance_defect",
]


# Bytes per norm below a limit (the sieve traces 46) or per mass-table value (masses, 75-90)
_VALUE_BYTES = 96


def attainable_spatial_norms(limit: int) -> tuple[int, ...]:
    """All values of the spatial quadratic form up to ``limit``, by a sieve.  With
    (a, b, c) = (n + p, n + q, p + q), 2 norm_sq3 = a^2 + b^2 + c^2, and an even sum of three
    squares has a + b + c even, so an integral (n, p, q): Q is attained exactly when 2Q is a
    sum of three squares, by Legendre's theorem when 2Q is not 4^a (8b + 7), that is when Q
    is not 4^k (16b + 14)."""
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    require_memory(_VALUE_BYTES * (limit + 1), f"the attainable spatial norms up to {limit}")
    excluded, power = np.zeros(limit + 1, dtype=bool), 1
    while 14 * power <= limit:
        excluded[14 * power :: 16 * power] = True
        power *= 4
    return tuple(np.flatnonzero(~excluded).tolist())


def _set_diff(computed, printed) -> dict:
    """The values only computed, only printed, and whether the two sets agree."""
    computed, printed = set(computed), set(printed)
    return {
        "computed_only": tuple(sorted(computed - printed)),
        "printed_only": tuple(sorted(printed - computed)),
        "agree": computed == printed,
    }


def spatial_norms_paper_diff(norms: tuple[int, ...], limit: int) -> dict:
    """The attainable spatial norms up to ``limit``, read from ``norms`` (all of them up
    to at least ``limit``), against the printed list."""
    printed = (v for v in paperdata.SPATIAL_NORMSQ_PRINTED if v <= limit)
    return {"limit": limit, **_set_diff((v for v in norms if v <= limit), printed)}


def mass_squared_rows(norms: tuple[int, ...], p0_max: int) -> list[tuple[int, ...]]:
    """The attainable squared masses p0^2 - Q at each energy p0 = 0..p0_max, ascending,
    read from ``norms``: the attainable spatial norms Q, ascending, up to at least p0_max^2.
    ``ValueError`` first when the table would outgrow physical memory."""
    norms = np.asarray(norms, dtype=np.int64)
    lengths = np.searchsorted(norms, np.arange(p0_max + 1) ** 2, side="right")
    values = int(lengths.sum())
    require_memory(_VALUE_BYTES * values, f"the mass table up to p0 = {p0_max} ({values} values)")
    return [tuple((p0 * p0 - norms[:length][::-1]).tolist()) for p0, length in enumerate(lengths.tolist())]


def mass_table_paper_diff(rows: list[tuple[int, ...]]) -> list[dict]:
    """The rows p0 <= 7 of a :func:`mass_squared_rows` table against the printed ones."""
    return [{"p0": p0, **_set_diff(row, paperdata.MASS_SQ_TABLE_PRINTED[p0])} for p0, row in enumerate(rows[:8])]


@dataclass(frozen=True, eq=False)
class Hyperboloid:
    """Forward-sheet mass hyperboloid truncated at energy cap ``p_max``; ``coords``
    holds its points as sorted, distinct (p0, n, p, q) int64 rows, indexed by row."""

    mass_sq: int
    p_max: int
    coords: np.ndarray

    def __eq__(self, other) -> bool:
        same = isinstance(other, Hyperboloid) and (self.mass_sq, self.p_max) == (other.mass_sq, other.p_max)
        return same and np.array_equal(self.coords, other.coords)

    def __len__(self) -> int:
        return len(self.coords)

    @cached_property
    def points(self) -> tuple[Vec4, ...]:
        return tuple(Vec4(*row) for row in self.coords.tolist())

    @cached_property
    def rotation_images(self) -> np.ndarray:
        """Row g, read-only: the index of each point's image under the rotation ``MATRICES[g]``,
        -1 where it leaves the point set; all 24 rotations ranked in one pass."""
        images = np.insert(self.coords[:, 1:] @ MATRICES.transpose(0, 2, 1), 0, self.coords[:, 0], axis=2)
        out = rank_rows(self.coords, images.reshape(-1, 4)).reshape(len(MATRICES), len(self))
        out.flags.writeable = False
        return out

    def permutation_under(self, z: GroupElement) -> np.ndarray:
        """Index permutation induced by the spatial action; raises if not closed."""
        perm = self.rotation_images[index(z)]
        if (perm < 0).any():
            p = self.points[int(np.argmax(perm < 0))]
            raise ValueError(f"{apply4(z, p)} is not on the truncated hyperboloid")
        return perm


def hyperboloid(mass_sq: int, p_max: int) -> Hyperboloid:
    """All dual vectors with the given squared mass and 0 <= p0 <= p_max."""
    if mass_sq < 0:
        raise ValueError("squared mass must be nonnegative")
    if p_max < 0:
        raise ValueError("energy cap must be nonnegative")
    # p0^2 = mass_sq + norm_sq3 <= p_max^2.  A float root rounds to p0 exactly when the
    # sum is a square, and to an integer whose square misses it when it is not; the stable
    # sort by p0 keeps the enumerator's lexicographic order within each energy
    rows = vectors_with_norm_up_to(p_max * p_max - mass_sq)
    energy_sq = norm_sq3_rows(rows) + mass_sq
    p0 = np.rint(np.sqrt(energy_sq)).astype(np.int64)
    on = p0 * p0 == energy_sq
    coords = np.insert(rows[on], 0, p0[on], axis=1)
    return Hyperboloid(mass_sq=mass_sq, p_max=p_max, coords=coords[np.argsort(coords[:, 0], kind="stable")])


def mass_shell_defect(h: Hyperboloid) -> int:
    """Largest |norm_sq4(p) - mass_sq| over the points: 0 when all are on the shell."""
    twice_norms = ((h.coords @ MINKOWSKI_GRAM) * h.coords).sum(axis=1)
    return int(np.max(np.abs(twice_norms // 2 - h.mass_sq), initial=0))


def hyperboloid_invariance_defect(h: Hyperboloid) -> int:
    """Number of (rotation, point) pairs, over the 24 rotations of G, whose image leaves
    the point set (0 expected)."""
    return int(np.count_nonzero(h.rotation_images < 0))
