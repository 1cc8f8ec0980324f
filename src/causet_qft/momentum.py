"""Dual energy-momentum space: spectra, hyperboloids and the Poincare product.

Dual vectors carry integer coordinates in the same oblique basis with the
same quadratic form, which is the only reading under which the squared mass
(p0^2 minus the spatial form) is always an integer.  Hyperboloids are the
forward sheet, truncated at a configurable energy cap so everything
downstream stays finite.

A hyperboloid's points are the sorted integer rows of a (d, 4) array; point
lookup and the rotation action rank rows of it, and ``points`` is a view.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import paperdata
from .lattice import (
    MINKOWSKI_GRAM, Vec4, norm_sq3_rows, rank_rows, vectors_with_norm, vectors_with_norm_up_to,
)
from .symmetry import MATRICES, GroupElement, apply4, index, multiply

__all__ = [
    "attainable_spatial_norms",
    "spatial_norms_paper_diff",
    "mass_squared_values",
    "mass_table_paper_diff",
    "Hyperboloid",
    "hyperboloid",
    "mass_shell_defect",
    "hyperboloid_invariance_defect",
    "PoincareElement",
    "poincare_product",
]


def attainable_spatial_norms(limit: int) -> tuple[int, ...]:
    """All values of the spatial quadratic form up to ``limit``, by enumeration."""
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    norms = np.sort(norm_sq3_rows(vectors_with_norm_up_to(limit)))  # sort, drop repeats: no numpy.ma
    return tuple(norms[np.diff(norms, prepend=-1) > 0].tolist())


def spatial_norms_paper_diff(limit: int = 49) -> dict:
    computed = set(attainable_spatial_norms(limit))
    printed = {v for v in paperdata.SPATIAL_NORMSQ_PRINTED if v <= limit}
    return {
        "limit": limit,
        "computed_only": tuple(sorted(computed - printed)),
        "printed_only": tuple(sorted(printed - computed)),
        "agree": computed == printed,
    }


def mass_squared_values(p0: int) -> tuple[int, ...]:
    """Attainable squared masses at fixed energy component p0."""
    if p0 < 0:
        raise ValueError("energy component must be nonnegative")
    cap = p0 * p0
    return tuple(sorted({cap - q for q in attainable_spatial_norms(cap)}))


def mass_table_paper_diff(p0_max: int = 7) -> list[dict]:
    rows = []
    for p0 in range(min(p0_max, 7) + 1):
        computed = set(mass_squared_values(p0))
        printed = set(paperdata.MASS_SQ_TABLE_PRINTED[p0])
        rows.append(
            {
                "p0": p0,
                "computed_only": tuple(sorted(computed - printed)),
                "printed_only": tuple(sorted(printed - computed)),
                "agree": computed == printed,
            }
        )
    return rows


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

    def index(self, p: Vec4) -> int:
        (i,) = rank_rows(self.coords, np.array([p.coords()])).tolist()
        if i < 0:
            raise ValueError(f"{p} is not on the truncated hyperboloid")
        return i

    def __contains__(self, p: Vec4) -> bool:
        return bool(rank_rows(self.coords, np.array([p.coords()]))[0] >= 0)

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
    # energy blocks ascend and each is in lexicographic order, so the rows are sorted
    blocks = [np.insert(vectors_with_norm(p0 * p0 - mass_sq), 0, p0, axis=1) for p0 in range(p_max + 1)]
    return Hyperboloid(mass_sq=mass_sq, p_max=p_max, coords=np.concatenate(blocks))


def mass_shell_defect(h: Hyperboloid) -> int:
    """Largest |norm_sq4(p) - mass_sq| over the points: 0 when all are on the shell."""
    twice_norms = ((h.coords @ MINKOWSKI_GRAM) * h.coords).sum(axis=1)
    return int(np.max(np.abs(twice_norms // 2 - h.mass_sq), initial=0))


@dataclass(frozen=True)
class PoincareElement:
    """Pair of a lattice translation and a spatial rotation, acting as x -> y + Yx."""

    translation: Vec4
    rotation: GroupElement


def poincare_product(g1: PoincareElement, g2: PoincareElement) -> PoincareElement:
    return PoincareElement(
        g1.translation + apply4(g1.rotation, g2.translation),
        multiply(g1.rotation, g2.rotation),
    )


def hyperboloid_invariance_defect(h: Hyperboloid, group) -> int:
    """Number of (element, point) pairs whose image leaves the point set (0 expected)."""
    return sum(int(np.count_nonzero(h.rotation_images[index(z)] < 0)) for z in group)
