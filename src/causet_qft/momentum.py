"""Dual energy-momentum space: spectra, hyperboloids and the Poincare product.

Dual vectors carry integer coordinates in the same oblique basis with the
same quadratic form, which is the only reading under which the squared mass
(p0^2 minus the spatial form) is always an integer.  Hyperboloids are the
forward sheet, truncated at a configurable energy cap so everything
downstream stays finite.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import paperdata
from .lattice import Vec4, norm_sq4, spatial_enumeration_bound, vectors_with_norm
from .symmetry import GroupElement, apply4, inverse, multiply

__all__ = [
    "attainable_spatial_norms",
    "spatial_norms_paper_diff",
    "mass_squared_values",
    "mass_table_paper_diff",
    "Hyperboloid",
    "hyperboloid",
    "mass_shell_defect",
    "PoincareElement",
    "poincare_identity",
    "poincare_product",
    "poincare_inverse",
]


def attainable_spatial_norms(limit: int) -> tuple[int, ...]:
    """All values of the spatial quadratic form up to ``limit``, by enumeration."""
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    b = spatial_enumeration_bound(limit)
    seen = set()
    for n in range(-b, b + 1):
        for p in range(-b, b + 1):
            for q in range(-b, b + 1):
                v = n * n + p * p + q * q + n * p + n * q + p * q
                if v <= limit:
                    seen.add(v)
    return tuple(sorted(seen))


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


@dataclass(frozen=True)
class Hyperboloid:
    """Forward-sheet mass hyperboloid truncated at energy cap ``p_max``."""

    mass_sq: int
    p_max: int
    points: tuple[Vec4, ...]

    def __post_init__(self):
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(self.points)})

    def __len__(self) -> int:
        return len(self.points)

    def index(self, p: Vec4) -> int:
        try:
            return self._index[p]
        except KeyError:
            raise ValueError(f"{p} is not on the truncated hyperboloid") from None

    def __contains__(self, p: Vec4) -> bool:
        return p in self._index

    def permutation_under(self, z: GroupElement) -> tuple[int, ...]:
        """Index permutation induced by the spatial action; raises if not closed."""
        return tuple(self.index(apply4(z, p)) for p in self.points)


def hyperboloid(mass_sq: int, p_max: int) -> Hyperboloid:
    """All dual vectors with the given squared mass and 0 <= p0 <= p_max."""
    if mass_sq < 0:
        raise ValueError("squared mass must be nonnegative")
    if p_max < 0:
        raise ValueError("energy cap must be nonnegative")
    points = []
    for p0 in range(p_max + 1):
        q = p0 * p0 - mass_sq
        if q < 0:
            continue
        points.extend(Vec4(p0, v.n, v.p, v.q) for v in vectors_with_norm(q))
    points.sort(key=Vec4.coords)
    return Hyperboloid(mass_sq=mass_sq, p_max=p_max, points=tuple(points))


def mass_shell_defect(h: Hyperboloid) -> int:
    """Largest |norm_sq4(p) - mass_sq| over the points: 0 when all are on the shell."""
    return max((abs(norm_sq4(p) - h.mass_sq) for p in h.points), default=0)


@dataclass(frozen=True)
class PoincareElement:
    """Pair of a lattice translation and a spatial rotation, acting as x -> y + Yx."""

    translation: Vec4
    rotation: GroupElement

    def apply(self, x: Vec4) -> Vec4:
        return self.translation + apply4(self.rotation, x)


def poincare_identity(identity_rotation: GroupElement) -> PoincareElement:
    return PoincareElement(Vec4(0, 0, 0, 0), identity_rotation)


def poincare_product(g1: PoincareElement, g2: PoincareElement) -> PoincareElement:
    return PoincareElement(
        g1.translation + apply4(g1.rotation, g2.translation),
        multiply(g1.rotation, g2.rotation),
    )


def poincare_inverse(g: PoincareElement) -> PoincareElement:
    rot_inv = inverse(g.rotation)
    return PoincareElement(-apply4(rot_inv, g.translation), rot_inv)


def hyperboloid_invariance_defect(h: Hyperboloid, group) -> int:
    """Number of (element, point) pairs whose image leaves the point set (0 expected)."""
    bad = 0
    for z in group:
        for p in h.points:
            if apply4(z, p) not in h:
                bad += 1
    return bad

