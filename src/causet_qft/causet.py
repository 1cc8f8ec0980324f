"""Shells, histories and the causal order on the spacetime lattice.

A vertex lives in the nonnegative-time solid light cone; the shell at time
t collects the vertices at that height of the cone.  The order is the
Minkowski one (later time, nonnegative interval).  Links are the 13
one-step moves (rest, or one of the 12 unit directions).

The machine checks here deliberately distinguish the *order* from the
*link-reachability*: from t = 3 on, shells contain vertices that are
causally after the origin yet cannot be reached by any chain of links.
Reports carry those counterexamples rather than assuming the two notions
agree.

A history carries its vertices as index-aligned arrays: the V x 4
coordinates, built straight from the lattice enumerator's integer rows, the
V x V order, the V x 13 link (child) indices and the V x V link
reachability.  Every diagnostic is computed from those arrays; ``Vec4``
objects appear only in report samples and in the ``vertices`` and ``shell``
views.  The per-vertex functions (``precedes``, ``children``, ``parents``)
define the same notions one object at a time and serve as the oracles the
arrays are tested against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import paperdata
from .lattice import Vec4, norm_sq3_rows, norm_sq4, unit_vectors3, vectors_with_norm_up_to
from .momentum import attainable_spatial_norms

__all__ = [
    "ORIGIN",
    "in_cone",
    "shell",
    "History",
    "history",
    "causal_order",
    "link_array",
    "link_reachability",
    "order_axioms",
    "precedes",
    "children",
    "parents",
    "parent_histogram",
    "complete_children",
    "CovarianceReport",
    "covariance_diagnostics",
    "construction_cross_check",
    "average_speeds",
    "speeds_paper_diff",
]

ORIGIN = Vec4(0, 0, 0, 0)

_STEPS = tuple(
    [Vec4(1, 0, 0, 0)] + [Vec4(1, u.n, u.p, u.q) for u in unit_vectors3()]
)

# The steps as (t, n, p, q) rows in the lexicographic order ``children`` uses.
# Each spatial coordinate of a step is -1, 0 or 1, which ``link_array`` relies on.
_STEP_ARRAY = np.array(sorted(s.coords() for s in _STEPS), dtype=np.int32)


def in_cone(v: Vec4) -> bool:
    """Membership in the forward solid light cone of the origin."""
    return v.t >= 0 and norm_sq4(v) >= 0


def shell(t: int) -> tuple[Vec4, ...]:
    """All vertices at time t, lexicographically ordered by coordinates."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    return tuple(Vec4(t, *row) for row in vectors_with_norm_up_to(t * t).tolist())


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class History:
    """The union of shells 0..t as index-aligned arrays.

    The vertices run shell by shell in lexicographic (t, n, p, q) order, shell
    t being rows ``offsets[t]:offsets[t + 1]``.  Row i of ``coords`` (V x 4
    int32) and of every array property describes vertex i.  All arrays are
    read-only; the properties are computed on first use and cached.
    """

    horizon: int
    coords: np.ndarray
    offsets: tuple[int, ...]

    @cached_property
    def vertices(self) -> tuple[Vec4, ...]:
        """The ``Vec4`` view of ``coords``."""
        return tuple(Vec4(*row) for row in self.coords.tolist())

    def vertex(self, i: int) -> Vec4:
        return Vec4(*self.coords[i].tolist())

    @cached_property
    def links(self) -> np.ndarray:
        """V x 13 child indices in ``children`` order; -1 past the horizon."""
        return _frozen(link_array(self.coords))

    @cached_property
    def order(self) -> np.ndarray:
        """V x V bool: ``order[i, j]`` iff vertex i precedes vertex j."""
        return _frozen(causal_order(self.coords))

    @cached_property
    def reachable(self) -> np.ndarray:
        """V x V bool: ``reachable[i, j]`` iff a chain of links (maybe empty) runs from i to j."""
        return _frozen(link_reachability(self.links, self.offsets))

    def __contains__(self, v: Vec4) -> bool:
        return 0 <= v.t <= self.horizon and norm_sq4(v) >= 0


def history(t: int) -> History:
    if t < 0:
        raise ValueError("time must be nonnegative")
    rows = vectors_with_norm_up_to(t * t)
    norms = norm_sq3_rows(rows)
    # the enumerator's rows are lexicographic, and so is every subset of them
    shells = [np.insert(rows[norms <= s * s], 0, s, axis=1) for s in range(t + 1)]
    offsets = tuple(itertools.accumulate(map(len, shells), initial=0))
    return History(t, _frozen(np.concatenate(shells).astype(np.int32)), offsets)


def causal_order(coords: np.ndarray) -> np.ndarray:
    """V x V bool relation ``precedes`` on the rows of a V x 4 coordinate array.

    Differences are broadcast one coordinate at a time into two V x V int32
    buffers, using 2 norm_sq3(n, p, q) = (n + p)^2 + (n + q)^2 + (p + q)^2,
    so no V x V x 4 block is ever held.
    """
    c = np.asarray(coords, dtype=np.int32)
    dt = c[None, :, 0] - c[:, None, 0]
    later = dt > 0
    twice_norm = np.square(dt, out=dt)
    twice_norm *= 2
    d = np.empty_like(twice_norm)
    for a, b in ((1, 2), (1, 3), (2, 3)):
        s = c[:, a] + c[:, b]
        np.subtract(s[None, :], s[:, None], out=d)
        d *= d
        twice_norm -= d
    return later & (twice_norm >= 0)


def link_array(coords: np.ndarray) -> np.ndarray:
    """V x 13 int32 indices of each row's children, in ``children`` order.

    ``coords`` are the rows of a history; a child past its last shell gets
    index -1.  Lookup goes through a dense coordinate grid with a margin of
    one, which holds every child since a step moves each coordinate by at
    most one.
    """
    lo = coords.min(axis=0) - 1
    grid = np.full(coords.max(axis=0) - lo + 2, -1, dtype=np.int32)
    grid[tuple((coords - lo).T)] = np.arange(len(coords), dtype=np.int32)
    kids = coords[:, None, :] + _STEP_ARRAY - lo
    return grid[tuple(np.moveaxis(kids, -1, 0))]


def link_reachability(links: np.ndarray, offsets: tuple[int, ...]) -> np.ndarray:
    """V x V bool link reachability (reflexive) from a history's link array.

    Every link joins shell t to shell t + 1, so the rows are filled one shell
    at a time from the top down: a vertex reaches itself and whatever its
    children reach.  Rows are held as packed bits while they are combined.
    """
    n = len(links)
    bits = np.packbits(np.eye(n, dtype=bool), axis=1)
    for t in range(len(offsets) - 3, -1, -1):  # the top shell reaches only itself
        rows = slice(offsets[t], offsets[t + 1])
        bits[rows] |= np.bitwise_or.reduce(bits[links[rows]], axis=1)
    return np.unpackbits(bits, axis=1, count=n).view(bool)


def order_axioms(rel: np.ndarray) -> dict[str, bool]:
    """Irreflexivity, antisymmetry and transitivity of a V x V bool relation.

    Transitivity ORs together the packed rows of each element's successors
    and asks that the result lie inside the element's own row.  No pair
    count is formed, so nothing can wrap around the way a uint8 count of
    256 intermediate elements reads 0 and hides a violation.
    """
    packed = np.packbits(rel, axis=1)
    transitive = not any(
        (np.bitwise_or.reduce(packed[row], axis=0) & ~own).any()
        for row, own in zip(rel, packed)
    )
    return {
        "irreflexive": not rel.diagonal().any(),
        "antisymmetric": not (rel & rel.T).any(),
        "transitive": transitive,
    }


def precedes(u: Vec4, v: Vec4) -> bool:
    """Causal order: strictly later time and nonnegative squared interval."""
    return u.t < v.t and norm_sq4(v - u) >= 0


def children(u: Vec4) -> tuple[Vec4, ...]:
    """The 13 one-step successors of a cone vertex, lexicographic order."""
    out = [u + s for s in _STEPS]
    out.sort(key=Vec4.coords)
    return tuple(out)


def parents(u: Vec4) -> tuple[Vec4, ...]:
    """Cone vertices one step before u; may be empty even for u.t >= 1."""
    if u.t <= 0:
        return ()
    out = [w for w in (u - s for s in _STEPS) if norm_sq4(w) >= 0]
    out.sort(key=Vec4.coords)
    return tuple(out)


def _parent_counts(hist: History) -> np.ndarray:
    """Number of in-history parents of each vertex."""
    return np.bincount(hist.links[hist.links >= 0], minlength=len(hist.links))


def parent_histogram(hist: History) -> dict[int, dict[int, int]]:
    """Per-shell histogram of in-history parent counts (answers an open count).

    Within a shell, counts appear in the order their first vertex does.
    """
    counts = _parent_counts(hist)
    histogram: dict[int, dict[int, int]] = {}
    for t in range(hist.horizon + 1):
        values, first, sizes = np.unique(
            counts[hist.offsets[t] : hist.offsets[t + 1]], return_index=True, return_counts=True
        )
        histogram[t] = {int(values[i]): int(sizes[i]) for i in np.argsort(first)}
    return histogram


def complete_children(hist: History) -> tuple[int, int]:
    """(vertices below the top shell whose 13 children are distinct and in the
    history, vertices below the top shell): equal when none misses a child."""
    kids = np.sort(hist.links[: hist.offsets[-2]], axis=1)
    full = (kids[:, 0] >= 0) & np.all(kids[:, 1:] != kids[:, :-1], axis=1)
    return int(full.sum()), len(full)


@dataclass(frozen=True)
class CovarianceReport:
    horizon: int
    vertex_count: int
    comparable_pairs: int
    weakly_covariant: bool
    covariant: bool
    covariance_witness: tuple[Vec4, Vec4] | None
    orphan_count: int
    orphans_sample: tuple[Vec4, ...]
    height_mismatch_count: int
    pathless_comparable_pairs: int
    pathless_sample: tuple[tuple[Vec4, Vec4], ...]
    parent_histogram: dict[int, dict[int, int]]


def covariance_diagnostics(hist: History) -> CovarianceReport:
    """Heights, weak covariance, covariance witness and reachability defects.

    Samples and the witness are the first pairs or vertices in row-major
    vertex order.
    """
    links, order = hist.links, hist.order
    times = hist.coords[:, 0]

    # a vertex's height is 0 without parents, else one more than its highest
    # parent; parents lie one shell down, so shells are settled in time order
    heights = np.zeros(len(times), dtype=np.int64)
    for t in range(hist.horizon):
        rows = slice(hist.offsets[t], hist.offsets[t + 1])
        np.maximum.at(heights, links[rows].ravel(), np.repeat(heights[rows] + 1, links.shape[1]))

    orphans = np.flatnonzero((_parent_counts(hist) == 0) & (times > 0))
    pathless = order & ~hist.reachable
    # every link advances time by one step, so any existing chain from u to v
    # has length v.t - u.t; weak covariance can only fail if a link skipped a
    # shell, which the construction forbids.  A child past the horizon is
    # counted at time horizon + 1.
    child_times = np.where(links >= 0, times[links], hist.horizon + 1)
    weakly_covariant = bool((child_times == times[:, None] + 1).all())

    later = (heights[:, None] < heights[None, :]) & ~order
    witness = None
    if later.any():
        u, v = np.unravel_index(np.argmax(later), later.shape)
        witness = (hist.vertex(u), hist.vertex(v))

    return CovarianceReport(
        horizon=hist.horizon,
        vertex_count=len(times),
        comparable_pairs=int(np.count_nonzero(order)),
        weakly_covariant=weakly_covariant,
        covariant=witness is None,
        covariance_witness=witness,
        orphan_count=len(orphans),
        orphans_sample=tuple(map(hist.vertex, orphans[:5])),
        height_mismatch_count=int(np.count_nonzero(heights != times)),
        pathless_comparable_pairs=int(np.count_nonzero(pathless)),
        pathless_sample=tuple((hist.vertex(u), hist.vertex(v)) for u, v in np.argwhere(pathless)[:5]),
        parent_histogram=parent_histogram(hist),
    )


def construction_cross_check(hist: History) -> list[dict]:
    """Shell sizes of ``hist`` (norm enumeration) versus iterated one-step construction.

    The published account treats the two as interchangeable; they agree only
    up to t = 2, and the per-timestep report makes the divergence explicit.
    """
    reachable = {ORIGIN}
    rows = []
    for t, size in enumerate(np.diff(hist.offsets).tolist()):
        if t > 0:
            reachable = {w + s for w in reachable for s in _STEPS}
        rows.append(
            {
                "t": t,
                "enumerated": size,
                "step_construction": len(reachable),
                "equal": size == len(reachable),
            }
        )
    return rows


@dataclass(frozen=True)
class Speed:
    """Average speed sqrt(Q)/t with its exact squared spatial displacement."""

    norm_sq: int
    time: int

    @property
    def value(self) -> float:
        return math.sqrt(self.norm_sq) / self.time


def average_speeds(t: int) -> tuple[Speed, ...]:
    """All speeds attainable from the origin in exactly t steps of time."""
    if t < 1:
        raise ValueError("time must be at least 1")
    return tuple(Speed(q, t) for q in attainable_spatial_norms(t * t))


def speeds_paper_diff(t: int) -> dict:
    """Difference between the computed speed set and the published list."""
    if t not in paperdata.SPEED_Q_PRINTED:
        raise ValueError(f"no published speed list for t={t}")
    computed = {s.norm_sq for s in average_speeds(t)}
    printed = set(paperdata.SPEED_Q_PRINTED[t])
    return {
        "t": t,
        "computed_only": tuple(sorted(computed - printed)),
        "printed_only": tuple(sorted(printed - computed)),
        "agree": computed == printed,
    }
