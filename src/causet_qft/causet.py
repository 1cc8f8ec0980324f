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

Shell k is {k} x B_k, B_k the ball norm_sq3 <= k^2.  Both relations are
translation-invariant, so no array has a row per vertex pair: u precedes v
iff v - u lies in the difference set, the union of the {k} x B_k over k >= 1,
and links join u to v iff v - u lies in some {k} x R_k, R_k the k-link
displacements.  Vertices, balls and step sets are sorted radix keys that add
as the vectors do, and the keys are the layer's only lookup structure: a
vertex's parents are its key minus the 13 step keys, looked up in the shell
below.  The tests define the same notions one point at a time (shells,
precedence, children, parents) and diff the arrays against them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import paperdata
from .lattice import MINKOWSKI_GRAM, det_exact, norm_sq3_rows, rank_keys, require_memory, vectors_with_norm_up_to
from .momentum import _set_diff, attainable_spatial_norms

__all__ = [
    "History",
    "Speed",
    "history",
    "order_axioms",
    "parent_histogram",
    "complete_children",
    "CovarianceReport",
    "covariance_diagnostics",
    "construction_cross_check",
    "average_speeds",
    "speeds_paper_diff",
]

# The 13 one-step moves, rest or one of the 12 unit directions, as lexicographic
# (t, n, p, q) rows: the spatial parts are the ball norm_sq3 <= 1.
_STEP_ARRAY = np.insert(vectors_with_norm_up_to(1), 0, 1, axis=1).astype(np.int32)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class History:
    """The union of shells 0..t as index-aligned arrays.

    The vertices run shell by shell in lexicographic (t, n, p, q) order, shell
    t being rows ``offsets[t]:offsets[t + 1]``.  Row i of ``coords`` (V x 4
    int32), ``keys`` (V int64) and ``parent_links`` (V x 13 int32) describes
    vertex i; no array has a row per vertex pair.  All arrays are read-only;
    the properties are computed on first use and cached.
    """

    horizon: int
    coords: np.ndarray
    offsets: tuple[int, ...]

    @cached_property
    def keys(self) -> np.ndarray:
        """The :func:`_keys` of ``coords``, ascending; shell k's are its ball B_k."""
        return _frozen(_keys(self.coords, self.horizon))

    @cached_property
    def parent_links(self) -> np.ndarray:
        """V x 13 int32: row v, column j is the index of v minus step j (steps in
        lexicographic order), or -1 when that vector is not in the history.

        Shell t >= 1 looks its keys minus the 13 step keys up in shell t - 1's; shell 0
        looks nothing up, so no vector outside times 0..horizon is ever keyed.
        """
        off, steps = self.offsets, _keys(_STEP_ARRAY, self.horizon)
        out = np.full((off[-1], len(steps)), -1, dtype=np.int32)
        for t in range(1, self.horizon + 1):
            below, keys = self.keys[off[t - 1] : off[t]], self.keys[off[t] : off[t + 1]]
            for j, step in enumerate(steps):  # one step at a time keeps temporaries shell-sized
                pos = rank_keys(below, keys - step)
                out[off[t] : off[t + 1], j] = np.where(pos >= 0, pos + off[t - 1], -1)
        return _frozen(out)


# Bytes per vertex at causet-verify's peak: coords, keys, parent links and the diagnostics'
# temporaries (traced: 192, 163, 146 and 124 at t = 6, 9, 12 and 20, see the tests).
_VERTEX_BYTES = 256


def history(t: int) -> History:
    """Shells 0..t, or a ``ValueError`` first if ``_VERTEX_BYTES`` per vertex exceed memory."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    rows = vectors_with_norm_up_to(t * t)
    norms = norm_sq3_rows(rows)
    offsets = tuple(itertools.accumulate((np.count_nonzero(norms <= s * s) for s in range(t + 1)), initial=0))
    require_memory(_VERTEX_BYTES * offsets[-1], f"the history up to t = {t} ({offsets[-1]} vertices)")
    coords = np.empty((offsets[-1], 4), dtype=np.int32)
    for s in range(t + 1):
        # the enumerator's rows are lexicographic, and so is every subset of them
        coords[offsets[s] : offsets[s + 1]] = np.insert(rows[norms <= s * s], 0, s, axis=1)
    return History(t, _frozen(coords), offsets)


def _keys(rows: np.ndarray, horizon: int) -> np.ndarray:
    """Radix keys of (t, n, p, q) rows of a history up to ``horizon``, in balanced base
    6 horizon + 1 digits.  Its coordinates are at most sqrt(2) horizon in size, so keys
    subtract and sort as the rows do for differences of rows, and add as they do for
    chains of up to ``horizon`` steps."""
    return np.asarray(rows, dtype=np.int64) @ (6 * horizon + 1) ** np.arange(3, -1, -1, dtype=np.int64)


def _step_sets(hist: History) -> list[np.ndarray]:
    """Sorted keys of {k} x R_k, R_k the spatial displacements of k-link chains, k = 0..T."""
    sets = [np.zeros(1, dtype=np.int64)]
    for _ in range(hist.horizon):  # sort and drop repeats: np.unique would import numpy.ma
        sums = np.sort((sets[-1][:, None] + _keys(_STEP_ARRAY, hist.horizon)).ravel())
        sets.append(sums[np.diff(sums, prepend=sums[0] - 1) > 0])
    return sets


def _positive_definite(gram) -> bool:
    """Whether the symmetric integer matrix ``gram`` is positive definite: Sylvester's
    criterion, every leading minor an exact positive integer determinant."""
    g = np.asarray(gram)
    return all(det_exact(g[:k, :k]) > 0 for k in range(1, len(g) + 1))


def order_axioms(hist: History) -> dict[str, bool]:
    """Irreflexivity, antisymmetry and transitivity of the order on ``hist``.

    The order is its difference set, the keys of shells 1..T: irreflexive when the zero
    vector is not in it, antisymmetric when no member's negative is.  ``transitive``
    certifies the sumset inclusion B_j + B_k in B_{j+k} at every horizon: norm_sq3 is
    x G x / 2 with G = -``MINKOWSKI_GRAM[1:, 1:]``, whose leading minors 2, 3, 4 make it
    positive definite, so sqrt(norm_sq3) is a norm and its triangle inequality bounds
    every sum.  That implies transitivity on the history, and more: every sum of two
    shells' vectors with times adding up to at most T lies in the history.  It is also
    the premise of :func:`covariance_diagnostics`' closed-form pair counts.  The tests
    diff it against a sweep over every such sum.
    """
    difference = hist.keys[hist.offsets[1] :]
    return {
        "irreflexive": bool(rank_keys(difference, 0) < 0),
        "antisymmetric": bool((rank_keys(difference, -difference) < 0).all()),
        "transitive": _positive_definite(-MINKOWSKI_GRAM[1:, 1:]),
    }


def _parent_counts(hist: History) -> np.ndarray:
    """Number of in-history parents of each vertex."""
    return np.count_nonzero(hist.parent_links >= 0, axis=1)


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
    """(vertices below the top shell all 13 of whose children are in the history,
    vertices below the top shell): equal when none misses a child.  A vertex's
    children are the entries of the parent links that name it, one per step."""
    links = hist.parent_links
    kids = np.bincount(links[links >= 0], minlength=len(links))[: hist.offsets[-2]]
    return int(np.count_nonzero(kids == len(_STEP_ARRAY))), len(kids)


Point = tuple[int, int, int, int]  # one (t, n, p, q) row


@dataclass(frozen=True)
class CovarianceReport:
    comparable_pairs: int
    weakly_covariant: bool
    covariant: bool
    covariance_witness: tuple[Point, Point] | None
    orphan_count: int
    height_mismatch_count: int
    pathless_comparable_pairs: int
    pathless_sample: tuple[tuple[Point, Point], ...]
    parent_histogram: dict[int, dict[int, int]]


def covariance_diagnostics(hist: History) -> CovarianceReport:
    """Heights, weak covariance, covariance witness and reachability defects.

    Each of shell s's N(s) vertices precedes its translate of B_k in shell s + k and
    reaches the R_k part of it: over s >= 0, k >= 1, s + k <= T there are sum N(s) N(k)
    comparable and sum N(s) (N(k) - |R_k in B_k|) pathless pairs, given the inclusions
    B_s + B_k in B_{s+k} that :func:`order_axioms`' ``transitive`` certificate proves.
    The witness and samples come first in row-major order, found one row at a time.
    """
    keys, off = hist.keys, hist.offsets
    times = hist.coords[:, 0]

    # a vertex's height is 0 without parents, else one more than its highest
    # parent; parents lie one shell down, so shells are settled in time order.
    # Every link advances time by one step, so any existing chain from u to v
    # has length v.t - u.t; weak covariance can only fail if a link skipped a
    # shell, which the construction forbids.
    heights = np.zeros(len(times), dtype=np.int64)
    weakly_covariant = True
    for t in range(1, hist.horizon + 1):
        rows = slice(off[t], off[t + 1])
        links = hist.parent_links[rows]
        found = links >= 0
        weakly_covariant &= bool(((times[rows, None] - times[links])[found] == 1).all())
        heights[rows] = np.where(found, heights[links] + 1, 0).max(axis=1)

    orphan_count = int(np.count_nonzero((_parent_counts(hist) == 0) & (times > 0)))

    sizes, steps = np.diff(off).tolist(), _step_sets(hist)
    below = list(itertools.accumulate(sizes))[::-1]  # below[k]: vertices up to time T - k
    comparable = sum(sizes[k] * below[k] for k in range(1, len(sizes)))
    unreached = [n - np.count_nonzero(rank_keys(keys[off[k] : off[k + 1]], steps[k]) >= 0) for k, n in enumerate(sizes)]
    pathless = sum(unreached[k] * below[k] for k in range(1, len(sizes)))

    difference, chains = keys[off[1] :], np.concatenate(steps)

    def pair(u: int, v: int) -> tuple[Point, Point]:
        return tuple(map(tuple, hist.coords[[u, v]].tolist()))

    witness, sample = None, []
    for u in range(len(keys)):
        if witness is not None and len(sample) == min(5, pathless):
            break
        later, reached = (rank_keys(table, keys - keys[u]) >= 0 for table in (difference, chains))
        higher = np.flatnonzero((heights > heights[u]) & ~later)
        if witness is None and len(higher):
            witness = pair(u, higher[0])
        sample += [pair(u, v) for v in np.flatnonzero(later & ~reached)[: 5 - len(sample)]]

    return CovarianceReport(
        comparable_pairs=comparable,
        weakly_covariant=weakly_covariant,
        covariant=witness is None,
        covariance_witness=witness,
        orphan_count=orphan_count,
        height_mismatch_count=int(np.count_nonzero(heights != times)),
        pathless_comparable_pairs=pathless,
        pathless_sample=tuple(sample),
        parent_histogram=parent_histogram(hist),
    )


def construction_cross_check(hist: History) -> list[dict]:
    """Shell sizes of ``hist`` (norm enumeration) versus iterated one-step construction.

    The published account treats the two as interchangeable; they agree only
    up to t = 2, and the per-timestep report makes the divergence explicit.
    """
    return [
        {"t": t, "enumerated": size, "step_construction": len(reached), "equal": size == len(reached)}
        for t, (size, reached) in enumerate(zip(np.diff(hist.offsets).tolist(), _step_sets(hist)))
    ]


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
    return {"t": t, **_set_diff((s.norm_sq for s in average_speeds(t)), paperdata.SPEED_Q_PRINTED[t])}
