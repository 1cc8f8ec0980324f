"""Causal-set structure: shells, order axioms, links, diagnostics, speeds."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from causet_qft.causet import (
    ORIGIN,
    CovarianceReport,
    average_speeds,
    children,
    construction_cross_check,
    covariance_diagnostics,
    history,
    in_cone,
    order_axioms,
    parent_histogram,
    parents,
    precedes,
    shell,
    speeds_paper_diff,
)
from causet_qft.lattice import Vec4, norm_sq4
from causet_qft.symmetry import elements
from oracles import equivariance_check, exact_square, path_lengths, reachable_from


def _shell_sizes(t_max):
    return np.diff(history(t_max).offsets).tolist()


def test_shell_sizes():
    assert _shell_sizes(3) == [1, 13, 55, 177]


def test_shell_small_cases():
    assert shell(0) == (ORIGIN,)
    s1 = shell(1)
    assert len(s1) == 13
    assert Vec4(1, 0, 0, 0) in s1
    assert Vec4(1, 1, 0, 0) in s1
    assert all(v.t == 1 and norm_sq4(v) >= 0 for v in s1)
    with pytest.raises(ValueError):
        shell(-1)


def test_shell_sizes_nondecreasing():
    sizes = _shell_sizes(5)
    assert all(sizes[i] <= sizes[i + 1] for i in range(len(sizes) - 1))


def test_precedes_basics():
    assert precedes(ORIGIN, Vec4(1, 1, 0, 0))
    assert not precedes(ORIGIN, ORIGIN)
    u, v = Vec4(1, 0, 0, 0), Vec4(2, 0, 0, 0)
    assert precedes(u, v) and not precedes(v, u)


def test_partial_order_axioms_exhaustive_on_history3():
    verts = history(3).vertices
    n = len(verts)
    assert n == 246
    rel = np.zeros((n, n), dtype=bool)
    for i, u in enumerate(verts):
        for j, v in enumerate(verts):
            rel[i, j] = precedes(u, v)
    assert not rel.diagonal().any()  # irreflexive
    assert not (rel & rel.T).any()  # antisymmetric
    composed = (rel.astype(np.int64) @ rel.astype(np.int64)) > 0
    assert not (composed & ~rel).any()  # transitive
    assert order_axioms(history(3).order) == {
        "irreflexive": True,
        "antisymmetric": True,
        "transitive": True,
    }


def test_order_axioms_transitivity_count_does_not_wrap():
    # 0 < k < 257 for 256 elements k, yet 0 and 257 are unrelated: the
    # intermediate count 256 is 0 modulo 256
    rel = np.zeros((258, 258), dtype=bool)
    rel[0, 1:257] = True
    rel[1:257, 257] = True
    assert ((rel.astype(np.uint8) @ rel.astype(np.uint8))[0, 257]) == 0
    assert order_axioms(rel) == {"irreflexive": True, "antisymmetric": True, "transitive": False}


def _covariance_oracle(hist) -> CovarianceReport:
    """The per-object diagnostics: parents, reachable sets and precedes pair by pair."""
    verts = hist.vertices
    vset = set(verts)
    heights = {}
    for v in verts:
        ps = [w for w in parents(v) if w in vset]
        heights[v] = 0 if not ps else 1 + max(heights[w] for w in ps)
    orphans = tuple(v for v in verts if v.t > 0 and not parents(v))
    comparable = 0
    pathless = []
    for u in verts:
        reach = reachable_from(u, hist)
        for v in verts:
            if precedes(u, v):
                comparable += 1
                if v not in reach:
                    pathless.append((u, v))
    witness = next(
        ((u, v) for u in verts for v in verts if heights[u] < heights[v] and not precedes(u, v)),
        None,
    )
    return CovarianceReport(
        horizon=hist.horizon,
        vertex_count=len(verts),
        comparable_pairs=comparable,
        weakly_covariant=all(c.t == w.t + 1 for w in verts for c in children(w)),
        covariant=witness is None,
        covariance_witness=witness,
        orphan_count=len(orphans),
        orphans_sample=orphans[:5],
        height_mismatch_count=sum(1 for v in verts if heights[v] != v.t),
        pathless_comparable_pairs=len(pathless),
        pathless_sample=tuple(pathless[:5]),
        parent_histogram=_parent_histogram_oracle(hist),
    )


def _parent_histogram_oracle(hist) -> dict[int, dict[int, int]]:
    vset = set(hist.vertices)
    histogram = {}
    for v in hist.vertices:
        counts = histogram.setdefault(v.t, {})
        k = len([w for w in parents(v) if w in vset])
        counts[k] = counts.get(k, 0) + 1
    return histogram


def _cone_oracle(horizon):
    """Cone vertices up to ``horizon``, one ``Vec4`` at a time, in (t, n, p, q) order."""
    span = range(-2 * horizon - 1, 2 * horizon + 2)
    return [
        v
        for t in range(horizon + 1)
        for v in (Vec4(t, n, p, q) for n, p, q in itertools.product(span, repeat=3))
        if in_cone(v)
    ]


def test_history_coords_match_per_object_shells():
    oracle = _cone_oracle(6)
    for t in range(7):
        hist = history(t)
        verts = [v for v in oracle if v.t <= t]
        assert hist.coords.dtype == np.int32
        assert hist.coords.tolist() == [list(v.coords()) for v in verts]
        assert hist.offsets == tuple(
            itertools.accumulate((sum(v.t == s for v in verts) for s in range(t + 1)), initial=0)
        )
        for s in range(t + 1):
            assert list(shell(s)) == [v for v in verts if v.t == s]


@pytest.mark.parametrize("t", range(4))
def test_arrays_match_per_object_oracles(t):
    hist = history(t)
    verts = hist.vertices
    index = {v: i for i, v in enumerate(verts)}
    assert [Vec4(*row) for row in hist.coords.tolist()] == list(verts)
    assert hist.order.tolist() == [[precedes(u, v) for v in verts] for u in verts]
    for i, v in enumerate(verts):
        assert hist.links[i].tolist() == [index.get(c, -1) for c in children(v)]
        assert [verts[j] for j in np.flatnonzero((hist.links == i).any(axis=1))] == list(parents(v))
        assert {verts[j] for j in np.flatnonzero(hist.reachable[i])} == reachable_from(v, hist)


@pytest.mark.parametrize("t", range(4))
def test_covariance_diagnostics_match_per_object_oracle(t):
    hist = history(t)
    assert covariance_diagnostics(hist) == _covariance_oracle(hist)


def test_parent_histogram_matches_per_object_oracle():
    # from shell 6 on, parent counts first appear out of numeric order; the
    # text report lists them in order of appearance
    hist = history(7)
    got, want = parent_histogram(hist), _parent_histogram_oracle(hist)
    assert [(t, list(c.items())) for t, c in got.items()] == [
        (t, list(c.items())) for t, c in want.items()
    ]


def test_covariance_diagnostics_history5():
    # new data past the published horizon, first confirmed against the
    # per-vertex reachable sets of reachable_from
    rep = covariance_diagnostics(history(5))
    assert rep.vertex_count == 1394
    assert rep.comparable_pairs == 39995
    assert rep.pathless_comparable_pairs == 3284
    assert rep.height_mismatch_count == 308
    assert rep.weakly_covariant
    assert not rep.covariant


def test_children():
    kids = children(ORIGIN)
    assert len(kids) == 13
    assert set(kids) == set(shell(1))
    for v in history(3).vertices:
        ks = children(v)
        assert len(ks) == 13
        assert all(in_cone(c) for c in ks)
        assert all(norm_sq4(c - v) in (0, 1) for c in ks)
        assert set(ks) <= set(shell(v.t + 1))


def test_parents():
    assert parents(ORIGIN) == ()
    assert parents(Vec4(1, 1, 0, 0)) == (ORIGIN,)
    # children and parents are converse relations inside the cone
    for v in shell(2)[:20]:
        for c in children(v):
            assert v in parents(c)
    # vertices with no parents exist from t = 3 on
    orphan = Vec4(3, -3, -1, 2)
    assert in_cone(orphan)
    assert parents(orphan) == ()


def test_path_lengths_examples():
    assert path_lengths(ORIGIN, Vec4(2, 0, 0, 0)) == frozenset({2})
    child = Vec4(1, 1, 0, 0)
    assert path_lengths(ORIGIN, child) == frozenset({1})
    with pytest.raises(ValueError):
        path_lengths(Vec4(1, 0, 0, 0), ORIGIN)


def test_path_lengths_can_be_empty():
    # causally comparable yet unreachable by links: no chain exists
    orphan = Vec4(3, -3, -1, 2)
    assert precedes(ORIGIN, orphan)
    assert path_lengths(ORIGIN, orphan) == frozenset()


def test_path_lengths_sample_limit():
    target = Vec4(3, 0, 0, 0)
    assert path_lengths(ORIGIN, target, sample_limit=5) == frozenset({3})


def test_all_existing_paths_have_shell_difference_length():
    # the depth-first search finds no chain exactly for the pairs the
    # array reachability calls pathless, and every chain it finds has the
    # shell-difference length
    hist = history(3)
    verts = hist.vertices
    pathless = hist.order & ~hist.reachable
    for i, j in np.argwhere(hist.order):
        u, v = verts[i], verts[j]
        lengths = path_lengths(u, v, sample_limit=50)
        assert lengths == (frozenset() if pathless[i, j] else frozenset({v.t - u.t}))


def test_covariance_diagnostics_history3():
    rep = covariance_diagnostics(history(3))
    assert rep.vertex_count == 246
    assert rep.comparable_pairs == 1844
    assert rep.weakly_covariant
    assert not rep.covariant
    assert rep.covariance_witness is not None
    u, v = rep.covariance_witness
    assert not precedes(u, v)
    # reachability defects discovered by the machine check: 30 vertices of the
    # third shell have no parents, and exactly the origin-to-orphan pairs are
    # comparable without any connecting chain
    assert rep.orphan_count == 30
    assert rep.height_mismatch_count == 30
    assert rep.pathless_comparable_pairs == 30
    assert all(o.t == 3 for o in rep.orphans_sample)


def test_covariance_diagnostics_trivial_history():
    rep = covariance_diagnostics(history(0))
    assert rep.weakly_covariant
    assert rep.covariant
    assert rep.comparable_pairs == 0


def test_parent_histogram_totals():
    rep = covariance_diagnostics(history(3))
    for t, counts in rep.parent_histogram.items():
        assert sum(counts.values()) == len(shell(t))
    assert rep.parent_histogram[0] == {0: 1}
    assert rep.parent_histogram[1] == {1: 13}


def test_construction_cross_check():
    rows = construction_cross_check(history(3))
    assert [r["equal"] for r in rows] == [True, True, True, False]
    assert rows[2]["enumerated"] == 55
    assert rows[3]["enumerated"] == 177
    assert rows[3]["step_construction"] == 147


def test_equivariance():
    assert equivariance_check(3, elements())


def test_average_speeds_small_t():
    s1 = average_speeds(1)
    assert [s.norm_sq for s in s1] == [0, 1]
    s2 = average_speeds(2)
    assert [s.norm_sq for s in s2] == [0, 1, 2, 3, 4]
    assert [round(s.value, 10) for s in s2] == [
        round(x, 10) for x in (0.0, 0.5, math.sqrt(2) / 2, math.sqrt(3) / 2, 1.0)
    ]
    with pytest.raises(ValueError):
        average_speeds(0)


def test_average_speeds_oracle_t45():
    assert [s.norm_sq for s in average_speeds(4)] == [q for q in range(17) if q != 14]
    assert [s.norm_sq for s in average_speeds(5)] == [q for q in range(26) if q != 14]


def test_speeds_paper_diff():
    for t in (1, 2, 3):
        d = speeds_paper_diff(t)
        assert d["agree"], d
    d4 = speeds_paper_diff(4)
    assert d4["computed_only"] == (1, 2)
    assert d4["printed_only"] == (14,)
    d5 = speeds_paper_diff(5)
    assert d5["computed_only"] == (3, 5, 8, 10, 11)
    assert d5["printed_only"] == (14,)
    with pytest.raises(ValueError):
        speeds_paper_diff(6)


def test_speed_exact_square():
    from fractions import Fraction

    s = average_speeds(4)[3]
    assert exact_square(s) == Fraction(s.norm_sq, 16)
