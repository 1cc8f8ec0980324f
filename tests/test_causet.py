"""Causal-set structure: shells, order axioms, links, diagnostics, speeds."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from causet_qft import causet
from causet_qft.causet import (
    CovarianceReport,
    History,
    average_speeds,
    complete_children,
    construction_cross_check,
    covariance_diagnostics,
    history,
    order_axioms,
    parent_histogram,
    speeds_paper_diff,
)
from causet_qft.lattice import MINKOWSKI_GRAM
import oracles
from oracles import (
    ORIGIN,
    Vec4,
    causal_order,
    children,
    elements,
    equivariance_check,
    exact_square,
    in_cone,
    link_array,
    link_reachability,
    norm_sq4,
    parents,
    path_lengths,
    precedes,
    reachable_from,
    shell,
    vertices,
)

_STEPS = [Vec4(*row) for row in causet._STEP_ARRAY.tolist()]


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
    verts = vertices(history(3))
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
    assert order_axioms(history(3)) == {
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
    assert oracles.order_axioms(rel) == {"irreflexive": True, "antisymmetric": True, "transitive": False}


def _covariance_oracle(hist) -> CovarianceReport:
    """The per-object diagnostics: parents, reachable sets and precedes pair by pair."""
    verts = vertices(hist)
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
                    pathless.append((u.coords(), v.coords()))
    witness = next(
        ((u.coords(), v.coords()) for u in verts for v in verts if heights[u] < heights[v] and not precedes(u, v)),
        None,
    )
    return CovarianceReport(
        comparable_pairs=comparable,
        weakly_covariant=all(c.t == w.t + 1 for w in verts for c in children(w)),
        covariant=witness is None,
        covariance_witness=witness,
        orphan_count=len(orphans),
        height_mismatch_count=sum(1 for v in verts if heights[v] != v.t),
        pathless_comparable_pairs=len(pathless),
        pathless_sample=tuple(pathless[:5]),
        parent_histogram=_parent_histogram_oracle(hist),
    )


def _parent_histogram_oracle(hist) -> dict[int, dict[int, int]]:
    vset = set(vertices(hist))
    histogram = {}
    for v in vertices(hist):
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


def _child_links(parent_links: np.ndarray) -> np.ndarray:
    """The V x 13 child indices the parent links name: u's child by step j is the
    vertex whose column j is u."""
    kids = np.full_like(parent_links, -1)
    v, j = np.nonzero(parent_links >= 0)
    kids[parent_links[v, j], j] = v
    return kids


@pytest.mark.parametrize("t", range(4))
def test_arrays_match_per_object_oracles(t):
    hist = history(t)
    verts = vertices(hist)
    index = {v: i for i, v in enumerate(verts)}
    assert [Vec4(*row) for row in hist.coords.tolist()] == list(verts)
    assert causal_order(hist.coords).tolist() == [[precedes(u, v) for v in verts] for u in verts]
    reachable = link_reachability(link_array(hist.coords), hist.offsets)
    kids = _child_links(hist.parent_links)
    for i, v in enumerate(verts):
        assert hist.parent_links[i].tolist() == [index.get(v - s, -1) for s in _STEPS]
        # ``parents`` sorts its vertices, v minus the steps in reverse step order
        assert [verts[j] for j in hist.parent_links[i, ::-1] if j >= 0] == list(parents(v))
        assert kids[i].tolist() == [index.get(c, -1) for c in children(v)]
        assert {verts[j] for j in np.flatnonzero(reachable[i])} == reachable_from(v, hist)


def test_parent_links_invert_the_grid_child_array_at_t8():
    hist = history(8)
    kids = _child_links(hist.parent_links)
    want = link_array(hist.coords)
    assert kids.dtype == want.dtype and np.array_equal(kids, want)


def test_parent_links_at_t0_look_nothing_up():
    # at T = 0 the radix base 6T + 1 is 1, so keys collide: shell 0, with no shell
    # below it, must look nothing up
    hist = history(0)
    assert hist.parent_links.tolist() == [[-1] * 13]
    assert parent_histogram(hist) == {0: {0: 1}}
    assert complete_children(hist) == (0, 0)


def test_parent_links_read_negative_keys():
    # a hand-made shell 1 at times -1 and 1: only (1, 0, 0, 0) is a step from the origin
    hist = History(1, np.array([[0, 0, 0, 0], [-1, 0, 0, 0], [1, 0, 0, 0]], dtype=np.int32), (0, 1, 3))
    assert hist.keys[1] < 0
    want = np.full((3, 13), -1)
    want[2, _STEPS.index(Vec4(1, 0, 0, 0))] = 0
    assert hist.parent_links.tolist() == want.tolist()


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
    hist = history(5)
    rep = covariance_diagnostics(hist)
    assert len(hist.coords) == 1394
    assert rep.comparable_pairs == 39995
    assert rep.pathless_comparable_pairs == 3284
    assert rep.height_mismatch_count == 308
    assert rep.weakly_covariant
    assert not rep.covariant


def test_children():
    kids = children(ORIGIN)
    assert len(kids) == 13
    assert set(kids) == set(shell(1))
    for v in vertices(history(3)):
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
    verts = vertices(hist)
    order = causal_order(hist.coords)
    pathless = order & ~link_reachability(link_array(hist.coords), hist.offsets)
    for i, j in np.argwhere(order):
        u, v = verts[i], verts[j]
        lengths = path_lengths(u, v, sample_limit=50)
        assert lengths == (frozenset() if pathless[i, j] else frozenset({v.t - u.t}))


def test_covariance_diagnostics_history3():
    hist = history(3)
    rep = covariance_diagnostics(hist)
    assert len(hist.coords) == 246
    assert rep.comparable_pairs == 1844
    assert rep.weakly_covariant
    assert not rep.covariant
    assert rep.covariance_witness is not None
    u, v = rep.covariance_witness
    assert not precedes(Vec4(*u), Vec4(*v))
    # reachability defects discovered by the machine check: 30 vertices of the
    # third shell have no parents, and exactly the origin-to-orphan pairs are
    # comparable without any connecting chain
    assert rep.orphan_count == 30
    assert rep.height_mismatch_count == 30
    assert rep.pathless_comparable_pairs == 30
    assert all(u[0] == 0 and v[0] == 3 for u, v in rep.pathless_sample)


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


def test_construction_cross_check_matches_vector_sets():
    reachable = {ORIGIN}
    want = [1]
    for _ in range(5):
        reachable = {c for w in reachable for c in children(w)}
        want.append(len(reachable))
    assert [r["step_construction"] for r in construction_cross_check(history(5))] == want


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


@pytest.mark.parametrize("t", range(7))
def test_shell_counts_match_the_vxv_oracles(t):
    hist = history(t)
    assert order_axioms(hist) == oracles.order_axioms(causal_order(hist.coords))
    assert covariance_diagnostics(hist) == oracles.covariance_diagnostics(hist)


def test_pair_counts_history8():
    hist = history(8)
    rep = covariance_diagnostics(hist)
    assert len(hist.coords) == 7831
    assert rep.comparable_pairs == 1005258
    assert rep.pathless_comparable_pairs == 173384


@pytest.mark.parametrize("dropped", [Vec4(2, 0, 0, 0), Vec4(2, -2, 0, 0), Vec4(2, 2, 0, 0)])
def test_sumset_check_sees_a_missing_ball_point(dropped):
    # each dropped point is the sum of a first-shell point with itself, so B_1 + B_1
    # leaves the second shell: inside its key span, or past its first or last key
    hist = history(4)
    row = hist.offsets[2] + vertices(hist)[hist.offsets[2] : hist.offsets[3]].index(dropped)
    offsets = tuple(o - (i > 2) for i, o in enumerate(hist.offsets))
    holed = History(hist.horizon, np.delete(hist.coords, row, axis=0), offsets)
    assert np.diff(holed.offsets).tolist() == [1, 13, 54, 177, 381]
    assert not oracles.sumsets_inside(holed)
    # a subset of a transitive relation stays transitive: the sumset check is stronger
    assert order_axioms(holed) == {"irreflexive": True, "antisymmetric": True, "transitive": True}
    assert order_axioms(holed)["transitive"] == oracles.order_axioms(causal_order(holed.coords))["transitive"]
    assert oracles.sumsets_inside(hist)
    assert order_axioms(hist)["transitive"]


@pytest.mark.parametrize("t", range(13))
def test_transitivity_certificate_matches_the_sumset_sweep(t):
    hist = history(t)
    assert oracles.sumsets_inside(hist) == order_axioms(hist)["transitive"]


@pytest.mark.parametrize(
    "gram, definite",
    [
        (-MINKOWSKI_GRAM[1:, 1:], True),  # G, leading minors 2, 3, 4
        ([[1, 2, 0], [2, 1, 0], [0, 0, 1]], False),  # indefinite: minors 1, -3
        ([[1, 1, 0], [1, 1, 0], [0, 0, 1]], False),  # semidefinite and singular: minors 1, 0
        (MINKOWSKI_GRAM[1:, 1:], False),  # -G
        (MINKOWSKI_GRAM, False),  # the Lorentzian form
    ],
    ids=["G", "indefinite", "singular", "minus_G", "lorentzian"],
)
def test_transitivity_certificate_refuses_forms_that_are_not_definite(gram, definite):
    assert causet._positive_definite(gram) is definite


def test_order_axioms_read_the_difference_set():
    # hand-made shells 1 whose keys hold a vector and its negative, or the zero vector
    mirrored = History(1, np.array([[0, 0, 0, 0], [-1, 0, 0, 0], [1, 0, 0, 0]], dtype=np.int32), (0, 1, 3))
    assert order_axioms(mirrored) == {"irreflexive": True, "antisymmetric": False, "transitive": True}
    zero = History(1, np.zeros((2, 4), dtype=np.int32), (0, 1, 2))
    assert order_axioms(zero) == {"irreflexive": False, "antisymmetric": False, "transitive": True}


@pytest.mark.parametrize("t", [6, 9, 12])
def test_memory_guard_covers_the_traced_peak(monkeypatch, t):
    """The guard's per-vertex figure covers the traced peak of a causet-verify run, and
    is within twice of it."""
    needs = []
    monkeypatch.setattr(causet, "require_memory", lambda need, what: needs.append(need))
    tracemalloc.start()
    try:
        hist = history(t)
        order_axioms(hist)
        covariance_diagnostics(hist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert needs == [causet._VERTEX_BYTES * len(hist.coords)]
    assert peak <= needs[0] < 2 * peak


def test_diagnostics_hold_no_per_step_block():
    """The order axioms and covariance diagnostics at t = 12 trace under 200 bytes per
    vertex, history included: no V x 13 x 4 child block or coordinate grid is formed."""
    tracemalloc.start()
    try:
        hist = history(12)
        order_axioms(hist)
        covariance_diagnostics(hist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * len(hist.coords)
