"""Lattice arithmetic: frozen examples plus algebraic property tests."""

from __future__ import annotations

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from causet_qft import lattice
from causet_qft.lattice import (
    MINKOWSKI_GRAM,
    TRIPLE_MATRICES,
    Vec4,
    norm_sq3_rows,
    rank_keys,
    rank_rows,
    vectors_with_norm,
    vectors_with_norm_up_to,
)
from oracles import (
    E3,
    F3,
    G3,
    ZERO3,
    Triple,
    Vec3,
    basic_triple,
    cartesian_norm_sq,
    cube_vectors_with_norm_up_to,
    inner3_doubled,
    minkowski_doubled,
    norm_sq3,
    norm_sq4,
    scaled,
    to_cartesian3,
    triples,
    unit_vectors3,
    units_triads_triples,
)

coords = st.integers(min_value=-50, max_value=50)
vec3s = st.builds(Vec3, coords, coords, coords)
vec4s = st.builds(Vec4, coords, coords, coords, coords)


def test_norm_sq3_examples():
    assert norm_sq3(E3) == 1
    assert norm_sq3(ZERO3) == 0
    assert norm_sq3(Vec3(2, 3, -1)) == 15


def test_inner3_doubled_examples():
    assert inner3_doubled(E3, F3) == 1
    assert inner3_doubled(E3, E3) == 2
    assert inner3_doubled(E3 - F3, F3 - G3) == -1


def test_norm_sq4_examples():
    assert norm_sq4(Vec4(1, 0, 0, 0)) == 1
    assert norm_sq4(Vec4(1, 1, 0, 0)) == 0
    assert norm_sq4(Vec4(3, 2, -1, 0)) == 6


def test_minkowski_doubled_examples():
    assert minkowski_doubled(Vec4(1, 0, 0, 0), Vec4(1, 0, 0, 0)) == 2
    assert minkowski_doubled(Vec4(0, 1, 0, 0), Vec4(0, 0, 1, 0)) == -1
    assert minkowski_doubled(Vec4(2, 1, 0, 0), Vec4(1, 1, 0, 0)) == 2


def test_unit_vectors():
    units = unit_vectors3()
    assert len(units) == 12
    expected = {E3, F3, G3, E3 - F3, E3 - G3, F3 - G3}
    expected |= {-v for v in expected}
    assert set(units) == expected
    assert all(norm_sq3(u) == 1 for u in units)
    assert {-u for u in units} == set(units)


def test_unit_vectors_brute_force_oracle():
    brute = {
        Vec3(n, p, q)
        for n, p, q in itertools.product(range(-2, 3), repeat=3)
        if norm_sq3(Vec3(n, p, q)) == 1
    }
    assert brute == set(unit_vectors3())
    # the stacked derivation gives the per-object enumeration's tuples, in its order
    units, triads, trips = units_triads_triples()
    assert (unit_vectors3(), triples()) == (units, trips)
    assert len(triads) == 8
    assert not TRIPLE_MATRICES.flags.writeable


def test_triads_and_triples():
    ts = triples()
    assert len(ts) == 24
    assert basic_triple() in ts
    # three cyclic rotations of every triad appear
    for t in ts:
        u, v, w = t.members()
        assert Triple(v, w, u) in ts
        assert Triple(w, u, v) in ts
    for t in ts:
        for a, b in itertools.combinations(t.members(), 2):
            assert inner3_doubled(a, b) == 1
        assert all(norm_sq3(m) == 1 for m in t.members())


def test_to_cartesian_examples():
    assert to_cartesian3(E3) == (1.0, 0.0, 0.0)
    assert to_cartesian3(ZERO3) == (0.0, 0.0, 0.0)
    gx, gy, gz = to_cartesian3(G3)
    assert gx == pytest.approx(0.5)
    assert gy == pytest.approx(1.0 / (2.0 * math.sqrt(3.0)))
    assert gz == pytest.approx(math.sqrt(2.0 / 3.0))


@given(vec3s)
def test_doubled_norm_is_sum_of_squares(u):
    n, p, q = u.coords()
    assert 2 * norm_sq3(u) == (n + p) ** 2 + (n + q) ** 2 + (p + q) ** 2


@given(vec3s)
def test_norm_dominates_half_euclidean(u):
    n, p, q = u.coords()
    assert 2 * norm_sq3(u) >= n * n + p * p + q * q


@given(vec3s, vec3s)
def test_inner_symmetric_and_consistent(u, v):
    assert inner3_doubled(u, v) == inner3_doubled(v, u)
    assert inner3_doubled(u, u) == 2 * norm_sq3(u)
    # polarization: Q(u+v) = Q(u) + Q(v) + <u,v>_doubled
    assert norm_sq3(u + v) == norm_sq3(u) + norm_sq3(v) + inner3_doubled(u, v)


@given(vec3s, vec3s, vec3s)
def test_inner_bilinear(u, v, w):
    assert inner3_doubled(u + v, w) == inner3_doubled(u, w) + inner3_doubled(v, w)


@given(vec4s, vec4s)
def test_minkowski_consistency(p, x):
    assert minkowski_doubled(p, p) == 2 * norm_sq4(p)
    assert minkowski_doubled(p, x) == minkowski_doubled(x, p)
    assert isinstance(minkowski_doubled(p, x), int)


def test_cartesian_preserves_form_on_random_vectors():
    rnd = random.Random(20240)
    for _ in range(1000):
        v = Vec3(rnd.randint(-50, 50), rnd.randint(-50, 50), rnd.randint(-50, 50))
        assert abs(cartesian_norm_sq(v) - norm_sq3(v)) < 1e-12 * max(1.0, norm_sq3(v))


def test_vectors_with_norm_up_to():
    vs = vectors_with_norm_up_to(1)
    assert vs.shape == (13, 3)
    assert list(ZERO3.coords()) in vs.tolist()
    assert vectors_with_norm_up_to(-1).shape == (0, 3)


def test_enumerator_matches_triple_loop():
    # every coordinate of a vector with norm_sq3 <= 64 is at most sqrt(128) < 12
    span = range(-12, 13)
    candidates = [(norm_sq3(Vec3(n, p, q)), [n, p, q]) for n in span for p in span for q in span]
    for limit in range(-1, 65):
        rows = vectors_with_norm_up_to(limit)
        assert rows.dtype == np.int64
        assert rows.tolist() == [c for q, c in candidates if q <= limit]
        assert vectors_with_norm(limit).tolist() == [c for q, c in candidates if q == limit]


def test_enumerator_equals_the_cube_oracle():
    """The per-column q intervals give the cube's filtered rows bit for bit."""
    for limit in [*range(-2, 401), 1600]:
        rows = vectors_with_norm_up_to(limit)
        assert rows.dtype == np.int64
        assert np.array_equal(rows, cube_vectors_with_norm_up_to(limit))


@pytest.mark.parametrize("limit", [145, 400, 1600])
def test_enumerator_guard_covers_the_traced_peak(monkeypatch, limit):
    """Past a few thousand points, where the guard can matter, its count covers the traced
    peak and is within three times of it."""
    needs = []
    monkeypatch.setattr(lattice, "require_memory", lambda need, what: needs.append(need))
    tracemalloc.start()
    try:
        rows = vectors_with_norm_up_to(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the guard's point count is the ellipsoid's volume, close to the lattice count
    assert abs(len(rows) / (4 * math.pi / 3 * math.sqrt(2) * limit**1.5) - 1) < 0.2
    assert peak <= needs[0] < 3 * peak


@given(st.lists(st.tuples(coords, coords, coords), max_size=20))
def test_norm_rows_match_scalar_norm(rows):
    array = np.array(rows, dtype=np.int64).reshape(-1, 3)
    got = norm_sq3_rows(array)
    assert got.tolist() == [norm_sq3(Vec3(*r)) for r in rows]
    # the enumerator's balls are those of the form that causet.order_axioms certifies
    assert (2 * got).tolist() == ((array @ -MINKOWSKI_GRAM[1:, 1:]) * array).sum(axis=1).tolist()


@given(vec4s, vec4s)
def test_gram_matrix_is_the_doubled_pairing(p, x):
    assert int(np.array(p.coords()) @ MINKOWSKI_GRAM @ np.array(x.coords())) == minkowski_doubled(p, x)


def test_rank_rows_matches_dict_lookup():
    rnd = random.Random(7)
    for width in (0, 1, 3, 4):
        pool = sorted({tuple(rnd.randint(-4, 4) for _ in range(width)) for _ in range(40)})
        table = [r for r in pool if rnd.random() < 0.6]
        index = {r: i for i, r in enumerate(table)}
        table_rows = np.array(table, dtype=np.int64).reshape(len(table), width)
        got = rank_rows(table_rows, np.array(pool, dtype=np.int64).reshape(len(pool), width))
        assert got.tolist() == [index.get(r, -1) for r in pool]
    assert rank_rows(np.zeros((0, 4), dtype=np.int64), np.ones((2, 4), dtype=np.int64)).tolist() == [-1, -1]


def test_rank_keys_reads_keys_of_any_sign():
    table = np.array([-5, -3, 0, 4])
    assert rank_keys(table, np.array([-6, -5, -4, -3, -1, 0, 4, 5])).tolist() == [-1, 0, -1, 1, -1, 2, 3, -1]
    # a key past the last one: an appended -1 sentinel would match the wanted -1 here
    assert rank_keys(np.array([-3, -2]), np.array([-1, -2])).tolist() == [-1, 1]
    assert rank_keys(np.zeros(0, dtype=np.int64), np.array([-1, 0])).tolist() == [-1, -1]
    assert rank_keys(table, 0) == 2 and rank_keys(table, 1) == -1


def test_module_structure():
    u = Vec3(3, -2, 5)
    assert u + (-u) == ZERO3
    assert 2 * u == u + u
    assert (u - u) == ZERO3
    w = Vec4(2, 1, 1, -1)
    assert scaled(3, w) == w + w + w
