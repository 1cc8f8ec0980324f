"""Energy-momentum spectra, hyperboloids, and the discrete Poincare product."""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from causet_qft import cli, momentum
from causet_qft.lattice import Vec4, rank_rows
from causet_qft.momentum import (
    Hyperboloid,
    attainable_spatial_norms,
    hyperboloid,
    hyperboloid_invariance_defect,
    mass_shell_defect,
    mass_squared_rows,
    mass_table_paper_diff,
    spatial_norms_paper_diff,
)
from causet_qft.symmetry import apply4, element, elements
from oracles import (
    PoincareElement,
    Vec3,
    attainable_spatial_norms_by_enumeration,
    hyperboloid_coords,
    mass_squared_values,
    norm_sq3,
    norm_sq4,
    on_hyperboloid,
    poincare_apply,
    poincare_identity,
    poincare_inverse,
    poincare_product,
    rows,
)


def test_attainable_small():
    assert attainable_spatial_norms(1) == (0, 1)
    assert attainable_spatial_norms(13) == tuple(range(14))
    a16 = attainable_spatial_norms(16)
    assert 15 in a16 and 14 not in a16
    with pytest.raises(ValueError):
        attainable_spatial_norms(-1)


def test_attainable_norms_match_triple_loop():
    limit = 144
    span = range(-17, 18)  # a coordinate of a vector of norm <= 144 is at most sqrt(288)
    values = {norm_sq3(Vec3(*c)) for c in itertools.product(span, repeat=3)}
    assert attainable_spatial_norms(limit) == tuple(sorted(v for v in values if v <= limit))


def test_attainable_norms_match_the_enumeration_up_to_2500():
    """Legendre's sieve gives the values the enumeration of the whole ball finds up to 2500,
    and their prefix at limits on and beside the excluded values 4^k (16b + 14)."""
    enumerated = attainable_spatial_norms_by_enumeration(2500)
    assert attainable_spatial_norms(2500) == enumerated
    for limit in [0, 1, 13, 14, 15, 29, 30, 31, 55, 56, 57, 223, 224, 225, 1000, 2499]:
        assert attainable_spatial_norms(limit) == tuple(v for v in enumerated if v <= limit)


@pytest.mark.parametrize("p0_max", [30, 60, 100])
def test_masses_guard_covers_the_traced_peak(monkeypatch, p0_max):
    """The larger of the sieve's and the mass table's counts covers a masses run's traced
    peak, rendering included, and is within twice of it."""
    needs = []
    monkeypatch.setattr(momentum, "require_memory", lambda need, what: needs.append(need))
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--format", "json", "masses", "--p0-max", str(p0_max)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and len(needs) == 2
    assert peak <= max(needs) < 2 * peak


def test_attainable_49_oracle():
    # 2Q must be a sum of three squares; the excluded values below 50 are
    # exactly 14, 30, 46
    expected = tuple(q for q in range(50) if q not in (14, 30, 46))
    assert attainable_spatial_norms(49) == expected


def test_spatial_norms_paper_diff():
    d = spatial_norms_paper_diff(attainable_spatial_norms(60), 49)
    assert d["printed_only"] == ()
    assert d["computed_only"] == (15, 17, 20, 22, 29, 32, 34, 40, 41, 42, 44, 45, 47, 48)
    assert not d["agree"]


def test_mass_squared_rows_match_table_up_to_three():
    rows = mass_table_paper_diff(mass_squared_rows(attainable_spatial_norms(100), 9))
    assert [row["p0"] for row in rows] == list(range(8))
    for row in rows[:4]:
        assert row["agree"], row
    assert any(not row["agree"] for row in rows[4:])


def test_mass_squared_oracle_rows():
    assert mass_squared_values(0) == (0,)
    assert mass_squared_values(1) == (0, 1)
    assert mass_squared_values(4) == tuple(v for v in range(17) if v != 2)
    assert 1 in mass_squared_values(4)  # via the spatial norm 15 the table omits
    assert mass_squared_values(5) == tuple(v for v in range(26) if v != 11)
    assert mass_squared_values(6) == tuple(v for v in range(37) if v not in (6, 22))
    assert mass_squared_values(7) == tuple(v for v in range(50) if v not in (3, 19, 35))


@pytest.mark.parametrize("k", range(21))
def test_mass_squared_rows_match_the_per_energy_loop(k):
    """One enumeration up to max(k^2, 49) gives each energy's row, as an enumeration per
    energy does; the norms past k^2 are never read."""
    assert mass_squared_rows(attainable_spatial_norms(max(k * k, 49)), k) == [
        mass_squared_values(p0) for p0 in range(k + 1)
    ]


@pytest.mark.parametrize("mass_sq", [0, 1, 2, 3, 4, 5, 7, 8, 9, 14, 16, 30, 49, 50])
@pytest.mark.parametrize("cap", [0, 1, 2, 3, 5, 7, 9])
def test_hyperboloid_matches_the_per_energy_loop(mass_sq, cap):
    """One enumeration up to cap^2 - mass_sq and a stable sort by energy give the rows
    an enumeration per energy gives, empty shells and massive ones included."""
    coords = hyperboloid(mass_sq, cap).coords
    assert coords.dtype == np.int64 and coords.shape[1] == 4
    assert np.array_equal(coords, hyperboloid_coords(mass_sq, cap))


def test_hyperboloid_examples():
    h = hyperboloid(1, 1)
    assert h.points == (Vec4(1, 0, 0, 0),)
    h0 = hyperboloid(0, 1)
    assert len(h0) == 13
    assert h0.points[0] == Vec4(0, 0, 0, 0)
    assert all(norm_sq4(p) == 0 for p in h0.points)
    h4 = hyperboloid(4, 2)
    assert h4.points == (Vec4(2, 0, 0, 0),)
    with pytest.raises(ValueError):
        hyperboloid(-1, 1)
    with pytest.raises(ValueError):
        hyperboloid(0, -1)


def test_hyperboloid_ordering_and_index():
    h = hyperboloid(0, 2)
    assert list(h.points) == sorted(h.points, key=lambda p: p.coords())
    # a point's index is its row: ranking the rows looks each point up
    assert rank_rows(h.coords, rows(h.points)).tolist() == list(range(len(h)))
    assert rank_rows(h.coords, rows([Vec4(5, 0, 0, 0)])).tolist() == [-1]


def test_hyperboloid_group_invariance():
    for mass_sq, cap in ((0, 1), (0, 2), (1, 2), (4, 3)):
        h = hyperboloid(mass_sq, cap)
        assert hyperboloid_invariance_defect(h) == 0
        for z in elements():
            perm = h.permutation_under(z)
            assert sorted(perm) == list(range(len(h)))


def test_mass_integrality():
    h = hyperboloid(2, 3)
    for p in h.points:
        assert isinstance(norm_sq4(p), int)
        assert norm_sq4(p) == 2


def test_mass_shell_defect():
    for mass_sq, cap in ((0, 1), (1, 2), (2, 3), (4, 3)):
        h = hyperboloid(mass_sq, cap)
        assert mass_shell_defect(h) == max(abs(norm_sq4(p) - mass_sq) for p in h.points) == 0
    # (1, 1, 0, 0) is light-like, so it misses the mass-1 shell by exactly 1
    off_shell = Hyperboloid(mass_sq=1, p_max=1, coords=np.array([[1, 0, 0, 0], [1, 1, 0, 0]]))
    assert mass_shell_defect(off_shell) == 1


@pytest.mark.parametrize("mass_sq, cap", [(0, 2), (3, 3), (1, 4)])
def test_index_and_permutation_match_apply4(mass_sq, cap):
    h = hyperboloid(mass_sq, cap)
    span = range(-2 * cap - 1, 2 * cap + 2)
    cands = (Vec4(t, *c) for t in range(cap + 1) for c in itertools.product(span, repeat=3))
    assert list(h.points) == sorted((v for v in cands if norm_sq4(v) == mass_sq), key=Vec4.coords)
    position = {p: i for i, p in enumerate(h.points)}
    assert rank_rows(h.coords, rows(h.points)).tolist() == [position[p] for p in h.points]
    assert all(on_hyperboloid(p, h) for p in h.points)
    for z in elements():
        assert h.permutation_under(z).tolist() == [position[apply4(z, p)] for p in h.points]
    outside = Vec4(cap + 1, 0, 0, 0)
    assert not on_hyperboloid(outside, h)
    assert rank_rows(h.coords, rows([outside])).tolist() == [-1]


def test_open_point_set_counts_and_raises():
    # a point set the rotations do not close: two points of the 13-point shell
    h = Hyperboloid(mass_sq=0, p_max=1, coords=np.array([[1, 0, 0, 0], [1, 1, 0, 0]]))
    outside = [(z, p) for z in elements() for p in h.points if apply4(z, p) not in set(h.points)]
    assert len(outside) == 22  # (1, 1, 0, 0) stays put under 2 of the 24 rotations
    assert hyperboloid_invariance_defect(h) == len(outside)
    with pytest.raises(ValueError, match="not on the truncated hyperboloid"):
        h.permutation_under(outside[0][0])


def test_hyperboloids_built_twice_are_equal():
    assert hyperboloid(3, 3) == hyperboloid(3, 3)
    assert hyperboloid(3, 3) != hyperboloid(3, 4)
    assert hyperboloid(0, 2) != hyperboloid(1, 2)


def _random_poincare(rnd):
    return PoincareElement(
        Vec4(*(rnd.randint(-5, 5) for _ in range(4))),
        elements()[rnd.randrange(24)],
    )


def test_poincare_identity_and_inverse():
    ident = poincare_identity(element("I"))
    rnd = random.Random(9)
    for _ in range(50):
        g = _random_poincare(rnd)
        assert poincare_product(ident, g) == g
        assert poincare_product(g, ident) == g
        gi = poincare_inverse(g)
        assert poincare_product(gi, g) == ident
        assert poincare_product(g, gi) == ident


def test_poincare_associativity():
    rnd = random.Random(10)
    for _ in range(100):
        g1, g2, g3 = (_random_poincare(rnd) for _ in range(3))
        assert poincare_product(poincare_product(g1, g2), g3) == poincare_product(
            g1, poincare_product(g2, g3)
        )


def test_poincare_action_consistency():
    rnd = random.Random(11)
    for _ in range(100):
        g1, g2 = _random_poincare(rnd), _random_poincare(rnd)
        x = Vec4(*(rnd.randint(-5, 5) for _ in range(4)))
        assert poincare_apply(poincare_product(g1, g2), x) == poincare_apply(g1, poincare_apply(g2, x))


def test_rotation_preserves_hyperboloid_membership():
    h = hyperboloid(1, 3)
    for z in elements():
        for p in h.points:
            assert on_hyperboloid(apply4(z, p), h)
