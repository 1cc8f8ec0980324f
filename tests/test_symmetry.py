"""Group structure: elements, table, subgroups, generators, lift, boost search."""

from __future__ import annotations

import dataclasses
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from causet_qft import paperdata, symmetry
from causet_qft.lattice import det_exact
from causet_qft.momentum import hyperboloid
from causet_qft.representations import CAL_U
from causet_qft.symmetry import (
    ELEMENT_PRINT_DIFFS,
    build_table,
    generate_from,
    isometry_report,
    no_boost_search,
    pairwise_generators,
    preserves_minkowski_form,
    table_diff_vs_printed,
    verify_subgroups,
)
from oracles import (
    E3,
    F3,
    G3,
    Vec3,
    Vec4,
    apply3,
    apply4,
    boost_solutions_scan,
    element,
    elements,
    inner3_doubled,
    inverse,
    leibniz_det,
    lift_to4,
    matmul3,
    minkowski_doubled,
    multiply,
    no_boost_search_grid,
    no_boost_search_scan,
    norm_sq4,
    product_table_by_pairs,
    spatial,
    table_entry,
)


def test_element_count_and_identity():
    els = elements()
    assert len(els) == 24
    assert element("I").matrix == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_matrices_match_the_element_oracle():
    """The stack against the elements built one object at a time from the triples and
    the printed listing, and each label's index its row."""
    assert np.array_equal(symmetry.MATRICES, [z.matrix for z in elements()])
    assert [symmetry.index(z.label) for z in elements()] == list(range(24))


def test_cycle_element_action():
    a = element("A")
    assert apply3(a, E3) == F3
    assert apply3(a, F3) == G3
    assert apply3(a, G3) == E3


def test_printed_listing_diff_is_exactly_one_element():
    # the published listing misprints one matrix; label attachment recovers it
    assert len(ELEMENT_PRINT_DIFFS) == 1
    diff = ELEMENT_PRINT_DIFFS[0]
    assert diff["label"] == "M"
    assert diff["printed"] == paperdata.ELEMENT_MATRICES_PRINTED["M"]
    assert diff["derived"] == ((1, 1, 1), (0, -1, 0), (0, 0, -1))
    assert element("M").matrix == diff["derived"]


def test_multiply_examples():
    a, m, n = element("A"), element("M"), element("N")
    assert multiply(a, a).label == "B"
    for z in elements():
        assert multiply(element("I"), z) == z
        assert multiply(z, element("I")) == z
    assert multiply(m, n).label == "E"


def test_product_table_matches_per_pair_products():
    assert np.array_equal(symmetry.PRODUCT_INDEX, product_table_by_pairs(elements()))
    assert not symmetry.PRODUCT_INDEX.flags.writeable and not symmetry.MATRICES.flags.writeable


def test_multiply_is_the_matrix_product():
    for y in elements():
        for z in elements():
            assert multiply(y, z).matrix == matmul3(y.matrix, z.matrix)


def test_table_laws_and_printed_match():
    table = build_table()
    assert table.latin_square
    assert table.associative
    assert table.inverses
    assert table_entry(table, "G", "H") == "I"
    assert table_entry(table, "J", "J") == "I"
    assert table_diff_vs_printed(table) == []


def test_inverses_exist():
    for z in elements():
        assert multiply(z, inverse(z)).label == "I"
        assert multiply(inverse(z), z).label == "I"
        assert matmul3(z.matrix, inverse(z).matrix) == element("I").matrix


def test_build_table_reads_inverses_off_the_table(monkeypatch):
    table = symmetry.PRODUCT_INDEX
    no_identity = table.copy()
    no_identity[1, 2] = 1  # A * B = I read as A: row A holds no identity
    # A * C = I read instead of A * B = I, but C * A is not I: a one-sided inverse
    one_sided = table.copy()
    one_sided[1, [2, 3]] = table[1, [3, 2]]
    for corrupt in (no_identity, one_sided):
        monkeypatch.setattr(symmetry, "PRODUCT_INDEX", corrupt)
        assert not build_table().inverses


def test_generate_from():
    i, a, b, m, n = map(symmetry.index, "IABMN")
    assert generate_from([m, n]).tolist() == list(range(24))
    assert generate_from([i]).tolist() == [i]
    assert generate_from([b, a]).tolist() == sorted([i, a, b])
    with pytest.raises(ValueError):
        generate_from([])


def test_verify_subgroups_all_pass():
    results = verify_subgroups()
    assert len(results) == len(paperdata.SUBGROUP_CANDIDATES_PRINTED)
    for res in results:
        assert res["subgroup"], f"candidate {res['labels']} failed"
    # the four-element candidate is a genuine (cyclic) subgroup
    wjx = next(r for r in results if set(r["labels"]) == {"I", "W", "J", "X"})
    assert wjx["closed"] and wjx["inverses"]


def test_pairwise_generators_report():
    report = pairwise_generators()
    by_pair = {r["pair"]: r for r in report["pairs"]}
    mn = by_pair[("M", "N")]
    assert not mn["commute"] and mn["generated_order"] == 24
    mm = by_pair[("M", "M")]
    assert mm["commute"] and mm["generated_order"] <= 2
    # the published "any two non-commuting elements generate" claim is false:
    # exactly 24 non-commuting pairs close into order-6 or order-8 subgroups
    assert not report["noncommuting_pairs_generate"]
    failing = [
        r["pair"]
        for r in report["pairs"]
        if not r["commute"] and r["generated_order"] != 24
    ]
    assert len(failing) == 24
    assert ("M", "P") in failing
    assert by_pair[("M", "P")]["generated_order"] == 6
    assert by_pair[("M", "W")]["generated_order"] == 8
    noncommuting = [r for r in report["pairs"] if not r["commute"]]
    assert len(noncommuting) == 60


def test_isometry_and_triple_preservation():
    report = isometry_report()
    assert report == {
        "basis_pairs_preserved": True,
        "determinants_one": True,
        "triples_to_triples": True,
    }


def test_isometry_report_sees_a_broken_matrix(monkeypatch):
    broken = symmetry.MATRICES.copy()
    broken[5, 0, 0] += 1
    monkeypatch.setattr(symmetry, "MATRICES", broken)
    report = isometry_report()
    assert report == {
        "basis_pairs_preserved": False,
        "determinants_one": bool(det_exact(broken[5]) == 1),
        "triples_to_triples": False,
    }


def test_lift_to4():
    assert lift_to4(element("I")) == (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    )
    assert apply4(element("A"), Vec4(1, 1, 0, 0)) == Vec4(1, 0, 1, 0)
    rnd = random.Random(7)
    for _ in range(1000):
        v = Vec4(*(rnd.randint(-30, 30) for _ in range(4)))
        z = elements()[rnd.randrange(24)]
        assert apply4(z, v) == Vec4(v.t, *apply3(z, spatial(v)).coords())
        assert norm_sq4(apply4(z, v)) == norm_sq4(v)


def test_no_boost_search_rejects_small_bound():
    with pytest.raises(ValueError):
        no_boost_search(2)


def test_no_boost_search_bound3():
    cert = no_boost_search(3)
    # Diophantine sub-enumerations contain the quoted families
    assert all(cert.quoted_families_found["time"].values())
    assert all(cert.quoted_families_found["space"].values())
    assert (2, 1, 1, 0) in cert.time_eq_solutions
    assert (3, 2, 2, -2) in cert.time_eq_solutions
    assert (1, 1, 1, -1) in cert.space_eq_solutions
    assert (2, 2, 1, -1) in cert.space_eq_solutions
    # frozen counts from the exhaustive enumeration at this bound
    assert cert.total_solutions == 336
    assert cert.fixing_time_axis == 48
    assert cert.boost_count == 288
    assert not cert.no_boosts


@pytest.mark.parametrize("bound", [3, 4, 5, 6, 8, 12])
def test_boost_search_matches_grid_oracle(bound):
    cert = no_boost_search(bound)
    oracle = no_boost_search_grid(bound)
    for f in dataclasses.fields(cert):
        assert getattr(cert, f.name) == getattr(oracle, f.name), f.name


@pytest.mark.parametrize("bound", range(3, 21))
def test_boost_search_matches_scan_oracle(bound):
    cert = no_boost_search(bound)
    oracle = no_boost_search_scan(bound)
    for f in dataclasses.fields(cert):
        assert getattr(cert, f.name) == getattr(oracle, f.name), f.name


@pytest.mark.parametrize(("bound", "outside"), [(12, 0), (17, 144), (20, 288)])
def test_representatives_take_space_images_outside_the_box(bound, outside):
    """G does not keep the box.  Moved by the element that takes its time image to the
    least of that image's 24 images, a box solution can leave the box: from bound 17 on
    some do, so a search of the representatives against the box's space images alone
    would miss them."""
    _, _, sols = boost_solutions_scan(bound)
    images = np.einsum("gab,mb->mga", symmetry.MATRICES, sols[:, 0, 1:])  # [m, g]: g's image of m's time image
    keys = images @ (4 * bound + 1) ** np.arange(2, -1, -1)
    moved = sols[:, :, 1:] @ symmetry.MATRICES[keys.argmin(axis=1)].transpose(0, 2, 1)
    assert int((np.abs(moved[:, 1:]) > bound).any(axis=(1, 2)).sum()) == outside
    assert no_boost_search(bound).total_solutions == len(sols)


def test_no_boost_search_bound12():
    cert = no_boost_search(12)
    assert (len(cert.time_eq_solutions), len(cert.space_eq_solutions)) == (966, 1404)
    assert cert.total_solutions == 3024
    assert cert.fixing_time_axis == 48
    assert cert.boost_count == 2976
    assert len(cert.boost_examples) == 16


def test_no_boost_search_peak_stays_in_row_blocks():
    """Pairings are scanned for G's orbit representatives of the time images, 64 at a
    time, and no solution list is sorted as Python tuples, so the traced peak of bound
    12 stays below 3.4 MB."""
    no_boost_search(12)  # first-call allocations, such as numpy's caches, are not counted
    tracemalloc.start()
    try:
        no_boost_search(12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.4e6


def test_boost_examples_are_genuine_isometries():
    """The search refutes the published no-boost claim; verify its witnesses."""
    cert = no_boost_search(3)
    assert cert.boost_examples
    rnd = random.Random(11)
    for m in cert.boost_examples:
        mat = np.array(m, dtype=np.int64)
        # determinant one, integer entries
        assert round(float(np.linalg.det(mat.astype(float)))) == 1
        # moves the time axis
        td = tuple(int(x) for x in mat @ np.array([1, 0, 0, 0]))
        assert td not in {(1, 0, 0, 0), (-1, 0, 0, 0)}
        # exact norm preservation on random vectors
        for _ in range(200):
            v = Vec4(*(rnd.randint(-8, 8) for _ in range(4)))
            img = mat @ np.array(v.coords())
            assert norm_sq4(Vec4(*(int(x) for x in img))) == norm_sq4(v)
        assert preserves_minkowski_form(m)
    assert all(preserves_minkowski_form(lift_to4(z)) for z in elements())
    # one entry off: the image of the time axis (1, 0, 0, 0) changes norm
    bad = [list(row) for row in cert.boost_examples[0]]
    bad[0][0] += 1
    assert not preserves_minkowski_form(bad)


def _det_samples(k: int, count: int, seed: int) -> np.ndarray:
    rnd = random.Random(seed)
    samples = [np.eye(k, dtype=np.int64), np.zeros((k, k), dtype=np.int64)]
    for _ in range(count):
        m = np.array([[rnd.randint(-12, 12) for _ in range(k)] for _ in range(k)], dtype=np.int64)
        m[rnd.randrange(k), 0] = 0  # a zero first-row entry of the transpose
        samples.append(m)
    return np.stack(samples)


def test_det4_exact_matches_leibniz_oracle():
    samples = _det_samples(4, 3000, 44)
    want = [leibniz_det(m) for m in samples.tolist()]
    assert det_exact(samples).tolist() == want
    for m, det in zip(samples, want):
        got = det_exact(m)
        assert type(got) is int and got == det
    # the transpose, as the boost search passes each candidate's columns
    assert det_exact(samples.transpose(0, 2, 1)).tolist() == want


def test_det3_exact_matches_leibniz_oracle():
    samples = _det_samples(3, 1000, 45)
    want = [leibniz_det(m) for m in samples.tolist()]
    assert det_exact(samples).tolist() == want
    assert [det_exact(m) for m in samples.tolist()] == want
    assert det_exact(element("M").matrix) == 1


def test_element_matrices_satisfy_group_invariants():
    basis = (E3, F3, G3)

    for z in elements():
        for u in basis:
            for v in basis:
                assert inner3_doubled(apply3(z, u), apply3(z, v)) == inner3_doubled(u, v)


def test_random_vector_isometry():
    rnd = random.Random(3)

    for _ in range(100):
        u = Vec3(rnd.randint(-50, 50), rnd.randint(-50, 50), rnd.randint(-50, 50))
        v = Vec3(rnd.randint(-50, 50), rnd.randint(-50, 50), rnd.randint(-50, 50))
        z = elements()[rnd.randrange(24)]
        assert inner3_doubled(apply3(z, u), apply3(z, v)) == inner3_doubled(u, v)


def test_lift_preserves_minkowski_pairing():
    rnd = random.Random(5)
    for _ in range(200):
        u = Vec4(*(rnd.randint(-20, 20) for _ in range(4)))
        v = Vec4(*(rnd.randint(-20, 20) for _ in range(4)))
        z = elements()[rnd.randrange(24)]
        assert minkowski_doubled(apply4(z, u), apply4(z, v)) == minkowski_doubled(u, v)


def _orbit_sets(perms):
    """Each index's orbit as a frozenset, closed one group element at a time."""
    out = []
    for i in range(perms.shape[1]):
        orbit, frontier = {i}, [i]
        while frontier:
            new = {int(perms[g, j]) for j in frontier for g in range(len(perms))} - orbit
            orbit |= new
            frontier = list(new)
        out.append(frozenset(orbit))
    return out


@pytest.mark.parametrize("m2, pmax", [(0, 1), (3, 3), (0, 2)])
def test_orbits_match_closure_oracle(m2, pmax):
    """On a hyperboloid's points: the representatives are the orbits' least points,
    ascending, and every point i is g.r for the (g, r) returned."""
    h = hyperboloid(m2, pmax)
    perms = np.stack([h.permutation_under(z) for z in range(24)])
    reps, element_of, rep = symmetry.orbits(perms)
    sets = _orbit_sets(perms)
    assert reps.tolist() == sorted({min(orbit) for orbit in sets})
    assert rep.tolist() == [min(orbit) for orbit in sets]
    assert np.array_equal(perms[element_of, rep], np.arange(len(h)))
    empty = symmetry.orbits(np.zeros((24, 0), dtype=np.int64))
    assert [len(part) for part in empty] == [0, 0, 0]


def _class_table() -> dict[tuple[int, int], list[int]]:
    """G's conjugacy classes from the product table alone, keyed by (size, element order)."""
    identity = symmetry.index("I")
    inverse_of = np.argmax(symmetry.PRODUCT_INDEX == identity, axis=1)
    classes = {}
    for g in range(24):
        members = sorted({int(symmetry.PRODUCT_INDEX[symmetry.PRODUCT_INDEX[h, g], inverse_of[h]]) for h in range(24)})
        power, order = g, 1
        while power != identity:
            power, order = symmetry.PRODUCT_INDEX[power, g], order + 1
        classes[len(members), order] = members
    return classes


# S4's character table on the classes of the identity, the three double transpositions,
# the six transpositions, the six 4-cycles and the eight 3-cycles: trivial, sign, 2, 3
# (the standard representation) and 3' = 3 (x) sign, the rotations
S4_CHARACTERS = {(1, 1): [1, 1, 2, 3, 3], (3, 2): [1, 1, 2, -1, -1], (6, 2): [1, -1, 0, 1, -1],
                 (6, 4): [1, -1, 0, -1, 1], (8, 3): [1, 1, -1, 0, 0]}


def test_irreps_characters_match_the_class_table():
    """Each irrep's character is a class function with S4's values on the classes the
    product table gives; the five are orthonormal and their squared dimensions sum to 24."""
    classes = _class_table()
    assert sorted(classes) == sorted(S4_CHARACTERS)
    characters = np.array([np.trace(d, axis1=1, axis2=2) for d in symmetry.irreps()])
    for key, members in classes.items():
        assert np.max(np.abs(characters[:, members] - np.array(S4_CHARACTERS[key])[:, None])) <= 1e-14
    assert np.max(np.abs(characters @ characters.T / 24 - np.eye(5))) <= 1e-14
    assert sum(len(d.T) ** 2 for d in symmetry.irreps()) == 24


def test_irreps_are_orthogonal_representations():
    """D(g) D(h) = D(gh) and D(g) D(g)^T = I to 1e-14; 3' is the rotations themselves and
    3 their product with the sign, which is +1 exactly on the squares."""
    for d in symmetry.irreps():
        assert np.max(np.abs(d[symmetry.PRODUCT_INDEX] - d[:, None] @ d[None])) <= 1e-14
        assert np.max(np.abs(d @ d.transpose(0, 2, 1) - np.eye(len(d.T)))) <= 1e-14
    trivial, sign, _, three, three_prime = symmetry.irreps()
    assert np.array_equal(trivial, np.ones((24, 1, 1))) and np.array_equal(three_prime, CAL_U)
    squares = np.isin(np.arange(24), np.diagonal(symmetry.PRODUCT_INDEX))
    assert np.array_equal(sign[:, 0, 0], np.where(squares, 1.0, -1.0))
    assert np.array_equal(three, sign * CAL_U)


def test_irreps_are_built_on_first_use():
    """Importing the package builds no irrep: the cache is empty until the first call."""
    code = "from causet_qft import cli, symmetry; print(symmetry.irreps.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(Path(symmetry.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.split() == ["0"]
